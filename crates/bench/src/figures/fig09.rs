//! Fig. 9: double failures on STIC (10 nodes, SLOTS 1-1) — RCMP with
//! split 8 (S8) and without (NO) vs Hadoop REPL-3.
//!
//! `FAIL X,Y` injects one failure at run X and one at run Y of RCMP's
//! run numbering (recomputations get fresh numbers, so FAIL 7,14 hits
//! the restarted job 7 after recovery; FAIL 4,7 is the nested case —
//! the second failure lands while recovery from the first is still in
//! progress). Hadoop always runs 7 jobs, so its injections map to jobs
//! 2 or 7 (§V-A).

use crate::table;
use rcmp_core::Strategy;
use rcmp_model::SlotConfig;
use rcmp_sim::{simulate_chain, ChainSimConfig, FailureAt, HwProfile, WorkloadCfg};
use serde::{Deserialize, Serialize};

/// The paper's five double-failure scenarios.
pub const SCENARIOS: [(u64, u64); 5] = [(2, 2), (7, 7), (7, 14), (2, 4), (4, 7)];

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig09Row {
    pub fail: (u64, u64),
    /// `(strategy, total_seconds, slowdown_vs_best_in_row)`.
    pub cells: Vec<(String, f64, f64)>,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig09Result {
    pub rows: Vec<Fig09Row>,
}

fn workload(scale_down: u64) -> WorkloadCfg {
    let mut wl = WorkloadCfg::stic(SlotConfig::ONE_ONE);
    wl.per_node_input = wl.per_node_input / scale_down.max(1);
    wl
}

/// Runs Fig. 9. `scale_down` divides the per-node input (1 = paper
/// scale) so tests and `--quick` runs finish fast.
pub fn run_scaled(scale_down: u64) -> Fig09Result {
    let wl = workload(scale_down);
    let hw = HwProfile::stic();
    let n = wl.nodes;
    let strategies: Vec<(String, Strategy)> = vec![
        ("RCMP S8".into(), Strategy::rcmp_split(8)),
        ("RCMP NO".into(), Strategy::rcmp_no_split()),
        ("HADOOP REPL-3".into(), Strategy::Replication { factor: 3 }),
    ];
    let mut rows = Vec::new();
    for (x, y) in SCENARIOS {
        let mut cells = Vec::new();
        for (name, strategy) in &strategies {
            let is_repl = matches!(strategy, Strategy::Replication { .. });
            // Hadoop's run numbering never exceeds the chain length.
            let (fx, fy) = if is_repl {
                (x.min(7), y.min(7))
            } else {
                (x, y)
            };
            let failures = vec![
                FailureAt::at_job(fx, n - 1),
                FailureAt {
                    seq: fy,
                    // Same-run second failure arrives 15 s after the first.
                    offset: if fx == fy { 30.0 } else { 15.0 },
                    node: n - 2,
                },
            ];
            let cfg =
                ChainSimConfig::new(hw.clone(), wl.clone(), *strategy).with_failures(failures);
            let rep = simulate_chain(&cfg);
            cells.push((name.clone(), rep.total_time, 0.0));
        }
        let best = cells.iter().map(|c| c.1).fold(f64::INFINITY, f64::min);
        for c in &mut cells {
            c.2 = c.1 / best;
        }
        rows.push(Fig09Row {
            fail: (x, y),
            cells,
        });
    }
    Fig09Result { rows }
}

/// Paper-scale run.
pub fn run() -> Fig09Result {
    run_scaled(1)
}

impl Fig09Result {
    pub fn render(&self) -> String {
        let mut header = vec!["FAIL X,Y".to_string()];
        if let Some(first) = self.rows.first() {
            for (name, _, _) in &first.cells {
                header.push(format!("{name} (slowdown)"));
            }
        }
        let mut rows = vec![header];
        for r in &self.rows {
            let mut row = vec![format!("FAIL {},{}", r.fail.0, r.fail.1)];
            for (_, secs, slow) in &r.cells {
                row.push(format!("{} ({})", table::secs(*secs), table::factor(*slow)));
            }
            rows.push(row);
        }
        format!(
            "Fig. 9 — double failures, STIC SLOTS 1-1\n{}",
            table::render(&rows)
        )
    }

    pub fn time_of(&self, fail: (u64, u64), strategy: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.fail == fail)
            .and_then(|r| r.cells.iter().find(|c| c.0 == strategy))
            .map(|c| c.1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_beats_repl3_in_every_scenario() {
        let r = run_scaled(8);
        for row in &r.rows {
            let s8 = row.cells.iter().find(|c| c.0 == "RCMP S8").unwrap().1;
            let repl3 = row.cells.iter().find(|c| c.0 == "HADOOP REPL-3").unwrap().1;
            assert!(
                s8 <= repl3 * 1.05,
                "FAIL {:?}: RCMP S8 {} vs REPL-3 {}",
                row.fail,
                s8,
                repl3
            );
        }
    }

    #[test]
    fn splitting_helps_most_when_failures_are_late() {
        let r = run_scaled(8);
        let gain = |fail| {
            let s8 = r.time_of(fail, "RCMP S8").unwrap();
            let no = r.time_of(fail, "RCMP NO").unwrap();
            no / s8
        };
        // FAIL 7,14 triggers the most recomputation → biggest benefit.
        assert!(
            gain((7, 14)) >= gain((2, 4)) * 0.95,
            "late-failure split gain {} vs early {}",
            gain((7, 14)),
            gain((2, 4))
        );
    }

    #[test]
    fn nested_case_completes() {
        let r = run_scaled(8);
        assert!(r.time_of((4, 7), "RCMP S8").unwrap() > 0.0);
        assert!(r.render().contains("FAIL 4,7"));
    }
}
