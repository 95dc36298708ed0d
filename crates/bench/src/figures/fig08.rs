//! Fig. 8: overall system comparison — RCMP vs Hadoop REPL-2/REPL-3 vs
//! OPTIMISTIC, on both clusters, under (a) no failure, (b) a single
//! failure early (job 2), (c) a single failure late (job 7).
//!
//! Shapes reproduced: failure-free REPL-2 ≈ 1.3x and REPL-3 ≈ 1.65–2x
//! slower than RCMP; under failures RCMP (split) stays fastest; the
//! SPLIT/NO-SPLIT gap grows when the failure is late (more
//! recomputation runs); OPTIMISTIC collapses on late failures (≈2.2x).

use crate::figures::{paper_scenarios, Scenario};
use crate::table;
use rcmp_core::Strategy;
use rcmp_sim::{simulate_chain, ChainSimConfig, FailureAt};
use serde::{Deserialize, Serialize};

/// Which Fig.-8 panel to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FailCase {
    /// Fig. 8a.
    None,
    /// Fig. 8b: failure 15 s into job 2.
    Early,
    /// Fig. 8c: failure 15 s into job 7.
    Late,
}

impl FailCase {
    pub fn label(&self) -> &'static str {
        match self {
            FailCase::None => "8a (no failure)",
            FailCase::Early => "8b (failure at job 2)",
            FailCase::Late => "8c (failure at job 7)",
        }
    }

    fn failures(&self, victim: u32) -> Vec<FailureAt> {
        match self {
            FailCase::None => vec![],
            FailCase::Early => vec![FailureAt::at_job(2, victim)],
            FailCase::Late => vec![FailureAt::at_job(7, victim)],
        }
    }
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig08Row {
    pub strategy: String,
    /// `(scenario, total_seconds, slowdown_vs_fastest)`.
    pub cells: Vec<(String, f64, f64)>,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig08Result {
    pub case: String,
    pub rows: Vec<Fig08Row>,
}

fn strategies(case: FailCase, split: u32) -> Vec<(String, Strategy)> {
    let mut v = vec![
        ("RCMP SPLIT".to_string(), Strategy::rcmp_split(split)),
        ("RCMP NO-SPLIT".to_string(), Strategy::rcmp_no_split()),
        (
            "HADOOP REPL-2".to_string(),
            Strategy::Replication { factor: 2 },
        ),
        (
            "HADOOP REPL-3".to_string(),
            Strategy::Replication { factor: 3 },
        ),
        ("OPTIMISTIC".to_string(), Strategy::Optimistic),
    ];
    if case == FailCase::Late {
        // The §V-B text: hybrid (replicate every 5th job, factor 2)
        // would appear at 0.93 for STIC SLOTS 1-1.
        v.push((
            "HYBRID k=5".to_string(),
            Strategy::Hybrid {
                split: rcmp_core::SplitPolicy::Fixed(split),
                every_k: 5,
                factor: 2,
                reclaim: false,
            },
        ));
    }
    v
}

/// Runs one Fig.-8 panel over the given scenarios: one simulation per
/// strategy × scenario cell.
pub fn run_with(case: FailCase, scenarios: &[Scenario]) -> Fig08Result {
    let grid: Vec<(String, String, rcmp_core::Strategy, Scenario)> = scenarios
        .iter()
        .flat_map(|scenario| {
            strategies(case, scenario.split)
                .into_iter()
                .map(move |(name, strategy)| {
                    (name, scenario.name.to_string(), strategy, scenario.clone())
                })
        })
        .collect();
    let cells: Vec<(String, String, f64)> = grid
        .into_iter()
        .map(|(name, scen_name, strategy, scenario)| {
            let victim = scenario.wl.nodes - 1;
            let cfg = ChainSimConfig::new(scenario.hw.clone(), scenario.wl.clone(), strategy)
                .with_failures(case.failures(victim));
            let rep = simulate_chain(&cfg);
            (name, scen_name, rep.total_time)
        })
        .collect();
    let mut totals: Vec<Vec<(String, f64)>> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for (name, scen, secs) in cells {
        if !names.contains(&name) {
            names.push(name.clone());
            totals.push(Vec::new());
        }
        let idx = names.iter().position(|n| *n == name).unwrap();
        totals[idx].push((scen, secs));
    }
    // Normalize each scenario column to its fastest strategy.
    let num_scen = scenarios.len();
    let mut rows = Vec::new();
    for (name, cells) in names.iter().zip(&totals) {
        let mut out_cells = Vec::new();
        for s in 0..num_scen {
            let (scen, secs) = &cells[s];
            let fastest = totals.iter().map(|c| c[s].1).fold(f64::INFINITY, f64::min);
            out_cells.push((scen.clone(), *secs, secs / fastest));
        }
        rows.push(Fig08Row {
            strategy: name.clone(),
            cells: out_cells,
        });
    }
    Fig08Result {
        case: case.label().to_string(),
        rows,
    }
}

/// Runs a panel on the paper's full-scale scenarios.
pub fn run(case: FailCase) -> Fig08Result {
    run_with(case, &paper_scenarios())
}

impl Fig08Result {
    pub fn render(&self) -> String {
        let mut header = vec!["strategy".to_string()];
        if let Some(first) = self.rows.first() {
            for (scen, _, _) in &first.cells {
                header.push(format!("{scen} (slowdown)"));
            }
        }
        let mut rows = vec![header];
        for r in &self.rows {
            let mut row = vec![r.strategy.clone()];
            for (_, secs, slow) in &r.cells {
                row.push(format!("{} ({})", table::secs(*secs), table::factor(*slow)));
            }
            rows.push(row);
        }
        format!("Fig. {} \n{}", self.case, table::render(&rows))
    }

    /// Slowdown of `strategy` in scenario index `s`.
    pub fn slowdown(&self, strategy: &str, s: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.strategy == strategy)
            .and_then(|r| r.cells.get(s))
            .map(|c| c.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::quick_scenarios;

    #[test]
    fn fig8a_replication_ordering() {
        let r = run_with(FailCase::None, &quick_scenarios());
        for s in 0..3 {
            let rcmp = r.slowdown("RCMP SPLIT", s).unwrap();
            let repl2 = r.slowdown("HADOOP REPL-2", s).unwrap();
            let repl3 = r.slowdown("HADOOP REPL-3", s).unwrap();
            let opt = r.slowdown("OPTIMISTIC", s).unwrap();
            assert!(rcmp <= 1.0 + 1e-9, "RCMP is the fastest baseline");
            assert!((opt - rcmp).abs() < 0.01, "OPTIMISTIC == RCMP w/o failures");
            assert!(repl2 > 1.1, "REPL-2 noticeably slower: {repl2}");
            assert!(repl3 > repl2, "REPL-3 worse than REPL-2");
            assert!(repl3 < 3.0, "but not absurdly so: {repl3}");
        }
    }

    #[test]
    fn fig8c_optimistic_collapses_and_split_wins() {
        let r = run_with(FailCase::Late, &quick_scenarios());
        for s in 0..3 {
            let split = r.slowdown("RCMP SPLIT", s).unwrap();
            let no_split = r.slowdown("RCMP NO-SPLIT", s).unwrap();
            let opt = r.slowdown("OPTIMISTIC", s).unwrap();
            assert!(split <= no_split + 1e-9, "splitting helps late failures");
            assert!(opt > 1.5, "late OPTIMISTIC ≈ 2x: {opt}");
        }
    }

    #[test]
    fn fig8b_rcmp_beats_all_non_rcmp_strategies() {
        // With an early failure only one recomputation runs, so SPLIT
        // and NO-SPLIT are near-ties (as in the paper's Fig. 8b); the
        // robust claim is that RCMP beats every non-RCMP strategy.
        let r = run_with(FailCase::Early, &quick_scenarios());
        for s in 0..3 {
            let split = r.slowdown("RCMP SPLIT", s).unwrap();
            for other in ["HADOOP REPL-2", "HADOOP REPL-3", "OPTIMISTIC"] {
                assert!(
                    split < r.slowdown(other, s).unwrap(),
                    "scenario {s}: RCMP SPLIT {split} !< {other}"
                );
            }
            assert!(split < 1.05, "RCMP within 5% of the fastest: {split}");
        }
        assert!(r.render().contains("RCMP SPLIT"));
    }
}
