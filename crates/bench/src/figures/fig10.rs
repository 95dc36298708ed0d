//! Fig. 10: impact of a larger chain length (failure at job 2) —
//! numerical analysis extrapolating measured per-job averages, exactly
//! the paper's method (§V-B "Longer chains").
//!
//! Shape reproduced: slowdowns vs RCMP SPLIT are essentially flat in
//! chain length, with REPL-3 ≈ its failure-free penalty (~1.6–1.9) and
//! REPL-2 ≈ ~1.3.

use crate::numerical::{
    optimistic_chain_time, rcmp_chain_time, replication_chain_time, MeasuredAverages,
};
use crate::table;
use rcmp_core::Strategy;
use rcmp_model::SlotConfig;
use rcmp_sim::{simulate_chain, ChainSimConfig, FailureAt, HwProfile, WorkloadCfg};
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig10Result {
    /// Chain lengths on the x-axis.
    pub lengths: Vec<u32>,
    /// `(strategy, slowdown per length)`.
    pub series: Vec<(String, Vec<f64>)>,
    /// The measured averages feeding the extrapolation (per strategy).
    pub measured: Vec<(String, MeasuredAverages)>,
}

/// Measures per-job averages for one strategy on the STIC SLOTS 2-2
/// setup: average job time with N nodes (failure-free run), with N−1
/// nodes (run after an immediate failure), and the recomputation-run
/// time (from a failure-at-job-2 run).
fn measure(strategy: Strategy, wl: &WorkloadCfg, hw: &HwProfile) -> MeasuredAverages {
    let clean = simulate_chain(&ChainSimConfig::new(hw.clone(), wl.clone(), strategy));
    let job_full = clean.mean_initial_job_time();

    // Kill a node as the chain starts: every later job runs on N−1
    // nodes.
    let reduced = simulate_chain(
        &ChainSimConfig::new(hw.clone(), wl.clone(), strategy)
            .with_failures(vec![FailureAt::at_job(1, wl.nodes - 1)]),
    );
    // Skip the first run (it carries the failure overhead).
    let reduced_times: Vec<f64> = reduced
        .runs
        .iter()
        .filter(|r| !r.recompute && r.seq > 1)
        .map(|r| r.duration)
        .collect();
    let job_reduced = if reduced_times.is_empty() {
        job_full
    } else {
        reduced_times.iter().sum::<f64>() / reduced_times.len() as f64
    };

    // Recomputation-run time from a failure at job 2 (RCMP only; for
    // replication strategies there is no recomputation).
    let recompute_run = if strategy.persists_outputs() {
        let failed = simulate_chain(
            &ChainSimConfig::new(hw.clone(), wl.clone(), strategy)
                .with_failures(vec![FailureAt::at_job(2, wl.nodes - 1)]),
        );
        let recs: Vec<f64> = failed.recompute_runs().map(|r| r.duration).collect();
        if recs.is_empty() {
            0.0
        } else {
            recs.iter().sum::<f64>() / recs.len() as f64
        }
    } else {
        0.0
    };

    MeasuredAverages {
        job_full_nodes: job_full,
        job_reduced_nodes: job_reduced,
        recompute_run,
        failure_overhead: 15.0 + hw.detect_timeout,
    }
}

/// Runs the Fig.-10 extrapolation. `scale_down` divides per-node input.
pub fn run_scaled(scale_down: u64) -> Fig10Result {
    let hw = HwProfile::stic();
    let mut wl = WorkloadCfg::stic(SlotConfig::TWO_TWO);
    wl.per_node_input = wl.per_node_input / scale_down.max(1);

    let strategies = [
        ("RCMP SPLIT".to_string(), Strategy::rcmp_split(8)),
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
    let measured: Vec<(String, MeasuredAverages)> = strategies
        .iter()
        .map(|(n, s)| (n.clone(), measure(*s, &wl, &hw)))
        .collect();

    let lengths: Vec<u32> = (1..=10).map(|i| i * 10).collect();
    let rcmp = &measured[0].1;
    let mut series = Vec::new();
    for (name, m) in &measured {
        let mut slowdowns = Vec::new();
        for &len in &lengths {
            let base = rcmp_chain_time(rcmp, len, 2);
            let t = match name.as_str() {
                "RCMP SPLIT" => rcmp_chain_time(m, len, 2),
                "OPTIMISTIC" => optimistic_chain_time(m, len, 2),
                _ => replication_chain_time(m, len, 2),
            };
            slowdowns.push(t / base);
        }
        series.push((name.clone(), slowdowns));
    }
    Fig10Result {
        lengths,
        series,
        measured,
    }
}

/// Paper-scale run.
pub fn run() -> Fig10Result {
    run_scaled(1)
}

impl Fig10Result {
    pub fn render(&self) -> String {
        let mut header = vec!["chain length".to_string()];
        for (name, _) in &self.series {
            header.push(name.clone());
        }
        let mut rows = vec![header];
        for (i, len) in self.lengths.iter().enumerate() {
            let mut row = vec![len.to_string()];
            for (_, s) in &self.series {
                row.push(table::factor(s[i]));
            }
            rows.push(row);
        }
        format!(
            "Fig. 10 — chain-length extrapolation (failure at job 2), STIC SLOTS 2-2\n{}",
            table::render(&rows)
        )
    }

    pub fn series_of(&self, name: &str) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdowns_flat_and_ordered() {
        let r = run_scaled(8);
        let repl3 = r.series_of("HADOOP REPL-3").unwrap();
        let repl2 = r.series_of("HADOOP REPL-2").unwrap();
        let rcmp = r.series_of("RCMP SPLIT").unwrap();
        // RCMP is the baseline (1.0 everywhere).
        assert!(rcmp.iter().all(|&x| (x - 1.0).abs() < 1e-9));
        // Flat in chain length (paper: "RCMP's benefits are stable
        // regardless of the chain length").
        let spread = repl3.iter().fold(0.0f64, |a, &x| a.max(x))
            - repl3.iter().fold(f64::INFINITY, |a, &x| a.min(x));
        assert!(spread < 0.25, "REPL-3 slowdown not flat: {repl3:?}");
        // Ordering.
        for i in 0..r.lengths.len() {
            assert!(repl3[i] > repl2[i]);
            assert!(repl2[i] > 1.05);
        }
        assert!(r.render().contains("100"));
    }

    #[test]
    fn optimistic_early_failure_is_mild() {
        // With a failure at job 2, OPTIMISTIC only wastes one job — its
        // slowdown converges near the per-job N−1 ratio (Fig. 8b showed
        // it close to RCMP for early failures).
        let r = run_scaled(8);
        let opt = r.series_of("OPTIMISTIC").unwrap();
        assert!(opt.last().unwrap() < &1.3, "{opt:?}");
    }
}
