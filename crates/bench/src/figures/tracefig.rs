//! Pseudo-figure `trace`: runs the paper's FAIL 7 scenario in the
//! simulator at paper scale and applies the observability analyzers to
//! the trace it recorded ([`rcmp_sim::SimChainReport::trace`]) — the
//! span summary, the slot-occupancy profile (Fig. 4) and the
//! recomputation critical path. The job machine and the chain loop
//! write that trace on both clocks, so the same tooling reads simulated
//! chains, where the engine never ran.

use crate::table;
use rcmp_core::Strategy;
use rcmp_model::SlotConfig;
use rcmp_obs::{recomputation_critical_path, slot_occupancy, summary, SpanKind};
use rcmp_sim::{simulate_chain, ChainSimConfig, FailureAt, HwProfile, WorkloadCfg};
use serde::{Deserialize, Serialize};

/// Analyzer digest of the simulated FAIL 7 cascade's trace.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TraceFigure {
    pub spans: usize,
    pub job_runs: usize,
    pub recompute_runs: usize,
    /// Mean slot occupancy over the full (non-recompute) runs.
    pub full_avg_occupancy: f64,
    /// Mean slot occupancy over the recomputation runs — Fig. 4's
    /// under-utilization.
    pub recompute_avg_occupancy: f64,
    pub critical_path_steps: usize,
    pub critical_path_secs: f64,
    /// The per-kind span summary (counts and total duration).
    pub summary: String,
}

/// Runs FAIL 7 (RCMP NO on STIC, SLOTS 1-1) and analyzes its trace.
/// `scale_down` divides the per-node input (1 = paper scale).
pub fn run_scaled(scale_down: u64) -> TraceFigure {
    let mut wl = WorkloadCfg::stic(SlotConfig::ONE_ONE);
    wl.per_node_input = wl.per_node_input / scale_down.max(1);
    let cfg = ChainSimConfig::new(HwProfile::stic(), wl.clone(), Strategy::rcmp_no_split())
        .with_failures(vec![FailureAt::at_job(7, wl.nodes - 1)]);
    let trace = simulate_chain(&cfg).trace;

    let occ = slot_occupancy(&trace);
    let mean = |recompute: bool| {
        let runs: Vec<f64> = occ
            .iter()
            .filter(|r| r.recompute == recompute && !r.waves.is_empty())
            .map(|r| r.avg_occupancy())
            .collect();
        if runs.is_empty() {
            0.0
        } else {
            runs.iter().sum::<f64>() / runs.len() as f64
        }
    };
    let path = recomputation_critical_path(&trace);
    TraceFigure {
        spans: trace.len(),
        job_runs: trace.of_kind("JobRun").count(),
        recompute_runs: trace
            .spans()
            .iter()
            .filter(|s| {
                matches!(
                    s.kind,
                    SpanKind::JobRun {
                        recompute: true,
                        ..
                    }
                )
            })
            .count(),
        full_avg_occupancy: mean(false),
        recompute_avg_occupancy: mean(true),
        critical_path_steps: path.as_ref().map_or(0, |p| p.steps.len()),
        critical_path_secs: path.as_ref().map_or(0.0, |p| p.total_us as f64 / 1e6),
        summary: summary(&trace),
    }
}

/// Paper-scale run.
pub fn run() -> TraceFigure {
    run_scaled(1)
}

impl TraceFigure {
    pub fn render(&self) -> String {
        let rows = vec![
            vec!["metric".to_string(), "value".to_string()],
            vec!["spans".to_string(), self.spans.to_string()],
            vec!["job runs".to_string(), self.job_runs.to_string()],
            vec![
                "recomputation runs".to_string(),
                self.recompute_runs.to_string(),
            ],
            vec![
                "avg occupancy, full runs".to_string(),
                format!("{:.2}", self.full_avg_occupancy),
            ],
            vec![
                "avg occupancy, recompute runs".to_string(),
                format!("{:.2}", self.recompute_avg_occupancy),
            ],
            vec![
                "critical path steps".to_string(),
                self.critical_path_steps.to_string(),
            ],
            vec![
                "critical path time".to_string(),
                table::secs(self.critical_path_secs),
            ],
        ];
        format!(
            "Trace — simulated FAIL 7 cascade through the span analyzers\n{}\n{}",
            table::render(&rows),
            self.summary
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_cascade_is_traceable() {
        let f = run_scaled(8);
        assert!(f.recompute_runs > 0, "FAIL 7 forces recomputation");
        assert_eq!(
            f.critical_path_steps, f.recompute_runs,
            "one cascade: every recompute run is on the critical path"
        );
        assert!(f.critical_path_secs > 0.0);
        assert!(
            f.recompute_avg_occupancy < f.full_avg_occupancy,
            "Fig. 4 on the simulator: recompute {} vs full {}",
            f.recompute_avg_occupancy,
            f.full_avg_occupancy
        );
        assert!(f.render().contains("critical path"));
    }
}
