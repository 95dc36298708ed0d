//! BENCH: placement-kernel comparison (the `placement` pseudo-figure,
//! ISSUE 8).
//!
//! Runs the same failure-injected job chain under each placement
//! kernel — the historical slot-pull default, rack-aware stealing,
//! delay scheduling and capacity-weighted slot-pull — over three
//! cluster shapes: the paper's STIC profile, a heterogeneous racked
//! cluster (capacities 1–3), and a 1000-node racked cluster. The
//! 1000-node block is the acceptance gate: every kernel must drive the
//! large sim to completion, clean and under failure, and the published
//! `BENCH_placement.json` carries the comparison.
//!
//! Kernels move *tasks*, never bytes: data placement, replication and
//! recovery are identical across rows, so the columns isolate pure
//! scheduling effects (map-wave counts, input locality, end-to-end
//! seconds).

use rcmp_core::strategy::Strategy;
use rcmp_model::{ByteSize, PlacementKernel, SlotConfig};
use rcmp_policy::Membership;
use rcmp_sim::{simulate_chain, ChainSimConfig, FailureAt, HwProfile, WorkloadCfg};
use serde::{Deserialize, Serialize};

/// The four kernels the comparison sweeps, by label: `default`,
/// `rack`, `delay:3`, `capacity`.
pub fn kernels() -> [PlacementKernel; 4] {
    [
        PlacementKernel::Default,
        PlacementKernel::RackAware,
        PlacementKernel::Delay { rounds: 3 },
        PlacementKernel::CapacityWeighted,
    ]
}

/// One (scenario, kernel) measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PlacementRow {
    /// Cluster scenario label.
    pub scenario: String,
    /// Kernel label (`PlacementKernel::label`).
    pub kernel: String,
    /// Cluster width.
    pub nodes: u32,
    /// Rack count the membership encodes.
    pub racks: u32,
    /// Failure-free chain seconds.
    pub clean_secs: f64,
    /// Chain seconds with a node kill at job 2 (recomputation path).
    pub failed_secs: f64,
    /// Map waves of the first clean run.
    pub map_waves: u32,
    /// Node-local map-input percentage of the first clean run.
    pub locality_pct: f64,
}

/// The full placement benchmark result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PlacementResult {
    pub rows: Vec<PlacementRow>,
}

/// Membership over `nodes` spread across `racks`, with per-node
/// capacity from `cap` — built through `join` so the figure exercises
/// the same elastic path the engine uses.
fn membership(nodes: u32, racks: u32, cap: impl Fn(u32) -> u32) -> Membership {
    let per_rack = nodes.div_ceil(racks.max(1));
    let mut m = Membership::uniform(0);
    for i in 0..nodes {
        m.join(cap(i), i / per_rack);
    }
    m
}

struct Scenario {
    name: &'static str,
    wl: WorkloadCfg,
    membership: Option<Membership>,
    racks: u32,
}

fn scenarios(scale: u64) -> Vec<Scenario> {
    let scale = scale.max(1);
    let mut stic = WorkloadCfg::stic(SlotConfig::ONE_ONE);
    stic.per_node_input = stic.per_node_input / scale;
    stic.jobs = 4;

    let hetero_wl = WorkloadCfg {
        nodes: 64,
        slots: SlotConfig::ONE_ONE,
        jobs: 3,
        per_node_input: ByteSize::mib(if scale > 1 { 128 } else { 256 }),
        block_size: ByteSize::mib(128),
        num_reducers: 64,
        map_ratio: 1.0,
        reduce_ratio: 1.0,
        input_replication: 3,
    };

    // The ≥1000-node acceptance scenario runs at full width even in
    // quick mode — only the chain length shrinks.
    let large_wl = WorkloadCfg {
        nodes: 1000,
        slots: SlotConfig::ONE_ONE,
        jobs: if scale > 1 { 2 } else { 3 },
        per_node_input: ByteSize::mib(128),
        block_size: ByteSize::mib(128),
        num_reducers: 1000,
        map_ratio: 1.0,
        reduce_ratio: 1.0,
        input_replication: 3,
    };

    vec![
        Scenario {
            name: "stic-10-uniform",
            wl: stic,
            membership: None,
            racks: 1,
        },
        Scenario {
            name: "hetero-64x4racks",
            wl: hetero_wl,
            membership: Some(membership(64, 4, |i| 1 + i % 3)),
            racks: 4,
        },
        Scenario {
            name: "racked-1000x24",
            wl: large_wl,
            membership: Some(membership(1000, 24, |_| 1)),
            racks: 24,
        },
    ]
}

fn run_one(s: &Scenario, kernel: PlacementKernel) -> PlacementRow {
    let mut base = ChainSimConfig::new(HwProfile::stic(), s.wl.clone(), Strategy::rcmp_split(4))
        .with_placement(kernel);
    if let Some(m) = &s.membership {
        base = base.with_membership(m.clone());
    }
    let clean = simulate_chain(&base);
    let failed = simulate_chain(&base.with_failures(vec![FailureAt::at_job(2, 5)]));
    let (map_waves, locality_pct) = clean
        .runs
        .first()
        .map(|r| {
            let total = r.io.map_input_local + r.io.map_input_remote;
            let pct = if total == 0 {
                100.0
            } else {
                100.0 * r.io.map_input_local as f64 / total as f64
            };
            (r.map_waves, pct)
        })
        .unwrap_or((0, 0.0));
    PlacementRow {
        scenario: s.name.to_string(),
        kernel: kernel.label(),
        nodes: s.wl.nodes,
        racks: s.racks,
        clean_secs: clean.total_time,
        failed_secs: failed.total_time,
        map_waves,
        locality_pct,
    }
}

/// Runs the benchmark. `scale` shrinks inputs and chain lengths
/// (`--quick` passes 8) but never the 1000-node cluster width.
pub fn run_scaled(scale: u64) -> PlacementResult {
    let mut rows = Vec::new();
    for s in scenarios(scale) {
        for kernel in kernels() {
            rows.push(run_one(&s, kernel));
        }
    }
    PlacementResult { rows }
}

impl PlacementResult {
    /// ASCII table, one block per scenario.
    pub fn render(&self) -> String {
        let mut out =
            String::from("BENCH placement: kernels over cluster shapes (chain seconds)\n");
        let mut last = "";
        for r in &self.rows {
            if r.scenario != last {
                out.push_str(&format!(
                    "\n{} ({} nodes, {} racks)\n",
                    r.scenario, r.nodes, r.racks
                ));
                out.push_str("kernel    | clean s  | failed s | map waves | local %\n");
                last = &r.scenario;
            }
            out.push_str(&format!(
                "{:<9} | {:8.1} | {:8.1} | {:>9} | {:6.1}\n",
                r.kernel, r.clean_secs, r.failed_secs, r.map_waves, r.locality_pct
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kernels_complete_every_scenario() {
        let r = run_scaled(8);
        assert_eq!(r.rows.len(), 3 * 4, "3 scenarios x 4 kernels");
        for row in &r.rows {
            assert!(
                row.clean_secs > 0.0 && row.failed_secs > 0.0,
                "{row:?} did not complete"
            );
            assert!(
                row.failed_secs > row.clean_secs,
                "{row:?}: failure must cost time"
            );
        }
    }

    #[test]
    fn thousand_node_comparison_covers_every_kernel() {
        let r = run_scaled(8);
        let large: Vec<&PlacementRow> = r.rows.iter().filter(|row| row.nodes >= 1000).collect();
        assert_eq!(large.len(), 4, "all four kernels at >=1000 nodes");
        let labels: Vec<&str> = large.iter().map(|r| r.kernel.as_str()).collect();
        assert_eq!(labels, vec!["default", "rack", "delay:3", "capacity"]);
    }

    #[test]
    fn kernels_only_move_tasks_not_bytes() {
        // Same scenario, different kernels: data volume written is a
        // placement-independent property of the workload.
        let r = run_scaled(8);
        for scenario in ["stic-10-uniform", "hetero-64x4racks"] {
            let waves: Vec<u32> = r
                .rows
                .iter()
                .filter(|row| row.scenario == scenario)
                .map(|row| row.map_waves)
                .collect();
            assert!(!waves.is_empty());
            // Capacity-weighted packs heterogeneous clusters into fewer
            // (or equal) waves than uniform slot-pull.
            if scenario == "hetero-64x4racks" {
                assert!(
                    waves[3] <= waves[0],
                    "capacity-weighted used more waves than default: {waves:?}"
                );
            }
        }
    }
}
