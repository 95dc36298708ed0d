//! Fig. 11: reducer splitting lets recomputation exploit added nodes.
//!
//! DCO-like clusters of 12–60 nodes, constant 20 GB of work per node.
//! After a failure, the failed node's 20 GB is recomputed; the y-axis is
//! how much faster the recomputation run is than the initial run of the
//! same job. Shape reproduced: NO-SPLIT stays flat (one node bears the
//! whole reducer), SPLIT (ratio N−1) grows steeply with node count.

use crate::table;
use rcmp_sim::jobsim::RecomputeSpec;
use rcmp_sim::{HwProfile, JobSim, SimState, WorkloadCfg};
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig11Point {
    pub nodes: u32,
    pub no_split: f64,
    pub split: f64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig11Result {
    pub points: Vec<Fig11Point>,
}

fn workload(nodes: u32, scale_down: u64) -> WorkloadCfg {
    let mut wl = WorkloadCfg::dco();
    wl.nodes = nodes;
    wl.num_reducers = nodes;
    wl.per_node_input = wl.per_node_input / scale_down.max(1);
    wl
}

/// Recomputation speed-up (initial job time / recomputation time) at a
/// given cluster size and split factor.
fn speedup(nodes: u32, split: u32, scale_down: u64) -> f64 {
    let wl = workload(nodes, scale_down);
    let hw = HwProfile::dco();
    let js = JobSim::new(hw, wl.clone());
    let mut state = SimState::new(&wl, 0);
    let initial = js.run_full(&mut state, 1, 1, true).unwrap();
    state.fail_node(nodes - 1);
    let lost = state.files[&1].lost_partitions(&state);
    assert!(!lost.is_empty(), "the dead node held reducer output");
    let rec = js
        .run_recompute(
            &mut state,
            1,
            &RecomputeSpec::new(lost.iter().copied(), split),
            true,
        )
        .unwrap();
    initial.duration / rec.duration
}

/// Runs the sweep. `scale_down` divides per-node input (1 = 20 GB).
pub fn run_scaled(scale_down: u64) -> Fig11Result {
    let points = [12u32, 24, 36, 48, 60]
        .into_iter()
        .map(|n| Fig11Point {
            nodes: n,
            no_split: speedup(n, 1, scale_down),
            split: speedup(n, n - 1, scale_down),
        })
        .collect();
    Fig11Result { points }
}

/// Paper-scale run.
pub fn run() -> Fig11Result {
    run_scaled(1)
}

impl Fig11Result {
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "nodes".to_string(),
            "RCMP NO-SPLIT".to_string(),
            "RCMP SPLIT (N-1)".to_string(),
        ]];
        for p in &self.points {
            rows.push(vec![
                p.nodes.to_string(),
                table::factor(p.no_split),
                table::factor(p.split),
            ]);
        }
        format!(
            "Fig. 11 — avg job recomputation speed-up vs node count (DCO, 20GB/node)\n{}",
            table::render(&rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_scales_with_nodes_no_split_does_not() {
        let r = run_scaled(8);
        let first = &r.points[0];
        let last = r.points.last().unwrap();
        // SPLIT grows substantially with cluster size.
        assert!(
            last.split > first.split * 1.5,
            "split speed-up must grow: {} → {}",
            first.split,
            last.split
        );
        // NO-SPLIT stays comparatively flat.
        assert!(
            last.no_split < first.no_split * 1.6,
            "no-split must stay flat-ish: {} → {}",
            first.no_split,
            last.no_split
        );
        // At every size splitting wins.
        for p in &r.points {
            assert!(p.split > p.no_split, "{p:?}");
        }
        assert!(r.render().contains("60"));
    }

    #[test]
    fn speedups_are_greater_than_one() {
        let r = run_scaled(8);
        for p in &r.points {
            assert!(p.no_split > 1.0, "recomputation beats re-running: {p:?}");
        }
    }
}
