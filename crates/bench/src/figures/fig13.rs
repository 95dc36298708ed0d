//! Fig. 13: speed-up from recomputing with fewer reducer waves (§V-D).
//!
//! The initial run computes 10/20/40 reducers with 1 reducer slot per
//! node (1/2/4 waves); recomputation regenerates the failed node's
//! share (1/2/4 reducers — one wave). No map outputs are reused, to
//! isolate the reduce phase. Shape reproduced: SLOW SHUFFLE speed-up
//! grows linearly with the wave ratio (every wave costs the same, delay
//! dominated); FAST SHUFFLE grows sub-linearly (the first wave — which
//! includes the map phase — is the expensive one).

use crate::table;
use rcmp_model::SlotConfig;
use rcmp_sim::jobsim::RecomputeSpec;
use rcmp_sim::{HwProfile, JobSim, SimState, WorkloadCfg};
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig13Point {
    /// Reducer waves in the initial run (recomputation always uses 1).
    pub initial_waves: u32,
    pub fast_speedup: f64,
    pub slow_speedup: f64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig13Result {
    pub points: Vec<Fig13Point>,
}

fn speedup(hw: &HwProfile, reducers: u32, scale_down: u64) -> f64 {
    let mut wl = WorkloadCfg::stic(SlotConfig::ONE_ONE);
    wl.num_reducers = reducers;
    wl.per_node_input = wl.per_node_input / scale_down.max(1);
    let n = wl.nodes;
    let js = JobSim::new(hw.clone(), wl.clone());
    let mut state = SimState::new(&wl, 0);
    let initial = js.run_full(&mut state, 1, 1, true).unwrap();
    assert_eq!(initial.reduce_waves, reducers / n);
    // Recompute the failed node's reducers (reducers/N of them), all
    // mappers re-executed (no reuse — §V-D).
    state.fail_node(n - 1);
    let lost = state.files[&1].lost_partitions(&state);
    let mut spec = RecomputeSpec::new(lost.iter().copied(), 1);
    spec.reuse_map_outputs = false;
    let rec = js.run_recompute(&mut state, 1, &spec, true).unwrap();
    assert_eq!(rec.reduce_waves, 1, "recomputed reducers fit one wave");
    initial.duration / rec.duration
}

/// Runs the sweep. `scale_down` divides per-node input.
pub fn run_scaled(scale_down: u64) -> Fig13Result {
    let fast = HwProfile::stic();
    let slow = HwProfile::stic().with_slow_shuffle();
    let points = [10u32, 20, 40]
        .into_iter()
        .map(|r| Fig13Point {
            initial_waves: r / 10,
            fast_speedup: speedup(&fast, r, scale_down),
            slow_speedup: speedup(&slow, r, scale_down),
        })
        .collect();
    Fig13Result { points }
}

/// Paper-scale run.
pub fn run() -> Fig13Result {
    run_scaled(1)
}

impl Fig13Result {
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "initial:recompute waves".to_string(),
            "FAST SHUFFLE".to_string(),
            "SLOW SHUFFLE".to_string(),
        ]];
        for p in &self.points {
            rows.push(vec![
                format!("{}:1", p.initial_waves),
                table::factor(p.fast_speedup),
                table::factor(p.slow_speedup),
            ]);
        }
        format!(
            "Fig. 13 — speed-up from fewer reducer waves during recomputation\n{}",
            table::render(&rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_scales_linearly_fast_sublinearly() {
        let r = run_scaled(4);
        let p1 = &r.points[0]; // 1:1
        let p2 = &r.points[1]; // 2:1
        let p4 = &r.points[2]; // 4:1
                               // Both monotone in the wave ratio.
        assert!(p4.slow_speedup > p2.slow_speedup && p2.slow_speedup > p1.slow_speedup);
        assert!(p4.fast_speedup >= p2.fast_speedup && p2.fast_speedup >= p1.fast_speedup);
        // SLOW grows ~linearly: quadrupling waves ≳ 2.5x the 1:1 speed-up.
        let slow_gain = p4.slow_speedup / p1.slow_speedup;
        assert!(slow_gain > 2.2, "SLOW gain 4:1 vs 1:1 = {slow_gain}");
        // FAST grows sub-linearly: well below 4x.
        let fast_gain = p4.fast_speedup / p1.fast_speedup;
        assert!(
            fast_gain < slow_gain,
            "fast {fast_gain} vs slow {slow_gain}"
        );
        assert!(fast_gain < 3.0, "FAST gain must be sub-linear: {fast_gain}");
        assert!(r.render().contains("4:1"));
    }
}
