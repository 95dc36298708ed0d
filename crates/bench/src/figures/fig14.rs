//! Fig. 14: speed-up as a function of the number of mapper waves during
//! recomputation (§V-D).
//!
//! The reduce side is pinned to one wave in both runs; the sweep varies
//! how many mappers the recomputation re-executes (via the forced-rerun
//! knob), i.e. how many recomputation map waves run. Shape reproduced:
//! with FAST SHUFFLE, fewer recomputed map waves give near-linear
//! speed-up (the map phase dominates); with SLOW SHUFFLE the speed-up
//! stays ≈ flat near 1 (the delay-bottlenecked shuffle dwarfs the map
//! phase, §V-D: "finishing the map phase faster does not decrease the
//! time necessary to complete the network-bottlenecked shuffle").

use crate::table;
use rcmp_model::{ByteSize, SlotConfig};
use rcmp_sim::jobsim::RecomputeSpec;
use rcmp_sim::{HwProfile, JobSim, SimState, WorkloadCfg};
use serde::{Deserialize, Serialize};

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig14Point {
    /// Map waves executed by the recomputation run.
    pub recompute_waves: u32,
    pub fast_speedup: f64,
    pub slow_speedup: f64,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Fig14Result {
    pub initial_waves: u32,
    pub points: Vec<Fig14Point>,
}

fn workload(scale_down: u64) -> WorkloadCfg {
    let mut wl = WorkloadCfg::stic(SlotConfig::ONE_ONE);
    // 5 GiB per node → 20 blocks/node → 20 initial map waves, so the
    // paper's 2–18 recompute-wave sweep fits strictly inside.
    wl.per_node_input = ByteSize::gib(5) / scale_down.max(1);
    wl
}

fn speedup(hw: &HwProfile, waves: u32, scale_down: u64) -> (f64, u32) {
    let wl = workload(scale_down);
    let n = wl.nodes;
    let js = JobSim::new(hw.clone(), wl.clone());
    let mut state = SimState::new(&wl, 0);
    let initial = js.run_full(&mut state, 1, 1, true).unwrap();
    state.fail_node(n - 1);
    let lost = state.files[&1].lost_partitions(&state);
    // One reducer wave in both runs: recompute the lost reducers whole.
    let mut spec = RecomputeSpec::new(lost.iter().copied(), 1);
    // Re-run exactly enough mappers for the requested number of waves
    // over the survivors.
    spec.force_rerun_mappers = Some((waves * (n - 1) * wl.slots.map) as usize);
    let rec = js.run_recompute(&mut state, 1, &spec, true).unwrap();
    (initial.duration / rec.duration, initial.map_waves)
}

/// Runs the sweep. `scale_down` divides per-node input.
pub fn run_scaled(scale_down: u64) -> Fig14Result {
    let fast = HwProfile::stic();
    let slow = HwProfile::stic().with_slow_shuffle();
    let mut initial_waves = 0;
    let points = [2u32, 6, 10, 14, 18]
        .into_iter()
        .map(|w| {
            let (f, iw) = speedup(&fast, w, scale_down);
            let (s, _) = speedup(&slow, w, scale_down);
            initial_waves = iw;
            Fig14Point {
                recompute_waves: w,
                fast_speedup: f,
                slow_speedup: s,
            }
        })
        .collect();
    Fig14Result {
        initial_waves,
        points,
    }
}

/// Paper-scale run.
pub fn run() -> Fig14Result {
    run_scaled(1)
}

impl Fig14Result {
    pub fn render(&self) -> String {
        let mut rows = vec![vec![
            "recompute map waves".to_string(),
            "FAST SHUFFLE".to_string(),
            "SLOW SHUFFLE".to_string(),
        ]];
        for p in &self.points {
            rows.push(vec![
                p.recompute_waves.to_string(),
                table::factor(p.fast_speedup),
                table::factor(p.slow_speedup),
            ]);
        }
        format!(
            "Fig. 14 — speed-up vs recomputation map waves (initial run: {} waves)\n{}",
            self.initial_waves,
            table::render(&rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_gains_from_fewer_waves_slow_does_not() {
        // Full scale: the 18-wave sweep point needs all 20 initial map
        // waves of mappers to exist (scaling down the input would
        // saturate the forced-rerun knob).
        let r = run_scaled(1);
        let fewest = &r.points[0]; // 2 waves
        let most = r.points.last().unwrap(); // 18 waves
                                             // FAST: near-linear increase as recompute waves shrink.
        assert!(
            fewest.fast_speedup > most.fast_speedup * 1.5,
            "FAST: {} (2 waves) vs {} (18 waves)",
            fewest.fast_speedup,
            most.fast_speedup
        );
        // SLOW: flat — fewer map waves barely help.
        let slow_gain = fewest.slow_speedup / most.slow_speedup;
        assert!(
            slow_gain < 1.4,
            "SLOW speed-up must stay flat: gain {slow_gain}"
        );
        assert!(r.render().contains("18"));
    }

    #[test]
    fn monotone_in_wave_count() {
        let r = run_scaled(1);
        for w in r.points.windows(2) {
            assert!(
                w[0].fast_speedup >= w[1].fast_speedup,
                "fewer waves → higher FAST speed-up: {w:?}"
            );
        }
    }
}
