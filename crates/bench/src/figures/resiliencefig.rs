//! BENCH: closed-loop adaptive resilience (the `resilience`
//! pseudo-figure).
//!
//! Sweeps failure intensity and compares the expected chain completion
//! time of every fixed replication cadence (k ∈ {1, 2, 4, 8, ∞}) with
//! the closed-loop adaptive policy, under the cost model both the
//! engine driver and the simulator execute (`rcmp_policy::adapt`). The
//! model's per-job costs are *calibrated from the simulator* — mean
//! job time, replication-point cost, detection stall — so the sweep's
//! seconds are sim-grounded rather than invented. Because the adaptive
//! policy places its cadence at the argmin of the same model, adaptive
//! ≤ every fixed k at every rate, by construction; the sweep documents
//! the margin.
//!
//! A second block runs the closed loop end-to-end in the simulator
//! (`Strategy::AdaptiveHybrid`) against fixed cadences under scripted
//! failure schedules, as an integration spot-check.

use rcmp_core::strategy::{SplitPolicy, Strategy};
use rcmp_obs::PhaseKind;
use rcmp_policy::{expected_chain_time, optimal_interval, AdaptConfig};
use rcmp_sim::{simulate_chain, ChainSimConfig, FailureAt, HwProfile, WorkloadCfg};
use serde::{Deserialize, Serialize};

/// Fixed cadences the sweep compares against (None = never replicate).
pub const FIXED_KS: [Option<u32>; 5] = [Some(1), Some(2), Some(4), Some(8), None];

/// Expected completion time of each cadence at one failure rate.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResilienceRow {
    /// Per-job failure probability.
    pub rate: f64,
    /// Expected chain seconds for each entry of [`FIXED_KS`], in order
    /// (`k=1, 2, 4, 8, ∞`).
    pub fixed_secs: Vec<f64>,
    /// Expected chain seconds at the adaptive policy's argmin cadence.
    pub adaptive_secs: f64,
    /// The cadence the adaptive policy converges to at this rate.
    pub adaptive_interval: Option<u32>,
}

/// Measured recovery-time decomposition of one spot run, projected
/// through the engine's 14-phase schema (`SimChainReport::
/// phase_breakdown`) — the Fig.-7-style "where did the recovery
/// seconds go" split, from measurement rather than the cost model.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct RecoveryDecomposition {
    /// Simulated microseconds inside recomputation runs.
    pub recompute_us: u64,
    /// Simulated microseconds in seeded retry backoff.
    pub backoff_us: u64,
    /// Recovery plans drawn up.
    pub plans: u64,
}

/// One end-to-end simulator run of a strategy under a scripted
/// failure schedule.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SimSpotRow {
    /// Approximate per-job failure rate the schedule encodes.
    pub rate: f64,
    /// Strategy label (`k=2`, `adaptive`, ...).
    pub strategy: String,
    /// Simulated chain completion seconds.
    pub total_secs: f64,
    /// Replication points placed.
    pub replication_points: usize,
    /// Final interval the adaptive loop settled on (adaptive rows).
    pub final_interval: Option<u32>,
    /// Measured recovery-time decomposition of this run.
    #[serde(default)]
    pub recovery: RecoveryDecomposition,
}

/// The full resilience benchmark result.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResilienceResult {
    /// Chain length the sweep models.
    pub jobs: u32,
    /// Sim-calibrated mean job seconds (the model's time unit).
    pub mean_job_secs: f64,
    /// Sim-calibrated cost of one replication point, in job units.
    pub replicate_cost: f64,
    /// Sim-calibrated failure-detection stall, in job units.
    pub detect_cost: f64,
    /// The analytic sweep: adaptive vs every fixed cadence.
    pub rows: Vec<ResilienceRow>,
    /// End-to-end simulator spot-checks.
    pub sim_spot: Vec<SimSpotRow>,
}

fn wl(scale: u64) -> WorkloadCfg {
    let mut wl = WorkloadCfg::stic(rcmp_model::SlotConfig::ONE_ONE);
    wl.per_node_input = wl.per_node_input / scale.max(1);
    wl.jobs = 12;
    wl
}

fn hybrid(every_k: u32) -> Strategy {
    Strategy::Hybrid {
        split: SplitPolicy::None,
        every_k,
        factor: 2,
        reclaim: false,
    }
}

/// Calibrates the adaptive cost model from two clean simulator runs:
/// a never-replicating baseline (mean job time) and an every-job
/// cadence (per-point replication cost).
fn calibrate(scale: u64) -> (f64, AdaptConfig) {
    let hw = HwProfile::stic();
    let wl = wl(scale);
    let clean = simulate_chain(&ChainSimConfig::new(hw.clone(), wl.clone(), hybrid(0)));
    let every = simulate_chain(&ChainSimConfig::new(hw.clone(), wl.clone(), hybrid(1)));
    let mean_job = clean.total_time / f64::from(wl.jobs);
    let replicate = (every.total_time - clean.total_time).max(0.0) / f64::from(wl.jobs);
    let mut cfg = AdaptConfig::default_for(wl.nodes);
    cfg.horizon = wl.jobs;
    cfg.replicate_cost = replicate / mean_job;
    // Failure accounting in the sim: 15 s offset wasted + detection
    // stall, then the cascade re-runs roughly half the span back to
    // the last replication point (captured by the model's (k+1)/2
    // term with a one-job recompute cost).
    cfg.detect_cost = (15.0 + hw.detect_timeout) / mean_job;
    cfg.recompute_cost = 1.0;
    (mean_job, cfg)
}

/// Deterministic failure schedule approximating per-job rate `rate`:
/// `round(rate × jobs)` node kills, evenly spaced over the chain's
/// initial runs, cycling over nodes. Kills are capped at 2 — the
/// external input is replicated 3×, so no schedule can make the chain
/// unrecoverable (the chaos-soak convention).
fn schedule_for(rate: f64, jobs: u32, nodes: u32) -> Vec<FailureAt> {
    let count = ((rate * f64::from(jobs)).round() as u32)
        .min(jobs / 2)
        .min(2);
    if count == 0 {
        return Vec::new();
    }
    let stride = (jobs / (count + 1)).max(1);
    (1..=count)
        .map(|i| FailureAt::at_job(u64::from(i * stride + 1), i % nodes))
        .collect()
}

fn spot_run(rate: f64, label: &str, strategy: Strategy, scale: u64) -> SimSpotRow {
    let wl = wl(scale);
    let failures = schedule_for(rate, wl.jobs, wl.nodes);
    let cfg = ChainSimConfig::new(HwProfile::stic(), wl, strategy).with_failures(failures);
    let rep = simulate_chain(&cfg);
    let points = rep
        .events
        .iter()
        .filter(|e| matches!(e, rcmp_policy::ChainEvent::ReplicationPoint { .. }))
        .count();
    let phases = rep.phase_breakdown();
    SimSpotRow {
        rate,
        strategy: label.to_string(),
        total_secs: rep.total_time,
        replication_points: points,
        final_interval: rep.adaptation.last().and_then(|s| s.interval),
        recovery: RecoveryDecomposition {
            recompute_us: phases.total_us(PhaseKind::RecomputeWave),
            backoff_us: phases.total_us(PhaseKind::RetryBackoff),
            plans: phases.entries[PhaseKind::RecoveryPlanning.index()].count,
        },
    }
}

/// Runs the benchmark. `scale` shrinks the calibration workload
/// (`--quick` passes 8).
pub fn run_scaled(scale: u64) -> ResilienceResult {
    let (mean_job, cfg) = calibrate(scale);
    let jobs = cfg.horizon;
    let rates = [0.001, 0.005, 0.02, 0.05, 0.1, 0.2, 0.4];

    let rows = rates
        .iter()
        .map(|&rate| {
            let fixed_secs: Vec<f64> = FIXED_KS
                .iter()
                .map(|&k| expected_chain_time(k, rate, jobs, &cfg) * mean_job)
                .collect();
            let best = optimal_interval(rate, jobs, &cfg);
            ResilienceRow {
                rate,
                fixed_secs,
                adaptive_secs: expected_chain_time(best, rate, jobs, &cfg) * mean_job,
                adaptive_interval: best,
            }
        })
        .collect();

    let adaptive = Strategy::AdaptiveHybrid {
        split: SplitPolicy::None,
        factor: 2,
        adapt: cfg,
        reclaim: false,
    };
    let mut sim_spot = Vec::new();
    for &rate in &[0.08, 0.25] {
        for &k in &[2u32, 4] {
            sim_spot.push(spot_run(rate, &format!("k={k}"), hybrid(k), scale));
        }
        sim_spot.push(spot_run(rate, "k=inf", hybrid(0), scale));
        sim_spot.push(spot_run(rate, "adaptive", adaptive, scale));
    }

    ResilienceResult {
        jobs,
        mean_job_secs: mean_job,
        replicate_cost: cfg.replicate_cost,
        detect_cost: cfg.detect_cost,
        rows,
        sim_spot,
    }
}

fn fmt_k(k: Option<u32>) -> String {
    k.map_or_else(|| "inf".to_string(), |v| v.to_string())
}

impl ResilienceResult {
    /// ASCII table of the sweep and the sim spot-checks.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "BENCH resilience: adaptive cadence vs fixed k (expected chain seconds)\n",
        );
        out.push_str(&format!(
            "jobs={} mean_job={:.1}s replicate_cost={:.3} detect_cost={:.3}\n",
            self.jobs, self.mean_job_secs, self.replicate_cost, self.detect_cost
        ));
        out.push_str("rate    | k=1      k=2      k=4      k=8      k=inf    | adaptive (k)\n");
        for row in &self.rows {
            let fixed: Vec<String> = row.fixed_secs.iter().map(|s| format!("{s:8.1}")).collect();
            out.push_str(&format!(
                "{:<7} | {} | {:8.1} (k={})\n",
                row.rate,
                fixed.join(" "),
                row.adaptive_secs,
                fmt_k(row.adaptive_interval),
            ));
        }
        out.push_str("\nsim spot-checks (scripted failures, end-to-end):\n");
        out.push_str(
            "rate  | strategy  | total s  | points | final k | recompute s | backoff s | plans\n",
        );
        for s in &self.sim_spot {
            out.push_str(&format!(
                "{:<5} | {:<9} | {:8.1} | {:>6} | {:<7} | {:>11.1} | {:>9.2} | {:>5}\n",
                s.rate,
                s.strategy,
                s.total_secs,
                s.replication_points,
                s.final_interval
                    .map_or_else(|| "-".to_string(), |k| k.to_string()),
                s.recovery.recompute_us as f64 / 1e6,
                s.recovery.backoff_us as f64 / 1e6,
                s.recovery.plans,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_dominates_every_fixed_cadence() {
        let r = run_scaled(8);
        for row in &r.rows {
            for (i, &fixed) in row.fixed_secs.iter().enumerate() {
                assert!(
                    row.adaptive_secs <= fixed + 1e-9,
                    "rate {}: adaptive {} > fixed {:?} {}",
                    row.rate,
                    row.adaptive_secs,
                    FIXED_KS[i],
                    fixed
                );
            }
        }
    }

    #[test]
    fn interval_tightens_as_rate_rises() {
        let r = run_scaled(8);
        let ks: Vec<Option<u32>> = r.rows.iter().map(|row| row.adaptive_interval).collect();
        // Monotone non-increasing cadence (None = ∞ sorts loosest).
        let as_val = |k: Option<u32>| k.map_or(u64::MAX, u64::from);
        for pair in ks.windows(2) {
            assert!(
                as_val(pair[1]) <= as_val(pair[0]),
                "interval loosened as rate rose: {ks:?}"
            );
        }
    }

    #[test]
    fn spot_runs_carry_measured_recovery_decomposition() {
        let r = run_scaled(8);
        // The high-rate schedules inject failures, so at least one spot
        // run must have measured recompute time and a recovery plan.
        assert!(
            r.sim_spot
                .iter()
                .any(|s| s.recovery.recompute_us > 0 && s.recovery.plans > 0),
            "no spot run measured any recovery work: {:?}",
            r.sim_spot
        );
    }

    #[test]
    fn sim_spot_adaptive_is_competitive() {
        let r = run_scaled(8);
        for &rate in &[0.08, 0.25] {
            let group: Vec<&SimSpotRow> = r.sim_spot.iter().filter(|s| s.rate == rate).collect();
            let adaptive = group
                .iter()
                .find(|s| s.strategy == "adaptive")
                .expect("adaptive row");
            let best_fixed = group
                .iter()
                .filter(|s| s.strategy != "adaptive")
                .map(|s| s.total_secs)
                .fold(f64::INFINITY, f64::min);
            assert!(
                adaptive.total_secs <= best_fixed * 1.25,
                "rate {rate}: adaptive {} not competitive with best fixed {best_fixed}",
                adaptive.total_secs
            );
        }
    }
}
