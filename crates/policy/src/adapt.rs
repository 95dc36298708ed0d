//! Closed-loop adaptive resilience (§IV-C future work, taken further).
//!
//! The paper's hybrid mode replicates every k-th job output with a
//! *fixed* k, and the expected-cost [`DynamicPolicy`] still takes a
//! static `failure_prob_per_job` supplied up front. Nothing learns from
//! the faults the system actually observes. This module closes the
//! loop:
//!
//! * [`FailureIntensityEstimator`] — an exponentially-decayed per-job
//!   fault-rate estimate with normal-approximation confidence bounds,
//!   seeded from a prior (cold start) and updated once per completed
//!   job.
//! * [`AdaptConfig`] — the closed loop's parameters: the prior (which
//!   [`AdaptConfig::from_trace_stats`] calibrates from Fig.-2-style
//!   failure-trace statistics), the decay, the hysteresis band, and a
//!   normalized cost model in units of one job's runtime.
//! * [`AdaptivePolicy`] — re-derives the replication interval after
//!   every job from the *running* estimate, with hysteresis so the
//!   cadence doesn't thrash. Implements [`FaultObserver`], the one
//!   trait through which both the real engine's `Fault`/`Loss` events
//!   and the simulator's timeline events feed the estimator — so the
//!   two backends drive byte-identical decision sequences from
//!   identical event sequences (the PR-3 invariant, extended to the
//!   adaptive loop).
//! * [`expected_chain_time`] / [`optimal_interval`] — the analytic
//!   model the interval is the argmin of. Because the adaptive policy
//!   picks the argmin of the same model used for evaluation, its
//!   expected chain completion time is ≤ every fixed interval *by
//!   construction* (validated by proptest and the `resiliencefig`
//!   sweep).
//!
//! Everything here is deterministic: no clocks, no RNG state. The same
//! sequence of `record_fault`/`job_completed` calls produces the same
//! sequence of decisions on any backend.

use serde::{Deserialize, Serialize};

// ------------------------------------------------------------------
// The original §IV-C break-even policy (moved here from rcmp-core so
// the engine and the simulator share one kernel; re-exported there).
// ------------------------------------------------------------------

/// Cost-model parameters for dynamic replication points.
///
/// Replicating job `j`'s output costs `(factor − 1) × bytes` of extra
/// I/O, paid with certainty. *Not* replicating exposes the jobs since
/// the last replication point: if a data-loss failure arrives during a
/// job run (probability `p`), the cascade recomputes ≈ `d ×
/// recompute_fraction` jobs' worth of work, where `d` is the distance
/// to the last point. Setting the two expected costs equal yields a
/// break-even distance.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DynamicPolicy {
    /// Probability that a data-loss failure strikes during one job run.
    pub failure_prob_per_job: f64,
    /// Extra replicas a replication point writes (factor − 1).
    pub extra_replicas: u32,
    /// Cost of writing one replica byte relative to recomputing one
    /// byte of lineage (≈ 1.0 when replication and recomputation move
    /// bytes through the same disks).
    pub replication_byte_cost: f64,
    /// Fraction of a job a single failure forces to recompute
    /// (≈ 1/N with balanced data, §IV-B).
    pub recompute_fraction: f64,
}

impl DynamicPolicy {
    /// A policy calibrated from a failure-day fraction (Fig. 2 style)
    /// and the expected number of job runs per day.
    pub fn from_trace_stats(
        failure_day_fraction: f64,
        jobs_per_day: f64,
        nodes: u32,
        extra_replicas: u32,
    ) -> Self {
        Self {
            failure_prob_per_job: (failure_day_fraction / jobs_per_day.max(1.0)).min(1.0),
            extra_replicas,
            replication_byte_cost: 1.0,
            recompute_fraction: 1.0 / nodes.max(1) as f64,
        }
    }

    /// Break-even distance: the number of un-replicated jobs at which
    /// the expected recomputation exposure equals the certain cost of
    /// one replication point. `None` means "never replicate" (the
    /// exposure can never reach the cost — e.g. failures impossible).
    pub fn break_even_interval(&self) -> Option<u32> {
        let exposure_per_job = self.failure_prob_per_job * self.recompute_fraction;
        if exposure_per_job <= 0.0 {
            return None;
        }
        let cost = self.extra_replicas as f64 * self.replication_byte_cost;
        let d = (cost / exposure_per_job).ceil();
        if d.is_finite() && d < u32::MAX as f64 {
            Some((d as u32).max(1))
        } else {
            None
        }
    }

    /// The `every_k` of the [`Strategy::Hybrid`] this policy derives: a
    /// replication point every break-even distance, `0` (never) when
    /// there is none. A hybrid never restarts, so counting jobs since
    /// the last point and taking the chain position modulo `k` agree.
    ///
    /// [`Strategy::Hybrid`]: crate::Strategy::Hybrid
    pub fn every_k(&self) -> u32 {
        self.break_even_interval().unwrap_or(0)
    }
}

// ------------------------------------------------------------------
// Online failure-intensity estimation.
// ------------------------------------------------------------------

/// Exponentially-decayed per-job fault-rate estimator.
///
/// After each completed job carrying `n` observed faults the state
/// updates as `faults ← decay·faults + n`, `weight ← decay·weight + 1`,
/// so the rate estimate `faults / weight` is an exponentially-weighted
/// mean with effective sample size `weight` (bounded by
/// `1 / (1 − decay)`). The prior enters as `prior_weight` synthetic
/// observations at `prior_rate`, giving a cold-start estimate that the
/// running evidence gradually overrides.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FailureIntensityEstimator {
    /// Decayed fault mass.
    faults: f64,
    /// Decayed observation mass (effective sample size).
    weight: f64,
    /// Per-job decay factor in `(0, 1]`; `1.0` = plain running mean.
    decay: f64,
}

impl FailureIntensityEstimator {
    /// An estimator seeded with `prior_weight` synthetic jobs at
    /// `prior_rate` faults per job.
    pub fn seeded(prior_rate: f64, prior_weight: f64, decay: f64) -> Self {
        let w = prior_weight.max(0.0);
        Self {
            faults: prior_rate.max(0.0) * w,
            weight: w,
            decay: decay.clamp(f64::MIN_POSITIVE, 1.0),
        }
    }

    /// Folds one completed job with `faults` observed fault events into
    /// the estimate.
    pub fn observe(&mut self, faults: u32) {
        self.faults = self.decay * self.faults + f64::from(faults);
        self.weight = self.decay * self.weight + 1.0;
    }

    /// Current fault-rate estimate (faults per job).
    pub fn rate(&self) -> f64 {
        if self.weight <= 0.0 {
            0.0
        } else {
            self.faults / self.weight
        }
    }

    /// Normal-approximation confidence bounds on the rate at `z`
    /// standard errors (z ≈ 1.96 for 95%), clamped below at zero. The
    /// variance treats each job as a Bernoulli-ish trial with the
    /// current rate, over the effective sample size.
    pub fn confidence_bounds(&self, z: f64) -> (f64, f64) {
        let r = self.rate();
        if self.weight <= 0.0 {
            return (0.0, f64::INFINITY);
        }
        let var = (r * (1.0 + r)) / self.weight;
        let half = z * var.sqrt();
        ((r - half).max(0.0), r + half)
    }

    /// The rate as integer parts-per-million, for gauge export.
    pub fn rate_ppm(&self) -> i64 {
        (self.rate() * 1e6).round() as i64
    }
}

// ------------------------------------------------------------------
// The analytic chain-time model the adaptive interval minimizes.
// ------------------------------------------------------------------

/// Expected chain completion time (in units of one job's failure-free
/// runtime) for a chain of `jobs` jobs under per-job fault rate `rate`,
/// replicating every `interval` jobs (`None` = never).
///
/// The model charges: one unit per job; `replicate_cost` per
/// replication point (`⌊jobs / k⌋` of them); and for each failure
/// (expected count `rate × jobs`) the detection stall `detect_cost`
/// plus a cascade that recomputes on average `(d̄) × recompute_cost`
/// where `d̄ = (min(k, jobs) + 1) / 2` is the mean distance to the last
/// replication point (uniform failure position within a segment).
pub fn expected_chain_time(interval: Option<u32>, rate: f64, jobs: u32, cfg: &AdaptConfig) -> f64 {
    let jobs_f = f64::from(jobs.max(1));
    let (points, seg) = match interval {
        Some(k) if k >= 1 => {
            let k = k.min(jobs.max(1));
            (f64::from(jobs / k.max(1)), f64::from(k))
        }
        _ => (0.0, jobs_f),
    };
    let mean_cascade = (seg + 1.0) / 2.0;
    let per_failure = cfg.detect_cost + mean_cascade * cfg.recompute_cost;
    jobs_f + points * cfg.replicate_cost + rate.max(0.0) * jobs_f * per_failure
}

/// The replication interval minimizing [`expected_chain_time`] for the
/// given rate: the argmin over every feasible `k ∈ 1..=jobs` and
/// "never". Ties resolve toward fewer replication points (larger `k`,
/// with `None` the largest), so a zero rate always yields `None`.
pub fn optimal_interval(rate: f64, jobs: u32, cfg: &AdaptConfig) -> Option<u32> {
    let mut best: Option<u32> = None;
    let mut best_t = expected_chain_time(None, rate, jobs, cfg);
    for k in (1..=jobs.max(1)).rev() {
        let t = expected_chain_time(Some(k), rate, jobs, cfg);
        if t < best_t - 1e-12 {
            best_t = t;
            best = Some(k);
        }
    }
    best
}

// ------------------------------------------------------------------
// The closed loop.
// ------------------------------------------------------------------

/// Parameters of the closed adaptive loop. `Copy` and serializable so
/// it can ride inside `Strategy::AdaptiveHybrid` like every other
/// strategy payload.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdaptConfig {
    /// Cold-start prior fault rate (faults per job).
    pub prior_rate: f64,
    /// Synthetic observations backing the prior; higher = slower to
    /// override with live evidence.
    pub prior_weight: f64,
    /// Per-job exponential decay of the estimator in `(0, 1]`.
    pub decay: f64,
    /// Hysteresis band: the interval only switches when the newly
    /// derived argmin leaves `±hysteresis` (fractional) of the current
    /// interval. `0.0` re-derives greedily every job.
    pub hysteresis: f64,
    /// Planning horizon (jobs) the expected-time model optimizes over.
    pub horizon: u32,
    /// Cost of one replication point, in units of one job's runtime.
    pub replicate_cost: f64,
    /// Cost of recomputing one cascaded job, in units of one job's
    /// runtime (≈ `1/N` with balanced data, §IV-B).
    pub recompute_cost: f64,
    /// Failure-detection stall per failure, in units of one job's
    /// runtime (30 s timeout vs. minutes-long jobs).
    pub detect_cost: f64,
}

impl AdaptConfig {
    /// Defaults for an `nodes`-node cluster with a pessimistic-but-weak
    /// prior: adapt quickly once real evidence arrives.
    pub fn default_for(nodes: u32) -> Self {
        Self {
            prior_rate: 0.05,
            prior_weight: 4.0,
            decay: 0.9,
            hysteresis: 0.25,
            horizon: 16,
            replicate_cost: 0.25,
            recompute_cost: 1.0 / nodes.max(1) as f64,
            detect_cost: 0.5,
        }
    }

    /// Calibrates the cold-start prior from Fig.-2-style failure-trace
    /// statistics: the measured failure-day fraction spread over the
    /// expected job runs per day (mirrors
    /// [`DynamicPolicy::from_trace_stats`]).
    pub fn from_trace_stats(
        failure_day_fraction: f64,
        jobs_per_day: f64,
        nodes: u32,
        extra_replicas: u32,
    ) -> Self {
        Self {
            prior_rate: (failure_day_fraction / jobs_per_day.max(1.0)).min(1.0),
            replicate_cost: 0.25 * extra_replicas.max(1) as f64,
            ..Self::default_for(nodes)
        }
    }

    /// The interval a fresh policy starts from (argmin at the prior).
    pub fn cold_start_interval(&self) -> Option<u32> {
        optimal_interval(self.prior_rate, self.horizon, self)
    }
}

/// One trajectory entry: the estimator state and decision after a
/// completed job — the diagnostic record chaos-soak failures dump.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct AdaptationStep {
    /// Completed-job ordinal (1-based).
    pub job: u64,
    /// Fault-rate estimate after folding the job in.
    pub rate: f64,
    /// Interval in force after hysteresis (`None` = never replicate).
    pub interval: Option<u32>,
    /// Whether this step switched the interval.
    pub switched: bool,
}

/// The one trait through which execution backends feed the adaptive
/// loop: the engine calls it from `Fault`/`Loss` observation and job
/// completion, the simulator from its timeline events. Identical call
/// sequences produce identical decision sequences.
pub trait FaultObserver {
    /// Records `faults` fault events observed during the current job.
    fn record_fault(&mut self, faults: u32);
    /// Folds the completed job into the estimate, re-derives the
    /// interval (with hysteresis), and returns `true` when a
    /// replication point is due after this job.
    fn job_completed(&mut self) -> bool;
}

/// [`DynamicPolicy`]'s closed-loop successor: the replication interval
/// is re-derived after every job from the running fault-rate estimate
/// instead of a frozen prior.
#[derive(Clone, Debug, PartialEq)]
pub struct AdaptivePolicy {
    cfg: AdaptConfig,
    est: FailureIntensityEstimator,
    interval: Option<u32>,
    jobs_since_point: u32,
    pending_faults: u32,
    completed: u64,
    trajectory: Vec<AdaptationStep>,
}

impl AdaptivePolicy {
    /// A fresh policy at the configured cold-start prior.
    pub fn new(cfg: AdaptConfig) -> Self {
        Self {
            interval: cfg.cold_start_interval(),
            est: FailureIntensityEstimator::seeded(cfg.prior_rate, cfg.prior_weight, cfg.decay),
            cfg,
            jobs_since_point: 0,
            pending_faults: 0,
            completed: 0,
            trajectory: Vec::new(),
        }
    }

    /// The interval currently in force (`None` = never replicate).
    pub fn current_interval(&self) -> Option<u32> {
        self.interval
    }

    /// The underlying estimator (read-only).
    pub fn estimator(&self) -> &FailureIntensityEstimator {
        &self.est
    }

    /// The full adaptation trajectory, for diagnostics and reports.
    pub fn trajectory(&self) -> &[AdaptationStep] {
        &self.trajectory
    }

    /// Hysteresis: adopt `candidate` only when it leaves the fractional
    /// band around the interval in force. Transitions to/from "never"
    /// always switch (there is no meaningful band around infinity).
    fn apply_hysteresis(&self, candidate: Option<u32>) -> Option<u32> {
        match (self.interval, candidate) {
            (Some(cur), Some(new)) => {
                let band = self.cfg.hysteresis.max(0.0) * f64::from(cur);
                if (f64::from(new) - f64::from(cur)).abs() > band {
                    Some(new)
                } else {
                    Some(cur)
                }
            }
            (_, c) => c,
        }
    }
}

impl FaultObserver for AdaptivePolicy {
    fn record_fault(&mut self, faults: u32) {
        self.pending_faults = self.pending_faults.saturating_add(faults);
    }

    fn job_completed(&mut self) -> bool {
        self.est.observe(self.pending_faults);
        self.pending_faults = 0;
        self.completed += 1;
        let candidate = optimal_interval(self.est.rate(), self.cfg.horizon, &self.cfg);
        let next = self.apply_hysteresis(candidate);
        let switched = next != self.interval;
        self.interval = next;
        self.trajectory.push(AdaptationStep {
            job: self.completed,
            rate: self.est.rate(),
            interval: self.interval,
            switched,
        });
        self.jobs_since_point += 1;
        match self.interval {
            Some(k) if self.jobs_since_point >= k => {
                self.jobs_since_point = 0;
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(p: f64, nodes: u32) -> DynamicPolicy {
        DynamicPolicy {
            failure_prob_per_job: p,
            extra_replicas: 1,
            replication_byte_cost: 1.0,
            recompute_fraction: 1.0 / nodes as f64,
        }
    }

    #[test]
    fn rare_failures_mean_huge_intervals() {
        // The paper's moderate-cluster regime: failures days apart.
        let p = DynamicPolicy::from_trace_stats(0.17, 100.0, 10, 1);
        let k = p.break_even_interval().unwrap();
        assert!(
            k > 1000,
            "rare failures → replication points essentially never: {k}"
        );
    }

    #[test]
    fn failure_heavy_environments_replicate_often() {
        // A failure nearly every job: behave like frequent checkpoints.
        let p = policy(0.5, 10);
        let k = p.break_even_interval().unwrap();
        assert!(k <= 20, "heavy failures → short interval, got {k}");
        assert_eq!(p.every_k(), k);
    }

    #[test]
    fn interval_monotone_in_failure_probability() {
        let mut last = u32::MAX;
        for p in [0.01, 0.05, 0.2, 0.8] {
            let k = policy(p, 10).break_even_interval().unwrap();
            assert!(k <= last, "higher failure prob → shorter interval");
            last = k;
        }
    }

    #[test]
    fn interval_grows_with_cluster_size() {
        // Bigger clusters lose a smaller fraction per failure, so the
        // exposure per job shrinks and points spread out.
        let small = policy(0.1, 10).break_even_interval().unwrap();
        let large = policy(0.1, 100).break_even_interval().unwrap();
        assert!(large > small);
    }

    #[test]
    fn zero_probability_never_replicates() {
        let p = policy(0.0, 10);
        assert_eq!(p.break_even_interval(), None);
        assert_eq!(p.every_k(), 0, "a hybrid that never replicates");
    }

    #[test]
    fn higher_factor_costs_more() {
        let f1 = DynamicPolicy {
            extra_replicas: 1,
            ..policy(0.3, 10)
        };
        let f2 = DynamicPolicy {
            extra_replicas: 2,
            ..policy(0.3, 10)
        };
        assert!(f2.break_even_interval().unwrap() >= f1.break_even_interval().unwrap());
    }

    // ---------------------------------------------- estimator

    #[test]
    fn estimator_starts_at_prior_and_converges_to_evidence() {
        let mut e = FailureIntensityEstimator::seeded(0.5, 4.0, 0.95);
        assert!((e.rate() - 0.5).abs() < 1e-12);
        for _ in 0..200 {
            e.observe(0);
        }
        assert!(e.rate() < 0.01, "fault-free evidence drives the rate down");
        for _ in 0..200 {
            e.observe(1);
        }
        assert!(
            (e.rate() - 1.0).abs() < 0.05,
            "steady faults drive it to ~1: {}",
            e.rate()
        );
    }

    #[test]
    fn estimator_decay_forgets_old_evidence_faster() {
        let run = |decay: f64| {
            let mut e = FailureIntensityEstimator::seeded(0.0, 1.0, decay);
            for _ in 0..50 {
                e.observe(1);
            }
            for _ in 0..10 {
                e.observe(0);
            }
            e.rate()
        };
        assert!(
            run(0.7) < run(0.99),
            "stronger decay forgets the fault burst faster"
        );
    }

    #[test]
    fn confidence_bounds_bracket_the_rate_and_narrow() {
        let mut e = FailureIntensityEstimator::seeded(0.2, 2.0, 1.0);
        let (lo0, hi0) = e.confidence_bounds(1.96);
        assert!(lo0 <= e.rate() && e.rate() <= hi0);
        for _ in 0..100 {
            e.observe(0);
        }
        let (lo, hi) = e.confidence_bounds(1.96);
        assert!(hi - lo < hi0 - lo0, "more evidence → tighter bounds");
        assert!(lo >= 0.0);
    }

    // ---------------------------------------------- analytic model

    #[test]
    fn zero_rate_prefers_never_replicating() {
        let cfg = AdaptConfig::default_for(10);
        assert_eq!(optimal_interval(0.0, 16, &cfg), None);
    }

    #[test]
    fn heavy_rate_prefers_short_intervals() {
        let cfg = AdaptConfig::default_for(5);
        let k = optimal_interval(2.0, 16, &cfg);
        assert!(k.is_some() && k.unwrap() <= 4, "got {k:?}");
    }

    #[test]
    fn optimal_interval_is_argmin() {
        let cfg = AdaptConfig::default_for(8);
        for rate in [0.0, 0.01, 0.1, 0.5, 1.5] {
            let best = optimal_interval(rate, 16, &cfg);
            let t_best = expected_chain_time(best, rate, 16, &cfg);
            for k in [Some(1), Some(2), Some(4), Some(8), None] {
                assert!(
                    t_best <= expected_chain_time(k, rate, 16, &cfg) + 1e-9,
                    "rate {rate}: adaptive {best:?} beaten by fixed {k:?}"
                );
            }
        }
    }

    // ---------------------------------------------- closed loop

    #[test]
    fn fault_free_run_places_no_points() {
        let cfg = AdaptConfig {
            prior_rate: 0.0,
            ..AdaptConfig::default_for(10)
        };
        let mut p = AdaptivePolicy::new(cfg);
        for _ in 0..50 {
            assert!(!p.job_completed(), "no faults → never replicate");
        }
        assert_eq!(p.current_interval(), None);
    }

    #[test]
    fn fault_storm_tightens_the_cadence() {
        let mut p = AdaptivePolicy::new(AdaptConfig::default_for(5));
        let before = p.current_interval();
        let mut placed = 0;
        for _ in 0..30 {
            p.record_fault(1);
            if p.job_completed() {
                placed += 1;
            }
        }
        let after = p.current_interval().expect("storm forces an interval");
        assert!(placed > 0, "points were placed under the storm");
        assert!(
            before.is_none() || after <= before.unwrap(),
            "cadence tightened: {before:?} → {after:?}"
        );
        // Calm restores a sparser cadence.
        for _ in 0..80 {
            p.job_completed();
        }
        let calm = p.current_interval();
        assert!(
            calm.is_none() || calm.unwrap() >= after,
            "calm relaxes the cadence: {after} → {calm:?}"
        );
    }

    #[test]
    fn hysteresis_suppresses_small_oscillations() {
        let cfg = AdaptConfig {
            hysteresis: 10.0, // absurdly wide band: never leave it
            prior_rate: 0.4,
            ..AdaptConfig::default_for(5)
        };
        let mut p = AdaptivePolicy::new(cfg);
        let start = p.current_interval();
        assert!(start.is_some(), "pessimistic prior sets an interval");
        for i in 0..40 {
            p.record_fault(u32::from(i % 3 == 0));
            p.job_completed();
            assert_eq!(
                p.current_interval(),
                start,
                "wide hysteresis pins the finite interval"
            );
        }
        assert!(p.trajectory().iter().all(|s| !s.switched));
    }

    #[test]
    fn identical_event_sequences_give_identical_decisions() {
        // The backend-agnosticism contract behind the PR-3 invariant.
        let cfg = AdaptConfig::default_for(6);
        let mut a = AdaptivePolicy::new(cfg);
        let mut b = AdaptivePolicy::new(cfg);
        let events = [0u32, 1, 0, 0, 2, 0, 1, 1, 0, 0, 0, 3, 0];
        for &n in &events {
            a.record_fault(n);
            b.record_fault(n);
            assert_eq!(a.job_completed(), b.job_completed());
            assert_eq!(a.current_interval(), b.current_interval());
        }
        assert_eq!(a.trajectory(), b.trajectory());
    }

    #[test]
    fn trajectory_records_every_job() {
        let mut p = AdaptivePolicy::new(AdaptConfig::default_for(4));
        p.record_fault(2);
        p.job_completed();
        p.job_completed();
        assert_eq!(p.trajectory().len(), 2);
        assert_eq!(p.trajectory()[0].job, 1);
        assert!(p.trajectory()[0].rate > p.trajectory()[1].rate);
    }
}
