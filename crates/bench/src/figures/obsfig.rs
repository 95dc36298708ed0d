//! BENCH: telemetry overhead budget (the `obs` pseudo-figure).
//!
//! A/B-measures the production telemetry tier on the 4800-task DCO
//! wave (Fig. 11's largest cluster, the acceptance shape): the same
//! wave runs once with telemetry *off* (a disabled [`FlightRecorder`],
//! no tracer/metrics/profiler attached to the reactor, no per-task
//! instrumentation) and once with the *full* tier on — always-on
//! flight-recorder events per task, phase-profiler attribution,
//! reactor poll/park accounting and exec metrics. Each configuration
//! has its own reactor session, opened once as the engine opens one per
//! job, and only `run_wave` is timed. The configurations are
//! interleaved and best-of-N timed, and the gate asserts the full tier
//! costs less than the 5% wall-clock budget. The recorder's own sampled
//! self-measurement (ns per record call, drop accounting, bytes
//! retained) rides along in the JSON.

use rcmp_exec::{AsyncExecutor, AsyncSession, SlotTask, TaskCtx, WaveSpec};
use rcmp_model::ClusterConfig;
use rcmp_obs::{
    Clock, EventCode, FlightRecorder, MetricsRegistry, PhaseKind, PhaseProfiler, RecorderStats,
    Tracer,
};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock budget the full telemetry tier must stay under, percent.
pub const BUDGET_PCT: f64 = 5.0;

/// The acceptance wave shape: one full DCO map sweep's worth of slot
/// tasks (60 nodes × 80 mapper partitions).
pub const ACCEPTANCE_TASKS: u32 = 4800;

/// The telemetry-overhead measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ObsBench {
    /// Cluster scale the wave shape is drawn from (DCO: 60 nodes).
    pub nodes: u32,
    /// Slot tasks per wave.
    pub tasks: u32,
    /// Async reactor worker threads.
    pub workers: u32,
    /// Interleaved repeats per configuration (best-of timing).
    pub repeats: u32,
    /// Best wave time with telemetry disabled, microseconds.
    pub baseline_micros: f64,
    /// Best wave time with the full telemetry tier, microseconds.
    pub telemetry_micros: f64,
    /// `(telemetry − baseline) / baseline`, percent (negative when the
    /// runs are within noise of each other).
    pub overhead_pct: f64,
    /// The gate's budget ([`BUDGET_PCT`]).
    pub budget_pct: f64,
    /// Whether the measured overhead stayed under the budget.
    pub within_budget: bool,
    /// Flight-recorder self-measurement after the telemetry runs:
    /// sampled ns/record, exact drop accounting, bytes retained.
    pub recorder: RecorderStats,
}

/// Engine-grain slot body: enough deterministic arithmetic that one
/// task costs single-digit microseconds, the floor of a real map task,
/// so per-task telemetry is measured against realistic work — not
/// against an empty closure it could never stay under 5% of.
fn slot_body(i: u64) -> u64 {
    let mut acc = i;
    for k in 0..4096u64 {
        acc = acc.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ k;
    }
    acc
}

/// Times one wave where every task does the engine's per-task
/// telemetry work: self-timed body attributed to the profiler plus a
/// `TaskDone` flight-recorder event. With a disabled recorder and no
/// profiler this degenerates to the bare wave.
fn time_wave(
    session: &AsyncSession<'_, '_>,
    tasks: u32,
    recorder: &Arc<FlightRecorder>,
    profiler: Option<&Arc<PhaseProfiler>>,
) -> Duration {
    let wave: Vec<SlotTask<'_, u64>> = (0..u64::from(tasks))
        .map(|i| {
            let rec = recorder.clone();
            let prof = profiler.cloned();
            SlotTask::new(move |_: &TaskCtx| {
                let out = if let Some(p) = &prof {
                    let started = Instant::now();
                    let out = std::hint::black_box(slot_body(i));
                    p.add_ns(PhaseKind::MapCompute, started.elapsed().as_nanos() as u64);
                    out
                } else {
                    std::hint::black_box(slot_body(i))
                };
                rec.record(EventCode::TaskDone, None, i, 0);
                out
            })
        })
        .collect();
    let spec = WaveSpec::new("obs-bench-wave", 42);
    let start = Instant::now();
    let outcomes = session.run_wave(&spec, wave);
    let elapsed = start.elapsed();
    assert_eq!(outcomes.len(), tasks as usize);
    elapsed
}

/// Runs the A/B measurement at `tasks` per wave with `repeats`
/// interleaved rounds per configuration.
pub fn run_with(tasks: u32, repeats: u32) -> ObsBench {
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get() as u32);

    // Telemetry off: disabled recorder, bare reactor.
    let off_recorder = Arc::new(FlightRecorder::disabled());
    let off_exec = AsyncExecutor::new(workers);

    // Full tier: always-on recorder, profiler, tracer + exec metrics.
    let clock = Clock::monotonic();
    let on_recorder = Arc::new(FlightRecorder::with_defaults(clock.clone()));
    let profiler = Arc::new(PhaseProfiler::new(clock.clone()));
    let tracer = Arc::new(Tracer::with_clock(clock));
    let metrics = MetricsRegistry::new();
    let on_exec = AsyncExecutor::new(workers)
        .with_obs(tracer, &metrics)
        .with_profiler(profiler.clone());

    let (baseline, telemetry) = off_exec.with_session(|off| {
        on_exec.with_session(|on| {
            let mut baseline = Duration::MAX;
            let mut telemetry = Duration::MAX;
            // One untimed warmup of each configuration, then interleave
            // the timed rounds so drift hits both sides equally.
            time_wave(off, tasks, &off_recorder, None);
            time_wave(on, tasks, &on_recorder, Some(&profiler));
            for _ in 0..repeats {
                baseline = baseline.min(time_wave(off, tasks, &off_recorder, None));
                telemetry = telemetry.min(time_wave(on, tasks, &on_recorder, Some(&profiler)));
            }
            (baseline, telemetry)
        })
    });

    let base_us = baseline.as_secs_f64() * 1e6;
    let full_us = telemetry.as_secs_f64() * 1e6;
    let overhead_pct = if base_us > 0.0 {
        (full_us - base_us) / base_us * 100.0
    } else {
        0.0
    };
    ObsBench {
        nodes: ClusterConfig::dco().nodes,
        tasks,
        workers,
        repeats,
        baseline_micros: base_us,
        telemetry_micros: full_us,
        overhead_pct,
        budget_pct: BUDGET_PCT,
        within_budget: overhead_pct < BUDGET_PCT,
        recorder: on_recorder.stats(),
    }
}

/// Runs the benchmark at the acceptance shape. `scale > 1` (`--quick`)
/// trims the repeat count, never the wave shape — the budget is only
/// meaningful at 4800 tasks.
pub fn run_scaled(scale: u64) -> ObsBench {
    let repeats = if scale > 1 { 3 } else { 5 };
    run_with(ACCEPTANCE_TASKS, repeats)
}

impl ObsBench {
    /// One-screen summary of the gate and the recorder self-stats.
    pub fn render(&self) -> String {
        format!(
            "BENCH obs: telemetry overhead on the {}-task DCO wave ({} workers, best of {})\n\
             baseline  (telemetry off): {:>10.1}us\n\
             full tier (telemetry on) : {:>10.1}us\n\
             overhead: {:.2}% (budget {:.1}%) -> {}\n\
             recorder: {} recorded, {} dropped (rate {:.4}), {} bytes retained, ~{}ns/record ({} sampled)\n",
            self.tasks,
            self.workers,
            self.repeats,
            self.baseline_micros,
            self.telemetry_micros,
            self.overhead_pct,
            self.budget_pct,
            if self.within_budget {
                "WITHIN BUDGET"
            } else {
                "OVER BUDGET"
            },
            self.recorder.recorded,
            self.recorder.dropped,
            self.recorder.drop_rate(),
            self.recorder.bytes_retained,
            self.recorder.record_ns_per_op,
            self.recorder.samples,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ab_harness_measures_and_records() {
        // A small shape keeps the unit test quick; the 4800-task gate
        // itself is the bench target's and CI's job.
        let r = run_with(256, 2);
        assert!(r.baseline_micros > 0.0);
        assert!(r.telemetry_micros > 0.0);
        // The telemetry side really recorded: one TaskDone per task
        // per timed+warmup round, none lost below ring capacity.
        assert_eq!(r.recorder.recorded, 3 * 256);
        assert_eq!(r.recorder.dropped, 0);
        assert!(r.recorder.bytes_retained > 0);
    }
}
