//! The phase profiler: pre-resolved hierarchical timers around the
//! engine's real execution phases.
//!
//! The paper's evaluation (Fig. 7) decomposes chain completion into
//! compute, shuffle and cascading-recomputation time; this module makes
//! that decomposition a first-class, always-on observable. A
//! [`PhaseProfiler`] holds one atomic accumulator pair (total
//! nanoseconds, event count) per [`PhaseKind`] — no registry lookups,
//! no locks, no allocation on the hot path. Hot loops accumulate
//! locally and flush once per task; coarse phases use the
//! [`PhaseProfiler::span`] guard. A [`PhaseBreakdown`] snapshot always
//! lists *every* phase in a fixed order, so the engine and the
//! simulator emit byte-compatible schemas even for phases one of them
//! never exercises.

use crate::clock::Clock;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// The engine's (and simulator's) instrumented execution phases.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PhaseKind {
    /// Mapper input read + UDF + in-memory sort.
    MapCompute,
    /// Map-side combiner passes.
    Combine,
    /// Encoding and inserting indexed map-output buckets.
    MapOutputWrite,
    /// Reducer-side shuffle planning and bucket fetches.
    ShuffleFetch,
    /// K-way streaming merge of fetched runs.
    StreamingMerge,
    /// Reduce UDF execution.
    ReduceUdf,
    /// DFS block reads (verified).
    DfsRead,
    /// DFS partition writes (all chunks, all replicas).
    DfsWrite,
    /// Checksum verification of block payloads.
    BlockVerify,
    /// Middleware recovery planning (lineage walk + plan build).
    RecoveryPlanning,
    /// Waves executed by recomputation runs (the cascade itself).
    RecomputeWave,
    /// Seeded retry backoff sleeps.
    RetryBackoff,
    /// Time `rcmp-exec`'s pool workers spent running task bodies (the
    /// name is from the cooperative reactor the pool replaced).
    ReactorPoll,
    /// Time idle pool workers spent parked on a wave until its last
    /// task resolved.
    ReactorPark,
    /// Map input served from the in-memory inter-job chain cache
    /// (replaces a `DfsRead` on a cache hit).
    ChainCacheRead,
}

impl PhaseKind {
    /// Every phase, in the fixed schema order breakdowns use.
    pub const ALL: [PhaseKind; 15] = [
        PhaseKind::MapCompute,
        PhaseKind::Combine,
        PhaseKind::MapOutputWrite,
        PhaseKind::ShuffleFetch,
        PhaseKind::StreamingMerge,
        PhaseKind::ReduceUdf,
        PhaseKind::DfsRead,
        PhaseKind::DfsWrite,
        PhaseKind::BlockVerify,
        PhaseKind::RecoveryPlanning,
        PhaseKind::RecomputeWave,
        PhaseKind::RetryBackoff,
        PhaseKind::ReactorPoll,
        PhaseKind::ReactorPark,
        PhaseKind::ChainCacheRead,
    ];

    /// Stable snake_case name used in breakdowns and JSON.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::MapCompute => "map_compute",
            PhaseKind::Combine => "combine",
            PhaseKind::MapOutputWrite => "map_output_write",
            PhaseKind::ShuffleFetch => "shuffle_fetch",
            PhaseKind::StreamingMerge => "streaming_merge",
            PhaseKind::ReduceUdf => "reduce_udf",
            PhaseKind::DfsRead => "dfs_read",
            PhaseKind::DfsWrite => "dfs_write",
            PhaseKind::BlockVerify => "block_verify",
            PhaseKind::RecoveryPlanning => "recovery_planning",
            PhaseKind::RecomputeWave => "recompute_wave",
            PhaseKind::RetryBackoff => "retry_backoff",
            PhaseKind::ReactorPoll => "reactor_poll",
            PhaseKind::ReactorPark => "reactor_park",
            PhaseKind::ChainCacheRead => "chain_cache_read",
        }
    }

    /// This phase's position in [`PhaseKind::ALL`] (and in every
    /// [`PhaseBreakdown::entries`] vector).
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// Lock-free per-phase time accumulator.
pub struct PhaseProfiler {
    clock: Clock,
    totals_ns: [AtomicU64; PhaseKind::ALL.len()],
    counts: [AtomicU64; PhaseKind::ALL.len()],
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        Self::new(Clock::monotonic())
    }
}

impl PhaseProfiler {
    /// Creates a zeroed profiler timing coarse spans with `clock`.
    pub fn new(clock: Clock) -> Self {
        Self {
            clock,
            totals_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// The clock [`PhaseProfiler::span`] guards read.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Adds `ns` nanoseconds to a phase (one event). Hot loops should
    /// accumulate locally and call this once per task.
    pub fn add_ns(&self, kind: PhaseKind, ns: u64) {
        self.totals_ns[kind.index()].fetch_add(ns, Ordering::Relaxed);
        self.counts[kind.index()].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `us` microseconds to a phase (one event).
    pub fn add_us(&self, kind: PhaseKind, us: u64) {
        self.add_ns(kind, us.saturating_mul(1_000));
    }

    /// Adds `ns` nanoseconds across `events` events in one call.
    pub fn add_many_ns(&self, kind: PhaseKind, ns: u64, events: u64) {
        self.totals_ns[kind.index()].fetch_add(ns, Ordering::Relaxed);
        self.counts[kind.index()].fetch_add(events, Ordering::Relaxed);
    }

    /// Times a coarse phase with the profiler's clock: the returned
    /// guard adds the elapsed time on drop. Microsecond resolution —
    /// use [`PhaseProfiler::add_ns`] with local accumulation for
    /// sub-microsecond work.
    pub fn span(&self, kind: PhaseKind) -> PhaseTimer<'_> {
        PhaseTimer {
            profiler: self,
            kind,
            start_us: self.clock.now_us(),
        }
    }

    /// Total nanoseconds accumulated for one phase.
    pub fn total_ns(&self, kind: PhaseKind) -> u64 {
        self.totals_ns[kind.index()].load(Ordering::Relaxed)
    }

    /// Point-in-time breakdown covering every phase in schema order.
    pub fn snapshot(&self) -> PhaseBreakdown {
        PhaseBreakdown {
            entries: PhaseKind::ALL
                .iter()
                .map(|&k| PhaseEntry {
                    phase: k.name().to_string(),
                    total_us: self.totals_ns[k.index()].load(Ordering::Relaxed) / 1_000,
                    count: self.counts[k.index()].load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

/// RAII guard from [`PhaseProfiler::span`].
pub struct PhaseTimer<'a> {
    profiler: &'a PhaseProfiler,
    kind: PhaseKind,
    start_us: u64,
}

impl Drop for PhaseTimer<'_> {
    fn drop(&mut self) {
        let us = self.profiler.clock.now_us().saturating_sub(self.start_us);
        self.profiler.add_us(self.kind, us);
    }
}

/// One phase's accumulated time and event count.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseEntry {
    /// Stable phase name ([`PhaseKind::name`]).
    pub phase: String,
    /// Accumulated microseconds.
    pub total_us: u64,
    /// Number of timed events.
    pub count: u64,
}

/// A per-phase time-budget breakdown — the Fig.-7-style recovery
/// decomposition. Always lists every [`PhaseKind`] in [`PhaseKind::ALL`]
/// order, so engine- and sim-produced breakdowns share one schema.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseBreakdown {
    /// One entry per phase, in schema order.
    pub entries: Vec<PhaseEntry>,
}

impl PhaseBreakdown {
    /// Builds a breakdown directly from `(phase, total_us, count)`
    /// contributions (the simulator's path: virtual durations, no
    /// profiler). Phases not contributed appear with zeros.
    pub fn from_parts(parts: &[(PhaseKind, u64, u64)]) -> Self {
        let mut totals = [0u64; PhaseKind::ALL.len()];
        let mut counts = [0u64; PhaseKind::ALL.len()];
        for &(k, us, n) in parts {
            totals[k.index()] += us;
            counts[k.index()] += n;
        }
        Self {
            entries: PhaseKind::ALL
                .iter()
                .map(|&k| PhaseEntry {
                    phase: k.name().to_string(),
                    total_us: totals[k.index()],
                    count: counts[k.index()],
                })
                .collect(),
        }
    }

    /// The accumulated microseconds of one phase (0 when absent).
    pub fn total_us(&self, kind: PhaseKind) -> u64 {
        self.entries
            .iter()
            .find(|e| e.phase == kind.name())
            .map_or(0, |e| e.total_us)
    }

    /// Sum of every phase's accumulated time, microseconds.
    pub fn grand_total_us(&self) -> u64 {
        self.entries.iter().map(|e| e.total_us).sum()
    }

    /// The phase names, in order — the schema the engine and the sim
    /// must agree on.
    pub fn schema(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.phase.as_str()).collect()
    }

    /// Per-phase difference `self − earlier` (saturating), for
    /// per-job deltas from cumulative snapshots.
    pub fn delta(&self, earlier: &PhaseBreakdown) -> PhaseBreakdown {
        PhaseBreakdown {
            entries: self
                .entries
                .iter()
                .map(|e| {
                    let prev = earlier
                        .entries
                        .iter()
                        .find(|p| p.phase == e.phase)
                        .map_or((0, 0), |p| (p.total_us, p.count));
                    PhaseEntry {
                        phase: e.phase.clone(),
                        total_us: e.total_us.saturating_sub(prev.0),
                        count: e.count.saturating_sub(prev.1),
                    }
                })
                .collect(),
        }
    }

    /// Deterministic text table: phase, total ms, share of the grand
    /// total, event count. Zero phases are elided from the rendering
    /// (not from the schema).
    pub fn render(&self) -> String {
        let grand = self.grand_total_us().max(1);
        let mut out = String::from("phase              |   total ms | share | events\n");
        for e in &self.entries {
            if e.total_us == 0 && e.count == 0 {
                continue;
            }
            out.push_str(&format!(
                "{:<18} | {:>10.3} | {:>4.1}% | {}\n",
                e.phase,
                e.total_us as f64 / 1_000.0,
                e.total_us as f64 * 100.0 / grand as f64,
                e.count
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_snapshots_in_schema_order() {
        let p = PhaseProfiler::default();
        p.add_us(PhaseKind::MapCompute, 1_500);
        p.add_ns(PhaseKind::MapCompute, 500_000);
        p.add_many_ns(PhaseKind::StreamingMerge, 3_000_000, 42);
        let b = p.snapshot();
        assert_eq!(b.entries.len(), PhaseKind::ALL.len());
        assert_eq!(b.total_us(PhaseKind::MapCompute), 2_000);
        assert_eq!(b.total_us(PhaseKind::StreamingMerge), 3_000);
        assert_eq!(b.total_us(PhaseKind::ReduceUdf), 0);
        let names: Vec<&str> = PhaseKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(b.schema(), names);
    }

    #[test]
    fn span_guard_times_with_manual_clock() {
        let (clock, hand) = Clock::manual();
        let p = PhaseProfiler::new(clock);
        {
            let _t = p.span(PhaseKind::RecoveryPlanning);
            hand.advance_us(750);
        }
        assert_eq!(p.total_ns(PhaseKind::RecoveryPlanning), 750_000);
    }

    #[test]
    fn delta_subtracts_per_phase() {
        let p = PhaseProfiler::default();
        p.add_us(PhaseKind::ReduceUdf, 100);
        let before = p.snapshot();
        p.add_us(PhaseKind::ReduceUdf, 40);
        p.add_us(PhaseKind::RetryBackoff, 7);
        let d = p.snapshot().delta(&before);
        assert_eq!(d.total_us(PhaseKind::ReduceUdf), 40);
        assert_eq!(d.total_us(PhaseKind::RetryBackoff), 7);
        assert_eq!(d.total_us(PhaseKind::MapCompute), 0);
    }

    #[test]
    fn from_parts_matches_profiler_schema() {
        let sim = PhaseBreakdown::from_parts(&[
            (PhaseKind::MapCompute, 5_000, 3),
            (PhaseKind::RecomputeWave, 9_000, 1),
        ]);
        let engine = PhaseProfiler::default().snapshot();
        assert_eq!(sim.schema(), engine.schema());
        assert_eq!(sim.total_us(PhaseKind::RecomputeWave), 9_000);
        assert!(sim.render().contains("map_compute"));
    }
}
