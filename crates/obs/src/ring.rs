//! The always-on flight recorder.
//!
//! The [`crate::Tracer`] keeps *everything* and is meant for offline
//! figure generation; a production service cannot afford unbounded
//! retention. The [`FlightRecorder`] is the bounded complement: a set
//! of fixed-capacity per-shard ring buffers of compact, fixed-size
//! [`FlightEvent`] records. Recording is lock-light (each thread
//! appends to its own shard behind an uncontended mutex), eviction is
//! oldest-first within a shard, and every eviction is counted — the
//! invariant `recorded == retained + dropped` holds exactly at any
//! snapshot. The recorder also measures its own cost (sampled
//! record-path nanoseconds, bytes retained, drop rate) so the overhead
//! budget is a number the layer itself reports rather than a promise.

use crate::clock::Clock;
use parking_lot::Mutex;
use rcmp_model::NodeId;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// Default number of ring shards.
pub const DEFAULT_SHARDS: usize = 16;

/// Default per-shard capacity (events retained per shard).
pub const DEFAULT_CAPACITY: usize = 4096;

/// Self-measurement sampling: one in `2^SAMPLE_SHIFT` records is timed.
const SAMPLE_SHIFT: u64 = 6;

thread_local! {
    /// This thread's ring shard, assigned round-robin on first record.
    static MY_RING_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Round-robin counter for ring-shard assignment.
static NEXT_RING_SHARD: AtomicUsize = AtomicUsize::new(0);

/// What a flight-recorder event describes. Codes are compact on
/// purpose: the recorder trades the tracer's rich payloads for a
/// fixed-size record that can be retained by the million.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventCode {
    /// A job run started (`a` = run seq, `b` = 1 for recompute runs).
    JobStart,
    /// A job run finished (`a` = run seq, `b` = 1 on success).
    JobEnd,
    /// A scheduling wave started (`a` = wave index, `b` = tasks).
    WaveStart,
    /// A scheduling wave finished (`a` = wave index, `b` = tasks).
    WaveEnd,
    /// A task attempt finished (`a` = raw task id, `b` = 1 on success).
    TaskDone,
    /// A task attempt is being retried (`a` = raw task id, `b` = attempt).
    TaskRetry,
    /// A shuffle fetch hit a transient failure (`a` = source node).
    ShuffleRetry,
    /// A retry slept its backoff (`a` = milliseconds, `b` = attempt).
    BackoffWait,
    /// A fault was injected (`a` = run seq).
    FaultInjected,
    /// Irreversible partition loss was observed (`a` = run seq,
    /// `b` = partitions lost).
    PartitionsLost,
    /// A cascading recovery was planned (`a` = steps, `b` = partitions).
    RecoveryPlanned,
    /// A recomputation run was submitted (`a` = run seq, `b` = job).
    RecomputeStarted,
    /// A block replica failed checksum verification (`a` = raw block id).
    BlockVerifyFailed,
    /// The adaptive policy switched its replication cadence
    /// (`a` = new interval, 0 = never; `b` = rate estimate, ppm).
    CadenceSwitched,
    /// Free-form probe point (`a`/`b` site-defined).
    Probe,
}

/// One compact flight-recorder record. Fixed size — no heap payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlightEvent {
    /// Global record sequence number (total order across shards).
    pub seq: u64,
    /// Timestamp, microseconds on the recorder's [`Clock`].
    pub t_us: u64,
    /// Node the event is attributed to (`u32::MAX` = none).
    pub node: u32,
    /// Event code.
    pub code: EventCode,
    /// First payload word (meaning per [`EventCode`]).
    pub a: u64,
    /// Second payload word (meaning per [`EventCode`]).
    pub b: u64,
}

/// One shard: a bounded deque plus exact local accounting.
struct RingShard {
    buf: VecDeque<FlightEvent>,
    recorded: u64,
    dropped: u64,
}

/// Point-in-time contents of the recorder, merged across shards.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FlightLog {
    /// Retained events in global `seq` order (oldest first).
    pub events: Vec<FlightEvent>,
    /// Total events ever recorded.
    pub recorded: u64,
    /// Events evicted oldest-first to stay within capacity.
    pub dropped: u64,
}

/// The recorder's self-measured cost.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct RecorderStats {
    /// Total events ever recorded.
    pub recorded: u64,
    /// Events currently retained across all shards.
    pub retained: u64,
    /// Events evicted to stay within capacity.
    pub dropped: u64,
    /// Bytes currently retained (`retained × sizeof(FlightEvent)`).
    pub bytes_retained: u64,
    /// Mean nanoseconds per record call, from sampled timings
    /// (0 when nothing was sampled yet).
    pub record_ns_per_op: u64,
    /// How many record calls were timed for the mean.
    pub samples: u64,
}

impl RecorderStats {
    /// Fraction of recorded events that were dropped, in [0, 1].
    pub fn drop_rate(&self) -> f64 {
        if self.recorded == 0 {
            0.0
        } else {
            self.dropped as f64 / self.recorded as f64
        }
    }
}

/// Lock-light, fixed-capacity, always-on event recorder.
pub struct FlightRecorder {
    clock: Clock,
    enabled: AtomicBool,
    seq: AtomicU64,
    capacity_per_shard: usize,
    shards: Vec<Mutex<RingShard>>,
    sampled_ns: AtomicU64,
    samples: AtomicU64,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(Clock::monotonic(), DEFAULT_CAPACITY, DEFAULT_SHARDS)
    }
}

impl FlightRecorder {
    /// Creates a recorder with `capacity_per_shard` retained events per
    /// shard across `shards` shards (use `shards = 1` for tests that
    /// assert exact eviction order regardless of calling thread).
    pub fn new(clock: Clock, capacity_per_shard: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let capacity_per_shard = capacity_per_shard.max(1);
        Self {
            clock,
            enabled: AtomicBool::new(true),
            seq: AtomicU64::new(0),
            capacity_per_shard,
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(RingShard {
                        buf: VecDeque::with_capacity(capacity_per_shard),
                        recorded: 0,
                        dropped: 0,
                    })
                })
                .collect(),
            sampled_ns: AtomicU64::new(0),
            samples: AtomicU64::new(0),
        }
    }

    /// A recorder with default capacity and sharding timestamping
    /// through `clock` (the production configuration).
    pub fn with_defaults(clock: Clock) -> Self {
        Self::new(clock, DEFAULT_CAPACITY, DEFAULT_SHARDS)
    }

    /// A recorder that discards everything at the cost of one relaxed
    /// atomic load per call — the A/B baseline for the overhead bench.
    pub fn disabled() -> Self {
        let r = Self::default();
        r.enabled.store(false, Ordering::Relaxed);
        r
    }

    /// The clock this recorder timestamps with.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Records one event. Lock-light: one global sequence fetch-add
    /// plus this thread's shard lock.
    pub fn record(&self, code: EventCode, node: Option<NodeId>, a: u64, b: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let timed = seq & ((1 << SAMPLE_SHIFT) - 1) == 0;
        let t0 = timed.then(Instant::now);
        let ev = FlightEvent {
            seq,
            t_us: self.clock.now_us(),
            node: node.map_or(u32::MAX, |n| n.0),
            code,
            a,
            b,
        };
        self.push(ev);
        if let Some(t0) = t0 {
            self.sampled_ns
                .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            self.samples.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn push(&self, ev: FlightEvent) {
        let idx = MY_RING_SHARD.with(|c| {
            let mut idx = c.get();
            if idx == usize::MAX {
                idx = NEXT_RING_SHARD.fetch_add(1, Ordering::Relaxed) % self.shards.len();
                c.set(idx);
            }
            idx % self.shards.len()
        });
        let mut shard = self.shards[idx].lock();
        if shard.buf.len() == self.capacity_per_shard {
            shard.buf.pop_front();
            shard.dropped += 1;
        }
        shard.buf.push_back(ev);
        shard.recorded += 1;
    }

    /// Merges all shards into a [`FlightLog`] ordered by global `seq`.
    /// Non-destructive.
    pub fn snapshot(&self) -> FlightLog {
        let mut events = Vec::new();
        let mut recorded = 0;
        let mut dropped = 0;
        for shard in &self.shards {
            let s = shard.lock();
            events.extend(s.buf.iter().copied());
            recorded += s.recorded;
            dropped += s.dropped;
        }
        events.sort_unstable_by_key(|e| e.seq);
        FlightLog {
            events,
            recorded,
            dropped,
        }
    }

    /// The recorder's self-measured cost right now.
    pub fn stats(&self) -> RecorderStats {
        let mut recorded = 0;
        let mut retained = 0;
        let mut dropped = 0;
        for shard in &self.shards {
            let s = shard.lock();
            recorded += s.recorded;
            retained += s.buf.len() as u64;
            dropped += s.dropped;
        }
        let samples = self.samples.load(Ordering::Relaxed);
        let record_ns_per_op = self
            .sampled_ns
            .load(Ordering::Relaxed)
            .checked_div(samples)
            .unwrap_or(0);
        RecorderStats {
            recorded,
            retained,
            dropped,
            bytes_retained: retained * std::mem::size_of::<FlightEvent>() as u64,
            record_ns_per_op,
            samples,
        }
    }
}

impl FlightLog {
    /// The last `n` retained events (most recent portion of the log).
    pub fn last(&self, n: usize) -> &[FlightEvent] {
        let start = self.events.len().saturating_sub(n);
        &self.events[start..]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_shard(cap: usize) -> FlightRecorder {
        FlightRecorder::new(Clock::monotonic(), cap, 1)
    }

    #[test]
    fn retains_everything_under_capacity() {
        let r = single_shard(8);
        for i in 0..5 {
            r.record(EventCode::Probe, None, i, 0);
        }
        let log = r.snapshot();
        assert_eq!(log.recorded, 5);
        assert_eq!(log.dropped, 0);
        let seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overflow_evicts_oldest_first_with_exact_drop_accounting() {
        let r = single_shard(4);
        for i in 0..10 {
            r.record(EventCode::Probe, None, i, 0);
        }
        let log = r.snapshot();
        assert_eq!(log.recorded, 10);
        assert_eq!(log.dropped, 6);
        assert_eq!(log.recorded, log.dropped + log.events.len() as u64);
        // The four newest survive, oldest-first within the window.
        let payloads: Vec<u64> = log.events.iter().map(|e| e.a).collect();
        assert_eq!(payloads, vec![6, 7, 8, 9]);
    }

    #[test]
    fn disabled_recorder_retains_nothing() {
        let r = FlightRecorder::disabled();
        r.record(EventCode::Probe, None, 1, 2);
        let log = r.snapshot();
        assert_eq!(log.recorded, 0);
        assert!(log.events.is_empty());
        let stats = r.stats();
        assert_eq!(stats.recorded, 0);
        assert_eq!(stats.drop_rate(), 0.0);
    }

    #[test]
    fn stats_account_bytes_and_invariant_across_threads() {
        use std::sync::Arc;
        let r = Arc::new(FlightRecorder::new(Clock::monotonic(), 16, 4));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        r.record(EventCode::TaskDone, Some(NodeId(1)), i, 1);
                    }
                });
            }
        });
        let stats = r.stats();
        assert_eq!(stats.recorded, 800);
        assert_eq!(stats.recorded, stats.retained + stats.dropped);
        assert_eq!(
            stats.bytes_retained,
            stats.retained * std::mem::size_of::<FlightEvent>() as u64
        );
        assert!(stats.samples > 0, "sampled self-measurement ran");
    }

    #[test]
    fn manual_clock_timestamps_are_deterministic() {
        let (clock, hand) = Clock::manual();
        let r = FlightRecorder::new(clock, 8, 1);
        r.record(EventCode::Probe, None, 0, 0);
        hand.advance_us(500);
        r.record(EventCode::Probe, None, 1, 0);
        let log = r.snapshot();
        assert_eq!(log.events[0].t_us, 0);
        assert_eq!(log.events[1].t_us, 500);
    }
}
