//! The span recorder.
//!
//! One [`Tracer`] lives on the cluster (engine) or simulation and is
//! shared by every thread that executes work. Recording is
//! contention-free in the common case: each thread is assigned one of a
//! fixed set of shards on first use and appends to it behind its own
//! lock, so task executor threads never contend with each other or with
//! the driver. [`Tracer::snapshot`] merges the shards into a single
//! time-ordered [`Trace`].
//!
//! The tracer keeps no lineage of its own: a span's `cause` is a value
//! its writer passes in. The job machine links a loss to the fault
//! that made it, and the chain loop links a recovery plan to the
//! chain's latest loss and a recomputation run to its plan
//! (`rcmp_policy::{job, chain}`), so chains sharing one tracer never
//! see each other's causes.

use crate::clock::Clock;
use crate::span::{Span, SpanId, SpanKind, Trace};
use parking_lot::Mutex;
use rcmp_model::NodeId;
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of independent recording shards. Threads are assigned
/// round-robin; more threads than shards only means occasional sharing.
const SHARDS: usize = 16;

thread_local! {
    /// This thread's shard index, assigned on first record.
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Global round-robin counter for shard assignment (shared across
/// tracers; only fairness matters, not identity).
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// A started-but-not-finished span: holds the id and start timestamp
/// until [`Tracer::close`] supplies the kind and links.
#[derive(Clone, Copy, Debug)]
pub struct OpenSpan {
    /// The id the finished span will carry.
    pub id: SpanId,
    /// Start timestamp, microseconds since the tracer epoch.
    pub start_us: u64,
}

/// Shared, thread-safe span recorder.
pub struct Tracer {
    clock: Clock,
    next_id: AtomicU64,
    shards: Vec<Mutex<Vec<Span>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Creates an empty tracer; its epoch is the creation instant.
    pub fn new() -> Self {
        Self::with_clock(Clock::monotonic())
    }

    /// Creates an empty tracer timestamping through `clock` (the clock
    /// seam: tests and the simulator pass a manual clock).
    pub fn with_clock(clock: Clock) -> Self {
        Self {
            clock,
            next_id: AtomicU64::new(1),
            shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
        }
    }

    /// The clock this tracer timestamps with.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Microseconds since the tracer epoch.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Starts a span: allocates its id and records the start time.
    pub fn open(&self) -> OpenSpan {
        OpenSpan {
            id: self.alloc_id(),
            start_us: self.now_us(),
        }
    }

    /// Finishes a span opened with [`Tracer::open`].
    pub fn close(
        &self,
        open: OpenSpan,
        kind: SpanKind,
        parent: Option<SpanId>,
        cause: Option<SpanId>,
        node: Option<NodeId>,
    ) {
        let end_us = self.now_us();
        self.push(Span {
            id: open.id,
            parent,
            cause,
            node,
            start_us: open.start_us,
            end_us,
            kind,
        });
    }

    /// Records an instantaneous span at the current time.
    pub fn instant(
        &self,
        kind: SpanKind,
        parent: Option<SpanId>,
        cause: Option<SpanId>,
        node: Option<NodeId>,
    ) -> SpanId {
        let now = self.now_us();
        self.record(kind, parent, cause, node, now, now)
    }

    /// Records a span with explicit timestamps (used for retroactive
    /// spans like per-source shuffle fetches, and by the simulator
    /// where time is virtual).
    pub fn record(
        &self,
        kind: SpanKind,
        parent: Option<SpanId>,
        cause: Option<SpanId>,
        node: Option<NodeId>,
        start_us: u64,
        end_us: u64,
    ) -> SpanId {
        let id = self.alloc_id();
        self.push(Span {
            id,
            parent,
            cause,
            node,
            start_us,
            end_us,
            kind,
        });
        id
    }

    /// Total spans recorded so far.
    fn span_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Merges all shards into a single trace ordered by
    /// `(start_us, id)`. Non-destructive: recording can continue and a
    /// later snapshot will include everything again.
    pub fn snapshot(&self) -> Trace {
        let mut spans: Vec<Span> = Vec::with_capacity(self.span_count());
        for shard in &self.shards {
            spans.extend(shard.lock().iter().cloned());
        }
        spans.sort_by_key(|s| (s.start_us, s.id));
        Trace { spans }
    }

    fn alloc_id(&self) -> SpanId {
        SpanId(self.next_id.fetch_add(1, Ordering::Relaxed))
    }

    fn push(&self, span: Span) {
        let idx = MY_SHARD.with(|c| {
            let mut idx = c.get();
            if idx == usize::MAX {
                idx = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
                c.set(idx);
            }
            idx
        });
        self.shards[idx].lock().push(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(label: &str) -> SpanKind {
        SpanKind::Event {
            seq: 0,
            label: label.to_string(),
        }
    }

    #[test]
    fn open_close_produces_ordered_trace() {
        let t = Tracer::new();
        let a = t.open();
        let inner = t.instant(ev("inner"), Some(a.id), None, None);
        t.close(a, ev("outer"), None, None, None);
        let trace = t.snapshot();
        assert_eq!(trace.len(), 2);
        assert!(trace.spans[0].start_us <= trace.spans[1].start_us);
        assert_eq!(trace.get(inner).unwrap().parent, Some(a.id));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let t = Arc::new(Tracer::new());
        let threads = 8;
        let per = 200;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..per {
                        t.instant(ev(&format!("e{i}")), None, None, None);
                    }
                });
            }
        });
        let trace = t.snapshot();
        assert_eq!(trace.len(), threads * per);
        // Ids are unique.
        let mut ids: Vec<u64> = trace.spans.iter().map(|s| s.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), threads * per);
    }

    #[test]
    fn manual_clock_drives_span_timestamps() {
        let (clock, hand) = crate::clock::Clock::manual();
        let t = Tracer::with_clock(clock);
        let open = t.open();
        hand.advance_us(1_234);
        t.close(open, ev("timed"), None, None, None);
        let trace = t.snapshot();
        assert_eq!(trace.spans[0].start_us, 0);
        assert_eq!(trace.spans[0].end_us, 1_234);
    }

    #[test]
    fn snapshot_is_non_destructive() {
        let t = Tracer::new();
        t.instant(ev("a"), None, None, None);
        assert_eq!(t.snapshot().len(), 1);
        t.instant(ev("b"), None, None, None);
        assert_eq!(t.snapshot().len(), 2);
    }
}
