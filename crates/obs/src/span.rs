//! The span schema shared by the real engine and the simulator.
//!
//! A [`Span`] is one timed (or instantaneous) unit of work with two
//! kinds of links: `parent` expresses *containment* (a task belongs to
//! a wave, a wave to a job run) and `cause` expresses *lineage* (a
//! recomputation run was caused by a loss, a loss by an injected
//! fault). The same schema is produced by `rcmp-engine` (real wall
//! clock) and `rcmp-sim` (simulated clock), so traces from both can be
//! diffed and fed to the same analyzers and exporters.

use rcmp_model::{JobId, NodeId, TaskId, TenantId};
use serde::{Deserialize, Serialize};

/// Unique identifier of a span within one [`Trace`]. The tracer issues
/// ids from 1.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct SpanId(pub u64);

/// Which task phase a wave belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Mapper wave.
    Map,
    /// Reducer wave.
    Reduce,
}

/// The shape of an injected fault: one variant per `rcmp_policy::Fault`
/// variant, without its payload (this crate sits below the policy
/// crate and cannot name `Fault`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// A node was killed (blocks and map outputs lost with it).
    NodeCrash,
    /// One block replica was silently corrupted on disk.
    CorruptReplica,
    /// The node's next partition write commits a strict prefix and the
    /// writer dies mid-write.
    TornWrite,
    /// The node's shuffle path fails transiently.
    ShuffleFlake,
    /// The node was gracefully drained: no new tasks or replicas, data
    /// still readable (the benign counterpart of `NodeCrash`).
    NodeDrain,
}

/// What a span describes, with its kind-specific payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SpanKind {
    /// One job submission driven to completion (or failure).
    JobRun {
        /// Global run sequence number (the paper's job numbering).
        seq: u64,
        /// Logical job identity.
        job: JobId,
        /// True for recomputation runs.
        recompute: bool,
        /// Live nodes when the run started.
        live_nodes: u32,
        /// Configured mapper slots per node.
        map_slots: u32,
        /// Configured reducer slots per node.
        reduce_slots: u32,
        /// Whether the run completed successfully.
        ok: bool,
        /// Owning tenant when the run was admitted through the job
        /// service (`rcmp-serve`); `None` for single-tenant drivers.
        tenant: Option<TenantId>,
    },
    /// One scheduling wave within a job run.
    Wave {
        /// Map or reduce wave.
        phase: Phase,
        /// Wave index within its phase.
        index: u32,
        /// Tasks scheduled in this wave.
        tasks: u32,
        /// Slot capacity at assignment time (live nodes × slots).
        capacity: u32,
    },
    /// One task attempt (map or reduce).
    Task {
        /// Task identity.
        id: TaskId,
        /// Bytes read (map input, or total shuffle volume for reducers).
        bytes_in: u64,
        /// Bytes written to the DFS (reducers; zero for mappers).
        bytes_out: u64,
        /// For mappers: the node that served the input block.
        input_source: Option<NodeId>,
        /// Whether the attempt succeeded.
        ok: bool,
    },
    /// One reducer's fetch volume from a single map-output source node.
    ShuffleFetch {
        /// Node the bucket bytes were served from.
        source: NodeId,
        /// Bucket bytes fetched from that source.
        bytes: u64,
    },
    /// A verified DFS block read.
    BlockRead {
        /// Node that served the block.
        source: NodeId,
        /// Block payload size.
        bytes: u64,
    },
    /// A DFS partition write (all chunks of one segment).
    BlockWrite {
        /// Total payload bytes written (before replication).
        bytes: u64,
        /// Number of blocks the payload was chunked into.
        blocks: u32,
        /// Replication factor applied.
        replicas: u32,
    },
    /// A block replica failed checksum verification and was demoted.
    BlockVerifyFailed {
        /// Raw id of the damaged block.
        block: u64,
    },
    /// An injected fault was applied.
    Fault {
        /// Run sequence number the fault landed in.
        seq: u64,
        /// Fault shape.
        kind: FaultKind,
        /// Trigger point description (e.g. `MidMapWave(1)`).
        at: String,
    },
    /// Irreversible data loss was observed (node death, torn write).
    Loss {
        /// Run sequence number the loss was observed in.
        seq: u64,
        /// Partitions irreversibly lost across all files.
        lost_partitions: u32,
    },
    /// The middleware planned a cascading recovery.
    RecoveryPlan {
        /// Job whose input the plan restores.
        target: JobId,
        /// Recomputation steps in the plan.
        steps: u32,
        /// Total partitions the plan regenerates.
        partitions: u32,
    },
    /// One wave as `rcmp-exec`'s worker pool ran it, from publish to
    /// the last task's outcome (emitted when the executor is
    /// instrumented, as every cluster's is).
    ExecutorWave {
        /// Slot tasks the wave carried.
        tasks: u32,
        /// Pool worker threads that claimed them.
        workers: u32,
    },
    /// The closed-loop adaptive policy re-derived its replication
    /// interval after a job completed (`rcmp_policy::adapt`). The
    /// `cause` link points at the latest `Loss` span since the previous
    /// point — a loss is what moves the estimate — and is `None` when
    /// the chain lost nothing in between.
    AdaptationPoint {
        /// Run sequence number of the job whose completion triggered
        /// the re-derivation.
        seq: u64,
        /// Failure-rate estimate at the decision, parts per million.
        rate_ppm: u64,
        /// Replication interval chosen (`None` = pure RCMP, never
        /// replicate).
        interval: Option<u32>,
        /// Whether the interval changed from the previous decision.
        switched: bool,
    },
    /// A structured middleware event that has no richer span shape
    /// (chain restarts, replication points, storage reclaim, ...).
    Event {
        /// Run sequence number, when the event carries one (else 0).
        seq: u64,
        /// Compact human-readable description.
        label: String,
    },
}

impl SpanKind {
    /// Stable kind name, used for grouping in summaries and exports.
    pub fn name(&self) -> &'static str {
        match self {
            SpanKind::JobRun { .. } => "JobRun",
            SpanKind::Wave { .. } => "Wave",
            SpanKind::Task { .. } => "Task",
            SpanKind::ShuffleFetch { .. } => "ShuffleFetch",
            SpanKind::BlockRead { .. } => "BlockRead",
            SpanKind::BlockWrite { .. } => "BlockWrite",
            SpanKind::BlockVerifyFailed { .. } => "BlockVerifyFailed",
            SpanKind::Fault { .. } => "Fault",
            SpanKind::Loss { .. } => "Loss",
            SpanKind::RecoveryPlan { .. } => "RecoveryPlan",
            SpanKind::ExecutorWave { .. } => "ExecutorWave",
            SpanKind::AdaptationPoint { .. } => "AdaptationPoint",
            SpanKind::Event { .. } => "Event",
        }
    }
}

/// One recorded unit of work.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    /// Unique id within the trace.
    pub id: SpanId,
    /// Containment link: the span this one executed inside of.
    pub parent: Option<SpanId>,
    /// Lineage link: the span that *caused* this one (loss → fault,
    /// recovery plan → loss, recomputation run → recovery plan).
    pub cause: Option<SpanId>,
    /// Node the work ran on, when attributable to one.
    pub node: Option<NodeId>,
    /// Start, microseconds since the tracer's epoch.
    pub start_us: u64,
    /// End, microseconds since the tracer's epoch. Equal to `start_us`
    /// for instantaneous spans.
    pub end_us: u64,
    /// What the span describes.
    pub kind: SpanKind,
}

impl Span {
    /// Span duration in microseconds (zero for instants).
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    /// True when the span is an instantaneous marker.
    pub fn is_instant(&self) -> bool {
        self.start_us == self.end_us
    }
}

/// A merged, time-ordered collection of spans from one execution.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Spans ordered by `(start_us, id)`.
    pub spans: Vec<Span>,
}

impl Trace {
    /// All spans, in `(start_us, id)` order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when no spans were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Looks a span up by id.
    pub fn get(&self, id: SpanId) -> Option<&Span> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Walks `parent` links from `id` up to the enclosing `JobRun`
    /// span, if the span sits inside one.
    pub fn run_of(&self, id: SpanId) -> Option<&Span> {
        let mut cur = self.get(id)?;
        loop {
            if matches!(cur.kind, SpanKind::JobRun { .. }) {
                return Some(cur);
            }
            cur = self.get(cur.parent?)?;
        }
    }

    /// The run sequence number a span executed under, via [`run_of`].
    ///
    /// [`run_of`]: Trace::run_of
    pub fn run_seq_of(&self, id: SpanId) -> Option<u64> {
        match self.run_of(id)?.kind {
            SpanKind::JobRun { seq, .. } => Some(seq),
            _ => None,
        }
    }

    /// Spans of a given kind name, in trace order.
    pub fn of_kind<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.kind.name() == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, kind: SpanKind) -> Span {
        Span {
            id: SpanId(id),
            parent: parent.map(SpanId),
            cause: None,
            node: None,
            start_us: id,
            end_us: id + 1,
            kind,
        }
    }

    #[test]
    fn run_of_walks_parent_chain() {
        let t = Trace {
            spans: vec![
                span(
                    1,
                    None,
                    SpanKind::JobRun {
                        seq: 7,
                        job: JobId(3),
                        recompute: false,
                        live_nodes: 4,
                        map_slots: 1,
                        reduce_slots: 1,
                        ok: true,
                        tenant: None,
                    },
                ),
                span(
                    2,
                    Some(1),
                    SpanKind::Wave {
                        phase: Phase::Map,
                        index: 0,
                        tasks: 3,
                        capacity: 4,
                    },
                ),
                span(
                    3,
                    Some(2),
                    SpanKind::Task {
                        id: rcmp_model::MapTaskId::new(JobId(3), 0).into(),
                        bytes_in: 10,
                        bytes_out: 0,
                        input_source: Some(NodeId(1)),
                        ok: true,
                    },
                ),
            ],
        };
        assert_eq!(t.run_seq_of(SpanId(3)), Some(7));
        assert_eq!(t.run_seq_of(SpanId(1)), Some(7));
        assert_eq!(t.of_kind("Wave").count(), 1);
    }

    #[test]
    fn duration_and_instant() {
        let mut s = span(
            1,
            None,
            SpanKind::Event {
                seq: 0,
                label: "x".into(),
            },
        );
        assert_eq!(s.duration_us(), 1);
        assert!(!s.is_instant());
        s.end_us = s.start_us;
        assert!(s.is_instant());
    }
}
