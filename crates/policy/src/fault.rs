//! The fault script: one clock-free list of `(run, point, fault)`
//! entries that every backend replays.
//!
//! The paper injects failures by killing a node 15 s into a job (§V-A)
//! and names its scenarios by the run they hit: FAIL 2 and FAIL 7
//! (Fig. 8b/8c), the FAIL x,y pairs of Fig. 9. A [`FailureAt`] says the
//! same thing without a clock: *which* run (`seq`, the paper's job
//! numbering), *where* in it ([`TriggerPoint`]) and *what* ([`Fault`]).
//! Both backends fire an entry at the job machine's point
//! ([`crate::job`]); the simulator charges a `JobStart` crash the
//! paper's offset (the k-th crash scripted for a run strikes 15·k s
//! after the previous one was detected, or after the run started), a
//! wave-point crash the detection timeout from that boundary, and a
//! drain nothing. The chain-machine model consumes the same type.

use rcmp_model::NodeId;
use rcmp_obs::FaultKind;
use serde::{Deserialize, Serialize};

/// Where in a job's execution a scripted fault fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TriggerPoint {
    /// As the run starts: after its plan is checked and before JobInit,
    /// so a crash here can take the run's input and cancel it (the
    /// paper's "15 s after the start of some job" lands here or in the
    /// first map wave for our workloads).
    JobStart,
    /// During the given map wave (0-based): fired after the wave's tasks
    /// are assigned but before they execute, so a node killed here dies
    /// with map tasks of that wave in flight.
    MidMapWave(u32),
    /// After the given map wave (0-based) completes.
    AfterMapWave(u32),
    /// During the given reduce wave (0-based): fired after assignment,
    /// before execution — a kill here fails in-flight reducers.
    MidReduceWave(u32),
    /// After the given reduce wave (0-based) completes. The paper's
    /// "just before the job completes" (Fig. 1) is the last reduce wave.
    AfterReduceWave(u32),
}

/// A fault raised at a trigger point.
///
/// Each shape is detected and recovered by a different mechanism (see
/// DESIGN.md "Fault model"): kills by the loss-report → recomputation
/// path, corruption by checksum verification on read, torn writes by
/// the tracker's torn-partition re-enqueue, and flakes by bounded
/// shuffle retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fault {
    /// Kill the node outright: its DFS block replicas and persisted map
    /// outputs are gone immediately.
    NodeCrash(NodeId),
    /// Silently flip bits in one DFS block replica stored on the node.
    /// Namespace metadata (including the recorded checksum) is left
    /// untouched, so the damage surfaces on the next verified read.
    CorruptReplica {
        /// The node whose replica rots.
        node: NodeId,
    },
    /// Arm a torn write: the first reducer assigned to this node in the
    /// next reduce wave commits only a strict prefix of its chunks, and
    /// the node dies at the end of that wave. A reducer that fails
    /// before writing passes the arm on to the node's next reducer.
    TornWrite {
        /// The node whose next reducer tears its write.
        node: NodeId,
    },
    /// Arm transient shuffle failures: the next `times` shuffle attempts
    /// by this chain's reducers on this node fail retryably, handed out
    /// in wave input order, at most one attempt budget per task.
    ShuffleFlake {
        /// The node whose reducers' fetches fail.
        node: NodeId,
        /// How many attempts fail.
        times: u32,
    },
    /// Gracefully drain the node (Up → Draining): it stops receiving
    /// tasks and new replicas, but everything it stores stays readable.
    /// Skipped unless [`crate::Membership::drainable`] allows it, so a
    /// drain can never strand a chain.
    NodeDrain {
        /// The node to drain.
        node: NodeId,
    },
}

impl Fault {
    /// The fault's shape, as its `Fault` span names it.
    pub fn kind(&self) -> FaultKind {
        match self {
            Fault::NodeCrash(_) => FaultKind::NodeCrash,
            Fault::CorruptReplica { .. } => FaultKind::CorruptReplica,
            Fault::TornWrite { .. } => FaultKind::TornWrite,
            Fault::ShuffleFlake { .. } => FaultKind::ShuffleFlake,
            Fault::NodeDrain { .. } => FaultKind::NodeDrain,
        }
    }

    /// The node this fault targets.
    pub fn node(&self) -> NodeId {
        match *self {
            Fault::NodeCrash(n)
            | Fault::CorruptReplica { node: n }
            | Fault::TornWrite { node: n }
            | Fault::ShuffleFlake { node: n, .. }
            | Fault::NodeDrain { node: n } => n,
        }
    }
}

/// One scripted fault: raise `fault` at `point` of run `seq`. Every run,
/// initial or recomputation, gets the next `seq`, so "a failure at job
/// 7" after earlier recomputations shifts — exactly the paper's Fig. 7
/// numbering.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailureAt {
    /// The run the fault fires in.
    pub seq: u64,
    /// Where in that run.
    pub point: TriggerPoint,
    /// What happens.
    pub fault: Fault,
}

impl FailureAt {
    /// The paper's standard injection: kill `node` as run `seq` starts.
    pub fn at_job(seq: u64, node: u32) -> Self {
        Self {
            seq,
            point: TriggerPoint::JobStart,
            fault: Fault::NodeCrash(NodeId(node)),
        }
    }
}
