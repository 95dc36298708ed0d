//! Failure injection.
//!
//! The paper injects failures by killing a node's TaskTracker and
//! DataNode processes 15 s into a job (§V-A). The engine's equivalent
//! is an injector consulted at deterministic execution points — job
//! start, before and after every wave — that names the faults to raise
//! there. Deterministic injection points make every failure experiment
//! exactly reproducible, which the paper's wall-clock injection is not.
//!
//! The fault set (one variant per detection/recovery mechanism, see
//! DESIGN.md "Fault model"):
//!
//! * [`Fault::NodeCrash`] — fail-stop kill; recovered by the
//!   loss-report → recomputation path.
//! * [`Fault::CorruptReplica`] — silent bit-flip in one stored replica;
//!   caught by checksum verification on read.
//! * [`Fault::TornWrite`] — a reducer commits a strict prefix of its
//!   output chunks and its node dies at the wave boundary; healed by
//!   the tracker's torn-partition re-enqueue.
//! * [`Fault::ShuffleFlake`] — transient shuffle-fetch failures;
//!   absorbed by bounded retry.
//! * [`Fault::NodeDrain`] — graceful membership removal (the benign
//!   counterpart of a crash): the node stops taking tasks and replicas
//!   but its data stays readable, so nothing needs recovery at all.
//!
//! Partial faults (torn writes and flakes) are armed on the chain's
//! tracker, handed to specific reduce tasks when their wave is
//! assigned, and committed by the control thread at the wave boundary,
//! so a schedule replays identically on every executor backend.
//!
//! The [`RandomizedInjector`] turns these into seeded chaos schedules
//! for soak testing.

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rcmp_model::{JobId, NodeId};
use serde::{Deserialize, Serialize};

/// Where in a job's execution the injector is consulted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TriggerPoint {
    /// Right after JobInit, before the first map wave (the paper's
    /// "15 s after the start of some job" lands here or in the first
    /// map wave for our workloads).
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

/// Execution-progress event reported to the injector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProgressEvent {
    /// Global run sequence number (the paper's job numbering: every run,
    /// initial or recomputation, gets the next integer).
    pub seq: u64,
    /// The logical job being run.
    pub job: JobId,
    pub point: TriggerPoint,
}

/// A fault raised at a trigger point.
///
/// Each shape is detected and recovered by a different mechanism (see
/// DESIGN.md "Fault model"): kills by the loss-report → recomputation
/// path, corruption by checksum verification on read, torn writes by
/// the tracker's torn-partition re-enqueue, and flakes by bounded
/// shuffle retry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Kill the node outright: its DFS block replicas and persisted map
    /// outputs are gone immediately.
    NodeCrash(NodeId),
    /// Silently flip bits in one DFS block replica stored on the node.
    /// Namespace metadata (including the recorded checksum) is left
    /// untouched, so the damage surfaces on the next verified read.
    CorruptReplica { node: NodeId },
    /// Arm a torn write: the first reducer assigned to this node in the
    /// next reduce wave commits only a strict prefix of its chunks, and
    /// the node dies at the end of that wave. A reducer that fails
    /// before writing passes the arm on to the node's next reducer.
    TornWrite { node: NodeId },
    /// Arm transient shuffle failures: the next `times` shuffle attempts
    /// by this chain's reducers on this node fail retryably, handed out
    /// in wave input order, at most one attempt budget per task.
    ShuffleFlake { node: NodeId, times: u32 },
    /// Gracefully drain the node (Up → Draining): it stops receiving
    /// tasks and new replicas, but everything it stores stays readable.
    /// The tracker skips the drain when the node is not Up or when it is
    /// the last schedulable node, so a drain can never strand a chain.
    NodeDrain { node: NodeId },
}

impl Fault {
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

/// Decides which faults are raised at a given execution point.
pub trait FailureInjector: Send + Sync {
    /// Returns the nodes to kill at this point (usually empty).
    fn poll(&self, event: &ProgressEvent) -> Vec<NodeId>;

    /// Returns the faults to raise at this point. The default wraps
    /// [`FailureInjector::poll`], so plain node-kill injectors only
    /// implement that.
    fn poll_faults(&self, event: &ProgressEvent) -> Vec<Fault> {
        self.poll(event).into_iter().map(Fault::NodeCrash).collect()
    }

    /// Called by the driver once the chain completes. An injector whose
    /// script did not fully play out returns a description of what never
    /// fired, so mis-scripted scenarios fail loudly instead of silently
    /// testing nothing.
    fn finish(&self) -> std::result::Result<(), String> {
        Ok(())
    }
}

/// Injector that never fails anything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFailures;

impl FailureInjector for NoFailures {
    fn poll(&self, _event: &ProgressEvent) -> Vec<NodeId> {
        Vec::new()
    }
}

/// One scripted kill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Trigger {
    /// Fire during the run with this sequence number.
    pub seq: u64,
    pub point: TriggerPoint,
    pub node: NodeId,
}

/// One scripted non-kill fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultTrigger {
    /// Fire during the run with this sequence number.
    pub seq: u64,
    pub point: TriggerPoint,
    pub fault: Fault,
}

/// Raises scripted (seq, point) → fault. Each trigger fires at most
/// once.
///
/// By default [`ScriptedInjector::finish`] reports triggers that never
/// fired (e.g. `AfterMapWave(5)` of a 3-wave job) as an error, so a
/// mis-scripted scenario fails instead of silently testing nothing.
/// Scenarios that intentionally script possibly-unreachable points opt
/// out with [`ScriptedInjector::tolerate_unfired`].
#[derive(Debug, Default)]
pub struct ScriptedInjector {
    triggers: Mutex<Vec<Trigger>>,
    faults: Mutex<Vec<FaultTrigger>>,
    tolerate_unfired: bool,
}

impl ScriptedInjector {
    pub fn new(triggers: impl IntoIterator<Item = Trigger>) -> Self {
        Self {
            triggers: Mutex::new(triggers.into_iter().collect()),
            faults: Mutex::new(Vec::new()),
            tolerate_unfired: false,
        }
    }

    /// Convenience: kill `node` at `point` of run `seq`.
    pub fn single(seq: u64, point: TriggerPoint, node: NodeId) -> Self {
        Self::new([Trigger { seq, point, node }])
    }

    /// Convenience: raise one fault at `point` of run `seq`.
    pub fn single_fault(seq: u64, point: TriggerPoint, fault: Fault) -> Self {
        let inj = Self::default();
        inj.add_fault(FaultTrigger { seq, point, fault });
        inj
    }

    /// Adds another kill trigger (e.g. a second failure scheduled later).
    pub fn add(&self, trigger: Trigger) {
        self.triggers.lock().push(trigger);
    }

    /// Adds a non-kill fault trigger.
    pub fn add_fault(&self, trigger: FaultTrigger) {
        self.faults.lock().push(trigger);
    }

    /// Accept triggers that never fire: `finish()` succeeds even with
    /// leftovers. For scenarios that intentionally script points the
    /// run may never reach.
    pub fn tolerate_unfired(mut self) -> Self {
        self.tolerate_unfired = true;
        self
    }

    /// Kill triggers that have not fired yet.
    pub fn unfired(&self) -> Vec<Trigger> {
        self.triggers.lock().clone()
    }

    /// Fault triggers that have not fired yet.
    pub fn unfired_faults(&self) -> Vec<FaultTrigger> {
        self.faults.lock().clone()
    }
}

impl FailureInjector for ScriptedInjector {
    fn poll(&self, event: &ProgressEvent) -> Vec<NodeId> {
        let mut triggers = self.triggers.lock();
        let mut fired = Vec::new();
        triggers.retain(|t| {
            if t.seq == event.seq && t.point == event.point {
                fired.push(t.node);
                false
            } else {
                true
            }
        });
        fired
    }

    fn poll_faults(&self, event: &ProgressEvent) -> Vec<Fault> {
        let mut fired: Vec<Fault> = self.poll(event).into_iter().map(Fault::NodeCrash).collect();
        let mut faults = self.faults.lock();
        faults.retain(|t| {
            if t.seq == event.seq && t.point == event.point {
                fired.push(t.fault);
                false
            } else {
                true
            }
        });
        fired
    }

    fn finish(&self) -> std::result::Result<(), String> {
        if self.tolerate_unfired {
            return Ok(());
        }
        let kills = self.unfired();
        let faults = self.unfired_faults();
        if kills.is_empty() && faults.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "scripted triggers never fired (mis-scripted scenario?): kills {kills:?}, faults {faults:?}"
            ))
        }
    }
}

/// Seeded chaos injector: raises randomized faults with per-shape
/// budgets.
///
/// Every decision is a pure function of `(seed, event)` plus monotone
/// budget counters, so the same seed over the same execution produces
/// the same fault schedule — chaos runs are exactly replayable from
/// their seed. The kill budget exists so a schedule can never wipe out
/// the cluster; the chain then either converges to the golden output or
/// surfaces a typed recovery error.
pub struct RandomizedInjector {
    seed: u64,
    nodes: u32,
    kill_prob: f64,
    fault_prob: f64,
    max_kills: u32,
    max_other: u32,
    with_drains: bool,
    kills_used: Mutex<u32>,
    others_used: Mutex<u32>,
}

impl RandomizedInjector {
    /// A chaos injector over `nodes` nodes with default probabilities
    /// and budgets (at most 2 kills and 6 partial faults per chain).
    pub fn new(seed: u64, nodes: u32) -> Self {
        Self {
            seed,
            nodes,
            kill_prob: 0.04,
            fault_prob: 0.12,
            max_kills: 2,
            max_other: 6,
            with_drains: false,
            kills_used: Mutex::new(0),
            others_used: Mutex::new(0),
        }
    }

    /// Adds graceful node drains to the fault mix (a fourth non-kill
    /// shape). Opt-in so existing seeded schedules replay unchanged:
    /// without drains the shape draw keeps its historical 0..3 range.
    pub fn with_drains(mut self) -> Self {
        self.with_drains = true;
        self
    }

    /// Per-event probability of a node kill (budget permitting).
    /// Clamped to [0, 1]: an out-of-range value must not turn into a
    /// panic mid-chain.
    pub fn kill_probability(mut self, p: f64) -> Self {
        self.kill_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Per-event probability of a non-kill fault (budget permitting).
    /// Clamped to [0, 1] like [`Self::kill_probability`].
    pub fn fault_probability(mut self, p: f64) -> Self {
        self.fault_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Caps total node kills. Keep this below the replica count the
    /// chain input needs to survive, or schedules can make the input
    /// itself unrecoverable.
    pub fn max_kills(mut self, n: u32) -> Self {
        self.max_kills = n;
        self
    }

    /// Caps total corruption/torn-write/flake faults.
    pub fn max_other_faults(mut self, n: u32) -> Self {
        self.max_other = n;
        self
    }

    /// Faults raised so far as (kills, other).
    pub fn faults_raised(&self) -> (u32, u32) {
        (*self.kills_used.lock(), *self.others_used.lock())
    }

    /// Deterministic per-event RNG: independent of poll order across
    /// threads or runs, dependent only on the seed and the event.
    fn event_rng(&self, event: &ProgressEvent) -> SmallRng {
        let (tag, wave) = match event.point {
            TriggerPoint::JobStart => (0u64, 0u64),
            TriggerPoint::MidMapWave(w) => (1, w as u64),
            TriggerPoint::AfterMapWave(w) => (2, w as u64),
            TriggerPoint::MidReduceWave(w) => (3, w as u64),
            TriggerPoint::AfterReduceWave(w) => (4, w as u64),
        };
        let mut bytes = Vec::with_capacity(32);
        bytes.extend_from_slice(&self.seed.to_le_bytes());
        bytes.extend_from_slice(&event.seq.to_le_bytes());
        bytes.extend_from_slice(&u64::from(event.job.raw()).to_le_bytes());
        bytes.extend_from_slice(&tag.to_le_bytes());
        bytes.extend_from_slice(&wave.to_le_bytes());
        SmallRng::seed_from_u64(rcmp_model::hash::hash_bytes(&bytes))
    }
}

impl FailureInjector for RandomizedInjector {
    fn poll(&self, _event: &ProgressEvent) -> Vec<NodeId> {
        Vec::new()
    }

    fn poll_faults(&self, event: &ProgressEvent) -> Vec<Fault> {
        let mut rng = self.event_rng(event);
        // Fixed draw order keeps the schedule a function of the seed
        // alone; the budgets only gate whether a decided fault fires.
        let node = NodeId(rng.gen_range(0..self.nodes));
        let kill_roll = rng.gen_bool(self.kill_prob);
        let fault_roll = rng.gen_bool(self.fault_prob);
        let shapes = if self.with_drains { 4u32 } else { 3 };
        let shape = rng.gen_range(0..shapes);
        let times = rng.gen_range(1..4u32);
        if kill_roll {
            let mut used = self.kills_used.lock();
            if *used < self.max_kills {
                *used += 1;
                return vec![Fault::NodeCrash(node)];
            }
        }
        if fault_roll {
            let mut used = self.others_used.lock();
            if *used < self.max_other {
                *used += 1;
                let fault = match shape {
                    0 => Fault::CorruptReplica { node },
                    1 => Fault::TornWrite { node },
                    2 => Fault::ShuffleFlake { node, times },
                    _ => Fault::NodeDrain { node },
                };
                return vec![fault];
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, point: TriggerPoint) -> ProgressEvent {
        ProgressEvent {
            seq,
            job: JobId(1),
            point,
        }
    }

    #[test]
    fn no_failures_is_silent() {
        assert!(NoFailures.poll(&ev(1, TriggerPoint::JobStart)).is_empty());
        assert!(NoFailures
            .poll_faults(&ev(1, TriggerPoint::JobStart))
            .is_empty());
        assert!(NoFailures.finish().is_ok());
    }

    #[test]
    fn scripted_fires_once_at_exact_point() {
        let inj = ScriptedInjector::single(2, TriggerPoint::AfterMapWave(1), NodeId(3));
        assert!(inj.poll(&ev(1, TriggerPoint::AfterMapWave(1))).is_empty());
        assert!(inj.poll(&ev(2, TriggerPoint::AfterMapWave(0))).is_empty());
        assert_eq!(
            inj.poll(&ev(2, TriggerPoint::AfterMapWave(1))),
            vec![NodeId(3)]
        );
        assert!(inj.poll(&ev(2, TriggerPoint::AfterMapWave(1))).is_empty());
        assert!(inj.unfired().is_empty());
    }

    #[test]
    fn multiple_triggers_same_point() {
        let inj = ScriptedInjector::new([
            Trigger {
                seq: 1,
                point: TriggerPoint::JobStart,
                node: NodeId(0),
            },
            Trigger {
                seq: 1,
                point: TriggerPoint::JobStart,
                node: NodeId(1),
            },
        ]);
        let killed = inj.poll(&ev(1, TriggerPoint::JobStart));
        assert_eq!(killed, vec![NodeId(0), NodeId(1)]);
    }

    #[test]
    fn add_appends_trigger() {
        let inj = ScriptedInjector::default();
        inj.add(Trigger {
            seq: 4,
            point: TriggerPoint::AfterReduceWave(0),
            node: NodeId(2),
        });
        assert_eq!(inj.unfired().len(), 1);
        assert_eq!(
            inj.poll(&ev(4, TriggerPoint::AfterReduceWave(0))),
            vec![NodeId(2)]
        );
    }

    #[test]
    fn fault_triggers_fire_once_alongside_kills() {
        let inj = ScriptedInjector::single(1, TriggerPoint::JobStart, NodeId(0));
        inj.add_fault(FaultTrigger {
            seq: 1,
            point: TriggerPoint::JobStart,
            fault: Fault::CorruptReplica { node: NodeId(2) },
        });
        let fired = inj.poll_faults(&ev(1, TriggerPoint::JobStart));
        assert_eq!(
            fired,
            vec![
                Fault::NodeCrash(NodeId(0)),
                Fault::CorruptReplica { node: NodeId(2) }
            ]
        );
        assert!(inj.poll_faults(&ev(1, TriggerPoint::JobStart)).is_empty());
        assert!(inj.finish().is_ok());
    }

    #[test]
    fn finish_reports_unfired_by_default_and_tolerates_on_request() {
        let strict = ScriptedInjector::single(9, TriggerPoint::AfterMapWave(7), NodeId(0));
        let err = strict.finish().unwrap_err();
        assert!(err.contains("never fired"), "got: {err}");

        let tolerant = ScriptedInjector::single(9, TriggerPoint::AfterMapWave(7), NodeId(0))
            .tolerate_unfired();
        assert!(tolerant.finish().is_ok());
    }

    #[test]
    fn randomized_same_seed_same_schedule() {
        let events: Vec<ProgressEvent> = (1..=20u64)
            .flat_map(|seq| {
                [
                    ev(seq, TriggerPoint::JobStart),
                    ev(seq, TriggerPoint::MidMapWave(0)),
                    ev(seq, TriggerPoint::AfterMapWave(0)),
                    ev(seq, TriggerPoint::MidReduceWave(1)),
                    ev(seq, TriggerPoint::AfterReduceWave(1)),
                ]
            })
            .collect();
        let a = RandomizedInjector::new(42, 5)
            .kill_probability(0.2)
            .fault_probability(0.5);
        let b = RandomizedInjector::new(42, 5)
            .kill_probability(0.2)
            .fault_probability(0.5);
        let sched_a: Vec<Vec<Fault>> = events.iter().map(|e| a.poll_faults(e)).collect();
        let sched_b: Vec<Vec<Fault>> = events.iter().map(|e| b.poll_faults(e)).collect();
        assert_eq!(sched_a, sched_b, "same seed must replay identically");
        assert!(
            sched_a.iter().any(|f| !f.is_empty()),
            "schedule at these probabilities must contain faults"
        );

        let c = RandomizedInjector::new(43, 5)
            .kill_probability(0.2)
            .fault_probability(0.5);
        let sched_c: Vec<Vec<Fault>> = events.iter().map(|e| c.poll_faults(e)).collect();
        assert_ne!(sched_a, sched_c, "different seeds diverge");
    }

    #[test]
    fn drains_are_opt_in() {
        let events: Vec<ProgressEvent> = (1..=50u64)
            .flat_map(|seq| {
                [
                    ev(seq, TriggerPoint::JobStart),
                    ev(seq, TriggerPoint::MidMapWave(0)),
                ]
            })
            .collect();
        let plain = RandomizedInjector::new(11, 5)
            .fault_probability(1.0)
            .max_other_faults(100);
        let drains = RandomizedInjector::new(11, 5)
            .fault_probability(1.0)
            .max_other_faults(100)
            .with_drains();
        let is_drain = |f: &Fault| matches!(f, Fault::NodeDrain { .. });
        let plain_sched: Vec<Fault> = events.iter().flat_map(|e| plain.poll_faults(e)).collect();
        let drain_sched: Vec<Fault> = events.iter().flat_map(|e| drains.poll_faults(e)).collect();
        assert!(
            !plain_sched.iter().any(is_drain),
            "default shape range excludes drains"
        );
        assert!(
            drain_sched.iter().any(is_drain),
            "opt-in injector mixes in drains"
        );
    }

    #[test]
    fn randomized_respects_budgets() {
        let inj = RandomizedInjector::new(7, 4)
            .kill_probability(1.0)
            .fault_probability(1.0)
            .max_kills(2)
            .max_other_faults(3);
        for seq in 1..100u64 {
            inj.poll_faults(&ev(seq, TriggerPoint::JobStart));
            inj.poll_faults(&ev(seq, TriggerPoint::AfterMapWave(0)));
        }
        let (kills, others) = inj.faults_raised();
        assert_eq!(kills, 2);
        assert_eq!(others, 3);
        assert!(inj.finish().is_ok(), "nothing scripted, nothing unfired");
    }
}
