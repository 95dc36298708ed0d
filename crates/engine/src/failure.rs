//! Failure injection.
//!
//! The fault script itself — [`FailureAt`], [`TriggerPoint`], [`Fault`]
//! — lives in `rcmp-policy`, because the simulator replays the same
//! entries; this module holds the engine's side of it, the injectors
//! the tracker consults.
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
//! so a schedule replays identically at every worker-pool size.
//!
//! The [`RandomizedInjector`] turns these into seeded chaos schedules
//! for soak testing.

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rcmp_model::{JobId, NodeId};
pub use rcmp_policy::{FailureAt, Fault, TriggerPoint};

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

/// Decides which faults are raised at a given execution point.
pub trait FailureInjector: Send + Sync {
    /// Returns the faults to raise at this point (usually none).
    fn poll_faults(&self, event: &ProgressEvent) -> Vec<Fault>;

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
    fn poll_faults(&self, _event: &ProgressEvent) -> Vec<Fault> {
        Vec::new()
    }
}

/// Replays a fault script: each [`FailureAt`] fires once, at its
/// `(seq, point)`, in script order among the entries sharing that
/// point.
///
/// By default [`ScriptedInjector::finish`] reports entries that never
/// fired (e.g. `AfterMapWave(5)` of a 3-wave job) as an error, so a
/// mis-scripted scenario fails instead of silently testing nothing.
/// Scenarios that intentionally script possibly-unreachable points opt
/// out with [`ScriptedInjector::tolerate_unfired`].
#[derive(Debug, Default)]
pub struct ScriptedInjector {
    script: Mutex<Vec<FailureAt>>,
    tolerate_unfired: bool,
}

impl ScriptedInjector {
    pub fn new(script: impl IntoIterator<Item = FailureAt>) -> Self {
        Self {
            script: Mutex::new(script.into_iter().collect()),
            tolerate_unfired: false,
        }
    }

    /// Convenience: kill `node` at `point` of run `seq`.
    pub fn single(seq: u64, point: TriggerPoint, node: NodeId) -> Self {
        Self::single_fault(seq, point, Fault::NodeCrash(node))
    }

    /// Convenience: raise one fault at `point` of run `seq`.
    pub fn single_fault(seq: u64, point: TriggerPoint, fault: Fault) -> Self {
        Self::new([FailureAt { seq, point, fault }])
    }

    /// Appends another entry (e.g. a second failure scheduled later).
    pub fn add(&self, entry: FailureAt) {
        self.script.lock().push(entry);
    }

    /// Accept entries that never fire: `finish()` succeeds even with
    /// leftovers. For scenarios that intentionally script points the
    /// run may never reach.
    pub fn tolerate_unfired(mut self) -> Self {
        self.tolerate_unfired = true;
        self
    }

    /// Entries that have not fired yet.
    pub fn unfired(&self) -> Vec<FailureAt> {
        self.script.lock().clone()
    }
}

impl FailureInjector for ScriptedInjector {
    fn poll_faults(&self, event: &ProgressEvent) -> Vec<Fault> {
        let mut fired = Vec::new();
        self.script.lock().retain(|f| {
            let due = f.seq == event.seq && f.point == event.point;
            if due {
                fired.push(f.fault);
            }
            !due
        });
        fired
    }

    fn finish(&self) -> std::result::Result<(), String> {
        let unfired = self.unfired();
        if self.tolerate_unfired || unfired.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "scripted faults never fired (mis-scripted scenario?): {unfired:?}"
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

    fn crash(seq: u64, point: TriggerPoint, node: u32) -> FailureAt {
        let fault = Fault::NodeCrash(NodeId(node));
        FailureAt { seq, point, fault }
    }

    #[test]
    fn no_failures_is_silent() {
        assert!(NoFailures
            .poll_faults(&ev(1, TriggerPoint::JobStart))
            .is_empty());
        assert!(NoFailures.finish().is_ok());
    }

    #[test]
    fn scripted_fires_once_at_exact_point() {
        let inj = ScriptedInjector::single(2, TriggerPoint::AfterMapWave(1), NodeId(3));
        let at = |seq, w| inj.poll_faults(&ev(seq, TriggerPoint::AfterMapWave(w)));
        assert!(at(1, 1).is_empty());
        assert!(at(2, 0).is_empty());
        assert_eq!(at(2, 1), vec![Fault::NodeCrash(NodeId(3))]);
        assert!(at(2, 1).is_empty());
        assert!(inj.unfired().is_empty());
    }

    #[test]
    fn multiple_triggers_same_point() {
        let inj = ScriptedInjector::new([
            crash(1, TriggerPoint::JobStart, 0),
            crash(1, TriggerPoint::JobStart, 1),
        ]);
        let killed = inj.poll_faults(&ev(1, TriggerPoint::JobStart));
        assert_eq!(
            killed,
            vec![Fault::NodeCrash(NodeId(0)), Fault::NodeCrash(NodeId(1))]
        );
    }

    #[test]
    fn add_appends_trigger() {
        let inj = ScriptedInjector::default();
        inj.add(crash(4, TriggerPoint::AfterReduceWave(0), 2));
        assert_eq!(inj.unfired().len(), 1);
        assert_eq!(
            inj.poll_faults(&ev(4, TriggerPoint::AfterReduceWave(0))),
            vec![Fault::NodeCrash(NodeId(2))]
        );
    }

    /// Entries sharing a point fire in script order, whatever their
    /// shape.
    #[test]
    fn fault_triggers_fire_once_alongside_kills() {
        let inj = ScriptedInjector::single_fault(
            1,
            TriggerPoint::JobStart,
            Fault::CorruptReplica { node: NodeId(2) },
        );
        inj.add(crash(1, TriggerPoint::JobStart, 0));
        let fired = inj.poll_faults(&ev(1, TriggerPoint::JobStart));
        assert_eq!(
            fired,
            vec![
                Fault::CorruptReplica { node: NodeId(2) },
                Fault::NodeCrash(NodeId(0)),
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
