//! The chain control loop — the paper's middleware program (§IV-A,
//! §IV-C) — written once.
//!
//! RCMP's contribution is a control program: submit the chain's jobs in
//! order; when a job loses its input irreversibly, cancel it, walk the
//! lineage backwards to the *minimum* recomputation plan (Fig. 1), run
//! that plan, replan if a new failure lands during recovery, resume the
//! cancelled job; and, in hybrid mode, replicate an output every so
//! often so cascades stop there. This module holds that program as
//! three pieces, none of which touches bytes, threads or a clock:
//!
//! * [`plan_cascade`] — the backward lineage walk over a
//!   [`LineageView`];
//! * the replication cadence (static modulus, or the closed-loop
//!   [`AdaptivePolicy`]), one private decision taken after every
//!   completed chain job;
//! * [`drive_chain`] — the loop itself, generic over a [`ChainBackend`]
//!   that performs the effects. `rcmp-core`'s `ChainDriver` is the
//!   engine backend (real job runs, real sleeps, profiler, tracer);
//!   `rcmp-sim`'s `chainsim` is the simulator backend (modelled job
//!   runs, scripted failures, simulated seconds).
//!
//! The loop alone writes the chain's [`EventLog`], stamping each
//! [`ChainEvent`] with [`ChainBackend::now`], and the chain's spans on
//! [`ChainBackend::tracer`]: a `RecoveryPlan` per plan, an `Event`
//! instant per other logged event ([`ChainEvent::span_kind`]), and an
//! `AdaptationPoint` per closed-loop decision. Causes travel as values:
//! a plan is caused by the latest `Loss` the chain has seen, a
//! recomputation run by the plan that submitted it, an adaptation point
//! by the latest loss since the previous point. DESIGN.md §3.6
//! tabulates the loop's states, the backend calls and the events each
//! transition logs.
//!
//! Every cycle is bounded by [`ChainConfig::max_attempts`] and ends in
//! `Ok` or a typed [`Error`]: `RecoveryExhausted` (too many restarts,
//! a job that keeps losing its input, recovery that keeps being
//! interrupted), `DataLoss` (the walk, or a restart, reached a lost
//! external input), or whatever a backend run returns (`NoLiveNodes`,
//! …).

use crate::adapt::{AdaptationStep, AdaptivePolicy, FaultObserver};
use crate::mitigation::{choose_mitigation, HotspotMitigation, SplitPolicy};
use crate::plan::{InputView, RecomputePlan};
use crate::strategy::Strategy;
use rcmp_model::rng::derive_indexed;
use rcmp_model::{Error, JobId, NodeId, Result, RetryPolicy};
use rcmp_obs::{SpanId, SpanKind, Tracer};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// One recomputation submission: run `job` with the given instructions.
/// The instructions carry the whole decision, including the
/// `SpreadOutput` hot-spot mitigation (`instructions.spread_output`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveryStep {
    /// The job to re-run partially.
    pub job: JobId,
    /// Which of its reducer partitions to regenerate, and how.
    pub instructions: RecomputePlan,
}

/// An ordered recovery plan (dependencies first). Executing every step
/// in order makes the cancelled job's input readable again.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryPlan {
    /// The recomputation runs, deepest producer first.
    pub steps: Vec<RecoveryStep>,
}

impl RecoveryPlan {
    /// True when nothing needs recomputing.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Total partitions regenerated across all steps.
    pub fn partition_count(&self) -> usize {
        self.steps
            .iter()
            .map(|s| s.instructions.partitions.len())
            .sum()
    }
}

/// What the planner reads of a backend's *current* state: the job
/// lineage and a snapshot of each job's input — which blocks are
/// readable, and which persisted map outputs still match them.
/// Reading current state is what lets the plan merge the damage of any
/// number of loss events (§IV-A).
pub trait LineageView {
    /// The job that produces `job`'s input; `None` when that input is
    /// external to the chain.
    fn producer(&self, job: JobId) -> Option<JobId>;

    /// `job`'s input as its JobInit would see it now, the same snapshot
    /// [`job_init`] decides over; [`Error::FileNotFound`] when the input
    /// file does not exist.
    ///
    /// [`job_init`]: crate::job_init
    fn input(&self, job: JobId) -> Result<InputView>;

    /// Nodes that can take recomputation work — schedulable ones, so a
    /// draining node does not count — which sizes
    /// [`SplitPolicy::Survivors`].
    fn survivors(&self) -> usize;

    /// Name of `job`'s input, for the [`Error::DataLoss`] raised when it
    /// is external and lost.
    fn input_path(&self, job: JobId) -> String;
}

/// Plans recovery so that `target` (the cancelled job) can restart.
///
/// The cancelled job restarts in full, so every lost partition of its
/// input must be regenerated by the producing job. A recomputation run
/// of the producer shuffles from **all** of that job's mappers; those
/// without a valid persisted output must re-run, and *their* input
/// partitions — if lost — must be regenerated one job deeper; and so
/// on, possibly back to the (replicated) external input.
///
/// The plan is **minimal**: a lost partition is regenerated only if
/// some re-running task reads it. Lost partitions of already-consumed
/// outputs that no re-running mapper touches are abandoned. Reducer
/// splitting and spread-output are applied to every step through
/// [`choose_mitigation`]; the mappers a split regeneration invalidates
/// (Fig. 5) re-read partitions the plan already regenerates, so they
/// need no extra planning.
///
/// `reclaimed` holds the jobs whose outputs a replication point deleted
/// (§IV-C). A step whose input is one of them cannot run: reaching it
/// is as irreversible as reaching a lost external input, and fails the
/// same way, with [`Error::DataLoss`] naming that input.
pub fn plan_cascade<V: LineageView + ?Sized>(
    view: &V,
    target: JobId,
    split: SplitPolicy,
    hotspot: HotspotMitigation,
    reclaimed: &BTreeSet<JobId>,
) -> Result<RecoveryPlan> {
    let mitigation = choose_mitigation(split, hotspot, view.survivors());
    let mut steps = Vec::new();
    let mut consumer = target;
    // A missing input file needs nothing: never created, or reclaimed,
    // which the walk checks on its own below.
    let mut need = match view.input(target) {
        Ok(input) => input.lost(),
        Err(Error::FileNotFound(_)) => BTreeSet::new(),
        Err(e) => return Err(e),
    };
    while !need.is_empty() {
        let Some(producer) = view.producer(consumer) else {
            // External input with irreversible loss: unrecoverable by
            // recomputation (the paper replicates external inputs).
            return Err(Error::DataLoss {
                path: view.input_path(consumer),
                partition: need.first().copied(),
            });
        };
        if view
            .producer(producer)
            .is_some_and(|p| reclaimed.contains(&p))
        {
            return Err(Error::DataLoss {
                path: view.input_path(producer),
                partition: None,
            });
        }
        let input = view.input(producer)?;
        let mut instructions = RecomputePlan::new(need, mitigation.split);
        instructions.spread_output = mitigation.spread_output;
        steps.push(RecoveryStep {
            job: producer,
            instructions,
        });
        // One job deeper: partitions the re-running mappers read that
        // are lost must themselves be regenerated.
        need = input.rerun().intersection(&input.lost()).copied().collect();
        consumer = producer;
    }
    steps.reverse();
    Ok(RecoveryPlan { steps })
}

/// Which clock a chain's stamps are read from: wall-clock and simulated
/// time are different units and never share an unlabelled column.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Clock {
    /// Wall-clock microseconds since the chain started (the engine).
    #[default]
    WallMicros,
    /// Simulated seconds since the chain started (the simulator).
    SimSeconds,
}

/// A reading of a backend's clock: the number travels with its unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stamp {
    /// The clock that was read.
    pub clock: Clock,
    /// The reading, in `clock`'s unit.
    pub at: f64,
}

/// One node failure a backend observed during a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Loss {
    /// The failed node, when the backend can name it.
    pub node: Option<NodeId>,
    /// Partitions the failure left irreversibly lost.
    pub lost_partitions: usize,
    /// When the fault struck.
    pub fault: Stamp,
    /// When the node was declared dead (the simulator: `detect_timeout`
    /// later; the engine detects a crash synchronously).
    pub detected: Stamp,
}

/// Tasks a completed run executed and reused.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskCounts {
    /// Mappers executed.
    pub map_tasks_run: usize,
    /// Mappers whose persisted output was reused.
    pub map_tasks_reused: usize,
    /// Reduce tasks executed (splits count individually).
    pub reduce_tasks_run: usize,
}

/// How one job run ended, with what only the backend can know about it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunOutcome {
    /// One record per node that failed during the run.
    pub losses: Vec<Loss>,
    /// What the run executed if it finished; `None` if it was cancelled
    /// because its input is irreversibly lost.
    pub completed: Option<TaskCounts>,
    /// The latest `Loss` span the run wrote (`JobTally::last_loss`).
    ///
    /// [`JobTally::last_loss`]: crate::JobTally::last_loss
    pub last_loss: Option<SpanId>,
}

impl RunOutcome {
    /// A run cancelled because its input is irreversibly lost.
    pub fn cancelled(losses: Vec<Loss>) -> Self {
        Self {
            losses,
            ..Self::default()
        }
    }
}

/// What reclamation behind a replication point freed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Reclaimed {
    /// Intermediate files deleted.
    pub files_deleted: usize,
    /// Persisted map outputs dropped.
    pub map_entries_dropped: usize,
}

/// The effects [`drive_chain`] needs performed. Each backend decides
/// what a run, a wait or a replication point *is*; the loop decides
/// when each happens, and logs it.
pub trait ChainBackend {
    /// The state the planner walks.
    type Lineage: LineageView;

    /// The backend's current lineage state.
    fn lineage(&self) -> &Self::Lineage;

    /// Reads the backend's clock; every logged event is stamped with it.
    fn now(&self) -> Stamp;

    /// The tracer on the backend's clock the chain's spans go to.
    fn tracer(&self) -> &Tracer;

    /// Runs chain job `job` as run number `seq`. `retry` is set when
    /// this is the re-run of a job whose input recovery just restored.
    fn run_job(&mut self, seq: u64, job: JobId, retry: bool) -> Result<RunOutcome>;

    /// Runs one step of a recovery plan as run number `seq`; `plan` is
    /// the plan's span, the cause of the run's `JobRun` span.
    fn run_recompute(&mut self, seq: u64, step: RecoveryStep, plan: SpanId) -> Result<RunOutcome>;

    /// Backs off for `ms` (> 0) milliseconds before another recovery
    /// cycle of the same job.
    fn wait(&mut self, ms: u64);

    /// Whole-chain restart (OPTIMISTIC, exhausted replication): drop
    /// every output the chain produced; it starts over from its input.
    fn restart(&mut self) -> Result<()>;

    /// Brackets the lineage walk, for a backend that accounts planning
    /// time or records the plan.
    fn planning(
        &mut self,
        walk: impl FnOnce(&Self::Lineage) -> Result<RecoveryPlan>,
    ) -> Result<RecoveryPlan> {
        walk(self.lineage())
    }

    /// A replication point is due after `job`: raise its output to
    /// `factor` replicas and, if `reclaim`, free the recovery state the
    /// point makes obsolete (§IV-C) and say what that freed.
    fn replicate(&mut self, job: JobId, factor: u32, reclaim: bool) -> Result<Reclaimed>;

    /// The closed-loop policy took a decision after run `seq`.
    fn adapted(&mut self, _seq: u64, _step: &AdaptationStep) {}
}

/// Everything the middleware does while driving a multi-job chain. In
/// every variant `seq` is the run number (the paper's job numbering)
/// and `job` the chain job that run executed.
#[allow(missing_docs)] // fields: see the variant docs
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChainEvent {
    /// A job run was submitted; `recompute` marks a recovery step.
    JobStarted {
        seq: u64,
        job: JobId,
        recompute: bool,
    },
    /// Run `seq` finished and its output is written, having executed
    /// and reused the given tasks.
    JobCompleted {
        seq: u64,
        job: JobId,
        map_tasks_run: usize,
        map_tasks_reused: usize,
        reduce_tasks_run: usize,
    },
    /// A node death caused irreversible loss during run `seq`.
    LossObserved {
        seq: u64,
        node: Option<NodeId>,
        lost_partitions: usize,
    },
    /// The running job could not continue; recovery begins.
    JobCancelled { seq: u64, job: JobId },
    /// A recovery plan for the cancelled `target` was computed.
    RecoveryPlanned {
        target: JobId,
        steps: usize,
        partitions: usize,
    },
    /// Hybrid mode replicated a job's output (§IV-C).
    ReplicationPoint { job: JobId, factor: u32 },
    /// Storage reclaimed behind a replication point.
    StorageReclaimed {
        files_deleted: usize,
        map_entries_dropped: usize,
    },
    /// OPTIMISTIC (or exhausted replication) restarted the whole chain.
    ChainRestarted,
}

impl ChainEvent {
    /// The span [`drive_chain`] writes for this event: a
    /// `RecoveryPlan` for a plan, else an `Event` instant carrying the
    /// run number (0 for events without one) and a compact label.
    pub fn span_kind(&self) -> SpanKind {
        let (seq, label) = match *self {
            ChainEvent::RecoveryPlanned {
                target,
                steps,
                partitions,
            } => {
                return SpanKind::RecoveryPlan {
                    target,
                    steps: steps as u32,
                    partitions: partitions as u32,
                }
            }
            ChainEvent::JobStarted {
                seq,
                job,
                recompute,
            } => {
                let tag = if recompute { " recompute" } else { "" };
                (seq, format!("job_started {job}{tag}"))
            }
            ChainEvent::JobCompleted { seq, job, .. } => (seq, format!("job_completed {job}")),
            ChainEvent::LossObserved {
                seq,
                lost_partitions,
                ..
            } => (seq, format!("loss_observed {lost_partitions} partitions")),
            ChainEvent::JobCancelled { seq, job } => (seq, format!("job_cancelled {job}")),
            ChainEvent::ReplicationPoint { job, factor } => {
                (0, format!("replication_point {job} x{factor}"))
            }
            ChainEvent::StorageReclaimed { files_deleted, .. } => {
                (0, format!("storage_reclaimed {files_deleted} files"))
            }
            ChainEvent::ChainRestarted => (0, "chain_restarted".to_string()),
        };
        SpanKind::Event { seq, label }
    }
}

/// The record of one chain, written by [`drive_chain`] alone: every
/// event in order, stamped on the backend's [`Clock`]. Equality ignores
/// the clock and the stamps.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct EventLog {
    clock: Clock,
    events: Vec<ChainEvent>,
    /// `(fault, at)` per event: when it was logged (a loss: when it was
    /// detected) and, for a `LossObserved`, when its fault struck —
    /// `at` for every other event.
    stamps: Vec<(f64, f64)>,
}

/// How long recovering from one loss took, in its log's clock unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RecoveryTimes {
    /// The run during which the loss was observed.
    pub seq: u64,
    /// Fault → detected.
    pub detect: f64,
    /// Detected → the first recovery plan after it.
    pub plan: f64,
    /// That plan → the last step of the converged plan finished (the
    /// converged plan itself when it had no steps).
    pub recompute: f64,
    /// Recomputed → the cancelled job started again.
    pub resume: f64,
}

impl RecoveryTimes {
    /// Fault → resumed: the loss's time to recovery.
    pub fn total(&self) -> f64 {
        self.detect + self.plan + self.recompute + self.resume
    }
}

impl EventLog {
    /// An empty log stamped on `clock`.
    pub fn new(clock: Clock) -> Self {
        Self {
            clock,
            ..Self::default()
        }
    }

    /// The clock every stamp in the log was read from.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Appends `event`, which happened at `at`.
    pub fn push(&mut self, at: f64, event: ChainEvent) {
        self.push_loss(at, at, event);
    }

    /// Appends a `LossObserved` whose fault struck at `fault` and was
    /// detected at `detected`.
    pub fn push_loss(&mut self, fault: f64, detected: f64, event: ChainEvent) {
        self.events.push(event);
        self.stamps.push((fault, detected));
    }

    /// The events, in order.
    pub fn iter(&self) -> impl Iterator<Item = &ChainEvent> {
        self.events.iter()
    }

    /// The events with their stamps: `(fault, at, event)`, where `at` is
    /// when the event was logged (a loss: when it was detected) and
    /// `fault` is when a loss's fault struck (`at` otherwise).
    pub fn stamped(&self) -> impl Iterator<Item = (f64, f64, &ChainEvent)> {
        let stamps = self.stamps.iter();
        stamps.zip(&self.events).map(|(&(f, at), e)| (f, at, e))
    }

    fn count(&self, is: impl Fn(&ChainEvent) -> bool) -> usize {
        self.iter().filter(|e| is(e)).count()
    }

    /// Number of recomputation runs submitted.
    pub fn recompute_runs(&self) -> usize {
        self.count(|e| {
            matches!(
                e,
                ChainEvent::JobStarted {
                    recompute: true,
                    ..
                }
            )
        })
    }

    /// Number of chain restarts.
    pub fn restarts(&self) -> usize {
        self.count(|e| matches!(e, ChainEvent::ChainRestarted))
    }

    /// Number of loss events observed.
    pub fn losses(&self) -> usize {
        self.count(|e| matches!(e, ChainEvent::LossObserved { .. }))
    }

    /// Every event that names `job` — starts, completions, cancellations
    /// and recovery plans targeting it.
    pub fn events_for_job(&self, job: JobId) -> impl Iterator<Item = &ChainEvent> {
        self.iter().filter(move |e| match e {
            ChainEvent::JobStarted { job: j, .. }
            | ChainEvent::JobCompleted { job: j, .. }
            | ChainEvent::JobCancelled { job: j, .. }
            | ChainEvent::RecoveryPlanned { target: j, .. }
            | ChainEvent::ReplicationPoint { job: j, .. } => *j == job,
            _ => false,
        })
    }

    /// Recovery plans in order: `(target, steps, partitions)`.
    pub fn recoveries(&self) -> impl Iterator<Item = (JobId, usize, usize)> + '_ {
        self.iter().filter_map(|e| match *e {
            ChainEvent::RecoveryPlanned {
                target,
                steps,
                partitions,
            } => Some((target, steps, partitions)),
            _ => None,
        })
    }

    /// The highest run sequence number any event carries — i.e. how many
    /// job runs the chain started (the paper's job numbering).
    pub fn last_seq(&self) -> Option<u64> {
        self.iter()
            .filter_map(|e| match *e {
                ChainEvent::JobStarted { seq, .. }
                | ChainEvent::JobCompleted { seq, .. }
                | ChainEvent::LossObserved { seq, .. }
                | ChainEvent::JobCancelled { seq, .. } => Some(seq),
                _ => None,
            })
            .max()
    }

    /// Recovery time per loss (MTTR's legs), derived from the stamps in
    /// one pass. A loss is answered by the next plan; the plan's target
    /// starting again ends the recovery, whose recompute leg ends with
    /// the last run completed since the latest (converged) plan. A loss
    /// no plan answers before a restart or the log's end has no entry.
    pub fn recovery_times(&self) -> Vec<RecoveryTimes> {
        let (mut unplanned, mut planned, mut times) = (Vec::new(), Vec::new(), Vec::new());
        let (mut target, mut recomputed) = (None, 0.0);
        for (&(fault, at), e) in self.stamps.iter().zip(&self.events) {
            match *e {
                ChainEvent::LossObserved { seq, .. } => unplanned.push((seq, fault, at)),
                ChainEvent::ChainRestarted => unplanned.clear(),
                ChainEvent::RecoveryPlanned { target: t, .. } => {
                    planned.extend(unplanned.drain(..).map(|loss| (loss, at)));
                    (target, recomputed) = (Some(t), at);
                }
                ChainEvent::JobCompleted { .. } => recomputed = at,
                ChainEvent::JobStarted { job, .. } if Some(job) == target => {
                    times.extend(planned.drain(..).map(|((seq, fault, detected), plan)| {
                        RecoveryTimes {
                            seq,
                            detect: detected - fault,
                            plan: plan - detected,
                            recompute: recomputed - plan,
                            resume: at - recomputed,
                        }
                    }));
                    target = None;
                }
                _ => {}
            }
        }
        times
    }
}

impl PartialEq for EventLog {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
    }
}

/// What [`drive_chain`] needs to know about one chain.
#[derive(Clone, Copy, Debug)]
pub struct ChainConfig<'a> {
    /// The failure-resilience strategy the chain runs under.
    pub strategy: Strategy,
    /// The chain's jobs in submission order (dependencies first).
    pub order: &'a [JobId],
    /// Bound on chain passes, on recovery cycles of one job per pass
    /// and on replans of one recovery.
    pub max_attempts: u32,
    /// Schedule of the seeded full-jitter backoff between recovery
    /// cycles of the same job.
    pub retry: RetryPolicy,
    /// Seed the backoff jitter derives from.
    pub seed: u64,
}

/// What a completed chain cost, in the paper's units.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChainSummary {
    /// Total job runs started — the paper's job numbering (§V-A: a
    /// 7-job chain with a late failure starts 14 jobs).
    pub jobs_started: u64,
    /// The closed-loop policy's decision after each completed chain job
    /// (empty unless the strategy is [`Strategy::AdaptiveHybrid`]).
    pub adaptation: Vec<AdaptationStep>,
    /// Everything the loop did, in order, on the backend's clock.
    pub events: EventLog,
}

/// Hybrid replication points: static modulus (§IV-C) or the
/// closed-loop adaptive policy (§IV-C future work). The closed loop
/// survives chain restarts so its failure-intensity estimate keeps
/// everything observed.
struct Cadence {
    strategy: Strategy,
    adaptive: Option<AdaptivePolicy>,
}

impl Cadence {
    fn new(strategy: Strategy) -> Self {
        Self {
            strategy,
            adaptive: match strategy {
                Strategy::AdaptiveHybrid { adapt, .. } => Some(AdaptivePolicy::new(adapt)),
                _ => None,
            },
        }
    }

    fn record_faults(&mut self, faults: usize) {
        if let Some(policy) = self.adaptive.as_mut() {
            policy.record_fault(faults as u32);
        }
    }

    /// The chain job at 1-based `position` completed: the `(factor,
    /// reclaim)` of the replication point now due, and the closed
    /// loop's decision if it took one.
    fn job_completed(&mut self, position: u32) -> (Option<(u32, bool)>, Option<AdaptationStep>) {
        let mut adapted = None;
        let due = match (self.strategy, self.adaptive.as_mut()) {
            (Strategy::Hybrid { every_k, .. }, _) => {
                every_k != 0 && position.is_multiple_of(every_k)
            }
            (Strategy::AdaptiveHybrid { .. }, Some(policy)) => {
                let due = policy.job_completed();
                adapted = policy.trajectory().last().copied();
                due
            }
            _ => false,
        };
        if !due {
            return (None, adapted);
        }
        (self.strategy.replication_point(), adapted)
    }

    fn into_trajectory(self) -> Vec<AdaptationStep> {
        self.adaptive
            .map(|policy| policy.trajectory().to_vec())
            .unwrap_or_default()
    }
}

/// One chain being driven: the backend, the loop's counters, and the
/// log and spans only the loop writes. Every event is stamped with the
/// backend's clock, appended to the log and written as a span.
struct Chain<'a, B> {
    backend: &'a mut B,
    cfg: &'a ChainConfig<'a>,
    cadence: Cadence,
    seq: u64,
    log: EventLog,
    /// Jobs whose outputs a replication point deleted since the chain
    /// last (re)started.
    reclaimed: BTreeSet<JobId>,
    /// The latest `Loss` span the chain has seen: a plan's cause.
    last_loss: Option<SpanId>,
    /// The latest `Loss` span since the previous adaptation point.
    loss_since_point: Option<SpanId>,
}

/// Runs the chain to completion on `backend`.
pub fn drive_chain<B: ChainBackend>(
    backend: &mut B,
    cfg: &ChainConfig<'_>,
) -> Result<ChainSummary> {
    let log = EventLog::new(backend.now().clock);
    let cadence = Cadence::new(cfg.strategy);
    let mut chain = Chain {
        backend,
        cfg,
        cadence,
        seq: 0,
        log,
        reclaimed: BTreeSet::new(),
        last_loss: None,
        loss_since_point: None,
    };
    chain.drive()?;
    Ok(ChainSummary {
        jobs_started: chain.seq,
        adaptation: chain.cadence.into_trajectory(),
        events: chain.log,
    })
}

impl<B: ChainBackend> Chain<'_, B> {
    /// The backend's clock and its tracer's, read now.
    fn now(&self) -> (f64, u64) {
        (self.backend.now().at, self.backend.tracer().now_us())
    }

    fn emit(&mut self, event: ChainEvent) -> SpanId {
        let now = self.now();
        self.emit_at(now, event)
    }

    /// Logs `event` stamped `at`, with its span at tracer time `us`.
    fn emit_at(&mut self, (at, us): (f64, u64), event: ChainEvent) -> SpanId {
        let span = self.span(us, &event);
        self.log.push(at, event);
        span
    }

    /// Writes `event`'s span at tracer time `us`; a plan's is caused by
    /// the latest loss the chain has seen.
    fn span(&self, us: u64, event: &ChainEvent) -> SpanId {
        let cause = match event {
            ChainEvent::RecoveryPlanned { .. } => self.last_loss,
            _ => None,
        };
        let tracer = self.backend.tracer();
        tracer.record(event.span_kind(), None, cause, None, us, us)
    }

    /// Submits the next run — chain job `job`, or recovery `step` of it
    /// with its plan's span — and logs its start (its span stamped at
    /// the run's start), one `LossObserved` per failed node, then its
    /// completion or cancellation. Its faults feed the cadence.
    fn run(
        &mut self,
        job: JobId,
        retry: bool,
        step: Option<(RecoveryStep, SpanId)>,
    ) -> Result<RunOutcome> {
        self.seq += 1;
        let (seq, started, recompute) = (self.seq, self.now(), step.is_some());
        let run = match step {
            Some((step, plan)) => self.backend.run_recompute(seq, step, plan)?,
            None => self.backend.run_job(seq, job, retry)?,
        };
        if let Some(loss) = run.last_loss {
            self.last_loss = Some(loss);
            self.loss_since_point = Some(loss);
        }
        self.emit_at(
            started,
            ChainEvent::JobStarted {
                seq,
                job,
                recompute,
            },
        );
        for loss in &run.losses {
            let (node, lost_partitions) = (loss.node, loss.lost_partitions);
            let event = ChainEvent::LossObserved {
                seq,
                node,
                lost_partitions,
            };
            self.span(self.backend.tracer().now_us(), &event);
            self.log.push_loss(loss.fault.at, loss.detected.at, event);
        }
        self.emit(match run.completed {
            Some(tasks) => ChainEvent::JobCompleted {
                seq,
                job,
                map_tasks_run: tasks.map_tasks_run,
                map_tasks_reused: tasks.map_tasks_reused,
                reduce_tasks_run: tasks.reduce_tasks_run,
            },
            None => ChainEvent::JobCancelled { seq, job },
        });
        self.cadence.record_faults(run.losses.len());
        Ok(run)
    }

    fn drive(&mut self) -> Result<()> {
        let cfg = self.cfg;
        let Some(&last) = cfg.order.last() else {
            return Ok(());
        };
        let mut passes = 0u32;
        'chain: loop {
            passes += 1;
            if passes > cfg.max_attempts {
                return Err(Error::RecoveryExhausted {
                    job: last,
                    attempts: passes,
                    reason: "too many chain restarts".into(),
                });
            }
            let mut idx = 0usize;
            let mut retry = false;
            // Bounds the cancel → recover → retry-same-job cycle: a
            // scenario where recovery keeps "succeeding" but the job
            // keeps losing its input again must end in a typed error,
            // not a livelock.
            let mut job_recoveries = 0u32;
            while let Some(&job) = cfg.order.get(idx) {
                let run = self.run(job, std::mem::take(&mut retry), None)?;
                if run.completed.is_some() {
                    self.completed(job, idx as u32 + 1)?;
                    idx += 1;
                    continue;
                }
                job_recoveries += 1;
                if job_recoveries > cfg.max_attempts {
                    return Err(Error::RecoveryExhausted {
                        job,
                        attempts: job_recoveries,
                        reason: "job kept losing its input after recovery".into(),
                    });
                }
                // Seeded full-jitter backoff, so repeated cycles don't
                // hammer a flaky path in lockstep.
                let delay = cfg.retry.backoff_ms(
                    derive_indexed(cfg.seed, "chain-backoff", u64::from(job.0)),
                    job_recoveries,
                );
                if delay > 0 {
                    self.backend.wait(delay);
                }
                let Some((split, hotspot)) = cfg.strategy.recovery() else {
                    // OPTIMISTIC discards everything and restarts;
                    // exhausted replication has no choice but the same
                    // (§V-B "More failures"). A restart starts over from
                    // the chain's input, so it cannot bring a lost
                    // partition of that input back.
                    let (lineage, first) = (self.backend.lineage(), cfg.order[0]);
                    if let Some(&partition) = lineage.input(first)?.lost().first() {
                        return Err(Error::DataLoss {
                            path: lineage.input_path(first),
                            partition: Some(partition),
                        });
                    }
                    self.backend.restart()?;
                    self.reclaimed.clear();
                    self.emit(ChainEvent::ChainRestarted);
                    continue 'chain;
                };
                self.recover(job, split, hotspot)?;
                retry = true;
            }
            return Ok(());
        }
    }

    /// Chain job `job`, at 1-based `position`, completed: the cadence
    /// decides, and a replication point it calls for is placed.
    fn completed(&mut self, job: JobId, position: u32) -> Result<()> {
        let (point, adapted) = self.cadence.job_completed(position);
        if let Some(step) = &adapted {
            let kind = SpanKind::AdaptationPoint {
                seq: self.seq,
                rate_ppm: (step.rate * 1e6).round() as u64,
                interval: step.interval,
                switched: step.switched,
            };
            let cause = self.loss_since_point.take();
            self.backend.tracer().instant(kind, None, cause, None);
            self.backend.adapted(self.seq, step);
        }
        let Some((factor, reclaim)) = point else {
            return Ok(());
        };
        let freed = self.backend.replicate(job, factor, reclaim)?;
        self.emit(ChainEvent::ReplicationPoint { job, factor });
        if reclaim {
            // Every output before the point is gone (§IV-C).
            let before = &self.cfg.order[..position as usize - 1];
            self.reclaimed.extend(before.iter().copied());
            self.emit(ChainEvent::StorageReclaimed {
                files_deleted: freed.files_deleted,
                map_entries_dropped: freed.map_entries_dropped,
            });
        }
        Ok(())
    }

    /// Executes cascading recomputation until `target`'s input is whole,
    /// replanning from current state after a nested failure — "if a new
    /// failure occurs while RCMP is recovering from a previous one,
    /// RCMP's behavior remains unchanged" (§IV-A).
    fn recover(
        &mut self,
        target: JobId,
        split: SplitPolicy,
        hotspot: HotspotMitigation,
    ) -> Result<()> {
        for _ in 0..self.cfg.max_attempts {
            let reclaimed = &self.reclaimed;
            let plan = self
                .backend
                .planning(|view| plan_cascade(view, target, split, hotspot, reclaimed))?;
            let span = self.emit(ChainEvent::RecoveryPlanned {
                target,
                steps: plan.steps.len(),
                partitions: plan.partition_count(),
            });
            // A nested failure may have invalidated the rest of the
            // plan: replan from state.
            let mut nested = false;
            for step in plan.steps {
                let run = self.run(step.job, false, Some((step, span)))?;
                if run.completed.is_none() || !run.losses.is_empty() {
                    nested = true;
                    break;
                }
            }
            if !nested {
                return Ok(());
            }
        }
        Err(Error::RecoveryExhausted {
            job: target,
            attempts: self.cfg.max_attempts,
            reason: "nested-failure recovery did not converge".into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn started(seq: u64, job: u32, recompute: bool) -> ChainEvent {
        let job = JobId(job);
        ChainEvent::JobStarted {
            seq,
            job,
            recompute,
        }
    }

    fn completed(seq: u64, job: u32) -> ChainEvent {
        ChainEvent::JobCompleted {
            seq,
            job: JobId(job),
            map_tasks_run: 1,
            map_tasks_reused: 0,
            reduce_tasks_run: 1,
        }
    }

    fn loss(seq: u64) -> ChainEvent {
        let node = Some(NodeId(1));
        ChainEvent::LossObserved {
            seq,
            node,
            lost_partitions: 3,
        }
    }

    fn planned(target: u32, steps: usize) -> ChainEvent {
        let target = JobId(target);
        ChainEvent::RecoveryPlanned {
            target,
            steps,
            partitions: steps,
        }
    }

    #[test]
    fn counters() {
        let mut log = EventLog::default();
        log.push(0.0, started(1, 1, false));
        log.push(1.0, started(2, 1, true));
        log.push(2.0, ChainEvent::ChainRestarted);
        log.push_loss(2.0, 2.5, loss(2));
        assert_eq!(log.recompute_runs(), 1);
        assert_eq!(log.restarts(), 1);
        assert_eq!(log.losses(), 1);
        assert_eq!(log.last_seq(), Some(2));
    }

    /// Job 3 loses its input; the first plan's only step is cut short
    /// by a nested loss, the replan's two steps finish, and job 3 starts
    /// again. Both losses are timed up to that restart of job 3; the
    /// recompute leg of each ends where the converged plan's last step
    /// finished.
    #[test]
    fn recovery_times_follow_the_converged_plan() {
        let mut log = EventLog::new(Clock::SimSeconds);
        log.push(0.0, started(3, 3, false));
        log.push_loss(1.0, 4.0, loss(3));
        log.push(
            4.0,
            ChainEvent::JobCancelled {
                seq: 3,
                job: JobId(3),
            },
        );
        log.push(5.0, planned(3, 1));
        log.push(5.0, started(4, 2, true));
        log.push_loss(6.0, 9.0, loss(4));
        log.push(
            9.0,
            ChainEvent::JobCancelled {
                seq: 4,
                job: JobId(2),
            },
        );
        log.push(9.0, planned(3, 2));
        log.push(9.0, started(5, 1, true));
        log.push(11.0, completed(5, 1));
        log.push(11.0, started(6, 2, true));
        log.push(14.0, completed(6, 2));
        log.push(14.0, started(7, 3, false));
        log.push(20.0, completed(7, 3));
        let times = log.recovery_times();
        let first = RecoveryTimes {
            seq: 3,
            detect: 3.0,
            plan: 1.0,
            recompute: 9.0,
            resume: 0.0,
        };
        let nested = RecoveryTimes {
            seq: 4,
            detect: 3.0,
            plan: 0.0,
            recompute: 5.0,
            resume: 0.0,
        };
        assert_eq!(times, [first, nested]);
        assert_eq!(first.total(), 14.0 - 1.0);
    }

    /// A loss the chain answers by restarting, and one its run absorbed,
    /// have no recovery to time.
    #[test]
    fn restarts_and_absorbed_losses_are_not_timed() {
        let mut log = EventLog::default();
        log.push(0.0, started(1, 1, false));
        log.push_loss(1.0, 1.0, loss(1));
        log.push(2.0, completed(1, 1));
        log.push(2.0, started(2, 2, false));
        log.push_loss(3.0, 3.0, loss(2));
        log.push(
            3.0,
            ChainEvent::JobCancelled {
                seq: 2,
                job: JobId(2),
            },
        );
        log.push(3.0, ChainEvent::ChainRestarted);
        log.push(3.0, started(3, 1, false));
        assert!(log.recovery_times().is_empty());
    }
}
