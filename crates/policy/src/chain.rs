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
//! * the replication cadence (static modulus, [`DynamicPolicy`]
//!   threshold, or the closed-loop [`AdaptivePolicy`]), one private
//!   decision taken after every completed chain job;
//! * [`drive_chain`] — the loop itself, generic over a [`ChainBackend`]
//!   that performs the effects. `rcmp-core`'s `ChainDriver` is the
//!   engine backend (real job runs, real sleeps, event log, profiler);
//!   `rcmp-sim`'s `chainsim` is the simulator backend (modelled job
//!   runs, scripted failures, simulated seconds).
//!
//! DESIGN.md §3.6 tabulates the loop's states and the backend method
//! each transition calls.
//!
//! Every cycle is bounded by [`ChainConfig::max_attempts`] and ends in
//! `Ok` or a typed [`Error`]: `RecoveryExhausted` (too many restarts,
//! a job that keeps losing its input, recovery that keeps being
//! interrupted), `DataLoss` (the walk reached a lost external input),
//! or whatever a backend run returns (`NoLiveNodes`, …).
//!
//! [`DynamicPolicy`]: crate::adapt::DynamicPolicy

use crate::adapt::{AdaptationStep, AdaptivePolicy, FaultObserver};
use crate::mitigation::{choose_mitigation, HotspotMitigation, SplitPolicy};
use crate::plan::RecomputePlan;
use crate::strategy::Strategy;
use rcmp_model::rng::derive_indexed;
use rcmp_model::{Error, JobId, PartitionId, Result, RetryPolicy};
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
/// lineage, which partitions are gone, and which persisted map outputs
/// are still usable. Reading current state is what lets the plan merge
/// the damage of any number of loss events (§IV-A).
pub trait LineageView {
    /// The job that produces `job`'s input; `None` when that input is
    /// external to the chain.
    fn producer(&self, job: JobId) -> Option<JobId>;

    /// Partitions of `job`'s input that must be regenerated before the
    /// job can consume it.
    fn lost_input(&self, job: JobId) -> Result<BTreeSet<PartitionId>>;

    /// Partitions of `job`'s input read by those of its mappers that
    /// would have to re-run today: no persisted output, or one computed
    /// from an input that has since been regenerated differently (the
    /// Fig. 5 rule).
    fn rerun_input(&self, job: JobId) -> Result<BTreeSet<PartitionId>>;

    /// Nodes that can take recomputation work, which sizes
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
pub fn plan_cascade<V: LineageView + ?Sized>(
    view: &V,
    target: JobId,
    split: SplitPolicy,
    hotspot: HotspotMitigation,
) -> Result<RecoveryPlan> {
    let mitigation = choose_mitigation(split, hotspot, view.survivors());
    let mut steps = Vec::new();
    let mut consumer = target;
    let mut need = view.lost_input(target)?;
    while !need.is_empty() {
        let Some(producer) = view.producer(consumer) else {
            // External input with irreversible loss: unrecoverable by
            // recomputation (the paper replicates external inputs).
            return Err(Error::DataLoss {
                path: view.input_path(consumer),
                partition: need.first().copied(),
            });
        };
        let rerun = view.rerun_input(producer)?;
        let mut instructions = RecomputePlan::new(need, mitigation.split);
        instructions.spread_output = mitigation.spread_output;
        steps.push(RecoveryStep {
            job: producer,
            instructions,
        });
        // One job deeper: partitions the re-running mappers read that
        // are lost must themselves be regenerated.
        let lost_deeper = view.lost_input(producer)?;
        need = rerun.intersection(&lost_deeper).copied().collect();
        consumer = producer;
    }
    steps.reverse();
    Ok(RecoveryPlan { steps })
}

/// How one job run ended, as far as the chain loop is concerned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// The run finished and its output is written. `faults` counts the
    /// loss records it observed on the way (one per failed node).
    Completed {
        /// Loss records observed during the run.
        faults: u32,
    },
    /// The run could not continue because its input is irreversibly
    /// lost; nothing it wrote counts.
    Cancelled {
        /// Loss records observed during the run.
        faults: u32,
    },
}

/// The effects [`drive_chain`] needs performed. Each backend decides
/// what a run, a wait or a replication point *is*; the loop decides
/// when each happens.
pub trait ChainBackend {
    /// The state the planner walks.
    type Lineage: LineageView;

    /// The backend's current lineage state.
    fn lineage(&self) -> &Self::Lineage;

    /// Runs chain job `job` as run number `seq`. `retry` is set when
    /// this is the re-run of a job whose input recovery just restored.
    fn run_job(&mut self, seq: u64, job: JobId, retry: bool) -> Result<RunOutcome>;

    /// Runs one step of a recovery plan as run number `seq`.
    fn run_recompute(&mut self, seq: u64, step: RecoveryStep) -> Result<RunOutcome>;

    /// Backs off for `ms` (> 0) milliseconds before another recovery
    /// cycle of the same job.
    fn wait(&mut self, ms: u64);

    /// Whole-chain restart (OPTIMISTIC, exhausted replication): drop
    /// every output the chain produced; it starts over from its input.
    fn restart(&mut self) -> Result<()>;

    /// Brackets the lineage walk, for a backend that accounts planning
    /// time.
    fn planning<T>(&mut self, walk: impl FnOnce(&Self::Lineage) -> T) -> T {
        walk(self.lineage())
    }

    /// A recovery plan for `target` was computed (possibly empty).
    fn planned(&mut self, target: JobId, plan: &RecoveryPlan);

    /// A replication point is due after `job`: raise its output to
    /// `factor` replicas and, if `reclaim`, free the recovery state the
    /// point makes obsolete (§IV-C).
    fn replicate(&mut self, job: JobId, factor: u32, reclaim: bool) -> Result<()>;

    /// The closed-loop policy took a decision after run `seq`.
    fn adapted(&mut self, _seq: u64, _step: &AdaptationStep) {}
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
    /// Whole-chain restarts.
    pub restarts: u32,
    /// The closed-loop policy's decision after each completed chain job
    /// (empty unless the strategy is [`Strategy::AdaptiveHybrid`]).
    pub adaptation: Vec<AdaptationStep>,
}

/// Hybrid replication points: static modulus (§IV-C), the dynamic
/// expected-cost threshold, or the closed-loop adaptive policy (§IV-C
/// future work). The closed loop survives chain restarts so its
/// failure-intensity estimate keeps everything observed.
struct Cadence {
    strategy: Strategy,
    /// Jobs completed since the last replication point (dynamic hybrid).
    jobs_since_point: u32,
    adaptive: Option<AdaptivePolicy>,
}

impl Cadence {
    fn new(strategy: Strategy) -> Self {
        Self {
            strategy,
            jobs_since_point: 0,
            adaptive: match strategy {
                Strategy::AdaptiveHybrid { adapt, .. } => Some(AdaptivePolicy::new(adapt)),
                _ => None,
            },
        }
    }

    fn record_faults(&mut self, faults: u32) {
        if let Some(policy) = self.adaptive.as_mut() {
            policy.record_fault(faults);
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
            (Strategy::DynamicHybrid { policy, .. }, _) => {
                self.jobs_since_point += 1;
                policy.should_replicate(self.jobs_since_point)
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
        self.jobs_since_point = 0;
        (self.strategy.replication_point(), adapted)
    }

    fn into_trajectory(self) -> Vec<AdaptationStep> {
        self.adaptive
            .map(|policy| policy.trajectory().to_vec())
            .unwrap_or_default()
    }
}

/// Runs the chain to completion on `backend`.
pub fn drive_chain<B: ChainBackend>(
    backend: &mut B,
    cfg: &ChainConfig<'_>,
) -> Result<ChainSummary> {
    let Some(&last) = cfg.order.last() else {
        return Ok(ChainSummary::default());
    };
    let mut cadence = Cadence::new(cfg.strategy);
    let mut seq = 0u64;
    let mut restarts = 0u32;
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
        // scenario where recovery keeps "succeeding" but the job keeps
        // losing its input again must end in a typed error, not a
        // livelock.
        let mut job_recoveries = 0u32;
        while let Some(&job) = cfg.order.get(idx) {
            seq += 1;
            match backend.run_job(seq, job, std::mem::take(&mut retry))? {
                RunOutcome::Completed { faults } => {
                    cadence.record_faults(faults);
                    let (point, adapted) = cadence.job_completed(idx as u32 + 1);
                    if let Some(step) = &adapted {
                        backend.adapted(seq, step);
                    }
                    if let Some((factor, reclaim)) = point {
                        backend.replicate(job, factor, reclaim)?;
                    }
                    idx += 1;
                }
                RunOutcome::Cancelled { faults } => {
                    cadence.record_faults(faults);
                    job_recoveries += 1;
                    if job_recoveries > cfg.max_attempts {
                        return Err(Error::RecoveryExhausted {
                            job,
                            attempts: job_recoveries,
                            reason: "job kept losing its input after recovery".into(),
                        });
                    }
                    // Seeded full-jitter backoff, so repeated cycles
                    // don't hammer a flaky path in lockstep.
                    let delay = cfg.retry.backoff_ms(
                        derive_indexed(cfg.seed, "chain-backoff", u64::from(job.0)),
                        job_recoveries,
                    );
                    if delay > 0 {
                        backend.wait(delay);
                    }
                    let (split, hotspot) = match cfg.strategy {
                        Strategy::Optimistic | Strategy::Replication { .. } => {
                            // OPTIMISTIC discards everything and
                            // restarts; exhausted replication has no
                            // choice but the same (§V-B "More
                            // failures").
                            backend.restart()?;
                            restarts += 1;
                            continue 'chain;
                        }
                        Strategy::Rcmp { split, hotspot } => (split, hotspot),
                        Strategy::Hybrid { split, .. }
                        | Strategy::DynamicHybrid { split, .. }
                        | Strategy::AdaptiveHybrid { split, .. } => {
                            (split, HotspotMitigation::SplitReducers)
                        }
                    };
                    recover(backend, cfg, &mut cadence, &mut seq, job, split, hotspot)?;
                    retry = true;
                }
            }
        }
        return Ok(ChainSummary {
            jobs_started: seq,
            restarts,
            adaptation: cadence.into_trajectory(),
        });
    }
}

/// Executes cascading recomputation until `target`'s input is whole,
/// replanning from current state after a nested failure — "if a new
/// failure occurs while RCMP is recovering from a previous one, RCMP's
/// behavior remains unchanged" (§IV-A).
fn recover<B: ChainBackend>(
    backend: &mut B,
    cfg: &ChainConfig<'_>,
    cadence: &mut Cadence,
    seq: &mut u64,
    target: JobId,
    split: SplitPolicy,
    hotspot: HotspotMitigation,
) -> Result<()> {
    for _ in 0..cfg.max_attempts {
        let plan = backend.planning(|view| plan_cascade(view, target, split, hotspot))?;
        backend.planned(target, &plan);
        let mut nested = false;
        for step in plan.steps {
            *seq += 1;
            match backend.run_recompute(*seq, step)? {
                RunOutcome::Completed { faults: 0 } => {}
                RunOutcome::Completed { faults } | RunOutcome::Cancelled { faults } => {
                    // A nested failure may have invalidated the rest of
                    // the plan: replan from state.
                    cadence.record_faults(faults);
                    nested = true;
                    break;
                }
            }
        }
        if !nested {
            return Ok(());
        }
    }
    Err(Error::RecoveryExhausted {
        job: target,
        attempts: cfg.max_attempts,
        reason: "nested-failure recovery did not converge".into(),
    })
}
