//! One job run — JobInit, slot-bounded map and reduce waves and the
//! intra-job recovery between them (§IV-A) — written once.
//!
//! [`run_job`] validates the plan, fires `JobStart`, decides with
//! [`job_init`] which mappers run, then discards a full run's old output
//! or clears a recomputation's target partitions. It loops rounds: map
//! waves until no map output is missing, then reduce waves, then the
//! damage re-check, which clears a lost or torn target partition and
//! re-adds its tasks. Each wave sits in one bracket — fire
//! `Mid*Wave(w)`, run it, fire `After*Wave(w)` — and a failed task or a
//! killed node ends the round, JobInit refreshes what went missing, and
//! the next round reassigns over the survivors; a round nothing
//! interrupted refreshes nothing. Each failed attempt is charged to its task, and past
//! `task_retries` the run ends in [`Error::RecoveryExhausted`] instead
//! of re-running it forever. Like [`crate::chain`] it holds no bytes,
//! threads or clock: a [`JobBackend`] performs the effects (the
//! engine's tracker on its executor session, the simulator on its cost
//! model).
//!
//! The machine writes the run's spans, on the tracer of the backend's
//! clock it is handed ([`JobShape::tracer`]): the `JobRun` span, opened
//! before the plan checks and closed on every exit with `ok`; one
//! `Wave` per wave, whose open span the backend parents its tasks
//! under; and per scripted fault a `Fault` instant, with a `Loss`
//! instant caused by it when a crash struck (a torn writer's `Loss`
//! comes from [`ReduceResult::Torn`]). DESIGN §3.7.

use crate::fault::{Fault, TriggerPoint};
use crate::membership::Membership;
use crate::plan::{job_init, reduce_task_set, reduce_tasks_for, InputView, RecomputePlan};
use crate::tasks::FnReduceTasks;
use crate::topology::SliceTopology;
use crate::waves::{assign_reduce_waves, PolicyCtx, ReduceAssignment, WaveAssignment};
use rcmp_model::{
    Error, JobId, NodeId, PartitionId, PlacementKernel, ReduceTaskId, Result, SlotConfig, TenantId,
};
use rcmp_obs::{OpenSpan, Phase, SpanId, SpanKind, Tracer};
use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};

/// Bound on a run's recovery rounds (defensive; real scenarios
/// converge in a handful).
pub const MAX_RECOVERY_ROUNDS: u32 = 1000;

/// One run: the job's shape, the plan when it recomputes, and where
/// its spans go.
#[derive(Clone, Copy)]
pub struct JobShape<'a> {
    /// The run's number (the paper's job numbering).
    pub seq: u64,
    /// The job.
    pub job: JobId,
    /// Its reducer partitions.
    pub num_reducers: u32,
    /// Replicas of each output block.
    pub output_replication: u32,
    /// Whether its reducers may be split (§IV-B1).
    pub splittable: bool,
    /// `None` for a full run.
    pub plan: Option<&'a RecomputePlan>,
    /// Slots per node in each phase.
    pub slots: SlotConfig,
    /// The placement kernel waves are assigned with.
    pub kernel: PlacementKernel,
    /// Charged failures one task may retry (`RetryPolicy::task_retries`).
    pub task_retries: u32,
    /// The tracer on the backend's clock the run's spans are written to.
    pub tracer: &'a Tracer,
    /// What caused the run (a recomputation: the plan that submitted it).
    pub cause: Option<SpanId>,
    /// The tenant the run's `JobRun` span is tagged with, if any.
    pub tenant: Option<TenantId>,
}

/// What the machine counted over one run, whatever its outcome.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct JobTally {
    /// Mappers whose persisted output stood in for a run at JobInit.
    pub map_tasks_reused: usize,
    /// Failed task attempts, charged or not.
    pub task_retries: usize,
    /// Map waves run.
    pub map_waves: u32,
    /// Reduce waves run.
    pub reduce_waves: u32,
    /// The latest `Loss` span the run wrote.
    pub last_loss: Option<SpanId>,
}

/// How one map task ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MapResult {
    /// Its output is stored.
    Done,
    /// It failed: a retry charged to mapper `task` (an index into the
    /// input snapshot); `reason` names it once the budget runs out.
    Failed {
        /// The mapper.
        task: usize,
        /// Why it failed.
        reason: String,
    },
}

/// How one reduce task ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceResult {
    /// Its output is written.
    Done(ReduceTaskId),
    /// Map outputs it needs are gone; uncharged, the mappers re-run.
    Missing,
    /// A retryable failure (dead writer, exhausted shuffle), charged.
    Retry(ReduceTaskId),
    /// Its writer committed a strict prefix and died: the partition is
    /// cleared and fully re-reduced.
    Torn(PartitionId),
}

/// The effects of one job run. A mapper is named by its index into the
/// latest [`JobBackend::input`] snapshot (blocks never move during a
/// run), a reducer by its [`ReduceTaskId`].
pub trait JobBackend {
    /// What waves run on (the engine's executor session).
    type Waves<'w>
    where
        Self: 'w;

    /// Rejects a plan only this backend cannot run.
    fn check_plan(&self, _plan: &RecomputePlan) -> Result<()> {
        Ok(())
    }

    /// This run's fault-script entries at `point`, in script order.
    fn faults(&mut self, point: TriggerPoint) -> Vec<Fault>;

    /// Applies one fault the script raised at `point`: for a crash, the
    /// partitions it left irreversibly lost; `None` for other shapes.
    fn apply(&mut self, point: TriggerPoint, fault: Fault) -> Option<usize>;

    /// The input as it stands now; the backend keeps the task list.
    fn input(&mut self) -> Result<InputView>;

    /// A full run's start: drop the old output and map outputs (§V-A).
    fn discard_output(&mut self) -> Result<()>;

    /// Clears `partitions` of the existing output.
    fn clear(&mut self, partitions: &BTreeSet<PartitionId>) -> Result<()>;

    /// Runs `phases` (the waves, the convergence check, the commit)
    /// inside what the backend holds for them.
    fn with_waves<R>(&mut self, phases: impl FnOnce(&mut Self, &Self::Waves<'_>) -> R) -> R;

    /// The membership now; each phase schedules over one snapshot.
    fn membership(&self) -> Membership;

    /// Assigns the `pending` mappers to waves, its decisions traced
    /// through `ctx`; the result indexes `pending`.
    fn assign_maps(
        &mut self,
        pending: &[usize],
        topo: &SliceTopology<'_, NodeId>,
        ctx: PolicyCtx<'_>,
    ) -> Result<WaveAssignment<NodeId>>;

    /// Runs map wave `at = (w, span)` — the wave's number in the run,
    /// and its open `Wave` span, which the machine closes — and hands
    /// `account` each task's result in wave order, one per task,
    /// stopping at the first error it returns.
    fn map_wave(
        &mut self,
        waves: &Self::Waves<'_>,
        at: (u32, OpenSpan),
        tasks: &[(NodeId, usize)],
        account: impl FnMut(MapResult) -> Result<()>,
    ) -> Result<()>;

    /// Runs reduce wave `w`; as [`JobBackend::map_wave`].
    fn reduce_wave(
        &mut self,
        waves: &Self::Waves<'_>,
        at: (u32, OpenSpan),
        tasks: &[(NodeId, ReduceTaskId)],
        account: impl FnMut(ReduceResult) -> Result<()>,
    ) -> Result<()>;

    /// Output partitions with a lost block, including any this run has
    /// partly written.
    fn lost_partitions(&self) -> Result<BTreeSet<PartitionId>>;

    /// The run converged: admit its output (and drop its map outputs
    /// unless they persist).
    fn commit(&mut self) -> Result<()>;
}

/// Runs one job on `b`, counting into `tally`: `Ok` with the output
/// written, or a typed error — `Config` or `UnsplittableJob` on a bad
/// plan, `JobInputLost` when JobInit (first or on a refresh) finds the
/// input lost, `NoLiveNodes`, `RecoveryExhausted` when a task keeps
/// failing, or whatever a wave returns. Either way the run's `JobRun`
/// span is closed, with `ok` set on success.
pub fn run_job<B: JobBackend>(b: &mut B, shape: &JobShape<'_>, tally: &mut JobTally) -> Result<()> {
    let live_nodes = b.membership().readable().len() as u32;
    let open = shape.tracer.open();
    let run = RunSpan {
        tracer: shape.tracer,
        id: open.id,
        seq: shape.seq,
        last_loss: Cell::new(None),
    };
    let result = run_phases(b, shape, &run, tally);
    tally.last_loss = run.last_loss.get();
    let kind = SpanKind::JobRun {
        seq: shape.seq,
        job: shape.job,
        recompute: shape.plan.is_some(),
        live_nodes,
        map_slots: shape.slots.map,
        reduce_slots: shape.slots.reduce,
        ok: result.is_ok(),
        tenant: shape.tenant,
    };
    shape.tracer.close(open, kind, None, shape.cause, None);
    result
}

/// Where one run's spans go: the tracer, the `JobRun` span, the run's
/// number; and the latest `Loss` span written.
struct RunSpan<'t> {
    tracer: &'t Tracer,
    id: SpanId,
    seq: u64,
    last_loss: Cell<Option<SpanId>>,
}

impl RunSpan<'_> {
    /// Fires this run's fault-script entries at `point`: a `Fault`
    /// instant per entry, written before the backend applies it, and a
    /// `Loss` instant caused by it when a crash struck. True when one
    /// killed a node.
    fn fire<B: JobBackend>(&self, b: &mut B, point: TriggerPoint) -> bool {
        let mut killed = false;
        for fault in b.faults(point) {
            let node = Some(fault.node());
            let at = format!("{point:?}");
            let kind = SpanKind::Fault {
                seq: self.seq,
                kind: fault.kind(),
                at,
            };
            let struck = self.tracer.instant(kind, Some(self.id), None, node);
            if let Some(lost) = b.apply(point, fault) {
                self.loss(lost, Some(struck), node);
                killed = true;
            }
        }
        killed
    }

    /// A `Loss` instant of `lost` partitions on `node`.
    fn loss(&self, lost: usize, cause: Option<SpanId>, node: Option<NodeId>) {
        let kind = SpanKind::Loss {
            seq: self.seq,
            lost_partitions: lost as u32,
        };
        let loss = self.tracer.instant(kind, Some(self.id), cause, node);
        self.last_loss.set(Some(loss));
    }

    /// Runs `go` inside a `Wave` span of `tasks` tasks assigned against
    /// `capacity` live slots.
    fn wave<R>(
        &self,
        (phase, index, capacity): (Phase, u32, u32),
        tasks: usize,
        go: impl FnOnce(OpenSpan) -> R,
    ) -> R {
        let open = self.tracer.open();
        let out = go(open);
        let kind = SpanKind::Wave {
            phase,
            index,
            tasks: tasks as u32,
            capacity,
        };
        self.tracer.close(open, kind, Some(self.id), None, None);
        out
    }

    /// The wave kernels' instrumentation: decisions under the run.
    fn ctx(&self) -> PolicyCtx<'_> {
        PolicyCtx::new(self.tracer, Some(self.id))
    }
}

/// [`run_job`] inside its `JobRun` span.
fn run_phases<B: JobBackend>(
    b: &mut B,
    shape: &JobShape<'_>,
    span: &RunSpan<'_>,
    tally: &mut JobTally,
) -> Result<()> {
    let (job, plan) = (shape.job, shape.plan);
    if shape.num_reducers == 0 {
        return Err(Error::Config("job needs at least one reducer".into()));
    }
    if shape.output_replication == 0 {
        return Err(Error::Config("output replication must be >= 1".into()));
    }
    if let Some(plan) = plan {
        plan.validate(job, shape.num_reducers, shape.splittable)?;
        b.check_plan(plan)?;
    }
    span.fire(b, TriggerPoint::JobStart);
    // JobInit decides before the output is touched: a cancelled run
    // leaves the backend as it found it, so the planner never sees
    // partitions this run cleared as empty-but-not-lost.
    let view = b.input()?;
    let pending_maps = job_init(job, plan, &view)?;
    tally.map_tasks_reused += view.blocks.len() - pending_maps.len();
    match plan {
        None => b.discard_output()?,
        Some(plan) => b.clear(&plan.partitions)?,
    }
    let (pending_reduces, style) = reduce_task_set(plan, job, shape.num_reducers);
    let mut run = Rounds {
        shape,
        span,
        // Refreshes re-run whatever map output went missing since, under
        // the run's fingerprint rule. A forced count re-runs its mappers
        // once and reuses the rest regardless, so refreshes force none.
        refresh: RecomputePlan {
            reuse_map_outputs: true,
            force_rerun_mappers: plan.and_then(|p| p.force_rerun_mappers).map(|_| 0),
            ..plan.cloned().unwrap_or_else(RecomputePlan::empty)
        },
        targets: plan.map_or_else(
            || (0..shape.num_reducers).map(PartitionId).collect(),
            |p| p.partitions.clone(),
        ),
        style,
        pending_maps,
        pending_reduces,
        map_retries: HashMap::new(),
        reduce_retries: HashMap::new(),
        tally,
    };
    b.with_waves(|b, waves| {
        run.rounds(b, waves)?;
        if !run.pending_reduces.is_empty() {
            let reason = "recovery did not converge".into();
            return Err(Error::JobFailed { job, reason });
        }
        b.commit()
    })
}

/// The state of one run's phase loop.
struct Rounds<'r, 's> {
    shape: &'r JobShape<'s>,
    span: &'r RunSpan<'s>,
    refresh: RecomputePlan,
    /// Partitions this run is responsible for (damage re-checks).
    targets: BTreeSet<PartitionId>,
    style: ReduceAssignment,
    pending_maps: Vec<usize>,
    pending_reduces: Vec<ReduceTaskId>,
    map_retries: HashMap<usize, u32>,
    reduce_retries: HashMap<ReduceTaskId, u32>,
    tally: &'r mut JobTally,
}

impl Rounds<'_, '_> {
    fn rounds<B: JobBackend>(&mut self, b: &mut B, waves: &B::Waves<'_>) -> Result<()> {
        for _round in 0..MAX_RECOVERY_ROUNDS {
            while !self.pending_maps.is_empty() {
                let interrupted = self.map_round(b, waves)?;
                self.after_round(b, interrupted)?;
            }
            if self.pending_reduces.is_empty() {
                break;
            }
            let interrupted = self.reduce_round(b, waves)?;
            self.after_round(b, interrupted)?;
            if self.pending_reduces.is_empty() && self.pending_maps.is_empty() {
                break;
            }
        }
        Ok(())
    }

    /// After a round: JobInit over the input as it stands now, under the
    /// refresh rule, when a failed task or a killed node interrupted
    /// the round. A round nothing interrupted ran every pending mapper
    /// and lost no output, so nothing is missing.
    fn after_round<B: JobBackend>(&mut self, b: &mut B, interrupted: bool) -> Result<()> {
        self.pending_maps = if interrupted {
            job_init(self.shape.job, Some(&self.refresh), &b.input()?)?
        } else {
            Vec::new()
        };
        Ok(())
    }

    /// One round of map waves over one membership snapshot; true when
    /// a wave was interrupted.
    fn map_round<B: JobBackend>(&mut self, b: &mut B, waves: &B::Waves<'_>) -> Result<bool> {
        let (membership, live) = schedulable(b)?;
        let (slots, job, budget) = (
            self.shape.slots.map,
            self.shape.job,
            self.shape.task_retries,
        );
        let topo = SliceTopology::for_kernel(&live, slots, self.shape.kernel, &membership);
        let span = self.span;
        for wave in b.assign_maps(&self.pending_maps, &topo, span.ctx())? {
            let wave: Vec<(NodeId, usize)> =
                (wave.into_iter().map(|(n, i)| (n, self.pending_maps[i]))).collect();
            let w = self.tally.map_waves;
            let (tally, spent) = (&mut *self.tally, &mut self.map_retries);
            let points = (TriggerPoint::MidMapWave(w), TriggerPoint::AfterMapWave(w));
            let at = (Phase::Map, w, live.len() as u32 * slots);
            let interrupted = bracket(b, span, points, |b, failed| {
                span.wave(at, wave.len(), |open| {
                    b.map_wave(waves, (w, open), &wave, |result| match result {
                        MapResult::Done => Ok(()),
                        MapResult::Failed { task, reason } => {
                            *failed = true;
                            tally.task_retries += 1;
                            charge(spent, task, budget, job, || reason)
                        }
                    })
                })
            })?;
            self.tally.map_waves += 1;
            if interrupted {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// One round of reduce waves over one membership snapshot, then the
    /// damage re-check; true when a wave was interrupted.
    fn reduce_round<B: JobBackend>(&mut self, b: &mut B, waves: &B::Waves<'_>) -> Result<bool> {
        let (membership, live) = schedulable(b)?;
        let (slots, job, budget) = (
            self.shape.slots.reduce,
            self.shape.job,
            self.shape.task_retries,
        );
        let topo = SliceTopology::for_kernel(&live, slots, self.shape.kernel, &membership);
        let pending = &self.pending_reduces;
        let set = FnReduceTasks::new(pending.len(), |t| pending[t].partition.index());
        let span = self.span;
        let assignment = assign_reduce_waves(&topo, &set, self.style, span.ctx())?;
        let assignment: Vec<Vec<(NodeId, ReduceTaskId)>> = (assignment.into_iter())
            .map(|wave| wave.into_iter().map(|(n, t)| (n, pending[t])).collect())
            .collect();
        let (mut torn, mut interrupted) = (BTreeSet::new(), false);
        for wave in assignment {
            let w = self.tally.reduce_waves;
            let (tally, spent) = (&mut *self.tally, &mut self.reduce_retries);
            let (pending, torn) = (&mut self.pending_reduces, &mut torn);
            let points = (
                TriggerPoint::MidReduceWave(w),
                TriggerPoint::AfterReduceWave(w),
            );
            let at = (Phase::Reduce, w, live.len() as u32 * slots);
            let reassign = bracket(b, span, points, |b, failed| {
                let mut writers = wave.iter().map(|&(node, _)| node);
                span.wave(at, wave.len(), |open| {
                    b.reduce_wave(waves, (w, open), &wave, |result| {
                        let writer = writers.next();
                        let failure = !matches!(result, ReduceResult::Done(_));
                        *failed |= failure;
                        tally.task_retries += usize::from(failure);
                        match result {
                            ReduceResult::Done(id) => pending.retain(|t| *t != id),
                            ReduceResult::Missing => {}
                            ReduceResult::Retry(id) => {
                                let reason = || format!("reduce task {id} kept failing retryably");
                                charge(spent, id, budget, job, reason)?;
                            }
                            // The torn writer died with its partition:
                            // a loss of its own.
                            ReduceResult::Torn(partition) => {
                                span.loss(1, None, writer);
                                torn.insert(partition);
                            }
                        }
                        Ok(())
                    })
                })
            })?;
            self.tally.reduce_waves += 1;
            if reassign {
                interrupted = true;
                break;
            }
        }
        // A target partition that lost a block, or was torn (its
        // committed prefix may look healthy), is cleared and re-reduced.
        let lost = b.lost_partitions()?;
        for &p in self
            .targets
            .iter()
            .filter(|p| lost.contains(p) || torn.contains(p))
        {
            b.clear(&BTreeSet::from([p]))?;
            for t in reduce_tasks_for(self.shape.plan, job, p) {
                if !self.pending_reduces.contains(&t) {
                    self.pending_reduces.push(t);
                }
            }
        }
        Ok(interrupted)
    }
}

/// One wave in its bracket: the mid-wave point (a kill there lands
/// after assignment, before execution, so the victim's tasks fail with
/// it), the wave, which flags a failed task, then the after-wave point.
/// True when the round must reassign.
fn bracket<B: JobBackend>(
    b: &mut B,
    span: &RunSpan<'_>,
    (mid, after): (TriggerPoint, TriggerPoint),
    wave: impl FnOnce(&mut B, &mut bool) -> Result<()>,
) -> Result<bool> {
    let mid_kill = span.fire(b, mid);
    let mut failed = false;
    wave(b, &mut failed)?;
    Ok(span.fire(b, after) || failed || mid_kill)
}

/// One membership snapshot, and the Up nodes a phase may schedule on (a
/// draining node serves its data but takes no new tasks).
fn schedulable<B: JobBackend>(b: &B) -> Result<(Membership, Vec<NodeId>)> {
    let membership = b.membership();
    let live: Vec<NodeId> = membership.schedulable().into_iter().map(NodeId).collect();
    if live.is_empty() {
        return Err(Error::NoLiveNodes);
    }
    Ok((membership, live))
}

/// Charges one retry of task `key`; past `budget` the job escalates to
/// [`Error::RecoveryExhausted`] instead of re-running it forever.
fn charge<K: Eq + std::hash::Hash>(
    spent: &mut HashMap<K, u32>,
    key: K,
    budget: u32,
    job: JobId,
    reason: impl FnOnce() -> String,
) -> Result<()> {
    let attempts = spent.entry(key).or_insert(0);
    *attempts += 1;
    if *attempts > budget {
        let (attempts, reason) = (*attempts, reason());
        return Err(Error::RecoveryExhausted {
            job,
            attempts,
            reason,
        });
    }
    Ok(())
}
