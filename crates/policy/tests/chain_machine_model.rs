//! The chain machine on a table: `plan_cascade` and `drive_chain` over
//! an in-memory backend.
//!
//! The world is what the planner reads and nothing more: files ×
//! partitions × holders, one mapper per input partition with a
//! persisted-output validity bit (holder alive, input version
//! unchanged), nodes that die on a script keyed by run number. No
//! bytes, no time. Random worlds, strategies and fault scripts must
//! satisfy the paper's planner properties at every plan the machine
//! computes, and the machine's own bounds on every script:
//!
//! * **sufficient** — executing the plan leaves no re-running mapper
//!   without input and makes the cancelled job's input whole;
//! * **minimal** — dropping any one planned partition leaves some
//!   re-running mapper's input lost (DESIGN §5 #2);
//! * **bounded by replication** — no step at or below an output whose
//!   partitions all survive (the hybrid cascade bound, §IV-C);
//! * `jobs_started` is the number of runs the backend was asked for,
//!   numbered 1, 2, 3, …;
//! * every script ends in `Ok` or a typed error within the
//!   `max_attempts` bound — no livelock;
//! * the event stream the loop logs obeys its grammar: `JobStarted`
//!   seqs run 1, 2, 3, … without gaps; every `JobCancelled` is followed
//!   by `RecoveryPlanned` or `ChainRestarted`; a plan's recomputations
//!   start right after it, in plan order, until a nested failure; and
//!   stamps never decrease;
//! * the loop writes one span per logged event, in order, and causes
//!   as values: a plan is caused by the chain's latest `Loss` span, a
//!   recomputation run by its plan's span, an adaptation point by the
//!   latest loss since the previous point. The stream is read back from
//!   those spans, so the grammar holds of chains that end in an error
//!   too;
//! * a chain that restarts ends in `DataLoss` on its input once the
//!   input has a lost partition, never in `RecoveryExhausted`.

use proptest::prelude::*;
use rcmp_model::{Error, JobId, PartitionId, Result, RetryPolicy};
use rcmp_obs::{Span, SpanId, SpanKind, Tracer};
use rcmp_policy::{
    drive_chain, plan_cascade, AdaptConfig, ChainBackend, ChainConfig, ChainEvent, Clock,
    DynamicPolicy, FailureAt, Fault, HotspotMitigation, InputView, LineageView, Loss, MapInput,
    Reclaimed, RecomputePlan, RecoveryPlan, RecoveryStep, RunOutcome, SplitPolicy, Stamp,
    Strategy as Resilience, TaskCounts,
};
use std::collections::{BTreeMap, BTreeSet};

/// One output partition: who holds it, which version of its contents,
/// and the reducer shape that wrote it.
#[derive(Clone, Debug, Default, PartialEq)]
struct Part {
    /// `None` until written (or after reclamation).
    holders: Option<BTreeSet<u32>>,
    /// Bumped when a regeneration changes the block boundaries, which
    /// invalidates map outputs computed from the old ones (Fig. 5).
    version: u64,
    split: u32,
}

/// The placement state of a linear chain: file 0 is the external
/// input, file `j` is job `j`'s output, and job `j` has one mapper per
/// partition of file `j − 1`.
#[derive(Clone, Debug, PartialEq)]
struct World {
    alive: Vec<bool>,
    files: Vec<Vec<Part>>,
    /// `map_out[job][q]`: where the mapper over input partition `q`
    /// persisted its output, and the input version it read.
    map_out: Vec<Vec<Option<(u32, u64)>>>,
    /// Files deleted behind a replication point.
    reclaimed: Vec<bool>,
}

impl World {
    fn new(jobs: u32, parts: u32, nodes: u32) -> Self {
        let input = (0..parts)
            .map(|p| Part {
                holders: Some((0..2).map(|i| (p + i) % nodes).collect()),
                version: 0,
                split: 1,
            })
            .collect();
        let mut files = vec![input];
        files.resize(jobs as usize + 1, vec![Part::default(); parts as usize]);
        Self {
            alive: vec![true; nodes as usize],
            files,
            map_out: vec![vec![None; parts as usize]; jobs as usize + 1],
            reclaimed: vec![false; jobs as usize + 1],
        }
    }

    fn live(&self) -> Vec<u32> {
        (0..self.alive.len() as u32)
            .filter(|&n| self.alive[n as usize])
            .collect()
    }

    fn readable(&self, file: u32, p: usize) -> bool {
        self.files[file as usize][p]
            .holders
            .as_ref()
            .is_some_and(|h| h.iter().any(|&n| self.alive[n as usize]))
    }

    /// Written partitions with no live holder.
    fn lost(&self, file: u32) -> BTreeSet<PartitionId> {
        (0..self.files[file as usize].len())
            .filter(|&p| self.files[file as usize][p].holders.is_some() && !self.readable(file, p))
            .map(|p| PartitionId(p as u32))
            .collect()
    }

    fn map_valid(&self, job: u32, q: usize) -> bool {
        self.map_out[job as usize][q].is_some_and(|(node, version)| {
            self.alive[node as usize] && version == self.files[job as usize - 1][q].version
        })
    }

    /// Input partitions of `job` whose mapper would have to re-run.
    fn rerun(&self, job: u32) -> BTreeSet<PartitionId> {
        (0..self.map_out[job as usize].len())
            .filter(|&q| !self.map_valid(job, q))
            .map(|q| PartitionId(q as u32))
            .collect()
    }

    /// Would a recomputation of `job` find a re-running mapper without
    /// readable input?
    fn starved(&self, job: u32) -> bool {
        self.rerun(job)
            .iter()
            .any(|q| !self.readable(job - 1, q.index()))
    }

    /// One run of `job` on the survivors: a full run (`plan == None`)
    /// re-maps everything and rewrites every partition; a recomputation
    /// reuses valid map outputs and rewrites the plan's partitions.
    /// Mappers are mostly data-local — which is what makes one node's
    /// death take a partition *and* the map output computed from it,
    /// and so what makes cascades (Fig. 1). Every third one is stolen
    /// by another node, so some lost partitions still have a valid map
    /// output and nobody needs them back.
    fn execute(&mut self, job: u32, plan: Option<&RecomputePlan>, replication: u32, salt: u64) {
        let live = self.live();
        let pick = |i: u64| live[((i + salt) % live.len() as u64) as usize];
        for q in 0..self.map_out[job as usize].len() {
            if plan.is_none() || !self.map_valid(job, q) {
                let input = &self.files[job as usize - 1][q];
                let stolen = (q as u64 + salt).is_multiple_of(3);
                let local = input.holders.iter().flatten().find(|&&n| live.contains(&n));
                let node = match local {
                    Some(&n) if !stolen => n,
                    _ => pick(q as u64),
                };
                self.map_out[job as usize][q] = Some((node, input.version));
            }
        }
        let all: BTreeSet<PartitionId> = (0..self.files[job as usize].len() as u32)
            .map(PartitionId)
            .collect();
        let split = plan.map_or(1, RecomputePlan::split_factor);
        for p in plan.map_or(&all, |plan| &plan.partitions) {
            let part = &mut self.files[job as usize][p.index()];
            if part.holders.is_some() && part.split != split {
                part.version += 1;
            }
            part.split = split;
            part.holders = Some(
                (0..u64::from(replication).min(live.len() as u64))
                    .map(|i| pick(u64::from(p.raw()) + i))
                    .collect(),
            );
        }
    }

    /// Executes `plan` fault-free. Returns whether some re-running
    /// mapper was left without input on the way.
    fn execute_plan(&mut self, plan: &RecoveryPlan) -> bool {
        let mut starved = false;
        for step in &plan.steps {
            starved |= self.starved(step.job.0);
            self.execute(step.job.0, Some(&step.instructions), 1, 0);
        }
        starved
    }
}

impl LineageView for World {
    fn producer(&self, job: JobId) -> Option<JobId> {
        (job.0 > 1).then(|| JobId(job.0 - 1))
    }
    /// The raw facts, one block per written input partition (an
    /// unwritten one has none, as on both backends): holders and
    /// liveness, the persisted output's node and version. The planner
    /// properties below check against `lost`, `map_valid` and `starved`,
    /// which read the same world on their own.
    fn input(&self, job: JobId) -> Result<InputView> {
        let file = job.0 - 1;
        if self.reclaimed[file as usize] {
            return Err(Error::FileNotFound(self.input_path(job)));
        }
        let parts = &self.files[file as usize];
        Ok(InputView {
            unwritten: (0..parts.len() as u32)
                .filter(|&q| parts[q as usize].holders.is_none())
                .map(PartitionId)
                .collect(),
            blocks: (0..parts.len())
                .filter(|&q| parts[q].holders.is_some())
                .map(|q| MapInput {
                    partition: PartitionId(q as u32),
                    readable: self.readable(file, q),
                    stored: self.map_out[job.0 as usize][q]
                        .filter(|&(node, _)| self.alive[node as usize])
                        .map(|(_, version)| version),
                    current: parts[q].version,
                })
                .collect(),
        })
    }
    fn survivors(&self) -> usize {
        self.live().len()
    }
    fn input_path(&self, job: JobId) -> String {
        format!("file/{}", job.0 - 1)
    }
}

/// Persistent trouble no recovery fixes, to reach the machine's bounds.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Flake {
    None,
    /// This chain job is cancelled every time it runs.
    CancelJob(u32),
    /// Every recovery run is cancelled.
    CancelRecoveries,
}

#[derive(Clone, Debug)]
struct Script {
    jobs: u32,
    parts: u32,
    nodes: u32,
    strategy: Resilience,
    max_attempts: u32,
    /// `JobStart` crashes: the node dies as that run starts.
    kills: Vec<FailureAt>,
    flake: Flake,
}

struct Fake<'a> {
    script: &'a Script,
    world: World,
    calls: u64,
    waits: u64,
    cancels: u64,
    /// The job whose recovery was planned since it was last cancelled.
    recovered: Option<JobId>,
    /// The chain job cancelled last: the target of the plans after it.
    cancelled: Option<JobId>,
    /// Where the loop writes the chain's spans, and this backend its
    /// runs' `Loss` spans, as the job machine would.
    tracer: Tracer,
    trace: Vec<String>,
    violations: Vec<String>,
    /// The step jobs of every plan, checked against the world it was
    /// computed from.
    plans: Vec<Vec<JobId>>,
}

impl Fake<'_> {
    /// Starts run `seq`: its crashes strike, each with a `Loss` span.
    /// Returns the losses and the latest loss span.
    fn begin_run(&mut self, seq: u64) -> (Vec<Loss>, Option<SpanId>) {
        self.calls += 1;
        if seq != self.calls {
            self.violations
                .push(format!("run {} numbered {seq}", self.calls));
        }
        let (mut losses, mut last_loss) = (Vec::new(), None);
        for kill in self.script.kills.iter().filter(|k| k.seq == seq) {
            let Fault::NodeCrash(node) = kill.fault else {
                continue;
            };
            if std::mem::take(&mut self.world.alive[node.index()]) {
                losses.push(Loss {
                    node: Some(node),
                    lost_partitions: 0,
                    fault: self.now(),
                    detected: self.now(),
                });
                let kind = SpanKind::Loss {
                    seq,
                    lost_partitions: 0,
                };
                last_loss = Some(self.tracer.instant(kind, None, None, Some(node)));
            }
        }
        (losses, last_loss)
    }

    /// A plan the loop computed must be the one the planner computes
    /// from the world as it stands, for the job cancelled last.
    fn planned(&mut self, plan: &RecoveryPlan) {
        let Some(target) = self.cancelled else {
            self.violations
                .push("a plan before any cancellation".into());
            return;
        };
        let Some((split, hotspot)) = self.script.strategy.recovery() else {
            let strategy = self.script.strategy;
            self.violations
                .push(format!("{strategy:?} planned a recovery"));
            return;
        };
        let reclaimed = (0..self.world.reclaimed.len() as u32)
            .filter(|&j| self.world.reclaimed[j as usize])
            .map(JobId)
            .collect();
        let Ok(derived) = plan_cascade(&self.world, target, split, hotspot, &reclaimed) else {
            self.violations
                .push(format!("unplannable plan for {target} planned"));
            return;
        };
        if &derived != plan {
            self.violations
                .push(format!("plan for {target} is not the world's: {plan:?}"));
        }
        self.check_plan(target, plan);
        self.plans.push(plan.steps.iter().map(|s| s.job).collect());
        self.recovered = Some(target);
        let steps = plan.steps.len();
        self.trace.push(format!("plan for {target}: {steps} steps"));
    }

    /// The latest `RecoveryPlan` span.
    fn last_plan_span(&self) -> Option<SpanId> {
        let plans = self.tracer.snapshot().spans.into_iter();
        let plans = plans.filter(|s| matches!(s.kind, SpanKind::RecoveryPlan { .. }));
        plans.map(|s| s.id).max()
    }

    /// The planner properties, checked against the state the plan was
    /// computed from.
    fn check_plan(&mut self, target: JobId, plan: &RecoveryPlan) {
        let mut bad = |what: String| self.violations.push(format!("plan for {target}: {what}"));
        for step in &plan.steps {
            let lost = self.world.lost(step.job.0);
            if !step.instructions.partitions.is_subset(&lost) {
                bad(format!("{} regenerates an intact partition", step.job));
            }
        }
        // Bounded by replication: nothing at or below a whole file.
        for file in 1..target.0 {
            if self.world.lost(file).is_empty() {
                if let Some(step) = plan.steps.iter().find(|s| s.job.0 <= file) {
                    bad(format!("step {} crosses whole file {file}", step.job));
                }
            }
        }
        let mut after = self.world.clone();
        if after.execute_plan(plan) {
            bad("a re-running mapper has no input".into());
        }
        if !after.lost(target.0 - 1).is_empty() {
            bad("target input still lost".into());
        }
        for (i, step) in plan.steps.iter().enumerate() {
            for &p in &step.instructions.partitions {
                let mut without = plan.clone();
                without.steps[i].instructions.partitions.remove(&p);
                without
                    .steps
                    .retain(|s| !s.instructions.partitions.is_empty());
                let mut after = self.world.clone();
                let starved = after.execute_plan(&without);
                if !starved && after.lost(target.0 - 1).is_empty() {
                    bad(format!("{p} of {} is not needed", step.job));
                }
            }
        }
    }
}

impl ChainBackend for Fake<'_> {
    type Lineage = World;

    fn lineage(&self) -> &World {
        &self.world
    }

    fn now(&self) -> Stamp {
        Stamp {
            clock: Clock::SimSeconds,
            at: self.calls as f64,
        }
    }

    fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn run_job(&mut self, seq: u64, job: JobId, retry: bool) -> Result<RunOutcome> {
        let (losses, last_loss) = self.begin_run(seq);
        if retry != (self.recovered == Some(job)) {
            self.violations
                .push(format!("run {seq} of {job}: retry = {retry}"));
        }
        self.recovered = None;
        if self.world.live().is_empty() {
            return Err(Error::NoLiveNodes);
        }
        // A full run reads its whole input.
        if self.script.flake == Flake::CancelJob(job.0) || !self.world.lost(job.0 - 1).is_empty() {
            self.cancels += 1;
            self.cancelled = Some(job);
            self.trace.push(format!("{seq}: {job} cancelled"));
            return Ok(RunOutcome {
                last_loss,
                ..RunOutcome::cancelled(losses)
            });
        }
        let strategy = self.script.strategy;
        self.world
            .execute(job.0, None, strategy.output_replication(), seq);
        if !strategy.persists_outputs() {
            self.world.map_out[job.0 as usize].fill(None);
        }
        self.trace.push(format!("{seq}: {job} completed"));
        Ok(completed(losses, last_loss))
    }

    fn run_recompute(&mut self, seq: u64, step: RecoveryStep, plan: SpanId) -> Result<RunOutcome> {
        if Some(plan) != self.last_plan_span() {
            self.violations
                .push(format!("run {seq} is caused by {plan:?}, not its plan"));
        }
        let (losses, last_loss) = self.begin_run(seq);
        if self.world.live().is_empty() {
            return Err(Error::NoLiveNodes);
        }
        let starved = self.world.starved(step.job.0);
        if starved && losses.is_empty() {
            self.violations
                .push(format!("run {seq}: planned step {} has no input", step.job));
        }
        if starved || self.script.flake == Flake::CancelRecoveries {
            self.trace.push(format!("{seq}: re-{} cancelled", step.job));
            return Ok(RunOutcome {
                last_loss,
                ..RunOutcome::cancelled(losses)
            });
        }
        self.world
            .execute(step.job.0, Some(&step.instructions), 1, seq);
        self.trace.push(format!(
            "{seq}: re-{} {:?}",
            step.job, step.instructions.partitions
        ));
        Ok(completed(losses, last_loss))
    }

    fn wait(&mut self, ms: u64) {
        if ms == 0 {
            self.violations.push("zero-length wait".into());
        }
        self.waits += 1;
    }

    fn restart(&mut self) -> Result<()> {
        for job in 1..=self.script.jobs as usize {
            self.world.files[job].fill(Part::default());
            self.world.map_out[job].fill(None);
        }
        self.world.reclaimed.fill(false);
        self.trace.push("restart".into());
        Ok(())
    }

    fn replicate(&mut self, job: JobId, factor: u32, reclaim: bool) -> Result<Reclaimed> {
        let live = self.world.live();
        for part in &mut self.world.files[job.0 as usize] {
            let holders = part.holders.get_or_insert_with(BTreeSet::new);
            for &n in &live {
                if holders.len() < factor as usize {
                    holders.insert(n);
                }
            }
        }
        if reclaim {
            for j in 1..=job.0 as usize {
                self.world.map_out[j].fill(None);
            }
            for j in 1..job.0 as usize {
                self.world.files[j].fill(Part::default());
                self.world.reclaimed[j] = true;
            }
        }
        self.trace.push(format!("replicate {job} x{factor}"));
        Ok(Reclaimed::default())
    }

    /// Checks each plan against the world it was computed from.
    fn planning(
        &mut self,
        walk: impl FnOnce(&World) -> Result<RecoveryPlan>,
    ) -> Result<RecoveryPlan> {
        let plan = walk(&self.world);
        if let Ok(plan) = &plan {
            self.planned(plan);
        }
        plan
    }
}

fn completed(losses: Vec<Loss>, last_loss: Option<SpanId>) -> RunOutcome {
    RunOutcome {
        losses,
        completed: Some(TaskCounts::default()),
        last_loss,
    }
}

/// The chain's spans read back: the logged events, from their `Event`
/// and `RecoveryPlan` spans (a loss's node is not in its label), with
/// the spans themselves. Checks the causes on the way: a plan's is the
/// latest `Loss` span, an adaptation point's the latest loss since the
/// previous point.
fn read_back(tracer: &Tracer) -> std::result::Result<(Vec<ChainEvent>, Vec<Span>), String> {
    let mut spans = tracer.snapshot().spans;
    spans.sort_by_key(|s| s.id);
    let (mut events, mut chain) = (Vec::new(), Vec::new());
    let (mut last_loss, mut since_point) = (None, None);
    for span in spans {
        let job = |word: &str| JobId(word[1..].parse().unwrap());
        let event = match &span.kind {
            SpanKind::Loss { .. } => {
                (last_loss, since_point) = (Some(span.id), Some(span.id));
                continue;
            }
            SpanKind::AdaptationPoint { .. } => {
                if span.cause != since_point.take() {
                    return Err(format!(
                        "{span:?}: not the latest loss since the last point"
                    ));
                }
                continue;
            }
            &SpanKind::RecoveryPlan {
                target,
                steps,
                partitions,
            } => {
                if span.cause != last_loss {
                    return Err(format!("{span:?}: not caused by {last_loss:?}"));
                }
                ChainEvent::RecoveryPlanned {
                    target,
                    steps: steps as usize,
                    partitions: partitions as usize,
                }
            }
            SpanKind::Event { seq, label } => {
                let (seq, words) = (*seq, label.split(' ').collect::<Vec<_>>());
                let count = |word: &str| word.parse().unwrap();
                match words[0] {
                    "job_started" => ChainEvent::JobStarted {
                        seq,
                        job: job(words[1]),
                        recompute: words.len() == 3,
                    },
                    "job_completed" => ChainEvent::JobCompleted {
                        seq,
                        job: job(words[1]),
                        map_tasks_run: 0,
                        map_tasks_reused: 0,
                        reduce_tasks_run: 0,
                    },
                    "loss_observed" => ChainEvent::LossObserved {
                        seq,
                        node: None,
                        lost_partitions: count(words[1]),
                    },
                    "job_cancelled" => ChainEvent::JobCancelled {
                        seq,
                        job: job(words[1]),
                    },
                    "replication_point" => ChainEvent::ReplicationPoint {
                        job: job(words[1]),
                        factor: words[2][1..].parse().unwrap(),
                    },
                    "storage_reclaimed" => ChainEvent::StorageReclaimed {
                        files_deleted: count(words[1]),
                        map_entries_dropped: 0,
                    },
                    "chain_restarted" => ChainEvent::ChainRestarted,
                    _ => return Err(format!("unknown event span {label}")),
                }
            }
            other => return Err(format!("the loop wrote {other:?}")),
        };
        events.push(event);
        chain.push(span);
    }
    Ok((events, chain))
}

/// The grammar of the logged stream. `plans` holds each logged plan's
/// step jobs; `failed` says the chain ended in an error, which may cut
/// the stream short anywhere.
fn check_grammar(
    events: &[ChainEvent],
    plans: &[Vec<JobId>],
    failed: bool,
) -> std::result::Result<(), String> {
    let mut next_seq = 1;
    let mut plans = plans.iter();
    for (i, e) in events.iter().enumerate() {
        match *e {
            ChainEvent::JobStarted { seq, .. } => {
                if seq != next_seq {
                    return Err(format!("event {i}: run {seq} started, expected {next_seq}"));
                }
                next_seq += 1;
            }
            ChainEvent::JobCancelled { .. } => match events.get(i + 1) {
                Some(ChainEvent::RecoveryPlanned { .. } | ChainEvent::ChainRestarted) => {}
                None if failed => {}
                other => return Err(format!("event {i}: cancellation followed by {other:?}")),
            },
            ChainEvent::RecoveryPlanned { target, .. } => {
                let steps = plans.next().ok_or("a plan was logged twice")?;
                plan_runs(events, i, target, steps, failed)?;
            }
            _ => {}
        }
    }
    Ok(())
}

/// The runs after the plan logged at `at`: its steps start in plan
/// order, each followed by its losses and outcome; a nested failure (a
/// loss or a cancellation) cuts the plan short and is followed by a
/// replan; a plan that converges is followed by `target` starting
/// again.
fn plan_runs(
    events: &[ChainEvent],
    at: usize,
    target: JobId,
    steps: &[JobId],
    failed: bool,
) -> std::result::Result<(), String> {
    let cut_short = |k: usize| match events.get(k) {
        Some(ChainEvent::RecoveryPlanned { .. }) => Ok(()),
        None if failed => Ok(()),
        other => Err(format!(
            "plan at {at}: nested failure followed by {other:?}"
        )),
    };
    let mut k = at + 1;
    for &job in steps {
        match events.get(k) {
            Some(ChainEvent::JobStarted {
                job: j,
                recompute: true,
                ..
            }) if *j == job => k += 1,
            None if failed => return Ok(()),
            other => return Err(format!("plan at {at}: step {job} is {other:?}")),
        }
        let losses = events[k..]
            .iter()
            .take_while(|e| matches!(e, ChainEvent::LossObserved { .. }))
            .count();
        k += losses;
        match events.get(k) {
            Some(ChainEvent::JobCompleted { .. }) if losses == 0 => k += 1,
            Some(ChainEvent::JobCompleted { .. } | ChainEvent::JobCancelled { .. }) => {
                return cut_short(k + 1)
            }
            None if failed => return Ok(()),
            other => return Err(format!("plan at {at}: step {job} ended in {other:?}")),
        }
    }
    match events.get(k) {
        Some(ChainEvent::JobStarted { job, .. }) if *job == target => Ok(()),
        None if failed => Ok(()),
        other => Err(format!("plan at {at} converged, then {other:?}")),
    }
}

/// Everything one script produces that a replay must reproduce.
type Ending = (
    std::result::Result<(u64, usize, usize), Error>,
    Vec<String>,
    Vec<ChainEvent>,
);

fn run(script: &Script) -> std::result::Result<Ending, TestCaseError> {
    let order: Vec<JobId> = (1..=script.jobs).map(JobId).collect();
    let mut fake = Fake {
        script,
        world: World::new(script.jobs, script.parts, script.nodes),
        calls: 0,
        waits: 0,
        cancels: 0,
        recovered: None,
        cancelled: None,
        tracer: Tracer::new(),
        trace: Vec::new(),
        violations: Vec::new(),
        plans: Vec::new(),
    };
    let result = drive_chain(
        &mut fake,
        &ChainConfig {
            strategy: script.strategy,
            order: &order,
            max_attempts: script.max_attempts,
            retry: RetryPolicy::default(),
            seed: 7,
        },
    );
    prop_assert!(
        fake.violations.is_empty(),
        "{:?}\ntrace: {:#?}",
        fake.violations,
        fake.trace
    );
    prop_assert!(fake.waits <= fake.cancels);
    let (events, spans) = match read_back(&fake.tracer) {
        Ok(read) => read,
        Err(why) => return Err(TestCaseError::fail(why)),
    };
    if let Err(why) = check_grammar(&events, &fake.plans, result.is_err()) {
        prop_assert!(false, "{why}\nevents: {:#?}", events);
    }
    // No livelock: passes × (jobs + cancels, each recovered by at most
    // `max_attempts` plans of at most `jobs` steps).
    let (a, j) = (u64::from(script.max_attempts), u64::from(script.jobs));
    prop_assert!(
        fake.calls <= a * (j + (a + 1) * (1 + a * j)),
        "{} runs",
        fake.calls
    );
    match &result {
        Ok(summary) => {
            prop_assert_eq!(summary.jobs_started, fake.calls);
            prop_assert!(summary.events.restarts() < script.max_attempts as usize);
            // One span per logged event, in order, and the stamps never
            // decrease: a loss's fault is no earlier than what came
            // before it, and no later than its detection.
            let kinds = spans.iter().map(|s| s.kind.clone());
            prop_assert!(summary.events.iter().map(ChainEvent::span_kind).eq(kinds));
            let mut last = 0.0;
            for (fault, at, e) in summary.events.stamped() {
                prop_assert!(
                    last <= fault && fault <= at,
                    "{e:?} at {fault}..{at} after {last}"
                );
                last = at;
            }
            prop_assert!(fake.world.lost(script.jobs).is_empty());
            prop_assert!((0..script.parts as usize).all(|p| fake.world.readable(script.jobs, p)));
            let adaptive = matches!(script.strategy, Resilience::AdaptiveHybrid { .. });
            prop_assert_eq!(
                summary.adaptation.len(),
                if adaptive { script.jobs as usize } else { 0 }
            );
        }
        // A typed ending names something true of the world. A restart
        // cannot bring a lost input back, so a restarting chain gives up
        // on a lost input with `DataLoss`, not by running out of passes.
        Err(Error::RecoveryExhausted { .. }) => {
            if script.strategy.recovery().is_none() {
                prop_assert!(fake.world.lost(0).is_empty(), "restarted over a lost input");
            }
        }
        Err(Error::DataLoss { path, partition }) => match partition {
            Some(p) => {
                prop_assert_eq!(path.as_str(), "file/0");
                prop_assert!(fake.world.lost(0).contains(p));
            }
            // A replication point deleted the input the cascade reached:
            // the loop says so before any backend looks for the file.
            None => {
                let file: usize = path["file/".len()..].parse().unwrap();
                prop_assert!(fake.world.reclaimed[file], "{path} was never reclaimed");
            }
        },
        Err(Error::NoLiveNodes) => prop_assert!(fake.world.live().is_empty()),
        Err(other) => prop_assert!(false, "untyped ending: {other}"),
    }
    if script.flake != Flake::None && script.kills.is_empty() {
        match (script.flake, &result) {
            (Flake::CancelJob(_), Err(Error::RecoveryExhausted { .. })) => {}
            // Nothing is ever lost, so no recovery run ever starts.
            (Flake::CancelRecoveries, Ok(_)) => {}
            other => prop_assert!(false, "flake ended in {other:?}"),
        }
    }
    let ending = result.map(|s| (s.jobs_started, s.events.restarts(), s.adaptation.len()));
    Ok((ending, fake.trace, events))
}

fn strategy() -> impl Strategy<Value = Resilience> {
    use Resilience as S;
    let split = || {
        prop_oneof![
            Just(SplitPolicy::None),
            Just(SplitPolicy::Fixed(2)),
            Just(SplitPolicy::Survivors),
        ]
    };
    let hotspot = prop_oneof![
        Just(HotspotMitigation::None),
        Just(HotspotMitigation::SplitReducers),
        Just(HotspotMitigation::SpreadOutput),
    ];
    // Often enough that hybrid points land between the kills.
    let eager = DynamicPolicy {
        failure_prob_per_job: 0.5,
        extra_replicas: 1,
        replication_byte_cost: 1.0,
        recompute_fraction: 1.0,
    };
    prop_oneof![
        (split(), hotspot).prop_map(|(split, hotspot)| S::Rcmp { split, hotspot }),
        (split(), Just(HotspotMitigation::None))
            .prop_map(|(split, hotspot)| S::Rcmp { split, hotspot }),
        Just(S::Optimistic),
        (2u32..4).prop_map(|factor| S::Replication { factor }),
        (split(), 1u32..4, prop::bool::ANY).prop_map(|(split, every_k, reclaim)| S::Hybrid {
            split,
            every_k,
            factor: 2,
            reclaim,
        }),
        (split(), prop::bool::ANY).prop_map(move |(split, reclaim)| S::Hybrid {
            split,
            every_k: eager.every_k(),
            factor: 2,
            reclaim,
        }),
        (split(), prop::bool::ANY).prop_map(|(split, reclaim)| S::AdaptiveHybrid {
            split,
            factor: 2,
            adapt: AdaptConfig {
                prior_rate: 0.5,
                ..AdaptConfig::default_for(4)
            },
            reclaim,
        }),
    ]
}

fn script() -> impl Strategy<Value = Script> {
    (
        (2u32..6, 1u32..7, 3u32..6),
        strategy(),
        2u32..6,
        prop::collection::vec((1u64..12, 0u32..6), 0..5),
        (0u32..8, 0u32..6),
    )
        .prop_map(
            |((jobs, parts, nodes), strategy, max_attempts, kills, (flake, flaky_job))| Script {
                jobs,
                parts,
                nodes,
                strategy,
                max_attempts,
                kills: kills
                    .into_iter()
                    .map(|(s, n)| FailureAt::at_job(s, n % nodes))
                    .collect(),
                flake: match flake {
                    0 => Flake::CancelJob(1 + flaky_job % jobs),
                    1 => Flake::CancelRecoveries,
                    _ => Flake::None,
                },
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn every_plan_is_sufficient_minimal_and_bounded_and_every_script_ends(script in script()) {
        let first = run(&script)?;
        prop_assert_eq!(first, run(&script)?);
    }
}

/// The scripts above must actually reach the states the properties
/// speak about; a generator that never loses data proves nothing.
#[test]
fn generated_scripts_cover_cascades_errors_and_points() {
    use proptest::strategy::Strategy as _;
    let mut seen: BTreeMap<&str, u32> = BTreeMap::new();
    for case in 0..1024 {
        let mut rng = proptest::test_runner::case_rng("coverage", case);
        let script = script().sample(&mut rng);
        let (ending, trace, _) = run(&script).unwrap();
        let mut hit = |what| *seen.entry(what).or_default() += 1;
        if trace
            .iter()
            .any(|t| t.starts_with("plan") && !t.ends_with(" 0 steps") && !t.ends_with(" 1 steps"))
        {
            hit("multi-step cascade");
        }
        if trace.iter().any(|t| t.starts_with("replicate")) {
            hit("replication point");
        }
        if trace.iter().any(|t| t == "restart") {
            hit("restart");
        }
        if trace
            .iter()
            .any(|t| t.contains("re-") && t.ends_with("cancelled"))
        {
            hit("nested failure");
        }
        match ending {
            Ok(_) => hit("ok"),
            Err(Error::RecoveryExhausted { .. }) => hit("exhausted"),
            Err(Error::DataLoss { .. }) => hit("data loss"),
            Err(Error::NoLiveNodes) => hit("no live nodes"),
            Err(_) => hit("other"),
        }
    }
    for what in [
        "multi-step cascade",
        "replication point",
        "restart",
        "nested failure",
        "ok",
        "exhausted",
        "data loss",
    ] {
        assert!(
            seen.get(what).copied().unwrap_or(0) >= 8,
            "{what}: {seen:?}"
        );
    }
}
