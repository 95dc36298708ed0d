//! Simulates a whole multi-job chain under a failure-resilience
//! strategy, with scripted failure injection.
//!
//! The control flow — cancel, plan the cascade, recompute, replan on a
//! nested failure, restart under OPTIMISTIC/REPL, place hybrid
//! replication points — is `rcmp_policy::drive_chain`, the loop the
//! real middleware runs. This module is its simulator backend: it
//! answers the planner's lineage questions from the sim state's
//! placement and map-output validity, runs jobs through [`JobSim`] —
//! the job machine `rcmp_policy::run_job`, as the engine's tracker
//! does — and charges simulated seconds. The fault script is the
//! engine's ([`FailureAt`]), and its crashes and drains fire at the
//! machine's points on both clocks. The k-th crash scripted for a run's
//! `JobStart` strikes 15·k s after the previous one was detected (after
//! the run started, for the first) and wastes that offset plus
//! `detect_timeout`, then the job is discarded and restarted (§V-A); a
//! crash at a wave boundary strikes there and costs `detect_timeout`.
//! A drain takes no time. The loop's event log is stamped in simulated
//! seconds, and a loss's fault and detection stamps lie
//! `detect_timeout` apart. The chain's trace — written by the job
//! machine, the chain loop and the waves, on a tracer whose clock is
//! set from the same simulated seconds — comes back in
//! [`SimChainReport::trace`].

use crate::hw::HwProfile;
use crate::jobsim::{sim_time, JobSim, Script, SimTrace};
use crate::report::SimChainReport;
use crate::state::{file_path, SimState};
use crate::workload::WorkloadCfg;
use rcmp_model::{ChainCacheConfig, Error, JobId, PlacementKernel, Result, RetryPolicy};
use rcmp_obs::{SpanId, Tracer};
use rcmp_policy::{
    drive_chain, ChainBackend, ChainConfig, Fault, InputView, LineageView, Membership, Reclaimed,
    RecomputePlan, RecoveryStep, RunOutcome, Stamp, Strategy, TaskCounts,
};

pub use rcmp_policy::FailureAt;

/// Chain simulation configuration.
#[derive(Clone, Debug)]
pub struct ChainSimConfig {
    pub hw: HwProfile,
    pub wl: WorkloadCfg,
    pub strategy: Strategy,
    pub failures: Vec<FailureAt>,
    /// Retry budgets and seeded backoff (the engine's
    /// `ClusterConfig::retry`): the same full-jitter delays the engine
    /// sleeps show up here as simulated time.
    pub retry: RetryPolicy,
    /// Seed the backoff jitter and the replica-target keys derive from
    /// (the engine uses `ClusterConfig::seed` for both).
    pub seed: u64,
    /// Placement kernel (the engine's `ClusterConfig::placement`).
    pub placement: PlacementKernel,
    /// Optional initial membership (racks, heterogeneous capacities).
    /// `None` = uniform over `wl.nodes`.
    pub membership: Option<Membership>,
    /// Inter-job chain cache (the engine's `ClusterConfig::chain_cache`):
    /// when enabled, each job's reducer outputs stay memory-resident
    /// (within the budget) for the next job's mappers.
    pub chain_cache: ChainCacheConfig,
}

impl ChainSimConfig {
    pub fn new(hw: HwProfile, wl: WorkloadCfg, strategy: Strategy) -> Self {
        Self {
            hw,
            wl,
            strategy,
            failures: Vec::new(),
            retry: RetryPolicy::default(),
            seed: 0,
            placement: PlacementKernel::Default,
            membership: None,
            chain_cache: ChainCacheConfig::default(),
        }
    }

    pub fn with_failures(mut self, failures: Vec<FailureAt>) -> Self {
        self.failures = failures;
        self
    }

    /// Overrides the retry policy and the seed its jitter derives from.
    pub fn with_retry(mut self, retry: RetryPolicy, seed: u64) -> Self {
        self.retry = retry;
        self.seed = seed;
        self
    }

    /// Selects the placement kernel every run schedules with.
    pub fn with_placement(mut self, kernel: PlacementKernel) -> Self {
        self.placement = kernel;
        self
    }

    /// Starts the chain from an explicit membership (racked or
    /// heterogeneous) instead of a uniform one. Must cover `wl.nodes`.
    pub fn with_membership(mut self, membership: Membership) -> Self {
        self.membership = Some(membership);
        self
    }

    /// Enables the inter-job chain cache with the given byte budget.
    pub fn with_chain_cache(mut self, budget: rcmp_model::ByteSize) -> Self {
        self.chain_cache = ChainCacheConfig::enabled(budget);
        self
    }
}

/// Bound on chain restarts, recovery cycles per job and replans per
/// recovery — the engine's `ClusterConfig::max_recovery_attempts`.
const MAX_ATTEMPTS: u32 = 100;

/// Simulates the chain to completion.
///
/// # Panics
///
/// When [`try_simulate_chain`] fails, with the typed error's message.
pub fn simulate_chain(cfg: &ChainSimConfig) -> SimChainReport {
    try_simulate_chain(cfg).unwrap_or_else(|e| panic!("chain simulation cannot complete: {e}"))
}

/// Simulates the chain to completion, or to the typed error that ends
/// it: every node failed, external or reclaimed input lost, recovery
/// exhausted, or a scripted fault the simulator cannot replay
/// ([`Error::Config`]).
pub fn try_simulate_chain(cfg: &ChainSimConfig) -> Result<SimChainReport> {
    let replayable =
        |f: &&FailureAt| matches!(f.fault, Fault::NodeCrash(_) | Fault::NodeDrain { .. });
    if let Some(f) = cfg.failures.iter().find(|f| !replayable(f)) {
        return Err(Error::Config(format!(
            "the simulator replays crashes and drains only, not {f:?}"
        )));
    }
    let mut runner = Runner::new(cfg);
    let order: Vec<JobId> = (1..=cfg.wl.jobs).map(JobId).collect();
    let chain = ChainConfig {
        strategy: cfg.strategy,
        order: &order,
        max_attempts: MAX_ATTEMPTS,
        retry: cfg.retry,
        seed: cfg.seed,
    };
    let summary = drive_chain(&mut runner, &chain)?;
    let mut report = runner.report;
    report.total_time = runner.t;
    report.jobs_started = summary.jobs_started;
    report.adaptation = summary.adaptation;
    report.events = summary.events;
    report.trace = runner.trace.tracer.snapshot();
    Ok(report)
}

/// The simulator backend of the chain loop: job runs are [`JobSim`]
/// runs charged to a simulated clock, failures come from the script in
/// [`ChainSimConfig::failures`], and the clock is simulated seconds.
struct Runner<'a> {
    cfg: &'a ChainSimConfig,
    js: JobSim,
    state: SimState,
    report: SimChainReport,
    /// The chain clock, simulated seconds; `trace`'s clock follows it.
    t: f64,
    trace: SimTrace,
}

impl<'a> Runner<'a> {
    fn new(cfg: &'a ChainSimConfig) -> Self {
        let membership =
            (cfg.membership.clone()).unwrap_or_else(|| Membership::uniform(cfg.wl.nodes));
        let mut state = SimState::with_membership(&cfg.wl, cfg.seed, membership);
        if cfg.chain_cache.enabled {
            state.enable_chain_cache(cfg.chain_cache.budget.as_u64());
        }
        Self {
            cfg,
            js: JobSim::new(cfg.hw.clone(), cfg.wl.clone()).with_placement(cfg.placement),
            state,
            report: SimChainReport::default(),
            t: 0.0,
            trace: SimTrace::default(),
        }
    }

    /// Moves the chain clock `secs` ahead.
    fn advance(&mut self, secs: f64) {
        self.t += secs;
        self.trace.set(self.t);
    }

    /// Runs `job` through [`JobSim`] with the faults scripted for run
    /// `seq` fired at its points, and charges the clock: a run that
    /// finishes its duration, a cancelled one the time until its input
    /// was found lost. The work until a crash's detection is wasted:
    /// the paper's RCMP discards partial results, and the same
    /// accounting applies to every strategy — a ~45 s symmetric penalty
    /// for the first `JobStart` crash. A cancellation (JobInit found the
    /// input lost) is what `EngineChain::execute` makes of the
    /// tracker's `JobInputLost`. `cause` is the span that caused the run.
    fn run(
        &mut self,
        seq: u64,
        job: JobId,
        plan: Option<&RecomputePlan>,
        replication: u32,
        cause: Option<SpanId>,
    ) -> Result<RunOutcome> {
        let entries: Vec<FailureAt> = (self.cfg.failures.iter())
            .filter(|f| f.seq == seq)
            .copied()
            .collect();
        let mut script = Script {
            seq,
            cause,
            entries: &entries,
            task_retries: self.cfg.retry.task_retries,
            clock: self.t,
            ..Script::default()
        };
        let persist = self.cfg.strategy.persists_outputs();
        let (js, state, trace) = (&self.js, &mut self.state, &self.trace);
        let run = js.run_scripted(state, job.0, plan, replication, persist, &mut script, trace);
        self.t = script.clock;
        let completed = match run {
            Ok(mut rep) => {
                rep.seq = seq;
                self.advance(rep.duration);
                let tasks = TaskCounts {
                    map_tasks_run: rep.mappers_run,
                    map_tasks_reused: rep.mappers_reused,
                    reduce_tasks_run: rep.reduce_tasks_run,
                };
                self.report.runs.push(rep);
                Some(tasks)
            }
            Err(Error::JobInputLost { .. }) => {
                self.advance(script.elapsed);
                None
            }
            Err(e) => return Err(e),
        };
        Ok(RunOutcome {
            losses: script.losses,
            completed,
            last_loss: script.last_loss,
        })
    }
}

impl LineageView for Runner<'_> {
    /// File `j` is job `j`'s output; file 0 is the external input.
    fn producer(&self, job: JobId) -> Option<JobId> {
        (job.0 > 1).then(|| JobId(job.0 - 1))
    }

    fn input(&self, job: JobId) -> Result<InputView> {
        let blocks = (self.state).input_blocks(job.0, self.cfg.wl.block_size.as_u64());
        Ok(self.state.input_view(job.0, &blocks))
    }

    fn survivors(&self) -> usize {
        self.state.membership().schedulable().len()
    }

    fn input_path(&self, job: JobId) -> String {
        file_path(job.0 - 1)
    }
}

impl ChainBackend for Runner<'_> {
    type Lineage = Self;

    fn lineage(&self) -> &Self {
        self
    }

    fn now(&self) -> Stamp {
        sim_time(self.t)
    }

    fn tracer(&self) -> &Tracer {
        &self.trace.tracer
    }

    /// One full attempt of the job: the simulator always discards a
    /// cancelled job's partial results (§V-A), so a retry is a full run.
    fn run_job(&mut self, seq: u64, job: JobId, _retry: bool) -> Result<RunOutcome> {
        let replication = self.cfg.strategy.output_replication();
        self.run(seq, job, None, replication, None)
    }

    /// A crash scripted onto a recovery run cancels it when a mapper
    /// the step must re-run lost its input (§IV-A), as JobInit does on
    /// every run; a crash that spares that input leaves the step running
    /// on the survivors, and the loop replans after it.
    fn run_recompute(&mut self, seq: u64, step: RecoveryStep, plan: SpanId) -> Result<RunOutcome> {
        self.run(seq, step.job, Some(&step.instructions), 1, Some(plan))
    }

    /// The delay the engine sleeps shows up as simulated time.
    fn wait(&mut self, ms: u64) {
        let secs = ms as f64 / 1000.0;
        self.advance(secs);
        self.report.backoff_secs += secs;
    }

    fn restart(&mut self) -> Result<()> {
        for job in 1..=self.cfg.wl.jobs {
            self.state.clear_job_outputs(job);
            if let Some(f) = self.state.files.get_mut(&job) {
                f.partitions.clear();
            }
        }
        Ok(())
    }

    /// Raises the job's output to `factor` replicas, paying the copy
    /// time: a cluster-wide parallel copy, bottlenecked on disk writes.
    fn replicate(&mut self, job: JobId, factor: u32, reclaim: bool) -> Result<Reclaimed> {
        let j = job.0;
        let bytes = self.state.files.get(&j).map(|f| f.bytes()).unwrap_or(0);
        let copies = (factor.saturating_sub(1)) as u64 * bytes;
        let live = self.state.membership().schedulable().len().max(1) as f64;
        let secs = copies as f64 / (self.cfg.hw.disk_write_bw * live);
        self.advance(secs);
        self.state.replicate_file(j, factor);
        let mut freed = Reclaimed::default();
        if reclaim {
            for job in 1..=j {
                freed.map_entries_dropped += self.state.clear_job_outputs(job);
            }
            for job in 1..j {
                if let Some(f) = self.state.files.get_mut(&job) {
                    freed.files_deleted += usize::from(!f.partitions.is_empty());
                    f.partitions.clear();
                }
            }
        }
        Ok(freed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_model::{ByteSize, SlotConfig};
    use rcmp_policy::{ChainEvent, SplitPolicy, TriggerPoint};

    fn wl_small() -> WorkloadCfg {
        WorkloadCfg {
            nodes: 6,
            slots: SlotConfig::ONE_ONE,
            jobs: 4,
            per_node_input: ByteSize::mib(512),
            block_size: ByteSize::mib(128),
            num_reducers: 6,
            map_ratio: 1.0,
            reduce_ratio: 1.0,
            input_replication: 3,
        }
    }

    fn run(strategy: Strategy, failures: Vec<FailureAt>) -> SimChainReport {
        let cfg =
            ChainSimConfig::new(HwProfile::stic(), wl_small(), strategy).with_failures(failures);
        simulate_chain(&cfg)
    }

    #[test]
    fn failure_free_rcmp_beats_replication() {
        let rcmp = run(Strategy::rcmp_no_split(), vec![]);
        let repl2 = run(Strategy::Replication { factor: 2 }, vec![]);
        let repl3 = run(Strategy::Replication { factor: 3 }, vec![]);
        assert_eq!(rcmp.jobs_started, 4);
        assert!(
            repl2.total_time > rcmp.total_time * 1.1,
            "{} vs {}",
            repl2.total_time,
            rcmp.total_time
        );
        assert!(
            repl3.total_time > repl2.total_time,
            "{} vs {}",
            repl3.total_time,
            repl2.total_time
        );
    }

    #[test]
    fn optimistic_equals_rcmp_without_failures() {
        let rcmp = run(Strategy::rcmp_no_split(), vec![]);
        let opt = run(Strategy::Optimistic, vec![]);
        assert!((rcmp.total_time - opt.total_time).abs() < 1.0);
    }

    #[test]
    fn single_failure_rcmp_recovers_with_recomputation() {
        let clean = run(Strategy::rcmp_no_split(), vec![]);
        let failed = run(Strategy::rcmp_no_split(), vec![FailureAt::at_job(3, 5)]);
        assert!(failed.jobs_started > 4, "recomputations happened");
        assert!(failed.recompute_runs().count() > 0);
        assert!(failed.total_time > clean.total_time);
        // Recovery is far cheaper than re-running everything.
        let opt = run(Strategy::Optimistic, vec![FailureAt::at_job(3, 5)]);
        assert!(
            failed.total_time < opt.total_time,
            "RCMP {} !< OPTIMISTIC {}",
            failed.total_time,
            opt.total_time
        );
    }

    #[test]
    fn late_failure_cascades_further_than_early() {
        let early = run(Strategy::rcmp_no_split(), vec![FailureAt::at_job(2, 5)]);
        let late = run(Strategy::rcmp_no_split(), vec![FailureAt::at_job(4, 5)]);
        assert!(
            late.recompute_runs().count() >= early.recompute_runs().count(),
            "late failures recompute at least as many jobs"
        );
    }

    #[test]
    fn split_recovery_is_faster() {
        let no_split = run(Strategy::rcmp_no_split(), vec![FailureAt::at_job(4, 5)]);
        let split = run(Strategy::rcmp_split(5), vec![FailureAt::at_job(4, 5)]);
        assert!(
            split.total_time < no_split.total_time,
            "split {} !< no-split {}",
            split.total_time,
            no_split.total_time
        );
    }

    #[test]
    fn replication_absorbs_failure_without_restart() {
        let r = run(
            Strategy::Replication { factor: 2 },
            vec![FailureAt::at_job(3, 5)],
        );
        assert_eq!(r.events.restarts(), 0);
        assert_eq!(r.jobs_started, 4, "no resubmissions: intra-job recovery");
    }

    #[test]
    fn optimistic_restarts_on_loss() {
        let r = run(Strategy::Optimistic, vec![FailureAt::at_job(3, 5)]);
        assert_eq!(r.events.restarts(), 1);
        assert!(r.jobs_started > 4);
    }

    #[test]
    fn hybrid_replication_points_fire_and_bound_cascade() {
        let r = run(
            Strategy::Hybrid {
                split: SplitPolicy::None,
                every_k: 2,
                factor: 2,
                reclaim: false,
            },
            vec![FailureAt::at_job(4, 5)],
        );
        let points: Vec<u32> = r
            .events
            .iter()
            .filter_map(|e| match e {
                ChainEvent::ReplicationPoint { job, .. } => Some(job.0),
                _ => None,
            })
            .collect();
        assert!(points.contains(&2));
        // No recompute run at or below the replication point at job 2.
        for run in r.recompute_runs() {
            assert!(
                run.job > 2,
                "cascade crossed replication point: job {}",
                run.job
            );
        }
    }

    #[test]
    fn nested_failure_replans() {
        // Second failure lands on the first recovery run (seq 5).
        let r = run(
            Strategy::rcmp_no_split(),
            vec![FailureAt::at_job(4, 5), FailureAt::at_job(5, 4)],
        );
        assert!(r.jobs_started > 5);
        assert_eq!(r.events.losses(), 2);
    }

    #[test]
    fn double_failure_rcmp_still_completes() {
        let r = run(
            Strategy::rcmp_split(4),
            vec![FailureAt::at_job(2, 0), FailureAt::at_job(6, 3)],
        );
        assert!(r.total_time > 0.0);
        assert_eq!(r.events.losses(), 2);
    }

    /// External input has no producer: once every holder of one of its
    /// blocks is dead the cascade has nowhere to stop, and the shared
    /// planner says so with a typed error.
    #[test]
    #[should_panic(expected = "irreversible data loss: input partition")]
    fn lost_external_input_is_typed_data_loss() {
        let holders = SimState::new(&wl_small(), 0).files[&0].partitions[0].segments[0]
            .holders
            .clone();
        assert_eq!(holders.len(), 3);
        let kills = holders.iter().map(|&n| FailureAt::at_job(2, n)).collect();
        run(Strategy::rcmp_no_split(), kills);
    }

    /// Every node killed as run 1 starts: JobInit finds the input lost
    /// and cancels the run, and the planner ends the chain in typed data
    /// loss on the external input — what the engine does (the machine
    /// checks for a live node per phase, after JobInit, on both clocks).
    #[test]
    #[should_panic(expected = "irreversible data loss: input partition")]
    fn fully_dead_cluster_is_typed_data_loss_on_the_input() {
        let kills = (0..wl_small().nodes)
            .map(|n| FailureAt::at_job(1, n))
            .collect();
        run(Strategy::rcmp_no_split(), kills);
    }

    /// A run checks its plan before it fires its `JobStart` entries, on
    /// both clocks (the engine's
    /// `invalid_plan_is_rejected_before_the_job_start_fire`): the crash
    /// scripted onto a run with an invalid plan never strikes.
    #[test]
    fn job_start_fire_and_plan_validation_order() {
        let cfg = ChainSimConfig::new(HwProfile::stic(), wl_small(), Strategy::rcmp_no_split())
            .with_failures(vec![FailureAt::at_job(1, 0)]);
        let mut runner = Runner::new(&cfg);
        let step = RecoveryStep {
            job: JobId(1),
            instructions: rcmp_policy::RecomputePlan::new([99u32], None),
        };
        let err = (runner.run_recompute(1, step, rcmp_obs::SpanId(1))).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        assert!(runner.state.is_alive(0), "the crash never fired");
    }

    /// A crash at a wave boundary strikes there: its fault stamp lies
    /// past the run's start by the run's waves so far, and it is
    /// detected `detect_timeout` later. The fault shapes the simulator
    /// has no model for are a configuration error, at any point.
    #[test]
    fn wave_point_crashes_replay_and_other_shapes_are_config() {
        let node = rcmp_model::NodeId(1);
        let at = |point, fault| FailureAt {
            seq: 2,
            point,
            fault,
        };
        let crash = at(TriggerPoint::AfterMapWave(0), Fault::NodeCrash(node));
        let r = run(Strategy::rcmp_no_split(), vec![crash]);
        let (started, fault, detected) =
            (r.events.stamped()).fold((0.0, 0.0, 0.0), |acc, (fault, at, e)| match e {
                ChainEvent::JobStarted { seq: 2, .. } => (at, acc.1, acc.2),
                ChainEvent::LossObserved { .. } => (acc.0, fault, at),
                _ => acc,
            });
        assert!(fault > started, "{started} {fault}");
        let timeout = HwProfile::stic().detect_timeout;
        assert!(
            (detected - fault - timeout).abs() < 1e-9,
            "{fault} {detected}"
        );
        for fault in [
            Fault::CorruptReplica { node },
            Fault::TornWrite { node },
            Fault::ShuffleFlake { node, times: 1 },
        ] {
            let cfg = ChainSimConfig::new(HwProfile::stic(), wl_small(), Strategy::rcmp_no_split())
                .with_failures(vec![at(TriggerPoint::MidReduceWave(0), fault)]);
            let err = try_simulate_chain(&cfg).map(|_| ()).unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{fault:?}: {err}");
        }
    }

    /// A chain records its trace on the simulated clock, seconds as
    /// microseconds: each run's `JobRun` span starts when the log says
    /// it started and, when it completed, ends there, holding one `Wave`
    /// per wave and one ok `Task` per task the run executed, each inside
    /// its wave. The crash's `Loss` is caused by its `Fault` and stamped
    /// at its detection, the plan is caused by the loss, and each
    /// recomputation run by the plan.
    #[test]
    fn a_chain_traces_its_runs_on_the_simulated_clock() {
        use rcmp_obs::{Span, SpanKind};
        let r = run(Strategy::rcmp_no_split(), vec![FailureAt::at_job(3, 5)]);
        let us = |secs: f64| (secs * 1e6).round() as u64;
        let spans = r.trace.spans();
        let of = |name: &'static str| spans.iter().filter(move |s| s.kind.name() == name);
        let at = |what: fn(&ChainEvent) -> bool| -> Vec<u64> {
            let stamped = r.events.stamped().filter(|(.., e)| what(e));
            stamped.map(|(_, at, _)| us(at)).collect()
        };
        let started = at(|e| matches!(e, ChainEvent::JobStarted { .. }));
        let completed = at(|e| matches!(e, ChainEvent::JobCompleted { .. }));
        let runs: Vec<&Span> = of("JobRun").collect();
        assert_eq!(runs.len() as u64, r.jobs_started);
        let mut completed = completed.into_iter();
        for (run, &start) in runs.iter().zip(&started) {
            let SpanKind::JobRun { seq, ok, .. } = run.kind else {
                unreachable!()
            };
            assert_eq!(run.start_us, start, "run {seq}");
            let Some(rep) = r.runs.iter().find(|rep| rep.seq == seq) else {
                assert!(!ok, "run {seq} was cancelled");
                continue;
            };
            assert_eq!(Some(run.end_us), completed.next(), "run {seq}");
            let waves: Vec<&Span> = of("Wave").filter(|w| w.parent == Some(run.id)).collect();
            assert_eq!(waves.len() as u32, rep.map_waves + rep.reduce_waves);
            let tasks = of("Task").filter(|t| {
                let wave = waves.iter().find(|w| Some(w.id) == t.parent);
                wave.is_some_and(|w| w.start_us <= t.start_us && t.end_us <= w.end_us)
            });
            assert_eq!(tasks.count(), rep.mappers_run + rep.reduce_tasks_run);
        }
        let (fault, loss) = (of("Fault").next().unwrap(), of("Loss").next().unwrap());
        assert_eq!(loss.cause, Some(fault.id));
        assert_eq!(
            loss.start_us,
            at(|e| matches!(e, ChainEvent::LossObserved { .. }))[0]
        );
        let plan = of("RecoveryPlan").next().unwrap();
        assert_eq!(plan.cause, Some(loss.id));
        let recomputes = runs.iter().filter(|s| match s.kind {
            SpanKind::JobRun { recompute, .. } => recompute,
            _ => false,
        });
        assert!(recomputes.clone().count() > 0);
        assert!(recomputes.clone().all(|s| s.cause == Some(plan.id)));
    }

    /// A crash scripted onto every run from run 4 on, all of the node
    /// run 4 killed: the later ones destroy nothing, so each recovery
    /// step finishes on the survivors and the loop replans after it, as
    /// on the engine, until the chain completes.
    #[test]
    fn crashes_that_spare_every_recovery_step_still_converge() {
        let failures = (4..400).map(|seq| FailureAt::at_job(seq, 5)).collect();
        let r = run(Strategy::rcmp_no_split(), failures);
        assert_eq!(r.events.losses() as u64, r.jobs_started - 3);
        let plans: Vec<usize> = r.events.recoveries().map(|(_, steps, _)| steps).collect();
        assert_eq!(plans, [3, 2, 1, 0]);
    }
}
