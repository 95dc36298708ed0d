//! Simulates a whole multi-job chain under a failure-resilience
//! strategy, with scripted failure injection.
//!
//! The control flow — cancel, plan the cascade, recompute, replan on a
//! nested failure, restart under OPTIMISTIC/REPL, place hybrid
//! replication points — is `rcmp_policy::drive_chain`, the loop the
//! real middleware runs. This module is its simulator backend: it
//! answers the planner's lineage questions from the sim state's
//! placement and map-output validity, runs jobs through [`JobSim`], and
//! charges simulated seconds — a failure `offset` seconds into a job
//! wastes `offset + detect_timeout` seconds, then the job is discarded
//! and restarted (§V-A). Its clock is the simulated one, so the loop's
//! event log is stamped in simulated seconds and a loss's fault and
//! detection stamps lie `detect_timeout` apart.

use crate::hw::HwProfile;
use crate::jobsim::JobSim;
use crate::report::{SimChainReport, SimJobReport};
use crate::state::{FileId, Node, SimState};
use crate::workload::WorkloadCfg;
use rcmp_model::{
    ChainCacheConfig, Error, JobId, NodeId, PartitionId, PlacementKernel, Result, RetryPolicy,
};
use rcmp_policy::{
    drive_chain, ChainBackend, ChainConfig, Clock, LineageView, Loss, Membership, Reclaimed,
    RecoveryStep, RunOutcome, Stamp, Strategy, TaskCounts,
};
use std::collections::BTreeSet;

/// One scripted failure: kill `node` `offset` seconds into run `seq`
/// (the paper injects 15 s after job start; seq numbering counts every
/// run, so "failure at job 7" after earlier recomputations shifts —
/// exactly the paper's Fig. 7 numbering).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FailureAt {
    pub seq: u64,
    pub offset: f64,
    pub node: Node,
}

impl FailureAt {
    /// The paper's standard injection: 15 s into run `seq`.
    pub fn at_job(seq: u64, node: Node) -> Self {
        Self {
            seq,
            offset: 15.0,
            node,
        }
    }
}

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
    /// Seed the backoff jitter derives from (the engine uses
    /// `ClusterConfig::seed`).
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

/// A reading of the simulated clock.
fn sim_time(at: f64) -> Stamp {
    Stamp {
        clock: Clock::SimSeconds,
        at,
    }
}

/// Bound on chain restarts, recovery cycles per job and replans per
/// recovery — the engine's `ClusterConfig::max_recovery_attempts`.
const MAX_ATTEMPTS: u32 = 100;

/// Simulates the chain to completion.
///
/// # Panics
///
/// When the chain cannot complete — every node failed, external input
/// lost, recovery exhausted — with the typed error's message.
pub fn simulate_chain(cfg: &ChainSimConfig) -> SimChainReport {
    let mut runner = Runner::new(cfg);
    let order: Vec<JobId> = (1..=cfg.wl.jobs).map(JobId).collect();
    let chain = ChainConfig {
        strategy: cfg.strategy,
        order: &order,
        max_attempts: MAX_ATTEMPTS,
        retry: cfg.retry,
        seed: cfg.seed,
    };
    let summary = drive_chain(&mut runner, &chain)
        .unwrap_or_else(|e| panic!("chain simulation cannot complete: {e}"));
    let mut report = runner.report;
    report.total_time = runner.t;
    report.jobs_started = summary.jobs_started;
    report.adaptation = summary.adaptation;
    report.events = summary.events;
    report
}

/// The simulator backend of the chain loop: job runs are [`JobSim`]
/// runs charged to a simulated clock, failures come from the script in
/// [`ChainSimConfig::failures`], and the clock is simulated seconds.
struct Runner<'a> {
    cfg: &'a ChainSimConfig,
    js: JobSim,
    state: SimState,
    report: SimChainReport,
    t: f64,
}

impl<'a> Runner<'a> {
    fn new(cfg: &'a ChainSimConfig) -> Self {
        let mut state = SimState::new(&cfg.wl);
        if let Some(m) = &cfg.membership {
            state.set_membership(m.clone());
        }
        if cfg.chain_cache.enabled {
            state.enable_chain_cache(cfg.chain_cache.budget.as_u64());
        }
        Self {
            cfg,
            js: JobSim::new(cfg.hw.clone(), cfg.wl.clone()).with_placement(cfg.placement),
            state,
            report: SimChainReport::default(),
            t: 0.0,
        }
    }

    /// Applies the failures scripted for run `seq` (the paper's FAIL
    /// X,X case injects two in the same job), one [`Loss`] each. The
    /// work until detection is wasted: the paper's RCMP discards partial
    /// results, and the same accounting applies to every strategy — a
    /// ~45 s symmetric penalty.
    fn inject_failures(&mut self, seq: u64) -> Vec<Loss> {
        let mut losses = Vec::new();
        for f in self.cfg.failures.iter().filter(|f| f.seq == seq) {
            let fault = sim_time(self.t + f.offset);
            self.t += f.offset + self.cfg.hw.detect_timeout;
            let lost = self.state.fail_node(f.node);
            losses.push(Loss {
                node: Some(NodeId(f.node)),
                lost_partitions: lost.values().map(BTreeSet::len).sum(),
                fault,
                detected: self.now(),
            });
        }
        losses
    }

    fn completed(&mut self, seq: u64, mut rep: SimJobReport, losses: Vec<Loss>) -> RunOutcome {
        rep.seq = seq;
        self.t += rep.duration;
        let tasks = TaskCounts {
            map_tasks_run: rep.mappers_run,
            map_tasks_reused: rep.mappers_reused,
            reduce_tasks_run: rep.reduce_tasks_run,
        };
        self.report.runs.push(rep);
        RunOutcome {
            losses,
            completed: Some(tasks),
            resumed: false,
        }
    }

    fn lost_partitions(&self, file: FileId) -> BTreeSet<PartitionId> {
        self.state
            .files
            .get(&file)
            .map(|f| f.lost_partitions(&self.state))
            .unwrap_or_default()
            .into_iter()
            .map(PartitionId)
            .collect()
    }
}

impl LineageView for Runner<'_> {
    /// File `j` is job `j`'s output; file 0 is the external input.
    fn producer(&self, job: JobId) -> Option<JobId> {
        (job.0 > 1).then(|| JobId(job.0 - 1))
    }

    fn lost_input(&self, job: JobId) -> Result<BTreeSet<PartitionId>> {
        Ok(self.lost_partitions(job.0 - 1))
    }

    fn rerun_input(&self, job: JobId) -> Result<BTreeSet<PartitionId>> {
        let input = job.0 - 1;
        let block = self.cfg.wl.block_size.as_u64();
        Ok(self
            .state
            .file_blocks(input, block)
            .into_iter()
            .filter(|&(pid, blk, _, _)| {
                let version = self.state.partition_version(input, pid);
                !self.state.map_output_valid((job.0, pid, blk), version)
            })
            .map(|(pid, ..)| PartitionId(pid))
            .collect())
    }

    fn survivors(&self) -> usize {
        self.state.live_nodes().len()
    }

    fn input_path(&self, job: JobId) -> String {
        match job.0 - 1 {
            0 => "input".to_string(),
            file => format!("out/{file}"),
        }
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

    /// One full attempt of the job: the simulator always discards a
    /// cancelled job's partial results (§V-A), so a retry is a full run.
    fn run_job(&mut self, seq: u64, job: JobId, _retry: bool) -> Result<RunOutcome> {
        let losses = self.inject_failures(seq);
        if self.state.live_nodes().is_empty() {
            return Err(Error::NoLiveNodes);
        }
        // This or a previous failure may have broken the input.
        if !self.lost_partitions(job.0 - 1).is_empty() {
            return Ok(RunOutcome::cancelled(losses));
        }
        let strategy = self.cfg.strategy;
        let rep = self.js.run_full(
            &mut self.state,
            job.0,
            strategy.output_replication(),
            strategy.persists_outputs(),
        )?;
        Ok(self.completed(seq, rep, losses))
    }

    /// A failure scripted onto a recovery run cancels it (§IV-A).
    fn run_recompute(&mut self, seq: u64, step: RecoveryStep) -> Result<RunOutcome> {
        let losses = self.inject_failures(seq);
        if !losses.is_empty() {
            return Ok(RunOutcome::cancelled(losses));
        }
        let persist = self.cfg.strategy.persists_outputs();
        let rep =
            self.js
                .run_recompute(&mut self.state, step.job.0, &step.instructions, persist)?;
        Ok(self.completed(seq, rep, losses))
    }

    /// The delay the engine sleeps shows up as simulated time.
    fn wait(&mut self, ms: u64) {
        let secs = ms as f64 / 1000.0;
        self.t += secs;
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
        let live = self.state.live_nodes().len().max(1) as f64;
        let secs = copies as f64 / (self.cfg.hw.disk_write_bw * live);
        self.t += secs;
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
    use rcmp_policy::{ChainEvent, SplitPolicy};

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
        let holders = SimState::new(&wl_small()).files[&0].partitions[0].segments[0]
            .holders
            .clone();
        assert_eq!(holders.len(), 3);
        let kills = holders.iter().map(|&n| FailureAt::at_job(2, n)).collect();
        run(Strategy::rcmp_no_split(), kills);
    }

    #[test]
    #[should_panic(expected = "no live nodes")]
    fn fully_dead_cluster_is_typed_no_live_nodes() {
        let kills = (0..wl_small().nodes)
            .map(|n| FailureAt::at_job(1, n))
            .collect();
        run(Strategy::rcmp_no_split(), kills);
    }

    /// A failure scripted onto every recovery run: recovery never gets
    /// to finish a plan, and gives up after the replan budget instead
    /// of recursing once per failure.
    #[test]
    #[should_panic(expected = "nested-failure recovery did not converge")]
    fn failure_on_every_recovery_run_exhausts_the_replan_budget() {
        let mut failures = vec![FailureAt::at_job(4, 5)];
        failures.extend((5..400).map(|seq| FailureAt::at_job(seq, 5)));
        run(Strategy::rcmp_no_split(), failures);
    }
}
