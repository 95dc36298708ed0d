//! The middleware driver: runs a multi-job computation under a strategy
//! on the real engine.
//!
//! The paper's "middleware program" (§IV-A) — submit jobs in dependency
//! order, cancel a job whose input is irreversibly lost, plan and
//! execute cascading recomputation (RCMP) or restart the chain
//! (OPTIMISTIC / exhausted replication), replan on nested failures,
//! place replication points (hybrid) — is `rcmp_policy::drive_chain`,
//! the loop the simulator also runs. This module is its engine backend:
//! a job run is a [`JobTracker`] run against the cluster, a backoff is
//! a real sleep, a replication point is `replicate_file` plus
//! [`reclaim_before`], and time is wall-clock microseconds since the
//! chain started. The loop writes the [`EventLog`] and the chain's
//! spans on the cluster's tracer; this backend records plans, recovery
//! runs and adaptive decisions in the flight recorder, and charges the
//! phase profiler.

use crate::dag::JobGraph;
use crate::planner::ClusterLineage;
use crate::reclaim::reclaim_before;
use crate::strategy::Strategy;
use rcmp_engine::{
    Cluster, FailureInjector, JobReport, JobRun, JobSpec, JobTracker, NoFailures, RunMode,
};
use rcmp_model::{Error, JobId, NodeId, Result};
use rcmp_obs::{BlackboxDump, EventCode, Gauge, PhaseBreakdown, PhaseKind, SpanId, Tracer};
use rcmp_policy::{
    drive_chain, AdaptationStep, ChainBackend, ChainConfig, Clock, EventLog, Loss, Reclaimed,
    RecoveryPlan, RecoveryStep, RunOutcome, Stamp, TaskCounts,
};
use std::sync::Arc;
use std::time::Instant;

/// Result of driving a chain to completion.
#[derive(Debug, Default)]
pub struct ChainOutcome {
    /// Every job run executed, in submission order (including
    /// recomputations and restarts).
    pub runs: Vec<JobReport>,
    /// Everything the chain loop did, stamped in wall-clock
    /// microseconds since the chain started.
    pub events: EventLog,
    /// Total job runs started — the paper's job numbering (§V-A: a
    /// 7-job chain with a late failure starts 14 jobs).
    pub jobs_started: u64,
    /// The adaptive policy's decision after each completed chain job
    /// (empty unless the strategy is [`Strategy::AdaptiveHybrid`]).
    pub adaptation: Vec<AdaptationStep>,
    /// Whole-chain phase time-budget (the Fig.-7-style decomposition),
    /// snapshotted from the cluster profiler when the chain completes.
    pub phases: PhaseBreakdown,
    /// Per-run phase deltas: `(seq, what that run added to the
    /// budget)`, in submission order, successful runs only.
    pub job_phases: Vec<(u64, PhaseBreakdown)>,
}

impl ChainOutcome {
    /// Sum of mapper tasks actually executed across all runs.
    pub fn total_map_tasks(&self) -> usize {
        self.runs.iter().map(|r| r.map_tasks_run).sum()
    }

    /// Sum of reduce tasks actually executed across all runs.
    pub fn total_reduce_tasks(&self) -> usize {
        self.runs.iter().map(|r| r.reduce_tasks_run).sum()
    }

    /// Aggregated I/O over all runs.
    pub fn total_io(&self) -> rcmp_engine::IoBytes {
        self.runs.iter().map(|r| r.io).sum()
    }
}

/// Drives one multi-job computation on a cluster.
pub struct ChainDriver<'a> {
    cluster: &'a Cluster,
    injector: Arc<dyn FailureInjector>,
    strategy: Strategy,
    /// Chain key for post-mortems: blackbox dumps are parked on the
    /// cluster (and written to `RCMP_BLACKBOX_DIR`) under this label so
    /// concurrent chains never clobber each other's dumps.
    chain_label: String,
    /// Tenant attribution for the job service: stamped on every
    /// `JobRun` span this chain produces.
    tenant: Option<rcmp_model::TenantId>,
    /// Per-chain wave-executor session override (leased from the job
    /// service's global worker budget). `None` uses the cluster's
    /// shared backend.
    executor: Option<Arc<rcmp_exec::BackendExecutor>>,
    /// Pre-resolved adaptation gauges: [`Self::publish_adaptation`]
    /// runs once per completed chain job, potentially with a wave in
    /// flight elsewhere, so it must never resolve by name.
    g_failure_rate: Gauge,
    g_k_current: Gauge,
}

impl<'a> ChainDriver<'a> {
    pub fn new(cluster: &'a Cluster, strategy: Strategy) -> Self {
        let metrics = cluster.metrics();
        Self {
            cluster,
            injector: Arc::new(NoFailures),
            strategy,
            chain_label: "chain".to_string(),
            tenant: None,
            executor: None,
            g_failure_rate: metrics.gauge("policy.failure_rate_est"),
            g_k_current: metrics.gauge("policy.k_current"),
        }
    }

    pub fn with_injector(mut self, injector: Arc<dyn FailureInjector>) -> Self {
        self.injector = injector;
        self
    }

    /// Keys this chain's post-mortem dumps (cluster slot and the
    /// `RCMP_BLACKBOX_DIR` file name). The label must be filesystem-safe;
    /// path separators are replaced with `-` when writing the file.
    pub fn with_chain_label(mut self, label: impl Into<String>) -> Self {
        self.chain_label = label.into();
        self
    }

    /// Attributes every job run of this chain to a tenant (job-service
    /// chains): the tag lands on `JobRun` spans for per-tenant analysis.
    pub fn with_tenant(mut self, tenant: rcmp_model::TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Runs this chain's waves on a dedicated executor session instead
    /// of the cluster's shared backend (the job service leases one per
    /// admitted chain from its global worker budget).
    pub fn with_executor(mut self, executor: Arc<rcmp_exec::BackendExecutor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Runs the computation to completion.
    ///
    /// Every typed-error exit captures a post-mortem [`BlackboxDump`]
    /// first — the most recent flight-recorder events, the causal
    /// fault → loss → plan → recompute lineage, a metric snapshot and
    /// the phase time-budget — and parks it on the cluster for
    /// [`Cluster::take_blackbox`] under this driver's chain label. Set
    /// `RCMP_BLACKBOX_DIR` to also write the dump as
    /// `rcmp-blackbox-<label>.json` in that directory, so concurrent
    /// chains' dumps never overwrite each other.
    pub fn run(&self, specs: &[JobSpec]) -> Result<ChainOutcome> {
        self.drive(specs).inspect_err(|e| {
            let dump = BlackboxDump::capture(
                e.to_string(),
                self.cluster.recorder(),
                &self.cluster.tracer().snapshot(),
                self.cluster.metrics().snapshot(),
                self.cluster.profiler().snapshot(),
            );
            if let Ok(dir) = std::env::var("RCMP_BLACKBOX_DIR") {
                // Best-effort: a failed dump write must not mask the
                // chain error itself.
                let file = format!(
                    "rcmp-blackbox-{}.json",
                    self.chain_label.replace(['/', '\\'], "-")
                );
                let _ = std::fs::write(std::path::Path::new(&dir).join(file), dump.to_json());
            }
            self.cluster.store_blackbox(&self.chain_label, dump);
        })
    }

    /// Sets the engine backend up over a fresh tracker and hands it to
    /// the shared chain loop.
    fn drive(&self, specs: &[JobSpec]) -> Result<ChainOutcome> {
        let graph = JobGraph::new(specs.iter().cloned())?;
        let order = graph.submission_order()?;
        let mut tracker = JobTracker::new(self.cluster, self.injector.clone());
        if let Some(t) = self.tenant {
            tracker = tracker.with_tenant(t);
        }
        if let Some(e) = &self.executor {
            tracker = tracker.with_executor(e.clone());
        }
        let mut chain = EngineChain {
            driver: self,
            tracker,
            lineage: ClusterLineage {
                cluster: self.cluster,
                graph: &graph,
            },
            started: Instant::now(),
            runs: Vec::new(),
            job_phases: Vec::new(),
        };
        let config = self.cluster.config();
        let summary = drive_chain(
            &mut chain,
            &ChainConfig {
                strategy: self.strategy,
                order: &order,
                max_attempts: config.max_recovery_attempts,
                retry: config.retry,
                seed: config.seed,
            },
        )?;
        // A strict injector surfaces scripted triggers that never
        // fired — a scenario that silently tested nothing.
        if let Err(msg) = self.injector.finish() {
            return Err(Error::Config(format!("failure injector: {msg}")));
        }
        Ok(ChainOutcome {
            runs: chain.runs,
            events: summary.events,
            jobs_started: summary.jobs_started,
            adaptation: summary.adaptation,
            phases: self.cluster.profiler().snapshot(),
            job_phases: chain.job_phases,
        })
    }

    /// Builds the submission for a (re)run of a job at the head of the
    /// chain loop: the whole job, discarding partial results — the
    /// paper's implementation ("for simplicity, for the job during which
    /// the failure occurs, RCMP currently discards the partial
    /// results").
    fn build_run(&self, spec: JobSpec, retry: bool) -> JobRun {
        if retry {
            // A retried job re-derives its output from the DFS ground
            // truth. Drop any chain-cached partitions of the previous
            // attempt up front — the hash guard on cache reads would
            // catch stale bytes anyway, but a cancelled run's failure
            // may have raced the per-hook invalidations.
            if let Some(cache) = self.cluster.dfs().chain_cache() {
                cache.invalidate_file(&spec.output);
            }
        }
        JobRun {
            spec,
            mode: RunMode::Full,
            persist_map_outputs: self.strategy.persists_outputs(),
        }
    }

    /// Publishes one adaptive decision to the observability layer:
    /// gauges for dashboards, and a flight-recorder record when the
    /// interval switched. The chain loop writes its `AdaptationPoint`
    /// span.
    fn publish_adaptation(&self, seq: u64, step: &AdaptationStep) {
        let rate_ppm = (step.rate * 1e6).round();
        self.g_failure_rate.set(rate_ppm as i64);
        // `0` encodes "never replicate" — a real interval is ≥ 1.
        self.g_k_current.set(step.interval.map_or(0, i64::from));
        if step.switched {
            self.cluster.recorder().record(
                EventCode::CadenceSwitched,
                None,
                seq,
                u64::from(step.interval.unwrap_or(0)),
            );
        }
    }
}

/// The engine backend of the chain loop: job runs are real
/// [`JobTracker`] runs, waits are real sleeps, the clock is wall time
/// since the chain started, and the chain's spans go to the cluster's
/// tracer.
struct EngineChain<'r> {
    driver: &'r ChainDriver<'r>,
    tracker: JobTracker<'r>,
    lineage: ClusterLineage<'r>,
    started: Instant,
    runs: Vec<JobReport>,
    job_phases: Vec<(u64, PhaseBreakdown)>,
}

impl EngineChain<'_> {
    /// Submits one run, caused by `cause`, and files its report, or its
    /// cancellation. Either way the run's losses come back in firing
    /// order, one per fault.
    fn execute(&mut self, seq: u64, run: &JobRun, cause: Option<SpanId>) -> Result<RunOutcome> {
        let cluster = self.driver.cluster;
        let phases_before = cluster.profiler().snapshot();
        let (report, result) = self.tracker.run_reporting(run, seq, cause);
        let last_loss = report.last_loss;
        let losses = report
            .losses
            .iter()
            .map(|loss| self.loss(loss.node, loss.lost_partition_count()))
            .collect();
        let completed = match result {
            Ok(()) => {
                self.job_phases
                    .push((seq, cluster.profiler().snapshot().delta(&phases_before)));
                let tasks = TaskCounts {
                    map_tasks_run: report.map_tasks_run,
                    map_tasks_reused: report.map_tasks_reused,
                    reduce_tasks_run: report.reduce_tasks_run,
                };
                self.runs.push(report);
                Some(tasks)
            }
            Err(Error::JobInputLost { .. }) => None,
            Err(e) => return Err(e),
        };
        Ok(RunOutcome {
            losses,
            completed,
            last_loss,
        })
    }

    /// A loss seen now: the engine declares a crashed node dead
    /// synchronously, so its fault and detection share one stamp.
    fn loss(&self, node: Option<NodeId>, lost_partitions: usize) -> Loss {
        let now = self.now();
        Loss {
            node,
            lost_partitions,
            fault: now,
            detected: now,
        }
    }
}

impl<'r> ChainBackend for EngineChain<'r> {
    type Lineage = ClusterLineage<'r>;

    fn lineage(&self) -> &ClusterLineage<'r> {
        &self.lineage
    }

    fn now(&self) -> Stamp {
        Stamp {
            clock: Clock::WallMicros,
            at: self.started.elapsed().as_micros() as f64,
        }
    }

    fn tracer(&self) -> &Tracer {
        self.driver.cluster.tracer()
    }

    fn run_job(&mut self, seq: u64, job: JobId, retry: bool) -> Result<RunOutcome> {
        let strategy = self.driver.strategy;
        let mut spec = self.lineage.spec(job)?.clone();
        spec.output_replication = strategy.output_replication();
        let run = self.driver.build_run(spec, retry);
        self.execute(seq, &run, None)
    }

    fn run_recompute(&mut self, seq: u64, step: RecoveryStep, plan: SpanId) -> Result<RunOutcome> {
        let mut spec = self.lineage.spec(step.job)?.clone();
        spec.output_replication = 1;
        let run = JobRun {
            spec,
            mode: RunMode::Recompute(step.instructions),
            persist_map_outputs: self.driver.strategy.persists_outputs(),
        };
        self.driver.cluster.recorder().record(
            EventCode::RecomputeStarted,
            None,
            seq,
            u64::from(step.job.0),
        );
        self.execute(seq, &run, Some(plan))
    }

    fn wait(&mut self, ms: u64) {
        std::thread::sleep(std::time::Duration::from_millis(ms));
    }

    /// Drops every produced output and persisted map output; the chain
    /// starts over from the (replicated) input.
    fn restart(&mut self) -> Result<()> {
        let cluster = self.driver.cluster;
        for (&job, spec) in self.lineage.graph.jobs() {
            if cluster.dfs().file_exists(&spec.output) {
                cluster.dfs().delete_file(&spec.output)?;
            }
            cluster.map_outputs().clear_job(job);
        }
        Ok(())
    }

    /// Times the walk, and records the plan it found in the flight
    /// recorder.
    fn planning(
        &mut self,
        walk: impl FnOnce(&ClusterLineage<'r>) -> Result<RecoveryPlan>,
    ) -> Result<RecoveryPlan> {
        let cluster = self.driver.cluster;
        let plan = {
            let _timer = cluster.profiler().span(PhaseKind::RecoveryPlanning);
            walk(&self.lineage)?
        };
        let (steps, partitions) = (plan.steps.len() as u64, plan.partition_count() as u64);
        (cluster.recorder()).record(EventCode::RecoveryPlanned, None, steps, partitions);
        Ok(plan)
    }

    fn replicate(&mut self, job: JobId, factor: u32, reclaim: bool) -> Result<Reclaimed> {
        let cluster = self.driver.cluster;
        cluster
            .dfs()
            .replicate_file(&self.lineage.spec(job)?.output, factor)?;
        if !reclaim {
            return Ok(Reclaimed::default());
        }
        reclaim_before(cluster, self.lineage.graph, job)
    }

    fn adapted(&mut self, seq: u64, step: &AdaptationStep) {
        self.driver.publish_adaptation(seq, step);
    }
}
