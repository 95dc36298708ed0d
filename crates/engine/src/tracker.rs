//! The Master: JobInit, wave execution, intra-job failure recovery.
//!
//! `run` executes one job submission to completion or to an
//! unrecoverable data-loss error:
//!
//! * **JobInit** enumerates the input file's blocks (one mapper per
//!   block) and the reduce task set. For a [`RunMode::Recompute`]
//!   submission it readies only the minimum necessary tasks: the tagged
//!   reducer partitions (split if instructed) and the mappers whose
//!   persisted outputs are missing or whose input fingerprints no longer
//!   match (§IV-A) — Hadoop, by contrast, "treats each job submitted to
//!   the system as a brand new job and re-executes it entirely", which
//!   is what [`RunMode::Full`] does.
//! * **Execution** proceeds in slot-constrained waves; the failure
//!   injector is consulted at job start and after every wave, and killed
//!   nodes lose their DFS blocks and map outputs immediately.
//! * **Intra-job recovery** is Hadoop-style task re-execution: lost map
//!   outputs re-run their mappers from surviving input replicas; lost
//!   output partitions are cleared and their reducers re-run. When a
//!   needed input partition has lost all replicas the job cannot
//!   continue and `run` returns [`Error::JobInputLost`] — the signal
//!   that makes the RCMP middleware cancel the job and start cascading
//!   recomputation.

use crate::cluster::Cluster;
use crate::codec::ChunkingWriter;
use crate::failure::{FailureInjector, Fault, ProgressEvent, TriggerPoint};
use crate::job::{JobRun, JobSpec, RunMode};
use crate::mapstore::MapInputKey;
use crate::metrics::{IoBytes, JobReport, ShuffleMetrics, TaskRecord};
use crate::scheduler::{assign_map_waves, assign_reduce_waves, Waves};
use crate::shuffle::{ShuffleFailure, StreamingShuffle, MAX_MERGE_WIDTH};
use crate::task::{encode_sorted_bucket, BucketSlots, MapBuckets, MapTask, ReduceTask};
use crate::udf::Combiner;
use bytes::Bytes;
use parking_lot::Mutex;
use rcmp_dfs::{ChainCache, PlacementPolicy};
use rcmp_exec::{BackendExecutor, Session, SlotOutcome, SlotTask, TaskCtx, WaveSpec};
use rcmp_model::rng::derive_indexed;
use rcmp_model::{
    Error, JobId, NodeId, PartitionId, Record, RecordReader, ReduceTaskId, Result, TaskId, TenantId,
};
use rcmp_obs::{
    Counter, EventCode, FaultKind, FlightRecorder, Histogram, Phase, PhaseKind, PhaseProfiler,
    SpanId, SpanKind, Tracer,
};
use rcmp_policy::{
    job_init, reduce_task_set, reduce_tasks_for, Membership, PolicyCtx, RecomputePlan,
    SliceTopology,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Maximum phase-recovery iterations before declaring the job stuck
/// (defensive; real scenarios converge in a handful).
const MAX_RECOVERY_ROUNDS: u32 = 1000;

/// A reducer pulls key groups from the merge until they hold this many
/// values, then runs the UDF over them: the merge / reduce-UDF
/// attribution costs two clock reads per batch instead of two per
/// group, and the groups' value buffers are reused from batch to batch.
/// Counted in values, not groups, so a batch stays cache-resident
/// between merge and UDF whatever the group size (one value per key on
/// the chain, hundreds on an aggregation).
const REDUCE_BATCH_VALUES: usize = 256;

/// RAII pin on one file's chain-cache entries: held for the duration of
/// a job run so the input partitions its mappers read cannot be evicted
/// by the same run's staged output, released on every exit path.
struct ChainCachePin {
    cache: Arc<ChainCache>,
    path: String,
}

impl ChainCachePin {
    fn new(cache: Arc<ChainCache>, path: String) -> Self {
        cache.pin_file(&path);
        Self { cache, path }
    }
}

impl Drop for ChainCachePin {
    fn drop(&mut self) {
        self.cache.unpin_file(&self.path);
    }
}

// Shuffle-attempt and task-retry budgets live in
// `ClusterConfig::retry` (`rcmp_model::RetryPolicy`), together with the
// seeded full-jitter backoff that paces the retries.

/// The per-job master.
pub struct JobTracker<'a> {
    cluster: &'a Cluster,
    injector: Arc<dyn FailureInjector>,
    /// Owning tenant when driven by the job service; stamped on the
    /// `JobRun` span so analyzers can filter per tenant.
    tenant: Option<TenantId>,
    /// Per-chain executor session override (the job service leases each
    /// admitted chain its own pool session from a global worker
    /// budget). `None` runs on the cluster's shared executor.
    executor: Option<Arc<BackendExecutor>>,
    /// Partial faults armed by the injector, not yet handed to a task:
    /// nodes whose next reducer tears its write, and shuffle attempts
    /// left to fail per node. They belong to this tracker, so to its
    /// chain, and never reach another chain.
    torn: Mutex<BTreeSet<NodeId>>,
    flakes: Mutex<BTreeMap<NodeId, u32>>,
    tracer: Arc<Tracer>,
    /// Always-on flight recorder (compact events, ring-buffered).
    recorder: Arc<FlightRecorder>,
    /// Phase profiler fed by the map/reduce task bodies and wave loops.
    profiler: Arc<PhaseProfiler>,
    /// Hot-path metric handles, resolved once at tracker construction.
    m_task_retries: Counter,
    m_shuffle_transients: Counter,
    m_shuffle_bytes: Counter,
    m_shuffle_us: Histogram,
    m_backoff_ms: Histogram,
    m_shuffle: ShuffleMetrics,
}

/// What every wave of one job run is stamped with.
struct RunAt {
    seq: u64,
    job: JobId,
    /// The run's `JobRun` span: parent of its waves, faults and losses.
    span: SpanId,
    /// Recompute runs charge their wave time to `RecomputeWave`.
    recompute: bool,
}

/// The partial faults one reduce task carries, handed out on the
/// control thread when its wave is assigned: whether it tears its
/// write, and how many of its shuffle attempts fail transiently.
#[derive(Clone, Copy)]
struct TaskFaults {
    torn: bool,
    flakes: u32,
}

enum ReduceOutcome {
    Done(ReduceTask, TaskRecord),
    /// Shuffle found map outputs missing (lost to a failure, or — with
    /// the key — a stored output whose payload failed to decode, which
    /// the wave's accounting drops); the task stays pending and the
    /// phase loop re-runs the mappers first.
    Missing(Option<MapInputKey>),
    /// Execution failed for a retryable reason (e.g. writer node died,
    /// or transient shuffle failures exhausted their attempt budget);
    /// the task stays pending and is reassigned next round.
    Retry(ReduceTaskId),
    /// The writer committed a strict prefix of the partition's chunks
    /// and its node dies at the wave boundary. The partition may look
    /// healthy (written, replicated) while silently missing records, so
    /// the phase loop must clear and fully re-reduce it.
    Torn {
        task: ReduceTask,
        node: NodeId,
    },
    /// The task hit an error no re-execution can cure (a reducer
    /// emitting a record larger than a block): the job fails with it.
    Fatal(Error),
}

impl<'a> JobTracker<'a> {
    pub fn new(cluster: &'a Cluster, injector: Arc<dyn FailureInjector>) -> Self {
        let metrics = cluster.metrics();
        Self {
            injector,
            tenant: None,
            executor: None,
            torn: Mutex::new(BTreeSet::new()),
            flakes: Mutex::new(BTreeMap::new()),
            tracer: cluster.tracer().clone(),
            recorder: cluster.recorder().clone(),
            profiler: cluster.profiler().clone(),
            m_task_retries: metrics.counter("tracker.task_retries"),
            m_shuffle_transients: metrics.counter("tracker.shuffle_transient_failures"),
            m_shuffle_bytes: metrics.counter("tracker.shuffle_fetch_bytes"),
            m_shuffle_us: metrics.histogram(
                "tracker.shuffle_fetch_us",
                &[100, 1_000, 10_000, 100_000, 1_000_000],
            ),
            m_backoff_ms: metrics.histogram("retry.backoff_ms", &[1, 2, 4, 8, 16, 32, 64]),
            m_shuffle: ShuffleMetrics::register(metrics),
            cluster,
        }
    }

    /// Attributes this tracker's runs to a tenant: every `JobRun` span
    /// it closes carries the tag.
    pub fn with_tenant(mut self, tenant: TenantId) -> Self {
        self.tenant = Some(tenant);
        self
    }

    /// Runs every wave on `executor` instead of the cluster's shared
    /// pool (per-chain pools under the job service).
    pub fn with_executor(mut self, executor: Arc<BackendExecutor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// The wave executor this tracker submits to: the per-chain
    /// override when one was leased, else the cluster's shared pool.
    fn wave_executor(&self) -> &BackendExecutor {
        match &self.executor {
            Some(e) => e,
            None => self.cluster.executor(),
        }
    }

    /// Runs one job submission. `seq` is the global run sequence number
    /// (the paper's job numbering: recomputations get fresh numbers).
    ///
    /// Wraps the whole run in a `JobRun` span. A recompute submission is
    /// causally linked to the tracer's current cause (the recovery plan
    /// or loss that triggered it), captured *before* execution so faults
    /// injected during this run don't retroactively re-attribute it.
    pub fn run(&self, run: &JobRun, seq: u64) -> Result<JobReport> {
        let (report, result) = self.run_reporting(run, seq);
        result.map(|()| report)
    }

    /// [`Self::run`], with the report handed back whatever the outcome:
    /// a run that stopped early — cancelled on lost input
    /// ([`Error::JobInputLost`]) or failed — reports what it did until
    /// then, its losses in firing order.
    pub fn run_reporting(&self, run: &JobRun, seq: u64) -> (JobReport, Result<()>) {
        let cause = if run.mode.is_recompute() {
            self.tracer.current_cause()
        } else {
            None
        };
        let live_nodes = self.cluster.live_nodes().len() as u32;
        self.recorder.record(
            EventCode::JobStart,
            None,
            seq,
            u64::from(run.spec.job.0) | (u64::from(run.mode.is_recompute()) << 32),
        );
        let open = self.tracer.open();
        // Pin the input file's cached partitions for the duration of the
        // run: memory pressure from this job's own staged output must
        // not evict the very partitions its mappers are still reading.
        let _input_pin = self
            .cluster
            .dfs()
            .chain_cache()
            .map(|cache| ChainCachePin::new(cache.clone(), run.spec.input.clone()));
        let mut report = JobReport {
            job: run.spec.job,
            seq,
            ..JobReport::default()
        };
        let result = self.run_inner(run, seq, open.id, &mut report);
        if result.is_err() {
            // A failed/cancelled run never publishes partial output: drop
            // anything its reducers staged (the DFS restart path will
            // delete and rewrite the file anyway).
            if let Some(cache) = self.cluster.dfs().chain_cache() {
                cache.abort(&run.spec.output);
            }
        }
        self.recorder
            .record(EventCode::JobEnd, None, seq, u64::from(result.is_ok()));
        let slots = self.cluster.config().slots;
        self.tracer.close(
            open,
            SpanKind::JobRun {
                seq,
                job: run.spec.job,
                recompute: run.mode.is_recompute(),
                live_nodes,
                map_slots: slots.map,
                reduce_slots: slots.reduce,
                ok: result.is_ok(),
                tenant: self.tenant,
            },
            None,
            cause,
            None,
        );
        if result.is_ok() {
            self.m_task_retries.add(report.task_retries as u64);
        }
        (report, result)
    }

    fn run_inner(
        &self,
        run: &JobRun,
        seq: u64,
        job_span: SpanId,
        report: &mut JobReport,
    ) -> Result<()> {
        let spec = &run.spec;
        let started = Instant::now();
        if spec.num_reducers == 0 {
            return Err(Error::Config("job needs at least one reducer".into()));
        }
        if spec.output_replication == 0 {
            return Err(Error::Config("output replication must be >= 1".into()));
        }
        let instructions = match &run.mode {
            RunMode::Full => None,
            RunMode::Recompute(i) => {
                i.validate(spec.job, spec.num_reducers, spec.splittable)?;
                if i.force_rerun_mappers.is_some() {
                    return Err(Error::Config("force_rerun_mappers is sim-only".into()));
                }
                Some(i.clone())
            }
        };

        self.fire(seq, spec.job, TriggerPoint::JobStart, job_span, report);

        // ----- JobInit (pre-flight) -------------------------------------
        // Decided *before* any destructive output mutation (deleting a
        // Full run's old output, clearing a recompute's target
        // partitions): if the input is not readable the job must cancel
        // leaving the cluster exactly as it found it — otherwise
        // recovery planning would see partitions this run cleared
        // itself as empty-but-not-lost.
        let (mut inputs, mut pending_maps) = self.init_maps(spec, instructions.as_ref())?;
        report.map_tasks_reused += inputs.len() - pending_maps.len();
        // The in-loop refreshes re-run whatever map output went missing
        // since, under the run's own fingerprint rule.
        let refresh = RecomputePlan {
            reuse_map_outputs: true,
            ..instructions.clone().unwrap_or_else(RecomputePlan::empty)
        };

        // ----- output file + reduce task set ---------------------------
        let dfs = self.cluster.dfs();
        match &instructions {
            None => {
                if dfs.file_exists(&spec.output) {
                    // A restarted job discards partial results (§V-A).
                    dfs.delete_file(&spec.output)?;
                }
                self.cluster.map_outputs().clear_job(spec.job);
                dfs.create_file(&spec.output, spec.output_replication, spec.num_reducers)?;
            }
            Some(i) => {
                dfs.file_meta(&spec.output)?; // must exist
                for &p in &i.partitions {
                    dfs.clear_partition(&spec.output, p)?;
                }
            }
        }
        let (reduce_ids, reduce_style) =
            reduce_task_set(instructions.as_ref(), spec.job, spec.num_reducers);
        let mut pending_reduces: Vec<ReduceTask> =
            reduce_ids.into_iter().map(ReduceTask::new).collect();
        // Partitions this run is responsible for (damage re-checks).
        let target_partitions: BTreeSet<PartitionId> = match &instructions {
            None => (0..spec.num_reducers).map(PartitionId).collect(),
            Some(i) => i.partitions.clone(),
        };
        let split_plan = instructions.as_ref().and_then(|i| match i.split {
            Some(k) if k > 1 => Some((&i.partitions, k)),
            _ => None,
        });
        let slots = BucketSlots::new(spec.job, spec.num_reducers, split_plan);
        // §IV-B2 spread-output mitigation: the plan scatters this run's
        // recomputed reducer output blocks over all nodes instead of
        // using the job's configured placement.
        let placement = match &instructions {
            Some(i) if i.spread_output => PlacementPolicy::Spread,
            _ => spec.placement,
        };

        // ----- phase loop ------------------------------------------------
        // The whole loop runs under one executor session: the pool
        // spawns its workers once per *job* here, instead of
        // rebuilding it for every wave (`exec.worker_starts` stays at
        // the pool size while `exec.waves` climbs).
        let mut map_wave_counter = 0u32;
        let mut reduce_wave_counter = 0u32;
        let mut map_retries: HashMap<MapInputKey, u32> = HashMap::new();
        let mut reduce_retries: HashMap<ReduceTaskId, u32> = HashMap::new();
        let at = RunAt {
            seq,
            job: spec.job,
            span: job_span,
            recompute: run.mode.is_recompute(),
        };
        let slot_cfg = self.cluster.config().slots;
        self.wave_executor().with_session(|session| -> Result<()> {
            for _round in 0..MAX_RECOVERY_ROUNDS {
                // MAP PHASE: ensure every needed map output exists.
                while !pending_maps.is_empty() {
                    let (membership, live) = self.live_or_fail()?;
                    let topo = SliceTopology::for_kernel(
                        &live,
                        slot_cfg.map,
                        self.cluster.config().placement,
                        &membership,
                    );
                    // Which live node's chain cache holds each task's
                    // input partition (job i's reducer output read by job
                    // i+1's mappers). The `stable` kernel routes tasks to
                    // those holders; a holder that is no longer live
                    // yields no affinity.
                    let cached: Vec<Option<NodeId>> = match self.cluster.dfs().chain_cache() {
                        Some(cache) => pending_maps
                            .iter()
                            .map(|t| {
                                cache
                                    .holder(&spec.input, t.key.pid)
                                    .filter(|h| live.contains(h))
                            })
                            .collect(),
                        None => Vec::new(),
                    };
                    let waves = assign_map_waves(
                        pending_maps.clone(),
                        &topo,
                        &cached,
                        PolicyCtx::new(&self.tracer, Some(job_span)),
                    )?;
                    let mut interrupted = false;
                    for wave in waves {
                        let wave_idx = map_wave_counter;
                        let slots = &slots;
                        interrupted = self.run_wave(
                            session,
                            &at,
                            (Phase::Map, wave_idx, live.len() as u32 * slot_cfg.map),
                            wave,
                            report,
                            |node, task: MapTask, wave_span| {
                                SlotTask::new(move |_: &TaskCtx| {
                                    let key = task.key;
                                    self.run_map_task(node, task, spec, slots, wave_idx, wave_span)
                                        .map_err(|e| (key, e))
                                })
                            },
                            |outcome, report| match outcome {
                                Ok(rec) => {
                                    self.recorder.record(
                                        EventCode::TaskDone,
                                        Some(rec.node),
                                        u64::from(rec.id.job().0),
                                        u64::from(wave_idx),
                                    );
                                    report.io += rec.io;
                                    report.tasks.push(rec);
                                    report.map_tasks_run += 1;
                                    Ok(false)
                                }
                                Err((key, e)) => {
                                    self.recorder.record(
                                        EventCode::TaskRetry,
                                        None,
                                        0,
                                        u64::from(wave_idx),
                                    );
                                    report.task_retries += 1;
                                    self.charge_retry(&mut map_retries, key, spec.job, || {
                                        format!(
                                            "map task over {} block {} kept failing: {e}",
                                            key.pid, key.block_idx
                                        )
                                    })?;
                                    Ok(true)
                                }
                            },
                        )?;
                        map_wave_counter += 1;
                        if interrupted {
                            break;
                        }
                    }
                    // Refresh: which map outputs are still missing?
                    (inputs, pending_maps) = self.init_maps(spec, Some(&refresh))?;
                    if !interrupted && !pending_maps.is_empty() {
                        // Defensive: tasks ran without interruption but
                        // outputs still missing would mean a bug.
                        report.task_retries += pending_maps.len();
                    }
                }

                // REDUCE PHASE.
                if pending_reduces.is_empty() {
                    break;
                }
                let (membership, live) = self.live_or_fail()?;
                let topo = SliceTopology::for_kernel(
                    &live,
                    slot_cfg.reduce,
                    self.cluster.config().placement,
                    &membership,
                );
                let waves: Waves<ReduceTask> = assign_reduce_waves(
                    pending_reduces.clone(),
                    &topo,
                    reduce_style,
                    PolicyCtx::new(&self.tracer, Some(job_span)),
                )?;
                // Owned by `Arc` because session workers may briefly outlive
                // one wave's call frame: the slot closures clone the handle
                // instead of borrowing this round-local vector.
                let input_keys: Arc<Vec<MapInputKey>> =
                    Arc::new(inputs.iter().map(|t| t.key).collect());
                let mut torn_partitions: BTreeSet<PartitionId> = BTreeSet::new();
                for wave in waves {
                    let wave_idx = reduce_wave_counter;
                    let reassign = self.run_wave(
                        session,
                        &at,
                        (Phase::Reduce, wave_idx, live.len() as u32 * slot_cfg.reduce),
                        wave,
                        report,
                        // Called in input order after the mid-wave
                        // injection point, so which task carries each
                        // armed fault is fixed before any task runs.
                        |node, task: ReduceTask, wave_span| {
                            let faults = self.take_faults(node);
                            let input_keys = Arc::clone(&input_keys);
                            SlotTask::new(move |_: &TaskCtx| {
                                let outcome = self.run_reduce_task(
                                    node,
                                    task,
                                    faults,
                                    input_keys.as_slice(),
                                    spec,
                                    placement,
                                    wave_idx,
                                    wave_span,
                                );
                                (node, faults.torn, outcome)
                            })
                        },
                        |(node, torn, outcome), report| {
                            if torn && !matches!(outcome, ReduceOutcome::Torn { .. }) {
                                // Failed before its write: re-arm.
                                self.torn.lock().insert(node);
                            }
                            match outcome {
                                ReduceOutcome::Done(task, rec) => {
                                    report.io += rec.io;
                                    report.tasks.push(rec);
                                    report.reduce_tasks_run += 1;
                                    pending_reduces.retain(|t| t.id != task.id);
                                    Ok(false)
                                }
                                ReduceOutcome::Missing(corrupt) => {
                                    // Drop a corrupt output: its mapper
                                    // re-runs.
                                    if let Some(key) = corrupt {
                                        self.cluster.map_outputs().remove(&key);
                                    }
                                    report.task_retries += 1;
                                    Ok(true)
                                }
                                ReduceOutcome::Retry(id) => {
                                    report.task_retries += 1;
                                    self.charge_retry(&mut reduce_retries, id, spec.job, || {
                                        format!("reduce task {id} kept failing retryably")
                                    })?;
                                    Ok(true)
                                }
                                ReduceOutcome::Fatal(e) => Err(e),
                                ReduceOutcome::Torn { task, node } => {
                                    report.task_retries += 1;
                                    // The torn writer dies at the wave
                                    // boundary, unseen by its siblings;
                                    // its partition is a loss of its own.
                                    let loss = self.cluster.fail_node(node);
                                    let loss_span = self.tracer.instant(
                                        SpanKind::Loss {
                                            seq,
                                            lost_partitions: 1,
                                        },
                                        Some(job_span),
                                        None,
                                        loss.node,
                                    );
                                    self.tracer.mark_cause(loss_span);
                                    report.losses.push(loss);
                                    torn_partitions.insert(task.id.partition);
                                    Ok(true)
                                }
                            }
                        },
                    )?;
                    reduce_wave_counter += 1;
                    if reassign {
                        break;
                    }
                }

                // Damage check: target partitions that lost blocks — or were
                // left half-written by a torn write (which may look healthy:
                // the committed prefix chunks can still be fully replicated)
                // — must be cleared and fully re-reduced.
                let meta = dfs.file_meta(&spec.output)?;
                for &p in &target_partitions {
                    if meta.partitions[p.index()].is_lost() || torn_partitions.contains(&p) {
                        dfs.clear_partition(&spec.output, p)?;
                        for t in reduce_tasks_for(instructions.as_ref(), spec.job, p)
                            .map(ReduceTask::new)
                        {
                            if !pending_reduces.iter().any(|x| x.id == t.id) {
                                pending_reduces.push(t);
                            }
                        }
                    }
                }

                // Refresh missing map outputs for the next round.
                (inputs, pending_maps) = self.init_maps(spec, Some(&refresh))?;

                if pending_reduces.is_empty() && pending_maps.is_empty() {
                    break;
                }
            }
            Ok(())
        })?;

        if !pending_reduces.is_empty() {
            return Err(Error::JobFailed {
                job: spec.job,
                reason: "recovery did not converge".into(),
            });
        }

        if !run.persist_map_outputs {
            self.cluster.map_outputs().clear_job(spec.job);
        }
        // The job converged: atomically admit its staged reducer outputs
        // into the chain cache (control thread, ascending partition
        // order — admission never depends on worker interleaving).
        if let Some(cache) = self.cluster.dfs().chain_cache() {
            cache.commit(&spec.output);
        }
        report.map_waves = map_wave_counter;
        report.reduce_waves = reduce_wave_counter;
        report.duration = started.elapsed();
        Ok(())
    }

    // ------------------------------------------------------------ helpers

    /// Consults the injector at an execution point and applies whatever
    /// faults it raises. Returns the nodes that were killed (the only
    /// fault shape the wave loop must react to immediately; the others
    /// surface through their own detection paths).
    ///
    /// Every injected fault becomes a `Fault` instant span; a node crash
    /// that irreversibly lost partitions additionally emits a `Loss`
    /// span caused by the fault, and marks it as the tracer's current
    /// cause so the recomputation run it triggers is causally linked.
    fn fire(
        &self,
        seq: u64,
        job: JobId,
        point: TriggerPoint,
        job_span: SpanId,
        report: &mut JobReport,
    ) -> Vec<NodeId> {
        let faults = self
            .injector
            .poll_faults(&ProgressEvent { seq, job, point });
        let mut kills = Vec::new();
        for fault in faults {
            let (kind, at_node) = match &fault {
                Fault::NodeCrash(node) => (FaultKind::NodeCrash, *node),
                Fault::CorruptReplica { node } => (FaultKind::CorruptReplica, *node),
                Fault::TornWrite { node } => (FaultKind::TornWrite, *node),
                Fault::ShuffleFlake { node, .. } => (FaultKind::ShuffleFlake, *node),
                Fault::NodeDrain { node } => (FaultKind::NodeDrain, *node),
            };
            let fault_code = match kind {
                FaultKind::NodeCrash => 0,
                FaultKind::CorruptReplica => 1,
                FaultKind::TornWrite => 2,
                FaultKind::ShuffleFlake => 3,
                FaultKind::NodeDrain => 4,
            };
            self.recorder
                .record(EventCode::FaultInjected, Some(at_node), seq, fault_code);
            let fault_span = self.tracer.instant(
                SpanKind::Fault {
                    seq,
                    kind,
                    at: format!("{point:?}"),
                },
                Some(job_span),
                None,
                Some(at_node),
            );
            match fault {
                Fault::NodeCrash(node) => {
                    let loss = self.cluster.fail_node(node);
                    self.recorder.record(
                        EventCode::PartitionsLost,
                        Some(node),
                        seq,
                        loss.lost_partition_count() as u64,
                    );
                    let loss_span = self.tracer.instant(
                        SpanKind::Loss {
                            seq,
                            lost_partitions: loss.lost_partition_count() as u32,
                        },
                        Some(job_span),
                        Some(fault_span),
                        Some(node),
                    );
                    self.tracer.mark_cause(loss_span);
                    report.losses.push(loss);
                    kills.push(node);
                }
                Fault::CorruptReplica { node } => {
                    // Silent on-disk damage: nothing observes it here.
                    // The checksum verification on the next read of this
                    // replica demotes it to a lost replica.
                    let _ = self.cluster.dfs().corrupt_replica_on(node);
                }
                Fault::TornWrite { node } => {
                    self.torn.lock().insert(node);
                }
                Fault::ShuffleFlake { node, times } => {
                    let mut flakes = self.flakes.lock();
                    let left = flakes.entry(node).or_insert(0);
                    *left = left.saturating_add(times);
                }
                Fault::NodeDrain { node } => {
                    // Graceful membership change, not a failure: skipped
                    // unless the membership allows it, so an injected
                    // drain can never strand the chain. Data on the
                    // drained node stays readable — no recovery runs.
                    if self.cluster.membership().drainable(node.raw()) {
                        let _ = self.cluster.drain_node(node);
                    }
                }
            }
        }
        kills
    }

    /// Hands the next reduce task on `node` its share of the faults
    /// armed there: the torn write, if one is armed, and up to one
    /// task's shuffle-attempt budget of flakes. What is left stays armed
    /// for the node's next reducers.
    fn take_faults(&self, node: NodeId) -> TaskFaults {
        let mut flakes = self.flakes.lock();
        let left = flakes.remove(&node).unwrap_or(0);
        let taken = left.min(self.cluster.config().retry.shuffle_attempts);
        if left > taken {
            flakes.insert(node, left - taken);
        }
        TaskFaults {
            torn: self.torn.lock().remove(&node),
            flakes: taken,
        }
    }

    /// One membership snapshot for the next phase, and the nodes its
    /// waves may be scheduled on (Up only — draining nodes keep serving
    /// data but take no new tasks).
    fn live_or_fail(&self) -> Result<(Membership, Vec<NodeId>)> {
        let membership = self.cluster.membership();
        let live: Vec<NodeId> = membership.schedulable().into_iter().map(NodeId).collect();
        if live.is_empty() {
            return Err(Error::NoLiveNodes);
        }
        Ok((membership, live))
    }

    /// JobInit over the input as it stands now
    /// ([`rcmp_policy::job_init`]): every mapper of the job, and those
    /// that must run; persisted outputs stand in for the rest. Fails
    /// with [`Error::JobInputLost`] if the input is lost.
    fn init_maps(
        &self,
        spec: &JobSpec,
        plan: Option<&RecomputePlan>,
    ) -> Result<(Vec<MapTask>, Vec<MapTask>)> {
        let (inputs, view) = self.cluster.map_inputs(spec.job, &spec.input)?;
        let rerun = job_init(spec.job, plan, &view)?;
        let pending = rerun.iter().map(|&i| inputs[i].clone()).collect();
        Ok((inputs, pending))
    }

    /// Runs one assigned wave through the job's executor session, inside
    /// the bracket both phases share, in this order: the mid-wave
    /// injection point (kills land after assignment, before execution,
    /// so tasks placed on the victim fail with it), the `Wave` span and
    /// `WaveStart`, the slot tasks `task` builds under the wave's span,
    /// run under the metrics hot scope, `account` over each outcome in
    /// input order, the span close, `RecomputeWave` time and `WaveEnd`,
    /// then the after-wave injection point. `(phase, index, capacity)`
    /// names the wave: its phase, its index within that phase in this
    /// run, and the live slot capacity it was assigned against.
    ///
    /// `account` says whether its task failed. The first error it
    /// returns — or a panicked task, as [`Error::ExecutorShutdown`] —
    /// stops the accounting and fails the job once `WaveEnd` is
    /// recorded. Otherwise returns whether the phase loop must
    /// reassign: a task failed or an injection point killed a node.
    #[allow(clippy::too_many_arguments)]
    fn run_wave<'env, W, T: Send + 'env>(
        &'env self,
        session: &Session<'_, 'env>,
        at: &RunAt,
        (phase, index, capacity): (Phase, u32, u32),
        wave: Vec<(NodeId, W)>,
        report: &mut JobReport,
        task: impl Fn(NodeId, W, SpanId) -> SlotTask<'env, T>,
        mut account: impl FnMut(T, &mut JobReport) -> Result<bool>,
    ) -> Result<bool> {
        let (kind, label, mid, after) = match phase {
            Phase::Map => (
                "map",
                "map-wave",
                TriggerPoint::MidMapWave(index),
                TriggerPoint::AfterMapWave(index),
            ),
            Phase::Reduce => (
                "reduce",
                "reduce-wave",
                TriggerPoint::MidReduceWave(index),
                TriggerPoint::AfterReduceWave(index),
            ),
        };
        let mid_kills = self.fire(at.seq, at.job, mid, at.span, report);
        let wave_open = self.tracer.open();
        let tasks = wave.len();
        self.recorder
            .record(EventCode::WaveStart, None, u64::from(index), tasks as u64);
        let slot_tasks: Vec<SlotTask<'env, T>> = wave
            .into_iter()
            .map(|(node, w)| task(node, w, wave_open.id))
            .collect();
        // The pool's claim order is a pure function of the
        // cluster seed, the run sequence number and the wave index, so
        // replays are bit-identical.
        let seed = derive_indexed(
            self.cluster.config().seed,
            label,
            (at.seq << 32) | u64::from(index),
        );
        let spec = WaveSpec::new(label, seed).with_parent(wave_open.id);
        let outcomes = {
            // Wave in flight: by-name metric resolution debug-asserts
            // until the guard drops — hot paths must use the handles
            // resolved at construction time.
            let _hot = self.cluster.metrics().enter_hot_scope();
            session.run_wave(&spec, slot_tasks)
        };
        let failed = outcomes.into_iter().try_fold(false, |failed, outcome| {
            let task_failed = match outcome {
                SlotOutcome::Completed(value) => account(value, report)?,
                SlotOutcome::Abandoned => {
                    return Err(Error::ExecutorShutdown {
                        reason: format!("{kind} task panicked in wave {index}"),
                    })
                }
            };
            Ok(failed || task_failed)
        });
        self.tracer.close(
            wave_open,
            SpanKind::Wave {
                phase,
                index,
                tasks: tasks as u32,
                capacity,
            },
            Some(at.span),
            None,
            None,
        );
        let wave_us = self.tracer.now_us().saturating_sub(wave_open.start_us);
        if at.recompute {
            self.profiler.add_us(PhaseKind::RecomputeWave, wave_us);
        }
        self.recorder
            .record(EventCode::WaveEnd, None, u64::from(index), wave_us);
        let failed = failed?;
        let kills = self.fire(at.seq, at.job, after, at.span, report);
        Ok(failed || !kills.is_empty() || !mid_kills.is_empty())
    }

    /// Charges one retry of task `key` against the per-task budget
    /// (`RetryPolicy::task_retries`); past it the job escalates to
    /// [`Error::RecoveryExhausted`] instead of re-running the task
    /// forever.
    fn charge_retry<K: Eq + std::hash::Hash>(
        &self,
        spent: &mut HashMap<K, u32>,
        key: K,
        job: JobId,
        reason: impl FnOnce() -> String,
    ) -> Result<()> {
        let count = spent.entry(key).or_insert(0);
        *count += 1;
        if *count > self.cluster.config().retry.task_retries {
            return Err(Error::RecoveryExhausted {
                job,
                attempts: *count,
                reason: reason(),
            });
        }
        Ok(())
    }

    /// Span wrapper around [`Self::map_task_inner`]: one `Task` span per
    /// attempt, parented under the wave, failed attempts included.
    fn run_map_task(
        &self,
        node: NodeId,
        task: MapTask,
        spec: &JobSpec,
        slots: &BucketSlots,
        wave_idx: u32,
        wave_span: SpanId,
    ) -> std::result::Result<TaskRecord, Error> {
        let tid: TaskId = task.id.into();
        let open = self.tracer.open();
        let result = self.map_task_inner(node, task, spec, slots, wave_idx);
        let kind = match &result {
            Ok(rec) => SpanKind::Task {
                id: tid,
                bytes_in: rec.io.map_input_total(),
                bytes_out: 0,
                input_source: rec.input_source,
                ok: true,
            },
            Err(_) => SpanKind::Task {
                id: tid,
                bytes_in: 0,
                bytes_out: 0,
                input_source: None,
                ok: false,
            },
        };
        self.tracer
            .close(open, kind, Some(wave_span), None, Some(node));
        result
    }

    fn map_task_inner(
        &self,
        node: NodeId,
        task: MapTask,
        spec: &JobSpec,
        slots: &BucketSlots,
        wave_idx: u32,
    ) -> std::result::Result<TaskRecord, Error> {
        let t0 = Instant::now();
        // Inter-job chain cache first: serve the input chunk from memory
        // when the previous job's reducer output is still resident and
        // its hash matches this block's fingerprint. Any miss — budget
        // spill, invalidation, recomputed partition — falls through to
        // the verified DFS read below.
        let cached = self.cluster.dfs().chain_cache().and_then(|cache| {
            let lookup_started = Instant::now();
            let hit = cache.get_chunk(
                &spec.input,
                task.key.pid,
                task.key.block_idx as usize,
                task.block.content_hash,
                node,
            );
            if hit.is_some() {
                self.profiler.add_ns(
                    PhaseKind::ChainCacheRead,
                    lookup_started.elapsed().as_nanos() as u64,
                );
            }
            hit
        });
        let (data, source) = match cached {
            Some(hit) => hit,
            None => self.cluster.dfs().read_block(&task.block, node)?,
        };
        let input_bytes = data.len() as u64;
        let mut raw = MapBuckets::new(slots);
        // Phase accounting: local accumulators, flushed to the profiler
        // once per task (three clock reads per bucket, none per record).
        let mut compute_ns;
        let mut combine_ns = 0u64;
        let mut write_ns = 0u64;
        let mark = Instant::now();
        // The mapper sees the block as one record stream; the first
        // codec error ends the stream, parks here and fails the task.
        let mut decode_error: Option<Error> = None;
        {
            let mut records = RecordReader::new(data)
                .map_while(|rec| rec.map_err(|e| decode_error = Some(e)).ok());
            spec.mapper
                .map_block(&mut records, &mut |out: Record| raw.push(out));
        }
        if let Some(e) = decode_error {
            return Err(e);
        }
        compute_ns = mark.elapsed().as_nanos() as u64;
        let mut buckets = HashMap::new();
        for (rtid, mut recs) in raw.into_buckets() {
            let bucket_start = Instant::now();
            recs.sort_unstable_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
            let sorted_at = Instant::now();
            compute_ns += (sorted_at - bucket_start).as_nanos() as u64;
            // Map-side combine, whole-partition buckets only: a split
            // task's regenerated partition must stay byte-identical to
            // the whole run's (the Fig.-5 reuse rule), so split-keyed
            // buckets always carry the raw record stream.
            if let Some(c) = &spec.combiner {
                if rtid.split.is_none() {
                    recs = self.combine_bucket(c.as_ref(), recs);
                }
            }
            let combined_at = Instant::now();
            combine_ns += (combined_at - sorted_at).as_nanos() as u64;
            buckets.insert(rtid, encode_sorted_bucket(&recs));
            write_ns += combined_at.elapsed().as_nanos() as u64;
        }
        // Storing on a node that died mid-wave is pointless but harmless:
        // the kill's drop_node already ran or will never run again for
        // this node; re-check liveness to keep semantics crisp.
        if !self.cluster.is_alive(node) {
            return Err(Error::NodeUnavailable(node));
        }
        let insert_start = Instant::now();
        self.cluster
            .map_outputs()
            .insert_indexed(task.key, node, task.block.content_hash, buckets);
        write_ns += insert_start.elapsed().as_nanos() as u64;
        self.profiler.add_ns(PhaseKind::MapCompute, compute_ns);
        if combine_ns > 0 {
            self.profiler.add_ns(PhaseKind::Combine, combine_ns);
        }
        self.profiler.add_ns(PhaseKind::MapOutputWrite, write_ns);
        let mut io = IoBytes::default();
        if source == node {
            io.map_input_local = input_bytes;
        } else {
            io.map_input_remote = input_bytes;
        }
        Ok(TaskRecord {
            id: task.id.into(),
            node,
            wave: wave_idx,
            io,
            duration: t0.elapsed(),
            input_source: Some(source),
        })
    }

    /// Applies the map-side combiner to one sorted whole-partition
    /// bucket. Records arrive (key, value)-sorted and are grouped by
    /// key; the combiner's emissions are re-sorted so the stored bucket
    /// keeps the sorted-run invariant the streaming merge relies on.
    fn combine_bucket(&self, combiner: &dyn Combiner, recs: Vec<Record>) -> Vec<Record> {
        self.m_shuffle.combiner_records_in.add(recs.len() as u64);
        let mut out: Vec<Record> = Vec::with_capacity(recs.len());
        let mut values: Vec<Bytes> = Vec::new();
        let mut i = 0usize;
        while i < recs.len() {
            let key = recs[i].key;
            let mut j = i;
            while j < recs.len() && recs[j].key == key {
                values.push(recs[j].value.clone());
                j += 1;
            }
            combiner.combine(key, &values, &mut |rec: Record| out.push(rec));
            values.clear();
            i = j;
        }
        out.sort_unstable_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
        self.m_shuffle.combiner_records_out.add(out.len() as u64);
        out
    }

    /// Emits the per-source shuffle accounting: one `ShuffleFetch` span
    /// and a byte-counter bump per map-output source node.
    fn record_fetches(
        &self,
        per_source: &[(NodeId, u64)],
        node: NodeId,
        task_span: SpanId,
        start: u64,
        end: u64,
    ) {
        for &(source, bytes) in per_source {
            self.m_shuffle_bytes.add(bytes);
            self.tracer.record(
                SpanKind::ShuffleFetch { source, bytes },
                Some(task_span),
                None,
                Some(node),
                start,
                end,
            );
        }
    }

    /// Span wrapper around [`Self::reduce_task_inner`]: one `Task` span
    /// per attempt under the wave, with per-source `ShuffleFetch` child
    /// spans emitted by the inner function.
    #[allow(clippy::too_many_arguments)]
    fn run_reduce_task(
        &self,
        node: NodeId,
        task: ReduceTask,
        faults: TaskFaults,
        input_keys: &[MapInputKey],
        spec: &JobSpec,
        placement: PlacementPolicy,
        wave_idx: u32,
        wave_span: SpanId,
    ) -> ReduceOutcome {
        let tid: TaskId = task.id.into();
        let open = self.tracer.open();
        let outcome = self.reduce_task_inner(
            node, task, faults, input_keys, spec, placement, wave_idx, open.id,
        );
        let (ok, bytes_in, bytes_out) = match &outcome {
            ReduceOutcome::Done(_, rec) => (true, rec.io.shuffle_total(), rec.io.output_written),
            _ => (false, 0, 0),
        };
        self.tracer.close(
            open,
            SpanKind::Task {
                id: tid,
                bytes_in,
                bytes_out,
                input_source: None,
                ok,
            },
            Some(wave_span),
            None,
            Some(node),
        );
        outcome
    }

    /// Stable per-retry-site seed for shuffle backoff: distinct reduce
    /// tasks (including distinct splits of one partition) derive
    /// distinct jitter schedules from the one cluster seed, so a storm
    /// of concurrent transient failures de-synchronises instead of
    /// retrying as a herd — while a replay of the same seed reproduces
    /// every delay exactly.
    fn backoff_site_seed(&self, id: ReduceTaskId) -> u64 {
        let mut site = derive_indexed(
            self.cluster.config().seed,
            "shuffle-backoff",
            (u64::from(id.job.raw()) << 32) | u64::from(id.partition.raw()),
        );
        if let Some((split, of)) = id.split {
            site = derive_indexed(
                site,
                "split",
                (u64::from(split.raw()) << 32) | u64::from(of),
            );
        }
        site
    }

    /// Sleeps the policy's full-jitter delay before retry `attempt` and
    /// records it in the `retry.backoff_ms` histogram, the flight
    /// recorder and the [`PhaseKind::RetryBackoff`] budget. Returns the
    /// nanoseconds charged, so the caller can keep them out of its own
    /// phase.
    fn backoff(&self, retry: &rcmp_model::RetryPolicy, site_seed: u64, attempt: u32) -> u64 {
        let delay = retry.backoff_ms(site_seed, attempt);
        self.m_backoff_ms.observe(delay);
        self.recorder
            .record(EventCode::BackoffWait, None, delay, u64::from(attempt));
        if delay == 0 {
            return 0;
        }
        let slept = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(delay));
        let ns = slept.elapsed().as_nanos() as u64;
        self.profiler.add_ns(PhaseKind::RetryBackoff, ns);
        ns
    }

    /// Runs one reducer's shuffle. Its first `flakes` attempts fail
    /// transiently (armed shuffle flakes, never more than the attempt
    /// budget) and are absorbed in place with seeded full-jitter backoff
    /// (concurrent failing fetches spread out instead of hammering the
    /// flaky path in lockstep) — but not forever: a task whose every
    /// attempt flaked needs rescheduling. Charges the
    /// [`PhaseKind::ShuffleFetch`] budget with the time spent fetching,
    /// the backoff sleeps excluded, and returns the result with the
    /// tracer timestamps bracketing the whole shuffle.
    fn shuffle_with_retry<T>(
        &self,
        node: NodeId,
        id: ReduceTaskId,
        flakes: u32,
        shuffle: impl FnOnce() -> std::result::Result<T, ShuffleFailure>,
    ) -> std::result::Result<(T, u64, u64), ReduceOutcome> {
        let retry = self.cluster.config().retry;
        let start = self.tracer.now_us();
        let mut backoff_ns = 0u64;
        for attempt in 1..=flakes {
            self.m_shuffle_transients.inc();
            self.recorder.record(
                EventCode::ShuffleRetry,
                Some(node),
                u64::from(id.partition.0),
                u64::from(attempt),
            );
            if attempt >= retry.shuffle_attempts {
                return Err(ReduceOutcome::Retry(id));
            }
            backoff_ns += self.backoff(&retry, self.backoff_site_seed(id), attempt);
        }
        let shuffled = match shuffle() {
            Ok(shuffled) => shuffled,
            Err(ShuffleFailure::MissingMapOutputs(_)) => return Err(ReduceOutcome::Missing(None)),
            // The stored copy is permanently bad: a retry would fetch
            // the same bytes.
            Err(ShuffleFailure::Corrupt { key, .. }) => {
                return Err(ReduceOutcome::Missing(Some(key)))
            }
        };
        let end = self.tracer.now_us();
        let elapsed_us = end.saturating_sub(start);
        self.m_shuffle_us.observe(elapsed_us);
        self.profiler.add_us(
            PhaseKind::ShuffleFetch,
            elapsed_us.saturating_sub(backoff_ns / 1_000),
        );
        Ok((shuffled, start, end))
    }

    #[allow(clippy::too_many_arguments)]
    fn reduce_task_inner(
        &self,
        node: NodeId,
        task: ReduceTask,
        faults: TaskFaults,
        input_keys: &[MapInputKey],
        spec: &JobSpec,
        placement: PlacementPolicy,
        wave_idx: u32,
        task_span: SpanId,
    ) -> ReduceOutcome {
        let t0 = Instant::now();
        let store = self.cluster.map_outputs();
        let block_size = self.cluster.config().block_size.as_u64() as usize;
        let mut out = ChunkingWriter::new(block_size);
        // The emit callback cannot return an error; the first one parks
        // here and fails the task once the UDF call has returned.
        let mut emit_error: Option<Error> = None;
        let mut emit = |rec: Record| {
            if emit_error.is_none() {
                emit_error = out.push(&rec).err();
            }
        };
        // Plan the fetches via the bucket indexes, then k-way-merge the
        // per-mapper sorted runs straight into the reducer.
        let plan = || StreamingShuffle::plan(store, input_keys, task.id, node, MAX_MERGE_WIDTH);
        let (mut merge, start, end) =
            match self.shuffle_with_retry(node, task.id, faults.flakes, plan) {
                Ok(planned) => planned,
                Err(outcome) => return outcome,
            };
        self.record_fetches(&merge.per_source, node, task_span, start, end);
        // Merge vs UDF attribution: groups are pulled a batch at a time
        // and the UDF runs over the batch, so the UDF is timed per batch
        // and the remainder of the loop is the merge.
        let merge_started = Instant::now();
        let mut udf_ns = 0u64;
        let mut batch: Vec<(u64, Vec<Bytes>)> = Vec::new();
        let mut drained = false;
        while !drained {
            let (mut pulled, mut held) = (0, 0);
            while held < REDUCE_BATCH_VALUES {
                if pulled == batch.len() {
                    batch.push((0, Vec::new()));
                }
                match merge.next_group_into(&mut batch[pulled].1) {
                    None => {
                        drained = true;
                        break;
                    }
                    Some(Ok(key)) => {
                        batch[pulled].0 = key;
                        held += batch[pulled].1.len();
                        pulled += 1;
                    }
                    // A lazily-decoded run can surface corruption
                    // mid-merge; treat it exactly like plan-time
                    // corruption.
                    Some(Err(ShuffleFailure::Corrupt { key, .. })) => {
                        return ReduceOutcome::Missing(Some(key))
                    }
                    Some(Err(ShuffleFailure::MissingMapOutputs(_))) => {
                        return ReduceOutcome::Missing(None)
                    }
                }
            }
            let udf_start = Instant::now();
            spec.reducer.reduce_groups(&batch[..pulled], &mut emit);
            udf_ns += udf_start.elapsed().as_nanos() as u64;
        }
        let loop_ns = merge_started.elapsed().as_nanos() as u64;
        self.profiler
            .add_ns(PhaseKind::StreamingMerge, loop_ns.saturating_sub(udf_ns));
        self.profiler.add_ns(PhaseKind::ReduceUdf, udf_ns);
        self.m_shuffle.observe_merge(&merge.stats());
        if let Some(e) = emit_error {
            return ReduceOutcome::Fatal(e);
        }
        let output_bytes = out.byte_count();
        let chunks = out.finish();
        let dfs = self.cluster.dfs();
        let split = task.id.split.map_or(0, |(split, _)| split.raw());
        if faults.torn {
            // Armed torn write: commit only a strict prefix of the
            // chunks. The committed prefix can look like a healthy
            // written partition — the Torn outcome is what kills the
            // node at the wave boundary and forces the phase loop to
            // clear and re-reduce the partition.
            let keep = chunks.len() / 2;
            let prefix: Vec<_> = chunks.into_iter().take(keep).collect();
            let _ = dfs.write_split_chunks(
                &spec.output,
                task.id.partition,
                split,
                prefix,
                node,
                placement,
            );
            return ReduceOutcome::Torn { task, node };
        }
        // Stage whole-reducer output in the chain cache alongside the
        // durable DFS write (write-behind keeps lineage intact: every
        // byte is still checksummed + replicated on disk). Split outputs
        // are never cached — a split writes only a segment of the
        // partition, and the cache is keyed by whole partitions.
        // `Bytes` clones are refcount bumps, so staging is free.
        let stage = dfs
            .chain_cache()
            .filter(|_| task.id.split.is_none())
            .map(|cache| (cache.clone(), chunks.clone()));
        match dfs.write_split_chunks(
            &spec.output,
            task.id.partition,
            split,
            chunks,
            node,
            placement,
        ) {
            Ok(()) => {
                if let Some((cache, staged)) = stage {
                    cache.stage(&spec.output, task.id.partition, node, &staged);
                }
            }
            Err(_) => return ReduceOutcome::Retry(task.id),
        }
        let io = IoBytes {
            shuffle_local: merge.local_bytes,
            shuffle_remote: merge.remote_bytes,
            output_written: output_bytes,
            replication_written: output_bytes * (spec.output_replication as u64 - 1),
            ..IoBytes::default()
        };
        ReduceOutcome::Done(
            task,
            TaskRecord {
                id: task.id.into(),
                node,
                wave: wave_idx,
                io,
                duration: t0.elapsed(),
                input_source: None,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::NoFailures;
    use crate::udf::{IdentityMapper, IdentityReducer};
    use rcmp_model::{ClusterConfig, RecordWriter};

    fn identity_job(num_reducers: u32) -> JobSpec {
        JobSpec {
            job: JobId(1),
            input: "input".into(),
            output: "out/1".into(),
            num_reducers,
            output_replication: 1,
            placement: PlacementPolicy::WriterLocal,
            mapper: Arc::new(IdentityMapper),
            reducer: Arc::new(IdentityReducer),
            combiner: None,
            splittable: true,
        }
    }

    /// A block cut inside its last record's value: the mapper has seen
    /// the whole records before the cut, but the task fails with the
    /// decoder's typed error and stores no map output.
    #[test]
    fn map_task_over_a_truncated_block_fails_with_codec_and_stores_nothing() {
        let cluster = Cluster::new(ClusterConfig::small_test(2));
        let mut w = RecordWriter::new();
        for key in 0..5u64 {
            w.push(&Record::new(key, vec![key as u8; 40]));
        }
        let block = w.finish();
        let cut = block.slice(..block.len() - 7);
        let dfs = cluster.dfs();
        dfs.create_file("input", 1, 1).unwrap();
        dfs.write_partition_chunks(
            "input",
            PartitionId(0),
            vec![cut],
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let spec = identity_job(2);
        let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
        let task = cluster
            .map_inputs(spec.job, &spec.input)
            .unwrap()
            .0
            .remove(0);
        let slots = BucketSlots::new(spec.job, spec.num_reducers, None);
        let err = tracker
            .map_task_inner(NodeId(0), task.clone(), &spec, &slots, 0)
            .unwrap_err();
        assert!(matches!(err, Error::Codec(_)), "{err:?}");
        assert_eq!(cluster.map_outputs().input_hash(&task.key), None);
    }

    /// Armed faults are handed out per reduce task, in the order tasks
    /// ask: flakes armed twice stack, each task takes at most one
    /// shuffle-attempt budget of them, the rest waits for the node's
    /// next task, and a torn write goes to the first task only.
    #[test]
    fn armed_faults_are_handed_out_one_task_at_a_time() {
        let cluster = Cluster::new(ClusterConfig::small_test(2));
        let budget = cluster.config().retry.shuffle_attempts;
        let injector = crate::failure::ScriptedInjector::default();
        for fault in [
            Fault::ShuffleFlake {
                node: NodeId(0),
                times: budget,
            },
            Fault::ShuffleFlake {
                node: NodeId(0),
                times: 2,
            },
            Fault::TornWrite { node: NodeId(0) },
        ] {
            injector.add(crate::failure::FailureAt {
                seq: 1,
                point: TriggerPoint::JobStart,
                fault,
            });
        }
        let tracker = JobTracker::new(&cluster, Arc::new(injector));
        let span = tracker.tracer.open().id;
        let mut report = JobReport::default();
        tracker.fire(1, JobId(1), TriggerPoint::JobStart, span, &mut report);
        let handed = |node| {
            let faults = tracker.take_faults(NodeId(node));
            (faults.torn, faults.flakes)
        };
        assert_eq!(handed(1), (false, 0), "nothing armed on n1");
        assert_eq!(handed(0), (true, budget));
        assert_eq!(handed(0), (false, 2));
        assert_eq!(handed(0), (false, 0), "every arm handed out");
    }

    /// A map task that fails on every attempt exhausts its retry budget
    /// instead of spinning the map phase forever: every input block is
    /// five bytes with a valid checksum, so each mapper fails with a
    /// codec error each time it runs. The job runs on its own thread so
    /// that a hang fails the test instead of stalling the suite.
    #[test]
    fn map_task_that_always_fails_exhausts_its_retry_budget() {
        let (done, result) = std::sync::mpsc::channel();
        let job = std::thread::spawn(move || {
            let cluster = Cluster::new(ClusterConfig::small_test(2));
            let dfs = cluster.dfs();
            dfs.create_file("input", 1, 2).unwrap();
            for p in 0..2 {
                dfs.write_partition_chunks(
                    "input",
                    PartitionId(p),
                    vec![Bytes::from_static(&[1, 2, 3, 4, 5])],
                    NodeId(p),
                    PlacementPolicy::WriterLocal,
                )
                .unwrap();
            }
            let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
            let run = JobRun::full(identity_job(2));
            let _ = done.send(tracker.run(&run, 1));
        });
        let err = result
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("the job must end, not spin on a failing mapper")
            .unwrap_err();
        job.join()
            .expect("the job thread exits once it has reported");
        let retries = ClusterConfig::small_test(2).retry.task_retries;
        assert!(
            matches!(err, Error::RecoveryExhausted { job: JobId(1), attempts, .. }
                if attempts == retries + 1),
            "{err:?}"
        );
    }

    /// Forcing mappers is the simulator's knob: the engine rejects it
    /// before it touches the cluster, as it rejects any invalid plan.
    #[test]
    fn recompute_rejects_forced_mappers_and_touches_nothing() {
        let cluster = Cluster::new(ClusterConfig::small_test(2));
        let dfs = cluster.dfs();
        dfs.create_file("input", 1, 1).unwrap();
        let mut w = RecordWriter::new();
        w.push(&Record::new(1, vec![1; 8]));
        dfs.write_partition_chunks(
            "input",
            PartitionId(0),
            vec![w.finish()],
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
        tracker.run(&JobRun::full(identity_job(2)), 1).unwrap();
        let before = dfs.file_meta("out/1").unwrap();
        let mut plan = RecomputePlan::new([0u32], None);
        plan.force_rerun_mappers = Some(1);
        let err = tracker
            .run(&JobRun::recompute(identity_job(2), plan), 2)
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err:?}");
        assert_eq!(dfs.file_meta("out/1").unwrap(), before);
    }
}
