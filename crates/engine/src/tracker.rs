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
use rcmp_dfs::{ChainCache, LossReport, PlacementPolicy};
use rcmp_exec::{BackendExecutor, SessionExecutor, SlotOutcome, SlotTask, TaskCtx, WaveSpec};
use rcmp_model::rng::derive_indexed;
use rcmp_model::{
    Error, JobId, MapTaskId, NodeId, PartitionId, Record, RecordReader, ReduceTaskId, Result,
    TaskId, TenantId,
};
use rcmp_obs::{
    Counter, EventCode, FaultKind, FlightRecorder, Histogram, Phase, PhaseKind, PhaseProfiler,
    SpanId, SpanKind, Tracer,
};
use rcmp_policy::{reduce_task_set, reduce_tasks_for, PolicyCtx, SliceTopology};
use std::collections::{BTreeSet, HashMap};
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
    /// admitted chain its own reactor session from a global worker
    /// budget). `None` runs on the cluster's shared executor.
    executor: Option<Arc<BackendExecutor>>,
    /// Nodes armed for a torn write: their next partition write commits
    /// only a strict prefix of its chunks and the node dies mid-write.
    torn: Mutex<BTreeSet<NodeId>>,
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

enum ReduceOutcome {
    Done(ReduceTask, TaskRecord),
    /// Shuffle found map outputs missing (lost to a failure, or dropped
    /// because their payload failed to decode); the task stays pending
    /// and the phase loop re-runs the mappers first.
    Missing,
    /// Execution failed for a retryable reason (e.g. writer node died,
    /// or transient shuffle failures exhausted their attempt budget);
    /// the task stays pending and is reassigned next round.
    Retry(ReduceTaskId),
    /// The writer died mid-write leaving a strict prefix of the
    /// partition's chunks committed. The partition may look healthy
    /// (written, replicated) while silently missing records, so the
    /// phase loop must clear and fully re-reduce it.
    Torn {
        task: ReduceTask,
        loss: LossReport,
    },
    /// The wave was cooperatively cancelled before the task started
    /// (`ExecutorConfig::cancel_on_fatal`); the task stays pending and
    /// is reassigned next round without counting against its retry
    /// budget — it never ran.
    Cancelled,
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
    /// backend (per-chain reactor sessions under the job service).
    pub fn with_executor(mut self, executor: Arc<BackendExecutor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// The wave-executor backend this tracker submits to: the per-chain
    /// override when one was leased, else the cluster's shared backend.
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
        let result = self.run_inner(run, seq, open.id);
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
        if let Ok(report) = &result {
            self.m_task_retries.add(report.task_retries as u64);
        }
        result
    }

    fn run_inner(&self, run: &JobRun, seq: u64, job_span: SpanId) -> Result<JobReport> {
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
                if let Some(k) = i.split {
                    if k == 0 {
                        return Err(Error::Config("split factor must be >= 1".into()));
                    }
                    if k > 1 && !spec.splittable {
                        return Err(Error::UnsplittableJob(spec.job));
                    }
                }
                if i.partitions.iter().any(|p| p.raw() >= spec.num_reducers) {
                    return Err(Error::Config(format!(
                        "recompute partition out of range for {} reducers",
                        spec.num_reducers
                    )));
                }
                Some(i.clone())
            }
        };

        let mut report = JobReport {
            job: spec.job,
            seq,
            ..JobReport::default()
        };

        self.fire(seq, spec.job, TriggerPoint::JobStart, job_span, &mut report);

        // ----- mapper reuse decision (pre-flight) -----------------------
        // Computed *before* any destructive output mutation (deleting a
        // Full run's old output, clearing a recompute's target
        // partitions): if the input is not readable the job must cancel
        // leaving the cluster exactly as it found it — otherwise
        // recovery planning would see partitions this run cleared
        // itself as empty-but-not-lost.
        let reuse = instructions.as_ref().is_some_and(|i| i.reuse_map_outputs);
        let ignore_fp = instructions
            .as_ref()
            .is_some_and(|i| i.unsafe_ignore_fingerprints);
        self.check_input_complete(spec)?;
        let mut inputs = self.enumerate_inputs(spec)?;
        let mut pending_maps: Vec<MapTask> = Vec::new();
        for t in &inputs {
            if self.map_output_ok(t, reuse, ignore_fp) {
                report.map_tasks_reused += 1;
            } else {
                pending_maps.push(t.clone());
            }
        }
        self.check_inputs_available(spec, &pending_maps)?;

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
        // The whole loop runs under one executor session: the async
        // backend spawns its worker pool once per *job* here, instead of
        // rebuilding it for every wave (`exec.worker_starts` stays at
        // the pool size while `exec.waves` climbs).
        let mut map_wave_counter = 0u32;
        let mut reduce_wave_counter = 0u32;
        let mut reduce_retry_counts: HashMap<ReduceTaskId, u32> = HashMap::new();
        self.wave_executor().with_session(|session| -> Result<()> {
            for _round in 0..MAX_RECOVERY_ROUNDS {
                // MAP PHASE: ensure every needed map output exists.
                while !pending_maps.is_empty() {
                    self.check_inputs_available(spec, &pending_maps)?;
                    let live = self.live_or_fail()?;
                    let membership = self.cluster.membership();
                    let topo = SliceTopology::for_kernel(
                        &live,
                        self.cluster.config().slots.map,
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
                        // Mid-wave kills land after assignment, before
                        // execution: tasks placed on the victim fail with it.
                        let mid_kills = self.fire(
                            seq,
                            spec.job,
                            TriggerPoint::MidMapWave(map_wave_counter),
                            job_span,
                            &mut report,
                        );
                        let wave_open = self.tracer.open();
                        let wave_kind = SpanKind::Wave {
                            phase: Phase::Map,
                            index: map_wave_counter,
                            tasks: wave.len() as u32,
                            capacity: live.len() as u32 * self.cluster.config().slots.map,
                        };
                        self.recorder.record(
                            EventCode::WaveStart,
                            None,
                            u64::from(map_wave_counter),
                            wave.len() as u64,
                        );
                        let had_failures = self.execute_map_wave(
                            session,
                            wave,
                            spec,
                            &slots,
                            seq,
                            map_wave_counter,
                            wave_open.id,
                            &mut report,
                        );
                        self.tracer
                            .close(wave_open, wave_kind, Some(job_span), None, None);
                        let wave_us = self.tracer.now_us().saturating_sub(wave_open.start_us);
                        if run.mode.is_recompute() {
                            self.profiler.add_us(PhaseKind::RecomputeWave, wave_us);
                        }
                        self.recorder.record(
                            EventCode::WaveEnd,
                            None,
                            u64::from(map_wave_counter),
                            wave_us,
                        );
                        let had_failures = had_failures?;
                        let point = TriggerPoint::AfterMapWave(map_wave_counter);
                        map_wave_counter += 1;
                        let kills = self.fire(seq, spec.job, point, job_span, &mut report);
                        if had_failures || !kills.is_empty() || !mid_kills.is_empty() {
                            interrupted = true;
                            break;
                        }
                    }
                    // Refresh: which map outputs are still missing?
                    inputs = self.enumerate_inputs(spec)?;
                    pending_maps = inputs
                        .iter()
                        .filter(|t| !self.map_output_present(t, ignore_fp))
                        .cloned()
                        .collect();
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
                let live = self.live_or_fail()?;
                let membership = self.cluster.membership();
                let topo = SliceTopology::for_kernel(
                    &live,
                    self.cluster.config().slots.reduce,
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
                    let mid_kills = self.fire(
                        seq,
                        spec.job,
                        TriggerPoint::MidReduceWave(reduce_wave_counter),
                        job_span,
                        &mut report,
                    );
                    let wave_open = self.tracer.open();
                    let wave_kind = SpanKind::Wave {
                        phase: Phase::Reduce,
                        index: reduce_wave_counter,
                        tasks: wave.len() as u32,
                        capacity: live.len() as u32 * self.cluster.config().slots.reduce,
                    };
                    self.recorder.record(
                        EventCode::WaveStart,
                        None,
                        u64::from(reduce_wave_counter),
                        wave.len() as u64,
                    );
                    let outcomes = self.execute_reduce_wave(
                        session,
                        wave,
                        &input_keys,
                        spec,
                        placement,
                        seq,
                        reduce_wave_counter,
                        wave_open.id,
                    );
                    self.tracer
                        .close(wave_open, wave_kind, Some(job_span), None, None);
                    let wave_us = self.tracer.now_us().saturating_sub(wave_open.start_us);
                    if run.mode.is_recompute() {
                        self.profiler.add_us(PhaseKind::RecomputeWave, wave_us);
                    }
                    self.recorder.record(
                        EventCode::WaveEnd,
                        None,
                        u64::from(reduce_wave_counter),
                        wave_us,
                    );
                    let outcomes = outcomes?;
                    let mut wave_had_failures = false;
                    for outcome in outcomes {
                        match outcome {
                            ReduceOutcome::Done(task, rec) => {
                                report.io += rec.io;
                                report.tasks.push(rec);
                                report.reduce_tasks_run += 1;
                                pending_reduces.retain(|t| t.id != task.id);
                            }
                            ReduceOutcome::Missing => {
                                wave_had_failures = true;
                                report.task_retries += 1;
                            }
                            ReduceOutcome::Retry(id) => {
                                wave_had_failures = true;
                                report.task_retries += 1;
                                let count = reduce_retry_counts.entry(id).or_insert(0);
                                *count += 1;
                                if *count > self.cluster.config().retry.task_retries {
                                    return Err(Error::RecoveryExhausted {
                                        job: spec.job,
                                        attempts: *count,
                                        reason: format!("reduce task {id} kept failing retryably"),
                                    });
                                }
                            }
                            ReduceOutcome::Cancelled => {
                                wave_had_failures = true;
                                report.tasks_cancelled += 1;
                            }
                            ReduceOutcome::Fatal(e) => return Err(e),
                            ReduceOutcome::Torn { task, loss } => {
                                wave_had_failures = true;
                                report.task_retries += 1;
                                // A torn write silently damaged the output
                                // partition — a loss in its own right.
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
                            }
                        }
                    }
                    let point = TriggerPoint::AfterReduceWave(reduce_wave_counter);
                    reduce_wave_counter += 1;
                    let kills = self.fire(seq, spec.job, point, job_span, &mut report);
                    if wave_had_failures || !kills.is_empty() || !mid_kills.is_empty() {
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
                inputs = self.enumerate_inputs(spec)?;
                pending_maps = inputs
                    .iter()
                    .filter(|t| !self.map_output_present(t, ignore_fp))
                    .cloned()
                    .collect();

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
        Ok(report)
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
                    self.cluster.map_outputs().arm_flake(node, times);
                }
                Fault::NodeDrain { node } => {
                    // Graceful membership change, not a failure: the
                    // drain is skipped when the node is not currently
                    // schedulable or is the last schedulable node, so an
                    // injected drain can never strand the chain. Data on
                    // the drained node stays readable — no recovery runs.
                    let schedulable = self.cluster.schedulable_nodes();
                    if schedulable.len() > 1 && schedulable.contains(&node) {
                        let _ = self.cluster.drain_node(node);
                    }
                }
            }
        }
        kills
    }

    /// Nodes the next wave may be scheduled on (Up only — draining
    /// nodes keep serving data but take no new tasks).
    fn live_or_fail(&self) -> Result<Vec<NodeId>> {
        let live = self.cluster.schedulable_nodes();
        if live.is_empty() {
            return Err(Error::NoLiveNodes);
        }
        Ok(live)
    }

    /// One mapper per input block, enumerated from current metadata.
    fn enumerate_inputs(&self, spec: &JobSpec) -> Result<Vec<MapTask>> {
        let meta = self.cluster.dfs().file_meta(&spec.input)?;
        let mut tasks = Vec::new();
        let mut index = 0u32;
        for p in &meta.partitions {
            for (bi, loc) in p.block_locations().into_iter().enumerate() {
                tasks.push(MapTask {
                    id: MapTaskId::new(spec.job, index),
                    key: MapInputKey::new(spec.job, p.id, bi as u32),
                    block: loc,
                });
                index += 1;
            }
        }
        Ok(tasks)
    }

    /// Does a valid persisted output exist for this mapper (reuse path)?
    fn map_output_ok(&self, task: &MapTask, reuse: bool, ignore_fp: bool) -> bool {
        reuse && self.map_output_present(task, ignore_fp)
    }

    /// Does the store hold an output for this mapper matching the
    /// current input block fingerprint?
    fn map_output_present(&self, task: &MapTask, ignore_fp: bool) -> bool {
        self.cluster
            .map_outputs()
            .input_hash(&task.key)
            .is_some_and(|hash| ignore_fp || hash == task.block.content_hash)
    }

    /// Errors with [`Error::JobInputLost`] if any input partition was
    /// never (re)written — e.g. cleared by a recomputation run that a
    /// nested failure cancelled. Such a partition has no blocks, so it
    /// would otherwise be silently skipped, dropping its records from
    /// every downstream job.
    fn check_input_complete(&self, spec: &JobSpec) -> Result<()> {
        let meta = self.cluster.dfs().file_meta(&spec.input)?;
        let unwritten: Vec<PartitionId> = meta
            .partitions
            .iter()
            .filter(|p| !p.is_written())
            .map(|p| p.id)
            .collect();
        if unwritten.is_empty() {
            Ok(())
        } else {
            Err(Error::JobInputLost {
                job: spec.job,
                lost_partitions: unwritten,
            })
        }
    }

    /// Errors with [`Error::JobInputLost`] if any pending mapper's input
    /// block has no live replica.
    fn check_inputs_available(&self, spec: &JobSpec, pending: &[MapTask]) -> Result<()> {
        let mut lost: Vec<PartitionId> = pending
            .iter()
            .filter(|t| !t.block.replicas.iter().any(|&n| self.cluster.is_alive(n)))
            .map(|t| t.key.pid)
            .collect();
        if lost.is_empty() {
            Ok(())
        } else {
            lost.sort();
            lost.dedup();
            Err(Error::JobInputLost {
                job: spec.job,
                lost_partitions: lost,
            })
        }
    }

    /// Runs one wave of mappers on the job's executor session.
    /// Returns whether any task failed (triggering reassignment);
    /// errors only when the executor abandoned a task (contained
    /// panic), which escalates as [`Error::ExecutorShutdown`].
    #[allow(clippy::too_many_arguments)]
    fn execute_map_wave<'env>(
        &'env self,
        session: &SessionExecutor<'_, 'env>,
        wave: Vec<(NodeId, MapTask)>,
        spec: &'env JobSpec,
        slots: &'env BucketSlots,
        seq: u64,
        wave_idx: u32,
        wave_span: SpanId,
        report: &mut JobReport,
    ) -> Result<bool> {
        let exec_spec = self.wave_spec("map-wave", seq, wave_idx, wave_span);
        let cancel_on_fatal = self.cluster.config().executor.cancel_on_fatal;
        let tasks: Vec<SlotTask<'env, std::result::Result<TaskRecord, Error>>> = wave
            .into_iter()
            .map(|(node, task)| {
                SlotTask::new(move |ctx: &TaskCtx| {
                    let result = self.run_map_task(node, task, spec, slots, wave_idx, wave_span);
                    if cancel_on_fatal && result.is_err() {
                        ctx.cancel_wave();
                    }
                    result
                })
            })
            .collect();
        let outcomes = {
            // Wave in flight: by-name metric resolution debug-asserts
            // until the guard drops — hot paths must use the handles
            // resolved at construction time.
            let _hot = self.cluster.metrics().enter_hot_scope();
            session.run_wave(&exec_spec, tasks)
        };
        let mut had_failures = false;
        for outcome in outcomes {
            match outcome {
                SlotOutcome::Completed(Ok(rec)) => {
                    self.recorder.record(
                        EventCode::TaskDone,
                        Some(rec.node),
                        u64::from(rec.id.job().0),
                        u64::from(wave_idx),
                    );
                    report.io += rec.io;
                    report.tasks.push(rec);
                    report.map_tasks_run += 1;
                }
                SlotOutcome::Completed(Err(_)) => {
                    self.recorder
                        .record(EventCode::TaskRetry, None, 0, u64::from(wave_idx));
                    had_failures = true;
                    report.task_retries += 1;
                }
                SlotOutcome::Cancelled => {
                    had_failures = true;
                    report.tasks_cancelled += 1;
                }
                SlotOutcome::Abandoned => {
                    return Err(Error::ExecutorShutdown {
                        reason: format!("map task panicked in wave {wave_idx}"),
                    });
                }
            }
        }
        Ok(had_failures)
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

    /// Seed and span identity for one wave submission: the queue order
    /// of the async backend is a pure function of the cluster seed, the
    /// run sequence number and the wave index, so replays are
    /// bit-identical.
    fn wave_spec(
        &self,
        label: &'static str,
        seq: u64,
        wave_idx: u32,
        wave_span: SpanId,
    ) -> WaveSpec {
        let seed = derive_indexed(
            self.cluster.config().seed,
            label,
            (seq << 32) | u64::from(wave_idx),
        );
        WaveSpec::new(label, seed).with_parent(wave_span)
    }

    /// Runs one wave of reducers on the job's executor session.
    /// Errors only when the executor abandoned a task (contained
    /// panic), which escalates as [`Error::ExecutorShutdown`].
    #[allow(clippy::too_many_arguments)]
    fn execute_reduce_wave<'env>(
        &'env self,
        session: &SessionExecutor<'_, 'env>,
        wave: Vec<(NodeId, ReduceTask)>,
        input_keys: &Arc<Vec<MapInputKey>>,
        spec: &'env JobSpec,
        placement: PlacementPolicy,
        seq: u64,
        wave_idx: u32,
        wave_span: SpanId,
    ) -> Result<Vec<ReduceOutcome>> {
        let exec_spec = self.wave_spec("reduce-wave", seq, wave_idx, wave_span);
        let cancel_on_fatal = self.cluster.config().executor.cancel_on_fatal;
        let tasks: Vec<SlotTask<'env, ReduceOutcome>> = wave
            .into_iter()
            .map(|(node, task)| {
                let input_keys = Arc::clone(input_keys);
                SlotTask::new(move |ctx: &TaskCtx| {
                    let outcome = self.run_reduce_task(
                        node,
                        task,
                        input_keys.as_slice(),
                        spec,
                        placement,
                        wave_idx,
                        wave_span,
                    );
                    // A torn write is a node death observed mid-task —
                    // the wave's fatal-fault signal; a fatal task error
                    // ends the job outright.
                    if cancel_on_fatal
                        && matches!(
                            outcome,
                            ReduceOutcome::Torn { .. } | ReduceOutcome::Fatal(_)
                        )
                    {
                        ctx.cancel_wave();
                    }
                    outcome
                })
            })
            .collect();
        // Wave in flight: by-name metric resolution debug-asserts until
        // the guard drops.
        let _hot = self.cluster.metrics().enter_hot_scope();
        session
            .run_wave(&exec_spec, tasks)
            .into_iter()
            .map(|o| match o {
                SlotOutcome::Completed(outcome) => Ok(outcome),
                SlotOutcome::Cancelled => Ok(ReduceOutcome::Cancelled),
                SlotOutcome::Abandoned => Err(Error::ExecutorShutdown {
                    reason: format!("reduce task panicked in wave {wave_idx}"),
                }),
            })
            .collect()
    }

    /// Span wrapper around [`Self::reduce_task_inner`]: one `Task` span
    /// per attempt under the wave, with per-source `ShuffleFetch` child
    /// spans emitted by the inner function.
    #[allow(clippy::too_many_arguments)]
    fn run_reduce_task(
        &self,
        node: NodeId,
        task: ReduceTask,
        input_keys: &[MapInputKey],
        spec: &JobSpec,
        placement: PlacementPolicy,
        wave_idx: u32,
        wave_span: SpanId,
    ) -> ReduceOutcome {
        let tid: TaskId = task.id.into();
        let open = self.tracer.open();
        let outcome =
            self.reduce_task_inner(node, task, input_keys, spec, placement, wave_idx, open.id);
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

    /// Runs one reducer's shuffle, absorbing transient failures in place
    /// with seeded full-jitter backoff (concurrent failing fetches
    /// spread out instead of hammering the flaky path in lockstep) —
    /// but not forever: a path this flaky needs the task rescheduled.
    /// Charges the [`PhaseKind::ShuffleFetch`] budget with the time
    /// spent fetching, the backoff sleeps excluded, and returns the
    /// result with the tracer timestamps bracketing the whole shuffle.
    fn shuffle_with_retry<T>(
        &self,
        node: NodeId,
        id: ReduceTaskId,
        shuffle: impl Fn() -> std::result::Result<T, ShuffleFailure>,
    ) -> std::result::Result<(T, u64, u64), ReduceOutcome> {
        let retry = self.cluster.config().retry;
        let backoff_site = self.backoff_site_seed(id);
        let start = self.tracer.now_us();
        let mut backoff_ns = 0u64;
        let mut attempt = 0u32;
        let shuffled = loop {
            attempt += 1;
            match shuffle() {
                Ok(shuffled) => break shuffled,
                Err(ShuffleFailure::MissingMapOutputs(_)) => return Err(ReduceOutcome::Missing),
                Err(ShuffleFailure::Corrupt { key, .. }) => {
                    // The stored copy is permanently bad: retrying
                    // the fetch returns the same bytes. Drop the
                    // entry so the phase loop re-runs that mapper
                    // from its input block, then report missing.
                    self.cluster.map_outputs().remove(&key);
                    return Err(ReduceOutcome::Missing);
                }
                Err(ShuffleFailure::Transient { .. }) => {
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
                    backoff_ns += self.backoff(&retry, backoff_site, attempt);
                }
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
        let (mut merge, start, end) = match self.shuffle_with_retry(node, task.id, plan) {
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
                        store.remove(&key);
                        return ReduceOutcome::Missing;
                    }
                    Some(Err(ShuffleFailure::MissingMapOutputs(_))) => {
                        return ReduceOutcome::Missing
                    }
                    Some(Err(ShuffleFailure::Transient { .. })) => {
                        return ReduceOutcome::Retry(task.id)
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
        if self.torn.lock().remove(&node) {
            // Armed torn write: commit only a strict prefix of the
            // chunks, then die mid-write. The committed prefix can look
            // like a healthy written partition — the Torn outcome is
            // what forces the phase loop to clear and re-reduce it.
            let keep = chunks.len() / 2;
            let prefix: Vec<_> = chunks.into_iter().take(keep).collect();
            let _ = self.cluster.dfs().write_partition_chunks(
                &spec.output,
                task.id.partition,
                prefix,
                node,
                placement,
            );
            let loss = self.cluster.fail_node(node);
            return ReduceOutcome::Torn { task, loss };
        }
        // Stage whole-reducer output in the chain cache alongside the
        // durable DFS write (write-behind keeps lineage intact: every
        // byte is still checksummed + replicated on disk). Split outputs
        // are never cached — a split writes only a segment of the
        // partition, and the cache is keyed by whole partitions.
        // `Bytes` clones are refcount bumps, so staging is free.
        let stage = self
            .cluster
            .dfs()
            .chain_cache()
            .filter(|_| task.id.split.is_none())
            .map(|cache| (cache.clone(), chunks.clone()));
        match self.cluster.dfs().write_partition_chunks(
            &spec.output,
            task.id.partition,
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
        let spec = JobSpec {
            job: JobId(1),
            input: "input".into(),
            output: "out/1".into(),
            num_reducers: 2,
            output_replication: 1,
            placement: PlacementPolicy::WriterLocal,
            mapper: Arc::new(IdentityMapper),
            reducer: Arc::new(IdentityReducer),
            combiner: None,
            splittable: true,
        };
        let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
        let task = tracker.enumerate_inputs(&spec).unwrap().remove(0);
        let slots = BucketSlots::new(spec.job, spec.num_reducers, None);
        let err = tracker
            .map_task_inner(NodeId(0), task.clone(), &spec, &slots, 0)
            .unwrap_err();
        assert!(matches!(err, Error::Codec(_)), "{err:?}");
        assert_eq!(cluster.map_outputs().input_hash(&task.key), None);
    }
}
