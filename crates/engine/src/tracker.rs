//! The Master: one job submission's effects under the job machine.
//!
//! The phase loop — plan checks, the `JobStart` fire, JobInit, output
//! preparation, rounds of slot-constrained map and reduce waves with
//! their fault points, per-task retry budgets and the damage re-check —
//! is `rcmp_policy::run_job`, the program the simulator runs too. This
//! module is its engine backend:
//!
//! * **JobInit** reads the input file's blocks (one mapper per block)
//!   and the persisted map outputs. A [`RunMode::Recompute`] submission
//!   readies only the minimum necessary tasks: the tagged reducer
//!   partitions (split if instructed) and the mappers whose persisted
//!   outputs are missing or whose input fingerprints no longer match
//!   (§IV-A) — Hadoop, by contrast, "treats each job submitted to the
//!   system as a brand new job and re-executes it entirely", which is
//!   what [`RunMode::Full`] does.
//! * **Execution** runs each wave on the job's executor session; the
//!   failure injector is consulted at job start and around every wave,
//!   and killed nodes lose their DFS blocks and map outputs immediately.
//!   Every task's outcome is recorded, traced and counted here; the
//!   run's `JobRun`, `Wave`, `Fault` and `Loss` spans are the job
//!   machine's.
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
use crate::metrics::{IoBytes, JobReport, TaskRecord};
use crate::scheduler::assign_map_indices;
use crate::shuffle::{ShuffleFailure, StreamingShuffle, MAX_MERGE_WIDTH};
use crate::task::{encode_sorted_bucket, BucketSlots, MapBuckets, MapTask};
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
    Counter, EventCode, FlightRecorder, Gauge, Histogram, OpenSpan, PhaseKind, PhaseProfiler,
    SpanId, SpanKind, Tracer,
};
use rcmp_policy::{
    run_job, InputView, JobBackend, JobShape, JobTally, MapResult, Membership, PolicyCtx,
    RecomputePlan, ReduceResult, SliceTopology, WaveAssignment,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// A reducer pulls key groups from the merge until they hold this many
/// values, then runs the UDF over them: the merge / reduce-UDF
/// attribution costs two clock reads per batch instead of two per
/// group, and the groups' value buffers are reused from batch to batch.
/// Counted in values, not groups, so a batch stays cache-resident
/// between merge and UDF whatever the group size (one value per key on
/// the chain, hundreds on an aggregation).
const REDUCE_BATCH_VALUES: usize = 256;

// Shuffle-attempt and task-retry budgets live in
// `ClusterConfig::retry` (`rcmp_model::RetryPolicy`), together with the
// seeded full-jitter backoff that paces the retries.

/// The per-job master.
pub struct JobTracker<'a> {
    cluster: &'a Cluster,
    injector: Arc<dyn FailureInjector>,
    /// Owning tenant when driven by the job service; the job machine
    /// stamps it on the `JobRun` span so analyzers can filter per
    /// tenant.
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
    /// `shuffle.*`: each reducer's merge counters, folded in after its
    /// merge, and the map-side combiner's record counts.
    m_runs_merged: Counter,
    m_runs_presorted: Counter,
    m_index_bytes_skipped: Counter,
    m_empty_runs_skipped: Counter,
    m_runs_coalesced: Counter,
    /// Peak merge-heap size of the latest reducer.
    m_heap_peak: Gauge,
    m_combiner_records_in: Counter,
    m_combiner_records_out: Counter,
}

/// What every wave of one job run is stamped with.
struct RunAt {
    seq: u64,
    job: JobId,
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
    Done(ReduceTaskId, TaskRecord),
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
        id: ReduceTaskId,
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
            m_runs_merged: metrics.counter("shuffle.runs_merged"),
            m_runs_presorted: metrics.counter("shuffle.runs_presorted"),
            m_index_bytes_skipped: metrics.counter("shuffle.index_bytes_skipped"),
            m_empty_runs_skipped: metrics.counter("shuffle.empty_runs_skipped"),
            m_runs_coalesced: metrics.counter("shuffle.runs_coalesced"),
            m_heap_peak: metrics.gauge("shuffle.heap_peak"),
            m_combiner_records_in: metrics.counter("shuffle.combiner_records_in"),
            m_combiner_records_out: metrics.counter("shuffle.combiner_records_out"),
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
    /// The run's `JobRun` span has no cause.
    pub fn run(&self, run: &JobRun, seq: u64) -> Result<JobReport> {
        let (report, result) = self.run_reporting(run, seq, None);
        result.map(|()| report)
    }

    /// [`Self::run`], with the report handed back whatever the outcome:
    /// a run that stopped early — cancelled on lost input
    /// ([`Error::JobInputLost`]) or failed — reports what it did until
    /// then, its losses in firing order. `cause` is the span that caused
    /// the run (a recomputation: the plan that submitted it).
    pub fn run_reporting(
        &self,
        run: &JobRun,
        seq: u64,
        cause: Option<SpanId>,
    ) -> (JobReport, Result<()>) {
        self.recorder.record(
            EventCode::JobStart,
            None,
            seq,
            u64::from(run.spec.job.0) | (u64::from(run.mode.is_recompute()) << 32),
        );
        let (report, result) = self.run_machine(run, seq, cause);
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
        if result.is_ok() {
            self.m_task_retries.add(report.task_retries as u64);
        }
        (report, result)
    }

    /// The run itself: [`rcmp_policy::run_job`] over an [`EngineJob`],
    /// its tally folded into the report.
    fn run_machine(
        &self,
        run: &JobRun,
        seq: u64,
        cause: Option<SpanId>,
    ) -> (JobReport, Result<()>) {
        let (started, spec, config) = (Instant::now(), &run.spec, self.cluster.config());
        let plan = match &run.mode {
            RunMode::Full => None,
            RunMode::Recompute(plan) => Some(plan),
        };
        let shape = JobShape {
            seq,
            job: spec.job,
            num_reducers: spec.num_reducers,
            output_replication: spec.output_replication,
            splittable: spec.splittable,
            plan,
            slots: config.slots,
            kernel: config.placement,
            task_retries: config.retry.task_retries,
            tracer: &self.tracer,
            cause,
            tenant: self.tenant,
        };
        let (job, recompute) = (spec.job, run.mode.is_recompute());
        let mut engine = EngineJob {
            tracker: self,
            run,
            at: RunAt {
                seq,
                job,
                recompute,
            },
            report: JobReport {
                job,
                seq,
                ..JobReport::default()
            },
            inputs: Vec::new(),
            input_keys: Arc::default(),
        };
        let mut tally = JobTally::default();
        let result = run_job(&mut engine, &shape, &mut tally);
        let mut report = engine.report;
        report.map_tasks_reused = tally.map_tasks_reused;
        report.task_retries = tally.task_retries;
        report.last_loss = tally.last_loss;
        if result.is_ok() {
            report.map_waves = tally.map_waves;
            report.reduce_waves = tally.reduce_waves;
            report.duration = started.elapsed();
        }
        (report, result)
    }

    // ------------------------------------------------------------ helpers

    /// Applies one fault the injector raised at run `seq`: a crash
    /// kills its node now and returns its loss report (the only shape
    /// the job machine must react to immediately); the others arm or
    /// damage something that surfaces through its own detection path.
    fn apply(&self, seq: u64, fault: Fault) -> Option<rcmp_dfs::LossReport> {
        // The record's code is the kind's position: crash 0 … drain 4.
        let code = fault.kind() as u64;
        (self.recorder).record(EventCode::FaultInjected, Some(fault.node()), seq, code);
        match fault {
            Fault::NodeCrash(node) => {
                let loss = self.cluster.fail_node(node);
                self.recorder.record(
                    EventCode::PartitionsLost,
                    Some(node),
                    seq,
                    loss.lost_partition_count() as u64,
                );
                return Some(loss);
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
        None
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

    /// Runs one assigned wave through the job's executor session, in
    /// this order: `WaveStart`, the slot tasks `task` builds under the
    /// wave's span, run under the metrics hot scope, `account` over each
    /// outcome in input order, `RecomputeWave` time and `WaveEnd`. The
    /// wave's span and the fault points around it belong to the job
    /// machine ([`rcmp_policy::job`]). `(map, index, wave_open)` names
    /// the wave: its phase, its index within that phase in this run, and
    /// its open `Wave` span.
    ///
    /// The first error `account` returns — or a panicked task, as
    /// [`Error::ExecutorShutdown`] — stops the accounting and fails the
    /// job once `WaveEnd` is recorded.
    #[allow(clippy::too_many_arguments)]
    fn run_wave<'env, W, T: Send + 'env>(
        &'env self,
        session: &Session<'_, 'env>,
        at: &RunAt,
        (map, index, wave_open): (bool, u32, OpenSpan),
        wave: Vec<(NodeId, W)>,
        report: &mut JobReport,
        task: impl Fn(NodeId, W, SpanId) -> SlotTask<'env, T>,
        mut account: impl FnMut(T, &mut JobReport) -> Result<()>,
    ) -> Result<()> {
        let (kind, label) = match map {
            true => ("map", "map-wave"),
            false => ("reduce", "reduce-wave"),
        };
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
        let accounted = outcomes.into_iter().try_for_each(|outcome| match outcome {
            SlotOutcome::Completed(value) => account(value, report),
            SlotOutcome::Abandoned => Err(Error::ExecutorShutdown {
                reason: format!("{kind} task panicked in wave {index}"),
            }),
        });
        let wave_us = self.tracer.now_us().saturating_sub(wave_open.start_us);
        if at.recompute {
            self.profiler.add_us(PhaseKind::RecomputeWave, wave_us);
        }
        self.recorder
            .record(EventCode::WaveEnd, None, u64::from(index), wave_us);
        accounted
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
        self.m_combiner_records_in.add(recs.len() as u64);
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
        self.m_combiner_records_out.add(out.len() as u64);
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
        id: ReduceTaskId,
        faults: TaskFaults,
        input_keys: &[MapInputKey],
        spec: &JobSpec,
        placement: PlacementPolicy,
        wave_idx: u32,
        wave_span: SpanId,
    ) -> ReduceOutcome {
        let tid: TaskId = id.into();
        let open = self.tracer.open();
        let outcome = self.reduce_task_inner(
            node, id, faults, input_keys, spec, placement, wave_idx, open.id,
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
        id: ReduceTaskId,
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
        let plan = || StreamingShuffle::plan(store, input_keys, id, node, MAX_MERGE_WIDTH);
        let (mut merge, start, end) = match self.shuffle_with_retry(node, id, faults.flakes, plan) {
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
        let stats = merge.stats();
        self.m_runs_merged.add(stats.runs_merged);
        self.m_runs_presorted.add(stats.runs_presorted);
        self.m_index_bytes_skipped.add(stats.index_bytes_skipped);
        self.m_empty_runs_skipped.add(stats.empty_runs_skipped);
        self.m_runs_coalesced.add(stats.runs_coalesced);
        self.m_heap_peak.set(stats.heap_peak as i64);
        if let Some(e) = emit_error {
            return ReduceOutcome::Fatal(e);
        }
        let output_bytes = out.byte_count();
        let chunks = out.finish();
        let dfs = self.cluster.dfs();
        let split = id.split.map_or(0, |(split, _)| split.raw());
        if faults.torn {
            // Armed torn write: commit only a strict prefix of the
            // chunks. The committed prefix can look like a healthy
            // written partition — the Torn outcome is what kills the
            // node at the wave boundary and forces the phase loop to
            // clear and re-reduce the partition.
            let keep = chunks.len() / 2;
            let prefix: Vec<_> = chunks.into_iter().take(keep).collect();
            let _ =
                dfs.write_split_chunks(&spec.output, id.partition, split, prefix, node, placement);
            return ReduceOutcome::Torn { id, node };
        }
        // Stage whole-reducer output in the chain cache alongside the
        // durable DFS write (write-behind keeps lineage intact: every
        // byte is still checksummed + replicated on disk). Split outputs
        // are never cached — a split writes only a segment of the
        // partition, and the cache is keyed by whole partitions.
        // `Bytes` clones are refcount bumps, so staging is free.
        let stage = dfs
            .chain_cache()
            .filter(|_| id.split.is_none())
            .map(|cache| (cache.clone(), chunks.clone()));
        match dfs.write_split_chunks(&spec.output, id.partition, split, chunks, node, placement) {
            Ok(()) => {
                if let Some((cache, staged)) = stage {
                    cache.stage(&spec.output, id.partition, node, &staged);
                }
            }
            Err(_) => return ReduceOutcome::Retry(id),
        }
        let io = IoBytes {
            shuffle_local: merge.local_bytes,
            shuffle_remote: merge.remote_bytes,
            output_written: output_bytes,
            replication_written: output_bytes * (spec.output_replication as u64 - 1),
            ..IoBytes::default()
        };
        ReduceOutcome::Done(
            id,
            TaskRecord {
                id: id.into(),
                node,
                wave: wave_idx,
                io,
                duration: t0.elapsed(),
                input_source: None,
            },
        )
    }
}

/// One run of the tracker: the engine's side of [`rcmp_policy::run_job`].
/// Each task's outcome is recorded, traced and counted here before the
/// machine charges it.
struct EngineJob<'r, 'a> {
    tracker: &'r JobTracker<'a>,
    run: &'r JobRun,
    at: RunAt,
    report: JobReport,
    /// The latest input snapshot's mappers, and the keys every reducer
    /// shuffles from.
    inputs: Vec<MapTask>,
    input_keys: Arc<Vec<MapInputKey>>,
}

/// What the waves of a run that goes ahead share: the job's executor
/// session, and each key's reduce bucket slot (by `Arc`: session workers
/// may briefly outlive one wave's call frame).
struct EngineWaves<'w, 'r> {
    session: &'w Session<'w, 'r>,
    slots: Arc<BucketSlots>,
}

impl<'r> JobBackend for EngineJob<'r, '_> {
    type Waves<'w>
        = EngineWaves<'w, 'r>
    where
        Self: 'w;

    /// Forcing mappers is the simulator's Fig. 13/14 knob: real map
    /// outputs carry the fingerprints that decide reuse.
    fn check_plan(&self, plan: &RecomputePlan) -> Result<()> {
        match plan.force_rerun_mappers {
            Some(_) => Err(Error::Config("force_rerun_mappers is sim-only".into())),
            None => Ok(()),
        }
    }

    fn faults(&mut self, point: TriggerPoint) -> Vec<Fault> {
        let (seq, job) = (self.at.seq, self.at.job);
        (self.tracker.injector).poll_faults(&ProgressEvent { seq, job, point })
    }

    fn apply(&mut self, _: TriggerPoint, fault: Fault) -> Option<usize> {
        let loss = self.tracker.apply(self.at.seq, fault)?;
        let lost = loss.lost_partition_count();
        self.report.losses.push(loss);
        Some(lost)
    }

    fn input(&mut self) -> Result<InputView> {
        let spec = &self.run.spec;
        let (inputs, view) = self.tracker.cluster.map_inputs(spec.job, &spec.input)?;
        self.input_keys = Arc::new(inputs.iter().map(|t| t.key).collect());
        self.inputs = inputs;
        Ok(view)
    }

    fn discard_output(&mut self) -> Result<()> {
        let (cluster, spec) = (self.tracker.cluster, &self.run.spec);
        if cluster.dfs().file_exists(&spec.output) {
            cluster.dfs().delete_file(&spec.output)?;
        }
        cluster.map_outputs().clear_job(spec.job);
        (cluster.dfs()).create_file(&spec.output, spec.output_replication, spec.num_reducers)
    }

    fn clear(&mut self, partitions: &BTreeSet<PartitionId>) -> Result<()> {
        let (dfs, output) = (self.tracker.cluster.dfs(), &self.run.spec.output);
        dfs.file_meta(output)?; // must exist
        (partitions.iter()).try_for_each(|&p| dfs.clear_partition(output, p))
    }

    /// The phase loop runs under one executor session: the pool spawns
    /// its workers once per *job*, not per wave (`exec.worker_starts`
    /// stays at the pool size while `exec.waves` climbs). The run's
    /// input stays pinned in the chain cache while it runs and commits,
    /// so its own staged output cannot evict the partitions its mappers
    /// read; a run that never gets here pins nothing.
    fn with_waves<R>(&mut self, phases: impl FnOnce(&mut Self, &EngineWaves<'_, 'r>) -> R) -> R {
        let (tracker, run) = (self.tracker, self.run);
        let split = match &run.mode {
            RunMode::Recompute(i) if i.split_factor() > 1 => {
                Some((&i.partitions, i.split_factor()))
            }
            _ => None,
        };
        let slots = Arc::new(BucketSlots::new(run.spec.job, run.spec.num_reducers, split));
        let cache = tracker.cluster.dfs().chain_cache();
        if let Some(c) = cache {
            c.pin_file(&run.spec.input);
        }
        let out = (tracker.wave_executor())
            .with_session(|session| phases(self, &EngineWaves { session, slots }));
        if let Some(c) = cache {
            c.unpin_file(&run.spec.input);
        }
        out
    }

    fn membership(&self) -> Membership {
        self.tracker.cluster.membership()
    }

    /// The `stable` kernel routes a mapper to the live node whose chain
    /// cache holds its input partition (job i's reducer output).
    fn assign_maps(
        &mut self,
        pending: &[usize],
        topo: &SliceTopology<'_, NodeId>,
        ctx: PolicyCtx<'_>,
    ) -> Result<WaveAssignment<NodeId>> {
        let holder = |cache: &Arc<ChainCache>, i: usize| {
            let holder = cache.holder(&self.run.spec.input, self.inputs[i].key.pid);
            holder.filter(|h| topo.live().contains(h))
        };
        let cached: Vec<Option<NodeId>> = match self.tracker.cluster.dfs().chain_cache() {
            Some(cache) => pending.iter().map(|&i| holder(cache, i)).collect(),
            None => Vec::new(),
        };
        assign_map_indices(&self.inputs, pending, topo, &cached, ctx)
    }

    fn map_wave(
        &mut self,
        waves: &EngineWaves<'_, 'r>,
        (w, open): (u32, OpenSpan),
        tasks: &[(NodeId, usize)],
        mut account: impl FnMut(MapResult) -> Result<()>,
    ) -> Result<()> {
        let (tracker, spec) = (self.tracker, &self.run.spec);
        let tasks = (tasks.iter()).map(|&(node, i)| (node, self.inputs[i].clone()));
        tracker.run_wave(
            waves.session,
            &self.at,
            (true, w, open),
            tasks.collect(),
            &mut self.report,
            |node, task: MapTask, wave_span| {
                let slots = Arc::clone(&waves.slots);
                SlotTask::new(move |_: &TaskCtx| {
                    let (idx, key) = (task.id.index as usize, task.key);
                    let result = tracker.run_map_task(node, task, spec, &slots, w, wave_span);
                    result.map_err(|e| (idx, key, e))
                })
            },
            |outcome, report| match outcome {
                Ok(rec) => {
                    let job = u64::from(rec.id.job().0);
                    let recorder = &tracker.recorder;
                    recorder.record(EventCode::TaskDone, Some(rec.node), job, u64::from(w));
                    report.io += rec.io;
                    report.tasks.push(rec);
                    report.map_tasks_run += 1;
                    account(MapResult::Done)
                }
                Err((task, key, e)) => {
                    (tracker.recorder).record(EventCode::TaskRetry, None, 0, u64::from(w));
                    let (pid, block) = (key.pid, key.block_idx);
                    let reason = format!("map task over {pid} block {block} kept failing: {e}");
                    account(MapResult::Failed { task, reason })
                }
            },
        )
    }

    fn reduce_wave(
        &mut self,
        waves: &EngineWaves<'_, 'r>,
        (w, open): (u32, OpenSpan),
        tasks: &[(NodeId, ReduceTaskId)],
        mut account: impl FnMut(ReduceResult) -> Result<()>,
    ) -> Result<()> {
        let (tracker, run, at) = (self.tracker, self.run, &self.at);
        // §IV-B2 spread-output mitigation: the plan scatters this run's
        // recomputed reducer output blocks over all nodes instead of
        // using the job's configured placement.
        let placement = match &run.mode {
            RunMode::Recompute(i) if i.spread_output => PlacementPolicy::Spread,
            _ => run.spec.placement,
        };
        tracker.run_wave(
            waves.session,
            at,
            (false, w, open),
            tasks.to_vec(),
            &mut self.report,
            // Called in input order after the mid-wave injection point,
            // so which task carries each armed fault is fixed before
            // any task runs.
            |node, id: ReduceTaskId, wave_span| {
                let faults = tracker.take_faults(node);
                let input_keys = Arc::clone(&self.input_keys);
                SlotTask::new(move |_: &TaskCtx| {
                    let keys = input_keys.as_slice();
                    let outcome = tracker.run_reduce_task(
                        node, id, faults, keys, &run.spec, placement, w, wave_span,
                    );
                    (node, faults.torn, outcome)
                })
            },
            |(node, torn, outcome), report| {
                if torn && !matches!(outcome, ReduceOutcome::Torn { .. }) {
                    // Failed before its write: re-arm.
                    tracker.torn.lock().insert(node);
                }
                match outcome {
                    ReduceOutcome::Done(id, rec) => {
                        report.io += rec.io;
                        report.tasks.push(rec);
                        report.reduce_tasks_run += 1;
                        account(ReduceResult::Done(id))
                    }
                    ReduceOutcome::Missing(corrupt) => {
                        // Drop a corrupt output: its mapper re-runs.
                        if let Some(key) = corrupt {
                            tracker.cluster.map_outputs().remove(&key);
                        }
                        account(ReduceResult::Missing)
                    }
                    ReduceOutcome::Retry(id) => account(ReduceResult::Retry(id)),
                    ReduceOutcome::Fatal(e) => Err(e),
                    ReduceOutcome::Torn { id, node } => {
                        // The torn writer dies at the wave boundary,
                        // unseen by its siblings; its partition is a
                        // loss of its own.
                        report.losses.push(tracker.cluster.fail_node(node));
                        account(ReduceResult::Torn(id.partition))
                    }
                }
            },
        )
    }

    fn lost_partitions(&self) -> Result<BTreeSet<PartitionId>> {
        let meta = self
            .tracker
            .cluster
            .dfs()
            .file_meta(&self.run.spec.output)?;
        Ok((meta.partitions.iter())
            .filter(|p| p.is_lost())
            .map(|p| p.id)
            .collect())
    }

    /// Admits the staged reducer outputs into the chain cache on the
    /// control thread, in ascending partition order, so admission never
    /// depends on worker interleaving.
    fn commit(&mut self) -> Result<()> {
        let (cluster, spec) = (self.tracker.cluster, &self.run.spec);
        if !self.run.persist_map_outputs {
            cluster.map_outputs().clear_job(spec.job);
        }
        if let Some(cache) = cluster.dfs().chain_cache() {
            cache.commit(&spec.output);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::NoFailures;
    use crate::udf::{IdentityMapper, IdentityReducer};
    use rcmp_model::{ByteSize, ClusterConfig, RecordWriter};

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
        let event = ProgressEvent {
            seq: 1,
            job: JobId(1),
            point: TriggerPoint::JobStart,
        };
        for fault in tracker.injector.poll_faults(&event) {
            tracker.apply(1, fault);
        }
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

    /// An invalid plan is rejected before the run fires its `JobStart`
    /// entries: the crash scripted onto the run never strikes, and
    /// nothing changes (DESIGN §3.7).
    #[test]
    fn invalid_plan_is_rejected_before_the_job_start_fire() {
        let cluster = Cluster::new(ClusterConfig::small_test(2));
        let injector = crate::failure::ScriptedInjector::default();
        injector.add(crate::failure::FailureAt {
            seq: 1,
            point: TriggerPoint::JobStart,
            fault: Fault::NodeCrash(NodeId(0)),
        });
        let tracker = JobTracker::new(&cluster, Arc::new(injector));
        let plan = RecomputePlan::new([99u32], None);
        let err = tracker
            .run(&JobRun::recompute(identity_job(2), plan), 1)
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err:?}");
        assert!(cluster.is_alive(NodeId(0)), "the crash never fired");
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

    /// A run pins its input in the chain cache only once it goes ahead
    /// (the simulator's test of the same name): a run cancelled at
    /// JobInit leaves the cache's recency as it was, so the next
    /// admission evicts that run's input first.
    #[test]
    fn a_run_cancelled_at_job_init_pins_nothing() {
        let chain_job = |j: u32| JobSpec {
            job: JobId(j),
            input: if j == 1 {
                "input".into()
            } else {
                format!("out/{}", j - 1)
            },
            output: format!("out/{j}"),
            ..identity_job(4)
        };
        let cluster_with = |budget: ByteSize| {
            let mut cfg = ClusterConfig::small_test(4);
            cfg.chain_cache = rcmp_model::ChainCacheConfig {
                enabled: true,
                budget,
            };
            let cluster = Cluster::new(cfg);
            let dfs = cluster.dfs();
            dfs.create_file("input", 1, 4).unwrap();
            for p in 0..4u32 {
                let mut w = RecordWriter::new();
                for key in 0..64u64 {
                    w.push(&Record::new(key * 4 + u64::from(p), vec![p as u8; 32]));
                }
                let (pid, policy) = (PartitionId(p), PlacementPolicy::WriterLocal);
                let chunks = vec![w.finish()];
                let written = dfs.write_partition_chunks("input", pid, chunks, NodeId(p), policy);
                written.unwrap();
            }
            let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
            for j in 1..=3 {
                tracker
                    .run(&JobRun::full(chain_job(j)), u64::from(j))
                    .unwrap();
            }
            cluster
        };
        let resident = |cluster: &Cluster, path: &str| -> Vec<u32> {
            let cache = cluster.dfs().chain_cache().unwrap();
            (0..4)
                .filter(|&p| cache.holder(path, PartitionId(p)).is_some())
                .collect()
        };
        let probe = cluster_with(ByteSize::gib(1));
        let budget = probe.dfs().chain_cache().unwrap().stats().used_bytes;
        let cluster = cluster_with(ByteSize::bytes(budget));
        let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
        // Job 2's input loses a partition: its run is cancelled.
        cluster
            .dfs()
            .clear_partition("out/1", PartitionId(0))
            .unwrap();
        let err = tracker.run(&JobRun::full(chain_job(2)), 4).unwrap_err();
        assert!(matches!(err, Error::JobInputLost { .. }), "{err}");
        // Job 4 needs four partitions' room; out/3 is its pinned input.
        tracker.run(&JobRun::full(chain_job(4)), 5).unwrap();
        assert_eq!(
            resident(&cluster, "out/1"),
            [] as [u32; 0],
            "the unpinned input went first"
        );
        assert_eq!(resident(&cluster, "out/2"), [0, 1, 2, 3]);
        assert_eq!(resident(&cluster, "out/4"), [0, 1, 2, 3]);
    }
}
