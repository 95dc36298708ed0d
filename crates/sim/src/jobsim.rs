//! Simulates one MapReduce job run: wave-by-wave timing under a
//! quasi-static contention model.
//!
//! Within each wave the set of concurrent streams per resource is known
//! (tasks don't start or stop mid-wave at this granularity), so each
//! task's phase times follow from bandwidth shares:
//!
//! * a mapper reads its block from a source disk shared with that
//!   disk's other readers/writers this wave — when a recomputation wave
//!   converges on one node, the per-stream share collapses via the seek
//!   penalty, which *is* the hot-spot of §IV-B2;
//! * a reducer's fetch is bottlenecked by the slowest serving disk or
//!   by its NIC; the SLOW SHUFFLE emulation adds the §V-D per-transfer
//!   delay (serialized over the copier window, so it scales with the
//!   number of map outputs);
//! * output writes pay `replication ×` the disk work plus network for
//!   the remote copies — the REPL-2/REPL-3 overhead of Fig. 8;
//! * the first reducer wave's shuffle overlaps the map phase (§IV-B1:
//!   "only the first reducer wave overlaps with the map phase"); later
//!   waves pay their shuffle in full — the wave effects of Figs. 13/14.
//!
//! A run is traced as the engine's is: the job machine writes its
//! run, wave, fault and loss spans on a [`SimTrace`] — a tracer whose
//! manual clock reads simulated seconds as microseconds — and each
//! wave writes one `Task` span per attempt, with its modelled duration.

use crate::hw::HwProfile;
use crate::report::SimJobReport;
use crate::speculate::{speculate_wave, SpeculationCfg, WaveTask};
use crate::state::{file_path, InputBlock, MapOutputRec, Node, Segment, SimPartition, SimState};
use crate::workload::WorkloadCfg;
use rcmp_model::{
    JobId, MapTaskId, NodeId, PartitionId, PlacementKernel, ReduceTaskId, Result, TaskId,
};
use rcmp_obs::{ManualClock, OpenSpan, SpanId, SpanKind, Tracer};
use rcmp_policy::{
    assign_map_waves, block_key, replica_targets, run_job, segment_key, Clock, FailureAt, Fault,
    InputView, JobBackend, JobShape, JobTally, Loss, MapResult, MapTaskSet, Membership,
    PlacementPolicy, PolicyCtx, ReduceResult, SliceTopology, Stamp, TriggerPoint, WaveAssignment,
};
use std::collections::{BTreeMap, BTreeSet};

/// Instructions for a recomputation run. This *is* the shared
/// [`rcmp_policy::RecomputePlan`] — the same type the engine consumes as
/// `RecomputeInstructions` — so a plan computed by the middleware can be
/// replayed in the simulator verbatim.
pub use rcmp_policy::RecomputePlan as RecomputeSpec;

/// Simulates job runs for one workload + hardware profile.
#[derive(Clone, Debug)]
pub struct JobSim {
    pub hw: HwProfile,
    pub wl: WorkloadCfg,
    /// Optional speculative execution of map-wave stragglers (§III-A).
    pub speculation: Option<SpeculationCfg>,
    /// Non-collocated mode (§II): storage and computation separated —
    /// every mapper input read and every reducer output write crosses
    /// the network; data locality does not exist. "Our contributions
    /// directly apply also to the non-collocated case."
    pub noncollocated: bool,
    /// Placement kernel driving wave assignment (`Default` reproduces
    /// the historical slot-pull byte for byte).
    pub placement: PlacementKernel,
}

/// The kernel's view of one run's mappers, as the engine's scheduler
/// views its `MapTask`s: the primary is a block's first holder and any
/// holder is local — neither exists when storage is non-collocated —
/// and `cache_src[t]` is the live node whose chain cache holds task
/// `t`'s input partition.
struct MapTaskView<'a> {
    all: &'a [InputBlock],
    to_run: &'a [usize],
    cache_src: &'a [Option<Node>],
    noncollocated: bool,
}

impl MapTaskSet<NodeId> for MapTaskView<'_> {
    fn len(&self) -> usize {
        self.to_run.len()
    }

    fn is_primary_holder(&self, task: usize, node: NodeId) -> bool {
        !self.noncollocated && self.all[self.to_run[task]].holders.first() == Some(&node.raw())
    }

    fn holds_replica(&self, task: usize, node: NodeId) -> bool {
        !self.noncollocated && self.all[self.to_run[task]].holders.contains(&node.raw())
    }

    fn cache_holder(&self, task: usize) -> Option<NodeId> {
        self.cache_src[task].map(NodeId)
    }
}

impl JobSim {
    pub fn new(hw: HwProfile, wl: WorkloadCfg) -> Self {
        Self {
            hw,
            wl,
            speculation: None,
            noncollocated: false,
            placement: PlacementKernel::Default,
        }
    }

    /// Enables speculative execution of map-wave stragglers.
    pub fn with_speculation(mut self, cfg: SpeculationCfg) -> Self {
        self.speculation = Some(cfg);
        self
    }

    /// Selects the placement kernel waves are assigned with.
    pub fn with_placement(mut self, kernel: PlacementKernel) -> Self {
        self.placement = kernel;
        self
    }

    /// Switches to the non-collocated deployment (§II): a storage tier
    /// of the same width serves all reads/writes over the network.
    pub fn noncollocated(mut self) -> Self {
        self.noncollocated = true;
        self
    }

    /// Full (initial or restarted) run of `job`. Fails with
    /// [`rcmp_model::Error::JobInputLost`] — before it discards
    /// anything — when its input is lost, and with
    /// [`rcmp_model::Error::NoLiveNodes`] when no node can take its
    /// tasks.
    pub fn run_full(
        &self,
        state: &mut SimState,
        job: u32,
        replication: u32,
        persist: bool,
    ) -> Result<SimJobReport> {
        let (script, trace) = (&mut Script::default(), &SimTrace::default());
        self.run_scripted(state, job, None, replication, persist, script, trace)
    }

    /// RCMP recomputation run. Fails with [`rcmp_model::Error::Config`]
    /// or [`rcmp_model::Error::UnsplittableJob`] on a plan the engine
    /// rejects too ([`RecomputeSpec::validate`]; simulated jobs are
    /// splittable), with [`rcmp_model::Error::JobInputLost`] when a
    /// mapper it must re-run lost its input, and with
    /// [`rcmp_model::Error::NoLiveNodes`] when no node can take its
    /// tasks.
    pub fn run_recompute(
        &self,
        state: &mut SimState,
        job: u32,
        spec: &RecomputeSpec,
        persist: bool,
    ) -> Result<SimJobReport> {
        let (script, trace) = (&mut Script::default(), &SimTrace::default());
        self.run_scripted(state, job, Some(spec), 1, persist, script, trace)
    }

    /// One run through the job machine ([`rcmp_policy::run_job`]), with
    /// `script`'s entries fired at its points and its spans on `trace`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_scripted(
        &self,
        state: &mut SimState,
        job: u32,
        plan: Option<&RecomputeSpec>,
        replication: u32,
        persist: bool,
        script: &mut Script<'_>,
        trace: &SimTrace,
    ) -> Result<SimJobReport> {
        let shape = JobShape {
            seq: script.seq,
            job: JobId(job),
            num_reducers: self.wl.num_reducers,
            output_replication: replication,
            splittable: true,
            plan,
            slots: self.wl.slots,
            kernel: self.placement,
            task_retries: script.task_retries,
            tracer: &trace.tracer,
            cause: script.cause,
            tenant: None,
        };
        let report = SimJobReport {
            job,
            recompute: plan.is_some(),
            ..SimJobReport::default()
        };
        let mut run = SimRun {
            js: self,
            state,
            job,
            plan,
            replication,
            persist,
            script,
            trace,
            all: Vec::new(),
            map_phase: 0.0,
            reduce_phase: 0.0,
            detect_secs: 0.0,
            outputs_lost: false,
            report,
            staged: BTreeMap::new(),
            cache_writers: BTreeMap::new(),
        };
        let mut tally = JobTally::default();
        let result = run_job(&mut run, &shape, &mut tally);
        run.report.mappers_reused = tally.map_tasks_reused;
        run.script.elapsed = run.elapsed();
        run.script.last_loss = tally.last_loss;
        result.map(|()| run.report)
    }
}

/// One run's fault script and the chain clock. In: the run's number and
/// the span that caused it, the entries scripted for the run, the
/// per-task retry budget and the clock at the run's start. Out: the
/// clock after its `JobStart` crashes, one loss per crash in firing
/// order, the latest `Loss` span, and the seconds it spent in waves and
/// in detecting wave-point crashes — what a cancelled run charges. A
/// plain run has no entries, so none of its tasks can fail.
#[derive(Default)]
pub(crate) struct Script<'a> {
    pub seq: u64,
    pub cause: Option<SpanId>,
    pub entries: &'a [FailureAt],
    pub task_retries: u32,
    pub clock: f64,
    pub losses: Vec<Loss>,
    pub last_loss: Option<SpanId>,
    pub elapsed: f64,
}

/// The simulator's tracer: its manual clock is set from the simulated
/// clock, seconds as microseconds, so spans and the event log read one
/// time base.
pub(crate) struct SimTrace {
    pub tracer: Tracer,
    hand: ManualClock,
}

impl Default for SimTrace {
    fn default() -> Self {
        let (clock, hand) = rcmp_obs::Clock::manual();
        Self {
            tracer: Tracer::with_clock(clock),
            hand,
        }
    }
}

impl SimTrace {
    /// Sets the tracer's clock to `secs` simulated seconds.
    pub fn set(&self, secs: f64) {
        self.hand.set_us(us(secs));
    }
}

/// Simulated seconds → span microseconds.
fn us(secs: f64) -> u64 {
    (secs * 1e6).round().max(0.0) as u64
}

/// A reading of the simulated clock.
pub(crate) fn sim_time(at: f64) -> Stamp {
    Stamp {
        clock: Clock::SimSeconds,
        at,
    }
}

/// Seconds into a run the paper injects its failure (§V-A); the k-th
/// crash scripted for one run's `JobStart` is charged `k` times this.
const CRASH_OFFSET: f64 = 15.0;

/// Paper §V-D: the SLOW SHUFFLE delay applies per transfer, serialized
/// over the copier window (Hadoop fetches ~5 map outputs at a time), so
/// it scales with the number of sources.
const PARALLEL_COPIES: f64 = 5.0;

/// Map outputs are served through a bounded copier window (~5
/// concurrent segment fetches per serving disk in Hadoop), so — unlike
/// the map phase's simultaneous whole-block reads, which are the
/// hot-spot mechanism — shuffle serving never degenerates into an N-way
/// seek storm.
const COPIER_WINDOW: usize = 5;

/// What a `Task` span says of its attempt: the task, bytes in and out,
/// and the node that served a mapper's input.
type TaskSpan = (TaskId, u64, u64, Option<NodeId>);

/// The reducer output of one partition until its last task's wave ends.
#[derive(Default)]
struct Staged {
    segments: Vec<Segment>,
    bytes: u64,
    tasks: u32,
}

/// One job run: the simulator's side of [`rcmp_policy::run_job`]. Each
/// wave charges its cost-model duration; the script's crashes and
/// drains apply to the state at the machine's points.
struct SimRun<'a, 's> {
    js: &'a JobSim,
    state: &'a mut SimState,
    job: u32,
    plan: Option<&'a RecomputeSpec>,
    replication: u32,
    persist: bool,
    script: &'a mut Script<'s>,
    trace: &'a SimTrace,
    /// The latest input snapshot's blocks.
    all: Vec<InputBlock>,
    map_phase: f64,
    reduce_phase: f64,
    /// Detection time of the run's wave-point crashes.
    detect_secs: f64,
    /// A crash took a map output of this job since the last input
    /// snapshot: every reducer's shuffle finds it missing.
    outputs_lost: bool,
    report: SimJobReport,
    staged: BTreeMap<u32, Staged>,
    /// Writer of each whole-partition reduce task: the chain cache only
    /// admits whole reducer outputs (the engine's `split.is_none()`
    /// staging guard).
    cache_writers: BTreeMap<u32, Node>,
}

impl SimRun<'_, '_> {
    /// Seconds into the run, job overhead aside.
    fn elapsed(&self) -> f64 {
        self.map_phase + self.reduce_phase + self.detect_secs
    }

    /// Moves the trace clock to the run's simulated now.
    fn sync(&self) {
        self.trace.set(self.script.clock + self.elapsed());
    }

    /// One `Task` span under wave `open`: from the wave's start for
    /// `secs` (`None`: a failed attempt, which takes no time), cut at
    /// the wave's end (the first reduce wave's shuffle overlaps the map
    /// phase, so its tasks can outlast its own share of the clock).
    fn task_span(&self, open: OpenSpan, node: NodeId, task: TaskSpan, secs: Option<f64>) {
        let (id, bytes_in, bytes_out, input_source) = task;
        let end = us(self.script.clock + self.elapsed());
        let start = open.start_us.min(end);
        let kind = SpanKind::Task {
            id,
            bytes_in,
            bytes_out,
            input_source,
            ok: secs.is_some(),
        };
        let stop = secs.map_or(start, |d| (start + us(d)).min(end));
        (self.trace.tracer).record(kind, Some(open.id), None, Some(node), start, stop);
    }

    /// Where mapper `t`'s input comes from: the chain-cache holder's
    /// memory when the partition is cached (on a live node, and storage
    /// is collocated).
    fn cache_source(&self, t: &InputBlock) -> Option<Node> {
        let holder = self.state.cache_holder(self.job - 1, t.pid);
        holder.filter(|&h| self.state.is_alive(h) && !self.js.noncollocated)
    }
}

impl JobBackend for SimRun<'_, '_> {
    type Waves<'w>
        = ()
    where
        Self: 'w;

    fn faults(&mut self, point: TriggerPoint) -> Vec<Fault> {
        let entries = self.script.entries.iter().filter(|f| f.point == point);
        entries.map(|f| f.fault).collect()
    }

    /// A crash kills its node now. At `JobStart` the k-th one strikes
    /// 15·k s after the previous one was detected (after the run
    /// started, for the first), the paper's injection; at a wave point
    /// it strikes there. It is detected `detect_timeout` later, and the
    /// run pays the wait: the trace clock moves to the detection. A
    /// drain is free, and skipped unless
    /// [`rcmp_policy::Membership::drainable`] allows it.
    fn apply(&mut self, point: TriggerPoint, fault: Fault) -> Option<usize> {
        let detect = self.js.hw.detect_timeout;
        match fault {
            Fault::NodeCrash(node) => {
                let (elapsed, script) = (self.elapsed(), &mut *self.script);
                let (fault, detected) = if point == TriggerPoint::JobStart {
                    let offset = CRASH_OFFSET * (script.losses.len() + 1) as f64;
                    let fault = script.clock + offset;
                    script.clock += offset + detect;
                    (fault, script.clock)
                } else {
                    let fault = script.clock + elapsed;
                    self.detect_secs += detect;
                    (fault, fault + detect)
                };
                let outputs = self.state.map_outputs.range((self.job, 0, 0)..);
                let mut outputs = outputs.take_while(|((job, ..), _)| *job == self.job);
                self.outputs_lost |= outputs.any(|(_, rec)| rec.node == node.raw());
                let lost: usize = self
                    .state
                    .fail_node(node.raw())
                    .values()
                    .map(BTreeSet::len)
                    .sum();
                self.script.losses.push(Loss {
                    node: Some(node),
                    lost_partitions: lost,
                    fault: sim_time(fault),
                    detected: sim_time(detected),
                });
                self.sync();
                Some(lost)
            }
            Fault::NodeDrain { node } => {
                if self.state.membership().drainable(node.raw()) {
                    let _ = self.state.drain_node(node.raw());
                }
                None
            }
            _ => None,
        }
    }

    fn input(&mut self) -> Result<InputView> {
        // The input file does not change while its reader runs: its
        // blocks are read once, their liveness and outputs every time.
        if self.all.is_empty() {
            let block_size = self.js.wl.block_size.as_u64();
            self.all = self.state.input_blocks(self.job, block_size);
        }
        self.outputs_lost = false;
        Ok(self.state.input_view(self.job, &self.all))
    }

    /// A restarted job discards partial results (§V-A), including any
    /// chain-cached copies of the discarded output (the engine's
    /// `delete_file` invalidation hook), and starts from unwritten
    /// partitions.
    fn discard_output(&mut self) -> Result<()> {
        let job = self.job;
        self.state.clear_job_outputs(job);
        let file = self.state.files.entry(job).or_default();
        file.partitions.clear();
        (file.partitions).resize(self.js.wl.num_reducers as usize, SimPartition::default());
        if let Some(c) = self.state.chain_cache.as_mut() {
            c.invalidate_file(&job);
        }
        Ok(())
    }

    fn clear(&mut self, partitions: &BTreeSet<PartitionId>) -> Result<()> {
        for p in partitions {
            self.staged.remove(&p.raw());
            self.state.clear_partition(self.job, p.raw());
        }
        Ok(())
    }

    /// The run's input stays pinned in the chain cache while it runs
    /// and commits (as in the tracker's `with_waves`), so its own output
    /// cannot evict the partitions it reads.
    fn with_waves<R>(&mut self, phases: impl FnOnce(&mut Self, &()) -> R) -> R {
        let input = self.job - 1;
        if let Some(c) = self.state.chain_cache.as_mut() {
            c.pin(&input);
        }
        let out = phases(self, &());
        if let Some(c) = self.state.chain_cache.as_mut() {
            c.unpin(&input);
        }
        out
    }

    fn membership(&self) -> Membership {
        self.state.membership().clone()
    }

    /// Chain-cache affinity: which node holds each task's input
    /// partition in memory. The kernel routes tasks to it under the
    /// `Stable` kernel, as the engine tracker does.
    fn assign_maps(
        &mut self,
        pending: &[usize],
        topo: &SliceTopology<'_, NodeId>,
        ctx: PolicyCtx<'_>,
    ) -> Result<WaveAssignment<NodeId>> {
        let cache_src: Vec<Option<Node>> = (pending.iter())
            .map(|&i| self.cache_source(&self.all[i]))
            .collect();
        let view = MapTaskView {
            all: &self.all,
            to_run: pending,
            cache_src: &cache_src,
            noncollocated: self.js.noncollocated,
        };
        assign_map_waves(topo, &view, ctx)
    }

    fn map_wave(
        &mut self,
        _: &(),
        (_, open): (u32, OpenSpan),
        wave: &[(NodeId, usize)],
        mut account: impl FnMut(MapResult) -> Result<()>,
    ) -> Result<()> {
        let (hw, wl) = (&self.js.hw, &self.js.wl);
        let noncol = self.js.noncollocated;
        let state = &*self.state;
        // Source per task: the chain-cache holder's memory when the
        // partition is cached; else own node if it holds a live
        // replica; else rotate over the live holders so concurrent
        // remote readers of one partition spread across its replicas.
        // A task fails when its node is down, or no live node holds
        // its block.
        let sources: Vec<std::result::Result<(Node, Node, bool), &str>> = (wave.iter())
            .map(|&(node, ti)| {
                let (node, t) = (node.raw(), &self.all[ti]);
                if !state.is_alive(node) {
                    return Err("its node is down");
                }
                if let Some(h) = self.cache_source(t) {
                    return Ok((node, h, true));
                }
                if !noncol && t.holders.contains(&node) {
                    return Ok((node, node, false));
                }
                let live_holders: Vec<Node> = (t.holders.iter().copied())
                    .filter(|&h| state.is_alive(h))
                    .collect();
                match live_holders.len() {
                    0 => Err("no live node holds its block"),
                    n => Ok((node, live_holders[t.blk as usize % n], false)),
                }
            })
            .collect();
        let assignments: Vec<(Node, &InputBlock, Node, bool)> = (wave.iter().zip(&sources))
            .filter_map(|(&(_, ti), src)| {
                let &(node, src, from_cache) = src.as_ref().ok()?;
                Some((node, &self.all[ti], src, from_cache))
            })
            .collect();
        // Per-node stream counts this wave. Collocated clusters
        // share one disk per node between input reads and map-output
        // writes; the non-collocated deployment has distinct storage
        // and compute tiers, so the two kinds of streams never
        // contend with each other. Cached reads come from memory and
        // never touch the source disk.
        let mut read_streams: BTreeMap<Node, usize> = BTreeMap::new();
        let mut write_streams: BTreeMap<Node, usize> = BTreeMap::new();
        let mut net_out: BTreeMap<Node, usize> = BTreeMap::new();
        for (node, _, src, from_cache) in &assignments {
            if !from_cache {
                *read_streams.entry(*src).or_insert(0) += 1;
            }
            *write_streams.entry(*node).or_insert(0) += 1;
            if noncol || src != node {
                *net_out.entry(*src).or_insert(0) += 1;
            }
        }
        let read_contention = |src: Node| {
            read_streams.get(&src).copied().unwrap_or(0)
                + if noncol {
                    0
                } else {
                    write_streams.get(&src).copied().unwrap_or(0)
                }
        };
        let write_contention = |node: Node| {
            write_streams.get(&node).copied().unwrap_or(0)
                + if noncol {
                    0
                } else {
                    read_streams.get(&node).copied().unwrap_or(0)
                }
        };
        let report = &mut self.report;
        let mut outputs = Vec::with_capacity(assignments.len());
        let mut wave_tasks: Vec<WaveTask> = Vec::with_capacity(assignments.len());
        for (node, t, src, from_cache) in &assignments {
            let mut read_time = if *from_cache {
                // Memory-resident partition: zero disk work, zero
                // re-decode — the M3R fast path. A non-holder reader
                // still crosses the network.
                report.cache_hits += 1;
                report.cache_read_bytes += t.bytes;
                if src == node {
                    report.cache_hits_local += 1;
                }
                t.bytes as f64 / hw.mem_read_bw
            } else {
                let read_bw = hw.disk_stream_bw(hw.disk_read_bw, read_contention(*src));
                t.bytes as f64 / read_bw
            };
            if noncol || src != node {
                let net_bw = hw.nic_stream_bw(net_out.get(src).copied().unwrap_or(1).max(1));
                read_time = read_time.max(t.bytes as f64 / net_bw);
                report.io.map_input_remote += t.bytes;
            } else {
                report.io.map_input_local += t.bytes;
            }
            let cpu = t.bytes as f64 * hw.map_cpu_per_byte;
            let out_bytes = (t.bytes as f64 * wl.map_ratio) as u64;
            let write_bw = hw.disk_stream_bw(hw.disk_write_bw, write_contention(*node));
            let write_time = out_bytes as f64 / write_bw;
            let dur = hw.task_overhead + read_time + cpu + write_time;
            // A speculative duplicate could read from another live
            // replica, uncontended (it launches after the wave's
            // bulk finished). With single-replicated input there is
            // no alternate — the paper's point about replication
            // being a prerequisite for input-bound speculation.
            let alt = t
                .holders
                .iter()
                .any(|&h| h != *src && state.is_alive(h))
                .then(|| {
                    hw.task_overhead
                        + t.bytes as f64 / hw.disk_stream_bw(hw.disk_read_bw, 1)
                        + cpu
                        + write_time
                });
            // Healthy baseline: a local task whose node disk serves
            // its own slots' reads + writes (2 streams per map slot)
            // — the progress rate Hadoop considers normal.
            let healthy_streams = (2 * wl.slots.map).max(1) as usize;
            let uncontended = hw.task_overhead
                + t.bytes as f64 / hw.disk_stream_bw(hw.disk_read_bw, healthy_streams)
                + cpu
                + out_bytes as f64 / hw.disk_stream_bw(hw.disk_write_bw, healthy_streams);
            wave_tasks.push(WaveTask {
                duration: dur,
                uncontended,
                alt_duration: alt,
            });
            let output = MapOutputRec {
                node: *node,
                input_version: t.version,
                bytes: out_bytes,
            };
            outputs.push(((self.job, t.pid, t.blk), output));
        }
        let durations = match &self.js.speculation {
            Some(cfg) => {
                let (effective, stats) = speculate_wave(cfg, &wave_tasks);
                report.speculation.add(&stats);
                effective
            }
            None => wave_tasks.iter().map(|t| t.duration).collect(),
        };
        report.mapper_durations.extend_from_slice(&durations);
        self.map_phase += durations.iter().copied().fold(0.0f64, f64::max);
        report.map_waves += 1;
        report.mappers_run += outputs.len();
        for (key, output) in outputs {
            self.state.record_map_output(key, output);
        }
        let job = JobId(self.job);
        let mut ran = durations.iter();
        for (&(node, ti), src) in wave.iter().zip(&sources) {
            let t = &self.all[ti];
            let id = MapTaskId::new(job, ti as u32).into();
            let (source, secs) = match src {
                Ok((_, src, _)) => (Some(NodeId(*src)), ran.next().copied()),
                Err(_) => (None, None),
            };
            let bytes = if secs.is_some() { t.bytes } else { 0 };
            self.task_span(open, node, (id, bytes, 0, source), secs);
        }
        self.sync();
        for (&(node, ti), src) in wave.iter().zip(sources) {
            account(match src {
                Ok(_) => MapResult::Done,
                Err(why) => {
                    let t = &self.all[ti];
                    MapResult::Failed {
                        task: ti,
                        reason: format!(
                            "map task over {} block {} on {node} kept failing: {why}",
                            PartitionId(t.pid),
                            t.blk
                        ),
                    }
                }
            })?;
        }
        Ok(())
    }

    fn reduce_wave(
        &mut self,
        _: &(),
        (index, open): (u32, OpenSpan),
        wave: &[(NodeId, ReduceTaskId)],
        mut account: impl FnMut(ReduceResult) -> Result<()>,
    ) -> Result<()> {
        let (hw, wl) = (&self.js.hw, &self.js.wl);
        let job = self.job;
        let state = &*self.state;
        // A reducer shuffles from every mapper: once a crash took a map
        // output, every reducer fails and the mappers re-run first.
        if self.outputs_lost {
            self.report.reduce_waves += 1;
            for &(node, id) in wave {
                self.task_span(open, node, (id.into(), 0, 0, None), None);
            }
            return wave.iter().try_for_each(|_| account(ReduceResult::Missing));
        }
        // Map-output location profile for shuffle sourcing (valid
        // entries of this job, including reused ones).
        let mut mo_bytes: BTreeMap<Node, u64> = BTreeMap::new();
        let mut total_mo = 0u64;
        let mut num_sources = 0usize;
        for (_, rec) in state.map_outputs.range((job, 0, 0)..(job + 1, 0, 0)) {
            *mo_bytes.entry(rec.node).or_insert(0) += rec.bytes;
            total_mo += rec.bytes;
            num_sources += 1;
        }
        let slow_delay = hw.shuffle_transfer_delay * (num_sources as f64 / PARALLEL_COPIES).ceil();
        // (node, task, fetch bytes, output bytes) of the tasks whose node
        // is up; the others fail with it.
        let total_input: u64 = self.all.iter().map(|t| t.bytes).sum();
        let shuffle_total = (total_input as f64 * wl.map_ratio) as u64;
        let per_partition_shuffle = shuffle_total / wl.num_reducers as u64;
        let running: Vec<(Node, ReduceTaskId, u64, u64)> = (wave.iter())
            .filter(|(node, _)| state.is_alive(node.raw()))
            .map(|&(node, id)| {
                let k = id.split.map_or(1, |(_, k)| k);
                let f = per_partition_shuffle / k as u64;
                (node.raw(), id, f, (f as f64 * wl.reduce_ratio) as u64)
            })
            .collect();
        // Wave-level serving load per source disk: every task
        // fetches `frac(m)` of its volume from node m.
        let wave_fetch_total: u64 = running.iter().map(|t| t.2).sum();
        let max_fetch: u64 = running.iter().map(|t| t.2).max().unwrap_or(0);
        let serve_streams = running.len().clamp(1, COPIER_WINDOW);
        let serve_bw = hw.disk_agg_bw(hw.disk_read_bw, serve_streams);
        let serve_time = mo_bytes
            .values()
            .map(|&mb| {
                if total_mo == 0 {
                    0.0
                } else {
                    (wave_fetch_total as f64 * mb as f64 / total_mo as f64) / serve_bw
                }
            })
            .fold(0.0f64, f64::max);

        // Output placement is the engine's: a segment takes the key of
        // its first block. A task writes one segment, or under the
        // spread-output mitigation one per block, each placed apart as
        // the engine's chunks are.
        let out_path = file_path(job);
        let (policy, segment_bytes) = if self.plan.is_some_and(|r| r.spread_output) {
            (PlacementPolicy::Spread, wl.block_size.as_u64())
        } else {
            (PlacementPolicy::WriterLocal, u64::MAX)
        };
        let replication = self.replication;
        let report = &mut self.report;
        let mut wave_time = 0.0f64;
        let mut shuffle_max = 0.0f64;
        let mut ran = Vec::with_capacity(running.len());
        for &(node, id, fetch, out_b) in &running {
            let pid = id.partition.raw();
            // This task's share of the serving bottleneck: smaller
            // (split) tasks drain proportionally sooner.
            let fetch_disk = if max_fetch == 0 {
                0.0
            } else {
                serve_time * fetch as f64 / max_fetch as f64
            };
            let local_bytes = if total_mo == 0 || self.js.noncollocated {
                0
            } else {
                (fetch as f64 * mo_bytes.get(&node).copied().unwrap_or(0) as f64 / total_mo as f64)
                    as u64
            };
            let remote = fetch.saturating_sub(local_bytes);
            let tasks_on_node = running.iter().filter(|t| t.0 == node).count();
            let fetch_net = remote as f64 / hw.nic_stream_bw(tasks_on_node);
            let fetch_vol = fetch_disk.max(fetch_net);
            let fetch_time = fetch_vol + slow_delay;
            report.io.shuffle_local += local_bytes;
            report.io.shuffle_remote += remote;

            // Sort + reduce CPU.
            let cpu = fetch as f64 * hw.reduce_cpu_per_byte;

            // Output write. With replication r, every node in a
            // balanced wave writes its own output *and* absorbs
            // incoming replicas from r-1 peers: r× the bytes over
            // r× the concurrent streams (the seek penalty makes
            // this super-linear — the REPL contention of Fig. 8a).
            let write_streams = tasks_on_node * replication as usize;
            let disk_bytes = out_b * replication as u64;
            let mut write_time =
                disk_bytes as f64 / hw.disk_agg_bw(hw.disk_write_bw, write_streams);
            if self.js.noncollocated {
                // The output crosses the network to the storage tier.
                write_time = write_time
                    .max(out_b as f64 * replication as f64 / hw.nic_stream_bw(tasks_on_node));
            }
            if replication > 1 {
                let repl_bytes = out_b * (replication as u64 - 1);
                let net_time = repl_bytes as f64 / hw.nic_stream_bw(tasks_on_node);
                write_time = write_time.max(net_time);
                report.io.replication_written += repl_bytes;
            }
            report.io.output_written += out_b;

            let dur = hw.task_overhead + fetch_time + cpu + write_time;
            report.reducer_durations.push(dur);
            ran.push((fetch, out_b, dur));
            wave_time = wave_time.max(dur);
            shuffle_max = shuffle_max.max(fetch_vol + slow_delay);

            // Placement of the output.
            if id.split.is_none() {
                self.cache_writers.insert(pid, node);
            }
            let split = id.split.map_or(0, |(s, _)| s.raw());
            let segment = segment_key(state.seed, &out_path, pid, split);
            let staged = self.staged.entry(pid).or_default();
            for index in 0..out_b.div_ceil(segment_bytes).max(1) as u32 {
                let key = block_key(segment, index);
                let holders =
                    replica_targets(key, policy, node, replication, &[], state.membership());
                staged.segments.push(Segment {
                    holders,
                    bytes: 0,
                    key,
                });
            }
            staged.bytes += out_b;
            staged.tasks += 1;
        }
        // Overlap rule: the first wave's shuffle (volume *and*
        // copier-delay rounds) proceeds while map waves still run;
        // at minimum the last map wave's data — one copier round
        // with its transfer-end delay — remains exposed after the
        // map phase ends. The effective first-wave shuffle is
        // therefore ≈ max(map_phase, shuffle), which is exactly why
        // under SLOW SHUFFLE "finishing the map phase faster does
        // not decrease the time necessary to complete the
        // network-bottlenecked shuffle" (§V-D). Later waves have no
        // map phase to hide behind and pay everything in full.
        if index == 0 && report.map_waves >= 1 {
            let min_exposed = shuffle_max / report.map_waves as f64 + hw.shuffle_transfer_delay;
            let credit = (shuffle_max - min_exposed).max(0.0).min(self.map_phase);
            self.reduce_phase += wave_time - credit;
        } else {
            self.reduce_phase += wave_time;
        }
        report.reduce_waves += 1;
        report.reduce_tasks_run += running.len();
        let mut ran = ran.into_iter();
        for &(node, id) in wave {
            let done = self
                .state
                .is_alive(node.raw())
                .then(|| ran.next())
                .flatten();
            let (fetch, out) = done.map_or((0, 0), |(fetch, out, _)| (fetch, out));
            let secs = done.map(|(.., secs)| secs);
            self.task_span(open, node, (id.into(), fetch, out, None), secs);
        }
        self.sync();
        // A partition's output lands once its last task is done, with
        // its bytes split evenly over its segments.
        let split = self.plan.map_or(1, RecomputeSpec::split_factor);
        let done: Vec<u32> = (self.staged.iter())
            .filter(|(_, staged)| staged.tasks == split)
            .map(|(&pid, _)| pid)
            .collect();
        for pid in done {
            let Staged {
                mut segments,
                bytes,
                ..
            } = self.staged.remove(&pid).unwrap_or_default();
            let n = segments.len().max(1) as u64;
            for s in &mut segments {
                s.bytes = bytes / n;
            }
            if let Some(first) = segments.first_mut() {
                first.bytes += bytes % n;
            }
            self.state.rewrite_partition(job, pid, segments);
        }
        for &(node, id) in wave {
            account(if self.state.is_alive(node.raw()) {
                ReduceResult::Done(id)
            } else {
                ReduceResult::Retry(id)
            })?;
        }
        Ok(())
    }

    /// Written partitions with a block no live node holds, and those
    /// whose finished tasks' output has lost one before it landed.
    fn lost_partitions(&self) -> Result<BTreeSet<PartitionId>> {
        let state = &*self.state;
        let written = (state.files.get(&self.job)).map(|f| f.lost_partitions(state));
        let staged = (self.staged.iter())
            .filter(|(_, s)| {
                s.segments
                    .iter()
                    .any(|seg| seg.live_holder(state).is_none())
            })
            .map(|(&pid, _)| pid);
        let lost = written.into_iter().flatten().chain(staged);
        Ok(lost.map(PartitionId).collect())
    }

    /// Write-behind done: admits this run's whole reducer outputs into
    /// the chain cache — the same commit the engine tracker performs at
    /// successful job completion.
    fn commit(&mut self) -> Result<()> {
        let job = self.job;
        let output = self.state.files.get(&job);
        let bytes = |pid: u32| output.map_or(0, |f| f.partitions[pid as usize].bytes());
        let staged: Vec<(u32, Node, u64)> = (self.cache_writers.iter())
            .map(|(&pid, &node)| (pid, node, bytes(pid)))
            .collect();
        if let Some(cache) = self.state.chain_cache.as_mut() {
            for (pid, node, bytes) in staged {
                cache.stage(job, pid, node, bytes);
            }
            cache.commit(&job);
        }
        if !self.persist {
            self.state.clear_job_outputs(job);
        }
        let hw = &self.js.hw;
        self.report.duration =
            hw.job_overhead + self.map_phase + self.reduce_phase + self.detect_secs;
        self.trace.set(self.script.clock + self.report.duration);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_model::{ByteSize, Error, PartitionId, SlotConfig};

    fn small_wl(nodes: u32) -> WorkloadCfg {
        WorkloadCfg {
            nodes,
            slots: SlotConfig::ONE_ONE,
            jobs: 3,
            per_node_input: ByteSize::mib(512),
            block_size: ByteSize::mib(128),
            num_reducers: nodes,
            map_ratio: 1.0,
            reduce_ratio: 1.0,
            input_replication: 3,
        }
    }

    fn sim(nodes: u32) -> (JobSim, SimState) {
        let wl = small_wl(nodes);
        let state = SimState::new(&wl, 0);
        (JobSim::new(HwProfile::stic(), wl), state)
    }

    #[test]
    fn task_view_schedules_like_closures_over_the_same_holders() {
        // Holders include dead node 4; task 1 is reused (not run).
        let all: Vec<InputBlock> = [
            vec![2, 0],
            vec![1],
            vec![],
            vec![0, 2],
            vec![4, 1],
            vec![1, 3],
        ]
        .into_iter()
        .enumerate()
        .map(|(i, holders)| InputBlock {
            pid: i as u32,
            blk: 0,
            bytes: 1,
            holders,
            version: 0,
        })
        .collect();
        let to_run = [0, 2, 3, 4, 5];
        let cache_src = vec![None; to_run.len()];
        let mut m = rcmp_policy::Membership::with_racks(4, 2);
        m.join(3, 1);
        let live: Vec<NodeId> = m.schedulable().into_iter().map(NodeId).collect();
        let holders = |t: usize| &all[to_run[t]].holders;
        let kernels = [
            PlacementKernel::Default,
            PlacementKernel::RackAware,
            PlacementKernel::Delay { rounds: 2 },
            PlacementKernel::CapacityWeighted,
            PlacementKernel::Stable,
        ];
        for kernel in kernels {
            let topo = SliceTopology::for_kernel(&live, 2, kernel, &m);
            let ctx = PolicyCtx::disabled();
            let view = |noncollocated| MapTaskView {
                all: &all,
                to_run: &to_run,
                cache_src: &cache_src,
                noncollocated,
            };
            let collocated = rcmp_policy::FnMapTasks::new(
                to_run.len(),
                |t, n: NodeId| holders(t).first() == Some(&n.raw()),
                |t, n: NodeId| holders(t).contains(&n.raw()),
            );
            assert_eq!(
                assign_map_waves(&topo, &view(false), ctx),
                assign_map_waves(&topo, &collocated, ctx),
                "{kernel:?}, collocated"
            );
            // Separate storage: no node holds any input locally.
            let never = |_, _: NodeId| false;
            let remote = rcmp_policy::FnMapTasks::new(to_run.len(), never, never);
            assert_eq!(
                assign_map_waves(&topo, &view(true), ctx),
                assign_map_waves(&topo, &remote, ctx),
                "{kernel:?}, non-collocated"
            );
        }
    }

    #[test]
    fn full_run_counts_match_model() {
        let (js, mut st) = sim(4);
        let r = js.run_full(&mut st, 1, 1, true).unwrap();
        assert_eq!(r.mappers_run, 16); // 4 blocks × 4 nodes
        assert_eq!(r.mappers_reused, 0);
        assert_eq!(r.reduce_tasks_run, 4);
        assert_eq!(r.map_waves, 4);
        assert_eq!(r.reduce_waves, 1);
        assert!(r.duration > 0.0);
        // 1:1 ratio volume conservation.
        assert_eq!(
            r.io.map_input_local + r.io.map_input_remote,
            ByteSize::mib(2048).as_u64()
        );
        // Output file placed.
        assert!(st.files[&1].partitions.iter().all(|p| p.is_written()));
    }

    #[test]
    fn replication_increases_duration_and_volume() {
        let (js, mut st1) = sim(4);
        let t1 = js.run_full(&mut st1, 1, 1, true).unwrap();
        let (js3, mut st3) = sim(4);
        let t3 = js3.run_full(&mut st3, 1, 3, true).unwrap();
        assert!(
            t3.duration > t1.duration * 1.2,
            "{} vs {}",
            t3.duration,
            t1.duration
        );
        assert_eq!(t1.io.replication_written, 0);
        assert!(t3.io.replication_written > 0);
    }

    #[test]
    fn initial_mappers_are_mostly_local() {
        // With 3 replicas on 4 nodes the greedy balanced scheduler gets
        // most (not all) tasks local — same policy as the real engine.
        let (js, mut st) = sim(4);
        let r = js.run_full(&mut st, 1, 1, true).unwrap();
        let total = r.io.map_input_local + r.io.map_input_remote;
        assert!(
            r.io.map_input_local * 2 > total,
            "expected mostly-local reads: {:?}",
            r.io
        );
    }

    #[test]
    fn recompute_reuses_persisted_outputs() {
        let (js, mut st) = sim(4);
        js.run_full(&mut st, 1, 1, true).unwrap();
        js.run_full(&mut st, 2, 1, true).unwrap();
        // Lose node 3: its partition of out/1 and its map outputs die.
        st.fail_node(3);
        let lost = st.files[&1].lost_partitions(&st);
        assert!(!lost.is_empty());
        let spec = RecomputeSpec::new(lost.iter().copied(), 1);
        let r = js.run_recompute(&mut st, 1, &spec, true).unwrap();
        assert!(r.mappers_reused > 0, "survivor outputs reused");
        assert!(r.mappers_run < 16, "only the dead node's mappers re-run");
        assert_eq!(r.reduce_tasks_run, lost.len());
        assert!(st.files[&1].lost_partitions(&st).is_empty(), "regenerated");
    }

    #[test]
    fn split_recompute_uses_more_smaller_tasks() {
        let (js, mut st) = sim(6);
        js.run_full(&mut st, 1, 1, true).unwrap();
        st.fail_node(5);
        let lost: Vec<u32> = st.files[&1].lost_partitions(&st).into_iter().collect();
        assert!(!lost.is_empty());

        let whole = js
            .clone()
            .run_recompute(
                &mut st.clone(),
                1,
                &RecomputeSpec::new(lost.clone(), 1),
                true,
            )
            .unwrap();
        let split = js
            .run_recompute(&mut st, 1, &RecomputeSpec::new(lost.clone(), 5), true)
            .unwrap();
        assert_eq!(split.reduce_tasks_run, whole.reduce_tasks_run * 5);
        // Splitting speeds up the recomputation (Fig. 11).
        assert!(
            split.duration < whole.duration,
            "split {} !< whole {}",
            split.duration,
            whole.duration
        );
        // The regenerated partition is spread over several nodes.
        let p = &st.files[&1].partitions[lost[0] as usize];
        assert_eq!(p.segments.len(), 5);
    }

    /// The Fig. 6 scenario: after an unsplit recomputation of job 1's
    /// lost partition (one node Z holds all of it), the *recomputation
    /// of job 2* re-runs exactly the mappers that died with the failed
    /// node — and they all converge on Z in one wave.
    #[test]
    fn hotspot_slows_recomputed_mappers_and_split_mitigates() {
        let run_scenario = |split: u32| -> f64 {
            let (js, mut st) = sim(6);
            js.run_full(&mut st, 1, 1, true).unwrap();
            js.run_full(&mut st, 2, 1, true).unwrap();
            st.fail_node(5);
            let lost1 = st.files[&1].lost_partitions(&st);
            let lost2 = st.files[&2].lost_partitions(&st);
            assert!(!lost1.is_empty() && !lost2.is_empty());
            js.run_recompute(
                &mut st,
                1,
                &RecomputeSpec::new(lost1.iter().copied(), split),
                true,
            )
            .unwrap();
            let r2 = js
                .run_recompute(
                    &mut st,
                    2,
                    &RecomputeSpec::new(lost2.iter().copied(), split),
                    true,
                )
                .unwrap();
            assert!(r2.mappers_run > 0, "dead node's mappers must re-run");
            // Median mapper duration of the recomputation run.
            let mut d = r2.mapper_durations.clone();
            d.sort_by(f64::total_cmp);
            d[d.len() / 2]
        };
        let no_split_median = run_scenario(1);
        let split_median = run_scenario(5);
        assert!(
            no_split_median > split_median * 1.2,
            "splitting must mitigate the hot-spot: {no_split_median} vs {split_median}"
        );
    }

    #[test]
    fn slow_shuffle_dominates() {
        let wl = small_wl(4);
        let state = SimState::new(&wl, 0);
        let fast = JobSim::new(HwProfile::stic(), wl.clone());
        let slow = JobSim::new(HwProfile::stic().with_slow_shuffle(), wl);
        let tf = fast.run_full(&mut state.clone(), 1, 1, true).unwrap();
        let ts = slow.run_full(&mut state.clone(), 1, 1, true).unwrap();
        // The copier delay partially overlaps the map phase; the exposed
        // tail still lengthens the job noticeably.
        assert!(
            ts.duration > tf.duration + 10.0,
            "{} vs {}",
            ts.duration,
            tf.duration
        );
    }

    #[test]
    fn spread_output_scatters_partition() {
        let (js, mut st) = sim(6);
        js.run_full(&mut st, 1, 1, true).unwrap();
        st.fail_node(5);
        let lost = st.files[&1].lost_partitions(&st);
        let mut spec = RecomputeSpec::new(lost.iter().copied(), 1);
        spec.spread_output = true;
        js.run_recompute(&mut st, 1, &spec, true).unwrap();
        let p = &st.files[&1].partitions[*lost.first().unwrap() as usize];
        assert!(p.segments.len() > 1, "output scattered over nodes");
    }

    /// The engine's plan checks: `JobSim` accepted these plans, and the
    /// out-of-range one grew the output file to 100 partitions.
    #[test]
    fn recompute_rejects_the_plans_the_engine_rejects() {
        let (js, mut st) = sim(4);
        js.run_full(&mut st, 1, 1, true).unwrap();
        let before = st.files.clone();
        for (plan, split) in [([99u32], Some(0)), ([99], None), ([0], Some(0))] {
            let err = js
                .run_recompute(&mut st, 1, &RecomputeSpec::new(plan, split), true)
                .unwrap_err();
            assert!(matches!(err, Error::Config(_)), "{plan:?} {split:?}: {err}");
        }
        assert_eq!(st.files, before, "a rejected plan changes nothing");
    }

    /// JobInit decides before a full run discards anything: a run over
    /// a lost input is cancelled and leaves the job's output file and
    /// persisted map outputs as they were.
    #[test]
    fn full_run_over_unreadable_input_is_cancelled_and_discards_nothing() {
        let (js, mut st) = sim(4);
        js.run_full(&mut st, 1, 1, true).unwrap();
        js.run_full(&mut st, 2, 1, true).unwrap();
        st.fail_node(3);
        let lost: Vec<PartitionId> = st.files[&1]
            .lost_partitions(&st)
            .into_iter()
            .map(PartitionId)
            .collect();
        assert!(!lost.is_empty());
        let (output, map_outputs) = (st.files[&2].clone(), st.map_outputs.clone());
        let err = js.run_full(&mut st, 2, 1, true).unwrap_err();
        assert_eq!(
            err,
            Error::JobInputLost {
                job: JobId(2),
                lost_partitions: lost,
            }
        );
        assert_eq!(st.files[&2], output);
        assert_eq!(st.map_outputs, map_outputs);
    }

    /// Pinned difference (DESIGN §3.7): forcing mappers is the
    /// simulator's Fig. 13/14 knob, and it re-runs exactly that many
    /// mappers, reusing the rest; the engine rejects the plan
    /// (`recompute_rejects_forced_mappers_and_touches_nothing`).
    #[test]
    fn forced_mappers_run_exactly_on_the_simulator() {
        let (js, mut st) = sim(4);
        js.run_full(&mut st, 1, 1, true).unwrap();
        let mut spec = RecomputeSpec::new([0u32], None);
        spec.force_rerun_mappers = Some(5);
        let r = js.run_recompute(&mut st, 1, &spec, true).unwrap();
        assert_eq!((r.mappers_run, r.mappers_reused), (5, 11));
    }

    /// A job with no reducers is a configuration error before the run
    /// fires or touches anything, as on the engine (DESIGN §3.7).
    #[test]
    fn a_job_without_reducers_is_a_config_error() {
        let mut wl = small_wl(4);
        wl.num_reducers = 0;
        let mut st = SimState::new(&wl, 0);
        let before = st.files.clone();
        let err = (JobSim::new(HwProfile::stic(), wl).run_full(&mut st, 1, 1, true)).unwrap_err();
        assert!(matches!(err, Error::Config(_)), "{err}");
        assert_eq!(st.files, before);
    }

    #[test]
    fn no_persist_clears_outputs() {
        let (js, mut st) = sim(4);
        js.run_full(&mut st, 1, 1, false).unwrap();
        assert_eq!(st.persisted_bytes(), 0);
    }

    /// A run pins its input only once it goes ahead, so a run cancelled
    /// at JobInit leaves the cache's recency as it was — the next
    /// admission evicts the cancelled run's input first. The tracker's
    /// test of the same name checks the engine (DESIGN §3.7).
    #[test]
    fn a_run_cancelled_at_job_init_pins_nothing() {
        let resident = |st: &SimState, file: u32| -> Vec<u32> {
            (0..4)
                .filter(|&p| st.cache_holder(file, p).is_some())
                .collect()
        };
        let (js, mut probe) = sim(4);
        probe.enable_chain_cache(u64::MAX);
        for job in 1..=3 {
            js.run_full(&mut probe, job, 1, true).unwrap();
        }
        let budget = probe.chain_cache.as_ref().unwrap().used_bytes();
        let (js, mut st) = sim(4);
        st.enable_chain_cache(budget);
        for job in 1..=3 {
            js.run_full(&mut st, job, 1, true).unwrap();
        }
        // Job 2's input loses a partition: its run is cancelled.
        st.clear_partition(1, 0);
        let err = js.run_full(&mut st, 2, 1, true).unwrap_err();
        assert!(matches!(err, Error::JobInputLost { .. }), "{err}");
        // Job 4 needs four partitions' room; out(3) is its pinned input.
        js.run_full(&mut st, 4, 1, true).unwrap();
        assert_eq!(
            resident(&st, 1),
            [] as [u32; 0],
            "the unpinned input went first"
        );
        assert_eq!(resident(&st, 2), [0, 1, 2, 3]);
        assert_eq!(resident(&st, 4), [0, 1, 2, 3]);
    }

    /// A recomputation run re-reads an older file. The run pins it, and
    /// a pin makes a file the most recent (the engine's `pin_file`), so
    /// the next admission under pressure evicts the stale remainder of
    /// the *newer* file, as the engine does — where the old mirror,
    /// which never bumped, threw out the file just re-read.
    #[test]
    fn recompute_reread_makes_its_input_most_recent_like_the_engine() {
        let resident = |st: &SimState, file: u32| -> Vec<u32> {
            (0..4)
                .filter(|&p| st.cache_holder(file, p).is_some())
                .collect()
        };
        // Size the budget to exactly the first three outputs.
        let (js, mut probe) = sim(4);
        probe.enable_chain_cache(u64::MAX);
        for job in 1..=3 {
            js.run_full(&mut probe, job, 1, true).unwrap();
        }
        let budget = probe.chain_cache.as_ref().unwrap().used_bytes();

        let (js, mut st) = sim(4);
        st.enable_chain_cache(budget);
        for job in 1..=3 {
            js.run_full(&mut st, job, 1, true).unwrap();
        }
        assert_eq!(st.chain_cache.as_ref().unwrap().entries().count(), 12);
        // Regenerate partition 0 of out(2): re-reads out(1).
        let spec = RecomputeSpec::new([0u32], None);
        js.run_recompute(&mut st, 2, &spec, true).unwrap();
        // Job 4 needs four partitions' room; out(3) is its pinned input.
        js.run_full(&mut st, 4, 1, true).unwrap();
        assert_eq!(resident(&st, 2), [0], "only the regenerated partition");
        assert_eq!(resident(&st, 1), [1, 2, 3], "re-read file outlives it");
        assert_eq!(resident(&st, 3), [0, 1, 2, 3]);
        assert_eq!(resident(&st, 4), [0, 1, 2, 3]);
        assert_eq!(st.chain_cache.as_ref().unwrap().spills(), 0);
    }
}
