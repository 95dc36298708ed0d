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

use crate::hw::HwProfile;
use crate::report::SimJobReport;
use crate::speculate::{speculate_wave, SpeculationCfg, WaveTask};
use crate::state::{MapOutputRec, Node, Segment, SimState};
use crate::workload::WorkloadCfg;
use rcmp_model::{JobId, PlacementKernel, Result};
use rcmp_policy::{
    assign_map_waves, assign_reduce_waves, reduce_task_set, FnReduceTasks, MapTaskSet, PolicyCtx,
    SliceTopology,
};
use std::collections::BTreeMap;

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

struct MapTaskSim {
    pid: u32,
    blk: u32,
    bytes: u64,
    holders: Vec<Node>,
}

/// The kernel's view of one run's mappers, as the engine's scheduler
/// views its `MapTask`s: the primary is a block's first holder and any
/// holder is local — neither exists when storage is non-collocated —
/// and `cache_src[t]` is the live node whose chain cache holds task
/// `t`'s input partition.
struct MapTaskView<'a> {
    all: &'a [MapTaskSim],
    to_run: &'a [usize],
    cache_src: &'a [Option<Node>],
    noncollocated: bool,
}

impl MapTaskSet<Node> for MapTaskView<'_> {
    fn len(&self) -> usize {
        self.to_run.len()
    }

    fn is_primary_holder(&self, task: usize, node: Node) -> bool {
        !self.noncollocated && self.all[self.to_run[task]].holders.first() == Some(&node)
    }

    fn holds_replica(&self, task: usize, node: Node) -> bool {
        !self.noncollocated && self.all[self.to_run[task]].holders.contains(&node)
    }

    fn cache_holder(&self, task: usize) -> Option<Node> {
        self.cache_src[task]
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
    /// [`rcmp_model::Error::NoLiveNodes`] on a fully-dead cluster.
    pub fn run_full(
        &self,
        state: &mut SimState,
        job: u32,
        replication: u32,
        persist: bool,
    ) -> Result<SimJobReport> {
        // A restarted job discards partial results (§V-A) — including
        // any chain-cached copies of the discarded output (the engine's
        // `delete_file` invalidation hook).
        state.clear_job_outputs(job);
        if let Some(f) = state.files.get_mut(&job) {
            f.partitions.clear();
        }
        if let Some(c) = state.chain_cache.as_mut() {
            c.invalidate_file(&job);
        }
        self.run(state, job, None, replication, persist)
    }

    /// RCMP recomputation run. Fails with
    /// [`rcmp_model::Error::NoLiveNodes`] on a fully-dead cluster.
    pub fn run_recompute(
        &self,
        state: &mut SimState,
        job: u32,
        spec: &RecomputeSpec,
        persist: bool,
    ) -> Result<SimJobReport> {
        self.run(state, job, Some(spec), 1, persist)
    }

    /// One run with its input file pinned in the chain cache for the
    /// duration — what the engine tracker's `ChainCachePin` does — so
    /// the run's own output cannot evict the partitions it is reading.
    fn run(
        &self,
        state: &mut SimState,
        job: u32,
        recompute: Option<&RecomputeSpec>,
        replication: u32,
        persist: bool,
    ) -> Result<SimJobReport> {
        let input_file = job - 1;
        if let Some(c) = state.chain_cache.as_mut() {
            c.pin(&input_file);
        }
        let result = self.run_pinned(state, job, recompute, replication, persist);
        if let Some(c) = state.chain_cache.as_mut() {
            c.unpin(&input_file);
        }
        result
    }

    fn run_pinned(
        &self,
        state: &mut SimState,
        job: u32,
        recompute: Option<&RecomputeSpec>,
        replication: u32,
        persist: bool,
    ) -> Result<SimJobReport> {
        let hw = &self.hw;
        let wl = &self.wl;
        let input_file = job - 1;
        let block = wl.block_size.as_u64();
        let live = state.live_nodes();
        // A membership snapshot for this run's scheduling decisions —
        // mid-run transitions (none today) would only affect later runs,
        // matching the engine's snapshot-per-phase behaviour.
        let membership = state.membership().clone();
        let ctx = PolicyCtx::disabled();

        let mut report = SimJobReport {
            job,
            recompute: recompute.is_some(),
            ..SimJobReport::default()
        };

        // ---------------- mapper task set -------------------------------
        let blocks = state.file_blocks(input_file, block);
        let all_tasks: Vec<MapTaskSim> = blocks
            .into_iter()
            .map(|(pid, blk, bytes, holders)| MapTaskSim {
                pid,
                blk,
                bytes,
                holders,
            })
            .collect();
        let reuse = recompute.is_some_and(|r| r.reuse_map_outputs);
        let to_run: Vec<usize> = match recompute.and_then(|r| r.force_rerun_mappers) {
            Some(n) => {
                // Stride evenly across the input so the forced set is
                // spread over partitions (and their holders) the way
                // real invalidation is — taking a prefix would pile all
                // reads onto one partition's few replica holders.
                let total = all_tasks.len();
                let n = n.min(total);
                let mut picked: Vec<usize> = (0..n).map(|i| i * total / n.max(1)).collect();
                picked.dedup();
                picked
            }
            None => (0..all_tasks.len())
                .filter(|&i| {
                    let t = &all_tasks[i];
                    let v = state.partition_version(input_file, t.pid);
                    !(reuse && state.map_output_valid((job, t.pid, t.blk), v))
                })
                .collect(),
        };
        report.mappers_reused = all_tasks.len() - to_run.len();
        report.mappers_run = to_run.len();

        // ---------------- map phase -------------------------------------
        let mut map_phase = 0.0f64;
        let noncol = self.noncollocated;
        // Chain-cache affinity: which node holds each task's input
        // partition in memory. The kernel routes tasks to it under the
        // `Stable` kernel (as the engine tracker does); reads use it
        // whenever the cache is on.
        let cache_src: Vec<Option<Node>> = to_run
            .iter()
            .map(|&i| {
                state
                    .cache_holder(input_file, all_tasks[i].pid)
                    .filter(|&h| state.is_alive(h) && !noncol)
            })
            .collect();
        let view = MapTaskView {
            all: &all_tasks,
            to_run: &to_run,
            cache_src: &cache_src,
            noncollocated: noncol,
        };
        let topo = SliceTopology::for_kernel(&live, wl.slots.map, self.placement, &membership);
        let waves = assign_map_waves(&topo, &view, ctx)?;
        report.map_waves = waves.len() as u32;
        for wave in &waves {
            // Source per task: the chain-cache holder's memory when the
            // partition is cached; else own node if it holds a live
            // replica; else rotate over the live holders so concurrent
            // remote readers of one partition spread across its replicas.
            let assignments: Vec<(Node, &MapTaskSim, Node, bool)> = wave
                .iter()
                .map(|&(node, ti)| {
                    let t = &all_tasks[to_run[ti]];
                    if let Some(h) = cache_src[ti] {
                        return (node, t, h, true);
                    }
                    let src =
                        if !self.noncollocated && t.holders.contains(&node) && state.is_alive(node)
                        {
                            node
                        } else {
                            let live_holders: Vec<Node> = t
                                .holders
                                .iter()
                                .copied()
                                .filter(|&h| state.is_alive(h))
                                .collect();
                            assert!(
                                !live_holders.is_empty(),
                                "planner guarantees readable input"
                            );
                            live_holders[t.blk as usize % live_holders.len()]
                        };
                    (node, t, src, false)
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
                if self.noncollocated || src != node {
                    *net_out.entry(*src).or_insert(0) += 1;
                }
            }
            let read_contention = |src: Node| {
                read_streams.get(&src).copied().unwrap_or(0)
                    + if self.noncollocated {
                        0
                    } else {
                        write_streams.get(&src).copied().unwrap_or(0)
                    }
            };
            let write_contention = |node: Node| {
                write_streams.get(&node).copied().unwrap_or(0)
                    + if self.noncollocated {
                        0
                    } else {
                        read_streams.get(&node).copied().unwrap_or(0)
                    }
            };
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
                if self.noncollocated || src != node {
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
                let v = state.partition_version(input_file, t.pid);
                state.record_map_output(
                    (job, t.pid, t.blk),
                    MapOutputRec {
                        node: *node,
                        input_version: v,
                        bytes: out_bytes,
                    },
                );
            }
            let wave_time = match &self.speculation {
                Some(cfg) => {
                    let (effective, stats) = speculate_wave(cfg, &wave_tasks);
                    report.speculation.add(&stats);
                    report.mapper_durations.extend_from_slice(&effective);
                    effective.iter().copied().fold(0.0f64, f64::max)
                }
                None => {
                    let durs: Vec<f64> = wave_tasks.iter().map(|t| t.duration).collect();
                    report.mapper_durations.extend_from_slice(&durs);
                    durs.iter().copied().fold(0.0f64, f64::max)
                }
            };
            map_phase += wave_time;
        }

        // ---------------- reduce task set -------------------------------
        // (partition, split_index, fetch_bytes, out_bytes)
        let total_input: u64 = all_tasks.iter().map(|t| t.bytes).sum();
        let shuffle_total = (total_input as f64 * wl.map_ratio) as u64;
        let per_partition_shuffle = shuffle_total / wl.num_reducers as u64;
        let (reduce_ids, r_style) = reduce_task_set(recompute, JobId(job), wl.num_reducers);
        let reduce_tasks: Vec<(u32, u32, u64, u64)> = reduce_ids
            .iter()
            .map(|id| {
                let (s, k) = id.split.map_or((0, 1), |(s, k)| (s.raw(), k));
                let f = per_partition_shuffle / k as u64;
                (
                    id.partition.raw(),
                    s,
                    f,
                    (f as f64 * wl.reduce_ratio) as u64,
                )
            })
            .collect();
        report.reduce_tasks_run = reduce_tasks.len();

        // Map-output location profile for shuffle sourcing (valid
        // entries of this job, including reused ones).
        let mut mo_bytes: BTreeMap<Node, u64> = BTreeMap::new();
        let mut total_mo = 0u64;
        for ((j, _, _), rec) in state.map_outputs.range((job, 0, 0)..(job + 1, 0, 0)) {
            debug_assert_eq!(*j, job);
            *mo_bytes.entry(rec.node).or_insert(0) += rec.bytes;
            total_mo += rec.bytes;
        }
        let num_sources = state
            .map_outputs
            .range((job, 0, 0)..(job + 1, 0, 0))
            .count();

        // ---------------- reduce phase ----------------------------------
        let topo = SliceTopology::for_kernel(&live, wl.slots.reduce, self.placement, &membership);
        let reds = FnReduceTasks::new(reduce_tasks.len(), |t| reduce_tasks[t].0 as usize);
        let r_waves = assign_reduce_waves(&topo, &reds, r_style, ctx)?;
        report.reduce_waves = r_waves.len() as u32;

        // Paper §V-D: the SLOW SHUFFLE delay applies per transfer,
        // serialized over the copier window (Hadoop fetches ~5 map
        // outputs at a time), so it scales with the number of sources.
        const PARALLEL_COPIES: f64 = 5.0;
        let slow_delay = hw.shuffle_transfer_delay * (num_sources as f64 / PARALLEL_COPIES).ceil();

        // Map outputs are served through a bounded copier window (~5
        // concurrent segment fetches per serving disk in Hadoop), so —
        // unlike the map phase's simultaneous whole-block reads, which
        // are the hot-spot mechanism — shuffle serving never degenerates
        // into an N-way seek storm.
        const COPIER_WINDOW: usize = 5;

        let mut reduce_phase = 0.0f64;
        let mut new_segments: BTreeMap<u32, Vec<Segment>> = BTreeMap::new();
        // Writer of each whole-partition reduce task: the chain cache
        // only admits whole reducer outputs (mirroring the engine's
        // `split.is_none()` staging guard).
        let whole_outputs = recompute.is_none_or(|r| r.split_factor() <= 1);
        let mut cache_writers: BTreeMap<u32, Node> = BTreeMap::new();
        for (w, wave) in r_waves.iter().enumerate() {
            // Wave-level serving load per source disk: every task
            // fetches `frac(m)` of its volume from node m.
            let wave_fetch_total: u64 = wave.iter().map(|&(_, ti)| reduce_tasks[ti].2).sum();
            let max_fetch: u64 = wave
                .iter()
                .map(|&(_, ti)| reduce_tasks[ti].2)
                .max()
                .unwrap_or(0);
            let serve_streams = wave.len().clamp(1, COPIER_WINDOW);
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

            let mut wave_time = 0.0f64;
            let mut shuffle_max = 0.0f64;
            for &(node, ti) in wave {
                let (pid, _split, fetch, out_b) = reduce_tasks[ti];
                // This task's share of the serving bottleneck: smaller
                // (split) tasks drain proportionally sooner.
                let fetch_disk = if max_fetch == 0 {
                    0.0
                } else {
                    serve_time * fetch as f64 / max_fetch as f64
                };
                let local_bytes = if total_mo == 0 || self.noncollocated {
                    0
                } else {
                    (fetch as f64 * mo_bytes.get(&node).copied().unwrap_or(0) as f64
                        / total_mo as f64) as u64
                };
                let remote = fetch.saturating_sub(local_bytes);
                let tasks_on_node = wave.iter().filter(|(n, _)| *n == node).count();
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
                if self.noncollocated {
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
                wave_time = wave_time.max(dur);
                shuffle_max = shuffle_max.max(fetch_vol + slow_delay);

                // Placement of the output.
                if whole_outputs {
                    cache_writers.insert(pid, node);
                }
                let seg_holders = self.place_output(state, node, replication, recompute);
                for holders in seg_holders {
                    new_segments
                        .entry(pid)
                        .or_default()
                        .push(Segment { holders, bytes: 0 });
                }
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
            if w == 0 && report.map_waves >= 1 {
                let min_exposed = shuffle_max / report.map_waves as f64 + hw.shuffle_transfer_delay;
                let credit = (shuffle_max - min_exposed).max(0.0).min(map_phase);
                reduce_phase += wave_time - credit;
            } else {
                reduce_phase += wave_time;
            }
        }

        // Commit output placements with real byte counts.
        let by_partition: BTreeMap<u32, u64> = reduce_tasks
            .iter()
            .map(|&(p, _, _, out_b)| (p, out_b))
            .fold(BTreeMap::new(), |mut m, (p, b)| {
                *m.entry(p).or_insert(0) += b;
                m
            });
        for (pid, mut segs) in new_segments {
            let total = by_partition.get(&pid).copied().unwrap_or(0);
            let n = segs.len().max(1) as u64;
            for s in &mut segs {
                s.bytes = total / n;
            }
            if let Some(first) = segs.first_mut() {
                first.bytes += total % n;
            }
            state.rewrite_partition(job, pid, segs);
        }
        // Write-behind done: admit this run's whole reducer outputs into
        // the chain cache — the same commit the engine tracker performs
        // at successful job completion.
        if let Some(cache) = state.chain_cache.as_mut() {
            for (&pid, &node) in &cache_writers {
                let bytes = by_partition.get(&pid).copied().unwrap_or(0);
                cache.stage(job, pid, node, bytes);
            }
            cache.commit(&job);
        }

        if !persist {
            state.clear_job_outputs(job);
        }

        report.duration = hw.job_overhead + map_phase + reduce_phase;
        Ok(report)
    }

    /// Output placement for one reduce task: writer-local (plus
    /// replicas), or scattered under the spread-output mitigation.
    /// Returns one holder-list per segment the task writes.
    fn place_output(
        &self,
        state: &SimState,
        writer: Node,
        replication: u32,
        recompute: Option<&RecomputeSpec>,
    ) -> Vec<Vec<Node>> {
        let live = state.live_nodes();
        if recompute.is_some_and(|r| r.spread_output) {
            // Scatter the task's blocks round-robin over all live nodes.
            return live.iter().map(|&n| vec![n]).collect();
        }
        let mut holders = vec![writer];
        let start = live.iter().position(|&n| n == writer).unwrap_or(0);
        let mut i = 1usize;
        while holders.len() < replication as usize && i <= live.len() {
            let cand = live[(start + i) % live.len()];
            if !holders.contains(&cand) {
                holders.push(cand);
            }
            i += 1;
        }
        vec![holders]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_model::{ByteSize, SlotConfig};

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
        let state = SimState::new(&wl);
        (JobSim::new(HwProfile::stic(), wl), state)
    }

    #[test]
    fn task_view_schedules_like_closures_over_the_same_holders() {
        // Holders include dead node 4; task 1 is reused (not run).
        let all: Vec<MapTaskSim> = [
            vec![2, 0],
            vec![1],
            vec![],
            vec![0, 2],
            vec![4, 1],
            vec![1, 3],
        ]
        .into_iter()
        .enumerate()
        .map(|(i, holders)| MapTaskSim {
            pid: i as u32,
            blk: 0,
            bytes: 1,
            holders,
        })
        .collect();
        let to_run = [0, 2, 3, 4, 5];
        let cache_src = vec![None; to_run.len()];
        let mut m = rcmp_policy::Membership::with_racks(4, 2);
        m.join(3, 1);
        let live = m.schedulable();
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
                |t, n| holders(t).first() == Some(&n),
                |t, n| holders(t).contains(&n),
            );
            assert_eq!(
                assign_map_waves(&topo, &view(false), ctx),
                assign_map_waves(&topo, &collocated, ctx),
                "{kernel:?}, collocated"
            );
            // Separate storage: no node holds any input locally.
            let remote = rcmp_policy::FnMapTasks::new(to_run.len(), |_, _| false, |_, _| false);
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
        let state = SimState::new(&wl);
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

    #[test]
    fn no_persist_clears_outputs() {
        let (js, mut st) = sim(4);
        js.run_full(&mut st, 1, 1, false).unwrap();
        assert_eq!(st.persisted_bytes(), 0);
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
