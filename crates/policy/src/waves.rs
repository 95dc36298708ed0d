//! Slot-constrained wave assignment — the kernel both backends run.
//!
//! A node runs at most `slots` tasks of a phase concurrently; a phase
//! with more tasks per node runs in multiple **waves** (§II). The
//! assignment policy mirrors Hadoop's slot scheduler at the fidelity the
//! paper's phenomena need:
//!
//! * tasks balance across live nodes (nodes claim in rounds), so a
//!   recomputation's few tasks spread over *all* survivors — this is
//!   what makes the hot-spot of §IV-B2 appear: recomputed mappers land
//!   on many nodes but all read from the one node holding the
//!   recomputed input;
//! * each node prefers a task whose *primary* replica it holds (the
//!   writer-local copy), then any task whose data it holds (locality
//!   via tie-breaking, §III-A), then steals a non-local task;
//! * initial-run reducers are placed round-robin by partition id,
//!   giving the deterministic `WR = R/(N·S)` waves of the paper's
//!   model; recomputation reducers balance over survivors instead
//!   (Fig. 4).

use crate::tasks::{MapTaskSet, ReduceTaskSet};
use crate::topology::TopologyView;
use rcmp_model::{Error, PlacementKernel, Result};
use rcmp_obs::{SpanId, SpanKind, Tracer};

/// Tasks grouped into waves: `waves[w]` lists the `(node, task_index)`
/// pairs running concurrently in wave `w`.
pub type WaveAssignment<N> = Vec<Vec<(N, usize)>>;

/// How reduce tasks pick nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceAssignment {
    /// Partition `p` goes to `live[p % N]` — the initial-run layout.
    RoundRobinByPartition,
    /// Shortest-queue balancing — used for recomputation runs, where
    /// the task list is small and should use every survivor (Fig. 4).
    Balance,
}

/// Optional instrumentation handle threaded through the kernels.
///
/// When a tracer is attached, every placement decision emits an
/// [`SpanKind::Event`] span (label prefix `policy.`) under `parent`, so
/// traces from the engine and the simulator show the *same* decision
/// points.
#[derive(Clone, Copy, Default)]
pub struct PolicyCtx<'a> {
    tracer: Option<&'a Tracer>,
    parent: Option<SpanId>,
}

impl<'a> PolicyCtx<'a> {
    /// No instrumentation; decisions are silent.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Emit decision spans to `tracer`, parented under `parent`.
    pub fn new(tracer: &'a Tracer, parent: Option<SpanId>) -> Self {
        Self {
            tracer: Some(tracer),
            parent,
        }
    }

    fn emit(&self, label: String) {
        if let Some(t) = self.tracer {
            t.instant(SpanKind::Event { seq: 0, label }, self.parent, None, None);
        }
    }
}

/// Spreads per-node queues into waves of at most `slots` tasks per node.
///
/// Exposed so backends can reuse the wave arithmetic for custom queue
/// shapes (e.g. speculative re-execution experiments).
pub fn queues_to_waves<N: Copy>(
    queues: Vec<Vec<usize>>,
    live: &[N],
    slots: u32,
) -> WaveAssignment<N> {
    let slots = slots.max(1) as usize;
    let num_waves = queues
        .iter()
        .map(|q| q.len().div_ceil(slots))
        .max()
        .unwrap_or(0);
    let mut waves: WaveAssignment<N> = vec![Vec::new(); num_waves];
    for (ni, queue) in queues.into_iter().enumerate() {
        for (ti, task) in queue.into_iter().enumerate() {
            waves[ti / slots].push((live[ni], task));
        }
    }
    waves
}

/// Like [`queues_to_waves`], but with per-node capacity weights: node
/// `i` packs `slots × caps[i]` tasks per wave (the capacity-weighted
/// kernel's heterogeneous slot model). An empty `caps` slice means
/// uniform weight 1.
pub fn queues_to_waves_weighted<N: Copy>(
    queues: Vec<Vec<usize>>,
    live: &[N],
    slots: u32,
    caps: &[u32],
) -> WaveAssignment<N> {
    let slots = slots.max(1) as usize;
    let cap = |i: usize| caps.get(i).copied().unwrap_or(1).max(1) as usize;
    let num_waves = queues
        .iter()
        .enumerate()
        .map(|(i, q)| q.len().div_ceil(slots * cap(i)))
        .max()
        .unwrap_or(0);
    let mut waves: WaveAssignment<N> = vec![Vec::new(); num_waves];
    for (ni, queue) in queues.into_iter().enumerate() {
        let per_wave = slots * cap(ni);
        for (ti, task) in queue.into_iter().enumerate() {
            waves[ti / per_wave].push((live[ni], task));
        }
    }
    waves
}

/// Assigns map tasks to waves over the live nodes with Hadoop's
/// slot-pull semantics: nodes claim tasks in rounds, each preferring a
/// primary-local task, then any local task, then stealing. Balanced
/// data runs (almost) fully local; a handful of recomputed tasks
/// spreads over all nodes in one wave — the behaviours behind the
/// paper's locality and hot-spot observations.
///
/// Runs the [`PlacementKernel::Default`] kernel; see
/// [`assign_map_waves_kernel`] for the pluggable variants.
///
/// Errors with [`Error::NoLiveNodes`] when the topology has no
/// survivors left to place on.
pub fn assign_map_waves<V, S>(
    topo: &V,
    tasks: &S,
    ctx: PolicyCtx<'_>,
) -> Result<WaveAssignment<V::Node>>
where
    V: TopologyView,
    S: MapTaskSet<V::Node>,
{
    assign_map_waves_kernel(topo, tasks, PlacementKernel::Default, ctx)
}

/// Assigns map tasks to waves under the selected placement kernel.
///
/// All kernels share the round-based claim loop and the wave
/// arithmetic; they differ in the claim rule:
///
/// * [`PlacementKernel::Default`] — primary-local, then any local
///   replica, then steal the oldest pending task (byte-identical to
///   the historical [`assign_map_waves`]).
/// * [`PlacementKernel::RackAware`] — like `Default`, but the steal
///   fallback first looks for a task with a replica on any live node
///   in the claimer's rack ([`TopologyView::rack_at`]).
/// * [`PlacementKernel::Delay`] — a node with no local task skips its
///   claim for up to `rounds` rounds before stealing (delay
///   scheduling); a local launch resets its wait.
/// * [`PlacementKernel::CapacityWeighted`] — node `i` claims
///   [`TopologyView::capacity_at`]`(i)` tasks per round and packs
///   `slots × capacity` tasks per wave.
/// * [`PlacementKernel::Stable`] — partition-stable chain placement: a
///   node first claims a task whose input partition it holds in the
///   inter-job chain cache ([`MapTaskSet::cache_affine`]), then falls
///   back to the `Default` chain; its steal fallback prefers tasks no
///   node has an in-memory claim on, so one straggler doesn't eat
///   another node's cached partition. With no affinity info (cache off,
///   cold, or invalidated) it is byte-identical to `Default`.
///
/// Errors with [`Error::NoLiveNodes`] when the topology has no
/// survivors left to place on.
pub fn assign_map_waves_kernel<V, S>(
    topo: &V,
    tasks: &S,
    kernel: PlacementKernel,
    ctx: PolicyCtx<'_>,
) -> Result<WaveAssignment<V::Node>>
where
    V: TopologyView,
    S: MapTaskSet<V::Node>,
{
    let live = topo.live_nodes();
    if live.is_empty() {
        return Err(Error::NoLiveNodes);
    }
    let mut pending: Vec<usize> = (0..tasks.len()).collect();
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); live.len()];
    let mut local = 0usize;

    // Rack-aware steal fallback: one bitmask per task recording which
    // racks hold a live replica (rack index folded mod 64), computed
    // once in O(tasks × live) so each claim stays O(pending).
    let rack_masks: Vec<u64> = if kernel == PlacementKernel::RackAware {
        (0..tasks.len())
            .map(|t| {
                live.iter().enumerate().fold(0u64, |m, (j, &n)| {
                    if tasks.holds_replica(t, n) {
                        m | (1u64 << (topo.rack_at(j) % 64))
                    } else {
                        m
                    }
                })
            })
            .collect()
    } else {
        Vec::new()
    };

    let mut claim =
        |queues: &mut Vec<Vec<usize>>, pending: &mut Vec<usize>, i: usize, pos: usize| {
            let t = pending.remove(pos);
            if tasks.holds_replica(t, live[i]) {
                local += 1;
            }
            queues[i].push(t);
        };

    match kernel {
        PlacementKernel::Default | PlacementKernel::RackAware => {
            while !pending.is_empty() {
                for (i, &n) in live.iter().enumerate() {
                    if pending.is_empty() {
                        break;
                    }
                    let rack_bit = 1u64 << (topo.rack_at(i) % 64);
                    let pos = pending
                        .iter()
                        .position(|&t| tasks.is_primary_holder(t, n))
                        .or_else(|| pending.iter().position(|&t| tasks.holds_replica(t, n)))
                        .or_else(|| {
                            if kernel == PlacementKernel::RackAware {
                                pending.iter().position(|&t| rack_masks[t] & rack_bit != 0)
                            } else {
                                None
                            }
                        })
                        .unwrap_or(0);
                    claim(&mut queues, &mut pending, i, pos);
                }
            }
        }
        PlacementKernel::Stable => {
            while !pending.is_empty() {
                for (i, &n) in live.iter().enumerate() {
                    if pending.is_empty() {
                        break;
                    }
                    let pos = pending
                        .iter()
                        .position(|&t| tasks.cache_affine(t, n))
                        .or_else(|| pending.iter().position(|&t| tasks.is_primary_holder(t, n)))
                        .or_else(|| pending.iter().position(|&t| tasks.holds_replica(t, n)))
                        .or_else(|| pending.iter().position(|&t| !tasks.has_cache_affinity(t)))
                        .unwrap_or(0);
                    claim(&mut queues, &mut pending, i, pos);
                }
            }
        }
        PlacementKernel::Delay { rounds } => {
            let mut waited = vec![0u32; live.len()];
            while !pending.is_empty() {
                for (i, &n) in live.iter().enumerate() {
                    if pending.is_empty() {
                        break;
                    }
                    let pos = pending
                        .iter()
                        .position(|&t| tasks.is_primary_holder(t, n))
                        .or_else(|| pending.iter().position(|&t| tasks.holds_replica(t, n)));
                    match pos {
                        Some(p) => {
                            waited[i] = 0;
                            claim(&mut queues, &mut pending, i, p);
                        }
                        None if waited[i] < rounds => waited[i] += 1,
                        None => claim(&mut queues, &mut pending, i, 0),
                    }
                }
            }
        }
        PlacementKernel::CapacityWeighted => {
            while !pending.is_empty() {
                for (i, &n) in live.iter().enumerate() {
                    for _ in 0..topo.capacity_at(i).max(1) {
                        if pending.is_empty() {
                            break;
                        }
                        let pos = pending
                            .iter()
                            .position(|&t| tasks.is_primary_holder(t, n))
                            .or_else(|| pending.iter().position(|&t| tasks.holds_replica(t, n)))
                            .unwrap_or(0);
                        claim(&mut queues, &mut pending, i, pos);
                    }
                }
            }
        }
    }

    let waves = if kernel == PlacementKernel::CapacityWeighted {
        let caps: Vec<u32> = (0..live.len()).map(|i| topo.capacity_at(i)).collect();
        queues_to_waves_weighted(queues, &live, topo.map_slots(), &caps)
    } else {
        queues_to_waves(queues, &live, topo.map_slots())
    };
    ctx.emit(format!(
        "policy.map_waves tasks={} nodes={} slots={} waves={} local={} kernel={}",
        tasks.len(),
        live.len(),
        topo.map_slots(),
        waves.len(),
        local,
        kernel.label(),
    ));
    Ok(waves)
}

/// Assigns reduce tasks to waves over the live nodes, either round-robin
/// by partition (initial runs) or shortest-queue balanced (recompute
/// runs — splits of one partition spread over all survivors, Fig. 4b).
///
/// Runs the [`PlacementKernel::Default`] kernel; see
/// [`assign_reduce_waves_kernel`] for the pluggable variants.
///
/// Errors with [`Error::NoLiveNodes`] when the topology has no
/// survivors left to place on.
pub fn assign_reduce_waves<V, S>(
    topo: &V,
    tasks: &S,
    style: ReduceAssignment,
    ctx: PolicyCtx<'_>,
) -> Result<WaveAssignment<V::Node>>
where
    V: TopologyView,
    S: ReduceTaskSet,
{
    assign_reduce_waves_kernel(topo, tasks, style, PlacementKernel::Default, ctx)
}

/// Assigns reduce tasks to waves under the selected placement kernel.
///
/// Reducers consume *every* mapper's output, so rack and delay
/// preferences have no data to chase: [`PlacementKernel::RackAware`]
/// and [`PlacementKernel::Delay`] behave exactly like `Default` here.
/// [`PlacementKernel::CapacityWeighted`] balances by *weighted* queue
/// depth (`len / capacity`, compared exactly via cross-multiplication)
/// and packs `slots × capacity` tasks per wave.
///
/// Errors with [`Error::NoLiveNodes`] when the topology has no
/// survivors left to place on.
pub fn assign_reduce_waves_kernel<V, S>(
    topo: &V,
    tasks: &S,
    style: ReduceAssignment,
    kernel: PlacementKernel,
    ctx: PolicyCtx<'_>,
) -> Result<WaveAssignment<V::Node>>
where
    V: TopologyView,
    S: ReduceTaskSet,
{
    let live = topo.live_nodes();
    if live.is_empty() {
        return Err(Error::NoLiveNodes);
    }
    let weighted = kernel == PlacementKernel::CapacityWeighted;
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); live.len()];
    match style {
        ReduceAssignment::RoundRobinByPartition => {
            for t in 0..tasks.len() {
                queues[tasks.partition_index(t) % live.len()].push(t);
            }
        }
        ReduceAssignment::Balance if weighted => {
            for t in 0..tasks.len() {
                // argmin of len/capacity without floats: len_i·cap_b <
                // len_b·cap_i ⇔ node i is less loaded per unit weight.
                let mut best = 0usize;
                for i in 1..queues.len() {
                    let (li, ci) = (
                        queues[i].len() as u64,
                        u64::from(topo.capacity_at(i).max(1)),
                    );
                    let (lb, cb) = (
                        queues[best].len() as u64,
                        u64::from(topo.capacity_at(best).max(1)),
                    );
                    if li * cb < lb * ci {
                        best = i;
                    }
                }
                queues[best].push(t);
            }
        }
        ReduceAssignment::Balance => {
            for t in 0..tasks.len() {
                let (i, _) = queues
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, q)| (q.len(), *i))
                    .expect("at least one live node");
                queues[i].push(t);
            }
        }
    }
    let waves = if weighted {
        let caps: Vec<u32> = (0..live.len()).map(|i| topo.capacity_at(i)).collect();
        queues_to_waves_weighted(queues, &live, topo.reduce_slots(), &caps)
    } else {
        queues_to_waves(queues, &live, topo.reduce_slots())
    };
    ctx.emit(format!(
        "policy.reduce_waves style={style:?} tasks={} nodes={} slots={} waves={} kernel={}",
        tasks.len(),
        live.len(),
        topo.reduce_slots(),
        waves.len(),
        kernel.label(),
    ));
    Ok(waves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::{FnMapTasks, FnReduceTasks};
    use crate::topology::{KernelTopology, SliceTopology};

    fn nodes(n: u32) -> Vec<u32> {
        (0..n).collect()
    }

    /// Map tasks where task `t`'s replica set is `layout[t]` and the
    /// primary is the first entry.
    fn layout_tasks(
        layout: &[Vec<u32>],
    ) -> FnMapTasks<impl Fn(usize, u32) -> bool + '_, impl Fn(usize, u32) -> bool + '_> {
        FnMapTasks::new(
            layout.len(),
            |t: usize, n: u32| layout[t].first() == Some(&n),
            |t: usize, n: u32| layout[t].contains(&n),
        )
    }

    #[test]
    fn balanced_map_tasks_prefer_local() {
        // 4 tasks, 4 nodes, 1 replica each on its "own" node.
        let layout: Vec<Vec<u32>> = (0..4u32).map(|i| vec![i]).collect();
        let live = nodes(4);
        let topo = SliceTopology::uniform(&live, 1);
        let waves = assign_map_waves(&topo, &layout_tasks(&layout), PolicyCtx::disabled()).unwrap();
        assert_eq!(waves.len(), 1);
        for &(node, task) in &waves[0] {
            assert!(
                layout[task].contains(&node),
                "task {task} not local on {node}"
            );
        }
    }

    #[test]
    fn few_tasks_spread_over_nodes_not_piled_on_replica_holder() {
        // The hot-spot scenario: 3 blocks all on node 0, 4 live nodes.
        let layout: Vec<Vec<u32>> = (0..3).map(|_| vec![0u32]).collect();
        let live = nodes(4);
        let topo = SliceTopology::uniform(&live, 1);
        let waves = assign_map_waves(&topo, &layout_tasks(&layout), PolicyCtx::disabled()).unwrap();
        // All three run in a single wave on three different nodes.
        assert_eq!(waves.len(), 1);
        let used: std::collections::HashSet<u32> = waves[0].iter().map(|&(n, _)| n).collect();
        assert_eq!(used.len(), 3);
    }

    #[test]
    fn waves_respect_slots() {
        let layout: Vec<Vec<u32>> = (0..8).map(|_| Vec::new()).collect();
        let live = nodes(2);
        let topo = SliceTopology::uniform(&live, 2);
        let waves = assign_map_waves(&topo, &layout_tasks(&layout), PolicyCtx::disabled()).unwrap();
        // 8 tasks / (2 nodes * 2 slots) = 2 waves.
        assert_eq!(waves.len(), 2);
        for wave in &waves {
            let mut per_node = std::collections::HashMap::new();
            for &(n, _) in wave {
                *per_node.entry(n).or_insert(0) += 1;
            }
            assert!(per_node.values().all(|&c| c <= 2));
        }
    }

    #[test]
    fn primary_preference_beats_mere_replica() {
        // Task 0 has its primary on node 1 but a replica on node 0;
        // task 1 has its primary on node 0. Without the primary
        // preference node 0 (first in claim order) would eat task 0.
        let layout: Vec<Vec<u32>> = vec![vec![1, 0], vec![0, 1]];
        let live = nodes(2);
        let topo = SliceTopology::uniform(&live, 1);
        let waves = assign_map_waves(&topo, &layout_tasks(&layout), PolicyCtx::disabled()).unwrap();
        assert_eq!(waves.len(), 1);
        for &(node, task) in &waves[0] {
            assert_eq!(layout[task][0], node, "each task on its primary holder");
        }
    }

    #[test]
    fn stable_kernel_without_affinity_matches_default() {
        let layout: Vec<Vec<u32>> = vec![vec![1, 0], vec![0, 1], vec![2], vec![3], vec![0]];
        let live = nodes(4);
        let topo = SliceTopology::uniform(&live, 2);
        let default = assign_map_waves_kernel(
            &topo,
            &layout_tasks(&layout),
            PlacementKernel::Default,
            PolicyCtx::disabled(),
        )
        .unwrap();
        let stable = assign_map_waves_kernel(
            &topo,
            &layout_tasks(&layout),
            PlacementKernel::Stable,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(default, stable);
    }

    #[test]
    fn stable_kernel_follows_cache_affinity_over_dfs_primary() {
        // Every task's DFS primary sits on node 0 (the hot-spot shape),
        // but each task's partition is cached on its "own" node: the
        // stable kernel must follow memory, not the disk replica.
        let layout: Vec<Vec<u32>> = (0..4).map(|_| vec![0u32]).collect();
        let cached: Vec<u32> = vec![0, 1, 2, 3];
        let tasks =
            crate::tasks::CacheAffinity::new(layout_tasks(&layout), |t: usize| Some(cached[t]));
        let live = nodes(4);
        let topo = SliceTopology::uniform(&live, 1);
        let waves = assign_map_waves_kernel(
            &topo,
            &tasks,
            PlacementKernel::Stable,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(waves.len(), 1);
        for &(node, task) in &waves[0] {
            assert_eq!(
                cached[task], node,
                "task {task} must run on its cache holder"
            );
        }
    }

    #[test]
    fn stable_steal_prefers_unclaimed_tasks() {
        // Node 0 holds nothing; tasks 0/1 are cached on node 1, tasks
        // 2/3 are cached nowhere. Node 0's steals must take the
        // unclaimed tasks, leaving both cached partitions to their
        // holder.
        let layout: Vec<Vec<u32>> = (0..4).map(|_| Vec::new()).collect();
        let cached: Vec<Option<u32>> = vec![Some(1), Some(1), None, None];
        let tasks = crate::tasks::CacheAffinity::new(layout_tasks(&layout), |t: usize| cached[t]);
        let live = nodes(2);
        let topo = SliceTopology::uniform(&live, 2);
        let waves = assign_map_waves_kernel(
            &topo,
            &tasks,
            PlacementKernel::Stable,
            PolicyCtx::disabled(),
        )
        .unwrap();
        let placed: std::collections::HashMap<usize, u32> =
            waves.iter().flatten().map(|&(n, t)| (t, n)).collect();
        assert_eq!(placed[&2], 0, "node 0 steals the unclaimed tasks first");
        assert_eq!(placed[&3], 0);
        assert_eq!(placed[&0], 1);
        assert_eq!(placed[&1], 1);
    }

    #[test]
    fn initial_reducers_round_robin() {
        // 10 reducers, 10 nodes, 1 slot: exactly 1 wave (WR = 1), with
        // partition p on node p % N.
        let live = nodes(10);
        let topo = SliceTopology::uniform(&live, 1);
        let tasks = FnReduceTasks::new(10, |t| t);
        let waves = assign_reduce_waves(
            &topo,
            &tasks,
            ReduceAssignment::RoundRobinByPartition,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(waves.len(), 1);
        for &(node, task) in &waves[0] {
            assert_eq!(node as usize, task % 10);
        }
    }

    #[test]
    fn round_robin_gives_paper_wave_count() {
        // 40 reducers, 10 nodes, 1 slot: WR = 4 waves.
        let live = nodes(10);
        let topo = SliceTopology::uniform(&live, 1);
        let tasks = FnReduceTasks::new(40, |t| t);
        let waves = assign_reduce_waves(
            &topo,
            &tasks,
            ReduceAssignment::RoundRobinByPartition,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(waves.len(), 4);
    }

    #[test]
    fn balance_spreads_splits_over_all_nodes() {
        // 1 recomputed reducer split 8 ways, 9 surviving nodes (Fig. 4b).
        let live = nodes(9);
        let topo = SliceTopology::uniform(&live, 1);
        let tasks = FnReduceTasks::new(8, |_| 0);
        let waves = assign_reduce_waves(
            &topo,
            &tasks,
            ReduceAssignment::Balance,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(waves.len(), 1, "all splits fit one wave across nodes");
        let used: std::collections::HashSet<u32> = waves[0].iter().map(|&(n, _)| n).collect();
        assert_eq!(used.len(), 8);
    }

    #[test]
    fn no_split_recompute_uses_one_node_per_reducer() {
        // 1 recomputed whole reducer, 9 nodes: 1 task on 1 node — the
        // paper's under-utilization (Fig. 4a).
        let live = nodes(9);
        let topo = SliceTopology::uniform(&live, 1);
        let tasks = FnReduceTasks::new(1, |_| 0);
        let waves = assign_reduce_waves(
            &topo,
            &tasks,
            ReduceAssignment::Balance,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0].len(), 1);
    }

    #[test]
    fn empty_task_list_zero_waves() {
        let live = nodes(2);
        let topo = SliceTopology::uniform(&live, 1);
        let maps: Vec<Vec<u32>> = Vec::new();
        assert!(
            assign_map_waves(&topo, &layout_tasks(&maps), PolicyCtx::disabled())
                .unwrap()
                .is_empty()
        );
        let reds = FnReduceTasks::new(0, |t| t);
        assert!(assign_reduce_waves(
            &topo,
            &reds,
            ReduceAssignment::Balance,
            PolicyCtx::disabled()
        )
        .unwrap()
        .is_empty());
    }

    #[test]
    fn empty_topology_is_a_typed_error() {
        let live: Vec<u32> = Vec::new();
        let topo = SliceTopology::uniform(&live, 1);
        let maps: Vec<Vec<u32>> = vec![vec![0]];
        assert_eq!(
            assign_map_waves(&topo, &layout_tasks(&maps), PolicyCtx::disabled()).unwrap_err(),
            rcmp_model::Error::NoLiveNodes
        );
        let reds = FnReduceTasks::new(1, |_| 0);
        assert_eq!(
            assign_reduce_waves(
                &topo,
                &reds,
                ReduceAssignment::RoundRobinByPartition,
                PolicyCtx::disabled()
            )
            .unwrap_err(),
            rcmp_model::Error::NoLiveNodes
        );
    }

    #[test]
    fn default_kernel_matches_historical_assignment() {
        // The kernel-parameterized entry point with `Default` must be
        // byte-identical to the original implementation.
        let layouts: Vec<Vec<Vec<u32>>> = vec![
            (0..6u32).map(|i| vec![i % 4]).collect(),
            (0..5).map(|_| vec![0u32]).collect(),
            vec![vec![1, 0], vec![0, 1], vec![], vec![3]],
        ];
        let live = nodes(4);
        for layout in &layouts {
            let topo = SliceTopology::uniform(&live, 1);
            let a = assign_map_waves(&topo, &layout_tasks(layout), PolicyCtx::disabled()).unwrap();
            let b = assign_map_waves_kernel(
                &topo,
                &layout_tasks(layout),
                PlacementKernel::Default,
                PolicyCtx::disabled(),
            )
            .unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rack_aware_steal_prefers_rack_local_task() {
        // Nodes 0,1 in rack 0; node 2 in rack 1. Task 0 lives on node 2
        // (rack 1), task 1 on node 1 (rack 0). Node 0 claims first and
        // has nothing local: the default kernel steals the oldest
        // pending task (0); the rack-aware kernel prefers task 1, whose
        // replica sits in its own rack.
        let live = nodes(3);
        let racks = [0u32, 0, 1];
        let layout: Vec<Vec<u32>> = vec![vec![2], vec![1]];
        let topo = KernelTopology::uniform(&live, 1, &[], &racks);
        let default = assign_map_waves_kernel(
            &topo,
            &layout_tasks(&layout),
            PlacementKernel::Default,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert!(default[0].contains(&(0, 0)), "default steals task 0");
        let rack = assign_map_waves_kernel(
            &topo,
            &layout_tasks(&layout),
            PlacementKernel::RackAware,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert!(
            rack[0].contains(&(0, 1)),
            "rack-aware steals in-rack: {rack:?}"
        );
        assert!(
            rack[0].contains(&(1, 0)),
            "task 0 falls to node 1: {rack:?}"
        );
    }

    #[test]
    fn delay_kernel_waits_for_local_work() {
        // One task, local only to node 1. Default: node 0 (first in
        // claim order) steals it remotely. Delay(1): node 0 waits a
        // round and node 1 launches it locally.
        let live = nodes(2);
        let layout: Vec<Vec<u32>> = vec![vec![1]];
        let topo = SliceTopology::uniform(&live, 1);
        let default = assign_map_waves_kernel(
            &topo,
            &layout_tasks(&layout),
            PlacementKernel::Default,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(default[0], vec![(0, 0)], "default steals remotely");
        let delay = assign_map_waves_kernel(
            &topo,
            &layout_tasks(&layout),
            PlacementKernel::Delay { rounds: 1 },
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(delay[0], vec![(1, 0)], "delayed claim lands local");
        // rounds = 0 degenerates to the default steal behaviour.
        let zero = assign_map_waves_kernel(
            &topo,
            &layout_tasks(&layout),
            PlacementKernel::Delay { rounds: 0 },
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(zero, default);
    }

    #[test]
    fn delay_kernel_terminates_on_fully_remote_work() {
        // No task is local anywhere: every node waits out its budget,
        // then steals — assignment completes and covers all tasks.
        let live = nodes(3);
        let layout: Vec<Vec<u32>> = (0..5).map(|_| Vec::new()).collect();
        let topo = SliceTopology::uniform(&live, 1);
        let waves = assign_map_waves_kernel(
            &topo,
            &layout_tasks(&layout),
            PlacementKernel::Delay { rounds: 4 },
            PolicyCtx::disabled(),
        )
        .unwrap();
        let total: usize = waves.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn capacity_weighted_packs_big_nodes_harder() {
        // Node 1 weighs 3×: of 8 location-free tasks it claims 6 and
        // packs 3 per wave, so the whole job fits 2 waves where the
        // default kernel needs 4.
        let live = nodes(2);
        let caps = [1u32, 3];
        let layout: Vec<Vec<u32>> = (0..8).map(|_| Vec::new()).collect();
        let topo = KernelTopology::uniform(&live, 1, &caps, &[]);
        let waves = assign_map_waves_kernel(
            &topo,
            &layout_tasks(&layout),
            PlacementKernel::CapacityWeighted,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(waves.len(), 2, "{waves:?}");
        let on_big: usize = waves.iter().flatten().filter(|&&(n, _)| n == 1).count();
        assert_eq!(on_big, 6);
        for wave in &waves {
            let mut per = std::collections::HashMap::new();
            for &(n, _) in wave {
                *per.entry(n).or_insert(0u32) += 1;
            }
            assert!(per.get(&0).copied().unwrap_or(0) <= 1);
            assert!(per.get(&1).copied().unwrap_or(0) <= 3);
        }
    }

    #[test]
    fn capacity_weighted_balance_is_weighted_shortest_queue() {
        let live = nodes(2);
        let caps = [1u32, 3];
        let topo = KernelTopology::uniform(&live, 1, &caps, &[]);
        let tasks = FnReduceTasks::new(8, |_| 0);
        let waves = assign_reduce_waves_kernel(
            &topo,
            &tasks,
            ReduceAssignment::Balance,
            PlacementKernel::CapacityWeighted,
            PolicyCtx::disabled(),
        )
        .unwrap();
        let on_big: usize = waves.iter().flatten().filter(|&&(n, _)| n == 1).count();
        assert_eq!(on_big, 6, "weighted balance loads the 3× node 3× harder");
    }

    #[test]
    fn weighted_waves_degrade_to_uniform_without_caps() {
        let queues = vec![vec![0usize, 2], vec![1, 3, 4]];
        let live = [10u32, 11];
        assert_eq!(
            queues_to_waves_weighted(queues.clone(), &live, 1, &[]),
            queues_to_waves(queues, &live, 1)
        );
    }

    #[test]
    fn decision_spans_emitted_when_traced() {
        let tracer = Tracer::new();
        let layout: Vec<Vec<u32>> = vec![vec![0], vec![1]];
        let live = nodes(2);
        let topo = SliceTopology::uniform(&live, 1);
        assign_map_waves(&topo, &layout_tasks(&layout), PolicyCtx::new(&tracer, None)).unwrap();
        let reds = FnReduceTasks::new(2, |t| t);
        assign_reduce_waves(
            &topo,
            &reds,
            ReduceAssignment::RoundRobinByPartition,
            PolicyCtx::new(&tracer, None),
        )
        .unwrap();
        let spans = tracer.snapshot();
        let labels: Vec<String> = spans
            .spans
            .iter()
            .filter_map(|s| match &s.kind {
                SpanKind::Event { label, .. } => Some(label.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(labels.len(), 2);
        assert!(labels[0].starts_with("policy.map_waves "), "{}", labels[0]);
        assert!(labels[0].contains("local=2"), "{}", labels[0]);
        assert!(
            labels[1].starts_with("policy.reduce_waves style=RoundRobinByPartition"),
            "{}",
            labels[1]
        );
    }
}
