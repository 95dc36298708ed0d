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
//!   via tie-breaking, §III-A), then steals a non-local task — one
//!   claim loop for every placement kernel, which only switches links
//!   of that preference chain on or off and sets how many tasks a node
//!   claims per round;
//! * initial-run reducers are placed round-robin by partition id,
//!   giving the deterministic `WR = R/(N·S)` waves of the paper's
//!   model; recomputation reducers balance over survivors instead
//!   (Fig. 4).

use crate::tasks::{MapTaskSet, ReduceTaskSet};
use crate::topology::SliceTopology;
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
/// [`SpanKind::Event`] span (label prefix `policy.`) under `parent`.
/// The job machine attaches its run's tracer and `JobRun` span on both
/// backends, so engine and simulator traces show the *same* decision
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

    /// Records the span `label()` names; the label is only built when a
    /// tracer is attached.
    fn emit(&self, label: impl FnOnce() -> String) {
        if let Some(t) = self.tracer {
            let label = label();
            t.instant(SpanKind::Event { seq: 0, label }, self.parent, None, None);
        }
    }
}

/// Spreads per-node queues into waves: the node at live position `i`
/// runs at most `slots × capacity_at(i)` of its queue per wave.
fn pack<N: Copy>(
    queues: Vec<Vec<usize>>,
    topo: &SliceTopology<'_, N>,
    slots: u32,
) -> WaveAssignment<N> {
    let per_wave = |i: usize| slots.max(1) as usize * topo.capacity_at(i) as usize;
    let num_waves = queues
        .iter()
        .enumerate()
        .map(|(i, q)| q.len().div_ceil(per_wave(i)))
        .max()
        .unwrap_or(0);
    let mut waves: WaveAssignment<N> = vec![Vec::new(); num_waves];
    for (ni, queue) in queues.into_iter().enumerate() {
        let per = per_wave(ni);
        for (ti, task) in queue.into_iter().enumerate() {
            waves[ti / per].push((topo.live()[ni], task));
        }
    }
    waves
}

/// Position of the first pending task `hit` accepts, when this link of
/// the preference chain is `on` for the kernel.
fn first(pending: &[usize], on: bool, hit: impl Fn(usize) -> bool) -> Option<usize> {
    if on {
        pending.iter().position(|&t| hit(t))
    } else {
        None
    }
}

/// Assigns map tasks to waves over the live nodes with Hadoop's
/// slot-pull semantics, under the topology's placement kernel.
///
/// Nodes claim in rounds, in live order; the node at position `i`
/// claims [`SliceTopology::capacity_at`]`(i)` tasks per round (its
/// capacity under `CapacityWeighted`, else 1). Each claim takes the
/// first pending task matching the first link of one preference chain
/// that matches anything:
///
/// 1. its input partition is in this node's chain cache
///    ([`MapTaskSet::cache_holder`]) — `Stable` only;
/// 2. this node holds its *primary* (writer-local) replica;
/// 3. this node holds any replica (locality tie-breaking, §III-A);
/// 4. a live node in this node's rack holds a replica — `RackAware`
///    only;
/// 5. no node has it cached, so one straggler doesn't eat another
///    node's cached partition — `Stable` only.
///
/// If nothing matches, the node steals the oldest pending task; under
/// `Delay { rounds }` it first skips up to `rounds` turns (delay
/// scheduling), and any match resets its wait. Balanced data runs
/// (almost) fully local; a handful of recomputed tasks spreads over all
/// nodes in one wave — the behaviours behind the paper's locality and
/// hot-spot observations.
///
/// Errors with [`Error::NoLiveNodes`] when the topology has no
/// survivors left to place on.
pub fn assign_map_waves<N, S>(
    topo: &SliceTopology<'_, N>,
    tasks: &S,
    ctx: PolicyCtx<'_>,
) -> Result<WaveAssignment<N>>
where
    N: Copy + PartialEq,
    S: MapTaskSet<N>,
{
    let live = topo.live();
    if live.is_empty() {
        return Err(Error::NoLiveNodes);
    }
    let kernel = topo.kernel();
    let stable = kernel == PlacementKernel::Stable;
    let rack_aware = kernel == PlacementKernel::RackAware;
    let patience = match kernel {
        PlacementKernel::Delay { rounds } => rounds,
        _ => 0,
    };
    // The exact, sorted set of racks holding a live replica of each
    // task, computed once in O(tasks × live) so each claim stays
    // O(pending).
    let task_racks: Vec<Vec<u32>> = if rack_aware {
        (0..tasks.len())
            .map(|t| {
                let mut racks: Vec<u32> = (0..live.len())
                    .filter(|&j| tasks.holds_replica(t, live[j]))
                    .map(|j| topo.rack_at(j))
                    .collect();
                racks.sort_unstable();
                racks.dedup();
                racks
            })
            .collect()
    } else {
        Vec::new()
    };

    let mut pending: Vec<usize> = (0..tasks.len()).collect();
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); live.len()];
    let mut waited = vec![0u32; live.len()];
    let mut local = 0usize;
    while !pending.is_empty() {
        for (i, &n) in live.iter().enumerate() {
            let rack = topo.rack_at(i);
            for _ in 0..topo.capacity_at(i) {
                if pending.is_empty() {
                    break;
                }
                let pos = first(&pending, stable, |t| tasks.cache_holder(t) == Some(n))
                    .or_else(|| first(&pending, true, |t| tasks.is_primary_holder(t, n)))
                    .or_else(|| first(&pending, true, |t| tasks.holds_replica(t, n)))
                    .or_else(|| {
                        first(&pending, rack_aware, |t| {
                            task_racks[t].binary_search(&rack).is_ok()
                        })
                    })
                    .or_else(|| first(&pending, stable, |t| tasks.cache_holder(t).is_none()));
                let pos = match pos {
                    Some(p) => {
                        waited[i] = 0;
                        p
                    }
                    None if waited[i] < patience => {
                        waited[i] += 1;
                        break;
                    }
                    None => 0,
                };
                let t = pending.remove(pos);
                if tasks.holds_replica(t, n) {
                    local += 1;
                }
                queues[i].push(t);
            }
        }
    }

    let waves = pack(queues, topo, topo.map_slots());
    ctx.emit(|| {
        format!(
            "policy.map_waves tasks={} nodes={} slots={} waves={} local={} kernel={}",
            tasks.len(),
            live.len(),
            topo.map_slots(),
            waves.len(),
            local,
            kernel.label(),
        )
    });
    Ok(waves)
}

/// Assigns reduce tasks to waves over the live nodes, either round-robin
/// by partition (initial runs) or shortest-queue balanced (recompute
/// runs — splits of one partition spread over all survivors, Fig. 4b).
///
/// Reducers consume *every* mapper's output, so locality, rack, delay
/// and cache preferences have no data to chase: only
/// [`PlacementKernel::CapacityWeighted`] changes anything here, by
/// balancing on *weighted* queue depth (`len / capacity`) and packing
/// `slots × capacity` tasks per wave.
///
/// Errors with [`Error::NoLiveNodes`] when the topology has no
/// survivors left to place on.
pub fn assign_reduce_waves<N, S>(
    topo: &SliceTopology<'_, N>,
    tasks: &S,
    style: ReduceAssignment,
    ctx: PolicyCtx<'_>,
) -> Result<WaveAssignment<N>>
where
    N: Copy,
    S: ReduceTaskSet,
{
    let live = topo.live();
    if live.is_empty() {
        return Err(Error::NoLiveNodes);
    }
    let mut queues: Vec<Vec<usize>> = vec![Vec::new(); live.len()];
    for t in 0..tasks.len() {
        let node = match style {
            ReduceAssignment::RoundRobinByPartition => tasks.partition_index(t) % live.len(),
            // argmin of len/capacity without floats: len_i·cap_b <
            // len_b·cap_i ⇔ node i is less loaded per unit weight; the
            // strict `<` keeps the lowest position on ties.
            ReduceAssignment::Balance => (1..live.len()).fold(0, |best, i| {
                let load = |j: usize| queues[j].len() as u64;
                let cap = |j: usize| u64::from(topo.capacity_at(j));
                if load(i) * cap(best) < load(best) * cap(i) {
                    i
                } else {
                    best
                }
            }),
        };
        queues[node].push(t);
    }
    let waves = pack(queues, topo, topo.reduce_slots());
    ctx.emit(|| {
        format!(
            "policy.reduce_waves style={style:?} tasks={} nodes={} slots={} waves={} kernel={}",
            tasks.len(),
            live.len(),
            topo.reduce_slots(),
            waves.len(),
            topo.kernel().label(),
        )
    });
    Ok(waves)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::FnReduceTasks;
    use crate::Membership;
    use proptest::prelude::*;

    fn nodes(n: u32) -> Vec<u32> {
        (0..n).collect()
    }

    /// A membership whose node `i` has capacity and rack `hints[i]`.
    fn cluster(hints: &[(u32, u32)]) -> Membership {
        let mut m = Membership::uniform(0);
        for &(cap, rack) in hints {
            m.join(cap, rack);
        }
        m
    }

    /// One phase under `kernel` over a homogeneous flat cluster.
    fn flat(live: &[u32], slots: u32, kernel: PlacementKernel) -> SliceTopology<'_, u32> {
        let m = Membership::uniform(live.len() as u32);
        SliceTopology::for_kernel(live, slots, kernel, &m)
    }

    /// Map tasks where task `t`'s replica set is `replicas[t]` (the
    /// primary is the first entry) and `cached[t]` names the node whose
    /// chain cache holds its input partition.
    struct Layout<'a> {
        replicas: &'a [Vec<u32>],
        cached: &'a [Option<u32>],
    }

    impl MapTaskSet<u32> for Layout<'_> {
        fn len(&self) -> usize {
            self.replicas.len()
        }

        fn is_primary_holder(&self, task: usize, node: u32) -> bool {
            self.replicas[task].first() == Some(&node)
        }

        fn holds_replica(&self, task: usize, node: u32) -> bool {
            self.replicas[task].contains(&node)
        }

        fn cache_holder(&self, task: usize) -> Option<u32> {
            self.cached.get(task).copied().flatten()
        }
    }

    fn layout_tasks(replicas: &[Vec<u32>]) -> Layout<'_> {
        Layout {
            replicas,
            cached: &[],
        }
    }

    fn map(topo: &SliceTopology<'_, u32>, replicas: &[Vec<u32>]) -> WaveAssignment<u32> {
        assign_map_waves(topo, &layout_tasks(replicas), PolicyCtx::disabled()).unwrap()
    }

    #[test]
    fn balanced_map_tasks_prefer_local() {
        // 4 tasks, 4 nodes, 1 replica each on its "own" node.
        let layout: Vec<Vec<u32>> = (0..4u32).map(|i| vec![i]).collect();
        let live = nodes(4);
        let waves = map(&SliceTopology::new(&live, 1, 1), &layout);
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
        let waves = map(&SliceTopology::new(&live, 1, 1), &layout);
        // All three run in a single wave on three different nodes.
        assert_eq!(waves.len(), 1);
        let used: std::collections::HashSet<u32> = waves[0].iter().map(|&(n, _)| n).collect();
        assert_eq!(used.len(), 3);
    }

    #[test]
    fn waves_respect_slots() {
        let layout: Vec<Vec<u32>> = (0..8).map(|_| Vec::new()).collect();
        let live = nodes(2);
        let waves = map(&SliceTopology::new(&live, 2, 2), &layout);
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
        let waves = map(&SliceTopology::new(&live, 1, 1), &layout);
        assert_eq!(waves.len(), 1);
        for &(node, task) in &waves[0] {
            assert_eq!(layout[task][0], node, "each task on its primary holder");
        }
    }

    #[test]
    fn stable_kernel_without_affinity_matches_default() {
        let layout: Vec<Vec<u32>> = vec![vec![1, 0], vec![0, 1], vec![2], vec![3], vec![0]];
        let live = nodes(4);
        let default = map(&flat(&live, 2, PlacementKernel::Default), &layout);
        let stable = map(&flat(&live, 2, PlacementKernel::Stable), &layout);
        assert_eq!(default, stable);
    }

    #[test]
    fn stable_kernel_follows_cache_affinity_over_dfs_primary() {
        // Every task's DFS primary sits on node 0 (the hot-spot shape),
        // but each task's partition is cached on its "own" node: the
        // stable kernel must follow memory, not the disk replica.
        let layout: Vec<Vec<u32>> = (0..4).map(|_| vec![0u32]).collect();
        let cached: Vec<Option<u32>> = (0..4).map(Some).collect();
        let tasks = Layout {
            replicas: &layout,
            cached: &cached,
        };
        let live = nodes(4);
        let topo = flat(&live, 1, PlacementKernel::Stable);
        let waves = assign_map_waves(&topo, &tasks, PolicyCtx::disabled()).unwrap();
        assert_eq!(waves.len(), 1);
        for &(node, task) in &waves[0] {
            assert_eq!(
                cached[task],
                Some(node),
                "task {task} must run on its cache holder"
            );
        }
        // Every other kernel ignores the cache and piles onto node 0's
        // replicas via primary preference.
        let topo = flat(&live, 1, PlacementKernel::Default);
        let waves = assign_map_waves(&topo, &tasks, PolicyCtx::disabled()).unwrap();
        assert_eq!(waves[0][0], (0, 0));
    }

    #[test]
    fn stable_steal_prefers_unclaimed_tasks() {
        // Node 0 holds nothing; tasks 0/1 are cached on node 1, tasks
        // 2/3 are cached nowhere. Node 0's steals must take the
        // unclaimed tasks, leaving both cached partitions to their
        // holder.
        let layout: Vec<Vec<u32>> = (0..4).map(|_| Vec::new()).collect();
        let cached: Vec<Option<u32>> = vec![Some(1), Some(1), None, None];
        let tasks = Layout {
            replicas: &layout,
            cached: &cached,
        };
        let live = nodes(2);
        let topo = flat(&live, 2, PlacementKernel::Stable);
        let waves = assign_map_waves(&topo, &tasks, PolicyCtx::disabled()).unwrap();
        let placed: std::collections::HashMap<usize, u32> =
            waves.iter().flatten().map(|&(n, t)| (t, n)).collect();
        assert_eq!(placed[&2], 0, "node 0 steals the unclaimed tasks first");
        assert_eq!(placed[&3], 0);
        assert_eq!(placed[&0], 1);
        assert_eq!(placed[&1], 1);
    }

    fn reduce(
        topo: &SliceTopology<'_, u32>,
        tasks: usize,
        key: impl Fn(usize) -> usize,
        style: ReduceAssignment,
    ) -> WaveAssignment<u32> {
        let tasks = FnReduceTasks::new(tasks, key);
        assign_reduce_waves(topo, &tasks, style, PolicyCtx::disabled()).unwrap()
    }

    #[test]
    fn initial_reducers_round_robin() {
        // 10 reducers, 10 nodes, 1 slot: exactly 1 wave (WR = 1), with
        // partition p on node p % N.
        let live = nodes(10);
        let topo = SliceTopology::new(&live, 1, 1);
        let waves = reduce(&topo, 10, |t| t, ReduceAssignment::RoundRobinByPartition);
        assert_eq!(waves.len(), 1);
        for &(node, task) in &waves[0] {
            assert_eq!(node as usize, task % 10);
        }
    }

    #[test]
    fn round_robin_gives_paper_wave_count() {
        // 40 reducers, 10 nodes, 1 slot: WR = 4 waves.
        let live = nodes(10);
        let topo = SliceTopology::new(&live, 1, 1);
        let waves = reduce(&topo, 40, |t| t, ReduceAssignment::RoundRobinByPartition);
        assert_eq!(waves.len(), 4);
    }

    #[test]
    fn balance_spreads_splits_over_all_nodes() {
        // 1 recomputed reducer split 8 ways, 9 surviving nodes (Fig. 4b).
        let live = nodes(9);
        let topo = SliceTopology::new(&live, 1, 1);
        let waves = reduce(&topo, 8, |_| 0, ReduceAssignment::Balance);
        assert_eq!(waves.len(), 1, "all splits fit one wave across nodes");
        let used: std::collections::HashSet<u32> = waves[0].iter().map(|&(n, _)| n).collect();
        assert_eq!(used.len(), 8);
    }

    #[test]
    fn no_split_recompute_uses_one_node_per_reducer() {
        // 1 recomputed whole reducer, 9 nodes: 1 task on 1 node — the
        // paper's under-utilization (Fig. 4a).
        let live = nodes(9);
        let topo = SliceTopology::new(&live, 1, 1);
        let waves = reduce(&topo, 1, |_| 0, ReduceAssignment::Balance);
        assert_eq!(waves.len(), 1);
        assert_eq!(waves[0].len(), 1);
    }

    #[test]
    fn empty_task_list_zero_waves() {
        let live = nodes(2);
        let topo = SliceTopology::new(&live, 1, 1);
        assert!(map(&topo, &[]).is_empty());
        assert!(reduce(&topo, 0, |t| t, ReduceAssignment::Balance).is_empty());
    }

    #[test]
    fn empty_topology_is_a_typed_error() {
        let live: Vec<u32> = Vec::new();
        let topo = SliceTopology::new(&live, 1, 1);
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
    fn rack_aware_steal_prefers_rack_local_task() {
        // Nodes 0,1 in rack 0; node 2 in another rack. Task 0 lives on
        // node 2, task 1 on node 1 (rack 0). Node 0 claims first and
        // has nothing local: the default kernel steals the oldest
        // pending task (0); the rack-aware kernel prefers task 1, whose
        // replica sits in its own rack. Rack 64 must not alias rack 0.
        let live = nodes(3);
        let layout: Vec<Vec<u32>> = vec![vec![2], vec![1]];
        for far in [1, 64] {
            let m = cluster(&[(1, 0), (1, 0), (1, far)]);
            let default = map(
                &SliceTopology::for_kernel(&live, 1, PlacementKernel::Default, &m),
                &layout,
            );
            assert!(default[0].contains(&(0, 0)), "default steals task 0");
            let rack = map(
                &SliceTopology::for_kernel(&live, 1, PlacementKernel::RackAware, &m),
                &layout,
            );
            assert!(
                rack[0].contains(&(0, 1)),
                "rack-aware steals in-rack (far rack {far}): {rack:?}"
            );
            assert!(
                rack[0].contains(&(1, 0)),
                "task 0 falls to node 1: {rack:?}"
            );
        }
    }

    #[test]
    fn delay_kernel_waits_for_local_work() {
        // One task, local only to node 1. Default: node 0 (first in
        // claim order) steals it remotely. Delay(1): node 0 waits a
        // round and node 1 launches it locally.
        let live = nodes(2);
        let layout: Vec<Vec<u32>> = vec![vec![1]];
        let default = map(&flat(&live, 1, PlacementKernel::Default), &layout);
        assert_eq!(default[0], vec![(0, 0)], "default steals remotely");
        let delay = map(
            &flat(&live, 1, PlacementKernel::Delay { rounds: 1 }),
            &layout,
        );
        assert_eq!(delay[0], vec![(1, 0)], "delayed claim lands local");
        // rounds = 0 degenerates to the default steal behaviour.
        let zero = map(
            &flat(&live, 1, PlacementKernel::Delay { rounds: 0 }),
            &layout,
        );
        assert_eq!(zero, default);
    }

    #[test]
    fn delay_kernel_terminates_on_fully_remote_work() {
        // No task is local anywhere: every node waits out its budget,
        // then steals — assignment completes and covers all tasks.
        let live = nodes(3);
        let layout: Vec<Vec<u32>> = (0..5).map(|_| Vec::new()).collect();
        let waves = map(
            &flat(&live, 1, PlacementKernel::Delay { rounds: 4 }),
            &layout,
        );
        let total: usize = waves.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn capacity_weighted_packs_big_nodes_harder() {
        // Node 1 weighs 3×: of 8 location-free tasks it claims 6 and
        // packs 3 per wave, so the whole job fits 2 waves where the
        // default kernel needs 4.
        let live = nodes(2);
        let m = cluster(&[(1, 0), (3, 0)]);
        let layout: Vec<Vec<u32>> = (0..8).map(|_| Vec::new()).collect();
        let topo = SliceTopology::for_kernel(&live, 1, PlacementKernel::CapacityWeighted, &m);
        let waves = map(&topo, &layout);
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
        let default = SliceTopology::for_kernel(&live, 1, PlacementKernel::Default, &m);
        assert_eq!(map(&default, &layout).len(), 4);
    }

    #[test]
    fn capacity_weighted_balance_is_weighted_shortest_queue() {
        let live = nodes(2);
        let m = cluster(&[(1, 0), (3, 0)]);
        let topo = SliceTopology::for_kernel(&live, 1, PlacementKernel::CapacityWeighted, &m);
        let waves = reduce(&topo, 8, |_| 0, ReduceAssignment::Balance);
        let on_big: usize = waves.iter().flatten().filter(|&&(n, _)| n == 1).count();
        assert_eq!(on_big, 6, "weighted balance loads the 3× node 3× harder");
    }

    #[test]
    fn weighted_waves_degrade_to_uniform_without_caps() {
        let queues = vec![vec![0usize, 2], vec![1, 3, 4]];
        let live = [10u32, 11];
        assert_eq!(
            pack(queues.clone(), &SliceTopology::new(&live, 1, 1), 1),
            reference::queues_to_waves(queues, &live, 1)
        );
    }

    /// The labels of the `policy.*` decision spans `tracer` recorded.
    fn labels(tracer: &Tracer) -> Vec<String> {
        tracer
            .snapshot()
            .spans
            .iter()
            .filter_map(|s| match &s.kind {
                SpanKind::Event { label, .. } => Some(label.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn decision_spans_emitted_when_traced() {
        let tracer = Tracer::new();
        let layout: Vec<Vec<u32>> = vec![vec![0], vec![1]];
        let live = nodes(2);
        let topo = SliceTopology::new(&live, 1, 1);
        assign_map_waves(&topo, &layout_tasks(&layout), PolicyCtx::new(&tracer, None)).unwrap();
        let reds = FnReduceTasks::new(2, |t| t);
        assign_reduce_waves(
            &topo,
            &reds,
            ReduceAssignment::RoundRobinByPartition,
            PolicyCtx::new(&tracer, None),
        )
        .unwrap();
        let labels = labels(&tracer);
        assert_eq!(labels.len(), 2);
        assert!(labels[0].starts_with("policy.map_waves "), "{}", labels[0]);
        assert!(labels[0].contains("local=2"), "{}", labels[0]);
        assert!(
            labels[1].starts_with("policy.reduce_waves style=RoundRobinByPartition"),
            "{}",
            labels[1]
        );
    }

    /// The per-kernel claim loops and the two `Balance` arms the one
    /// claim loop replaced, kept as the oracle for
    /// `one_claim_loop_matches_five_arm_reference`. Only two things
    /// changed from the code they were: rack-aware steals read exact
    /// rack sets (racks used to be folded mod 64), and the cache is
    /// read through `cache_holder`.
    mod reference {
        use super::super::*;

        pub(super) fn queues_to_waves<N: Copy>(
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

        fn queues_to_waves_weighted<N: Copy>(
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

        /// The map schedule and its decision-span label.
        pub(super) fn map_waves<S: MapTaskSet<u32>>(
            topo: &SliceTopology<'_, u32>,
            tasks: &S,
        ) -> Result<(WaveAssignment<u32>, String)> {
            let kernel = topo.kernel();
            let live = topo.live().to_vec();
            if live.is_empty() {
                return Err(Error::NoLiveNodes);
            }
            let mut pending: Vec<usize> = (0..tasks.len()).collect();
            let mut queues: Vec<Vec<usize>> = vec![Vec::new(); live.len()];
            let mut local = 0usize;
            let task_racks: Vec<Vec<u32>> = if kernel == PlacementKernel::RackAware {
                (0..tasks.len())
                    .map(|t| {
                        let mut racks: Vec<u32> = live
                            .iter()
                            .enumerate()
                            .filter(|&(_, &n)| tasks.holds_replica(t, n))
                            .map(|(j, _)| topo.rack_at(j))
                            .collect();
                        racks.sort_unstable();
                        racks.dedup();
                        racks
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
                            let rack = topo.rack_at(i);
                            let pos = pending
                                .iter()
                                .position(|&t| tasks.is_primary_holder(t, n))
                                .or_else(|| pending.iter().position(|&t| tasks.holds_replica(t, n)))
                                .or_else(|| {
                                    if kernel == PlacementKernel::RackAware {
                                        pending.iter().position(|&t| task_racks[t].contains(&rack))
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
                                .position(|&t| tasks.cache_holder(t) == Some(n))
                                .or_else(|| {
                                    pending.iter().position(|&t| tasks.is_primary_holder(t, n))
                                })
                                .or_else(|| pending.iter().position(|&t| tasks.holds_replica(t, n)))
                                .or_else(|| {
                                    pending
                                        .iter()
                                        .position(|&t| tasks.cache_holder(t).is_none())
                                })
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
                                .or_else(|| {
                                    pending.iter().position(|&t| tasks.holds_replica(t, n))
                                });
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
                                    .or_else(|| {
                                        pending.iter().position(|&t| tasks.holds_replica(t, n))
                                    })
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
            let label = format!(
                "policy.map_waves tasks={} nodes={} slots={} waves={} local={} kernel={}",
                tasks.len(),
                live.len(),
                topo.map_slots(),
                waves.len(),
                local,
                kernel.label(),
            );
            Ok((waves, label))
        }

        /// The reduce schedule and its decision-span label.
        pub(super) fn reduce_waves<S: ReduceTaskSet>(
            topo: &SliceTopology<'_, u32>,
            tasks: &S,
            style: ReduceAssignment,
        ) -> Result<(WaveAssignment<u32>, String)> {
            let kernel = topo.kernel();
            let live = topo.live().to_vec();
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
            let label = format!(
                "policy.reduce_waves style={style:?} tasks={} nodes={} slots={} waves={} kernel={}",
                tasks.len(),
                live.len(),
                topo.reduce_slots(),
                waves.len(),
                kernel.label(),
            );
            Ok((waves, label))
        }
    }

    /// Runs `assign` under a tracer and returns its schedule with the
    /// one decision-span label it emitted.
    fn traced(
        assign: impl FnOnce(PolicyCtx<'_>) -> Result<WaveAssignment<u32>>,
    ) -> Result<(WaveAssignment<u32>, String)> {
        let tracer = Tracer::new();
        let waves = assign(PolicyCtx::new(&tracer, None))?;
        let mut labels = labels(&tracer);
        assert_eq!(labels.len(), 1, "one decision span per call");
        Ok((waves, labels.remove(0)))
    }

    /// Every task index `0..tasks` appears exactly once.
    fn each_task_once(waves: &WaveAssignment<u32>, tasks: usize) -> bool {
        let mut seen: Vec<usize> = waves.iter().flatten().map(|&(_, t)| t).collect();
        seen.sort_unstable();
        seen == (0..tasks).collect::<Vec<_>>()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The one claim loop schedules, counts locality and labels its
        /// span exactly as the five per-kernel loops did, for both
        /// phases, over every kernel, replica layout, capacity, rack
        /// (up to 130 racks, past the old mod-64 fold), cache holder
        /// and slot count.
        #[test]
        fn one_claim_loop_matches_five_arm_reference(
            kernel_sel in 0u8..5,
            delay_rounds in 0u32..5,
            hints in prop::collection::vec((1u32..5, 0u32..130), 0usize..12),
            map_slots in 1u32..4,
            reduce_slots in 1u32..4,
            raw_layout in prop::collection::vec(
                prop::collection::vec(0u32..14, 0usize..4),
                0usize..40,
            ),
            cache_sel in prop::collection::vec((any::<bool>(), 0u32..14), 0usize..40),
            parts in prop::collection::vec(0u32..40, 0usize..40),
            balance in any::<bool>(),
        ) {
            let kernel = match kernel_sel {
                0 => PlacementKernel::Default,
                1 => PlacementKernel::RackAware,
                2 => PlacementKernel::Delay { rounds: delay_rounds },
                3 => PlacementKernel::CapacityWeighted,
                _ => PlacementKernel::Stable,
            };
            let m = cluster(&hints);
            let live = m.schedulable();
            // Holders may name nodes outside the live set (dead ones);
            // the first distinct holder is the primary.
            let replicas: Vec<Vec<u32>> = raw_layout
                .iter()
                .map(|hs| {
                    let mut seen = Vec::new();
                    for &h in hs {
                        if !seen.contains(&h) {
                            seen.push(h);
                        }
                    }
                    seen
                })
                .collect();
            let cached: Vec<Option<u32>> = cache_sel
                .iter()
                .map(|&(on, n)| on.then_some(n))
                .collect();
            let tasks = Layout { replicas: &replicas, cached: &cached };

            let topo = SliceTopology::for_kernel(&live, map_slots, kernel, &m);
            let got = traced(|ctx| assign_map_waves(&topo, &tasks, ctx));
            let want = reference::map_waves(&topo, &tasks);
            if let Ok((waves, _)) = &got {
                prop_assert!(each_task_once(waves, replicas.len()), "{:?}", waves);
            }
            prop_assert_eq!(got, want, "map phase under {:?}", kernel);

            let style = if balance {
                ReduceAssignment::Balance
            } else {
                ReduceAssignment::RoundRobinByPartition
            };
            let reds = FnReduceTasks::new(parts.len(), |t| parts[t] as usize);
            let topo = SliceTopology::for_kernel(&live, reduce_slots, kernel, &m);
            let got = traced(|ctx| assign_reduce_waves(&topo, &reds, style, ctx));
            let want = reference::reduce_waves(&topo, &reds, style);
            if let Ok((waves, _)) = &got {
                prop_assert!(each_task_once(waves, parts.len()), "{:?}", waves);
            }
            prop_assert_eq!(got, want, "reduce phase under {:?} {:?}", kernel, style);
        }
    }
}
