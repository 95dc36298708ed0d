//! Slot-constrained wave scheduling — thin adapter over the shared
//! policy kernel.
//!
//! The actual assignment policies (Hadoop slot-pull with
//! primary→replica→steal preference for mappers, round-robin /
//! balanced placement for reducers, wave arithmetic) live in
//! `rcmp-policy`; see that crate's docs for the paper phenomena they
//! reproduce (§II waves, §III-A locality, §IV-B hot-spots). This module
//! only translates the engine's `MapTask`/`ReduceTask` structs into the
//! kernel's index-based task-set view and maps the returned indices
//! back onto tasks.

use crate::task::{MapTask, ReduceTask};
use rcmp_model::{NodeId, Result};
use rcmp_policy::{FnReduceTasks, MapTaskSet, PolicyCtx, SliceTopology, WaveAssignment};

pub use rcmp_policy::ReduceAssignment;

/// Tasks grouped into waves: `waves[w]` is the list of `(node, task)`
/// pairs running concurrently in wave `w`.
pub type Waves<T> = Vec<Vec<(NodeId, T)>>;

/// The kernel's view of a slice of engine map tasks: the primary holder
/// is the block's first replica (the writer-local copy, see
/// `rcmp-dfs`'s placement), any listed replica is local, and
/// `cached[t]` names the node whose chain cache holds task `t`'s input
/// partition (empty when the cache is off).
struct MapTaskSlice<'a> {
    tasks: &'a [MapTask],
    cached: &'a [Option<NodeId>],
}

impl MapTaskSet<NodeId> for MapTaskSlice<'_> {
    fn len(&self) -> usize {
        self.tasks.len()
    }

    fn is_primary_holder(&self, task: usize, node: NodeId) -> bool {
        self.tasks[task].block.replicas.first() == Some(&node)
    }

    fn holds_replica(&self, task: usize, node: NodeId) -> bool {
        self.tasks[task].block.replicas.contains(&node)
    }

    fn cache_holder(&self, task: usize) -> Option<NodeId> {
        self.cached.get(task).copied().flatten()
    }
}

/// Reifies an index-based kernel assignment back onto owned tasks.
fn resolve<T>(assignment: WaveAssignment<NodeId>, tasks: Vec<T>) -> Waves<T> {
    let mut slots: Vec<Option<T>> = tasks.into_iter().map(Some).collect();
    assignment
        .into_iter()
        .map(|wave| {
            wave.into_iter()
                // Invariant: the kernel places each index once (its oracle proptest pins it).
                .map(|(n, t)| (n, slots[t].take().expect("kernel assigns each task once")))
                .collect()
        })
        .collect()
}

/// Assigns map tasks to waves over `topo` via the shared kernel.
///
/// `cached` is the chain-cache holder map, aligned with `tasks`:
/// `cached[t]` names the node holding task `t`'s input partition in
/// memory, if any (empty when the cache is off). Only the `Stable`
/// kernel reads it. Errors with [`rcmp_model::Error::NoLiveNodes`] when
/// the cluster has no survivors.
pub fn assign_map_waves(
    tasks: Vec<MapTask>,
    topo: &SliceTopology<'_, NodeId>,
    cached: &[Option<NodeId>],
    ctx: PolicyCtx<'_>,
) -> Result<Waves<MapTask>> {
    let set = MapTaskSlice {
        tasks: &tasks,
        cached,
    };
    let assignment = rcmp_policy::assign_map_waves(topo, &set, ctx)?;
    Ok(resolve(assignment, tasks))
}

/// Assigns reduce tasks to waves over `topo` via the shared kernel.
/// Errors with [`rcmp_model::Error::NoLiveNodes`] when the cluster has
/// no survivors.
pub fn assign_reduce_waves(
    tasks: Vec<ReduceTask>,
    topo: &SliceTopology<'_, NodeId>,
    style: ReduceAssignment,
    ctx: PolicyCtx<'_>,
) -> Result<Waves<ReduceTask>> {
    let set = FnReduceTasks::new(tasks.len(), |t| tasks[t].id.partition.index());
    let assignment = rcmp_policy::assign_reduce_waves(topo, &set, style, ctx)?;
    Ok(resolve(assignment, tasks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapstore::MapInputKey;
    use rcmp_dfs::BlockLocation;
    use rcmp_model::{
        BlockId, ByteSize, Error, JobId, MapTaskId, PartitionId, PlacementKernel, ReduceTaskId,
    };
    use rcmp_policy::Membership;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn map_task(idx: u32, replicas: &[u32]) -> MapTask {
        MapTask {
            id: MapTaskId::new(JobId(1), idx),
            key: MapInputKey::new(JobId(1), PartitionId(0), idx),
            block: BlockLocation {
                id: BlockId(idx as u64),
                size: ByteSize::mib(1),
                content_hash: 0,
                replicas: replicas.iter().map(|&n| NodeId(n)).collect(),
            },
        }
    }

    fn reduce_task(p: u32) -> ReduceTask {
        ReduceTask::new(ReduceTaskId::whole(JobId(1), PartitionId(p)))
    }

    fn on_big<T>(waves: &Waves<T>) -> usize {
        waves
            .iter()
            .flatten()
            .filter(|(n, _)| *n == NodeId(1))
            .count()
    }

    #[test]
    fn capacity_weighted_kernel_uses_membership_caps() {
        let mut m = Membership::uniform(1);
        m.join(3, 0); // node 1 weighs 3×
        let live = nodes(2);
        let topo = SliceTopology::for_kernel(&live, 1, PlacementKernel::CapacityWeighted, &m);

        let tasks: Vec<MapTask> = (0..8).map(|i| map_task(i, &[])).collect();
        let waves = assign_map_waves(tasks, &topo, &[], PolicyCtx::disabled()).unwrap();
        assert_eq!(
            waves.len(),
            2,
            "3×-weighted node packs the job into 2 waves"
        );
        assert_eq!(on_big(&waves), 6);

        let tasks: Vec<ReduceTask> = (0..8).map(|_| reduce_task(0)).collect();
        let waves = assign_reduce_waves(
            tasks,
            &topo,
            ReduceAssignment::Balance,
            PolicyCtx::disabled(),
        )
        .unwrap();
        assert_eq!(on_big(&waves), 6, "weighted balance loads node 1 3× harder");
    }

    #[test]
    fn stable_kernel_follows_cache_affinity() {
        let m = Membership::uniform(4);
        let live = nodes(4);
        // Every block's DFS replica sits on node 0, but each task's
        // partition is cached on its "own" node.
        let tasks: Vec<MapTask> = (0..4).map(|i| map_task(i, &[0])).collect();
        let cached: Vec<Option<NodeId>> = (0..4).map(|i| Some(NodeId(i))).collect();
        let stable = SliceTopology::for_kernel(&live, 1, PlacementKernel::Stable, &m);
        let waves =
            assign_map_waves(tasks.clone(), &stable, &cached, PolicyCtx::disabled()).unwrap();
        assert_eq!(waves.len(), 1);
        for (node, task) in &waves[0] {
            assert_eq!(*node, NodeId(task.id.index), "task follows its cached copy");
        }
        // Other kernels are handed the same holders and ignore them.
        let default = SliceTopology::for_kernel(&live, 1, PlacementKernel::Default, &m);
        let waves = assign_map_waves(tasks, &default, &cached, PolicyCtx::disabled()).unwrap();
        assert_eq!(waves[0][0].0, NodeId(0), "default follows the DFS primary");
    }

    #[test]
    fn dead_cluster_is_a_typed_error() {
        let topo = SliceTopology::new(&[], 1, 1);
        let err = assign_map_waves(vec![map_task(0, &[0])], &topo, &[], PolicyCtx::disabled())
            .unwrap_err();
        assert_eq!(err, Error::NoLiveNodes);
        let err = assign_reduce_waves(
            vec![reduce_task(0)],
            &topo,
            ReduceAssignment::RoundRobinByPartition,
            PolicyCtx::disabled(),
        )
        .unwrap_err();
        assert_eq!(err, Error::NoLiveNodes);
    }
}
