//! The engine's map tasks as the shared wave kernel sees them.
//!
//! The assignment policies (Hadoop slot-pull with primary→replica→steal
//! preference for mappers, round-robin / balanced placement for
//! reducers, wave arithmetic) live in `rcmp-policy`; see that crate's
//! docs for the paper phenomena they reproduce (§II waves, §III-A
//! locality, §IV-B hot-spots). The job machine (`rcmp_policy::job`)
//! assigns reduce tasks over their ids itself; this module only shows
//! the kernel a run's pending `MapTask`s through its index-based
//! task-set view.

use crate::task::MapTask;
use rcmp_model::{NodeId, Result};
use rcmp_policy::{MapTaskSet, PolicyCtx, SliceTopology, WaveAssignment};

/// The kernel's view of some of a run's engine map tasks: the primary
/// holder is the block's first replica (the writer-local copy, see
/// `rcmp-dfs`'s placement), any listed replica is local, and
/// `cached[t]` names the node whose chain cache holds task `t`'s input
/// partition (empty when the cache is off).
struct MapTaskSlice<'a> {
    tasks: Vec<&'a MapTask>,
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

/// Assigns the mappers `pending` (indices into `tasks`) to waves over
/// `topo` via the shared kernel; the assignment indexes `pending`.
///
/// `cached` is the chain-cache holder map, aligned with `pending`:
/// `cached[t]` names the node holding task `t`'s input partition in
/// memory, if any (empty when the cache is off). Only the `Stable`
/// kernel reads it. Errors with [`rcmp_model::Error::NoLiveNodes`] when
/// the cluster has no survivors.
pub fn assign_map_indices(
    tasks: &[MapTask],
    pending: &[usize],
    topo: &SliceTopology<'_, NodeId>,
    cached: &[Option<NodeId>],
    ctx: PolicyCtx<'_>,
) -> Result<WaveAssignment<NodeId>> {
    let set = MapTaskSlice {
        tasks: pending.iter().map(|&i| &tasks[i]).collect(),
        cached,
    };
    rcmp_policy::assign_map_waves(topo, &set, ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapstore::MapInputKey;
    use rcmp_dfs::BlockLocation;
    use rcmp_model::{BlockId, ByteSize, Error, JobId, MapTaskId, PartitionId, PlacementKernel};
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

    /// Every task of `tasks`, assigned.
    fn assign(
        tasks: &[MapTask],
        topo: &SliceTopology<'_, NodeId>,
        cached: &[Option<NodeId>],
    ) -> Result<WaveAssignment<NodeId>> {
        let all: Vec<usize> = (0..tasks.len()).collect();
        assign_map_indices(tasks, &all, topo, cached, PolicyCtx::disabled())
    }

    #[test]
    fn capacity_weighted_kernel_uses_membership_caps() {
        let mut m = Membership::uniform(1);
        m.join(3, 0); // node 1 weighs 3×
        let live = nodes(2);
        let topo = SliceTopology::for_kernel(&live, 1, PlacementKernel::CapacityWeighted, &m);
        let tasks: Vec<MapTask> = (0..8).map(|i| map_task(i, &[])).collect();
        let waves = assign(&tasks, &topo, &[]).unwrap();
        assert_eq!(
            waves.len(),
            2,
            "3×-weighted node packs the job into 2 waves"
        );
        let on_big = waves.iter().flatten().filter(|(n, _)| *n == NodeId(1));
        assert_eq!(on_big.count(), 6);
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
        let waves = assign(&tasks, &stable, &cached).unwrap();
        assert_eq!(waves.len(), 1);
        for &(node, task) in &waves[0] {
            assert_eq!(node, NodeId(task as u32), "task follows its cached copy");
        }
        // Other kernels are handed the same holders and ignore them.
        let default = SliceTopology::for_kernel(&live, 1, PlacementKernel::Default, &m);
        let waves = assign(&tasks, &default, &cached).unwrap();
        assert_eq!(waves[0][0].0, NodeId(0), "default follows the DFS primary");
    }

    /// Only the pending tasks are placed, and the assignment indexes
    /// them, not the run's task list.
    #[test]
    fn only_pending_tasks_are_assigned() {
        let m = Membership::uniform(2);
        let live = nodes(2);
        let topo = SliceTopology::for_kernel(&live, 1, PlacementKernel::Default, &m);
        let tasks: Vec<MapTask> = (0..4).map(|i| map_task(i, &[i % 2])).collect();
        let waves = assign_map_indices(&tasks, &[1, 2], &topo, &[], PolicyCtx::disabled());
        assert_eq!(waves.unwrap(), [vec![(NodeId(0), 1), (NodeId(1), 0)]]);
    }

    #[test]
    fn dead_cluster_is_a_typed_error() {
        let topo = SliceTopology::new(&[], 1, 1);
        let err = assign(&[map_task(0, &[0])], &topo, &[]).unwrap_err();
        assert_eq!(err, Error::NoLiveNodes);
    }
}
