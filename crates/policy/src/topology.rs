//! The kernel's view of a cluster, and the rack model.
//!
//! The engine schedules over `rcmp_model::NodeId`s owned by a live
//! `Cluster`; the simulator over bare `u32`s in a `SimState`. The kernel
//! only ever needs the *live* node list (survivors, in failure
//! scenarios), the per-phase slot counts, the placement kernel, and the
//! per-position capacity and rack hints that kernel reads — so that is
//! all [`SliceTopology`] holds. Both backends build it through
//! [`SliceTopology::for_kernel`], the one place membership turns into
//! capacities and racks.
//!
//! Racks are part of the membership record: [`crate::Membership`]
//! holds each node's rack next to its status and capacity, and both
//! the rack-aware placement kernel (through [`SliceTopology`]) and the
//! DFS's rack-aware replica order ([`rack_aware_order`]) read it there.

use crate::Membership;
use rcmp_model::{NodeId, PlacementKernel};

/// What the wave kernels need to know about a cluster for one phase.
///
/// `N` is whatever the backend uses to name a machine (engine:
/// `NodeId`; simulator: `u32`); the kernel treats it as an opaque
/// copyable token and returns it in assignments. The live order
/// matters: round-robin placement and steal order are defined over it,
/// and both backends present ascending node id.
#[derive(Clone, Debug)]
pub struct SliceTopology<'a, N> {
    live: &'a [N],
    map_slots: u32,
    reduce_slots: u32,
    kernel: PlacementKernel,
    /// Claim weights aligned with `live`; empty (weight 1 everywhere)
    /// unless the kernel is `CapacityWeighted`.
    caps: Vec<u32>,
    /// Rack indices aligned with `live`; empty (one rack) unless the
    /// kernel is `RackAware`.
    racks: Vec<u32>,
}

impl<'a, N: Copy> SliceTopology<'a, N> {
    /// A flat, homogeneous cluster under [`PlacementKernel::Default`],
    /// with distinct map/reduce slot counts.
    pub fn new(live: &'a [N], map_slots: u32, reduce_slots: u32) -> Self {
        Self {
            live,
            map_slots,
            reduce_slots,
            kernel: PlacementKernel::Default,
            caps: Vec::new(),
            racks: Vec::new(),
        }
    }

    /// One phase's view under `kernel`, `slots` per node, with the
    /// capacities and racks that kernel reads drawn from `membership`
    /// (aligned position-for-position with `live`).
    pub fn for_kernel(
        live: &'a [N],
        slots: u32,
        kernel: PlacementKernel,
        membership: &Membership,
    ) -> Self
    where
        N: Into<u32>,
    {
        let raw = || -> Vec<u32> { live.iter().map(|&n| n.into()).collect() };
        Self {
            caps: match kernel {
                PlacementKernel::CapacityWeighted => membership.caps_for(&raw()),
                _ => Vec::new(),
            },
            racks: match kernel {
                PlacementKernel::RackAware => membership.racks_for(&raw()),
                _ => Vec::new(),
            },
            kernel,
            ..Self::new(live, slots, slots)
        }
    }

    /// Nodes currently alive, in the backend's canonical order.
    pub fn live(&self) -> &'a [N] {
        self.live
    }

    /// Concurrent map tasks per node (§II's `SM`).
    pub fn map_slots(&self) -> u32 {
        self.map_slots
    }

    /// Concurrent reduce tasks per node (§II's `SR`).
    pub fn reduce_slots(&self) -> u32 {
        self.reduce_slots
    }

    /// The placement kernel this phase schedules under.
    pub fn kernel(&self) -> PlacementKernel {
        self.kernel
    }

    /// Tasks the node at position `pos` of [`SliceTopology::live`]
    /// claims per round and packs per slot: its membership capacity
    /// under `CapacityWeighted`, 1 under every other kernel.
    pub fn capacity_at(&self, pos: usize) -> u32 {
        self.caps.get(pos).copied().unwrap_or(1)
    }

    /// Rack index of the node at position `pos` of
    /// [`SliceTopology::live`]: its membership rack under `RackAware`,
    /// 0 under every other kernel.
    pub fn rack_at(&self, pos: usize) -> u32 {
        self.racks.get(pos).copied().unwrap_or(0)
    }
}

/// Orders placement candidates HDFS-style given a first (writer-local)
/// replica: off-rack nodes first (the second replica must leave the
/// writer's rack), then same-rack-as-second for the third, then anyone.
/// Racks are read from `membership`. When every candidate shares the
/// writer's rack (a one-rack cluster) the candidates come back as
/// given, without a copy.
///
/// HDFS's default policy puts the first replica on the writer, the
/// second on a different rack, and the third on the same rack as the
/// second — surviving the loss of any single rack with factor ≥ 2
/// (§III-A).
///
/// Returns the candidates (less `first`) sorted by preference; the
/// caller takes as many as the replication factor requires.
pub fn rack_aware_order(
    membership: &Membership,
    first: NodeId,
    mut candidates: Vec<NodeId>,
) -> Vec<NodeId> {
    let rack = |n: NodeId| membership.rack(n.raw());
    let first_rack = rack(first);
    candidates.retain(|&n| n != first);
    if candidates.iter().all(|&n| rack(n) == first_rack) {
        return candidates;
    }
    let (mut off_rack, on_rack): (Vec<NodeId>, Vec<NodeId>) =
        candidates.into_iter().partition(|&n| rack(n) != first_rack);
    // Third replica prefers the *second* replica's rack: after the
    // first off-rack pick, stable-partition the rest of the off-rack
    // list so the second pick's rack-mates come next.
    if off_rack.len() > 1 {
        let second_rack = rack(off_rack[0]);
        let (mut same_as_second, other): (Vec<NodeId>, Vec<NodeId>) = off_rack[1..]
            .iter()
            .copied()
            .partition(|&n| rack(n) == second_rack);
        let mut ordered = vec![off_rack[0]];
        ordered.append(&mut same_as_second);
        ordered.extend(other);
        off_rack = ordered;
    }
    off_rack.extend(on_rack);
    off_rack
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_topology_reports_its_inputs() {
        let live = [3u32, 5, 7];
        let t = SliceTopology::new(&live, 2, 4);
        assert_eq!(t.live(), &[3, 5, 7]);
        assert_eq!(t.map_slots(), 2);
        assert_eq!(t.reduce_slots(), 4);
        assert_eq!(t.kernel(), PlacementKernel::Default);
        // Plain slice topologies are homogeneous and flat.
        assert_eq!(t.capacity_at(0), 1);
        assert_eq!(t.rack_at(2), 0);
    }

    #[test]
    fn for_kernel_reads_only_the_hints_its_kernel_uses() {
        let mut m = Membership::with_racks(2, 2);
        m.join(4, 1);
        let live = [0u32, 1, 2];
        let cw = SliceTopology::for_kernel(&live, 3, PlacementKernel::CapacityWeighted, &m);
        assert_eq!((cw.map_slots(), cw.reduce_slots()), (3, 3));
        assert_eq!(cw.capacity_at(2), 4);
        assert_eq!(cw.rack_at(1), 0, "racks unread under capacity-weighted");
        let rack = SliceTopology::for_kernel(&live, 1, PlacementKernel::RackAware, &m);
        assert_eq!(rack.rack_at(1), 1);
        assert_eq!(rack.capacity_at(2), 1, "capacities unread under rack-aware");
        let ids = [NodeId(2)];
        let stable = SliceTopology::for_kernel(&ids, 1, PlacementKernel::Stable, &m);
        assert_eq!((stable.capacity_at(0), stable.rack_at(0)), (1, 0));
    }

    #[test]
    fn rack_aware_order_prefers_off_rack_then_seconds_rack() {
        let m = Membership::with_racks(9, 3); // racks {0,1,2},{3,4,5},{6,7,8}
        let rack = |n: NodeId| m.rack(n.raw());
        let candidates: Vec<NodeId> = (0..9).map(NodeId).collect();
        let order = rack_aware_order(&m, NodeId(0), candidates);
        // First pick is off-rack.
        assert_ne!(rack(NodeId(0)), rack(order[0]));
        // Second pick shares the first pick's rack (HDFS third replica).
        assert_eq!(rack(order[0]), rack(order[1]));
        // Writer's rack-mates come last.
        let tail: Vec<u32> = order[order.len() - 2..].iter().map(|n| n.raw()).collect();
        assert_eq!(tail, vec![1, 2]);
    }

    #[test]
    fn order_handles_all_same_rack() {
        let m = Membership::uniform(4);
        let candidates: Vec<NodeId> = [3, 0, 1, 2].map(NodeId).to_vec();
        let order = rack_aware_order(&m, NodeId(1), candidates);
        assert_eq!(
            order,
            [3, 0, 2].map(NodeId),
            "writer excluded, everyone else in the given order"
        );
    }
}
