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
//! [`RackTopology`] is the single source of truth for node→rack layout:
//! `rcmp-dfs` re-exports it for replica placement, and
//! [`crate::Membership::with_racks`] derives its rack vector from the
//! same contiguous-block rule — the two representations that used to
//! drift are now one struct.

use crate::Membership;
use rcmp_model::{NodeId, PlacementKernel};
use serde::{Deserialize, Serialize};

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

/// Maps nodes to racks: contiguous blocks of `nodes.div_ceil(racks)`
/// nodes per rack (node 0..k−1 → rack 0, etc.).
///
/// "Current replication strategies protect against the simultaneous
/// failure of two nodes or against single rack-level failures" (§III-A);
/// the DCO cluster's nodes "are distributed in 3 different racks"
/// (§V-A). HDFS's default policy puts the first replica on the writer,
/// the second on a different rack, and the third on the same rack as
/// the second — surviving the loss of any single rack with factor ≥ 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RackTopology {
    /// Number of nodes.
    pub nodes: u32,
    /// Number of racks.
    pub racks: u32,
}

impl RackTopology {
    /// A topology of `nodes` nodes over `racks` racks.
    pub fn new(nodes: u32, racks: u32) -> Self {
        assert!(racks >= 1 && nodes >= 1, "need at least one node and rack");
        Self { nodes, racks }
    }

    /// A flat (single-rack) topology: rack awareness is a no-op.
    pub fn flat(nodes: u32) -> Self {
        Self::new(nodes, 1)
    }

    /// The DCO layout: 3 racks.
    pub fn dco(nodes: u32) -> Self {
        Self::new(nodes, 3)
    }

    /// Nodes per rack (the last rack may be smaller).
    fn nodes_per_rack(&self) -> u32 {
        self.nodes.div_ceil(self.racks)
    }

    /// The rack a node lives in.
    pub fn rack_of(&self, node: NodeId) -> u32 {
        (node.raw() / self.nodes_per_rack()).min(self.racks - 1)
    }

    /// Whether two nodes share a rack.
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of(a) == self.rack_of(b)
    }

    /// All nodes in one rack.
    pub fn rack_members(&self, rack: u32) -> Vec<NodeId> {
        (0..self.nodes)
            .map(NodeId)
            .filter(|&n| self.rack_of(n) == rack)
            .collect()
    }
}

/// Orders placement candidates HDFS-style given a first (writer-local)
/// replica: off-rack nodes first (the second replica must leave the
/// writer's rack), then same-rack-as-second for the third, then anyone.
///
/// Returns the candidates sorted by preference; the caller takes as
/// many as the replication factor requires.
pub fn rack_aware_order(
    topology: &RackTopology,
    first: NodeId,
    candidates: &[NodeId],
) -> Vec<NodeId> {
    let mut off_rack: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|&n| !topology.same_rack(first, n))
        .collect();
    let on_rack: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|&n| topology.same_rack(first, n) && n != first)
        .collect();
    // Third replica prefers the *second* replica's rack: after the
    // first off-rack pick, stable-partition the rest of the off-rack
    // list so the second pick's rack-mates come next.
    if off_rack.len() > 1 {
        let second_rack = topology.rack_of(off_rack[0]);
        let (mut same_as_second, other): (Vec<NodeId>, Vec<NodeId>) = off_rack[1..]
            .iter()
            .copied()
            .partition(|&n| topology.rack_of(n) == second_rack);
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
    fn rack_of_contiguous_blocks() {
        let t = RackTopology::dco(60);
        assert_eq!(t.nodes_per_rack(), 20);
        assert_eq!(t.rack_of(NodeId(0)), 0);
        assert_eq!(t.rack_of(NodeId(19)), 0);
        assert_eq!(t.rack_of(NodeId(20)), 1);
        assert_eq!(t.rack_of(NodeId(59)), 2);
        assert!(t.same_rack(NodeId(0), NodeId(19)));
        assert!(!t.same_rack(NodeId(19), NodeId(20)));
    }

    #[test]
    fn uneven_division_clamps_last_rack() {
        let t = RackTopology::new(10, 3); // 4+4+2
        assert_eq!(t.rack_of(NodeId(9)), 2);
        assert_eq!(t.rack_members(2), vec![NodeId(8), NodeId(9)]);
        let total: usize = (0..3).map(|r| t.rack_members(r).len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn flat_topology_is_one_rack() {
        let t = RackTopology::flat(5);
        for a in 0..5 {
            for b in 0..5 {
                assert!(t.same_rack(NodeId(a), NodeId(b)));
            }
        }
    }

    #[test]
    fn rack_aware_order_prefers_off_rack_then_seconds_rack() {
        let t = RackTopology::new(9, 3); // racks {0,1,2},{3,4,5},{6,7,8}
        let candidates: Vec<NodeId> = (0..9).map(NodeId).collect();
        let order = rack_aware_order(&t, NodeId(0), &candidates);
        // First pick is off-rack.
        assert!(!t.same_rack(NodeId(0), order[0]));
        // Second pick shares the first pick's rack (HDFS third replica).
        assert!(t.same_rack(order[0], order[1]));
        // Writer's rack-mates come last.
        let tail: Vec<u32> = order[order.len() - 2..].iter().map(|n| n.raw()).collect();
        assert_eq!(tail, vec![1, 2]);
    }

    #[test]
    fn order_handles_all_same_rack() {
        let t = RackTopology::flat(4);
        let candidates: Vec<NodeId> = (0..4).map(NodeId).collect();
        let order = rack_aware_order(&t, NodeId(1), &candidates);
        assert_eq!(order.len(), 3, "writer excluded, everyone else listed");
        assert!(!order.contains(&NodeId(1)));
    }
}
