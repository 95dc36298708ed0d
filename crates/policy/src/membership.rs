//! Versioned, mutable cluster membership.
//!
//! The static node set the paper assumes (§II fixes the cluster at
//! construction) becomes a **membership record**: every node carries a
//! lifecycle status, a capacity weight and a rack, and every transition
//! — join, drain, decommission, rejoin, death — bumps a monotonically
//! increasing **epoch**. Both backends (engine and simulator) schedule
//! against snapshots of this one type, so a transition sequence yields
//! byte-identical live sets, capacity vectors and rack vectors on both
//! sides — the membership extension of the PR 3 engine ≡ sim invariant.
//!
//! Status semantics mirror HDFS/YARN decommissioning:
//!
//! * **Up** — schedulable and readable; the normal state.
//! * **Draining** — no new tasks or replicas land here, but the data it
//!   holds stays readable (graceful decommission in progress). Recovery
//!   never needs to recompute anything a drain touched.
//! * **Decommissioned** — fully removed after its replicas were
//!   rebalanced away; neither schedulable nor readable.
//! * **Dead** — fail-stop crash (`NodeCrash`): compute *and* data gone
//!   without warning, the scenario RCMP's recomputation recovers from.

use rcmp_model::{Error, Result};
use serde::{Deserialize, Serialize};

/// Lifecycle state of one member node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeStatus {
    /// Schedulable and readable.
    Up,
    /// Readable but not schedulable; drain in progress.
    Draining,
    /// Removed gracefully; not schedulable, not readable.
    Decommissioned,
    /// Fail-stop crashed; not schedulable, not readable.
    Dead,
}

impl NodeStatus {
    /// May new tasks and replicas be placed here?
    pub fn is_schedulable(self) -> bool {
        matches!(self, NodeStatus::Up)
    }

    /// May data already on this node still be read?
    pub fn is_readable(self) -> bool {
        matches!(self, NodeStatus::Up | NodeStatus::Draining)
    }
}

/// Per-node membership record.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeInfo {
    /// Lifecycle status.
    pub status: NodeStatus,
    /// Capacity weight (slots multiplier for the capacity-weighted
    /// placement kernel); homogeneous clusters use 1.
    pub capacity: u32,
    /// Rack index (for the rack-aware placement kernel).
    pub rack: u32,
}

/// The versioned membership record of a cluster.
///
/// Node indices are dense and stable: a node keeps its index for the
/// lifetime of the record (transitions change status, never position),
/// and joins append. That stability is what lets the engine
/// (`NodeId(i)`) and the simulator (`u32` `i`) name the same machine.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Membership {
    nodes: Vec<NodeInfo>,
    epoch: u64,
}

impl Membership {
    /// A homogeneous single-rack cluster of `n` nodes, all up.
    pub fn uniform(n: u32) -> Self {
        Self {
            nodes: (0..n)
                .map(|_| NodeInfo {
                    status: NodeStatus::Up,
                    capacity: 1,
                    rack: 0,
                })
                .collect(),
            epoch: 0,
        }
    }

    /// A homogeneous cluster of `n` nodes spread over `racks` racks in
    /// contiguous blocks — the same layout as
    /// [`crate::RackTopology::rack_of`].
    pub fn with_racks(n: u32, racks: u32) -> Self {
        let topo = crate::RackTopology::new(n, racks.max(1));
        Self {
            nodes: (0..n)
                .map(|i| NodeInfo {
                    status: NodeStatus::Up,
                    capacity: 1,
                    rack: topo.rack_of(rcmp_model::NodeId(i)),
                })
                .collect(),
            epoch: 0,
        }
    }

    /// Current epoch: bumped by every successful transition.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total member count (all statuses, including dead).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Is the record empty (no members at all)?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Status of node `n`, if it is a member.
    pub fn status(&self, n: u32) -> Option<NodeStatus> {
        self.nodes.get(n as usize).map(|i| i.status)
    }

    /// Full record of node `n`, if it is a member.
    pub fn info(&self, n: u32) -> Option<NodeInfo> {
        self.nodes.get(n as usize).copied()
    }

    /// May tasks and new replicas be placed on `n`?
    pub fn is_schedulable(&self, n: u32) -> bool {
        self.status(n).is_some_and(NodeStatus::is_schedulable)
    }

    /// May data on `n` still be read?
    pub fn is_readable(&self, n: u32) -> bool {
        self.status(n).is_some_and(NodeStatus::is_readable)
    }

    /// Nodes tasks may run on, ascending — the scheduling live set.
    pub fn schedulable(&self) -> Vec<u32> {
        self.filtered(NodeStatus::is_schedulable)
    }

    /// Nodes whose data is reachable, ascending (schedulable plus
    /// draining).
    pub fn readable(&self) -> Vec<u32> {
        self.filtered(NodeStatus::is_readable)
    }

    fn filtered(&self, pred: fn(NodeStatus) -> bool) -> Vec<u32> {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, i)| pred(i.status))
            .map(|(n, _)| n as u32)
            .collect()
    }

    /// Capacity weights aligned position-for-position with `live` (a
    /// node list such as [`Membership::schedulable`]). Unknown nodes
    /// weigh 1.
    pub fn caps_for(&self, live: &[u32]) -> Vec<u32> {
        live.iter()
            .map(|&n| self.info(n).map_or(1, |i| i.capacity.max(1)))
            .collect()
    }

    /// Rack indices aligned position-for-position with `live`. Unknown
    /// nodes land in rack 0.
    pub fn racks_for(&self, live: &[u32]) -> Vec<u32> {
        live.iter()
            .map(|&n| self.info(n).map_or(0, |i| i.rack))
            .collect()
    }

    /// Adds a fresh node (Up) and returns its index. Bumps the epoch.
    pub fn join(&mut self, capacity: u32, rack: u32) -> u32 {
        self.nodes.push(NodeInfo {
            status: NodeStatus::Up,
            capacity: capacity.max(1),
            rack,
        });
        self.epoch += 1;
        self.nodes.len() as u32 - 1
    }

    /// Starts draining `n`: Up → Draining. Bumps the epoch.
    pub fn drain(&mut self, n: u32) -> Result<()> {
        self.transition(n, &[NodeStatus::Up], NodeStatus::Draining, "drain")
    }

    /// Finishes removing `n`: Up | Draining → Decommissioned (the
    /// caller is responsible for rebalancing its replicas first). Bumps
    /// the epoch.
    pub fn decommission(&mut self, n: u32) -> Result<()> {
        self.transition(
            n,
            &[NodeStatus::Up, NodeStatus::Draining],
            NodeStatus::Decommissioned,
            "decommission",
        )
    }

    /// Brings a drained or decommissioned node back: → Up. Bumps the
    /// epoch. (A decommissioned node rejoins empty, like a fresh join
    /// that keeps its index.)
    pub fn rejoin(&mut self, n: u32) -> Result<()> {
        self.transition(
            n,
            &[NodeStatus::Draining, NodeStatus::Decommissioned],
            NodeStatus::Up,
            "rejoin",
        )
    }

    /// Records a fail-stop crash: Up | Draining → Dead. Bumps the
    /// epoch.
    pub fn mark_dead(&mut self, n: u32) -> Result<()> {
        self.transition(
            n,
            &[NodeStatus::Up, NodeStatus::Draining],
            NodeStatus::Dead,
            "mark_dead",
        )
    }

    fn transition(
        &mut self,
        n: u32,
        from: &[NodeStatus],
        to: NodeStatus,
        what: &str,
    ) -> Result<()> {
        let Some(info) = self.nodes.get_mut(n as usize) else {
            return Err(Error::Config(format!(
                "membership: {what} of unknown node {n}"
            )));
        };
        if !from.contains(&info.status) {
            return Err(Error::Config(format!(
                "membership: cannot {what} node {n} in state {:?}",
                info.status
            )));
        }
        info.status = to;
        self.epoch += 1;
        Ok(())
    }
}

/// Where one replica of a departing node goes (graceful decommission).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rehome<N> {
    /// Copy the replica to this node.
    Move(N),
    /// Every candidate already holds a copy and another readable holder
    /// remains: drop the replica in place.
    Drop,
    /// The departing node holds the last readable copy and no candidate
    /// can take it; the decommission must fail.
    Stuck,
}

/// The re-homing rule both backends apply to each replica `leaving`
/// holds (so `holders` contains `leaving`): the first node of `pool`
/// (the schedulable nodes, ascending) that does not already hold the
/// data takes it; failing that the replica is dropped if some other
/// holder is still `readable`.
pub fn rehome_target<N: Copy + PartialEq>(
    holders: &[N],
    leaving: N,
    pool: &[N],
    readable: impl Fn(N) -> bool,
) -> Rehome<N> {
    match pool.iter().find(|t| !holders.contains(t)) {
        Some(&t) => Rehome::Move(t),
        None if holders.iter().any(|&h| h != leaving && readable(h)) => Rehome::Drop,
        None => Rehome::Stuck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_bump_epoch_and_update_views() {
        let mut m = Membership::uniform(4);
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.schedulable(), vec![0, 1, 2, 3]);

        m.drain(1).unwrap();
        assert_eq!(m.epoch(), 1);
        assert_eq!(m.schedulable(), vec![0, 2, 3]);
        assert_eq!(m.readable(), vec![0, 1, 2, 3], "draining stays readable");

        m.decommission(1).unwrap();
        assert_eq!(m.epoch(), 2);
        assert_eq!(m.readable(), vec![0, 2, 3]);

        m.mark_dead(3).unwrap();
        assert_eq!(m.epoch(), 3);
        assert_eq!(m.schedulable(), vec![0, 2]);

        let new = m.join(4, 1);
        assert_eq!(new, 4);
        assert_eq!(m.epoch(), 4);
        assert_eq!(m.schedulable(), vec![0, 2, 4]);

        m.rejoin(1).unwrap();
        assert_eq!(m.schedulable(), vec![0, 1, 2, 4]);
        assert_eq!(m.epoch(), 5);
    }

    #[test]
    fn invalid_transitions_are_typed_errors() {
        let mut m = Membership::uniform(2);
        m.mark_dead(0).unwrap();
        assert!(m.drain(0).is_err(), "cannot drain the dead");
        assert!(m.mark_dead(0).is_err(), "already dead");
        assert!(m.rejoin(0).is_err(), "dead nodes do not rejoin");
        assert!(m.drain(7).is_err(), "unknown node");
        assert_eq!(m.epoch(), 1, "failed transitions leave the epoch alone");
    }

    #[test]
    fn caps_and_racks_align_with_live_list() {
        let mut m = Membership::with_racks(6, 3);
        m.join(4, 2);
        m.drain(0).unwrap();
        let live = m.schedulable();
        assert_eq!(live, vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(m.caps_for(&live), vec![1, 1, 1, 1, 1, 4]);
        assert_eq!(m.racks_for(&live), vec![0, 1, 1, 2, 2, 2]);
    }

    #[test]
    fn rack_layout_matches_rack_topology() {
        let m = Membership::with_racks(10, 3); // 4+4+2 like RackTopology
        let racks = m.racks_for(&m.schedulable());
        assert_eq!(racks, vec![0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn rehome_moves_then_drops_then_sticks() {
        let readable = |n: u32| n != 9;
        // First pool node that does not already hold a copy.
        assert_eq!(
            rehome_target(&[0, 1], 0, &[1, 2, 3], readable),
            Rehome::Move(2)
        );
        // Every candidate holds one; node 1 keeps the data readable.
        assert_eq!(rehome_target(&[0, 1], 0, &[1], readable), Rehome::Drop);
        // The only other holder is unreadable: nowhere to go.
        assert_eq!(rehome_target(&[0, 9], 0, &[9], readable), Rehome::Stuck);
        assert_eq!(rehome_target(&[0], 0, &[], readable), Rehome::Stuck);
    }
}
