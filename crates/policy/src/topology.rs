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
//! replica-target rule ([`replica_targets`]) read it there.

use crate::Membership;
use rcmp_model::partition::mix64;
use rcmp_model::rng::derive_indexed;
use rcmp_model::{Error, PlacementKernel, Result};
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

/// How the first copy of a freshly written block is placed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// First copy on the writer node (HDFS default in collocated
    /// clusters — gives the data locality the paper discusses in §III-A).
    WriterLocal,
    /// First copy on the node the block's key weighs highest, so one
    /// writer's blocks scatter over the cluster. This is the paper's
    /// alternative hot-spot mitigation (§IV-B2): recomputed reducers
    /// "spread their output over many nodes" instead of writing locally.
    Spread,
}

/// The placement key shared by the blocks of one segment: a hash of
/// `(seed, path, partition, split)`, computed once per write call.
pub fn segment_key(seed: u64, path: &str, partition: u32, split: u32) -> u64 {
    derive_indexed(seed, path, u64::from(partition) << 32 | u64::from(split))
}

/// The placement key of block `index` (its position in the segment)
/// of the segment keyed `segment` (see [`segment_key`]).
pub fn block_key(segment: u64, index: u32) -> u64 {
    mix64(segment ^ u64::from(index))
}

/// HDFS's `dfs.namenode.replication.min`: a write, a replication point
/// or a decommission goes ahead once the block has this many readable
/// copies, taking what [`replica_targets`] returns when the candidates
/// run out before the factor (HDFS re-replicates later; here the
/// shortfall stays).
pub const MIN_REPLICAS: usize = 1;

/// The one replica-target rule: the nodes that receive new copies of
/// the block keyed `key` so that `holders` plus the copies reach
/// `factor` — at write time with no holders, when raising a block's
/// replication with its readable replicas as `holders`, and when a
/// decommission replaces the copy a leaving node held.
///
/// Candidates are the schedulable nodes not in `holders`, ranked by the
/// rendezvous weight `mix64(key ^ node)`. With no holders, the first
/// copy is `writer` under [`PlacementPolicy::WriterLocal`] when it is
/// schedulable, else the top-weighted candidate. The rest follow HDFS's
/// rack order (§III-A), anchored on `holders[0]` or the first copy: the
/// second copy leaves the anchor's rack and the third joins the
/// second's, so factor ≥ 2 survives the loss of any single rack. That
/// is, by weight within each class: the first off-rack candidate's
/// rack, then the other off-rack candidates, then the anchor's rack.
/// So a factor-f placement is a prefix of the factor-(f+1) one, raising
/// a factor-1 write to f gives the factor-f write, and a node outside
/// the targets can die without moving them. Returns fewer copies when
/// the candidates run out; callers go ahead with at least
/// [`MIN_REPLICAS`] copies.
pub fn replica_targets<N>(
    key: u64,
    policy: PlacementPolicy,
    writer: N,
    factor: u32,
    holders: &[N],
    membership: &Membership,
) -> Vec<N>
where
    N: Copy + PartialEq + From<u32> + Into<u32>,
{
    let want = (factor as usize).saturating_sub(holders.len());
    let writer_first = holders.is_empty()
        && policy == PlacementPolicy::WriterLocal
        && membership.is_schedulable(writer.into());
    if want == 0 {
        return Vec::new();
    }
    if want == 1 && writer_first {
        return vec![writer];
    }
    // (weight, node, rack) of every candidate.
    let mut candidates: Vec<(u64, u32, u32)> = Vec::with_capacity(membership.len());
    candidates.extend(
        (0..membership.len() as u32)
            .filter(|&n| membership.is_schedulable(n) && !holders.iter().any(|&h| h.into() == n))
            .map(|n| (mix64(key ^ u64::from(n)), n, membership.rack(n))),
    );
    let mut targets = Vec::with_capacity(want);
    let anchor = match holders.first() {
        Some(&holder) => holder.into(),
        None => {
            let first = if writer_first {
                candidates.iter().position(|c| c.1 == writer.into())
            } else {
                (0..candidates.len()).max_by_key(|&i| candidates[i])
            };
            let Some(first) = first else {
                return targets;
            };
            let first = candidates.swap_remove(first).1;
            targets.push(N::from(first));
            first
        }
    };
    let anchor_rack = membership.rack(anchor);
    let off_rack = candidates.iter().filter(|c| c.2 != anchor_rack);
    let second_rack = off_rack.max().map(|c| c.2);
    let class = |rack: u32| match rack {
        r if Some(r) == second_rack => 2,
        r if r != anchor_rack => 1,
        _ => 0,
    };
    // Selection, not a sort: one scan per copy for the best
    // (class, weight, node).
    while targets.len() < want {
        let mut best: Option<(usize, (u8, u64, u32))> = None;
        for (i, &(weight, node, rack)) in candidates.iter().enumerate() {
            let rank = (class(rack), weight, node);
            if best.is_none_or(|(_, b)| rank > b) {
                best = Some((i, rank));
            }
        }
        let Some((i, _)) = best else { break };
        targets.push(N::from(candidates.swap_remove(i).1));
    }
    targets
}

/// Where the copy a decommissioned node `leaving` held of the block
/// keyed `key` goes: the next copy [`replica_targets`] gives the block,
/// with its `replicas` still readable in `after` (the membership once
/// `leaving` is gone) as holders, so the copy leaves the remaining
/// copy's rack when it can. `Ok(None)` when the rule finds no target
/// and at least [`MIN_REPLICAS`] readable copies remain: the replica is
/// dropped in place. Fewer, and the decommission fails.
pub fn decommission_target<N>(
    key: u64,
    leaving: N,
    replicas: &[N],
    after: &Membership,
) -> Result<Option<N>>
where
    N: Copy + PartialEq + From<u32> + Into<u32>,
{
    let holders: Vec<N> = (replicas.iter().copied())
        .filter(|&n| after.is_readable(n.into()))
        .collect();
    let factor = holders.len() as u32 + 1;
    let spread = PlacementPolicy::Spread;
    match replica_targets(key, spread, leaving, factor, &holders, after)[..] {
        [target] => Ok(Some(target)),
        _ if holders.len() >= MIN_REPLICAS => Ok(None),
        _ => Err(Error::InsufficientReplicaTargets {
            wanted: MIN_REPLICAS,
            alive: after.schedulable().len(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rcmp_model::NodeId;

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

    /// The candidates after the first copy, by descending weight.
    fn by_weight(key: u64, first: u32, nodes: u32) -> Vec<u32> {
        let mut rest: Vec<u32> = (0..nodes).filter(|&n| n != first).collect();
        rest.sort_by_key(|&n| std::cmp::Reverse(mix64(key ^ u64::from(n))));
        rest
    }

    #[test]
    fn rack_order_prefers_off_rack_then_seconds_rack() {
        let m = Membership::with_racks(9, 3); // racks {0,1,2},{3,4,5},{6,7,8}
        let rack = |n: u32| m.rack(n);
        let key = block_key(11, 0);
        let all = replica_targets(key, PlacementPolicy::WriterLocal, 0u32, 9, &[], &m);
        assert_eq!(all[0], 0, "writer first");
        let order = &all[1..];
        // First pick is off-rack; the second shares its rack (HDFS's
        // third replica), and the writer's rack-mates come last.
        assert_ne!(rack(0), rack(order[0]));
        assert_eq!(rack(order[0]), rack(order[1]));
        let mut tail = order[6..].to_vec();
        tail.sort_unstable();
        assert_eq!(tail, [1, 2]);
        // Within each class, the weight order.
        let weights = by_weight(key, 0, 9);
        for class in [&order[..3], &order[3..6], &order[6..]] {
            let mut ranked = class.to_vec();
            ranked.sort_by_key(|n| weights.iter().position(|w| w == n));
            assert_eq!(class, &ranked[..]);
        }
    }

    #[test]
    fn one_rack_takes_the_weight_order() {
        let m = Membership::uniform(6);
        let key = block_key(3, 2);
        let t = replica_targets(key, PlacementPolicy::WriterLocal, 1u32, 6, &[], &m);
        assert_eq!(t[0], 1);
        assert_eq!(
            t[1..],
            by_weight(key, 1, 6)[..],
            "weight order after the writer"
        );
    }

    fn targets(policy: PlacementPolicy, writer: u32, factor: u32, m: &Membership) -> Vec<u32> {
        replica_targets(block_key(7, 0), policy, writer, factor, &[], m)
    }

    #[test]
    fn writer_local_prefers_writer() {
        let t = targets(PlacementPolicy::WriterLocal, 3, 3, &Membership::uniform(10));
        assert_eq!(t[0], 3);
        assert_eq!(t.len(), 3);
        let mut d = t.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), 3, "replicas must be distinct");
    }

    #[test]
    fn writer_local_falls_back_when_writer_dead() {
        let mut m = Membership::uniform(10);
        m.mark_dead(3).unwrap();
        let t = targets(PlacementPolicy::WriterLocal, 3, 2, &m);
        assert_eq!(t.len(), 2);
        assert!(!t.contains(&3));
    }

    #[test]
    fn spread_uses_many_first_targets() {
        let m = Membership::uniform(10);
        let firsts: std::collections::HashSet<u32> = (0..100)
            .map(|i| replica_targets(block_key(3, i), PlacementPolicy::Spread, 0u32, 1, &[], &m)[0])
            .collect();
        assert!(
            firsts.len() >= 5,
            "spread placement should hit many nodes, hit {}",
            firsts.len()
        );
    }

    #[test]
    fn too_few_candidates_give_fewer_copies() {
        let t = targets(PlacementPolicy::WriterLocal, 0, 3, &Membership::uniform(2));
        assert_eq!(t.len(), 2, "{t:?}");
        assert!(replica_targets(
            1,
            PlacementPolicy::Spread,
            0u32,
            2,
            &[],
            &Membership::default()
        )
        .is_empty());
    }

    #[test]
    fn rack_aware_second_replica_leaves_writer_rack() {
        let m = Membership::with_racks(9, 3);
        let same_rack = |a: NodeId, b: NodeId| m.rack(a.raw()) == m.rack(b.raw());
        for i in 0..50 {
            let key = block_key(segment_key(6, "out/1", i, 0), 0);
            let t = replica_targets(key, PlacementPolicy::WriterLocal, NodeId(1), 3, &[], &m);
            assert_eq!(t[0], NodeId(1));
            assert!(
                !same_rack(t[0], t[1]),
                "second replica must leave the writer's rack: {t:?}"
            );
            assert!(
                same_rack(t[1], t[2]),
                "third replica shares the second's rack: {t:?}"
            );
        }
    }

    #[test]
    fn decommission_moves_off_the_remaining_rack_then_drops_then_fails() {
        // Racks {0, 1} and {2, 3}; node 3 leaves a block held by 0 and 3.
        let mut after = Membership::with_racks(4, 2);
        after.decommission(3).unwrap();
        for key in 0..20 {
            let moved = decommission_target(key, 3u32, &[0, 3], &after).unwrap();
            assert_eq!(moved, Some(2), "off node 0's rack, key {key}");
        }
        // Every Up node holds a copy already: drop in place.
        after.mark_dead(1).unwrap();
        assert_eq!(decommission_target(7, 3u32, &[0, 2, 3], &after), Ok(None));
        // The leaver holds the last readable copy and no node is free.
        after.drain(0).unwrap();
        after.drain(2).unwrap();
        let err = decommission_target(7, 3u32, &[1, 3], &after).unwrap_err();
        assert!(matches!(err, Error::InsufficientReplicaTargets { .. }));
    }

    #[test]
    fn factor_one_single_target() {
        let t = targets(PlacementPolicy::WriterLocal, 1, 1, &Membership::uniform(4));
        assert_eq!(t, vec![1]);
    }

    #[test]
    fn keys_separate_positions() {
        let seg = segment_key(5, "out/1", 0, 0);
        assert_ne!(seg, segment_key(5, "out/2", 0, 0));
        assert_ne!(seg, segment_key(5, "out/1", 1, 0));
        assert_ne!(seg, segment_key(5, "out/1", 0, 1));
        assert_ne!(seg, segment_key(6, "out/1", 0, 0));
        assert_ne!(block_key(seg, 0), block_key(seg, 1));
    }

    /// A membership of 1–12 nodes over 1–3 racks, each node up,
    /// draining or dead, and a block key, writer and policy.
    fn cluster() -> impl Strategy<Value = (Membership, u64, u32, PlacementPolicy)> {
        let draw = (
            1u32..=12,
            1u32..=3,
            prop::collection::vec(0u8..4, 12),
            any::<u64>(),
            0u32..12,
            any::<bool>(),
        );
        draw.prop_map(|(n, racks, statuses, key, writer, spread)| {
            let mut m = Membership::with_racks(n, racks);
            for (node, status) in (0..n).zip(statuses) {
                match status {
                    2 => m.drain(node).unwrap(),
                    3 => m.mark_dead(node).unwrap(),
                    _ => {}
                }
            }
            let policy = if spread {
                PlacementPolicy::Spread
            } else {
                PlacementPolicy::WriterLocal
            };
            (m, key, writer % n, policy)
        })
    }

    proptest! {
        #[test]
        fn targets_are_distinct_schedulable_and_new(
            (m, key, writer, policy) in cluster(),
            factor in 1u32..=5,
            picks in prop::collection::vec(any::<bool>(), 12),
        ) {
            let holders: Vec<u32> = m
                .readable()
                .into_iter()
                .filter(|&n| picks[n as usize])
                .collect();
            let t = replica_targets(key, policy, writer, factor, &holders, &m);
            let mut distinct = t.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(distinct.len(), t.len());
            prop_assert!(t.iter().all(|&n| m.is_schedulable(n) && !holders.contains(&n)));
            let candidates = m
                .schedulable()
                .into_iter()
                .filter(|n| !holders.contains(n))
                .count();
            let want = (factor as usize).saturating_sub(holders.len());
            prop_assert_eq!(t.len(), want.min(candidates));
        }

        #[test]
        fn a_lower_factor_places_a_prefix((m, key, writer, policy) in cluster(), factor in 1u32..=5) {
            let low = replica_targets(key, policy, writer, factor, &[], &m);
            let high = replica_targets(key, policy, writer, factor + 1, &[], &m);
            prop_assert_eq!(&high[..low.len()], &low[..]);
        }

        #[test]
        fn replicating_a_single_copy_gives_the_full_write(
            (m, key, writer, policy) in cluster(),
            factor in 1u32..=5,
        ) {
            let one = replica_targets(key, policy, writer, 1, &[], &m);
            let mut raised = one.clone();
            raised.extend(replica_targets(key, policy, writer, factor, &one, &m));
            prop_assert_eq!(raised, replica_targets(key, policy, writer, factor, &[], &m));
        }

        #[test]
        fn a_non_target_death_moves_nothing(
            (m, key, writer, policy) in cluster(),
            factor in 1u32..=5,
            victim in 0u32..12,
        ) {
            let before = replica_targets(key, policy, writer, factor, &[], &m);
            if victim >= m.len() as u32 || before.contains(&victim) {
                return Ok(());
            }
            let mut after = m.clone();
            let _ = after.mark_dead(victim);
            prop_assert_eq!(replica_targets(key, policy, writer, factor, &[], &after), before);
        }
    }
}
