//! Replica placement policies.

use rand::seq::SliceRandom;
use rand::Rng;
use rcmp_model::{Error, NodeId, Result};
use rcmp_policy::{rack_aware_order, Membership};
use serde::{Deserialize, Serialize};

/// How the first replica of a freshly written block is placed.
///
/// Remote replicas (replication factor > 1) always go to random distinct
/// live nodes, like HDFS's off-node copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// First replica on the writer node (HDFS default in collocated
    /// clusters — gives the data locality the paper discusses in §III-A).
    WriterLocal,
    /// First replica on a node chosen round-robin/randomly across the
    /// cluster. This is the paper's alternative hot-spot mitigation
    /// (§IV-B2): recomputed reducers "spread their output over many
    /// nodes" instead of writing locally.
    Spread,
}

/// Chooses the replica target nodes for one block.
///
/// Returns `factor` distinct live nodes. The writer is preferred for the
/// first replica under [`PlacementPolicy::WriterLocal`] (if alive).
/// Remote replicas follow HDFS's rack-aware preference over the racks
/// `membership` records: second replica off the writer's rack, third on
/// the second's rack (randomized within each preference class). On one
/// rack that is a uniform random pick.
pub fn place_block(
    policy: PlacementPolicy,
    writer: NodeId,
    factor: u32,
    live: &[NodeId],
    membership: &Membership,
    rng: &mut impl Rng,
) -> Result<Vec<NodeId>> {
    if live.is_empty() || (factor as usize) > live.len() {
        return Err(Error::InsufficientReplicaTargets {
            wanted: factor as usize,
            alive: live.len(),
        });
    }
    let mut targets = Vec::with_capacity(factor as usize);
    match policy {
        PlacementPolicy::WriterLocal if live.contains(&writer) => targets.push(writer),
        PlacementPolicy::WriterLocal | PlacementPolicy::Spread => {
            targets.push(*live.choose(rng).expect("non-empty"))
        }
    }
    // Remaining replicas: random distinct live nodes, rack-ordered.
    let mut rest: Vec<NodeId> = live.iter().copied().filter(|n| *n != targets[0]).collect();
    rest.shuffle(rng);
    let rest = rack_aware_order(membership, targets[0], rest);
    targets.extend(rest.into_iter().take(factor as usize - 1));
    debug_assert_eq!(targets.len(), factor as usize);
    Ok(targets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn nodes(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn writer_local_prefers_writer() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let t = place_block(
            PlacementPolicy::WriterLocal,
            NodeId(3),
            3,
            &nodes(10),
            &Membership::uniform(10),
            &mut rng,
        )
        .unwrap();
        assert_eq!(t[0], NodeId(3));
        assert_eq!(t.len(), 3);
        let mut d = t.clone();
        d.sort();
        d.dedup();
        assert_eq!(d.len(), 3, "replicas must be distinct");
    }

    #[test]
    fn writer_local_falls_back_when_writer_dead() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(2);
        let live: Vec<NodeId> = nodes(10).into_iter().filter(|n| n.raw() != 3).collect();
        let t = place_block(
            PlacementPolicy::WriterLocal,
            NodeId(3),
            2,
            &live,
            &Membership::uniform(10),
            &mut rng,
        )
        .unwrap();
        assert!(!t.contains(&NodeId(3)));
    }

    #[test]
    fn spread_uses_many_first_targets() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(3);
        let live = nodes(10);
        let m = Membership::uniform(10);
        let mut firsts = std::collections::HashSet::new();
        for _ in 0..100 {
            let t =
                place_block(PlacementPolicy::Spread, NodeId(0), 1, &live, &m, &mut rng).unwrap();
            firsts.insert(t[0]);
        }
        assert!(
            firsts.len() >= 5,
            "spread placement should hit many nodes, hit {}",
            firsts.len()
        );
    }

    #[test]
    fn insufficient_targets_errors() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(4);
        let err = place_block(
            PlacementPolicy::WriterLocal,
            NodeId(0),
            3,
            &nodes(2),
            &Membership::uniform(2),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(
            err,
            Error::InsufficientReplicaTargets {
                wanted: 3,
                alive: 2
            }
        ));
    }

    #[test]
    fn rack_aware_second_replica_leaves_writer_rack() {
        let m = Membership::with_racks(9, 3);
        let same_rack = |a: NodeId, b: NodeId| m.rack(a.raw()) == m.rack(b.raw());
        let mut rng = rand::rngs::SmallRng::seed_from_u64(6);
        for _ in 0..50 {
            let targets = place_block(
                PlacementPolicy::WriterLocal,
                NodeId(1),
                3,
                &nodes(9),
                &m,
                &mut rng,
            )
            .unwrap();
            assert_eq!(targets[0], NodeId(1));
            assert!(
                !same_rack(targets[0], targets[1]),
                "second replica must leave the writer's rack: {targets:?}"
            );
            assert!(
                same_rack(targets[1], targets[2]),
                "third replica shares the second's rack: {targets:?}"
            );
        }
    }

    #[test]
    fn factor_one_single_target() {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(5);
        let t = place_block(
            PlacementPolicy::WriterLocal,
            NodeId(1),
            1,
            &nodes(4),
            &Membership::uniform(4),
            &mut rng,
        )
        .unwrap();
        assert_eq!(t, vec![NodeId(1)]);
    }
}
