//! §III-A: "current replication strategies protect … against single
//! rack-level failures" — but only with rack-aware placement. This test
//! kills an entire rack and shows rack-aware factor-2 placement
//! surviving where rack-oblivious placement can lose data.

use bytes::Bytes;
use rcmp_dfs::{Dfs, DfsConfig, PlacementPolicy};
use rcmp_model::{ByteSize, NodeId, PartitionId};
use rcmp_policy::Membership;

const NODES: u32 = 9;
const RACKS: u32 = 3;

fn write_everywhere(dfs: &Dfs, partitions: u32) {
    dfs.create_file("data", 2, partitions).unwrap();
    for p in 0..partitions {
        dfs.write_partition_segment(
            "data",
            PartitionId(p),
            Bytes::from(vec![p as u8; 300]),
            NodeId(p % NODES),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
    }
}

/// The racks of a `NODES`-node, `RACKS`-rack cluster, in contiguous
/// blocks — the layout `DfsConfig::with_racks` gives the DFS.
fn layout() -> Membership {
    Membership::with_racks(NODES, RACKS)
}

fn kill_rack(dfs: &Dfs, racks: &Membership, rack: u32) -> usize {
    let mut lost = 0;
    for node in (0..NODES).filter(|&n| racks.rack(n) == rack) {
        lost += dfs.fail_node(NodeId(node)).lost_partition_count();
    }
    lost
}

#[test]
fn rack_aware_factor2_survives_rack_failure() {
    let topo = layout();
    let dfs = Dfs::new(DfsConfig::new(NODES, ByteSize::bytes(128)).with_racks(RACKS));
    write_everywhere(&dfs, 27);
    for rack in 0..RACKS {
        // Fresh instance per rack so each kill starts from full health.
        let dfs = Dfs::new(DfsConfig::new(NODES, ByteSize::bytes(128)).with_racks(RACKS));
        write_everywhere(&dfs, 27);
        let lost = kill_rack(&dfs, &topo, rack);
        assert_eq!(
            lost, 0,
            "rack-aware placement must survive losing rack {rack}"
        );
        // Every partition still readable from the survivors.
        let reader = dfs.live_nodes()[0];
        for p in 0..27 {
            dfs.read_partition("data", PartitionId(p), reader).unwrap();
        }
    }
}

#[test]
fn rack_oblivious_factor2_can_lose_a_rack() {
    // On a flat DFS, the second replica lands uniformly at random;
    // with 27 partitions and 9 nodes in 3 racks, the chance that *no*
    // partition has both replicas in the victim rack is negligible.
    let topo = layout();
    let mut any_loss = false;
    for rack in 0..RACKS {
        let dfs = Dfs::new(DfsConfig::new(NODES, ByteSize::bytes(128)));
        write_everywhere(&dfs, 27);
        if kill_rack(&dfs, &topo, rack) > 0 {
            any_loss = true;
        }
    }
    assert!(
        any_loss,
        "rack-oblivious placement should lose data in some rack failure"
    );
}

#[test]
fn rack_aware_triple_replication_spreads_two_racks_minimum() {
    let dfs = Dfs::new(DfsConfig::new(NODES, ByteSize::bytes(128)).with_racks(RACKS));
    let topo = dfs.membership();
    dfs.create_file("f", 3, 1).unwrap();
    dfs.write_partition_segment(
        "f",
        PartitionId(0),
        Bytes::from(vec![7u8; 500]),
        NodeId(4),
        PlacementPolicy::WriterLocal,
    )
    .unwrap();
    let meta = dfs.file_meta("f").unwrap();
    for b in meta.partitions[0].blocks() {
        let racks: std::collections::HashSet<u32> =
            b.replicas.iter().map(|&n| topo.rack(n.raw())).collect();
        assert!(
            racks.len() >= 2,
            "3 replicas must span at least 2 racks: {:?}",
            b.replicas
        );
    }
}

#[test]
fn joined_node_places_second_replica_off_its_own_rack() {
    // Racks {0, 1} and {2, 3}; node 4 joins rack 0.
    let dfs = Dfs::new(DfsConfig::new(4, ByteSize::bytes(128)).with_racks(2));
    let joined = dfs.join_node(1, 0);
    let racks = dfs.membership();
    assert_eq!(racks.rack(joined.raw()), 0);
    dfs.create_file("f", 2, 20).unwrap();
    for p in 0..20 {
        dfs.write_partition_segment(
            "f",
            PartitionId(p),
            Bytes::from(vec![p as u8; 100]),
            joined,
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
    }
    let meta = dfs.file_meta("f").unwrap();
    for b in meta.partitions.iter().flat_map(|p| p.blocks()) {
        assert_eq!(b.replicas[0], joined);
        assert_eq!(
            racks.rack(b.replicas[1].raw()),
            1,
            "second replica must leave the writer's rack: {:?}",
            b.replicas
        );
    }
}
