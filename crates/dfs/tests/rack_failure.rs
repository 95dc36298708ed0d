//! §III-A: "current replication strategies protect … against single
//! rack-level failures" — but only with rack-aware placement. This test
//! kills an entire rack and shows rack-aware factor-2 placement
//! surviving where rack-oblivious placement can lose data.

use bytes::Bytes;
use rcmp_dfs::{Dfs, DfsConfig, PlacementPolicy};
use rcmp_model::{ByteSize, NodeId, PartitionId};
use rcmp_policy::RackTopology;

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

fn kill_rack(dfs: &Dfs, topo: &RackTopology, rack: u32) -> usize {
    let mut lost = 0;
    for node in topo.rack_members(rack) {
        lost += dfs.fail_node(node).lost_partition_count();
    }
    lost
}

#[test]
fn rack_aware_factor2_survives_rack_failure() {
    let topo = RackTopology::new(NODES, RACKS);
    let dfs = Dfs::new(DfsConfig::new(NODES, ByteSize::bytes(128)).with_topology(topo));
    write_everywhere(&dfs, 27);
    for rack in 0..RACKS {
        // Fresh instance per rack so each kill starts from full health.
        let dfs = Dfs::new(DfsConfig::new(NODES, ByteSize::bytes(128)).with_topology(topo));
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
    // Without a topology, the second replica lands uniformly at random;
    // with 27 partitions and 9 nodes in 3 racks, the chance that *no*
    // partition has both replicas in the victim rack is negligible.
    let topo = RackTopology::new(NODES, RACKS);
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
    let topo = RackTopology::new(NODES, RACKS);
    let dfs = Dfs::new(DfsConfig::new(NODES, ByteSize::bytes(128)).with_topology(topo));
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
            b.replicas.iter().map(|&n| topo.rack_of(n)).collect();
        assert!(
            racks.len() >= 2,
            "3 replicas must span at least 2 racks: {:?}",
            b.replicas
        );
    }
}
