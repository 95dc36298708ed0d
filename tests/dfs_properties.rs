//! Property-based testing of the DFS substrate: arbitrary operation
//! sequences must preserve the system invariants.

use bytes::Bytes;
use proptest::prelude::*;
use rcmp::dfs::{Dfs, DfsConfig, PlacementPolicy};
use rcmp::model::{ByteSize, NodeId, PartitionId};

const NODES: u32 = 6;

#[derive(Clone, Debug)]
enum Op {
    Write {
        pid: u8,
        bytes: u16,
        writer: u8,
        spread: bool,
    },
    Clear {
        pid: u8,
    },
    Fail {
        node: u8,
    },
    Replicate {
        factor: u8,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 1u16..600, 0u8..NODES as u8, any::<bool>()).prop_map(
            |(pid, bytes, writer, spread)| Op::Write {
                pid,
                bytes,
                writer,
                spread,
            }
        ),
        (0u8..4).prop_map(|pid| Op::Clear { pid }),
        (0u8..NODES as u8).prop_map(|node| Op::Fail { node }),
        (1u8..4).prop_map(|factor| Op::Replicate { factor }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    /// Invariants after any op sequence:
    /// 1. metadata and stores agree on byte totals (no leaks);
    /// 2. a partition not reported lost is readable and round-trips;
    /// 3. replicas are always distinct live-or-dead nodes;
    /// 4. failing every node loses every written non-empty partition.
    #[test]
    fn random_op_sequences_preserve_invariants(ops in prop::collection::vec(op_strategy(), 1..40)) {
        let dfs = Dfs::new(DfsConfig::new(NODES, ByteSize::bytes(128)));
        dfs.create_file("f", 1, 4).unwrap();
        let mut expected: Vec<Option<Vec<u8>>> = vec![None; 4];

        for op in &ops {
            match *op {
                Op::Write { pid, bytes, writer, spread } => {
                    let writer = NodeId(writer as u32);
                    if !dfs.is_alive(writer) {
                        continue;
                    }
                    let payload = vec![pid ^ 0x5a; bytes as usize];
                    let policy = if spread {
                        PlacementPolicy::Spread
                    } else {
                        PlacementPolicy::WriterLocal
                    };
                    // A prior Replicate may have raised the file's
                    // factor above the live-node count; a write by a
                    // live writer still goes ahead, down to HDFS's
                    // minimum of one copy.
                    match dfs.write_partition_segment(
                        "f",
                        PartitionId(pid as u32),
                        Bytes::from(payload.clone()),
                        writer,
                        policy,
                    ) {
                        Ok(()) => match &mut expected[pid as usize] {
                            Some(v) => v.extend_from_slice(&payload),
                            none => *none = Some(payload),
                        },
                        Err(e) => return Err(TestCaseError::fail(format!("write: {e}"))),
                    }
                }
                Op::Clear { pid } => {
                    dfs.clear_partition("f", PartitionId(pid as u32)).unwrap();
                    expected[pid as usize] = None;
                }
                Op::Fail { node } => {
                    let _ = dfs.fail_node(NodeId(node as u32));
                }
                Op::Replicate { factor } => {
                    // May legitimately fail (a block with no readable copy).
                    let _ = dfs.replicate_file("f", factor as u32);
                }
            }
        }

        let meta = dfs.file_meta("f").unwrap();
        // Invariant 3: distinct replicas per block.
        for p in &meta.partitions {
            for b in p.blocks() {
                let mut r = b.replicas.clone();
                r.sort();
                r.dedup();
                prop_assert_eq!(r.len(), b.replicas.len(), "duplicate replicas");
                for &n in &r {
                    prop_assert!(dfs.is_alive(n), "metadata lists a dead replica");
                }
            }
        }
        // Invariant 2: non-lost written partitions round-trip.
        let reader = dfs.live_nodes().first().copied();
        if let Some(reader) = reader {
            for p in &meta.partitions {
                if p.is_written() && !p.is_lost() {
                    let data = dfs.read_partition("f", p.id, reader).unwrap();
                    let want = expected[p.id.index()].clone().unwrap_or_default();
                    prop_assert_eq!(data.as_ref(), &want[..], "partition {} content", p.id);
                }
            }
        }
        // Invariant 1: bytes stored = Σ block sizes × live replica count.
        let meta_bytes: u64 = meta
            .partitions
            .iter()
            .flat_map(|p| p.blocks())
            .map(|b| b.size.as_u64() * b.replicas.len() as u64)
            .sum();
        prop_assert_eq!(dfs.total_used().as_u64(), meta_bytes, "storage leak");
    }

    /// Failing all nodes loses everything written (and the report says so).
    #[test]
    fn total_cluster_loss_is_total(parts in prop::collection::vec(1u16..300, 1..4)) {
        let dfs = Dfs::new(DfsConfig::new(3, ByteSize::bytes(64)));
        dfs.create_file("f", 1, parts.len() as u32).unwrap();
        for (i, bytes) in parts.iter().enumerate() {
            dfs.write_partition_segment(
                "f",
                PartitionId(i as u32),
                Bytes::from(vec![1u8; *bytes as usize]),
                NodeId(i as u32 % 3),
                PlacementPolicy::WriterLocal,
            )
            .unwrap();
        }
        let mut all_lost = std::collections::BTreeSet::new();
        for n in 0..3 {
            let report = dfs.fail_node(NodeId(n));
            all_lost.extend(report.lost_in("f").iter().copied());
        }
        prop_assert_eq!(all_lost.len(), parts.len(), "every partition reported lost");
        prop_assert_eq!(dfs.total_used(), ByteSize::ZERO);
    }
}
