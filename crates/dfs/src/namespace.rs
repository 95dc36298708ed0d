//! File/partition/segment metadata.

use crate::block::{BlockInfo, BlockLocation};
use rcmp_model::{ByteSize, NodeId, PartitionId};
use serde::{Deserialize, Serialize};

/// One writer's contribution to a partition. An unsplit reducer writes
/// exactly one segment; a reducer split `k` ways during recomputation
/// writes `k` segments (one per split), which is how splitting spreads
/// a partition's bytes over many nodes (§IV-B2).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentMeta {
    /// Node that produced this segment (for provenance/debugging).
    pub writer: NodeId,
    /// Split index of the writer (`0` for an unsplit one). A partition
    /// keeps its segments in split order, whatever order the splits
    /// finished in.
    pub split: u32,
    pub blocks: Vec<BlockInfo>,
}

impl SegmentMeta {
    pub fn size(&self) -> ByteSize {
        self.blocks.iter().map(|b| b.size).sum()
    }
}

/// One reducer output partition of a file.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionMeta {
    pub id: PartitionId,
    pub segments: Vec<SegmentMeta>,
}

impl PartitionMeta {
    pub fn new(id: PartitionId) -> Self {
        Self {
            id,
            segments: Vec::new(),
        }
    }

    pub fn size(&self) -> ByteSize {
        self.segments.iter().map(SegmentMeta::size).sum()
    }

    /// All blocks of the partition in segment order.
    pub fn blocks(&self) -> impl Iterator<Item = &BlockInfo> {
        self.segments.iter().flat_map(|s| s.blocks.iter())
    }

    /// Locations of all blocks (for locality-aware scheduling).
    pub fn block_locations(&self) -> Vec<BlockLocation> {
        self.blocks().map(BlockLocation::from).collect()
    }

    /// True if any block of the partition has lost all its replicas —
    /// the partition can no longer be read and must be recomputed.
    pub fn is_lost(&self) -> bool {
        self.blocks().any(BlockInfo::is_lost)
    }

    /// True if the partition has been written (has at least one segment).
    pub fn is_written(&self) -> bool {
        !self.segments.is_empty()
    }
}

/// Metadata for one partitioned file.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FileMeta {
    pub name: String,
    /// Replication factor requested at creation.
    pub replication: u32,
    pub partitions: Vec<PartitionMeta>,
}

impl FileMeta {
    pub fn new(name: impl Into<String>, replication: u32, num_partitions: u32) -> Self {
        Self {
            name: name.into(),
            replication,
            partitions: (0..num_partitions)
                .map(|i| PartitionMeta::new(PartitionId(i)))
                .collect(),
        }
    }

    pub fn size(&self) -> ByteSize {
        self.partitions.iter().map(PartitionMeta::size).sum()
    }

    pub fn num_partitions(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// Partitions that are irreversibly lost.
    pub fn lost_partitions(&self) -> Vec<PartitionId> {
        self.partitions
            .iter()
            .filter(|p| p.is_lost())
            .map(|p| p.id)
            .collect()
    }

    /// True once every partition has been written.
    pub fn is_complete(&self) -> bool {
        self.partitions.iter().all(PartitionMeta::is_written)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_model::BlockId;

    fn block(id: u64, size: u64, replicas: &[u32]) -> BlockInfo {
        BlockInfo {
            id: BlockId(id),
            size: ByteSize::bytes(size),
            content_hash: 0,
            replicas: replicas.iter().map(|&n| NodeId(n)).collect(),
        }
    }

    #[test]
    fn file_partition_sizes() {
        let mut f = FileMeta::new("out/1", 1, 2);
        f.partitions[0].segments.push(SegmentMeta {
            writer: NodeId(0),
            split: 0,
            blocks: vec![block(1, 100, &[0]), block(2, 50, &[0])],
        });
        f.partitions[1].segments.push(SegmentMeta {
            writer: NodeId(1),
            split: 0,
            blocks: vec![block(3, 25, &[1])],
        });
        assert_eq!(f.partitions[0].size(), ByteSize::bytes(150));
        assert_eq!(f.size(), ByteSize::bytes(175));
        assert!(f.is_complete());
    }

    #[test]
    fn loss_detection_is_per_block() {
        let mut p = PartitionMeta::new(PartitionId(0));
        p.segments.push(SegmentMeta {
            writer: NodeId(0),
            split: 0,
            blocks: vec![block(1, 10, &[0, 1]), block(2, 10, &[0])],
        });
        assert!(!p.is_lost());
        // Kill node 0: block 2 loses its only replica.
        for s in &mut p.segments {
            for b in &mut s.blocks {
                b.drop_replica(NodeId(0));
            }
        }
        assert!(p.is_lost());
    }

    #[test]
    fn incomplete_file() {
        let f = FileMeta::new("out/2", 3, 4);
        assert!(!f.is_complete());
        assert_eq!(f.num_partitions(), 4);
        assert!(f.lost_partitions().is_empty());
    }
}
