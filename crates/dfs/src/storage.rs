//! Per-node block stores with access accounting.
//!
//! A node's "disk" is an in-memory map from block id to bytes, sharded
//! by block-id hash so concurrent readers and writers of *different*
//! blocks do not serialize on one lock (reducer fan-in at DCO scale
//! hammers every store from hundreds of tasks at once). Besides holding
//! data, each store counts concurrent readers and total bytes served —
//! that is how the real engine *observes* the hot-spot effect of
//! §IV-B2 (many recomputed mappers converging on the one node that
//! recomputed their input reducer) without needing wall-clock timing.
//! The access counters are store-level atomics, so their values are
//! exact and independent of the shard count.

use bytes::Bytes;
use parking_lot::RwLock;
use rcmp_model::partition::mix64;
use rcmp_model::{BlockId, ByteSize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of one node's access counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeAccessStats {
    /// Bytes ever read from this node's store (local + remote readers).
    pub bytes_read: u64,
    /// Bytes ever written to this node's store.
    pub bytes_written: u64,
    /// Number of read operations served.
    pub reads: u64,
    /// Highest number of overlapping read operations observed.
    pub max_concurrent_reads: u64,
}

/// One node's block store.
pub(crate) struct NodeStore {
    /// Payload shards, keyed by [`mix64`] of the block id. Readers take
    /// a shard read-lock (concurrent reads of one shard proceed in
    /// parallel); writers take the shard write-lock.
    shards: Vec<RwLock<HashMap<BlockId, Bytes>>>,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    reads: AtomicU64,
    current_reads: AtomicU64,
    max_concurrent_reads: AtomicU64,
}

impl NodeStore {
    /// Default shard count, matching `ShuffleConfig::default`.
    pub(crate) const DEFAULT_SHARDS: u32 = 8;

    /// A store with `shards` payload shards (`0` is clamped to 1 — the
    /// single-lock legacy layout).
    pub(crate) fn with_shards(shards: u32) -> Self {
        let shards = shards.max(1) as usize;
        Self {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            current_reads: AtomicU64::new(0),
            max_concurrent_reads: AtomicU64::new(0),
        }
    }

    fn shard(&self, id: BlockId) -> &RwLock<HashMap<BlockId, Bytes>> {
        &self.shards[(mix64(id.raw()) as usize) % self.shards.len()]
    }

    pub(crate) fn put(&self, id: BlockId, data: Bytes) {
        self.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        self.shard(id).write().insert(id, data);
    }

    /// Reads a block, updating concurrency accounting.
    pub(crate) fn get(&self, id: BlockId) -> Option<Bytes> {
        let in_flight = self.current_reads.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_concurrent_reads
            .fetch_max(in_flight, Ordering::SeqCst);
        self.reads.fetch_add(1, Ordering::Relaxed);
        // Fetch the bytes while counted as in-flight.
        let data = self.shard(id).read().get(&id).cloned();
        if let Some(d) = &data {
            self.bytes_read.fetch_add(d.len() as u64, Ordering::Relaxed);
        }
        self.current_reads.fetch_sub(1, Ordering::SeqCst);
        data
    }

    pub(crate) fn remove(&self, id: BlockId) -> Option<Bytes> {
        self.shard(id).write().remove(&id)
    }

    /// Flips bits in a stored block's payload (fault injection: silent
    /// on-disk corruption). The namespace checksum is untouched, so the
    /// next verified read of this replica fails. Returns false when the
    /// block is absent or empty (nothing to corrupt).
    pub(crate) fn corrupt(&self, id: BlockId) -> bool {
        let mut blocks = self.shard(id).write();
        match blocks.get(&id) {
            Some(data) if !data.is_empty() => {
                let mut flipped = data.to_vec();
                flipped[0] ^= 0xff;
                blocks.insert(id, Bytes::from(flipped));
                true
            }
            _ => false,
        }
    }

    /// Ids of the blocks currently stored, in ascending order (used to
    /// pick a deterministic corruption victim).
    pub(crate) fn block_ids(&self) -> Vec<BlockId> {
        let mut ids: Vec<BlockId> = self
            .shards
            .iter()
            .flat_map(|s| s.read().keys().copied().collect::<Vec<_>>())
            .collect();
        ids.sort();
        ids
    }

    /// Drops every block (node death).
    pub(crate) fn wipe(&self) {
        for s in &self.shards {
            s.write().clear();
        }
    }

    pub(crate) fn used(&self) -> ByteSize {
        ByteSize::bytes(
            self.shards
                .iter()
                .map(|s| s.read().values().map(|b| b.len() as u64).sum::<u64>())
                .sum(),
        )
    }

    pub(crate) fn stats(&self) -> NodeAccessStats {
        NodeAccessStats {
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
            reads: self.reads.load(Ordering::Relaxed),
            max_concurrent_reads: self.max_concurrent_reads.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl NodeStore {
        /// Block replicas held (the DFS tests count orphans with it).
        pub(crate) fn block_count(&self) -> usize {
            self.shards.iter().map(|s| s.read().len()).sum()
        }
    }

    #[test]
    fn put_get_remove() {
        let s = NodeStore::with_shards(NodeStore::DEFAULT_SHARDS);
        s.put(BlockId(1), Bytes::from_static(b"hello"));
        assert_eq!(s.get(BlockId(1)).unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(s.used(), ByteSize::bytes(5));
        assert_eq!(s.block_count(), 1);
        assert!(s.remove(BlockId(1)).is_some());
        assert!(s.get(BlockId(1)).is_none());
    }

    #[test]
    fn wipe_clears_everything() {
        let s = NodeStore::with_shards(NodeStore::DEFAULT_SHARDS);
        for i in 0..10 {
            s.put(BlockId(i), Bytes::from(vec![0u8; 16]));
        }
        s.wipe();
        assert_eq!(s.block_count(), 0);
        assert_eq!(s.used(), ByteSize::ZERO);
    }

    #[test]
    fn stats_account_io() {
        let s = NodeStore::with_shards(NodeStore::DEFAULT_SHARDS);
        s.put(BlockId(1), Bytes::from(vec![1u8; 100]));
        s.get(BlockId(1));
        s.get(BlockId(1));
        let st = s.stats();
        assert_eq!(st.bytes_written, 100);
        assert_eq!(st.bytes_read, 200);
        assert_eq!(st.reads, 2);
        assert!(st.max_concurrent_reads >= 1);
    }

    #[test]
    fn sharded_and_single_lock_stores_agree() {
        // Identical operation sequences against the legacy single-lock
        // layout and the sharded layout must produce identical contents
        // and identical (exact) access stats.
        let single = NodeStore::with_shards(1);
        let sharded = NodeStore::with_shards(8);
        for s in [&single, &sharded] {
            for i in 0..64u64 {
                s.put(BlockId(i), Bytes::from(vec![i as u8; (i as usize % 7) + 1]));
            }
            for i in (0..64u64).step_by(3) {
                s.get(BlockId(i));
            }
            for i in (0..64u64).step_by(5) {
                s.remove(BlockId(i));
            }
            assert!(s.corrupt(BlockId(1)));
        }
        assert_eq!(single.stats(), sharded.stats());
        assert_eq!(single.used(), sharded.used());
        assert_eq!(single.block_count(), sharded.block_count());
        let ids = single.block_ids();
        assert_eq!(ids, sharded.block_ids());
        for id in ids {
            assert_eq!(single.get(id), sharded.get(id));
        }
    }
}
