//! The DFS master: namespace + per-node stores + failure handling.

use crate::block::{BlockInfo, BlockLocation};
use crate::chain_cache::ChainCache;
use crate::namespace::{FileMeta, PartitionMeta, SegmentMeta};
use crate::report::{LossReport, RebalanceReport};
use crate::storage::{NodeAccessStats, NodeStore};
use bytes::{Bytes, BytesMut};
use parking_lot::RwLock;
use rcmp_model::{BlockId, ByteSize, Error, NodeId, PartitionId, Result};
use rcmp_obs::{
    EventCode, FlightRecorder, Histogram, MetricsRegistry, PhaseKind, PhaseProfiler, SpanKind,
    Tracer,
};
use rcmp_policy::{
    block_key, decommission_target, replica_targets, segment_key, Membership, PlacementPolicy,
    MIN_REPLICAS,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Configuration of the DFS substrate.
#[derive(Clone, Debug)]
pub struct DfsConfig {
    /// Number of storage nodes (collocated with compute).
    pub nodes: u32,
    /// Block size; writes are chunked to this size.
    pub block_size: ByteSize,
    /// Seed of the replica-target keys and the remote-read pick.
    pub seed: u64,
    /// Racks the initial nodes are spread over, in contiguous blocks
    /// ([`Membership::with_racks`]); `1` is a flat cluster. Remote
    /// replicas are placed rack-aware (HDFS-style), protecting against
    /// single rack failures (§III-A).
    pub racks: u32,
    /// Lock shards per node store. `1` is the legacy single-lock
    /// layout; `0` is clamped to 1. Access accounting is shard-count
    /// independent.
    pub store_shards: u32,
}

impl DfsConfig {
    pub fn new(nodes: u32, block_size: ByteSize) -> Self {
        Self {
            nodes,
            block_size,
            seed: 0xd5f5,
            racks: 1,
            store_shards: NodeStore::DEFAULT_SHARDS,
        }
    }

    /// Spreads the initial nodes over `racks` racks (rack-aware
    /// remote-replica placement).
    pub fn with_racks(mut self, racks: u32) -> Self {
        self.racks = racks;
        self
    }
}

/// Pre-resolved production-telemetry handles for DFS I/O, attached via
/// [`Dfs::with_obs`]. Resolved once so reads and writes never take the
/// registry lock.
struct DfsObs {
    /// Verified block-read latency, microseconds.
    read_us: Histogram,
    /// Partition-write latency (all chunks, all replicas), microseconds.
    write_us: Histogram,
    profiler: Arc<PhaseProfiler>,
    recorder: Arc<FlightRecorder>,
}

/// Microsecond latency buckets for DFS I/O histograms: 50 µs … 100 ms.
const IO_US_BOUNDS: [u64; 11] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000,
];

/// The DFS's member nodes: the cluster's one membership record (each
/// node's status, capacity and rack, and the epoch) and the nodes'
/// block stores, indexed alike. Indices are dense and stable — a node
/// keeps its `NodeId` for the lifetime of the cluster — and a join
/// appends to both at once.
struct Members {
    membership: Membership,
    stores: Vec<Arc<NodeStore>>,
}

/// One block of a validated copy plan: where verified bytes may come
/// from and which nodes receive a new replica.
struct BlockCopy {
    id: BlockId,
    content_hash: u64,
    sources: Vec<NodeId>,
    targets: Vec<NodeId>,
}

/// The distributed file system.
///
/// Thread-safe: the engine's node executors read and write concurrently.
/// The namespace lock is never held while block payloads are copied.
///
/// The DFS owns the cluster's one `rcmp_policy::Membership` record,
/// and every membership transition goes through it
/// ([`Dfs::membership`] hands out snapshots). **Readable** nodes (Up
/// or Draining) serve reads and appear in [`Dfs::live_nodes`];
/// **schedulable** nodes (Up only) receive new replicas and appear in
/// [`Dfs::placement_targets`]. A draining node therefore stops
/// accumulating data immediately while everything it already holds
/// stays reachable — the graceful counterpart to [`Dfs::fail_node`].
///
/// Lock order: a nested read takes the namespace lock before the
/// member lock, and the namespace lock is never taken while the member
/// lock is held for writing.
pub struct Dfs {
    cfg: DfsConfig,
    namespace: RwLock<HashMap<String, FileMeta>>,
    members: RwLock<Members>,
    next_block: AtomicU64,
    tracer: Arc<Tracer>,
    obs: Option<DfsObs>,
    chain_cache: Option<Arc<ChainCache>>,
}

impl Dfs {
    pub fn new(cfg: DfsConfig) -> Self {
        Self::new_traced(cfg, Arc::new(Tracer::new()))
    }

    /// Like [`Dfs::new`] but recording block-level spans (reads, writes,
    /// checksum demotions) into a shared tracer — the engine passes its
    /// cluster-wide tracer here so DFS activity lands in the same trace
    /// as job/wave/task spans.
    pub fn new_traced(cfg: DfsConfig, tracer: Arc<Tracer>) -> Self {
        assert!(cfg.nodes > 0, "DFS needs at least one node");
        assert!(!cfg.block_size.is_zero(), "block size must be positive");
        let members = Members {
            membership: Membership::with_racks(cfg.nodes, cfg.racks),
            stores: (0..cfg.nodes)
                .map(|_| Arc::new(NodeStore::with_shards(cfg.store_shards)))
                .collect(),
        };
        Self {
            cfg,
            namespace: RwLock::new(HashMap::new()),
            members: RwLock::new(members),
            next_block: AtomicU64::new(1),
            tracer,
            obs: None,
            chain_cache: None,
        }
    }

    /// Attaches the inter-job [`ChainCache`]. The DFS owns invalidation:
    /// node death/drain/decommission, partition clears, file deletes and
    /// injected corruption all drop the covering cache entries, so a
    /// cached read can never outlive the persisted state it mirrors.
    pub fn with_chain_cache(mut self, cache: Arc<ChainCache>) -> Self {
        self.chain_cache = Some(cache);
        self
    }

    /// The attached inter-job cache, if any.
    pub fn chain_cache(&self) -> Option<&Arc<ChainCache>> {
        self.chain_cache.as_ref()
    }

    /// Attaches the production telemetry tier: `dfs.read_us` /
    /// `dfs.write_us` latency histograms resolved against `registry`,
    /// [`PhaseKind::DfsRead`]/[`PhaseKind::DfsWrite`]/
    /// [`PhaseKind::BlockVerify`] time on `profiler`, and
    /// checksum-failure events on `recorder`.
    pub fn with_obs(
        mut self,
        registry: &MetricsRegistry,
        profiler: Arc<PhaseProfiler>,
        recorder: Arc<FlightRecorder>,
    ) -> Self {
        self.obs = Some(DfsObs {
            read_us: registry.histogram("dfs.read_us", &IO_US_BOUNDS),
            write_us: registry.histogram("dfs.write_us", &IO_US_BOUNDS),
            profiler,
            recorder,
        });
        self
    }

    pub fn config(&self) -> &DfsConfig {
        &self.cfg
    }

    /// The tracer block-level spans are recorded into.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// A snapshot of the membership record: every node's status,
    /// capacity and rack, and the epoch.
    pub fn membership(&self) -> Membership {
        self.members.read().membership.clone()
    }

    /// Nodes whose data is currently reachable (Up or Draining),
    /// ascending.
    pub fn live_nodes(&self) -> Vec<NodeId> {
        node_ids(self.members.read().membership.readable())
    }

    /// Nodes new replicas may land on (Up only), ascending. A draining
    /// node still serves its data but stops accumulating more.
    pub fn placement_targets(&self) -> Vec<NodeId> {
        node_ids(self.members.read().membership.schedulable())
    }

    /// May data on `node` still be read (Up or Draining)?
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.members.read().membership.is_readable(node.raw())
    }

    fn store(&self, node: NodeId) -> Option<Arc<NodeStore>> {
        self.members.read().stores.get(node.index()).cloned()
    }

    // ----------------------------------------------------------- membership

    /// Adds a fresh, empty node of `capacity` in `rack` and returns its
    /// id. Joined nodes start Up: immediately schedulable as placement
    /// targets.
    pub fn join_node(&self, capacity: u32, rack: u32) -> NodeId {
        let mut members = self.members.write();
        let store = NodeStore::with_shards(self.cfg.store_shards);
        members.stores.push(Arc::new(store));
        NodeId(members.membership.join(capacity, rack))
    }

    /// Starts draining `node` (Up → Draining): its data stays readable
    /// but no new replicas land on it. In-flight writers that name it as
    /// their local node keep working — their blocks are simply placed on
    /// the remaining Up nodes.
    pub fn drain_node(&self, node: NodeId) -> Result<()> {
        self.members.write().membership.drain(node.raw())?;
        // A draining node's DFS data stays readable, but its in-memory
        // cached partitions stop being scheduling targets: conservative
        // invalidation keeps stable placement off departing nodes.
        if let Some(cache) = &self.chain_cache {
            cache.invalidate_node(node);
        }
        Ok(())
    }

    /// Brings a drained or decommissioned node back into service
    /// (→ Up). A decommissioned node rejoins empty, like a fresh join
    /// that kept its id.
    pub fn rejoin_node(&self, node: NodeId) -> Result<()> {
        self.members.write().membership.rejoin(node.raw())
    }

    /// Gracefully removes `node`: every block replica it holds is first
    /// copied to the node [`decommission_target`] names for the block
    /// (incremental rebalance preserving the persisted-output lineage —
    /// content hashes never change), then the node leaves the
    /// membership Decommissioned and its store is wiped.
    ///
    /// Plan-then-commit like [`Dfs::replicate_file`]: targets for every
    /// block are validated before any byte is copied, so an
    /// impossible rebalance (a block left with fewer than
    /// [`MIN_REPLICAS`] readable copies and no Up node to take one)
    /// fails the whole call with namespace and stores unchanged; a copy
    /// that fails mid-way (every source of some block corrupt) removes
    /// the copies already placed. A replica the rule finds no target
    /// for is dropped rather than moved (the block stays readable,
    /// merely less replicated) and counted in the report.
    pub fn decommission_node(&self, node: NodeId) -> Result<RebalanceReport> {
        // The membership as it will stand: the leaving node neither
        // holds a readable copy nor takes a new one.
        let mut after = self.membership();
        after.decommission(node.raw())?;

        // Phase 1: plan.
        let mut plan: Vec<BlockCopy> = Vec::new();
        let mut dropped = 0usize;
        {
            let ns = self.namespace.read();
            for (path, meta) in ns.iter() {
                for p in &meta.partitions {
                    for s in &p.segments {
                        let segment = segment_key(self.cfg.seed, path, p.id.raw(), s.split);
                        for (index, b) in (0u32..).zip(&s.blocks) {
                            if !b.replicas.contains(&node) {
                                continue;
                            }
                            let key = block_key(segment, index);
                            match decommission_target(key, node, &b.replicas, &after)? {
                                Some(target) => plan.push(BlockCopy {
                                    id: b.id,
                                    content_hash: b.content_hash,
                                    sources: self.readable_of(&b.replicas),
                                    targets: vec![target],
                                }),
                                None => dropped += 1,
                            }
                        }
                    }
                }
            }
        }

        // Phase 2: copy payloads per the validated plan.
        let bytes_moved = self.copy_blocks(&plan, |id| format!("block {id}"))?;
        let report = RebalanceReport {
            node: Some(node),
            blocks_moved: plan.len(),
            bytes_moved,
            blocks_dropped: dropped,
        };

        // Phase 3: commit — new holders into the namespace, the leaving
        // node out of every replica set, the membership transition,
        // store wiped.
        {
            let mut by_block: HashMap<BlockId, NodeId> =
                plan.iter().map(|c| (c.id, c.targets[0])).collect();
            let mut ns = self.namespace.write();
            for meta in ns.values_mut() {
                for p in &mut meta.partitions {
                    for s in &mut p.segments {
                        for b in &mut s.blocks {
                            if let Some(t) = by_block.remove(&b.id) {
                                b.replicas.push(t);
                            }
                            b.drop_replica(node);
                        }
                    }
                }
            }
        }
        let store = {
            let mut members = self.members.write();
            members.membership.decommission(node.raw())?;
            Arc::clone(&members.stores[node.index()])
        };
        store.wipe();
        if let Some(cache) = &self.chain_cache {
            cache.invalidate_node(node);
        }
        self.tracer.instant(
            SpanKind::Event {
                seq: 0,
                label: format!(
                    "dfs.decommission moved={} bytes={} dropped={}",
                    report.blocks_moved, report.bytes_moved, report.blocks_dropped
                ),
            },
            None,
            None,
            Some(node),
        );
        Ok(report)
    }

    // ---------------------------------------------------------------- files

    /// Creates an empty partitioned file.
    pub fn create_file(&self, path: &str, replication: u32, num_partitions: u32) -> Result<()> {
        if replication == 0 {
            return Err(Error::Config("replication factor must be >= 1".into()));
        }
        let mut ns = self.namespace.write();
        if ns.contains_key(path) {
            return Err(Error::FileExists(path.to_string()));
        }
        ns.insert(
            path.to_string(),
            FileMeta::new(path, replication, num_partitions),
        );
        Ok(())
    }

    pub fn file_exists(&self, path: &str) -> bool {
        self.namespace.read().contains_key(path)
    }

    /// A snapshot of the file's metadata.
    pub fn file_meta(&self, path: &str) -> Result<FileMeta> {
        self.namespace
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| Error::FileNotFound(path.to_string()))
    }

    /// Deletes a file and frees its blocks from every store.
    pub fn delete_file(&self, path: &str) -> Result<()> {
        let meta = {
            let mut ns = self.namespace.write();
            ns.remove(path)
                .ok_or_else(|| Error::FileNotFound(path.to_string()))?
        };
        for p in &meta.partitions {
            self.free_blocks(p);
        }
        if let Some(cache) = &self.chain_cache {
            cache.invalidate_file(path);
        }
        Ok(())
    }

    fn free_blocks(&self, p: &PartitionMeta) {
        for b in p.blocks() {
            for &n in &b.replicas {
                if let Some(store) = self.store(n) {
                    store.remove(b.id);
                }
            }
        }
    }

    // ----------------------------------------------------------- partitions

    /// Appends one writer's segment to a partition, chunked into blocks
    /// at `block_size` boundaries and replicated per the file's
    /// replication factor.
    ///
    /// An unsplit reducer calls this once; `k` splits of a reducer call
    /// it once each, which distributes the partition over their nodes.
    ///
    /// Note: chunking here is byte-oriented. Writers whose data is a
    /// record stream that downstream mappers will read block-by-block
    /// must use [`Dfs::write_partition_chunks`] with record-aligned
    /// chunks instead, or records would straddle block boundaries.
    pub fn write_partition_segment(
        &self,
        path: &str,
        pid: PartitionId,
        data: Bytes,
        writer: NodeId,
        policy: PlacementPolicy,
    ) -> Result<()> {
        let bs = self.cfg.block_size.as_u64() as usize;
        let mut chunks = Vec::new();
        let mut off = 0usize;
        while off < data.len() {
            let end = (off + bs).min(data.len());
            chunks.push(data.slice(off..end));
            off = end;
        }
        self.write_partition_chunks(path, pid, chunks, writer, policy)
    }

    /// Appends one writer's segment whose blocks are exactly the given
    /// chunks (callers guarantee record alignment; chunks may be smaller
    /// than the block size but must not be larger). The unsplit case of
    /// [`Dfs::write_split_chunks`].
    pub fn write_partition_chunks(
        &self,
        path: &str,
        pid: PartitionId,
        chunks: Vec<Bytes>,
        writer: NodeId,
        policy: PlacementPolicy,
    ) -> Result<()> {
        self.write_split_chunks(path, pid, 0, chunks, writer, policy)
    }

    /// [`Dfs::write_partition_chunks`] for split `split` of a reducer:
    /// the segment goes after every segment of a lower or equal split,
    /// so the partition's block order (the next job's mapper numbering)
    /// does not depend on which split finished first.
    pub fn write_split_chunks(
        &self,
        path: &str,
        pid: PartitionId,
        split: u32,
        chunks: Vec<Bytes>,
        writer: NodeId,
        policy: PlacementPolicy,
    ) -> Result<()> {
        if !self.is_alive(writer) {
            return Err(Error::NodeUnavailable(writer));
        }
        let bs = self.cfg.block_size.as_u64() as usize;
        if let Some(oversize) = chunks.iter().find(|c| c.len() > bs) {
            return Err(Error::Config(format!(
                "chunk of {} bytes exceeds block size {}",
                oversize.len(),
                self.cfg.block_size
            )));
        }
        let replication = {
            let ns = self.namespace.read();
            let meta = ns
                .get(path)
                .ok_or_else(|| Error::FileNotFound(path.to_string()))?;
            if pid.index() >= meta.partitions.len() {
                return Err(Error::Config(format!(
                    "partition {pid} out of range for {path} ({} partitions)",
                    meta.partitions.len()
                )));
            }
            meta.replication
        };

        // Place blocks without holding the namespace lock (payload
        // copies happen here). Only schedulable (Up) nodes are placement
        // targets: a draining writer can finish its in-flight work, but
        // its output lands on nodes that are staying. One membership
        // snapshot serves every chunk: its schedulable nodes and its
        // racks. Each chunk's targets are a function of its position
        // (path, partition, split, index in this call), so concurrent
        // writers place the same copies in any order. With fewer Up
        // nodes than the factor a chunk gets a copy on each, as HDFS's
        // pipeline writes down to its minimum; below the minimum the
        // write fails up front, before any chunk lands in a store.
        let membership = self.membership();
        let alive = membership.schedulable().len();
        if alive < MIN_REPLICAS {
            return Err(Error::InsufficientReplicaTargets {
                wanted: MIN_REPLICAS,
                alive,
            });
        }
        let segment = segment_key(self.cfg.seed, path, pid.raw(), split);
        let open = self.tracer.open();
        let mut payload_bytes = 0u64;
        let mut blocks = Vec::with_capacity(chunks.len());
        for (index, chunk) in (0u32..).zip(chunks) {
            payload_bytes += chunk.len() as u64;
            let id = BlockId(self.next_block.fetch_add(1, Ordering::Relaxed));
            let key = block_key(segment, index);
            let targets = replica_targets(key, policy, writer, replication, &[], &membership);
            let content_hash = rcmp_model::hash::hash_bytes(&chunk);
            for &t in &targets {
                if let Some(store) = self.store(t) {
                    store.put(id, chunk.clone());
                }
            }
            blocks.push(BlockInfo {
                id,
                size: ByteSize::bytes(chunk.len() as u64),
                content_hash,
                replicas: targets,
            });
        }

        self.tracer.close(
            open,
            SpanKind::BlockWrite {
                bytes: payload_bytes,
                blocks: blocks.len() as u32,
                replicas: replication,
            },
            None,
            None,
            Some(writer),
        );
        if let Some(obs) = &self.obs {
            let dur = self.tracer.now_us().saturating_sub(open.start_us);
            obs.write_us.observe(dur);
            obs.profiler.add_us(PhaseKind::DfsWrite, dur);
        }
        let segment = SegmentMeta {
            writer,
            split,
            blocks,
        };
        let mut ns = self.namespace.write();
        let meta = ns
            .get_mut(path)
            .ok_or_else(|| Error::FileNotFound(path.to_string()))?;
        let segments = &mut meta.partitions[pid.index()].segments;
        let at = segments.partition_point(|s| s.split <= split);
        segments.insert(at, segment);
        Ok(())
    }

    /// Removes all segments of a partition (before recomputing it), so
    /// stale surviving blocks can never be double-counted downstream.
    pub fn clear_partition(&self, path: &str, pid: PartitionId) -> Result<()> {
        let old = {
            let mut ns = self.namespace.write();
            let meta = ns
                .get_mut(path)
                .ok_or_else(|| Error::FileNotFound(path.to_string()))?;
            if pid.index() >= meta.partitions.len() {
                return Err(Error::Config(format!("partition {pid} out of range")));
            }
            std::mem::replace(&mut meta.partitions[pid.index()], PartitionMeta::new(pid))
        };
        self.free_blocks(&old);
        if let Some(cache) = &self.chain_cache {
            cache.invalidate_partition(path, pid);
        }
        Ok(())
    }

    /// Block locations of one partition (one mapper input split per
    /// block), in segment order.
    pub fn partition_locations(&self, path: &str, pid: PartitionId) -> Result<Vec<BlockLocation>> {
        let ns = self.namespace.read();
        let meta = ns
            .get(path)
            .ok_or_else(|| Error::FileNotFound(path.to_string()))?;
        let p = meta
            .partitions
            .get(pid.index())
            .ok_or_else(|| Error::Config(format!("partition {pid} out of range")))?;
        Ok(p.block_locations())
    }

    /// Reads one block, preferring a replica on `reader` (data
    /// locality), falling back to a random live replica.
    ///
    /// Every read is verified against the block's recorded content hash.
    /// A replica that fails verification is **demoted**: its payload is
    /// dropped from the serving store and the node is removed from the
    /// block's replica set — exactly the state a node death leaves
    /// behind, so corruption flows into the same loss accounting and
    /// recovery planning as replica loss. The read then falls back to
    /// the remaining replicas; only when all are gone or corrupt does it
    /// fail with [`Error::DataLoss`].
    ///
    /// Returns which node served the read alongside the data, so callers
    /// can account remote transfers.
    pub fn read_block(&self, loc: &BlockLocation, reader: NodeId) -> Result<(Bytes, NodeId)> {
        let open = self.tracer.open();
        let live_replicas: Vec<NodeId> = loc
            .replicas
            .iter()
            .copied()
            .filter(|&n| self.is_alive(n))
            .collect();
        if live_replicas.is_empty() {
            return Err(Error::DataLoss {
                path: format!("block {}", loc.id),
                partition: None,
            });
        }
        // Remote-replica choice is a pure function of (seed, block,
        // reader), not a stateful draw: the chain cache elides reads, so
        // a draw here would split cache-on and cache-off runs apart.
        let preferred = if live_replicas.contains(&reader) {
            reader
        } else {
            let pick = rcmp_model::rng::derive_indexed(
                self.cfg.seed,
                "dfs-read-pick",
                (loc.id.0 << 8) ^ u64::from(reader.raw()),
            ) as usize
                % live_replicas.len();
            live_replicas[pick]
        };
        let mut candidates = vec![preferred];
        candidates.extend(live_replicas.into_iter().filter(|&n| n != preferred));
        for source in candidates {
            let Some(data) = self.store(source).and_then(|s| s.get(loc.id)) else {
                continue;
            };
            let verify_started = std::time::Instant::now();
            let verified = rcmp_model::hash::hash_bytes(&data) == loc.content_hash;
            if let Some(obs) = &self.obs {
                obs.profiler.add_ns(
                    PhaseKind::BlockVerify,
                    verify_started.elapsed().as_nanos() as u64,
                );
            }
            if verified {
                self.tracer.close(
                    open,
                    SpanKind::BlockRead {
                        source,
                        bytes: data.len() as u64,
                    },
                    None,
                    None,
                    Some(reader),
                );
                if let Some(obs) = &self.obs {
                    let dur = self.tracer.now_us().saturating_sub(open.start_us);
                    obs.read_us.observe(dur);
                    obs.profiler.add_us(PhaseKind::DfsRead, dur);
                }
                return Ok((data, source));
            }
            self.tracer.instant(
                SpanKind::BlockVerifyFailed { block: loc.id.0 },
                None,
                None,
                Some(source),
            );
            if let Some(obs) = &self.obs {
                obs.recorder
                    .record(EventCode::BlockVerifyFailed, Some(source), loc.id.0, 0);
            }
            self.demote_replica(loc.id, source);
        }
        Err(Error::DataLoss {
            path: format!("block {}", loc.id),
            partition: None,
        })
    }

    /// The members of `replicas` whose data can still be read.
    fn readable_of(&self, replicas: &[NodeId]) -> Vec<NodeId> {
        replicas
            .iter()
            .copied()
            .filter(|&n| self.is_alive(n))
            .collect()
    }

    /// Phase 2 of a plan-then-commit copy ([`Dfs::replicate_file`],
    /// [`Dfs::decommission_node`]): each block's payload is taken from
    /// its first source that passes verification — a corrupt source is
    /// demoted, never propagated — and put on its targets. All or
    /// nothing: when a block has no verifiable source left, the copies
    /// already placed are removed again (they are in no replica set, so
    /// nothing else ever would) and the call fails with
    /// [`Error::DataLoss`] on `loss_path(block)`. Returns the bytes
    /// copied.
    fn copy_blocks(
        &self,
        plan: &[BlockCopy],
        loss_path: impl Fn(BlockId) -> String,
    ) -> Result<u64> {
        let mut bytes = 0u64;
        for (done, copy) in plan.iter().enumerate() {
            let data = copy.sources.iter().find_map(|&source| {
                let data = self.store(source)?.get(copy.id)?;
                if rcmp_model::hash::hash_bytes(&data) == copy.content_hash {
                    return Some(data);
                }
                self.demote_replica(copy.id, source);
                None
            });
            let Some(data) = data else {
                for placed in &plan[..done] {
                    for &t in &placed.targets {
                        if let Some(store) = self.store(t) {
                            store.remove(placed.id);
                        }
                    }
                }
                return Err(Error::DataLoss {
                    path: loss_path(copy.id),
                    partition: None,
                });
            };
            for &t in &copy.targets {
                bytes += data.len() as u64;
                if let Some(store) = self.store(t) {
                    store.put(copy.id, data.clone());
                }
            }
        }
        Ok(bytes)
    }

    /// Drops one replica of a block everywhere: the payload from the
    /// node's store and the node from the block's replica set in the
    /// namespace. Checksum-failed replicas go through here, making a
    /// corrupt copy indistinguishable downstream from one lost to a node
    /// death (`lost_partitions`, loss reports, recovery planning).
    fn demote_replica(&self, id: BlockId, node: NodeId) {
        if let Some(store) = self.store(node) {
            store.remove(id);
        }
        let mut ns = self.namespace.write();
        for meta in ns.values_mut() {
            for p in &mut meta.partitions {
                for s in &mut p.segments {
                    for b in &mut s.blocks {
                        if b.id == id {
                            b.drop_replica(node);
                            return;
                        }
                    }
                }
            }
        }
    }

    /// Fault injection: silently corrupts one block replica on `node`:
    /// the last, in namespace order (partition, split, chunk), of the
    /// most recently written file with a replica there — in a running
    /// chain a job output, not the better-replicated chain input.
    /// Namespace order, not block id, because concurrent writers draw
    /// ids in a race; files rank by their newest id on the node, since
    /// one chain never writes two files in one wave. Metadata and the
    /// recorded checksum are untouched: the next verified read finds
    /// the damage. Returns the victim, or `None` if nothing corrupts.
    pub fn corrupt_replica_on(&self, node: NodeId) -> Option<BlockId> {
        let store = self.store(node)?;
        let held: HashSet<BlockId> = store.block_ids().into_iter().collect();
        let mut files: Vec<Vec<BlockId>> = (self.namespace.read().values())
            .map(|meta| {
                let blocks = meta.partitions.iter().flat_map(PartitionMeta::blocks);
                blocks
                    .map(|b| b.id)
                    .filter(|id| held.contains(id))
                    .collect()
            })
            .collect();
        files.sort_by_key(|ids| std::cmp::Reverse(ids.iter().max().copied()));
        let victim = files
            .into_iter()
            .flat_map(|ids| ids.into_iter().rev())
            .find(|&id| store.corrupt(id))?;
        self.invalidate_cached_block(victim);
        Some(victim)
    }

    /// Drops the chain-cache entry covering `id`, modelling injected
    /// corruption as node-local damage that reaches the in-memory copy
    /// too: the next read takes the DFS path, hits the corrupt replica,
    /// and flows through the same verify/demote/recover machinery as a
    /// cache-off run — keeping chaos replays byte-identical either way.
    fn invalidate_cached_block(&self, id: BlockId) {
        let Some(cache) = &self.chain_cache else {
            return;
        };
        let covering = {
            let ns = self.namespace.read();
            ns.iter().find_map(|(path, meta)| {
                meta.partitions
                    .iter()
                    .find_map(|p| p.blocks().any(|b| b.id == id).then(|| (path.clone(), p.id)))
            })
        };
        if let Some((path, pid)) = covering {
            cache.invalidate_partition(&path, pid);
        }
    }

    /// Reads a whole partition (all segments concatenated).
    pub fn read_partition(&self, path: &str, pid: PartitionId, reader: NodeId) -> Result<Bytes> {
        let locs = self.partition_locations(path, pid)?;
        let total: usize = locs.iter().map(|l| l.size.as_u64() as usize).sum();
        let mut buf = BytesMut::with_capacity(total);
        for loc in &locs {
            let (data, _src) = self.read_block(loc, reader).map_err(|e| match e {
                Error::DataLoss { .. } => Error::DataLoss {
                    path: path.to_string(),
                    partition: Some(pid),
                },
                other => other,
            })?;
            buf.extend_from_slice(&data);
        }
        Ok(buf.freeze())
    }

    /// Raises a file's replication to `factor` by copying existing
    /// blocks to additional live nodes (hybrid mode, §IV-C: replicate
    /// the output of every k-th job).
    ///
    /// Plan-then-commit: every block's source and targets are validated
    /// *before* any data is copied, so a lost block fails the whole
    /// call without orphaning copies in node stores (a leak the
    /// property suite caught); a block whose every source turns out
    /// corrupt during the copy removes the copies already placed. A
    /// block keeps its readable replicas (at least [`MIN_REPLICAS`])
    /// plus what [`replica_targets`] returns, which is fewer than the
    /// factor when the Up nodes run out.
    pub fn replicate_file(&self, path: &str, factor: u32) -> Result<()> {
        if factor == 0 {
            return Err(Error::Config("replication factor must be >= 1".into()));
        }
        // Phase 1: plan. No mutation; all errors surface here. New
        // copies land only on schedulable nodes, placed by the block's
        // position with its readable replicas as holders (rack-aware,
        // as HDFS re-replication is); existing replicas on draining
        // nodes still count as readable sources.
        let meta = self.file_meta(path)?;
        let membership = self.membership();
        let mut plan: Vec<BlockCopy> = Vec::new();
        for p in &meta.partitions {
            for s in &p.segments {
                let segment = segment_key(self.cfg.seed, path, p.id.raw(), s.split);
                for (index, b) in (0u32..).zip(&s.blocks) {
                    let have = self.readable_of(&b.replicas);
                    if have.is_empty() {
                        return Err(Error::DataLoss {
                            path: path.to_string(),
                            partition: Some(p.id),
                        });
                    }
                    if have.len() >= factor as usize {
                        continue;
                    }
                    let key = block_key(segment, index);
                    let policy = PlacementPolicy::WriterLocal;
                    let targets =
                        replica_targets(key, policy, s.writer, factor, &have, &membership);
                    if targets.is_empty() {
                        continue; // every Up node holds a copy already
                    }
                    plan.push(BlockCopy {
                        id: b.id,
                        content_hash: b.content_hash,
                        sources: have,
                        targets,
                    });
                }
            }
        }
        // Phase 2: copy data per the validated plan.
        self.copy_blocks(&plan, |_| path.to_string())?;
        // Commit metadata updates.
        let mut ns = self.namespace.write();
        let meta = ns
            .get_mut(path)
            .ok_or_else(|| Error::FileNotFound(path.to_string()))?;
        meta.replication = meta.replication.max(factor);
        let mut by_block: HashMap<BlockId, Vec<NodeId>> =
            plan.into_iter().map(|c| (c.id, c.targets)).collect();
        for p in &mut meta.partitions {
            for s in &mut p.segments {
                for b in &mut s.blocks {
                    if let Some(extra) = by_block.remove(&b.id) {
                        b.replicas.extend(extra);
                    }
                }
            }
        }
        Ok(())
    }

    // -------------------------------------------------------------- failure

    /// Kills a node: wipes its store and reports every partition that
    /// lost all replicas (irreversible data loss) or some replicas
    /// (under-replication). Idempotent for an already-dead node; a
    /// draining node can also crash (drain offers no immunity).
    pub fn fail_node(&self, node: NodeId) -> LossReport {
        let mut report = LossReport {
            node: Some(node),
            ..Default::default()
        };
        let (was_alive, store) = {
            let mut members = self.members.write();
            let Some(store) = members.stores.get(node.index()).cloned() else {
                return report;
            };
            (members.membership.mark_dead(node.raw()).is_ok(), store)
        };
        store.wipe();
        if let Some(cache) = &self.chain_cache {
            cache.invalidate_node(node);
        }
        if !was_alive {
            return report;
        }
        let mut ns = self.namespace.write();
        for (path, meta) in ns.iter_mut() {
            let mut lost = Vec::new();
            let mut under = Vec::new();
            for p in &mut meta.partitions {
                let mut touched = false;
                for s in &mut p.segments {
                    for b in &mut s.blocks {
                        touched |= b.drop_replica(node);
                    }
                }
                if !touched {
                    continue;
                }
                if p.is_lost() {
                    lost.push(p.id);
                } else {
                    under.push(p.id);
                }
            }
            if !lost.is_empty() {
                report.lost.insert(path.clone(), lost);
            }
            if !under.is_empty() {
                report.under_replicated.insert(path.clone(), under);
            }
        }
        report
    }

    // -------------------------------------------------------------- metrics

    /// Access counters for one node's store.
    pub fn node_stats(&self, node: NodeId) -> NodeAccessStats {
        self.store(node).map(|s| s.stats()).unwrap_or_default()
    }

    /// Bytes currently stored across the cluster.
    pub fn total_used(&self) -> ByteSize {
        let stores = self.members.read().stores.clone();
        stores.iter().map(|s| s.used()).sum()
    }
}

fn node_ids(raw: Vec<u32>) -> Vec<NodeId> {
    raw.into_iter().map(NodeId).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_policy::NodeStatus;

    /// What the tests inspect and break on one node's store.
    impl Dfs {
        /// Total member count, including departed nodes.
        fn num_nodes(&self) -> u32 {
            self.members.read().stores.len() as u32
        }

        fn node_used(&self, node: NodeId) -> ByteSize {
            self.store(node).map(|s| s.used()).unwrap_or(ByteSize::ZERO)
        }

        fn node_block_count(&self, node: NodeId) -> usize {
            self.store(node).map(|s| s.block_count()).unwrap_or(0)
        }

        /// Corrupts one block replica on `node`; false when the node
        /// does not store it.
        fn corrupt_block_replica(&self, id: BlockId, node: NodeId) -> bool {
            let hit = self.store(node).is_some_and(|s| s.corrupt(id));
            if hit {
                self.invalidate_cached_block(id);
            }
            hit
        }
    }

    fn dfs(nodes: u32) -> Dfs {
        Dfs::new(DfsConfig::new(nodes, ByteSize::bytes(64)))
    }

    fn payload(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    #[test]
    fn create_write_read_roundtrip() {
        let d = dfs(4);
        d.create_file("out/1", 1, 2).unwrap();
        let data = payload(200, 7); // 4 blocks of 64 (3 full + remainder)
        d.write_partition_segment(
            "out/1",
            PartitionId(0),
            data.clone(),
            NodeId(1),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let got = d
            .read_partition("out/1", PartitionId(0), NodeId(0))
            .unwrap();
        assert_eq!(got, data);
        let meta = d.file_meta("out/1").unwrap();
        assert_eq!(meta.partitions[0].size(), ByteSize::bytes(200));
        assert!(!meta.is_complete()); // partition 1 unwritten
    }

    #[test]
    fn duplicate_create_rejected() {
        let d = dfs(2);
        d.create_file("f", 1, 1).unwrap();
        assert!(matches!(
            d.create_file("f", 1, 1),
            Err(Error::FileExists(_))
        ));
    }

    #[test]
    fn writer_local_blocks_live_on_writer() {
        let d = dfs(4);
        d.create_file("f", 1, 1).unwrap();
        d.write_partition_segment(
            "f",
            PartitionId(0),
            payload(128, 1),
            NodeId(2),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let meta = d.file_meta("f").unwrap();
        for b in meta.partitions[0].blocks() {
            assert_eq!(b.replicas, vec![NodeId(2)]);
        }
        assert_eq!(d.node_used(NodeId(2)), ByteSize::bytes(128));
    }

    #[test]
    fn replication_places_distinct_nodes() {
        let d = dfs(5);
        d.create_file("f", 3, 1).unwrap();
        d.write_partition_segment(
            "f",
            PartitionId(0),
            payload(64, 1),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let meta = d.file_meta("f").unwrap();
        let b = meta.partitions[0].blocks().next().unwrap();
        assert_eq!(b.replicas.len(), 3);
        let mut r = b.replicas.clone();
        r.sort();
        r.dedup();
        assert_eq!(r.len(), 3);
        assert_eq!(d.total_used(), ByteSize::bytes(64 * 3));
    }

    #[test]
    fn single_replica_failure_is_data_loss() {
        let d = dfs(3);
        d.create_file("f", 1, 2).unwrap();
        d.write_partition_segment(
            "f",
            PartitionId(0),
            payload(64, 1),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        d.write_partition_segment(
            "f",
            PartitionId(1),
            payload(64, 2),
            NodeId(1),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let report = d.fail_node(NodeId(0));
        assert_eq!(report.node, Some(NodeId(0)));
        assert_eq!(report.lost_in("f"), &[PartitionId(0)]);
        assert!(report.under_replicated.is_empty());
        // Partition 1 still readable, 0 is not.
        assert!(d.read_partition("f", PartitionId(1), NodeId(2)).is_ok());
        let err = d
            .read_partition("f", PartitionId(0), NodeId(2))
            .unwrap_err();
        assert!(matches!(err, Error::DataLoss { partition: Some(p), .. } if p == PartitionId(0)));
    }

    #[test]
    fn replicated_file_survives_single_failure() {
        let d = dfs(4);
        d.create_file("f", 2, 1).unwrap();
        let data = payload(300, 9);
        d.write_partition_segment(
            "f",
            PartitionId(0),
            data.clone(),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let report = d.fail_node(NodeId(0));
        assert!(report.is_benign());
        assert_eq!(report.under_replicated["f"], vec![PartitionId(0)]);
        assert_eq!(
            d.read_partition("f", PartitionId(0), NodeId(1)).unwrap(),
            data
        );
    }

    #[test]
    fn fail_node_is_idempotent() {
        let d = dfs(3);
        d.create_file("f", 1, 1).unwrap();
        d.write_partition_segment(
            "f",
            PartitionId(0),
            payload(64, 1),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let first = d.fail_node(NodeId(0));
        assert!(!first.is_benign());
        let second = d.fail_node(NodeId(0));
        assert!(
            second.is_benign(),
            "second failure of same node reports nothing new"
        );
        assert_eq!(d.live_nodes(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn dead_writer_rejected() {
        let d = dfs(2);
        d.create_file("f", 1, 1).unwrap();
        d.fail_node(NodeId(0));
        let err = d
            .write_partition_segment(
                "f",
                PartitionId(0),
                payload(10, 0),
                NodeId(0),
                PlacementPolicy::WriterLocal,
            )
            .unwrap_err();
        assert!(matches!(err, Error::NodeUnavailable(_)));
    }

    #[test]
    fn clear_partition_frees_storage() {
        let d = dfs(2);
        d.create_file("f", 1, 1).unwrap();
        d.write_partition_segment(
            "f",
            PartitionId(0),
            payload(128, 1),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        assert_eq!(d.total_used(), ByteSize::bytes(128));
        d.clear_partition("f", PartitionId(0)).unwrap();
        assert_eq!(d.total_used(), ByteSize::ZERO);
        assert!(!d.file_meta("f").unwrap().partitions[0].is_written());
    }

    #[test]
    fn delete_file_frees_storage() {
        let d = dfs(2);
        d.create_file("f", 1, 1).unwrap();
        d.write_partition_segment(
            "f",
            PartitionId(0),
            payload(64, 1),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        d.delete_file("f").unwrap();
        assert_eq!(d.total_used(), ByteSize::ZERO);
        assert!(!d.file_exists("f"));
        assert!(matches!(d.delete_file("f"), Err(Error::FileNotFound(_))));
    }

    #[test]
    fn multi_segment_partition_reads_in_order() {
        let d = dfs(4);
        d.create_file("f", 1, 1).unwrap();
        // Two split writers contribute segments.
        d.write_partition_segment(
            "f",
            PartitionId(0),
            payload(64, 1),
            NodeId(1),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        d.write_partition_segment(
            "f",
            PartitionId(0),
            payload(64, 2),
            NodeId(2),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let got = d.read_partition("f", PartitionId(0), NodeId(0)).unwrap();
        assert_eq!(&got[..64], &[1u8; 64][..]);
        assert_eq!(&got[64..], &[2u8; 64][..]);
        // The partition's bytes live on two different nodes.
        assert_eq!(d.node_used(NodeId(1)), ByteSize::bytes(64));
        assert_eq!(d.node_used(NodeId(2)), ByteSize::bytes(64));
    }

    #[test]
    fn replicate_file_raises_factor() {
        let d = dfs(4);
        d.create_file("f", 1, 1).unwrap();
        let data = payload(150, 3);
        d.write_partition_segment(
            "f",
            PartitionId(0),
            data.clone(),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        d.replicate_file("f", 2).unwrap();
        let meta = d.file_meta("f").unwrap();
        for b in meta.partitions[0].blocks() {
            assert_eq!(b.replicas.len(), 2);
        }
        // Now survives losing the original writer.
        let report = d.fail_node(NodeId(0));
        assert!(report.is_benign());
        assert_eq!(
            d.read_partition("f", PartitionId(0), NodeId(1)).unwrap(),
            data
        );
    }

    #[test]
    fn read_prefers_local_replica() {
        let d = dfs(3);
        d.create_file("f", 2, 1).unwrap();
        d.write_partition_segment(
            "f",
            PartitionId(0),
            payload(64, 1),
            NodeId(1),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let loc = &d.partition_locations("f", PartitionId(0)).unwrap()[0];
        let (_, src) = d.read_block(loc, NodeId(1)).unwrap();
        assert_eq!(src, NodeId(1), "local replica must be preferred");
    }

    #[test]
    fn spread_policy_distributes_first_replicas() {
        let d = dfs(8);
        d.create_file("f", 1, 1).unwrap();
        // 16 blocks written with Spread: first replicas should span nodes.
        d.write_partition_segment(
            "f",
            PartitionId(0),
            payload(64 * 16, 5),
            NodeId(0),
            PlacementPolicy::Spread,
        )
        .unwrap();
        let meta = d.file_meta("f").unwrap();
        let mut holders: Vec<NodeId> = meta.partitions[0].blocks().map(|b| b.replicas[0]).collect();
        holders.sort();
        holders.dedup();
        assert!(holders.len() > 2, "spread placement used {holders:?}");
    }

    #[test]
    fn a_factor_above_the_up_nodes_writes_down_to_the_minimum() {
        let d = dfs(2);
        d.create_file("f", 3, 1).unwrap();
        let write = |writer| {
            let policy = PlacementPolicy::WriterLocal;
            d.write_partition_segment("f", PartitionId(0), payload(64, 1), writer, policy)
        };
        write(NodeId(0)).unwrap();
        let meta = d.file_meta("f").unwrap();
        let replicas = &meta.partitions[0].blocks().next().unwrap().replicas;
        assert_eq!(replicas, &[NodeId(0), NodeId(1)], "one copy per Up node");
        // A draining writer still writes, but not with no Up node left.
        d.drain_node(NodeId(0)).unwrap();
        d.drain_node(NodeId(1)).unwrap();
        let err = write(NodeId(0)).unwrap_err();
        assert!(matches!(err, Error::InsufficientReplicaTargets { .. }));
    }

    #[test]
    fn content_hash_reflects_block_contents() {
        let d = dfs(2);
        d.create_file("f", 1, 1).unwrap();
        d.write_partition_chunks(
            "f",
            PartitionId(0),
            vec![payload(10, 1), payload(10, 1), payload(10, 2)],
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let meta = d.file_meta("f").unwrap();
        let hashes: Vec<u64> = meta.partitions[0]
            .blocks()
            .map(|b| b.content_hash)
            .collect();
        assert_eq!(hashes.len(), 3);
        assert_eq!(hashes[0], hashes[1], "identical chunks hash identically");
        assert_ne!(hashes[0], hashes[2], "different chunks hash differently");
    }

    #[test]
    fn corrupt_replica_demoted_and_read_from_survivor() {
        let d = dfs(3);
        d.create_file("f", 2, 1).unwrap();
        let data = payload(100, 7); // 2 blocks of 64
        d.write_partition_segment(
            "f",
            PartitionId(0),
            data.clone(),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let victim = d.corrupt_replica_on(NodeId(0)).unwrap();
        // The reader prefers its local (corrupt) replica, detects the
        // mismatch, and transparently falls back to the survivor.
        let got = d.read_partition("f", PartitionId(0), NodeId(0)).unwrap();
        assert_eq!(got, data);
        // The corrupt replica was demoted like a lost one.
        let meta = d.file_meta("f").unwrap();
        let b = meta.partitions[0]
            .blocks()
            .find(|b| b.id == victim)
            .unwrap();
        assert!(!b.replicas.contains(&NodeId(0)), "corrupt replica demoted");
        assert!(
            !meta.partitions[0].is_lost(),
            "survivor keeps the data live"
        );
    }

    #[test]
    fn all_replicas_corrupt_is_data_loss() {
        let d = dfs(2);
        d.create_file("f", 1, 1).unwrap();
        d.write_partition_segment(
            "f",
            PartitionId(0),
            payload(64, 3),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let id = d.partition_locations("f", PartitionId(0)).unwrap()[0].id;
        assert!(d.corrupt_block_replica(id, NodeId(0)));
        let err = d
            .read_partition("f", PartitionId(0), NodeId(1))
            .unwrap_err();
        assert!(matches!(err, Error::DataLoss { partition: Some(p), .. } if p == PartitionId(0)));
        // Demotion is durable: the partition now counts as lost, so
        // recovery planning sees the corruption as replica loss.
        let meta = d.file_meta("f").unwrap();
        assert!(meta.partitions[0].is_lost());
        assert_eq!(meta.lost_partitions(), vec![PartitionId(0)]);
    }

    #[test]
    fn replicate_file_skips_corrupt_source() {
        let d = dfs(4);
        d.create_file("f", 2, 1).unwrap();
        let data = payload(64, 9);
        d.write_partition_segment(
            "f",
            PartitionId(0),
            data.clone(),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let id = d.partition_locations("f", PartitionId(0)).unwrap()[0].id;
        assert!(d.corrupt_block_replica(id, NodeId(0)));
        d.replicate_file("f", 3).unwrap();
        // Every surviving replica serves verified bytes.
        for _ in 0..4 {
            assert_eq!(
                d.read_partition("f", PartitionId(0), NodeId(3)).unwrap(),
                data
            );
        }
        let meta = d.file_meta("f").unwrap();
        let b = meta.partitions[0].blocks().next().unwrap();
        assert!(!b.replicas.contains(&NodeId(0)), "corrupt source demoted");
    }

    /// A two-block file on node 0 only, its second block corrupt: the
    /// copy phase places block 1, then finds block 2 unverifiable.
    fn healthy_then_corrupt_sole_source(d: &Dfs) {
        d.create_file("f", 1, 1).unwrap();
        d.write_partition_segment(
            "f",
            PartitionId(0),
            payload(128, 9),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let locs = d.partition_locations("f", PartitionId(0)).unwrap();
        assert_eq!(locs.len(), 2);
        assert!(d.corrupt_block_replica(locs[1].id, NodeId(0)));
    }

    /// After the failed copy the only change is the demoted corrupt
    /// replica: no copy of the healthy block is left behind.
    fn assert_no_orphans(d: &Dfs) {
        assert_eq!(d.total_used(), ByteSize::bytes(64), "corrupt block demoted");
        assert_eq!(d.node_block_count(NodeId(0)), 1);
        for n in 1..d.num_nodes() {
            assert_eq!(d.node_block_count(NodeId(n)), 0, "orphan on n{n}");
        }
        let meta = d.file_meta("f").unwrap();
        let replicas: Vec<_> = meta.partitions[0]
            .blocks()
            .map(|b| b.replicas.clone())
            .collect();
        assert_eq!(replicas, [vec![NodeId(0)], vec![]]);
    }

    #[test]
    fn replicate_file_rolls_back_copies_when_a_later_block_is_unverifiable() {
        let d = dfs(3);
        healthy_then_corrupt_sole_source(&d);
        let err = d.replicate_file("f", 2).unwrap_err();
        assert!(matches!(err, Error::DataLoss { .. }), "{err:?}");
        assert_no_orphans(&d);
    }

    #[test]
    fn decommission_rolls_back_copies_when_a_later_block_is_unverifiable() {
        let d = dfs(3);
        healthy_then_corrupt_sole_source(&d);
        let err = d.decommission_node(NodeId(0)).unwrap_err();
        assert!(matches!(err, Error::DataLoss { .. }), "{err:?}");
        assert_no_orphans(&d);
        assert_eq!(d.membership().status(0), Some(NodeStatus::Up));
    }

    /// Splits that finish out of order still leave the partition in
    /// split order.
    #[test]
    fn split_segments_keep_split_order() {
        let d = dfs(4);
        d.create_file("f", 1, 1).unwrap();
        for split in [2u32, 0, 1] {
            let chunk = payload(8, split as u8);
            d.write_split_chunks(
                "f",
                PartitionId(0),
                split,
                vec![chunk],
                NodeId(split),
                PlacementPolicy::WriterLocal,
            )
            .unwrap();
        }
        let got = d.read_partition("f", PartitionId(0), NodeId(3)).unwrap();
        let want: Vec<u8> = [0u8, 1, 2].iter().flat_map(|&b| [b; 8]).collect();
        assert_eq!(&got[..], &want[..]);
    }

    /// The corruption victim comes from the most recently written file
    /// on the node, and within it is the last block in namespace order,
    /// whatever order its blocks' ids were drawn in.
    #[test]
    fn corruption_victim_is_last_block_of_newest_file() {
        let d = dfs(2);
        let write = |path: &str, pid: u32| {
            d.write_partition_segment(
                path,
                PartitionId(pid),
                payload(8, 7),
                NodeId(0),
                PlacementPolicy::WriterLocal,
            )
            .unwrap();
        };
        d.create_file("old", 1, 1).unwrap();
        d.create_file("new", 1, 2).unwrap();
        write("old", 0);
        write("new", 1);
        write("new", 0); // the highest id, but not the last block
        let last = d.partition_locations("new", PartitionId(1)).unwrap()[0].id;
        assert_eq!(d.corrupt_replica_on(NodeId(0)), Some(last));
    }

    #[test]
    fn corrupt_on_empty_node_is_none() {
        let d = dfs(2);
        assert!(d.corrupt_replica_on(NodeId(1)).is_none());
        assert!(!d.corrupt_block_replica(BlockId(42), NodeId(0)));
    }

    #[test]
    fn oversized_chunk_rejected() {
        let d = dfs(2);
        d.create_file("f", 1, 1).unwrap();
        let err = d
            .write_partition_chunks(
                "f",
                PartitionId(0),
                vec![payload(65, 0)], // block size is 64 in tests
                NodeId(0),
                PlacementPolicy::WriterLocal,
            )
            .unwrap_err();
        assert!(matches!(err, Error::Config(_)));
    }

    #[test]
    fn drained_node_keeps_serving_but_stops_accumulating() {
        let d = dfs(4);
        d.create_file("f", 1, 2).unwrap();
        let data = payload(128, 4);
        d.write_partition_segment(
            "f",
            PartitionId(0),
            data.clone(),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        d.drain_node(NodeId(0)).unwrap();
        assert_eq!(d.membership().status(0), Some(NodeStatus::Draining));
        assert_eq!(d.live_nodes().len(), 4, "draining stays readable");
        assert_eq!(d.placement_targets(), vec![NodeId(1), NodeId(2), NodeId(3)]);
        // Existing data still serves.
        assert_eq!(
            d.read_partition("f", PartitionId(0), NodeId(2)).unwrap(),
            data
        );
        // An in-flight writer on the draining node finishes, but its
        // blocks land on nodes that are staying.
        d.write_partition_segment(
            "f",
            PartitionId(1),
            payload(64, 5),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        for b in d.file_meta("f").unwrap().partitions[1].blocks() {
            assert!(!b.replicas.contains(&NodeId(0)), "no new data on drainer");
        }
        // Rejoin restores placement eligibility.
        d.rejoin_node(NodeId(0)).unwrap();
        assert_eq!(d.placement_targets().len(), 4);
    }

    #[test]
    fn decommission_rebalances_then_wipes() {
        let d = dfs(3);
        d.create_file("f", 1, 1).unwrap();
        let data = payload(200, 6); // 4 blocks, all on node 0
        d.write_partition_segment(
            "f",
            PartitionId(0),
            data.clone(),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let report = d.decommission_node(NodeId(0)).unwrap();
        assert_eq!(report.node, Some(NodeId(0)));
        assert_eq!(report.blocks_moved, 4);
        assert_eq!(report.bytes_moved, 200);
        assert_eq!(report.blocks_dropped, 0);
        assert_eq!(d.node_used(NodeId(0)), ByteSize::ZERO);
        assert_eq!(d.live_nodes(), vec![NodeId(1), NodeId(2)]);
        // Each block's new copy is the rule's first target for it.
        let meta = d.file_meta("f").unwrap();
        let segment = segment_key(d.config().seed, "f", 0, 0);
        let after = d.membership();
        for (index, b) in (0u32..).zip(meta.partitions[0].blocks()) {
            let key = block_key(segment, index);
            let spread = PlacementPolicy::Spread;
            let rule = replica_targets(key, spread, NodeId(0), 1, &[], &after);
            assert_eq!(b.replicas, rule);
        }
        assert_eq!(
            d.read_partition("f", PartitionId(0), NodeId(2)).unwrap(),
            data
        );
    }

    #[test]
    fn decommission_drops_already_everywhere_blocks() {
        let d = dfs(2);
        d.create_file("f", 2, 1).unwrap();
        let data = payload(64, 8);
        d.write_partition_segment(
            "f",
            PartitionId(0),
            data.clone(),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        // Both nodes hold the block; node 1 keeps it alive, so node 0's
        // copy is dropped rather than moved.
        let report = d.decommission_node(NodeId(0)).unwrap();
        assert_eq!(report.blocks_moved, 0);
        assert_eq!(report.blocks_dropped, 1);
        assert_eq!(
            d.read_partition("f", PartitionId(0), NodeId(1)).unwrap(),
            data
        );
    }

    #[test]
    fn decommission_with_no_target_for_sole_replica_fails_clean() {
        let d = dfs(1);
        d.create_file("f", 1, 1).unwrap();
        let data = payload(64, 2);
        d.write_partition_segment(
            "f",
            PartitionId(0),
            data.clone(),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let err = d.decommission_node(NodeId(0)).unwrap_err();
        assert!(matches!(err, Error::InsufficientReplicaTargets { .. }));
        // State unchanged: still up, still serving.
        assert_eq!(d.membership().status(0), Some(NodeStatus::Up));
        assert_eq!(
            d.read_partition("f", PartitionId(0), NodeId(0)).unwrap(),
            data
        );
    }

    #[test]
    fn joined_node_becomes_placement_target() {
        let d = dfs(2);
        d.create_file("f", 3, 1).unwrap();
        // Factor 3 on 2 nodes writes two copies...
        d.write_partition_segment(
            "f",
            PartitionId(0),
            payload(64, 1),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        d.clear_partition("f", PartitionId(0)).unwrap();
        // ...and three once a third node joins.
        let n = d.join_node(1, 0);
        assert_eq!(n, NodeId(2));
        assert_eq!(d.num_nodes(), 3);
        d.write_partition_segment(
            "f",
            PartitionId(0),
            payload(64, 1),
            NodeId(0),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        let b = d.file_meta("f").unwrap().partitions[0]
            .blocks()
            .next()
            .unwrap()
            .replicas
            .clone();
        assert!(b.contains(&NodeId(2)), "joined node holds a replica: {b:?}");
    }

    #[test]
    fn invalid_membership_transitions_are_typed_errors() {
        let d = dfs(3);
        d.create_file("f", 1, 1).unwrap();
        d.write_partition_segment(
            "f",
            PartitionId(0),
            payload(100, 3),
            NodeId(1),
            PlacementPolicy::WriterLocal,
        )
        .unwrap();
        assert!(d.drain_node(NodeId(9)).is_err(), "unknown node");
        d.fail_node(NodeId(2));
        d.decommission_node(NodeId(1)).unwrap();
        // Node 0 is Up, node 1 Decommissioned, node 2 Dead. A rejected
        // transition changes no status, epoch, store or replica set.
        let state = || {
            let used: Vec<ByteSize> = (0..d.num_nodes()).map(|n| d.node_used(NodeId(n))).collect();
            (d.membership(), used, d.file_meta("f").unwrap())
        };
        let before = state();
        assert_eq!(before.0.epoch(), 2);
        assert!(d.drain_node(NodeId(2)).is_err(), "cannot drain the dead");
        assert!(d.decommission_node(NodeId(2)).is_err());
        assert!(d.rejoin_node(NodeId(0)).is_err(), "up nodes cannot rejoin");
        assert!(
            d.decommission_node(NodeId(1)).is_err(),
            "already decommissioned"
        );
        assert!(d.fail_node(NodeId(9)).is_benign(), "unknown node");
        assert_eq!(state(), before);
        assert_eq!(d.membership().status(2), Some(NodeStatus::Dead));
    }

    #[test]
    fn out_of_range_partition_rejected() {
        let d = dfs(2);
        d.create_file("f", 1, 1).unwrap();
        assert!(d
            .write_partition_segment(
                "f",
                PartitionId(5),
                payload(1, 0),
                NodeId(0),
                PlacementPolicy::WriterLocal
            )
            .is_err());
        assert!(d.partition_locations("f", PartitionId(5)).is_err());
    }
}
