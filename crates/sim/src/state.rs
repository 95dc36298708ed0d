//! Abstract cluster state: placement of everything that matters.
//!
//! The simulator tracks *where data lives* at task granularity — input
//! blocks, reducer-output segments, persisted map outputs — without the
//! bytes themselves. Node death then computes exactly which partitions
//! lost all replicas and which map outputs are gone, the same state
//! transitions the real `rcmp-dfs`/`rcmp-engine` pair performs.

use crate::workload::WorkloadCfg;
use rcmp_model::{PartitionId, Result};
use rcmp_policy::{
    block_key, decommission_target, replica_targets, segment_key, CacheLedger, InputView, MapInput,
    Membership, PlacementPolicy,
};
use std::collections::{BTreeMap, BTreeSet};

/// Node index (dense, 0-based).
pub type Node = u32;

/// File index: 0 is the external input, `j ≥ 1` is job `j`'s output.
pub type FileId = u32;

/// The engine's path of file `file`: `input` for the external input,
/// `out/j` for job `j`'s output.
pub fn file_path(file: FileId) -> String {
    match file {
        0 => "input".to_string(),
        j => format!("out/{j}"),
    }
}

/// One writer's replicated contribution to a partition.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// Nodes holding a replica of this segment's blocks.
    pub holders: Vec<Node>,
    pub bytes: u64,
    /// Placement key of the segment's first block
    /// ([`rcmp_policy::block_key`]): at one block per partition, the
    /// holders are the engine's replicas of that block exactly.
    pub key: u64,
}

impl Segment {
    /// First live holder, if any.
    pub fn live_holder(&self, state: &SimState) -> Option<Node> {
        self.holders.iter().copied().find(|&n| state.is_alive(n))
    }
}

/// One reducer-output partition.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SimPartition {
    pub segments: Vec<Segment>,
    /// Bumped whenever a regeneration changes block boundaries/contents
    /// (a change of shape) — the simulator's stand-in for the engine's
    /// content fingerprints (Fig. 5 rule).
    pub version: u64,
    /// Segments the last write left. A clear keeps it, so rewriting the
    /// same shape keeps the version, as the engine's content hashes
    /// stay when a cleared partition is regenerated byte for byte.
    pub shape: usize,
}

impl SimPartition {
    pub fn bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum()
    }

    pub fn is_written(&self) -> bool {
        !self.segments.is_empty()
    }

    /// Lost = some segment has no live replica.
    pub fn is_lost(&self, state: &SimState) -> bool {
        self.is_written() && self.segments.iter().any(|s| s.live_holder(state).is_none())
    }

    /// `(block_bytes, holders)` per block, in segment order, given the
    /// DFS block size.
    fn blocks(&self, block_size: u64) -> Vec<(u64, Vec<Node>)> {
        let mut blocks = Vec::new();
        for seg in &self.segments {
            if seg.bytes == 0 {
                continue;
            }
            let n = seg.bytes.div_ceil(block_size).max(1);
            let per = seg.bytes / n;
            for i in 0..n {
                let b = if i == n - 1 {
                    seg.bytes - per * (n - 1)
                } else {
                    per
                };
                blocks.push((b, seg.holders.clone()));
            }
        }
        blocks
    }
}

/// A partitioned file.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct SimFile {
    pub partitions: Vec<SimPartition>,
}

impl SimFile {
    pub fn bytes(&self) -> u64 {
        self.partitions.iter().map(SimPartition::bytes).sum()
    }

    pub fn lost_partitions(&self, state: &SimState) -> BTreeSet<u32> {
        self.partitions
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_lost(state))
            .map(|(i, _)| i as u32)
            .collect()
    }
}

/// A persisted map output: where it lives and which input version it
/// was computed from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MapOutputRec {
    pub node: Node,
    pub input_version: u64,
    pub bytes: u64,
}

/// Key of a map output: (consuming job, input partition, block index).
pub type MapKey = (u32, u32, u32);

/// One mapper's input block.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct InputBlock {
    pub pid: u32,
    pub blk: u32,
    pub bytes: u64,
    pub holders: Vec<Node>,
    /// Its partition's version now.
    pub version: u64,
}

/// The simulated cluster state.
#[derive(Clone, Debug, Default)]
pub struct SimState {
    /// Versioned membership — the same `rcmp-policy` model the engine's
    /// `Cluster` keeps, so epoch numbers and live sets agree across
    /// backends. Readable (Up | Draining) nodes serve data; schedulable
    /// (Up) nodes take tasks and new replicas.
    membership: Membership,
    /// file id → file.
    pub files: BTreeMap<FileId, SimFile>,
    /// Persisted map outputs.
    pub map_outputs: BTreeMap<MapKey, MapOutputRec>,
    /// Inter-job chain cache (None = cache off, the default): the same
    /// `rcmp-policy` ledger the engine's `ChainCache` keeps, minus the
    /// payloads — a dropped entry costs the simulator nothing to free.
    pub chain_cache: Option<CacheLedger<FileId>>,
    /// Seed of the replica-target keys (the engine's `DfsConfig::seed`).
    pub(crate) seed: u64,
}

impl SimState {
    /// Fresh state over a uniform cluster of `wl.nodes` nodes; see
    /// [`SimState::with_membership`].
    pub fn new(wl: &WorkloadCfg, seed: u64) -> Self {
        Self::with_membership(wl, seed, Membership::uniform(wl.nodes))
    }

    /// Fresh state over `membership` (racked or heterogeneous; it must
    /// cover `wl.nodes`), the external input (file 0) written as one
    /// partition per node, writer-local, each block's other replicas
    /// where [`replica_targets`] puts them in the engine's DFS.
    pub fn with_membership(wl: &WorkloadCfg, seed: u64, membership: Membership) -> Self {
        let block = wl.block_size.as_u64();
        let mut input = SimFile::default();
        for p in 0..wl.nodes {
            let bytes = wl.per_node_input.as_u64();
            let num_blocks = bytes.div_ceil(block).max(1);
            let per = bytes / num_blocks;
            let segment = segment_key(seed, &file_path(0), p, 0);
            let mut segments = Vec::with_capacity(num_blocks as usize);
            for b in 0..num_blocks {
                let key = block_key(segment, b as u32);
                let policy = PlacementPolicy::WriterLocal;
                let replication = wl.input_replication;
                let holders = replica_targets(key, policy, p, replication, &[], &membership);
                let sz = if b == num_blocks - 1 {
                    bytes - per * (num_blocks - 1)
                } else {
                    per
                };
                segments.push(Segment {
                    holders,
                    bytes: sz,
                    key,
                });
            }
            input.partitions.push(SimPartition {
                shape: segments.len(),
                segments,
                version: 0,
            });
        }
        let mut files = BTreeMap::new();
        files.insert(0, input);
        Self {
            membership,
            files,
            map_outputs: BTreeMap::new(),
            chain_cache: None,
            seed,
        }
    }

    /// Turns on the chain cache with the given byte budget.
    pub fn enable_chain_cache(&mut self, budget: u64) {
        self.chain_cache = Some(CacheLedger::new(budget));
    }

    /// Node holding `(file, pid)` in cache memory, if the cache is on.
    pub fn cache_holder(&self, file: FileId, pid: u32) -> Option<Node> {
        self.chain_cache.as_ref().and_then(|c| c.holder(&file, pid))
    }

    /// Current membership snapshot (statuses, capacities, racks, epoch).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// True while the node's data remains readable (Up | Draining).
    pub fn is_alive(&self, node: Node) -> bool {
        self.membership.is_readable(node)
    }

    /// Kills a node: its map outputs vanish; partitions report lost via
    /// `lost_partitions`. Returns files that newly lost partitions.
    pub fn fail_node(&mut self, node: Node) -> BTreeMap<FileId, BTreeSet<u32>> {
        let before: BTreeMap<FileId, BTreeSet<u32>> = self
            .files
            .iter()
            .map(|(&f, file)| (f, file.lost_partitions(self)))
            .collect();
        let _ = self.membership.mark_dead(node);
        self.map_outputs.retain(|_, rec| rec.node != node);
        if let Some(c) = self.chain_cache.as_mut() {
            c.invalidate_node(node);
        }
        let mut newly = BTreeMap::new();
        for (&f, file) in &self.files {
            let now = file.lost_partitions(self);
            let fresh: BTreeSet<u32> = now
                .difference(before.get(&f).unwrap_or(&BTreeSet::new()))
                .copied()
                .collect();
            if !fresh.is_empty() {
                newly.insert(f, fresh);
            }
        }
        newly
    }

    /// Adds a fresh empty node (Up) and returns its index. It becomes a
    /// placement target immediately; it holds no data yet.
    pub fn join_node(&mut self, capacity: u32, rack: u32) -> Node {
        self.membership.join(capacity, rack)
    }

    /// Starts draining a node: no new tasks or replicas land on it, but
    /// every replica it holds keeps serving (nothing is lost).
    pub fn drain_node(&mut self, node: Node) -> Result<()> {
        self.membership.drain(node)?;
        // Mirror the engine: a draining node's memory is surrendered
        // even though its disk replicas keep serving.
        if let Some(c) = self.chain_cache.as_mut() {
            c.invalidate_node(node);
        }
        Ok(())
    }

    /// Brings a drained or decommissioned node back as a schedulable
    /// target (a decommissioned node rejoins empty).
    pub fn rejoin_node(&mut self, node: Node) -> Result<()> {
        self.membership.rejoin(node)
    }

    /// Gracefully removes a node: every segment replica it holds moves
    /// to the node [`decommission_target`] names for the segment (the
    /// rule `rcmp-dfs` applies per block), its map outputs are dropped,
    /// and it leaves the membership `Decommissioned`. Returns `(moved,
    /// dropped)` replica counts. Fails with
    /// [`rcmp_model::Error::InsufficientReplicaTargets`] — leaving all
    /// state unchanged — when a segment would keep fewer than
    /// [`rcmp_policy::MIN_REPLICAS`] readable copies.
    pub fn decommission_node(&mut self, node: Node) -> Result<(usize, usize)> {
        let mut after = self.membership.clone();
        after.decommission(node)?;
        // Plan: (file, pid, seg) → Some(target) moves the replica,
        // None drops it in place (other readable holders remain).
        let mut plan: Vec<(FileId, usize, usize, Option<Node>)> = Vec::new();
        for (&f, file) in &self.files {
            for (pid, p) in file.partitions.iter().enumerate() {
                for (si, seg) in p.segments.iter().enumerate() {
                    if !seg.holders.contains(&node) {
                        continue;
                    }
                    let target = decommission_target(seg.key, node, &seg.holders, &after)?;
                    plan.push((f, pid, si, target));
                }
            }
        }
        // Commit: contents are byte-identical on the new holder, so no
        // version bump — downstream lineage (map-output validity) is
        // preserved, exactly like the engine's verified copies.
        let (mut moved, mut dropped) = (0usize, 0usize);
        for (f, pid, si, target) in plan {
            let seg = &mut self
                .files
                .get_mut(&f)
                .expect("planned file exists")
                .partitions[pid]
                .segments[si];
            seg.holders.retain(|&h| h != node);
            match target {
                Some(t) => {
                    seg.holders.push(t);
                    moved += 1;
                }
                None => dropped += 1,
            }
        }
        self.map_outputs.retain(|_, rec| rec.node != node);
        if let Some(c) = self.chain_cache.as_mut() {
            c.invalidate_node(node);
        }
        self.membership = after;
        Ok((moved, dropped))
    }

    /// The blocks job `job`'s mappers read from its input file `job − 1`,
    /// given the DFS block size.
    pub(crate) fn input_blocks(&self, job: u32, block_size: u64) -> Vec<InputBlock> {
        let mut blocks = Vec::new();
        let Some(f) = self.files.get(&(job - 1)) else {
            return blocks;
        };
        for (pid, p) in (0u32..).zip(&f.partitions) {
            for (blk, (bytes, holders)) in (0u32..).zip(p.blocks(block_size)) {
                let version = p.version;
                blocks.push(InputBlock {
                    pid,
                    blk,
                    bytes,
                    holders,
                    version,
                });
            }
        }
        blocks
    }

    /// The snapshot of job `job`'s input, whose blocks are `blocks`, that
    /// [`rcmp_policy::job_init`] and the planner decide over. A
    /// partition's version stands in for the engine's content
    /// fingerprint of its blocks (Fig. 5 rule), and a map output counts
    /// as stored while its node is alive.
    pub(crate) fn input_view(&self, job: u32, blocks: &[InputBlock]) -> InputView {
        let partitions = self
            .files
            .get(&(job - 1))
            .map_or(&[][..], |f| &f.partitions);
        let unwritten = (0u32..).zip(partitions).filter(|(_, p)| !p.is_written());
        let stored = |b: &InputBlock| self.map_outputs.get(&(job, b.pid, b.blk));
        let input = |b: &InputBlock| MapInput {
            partition: PartitionId(b.pid),
            readable: b.holders.iter().any(|&n| self.is_alive(n)),
            stored: stored(b)
                .filter(|r| self.is_alive(r.node))
                .map(|r| r.input_version),
            current: b.version,
        };
        InputView {
            unwritten: unwritten.map(|(pid, _)| PartitionId(pid)).collect(),
            blocks: blocks.iter().map(input).collect(),
        }
    }

    /// Replaces a partition's contents with new segments, bumping the
    /// version when block boundaries change — when the segment count
    /// does (the deterministic-regeneration fingerprint rule of the real
    /// engine): a regeneration split `k` ways after a whole write or a
    /// `j ≠ k` split bumps, one of the same shape as the last write
    /// reproduces its blocks byte for byte and keeps it.
    pub fn rewrite_partition(&mut self, file: FileId, pid: u32, segments: Vec<Segment>) {
        // The partition's bytes are about to change: a cached copy of
        // the old version must not serve (the engine's hash guard +
        // clear_partition hook, collapsed into one invalidation here).
        if let Some(c) = self.chain_cache.as_mut() {
            c.invalidate_partition(&file, pid);
        }
        let f = self.files.entry(file).or_default();
        if f.partitions.len() <= pid as usize {
            f.partitions
                .resize(pid as usize + 1, SimPartition::default());
        }
        let p = &mut f.partitions[pid as usize];
        if p.shape != segments.len() {
            p.version += 1;
        }
        p.shape = segments.len();
        p.segments = segments;
    }

    /// Clears a partition before its regeneration (the engine's
    /// `clear_partition`): it reads as unwritten, and a cached copy of
    /// it stops serving.
    pub fn clear_partition(&mut self, file: FileId, pid: u32) {
        if let Some(c) = self.chain_cache.as_mut() {
            c.invalidate_partition(&file, pid);
        }
        let f = self.files.get_mut(&file);
        if let Some(p) = f.and_then(|f| f.partitions.get_mut(pid as usize)) {
            p.segments.clear();
        }
    }

    /// Records a mapper's persisted output.
    pub fn record_map_output(&mut self, key: MapKey, rec: MapOutputRec) {
        self.map_outputs.insert(key, rec);
    }

    /// Drops all map outputs of one consuming job (Hadoop-mode cleanup /
    /// hybrid reclamation), returning how many there were.
    pub fn clear_job_outputs(&mut self, job: u32) -> usize {
        let before = self.map_outputs.len();
        self.map_outputs.retain(|k, _| k.0 != job);
        before - self.map_outputs.len()
    }

    /// Total bytes of persisted map outputs (storage accounting).
    pub fn persisted_bytes(&self) -> u64 {
        self.map_outputs.values().map(|r| r.bytes).sum()
    }

    /// Raises every segment of a file to `factor` readable holders
    /// (hybrid replication points) through [`replica_targets`], as
    /// `Dfs::replicate_file` does. A lost segment stays lost.
    pub fn replicate_file(&mut self, file: FileId, factor: u32) {
        let membership = &self.membership;
        let Some(f) = self.files.get_mut(&file) else {
            return;
        };
        for seg in f.partitions.iter_mut().flat_map(|p| &mut p.segments) {
            let readable: Vec<Node> = (seg.holders.iter().copied())
                .filter(|&n| membership.is_readable(n))
                .collect();
            let Some(&first) = readable.first() else {
                continue;
            };
            let policy = PlacementPolicy::WriterLocal;
            let extra = replica_targets(seg.key, policy, first, factor, &readable, membership);
            seg.holders.extend(extra);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_model::{Error, SlotConfig};

    fn wl() -> WorkloadCfg {
        let mut w = WorkloadCfg::stic(SlotConfig::ONE_ONE);
        w.nodes = 4;
        w.num_reducers = 4;
        w
    }

    #[test]
    fn initial_input_is_replicated() {
        let s = SimState::new(&wl(), 0);
        let f = &s.files[&0];
        assert_eq!(f.partitions.len(), 4);
        for p in &f.partitions {
            assert_eq!(p.segments[0].holders.len(), 3);
        }
        assert!(f.lost_partitions(&s).is_empty());
    }

    #[test]
    fn triple_replication_survives_two_failures() {
        let mut s = SimState::new(&wl(), 0);
        assert!(s.fail_node(0).is_empty());
        assert!(s.fail_node(1).is_empty());
        // Third failure kills partitions replicated on {0,1,2} etc.
        let lost = s.fail_node(2);
        assert!(!lost.is_empty());
    }

    #[test]
    fn single_replica_partition_lost_with_node() {
        let mut s = SimState::new(&wl(), 0);
        s.rewrite_partition(
            1,
            0,
            vec![Segment {
                holders: vec![2],
                bytes: 100,
                key: 0,
            }],
        );
        let lost = s.fail_node(2);
        assert_eq!(lost[&1], [0u32].into_iter().collect::<BTreeSet<_>>());
        assert!(s.files[&1].partitions[0].is_lost(&s));
    }

    #[test]
    fn version_rules_mirror_fingerprints() {
        let mut s = SimState::new(&wl(), 0);
        let seg1 = |n: Node| Segment {
            holders: vec![n],
            bytes: 100,
            key: 0,
        };
        let version = |s: &SimState| s.files[&1].partitions[0].version;
        s.rewrite_partition(1, 0, vec![seg1(0)]);
        let v0 = version(&s);
        // Unsplit → unsplit regeneration: byte-identical, same version.
        s.rewrite_partition(1, 0, vec![seg1(1)]);
        assert_eq!(version(&s), v0);
        // Split regeneration: version bumps (Fig. 5).
        s.rewrite_partition(1, 0, vec![seg1(1), seg1(2)]);
        let v1 = version(&s);
        assert!(v1 > v0);
        // Split the same way again: the same blocks, the same version.
        s.rewrite_partition(1, 0, vec![seg1(3), seg1(0)]);
        assert_eq!(version(&s), v1);
        // Back to unsplit from split shape: boundaries change → bump.
        s.rewrite_partition(1, 0, vec![seg1(3)]);
        assert!(version(&s) > v1);
    }

    #[test]
    fn input_view_snapshots_holders_versions_and_live_outputs() {
        let mut s = SimState::new(&wl(), 0);
        s.rewrite_partition(
            1,
            0,
            vec![Segment {
                holders: vec![0],
                bytes: 250,
                key: 0,
            }],
        );
        let v = s.files[&1].partitions[0].version;
        let rec = |input_version| MapOutputRec {
            node: 1,
            input_version,
            bytes: 10,
        };
        s.record_map_output((2, 0, 0), rec(v));
        s.record_map_output((2, 0, 1), rec(v + 1));
        let blocks = s.input_blocks(2, 100);
        let view = s.input_view(2, &blocks);
        assert_eq!(
            blocks
                .iter()
                .map(|b| (b.pid, b.blk, b.bytes))
                .collect::<Vec<_>>(),
            [(0, 0, 83), (0, 1, 83), (0, 2, 84)],
            "split by block size"
        );
        let stored: Vec<_> = view.blocks.iter().map(|b| b.stored).collect();
        assert_eq!(stored, [Some(v), Some(v + 1), None]);
        assert!(view.blocks.iter().all(|b| b.readable && b.current == v));
        let reusable: Vec<_> = view.blocks.iter().map(|b| b.reusable(false)).collect();
        assert_eq!(
            reusable,
            [true, false, false],
            "stale version, missing entry"
        );
        assert!(view.unwritten.is_empty());
        s.fail_node(1);
        let view = s.input_view(2, &blocks);
        assert!(view.blocks.iter().all(|b| b.stored.is_none()), "node dead");
        s.fail_node(0);
        let view = s.input_view(2, &blocks);
        assert!(view.blocks.iter().all(|b| !b.readable), "holder dead");
    }

    #[test]
    fn replicate_file_adds_holders() {
        let mut s = SimState::new(&wl(), 0);
        s.rewrite_partition(
            1,
            0,
            vec![Segment {
                holders: vec![0],
                bytes: 100,
                key: 0,
            }],
        );
        s.replicate_file(1, 2);
        assert_eq!(s.files[&1].partitions[0].segments[0].holders.len(), 2);
        // Now survives the original holder's death.
        let lost = s.fail_node(0);
        assert!(lost.is_empty());
    }

    #[test]
    fn clear_job_outputs_scoped() {
        let mut s = SimState::new(&wl(), 0);
        let rec = MapOutputRec {
            node: 0,
            input_version: 0,
            bytes: 7,
        };
        s.record_map_output((1, 0, 0), rec);
        s.record_map_output((2, 0, 0), rec);
        s.clear_job_outputs(1);
        assert!(!s.map_outputs.contains_key(&(1, 0, 0)));
        assert!(s.map_outputs.contains_key(&(2, 0, 0)));
        assert_eq!(s.persisted_bytes(), 7);
    }

    #[test]
    fn drained_node_serves_but_takes_no_new_placements() {
        let mut s = SimState::new(&wl(), 0);
        let e0 = s.membership().epoch();
        s.drain_node(2).unwrap();
        assert!(s.membership().epoch() > e0);
        assert!(s.is_alive(2), "draining data stays readable");
        assert!(
            !s.membership().schedulable().contains(&2),
            "no longer schedulable"
        );
        assert!(s.files[&0].lost_partitions(&s).is_empty(), "nothing lost");
        s.rejoin_node(2).unwrap();
        assert!(s.membership().schedulable().contains(&2));
    }

    #[test]
    fn decommission_rehomes_replicas_and_drops_its_outputs() {
        let mut s = SimState::new(&wl(), 0);
        let rec = |node| MapOutputRec {
            node,
            input_version: 0,
            bytes: 5,
        };
        s.record_map_output((1, 0, 0), rec(2));
        s.record_map_output((1, 0, 1), rec(0));
        let (moved, dropped) = s.decommission_node(2).unwrap();
        assert!(moved > 0);
        assert_eq!(dropped, 0);
        assert!(!s.is_alive(2));
        assert!(s.files[&0].lost_partitions(&s).is_empty(), "no data lost");
        for p in &s.files[&0].partitions {
            for seg in &p.segments {
                assert!(!seg.holders.contains(&2), "replicas re-homed");
                assert_eq!(seg.holders.len(), 3, "replication factor kept");
            }
        }
        assert!(
            !s.map_outputs.contains_key(&(1, 0, 0)),
            "leaver's outputs gone"
        );
        assert!(
            s.map_outputs.contains_key(&(1, 0, 1)),
            "survivors untouched"
        );
    }

    #[test]
    fn decommission_sole_replica_without_target_fails_clean() {
        let mut s = SimState::new(&wl(), 0);
        s.fail_node(0);
        s.fail_node(1);
        s.fail_node(3);
        let epoch = s.membership().epoch();
        let err = s.decommission_node(2).unwrap_err();
        assert!(matches!(err, Error::InsufficientReplicaTargets { .. }));
        assert_eq!(s.membership().epoch(), epoch, "state unchanged");
        assert!(s.is_alive(2), "node 2 still serving");
    }

    #[test]
    fn join_grows_the_placement_pool() {
        let mut s = SimState::new(&wl(), 0);
        let n = s.join_node(2, 1);
        assert_eq!(n, 4);
        assert!(s.membership().schedulable().contains(&4));
        s.rewrite_partition(
            1,
            0,
            vec![Segment {
                holders: vec![0],
                bytes: 100,
                key: 0,
            }],
        );
        s.replicate_file(1, 5);
        assert!(
            s.files[&1].partitions[0].segments[0].holders.contains(&4),
            "new node absorbs replicas"
        );
    }
}
