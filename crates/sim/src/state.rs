//! Abstract cluster state: placement of everything that matters.
//!
//! The simulator tracks *where data lives* at task granularity — input
//! blocks, reducer-output segments, persisted map outputs — without the
//! bytes themselves. Node death then computes exactly which partitions
//! lost all replicas and which map outputs are gone, the same state
//! transitions the real `rcmp-dfs`/`rcmp-engine` pair performs.

use crate::workload::WorkloadCfg;
use rcmp_model::{Error, Result};
use rcmp_policy::{rehome_target, CacheLedger, Membership, Rehome};
use std::collections::{BTreeMap, BTreeSet};

/// Node index (dense, 0-based).
pub type Node = u32;

/// File index: 0 is the external input, `j ≥ 1` is job `j`'s output.
pub type FileId = u32;

/// One writer's replicated contribution to a partition.
#[derive(Clone, Debug, PartialEq)]
pub struct Segment {
    /// Nodes holding a replica of this segment's blocks.
    pub holders: Vec<Node>,
    pub bytes: u64,
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
    /// (split regeneration, or shape change) — the simulator's stand-in
    /// for the engine's content fingerprints (Fig. 5 rule).
    pub version: u64,
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
}

impl SimState {
    /// Fresh state: all nodes alive, external input (file 0) written as
    /// one partition per node. Like HDFS, the first replica of each
    /// block is writer-local and the remaining replicas scatter
    /// pseudo-randomly across the cluster *per block* — so when a node
    /// dies, re-reads of its primary blocks spread over many surviving
    /// disks instead of piling onto a couple of neighbours.
    pub fn new(wl: &WorkloadCfg) -> Self {
        let n = wl.nodes;
        let block = wl.block_size.as_u64();
        let mut input = SimFile::default();
        for p in 0..n {
            let bytes = wl.per_node_input.as_u64();
            let num_blocks = bytes.div_ceil(block).max(1);
            let per = bytes / num_blocks;
            let mut segments = Vec::with_capacity(num_blocks as usize);
            for b in 0..num_blocks {
                let mut holders: Vec<Node> = vec![p];
                // Deterministic per-block scatter for the remote copies.
                let mut h = rcmp_model::partition::mix64(((p as u64) << 32) | b);
                while holders.len() < wl.input_replication.min(n) as usize {
                    let cand = (h % n as u64) as Node;
                    if !holders.contains(&cand) {
                        holders.push(cand);
                    }
                    h = rcmp_model::partition::mix64(h);
                }
                let sz = if b == num_blocks - 1 {
                    bytes - per * (num_blocks - 1)
                } else {
                    per
                };
                segments.push(Segment { holders, bytes: sz });
            }
            input.partitions.push(SimPartition {
                segments,
                version: 0,
            });
        }
        let mut files = BTreeMap::new();
        files.insert(0, input);
        Self {
            membership: Membership::uniform(n),
            files,
            map_outputs: BTreeMap::new(),
            chain_cache: None,
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

    /// Replaces the membership wholesale — for heterogeneous or racked
    /// simulations built before any data movement happened. The new
    /// view must cover every node that holds data.
    pub fn set_membership(&mut self, membership: Membership) {
        assert!(
            membership.len() >= self.membership.len(),
            "membership must cover all {} existing nodes",
            self.membership.len()
        );
        self.membership = membership;
    }

    /// True while the node's data remains readable (Up | Draining).
    pub fn is_alive(&self, node: Node) -> bool {
        self.membership.is_readable(node)
    }

    /// Nodes that take new tasks and replicas (Up only): a draining
    /// node keeps serving its data but schedules nothing new — the same
    /// split the engine's `Cluster::schedulable_nodes` makes.
    pub fn live_nodes(&self) -> Vec<Node> {
        self.membership.schedulable()
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

    /// Gracefully removes a node: every segment replica it holds is
    /// re-homed by [`rehome_target`] — the rule `rcmp-dfs` applies per
    /// block — its map outputs are dropped, and it leaves the membership
    /// `Decommissioned`. Returns `(moved, dropped)` replica counts.
    /// Fails with [`Error::InsufficientReplicaTargets`] — leaving all
    /// state unchanged — when a sole-replica segment has nowhere to go.
    pub fn decommission_node(&mut self, node: Node) -> Result<(usize, usize)> {
        if !self.membership.is_readable(node) {
            // Surface the membership's own typed transition error.
            self.membership.decommission(node)?;
            unreachable!("decommission of a non-readable node must fail");
        }
        let pool: Vec<Node> = self
            .membership
            .schedulable()
            .into_iter()
            .filter(|&n| n != node)
            .collect();
        // Plan: (file, pid, seg) → Some(target) moves the replica,
        // None drops it in place (other readable holders remain).
        let mut plan: Vec<(FileId, usize, usize, Option<Node>)> = Vec::new();
        for (&f, file) in &self.files {
            for (pid, p) in file.partitions.iter().enumerate() {
                for (si, seg) in p.segments.iter().enumerate() {
                    if !seg.holders.contains(&node) {
                        continue;
                    }
                    let readable = |n| self.membership.is_readable(n);
                    match rehome_target(&seg.holders, node, &pool, readable) {
                        Rehome::Move(t) => plan.push((f, pid, si, Some(t))),
                        Rehome::Drop => plan.push((f, pid, si, None)),
                        Rehome::Stuck => {
                            return Err(Error::InsufficientReplicaTargets {
                                wanted: 1,
                                alive: pool.len(),
                            });
                        }
                    }
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
        self.membership
            .decommission(node)
            .expect("validated readable above");
        Ok((moved, dropped))
    }

    /// Blocks of one partition: `(block_bytes, holders)` per block, in
    /// segment order, given the DFS block size.
    pub fn partition_blocks(
        &self,
        file: FileId,
        pid: u32,
        block_size: u64,
    ) -> Vec<(u64, Vec<Node>)> {
        let Some(f) = self.files.get(&file) else {
            return Vec::new();
        };
        let Some(p) = f.partitions.get(pid as usize) else {
            return Vec::new();
        };
        let mut blocks = Vec::new();
        for seg in &p.segments {
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

    /// All blocks of a file: `(pid, block_idx, bytes, holders)`.
    pub fn file_blocks(&self, file: FileId, block_size: u64) -> Vec<(u32, u32, u64, Vec<Node>)> {
        let Some(f) = self.files.get(&file) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for pid in 0..f.partitions.len() as u32 {
            for (i, (bytes, holders)) in self
                .partition_blocks(file, pid, block_size)
                .into_iter()
                .enumerate()
            {
                out.push((pid, i as u32, bytes, holders));
            }
        }
        out
    }

    /// Current version of a partition (0 for unwritten).
    pub fn partition_version(&self, file: FileId, pid: u32) -> u64 {
        self.files
            .get(&file)
            .and_then(|f| f.partitions.get(pid as usize))
            .map(|p| p.version)
            .unwrap_or(0)
    }

    /// Replaces a partition's contents with new segments, bumping the
    /// version when block boundaries change: regeneration by `k > 1`
    /// splits always bumps; unsplit regeneration bumps only if the
    /// previous shape was not a single segment (the deterministic-
    /// regeneration fingerprint rule of the real engine).
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
        let shape_preserved = p.segments.len() == 1 && segments.len() == 1 && p.is_written();
        if !shape_preserved {
            p.version += 1;
        }
        p.segments = segments;
    }

    /// Records a mapper's persisted output.
    pub fn record_map_output(&mut self, key: MapKey, rec: MapOutputRec) {
        self.map_outputs.insert(key, rec);
    }

    /// Is the persisted output for this mapper valid today?
    pub fn map_output_valid(&self, key: MapKey, current_version: u64) -> bool {
        self.map_outputs
            .get(&key)
            .is_some_and(|r| self.is_alive(r.node) && r.input_version == current_version)
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

    /// Adds replicas to every segment of a file up to `factor` holders
    /// (hybrid replication points).
    pub fn replicate_file(&mut self, file: FileId, factor: u32) {
        let live = self.live_nodes();
        if live.is_empty() {
            return;
        }
        if let Some(f) = self.files.get_mut(&file) {
            for p in &mut f.partitions {
                for seg in &mut p.segments {
                    let mut i = 0usize;
                    while seg.holders.len() < factor as usize && i < live.len() {
                        let cand = live[i];
                        if !seg.holders.contains(&cand) {
                            seg.holders.push(cand);
                        }
                        i += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_model::SlotConfig;

    fn wl() -> WorkloadCfg {
        let mut w = WorkloadCfg::stic(SlotConfig::ONE_ONE);
        w.nodes = 4;
        w.num_reducers = 4;
        w
    }

    #[test]
    fn initial_input_is_replicated() {
        let s = SimState::new(&wl());
        let f = &s.files[&0];
        assert_eq!(f.partitions.len(), 4);
        for p in &f.partitions {
            assert_eq!(p.segments[0].holders.len(), 3);
        }
        assert!(f.lost_partitions(&s).is_empty());
    }

    #[test]
    fn triple_replication_survives_two_failures() {
        let mut s = SimState::new(&wl());
        assert!(s.fail_node(0).is_empty());
        assert!(s.fail_node(1).is_empty());
        // Third failure kills partitions replicated on {0,1,2} etc.
        let lost = s.fail_node(2);
        assert!(!lost.is_empty());
    }

    #[test]
    fn single_replica_partition_lost_with_node() {
        let mut s = SimState::new(&wl());
        s.rewrite_partition(
            1,
            0,
            vec![Segment {
                holders: vec![2],
                bytes: 100,
            }],
        );
        let lost = s.fail_node(2);
        assert_eq!(lost[&1], [0u32].into_iter().collect::<BTreeSet<_>>());
        assert!(s.files[&1].partitions[0].is_lost(&s));
    }

    #[test]
    fn version_rules_mirror_fingerprints() {
        let mut s = SimState::new(&wl());
        let seg1 = |n: Node| Segment {
            holders: vec![n],
            bytes: 100,
        };
        s.rewrite_partition(1, 0, vec![seg1(0)]);
        let v0 = s.partition_version(1, 0);
        // Unsplit → unsplit regeneration: byte-identical, same version.
        s.rewrite_partition(1, 0, vec![seg1(1)]);
        assert_eq!(s.partition_version(1, 0), v0);
        // Split regeneration: version bumps (Fig. 5).
        s.rewrite_partition(1, 0, vec![seg1(1), seg1(2)]);
        let v1 = s.partition_version(1, 0);
        assert!(v1 > v0);
        // Back to unsplit from split shape: boundaries change → bump.
        s.rewrite_partition(1, 0, vec![seg1(3)]);
        assert!(s.partition_version(1, 0) > v1);
    }

    #[test]
    fn map_output_validity() {
        let mut s = SimState::new(&wl());
        s.record_map_output(
            (2, 0, 0),
            MapOutputRec {
                node: 1,
                input_version: 5,
                bytes: 10,
            },
        );
        assert!(s.map_output_valid((2, 0, 0), 5));
        assert!(!s.map_output_valid((2, 0, 0), 6), "stale version");
        assert!(!s.map_output_valid((2, 0, 1), 5), "missing entry");
        s.fail_node(1);
        assert!(!s.map_output_valid((2, 0, 0), 5), "node dead");
    }

    #[test]
    fn partition_blocks_split_by_block_size() {
        let mut s = SimState::new(&wl());
        s.rewrite_partition(
            1,
            0,
            vec![Segment {
                holders: vec![0],
                bytes: 250,
            }],
        );
        let blocks = s.partition_blocks(1, 0, 100);
        assert_eq!(blocks.len(), 3);
        let total: u64 = blocks.iter().map(|(b, _)| b).sum();
        assert_eq!(total, 250);
    }

    #[test]
    fn replicate_file_adds_holders() {
        let mut s = SimState::new(&wl());
        s.rewrite_partition(
            1,
            0,
            vec![Segment {
                holders: vec![0],
                bytes: 100,
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
        let mut s = SimState::new(&wl());
        let rec = MapOutputRec {
            node: 0,
            input_version: 0,
            bytes: 7,
        };
        s.record_map_output((1, 0, 0), rec);
        s.record_map_output((2, 0, 0), rec);
        s.clear_job_outputs(1);
        assert!(!s.map_output_valid((1, 0, 0), 0));
        assert!(s.map_output_valid((2, 0, 0), 0));
        assert_eq!(s.persisted_bytes(), 7);
    }

    #[test]
    fn drained_node_serves_but_takes_no_new_placements() {
        let mut s = SimState::new(&wl());
        let e0 = s.membership().epoch();
        s.drain_node(2).unwrap();
        assert!(s.membership().epoch() > e0);
        assert!(s.is_alive(2), "draining data stays readable");
        assert!(!s.live_nodes().contains(&2), "no longer schedulable");
        assert!(s.files[&0].lost_partitions(&s).is_empty(), "nothing lost");
        s.rejoin_node(2).unwrap();
        assert!(s.live_nodes().contains(&2));
    }

    #[test]
    fn decommission_rehomes_replicas_and_drops_its_outputs() {
        let mut s = SimState::new(&wl());
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
        assert!(!s.map_output_valid((1, 0, 0), 0), "leaver's outputs gone");
        assert!(s.map_output_valid((1, 0, 1), 0), "survivors untouched");
    }

    #[test]
    fn decommission_sole_replica_without_target_fails_clean() {
        let mut s = SimState::new(&wl());
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
        let mut s = SimState::new(&wl());
        let n = s.join_node(2, 1);
        assert_eq!(n, 4);
        assert!(s.live_nodes().contains(&4));
        s.rewrite_partition(
            1,
            0,
            vec![Segment {
                holders: vec![0],
                bytes: 100,
            }],
        );
        s.replicate_file(1, 5);
        assert!(
            s.files[&1].partitions[0].segments[0].holders.contains(&4),
            "new node absorbs replicas"
        );
    }
}
