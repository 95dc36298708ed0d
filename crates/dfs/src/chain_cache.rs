//! The memory-budgeted inter-job block cache (M3R-style chain fast
//! path over RCMP's persisted lineage).
//!
//! RCMP persists every job's output to the DFS so cascading
//! recomputation stays cheap — which makes the *fault-free* chain pay a
//! full DFS round-trip between every pair of jobs. M3R shows chained
//! MapReduce wins big when inter-job data stays memory-resident and
//! partition-stable, at the cost of resilience. This cache resolves the
//! tension: reducer outputs are *staged* here as they are written
//! through to the DFS (checksummed, replicated, lineage untouched), and
//! the next job's mappers consume them from memory when the partition is
//! still resident, valid and cheap to reach. Every cache miss — budget
//! pressure, invalidation, membership churn — falls back to the
//! persisted replicas, so turning the cache on can never change job
//! output bytes, only where fault-free reads come from.
//!
//! ## Consistency rules
//!
//! What is admitted, evicted or spilled is decided by
//! [`rcmp_policy::CacheLedger`], the bookkeeping the simulator runs too;
//! this module adds the bytes, the hash guard and the counters.
//!
//! * **Stage, then commit.** A reducer stages its partition's
//!   record-aligned chunks while writing them to the DFS; nothing is
//!   readable until the whole job *commits* at successful completion, on
//!   the tracker's control thread. Admission order is partition-id
//!   ascending — independent of reduce-task interleaving — so replays
//!   and differential runs see identical cache states.
//! * **Hash-guarded reads.** [`ChainCache::get_chunk`] only hits when
//!   the cached chunk's content hash equals the hash the reader's
//!   `BlockLocation` expects (the same fingerprint verified DFS reads
//!   check). A recomputed partition, a stale entry, or any
//!   misalignment misses and falls through to the DFS.
//! * **LRU with pins.** Committed entries are evicted oldest-first under
//!   budget pressure, except entries of *pinned* files: the engine pins
//!   a job's input file for the duration of the run, so the partitions a
//!   scheduled wave is about to consume can't be evicted under it.
//!   Eviction is pure bookkeeping ("spill-to-DFS"): the bytes were
//!   persisted at write time, nothing is copied out.
//! * **Invalidation.** Node death, drain and decommission drop every
//!   entry (and staged chunk) the node holds; partition clears, file
//!   deletes and injected corruption drop the covering entries. Recovery
//!   reads therefore always come from the DFS's surviving replicas.
//!
//! A budget smaller than one partition degrades to pure spill-through:
//! everything stages, nothing is admitted, every read goes to the DFS —
//! byte-identical to running with the cache off.

use bytes::Bytes;
use parking_lot::Mutex;
use rcmp_model::{ByteSize, NodeId, PartitionId};
use rcmp_obs::{Counter, Gauge, MetricsRegistry};
use rcmp_policy::CacheLedger;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// What is resident and who holds it is the shared
/// [`rcmp_policy::CacheLedger`]'s decision; this side only keeps the
/// bytes: one `(content_hash, payload)` list per ledger ticket, exactly
/// the blocks written to the DFS, in write order.
struct Inner {
    ledger: CacheLedger<String>,
    payloads: HashMap<u64, Vec<(u64, Bytes)>>,
}

impl Inner {
    /// Frees the payloads of the tickets a ledger call dropped.
    fn release(&mut self, dropped: impl IntoIterator<Item = u64>) {
        for ticket in dropped {
            self.payloads.remove(&ticket);
        }
    }
}

/// Pre-resolved telemetry handles (resolved once against the cluster
/// registry so the read path never takes the registry lock).
struct ObsHandles {
    hits: Counter,
    hits_local: Counter,
    misses: Counter,
    spills: Counter,
    read_bytes: Counter,
    pinned_bytes: Gauge,
}

/// Point-in-time cache statistics (tests, benches, figures).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainCacheStats {
    /// Chunk reads served from memory.
    pub hits: u64,
    /// Hits where the reader was the holder node (node-local).
    pub hits_local: u64,
    /// Chunk lookups that fell through to the DFS.
    pub misses: u64,
    /// Staged partitions not admitted at commit (budget pressure); the
    /// data stays DFS-only — it was persisted at write time.
    pub spills: u64,
    /// Bytes served from memory.
    pub read_bytes: u64,
    /// Committed bytes currently resident.
    pub used_bytes: u64,
    /// Committed partitions currently resident.
    pub entries: u64,
}

/// The memory-budgeted inter-job block cache. See the module docs for
/// the consistency rules; see `rcmp_model::ChainCacheConfig` for how it
/// is switched on.
pub struct ChainCache {
    inner: Mutex<Inner>,
    hits: AtomicU64,
    hits_local: AtomicU64,
    misses: AtomicU64,
    read_bytes: AtomicU64,
    obs: Option<ObsHandles>,
}

impl ChainCache {
    /// An empty cache with the given committed-byte budget.
    pub fn new(budget: ByteSize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                ledger: CacheLedger::new(budget.as_u64()),
                payloads: HashMap::new(),
            }),
            hits: AtomicU64::new(0),
            hits_local: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            obs: None,
        }
    }

    /// Attaches pre-resolved metric handles: `cache.hits`,
    /// `cache.hits_local`, `cache.misses`, `cache.spills`,
    /// `cache.read_bytes` counters and the `cache.pinned_bytes` gauge.
    pub fn with_obs(mut self, registry: &MetricsRegistry) -> Self {
        self.obs = Some(ObsHandles {
            hits: registry.counter("cache.hits"),
            hits_local: registry.counter("cache.hits_local"),
            misses: registry.counter("cache.misses"),
            spills: registry.counter("cache.spills"),
            read_bytes: registry.counter("cache.read_bytes"),
            pinned_bytes: registry.gauge("cache.pinned_bytes"),
        });
        self
    }

    /// The committed-byte budget.
    pub fn budget(&self) -> ByteSize {
        ByteSize::bytes(self.inner.lock().ledger.budget())
    }

    /// Runs one ledger mutation under the lock, frees the payloads of
    /// whatever it dropped and republishes the spill counter and the
    /// pinned-bytes gauge.
    fn apply<D: IntoIterator<Item = u64>>(&self, op: impl FnOnce(&mut CacheLedger<String>) -> D) {
        let mut inner = self.inner.lock();
        let spills = inner.ledger.spills();
        let dropped = op(&mut inner.ledger);
        inner.release(dropped);
        if let Some(obs) = &self.obs {
            obs.spills.add(inner.ledger.spills() - spills);
            obs.pinned_bytes.set(inner.ledger.pinned_bytes() as i64);
        }
    }

    /// Stages one reducer's whole-partition output (the record-aligned
    /// chunks just written to the DFS) on `holder`, pending job commit.
    /// Re-staging the same partition (a retried task) replaces the
    /// previous staging.
    pub fn stage(&self, path: &str, pid: PartitionId, holder: NodeId, chunks: &[Bytes]) {
        let hashed: Vec<(u64, Bytes)> = chunks
            .iter()
            .map(|c| (rcmp_model::hash::hash_bytes(c), c.clone()))
            .collect();
        let bytes: u64 = hashed.iter().map(|(_, c)| c.len() as u64).sum();
        let mut inner = self.inner.lock();
        let ticket = inner
            .ledger
            .stage(path.to_string(), pid.raw(), holder.raw(), bytes);
        inner.payloads.insert(ticket, hashed);
    }

    /// Commits every partition staged for `path`, admitting them in
    /// ascending partition order while they fit the budget (evicting
    /// unpinned older entries, oldest first). Partitions that don't fit
    /// are counted as spills and stay DFS-only. Runs on the tracker's
    /// control thread at successful job completion — never concurrently
    /// with itself — so cache state after each job is deterministic.
    pub fn commit(&self, path: &str) {
        self.apply(|ledger| ledger.commit(&path.to_string()));
    }

    /// Drops anything staged for `path` without committing it (a failed
    /// or abandoned run).
    pub fn abort(&self, path: &str) {
        self.apply(|ledger| ledger.abort(&path.to_string()));
    }

    /// Serves block `block_idx` of `(path, pid)` from memory, but only
    /// when the cached chunk's content hash equals `expect_hash` (the
    /// fingerprint the reader's `BlockLocation` carries). On a hash
    /// mismatch the stale entry is dropped and the read misses. Returns
    /// the payload and the holder node (for locality accounting).
    pub fn get_chunk(
        &self,
        path: &str,
        pid: PartitionId,
        block_idx: usize,
        expect_hash: u64,
        reader: NodeId,
    ) -> Option<(Bytes, NodeId)> {
        let path = path.to_string();
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let hit = inner
            .ledger
            .lookup(&path, pid.raw())
            .and_then(|(holder, ticket)| {
                match inner.payloads.get(&ticket)?.get(block_idx)? {
                    (hash, data) if *hash == expect_hash => Some((data.clone(), NodeId(holder))),
                    _ => {
                        // Stale: the partition was rewritten behind us.
                        let dropped = inner.ledger.remove(&path, pid.raw());
                        inner.release(dropped);
                        None
                    }
                }
            });
        drop(guard);
        match hit {
            Some((data, holder)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.read_bytes
                    .fetch_add(data.len() as u64, Ordering::Relaxed);
                let local = holder == reader;
                if local {
                    self.hits_local.fetch_add(1, Ordering::Relaxed);
                }
                if let Some(obs) = &self.obs {
                    obs.hits.inc();
                    obs.read_bytes.add(data.len() as u64);
                    if local {
                        obs.hits_local.inc();
                    }
                }
                Some((data, holder))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                if let Some(obs) = &self.obs {
                    obs.misses.inc();
                }
                None
            }
        }
    }

    /// The node holding `(path, pid)` in memory, if committed — the
    /// stable-placement affinity hint. Purely advisory: scheduling to a
    /// non-holder only costs a miss.
    pub fn holder(&self, path: &str, pid: PartitionId) -> Option<NodeId> {
        let inner = self.inner.lock();
        inner
            .ledger
            .holder(&path.to_string(), pid.raw())
            .map(NodeId)
    }

    /// Pins `path`: its entries can't be evicted until the matching
    /// [`ChainCache::unpin_file`]. Bumps recency (the file is about to
    /// be consumed). Pins nest.
    pub fn pin_file(&self, path: &str) {
        self.apply(|ledger| {
            ledger.pin(&path.to_string());
            None
        });
    }

    /// Releases one pin of `path`.
    pub fn unpin_file(&self, path: &str) {
        self.apply(|ledger| {
            ledger.unpin(&path.to_string());
            None
        });
    }

    /// Drops every committed entry and staged chunk of `path`.
    pub fn invalidate_file(&self, path: &str) {
        self.apply(|ledger| ledger.invalidate_file(&path.to_string()));
    }

    /// Drops the committed entry and staged chunks of one partition.
    pub fn invalidate_partition(&self, path: &str, pid: PartitionId) {
        self.apply(|ledger| ledger.invalidate_partition(&path.to_string(), pid.raw()));
    }

    /// Drops everything `node` holds — committed and staged. Called on
    /// node death, drain and decommission so recovery (and post-churn
    /// scheduling) falls back to the DFS's persisted replicas.
    pub fn invalidate_node(&self, node: NodeId) {
        self.apply(|ledger| ledger.invalidate_node(node.raw()));
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> ChainCacheStats {
        let inner = self.inner.lock();
        ChainCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            hits_local: self.hits_local.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            spills: inner.ledger.spills(),
            read_bytes: self.read_bytes.load(Ordering::Relaxed),
            used_bytes: inner.ledger.used_bytes(),
            entries: inner.ledger.entries().count() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    fn hash(b: &Bytes) -> u64 {
        rcmp_model::hash::hash_bytes(b)
    }

    #[test]
    fn stage_commit_read_roundtrip() {
        let cache = ChainCache::new(ByteSize::bytes(1024));
        let c0 = payload(10, 1);
        let c1 = payload(20, 2);
        cache.stage("out", PartitionId(0), NodeId(2), &[c0.clone(), c1.clone()]);
        // Nothing readable before commit.
        assert!(cache
            .get_chunk("out", PartitionId(0), 0, hash(&c0), NodeId(2))
            .is_none());
        cache.commit("out");
        let (data, holder) = cache
            .get_chunk("out", PartitionId(0), 0, hash(&c0), NodeId(2))
            .expect("hit");
        assert_eq!(data, c0);
        assert_eq!(holder, NodeId(2));
        let (data, _) = cache
            .get_chunk("out", PartitionId(0), 1, hash(&c1), NodeId(0))
            .expect("hit");
        assert_eq!(data, c1);
        // A block index past the partition's chunks misses, entry intact.
        assert!(cache
            .get_chunk("out", PartitionId(0), 2, hash(&c1), NodeId(0))
            .is_none());
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.hits_local, 1);
        assert_eq!(s.misses, 2);
        assert_eq!(s.read_bytes, 30);
        assert_eq!(s.used_bytes, 30);
        assert_eq!(cache.holder("out", PartitionId(0)), Some(NodeId(2)));
    }

    #[test]
    fn hash_mismatch_invalidates_and_misses() {
        let cache = ChainCache::new(ByteSize::bytes(1024));
        let c = payload(10, 1);
        cache.stage("out", PartitionId(0), NodeId(0), std::slice::from_ref(&c));
        cache.commit("out");
        assert!(cache
            .get_chunk("out", PartitionId(0), 0, hash(&c) ^ 1, NodeId(0))
            .is_none());
        // The stale entry is gone entirely.
        assert!(cache
            .get_chunk("out", PartitionId(0), 0, hash(&c), NodeId(0))
            .is_none());
        assert_eq!(cache.stats().used_bytes, 0);
    }

    #[test]
    fn tiny_budget_spills_everything() {
        let cache = ChainCache::new(ByteSize::bytes(5));
        let c = payload(10, 1);
        cache.stage("out", PartitionId(0), NodeId(0), std::slice::from_ref(&c));
        cache.stage("out", PartitionId(1), NodeId(1), std::slice::from_ref(&c));
        cache.commit("out");
        let s = cache.stats();
        assert_eq!(s.spills, 2);
        assert_eq!(s.entries, 0);
        assert!(cache
            .get_chunk("out", PartitionId(0), 0, hash(&c), NodeId(0))
            .is_none());
    }

    #[test]
    fn recommit_serves_only_the_new_version() {
        let cache = ChainCache::new(ByteSize::bytes(1024));
        let v1 = payload(10, 1);
        cache.stage("x", PartitionId(0), NodeId(0), std::slice::from_ref(&v1));
        cache.commit("x");
        let v2 = payload(12, 2);
        cache.stage("x", PartitionId(0), NodeId(1), std::slice::from_ref(&v2));
        cache.commit("x");
        assert_eq!(cache.stats().used_bytes, 12);
        assert!(cache
            .get_chunk("x", PartitionId(0), 0, hash(&v2), NodeId(1))
            .is_some());
        // Probing with the old version's hash misses (and drops the
        // entry — a reader expecting v1 must go to the DFS).
        assert!(cache
            .get_chunk("x", PartitionId(0), 0, hash(&v1), NodeId(0))
            .is_none());
        assert!(cache.holder("x", PartitionId(0)).is_none());
    }

    /// One script through the wrapper (dummy payloads derived from the
    /// ticket) and a bare ledger: after every step they agree on
    /// holders, bytes and spills, `get_chunk` hits exactly the ledger's
    /// resident keys with the right version's bytes, and the payload
    /// table holds exactly the tickets the ledger has not dropped.
    #[test]
    fn wrapper_stays_in_sync_with_a_bare_ledger() {
        use rand::Rng;
        use std::collections::BTreeSet;
        const FILES: [&str; 3] = ["a", "b", "c"];
        let dummy = |ticket: u64, len: u64| payload(len as usize, ticket as u8);
        let cache = ChainCache::new(ByteSize::bytes(40));
        let mut ledger: CacheLedger<String> = CacheLedger::new(40);
        let mut live: BTreeSet<u64> = BTreeSet::new();
        let mut peak_entries = 0;
        let mut rng = rcmp_model::rng::rng_for(7, "chain-cache-sync");
        for step in 0..800u32 {
            let file = FILES[rng.gen_range(0..FILES.len())];
            let owned = file.to_string();
            let (pid, node) = (rng.gen_range(0..3u32), rng.gen_range(0..3u32));
            let dropped = match rng.gen_range(0..10u32) {
                0..=2 => {
                    // 8..=48 bytes: commits evict, replace and (at 48 >
                    // budget) spill.
                    let len = 8 * rng.gen_range(1..7u64);
                    let ticket = ledger.stage(owned, pid, node, len);
                    live.insert(ticket);
                    cache.stage(file, PartitionId(pid), NodeId(node), &[dummy(ticket, len)]);
                    Vec::new()
                }
                3..=4 => {
                    cache.commit(file);
                    ledger.commit(&owned)
                }
                5 => {
                    cache.abort(file);
                    ledger.abort(&owned)
                }
                6 => {
                    cache.pin_file(file);
                    ledger.pin(&owned);
                    if rng.gen_bool(0.7) {
                        cache.unpin_file(file);
                        ledger.unpin(&owned);
                    }
                    Vec::new()
                }
                7 => {
                    cache.invalidate_partition(file, PartitionId(pid));
                    ledger.invalidate_partition(&owned, pid)
                }
                8 => {
                    cache.invalidate_file(file);
                    ledger.invalidate_file(&owned)
                }
                _ => {
                    cache.invalidate_node(NodeId(node));
                    ledger.invalidate_node(node)
                }
            };
            for ticket in dropped {
                assert!(live.remove(&ticket), "step {step}: ticket dropped twice");
            }

            peak_entries = peak_entries.max(ledger.entries().count());
            let stats = cache.stats();
            assert_eq!(stats.used_bytes, ledger.used_bytes(), "step {step}");
            assert_eq!(stats.spills, ledger.spills(), "step {step}");
            assert_eq!(
                stats.entries,
                ledger.entries().count() as u64,
                "step {step}"
            );
            let resident: HashMap<(&str, u32), (u32, u64)> = ledger
                .entries()
                .map(|(f, pid, holder, bytes)| ((f.as_str(), pid), (holder, bytes)))
                .collect();
            for file in FILES {
                for pid in 0..3u32 {
                    let p = PartitionId(pid);
                    let Some(&(holder, bytes)) = resident.get(&(file, pid)) else {
                        assert_eq!(cache.holder(file, p), None, "step {step}");
                        assert!(cache.get_chunk(file, p, 0, 0, NodeId(0)).is_none());
                        continue;
                    };
                    let (_, ticket) = ledger.lookup(&file.to_string(), pid).expect("resident");
                    let want = dummy(ticket, bytes);
                    assert_eq!(cache.holder(file, p), Some(NodeId(holder)), "step {step}");
                    assert_eq!(
                        cache.get_chunk(file, p, 0, hash(&want), NodeId(0)),
                        Some((want, NodeId(holder))),
                        "step {step}"
                    );
                }
            }
            let held: BTreeSet<u64> = cache.inner.lock().payloads.keys().copied().collect();
            assert_eq!(held, live, "step {step}: payloads out of step with tickets");
        }
        assert!(ledger.spills() > 0 && peak_entries >= 3, "script too tame");
    }
}
