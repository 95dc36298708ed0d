//! The persisted map-output store.
//!
//! Hadoop stores mapper outputs on the mapper's local disk for the
//! duration of the job. RCMP's key extension is to **persist them across
//! jobs** (§IV-A), so a recomputation run can reuse them instead of
//! re-running mappers.
//!
//! Entries are keyed by the mapper's *input block position* (job, input
//! partition, block index) and carry the input block's content
//! fingerprint. A persisted output is reusable only while the current
//! block at that position has the same fingerprint — regenerating an
//! input partition with split reducers redistributes records across
//! blocks, changes the fingerprints, and thereby invalidates exactly the
//! map outputs the paper's Fig.-5 rule says must not be reused.
//!
//! Each entry lives on the node that computed the mapper (map outputs
//! are "stored outside of the distributed file system, on the node that
//! computed the mapper", §II) — killing a node drops its entries.
//!
//! Layout: one shard per job (persistence is per job, §IV-A, and so is
//! reclamation), each holding its map entries in key order plus a
//! **reducer-major posting list** — for every reduce task, the buckets
//! mappers actually emitted for it, in map-key order. Every reducer
//! shuffles from *all* mappers (§IV-B2), so a shuffle is planned by one
//! ordered pass over the job's entries and one walk of the reducer's
//! list ([`MapOutputStore::fetch_buckets`]) instead of a lookup per
//! (reducer, mapper) pair.

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use rcmp_model::{
    JobId, NodeId, PartitionId, RecordReader, RecordWriter, ReduceTaskId, Result, SplitId,
    SplitPartitioner,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::ops::{Deref, DerefMut};

/// Position of a mapper's input block within a job's input file.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MapInputKey {
    /// The job whose mapper consumed this block.
    pub job: JobId,
    /// Input-file partition the block belongs to.
    pub pid: PartitionId,
    /// Block index within that partition.
    pub block_idx: u32,
}

impl MapInputKey {
    pub fn new(job: JobId, pid: PartitionId, block_idx: u32) -> Self {
        Self {
            job,
            pid,
            block_idx,
        }
    }
}

/// Per-bucket summary written by the map side so reducers can plan a
/// fetch without decoding the payload: the key range bounds the merge,
/// `sorted` attests the bucket is already in `(key, value)` order, and
/// the counts let the merge pre-size its cursors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketIndex {
    /// Records in the bucket.
    pub records: u64,
    /// Encoded payload bytes.
    pub bytes: u64,
    /// Smallest key in the bucket (0 when empty).
    pub min_key: u64,
    /// Largest key in the bucket (0 when empty).
    pub max_key: u64,
    /// The payload is sorted by `(key, value)`; reducers may stream it
    /// as a merge run without a decode-and-sort pass.
    pub sorted: bool,
}

impl BucketIndex {
    /// Index of an empty bucket.
    pub fn empty() -> Self {
        Self {
            records: 0,
            bytes: 0,
            min_key: 0,
            max_key: 0,
            sorted: true,
        }
    }
}

/// One stored bucket in a reducer's posting list.
struct Posting {
    key: MapInputKey,
    node: NodeId,
    data: Bytes,
    index: BucketIndex,
}

impl Posting {
    fn fetched(&self, narrow: Option<(SplitId, u32)>) -> FetchedBucket {
        FetchedBucket {
            key: self.key,
            node: self.node,
            data: self.data.clone(),
            index: self.index,
            narrow,
        }
    }
}

/// One mapper's output as handed to the store, waiting to be indexed.
struct Inserted {
    key: MapInputKey,
    node: NodeId,
    input_hash: u64,
    buckets: Vec<(ReduceTaskId, Bytes, BucketIndex)>,
}

/// One stored map output; its payloads live in the posting lists.
struct MapEntry {
    key: MapInputKey,
    node: NodeId,
    input_hash: u64,
    bytes: u64,
}

/// The map outputs of one job.
#[derive(Default)]
struct Shard {
    /// Ascending by key.
    maps: Vec<MapEntry>,
    /// Reducer-major index: the stored buckets of each reduce task,
    /// ascending by map key. A key appears in a list only while it is
    /// in `maps`.
    postings: HashMap<ReduceTaskId, Vec<Posting>>,
    /// Payload bytes held by `postings`.
    bytes: u64,
}

impl Shard {
    fn position(&self, key: &MapInputKey) -> std::result::Result<usize, usize> {
        self.maps.binary_search_by_key(key, |m| m.key)
    }

    /// Folds freshly inserted outputs (ascending, distinct keys) into
    /// the index, replacing any stored output of the same key.
    fn absorb(&mut self, outputs: Vec<Inserted>) {
        for out in &outputs {
            self.remove(&out.key);
        }
        // Appending in key order leaves a list sorted unless it already
        // held a higher key; only those lists are re-sorted.
        let mut disordered = Vec::new();
        for out in outputs {
            let mut bytes = 0;
            for (reduce, data, index) in out.buckets {
                bytes += data.len() as u64;
                let list = self.postings.entry(reduce).or_default();
                if list.last().is_some_and(|p| p.key > out.key) {
                    disordered.push(reduce);
                }
                list.push(Posting {
                    key: out.key,
                    node: out.node,
                    data,
                    index,
                });
            }
            self.bytes += bytes;
            self.maps.push(MapEntry {
                key: out.key,
                node: out.node,
                input_hash: out.input_hash,
                bytes,
            });
        }
        // Stable sorts: a merge of the old run with the appended one,
        // and a single scan when nothing is out of place.
        self.maps.sort_by_key(|m| m.key);
        disordered.sort_unstable();
        disordered.dedup();
        for reduce in disordered {
            if let Some(list) = self.postings.get_mut(&reduce) {
                list.sort_by_key(|p| p.key);
            }
        }
    }

    fn remove(&mut self, key: &MapInputKey) -> bool {
        let Ok(i) = self.position(key) else {
            return false;
        };
        self.bytes -= self.maps.remove(i).bytes;
        self.postings.retain(|_, list| {
            if let Ok(i) = list.binary_search_by_key(key, |p| p.key) {
                list.remove(i);
            }
            !list.is_empty()
        });
        true
    }

    fn drop_node(&mut self, node: NodeId) -> usize {
        let before = self.maps.len();
        self.maps.retain(|m| m.node != node);
        self.bytes = self.maps.iter().map(|m| m.bytes).sum();
        self.postings.retain(|_, list| {
            list.retain(|p| p.node != node);
            !list.is_empty()
        });
        before - self.maps.len()
    }

    /// The stored buckets of `reduce`, plus — for a split task — those
    /// of its whole reducer, which a map output persisted from an
    /// unsplit run serves instead.
    fn lists(&self, reduce: ReduceTaskId) -> (&[Posting], &[Posting]) {
        let list = |id| self.postings.get(&id).map_or(&[][..], Vec::as_slice);
        let whole = match reduce.split {
            Some(_) => list(ReduceTaskId::whole(reduce.job, reduce.partition)),
            None => &[],
        };
        (list(reduce), whole)
    }

    /// Ordered merge-join of `inputs` (ascending, all of this job)
    /// against the map entries and `reduce`'s posting lists.
    fn join(
        &self,
        inputs: &[MapInputKey],
        reduce: ReduceTaskId,
        out: &mut BucketFetch,
        seen: &mut Vec<bool>,
    ) {
        let (exact, whole) = self.lists(reduce);
        let (mut m, mut e, mut w) = (0, 0, 0);
        for key in inputs {
            while self.maps.get(m).is_some_and(|x| x.key < *key) {
                m += 1;
            }
            let Some(entry) = self.maps.get(m).filter(|x| x.key == *key) else {
                out.missing.push(*key);
                continue;
            };
            mark(seen, entry.node);
            while exact.get(e).is_some_and(|p| p.key < *key) {
                e += 1;
            }
            if let Some(p) = exact.get(e).filter(|p| p.key == *key) {
                out.buckets.push(p.fetched(None));
                continue;
            }
            while whole.get(w).is_some_and(|p| p.key < *key) {
                w += 1;
            }
            if let Some(p) = whole.get(w).filter(|p| p.key == *key) {
                out.buckets.push(p.fetched(reduce.split));
            }
        }
    }

    /// Single-key form of [`Shard::join`]: the serving node, and the
    /// stored bucket if the mapper emitted one for `reduce`.
    fn probe(
        &self,
        key: &MapInputKey,
        reduce: ReduceTaskId,
    ) -> Option<(NodeId, Option<FetchedBucket>)> {
        let entry = &self.maps[self.position(key).ok()?];
        let (exact, whole) = self.lists(reduce);
        let find = |list: &[Posting], narrow| {
            let i = list.binary_search_by_key(key, |p| p.key).ok()?;
            Some(list[i].fetched(narrow))
        };
        let bucket = find(exact, None).or_else(|| find(whole, reduce.split));
        Some((entry.node, bucket))
    }
}

fn mark(seen: &mut Vec<bool>, node: NodeId) {
    let i = node.index();
    if i >= seen.len() {
        seen.resize(i + 1, false);
    }
    seen[i] = true;
}

/// A stored bucket handed to a reducer by [`MapOutputStore::fetch_buckets`].
pub struct FetchedBucket {
    /// The map output it belongs to.
    pub key: MapInputKey,
    /// The node serving it.
    pub node: NodeId,
    data: Bytes,
    index: BucketIndex,
    /// Set when a split task fell back to the persisted whole bucket:
    /// the split it must be narrowed to.
    narrow: Option<(SplitId, u32)>,
}

impl FetchedBucket {
    /// The payload the reducer reads, and its index.
    ///
    /// A whole bucket serving a *split* task (the map output was
    /// persisted from a run without splitting) is filtered by the
    /// second-level hash here — **at the serving side**, so only
    /// matching records count as transferred — and gets a freshly
    /// computed index that inherits sortedness (filtering a sorted
    /// stream preserves order). Decoding happens on the caller's
    /// thread, after the store's lock is released; an undecodable
    /// payload is an error, not a panic.
    pub fn into_payload(self) -> Result<(Bytes, BucketIndex)> {
        let Some((split_id, split_of)) = self.narrow else {
            return Ok((self.data, self.index));
        };
        let part = SplitPartitioner::new(split_of);
        let mut w = RecordWriter::new();
        let mut idx = BucketIndex::empty();
        idx.sorted = self.index.sorted;
        for rec in RecordReader::new(self.data) {
            let rec = rec?;
            if part.split_of(rec.key) == split_id {
                if idx.records == 0 {
                    idx.min_key = rec.key;
                }
                idx.max_key = rec.key;
                idx.records += 1;
                w.push(&rec);
            }
        }
        idx.bytes = w.byte_len() as u64;
        Ok((w.finish(), idx))
    }
}

/// What one reduce task's shuffle reads from the store, gathered under
/// a single shared-lock acquisition.
#[derive(Default)]
pub struct BucketFetch {
    /// The stored buckets, in `inputs` order. A present map output
    /// without one emitted no record for the reducer.
    pub buckets: Vec<FetchedBucket>,
    /// Inputs with no stored map output (mapper never ran, or its node
    /// died).
    pub missing: Vec<MapInputKey>,
    /// Nodes holding at least one of the inputs' map outputs,
    /// ascending — including those that serve no bucket.
    pub sources: Vec<NodeId>,
}

type Shards = BTreeMap<JobId, Shard>;

/// Cluster-wide registry + payload store for map outputs: one
/// [`Shard`] per job behind a reader-writer lock.
///
/// Lock discipline: a mapper's insert only appends to `inserted`. The
/// next operation of any other kind folds the backlog into the index
/// under the exclusive lock before it proceeds, so every read sees
/// every insert that happened before it. Reducers plan their shuffles
/// under the shared lock, and nothing is decoded or encoded while any
/// lock is held. Order: `shards` before `inserted`, never the reverse.
#[derive(Default)]
pub struct MapOutputStore {
    shards: RwLock<Shards>,
    /// Outputs inserted since the index was last brought up to date.
    inserted: Mutex<Vec<Inserted>>,
    /// Armed transient shuffle failures: reducers running on these nodes
    /// fail their next N shuffle attempts retryably (fault injection).
    flakes: Mutex<HashMap<NodeId, u32>>,
}

impl MapOutputStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Stores (replacing) the output of one mapper together with the
    /// per-bucket index the map side computed while encoding. Payloads
    /// are not scanned: a bucket whose index does not attest `sorted`
    /// may hold any bytes, and reducers decode and sort it at plan time.
    pub fn insert_indexed(
        &self,
        key: MapInputKey,
        node: NodeId,
        input_hash: u64,
        buckets: HashMap<ReduceTaskId, (Bytes, BucketIndex)>,
    ) {
        let output = Inserted {
            key,
            node,
            input_hash,
            buckets: buckets
                .into_iter()
                .map(|(reduce, (data, index))| (reduce, data, index))
                .collect(),
        };
        self.inserted.lock().push(output);
    }

    /// The up-to-date index, exclusively.
    fn write(&self) -> impl DerefMut<Target = Shards> + '_ {
        let mut shards = self.shards.write();
        let mut batch = std::mem::take(&mut *self.inserted.lock());
        // Stable, so of several inserts of one key the last stays last;
        // `dedup_by` drops the later of two equals, hence the swap.
        batch.sort_by_key(|o| o.key);
        batch.dedup_by(|later, earlier| {
            let same = later.key == earlier.key;
            if same {
                std::mem::swap(later, earlier);
            }
            same
        });
        let mut batch = batch.into_iter().peekable();
        while let Some(job) = batch.peek().map(|o| o.key.job) {
            let of_job = std::iter::from_fn(|| batch.next_if(|o| o.key.job == job));
            shards.entry(job).or_default().absorb(of_job.collect());
        }
        shards
    }

    /// The up-to-date index, shared.
    fn read(&self) -> impl Deref<Target = Shards> + '_ {
        if !self.inserted.lock().is_empty() {
            drop(self.write());
        }
        self.shards.read()
    }

    /// Fingerprint of the input block the stored output of `key` was
    /// computed from (the planner / tracker reuse decision); `None` if
    /// no output is stored.
    pub fn input_hash(&self, key: &MapInputKey) -> Option<u64> {
        let shards = self.read();
        let shard = shards.get(&key.job)?;
        Some(shard.maps[shard.position(key).ok()?].input_hash)
    }

    /// Everything reduce task `reduce` reads from the map outputs
    /// `inputs`, in one pass under the shared lock: which outputs are
    /// missing, which nodes serve the rest, and the stored buckets.
    /// Stored keys not named in `inputs` are ignored.
    ///
    /// For the usual `inputs` — one job's keys in ascending order —
    /// this is a merge-join against the job's ordered map entries and
    /// the reducer's posting list: sequential compares per input and a
    /// payload handle per stored bucket. Any other order is served by
    /// per-key binary searches.
    pub fn fetch_buckets(&self, inputs: &[MapInputKey], reduce: ReduceTaskId) -> BucketFetch {
        let mut out = BucketFetch::default();
        let mut seen = Vec::new();
        let shards = self.read();
        if inputs.windows(2).all(|w| w[0] <= w[1]) {
            for run in inputs.chunk_by(|a, b| a.job == b.job) {
                match shards.get(&run[0].job) {
                    Some(shard) => shard.join(run, reduce, &mut out, &mut seen),
                    None => out.missing.extend_from_slice(run),
                }
            }
        } else {
            for key in inputs {
                match shards.get(&key.job).and_then(|s| s.probe(key, reduce)) {
                    Some((node, bucket)) => {
                        mark(&mut seen, node);
                        out.buckets.extend(bucket);
                    }
                    None => out.missing.push(*key),
                }
            }
        }
        drop(shards);
        out.sources = (0u32..)
            .zip(&seen)
            .filter_map(|(i, &s)| s.then_some(NodeId(i)))
            .collect();
        out
    }

    /// Fetches the bucket a reduce task needs from one map output:
    /// `(payload, serving_node, index)`, the single-key form of
    /// [`MapOutputStore::fetch_buckets`] +
    /// [`FetchedBucket::into_payload`].
    ///
    /// `None` if the map output entry itself does not exist (mapper
    /// never ran, or its node died) — or if it holds a whole bucket too
    /// corrupt to narrow to the split asked for, which is as good as
    /// lost. An existing entry without a bucket for `reduce` means the
    /// mapper emitted no record for that reducer: an **empty** bucket.
    pub fn fetch_bucket_indexed(
        &self,
        key: &MapInputKey,
        reduce: ReduceTaskId,
    ) -> Option<(Bytes, NodeId, BucketIndex)> {
        let (node, bucket) = self.read().get(&key.job)?.probe(key, reduce)?;
        let (data, index) = match bucket {
            Some(b) => b.into_payload().ok()?,
            None => (Bytes::new(), BucketIndex::empty()),
        };
        Some((data, node, index))
    }

    /// Removes one entry (storage reclamation / eviction). Returns true
    /// if it existed.
    pub fn remove(&self, key: &MapInputKey) -> bool {
        let mut shards = self.write();
        shards.get_mut(&key.job).is_some_and(|s| s.remove(key))
    }

    /// Drops every map output stored on a failed node; returns how many
    /// entries were lost.
    pub fn drop_node(&self, node: NodeId) -> usize {
        let mut shards = self.write();
        shards.values_mut().map(|s| s.drop_node(node)).sum()
    }

    /// Drops every map output of one job (Hadoop's end-of-job cleanup,
    /// and RCMP's storage reclamation after a replication point, §IV-C)
    /// by unlinking the job's shard; its payloads are freed after the
    /// lock is released.
    pub fn clear_job(&self, job: JobId) -> usize {
        let shard = self.write().remove(&job);
        shard.map_or(0, |s| s.maps.len())
    }

    /// All keys currently stored for one job, ascending.
    pub fn keys_for_job(&self, job: JobId) -> Vec<MapInputKey> {
        let shards = self.read();
        shards
            .get(&job)
            .map_or_else(Vec::new, |s| s.maps.iter().map(|m| m.key).collect())
    }

    /// Total payload bytes currently persisted.
    pub fn total_bytes(&self) -> u64 {
        self.read().values().map(|s| s.bytes).sum()
    }

    /// Number of stored map outputs.
    pub fn len(&self) -> usize {
        self.read().values().map(|s| s.maps.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Arms `times` transient shuffle failures against reducers running
    /// on `node` (fault injection: a flaky network path or a serving
    /// node briefly refusing connections).
    pub fn arm_flake(&self, node: NodeId, times: u32) {
        if times == 0 {
            return;
        }
        *self.flakes.lock().entry(node).or_insert(0) += times;
    }

    /// Consumes one armed flake for `node`. Returns true when the
    /// caller's shuffle attempt must fail transiently.
    pub fn take_flake(&self, node: NodeId) -> bool {
        let mut flakes = self.flakes.lock();
        match flakes.get_mut(&node) {
            Some(n) => {
                *n -= 1;
                if *n == 0 {
                    flakes.remove(&node);
                }
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_model::Record;

    fn bucket(recs: &[(u64, &[u8])]) -> Bytes {
        let mut w = RecordWriter::new();
        for &(k, v) in recs {
            w.push(&Record::new(k, v.to_vec()));
        }
        w.finish()
    }

    /// The index of `bucket(&[(1, b"a"), .., (4, b"d")])`.
    fn index_1_to_4(payload: &Bytes) -> BucketIndex {
        BucketIndex {
            records: 4,
            bytes: payload.len() as u64,
            min_key: 1,
            max_key: 4,
            sorted: true,
        }
    }

    fn store_one(store: &MapOutputStore, job: u32, node: u32, hash: u64) -> MapInputKey {
        let key = MapInputKey::new(JobId(job), PartitionId(0), 0);
        let whole = ReduceTaskId::whole(JobId(job), PartitionId(1));
        let payload = bucket(&[(1, b"a"), (2, b"b"), (3, b"c"), (4, b"d")]);
        let idx = index_1_to_4(&payload);
        store.insert_indexed(
            key,
            NodeId(node),
            hash,
            HashMap::from([(whole, (payload, idx))]),
        );
        key
    }

    #[test]
    fn insert_lookup_fetch() {
        let s = MapOutputStore::new();
        let key = store_one(&s, 1, 2, 99);
        assert_eq!(s.input_hash(&key), Some(99));
        let whole = ReduceTaskId::whole(JobId(1), PartitionId(1));
        let (payload, src, _) = s.fetch_bucket_indexed(&key, whole).unwrap();
        assert_eq!(src, NodeId(2));
        assert_eq!(RecordReader::decode_all(payload).unwrap().len(), 4);
    }

    #[test]
    fn absent_bucket_is_empty_but_absent_entry_is_none() {
        let s = MapOutputStore::new();
        let key = store_one(&s, 1, 0, 0);
        // Entry exists, bucket doesn't: the mapper emitted nothing for
        // this reducer → empty payload, not a loss.
        let other = ReduceTaskId::whole(JobId(1), PartitionId(7));
        let (payload, src, _) = s.fetch_bucket_indexed(&key, other).unwrap();
        assert!(payload.is_empty());
        assert_eq!(src, NodeId(0));
        // Entry itself missing: the map output is lost.
        assert!(s
            .fetch_bucket_indexed(&MapInputKey::new(JobId(9), PartitionId(0), 0), other)
            .is_none());
    }

    #[test]
    fn split_fetch_filters_whole_bucket() {
        let s = MapOutputStore::new();
        let key = store_one(&s, 1, 0, 0);
        let k = 4u32;
        let part = SplitPartitioner::new(k);
        let mut seen = Vec::new();
        for i in 0..k {
            let split = ReduceTaskId::split(JobId(1), PartitionId(1), SplitId(i), k);
            let (payload, _, _) = s.fetch_bucket_indexed(&key, split).unwrap();
            for rec in RecordReader::decode_all(payload).unwrap() {
                assert_eq!(part.split_of(rec.key), SplitId(i));
                seen.push(rec.key);
            }
        }
        seen.sort();
        assert_eq!(seen, vec![1, 2, 3, 4], "splits exactly cover the bucket");
    }

    #[test]
    fn drop_node_loses_its_outputs() {
        let s = MapOutputStore::new();
        store_one(&s, 1, 0, 0);
        store_one(&s, 2, 1, 0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.drop_node(NodeId(0)), 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.drop_node(NodeId(0)), 0);
    }

    #[test]
    fn clear_job_and_keys_for_job() {
        let s = MapOutputStore::new();
        store_one(&s, 1, 0, 0);
        store_one(&s, 2, 1, 0);
        assert_eq!(s.keys_for_job(JobId(1)).len(), 1);
        assert_eq!(s.clear_job(JobId(1)), 1);
        assert!(s.keys_for_job(JobId(1)).is_empty());
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn total_bytes_accounts_payloads() {
        let s = MapOutputStore::new();
        assert!(s.is_empty());
        store_one(&s, 1, 0, 0);
        assert!(s.total_bytes() > 0);
    }

    #[test]
    fn flakes_decrement_and_clear() {
        let s = MapOutputStore::new();
        assert!(!s.take_flake(NodeId(0)), "nothing armed");
        s.arm_flake(NodeId(0), 2);
        s.arm_flake(NodeId(0), 1); // stacks
        s.arm_flake(NodeId(1), 0); // no-op
        assert!(!s.take_flake(NodeId(1)));
        for _ in 0..3 {
            assert!(s.take_flake(NodeId(0)));
        }
        assert!(!s.take_flake(NodeId(0)), "budget consumed");
    }

    #[test]
    fn indexed_insert_round_trips_index_and_split_inherits_sortedness() {
        let s = MapOutputStore::new();
        let key = MapInputKey::new(JobId(1), PartitionId(0), 0);
        let whole = ReduceTaskId::whole(JobId(1), PartitionId(1));
        let payload = bucket(&[(1, b"a"), (2, b"b"), (3, b"c"), (4, b"d")]);
        let idx = index_1_to_4(&payload);
        let mut buckets = HashMap::new();
        buckets.insert(whole, (payload, idx));
        s.insert_indexed(key, NodeId(0), 7, buckets);

        let (_, _, got) = s.fetch_bucket_indexed(&key, whole).unwrap();
        assert_eq!(got, idx);

        // Split fallback recomputes the filtered bucket's index and
        // inherits sortedness from the whole bucket.
        let split = ReduceTaskId::split(JobId(1), PartitionId(1), SplitId(0), 2);
        let (payload, _, sub) = s.fetch_bucket_indexed(&key, split).unwrap();
        assert!(sub.sorted);
        assert_eq!(sub.bytes, payload.len() as u64);
        assert_eq!(
            sub.records as usize,
            RecordReader::decode_all(payload).unwrap().len()
        );
    }

    #[test]
    fn replacement_overwrites() {
        let s = MapOutputStore::new();
        let key = store_one(&s, 1, 0, 5);
        store_one(&s, 1, 3, 6); // same key, new node+hash
        assert_eq!(s.input_hash(&key), Some(6));
        let whole = ReduceTaskId::whole(JobId(1), PartitionId(1));
        let (_, node, _) = s.fetch_bucket_indexed(&key, whole).unwrap();
        assert_eq!(node, NodeId(3));
        assert_eq!(s.len(), 1);
    }
}
