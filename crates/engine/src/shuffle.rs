//! The shuffle: reducers fetch their buckets from every map output.
//!
//! Each reducer copies, from every completed mapper, the key-value pairs
//! for the keys it is responsible for (§II). In this engine the "copy"
//! is a fetch from the [`MapOutputStore`]; bytes served by the reducer's
//! own node count as local, everything else as remote — the volumes the
//! simulator's network model is validated against.

use crate::mapstore::{BucketIndex, MapInputKey, MapOutputStore};
use bytes::Bytes;
use rcmp_model::{NodeId, Record, RecordReader, ReduceTaskId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Outcome of one reducer's shuffle + sort + group.
#[derive(Debug)]
pub struct ShuffleResult {
    /// Key groups in ascending key order; each group's values are sorted
    /// byte-wise so the reduce invocation is deterministic regardless of
    /// fetch order.
    pub groups: Vec<(u64, Vec<Bytes>)>,
    pub local_bytes: u64,
    pub remote_bytes: u64,
    /// Bytes fetched per serving node, ascending by node — the
    /// shuffle-source attribution behind the Fig. 6 hot-spot report.
    pub per_source: Vec<(NodeId, u64)>,
}

/// Why a shuffle could not complete.
#[derive(Debug)]
pub enum ShuffleFailure {
    /// These map outputs are gone (node death); the mappers must be
    /// re-executed before the reducer can run.
    MissingMapOutputs(Vec<MapInputKey>),
    /// This map output's payload failed to decode. Permanent for the
    /// stored copy: retrying the fetch returns the same bytes. The
    /// tracker drops the entry and re-runs the mapper.
    Corrupt {
        key: MapInputKey,
        source: rcmp_model::Error,
    },
    /// The fetch failed transiently (flaky network path, serving node
    /// briefly unreachable). Retrying the shuffle is expected to
    /// succeed.
    Transient { node: NodeId },
}

/// What one reducer fetched: the non-empty payloads in `inputs` order
/// plus the locality accounting both shuffle paths report.
struct Fetched {
    payloads: Vec<(MapInputKey, Bytes, Option<BucketIndex>)>,
    local_bytes: u64,
    remote_bytes: u64,
    per_source: Vec<(NodeId, u64)>,
}

/// Fetches every bucket reduce task `reduce` needs, in one pass over
/// the store.
///
/// `inputs` is the complete list of map-input keys of the job — a
/// reducer needs a bucket from *every* mapper, including persisted ones
/// (which is why the paper notes the shuffle stays a bottleneck even
/// when few mappers are recomputed, §IV-B2). Every serving node gets a
/// `per_source` row, even one whose map outputs held no bytes for this
/// reducer.
fn fetch(
    store: &MapOutputStore,
    inputs: &[MapInputKey],
    reduce: ReduceTaskId,
    node: NodeId,
) -> std::result::Result<Fetched, ShuffleFailure> {
    if store.take_flake(node) {
        return Err(ShuffleFailure::Transient { node });
    }
    let fetch = store.fetch_buckets(inputs, reduce);
    if !fetch.missing.is_empty() {
        return Err(ShuffleFailure::MissingMapOutputs(fetch.missing));
    }
    let mut fetched = Fetched {
        payloads: Vec::with_capacity(fetch.buckets.len()),
        local_bytes: 0,
        remote_bytes: 0,
        per_source: fetch.sources.iter().map(|&n| (n, 0)).collect(),
    };
    for bucket in fetch.buckets {
        let (key, source) = (bucket.key, bucket.node);
        let (payload, index) = bucket
            .into_payload()
            .map_err(|e| ShuffleFailure::Corrupt { key, source: e })?;
        if payload.is_empty() {
            continue;
        }
        let len = payload.len() as u64;
        if source == node {
            fetched.local_bytes += len;
        } else {
            fetched.remote_bytes += len;
        }
        match fetched.per_source.binary_search_by_key(&source, |s| s.0) {
            Ok(i) => fetched.per_source[i].1 += len,
            Err(i) => fetched.per_source.insert(i, (source, len)),
        }
        fetched.payloads.push((key, payload, index));
    }
    Ok(fetched)
}

/// Fetches, sorts and groups everything reduce task `reduce` needs.
pub fn shuffle_for_reduce(
    store: &MapOutputStore,
    inputs: &[MapInputKey],
    reduce: ReduceTaskId,
    node: NodeId,
) -> std::result::Result<ShuffleResult, ShuffleFailure> {
    let fetched = fetch(store, inputs, reduce, node)?;
    let mut records: Vec<Record> = Vec::new();
    for (key, payload, _) in fetched.payloads {
        for rec in RecordReader::new(payload) {
            match rec {
                Ok(r) => records.push(r),
                Err(e) => return Err(ShuffleFailure::Corrupt { key, source: e }),
            }
        }
    }
    Ok(ShuffleResult {
        groups: sort_and_group(records),
        local_bytes: fetched.local_bytes,
        remote_bytes: fetched.remote_bytes,
        per_source: fetched.per_source,
    })
}

/// Counters a [`StreamingShuffle`] accumulates while planning and
/// merging, mirrored into the `shuffle.*` metrics by the tracker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Runs merged through the heap (after coalescing).
    pub runs_merged: u64,
    /// Runs whose bucket index attested sortedness, streamed without a
    /// decode-and-sort pass.
    pub runs_presorted: u64,
    /// Payload bytes of those pre-sorted runs — bytes the index let the
    /// reducer skip re-sorting.
    pub index_bytes_skipped: u64,
    /// Empty buckets skipped without decoding anything.
    pub empty_runs_skipped: u64,
    /// Runs pre-merged pairwise because the fan-in exceeded the
    /// configured `max_merge_width`.
    pub runs_coalesced: u64,
    /// Peak heap size during the merge (bounded by the merge width).
    pub heap_peak: u64,
}

/// One sorted run feeding the k-way merge.
enum Run {
    /// Records already materialized and sorted (either decoded + sorted
    /// at plan time, or produced by coalescing).
    Sorted(VecDeque<Record>),
    /// A bucket whose index attests `(key, value)` order: decoded
    /// lazily, one record per heap pop, never buffered as a whole.
    Lazy {
        reader: RecordReader,
        key: MapInputKey,
    },
}

impl Run {
    fn next(&mut self) -> std::result::Result<Option<Record>, ShuffleFailure> {
        match self {
            Run::Sorted(q) => Ok(q.pop_front()),
            Run::Lazy { reader, key } => match reader.next() {
                None => Ok(None),
                Some(Ok(rec)) => Ok(Some(rec)),
                Some(Err(e)) => Err(ShuffleFailure::Corrupt {
                    key: *key,
                    source: e,
                }),
            },
        }
    }
}

/// Heap entry: the head record of one run. Ordered by `(key, value)`
/// with the run index as a total-order tie-break (equal `(key, value)`
/// entries are byte-identical, so the tie-break cannot change output).
#[derive(PartialEq, Eq)]
struct Head {
    key: u64,
    value: Bytes,
    run: usize,
}

impl Ord for Head {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| self.value.cmp(&other.value))
            .then_with(|| self.run.cmp(&other.run))
    }
}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A planned reducer shuffle that yields key groups **incrementally**
/// from a binary-heap merge over per-mapper sorted runs, instead of
/// collecting and sorting the whole reducer input (§IV-B2's bottleneck).
///
/// Peak memory is bounded by the runs (and the fan-in cap coalesces
/// excess runs first), not by the reducer's total input: pre-sorted
/// buckets stream record-at-a-time straight out of the fetched payload.
///
/// Byte-identity invariant: the concatenation of the yielded groups is
/// exactly [`sort_and_group`] of the same records — the legacy path
/// remains available as the differential-testing oracle.
pub struct StreamingShuffle {
    runs: Vec<Run>,
    heap: BinaryHeap<Reverse<Head>>,
    stats: MergeStats,
    /// Locality accounting, identical to the legacy path's.
    pub local_bytes: u64,
    pub remote_bytes: u64,
    pub per_source: Vec<(NodeId, u64)>,
    failed: bool,
}

impl StreamingShuffle {
    /// Fetches every bucket with the same pass and accounting as
    /// [`shuffle_for_reduce`], and prepares the merge runs. Unsorted
    /// (unindexed) buckets are decoded and sorted here, so corruption in
    /// them surfaces at plan time, as on the legacy path.
    pub fn plan(
        store: &MapOutputStore,
        inputs: &[MapInputKey],
        reduce: ReduceTaskId,
        node: NodeId,
        max_merge_width: u32,
    ) -> std::result::Result<Self, ShuffleFailure> {
        let fetched = fetch(store, inputs, reduce, node)?;
        let mut stats = MergeStats {
            empty_runs_skipped: (inputs.len() - fetched.payloads.len()) as u64,
            ..MergeStats::default()
        };
        let mut runs = Vec::with_capacity(fetched.payloads.len());
        for (key, payload, index) in fetched.payloads {
            if index.is_some_and(|i| i.sorted) {
                stats.runs_presorted += 1;
                stats.index_bytes_skipped += payload.len() as u64;
                runs.push(Run::Lazy {
                    reader: RecordReader::new(payload),
                    key,
                });
            } else {
                let mut records = match RecordReader::decode_all(payload) {
                    Ok(r) => r,
                    Err(e) => return Err(ShuffleFailure::Corrupt { key, source: e }),
                };
                records
                    .sort_unstable_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
                runs.push(Run::Sorted(records.into()));
            }
        }

        // Cap the fan-in: coalesce the smallest runs into one
        // materialized run until at most `max_merge_width` remain.
        let width = (max_merge_width.max(2)) as usize;
        if runs.len() > width {
            let excess = runs.len() - width + 1;
            // Smallest-first so the cheap runs pay the pre-merge.
            runs.sort_by_key(|r| match r {
                Run::Sorted(q) => q.iter().map(Record::encoded_len).sum::<usize>(),
                Run::Lazy { .. } => usize::MAX,
            });
            let mut merged: Vec<Record> = Vec::new();
            for mut run in runs.drain(..excess) {
                while let Some(rec) = run.next()? {
                    merged.push(rec);
                }
            }
            merged.sort_unstable_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
            stats.runs_coalesced += excess as u64;
            runs.push(Run::Sorted(merged.into()));
        }
        stats.runs_merged = runs.len() as u64;

        let mut this = Self {
            runs,
            heap: BinaryHeap::new(),
            stats,
            local_bytes: fetched.local_bytes,
            remote_bytes: fetched.remote_bytes,
            per_source: fetched.per_source,
            failed: false,
        };
        for i in 0..this.runs.len() {
            this.push_head(i)?;
        }
        this.stats.heap_peak = this.heap.len() as u64;
        Ok(this)
    }

    /// Merge counters accumulated so far (complete once the iterator is
    /// drained).
    pub fn stats(&self) -> MergeStats {
        self.stats
    }

    fn push_head(&mut self, run: usize) -> std::result::Result<(), ShuffleFailure> {
        if let Some(rec) = self.runs[run].next()? {
            self.heap.push(Reverse(Head {
                key: rec.key,
                value: rec.value,
                run,
            }));
        }
        Ok(())
    }
}

impl Iterator for StreamingShuffle {
    type Item = std::result::Result<(u64, Vec<Bytes>), ShuffleFailure>;

    /// Yields the next key group: ascending keys, values sorted
    /// byte-wise within the group.
    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let Self {
            runs, heap, failed, ..
        } = self;
        let key = heap.peek()?.0.key;
        let mut values = Vec::new();
        while let Some(mut top) = heap.peek_mut() {
            if top.0.key != key {
                break;
            }
            // Replace the head in place with its run's next record: one
            // sift-down instead of a pop + push (runs are sorted, so
            // the replacement can only move down).
            match runs[top.0.run].next() {
                Ok(Some(rec)) => {
                    values.push(std::mem::replace(&mut top.0.value, rec.value));
                    top.0.key = rec.key;
                }
                Ok(None) => {
                    let Reverse(head) = std::collections::binary_heap::PeekMut::pop(top);
                    values.push(head.value);
                }
                Err(e) => {
                    *failed = true;
                    return Some(Err(e));
                }
            }
        }
        Some(Ok((key, values)))
    }
}

/// Sorts records by (key, value) and groups values per key.
pub fn sort_and_group(mut records: Vec<Record>) -> Vec<(u64, Vec<Bytes>)> {
    records.sort_unstable_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
    let mut groups: Vec<(u64, Vec<Bytes>)> = Vec::new();
    for rec in records {
        match groups.last_mut() {
            Some((k, vals)) if *k == rec.key => vals.push(rec.value),
            _ => groups.push((rec.key, vec![rec.value])),
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_model::{JobId, PartitionId, RecordWriter};
    use std::collections::HashMap;

    /// The streaming equivalent of [`shuffle_for_reduce`]: same fetches,
    /// same accounting, same groups — collected into a [`ShuffleResult`]
    /// (the tracker consumes the iterator incrementally instead).
    fn shuffle_for_reduce_streaming(
        store: &MapOutputStore,
        inputs: &[MapInputKey],
        reduce: ReduceTaskId,
        node: NodeId,
        max_merge_width: u32,
    ) -> std::result::Result<ShuffleResult, ShuffleFailure> {
        let mut merge = StreamingShuffle::plan(store, inputs, reduce, node, max_merge_width)?;
        let mut groups = Vec::new();
        for group in &mut merge {
            groups.push(group?);
        }
        Ok(ShuffleResult {
            groups,
            local_bytes: merge.local_bytes,
            remote_bytes: merge.remote_bytes,
            per_source: merge.per_source,
        })
    }

    fn bucket(recs: &[(u64, &[u8])]) -> Bytes {
        let mut w = RecordWriter::new();
        for &(k, v) in recs {
            w.push(&Record::new(k, v.to_vec()));
        }
        w.finish()
    }

    #[test]
    fn sort_and_group_orders_keys_and_values() {
        let recs = vec![
            Record::new(2, &b"b"[..]),
            Record::new(1, &b"z"[..]),
            Record::new(2, &b"a"[..]),
            Record::new(1, &b"a"[..]),
        ];
        let groups = sort_and_group(recs);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, 1);
        assert_eq!(
            groups[0].1,
            vec![Bytes::from_static(b"a"), Bytes::from_static(b"z")]
        );
        assert_eq!(groups[1].0, 2);
        assert_eq!(
            groups[1].1,
            vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")]
        );
    }

    #[test]
    fn shuffle_accounts_locality_and_merges() {
        let store = MapOutputStore::new();
        let job = JobId(1);
        let r = ReduceTaskId::whole(job, PartitionId(0));
        for (i, node) in [(0u32, 0u32), (1, 5)] {
            let key = MapInputKey::new(job, PartitionId(0), i);
            let mut buckets = HashMap::new();
            buckets.insert(r, bucket(&[(i as u64, b"v")]));
            store.insert(key, NodeId(node), 0, buckets);
        }
        let inputs = vec![
            MapInputKey::new(job, PartitionId(0), 0),
            MapInputKey::new(job, PartitionId(0), 1),
        ];
        let res = shuffle_for_reduce(&store, &inputs, r, NodeId(0)).unwrap();
        assert_eq!(res.groups.len(), 2);
        assert!(res.local_bytes > 0, "bucket from node 0 is local");
        assert!(res.remote_bytes > 0, "bucket from node 5 is remote");
        assert_eq!(
            res.per_source,
            vec![(NodeId(0), res.local_bytes), (NodeId(5), res.remote_bytes)],
            "per-source attribution matches the locality split"
        );
    }

    #[test]
    fn missing_outputs_reported() {
        let store = MapOutputStore::new();
        let job = JobId(1);
        let r = ReduceTaskId::whole(job, PartitionId(0));
        let inputs = vec![MapInputKey::new(job, PartitionId(0), 0)];
        match shuffle_for_reduce(&store, &inputs, r, NodeId(0)) {
            Err(ShuffleFailure::MissingMapOutputs(m)) => assert_eq!(m, inputs),
            other => panic!("expected missing outputs, got {other:?}"),
        }
    }

    #[test]
    fn armed_flake_fails_transiently_then_clears() {
        let store = MapOutputStore::new();
        let job = JobId(1);
        let r = ReduceTaskId::whole(job, PartitionId(0));
        store.arm_flake(NodeId(0), 1);
        match shuffle_for_reduce(&store, &[], r, NodeId(0)) {
            Err(ShuffleFailure::Transient { node }) => assert_eq!(node, NodeId(0)),
            other => panic!("expected transient failure, got {other:?}"),
        }
        // The flake is consumed; the retry succeeds.
        assert!(shuffle_for_reduce(&store, &[], r, NodeId(0)).is_ok());
        // Other nodes were never affected.
        assert!(shuffle_for_reduce(&store, &[], r, NodeId(1)).is_ok());
    }

    #[test]
    fn corrupt_payload_names_the_map_output() {
        let store = MapOutputStore::new();
        let job = JobId(1);
        let r = ReduceTaskId::whole(job, PartitionId(0));
        let key = MapInputKey::new(job, PartitionId(0), 0);
        let mut buckets = HashMap::new();
        buckets.insert(r, Bytes::from_static(&[0xde, 0xad])); // truncated frame
        store.insert(key, NodeId(2), 0, buckets);
        match shuffle_for_reduce(&store, &[key], r, NodeId(0)) {
            Err(ShuffleFailure::Corrupt { key: k, .. }) => assert_eq!(k, key),
            other => panic!("expected corrupt failure, got {other:?}"),
        }
    }

    #[test]
    fn empty_inputs_empty_result() {
        let store = MapOutputStore::new();
        let r = ReduceTaskId::whole(JobId(1), PartitionId(0));
        let res = shuffle_for_reduce(&store, &[], r, NodeId(0)).unwrap();
        assert!(res.groups.is_empty());
        assert_eq!(res.local_bytes + res.remote_bytes, 0);
    }

    /// `insert` takes payloads unscanned, so a persisted whole bucket can
    /// be garbage; a split reducer narrowing it must get a typed failure
    /// naming the map output, on both paths.
    #[test]
    fn corrupt_whole_bucket_fails_a_split_reducer_with_its_key() {
        use rcmp_model::SplitId;
        let store = MapOutputStore::new();
        let job = JobId(1);
        let key = MapInputKey::new(job, PartitionId(0), 0);
        let mut buckets = HashMap::new();
        buckets.insert(
            ReduceTaskId::whole(job, PartitionId(0)),
            Bytes::from_static(&[0xde, 0xad]),
        );
        store.insert(key, NodeId(2), 0, buckets);
        let split = ReduceTaskId::split(job, PartitionId(0), SplitId(1), 2);
        for result in [
            shuffle_for_reduce(&store, &[key], split, NodeId(0)),
            shuffle_for_reduce_streaming(&store, &[key], split, NodeId(0), 64),
        ] {
            match result {
                Err(ShuffleFailure::Corrupt { key: k, .. }) => assert_eq!(k, key),
                other => panic!("expected corrupt failure, got {other:?}"),
            }
        }
        assert!(
            store.fetch_bucket_indexed(&key, split).is_none(),
            "a bucket that cannot be narrowed serves nothing"
        );
    }

    /// Builds a store with a mix of indexed (sorted) and legacy
    /// (unsorted, unindexed) buckets for one reducer.
    fn mixed_store(mappers: u32) -> (MapOutputStore, Vec<MapInputKey>, ReduceTaskId) {
        use crate::mapstore::BucketIndex;
        let store = MapOutputStore::new();
        let job = JobId(1);
        let r = ReduceTaskId::whole(job, PartitionId(0));
        let mut inputs = Vec::new();
        for i in 0..mappers {
            let key = MapInputKey::new(job, PartitionId(0), i);
            inputs.push(key);
            let base = u64::from(i);
            if i % 3 == 0 {
                // Unsorted legacy bucket: decoded + sorted at plan time.
                let payload = bucket(&[(base + 7, b"z"), (base, b"m"), (base + 3, b"a")]);
                let mut buckets = HashMap::new();
                buckets.insert(r, payload);
                store.insert(key, NodeId(i % 4), 0, buckets);
            } else {
                // Sorted, indexed bucket: streamed as a lazy run.
                let payload = bucket(&[(base, b"a"), (base, b"b"), (base + 5, b"c")]);
                let idx = BucketIndex {
                    records: 3,
                    bytes: payload.len() as u64,
                    min_key: base,
                    max_key: base + 5,
                    sorted: true,
                };
                let mut buckets = HashMap::new();
                buckets.insert(r, (payload, idx));
                store.insert_indexed(key, NodeId(i % 4), 0, buckets);
            }
        }
        (store, inputs, r)
    }

    #[test]
    fn streaming_merge_matches_legacy_oracle() {
        let (store, inputs, r) = mixed_store(9);
        let legacy = shuffle_for_reduce(&store, &inputs, r, NodeId(0)).unwrap();
        let streamed = shuffle_for_reduce_streaming(&store, &inputs, r, NodeId(0), 64).unwrap();
        assert_eq!(legacy.groups, streamed.groups);
        assert_eq!(legacy.local_bytes, streamed.local_bytes);
        assert_eq!(legacy.remote_bytes, streamed.remote_bytes);
        assert_eq!(legacy.per_source, streamed.per_source);
    }

    #[test]
    fn streaming_coalesces_beyond_merge_width_and_stays_exact() {
        let (store, inputs, r) = mixed_store(12);
        let legacy = shuffle_for_reduce(&store, &inputs, r, NodeId(1)).unwrap();
        let mut merge = StreamingShuffle::plan(&store, &inputs, r, NodeId(1), 3).unwrap();
        let mut groups = Vec::new();
        for g in &mut merge {
            groups.push(g.unwrap());
        }
        let stats = merge.stats();
        assert_eq!(legacy.groups, groups);
        assert!(stats.runs_coalesced > 0, "12 runs at width 3 must coalesce");
        assert!(stats.runs_merged <= 3);
        assert!(stats.heap_peak <= 3);
        assert!(stats.runs_presorted > 0);
        assert!(stats.index_bytes_skipped > 0);
    }

    #[test]
    fn streaming_reports_missing_and_transient_like_legacy() {
        let (store, mut inputs, r) = mixed_store(3);
        inputs.push(MapInputKey::new(JobId(1), PartitionId(0), 99));
        match shuffle_for_reduce_streaming(&store, &inputs, r, NodeId(0), 64) {
            Err(ShuffleFailure::MissingMapOutputs(m)) => {
                assert_eq!(m, vec![MapInputKey::new(JobId(1), PartitionId(0), 99)]);
            }
            other => panic!("expected missing outputs, got {other:?}"),
        }
        store.arm_flake(NodeId(0), 1);
        match shuffle_for_reduce_streaming(&store, &inputs[..3], r, NodeId(0), 64) {
            Err(ShuffleFailure::Transient { node }) => assert_eq!(node, NodeId(0)),
            other => panic!("expected transient failure, got {other:?}"),
        }
    }

    #[test]
    fn streaming_surfaces_corruption_at_plan_time() {
        let store = MapOutputStore::new();
        let job = JobId(1);
        let r = ReduceTaskId::whole(job, PartitionId(0));
        let key = MapInputKey::new(job, PartitionId(0), 0);
        let mut buckets = HashMap::new();
        buckets.insert(r, Bytes::from_static(&[0xde, 0xad]));
        store.insert(key, NodeId(2), 0, buckets);
        match shuffle_for_reduce_streaming(&store, &[key], r, NodeId(0), 64) {
            Err(ShuffleFailure::Corrupt { key: k, .. }) => assert_eq!(k, key),
            other => panic!("expected corrupt failure, got {other:?}"),
        }
    }
}
