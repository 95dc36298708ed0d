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
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// Fan-in cap of a reducer's top-level merge heap: past this many
/// sorted runs, the smallest go under one nested merger (see
/// [`StreamingShuffle::plan`]).
pub(crate) const MAX_MERGE_WIDTH: u32 = 64;

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
}

/// What one reducer fetched: the non-empty payloads in `inputs` order
/// plus their locality accounting.
struct Fetched {
    payloads: Vec<(MapInputKey, Bytes, BucketIndex)>,
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

/// Counters a [`StreamingShuffle`] accumulates while planning and
/// merging, mirrored into the `shuffle.*` metrics by the tracker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Runs feeding the top-level heap (the nested merger counts as one).
    pub runs_merged: u64,
    /// Runs whose bucket index attested sortedness, streamed without a
    /// decode-and-sort pass.
    pub runs_presorted: u64,
    /// Payload bytes of those pre-sorted runs — bytes the index let the
    /// reducer skip re-sorting.
    pub index_bytes_skipped: u64,
    /// Empty buckets skipped without decoding anything.
    pub empty_runs_skipped: u64,
    /// Runs placed under the nested merger because the fan-in exceeded
    /// the merge width.
    pub runs_coalesced: u64,
    /// Peak size of the top-level heap (bounded by the merge width).
    pub heap_peak: u64,
}

/// Where one key-sorted run's records come from.
enum Source {
    /// A bucket whose index attests `(key, value)` order: decoded
    /// lazily, one record per heap pop, never buffered as a whole.
    Lazy {
        reader: RecordReader,
        key: MapInputKey,
    },
    /// A bucket whose index does not attest order, decoded and sorted
    /// at plan time.
    Sorted(std::vec::IntoIter<Record>),
    /// The runs beyond the fan-in cap, merged as they are read.
    Nested(Box<Merger>),
}

impl Source {
    #[inline(always)]
    fn next(&mut self) -> std::result::Result<Option<Record>, ShuffleFailure> {
        match self {
            Source::Lazy { reader, key } => match reader.next() {
                None => Ok(None),
                Some(Ok(rec)) => Ok(Some(rec)),
                Some(Err(e)) => Err(ShuffleFailure::Corrupt {
                    key: *key,
                    source: e,
                }),
            },
            Source::Sorted(records) => Ok(records.next()),
            Source::Nested(merger) => merger.pop(),
        }
    }
}

/// A run with its head record split in two: the key sits in the
/// merger's heap, the value is parked here — so a heap entry is 16
/// bytes and a sift never moves or compares a [`Bytes`].
struct Cursor {
    source: Source,
    /// `Some` while the run has a head record.
    value: Option<Bytes>,
}

impl Cursor {
    /// Steps past the head record: returns its value, and the key of
    /// the record that is the head now (`None` once the run is spent).
    #[inline(always)]
    fn step(&mut self) -> std::result::Result<(Bytes, Option<u64>), ShuffleFailure> {
        let head = self
            .value
            .as_mut()
            .expect("a cursor in the heap has a head");
        match self.source.next()? {
            Some(rec) => Ok((std::mem::replace(head, rec.value), Some(rec.key))),
            None => Ok((self.value.take().expect("checked above"), None)),
        }
    }
}

/// Binary-heap merge of key-sorted runs into one key-ordered stream.
///
/// Heads are ordered by `(key, run)` only: records of one key leave in
/// run order, not value order, and whoever consumes a key group sorts
/// its values (a no-op for the common one-value group).
struct Merger {
    cursors: Vec<Cursor>,
    /// `(key, run)` of every unspent run's head, smallest on top.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
}

impl Merger {
    /// Reads every run's first record, so corruption there surfaces now.
    fn new(sources: Vec<Source>) -> std::result::Result<Self, ShuffleFailure> {
        let mut cursors = Vec::with_capacity(sources.len());
        let mut heads = Vec::with_capacity(sources.len());
        for (run, mut source) in sources.into_iter().enumerate() {
            let head = source.next()?;
            if let Some(rec) = &head {
                heads.push(Reverse((rec.key, run)));
            }
            cursors.push(Cursor {
                source,
                value: head.map(|rec| rec.value),
            });
        }
        Ok(Self {
            cursors,
            heap: heads.into(),
        })
    }

    /// Replaces the top head in place with its run's next record: one
    /// sift-down instead of a pop + push (runs are sorted, so the
    /// replacement can only move down). Returns the old head's value.
    #[inline(always)]
    fn step_top(
        cursors: &mut [Cursor],
        mut top: PeekMut<'_, Reverse<(u64, usize)>>,
    ) -> std::result::Result<Bytes, ShuffleFailure> {
        let (value, next) = cursors[top.0 .1].step()?;
        match next {
            Some(key) => top.0 .0 = key,
            None => {
                PeekMut::pop(top);
            }
        }
        Ok(value)
    }

    /// Removes the smallest-keyed record (how a nested merger serves
    /// its parent). This call closes the `Source` → `Merger` → `Cursor`
    /// → `Source` cycle; keeping it out of line, and the three small
    /// steps inside the cycle always inline, lets the inliner flatten
    /// the per-record path into the group loop (measured 82 → 74 ns per
    /// record on the 64-run probe shape).
    #[inline(never)]
    fn pop(&mut self) -> std::result::Result<Option<Record>, ShuffleFailure> {
        let Some(top) = self.heap.peek_mut() else {
            return Ok(None);
        };
        let key = top.0 .0;
        let value = Self::step_top(&mut self.cursors, top)?;
        Ok(Some(Record { key, value }))
    }

    /// Moves every value of the smallest key into `values`, in run
    /// order, and returns that key.
    fn pop_group(
        &mut self,
        values: &mut Vec<Bytes>,
    ) -> std::result::Result<Option<u64>, ShuffleFailure> {
        let Some(&Reverse((key, _))) = self.heap.peek() else {
            return Ok(None);
        };
        while let Some(top) = self.heap.peek_mut() {
            if top.0 .0 != key {
                break;
            }
            values.push(Self::step_top(&mut self.cursors, top)?);
        }
        Ok(Some(key))
    }
}

/// A planned reducer shuffle that yields key groups **incrementally**
/// from a binary-heap merge over per-mapper sorted runs, instead of
/// collecting and sorting the whole reducer input (§IV-B2's bottleneck).
///
/// Peak memory is bounded by the fetched payloads, not by a decoded
/// copy of the reducer's input: pre-sorted buckets stream
/// record-at-a-time straight out of the payload, at the top level and
/// under the nested merger alike.
///
/// Byte-identity invariant: the concatenation of the yielded groups is
/// exactly [`sort_and_group`] of the same records, the reference the
/// tests hold the merge to.
pub struct StreamingShuffle {
    merger: Merger,
    stats: MergeStats,
    /// Locality accounting: payload bytes served by `node` itself, by
    /// other nodes, and per serving node (ascending).
    pub local_bytes: u64,
    pub remote_bytes: u64,
    pub per_source: Vec<(NodeId, u64)>,
    failed: bool,
}

impl StreamingShuffle {
    /// Fetches every bucket in one pass over the store, and prepares the
    /// merge runs. Buckets not attested sorted are decoded and sorted
    /// here, so corruption in them surfaces at plan time; a pre-sorted
    /// bucket is only read as far as its first record. At most `width`
    /// runs (at least 2) feed the top-level heap; the engine passes
    /// 64.
    pub fn plan(
        store: &MapOutputStore,
        inputs: &[MapInputKey],
        reduce: ReduceTaskId,
        node: NodeId,
        width: u32,
    ) -> std::result::Result<Self, ShuffleFailure> {
        let fetched = fetch(store, inputs, reduce, node)?;
        let mut stats = MergeStats {
            empty_runs_skipped: (inputs.len() - fetched.payloads.len()) as u64,
            ..MergeStats::default()
        };
        // Each run with its payload size, the coalescing criterion.
        let mut runs: Vec<(usize, Source)> = Vec::with_capacity(fetched.payloads.len());
        for (key, payload, index) in fetched.payloads {
            let bytes = payload.len();
            let source = if index.sorted {
                stats.runs_presorted += 1;
                stats.index_bytes_skipped += bytes as u64;
                Source::Lazy {
                    reader: RecordReader::new(payload),
                    key,
                }
            } else {
                let mut records = match RecordReader::decode_all(payload) {
                    Ok(r) => r,
                    Err(e) => return Err(ShuffleFailure::Corrupt { key, source: e }),
                };
                records
                    .sort_unstable_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
                Source::Sorted(records.into_iter())
            };
            runs.push((bytes, source));
        }

        // Cap the fan-in: the smallest runs (ties in input order) go
        // under one nested merger, which feeds the top-level heap as a
        // single run — so the bulk of the bytes crosses one small heap,
        // and nothing is decoded ahead of the merge.
        let sources_of =
            |runs: Vec<(usize, Source)>| runs.into_iter().map(|(_, s)| s).collect::<Vec<_>>();
        let width = width.max(2) as usize;
        let sources = if runs.len() > width {
            let excess = runs.len() - width + 1;
            runs.sort_by_key(|&(bytes, _)| bytes);
            let mut top = sources_of(runs.split_off(excess));
            top.push(Source::Nested(Box::new(Merger::new(sources_of(runs))?)));
            stats.runs_coalesced = excess as u64;
            top
        } else {
            sources_of(runs)
        };
        stats.runs_merged = sources.len() as u64;

        let merger = Merger::new(sources)?;
        stats.heap_peak = merger.heap.len() as u64;
        Ok(Self {
            merger,
            stats,
            local_bytes: fetched.local_bytes,
            remote_bytes: fetched.remote_bytes,
            per_source: fetched.per_source,
            failed: false,
        })
    }

    /// Merge counters (fixed once planned).
    pub fn stats(&self) -> MergeStats {
        self.stats
    }

    /// Lends the next key group through the caller's buffer: clears
    /// `values`, fills it with the group's values sorted byte-wise, and
    /// returns the group's key (ascending from call to call). `None`
    /// once the merge is drained, and after the first error.
    pub fn next_group_into(
        &mut self,
        values: &mut Vec<Bytes>,
    ) -> Option<std::result::Result<u64, ShuffleFailure>> {
        values.clear();
        if self.failed {
            return None;
        }
        match self.merger.pop_group(values) {
            Ok(key) => {
                // The heap orders by key alone; a one-value group (the
                // common case) is already in value order.
                if values.len() > 1 {
                    values.sort_unstable();
                }
                key.map(Ok)
            }
            Err(e) => {
                self.failed = true;
                values.clear();
                Some(Err(e))
            }
        }
    }
}

impl Iterator for StreamingShuffle {
    type Item = std::result::Result<(u64, Vec<Bytes>), ShuffleFailure>;

    /// Yields the next key group: ascending keys, values sorted
    /// byte-wise within the group.
    fn next(&mut self) -> Option<Self::Item> {
        let mut values = Vec::new();
        let key = self.next_group_into(&mut values)?;
        Some(key.map(|key| (key, values)))
    }
}

/// Sorts records by (key, value) and groups values per key: the
/// reference a [`StreamingShuffle`]'s groups must equal.
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
    use proptest::prelude::*;
    use rcmp_model::{JobId, PartitionId, RecordWriter};
    use std::collections::HashMap;

    /// One reducer's whole shuffle: its groups and locality accounting.
    #[derive(Debug, PartialEq)]
    struct Shuffled {
        groups: Vec<(u64, Vec<Bytes>)>,
        local_bytes: u64,
        remote_bytes: u64,
        per_source: Vec<(NodeId, u64)>,
    }

    /// The sort-all oracle: the same fetch, then every record decoded
    /// and handed to [`sort_and_group`].
    fn sort_all(
        store: &MapOutputStore,
        inputs: &[MapInputKey],
        reduce: ReduceTaskId,
        node: NodeId,
    ) -> std::result::Result<Shuffled, ShuffleFailure> {
        let fetched = fetch(store, inputs, reduce, node)?;
        let mut records = Vec::new();
        for (key, payload, _) in fetched.payloads {
            let decoded = RecordReader::decode_all(payload)
                .map_err(|e| ShuffleFailure::Corrupt { key, source: e })?;
            records.extend(decoded);
        }
        Ok(Shuffled {
            groups: sort_and_group(records),
            local_bytes: fetched.local_bytes,
            remote_bytes: fetched.remote_bytes,
            per_source: fetched.per_source,
        })
    }

    /// The streaming merge at the engine's width, drained.
    fn streamed(
        store: &MapOutputStore,
        inputs: &[MapInputKey],
        reduce: ReduceTaskId,
        node: NodeId,
    ) -> std::result::Result<Shuffled, ShuffleFailure> {
        let mut merge = StreamingShuffle::plan(store, inputs, reduce, node, MAX_MERGE_WIDTH)?;
        let groups = merge.by_ref().collect::<std::result::Result<_, _>>()?;
        Ok(Shuffled {
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

    /// Stores `payload` as reducer `r`'s bucket of map output `key`
    /// under an index that attests only its size, not its order — so
    /// any bytes, even corrupt ones, go in unscanned.
    fn insert_unsorted(
        store: &MapOutputStore,
        key: MapInputKey,
        node: NodeId,
        r: ReduceTaskId,
        payload: Bytes,
    ) {
        let idx = BucketIndex {
            bytes: payload.len() as u64,
            sorted: false,
            ..BucketIndex::empty()
        };
        store.insert_indexed(key, node, 0, HashMap::from([(r, (payload, idx))]));
    }

    /// A sorted, indexed single-bucket map output for reducer `r`.
    fn insert_sorted(store: &MapOutputStore, key: MapInputKey, r: ReduceTaskId, payload: Bytes) {
        let idx = BucketIndex {
            bytes: payload.len() as u64,
            ..BucketIndex::empty()
        };
        store.insert_indexed(key, NodeId(0), 0, HashMap::from([(r, (payload, idx))]));
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
            insert_unsorted(&store, key, NodeId(node), r, bucket(&[(i as u64, b"v")]));
        }
        let inputs = vec![
            MapInputKey::new(job, PartitionId(0), 0),
            MapInputKey::new(job, PartitionId(0), 1),
        ];
        let res = streamed(&store, &inputs, r, NodeId(0)).unwrap();
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
        let (store, mut inputs, r) = mixed_store(3);
        let gone = MapInputKey::new(JobId(1), PartitionId(0), 99);
        inputs.push(gone);
        match streamed(&store, &inputs, r, NodeId(0)) {
            Err(ShuffleFailure::MissingMapOutputs(m)) => assert_eq!(m, vec![gone]),
            other => panic!("expected missing outputs, got {other:?}"),
        }
    }

    /// A bucket not attested sorted is decoded at plan time, so its
    /// corruption fails the plan and names the map output.
    #[test]
    fn corrupt_payload_names_the_map_output_at_plan_time() {
        let store = MapOutputStore::new();
        let job = JobId(1);
        let r = ReduceTaskId::whole(job, PartitionId(0));
        let key = MapInputKey::new(job, PartitionId(0), 0);
        // A truncated frame.
        insert_unsorted(&store, key, NodeId(2), r, Bytes::from_static(&[0xde, 0xad]));
        match StreamingShuffle::plan(&store, &[key], r, NodeId(0), MAX_MERGE_WIDTH) {
            Err(ShuffleFailure::Corrupt { key: k, .. }) => assert_eq!(k, key),
            Err(other) => panic!("expected corrupt failure, got {other:?}"),
            Ok(_) => panic!("expected corrupt failure, got a plan"),
        }
    }

    #[test]
    fn empty_inputs_empty_result() {
        let store = MapOutputStore::new();
        let r = ReduceTaskId::whole(JobId(1), PartitionId(0));
        let res = streamed(&store, &[], r, NodeId(0)).unwrap();
        assert!(res.groups.is_empty());
        assert_eq!(res.local_bytes + res.remote_bytes, 0);
    }

    /// A persisted whole bucket can be garbage; a split reducer
    /// narrowing it must get a typed failure naming the map output.
    #[test]
    fn corrupt_whole_bucket_fails_a_split_reducer_with_its_key() {
        use rcmp_model::SplitId;
        let store = MapOutputStore::new();
        let job = JobId(1);
        let key = MapInputKey::new(job, PartitionId(0), 0);
        let whole = ReduceTaskId::whole(job, PartitionId(0));
        insert_unsorted(
            &store,
            key,
            NodeId(2),
            whole,
            Bytes::from_static(&[0xde, 0xad]),
        );
        let split = ReduceTaskId::split(job, PartitionId(0), SplitId(1), 2);
        match streamed(&store, &[key], split, NodeId(0)) {
            Err(ShuffleFailure::Corrupt { key: k, .. }) => assert_eq!(k, key),
            other => panic!("expected corrupt failure, got {other:?}"),
        }
        assert!(
            store.fetch_bucket_indexed(&key, split).is_none(),
            "a bucket that cannot be narrowed serves nothing"
        );
    }

    /// Builds a store with a mix of sorted and unsorted buckets for one
    /// reducer.
    fn mixed_store(mappers: u32) -> (MapOutputStore, Vec<MapInputKey>, ReduceTaskId) {
        let store = MapOutputStore::new();
        let job = JobId(1);
        let r = ReduceTaskId::whole(job, PartitionId(0));
        let mut inputs = Vec::new();
        for i in 0..mappers {
            let key = MapInputKey::new(job, PartitionId(0), i);
            inputs.push(key);
            let base = u64::from(i);
            if i % 3 == 0 {
                // Unsorted bucket: decoded + sorted at plan time.
                let payload = bucket(&[(base + 7, b"z"), (base, b"m"), (base + 3, b"a")]);
                insert_unsorted(&store, key, NodeId(i % 4), r, payload);
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
    fn streaming_merge_matches_sort_all_oracle() {
        let (store, inputs, r) = mixed_store(9);
        let oracle = sort_all(&store, &inputs, r, NodeId(0)).unwrap();
        assert_eq!(streamed(&store, &inputs, r, NodeId(0)).unwrap(), oracle);
    }

    #[test]
    fn streaming_coalesces_beyond_merge_width_and_stays_exact() {
        let (store, inputs, r) = mixed_store(12);
        let oracle = sort_all(&store, &inputs, r, NodeId(1)).unwrap();
        let mut merge = StreamingShuffle::plan(&store, &inputs, r, NodeId(1), 3).unwrap();
        let mut groups = Vec::new();
        for g in &mut merge {
            groups.push(g.unwrap());
        }
        let stats = merge.stats();
        assert_eq!(oracle.groups, groups);
        // 12 runs at width 3: ten go under the nested merger, which is
        // the third run of a top-level heap of three.
        assert_eq!(stats.runs_coalesced, 10);
        assert_eq!(stats.runs_merged, 3);
        assert_eq!(stats.heap_peak, 3);
        assert_eq!(stats.runs_presorted, 8);
        assert!(stats.index_bytes_skipped > 0);
    }

    /// The runs that go under the nested merger are the smallest by
    /// payload bytes, whatever their position in `inputs`.
    #[test]
    fn coalescing_picks_the_smallest_runs_by_payload_bytes() {
        let store = MapOutputStore::new();
        let job = JobId(1);
        let r = ReduceTaskId::whole(job, PartitionId(0));
        let mut inputs = Vec::new();
        // Values of 1, 50, 2, 60, 2 bytes: at width 3 the 1-byte run
        // and both 2-byte runs (inputs 0, 2, 4) are coalesced.
        for (i, len) in [1usize, 50, 2, 60, 2].into_iter().enumerate() {
            let key = MapInputKey::new(job, PartitionId(0), i as u32);
            inputs.push(key);
            insert_sorted(&store, key, r, bucket(&[(i as u64, &vec![b'x'; len])]));
        }
        let merge = StreamingShuffle::plan(&store, &inputs, r, NodeId(0), 3).unwrap();
        assert_eq!(merge.stats().runs_coalesced, 3);
        assert_eq!(merge.stats().runs_merged, 3);
        let Source::Nested(nested) = &merge.merger.cursors[2].source else {
            panic!("the nested merger is the last top-level run");
        };
        let nested_runs: Vec<MapInputKey> = nested
            .cursors
            .iter()
            .map(|c| match &c.source {
                Source::Lazy { key, .. } => *key,
                _ => panic!("every run here is pre-sorted"),
            })
            .collect();
        assert_eq!(nested_runs, vec![inputs[0], inputs[2], inputs[4]]);
        let keys: Vec<u64> = merge.map(|g| g.unwrap().0).collect();
        assert_eq!(keys, vec![0, 1, 2, 3, 4]);
    }

    /// A pre-sorted run is decoded as it is merged, so a payload whose
    /// tail is garbage fails mid-stream — also under the nested merger —
    /// with the map output's key, after groups before it came out.
    #[test]
    fn corruption_inside_the_nested_merger_names_its_map_output() {
        let store = MapOutputStore::new();
        let job = JobId(1);
        let r = ReduceTaskId::whole(job, PartitionId(0));
        let mut inputs = Vec::new();
        for i in 0..6u32 {
            let key = MapInputKey::new(job, PartitionId(0), i);
            inputs.push(key);
            let k = u64::from(i);
            let payload = if i == 1 {
                // The smallest payload, so it goes under the nested
                // merger: its first record decodes, its second is cut.
                let whole = bucket(&[(50, b"v"), (51, b"w")]);
                whole.slice(..whole.len() - 1)
            } else {
                bucket(&[(k, b"v"), (k + 10, b"w"), (k + 20, b"x")])
            };
            insert_sorted(&store, key, r, payload);
        }
        let mut merge = StreamingShuffle::plan(&store, &inputs, r, NodeId(0), 2).unwrap();
        assert_eq!(merge.stats().runs_coalesced, 5);
        let mut values = Vec::new();
        let mut keys = Vec::new();
        let failure = loop {
            match merge.next_group_into(&mut values) {
                Some(Ok(key)) => keys.push(key),
                Some(Err(e)) => break e,
                None => panic!("the cut record was never reached"),
            }
        };
        match failure {
            ShuffleFailure::Corrupt { key, .. } => assert_eq!(key, inputs[1]),
            other => panic!("expected corrupt failure, got {other:?}"),
        }
        assert!(values.is_empty(), "a failed group lends nothing");
        assert!(merge.next_group_into(&mut values).is_none(), "fused");
        assert!(keys.len() >= 10, "mid-stream, not at plan time: {keys:?}");
        assert!(keys.windows(2).all(|w| w[0] < w[1]) && keys.iter().all(|&k| k < 50));
    }

    /// One generated run: its records (few distinct keys; values empty,
    /// or prefixes of one another) and whether it is stored sorted and
    /// attested so, or unsorted under an index that attests no order.
    fn run_strategy() -> impl Strategy<Value = (Vec<(u64, Vec<u8>)>, bool)> {
        let value = prop_oneof![
            Just(Vec::new()),
            Just(b"a".to_vec()),
            Just(b"ab".to_vec()),
            Just(b"abc".to_vec()),
            Just(b"b".to_vec()),
        ];
        (
            prop::collection::vec((0u64..6, value), 0..8),
            prop::bool::ANY,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn streaming_merge_equals_sort_and_group_at_every_width(
            runs in prop::collection::vec(run_strategy(), 1..200)
        ) {
            let store = MapOutputStore::new();
            let job = JobId(1);
            let r = ReduceTaskId::whole(job, PartitionId(0));
            let mut inputs = Vec::new();
            let mut all = Vec::new();
            let mut non_empty = 0u64;
            for (i, (recs, indexed)) in runs.iter().enumerate() {
                let key = MapInputKey::new(job, PartitionId(0), i as u32);
                inputs.push(key);
                non_empty += u64::from(!recs.is_empty());
                let mut recs: Vec<Record> =
                    recs.iter().map(|(k, v)| Record::new(*k, v.clone())).collect();
                all.extend(recs.iter().cloned());
                let encode = |recs: &[Record]| {
                    let mut w = RecordWriter::new();
                    recs.iter().for_each(|rec| w.push(rec));
                    w.finish()
                };
                if *indexed {
                    recs.sort();
                    insert_sorted(&store, key, r, encode(&recs));
                } else {
                    insert_unsorted(&store, key, NodeId(0), r, encode(&recs));
                }
            }
            let expect = sort_and_group(all);
            for width in [2u32, 3, 64] {
                let mut merge = StreamingShuffle::plan(&store, &inputs, r, NodeId(0), width)
                    .unwrap_or_else(|e| panic!("plan failed: {e:?}"));
                let stats = merge.stats();
                let coalesced = match non_empty.checked_sub(u64::from(width)) {
                    Some(over) if over > 0 => over + 1,
                    _ => 0,
                };
                prop_assert_eq!(stats.runs_coalesced, coalesced, "width {}", width);
                prop_assert_eq!(stats.runs_merged, non_empty.min(u64::from(width)));
                prop_assert!(stats.heap_peak <= u64::from(width));
                prop_assert_eq!(stats.empty_runs_skipped, runs.len() as u64 - non_empty);
                let groups: Vec<_> = merge.by_ref().map(|g| g.unwrap()).collect();
                prop_assert_eq!(&groups, &expect, "width {}", width);
            }
        }
    }
}
