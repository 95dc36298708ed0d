//! The map-output store against a naive reference.
//!
//! The store keeps per-job shards, ordered map entries, reducer-major
//! posting lists and a backlog of not-yet-indexed inserts; the model is
//! the obvious `HashMap<MapInputKey, HashMap<ReduceTaskId, _>>` with a
//! lookup per (reducer, mapper) pair. Random operation sequences must
//! leave both answering every shuffle identically. A second test plans
//! shuffles while another job inserts and a node is dropped.

use bytes::Bytes;
use proptest::prelude::*;
use rcmp_engine::mapstore::{BucketIndex, MapInputKey, MapOutputStore};
use rcmp_engine::shuffle::sort_and_group;
use rcmp_engine::{MergeStats, ShuffleFailure, StreamingShuffle};
use rcmp_model::{
    JobId, NodeId, PartitionId, Record, RecordReader, RecordWriter, ReduceTaskId, SplitId,
    SplitPartitioner,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Barrier;

const JOBS: u32 = 2;
const PIDS: u32 = 2;
const BLOCKS: u32 = 4;
const NODES: u32 = 4;
const REDUCERS: u32 = 2;
/// Wider than any generated input list, so the merge never coalesces
/// and its counters follow from the fetched buckets alone.
const WIDTH: u32 = 64;

fn encode(records: &[Record]) -> Bytes {
    let mut w = RecordWriter::new();
    for r in records {
        w.push(r);
    }
    w.finish()
}

fn index_of(records: &[Record], bytes: usize, sorted: bool) -> BucketIndex {
    BucketIndex {
        records: records.len() as u64,
        bytes: bytes as u64,
        min_key: records.iter().map(|r| r.key).min().unwrap_or(0),
        max_key: records.iter().map(|r| r.key).max().unwrap_or(0),
        sorted,
    }
}

type Bucket = (Bytes, BucketIndex);

#[derive(Default)]
struct Model {
    outputs: HashMap<MapInputKey, (NodeId, u64, HashMap<ReduceTaskId, Bucket>)>,
}

impl Model {
    /// The per-pair lookup the store replaced, split fallback included.
    fn fetch(
        &self,
        key: &MapInputKey,
        reduce: ReduceTaskId,
    ) -> Option<(Bytes, NodeId, BucketIndex)> {
        let (node, _, buckets) = self.outputs.get(key)?;
        if let Some((data, index)) = buckets.get(&reduce) {
            return Some((data.clone(), *node, *index));
        }
        let whole = ReduceTaskId::whole(reduce.job, reduce.partition);
        if let (Some((split, of)), Some((data, index))) = (reduce.split, buckets.get(&whole)) {
            let part = SplitPartitioner::new(of);
            let kept: Vec<Record> = RecordReader::decode_all(data.clone())
                .expect("the model stores well-formed buckets")
                .into_iter()
                .filter(|r| part.split_of(r.key) == split)
                .collect();
            let payload = encode(&kept);
            let narrowed = BucketIndex {
                min_key: kept.first().map_or(0, |r| r.key),
                max_key: kept.last().map_or(0, |r| r.key),
                ..index_of(&kept, payload.len(), index.sorted)
            };
            return Some((payload, *node, narrowed));
        }
        Some((Bytes::new(), *node, BucketIndex::empty()))
    }

    fn shuffle(
        &self,
        inputs: &[MapInputKey],
        reduce: ReduceTaskId,
        node: NodeId,
    ) -> Result<Shuffled, Vec<MapInputKey>> {
        let mut missing = Vec::new();
        let mut out = Shuffled::default();
        let mut per_source = BTreeMap::new();
        let mut records = Vec::new();
        for key in inputs {
            let Some((payload, source, index)) = self.fetch(key, reduce) else {
                missing.push(*key);
                continue;
            };
            let len = payload.len() as u64;
            if source == node {
                out.local_bytes += len;
            } else {
                out.remote_bytes += len;
            }
            *per_source.entry(source).or_insert(0) += len;
            if payload.is_empty() {
                out.stats.empty_runs_skipped += 1;
                continue;
            }
            out.stats.runs_merged += 1;
            out.stats.heap_peak += 1;
            if index.sorted {
                out.stats.runs_presorted += 1;
                out.stats.index_bytes_skipped += len;
            }
            records.extend(RecordReader::decode_all(payload).expect("well-formed"));
        }
        if !missing.is_empty() {
            return Err(missing);
        }
        out.groups = sort_and_group(records);
        out.per_source = per_source.into_iter().collect();
        Ok(out)
    }

    fn keys_for_job(&self, job: JobId) -> Vec<MapInputKey> {
        let mut keys: Vec<_> = self
            .outputs
            .keys()
            .filter(|k| k.job == job)
            .copied()
            .collect();
        keys.sort();
        keys
    }

    fn total_bytes(&self) -> u64 {
        let payloads = self.outputs.values().flat_map(|(_, _, b)| b.values());
        payloads.map(|(data, _)| data.len() as u64).sum()
    }
}

#[derive(Debug, Default, PartialEq)]
struct Shuffled {
    groups: Vec<(u64, Vec<Bytes>)>,
    local_bytes: u64,
    remote_bytes: u64,
    per_source: Vec<(NodeId, u64)>,
    stats: MergeStats,
}

/// What the streaming path yields, in the model's shape.
fn streamed(
    store: &MapOutputStore,
    inputs: &[MapInputKey],
    reduce: ReduceTaskId,
    node: NodeId,
) -> Result<Shuffled, Vec<MapInputKey>> {
    let mut merge = match StreamingShuffle::plan(store, inputs, reduce, node, WIDTH) {
        Ok(merge) => merge,
        Err(ShuffleFailure::MissingMapOutputs(missing)) => return Err(missing),
        Err(other) => panic!("no corruption or flake was injected: {other:?}"),
    };
    let groups = merge.by_ref().map(|g| g.expect("well-formed")).collect();
    Ok(Shuffled {
        groups,
        local_bytes: merge.local_bytes,
        remote_bytes: merge.remote_bytes,
        stats: merge.stats(),
        per_source: merge.per_source,
    })
}

#[derive(Clone, Debug)]
enum BucketKind {
    /// Sorted payload with an index attesting it (the mapper's output).
    Indexed,
    /// Indexed, but not attested sorted.
    IndexedUnsorted,
    /// Arbitrary order under an index that attests only the payload
    /// size, as a store must accept unscanned bytes.
    Plain,
}

#[derive(Clone, Debug)]
struct BucketSpec {
    reduce: ReduceTaskId,
    /// Empty for an explicitly stored empty bucket.
    records: Vec<(u64, u8)>,
    kind: BucketKind,
}

#[derive(Clone, Debug)]
enum Op {
    Insert {
        key: MapInputKey,
        node: NodeId,
        hash: u64,
        buckets: Vec<BucketSpec>,
    },
    Remove(MapInputKey),
    DropNode(NodeId),
    ClearJob(JobId),
    Shuffle {
        reduce: ReduceTaskId,
        node: NodeId,
        /// How the input list is derived from the keys stored for the
        /// reducer's job when the shuffle runs; see [`inputs_for`].
        shape: u32,
        extra: Vec<MapInputKey>,
    },
    Fetch(MapInputKey, ReduceTaskId),
}

fn key() -> impl Strategy<Value = MapInputKey> {
    (1..=JOBS, 0..PIDS, 0..BLOCKS)
        .prop_map(|(j, p, b)| MapInputKey::new(JobId(j), PartitionId(p), b))
}

fn reduce_task() -> impl Strategy<Value = ReduceTaskId> {
    // Few distinct tasks, half of them whole, so that posting lists grow
    // past one entry and split tasks meet persisted whole buckets.
    (1..=JOBS, 0..REDUCERS, 0u32..4, 0u32..6).prop_map(|(j, p, of, i)| match of {
        0 | 1 => ReduceTaskId::whole(JobId(j), PartitionId(p)),
        _ => ReduceTaskId::split(JobId(j), PartitionId(p), SplitId(i % of), of),
    })
}

fn bucket() -> impl Strategy<Value = BucketSpec> {
    let kind = prop_oneof![
        Just(BucketKind::Indexed),
        Just(BucketKind::Indexed),
        Just(BucketKind::IndexedUnsorted),
        Just(BucketKind::Plain),
    ];
    let records = prop::collection::vec((0u64..12, any::<u8>()), 0..5);
    (reduce_task(), records, kind).prop_map(|(reduce, records, kind)| BucketSpec {
        reduce,
        records,
        kind,
    })
}

fn insert_op() -> impl Strategy<Value = Op> {
    (
        key(),
        0..NODES,
        0u64..3,
        prop::collection::vec(bucket(), 0..5),
    )
        .prop_map(|(key, node, hash, mut buckets)| {
            // A mapper's buckets belong to its own job.
            for b in &mut buckets {
                b.reduce.job = key.job;
            }
            Op::Insert {
                key,
                node: NodeId(node),
                hash,
                buckets,
            }
        })
}

fn op() -> impl Strategy<Value = Op> {
    let shuffle = (
        reduce_task(),
        0..NODES,
        0u32..6,
        prop::collection::vec(key(), 0..4),
    )
        .prop_map(|(reduce, node, shape, extra)| Op::Shuffle {
            reduce,
            node: NodeId(node),
            shape,
            extra,
        });
    // Inserts are listed twice: they dominate real traffic, and stores
    // must fill for the other operations to mean anything.
    prop_oneof![
        insert_op(),
        insert_op(),
        key().prop_map(Op::Remove),
        (0..NODES).prop_map(|n| Op::DropNode(NodeId(n))),
        (1..=JOBS).prop_map(|j| Op::ClearJob(JobId(j))),
        shuffle,
        (key(), reduce_task()).prop_map(|(k, r)| Op::Fetch(k, r)),
    ]
}

/// The input list of a generated shuffle, given the keys its job has
/// stored right now.
fn inputs_for(stored: Vec<MapInputKey>, shape: u32, extra: &[MapInputKey]) -> Vec<MapInputKey> {
    let mut inputs = stored;
    match shape {
        // The tracker's list: the job's keys, ascending, all present.
        0 | 1 => {}
        // A stale store: it holds keys the job no longer asks for.
        2 => inputs.retain(|k| !extra.contains(k)),
        // Still ascending, with repeats and keys that may be absent or
        // another job's.
        3 => {
            inputs.extend_from_slice(extra);
            inputs.sort();
        }
        // No order, with repeats.
        _ => {
            inputs.reverse();
            inputs.extend_from_slice(extra);
        }
    }
    inputs
}

fn apply_insert(
    store: &MapOutputStore,
    model: &mut Model,
    key: MapInputKey,
    node: NodeId,
    hash: u64,
    specs: &[BucketSpec],
) {
    let mut stored: HashMap<ReduceTaskId, Bucket> = HashMap::new();
    for spec in specs {
        let mut records: Vec<Record> = spec
            .records
            .iter()
            .map(|&(k, v)| Record::new(k, vec![v]))
            .collect();
        let sorted = matches!(spec.kind, BucketKind::Indexed);
        if sorted {
            records.sort_by(|a, b| a.key.cmp(&b.key).then_with(|| a.value.cmp(&b.value)));
        }
        let payload = encode(&records);
        let index = match spec.kind {
            BucketKind::Plain => BucketIndex {
                bytes: payload.len() as u64,
                sorted: false,
                ..BucketIndex::empty()
            },
            _ => index_of(&records, payload.len(), sorted),
        };
        stored.insert(spec.reduce, (payload, index));
    }
    store.insert_indexed(key, node, hash, stored.clone());
    model.outputs.insert(key, (node, hash, stored));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn store_and_naive_reference_answer_every_shuffle_alike(
        ops in prop::collection::vec(op(), 1..80)
    ) {
        let store = MapOutputStore::new();
        let mut model = Model::default();
        for op in &ops {
            match op {
                Op::Insert { key, node, hash, buckets } => {
                    apply_insert(&store, &mut model, *key, *node, *hash, buckets);
                }
                Op::Remove(key) => {
                    prop_assert_eq!(store.remove(key), model.outputs.remove(key).is_some());
                }
                Op::DropNode(node) => {
                    let before = model.outputs.len();
                    model.outputs.retain(|_, (n, _, _)| n != node);
                    prop_assert_eq!(store.drop_node(*node), before - model.outputs.len());
                }
                Op::ClearJob(job) => {
                    let before = model.outputs.len();
                    model.outputs.retain(|k, _| k.job != *job);
                    prop_assert_eq!(store.clear_job(*job), before - model.outputs.len());
                }
                Op::Shuffle { reduce, node, shape, extra } => {
                    let picks = &inputs_for(model.keys_for_job(reduce.job), *shape, extra);
                    let expected = model.shuffle(picks, *reduce, *node);
                    prop_assert_eq!(&streamed(&store, picks, *reduce, *node), &expected);
                }
                Op::Fetch(key, reduce) => {
                    prop_assert_eq!(
                        store.fetch_bucket_indexed(key, *reduce),
                        model.fetch(key, *reduce)
                    );
                }
            }
        }
        // Checked once at the end, so that runs of inserts reach the
        // index as one backlog rather than one at a time.
        for job in 1..=JOBS {
            prop_assert_eq!(store.keys_for_job(JobId(job)), model.keys_for_job(JobId(job)));
        }
        prop_assert_eq!(store.len(), model.outputs.len());
        prop_assert_eq!(store.total_bytes(), model.total_bytes());
        for (key, (_, hash, _)) in &model.outputs {
            prop_assert_eq!(store.input_hash(key), Some(*hash));
        }
    }
}

/// Reducers of job 1 plan while job 2's mappers insert and node 1 dies.
/// The barriers put the drop between plans with inserts on both sides
/// of it, and one plan provably after it. Every plan must be the full
/// result or name exactly the dead node's outputs — never a partial
/// answer, never a hang.
#[test]
fn plans_stay_whole_while_another_job_inserts_and_a_node_drops() {
    const MAPS: u32 = 48;
    const PLANS: usize = 200;
    let store = MapOutputStore::new();
    let reduce = ReduceTaskId::whole(JobId(1), PartitionId(0));
    let output = |job: u32, m: u32| {
        let key = MapInputKey::new(JobId(job), PartitionId(0), m);
        let records = [Record::new(u64::from(m % 7), vec![m as u8])];
        let payload = encode(&records);
        let index = index_of(&records, payload.len(), true);
        let whole = ReduceTaskId::whole(JobId(job), PartitionId(0));
        (key, HashMap::from([(whole, (payload, index))]))
    };
    let inputs: Vec<MapInputKey> = (0..MAPS)
        .map(|m| {
            let (key, buckets) = output(1, m);
            store.insert_indexed(key, NodeId(m % NODES), 0, buckets);
            key
        })
        .collect();
    let on_node_1 = |keys: &[MapInputKey]| -> Vec<MapInputKey> {
        let dead = keys.iter().filter(|k| k.block_idx % NODES == 1);
        dead.copied().collect()
    };
    let full = streamed(&store, &inputs, reduce, NodeId(0)).expect("all outputs stored");

    let (start, mid, dropped) = (Barrier::new(4), Barrier::new(4), Barrier::new(3));
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                start.wait();
                for i in 0..PLANS {
                    if i == PLANS / 2 {
                        mid.wait();
                    }
                    match streamed(&store, &inputs, reduce, NodeId(0)) {
                        Ok(whole) => assert_eq!(whole, full, "a plan saw part of the store"),
                        Err(missing) => assert_eq!(missing, on_node_1(&inputs)),
                    }
                }
                dropped.wait();
                let after = streamed(&store, &inputs, reduce, NodeId(0));
                assert_eq!(after, Err(on_node_1(&inputs)));
            });
        }
        s.spawn(|| {
            start.wait();
            for m in 0..MAPS {
                if m == MAPS / 2 {
                    mid.wait();
                }
                let (key, buckets) = output(2, m);
                store.insert_indexed(key, NodeId(m % NODES), 0, buckets);
            }
        });
        s.spawn(|| {
            start.wait();
            mid.wait();
            store.drop_node(NodeId(1));
            dropped.wait();
        });
    });
    // Job 2: whatever was inserted before the drop died with the node,
    // indexed yet or not; every other node's outputs are all there.
    let left = store.keys_for_job(JobId(2));
    assert!(on_node_1(&left).iter().all(|k| k.block_idx >= MAPS / 2));
    assert_eq!(
        left.len() - on_node_1(&left).len(),
        (MAPS - MAPS / NODES) as usize
    );
}
