//! Task descriptors, and the table a map task buckets its output in.

use crate::mapstore::{BucketIndex, MapInputKey};
use bytes::Bytes;
use rcmp_dfs::BlockLocation;
use rcmp_model::{
    HashPartitioner, JobId, MapTaskId, PartitionId, Record, RecordWriter, ReduceTaskId, SplitId,
    SplitPartitioner,
};
use std::collections::BTreeSet;

/// One mapper: processes one input block.
#[derive(Clone, Debug)]
pub struct MapTask {
    pub id: MapTaskId,
    /// Stable position of the input block (registry key for the
    /// persisted output).
    pub key: MapInputKey,
    /// Current location/fingerprint of the input block.
    pub block: BlockLocation,
}

/// One reducer (whole or one split of a recomputed reducer).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReduceTask {
    pub id: ReduceTaskId,
}

impl ReduceTask {
    pub fn new(id: ReduceTaskId) -> Self {
        Self { id }
    }
}

/// Which bucket each emitted key of one job run belongs to, as a dense
/// slot number computed once per run: a whole partition owns one slot,
/// a partition recomputed `k`-way split owns `k` consecutive ones (one
/// per [`ReduceTaskId::split`]). A mapper indexes its bucket table by
/// slot — two array reads per record, no hash or tree lookup.
pub(crate) struct BucketSlots {
    job: JobId,
    partitions: HashPartitioner,
    splits: SplitPartitioner,
    /// First slot of each partition; the last entry is the slot count.
    first: Vec<u32>,
}

impl BucketSlots {
    /// `split` names the partitions this run splits and the factor
    /// (`> 1`); every other partition is bucketed whole.
    pub(crate) fn new(
        job: JobId,
        num_reducers: u32,
        split: Option<(&BTreeSet<PartitionId>, u32)>,
    ) -> Self {
        let mut first = Vec::with_capacity(num_reducers as usize + 1);
        let mut next = 0u32;
        for p in 0..num_reducers {
            first.push(next);
            next += match split {
                Some((set, k)) if set.contains(&PartitionId(p)) => k,
                _ => 1,
            };
        }
        first.push(next);
        Self {
            job,
            partitions: HashPartitioner::new(num_reducers),
            splits: SplitPartitioner::new(split.map_or(1, |(_, k)| k)),
            first,
        }
    }

    #[inline]
    fn slot_of(&self, key: u64) -> usize {
        let p = self.partitions.partition_of(key).index();
        let (first, end) = (self.first[p], self.first[p + 1]);
        let within = if end - first == 1 {
            0
        } else {
            self.splits.split_of(key).raw()
        };
        (first + within) as usize
    }

    /// The reduce task behind each slot, in slot order.
    fn tasks(&self) -> impl Iterator<Item = ReduceTaskId> + '_ {
        self.first.windows(2).zip(0u32..).flat_map(move |(w, p)| {
            let k = w[1] - w[0];
            (0..k).map(move |i| match k {
                1 => ReduceTaskId::whole(self.job, PartitionId(p)),
                _ => ReduceTaskId::split(self.job, PartitionId(p), SplitId(i), k),
            })
        })
    }
}

/// One map task's emitted records, bucketed by slot.
pub(crate) struct MapBuckets<'a> {
    slots: &'a BucketSlots,
    table: Vec<Vec<Record>>,
}

impl<'a> MapBuckets<'a> {
    pub(crate) fn new(slots: &'a BucketSlots) -> Self {
        let count = *slots.first.last().expect("holds the slot count") as usize;
        Self {
            slots,
            table: vec![Vec::new(); count],
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, rec: Record) {
        self.table[self.slots.slot_of(rec.key)].push(rec);
    }

    /// The non-empty buckets with the reduce task each feeds.
    pub(crate) fn into_buckets(self) -> impl Iterator<Item = (ReduceTaskId, Vec<Record>)> + 'a {
        self.slots
            .tasks()
            .zip(self.table)
            .filter(|(_, recs)| !recs.is_empty())
    }
}

/// Encodes one `(key, value)`-sorted bucket, once, into a buffer of
/// exactly its encoded size, with the index reducers plan by.
pub(crate) fn encode_sorted_bucket(recs: &[Record]) -> (Bytes, BucketIndex) {
    let bytes = recs.iter().map(Record::encoded_len).sum();
    let mut w = RecordWriter::with_capacity(bytes);
    for r in recs {
        w.push(r);
    }
    let index = BucketIndex {
        records: recs.len() as u64,
        bytes: bytes as u64,
        min_key: recs.first().map_or(0, |r| r.key),
        max_key: recs.last().map_or(0, |r| r.key),
        sorted: true,
    };
    (w.finish(), index)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_model::partition::mix64;
    use std::collections::HashMap;

    type Encoded = HashMap<ReduceTaskId, (Bytes, BucketIndex)>;

    /// What a map task stores for `records` under `slots`.
    fn slotted(slots: &BucketSlots, records: &[Record]) -> Encoded {
        let mut table = MapBuckets::new(slots);
        records.iter().for_each(|r| table.push(r.clone()));
        table
            .into_buckets()
            .map(|(rtid, mut recs)| {
                recs.sort_unstable();
                (rtid, encode_sorted_bucket(&recs))
            })
            .collect()
    }

    /// The straightforward form: a task id per record, a hash map of
    /// record lists, a growing writer per bucket.
    fn reference(
        job: JobId,
        reducers: u32,
        split: Option<(&BTreeSet<PartitionId>, u32)>,
        records: &[Record],
    ) -> Encoded {
        let hp = HashPartitioner::new(reducers);
        let mut raw: HashMap<ReduceTaskId, Vec<Record>> = HashMap::new();
        for rec in records {
            let pid = hp.partition_of(rec.key);
            let rtid = match split {
                Some((set, k)) if set.contains(&pid) => {
                    ReduceTaskId::split(job, pid, SplitPartitioner::new(k).split_of(rec.key), k)
                }
                _ => ReduceTaskId::whole(job, pid),
            };
            raw.entry(rtid).or_default().push(rec.clone());
        }
        raw.into_iter()
            .map(|(rtid, mut recs)| {
                recs.sort_unstable();
                let mut w = RecordWriter::new();
                recs.iter().for_each(|r| w.push(r));
                let index = BucketIndex {
                    records: recs.len() as u64,
                    bytes: w.byte_len() as u64,
                    min_key: recs[0].key,
                    max_key: recs[recs.len() - 1].key,
                    sorted: true,
                };
                (rtid, (w.finish(), index))
            })
            .collect()
    }

    #[test]
    fn slotted_buckets_equal_the_hash_map_reference_whole_and_split() {
        let job = JobId(3);
        // Duplicate keys with differing values, and few enough records
        // that some of the 7 × (1 or 3) buckets stay empty.
        let records: Vec<Record> = (0..40u64)
            .map(|i| Record::new(mix64(i / 2), vec![(i % 5) as u8; (i % 4) as usize]))
            .collect();
        let some: BTreeSet<PartitionId> = [PartitionId(1), PartitionId(4)].into();
        let all: BTreeSet<PartitionId> = (0..7).map(PartitionId).collect();
        for split in [None, Some((&some, 3)), Some((&all, 3))] {
            let slots = BucketSlots::new(job, 7, split);
            let got = slotted(&slots, &records);
            assert_eq!(got, reference(job, 7, split, &records), "split {split:?}");
            let stored: u64 = got.values().map(|(_, index)| index.records).sum();
            assert_eq!(stored, 40);
            assert_eq!(got.keys().any(ReduceTaskId::is_split), split.is_some());
        }
    }
}
