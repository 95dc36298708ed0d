//! Order-independent digests of record multisets.
//!
//! Two runs of a chain — one failure-free, one with failures and
//! recomputation — must produce the *same multiset* of output records.
//! [`OutputDigest`] summarizes a record multiset with commutative
//! aggregates (XOR of per-record MD5s, byte sums, counts), so two
//! digests are equal iff the multisets are equal (up to the collision
//! resistance of MD5-XOR, ample for integrity checking). This is the
//! engine-level analogue of the paper's per-record MD5 + byte-sum
//! correctness computations.

use crate::md5::{md5_u64, md5_u64x2};
use bytes::Bytes;
use rcmp_model::Record;
use std::borrow::Borrow;
use std::convert::Infallible;

/// Commutative digest of a multiset of records.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OutputDigest {
    /// Number of records.
    pub count: u64,
    /// XOR of `md5(key || value)` per record. XOR alone would let a
    /// duplicated+dropped pair cancel; combined with `count` and the
    /// sums below, accidental cancellation is implausible.
    pub md5_xor: u64,
    /// Wrapping sum of `md5(key || value)` per record (catches
    /// XOR-cancelling duplicate pairs).
    pub md5_sum: u64,
    /// Wrapping sum of all value bytes (the paper's byte-sum check).
    pub byte_sum: u64,
    /// Total value bytes.
    pub value_bytes: u64,
}

impl OutputDigest {
    /// Digest of an iterator of records.
    pub fn of_records<'a>(records: impl IntoIterator<Item = &'a Record>) -> Self {
        let Ok(d) = Self::of_stream(records.into_iter().map(Ok::<_, Infallible>));
        d
    }

    /// Digest of an encoded record stream.
    pub fn of_encoded(data: Bytes) -> rcmp_model::Result<Self> {
        Self::of_stream(rcmp_model::RecordReader::new(data))
    }

    /// The one digest body: records are hashed two at a time on
    /// [`md5_u64x2`]'s lanes, both staged as `key || value` into one
    /// reused buffer; an odd last record goes alone.
    fn of_stream<R: Borrow<Record>, E>(
        mut records: impl Iterator<Item = Result<R, E>>,
    ) -> Result<Self, E> {
        let (mut d, mut buf) = (Self::default(), Vec::new());
        while let Some(x) = records.next().transpose()? {
            let x = x.borrow();
            buf.clear();
            stage(&mut buf, x);
            let Some(y) = records.next().transpose()? else {
                d.fold(x, md5_u64(&buf));
                break;
            };
            let (y, split) = (y.borrow(), buf.len());
            stage(&mut buf, y);
            let (hx, hy) = md5_u64x2(&buf[..split], &buf[split..]);
            d.fold(x, hx);
            d.fold(y, hy);
        }
        Ok(d)
    }

    /// Folds in a record whose `md5(key || value)` prefix is `h`.
    fn fold(&mut self, rec: &Record, h: u64) {
        self.count += 1;
        self.md5_xor ^= h;
        self.md5_sum = self.md5_sum.wrapping_add(h);
        self.byte_sum = self
            .byte_sum
            .wrapping_add(rec.value.iter().map(|&b| b as u64).sum::<u64>());
        self.value_bytes += rec.value.len() as u64;
    }

    /// Merges another digest (digests of disjoint partitions combine to
    /// the digest of the union).
    pub fn merge(&mut self, other: &OutputDigest) {
        self.count += other.count;
        self.md5_xor ^= other.md5_xor;
        self.md5_sum = self.md5_sum.wrapping_add(other.md5_sum);
        self.byte_sum = self.byte_sum.wrapping_add(other.byte_sum);
        self.value_bytes += other.value_bytes;
    }
}

/// Appends the bytes a record's digest hashes: `key (8B LE) || value`.
fn stage(buf: &mut Vec<u8>, rec: &Record) {
    buf.extend_from_slice(&rec.key.to_le_bytes());
    buf.extend_from_slice(&rec.value);
}

/// Digest of a whole DFS file (all partitions merged). The per-partition
/// digests are also returned, in partition order, enabling
/// partition-level comparisons (recomputed partitions must match their
/// originals exactly).
pub fn digest_file(
    dfs: &rcmp_dfs::Dfs,
    path: &str,
    reader: rcmp_model::NodeId,
) -> rcmp_model::Result<(OutputDigest, Vec<OutputDigest>)> {
    let meta = dfs.file_meta(path)?;
    let per_partition: Vec<OutputDigest> = meta
        .partitions
        .iter()
        .map(|p| {
            let data = dfs.read_partition(path, p.id, reader)?;
            OutputDigest::of_encoded(data)
        })
        .collect::<rcmp_model::Result<Vec<_>>>()?;
    let mut total = OutputDigest::default();
    for d in &per_partition {
        total.merge(d);
    }
    Ok((total, per_partition))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(k: u64, v: &[u8]) -> Record {
        Record::new(k, v.to_vec())
    }

    #[test]
    fn order_independent() {
        let a = OutputDigest::of_records(&[rec(1, b"x"), rec(2, b"y"), rec(3, b"z")]);
        let b = OutputDigest::of_records(&[rec(3, b"z"), rec(1, b"x"), rec(2, b"y")]);
        assert_eq!(a, b);
    }

    #[test]
    fn detects_missing_and_duplicate() {
        let full = OutputDigest::of_records(&[rec(1, b"x"), rec(2, b"y")]);
        let missing = OutputDigest::of_records(&[rec(1, b"x")]);
        let duped = OutputDigest::of_records(&[rec(1, b"x"), rec(2, b"y"), rec(2, b"y")]);
        assert_ne!(full, missing);
        assert_ne!(full, duped);
    }

    #[test]
    fn detects_xor_cancelling_pair() {
        // Duplicating one record and dropping another XORs to the same
        // value only if their hashes match; but even a double-duplicate
        // (XOR cancels) is caught by count and md5_sum.
        let base = OutputDigest::of_records(&[rec(1, b"x")]);
        let doubled = OutputDigest::of_records(&[rec(1, b"x"), rec(1, b"x"), rec(1, b"x")]);
        assert_eq!(base.md5_xor, doubled.md5_xor, "XOR alone is blind here");
        assert_ne!(base, doubled, "full digest catches it");
    }

    #[test]
    fn merge_equals_union() {
        let mut left = OutputDigest::of_records(&[rec(1, b"x")]);
        let right = OutputDigest::of_records(&[rec(2, b"y")]);
        left.merge(&right);
        assert_eq!(
            left,
            OutputDigest::of_records(&[rec(1, b"x"), rec(2, b"y")])
        );
    }

    /// The definition, one record and one lane at a time.
    fn one_lane(recs: &[Record]) -> OutputDigest {
        let mut d = OutputDigest::default();
        for r in recs {
            let mut buf = r.key.to_le_bytes().to_vec();
            buf.extend_from_slice(&r.value);
            d.fold(r, md5_u64(&buf));
        }
        d
    }

    /// The paired digest of encoded and of in-memory records against the
    /// one-lane definition, across odd and even record counts.
    #[test]
    fn paired_digest_equals_one_lane_definition() {
        for n in [0u64, 1, 2, 3, 4097] {
            let recs: Vec<Record> = (0..n)
                .map(|i| Record::new(i * 7919, crate::chain::value_of(i, (i % 131) as usize)))
                .collect();
            let mut w = rcmp_model::RecordWriter::new();
            for r in &recs {
                w.push(r);
            }
            let d = OutputDigest::of_encoded(w.finish()).unwrap();
            assert_eq!(d, OutputDigest::of_records(&recs), "{n} records");
            assert_eq!(d, one_lane(&recs), "{n} records");
            assert_eq!(d.count, n);
        }
    }

    #[test]
    fn encoded_roundtrip() {
        let recs = vec![rec(1, b"ab"), rec(2, b"cd")];
        let mut w = rcmp_model::RecordWriter::new();
        for r in &recs {
            w.push(r);
        }
        let d = OutputDigest::of_encoded(w.finish()).unwrap();
        assert_eq!(d, OutputDigest::of_records(&recs));
        assert_eq!(d.value_bytes, 4);
        assert_eq!(d.count, 2);
    }
}
