//! Record-aligned chunking of output streams.
//!
//! Reducers write their output partition as a sequence of DFS blocks;
//! the next job's mappers read one block each. Blocks must therefore
//! start and end on record boundaries — [`ChunkingWriter`] packs encoded
//! records greedily into chunks no larger than the block size.

use bytes::{Bytes, BytesMut};
use rcmp_model::{Error, Record, Result};

/// Packs records into record-aligned chunks of at most `chunk_size` bytes.
///
/// Each record is sized once (`encoded_len`) for the roll decision and
/// then serialized exactly once via [`Record::encode_into`] into one
/// staging buffer of `chunk_size` capacity, which every chunk reuses:
/// sealing a chunk copies out exactly its bytes, and no chunk regrows
/// its buffer from empty.
pub struct ChunkingWriter {
    chunk_size: usize,
    current: BytesMut,
    chunks: Vec<Bytes>,
    bytes: u64,
}

impl ChunkingWriter {
    pub fn new(chunk_size: usize) -> Self {
        assert!(chunk_size >= 12, "chunk size must fit at least a header");
        Self {
            chunk_size,
            current: BytesMut::with_capacity(chunk_size),
            chunks: Vec::new(),
            bytes: 0,
        }
    }

    /// Appends one record, starting a new chunk if it would overflow.
    ///
    /// A single record larger than the chunk size is an
    /// [`Error::Config`]: blocks must be sized above the largest record
    /// a UDF emits (the DFS would reject the oversized chunk anyway).
    pub fn push(&mut self, rec: &Record) -> Result<()> {
        let enc = rec.encoded_len();
        if enc > self.chunk_size {
            return Err(Error::Config(format!(
                "record of {enc} bytes exceeds the block size of {} bytes",
                self.chunk_size
            )));
        }
        if self.current.len() + enc > self.chunk_size {
            self.seal();
        }
        rec.encode_into(&mut self.current);
        self.bytes += enc as u64;
        Ok(())
    }

    fn seal(&mut self) {
        self.chunks.push(Bytes::copy_from_slice(&self.current));
        self.current.clear();
    }

    /// Total encoded bytes pushed.
    pub fn byte_count(&self) -> u64 {
        self.bytes
    }

    /// Finishes, returning the chunk list (possibly empty).
    pub fn finish(mut self) -> Vec<Bytes> {
        if !self.current.is_empty() {
            self.seal();
        }
        self.chunks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcmp_model::RecordReader;

    #[test]
    fn chunks_respect_size_and_roundtrip() {
        let mut w = ChunkingWriter::new(64);
        let recs: Vec<Record> = (0..20)
            .map(|i| Record::new(i, vec![i as u8; 10])) // 22 bytes encoded
            .collect();
        for r in &recs {
            w.push(r).unwrap();
        }
        assert_eq!(w.byte_count(), 20 * 22);
        let chunks = w.finish();
        assert!(chunks.len() > 1);
        let mut decoded = Vec::new();
        for c in &chunks {
            assert!(c.len() <= 64, "chunk too big: {}", c.len());
            decoded.extend(RecordReader::decode_all(c.clone()).unwrap());
        }
        assert_eq!(decoded, recs);
    }

    #[test]
    fn empty_writer_yields_no_chunks() {
        assert!(ChunkingWriter::new(64).finish().is_empty());
    }

    #[test]
    fn exact_fit_does_not_split() {
        // Two records of 32 bytes exactly fill one 64-byte chunk.
        let mut w = ChunkingWriter::new(64);
        for i in 0..2 {
            w.push(&Record::new(i, vec![0u8; 20])).unwrap(); // 32 bytes each
        }
        assert_eq!(w.finish().len(), 1);
    }

    /// End to end: one job whose reducer emits one record larger than
    /// the block size fails with the typed error — no worker panics, no
    /// task is retried forever.
    #[test]
    fn oversized_emission_fails_the_job_with_a_config_error() {
        use crate::{Cluster, FnReducer, IdentityMapper, JobRun, JobSpec, JobTracker, NoFailures};
        use rcmp_dfs::PlacementPolicy;
        use rcmp_model::{ByteSize, ClusterConfig, Error, JobId, NodeId, PartitionId};
        use std::sync::Arc;

        let cluster = Cluster::new(ClusterConfig {
            block_size: ByteSize::bytes(64),
            ..ClusterConfig::small_test(2)
        });
        let mut input = ChunkingWriter::new(64);
        input.push(&Record::new(1, vec![7u8; 8])).unwrap();
        cluster.dfs().create_file("in", 1, 1).unwrap();
        cluster
            .dfs()
            .write_partition_chunks(
                "in",
                PartitionId(0),
                input.finish(),
                NodeId(0),
                PlacementPolicy::WriterLocal,
            )
            .unwrap();
        let spec = JobSpec {
            job: JobId(1),
            input: "in".into(),
            output: "out".into(),
            num_reducers: 1,
            output_replication: 1,
            placement: PlacementPolicy::WriterLocal,
            mapper: Arc::new(IdentityMapper),
            reducer: Arc::new(FnReducer(|key, _: &[Bytes], emit: crate::udf::Emit<'_>| {
                emit(Record::new(key, vec![0u8; 100]));
            })),
            combiner: None,
            splittable: true,
        };
        let tracker = JobTracker::new(&cluster, Arc::new(NoFailures));
        match tracker.run(&JobRun::full(spec), 1) {
            Err(Error::Config(m)) => {
                assert!(m.contains("112 bytes exceeds the block size of 64"), "{m}");
            }
            other => panic!("expected a config error, got {other:?}"),
        }
    }
}
