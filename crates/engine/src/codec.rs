//! Record-aligned chunking of output streams.
//!
//! Reducers write their output partition as a sequence of DFS blocks;
//! the next job's mappers read one block each. Blocks must therefore
//! start and end on record boundaries — [`ChunkingWriter`] packs encoded
//! records greedily into chunks no larger than the block size.

use bytes::{Bytes, BytesMut};
use rcmp_model::Record;

/// Packs records into record-aligned chunks of at most `chunk_size` bytes.
///
/// Each record is sized once (`encoded_len`) for the roll decision and
/// then serialized exactly once, straight into the chunk's final buffer
/// via [`Record::encode_into`] — there is no intermediate per-record
/// encode-and-copy pass.
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
            current: BytesMut::new(),
            chunks: Vec::new(),
            bytes: 0,
        }
    }

    /// Appends one record, starting a new chunk if it would overflow.
    ///
    /// Panics if a single record exceeds the chunk size — callers must
    /// size blocks above the maximum record size (the DFS would reject
    /// the oversized chunk anyway).
    pub fn push(&mut self, rec: &Record) {
        let enc = rec.encoded_len();
        assert!(
            enc <= self.chunk_size,
            "record of {enc} bytes exceeds chunk size {}",
            self.chunk_size
        );
        if self.current.len() + enc > self.chunk_size {
            let full = std::mem::take(&mut self.current);
            self.chunks.push(full.freeze());
        }
        rec.encode_into(&mut self.current);
        self.bytes += enc as u64;
    }

    /// Total encoded bytes pushed.
    pub fn byte_count(&self) -> u64 {
        self.bytes
    }

    /// Finishes, returning the chunk list (possibly empty).
    pub fn finish(mut self) -> Vec<Bytes> {
        if !self.current.is_empty() {
            self.chunks.push(self.current.freeze());
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
            w.push(r);
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
            w.push(&Record::new(i, vec![0u8; 20])); // 32 bytes each
        }
        assert_eq!(w.finish().len(), 1);
    }

    #[test]
    #[should_panic(expected = "exceeds chunk size")]
    fn oversized_record_panics() {
        let mut w = ChunkingWriter::new(16);
        w.push(&Record::new(0, vec![0u8; 100]));
    }
}
