//! Content fingerprinting.
//!
//! RCMP must decide whether a *persisted* map output from an earlier run
//! is still valid: it is valid only if the input block it was computed
//! from still holds exactly the same bytes. A regenerated partition
//! written by a single whole reducer is byte-identical (deterministic
//! UDFs), so its mappers' persisted outputs remain reusable; a partition
//! regenerated by *split* reducers redistributes records across blocks,
//! so the fingerprints change and the persisted outputs are invalidated —
//! this is exactly the Fig.-5 correctness rule, enforced by content
//! hashes instead of ad-hoc bookkeeping.
//!
//! The hash is FNV-1a over the bytes, finished with the SplitMix64
//! mixer. It is not cryptographic; it only needs to make accidental
//! collisions between different block contents vanishingly unlikely.

use crate::partition::mix64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fingerprints a byte slice.
pub fn hash_bytes(data: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    // Process 8 bytes at a time for throughput; FNV-1a per word.
    let mut chunks = data.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().unwrap());
        h = (h ^ w).wrapping_mul(FNV_PRIME);
    }
    for &b in chunks.remainder() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    mix64(h ^ data.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_length_sensitive() {
        assert_eq!(hash_bytes(b"abc"), hash_bytes(b"abc"));
        assert_ne!(hash_bytes(b"abc"), hash_bytes(b"abd"));
        assert_ne!(hash_bytes(b""), hash_bytes(b"\0"));
        assert_ne!(hash_bytes(b"\0\0"), hash_bytes(b"\0"));
    }

    #[test]
    fn word_boundary_insensitive_to_chunking_bugs() {
        // 8-byte and 9-byte inputs exercise both the word loop and the
        // remainder loop.
        let a = hash_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let b = hash_bytes(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_ne!(a, b);
    }
}
