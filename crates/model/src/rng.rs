//! Deterministic randomness helpers.
//!
//! Every stochastic choice in the workspace (data generation, replica
//! placement, failure injection, key randomization) flows from an
//! explicit seed so that experiments and tests are reproducible bit for
//! bit. This module centralizes seed derivation so that two subsystems
//! never accidentally share a stream.

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::partition::mix64;

/// Derives a child seed from a parent seed and a domain label.
///
/// The label keeps streams for different purposes independent even when
/// they share the experiment-level seed.
fn derive_seed(parent: u64, label: &str) -> u64 {
    let mut h = parent ^ 0x51_7c_c1_b7_27_22_0a_95;
    for &b in label.as_bytes() {
        h = mix64(h ^ b as u64);
    }
    mix64(h)
}

/// A fast deterministic RNG for the given seed and domain label.
pub fn rng_for(parent: u64, label: &str) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(parent, label))
}

/// Derives a per-index seed (e.g. one stream per mapper).
pub fn derive_indexed(parent: u64, label: &str, index: u64) -> u64 {
    mix64(derive_seed(parent, label) ^ mix64(index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn labels_separate_streams() {
        assert_ne!(derive_seed(1, "datagen"), derive_seed(1, "placement"));
        assert_ne!(derive_seed(1, "a"), derive_seed(2, "a"));
    }

    #[test]
    fn deterministic_rng() {
        let a: u64 = rng_for(7, "x").gen();
        let b: u64 = rng_for(7, "x").gen();
        assert_eq!(a, b);
    }

    #[test]
    fn indexed_seeds_distinct() {
        let s: Vec<u64> = (0..100).map(|i| derive_indexed(3, "map", i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), s.len());
    }
}
