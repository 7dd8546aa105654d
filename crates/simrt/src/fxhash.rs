//! A deterministic word hasher for the simulator's hot maps.
//!
//! `std`'s default SipHash is built to resist hash flooding, which a
//! simulation with no untrusted input does not need; its per-lookup cost
//! shows up in every request's path (pending-request and CQ-waiter maps,
//! the store index, the LRU). [`FxHasher`] folds the input one 64-bit word
//! at a time, Fx-style (rotate, xor, multiply), and finishes with
//! [`mix64`](crate::mix64). The finish matters: the fold alone leaves the
//! low bits, which pick the hash bucket, poorly mixed for byte-string keys
//! that share a prefix.
//!
//! The hash of a value is the same in every run and process, but no code
//! may depend on a map's iteration order: maps keyed by it stay unordered.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiplier (from rustc's `FxHasher`).
const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Fx-style streaming hasher with a `mix64` finish.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.add(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        crate::mix64(self.hash)
    }
}

/// Builds [`FxHasher`]s.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
/// A `HashMap` hashed with [`FxHasher`]; construct with `default()`.
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash + ?Sized>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn hashes_are_pinned_across_runs() {
        // Same input, same hash, in every process: nothing seeds it.
        assert_eq!(hash(&42u64), crate::mix64(42u64.wrapping_mul(SEED)));
        assert_eq!(hash(&b"key"[..]), hash(&b"key"[..]));
        assert_ne!(hash(&b"key"[..]), hash(&b"kez"[..]));
        // The length prefix keeps a zero-padded tail distinct.
        assert_ne!(hash(&b"ab"[..]), hash(&b"ab\0"[..]));
    }

    #[test]
    fn prefix_sharing_keys_spread_over_low_bits() {
        // Keys like the workloads' `key:000123` differ only in their last
        // bytes; the low 10 bits (a 1,024-bucket table) must still spread.
        let mut buckets = HashSet::new();
        for i in 0..1024u32 {
            buckets.insert(hash(&format!("key:{i:06}").into_bytes()) & 1023);
        }
        assert!(
            buckets.len() > 550,
            "{} of 1024 buckets used",
            buckets.len()
        );
    }
}
