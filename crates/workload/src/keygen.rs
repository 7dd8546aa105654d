//! Key and value generation.
//!
//! Keys are fixed-width strings over a configurable key count; the access
//! pattern maps Zipf ranks onto key indices through a scramble (so "hot"
//! keys are spread over the key space and over servers, as YCSB does).
//!
//! Values come from a [`ValuePool`]: a small set of pre-allocated buffers
//! that are handed out as cheap `Bytes` clones. This mirrors how the
//! paper's microbenchmarks reuse registered buffers — and it is what makes
//! the client's registration cache effective.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// How keys are chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AccessPattern {
    /// Every key equally likely.
    Uniform,
    /// Zipf-skewed with the given theta (YCSB default 0.99).
    Zipf(f64),
}

/// The key space of a workload.
#[derive(Debug, Clone)]
pub struct KeySpace {
    count: usize,
}

impl KeySpace {
    /// A key space of `count` keys.
    pub fn new(count: usize) -> Self {
        assert!(count > 0);
        KeySpace { count }
    }

    /// Number of keys.
    pub fn count(&self) -> usize {
        self.count
    }

    /// The canonical key for index `i` (stable across the run).
    pub fn key(&self, i: usize) -> Bytes {
        debug_assert!(i < self.count);
        Bytes::from(format!("user{i:012}"))
    }

    /// Map a popularity rank to a key index, scrambling so consecutive
    /// ranks are not consecutive keys.
    pub fn index_for_rank(&self, rank: usize) -> usize {
        (nbkv_simrt::mix64(rank as u64) % self.count as u64) as usize
    }
}

/// Chooses keys according to an [`AccessPattern`].
pub struct KeyChooser {
    space: KeySpace,
    zipf: Option<Zipf>,
    rng: StdRng,
}

impl KeyChooser {
    /// Build a chooser over `space` with `pattern`, seeded for
    /// reproducibility.
    pub fn new(space: KeySpace, pattern: AccessPattern, seed: u64) -> Self {
        let zipf = match pattern {
            AccessPattern::Uniform => None,
            AccessPattern::Zipf(theta) => Some(Zipf::new(space.count(), theta)),
        };
        KeyChooser {
            space,
            zipf,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The underlying key space.
    pub fn space(&self) -> &KeySpace {
        &self.space
    }

    /// Draw the next key.
    pub fn next_key(&mut self) -> Bytes {
        let idx = match &self.zipf {
            Some(z) => {
                let rank = z.sample(&mut self.rng);
                self.space.index_for_rank(rank)
            }
            None => self.rng.gen_range(0..self.space.count()),
        };
        self.space.key(idx)
    }
}

/// A pool of reusable value buffers.
#[derive(Debug, Clone)]
pub struct ValuePool {
    bufs: Vec<Bytes>,
}

impl ValuePool {
    /// `distinct` buffers of `value_len` bytes each, with per-buffer fill
    /// patterns so misdirected reads are detectable.
    pub fn new(value_len: usize, distinct: usize) -> Self {
        assert!(distinct > 0);
        let bufs = (0..distinct)
            .map(|i| Bytes::from(vec![(i * 37 + 11) as u8; value_len]))
            .collect();
        ValuePool { bufs }
    }

    /// The value buffer for operation number `op`.
    pub fn value(&self, op: usize) -> Bytes {
        self.bufs[op % self.bufs.len()].clone()
    }

    /// Value length.
    pub fn value_len(&self) -> usize {
        self.bufs[0].len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_fixed_width_and_distinct() {
        let ks = KeySpace::new(1000);
        let a = ks.key(0);
        let b = ks.key(999);
        assert_eq!(a.len(), b.len());
        assert_ne!(a, b);
    }

    #[test]
    fn rank_scramble_is_a_stable_spread() {
        let ks = KeySpace::new(10_000);
        let i0 = ks.index_for_rank(0);
        assert_eq!(i0, ks.index_for_rank(0), "stable");
        // Consecutive ranks land far apart (not consecutive indices).
        let i1 = ks.index_for_rank(1);
        assert!(i0.abs_diff(i1) > 1);
    }

    #[test]
    fn zipf_chooser_repeats_hot_keys() {
        let mut c = KeyChooser::new(KeySpace::new(10_000), AccessPattern::Zipf(0.99), 1);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..10_000 {
            *counts.entry(c.next_key()).or_insert(0u32) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        assert!(max > 300, "hottest key seen {max} times");
        assert!(
            counts.len() < 6_000,
            "only a subset touched: {}",
            counts.len()
        );
    }

    #[test]
    fn uniform_chooser_spreads_evenly() {
        let mut c = KeyChooser::new(KeySpace::new(100), AccessPattern::Uniform, 1);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..100_000 {
            *counts.entry(c.next_key()).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 100);
        for &n in counts.values() {
            assert!((600..=1400).contains(&n), "count {n}");
        }
    }

    #[test]
    fn chooser_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut c = KeyChooser::new(KeySpace::new(500), AccessPattern::Zipf(0.9), seed);
            (0..20).map(|_| c.next_key()).collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn value_pool_reuses_allocations() {
        let pool = ValuePool::new(4096, 4);
        let a = pool.value(0);
        let later = pool.value(4);
        assert_eq!(a.as_ptr(), later.as_ptr(), "same underlying buffer");
        assert_ne!(pool.value(0)[0], pool.value(1)[0], "distinct fill patterns");
        assert_eq!(pool.value_len(), 4096);
    }
}
