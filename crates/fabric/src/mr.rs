//! Memory-registration cost model.
//!
//! RDMA NICs can only DMA to/from *registered* (pinned, IOMMU-mapped)
//! memory, and `ibv_reg_mr` is expensive — tens of microseconds for
//! megabyte buffers. Real RDMA runtimes therefore cache registrations.
//! The paper's `bset`/`bget` exist precisely because of this cost: they
//! copy into pre-registered bounce buffers so the *user's* buffer never
//! needs registering, at the price of a memcpy.
//!
//! [`MrCache`] charges the registration cost (in virtual time) the first
//! time a buffer region is seen and is free on subsequent hits.
//!
//! Region identity is a *content fingerprint* (length + a word-at-a-time
//! hash of the bytes) rather than the raw address: real registration
//! caches key on address ranges, but addresses are allocator state and
//! would make otherwise-identical simulations diverge. A reused buffer hits the
//! cache either way; the fingerprint keeps runs bit-reproducible.

use std::cell::RefCell;
use std::rc::Rc;

use bytes::Bytes;
use nbkv_simrt::{FxHashMap, Sim};

use crate::profiles::FabricProfile;

// Odd 64-bit multipliers (the xxHash64 primes).
const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;

/// Absorb one word into an accumulator. For a fixed accumulator the step is
/// a bijection of the word, and for a fixed word a bijection of the
/// accumulator, so a one-word difference survives every later step of the
/// same lane.
#[inline(always)]
fn absorb(acc: u64, word: u64) -> u64 {
    (acc ^ word).wrapping_mul(P1).rotate_left(29)
}

#[inline(always)]
fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte word"))
}

/// Content hash of a buffer: four independent 64-bit lanes over 32-byte
/// chunks, then the remaining words and bytes, then a final avalanche.
/// A pure function of (length, bytes).
fn fingerprint(buf: &[u8]) -> u64 {
    let len = buf.len() as u64;
    let mut lanes = [P1 ^ len, P2, P3, P1.wrapping_add(P2)];
    let mut chunks = buf.chunks_exact(32);
    for chunk in &mut chunks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = absorb(*lane, word(&chunk[i * 8..i * 8 + 8]));
        }
    }
    let mut h = lanes
        .iter()
        .enumerate()
        .fold(len.wrapping_mul(P3), |h, (i, &lane)| {
            absorb(h, lane).rotate_left(8 * i as u32 + 1)
        });
    let mut words = chunks.remainder().chunks_exact(8);
    for w in &mut words {
        h = absorb(h, word(w));
    }
    for &b in words.remainder() {
        h = absorb(h, b as u64);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(P2);
    h ^= h >> 29;
    h = h.wrapping_mul(P3);
    h ^ (h >> 32)
}

/// Opaque handle to a registered region (an `lkey` in verbs terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MrKey(pub u32);

nbkv_obs::counters! {
    /// Registration-cache counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct MrStats {
        /// Cache hits (no cost charged).
        sum hits: u64,
        /// Cache misses (full registration cost charged).
        sum misses: u64,
        /// Bytes currently registered.
        max registered_bytes: u64,
    }
}

struct MrInner {
    regions: FxHashMap<(u64, usize), MrKey>,
    next_key: u32,
    stats: MrStats,
}

/// Registration cache for one endpoint.
#[derive(Clone)]
pub struct MrCache {
    sim: Sim,
    profile: FabricProfile,
    inner: Rc<RefCell<MrInner>>,
}

impl MrCache {
    /// Create an empty cache charging costs from `profile`.
    pub fn new(sim: Sim, profile: FabricProfile) -> Self {
        MrCache {
            sim,
            profile,
            inner: Rc::new(RefCell::new(MrInner {
                regions: FxHashMap::default(),
                next_key: 1,
                stats: MrStats::default(),
            })),
        }
    }

    /// Ensure the buffer's region is registered, charging the registration
    /// cost in virtual time on a miss.
    pub async fn ensure_registered(&self, buf: &Bytes) -> MrKey {
        let region = (fingerprint(buf), buf.len());
        let cached = self.inner.borrow().regions.get(&region).copied();
        if let Some(key) = cached {
            self.inner.borrow_mut().stats.hits += 1;
            return key;
        }
        let cost = self.profile.reg_cost(buf.len());
        if !cost.is_zero() {
            self.sim.sleep(cost).await;
        }
        let mut inner = self.inner.borrow_mut();
        // Re-check after the registration sleep: a concurrent task may have
        // registered the same region while we slept. Without this, both
        // tasks would insert distinct keys and double-count the miss and
        // the registered bytes.
        if let Some(key) = inner.regions.get(&region).copied() {
            inner.stats.hits += 1;
            return key;
        }
        let key = MrKey(inner.next_key);
        inner.next_key += 1;
        inner.regions.insert(region, key);
        inner.stats.misses += 1;
        inner.stats.registered_bytes += buf.len() as u64;
        key
    }

    /// Counter snapshot.
    pub fn stats(&self) -> MrStats {
        self.inner.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::fdr_rdma;

    #[test]
    fn first_registration_charges_miss() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let cache = MrCache::new(sim2.clone(), fdr_rdma());
            let buf = Bytes::from(vec![0u8; 1 << 20]);
            cache.ensure_registered(&buf).await;
            let elapsed = sim2.now().since_start();
            assert_eq!(elapsed, fdr_rdma().reg_cost(1 << 20));
            assert_eq!(cache.stats().misses, 1);
        });
    }

    #[test]
    fn repeat_registration_is_free() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let cache = MrCache::new(sim2.clone(), fdr_rdma());
            let buf = Bytes::from(vec![0u8; 4096]);
            let k1 = cache.ensure_registered(&buf).await;
            let after_first = sim2.now();
            let k2 = cache.ensure_registered(&buf).await;
            assert_eq!(k1, k2);
            assert_eq!(sim2.now(), after_first, "hit must be free");
            assert_eq!(
                cache.stats(),
                MrStats {
                    hits: 1,
                    misses: 1,
                    registered_bytes: 4096
                }
            );
        });
    }

    #[test]
    fn clones_of_same_allocation_share_registration() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let cache = MrCache::new(sim2.clone(), fdr_rdma());
            let buf = Bytes::from(vec![0u8; 4096]);
            let alias = buf.clone();
            let k1 = cache.ensure_registered(&buf).await;
            let k2 = cache.ensure_registered(&alias).await;
            assert_eq!(k1, k2);
            assert_eq!(cache.stats().misses, 1);
        });
    }

    #[test]
    fn different_buffers_register_separately() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let cache = MrCache::new(sim2.clone(), fdr_rdma());
            let a = Bytes::from(vec![1u8; 64]);
            let b = Bytes::from(vec![2u8; 64]);
            let ka = cache.ensure_registered(&a).await;
            let kb = cache.ensure_registered(&b).await;
            assert_ne!(ka, kb);
            assert_eq!(cache.stats().misses, 2);
        });
    }

    #[test]
    fn identical_content_models_buffer_reuse() {
        // Two allocations with identical bytes count as one region — the
        // deterministic stand-in for allocator address reuse.
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let cache = MrCache::new(sim2.clone(), fdr_rdma());
            let a = Bytes::from(vec![9u8; 256]);
            let b = Bytes::from(vec![9u8; 256]);
            let ka = cache.ensure_registered(&a).await;
            let kb = cache.ensure_registered(&b).await;
            assert_eq!(ka, kb);
            assert_eq!(
                cache.stats(),
                MrStats {
                    hits: 1,
                    misses: 1,
                    registered_bytes: 256
                }
            );
        });
    }

    #[test]
    fn concurrent_registration_of_same_region_is_single() {
        // TOCTOU regression: two tasks race to register the same region.
        // Both pay the sleep (they both started before either finished),
        // but only one may insert — same key, one miss, bytes counted once.
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let cache = MrCache::new(sim2.clone(), fdr_rdma());
            let buf = Bytes::from(vec![3u8; 8192]);
            let c1 = cache.clone();
            let b1 = buf.clone();
            let t1 = sim2.spawn(async move { c1.ensure_registered(&b1).await });
            let c2 = cache.clone();
            let b2 = buf.clone();
            let t2 = sim2.spawn(async move { c2.ensure_registered(&b2).await });
            let (k1, k2) = (t1.await, t2.await);
            assert_eq!(k1, k2, "racing registrations must converge on one key");
            let s = cache.stats();
            assert_eq!(s.misses, 1, "only one miss may be charged");
            assert_eq!(s.hits, 1, "the loser re-checks and records a hit");
            assert_eq!(s.registered_bytes, 8192, "bytes counted once");
            // The region is genuinely cached: a third call is a plain hit.
            let k3 = cache.ensure_registered(&buf).await;
            assert_eq!(k3, k1);
            assert_eq!(cache.stats().hits, 2);
        });
    }

    /// A buffer of `len` bytes with a non-repeating pattern, so a flipped
    /// byte cannot be masked by a neighbouring identical one.
    fn patterned(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect()
    }

    #[test]
    fn one_byte_difference_changes_the_region() {
        for len in [0usize, 1, 31, 32, 33, 4097, 8192, 32768] {
            let base = patterned(len);
            assert_eq!(fingerprint(&base), fingerprint(&base.clone()), "len {len}");
            // Head, a word-aligned middle byte (inside the 32-byte chunks
            // when there are any) and the last byte (in the tail remainder
            // when the length is not a multiple of 32).
            let mut positions = vec![0, (len / 2) & !7, len.saturating_sub(1)];
            positions.retain(|&p| p < len);
            positions.dedup();
            for pos in positions {
                let mut other = base.clone();
                other[pos] ^= 0x01;
                assert_ne!(
                    fingerprint(&base),
                    fingerprint(&other),
                    "len {len}: flipping byte {pos} must change the fingerprint"
                );
            }
        }
    }

    #[test]
    fn fingerprint_depends_on_length() {
        // Zero-filled buffers differ only in length; the hash itself (not
        // just the cache key's length half) must tell them apart.
        let fps: Vec<u64> = [0usize, 1, 8, 31, 32, 33, 64]
            .iter()
            .map(|&len| fingerprint(&vec![0u8; len]))
            .collect();
        for (i, a) in fps.iter().enumerate() {
            assert!(fps[i + 1..].iter().all(|b| b != a), "collision at {i}");
        }
    }

    #[test]
    fn near_identical_buffers_register_separately() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let cache = MrCache::new(sim2.clone(), fdr_rdma());
            let len = 8192 + 17;
            let base = Bytes::from(patterned(len));
            cache.ensure_registered(&base).await;
            for pos in [0, 4096, len - 1] {
                let mut v = patterned(len);
                v[pos] ^= 0x80;
                cache.ensure_registered(&Bytes::from(v)).await;
            }
            assert_eq!(cache.stats().misses, 4, "every variant is its own region");
            // A separate allocation with the base's bytes still hits.
            let again = Bytes::from(patterned(len));
            cache.ensure_registered(&again).await;
            assert_eq!(cache.stats().hits, 1);
            assert_eq!(cache.stats().misses, 4);
        });
    }
}
