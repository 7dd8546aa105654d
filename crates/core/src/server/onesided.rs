//! The server half of the one-sided GET path: an RDMA-readable index
//! region clients can read *without involving the server CPU*.
//!
//! The paper's client runtime sits on a one-sided RDMA communication
//! engine; this module closes that gap (see also RFP and HiStore in
//! PAPERS.md — the index layout must be co-designed for remote access).
//! The server publishes one registered [`RemoteWindow`] laid out as
//!
//! ```text
//! [ bucket descriptors: buckets x DESC_SLOT bytes ][ value arena: room for buckets x (8 + value_cap) ]
//! ```
//!
//! Each bucket holds a fixed-size **versioned slot descriptor** (seqlock
//! version, key fingerprint, value offset/len, user flags, in-RAM bit).
//! A bucket takes the next unused arena slot the first time it publishes
//! and keeps it for the life of the index; the slot's first 8 bytes
//! repeat the descriptor version. Slots are handed out in publish order,
//! so the arena pages that are ever written (and hence resident) follow
//! the number of published keys, not the number of buckets.
//! A remote reader chains two RDMA reads — descriptor, then arena slot —
//! and accepts the value only if the descriptor version is even (no
//! writer mid-update), the fingerprint matches its key, the in-RAM bit
//! is set, and the arena's version copy equals the descriptor version
//! (no writer between the two reads). Everything else falls back to RPC.
//!
//! Writers follow the seqlock discipline: bump the version to odd, mutate
//! descriptor + arena, then publish the next even version. Descriptors
//! are invalidated on overwrite, delete and expiry, and — crucially for
//! the hybrid design — on slab eviction to SSD, where the bytes leave
//! the registered arena (the in-RAM bit is cleared but the fingerprint
//! kept, so clients can count SSD fallbacks separately from staleness).

use std::cell::Cell;
use std::rc::Rc;

use nbkv_fabric::RemoteWindow;

use crate::proto::LeaseGeometry;

/// Bytes per bucket descriptor: version(8) fingerprint(8) offset(8)
/// len(4) flags(4) in_ram(1) pad(7).
pub const DESC_SLOT: usize = 40;

/// Bytes of version copy prefixed to each arena slot.
pub const ARENA_HEADER: usize = 8;

/// Sizing for the published window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneSidedConfig {
    /// Number of descriptor/arena buckets (keys map as `fp % buckets`).
    pub buckets: usize,
    /// Largest value the arena publishes; bigger values stay RPC-only.
    pub value_cap: usize,
}

impl Default for OneSidedConfig {
    fn default() -> Self {
        OneSidedConfig {
            buckets: 2048,
            value_cap: 4096,
        }
    }
}

/// FNV-1a fingerprint of a key, length-mixed, never zero (zero marks an
/// empty bucket). Shared by the server's publish path and the client's
/// validation path.
pub fn key_fingerprint(key: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET ^ (key.len() as u64).wrapping_mul(PRIME);
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    if h == 0 {
        1
    } else {
        h
    }
}

/// A decoded bucket descriptor (what the client's first RDMA read sees).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Descriptor {
    /// Seqlock version: even = stable, odd = writer mid-update, 0 = never
    /// published.
    pub version: u64,
    /// Fingerprint of the published key (0 = empty/invalidated bucket).
    pub fingerprint: u64,
    /// Absolute window offset of the bucket's arena slot (0 = the bucket
    /// has never published). Kept when the bucket is emptied.
    pub offset: u64,
    /// Published value length.
    pub len: u32,
    /// The item's user flags (memcached semantics).
    pub flags: u32,
    /// True while the value bytes are resident in the arena; cleared when
    /// slab eviction moves the item to SSD.
    pub in_ram: bool,
}

impl Descriptor {
    /// Encode into a descriptor slot image.
    pub fn encode(&self) -> [u8; DESC_SLOT] {
        let mut b = [0u8; DESC_SLOT];
        b[0..8].copy_from_slice(&self.version.to_be_bytes());
        b[8..16].copy_from_slice(&self.fingerprint.to_be_bytes());
        b[16..24].copy_from_slice(&self.offset.to_be_bytes());
        b[24..28].copy_from_slice(&self.len.to_be_bytes());
        b[28..32].copy_from_slice(&self.flags.to_be_bytes());
        b[32] = self.in_ram as u8;
        b
    }

    /// Decode a descriptor slot image (`buf` must be `DESC_SLOT` bytes).
    pub fn decode(buf: &[u8]) -> Option<Descriptor> {
        if buf.len() < DESC_SLOT {
            return None;
        }
        let u64_at = |i: usize| u64::from_be_bytes(buf[i..i + 8].try_into().unwrap());
        let u32_at = |i: usize| u32::from_be_bytes(buf[i..i + 4].try_into().unwrap());
        Some(Descriptor {
            version: u64_at(0),
            fingerprint: u64_at(8),
            offset: u64_at(16),
            len: u32_at(24),
            flags: u32_at(28),
            in_ram: buf[32] == 1,
        })
    }
}

nbkv_obs::counters! {
    /// Publish-side counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct OneSidedStats {
        /// Values (re)published into the arena.
        sum published: u64,
        /// Descriptors invalidated (overwrite-by-other-key, delete, expiry,
        /// drop, crash).
        sum invalidated: u64,
        /// Descriptors demoted to SSD-resident (in-RAM bit cleared).
        sum marked_ssd: u64,
        /// Values skipped because they exceed the arena slot capacity.
        sum too_large: u64,
    }
}

/// The server's published one-sided index region.
pub struct OneSidedIndex {
    cfg: OneSidedConfig,
    window: RemoteWindow,
    arena_offset: usize,
    arena_slot: usize,
    /// Arena slots handed out so far (slot `i` sits at
    /// `arena_offset + i * arena_slot`).
    slots_used: Cell<usize>,
    published: Cell<u64>,
    invalidated: Cell<u64>,
    marked_ssd: Cell<u64>,
    too_large: Cell<u64>,
}

impl OneSidedIndex {
    /// Allocate and zero the window for `cfg`.
    pub fn new(cfg: OneSidedConfig) -> Rc<Self> {
        assert!(cfg.buckets > 0, "one-sided index needs buckets");
        let arena_offset = cfg.buckets * DESC_SLOT;
        let arena_slot = ARENA_HEADER + cfg.value_cap;
        let window = RemoteWindow::new(arena_offset + cfg.buckets * arena_slot);
        Rc::new(OneSidedIndex {
            cfg,
            window,
            arena_offset,
            arena_slot,
            slots_used: Cell::new(0),
            published: Cell::new(0),
            invalidated: Cell::new(0),
            marked_ssd: Cell::new(0),
            too_large: Cell::new(0),
        })
    }

    /// The registered window (cloned handles share the same memory).
    pub fn window(&self) -> RemoteWindow {
        self.window.clone()
    }

    /// Lease geometry advertised through the wire handshake.
    pub fn lease(&self) -> LeaseGeometry {
        LeaseGeometry {
            buckets: self.cfg.buckets as u32,
            desc_slot: DESC_SLOT as u32,
            arena_offset: self.arena_offset as u64,
            arena_slot: self.arena_slot as u32,
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> OneSidedStats {
        OneSidedStats {
            published: self.published.get(),
            invalidated: self.invalidated.get(),
            marked_ssd: self.marked_ssd.get(),
            too_large: self.too_large.get(),
        }
    }

    fn bucket_of(&self, fp: u64) -> usize {
        (fp % self.cfg.buckets as u64) as usize
    }

    fn desc_off(&self, bucket: usize) -> usize {
        bucket * DESC_SLOT
    }

    /// Hand out the next unused arena slot. Every bucket takes at most
    /// one, so the count never exceeds `buckets`.
    fn alloc_slot(&self) -> u64 {
        let slot = self.slots_used.get();
        assert!(slot < self.cfg.buckets, "more arena slots than buckets");
        self.slots_used.set(slot + 1);
        (self.arena_offset + slot * self.arena_slot) as u64
    }

    /// Decode a bucket's descriptor in place in the window.
    fn read_desc(&self, bucket: usize) -> Descriptor {
        self.window
            .try_read(self.desc_off(bucket), DESC_SLOT, Descriptor::decode)
            .expect("descriptor table within window")
            .expect("slot-sized descriptor")
    }

    /// Seqlock write cycle: mark the bucket odd, write `value` (if any)
    /// into the arena slot at `desc.offset`, then publish the even version
    /// in both descriptor and arena header. A bucket that has never had a
    /// slot (`offset` 0: the descriptor table comes first, so no slot sits
    /// there) has no arena header to write.
    fn seqlock_write(&self, bucket: usize, mut desc: Descriptor, value: Option<&[u8]>) {
        let cur = desc.version;
        let odd = cur | 1;
        let even = odd + 1;
        let doff = self.desc_off(bucket);
        // 1) version -> odd: remote readers that overlap us from here on
        //    fail validation.
        self.window
            .try_poke(doff, &odd.to_be_bytes())
            .expect("descriptor within window");
        // 2) mutate arena (version copy goes stale-odd first, bytes after).
        let aoff = desc.offset as usize;
        if let Some(v) = value {
            self.window
                .try_poke(aoff, &odd.to_be_bytes())
                .expect("arena header within window");
            self.window
                .try_poke(aoff + ARENA_HEADER, v)
                .expect("value fits arena slot");
        }
        // 3) write the full descriptor body at the final version, then let
        //    the arena header catch up: a reader pairing the new
        //    descriptor with the old arena header sees versions differ.
        desc.version = even;
        self.window
            .try_poke(doff, &desc.encode())
            .expect("descriptor within window");
        if aoff != 0 {
            self.window
                .try_poke(aoff, &even.to_be_bytes())
                .expect("arena header within window");
        }
    }

    /// Publish (or refresh) `key`'s value in the arena. Values over the
    /// slot capacity are not published; if the bucket currently advertises
    /// this key, it is invalidated instead (the published copy is stale).
    pub fn publish(&self, key: &[u8], value: &[u8], flags: u32) {
        let fp = key_fingerprint(key);
        let bucket = self.bucket_of(fp);
        if value.len() > self.cfg.value_cap {
            self.too_large.set(self.too_large.get() + 1);
            self.invalidate_fp(fp);
            return;
        }
        let cur = self.read_desc(bucket);
        let offset = if cur.offset != 0 {
            cur.offset
        } else {
            self.alloc_slot()
        };
        let desc = Descriptor {
            version: cur.version,
            fingerprint: fp,
            offset,
            len: value.len() as u32,
            flags,
            in_ram: true,
        };
        self.seqlock_write(bucket, desc, Some(value));
        self.published.set(self.published.get() + 1);
    }

    /// Invalidate `key`'s descriptor if the bucket advertises it
    /// (overwrite-by-eviction, delete, expiry, data-loss drop).
    pub fn invalidate(&self, key: &[u8]) {
        self.invalidate_fp(key_fingerprint(key));
    }

    fn invalidate_fp(&self, fp: u64) {
        let bucket = self.bucket_of(fp);
        let cur = self.read_desc(bucket);
        if cur.fingerprint != fp {
            return; // bucket owned by another key (or already empty)
        }
        self.seqlock_write(bucket, emptied(cur), None);
        self.invalidated.set(self.invalidated.get() + 1);
    }

    /// The item moved to SSD: its arena bytes are gone, but the key is
    /// still served by RPC. Clearing only the in-RAM bit (fingerprint
    /// kept) lets clients account SSD fallbacks separately.
    pub fn mark_ssd(&self, key: &[u8]) {
        let fp = key_fingerprint(key);
        let bucket = self.bucket_of(fp);
        let cur = self.read_desc(bucket);
        if cur.fingerprint != fp || !cur.in_ram {
            return;
        }
        let desc = Descriptor {
            in_ram: false,
            len: 0,
            ..cur
        };
        self.seqlock_write(bucket, desc, None);
        self.marked_ssd.set(self.marked_ssd.get() + 1);
    }

    /// Invalidate every advertising bucket (server crash: RAM contents are
    /// gone, and remote readers must stop trusting the window). Buckets
    /// that are already empty are left alone.
    pub fn clear(&self) {
        for bucket in 0..self.cfg.buckets {
            let cur = self.read_desc(bucket);
            if cur.fingerprint == 0 {
                continue;
            }
            self.seqlock_write(bucket, emptied(cur), None);
            self.invalidated.set(self.invalidated.get() + 1);
        }
    }
}

/// `cur` with no key advertised. The version and the arena slot stay:
/// the bucket keeps its slot for the life of the index.
fn emptied(cur: Descriptor) -> Descriptor {
    Descriptor {
        version: cur.version,
        offset: cur.offset,
        ..Descriptor::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> Rc<OneSidedIndex> {
        OneSidedIndex::new(OneSidedConfig {
            buckets: 8,
            value_cap: 64,
        })
    }

    fn snapshot(idx: &OneSidedIndex, key: &[u8]) -> (Descriptor, u64, Vec<u8>) {
        let fp = key_fingerprint(key);
        let bucket = idx.bucket_of(fp);
        let desc = idx.read_desc(bucket);
        let aoff = desc.offset as usize;
        let hdr = u64::from_be_bytes(idx.window.peek(aoff, ARENA_HEADER)[..].try_into().unwrap());
        let val = idx
            .window
            .peek(aoff + ARENA_HEADER, desc.len as usize)
            .to_vec();
        (desc, hdr, val)
    }

    #[test]
    fn publish_yields_even_validating_snapshot() {
        let idx = idx();
        idx.publish(b"k1", b"hello", 7);
        let (desc, hdr, val) = snapshot(&idx, b"k1");
        assert_eq!(desc.version % 2, 0);
        assert!(desc.version > 0);
        assert_eq!(desc.fingerprint, key_fingerprint(b"k1"));
        assert_eq!(desc.len, 5);
        assert_eq!(desc.flags, 7);
        assert!(desc.in_ram);
        assert_eq!(hdr, desc.version, "arena header mirrors the version");
        assert_eq!(val, b"hello");
        assert_eq!(idx.stats().published, 1);
    }

    #[test]
    fn republish_bumps_version_monotonically() {
        let idx = idx();
        idx.publish(b"k1", b"v1", 0);
        let (d1, _, _) = snapshot(&idx, b"k1");
        idx.publish(b"k1", b"v2!", 0);
        let (d2, hdr, val) = snapshot(&idx, b"k1");
        assert!(d2.version > d1.version);
        assert_eq!(d2.version % 2, 0);
        assert_eq!(hdr, d2.version);
        assert_eq!(val, b"v2!");
    }

    #[test]
    fn invalidate_clears_fingerprint_but_not_other_keys() {
        let idx = idx();
        idx.publish(b"k1", b"v", 0);
        // A fingerprint that does not own the bucket is a no-op.
        idx.invalidate(b"some-other-key-entirely");
        idx.invalidate(b"k1");
        let (desc, hdr, _) = snapshot(&idx, b"k1");
        assert_eq!(desc.fingerprint, 0);
        assert_eq!(desc.len, 0);
        assert!(!desc.in_ram);
        assert_eq!(desc.version % 2, 0);
        assert_eq!(hdr, desc.version);
        assert_eq!(idx.stats().invalidated, 1);
    }

    #[test]
    fn mark_ssd_keeps_fingerprint_clears_in_ram() {
        let idx = idx();
        idx.publish(b"k1", b"v", 3);
        idx.mark_ssd(b"k1");
        let (desc, _, _) = snapshot(&idx, b"k1");
        assert_eq!(desc.fingerprint, key_fingerprint(b"k1"));
        assert!(!desc.in_ram);
        assert_eq!(desc.version % 2, 0);
        assert_eq!(idx.stats().marked_ssd, 1);
        // Idempotent.
        idx.mark_ssd(b"k1");
        assert_eq!(idx.stats().marked_ssd, 1);
    }

    #[test]
    fn oversized_values_invalidate_instead_of_publishing() {
        let idx = idx();
        idx.publish(b"k1", b"small", 0);
        idx.publish(b"k1", &[0u8; 100], 0); // over the 64 B cap
        let (desc, _, _) = snapshot(&idx, b"k1");
        assert_eq!(desc.fingerprint, 0, "stale small copy must not survive");
        assert_eq!(idx.stats().too_large, 1);
    }

    #[test]
    fn clear_invalidates_all_buckets() {
        let idx = idx();
        idx.publish(b"a", b"1", 0);
        idx.publish(b"b", b"2", 0);
        idx.clear();
        for key in [b"a", b"b"] {
            let (desc, _, _) = snapshot(&idx, key);
            assert_eq!(desc.fingerprint, 0);
            assert_eq!(desc.version % 2, 0);
        }
    }

    #[test]
    fn clear_skips_buckets_already_empty() {
        let idx = idx();
        idx.publish(b"a", b"1", 0);
        idx.publish(b"b", b"2", 0);
        idx.invalidate(b"a");
        assert_eq!(idx.stats().invalidated, 1);
        let (before, _, _) = snapshot(&idx, b"a");
        idx.clear();
        assert_eq!(idx.stats().invalidated, 2, "only `b` was still advertised");
        let (after, _, _) = snapshot(&idx, b"a");
        assert_eq!(after, before, "an empty bucket is not rewritten");
    }

    /// The offset of arena slot `i`.
    fn slot_off(idx: &OneSidedIndex, i: usize) -> u64 {
        (idx.arena_offset + i * idx.arena_slot) as u64
    }

    #[test]
    fn buckets_take_arena_slots_in_publish_order() {
        let idx = OneSidedIndex::new(OneSidedConfig {
            buckets: 65_536,
            value_cap: 64,
        });
        let mut seen = std::collections::HashSet::new();
        let keys: Vec<Vec<u8>> = (0u32..)
            .map(|i| format!("key-{i}").into_bytes())
            .filter(|k| seen.insert(idx.bucket_of(key_fingerprint(k))))
            .take(200)
            .collect();
        for (i, key) in keys.iter().enumerate() {
            idx.publish(key, &[i as u8; 16], 0);
        }
        for (i, key) in keys.iter().enumerate() {
            let (desc, hdr, val) = snapshot(&idx, key);
            assert_eq!(desc.offset, slot_off(&idx, i), "key {i} got slot {i}");
            assert_eq!(hdr, desc.version);
            assert_eq!(val, [i as u8; 16]);
        }
        assert_eq!(idx.slots_used.get(), keys.len());
    }

    #[test]
    fn a_bucket_keeps_its_slot_for_life() {
        let idx = idx();
        let bucket = idx.bucket_of(key_fingerprint(b"k1"));
        let rival = (0u32..)
            .map(|i| format!("rival-{i}").into_bytes())
            .find(|k| idx.bucket_of(key_fingerprint(k)) == bucket)
            .expect("some key shares k1's bucket");
        let first = slot_off(&idx, 0);
        let ops: [(&str, &dyn Fn()); 6] = [
            ("publish", &|| idx.publish(b"k1", b"v1", 0)),
            ("republish", &|| idx.publish(b"k1", b"v1", 0)),
            ("overwrite", &|| idx.publish(b"k1", b"longer v2", 0)),
            ("invalidate, republish", &|| {
                idx.invalidate(b"k1");
                idx.publish(b"k1", b"v3", 0);
            }),
            ("mark_ssd, republish", &|| {
                idx.mark_ssd(b"k1");
                idx.publish(b"k1", b"v4", 0);
            }),
            ("other key, same bucket", &|| idx.publish(&rival, b"v5", 0)),
        ];
        for (name, op) in ops {
            op();
            let desc = idx.read_desc(bucket);
            assert_eq!(desc.offset, first, "{name} moved the slot");
            assert!(desc.in_ram, "{name}");
            assert_eq!(idx.slots_used.get(), 1, "{name} took another slot");
        }
        let (desc, hdr, val) = snapshot(&idx, &rival);
        assert_eq!(desc.fingerprint, key_fingerprint(&rival));
        assert_eq!(hdr, desc.version);
        assert_eq!(val, b"v5");
    }

    #[test]
    fn lease_matches_layout() {
        let idx = idx();
        let lease = idx.lease();
        assert_eq!(lease.buckets, 8);
        assert_eq!(lease.desc_slot, DESC_SLOT as u32);
        assert_eq!(lease.arena_offset, (8 * DESC_SLOT) as u64);
        assert_eq!(lease.arena_slot, (ARENA_HEADER + 64) as u32);
        assert_eq!(
            idx.window().len(),
            lease.arena_offset as usize + 8 * lease.arena_slot as usize
        );
    }

    #[test]
    fn fingerprint_is_never_zero_and_length_mixed() {
        assert_ne!(key_fingerprint(b""), 0);
        assert_ne!(key_fingerprint(b"a"), key_fingerprint(b"ab"));
    }
}
