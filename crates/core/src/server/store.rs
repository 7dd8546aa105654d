//! The hybrid 'RAM+SSD' item store.
//!
//! Combines the slab pool, the hash index, and per-class LRU tracking into
//! the storage engine of the paper's hybrid Memcached server:
//!
//! - **Memory-only mode** (`IPoIB-Mem` / `RDMA-Mem`): when RAM runs out,
//!   least-recently-used *items* are evicted and their data is lost — a
//!   later get misses and the client pays the backend penalty.
//! - **Hybrid mode** (`H-RDMA-*`): when RAM runs out, the least-recently-
//!   used *slab page* of the class is flushed wholesale to SSD through the
//!   configured [`IoPolicy`] and every item in it is retargeted to its SSD
//!   location; gets transparently read (and optionally promote) from SSD.
//!
//! Every operation reports per-stage timings ([`StageTimes`]) matching the
//! paper's Section III-A breakdown.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

use bytes::Bytes;
use nbkv_simrt::{FxHashMap, Notify, Sim, SimTime};
use nbkv_storesim::{IoScheme, LruMap, SlabIo};

use crate::costs::CpuCosts;
use crate::proto::{OpStatus, ServedFrom, SetMode, StageTimes};
use crate::server::onesided::OneSidedIndex;
use crate::server::slab::{slice_item, SlabConfig, SlabPool, SlabStats, ITEM_HEADER};
use crate::util::unpack_item_id;

/// Memory-only or hybrid storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// All-in-RAM; eviction loses data (default Memcached behaviour).
    MemoryOnly,
    /// RAM + SSD: eviction flushes slab pages to SSD (the paper's design).
    Hybrid,
}

/// Largest chunk size the adaptive policy still flushes through mmap:
/// the measured crossover where buffered I/O overtakes mmap (see the
/// Figure 4 harness).
const MMAP_MAX_CHUNK: usize = 128 << 10;

/// Which I/O scheme slab flushes (and the corresponding reads) use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoPolicy {
    /// Synchronous direct I/O for everything (H-RDMA-Def).
    Direct,
    /// The paper's adaptive allocator (Figure 5): mmap for classes with
    /// chunks up to 128 KiB, buffered I/O above.
    Adaptive,
}

impl IoPolicy {
    /// The scheme used for a slab class with `chunk_size`.
    pub fn scheme_for(&self, chunk_size: usize) -> IoScheme {
        match self {
            IoPolicy::Direct => IoScheme::Direct,
            IoPolicy::Adaptive if chunk_size <= MMAP_MAX_CHUNK => IoScheme::Mmap,
            IoPolicy::Adaptive => IoScheme::Cached,
        }
    }
}

/// Whether gets promote SSD-resident items back into RAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromotePolicy {
    /// Never promote; items stay on SSD once flushed.
    Never,
    /// Promote only when a RAM chunk is free without evicting (default;
    /// avoids flush thrash).
    IfFree,
}

/// Store configuration.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Memory-only or hybrid.
    pub kind: StoreKind,
    /// RAM budget for slab pages.
    pub mem_bytes: u64,
    /// SSD byte budget (hybrid only).
    pub ssd_capacity: u64,
    /// Flush I/O policy (hybrid only).
    pub io_policy: IoPolicy,
    /// Promotion policy (hybrid only).
    pub promote: PromotePolicy,
    /// CPU cost model.
    pub costs: CpuCosts,
}

impl StoreConfig {
    /// A hybrid store with adaptive I/O (the paper's optimized design).
    pub fn hybrid(mem_bytes: u64, ssd_capacity: u64) -> Self {
        StoreConfig {
            kind: StoreKind::Hybrid,
            mem_bytes,
            ssd_capacity,
            io_policy: IoPolicy::Adaptive,
            promote: PromotePolicy::IfFree,
            costs: CpuCosts::default_costs(),
        }
    }

    /// A memory-only store.
    pub fn memory_only(mem_bytes: u64) -> Self {
        StoreConfig {
            kind: StoreKind::MemoryOnly,
            mem_bytes,
            ssd_capacity: 0,
            io_policy: IoPolicy::Direct,
            promote: PromotePolicy::Never,
            costs: CpuCosts::default_costs(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct ExtentInfo {
    len: u32,
    live: u32,
    /// I/O scheme the extent was written with (needed to re-read it
    /// during warm recovery).
    scheme: IoScheme,
    /// Chunk size of the slab class the page belonged to — the stride at
    /// which recovery re-parses items out of the extent.
    chunk_size: u32,
}

/// Insert `value` under `key`, returning the value it replaces. A new
/// entry stores its own copy of the key, so a long-lived map never keeps a
/// request frame alive through a zero-copy key slice (`HashMap::entry`
/// would take the caller's key); an overwrite keeps the stored key.
fn insert_owned<V>(map: &mut FxHashMap<Bytes, V>, key: &[u8], value: V) -> Option<V> {
    match map.get_mut(key) {
        Some(slot) => Some(std::mem::replace(slot, value)),
        None => {
            map.insert(Bytes::copy_from_slice(key), value);
            None
        }
    }
}

/// Where an item's bytes currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Location {
    Ram(u64),
    Ssd {
        scheme: IoScheme,
        offset: u64,
        len: u32,
    },
}

#[derive(Debug, Clone)]
struct ItemMeta {
    loc: Location,
    class: u32,
    version: u64,
    expire_at_ns: u64,
    flags: u32,
}

/// Result of a store operation.
#[derive(Debug, Clone)]
pub struct OpOutcome {
    /// Operation status.
    pub status: OpStatus,
    /// Value for get hits.
    pub value: Option<Bytes>,
    /// Stored flags for get hits.
    pub flags: u32,
    /// CAS token (entry version) for get hits.
    pub cas: u64,
    /// Counter value after incr/decr.
    pub counter: u64,
    /// Stage breakdown.
    pub stages: StageTimes,
}

impl OpOutcome {
    fn status_only(status: OpStatus, stages: StageTimes) -> OpOutcome {
        OpOutcome {
            status,
            value: None,
            flags: 0,
            cas: 0,
            counter: 0,
            stages,
        }
    }
}

nbkv_obs::counters! {
    /// Store counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct StoreStats {
        /// Successful sets.
        sum sets: u64,
        /// Gets served from RAM.
        sum get_hits_ram: u64,
        /// Gets served from SSD.
        sum get_hits_ssd: u64,
        /// Gets that missed.
        sum get_misses: u64,
        /// Items that missed because they expired.
        sum expired: u64,
        /// Deletes that removed something.
        sum deletes: u64,
        /// Slab pages flushed to SSD.
        sum flushed_pages: u64,
        /// Items lost to memory-only eviction.
        sum evicted_items: u64,
        /// Items dropped because their page could not reach the SSD:
        /// either the SSD was full or the write failed (`flush_errors`
        /// counts the failed writes).
        sum ssd_full_drops: u64,
        /// SSD items promoted back to RAM.
        sum promotes: u64,
        /// Always 0: every slab flush completes before its page is freed.
        /// Kept because the run manifests read it.
        sum async_flushes: u64,
        /// Always 0: no read is served from a flush buffer. Kept because
        /// the benchmark's `store.inflight_hit_ratio` metric and the run
        /// manifests read it.
        sum inflight_hits: u64,
        /// Bytes of SSD extents occupied by dead (superseded/deleted) items,
        /// awaiting whole-extent reclamation.
        sum ssd_dead_bytes: u64,
        /// Extents returned to the free list after every item in them died.
        sum ssd_reclaimed_extents: u64,
        /// Bytes made reusable by extent reclamation.
        sum ssd_reclaimed_bytes: u64,
        /// Sets that failed (no memory / too large).
        sum set_errors: u64,
        /// Gets that failed on an SSD read error (e.g. injected device fault).
        sum get_io_errors: u64,
        /// Slab-page flushes whose SSD write failed (items dropped).
        sum flush_errors: u64,
        /// Simulated crashes (RAM state lost).
        sum crashes: u64,
        /// Items re-indexed from SSD extents during warm recovery.
        sum recovered_items: u64,
        /// Replicated writes applied (set or delete) via
        /// [`HybridStore::apply_replicated`].
        sum repl_applied: u64,
        /// Replicated writes dropped because an equal-or-newer per-key
        /// sequence number had already been applied (out-of-order delivery or
        /// retransmit; dropping prevents stale-value resurrection).
        sum repl_stale_drops: u64,
    }
}

/// One logical write for the replication engine to propagate: the full
/// new state of a key (or its deletion) plus the per-key sequence number
/// that orders it against every other write to the same key.
#[derive(Debug, Clone)]
pub struct ReplUpdate {
    /// Key bytes.
    pub key: Bytes,
    /// The complete new value (empty for a delete).
    pub value: Bytes,
    /// True if the key was deleted.
    pub delete: bool,
    /// Opaque client flags of the new value.
    pub flags: u32,
    /// Expiration (virtual ns since sim start; 0 = never).
    pub expire_at_ns: u64,
    /// Per-key monotonic sequence number (derived from the store version
    /// counter, which survives warm restarts).
    pub seq: u64,
}

/// Callback invoked synchronously for every *locally originated* write
/// (never for replicated applies); the server's replication engine uses
/// it to enqueue [`ReplUpdate`]s toward the key's other replicas.
pub type ReplHook = Rc<dyn Fn(ReplUpdate)>;

/// Who originated a store mutation (drives the replication hook).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteOrigin {
    /// A client request served by this node: propagate to replicas.
    Local,
    /// An incoming [`ReplUpdate`] apply: never re-propagated.
    Replicated,
}

/// Outcome of a warm recovery scan ([`HybridStore::recover`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Extents scanned from the extent directory.
    pub extents_scanned: u64,
    /// Distinct keys re-indexed from SSD.
    pub items_recovered: u64,
    /// Superseded duplicate copies skipped in favour of a newer extent.
    pub duplicates_dropped: u64,
    /// Extents that could not be read back (e.g. injected read errors);
    /// their contents are lost and their space reclaimed.
    pub read_errors: u64,
    /// Bytes read from the device during the scan.
    pub bytes_read: u64,
}

/// A slab flush in flight, counted in `flushes_in_flight` for as long as
/// it lives: it ends when the flush does, or when a crash cancels the task
/// that runs it. Either way the waiters for memory are woken.
struct FlushInFlight<'a>(&'a HybridStore);

impl<'a> FlushInFlight<'a> {
    fn new(store: &'a HybridStore) -> Self {
        store
            .flushes_in_flight
            .set(store.flushes_in_flight.get() + 1);
        FlushInFlight(store)
    }
}

impl Drop for FlushInFlight<'_> {
    fn drop(&mut self) {
        let store = self.0;
        store
            .flushes_in_flight
            .set(store.flushes_in_flight.get() - 1);
        store.mem_notify.notify_waiters();
    }
}

/// An SSD extent reserved for one flush. Unless the flush `keep`s
/// it, dropping it returns the extent to `ssd_free`: after a failed write,
/// or when a crash cancels the flush (the extent was never registered, so
/// recovery cannot see it).
struct Reservation<'a> {
    store: &'a HybridStore,
    base: u64,
    len: u32,
}

impl Reservation<'_> {
    /// The flush landed: the extent is the caller's to register.
    fn keep(self) -> u64 {
        let base = self.base;
        std::mem::forget(self);
        base
    }
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.store.ssd_free.borrow_mut().push((self.base, self.len));
    }
}

/// The storage engine shared by all server request handlers.
pub struct HybridStore {
    sim: Sim,
    cfg: StoreConfig,
    pool: RefCell<SlabPool>,
    index: RefCell<FxHashMap<Bytes, ItemMeta>>,
    item_lru: RefCell<Vec<LruMap<u64, ()>>>,
    page_lru: RefCell<Vec<LruMap<u32, ()>>>,
    ssd: Option<Rc<SlabIo>>,
    ssd_bump: Cell<u64>,
    /// Live-item count per SSD extent (keyed by base offset); an extent
    /// whose count reaches zero is reclaimed for reuse.
    ssd_extents: RefCell<BTreeMap<u64, ExtentInfo>>,
    /// Reclaimed extents ready for reuse by new flushes.
    ssd_free: RefCell<Vec<(u64, u32)>>,
    next_version: Cell<u64>,
    flushes_in_flight: Cell<u32>,
    mem_notify: Notify,
    stats: RefCell<StoreStats>,
    /// Highest replication sequence number seen (generated or applied)
    /// per key. Survives deletes as a tombstone so a late replicated
    /// write cannot resurrect a removed value; lost on crash like every
    /// other RAM structure (the first post-restart delivery re-seeds it).
    repl_seqs: RefCell<FxHashMap<Bytes, u64>>,
    /// Replication hook for locally originated writes, if the server
    /// enabled replication.
    repl_hook: RefCell<Option<ReplHook>>,
    /// One-sided index region, if the server publishes one. Every mutation
    /// that changes where (or whether) a value lives must keep it coherent
    /// via the seqlock hooks below.
    onesided: RefCell<Option<Rc<OneSidedIndex>>>,
}

impl HybridStore {
    /// Build a store. `ssd` is required for [`StoreKind::Hybrid`].
    pub fn new(sim: &Sim, cfg: StoreConfig, ssd: Option<Rc<SlabIo>>) -> Rc<Self> {
        if cfg.kind == StoreKind::Hybrid {
            assert!(ssd.is_some(), "hybrid store needs an SSD");
        }
        let pool = SlabPool::new(SlabConfig::with_mem(cfg.mem_bytes));
        let n_classes = pool.num_classes();
        Rc::new(HybridStore {
            sim: sim.clone(),
            cfg,
            pool: RefCell::new(pool),
            index: RefCell::default(),
            item_lru: RefCell::new((0..n_classes).map(|_| LruMap::new()).collect()),
            page_lru: RefCell::new((0..n_classes).map(|_| LruMap::new()).collect()),
            ssd,
            ssd_bump: Cell::new(0),
            ssd_extents: RefCell::default(),
            ssd_free: RefCell::default(),
            next_version: Cell::new(1),
            flushes_in_flight: Cell::new(0),
            mem_notify: Notify::new(),
            stats: RefCell::default(),
            repl_seqs: RefCell::default(),
            repl_hook: RefCell::new(None),
            onesided: RefCell::new(None),
        })
    }

    /// Install the replication hook: from now on every locally originated
    /// mutation (set/counter/append/delete — not expiry reaping, not
    /// capacity eviction, and never a replicated apply) calls it with the
    /// key's full new state and sequence number.
    pub fn set_repl_hook(&self, hook: ReplHook) {
        *self.repl_hook.borrow_mut() = Some(hook);
    }

    /// Attach a one-sided index region; subsequent mutations publish and
    /// invalidate descriptors through it.
    pub fn attach_onesided(&self, idx: Rc<OneSidedIndex>) {
        *self.onesided.borrow_mut() = Some(idx);
    }

    /// The attached one-sided index, if any.
    pub fn onesided(&self) -> Option<Rc<OneSidedIndex>> {
        self.onesided.borrow().clone()
    }

    /// Publish `key`'s in-RAM value to the one-sided window. Items with an
    /// expiry are never published: a remote reader cannot check TTLs, so
    /// they stay RPC-only.
    fn os_publish(&self, key: &[u8], value: &[u8], flags: u32, expire_at_ns: u64) {
        if let Some(idx) = self.onesided.borrow().as_ref() {
            if expire_at_ns == 0 {
                idx.publish(key, value, flags);
            } else {
                idx.invalidate(key);
            }
        }
    }

    /// Invalidate `key`'s descriptor (delete, expiry, eviction, data loss).
    fn os_invalidate(&self, key: &[u8]) {
        if let Some(idx) = self.onesided.borrow().as_ref() {
            idx.invalidate(key);
        }
    }

    /// Clear `key`'s in-RAM bit: the value moved to SSD and its arena
    /// bytes are no longer valid, but the key still serves over RPC.
    fn os_mark_ssd(&self, key: &[u8]) {
        if let Some(idx) = self.onesided.borrow().as_ref() {
            idx.mark_ssd(key);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        *self.stats.borrow()
    }

    /// Number of slab-eviction flushes currently in flight. The server
    /// samples this on request arrival to flag comm/flush overlap.
    pub fn flushes_in_flight(&self) -> u32 {
        self.flushes_in_flight.get()
    }

    /// Slab pool counters.
    pub fn slab_stats(&self) -> SlabStats {
        self.pool.borrow().stats()
    }

    /// The slab I/O facade, if this store is hybrid (for I/O counters).
    pub fn slab_io(&self) -> Option<&Rc<SlabIo>> {
        self.ssd.as_ref()
    }

    /// Number of indexed keys.
    pub fn len(&self) -> usize {
        self.index.borrow().len()
    }

    /// True if no keys are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configuration in force.
    pub fn config(&self) -> &StoreConfig {
        &self.cfg
    }

    async fn charge(&self, d: std::time::Duration) {
        if !d.is_zero() {
            self.sim.sleep(d).await;
        }
    }

    fn ns_since(&self, t: SimTime) -> u64 {
        self.sim.now().saturating_since(t).as_nanos() as u64
    }

    /// Store a key-value pair (`memcached_set` semantics).
    pub async fn set(&self, key: Bytes, value: Bytes, flags: u32, expire_at_ns: u64) -> OpOutcome {
        self.set_with_mode(SetMode::Set, key, value, flags, expire_at_ns)
            .await
    }

    /// Store with memcached conditional semantics (see [`SetMode`]).
    ///
    /// - `Add` fails with `Exists` if the key is live.
    /// - `Replace` fails with `NotStored` if the key is absent.
    /// - `Cas` fails with `NotFound` (absent) or `Exists` (token mismatch).
    /// - `Append`/`Prepend` splice onto the existing value, inheriting its
    ///   flags and expiry; they fail with `NotStored` if the key is absent.
    pub async fn set_with_mode(
        &self,
        mode: SetMode,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire_at_ns: u64,
    ) -> OpOutcome {
        let mut stages = StageTimes {
            served_from: ServedFrom::None,
            ..StageTimes::default()
        };

        // Conditional-mode precondition checks (and value splicing).
        let t_check = self.sim.now();
        self.charge(self.cfg.costs.hash).await;
        let existing = self.live_meta(&key);
        match mode {
            SetMode::Set => {}
            SetMode::Add => {
                if existing.is_some() {
                    stages.check_load_ns = self.ns_since(t_check);
                    return OpOutcome::status_only(OpStatus::Exists, stages);
                }
            }
            SetMode::Replace => {
                if existing.is_none() {
                    stages.check_load_ns = self.ns_since(t_check);
                    return OpOutcome::status_only(OpStatus::NotStored, stages);
                }
            }
            SetMode::Cas(token) => match &existing {
                None => {
                    stages.check_load_ns = self.ns_since(t_check);
                    return OpOutcome::status_only(OpStatus::NotFound, stages);
                }
                Some(meta) if meta.version != token => {
                    stages.check_load_ns = self.ns_since(t_check);
                    return OpOutcome::status_only(OpStatus::Exists, stages);
                }
                Some(_) => {}
            },
            SetMode::Append | SetMode::Prepend => {
                let Some(meta) = existing.clone() else {
                    stages.check_load_ns = self.ns_since(t_check);
                    return OpOutcome::status_only(OpStatus::NotStored, stages);
                };
                let Some(current) = self.load_value(&key, &meta).await else {
                    stages.check_load_ns = self.ns_since(t_check);
                    return OpOutcome::status_only(OpStatus::NotStored, stages);
                };
                let mut combined = Vec::with_capacity(current.len() + value.len());
                if mode == SetMode::Append {
                    combined.extend_from_slice(&current);
                    combined.extend_from_slice(&value);
                } else {
                    combined.extend_from_slice(&value);
                    combined.extend_from_slice(&current);
                }
                // Append/prepend are atomic in memcached: store against the
                // version we read and retry if a writer raced us.
                let out = Box::pin(self.set_with_mode(
                    SetMode::Cas(meta.version),
                    key.clone(),
                    Bytes::from(combined),
                    meta.flags,
                    meta.expire_at_ns,
                ))
                .await;
                if out.status == OpStatus::Exists || out.status == OpStatus::NotFound {
                    return Box::pin(self.set_with_mode(mode, key, value, flags, expire_at_ns))
                        .await;
                }
                return out;
            }
        }
        stages.check_load_ns = self.ns_since(t_check);

        self.store_item(key, value, flags, expire_at_ns, stages, WriteOrigin::Local)
            .await
    }

    /// The unconditional allocate+write+index path shared by every store
    /// mutation.
    async fn store_item(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire_at_ns: u64,
        mut stages: StageTimes,
        origin: WriteOrigin,
    ) -> OpOutcome {
        let item_len = SlabPool::item_len(key.len(), value.len());
        let Some(class) = self.pool.borrow().class_for(item_len) else {
            self.stats.borrow_mut().set_errors += 1;
            return OpOutcome::status_only(OpStatus::Error, stages);
        };

        // Stage 1: slab allocation (may flush/evict). Time spent inside
        // hybrid eviction (flushing a page, or waiting out someone else's
        // flush) is also attributed to the request's SSD share. A chunk
        // lost to a flush during its copy is allocated again, and the lost
        // attempt counts as allocation time.
        let t0 = self.sim.now();
        let mut ssd_wait_ns = 0u64;
        let (id, t1) = loop {
            let id = loop {
                let got = self.pool.borrow_mut().try_alloc(class);
                if let Some(id) = got {
                    break id;
                }
                let t_room = self.sim.now();
                let made = self.make_room(class).await;
                if self.cfg.kind == StoreKind::Hybrid {
                    ssd_wait_ns += self.ns_since(t_room);
                }
                if !made {
                    if self.flushes_in_flight.get() > 0 {
                        // Another handler is flushing; wait for memory.
                        let t_wait = self.sim.now();
                        self.mem_notify.notified().await;
                        if self.cfg.kind == StoreKind::Hybrid {
                            ssd_wait_ns += self.ns_since(t_wait);
                        }
                        continue;
                    }
                    self.stats.borrow_mut().set_errors += 1;
                    return OpOutcome::status_only(OpStatus::Error, stages);
                }
            };

            // Store the item bytes.
            let t1 = self.sim.now();
            let generation = self.pool.borrow().generation(id);
            self.pool
                .borrow_mut()
                .write_item(id, &key, &value, flags, expire_at_ns);
            self.charge(self.cfg.costs.memcpy(item_len)).await;
            if !self.chunk_lost(id, generation) {
                break (id, t1);
            }
        };
        stages.slab_alloc_ns = t1.saturating_since(t0).as_nanos() as u64;
        stages.ssd_ns += ssd_wait_ns;
        stages.check_load_ns += self.ns_since(t1);

        // Stage 3: index + LRU update.
        let t2 = self.sim.now();
        let version = self.next_version.get();
        self.next_version.set(version + 1);
        self.os_publish(&key, &value, flags, expire_at_ns);
        let old = insert_owned(
            &mut self.index.borrow_mut(),
            &key,
            ItemMeta {
                loc: Location::Ram(id),
                class: class as u32,
                version,
                expire_at_ns,
                flags,
            },
        );
        if let Some(old) = old {
            self.release_meta(&old);
        }
        self.touch_lru(class, id);
        self.charge(self.cfg.costs.hash + self.cfg.costs.lru).await;
        stages.cache_update_ns = self.ns_since(t2);

        self.stats.borrow_mut().sets += 1;
        if origin == WriteOrigin::Local {
            self.fire_repl_hook(key, value, false, flags, expire_at_ns, version);
        }
        OpOutcome {
            status: OpStatus::Stored,
            value: None,
            flags: 0,
            cas: version,
            counter: 0,
            stages,
        }
    }

    /// Increment or decrement a decimal-ASCII counter (memcached
    /// `incr`/`decr`). Missing keys yield `NotFound`; non-numeric values
    /// yield `Error`; `decr` clamps at zero, `incr` wraps (memcached
    /// semantics).
    pub async fn counter(&self, key: &Bytes, delta: u64, negative: bool) -> OpOutcome {
        let mut stages = StageTimes {
            served_from: ServedFrom::None,
            ..StageTimes::default()
        };
        let t0 = self.sim.now();
        self.charge(self.cfg.costs.hash).await;
        let Some(meta) = self.live_meta(key) else {
            stages.check_load_ns = self.ns_since(t0);
            return OpOutcome::status_only(OpStatus::NotFound, stages);
        };
        let Some(current) = self.load_value(key, &meta).await else {
            stages.check_load_ns = self.ns_since(t0);
            return OpOutcome::status_only(OpStatus::NotFound, stages);
        };
        let Some(parsed) = std::str::from_utf8(&current)
            .ok()
            .and_then(|t| t.trim().parse::<u64>().ok())
        else {
            stages.check_load_ns = self.ns_since(t0);
            return OpOutcome::status_only(OpStatus::Error, stages);
        };
        let next = if negative {
            parsed.saturating_sub(delta)
        } else {
            parsed.wrapping_add(delta)
        };
        let check_load_ns = self.ns_since(t0);
        // Store conditionally on the version we read, retrying on a racing
        // writer — memcached's incr/decr are atomic.
        let mut out = Box::pin(self.set_with_mode(
            SetMode::Cas(meta.version),
            key.clone(),
            Bytes::from(next.to_string()),
            meta.flags,
            meta.expire_at_ns,
        ))
        .await;
        if out.status == OpStatus::Exists || out.status == OpStatus::NotFound {
            // Lost a race: recompute against the current value.
            return Box::pin(self.counter(key, delta, negative)).await;
        }
        // The store's stage breakdown starts at the CAS write; account the
        // read-modify phase too.
        out.stages.check_load_ns += check_load_ns;
        if out.status == OpStatus::Stored {
            out.counter = next;
        }
        out
    }

    /// Update an entry's expiry without touching the value (memcached
    /// `touch`).
    pub async fn touch(&self, key: &Bytes, expire_at_ns: u64) -> OpOutcome {
        let mut stages = StageTimes {
            served_from: ServedFrom::None,
            ..StageTimes::default()
        };
        let t0 = self.sim.now();
        self.charge(self.cfg.costs.hash).await;
        if self.live_meta(key).is_none() {
            stages.cache_update_ns = self.ns_since(t0);
            return OpOutcome::status_only(OpStatus::NotFound, stages);
        }
        if let Some(meta) = self.index.borrow_mut().get_mut(key) {
            meta.expire_at_ns = expire_at_ns;
        }
        self.charge(self.cfg.costs.lru).await;
        stages.cache_update_ns = self.ns_since(t0);
        OpOutcome::status_only(OpStatus::Stored, stages)
    }

    /// The live (non-expired) meta for `key`, reaping it if expired.
    fn live_meta(&self, key: &Bytes) -> Option<ItemMeta> {
        let meta = self.index.borrow().get(key).cloned()?;
        if meta.expire_at_ns != 0 && self.sim.now().as_nanos() >= meta.expire_at_ns {
            self.remove_entry(key);
            self.stats.borrow_mut().expired += 1;
            return None;
        }
        Some(meta)
    }

    /// Load the current value bytes for `meta` (RAM or SSD), charging the
    /// appropriate costs. Returns `None` if the location became invalid.
    async fn load_value(&self, key: &Bytes, meta: &ItemMeta) -> Option<Bytes> {
        match meta.loc {
            Location::Ram(id) => {
                let item = self.pool.borrow().read_item(id)?;
                self.charge(self.cfg.costs.memcpy(item.value.len())).await;
                Some(item.value)
            }
            Location::Ssd {
                scheme,
                offset,
                len,
            } => {
                let ssd = self.ssd.as_ref().expect("SSD location implies hybrid");
                let raw = ssd.read(scheme, offset, len as usize).await.ok()?;
                let item = slice_item(&raw)?;
                debug_assert_eq!(&item.key[..], &key[..]);
                Some(item.value)
            }
        }
    }

    /// Fetch a value.
    pub async fn get(&self, key: &Bytes) -> OpOutcome {
        let mut stages = StageTimes {
            served_from: ServedFrom::None,
            ..StageTimes::default()
        };
        let t0 = self.sim.now();
        self.charge(self.cfg.costs.hash).await;
        let meta = self.index.borrow().get(key).cloned();
        let Some(meta) = meta else {
            stages.check_load_ns = self.ns_since(t0);
            self.stats.borrow_mut().get_misses += 1;
            return OpOutcome::status_only(OpStatus::Miss, stages);
        };
        if meta.expire_at_ns != 0 && self.sim.now().as_nanos() >= meta.expire_at_ns {
            self.remove_entry(key);
            stages.check_load_ns = self.ns_since(t0);
            let mut st = self.stats.borrow_mut();
            st.expired += 1;
            st.get_misses += 1;
            return OpOutcome::status_only(OpStatus::Miss, stages);
        }

        match meta.loc {
            Location::Ram(id) => {
                let item = self
                    .pool
                    .borrow()
                    .read_item(id)
                    .expect("RAM location must be readable");
                self.charge(self.cfg.costs.memcpy(item.value.len())).await;
                stages.check_load_ns = self.ns_since(t0);
                stages.served_from = ServedFrom::Ram;

                let t1 = self.sim.now();
                // Re-validate before the LRU touch: the chunk may have been
                // freed (overwrite/delete/flush) while the copy charge was
                // awaited, and touching a freed id would resurrect it in
                // the LRU and eventually double-free the chunk.
                let still_current = self
                    .index
                    .borrow()
                    .get(key)
                    .is_some_and(|m| m.version == meta.version);
                if still_current {
                    self.touch_lru(meta.class as usize, id);
                }
                self.charge(self.cfg.costs.lru).await;
                stages.cache_update_ns = self.ns_since(t1);

                self.stats.borrow_mut().get_hits_ram += 1;
                OpOutcome {
                    status: OpStatus::Hit,
                    value: Some(item.value),
                    flags: meta.flags,
                    cas: meta.version,
                    counter: 0,
                    stages,
                }
            }
            Location::Ssd {
                scheme,
                offset,
                len,
            } => {
                let ssd = self.ssd.as_ref().expect("SSD location implies hybrid");
                let t_ssd = self.sim.now();
                let Ok(raw) = ssd.read(scheme, offset, len as usize).await else {
                    stages.check_load_ns = self.ns_since(t0);
                    self.stats.borrow_mut().get_io_errors += 1;
                    return OpOutcome::status_only(OpStatus::Error, stages);
                };
                stages.ssd_ns += self.ns_since(t_ssd);
                let item = slice_item(&raw).expect("SSD item parse");
                debug_assert_eq!(&item.key[..], &key[..]);
                stages.check_load_ns = self.ns_since(t0);
                stages.served_from = ServedFrom::Ssd;

                let t1 = self.sim.now();
                if self.cfg.promote == PromotePolicy::IfFree {
                    self.maybe_promote(key, &meta, &item).await;
                }
                self.charge(self.cfg.costs.lru).await;
                stages.cache_update_ns = self.ns_since(t1);

                self.stats.borrow_mut().get_hits_ssd += 1;
                OpOutcome {
                    status: OpStatus::Hit,
                    value: Some(item.value),
                    flags: meta.flags,
                    cas: meta.version,
                    counter: 0,
                    stages,
                }
            }
        }
    }

    /// Remove a key.
    pub async fn delete(&self, key: &Bytes) -> OpOutcome {
        let mut stages = StageTimes {
            served_from: ServedFrom::None,
            ..StageTimes::default()
        };
        let t0 = self.sim.now();
        self.charge(self.cfg.costs.hash).await;
        let removed = self.remove_entry(key);
        stages.cache_update_ns = self.ns_since(t0);
        if removed {
            self.stats.borrow_mut().deletes += 1;
            // Deletes version like stores do, so a replicated tombstone
            // carries a seq newer than the value it removes.
            let version = self.next_version.get();
            self.next_version.set(version + 1);
            self.fire_repl_hook(key.clone(), Bytes::new(), true, 0, 0, version);
            OpOutcome::status_only(OpStatus::Deleted, stages)
        } else {
            OpOutcome::status_only(OpStatus::NotFound, stages)
        }
    }

    /// Apply a replicated write (or tombstone) received from the key's
    /// primary. Admission is guarded by the per-key sequence number: a
    /// frame whose `seq` is not strictly newer than the highest already
    /// seen for `key` is dropped (`NotStored`), so out-of-order delivery
    /// and retransmits can never resurrect a stale value. The sequence map
    /// lives in RAM — after a crash the first delivery for each key
    /// re-seeds it, which is safe because seqs only ever grow.
    pub async fn apply_replicated(
        &self,
        key: Bytes,
        value: Bytes,
        delete: bool,
        flags: u32,
        expire_at_ns: u64,
        seq: u64,
    ) -> OpOutcome {
        let stages = StageTimes {
            served_from: ServedFrom::None,
            ..StageTimes::default()
        };
        self.charge(self.cfg.costs.hash).await;
        // Lamport-style clock sync: advance the local version counter past
        // any sequence number we observe, so sequence floors minted here
        // stay comparable with the peer's after a failover swaps which
        // node originates a key's writes (without this, a recovering
        // primary can mint seqs forever below its promoted replica's and
        // have every post-restart write rejected as stale).
        if self.next_version.get() <= seq {
            self.next_version.set(seq + 1);
        }
        {
            let mut seqs = self.repl_seqs.borrow_mut();
            let last = seqs.get(&key).copied().unwrap_or(0);
            if seq <= last {
                self.stats.borrow_mut().repl_stale_drops += 1;
                return OpOutcome::status_only(OpStatus::NotStored, stages);
            }
            insert_owned(&mut seqs, &key, seq);
        }
        if delete {
            self.remove_entry(&key);
            self.stats.borrow_mut().repl_applied += 1;
            return OpOutcome::status_only(OpStatus::Deleted, stages);
        }
        let out = self
            .store_item(
                key,
                value,
                flags,
                expire_at_ns,
                stages,
                WriteOrigin::Replicated,
            )
            .await;
        if out.status == OpStatus::Stored {
            self.stats.borrow_mut().repl_applied += 1;
        }
        out
    }

    // -- internals ---------------------------------------------------------

    /// Next replication sequence number for `key`: strictly above both the
    /// highest seq this store has seen for the key (generated *or*
    /// admitted — so a promoted replica continues the primary's numbering)
    /// and `floor`, the item version, which survives warm restarts via
    /// `next_version`.
    fn next_repl_seq(&self, key: &Bytes, floor: u64) -> u64 {
        let mut seqs = self.repl_seqs.borrow_mut();
        let last = seqs.get(key).copied().unwrap_or(0);
        let seq = (last + 1).max(floor);
        insert_owned(&mut seqs, key, seq);
        seq
    }

    /// Invoke the replication hook (if installed) for a locally originated
    /// mutation. `version` floors the generated sequence number.
    fn fire_repl_hook(
        &self,
        key: Bytes,
        value: Bytes,
        delete: bool,
        flags: u32,
        expire_at_ns: u64,
        version: u64,
    ) {
        let hook = self.repl_hook.borrow().clone();
        if let Some(hook) = hook {
            let seq = self.next_repl_seq(&key, version);
            hook(ReplUpdate {
                key,
                value,
                delete,
                flags,
                expire_at_ns,
                seq,
            });
        }
    }

    fn touch_lru(&self, class: usize, id: u64) {
        let (page, _) = unpack_item_id(id);
        self.item_lru.borrow_mut()[class].insert(id, ());
        // A touch must not put a mid-flush (or retired) page back into
        // eviction circulation: a later flush_lru_page would pop it and
        // double-flush. Items on such pages are still readable; the page
        // itself is already on its way out.
        if !self.pool.borrow().page_out_of_circulation(page) {
            self.page_lru.borrow_mut()[class].insert(page, ());
        }
    }

    /// Whether chunk `id`, allocated at page `generation` and written
    /// before an await, was lost to a flush of its page during the await
    /// (see [`SlabPool::chunk_intact`]). A lost chunk on a page still
    /// mid-flush is freed here; releasing the page already dropped it.
    fn chunk_lost(&self, id: u64, generation: u32) -> bool {
        let mut pool = self.pool.borrow_mut();
        if pool.chunk_intact(id, generation) {
            return false;
        }
        if pool.generation(id) == generation {
            pool.free_chunk(id);
        }
        true
    }

    /// Drop index bookkeeping for a superseded/removed meta.
    fn release_meta(&self, meta: &ItemMeta) {
        match meta.loc {
            Location::Ram(id) => {
                self.pool.borrow_mut().free_chunk(id);
                self.item_lru.borrow_mut()[meta.class as usize].remove(&id);
            }
            Location::Ssd { offset, len, .. } => {
                self.release_ssd_slot(offset, len);
            }
        }
    }

    fn remove_entry(&self, key: &[u8]) -> bool {
        let removed = self.index.borrow_mut().remove(key);
        match removed {
            Some(meta) => {
                self.release_meta(&meta);
                self.os_invalidate(key);
                true
            }
            None => false,
        }
    }

    /// Free memory for `class`. Returns true if progress was made.
    async fn make_room(&self, class: usize) -> bool {
        match self.cfg.kind {
            StoreKind::MemoryOnly => self.evict_items(class),
            StoreKind::Hybrid => self.flush_lru_page(class).await,
        }
    }

    /// Memory-only eviction: drop LRU items (data loss) until a chunk (or
    /// page) frees up.
    fn evict_items(&self, class: usize) -> bool {
        // Evict from this class if it has items; otherwise steal a whole
        // page from the class with the most pages.
        let victim_id = self.item_lru.borrow_mut()[class]
            .pop_lru()
            .map(|(id, _)| id);
        if let Some(id) = victim_id {
            if let Some(key) = self.pool.borrow().read_key(id) {
                self.index.borrow_mut().remove(&key);
                self.os_invalidate(&key);
            }
            self.pool.borrow_mut().free_chunk(id);
            self.stats.borrow_mut().evicted_items += 1;
            return true;
        }
        let donor = self.largest_other_class(class);
        let Some(donor) = donor else { return false };
        let Some((page, _)) = self.page_lru.borrow_mut()[donor].pop_lru() else {
            return false;
        };
        self.drop_page_items(donor, page);
        self.pool.borrow_mut().begin_flush(page);
        self.pool.borrow_mut().release_page(page);
        true
    }

    fn largest_other_class(&self, class: usize) -> Option<usize> {
        let pool = self.pool.borrow();
        (0..pool.num_classes())
            .filter(|&c| c != class && !pool.class_pages(c).is_empty())
            .max_by_key(|&c| pool.class_pages(c).len())
    }

    /// Remove every live item of `page` from the index (data loss path).
    fn drop_page_items(&self, class: usize, page: u32) {
        let ids = self.pool.borrow().page_chunk_ids(page);
        for id in ids {
            let Some(key) = self.pool.borrow().read_key(id) else {
                continue;
            };
            let is_live = self
                .index
                .borrow()
                .get(&key)
                .is_some_and(|m| m.loc == Location::Ram(id));
            if is_live {
                self.index.borrow_mut().remove(&key);
                self.os_invalidate(&key);
                self.item_lru.borrow_mut()[class].remove(&id);
                self.stats.borrow_mut().evicted_items += 1;
            }
        }
    }

    /// Hybrid eviction: flush the LRU page of `class` (or of the largest
    /// donor class) to SSD and retarget its items.
    async fn flush_lru_page(&self, class: usize) -> bool {
        let victim = {
            let mut page_lru = self.page_lru.borrow_mut();
            match page_lru[class].pop_lru() {
                Some((page, _)) => Some((class, page)),
                None => match self.largest_other_class(class) {
                    Some(donor) => page_lru[donor].pop_lru().map(|(page, _)| (donor, page)),
                    None => None,
                },
            }
        };
        let Some((vclass, page)) = victim else {
            return false;
        };
        let _in_flight = FlushInFlight::new(self);
        self.flush_page(vclass, page).await
    }

    async fn flush_page(&self, class: usize, page: u32) -> bool {
        // Withdraw the page from circulation and capture its live items.
        let (scheme, chunk_size, page_buf, captured) = {
            let mut pool = self.pool.borrow_mut();
            pool.begin_flush(page);
            let chunk_size = pool.chunk_size(class);
            let scheme = self.cfg.io_policy.scheme_for(chunk_size);
            // Buffer the page (the paper: "an entire slab is buffered and
            // flushed to the SSD"). The buffer is a copy-on-write handle to
            // the page itself: a write to the page while the handle is held
            // copies the page, so the flushed bytes never change.
            let page_buf = pool.page_data(page);
            let mut captured: Vec<(Bytes, u64, u64, u32)> = Vec::new();
            let index = self.index.borrow();
            for id in pool.page_chunk_ids(page) {
                let Some(key) = pool.read_key(id) else {
                    continue;
                };
                let stored = pool.stored_len(id).unwrap_or(0) as u32;
                let live_version = index
                    .get(&key)
                    .filter(|m| m.loc == Location::Ram(id))
                    .map(|m| m.version);
                if let Some(version) = live_version {
                    captured.push((key, version, id, stored));
                }
            }
            (scheme, chunk_size, page_buf, captured)
        };
        self.charge(self.cfg.costs.memcpy(page_buf.len())).await;

        // Reserve an SSD extent; on a full SSD fall back to dropping.
        let Some(extent) = self.reserve_ssd(page_buf.len() as u32) else {
            self.abandon_flush(class, page, &captured);
            return true;
        };

        let ssd = self.ssd.as_ref().expect("hybrid flush needs SSD");
        if ssd.write(scheme, extent.base, &page_buf).await.is_err() {
            // Treat a failed flush like a full SSD: drop the items, and
            // give the reserved extent back for the next flush.
            self.stats.borrow_mut().flush_errors += 1;
            drop(extent);
            self.abandon_flush(class, page, &captured);
            return true;
        }

        let base = extent.keep();
        self.retarget_and_release(
            &captured,
            class,
            page,
            scheme,
            base,
            chunk_size,
            page_buf.len() as u32,
        );
        true
    }

    /// A flush whose page cannot reach the SSD (full, or the write
    /// failed): drop the captured items that are still current and return
    /// the page to the pool.
    fn abandon_flush(&self, class: usize, page: u32, captured: &[(Bytes, u64, u64, u32)]) {
        let dropped = self.drop_captured(captured);
        let mut item_lru = self.item_lru.borrow_mut();
        for (_, _, id, _) in captured {
            item_lru[class].remove(id);
        }
        drop(item_lru);
        self.stats.borrow_mut().ssd_full_drops += dropped;
        self.pool.borrow_mut().release_page(page);
    }

    /// Point the captured items at their SSD locations (skipping any that
    /// were overwritten mid-flush) and return the page to the pool.
    #[allow(clippy::too_many_arguments)]
    fn retarget_and_release(
        &self,
        captured: &[(Bytes, u64, u64, u32)],
        class: usize,
        page: u32,
        scheme: IoScheme,
        base: u64,
        chunk_size: usize,
        extent_len: u32,
    ) {
        let mut live = 0u32;
        for (key, version, id, stored) in captured {
            let (_, chunk) = unpack_item_id(*id);
            let offset = base + chunk as u64 * chunk_size as u64;
            let mut index = self.index.borrow_mut();
            let mut retargeted = false;
            if let Some(meta) = index.get_mut(key) {
                if meta.version == *version {
                    meta.loc = Location::Ssd {
                        scheme,
                        offset,
                        len: *stored,
                    };
                    live += 1;
                    retargeted = true;
                }
            }
            drop(index);
            if retargeted {
                // The value's bytes left registered RAM: remote readers
                // must stop trusting the arena copy and fall back to RPC.
                self.os_mark_ssd(key);
            }
            self.item_lru.borrow_mut()[class].remove(id);
        }
        self.register_extent(base, extent_len, live, scheme, chunk_size as u32);
        self.pool.borrow_mut().release_page(page);
        self.stats.borrow_mut().flushed_pages += 1;
    }

    fn reserve_ssd(&self, len: u32) -> Option<Reservation<'_>> {
        // Prefer a reclaimed extent of exactly the right size (flushes are
        // always one slab page, so sizes match in practice).
        let reclaimed = {
            let mut free = self.ssd_free.borrow_mut();
            let pos = free.iter().position(|&(_, l)| l == len);
            pos.map(|pos| free.swap_remove(pos).0)
        };
        let base = match reclaimed {
            Some(base) => base,
            None => {
                let base = self.ssd_bump.get();
                if base + len as u64 > self.cfg.ssd_capacity {
                    return None;
                }
                self.ssd_bump.set(base + len as u64);
                base
            }
        };
        Some(Reservation {
            store: self,
            base,
            len,
        })
    }

    /// Register a flushed extent and its live-item count.
    fn register_extent(&self, base: u64, len: u32, live: u32, scheme: IoScheme, chunk_size: u32) {
        if live == 0 {
            // Nothing in the extent survived the flush races: reusable at
            // once.
            self.reclaim_extent(base, len);
            return;
        }
        self.ssd_extents.borrow_mut().insert(
            base,
            ExtentInfo {
                len,
                live,
                scheme,
                chunk_size,
            },
        );
    }

    /// Account one dead SSD item slot; reclaims its extent when the last
    /// live item dies.
    fn release_ssd_slot(&self, offset: u64, item_len: u32) {
        self.stats.borrow_mut().ssd_dead_bytes += item_len as u64;
        let mut extents = self.ssd_extents.borrow_mut();
        // The extent containing `offset` is the one with the largest base
        // at or below it.
        let Some((&base, info)) = extents.range_mut(..=offset).next_back() else {
            return;
        };
        if offset >= base + info.len as u64 {
            return; // not inside a tracked extent (already reclaimed)
        }
        debug_assert!(info.live > 0);
        info.live -= 1;
        if info.live == 0 {
            let len = info.len;
            extents.remove(&base);
            drop(extents);
            self.reclaim_extent(base, len);
        }
    }

    /// Return a fully-dead extent to the free list.
    fn reclaim_extent(&self, base: u64, len: u32) {
        self.ssd_free.borrow_mut().push((base, len));
        let mut st = self.stats.borrow_mut();
        st.ssd_reclaimed_extents += 1;
        st.ssd_reclaimed_bytes += len as u64;
    }

    /// Simulate a power-loss crash: every RAM structure (slab pool, hash
    /// index, LRUs) is lost. SSD extents — and the extent directory, which
    /// stands in for an on-device superblock — survive. Call
    /// [`recover`](Self::recover) to rebuild the index.
    pub fn crash(&self) {
        let n_classes = self.pool.borrow().num_classes();
        *self.pool.borrow_mut() = SlabPool::new(SlabConfig::with_mem(self.cfg.mem_bytes));
        self.index.borrow_mut().clear();
        *self.item_lru.borrow_mut() = (0..n_classes).map(|_| LruMap::new()).collect();
        *self.page_lru.borrow_mut() = (0..n_classes).map(|_| LruMap::new()).collect();
        self.repl_seqs.borrow_mut().clear();
        if let Some(os) = self.onesided.borrow().as_ref() {
            os.clear();
        }
        self.stats.borrow_mut().crashes += 1;
    }

    /// Warm recovery after [`crash`](Self::crash): re-read every surviving
    /// SSD extent (charging full device read costs), re-parse its chunks,
    /// and rebuild the hash index with each live item pointing at its SSD
    /// location. Items that only ever lived in RAM are gone — that
    /// asymmetry is the hybrid design's durability story. When the same
    /// key shows up in several extents (a stale copy whose newer version
    /// died with RAM), the copy from the highest extent base wins.
    pub async fn recover(&self) -> RecoveryReport {
        let mut report = RecoveryReport::default();
        let Some(ssd) = self.ssd.as_ref() else {
            return report;
        };
        let now_ns = self.sim.now().as_nanos();
        let extents: Vec<(u64, ExtentInfo)> = self
            .ssd_extents
            .borrow()
            .iter()
            .map(|(b, i)| (*b, *i))
            .collect();
        // key -> extent base it was recovered from, for live accounting
        // when a later extent supersedes an earlier copy.
        let mut recovered_from: HashMap<Bytes, u64> = HashMap::new();
        let mut live: BTreeMap<u64, u32> = extents.iter().map(|(b, _)| (*b, 0)).collect();
        for (base, info) in &extents {
            report.extents_scanned += 1;
            let raw = match ssd.read(info.scheme, *base, info.len as usize).await {
                Ok(raw) => raw,
                Err(_) => {
                    report.read_errors += 1;
                    continue;
                }
            };
            report.bytes_read += info.len as u64;
            let stride = (info.chunk_size as usize).max(ITEM_HEADER);
            for chunk_start in (0..raw.len()).step_by(stride) {
                let end = raw.len().min(chunk_start + stride);
                let Some(item) = slice_item(&raw.slice(chunk_start..end)) else {
                    continue;
                };
                if item.key.is_empty() {
                    continue; // zeroed / never-written chunk
                }
                if item.expire_at_ns != 0 && now_ns >= item.expire_at_ns {
                    continue;
                }
                let stored = (ITEM_HEADER + item.key.len() + item.value.len()) as u32;
                let class = self.pool.borrow().class_for(stored as usize).unwrap_or(0) as u32;
                let version = self.next_version.get();
                self.next_version.set(version + 1);
                let meta = ItemMeta {
                    loc: Location::Ssd {
                        scheme: info.scheme,
                        offset: base + chunk_start as u64,
                        len: stored,
                    },
                    class,
                    version,
                    expire_at_ns: item.expire_at_ns,
                    flags: item.flags,
                };
                // Copy the key out so neither map pins the extent read; the
                // value is only measured, never copied.
                let key = Bytes::copy_from_slice(&item.key);
                if let Some(prev_base) = recovered_from.insert(key.clone(), *base) {
                    if let Some(l) = live.get_mut(&prev_base) {
                        *l = l.saturating_sub(1);
                    }
                    report.duplicates_dropped += 1;
                }
                self.index.borrow_mut().insert(key, meta);
                if let Some(l) = live.get_mut(base) {
                    *l += 1;
                }
            }
        }
        report.items_recovered = recovered_from.len() as u64;
        // Reconcile the extent directory with what actually came back:
        // unreadable or fully-superseded extents are reclaimed.
        for (base, info) in extents {
            let n = live.get(&base).copied().unwrap_or(0);
            if n == 0 {
                self.ssd_extents.borrow_mut().remove(&base);
                self.reclaim_extent(base, info.len);
            } else if let Some(e) = self.ssd_extents.borrow_mut().get_mut(&base) {
                e.live = n;
            }
        }
        self.stats.borrow_mut().recovered_items += report.items_recovered;
        report
    }

    /// Promote an SSD item back to RAM if a chunk is free (no eviction).
    async fn maybe_promote(
        &self,
        key: &Bytes,
        meta: &ItemMeta,
        item: &crate::server::slab::ParsedItem,
    ) {
        let class = meta.class as usize;
        let id = {
            let mut pool = self.pool.borrow_mut();
            if !pool.can_alloc(class) {
                return;
            }
            match pool.try_alloc(class) {
                Some(id) => id,
                None => return,
            }
        };
        // Re-check the entry was not changed while we read from SSD.
        let still_current = self
            .index
            .borrow()
            .get(key)
            .is_some_and(|m| m.version == meta.version);
        if !still_current {
            self.pool.borrow_mut().free_chunk(id);
            return;
        }
        let item_len = SlabPool::item_len(item.key.len(), item.value.len());
        let generation = self.pool.borrow().generation(id);
        self.pool.borrow_mut().write_item(
            id,
            &item.key,
            &item.value,
            meta.flags,
            meta.expire_at_ns,
        );
        self.charge(self.cfg.costs.memcpy(item_len)).await;
        if self.chunk_lost(id, generation) {
            return;
        }
        let mut index = self.index.borrow_mut();
        if let Some(m) = index.get_mut(key) {
            if m.version == meta.version {
                // The SSD slot is superseded by the promoted RAM copy.
                // (release_ssd_slot touches extent bookkeeping only, so it
                // is safe while the index borrow is held.)
                if let Location::Ssd { offset, len, .. } = m.loc {
                    self.release_ssd_slot(offset, len);
                }
                m.loc = Location::Ram(id);
                let v = self.next_version.get();
                self.next_version.set(v + 1);
                m.version = v;
                let expire_at_ns = m.expire_at_ns;
                let flags = m.flags;
                drop(index);
                // Back in registered RAM: republish for one-sided readers.
                self.os_publish(key, &item.value, flags, expire_at_ns);
                self.touch_lru(class, id);
                self.stats.borrow_mut().promotes += 1;
                return;
            }
        }
        drop(index);
        // Lost the race after all; give the chunk back.
        self.pool.borrow_mut().free_chunk(id);
    }

    /// Remove from the index each captured item still at its captured
    /// version, invalidating its one-sided descriptor. An item rewritten
    /// since the capture keeps its newer value. Returns how many were
    /// removed.
    fn drop_captured(&self, captured: &[(Bytes, u64, u64, u32)]) -> u64 {
        let mut index = self.index.borrow_mut();
        let mut dropped = 0;
        for (key, version, _, _) in captured {
            if index.get(key).is_some_and(|m| m.version == *version) {
                index.remove(key);
                self.os_invalidate(key);
                dropped += 1;
            }
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbkv_storesim::{
        instant_device, sata_ssd, HostModel, SlabIoConfig, SsdDevice, SsdFaultPlan,
    };
    use std::time::Duration;

    fn make_store(sim: &Sim, mut cfg: StoreConfig, instant: bool) -> Rc<HybridStore> {
        cfg.costs = CpuCosts::zero();
        let ssd = if cfg.kind == StoreKind::Hybrid {
            let dev_profile = if instant {
                instant_device()
            } else {
                sata_ssd()
            };
            let host = if instant {
                HostModel::zero()
            } else {
                HostModel::default_host()
            };
            let dev = SsdDevice::new(sim, dev_profile);
            Some(SlabIo::new(sim, dev, SlabIoConfig::default_for_tests(host)))
        } else {
            None
        };
        HybridStore::new(sim, cfg, ssd)
    }

    fn key(i: usize) -> Bytes {
        Bytes::from(format!("key-{i:06}"))
    }

    fn val(i: usize, len: usize) -> Bytes {
        Bytes::from(vec![(i % 251) as u8; len])
    }

    #[test]
    fn set_get_round_trip_with_flags() {
        let sim = Sim::new();
        let store = make_store(&sim, StoreConfig::memory_only(4 << 20), true);
        sim.run_until(async move {
            let s = store.set(key(1), val(1, 100), 42, 0).await;
            assert_eq!(s.status, OpStatus::Stored);
            let g = store.get(&key(1)).await;
            assert_eq!(g.status, OpStatus::Hit);
            assert_eq!(g.flags, 42);
            assert_eq!(g.value.unwrap(), val(1, 100));
            assert_eq!(g.stages.served_from, ServedFrom::Ram);
        });
    }

    #[test]
    fn get_missing_key_misses() {
        let sim = Sim::new();
        let store = make_store(&sim, StoreConfig::memory_only(4 << 20), true);
        sim.run_until(async move {
            let g = store.get(&key(9)).await;
            assert_eq!(g.status, OpStatus::Miss);
            assert!(g.value.is_none());
            assert_eq!(store.stats().get_misses, 1);
        });
    }

    #[test]
    fn memory_only_eviction_loses_lru_items() {
        let sim = Sim::new();
        // 2 MiB budget, 64 KiB values: ~30 items fit; store 60.
        let store = make_store(&sim, StoreConfig::memory_only(2 << 20), true);
        sim.run_until(async move {
            for i in 0..60 {
                assert_eq!(
                    store.set(key(i), val(i, 64 << 10), 0, 0).await.status,
                    OpStatus::Stored
                );
            }
            assert!(store.stats().evicted_items > 0);
            // Recently-set keys survive; the oldest were evicted.
            assert_eq!(store.get(&key(59)).await.status, OpStatus::Hit);
            assert_eq!(store.get(&key(0)).await.status, OpStatus::Miss);
        });
    }

    #[test]
    fn hybrid_retains_everything_on_ssd() {
        let sim = Sim::new();
        let store = make_store(&sim, StoreConfig::hybrid(2 << 20, 1 << 30), true);
        sim.run_until(async move {
            for i in 0..60 {
                assert_eq!(
                    store.set(key(i), val(i, 64 << 10), 0, 0).await.status,
                    OpStatus::Stored
                );
            }
            assert!(store.stats().flushed_pages > 0);
            // Every key is still retrievable — high data retention.
            for i in 0..60 {
                let g = store.get(&key(i)).await;
                assert_eq!(g.status, OpStatus::Hit, "key {i}");
                assert_eq!(g.value.unwrap(), val(i, 64 << 10), "key {i}");
            }
            let st = store.stats();
            assert!(st.get_hits_ssd > 0, "some gets must hit SSD: {st:?}");
            assert_eq!(st.get_misses, 0);
        });
    }

    #[test]
    fn hybrid_get_reports_ssd_source_and_latency() {
        let sim = Sim::new();
        let store = make_store(&sim, StoreConfig::hybrid(2 << 20, 1 << 30), false);
        sim.run_until(async move {
            for i in 0..60 {
                store.set(key(i), val(i, 64 << 10), 0, 0).await;
            }
            // key(0) was flushed early and (with a cold cache for direct
            // reads) must report SSD provenance.
            let g = store.get(&key(0)).await;
            assert_eq!(g.status, OpStatus::Hit);
            assert_eq!(g.stages.served_from, ServedFrom::Ssd);
            let g2 = store.get(&key(59)).await;
            assert_eq!(g2.stages.served_from, ServedFrom::Ram);
        });
    }

    #[test]
    fn direct_policy_writes_device_synchronously() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let mut cfg = StoreConfig::hybrid(1 << 20, 1 << 30);
        cfg.io_policy = IoPolicy::Direct;
        let store = make_store(&sim, cfg, false);
        sim.run_until(async move {
            // Fill 1 MiB, then one more set forces a synchronous 1 MiB
            // direct flush (milliseconds on SATA).
            let mut i = 0;
            while store.stats().flushed_pages == 0 {
                let before = sim2.now();
                store.set(key(i), val(i, 64 << 10), 0, 0).await;
                let took = sim2.now() - before;
                if store.stats().flushed_pages > 0 {
                    assert!(
                        took > Duration::from_millis(1),
                        "direct flush should be slow, took {took:?}"
                    );
                }
                i += 1;
                assert!(i < 100, "flush never happened");
            }
        });
    }

    #[test]
    fn adaptive_policy_flushes_much_faster_than_direct() {
        fn preload_time(policy: IoPolicy) -> u64 {
            let sim = Sim::new();
            let sim2 = sim.clone();
            let mut cfg = StoreConfig::hybrid(2 << 20, 1 << 30);
            cfg.io_policy = policy;
            cfg.costs = CpuCosts::zero();
            let dev = SsdDevice::new(&sim, sata_ssd());
            let ssd = SlabIo::new(
                &sim,
                dev,
                SlabIoConfig::default_for_tests(HostModel::default_host()),
            );
            let store = HybridStore::new(&sim, cfg, Some(ssd));
            sim.run_until(async move {
                for i in 0..120 {
                    store.set(key(i), val(i, 64 << 10), 0, 0).await;
                }
                sim2.now().as_nanos()
            })
        }
        let direct = preload_time(IoPolicy::Direct);
        let adaptive = preload_time(IoPolicy::Adaptive);
        assert!(
            direct > adaptive * 3,
            "direct {direct}ns should be >> adaptive {adaptive}ns"
        );
    }

    #[test]
    fn expired_items_miss_and_are_reaped() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let store = make_store(&sim, StoreConfig::memory_only(4 << 20), true);
        sim.run_until(async move {
            let expire_at = (sim2.now() + Duration::from_millis(5)).as_nanos();
            store.set(key(1), val(1, 64), 0, expire_at).await;
            assert_eq!(store.get(&key(1)).await.status, OpStatus::Hit);
            sim2.sleep(Duration::from_millis(10)).await;
            assert_eq!(store.get(&key(1)).await.status, OpStatus::Miss);
            assert_eq!(store.stats().expired, 1);
            assert_eq!(store.len(), 0);
        });
    }

    #[test]
    fn delete_removes_and_reports_not_found() {
        let sim = Sim::new();
        let store = make_store(&sim, StoreConfig::memory_only(4 << 20), true);
        sim.run_until(async move {
            store.set(key(1), val(1, 64), 0, 0).await;
            assert_eq!(store.delete(&key(1)).await.status, OpStatus::Deleted);
            assert_eq!(store.delete(&key(1)).await.status, OpStatus::NotFound);
            assert_eq!(store.get(&key(1)).await.status, OpStatus::Miss);
        });
    }

    #[test]
    fn overwrite_replaces_value_without_leaking_ram() {
        let sim = Sim::new();
        let store = make_store(&sim, StoreConfig::memory_only(4 << 20), true);
        sim.run_until(async move {
            for round in 0..50 {
                store.set(key(1), val(round, 1000), round as u32, 0).await;
            }
            let g = store.get(&key(1)).await;
            assert_eq!(g.value.unwrap(), val(49, 1000));
            assert_eq!(g.flags, 49);
            assert_eq!(store.len(), 1);
            assert_eq!(store.slab_stats().live_items, 1, "old chunks must be freed");
        });
    }

    #[test]
    fn long_lived_maps_keep_no_slice_of_a_frame() {
        let sim = Sim::new();
        let store = make_store(&sim, StoreConfig::memory_only(4 << 20), true);
        store.set_repl_hook(Rc::new(|_| {}));
        // Stand-ins for received request frames: keys are zero-copy slices.
        let set_frame = Bytes::from(b"SET key-a vvvvvvvvvvvvvvvv".to_vec());
        let repl_frame = Bytes::from(b"REPL key-a key-b vvvvvvvv".to_vec());
        let frames = [set_frame.clone(), repl_frame.clone()];
        let s = Rc::clone(&store);
        sim.run_until(async move {
            let out = s
                .set(set_frame.slice(4..9), set_frame.slice(10..), 0, 0)
                .await;
            assert_eq!(out.status, OpStatus::Stored);
            // An apply for a key already in the map and one for a new key.
            let seq = s.repl_seqs.borrow()[&b"key-a"[..]] + 1;
            for (key, seq) in [
                (repl_frame.slice(5..10), seq),
                (repl_frame.slice(11..16), 1),
            ] {
                let out = s
                    .apply_replicated(key, repl_frame.slice(17..), false, 0, 0, seq)
                    .await;
                assert_eq!(out.status, OpStatus::Stored);
            }
        });
        let in_a_frame = |key: &Bytes| {
            let p = key.as_ptr() as usize;
            frames
                .iter()
                .any(|f| (f.as_ptr() as usize..f.as_ptr() as usize + f.len()).contains(&p))
        };
        let seqs = store.repl_seqs.borrow();
        assert_eq!(seqs.len(), 2);
        assert!(!seqs.keys().any(in_a_frame), "repl_seqs pins a frame");
        let index = store.index.borrow();
        assert_eq!(index.len(), 2);
        assert!(
            !index.iter().any(|(k, _)| in_a_frame(k)),
            "index pins a frame"
        );
    }

    #[test]
    fn too_large_item_errors() {
        let sim = Sim::new();
        let store = make_store(&sim, StoreConfig::memory_only(4 << 20), true);
        sim.run_until(async move {
            let out = store.set(key(1), val(1, 2 << 20), 0, 0).await;
            assert_eq!(out.status, OpStatus::Error);
            assert_eq!(store.stats().set_errors, 1);
        });
    }

    #[test]
    fn ssd_full_falls_back_to_dropping() {
        let sim = Sim::new();
        // Hybrid with an SSD that fits only 2 pages.
        let cfg = StoreConfig::hybrid(1 << 20, 2 << 20);
        let store = make_store(&sim, cfg, true);
        sim.run_until(async move {
            for i in 0..120 {
                assert_eq!(
                    store.set(key(i), val(i, 64 << 10), 0, 0).await.status,
                    OpStatus::Stored
                );
            }
            let st = store.stats();
            assert!(st.ssd_full_drops > 0, "{st:?}");
            // Recent keys still live.
            assert_eq!(store.get(&key(119)).await.status, OpStatus::Hit);
        });
    }

    #[test]
    fn promote_brings_hot_ssd_items_back_to_ram() {
        let sim = Sim::new();
        let store = make_store(&sim, StoreConfig::hybrid(2 << 20, 1 << 30), true);
        sim.run_until(async move {
            for i in 0..60 {
                store.set(key(i), val(i, 64 << 10), 0, 0).await;
            }
            // Free RAM so promotion has room.
            for i in 30..60 {
                store.delete(&key(i)).await;
            }
            let first = store.get(&key(0)).await;
            assert_eq!(first.stages.served_from, ServedFrom::Ssd);
            assert!(store.stats().promotes > 0);
            // Second read is served from RAM after promotion.
            let second = store.get(&key(0)).await;
            assert_eq!(second.stages.served_from, ServedFrom::Ram);
        });
    }

    #[test]
    fn stage_times_reflect_ssd_cost() {
        let sim = Sim::new();
        // Direct I/O so the read cannot be served by the OS page cache.
        let mut cfg = StoreConfig::hybrid(2 << 20, 1 << 30);
        cfg.io_policy = IoPolicy::Direct;
        let store = make_store(&sim, cfg, false);
        sim.run_until(async move {
            for i in 0..60 {
                store.set(key(i), val(i, 64 << 10), 0, 0).await;
            }
            let g = store.get(&key(0)).await;
            assert_eq!(g.stages.served_from, ServedFrom::Ssd);
            // SSD check/load dominates and is at least the device access time.
            assert!(
                g.stages.check_load_ns > 50_000,
                "SSD load should cost tens of us: {:?}",
                g.stages
            );
        });
    }

    #[test]
    fn concurrent_sets_and_gets_stay_consistent() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let store = make_store(&sim, StoreConfig::hybrid(2 << 20, 1 << 30), false);
        sim.run_until(async move {
            let mut handles = Vec::new();
            for task in 0..8u32 {
                let store = Rc::clone(&store);
                handles.push(sim2.spawn(async move {
                    for i in 0..40usize {
                        let k = key(task as usize * 1000 + i);
                        store.set(k.clone(), val(i, 32 << 10), task, 0).await;
                        let g = store.get(&k).await;
                        assert_eq!(g.status, OpStatus::Hit);
                        assert_eq!(g.value.unwrap(), val(i, 32 << 10));
                    }
                }));
            }
            for h in handles {
                h.await;
            }
        });
    }

    // -- SSD extent reclamation --------------------------------------------

    #[test]
    fn dead_extents_are_reclaimed_and_reused() {
        let sim = Sim::new();
        let mut cfg = StoreConfig::hybrid(1 << 20, 1 << 30);
        cfg.promote = PromotePolicy::Never;
        let store = make_store(&sim, cfg, true);
        sim.run_until(async move {
            // Fill past RAM so pages flush to SSD.
            for i in 0..60 {
                store.set(key(i), val(i, 64 << 10), 0, 0).await;
            }
            assert!(store.stats().flushed_pages > 0);
            // Overwrite everything: every SSD slot dies; whole extents
            // must return to the free list.
            for i in 0..60 {
                store.set(key(i), val(i + 1, 64 << 10), 0, 0).await;
            }
            let st = store.stats();
            assert!(
                st.ssd_reclaimed_extents > 0,
                "extents must be reclaimed: {st:?}"
            );
            assert!(st.ssd_reclaimed_bytes >= (1 << 20));
        });
    }

    #[test]
    fn reclamation_bounds_ssd_usage_under_churn() {
        let sim = Sim::new();
        // SSD only fits 8 slab pages; without reclamation, sustained
        // overwrite churn would exhaust it and drop items.
        let mut cfg = StoreConfig::hybrid(1 << 20, 8 << 20);
        cfg.promote = PromotePolicy::Never;
        let store = make_store(&sim, cfg, true);
        sim.run_until(async move {
            for round in 0..12 {
                for i in 0..30 {
                    assert_eq!(
                        store.set(key(i), val(round, 64 << 10), 0, 0).await.status,
                        OpStatus::Stored,
                        "round {round} key {i}"
                    );
                }
            }
            // All keys still readable: churn stayed within the SSD budget.
            for i in 0..30 {
                assert_eq!(store.get(&key(i)).await.status, OpStatus::Hit, "key {i}");
            }
            let st = store.stats();
            assert_eq!(
                st.ssd_full_drops, 0,
                "reclamation must prevent drops: {st:?}"
            );
            assert!(st.ssd_reclaimed_extents > 0);
        });
    }

    // -- races between a write and a concurrent flush -----------------------

    /// Chunks of 64 KiB items per slab page.
    fn big_items_per_page(store: &HybridStore) -> usize {
        let pool = store.pool.borrow();
        let class = pool
            .class_for(SlabPool::item_len(key(0).len(), 64 << 10))
            .expect("64 KiB items fit a page");
        pool.config().page_size / pool.chunk_size(class)
    }

    /// A set copies its item into a fresh chunk, then awaits the copy
    /// charge before indexing it. A concurrent flush of the chunk's page
    /// in that gap must not leave the index pointing into the released
    /// page (which another set then reuses).
    #[test]
    fn set_survives_a_flush_of_its_chunk_page_during_the_copy() {
        let sim = Sim::new();
        let mut cfg = StoreConfig::hybrid(2 << 20, 1 << 30);
        cfg.promote = PromotePolicy::Never;
        cfg.costs = CpuCosts {
            memcpy_ns_per_byte: 1.0,
            ..CpuCosts::zero()
        };
        let dev = SsdDevice::new(&sim, instant_device());
        let ssd = SlabIo::new(
            &sim,
            dev,
            SlabIoConfig::default_for_tests(HostModel::zero()),
        );
        let store = HybridStore::new(&sim, cfg, Some(ssd));
        let per_page = big_items_per_page(&store);
        let sim2 = sim.clone();
        sim.run_until(async move {
            // Fill both pages, then free one chunk on the LRU page.
            for i in 0..2 * per_page {
                store.set(key(i), val(i, 64 << 10), 0, 0).await;
            }
            store.delete(&key(0)).await;
            // The first set takes the freed chunk and starts its copy; the
            // second finds no room and flushes that chunk's page meanwhile.
            let sets: Vec<_> = [1000, 1001]
                .into_iter()
                .map(|i| {
                    let store = Rc::clone(&store);
                    sim2.spawn(async move { store.set(key(i), val(i, 64 << 10), 0, 0).await })
                })
                .collect();
            for h in sets {
                assert_eq!(h.await.status, OpStatus::Stored);
            }
            for i in (1..2 * per_page).chain([1000, 1001]) {
                let g = store.get(&key(i)).await;
                assert_eq!(g.status, OpStatus::Hit, "key {i}");
                assert!(g.value == Some(val(i, 64 << 10)), "key {i}: wrong value");
            }
        });
    }

    /// The promote path has the same gap: it copies an SSD item into a free
    /// chunk and awaits the charge before indexing it. If a flush takes
    /// the chunk's page meanwhile, the promote must give up and leave the
    /// item on SSD.
    #[test]
    fn promote_gives_up_when_its_chunk_page_is_flushed_during_the_copy() {
        let sim = Sim::new();
        let mut cfg = StoreConfig::hybrid(2 << 20, 1 << 30);
        cfg.costs = CpuCosts {
            memcpy_ns_per_byte: 1.0,
            ..CpuCosts::zero()
        };
        let dev = SsdDevice::new(&sim, instant_device());
        let ssd = SlabIo::new(
            &sim,
            dev,
            SlabIoConfig::default_for_tests(HostModel::zero()),
        );
        let store = HybridStore::new(&sim, cfg, Some(ssd));
        let per_page = big_items_per_page(&store);
        let n = 3 * per_page;
        let sim2 = sim.clone();
        sim.run_until(async move {
            for i in 0..n {
                store.set(key(i), val(i, 64 << 10), 0, 0).await;
            }
            // Free one chunk on the LRU page for the promote to take.
            let on_lru_page = |i: usize| {
                let class = store.index.borrow().get(&key(i))?.class as usize;
                let page = store.page_lru.borrow()[class].lru_key()?;
                match store.index.borrow().get(&key(i))?.loc {
                    Location::Ram(id) => (unpack_item_id(id).0 == page).then_some(()),
                    Location::Ssd { .. } => None,
                }
            };
            let victim = (0..n)
                .find(|&i| on_lru_page(i).is_some())
                .expect("a RAM item");
            store.delete(&key(victim)).await;
            // The get promotes key 0 from SSD into that chunk; the set
            // finds no room and flushes the chunk's page during the copy.
            let get = {
                let store = Rc::clone(&store);
                sim2.spawn(async move { store.get(&key(0)).await })
            };
            let set = {
                let store = Rc::clone(&store);
                sim2.spawn(async move { store.set(key(n), val(n, 64 << 10), 0, 0).await })
            };
            assert_eq!(get.await.stages.served_from, ServedFrom::Ssd);
            assert_eq!(set.await.status, OpStatus::Stored);
            // Churn the pages so a stale index entry would read another
            // key's bytes, then check every key.
            for i in n + 1..2 * n {
                store.set(key(i), val(i, 64 << 10), 0, 0).await;
            }
            for i in (0..2 * n).filter(|&i| i != victim) {
                let g = store.get(&key(i)).await;
                assert_eq!(g.status, OpStatus::Hit, "key {i}");
                assert!(g.value == Some(val(i, 64 << 10)), "key {i}: wrong value");
            }
        });
    }

    /// A failed synchronous flush drops the items it captured, but not
    /// one overwritten while the device write was in flight: the newer
    /// value was acknowledged and lives elsewhere.
    #[test]
    fn failed_sync_flush_keeps_a_newer_write() {
        let sim = Sim::new();
        let mut cfg = StoreConfig::hybrid(2 << 20, 1 << 30);
        cfg.io_policy = IoPolicy::Direct; // a device write of several ms
        cfg.promote = PromotePolicy::Never;
        let store = make_store(&sim, cfg, false);
        let per_page = big_items_per_page(&store);
        let sim2 = sim.clone();
        sim.run_until(async move {
            // One page of 64 KiB items; a 100 B item puts the second page
            // in another class.
            for i in 0..per_page {
                store.set(key(i), val(i, 64 << 10), 0, 0).await;
            }
            store.set(key(999), val(999, 100), 0, 0).await;
            let dev = store.slab_io().expect("hybrid").device();
            dev.set_fault_plan(Some(SsdFaultPlan::errors(1, 1.0)));
            // This set flushes the full page; its device write fails.
            let flushing = {
                let store = Rc::clone(&store);
                sim2.spawn(async move { store.set(key(per_page), val(0, 64 << 10), 0, 0).await })
            };
            sim2.sleep(Duration::from_micros(100)).await;
            assert_eq!(store.flushes_in_flight(), 1);
            let newer = Bytes::from(vec![7u8; 100]); // the 100 B class
            let out = store.set(key(0), newer.clone(), 0, 0).await;
            assert_eq!(out.status, OpStatus::Stored);
            flushing.await;
            assert_eq!(store.stats().flush_errors, 1);
            let g = store.get(&key(0)).await;
            assert_eq!(g.status, OpStatus::Hit);
            assert_eq!(g.value.unwrap(), newer);
            // The items the flush still owned are gone.
            assert_eq!(store.get(&key(1)).await.status, OpStatus::Miss);
        });
    }

    /// A flush whose device write fails gives its reserved extent back: an
    /// SSD of exactly four pages still takes four more page flushes.
    #[test]
    fn failed_flush_returns_its_extent() {
        let sim = Sim::new();
        let mut cfg = StoreConfig::hybrid(1 << 20, 4 << 20);
        cfg.io_policy = IoPolicy::Direct;
        cfg.promote = PromotePolicy::Never;
        let store = make_store(&sim, cfg, true);
        let per_page = big_items_per_page(&store);
        sim.run_until(async move {
            for i in 0..per_page {
                store.set(key(i), val(i, 64 << 10), 0, 0).await;
            }
            let dev = store.slab_io().expect("hybrid").device();
            dev.set_fault_plan(Some(SsdFaultPlan::errors(1, 1.0)));
            // This set flushes the full page; its device write fails.
            store.set(key(per_page), val(0, 64 << 10), 0, 0).await;
            dev.set_fault_plan(None);
            let st = store.stats();
            assert_eq!((st.flush_errors, st.flushed_pages), (1, 0), "{st:?}");
            // Four more pages of items: every one of their flushes lands.
            for i in per_page + 1..=5 * per_page {
                store.set(key(i), val(i, 64 << 10), 0, 0).await;
            }
            let after = store.stats();
            assert_eq!(after.flushed_pages, 4, "{after:?}");
            assert_eq!(after.ssd_full_drops, st.ssd_full_drops, "{after:?}");
        });
    }
}
