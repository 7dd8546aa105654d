//! Simulated OS page cache behind a buffered slab I/O scheme.
//!
//! A write-back cache of 64 KiB pages in front of an [`SsdDevice`]. It
//! models which pages are resident and which are dirty, and what that
//! costs: a page is its index plus a dirty epoch, and the bytes live on
//! the device alone (the slab I/O facade stores them with
//! [`SsdDevice::poke`], and readers [`SsdDevice::peek`]). `SlabIo`
//! builds one instance per buffered [`IoScheme`], each with its own
//! `cache_bytes` budget, pages and writeback task. The two schemes differ only in what
//! the host pays (Figure 4 of the paper):
//!
//! - `Cached` (OS-buffered I/O) pays a syscall per call, and a write's
//!   memcpy up front;
//! - `Mmap` pays no syscall, but a soft fault per page miss, and a write's
//!   memcpy after the page walk.
//!
//! Writes complete at memory speed. Dirty pages are flushed by a
//! background writeback task in contiguous runs, like the kernel flusher
//! threads. Two safety valves mirror the kernel's dirty accounting:
//!
//! - above a quarter of the budget the writeback task starts flushing;
//! - above half of it writers are throttled until writeback catches up —
//!   which is what keeps buffered I/O from pretending the device is
//!   infinitely fast in sustained-write experiments.
//!
//! Over the budget, pages are evicted in LRU order and a dirty victim is
//! flushed inline: cache pressure makes buffered I/O pay device costs.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Duration;

use nbkv_simrt::{Notify, Sim};

use crate::device::{DeviceError, SsdDevice};
use crate::lru::LruMap;
use crate::profile::HostModel;
use crate::scheme::IoScheme;

/// Cache page size.
const PAGE_SIZE: usize = 64 << 10;
/// Pages per writeback run (one contiguous device write).
const WRITEBACK_RUN: usize = 16;

nbkv_obs::counters! {
    /// Page-cache counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct PageCacheStats {
        /// Page lookups that found the page resident.
        sum hits: u64,
        /// Page lookups that missed (a soft fault under mmap).
        sum misses: u64,
        /// Pages flushed by writeback runs (background or `sync`).
        sum writeback_pages: u64,
        /// Dirty pages flushed inline due to cache pressure.
        sum inline_flushes: u64,
        /// Times a writer was throttled on the dirty limit.
        sum throttle_waits: u64,
    }
}

/// The points in a call where the host is charged (see
/// [`PageCache::charge`]).
#[derive(Clone, Copy)]
enum Charge {
    WriteEntry,
    WriteExit,
    ReadEntry,
    ReadExit,
    PageMiss,
}

/// A write-back page cache in front of an [`SsdDevice`].
pub(crate) struct PageCache {
    sim: Sim,
    dev: Rc<SsdDevice>,
    scheme: IoScheme,
    budget: u64,
    host: HostModel,
    /// Resident pages in LRU order, each with the epoch at which it was
    /// last dirtied (0 = clean).
    pages: RefCell<LruMap<u64, u64>>,
    dirty: RefCell<BTreeSet<u64>>,
    dirty_bytes: Cell<u64>,
    epoch: Cell<u64>,
    wb_notify: Notify,
    throttle_notify: Notify,
    stats: RefCell<PageCacheStats>,
}

impl PageCache {
    /// Create a cache of `budget` bytes of pages for the buffered `scheme`
    /// (`Cached` or `Mmap`) and spawn its background writeback task.
    pub(crate) fn new(
        sim: &Sim,
        dev: Rc<SsdDevice>,
        scheme: IoScheme,
        budget: u64,
        host: HostModel,
    ) -> Rc<Self> {
        assert_ne!(scheme, IoScheme::Direct, "direct I/O has no page cache");
        let cache = Rc::new(PageCache {
            sim: sim.clone(),
            dev,
            scheme,
            budget,
            host,
            pages: RefCell::new(LruMap::new()),
            dirty: RefCell::new(BTreeSet::new()),
            dirty_bytes: Cell::new(0),
            epoch: Cell::new(0),
            wb_notify: Notify::new(),
            throttle_notify: Notify::new(),
            stats: RefCell::new(PageCacheStats::default()),
        });
        let wb = Rc::clone(&cache);
        sim.spawn(async move { wb.writeback_loop().await });
        cache
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> PageCacheStats {
        *self.stats.borrow()
    }

    /// Write `len` bytes at `offset`: it completes at memory speed, and the
    /// device write is deferred to writeback.
    pub(crate) async fn write(&self, offset: u64, len: usize) -> Result<(), DeviceError> {
        self.check_range(offset, len)?;
        self.charge(Charge::WriteEntry, len).await;
        let ps = PAGE_SIZE as u64;
        let end = offset + len as u64;
        for page_idx in offset / ps..=(end - 1) / ps {
            let whole = offset <= page_idx * ps && (page_idx + 1) * ps <= end;
            self.ensure_present(page_idx, whole).await?;
            {
                let mut pages = self.pages.borrow_mut();
                let epoch = pages
                    .peek_mut(&page_idx)
                    .expect("page present after ensure_present");
                if *epoch == 0 {
                    self.dirty_bytes.set(self.dirty_bytes.get() + ps);
                    self.dirty.borrow_mut().insert(page_idx);
                }
                *epoch = self.epoch.get() + 1;
                self.epoch.set(*epoch);
            }
            self.evict_for_capacity().await?;
        }
        self.charge(Charge::WriteExit, len).await;
        // Kick writeback / throttle on the kernel dirty thresholds.
        if self.dirty_bytes.get() > self.budget / 4 {
            self.wb_notify.notify_one();
        }
        while self.dirty_bytes.get() > self.budget / 2 {
            self.stats.borrow_mut().throttle_waits += 1;
            self.wb_notify.notify_one();
            self.throttle_notify.notified().await;
        }
        Ok(())
    }

    /// Read `len` bytes at `offset`; misses load whole pages from the
    /// device.
    pub(crate) async fn read(&self, offset: u64, len: usize) -> Result<(), DeviceError> {
        self.check_range(offset, len)?;
        self.charge(Charge::ReadEntry, len).await;
        let ps = PAGE_SIZE as u64;
        let span = offset / ps..=(offset + len.max(1) as u64 - 1) / ps;
        for page_idx in span.clone() {
            self.ensure_present(page_idx, false).await?;
            self.evict_for_capacity().await?;
        }
        self.charge(Charge::ReadExit, len).await;
        // The caller's copy out touches every page for LRU recency, in
        // page order: those still resident, since a read larger than the
        // budget, or a concurrent eviction during the copy charge, may have
        // evicted some of the span.
        let mut pages = self.pages.borrow_mut();
        for page_idx in span {
            let _ = pages.touch(&page_idx);
        }
        Ok(())
    }

    /// Flush every dirty page to the device and wait for completion.
    pub(crate) async fn sync(&self) -> Result<(), DeviceError> {
        loop {
            let flushed = self.flush_one_batch().await?;
            if flushed == 0 {
                return Ok(());
            }
        }
    }

    /// Sleep the host time this cache's scheme pays at `at` in a call of
    /// `len` bytes — the only place the two buffered schemes differ.
    async fn charge(&self, at: Charge, len: usize) {
        let h = &self.host;
        let cost = match (self.scheme, at) {
            (IoScheme::Cached, Charge::WriteEntry) => h.syscall + h.memcpy_cost(len),
            (IoScheme::Cached, Charge::ReadEntry) => h.syscall,
            (IoScheme::Mmap, Charge::WriteExit) => h.memcpy_cost(len),
            (IoScheme::Mmap, Charge::PageMiss) => h.fault,
            (_, Charge::ReadExit) => h.memcpy_cost(len),
            _ => Duration::ZERO,
        };
        if !cost.is_zero() {
            self.sim.sleep(cost).await;
        }
    }

    /// Both schemes reject an access past the device's end up front, so
    /// no write is accepted that writeback could never persist.
    fn check_range(&self, offset: u64, len: usize) -> Result<(), DeviceError> {
        let end = offset.saturating_add(len as u64);
        let capacity = self.dev.profile().capacity;
        if end > capacity {
            return Err(DeviceError::OutOfCapacity { end, capacity });
        }
        Ok(())
    }

    /// Make `page_idx` resident. An absent page is read from the device,
    /// unless the caller's write covers all of it (`whole`) or it lies
    /// over a hole.
    async fn ensure_present(&self, page_idx: u64, whole: bool) -> Result<(), DeviceError> {
        if self.pages.borrow_mut().touch(&page_idx).is_some() {
            self.stats.borrow_mut().hits += 1;
            return Ok(());
        }
        self.stats.borrow_mut().misses += 1;
        self.charge(Charge::PageMiss, PAGE_SIZE).await;
        // The page may have been created by a concurrent caller while we
        // paid the fault, or waited on the device below; never reset its
        // dirty epoch.
        let resident = || self.pages.borrow_mut().touch(&page_idx).is_some();
        if resident() {
            return Ok(());
        }
        let off = page_idx * PAGE_SIZE as u64;
        // Holes (never-written device ranges) need no read-modify-write.
        if !whole && self.dev.has_data(off, PAGE_SIZE) {
            self.dev.read(off, PAGE_SIZE).await?;
            if resident() {
                return Ok(());
            }
        }
        self.pages.borrow_mut().insert(page_idx, 0);
        Ok(())
    }

    /// Evict LRU pages while over the budget; dirty victims are flushed
    /// inline.
    async fn evict_for_capacity(&self) -> Result<(), DeviceError> {
        loop {
            let over = (self.pages.borrow().len() * PAGE_SIZE) as u64 > self.budget;
            if !over {
                return Ok(());
            }
            let victim = self.pages.borrow().lru_key();
            let Some(page_idx) = victim else {
                return Ok(());
            };
            let epoch = self.pages.borrow().peek(&page_idx).copied();
            if let Some(epoch) = epoch.filter(|&e| e != 0) {
                self.stats.borrow_mut().inline_flushes += 1;
                self.dev
                    .write(page_idx * PAGE_SIZE as u64, PAGE_SIZE)
                    .await?;
                self.mark_clean_if_unchanged(page_idx, epoch);
            }
            // Only drop the page if it is clean now (it may have been
            // re-dirtied while the inline flush waited on the device).
            let mut pages = self.pages.borrow_mut();
            if pages.peek(&page_idx) == Some(&0) {
                pages.remove(&page_idx);
            }
        }
    }

    async fn writeback_loop(self: Rc<Self>) {
        loop {
            self.wb_notify.notified().await;
            // Flush until below half the background threshold.
            while self.dirty_bytes.get() > self.budget / 8 {
                match self.flush_one_batch().await {
                    Ok(0) | Err(_) => break,
                    Ok(_) => {}
                }
                self.throttle_notify.notify_waiters();
            }
            self.throttle_notify.notify_waiters();
        }
    }

    /// Flush one contiguous run of dirty pages. Returns pages flushed.
    async fn flush_one_batch(&self) -> Result<usize, DeviceError> {
        // Snapshot a contiguous run of dirty pages (ascending offset).
        let run = {
            let dirty = self.dirty.borrow();
            let pages = self.pages.borrow();
            let mut run: Vec<(u64, u64)> = Vec::new();
            let mut expect: Option<u64> = None;
            for &idx in dirty.iter() {
                match expect {
                    Some(e) if idx != e => break,
                    _ => {}
                }
                let Some(&epoch) = pages.peek(&idx) else {
                    continue;
                };
                run.push((idx, epoch));
                if run.len() >= WRITEBACK_RUN {
                    break;
                }
                expect = Some(idx + 1);
            }
            run
        };
        if run.is_empty() {
            return Ok(0);
        }
        let base = run[0].0 * PAGE_SIZE as u64;
        self.dev.write(base, run.len() * PAGE_SIZE).await?;
        let mut flushed = 0;
        for (idx, epoch) in run {
            if self.mark_clean_if_unchanged(idx, epoch) {
                flushed += 1;
            }
        }
        self.stats.borrow_mut().writeback_pages += flushed as u64;
        Ok(flushed.max(1))
    }

    /// Transition a page to clean if it was not re-dirtied since `epoch`.
    fn mark_clean_if_unchanged(&self, page_idx: u64, epoch: u64) -> bool {
        let mut pages = self.pages.borrow_mut();
        match pages.peek_mut(&page_idx) {
            Some(e) if *e == epoch => *e = 0,
            _ => return false,
        }
        drop(pages);
        self.dirty.borrow_mut().remove(&page_idx);
        self.dirty_bytes
            .set(self.dirty_bytes.get() - PAGE_SIZE as u64);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{instant_device, sata_ssd, DeviceProfile};
    use crate::scheme::{SlabIo, SlabIoConfig};

    const BUFFERED: [IoScheme; 2] = [IoScheme::Cached, IoScheme::Mmap];

    impl PageCache {
        fn dirty_bytes(&self) -> u64 {
            self.dirty_bytes.get()
        }
    }

    /// A slab I/O facade whose page caches hold `budget` bytes each, and
    /// the one behind `scheme`. Assertions on bytes go through the facade
    /// or its device, which holds them.
    fn cache_with(
        sim: &Sim,
        scheme: IoScheme,
        profile: DeviceProfile,
        budget: u64,
        host: HostModel,
    ) -> (Rc<SlabIo>, Rc<PageCache>) {
        let dev = SsdDevice::new(sim, profile);
        let cfg = SlabIoConfig {
            cache_bytes: budget,
            host,
        };
        let io = SlabIo::new(sim, dev, cfg);
        let cache = Rc::clone(io.page_cache(scheme).expect("a buffered scheme"));
        (io, cache)
    }

    /// Run `body` once per buffered scheme, each in a fresh simulation.
    fn for_each_scheme<F, Fut>(body: F)
    where
        F: Fn(Sim, IoScheme) -> Fut,
        Fut: std::future::Future<Output = ()> + 'static,
    {
        for scheme in BUFFERED {
            let sim = Sim::new();
            sim.run_until(body(sim.clone(), scheme));
            sim.shutdown();
        }
    }

    #[test]
    fn write_read_round_trip() {
        for_each_scheme(|sim, scheme| async move {
            let (io, _cache) =
                cache_with(&sim, scheme, instant_device(), 8 << 20, HostModel::zero());
            let data: Vec<u8> = (0..200_000).map(|i| (i % 249) as u8).collect();
            io.write(scheme, 70_000, &data).await.unwrap();
            let got = io.read_bytes(scheme, 70_000, data.len()).await.unwrap();
            assert_eq!(&got[..], &data[..], "{scheme:?}");
        });
    }

    #[test]
    fn sync_persists_to_device() {
        for_each_scheme(|sim, scheme| async move {
            let (io, cache) =
                cache_with(&sim, scheme, instant_device(), 8 << 20, HostModel::zero());
            let dev = io.device();
            io.write(scheme, 128 << 10, &[9u8; 4096]).await.unwrap();
            assert_eq!(dev.stats().writes, 0, "{scheme:?}: writeback deferred");
            cache.sync().await.unwrap();
            assert_eq!(cache.dirty_bytes(), 0, "{scheme:?}");
            assert_eq!(dev.stats().bytes_written, 64 << 10, "{scheme:?}");
            assert_eq!(&dev.peek(128 << 10, 4)[..], &[9, 9, 9, 9], "{scheme:?}");
        });
    }

    #[test]
    fn read_after_writeback_hits_cache() {
        for_each_scheme(|sim, scheme| async move {
            let (_io, cache) = cache_with(&sim, scheme, sata_ssd(), 64 << 20, HostModel::zero());
            cache.write(0, 4096).await.unwrap();
            cache.sync().await.unwrap();
            let before = sim.now();
            cache.read(0, 4096).await.unwrap();
            // Still resident: no device read time.
            assert_eq!(sim.now(), before, "{scheme:?}");
        });
    }

    #[test]
    fn partial_page_write_preserves_neighbors() {
        for_each_scheme(|sim, scheme| async move {
            let (io, cache) =
                cache_with(&sim, scheme, instant_device(), 8 << 20, HostModel::zero());
            let dev = io.device();
            dev.poke(0, &[0xAAu8; 64 << 10]);
            io.write(scheme, 100, &[0xBBu8; 50]).await.unwrap();
            // The partial write read the page in first.
            assert_eq!(dev.stats().bytes_read, 64 << 10, "{scheme:?}");
            cache.sync().await.unwrap();
            let got = dev.peek(0, 200);
            assert_eq!(got[99], 0xAA, "{scheme:?}");
            assert_eq!(got[100], 0xBB, "{scheme:?}");
            assert_eq!(got[149], 0xBB, "{scheme:?}");
            assert_eq!(got[150], 0xAA, "{scheme:?}");
        });
    }

    #[test]
    fn concurrent_faults_on_one_hole_page_keep_both_writes() {
        // Two partial writes to the same never-written page both miss and
        // both pay the soft fault; the second to resume must find the page
        // the first created, not replace it with a fresh clean one.
        let host = HostModel {
            fault: Duration::from_nanos(1_500),
            ..HostModel::zero()
        };
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (io, cache) = cache_with(&sim2, IoScheme::Mmap, instant_device(), 8 << 20, host);
            let io2 = Rc::clone(&io);
            let other = sim2.spawn(async move { io2.write(IoScheme::Mmap, 0, &[1u8; 100]).await });
            io.write(IoScheme::Mmap, 200, &[2u8; 100]).await.unwrap();
            other.await.unwrap();
            let got = io.read_bytes(IoScheme::Mmap, 0, 300).await.unwrap();
            assert_eq!(&got[..100], &[1u8; 100][..], "the later writer's bytes");
            assert_eq!(&got[200..], &[2u8; 100][..], "the earlier writer's bytes");
            assert_eq!(cache.stats().misses, 2, "both writers faulted");
            assert_eq!(cache.dirty_bytes(), 64 << 10, "one dirty page");
        });
        sim.shutdown();
    }

    #[test]
    fn full_page_writes_skip_the_device_read() {
        for_each_scheme(|sim, scheme| async move {
            let (io, cache) =
                cache_with(&sim, scheme, instant_device(), 8 << 20, HostModel::zero());
            let dev = io.device();
            // Stale device bytes under a page that a write fully covers are
            // never read back.
            dev.poke(64 << 10, &[0xAAu8; 64 << 10]);
            let data: Vec<u8> = (0..3 * (64 << 10)).map(|i| (i % 251) as u8).collect();
            io.write(scheme, 0, &data).await.unwrap();
            assert_eq!(dev.stats().bytes_read, 0, "{scheme:?}");
            assert_eq!(
                &io.read_bytes(scheme, 0, data.len()).await.unwrap()[..],
                &data[..]
            );
            cache.sync().await.unwrap();
            assert_eq!(&dev.peek(0, data.len())[..], &data[..], "{scheme:?}");
            assert_eq!(cache.stats().writeback_pages, 3, "{scheme:?}");
        });
    }

    #[test]
    fn eviction_under_small_budget_keeps_data_readable() {
        for_each_scheme(|sim, scheme| async move {
            let (io, cache) =
                cache_with(&sim, scheme, instant_device(), 1 << 20, HostModel::zero());
            // Write 4 MiB through a 1 MiB budget.
            for i in 0..64u64 {
                io.write(scheme, i * (64 << 10), &[i as u8; 64 << 10])
                    .await
                    .unwrap();
            }
            cache.sync().await.unwrap();
            // Everything must still be readable (from device or cache).
            for i in 0..64u64 {
                let got = io.read_bytes(scheme, i * (64 << 10), 8).await.unwrap();
                assert_eq!(got[0], i as u8, "{scheme:?} page {i}");
            }
            assert!(io.device().stats().bytes_written >= 3 << 20, "{scheme:?}");
        });
    }

    #[test]
    fn out_of_range_rejected() {
        for_each_scheme(|sim, scheme| async move {
            let (io, cache) =
                cache_with(&sim, scheme, instant_device(), 8 << 20, HostModel::zero());
            let cap = io.device().profile().capacity;
            let err = cache.write(cap - 4, 8).await.unwrap_err();
            assert_eq!(
                err,
                DeviceError::OutOfCapacity {
                    end: cap + 4,
                    capacity: cap
                },
                "{scheme:?}"
            );
            assert!(cache.read(cap, 1).await.is_err(), "{scheme:?}");
            assert_eq!(cache.dirty_bytes(), 0, "{scheme:?}");
        });
    }

    #[test]
    fn buffered_write_is_much_cheaper_than_direct() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let host = HostModel::default_host();
            let (io, cache) = cache_with(&sim2, IoScheme::Cached, sata_ssd(), 64 << 20, host);
            let t0 = sim2.now();
            cache.write(0, 1 << 20).await.unwrap();
            let cached_cost = sim2.now() - t0;
            let direct_cost = io.device().profile().write_cost(1 << 20);
            assert!(
                cached_cost.as_nanos() * 10 < direct_cost.as_nanos(),
                "cached {cached_cost:?} vs direct {direct_cost:?}"
            );
        });
    }

    #[test]
    fn mmap_small_write_beats_syscall_path() {
        // mmap charges a fault once; buffered I/O charges a syscall per call.
        let host = HostModel::default_host();
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (_io, mm) = cache_with(&sim2, IoScheme::Mmap, sata_ssd(), 64 << 20, host);
            let t0 = sim2.now();
            // Two writes to the same page: one fault total.
            mm.write(0, 512).await.unwrap();
            mm.write(512, 512).await.unwrap();
            let mmap_cost = sim2.now() - t0;
            let syscall_cost = host.syscall * 2 + host.memcpy_cost(1024);
            assert!(
                mmap_cost < syscall_cost,
                "mmap {mmap_cost:?} vs syscalls {syscall_cost:?}"
            );
            assert_eq!(mm.stats().misses, 1);
        });
    }

    #[test]
    fn mmap_large_write_pays_per_page_faults() {
        let host = HostModel::default_host();
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (_io, mm) = cache_with(&sim2, IoScheme::Mmap, sata_ssd(), 64 << 20, host);
            let t0 = sim2.now();
            mm.write(0, 1 << 20).await.unwrap();
            assert_eq!(mm.stats().misses, 16); // 1 MiB / 64 KiB
            assert_eq!(sim2.now() - t0, host.fault * 16 + host.memcpy_cost(1 << 20));
        });
    }

    #[test]
    fn cold_read_pays_device_latency() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (io, cache) = cache_with(
                &sim2,
                IoScheme::Cached,
                sata_ssd(),
                64 << 20,
                HostModel::zero(),
            );
            io.device().poke(0, &[3u8; 4096]);
            let t0 = sim2.now();
            let got = io.read_bytes(IoScheme::Cached, 0, 4096).await.unwrap();
            assert_eq!(got[0], 3);
            // One 64 KiB page load.
            assert_eq!(sim2.now() - t0, io.device().profile().read_cost(64 << 10));
            assert_eq!(cache.stats().misses, 1);
        });
    }

    #[test]
    fn sustained_writes_throttle_on_dirty_limit() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            // Tiny cache so the dirty limit bites quickly.
            let (_io, cache) = cache_with(
                &sim2,
                IoScheme::Cached,
                sata_ssd(),
                2 << 20,
                HostModel::zero(),
            );
            for i in 0..64u64 {
                cache.write(i * (64 << 10), 64 << 10).await.unwrap();
            }
            let st = cache.stats();
            assert!(st.throttle_waits > 0, "expected throttling: {st:?}");
            assert!(cache.dirty_bytes() <= (1 << 20));
        });
    }

    #[test]
    fn background_writeback_drains_dirty_over_time() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (_io, cache) = cache_with(
                &sim2,
                IoScheme::Cached,
                sata_ssd(),
                4 << 20,
                HostModel::zero(),
            );
            // Exceed the background threshold (1 MiB) so writeback kicks in.
            for i in 0..24u64 {
                cache.write(i * (64 << 10), 64 << 10).await.unwrap();
            }
            let dirty_before = cache.dirty_bytes();
            sim2.sleep(Duration::from_millis(200)).await;
            assert!(
                cache.dirty_bytes() < dirty_before,
                "writeback made no progress: {} -> {}",
                dirty_before,
                cache.dirty_bytes()
            );
            assert!(cache.stats().writeback_pages > 0);
        });
    }
}
