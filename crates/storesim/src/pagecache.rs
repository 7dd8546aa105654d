//! Simulated OS page cache behind both buffered slab I/O schemes.
//!
//! One write-back cache of 64 KiB pages in front of an [`SsdDevice`],
//! built once per buffered [`IoScheme`]. The two schemes share every page
//! and every flush; they differ only in what the host pays (Figure 4 of
//! the paper):
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

use bytes::Bytes;
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

struct Page {
    data: Box<[u8]>,
    /// 0 = clean; otherwise the epoch at which the page was last dirtied.
    dirty_epoch: u64,
}

/// A write-back page cache in front of an [`SsdDevice`].
pub struct PageCache {
    sim: Sim,
    dev: Rc<SsdDevice>,
    scheme: IoScheme,
    budget: u64,
    host: HostModel,
    pages: RefCell<LruMap<u64, Page>>,
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
    pub fn new(
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
    pub fn stats(&self) -> PageCacheStats {
        *self.stats.borrow()
    }

    /// Bytes currently dirty.
    pub fn dirty_bytes(&self) -> u64 {
        self.dirty_bytes.get()
    }

    /// Write `data` at `offset`: it completes at memory speed, and the
    /// device write is deferred to writeback.
    pub async fn write(&self, offset: u64, data: &[u8]) -> Result<(), DeviceError> {
        self.check_range(offset, data.len())?;
        self.charge(Charge::WriteEntry, data.len()).await;
        let ps = PAGE_SIZE as u64;
        let first = offset / ps;
        let last = (offset + data.len() as u64 - 1) / ps;
        for page_idx in first..=last {
            let page_start = page_idx * ps;
            let lo = offset.max(page_start);
            let hi = (offset + data.len() as u64).min(page_start + ps);
            let partial = !(lo == page_start && hi == page_start + ps);
            self.ensure_present(page_idx, partial).await?;
            {
                // Copy the slice into the page and mark dirty.
                let mut pages = self.pages.borrow_mut();
                let page = pages
                    .peek_mut(&page_idx)
                    .expect("page present after ensure_present");
                let dst_off = (lo - page_start) as usize;
                let src_off = (lo - offset) as usize;
                let n = (hi - lo) as usize;
                page.data[dst_off..dst_off + n].copy_from_slice(&data[src_off..src_off + n]);
                if page.dirty_epoch == 0 {
                    self.dirty_bytes.set(self.dirty_bytes.get() + ps);
                    self.dirty.borrow_mut().insert(page_idx);
                }
                let e = self.epoch.get() + 1;
                self.epoch.set(e);
                page.dirty_epoch = e;
            }
            self.evict_for_capacity().await?;
        }
        self.charge(Charge::WriteExit, data.len()).await;
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
    pub async fn read(&self, offset: u64, len: usize) -> Result<Bytes, DeviceError> {
        self.check_range(offset, len)?;
        self.charge(Charge::ReadEntry, len).await;
        let ps = PAGE_SIZE as u64;
        let first = offset / ps;
        let last = (offset + len.max(1) as u64 - 1) / ps;
        for page_idx in first..=last {
            self.ensure_present(page_idx, true).await?;
            self.evict_for_capacity().await?;
        }
        self.charge(Charge::ReadExit, len).await;
        // Assemble after all pages are resident (touch for LRU recency).
        let mut out = vec![0u8; len];
        let mut pages = self.pages.borrow_mut();
        let mut pos = 0usize;
        while pos < len {
            let abs = offset + pos as u64;
            let page_idx = abs / ps;
            let page_off = (abs % ps) as usize;
            let n = (PAGE_SIZE - page_off).min(len - pos);
            let page = pages.touch(&page_idx).expect("page resident for read");
            out[pos..pos + n].copy_from_slice(&page.data[page_off..page_off + n]);
            pos += n;
        }
        Ok(Bytes::from(out))
    }

    /// Flush every dirty page to the device and wait for completion.
    pub async fn sync(&self) -> Result<(), DeviceError> {
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

    /// Make `page_idx` resident. `load` controls whether absent pages are
    /// read from the device (true for reads/partial writes) or created
    /// zeroed (full-page overwrite).
    async fn ensure_present(&self, page_idx: u64, load: bool) -> Result<(), DeviceError> {
        if self.pages.borrow_mut().touch(&page_idx).is_some() {
            self.stats.borrow_mut().hits += 1;
            return Ok(());
        }
        self.stats.borrow_mut().misses += 1;
        self.charge(Charge::PageMiss, PAGE_SIZE).await;
        let off = page_idx * PAGE_SIZE as u64;
        // Holes (never-written device ranges) need no read-modify-write.
        let load = load && self.dev.has_data(off, PAGE_SIZE);
        let data: Box<[u8]> = if load {
            let bytes = self.dev.read(off, PAGE_SIZE).await?;
            // The page may have been created by a concurrent writer while
            // we waited on the device; never clobber newer content.
            if self.pages.borrow_mut().touch(&page_idx).is_some() {
                return Ok(());
            }
            bytes.to_vec().into_boxed_slice()
        } else {
            vec![0u8; PAGE_SIZE].into_boxed_slice()
        };
        self.pages.borrow_mut().insert(
            page_idx,
            Page {
                data,
                dirty_epoch: 0,
            },
        );
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
            let dirty_copy: Option<(Box<[u8]>, u64)> = {
                let pages = self.pages.borrow();
                pages
                    .peek(&page_idx)
                    .filter(|p| p.dirty_epoch != 0)
                    .map(|p| (p.data.clone(), p.dirty_epoch))
            };
            if let Some((data, epoch)) = dirty_copy {
                self.stats.borrow_mut().inline_flushes += 1;
                self.dev.write(page_idx * PAGE_SIZE as u64, &data).await?;
                self.mark_clean_if_unchanged(page_idx, epoch);
            }
            // Only drop the page if it is clean now (it may have been
            // re-dirtied while the inline flush waited on the device).
            let mut pages = self.pages.borrow_mut();
            let is_clean = pages.peek(&page_idx).is_some_and(|p| p.dirty_epoch == 0);
            if is_clean {
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
        let run: Vec<(u64, Box<[u8]>, u64)> = {
            let dirty = self.dirty.borrow();
            let pages = self.pages.borrow();
            let mut run = Vec::new();
            let mut expect: Option<u64> = None;
            for &idx in dirty.iter() {
                match expect {
                    Some(e) if idx != e => break,
                    _ => {}
                }
                let Some(p) = pages.peek(&idx) else { continue };
                run.push((idx, p.data.clone(), p.dirty_epoch));
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
        let mut buf = Vec::with_capacity(run.len() * PAGE_SIZE);
        for (_, data, _) in &run {
            buf.extend_from_slice(data);
        }
        self.dev.write(base, &buf).await?;
        let mut flushed = 0;
        for (idx, _, epoch) in run {
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
        let Some(p) = pages.peek_mut(&page_idx) else {
            return false;
        };
        if p.dirty_epoch != epoch {
            return false;
        }
        p.dirty_epoch = 0;
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

    const BUFFERED: [IoScheme; 2] = [IoScheme::Cached, IoScheme::Mmap];

    fn cache_with(
        sim: &Sim,
        scheme: IoScheme,
        profile: DeviceProfile,
        budget: u64,
        host: HostModel,
    ) -> (Rc<PageCache>, Rc<SsdDevice>) {
        let dev = SsdDevice::new(sim, profile);
        let cache = PageCache::new(sim, Rc::clone(&dev), scheme, budget, host);
        (cache, dev)
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
            let (cache, _dev) =
                cache_with(&sim, scheme, instant_device(), 8 << 20, HostModel::zero());
            let data: Vec<u8> = (0..200_000).map(|i| (i % 249) as u8).collect();
            cache.write(70_000, &data).await.unwrap();
            let got = cache.read(70_000, data.len()).await.unwrap();
            assert_eq!(&got[..], &data[..], "{scheme:?}");
        });
    }

    #[test]
    fn sync_persists_to_device() {
        for_each_scheme(|sim, scheme| async move {
            let (cache, dev) =
                cache_with(&sim, scheme, instant_device(), 8 << 20, HostModel::zero());
            cache.write(128 << 10, &[9u8; 4096]).await.unwrap();
            cache.sync().await.unwrap();
            assert_eq!(cache.dirty_bytes(), 0, "{scheme:?}");
            assert_eq!(&dev.peek(128 << 10, 4)[..], &[9, 9, 9, 9], "{scheme:?}");
        });
    }

    #[test]
    fn read_after_writeback_hits_cache() {
        for_each_scheme(|sim, scheme| async move {
            let (cache, _dev) = cache_with(&sim, scheme, sata_ssd(), 64 << 20, HostModel::zero());
            cache.write(0, &[1u8; 4096]).await.unwrap();
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
            let (cache, dev) =
                cache_with(&sim, scheme, instant_device(), 8 << 20, HostModel::zero());
            dev.write(0, &[0xAAu8; 64 << 10]).await.unwrap();
            cache.write(100, &[0xBBu8; 50]).await.unwrap();
            cache.sync().await.unwrap();
            let got = dev.peek(0, 200);
            assert_eq!(got[99], 0xAA, "{scheme:?}");
            assert_eq!(got[100], 0xBB, "{scheme:?}");
            assert_eq!(got[149], 0xBB, "{scheme:?}");
            assert_eq!(got[150], 0xAA, "{scheme:?}");
        });
    }

    #[test]
    fn eviction_under_small_budget_keeps_data_readable() {
        for_each_scheme(|sim, scheme| async move {
            let (cache, dev) =
                cache_with(&sim, scheme, instant_device(), 1 << 20, HostModel::zero());
            // Write 4 MiB through a 1 MiB budget.
            for i in 0..64u64 {
                cache
                    .write(i * (64 << 10), &[i as u8; 64 << 10])
                    .await
                    .unwrap();
            }
            cache.sync().await.unwrap();
            // Everything must still be readable (from device or cache).
            for i in 0..64u64 {
                let got = cache.read(i * (64 << 10), 8).await.unwrap();
                assert_eq!(got[0], i as u8, "{scheme:?} page {i}");
            }
            assert!(dev.stats().bytes_written >= 3 << 20, "{scheme:?}");
        });
    }

    #[test]
    fn out_of_range_rejected() {
        for_each_scheme(|sim, scheme| async move {
            let (cache, dev) =
                cache_with(&sim, scheme, instant_device(), 8 << 20, HostModel::zero());
            let cap = dev.profile().capacity;
            let err = cache.write(cap - 4, &[0u8; 8]).await.unwrap_err();
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
            let (cache, dev) = cache_with(&sim2, IoScheme::Cached, sata_ssd(), 64 << 20, host);
            let slab = vec![7u8; 1 << 20];
            let t0 = sim2.now();
            cache.write(0, &slab).await.unwrap();
            let cached_cost = sim2.now() - t0;
            let direct_cost = dev.profile().write_cost(1 << 20);
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
            let (mm, _dev) = cache_with(&sim2, IoScheme::Mmap, sata_ssd(), 64 << 20, host);
            let t0 = sim2.now();
            // Two writes to the same page: one fault total.
            mm.write(0, &[1u8; 512]).await.unwrap();
            mm.write(512, &[2u8; 512]).await.unwrap();
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
            let (mm, _dev) = cache_with(&sim2, IoScheme::Mmap, sata_ssd(), 64 << 20, host);
            let t0 = sim2.now();
            mm.write(0, &vec![1u8; 1 << 20]).await.unwrap();
            assert_eq!(mm.stats().misses, 16); // 1 MiB / 64 KiB
            assert_eq!(sim2.now() - t0, host.fault * 16 + host.memcpy_cost(1 << 20));
        });
    }

    #[test]
    fn cold_read_pays_device_latency() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (cache, dev) = cache_with(
                &sim2,
                IoScheme::Cached,
                sata_ssd(),
                64 << 20,
                HostModel::zero(),
            );
            dev.write(0, &[3u8; 4096]).await.unwrap();
            let t0 = sim2.now();
            let got = cache.read(0, 4096).await.unwrap();
            assert_eq!(got[0], 3);
            // One 64 KiB page load.
            assert_eq!(sim2.now() - t0, dev.profile().read_cost(64 << 10));
            assert_eq!(cache.stats().misses, 1);
        });
    }

    #[test]
    fn sustained_writes_throttle_on_dirty_limit() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            // Tiny cache so the dirty limit bites quickly.
            let (cache, _dev) = cache_with(
                &sim2,
                IoScheme::Cached,
                sata_ssd(),
                2 << 20,
                HostModel::zero(),
            );
            for i in 0..64u64 {
                cache.write(i * (64 << 10), &[1u8; 64 << 10]).await.unwrap();
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
            let (cache, _dev) = cache_with(
                &sim2,
                IoScheme::Cached,
                sata_ssd(),
                4 << 20,
                HostModel::zero(),
            );
            // Exceed the background threshold (1 MiB) so writeback kicks in.
            for i in 0..24u64 {
                cache.write(i * (64 << 10), &[1u8; 64 << 10]).await.unwrap();
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
