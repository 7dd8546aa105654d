//! Unified slab I/O over the three schemes the paper evaluates.
//!
//! The hybrid server's slab manager evicts slabs to (and reads items from)
//! the SSD through one of three paths — direct I/O, OS-buffered ("cached")
//! I/O, or mmap — and the adaptive allocator of Figure 5 picks a scheme
//! per slab class. [`SlabIo`] exposes all three over one device, keyed by
//! [`IoScheme`]. A scheme decides only what a call costs; the bytes move
//! once, between the caller and the device: a write stores its data with
//! [`SsdDevice::poke`] once its timing succeeds, and a read copies out
//! with [`SsdDevice::peek`]. So a region reads back its last write through
//! any scheme; the slab manager reads a region through the scheme that
//! wrote it, which is what the costs assume.

use std::cell::Cell;
use std::rc::Rc;

use bytes::Bytes;
use nbkv_simrt::Sim;

use crate::device::{DeviceError, SsdDevice};
use crate::pagecache::{PageCache, PageCacheStats};
use crate::profile::HostModel;

/// Which I/O path a slab flush / item read uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoScheme {
    /// Synchronous direct I/O: full device cost inline (H-RDMA-Def).
    Direct,
    /// OS-buffered write-back I/O: a syscall per call, then a memory-speed
    /// copy into the page cache.
    Cached,
    /// Memory-mapped I/O: no syscall, but a soft fault per page miss. Its
    /// own page cache, with the same writeback as `Cached`.
    Mmap,
}

impl IoScheme {
    /// All schemes, for sweeps.
    pub const ALL: [IoScheme; 3] = [IoScheme::Direct, IoScheme::Cached, IoScheme::Mmap];

    /// Short label for harness output.
    pub fn label(self) -> &'static str {
        match self {
            IoScheme::Direct => "direct",
            IoScheme::Cached => "cached",
            IoScheme::Mmap => "mmap",
        }
    }
}

/// Configuration for [`SlabIo`].
#[derive(Debug, Clone, Copy)]
pub struct SlabIoConfig {
    /// Size of each of the two page caches: the one behind the `Cached`
    /// scheme and the mmap residency limit.
    pub cache_bytes: u64,
    /// Host cost model shared by both schemes.
    pub host: HostModel,
}

impl SlabIoConfig {
    /// Defaults: 256 MiB for each page cache.
    pub fn default_for_tests(host: HostModel) -> Self {
        SlabIoConfig {
            cache_bytes: 256 << 20,
            host,
        }
    }
}

nbkv_obs::counters! {
    /// I/O-facade counters: per-scheme operation mix plus total virtual time
    /// callers spent stalled inside slab reads/writes.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SlabIoStats {
        /// Read operations.
        sum reads: u64,
        /// Write operations.
        sum writes: u64,
        /// Bytes read.
        sum read_bytes: u64,
        /// Bytes written.
        sum write_bytes: u64,
        /// Operations routed through the direct scheme.
        sum direct_ops: u64,
        /// Operations routed through the cached scheme.
        sum cached_ops: u64,
        /// Operations routed through the mmap scheme.
        sum mmap_ops: u64,
        /// Total virtual ns callers spent awaiting slab reads/writes.
        sum stall_ns: u64,
    }
}

/// Unified I/O facade over one SSD.
pub struct SlabIo {
    sim: Sim,
    dev: Rc<SsdDevice>,
    cache: Rc<PageCache>,
    mmap: Rc<PageCache>,
    stats: Cell<SlabIoStats>,
}

impl SlabIo {
    /// Build the facade; the writeback tasks of both page caches are
    /// spawned on `sim`.
    pub fn new(sim: &Sim, dev: Rc<SsdDevice>, cfg: SlabIoConfig) -> Rc<Self> {
        let cache = PageCache::new(
            sim,
            Rc::clone(&dev),
            IoScheme::Cached,
            cfg.cache_bytes,
            cfg.host,
        );
        let mmap = PageCache::new(
            sim,
            Rc::clone(&dev),
            IoScheme::Mmap,
            cfg.cache_bytes,
            cfg.host,
        );
        Rc::new(SlabIo {
            sim: sim.clone(),
            dev,
            cache,
            mmap,
            stats: Cell::new(SlabIoStats::default()),
        })
    }

    fn count_op(&self, scheme: IoScheme, stalled_ns: u64, f: impl FnOnce(&mut SlabIoStats)) {
        let mut st = self.stats.get();
        match scheme {
            IoScheme::Direct => st.direct_ops += 1,
            IoScheme::Cached => st.cached_ops += 1,
            IoScheme::Mmap => st.mmap_ops += 1,
        }
        st.stall_ns += stalled_ns;
        f(&mut st);
        self.stats.set(st);
    }

    /// The page cache behind a buffered `scheme` (`None` for direct I/O,
    /// which has none).
    pub(crate) fn page_cache(&self, scheme: IoScheme) -> Option<&Rc<PageCache>> {
        match scheme {
            IoScheme::Direct => None,
            IoScheme::Cached => Some(&self.cache),
            IoScheme::Mmap => Some(&self.mmap),
        }
    }

    /// Write `data` at `offset` through `scheme`; the device holds the
    /// bytes once the call succeeds.
    pub async fn write(
        &self,
        scheme: IoScheme,
        offset: u64,
        data: &[u8],
    ) -> Result<(), DeviceError> {
        let t0 = self.sim.now();
        let out = match self.page_cache(scheme) {
            None => self.dev.write_sync(offset, data.len()).await,
            Some(cache) => cache.write(offset, data.len()).await,
        };
        if out.is_ok() {
            self.dev.poke(offset, data);
        }
        let stalled = self.sim.now().saturating_since(t0).as_nanos() as u64;
        let len = data.len() as u64;
        self.count_op(scheme, stalled, |st| {
            st.writes += 1;
            st.write_bytes += len;
        });
        out
    }

    /// Read `len` bytes at `offset` through `scheme`.
    pub async fn read(
        &self,
        scheme: IoScheme,
        offset: u64,
        len: usize,
    ) -> Result<Bytes, DeviceError> {
        let t0 = self.sim.now();
        let out = match self.page_cache(scheme) {
            None => self.dev.read(offset, len).await,
            Some(cache) => cache.read(offset, len).await,
        };
        let stalled = self.sim.now().saturating_since(t0).as_nanos() as u64;
        self.count_op(scheme, stalled, |st| {
            st.reads += 1;
            st.read_bytes += len as u64;
        });
        out.map(|()| self.dev.peek(offset, len))
    }

    /// Counter snapshot.
    pub fn io_stats(&self) -> SlabIoStats {
        self.stats.get()
    }

    /// Counter snapshot of the page cache behind a buffered `scheme`
    /// (`None` for direct I/O, which has none).
    pub fn page_cache_stats(&self, scheme: IoScheme) -> Option<PageCacheStats> {
        self.page_cache(scheme).map(|cache| cache.stats())
    }

    /// Write every dirty page of both page caches back to the device, and
    /// wait for the device writes.
    pub async fn sync_all(&self) -> Result<(), DeviceError> {
        self.cache.sync().await?;
        self.mmap.sync().await
    }

    /// The underlying device.
    pub fn device(&self) -> &Rc<SsdDevice> {
        &self.dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{IoOp, SsdFaultPlan};
    use crate::profile::{instant_device, sata_ssd};
    use nbkv_simrt::SimTime;

    fn slab_io(sim: &Sim, profile: crate::profile::DeviceProfile, host: HostModel) -> Rc<SlabIo> {
        let dev = SsdDevice::new(sim, profile);
        SlabIo::new(sim, dev, SlabIoConfig::default_for_tests(host))
    }

    #[test]
    fn all_schemes_round_trip() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let io = slab_io(&sim2, instant_device(), HostModel::zero());
            for (i, scheme) in IoScheme::ALL.into_iter().enumerate() {
                let off = (i as u64) * (1 << 20);
                let data = vec![i as u8 + 1; 100_000];
                io.write(scheme, off, &data).await.unwrap();
                let got = io.read(scheme, off, data.len()).await.unwrap();
                assert_eq!(&got[..], &data[..], "{scheme:?}");
            }
        });
    }

    /// The Figure 4 ordering: direct is worst everywhere; mmap beats cached
    /// for small evictions; cached beats mmap for large ones.
    #[test]
    fn fig4_scheme_ordering() {
        fn sync_write_cost(scheme: IoScheme, len: usize) -> u64 {
            let sim = Sim::new();
            let sim2 = sim.clone();
            sim.run_until(async move {
                let io = slab_io(&sim2, sata_ssd(), HostModel::default_host());
                let t0 = sim2.now();
                io.write(scheme, 0, &vec![1u8; len]).await.unwrap();
                (sim2.now() - t0).as_nanos() as u64
            })
        }
        for len in [4 << 10, 64 << 10, 1 << 20] {
            let direct = sync_write_cost(IoScheme::Direct, len);
            let cached = sync_write_cost(IoScheme::Cached, len);
            let mmap = sync_write_cost(IoScheme::Mmap, len);
            assert!(direct > cached && direct > mmap, "direct worst at {len}");
        }
        let small = 4 << 10;
        assert!(
            sync_write_cost(IoScheme::Mmap, small) < sync_write_cost(IoScheme::Cached, small),
            "mmap should win small evictions"
        );
        let large = 1 << 20;
        assert!(
            sync_write_cost(IoScheme::Cached, large) < sync_write_cost(IoScheme::Mmap, large),
            "cached should win large evictions"
        );
    }

    #[test]
    fn sync_all_persists_everything() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let io = slab_io(&sim2, instant_device(), HostModel::zero());
            io.write(IoScheme::Cached, 0, &[1u8; 64]).await.unwrap();
            io.write(IoScheme::Mmap, 1 << 20, &[2u8; 64]).await.unwrap();
            io.write(IoScheme::Direct, 2 << 20, &[3u8; 64])
                .await
                .unwrap();
            io.sync_all().await.unwrap();
            assert_eq!(io.device().peek(0, 1)[0], 1);
            assert_eq!(io.device().peek(1 << 20, 1)[0], 2);
            assert_eq!(io.device().peek(2 << 20, 1)[0], 3);
        });
    }

    #[test]
    fn every_scheme_rejects_a_write_past_the_device_end() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let io = slab_io(&sim2, instant_device(), HostModel::zero());
            let capacity = io.device().profile().capacity;
            for scheme in IoScheme::ALL {
                let err = io.write(scheme, capacity - 4, &[1u8; 8]).await;
                assert_eq!(
                    err,
                    Err(DeviceError::OutOfCapacity {
                        end: capacity + 4,
                        capacity
                    }),
                    "{scheme:?}"
                );
            }
            io.sync_all().await.unwrap();
        });
    }

    #[test]
    fn a_failed_write_persists_nothing() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let io = slab_io(&sim2, instant_device(), HostModel::zero());
            io.device()
                .set_fault_plan(Some(SsdFaultPlan::errors(1, 1.0)));
            let err = io.write(IoScheme::Direct, 0, &[7u8; 64]).await;
            assert_eq!(err, Err(DeviceError::Injected { op: IoOp::Write }));
            assert!(!io.device().has_data(0, 64));
        });
    }

    /// A region that one buffered scheme wrote and another rewrote reads
    /// back the rewrite, after both caches wrote their pages back and the
    /// rewriting cache evicted its own (the store reuses a reclaimed extent
    /// whatever scheme wrote it).
    #[test]
    fn a_region_rewritten_through_the_other_cache_reads_the_rewrite() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let got = sim.run_until(async move {
            let dev = SsdDevice::new(&sim2, instant_device());
            let cfg = SlabIoConfig {
                cache_bytes: 4 << 20,
                host: HostModel::zero(),
            };
            let io = SlabIo::new(&sim2, dev, cfg);
            io.write(IoScheme::Mmap, 0, &[1u8; 1 << 20]).await.unwrap();
            io.write(IoScheme::Cached, 0, &[2u8; 1 << 20])
                .await
                .unwrap();
            io.sync_all().await.unwrap();
            io.write(IoScheme::Cached, 1 << 20, &vec![3u8; 7 << 20])
                .await
                .unwrap();
            io.read(IoScheme::Cached, 0, 8).await.unwrap()
        });
        sim.shutdown();
        assert_eq!(&got[..], &[2u8; 8]);
    }

    /// A buffered read of more pages than the page cache holds evicts its
    /// own first pages while it makes the last ones resident; it still
    /// reads back the data.
    #[test]
    fn a_read_larger_than_the_page_cache_reads_the_data() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let got = sim.run_until(async move {
            let cfg = SlabIoConfig {
                cache_bytes: 512 << 10,
                host: HostModel::zero(),
            };
            let io = SlabIo::new(&sim2, SsdDevice::new(&sim2, instant_device()), cfg);
            let data: Vec<u8> = (0..1 << 20).map(|i| (i / 4096) as u8).collect();
            io.write(IoScheme::Cached, 0, &data).await.unwrap();
            io.sync_all().await.unwrap();
            let got = io.read(IoScheme::Cached, 0, data.len()).await.unwrap();
            got[..] == data[..]
        });
        sim.shutdown();
        assert!(got, "the read returned other bytes");
    }

    #[test]
    fn direct_write_is_durable_immediately() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let io = slab_io(&sim2, instant_device(), HostModel::zero());
            io.write(IoScheme::Direct, 0, b"now").await.unwrap();
            assert_eq!(&io.device().peek(0, 3)[..], b"now");
            assert_ne!(sim2.now(), SimTime::from_nanos(u64::MAX)); // silence lint
        });
    }
}
