//! Property-based tests of the storage simulators: data integrity across
//! every I/O scheme under random access patterns.

use std::collections::HashMap;

use nbkv_simrt::Sim;
use nbkv_storesim::{instant_device, HostModel, IoScheme, LruMap, SlabIo, SlabIoConfig, SsdDevice};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever the interleaving of writes across schemes, and whichever
    /// scheme rewrites a region, a read through the scheme that wrote the
    /// region last returns exactly what was written, and sync_all makes
    /// the device agree. The page caches are small, so writeback and
    /// eviction run.
    #[test]
    fn slab_io_is_read_your_writes(
        ops in prop::collection::vec(
            (0u8..3, 0u64..16, 1usize..5000, any::<u8>()),
            1..40
        )
    ) {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let ok = sim.run_until(async move {
            let dev = SsdDevice::new(&sim2, instant_device());
            let cfg = SlabIoConfig {
                cache_bytes: 256 << 10,
                host: HostModel::zero(),
            };
            let io = SlabIo::new(&sim2, dev, cfg);
            // region -> (scheme that wrote it last, contents); regions are
            // 1 MiB apart.
            let mut model: HashMap<u64, (IoScheme, Vec<u8>)> = HashMap::new();
            for (s, slot, len, fill) in ops {
                let scheme = IoScheme::ALL[s as usize];
                let offset = slot * (1 << 20);
                io.write(scheme, offset, &vec![fill; len]).await.expect("write");
                let (last, bytes) = model.entry(offset).or_insert((scheme, Vec::new()));
                *last = scheme;
                if bytes.len() < len {
                    bytes.resize(len, 0);
                }
                bytes[..len].fill(fill);
                // Read-your-writes through the scheme that wrote last.
                let got = io.read(scheme, offset, bytes.len()).await.expect("read");
                if got[..] != bytes[..] {
                    return false;
                }
            }
            io.sync_all().await.expect("sync");
            // After sync, the raw device holds every region's bytes.
            for (offset, (_, data)) in &model {
                if io.device().peek(*offset, data.len())[..] != data[..] {
                    return false;
                }
            }
            true
        });
        sim.shutdown();
        prop_assert!(ok);
    }

    /// The LRU map is indistinguishable from a naive reference model.
    #[test]
    fn lru_matches_reference(
        ops in prop::collection::vec((0u8..4, 0u32..40), 0..500)
    ) {
        let mut lru: LruMap<u32, u32> = LruMap::new();
        let mut model: Vec<(u32, u32)> = Vec::new(); // front = MRU
        for (op, k) in ops {
            match op {
                0 => {
                    lru.insert(k, k * 2);
                    model.retain(|&(mk, _)| mk != k);
                    model.insert(0, (k, k * 2));
                }
                1 => {
                    let got = lru.touch(&k).copied();
                    let expect = model.iter().find(|&&(mk, _)| mk == k).map(|&(_, v)| v);
                    prop_assert_eq!(got, expect);
                    if let Some(v) = expect {
                        model.retain(|&(mk, _)| mk != k);
                        model.insert(0, (k, v));
                    }
                }
                2 => {
                    let got = lru.remove(&k);
                    let expect = model.iter().find(|&&(mk, _)| mk == k).map(|&(_, v)| v);
                    prop_assert_eq!(got, expect);
                    model.retain(|&(mk, _)| mk != k);
                }
                _ => {
                    let got = lru.pop_lru();
                    let expect = model.pop();
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(lru.len(), model.len());
            prop_assert_eq!(lru.lru_key(), model.last().map(|&(k, _)| k));
        }
    }

    /// Device reads always reflect the latest write, byte for byte, at
    /// arbitrary (possibly overlapping) offsets.
    #[test]
    fn device_reads_reflect_latest_writes(
        writes in prop::collection::vec((0u64..200_000, 1usize..3000, any::<u8>()), 1..30)
    ) {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let writes2 = writes.clone();
        let ok = sim.run_until(async move {
            let dev = SsdDevice::new(&sim2, instant_device());
            let mut shadow = vec![0u8; 300_000];
            for (off, len, fill) in writes2 {
                let data = vec![fill; len];
                dev.write(off, len).await.expect("write");
                dev.poke(off, &data);
                shadow[off as usize..off as usize + len].copy_from_slice(&data);
            }
            dev.read(0, shadow.len()).await.expect("read");
            dev.peek(0, shadow.len())[..] == shadow[..]
        });
        sim.shutdown();
        prop_assert!(ok);
    }
}
