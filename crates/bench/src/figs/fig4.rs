//! Figure 4 — synchronous eviction cost of the three I/O schemes across
//! data sizes (the measurement behind the adaptive slab allocator).

use nbkv_simrt::Sim;
use nbkv_storesim::{sata_ssd, HostModel, IoScheme, SlabIo, SlabIoConfig, SsdDevice};

use crate::manifest::Manifest;
use crate::table::Table;

/// Cost of one synchronous write of `len` bytes through `scheme` (fresh
/// simulation per measurement; cold caches).
pub fn sync_write_cost_ns(scheme: IoScheme, len: usize) -> u64 {
    let sim = Sim::new();
    let sim2 = sim.clone();
    let cost = sim.run_until(async move {
        let dev = SsdDevice::new(&sim2, sata_ssd());
        let io = SlabIo::new(
            &sim2,
            dev,
            SlabIoConfig::default_for_tests(HostModel::default_host()),
        );
        let t0 = sim2.now();
        io.write(scheme, 0, &vec![7u8; len]).await.expect("write");
        (sim2.now() - t0).as_nanos() as u64
    });
    sim.shutdown();
    cost
}

/// The eviction sizes the sweep measures, with their row labels.
pub const SIZES: [(&str, usize); 5] = [
    ("4 KiB", 4 << 10),
    ("16 KiB", 16 << 10),
    ("64 KiB", 64 << 10),
    ("256 KiB", 256 << 10),
    ("1 MiB", 1 << 20),
];

/// Regenerate the scheme-vs-size sweep.
pub fn run(m: &mut Manifest) -> Vec<Table> {
    let mut t = Table::new(
        "fig4",
        "Synchronous eviction cost by I/O scheme (SATA SSD, us)",
        &["size", "direct (us)", "cached (us)", "mmap (us)", "best"],
    );
    for (label, len) in SIZES {
        let direct = sync_write_cost_ns(IoScheme::Direct, len);
        let cached = sync_write_cost_ns(IoScheme::Cached, len);
        let mmap = sync_write_cost_ns(IoScheme::Mmap, len);
        let reg = m.section(&format!("fig4/{label}"));
        reg.set_counter("direct_ns", direct);
        reg.set_counter("cached_ns", cached);
        reg.set_counter("mmap_ns", mmap);
        let best = [(direct, "direct"), (cached, "cached"), (mmap, "mmap")]
            .into_iter()
            .min_by_key(|(ns, _)| *ns)
            .map(|(_, n)| n)
            .expect("nonempty");
        t.row(vec![
            label.to_string(),
            crate::table::us(direct),
            crate::table::us(cached),
            crate::table::us(mmap),
            best.to_string(),
        ]);
    }
    t.note("paper Fig 4: direct I/O is worst everywhere; mmap wins small sizes, cached I/O wins large sizes — the rule encoded in the adaptive slab allocator (Fig 5).");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape_holds() {
        let small = 4 << 10;
        let large = 1 << 20;
        assert!(
            sync_write_cost_ns(IoScheme::Direct, small) > sync_write_cost_ns(IoScheme::Mmap, small)
        );
        assert!(
            sync_write_cost_ns(IoScheme::Mmap, small) < sync_write_cost_ns(IoScheme::Cached, small)
        );
        assert!(
            sync_write_cost_ns(IoScheme::Cached, large) < sync_write_cost_ns(IoScheme::Mmap, large)
        );
        assert!(
            sync_write_cost_ns(IoScheme::Direct, large)
                > sync_write_cost_ns(IoScheme::Cached, large)
        );
    }
}
