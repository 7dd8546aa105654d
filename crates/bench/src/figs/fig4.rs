//! Figure 4 — synchronous eviction cost of the three I/O schemes across
//! data sizes (the measurement behind the adaptive slab allocator).

use nbkv_obs::Registry;
use nbkv_simrt::Sim;
use nbkv_storesim::{sata_ssd, HostModel, IoScheme, SlabIo, SlabIoConfig, SsdDevice};

use crate::runner::{Case, Done, Figure};
use crate::table::{us, Table};

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

/// One size's case: a cold synchronous write through each scheme, as
/// `<scheme>_ns` counters (`regress_io` declares the same cases).
pub fn case(label: String, len: usize) -> Case {
    Case::own(label, move || {
        let mut section = Registry::new();
        for scheme in IoScheme::ALL {
            let ns = sync_write_cost_ns(scheme, len);
            section.set_counter(&format!("{}_ns", scheme.label()), ns);
        }
        (None, section)
    })
}

/// The scheme-vs-size sweep.
pub const FIGURE: Figure = Figure(cases, render);

fn cases() -> Vec<Case> {
    SIZES
        .map(|(label, len)| case(format!("fig4/{label}"), len))
        .into()
}

fn render(res: &[Done]) -> Vec<Table> {
    let mut t = Table::new(
        "fig4",
        "Synchronous eviction cost by I/O scheme (SATA SSD, us)",
        &["size", "direct (us)", "cached (us)", "mmap (us)", "best"],
    );
    for ((label, _), (_, o)) in SIZES.iter().zip(res) {
        let ns = |scheme: IoScheme| o.section.counter(&format!("{}_ns", scheme.label()));
        let best = IoScheme::ALL
            .into_iter()
            .min_by_key(|&s| ns(s))
            .expect("nonempty");
        let mut row = vec![label.to_string()];
        row.extend(IoScheme::ALL.map(|s| us(ns(s))));
        row.push(best.label().to_string());
        t.row(row);
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
