//! Figure 8(b) — bursty block-I/O latency on SATA and NVMe.
//!
//! Paper setup: 4 servers with 1 GB aggregate memory, one client writing
//! and reading blocks of 2 MiB / 16 MiB split into 256 KiB chunks, 4 GB
//! total workload.

use std::rc::Rc;

use nbkv_core::cluster::ClusterConfig;
use nbkv_core::designs::Design;
use nbkv_storesim::{nvme_p3700, sata_ssd, DeviceProfile};
use nbkv_workload::{run_bursty, BurstSpec};

use crate::exp::{on_cluster, scaled_bytes};
use crate::runner::{Case, Done, Figure, Measured};
use crate::table::{us, Table};

/// The bursty workload for one (design, device, block size) cell; its
/// section adds the block counters to the cluster's registry.
fn cell(design: Design, device: DeviceProfile, block_bytes: usize) -> Measured {
    let agg_mem = scaled_bytes(1 << 30);
    let total = (4 * agg_mem / block_bytes as u64).max(2) * block_bytes as u64;
    let mut cfg = ClusterConfig::new(design, agg_mem / 4);
    cfg.servers = 4;
    cfg.device = device;
    cfg.ssd_capacity = 4 * agg_mem;
    let (r, mut section) = on_cluster(&cfg, |sim, cluster| {
        let client = Rc::clone(&cluster.clients[0]);
        let sim2 = sim.clone();
        sim.run_until(async move {
            let spec = BurstSpec {
                block_bytes,
                chunk_bytes: 256 << 10,
                total_bytes: total,
                flavor: design.flavor(),
            };
            run_bursty(&sim2, &client, &spec).await
        })
    });
    section.set_counter("blocks", r.blocks as u64);
    section.set_counter("mean_write_block_ns", r.mean_write_block_ns);
    section.set_counter("mean_read_block_ns", r.mean_read_block_ns);
    section.set_counter("elapsed_ns", r.elapsed_ns);
    (None, section)
}

const DEVICES: [&str; 2] = ["SATA", "NVMe"];
const BLOCKS: [(&str, usize); 2] = [("2 MiB", 2 << 20), ("16 MiB", 16 << 20)];
const DESIGNS: [(&str, Design); 2] = [
    ("Opt-Block", Design::HRdmaOptBlock),
    ("NonB-i", Design::HRdmaOptNonBI),
];

/// Per (device, block size), the blocking and the non-blocking cell.
pub const FIGURE: Figure = Figure(cases, render);

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for (dev_label, device) in DEVICES.into_iter().zip([sata_ssd(), nvme_p3700()]) {
        for (blk_label, block) in BLOCKS {
            for (label, design) in DESIGNS {
                let run = move || cell(design, device, block);
                cases.push(Case::own(
                    format!("fig8b/{dev_label}/{blk_label}/{label}"),
                    run,
                ));
            }
        }
    }
    cases
}

fn render(res: &[Done]) -> Vec<Table> {
    let mut t = Table::new(
        "fig8b",
        "Bursty I/O: mean block write+read latency (us), 256 KiB chunks, 4 servers",
        &[
            "device",
            "block size",
            "Opt-Block write",
            "NonB-i write",
            "Opt-Block read",
            "NonB-i read",
            "NonB-i gain %",
        ],
    );
    let cells = DEVICES
        .iter()
        .flat_map(|&dev| BLOCKS.map(|(blk, _)| (dev, blk)));
    for ((dev_label, blk_label), pair) in cells.zip(res.chunks(2)) {
        let write = |i: usize| pair[i].1.section.counter("mean_write_block_ns");
        let read = |i: usize| pair[i].1.section.counter("mean_read_block_ns");
        let b_total = write(0) + read(0);
        let n_total = write(1) + read(1);
        let gain = 100.0 * (1.0 - n_total as f64 / b_total.max(1) as f64);
        t.row(vec![
            dev_label.to_string(),
            blk_label.to_string(),
            us(write(0)),
            us(write(1)),
            us(read(0)),
            us(read(1)),
            format!("{gain:.0}"),
        ]);
    }
    t.note("paper Fig 8(b): NonB-i improves block access latency 79-85% over Opt-Block on both devices, with larger blocks benefiting more (more operations to overlap).");
    vec![t]
}
