//! Figure 7(c) — aggregated server throughput with many concurrent
//! clients.
//!
//! Paper setup: 100 clients on 32 nodes, 4 Memcached servers with 1 GB of
//! aggregate memory and 4 GB of SSD, preloaded with 2 GB of 8 KiB pairs,
//! Zipf-skewed Set/Get.

use nbkv_core::designs::Design;

use crate::exp::{scaled_bytes, scaled_ops, LatencyExp};
use crate::figs::by_design;
use crate::runner::{Case, Done, Figure};
use crate::table::{ratio, us, Table};

const SERVERS: usize = 4;
const CLIENTS: usize = 100;

const DESIGNS: [Design; 4] = [
    Design::HRdmaDef,
    Design::HRdmaOptBlock,
    Design::HRdmaOptNonBB,
    Design::HRdmaOptNonBI,
];

/// The multi-client throughput experiment for one design.
fn exp(design: Design) -> LatencyExp {
    let agg_mem = scaled_bytes(1 << 30);
    let agg_data = 2 * agg_mem;
    let agg_ssd = 4 * agg_mem;
    let mut e = LatencyExp::single(design, agg_mem / SERVERS as u64, agg_data);
    e.cluster.servers = SERVERS;
    e.cluster.clients = CLIENTS;
    e.cluster.ssd_capacity = agg_ssd / SERVERS as u64;
    e.value_len = 8 << 10;
    e.ops_per_client = scaled_ops(2000).max(200) / 4;
    e.window = 32;
    e
}

/// One case per design.
pub const FIGURE: Figure = Figure(cases, render);

fn cases() -> Vec<Case> {
    DESIGNS
        .map(|d| Case::latency(format!("fig7c/{}", d.label()), exp(d)))
        .into()
}

fn render(res: &[Done]) -> Vec<Table> {
    let mut t = Table::new(
        "fig7c",
        "Aggregated throughput, 100 clients / 4 servers, 8 KiB kv, data = 2x memory",
        &["design", "throughput (ops/s)", "mean visible latency (us)"],
    );
    for (design, (_, o)) in DESIGNS.iter().zip(res) {
        let r = o.report();
        t.row(vec![
            design.label().to_string(),
            format!("{:.0}", r.throughput_ops_per_sec()),
            us(r.mean_latency_ns),
        ]);
    }
    let by = by_design(&DESIGNS, res, |o| o.report().throughput_ops_per_sec());
    t.note(format!(
        "paper Fig 7(c): adaptive I/O gives ~1.3x over Def (measured {}); NonB-b/i give 2-2.5x over the blocking designs (measured NonB-i/Opt-Block = {}, NonB-b/Opt-Block = {})",
        ratio(by(Design::HRdmaOptBlock), by(Design::HRdmaDef)),
        ratio(by(Design::HRdmaOptNonBI), by(Design::HRdmaOptBlock)),
        ratio(by(Design::HRdmaOptNonBB), by(Design::HRdmaOptBlock)),
    ));
    vec![t]
}
