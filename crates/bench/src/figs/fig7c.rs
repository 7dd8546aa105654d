//! Figure 7(c) — aggregated server throughput with many concurrent
//! clients.
//!
//! Paper setup: 100 clients on 32 nodes, 4 Memcached servers with 1 GB of
//! aggregate memory and 4 GB of SSD, preloaded with 2 GB of 8 KiB pairs,
//! Zipf-skewed Set/Get.

use nbkv_core::designs::Design;
use nbkv_workload::RunReport;

use crate::exp::{scaled_bytes, scaled_ops, LatencyExp};
use crate::manifest::Manifest;
use crate::table::{ratio, Table};

const SERVERS: usize = 4;
const CLIENTS: usize = 100;

/// Run the multi-client throughput experiment for one design.
pub fn run_design(design: Design) -> RunReport {
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
    e.run()
}

/// Regenerate the throughput table.
pub fn run(m: &mut Manifest) -> Vec<Table> {
    let mut t = Table::new(
        "fig7c",
        "Aggregated throughput, 100 clients / 4 servers, 8 KiB kv, data = 2x memory",
        &["design", "throughput (ops/s)", "mean visible latency (us)"],
    );
    let designs = [
        Design::HRdmaDef,
        Design::HRdmaOptBlock,
        Design::HRdmaOptNonBB,
        Design::HRdmaOptNonBI,
    ];
    let mut thr: Vec<(Design, f64)> = Vec::new();
    for design in designs {
        let r = run_design(design);
        m.record_report(&format!("fig7c/{}", design.label()), &r);
        thr.push((design, r.throughput_ops_per_sec()));
        t.row(vec![
            design.label().to_string(),
            format!("{:.0}", r.throughput_ops_per_sec()),
            crate::table::us(r.mean_latency_ns),
        ]);
    }
    let by = |d: Design| thr.iter().find(|(x, _)| *x == d).expect("ran").1;
    t.note(format!(
        "paper Fig 7(c): adaptive I/O gives ~1.3x over Def (measured {}); NonB-b/i give 2-2.5x over the blocking designs (measured NonB-i/Opt-Block = {}, NonB-b/Opt-Block = {})",
        ratio(by(Design::HRdmaOptBlock), by(Design::HRdmaDef)),
        ratio(by(Design::HRdmaOptNonBI), by(Design::HRdmaOptBlock)),
        ratio(by(Design::HRdmaOptNonBB), by(Design::HRdmaOptBlock)),
    ));
    vec![t]
}
