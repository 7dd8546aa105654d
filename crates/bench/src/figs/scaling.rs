//! Server-count scaling sweep: aggregated throughput as the cluster grows
//! from 1 to 8 servers under a fixed per-client load (an extension of the
//! paper's Figure 7(c) scalability story).

use nbkv_core::designs::Design;

use crate::exp::{scaled_bytes, scaled_ops, LatencyExp};
use crate::runner::{Case, Done, Figure};
use crate::table::Table;

const SERVERS: [usize; 4] = [1, 2, 4, 8];
const DESIGNS: [Design; 2] = [Design::HRdmaOptBlock, Design::HRdmaOptNonBI];

fn point(design: Design, servers: usize) -> LatencyExp {
    let agg_mem = scaled_bytes(1 << 30);
    let mut e = LatencyExp::single(design, (agg_mem / servers as u64).max(2 << 20), 2 * agg_mem);
    e.cluster.servers = servers;
    e.cluster.clients = 32;
    e.cluster.ssd_capacity = 4 * agg_mem / servers as u64;
    e.value_len = 8 << 10;
    e.ops_per_client = scaled_ops(1000).max(200) / 4;
    e.window = 32;
    e
}

/// Per server count, one case per design.
pub const FIGURE: Figure = Figure(cases, render);

fn cases() -> Vec<Case> {
    let case = |d: Design, n| Case::latency(format!("s{n}/{}", d.label()), point(d, n));
    SERVERS
        .iter()
        .flat_map(|&n| DESIGNS.map(|d| case(d, n)))
        .collect()
}

fn render(res: &[Done]) -> Vec<Table> {
    let mut t = Table::new(
        "scaling",
        "Aggregated throughput (ops/s) vs server count, 32 clients, 8 KiB kv",
        &[
            "servers",
            "H-RDMA-Opt-Block",
            "H-RDMA-Opt-NonB-i",
            "NonB-i speedup vs 1 server",
        ],
    );
    let mut base_nonb = 0.0;
    for (servers, pair) in SERVERS.iter().zip(res.chunks(2)) {
        let [block, nonb] = [0, 1].map(|i| pair[i].1.report().throughput_ops_per_sec());
        if *servers == 1 {
            base_nonb = nonb;
        }
        t.row(vec![
            servers.to_string(),
            format!("{block:.0}"),
            format!("{nonb:.0}"),
            format!("{:.1}x", nonb / base_nonb.max(1.0)),
        ]);
    }
    t.note("expected: throughput grows with server count (the paper's underlying scalability premise); non-blocking keeps its advantage at every size.");
    vec![t]
}
