//! Model-sensitivity sweeps: how the headline result (Def vs Opt-Block vs
//! NonB-i, data > memory) responds to the calibration knobs the simulation
//! had to choose. A reproduction built on a simulator owes its reader this
//! analysis: if the *ordering* flipped under plausible knob settings, the
//! conclusions would be calibration artifacts.

use std::time::Duration;

use nbkv_core::cluster::ClusterConfig;
use nbkv_core::designs::Design;

use crate::exp::scaled_ops;
use crate::figs::single;
use crate::runner::{Case, Done, Figure};
use crate::table::{us, Table};

const DESIGNS: [Design; 3] = [
    Design::HRdmaDef,
    Design::HRdmaOptBlock,
    Design::HRdmaOptNonBI,
];

/// A table row: a knob setting and how it changes the cluster.
type Knob = (&'static str, fn(&mut ClusterConfig));

const KNOBS: [Knob; 8] = [
    ("baseline", |_| {}),
    // Network jitter on every link.
    ("link jitter 5us", |cfg| jitter(cfg, 5)),
    ("link jitter 20us", |cfg| jitter(cfg, 20)),
    // Flash garbage collection enabled (heavy: 1 ms stall per 16 MiB).
    ("SSD GC 1ms/16MiB", |cfg| {
        cfg.device = cfg.device.with_gc(16 << 20, Duration::from_millis(1))
    }),
    // Sync-write penalty halved / doubled.
    ("sync penalty x2 (8x)", |cfg| {
        cfg.device.sync_write_multiplier = 8.0
    }),
    ("sync penalty off (1x)", |cfg| {
        cfg.device.sync_write_multiplier = 1.0
    }),
    // OS cache small and large.
    ("os cache = 1x mem", |cfg| {
        cfg.os_cache_bytes = cfg.server_mem_bytes
    }),
    ("os cache = 16x mem", |cfg| {
        cfg.os_cache_bytes = 16 * cfg.server_mem_bytes
    }),
];

fn jitter(cfg: &mut ClusterConfig, us: u64) {
    let mut profile = cfg.design.fabric_profile();
    profile.link = profile.link.with_jitter(Duration::from_micros(us));
    cfg.fabric_override = Some(profile);
}

/// Per knob setting, one case per design (data > memory), labelled
/// `<setting>/<design>`.
pub const FIGURE: Figure = Figure(cases, render);

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for (label, mutate) in KNOBS {
        for d in DESIGNS {
            let mut e = single(d, false);
            e.ops_per_client = scaled_ops(2000);
            mutate(&mut e.cluster);
            cases.push(Case::latency(format!("{label}/{}", d.label()), e));
        }
    }
    cases
}

fn render(res: &[Done]) -> Vec<Table> {
    let mut t = Table::new(
        "sensitivity",
        "Headline ordering under calibration-knob sweeps (avg latency, us; data > memory)",
        &[
            "knob setting",
            "H-RDMA-Def",
            "Opt-Block",
            "NonB-i",
            "Def > Opt > NonB ?",
        ],
    );
    for ((label, _), row) in KNOBS.iter().zip(res.chunks(DESIGNS.len())) {
        let cells: Vec<u64> = row
            .iter()
            .map(|(_, o)| o.report().mean_latency_ns)
            .collect();
        let ordering_holds = cells[0] > cells[1] && cells[1] > cells[2];
        let mut row = vec![label.to_string()];
        row.extend(cells.iter().map(|&ns| us(ns)));
        row.push(if ordering_holds { "yes" } else { "NO" }.to_string());
        t.row(row);
    }
    t.note("the paper's ordering must hold in every row; magnitudes legitimately shift with the knobs.");
    vec![t]
}
