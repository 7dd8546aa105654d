//! Figure 7(b) — latency with varying key-value pair sizes (hybrid
//! server, data larger than memory).

use nbkv_core::designs::Design;

use crate::figs::single;
use crate::runner::{Case, Done, Figure};
use crate::table::{us, Table};

const DESIGNS: [Design; 4] = [
    Design::HRdmaDef,
    Design::HRdmaOptBlock,
    Design::HRdmaOptNonBB,
    Design::HRdmaOptNonBI,
];

const SIZES: [(&str, usize); 4] = [
    ("4 KiB", 4 << 10),
    ("16 KiB", 16 << 10),
    ("64 KiB", 64 << 10),
    ("128 KiB", 128 << 10),
];

/// One case per (value size, design) cell.
pub const FIGURE: Figure = Figure(cases, render);

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for (label, len) in SIZES {
        for d in DESIGNS {
            let mut exp = single(d, false);
            exp.value_len = len;
            cases.push(Case::latency(format!("fig7b/{label}/{}", d.label()), exp));
        }
    }
    cases
}

fn render(res: &[Done]) -> Vec<Table> {
    let mut t = Table::new(
        "fig7b",
        "Avg Set/Get latency (us) vs key-value size, data does NOT fit",
        &[
            "kv size",
            "H-RDMA-Def",
            "H-RDMA-Opt-Block",
            "NonB-b",
            "NonB-i",
            "NonB-i gain vs Opt-Block %",
        ],
    );
    for ((label, _), row) in SIZES.iter().zip(res.chunks(DESIGNS.len())) {
        let cells: Vec<u64> = row
            .iter()
            .map(|(_, o)| o.report().mean_latency_ns)
            .collect();
        let gain = 100.0 * (1.0 - cells[3] as f64 / cells[1].max(1) as f64);
        let mut row = vec![label.to_string()];
        row.extend(cells.iter().map(|&ns| us(ns)));
        row.push(format!("{gain:.0}"));
        t.row(row);
    }
    t.note("paper Fig 7(b): NonB-i/b improve 65-89% over the blocking designs across sizes.");
    vec![t]
}
