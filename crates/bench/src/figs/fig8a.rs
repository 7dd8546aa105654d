//! Figure 8(a) — hybrid designs on NVMe vs SATA SSDs, read-only and
//! write-heavy mixes (single client/server, data larger than memory).

use nbkv_core::designs::Design;
use nbkv_storesim::{nvme_p3700, sata_ssd};
use nbkv_workload::OpMix;

use crate::figs::single;
use crate::runner::{Case, Done, Figure};
use crate::table::{us, Table};

const DESIGNS: [Design; 4] = [
    Design::HRdmaDef,
    Design::HRdmaOptBlock,
    Design::HRdmaOptNonBB,
    Design::HRdmaOptNonBI,
];

/// Per design, one case per (device, mix) cell, in column order.
pub const FIGURE: Figure = Figure(cases, render);

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for design in DESIGNS {
        for (dev_label, device) in [("sata", sata_ssd()), ("nvme", nvme_p3700())] {
            for (mix_label, mix) in [("ro", OpMix::READ_ONLY), ("wh", OpMix::WRITE_HEAVY)] {
                let mut exp = single(design, false);
                exp.cluster.device = device;
                exp.mix = mix;
                let label = format!("fig8a/{dev_label}/{mix_label}/{}", design.label());
                cases.push(Case::latency(label, exp));
            }
        }
    }
    cases
}

fn render(res: &[Done]) -> Vec<Table> {
    let mut t = Table::new(
        "fig8a",
        "Avg Set/Get latency (us): SATA vs NVMe SSD, read-only and write-heavy",
        &[
            "design",
            "SATA read-only",
            "SATA write-heavy",
            "NVMe read-only",
            "NVMe write-heavy",
        ],
    );
    let cells: Vec<[u64; 4]> = res
        .chunks(4)
        .map(|row| [0, 1, 2, 3].map(|i| row[i].1.report().mean_latency_ns))
        .collect();
    for (design, row) in DESIGNS.iter().zip(&cells) {
        let mut cols = vec![design.label().to_string()];
        cols.extend(row.map(us));
        t.row(cols);
    }
    // Write-heavy improvement from `from` to `to` on a device (column 1 is
    // SATA's write-heavy cell, column 3 NVMe's).
    let imp = |col: usize, from: Design, to: Design| -> f64 {
        let at = |d: Design| cells[DESIGNS.iter().position(|&x| x == d).expect("ran")][col];
        100.0 * (1.0 - at(to) as f64 / at(from) as f64)
    };
    t.note(format!(
        "paper: Opt-Block improves 54-83% over Def; measured (write-heavy) SATA {:.0}%, NVMe {:.0}%",
        imp(1, Design::HRdmaDef, Design::HRdmaOptBlock),
        imp(3, Design::HRdmaDef, Design::HRdmaOptBlock),
    ));
    t.note(format!(
        "paper: NonB-b/i improve 48-80% over Opt-Block, larger gains on SATA than NVMe; measured (write-heavy) SATA {:.0}%, NVMe {:.0}%",
        imp(1, Design::HRdmaOptBlock, Design::HRdmaOptNonBI),
        imp(3, Design::HRdmaOptBlock, Design::HRdmaOptNonBI),
    ));
    vec![t]
}
