//! Figure 7(a) — overlap percentage available to the application under
//! blocking and non-blocking APIs, for read-only and write-heavy mixes.

use nbkv_core::designs::Design;
use nbkv_workload::OpMix;

use crate::figs::single;
use crate::runner::{Case, Done, Figure};
use crate::table::Table;

const APIS: [(&str, Design); 3] = [
    ("RDMA-Block", Design::HRdmaOptBlock),
    ("RDMA-NonB-i (iset/iget)", Design::HRdmaOptNonBI),
    ("RDMA-NonB-b (bset/bget)", Design::HRdmaOptNonBB),
];

/// Each API's read-only and write-heavy case (hybrid server, data > memory).
pub const FIGURE: Figure = Figure(cases, render);

fn cases() -> Vec<Case> {
    let mixes = [
        ("read-only", OpMix::READ_ONLY),
        ("write-heavy", OpMix::WRITE_HEAVY),
    ];
    let mut cases = Vec::new();
    for (_, design) in APIS {
        for (mix_label, mix) in mixes {
            let mut exp = single(design, false);
            exp.mix = mix;
            cases.push(Case::latency(
                format!("fig7a/{}/{mix_label}", design.label()),
                exp,
            ));
        }
    }
    cases
}

fn render(res: &[Done]) -> Vec<Table> {
    let mut t = Table::new(
        "fig7a",
        "Overlap% available with different workload patterns (32 KiB kv, hybrid server)",
        &["API", "read-only overlap %", "write-heavy overlap %"],
    );
    for ((label, _), pair) in APIS.iter().zip(res.chunks(2)) {
        let overlap = |i: usize| format!("{:.1}", pair[i].1.report().overlap_pct);
        t.row(vec![label.to_string(), overlap(0), overlap(1)]);
    }
    t.note("paper Fig 7(a): NonB-i up to 92% for both mixes; NonB-b up to 89% read-only but <12% write-heavy (bset blocks for buffer reuse); blocking offers no overlap.");
    vec![t]
}
