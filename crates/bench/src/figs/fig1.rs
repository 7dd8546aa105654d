//! Figure 1 — overall Set/Get latency of the pre-existing designs, with
//! data fitting (a) and not fitting (b) in memory.
//!
//! Paper setup: one server, one client, 32 KiB key-value pairs, Zipf
//! requests; (a) 1 GB preload with sufficient memory, (b) 1.5 GB preload
//! into 1 GB of memory with a < 2 ms backend miss penalty.

use nbkv_core::designs::Design;

use crate::figs::{by_design, fit_panels};
use crate::runner::{Case, Done, Figure};
use crate::table::{ratio, us, us_f, Table};

/// The pre-existing designs both panels compare (Fig 2 breaks them down).
pub const DESIGNS: [Design; 3] = [Design::IpoibMem, Design::RdmaMem, Design::HRdmaDef];

/// Both panels.
pub const FIGURE: Figure = Figure(cases, render);

fn cases() -> Vec<Case> {
    fit_panels(["fig1a", "fig1b"], &DESIGNS)
}

fn render(res: &[Done]) -> Vec<Table> {
    let (fit, spill) = res.split_at(DESIGNS.len());
    vec![
        panel("fig1a", "Set/Get latency, data fits in memory", true, fit),
        panel(
            "fig1b",
            "Set/Get latency, data does NOT fit (2 ms miss penalty)",
            false,
            spill,
        ),
    ]
}

fn panel(id: &str, title: &str, fits: bool, res: &[Done]) -> Table {
    let mut t = Table::new(
        id,
        title,
        &[
            "design",
            "avg latency (us)",
            "p99 (us)",
            "miss %",
            "ssd-hit %",
            "miss-penalty share (us)",
        ],
    );
    for (design, (_, o)) in DESIGNS.iter().zip(res) {
        // The table cells derive from the manifest section, not the raw
        // report, so figure JSON and manifest cannot disagree.
        let reg = &o.section;
        let gets = (reg.counter("hits") + reg.counter("misses")).max(1) as f64;
        let pct = |name| format!("{:.1}", 100.0 * reg.counter(name) as f64 / gets);
        t.row(vec![
            design.label().to_string(),
            us(reg.counter("mean_latency_ns")),
            us(reg.counter("p99_latency_ns")),
            pct("misses"),
            pct("ssd_hits"),
            us_f(o.report().breakdown.miss_penalty_ns),
        ]);
    }
    let by = by_design(&DESIGNS, res, |o| {
        o.section.counter("mean_latency_ns") as f64
    });
    if fits {
        t.note(format!(
            "paper Fig 1(a): RDMA designs beat IPoIB-Mem when data fits; measured IPoIB/RDMA-Mem = {}",
            ratio(by(Design::IpoibMem), by(Design::RdmaMem))
        ));
        t.note(format!(
            "H-RDMA-Def ~= RDMA-Mem when data fits; measured Def/RDMA-Mem = {}",
            ratio(by(Design::HRdmaDef), by(Design::RdmaMem))
        ));
    } else {
        t.note(format!(
            "paper Fig 1(b): hybrid H-RDMA-Def beats the in-memory designs under miss penalty; measured RDMA-Mem/Def = {}",
            ratio(by(Design::RdmaMem), by(Design::HRdmaDef))
        ));
    }
    t
}
