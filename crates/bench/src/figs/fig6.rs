//! Figure 6 — Set/Get latency breakdown including the proposed designs
//! (the headline result: up to 10-16x over H-RDMA-Def when data does not
//! fit, near-RDMA-Mem latency otherwise).

use nbkv_core::designs::Design;

use crate::figs::fig2::STAGE_NOTE;
use crate::figs::{by_design, fit_panels};
use crate::runner::{Case, Done, Figure};
use crate::table::{ratio, us, us_f, Table};

/// Both panels; the pre-existing designs' cases are Figure 1's.
pub const FIGURE: Figure = Figure(cases, render);

fn cases() -> Vec<Case> {
    fit_panels(["fig6a", "fig6b"], &Design::ALL)
}

fn render(res: &[Done]) -> Vec<Table> {
    let (fit, spill) = res.split_at(Design::ALL.len());
    vec![
        panel("fig6a", "All designs, data fits in memory", true, fit),
        panel("fig6b", "All designs, data does NOT fit", false, spill),
    ]
}

fn panel(id: &str, title: &str, fits: bool, res: &[Done]) -> Table {
    let mut t = Table::new(
        id,
        title,
        &[
            "design",
            "avg latency (us)",
            "slab alloc",
            "check+load",
            "cache update",
            "server resp",
            "client wait",
            "miss penalty",
        ],
    );
    for (design, (_, o)) in Design::ALL.iter().zip(res) {
        let r = o.report();
        let b = r.breakdown;
        t.row(vec![
            design.label().to_string(),
            us(r.mean_latency_ns),
            us_f(b.slab_alloc_ns),
            us_f(b.check_load_ns),
            us_f(b.cache_update_ns),
            us_f(b.response_ns),
            us_f(b.client_wait_ns),
            us_f(b.miss_penalty_ns),
        ]);
    }
    let by = by_design(&Design::ALL, res, |o| o.report().mean_latency_ns as f64);
    if fits {
        t.note(format!(
            "paper Fig 6(a): NonB-i/b reach in-memory RDMA speed; measured NonB-i vs RDMA-Mem = {} (>=1x means as fast or faster)",
            ratio(by(Design::RdmaMem), by(Design::HRdmaOptNonBI))
        ));
        t.note(format!(
            "paper: up to 3.6x over IPoIB-Mem when data fits; measured IPoIB/NonB-i = {}",
            ratio(by(Design::IpoibMem), by(Design::HRdmaOptNonBI))
        ));
    } else {
        t.note(format!(
            "paper Fig 6(b): Opt-Block ~2x over Def (adaptive I/O); measured Def/Opt-Block = {}",
            ratio(by(Design::HRdmaDef), by(Design::HRdmaOptBlock))
        ));
        t.note(format!(
            "paper: NonB-i/b 10-16x over Def; measured Def/NonB-i = {}, Def/NonB-b = {}",
            ratio(by(Design::HRdmaDef), by(Design::HRdmaOptNonBI)),
            ratio(by(Design::HRdmaDef), by(Design::HRdmaOptNonBB))
        ));
        t.note(format!(
            "paper: NonB 3.3-8x over Opt-Block; measured Opt-Block/NonB-i = {}",
            ratio(by(Design::HRdmaOptBlock), by(Design::HRdmaOptNonBI))
        ));
    }
    t.note(STAGE_NOTE);
    t
}
