//! Figure 2 — six-stage time-wise breakdown of Set/Get latency for the
//! pre-existing designs (the bottleneck analysis of Section III). The
//! cases are Figure 1's, so `all` runs them once.

use crate::figs::fig1::DESIGNS;
use crate::figs::fit_panels;
use crate::runner::{Case, Done, Figure};
use crate::table::{us_f, Table};

/// Both panels.
pub const FIGURE: Figure = Figure(cases, render);

/// How the measured stages are read, noted under each panel of Figs 2
/// and 6.
pub const STAGE_NOTE: &str = "server resp = mean measured comm-out phase of the blocking ops (server store done to client completion); client wait = the rest of each op's latency outside the other stages.";

fn cases() -> Vec<Case> {
    fit_panels(["fig2a", "fig2b"], &DESIGNS)
}

fn render(res: &[Done]) -> Vec<Table> {
    let (fit, spill) = res.split_at(DESIGNS.len());
    vec![
        panel("fig2a", "Stage breakdown, data fits in memory", true, fit),
        panel("fig2b", "Stage breakdown, data does NOT fit", false, spill),
    ]
}

fn panel(id: &str, title: &str, fits: bool, res: &[Done]) -> Table {
    let mut t = Table::new(
        id,
        title,
        &[
            "design",
            "slab alloc (us)",
            "check+load (us)",
            "cache update (us)",
            "server resp (us)",
            "client wait (us)",
            "miss penalty (us)",
            "total (us)",
        ],
    );
    for (design, (_, o)) in DESIGNS.iter().zip(res) {
        let b = o.report().breakdown;
        t.row(vec![
            design.label().to_string(),
            us_f(b.slab_alloc_ns),
            us_f(b.check_load_ns),
            us_f(b.cache_update_ns),
            us_f(b.response_ns),
            us_f(b.client_wait_ns),
            us_f(b.miss_penalty_ns),
            us_f(b.total_ns()),
        ]);
    }
    if fits {
        t.note("paper Fig 2(a): network dominates when data fits — client wait + server response are the big stages.");
    } else {
        t.note("paper Fig 2(b): miss penalty dominates the in-memory designs; SSD I/O (slab alloc + check/load) dominates H-RDMA-Def.");
    }
    t.note(STAGE_NOTE);
    t
}
