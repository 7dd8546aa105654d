//! One module per table/figure of the paper's evaluation, plus the
//! extension studies (`scaling`, `sensitivity`, `resilience`).
//!
//! Each module's `FIGURE` declares its cases and renders
//! [`crate::table::Table`]s that print the same rows or series the paper
//! reports, at the scale chosen by `NBKV_SCALE` (see
//! [`crate::exp::scale_factor`]); [`crate::runner::Runner`] runs the cases.
//! Expected shapes from the paper are attached as table notes so a reader
//! can eyeball paper-vs-measured.

pub mod batch;
pub mod fig1;
pub mod fig2;
pub mod fig4;
pub mod fig6;
pub mod fig7a;
pub mod fig7b;
pub mod fig7c;
pub mod fig8a;
pub mod fig8b;
pub mod onesided;
pub mod phases;
pub mod replication;
pub mod resilience;
pub mod scaling;
pub mod sensitivity;
pub mod table1;

use nbkv_core::designs::Design;

use crate::exp::{scale_factor, scaled_bytes, LatencyExp};
use crate::runner::{Case, Done, Figure, Outcome};

/// The paper's tables and figures and the extension comparisons, in the
/// order `nbkv-bench all` runs them.
pub const ALL: [(&str, Figure); 14] = [
    ("table1", table1::FIGURE),
    ("fig1", fig1::FIGURE),
    ("fig2", fig2::FIGURE),
    ("fig4", fig4::FIGURE),
    ("fig6", fig6::FIGURE),
    ("fig7a", fig7a::FIGURE),
    ("fig7b", fig7b::FIGURE),
    ("fig7c", fig7c::FIGURE),
    ("fig8a", fig8a::FIGURE),
    ("fig8b", fig8b::FIGURE),
    ("phases", phases::FIGURE),
    ("batch", batch::FIGURE),
    ("onesided", onesided::FIGURE),
    ("replication", replication::FIGURE),
];

/// Studies run only by name (`all` leaves them out).
pub const EXTRA: [(&str, Figure); 3] = [
    ("scaling", scaling::FIGURE),
    ("sensitivity", sensitivity::FIGURE),
    ("resilience", resilience::FIGURE),
];

/// Print the standard harness banner.
pub fn banner(id: &str) {
    println!(
        "# nbkv reproduction harness — {id} (scale {:.2}, set NBKV_SCALE=1 for paper scale)\n",
        scale_factor()
    );
}

/// The paper's single-server shape (Figs 1, 2, 6, 7a, 7b, 8a, `phases`,
/// `sensitivity`): one client, 32 KiB values, 1 GB of server memory
/// (scaled). When the data `fits`, 1 GB is preloaded with memory to spare
/// (1.5 GB); otherwise 1.5 GB of data goes into 1 GB of memory.
pub fn single(design: Design, fits: bool) -> LatencyExp {
    let mem = scaled_bytes(1 << 30);
    let (mem_bytes, data_bytes) = if fits {
        (mem + mem / 2, mem)
    } else {
        (mem, mem + mem / 2)
    };
    LatencyExp::single(design, mem_bytes, data_bytes)
}

/// The two panels of Figs 1, 2 and 6: every design with data that fits
/// in memory (panel `ids[0]`), then with data that does not (`ids[1]`),
/// labelled `<panel>/<design>`.
pub fn fit_panels(ids: [&str; 2], designs: &[Design]) -> Vec<Case> {
    ids.into_iter()
        .zip([true, false])
        .flat_map(|(id, fits)| {
            designs
                .iter()
                .map(move |&d| Case::latency(format!("{id}/{}", d.label()), single(d, fits)))
        })
        .collect()
}

/// A metric of each design's outcome, looked up by design (for the notes
/// that compare designs).
pub fn by_design(
    designs: &[Design],
    res: &[Done],
    metric: impl Fn(&Outcome) -> f64,
) -> impl Fn(Design) -> f64 {
    let v: Vec<(Design, f64)> = designs
        .iter()
        .zip(res)
        .map(|(&d, (_, o))| (d, metric(o)))
        .collect();
    move |d| v.iter().find(|(x, _)| *x == d).expect("ran").1
}
