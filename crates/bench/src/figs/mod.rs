//! One module per table/figure of the paper's evaluation, plus the
//! extension studies (`scaling`, `sensitivity`, `resilience`).
//!
//! Each `run()` returns [`crate::table::Table`]s that print the same rows
//! or series the paper reports, at the scale chosen by `NBKV_SCALE`
//! (see [`crate::exp::scale_factor`]). Expected shapes from the paper are
//! attached as table notes so a reader can eyeball paper-vs-measured.

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

use crate::exp::scale_factor;
use crate::manifest::Manifest;
use crate::table::Table;

/// A harness entry point: records into the manifest, returns the tables
/// to print.
pub type Figure = fn(&mut Manifest) -> Vec<Table>;

/// The paper's tables and figures and the extension comparisons, in the
/// order `nbkv-bench all` runs them.
pub const ALL: [(&str, Figure); 14] = [
    ("table1", table1::run),
    ("fig1", fig1::run),
    ("fig2", fig2::run),
    ("fig4", fig4::run),
    ("fig6", fig6::run),
    ("fig7a", fig7a::run),
    ("fig7b", fig7b::run),
    ("fig7c", fig7c::run),
    ("fig8a", fig8a::run),
    ("fig8b", fig8b::run),
    ("phases", phases::run),
    ("batch", batch::run),
    ("onesided", onesided::run),
    ("replication", replication::run),
];

/// Studies run only by name (`all` leaves them out).
pub const EXTRA: [(&str, Figure); 3] = [
    ("scaling", scaling::run),
    ("sensitivity", sensitivity::run),
    ("resilience", resilience::run),
];

/// Print the standard harness banner.
pub fn banner(id: &str) {
    println!(
        "# nbkv reproduction harness — {id} (scale {:.2}, set NBKV_SCALE=1 for paper scale)\n",
        scale_factor()
    );
}
