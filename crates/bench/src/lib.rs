//! # nbkv-bench — figure/table regeneration harness
//!
//! One binary, `nbkv-bench <id>`, regenerates each table/figure of the
//! paper's evaluation (`table1`, `fig1` … `fig8b`, `phases`) and each
//! extension study (`batch`, `onesided`, `replication`, `scaling`,
//! `sensitivity`, `resilience`):
//!
//! ```text
//! cargo run -p nbkv-bench --release -- fig7c
//! cargo run -p nbkv-bench --release -- all       # every entry of figs::ALL
//! cargo run -p nbkv-bench --release -- regress   # the pinned regression sets
//! ```
//!
//! Each id prints the same rows/series the paper reports as markdown,
//! persists JSON under `results/`, attaches the paper's expected shape as
//! notes, and writes a run manifest (`results/manifest/<bench>.json`)
//! with per-section metric rollups and per-phase latency histograms.
//! `explore` is a separate binary for free-form runs from flags.
//!
//! Scale is controlled by `NBKV_SCALE` (1.0 = the paper's sizes; default
//! 0.25 keeps every run quick while preserving all size *ratios*); the
//! output root is controlled by `NBKV_RESULTS_DIR` (default `results/`).

#![warn(missing_docs)]

pub mod exp;
pub mod figs;
pub mod manifest;
pub mod regress;
pub mod runner;
pub mod table;

use manifest::Manifest;
use runner::{Figure, Runner};

/// What one `nbkv-bench` id runs.
pub enum Target {
    /// One entry of [`figs::ALL`] or [`figs::EXTRA`], written under its id.
    Figure(&'static str, Figure),
    /// Every entry of [`figs::ALL`], in order.
    All,
    /// Every case set of [`regress::SETS`], at a fixed scale and seed.
    Regress,
}

/// Every id `nbkv-bench` accepts.
pub fn ids() -> Vec<&'static str> {
    let figures = figs::ALL.iter().chain(&figs::EXTRA).map(|&(id, _)| id);
    ["all"]
        .into_iter()
        .chain(figures)
        .chain(["regress"])
        .collect()
}

/// Look up an id.
pub fn resolve(id: &str) -> Option<Target> {
    match id {
        "all" => Some(Target::All),
        "regress" => Some(Target::Regress),
        _ => figs::ALL
            .iter()
            .chain(&figs::EXTRA)
            .find(|&&(name, _)| name == id)
            .map(|&(name, fig)| Target::Figure(name, fig)),
    }
}

/// Parse `nbkv-bench`'s arguments (program name excluded): exactly one
/// known id. The error names the problem and lists the valid ids.
pub fn parse_args(args: &[String]) -> Result<Target, String> {
    let problem = match args {
        [id] => match resolve(id) {
            Some(target) => return Ok(target),
            None => format!("unknown id `{id}`"),
        },
        [] => "missing id".to_string(),
        _ => format!("expected one id, got {}", args.len()),
    };
    Err(format!(
        "{problem}\nusage: nbkv-bench <id>\nids: {}",
        ids().join(" ")
    ))
}

impl Target {
    /// Print every table, and write the figure JSON and run manifest(s).
    /// One [`Runner`] serves the whole invocation, so a case that several
    /// figures declare runs once.
    pub fn run(self) {
        let mut runner = Runner::default();
        match self {
            Target::Figure(id, fig) => {
                figs::banner(id);
                emit(&mut runner, Manifest::new(id), fig);
            }
            Target::All => {
                figs::banner("all");
                for (id, fig) in figs::ALL {
                    eprintln!("[all] running {id} ...");
                    emit(&mut runner, Manifest::new(id), fig);
                }
            }
            Target::Regress => {
                for (id, fig) in regress::SETS {
                    figs::banner(id);
                    emit(&mut runner, Manifest::new_fixed(id, 1.0, 42), fig);
                }
            }
        }
    }
}

fn emit(runner: &mut Runner, mut m: Manifest, fig: Figure) {
    for t in runner.figure(fig, &mut m) {
        t.emit();
    }
    m.emit();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn ids_are_unique_and_resolve() {
        let ids = ids();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len(), "duplicate id in {ids:?}");
        for id in &ids {
            assert!(resolve(id).is_some(), "{id} does not resolve");
        }
        assert_eq!(ids.len(), 1 + 14 + 3 + 1);
    }

    #[test]
    fn all_runs_the_paper_figures_in_order() {
        let order: Vec<&str> = figs::ALL.iter().map(|&(id, _)| id).collect();
        assert_eq!(
            order.join(" "),
            "table1 fig1 fig2 fig4 fig6 fig7a fig7b fig7c fig8a fig8b \
             phases batch onesided replication"
        );
        for (id, _) in figs::EXTRA {
            assert!(!order.contains(&id), "`all` must not run {id}");
        }
        let sets: Vec<&str> = regress::SETS.iter().map(|&(id, _)| id).collect();
        assert_eq!(
            sets.join(" "),
            "regress regress_onesided regress_replication"
        );
    }

    #[test]
    fn parse_args_accepts_one_known_id() {
        assert!(matches!(
            parse_args(&args(&["fig7c"])),
            Ok(Target::Figure("fig7c", _))
        ));
        assert!(matches!(
            parse_args(&args(&["resilience"])),
            Ok(Target::Figure("resilience", _))
        ));
        assert!(matches!(parse_args(&args(&["all"])), Ok(Target::All)));
        assert!(matches!(
            parse_args(&args(&["regress"])),
            Ok(Target::Regress)
        ));
    }

    #[test]
    fn parse_args_rejects_bad_input_and_lists_ids() {
        for bad in [&["fig9"][..], &[], &["fig1", "fig2"], &["FIG1"]] {
            let err = match parse_args(&args(bad)) {
                Err(e) => e,
                Ok(_) => panic!("{bad:?} must be rejected"),
            };
            assert!(err.contains("usage: nbkv-bench <id>"), "{err}");
            for id in ids() {
                assert!(err.contains(id), "error must list {id}: {err}");
            }
        }
        let err = parse_args(&args(&["fig9"])).err().unwrap();
        assert!(err.starts_with("unknown id `fig9`"), "{err}");
    }
}
