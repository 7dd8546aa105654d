//! The one case runner. A [`Figure`] declares its [`Case`]s and a render
//! function; [`Runner`] runs the cases and records each one's manifest
//! section the same way (the report's counters and phase histograms, the
//! registry of the cluster the case built, the case's own counters). Each
//! distinct [`LatencyExp`] runs once per runner, keyed by its `Debug` form,
//! so `all` runs the cases Figs 1, 2, 6, 7a, 8a and `phases` share once.
//! Render functions get the outcomes in declaration order and run nothing.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use nbkv_obs::Registry;
use nbkv_workload::RunReport;

use crate::exp::LatencyExp;
use crate::manifest::{record_report, Manifest};
use crate::table::Table;

/// What one case measured.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The workload report, for cases that ran one.
    pub report: Option<RunReport>,
    /// The case's manifest section.
    pub section: Registry,
}

impl Outcome {
    /// The workload report; panics for a case that ran none.
    pub fn report(&self) -> &RunReport {
        self.report.as_ref().expect("this case ran no workload")
    }
}

/// A case's result before the runner records it: the workload report, if
/// any, and the cluster registry plus the case's own counters.
pub type Measured = (Option<RunReport>, Registry);

/// One labelled case; the label names its manifest section and must be
/// unique within its figure.
pub struct Case {
    label: String,
    /// A [`LatencyExp`]'s `Debug` form: the memo key.
    key: Option<String>,
    run: Box<dyn FnOnce() -> Measured>,
}

impl Case {
    /// A preloaded-and-measured cluster ([`LatencyExp::run`]).
    pub fn latency(label: impl Into<String>, exp: LatencyExp) -> Self {
        Case {
            label: label.into(),
            key: Some(format!("{exp:?}")),
            run: Box::new(move || {
                let (report, section) = exp.run();
                (Some(report), section)
            }),
        }
    }

    /// A case that builds its own simulation, through
    /// [`on_cluster`](crate::exp::on_cluster) when it builds a cluster.
    pub fn own(label: impl Into<String>, run: impl FnOnce() -> Measured + 'static) -> Self {
        Case {
            label: label.into(),
            key: None,
            run: Box::new(run),
        }
    }
}

/// A case's label and outcome, as render functions get them.
pub type Done = (String, Rc<Outcome>);

/// A table or figure: its cases, in the order their sections appear in
/// the manifest, and the function that builds its tables from their
/// outcomes (and runs nothing).
#[derive(Clone, Copy)]
pub struct Figure(pub fn() -> Vec<Case>, pub fn(&[Done]) -> Vec<Table>);

/// Runs cases, each distinct [`LatencyExp`] once.
#[derive(Default)]
pub struct Runner {
    memo: HashMap<String, Rc<Outcome>>,
}

impl Runner {
    /// Run `cases`, in declaration order. Panics, before running anything,
    /// on a repeated label.
    pub fn run(&mut self, cases: Vec<Case>) -> Vec<Done> {
        let mut labels = HashSet::new();
        for c in &cases {
            assert!(
                labels.insert(&c.label),
                "duplicate case label `{}`",
                c.label
            );
        }
        let mut done = Vec::new();
        for Case { label, key, run } in cases {
            let memo = key.as_ref().and_then(|k| self.memo.get(k)).cloned();
            let outcome = memo.unwrap_or_else(|| {
                let (report, mut section) = run();
                if let Some(r) = &report {
                    record_report(&mut section, r);
                }
                let o = Rc::new(Outcome { report, section });
                if let Some(k) = key {
                    self.memo.insert(k, Rc::clone(&o));
                }
                o
            });
            done.push((label, outcome));
        }
        done
    }

    /// Run `fig`'s cases, add each one's section to `m`, and render.
    pub fn figure(&mut self, fig: Figure, m: &mut Manifest) -> Vec<Table> {
        let Figure(cases, render) = fig;
        let done = self.run(cases());
        for (label, o) in &done {
            m.push(label, o.section.clone());
        }
        render(&done)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counting(label: &str, n: u64) -> Case {
        Case::own(label, move || {
            let mut section = Registry::new();
            section.set_counter("n", n);
            (None, section)
        })
    }

    #[test]
    fn results_come_back_in_declaration_order() {
        let mut runner = Runner::default();
        let done = runner.run((0..5).map(|i| counting(&format!("c{i}"), i)).collect());
        for (i, (label, o)) in done.iter().enumerate() {
            assert_eq!(label, &format!("c{i}"));
            assert_eq!(o.section.counter("n"), i as u64);
        }
    }

    #[test]
    #[should_panic(expected = "duplicate case label `twice`")]
    fn a_repeated_label_panics() {
        Runner::default().run(vec![
            counting("twice", 1),
            counting("once", 2),
            counting("twice", 3),
        ]);
    }

    #[test]
    fn figure_writes_one_section_per_case() {
        let fig = Figure(
            || vec![counting("a", 1), counting("b", 2)],
            |res| {
                let mut t = Table::new("t", "t", &["n"]);
                for (_, o) in res {
                    t.row(vec![o.section.counter("n").to_string()]);
                }
                vec![t]
            },
        );
        let mut m = Manifest::new_fixed("runner-test", 1.0, 42);
        let tables = Runner::default().figure(fig, &mut m);
        assert_eq!(tables[0].rows, vec![vec!["1"], vec!["2"]]);
        let json = m.render();
        assert!(json.find("\"a\"").unwrap() < json.find("\"b\"").unwrap());
        assert!(json.contains("\"n\": 2"));
    }
}
