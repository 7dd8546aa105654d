//! Run manifests and the results directory.
//!
//! Every bench binary writes `results/manifest/<bench>.json` alongside its
//! figure JSON: what ran (bench id, `git describe`, scale, base seed) and
//! what it measured (one metric section per design/case, including the
//! per-phase lifecycle histograms). Everything upstream is deterministic
//! in virtual time, so two runs of the same tree at the same scale render
//! byte-identical manifests; `scripts/regress.sh` relies on that to diff
//! against committed goldens, ignoring only the `git_describe` line.

use std::path::{Path, PathBuf};
use std::process::Command;

use nbkv_obs::{Json, Registry};
use nbkv_workload::RunReport;

use crate::exp::scale_factor;

/// Base workload seed shared by every harness (per-client seeds derive
/// from it as `BASE_SEED + client_index * 1001`).
pub const BASE_SEED: u64 = 42;

/// Output root for figure JSON and manifests. `NBKV_RESULTS_DIR`
/// overrides the default `results/` — the regression gate runs the
/// benches into a scratch directory and diffs it against the goldens.
pub fn results_dir() -> PathBuf {
    std::env::var("NBKV_RESULTS_DIR")
        .ok()
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Where manifests are written: `<results_dir()>/manifest`.
pub fn manifest_dir() -> PathBuf {
    results_dir().join("manifest")
}

/// Write `text` to `path`, creating its directory; panic with the path and
/// the I/O error if that fails, so a bench run that leaves a figure or
/// manifest unwritten cannot exit 0 (nor `regress.sh --bless` drop a golden).
pub(crate) fn write_or_die(path: &Path, text: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, text));
    if let Err(e) = written {
        panic!("cannot write {}: {e}", path.display());
    }
}

/// `git describe --always --dirty` of the producing tree, or `"unknown"`
/// when git is unavailable. Rendered on its own manifest line so the
/// regression diff can ignore exactly this field.
pub fn git_describe() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One bench invocation's manifest under construction: identification
/// plus one metric section per design/case.
pub struct Manifest {
    /// Bench id (the output filename stem), e.g. `fig1` or `phases`.
    bench: String,
    /// `git describe --always --dirty` of the producing tree.
    git_describe: String,
    /// Experiment scale factor (`NBKV_SCALE`).
    scale: f64,
    /// Base workload seed.
    seed: u64,
    /// Named metric sections in insertion order (one per design/case).
    sections: Vec<(String, Registry)>,
}

impl Manifest {
    /// Manifest for bench `bench` at the ambient `NBKV_SCALE`.
    pub fn new(bench: &str) -> Self {
        Self::new_fixed(bench, scale_factor(), BASE_SEED)
    }

    /// Manifest with an explicit scale/seed, independent of the
    /// environment (the regression benches run at a pinned scale).
    pub fn new_fixed(bench: &str, scale: f64, seed: u64) -> Self {
        Manifest {
            bench: bench.to_string(),
            git_describe: git_describe(),
            scale,
            seed,
            sections: Vec::new(),
        }
    }

    /// The metric section for `label`, created on first use. Sections
    /// keep their insertion order in the rendered JSON.
    pub fn section(&mut self, label: &str) -> &mut Registry {
        if let Some(i) = self.sections.iter().position(|(l, _)| l == label) {
            return &mut self.sections[i].1;
        }
        self.sections.push((label.to_string(), Registry::new()));
        &mut self.sections.last_mut().expect("just pushed").1
    }

    /// Record a workload report into section `label` (counters plus the
    /// per-phase lifecycle histograms), returning the section so callers
    /// can add bench-specific metrics.
    pub fn record_report(&mut self, label: &str, r: &RunReport) -> &mut Registry {
        let reg = self.section(label);
        record_report(reg, r);
        reg
    }

    /// Deterministic JSON. `git_describe` renders on its own line so the
    /// regression diff can ignore exactly that line.
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("bench".into(), Json::Str(self.bench.clone())),
            ("git_describe".into(), Json::Str(self.git_describe.clone())),
            ("scale".into(), Json::F64(self.scale)),
            ("seed".into(), Json::U64(self.seed)),
            (
                "sections".into(),
                Json::Obj(
                    self.sections
                        .iter()
                        .map(|(l, r)| (l.clone(), r.to_json()))
                        .collect(),
                ),
            ),
        ])
    }

    /// Render the canonical manifest text.
    pub fn render(&self) -> String {
        self.to_json().render_pretty()
    }

    /// Write `<manifest_dir()>/<bench>.json`; a failed write panics with
    /// the path and the I/O error.
    pub fn emit(&self) {
        let path = manifest_dir().join(format!("{}.json", self.bench));
        write_or_die(&path, &self.render());
        eprintln!("[manifest] wrote {}", path.display());
    }
}

/// Fill `reg` with everything `r` measured: the figure-level counters
/// (the same numbers the tables format, so figure JSON and manifests
/// cannot disagree) plus the per-phase rollup histograms.
pub fn record_report(reg: &mut Registry, r: &RunReport) {
    reg.set_counter("ops", r.ops as u64);
    reg.set_counter("elapsed_ns", r.elapsed_ns);
    reg.set_counter("mean_latency_ns", r.mean_latency_ns);
    reg.set_counter("p99_latency_ns", r.p99_latency_ns);
    reg.set_counter("hits", r.hits);
    reg.set_counter("misses", r.misses);
    reg.set_counter("ram_hits", r.ram_hits);
    reg.set_counter("ssd_hits", r.ssd_hits);
    reg.set_counter("backend_fetches", r.backend_fetches);
    reg.set_counter("issue_blocked_ns", r.issue_blocked_ns);
    reg.set_counter("wait_blocked_ns", r.wait_blocked_ns);
    reg.set_counter("failed_ops", r.failed_ops);
    reg.set_counter("timed_out_ops", r.timed_out_ops);
    // Integer basis points so the manifest stays exact.
    reg.set_counter("overlap_bp", (r.overlap_pct * 100.0).round() as u64);
    let p = &r.phases;
    reg.set_counter("phase_ops", p.ops);
    reg.set_counter("overlapped_ops", p.overlapped_ops);
    reg.set_counter("eviction_overlap_ppm", p.eviction_overlap_ppm());
    reg.merge_hist("phase_comm_in", &p.comm_in);
    reg.merge_hist("phase_dispatch", &p.dispatch);
    reg.merge_hist("phase_store", &p.store);
    reg.merge_hist("phase_comm_out", &p.comm_out);
    reg.merge_hist("phase_ssd", &p.ssd);
    reg.merge_hist("phase_e2e", &p.e2e);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_keep_insertion_order_and_accumulate() {
        let mut m = Manifest::new_fixed("figx", 0.25, 42);
        m.section("H-RDMA-Opt-NonB-i").inc("ops", 10);
        m.section("IPoIB-Mem").inc("ops", 5);
        m.section("H-RDMA-Opt-NonB-i").inc("ops", 1);
        assert_eq!(m.sections.len(), 2);
        let s = m.render();
        assert!(s.find("H-RDMA-Opt-NonB-i").unwrap() < s.find("IPoIB-Mem").unwrap());
        assert!(s.contains("\"ops\": 11"));
    }

    #[test]
    fn git_describe_renders_on_its_own_line() {
        let m = Manifest {
            git_describe: "abc1234-dirty".to_string(),
            ..Manifest::new_fixed("figx", 1.0, 7)
        };
        let line = m
            .render()
            .lines()
            .find(|l| l.contains("git_describe"))
            .expect("git_describe line")
            .to_string();
        assert_eq!(line.trim(), "\"git_describe\": \"abc1234-dirty\",");
    }

    #[test]
    fn rendering_is_byte_deterministic() {
        let build = || {
            let mut m = Manifest::new_fixed("d", 0.25, 42);
            let r = m.section("case");
            r.inc("a", 1);
            r.observe("lat", 999);
            m.render()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn write_or_die_creates_dirs_and_fails_loudly() {
        let dir = std::env::temp_dir().join("nbkv-bench-write-or-die");
        let _ = std::fs::remove_dir_all(&dir);
        let file = dir.join("manifest").join("x.json");
        write_or_die(&file, "{}");
        assert_eq!(std::fs::read_to_string(&file).unwrap(), "{}");
        // `x.json` is a regular file, so nothing can be written under it.
        let panic = std::panic::catch_unwind(|| write_or_die(&file.join("y.json"), "{}"));
        let msg = *panic.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("x.json/y.json: "), "{msg}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_report_carries_figure_counters_and_phases() {
        let mut r = RunReport {
            ops: 10,
            elapsed_ns: 1_000,
            mean_latency_ns: 100,
            p99_latency_ns: 200,
            breakdown: Default::default(),
            hits: 7,
            misses: 3,
            ram_hits: 5,
            ssd_hits: 2,
            backend_fetches: 3,
            issue_blocked_ns: 900,
            wait_blocked_ns: 0,
            overlap_pct: 10.0,
            failed_ops: 0,
            timed_out_ops: 0,
            phases: Default::default(),
        };
        r.phases.record(&nbkv_obs::ReqTimeline {
            issued_ns: 0,
            nic_out_ns: 1,
            server_recv_ns: 2,
            comm_done_ns: 3,
            store_done_ns: 4,
            completed_ns: 5,
            ssd_ns: 1,
            overlapped_flush: true,
        });
        let mut reg = Registry::new();
        record_report(&mut reg, &r);
        assert_eq!(reg.counter("hits"), 7);
        assert_eq!(reg.counter("ssd_hits"), 2);
        assert_eq!(reg.counter("overlap_bp"), 1_000);
        assert_eq!(reg.counter("eviction_overlap_ppm"), 1_000_000);
        assert_eq!(reg.hist("phase_e2e").unwrap().count(), 1);
    }

    #[test]
    fn results_dir_honours_env_override() {
        // Serialized by cargo running tests in one process per crate is
        // not guaranteed, so use a unique var value and restore.
        let old = std::env::var("NBKV_RESULTS_DIR").ok();
        std::env::set_var("NBKV_RESULTS_DIR", "/tmp/nbkv-results-test");
        assert_eq!(results_dir(), PathBuf::from("/tmp/nbkv-results-test"));
        assert_eq!(
            manifest_dir(),
            PathBuf::from("/tmp/nbkv-results-test/manifest")
        );
        match old {
            Some(v) => std::env::set_var("NBKV_RESULTS_DIR", v),
            None => std::env::remove_var("NBKV_RESULTS_DIR"),
        }
    }
}
