//! Run manifests: the machine-readable record of one bench invocation.
//!
//! Every bench binary writes `results/manifest/<bench>.json` alongside its
//! figure JSON: what ran (bench id, git describe, scale, seed) and what it
//! measured (one [`Registry`] section per design/case). Because everything
//! upstream is deterministic in virtual time, two runs of the same commit
//! at the same scale produce byte-identical manifests — `scripts/regress.sh`
//! diffs them against committed goldens (ignoring only the `git_describe`
//! line, which legitimately changes across commits).

use crate::json::Json;
use crate::metrics::Registry;

/// A bench run's manifest: identification plus per-section metric rollups.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// Bench id (the output filename stem), e.g. `fig1` or `phases`.
    pub bench: String,
    /// `git describe --always --dirty` of the producing tree.
    pub git_describe: String,
    /// Experiment scale factor (`NBKV_SCALE`).
    pub scale: f64,
    /// Base workload seed.
    pub seed: u64,
    /// Named metric sections in insertion order (one per design/case).
    pub sections: Vec<(String, Registry)>,
}

impl RunManifest {
    /// New manifest for bench `bench`.
    pub fn new(bench: &str, git_describe: &str, scale: f64, seed: u64) -> Self {
        RunManifest {
            bench: bench.to_string(),
            git_describe: git_describe.to_string(),
            scale,
            seed,
            sections: Vec::new(),
        }
    }

    /// The registry for section `label`, created on first use. Sections
    /// keep their insertion order in the rendered JSON.
    pub fn section(&mut self, label: &str) -> &mut Registry {
        if let Some(i) = self.sections.iter().position(|(l, _)| l == label) {
            return &mut self.sections[i].1;
        }
        self.sections.push((label.to_string(), Registry::new()));
        &mut self.sections.last_mut().expect("just pushed").1
    }

    /// Deterministic JSON. `git_describe` renders on its own line so the
    /// regression diff can ignore exactly that line.
    pub fn to_json(&self) -> Json {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_keep_insertion_order_and_accumulate() {
        let mut m = RunManifest::new("figx", "v0-test", 0.25, 42);
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
        let m = RunManifest::new("figx", "abc1234-dirty", 1.0, 7);
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
            let mut m = RunManifest::new("d", "g", 0.25, 42);
            let r = m.section("case");
            r.inc("a", 1);
            r.observe("lat", 999);
            m.render()
        };
        assert_eq!(build(), build());
    }
}
