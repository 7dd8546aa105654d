//! Result tables: markdown printing and JSON export.

use std::fmt::Write as _;

use nbkv_obs::Json;

/// A printable/serializable experiment result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id, e.g. "fig6b".
    pub id: String,
    /// Human title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
    /// Free-form notes (expected paper shape, scale used, ...).
    pub notes: Vec<String>,
}

impl Table {
    /// New empty table.
    pub fn new(id: &str, title: &str, headers: &[&str]) -> Self {
        Table {
            id: id.to_string(),
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Render as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "## {} — {}\n", self.id, self.title);
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: &[String]| -> String {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers));
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "| {} |", dashes.join(" | "));
        for r in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(r));
        }
        for n in &self.notes {
            let _ = writeln!(out, "\n> {n}");
        }
        out
    }

    /// The JSON form every figure file and `regress_*` golden holds:
    /// pretty-printed, without a trailing newline.
    fn render_json(&self) -> String {
        let strs = |v: &[String]| Json::Arr(v.iter().cloned().map(Json::Str).collect());
        let rows = Json::Arr(self.rows.iter().map(|r| strs(r)).collect());
        let json = Json::Obj(vec![
            ("id".into(), Json::Str(self.id.clone())),
            ("title".into(), Json::Str(self.title.clone())),
            ("headers".into(), strs(&self.headers)),
            ("rows".into(), rows),
            ("notes".into(), strs(&self.notes)),
        ]);
        let mut text = json.render_pretty();
        text.pop();
        text
    }

    /// Print to stdout and persist JSON under
    /// [`results_dir`](crate::manifest::results_dir)`/<id>.json`; a failed
    /// write panics with the path and the I/O error.
    pub fn emit(&self) {
        println!("{}", self.to_markdown());
        let path = crate::manifest::results_dir().join(format!("{}.json", self.id));
        crate::manifest::write_or_die(&path, &self.render_json());
    }
}

/// Format nanoseconds as microseconds with two decimals.
pub fn us(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1_000.0)
}

/// Format a float nanosecond quantity as microseconds.
pub fn us_f(ns: f64) -> String {
    format!("{:.2}", ns / 1_000.0)
}

/// Format an improvement ratio.
pub fn ratio(base: f64, improved: f64) -> String {
    if improved <= 0.0 {
        return "inf".to_string();
    }
    format!("{:.1}x", base / improved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_renders_aligned() {
        let mut t = Table::new("figX", "demo", &["design", "latency"]);
        t.row(vec!["RDMA-Mem".into(), "12.5".into()]);
        t.row(vec!["IPoIB".into(), "42".into()]);
        t.note("expected: RDMA wins");
        let md = t.to_markdown();
        assert!(md.contains("| design   | latency |"));
        assert!(md.contains("| RDMA-Mem | 12.5    |"));
        assert!(md.contains("> expected: RDMA wins"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = Table::new("x", "y", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(us(12_345), "12.35");
        assert_eq!(us_f(1_000.0), "1.00");
        assert_eq!(ratio(100.0, 10.0), "10.0x");
    }

    /// Pins the figure JSON bytes for the cases no committed golden
    /// covers: empty notes, escapes and non-ASCII cells.
    #[test]
    fn json_bytes_are_pinned() {
        let mut t = Table::new("pin", "quote \" and \\ — ✔", &["design", "mark"]);
        t.row(vec!["say \"hi\"".into(), "C:\\dir".into()]);
        t.row(vec!["—".into(), "✔".into()]);
        let want = r#"{
  "id": "pin",
  "title": "quote \" and \\ — ✔",
  "headers": [
    "design",
    "mark"
  ],
  "rows": [
    [
      "say \"hi\"",
      "C:\\dir"
    ],
    [
      "—",
      "✔"
    ]
  ],
  "notes": []
}"#;
        assert_eq!(t.render_json(), want);
    }
}
