//! Spans of the traced run, recorded from the benchmark's own files.
//!
//! Host spans wrap each layer entry point the benchmark calls (cluster
//! build, preload, replication drain, the measured `run_until`, the stats
//! snapshot and shutdown) in wall-clock time. Per-request spans are rebuilt
//! in virtual time from each completion's public stamps:
//!
//! ```text
//! req ─┬─ comm_in    issue → server receive
//!      ├─ dispatch   server receive → communication phase done
//!      ├─ store      communication done → memory/SSD phase done
//!      │   └─ ssd    the SSD share of the store phase, placed at its end
//!      └─ comm_out   store done → completion at the client
//! ```
//!
//! A one-sided hit carries no server stamps and gets a single `onesided`
//! child. Any other op without a timeline is flagged `untraced`. All spans
//! of a request share its id. Spans stay in memory until the run ends.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

use nbkv_core::{Completion, OpStatus, ServedFrom};

use crate::report::quantile;

/// Requests whose spans are written out in full; the summary covers all.
const DUMPED_REQS: usize = 2_000;

/// How a request's spans were rebuilt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Served over RPC with a full timeline.
    Rpc,
    /// Served by one-sided reads (no server stamps).
    OneSided,
    /// No timeline and not a one-sided hit.
    Untraced,
}

/// The stamps of one request, from which its spans are built.
#[derive(Debug, Clone, Copy)]
pub struct ReqSpans {
    pub id: u64,
    pub write: bool,
    pub route: Route,
    pub issued: u64,
    pub server_recv: u64,
    pub comm_done: u64,
    pub store_done: u64,
    pub completed: u64,
    pub ssd_ns: u64,
    pub overlapped_flush: bool,
}

impl ReqSpans {
    pub fn from_completion(id: u64, write: bool, c: &Completion) -> ReqSpans {
        let mut r = ReqSpans {
            id,
            write,
            route: Route::Untraced,
            issued: c.issued_at.as_nanos(),
            server_recv: 0,
            comm_done: 0,
            store_done: 0,
            completed: c.completed_at.as_nanos(),
            ssd_ns: 0,
            overlapped_flush: false,
        };
        if let Some(tl) = c.timeline() {
            r.route = Route::Rpc;
            r.server_recv = tl.server_recv_ns;
            r.comm_done = tl.comm_done_ns;
            r.store_done = tl.store_done_ns;
            r.ssd_ns = tl.ssd_ns.min(tl.store_done_ns - tl.comm_done_ns);
            r.overlapped_flush = tl.overlapped_flush;
        } else if !write
            && c.status == OpStatus::Hit
            && c.stages.server_recv_at_ns == 0
            && c.stages.served_from == ServedFrom::Ram
        {
            r.route = Route::OneSided;
        }
        r
    }

    /// `(span, parent, start_ns, end_ns)` for every span of this request.
    pub fn spans(&self) -> Vec<(&'static str, Option<&'static str>, u64, u64)> {
        let mut v = vec![("req", None, self.issued, self.completed)];
        match self.route {
            Route::Rpc => {
                v.push(("comm_in", Some("req"), self.issued, self.server_recv));
                v.push(("dispatch", Some("req"), self.server_recv, self.comm_done));
                v.push(("store", Some("req"), self.comm_done, self.store_done));
                if self.ssd_ns > 0 {
                    let start = self.store_done - self.ssd_ns;
                    v.push(("ssd", Some("store"), start, self.store_done));
                }
                v.push(("comm_out", Some("req"), self.store_done, self.completed));
            }
            Route::OneSided => v.push(("onesided", Some("req"), self.issued, self.completed)),
            Route::Untraced => {}
        }
        v
    }
}

/// What a traced repetition records besides its counters.
#[derive(Debug, Default)]
pub struct Recorder {
    pub reqs: Vec<ReqSpans>,
    pub reaps: u64,
    /// Largest per-server replication backlog seen while sampling.
    pub lag_max: u64,
}

/// Span durations by name (ascending, virtual ns), plus route counts.
#[derive(Debug, Default)]
pub struct Phases {
    pub comm_in: Vec<u64>,
    pub dispatch: Vec<u64>,
    pub store: Vec<u64>,
    /// Store self time: the store span minus its `ssd` child.
    pub store_self: Vec<u64>,
    pub ssd: Vec<u64>,
    pub comm_out: Vec<u64>,
    pub onesided: Vec<u64>,
    pub rpc: u64,
    pub onesided_hits: u64,
    pub untraced: u64,
    pub overlapped: u64,
}

impl Phases {
    pub fn of(reqs: &[ReqSpans]) -> Phases {
        let mut p = Phases::default();
        for r in reqs {
            match r.route {
                Route::Rpc => {
                    p.rpc += 1;
                    p.overlapped += r.overlapped_flush as u64;
                    p.comm_in.push(r.server_recv - r.issued);
                    p.dispatch.push(r.comm_done - r.server_recv);
                    p.store.push(r.store_done - r.comm_done);
                    p.store_self.push(r.store_done - r.comm_done - r.ssd_ns);
                    if r.ssd_ns > 0 {
                        p.ssd.push(r.ssd_ns);
                    }
                    p.comm_out.push(r.completed - r.store_done);
                }
                Route::OneSided => {
                    p.onesided_hits += 1;
                    p.onesided.push(r.completed - r.issued);
                }
                Route::Untraced => p.untraced += 1,
            }
        }
        for v in [
            &mut p.comm_in,
            &mut p.dispatch,
            &mut p.store,
            &mut p.store_self,
            &mut p.ssd,
            &mut p.comm_out,
            &mut p.onesided,
        ] {
            v.sort_unstable();
        }
        p
    }

    /// `(span, sorted durations)` for the summary.
    fn named(&self) -> [(&'static str, &[u64]); 7] {
        [
            ("comm_in", &self.comm_in),
            ("dispatch", &self.dispatch),
            ("store", &self.store),
            ("store.self", &self.store_self),
            ("ssd", &self.ssd),
            ("comm_out", &self.comm_out),
            ("onesided", &self.onesided),
        ]
    }
}

/// A wall-clock host span of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct HostSpan {
    pub rep: usize,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
}

/// Write the trace as JSON lines: a header, every host span, the spans of
/// the first requests, a per-span summary over all requests, and `extra`
/// report lines.
pub fn write_trace(
    path: &Path,
    header: &str,
    host: &[HostSpan],
    reqs: &[ReqSpans],
    extra: &[String],
) -> std::io::Result<()> {
    let mut f = BufWriter::new(File::create(path)?);
    writeln!(f, "{header}")?;
    for h in host {
        writeln!(
            f,
            "{{\"kind\":\"host\",\"rep\":{},\"span\":\"{}\",\"start_s\":{:.6},\"end_s\":{:.6}}}",
            h.rep, h.name, h.start_s, h.end_s
        )?;
    }
    for r in reqs.iter().take(DUMPED_REQS) {
        let op = if r.write { "set" } else { "get" };
        let flag = if r.route == Route::Untraced {
            ",\"untraced\":true"
        } else {
            ""
        };
        for (span, parent, start, end) in r.spans() {
            let parent = parent.map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                f,
                "{{\"kind\":\"req\",\"id\":{},\"op\":\"{op}\",\"span\":\"{span}\",\"parent\":{parent},\"start_ns\":{start},\"end_ns\":{end}{flag}}}",
                r.id
            )?;
        }
    }
    let phases = Phases::of(reqs);
    for (span, d) in phases.named() {
        let total: u64 = d.iter().sum();
        writeln!(
            f,
            "{{\"kind\":\"summary\",\"span\":\"{span}\",\"count\":{},\"p50_ns\":{},\"p99_ns\":{},\"total_ns\":{total}}}",
            d.len(),
            quantile(d, 0.5),
            quantile(d, 0.99)
        )?;
    }
    for line in extra {
        writeln!(f, "{line}")?;
    }
    f.flush()
}
