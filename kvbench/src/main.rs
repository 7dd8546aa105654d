//! kvbench — the two-clock benchmark of nbkv.
//!
//! ```text
//! cargo run --release --manifest-path kvbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one pinned workload (see `workloads.rs`) against the public
//! `nbkv-core`/`nbkv-workload` API with a closed-loop driver, checks every
//! GET, and prints one JSON result line last on stdout. The run repeats
//! the whole set-up and measured phase until `--seconds` of wall time have
//! passed (at least `MIN_ROUNDS` times) and reports host times as medians;
//! virtual-time results and counters must repeat bit for bit, or the run
//! is marked incorrect.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` alternates
//! untraced and traced repetitions, reports the per-layer metrics, and
//! writes the spans to `kvbench/out/<workload>.trace.jsonl`. A panic in
//! the simulated program fails the run and is recorded in
//! `kvbench/out/panic-<workload>-seed<n>.txt`.

mod driver;
mod layers;
mod report;
mod spans;
mod workloads;

use std::panic::AssertUnwindSafe;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

use driver::{Plan, Rep};
use layers::Busy;
use report::{median, metric, peak_rss_mib, quantile, ratio, result_line, Metric};
use spans::{HostSpan, Phases};
use workloads::{Workload, NAMES};

/// Repetitions (pairs, when tracing) a run makes at least, so every host
/// figure is a median of several set-ups and measured phases.
const MIN_ROUNDS: usize = 3;
/// Upper bound on repetitions, whatever `--seconds` asks for.
const MAX_ROUNDS: usize = 50;
/// Latency samples per op type, so the p99.9 has 40 samples beyond it.
const MIN_SAMPLES: usize = 40_000;

const USAGE: &str = "usage: kvbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// The first panic message of this process, with its location.
static PANIC_NOTE: Mutex<Option<String>> = Mutex::new(None);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a duration"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("kvbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!(
            "kvbench: unknown workload {:?} (workloads: {})\n{USAGE}",
            args.workload,
            NAMES.join(", ")
        );
        std::process::exit(2);
    };
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let at = info
            .location()
            .map(|l| format!("{}:{}", l.file(), l.line()))
            .unwrap_or_default();
        if let Ok(mut note) = PANIC_NOTE.lock() {
            note.get_or_insert(format!("{msg} (at {at})"));
        }
        default_hook(info);
    }));

    match std::panic::catch_unwind(AssertUnwindSafe(|| run(&w, &args))) {
        Ok((correct, line)) => {
            println!("{line}");
            if !correct {
                std::process::exit(1);
            }
        }
        Err(_) => {
            let note = PANIC_NOTE
                .lock()
                .ok()
                .and_then(|n| n.clone())
                .unwrap_or_default();
            eprintln!(
                "kvbench: FAILED workload={} seed={}: the simulated program panicked: {note}",
                w.name, args.seed
            );
            let record = out_dir().join(format!("panic-{}-seed{}.txt", w.name, args.seed));
            let text = format!("workload: {}\nseed: {}\npanic: {note}\n", w.name, args.seed);
            if let Err(e) =
                std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&record, text))
            {
                eprintln!("kvbench: could not record the panic: {e}");
            }
            println!("{}", result_line(false, w.ops(), w.ops(), &[]));
            std::process::exit(1);
        }
    }
}

/// Run the repetitions and build the result line.
fn run(w: &Workload, args: &Args) -> (bool, String) {
    let plan = Plan::new(w, args.seed);
    let started = Instant::now();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    for round in 0..MAX_ROUNDS {
        if round >= MIN_ROUNDS && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        untraced.push(driver::run_rep(w, &plan, false));
        if args.trace {
            traced.push(driver::run_rep(w, &plan, true));
        }
    }

    let first = &untraced[0];
    let t = &first.tally;
    let mut problems: Vec<String> = t.notes.clone();
    if t.attempted != t.succeeded + t.failed {
        problems.push(format!(
            "accounting: attempted {} != succeeded {} + failed {}",
            t.attempted, t.succeeded, t.failed
        ));
    }
    if t.attempted != w.ops() {
        problems.push(format!(
            "attempted {} of {} planned ops",
            t.attempted,
            w.ops()
        ));
    }
    for (op, n) in [("GET", t.get_ns.len()), ("SET", t.set_ns.len())] {
        if n < MIN_SAMPLES {
            problems.push(format!("{n} {op} samples: p99.9 needs {MIN_SAMPLES}"));
        }
    }
    let fingerprint = first.fingerprint();
    let repeats = untraced
        .iter()
        .chain(&traced)
        .all(|r| r.fingerprint() == fingerprint);
    if !repeats {
        problems.push("virtual-time results or counters differ between repetitions".to_string());
    }
    let correct = t.failed == 0 && problems.is_empty();

    eprintln!(
        "kvbench: workload={} seed={} reps={}+{} traced fingerprint={fingerprint:016x} \
         gets={} sets={} failed={} wrong_values={}",
        w.name,
        args.seed,
        untraced.len(),
        traced.len(),
        t.get_ns.len(),
        t.set_ns.len(),
        t.failed,
        t.wrong_values
    );
    for p in &problems {
        eprintln!("kvbench: problem: {p}");
    }
    let per_rep = |f: fn(&Rep) -> f64| -> String {
        let v: Vec<String> = untraced.iter().map(|r| format!("{:.0}", f(r))).collect();
        v.join(" ")
    };
    eprintln!(
        "kvbench: untraced repetitions: setup_ms {} host_ns_per_op {}",
        per_rep(|r| r.host.setup() * 1e3),
        per_rep(Rep::host_ns_per_op)
    );
    for (op, v) in [("GET", &t.get_ns), ("SET", &t.set_ns)] {
        let v = sorted(v);
        let deciles: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
            .iter()
            .map(|&q| format!("p{}={:.1}", q * 100.0, us(quantile(&v, q))))
            .collect();
        eprintln!("kvbench: {op} latency us: {}", deciles.join(" "));
    }

    let metrics = if args.trace {
        let layer = per_layer(w, &untraced, &traced);
        if let Err(e) = write_trace(w, args, &traced, &layer) {
            eprintln!("kvbench: could not write the trace: {e}");
        }
        layer
    } else {
        end_to_end(&untraced)
    };
    (
        correct,
        result_line(correct, t.attempted, t.failed, &metrics),
    )
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    v
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Mean latency in µs. The end-to-end report uses the mean, not the p50:
/// on `ram-read-direct` the p50 is the fixed cost of a one-sided read and
/// reads the same for every seed. The p50s are per-layer metrics.
fn mean_us(ns: &[u64]) -> f64 {
    ns.iter().map(|&v| v as f64).sum::<f64>() / ns.len().max(1) as f64 / 1e3
}

/// The end-to-end metrics, from the untraced repetitions.
fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let r = &reps[0];
    let gets = sorted(&r.tally.get_ns);
    let sets = sorted(&r.tally.set_ns);
    let virtual_s = r.elapsed_ns.max(1) as f64 / 1e9;
    vec![
        metric(
            "vt_kops",
            r.tally.succeeded as f64 / virtual_s / 1e3,
            "kops/s",
        ),
        metric("vt_get_mean_us", mean_us(&gets), "us"),
        metric("vt_get_p999_us", us(quantile(&gets, 0.999)), "us"),
        metric("vt_set_mean_us", mean_us(&sets), "us"),
        metric("vt_set_p999_us", us(quantile(&sets, 0.999)), "us"),
        metric(
            "host_ns_per_op",
            median(reps.iter().map(Rep::host_ns_per_op)),
            "ns",
        ),
        metric("setup_s", median(reps.iter().map(|r| r.host.setup())), "s"),
        metric("peak_rss_mib", peak_rss_mib(), "MiB"),
    ]
}

/// The per-layer metrics, from a traced repetition (counters are identical
/// in every repetition) and the host times of all of them.
fn per_layer(w: &Workload, untraced: &[Rep], traced: &[Rep]) -> Vec<Metric> {
    let r = &traced[0];
    let d = &r.delta;
    let rec = r.trace.as_ref().expect("traced repetitions record spans");
    let ph = Phases::of(&rec.reqs);
    let busy = Busy::of(w, d, r.elapsed_ns);

    let ops = r.tally.attempted;
    let gets = r.tally.get_ns.len() as u64;
    let sets = r.tally.set_ns.len() as u64;
    let keys = w.keys() as u64;
    let per_op = |name: &str| ratio(d.get(name), ops);
    let share = |name: &str, of: u64| ratio(d.get(name), of);
    let host = |f: fn(&Rep) -> f64| median(traced.iter().map(f));
    let p = |v: &[u64], q: f64| us(quantile(v, q));

    let server_gets =
        d.get("store.get_hits_ram") + d.get("store.get_hits_ssd") + d.get("store.get_misses");
    let slab_ops =
        d.get("slab_io.direct_ops") + d.get("slab_io.cached_ops") + d.get("slab_io.mmap_ops");
    let flushes = d.get("client.flush_on_count")
        + d.get("client.flush_on_size")
        + d.get("client.flush_on_deadline")
        + d.get("client.flush_on_doorbell");
    let direct_attempts = d.get("client.direct_hits")
        + d.get("client.stale_retries")
        + d.get("client.ssd_fallbacks")
        + d.get("client.direct_lost");
    let user_set_bytes = sets * w.value_len as u64;
    let untraced_ns = median(untraced.iter().map(Rep::host_ns_per_op));
    let traced_ns = median(traced.iter().map(Rep::host_ns_per_op));

    vec![
        // simrt: exact host-cost proxies.
        metric("simrt.polls_per_op", per_op("sim.polls"), "count"),
        metric(
            "simrt.timer_events_per_op",
            per_op("sim.timer_events"),
            "count",
        ),
        metric(
            "simrt.tasks_spawned_per_op",
            per_op("sim.tasks_spawned"),
            "count",
        ),
        metric(
            "simrt.preload_polls_per_key",
            ratio(r.preload.get("sim.polls"), keys),
            "count",
        ),
        metric(
            "simrt.preload_timers_per_key",
            ratio(r.preload.get("sim.timer_events"), keys),
            "count",
        ),
        // Host spans (medians over the traced repetitions).
        metric("host.build_s", host(|r| r.host.build), "s"),
        metric("host.preload_s", host(|r| r.host.preload), "s"),
        metric("host.drain_s", host(|r| r.host.drain), "s"),
        metric("host.measure_s", host(|r| r.host.measure), "s"),
        metric("host.snapshot_s", host(|r| r.host.snapshot), "s"),
        metric("host.teardown_s", host(|r| r.host.teardown), "s"),
        metric("host.untraced_ns_per_op", untraced_ns, "ns"),
        metric("host.traced_ns_per_op", traced_ns, "ns"),
        metric(
            "host.trace_overhead_ns_per_op",
            traced_ns - untraced_ns,
            "ns",
        ),
        // fabric
        metric("fabric.msgs_per_op", per_op("fabric.messages"), "count"),
        metric(
            "fabric.wire_bytes_per_op",
            ratio(d.link_wire_bytes.iter().sum(), ops),
            "B",
        ),
        metric("fabric.link_busy_max", busy.link, "ratio"),
        metric(
            "fabric.mr_miss_ratio",
            share(
                "client.mr_misses",
                d.get("client.mr_hits") + d.get("client.mr_misses"),
            ),
            "ratio",
        ),
        // core::server dispatch and pipeline
        metric(
            "server.frames_per_op",
            ratio(d.server_frames.iter().sum(), ops),
            "count",
        ),
        metric("server.dispatch_busy_max", busy.dispatch, "ratio"),
        metric(
            "server.staged_share",
            share("server.staged", d.get("server.requests")),
            "ratio",
        ),
        metric("phase.comm_in_p50", p(&ph.comm_in, 0.5), "us"),
        metric("phase.comm_in_p99", p(&ph.comm_in, 0.99), "us"),
        metric("phase.dispatch_p50", p(&ph.dispatch, 0.5), "us"),
        metric("phase.dispatch_p99", p(&ph.dispatch, 0.99), "us"),
        metric("phase.comm_out_p50", p(&ph.comm_out, 0.5), "us"),
        metric("phase.comm_out_p99", p(&ph.comm_out, 0.99), "us"),
        // core::server::store and slab
        metric(
            "store.ram_hit_ratio",
            share("store.get_hits_ram", server_gets),
            "ratio",
        ),
        metric(
            "store.ssd_hits_per_get",
            share("store.get_hits_ssd", server_gets),
            "ratio",
        ),
        metric(
            "store.evictions_per_set",
            ratio(
                d.get("store.flushed_pages")
                    + d.get("store.evicted_items")
                    + d.get("store.ssd_full_drops"),
                d.get("store.sets"),
            ),
            "ratio",
        ),
        metric(
            "store.flushed_pages_per_kset",
            1e3 * share("store.flushed_pages", d.get("store.sets")),
            "count",
        ),
        metric(
            "store.promotes_per_get",
            share("store.promotes", server_gets),
            "ratio",
        ),
        metric(
            "store.inflight_hit_ratio",
            share("store.inflight_hits", d.get("store.get_hits_ssd")),
            "ratio",
        ),
        metric(
            "store.eviction_overlap_ppm",
            1e6 * ratio(ph.overlapped, ph.rpc),
            "ppm",
        ),
        metric("phase.store_p50", p(&ph.store, 0.5), "us"),
        metric("phase.store_p99", p(&ph.store, 0.99), "us"),
        // storesim
        metric(
            "ssd.write_amp",
            ratio(d.get("ssd.bytes_written"), user_set_bytes),
            "ratio",
        ),
        metric(
            "ssd.read_amp",
            ratio(
                d.get("ssd.bytes_read"),
                d.get("store.get_hits_ssd") * w.value_len as u64,
            ),
            "ratio",
        ),
        metric("ssd.busy_max", busy.ssd, "ratio"),
        metric(
            "slab_io.stall_us_per_set",
            us(d.get("slab_io.stall_ns")) / sets.max(1) as f64,
            "us",
        ),
        metric(
            "slab_io.direct_share",
            share("slab_io.direct_ops", slab_ops),
            "ratio",
        ),
        metric(
            "slab_io.cached_share",
            share("slab_io.cached_ops", slab_ops),
            "ratio",
        ),
        metric(
            "slab_io.mmap_share",
            share("slab_io.mmap_ops", slab_ops),
            "ratio",
        ),
        metric("phase.ssd_p50", p(&ph.ssd, 0.5), "us"),
        metric("phase.ssd_p99", p(&ph.ssd, 0.99), "us"),
        // core::{server,client}::onesided
        metric(
            "onesided.direct_share",
            share("client.direct_hits", gets),
            "ratio",
        ),
        metric(
            "onesided.attempt_hit_ratio",
            share("client.direct_hits", direct_attempts),
            "ratio",
        ),
        metric(
            "onesided.stale_per_kget",
            1e3 * share("client.stale_retries", gets),
            "count",
        ),
        metric(
            "onesided.ssd_fallbacks",
            d.get("client.ssd_fallbacks") as f64,
            "count",
        ),
        metric("onesided.lost", d.get("client.direct_lost") as f64, "count"),
        metric(
            "onesided.mode_flips",
            d.get("client.mode_flips") as f64,
            "count",
        ),
        metric(
            "onesided.published_per_set",
            share("onesided.published", sets),
            "ratio",
        ),
        metric(
            "onesided.invalidated_per_set",
            share("onesided.invalidated", sets),
            "ratio",
        ),
        metric("phase.onesided_p50", p(&ph.onesided, 0.5), "us"),
        metric("phase.onesided_p99", p(&ph.onesided, 0.99), "us"),
        // core::client batcher
        metric(
            "batch.ops_per_frame",
            ratio(d.get("client.issued"), flushes),
            "count",
        ),
        metric(
            "batch.flush_count_share",
            share("client.flush_on_count", flushes),
            "ratio",
        ),
        metric(
            "batch.flush_doorbell_share",
            share("client.flush_on_doorbell", flushes),
            "ratio",
        ),
        metric(
            "batch.flush_deadline_share",
            share("client.flush_on_deadline", flushes),
            "ratio",
        ),
        // core::replication
        metric(
            "repl.deltas_per_set",
            share("server.repl_sent", sets),
            "ratio",
        ),
        metric(
            "repl.retrans_per_kset",
            1e3 * share("server.repl_retrans", sets),
            "count",
        ),
        metric(
            "repl.stale_drops",
            d.get("store.repl_stale_drops") as f64,
            "count",
        ),
        metric("repl.lag_ops_max", rec.lag_max as f64, "count"),
        metric("repl.unacked_at_end", r.unacked_at_end as f64, "count"),
        metric(
            "client.replica_read_share",
            share("client.replica_reads", gets),
            "ratio",
        ),
        // core::client resilience: all 0 when the run measures what it claims.
        metric(
            "client.retries_per_kop",
            1e3 * per_op("client.retries"),
            "count",
        ),
        metric("client.timeouts", d.get("client.timeouts") as f64, "count"),
        metric("client.hedges", d.get("client.hedges") as f64, "count"),
        metric(
            "client.breaker_rejections",
            d.get("client.breaker_rejections") as f64,
            "count",
        ),
        metric("client.window_hwm", d.window_hwm as f64, "count"),
        // Trace coverage, failures, sample sizes, bottleneck.
        metric(
            "trace.untraced_share",
            ratio(ph.onesided_hits + ph.untraced, rec.reqs.len() as u64),
            "ratio",
        ),
        metric("error_rate", ratio(r.tally.failed, ops), "ratio"),
        metric("latency.get_p50_us", p(&sorted(&r.tally.get_ns), 0.5), "us"),
        metric("latency.set_p50_us", p(&sorted(&r.tally.set_ns), 0.5), "us"),
        metric("samples.get", gets as f64, "count"),
        metric("samples.set", sets as f64, "count"),
        metric("bottleneck.busy_max", busy.bottleneck().1, "ratio"),
    ]
}

/// Write the recorded spans, the per-layer figures and the bottleneck
/// report of a traced run.
fn write_trace(w: &Workload, args: &Args, traced: &[Rep], layer: &[Metric]) -> std::io::Result<()> {
    let r = &traced[0];
    let busy = Busy::of(w, &r.delta, r.elapsed_ns);
    let (resource, fraction) = busy.bottleneck();
    eprintln!(
        "kvbench: bottleneck of {}: {resource} ({:.1}% busy; dispatch {:.3}, link {:.3}, ssd {:.3})",
        w.name,
        fraction * 100.0,
        busy.dispatch,
        busy.link,
        busy.ssd
    );
    let host: Vec<HostSpan> = traced
        .iter()
        .enumerate()
        .flat_map(|(rep, r)| {
            r.host.spans().map(|(name, start_s, end_s)| HostSpan {
                rep,
                name,
                start_s,
                end_s,
            })
        })
        .collect();
    let header = format!(
        "{{\"kind\":\"header\",\"workload\":\"{}\",\"seed\":{},\"traced_reps\":{},\"requests\":{}}}",
        w.name,
        args.seed,
        traced.len(),
        r.trace.as_ref().map_or(0, |t| t.reqs.len())
    );
    let mut extra = vec![format!(
        "{{\"kind\":\"bottleneck\",\"resource\":\"{resource}\",\"busy\":{fraction},\"dispatch\":{},\"link\":{},\"ssd\":{}}}",
        busy.dispatch, busy.link, busy.ssd
    )];
    extra.extend(layer.iter().map(|m| {
        format!(
            "{{\"kind\":\"metric\",\"name\":\"{}\",\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        )
    }));
    std::fs::create_dir_all(out_dir())?;
    let reqs = r.trace.as_ref().map_or(&[][..], |t| &t.reqs[..]);
    spans::write_trace(
        &out_dir().join(format!("{}.trace.jsonl", w.name)),
        &header,
        &host,
        reqs,
        &extra,
    )
}
