//! Deterministic regression case sets: small, fixed-scale runs whose
//! figure JSON and manifests are diffed against committed goldens by
//! `scripts/regress.sh` (`nbkv-bench regress` runs every set).
//!
//! Everything here is pinned — sizes, ops, seeds, window geometry, fault
//! and crash schedules — and independent of `NBKV_SCALE`, so the outputs
//! are byte-identical across runs of the same tree. Raw nanosecond values
//! are reported (no microsecond rounding) so even one-tick model drift
//! fails the gate.
//!
//! Three sets, one manifest each:
//!
//! - `regress`: every design's latency, the phase decomposition, a chaos
//!   run, doorbell batching, and the slab I/O schemes on their own;
//! - `regress_onesided`: the RPC / direct / adaptive GET paths;
//! - `regress_replication`: RF = 1 / RF = 2 writes, both read policies,
//!   and the scripted failover. This set also *asserts* the replication
//!   acceptance ratios, so the gate fails loudly if the extension
//!   regresses: async RF = 2 write-heavy throughput within 10% of
//!   RF = 1; spread-reads at least 1.2x primary-only reads on the hot-key
//!   read-heavy mix; the mid-run primary crash promotes writes to the
//!   survivor and the run still completes every op.

use std::rc::Rc;
use std::time::Duration;

use nbkv_core::cluster::ChaosConfig;
use nbkv_core::designs::Design;
use nbkv_core::{DirectPolicy, OneSidedConfig, ResiliencePolicy};
use nbkv_fabric::FaultPlan;
use nbkv_obs::Registry;
use nbkv_simrt::Sim;
use nbkv_storesim::{
    sata_ssd, DeviceStats, HostModel, IoScheme, SlabIo, SlabIoConfig, SlabIoStats, SsdDevice,
};
use nbkv_workload::OpMix;

use crate::exp::LatencyExp;
use crate::figs::{fig4, onesided, replication};
use crate::runner::{Case, Done, Figure, Measured};
use crate::table::Table;

/// The case sets `nbkv-bench regress` runs, each under its manifest name
/// (written at scale 1, seed 42).
pub const SETS: [(&str, Figure); 3] = [
    ("regress", Figure(core_cases, core_render)),
    ("regress_onesided", Figure(onesided_cases, onesided_render)),
    (
        "regress_replication",
        Figure(replication_cases, replication_render),
    ),
];

const MEM: u64 = 8 << 20;
const DATA: u64 = 12 << 20;
const OPS: usize = 600;

/// Pinned small experiment. Keeps the 32 KiB default value size: the
/// measured write-heavy phase must allocate enough to trigger eviction
/// flushes, or the phase gate would never see the overlap signal.
fn small_exp(design: Design) -> LatencyExp {
    let mut exp = LatencyExp::single(design, MEM, DATA);
    exp.ops_per_client = OPS;
    exp
}

/// The phase decomposition's designs: blocking vs non-blocking hybrid.
const PHASES: [Design; 2] = [Design::HRdmaOptBlock, Design::HRdmaOptNonBI];
/// The chaos run's designs.
const CHAOS: [Design; 2] = [Design::RdmaMem, Design::HRdmaOptNonBI];
/// The buffered schemes the sustained stream runs through.
const STREAMED: [IoScheme; 2] = [IoScheme::Cached, IoScheme::Mmap];

/// Every design's latency, the phase decomposition, a chaos run, doorbell
/// batching, and the slab I/O schemes on their own, in table order.
fn core_cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for design in Design::ALL {
        cases.push(Case::latency(
            format!("latency/{}", design.label()),
            small_exp(design),
        ));
    }
    for design in PHASES {
        cases.push(Case::latency(
            format!("phases/{}", design.label()),
            small_exp(design),
        ));
    }
    for design in CHAOS {
        // Chaos with a deadline so drops cannot hang.
        let mut exp = small_exp(design);
        exp.ops_per_client = 300;
        exp.window = 32;
        exp.cluster.client.resilience = ResiliencePolicy {
            deadline: Some(Duration::from_millis(5)),
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(2),
            ..ResiliencePolicy::default()
        };
        exp.cluster.chaos = ChaosConfig {
            seed: 7,
            link_faults: Some(FaultPlan::drops(7, 0.005)),
            ssd_faults: None,
            crashes: Vec::new(),
        };
        cases.push(Case::latency(format!("resilience/{}", design.label()), exp));
    }
    for (mode, batch) in [("per-op", 0), ("batched", 64)] {
        let mut exp = LatencyExp {
            value_len: 512,
            mix: OpMix::READ_ONLY,
            ops_per_client: OPS,
            window: 256,
            batch,
            ..LatencyExp::single(Design::HRdmaOptNonBI, MEM, MEM / 2)
        };
        exp.cluster.servers = 4;
        cases.push(Case::latency(format!("batch/{mode}"), exp));
    }
    for (label, len) in fig4::SIZES {
        cases.push(fig4::case(format!("io/fig4/{label}"), len));
    }
    for scheme in STREAMED {
        let run = move || io_stream(scheme);
        cases.push(Case::own(format!("io/stream/{}", scheme.label()), run));
    }
    cases
}

fn core_render(res: &[Done]) -> Vec<Table> {
    let (latency, rest) = res.split_at(Design::ALL.len());
    let (phases, rest) = rest.split_at(PHASES.len());
    let (chaos, rest) = rest.split_at(CHAOS.len());
    let (batch, io) = rest.split_at(2);
    let mut latency = counters_table(
        "regress_latency",
        "Regression: exact per-design latency (ns), pinned small scale",
        &["design"],
        &[
            ("mean (ns)", "mean_latency_ns"),
            ("p99 (ns)", "p99_latency_ns"),
            ("hits", "hits"),
            ("misses", "misses"),
            ("ssd hits", "ssd_hits"),
        ],
        latency,
    );
    latency.note("pinned: 8 MiB memory, 12 MiB data, 32 KiB values, 600 ops, seed 42; NBKV_SCALE does not apply.");
    // A small deterministic chaos run — guards the fault-injection and
    // resilience counters.
    let mut chaos = counters_table(
        "regress_resilience",
        "Regression: goodput under a pinned fault schedule (0.5% drop)",
        &["design"],
        &[
            ("ops", "ops"),
            ("failed", "failed_ops"),
            ("timed out", "timed_out_ops"),
            ("retries", "client.retries"),
        ],
        chaos,
    );
    chaos.note("pinned fault schedule: 0.5% message drop both directions, seed 7; deadline + retry absorb the losses.");
    vec![
        latency,
        phases_table(phases),
        chaos,
        batch_table(batch),
        io_table(io),
    ]
}

/// One row per case of exact section counters: the label's part after
/// its last `/` (and, with two `keys`, the part before it) as the key
/// columns, then each `(header, counter)`.
fn counters_table(
    id: &str,
    title: &str,
    keys: &[&str],
    counters: &[(&str, &str)],
    res: &[Done],
) -> Table {
    let headers: Vec<&str> = keys
        .iter()
        .copied()
        .chain(counters.iter().map(|c| c.0))
        .collect();
    let mut t = Table::new(id, title, &headers);
    for (label, o) in res {
        let (head, tail) = label.rsplit_once('/').expect("a `/` in every label");
        let mut row = match keys.len() {
            1 => vec![tail.to_string()],
            _ => vec![head.to_string(), tail.to_string()],
        };
        row.extend(counters.iter().map(|c| o.section.counter(c.1).to_string()));
        t.row(row);
    }
    t
}

/// Phase decomposition for the blocking vs non-blocking hybrid designs —
/// guards the lifecycle-stamp plumbing and the eviction-overlap signal.
fn phases_table(res: &[Done]) -> Table {
    let mut t = Table::new(
        "regress_phases",
        "Regression: exact phase p50/p99 (ns) and eviction overlap, pinned small scale",
        &[
            "design",
            "comm-in p50",
            "dispatch p50",
            "store p50",
            "comm-out p50",
            "e2e p99",
            "evict-overlap ppm",
        ],
    );
    for (design, (_, o)) in PHASES.iter().zip(res) {
        let p = &o.report().phases;
        t.row(vec![
            design.label().to_string(),
            p.comm_in.p50().to_string(),
            p.dispatch.p50().to_string(),
            p.store.p50().to_string(),
            p.comm_out.p50().to_string(),
            p.e2e.p99().to_string(),
            p.eviction_overlap_ppm().to_string(),
        ]);
    }
    t.note("phases sum exactly to end-to-end latency; the non-blocking design must show a non-zero eviction-overlap ratio.");
    t
}

/// Doorbell batching at a pinned shape — guards the batch framing, the
/// flush-policy counters, and the wire-level message savings.
fn batch_table(res: &[Done]) -> Table {
    let mut t = Table::new(
        "regress_batch",
        "Regression: exact batched-issue counters (4 servers, 512 B reads, group 64)",
        &[
            "design",
            "issue",
            "mean (ns)",
            "fabric msgs",
            "batches",
            "batched ops",
        ],
    );
    for (label, o) in res {
        let (_, mode) = label.split_once('/').expect("batch/<mode>");
        let counter = |name| o.section.counter(name).to_string();
        t.row(vec![
            Design::HRdmaOptNonBI.label().to_string(),
            mode.to_string(),
            counter("mean_latency_ns"),
            counter("fabric.messages"),
            counter("client.batches_sent"),
            counter("client.batched_ops"),
        ]);
    }
    t.note("pinned: 8 MiB memory, 4 MiB RAM-resident data, 512 B values, 600 read-only ops, seed 42; default BatchPolicy.");
    t
}

/// Buffered-stream shape: 48 writes of 1 MiB against a 4 MiB budget, so
/// background writeback, dirty throttling and pressure eviction all fire.
/// The writes go to descending 1 MiB slots, each shifted by 8 KiB: the
/// writeback run (ascending offsets) then lags the LRU order, so pressure
/// eviction meets dirty pages and flushes them inline, and the unaligned
/// edges make partial pages read-modify-write.
const STREAM_WRITES: u64 = 48;
const STREAM_BUDGET: u64 = 4 << 20;
const STREAM_SKEW: u64 = 8 << 10;
/// The first-written slots, read back after the stream evicted them.
const STREAM_COLD_READS: u64 = 4;

/// The slab I/O schemes on their own — guards the host charges and the
/// write-back machinery of the two buffered schemes, which the end-to-end
/// cases above reach only through mmap and direct I/O. Fig 4's sweep
/// (5 sizes x 3 schemes, one cold write each) plus a sustained stream
/// through each buffered scheme.
fn io_table(res: &[Done]) -> Table {
    let mut t = Table::new(
        "regress_io",
        "Regression: exact slab I/O costs (ns), Fig 4 sweep and a sustained buffered stream",
        &[
            "case",
            "scheme",
            "write (ns)",
            "read (ns)",
            "sync (ns)",
            "stall (ns)",
            "dev writes",
            "dev bytes written",
            "dev reads",
        ],
    );
    let (sweep, streams) = res.split_at(fig4::SIZES.len());
    for ((label, _), (_, o)) in fig4::SIZES.iter().zip(sweep) {
        for scheme in IoScheme::ALL {
            let ns = o.section.counter(&format!("{}_ns", scheme.label()));
            let mut row = vec![
                format!("fig4/{label}"),
                scheme.label().into(),
                ns.to_string(),
            ];
            // The stream columns do not apply to a single cold write.
            row.resize(t.headers.len(), "-".into());
            t.row(row);
        }
    }
    for (scheme, (_, o)) in STREAMED.iter().zip(streams) {
        let s = &o.section;
        let dev = DeviceStats::read(s, "ssd.");
        t.row(vec![
            "stream".into(),
            scheme.label().to_string(),
            s.counter("write_ns").to_string(),
            s.counter("read_ns").to_string(),
            s.counter("sync_ns").to_string(),
            SlabIoStats::read(s, "slab_io.").stall_ns.to_string(),
            dev.writes.to_string(),
            dev.bytes_written.to_string(),
            dev.reads.to_string(),
        ]);
    }
    t.note("fig4 rows: one cold synchronous write per size and scheme (SATA SSD, default host), as in Fig 4.");
    t.note("stream rows: 48 x 1 MiB writes (descending slots, 8 KiB skew) through a 4 MiB budget on a SATA SSD, then 4 KiB cold reads of the first 4 slots written, then sync_all.");
    t
}

/// One sustained stream through a buffered `scheme`: the virtual ns of the
/// writes, the cold read-back and the final sync, plus the facade, page
/// cache, device and executor counters at the end.
fn io_stream(scheme: IoScheme) -> Measured {
    let sim = Sim::new();
    let sim2 = sim.clone();
    let mut section = sim.run_until(async move {
        let dev = SsdDevice::new(&sim2, sata_ssd());
        let cfg = SlabIoConfig {
            cache_bytes: STREAM_BUDGET,
            mmap_resident_bytes: STREAM_BUDGET,
            host: HostModel::default_host(),
        };
        let io = SlabIo::new(&sim2, Rc::clone(&dev), cfg);
        let mib = 1u64 << 20;
        let t0 = sim2.now();
        for slot in (0..STREAM_WRITES).rev() {
            let data = vec![slot as u8 + 1; mib as usize];
            let off = slot * mib + STREAM_SKEW;
            io.write(scheme, off, &data).await.expect("stream write");
        }
        let t1 = sim2.now();
        for slot in STREAM_WRITES - STREAM_COLD_READS..STREAM_WRITES {
            let off = slot * mib + STREAM_SKEW;
            let got = io.read(scheme, off, 4 << 10).await.expect("cold read");
            assert!(
                got.iter().all(|&b| b == slot as u8 + 1),
                "stream lost slot {slot}"
            );
        }
        let t2 = sim2.now();
        io.sync_all().await.expect("sync");
        let t3 = sim2.now();
        let mut s = Registry::new();
        for (name, d) in [
            ("write_ns", t1 - t0),
            ("read_ns", t2 - t1),
            ("sync_ns", t3 - t2),
        ] {
            s.set_counter(name, d.as_nanos() as u64);
        }
        io.io_stats().export("slab_io.", &mut s);
        let cache = io.page_cache_stats(scheme).expect("a buffered scheme");
        cache.export(&format!("page_cache.{}_", scheme.label()), &mut s);
        dev.stats().export("ssd.", &mut s);
        s
    });
    sim.stats().export("sim.", &mut section);
    sim.shutdown();
    (None, section)
}

/// Pinned small experiment: non-blocking window 64 over one server,
/// values small enough to publish into the window.
fn onesided_exp(mix: OpMix, direct: DirectPolicy, data: u64, value_len: usize) -> LatencyExp {
    let mut e = LatencyExp {
        value_len,
        mix,
        ops_per_client: OPS,
        window: 64,
        ..LatencyExp::single(Design::HRdmaOptNonBI, MEM, data)
    };
    e.cluster.client.direct = direct;
    e.cluster.onesided = Some(OneSidedConfig {
        buckets: (e.keys() * 4).next_power_of_two(),
        value_cap: 2048,
    });
    e
}

/// Exact latencies and direct-path counters per mix/policy, including an
/// eviction shape (12 MiB preloaded into 8 MiB of memory) that forces SSD
/// fallbacks through the window's `in_ram` bit.
fn onesided_cases() -> Vec<Case> {
    use DirectPolicy::{Adaptive, Always, Off};
    let (ram, evict) = (4 << 20, 12 << 20);
    let shapes: [(&str, OpMix, u64, usize, &[DirectPolicy]); 3] = [
        (
            "read-heavy/ram",
            onesided::READ_HEAVY,
            ram,
            1 << 10,
            &[Off, Always, Adaptive],
        ),
        (
            "write-heavy/ram",
            OpMix::WRITE_HEAVY,
            ram,
            1 << 10,
            &[Off, Adaptive],
        ),
        (
            "read-heavy/evict",
            onesided::READ_HEAVY,
            evict,
            2 << 10,
            &[Always],
        ),
    ];
    let mut cases = Vec::new();
    for (case, mix, data, value_len, policies) in shapes {
        for &direct in policies {
            let label = format!("{case}/{}", onesided::policy_label(direct));
            cases.push(Case::latency(
                label,
                onesided_exp(mix, direct, data, value_len),
            ));
        }
    }
    cases
}

fn onesided_render(res: &[Done]) -> Vec<Table> {
    let mut t = counters_table(
        "regress_onesided",
        "Regression: exact one-sided GET counters (ns), pinned small scale",
        &["case", "policy"],
        &[
            ("mean (ns)", "mean_latency_ns"),
            ("ops", "ops"),
            ("direct", "client.direct_hits"),
            ("stale", "client.stale_retries"),
            ("ssd-fb", "client.ssd_fallbacks"),
            ("lost", "client.direct_lost"),
            ("flips", "client.mode_flips"),
        ],
        res,
    );
    t.note(
        "pinned: 8 MiB memory, 1-2 KiB values, 600 ops, window 64, seed 42; \
         NBKV_SCALE does not apply.",
    );
    t.note(
        "the evict case preloads 12 MiB into 8 MiB of memory, so direct reads hit \
         descriptors marked not-in-RAM and must fall back (ssd-fb > 0).",
    );
    vec![t]
}

/// The replication figure's rows at the pinned small shape: RF = 1 / RF = 2
/// writes, both read policies, and the scripted failover.
fn replication_cases() -> Vec<Case> {
    let cases = [
        "write-heavy",
        "write-heavy",
        "read-heavy",
        "read-heavy",
        "failover",
    ];
    let case = |(case, (mix, rc, crash)): (&str, (OpMix, _, bool))| {
        let crashed = if crash { "+crash" } else { "" };
        let label = format!("{case}/{}{crashed}", replication::policy_label(rc));
        Case::latency(
            label,
            replication::with_crash(replication::small(mix, rc), crash),
        )
    };
    cases
        .into_iter()
        .zip(replication::rows())
        .map(case)
        .collect()
}

/// The replication counters, with the replication acceptance ratios
/// asserted.
fn replication_render(res: &[Done]) -> Vec<Table> {
    let mut t = counters_table(
        "regress_replication",
        "Regression: exact replication counters (ns), pinned small scale",
        &["case", "config"],
        &[
            ("mean (ns)", "mean_latency_ns"),
            ("ops", "ops"),
            ("failed", "failed_ops"),
            ("repl-sent", "server.repl_sent"),
            ("repl-applied", "store.repl_applied"),
            ("stale-drops", "store.repl_stale_drops"),
            ("replica-reads", "client.replica_reads"),
            ("promotions", "client.promotions"),
        ],
        res,
    );
    // The acceptance gates, re-asserted at regression scale.
    let thr = |i: usize| res[i].1.report().throughput_ops_per_sec();
    let rf_cost = thr(1) / thr(0);
    assert!(
        rf_cost >= 0.90,
        "rf=2 write-heavy throughput fell more than 10% below rf=1: {rf_cost:.3}"
    );
    let spread_win = thr(3) / thr(2);
    assert!(
        spread_win >= 1.2,
        "spread-reads no longer beat primary-reads by >= 1.2x: {spread_win:.2}x"
    );
    let failover = &res[4].1;
    let promotions = failover.section.counter("client.promotions");
    let failover_ops = failover.report().ops;
    assert!(promotions > 0, "failover case recorded no promotions");
    assert_eq!(
        failover_ops,
        600 * replication::CLIENTS,
        "failover case lost ops"
    );
    t.note(
        "pinned: 8 MiB memory, 64 keys of 1 KiB, 600 ops x 4 clients over 2 servers, \
         window 64, seed 42; NBKV_SCALE does not apply.",
    );
    t.note(format!(
        "gates (asserted): rf=2/rf=1 write throughput {rf_cost:.3} >= 0.90; \
         spread/primary read throughput {spread_win:.2}x >= 1.2x; \
         failover promotions {promotions} > 0 with all {failover_ops} ops completed."
    ));
    vec![t]
}
