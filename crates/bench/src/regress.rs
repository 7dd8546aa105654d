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

use nbkv_core::client::ClientStats;
use nbkv_core::cluster::ChaosConfig;
use nbkv_core::designs::Design;
use nbkv_core::server::{ServerStats, StoreStats};
use nbkv_core::{DirectPolicy, OneSidedConfig, ReadPolicy, ReplicationConfig, ResiliencePolicy};
use nbkv_fabric::{FaultPlan, LinkStats};
use nbkv_simrt::{Sim, SimStats};
use nbkv_storesim::{
    sata_ssd, DeviceStats, HostModel, IoScheme, PageCacheStats, SlabIo, SlabIoConfig, SlabIoStats,
    SsdDevice,
};
use nbkv_workload::OpMix;

use crate::exp::LatencyExp;
use crate::figs::{fig4, onesided, replication, Figure};
use crate::manifest::Manifest;
use crate::table::Table;

/// The case sets `nbkv-bench regress` runs, each under its manifest name
/// (written with [`Manifest::new_fixed`] at scale 1, seed 42).
pub const SETS: [(&str, Figure); 3] = [
    ("regress", regress_core),
    ("regress_onesided", regress_onesided),
    ("regress_replication", regress_replication),
];

const MEM: u64 = 8 << 20;
const DATA: u64 = 12 << 20;
const OPS: usize = 600;

fn regress_core(m: &mut Manifest) -> Vec<Table> {
    vec![
        regress_latency(m),
        regress_phases(m),
        regress_resilience(m),
        regress_batch(m),
        regress_io(m),
    ]
}

/// Pinned small experiment. Keeps the 32 KiB default value size: the
/// measured write-heavy phase must allocate enough to trigger eviction
/// flushes, or the phase gate would never see the overlap signal.
fn small_exp(design: Design) -> LatencyExp {
    let mut exp = LatencyExp::single(design, MEM, DATA);
    exp.ops_per_client = OPS;
    exp
}

/// All six designs at the pinned small scale: exact latencies + counters.
fn regress_latency(m: &mut Manifest) -> Table {
    let mut t = Table::new(
        "regress_latency",
        "Regression: exact per-design latency (ns), pinned small scale",
        &[
            "design",
            "mean (ns)",
            "p99 (ns)",
            "hits",
            "misses",
            "ssd hits",
        ],
    );
    for design in Design::ALL {
        let (r, cluster_reg) = small_exp(design).run_obs();
        let reg = m.record_report(&format!("latency/{}", design.label()), &r);
        reg.merge(&cluster_reg);
        t.row(vec![
            design.label().to_string(),
            r.mean_latency_ns.to_string(),
            r.p99_latency_ns.to_string(),
            r.hits.to_string(),
            r.misses.to_string(),
            r.ssd_hits.to_string(),
        ]);
    }
    t.note("pinned: 8 MiB memory, 12 MiB data, 32 KiB values, 600 ops, seed 42; NBKV_SCALE does not apply.");
    t
}

/// Phase decomposition for the blocking vs non-blocking hybrid designs —
/// guards the lifecycle-stamp plumbing and the eviction-overlap signal.
fn regress_phases(m: &mut Manifest) -> Table {
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
    for design in [Design::HRdmaOptBlock, Design::HRdmaOptNonBI] {
        let (r, cluster_reg) = small_exp(design).run_obs();
        let reg = m.record_report(&format!("phases/{}", design.label()), &r);
        reg.merge(&cluster_reg);
        let p = &r.phases;
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

/// A small deterministic chaos run — guards the fault-injection and
/// resilience counters.
fn regress_resilience(m: &mut Manifest) -> Table {
    let mut t = Table::new(
        "regress_resilience",
        "Regression: goodput under a pinned fault schedule (0.5% drop)",
        &["design", "ops", "failed", "timed out", "retries"],
    );
    for design in [Design::RdmaMem, Design::HRdmaOptNonBI] {
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
        let (r, cluster_reg) = exp.run_obs();
        let reg = m.record_report(&format!("resilience/{}", design.label()), &r);
        reg.merge(&cluster_reg);
        let retries = ClientStats::read(&cluster_reg, "client.").retries;
        t.row(vec![
            design.label().to_string(),
            r.ops.to_string(),
            r.failed_ops.to_string(),
            r.timed_out_ops.to_string(),
            retries.to_string(),
        ]);
    }
    t.note("pinned fault schedule: 0.5% message drop both directions, seed 7; deadline + retry absorb the losses.");
    t
}

/// Doorbell batching at a pinned shape — guards the batch framing, the
/// flush-policy counters, and the wire-level message savings.
fn regress_batch(m: &mut Manifest) -> Table {
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
    for batch in [0, 64] {
        let design = Design::HRdmaOptNonBI;
        let mut exp = LatencyExp {
            value_len: 512,
            mix: OpMix::READ_ONLY,
            ops_per_client: OPS,
            window: 256,
            batch,
            ..LatencyExp::single(design, MEM, MEM / 2)
        };
        exp.cluster.servers = 4;
        let (r, cluster_reg) = exp.run_obs();
        let label = if batch > 1 { "batched" } else { "per-op" };
        let reg = m.record_report(&format!("batch/{label}"), &r);
        reg.merge(&cluster_reg);
        let client = ClientStats::read(&cluster_reg, "client.");
        let msgs = LinkStats::read(&cluster_reg, "fabric.").messages;
        t.row(vec![
            design.label().to_string(),
            label.to_string(),
            r.mean_latency_ns.to_string(),
            msgs.to_string(),
            client.batches_sent.to_string(),
            client.batched_ops.to_string(),
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
fn regress_io(m: &mut Manifest) -> Table {
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
    for (label, len) in fig4::SIZES {
        let reg = m.section(&format!("io/fig4/{label}"));
        for scheme in IoScheme::ALL {
            let ns = fig4::sync_write_cost_ns(scheme, len);
            reg.set_counter(&format!("{}_ns", scheme.label()), ns);
            t.row(vec![
                format!("fig4/{label}"),
                scheme.label().to_string(),
                ns.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
                "-".into(),
            ]);
        }
    }
    for scheme in [IoScheme::Cached, IoScheme::Mmap] {
        let ([write_ns, read_ns, sync_ns], io, cache, dev, sim) = io_stream(scheme);
        let reg = m.section(&format!("io/stream/{}", scheme.label()));
        reg.set_counter("write_ns", write_ns);
        reg.set_counter("read_ns", read_ns);
        reg.set_counter("sync_ns", sync_ns);
        io.export("slab_io.", reg);
        cache.export(&format!("page_cache.{}_", scheme.label()), reg);
        dev.export("ssd.", reg);
        sim.export("sim.", reg);
        t.row(vec![
            "stream".into(),
            scheme.label().to_string(),
            write_ns.to_string(),
            read_ns.to_string(),
            sync_ns.to_string(),
            io.stall_ns.to_string(),
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
fn io_stream(scheme: IoScheme) -> ([u64; 3], SlabIoStats, PageCacheStats, DeviceStats, SimStats) {
    let sim = Sim::new();
    let sim2 = sim.clone();
    let out = sim.run_until(async move {
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
        let spans = [t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_nanos() as u64);
        let cache = io.page_cache_stats(scheme).expect("a buffered scheme");
        (spans, io.io_stats(), cache, dev.stats())
    });
    let (spans, io, cache, dev) = out;
    let stats = sim.stats();
    sim.shutdown();
    (spans, io, cache, dev, stats)
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
/// eviction shape that forces SSD fallbacks through the window's
/// `in_ram` bit.
fn regress_onesided(m: &mut Manifest) -> Vec<Table> {
    let mut t = Table::new(
        "regress_onesided",
        "Regression: exact one-sided GET counters (ns), pinned small scale",
        &[
            "case",
            "policy",
            "mean (ns)",
            "ops",
            "direct",
            "stale",
            "ssd-fb",
            "lost",
            "flips",
        ],
    );
    // (case label, mix, data bytes, value len, policies)
    let ram = 4 << 20;
    let evict = 12 << 20;
    let cases: [(&str, OpMix, u64, usize, &[DirectPolicy]); 3] = [
        (
            "read-heavy/ram",
            onesided::READ_HEAVY,
            ram,
            1 << 10,
            &[
                DirectPolicy::Off,
                DirectPolicy::Always,
                DirectPolicy::Adaptive,
            ],
        ),
        (
            "write-heavy/ram",
            OpMix::WRITE_HEAVY,
            ram,
            1 << 10,
            &[DirectPolicy::Off, DirectPolicy::Adaptive],
        ),
        (
            "read-heavy/evict",
            onesided::READ_HEAVY,
            evict,
            2 << 10,
            &[DirectPolicy::Always],
        ),
    ];
    for (case, mix, data, value_len, policies) in cases {
        for &direct in policies {
            let label = onesided::policy_label(direct);
            let (r, cluster_reg) = onesided_exp(mix, direct, data, value_len).run_obs();
            let reg = m.record_report(&format!("{case}/{label}"), &r);
            reg.merge(&cluster_reg);
            let client = ClientStats::read(&cluster_reg, "client.");
            t.row(vec![
                case.to_string(),
                label.to_string(),
                r.mean_latency_ns.to_string(),
                r.ops.to_string(),
                client.direct_hits.to_string(),
                client.stale_retries.to_string(),
                client.ssd_fallbacks.to_string(),
                client.direct_lost.to_string(),
                client.mode_flips.to_string(),
            ]);
        }
    }
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

fn regress_replication(m: &mut Manifest) -> Vec<Table> {
    let mut t = Table::new(
        "regress_replication",
        "Regression: exact replication counters (ns), pinned small scale",
        &[
            "case",
            "config",
            "mean (ns)",
            "ops",
            "failed",
            "repl-sent",
            "repl-applied",
            "stale-drops",
            "replica-reads",
            "promotions",
        ],
    );
    let rf1 = ReplicationConfig::disabled();
    let rf2 = ReplicationConfig::default();
    let spread = ReplicationConfig {
        rf: 2,
        read_policy: ReadPolicy::SpreadReplicas,
    };
    // (case label, mix, replication, crash?)
    let cases: [(&str, OpMix, ReplicationConfig, bool); 5] = [
        ("write-heavy", OpMix::WRITE_HEAVY, rf1, false),
        ("write-heavy", OpMix::WRITE_HEAVY, rf2, false),
        ("read-heavy", replication::READ_HEAVY, rf2, false),
        ("read-heavy", replication::READ_HEAVY, spread, false),
        ("failover", OpMix::WRITE_HEAVY, rf2, true),
    ];
    let mut thr: Vec<f64> = Vec::new();
    let mut promotions = 0u64;
    let mut failover_ops = 0usize;
    for (case, mix, rc, crash) in cases {
        let mut e = replication::small(mix, rc);
        let mut label = replication::policy_label(rc);
        if crash {
            e.crash = Some(replication::failover_crash(e.ops_per_client));
            e.cluster.client.resilience = replication::failover_resilience();
            label.push_str("+crash");
        }
        let (r, cluster_reg) = e.run_obs();
        let reg = m.record_report(&format!("{case}/{label}"), &r);
        reg.merge(&cluster_reg);
        let client = ClientStats::read(&cluster_reg, "client.");
        let store = StoreStats::read(&cluster_reg, "store.");
        if crash {
            promotions = client.promotions;
            failover_ops = r.ops;
        } else {
            thr.push(r.throughput_ops_per_sec());
        }
        t.row(vec![
            case.to_string(),
            label,
            r.mean_latency_ns.to_string(),
            r.ops.to_string(),
            r.failed_ops.to_string(),
            ServerStats::read(&cluster_reg, "server.")
                .repl_sent
                .to_string(),
            store.repl_applied.to_string(),
            store.repl_stale_drops.to_string(),
            client.replica_reads.to_string(),
            client.promotions.to_string(),
        ]);
    }
    // The acceptance gates, re-asserted at regression scale.
    let rf_cost = thr[1] / thr[0];
    assert!(
        rf_cost >= 0.90,
        "rf=2 write-heavy throughput fell more than 10% below rf=1: {rf_cost:.3}"
    );
    let spread_win = thr[3] / thr[2];
    assert!(
        spread_win >= 1.2,
        "spread-reads no longer beat primary-reads by >= 1.2x: {spread_win:.2}x"
    );
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
