//! Resilience under chaos: goodput and tail latency for all six designs
//! under a fixed deterministic fault schedule.
//!
//! Scenario (virtual time, measured from the end of the preload):
//!
//! - 1% random message drop on every link, both directions;
//! - one scripted 50 ms link-down window over [20 ms, 70 ms);
//! - server 0 crashes at 100 ms and warm-restarts at 150 ms, rebuilding
//!   its RAM index from the SSD slabs (hybrid designs).
//!
//! Clients run the default [`ResiliencePolicy`] tightened for simulation
//! scale (5 ms deadline, 3 attempts, circuit-breaker failover), so every
//! lost message surfaces as a counted timeout/retry instead of a hang.
//! The table reports *goodput* — successful operations per second — and
//! the p99 of client-visible latency, alongside the injected-fault and
//! recovery counters that explain them.

use std::rc::Rc;
use std::time::Duration;

use nbkv_core::designs::Design;
use nbkv_core::server::StoreStats;
use nbkv_core::ResiliencePolicy;
use nbkv_fabric::FaultPlan;

use crate::exp::{on_cluster, LatencyExp};
use crate::runner::{Case, Done, Figure, Measured};
use crate::table::{us, Table};

const SERVERS: usize = 2;
const CLIENTS: usize = 2;
const MEM_PER_SERVER: u64 = 4 << 20;
const DATA_BYTES: u64 = 12 << 20;
const VALUE_LEN: usize = 4 << 10;
const OPS_PER_CLIENT: usize = 2000;

const DROP_PROB: f64 = 0.01;
const DOWN_FROM: Duration = Duration::from_millis(20);
const DOWN_UNTIL: Duration = Duration::from_millis(70);
const CRASH_AT: Duration = Duration::from_millis(100);
const RESTART_AT: Duration = Duration::from_millis(150);

/// Decorrelate per-link seeds from a base seed (splitmix-style mix).
fn mix_seed(base: u64, idx: u64) -> u64 {
    nbkv_simrt::mix64(base ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// One chaos run; its section adds the messages the fabric lost
/// (`msgs_lost`) to the cluster's registry.
fn run_design(design: Design, seed: u64) -> Measured {
    let mut exp = LatencyExp {
        value_len: VALUE_LEN,
        ops_per_client: OPS_PER_CLIENT,
        window: 32,
        ..LatencyExp::single(design, MEM_PER_SERVER, DATA_BYTES)
    };
    let cfg = &mut exp.cluster;
    cfg.servers = SERVERS;
    cfg.clients = CLIENTS;
    cfg.ssd_capacity = 16 * MEM_PER_SERVER;
    cfg.client.resilience = ResiliencePolicy {
        deadline: Some(Duration::from_millis(5)),
        backoff_base: Duration::from_micros(50),
        backoff_cap: Duration::from_millis(2),
        ..ResiliencePolicy::default()
    };
    let ((report, msgs_lost), mut section) = on_cluster(&exp.cluster, |sim, cluster| {
        let links = cluster.links.clone();
        let crash_target = Rc::clone(&cluster.servers[0]);
        let s = sim.clone();
        // Preload on a quiet fabric; the fault schedule starts afterwards.
        let report = exp.measure(sim, cluster, move |t0| {
            for (i, link) in links.iter().enumerate() {
                let plan = FaultPlan::drops(mix_seed(seed, i as u64), DROP_PROB)
                    .with_down_window(t0 + DOWN_FROM, t0 + DOWN_UNTIL);
                link.set_fault_plan(Some(plan));
            }
            let s2 = s.clone();
            s.spawn(async move {
                s2.sleep(CRASH_AT).await;
                crash_target.crash();
                s2.sleep(RESTART_AT - CRASH_AT).await;
                crash_target.restart().await;
            });
        });
        (report, cluster.fabric_fault_stats().total_lost())
    });
    section.set_counter("msgs_lost", msgs_lost);
    (Some(report), section)
}

/// One chaos case per design.
pub const FIGURE: Figure = Figure(cases, render);

fn cases() -> Vec<Case> {
    Design::ALL
        .map(|d| Case::own(d.label(), move || run_design(d, 0xC4A0_5EED)))
        .into()
}

fn render(res: &[Done]) -> Vec<Table> {
    let mut t = Table::new(
        "resilience",
        "Goodput and p99 under chaos (1% drop, 50 ms link outage, server crash + warm restart)",
        &[
            "design",
            "goodput (ops/s)",
            "p99 (us)",
            "failed",
            "timed out",
            "msgs lost",
            "breaker trips",
            "recovered items",
        ],
    );
    for (label, o) in res {
        let r = o.report();
        // Only server 0 crashes, so the cluster sum is its recovery.
        let recovered = StoreStats::read(&o.section, "store.").recovered_items;
        t.row(vec![
            label.clone(),
            format!("{:.0}", r.goodput_ops_per_sec()),
            us(r.p99_latency_ns),
            r.failed_ops.to_string(),
            r.timed_out_ops.to_string(),
            o.section.counter("msgs_lost").to_string(),
            o.section.counter("client.breaker_trips").to_string(),
            recovered.to_string(),
        ]);
    }
    t.note(format!(
        "{CLIENTS} clients x {OPS_PER_CLIENT} ops, {SERVERS} servers, 4 KiB values, \
         data = 3x aggregate memory; fixed scale (NBKV_SCALE does not apply)."
    ));
    t.note(
        "expected: every design finishes with zero hung ops; failed ops stay within a few \
         percent (deadline + retry + breaker failover absorb the faults); hybrid designs \
         recover items from SSD after the crash, in-memory designs restart empty.",
    );
    vec![t]
}
