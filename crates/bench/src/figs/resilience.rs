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

use nbkv_core::cluster::{build_cluster, ClusterConfig};
use nbkv_core::designs::Design;
use nbkv_core::ResiliencePolicy;
use nbkv_fabric::FaultPlan;
use nbkv_simrt::{join_all, Sim};
use nbkv_workload::{preload, run_workload, AccessPattern, OpMix, RunReport, WorkloadSpec};

use crate::exp::cluster_registry;
use crate::manifest::Manifest;
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

/// What one chaos run measured, beyond the workload report.
struct ChaosOutcome {
    report: RunReport,
    msgs_lost: u64,
    breaker_trips: u64,
    recovered_items: u64,
    registry: nbkv_obs::Registry,
}

/// Decorrelate per-link seeds from a base seed (splitmix-style mix).
fn mix_seed(base: u64, idx: u64) -> u64 {
    let mut x = base ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn run_design(design: Design, seed: u64) -> ChaosOutcome {
    let sim = Sim::new();
    let mut cfg = ClusterConfig::new(design, MEM_PER_SERVER);
    cfg.servers = SERVERS;
    cfg.clients = CLIENTS;
    cfg.ssd_capacity = 16 * MEM_PER_SERVER;
    cfg.client.resilience = ResiliencePolicy {
        deadline: Some(Duration::from_millis(5)),
        backoff_base: Duration::from_micros(50),
        backoff_cap: Duration::from_millis(2),
        ..ResiliencePolicy::default()
    };
    let cluster = build_cluster(&sim, &cfg);

    let keys = (DATA_BYTES / VALUE_LEN as u64) as usize;
    let spec_template = WorkloadSpec {
        keys,
        value_len: VALUE_LEN,
        pattern: AccessPattern::Zipf(0.99),
        mix: OpMix::WRITE_HEAVY,
        ops: OPS_PER_CLIENT,
        flavor: design.flavor(),
        window: 32,
        seed: 42,
        miss_penalty: nbkv_workload::BackendDb::default_penalty(),
        recache_on_miss: true,
        batch: 0,
    };

    let clients: Vec<_> = cluster.clients.iter().map(Rc::clone).collect();
    let links = cluster.links.clone();
    let crash_target = Rc::clone(&cluster.servers[0]);
    let sim2 = sim.clone();
    let report = sim.run_until(async move {
        // Preload on a quiet fabric; the fault schedule starts afterwards.
        preload(&clients[0], keys, VALUE_LEN).await;
        let t0 = Duration::from_nanos(sim2.now().as_nanos());
        for (i, link) in links.iter().enumerate() {
            let plan = FaultPlan::drops(mix_seed(seed, i as u64), DROP_PROB)
                .with_down_window(t0 + DOWN_FROM, t0 + DOWN_UNTIL);
            link.set_fault_plan(Some(plan));
        }
        let s = sim2.clone();
        sim2.spawn(async move {
            s.sleep(CRASH_AT).await;
            crash_target.crash();
            s.sleep(RESTART_AT - CRASH_AT).await;
            crash_target.restart().await;
        });
        let tasks: Vec<_> = clients
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let c = Rc::clone(c);
                let sim = sim2.clone();
                let mut spec = spec_template;
                spec.seed = 42 + i as u64 * 1001;
                async move { run_workload(&sim, &c, &spec).await }
            })
            .collect();
        RunReport::merge(&join_all(tasks).await)
    });
    let outcome = ChaosOutcome {
        report,
        msgs_lost: cluster.fabric_fault_stats().total_lost(),
        breaker_trips: cluster.clients.iter().map(|c| c.breaker_trips()).sum(),
        recovered_items: cluster.servers[0].store().stats().recovered_items,
        registry: cluster_registry(&cluster),
    };
    sim.shutdown();
    outcome
}

/// Regenerate the chaos goodput table.
pub fn run(m: &mut Manifest) -> Vec<Table> {
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
    for design in Design::ALL {
        let o = run_design(design, 0xC4A0_5EED);
        let reg = m.record_report(design.label(), &o.report);
        reg.merge(&o.registry);
        reg.set_counter("msgs_lost", o.msgs_lost);
        reg.set_counter("breaker_trips", o.breaker_trips);
        reg.set_counter("recovered_items", o.recovered_items);
        t.row(vec![
            design.label().to_string(),
            format!("{:.0}", o.report.goodput_ops_per_sec()),
            us(o.report.p99_latency_ns),
            o.report.failed_ops.to_string(),
            o.report.timed_out_ops.to_string(),
            o.msgs_lost.to_string(),
            o.breaker_trips.to_string(),
            o.recovered_items.to_string(),
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
