//! Replication — write fan-out cost, read scale-out, and crash failover.
//!
//! The extension replicates every write asynchronously from the key's
//! primary to the next `rf - 1` ring servers (see
//! [`nbkv_core::replication`]). Acks return as soon as the primary has
//! applied the write, and replication deltas coalesce into batch
//! doorbells on dedicated server-to-server links — so RF = 2 should cost
//! almost nothing on the write path. On the read side,
//! [`ReadPolicy::SpreadReplicas`] rotates GETs across the replica set,
//! which rebalances a Zipf-skewed key space whose hot keys happen to hash
//! to the same primary.
//!
//! This table runs a small hot Zipf key space over 2 servers and 4
//! clients and reports, per configuration: throughput, goodput, tail
//! latency, and the replication counters. The final row crashes the
//! primary-heavy server mid-run (warm restart later), exercising the
//! failover path: promotions retarget its keys to the surviving replica
//! and the error window is bounded by the client deadline.

use std::time::Duration;

use nbkv_core::client::ClientStats;
use nbkv_core::cluster::CrashEvent;
use nbkv_core::designs::Design;
use nbkv_core::{ReadPolicy, ReplicationConfig, ResiliencePolicy};
use nbkv_workload::OpMix;

use crate::exp::{scaled_ops, LatencyExp};
use crate::runner::{Case, Done, Figure};
use crate::table::{us, Table};

/// 90% reads: the read-scale-out half of the story.
pub const READ_HEAVY: OpMix = OpMix { read_pct: 90 };

/// Servers in the replicated cluster.
pub const SERVERS: usize = 2;

/// Clients — two per server, enough to saturate a hot primary.
pub const CLIENTS: usize = 4;

/// Human label for a replication configuration.
pub fn policy_label(rc: ReplicationConfig) -> String {
    if !rc.is_replicated() {
        return "rf=1".to_string();
    }
    match rc.read_policy {
        ReadPolicy::PrimaryOnly => format!("rf={} primary-reads", rc.rf),
        ReadPolicy::SpreadReplicas => format!("rf={} spread-reads", rc.rf),
    }
}

/// The experiment shape: 2 servers, 4 clients, RAM-resident 1 KiB values
/// over a deliberately *small* key space (64 keys) so the Zipf(0.99) hot
/// set concentrates on one primary — the imbalance SpreadReplicas exists
/// to fix. Window 64 keeps both servers' dispatch loops busy.
fn exp(mix: OpMix, replication: ReplicationConfig) -> LatencyExp {
    let mut e = LatencyExp {
        value_len: 1 << 10,
        mix,
        ops_per_client: scaled_ops(4000),
        window: 64,
        ..LatencyExp::single(Design::HRdmaOptNonBI, 16 << 20, 64 << 10) // 64 keys of 1 KiB
    };
    e.cluster.servers = SERVERS;
    e.cluster.clients = CLIENTS;
    e.cluster.replication = replication;
    e
}

/// Resilience policy for the failover row: a short deadline so ops that
/// were in flight on the crashed server fail over quickly, plus the
/// default breaker (crash notifications force it open immediately).
pub fn failover_resilience() -> ResiliencePolicy {
    ResiliencePolicy {
        deadline: Some(Duration::from_millis(2)),
        backoff_base: Duration::from_micros(50),
        backoff_cap: Duration::from_micros(500),
        ..ResiliencePolicy::default()
    }
}

/// The scripted failover: crash server 0 a third of the way into the
/// measured phase, warm-restart it two thirds in (times are anchored to
/// the end of the preload by [`LatencyExp::run`]).
pub fn failover_crash(ops_per_client: usize) -> CrashEvent {
    // This shape sustains ~5-6 aggregate ops/us at window 64; estimate
    // the run optimistically fast so the crash always lands mid-run even
    // if the cluster outpaces the estimate.
    let est_us = (ops_per_client * CLIENTS) as u64 / 6;
    CrashEvent {
        server: 0,
        at: Duration::from_micros(est_us / 3),
        restart_at: Some(Duration::from_micros(2 * est_us / 3)),
    }
}

/// Pinned small shape shared with `regress_replication`: 8 MiB memory,
/// 64 RAM-resident 1 KiB keys, 600 ops per client, independent of
/// `NBKV_SCALE`.
pub fn small(mix: OpMix, rc: ReplicationConfig) -> LatencyExp {
    let mut e = exp(mix, rc);
    // The OS cache follows memory (8x) as in `ClusterConfig::new`; the SSD keeps its size.
    e.cluster.server_mem_bytes = 8 << 20;
    e.cluster.os_cache_bytes = 8 * e.cluster.server_mem_bytes;
    e.ops_per_client = 600;
    e
}

/// Each row: the mix, the replication configuration, and whether the
/// primary crashes mid-run (`regress_replication` runs the same rows).
pub fn rows() -> [(OpMix, ReplicationConfig, bool); 5] {
    let (rf1, rf2) = (ReplicationConfig::disabled(), ReplicationConfig::default());
    let spread = ReplicationConfig {
        rf: 2,
        read_policy: ReadPolicy::SpreadReplicas,
    };
    [
        (OpMix::WRITE_HEAVY, rf1, false),
        (OpMix::WRITE_HEAVY, rf2, false),
        (READ_HEAVY, rf2, false),
        (READ_HEAVY, spread, false),
        (OpMix::WRITE_HEAVY, rf2, true),
    ]
}

/// `e` with server 0 crashing mid-run, when `crash`.
pub fn with_crash(mut e: LatencyExp, crash: bool) -> LatencyExp {
    if crash {
        e.crash = Some(failover_crash(e.ops_per_client));
        e.cluster.client.resilience = failover_resilience();
    }
    e
}

/// One case per row.
pub const FIGURE: Figure = Figure(cases, render);

fn cases() -> Vec<Case> {
    let case = |(mix, rc, crash): (OpMix, ReplicationConfig, bool)| {
        let failover = if crash { "/failover" } else { "" };
        let label = format!("{}/{}{failover}", mix.label(), policy_label(rc));
        Case::latency(label, with_crash(exp(mix, rc), crash))
    };
    rows().map(case).into()
}

fn render(res: &[Done]) -> Vec<Table> {
    let mut t = Table::new(
        "replication",
        "Primary-replica replication: RF cost, read scale-out, failover \
         (2 servers, 4 clients, 1 KiB values, 64-key Zipf 0.99)",
        &[
            "mix",
            "config",
            "kops/s",
            "goodput",
            "e2e p99",
            "repl-lag",
            "replica-reads",
            "promotions",
            "failed",
        ],
    );
    for ((mix, rc, crash), (_, o)) in rows().into_iter().zip(res) {
        let (report, reg) = (o.report(), &o.section);
        let client = ClientStats::read(reg, "client.");
        let crashed = if crash { " + crash" } else { "" };
        t.row(vec![
            mix.label(),
            format!("{}{crashed}", policy_label(rc)),
            format!("{:.0}", report.throughput_ops_per_sec() / 1e3),
            format!("{:.0}", report.goodput_ops_per_sec() / 1e3),
            us(report.phases.e2e.p99()),
            reg.gauge("server.repl_lag_ops").to_string(),
            client.replica_reads.to_string(),
            client.promotions.to_string(),
            report.failed_ops.to_string(),
        ]);
    }
    t.note(
        "expected: async replication keeps rf=2 write-heavy throughput within a few \
         percent of rf=1 (acks return after the primary applies; deltas ride \
         server-to-server batch doorbells).",
    );
    t.note(
        "expected: the 64-key Zipf hot set lands mostly on one primary, so \
         primary-only reads bottleneck on it; spread-reads rebalances across both \
         replicas for a >= 1.2x read-heavy throughput win.",
    );
    t.note(
        "expected: the failover row crashes the hot primary mid-run — promotions \
         retarget its keys to the survivor, failures stay bounded by the 2 ms \
         deadline window, and the warm restart demotes traffic back.",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replication acceptance, write half: asynchronous RF = 2 must stay
    /// within 10% of the single-copy write-heavy throughput, while
    /// actually replicating (every applied delta acked, zero loss).
    #[test]
    fn rf2_write_throughput_within_10pct_of_rf1() {
        let (r1, _) = small(OpMix::WRITE_HEAVY, ReplicationConfig::disabled()).run();
        let (r2, reg2) = small(OpMix::WRITE_HEAVY, ReplicationConfig::default()).run();
        assert_eq!(r1.ops, 600 * CLIENTS);
        assert_eq!(r2.ops, 600 * CLIENTS);
        assert_eq!(r1.failed_ops, 0);
        assert_eq!(r2.failed_ops, 0);
        assert!(reg2.counter("server.repl_sent") > 0, "nothing replicated");
        // Teardown races the final doorbell: the last in-flight batch may
        // not be acked when the last client op completes.
        let unacked = reg2.counter("server.repl_sent") - reg2.counter("server.repl_acked");
        assert!(
            unacked <= 32,
            "replication backlog at teardown exceeds one in-flight batch round: {unacked}"
        );
        assert!(reg2.counter("store.repl_applied") > 0, "nothing applied");
        let ratio = r2.throughput_ops_per_sec() / r1.throughput_ops_per_sec();
        assert!(
            ratio >= 0.90,
            "rf=2 write-heavy throughput fell more than 10% below rf=1: {ratio:.3} \
             ({:.0} vs {:.0} ops/s)",
            r2.throughput_ops_per_sec(),
            r1.throughput_ops_per_sec()
        );
    }

    /// Replication acceptance, read half: on the hot-key read-heavy mix,
    /// spreading reads across both replicas must beat primary-only reads
    /// by at least 1.2x, and the win must come from replica reads.
    #[test]
    fn spread_reads_beat_primary_reads_on_hot_keys() {
        let (rp, rp_reg) = small(READ_HEAVY, ReplicationConfig::default()).run();
        let spread = ReplicationConfig {
            rf: 2,
            read_policy: ReadPolicy::SpreadReplicas,
        };
        let (rs, rs_reg) = small(READ_HEAVY, spread).run();
        assert_eq!(rp.failed_ops, 0);
        assert_eq!(rs.failed_ops, 0);
        assert_eq!(rp_reg.counter("client.replica_reads"), 0);
        assert!(
            rs_reg.counter("client.replica_reads") > 0,
            "spread policy never read a non-primary replica"
        );
        let speedup = rs.throughput_ops_per_sec() / rp.throughput_ops_per_sec();
        assert!(
            speedup >= 1.2,
            "spread-reads must beat primary-reads by >= 1.2x on the hot-key mix, \
             got {speedup:.2}x ({:.0} vs {:.0} ops/s)",
            rs.throughput_ops_per_sec(),
            rp.throughput_ops_per_sec()
        );
    }

    /// The failover row: crashing the primary mid-run promotes its keys
    /// to the survivor, failures stay inside the deadline-bounded window,
    /// and the run completes every op.
    #[test]
    fn failover_row_promotes_and_recovers() {
        let e = with_crash(
            small(OpMix::WRITE_HEAVY, ReplicationConfig::default()),
            true,
        );
        let (report, reg) = e.run();
        assert_eq!(report.ops, 600 * CLIENTS);
        assert!(reg.counter("client.promotions") > 0, "no failover happened");
        // Every client can lose at most its in-flight window to the crash
        // (failed attempts retry on the survivor; only ops that burn every
        // attempt inside the outage fail).
        assert!(
            report.failed_ops <= (CLIENTS * 64) as u64,
            "more failures than one in-flight window per client: {}",
            report.failed_ops
        );
        assert!(report.goodput_ops_per_sec() > 0.0);
    }
}
