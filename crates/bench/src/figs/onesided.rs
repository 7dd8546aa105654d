//! One-sided GETs — always-RPC vs always-direct vs adaptive switching.
//!
//! The server publishes a seqlock-versioned index + value arena as an
//! RDMA-readable window; clients can then serve a GET with two chained
//! one-sided reads (descriptor, then value) and never touch the server
//! CPU. A direct read costs two full round trips, so it *loses* to an
//! unloaded RPC (one round trip plus a cheap dispatch) — but under load
//! the RPC path serializes behind the server's dispatch loop while
//! one-sided reads bypass it entirely. The adaptive policy watches a
//! per-server RPC-latency EWMA plus the server's piggybacked queue-depth
//! hint and flips between the two regimes with hysteresis, probing RPC
//! periodically so it can flip back.
//!
//! This table runs a 1 KiB Zipf(0.99) workload at window 64 in a
//! read-heavy (90:10) and a write-heavy (50:50) mix under all three
//! policies and reports latency, throughput, and the direct-path
//! counters.

use nbkv_core::client::ClientStats;
use nbkv_core::designs::Design;
use nbkv_core::{DirectPolicy, OneSidedConfig};
use nbkv_obs::Registry;
use nbkv_workload::{OpMix, RunReport};

use crate::exp::{scaled_bytes, scaled_ops, LatencyExp};
use crate::manifest::Manifest;
use crate::table::{us, Table};

/// 90% reads: enough writes to keep the published window churning.
pub const READ_HEAVY: OpMix = OpMix { read_pct: 90 };

/// Human label for a direct-read policy.
pub fn policy_label(p: DirectPolicy) -> &'static str {
    match p {
        DirectPolicy::Off => "always-rpc",
        DirectPolicy::Always => "always-direct",
        DirectPolicy::Adaptive => "adaptive",
    }
}

/// The experiment shape: one server, one client, RAM-resident 1 KiB
/// values, non-blocking window 64 — deep enough that the RPC path queues
/// behind the server dispatch loop. The published window gets 4 buckets
/// per key so fingerprint collisions stay off the critical path.
fn exp(mix: OpMix, direct: DirectPolicy) -> LatencyExp {
    let mem = scaled_bytes(64 << 20);
    let data = scaled_bytes(8 << 20);
    let mut e = LatencyExp {
        value_len: 1 << 10,
        mix,
        ops_per_client: scaled_ops(4000),
        window: 64,
        ..LatencyExp::single(Design::HRdmaOptNonBI, mem, data)
    };
    e.cluster.client.direct = direct;
    e.cluster.onesided = Some(OneSidedConfig {
        buckets: (e.keys() * 4).next_power_of_two(),
        value_cap: 1536,
    });
    e
}

fn run_case(m: &mut Manifest, mix: OpMix, direct: DirectPolicy) -> (RunReport, Registry) {
    let label = format!("{}/{}", mix.label(), policy_label(direct));
    let (report, cluster_reg) = exp(mix, direct).run_obs();
    let reg = m.record_report(&label, &report);
    reg.merge(&cluster_reg);
    (report, cluster_reg)
}

/// Regenerate the one-sided GET comparison table.
pub fn run(m: &mut Manifest) -> Vec<Table> {
    let mut t = Table::new(
        "onesided",
        "One-sided GETs: RPC vs direct reads vs adaptive (1 KiB values, Zipf 0.99, window 64)",
        &[
            "mix", "policy", "e2e mean", "e2e p99", "kops/s", "direct", "stale", "ssd-fb", "flips",
        ],
    );
    for mix in [READ_HEAVY, OpMix::WRITE_HEAVY] {
        for direct in [
            DirectPolicy::Off,
            DirectPolicy::Always,
            DirectPolicy::Adaptive,
        ] {
            let (report, reg) = run_case(m, mix, direct);
            let client = ClientStats::read(&reg, "client.");
            t.row(vec![
                mix.label(),
                policy_label(direct).to_string(),
                us(report.mean_latency_ns),
                us(report.phases.e2e.p99()),
                format!("{:.0}", report.throughput_ops_per_sec() / 1e3),
                client.direct_hits.to_string(),
                client.stale_retries.to_string(),
                client.ssd_fallbacks.to_string(),
                client.mode_flips.to_string(),
            ]);
        }
    }
    t.note(
        "expected: read-heavy at window 64 queues the RPC path behind the server \
         dispatch loop, so direct reads win on throughput; adaptive flips to direct \
         after the first loaded responses and tracks always-direct (minus periodic \
         RPC probes).",
    );
    t.note(
        "expected: write-heavy keeps the server on the SET path either way; adaptive \
         must stay within a few percent of always-RPC, and stale retries appear when \
         an overwrite lands between the two chained reads.",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinned small shape shared with `regress_onesided`: 8 MiB memory,
    /// RAM-resident 4 MiB of 1 KiB values, 600 ops.
    fn small(mix: OpMix, direct: DirectPolicy) -> LatencyExp {
        let mut e = exp(mix, direct);
        // The OS cache follows memory (8x) as in `ClusterConfig::new`; the SSD keeps its size.
        e.cluster.server_mem_bytes = 8 << 20;
        e.cluster.os_cache_bytes = 8 * e.cluster.server_mem_bytes;
        e.data_bytes = 4 << 20;
        e.ops_per_client = 600;
        e.cluster.onesided = Some(OneSidedConfig {
            buckets: (e.keys() * 4).next_power_of_two(),
            value_cap: 1536,
        });
        e
    }

    /// The tentpole acceptance check, read-heavy half: on a read-heavy
    /// Zipf mix at the pinned regress scale, adaptive switching must beat
    /// the always-RPC baseline by at least 1.3x in throughput, and the
    /// win must come from the direct path (hits recorded, mode flipped).
    #[test]
    fn adaptive_beats_always_rpc_on_read_heavy_zipf() {
        let (rpc, rpc_reg) = small(READ_HEAVY, DirectPolicy::Off).run_obs();
        let (ad, ad_reg) = small(READ_HEAVY, DirectPolicy::Adaptive).run_obs();
        assert_eq!(rpc.ops, 600);
        assert_eq!(ad.ops, 600);
        assert_eq!(rpc_reg.counter("client.direct_hits"), 0);
        assert!(ad_reg.counter("client.direct_hits") > 0, "no direct hits");
        assert!(ad_reg.counter("client.mode_flips") >= 1, "never flipped");
        let speedup = ad.throughput_ops_per_sec() / rpc.throughput_ops_per_sec();
        assert!(
            speedup >= 1.3,
            "adaptive must beat always-RPC by >= 1.3x on read-heavy Zipf, got {speedup:.2}x \
             ({:.0} vs {:.0} ops/s)",
            ad.throughput_ops_per_sec(),
            rpc.throughput_ops_per_sec()
        );
    }

    /// The tentpole acceptance check, write-heavy half: with the server
    /// dominated by SETs, adaptive must stay within 5% of always-RPC
    /// throughput (it may also win — direct GETs offload the server).
    #[test]
    fn adaptive_stays_within_5pct_of_rpc_on_write_heavy() {
        let (rpc, _) = small(OpMix::WRITE_HEAVY, DirectPolicy::Off).run_obs();
        let (ad, _) = small(OpMix::WRITE_HEAVY, DirectPolicy::Adaptive).run_obs();
        let ratio = ad.throughput_ops_per_sec() / rpc.throughput_ops_per_sec();
        assert!(
            ratio >= 0.95,
            "adaptive write-heavy throughput fell more than 5% below always-RPC: {ratio:.3} \
             ({:.0} vs {:.0} ops/s)",
            ad.throughput_ops_per_sec(),
            rpc.throughput_ops_per_sec()
        );
    }

    /// The figure harness itself: always-direct serves reads one-sided
    /// (hits plus accounted fallbacks cover every read), and the Off
    /// baseline never touches the window.
    #[test]
    fn direct_counters_account_for_the_read_path() {
        let (report, reg) = small(READ_HEAVY, DirectPolicy::Always).run_obs();
        assert_eq!(report.ops, 600);
        let c = ClientStats::read(&reg, "client.");
        assert!(c.direct_hits > 0, "always-direct recorded no direct hits");
        assert!(
            c.direct_hits + c.stale_retries + c.ssd_fallbacks + c.direct_lost
                <= report.ops as u64 * 2,
            "direct-path counters exceed the op count"
        );
        assert_eq!(c.timeouts, 0);
    }
}
