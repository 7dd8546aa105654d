//! Doorbell batching — per-op vs. batched issue across designs.
//!
//! Small-value traffic is dominated by per-message overhead: the client's
//! descriptor post + doorbell ring, per-message NIC CPU on both ends, and
//! the server's dispatch charge. Coalescing N small ops into one
//! [`nbkv_core::Request`] batch frame pays each of those once per frame
//! instead of once per op. This table runs the same read-only 512 B
//! workload with per-op issue and with doorbell batching (group 64,
//! default [`nbkv_core::BatchPolicy`]) and reports the wire-level and
//! latency consequences.
//!
//! The blocking design appears as a per-op baseline only: its API waits
//! out every round trip, so there is never more than one op to coalesce.

use nbkv_core::designs::Design;
use nbkv_fabric::LinkStats;
use nbkv_obs::Registry;
use nbkv_workload::{OpMix, RunReport};

use crate::exp::{scaled_bytes, scaled_ops, LatencyExp};
use crate::manifest::Manifest;
use crate::table::{us, Table};

/// Batched issue group size (ops issued between doorbell rings).
const GROUP: usize = 64;

/// The experiment shape: 4 servers, one client, RAM-resident 512 B
/// values, read-only — the small-message regime where wire overhead
/// dominates and batching has the most to amortize.
fn exp(design: Design, batch: usize) -> LatencyExp {
    let mem = scaled_bytes(64 << 20);
    let mut e = LatencyExp {
        value_len: 512,
        mix: OpMix::READ_ONLY,
        ops_per_client: scaled_ops(4000),
        window: 256,
        batch,
        ..LatencyExp::single(design, mem, mem / 2)
    };
    e.cluster.servers = 4;
    e
}

fn run_mode(m: &mut Manifest, design: Design, batch: usize) -> (RunReport, Registry) {
    let label = if batch > 1 {
        format!("{}/batched", design.label())
    } else {
        format!("{}/per-op", design.label())
    };
    let (report, cluster_reg) = exp(design, batch).run_obs();
    let reg = m.record_report(&label, &report);
    reg.merge(&cluster_reg);
    (report, cluster_reg)
}

/// Regenerate the doorbell-batching comparison table.
pub fn run(m: &mut Manifest) -> Vec<Table> {
    let mut t = Table::new(
        "batch",
        "Doorbell batching: per-op vs batched issue (512 B values, read-only, 4 servers)",
        &[
            "design",
            "issue",
            "e2e mean",
            "e2e p99",
            "measured msgs",
            "ops/frame",
            "kops/s",
        ],
    );
    let cases: [(Design, usize); 5] = [
        (Design::HRdmaOptBlock, 0),
        (Design::HRdmaOptNonBB, 0),
        (Design::HRdmaOptNonBB, GROUP),
        (Design::HRdmaOptNonBI, 0),
        (Design::HRdmaOptNonBI, GROUP),
    ];
    for (design, batch) in cases {
        let (report, reg) = run_mode(m, design, batch);
        let ops_per_frame = reg
            .hist("client.ops_per_batch")
            .map(|h| h.mean().to_string())
            .unwrap_or_else(|| "1".to_string());
        // The preload is per-op blocking sets — exactly two fabric
        // messages per key — so subtracting it isolates the measured
        // phase's wire traffic.
        let preload_msgs = 2 * exp(design, batch).keys() as u64;
        let measured_msgs = LinkStats::read(&reg, "fabric.")
            .messages
            .saturating_sub(preload_msgs);
        t.row(vec![
            design.label().to_string(),
            if batch > 1 {
                format!("batched({batch})")
            } else {
                "per-op".to_string()
            },
            us(report.mean_latency_ns),
            us(report.phases.e2e.p99()),
            measured_msgs.to_string(),
            ops_per_frame,
            format!("{:.0}", report.throughput_ops_per_sec() / 1e3),
        ]);
    }
    t.note(
        "expected: batched issue collapses fabric messages by roughly the mean \
         ops/frame on the request path (responses coalesce per completion wave) and \
         lowers mean latency — descriptor post, per-message NIC CPU, and the server \
         dispatch charge are paid once per frame.",
    );
    t.note(
        "the blocking design cannot batch (one outstanding op by construction) and \
         is shown as the per-op baseline only.",
    );
    vec![t]
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use bytes::Bytes;
    use nbkv_core::cluster::{build_cluster, ClusterConfig};
    use nbkv_core::{BatchPolicy, Ring};
    use nbkv_simrt::Sim;

    use super::*;

    const KEYS: usize = 64;
    const SERVERS: usize = 4;

    fn key(i: usize) -> Bytes {
        Bytes::from(format!("key-{i:04}"))
    }

    /// Preload 64 keys, then `get_multi` them all, returning the mean
    /// end-to-end latency and the request-frame count per server (delta
    /// over the measured phase, from the client->server link counters).
    fn run_get_multi(design: Design, batched: bool) -> (f64, Vec<u64>) {
        let sim = Sim::new();
        let mut cfg = ClusterConfig::new(design, 64 << 20);
        cfg.servers = SERVERS;
        if batched {
            cfg.client.batch = Some(BatchPolicy::default());
        }
        let cluster = build_cluster(&sim, &cfg);
        let client = Rc::clone(&cluster.clients[0]);

        let c = Rc::clone(&client);
        sim.run_until(async move {
            for i in 0..KEYS {
                let done = c
                    .set(key(i), Bytes::from(vec![b'v'; 512]), 0, None)
                    .await
                    .unwrap();
                assert!(done.is_success());
            }
        });
        // links[2*si] is client 0's request link to server si.
        let before: Vec<u64> = (0..SERVERS)
            .map(|si| cluster.links[2 * si].stats().messages)
            .collect();

        let c = Rc::clone(&client);
        let s = sim.clone();
        let mean = sim.run_until(async move {
            let keys: Vec<Bytes> = (0..KEYS).map(key).collect();
            // The burst's end-to-end latency: the application asks for all
            // 64 keys *now*, so each member is measured from the
            // `get_multi` call — per-op issue serializes descriptor posts
            // (one doorbell per op) and that delay is part of what the
            // caller experiences.
            let start = s.now();
            let comps = c.get_multi(keys).await.unwrap();
            assert_eq!(comps.len(), KEYS);
            for comp in &comps {
                assert!(comp.is_success(), "get_multi member failed: {comp:?}");
            }
            let total: u64 = comps
                .iter()
                .map(|comp| comp.completed_at.saturating_since(start).as_nanos() as u64)
                .sum();
            total as f64 / comps.len() as f64
        });
        let frames: Vec<u64> = (0..SERVERS)
            .map(|si| cluster.links[2 * si].stats().messages - before[si])
            .collect();
        sim.shutdown();
        (mean, frames)
    }

    /// The tentpole acceptance check, for both non-blocking designs: a
    /// batched 64-key `get_multi` over 4 servers posts at most
    /// ceil(keys_for_server / max_ops) request frames per server (vs one
    /// frame per key unbatched) and completes with lower mean end-to-end
    /// virtual-time latency than the per-op path.
    #[test]
    fn batched_get_multi_coalesces_and_wins() {
        // Per-server key share under the same consistent-hash ring the
        // client uses.
        let ring = Ring::new(SERVERS);
        let mut assigned = [0u64; SERVERS];
        for i in 0..KEYS {
            assigned[ring.select(&key(i))] += 1;
        }
        assert_eq!(assigned.iter().sum::<u64>(), KEYS as u64);

        let max_ops = BatchPolicy::default().max_ops as u64;
        for design in [Design::HRdmaOptNonBB, Design::HRdmaOptNonBI] {
            let (mean_perop, frames_perop) = run_get_multi(design, false);
            let (mean_batched, frames_batched) = run_get_multi(design, true);
            for si in 0..SERVERS {
                assert_eq!(
                    frames_perop[si],
                    assigned[si],
                    "{}: per-op issue must post one frame per key on server {si}",
                    design.label()
                );
                let bound = assigned[si].div_ceil(max_ops);
                assert!(
                    frames_batched[si] <= bound,
                    "{}: server {si} saw {} batched frames for {} keys (bound {bound})",
                    design.label(),
                    frames_batched[si],
                    assigned[si]
                );
            }
            assert!(
                mean_batched < mean_perop,
                "{}: batched mean e2e {mean_batched:.0} ns must beat per-op {mean_perop:.0} ns",
                design.label()
            );
        }
    }

    /// The figure harness itself: batching shrinks total fabric traffic
    /// and records a meaningful ops-per-frame distribution.
    #[test]
    fn batched_run_reduces_fabric_messages() {
        let small = |batch| {
            let mut e = exp(Design::HRdmaOptNonBI, batch);
            // The OS cache follows memory (8x) as in `ClusterConfig::new`; the SSD keeps its size.
            e.cluster.server_mem_bytes = 8 << 20;
            e.cluster.os_cache_bytes = 8 * e.cluster.server_mem_bytes;
            e.data_bytes = 4 << 20;
            e.ops_per_client = 600;
            e
        };
        let (perop_report, perop_reg) = small(0).run_obs();
        let (batched_report, batched_reg) = small(GROUP).run_obs();
        assert_eq!(perop_report.ops, 600);
        assert_eq!(batched_report.ops, 600);
        // Both runs share the same per-op preload traffic; batching must
        // save at least one fabric message per *measured* op on top of it.
        let saved = perop_reg
            .counter("fabric.messages")
            .saturating_sub(batched_reg.counter("fabric.messages"));
        assert!(
            saved >= perop_report.ops as u64,
            "batching saved only {saved} fabric messages over {} measured ops ({} vs {})",
            perop_report.ops,
            batched_reg.counter("fabric.messages"),
            perop_reg.counter("fabric.messages")
        );
        let hist = batched_reg.hist("client.ops_per_batch").expect("ops/frame");
        assert!(hist.mean() >= 2, "mean ops/frame {} too low", hist.mean());
        assert!(batched_reg.counter("client.batches_sent") > 0);
        assert!(batched_reg.counter("server.batches") > 0);
        assert!(perop_reg.counter("client.batches_sent") == 0);
    }
}
