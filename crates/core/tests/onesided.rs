//! Integration tests of the server-bypass one-sided GET path: the window
//! lease handshake, direct reads through a cluster, SSD/eviction
//! invalidation, chaos fallback, and the adaptive RPC/direct switch.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use nbkv_core::cluster::{build_cluster, ClusterConfig};
use nbkv_core::designs::Design;
use nbkv_core::proto::OpStatus;
use nbkv_core::DirectPolicy;
use nbkv_fabric::FaultPlan;
use nbkv_simrt::Sim;

fn key(i: usize) -> Bytes {
    Bytes::from(format!("key-{i:05}"))
}

fn direct_cfg(design: Design, mem: u64, policy: DirectPolicy) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(design, mem);
    cfg.client.direct = policy;
    cfg
}

/// With `DirectPolicy::Always`, a GET of a RAM-resident key is served by
/// one-sided reads — correct value, correct flags, and the hit counted.
#[test]
fn always_direct_get_round_trips_value_and_flags() {
    let sim = Sim::new();
    let cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Always);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    sim.run_until(async move {
        let c = client
            .set(
                Bytes::from_static(b"k"),
                Bytes::from_static(b"hello"),
                7,
                None,
            )
            .await
            .unwrap();
        assert_eq!(c.status, OpStatus::Stored);
        let g = client.get(Bytes::from_static(b"k")).await.unwrap();
        assert_eq!(g.status, OpStatus::Hit);
        assert_eq!(&g.value.unwrap()[..], b"hello");
        assert_eq!(g.flags, 7);
        let stats = client.stats();
        assert_eq!(stats.direct_hits, 1, "served one-sided: {stats:?}");
    });
}

/// The non-blocking flavours (`iget`/`bget`) take the direct path too and
/// complete through their handles.
#[test]
fn nonblocking_gets_complete_through_the_direct_path() {
    let sim = Sim::new();
    let cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Always);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    sim.run_until(async move {
        let mut handles = Vec::new();
        for i in 0..32 {
            let c = client
                .set(key(i), Bytes::from(vec![i as u8; 64]), 0, None)
                .await
                .unwrap();
            assert_eq!(c.status, OpStatus::Stored);
        }
        for i in 0..32 {
            if i % 2 == 0 {
                handles.push(client.iget(key(i)).await.unwrap());
            } else {
                handles.push(client.bget(key(i)).await.unwrap());
            }
        }
        for (i, h) in handles.iter().enumerate() {
            let c = h.wait().await;
            assert_eq!(c.status, OpStatus::Hit, "key {i}");
            assert_eq!(&c.value.unwrap()[..], &vec![i as u8; 64][..], "key {i}");
        }
        let stats = client.stats();
        assert_eq!(stats.direct_hits, 32, "all served one-sided: {stats:?}");
        assert_eq!(client.outstanding(), 0);
    });
}

/// A GET of a missing key falls back to RPC and reports a Miss — the
/// direct path must not fabricate answers.
#[test]
fn direct_miss_falls_back_to_rpc() {
    let sim = Sim::new();
    let cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Always);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    sim.run_until(async move {
        let g = client.get(Bytes::from_static(b"absent")).await.unwrap();
        assert_eq!(g.status, OpStatus::Miss);
    });
}

/// Slab eviction to SSD invalidates the in-RAM bit: direct readers fall
/// back to RPC (which serves from SSD) and count the fallback — stale RAM
/// offsets are never returned.
#[test]
fn evicted_keys_fall_back_to_rpc_and_stay_correct() {
    let sim = Sim::new();
    // A tiny RAM budget over a large data set forces eviction to SSD.
    let mut cfg = direct_cfg(Design::HRdmaOptNonBI, 1 << 20, DirectPolicy::Always);
    cfg.ssd_capacity = 64 << 20;
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let server = Rc::clone(&cluster.servers[0]);
    sim.run_until(async move {
        let n = 2048;
        for i in 0..n {
            let c = client
                .set(key(i), Bytes::from(vec![(i % 251) as u8; 1024]), 0, None)
                .await
                .unwrap();
            assert_eq!(c.status, OpStatus::Stored, "set {i}");
        }
        assert!(
            server.store().stats().flushed_pages > 0,
            "scenario must evict to SSD: {:?}",
            server.store().stats()
        );
        // Read everything back — evicted keys must come back correct via
        // the RPC fallback, resident ones via direct reads.
        for i in 0..n {
            let g = client.get(key(i)).await.unwrap();
            assert_eq!(g.status, OpStatus::Hit, "get {i}");
            assert_eq!(&g.value.unwrap()[..], &vec![(i % 251) as u8; 1024][..]);
        }
        let stats = client.stats();
        assert!(stats.direct_hits > 0, "some keys stay resident: {stats:?}");
        assert!(
            stats.ssd_fallbacks > 0,
            "evicted keys detected by the in-RAM bit: {stats:?}"
        );
    });
}

/// Satellite: chaos test. With a fault plan dropping every one-sided read
/// completion, direct GETs fall back to RPC within the resilience
/// deadline — no hangs, correct values, losses accounted.
#[test]
fn dropped_read_completions_fall_back_within_the_deadline() {
    let sim = Sim::new();
    let mut cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Always);
    cfg.client.resilience.deadline = Some(Duration::from_millis(2));
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let sim2 = sim.clone();
    sim.run_until(async move {
        let c = client
            .set(Bytes::from_static(b"k"), Bytes::from_static(b"v"), 0, None)
            .await
            .unwrap();
        assert_eq!(c.status, OpStatus::Stored);
        // Warm the lease, then kill every subsequent one-sided completion.
        let g = client.get(Bytes::from_static(b"k")).await.unwrap();
        assert_eq!(g.status, OpStatus::Hit);
        client.set_onesided_faults(Some(FaultPlan::drops(7, 1.0)));
        for _ in 0..8 {
            let t0 = sim2.now();
            let g = client.get(Bytes::from_static(b"k")).await.unwrap();
            assert_eq!(g.status, OpStatus::Hit);
            assert_eq!(&g.value.clone().unwrap()[..], b"v");
            // Fallback must begin within a fraction of the deadline and
            // the whole op must finish inside one deadline budget.
            assert!(
                sim2.now().saturating_since(t0) <= Duration::from_millis(2),
                "fallback exceeded the deadline"
            );
        }
        let stats = client.stats();
        assert!(stats.direct_lost >= 8, "losses accounted: {stats:?}");
        assert_eq!(stats.timeouts, 0, "RPC fallback never timed out");
        assert_eq!(client.outstanding(), 0, "nothing leaked");
    });
}

/// Adaptive policy on an unloaded single-inflight workload: RPC wins
/// (one round trip beats two), so no GET should go direct.
#[test]
fn adaptive_stays_on_rpc_when_unloaded() {
    let sim = Sim::new();
    let cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Adaptive);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    sim.run_until(async move {
        let c = client
            .set(Bytes::from_static(b"k"), Bytes::from_static(b"v"), 0, None)
            .await
            .unwrap();
        assert_eq!(c.status, OpStatus::Stored);
        for _ in 0..64 {
            let g = client.get(Bytes::from_static(b"k")).await.unwrap();
            assert_eq!(g.status, OpStatus::Hit);
        }
        let stats = client.stats();
        assert_eq!(
            stats.direct_hits, 0,
            "unloaded RPC beats two-RTT direct reads: {stats:?}"
        );
    });
}

/// Adaptive policy under a deep non-blocking burst: queued dispatch
/// inflates RPC latency past the two-RTT direct cost, so the engine
/// flips to direct reads for the bulk of the burst.
#[test]
fn adaptive_switches_to_direct_under_load() {
    let sim = Sim::new();
    let cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Adaptive);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    sim.run_until(async move {
        for i in 0..16 {
            client
                .set(key(i), Bytes::from(vec![i as u8; 256]), 0, None)
                .await
                .unwrap();
        }
        // Repeated deep bursts: every op in a burst is outstanding at
        // once, so RPC responses report a growing queue depth and
        // observed latencies far beyond the direct-read cost.
        for _round in 0..20 {
            let mut handles = Vec::new();
            for i in 0..16 {
                for _ in 0..16 {
                    handles.push(client.iget(key(i)).await.unwrap());
                }
            }
            for h in &handles {
                let c = h.wait().await;
                assert_eq!(c.status, OpStatus::Hit);
            }
        }
        let stats = client.stats();
        assert!(
            stats.direct_hits > 0,
            "load must push the adaptive policy to direct reads: {stats:?}"
        );
        assert!(stats.mode_flips >= 1, "at least one flip: {stats:?}");
    });
}

/// Overwrites invalidate-then-republish: direct reads racing a stream of
/// SETs to the same key always observe one of the written values, never
/// a torn mix (end-to-end seqlock check).
#[test]
fn overwrite_stream_never_tears_direct_reads() {
    let sim = Sim::new();
    let cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Always);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let writer = Rc::clone(&cluster.clients[0]);
    let sim2 = sim.clone();
    sim.run_until(async move {
        writer
            .set(
                Bytes::from_static(b"hot"),
                Bytes::from(vec![1u8; 100]),
                1,
                None,
            )
            .await
            .unwrap();
        let w = sim2.spawn(async move {
            for v in 2u8..40 {
                let value = Bytes::from(vec![v; v as usize * 5]);
                writer
                    .set(Bytes::from_static(b"hot"), value, v as u32, None)
                    .await
                    .unwrap();
            }
        });
        for _ in 0..60 {
            let g = client.get(Bytes::from_static(b"hot")).await.unwrap();
            assert_eq!(g.status, OpStatus::Hit);
            let value = g.value.unwrap();
            let fill = value[0];
            assert!(value.iter().all(|&b| b == fill), "torn value");
            let expected_len = if fill == 1 { 100 } else { fill as usize * 5 };
            assert_eq!(value.len(), expected_len, "stale length accepted");
        }
        w.await;
    });
}

/// `DirectPolicy::Off` publishes no window and wires no queue pairs —
/// the legacy path is untouched.
#[test]
fn off_policy_never_reads_one_sided() {
    let sim = Sim::new();
    let cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 16 << 20);
    let cluster = build_cluster(&sim, &cfg);
    assert!(cluster.servers[0].onesided().is_none());
    let client = Rc::clone(&cluster.clients[0]);
    sim.run_until(async move {
        client
            .set(Bytes::from_static(b"k"), Bytes::from_static(b"v"), 0, None)
            .await
            .unwrap();
        let g = client.get(Bytes::from_static(b"k")).await.unwrap();
        assert_eq!(g.status, OpStatus::Hit);
        let stats = client.stats();
        assert_eq!(
            stats.direct_hits + stats.stale_retries + stats.ssd_fallbacks,
            0
        );
    });
}

/// Poll budget of the direct-read path: a read-heavy closed loop keeping
/// 64 ops in flight on one client. Every direct read waits on the shared
/// send CQ for its own work request; a completion wakes only that waiter,
/// so polls per op stay flat in the window. A completion that woke every
/// pending reader would cost ~30 polls per op here; it costs ~7.
#[test]
fn direct_reads_keep_a_flat_poll_budget_at_window_64() {
    const KEYS: usize = 256;
    const WINDOW: usize = 64;
    const OPS: usize = 4_000;
    let sim = Sim::new();
    let cfg = direct_cfg(Design::HRdmaOptNonBI, 16 << 20, DirectPolicy::Always);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let sim2 = sim.clone();
    let (polls, stats) = sim.run_until(async move {
        for i in 0..KEYS {
            let c = client
                .set(key(i), Bytes::from(vec![i as u8; 1024]), 0, None)
                .await
                .unwrap();
            assert_eq!(c.status, OpStatus::Stored);
        }
        let before = sim2.stats().polls;
        let mut inflight = std::collections::VecDeque::with_capacity(WINDOW);
        for op in 0..OPS {
            if inflight.len() == WINDOW {
                let h: nbkv_core::ReqHandle = inflight.pop_front().unwrap();
                assert!(h.wait().await.is_success());
            }
            let k = key(op * 7919 % KEYS);
            let h = if op % 10 == 9 {
                let value = Bytes::from(vec![op as u8; 1024]);
                client.iset(k, value, 0, None).await
            } else {
                client.iget(k).await
            };
            inflight.push_back(h.unwrap());
        }
        for h in inflight {
            assert!(h.wait().await.is_success());
        }
        (sim2.stats().polls - before, client.stats())
    });
    let per_op = polls as f64 / OPS as f64;
    assert!(stats.direct_hits > (OPS as u64) / 2, "{stats:?}");
    assert!(per_op < 12.0, "{per_op:.2} polls per op: {stats:?}");
}
