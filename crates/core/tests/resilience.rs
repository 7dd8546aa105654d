//! Integration tests of the fault-injection layer, the client resilience
//! policy, and crash/warm-restart recovery.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use nbkv_core::cluster::{build_cluster, ChaosConfig, ClusterConfig, CrashEvent};
use nbkv_core::designs::Design;
use nbkv_core::proto::OpStatus;
use nbkv_core::{ClientError, ResiliencePolicy};
use nbkv_fabric::{FaultPlan, FaultStats};
use nbkv_simrt::Sim;
use nbkv_storesim::{SsdFaultPlan, SsdFaultStats};
use proptest::prelude::*;

fn key(i: usize) -> Bytes {
    Bytes::from(format!("key-{i:05}"))
}

/// A `set` against an unresponsive server fails with `TimedOut` under the
/// default policy — no manual `wait_timeout` needed anywhere.
#[test]
fn set_to_closed_server_times_out_by_default() {
    let sim = Sim::new();
    let cfg = ClusterConfig::new(Design::RdmaMem, 16 << 20);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let server = Rc::clone(&cluster.servers[0]);
    sim.run_until(async move {
        server.close();
        let err = client
            .set(Bytes::from_static(b"k"), Bytes::from_static(b"v"), 0, None)
            .await
            .expect_err("closed server must not succeed");
        assert_eq!(err, ClientError::TimedOut);
        let stats = client.stats();
        assert!(stats.timeouts >= 1, "timeouts counted: {stats:?}");
        assert!(stats.retries >= 1, "retries counted: {stats:?}");
        assert_eq!(client.outstanding(), 0, "timed-out attempts are reaped");
    });
}

/// Regression test for the ReqHandle leak: a timed-out wait cancels the
/// request, releasing its pending-table entry and window permit. With a
/// tiny window, repeatedly timing out must never wedge the issue path.
#[test]
fn timed_out_handles_are_reaped() {
    let sim = Sim::new();
    let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 16 << 20);
    cfg.client.max_outstanding = 2;
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let server = Rc::clone(&cluster.servers[0]);
    let sim2 = sim.clone();
    sim.run_until(async move {
        server.close();
        for i in 0..6 {
            // If a permit ever leaked, the third issue would block forever;
            // the outer timeout turns that hang into a test failure.
            let h = nbkv_simrt::timeout(
                &sim2,
                Duration::from_millis(50),
                client.iset(key(i), Bytes::from_static(b"v"), 0, None),
            )
            .await
            .expect("issue blocked on a leaked window permit")
            .expect("issue failed");
            let reaped = h.wait_timeout(Duration::from_millis(1)).await;
            assert!(reaped.is_err(), "closed server cannot complete op {i}");
            assert!(!h.cancel(), "wait_timeout already cancelled the request");
            assert_eq!(
                client.outstanding(),
                0,
                "pending table drained after op {i}"
            );
        }
        let stats = client.stats();
        assert_eq!(stats.issued, 6);
        assert_eq!(stats.completed, 0);
    });
}

/// Crash + warm restart rebuilds the RAM index from the SSD slabs: keys
/// whose slabs were flushed come back, RAM-only keys are lost (clean
/// misses, not errors).
#[test]
fn warm_restart_recovers_ssd_resident_items() {
    let sim = Sim::new();
    // 2 MiB of RAM, 4 MiB of data: roughly half the keys spill to SSD.
    let mut cfg = ClusterConfig::new(Design::HRdmaOptBlock, 2 << 20);
    cfg.ssd_capacity = 64 << 20;
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let server = Rc::clone(&cluster.servers[0]);
    sim.run_until(async move {
        let n = 1024;
        for i in 0..n {
            let c = client
                .set(key(i), Bytes::from(vec![i as u8; 4096]), 0, None)
                .await
                .expect("preload set");
            assert_eq!(c.status, OpStatus::Stored);
        }
        server.crash();
        assert!(server.store().stats().crashes >= 1);
        let report = server.restart().await;
        assert!(
            report.items_recovered > 0,
            "some slabs were on SSD: {report:?}"
        );
        assert!(report.extents_scanned > 0);

        let mut hits = 0u64;
        let mut misses = 0u64;
        for i in 0..n {
            let c = client.get(key(i)).await.expect("get after restart");
            match c.status {
                OpStatus::Hit => {
                    hits += 1;
                    assert_eq!(c.value.expect("hit carries value")[0], i as u8);
                }
                OpStatus::Miss => misses += 1,
                s => panic!("unexpected status {s:?} for key {i}"),
            }
        }
        assert_eq!(
            hits, report.items_recovered,
            "every recovered key is readable"
        );
        assert!(misses > 0, "RAM-only items are lost by a crash");
    });
}

/// A crash while slab flushes and item copies are in flight: every store
/// task that resumes after it stops without touching the new slab pool or
/// index (a flush used to release a page index of the old pool into the
/// new one and panic), and the restarted server serves again.
#[test]
fn crash_during_in_flight_flushes_is_survived() {
    let sim = Sim::new();
    let cluster = build_cluster(&sim, &ClusterConfig::new(Design::HRdmaOptNonBI, 2 << 20));
    let client = Rc::clone(&cluster.clients[0]);
    let server = Rc::clone(&cluster.servers[0]);
    let sim2 = sim.clone();
    sim.run_until(async move {
        for i in 0..400 {
            let value = Bytes::from(vec![i as u8; 16 << 10]);
            client
                .set(key(i), value, 0, None)
                .await
                .expect("preload set");
        }
        // Small items of a class with no page yet: their sets flush pages.
        for i in 400..500 {
            let value = Bytes::from_static(b"abc");
            client.iset(key(i), value, 0, None).await.expect("iset");
        }
        sim2.sleep(Duration::from_micros(5)).await;
        server.crash();
        sim2.sleep(Duration::from_millis(50)).await;
        server.restart().await;
        let set = client
            .set(key(0), Bytes::from_static(b"new"), 0, None)
            .await
            .expect("set after restart");
        assert_eq!(set.status, OpStatus::Stored);
        let got = client.get(key(0)).await.expect("get after restart");
        assert_eq!(got.status, OpStatus::Hit);
        assert_eq!(got.value.as_deref(), Some(&b"new"[..]));
    });
    sim.shutdown();
}

/// A pipelined server whose workers fall behind: every set probes the
/// hash table for 20 µs, so of 100 back-to-back `iset`s most are staged or
/// still queued on the connection 30 µs later.
fn slow_pipelined_cluster(sim: &Sim) -> (Rc<nbkv_core::Client>, Rc<nbkv_core::Server>) {
    let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 2 << 20);
    cfg.costs.hash = Duration::from_micros(20);
    let cluster = build_cluster(sim, &cfg);
    (
        Rc::clone(&cluster.clients[0]),
        Rc::clone(&cluster.servers[0]),
    )
}

/// Issue 100 `iset`s, wait 30 µs, and crash the server.
async fn crash_behind_staged_isets(
    sim: &Sim,
    client: &nbkv_core::Client,
    server: &nbkv_core::Server,
) -> Vec<nbkv_core::ReqHandle> {
    let mut handles = Vec::new();
    for i in 0..100 {
        let value = Bytes::from_static(b"staged");
        handles.push(client.iset(key(i), value, 0, None).await.expect("iset"));
    }
    sim.sleep(Duration::from_micros(30)).await;
    server.crash();
    handles
}

/// A crashed server answers nothing more: not the requests in its staging
/// queue, not those its workers or dispatcher were running, not those
/// queued on the connection. The only handles that complete are the ones
/// whose response was sent before the crash.
#[test]
fn a_crashed_server_sends_no_response() {
    let sim = Sim::new();
    let (client, server) = slow_pipelined_cluster(&sim);
    let sim2 = sim.clone();
    sim.run_until(async move {
        let handles = crash_behind_staged_isets(&sim2, &client, &server).await;
        let answered = server.stats().responses;
        assert!(answered < 100, "the crash must find requests unanswered");
        sim2.sleep(Duration::from_millis(50)).await;
        assert_eq!(
            server.stats().responses,
            answered,
            "responses after the crash"
        );
        let done = handles.iter().filter(|h| h.is_done()).count() as u64;
        assert_eq!(
            done, answered,
            "only the responses sent before the crash arrive"
        );
    });
    sim.shutdown();
}

/// Staged requests are RAM state: a restart 1 µs after the crash must not
/// let the old incarnation's workers write them into the new index.
#[test]
fn requests_staged_before_a_crash_are_lost_with_it() {
    let sim = Sim::new();
    let (client, server) = slow_pipelined_cluster(&sim);
    let sim2 = sim.clone();
    sim.run_until(async move {
        let handles = crash_behind_staged_isets(&sim2, &client, &server).await;
        let unanswered: Vec<usize> = (0..handles.len())
            .filter(|&i| !handles[i].is_done())
            .collect();
        assert!(!unanswered.is_empty());
        sim2.sleep(Duration::from_micros(1)).await;
        server.restart().await;
        for i in unanswered {
            let got = client.get(key(i)).await.expect("get after restart");
            assert_eq!(got.status, OpStatus::Miss, "key {i} was never answered");
        }
    });
    sim.shutdown();
}

/// Keys of the crash sweep.
const SWEEP_KEYS: usize = 64;

/// The value the sweep writes as its `version`-th set, to key `k`: both
/// numbers, then padding, so a read can tell whose write it returned. Its
/// length, 4, 12 or 40 KiB by key, puts the keys in three slab classes,
/// and the server's 2 MiB of RAM holds just two 1 MiB slab pages: the
/// classes evict each other's pages to the SSD all the time.
fn versioned(k: usize, version: usize) -> Bytes {
    let head = format!("{k}@{version};");
    let mut v = vec![0; [4 << 10, 12 << 10, 40 << 10][k % 3]];
    v[..head.len()].copy_from_slice(head.as_bytes());
    Bytes::from(v)
}

/// The key and version a sweep value was written with.
fn version_of(value: &[u8]) -> Option<(usize, usize)> {
    let head = std::str::from_utf8(&value[..value.len().min(32)]).ok()?;
    let (k, version) = head.split_once(';')?.0.split_once('@')?;
    Some((k.parse().ok()?, version.parse().ok()?))
}

/// One sweep run: four tasks drive a mixed set/get load that spills from
/// a 2 MiB server to its SSD. After a seeded number of sets, plus a
/// seeded delay, the server crashes; it restarts 300 µs later. Checks that no
/// response leaves the server while it is down, that every hit after the
/// restart returns a value written for its key, and that a fresh set and
/// get are served.
fn crash_at_a_seeded_instant(design: Design, seed: u64) -> u64 {
    let sim = Sim::new();
    let mut cfg = ClusterConfig::new(design, 2 << 20);
    cfg.client.resilience.deadline = Some(Duration::from_millis(50));
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let server = Rc::clone(&cluster.servers[0]);
    let nonblocking = design.flavor().is_nonblocking();
    let wait = Duration::from_millis(50);
    // The key of each set, in issue order: a set's index is its version.
    let written: Rc<std::cell::RefCell<Vec<usize>>> = Rc::default();
    let roll = nbkv_simrt::mix64(!seed);
    let (crash_after_sets, jitter) = (12 + roll as usize % 40, Duration::from_nanos(roll >> 48));
    let crash_due = Rc::new(nbkv_simrt::Notify::new());
    let loaders: Vec<_> = (0..4u64)
        .map(|task| {
            let (client, written) = (Rc::clone(&client), Rc::clone(&written));
            let crash_due = Rc::clone(&crash_due);
            sim.spawn(async move {
                for i in 0..20u64 {
                    let roll = nbkv_simrt::mix64(seed ^ (task << 32) ^ i);
                    let k = (roll % SWEEP_KEYS as u64) as usize;
                    if (roll >> 32).is_multiple_of(3) {
                        if !nonblocking {
                            let _ = client.get(key(k)).await;
                        } else if let Ok(h) = client.iget(key(k)).await {
                            let _ = h.wait_timeout(wait).await;
                        }
                        continue;
                    }
                    let value = {
                        let mut written = written.borrow_mut();
                        written.push(k);
                        if written.len() == crash_after_sets {
                            crash_due.notify_one();
                        }
                        versioned(k, written.len() - 1)
                    };
                    if !nonblocking {
                        let _ = client.set(key(k), value, 0, None).await;
                    } else if let Ok(h) = client.iset(key(k), value, 0, None).await {
                        let _ = h.wait_timeout(wait).await;
                    }
                }
            })
        })
        .collect();
    let sim2 = sim.clone();
    let recovered = sim.run_until(async move {
        crash_due.notified().await;
        sim2.sleep(jitter).await;
        let answered = server.stats().responses;
        server.crash();
        sim2.sleep(Duration::from_micros(300)).await;
        let tag = format!("{design:?} seed {seed}");
        assert_eq!(
            server.stats().responses,
            answered,
            "{tag}: a response while down"
        );
        let report = server.restart().await;
        nbkv_simrt::join_all(loaders).await;
        // Close the breaker that the timed-out attempts opened.
        client.notify_server_restarted(0);
        for k in 0..SWEEP_KEYS {
            let got = client.get(key(k)).await.expect("get after restart");
            let Some(value) = got.value else { continue };
            let (owner, version) = version_of(&value).expect("a sweep value");
            assert_eq!(owner, k, "{tag}: key {k} read another key's value");
            assert_eq!(written.borrow().get(version), Some(&k), "{tag}: key {k}");
        }
        let fresh = key(SWEEP_KEYS);
        let set = client.set(fresh.clone(), Bytes::from_static(b"fresh"), 0, None);
        assert_eq!(
            set.await.expect("fresh set").status,
            OpStatus::Stored,
            "{tag}"
        );
        let got = client.get(fresh).await.expect("fresh get");
        assert_eq!(got.value.as_deref(), Some(&b"fresh"[..]), "{tag}");
        report.items_recovered
    });
    sim.shutdown();
    recovered
}

/// 32 seeded crash instants of `design`. A crash may cut slab flushes
/// and item copies, and most restarts recover items from the SSD.
fn sweep_crash_instants(design: Design) {
    let recovered: Vec<u64> = (0..32)
        .map(|seed| crash_at_a_seeded_instant(design, seed))
        .collect();
    assert!(
        recovered.iter().any(|&n| n > 0),
        "{design:?}: no run recovered from SSD"
    );
}

#[test]
fn seeded_crash_instants_direct_io() {
    sweep_crash_instants(Design::HRdmaDef);
}

#[test]
fn seeded_crash_instants_blocking_api() {
    sweep_crash_instants(Design::HRdmaOptBlock);
}

#[test]
fn seeded_crash_instants_nonblocking_api() {
    sweep_crash_instants(Design::HRdmaOptNonBI);
}

/// Regression test for the crash-failover latency bug: before crash
/// notifications, a write to a crashed primary burned the full per-attempt
/// deadline (and failure threshold) before the breaker ever opened. With
/// [`notify_server_crashed`](nbkv_core::Client::notify_server_crashed)
/// (wired up by the cluster's crash tasks), the breaker opens at crash
/// delivery and the very next attempt retargets the next live replica —
/// the whole failover write completes in well under one deadline.
#[test]
fn crash_notification_fails_over_without_burning_the_deadline() {
    let sim = Sim::new();
    let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 16 << 20);
    cfg.servers = 2;
    cfg.replication = nbkv_core::ReplicationConfig::default(); // rf = 2
    let deadline = Duration::from_millis(100);
    cfg.client.resilience = ResiliencePolicy {
        deadline: Some(deadline),
        ..ResiliencePolicy::default()
    };
    // Crash server 0 at 1ms, no restart.
    cfg.chaos = ChaosConfig {
        seed: 1,
        crashes: vec![CrashEvent {
            server: 0,
            at: Duration::from_millis(1),
            restart_at: None,
        }],
        ..ChaosConfig::default()
    };
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let sim2 = sim.clone();
    sim.run_until(async move {
        // Find keys whose ring primary is each server.
        let key_on = |server: usize| {
            (0..10_000)
                .map(key)
                .find(|k| nbkv_core::Ring::new(2).select(k) == server)
                .expect("some key lands on each server")
        };
        let k0 = key_on(0);
        let k1 = key_on(1);
        sim2.sleep(Duration::from_millis(2)).await; // crash delivered
        let t0 = sim2.now();
        // Write to the crashed primary's key: must promote to server 1
        // immediately instead of timing out first.
        let c = client
            .set(k0.clone(), Bytes::from_static(b"v0"), 0, None)
            .await
            .expect("failover write succeeds");
        assert_eq!(c.status, OpStatus::Stored);
        let elapsed = sim2.now() - t0;
        assert!(
            elapsed < deadline / 2,
            "failover must not burn the deadline (took {elapsed:?})"
        );
        // Keys on the live primary are untouched by the failover.
        let c = client
            .set(k1, Bytes::from_static(b"v1"), 0, None)
            .await
            .expect("live-primary write");
        assert_eq!(c.status, OpStatus::Stored);
        let st = client.stats();
        assert_eq!(st.promotions, 1, "exactly the k0 write was promoted");
        assert_eq!(st.timeouts, 0, "no attempt waited out a deadline");
        // The promoted copy serves reads (failover read path).
        let g = client.get(k0).await.expect("failover read");
        assert_eq!(g.status, OpStatus::Hit);
        assert_eq!(&g.value.unwrap()[..], b"v0");
    });
}

fn chaos_cluster_config(design: Design, seed: u64) -> ClusterConfig {
    let ms = Duration::from_millis;
    let mut cfg = ClusterConfig::new(design, 4 << 20);
    cfg.servers = 2;
    cfg.client.resilience = ResiliencePolicy {
        deadline: Some(Duration::from_millis(2)),
        backoff_base: Duration::from_micros(50),
        backoff_cap: Duration::from_micros(500),
        ..ResiliencePolicy::default()
    };
    cfg.chaos = ChaosConfig {
        seed,
        link_faults: Some(FaultPlan::drops(0, 0.01).with_down_window(ms(4), ms(6))),
        ssd_faults: design.is_hybrid().then(|| SsdFaultPlan::errors(0, 0.005)),
        crashes: vec![CrashEvent {
            server: 0,
            at: ms(8),
            restart_at: Some(ms(10)),
        }],
    };
    cfg
}

/// Run a fixed mixed workload under the chaos schedule and record every
/// op's outcome *and* completion time. Completing at all proves no op
/// hangs; the timestamps make the determinism check bit-exact.
fn run_chaos(design: Design, seed: u64) -> (Vec<String>, FaultStats, SsdFaultStats) {
    let sim = Sim::new();
    let cluster = build_cluster(&sim, &chaos_cluster_config(design, seed));
    let client = Rc::clone(&cluster.clients[0]);
    let sim2 = sim.clone();
    let outcomes = sim.run_until(async move {
        let mut out = Vec::with_capacity(300);
        for i in 0..300usize {
            let k = key(i % 64);
            let r = match i % 5 {
                // Exercise the non-blocking path and its bounded reap too.
                0 => match client.iget(k).await {
                    Ok(h) => h
                        .wait_timeout(Duration::from_millis(2))
                        .await
                        .map(|c| format!("{:?}", c.status))
                        .map_err(|_| ClientError::TimedOut),
                    Err(e) => Err(e),
                },
                1 | 2 => client
                    .set(k, Bytes::from(vec![i as u8; 512]), 0, None)
                    .await
                    .map(|c| format!("{:?}", c.status)),
                _ => client.get(k).await.map(|c| format!("{:?}", c.status)),
            };
            let stamp = sim2.now().as_nanos();
            out.push(match r {
                Ok(s) => format!("{i}:{s}@{stamp}"),
                Err(e) => format!("{i}:err({e})@{stamp}"),
            });
        }
        out
    });
    let fabric = cluster.fabric_fault_stats();
    let ssd = cluster.ssd_fault_stats();
    sim.shutdown();
    (outcomes, fabric, ssd)
}

/// The acceptance scenario: 1% drop, a scripted link-down window, and a
/// server crash + warm restart. Two runs with the same seed must produce
/// byte-identical fault counters and op outcomes, for every design, and
/// every op must complete (no hangs).
#[test]
fn chaos_schedule_replays_identically_for_all_designs() {
    for design in Design::ALL {
        let a = run_chaos(design, 0xC4A0_5EED);
        let b = run_chaos(design, 0xC4A0_5EED);
        assert_eq!(a.1, b.1, "{design:?}: fabric fault stats diverged");
        assert_eq!(a.2, b.2, "{design:?}: ssd fault stats diverged");
        assert_eq!(a.0, b.0, "{design:?}: op outcomes diverged");
        assert!(
            a.1.total_lost() > 0,
            "{design:?}: the schedule must actually lose messages ({:?})",
            a.1
        );
        // A different seed perturbs the timeline.
        let c = run_chaos(design, 0x0DD_5EED);
        assert_ne!(a.0, c.0, "{design:?}: seed must matter");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Backoff schedules replay exactly for a (seed, salt) pair and every
    /// delay stays within [min(base, cap), cap].
    #[test]
    fn backoff_replays_per_seed_and_stays_bounded(
        seed in any::<u64>(),
        salt in any::<u64>(),
        base_us in 1u64..1_000,
        cap_us in 1u64..20_000,
    ) {
        let pol = ResiliencePolicy {
            backoff_base: Duration::from_micros(base_us),
            backoff_cap: Duration::from_micros(cap_us),
            backoff_seed: seed,
            ..ResiliencePolicy::default()
        };
        let mut a = pol.backoff(salt);
        let mut b = pol.backoff(salt);
        let lo = pol.backoff_base.min(pol.backoff_cap);
        for _ in 0..16 {
            let d = a.next_delay();
            prop_assert_eq!(d, b.next_delay());
            prop_assert!(d >= lo && d <= pol.backoff_cap, "delay {d:?} outside [{lo:?}, {:?}]", pol.backoff_cap);
        }
    }
}

proptest! {
    // Each case is two full cluster runs; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full chaos scenario is a pure function of its seed: *any* seed
    /// replays to byte-identical fault counters and op outcomes.
    #[test]
    fn chaos_replay_is_deterministic_for_any_seed(seed in any::<u64>()) {
        let a = run_chaos(Design::HRdmaOptNonBI, seed);
        let b = run_chaos(Design::HRdmaOptNonBI, seed);
        prop_assert_eq!(&a.1, &b.1, "fabric fault stats diverged");
        prop_assert_eq!(&a.2, &b.2, "ssd fault stats diverged");
        prop_assert_eq!(&a.0, &b.0, "op outcomes diverged");
    }
}
