//! Integration tests of client-side doorbell batching and the client
//! hardening fixes that ride along with it.

use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use nbkv_core::cluster::{build_cluster, ClusterConfig};
use nbkv_core::designs::Design;
use nbkv_core::proto::{ApiFlavor, OpStatus, Request, Response, StageTimes};
use nbkv_core::server::StatsSnapshot;
use nbkv_core::{BatchPolicy, Client, ClientConfig, ClientError};
use nbkv_fabric::Fabric;
use nbkv_simrt::Sim;

fn key(i: usize) -> Bytes {
    Bytes::from(format!("key-{i:04}"))
}

fn value(i: usize) -> Bytes {
    Bytes::from(vec![i as u8; 256])
}

fn batched_cluster(sim: &Sim, design: Design, servers: usize) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(design, 64 << 20);
    cfg.servers = servers;
    cfg.client.batch = Some(BatchPolicy::default());
    let _ = sim;
    cfg
}

/// A multi-op `set_multi` + `get_multi` round trip over batch frames:
/// every value comes back intact, and both ends count batch frames.
#[test]
fn batched_multi_round_trip() {
    let sim = Sim::new();
    let cfg = batched_cluster(&sim, Design::HRdmaOptNonBI, 4);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let servers: Vec<_> = cluster.servers.iter().map(Rc::clone).collect();
    sim.run_until(async move {
        let items: Vec<_> = (0..48).map(|i| (key(i), value(i))).collect();
        let stores = client.set_multi(items).await.unwrap();
        assert_eq!(stores.len(), 48);
        for c in &stores {
            assert_eq!(c.status, OpStatus::Stored);
        }
        let gets = client.get_multi((0..48).map(key).collect()).await.unwrap();
        assert_eq!(gets.len(), 48);
        for (i, c) in gets.iter().enumerate() {
            assert_eq!(c.status, OpStatus::Hit, "key {i}");
            assert_eq!(c.value.as_ref().unwrap()[..], value(i)[..], "key {i}");
        }

        let st = client.stats();
        assert!(st.batches_sent > 0, "multi-op frames must be batched");
        assert!(st.batched_ops > st.batches_sent, "frames carry several ops");
        assert_eq!(st.issued, 96);
        assert_eq!(st.completed, 96);
        let server_batches: u64 = servers.iter().map(|s| s.stats().batches).sum();
        let server_batch_ops: u64 = servers.iter().map(|s| s.stats().batch_ops).sum();
        assert_eq!(server_batches, st.batches_sent);
        assert_eq!(server_batch_ops, st.batched_ops);
        let hist = client.ops_per_batch();
        assert_eq!(hist.sum(), 96, "every op flushed through exactly one frame");
    });
}

/// A batch-enabled client that issues one op at a time is bit-identical
/// to an unbatched one: same wire frames, same virtual-time latency.
#[test]
fn single_op_batch_matches_unbatched_latency() {
    let run = |batched: bool| -> (u64, u64) {
        let sim = Sim::new();
        let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 16 << 20);
        if batched {
            cfg.client.batch = Some(BatchPolicy::default());
        }
        let cluster = build_cluster(&sim, &cfg);
        let client = Rc::clone(&cluster.clients[0]);
        let lat = sim.run_until(async move {
            let done = client.set(key(0), value(0), 0, None).await.unwrap();
            assert_eq!(done.status, OpStatus::Stored);
            // One-element multi: enqueue + doorbell, flushed as a plain
            // unbatched frame.
            let gets = client.get_multi(vec![key(0)]).await.unwrap();
            assert_eq!(gets[0].status, OpStatus::Hit);
            let st = client.stats();
            assert_eq!(st.batches_sent, 0, "single-op flushes are not batch frames");
            gets[0].latency_ns()
        });
        let msgs: u64 = cluster.links.iter().map(|l| l.stats().messages).sum();
        sim.shutdown();
        (lat, msgs)
    };
    let (lat_plain, msgs_plain) = run(false);
    let (lat_batched, msgs_batched) = run(true);
    assert_eq!(
        lat_batched, lat_plain,
        "a single-op batch must cost exactly what an unbatched op costs"
    );
    assert_eq!(msgs_batched, msgs_plain, "same frames on the wire");
}

/// The flush deadline fires exactly once per armed queue generation: one
/// lone op is flushed by the deadline, and no stale deadline task fires
/// again for later generations already flushed by count/doorbell.
#[test]
fn flush_deadline_fires_exactly_once() {
    let sim = Sim::new();
    let cfg = batched_cluster(&sim, Design::HRdmaOptNonBI, 1);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let sim2 = sim.clone();
    sim.run_until(async move {
        client.set(key(0), value(0), 0, None).await.unwrap();
        // A lone iget with no doorbell: only the deadline can flush it.
        let h = client.iget(key(0)).await.unwrap();
        let done = h.wait().await;
        assert_eq!(done.status, OpStatus::Hit);
        let delay = BatchPolicy::default().max_delay;
        assert!(
            done.latency_ns() >= delay.as_nanos() as u64,
            "deadline-flushed op must have waited out max_delay ({} < {})",
            done.latency_ns(),
            delay.as_nanos()
        );
        assert_eq!(client.stats().flush_on_deadline, 1);

        // A doorbell-flushed burst afterwards: its armed deadline must
        // observe the epoch bump and not fire a second flush.
        let gets = client.get_multi(vec![key(0); 4]).await.unwrap();
        assert_eq!(gets.len(), 4);
        sim2.sleep(delay * 10).await;
        let st = client.stats();
        assert_eq!(st.flush_on_deadline, 1, "stale deadline task must not fire");
        assert_eq!(st.flush_on_doorbell, 1);
    });
}

/// The send window bounds in-flight *frames* and the high-water mark is
/// tracked from acquired permits, so it can never exceed the configured
/// depth — batched or not.
#[test]
fn window_hwm_never_exceeds_max_outstanding() {
    for batched in [false, true] {
        let sim = Sim::new();
        let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, 64 << 20);
        cfg.servers = 2;
        cfg.client.max_outstanding = 4;
        if batched {
            cfg.client.batch = Some(BatchPolicy::default());
        }
        let cluster = build_cluster(&sim, &cfg);
        let client = Rc::clone(&cluster.clients[0]);
        sim.run_until(async move {
            let items: Vec<_> = (0..64).map(|i| (key(i), value(i))).collect();
            let stores = client.set_multi(items).await.unwrap();
            assert_eq!(stores.len(), 64);
            let gets = client.get_multi((0..64).map(key).collect()).await.unwrap();
            for c in &gets {
                assert_eq!(c.status, OpStatus::Hit);
            }
            let st = client.stats();
            assert!(st.window_hwm > 0, "permits were acquired");
            assert!(
                st.window_hwm <= 4,
                "window_hwm {} exceeds max_outstanding 4 (batched={batched})",
                st.window_hwm
            );
        });
    }
}

/// Regression: `server_stats` against a server that answers with a
/// malformed payload returns `ClientError::BadResponse` instead of
/// panicking (it used to `expect` the payload). Any length but the exact
/// snapshot size is malformed, including a lone 8-byte word and payloads
/// one word short of or past a full snapshot.
#[test]
fn server_stats_malformed_payload_is_an_error() {
    let words = |n: usize| Some(Bytes::from(vec![7u8; n]));
    for garbage in [
        Some(Bytes::from_static(b"not json")),
        words(StatsSnapshot::WIRE_LEN - 8),
        words(StatsSnapshot::WIRE_LEN + 8),
        None,
    ] {
        let sim = Sim::new();
        let fabric = Fabric::new(&sim, nbkv_fabric::profiles::fdr_rdma());
        let (client_side, server_side) = fabric.connect();
        let (tx, rx) = server_side.split();
        let garbage2 = garbage.clone();
        sim.spawn(async move {
            while let Some(frame) = rx.recv().await {
                let req = Request::decode(&frame).expect("client sends valid frames");
                let resp = Response::Get {
                    req_id: req.req_id(),
                    status: OpStatus::Hit,
                    stages: StageTimes::default(),
                    flags: 0,
                    cas: 0,
                    value: garbage2.clone(),
                };
                if tx.send(resp.encode()).await.is_err() {
                    break;
                }
            }
        });
        let client = Client::new(&sim, vec![client_side], ClientConfig::default());
        sim.run_until(async move {
            let err = client.server_stats(0).await.unwrap_err();
            assert_eq!(err, ClientError::BadResponse);
        });
        sim.shutdown();
    }
}

/// Batch frames and their member ops survive the full proto round trip
/// through a real server: a mixed-flavor burst is rejected at the
/// constructor, so the client only ever builds homogeneous frames.
#[test]
fn batch_frames_preserve_flavor_and_req_ids() {
    let ops: Vec<Request> = (0..3)
        .map(|i| Request::Get {
            req_id: 100 + i,
            flavor: ApiFlavor::NonBlockingI,
            key: key(i as usize),
        })
        .collect();
    let frame = Request::batch(7, ApiFlavor::NonBlockingI, ops).unwrap();
    let decoded = Request::decode(&frame.encode()).unwrap();
    match decoded {
        Request::Batch {
            req_id,
            flavor,
            ops,
        } => {
            assert_eq!(req_id, 7);
            assert_eq!(flavor, ApiFlavor::NonBlockingI);
            let ids: Vec<u64> = ops.iter().map(|o| o.req_id()).collect();
            assert_eq!(ids, vec![100, 101, 102]);
        }
        other => panic!("expected batch frame, got {other:?}"),
    }
    assert!(
        Request::batch(8, ApiFlavor::NonBlockingI, vec![]).is_err(),
        "empty batches must be rejected at encode time"
    );
}

/// `bset`/`bget` still provide their buffer-reuse guarantee under
/// batching: the handle resolves `wait_sent` once the carrying frame is
/// flushed (here by the deadline), not never.
#[test]
fn buffer_reuse_flavor_completes_under_batching() {
    let sim = Sim::new();
    let cfg = batched_cluster(&sim, Design::HRdmaOptNonBB, 1);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    sim.run_until(async move {
        let h = client.bset(key(0), value(0), 0, None).await.unwrap();
        let done = h.wait().await;
        assert_eq!(done.status, OpStatus::Stored);
        assert_eq!(client.stats().flush_on_deadline, 1);
    });
}

/// Cancellation before the flush: the op vanishes from the frame (the
/// flush skips members gone from the pending table) and the window
/// permit accounting stays balanced.
#[test]
fn cancelled_member_is_dropped_from_the_frame() {
    let sim = Sim::new();
    let cfg = batched_cluster(&sim, Design::HRdmaOptNonBI, 1);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let sim2 = sim.clone();
    sim.run_until(async move {
        client.set(key(0), value(0), 0, None).await.unwrap();
        let keep = client.iget(key(0)).await.unwrap();
        let drop_h = client.iget(key(0)).await.unwrap();
        drop_h.cancel();
        client.flush_batches();
        let done = keep.wait().await;
        assert_eq!(done.status, OpStatus::Hit);
        sim2.sleep(Duration::from_millis(1)).await;
        let st = client.stats();
        // The flushed frame carried only the survivor, so it went out
        // unbatched.
        assert_eq!(st.batches_sent, 0);
        assert_eq!(st.flush_on_doorbell, 1);
        assert_eq!(client.ops_per_batch().sum(), 1);
    });
}

/// A batching client with a one-frame window over a single connection,
/// and that connection's server half (never read; drop it to fail sends).
fn one_frame_client(sim: &Sim) -> (Rc<Client>, nbkv_fabric::Transport) {
    let fabric = Fabric::new(sim, nbkv_fabric::profiles::fdr_rdma());
    let (client_side, server_side) = fabric.connect();
    let cfg = ClientConfig {
        max_outstanding: 1,
        batch: Some(BatchPolicy::default()),
        ..ClientConfig::default()
    };
    (Client::new(sim, vec![client_side], cfg), server_side)
}

/// A batch frame whose send fails completes every member with an error of
/// its own kind, counted like any other completion, and hands its window
/// permit back: with a one-frame window, the next op does not hang.
#[test]
fn failed_batch_send_completes_and_counts_every_member() {
    let sim = Sim::new();
    let (client, server_side) = one_frame_client(&sim);
    drop(server_side);
    sim.run_until(async move {
        // Four isets, the doorbell, and a wait for all of them.
        let items = (0..4).map(|i| (key(i), value(i))).collect();
        for c in client.set_multi(items).await.unwrap() {
            assert_eq!(c.status, OpStatus::Error);
        }
        let st = client.stats();
        assert_eq!((st.issued, st.completed), (4, 4));
        assert_eq!(client.outstanding(), 0);
        let get = client.get_multi(vec![key(0)]).await.unwrap();
        assert_eq!(get[0].status, OpStatus::Error);
    });
    sim.shutdown();
}

/// A member cancelled while its flush waits for the window gives its
/// permit share back once the permit arrives; otherwise the frame would
/// hold the only permit for an answer nobody waits for, and the `bset`
/// below would never get its frame sent.
#[test]
fn member_cancelled_during_flush_returns_its_window_share() {
    let sim = Sim::new();
    let (client, _silent_server) = one_frame_client(&sim);
    let sim2 = sim.clone();
    sim.run_until(async move {
        let first = client.iset(key(0), value(0), 0, None).await.unwrap();
        client.flush_batches();
        let second = client.iset(key(1), value(1), 0, None).await.unwrap();
        client.flush_batches();
        sim2.sleep(Duration::from_micros(50)).await;
        assert!(second.cancel() && first.cancel());
        client.bset(key(2), value(2), 0, None).await.unwrap();
        assert_eq!(client.outstanding(), 1);
    });
    sim.shutdown();
}

/// A value over `INLINE_THRESHOLD` crosses the wire by reference: the
/// server's decoded `Request` holds the very allocation the client's
/// `iset` was given, alone and as a batch member, and a large GET hit
/// reaches the client's `Completion` as the server's buffer.
#[test]
fn large_values_cross_the_wire_without_a_copy() {
    use nbkv_core::proto::INLINE_THRESHOLD;
    use std::cell::RefCell;

    let big = |b: u8| Bytes::from(vec![b; INLINE_THRESHOLD + 1]);
    // The deadline outlasts both registrations, so the doorbell ships the
    // two sets as one frame.
    let policy = BatchPolicy {
        max_delay: Duration::from_millis(1),
        ..BatchPolicy::default()
    };
    for batch in [None, Some(policy)] {
        let batched = batch.is_some();
        let sim = Sim::new();
        let fabric = Fabric::new(&sim, nbkv_fabric::profiles::fdr_rdma());
        let (client_side, server_side) = fabric.connect();
        let (tx, rx) = server_side.split();
        // The value pointers the server decoded, in arrival order.
        let seen: Rc<RefCell<Vec<*const u8>>> = Rc::default();
        let answer = big(9);
        let (seen2, answer2) = (Rc::clone(&seen), answer.clone());
        sim.spawn(async move {
            while let Some(frame) = rx.recv().await {
                let ops = match Request::decode(&frame).expect("valid frame") {
                    Request::Batch { ops, .. } => ops,
                    op => vec![op],
                };
                let mut resps = Vec::new();
                for op in ops {
                    let stages = StageTimes::default();
                    resps.push(match op {
                        Request::Set { req_id, value, .. } => {
                            seen2.borrow_mut().push(value.as_ptr());
                            Response::Set {
                                req_id,
                                status: OpStatus::Stored,
                                stages,
                            }
                        }
                        op => Response::Get {
                            req_id: op.req_id(),
                            status: OpStatus::Hit,
                            stages,
                            flags: 0,
                            cas: 0,
                            value: Some(answer2.clone()),
                        },
                    });
                }
                for resp in resps {
                    if tx.send(resp.encode()).await.is_err() {
                        return;
                    }
                }
            }
        });
        let cfg = ClientConfig {
            batch,
            ..ClientConfig::default()
        };
        let client = Client::new(&sim, vec![client_side], cfg);
        let values = [big(1), big(2)];
        let sent: Vec<*const u8> = values.iter().map(|v| v.as_ptr()).collect();
        sim.run_until(async move {
            let mut handles = Vec::new();
            for (i, v) in values.iter().enumerate() {
                handles.push(client.iset(key(i), v.clone(), 0, None).await.unwrap());
            }
            client.flush_batches();
            for h in handles {
                assert_eq!(h.wait().await.status, OpStatus::Stored);
            }
            assert_eq!(*seen.borrow(), sent);
            assert_eq!(client.stats().batches_sent, u64::from(batched));
            let got = client.iget(key(0)).await.unwrap();
            client.flush_batches();
            let value = got.wait().await.value.expect("a hit carries its value");
            assert_eq!(value.as_ptr(), answer.as_ptr());
        });
        sim.shutdown();
    }
}
