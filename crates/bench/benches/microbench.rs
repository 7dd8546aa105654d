//! Real-time microbenchmarks of the substrate data structures: these
//! measure how fast the *simulator itself* runs (wall-clock), complementing
//! the virtual-time figure harnesses.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use std::cell::Cell;
use std::future::Future;
use std::pin::pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use bytes::{Bytes, BytesMut};
use nbkv_core::client::Ring;
use nbkv_core::proto::{ApiFlavor, Request, Response, SetMode};
use nbkv_core::server::slab::{SlabConfig, SlabPool};
use nbkv_fabric::profiles::fdr_rdma;
use nbkv_fabric::{LatencyModel, MrCache, QueuePair, RemoteWindow};
use nbkv_simrt::Sim;
use nbkv_storesim::LruMap;
use nbkv_workload::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_executor(c: &mut Criterion) {
    let mut g = c.benchmark_group("simrt");
    g.bench_function("spawn_and_run_1000_tasks", |b| {
        b.iter(|| {
            let sim = Sim::new();
            for i in 0..1000u64 {
                let s = sim.clone();
                sim.spawn(async move {
                    s.sleep(std::time::Duration::from_nanos(i % 97)).await;
                });
            }
            sim.run();
            black_box(sim.stats().timer_events)
        })
    });
    g.bench_function("timer_heap_10k_events", |b| {
        b.iter(|| {
            let sim = Sim::new();
            for i in 0..10_000u64 {
                sim.schedule_in(std::time::Duration::from_nanos(i * 7 % 1013), |_| {});
            }
            sim.run();
        })
    });
    // The client's request path: every op runs under a long deadline that
    // it beats, so each deadline is armed and then cancelled.
    g.bench_function("timeout_churn_100k", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let s = sim.clone();
            sim.run_until(async move {
                for _ in 0..100_000 {
                    let inner = s.clone();
                    let op = async move { inner.sleep(Duration::from_nanos(100)).await };
                    let _ = nbkv_simrt::timeout(&s, Duration::from_millis(500), op).await;
                }
            });
            black_box(sim.stats().timers_pending)
        })
    });
    // The executor's own cost per wake: one task wakes itself and yields,
    // so every cycle is one wake into the ready queue and one poll.
    g.bench_function("wake_poll_1m", |b| {
        b.iter(|| {
            let sim = Sim::new();
            sim.run_until(async {
                for _ in 0..1_000_000 {
                    nbkv_simrt::yield_now().await;
                }
            });
            black_box(sim.stats().polls)
        })
    });
    g.finish();
}

fn bench_cq(c: &mut Criterion) {
    const WAITERS: u64 = 64;
    let mut g = c.benchmark_group("fabric");
    // A client with 64 one-sided reads in flight on one send CQ, each task
    // waiting for its own wr_id. Longer reads go to lower wr_ids, so the
    // completions land in reverse order of posting.
    g.bench_function("cq_next_for_64_waiters", |b| {
        b.iter(|| {
            let sim = Sim::new();
            let model = LatencyModel::from_bandwidth_gbps(Duration::from_micros(1), 1.0);
            let qp = QueuePair::new(&sim, model);
            qp.bind_peer_window(RemoteWindow::new(64 << 10));
            let qp = Rc::new(qp);
            let done = Rc::new(Cell::new(0));
            for wr_id in 0..WAITERS {
                let (qp, done) = (Rc::clone(&qp), Rc::clone(&done));
                sim.spawn(async move {
                    let len = ((WAITERS - wr_id) * 64) as usize;
                    qp.post_rdma_read(wr_id, 0, len);
                    let wc = qp.send_cq().next_for(wr_id).await;
                    assert_eq!(wc.wr_id, wr_id);
                    done.set(done.get() + 1);
                });
            }
            sim.run();
            assert_eq!(done.get(), WAITERS, "every waiter got its completion");
            let polls = sim.stats().polls;
            sim.shutdown();
            black_box(polls)
        })
    });
    g.finish();
}

fn bench_mr(c: &mut Criterion) {
    let mut g = c.benchmark_group("mr");
    let sim = Sim::new();
    let cache = MrCache::new(sim.clone(), fdr_rdma());
    let buf = Bytes::from((0..8192u32).map(|i| (i * 31) as u8).collect::<Vec<_>>());
    let (c2, b2) = (cache.clone(), buf.clone());
    sim.run_until(async move { c2.ensure_registered(&b2).await });
    // A hit is pure host work with no virtual-time charge, so the future
    // completes on its first poll without a simulation driving it.
    let mut cx = Context::from_waker(Waker::noop());
    g.throughput(Throughput::Bytes(buf.len() as u64));
    g.bench_function("ensure_registered_hit_8k", |b| {
        b.iter(|| match pin!(cache.ensure_registered(&buf)).poll(&mut cx) {
            Poll::Ready(key) => black_box(key),
            Poll::Pending => unreachable!("a hit never sleeps"),
        })
    });
    assert_eq!(cache.stats().misses, 1, "every benchmarked call was a hit");
    g.finish();
    sim.shutdown();
}

fn bench_slab(c: &mut Criterion) {
    let mut g = c.benchmark_group("slab");
    g.bench_function("alloc_write_free_cycle", |b| {
        let mut pool = SlabPool::new(SlabConfig::with_mem(8 << 20));
        let class = pool.class_for(1024).expect("class");
        let value = Bytes::from(vec![7u8; 900]);
        b.iter(|| {
            let id = pool.try_alloc(class).expect("alloc");
            pool.write_item(id, b"bench-key", &value, 0, 0);
            pool.free_chunk(id);
            black_box(id)
        })
    });
    // A full page of 8 KiB-class items: a flush's key capture, and the
    // image it stores, whose values are held by reference.
    let mut pool = SlabPool::new(SlabConfig::with_mem(1 << 20));
    let class = pool.class_for(8 << 10).expect("class");
    let value = Bytes::from(vec![7u8; 8000]);
    let mut ids = Vec::new();
    while let Some(id) = pool.try_alloc(class) {
        let key = format!("bench-key-{:06}", ids.len());
        pool.write_item(id, key.as_bytes(), &value, 0, 0);
        ids.push(id);
    }
    g.bench_function("page_image_1mib", |b| {
        b.iter(|| black_box(pool.page_image(0)))
    });
    g.bench_function(BenchmarkId::new("capture_keys_1mib", "read_key"), |b| {
        b.iter(|| {
            for &id in &ids {
                black_box(pool.read_key(id));
            }
        })
    });
    g.finish();
}

fn bench_bytes(c: &mut Criterion) {
    let mut g = c.benchmark_group("bytes");
    // A received 8 KiB frame: filled in a BytesMut, then frozen.
    let src = vec![3u8; 8 << 10];
    g.throughput(Throughput::Bytes(src.len() as u64));
    g.bench_function("freeze_8k", |b| {
        b.iter(|| {
            let mut m = BytesMut::with_capacity(src.len());
            m.extend_from_slice(&src);
            black_box(m.freeze())
        })
    });
    // A one-sided read of a 1 KiB value: the version header plus the
    // value, copied out of the window at completion.
    let read = vec![5u8; 8 + 1024];
    g.throughput(Throughput::Bytes(read.len() as u64));
    g.bench_function("copy_from_slice_1k", |b| {
        b.iter(|| black_box(Bytes::copy_from_slice(black_box(&read))))
    });
    // Store-index key traffic: clone a key, slice it, compare it with an
    // equal key held elsewhere.
    let key = Bytes::from(b"kvbench:key:000123".to_vec());
    let other = Bytes::copy_from_slice(&key);
    g.throughput(Throughput::Elements(1));
    g.bench_function("clone_slice_eq_key", |b| {
        b.iter(|| {
            let k = black_box(&key).clone();
            black_box(k.slice(..) == *black_box(&other))
        })
    });
    g.finish();
}

fn bench_lru(c: &mut Criterion) {
    let mut g = c.benchmark_group("lru");
    g.throughput(Throughput::Elements(1));
    g.bench_function("insert_touch_pop", |b| {
        let mut lru: LruMap<u64, ()> = LruMap::new();
        for i in 0..10_000u64 {
            lru.insert(i, ());
        }
        let mut i = 10_000u64;
        b.iter(|| {
            lru.insert(i, ());
            lru.touch(&(i / 2));
            lru.pop_lru();
            i += 1;
        })
    });
    g.finish();
}

fn bench_proto(c: &mut Criterion) {
    let mut g = c.benchmark_group("proto");
    for size in [64usize, 4 << 10, 32 << 10] {
        let req = Request::Set {
            req_id: 42,
            flavor: ApiFlavor::NonBlockingI,
            mode: SetMode::Set,
            flags: 7,
            expire_at_ns: 0,
            key: Bytes::from_static(b"bench-key-000001"),
            value: Bytes::from(vec![9u8; size]),
        };
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::new("set_encode", size), &req, |b, req| {
            b.iter(|| black_box(req.encode()))
        });
        let wire = req.encode();
        g.bench_with_input(BenchmarkId::new("set_decode", size), &wire, |b, wire| {
            b.iter(|| black_box(Request::decode(wire).expect("decode")))
        });
        let resp = Response::Get {
            req_id: 42,
            status: nbkv_core::proto::OpStatus::Hit,
            stages: Default::default(),
            flags: 0,
            cas: 1,
            value: Some(Bytes::from(vec![9u8; size])),
        };
        g.bench_with_input(
            BenchmarkId::new("get_resp_roundtrip", size),
            &resp,
            |b, resp| {
                b.iter(|| {
                    let wire = resp.encode();
                    black_box(Response::decode(&wire).expect("decode"))
                })
            },
        );
    }
    // A `hybrid-spill-rw` SET: the 8 KiB value rides as a segment of its
    // own, so neither side copies it.
    let req = Request::Set {
        req_id: 42,
        flavor: ApiFlavor::NonBlockingI,
        mode: SetMode::Set,
        flags: 7,
        expire_at_ns: 0,
        key: Bytes::from_static(b"bench-key-000001"),
        value: Bytes::from(vec![9u8; 8 << 10]),
    };
    g.throughput(Throughput::Bytes(8 << 10));
    g.bench_function("set_encode_8k", |b| b.iter(|| black_box(req.encode())));
    let wire = req.encode();
    g.bench_function("set_decode_8k", |b| {
        b.iter(|| black_box(Request::decode(&wire).expect("decode")))
    });
    // A full doorbell frame: 64 member sets of 512 B each.
    let ops = (0..64u64)
        .map(|i| Request::Set {
            req_id: i,
            flavor: ApiFlavor::NonBlockingI,
            mode: SetMode::Set,
            flags: 0,
            expire_at_ns: 0,
            key: Bytes::from(format!("bench-key-{i:06}")),
            value: Bytes::from(vec![9u8; 512]),
        })
        .collect();
    let frame = Request::batch(1 << 40, ApiFlavor::NonBlockingI, ops).expect("batch");
    g.throughput(Throughput::Bytes(frame.wire_len() as u64));
    g.bench_function("batch_encode", |b| b.iter(|| black_box(frame.encode())));
    let wire = frame.encode();
    g.bench_function("batch_decode", |b| {
        b.iter(|| black_box(Request::decode(&wire).expect("decode")))
    });
    g.finish();
}

fn bench_workload_gen(c: &mut Criterion) {
    let mut g = c.benchmark_group("workload");
    let zipf = Zipf::new(100_000, 0.99);
    let mut rng = StdRng::seed_from_u64(3);
    g.bench_function("zipf_sample_100k_ranks", |b| {
        b.iter(|| black_box(zipf.sample(&mut rng)))
    });
    let ring = Ring::new(16);
    g.bench_function("ring_select_16_servers", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(ring.select(format!("user{i:012}").as_bytes()))
        })
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_executor, bench_cq, bench_mr, bench_slab, bench_bytes, bench_lru, bench_proto,
        bench_workload_gen
);
criterion_main!(benches);
