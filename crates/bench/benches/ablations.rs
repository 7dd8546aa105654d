//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! - adaptive slab I/O vs each fixed scheme;
//! - the decoupled server pipeline on vs off under non-blocking clients;
//! - promotion policy (never vs if-free);
//! - OS page-cache size (what the paper's big-RAM nodes contribute).
//!
//! Each benchmark returns the virtual mean latency, but the criterion
//! stand-in only black-boxes it and prints host time per iteration: these
//! groups time the simulator on each configuration and do not measure the
//! design choice itself (DESIGN.md §5 names what does).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use std::rc::Rc;

use nbkv_core::cluster::{build_cluster, ClusterConfig};
use nbkv_core::designs::Design;
use nbkv_core::server::{IoPolicy, PromotePolicy};
use nbkv_simrt::Sim;
use nbkv_workload::{preload, run_workload, AccessPattern, OpMix, WorkloadSpec};

const MEM: u64 = 8 << 20;
const VALUE: usize = 16 << 10;

fn run_with(mutate: impl Fn(&mut ClusterConfig), design: Design) -> u64 {
    let sim = Sim::new();
    let mut cfg = ClusterConfig::new(design, MEM);
    mutate(&mut cfg);
    let cluster = build_cluster(&sim, &cfg);
    let client = Rc::clone(&cluster.clients[0]);
    let sim2 = sim.clone();
    let out = sim.run_until(async move {
        let keys = ((MEM + MEM / 2) / VALUE as u64) as usize;
        preload(&client, keys, VALUE).await;
        let spec = WorkloadSpec {
            keys,
            value_len: VALUE,
            pattern: AccessPattern::Zipf(0.99),
            mix: OpMix::WRITE_HEAVY,
            ops: 200,
            flavor: design.flavor(),
            window: 32,
            seed: 5,
            miss_penalty: std::time::Duration::from_millis(2),
            recache_on_miss: true,
            batch: 0,
        };
        run_workload(&sim2, &client, &spec).await.mean_latency_ns
    });
    sim.shutdown();
    out
}

/// Build a cluster whose server config is post-processed. Mirrors
/// `build_cluster` but lets the ablation override store knobs that the
/// design factory fixes.
fn run_store_ablation(io: IoPolicy, promote: PromotePolicy, pipeline: bool) -> u64 {
    run_store_ablation_full(io, promote, pipeline, false)
}

fn run_store_ablation_full(
    io: IoPolicy,
    promote: PromotePolicy,
    pipeline: bool,
    async_flush: bool,
) -> u64 {
    use nbkv_core::server::Server;
    use nbkv_fabric::Fabric;
    use nbkv_storesim::{SlabIo, SlabIoConfig, SsdDevice};

    let design = Design::HRdmaOptNonBI;
    let sim = Sim::new();
    let fabric = Fabric::new(&sim, design.fabric_profile());
    let mut server_cfg = design.server_config(nbkv_core::designs::SpecParams {
        mem_bytes: MEM,
        ssd_capacity: 16 * MEM,
        costs: nbkv_core::costs::CpuCosts::default_costs(),
    });
    server_cfg.store.io_policy = io;
    server_cfg.store.promote = promote;
    server_cfg.store.async_flush = async_flush;
    server_cfg.pipeline = pipeline;
    let dev = SsdDevice::new(&sim, nbkv_storesim::sata_ssd());
    let ssd = SlabIo::new(
        &sim,
        dev,
        SlabIoConfig {
            cache_bytes: 8 * MEM,
            mmap_resident_bytes: 8 * MEM,
            host: nbkv_storesim::HostModel::default_host(),
        },
    );
    let server = Server::new(&sim, server_cfg, Some(ssd));
    let (client_side, server_side) = fabric.connect();
    server.accept(server_side);
    let client = nbkv_core::client::Client::new(&sim, vec![client_side], Default::default());

    let sim2 = sim.clone();
    let out = sim.run_until(async move {
        let keys = ((MEM + MEM / 2) / VALUE as u64) as usize;
        preload(&client, keys, VALUE).await;
        let spec = WorkloadSpec {
            keys,
            value_len: VALUE,
            pattern: AccessPattern::Zipf(0.99),
            mix: OpMix::WRITE_HEAVY,
            ops: 200,
            flavor: design.flavor(),
            window: 32,
            seed: 5,
            miss_penalty: std::time::Duration::from_millis(2),
            recache_on_miss: true,
            batch: 0,
        };
        run_workload(&sim2, &client, &spec).await.mean_latency_ns
    });
    sim.shutdown();
    out
}

fn ablate_io_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_io_policy");
    g.sample_size(10);
    let policies = [
        ("direct", IoPolicy::Direct),
        ("cached", IoPolicy::Cached),
        ("mmap", IoPolicy::Mmap),
        ("adaptive", IoPolicy::adaptive_default()),
    ];
    for (label, policy) in policies {
        g.bench_with_input(BenchmarkId::from_parameter(label), &policy, |b, &policy| {
            b.iter(|| run_store_ablation(policy, PromotePolicy::IfFree, true))
        });
    }
    g.finish();
}

fn ablate_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_server_pipeline");
    g.sample_size(10);
    for (label, pipeline) in [("pipelined", true), ("inline", false)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(label),
            &pipeline,
            |b, &pipeline| {
                b.iter(|| {
                    run_store_ablation(
                        IoPolicy::adaptive_default(),
                        PromotePolicy::IfFree,
                        pipeline,
                    )
                })
            },
        );
    }
    g.finish();
}

fn ablate_promotion(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_promotion");
    g.sample_size(10);
    for (label, promote) in [
        ("never", PromotePolicy::Never),
        ("if-free", PromotePolicy::IfFree),
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(label),
            &promote,
            |b, &promote| {
                b.iter(|| run_store_ablation(IoPolicy::adaptive_default(), promote, true))
            },
        );
    }
    g.finish();
}

fn ablate_os_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_os_cache");
    g.sample_size(10);
    for mult in [0u64, 1, 8] {
        g.bench_with_input(BenchmarkId::from_parameter(mult), &mult, |b, &mult| {
            b.iter(|| {
                run_with(
                    |cfg| cfg.os_cache_bytes = (mult * MEM).max(2 << 20),
                    Design::HRdmaOptBlock,
                )
            })
        });
    }
    g.finish();
}

fn ablate_async_flush(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_async_flush");
    g.sample_size(10);
    for (label, async_flush) in [("sync", false), ("async", true)] {
        g.bench_with_input(
            BenchmarkId::from_parameter(label),
            &async_flush,
            |b, &af| {
                // Direct I/O is where the synchronous flush hurts the most —
                // the paper's future-work extension hides it.
                b.iter(|| {
                    run_store_ablation_full(IoPolicy::Direct, PromotePolicy::IfFree, true, af)
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    ablate_io_policy,
    ablate_pipeline,
    ablate_promotion,
    ablate_os_cache,
    ablate_async_flush
);
criterion_main!(benches);
