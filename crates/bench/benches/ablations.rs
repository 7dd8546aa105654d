//! Ablation benchmarks for the design choices DESIGN.md calls out:
//!
//! - adaptive slab I/O vs synchronous direct I/O;
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

use nbkv_bench::exp::LatencyExp;
use nbkv_core::client::Client;
use nbkv_core::cluster::Cluster;
use nbkv_core::designs::{Design, SpecParams};
use nbkv_core::server::{IoPolicy, PromotePolicy, Server};
use nbkv_fabric::Fabric;
use nbkv_simrt::Sim;
use nbkv_storesim::{SlabIo, SlabIoConfig, SsdDevice};

const MEM: u64 = 8 << 20;
const VALUE: usize = 16 << 10;

/// The ablations' experiment: `design` on 8 MiB of RAM with 12 MiB of
/// 16 KiB values, 200 write-heavy ops through a 32-deep window.
fn exp(design: Design) -> LatencyExp {
    LatencyExp {
        value_len: VALUE,
        ops_per_client: 200,
        window: 32,
        ..LatencyExp::single(design, MEM, MEM + MEM / 2)
    }
}

/// Run the ablation experiment on a one-server cluster built by hand, so
/// the store knobs the design factory fixes can be overridden.
fn run_store_ablation(io: IoPolicy, promote: PromotePolicy, pipeline: bool) -> u64 {
    let exp = exp(Design::HRdmaOptNonBI);
    let c = &exp.cluster;
    let sim = Sim::new();
    let fabric = Fabric::new(&sim, c.design.fabric_profile());
    let mut server_cfg = c.design.server_config(SpecParams {
        mem_bytes: c.server_mem_bytes,
        ssd_capacity: c.ssd_capacity,
        costs: c.costs,
    });
    server_cfg.store.io_policy = io;
    server_cfg.store.promote = promote;
    server_cfg.pipeline = pipeline;
    let dev = SsdDevice::new(&sim, c.device);
    let io_cfg = SlabIoConfig {
        cache_bytes: c.os_cache_bytes,
        host: c.host,
    };
    let ssd = SlabIo::new(&sim, Rc::clone(&dev), io_cfg);
    let server = Server::new(&sim, server_cfg, Some(ssd));
    let (client_side, server_side) = fabric.connect();
    server.accept(server_side);
    let cluster = Cluster {
        servers: vec![server],
        clients: vec![Client::new(&sim, vec![client_side], c.client)],
        devices: vec![dev],
        links: Vec::new(),
    };
    let out = exp.measure(&sim, &cluster, |_| {}).mean_latency_ns;
    sim.shutdown();
    out
}

fn ablate_io_policy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_io_policy");
    g.sample_size(10);
    let policies = [
        ("direct", IoPolicy::Direct),
        ("adaptive", IoPolicy::Adaptive),
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
                b.iter(|| run_store_ablation(IoPolicy::Adaptive, PromotePolicy::IfFree, pipeline))
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
            |b, &promote| b.iter(|| run_store_ablation(IoPolicy::Adaptive, promote, true)),
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
                let mut exp = exp(Design::HRdmaOptBlock);
                exp.cluster.os_cache_bytes = (mult * MEM).max(2 << 20);
                exp.run().0.mean_latency_ns
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    ablate_io_policy,
    ablate_pipeline,
    ablate_promotion,
    ablate_os_cache
);
criterion_main!(benches);
