//! Figure-shaped benchmarks: each runs a miniature version of one paper
//! experiment end-to-end through the harness's `LatencyExp` (build
//! cluster, preload, measure) and reports the wall-clock cost of
//! regenerating it. `cargo bench` therefore exercises every experiment
//! pipeline; the virtual-time results come from `nbkv-bench <id>`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use std::rc::Rc;

use nbkv_bench::exp::{on_cluster, LatencyExp};
use nbkv_core::cluster::ClusterConfig;
use nbkv_core::designs::Design;
use nbkv_storesim::IoScheme;
use nbkv_workload::{run_bursty, BurstSpec, OpMix};

const MEM: u64 = 8 << 20;
const VALUE: usize = 16 << 10;

/// A miniature latency experiment where data does not fit: `design` on
/// 8 MiB of RAM with 12 MiB of 16 KiB values, 200 ops of `mix` through a
/// 32-deep window.
fn mini(design: Design, mix: OpMix) -> LatencyExp {
    LatencyExp {
        value_len: VALUE,
        ops_per_client: 200,
        mix,
        window: 32,
        ..LatencyExp::single(design, MEM, MEM + MEM / 2)
    }
}

/// Figures 1/2/6: per-design latency runs (data does not fit).
fn bench_design_latency(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_designs");
    g.sample_size(10);
    for design in Design::ALL {
        g.bench_with_input(
            BenchmarkId::from_parameter(design.label()),
            &design,
            |b, &design| b.iter(|| mini(design, OpMix::WRITE_HEAVY).run().0.mean_latency_ns),
        );
    }
    g.finish();
}

/// Figure 4: I/O scheme sweep.
fn bench_io_schemes(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4_io_schemes");
    g.sample_size(10);
    for scheme in IoScheme::ALL {
        g.bench_with_input(
            BenchmarkId::from_parameter(scheme.label()),
            &scheme,
            |b, &scheme| b.iter(|| nbkv_bench::figs::fig4::sync_write_cost_ns(scheme, 256 << 10)),
        );
    }
    g.finish();
}

/// Figure 7(a): overlap measurement per API family.
fn bench_overlap(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7a_overlap");
    g.sample_size(10);
    for design in [
        Design::HRdmaOptBlock,
        Design::HRdmaOptNonBB,
        Design::HRdmaOptNonBI,
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(design.label()),
            &design,
            |b, &design| b.iter(|| mini(design, OpMix::READ_ONLY).run().0.mean_latency_ns),
        );
    }
    g.finish();
}

/// Figure 7(c): multi-client throughput (miniature).
fn bench_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7c_throughput");
    g.sample_size(10);
    for design in [Design::HRdmaOptBlock, Design::HRdmaOptNonBI] {
        g.bench_with_input(
            BenchmarkId::from_parameter(design.label()),
            &design,
            |b, &design| {
                b.iter(|| {
                    let mut exp = LatencyExp {
                        data_bytes: 256 * (8 << 10),
                        value_len: 8 << 10,
                        ops_per_client: 100,
                        window: 16,
                        ..LatencyExp::single(design, MEM / 2, 0)
                    };
                    exp.cluster.servers = 2;
                    exp.cluster.clients = 8;
                    exp.run().0.ops
                })
            },
        );
    }
    g.finish();
}

/// Figures 8(a)/8(b): device sweep and bursty I/O (miniature).
fn bench_devices_and_bursty(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8");
    g.sample_size(10);
    for (label, device) in [
        ("sata", nbkv_storesim::sata_ssd()),
        ("nvme", nbkv_storesim::nvme_p3700()),
    ] {
        g.bench_with_input(
            BenchmarkId::new("fig8a_nonb", label),
            &device,
            |b, &device| {
                b.iter(|| {
                    let mut exp = mini(Design::HRdmaOptNonBI, OpMix::WRITE_HEAVY);
                    exp.cluster.device = device;
                    exp.run().0.mean_latency_ns
                })
            },
        );
        g.bench_with_input(
            BenchmarkId::new("fig8b_bursty", label),
            &device,
            |b, &device| {
                b.iter(|| {
                    let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, MEM / 2);
                    cfg.servers = 2;
                    cfg.device = device;
                    let spec = BurstSpec {
                        block_bytes: 1 << 20,
                        chunk_bytes: 128 << 10,
                        total_bytes: 16 << 20,
                        flavor: nbkv_core::proto::ApiFlavor::NonBlockingI,
                    };
                    let (out, _) = on_cluster(&cfg, |sim, cluster| {
                        let (sim2, client) = (sim.clone(), Rc::clone(&cluster.clients[0]));
                        sim.run_until(async move {
                            run_bursty(&sim2, &client, &spec).await.mean_write_block_ns
                        })
                    });
                    out
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_design_latency,
    bench_io_schemes,
    bench_overlap,
    bench_throughput,
    bench_devices_and_bursty
);
criterion_main!(benches);
