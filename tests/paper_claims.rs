//! Integration tests asserting the paper's *qualitative* claims at small
//! scale: who wins, and in which direction the effects point. The bench
//! harness (`crates/bench`) reproduces the quantitative tables.

use std::rc::Rc;

use nbkv::core::cluster::{build_cluster, ClusterConfig};
use nbkv::core::designs::Design;
use nbkv::simrt::Sim;
use nbkv::workload::{preload, run_workload, AccessPattern, OpMix, RunReport, WorkloadSpec};

const MEM: u64 = 16 << 20;
const VALUE: usize = 32 << 10;

fn run(design: Design, data_bytes: u64, mix: OpMix, ops: usize) -> RunReport {
    let sim = Sim::new();
    let cluster = build_cluster(&sim, &ClusterConfig::new(design, MEM));
    let client = Rc::clone(&cluster.clients[0]);
    let sim2 = sim.clone();
    let report = sim.run_until(async move {
        let keys = (data_bytes / VALUE as u64) as usize;
        preload(&client, keys, VALUE).await;
        let spec = WorkloadSpec {
            keys,
            value_len: VALUE,
            pattern: AccessPattern::Zipf(0.99),
            mix,
            ops,
            flavor: design.flavor(),
            window: 64,
            seed: 11,
            miss_penalty: std::time::Duration::from_millis(2),
            recache_on_miss: true,
            batch: 0,
        };
        run_workload(&sim2, &client, &spec).await
    });
    sim.shutdown();
    report
}

fn fits() -> u64 {
    MEM / 2
}

fn nofit() -> u64 {
    MEM + MEM / 2
}

/// Figure 1(a): when data fits, RDMA beats IPoIB and the hybrid design
/// adds no overhead.
#[test]
fn rdma_beats_ipoib_when_data_fits() {
    let ipoib = run(Design::IpoibMem, fits(), OpMix::WRITE_HEAVY, 400);
    let rdma = run(Design::RdmaMem, fits(), OpMix::WRITE_HEAVY, 400);
    let hybrid = run(Design::HRdmaDef, fits(), OpMix::WRITE_HEAVY, 400);
    assert!(
        ipoib.mean_latency_ns > 2 * rdma.mean_latency_ns,
        "IPoIB {} vs RDMA {}",
        ipoib.mean_latency_ns,
        rdma.mean_latency_ns
    );
    let overhead = hybrid.mean_latency_ns as f64 / rdma.mean_latency_ns as f64;
    assert!(
        (0.9..=1.2).contains(&overhead),
        "hybrid overhead when data fits should be negligible: {overhead:.2}"
    );
}

/// Figure 1(b): when data does not fit, the hybrid design beats the
/// in-memory designs (which pay the backend miss penalty).
#[test]
fn hybrid_beats_in_memory_when_data_does_not_fit() {
    let rdma = run(Design::RdmaMem, nofit(), OpMix::WRITE_HEAVY, 400);
    let hybrid = run(Design::HRdmaDef, nofit(), OpMix::WRITE_HEAVY, 400);
    assert!(rdma.misses > 0, "in-memory must miss");
    assert_eq!(hybrid.misses, 0, "hybrid must not miss");
    assert!(
        hybrid.mean_latency_ns < rdma.mean_latency_ns,
        "hybrid {} vs in-memory {}",
        hybrid.mean_latency_ns,
        rdma.mean_latency_ns
    );
}

/// Figure 2(a): when data fits, the network dominates — server response
/// plus client wait make up most of a blocking op's breakdown.
#[test]
fn network_stages_dominate_when_data_fits() {
    for design in [Design::RdmaMem, Design::IpoibMem] {
        let b = run(design, fits(), OpMix::WRITE_HEAVY, 400).breakdown;
        let network = b.response_ns + b.client_wait_ns;
        assert!(
            network > b.total_ns() / 2.0,
            "{design:?}: response + wait {network:.0} of {:.0} ns",
            b.total_ns()
        );
    }
}

/// Figure 2(b): when data does not fit, the backend miss penalty
/// dominates the in-memory design and SSD I/O (slab allocation with its
/// eviction flushes, plus check/load) dominates H-RDMA-Def.
#[test]
fn miss_penalty_and_ssd_io_dominate_when_data_does_not_fit() {
    let rdma = run(Design::RdmaMem, nofit(), OpMix::WRITE_HEAVY, 400).breakdown;
    assert!(
        rdma.miss_penalty_ns > rdma.total_ns() / 2.0,
        "RDMA-Mem: miss penalty {:.0} of {:.0} ns",
        rdma.miss_penalty_ns,
        rdma.total_ns()
    );
    let def = run(Design::HRdmaDef, nofit(), OpMix::WRITE_HEAVY, 400).breakdown;
    let ssd_io = def.slab_alloc_ns + def.check_load_ns;
    assert!(
        ssd_io > def.total_ns() / 2.0,
        "H-RDMA-Def: slab alloc + check/load {ssd_io:.0} of {:.0} ns",
        def.total_ns()
    );
}

/// Figure 6(b): the paper's optimization ladder holds — Def is slowest,
/// adaptive I/O helps, the non-blocking APIs help most.
#[test]
fn optimization_ladder_when_data_does_not_fit() {
    let def = run(Design::HRdmaDef, nofit(), OpMix::WRITE_HEAVY, 400);
    let opt = run(Design::HRdmaOptBlock, nofit(), OpMix::WRITE_HEAVY, 400);
    let nonb_b = run(Design::HRdmaOptNonBB, nofit(), OpMix::WRITE_HEAVY, 400);
    let nonb_i = run(Design::HRdmaOptNonBI, nofit(), OpMix::WRITE_HEAVY, 400);
    assert!(
        def.mean_latency_ns > opt.mean_latency_ns,
        "adaptive I/O must beat direct: {} vs {}",
        def.mean_latency_ns,
        opt.mean_latency_ns
    );
    assert!(
        opt.mean_latency_ns > nonb_b.mean_latency_ns,
        "non-blocking must beat blocking: {} vs {}",
        opt.mean_latency_ns,
        nonb_b.mean_latency_ns
    );
    assert!(
        nonb_i.mean_latency_ns <= nonb_b.mean_latency_ns,
        "iset/iget never slower than bset/bget: {} vs {}",
        nonb_i.mean_latency_ns,
        nonb_b.mean_latency_ns
    );
    // The headline: order-of-magnitude class improvement Def -> NonB.
    assert!(
        def.mean_latency_ns as f64 / nonb_i.mean_latency_ns as f64 > 4.0,
        "Def {} vs NonB-i {}",
        def.mean_latency_ns,
        nonb_i.mean_latency_ns
    );
}

/// Figure 7(a): overlap asymmetry — iset/iget overlap everywhere, bget
/// overlaps on reads, bset barely overlaps on writes, blocking never does.
#[test]
fn overlap_asymmetries() {
    let block = run(Design::HRdmaOptBlock, nofit(), OpMix::READ_ONLY, 400);
    let i_ro = run(Design::HRdmaOptNonBI, nofit(), OpMix::READ_ONLY, 400);
    let b_ro = run(Design::HRdmaOptNonBB, nofit(), OpMix::READ_ONLY, 400);
    let i_wh = run(Design::HRdmaOptNonBI, nofit(), OpMix::WRITE_HEAVY, 400);
    let b_wh = run(Design::HRdmaOptNonBB, nofit(), OpMix::WRITE_HEAVY, 400);

    assert!(block.overlap_pct < 5.0, "blocking: {}", block.overlap_pct);
    assert!(
        i_ro.overlap_pct > 60.0,
        "NonB-i read-only: {}",
        i_ro.overlap_pct
    );
    assert!(
        b_ro.overlap_pct > 60.0,
        "NonB-b read-only: {}",
        b_ro.overlap_pct
    );
    assert!(
        i_wh.overlap_pct > 60.0,
        "NonB-i write-heavy: {}",
        i_wh.overlap_pct
    );
    assert!(
        b_wh.overlap_pct < 30.0,
        "NonB-b write-heavy must collapse (bset waits for buffer reuse): {}",
        b_wh.overlap_pct
    );
}

/// Figure 8(a) direction: NVMe narrows the Def gap (cheaper SSD I/O means
/// less to optimize away).
#[test]
fn nvme_narrows_the_def_gap() {
    fn run_dev(design: Design, device: nbkv::storesim::DeviceProfile) -> RunReport {
        let sim = Sim::new();
        let mut cfg = ClusterConfig::new(design, MEM);
        cfg.device = device;
        let cluster = build_cluster(&sim, &cfg);
        let client = Rc::clone(&cluster.clients[0]);
        let sim2 = sim.clone();
        let report = sim.run_until(async move {
            let keys = (nofit() / VALUE as u64) as usize;
            preload(&client, keys, VALUE).await;
            let spec = WorkloadSpec {
                keys,
                value_len: VALUE,
                pattern: AccessPattern::Zipf(0.99),
                mix: OpMix::WRITE_HEAVY,
                ops: 400,
                flavor: design.flavor(),
                window: 64,
                seed: 11,
                miss_penalty: std::time::Duration::from_millis(2),
                recache_on_miss: true,
                batch: 0,
            };
            run_workload(&sim2, &client, &spec).await
        });
        sim.shutdown();
        report
    }
    let def_sata = run_dev(Design::HRdmaDef, nbkv::storesim::sata_ssd());
    let def_nvme = run_dev(Design::HRdmaDef, nbkv::storesim::nvme_p3700());
    assert!(
        def_nvme.mean_latency_ns < def_sata.mean_latency_ns,
        "NVMe must speed up the direct-I/O design: {} vs {}",
        def_nvme.mean_latency_ns,
        def_sata.mean_latency_ns
    );
}
