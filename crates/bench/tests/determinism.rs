//! The regression gate's foundation: the same experiment run twice in the
//! same tree must render a byte-identical manifest. Virtual time, seeded
//! RNGs, and ordered-map registries leave no room for drift — if this
//! test fails, `scripts/regress.sh` cannot work.

use nbkv_bench::exp::LatencyExp;
use nbkv_bench::manifest::Manifest;
use nbkv_core::designs::Design;

fn render_once() -> String {
    let mut m = Manifest::new_fixed("determinism-test", 1.0, 42);
    for design in [Design::RdmaMem, Design::HRdmaOptNonBI] {
        let mut exp = LatencyExp::single(design, 8 << 20, 12 << 20);
        exp.ops_per_client = 300;
        let (r, cluster_reg) = exp.run_obs();
        let reg = m.record_report(design.label(), &r);
        reg.merge(&cluster_reg);
    }
    // A batched run: frame coalescing, flush deadlines, and response
    // waves must replay bit-for-bit too.
    let mut exp = LatencyExp::single(Design::HRdmaOptNonBI, 8 << 20, 4 << 20);
    exp.ops_per_client = 300;
    exp.cluster.servers = 2;
    exp.value_len = 512;
    exp.batch = 32;
    let (r, cluster_reg) = exp.run_obs();
    let reg = m.record_report("batched", &r);
    reg.merge(&cluster_reg);
    // An adaptive one-sided run: lease fetches, chained RDMA reads,
    // seqlock validation, and EWMA-driven mode flips must replay
    // bit-for-bit too.
    let mut exp = LatencyExp::single(Design::HRdmaOptNonBI, 8 << 20, 4 << 20);
    exp.ops_per_client = 300;
    exp.value_len = 1 << 10;
    exp.mix = nbkv_workload::OpMix { read_pct: 90 };
    exp.cluster.client.direct = nbkv_core::DirectPolicy::Adaptive;
    let (r, cluster_reg) = exp.run_obs();
    let reg = m.record_report("onesided", &r);
    reg.merge(&cluster_reg);
    // A replicated run with a scripted mid-run crash and warm restart:
    // replication doorbells, retransmits, breaker-driven failover
    // promotions, and the catch-up demotion must replay bit-for-bit too.
    let mix = nbkv_workload::OpMix { read_pct: 50 };
    let mut exp =
        nbkv_bench::figs::replication::small(mix, nbkv_core::ReplicationConfig::default());
    exp.crash = Some(nbkv_bench::figs::replication::failover_crash(
        exp.ops_per_client,
    ));
    exp.cluster.client.resilience = nbkv_bench::figs::replication::failover_resilience();
    let (r, cluster_reg) = exp.run_obs();
    let reg = m.record_report("replicated-crash", &r);
    reg.merge(&cluster_reg);
    m.render()
}

#[test]
fn manifests_are_byte_identical_across_runs() {
    let a = render_once();
    let b = render_once();
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "two runs of the same experiment must render identically"
    );
    // The manifest must actually carry the phase breakdown, not just
    // render deterministically because it is empty.
    assert!(
        a.contains("phase_e2e"),
        "manifest must include phase histograms"
    );
    assert!(
        a.contains("fabric.messages"),
        "manifest must include cluster counters"
    );
    assert!(
        a.contains("client.ops_per_batch"),
        "manifest must include the batched run's ops-per-frame histogram"
    );
    assert!(
        a.contains("client.direct_hits"),
        "manifest must include the one-sided run's direct-read counters"
    );
    assert!(
        a.contains("server.repl_sent") && a.contains("client.promotions"),
        "manifest must include the replicated run's replication counters"
    );
}
