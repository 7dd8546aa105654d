//! The regression gate's foundation: the same cases run twice in the same
//! tree must render a byte-identical manifest. Virtual time, seeded RNGs,
//! and ordered-map registries leave no room for drift — if this test
//! fails, `scripts/regress.sh` cannot work. The cases go through the one
//! case runner, so its memo is checked here too: a repeated experiment runs
//! once and records the section a fresh run records.

use std::rc::Rc;

use nbkv_bench::exp::LatencyExp;
use nbkv_bench::manifest::{record_report, Manifest};
use nbkv_bench::runner::{Case, Figure, Runner};
use nbkv_core::designs::Design;

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    for design in [Design::RdmaMem, Design::HRdmaOptNonBI] {
        let mut exp = LatencyExp::single(design, 8 << 20, 12 << 20);
        exp.ops_per_client = 300;
        cases.push(Case::latency(design.label(), exp));
    }
    // A batched run: frame coalescing, flush deadlines, and response
    // waves must replay bit-for-bit too.
    let mut exp = LatencyExp::single(Design::HRdmaOptNonBI, 8 << 20, 4 << 20);
    exp.ops_per_client = 300;
    exp.cluster.servers = 2;
    exp.value_len = 512;
    exp.batch = 32;
    cases.push(Case::latency("batched", exp));
    // An adaptive one-sided run: lease fetches, chained RDMA reads,
    // seqlock validation, and EWMA-driven mode flips must replay
    // bit-for-bit too.
    let mut exp = LatencyExp::single(Design::HRdmaOptNonBI, 8 << 20, 4 << 20);
    exp.ops_per_client = 300;
    exp.value_len = 1 << 10;
    exp.mix = nbkv_workload::OpMix { read_pct: 90 };
    exp.cluster.client.direct = nbkv_core::DirectPolicy::Adaptive;
    cases.push(Case::latency("onesided", exp));
    // A replicated run with a scripted mid-run crash and warm restart:
    // replication doorbells, retransmits, breaker-driven failover
    // promotions, and the catch-up demotion must replay bit-for-bit too.
    let mix = nbkv_workload::OpMix { read_pct: 50 };
    let exp = nbkv_bench::figs::replication::with_crash(
        nbkv_bench::figs::replication::small(mix, nbkv_core::ReplicationConfig::default()),
        true,
    );
    cases.push(Case::latency("replicated-crash", exp));
    cases
}

fn render_once() -> String {
    let mut m = Manifest::new_fixed("determinism-test", 1.0, 42);
    let fig = Figure(cases, |_| Vec::new());
    Runner::default().figure(fig, &mut m);
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

#[test]
fn a_repeated_experiment_runs_once_and_records_a_fresh_runs_section() {
    let exp = |design| {
        let mut e = LatencyExp::single(design, 8 << 20, 4 << 20);
        e.ops_per_client = 200;
        e
    };
    let mut runner = Runner::default();
    let done = runner.run(vec![
        Case::latency("first", exp(Design::RdmaMem)),
        Case::latency("other", exp(Design::HRdmaOptNonBI)),
        Case::latency("again", exp(Design::RdmaMem)),
    ]);
    let labels: Vec<&str> = done.iter().map(|(l, _)| l.as_str()).collect();
    assert_eq!(labels, ["first", "other", "again"]);
    assert!(Rc::ptr_eq(&done[0].1, &done[2].1), "the repeat ran again");

    let (report, mut fresh) = exp(Design::RdmaMem).run();
    record_report(&mut fresh, &report);
    assert_eq!(done[2].1.section, fresh);
    assert_ne!(done[1].1.section, fresh);
}
