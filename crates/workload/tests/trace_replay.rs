//! Trace record/replay integration tests.

use std::rc::Rc;

use nbkv_core::cluster::{build_cluster, ClusterConfig};
use nbkv_core::designs::Design;
use nbkv_simrt::Sim;
use nbkv_workload::{preload, replay_trace, AccessPattern, OpMix, ReplayParams, RunReport, Trace};

fn replay_on(design: Design, trace: &Trace, value_len: usize) -> RunReport {
    let sim = Sim::new();
    let cluster = build_cluster(&sim, &ClusterConfig::new(design, 8 << 20));
    let client = Rc::clone(&cluster.clients[0]);
    let sim2 = sim.clone();
    let trace = trace.clone();
    let report = sim.run_until(async move {
        preload(&client, 200, value_len).await;
        let params = ReplayParams::new(value_len, design.flavor());
        replay_trace(&sim2, &client, &trace, &params).await
    });
    sim.shutdown();
    report
}

#[test]
fn replay_is_bit_deterministic() {
    let trace = Trace::generate(
        200,
        8 << 10,
        AccessPattern::Zipf(0.99),
        OpMix::WRITE_HEAVY,
        300,
        5,
    );
    let a = replay_on(Design::HRdmaOptNonBI, &trace, 8 << 10);
    let b = replay_on(Design::HRdmaOptNonBI, &trace, 8 << 10);
    assert_eq!(a.elapsed_ns, b.elapsed_ns);
    assert_eq!(a.mean_latency_ns, b.mean_latency_ns);
    assert_eq!(a.hits, b.hits);
}

#[test]
fn same_trace_compares_designs_fairly() {
    // The whole point of traces: every design sees the *identical*
    // operation sequence, so hit counts line up exactly for hybrid
    // designs (which never lose data).
    let trace = Trace::generate(
        200,
        8 << 10,
        AccessPattern::Zipf(0.99),
        OpMix::READ_ONLY,
        400,
        9,
    );
    let block = replay_on(Design::HRdmaOptBlock, &trace, 8 << 10);
    let nonb = replay_on(Design::HRdmaOptNonBI, &trace, 8 << 10);
    assert_eq!(block.hits + block.misses, 400);
    assert_eq!(
        block.hits, nonb.hits,
        "identical op sequence, identical hits"
    );
    assert!(
        nonb.mean_latency_ns < block.mean_latency_ns,
        "non-blocking still wins under replay"
    );
}

#[test]
fn trace_round_trips_through_text_and_replays() {
    let trace = Trace::generate(50, 4096, AccessPattern::Uniform, OpMix::WRITE_HEAVY, 100, 3);
    let parsed = Trace::from_text(&trace.to_text()).unwrap();
    let from_orig = replay_on(Design::RdmaMem, &trace, 4096);
    let from_text = replay_on(Design::RdmaMem, &parsed, 4096);
    assert_eq!(from_orig.elapsed_ns, from_text.elapsed_ns);
}

#[test]
fn traces_with_deletes_replay_correctly() {
    use nbkv_workload::TraceOp;
    let trace = Trace {
        version: 1,
        note: "hand-written".into(),
        ops: vec![
            TraceOp::Set {
                key: "a".into(),
                value_len: 128,
            },
            TraceOp::Set {
                key: "b".into(),
                value_len: 128,
            },
            TraceOp::Get { key: "a".into() },
            TraceOp::Delete { key: "a".into() },
            TraceOp::Get { key: "a".into() },
            TraceOp::Get { key: "b".into() },
        ],
    };
    let sim = Sim::new();
    let cluster = build_cluster(&sim, &ClusterConfig::new(Design::HRdmaOptNonBI, 8 << 20));
    let client = Rc::clone(&cluster.clients[0]);
    let sim2 = sim.clone();
    let report = sim.run_until(async move {
        let mut params = ReplayParams::new(128, nbkv_core::proto::ApiFlavor::NonBlockingI);
        params.recache_on_miss = false;
        replay_trace(&sim2, &client, &trace, &params).await
    });
    assert_eq!(report.ops, 6);
    assert_eq!(report.hits, 2, "get(a) before delete + get(b)");
    assert_eq!(report.misses, 1, "get(a) after delete");
}
