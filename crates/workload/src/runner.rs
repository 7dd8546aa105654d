//! The workload runner: drives a client with a configured access pattern
//! and operation mix, and measures what the paper measures.
//!
//! ## Measurement model
//!
//! - **Blocking APIs**: each op's end-to-end latency is decomposed into
//!   the six stages of Section III-A (server stages from the response,
//!   miss penalty measured at the client, the remainder is client wait).
//! - **Non-blocking APIs**: the client-visible cost of an op is the time
//!   spent *inside* issue calls plus the amortized completion wait; the
//!   server stages still happen but are overlapped. "Overlap%" is the
//!   fraction of job runtime not spent inside mandatory API calls — the
//!   time the application could use for computation or communication with
//!   other servers (Figure 7a).

use std::collections::VecDeque;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;

use nbkv_core::client::{Client, ClientError, Completion, ReqHandle};
use nbkv_core::proto::{ApiFlavor, OpStatus, ServedFrom, StageTimes};
use nbkv_obs::PhaseRollup;
use nbkv_simrt::Sim;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::backend::BackendDb;
use crate::histogram::{LatencyRecorder, StageAggregator, StageBreakdown};
use crate::keygen::{AccessPattern, KeyChooser, KeySpace, ValuePool};
use crate::mix::{OpKind, OpMix};

/// One planned operation: a spec's op sequence, fixed before execution.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PlannedOp {
    /// Store a pool value under `key`.
    Set { key: Bytes },
    /// Fetch `key`.
    Get { key: Bytes },
}

/// Full description of one workload run.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Number of distinct keys.
    pub keys: usize,
    /// Value size in bytes.
    pub value_len: usize,
    /// Key access pattern.
    pub pattern: AccessPattern,
    /// Read:write mix.
    pub mix: OpMix,
    /// Operations to issue.
    pub ops: usize,
    /// API family to drive.
    pub flavor: ApiFlavor,
    /// Max outstanding requests for the non-blocking flavours.
    pub window: usize,
    /// RNG seed.
    pub seed: u64,
    /// Backend penalty charged per miss.
    pub miss_penalty: Duration,
    /// Re-cache the backend value after a miss (paper's behaviour).
    pub recache_on_miss: bool,
    /// Batched issue group size for the non-blocking flavours: issue this
    /// many ops back to back, ring the client's batching doorbell, then
    /// reap the group (Listing 2's bursty shape). `0` or `1` issues
    /// per-op. Only effective when the client was built with
    /// [`nbkv_core::BatchPolicy`] configured.
    pub batch: usize,
}

impl WorkloadSpec {
    /// A Zipf(0.99) spec in the paper's default shape.
    pub fn zipf(keys: usize, value_len: usize, ops: usize, flavor: ApiFlavor) -> Self {
        WorkloadSpec {
            keys,
            value_len,
            pattern: AccessPattern::Zipf(0.99),
            mix: OpMix::WRITE_HEAVY,
            ops,
            flavor,
            window: 64,
            seed: 42,
            miss_penalty: BackendDb::default_penalty(),
            recache_on_miss: true,
            batch: 0,
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Operations completed.
    pub ops: usize,
    /// Virtual time from first issue to last completion.
    pub elapsed_ns: u64,
    /// Mean client-visible latency per op (ns).
    pub mean_latency_ns: u64,
    /// 99th percentile of per-op visible latency (ns).
    pub p99_latency_ns: u64,
    /// Average six-stage breakdown.
    pub breakdown: StageBreakdown,
    /// Get hits.
    pub hits: u64,
    /// Get misses.
    pub misses: u64,
    /// Hits served from RAM.
    pub ram_hits: u64,
    /// Hits served from SSD.
    pub ssd_hits: u64,
    /// Backend queries (miss penalty paid).
    pub backend_fetches: u64,
    /// Virtual ns spent inside mandatory API calls.
    pub issue_blocked_ns: u64,
    /// Virtual ns spent waiting for completions (overlappable).
    pub wait_blocked_ns: u64,
    /// Percentage of the job runtime available for overlap.
    pub overlap_pct: f64,
    /// Operations that failed with a client error (timeouts included).
    pub failed_ops: u64,
    /// Subset of `failed_ops` that ran out their deadline.
    pub timed_out_ops: u64,
    /// Per-phase lifecycle rollup (comm/dispatch/store/comm-out) built
    /// from the request timelines of every completion that carried one.
    pub phases: PhaseRollup,
}

impl RunReport {
    /// Virtual throughput in operations per second.
    pub fn throughput_ops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        self.ops as f64 * 1e9 / self.elapsed_ns as f64
    }

    /// Successful operations per second — what the application actually
    /// got done under faults.
    pub fn goodput_ops_per_sec(&self) -> f64 {
        if self.elapsed_ns == 0 {
            return 0.0;
        }
        (self.ops as u64).saturating_sub(self.failed_ops) as f64 * 1e9 / self.elapsed_ns as f64
    }

    /// Merge per-client reports from a concurrent run into an aggregate:
    /// ops sum, elapsed max (they ran concurrently), latencies weighted.
    /// A single report merges to itself, bit for bit.
    pub fn merge(reports: &[RunReport]) -> RunReport {
        if let [only] = reports {
            return only.clone();
        }
        assert!(!reports.is_empty());
        let total_ops: usize = reports.iter().map(|r| r.ops).sum();
        let elapsed = reports.iter().map(|r| r.elapsed_ns).max().unwrap_or(0);
        let w = |f: fn(&RunReport) -> u64| -> u64 {
            let s: u128 = reports.iter().map(|r| f(r) as u128 * r.ops as u128).sum();
            (s / total_ops.max(1) as u128) as u64
        };
        let mut breakdown = StageBreakdown::default();
        for r in reports {
            let frac = r.ops as f64 / total_ops.max(1) as f64;
            breakdown.slab_alloc_ns += r.breakdown.slab_alloc_ns * frac;
            breakdown.check_load_ns += r.breakdown.check_load_ns * frac;
            breakdown.cache_update_ns += r.breakdown.cache_update_ns * frac;
            breakdown.response_ns += r.breakdown.response_ns * frac;
            breakdown.client_wait_ns += r.breakdown.client_wait_ns * frac;
            breakdown.miss_penalty_ns += r.breakdown.miss_penalty_ns * frac;
        }
        RunReport {
            ops: total_ops,
            elapsed_ns: elapsed,
            mean_latency_ns: w(|r| r.mean_latency_ns),
            p99_latency_ns: reports.iter().map(|r| r.p99_latency_ns).max().unwrap_or(0),
            breakdown,
            hits: reports.iter().map(|r| r.hits).sum(),
            misses: reports.iter().map(|r| r.misses).sum(),
            ram_hits: reports.iter().map(|r| r.ram_hits).sum(),
            ssd_hits: reports.iter().map(|r| r.ssd_hits).sum(),
            backend_fetches: reports.iter().map(|r| r.backend_fetches).sum(),
            issue_blocked_ns: reports.iter().map(|r| r.issue_blocked_ns).sum(),
            wait_blocked_ns: reports.iter().map(|r| r.wait_blocked_ns).sum(),
            overlap_pct: reports
                .iter()
                .map(|r| r.overlap_pct * r.ops as f64)
                .sum::<f64>()
                / total_ops.max(1) as f64,
            failed_ops: reports.iter().map(|r| r.failed_ops).sum(),
            timed_out_ops: reports.iter().map(|r| r.timed_out_ops).sum(),
            phases: {
                let mut phases = PhaseRollup::new();
                for r in reports {
                    phases.merge(&r.phases);
                }
                phases
            },
        }
    }
}

/// Preload the store with `keys` keys of `value_len` bytes via blocking
/// sets (the paper's "server is preloaded with N GB of data").
pub async fn preload(client: &Rc<Client>, keys: usize, value_len: usize) {
    let space = KeySpace::new(keys);
    let pool = ValuePool::new(value_len, 8);
    for i in 0..keys {
        client
            .set(space.key(i), pool.value(i), 0, None)
            .await
            .expect("preload set failed");
    }
}

/// The op sequence of `spec`: a pure function of its keys, pattern, mix,
/// ops and seed, so every design and flavour runs the same sequence.
fn plan_from_spec(spec: &WorkloadSpec) -> Vec<PlannedOp> {
    let mut chooser = KeyChooser::new(KeySpace::new(spec.keys), spec.pattern, spec.seed);
    let mut mix_rng = StdRng::seed_from_u64(spec.seed ^ 0x9E37_79B9);
    (0..spec.ops)
        .map(|_| {
            let key = chooser.next_key();
            match spec.mix.choose(&mut mix_rng) {
                OpKind::Read => PlannedOp::Get { key },
                OpKind::Write => PlannedOp::Set { key },
            }
        })
        .collect()
}

/// Run `spec` against `client`, returning the measurements.
pub async fn run_workload(sim: &Sim, client: &Rc<Client>, spec: &WorkloadSpec) -> RunReport {
    let plan = plan_from_spec(spec);
    let pool = ValuePool::new(spec.value_len, 8);
    match spec.flavor {
        ApiFlavor::Block => execute_blocking(sim, client, &plan, &pool, spec).await,
        _ => execute_nonblocking(sim, client, &plan, &pool, spec).await,
    }
}

async fn execute_blocking(
    sim: &Sim,
    client: &Rc<Client>,
    plan: &[PlannedOp],
    pool: &ValuePool,
    spec: &WorkloadSpec,
) -> RunReport {
    let backend = BackendDb::new(sim, spec.miss_penalty, pool.value_len());
    let mut rec = LatencyRecorder::new();
    let mut agg = StageAggregator::new();
    let mut counters = Counters::default();

    let start = sim.now();
    for (op_idx, op) in plan.iter().enumerate() {
        let t0 = sim.now();
        match op {
            PlannedOp::Set { key } => {
                match client.set(key.clone(), pool.value(op_idx), 0, None).await {
                    Ok(c) => {
                        counters.record_timeline(&c);
                        let total = ns(sim, t0);
                        agg.record_blocking(&c.stages, total, 0);
                        rec.record(total);
                    }
                    Err(e) => {
                        counters.count_error(&e);
                        rec.record(ns(sim, t0));
                    }
                }
            }
            PlannedOp::Get { key } => match client.get(key.clone()).await {
                Ok(c) => {
                    let mut penalty_ns = 0u64;
                    counters.count_get(&c);
                    if c.status == OpStatus::Miss {
                        let p0 = sim.now();
                        let value = backend.fetch(key).await;
                        penalty_ns = ns_between(p0, sim.now());
                        if spec.recache_on_miss {
                            // Best-effort: a failed re-cache costs a future
                            // miss, not the current op, so it is not a
                            // failed op.
                            let _ = client.set(key.clone(), value, 0, None).await;
                        }
                    }
                    let total = ns(sim, t0);
                    agg.record_blocking(&c.stages, total, penalty_ns);
                    rec.record(total);
                }
                Err(e) => {
                    // Graceful degradation: a read the store cannot serve
                    // (server down, retries exhausted) falls back to the
                    // backend database at the full miss penalty.
                    counters.count_error(&e);
                    let p0 = sim.now();
                    let _ = backend.fetch(key).await;
                    let penalty_ns = ns_between(p0, sim.now());
                    let total = ns(sim, t0);
                    agg.record_blocking(&StageTimes::default(), total, penalty_ns);
                    rec.record(total);
                }
            },
        }
    }
    let elapsed = ns_between(start, sim.now());
    finish_report(
        plan.len(),
        elapsed,
        rec,
        agg,
        counters,
        backend.fetches(),
        elapsed,
        0,
    )
}

/// Non-blocking access pattern: issue a group of ops, ring the client's
/// batching doorbell, then reap the group.
///
/// - Per-op (`batch` 0 or 1): the whole plan is one group, issued through
///   `flavor`'s variants; when `window` ops are outstanding the oldest is
///   reaped first. The doorbell is never rung.
/// - Batched (`batch` > 1): groups of `batch` ops issued back to back
///   through the I-variants — Listing 2's bursty issue-then-wait shape,
///   shaped to feed the client's coalescing queues. The group reap waits
///   for completions, which subsumes the B-variants' buffer-reuse
///   guarantee at group granularity, so both flavours issue identically
///   here, and nothing is reaped before the group ends.
async fn execute_nonblocking(
    sim: &Sim,
    client: &Rc<Client>,
    plan: &[PlannedOp],
    pool: &ValuePool,
    spec: &WorkloadSpec,
) -> RunReport {
    let batched = spec.batch > 1;
    let (group, flavor, window) = if batched {
        (spec.batch, ApiFlavor::NonBlockingI, usize::MAX)
    } else {
        (plan.len().max(1), spec.flavor, spec.window.max(1))
    };
    let mut counters = Counters::default();
    let mut inflight: VecDeque<ReqHandle> = VecDeque::new();
    let mut issue_ns_per_op: Vec<u64> = Vec::with_capacity(plan.len());
    let mut issue_blocked = 0u64;
    let mut wait_blocked = 0u64;
    // Non-blocking completions carry no per-attempt retry loop, so the
    // client's deadline bounds every reap — without it a dropped request
    // under fault injection would hang the run forever.
    let reap_deadline = client.policy().deadline;

    let start = sim.now();
    for (g, ops) in plan.chunks(group).enumerate() {
        for (i, op) in ops.iter().enumerate() {
            let op_idx = g * group + i;
            // Respect the application window: reap the oldest when full.
            if inflight.len() >= window {
                let h = inflight.pop_front().expect("window full implies inflight");
                wait_blocked += reap(sim, h, reap_deadline, &mut counters).await;
            }
            let t0 = sim.now();
            let issued = match (op, flavor) {
                (PlannedOp::Set { key }, ApiFlavor::NonBlockingI) => {
                    client.iset(key.clone(), pool.value(op_idx), 0, None).await
                }
                (PlannedOp::Set { key }, _) => {
                    client.bset(key.clone(), pool.value(op_idx), 0, None).await
                }
                (PlannedOp::Get { key }, ApiFlavor::NonBlockingI) => client.iget(key.clone()).await,
                (PlannedOp::Get { key }, _) => client.bget(key.clone()).await,
            };
            let issue = ns(sim, t0);
            issue_blocked += issue;
            issue_ns_per_op.push(issue);
            match issued {
                Ok(handle) => inflight.push_back(handle),
                Err(e) => counters.count_error(&e),
            }
        }
        if batched {
            client.flush_batches();
        }
        // The group's memcached_wait over everything still outstanding.
        while let Some(h) = inflight.pop_front() {
            wait_blocked += reap(sim, h, reap_deadline, &mut counters).await;
        }
    }
    let elapsed = ns_between(start, sim.now());

    // Per-op visible cost = own issue time + amortized completion wait.
    let amortized_wait = wait_blocked / plan.len().max(1) as u64;
    let mut rec = LatencyRecorder::new();
    let mut agg = StageAggregator::new();
    for issue in issue_ns_per_op {
        let visible = issue + amortized_wait;
        rec.record(visible);
        agg.record_nonblocking(visible);
    }
    finish_report(
        plan.len(),
        elapsed,
        rec,
        agg,
        counters,
        0,
        issue_blocked,
        wait_blocked,
    )
}

/// Wait for one outstanding completion, bounded by `deadline` when the
/// client has one. A timed-out reap cancels the request (the handle reaps
/// its pending-table entry and window permit) and counts as a failed op.
/// Returns the virtual ns spent waiting.
async fn reap(sim: &Sim, h: ReqHandle, deadline: Option<Duration>, counters: &mut Counters) -> u64 {
    let t = sim.now();
    match deadline {
        Some(d) => match h.wait_timeout(d).await {
            Ok(c) => counters.count_get(&c),
            Err(_) => counters.count_error(&ClientError::TimedOut),
        },
        None => {
            let c = h.wait().await;
            counters.count_get(&c);
        }
    }
    ns(sim, t)
}

#[derive(Default)]
struct Counters {
    hits: u64,
    misses: u64,
    ram_hits: u64,
    ssd_hits: u64,
    failed: u64,
    timed_out: u64,
    phases: PhaseRollup,
}

impl Counters {
    /// Fold the completion's lifecycle stamps into the phase rollup.
    /// Completions without usable stamps (unstamped or retried attempts)
    /// return no timeline and are skipped.
    fn record_timeline(&mut self, c: &Completion) {
        if let Some(tl) = c.timeline() {
            self.phases.record(&tl);
        }
    }

    fn count_get(&mut self, c: &Completion) {
        self.record_timeline(c);
        match c.status {
            OpStatus::Hit => {
                self.hits += 1;
                match c.stages.served_from {
                    ServedFrom::Ram => self.ram_hits += 1,
                    ServedFrom::Ssd => self.ssd_hits += 1,
                    ServedFrom::None => {}
                }
            }
            OpStatus::Miss => self.misses += 1,
            _ => {}
        }
    }

    fn count_error(&mut self, e: &ClientError) {
        self.failed += 1;
        if matches!(e, ClientError::TimedOut) {
            self.timed_out += 1;
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn finish_report(
    ops: usize,
    elapsed_ns: u64,
    mut rec: LatencyRecorder,
    agg: StageAggregator,
    counters: Counters,
    backend_fetches: u64,
    issue_blocked_ns: u64,
    wait_blocked_ns: u64,
) -> RunReport {
    let overlap_pct = if elapsed_ns == 0 {
        0.0
    } else {
        100.0 * (1.0 - issue_blocked_ns as f64 / elapsed_ns as f64).clamp(0.0, 1.0)
    };
    RunReport {
        ops,
        elapsed_ns,
        mean_latency_ns: rec.mean_ns(),
        p99_latency_ns: rec.quantile_ns(0.99),
        breakdown: agg.average(),
        hits: counters.hits,
        misses: counters.misses,
        ram_hits: counters.ram_hits,
        ssd_hits: counters.ssd_hits,
        backend_fetches,
        issue_blocked_ns,
        wait_blocked_ns,
        overlap_pct,
        failed_ops: counters.failed,
        timed_out_ops: counters.timed_out,
        phases: counters.phases,
    }
}

fn ns(sim: &Sim, since: nbkv_simrt::SimTime) -> u64 {
    sim.now().saturating_since(since).as_nanos() as u64
}

fn ns_between(a: nbkv_simrt::SimTime, b: nbkv_simrt::SimTime) -> u64 {
    b.saturating_since(a).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbkv_core::cluster::{build_cluster, ClusterConfig};
    use nbkv_core::designs::Design;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn small_cluster(design: Design, mem_mb: u64) -> (Sim, Rc<Client>) {
        let sim = Sim::new();
        let cluster = build_cluster(&sim, &ClusterConfig::new(design, mem_mb << 20));
        let client = Rc::clone(&cluster.clients[0]);
        (sim, client)
    }

    #[test]
    fn blocking_run_reports_hits_when_data_fits() {
        let (sim, client) = small_cluster(Design::RdmaMem, 32);
        let report = sim.run_until({
            let client = Rc::clone(&client);
            async move {
                preload(&client, 100, 4096).await;
                let mut spec = WorkloadSpec::zipf(100, 4096, 300, ApiFlavor::Block);
                spec.mix = OpMix::READ_ONLY;
                run_workload(&client.sim_handle(), &client, &spec).await
            }
        });
        assert_eq!(report.ops, 300);
        assert_eq!(report.hits, 300);
        assert_eq!(report.misses, 0);
        assert!(report.mean_latency_ns > 0);
        assert_eq!(report.phases.ops, 300, "every get carries a timeline");
        assert_eq!(report.phases.e2e.count(), 300);
        assert!(report.phases.comm_in.sum() > 0);
        assert!(report.phases.comm_out.sum() > 0);
        assert!(
            report.overlap_pct < 5.0,
            "blocking has no overlap: {}",
            report.overlap_pct
        );
    }

    #[test]
    fn nonblocking_run_shows_high_overlap() {
        // 32 KiB values, the paper's Figure 7(a) shape.
        let (sim, client) = small_cluster(Design::HRdmaOptNonBI, 32);
        let report = sim.run_until({
            let client = Rc::clone(&client);
            async move {
                preload(&client, 100, 32 << 10).await;
                let mut spec = WorkloadSpec::zipf(100, 32 << 10, 500, ApiFlavor::NonBlockingI);
                spec.mix = OpMix::READ_ONLY;
                run_workload(&client.sim_handle(), &client, &spec).await
            }
        });
        assert_eq!(report.hits + report.misses, 500);
        assert!(
            report.overlap_pct > 60.0,
            "iget overlap should be high: {}",
            report.overlap_pct
        );
        assert_eq!(report.phases.ops, 500, "reaped ops carry timelines");
        assert!(report.phases.store.sum() > 0);
    }

    #[test]
    fn in_memory_design_misses_when_data_does_not_fit() {
        // 4 MiB of RAM, 16 MiB of data.
        let (sim, client) = small_cluster(Design::RdmaMem, 4);
        let report = sim.run_until({
            let client = Rc::clone(&client);
            async move {
                preload(&client, 512, 32 << 10).await;
                let mut spec = WorkloadSpec::zipf(512, 32 << 10, 300, ApiFlavor::Block);
                spec.mix = OpMix::READ_ONLY;
                run_workload(&client.sim_handle(), &client, &spec).await
            }
        });
        assert!(report.misses > 0, "evictions must cause misses");
        assert_eq!(report.backend_fetches, report.misses);
        assert!(report.breakdown.miss_penalty_ns > 0.0);
    }

    #[test]
    fn hybrid_design_does_not_miss() {
        let (sim, client) = small_cluster(Design::HRdmaOptBlock, 4);
        let report = sim.run_until({
            let client = Rc::clone(&client);
            async move {
                preload(&client, 512, 32 << 10).await;
                let mut spec = WorkloadSpec::zipf(512, 32 << 10, 300, ApiFlavor::Block);
                spec.mix = OpMix::READ_ONLY;
                run_workload(&client.sim_handle(), &client, &spec).await
            }
        });
        assert_eq!(report.misses, 0, "hybrid retains all data");
        assert!(report.ssd_hits > 0, "some reads come from SSD");
        assert_eq!(report.backend_fetches, 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A plan draws every key from the spec's key space, follows the
        /// mix at its extremes, and depends only on keys, pattern, mix,
        /// ops and seed: flavour, window and batch never change it.
        #[test]
        fn plan_from_spec_properties(
            keys in 1usize..200,
            zipf in any::<bool>(),
            read_pct in 0u8..=100,
            ops in 1usize..300,
            seed in any::<u64>(),
            flavor in 0usize..3,
            window in 1usize..128,
            batch in 0usize..64,
        ) {
            let mut spec = WorkloadSpec::zipf(keys, 64, ops, ApiFlavor::Block);
            if !zipf {
                spec.pattern = AccessPattern::Uniform;
            }
            spec.mix = OpMix { read_pct };
            spec.seed = seed;
            let plan = plan_from_spec(&spec);
            prop_assert_eq!(plan.len(), ops);
            let space = KeySpace::new(keys);
            let all: HashSet<Bytes> = (0..keys).map(|i| space.key(i)).collect();
            for op in &plan {
                let (PlannedOp::Get { key } | PlannedOp::Set { key }) = op;
                prop_assert!(all.contains(key), "{key:?} is not in the key space");
            }
            if read_pct == 100 {
                prop_assert!(plan.iter().all(|o| matches!(o, PlannedOp::Get { .. })));
            }
            if read_pct == 0 {
                prop_assert!(plan.iter().all(|o| matches!(o, PlannedOp::Set { .. })));
            }
            let other = WorkloadSpec {
                flavor: [ApiFlavor::Block, ApiFlavor::NonBlockingI, ApiFlavor::NonBlockingB]
                    [flavor],
                window,
                batch,
                ..spec
            };
            prop_assert!(plan_from_spec(&other) == plan);
        }
    }

    #[test]
    fn merge_aggregates_concurrent_reports() {
        let a = RunReport {
            ops: 100,
            elapsed_ns: 1_000,
            mean_latency_ns: 10,
            p99_latency_ns: 20,
            breakdown: StageBreakdown::default(),
            hits: 50,
            misses: 0,
            ram_hits: 50,
            ssd_hits: 0,
            backend_fetches: 0,
            issue_blocked_ns: 100,
            wait_blocked_ns: 0,
            overlap_pct: 90.0,
            failed_ops: 0,
            timed_out_ops: 0,
            phases: PhaseRollup::new(),
        };
        let mut b = a.clone();
        b.ops = 300;
        b.elapsed_ns = 2_000;
        b.mean_latency_ns = 30;
        b.hits = 150;
        let m = RunReport::merge(&[a, b]);
        assert_eq!(m.ops, 400);
        assert_eq!(m.elapsed_ns, 2_000);
        assert_eq!(m.hits, 200);
        assert_eq!(m.mean_latency_ns, 25); // weighted by ops
        assert!((m.throughput_ops_per_sec() - 400.0 * 1e9 / 2000.0).abs() < 1.0);
    }

    #[test]
    fn merge_of_one_report_is_that_report() {
        // A real run's report, with an overlap share that the weighted
        // average would not reproduce exactly ((0.1 * 3) / 3 != 0.1).
        let (sim, client) = small_cluster(Design::HRdmaOptNonBI, 8);
        let mut r = sim.run_until({
            let client = Rc::clone(&client);
            async move {
                preload(&client, 64, 4096).await;
                let spec = WorkloadSpec::zipf(64, 4096, 3, ApiFlavor::NonBlockingI);
                run_workload(&client.sim_handle(), &client, &spec).await
            }
        });
        assert_eq!(r.ops, 3);
        assert!(r.phases.ops > 0);
        r.overlap_pct = 0.1;
        let merged = RunReport::merge(std::slice::from_ref(&r));
        assert_eq!(format!("{merged:?}"), format!("{r:?}"));
    }
}
