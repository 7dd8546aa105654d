//! Experiment scaffolding shared by all figure harnesses.

use std::rc::Rc;

use nbkv_core::cluster::{build_cluster, schedule_crash, Cluster, ClusterConfig, CrashEvent};
use nbkv_core::designs::Design;
use nbkv_obs::Registry;
use nbkv_simrt::{join_all, Sim};
use nbkv_workload::{preload, run_workload, AccessPattern, OpMix, RunReport, WorkloadSpec};

/// Global experiment scale factor.
///
/// `1.0` = the paper's sizes (1 GB server memory, 1.5 GB data, ...).
/// Scaled down, all size ratios (data:memory, SSD:memory) are preserved, so
/// the *shape* of every result is unchanged while runs stay quick. Set via
/// the `NBKV_SCALE` environment variable; default 0.25.
pub fn scale_factor() -> f64 {
    std::env::var("NBKV_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&f| f > 0.0)
        .unwrap_or(0.25)
}

/// Scale a byte quantity, keeping 1 MiB granularity (slab pages).
pub fn scaled_bytes(full: u64) -> u64 {
    let b = (full as f64 * scale_factor()) as u64;
    (b / (1 << 20)).max(2) * (1 << 20)
}

/// Scale an operation count (with a floor so statistics stay meaningful).
pub fn scaled_ops(full: usize) -> usize {
    ((full as f64 * scale_factor()) as usize).max(500)
}

/// One latency/throughput experiment: an isolated simulation with one
/// cluster, preloaded, then measured.
#[derive(Debug, Clone)]
pub struct LatencyExp {
    /// The cluster under test (design, sizes, device, client policy,
    /// one-sided window, replication, chaos).
    pub cluster: ClusterConfig,
    /// Total preloaded data.
    pub data_bytes: u64,
    /// Value size.
    pub value_len: usize,
    /// Measured operations per client.
    pub ops_per_client: usize,
    /// Read:write mix.
    pub mix: OpMix,
    /// Non-blocking window per client.
    pub window: usize,
    /// Batched issue group size (`0` = per-op issue). When > 1, clients
    /// are built with the default [`nbkv_core::BatchPolicy`] and the
    /// workload drives the batched access pattern.
    pub batch: usize,
    /// Scripted crash (and optional warm restart) of one server. Times
    /// are measured from the *end of the preload* — the start of the
    /// measured phase — so the schedule is independent of preload length.
    pub crash: Option<CrashEvent>,
}

impl LatencyExp {
    /// Single-server, single-client experiment in the paper's default
    /// shape (32 KiB values, Zipf 0.99, SATA SSD). The cluster's OS-cache
    /// (8x) and SSD (16x) budgets derive from `mem_bytes` here; changing
    /// `cluster.server_mem_bytes` later does not rescale them.
    pub fn single(design: Design, mem_bytes: u64, data_bytes: u64) -> Self {
        LatencyExp {
            cluster: ClusterConfig::new(design, mem_bytes),
            data_bytes,
            value_len: 32 << 10,
            ops_per_client: scaled_ops(4000),
            mix: OpMix::WRITE_HEAVY,
            window: 64,
            batch: 0,
            crash: None,
        }
    }

    /// Number of distinct keys.
    pub fn keys(&self) -> usize {
        (self.data_bytes / self.value_len as u64).max(1) as usize
    }

    /// Build, preload, run, and merge per-client reports.
    pub fn run(&self) -> RunReport {
        self.run_obs().0
    }

    /// Like [`run`](Self::run), but also snapshot every layer's counters
    /// (server pipeline, store, slab I/O, clients, fabric links) into a
    /// metrics registry before the cluster is torn down.
    pub fn run_obs(&self) -> (RunReport, Registry) {
        let sim = Sim::new();
        let mut cfg = self.cluster.clone();
        if self.batch > 1 {
            cfg.client.batch = Some(nbkv_core::BatchPolicy::default());
        }
        let cluster: Cluster = build_cluster(&sim, &cfg);
        let keys = self.keys();
        let value_len = self.value_len;
        let spec_template = WorkloadSpec {
            keys,
            value_len,
            pattern: AccessPattern::Zipf(0.99),
            mix: self.mix,
            ops: self.ops_per_client,
            flavor: cfg.design.flavor(),
            window: self.window,
            seed: 42,
            miss_penalty: nbkv_workload::BackendDb::default_penalty(),
            recache_on_miss: true,
            batch: self.batch,
        };
        let clients: Vec<_> = cluster.clients.iter().map(Rc::clone).collect();
        let servers: Vec<_> = cluster.servers.iter().map(Rc::clone).collect();
        let crash = self.crash;
        let replicated = cfg.replication.is_replicated();
        let sim2 = sim.clone();
        let report = sim.run_until(async move {
            // Preload through the first client (not measured).
            preload(&clients[0], keys, value_len).await;
            // Crash schedules are anchored to the measured phase.
            if let Some(mut ev) = crash {
                let t0 = std::time::Duration::from_nanos(sim2.now().as_nanos());
                ev.at += t0;
                if let Some(r) = &mut ev.restart_at {
                    *r += t0;
                }
                schedule_crash(&sim2, &servers, &clients, ev, replicated);
            }
            // Measured phase: all clients run concurrently.
            let tasks: Vec<_> = clients
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    let c = Rc::clone(c);
                    let sim = sim2.clone();
                    let mut spec = spec_template;
                    spec.seed = 42 + i as u64 * 1001;
                    async move { run_workload(&sim, &c, &spec).await }
                })
                .collect();
            let reports = join_all(tasks).await;
            RunReport::merge(&reports)
        });
        let registry = cluster_registry(&cluster);
        // Break the world->task->server->Sim reference cycle so repeated
        // experiments in one process release their memory.
        sim.shutdown();
        (report, registry)
    }
}

/// Snapshot a finished cluster's counters into a metrics registry:
/// server request-pipeline counters, storage-engine counters, slab-I/O
/// mode/stall accounting, client resilience counters (including the
/// send-window high-water mark and circuit-breaker trips), and fabric
/// link traffic. Counters sum across nodes; gauges take the max.
pub fn cluster_registry(cluster: &Cluster) -> Registry {
    let mut reg = Registry::new();
    for s in &cluster.servers {
        let st = s.stats();
        reg.inc("server.requests", st.requests);
        reg.inc("server.inline_handled", st.inline_handled);
        reg.inc("server.staged", st.staged);
        reg.inc("server.responses", st.responses);
        reg.inc("server.proto_errors", st.proto_errors);
        reg.inc("server.recv_during_flush", st.recv_during_flush);
        reg.inc("server.batches", st.batches);
        reg.inc("server.batch_ops", st.batch_ops);
        reg.inc("server.repl_sent", st.repl_sent);
        reg.inc("server.repl_acked", st.repl_acked);
        reg.inc("server.repl_retrans", st.repl_retrans);
        reg.gauge_max("server.repl_lag_ops", s.repl_lag_ops() as i64);
        let ss = s.store().stats();
        reg.inc("store.sets", ss.sets);
        reg.inc("store.get_hits_ram", ss.get_hits_ram);
        reg.inc("store.get_hits_ssd", ss.get_hits_ssd);
        reg.inc("store.get_misses", ss.get_misses);
        reg.inc("store.deletes", ss.deletes);
        reg.inc("store.flushed_pages", ss.flushed_pages);
        reg.inc("store.async_flushes", ss.async_flushes);
        reg.inc("store.evicted_items", ss.evicted_items);
        reg.inc("store.promotes", ss.promotes);
        reg.inc("store.inflight_hits", ss.inflight_hits);
        reg.inc("store.repl_applied", ss.repl_applied);
        reg.inc("store.repl_stale_drops", ss.repl_stale_drops);
        if let Some(io) = s.store().slab_io() {
            let io = io.io_stats();
            reg.inc("slab_io.reads", io.reads);
            reg.inc("slab_io.writes", io.writes);
            reg.inc("slab_io.read_bytes", io.read_bytes);
            reg.inc("slab_io.write_bytes", io.write_bytes);
            reg.inc("slab_io.direct_ops", io.direct_ops);
            reg.inc("slab_io.cached_ops", io.cached_ops);
            reg.inc("slab_io.mmap_ops", io.mmap_ops);
            reg.inc("slab_io.stall_ns", io.stall_ns);
        }
    }
    for c in &cluster.clients {
        let st = c.stats();
        reg.inc("client.issued", st.issued);
        reg.inc("client.completed", st.completed);
        reg.inc("client.orphans", st.orphans);
        reg.inc("client.timeouts", st.timeouts);
        reg.inc("client.retries", st.retries);
        reg.inc("client.hedges", st.hedges);
        reg.inc("client.breaker_rejections", st.breaker_rejections);
        reg.inc("client.breaker_trips", c.breaker_trips());
        reg.gauge_max("client.window_hwm", st.window_hwm as i64);
        reg.inc("client.batches_sent", st.batches_sent);
        reg.inc("client.batched_ops", st.batched_ops);
        reg.inc("client.flush_on_count", st.flush_on_count);
        reg.inc("client.flush_on_size", st.flush_on_size);
        reg.inc("client.flush_on_deadline", st.flush_on_deadline);
        reg.inc("client.flush_on_doorbell", st.flush_on_doorbell);
        reg.inc("client.direct_hits", st.direct_hits);
        reg.inc("client.stale_retries", st.stale_retries);
        reg.inc("client.ssd_fallbacks", st.ssd_fallbacks);
        reg.inc("client.direct_lost", st.direct_lost);
        reg.inc("client.mode_flips", st.mode_flips);
        reg.inc("client.replica_reads", st.replica_reads);
        reg.inc("client.promotions", st.promotions);
        let mr = c.mr_stats();
        reg.inc("client.mr_hits", mr.hits);
        reg.inc("client.mr_misses", mr.misses);
        reg.gauge_max("client.mr_registered_bytes", mr.registered_bytes as i64);
        let hist = c.ops_per_batch();
        if hist.count() > 0 {
            reg.merge_hist("client.ops_per_batch", &hist);
        }
    }
    for l in &cluster.links {
        let st = l.stats();
        reg.inc("fabric.messages", st.messages);
        reg.inc("fabric.bytes", st.bytes);
    }
    reg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_bytes_keeps_mib_granularity() {
        std::env::remove_var("NBKV_SCALE");
        let b = scaled_bytes(1 << 30);
        assert_eq!(b % (1 << 20), 0);
        assert!(b >= 2 << 20);
    }

    #[test]
    fn single_experiment_runs_and_reports() {
        let exp = LatencyExp {
            ops_per_client: 200,
            ..LatencyExp::single(Design::RdmaMem, 16 << 20, 8 << 20)
        };
        let report = exp.run();
        assert_eq!(report.ops, 200);
        assert!(report.mean_latency_ns > 0);
        assert_eq!(report.misses, 0, "data fits in memory");
    }

    #[test]
    fn multi_client_reports_merge() {
        let mut exp = LatencyExp::single(Design::HRdmaOptNonBI, 16 << 20, 8 << 20);
        exp.cluster.clients = 3;
        exp.ops_per_client = 100;
        exp.value_len = 8 << 10;
        let report = exp.run();
        assert_eq!(report.ops, 300);
        assert!(report.throughput_ops_per_sec() > 0.0);
    }
}
