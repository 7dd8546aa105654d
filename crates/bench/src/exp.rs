//! Experiment scaffolding shared by all figure harnesses.

use std::rc::Rc;
use std::time::Duration;

use nbkv_core::cluster::{build_cluster, schedule_crash, Cluster, ClusterConfig, CrashEvent};
use nbkv_core::designs::Design;
use nbkv_obs::Registry;
use nbkv_simrt::{join_all, Sim};
use nbkv_storesim::IoScheme;
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

    /// Build, preload, run, and merge per-client reports; also snapshot
    /// every layer's counters (server pipeline, store, slab I/O, clients,
    /// fabric links) into a metrics registry before the cluster is torn
    /// down (see [`on_cluster`]).
    pub fn run(&self) -> (RunReport, Registry) {
        let mut cfg = self.cluster.clone();
        if self.batch > 1 {
            cfg.client.batch = Some(nbkv_core::BatchPolicy::default());
        }
        let (crash, replicated) = (self.crash, cfg.replication.is_replicated());
        on_cluster(&cfg, |sim, cluster| {
            let (s, servers, clients) = (
                sim.clone(),
                cluster.servers.clone(),
                cluster.clients.clone(),
            );
            self.measure(sim, cluster, move |t0| {
                // Crash schedules are anchored to the measured phase.
                if let Some(mut ev) = crash {
                    ev.at += t0;
                    if let Some(r) = &mut ev.restart_at {
                        *r += t0;
                    }
                    schedule_crash(&s, &servers, &clients, ev, replicated);
                }
            })
        })
    }

    /// Preload every key through the first client (not measured), call
    /// `at_t0` with the virtual time the measured phase starts, then run
    /// the workload on all clients concurrently and merge their reports.
    pub fn measure(
        &self,
        sim: &Sim,
        cluster: &Cluster,
        at_t0: impl FnOnce(Duration) + 'static,
    ) -> RunReport {
        let (keys, value_len) = (self.keys(), self.value_len);
        let spec_template = WorkloadSpec {
            keys,
            value_len,
            pattern: AccessPattern::Zipf(0.99),
            mix: self.mix,
            ops: self.ops_per_client,
            flavor: self.cluster.design.flavor(),
            window: self.window,
            seed: 42,
            miss_penalty: nbkv_workload::BackendDb::default_penalty(),
            recache_on_miss: true,
            batch: self.batch,
        };
        let clients = cluster.clients.clone();
        let sim2 = sim.clone();
        sim.run_until(async move {
            preload(&clients[0], keys, value_len).await;
            at_t0(Duration::from_nanos(sim2.now().as_nanos()));
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
            RunReport::merge(&join_all(tasks).await)
        })
    }
}

/// Build `cfg`'s cluster on a fresh simulation and hand both to `run`;
/// then snapshot the cluster's counters into a registry and shut the
/// simulation down. Every harness that builds a cluster goes through here,
/// so every such case exports the same registry.
pub fn on_cluster<T>(cfg: &ClusterConfig, run: impl FnOnce(&Sim, &Cluster) -> T) -> (T, Registry) {
    let sim = Sim::new();
    let cluster = build_cluster(&sim, cfg);
    let out = run(&sim, &cluster);
    let registry = cluster_registry(&sim, &cluster);
    // Break the world->task->server->Sim reference cycle so repeated
    // experiments in one process release their memory.
    sim.shutdown();
    (out, registry)
}

/// Snapshot a finished cluster's counters into a metrics registry: the
/// executor's, each node's stats structs under their layer prefixes (each
/// SSD's command and fault counters, each link's traffic and fault
/// counters), plus the replication-lag gauge, breaker trips and the
/// ops-per-batch histogram, which are not struct fields. Counters add
/// across nodes; gauges take the largest.
fn cluster_registry(sim: &Sim, cluster: &Cluster) -> Registry {
    let mut reg = Registry::new();
    sim.stats().export("sim.", &mut reg);
    for s in &cluster.servers {
        s.stats().export("server.", &mut reg);
        reg.gauge_max("server.repl_lag_ops", s.repl_lag_ops() as i64);
        s.store().stats().export("store.", &mut reg);
        if let Some(io) = s.store().slab_io() {
            io.io_stats().export("slab_io.", &mut reg);
            for scheme in [IoScheme::Cached, IoScheme::Mmap] {
                if let Some(st) = io.page_cache_stats(scheme) {
                    st.export(&format!("page_cache.{}_", scheme.label()), &mut reg);
                }
            }
        }
        if let Some(idx) = s.store().onesided() {
            idx.stats().export("onesided.", &mut reg);
        }
    }
    for c in &cluster.clients {
        c.stats().export("client.", &mut reg);
        c.mr_stats().export("client.mr_", &mut reg);
        reg.inc("client.breaker_trips", c.breaker_trips());
        let hist = c.ops_per_batch();
        if hist.count() > 0 {
            reg.merge_hist("client.ops_per_batch", &hist);
        }
    }
    for d in &cluster.devices {
        d.stats().export("ssd.", &mut reg);
        d.fault_stats().export("ssd.fault_", &mut reg);
    }
    for l in &cluster.links {
        l.stats().export("fabric.", &mut reg);
        l.fault_stats().export("fabric.fault_", &mut reg);
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
        let (report, _) = exp.run();
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
        let (report, _) = exp.run();
        assert_eq!(report.ops, 300);
        assert!(report.throughput_ops_per_sec() > 0.0);
    }

    #[test]
    fn every_stats_field_reaches_the_registry() {
        use nbkv_core::server::{OneSidedStats, ServerStats, StoreStats};
        use nbkv_core::{client::ClientStats, OneSidedConfig};
        use nbkv_fabric::{FaultStats, LinkStats, MrStats};
        use nbkv_simrt::SimStats;
        use nbkv_storesim::{DeviceStats, PageCacheStats, SlabIoStats, SsdFaultStats};
        let mut exp = LatencyExp {
            ops_per_client: 200,
            ..LatencyExp::single(Design::HRdmaOptNonBI, 16 << 20, 8 << 20)
        };
        exp.cluster.onesided = Some(OneSidedConfig::default());
        let json = exp.run().1.to_json().render_pretty();
        for (prefix, names) in [
            ("sim.", &SimStats::NAMES[..]),
            ("server.", &ServerStats::NAMES),
            ("store.", &StoreStats::NAMES),
            ("slab_io.", &SlabIoStats::NAMES),
            ("page_cache.cached_", &PageCacheStats::NAMES),
            ("page_cache.mmap_", &PageCacheStats::NAMES),
            ("onesided.", &OneSidedStats::NAMES),
            ("client.", &ClientStats::NAMES),
            ("client.mr_", &MrStats::NAMES),
            ("fabric.", &LinkStats::NAMES),
            ("fabric.fault_", &FaultStats::NAMES),
            ("ssd.", &DeviceStats::NAMES),
            ("ssd.fault_", &SsdFaultStats::NAMES),
        ] {
            for name in names {
                let key = format!("\"{prefix}{name}\"");
                assert!(json.contains(&key), "{key} missing from the registry");
            }
        }
    }
}
