//! Counter snapshots of every layer, and the busy fractions derived from
//! them. Everything is read from outside, through public stats accessors
//! and the public cost models (`CpuCosts`, `LatencyModel`,
//! `DeviceProfile`), so the program carries no benchmark hooks.

use std::collections::BTreeMap;

use nbkv_core::cluster::Cluster;
use nbkv_core::SpecParams;
use nbkv_fabric::FRAME_OVERHEAD;
use nbkv_simrt::Sim;
use nbkv_storesim::DeviceProfile;

use crate::report::ratio;
use crate::workloads::Workload;

/// Counters of every layer at one instant, or the difference of two.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Snapshot {
    /// Counters summed over nodes, by `layer.counter` name.
    sum: BTreeMap<&'static str, u64>,
    /// Frames each server's dispatcher took in (a batch frame counts once).
    pub server_frames: Vec<u64>,
    /// Bytes each link direction serialised, framing included.
    pub link_wire_bytes: Vec<u64>,
    /// Per SSD: reads, writes, bytes read, bytes written.
    pub devices: Vec<[u64; 4]>,
    /// Largest send-window high-water mark of any client (a gauge: kept,
    /// not differenced).
    pub window_hwm: u64,
}

impl Snapshot {
    pub fn take(sim: &Sim, cluster: &Cluster) -> Snapshot {
        let mut sum = BTreeMap::new();
        let mut add = |name: &'static str, v: u64| *sum.entry(name).or_insert(0) += v;
        let st = sim.stats();
        add("sim.polls", st.polls);
        add("sim.timer_events", st.timer_events);
        add("sim.tasks_spawned", st.tasks_spawned);

        let mut window_hwm = 0;
        for c in &cluster.clients {
            let st = c.stats();
            window_hwm = window_hwm.max(st.window_hwm);
            for (name, v) in [
                ("client.issued", st.issued),
                ("client.completed", st.completed),
                ("client.orphans", st.orphans),
                ("client.timeouts", st.timeouts),
                ("client.retries", st.retries),
                ("client.hedges", st.hedges),
                ("client.breaker_rejections", st.breaker_rejections),
                ("client.batches_sent", st.batches_sent),
                ("client.batched_ops", st.batched_ops),
                ("client.flush_on_count", st.flush_on_count),
                ("client.flush_on_size", st.flush_on_size),
                ("client.flush_on_deadline", st.flush_on_deadline),
                ("client.flush_on_doorbell", st.flush_on_doorbell),
                ("client.direct_hits", st.direct_hits),
                ("client.stale_retries", st.stale_retries),
                ("client.ssd_fallbacks", st.ssd_fallbacks),
                ("client.direct_lost", st.direct_lost),
                ("client.mode_flips", st.mode_flips),
                ("client.replica_reads", st.replica_reads),
                ("client.promotions", st.promotions),
            ] {
                add(name, v);
            }
            let mr = c.mr_stats();
            add("client.mr_hits", mr.hits);
            add("client.mr_misses", mr.misses);
        }

        let mut server_frames = Vec::with_capacity(cluster.servers.len());
        for s in &cluster.servers {
            let st = s.stats();
            server_frames.push(st.requests.saturating_sub(st.batch_ops) + st.batches);
            for (name, v) in [
                ("server.requests", st.requests),
                ("server.inline_handled", st.inline_handled),
                ("server.staged", st.staged),
                ("server.responses", st.responses),
                ("server.proto_errors", st.proto_errors),
                ("server.batches", st.batches),
                ("server.batch_ops", st.batch_ops),
                ("server.repl_sent", st.repl_sent),
                ("server.repl_acked", st.repl_acked),
                ("server.repl_retrans", st.repl_retrans),
            ] {
                add(name, v);
            }
            let ss = s.store().stats();
            for (name, v) in [
                ("store.sets", ss.sets),
                ("store.get_hits_ram", ss.get_hits_ram),
                ("store.get_hits_ssd", ss.get_hits_ssd),
                ("store.get_misses", ss.get_misses),
                ("store.flushed_pages", ss.flushed_pages),
                ("store.evicted_items", ss.evicted_items),
                ("store.ssd_full_drops", ss.ssd_full_drops),
                ("store.promotes", ss.promotes),
                ("store.inflight_hits", ss.inflight_hits),
                ("store.set_errors", ss.set_errors),
                ("store.repl_applied", ss.repl_applied),
                ("store.repl_stale_drops", ss.repl_stale_drops),
            ] {
                add(name, v);
            }
            if let Some(io) = s.store().slab_io() {
                let io = io.io_stats();
                for (name, v) in [
                    ("slab_io.direct_ops", io.direct_ops),
                    ("slab_io.cached_ops", io.cached_ops),
                    ("slab_io.mmap_ops", io.mmap_ops),
                    ("slab_io.stall_ns", io.stall_ns),
                ] {
                    add(name, v);
                }
            }
            if let Some(idx) = s.onesided() {
                let o = idx.stats();
                add("onesided.published", o.published);
                add("onesided.invalidated", o.invalidated);
            }
        }

        let link_wire_bytes = cluster
            .links
            .iter()
            .map(|l| {
                let st = l.stats();
                add("fabric.messages", st.messages);
                st.bytes + st.messages * FRAME_OVERHEAD as u64
            })
            .collect();
        let devices = cluster
            .devices
            .iter()
            .map(|d| {
                let st = d.stats();
                add("ssd.bytes_read", st.bytes_read);
                add("ssd.bytes_written", st.bytes_written);
                [st.reads, st.writes, st.bytes_read, st.bytes_written]
            })
            .collect();
        Snapshot {
            sum,
            server_frames,
            link_wire_bytes,
            devices,
            window_hwm,
        }
    }

    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &Snapshot) -> Snapshot {
        let sub = |a: &[u64], b: &[u64]| -> Vec<u64> {
            a.iter().zip(b).map(|(x, y)| x.saturating_sub(*y)).collect()
        };
        Snapshot {
            sum: self
                .sum
                .iter()
                .map(|(k, v)| (*k, v.saturating_sub(before.get(k))))
                .collect(),
            server_frames: sub(&self.server_frames, &before.server_frames),
            link_wire_bytes: sub(&self.link_wire_bytes, &before.link_wire_bytes),
            devices: self
                .devices
                .iter()
                .zip(&before.devices)
                .map(|(a, b)| std::array::from_fn(|i| a[i].saturating_sub(b[i])))
                .collect(),
            window_hwm: self.window_hwm,
        }
    }

    /// A summed counter (0 when no node has it).
    pub fn get(&self, name: &str) -> u64 {
        self.sum.get(name).copied().unwrap_or(0)
    }
}

/// Busy fraction of the busiest instance of each shared resource over a
/// measured phase of `elapsed_ns` virtual ns.
#[derive(Debug, Clone, Copy)]
pub struct Busy {
    /// Frames x `CpuCosts::dispatch` on the busiest server, over the
    /// dispatcher's capacity (`ServerConfig::inline_concurrency` permits).
    pub dispatch: f64,
    /// Serialisation time at the link bandwidth on the busiest link.
    pub link: f64,
    /// Estimated device service time on the busiest SSD.
    pub ssd: f64,
}

impl Busy {
    pub fn of(w: &Workload, d: &Snapshot, elapsed_ns: u64) -> Busy {
        let cfg = w.cluster_config();
        let elapsed = elapsed_ns.max(1) as f64;
        // The dispatcher admits `inline_concurrency` frames at once, so its
        // capacity is that many dispatch charges per unit of time.
        let permits = cfg
            .design
            .server_config(SpecParams {
                mem_bytes: cfg.server_mem_bytes,
                ssd_capacity: cfg.ssd_capacity,
                costs: cfg.costs,
            })
            .inline_concurrency
            .max(1);
        let dispatch_ns = cfg.costs.dispatch.as_nanos() as f64 / permits as f64;
        let link_ns_per_byte = cfg
            .fabric_override
            .unwrap_or_else(|| cfg.design.fabric_profile())
            .link
            .ns_per_byte;
        let slab_ops =
            d.get("slab_io.direct_ops") + d.get("slab_io.cached_ops") + d.get("slab_io.mmap_ops");
        let sync_share = ratio(d.get("slab_io.direct_ops"), slab_ops);
        let busiest = |it: &mut dyn Iterator<Item = f64>| it.fold(0.0, f64::max);
        Busy {
            dispatch: busiest(
                &mut d
                    .server_frames
                    .iter()
                    .map(|&f| f as f64 * dispatch_ns / elapsed),
            ),
            link: busiest(
                &mut d
                    .link_wire_bytes
                    .iter()
                    .map(|&b| b as f64 * link_ns_per_byte / elapsed),
            ),
            ssd: busiest(
                &mut d
                    .devices
                    .iter()
                    .map(|dev| device_busy_ns(&cfg.device, dev, sync_share) / elapsed),
            ),
        }
    }

    /// The busiest of the three resources.
    pub fn bottleneck(&self) -> (&'static str, f64) {
        [
            ("server dispatch loop", self.dispatch),
            ("fabric link", self.link),
            ("SSD", self.ssd),
        ]
        .into_iter()
        .fold(("none", 0.0), |best, r| if r.1 > best.1 { r } else { best })
    }
}

/// Device service time implied by its counters: reads at the read cost,
/// writes at the queued write cost, with the share issued through the
/// direct (synchronous) slab scheme paying the sync-write surcharge. This
/// is an estimate: the device does not export its busy time.
fn device_busy_ns(p: &DeviceProfile, dev: &[u64; 4], sync_share: f64) -> f64 {
    let [reads, writes, bytes_read, bytes_written] = dev.map(|v| v as f64);
    let read = reads * p.read_base.as_nanos() as f64 + bytes_read * p.read_ns_per_byte;
    let write_base = writes * p.write_base.as_nanos() as f64 * (1.0 + sync_share);
    let write_bytes =
        bytes_written * p.write_ns_per_byte * (1.0 + sync_share * (p.sync_write_multiplier - 1.0));
    (read + write_base + write_bytes) / p.queue_depth as f64
}
