//! The pinned workloads. Sizes are fixed here and ignore `NBKV_SCALE`, so
//! every run of a workload measures the same cluster. All three run the
//! paper's H-RDMA-Opt-NonB-i design with Zipf(0.99) keys; each one loads a
//! different set of layers (see `kvbench/README.md` for why).

use nbkv_core::cluster::ClusterConfig;
use nbkv_core::{BatchPolicy, Design, DirectPolicy, OneSidedConfig, ReadPolicy, ReplicationConfig};

const MIB: u64 = 1 << 20;

/// The workloads the benchmark defines, in report order.
pub const NAMES: [&str; 3] = ["hybrid-spill-rw", "ram-read-direct", "repl-batch-small"];

/// One workload: a cluster shape plus a closed-loop client load.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub servers: usize,
    /// RAM slab budget per server.
    pub server_mem: u64,
    /// SSD byte budget per server.
    pub ssd_capacity: u64,
    /// Total preloaded data (`data_bytes / value_len` keys).
    pub data_bytes: u64,
    pub value_len: usize,
    /// Concurrent closed-loop clients (simulated tasks, one per client node).
    pub clients: usize,
    /// Ops each client keeps outstanding; the oldest is reaped when full.
    pub window: usize,
    pub ops_per_client: usize,
    /// Percentage of GETs in the mix; the rest are SETs.
    pub read_pct: u8,
    pub direct: DirectPolicy,
    pub onesided: Option<OneSidedConfig>,
    /// Ring the batching doorbell after every this many issued ops, with
    /// the default `BatchPolicy`. `0` issues per-op with batching off.
    pub batch_group: usize,
    pub replication: ReplicationConfig,
    /// Charge no virtual time for server-side item copies. See
    /// `hybrid_spill_rw` for why one workload needs this.
    pub free_copies: bool,
}

impl Workload {
    /// Look a workload up by name. Besides the benchmark's workloads this
    /// knows `repro-retired-page`, a known crash repro (see the README).
    pub fn by_name(name: &str) -> Option<Workload> {
        Some(match name {
            "hybrid-spill-rw" => hybrid_spill_rw(),
            "ram-read-direct" => ram_read_direct(),
            "repl-batch-small" => repl_batch_small(),
            "repro-retired-page" => repro_retired_page(),
            _ => return None,
        })
    }

    /// Distinct keys, all preloaded.
    pub fn keys(&self) -> usize {
        (self.data_bytes / self.value_len as u64) as usize
    }

    /// Ops issued in one measured phase.
    pub fn ops(&self) -> u64 {
        (self.clients * self.ops_per_client) as u64
    }

    pub fn cluster_config(&self) -> ClusterConfig {
        let mut cfg = ClusterConfig::new(Design::HRdmaOptNonBI, self.server_mem);
        cfg.servers = self.servers;
        cfg.clients = self.clients;
        cfg.ssd_capacity = self.ssd_capacity;
        cfg.client.direct = self.direct;
        cfg.onesided = self.onesided;
        if self.batch_group > 0 {
            cfg.client.batch = Some(BatchPolicy::default());
        }
        cfg.replication = self.replication;
        if self.free_copies {
            cfg.costs.memcpy_ns_per_byte = 0.0;
        }
        cfg
    }
}

/// The paper's Fig 7c shape: data is twice the aggregate RAM, so slab
/// eviction, adaptive slab I/O, the SSD model, the worker pool and the
/// preload do most of the work. One-sided reads, batching and replication
/// are off.
///
/// Server item copies are free here. With the default copy charge the
/// store yields between allocating a slab chunk and indexing it; a
/// concurrent eviction can flush and retire the chunk's page in that gap,
/// and the index then points into a retired page: a panic or another key's
/// value on some seeds (see `repro_retired_page`). Without the charge the
/// allocate-copy-index step has no yield point. The price is a cheaper
/// eviction path (a 1 MiB page buffer copy was ~105 µs of every flush), so
/// this workload runs ~1.6x the virtual throughput it would with copies
/// charged; sizes, mix and window are Fig 7c's.
fn hybrid_spill_rw() -> Workload {
    Workload {
        name: "hybrid-spill-rw",
        servers: 4,
        server_mem: 24 * MIB,
        ssd_capacity: 96 * MIB,
        data_bytes: 192 * MIB,
        value_len: 8 << 10,
        clients: 100,
        window: 32,
        ops_per_client: 1_000,
        read_pct: 50,
        direct: DirectPolicy::Off,
        onesided: None,
        batch_group: 0,
        replication: ReplicationConfig::disabled(),
        free_copies: true,
    }
}

/// Read-heavy RAM-resident 1 KiB values on one server: the one-sided
/// engine, adaptive switching and the server's serial dispatch loop carry
/// the load. SSD and eviction stay idle. The published window has four
/// buckets per key so fingerprint collisions stay off the critical path.
fn ram_read_direct() -> Workload {
    let data_bytes = 16 * MIB;
    let value_len = 1 << 10;
    let keys = (data_bytes / value_len as u64) as usize;
    Workload {
        name: "ram-read-direct",
        servers: 1,
        server_mem: 64 * MIB,
        ssd_capacity: 256 * MIB,
        data_bytes,
        value_len,
        clients: 4,
        window: 64,
        ops_per_client: 110_000,
        read_pct: 90,
        direct: DirectPolicy::Adaptive,
        onesided: Some(OneSidedConfig {
            buckets: (keys * 4).next_power_of_two(),
            value_cap: 1536,
        }),
        batch_group: 0,
        replication: ReplicationConfig::disabled(),
        free_copies: false,
    }
}

/// Small values issued in doorbell batches, with every SET fanned out to
/// a replica: the client batcher, batch framing, server wave coalescing
/// and server-to-server replication carry the load. SSD and one-sided
/// reads stay idle.
fn repl_batch_small() -> Workload {
    Workload {
        name: "repl-batch-small",
        servers: 4,
        server_mem: 64 * MIB,
        ssd_capacity: 256 * MIB,
        data_bytes: 8 * MIB,
        value_len: 512,
        clients: 4,
        window: 256,
        ops_per_client: 55_000,
        read_pct: 80,
        direct: DirectPolicy::Off,
        onesided: None,
        batch_group: 64,
        replication: ReplicationConfig {
            rf: 2,
            read_policy: ReadPolicy::SpreadReplicas,
        },
        free_copies: false,
    }
}

/// Not a benchmark workload: the `hybrid-spill-rw` shape at 16 MiB of RAM
/// per server, 128 MiB of data and the default copy charge panics in the
/// store on some seeds ("RAM location must be readable": the index points
/// into a retired slab page) and returns another key's value on others.
fn repro_retired_page() -> Workload {
    Workload {
        name: "repro-retired-page",
        server_mem: 16 * MIB,
        data_bytes: 128 * MIB,
        window: 32,
        ops_per_client: 1_500,
        free_copies: false,
        ..hybrid_spill_rw()
    }
}
