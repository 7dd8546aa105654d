//! Request-lifecycle tracing: the stamps a `memcached_req` collects on its
//! way through the stack, and the per-phase rollups built from them.
//!
//! All stamps are **absolute virtual nanoseconds on the one simulation
//! clock**, so client- and server-side stamps are directly comparable and
//! the phase decomposition sums *exactly* to end-to-end latency:
//!
//! ```text
//! issue ──► NIC-out ──► server-recv ──► comm-done ──► store-done ──► complete
//!   └── comm_in ─────────┘└─ dispatch ──┘└── store ────┘└─ comm_out ───┘
//! ```
//!
//! - **comm_in**: issue → server receive (client issue path, NIC
//!   serialization, link flight, delivery).
//! - **dispatch**: server receive → communication phase done (dispatcher
//!   queueing + parse/stage; for pipelined servers this is where the
//!   dispatcher hands off to the worker pool).
//! - **store**: comm done → memory/SSD phase done (slab alloc including
//!   eviction flushes, hash/LRU, SSD reads; for staged requests this
//!   includes the staging-queue wait — deliberately, since that wait *is*
//!   the decoupled memory phase the paper measures).
//! - **comm_out**: store done → completion observed at the client
//!   (response encode, link flight, client progress task).

use crate::hist::Histogram;

/// Lifecycle stamps of one completed request (absolute virtual ns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReqTimeline {
    /// Client issued the operation (before the window/send).
    pub issued_ns: u64,
    /// NIC finished reading the request buffers (send serialization done).
    pub nic_out_ns: u64,
    /// Server received the message.
    pub server_recv_ns: u64,
    /// Communication phase done (parsed, and staged or dispatched).
    pub comm_done_ns: u64,
    /// Memory/SSD phase done (response about to be built).
    pub store_done_ns: u64,
    /// Completion observed at the client.
    pub completed_ns: u64,
    /// Duration within the store phase spent in SSD I/O (reads serving
    /// this request plus eviction-flush writes it waited on).
    pub ssd_ns: u64,
    /// True if the server received this request while a slab-eviction
    /// flush was in flight — the overlap the non-blocking designs exist
    /// to create.
    pub overlapped_flush: bool,
}

impl ReqTimeline {
    /// True when the stamps are in causal order (every phase
    /// non-negative).
    pub fn is_monotone(&self) -> bool {
        self.issued_ns <= self.nic_out_ns
            && self.nic_out_ns <= self.server_recv_ns
            && self.server_recv_ns <= self.comm_done_ns
            && self.comm_done_ns <= self.store_done_ns
            && self.store_done_ns <= self.completed_ns
    }

    /// End-to-end latency (virtual ns).
    pub fn e2e_ns(&self) -> u64 {
        self.completed_ns.saturating_sub(self.issued_ns)
    }

    /// The per-phase decomposition; `None` if the stamps are not monotone
    /// (e.g. a response the server never stamped).
    pub fn phases(&self) -> Option<PhaseBreakdown> {
        if !self.is_monotone() {
            return None;
        }
        Some(PhaseBreakdown {
            comm_in_ns: self.server_recv_ns - self.issued_ns,
            dispatch_ns: self.comm_done_ns - self.server_recv_ns,
            store_ns: self.store_done_ns - self.comm_done_ns,
            comm_out_ns: self.completed_ns - self.store_done_ns,
        })
    }
}

/// One request's time split over the four lifecycle phases. By
/// construction [`total_ns`](Self::total_ns) equals
/// [`ReqTimeline::e2e_ns`] exactly — no unattributed remainder.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Issue → server receive.
    pub comm_in_ns: u64,
    /// Server receive → communication phase done.
    pub dispatch_ns: u64,
    /// Communication phase done → memory/SSD phase done.
    pub store_ns: u64,
    /// Memory/SSD phase done → completion at the client.
    pub comm_out_ns: u64,
}

impl PhaseBreakdown {
    /// Sum of the four phases (== end-to-end latency).
    pub fn total_ns(&self) -> u64 {
        self.comm_in_ns + self.dispatch_ns + self.store_ns + self.comm_out_ns
    }
}

/// Per-phase histograms over many requests, plus eviction-overlap
/// accounting. This is what a workload run carries into the manifest.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseRollup {
    /// comm_in per request.
    pub comm_in: Histogram,
    /// dispatch per request.
    pub dispatch: Histogram,
    /// store per request.
    pub store: Histogram,
    /// comm_out per request.
    pub comm_out: Histogram,
    /// End-to-end latency per request.
    pub e2e: Histogram,
    /// SSD time per request (only requests that touched the SSD).
    pub ssd: Histogram,
    /// Requests with a usable timeline.
    pub ops: u64,
    /// Requests the server received while a slab flush was in flight.
    pub overlapped_ops: u64,
}

impl PhaseRollup {
    /// New, empty rollup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one completed request's timeline (ignored if not monotone).
    pub fn record(&mut self, tl: &ReqTimeline) {
        let Some(p) = tl.phases() else { return };
        self.comm_in.record(p.comm_in_ns);
        self.dispatch.record(p.dispatch_ns);
        self.store.record(p.store_ns);
        self.comm_out.record(p.comm_out_ns);
        self.e2e.record(tl.e2e_ns());
        if tl.ssd_ns > 0 {
            self.ssd.record(tl.ssd_ns);
        }
        self.ops += 1;
        if tl.overlapped_flush {
            self.overlapped_ops += 1;
        }
    }

    /// Merge another rollup (e.g. per-client rollups into a cluster one).
    pub fn merge(&mut self, other: &PhaseRollup) {
        self.comm_in.merge(&other.comm_in);
        self.dispatch.merge(&other.dispatch);
        self.store.merge(&other.store);
        self.comm_out.merge(&other.comm_out);
        self.e2e.merge(&other.e2e);
        self.ssd.merge(&other.ssd);
        self.ops += other.ops;
        self.overlapped_ops += other.overlapped_ops;
    }

    /// Fraction of requests received during an in-flight eviction flush,
    /// in parts per million (integer, so manifests stay exact).
    pub fn eviction_overlap_ppm(&self) -> u64 {
        (self.overlapped_ops * 1_000_000)
            .checked_div(self.ops)
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tl() -> ReqTimeline {
        ReqTimeline {
            issued_ns: 100,
            nic_out_ns: 150,
            server_recv_ns: 300,
            comm_done_ns: 350,
            store_done_ns: 900,
            completed_ns: 1_100,
            ssd_ns: 400,
            overlapped_flush: true,
        }
    }

    #[test]
    fn phases_sum_exactly_to_e2e() {
        let t = tl();
        assert!(t.is_monotone());
        let p = t.phases().unwrap();
        assert_eq!(p.comm_in_ns, 200);
        assert_eq!(p.dispatch_ns, 50);
        assert_eq!(p.store_ns, 550);
        assert_eq!(p.comm_out_ns, 200);
        assert_eq!(p.total_ns(), t.e2e_ns());
    }

    #[test]
    fn non_monotone_timelines_are_rejected() {
        let mut t = tl();
        t.server_recv_ns = 50; // before issue
        assert!(!t.is_monotone());
        assert!(t.phases().is_none());
        let mut r = PhaseRollup::new();
        r.record(&t);
        assert_eq!(r.ops, 0);
    }

    #[test]
    fn rollup_counts_overlap() {
        let mut r = PhaseRollup::new();
        r.record(&tl());
        let mut quiet = tl();
        quiet.overlapped_flush = false;
        quiet.ssd_ns = 0;
        r.record(&quiet);
        assert_eq!(r.ops, 2);
        assert_eq!(r.overlapped_ops, 1);
        assert_eq!(r.eviction_overlap_ppm(), 500_000);
        assert_eq!(r.ssd.count(), 1, "zero ssd time is not a sample");
        assert_eq!(r.e2e.count(), 2);
    }

    #[test]
    fn rollup_merge_is_additive() {
        let mut a = PhaseRollup::new();
        a.record(&tl());
        let mut b = PhaseRollup::new();
        b.record(&tl());
        let mut both = PhaseRollup::new();
        both.record(&tl());
        both.record(&tl());
        a.merge(&b);
        assert_eq!(a, both);
    }
}
