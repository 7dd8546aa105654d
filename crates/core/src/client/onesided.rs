//! The client half of the server-bypass GET path.
//!
//! `DirectReadEngine` serves GETs with two chained one-sided RDMA
//! reads against the server's published index window — descriptor, then
//! value arena slot — validating the key fingerprint and the seqlock
//! version pair, and falling back to the two-sided RPC path on any
//! mismatch (stale version, bucket collision, SSD-resident value, or a
//! lost completion under fault injection).
//!
//! [`DirectPolicy::Adaptive`] implements an RFP-style switch: the engine
//! tracks an EWMA of observed RPC GET latency plus the server's
//! dispatch-queue-depth hint (carried in every response's stage block)
//! and goes direct only when the predicted RPC latency exceeds the
//! precomputed two-round-trip direct-read cost. An unloaded server
//! answers RPC in one round trip, so direct reads only win once the
//! server's serial dispatch queue starts inflating RPC latency — which
//! is exactly what the EWMA sees. While in direct mode the engine sends
//! every 32nd eligible GET over RPC as a probe so it can observe the
//! load falling again.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use nbkv_fabric::{FabricProfile, QueuePair, WorkCompletion};
use nbkv_simrt::Sim;

use crate::client::ClientStats;
use crate::proto::LeaseGeometry;
use crate::server::onesided::{key_fingerprint, Descriptor, ARENA_HEADER, DESC_SLOT};

/// When the client serves GETs with one-sided RDMA reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectPolicy {
    /// Never: every GET is a two-sided RPC (the default).
    #[default]
    Off,
    /// Every GET tries the direct path first.
    Always,
    /// Switch per server on observed RPC latency and the server's
    /// queue-depth hint.
    Adaptive,
}

/// Outcome of one direct-read attempt.
#[derive(Debug)]
pub(crate) enum DirectOutcome {
    /// Validated value fetched without touching the server CPU.
    Hit {
        /// The value bytes (a stable snapshot — seqlock-validated).
        value: Bytes,
        /// The item's user flags from the descriptor.
        flags: u32,
    },
    /// A writer raced the reads (odd version or version pair mismatch).
    Stale,
    /// Bucket empty or owned by a different key; only RPC can answer.
    Miss,
    /// The key's value is SSD-resident; one-sided reads cannot reach it.
    Ssd,
    /// A read completion never arrived (fault injection / dead link).
    Lost,
}

/// How often, while in direct mode, an eligible GET is sent over RPC
/// anyway to refresh the latency EWMA.
const PROBE_EVERY: u64 = 32;

/// EWMA smoothing factor for observed RPC latency.
const EWMA_ALPHA: f64 = 0.25;

/// Per-server one-sided read engine: the queue pair bound to the
/// server's window, the fetched lease, and the adaptive-policy state.
pub(crate) struct DirectReadEngine {
    sim: Sim,
    qp: Rc<QueuePair>,
    policy: DirectPolicy,
    lease: RefCell<Option<LeaseGeometry>>,
    /// The lease handshake answered "no window"; stop trying.
    no_window: Cell<bool>,
    next_wr: Cell<u64>,
    read_timeout: Duration,
    /// Precomputed cost of a direct read (two wire round trips), in ns.
    direct_cost_ns: f64,
    /// Per-queued-request dispatch penalty for the load-hint bias, in ns.
    dispatch_ns: f64,
    ewma_rpc_ns: Cell<f64>,
    queue_depth: Cell<u32>,
    mode_direct: Cell<bool>,
    probe_seq: Cell<u64>,
    /// The owning client's counters (shared, like the batcher's).
    pub(crate) stats: Rc<RefCell<ClientStats>>,
}

impl DirectReadEngine {
    pub(crate) fn new(
        sim: Sim,
        qp: Rc<QueuePair>,
        policy: DirectPolicy,
        profile: &FabricProfile,
        dispatch: Duration,
        deadline: Option<Duration>,
        stats: Rc<RefCell<ClientStats>>,
    ) -> Self {
        // Two round trips: descriptor (DESC_SLOT bytes back) + arena slot
        // (header + a typical small value back). Each read costs request
        // propagation plus the payload's return serialization+propagation.
        let rtt = |bytes: usize| {
            (profile.link.propagation() * 2 + profile.link.serialization(bytes)).as_nanos() as f64
        };
        let direct_cost_ns = rtt(DESC_SLOT) + rtt(ARENA_HEADER + 512);
        let read_timeout = deadline
            .map(|d| d / 8)
            .unwrap_or(Duration::from_micros(500))
            .max(Duration::from_micros(50));
        DirectReadEngine {
            sim,
            qp,
            policy,
            lease: RefCell::new(None),
            no_window: Cell::new(false),
            next_wr: Cell::new(1),
            read_timeout,
            direct_cost_ns,
            dispatch_ns: dispatch.as_nanos() as f64,
            ewma_rpc_ns: Cell::new(0.0),
            queue_depth: Cell::new(0),
            mode_direct: Cell::new(false),
            probe_seq: Cell::new(0),
            stats,
        }
    }

    pub(crate) fn install_lease(&self, lease: LeaseGeometry) {
        *self.lease.borrow_mut() = Some(lease);
    }

    /// Attach (or clear) a fault plan on this engine's queue pair.
    pub(crate) fn set_faults(&self, plan: Option<nbkv_fabric::FaultPlan>) {
        self.qp.set_onesided_faults(plan);
    }

    pub(crate) fn mark_no_window(&self) {
        self.no_window.set(true);
    }

    /// Record an observed RPC GET latency (progress-task side).
    pub(crate) fn observe_rpc_latency(&self, latency_ns: u64) {
        let cur = self.ewma_rpc_ns.get();
        let next = if cur == 0.0 {
            latency_ns as f64
        } else {
            cur * (1.0 - EWMA_ALPHA) + latency_ns as f64 * EWMA_ALPHA
        };
        self.ewma_rpc_ns.set(next);
    }

    /// Record the server's dispatch-queue-depth hint (any response).
    pub(crate) fn observe_queue_depth(&self, depth: u32) {
        self.queue_depth.set(depth);
    }

    /// Decide whether the next GET should go direct. Mode changes under
    /// [`DirectPolicy::Adaptive`] are counted as flips; periodic RPC
    /// probes in direct mode are not mode changes.
    pub(crate) fn decide(&self) -> bool {
        if self.no_window.get() || self.lease.borrow().is_none() {
            return false;
        }
        match self.policy {
            DirectPolicy::Off => false,
            DirectPolicy::Always => true,
            DirectPolicy::Adaptive => {
                let ewma = self.ewma_rpc_ns.get();
                let was_direct = self.mode_direct.get();
                let want = if ewma == 0.0 {
                    false // no signal yet: RPC is the 1-RTT default
                } else {
                    let predicted = ewma + self.queue_depth.get() as f64 * self.dispatch_ns;
                    // Hysteresis: demand a clear win before switching
                    // either way, so boundary load does not thrash.
                    if was_direct {
                        predicted > self.direct_cost_ns * 0.9
                    } else {
                        predicted > self.direct_cost_ns * 1.1
                    }
                };
                if want != was_direct {
                    self.mode_direct.set(want);
                    self.stats.borrow_mut().mode_flips += 1;
                }
                if want {
                    let seq = self.probe_seq.get();
                    self.probe_seq.set(seq + 1);
                    if seq.is_multiple_of(PROBE_EVERY) {
                        return false; // RPC probe refreshes the EWMA
                    }
                }
                want
            }
        }
    }

    /// Account a finished attempt.
    pub(crate) fn note(&self, outcome: &DirectOutcome) {
        let mut st = self.stats.borrow_mut();
        match outcome {
            DirectOutcome::Hit { .. } => st.direct_hits += 1,
            DirectOutcome::Stale => st.stale_retries += 1,
            DirectOutcome::Ssd => st.ssd_fallbacks += 1,
            DirectOutcome::Lost => st.direct_lost += 1,
            DirectOutcome::Miss => {}
        }
    }

    /// Post one RDMA read and wait for its completion, or `None` once
    /// `read_timeout` passes without one. The deadline is armed only when
    /// it could fire: a completion due before it wakes the reader, which
    /// drops the deadline unfired, so arming it would only consume a timer
    /// seq (seqs are monotone, so no other event moves either way).
    async fn rdma_read(&self, offset: usize, len: usize) -> Option<WorkCompletion> {
        let wr = self.next_wr.get();
        self.next_wr.set(wr + 1);
        let due = self.qp.post_rdma_read(wr, offset, len);
        let completion = self.qp.send_cq().next_for(wr);
        match due {
            Some(at) if at < self.sim.now() + self.read_timeout => Some(completion.await),
            _ => nbkv_simrt::timeout(&self.sim, self.read_timeout, completion)
                .await
                .ok(),
        }
    }

    /// One direct-read attempt: descriptor read, validation, value read,
    /// seqlock re-validation. Never involves the server CPU.
    pub(crate) async fn read(&self, key: &[u8]) -> DirectOutcome {
        let Some(lease) = *self.lease.borrow() else {
            return DirectOutcome::Miss;
        };
        let fp = key_fingerprint(key);
        let bucket = (fp % lease.buckets as u64) as usize;

        // Read 1: the bucket descriptor.
        let Some(wc) = self
            .rdma_read(bucket * lease.desc_slot as usize, DESC_SLOT)
            .await
        else {
            return DirectOutcome::Lost;
        };
        let Some(desc) = wc.data.as_deref().and_then(Descriptor::decode) else {
            return DirectOutcome::Stale;
        };
        if desc.version == 0 || desc.fingerprint != fp {
            return DirectOutcome::Miss;
        }
        if desc.version % 2 == 1 {
            return DirectOutcome::Stale; // writer mid-update
        }
        if !desc.in_ram {
            return DirectOutcome::Ssd;
        }
        let len = desc.len as usize;
        if len + ARENA_HEADER > lease.arena_slot as usize {
            return DirectOutcome::Stale; // descriptor torn beyond repair
        }

        // Read 2: the arena slot (version copy + value bytes).
        let Some(wc) = self
            .rdma_read(desc.offset as usize, ARENA_HEADER + len)
            .await
        else {
            return DirectOutcome::Lost;
        };
        let Some(data) = wc.data else {
            return DirectOutcome::Stale;
        };
        let version_copy = u64::from_be_bytes(data[..ARENA_HEADER].try_into().expect("8B header"));
        if version_copy != desc.version {
            return DirectOutcome::Stale; // writer landed between the reads
        }
        DirectOutcome::Hit {
            value: data.slice(ARENA_HEADER..ARENA_HEADER + len),
            flags: desc.flags,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::onesided::{OneSidedConfig, OneSidedIndex};
    use nbkv_fabric::profiles::fdr_rdma;
    use nbkv_fabric::FaultPlan;
    use proptest::prelude::*;

    fn rig(policy: DirectPolicy) -> (Sim, Rc<OneSidedIndex>, Rc<DirectReadEngine>, Rc<QueuePair>) {
        let sim = Sim::new();
        let idx = OneSidedIndex::new(OneSidedConfig {
            buckets: 64,
            value_cap: 256,
        });
        let profile = fdr_rdma();
        let qp = QueuePair::new(&sim, profile.link);
        let qp = Rc::new(qp);
        qp.bind_peer_window(idx.window());
        let engine = Rc::new(DirectReadEngine::new(
            sim.clone(),
            Rc::clone(&qp),
            policy,
            &profile,
            Duration::from_micros(1),
            None,
            Rc::default(),
        ));
        engine.install_lease(idx.lease());
        (sim, idx, engine, qp)
    }

    #[test]
    fn direct_read_returns_published_value_and_flags() {
        let (sim, idx, engine, _qp) = rig(DirectPolicy::Always);
        idx.publish(b"k", b"hello", 7);
        sim.run_until(async move {
            match engine.read(b"k").await {
                DirectOutcome::Hit { value, flags } => {
                    assert_eq!(&value[..], b"hello");
                    assert_eq!(flags, 7);
                }
                other => panic!("expected hit, got {other:?}"),
            }
        });
    }

    #[test]
    fn absent_invalidated_and_ssd_keys_report_their_outcome() {
        let (sim, idx, engine, _qp) = rig(DirectPolicy::Always);
        idx.publish(b"gone", b"x", 0);
        idx.invalidate(b"gone");
        idx.publish(b"cold", b"y", 0);
        idx.mark_ssd(b"cold");
        sim.run_until(async move {
            assert!(matches!(engine.read(b"never").await, DirectOutcome::Miss));
            assert!(matches!(engine.read(b"gone").await, DirectOutcome::Miss));
            assert!(matches!(engine.read(b"cold").await, DirectOutcome::Ssd));
        });
    }

    #[test]
    fn a_key_republished_after_clear_reads_back_directly() {
        let (sim, idx, engine, _qp) = rig(DirectPolicy::Always);
        idx.publish(b"k", b"before", 1);
        idx.clear();
        idx.publish(b"k", b"after", 2);
        sim.run_until(async move {
            match engine.read(b"k").await {
                DirectOutcome::Hit { value, flags } => {
                    assert_eq!(&value[..], b"after");
                    assert_eq!(flags, 2);
                }
                other => panic!("expected hit, got {other:?}"),
            }
        });
    }

    #[test]
    fn dropped_completions_surface_as_lost_at_the_read_timeout() {
        let (sim, idx, engine, qp) = rig(DirectPolicy::Always);
        idx.publish(b"k", b"v", 0);
        qp.set_onesided_faults(Some(FaultPlan::drops(7, 1.0)));
        sim.clone().run_until(async move {
            let t0 = sim.now();
            assert!(matches!(engine.read(b"k").await, DirectOutcome::Lost));
            // The descriptor read's deadline fires: a dropped completion
            // must not hang the sim, nor end the attempt early.
            assert_eq!(sim.now() - t0, engine.read_timeout);
            assert_eq!(sim.stats().timer_events, 1, "only the deadline fired");
        });
    }

    #[test]
    fn a_delivered_read_arms_no_deadline() {
        let (sim, idx, engine, _qp) = rig(DirectPolicy::Always);
        idx.publish(b"k", b"hello", 0);
        sim.clone().run_until(async move {
            let reader = sim.spawn({
                let engine = Rc::clone(&engine);
                async move { engine.read(b"k").await }
            });
            // Let the reader post its descriptor read, then look at the
            // timers while that read is on the wire: only its completion.
            sim.sleep(Duration::from_nanos(1)).await;
            assert_eq!(sim.stats().timers_pending, 1, "{:?}", sim.stats());
            assert!(matches!(reader.await, DirectOutcome::Hit { .. }));
            // Two completions and the 1 ns sleep fired; no deadline did,
            // and none is left behind.
            assert_eq!(sim.stats().timer_events, 3);
            assert_eq!(sim.stats().timers_pending, 0);
        });
    }

    #[test]
    fn adaptive_flips_with_hysteresis_and_probes() {
        let (_sim, _idx, engine, _qp) = rig(DirectPolicy::Adaptive);
        let flips = || engine.stats.borrow().mode_flips;
        // No latency signal yet: stay on RPC, no flip.
        assert!(!engine.decide());
        assert_eq!(flips(), 0);
        // A slow RPC observation flips to direct; the first eligible GET
        // is the probe (seq 0), the following go direct.
        engine.observe_rpc_latency(100_000);
        assert!(!engine.decide(), "first direct-mode get is an RPC probe");
        assert_eq!(flips(), 1);
        let direct = (0..(PROBE_EVERY - 1)).filter(|_| engine.decide()).count();
        assert_eq!(direct as u64, PROBE_EVERY - 1);
        assert!(!engine.decide(), "every {PROBE_EVERY}th get re-probes RPC");
        assert_eq!(flips(), 1, "probes are not mode flips");
        // Load drains: fast RPC observations flip back.
        for _ in 0..32 {
            engine.observe_rpc_latency(500);
        }
        assert!(!engine.decide());
        assert_eq!(flips(), 2);
    }

    #[test]
    fn queue_depth_hint_alone_can_push_adaptive_to_direct() {
        let (_sim, _idx, engine, _qp) = rig(DirectPolicy::Adaptive);
        // EWMA below the direct cost on its own…
        engine.observe_rpc_latency(4_000);
        assert!(!engine.decide());
        // …but a deep server dispatch queue predicts inflated RPC latency.
        engine.observe_queue_depth(64);
        assert!(!engine.decide(), "flip consumes the probe slot");
        assert!(engine.decide());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Writers (overwrites, evictions, invalidations) racing direct
        /// reads never produce a torn value: every accepted hit is a
        /// value that was published exactly as read (uniform fill byte,
        /// matching length, matching flags).
        #[test]
        fn racing_writers_never_yield_torn_values(
            writes in prop::collection::vec(
                (0u64..4_000, 1usize..200, 0u8..3),
                1..24,
            ),
            read_gap in 1u64..3_000,
        ) {
            let (sim, idx, engine, _qp) = rig(DirectPolicy::Always);
            let lens: Vec<usize> = writes.iter().map(|w| w.1).collect();
            let writer_idx = Rc::clone(&idx);
            let writes2 = writes.clone();
            let writer = sim.spawn({
                let sim = sim.clone();
                async move {
                    for (i, (delay, len, kind)) in writes2.into_iter().enumerate() {
                        sim.sleep(Duration::from_nanos(delay)).await;
                        let fill = (i + 1) as u8;
                        match kind {
                            0 => writer_idx.publish(b"k", &vec![fill; len], fill as u32),
                            1 => writer_idx.invalidate(b"k"),
                            _ => writer_idx.mark_ssd(b"k"),
                        }
                    }
                }
            });
            let reads = writes.len() * 2;
            sim.clone().run_until(async move {
                for _ in 0..reads {
                    if let DirectOutcome::Hit { value, flags } = engine.read(b"k").await {
                        let fill = value[0];
                        assert!(fill >= 1, "fill byte identifies the write");
                        let i = fill as usize - 1;
                        assert!(value.iter().all(|&b| b == fill), "torn value");
                        assert_eq!(value.len(), lens[i], "length/payload mismatch");
                        assert_eq!(flags, fill as u32, "flags/payload mismatch");
                    }
                    sim.sleep(Duration::from_nanos(read_gap)).await;
                }
                writer.await;
            });
        }
    }
}
