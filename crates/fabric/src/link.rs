//! Unidirectional simulated links.
//!
//! A link models one direction of a NIC-to-NIC path with two costs:
//!
//! - **Serialization**: the payload occupies the link for
//!   `bytes * ns_per_byte`; a busy cursor (`busy_until`) queues back-to-back
//!   messages so a sender streaming large values is bandwidth-limited.
//! - **Propagation**: after the last byte leaves, the message arrives
//!   `base` later.
//!
//! `send` never blocks the caller: it computes the timeline, schedules the
//! delivery event, and returns a [`SendTicket`] carrying `sent_at` — the
//! virtual instant at which the local NIC has finished reading the buffer.
//! This is exactly the instant the paper's `bget` waits for ("the engine
//! has sent out the header") and `memcached_test`-style send-completion
//! semantics build on.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use nbkv_simrt::{Sender, Sim, SimTime, Sleep};

use crate::fault::{
    FaultPlan, FaultStats, SALT_DELAY, SALT_DELAY_AMT, SALT_DROP, SALT_REORDER, SALT_REORDER_AMT,
};
use crate::latency::LatencyModel;

/// Fixed per-message framing overhead (headers, CRCs) added to every
/// payload for serialization accounting.
pub const FRAME_OVERHEAD: usize = 48;

/// Error: the remote endpoint dropped its receiver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disconnected;

impl fmt::Display for Disconnected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer disconnected")
    }
}

impl std::error::Error for Disconnected {}

nbkv_obs::counters! {
    /// Per-link counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LinkStats {
        /// Messages sent.
        sum messages: u64,
        /// Payload bytes sent (excluding framing).
        sum bytes: u64,
    }
}

struct LinkInner {
    model: LatencyModel,
    busy_until: Cell<SimTime>,
    stats: RefCell<LinkStats>,
    /// Delivery-time floor: per-message jitter must not reorder a link's
    /// FIFO stream.
    last_deliver: Cell<SimTime>,
    /// Optional injected-fault schedule (see [`FaultPlan`]).
    fault_plan: RefCell<Option<FaultPlan>>,
    faults: RefCell<FaultStats>,
}

/// Sending half of a unidirectional link. Cheap to clone; clones share the
/// serialization cursor (they model one physical NIC port).
#[derive(Clone)]
pub struct Link {
    sim: Sim,
    inner: Rc<LinkInner>,
    tx: Sender<Bytes>,
}

impl Link {
    pub(crate) fn new(sim: Sim, model: LatencyModel, tx: Sender<Bytes>) -> Self {
        Link {
            sim,
            inner: Rc::new(LinkInner {
                model,
                busy_until: Cell::new(SimTime::ZERO),
                stats: RefCell::new(LinkStats::default()),
                last_deliver: Cell::new(SimTime::ZERO),
                fault_plan: RefCell::new(None),
                faults: RefCell::new(FaultStats::default()),
            }),
            tx,
        }
    }

    /// Post `payload` for transmission. Returns immediately with a ticket;
    /// the message is delivered to the peer at
    /// `max(now, busy) + serialization + propagation` — unless an attached
    /// [`FaultPlan`] drops, delays, or reorders it.
    ///
    /// A faulted message still occupies the link for its serialization
    /// time and still yields a ticket: local send completion says nothing
    /// about delivery, exactly as on real hardware.
    pub fn send(&self, payload: Bytes) -> Result<SendTicket, Disconnected> {
        if !self.tx.is_open() {
            return Err(Disconnected);
        }
        let now = self.sim.now();
        let wire_len = payload.len() + FRAME_OVERHEAD;
        let start = now.max(self.inner.busy_until.get());
        let sent_at = start + self.inner.model.serialization(wire_len);
        let seq = self.inner.stats.borrow().messages;
        self.inner.busy_until.set(sent_at);
        self.inner.stats.borrow_mut().messages += 1;
        self.inner.stats.borrow_mut().bytes += payload.len() as u64;

        let ticket = SendTicket {
            sim: self.sim.clone(),
            sent_at,
        };

        // Injected faults: every decision is a pure hash of (seed, seq),
        // so the outcome is independent of wall-clock and replayable.
        let mut extra = Duration::ZERO;
        let mut keep_fifo = true;
        if let Some(plan) = self.inner.fault_plan.borrow().as_ref() {
            if plan.is_down_at(start) {
                self.inner.faults.borrow_mut().down_dropped += 1;
                return Ok(ticket);
            }
            if plan.drop_prob > 0.0 && plan.roll(seq, SALT_DROP) < plan.drop_prob {
                self.inner.faults.borrow_mut().dropped += 1;
                return Ok(ticket);
            }
            if plan.delay_prob > 0.0 && plan.roll(seq, SALT_DELAY) < plan.delay_prob {
                extra += plan.scaled_delay(seq, SALT_DELAY_AMT, plan.extra_delay);
                self.inner.faults.borrow_mut().delayed += 1;
            }
            if plan.reorder_prob > 0.0 && plan.roll(seq, SALT_REORDER) < plan.reorder_prob {
                extra += plan.scaled_delay(seq, SALT_REORDER_AMT, plan.reorder_delay);
                keep_fifo = false;
                self.inner.faults.borrow_mut().reordered += 1;
            }
        }

        let mut deliver_at =
            sent_at + self.inner.model.propagation() + self.inner.model.jitter_for(seq) + extra;
        if keep_fifo {
            // Reordered messages escape the FIFO floor and leave it where
            // it was, so later traffic may legitimately overtake them.
            deliver_at = deliver_at.max(self.inner.last_deliver.get());
            self.inner.last_deliver.set(deliver_at);
        }

        let tx = self.tx.clone();
        let inner = Rc::clone(&self.inner);
        self.sim.schedule_at(deliver_at, move |_| {
            // The peer may have shut down mid-flight; the message vanishes
            // like on a real network, but the loss is counted.
            if tx.send_now(payload).is_err() {
                inner.faults.borrow_mut().receiver_gone += 1;
            }
        });

        Ok(ticket)
    }

    /// Counters for this link.
    pub fn stats(&self) -> LinkStats {
        *self.inner.stats.borrow()
    }

    /// The link's latency model.
    pub fn model(&self) -> LatencyModel {
        self.inner.model
    }

    /// Attach (or clear, with `None`) a fault-injection schedule. Affects
    /// every clone of this link; already-scheduled deliveries are not
    /// revisited.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.inner.fault_plan.borrow_mut() = plan;
    }

    /// The currently attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner.fault_plan.borrow().clone()
    }

    /// Counters for injected and observed faults on this link, including
    /// messages discarded because the receiver was gone.
    pub fn fault_stats(&self) -> FaultStats {
        *self.inner.faults.borrow()
    }

    /// True while the peer's receiver is alive.
    pub fn is_open(&self) -> bool {
        self.tx.is_open()
    }

    /// A fault-plan / counter handle that does **not** keep the
    /// connection alive: unlike a `Link` clone it holds no send half, so
    /// the peer still observes the close when every sender is dropped.
    /// Use it to keep reading (or injecting) faults after the endpoints
    /// are gone.
    pub fn fault_handle(&self) -> LinkFaultHandle {
        LinkFaultHandle {
            inner: Rc::clone(&self.inner),
        }
    }
}

/// Fault accounting/injection handle for one link direction; see
/// [`Link::fault_handle`].
#[derive(Clone)]
pub struct LinkFaultHandle {
    inner: Rc<LinkInner>,
}

impl LinkFaultHandle {
    /// Attach (or clear) a fault-injection schedule on the link.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        *self.inner.fault_plan.borrow_mut() = plan;
    }

    /// The currently attached fault plan, if any.
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        self.inner.fault_plan.borrow().clone()
    }

    /// Counters for injected and observed faults on the link.
    pub fn fault_stats(&self) -> FaultStats {
        *self.inner.faults.borrow()
    }

    /// Traffic counters for the link.
    pub fn stats(&self) -> LinkStats {
        *self.inner.stats.borrow()
    }
}

/// Local send-completion handle: resolves when the NIC has finished reading
/// the send buffer (NOT when the peer received the message).
#[derive(Clone)]
pub struct SendTicket {
    sim: Sim,
    sent_at: SimTime,
}

impl SendTicket {
    /// Virtual instant the local NIC finishes with the buffer.
    pub fn sent_at(&self) -> SimTime {
        self.sent_at
    }

    /// Wait (in virtual time) until the buffer has been handed off.
    pub fn wait_sent(&self) -> Sleep {
        self.sim.sleep_until(self.sent_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nbkv_simrt::channel;
    use std::time::Duration;

    fn test_model() -> LatencyModel {
        // 1 ns/byte, 1 us base.
        LatencyModel::from_bandwidth_gbps(Duration::from_micros(1), 1.0)
    }

    #[test]
    fn message_arrives_after_one_way_latency() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, rx) = channel();
            let link = Link::new(sim2.clone(), test_model(), tx);
            let payload = Bytes::from(vec![0u8; 1000 - FRAME_OVERHEAD]);
            let ticket = link.send(payload).unwrap();
            assert_eq!(ticket.sent_at().as_nanos(), 1_000); // serialization
            let got = rx.recv().await.unwrap();
            assert_eq!(got.len(), 1000 - FRAME_OVERHEAD);
            assert_eq!(sim2.now().as_nanos(), 2_000); // + 1us propagation
        });
    }

    #[test]
    fn back_to_back_sends_queue_on_bandwidth() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, rx) = channel();
            let link = Link::new(sim2.clone(), test_model(), tx);
            let len = 10_000 - FRAME_OVERHEAD;
            let t1 = link.send(Bytes::from(vec![1u8; len])).unwrap();
            let t2 = link.send(Bytes::from(vec![2u8; len])).unwrap();
            // Second message serializes after the first.
            assert_eq!(t1.sent_at().as_nanos(), 10_000);
            assert_eq!(t2.sent_at().as_nanos(), 20_000);
            rx.recv().await.unwrap();
            assert_eq!(sim2.now().as_nanos(), 11_000);
            rx.recv().await.unwrap();
            assert_eq!(sim2.now().as_nanos(), 21_000);
        });
    }

    #[test]
    fn fifo_delivery_preserved() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, rx) = channel();
            let link = Link::new(sim2.clone(), test_model(), tx);
            for i in 0..10u8 {
                link.send(Bytes::from(vec![i; 10])).unwrap();
            }
            for i in 0..10u8 {
                let got = rx.recv().await.unwrap();
                assert_eq!(got[0], i);
            }
        });
    }

    #[test]
    fn idle_gap_resets_busy_cursor() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, _rx) = channel();
            let link = Link::new(sim2.clone(), test_model(), tx);
            let len = 1000 - FRAME_OVERHEAD;
            link.send(Bytes::from(vec![0u8; len])).unwrap();
            sim2.sleep(Duration::from_micros(100)).await;
            let t = link.send(Bytes::from(vec![0u8; len])).unwrap();
            // Starts fresh at t=100us, not queued behind the first.
            assert_eq!(t.sent_at().as_nanos(), 101_000);
        });
    }

    #[test]
    fn send_to_dropped_receiver_errors() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, rx) = channel::<Bytes>();
            let link = Link::new(sim2.clone(), test_model(), tx);
            drop(rx);
            assert_eq!(
                link.send(Bytes::from_static(b"x")).map(|_| ()),
                Err(Disconnected)
            );
            assert!(!link.is_open());
        });
    }

    #[test]
    fn receiver_dropped_mid_flight_discards_silently() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, rx) = channel::<Bytes>();
            let link = Link::new(sim2.clone(), test_model(), tx);
            link.send(Bytes::from_static(b"doomed")).unwrap();
            drop(rx);
            assert_eq!(link.fault_stats().receiver_gone, 0, "not yet delivered");
            sim2.sleep(Duration::from_millis(1)).await; // delivery fires, no panic
                                                        // The discard is silent to the sender but not unaccounted.
            assert_eq!(link.fault_stats().receiver_gone, 1);
            assert_eq!(link.fault_stats().total_lost(), 1);
        });
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, _rx) = channel();
            let link = Link::new(sim2.clone(), LatencyModel::zero(), tx);
            link.send(Bytes::from(vec![0u8; 100])).unwrap();
            link.send(Bytes::from(vec![0u8; 200])).unwrap();
            assert_eq!(
                link.stats(),
                LinkStats {
                    messages: 2,
                    bytes: 300
                }
            );
        });
    }

    #[test]
    fn wait_sent_resolves_at_sent_time() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, _rx) = channel();
            let link = Link::new(sim2.clone(), test_model(), tx);
            let t = link
                .send(Bytes::from(vec![0u8; 5000 - FRAME_OVERHEAD]))
                .unwrap();
            t.wait_sent().await;
            assert_eq!(sim2.now().as_nanos(), 5_000);
        });
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use nbkv_simrt::channel;
    use std::time::Duration;

    fn test_model() -> LatencyModel {
        LatencyModel::from_bandwidth_gbps(Duration::from_micros(1), 1.0)
    }

    #[test]
    fn drop_prob_one_loses_everything_and_counts() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, rx) = channel::<Bytes>();
            let link = Link::new(sim2.clone(), test_model(), tx);
            link.set_fault_plan(Some(FaultPlan::drops(1, 1.0)));
            for i in 0..10u8 {
                link.send(Bytes::from(vec![i; 8])).unwrap();
            }
            sim2.sleep(Duration::from_millis(1)).await;
            assert!(rx.try_recv().is_err(), "all messages should be dropped");
            let stats = link.fault_stats();
            assert_eq!(stats.dropped, 10);
            assert_eq!(stats.total_lost(), 10);
        });
    }

    #[test]
    fn partial_drops_are_deterministic_per_seed() {
        let survivors = |seed: u64| {
            let sim = Sim::new();
            let sim2 = sim.clone();
            sim.run_until(async move {
                let (tx, rx) = channel::<Bytes>();
                let link = Link::new(sim2.clone(), test_model(), tx);
                link.set_fault_plan(Some(FaultPlan::drops(seed, 0.5)));
                for i in 0..100u8 {
                    link.send(Bytes::from(vec![i; 8])).unwrap();
                }
                sim2.sleep(Duration::from_millis(10)).await;
                let mut got = Vec::new();
                while let Ok(msg) = rx.try_recv() {
                    got.push(msg[0]);
                }
                (got, link.fault_stats())
            })
        };
        let (a, sa) = survivors(7);
        let (b, sb) = survivors(7);
        assert_eq!(a, b, "same seed, same survivors");
        assert_eq!(sa, sb);
        assert!(sa.dropped > 10 && sa.dropped < 90, "p=0.5: {}", sa.dropped);
        let (c, _) = survivors(8);
        assert_ne!(a, c, "different seed, different survivors");
    }

    #[test]
    fn down_window_drops_only_inside_window() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, rx) = channel::<Bytes>();
            let link = Link::new(sim2.clone(), test_model(), tx);
            link.set_fault_plan(Some(
                FaultPlan::default()
                    .with_down_window(Duration::from_micros(50), Duration::from_micros(150)),
            ));
            // One message before, one inside, one after the window.
            link.send(Bytes::from_static(b"before")).unwrap();
            sim2.sleep(Duration::from_micros(100)).await;
            link.send(Bytes::from_static(b"inside")).unwrap();
            sim2.sleep(Duration::from_micros(100)).await;
            link.send(Bytes::from_static(b"after")).unwrap();
            sim2.sleep(Duration::from_millis(1)).await;
            assert_eq!(&rx.try_recv().unwrap()[..], b"before");
            assert_eq!(&rx.try_recv().unwrap()[..], b"after");
            assert!(rx.try_recv().is_err());
            assert_eq!(link.fault_stats().down_dropped, 1);
        });
    }

    #[test]
    fn extra_delay_defers_but_delivers() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, rx) = channel::<Bytes>();
            let link = Link::new(sim2.clone(), test_model(), tx);
            link.set_fault_plan(Some(FaultPlan {
                seed: 3,
                delay_prob: 1.0,
                extra_delay: Duration::from_millis(1),
                ..FaultPlan::default()
            }));
            link.send(Bytes::from_static(b"slow")).unwrap();
            let msg = rx.recv().await.unwrap();
            assert_eq!(&msg[..], b"slow");
            // Baseline arrival would be ~2us; the injected delay dominates.
            assert!(sim2.now() > SimTime::from_nanos(2_000));
            assert!(sim2.now() <= SimTime::from_nanos(2_000 + 1_000_000));
            assert_eq!(link.fault_stats().delayed, 1);
        });
    }

    #[test]
    fn reordered_message_can_arrive_late() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, rx) = channel::<Bytes>();
            let link = Link::new(sim2.clone(), test_model(), tx);
            // Force reorder on every message with a huge reorder delay so
            // at least one pair inverts.
            link.set_fault_plan(Some(FaultPlan {
                seed: 11,
                reorder_prob: 0.5,
                reorder_delay: Duration::from_micros(500),
                ..FaultPlan::default()
            }));
            for i in 0..50u8 {
                link.send(Bytes::from(vec![i; 8])).unwrap();
            }
            sim2.sleep(Duration::from_millis(5)).await;
            let mut got = Vec::new();
            while let Ok(msg) = rx.try_recv() {
                got.push(msg[0]);
            }
            assert_eq!(got.len(), 50, "reorder must not lose messages");
            let mut sorted = got.clone();
            sorted.sort_unstable();
            assert_ne!(got, sorted, "expected at least one inversion");
            assert!(link.fault_stats().reordered > 0);
        });
    }

    #[test]
    fn clearing_the_plan_restores_reliability() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, rx) = channel::<Bytes>();
            let link = Link::new(sim2.clone(), test_model(), tx);
            link.set_fault_plan(Some(FaultPlan::drops(5, 1.0)));
            link.send(Bytes::from_static(b"lost")).unwrap();
            assert!(link.fault_plan().is_some());
            link.set_fault_plan(None);
            link.send(Bytes::from_static(b"kept")).unwrap();
            sim2.sleep(Duration::from_millis(1)).await;
            assert_eq!(&rx.try_recv().unwrap()[..], b"kept");
            assert!(rx.try_recv().is_err());
            assert_eq!(link.fault_stats().dropped, 1);
        });
    }
}

#[cfg(test)]
mod jitter_tests {
    use super::*;
    use nbkv_simrt::channel;
    use std::time::Duration;

    #[test]
    fn jitter_preserves_fifo_order() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, rx) = channel();
            let model = LatencyModel::from_bandwidth_gbps(Duration::from_micros(2), 1.0)
                .with_jitter(Duration::from_micros(10));
            let link = Link::new(sim2.clone(), model, tx);
            for i in 0..50u8 {
                link.send(Bytes::from(vec![i; 16])).unwrap();
            }
            let mut last_arrival = SimTime::ZERO;
            for i in 0..50u8 {
                let got = rx.recv().await.unwrap();
                assert_eq!(got[0], i, "FIFO violated at {i}");
                assert!(sim2.now() >= last_arrival);
                last_arrival = sim2.now();
            }
        });
    }

    #[test]
    fn jitter_spreads_arrival_gaps() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, rx) = channel();
            let model = LatencyModel::from_bandwidth_gbps(Duration::from_micros(5), 1.0)
                .with_jitter(Duration::from_micros(4));
            let link = Link::new(sim2.clone(), model, tx);
            // Widely spaced sends: arrival gaps vary with jitter.
            let mut gaps = std::collections::HashSet::new();
            let mut last = SimTime::ZERO;
            for i in 0..20u8 {
                link.send(Bytes::from(vec![i; 16])).unwrap();
                rx.recv().await.unwrap();
                gaps.insert((sim2.now() - last).as_nanos());
                last = sim2.now();
                sim2.sleep(Duration::from_micros(100)).await;
            }
            assert!(gaps.len() > 5, "jitter should vary gaps: {gaps:?}");
        });
    }
}
