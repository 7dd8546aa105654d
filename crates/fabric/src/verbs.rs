//! A verbs-flavoured veneer: queue pairs and completion queues.
//!
//! This mirrors the shape of the ibverbs API the one-sided GET path is
//! built on: an RDMA READ is *posted* (never blocking), and its completion
//! surfaces later on the send completion queue, carrying the bytes read
//! from the peer's exposed window.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

use bytes::Bytes;
use nbkv_simrt::{FxHashMap, Sim, SimTime};

use crate::fault::{FaultPlan, SALT_DROP};
use crate::latency::LatencyModel;

/// Out-of-bounds access against a [`RemoteWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowOutOfBounds {
    /// Requested start offset.
    pub offset: usize,
    /// Requested span length.
    pub len: usize,
    /// The window's actual length.
    pub window_len: usize,
}

impl std::fmt::Display for WindowOutOfBounds {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "window access [{}, {}) out of bounds (window len {})",
            self.offset,
            self.offset + self.len,
            self.window_len
        )
    }
}

impl std::error::Error for WindowOutOfBounds {}

/// Completion opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcOpcode {
    /// A one-sided RDMA read finished (data available in `data`).
    RdmaRead,
}

/// A work completion.
#[derive(Debug, Clone)]
pub struct WorkCompletion {
    /// Caller-chosen work-request id.
    pub wr_id: u64,
    /// What completed.
    pub opcode: WcOpcode,
    /// Payload length.
    pub byte_len: usize,
    /// The bytes read.
    pub data: Option<Bytes>,
    /// Virtual instant the completion was generated.
    pub completed_at: SimTime,
}

/// A completion queue; poll it to harvest completions.
///
/// A pending [`CompletionQueue::next_for`] registers its waker under its
/// `wr_id`, and a completion wakes only the waiter registered for it, so a
/// client with many reads in flight on one CQ polls each waiter about
/// twice rather than once per completion.
#[derive(Clone, Default)]
pub struct CompletionQueue {
    inner: Rc<RefCell<CqInner>>,
}

#[derive(Default)]
struct CqInner {
    events: VecDeque<WorkCompletion>,
    /// Wakers of pending `next_for` futures, keyed by their `wr_id`.
    waiters: FxHashMap<u64, Waker>,
}

impl CompletionQueue {
    fn push(&self, wc: WorkCompletion) {
        let waiter = {
            let mut cq = self.inner.borrow_mut();
            let waiter = cq.waiters.remove(&wc.wr_id);
            cq.events.push_back(wc);
            waiter
        };
        if let Some(waker) = waiter {
            waker.wake();
        }
    }

    /// Harvest up to `max` completions (like `ibv_poll_cq`).
    pub fn poll(&self, max: usize) -> Vec<WorkCompletion> {
        let mut cq = self.inner.borrow_mut();
        let n = max.min(cq.events.len());
        cq.events.drain(..n).collect()
    }

    /// Completions currently queued.
    pub fn len(&self) -> usize {
        self.inner.borrow().events.len()
    }

    /// True if no completions are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wait for (and remove) the completion carrying `wr_id`. Completions
    /// for other work requests are left in place for their own waiters,
    /// so concurrent posters can share one CQ. At most one `next_for` may
    /// wait on a given `wr_id` at a time.
    pub fn next_for(&self, wr_id: u64) -> NextFor<'_> {
        NextFor {
            cq: self,
            wr_id,
            registered: false,
        }
    }

    /// Pending `next_for` waiters.
    #[cfg(test)]
    fn waiters(&self) -> usize {
        self.inner.borrow().waiters.len()
    }
}

/// Future returned by [`CompletionQueue::next_for`]. Dropping it before
/// its completion lands removes its waiter entry; the completion, when it
/// lands, then stays queued for [`CompletionQueue::poll`].
pub struct NextFor<'a> {
    cq: &'a CompletionQueue,
    wr_id: u64,
    registered: bool,
}

impl Future for NextFor<'_> {
    type Output = WorkCompletion;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<WorkCompletion> {
        let this = self.get_mut();
        let mut cq = this.cq.inner.borrow_mut();
        if let Some(pos) = cq.events.iter().position(|wc| wc.wr_id == this.wr_id) {
            if this.registered {
                cq.waiters.remove(&this.wr_id);
                this.registered = false;
            }
            return Poll::Ready(cq.events.remove(pos).expect("position is in bounds"));
        }
        cq.waiters.insert(this.wr_id, cx.waker().clone());
        this.registered = true;
        Poll::Pending
    }
}

impl Drop for NextFor<'_> {
    fn drop(&mut self) {
        if self.registered {
            self.cq.inner.borrow_mut().waiters.remove(&self.wr_id);
        }
    }
}

/// A remotely-accessible registered memory window (the target of one-sided
/// operations). The owning side exposes it; the peer reads it without
/// involving the owner's CPU.
#[derive(Clone, Default)]
pub struct RemoteWindow {
    mem: Rc<RefCell<Vec<u8>>>,
}

impl RemoteWindow {
    /// Allocate a window of `len` zeroed bytes.
    pub fn new(len: usize) -> Self {
        RemoteWindow {
            mem: Rc::new(RefCell::new(vec![0u8; len])),
        }
    }

    /// Window length.
    pub fn len(&self) -> usize {
        self.mem.borrow().len()
    }

    /// True if the window is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Local (owner-side) read of the window contents.
    ///
    /// Panics on out-of-bounds spans; see [`RemoteWindow::try_peek`] for
    /// the checked variant.
    pub fn peek(&self, offset: usize, len: usize) -> Bytes {
        Bytes::copy_from_slice(&self.mem.borrow()[offset..offset + len])
    }

    fn check(&self, offset: usize, len: usize) -> Result<(), WindowOutOfBounds> {
        let window_len = self.len();
        match offset.checked_add(len) {
            Some(end) if end <= window_len => Ok(()),
            _ => Err(WindowOutOfBounds {
                offset,
                len,
                window_len,
            }),
        }
    }

    /// Checked read of the window contents.
    pub fn try_peek(&self, offset: usize, len: usize) -> Result<Bytes, WindowOutOfBounds> {
        self.check(offset, len)?;
        Ok(Bytes::copy_from_slice(
            &self.mem.borrow()[offset..offset + len],
        ))
    }

    /// Checked write into the window.
    pub fn try_poke(&self, offset: usize, data: &[u8]) -> Result<(), WindowOutOfBounds> {
        self.check(offset, data.len())?;
        self.mem.borrow_mut()[offset..offset + data.len()].copy_from_slice(data);
        Ok(())
    }
}

/// The client side of a reliable-connected queue pair, as the one-sided
/// GET path uses it: RDMA READs against the peer's exposed window, timed
/// by the link model and completed on the send CQ.
pub struct QueuePair {
    sim: Sim,
    model: LatencyModel,
    send_cq: CompletionQueue,
    /// The peer's exposed memory window (for one-sided operations).
    peer_window: RefCell<Option<RemoteWindow>>,
    /// Fault schedule for one-sided operations. The transport's link-level
    /// plan never sees them (they bypass `Link::send`'s delivery path), so
    /// chaos runs attach a plan here: a dropped operation consumes the
    /// wire round trip but its completion never lands on the CQ.
    os_faults: RefCell<Option<FaultPlan>>,
    os_seq: Cell<u64>,
}

impl QueuePair {
    /// Create a queue pair over a link with `model`.
    pub fn new(sim: &Sim, model: LatencyModel) -> QueuePair {
        QueuePair {
            sim: sim.clone(),
            model,
            send_cq: CompletionQueue::default(),
            peer_window: RefCell::new(None),
            os_faults: RefCell::new(None),
            os_seq: Cell::new(0),
        }
    }

    /// Bind the peer's exposed [`RemoteWindow`] so one-sided operations
    /// can target it (models exchanging rkeys at connection setup).
    pub fn bind_peer_window(&self, window: RemoteWindow) {
        *self.peer_window.borrow_mut() = Some(window);
    }

    /// Attach a deterministic fault schedule to this QP's one-sided
    /// operations (drops and scripted down windows apply; a dropped
    /// operation never produces a completion).
    pub fn set_onesided_faults(&self, plan: Option<FaultPlan>) {
        *self.os_faults.borrow_mut() = plan;
    }

    /// Whether the fault plan swallows the one-sided op posted now.
    fn os_fault_drops(&self) -> bool {
        let seq = self.os_seq.get();
        self.os_seq.set(seq + 1);
        let faults = self.os_faults.borrow();
        let Some(plan) = faults.as_ref() else {
            return false;
        };
        plan.is_down_at(self.sim.now()) || plan.roll(seq, SALT_DROP) < plan.drop_prob
    }

    /// One-sided RDMA READ: fetch `len` bytes from `remote_offset` in the
    /// peer's window. The completion carries the data after a full round
    /// trip (request propagation + data transfer back). Returns the instant
    /// the completion lands on the send CQ, or `None` if the fault plan
    /// drops it (it then never lands), so a caller can tell whether its
    /// own deadline for the read could ever fire.
    pub fn post_rdma_read(&self, wr_id: u64, remote_offset: usize, len: usize) -> Option<SimTime> {
        let window = self
            .peer_window
            .borrow()
            .clone()
            .expect("bind_peer_window before one-sided ops");
        if self.os_fault_drops() {
            return None; // read posted, completion lost
        }
        let model = self.model;
        // Request goes out (tiny), data comes back (len bytes).
        let done_at =
            self.sim.now() + model.propagation() + model.serialization(len) + model.propagation();
        let cq = self.send_cq.clone();
        self.sim.schedule_at(done_at, move |sim| {
            let data = window.peek(remote_offset, len);
            cq.push(WorkCompletion {
                wr_id,
                opcode: WcOpcode::RdmaRead,
                byte_len: len,
                data: Some(data),
                completed_at: sim.now(),
            });
        });
        Some(done_at)
    }

    /// The send completion queue.
    pub fn send_cq(&self) -> &CompletionQueue {
        &self.send_cq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn model() -> LatencyModel {
        LatencyModel::from_bandwidth_gbps(Duration::from_micros(2), 1.0)
    }

    #[test]
    fn rdma_read_fetches_remote_bytes() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let qp_a = QueuePair::new(&sim2, model());
            let window = RemoteWindow::new(1024);
            window.try_poke(0, b"server-resident-value").unwrap();
            qp_a.bind_peer_window(window);
            qp_a.post_rdma_read(2, 0, 21);
            sim2.sleep(Duration::from_micros(100)).await;
            let wcs = qp_a.send_cq().poll(4);
            assert_eq!(wcs.len(), 1);
            assert_eq!(wcs[0].opcode, WcOpcode::RdmaRead);
            assert_eq!(&wcs[0].data.as_ref().unwrap()[..], b"server-resident-value");
        });
    }

    #[test]
    fn rdma_read_takes_a_round_trip() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let qp_a = QueuePair::new(&sim2, model());
            let window = RemoteWindow::new(64);
            qp_a.bind_peer_window(window);
            qp_a.post_rdma_read(3, 0, 16);
            // Two propagations (2us each) + 16B serialization.
            sim2.sleep(Duration::from_micros(3)).await;
            assert!(qp_a.send_cq().is_empty(), "not before a round trip");
            sim2.sleep(Duration::from_micros(2)).await;
            assert_eq!(qp_a.send_cq().poll(1).len(), 1);
        });
    }

    #[test]
    #[should_panic(expected = "bind_peer_window")]
    fn one_sided_without_window_panics() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let qp_a = QueuePair::new(&sim2, model());
            qp_a.post_rdma_read(1, 0, 1);
        });
    }

    #[test]
    fn try_peek_and_try_poke_reject_out_of_bounds() {
        let w = RemoteWindow::new(16);
        assert_eq!(&w.try_peek(0, 16).unwrap()[..], &[0u8; 16]);
        w.try_poke(8, b"12345678").unwrap();
        assert_eq!(&w.try_peek(8, 8).unwrap()[..], b"12345678");

        // Reads past the end, including overflowing spans.
        let err = w.try_peek(8, 9).unwrap_err();
        assert_eq!(
            err,
            WindowOutOfBounds {
                offset: 8,
                len: 9,
                window_len: 16
            }
        );
        assert!(w.try_peek(16, 1).is_err());
        assert!(w.try_peek(usize::MAX, 2).is_err(), "offset+len overflow");
        assert!(w.try_poke(9, b"12345678").is_err());
        assert!(err.to_string().contains("out of bounds"));

        // Errors leave the window untouched.
        assert_eq!(&w.try_peek(8, 8).unwrap()[..], b"12345678");
        // Empty spans at the boundary are fine.
        assert!(w.try_peek(16, 0).is_ok());
        assert!(w.try_poke(16, b"").is_ok());
    }

    #[test]
    fn next_for_waits_and_routes_by_wr_id() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let qp_a = QueuePair::new(&sim2, model());
            let window = RemoteWindow::new(64);
            window.try_poke(0, b"abcd").unwrap();
            window.try_poke(4, b"efgh").unwrap();
            qp_a.bind_peer_window(window);
            let qp_a = Rc::new(qp_a);
            // Two concurrent readers on the same CQ: each must get its own
            // completion even though the other's may land first.
            let qp1 = Rc::clone(&qp_a);
            let t1 = sim2.spawn(async move {
                qp1.post_rdma_read(1, 0, 4);
                qp1.send_cq().next_for(1).await
            });
            let qp2 = Rc::clone(&qp_a);
            let t2 = sim2.spawn(async move {
                qp2.post_rdma_read(2, 4, 60); // larger = slower
                qp2.send_cq().next_for(2).await
            });
            let wc2 = t2.await;
            let wc1 = t1.await;
            assert_eq!(&wc1.data.as_ref().unwrap()[..4], b"abcd");
            assert_eq!(&wc2.data.as_ref().unwrap()[..4], b"efgh");
            assert!(qp_a.send_cq().is_empty());
        });
    }

    fn completion(wr_id: u64, at: SimTime) -> WorkCompletion {
        WorkCompletion {
            wr_id,
            opcode: WcOpcode::RdmaRead,
            byte_len: 0,
            data: None,
            completed_at: at,
        }
    }

    #[test]
    fn cq_poll_respects_max() {
        let cq = CompletionQueue::default();
        for wr_id in 0..10 {
            cq.push(completion(wr_id, SimTime::ZERO));
        }
        assert_eq!(cq.poll(3).len(), 3);
        assert_eq!(cq.len(), 7);
    }

    #[test]
    fn next_for_wakes_only_its_own_waiter() {
        const WAITERS: u64 = 64;
        let sim = Sim::new();
        let cq = CompletionQueue::default();
        let got: Rc<RefCell<Vec<(u64, u64)>>> = Rc::default();
        for wr_id in 0..WAITERS {
            let cq = cq.clone();
            let got = Rc::clone(&got);
            sim.spawn(async move {
                let wc = cq.next_for(wr_id).await;
                got.borrow_mut().push((wr_id, wc.wr_id));
            });
        }
        // Completions land one per microsecond, highest wr_id first.
        for wr_id in 0..WAITERS {
            let cq = cq.clone();
            sim.schedule_in(Duration::from_micros(WAITERS - wr_id), move |sim| {
                cq.push(completion(wr_id, sim.now()));
            });
        }
        sim.run();
        let got = got.borrow();
        assert_eq!(got.len(), WAITERS as usize);
        assert!(got.iter().all(|(want, have)| want == have), "{got:?}");
        // Reverse landing order: the last waiter registered finishes first.
        assert_eq!(got[0].0, WAITERS - 1);
        // Each waiter is polled to register and once more to finish. A
        // broadcast wake would poll every remaining waiter per completion
        // (~64²/2 polls in all).
        assert!(sim.stats().polls <= 3 * WAITERS, "{:?}", sim.stats());
        assert_eq!(cq.waiters(), 0);
        assert!(cq.is_empty());
    }

    #[test]
    fn timed_out_next_for_leaves_no_waiter_and_keeps_its_completion() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let qp_a = QueuePair::new(&sim2, model());
            qp_a.bind_peer_window(RemoteWindow::new(64));
            qp_a.post_rdma_read(5, 0, 8);
            // The read takes a 4us round trip; give up after 1us.
            let waited =
                nbkv_simrt::timeout(&sim2, Duration::from_micros(1), qp_a.send_cq().next_for(5))
                    .await;
            assert!(waited.is_err());
            assert_eq!(qp_a.send_cq().waiters(), 0, "dropped waiter deregistered");
            sim2.sleep(Duration::from_micros(10)).await;
            let wcs = qp_a.send_cq().poll(4);
            assert_eq!(wcs.len(), 1, "late completion stays queued");
            assert_eq!(wcs[0].wr_id, 5);
        });
    }

    #[test]
    fn onesided_fault_plan_swallows_completions() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let qp_a = QueuePair::new(&sim2, model());
            qp_a.bind_peer_window(RemoteWindow::new(64));
            qp_a.set_onesided_faults(Some(FaultPlan::drops(7, 1.0)));
            qp_a.post_rdma_read(1, 0, 8);
            sim2.sleep(Duration::from_millis(1)).await;
            assert!(qp_a.send_cq().is_empty(), "dropped read must not complete");

            // Clearing the plan restores delivery.
            qp_a.set_onesided_faults(None);
            qp_a.post_rdma_read(2, 0, 8);
            sim2.sleep(Duration::from_millis(1)).await;
            assert_eq!(qp_a.send_cq().poll(4).len(), 1);
        });
    }
}
