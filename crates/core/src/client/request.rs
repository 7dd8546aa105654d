//! Request handles: the Rust shape of the paper's `memcached_req`, and the
//! op lifecycle behind them.
//!
//! Every issued operation returns a [`ReqHandle`] holding a completion
//! flag, the eventual server response, and timing. [`ReqHandle::wait`] is
//! `memcached_wait`; [`ReqHandle::test`] is `memcached_test`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use nbkv_fabric::{Disconnected, Frame, TransportTx};
use nbkv_simrt::{FxHashMap, Notify, Semaphore, Sim, SimTime};
use std::time::Duration;

use crate::client::runtime::{ClientConfig, ClientStats};
use crate::costs::CpuCosts;
use crate::proto::{OpStatus, Response, StageTimes};

/// One acquired send-window permit, shared by every op travelling in the
/// same fabric frame (one op for the per-op path, N for a batch). The
/// permit returns when the last member completes or is cancelled.
pub(crate) struct WindowSlot {
    remaining: Cell<usize>,
    window: Semaphore,
}

impl WindowSlot {
    /// One member op finished (completed or cancelled); the last one out
    /// releases the frame's window permit.
    pub(crate) fn member_done(&self) {
        let r = self.remaining.get();
        debug_assert!(r > 0, "slot over-released");
        self.remaining.set(r - 1);
        if r == 1 {
            self.window.add_permits(1);
        }
    }
}

/// The client plumbing every issue path shares, and the op lifecycle
/// written once over it: [`begin`](Self::begin) a frame,
/// [`track`](Self::track) each op it carries,
/// [`send_frame`](Self::send_frame), and land each op's outcome with
/// [`complete`](Self::complete). A per-op post, a batch flush and both
/// direct-read paths are built from these steps.
pub(crate) struct ClientCore {
    pub(crate) sim: Sim,
    pub(crate) costs: CpuCosts,
    pub(crate) txs: Vec<TransportTx>,
    pub(crate) pending: RefCell<FxHashMap<u64, Rc<RefCell<ReqState>>>>,
    /// The send window: it bounds in-flight *fabric frames*, not ops (a
    /// batch frame's members share one permit).
    window: Semaphore,
    max_outstanding: usize,
    /// High-water mark of held window permits.
    pub(crate) window_hwm: Cell<u64>,
    pub(crate) stats: Rc<RefCell<ClientStats>>,
    /// The id the next request or batch frame gets.
    pub(crate) next_id: Cell<u64>,
}

impl ClientCore {
    pub(crate) fn new(sim: &Sim, txs: Vec<TransportTx>, cfg: &ClientConfig) -> Rc<ClientCore> {
        Rc::new(ClientCore {
            sim: sim.clone(),
            costs: cfg.costs,
            txs,
            pending: RefCell::default(),
            window: Semaphore::new(cfg.max_outstanding),
            max_outstanding: cfg.max_outstanding,
            window_hwm: Cell::new(0),
            stats: Rc::default(),
            next_id: Cell::new(1),
        })
    }

    /// Allocate a request (or batch frame) id.
    pub(crate) fn alloc_req_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    /// Spend `cost` of client CPU in virtual time (a zero cost arms no
    /// timer).
    pub(crate) async fn charge(&self, cost: Duration) {
        if !cost.is_zero() {
            self.sim.sleep(cost).await;
        }
    }

    /// Begin a frame of `members` ops: pay the descriptor post + doorbell
    /// (`client_issue`), then take one send-window permit, shared by the
    /// members through the returned slot. Returns the instant the frame
    /// began (an op's issue time unless it waited in a batch queue first).
    pub(crate) async fn begin(&self, members: usize) -> (SimTime, Rc<WindowSlot>) {
        debug_assert!(members > 0);
        let start = self.sim.now();
        self.charge(self.costs.client_issue).await;
        self.window.acquire().await.forget();
        let held = (self.max_outstanding - self.window.available()) as u64;
        self.window_hwm.set(self.window_hwm.get().max(held));
        let slot = WindowSlot {
            remaining: Cell::new(members),
            window: self.window.clone(),
        };
        (start, Rc::new(slot))
    }

    /// Track an op: enter it in the pending table and count it issued.
    /// `slot` is its frame's window slot, `None` while it waits in a batch
    /// queue.
    pub(crate) fn track(
        self: &Rc<Self>,
        req_id: u64,
        issued_at: SimTime,
        slot: Option<Rc<WindowSlot>>,
    ) -> ReqHandle {
        let state = Rc::new(RefCell::new(ReqState {
            issued_at,
            slot,
            ..ReqState::default()
        }));
        self.pending.borrow_mut().insert(req_id, Rc::clone(&state));
        self.stats.borrow_mut().issued += 1;
        ReqHandle {
            core: Rc::clone(self),
            state,
            req_id,
        }
    }

    /// Post `frame` to `server` and stamp its send-completion time on every
    /// op it carries. With `wait_sent`, also wait for the NIC to finish
    /// reading the buffers, then mark the ops sent and wake their
    /// `bset`/`bget` waiters.
    pub(crate) async fn send_frame(
        &self,
        server: usize,
        frame: Frame,
        ops: &[Rc<RefCell<ReqState>>],
        wait_sent: bool,
    ) -> Result<(), Disconnected> {
        let ticket = self.txs[server].send(frame).await?;
        for op in ops {
            op.borrow_mut().sent_at = Some(ticket.sent_at());
        }
        if wait_sent {
            ticket.wait_sent().await;
            for op in ops {
                let mut s = op.borrow_mut();
                s.sent = true;
                s.notify.notify_waiters();
            }
        }
        Ok(())
    }

    /// Land `resp` on its pending op: store it, mark the op done and wake
    /// its waiters, release its share of the carrying frame's window slot
    /// and count it completed. Wire responses, direct hits and failed sends
    /// all end here. Returns the op's issue time and whether it was a
    /// direct-read fallback, or `None` for an orphan whose op was already
    /// cancelled.
    pub(crate) fn complete(&self, resp: Response) -> Option<(SimTime, bool)> {
        let Some(state) = self.pending.borrow_mut().remove(&resp.req_id()) else {
            self.stats.borrow_mut().orphans += 1;
            return None;
        };
        let (slot, issued_at, fallback) = {
            let mut s = state.borrow_mut();
            s.response = Some(resp);
            s.sent = true;
            s.completed_at = Some(self.sim.now());
            s.notify.notify_waiters();
            (s.slot.take(), s.issued_at, s.direct_fallback)
        };
        if let Some(slot) = slot {
            slot.member_done();
        }
        self.stats.borrow_mut().completed += 1;
        Some((issued_at, fallback))
    }
}

/// The error outcome of an op whose frame could not be sent, shaped like
/// the answer it asked for.
pub(crate) fn send_failed(req_id: u64, is_get: bool) -> Response {
    let (status, stages) = (OpStatus::Error, StageTimes::default());
    if is_get {
        Response::Get {
            req_id,
            status,
            stages,
            flags: 0,
            cas: 0,
            value: None,
        }
    } else {
        Response::Set {
            req_id,
            status,
            stages,
        }
    }
}

/// Outcome of a completed operation.
#[derive(Debug, Clone)]
pub struct Completion {
    /// Operation status.
    pub status: OpStatus,
    /// Value for get hits.
    pub value: Option<Bytes>,
    /// Stored flags for get hits.
    pub flags: u32,
    /// CAS token for get hits (pass to [`crate::Client::cas`]).
    pub cas: u64,
    /// Counter value after incr/decr.
    pub counter: u64,
    /// Server-side stage breakdown.
    pub stages: StageTimes,
    /// When the request was issued (virtual time).
    pub issued_at: SimTime,
    /// When the NIC finished serializing the request onto the link
    /// (send-completion time; equals `issued_at` for failed sends).
    pub sent_at: SimTime,
    /// When the response completed at the client (virtual time).
    pub completed_at: SimTime,
}

impl Completion {
    /// End-to-end latency in virtual nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.completed_at
            .saturating_since(self.issued_at)
            .as_nanos() as u64
    }

    /// True if the operation found/stored what it asked for.
    pub fn is_success(&self) -> bool {
        matches!(
            self.status,
            OpStatus::Stored | OpStatus::Hit | OpStatus::Deleted
        )
    }

    /// The full request-lifecycle timeline, combining the client-side
    /// stamps with the server's absolute stamps (all on the one shared
    /// virtual clock). `None` when the server did not stamp the response
    /// (e.g. a pre-observability peer) or the stamps are inconsistent
    /// (e.g. a retried request whose issue stamp post-dates the original
    /// attempt's server processing).
    pub fn timeline(&self) -> Option<nbkv_obs::ReqTimeline> {
        if self.stages.server_recv_at_ns == 0 {
            return None;
        }
        let tl = nbkv_obs::ReqTimeline {
            issued_ns: self.issued_at.as_nanos(),
            nic_out_ns: self.sent_at.as_nanos(),
            server_recv_ns: self.stages.server_recv_at_ns,
            comm_done_ns: self.stages.comm_done_at_ns,
            store_done_ns: self.stages.store_done_at_ns,
            completed_ns: self.completed_at.as_nanos(),
            ssd_ns: self.stages.ssd_ns,
            overlapped_flush: self.stages.overlapped_flush,
        };
        tl.is_monotone().then_some(tl)
    }
}

#[derive(Default)]
pub(crate) struct ReqState {
    /// The outcome; `Some` once the op is done.
    pub(crate) response: Option<Response>,
    pub(crate) notify: Notify,
    pub(crate) issued_at: SimTime,
    pub(crate) sent_at: Option<SimTime>,
    pub(crate) completed_at: Option<SimTime>,
    /// The send-window slot of the frame this op travelled in. Set when
    /// the frame is posted (immediately for the per-op path, at flush for
    /// a coalesced op); `None` while the op sits in a batch queue.
    pub(crate) slot: Option<Rc<WindowSlot>>,
    /// True once the NIC has finished reading the op's buffers (the
    /// `bset`/`bget` buffer-reuse point). `notify` fires on this
    /// transition too.
    pub(crate) sent: bool,
    /// True if this op started as a one-sided direct read and fell back
    /// to RPC — its end-to-end latency includes the failed direct attempt
    /// and must not feed the adaptive policy's RPC-latency EWMA.
    pub(crate) direct_fallback: bool,
}

/// Handle to an in-flight (or completed) request — the `memcached_req` of
/// Listing 1.
#[derive(Clone)]
pub struct ReqHandle {
    pub(crate) core: Rc<ClientCore>,
    pub(crate) state: Rc<RefCell<ReqState>>,
    pub(crate) req_id: u64,
}

impl ReqHandle {
    /// True once the server's response has arrived.
    pub fn is_done(&self) -> bool {
        self.state.borrow().response.is_some()
    }

    /// Abandon an in-flight request: drop it from the outstanding table and
    /// release its share of the frame's send-window slot. Returns `true`
    /// if the request was still in flight (a completed or already-
    /// cancelled request is a no-op). A response that arrives after
    /// cancellation is counted as an orphan in [`crate::client::ClientStats`]. An
    /// op cancelled while still queued in a batch is dropped from the
    /// frame at flush time (it never touched the window).
    pub fn cancel(&self) -> bool {
        if self.is_done()
            || self
                .core
                .pending
                .borrow_mut()
                .remove(&self.req_id)
                .is_none()
        {
            return false;
        }
        if let Some(slot) = self.state.borrow_mut().slot.take() {
            slot.member_done();
        }
        true
    }

    /// Non-blocking completion check (`memcached_test`): `Some` with the
    /// outcome if complete, `None` if still in flight.
    pub fn test(&self) -> Option<Completion> {
        let s = self.state.borrow();
        s.response.is_some().then(|| build_completion(&s))
    }

    /// Wait for completion, giving up after `dur` of virtual time.
    ///
    /// Real memcached clients run with operation timeouts; a request to a
    /// crashed or unreachable server would otherwise wait forever. On
    /// timeout the request is [cancelled](Self::cancel) — its outstanding
    /// entry and send-window slot are reclaimed, so timed-out operations
    /// cannot leak the client's issue window. (To keep waiting instead,
    /// use [`nbkv_simrt::timeout`] around [`wait`](Self::wait) directly.)
    pub async fn wait_timeout(&self, dur: Duration) -> Result<Completion, nbkv_simrt::Elapsed> {
        let out = nbkv_simrt::timeout(&self.core.sim, dur, self.wait()).await;
        if out.is_err() {
            self.cancel();
        }
        out
    }

    /// Wait (in virtual time) for completion (`memcached_wait`).
    pub async fn wait(&self) -> Completion {
        self.wait_for(|s| s.response.is_some()).await;
        build_completion(&self.state.borrow())
    }

    /// Wait until the NIC has finished reading the op's buffers — the
    /// `bset`/`bget` buffer-reuse point — or the op is done.
    pub(crate) async fn wait_sent(&self) {
        self.wait_for(|s| s.sent || s.response.is_some()).await;
    }

    /// Sleep on the op's notify until `ready` holds.
    async fn wait_for(&self, ready: impl Fn(&ReqState) -> bool) {
        loop {
            let notified = {
                let s = self.state.borrow();
                if ready(&s) {
                    return;
                }
                s.notify.notified()
            };
            notified.await;
        }
    }
}

fn build_completion(s: &ReqState) -> Completion {
    let resp = s
        .response
        .as_ref()
        .expect("only a done op has a completion");
    let (value, flags, cas, counter) = match resp {
        Response::Set { .. } | Response::Delete { .. } => (None, 0, 0, 0),
        Response::Get {
            value, flags, cas, ..
        } => (value.clone(), *flags, *cas, 0),
        Response::Counter { value, .. } => (None, 0, 0, *value),
        // The progress task fans batch frames out into member responses
        // before completing any op; a frame never lands on an op's state.
        Response::Batch { .. } => unreachable!("batch frames are fanned out per member"),
        // Replication acks flow on server-to-server links only; clients
        // never issue `Request::Replicate`.
        Response::ReplAck { .. } => unreachable!("replication acks never reach client ops"),
    };
    Completion {
        status: resp.status(),
        value,
        flags,
        cas,
        counter,
        stages: resp.stages(),
        issued_at: s.issued_at,
        sent_at: s.sent_at.unwrap_or(s.issued_at),
        completed_at: s.completed_at.expect("a done op has a completion time"),
    }
}
