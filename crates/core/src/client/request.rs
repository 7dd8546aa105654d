//! Request handles: the Rust shape of the paper's `memcached_req`.
//!
//! Every issued operation returns a [`ReqHandle`] holding a completion
//! flag, the eventual server response, and timing. [`ReqHandle::wait`] is
//! `memcached_wait`; [`ReqHandle::test`] is `memcached_test`.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use bytes::Bytes;
use nbkv_simrt::{FxHashMap, Notify, Semaphore, Sim, SimTime};
use std::time::Duration;

use crate::proto::{OpStatus, Response, StageTimes};

/// Outstanding-request table shared between the client, its progress
/// tasks, and every [`ReqHandle`] (for cancellation).
pub(crate) type Pending = Rc<RefCell<FxHashMap<u64, Rc<RefCell<ReqState>>>>>;

/// The client's send window: a semaphore bounding in-flight *fabric
/// frames* plus direct occupancy accounting. The high-water mark tracks
/// acquired permits — not the pending-op table, which diverges from
/// window occupancy once a batch frame shares one permit across many ops.
pub(crate) struct SendWindow {
    sem: Semaphore,
    in_flight: Cell<u64>,
    hwm: Cell<u64>,
}

impl SendWindow {
    pub(crate) fn new(max_outstanding: usize) -> Rc<SendWindow> {
        Rc::new(SendWindow {
            sem: Semaphore::new(max_outstanding),
            in_flight: Cell::new(0),
            hwm: Cell::new(0),
        })
    }

    /// Acquire one frame slot (released via [`WindowSlot`]).
    pub(crate) async fn acquire(&self) {
        self.sem.acquire().await.forget();
        let n = self.in_flight.get() + 1;
        self.in_flight.set(n);
        self.hwm.set(self.hwm.get().max(n));
    }

    fn release(&self) {
        debug_assert!(self.in_flight.get() > 0, "release without acquire");
        self.in_flight.set(self.in_flight.get().saturating_sub(1));
        self.sem.add_permits(1);
    }

    /// High-water mark of concurrently-held frame slots.
    pub(crate) fn hwm(&self) -> u64 {
        self.hwm.get()
    }
}

/// One acquired send-window slot, shared by every op travelling in the
/// same fabric frame (one op for the per-op path, N for a batch). The
/// slot returns its window permit when the last member completes or is
/// cancelled.
pub(crate) struct WindowSlot {
    remaining: Cell<usize>,
    window: Rc<SendWindow>,
}

impl WindowSlot {
    pub(crate) fn new(window: Rc<SendWindow>, members: usize) -> Rc<WindowSlot> {
        debug_assert!(members > 0);
        Rc::new(WindowSlot {
            remaining: Cell::new(members),
            window,
        })
    }

    /// One member op finished (completed or cancelled); the last one out
    /// releases the frame's window permit.
    pub(crate) fn member_done(&self) {
        let r = self.remaining.get();
        debug_assert!(r > 0, "slot over-released");
        self.remaining.set(r - 1);
        if r == 1 {
            self.window.release();
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

pub(crate) struct ReqState {
    pub(crate) done: bool,
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

impl ReqState {
    pub(crate) fn new(issued_at: SimTime) -> Rc<RefCell<ReqState>> {
        Rc::new(RefCell::new(ReqState {
            done: false,
            response: None,
            notify: Notify::new(),
            issued_at,
            sent_at: None,
            completed_at: None,
            slot: None,
            sent: false,
            direct_fallback: false,
        }))
    }
}

/// Wait until `state.sent` — the buffer-reuse point for coalesced
/// `bset`/`bget` ops (set after the batch frame's send completion).
pub(crate) async fn wait_sent(state: &Rc<RefCell<ReqState>>) {
    loop {
        let notified = {
            let s = state.borrow();
            if s.sent || s.done {
                return;
            }
            s.notify.notified()
        };
        notified.await;
    }
}

/// Handle to an in-flight (or completed) request — the `memcached_req` of
/// Listing 1.
#[derive(Clone)]
pub struct ReqHandle {
    pub(crate) sim: Sim,
    pub(crate) state: Rc<RefCell<ReqState>>,
    pub(crate) req_id: u64,
    pub(crate) pending: Pending,
}

impl ReqHandle {
    /// True once the server's response has arrived.
    pub fn is_done(&self) -> bool {
        self.state.borrow().done
    }

    /// Abandon an in-flight request: drop it from the outstanding table and
    /// release its share of the frame's send-window slot. Returns `true`
    /// if the request was still in flight (a completed or already-
    /// cancelled request is a no-op). A response that arrives after
    /// cancellation is counted as an orphan in [`crate::client::ClientStats`]. An
    /// op cancelled while still queued in a batch is dropped from the
    /// frame at flush time (it never touched the window).
    pub fn cancel(&self) -> bool {
        if self.state.borrow().done {
            return false;
        }
        if self.pending.borrow_mut().remove(&self.req_id).is_some() {
            if let Some(slot) = self.state.borrow_mut().slot.take() {
                slot.member_done();
            }
            true
        } else {
            false
        }
    }

    /// Non-blocking completion check (`memcached_test`): `Some` with the
    /// outcome if complete, `None` if still in flight.
    pub fn test(&self) -> Option<Completion> {
        let s = self.state.borrow();
        if s.done {
            Some(build_completion(&s))
        } else {
            None
        }
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
        match nbkv_simrt::timeout(&self.sim, dur, self.wait()).await {
            Ok(c) => Ok(c),
            Err(elapsed) => {
                self.cancel();
                Err(elapsed)
            }
        }
    }

    /// Wait (in virtual time) for completion (`memcached_wait`).
    pub async fn wait(&self) -> Completion {
        loop {
            let notified = {
                let s = self.state.borrow();
                if s.done {
                    return build_completion(&s);
                }
                s.notify.notified()
            };
            notified.await;
        }
    }
}

fn build_completion(s: &ReqState) -> Completion {
    let resp = s.response.as_ref().expect("done implies response");
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
        completed_at: s.completed_at.expect("done implies completion time"),
    }
}
