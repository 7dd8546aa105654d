//! Client-side doorbell batching: a per-server coalescing queue that
//! packs pending non-blocking ops into one [`Request::Batch`] frame.
//!
//! Small-message RDMA throughput is dominated by per-message overhead
//! (descriptor post, header, base link latency); coalescing N small ops
//! into one frame pays those once. The flush policy mirrors doorbell
//! batching on real verbs hardware:
//!
//! - **count** — the queue reached [`BatchPolicy::max_ops`];
//! - **size** — queued wire bytes reached [`BatchPolicy::max_bytes`]
//!   (large frames stop amortizing and start adding serialization delay);
//! - **deadline** — [`BatchPolicy::max_delay`] of virtual time elapsed
//!   since the first op entered an empty queue (bounded added latency);
//! - **doorbell** — the application rang the doorbell explicitly via
//!   [`crate::Client::flush_batches`] (e.g. at the end of a
//!   `get_multi` burst).
//!
//! A flushed frame holds exactly one send-window permit regardless of how
//! many ops it carries (`WindowSlot`); the permit returns when the last
//! member completes. Single-op flushes go out as plain unbatched frames,
//! so a batch-enabled client that happens to issue one op at a time is
//! bit-identical to an unbatched one.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Duration;

use nbkv_obs::Histogram;

use crate::client::request::{send_failed, ClientCore, ReqState};
use crate::proto::Request;

/// Flush policy for the per-server coalescing queues.
#[derive(Debug, Clone, Copy)]
pub struct BatchPolicy {
    /// Flush once this many ops are queued for one server.
    pub max_ops: usize,
    /// Flush once the queued ops' wire bytes reach this threshold.
    pub max_bytes: usize,
    /// Flush this long (virtual time) after the first op entered an
    /// empty queue — the bound on batching-added latency.
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_ops: 16,
            max_bytes: 32 << 10,
            max_delay: Duration::from_micros(3),
        }
    }
}

/// Why a queue was flushed (counted per flush in the client's stats).
enum FlushReason {
    Count,
    Size,
    Deadline,
    Doorbell,
}

/// One server's coalescing queue. `epoch` advances on every flush so a
/// pending deadline task can tell whether "its" generation of ops is
/// still queued — the deadline fires exactly once per armed generation.
#[derive(Default)]
struct BatchQueue {
    ops: Vec<(Request, Rc<RefCell<ReqState>>)>,
    bytes: usize,
    epoch: u64,
}

/// The client's batching engine: one [`BatchQueue`] per server over the
/// client's shared plumbing.
pub(crate) struct Batcher {
    core: Rc<ClientCore>,
    policy: BatchPolicy,
    queues: Vec<RefCell<BatchQueue>>,
    ops_hist: RefCell<Histogram>,
}

impl Batcher {
    pub(crate) fn new(core: Rc<ClientCore>, policy: BatchPolicy) -> Rc<Batcher> {
        let queues = (0..core.txs.len()).map(|_| RefCell::default()).collect();
        Rc::new(Batcher {
            core,
            policy,
            queues,
            ops_hist: RefCell::new(Histogram::new()),
        })
    }

    /// Ops-per-batch distribution (one sample per flushed frame).
    pub(crate) fn ops_per_batch(&self) -> Histogram {
        self.ops_hist.borrow().clone()
    }

    /// Queue one op for `server`. The op's `ReqState` must already be in
    /// the pending table (cancellation before flush removes it there, and
    /// the flush skips it). Arms the deadline on first-into-empty, and
    /// flushes immediately when a count/size threshold trips.
    pub(crate) fn enqueue(
        self: &Rc<Self>,
        server: usize,
        req: Request,
        state: Rc<RefCell<ReqState>>,
    ) {
        debug_assert!(req.flavor().is_nonblocking(), "only non-blocking ops batch");
        let (was_empty, trip) = {
            let mut q = self.queues[server].borrow_mut();
            let was_empty = q.ops.is_empty();
            q.bytes += req.batch_member_len();
            q.ops.push((req, state));
            let trip = if q.ops.len() >= self.policy.max_ops {
                Some(FlushReason::Count)
            } else if q.bytes >= self.policy.max_bytes {
                Some(FlushReason::Size)
            } else {
                None
            };
            (was_empty, trip)
        };
        if let Some(reason) = trip {
            self.core.sim.spawn(Rc::clone(self).flush(server, reason));
        } else if was_empty {
            // Arm the flush deadline for this generation of the queue.
            let b = Rc::clone(self);
            let armed_epoch = self.queues[server].borrow().epoch;
            let delay = self.policy.max_delay;
            self.core.sim.spawn(async move {
                b.core.sim.sleep(delay).await;
                if b.queues[server].borrow().epoch == armed_epoch {
                    b.flush(server, FlushReason::Deadline).await;
                }
            });
        }
    }

    /// Ring the doorbell: flush every non-empty queue now.
    pub(crate) fn flush_all(self: &Rc<Self>) {
        for server in 0..self.queues.len() {
            if self.queues[server].borrow().ops.is_empty() {
                continue;
            }
            let flush = Rc::clone(self).flush(server, FlushReason::Doorbell);
            self.core.sim.spawn(flush);
        }
    }

    /// Drain `server`'s queue into one fabric frame. Cancelled members
    /// (already gone from the pending table) are dropped from the frame;
    /// a single survivor goes out as a plain unbatched request.
    async fn flush(self: Rc<Self>, server: usize, reason: FlushReason) {
        let queued = {
            let mut q = self.queues[server].borrow_mut();
            q.epoch += 1;
            q.bytes = 0;
            std::mem::take(&mut q.ops)
        };
        let (ops, states): (Vec<_>, Vec<_>) = queued
            .into_iter()
            .filter(|(op, _)| self.core.pending.borrow().contains_key(&op.req_id()))
            .unzip();
        let n = ops.len();
        if n == 0 {
            return;
        }

        {
            let mut st = self.core.stats.borrow_mut();
            match reason {
                FlushReason::Count => st.flush_on_count += 1,
                FlushReason::Size => st.flush_on_size += 1,
                FlushReason::Deadline => st.flush_on_deadline += 1,
                FlushReason::Doorbell => st.flush_on_doorbell += 1,
            }
            if n > 1 {
                st.batches_sent += 1;
                st.batched_ops += n as u64;
            }
        }
        self.ops_hist.borrow_mut().record(n as u64);

        let members: Vec<(u64, bool)> = ops
            .iter()
            .map(|op| (op.req_id(), matches!(op, Request::Get { .. })))
            .collect();
        // Post the descriptor chain and ring the doorbell: one issue cost
        // and one send-window permit for the whole frame, however many ops
        // it carries.
        let (_, slot) = self.core.begin(n).await;
        for (state, (req_id, _)) in states.iter().zip(&members) {
            if self.core.pending.borrow().contains_key(req_id) {
                state.borrow_mut().slot = Some(Rc::clone(&slot));
            } else {
                // Cancelled while the frame waited for its permit: nothing
                // will land on it, so give its share back now.
                slot.member_done();
            }
        }
        let frame = if n == 1 {
            ops[0].encode()
        } else {
            let flavor = ops[0].flavor();
            Request::batch(self.core.alloc_req_id(), flavor, ops)
                .expect("flush builds non-empty, non-nested batches")
                .encode()
        };
        let sent = self.core.send_frame(server, frame, &states, true).await;
        if sent.is_err() {
            // The connection died under the frame: fail every member so
            // waiters do not hang; the last one returns the frame's permit.
            for (req_id, is_get) in members {
                self.core.complete(send_failed(req_id, is_get));
            }
        }
    }
}
