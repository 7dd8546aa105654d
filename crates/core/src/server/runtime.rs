//! Server request handling.
//!
//! Two execution paths, matching Section V-B1 of the paper:
//!
//! - **Inline path** (blocking API requests, and everything on servers
//!   without the pipeline enhancement): requests from *all* connections
//!   serialize through a single dispatcher permit — the single progress
//!   thread of RDMA-Memcached. The memory/SSD phase runs inline, so a slow
//!   slab flush stalls every other request behind it.
//! - **Pipelined path** (non-blocking API requests on enhanced servers):
//!   the dispatcher only parses and stages the request into a bounded
//!   staging queue, and a pool of worker tasks runs the memory/SSD phase
//!   asynchronously — the "decoupled communication and memory phases"
//!   design that lets expensive hybrid-memory eviction overlap with
//!   request arrival.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use nbkv_fabric::{FabricProfile, Transport, TransportTx, FRAME_OVERHEAD};
use nbkv_simrt::{Semaphore, Sim, SimTime};
use nbkv_storesim::SlabIo;

use crate::client::Ring;
use crate::proto::{ApiFlavor, Request, Response, StageTimes};
use crate::server::slab::SlabStats;
use crate::server::store::{HybridStore, OpOutcome, ReplUpdate, StoreConfig, StoreStats};

/// Replication ops coalescing into one `Request::Batch` doorbell frame.
const REPL_BATCH_OPS: usize = 16;
/// How long a lone replication op waits for companions before its frame
/// ships anyway (mirrors the client-side `BatchPolicy` deadline).
const REPL_FLUSH_DELAY: Duration = Duration::from_micros(3);
/// Retransmit cadence for unacknowledged replication ops. Far above the
/// fabric RTT, so only frames genuinely lost to faults or a crashed
/// replica get resent; per-key sequence numbers make duplicates harmless.
pub(crate) const REPL_RETRANSMIT_EVERY: Duration = Duration::from_micros(500);

/// Server configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Storage engine configuration.
    pub store: StoreConfig,
    /// Enable the decoupled memory-phase pipeline for non-blocking
    /// requests (the paper's server enhancement).
    pub pipeline: bool,
    /// Worker tasks servicing the staging queue.
    pub workers: usize,
    /// Bounded staging-queue capacity (back-pressure on clients).
    pub staging_capacity: usize,
    /// Request threads for the inline (blocking) path — memcached's
    /// `-t` worker threads. Requests beyond this concurrency queue.
    pub inline_concurrency: usize,
    /// Publish an RDMA-readable one-sided index region (the server-bypass
    /// GET path). `None` disables it; clients then always use RPC.
    pub onesided: Option<crate::server::onesided::OneSidedConfig>,
}

impl ServerConfig {
    /// A default (non-pipelined) server: everything runs inline on the
    /// single dispatcher, like RDMA-Memcached 0.9.3.
    pub fn basic(store: StoreConfig) -> Self {
        ServerConfig {
            store,
            pipeline: false,
            workers: 0,
            staging_capacity: 0,
            inline_concurrency: 4,
            onesided: None,
        }
    }

    /// The paper's enhanced server: staged non-blocking requests serviced
    /// by a worker pool.
    pub fn pipelined(store: StoreConfig) -> Self {
        ServerConfig {
            store,
            pipeline: true,
            workers: 4,
            staging_capacity: 64,
            inline_concurrency: 4,
            onesided: None,
        }
    }
}

nbkv_obs::counters! {
    /// Server counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ServerStats {
        /// Requests received (member ops of a batch frame each count once).
        sum requests: u64,
        /// Requests handled inline on the dispatcher.
        sum inline_handled: u64,
        /// Requests staged for the worker pool.
        sum staged: u64,
        /// Response frames sent (a coalesced batch response counts once).
        sum responses: u64,
        /// Undecodable messages dropped.
        sum proto_errors: u64,
        /// Requests that arrived while a slab-eviction flush was in flight —
        /// the comm/memory overlap the non-blocking pipeline creates.
        sum recv_during_flush: u64,
        /// Batch frames received.
        sum batches: u64,
        /// Member ops carried inside those batch frames.
        sum batch_ops: u64,
        /// Replication ops enqueued toward peer replicas (each op counts once,
        /// however many times its frame is retransmitted).
        sum repl_sent: u64,
        /// Replication ops acknowledged by their replica.
        sum repl_acked: u64,
        /// Replication ops retransmitted after the ack deadline (lost frames,
        /// crashed replicas catching up after restart).
        sum repl_retrans: u64,
    }
}

/// Full server observability snapshot, served over the wire by the
/// `stats` operation (like memcached's `stats` command).
///
/// On the wire it is [`StatsSnapshot::WIRE_LEN`] bytes of big-endian `u64`
/// words: the [`ServerStats`] fields, then the [`StoreStats`] fields, then
/// the [`SlabStats`] fields, each in declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Request-pipeline counters.
    pub server: ServerStats,
    /// Storage-engine counters.
    pub store: StoreStats,
    /// Slab-pool occupancy.
    pub slab: SlabStats,
}

impl StatsSnapshot {
    /// Encoded size: one 8-byte word per counter.
    pub const WIRE_LEN: usize =
        8 * (ServerStats::NAMES.len() + StoreStats::NAMES.len() + SlabStats::NAMES.len());

    /// Encode as the `stats` response payload.
    pub(crate) fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(Self::WIRE_LEN);
        for (_, w) in self.fields() {
            b.put_u64(w);
        }
        b.freeze()
    }

    /// Every counter as `(field name, word)`, in wire order.
    pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
        let server = ServerStats::NAMES.into_iter().zip(self.server.words());
        let store = StoreStats::NAMES.into_iter().zip(self.store.words());
        server
            .chain(store)
            .chain(SlabStats::NAMES.into_iter().zip(self.slab.words()))
    }

    /// Decode a `stats` response payload; `None` unless it is exactly
    /// [`Self::WIRE_LEN`] bytes long.
    pub(crate) fn decode(payload: &[u8]) -> Option<StatsSnapshot> {
        if payload.len() != Self::WIRE_LEN {
            return None;
        }
        let mut words = payload
            .chunks_exact(8)
            .map(|w| u64::from_be_bytes(w.try_into().expect("8-byte chunk")));
        Some(StatsSnapshot {
            server: ServerStats::from_words(&mut words),
            store: StoreStats::from_words(&mut words),
            slab: SlabStats::from_words(&mut words),
        })
    }
}

struct Staged {
    req: Request,
    sink: RespSink,
    slot: nbkv_simrt::Permit,
    stamps: PhaseStamps,
}

/// Where a staged request's response goes: straight back on the wire, or
/// into a per-frame assembler that coalesces completions into batch
/// response frames.
enum RespSink {
    Direct(TransportTx),
    Batch(Rc<BatchAssembler>),
}

impl RespSink {
    fn profile(&self) -> &FabricProfile {
        match self {
            RespSink::Direct(tx) => tx.profile(),
            RespSink::Batch(asm) => asm.tx.profile(),
        }
    }
}

/// Coalesces member completions of one batch frame into response frames,
/// one per *completion wave* (up to `wave_size` members): responses
/// amortize the same per-message overhead the request side saved, while a
/// straggler op (e.g. an SSD read) cannot hold back members that already
/// finished — the wave that is full ships without it.
struct BatchAssembler {
    frame_id: u64,
    tx: TransportTx,
    remaining: Cell<usize>,
    wave: RefCell<Vec<Response>>,
    wave_size: usize,
}

impl BatchAssembler {
    fn new(frame_id: u64, tx: TransportTx, members: usize, wave_size: usize) -> Rc<Self> {
        Rc::new(BatchAssembler {
            frame_id,
            tx,
            remaining: Cell::new(members),
            wave: RefCell::new(Vec::new()),
            wave_size: wave_size.max(1),
        })
    }

    /// Record one completed member; returns a coalesced frame when a wave
    /// fills or the last member lands.
    fn push(&self, resp: Response) -> Option<Response> {
        self.wave.borrow_mut().push(resp);
        let left = self.remaining.get() - 1;
        self.remaining.set(left);
        if left == 0 || self.wave.borrow().len() >= self.wave_size {
            let wave = std::mem::take(&mut *self.wave.borrow_mut());
            Some(Response::batch(self.frame_id, wave).expect("wave holds at least one response"))
        } else {
            None
        }
    }
}

/// Lifecycle stamps collected on the communication path and carried into
/// the memory/SSD phase (see `StageTimes`' absolute-stamp fields).
#[derive(Debug, Clone, Copy)]
struct PhaseStamps {
    /// When the server received (and decoded) the request.
    recv_at: nbkv_simrt::SimTime,
    /// When the communication phase finished (request staged to the
    /// worker pool or dispatched inline).
    comm_done_at: nbkv_simrt::SimTime,
    /// True if a slab flush was in flight at receive time.
    overlapped: bool,
}

/// Outbound replication state toward one peer replica: a coalescing queue
/// of `Request::Replicate` ops plus the retransmission window of ops the
/// peer has not acknowledged yet.
struct ReplPeer {
    tx: TransportTx,
    /// Ops waiting for the next doorbell frame.
    queue: RefCell<Vec<Request>>,
    /// True while a deadline-flush task is sleeping for this peer.
    flush_pending: Cell<bool>,
    /// req_id -> (op, last send time); retransmitted until acked.
    unacked: RefCell<BTreeMap<u64, (Request, SimTime)>>,
}

/// Per-server replication engine state (installed by
/// [`Server::enable_replication`]).
struct ReplEngine {
    self_id: usize,
    ring: Ring,
    rf: usize,
    /// Peers keyed by server id — a BTreeMap so iteration order (and thus
    /// virtual-time scheduling) is deterministic.
    peers: BTreeMap<usize, Rc<ReplPeer>>,
    next_req_id: Cell<u64>,
}

impl ReplEngine {
    fn fresh_id(&self) -> u64 {
        let id = self.next_req_id.get();
        self.next_req_id.set(id + 1);
        id
    }
}

/// A running server node.
pub struct Server {
    sim: Sim,
    cfg: ServerConfig,
    store: Rc<HybridStore>,
    /// The server request threads (inline path concurrency).
    dispatcher: Semaphore,
    staging_q: Rc<RefCell<VecDeque<Staged>>>,
    staging_items: Semaphore,
    staging_slots: Semaphore,
    stats: RefCell<ServerStats>,
    /// Closed servers silently drop incoming requests (crash simulation).
    closed: std::cell::Cell<bool>,
    /// Replication engine, when this server belongs to a replicated group.
    repl: RefCell<Option<Rc<ReplEngine>>>,
}

impl Server {
    /// Create a server and spawn its worker pool. `ssd` is required when
    /// the store is hybrid.
    pub fn new(sim: &Sim, cfg: ServerConfig, ssd: Option<Rc<SlabIo>>) -> Rc<Self> {
        let store = HybridStore::new(sim, cfg.store, ssd);
        if let Some(oscfg) = cfg.onesided {
            store.attach_onesided(crate::server::onesided::OneSidedIndex::new(oscfg));
        }
        let server = Rc::new(Server {
            sim: sim.clone(),
            cfg,
            store,
            dispatcher: Semaphore::new(cfg.inline_concurrency.max(1)),
            staging_q: Rc::new(RefCell::new(VecDeque::new())),
            staging_items: Semaphore::new(0),
            staging_slots: Semaphore::new(cfg.staging_capacity.max(1)),
            stats: RefCell::new(ServerStats::default()),
            closed: std::cell::Cell::new(false),
            repl: RefCell::new(None),
        });
        if cfg.pipeline {
            for _ in 0..cfg.workers.max(1) {
                let s = Rc::clone(&server);
                sim.spawn(async move { s.worker_loop().await });
            }
        }
        server
    }

    /// The storage engine (for preloading and stats).
    pub fn store(&self) -> &Rc<HybridStore> {
        &self.store
    }

    /// The one-sided index region, if this server publishes one (for
    /// cluster wiring: the window is bound to client queue pairs).
    pub fn onesided(&self) -> Option<Rc<crate::server::onesided::OneSidedIndex>> {
        self.store.onesided()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        *self.stats.borrow()
    }

    /// Full observability snapshot (what the `stats` wire op returns).
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            server: self.stats(),
            store: self.store.stats(),
            slab: self.store.slab_stats(),
        }
    }

    /// Simulate a crash: the server stops responding (requests are
    /// dropped on the floor, like a dead node whose fabric address still
    /// resolves). Clients should use [`crate::ReqHandle::wait_timeout`].
    pub fn close(&self) {
        self.closed.set(true);
    }

    /// True once [`Server::close`] was called.
    pub fn is_closed(&self) -> bool {
        self.closed.get()
    }

    /// Simulate a power-loss crash: stop serving *and* lose all RAM state
    /// (slab pool, hash index, flush buffers). SSD extents survive; a
    /// later [`restart`](Self::restart) rebuilds the index from them.
    pub fn crash(&self) {
        self.closed.set(true);
        // Outbound replication queues are RAM state too: un-flushed and
        // unacked ops die with the node. Writes the crashed node had acked
        // but not yet replicated are rewritten by clients after failover.
        if let Some(engine) = self.repl.borrow().as_ref() {
            for peer in engine.peers.values() {
                peer.queue.borrow_mut().clear();
                peer.unacked.borrow_mut().clear();
            }
        }
        self.store.crash();
    }

    /// Warm restart after [`crash`](Self::crash): scan the surviving SSD
    /// extents to rebuild the RAM index (charging full device read costs
    /// in virtual time), then resume serving requests.
    pub async fn restart(&self) -> crate::server::RecoveryReport {
        let report = self.store.recover().await;
        self.closed.set(false);
        report
    }

    /// Turn on replication for this server: it is node `self_id` of the
    /// `ring`, every locally served write fans out to the key's other
    /// replicas (the next `rf - 1` distinct ring servers), and `peers`
    /// carries the outbound transport toward each other node. Replication
    /// ops coalesce into `Request::Batch` doorbell frames and are
    /// retransmitted until the replica acks, so a replica that was down
    /// catches up after restart.
    pub fn enable_replication(
        self: &Rc<Self>,
        self_id: usize,
        ring: Ring,
        rf: usize,
        peers: Vec<(usize, Transport)>,
    ) {
        let mut map = BTreeMap::new();
        for (id, transport) in peers {
            let (tx, rx) = transport.split();
            let peer = Rc::new(ReplPeer {
                tx,
                queue: RefCell::new(Vec::new()),
                flush_pending: Cell::new(false),
                unacked: RefCell::new(BTreeMap::new()),
            });
            map.insert(id, Rc::clone(&peer));
            // Ack receiver: drains ReplAck frames coming back on this link.
            let weak = Rc::downgrade(self);
            let p = Rc::clone(&peer);
            self.sim.spawn(async move {
                while let Some(msg) = rx.recv().await {
                    let Some(server) = weak.upgrade() else { break };
                    server.handle_repl_ack(&p, &msg);
                }
            });
            // Retransmit loop: resend ops the replica has not acked.
            let weak = Rc::downgrade(self);
            let p = Rc::clone(&peer);
            let sim = self.sim.clone();
            self.sim.spawn(async move {
                loop {
                    sim.sleep(REPL_RETRANSMIT_EVERY).await;
                    let Some(server) = weak.upgrade() else { break };
                    server.retransmit_unacked(&p).await;
                }
            });
        }
        let engine = Rc::new(ReplEngine {
            self_id,
            ring,
            rf,
            peers: map,
            next_req_id: Cell::new(1),
        });
        *self.repl.borrow_mut() = Some(engine);
        let weak = Rc::downgrade(self);
        self.store.set_repl_hook(Rc::new(move |update| {
            if let Some(server) = weak.upgrade() {
                server.on_local_write(update);
            }
        }));
    }

    /// Replication lag: ops enqueued toward replicas but not yet acked
    /// (coalescing queues plus retransmission windows, all peers).
    pub fn repl_lag_ops(&self) -> u64 {
        match self.repl.borrow().as_ref() {
            Some(engine) => engine
                .peers
                .values()
                .map(|p| (p.queue.borrow().len() + p.unacked.borrow().len()) as u64)
                .sum(),
            None => 0,
        }
    }

    /// Store hook target: fan a locally served write out to the key's
    /// other replicas. Runs synchronously inside the store mutation; the
    /// actual sends happen in spawned flush tasks.
    fn on_local_write(self: &Rc<Self>, update: ReplUpdate) {
        let Some(engine) = self.repl.borrow().clone() else {
            return;
        };
        for target in engine.ring.select_replicas(&update.key, engine.rf) {
            if target == engine.self_id {
                continue;
            }
            let Some(peer) = engine.peers.get(&target) else {
                continue;
            };
            let req_id = engine.fresh_id();
            let req = Request::Replicate {
                req_id,
                flavor: ApiFlavor::NonBlockingI,
                seq: update.seq,
                delete: update.delete,
                flags: update.flags,
                expire_at_ns: update.expire_at_ns,
                key: update.key.clone(),
                value: update.value.clone(),
            };
            peer.unacked
                .borrow_mut()
                .insert(req_id, (req.clone(), self.sim.now()));
            peer.queue.borrow_mut().push(req);
            self.stats.borrow_mut().repl_sent += 1;
            self.schedule_repl_flush(&engine, peer);
        }
    }

    /// Ship the peer's queue now if a full doorbell's worth of ops is
    /// waiting, otherwise arm the deadline flush.
    fn schedule_repl_flush(self: &Rc<Self>, engine: &Rc<ReplEngine>, peer: &Rc<ReplPeer>) {
        if peer.queue.borrow().len() >= REPL_BATCH_OPS {
            let server = Rc::clone(self);
            let engine = Rc::clone(engine);
            let p = Rc::clone(peer);
            self.sim
                .spawn(async move { server.flush_repl_queue(&engine, &p).await });
        } else if !peer.flush_pending.get() {
            peer.flush_pending.set(true);
            let server = Rc::clone(self);
            let engine = Rc::clone(engine);
            let p = Rc::clone(peer);
            let sim = self.sim.clone();
            self.sim.spawn(async move {
                sim.sleep(REPL_FLUSH_DELAY).await;
                p.flush_pending.set(false);
                server.flush_repl_queue(&engine, &p).await;
            });
        }
    }

    async fn flush_repl_queue(&self, engine: &ReplEngine, peer: &ReplPeer) {
        let ops = std::mem::take(&mut *peer.queue.borrow_mut());
        // A crashed sender stops transmitting; whatever the crash left in
        // `unacked` was already cleared by `crash()`.
        if ops.is_empty() || self.closed.get() {
            return;
        }
        let frame = Request::batch(engine.fresh_id(), ApiFlavor::NonBlockingI, ops)
            .expect("non-empty replication flush");
        let _ = peer.tx.send(frame.encode()).await;
    }

    /// Resend every op the replica has not acknowledged within the
    /// retransmit window, oldest first, chunked into doorbell frames — so
    /// a replica coming back from a long outage drains its whole backlog
    /// in one tick instead of one frame per tick.
    async fn retransmit_unacked(&self, peer: &ReplPeer) {
        if self.closed.get() {
            return;
        }
        let engine = match self.repl.borrow().clone() {
            Some(e) => e,
            None => return,
        };
        let now = self.sim.now();
        let due: Vec<Request> = {
            let mut unacked = peer.unacked.borrow_mut();
            unacked
                .iter_mut()
                .filter(|(_, (_, sent_at))| now - *sent_at >= REPL_RETRANSMIT_EVERY)
                .map(|(_, slot)| {
                    slot.1 = now;
                    slot.0.clone()
                })
                .collect()
        };
        if due.is_empty() {
            return;
        }
        self.stats.borrow_mut().repl_retrans += due.len() as u64;
        for chunk in due.chunks(REPL_BATCH_OPS) {
            let frame = Request::batch(engine.fresh_id(), ApiFlavor::NonBlockingI, chunk.to_vec())
                .expect("non-empty retransmit");
            let _ = peer.tx.send(frame.encode()).await;
        }
    }

    /// Handle a frame coming back on a replication link: every `ReplAck`
    /// member settles one op in the peer's retransmission window.
    fn handle_repl_ack(&self, peer: &ReplPeer, msg: &Bytes) {
        let Ok(resp) = Response::decode(msg) else {
            self.stats.borrow_mut().proto_errors += 1;
            return;
        };
        let members: Vec<Response> = match resp {
            Response::Batch { responses, .. } => responses,
            other => vec![other],
        };
        for member in members {
            if let Response::ReplAck { req_id, .. } = member {
                if peer.unacked.borrow_mut().remove(&req_id).is_some() {
                    self.stats.borrow_mut().repl_acked += 1;
                }
            }
        }
    }

    /// Accept a client connection; spawns the per-connection receive task.
    pub fn accept(self: &Rc<Self>, transport: Transport) {
        let (tx, rx) = transport.split();
        let server = Rc::clone(self);
        self.sim.spawn(async move {
            while let Some(msg) = rx.recv().await {
                server.handle_message(msg, &tx).await;
            }
        });
    }

    async fn handle_message(self: &Rc<Self>, msg: Bytes, tx: &TransportTx) {
        if self.closed.get() {
            return; // crashed node: the request vanishes
        }
        let req = match Request::decode(&msg) {
            Ok(r) => r,
            Err(_) => {
                self.stats.borrow_mut().proto_errors += 1;
                return;
            }
        };
        let recv_at = self.sim.now();
        let overlapped = self.store.flushes_in_flight() > 0;
        if let Request::Batch { req_id, ops, .. } = req {
            {
                let n = ops.len() as u64;
                let mut st = self.stats.borrow_mut();
                st.requests += n;
                st.batches += 1;
                st.batch_ops += n;
                if overlapped {
                    st.recv_during_flush += n;
                }
            }
            self.handle_batch(req_id, ops, tx, recv_at, overlapped)
                .await;
            return;
        }
        self.stats.borrow_mut().requests += 1;
        if overlapped {
            self.stats.borrow_mut().recv_during_flush += 1;
        }

        if self.cfg.pipeline && req.flavor().is_nonblocking() {
            // Network phase only: parse + stage, then the dispatcher is free.
            {
                let _d = self.dispatcher.acquire().await;
                self.charge_dispatch().await;
            }
            let slot = self.staging_slots.acquire().await;
            let stamps = PhaseStamps {
                recv_at,
                comm_done_at: self.sim.now(),
                overlapped,
            };
            self.staging_q.borrow_mut().push_back(Staged {
                req,
                sink: RespSink::Direct(tx.clone()),
                slot,
                stamps,
            });
            self.staging_items.add_permits(1);
            self.stats.borrow_mut().staged += 1;
        } else {
            // Single-threaded server: hold the dispatcher through the whole
            // memory/SSD phase.
            let _d = self.dispatcher.acquire().await;
            self.charge_dispatch().await;
            self.stats.borrow_mut().inline_handled += 1;
            let stamps = PhaseStamps {
                recv_at,
                comm_done_at: self.sim.now(),
                overlapped,
            };
            let resp = self.process(req, tx.profile(), stamps).await;
            self.send_response(tx, resp).await;
        }
    }

    /// Fan a batch frame's member ops into the request pipeline. The
    /// frame pays the dispatcher (network phase) *once* — the server half
    /// of the doorbell win. Pipelined members stage individually so they
    /// interleave with other traffic in the worker pool; their responses
    /// coalesce back into batch frames per completion wave. On the inline
    /// path the members run sequentially under the dispatcher and answer
    /// as one frame.
    async fn handle_batch(
        self: &Rc<Self>,
        frame_id: u64,
        ops: Vec<Request>,
        tx: &TransportTx,
        recv_at: nbkv_simrt::SimTime,
        overlapped: bool,
    ) {
        let n = ops.len();
        let pipelined = self.cfg.pipeline && ops.iter().all(|op| op.flavor().is_nonblocking());
        if pipelined {
            {
                let _d = self.dispatcher.acquire().await;
                self.charge_dispatch().await;
            }
            let stamps = PhaseStamps {
                recv_at,
                comm_done_at: self.sim.now(),
                overlapped,
            };
            let asm = BatchAssembler::new(frame_id, tx.clone(), n, self.cfg.workers.max(1));
            for op in ops {
                let slot = self.staging_slots.acquire().await;
                self.staging_q.borrow_mut().push_back(Staged {
                    req: op,
                    sink: RespSink::Batch(Rc::clone(&asm)),
                    slot,
                    stamps,
                });
                self.staging_items.add_permits(1);
                self.stats.borrow_mut().staged += 1;
            }
        } else {
            let _d = self.dispatcher.acquire().await;
            self.charge_dispatch().await;
            self.stats.borrow_mut().inline_handled += n as u64;
            let stamps = PhaseStamps {
                recv_at,
                comm_done_at: self.sim.now(),
                overlapped,
            };
            let mut responses = Vec::with_capacity(n);
            for op in ops {
                responses.push(self.process(op, tx.profile(), stamps).await);
            }
            let resp = Response::batch(frame_id, responses).expect("decoded batches are non-empty");
            self.send_response(tx, resp).await;
        }
    }

    async fn worker_loop(self: Rc<Self>) {
        loop {
            self.staging_items.acquire().await.forget();
            let staged = self
                .staging_q
                .borrow_mut()
                .pop_front()
                .expect("staging item permit implies a queued request");
            let resp = self
                .process(staged.req, staged.sink.profile(), staged.stamps)
                .await;
            drop(staged.slot); // free the staging slot before the send
            match staged.sink {
                RespSink::Direct(tx) => self.send_response(&tx, resp).await,
                RespSink::Batch(asm) => {
                    if let Some(frame) = asm.push(resp) {
                        self.send_response(&asm.tx, frame).await;
                    }
                }
            }
        }
    }

    async fn charge_dispatch(&self) {
        let d = self.cfg.store.costs.dispatch;
        if !d.is_zero() {
            self.sim.sleep(d).await;
        }
    }

    async fn send_response(&self, tx: &TransportTx, resp: Response) {
        if tx.send(resp.encode()).await.is_ok() {
            self.stats.borrow_mut().responses += 1;
        }
    }

    /// Run the memory/SSD phase and build the response (with the
    /// response-stage estimate and lifecycle stamps filled in).
    async fn process(
        &self,
        req: Request,
        profile: &FabricProfile,
        stamps: PhaseStamps,
    ) -> Response {
        match req {
            Request::Set {
                req_id,
                mode,
                flags,
                expire_at_ns,
                key,
                value,
                ..
            } => {
                let out = self
                    .store
                    .set_with_mode(mode, key, value, flags, expire_at_ns)
                    .await;
                Response::Set {
                    req_id,
                    status: out.status,
                    stages: self.finish_stages(out, profile, 0, stamps),
                }
            }
            Request::Get { req_id, key, .. } => {
                let out = self.store.get(&key).await;
                let value_len = out.value.as_ref().map_or(0, |v| v.len());
                let flags = out.flags;
                let cas = out.cas;
                let value = out.value.clone();
                Response::Get {
                    req_id,
                    status: out.status,
                    stages: self.finish_stages(out, profile, value_len, stamps),
                    flags,
                    cas,
                    value,
                }
            }
            Request::Delete { req_id, key, .. } => {
                let out = self.store.delete(&key).await;
                Response::Delete {
                    req_id,
                    status: out.status,
                    stages: self.finish_stages(out, profile, 0, stamps),
                }
            }
            Request::Counter {
                req_id,
                key,
                delta,
                negative,
                ..
            } => {
                let out = self.store.counter(&key, delta, negative).await;
                let counter = out.counter;
                Response::Counter {
                    req_id,
                    status: out.status,
                    stages: self.finish_stages(out, profile, 8, stamps),
                    value: counter,
                }
            }
            Request::Touch {
                req_id,
                key,
                expire_at_ns,
                ..
            } => {
                let out = self.store.touch(&key, expire_at_ns).await;
                Response::Set {
                    req_id,
                    status: out.status,
                    stages: self.finish_stages(out, profile, 0, stamps),
                }
            }
            Request::Replicate {
                req_id,
                seq,
                delete,
                flags,
                expire_at_ns,
                key,
                value,
                ..
            } => {
                let out = self
                    .store
                    .apply_replicated(key, value, delete, flags, expire_at_ns, seq)
                    .await;
                let status = out.status;
                Response::ReplAck {
                    req_id,
                    status,
                    stages: self.finish_stages(out, profile, 0, stamps),
                    seq,
                }
            }
            // Batches are fanned out in `handle_batch` before `process`,
            // and nested batches cannot decode; answer defensively
            // instead of panicking the sim.
            Request::Batch { req_id, .. } => {
                let out = OpOutcome {
                    status: crate::proto::OpStatus::Error,
                    value: None,
                    flags: 0,
                    cas: 0,
                    counter: 0,
                    stages: StageTimes::default(),
                };
                Response::Set {
                    req_id,
                    status: crate::proto::OpStatus::Error,
                    stages: self.finish_stages(out, profile, 0, stamps),
                }
            }
            Request::WindowLease { req_id, .. } => {
                // Lease handshake for the one-sided read path: advertise
                // the window geometry (or Miss when no window exists).
                let out = OpOutcome {
                    status: crate::proto::OpStatus::Hit,
                    value: None,
                    flags: 0,
                    cas: 0,
                    counter: 0,
                    stages: StageTimes::default(),
                };
                match self.store.onesided() {
                    Some(idx) => {
                        let lease = idx.lease().encode();
                        let len = lease.len();
                        Response::Get {
                            req_id,
                            status: crate::proto::OpStatus::Hit,
                            stages: self.finish_stages(out, profile, len, stamps),
                            flags: 0,
                            cas: 0,
                            value: Some(lease),
                        }
                    }
                    None => Response::Get {
                        req_id,
                        status: crate::proto::OpStatus::Miss,
                        stages: self.finish_stages(out, profile, 0, stamps),
                        flags: 0,
                        cas: 0,
                        value: None,
                    },
                }
            }
            Request::Stats { req_id, .. } => {
                let payload = self.snapshot().encode();
                let len = payload.len();
                let out = crate::server::store::OpOutcome {
                    status: crate::proto::OpStatus::Hit,
                    value: None,
                    flags: 0,
                    cas: 0,
                    counter: 0,
                    stages: StageTimes::default(),
                };
                Response::Get {
                    req_id,
                    status: crate::proto::OpStatus::Hit,
                    stages: self.finish_stages(out, profile, len, stamps),
                    flags: 0,
                    cas: 0,
                    value: Some(payload),
                }
            }
        }
    }

    /// Fill `stages.response_ns` with the predicted cost of transmitting
    /// the response (descriptor post + one-way link latency) and stamp the
    /// lifecycle fields. Called synchronously right after the store
    /// operation finishes, so "now" is the store-done instant.
    fn finish_stages(
        &self,
        out: OpOutcome,
        profile: &FabricProfile,
        value_len: usize,
        stamps: PhaseStamps,
    ) -> StageTimes {
        let resp_len = 89 + value_len + FRAME_OVERHEAD;
        let est =
            profile.per_message_cpu + profile.copy_cost(resp_len) + profile.link.one_way(resp_len);
        let mut stages = out.stages;
        stages.response_ns = est.as_nanos() as u64;
        stages.server_recv_at_ns = stamps.recv_at.as_nanos();
        stages.comm_done_at_ns = stamps.comm_done_at.as_nanos();
        stages.store_done_at_ns = self.sim.now().as_nanos();
        stages.overlapped_flush = stamps.overlapped;
        // Dispatch-load hint for the client's adaptive RPC/direct-read
        // policy: how deep the staging queue was when this response left.
        stages.queue_depth = self.staging_q.borrow().len() as u32;
        stages
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientConfig};
    use crate::costs::CpuCosts;
    use crate::proto::OpStatus;
    use bytes::Bytes;
    use nbkv_fabric::{profiles, Fabric};
    use nbkv_storesim::{instant_device, HostModel, SlabIoConfig, SsdDevice};
    use std::time::Duration;

    /// One server + one client over a real (fdr-rdma) fabric.
    fn rig(sim: &Sim, cfg: ServerConfig) -> (Rc<Server>, Rc<Client>) {
        let fabric = Fabric::new(sim, profiles::fdr_rdma());
        let ssd = match cfg.store.kind {
            crate::server::StoreKind::Hybrid => {
                let dev = SsdDevice::new(sim, instant_device());
                Some(SlabIo::new(
                    sim,
                    dev,
                    SlabIoConfig::default_for_tests(HostModel::zero()),
                ))
            }
            _ => None,
        };
        let server = Server::new(sim, cfg, ssd);
        let (client_side, server_side) = fabric.connect();
        server.accept(server_side);
        let client = Client::new(sim, vec![client_side], ClientConfig::default());
        (server, client)
    }

    /// A payload of the distinct words 1, 2, …, 37 decodes and re-encodes
    /// to itself, so encode and decode agree on every field's position;
    /// each struct's first and last field pin where its words start and
    /// end.
    #[test]
    fn stats_snapshot_round_trips_distinct_words() {
        let wire: Vec<u8> = (1..=37u64).flat_map(u64::to_be_bytes).collect();
        assert_eq!(wire.len(), StatsSnapshot::WIRE_LEN);
        let snap = StatsSnapshot::decode(&wire).expect("exact length");
        assert_eq!(&snap.encode()[..], &wire[..]);
        let s = (snap.server, snap.store, snap.slab);
        assert_eq!((s.0.requests, s.0.repl_retrans), (1, 11));
        assert_eq!((s.1.sets, s.1.repl_stale_drops), (12, 33));
        assert_eq!((s.2.pages_in_use, s.2.live_items), (34, 37));
    }

    fn mem_cfg() -> ServerConfig {
        ServerConfig::basic(StoreConfig {
            costs: CpuCosts::zero(),
            ..StoreConfig::memory_only(8 << 20)
        })
    }

    fn hybrid_pipelined_cfg() -> ServerConfig {
        ServerConfig::pipelined(StoreConfig {
            costs: CpuCosts::zero(),
            ..StoreConfig::hybrid(8 << 20, 1 << 30)
        })
    }

    #[test]
    fn blocking_set_get_delete_end_to_end() {
        let sim = Sim::new();
        let (server, client) = rig(&sim, mem_cfg());
        sim.run_until(async move {
            let s = client
                .set(
                    Bytes::from_static(b"alpha"),
                    Bytes::from(vec![7u8; 500]),
                    3,
                    None,
                )
                .await
                .unwrap();
            assert_eq!(s.status, OpStatus::Stored);
            assert!(s.latency_ns() > 0, "RDMA round trip takes time");

            let g = client.get(Bytes::from_static(b"alpha")).await.unwrap();
            assert_eq!(g.status, OpStatus::Hit);
            assert_eq!(g.flags, 3);
            assert_eq!(g.value.unwrap(), Bytes::from(vec![7u8; 500]));

            let d = client.delete(Bytes::from_static(b"alpha")).await.unwrap();
            assert_eq!(d.status, OpStatus::Deleted);
            let miss = client.get(Bytes::from_static(b"alpha")).await.unwrap();
            assert_eq!(miss.status, OpStatus::Miss);

            let st = server.stats();
            assert_eq!(st.requests, 4);
            assert_eq!(st.inline_handled, 4, "blocking ops run inline");
            assert_eq!(st.staged, 0);
        });
    }

    #[test]
    fn nonblocking_batch_pipelines_through_workers() {
        let sim = Sim::new();
        let (server, client) = rig(&sim, hybrid_pipelined_cfg());
        sim.run_until(async move {
            let mut handles = Vec::new();
            for i in 0..50 {
                let key = Bytes::from(format!("k{i:03}"));
                let value = Bytes::from(vec![i as u8; 4096]);
                handles.push(client.iset(key, value, 0, None).await.unwrap());
            }
            let done = client.wait_all(&handles).await;
            assert!(done.iter().all(|c| c.status == OpStatus::Stored));
            let st = server.stats();
            assert_eq!(st.staged, 50, "iset requests go through staging");
            assert_eq!(st.inline_handled, 0);
        });
    }

    #[test]
    fn iset_returns_before_completion() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let (_server, client) = rig(&sim, hybrid_pipelined_cfg());
        sim.run_until(async move {
            let t0 = sim2.now();
            let h = client
                .iset(
                    Bytes::from_static(b"k"),
                    Bytes::from(vec![1u8; 256 << 10]),
                    0,
                    None,
                )
                .await
                .unwrap();
            let issue_time = sim2.now() - t0;
            // Issue cost is sub-microsecond-ish (descriptor post +
            // registration); far less than the 256 KiB transfer.
            assert!(
                issue_time < Duration::from_millis(1),
                "issue took {issue_time:?}"
            );
            assert!(!h.is_done(), "completion must be asynchronous");
            assert!(h.test().is_none());
            let c = h.wait().await;
            assert_eq!(c.status, OpStatus::Stored);
            assert!(h.test().is_some(), "test sees completion after wait");
        });
    }

    #[test]
    fn bset_waits_for_local_send_completion() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let (_server, client) = rig(&sim, hybrid_pipelined_cfg());
        sim.run_until(async move {
            // Warm the registration cache so timing isolates the send wait.
            let value = Bytes::from(vec![1u8; 1 << 20]);
            let key = Bytes::from_static(b"warm");
            client
                .iset(key.clone(), value.clone(), 0, None)
                .await
                .unwrap()
                .wait()
                .await;

            let t0 = sim2.now();
            let h_i = client
                .iset(key.clone(), value.clone(), 0, None)
                .await
                .unwrap();
            let i_issue = sim2.now() - t0;

            let t1 = sim2.now();
            let h_b = client
                .bset(key.clone(), value.clone(), 0, None)
                .await
                .unwrap();
            let b_issue = sim2.now() - t1;

            // bset must wait out the ~1MB serialization; iset must not.
            assert!(
                b_issue > i_issue * 5,
                "bset {b_issue:?} should dwarf iset {i_issue:?}"
            );
            h_i.wait().await;
            h_b.wait().await;
        });
    }

    #[test]
    fn staging_backpressure_still_completes_everything() {
        let sim = Sim::new();
        let mut cfg = hybrid_pipelined_cfg();
        cfg.staging_capacity = 2;
        cfg.workers = 1;
        let (server, client) = rig(&sim, cfg);
        sim.run_until(async move {
            let mut handles = Vec::new();
            for i in 0..30 {
                let key = Bytes::from(format!("bp{i:02}"));
                handles.push(
                    client
                        .iset(key, Bytes::from(vec![1u8; 1024]), 0, None)
                        .await
                        .unwrap(),
                );
            }
            let done = client.wait_all(&handles).await;
            assert_eq!(done.len(), 30);
            assert!(done.iter().all(|c| c.status == OpStatus::Stored));
            assert_eq!(server.stats().responses, 30);
        });
    }

    #[test]
    fn undecodable_messages_are_counted_and_dropped() {
        let sim = Sim::new();
        let fabric = Fabric::new(&sim, profiles::fdr_rdma());
        let server = Server::new(&sim, mem_cfg(), None);
        let (client_side, server_side) = fabric.connect();
        server.accept(server_side);
        let (client_tx, _client_rx) = client_side.split();
        let sim2 = sim.clone();
        sim.run_until(async move {
            client_tx
                .send(Bytes::from_static(&[255, 1, 2, 3]))
                .await
                .unwrap();
            sim2.sleep(Duration::from_millis(1)).await;
            assert_eq!(server.stats().proto_errors, 1);
            assert_eq!(server.stats().responses, 0);
        });
    }

    #[test]
    fn pipelined_server_still_handles_blocking_inline() {
        let sim = Sim::new();
        let (server, client) = rig(&sim, hybrid_pipelined_cfg());
        sim.run_until(async move {
            client
                .set(Bytes::from_static(b"x"), Bytes::from_static(b"y"), 0, None)
                .await
                .unwrap();
            let st = server.stats();
            assert_eq!(st.inline_handled, 1);
            assert_eq!(st.staged, 0);
        });
    }

    #[test]
    fn window_limits_outstanding_requests() {
        let sim = Sim::new();
        let ccfg = ClientConfig {
            max_outstanding: 4,
            ..ClientConfig::default()
        };
        let fabric = Fabric::new(&sim, profiles::fdr_rdma());
        let server = Server::new(&sim, hybrid_pipelined_cfg(), {
            let dev = SsdDevice::new(&sim, instant_device());
            Some(SlabIo::new(
                &sim,
                dev,
                SlabIoConfig::default_for_tests(HostModel::zero()),
            ))
        });
        let (client_side, server_side) = fabric.connect();
        server.accept(server_side);
        let client = Client::new(&sim, vec![client_side], ccfg);
        sim.run_until(async move {
            let mut handles = Vec::new();
            for i in 0..16 {
                let h = client
                    .iset(
                        Bytes::from(format!("w{i}")),
                        Bytes::from(vec![0u8; 64]),
                        0,
                        None,
                    )
                    .await
                    .unwrap();
                assert!(client.outstanding() <= 4, "window must cap in-flight");
                handles.push(h);
            }
            client.wait_all(&handles).await;
            assert_eq!(client.stats().completed, 16);
        });
    }

    #[test]
    fn lifecycle_stamps_are_monotone_and_sum_to_e2e() {
        let sim = Sim::new();
        let (_server, client) = rig(&sim, hybrid_pipelined_cfg());
        sim.run_until(async move {
            let s = client
                .set(
                    Bytes::from_static(b"tl"),
                    Bytes::from(vec![5u8; 8 << 10]),
                    0,
                    None,
                )
                .await
                .unwrap();
            let tl = s.timeline().expect("server stamps the response");
            assert!(tl.is_monotone());
            let p = tl.phases().unwrap();
            assert_eq!(
                p.total_ns(),
                s.latency_ns(),
                "phases must sum exactly to end-to-end latency"
            );
            assert!(p.comm_in_ns > 0, "request flight takes virtual time");
            assert!(p.comm_out_ns > 0, "response flight takes virtual time");

            let g = client.get(Bytes::from_static(b"tl")).await.unwrap();
            let tl = g.timeline().expect("get timeline");
            assert_eq!(tl.phases().unwrap().total_ns(), g.latency_ns());
            assert!(tl.nic_out_ns > tl.issued_ns, "NIC-out follows issue");

            // Staged (non-blocking) path carries stamps through the worker
            // pool too; the staging wait lands in the store phase.
            let h = client
                .iset(
                    Bytes::from_static(b"tl2"),
                    Bytes::from(vec![6u8; 8 << 10]),
                    0,
                    None,
                )
                .await
                .unwrap();
            let c = h.wait().await;
            let tl = c.timeline().expect("staged timeline");
            assert_eq!(tl.phases().unwrap().total_ns(), c.latency_ns());
        });
    }

    #[test]
    fn registration_cache_amortizes_across_reused_buffers() {
        let sim = Sim::new();
        let (_server, client) = rig(&sim, hybrid_pipelined_cfg());
        sim.run_until(async move {
            let value = Bytes::from(vec![1u8; 32 << 10]);
            let mut handles = Vec::new();
            for i in 0..20 {
                let key = Bytes::from(format!("r{i:02}"));
                handles.push(client.iset(key, value.clone(), 0, None).await.unwrap());
            }
            client.wait_all(&handles).await;
            let mr = client.mr_stats();
            // The shared value buffer registers once and then always hits.
            // Key buffers are fresh allocations, but like a real
            // registration cache (which keys on address ranges), the cache
            // may report hits when the allocator reuses an address.
            assert!(mr.misses >= 1 && mr.misses <= 21, "{mr:?}");
            assert!(mr.hits >= 19, "{mr:?}");
        });
    }
}
