//! Server request handling.
//!
//! Every request frame takes one path: it decodes into its requests (one
//! for a plain request, the members of a doorbell batch frame), takes a
//! dispatcher permit and pays the dispatch charge once, then runs its
//! requests in one of two execution modes, matching Section V-B1 of the
//! paper:
//!
//! - **Inline** (blocking API requests, and everything on servers
//!   without the pipeline enhancement): the frame keeps its dispatcher
//!   permit — one of RDMA-Memcached's few request threads — through the
//!   memory/SSD phase of every request and its last reply, so a slow slab
//!   flush stalls the requests queued behind it.
//! - **Pipelined** (non-blocking API requests on enhanced servers): the
//!   dispatcher only parses the frame, then each request takes a slot in
//!   a bounded staging queue, and a pool of worker tasks runs the
//!   memory/SSD phase asynchronously — the "decoupled communication and
//!   memory phases" design that lets expensive hybrid-memory eviction
//!   overlap with request arrival.
//!
//! Both modes answer through one `Reply` per frame: a plain request's
//! response goes straight back, a batch frame's members coalesce into
//! batch response frames.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::time::Duration;

use bytes::{BufMut, Bytes, BytesMut};
use nbkv_fabric::{Frame, Transport, TransportRx, TransportTx};
use nbkv_simrt::{Semaphore, Sim, SimTime, TaskGroup};
use nbkv_storesim::SlabIo;

use crate::client::Ring;
use crate::proto::{ApiFlavor, OpStatus, Request, Response, StageTimes};
use crate::server::slab::SlabStats;
use crate::server::store::{HybridStore, ReplUpdate, StoreConfig, StoreStats};

/// Worker tasks servicing a pipelined server's staging queue.
const WORKERS: usize = 4;
/// Staging-queue slots: a pipelined frame's requests wait for one each
/// (back-pressure on clients).
const STAGING_CAPACITY: usize = 64;
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
    reply: Rc<Reply>,
    slot: nbkv_simrt::Permit,
    stamps: PhaseStamps,
}

/// Where the responses of one request frame go. A plain request's
/// response goes straight back. A batch frame's members coalesce into
/// response frames, one per *completion wave* of up to `wave_size`
/// members: responses amortize the same per-message overhead the request
/// side saved, while a straggler op (e.g. an SSD read) cannot hold back
/// members that already finished — the wave that is full ships without
/// it.
struct Reply {
    tx: TransportTx,
    /// The batch frame's id; `None` for a plain request.
    frame_id: Option<u64>,
    remaining: Cell<usize>,
    wave: RefCell<Vec<Response>>,
    wave_size: usize,
}

impl Reply {
    fn new(tx: &TransportTx, frame_id: Option<u64>, members: usize, wave_size: usize) -> Self {
        Reply {
            tx: tx.clone(),
            frame_id,
            remaining: Cell::new(members),
            wave: RefCell::new(Vec::new()),
            wave_size,
        }
    }

    /// Record one completed request; returns the frame to send, if any:
    /// the response itself for a plain request, a coalesced batch frame
    /// when a wave fills or the last member lands.
    fn push(&self, resp: Response) -> Option<Response> {
        let Some(frame_id) = self.frame_id else {
            return Some(resp);
        };
        self.wave.borrow_mut().push(resp);
        let left = self.remaining.get() - 1;
        self.remaining.set(left);
        if left == 0 || self.wave.borrow().len() >= self.wave_size {
            let wave = std::mem::take(&mut *self.wave.borrow_mut());
            Some(Response::batch(frame_id, wave).expect("wave holds at least one response"))
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
    /// When the communication phase finished: the request holds its
    /// staging slot (pipelined), or the frame's dispatch charge is paid
    /// (inline).
    comm_done_at: nbkv_simrt::SimTime,
    /// True if a slab flush was in flight at receive time.
    overlapped: bool,
}

/// Outbound replication state toward one peer replica: a coalescing queue
/// of `Request::Replicate` ops plus the retransmission window of ops the
/// peer has not acknowledged yet.
struct ReplPeer {
    tx: TransportTx,
    /// The peer's acks for this link.
    rx: TransportRx,
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

/// One accepted connection: requests come in on `rx`, responses go out on
/// `tx`.
struct Conn {
    tx: TransportTx,
    rx: TransportRx,
}

/// One life of the server process: its tasks, and the staged requests they
/// share. A crash or [`Server::close`] cancels the tasks and drops the
/// queue; [`Server::restart`] starts a new incarnation.
struct Incarnation {
    group: TaskGroup,
    staging_q: RefCell<VecDeque<Staged>>,
    staging_items: Semaphore,
    staging_slots: Semaphore,
}

/// A running server node.
pub struct Server {
    sim: Sim,
    cfg: ServerConfig,
    store: Rc<HybridStore>,
    /// The server request threads (inline path concurrency).
    dispatcher: Semaphore,
    stats: RefCell<ServerStats>,
    /// The live incarnation; `None` while the node is down.
    life: RefCell<Option<Rc<Incarnation>>>,
    /// Every accepted connection; each incarnation serves them all.
    conns: RefCell<Vec<Rc<Conn>>>,
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
            stats: RefCell::new(ServerStats::default()),
            life: RefCell::new(None),
            conns: RefCell::new(Vec::new()),
            repl: RefCell::new(None),
        });
        server.start();
        server
    }

    /// Start a new incarnation: the worker pool (when pipelined), one
    /// receive loop per connection, and each replication peer's ack and
    /// retransmit loops, all in one task group.
    fn start(self: &Rc<Self>) {
        let inc = Rc::new(Incarnation {
            group: self.sim.group(),
            staging_q: RefCell::new(VecDeque::new()),
            staging_items: Semaphore::new(0),
            staging_slots: Semaphore::new(STAGING_CAPACITY),
        });
        *self.life.borrow_mut() = Some(Rc::clone(&inc));
        if self.cfg.pipeline {
            for _ in 0..WORKERS {
                let (s, own) = (Rc::clone(self), Rc::clone(&inc));
                self.sim
                    .spawn_in(&inc.group, async move { s.worker_loop(&own).await });
            }
        }
        for conn in self.conns.borrow().iter() {
            self.serve(&inc, conn);
        }
        if let Some(engine) = self.repl.borrow().as_ref() {
            for peer in engine.peers.values() {
                self.run_peer(&inc, peer);
            }
        }
    }

    /// The live incarnation; `None` while the node is down.
    fn live(&self) -> Option<Rc<Incarnation>> {
        self.life.borrow().clone()
    }

    /// Spawn the receive loop of `conn` into `inc`.
    fn serve(self: &Rc<Self>, inc: &Rc<Incarnation>, conn: &Rc<Conn>) {
        let (server, own, conn) = (Rc::clone(self), Rc::clone(inc), Rc::clone(conn));
        self.sim.spawn_in(&inc.group, async move {
            while let Some(msg) = conn.rx.recv().await {
                server.handle_message(&own, msg, &conn.tx).await;
            }
        });
    }

    /// Spawn `peer`'s ack receiver and retransmit loop into `inc`.
    fn run_peer(self: &Rc<Self>, inc: &Incarnation, peer: &Rc<ReplPeer>) {
        // Ack receiver: drains ReplAck frames coming back on this link.
        let weak = Rc::downgrade(self);
        let p = Rc::clone(peer);
        self.sim.spawn_in(&inc.group, async move {
            while let Some(msg) = p.rx.recv().await {
                let Some(server) = weak.upgrade() else { break };
                server.handle_repl_ack(&p, &msg);
            }
        });
        // Retransmit loop: resend ops the replica has not acked.
        let weak = Rc::downgrade(self);
        let p = Rc::clone(peer);
        let sim = self.sim.clone();
        self.sim.spawn_in(&inc.group, async move {
            loop {
                sim.sleep(REPL_RETRANSMIT_EVERY).await;
                let Some(server) = weak.upgrade() else { break };
                server.retransmit_unacked(&p).await;
            }
        });
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

    /// Simulate a hung node: every task of the live incarnation ends at
    /// this instant (an inline request mid-store, a staged request, a
    /// worker, a replication flush), and the staged requests are dropped,
    /// so nothing more is answered or sent. RAM state is kept. Requests
    /// keep arriving and queue unread, like a dead node whose fabric
    /// address still resolves; clients should use
    /// [`crate::ReqHandle::wait_timeout`].
    pub fn close(&self) {
        let life = self.life.borrow_mut().take();
        if let Some(inc) = life {
            inc.group.cancel();
        }
    }

    /// True while the node has no live incarnation: after
    /// [`close`](Self::close) or [`crash`](Self::crash), until
    /// [`restart`](Self::restart) returns.
    pub fn is_closed(&self) -> bool {
        self.life.borrow().is_none()
    }

    /// Simulate a power-loss crash: [`close`](Self::close), then lose all
    /// RAM state (slab pool, hash index, outbound replication queues).
    /// SSD extents survive, and so does the OS page cache with its
    /// writeback; a later [`restart`](Self::restart) rebuilds the index
    /// from the extents.
    pub fn crash(&self) {
        self.close();
        // Un-flushed and unacked replication ops die with the node. Writes
        // the crashed node had acked but not yet replicated are rewritten
        // by clients after failover.
        if let Some(engine) = self.repl.borrow().as_ref() {
            for peer in engine.peers.values() {
                peer.queue.borrow_mut().clear();
                peer.unacked.borrow_mut().clear();
                peer.flush_pending.set(false);
            }
        }
        self.store.crash();
    }

    /// Warm restart after [`crash`](Self::crash): scan the surviving SSD
    /// extents to rebuild the RAM index (charging full device read costs
    /// in virtual time), drop the frames that queued on every connection
    /// while the node was down (a dead node's requests vanish), then start
    /// a new incarnation that serves requests again.
    pub async fn restart(self: &Rc<Self>) -> crate::server::RecoveryReport {
        let report = self.store.recover().await;
        for conn in self.conns.borrow().iter() {
            conn.rx.discard_queued();
        }
        if let Some(engine) = self.repl.borrow().as_ref() {
            for peer in engine.peers.values() {
                peer.rx.discard_queued();
            }
        }
        self.start();
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
        let live = self.live();
        for (id, transport) in peers {
            let (tx, rx) = transport.split();
            let peer = Rc::new(ReplPeer {
                tx,
                rx,
                queue: RefCell::new(Vec::new()),
                flush_pending: Cell::new(false),
                unacked: RefCell::new(BTreeMap::new()),
            });
            map.insert(id, Rc::clone(&peer));
            if let Some(inc) = &live {
                self.run_peer(inc, &peer);
            }
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
        let (Some(engine), Some(inc)) = (self.repl.borrow().clone(), self.live()) else {
            return;
        };
        let mut targets = Vec::new();
        engine
            .ring
            .select_replicas(&update.key, engine.rf, &mut targets);
        for target in targets {
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
            self.schedule_repl_flush(&inc, &engine, peer);
        }
    }

    /// Ship the peer's queue now if a full doorbell's worth of ops is
    /// waiting, otherwise arm the deadline flush.
    fn schedule_repl_flush(
        self: &Rc<Self>,
        inc: &Incarnation,
        engine: &Rc<ReplEngine>,
        peer: &Rc<ReplPeer>,
    ) {
        if peer.queue.borrow().len() >= REPL_BATCH_OPS {
            let server = Rc::clone(self);
            let engine = Rc::clone(engine);
            let p = Rc::clone(peer);
            self.sim.spawn_in(&inc.group, async move {
                server.flush_repl_queue(&engine, &p).await
            });
        } else if !peer.flush_pending.get() {
            peer.flush_pending.set(true);
            let server = Rc::clone(self);
            let engine = Rc::clone(engine);
            let p = Rc::clone(peer);
            let sim = self.sim.clone();
            self.sim.spawn_in(&inc.group, async move {
                sim.sleep(REPL_FLUSH_DELAY).await;
                p.flush_pending.set(false);
                server.flush_repl_queue(&engine, &p).await;
            });
        }
    }

    async fn flush_repl_queue(&self, engine: &ReplEngine, peer: &ReplPeer) {
        let ops = std::mem::take(&mut *peer.queue.borrow_mut());
        if ops.is_empty() {
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
    fn handle_repl_ack(&self, peer: &ReplPeer, msg: &Frame) {
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

    /// Accept a client connection; every incarnation serves it with one
    /// receive task, from now on if the node is up.
    pub fn accept(self: &Rc<Self>, transport: Transport) {
        let (tx, rx) = transport.split();
        let conn = Rc::new(Conn { tx, rx });
        self.conns.borrow_mut().push(Rc::clone(&conn));
        if let Some(inc) = self.live() {
            self.serve(&inc, &conn);
        }
    }

    async fn handle_message(self: &Rc<Self>, inc: &Incarnation, msg: Frame, tx: &TransportTx) {
        let (frame_id, reqs) = match Request::decode(&msg) {
            Ok(Request::Batch { req_id, ops, .. }) => (Some(req_id), ops),
            Ok(req) => (None, vec![req]),
            Err(_) => {
                self.stats.borrow_mut().proto_errors += 1;
                return;
            }
        };
        let recv_at = self.sim.now();
        let overlapped = self.store.flushes_in_flight() > 0;
        let n = reqs.len();
        {
            let mut st = self.stats.borrow_mut();
            st.requests += n as u64;
            if frame_id.is_some() {
                st.batches += 1;
                st.batch_ops += n as u64;
            }
            if overlapped {
                st.recv_during_flush += n as u64;
            }
        }
        let stamps = || PhaseStamps {
            recv_at,
            comm_done_at: self.sim.now(),
            overlapped,
        };
        // The frame pays the dispatcher (network phase) once — for a
        // batch frame, the server half of the doorbell win.
        let dispatcher = self.dispatcher.acquire().await;
        self.charge_dispatch().await;
        if self.cfg.pipeline && reqs.iter().all(|r| r.flavor().is_nonblocking()) {
            // Parse + stage only: the dispatcher is free, and each request
            // interleaves with other traffic in the worker pool.
            drop(dispatcher);
            let reply = Rc::new(Reply::new(tx, frame_id, n, WORKERS));
            for req in reqs {
                let slot = inc.staging_slots.acquire().await;
                inc.staging_q.borrow_mut().push_back(Staged {
                    req,
                    reply: Rc::clone(&reply),
                    slot,
                    stamps: stamps(),
                });
                inc.staging_items.add_permits(1);
                self.stats.borrow_mut().staged += 1;
            }
        } else {
            // Hold the dispatcher through every request's memory/SSD
            // phase and the last reply; a batch frame answers as one frame.
            self.stats.borrow_mut().inline_handled += n as u64;
            let stamps = stamps();
            let reply = Reply::new(tx, frame_id, n, n);
            for req in reqs {
                let resp = self.process(req, stamps).await;
                self.reply(&reply, resp).await;
            }
        }
    }

    async fn worker_loop(&self, inc: &Incarnation) {
        loop {
            inc.staging_items.acquire().await.forget();
            let staged = inc
                .staging_q
                .borrow_mut()
                .pop_front()
                .expect("staging item permit implies a queued request");
            let resp = self.process(staged.req, staged.stamps).await;
            drop(staged.slot); // free the staging slot before the send
            self.reply(&staged.reply, resp).await;
        }
    }

    async fn charge_dispatch(&self) {
        let d = self.cfg.store.costs.dispatch;
        if !d.is_zero() {
            self.sim.sleep(d).await;
        }
    }

    /// Hand one completed request to its frame's reply and send whatever
    /// frame that completes.
    async fn reply(&self, reply: &Reply, resp: Response) {
        let Some(frame) = reply.push(resp) else {
            return;
        };
        if reply.tx.send(frame.encode()).await.is_ok() {
            self.stats.borrow_mut().responses += 1;
        }
    }

    /// Run the memory/SSD phase and build the response (with the
    /// lifecycle stamps filled in).
    async fn process(&self, req: Request, stamps: PhaseStamps) -> Response {
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
                    stages: self.finish_stages(out.stages, stamps),
                }
            }
            Request::Get { req_id, key, .. } => {
                let out = self.store.get(&key).await;
                Response::Get {
                    req_id,
                    status: out.status,
                    stages: self.finish_stages(out.stages, stamps),
                    flags: out.flags,
                    cas: out.cas,
                    value: out.value,
                }
            }
            Request::Delete { req_id, key, .. } => {
                let out = self.store.delete(&key).await;
                Response::Delete {
                    req_id,
                    status: out.status,
                    stages: self.finish_stages(out.stages, stamps),
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
                Response::Counter {
                    req_id,
                    status: out.status,
                    stages: self.finish_stages(out.stages, stamps),
                    value: out.counter,
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
                    stages: self.finish_stages(out.stages, stamps),
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
                Response::ReplAck {
                    req_id,
                    status: out.status,
                    stages: self.finish_stages(out.stages, stamps),
                    seq,
                }
            }
            // Batches are fanned out in `handle_message` before `process`,
            // and nested batches cannot decode; answer defensively
            // instead of panicking the sim.
            Request::Batch { req_id, .. } => Response::Set {
                req_id,
                status: OpStatus::Error,
                stages: self.finish_stages(StageTimes::default(), stamps),
            },
            // Lease handshake for the one-sided read path: advertise the
            // window geometry (or Miss when no window exists).
            Request::WindowLease { req_id, .. } => {
                let lease = self.store.onesided().map(|idx| idx.lease().encode());
                self.payload_response(req_id, lease, stamps)
            }
            Request::Stats { req_id, .. } => {
                let snapshot = self.snapshot().encode();
                self.payload_response(req_id, Some(snapshot), stamps)
            }
        }
    }

    /// A `Get` response carrying a server-built payload: `Hit` with the
    /// payload, `Miss` without one.
    fn payload_response(
        &self,
        req_id: u64,
        payload: Option<Bytes>,
        stamps: PhaseStamps,
    ) -> Response {
        Response::Get {
            req_id,
            status: if payload.is_some() {
                OpStatus::Hit
            } else {
                OpStatus::Miss
            },
            stages: self.finish_stages(StageTimes::default(), stamps),
            flags: 0,
            cas: 0,
            value: payload,
        }
    }

    /// Stamp the lifecycle fields. Called synchronously right after the
    /// store operation finishes, so "now" is the store-done instant.
    fn finish_stages(&self, mut stages: StageTimes, stamps: PhaseStamps) -> StageTimes {
        stages.server_recv_at_ns = stamps.recv_at.as_nanos();
        stages.comm_done_at_ns = stamps.comm_done_at.as_nanos();
        stages.store_done_at_ns = self.sim.now().as_nanos();
        stages.overlapped_flush = stamps.overlapped;
        // Dispatch-load hint for the client's adaptive RPC/direct-read
        // policy: how deep the staging queue was when this response left.
        stages.queue_depth = self
            .life
            .borrow()
            .as_ref()
            .map_or(0, |inc| inc.staging_q.borrow().len() as u32);
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
        // Each set probes the hash table for 20 µs, so 100 sets issued
        // back to back outrun the workers and fill every staging slot.
        let sim = Sim::new();
        let mut cfg = hybrid_pipelined_cfg();
        cfg.store.costs.hash = Duration::from_micros(20);
        let (server, client) = rig(&sim, cfg);
        sim.run_until(async move {
            let mut handles = Vec::new();
            for i in 0..100 {
                let key = Bytes::from(format!("bp{i:02}"));
                handles.push(
                    client
                        .iset(key, Bytes::from(vec![1u8; 1024]), 0, None)
                        .await
                        .unwrap(),
                );
            }
            let done = client.wait_all(&handles).await;
            assert_eq!(done.len(), 100);
            assert!(done.iter().all(|c| c.status == OpStatus::Stored));
            assert_eq!(server.stats().responses, 100);
            // Dispatch is free, so a request whose communication phase
            // ended after it arrived waited for a staging slot.
            let waited = done
                .iter()
                .filter(|c| c.stages.comm_done_at_ns > c.stages.server_recv_at_ns)
                .count();
            assert!(waited > 0, "no request waited for a staging slot");
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
