//! The client library: blocking `set`/`get`/`delete` plus the paper's
//! non-blocking extensions `iset`/`iget`/`bset`/`bget`.
//!
//! ## Issue/completion split
//!
//! Every operation is issued to the RDMA engine and completed by a
//! background *progress task* (one per connection) that matches responses
//! to outstanding [`ReqHandle`]s — the "underlying communication engine
//! completes the request in the background" of Section V-A.
//!
//! ## Buffer-reuse semantics and their costs
//!
//! - `iset`/`iget` return as soon as the request descriptor is posted;
//!   the NIC may still be reading the key/value buffers (in Rust this is
//!   safe because the library holds `Bytes` clones, but the *cost* model
//!   matches the C semantics: no wait at all).
//! - `bset`/`bget` additionally wait for the local send completion
//!   (`SendTicket::wait_sent`) — the instant the NIC has finished reading
//!   the buffers and the caller may reuse them. For a large value this is
//!   the link serialization time, which is why write-heavy `bset`
//!   workloads show little overlap (Figure 7a).
//! - All flavours charge memory-registration costs through an [`MrCache`]:
//!   first use of a buffer pays `ibv_reg_mr`, reuse is free.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::Duration;

use bytes::Bytes;
use nbkv_fabric::{MrCache, QueuePair, Transport, TransportRx, TransportTx};
use nbkv_simrt::{Sim, SimTime};

use crate::client::batch::{BatchPolicy, Batcher};
use crate::client::onesided::{DirectOutcome, DirectPolicy, DirectReadEngine};
use crate::client::request::{
    wait_sent, Completion, Pending, ReqHandle, ReqState, SendWindow, WindowSlot,
};
use crate::client::resilience::{Breaker, ResiliencePolicy, MAX_ATTEMPTS};
use crate::client::ring::Ring;
use crate::costs::CpuCosts;
use crate::proto::{
    ApiFlavor, LeaseGeometry, OpStatus, Request, Response, ServedFrom, SetMode, StageTimes,
};
use crate::replication::{ReadPolicy, ReplicationConfig};

/// Client configuration.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Maximum outstanding *fabric frames* (models send-queue depth). A
    /// batch frame holds one slot no matter how many ops it carries.
    pub max_outstanding: usize,
    /// CPU cost model.
    pub costs: CpuCosts,
    /// Deadlines, retries, and failover for the blocking API.
    pub resilience: ResiliencePolicy,
    /// Doorbell batching for the non-blocking API: `Some` coalesces
    /// `iset`/`iget`/`bset`/`bget` into per-server [`Request::Batch`]
    /// frames under the given flush policy. `None` (default) sends one
    /// frame per op.
    pub batch: Option<BatchPolicy>,
    /// One-sided server-bypass GET policy. Anything other than
    /// [`DirectPolicy::Off`] requires queue pairs bound to the servers'
    /// index windows (see [`Client::new_with_onesided`]).
    pub direct: DirectPolicy,
    /// Replication awareness: replica-set routing for failover (writes
    /// promote to the next live replica when the primary's breaker is
    /// open) and the read-side replica policy. Must match the cluster's
    /// replication config; the default (`rf = 1`) is plain single-copy
    /// routing.
    pub replication: ReplicationConfig,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            max_outstanding: 1024,
            costs: CpuCosts::default_costs(),
            resilience: ResiliencePolicy::default(),
            batch: None,
            direct: DirectPolicy::Off,
            replication: ReplicationConfig::disabled(),
        }
    }
}

/// Buffers at or below this size are copied into pre-registered
/// communication buffers (like RDMA-Memcached's inline send path);
/// larger buffers go zero-copy and pay registration on first use.
pub const INLINE_THRESHOLD: usize = 4 << 10;

/// Client-side error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientError {
    /// The connection to the selected server is gone.
    Disconnected,
    /// Every attempt ran out its per-attempt deadline with no response.
    TimedOut,
    /// No routable server: connections were down or circuit breakers open
    /// on every attempt.
    ServerUnavailable,
    /// The retry budget was exhausted by a mix of failure kinds.
    RetriesExhausted {
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The server's response decoded but its payload was missing or
    /// malformed (e.g. a `stats` payload that is not exactly 37 words).
    BadResponse,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Disconnected => write!(f, "server disconnected"),
            ClientError::TimedOut => write!(f, "operation deadline exceeded"),
            ClientError::ServerUnavailable => write!(f, "no server available"),
            ClientError::RetriesExhausted { attempts } => {
                write!(f, "retries exhausted after {attempts} attempts")
            }
            ClientError::BadResponse => write!(f, "malformed response payload"),
        }
    }
}

impl std::error::Error for ClientError {}

nbkv_obs::counters! {
    /// Client counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ClientStats {
        /// Requests issued.
        sum issued: u64,
        /// Responses completed.
        sum completed: u64,
        /// Responses that arrived with no matching request (late/duplicate,
        /// including responses to cancelled or timed-out requests).
        sum orphans: u64,
        /// Blocking attempts that ran out their deadline.
        sum timeouts: u64,
        /// Retry attempts made by blocking operations.
        sum retries: u64,
        /// Always 0: the client posts no hedge requests. Kept because the
        /// benchmark's `client.hedges` metric and the run manifests read it.
        sum hedges: u64,
        /// Attempts rejected because every candidate breaker was open.
        sum breaker_rejections: u64,
        /// High-water mark of concurrently-held send-window permits (frame
        /// occupancy — never exceeds [`ClientConfig::max_outstanding`]).
        max window_hwm: u64,
        /// Multi-op batch frames sent (single-op flushes go out unbatched
        /// and are not counted here).
        sum batches_sent: u64,
        /// Ops carried inside those batch frames.
        sum batched_ops: u64,
        /// Flushes triggered by the op-count threshold.
        sum flush_on_count: u64,
        /// Flushes triggered by the wire-byte threshold.
        sum flush_on_size: u64,
        /// Flushes triggered by the virtual-time deadline.
        sum flush_on_deadline: u64,
        /// Flushes triggered by an explicit [`Client::flush_batches`] doorbell.
        sum flush_on_doorbell: u64,
        /// GETs served entirely by one-sided RDMA reads (server CPU bypassed).
        sum direct_hits: u64,
        /// Direct reads that lost a seqlock race with a writer and fell back
        /// to RPC.
        sum stale_retries: u64,
        /// Direct reads that found the value SSD-resident and fell back.
        sum ssd_fallbacks: u64,
        /// Direct reads whose completion never arrived (fault injection or a
        /// dead link) before falling back.
        sum direct_lost: u64,
        /// Adaptive-policy mode changes (RPC↔direct), across all servers.
        sum mode_flips: u64,
        /// Read attempts routed to a non-primary replica (spread reads plus
        /// reads failed over from a dead primary).
        sum replica_reads: u64,
        /// Write attempts promoted to a non-primary replica because the
        /// primary's breaker was open (crash failover).
        sum promotions: u64,
    }
}

/// A Memcached client bound to one or more servers.
pub struct Client {
    sim: Sim,
    cfg: ClientConfig,
    txs: Vec<TransportTx>,
    ring: Ring,
    pending: Pending,
    next_id: Rc<Cell<u64>>,
    mr: MrCache,
    window: Rc<SendWindow>,
    stats: Rc<RefCell<ClientStats>>,
    breakers: Vec<Breaker>,
    batcher: Option<Rc<Batcher>>,
    directs: Vec<Option<Rc<DirectReadEngine>>>,
    /// Round-robin cursor for [`ReadPolicy::SpreadReplicas`].
    read_rr: Cell<u64>,
}

/// The routing order for one key: the key's replica set (ring order,
/// primary first — possibly rotated for spread reads) followed by every
/// remaining server in `(primary + k) % n` order. At `rf = 1` this is
/// exactly the pre-replication failover order.
struct RouteSet {
    order: Vec<usize>,
    /// How many leading entries of `order` are replica-set members.
    replicas: usize,
    /// The key's true ring primary (for promotion/replica-read counting).
    primary: usize,
}

impl Client {
    /// Build a client over connected transports (one per server) and spawn
    /// a progress task per connection.
    pub fn new(sim: &Sim, transports: Vec<Transport>, cfg: ClientConfig) -> Rc<Client> {
        Client::new_with_onesided(sim, transports, Vec::new(), cfg)
    }

    /// Like [`Client::new`], but additionally binds one-sided queue pairs
    /// (client halves, windows already bound to the servers' published
    /// index regions; `None` per server without one). With
    /// [`ClientConfig::direct`] non-[`Off`](DirectPolicy::Off) the client
    /// fetches each server's window lease in the background and serves
    /// eligible GETs with direct RDMA reads.
    pub fn new_with_onesided(
        sim: &Sim,
        transports: Vec<Transport>,
        qps: Vec<Option<QueuePair>>,
        cfg: ClientConfig,
    ) -> Rc<Client> {
        assert!(!transports.is_empty(), "client needs at least one server");
        let profile = *transports[0].profile();
        let pending: Pending = Rc::default();
        let window = SendWindow::new(cfg.max_outstanding);
        let stats = Rc::new(RefCell::new(ClientStats::default()));
        let n = transports.len();
        let mut qps = qps;
        qps.resize_with(n, || None);
        let directs: Vec<Option<Rc<DirectReadEngine>>> = qps
            .into_iter()
            .map(|qp| match (qp, cfg.direct) {
                (_, DirectPolicy::Off) | (None, _) => None,
                (Some(qp), policy) => Some(Rc::new(DirectReadEngine::new(
                    sim.clone(),
                    Rc::new(qp),
                    policy,
                    &profile,
                    cfg.costs.dispatch,
                    cfg.resilience.deadline,
                    Rc::clone(&stats),
                ))),
            })
            .collect();
        let mut txs = Vec::with_capacity(n);
        for (i, t) in transports.into_iter().enumerate() {
            let (tx, rx) = t.split();
            txs.push(tx);
            let task = ProgressTask {
                sim: sim.clone(),
                rx,
                pending: Rc::clone(&pending),
                stats: Rc::clone(&stats),
                costs: cfg.costs,
                direct: directs[i].clone(),
            };
            sim.spawn(task.run());
        }
        let ring = Ring::new(txs.len());
        let breakers = (0..txs.len()).map(|_| Breaker::default()).collect();
        let next_id = Rc::new(Cell::new(1));
        let batcher = cfg.batch.map(|policy| {
            Batcher::new(
                sim.clone(),
                policy,
                txs.clone(),
                Rc::clone(&pending),
                Rc::clone(&window),
                Rc::clone(&stats),
                Rc::clone(&next_id),
                cfg.costs.client_issue,
            )
        });
        let client = Rc::new(Client {
            sim: sim.clone(),
            cfg,
            txs,
            ring,
            pending,
            next_id,
            mr: MrCache::new(sim.clone(), profile),
            window,
            stats,
            breakers,
            batcher,
            directs,
            read_rr: Cell::new(0),
        });
        // Fetch each one-sided server's window lease in the background; a
        // GET that races ahead of the handshake just takes the RPC path.
        for (i, e) in client.directs.iter().enumerate() {
            if e.is_some() {
                let c = Rc::clone(&client);
                sim.spawn(async move { c.fetch_lease(i).await });
            }
        }
        client
    }

    /// Window-lease handshake for server `server`: one blocking RPC whose
    /// response carries the server's [`LeaseGeometry`], or a Miss when the
    /// server publishes no window.
    async fn fetch_lease(&self, server: usize) {
        let Some(engine) = self.directs[server].clone() else {
            return;
        };
        let req = Request::WindowLease {
            req_id: self.alloc_req_id(),
            flavor: ApiFlavor::Block,
        };
        let Ok(h) = self.post(server, req, false).await else {
            engine.mark_no_window();
            return;
        };
        let deadline = self
            .cfg
            .resilience
            .deadline
            .unwrap_or(Duration::from_millis(500));
        let Ok(done) = h.wait_timeout(deadline).await else {
            engine.mark_no_window();
            return;
        };
        match done
            .value
            .as_ref()
            .and_then(|v| LeaseGeometry::decode(v).ok())
        {
            Some(lease) if done.status == OpStatus::Hit => engine.install_lease(lease),
            _ => engine.mark_no_window(),
        }
    }

    /// The resilience policy in force.
    pub fn policy(&self) -> ResiliencePolicy {
        self.cfg.resilience
    }

    /// Total circuit-breaker trips across all servers.
    pub fn breaker_trips(&self) -> u64 {
        self.breakers.iter().map(|b| b.trips()).sum()
    }

    /// Crash notification (fast failure detection, e.g. an RDMA QP event
    /// or the cluster manager's heartbeat): open `server`'s breaker
    /// immediately so the very next attempt retargets the key's next live
    /// replica, instead of burning a full per-attempt deadline discovering
    /// the crash.
    pub fn notify_server_crashed(&self, server: usize) {
        self.breakers[server].force_open(self.sim.now());
    }

    /// Restart notification: close `server`'s breaker so traffic demotes
    /// back from its replicas without waiting out the breaker cooldown.
    pub fn notify_server_restarted(&self, server: usize) {
        self.breakers[server].reset();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ClientStats {
        let mut st = *self.stats.borrow();
        st.window_hwm = self.window.hwm();
        st
    }

    /// Ops-per-batch distribution: one sample per flushed frame (single-op
    /// flushes record `1`). Empty when batching is disabled.
    pub fn ops_per_batch(&self) -> nbkv_obs::Histogram {
        self.batcher
            .as_ref()
            .map(|b| b.ops_per_batch())
            .unwrap_or_default()
    }

    /// A handle to the simulation this client runs in.
    pub fn sim_handle(&self) -> Sim {
        self.sim.clone()
    }

    /// Registration-cache statistics (hits mean buffer reuse paid off).
    pub fn mr_stats(&self) -> nbkv_fabric::MrStats {
        self.mr.stats()
    }

    /// Attach (or clear) a fault plan on every one-sided queue pair —
    /// the chaos hook for direct-read fault experiments. A no-op without
    /// one-sided engines.
    pub fn set_onesided_faults(&self, plan: Option<nbkv_fabric::FaultPlan>) {
        for e in self.directs.iter().flatten() {
            e.set_faults(plan.clone());
        }
    }

    /// Requests currently in flight.
    pub fn outstanding(&self) -> usize {
        self.pending.borrow().len()
    }

    /// Prepare a user buffer for transmission: small buffers are copied
    /// into a pre-registered comm buffer (memcpy cost); large buffers are
    /// sent zero-copy after (cached) memory registration.
    async fn prepare_buffer(&self, buf: &Bytes) {
        if buf.len() <= INLINE_THRESHOLD {
            let cost = self.cfg.costs.memcpy(buf.len());
            if !cost.is_zero() {
                self.sim.sleep(cost).await;
            }
        } else {
            self.mr.ensure_registered(buf).await;
        }
    }

    // -- the paper's API surface (Listing 1) -------------------------------

    /// Non-blocking set, no buffer-reuse guarantee (`memcached_iset`).
    pub async fn iset(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
    ) -> Result<ReqHandle, ClientError> {
        self.prepare_buffer(&key).await;
        self.prepare_buffer(&value).await;
        self.issue_set(
            key,
            value,
            flags,
            expire,
            ApiFlavor::NonBlockingI,
            false,
            SetMode::Set,
        )
        .await
    }

    /// Non-blocking set that returns once the key/value buffers are
    /// reusable (`memcached_bset`).
    pub async fn bset(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
    ) -> Result<ReqHandle, ClientError> {
        self.prepare_buffer(&key).await;
        self.prepare_buffer(&value).await;
        self.issue_set(
            key,
            value,
            flags,
            expire,
            ApiFlavor::NonBlockingB,
            true,
            SetMode::Set,
        )
        .await
    }

    /// Non-blocking get, no buffer-reuse guarantee (`memcached_iget`).
    pub async fn iget(&self, key: Bytes) -> Result<ReqHandle, ClientError> {
        self.prepare_buffer(&key).await;
        self.issue_get(key, ApiFlavor::NonBlockingI, false).await
    }

    /// Non-blocking get that returns once the key buffer is reusable
    /// (`memcached_bget`).
    pub async fn bget(&self, key: Bytes) -> Result<ReqHandle, ClientError> {
        self.prepare_buffer(&key).await;
        self.issue_get(key, ApiFlavor::NonBlockingB, true).await
    }

    /// Blocking set (`memcached_set`): issue and wait for the response,
    /// under the configured [`ResiliencePolicy`] (deadline + retries).
    pub async fn set(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
    ) -> Result<Completion, ClientError> {
        self.prepare_buffer(&key).await;
        self.prepare_buffer(&value).await;
        let expire_at_ns = expire.map_or(0, |d| (self.sim.now() + d).as_nanos());
        let rs = self.route_set(&key);
        self.call_blocking(rs, false, &|req_id| Request::Set {
            req_id,
            flavor: ApiFlavor::Block,
            mode: SetMode::Set,
            flags,
            expire_at_ns,
            key: key.clone(),
            value: value.clone(),
        })
        .await
    }

    /// Blocking get (`memcached_get`), under the configured
    /// [`ResiliencePolicy`] (deadline + retries).
    pub async fn get(&self, key: Bytes) -> Result<Completion, ClientError> {
        self.mr.ensure_registered(&key).await;
        let rs = self.read_route_set(&key);
        // The selected replica (under SpreadReplicas this rotates across
        // the key's copies; otherwise it is the primary).
        let server = rs.order[0];
        // Direct fast path: a validated one-sided read of the *selected
        // replica's* window returns without touching any server CPU; any
        // other outcome falls through to the full resilience engine below.
        if let Some(engine) = self.directs.get(server).and_then(|e| e.clone()) {
            if engine.decide() {
                let t0 = self.sim.now();
                if !self.cfg.costs.client_issue.is_zero() {
                    self.sim.sleep(self.cfg.costs.client_issue).await;
                }
                self.window.acquire().await;
                let slot = WindowSlot::new(Rc::clone(&self.window), 1);
                let outcome = engine.read(&key).await;
                slot.member_done();
                engine.note(&outcome);
                if let DirectOutcome::Hit { value, flags } = outcome {
                    let cost = self.cfg.costs.memcpy(value.len());
                    if !cost.is_zero() {
                        self.sim.sleep(cost).await;
                    }
                    self.note_replica_route(&rs, server, true);
                    {
                        let mut st = self.stats.borrow_mut();
                        st.issued += 1;
                        st.completed += 1;
                    }
                    return Ok(Completion {
                        status: OpStatus::Hit,
                        value: Some(value),
                        flags,
                        cas: 0,
                        counter: 0,
                        stages: StageTimes {
                            served_from: ServedFrom::Ram,
                            ..StageTimes::default()
                        },
                        issued_at: t0,
                        sent_at: t0,
                        completed_at: self.sim.now(),
                    });
                }
            }
        }
        self.call_blocking(rs, true, &|req_id| Request::Get {
            req_id,
            flavor: ApiFlavor::Block,
            key: key.clone(),
        })
        .await
    }

    /// Blocking delete.
    pub async fn delete(&self, key: Bytes) -> Result<Completion, ClientError> {
        self.mr.ensure_registered(&key).await;
        let rs = self.route_set(&key);
        self.call_blocking(rs, false, &|req_id| Request::Delete {
            req_id,
            flavor: ApiFlavor::Block,
            key: key.clone(),
        })
        .await
    }

    /// Store only if the key is absent (memcached `add`). Fails with
    /// [`crate::OpStatus::Exists`] when the key is live.
    pub async fn add(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
    ) -> Result<Completion, ClientError> {
        self.conditional_store(SetMode::Add, key, value, flags, expire)
            .await
    }

    /// Store only if the key is present (memcached `replace`).
    pub async fn replace(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
    ) -> Result<Completion, ClientError> {
        self.conditional_store(SetMode::Replace, key, value, flags, expire)
            .await
    }

    /// Compare-and-swap: store only if the entry's CAS token (from a get's
    /// [`Completion::cas`]) is unchanged.
    pub async fn cas(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
        cas: u64,
    ) -> Result<Completion, ClientError> {
        self.conditional_store(SetMode::Cas(cas), key, value, flags, expire)
            .await
    }

    /// Append bytes to an existing value (keeps its flags and expiry).
    pub async fn append(&self, key: Bytes, value: Bytes) -> Result<Completion, ClientError> {
        self.conditional_store(SetMode::Append, key, value, 0, None)
            .await
    }

    /// Prepend bytes to an existing value.
    pub async fn prepend(&self, key: Bytes, value: Bytes) -> Result<Completion, ClientError> {
        self.conditional_store(SetMode::Prepend, key, value, 0, None)
            .await
    }

    /// Increment a decimal counter value (memcached `incr`); returns the
    /// new value in [`Completion::counter`].
    pub async fn incr(&self, key: Bytes, delta: u64) -> Result<Completion, ClientError> {
        self.counter_op(key, delta, false).await
    }

    /// Decrement a decimal counter value, clamped at zero (memcached
    /// `decr`).
    pub async fn decr(&self, key: Bytes, delta: u64) -> Result<Completion, ClientError> {
        self.counter_op(key, delta, true).await
    }

    /// Update an entry's expiry without resending the value (memcached
    /// `touch`). `None` removes the expiry.
    pub async fn touch(
        &self,
        key: Bytes,
        expire: Option<Duration>,
    ) -> Result<Completion, ClientError> {
        self.prepare_buffer(&key).await;
        let expire_at_ns = expire.map_or(0, |d| (self.sim.now() + d).as_nanos());
        let rs = self.route_set(&key);
        self.call_blocking(rs, false, &|req_id| Request::Touch {
            req_id,
            flavor: ApiFlavor::Block,
            key: key.clone(),
            expire_at_ns,
        })
        .await
    }

    /// Fetch a full observability snapshot from server `server_idx`
    /// (memcached's `stats` command). Stats target a specific server, so
    /// there is no failover for *this* call; the policy deadline still
    /// applies (a crashed server yields [`ClientError::TimedOut`], not a
    /// hang). Keyed operations *do* fail over: the route order tries the
    /// key's replicas first, and [`Client::notify_server_crashed`] opens a
    /// crashed server's breaker immediately so failover does not wait out
    /// a deadline.
    pub async fn server_stats(
        &self,
        server_idx: usize,
    ) -> Result<crate::server::StatsSnapshot, ClientError> {
        assert!(server_idx < self.txs.len(), "no such server");
        let req_id = self.alloc_req_id();
        let req = Request::Stats {
            req_id,
            flavor: ApiFlavor::Block,
        };
        let h = self.post(server_idx, req, false).await?;
        let done = match self.cfg.resilience.deadline {
            Some(d) => h.wait_timeout(d).await.map_err(|_| ClientError::TimedOut)?,
            None => h.wait().await,
        };
        // A fault plan can truncate or corrupt the payload in flight;
        // surface that as an error instead of killing the whole sim.
        let payload = done.value.ok_or(ClientError::BadResponse)?;
        crate::server::StatsSnapshot::decode(&payload).ok_or(ClientError::BadResponse)
    }

    /// Batch get: issue non-blocking gets for every key, ring the batching
    /// doorbell, wait for all, and return completions in key order
    /// (memcached `get_multi`). With [`ClientConfig::batch`] set, the gets
    /// coalesce into per-server [`Request::Batch`] frames.
    pub async fn get_multi(&self, keys: Vec<Bytes>) -> Result<Vec<Completion>, ClientError> {
        let mut handles = Vec::with_capacity(keys.len());
        for key in keys {
            handles.push(self.iget(key).await?);
        }
        self.flush_batches();
        Ok(self.wait_all(&handles).await)
    }

    /// Batch set: issue non-blocking sets for every `(key, value)` pair,
    /// ring the batching doorbell, wait for all, and return completions in
    /// input order.
    pub async fn set_multi(
        &self,
        items: Vec<(Bytes, Bytes)>,
    ) -> Result<Vec<Completion>, ClientError> {
        let mut handles = Vec::with_capacity(items.len());
        for (key, value) in items {
            handles.push(self.iset(key, value, 0, None).await?);
        }
        self.flush_batches();
        Ok(self.wait_all(&handles).await)
    }

    /// Ring the doorbell: flush every non-empty per-server batch queue
    /// immediately instead of waiting out the flush deadline. A no-op
    /// when batching is disabled.
    pub fn flush_batches(&self) {
        if let Some(b) = &self.batcher {
            b.flush_all();
        }
    }

    async fn conditional_store(
        &self,
        mode: SetMode,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
    ) -> Result<Completion, ClientError> {
        self.prepare_buffer(&key).await;
        self.prepare_buffer(&value).await;
        let expire_at_ns = expire.map_or(0, |d| (self.sim.now() + d).as_nanos());
        let rs = self.route_set(&key);
        self.call_blocking(rs, false, &|req_id| Request::Set {
            req_id,
            flavor: ApiFlavor::Block,
            mode,
            flags,
            expire_at_ns,
            key: key.clone(),
            value: value.clone(),
        })
        .await
    }

    async fn counter_op(
        &self,
        key: Bytes,
        delta: u64,
        negative: bool,
    ) -> Result<Completion, ClientError> {
        self.prepare_buffer(&key).await;
        let rs = self.route_set(&key);
        self.call_blocking(rs, false, &|req_id| Request::Counter {
            req_id,
            flavor: ApiFlavor::Block,
            key: key.clone(),
            delta,
            negative,
        })
        .await
    }

    /// Wait for a batch of handles (the end-of-block `memcached_wait` of
    /// the bursty I/O pattern in Listing 2).
    pub async fn wait_all(&self, handles: &[ReqHandle]) -> Vec<Completion> {
        let mut out = Vec::with_capacity(handles.len());
        for h in handles {
            out.push(h.wait().await);
        }
        out
    }

    // -- issue path ---------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    async fn issue_set(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
        flavor: ApiFlavor,
        wait_sent: bool,
        mode: SetMode,
    ) -> Result<ReqHandle, ClientError> {
        let expire_at_ns = expire.map_or(0, |d| (self.sim.now() + d).as_nanos());
        let rs = self.route_set(&key);
        let server = self.pick_live(&rs);
        self.note_replica_route(&rs, server, false);
        let req_id = self.alloc_req_id();
        let req = Request::Set {
            req_id,
            flavor,
            mode,
            flags,
            expire_at_ns,
            key,
            value,
        };
        if self.batcher.is_some() {
            self.enqueue_op(server, req, wait_sent).await
        } else {
            self.post(server, req, wait_sent).await
        }
    }

    async fn issue_get(
        &self,
        key: Bytes,
        flavor: ApiFlavor,
        wait_sent: bool,
    ) -> Result<ReqHandle, ClientError> {
        let rs = self.read_route_set(&key);
        let server = self.pick_live(&rs);
        self.note_replica_route(&rs, server, true);
        if let Some(engine) = self.directs.get(server).and_then(|e| e.clone()) {
            if engine.decide() {
                return self.issue_direct_get(server, engine, key, flavor).await;
            }
        }
        let req_id = self.alloc_req_id();
        let req = Request::Get {
            req_id,
            flavor,
            key,
        };
        if self.batcher.is_some() {
            self.enqueue_op(server, req, wait_sent).await
        } else {
            self.post(server, req, wait_sent).await
        }
    }

    /// Batched issue path: register the op and hand it to the coalescing
    /// queue. Queuing a prepared descriptor is a memory write — the
    /// `client_issue` cost (descriptor-chain post + doorbell ring) is paid
    /// once per *frame* by the flush task, which is the doorbell-batching
    /// win on the client CPU. Send failures surface as error completions
    /// on the handle (the connection state is not knowable at enqueue
    /// time).
    async fn enqueue_op(
        &self,
        server: usize,
        req: Request,
        wait_for_sent: bool,
    ) -> Result<ReqHandle, ClientError> {
        let batcher = self.batcher.as_ref().expect("enqueue_op requires batching");
        let req_id = req.req_id();
        let state = ReqState::new(self.sim.now());
        self.pending.borrow_mut().insert(req_id, Rc::clone(&state));
        self.stats.borrow_mut().issued += 1;
        batcher.enqueue(server, req, Rc::clone(&state));
        if wait_for_sent {
            // bset/bget semantics: the buffers are reusable once the
            // carrying frame's send completion fires.
            wait_sent(&state).await;
        }
        Ok(ReqHandle {
            sim: self.sim.clone(),
            state,
            req_id,
            pending: Rc::clone(&self.pending),
        })
    }

    async fn post(
        &self,
        server: usize,
        req: Request,
        wait_sent: bool,
    ) -> Result<ReqHandle, ClientError> {
        // The op starts when the application asks for it; the issue cost
        // (descriptor post + doorbell) is part of its end-to-end latency,
        // exactly as on the batched path where the flush pays it.
        let issue_start = self.sim.now();
        if !self.cfg.costs.client_issue.is_zero() {
            self.sim.sleep(self.cfg.costs.client_issue).await;
        }
        // Send-queue depth: acquire a frame slot, released on completion.
        self.window.acquire().await;
        let req_id = req.req_id();
        let state = ReqState::new(issue_start);
        state.borrow_mut().slot = Some(WindowSlot::new(Rc::clone(&self.window), 1));
        self.pending.borrow_mut().insert(req_id, Rc::clone(&state));
        self.stats.borrow_mut().issued += 1;

        let payload = req.encode();
        match self.txs[server].send(payload).await {
            Ok(ticket) => {
                state.borrow_mut().sent_at = Some(ticket.sent_at());
                if wait_sent {
                    ticket.wait_sent().await;
                    let mut s = state.borrow_mut();
                    s.sent = true;
                    s.notify.notify_waiters();
                }
                Ok(ReqHandle {
                    sim: self.sim.clone(),
                    state,
                    req_id,
                    pending: Rc::clone(&self.pending),
                })
            }
            Err(_) => {
                self.pending.borrow_mut().remove(&req_id);
                if let Some(slot) = state.borrow_mut().slot.take() {
                    slot.member_done();
                }
                Err(ClientError::Disconnected)
            }
        }
    }

    /// Non-blocking direct GET: issue the one-sided read in the background
    /// and return a [`ReqHandle`] immediately (`iget`/`bget` semantics).
    /// The key never touches the wire on the direct path, so the buffers
    /// are reusable at once; a fallback clones the key into an ordinary
    /// RPC under the same request id, which the progress task completes
    /// through the normal machinery.
    async fn issue_direct_get(
        &self,
        server: usize,
        engine: Rc<DirectReadEngine>,
        key: Bytes,
        flavor: ApiFlavor,
    ) -> Result<ReqHandle, ClientError> {
        let issue_start = self.sim.now();
        if !self.cfg.costs.client_issue.is_zero() {
            self.sim.sleep(self.cfg.costs.client_issue).await;
        }
        self.window.acquire().await;
        let req_id = self.alloc_req_id();
        let state = ReqState::new(issue_start);
        {
            let mut s = state.borrow_mut();
            s.slot = Some(WindowSlot::new(Rc::clone(&self.window), 1));
            s.sent = true; // no wire send: buffers reusable immediately
        }
        self.pending.borrow_mut().insert(req_id, Rc::clone(&state));
        self.stats.borrow_mut().issued += 1;

        let sim = self.sim.clone();
        let pending = Rc::clone(&self.pending);
        let stats = Rc::clone(&self.stats);
        let tx = self.txs[server].clone();
        let costs = self.cfg.costs;
        let task_state = Rc::clone(&state);
        self.sim.spawn(async move {
            let outcome = engine.read(&key).await;
            engine.note(&outcome);
            match outcome {
                DirectOutcome::Hit { value, flags } => {
                    let cost = costs.memcpy(value.len());
                    if !cost.is_zero() {
                        sim.sleep(cost).await;
                    }
                    let resp = Response::Get {
                        req_id,
                        status: OpStatus::Hit,
                        stages: StageTimes {
                            served_from: ServedFrom::Ram,
                            ..StageTimes::default()
                        },
                        flags,
                        cas: 0,
                        value: Some(value),
                    };
                    complete(&sim, &pending, &stats, resp);
                }
                _ => {
                    task_state.borrow_mut().direct_fallback = true;
                    let req = Request::Get {
                        req_id,
                        flavor,
                        key,
                    };
                    match tx.send(req.encode()).await {
                        Ok(ticket) => {
                            task_state.borrow_mut().sent_at = Some(ticket.sent_at());
                        }
                        Err(_) => {
                            // Connection gone mid-fallback: surface an
                            // error completion instead of a hang.
                            let resp = Response::Get {
                                req_id,
                                status: OpStatus::Error,
                                stages: StageTimes::default(),
                                flags: 0,
                                cas: 0,
                                value: None,
                            };
                            complete(&sim, &pending, &stats, resp);
                        }
                    }
                }
            }
        });
        Ok(ReqHandle {
            sim: self.sim.clone(),
            state,
            req_id,
            pending: Rc::clone(&self.pending),
        })
    }

    fn alloc_req_id(&self) -> u64 {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        id
    }

    // -- resilience engine --------------------------------------------------

    /// Run a blocking operation under the [`ResiliencePolicy`]: up to
    /// `MAX_ATTEMPTS` attempts, each with the per-attempt deadline,
    /// separated by deterministic backoff, with breaker-driven failover
    /// along the key's route order (replicas first).
    async fn call_blocking(
        &self,
        rs: RouteSet,
        is_read: bool,
        make: &dyn Fn(u64) -> Request,
    ) -> Result<Completion, ClientError> {
        let mut backoff = self.cfg.resilience.backoff(self.next_id.get());
        let (mut timeouts, mut unavailable) = (0u32, 0u32);
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.stats.borrow_mut().retries += 1;
                let delay = backoff.next_delay();
                if !delay.is_zero() {
                    self.sim.sleep(delay).await;
                }
            }
            let Some(server) = self.route(&rs) else {
                self.stats.borrow_mut().breaker_rejections += 1;
                unavailable += 1;
                continue;
            };
            self.note_replica_route(&rs, server, is_read);
            let h = match self.post(server, make(self.alloc_req_id()), false).await {
                Ok(h) => h,
                Err(_) => {
                    self.note_failure(server);
                    unavailable += 1;
                    continue;
                }
            };
            match self.await_attempt(&h, server).await {
                Some(c) => return Ok(c),
                None => timeouts += 1,
            }
        }
        Err(match (timeouts, unavailable) {
            (_, 0) => ClientError::TimedOut,
            (0, _) => ClientError::ServerUnavailable,
            _ => ClientError::RetriesExhausted {
                attempts: MAX_ATTEMPTS,
            },
        })
    }

    /// Wait out one attempt; `None` means the deadline elapsed (the request
    /// has been cancelled and its window slot reclaimed).
    async fn await_attempt(&self, h: &ReqHandle, server: usize) -> Option<Completion> {
        match self.cfg.resilience.deadline {
            None => {
                let c = h.wait().await;
                self.note_success(server);
                Some(c)
            }
            Some(d) => match nbkv_simrt::timeout(&self.sim, d, h.wait()).await {
                Ok(c) => {
                    self.note_success(server);
                    Some(c)
                }
                Err(_) => {
                    h.cancel();
                    self.note_timeout(server);
                    None
                }
            },
        }
    }

    /// Build the routing order for a key: its replica set (primary first)
    /// then the remaining ring servers in `(primary + k) % n` order.
    fn route_set(&self, key: &[u8]) -> RouteSet {
        let n = self.txs.len();
        let mut order = self.ring.select_replicas(key, self.cfg.replication.rf);
        let primary = order[0];
        let replicas = order.len();
        for k in 1..n {
            let s = (primary + k) % n;
            if !order[..replicas].contains(&s) {
                order.push(s);
            }
        }
        RouteSet {
            order,
            replicas,
            primary,
        }
    }

    /// Routing order for a *read*: like [`route_set`](Self::route_set),
    /// but under [`ReadPolicy::SpreadReplicas`] the replica prefix is
    /// rotated round-robin so reads fan out across the key's copies.
    fn read_route_set(&self, key: &[u8]) -> RouteSet {
        let mut rs = self.route_set(key);
        if self.cfg.replication.read_policy == ReadPolicy::SpreadReplicas && rs.replicas > 1 {
            let r = self.read_rr.get();
            self.read_rr.set(r.wrapping_add(1));
            let rot = (r % rs.replicas as u64) as usize;
            rs.order[..rs.replicas].rotate_left(rot);
        }
        rs
    }

    /// Non-blocking issue target: the first replica whose breaker allows
    /// traffic (falling back to the head of the order when every replica
    /// breaker is open — the send then fails fast or times out).
    fn pick_live(&self, rs: &RouteSet) -> usize {
        let now = self.sim.now();
        rs.order[..rs.replicas]
            .iter()
            .copied()
            .find(|&s| self.breakers[s].allows(now))
            .unwrap_or(rs.order[0])
    }

    /// Count a routed attempt that landed on a non-primary replica
    /// (failover promotion for writes, replica read for reads).
    fn note_replica_route(&self, rs: &RouteSet, server: usize, is_read: bool) {
        if server != rs.primary && rs.order[..rs.replicas].contains(&server) {
            let mut st = self.stats.borrow_mut();
            if is_read {
                st.replica_reads += 1;
            } else {
                st.promotions += 1;
            }
        }
    }

    /// Pick the server for an attempt: the first server in the route
    /// order whose breaker allows traffic (memcached-style host ejection,
    /// extended to prefer the key's replicas before arbitrary ring
    /// neighbours). `None` when every breaker is open.
    fn route(&self, rs: &RouteSet) -> Option<usize> {
        let now = self.sim.now();
        rs.order
            .iter()
            .copied()
            .find(|&s| self.breakers[s].allows(now))
    }

    fn note_success(&self, server: usize) {
        self.breakers[server].on_success();
    }

    fn note_failure(&self, server: usize) {
        self.breakers[server].on_failure(self.sim.now());
    }

    fn note_timeout(&self, server: usize) {
        self.stats.borrow_mut().timeouts += 1;
        self.note_failure(server);
    }
}

/// Land a response on its pending op: store it, mark the op done and
/// wake its waiters, and release the op's share of the carrying frame's
/// window slot. Wire responses (via the progress task) and direct-path
/// completions (hit or failed fallback send) both end here. Returns the
/// op's issue time and whether it was a direct-read fallback, or `None`
/// for an orphan whose op was already cancelled.
fn complete(
    sim: &Sim,
    pending: &Pending,
    stats: &RefCell<ClientStats>,
    resp: Response,
) -> Option<(SimTime, bool)> {
    let Some(state) = pending.borrow_mut().remove(&resp.req_id()) else {
        stats.borrow_mut().orphans += 1;
        return None;
    };
    let (slot, issued_at, fallback) = {
        let mut s = state.borrow_mut();
        s.response = Some(resp);
        s.done = true;
        s.sent = true;
        s.completed_at = Some(sim.now());
        s.notify.notify_waiters();
        (s.slot.take(), s.issued_at, s.direct_fallback)
    };
    if let Some(slot) = slot {
        slot.member_done();
    }
    stats.borrow_mut().completed += 1;
    Some((issued_at, fallback))
}

/// Per-connection completion engine.
struct ProgressTask {
    sim: Sim,
    rx: TransportRx,
    pending: Pending,
    stats: Rc<RefCell<ClientStats>>,
    costs: CpuCosts,
    /// This connection's one-sided engine, fed the server's queue-depth
    /// hint and observed RPC GET latencies for the adaptive policy.
    direct: Option<Rc<DirectReadEngine>>,
}

impl ProgressTask {
    async fn run(self) {
        while let Some(msg) = self.rx.recv().await {
            let resp = match Response::decode(&msg) {
                Ok(r) => r,
                Err(_) => continue,
            };
            match resp {
                // A batch frame fans out into its member completions in
                // frame order (decode rejects nested batches, so this
                // recursion is one level deep by construction).
                Response::Batch { responses, .. } => {
                    for member in responses {
                        self.complete_one(member).await;
                    }
                }
                resp => self.complete_one(resp).await,
            }
        }
    }

    /// Complete one member response: copy a fetched value into the user's
    /// buffer (iget semantics), match it to its pending op, and release
    /// the op's share of the carrying frame's window slot.
    async fn complete_one(&self, resp: Response) {
        if let Response::Get { value: Some(v), .. } = &resp {
            let cost = self.costs.memcpy(v.len());
            if !cost.is_zero() {
                self.sim.sleep(cost).await;
            }
        }
        if let Some(direct) = &self.direct {
            direct.observe_queue_depth(resp.stages().queue_depth);
        }
        let is_get = matches!(resp, Response::Get { .. });
        let Some((issued_at, fallback)) = complete(&self.sim, &self.pending, &self.stats, resp)
        else {
            return;
        };
        // Feed the adaptive policy's RPC-latency EWMA. Fallback
        // completions are excluded: their latency includes the failed
        // direct attempt and would bias the signal.
        if is_get && !fallback {
            if let Some(direct) = &self.direct {
                let latency = self.sim.now().saturating_since(issued_at).as_nanos() as u64;
                direct.observe_rpc_latency(latency);
            }
        }
    }
}
