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

use std::cell::Cell;
use std::rc::{Rc, Weak};
use std::time::Duration;

use bytes::Bytes;
use nbkv_fabric::{MrCache, QueuePair, Transport, TransportRx};
use nbkv_simrt::Sim;

use crate::client::batch::{BatchPolicy, Batcher};
use crate::client::onesided::{DirectOutcome, DirectPolicy, DirectReadEngine};
use crate::client::request::{send_failed, ClientCore, Completion, ReqHandle, WindowSlot};
use crate::client::resilience::{Breaker, ResiliencePolicy, MAX_ATTEMPTS};
use crate::client::ring::Ring;
use crate::costs::CpuCosts;
use crate::proto::{
    ApiFlavor, LeaseGeometry, OpStatus, Request, Response, ServedFrom, SetMode, StageTimes,
    INLINE_THRESHOLD,
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
    core: Rc<ClientCore>,
    cfg: ClientConfig,
    ring: Ring,
    mr: MrCache,
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
        mut qps: Vec<Option<QueuePair>>,
        cfg: ClientConfig,
    ) -> Rc<Client> {
        assert!(!transports.is_empty(), "client needs at least one server");
        let profile = *transports[0].profile();
        let n = transports.len();
        let (txs, rxs): (Vec<_>, Vec<_>) = transports.into_iter().map(Transport::split).unzip();
        let core = ClientCore::new(sim, txs, &cfg);
        qps.resize_with(n, || None);
        let directs: Vec<Option<Rc<DirectReadEngine>>> = qps
            .into_iter()
            .map(|qp| {
                let qp = Rc::new(qp.filter(|_| cfg.direct != DirectPolicy::Off)?);
                Some(Rc::new(DirectReadEngine::new(&core, qp, &profile, &cfg)))
            })
            .collect();
        for (rx, direct) in rxs.into_iter().zip(&directs) {
            sim.spawn(progress(Rc::downgrade(&core), rx, direct.clone()));
        }
        let client = Rc::new(Client {
            cfg,
            ring: Ring::new(n),
            mr: MrCache::new(sim.clone(), profile),
            breakers: (0..n).map(|_| Breaker::default()).collect(),
            batcher: cfg
                .batch
                .map(|policy| Batcher::new(Rc::clone(&core), policy)),
            directs,
            read_rr: Cell::new(0),
            core,
        });
        // Fetch each one-sided server's window lease in the background; a
        // GET that races ahead of the handshake just takes the RPC path.
        for (server, engine) in client.directs.iter().enumerate() {
            if let Some(engine) = engine.clone() {
                let c = Rc::clone(&client);
                sim.spawn(async move { c.fetch_lease(server, engine).await });
            }
        }
        client
    }

    /// Window-lease handshake for server `server`: one blocking RPC whose
    /// response carries the server's [`LeaseGeometry`], or a Miss when the
    /// server publishes no window.
    async fn fetch_lease(&self, server: usize, engine: Rc<DirectReadEngine>) {
        let req = Request::WindowLease {
            req_id: self.core.alloc_req_id(),
            flavor: ApiFlavor::Block,
        };
        let deadline = self.policy().deadline.unwrap_or(Duration::from_millis(500));
        let done = match self.post(server, req, false).await {
            Ok(h) => h.wait_timeout(deadline).await.ok(),
            Err(_) => None,
        };
        let lease = done
            .filter(|done| done.status == OpStatus::Hit)
            .and_then(|done| LeaseGeometry::decode(done.value.as_ref()?).ok());
        match lease {
            Some(lease) => engine.install_lease(lease),
            None => engine.mark_no_window(),
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
        self.breakers[server].force_open(self.core.sim.now());
    }

    /// Restart notification: close `server`'s breaker so traffic demotes
    /// back from its replicas without waiting out the breaker cooldown.
    pub fn notify_server_restarted(&self, server: usize) {
        self.breakers[server].reset();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ClientStats {
        let mut st = *self.core.stats.borrow();
        st.window_hwm = self.core.window_hwm.get();
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
        self.core.sim.clone()
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
        self.core.pending.borrow().len()
    }

    /// Prepare a user buffer for transmission: small buffers are copied
    /// into a pre-registered comm buffer (memcpy cost); large buffers are
    /// sent zero-copy after (cached) memory registration.
    async fn prepare_buffer(&self, buf: &Bytes) {
        if buf.len() <= INLINE_THRESHOLD {
            self.core.charge(self.cfg.costs.memcpy(buf.len())).await;
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
        self.issue_set(key, value, flags, expire, ApiFlavor::NonBlockingI)
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
        self.issue_set(key, value, flags, expire, ApiFlavor::NonBlockingB)
            .await
    }

    /// Non-blocking get, no buffer-reuse guarantee (`memcached_iget`).
    pub async fn iget(&self, key: Bytes) -> Result<ReqHandle, ClientError> {
        self.issue_get(key, ApiFlavor::NonBlockingI).await
    }

    /// Non-blocking get that returns once the key buffer is reusable
    /// (`memcached_bget`).
    pub async fn bget(&self, key: Bytes) -> Result<ReqHandle, ClientError> {
        self.issue_get(key, ApiFlavor::NonBlockingB).await
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
        self.conditional_store(SetMode::Set, key, value, flags, expire)
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
        if let Some(engine) = self.direct_engine(server) {
            // The read holds a window permit and returns it as soon as the
            // reads finish; only a hit counts as an issued op.
            let (t0, slot) = self.core.begin(1).await;
            if let Some(hit) = direct_get(&self.core, &engine, &key, 0, Some(slot)).await {
                self.note_replica_route(&rs, server, true);
                // Tracked under id 0, which no wire request carries, for
                // the instant it takes to land.
                let h = self.core.track(0, t0, None);
                self.core.complete(hit);
                return Ok(h.test().expect("a landed op is done"));
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
        let expire_at_ns = expire.map_or(0, |d| (self.core.sim.now() + d).as_nanos());
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
        assert!(server_idx < self.core.txs.len(), "no such server");
        let req = Request::Stats {
            req_id: self.core.alloc_req_id(),
            flavor: ApiFlavor::Block,
        };
        let h = self.post(server_idx, req, false).await?;
        let done = self.wait_deadline(&h).await.ok_or(ClientError::TimedOut)?;
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
        let expire_at_ns = expire.map_or(0, |d| (self.core.sim.now() + d).as_nanos());
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

    /// `iset`/`bset`: a plain set routed to the first live replica.
    async fn issue_set(
        &self,
        key: Bytes,
        value: Bytes,
        flags: u32,
        expire: Option<Duration>,
        flavor: ApiFlavor,
    ) -> Result<ReqHandle, ClientError> {
        self.prepare_buffer(&key).await;
        self.prepare_buffer(&value).await;
        let expire_at_ns = expire.map_or(0, |d| (self.core.sim.now() + d).as_nanos());
        let rs = self.route_set(&key);
        let server = self.pick_live(&rs);
        self.note_replica_route(&rs, server, false);
        let req = Request::Set {
            req_id: self.core.alloc_req_id(),
            flavor,
            mode: SetMode::Set,
            flags,
            expire_at_ns,
            key,
            value,
        };
        self.issue(server, req).await
    }

    /// `iget`/`bget`: a direct read when the target's one-sided engine
    /// elects one, else a get routed like a read.
    async fn issue_get(&self, key: Bytes, flavor: ApiFlavor) -> Result<ReqHandle, ClientError> {
        self.prepare_buffer(&key).await;
        let rs = self.read_route_set(&key);
        let server = self.pick_live(&rs);
        self.note_replica_route(&rs, server, true);
        if let Some(engine) = self.direct_engine(server) {
            return Ok(self.issue_direct_get(server, engine, key, flavor).await);
        }
        let req = Request::Get {
            req_id: self.core.alloc_req_id(),
            flavor,
            key,
        };
        self.issue(server, req).await
    }

    /// Issue a non-blocking op: queue it for its server's next batch frame
    /// (the flush pays the frame's issue cost; a failed send completes the
    /// op with an error), or post it as its own frame. A `bset`/`bget`
    /// returns once its buffers are reusable.
    async fn issue(&self, server: usize, req: Request) -> Result<ReqHandle, ClientError> {
        let wait_sent = req.flavor() == ApiFlavor::NonBlockingB;
        let Some(batcher) = &self.batcher else {
            return self.post(server, req, wait_sent).await;
        };
        let h = self.core.track(req.req_id(), self.core.sim.now(), None);
        batcher.enqueue(server, req, Rc::clone(&h.state));
        if wait_sent {
            h.wait_sent().await;
        }
        Ok(h)
    }

    /// Post `req` as its own frame. The op starts when the application
    /// asks for it, so the issue cost is part of its end-to-end latency,
    /// exactly as on the batched path where the flush pays it.
    async fn post(
        &self,
        server: usize,
        req: Request,
        wait_sent: bool,
    ) -> Result<ReqHandle, ClientError> {
        let (issued_at, slot) = self.core.begin(1).await;
        let h = self.core.track(req.req_id(), issued_at, Some(slot));
        let (frame, ops) = (req.encode(), std::slice::from_ref(&h.state));
        let sent = self.core.send_frame(server, frame, ops, wait_sent).await;
        if sent.is_err() {
            h.cancel();
            return Err(ClientError::Disconnected);
        }
        Ok(h)
    }

    /// The one-sided engine of `server`, if it elects a direct read for
    /// this GET.
    fn direct_engine(&self, server: usize) -> Option<Rc<DirectReadEngine>> {
        let engine = self.directs[server].as_ref()?;
        engine.decide().then(|| Rc::clone(engine))
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
    ) -> ReqHandle {
        let (issued_at, slot) = self.core.begin(1).await;
        let req_id = self.core.alloc_req_id();
        let h = self.core.track(req_id, issued_at, Some(slot));
        h.state.borrow_mut().sent = true; // no wire send: buffers reusable now
        let (core, state) = (Rc::clone(&self.core), Rc::clone(&h.state));
        self.core.sim.spawn(async move {
            if let Some(hit) = direct_get(&core, &engine, &key, req_id, None).await {
                core.complete(hit);
                return;
            }
            state.borrow_mut().direct_fallback = true;
            let req = Request::Get {
                req_id,
                flavor,
                key,
            };
            let (frame, ops) = (req.encode(), std::slice::from_ref(&state));
            if core.send_frame(server, frame, ops, false).await.is_err() {
                // Connection gone mid-fallback: an error completion, not a
                // hang.
                core.complete(send_failed(req_id, true));
            }
        });
        h
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
        let mut backoff = self.cfg.resilience.backoff(self.core.next_id.get());
        let (mut timeouts, mut unavailable) = (0u32, 0u32);
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.core.stats.borrow_mut().retries += 1;
                self.core.charge(backoff.next_delay()).await;
            }
            let Some(server) = self.first_live(&rs.order) else {
                self.core.stats.borrow_mut().breaker_rejections += 1;
                unavailable += 1;
                continue;
            };
            self.note_replica_route(&rs, server, is_read);
            let req = make(self.core.alloc_req_id());
            let Ok(h) = self.post(server, req, false).await else {
                self.note_failure(server);
                unavailable += 1;
                continue;
            };
            if let Some(c) = self.wait_deadline(&h).await {
                self.breakers[server].on_success();
                return Ok(c);
            }
            self.core.stats.borrow_mut().timeouts += 1;
            self.note_failure(server);
            timeouts += 1;
        }
        Err(match (timeouts, unavailable) {
            (_, 0) => ClientError::TimedOut,
            (0, _) => ClientError::ServerUnavailable,
            _ => ClientError::RetriesExhausted {
                attempts: MAX_ATTEMPTS,
            },
        })
    }

    /// Wait for `h` under the policy deadline; `None` means the deadline
    /// elapsed (the request has been cancelled and its window slot
    /// reclaimed).
    async fn wait_deadline(&self, h: &ReqHandle) -> Option<Completion> {
        match self.cfg.resilience.deadline {
            Some(d) => h.wait_timeout(d).await.ok(),
            None => Some(h.wait().await),
        }
    }

    /// Build the routing order for a key: its replica set (primary first)
    /// then the remaining ring servers in `(primary + k) % n` order.
    fn route_set(&self, key: &[u8]) -> RouteSet {
        let n = self.core.txs.len();
        let mut order = Vec::with_capacity(n);
        self.ring
            .select_replicas(key, self.cfg.replication.rf, &mut order);
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
        self.first_live(&rs.order[..rs.replicas])
            .unwrap_or(rs.order[0])
    }

    /// Count a routed attempt that landed on a non-primary replica
    /// (failover promotion for writes, replica read for reads).
    fn note_replica_route(&self, rs: &RouteSet, server: usize, is_read: bool) {
        if server != rs.primary && rs.order[..rs.replicas].contains(&server) {
            let mut st = self.core.stats.borrow_mut();
            if is_read {
                st.replica_reads += 1;
            } else {
                st.promotions += 1;
            }
        }
    }

    /// The first of `servers` whose breaker allows traffic now. A blocking
    /// attempt picks from the whole route order (memcached-style host
    /// ejection, extended to prefer the key's replicas before arbitrary
    /// ring neighbours); `None` when every breaker is open.
    fn first_live(&self, servers: &[usize]) -> Option<usize> {
        let now = self.core.sim.now();
        servers
            .iter()
            .copied()
            .find(|&s| self.breakers[s].allows(now))
    }

    fn note_failure(&self, server: usize) {
        self.breakers[server].on_failure(self.core.sim.now());
    }
}

/// A one-sided read of `key` for op `req_id`: the blocking path's
/// `permit` (if given) goes back as soon as the reads finish. On a hit,
/// copy the value out into the user's buffer and answer as the server
/// would have; `None` means fall back to RPC.
async fn direct_get(
    core: &ClientCore,
    engine: &DirectReadEngine,
    key: &[u8],
    req_id: u64,
    permit: Option<Rc<WindowSlot>>,
) -> Option<Response> {
    let outcome = engine.read(key).await;
    if let Some(slot) = permit {
        slot.member_done();
    }
    engine.note(&outcome);
    let DirectOutcome::Hit { value, flags } = outcome else {
        return None;
    };
    core.charge(core.costs.memcpy(value.len())).await;
    Some(Response::Get {
        req_id,
        status: OpStatus::Hit,
        stages: StageTimes {
            served_from: ServedFrom::Ram,
            ..StageTimes::default()
        },
        flags,
        cas: 0,
        value: Some(value),
    })
}

/// Per-connection completion engine: lands each response on its pending
/// op. `direct` is the connection's one-sided engine, fed the server's
/// queue-depth hint and observed RPC GET latencies for the adaptive policy.
/// It holds the client's plumbing weakly, so dropping the client (and its
/// handles) drops the transports and the server sees the disconnect.
async fn progress(weak: Weak<ClientCore>, rx: TransportRx, direct: Option<Rc<DirectReadEngine>>) {
    while let Some(msg) = rx.recv().await {
        let (Some(core), Ok(resp)) = (weak.upgrade(), Response::decode(&msg)) else {
            continue;
        };
        match resp {
            // A batch frame fans out into its member completions in frame
            // order (decode rejects nested batches, so this recursion is
            // one level deep by construction).
            Response::Batch { responses, .. } => {
                for member in responses {
                    complete_one(&core, direct.as_deref(), member).await;
                }
            }
            resp => complete_one(&core, direct.as_deref(), resp).await,
        }
    }
}

/// Complete one member response: copy a fetched value into the user's
/// buffer (iget semantics), then land it on its pending op.
async fn complete_one(core: &ClientCore, direct: Option<&DirectReadEngine>, resp: Response) {
    if let Response::Get { value: Some(v), .. } = &resp {
        core.charge(core.costs.memcpy(v.len())).await;
    }
    if let Some(direct) = direct {
        direct.observe_queue_depth(resp.stages().queue_depth);
    }
    let is_get = matches!(resp, Response::Get { .. });
    let Some((issued_at, fallback)) = core.complete(resp) else {
        return;
    };
    // Feed the adaptive policy's RPC-latency EWMA. Fallback completions
    // are excluded: their latency includes the failed direct attempt and
    // would bias the signal.
    if let Some(direct) = direct.filter(|_| is_get && !fallback) {
        let latency = core.sim.now().saturating_since(issued_at);
        direct.observe_rpc_latency(latency.as_nanos() as u64);
    }
}
