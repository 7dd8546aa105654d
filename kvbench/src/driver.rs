//! The closed-loop driver: plan, set up, measure and check one repetition.
//!
//! Each simulated client is a task that keeps `window` ops outstanding and
//! reaps its oldest op when the window is full, the way an application
//! calls `memcached_wait` on its own requests. An op's latency is
//! `Completion::completed_at - issued_at` in virtual time. Every GET hit is
//! checked against the values written to its key.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::rc::Rc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use nbkv_core::cluster::build_cluster;
use nbkv_core::{Client, OpStatus, ReqHandle, Server};
use nbkv_simrt::Sim;
use nbkv_workload::{preload, AccessPattern, KeyChooser, KeySpace, OpKind, OpMix, ValuePool};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers::Snapshot;
use crate::spans::{Recorder, ReqSpans};
use crate::workloads::Workload;

/// Distinct value buffers, as in `nbkv_workload::preload`: key `i` is
/// preloaded with buffer `i % POOL_BUFS`, and a client's op number `j`
/// writes buffer `j % POOL_BUFS` when it is a SET.
const POOL_BUFS: usize = 8;

/// Virtual-time poll period while waiting for replication to drain.
const DRAIN_POLL: Duration = Duration::from_micros(10);

/// In traced repetitions, sample the replication backlog every this many
/// reaped ops.
const LAG_SAMPLE_EVERY: u64 = 256;

/// Failure descriptions kept per repetition for the report.
const MAX_FAILURE_NOTES: usize = 5;

#[derive(Debug, Clone, Copy)]
pub struct PlannedOp {
    pub key: u32,
    pub write: bool,
}

/// Every op of every client, generated from the seed before any timing.
pub struct Plan {
    keys: Rc<Vec<Bytes>>,
    clients: Vec<Rc<[PlannedOp]>>,
    pool: ValuePool,
}

impl Plan {
    pub fn new(w: &Workload, seed: u64) -> Plan {
        let space = KeySpace::new(w.keys());
        let keys: Vec<Bytes> = (0..w.keys()).map(|i| space.key(i)).collect();
        let index: HashMap<Bytes, u32> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| (k.clone(), i as u32))
            .collect();
        let mix = OpMix {
            read_pct: w.read_pct,
        };
        let clients = (0..w.clients)
            .map(|c| {
                // Per-client seeds follow the workload runner's convention
                // (`seed + client * 1001`, mix stream `^ 0x9E37_79B9`).
                let s = seed.wrapping_add(c as u64 * 1001);
                let mut chooser = KeyChooser::new(space.clone(), AccessPattern::Zipf(0.99), s);
                let mut mix_rng = StdRng::seed_from_u64(s ^ 0x9E37_79B9);
                (0..w.ops_per_client)
                    .map(|_| {
                        let key = index[&chooser.next_key()];
                        let write = mix.choose(&mut mix_rng) == OpKind::Write;
                        PlannedOp { key, write }
                    })
                    .collect()
            })
            .collect();
        Plan {
            keys: Rc::new(keys),
            clients,
            pool: ValuePool::new(w.value_len, POOL_BUFS),
        }
    }
}

/// What each key may legitimately hold: the virtual time at which each
/// pool buffer was first issued as its value (`u64::MAX` = never).
struct Oracle {
    first_issue: Vec<[u64; POOL_BUFS]>,
    bufs: Vec<Bytes>,
}

impl Oracle {
    fn new(keys: usize, pool: &ValuePool) -> Oracle {
        let mut first_issue = vec![[u64::MAX; POOL_BUFS]; keys];
        for (i, slots) in first_issue.iter_mut().enumerate() {
            slots[i % POOL_BUFS] = 0; // the drained preload
        }
        Oracle {
            first_issue,
            bufs: (0..POOL_BUFS).map(|b| pool.value(b)).collect(),
        }
    }

    fn note_set(&mut self, key: u32, buf: usize, at_ns: u64) {
        let t = &mut self.first_issue[key as usize][buf];
        *t = (*t).min(at_ns);
    }

    /// A GET hit must return a pool buffer written to `key` by the preload
    /// or by a SET issued before the GET completed.
    fn check(&self, key: u32, value: &[u8], completed_ns: u64) -> Result<(), String> {
        let want = self.bufs[0].len();
        if value.len() != want {
            return Err(format!("value is {} bytes, expected {want}", value.len()));
        }
        let Some(buf) = self.bufs.iter().position(|b| b[..] == *value) else {
            return Err("value matches no written buffer".to_string());
        };
        if self.first_issue[key as usize][buf] > completed_ns {
            return Err(format!(
                "buffer {buf} was not written to this key before the GET completed"
            ));
        }
        Ok(())
    }
}

/// Outcome of every op of one measured phase.
#[derive(Debug, Default, Hash)]
pub struct Tally {
    pub attempted: u64,
    pub succeeded: u64,
    /// Issue errors, reap timeouts, GET misses, wrong values and any
    /// other non-success status.
    pub failed: u64,
    pub wrong_values: u64,
    /// GET / SET latencies in virtual ns; a failed op is `u64::MAX`.
    pub get_ns: Vec<u64>,
    pub set_ns: Vec<u64>,
    pub last_completion_ns: u64,
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, write: bool, note: String) {
        self.failed += 1;
        if write {
            self.set_ns.push(u64::MAX);
        } else {
            self.get_ns.push(u64::MAX);
        }
        if self.notes.len() < MAX_FAILURE_NOTES {
            self.notes.push(note);
        }
    }
}

/// Wall-clock seconds of each layer entry point the benchmark calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostTimes {
    pub build: f64,
    pub preload: f64,
    pub drain: f64,
    pub measure: f64,
    pub snapshot: f64,
    pub teardown: f64,
}

impl HostTimes {
    /// Everything before the measured phase starts.
    pub fn setup(&self) -> f64 {
        self.build + self.preload + self.drain
    }

    /// `(name, start, end)` spans in seconds from the start of the repetition.
    pub fn spans(&self) -> [(&'static str, f64, f64); 6] {
        let mut t = 0.0;
        let mut next = |d: f64| {
            t += d;
            (t - d, t)
        };
        let build = next(self.build);
        let preload = next(self.preload);
        let drain = next(self.drain);
        let measure = next(self.measure);
        let snapshot = next(self.snapshot);
        let teardown = next(self.teardown);
        [
            ("build_cluster", build.0, build.1),
            ("preload", preload.0, preload.1),
            ("repl_drain", drain.0, drain.1),
            ("run_until", measure.0, measure.1),
            ("stats_snapshot", snapshot.0, snapshot.1),
            ("shutdown", teardown.0, teardown.1),
        ]
    }
}

/// One repetition: setup, measured phase, snapshot and teardown.
pub struct Rep {
    pub host: HostTimes,
    pub tally: Tally,
    /// Virtual ns from the start of the measured phase to its last completion.
    pub elapsed_ns: u64,
    /// Counter deltas over the preload.
    pub preload: Snapshot,
    /// Counter deltas over the measured phase.
    pub delta: Snapshot,
    /// Replication backlog (all servers) when the measured phase ended.
    pub unacked_at_end: u64,
    /// Spans and sampled gauges; `Some` in traced repetitions.
    pub trace: Option<Recorder>,
}

impl Rep {
    /// Wall ns of the measured `run_until` per completed op.
    pub fn host_ns_per_op(&self) -> f64 {
        self.host.measure * 1e9 / self.tally.attempted.max(1) as f64
    }

    /// Hash of everything that must repeat exactly for a fixed seed: the
    /// virtual-time results and every counter (host times excluded).
    pub fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.tally.hash(&mut h);
        self.elapsed_ns.hash(&mut h);
        self.preload.hash(&mut h);
        self.delta.hash(&mut h);
        self.unacked_at_end.hash(&mut h);
        h.finish()
    }
}

struct Ctx {
    sim: Sim,
    keys: Rc<Vec<Bytes>>,
    pool: ValuePool,
    window: usize,
    batch_group: usize,
    deadline: Option<Duration>,
    oracle: RefCell<Oracle>,
    tally: RefCell<Tally>,
    trace: Option<RefCell<Recorder>>,
    servers: Vec<Rc<Server>>,
}

struct InFlight {
    handle: ReqHandle,
    op: PlannedOp,
    id: u64,
}

/// Build, preload, drain, measure and tear down one cluster.
pub fn run_rep(w: &Workload, plan: &Plan, traced: bool) -> Rep {
    let mut host = HostTimes::default();
    let sim = Sim::new();

    let t = Instant::now();
    let cluster = build_cluster(&sim, &w.cluster_config());
    host.build = t.elapsed().as_secs_f64();
    let before_preload = Snapshot::take(&sim, &cluster);

    let t = Instant::now();
    let loader = Rc::clone(&cluster.clients[0]);
    let (keys, value_len) = (w.keys(), w.value_len);
    sim.run_until(async move { preload(&loader, keys, value_len).await });
    host.preload = t.elapsed().as_secs_f64();

    let t = Instant::now();
    if w.replication.is_replicated() {
        let servers = cluster.servers.clone();
        let s = sim.clone();
        sim.run_until(async move {
            while servers.iter().any(|sv| sv.repl_lag_ops() > 0) {
                s.sleep(DRAIN_POLL).await;
            }
        });
    }
    host.drain = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let before = Snapshot::take(&sim, &cluster);
    let preload_delta = before.since(&before_preload);
    host.snapshot = t.elapsed().as_secs_f64();

    let ctx = Rc::new(Ctx {
        sim: sim.clone(),
        keys: Rc::clone(&plan.keys),
        pool: plan.pool.clone(),
        window: w.window,
        batch_group: w.batch_group,
        deadline: cluster.clients[0].policy().deadline,
        oracle: RefCell::new(Oracle::new(w.keys(), &plan.pool)),
        tally: RefCell::new(Tally::default()),
        trace: traced.then(|| RefCell::new(Recorder::default())),
        servers: cluster.servers.clone(),
    });
    let start_ns = sim.now().as_nanos();
    let t = Instant::now();
    let tasks: Vec<_> = cluster
        .clients
        .iter()
        .zip(&plan.clients)
        .enumerate()
        .map(|(ci, (c, ops))| {
            sim.spawn(client_loop(
                Rc::clone(&ctx),
                Rc::clone(c),
                ci,
                Rc::clone(ops),
            ))
        })
        .collect();
    sim.run_until(async move {
        for task in tasks {
            task.await;
        }
    });
    host.measure = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let after = Snapshot::take(&sim, &cluster);
    let unacked_at_end = cluster.servers.iter().map(|s| s.repl_lag_ops()).sum();
    host.snapshot += t.elapsed().as_secs_f64();

    let t = Instant::now();
    sim.shutdown();
    drop(cluster);
    let ctx = Rc::try_unwrap(ctx)
        .ok()
        .expect("shutdown released every client task");
    drop(ctx.servers);
    host.teardown = t.elapsed().as_secs_f64();

    let tally = ctx.tally.into_inner();
    let elapsed_ns = tally.last_completion_ns.saturating_sub(start_ns);
    Rep {
        host,
        tally,
        elapsed_ns,
        preload: preload_delta,
        delta: after.since(&before),
        unacked_at_end,
        trace: ctx.trace.map(RefCell::into_inner),
    }
}

async fn client_loop(ctx: Rc<Ctx>, client: Rc<Client>, ci: usize, ops: Rc<[PlannedOp]>) {
    let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(ctx.window);
    for (j, &op) in ops.iter().enumerate() {
        if inflight.len() >= ctx.window {
            let oldest = inflight.pop_front().expect("window is full");
            reap(&ctx, oldest).await;
        }
        let id = ((ci as u64) << 32) | j as u64;
        let key = ctx.keys[op.key as usize].clone();
        ctx.tally.borrow_mut().attempted += 1;
        let issued = if op.write {
            let now = ctx.sim.now().as_nanos();
            ctx.oracle.borrow_mut().note_set(op.key, j % POOL_BUFS, now);
            client.iset(key, ctx.pool.value(j), 0, None).await
        } else {
            client.iget(key).await
        };
        match issued {
            Ok(handle) => inflight.push_back(InFlight { handle, op, id }),
            Err(e) => ctx
                .tally
                .borrow_mut()
                .fail(op.write, format!("op {id:#x}: issue failed: {e}")),
        }
        if ctx.batch_group > 0 && (j + 1) % ctx.batch_group == 0 {
            client.flush_batches();
        }
    }
    client.flush_batches();
    while let Some(f) = inflight.pop_front() {
        reap(&ctx, f).await;
    }
}

async fn reap(ctx: &Ctx, f: InFlight) {
    let done = match ctx.deadline {
        Some(d) => f.handle.wait_timeout(d).await.ok(),
        None => Some(f.handle.wait().await),
    };
    let Some(c) = done else {
        ctx.tally.borrow_mut().fail(
            f.op.write,
            format!("op {:#x}: no completion within the client deadline", f.id),
        );
        return;
    };
    let completed = c.completed_at.as_nanos();
    let verdict = match (f.op.write, c.status) {
        (true, OpStatus::Stored) => Ok(()),
        (false, OpStatus::Hit) => ctx
            .oracle
            .borrow()
            .check(f.op.key, c.value.as_deref().unwrap_or_default(), completed)
            .map_err(|e| (true, e)),
        (_, status) => Err((false, format!("status {status:?}"))),
    };
    if let Some(trace) = &ctx.trace {
        let mut rec = trace.borrow_mut();
        rec.reqs
            .push(ReqSpans::from_completion(f.id, f.op.write, &c));
        rec.reaps += 1;
        if rec.reaps % LAG_SAMPLE_EVERY == 0 {
            let lag = ctx.servers.iter().map(|s| s.repl_lag_ops()).max();
            rec.lag_max = rec.lag_max.max(lag.unwrap_or(0));
        }
    }
    let mut t = ctx.tally.borrow_mut();
    t.last_completion_ns = t.last_completion_ns.max(completed);
    match verdict {
        Ok(()) => {
            t.succeeded += 1;
            if f.op.write {
                t.set_ns.push(c.latency_ns());
            } else {
                t.get_ns.push(c.latency_ns());
            }
        }
        Err((wrong_value, why)) => {
            t.wrong_values += wrong_value as u64;
            t.fail(
                f.op.write,
                format!("op {:#x} key {}: {why}", f.id, f.op.key),
            );
        }
    }
}
