//! The discrete-event executor.
//!
//! A [`Sim`] owns a set of single-threaded async tasks and a timer heap
//! keyed by virtual time. Running the simulation alternates between two
//! phases:
//!
//! 1. **Drain**: poll every ready task until no task is runnable at the
//!    current virtual instant.
//! 2. **Advance**: pop the earliest timer event, jump the clock to its
//!    deadline, and fire it (waking a task or running a scheduled closure).
//!
//! Determinism: ready tasks run in wake order and timer events tie-break on
//! a monotonically increasing sequence number, so two runs of the same
//! program produce identical timelines.
//!
//! Cancellation: a [`crate::Sleep`] dropped before its deadline disarms its
//! timer in O(1) (see the timer store in `timers.rs`). A disarmed timer
//! never fires: the clock does not move to it and it is not counted as an
//! event. Whole tasks are cancelled by [`TaskGroup`]: see
//! [`TaskGroup::cancel`].
//!
//! Wakers: a task's [`Waker`] carries no pointer, only its Sim's id and its
//! task id packed into one integer. Waking it looks the id up in a
//! thread-local registry of the Sims alive on this thread and appends the
//! task id to that Sim's ready queue, so a wake takes no lock, no atomic
//! and no allocation. A waker whose Sim is gone, or that is woken on
//! another thread, finds no entry and does nothing. A fired timer whose
//! waker belongs to one of this Sim's own tasks skips even the lookup: the
//! task id goes straight onto the ready queue.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::task::{Context, Poll, RawWaker, RawWakerVTable, Waker};
use std::time::Duration;

use crate::task::JoinHandle;
use crate::time::SimTime;
use crate::timers::{Event, TimerHandle, TimerStore};

/// Identifier of a spawned task within one [`Sim`].
pub(crate) type TaskId = usize;

type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// Task ids in wake order, duplicates included: a task woken twice before
/// it runs is polled twice.
type ReadyQueue = RefCell<VecDeque<TaskId>>;

/// Bits of a waker's data word that hold the task id; the Sim id sits in
/// the bits above.
const TASK_BITS: u32 = usize::BITS / 2;

/// Source of Sim ids. Process-wide, so a waker carried to another thread
/// never matches a Sim living there.
static NEXT_SIM_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// Ready queues of the Sims created on this thread, by Sim id. Entries
    /// of dropped Sims fail to upgrade and are pruned when a Sim is created.
    static REGISTRY: RefCell<Vec<(usize, Weak<ReadyQueue>)>> = const { RefCell::new(Vec::new()) };
}

static TASK_WAKER_VTABLE: RawWakerVTable =
    RawWakerVTable::new(clone_task_waker, wake_task, wake_task, drop_task_waker);

fn clone_task_waker(data: *const ()) -> RawWaker {
    RawWaker::new(data, &TASK_WAKER_VTABLE)
}

fn wake_task(data: *const ()) {
    let data = data.addr();
    let (sim, task) = (data >> TASK_BITS, data & ((1 << TASK_BITS) - 1));
    // `try_with`: a wake during thread teardown finds no registry and is
    // dropped rather than panicking.
    let _ = REGISTRY.try_with(|registry| {
        let ready = registry
            .borrow()
            .iter()
            .rev()
            .find(|(id, _)| *id == sim)
            .and_then(|(_, ready)| ready.upgrade());
        if let Some(ready) = ready {
            ready.borrow_mut().push_back(task);
        }
    });
}

fn drop_task_waker(_: *const ()) {}

/// The waker of task `task` in the Sim with id `sim`.
fn task_waker(sim: usize, task: TaskId) -> Waker {
    let data = std::ptr::without_provenance::<()>(sim << TASK_BITS | task);
    // SAFETY: the vtable functions never dereference `data`; they only
    // read it as an integer. They touch nothing but a thread-local, so
    // calling them from any thread, any number of times, is sound.
    unsafe { Waker::from_raw(RawWaker::new(data, &TASK_WAKER_VTABLE)) }
}

struct TaskSlot {
    /// `None` while the task is being polled (taken out to avoid holding a
    /// `RefCell` borrow across user code).
    future: Option<LocalFuture>,
    /// Generation counter so a stale wake for a recycled slot is ignored.
    generation: u64,
    /// The task's [`TaskGroup`] id; 0 for an ungrouped task.
    group: u64,
}

nbkv_obs::counters! {
    /// Executor statistics: how much host work a run took, in polls and
    /// fired timers, plus the tasks and timers still live.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SimStats {
        /// Total tasks ever spawned.
        sum tasks_spawned: u64,
        /// Total `Future::poll` invocations.
        sum polls: u64,
        /// Timer events fired.
        sum timer_events: u64,
        /// Tasks currently alive (spawned and not yet complete).
        max tasks_alive: u64,
        /// Timers still due to fire: armed and neither fired nor cancelled.
        max timers_pending: u64,
    }
}

pub(crate) struct World {
    now: SimTime,
    timers: TimerStore,
    tasks: Vec<Option<TaskSlot>>,
    free: Vec<TaskId>,
    generations: Vec<u64>,
    seq: u64,
    last_group: u64,
    stats: SimStats,
}

impl World {
    pub(crate) fn new() -> Self {
        World {
            now: SimTime::ZERO,
            timers: TimerStore::default(),
            tasks: Vec::new(),
            free: Vec::new(),
            generations: Vec::new(),
            seq: 0,
            last_group: 0,
            stats: SimStats::default(),
        }
    }

    /// Arm `event` for `at`, clamped to now.
    pub(crate) fn arm(&mut self, at: SimTime, event: Event) -> TimerHandle {
        let at = at.max(self.now);
        self.seq += 1;
        self.timers.insert(at, self.seq, event)
    }

    /// Disarm the timer `handle`, armed for `deadline`. At or after the
    /// deadline this does nothing: a timer still queued at its own instant
    /// fires as a spurious wake, which callers observe (it is counted in
    /// `timer_events` and polls its task), so it must not be dropped here.
    pub(crate) fn disarm(&mut self, handle: TimerHandle, deadline: SimTime) {
        if self.now < deadline {
            self.timers.cancel(handle);
        }
    }

    /// The virtual clock.
    #[cfg(test)]
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Timers fired and still pending, as [`SimStats`] reports them.
    #[cfg(test)]
    pub(crate) fn timer_counts(&self) -> (u64, usize) {
        (self.stats.timer_events, self.timers.len())
    }

    /// Disarm every timer, as [`Sim::shutdown`] does.
    #[cfg(test)]
    pub(crate) fn clear_timers(&mut self) {
        self.timers.clear();
    }

    /// Take the earliest armed timer's event and move the clock to it.
    pub(crate) fn fire_next(&mut self) -> Option<Event> {
        let (at, event) = self.timers.pop()?;
        debug_assert!(at >= self.now, "timer heap went backwards");
        self.now = at;
        self.stats.timer_events += 1;
        Some(event)
    }
}

/// Tasks that end together, like the threads of one process: made by
/// [`Sim::group`], filled by [`Sim::spawn_in`].
pub struct TaskGroup {
    sim: Sim,
    id: u64,
}

impl TaskGroup {
    /// Drop every live task of the group inside this call, so destructors
    /// run at this instant (permits return, sleeps disarm). Each slot is
    /// retired, never reused: a later wake of it polls nothing.
    pub fn cancel(&self) {
        let dropped = {
            let mut w = self.sim.world.borrow_mut();
            let w = &mut *w;
            let mut dropped = Vec::new();
            for slot in &mut w.tasks {
                if slot.as_ref().is_some_and(|s| s.group == self.id) {
                    dropped.extend(slot.take().and_then(|s| s.future));
                    w.stats.tasks_alive -= 1;
                }
            }
            dropped
        };
        // Outside the borrow: destructors may disarm timers or wake tasks.
        drop(dropped);
    }
}

/// Handle to a discrete-event simulation.
///
/// Cloning is cheap (reference-counted); clone the handle into every task
/// that needs to read the clock, sleep, or spawn further tasks.
///
/// # Example
/// ```
/// use std::time::Duration;
/// use nbkv_simrt::Sim;
///
/// let sim = Sim::new();
/// let out = sim.run_until({
///     let sim = sim.clone();
///     async move {
///         sim.sleep(Duration::from_micros(3)).await;
///         sim.now().as_nanos()
///     }
/// });
/// assert_eq!(out, 3_000);
/// ```
#[derive(Clone)]
pub struct Sim {
    world: Rc<RefCell<World>>,
    ready: Rc<ReadyQueue>,
    /// This Sim's key in the waker registry.
    id: usize,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create a fresh simulation with the clock at zero.
    pub fn new() -> Self {
        let id = NEXT_SIM_ID.fetch_add(1, Ordering::Relaxed);
        assert!(id < 1 << (usize::BITS - TASK_BITS), "Sim ids exhausted");
        let ready = Rc::new(RefCell::new(VecDeque::new()));
        REGISTRY.with(|registry| {
            let mut registry = registry.borrow_mut();
            registry.retain(|(_, ready)| ready.strong_count() > 0);
            registry.push((id, Rc::downgrade(&ready)));
        });
        Sim {
            world: Rc::new(RefCell::new(World::new())),
            ready,
            id,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.world.borrow().now
    }

    /// Executor statistics snapshot.
    pub fn stats(&self) -> SimStats {
        let w = self.world.borrow();
        SimStats {
            timers_pending: w.timers.len() as u64,
            ..w.stats
        }
    }

    /// Spawn a task; it starts running at the current virtual instant.
    ///
    /// The returned [`JoinHandle`] can be awaited for the task's output, or
    /// dropped to detach the task.
    pub fn spawn<F>(&self, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.spawn_tagged(0, fut)
    }

    /// A new, empty task group (see [`Sim::spawn_in`]).
    pub fn group(&self) -> TaskGroup {
        let mut w = self.world.borrow_mut();
        w.last_group += 1;
        TaskGroup {
            sim: self.clone(),
            id: w.last_group,
        }
    }

    /// [`Sim::spawn`] into `group`, a group of this Sim. A cancelled task's
    /// [`JoinHandle`] never resolves.
    pub fn spawn_in<F>(&self, group: &TaskGroup, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        self.spawn_tagged(group.id, fut)
    }

    fn spawn_tagged<F>(&self, group: u64, fut: F) -> JoinHandle<F::Output>
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let (handle, complete) = JoinHandle::new_pair();
        let future: LocalFuture = Box::pin(async move {
            complete.finish(fut.await);
        });
        let id;
        {
            let mut w = self.world.borrow_mut();
            id = match w.free.pop() {
                Some(id) => id,
                None => {
                    w.tasks.push(None);
                    w.generations.push(0);
                    assert!(w.tasks.len() <= 1 << TASK_BITS, "task ids exhausted");
                    w.tasks.len() - 1
                }
            };
            let generation = w.generations[id];
            w.tasks[id] = Some(TaskSlot {
                future: Some(future),
                generation,
                group,
            });
            w.stats.tasks_spawned += 1;
            w.stats.tasks_alive += 1;
        }
        self.ready.borrow_mut().push_back(id);
        handle
    }

    /// Schedule `f` to run at virtual time `at` (clamped to now if in the
    /// past). Used by simulation components to model asynchronous hardware
    /// (e.g. "this packet arrives at `deliver_at`").
    pub fn schedule_at<F>(&self, at: SimTime, f: F)
    where
        F: FnOnce(&Sim) + 'static,
    {
        self.world.borrow_mut().arm(at, Event::Call(Box::new(f)));
    }

    /// Schedule `f` to run `after` from now.
    pub fn schedule_in<F>(&self, after: Duration, f: F)
    where
        F: FnOnce(&Sim) + 'static,
    {
        let at = self.now() + after;
        self.schedule_at(at, f);
    }

    /// Register `waker` to be woken at virtual time `at`. Returns the
    /// handle for [`Sim::cancel_timer`].
    pub(crate) fn register_timer(&self, at: SimTime, waker: Waker) -> TimerHandle {
        self.world.borrow_mut().arm(at, Event::Wake(waker))
    }

    /// Cancel the timer `handle`, registered for `deadline`, unless it
    /// already fired or the deadline has come (see `World::disarm`).
    pub(crate) fn cancel_timer(&self, handle: TimerHandle, deadline: SimTime) {
        // Called from `Drop`, which must not panic: should the world ever
        // be borrowed here, skip the cancel and leave a stale wake.
        if let Ok(mut w) = self.world.try_borrow_mut() {
            w.disarm(handle, deadline);
        }
    }

    /// Run the simulation until there is nothing left to do: no runnable
    /// task and no pending timer. Returns the final virtual time: that of
    /// the last live event, never a cancelled timer's deadline.
    ///
    /// Tasks still blocked on never-signalled wakers (e.g. a channel whose
    /// senders are all alive but idle) are left pending — this is the
    /// discrete-event notion of a quiescent (possibly deadlocked) system.
    pub fn run(&self) -> SimTime {
        loop {
            self.drain_ready();
            if !self.advance_clock() {
                break;
            }
        }
        self.now()
    }

    /// Spawn `fut` as the root task and run until it completes, returning
    /// its output.
    ///
    /// # Panics
    /// Panics if the simulation goes quiescent before the root task
    /// finishes (a deadlock in the simulated program).
    pub fn run_until<F>(&self, fut: F) -> F::Output
    where
        F: Future + 'static,
        F::Output: 'static,
    {
        let mut handle = self.spawn(fut);
        loop {
            self.drain_ready();
            if let Some(out) = handle.try_take() {
                return out;
            }
            if !self.advance_clock() {
                panic!(
                    "simulation quiesced at {} before the root task completed \
                     (deadlock in simulated program?)",
                    self.now()
                );
            }
        }
    }

    /// Tear down the simulation: drop every remaining task (including
    /// infinite server/worker loops) and all pending timers.
    ///
    /// Long-lived simulation components typically hold a `Sim` handle
    /// while their driver tasks live in the executor — a reference cycle
    /// (`world -> task -> component -> Sim -> world`) that keeps the whole
    /// object graph alive after `run_until` returns. Call `shutdown` when
    /// an experiment is finished to break the cycle and release memory;
    /// harness code that builds many simulations in one process must do
    /// this.
    pub fn shutdown(&self) {
        let dropped = {
            let mut w = self.world.borrow_mut();
            w.timers.clear();
            w.free.clear();
            w.stats.tasks_alive = 0;
            // Futures may themselves own Sim handles; take them out before
            // dropping so re-entrant drops see a consistent world.
            w.tasks
                .iter_mut()
                .filter_map(Option::take)
                .collect::<Vec<_>>()
        };
        drop(dropped);
        self.ready.borrow_mut().clear();
    }

    /// Poll every ready task until the ready queue is empty.
    fn drain_ready(&self) {
        loop {
            let id = self.ready.borrow_mut().pop_front();
            match id {
                Some(id) => self.poll_task(id),
                None => break,
            }
        }
    }

    /// Fire the earliest live timer event, advancing the clock. Returns
    /// false if no live timers remain.
    fn advance_clock(&self) -> bool {
        let Some(event) = self.world.borrow_mut().fire_next() else {
            return false;
        };
        match event {
            // One of this Sim's own tasks: queue it as `wake_task` would,
            // without the registry lookup.
            Event::Wake(waker)
                if std::ptr::eq(waker.vtable(), &TASK_WAKER_VTABLE)
                    && waker.data().addr() >> TASK_BITS == self.id =>
            {
                let task = waker.data().addr() & ((1 << TASK_BITS) - 1);
                self.ready.borrow_mut().push_back(task);
            }
            Event::Wake(waker) => waker.wake(),
            Event::Call(f) => f(self),
        }
        true
    }

    fn poll_task(&self, id: TaskId) {
        // Take the future out so no RefCell borrow is held across user code
        // (which may spawn, wake, or schedule re-entrantly).
        let (mut future, generation) = {
            let mut w = self.world.borrow_mut();
            let taken = match w.tasks.get_mut(id).and_then(Option::as_mut) {
                // Stale wake (task finished) or re-entrant poll: skip.
                None => return,
                Some(slot) => match slot.future.take() {
                    None => return,
                    Some(future) => (future, slot.generation),
                },
            };
            w.stats.polls += 1;
            taken
        };

        let waker = task_waker(self.id, id);
        let mut cx = Context::from_waker(&waker);
        let poll = future.as_mut().poll(&mut cx);

        let mut w = self.world.borrow_mut();
        match poll {
            Poll::Ready(()) => {
                // Guard against the slot having been recycled while the
                // future ran (cannot normally happen, but cheap to check).
                let matches = w
                    .tasks
                    .get(id)
                    .and_then(Option::as_ref)
                    .is_some_and(|s| s.generation == generation);
                if matches {
                    w.tasks[id] = None;
                    w.generations[id] += 1;
                    w.free.push(id);
                    w.stats.tasks_alive -= 1;
                }
            }
            Poll::Pending => {
                if let Some(Some(slot)) = w.tasks.get_mut(id) {
                    if slot.generation == generation {
                        slot.future = Some(future);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    #[test]
    fn clock_starts_at_zero() {
        let sim = Sim::new();
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn run_until_returns_output() {
        let sim = Sim::new();
        let v = sim.run_until(async { 41 + 1 });
        assert_eq!(v, 42);
    }

    #[test]
    fn sleep_advances_virtual_clock_only() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let wall = std::time::Instant::now();
        sim.run_until(async move {
            sim2.sleep(Duration::from_secs(3600)).await;
        });
        assert_eq!(sim.now(), SimTime::ZERO + Duration::from_secs(3600));
        // An hour of virtual time takes (much) less than a second of wall time.
        assert!(wall.elapsed() < std::time::Duration::from_secs(1));
    }

    #[test]
    fn scheduled_calls_fire_in_time_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for (delay_us, tag) in [(30u64, 3u32), (10, 1), (20, 2)] {
            let log = Rc::clone(&log);
            sim.schedule_in(Duration::from_micros(delay_us), move |_| {
                log.borrow_mut().push(tag);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_in_submission_order() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        for tag in 0..10u32 {
            let log = Rc::clone(&log);
            sim.schedule_in(Duration::from_micros(5), move |_| {
                log.borrow_mut().push(tag);
            });
        }
        sim.run();
        assert_eq!(*log.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn spawned_tasks_interleave_deterministically() {
        let sim = Sim::new();
        let log: Rc<RefCell<Vec<(u64, u32)>>> = Rc::new(RefCell::new(Vec::new()));
        for id in 0..3u32 {
            let sim2 = sim.clone();
            let log = Rc::clone(&log);
            sim.spawn(async move {
                for step in 0..3u32 {
                    sim2.sleep(Duration::from_micros(10 * (id as u64 + 1)))
                        .await;
                    log.borrow_mut()
                        .push((sim2.now().as_nanos() / 1_000, id * 10 + step));
                }
            });
        }
        sim.run();
        let got = log.borrow().clone();
        // Tasks 0/1/2 sleep in 10/20/30us periods; ties break by timer
        // registration order (task1's t=20 timer was registered at t=0,
        // before task0's, which was registered at t=10).
        let expected = vec![
            (10, 0),
            (20, 10),
            (20, 1),
            (30, 20),
            (30, 2),
            (40, 11),
            (60, 21),
            (60, 12),
            (90, 22),
        ];
        assert_eq!(got, expected);
    }

    #[test]
    fn run_is_deterministic_across_runs() {
        fn timeline() -> Vec<u64> {
            let sim = Sim::new();
            let log: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
            for i in 1..=20u64 {
                let sim2 = sim.clone();
                let log = Rc::clone(&log);
                sim.spawn(async move {
                    sim2.sleep(Duration::from_nanos(i * 7 % 13)).await;
                    log.borrow_mut().push(sim2.now().as_nanos() * 100 + i);
                });
            }
            sim.run();
            let out = log.borrow().clone();
            out
        }
        assert_eq!(timeline(), timeline());
    }

    #[test]
    fn schedule_at_in_past_is_clamped_to_now() {
        let sim = Sim::new();
        let fired_at: Rc<Cell<u64>> = Rc::new(Cell::new(u64::MAX));
        let sim2 = sim.clone();
        let fired = Rc::clone(&fired_at);
        sim.run_until(async move {
            sim2.sleep(Duration::from_micros(100)).await;
            let f = Rc::clone(&fired);
            let s3 = sim2.clone();
            sim2.schedule_at(SimTime::from_micros(1), move |sim| {
                f.set(sim.now().as_nanos());
            });
            s3.sleep(Duration::from_micros(1)).await;
        });
        assert_eq!(fired_at.get(), 100_000);
    }

    #[test]
    fn stats_count_tasks_and_events() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let hs: Vec<_> = (0..5)
                .map(|_| {
                    let s = sim2.clone();
                    sim2.spawn(async move { s.sleep(Duration::from_micros(1)).await })
                })
                .collect();
            for h in hs {
                h.await;
            }
        });
        let stats = sim.stats();
        assert_eq!(stats.tasks_spawned, 6); // root + 5
        assert_eq!(stats.tasks_alive, 0);
        assert!(stats.timer_events >= 5);
        assert!(stats.polls >= 11);
    }

    #[test]
    fn shutdown_drops_leaked_task_graphs() {
        struct Component {
            sim: Sim, // cycle: world -> task -> component -> sim -> world
            payload: Vec<u8>,
        }
        let observer: Rc<RefCell<Vec<u8>>> = Rc::new(RefCell::new(Vec::new()));
        let weak = {
            let sim = Sim::new();
            let comp = Rc::new(Component {
                sim: sim.clone(),
                payload: vec![7u8; 1024],
            });
            let weak = Rc::downgrade(&comp);
            let obs = Rc::clone(&observer);
            sim.spawn(async move {
                // Infinite loop holding the component alive.
                loop {
                    obs.borrow_mut().push(comp.payload[0]);
                    comp.sim.sleep(Duration::from_micros(10)).await;
                }
            });
            let s2 = sim.clone();
            sim.run_until(async move { s2.sleep(Duration::from_micros(35)).await });
            assert!(weak.upgrade().is_some(), "task keeps component alive");
            sim.shutdown();
            weak
        };
        assert!(weak.upgrade().is_none(), "shutdown must break the cycle");
        assert_eq!(observer.borrow().len(), 4); // t=0,10,20,30
    }

    /// Poll `sleep` once from inside a task so its timer is registered.
    async fn arm(sleep: &mut crate::Sleep) {
        std::future::poll_fn(|cx| {
            assert!(Pin::new(&mut *sleep).poll(cx).is_pending());
            Poll::Ready(())
        })
        .await
    }

    #[test]
    fn early_finishing_timeouts_leave_no_timers() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            for _ in 0..10_000 {
                let s = sim2.clone();
                let fut = async move { s.sleep(Duration::from_micros(1)).await };
                let out = crate::timeout(&sim2, Duration::from_millis(500), fut).await;
                assert!(out.is_ok());
            }
            assert_eq!(sim2.now(), SimTime::from_micros(10_000));
            assert!(sim2.stats().timers_pending <= 1, "{:?}", sim2.stats());
            // Compaction keeps the heap itself small, not just the count.
            assert!(sim2.world.borrow().timers.heap_len() <= 4);
        });
        // Only the 10,000 inner sleeps fired; no 500 ms deadline did.
        assert_eq!(sim.stats().timer_events, 10_000);
        assert_eq!(sim.stats().timers_pending, 0);
    }

    #[test]
    fn run_ends_at_last_live_event_not_a_dropped_deadline() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.spawn(async move {
            let inner = s.clone();
            let fut = async move { inner.sleep(Duration::from_micros(10)).await };
            crate::timeout(&s, Duration::from_secs(1), fut)
                .await
                .unwrap();
        });
        assert_eq!(sim.run(), SimTime::from_micros(10));
        assert_eq!(sim.stats().timer_events, 1);
    }

    #[test]
    fn sleep_dropped_at_its_deadline_is_not_cancelled() {
        // Same instant, entry still queued: the timeout's deadline entry
        // (registered after the inner sleep) has not fired when the timeout
        // completes and drops it. It must stay queued and fire harmlessly.
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let inner = s.clone();
            let fut = async move { inner.sleep(Duration::from_micros(10)).await };
            crate::timeout(&s, Duration::from_micros(10), fut)
                .await
                .unwrap();
            assert_eq!(s.stats().timers_pending, 1, "tied deadline not cancelled");
        });
        assert_eq!(sim.run(), SimTime::from_micros(10));
        assert_eq!(sim.stats().timers_pending, 0);

        // Same instant, entry already fired: dropping the sleep afterwards
        // must not mark a seq that is no longer in the heap.
        let sim = Sim::new();
        let s = sim.clone();
        sim.run_until(async move {
            let mut first = s.sleep(Duration::from_micros(5));
            arm(&mut first).await;
            // `first`'s entry fires and wakes the task; this second sleep
            // is then already due, so its own entry is still queued.
            s.sleep(Duration::from_micros(5)).await;
            assert_eq!(s.stats().timer_events, 1);
            drop(first);
            assert_eq!(s.stats().timers_pending, 1, "only the second's entry");
        });
        assert_eq!(sim.run(), SimTime::from_micros(5));
        assert_eq!(sim.stats().timer_events, 2);
        assert_eq!(sim.stats().timers_pending, 0);
    }

    #[test]
    fn shutdown_with_cancelled_entries_outstanding() {
        let sim = Sim::new();
        let stray: Rc<RefCell<Option<crate::Sleep>>> = Rc::new(RefCell::new(None));
        for i in 0..10u64 {
            let s = sim.clone();
            sim.spawn(async move { s.sleep(Duration::from_millis(100 + i)).await });
        }
        let s = sim.clone();
        let keep = Rc::clone(&stray);
        sim.run_until(async move {
            // Three cancelled entries: fewer than half, so no compaction.
            for _ in 0..3 {
                let mut sl = s.sleep(Duration::from_millis(50));
                arm(&mut sl).await;
            }
            let mut held = s.sleep(Duration::from_millis(70));
            arm(&mut held).await;
            *keep.borrow_mut() = Some(held);
        });
        assert_eq!(sim.stats().timers_pending, 11);
        assert_eq!(sim.world.borrow().timers.heap_len(), 14, "3 dead keys");
        sim.shutdown();
        assert_eq!(sim.stats().timers_pending, 0);
        // A sleep that outlived its simulation's shutdown drops cleanly and
        // does not cancel an unrelated entry queued after the shutdown.
        for _ in 0..3 {
            sim.schedule_in(Duration::from_millis(1), |_| {});
        }
        stray.borrow_mut().take();
        assert_eq!(sim.stats().timers_pending, 3);
        assert_eq!(sim.run(), SimTime::from_micros(1_000));
        assert_eq!(sim.stats().timers_pending, 0);
    }

    /// Spawn a task that, on every poll, logs `tag`, stashes its waker in
    /// the returned cell and stays pending.
    fn parked(sim: &Sim, tag: u32, log: &Rc<RefCell<Vec<u32>>>) -> Rc<RefCell<Option<Waker>>> {
        let stash: Rc<RefCell<Option<Waker>>> = Rc::default();
        let (keep, log) = (Rc::clone(&stash), Rc::clone(log));
        sim.spawn(std::future::poll_fn(move |cx| {
            log.borrow_mut().push(tag);
            *keep.borrow_mut() = Some(cx.waker().clone());
            Poll::<()>::Pending
        }));
        stash
    }

    fn stashed(stash: &Rc<RefCell<Option<Waker>>>) -> Waker {
        stash.borrow().clone().expect("task was polled")
    }

    #[test]
    fn waker_outliving_shutdown_or_its_sim_does_nothing() {
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let sim = Sim::new();
        let stash = parked(&sim, 1, &log);
        sim.run();
        let waker = stashed(&stash);
        sim.shutdown();
        waker.wake_by_ref();
        // A task spawned after the shutdown runs; the stale wake polls
        // nothing.
        let fresh = parked(&sim, 2, &log);
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2]);
        assert_eq!(sim.stats().polls, 2);
        sim.shutdown();
        drop((sim, fresh));

        // The Sim is gone; a Sim created since gets a new id, so the old
        // waker cannot reach its tasks either.
        let next = Sim::new();
        let _keep = parked(&next, 3, &log);
        next.run();
        waker.wake();
        next.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
        assert_eq!(next.stats().polls, 1);
        next.shutdown();
    }

    #[test]
    fn two_sims_on_one_thread_never_wake_each_others_tasks() {
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let (a, b) = (Sim::new(), Sim::new());
        // Both tasks have task id 0 in their own Sim.
        let (stash_a, stash_b) = (parked(&a, 10, &log), parked(&b, 20, &log));
        a.run();
        b.run();
        let (wake_a, wake_b) = (stashed(&stash_a), stashed(&stash_b));
        assert_eq!(*log.borrow(), vec![10, 20]);
        wake_a.wake_by_ref();
        b.run();
        assert_eq!(*log.borrow(), vec![10, 20], "b ran nothing");
        a.run();
        assert_eq!(*log.borrow(), vec![10, 20, 10]);
        wake_b.wake_by_ref();
        a.run();
        b.run();
        assert_eq!(*log.borrow(), vec![10, 20, 10, 20]);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn wake_from_another_thread_is_ignored() {
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let sim = Sim::new();
        let stash = parked(&sim, 1, &log);
        sim.run();
        let waker = stashed(&stash);
        std::thread::scope(|s| {
            s.spawn(|| waker.wake_by_ref());
            let moved = waker.clone();
            s.spawn(move || moved.wake());
        });
        sim.run();
        assert_eq!(*log.borrow(), vec![1]);
        assert_eq!(sim.stats().polls, 1);
        sim.shutdown();
    }

    #[test]
    fn task_woken_twice_is_polled_twice_in_fifo_order() {
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let sim = Sim::new();
        let (stash_a, stash_b) = (parked(&sim, 1, &log), parked(&sim, 2, &log));
        sim.run();
        let (wake_a, wake_b) = (stashed(&stash_a), stashed(&stash_b));
        log.borrow_mut().clear();
        wake_a.wake_by_ref();
        wake_b.wake_by_ref();
        wake_a.wake_by_ref();
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 1]);
        assert_eq!(sim.stats().polls, 5);
        sim.shutdown();
    }

    /// A grouped task that holds `sem`'s permit and then sleeps for an hour.
    fn holder(sim: &Sim, group: &TaskGroup, sem: &crate::Semaphore) {
        let (s, sem) = (sim.clone(), sem.clone());
        sim.spawn_in(group, async move {
            let _permit = sem.acquire().await;
            s.sleep(Duration::from_secs(3600)).await;
        });
    }

    #[test]
    fn cancel_runs_destructors_at_the_instant_and_disarms_timers() {
        let sim = Sim::new();
        let (group, sem) = (sim.group(), crate::Semaphore::new(1));
        holder(&sim, &group, &sem);
        let got_at: Rc<Cell<Option<SimTime>>> = Rc::default();
        let (s, sem2, got) = (sim.clone(), sem.clone(), Rc::clone(&got_at));
        sim.spawn(async move {
            let _permit = sem2.acquire().await;
            got.set(Some(s.now()));
        });
        let s = sim.clone();
        sim.run_until(async move {
            s.sleep(Duration::from_micros(10)).await;
            assert_eq!(s.stats().timers_pending, 1, "the holder's hour-long sleep");
            let alive = s.stats().tasks_alive;
            group.cancel();
            assert_eq!(s.stats().tasks_alive, alive - 1);
            assert_eq!(s.stats().timers_pending, 0, "the holder's sleep disarmed");
        });
        // The permit came back inside `cancel`, so the waiter got it at once.
        assert_eq!(got_at.get(), Some(SimTime::from_micros(10)));
        assert_eq!(
            sim.run(),
            SimTime::from_micros(10),
            "the clock never moves to the hour"
        );
        assert_eq!(sim.stats().tasks_alive, 0);
    }

    #[test]
    fn cancel_ends_only_its_group_and_stale_wakes_poll_nothing() {
        let log: Rc<RefCell<Vec<u32>>> = Rc::default();
        let sim = Sim::new();
        let (doomed, kept) = (sim.group(), sim.group());
        let park_in = |group: &TaskGroup, tag: u32| {
            let stash: Rc<RefCell<Option<Waker>>> = Rc::default();
            let (keep, log) = (Rc::clone(&stash), Rc::clone(&log));
            sim.spawn_in(
                group,
                std::future::poll_fn(move |cx| {
                    log.borrow_mut().push(tag);
                    *keep.borrow_mut() = Some(cx.waker().clone());
                    Poll::<()>::Pending
                }),
            );
            stash
        };
        let victims = [park_in(&doomed, 1), park_in(&doomed, 2)];
        let other = park_in(&kept, 3);
        let plain = parked(&sim, 4, &log);
        sim.run();
        assert_eq!(sim.stats().tasks_alive, 4);
        doomed.cancel();
        assert_eq!(sim.stats().tasks_alive, 2, "two tasks cancelled");
        let polls = sim.stats().polls;
        for victim in &victims {
            stashed(victim).wake_by_ref();
        }
        sim.run();
        assert_eq!(sim.stats().polls, polls, "stale wakes poll nothing");
        // The other group and the ungrouped task still run, and a task
        // spawned into the cancelled group after the cancel runs too.
        stashed(&other).wake_by_ref();
        stashed(&plain).wake_by_ref();
        let _late = park_in(&doomed, 5);
        sim.run();
        assert_eq!(*log.borrow(), vec![1, 2, 3, 4, 3, 4, 5]);
        assert_eq!(sim.stats().tasks_alive, 3);
        sim.shutdown();
    }

    #[test]
    #[should_panic(expected = "quiesced")]
    fn run_until_panics_on_deadlock() {
        let sim = Sim::new();
        sim.run_until(async {
            std::future::pending::<()>().await;
        });
    }
}
