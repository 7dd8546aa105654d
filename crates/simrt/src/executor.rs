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
//! Cancellation: a [`crate::Sleep`] dropped before its deadline marks its
//! heap entry cancelled. Cancelled entries are skipped when popped (the
//! clock does not move to them and they are not counted as events), and the
//! heap is compacted once they outnumber the live ones, so the heap holds
//! roughly the live timers rather than every deadline ever armed.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::time::Duration;

use parking_lot::Mutex;

use crate::task::JoinHandle;
use crate::time::SimTime;

/// Identifier of a spawned task within one [`Sim`].
pub(crate) type TaskId = usize;

type LocalFuture = Pin<Box<dyn Future<Output = ()>>>;

/// A timer-heap event: either wake a waiting future or run a closure at a
/// scheduled virtual instant.
enum Event {
    Wake(Waker),
    Call(Box<dyn FnOnce(&Sim)>),
}

struct TimerEntry {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Waker state shared with the (conceptually external) wake path.
///
/// `Waker` must be `Send + Sync`, so the ready queue lives behind a
/// [`Mutex`] even though the simulation itself is single-threaded; the lock
/// is never contended.
struct Shared {
    ready: Mutex<VecDeque<TaskId>>,
}

struct TaskWaker {
    id: TaskId,
    shared: Arc<Shared>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.shared.ready.lock().push_back(self.id);
    }
}

struct TaskSlot {
    /// `None` while the task is being polled (taken out to avoid holding a
    /// `RefCell` borrow across user code).
    future: Option<LocalFuture>,
    waker: Waker,
    /// Generation counter so a stale wake for a recycled slot is ignored.
    generation: u64,
}

/// Executor statistics, exposed for tests and debugging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Total tasks ever spawned.
    pub tasks_spawned: u64,
    /// Total `Future::poll` invocations.
    pub polls: u64,
    /// Timer events fired.
    pub timer_events: u64,
    /// Tasks currently alive (spawned and not yet complete).
    pub tasks_alive: u64,
    /// Timers still due to fire: heap entries minus cancelled ones.
    pub timers_pending: u64,
}

struct World {
    now: SimTime,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    /// Seqs of heap entries whose `Sleep` was dropped before the deadline.
    /// Every member is still in `timers`.
    cancelled: HashSet<u64>,
    /// Seqs at or below this were discarded by `shutdown`; cancelling one
    /// is a no-op.
    cleared_through: u64,
    tasks: Vec<Option<TaskSlot>>,
    free: Vec<TaskId>,
    generations: Vec<u64>,
    seq: u64,
    stats: SimStats,
}

impl World {
    fn new() -> Self {
        World {
            now: SimTime::ZERO,
            timers: BinaryHeap::new(),
            cancelled: HashSet::new(),
            cleared_through: 0,
            tasks: Vec::new(),
            free: Vec::new(),
            generations: Vec::new(),
            seq: 0,
            stats: SimStats::default(),
        }
    }

    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
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
    shared: Arc<Shared>,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    /// Create a fresh simulation with the clock at zero.
    pub fn new() -> Self {
        Sim {
            world: Rc::new(RefCell::new(World::new())),
            shared: Arc::new(Shared {
                ready: Mutex::new(VecDeque::new()),
            }),
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
            timers_pending: (w.timers.len() - w.cancelled.len()) as u64,
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
        let (handle, complete) = JoinHandle::new_pair();
        let wrapped: LocalFuture = Box::pin(async move {
            complete.finish(fut.await);
        });
        self.spawn_raw(wrapped);
        handle
    }

    fn spawn_raw(&self, future: LocalFuture) {
        let id;
        {
            let mut w = self.world.borrow_mut();
            id = match w.free.pop() {
                Some(id) => id,
                None => {
                    w.tasks.push(None);
                    w.generations.push(0);
                    w.tasks.len() - 1
                }
            };
            let waker = Waker::from(Arc::new(TaskWaker {
                id,
                shared: Arc::clone(&self.shared),
            }));
            let generation = w.generations[id];
            w.tasks[id] = Some(TaskSlot {
                future: Some(future),
                waker,
                generation,
            });
            w.stats.tasks_spawned += 1;
            w.stats.tasks_alive += 1;
        }
        self.shared.ready.lock().push_back(id);
    }

    /// Schedule `f` to run at virtual time `at` (clamped to now if in the
    /// past). Used by simulation components to model asynchronous hardware
    /// (e.g. "this packet arrives at `deliver_at`").
    pub fn schedule_at<F>(&self, at: SimTime, f: F)
    where
        F: FnOnce(&Sim) + 'static,
    {
        let mut w = self.world.borrow_mut();
        let at = at.max(w.now);
        let seq = w.next_seq();
        w.timers.push(Reverse(TimerEntry {
            at,
            seq,
            event: Event::Call(Box::new(f)),
        }));
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
    /// entry's seq, the handle for [`Sim::cancel_timer`].
    pub(crate) fn register_timer(&self, at: SimTime, waker: Waker) -> u64 {
        let mut w = self.world.borrow_mut();
        let at = at.max(w.now);
        let seq = w.next_seq();
        w.timers.push(Reverse(TimerEntry {
            at,
            seq,
            event: Event::Wake(waker),
        }));
        seq
    }

    /// Cancel the timer entry `seq`, registered for `deadline`. The caller
    /// must only cancel an entry that has not fired: that holds while
    /// `now < deadline`, so at or after the deadline this does nothing and
    /// the entry (if still queued) fires as a harmless spurious wake.
    pub(crate) fn cancel_timer(&self, seq: u64, deadline: SimTime) {
        // Called from `Drop`, which must not panic: should the world ever
        // be borrowed here, skip the cancel and leave a stale wake.
        let Ok(mut w) = self.world.try_borrow_mut() else {
            return;
        };
        if w.now >= deadline || seq <= w.cleared_through {
            return;
        }
        w.cancelled.insert(seq);
        if w.cancelled.len() * 2 > w.timers.len() {
            let World {
                timers, cancelled, ..
            } = &mut *w;
            timers.retain(|Reverse(e)| !cancelled.contains(&e.seq));
            cancelled.clear();
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
            w.cancelled.clear();
            w.cleared_through = w.seq;
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
        self.shared.ready.lock().clear();
    }

    /// Poll every ready task until the ready queue is empty.
    fn drain_ready(&self) {
        loop {
            let id = { self.shared.ready.lock().pop_front() };
            match id {
                Some(id) => self.poll_task(id),
                None => break,
            }
        }
    }

    /// Fire the earliest live timer event, advancing the clock. Returns
    /// false if no live timers remain.
    fn advance_clock(&self) -> bool {
        let entry = {
            let mut w = self.world.borrow_mut();
            loop {
                let Some(Reverse(e)) = w.timers.pop() else {
                    return false;
                };
                if !w.cancelled.is_empty() && w.cancelled.remove(&e.seq) {
                    continue;
                }
                debug_assert!(e.at >= w.now, "timer heap went backwards");
                w.now = e.at;
                w.stats.timer_events += 1;
                break e;
            }
        };
        match entry.event {
            Event::Wake(waker) => waker.wake(),
            Event::Call(f) => f(self),
        }
        true
    }

    fn poll_task(&self, id: TaskId) {
        // Take the future out so no RefCell borrow is held across user code
        // (which may spawn, wake, or schedule re-entrantly).
        let (mut future, waker, generation) = {
            let mut w = self.world.borrow_mut();
            let taken = match w.tasks.get_mut(id).and_then(Option::as_mut) {
                // Stale wake (task finished) or re-entrant poll: skip.
                None => return,
                Some(slot) => match slot.future.take() {
                    None => return,
                    Some(future) => (future, slot.waker.clone(), slot.generation),
                },
            };
            w.stats.polls += 1;
            taken
        };

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
            assert!(sim2.world.borrow().timers.len() <= 4);
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
        assert_eq!(sim.world.borrow().cancelled.len(), 3);
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

    #[test]
    #[should_panic(expected = "quiesced")]
    fn run_until_panics_on_deadlock() {
        let sim = Sim::new();
        sim.run_until(async {
            std::future::pending::<()>().await;
        });
    }
}
