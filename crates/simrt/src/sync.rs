//! Synchronization primitives for simulation tasks: semaphore and notify.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

struct SemWaiter {
    fired: Rc<std::cell::Cell<bool>>,
    waker: Waker,
}

struct SemState {
    permits: usize,
    waiters: VecDeque<SemWaiter>,
}

/// A counting semaphore over virtual time.
///
/// Used to model bounded resources: server staging-queue slots, device queue
/// depth, client send-window credits.
#[derive(Clone)]
pub struct Semaphore {
    state: Rc<RefCell<SemState>>,
}

impl Semaphore {
    /// Create a semaphore with `permits` initially available.
    pub fn new(permits: usize) -> Self {
        Semaphore {
            state: Rc::new(RefCell::new(SemState {
                permits,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Permits currently available.
    pub fn available(&self) -> usize {
        self.state.borrow().permits
    }

    /// Acquire one permit, waiting in virtual time if none is available.
    /// The permit is released when the returned guard drops.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            sem: self.clone(),
            fired: Rc::new(std::cell::Cell::new(false)),
            queued: false,
        }
    }

    /// Add `n` permits (waking up to `n` waiters).
    pub fn add_permits(&self, n: usize) {
        let mut s = self.state.borrow_mut();
        s.permits += n;
        let mut to_wake = n;
        while to_wake > 0 {
            // Skip entries whose wakeup already fired (abandoned or
            // duplicate waiters) so a permit's wakeup is never consumed by
            // a dead entry while a live waiter sleeps.
            match s.waiters.pop_front() {
                Some(w) if !w.fired.get() => {
                    w.fired.set(true);
                    w.waker.wake();
                    to_wake -= 1;
                }
                Some(_) => {}
                None => break,
            }
        }
    }
}

/// RAII permit; returns its permit to the semaphore on drop.
pub struct Permit {
    sem: Semaphore,
}

impl Permit {
    /// Release without returning the permit (consume it permanently).
    pub fn forget(self) {
        std::mem::forget(self);
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.sem.add_permits(1);
    }
}

/// Future returned by [`Semaphore::acquire`].
pub struct Acquire {
    sem: Semaphore,
    /// Set when a wakeup was spent on this waiter; distinguishes a real
    /// semaphore wakeup from a stale wake of the owning task.
    fired: Rc<std::cell::Cell<bool>>,
    queued: bool,
}

impl Future for Acquire {
    type Output = Permit;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        let this = self.get_mut();
        let mut s = this.sem.state.borrow_mut();
        if s.permits > 0 {
            s.permits -= 1;
            drop(s);
            this.fired.set(true); // our queue entry (if any) is now dead
            Poll::Ready(Permit {
                sem: this.sem.clone(),
            })
        } else {
            // Queue once; re-queue only if our wakeup was consumed but the
            // permit was stolen by a barger (fired && still no permit).
            if !this.queued || this.fired.get() {
                this.fired = Rc::new(std::cell::Cell::new(false));
                s.waiters.push_back(SemWaiter {
                    fired: Rc::clone(&this.fired),
                    waker: cx.waker().clone(),
                });
                this.queued = true;
            }
            Poll::Pending
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        if !self.queued {
            return;
        }
        if self.fired.get() {
            // Our wakeup may have been spent on us without the permit being
            // taken (e.g. the acquire lost a timeout race). Pass the baton
            // so an available permit is not stranded; a spurious wake of a
            // waiter that then finds no permit is harmless.
            let mut s = self.sem.state.borrow_mut();
            if s.permits > 0 {
                while let Some(w) = s.waiters.pop_front() {
                    if !w.fired.get() {
                        w.fired.set(true);
                        w.waker.wake();
                        break;
                    }
                }
            }
        } else {
            // Remove our dead entry so future permits skip it cheaply.
            let ptr = Rc::as_ptr(&self.fired);
            self.sem
                .state
                .borrow_mut()
                .waiters
                .retain(|w| Rc::as_ptr(&w.fired) != ptr);
        }
    }
}

// ---------------------------------------------------------------------------
// Notify
// ---------------------------------------------------------------------------

struct NotifyWaiter {
    fired: Rc<std::cell::Cell<bool>>,
    waker: Waker,
}

struct NotifyState {
    /// A stored wakeup for the next waiter (tokio-style single permit).
    pending: bool,
    waiters: VecDeque<NotifyWaiter>,
}

/// Edge-triggered task notification.
///
/// `notify_one` stores a single wakeup if nobody is waiting, so a
/// notification sent just before `notified().await` is not lost.
#[derive(Clone)]
pub struct Notify {
    state: Rc<RefCell<NotifyState>>,
}

impl Default for Notify {
    fn default() -> Self {
        Self::new()
    }
}

impl Notify {
    /// Create a new notifier with no stored notification.
    pub fn new() -> Self {
        Notify {
            state: Rc::new(RefCell::new(NotifyState {
                pending: false,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// Wake one waiter, or store the notification if none is waiting.
    pub fn notify_one(&self) {
        let mut s = self.state.borrow_mut();
        // Skip entries whose notification already fired (duplicates or
        // abandoned waiters) so the permit is not consumed by a dead waiter.
        while let Some(w) = s.waiters.pop_front() {
            if !w.fired.get() {
                w.fired.set(true);
                w.waker.wake();
                return;
            }
        }
        s.pending = true;
    }

    /// Wake all current waiters (does not store a notification).
    pub fn notify_waiters(&self) {
        let mut s = self.state.borrow_mut();
        while let Some(w) = s.waiters.pop_front() {
            w.fired.set(true);
            w.waker.wake();
        }
    }

    /// Wait for a notification.
    pub fn notified(&self) -> Notified {
        Notified {
            notify: self.clone(),
            fired: Rc::new(std::cell::Cell::new(false)),
            queued: false,
        }
    }
}

/// Future returned by [`Notify::notified`].
pub struct Notified {
    notify: Notify,
    /// Set by the notifier; distinguishes a real notification from a stale
    /// wake of the owning task.
    fired: Rc<std::cell::Cell<bool>>,
    queued: bool,
}

impl Future for Notified {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if this.fired.get() {
            return Poll::Ready(());
        }
        let mut s = this.notify.state.borrow_mut();
        if !this.queued {
            if s.pending {
                s.pending = false;
                this.fired.set(true);
                return Poll::Ready(());
            }
            s.waiters.push_back(NotifyWaiter {
                fired: Rc::clone(&this.fired),
                waker: cx.waker().clone(),
            });
            this.queued = true;
        }
        // Already queued: a spurious wake of the task; our entry is still in
        // the waiters queue, so just stay pending.
        Poll::Pending
    }
}

impl Drop for Notified {
    fn drop(&mut self) {
        if self.queued && !self.fired.get() {
            // Remove our queue entries so a future notify_one is not wasted
            // on a dead waiter.
            let ptr = Rc::as_ptr(&self.fired);
            self.notify
                .state
                .borrow_mut()
                .waiters
                .retain(|w| Rc::as_ptr(&w.fired) != ptr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sim;
    use std::time::Duration;

    #[test]
    fn semaphore_limits_concurrency() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let sem = Semaphore::new(2);
            let hs: Vec<_> = (0..6)
                .map(|_| {
                    let sem = sem.clone();
                    let s = sim2.clone();
                    sim2.spawn(async move {
                        let _p = sem.acquire().await;
                        s.sleep(Duration::from_micros(10)).await;
                        s.now().as_nanos() / 1_000
                    })
                })
                .collect();
            let mut done = Vec::new();
            for h in hs {
                done.push(h.await);
            }
            // 6 tasks, 2 at a time, 10us each -> finish at 10, 10, 20, 20, 30, 30.
            assert_eq!(done, vec![10, 10, 20, 20, 30, 30]);
        });
    }

    #[test]
    fn forget_consumes_the_permit() {
        let sim = Sim::new();
        sim.run_until(async {
            let sem = Semaphore::new(1);
            sem.acquire().await.forget();
            assert_eq!(sem.available(), 0);
            sem.add_permits(1);
            assert_eq!(sem.available(), 1);
        });
    }

    #[test]
    fn permit_released_on_drop() {
        let sim = Sim::new();
        sim.run_until(async {
            let sem = Semaphore::new(1);
            {
                let _p = sem.acquire().await;
                assert_eq!(sem.available(), 0);
            }
            assert_eq!(sem.available(), 1);
        });
    }

    #[test]
    fn notify_stores_single_permit() {
        let sim = Sim::new();
        sim.run_until(async {
            let n = Notify::new();
            n.notify_one();
            n.notified().await; // does not hang: the permit was stored
        });
    }

    #[test]
    fn notify_wakes_waiter() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let n = Notify::new();
            let n2 = n.clone();
            let s = sim2.clone();
            let h = sim2.spawn(async move {
                n2.notified().await;
                s.now().as_nanos()
            });
            sim2.sleep(Duration::from_micros(7)).await;
            n.notify_one();
            assert_eq!(h.await, 7_000);
        });
    }

    #[test]
    fn notify_waiters_wakes_everyone() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let n = Notify::new();
            let hs: Vec<_> = (0..4)
                .map(|_| {
                    let n = n.clone();
                    sim2.spawn(async move { n.notified().await })
                })
                .collect();
            sim2.sleep(Duration::from_micros(1)).await;
            n.notify_waiters();
            for h in hs {
                h.await;
            }
        });
    }
}
