//! Virtual-time sleeping.

use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Duration;

use crate::executor::Sim;
use crate::time::SimTime;
use crate::timers::TimerHandle;

/// Future returned by [`Sim::sleep`] / [`Sim::sleep_until`].
///
/// Dropping a `Sleep` before its deadline cancels its timer, so a
/// `timeout` whose future finished first leaves nothing in the heap.
pub struct Sleep {
    sim: Sim,
    deadline: SimTime,
    /// The armed timer, once the first pending poll registered it.
    timer: Option<TimerHandle>,
}

impl Future for Sleep {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.sim.now() >= self.deadline {
            return Poll::Ready(());
        }
        if self.timer.is_none() {
            let deadline = self.deadline;
            self.timer = Some(self.sim.register_timer(deadline, cx.waker().clone()));
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        if let Some(handle) = self.timer {
            self.sim.cancel_timer(handle, self.deadline);
        }
    }
}

impl Sim {
    /// Suspend the current task for `dur` of virtual time.
    ///
    /// A zero-duration sleep completes without suspending.
    pub fn sleep(&self, dur: Duration) -> Sleep {
        self.sleep_until(self.now() + dur)
    }

    /// Suspend the current task until virtual time `deadline` (completes
    /// immediately if the deadline has passed).
    pub fn sleep_until(&self, deadline: SimTime) -> Sleep {
        Sleep {
            sim: self.clone(),
            deadline,
            timer: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sleep_until_past_deadline_is_instant() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            sim2.sleep(Duration::from_micros(10)).await;
            let before = sim2.now();
            sim2.sleep_until(SimTime::from_micros(3)).await;
            assert_eq!(sim2.now(), before);
        });
    }

    #[test]
    fn zero_sleep_does_not_advance_clock() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            sim2.sleep(Duration::ZERO).await;
            assert_eq!(sim2.now(), SimTime::ZERO);
        });
    }

    #[test]
    fn sequential_sleeps_accumulate() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            for _ in 0..5 {
                sim2.sleep(Duration::from_micros(3)).await;
            }
            assert_eq!(sim2.now(), SimTime::from_micros(15));
        });
    }

    #[test]
    fn concurrent_sleeps_overlap_in_virtual_time() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let hs: Vec<_> = (0..10)
                .map(|_| {
                    let s = sim2.clone();
                    sim2.spawn(async move { s.sleep(Duration::from_micros(50)).await })
                })
                .collect();
            for h in hs {
                h.await;
            }
            // Ten concurrent 50us sleeps take 50us total, not 500us.
            assert_eq!(sim2.now(), SimTime::from_micros(50));
        });
    }
}
