//! Join handles for spawned tasks.

use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll, Waker};

struct JoinState<T> {
    value: Option<T>,
    waker: Option<Waker>,
    finished: bool,
}

/// Completion side held by the spawned task's wrapper future.
pub(crate) struct Complete<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> Complete<T> {
    pub(crate) fn finish(self, value: T) {
        let mut s = self.state.borrow_mut();
        s.value = Some(value);
        s.finished = true;
        if let Some(w) = s.waker.take() {
            w.wake();
        }
    }
}

/// Awaitable handle to a spawned task's output.
///
/// Dropping the handle detaches the task: it keeps running, its output is
/// discarded. A panic inside a task propagates out of [`crate::Sim::run`],
/// aborting the whole simulation — there is no panic isolation.
pub struct JoinHandle<T> {
    state: Rc<RefCell<JoinState<T>>>,
}

impl<T> JoinHandle<T> {
    pub(crate) fn new_pair() -> (JoinHandle<T>, Complete<T>) {
        let state = Rc::new(RefCell::new(JoinState {
            value: None,
            waker: None,
            finished: false,
        }));
        (
            JoinHandle {
                state: Rc::clone(&state),
            },
            Complete { state },
        )
    }

    /// Take the output if the task has completed; used by
    /// [`crate::Sim::run_until`].
    pub(crate) fn try_take(&mut self) -> Option<T> {
        self.state.borrow_mut().value.take()
    }
}

impl<T> Future for JoinHandle<T> {
    type Output = T;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<T> {
        let mut s = self.state.borrow_mut();
        match s.value.take() {
            Some(v) => Poll::Ready(v),
            None => {
                assert!(
                    !s.finished,
                    "JoinHandle polled again after the output was taken"
                );
                s.waker = Some(cx.waker().clone());
                Poll::Pending
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::Sim;
    use std::time::Duration;

    #[test]
    fn join_handle_returns_task_output() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let out = sim.run_until(async move {
            let s = sim2.clone();
            let h = sim2.spawn(async move {
                s.sleep(Duration::from_micros(7)).await;
                "done"
            });
            h.await
        });
        assert_eq!(out, "done");
    }

    #[test]
    fn dropped_handle_detaches_but_task_still_runs() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let flag = std::rc::Rc::new(std::cell::Cell::new(false));
        let flag2 = std::rc::Rc::clone(&flag);
        sim.run_until(async move {
            let s = sim2.clone();
            drop(sim2.spawn(async move {
                s.sleep(Duration::from_micros(3)).await;
                flag2.set(true);
            }));
            sim2.sleep(Duration::from_micros(10)).await;
        });
        assert!(flag.get());
    }

    #[test]
    fn join_immediately_ready_task() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        let out = sim.run_until(async move {
            let h = sim2.spawn(async { 5u32 });
            h.await
        });
        assert_eq!(out, 5);
    }
}
