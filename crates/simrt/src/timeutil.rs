//! Timeouts over virtual time.

use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::task::{Context, Poll};
use std::time::Duration;

use crate::executor::Sim;
use crate::timer::Sleep;

/// Error returned by [`timeout`] when the deadline fires first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Elapsed;

impl fmt::Display for Elapsed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "deadline elapsed")
    }
}

impl std::error::Error for Elapsed {}

/// Run `fut` with a virtual-time deadline: resolves to `Ok(output)` if the
/// future completes first, `Err(Elapsed)` if the deadline fires first.
pub fn timeout<F: Future>(sim: &Sim, dur: Duration, fut: F) -> Timeout<F> {
    Timeout {
        fut: Box::pin(fut),
        sleep: sim.sleep(dur),
    }
}

/// Future returned by [`timeout`].
pub struct Timeout<F: Future> {
    fut: Pin<Box<F>>,
    sleep: Sleep,
}

impl<F: Future> Unpin for Timeout<F> {}

impl<F: Future> Future for Timeout<F> {
    type Output = Result<F::Output, Elapsed>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        if let Poll::Ready(out) = this.fut.as_mut().poll(cx) {
            return Poll::Ready(Ok(out));
        }
        match Pin::new(&mut this.sleep).poll(cx) {
            Poll::Ready(()) => Poll::Ready(Err(Elapsed)),
            Poll::Pending => Poll::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel;

    #[test]
    fn timeout_ok_when_future_wins() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let s = sim2.clone();
            let out = timeout(&sim2, Duration::from_micros(100), async move {
                s.sleep(Duration::from_micros(10)).await;
                7u32
            })
            .await;
            assert_eq!(out, Ok(7));
            // The unused deadline must not hold the clock hostage...
            assert_eq!(sim2.now().as_nanos(), 10_000);
        });
    }

    #[test]
    fn timeout_elapsed_when_deadline_wins() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let (tx, rx) = channel::<u32>();
            let out = timeout(&sim2, Duration::from_micros(50), rx.recv()).await;
            assert_eq!(out, Err(Elapsed));
            assert_eq!(sim2.now().as_nanos(), 50_000);
            drop(tx);
        });
    }

    #[test]
    fn timeout_prefers_completion_on_tie() {
        let sim = Sim::new();
        let sim2 = sim.clone();
        sim.run_until(async move {
            let s = sim2.clone();
            let out = timeout(&sim2, Duration::from_micros(10), async move {
                s.sleep(Duration::from_micros(10)).await;
                1u8
            })
            .await;
            assert_eq!(out, Ok(1), "completion checked before deadline");
        });
    }
}
