//! Timeouts over virtual time.

use std::fmt;
use std::future::{poll_fn, Future};
use std::pin::{pin, Pin};
use std::task::Poll;
use std::time::Duration;

use crate::executor::Sim;

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
/// future completes first, `Err(Elapsed)` if the deadline fires first. The
/// deadline is `dur` from the call; on a tie the completion wins.
pub fn timeout<F: Future>(
    sim: &Sim,
    dur: Duration,
    fut: F,
) -> impl Future<Output = Result<F::Output, Elapsed>> {
    let mut sleep = sim.sleep(dur);
    async move {
        let mut fut = pin!(fut);
        poll_fn(|cx| {
            if let Poll::Ready(out) = fut.as_mut().poll(cx) {
                return Poll::Ready(Ok(out));
            }
            Pin::new(&mut sleep).poll(cx).map(|()| Err(Elapsed))
        })
        .await
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
