//! # nbkv-simrt — deterministic discrete-event async runtime
//!
//! A single-threaded executor over a **virtual nanosecond clock**, used as
//! the substrate for the `nbkv` hardware simulators (RDMA fabric, SSD
//! devices) and the key-value store built on them.
//!
//! Unlike a wall-clock runtime, time only advances when every runnable task
//! has gone idle: the executor then jumps the clock to the next scheduled
//! event (a `sleep` deadline or a scheduled callback). A simulated hour
//! costs microseconds of real time, and two runs of the same program
//! produce bit-identical timelines — which is what makes latency
//! experiments reproducible on a laptop.
//!
//! ## Quick start
//!
//! ```
//! use std::time::Duration;
//! use nbkv_simrt::{Sim, join_all};
//!
//! let sim = Sim::new();
//! let sim2 = sim.clone();
//! let elapsed_ns = sim.run_until(async move {
//!     // Ten "parallel" 50us jobs take 50us of virtual time.
//!     let jobs: Vec<_> = (0..10)
//!         .map(|_| {
//!             let s = sim2.clone();
//!             async move { s.sleep(Duration::from_micros(50)).await }
//!         })
//!         .collect();
//!     join_all(jobs).await;
//!     sim2.now().as_nanos()
//! });
//! assert_eq!(elapsed_ns, 50_000);
//! ```
//!
//! ## Pieces
//!
//! - [`Sim`] — the executor handle: `spawn`, `sleep`, `schedule_at`, `run`.
//! - [`SimTime`] — virtual instants (ns since simulation start).
//! - [`channel`]/[`bounded`] — mpsc channels that wake tasks in virtual time.
//! - [`Semaphore`], [`Notify`] — synchronization primitives.
//! - [`join_all`], [`yield_now`] — combinators.
//!
//! Everything is `!Send` by design (the world is one thread); tasks share
//! state with `Rc<RefCell<_>>`.

#![warn(missing_docs)]

mod channel;
mod executor;
mod join;
mod sync;
mod task;
mod time;
mod timer;
mod timeutil;

pub use channel::{
    bounded, channel, Receiver, RecvFuture, SendError, SendFuture, Sender, TryRecvError,
};
pub use executor::{Sim, SimStats};
pub use join::{join_all, yield_now, YieldNow};
pub use sync::{Acquire, Notified, Notify, Permit, Semaphore};
pub use task::JoinHandle;
pub use time::SimTime;
pub use timer::Sleep;
pub use timeutil::{timeout, Elapsed, Timeout};
