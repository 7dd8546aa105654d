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
//! - [`Sim`] — the executor handle: `spawn`, `sleep`, `schedule_at`, `run`;
//!   [`TaskGroup`] for tasks cancelled together.
//! - [`SimTime`] — virtual instants (ns since simulation start).
//! - [`channel`]/[`bounded`] — mpsc channels that wake tasks in virtual time.
//! - [`Semaphore`], [`Notify`] — synchronization primitives.
//! - [`join_all`], [`yield_now`] — combinators.
//! - [`mix64`] — the splitmix64 finalizer behind fault rolls, per-link
//!   seeds, key scrambling and ring placement.
//! - [`FxHashMap`] — a map over a deterministic word hasher
//!   ([`FxHasher`]), for the hot per-request maps.
//!
//! Everything is `!Send` by design (the world is one thread); tasks share
//! state with `Rc<RefCell<_>>`.

#![warn(missing_docs)]

mod channel;
mod executor;
mod fxhash;
mod join;
mod sync;
mod task;
mod time;
mod timer;
mod timers;
mod timeutil;

pub use channel::{
    bounded, channel, Receiver, RecvFuture, SendError, SendFuture, Sender, TryRecvError,
};
pub use executor::{Sim, SimStats, TaskGroup};
pub use fxhash::{FxHashMap, FxHasher};
pub use join::{join_all, yield_now, YieldNow};
pub use sync::{Acquire, Notified, Notify, Permit, Semaphore};
pub use task::JoinHandle;
pub use time::SimTime;
pub use timer::Sleep;
pub use timeutil::{timeout, Elapsed};

/// SplitMix64 finalizer: a cheap full-avalanche mixer. Callers derive
/// decorrelated seeds and rolls from it by folding their inputs into one
/// word first (e.g. `seed ^ salt * odd_constant`).
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::mix64;

    /// Fault rolls, derived seeds, key scrambling and ring points all come
    /// from this function, so a change to its outputs would move every
    /// seeded result and golden.
    #[test]
    fn mix64_outputs_are_pinned() {
        assert_eq!(mix64(1), 0x5692_161d_100b_05e5);
        assert_eq!(mix64(42), 0xa759_ea27_d472_7622);
        assert_eq!(mix64(u64::MAX), 0xb4d0_55fc_f2cb_bd7b);
    }
}
