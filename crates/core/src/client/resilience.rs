//! Client resilience: deadlines, retry/backoff, and circuit breaking.
//!
//! Real memcached deployments run behind operation timeouts and
//! auto-ejection (ketama's `auto_eject_hosts`); a client that waits
//! forever on a crashed server is a bug, not a design. This module gives
//! the simulated client the same machinery, all in *virtual* time and all
//! deterministic:
//!
//! - [`ResiliencePolicy`]: per-attempt deadline (on by default for the
//!   blocking API) and seeded exponential backoff with decorrelated
//!   jitter between the `MAX_ATTEMPTS` (3) attempts of a blocking call.
//! - A per-server circuit breaker that opens after
//!   `BREAKER_FAILURE_THRESHOLD` (5) consecutive failures and rejects
//!   attempts for `BREAKER_COOLDOWN` (50 ms) before allowing a probe.
//! - [`BackoffSchedule`]: the deterministic backoff iterator itself —
//!   every delay lies in `[base, cap]` and replays bit-for-bit per seed.
//!
//! Nothing here consults a global RNG: backoff rolls are a pure hash of
//! `(seed, attempt)`, so two runs of the same seeded workload schedule
//! byte-identical retries.

use std::cell::Cell;
use std::time::Duration;

use nbkv_simrt::SimTime;

/// Total attempts per blocking operation.
pub(crate) const MAX_ATTEMPTS: u32 = 3;

/// Consecutive failures that open a server's circuit breaker.
pub(crate) const BREAKER_FAILURE_THRESHOLD: u32 = 5;

/// How long an open breaker rejects attempts before allowing a probe.
pub(crate) const BREAKER_COOLDOWN: Duration = Duration::from_millis(50);

/// Deadlines and retry backoff for the blocking client API.
///
/// Attached to [`crate::ClientConfig`]; the non-blocking `iset`/`iget`/
/// `bset`/`bget` paths are unaffected (their handles can be reaped with
/// [`crate::ReqHandle::cancel`] or [`crate::ReqHandle::wait_timeout`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResiliencePolicy {
    /// Per-attempt deadline for blocking operations. `None` restores the
    /// pre-resilience "wait forever" behaviour.
    pub deadline: Option<Duration>,
    /// First retry delay (exponential growth from here).
    pub backoff_base: Duration,
    /// Upper bound on any single retry delay.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    pub backoff_seed: u64,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            deadline: Some(Duration::from_millis(500)),
            backoff_base: Duration::from_micros(100),
            backoff_cap: Duration::from_millis(10),
            backoff_seed: 0xBACC_0FF5,
        }
    }
}

impl ResiliencePolicy {
    /// A [`BackoffSchedule`] for one operation, salted by `op_salt` so
    /// concurrent operations do not retry in lockstep.
    pub fn backoff(&self, op_salt: u64) -> BackoffSchedule {
        BackoffSchedule::new(
            self.backoff_base,
            self.backoff_cap,
            self.backoff_seed ^ op_salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }
}

/// Deterministic exponential backoff with decorrelated jitter.
///
/// Delay `n` is drawn (by pure hash of `(seed, n)`) from
/// `[base, min(cap, 3 * previous)]`, the "decorrelated jitter" scheme —
/// growth is exponential in expectation but consecutive delays do not
/// cluster. Every delay is clamped to `[min(base, cap), cap]`.
#[derive(Debug, Clone)]
pub struct BackoffSchedule {
    base: Duration,
    cap: Duration,
    seed: u64,
    attempt: u64,
    prev: Duration,
}

impl BackoffSchedule {
    /// Build a schedule; the first delay is at least `base`.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        BackoffSchedule {
            base,
            cap,
            seed,
            attempt: 0,
            prev: base,
        }
    }

    /// Next delay in the schedule.
    pub fn next_delay(&mut self) -> Duration {
        let roll = roll(self.seed, self.attempt);
        self.attempt += 1;
        let lo = self.base.min(self.cap);
        let hi = (self.prev.saturating_mul(3)).clamp(lo, self.cap);
        let span = hi.saturating_sub(lo);
        let jitter = Duration::from_nanos((span.as_nanos() as f64 * roll) as u64);
        let next = (lo + jitter).min(self.cap);
        self.prev = next;
        next
    }
}

/// Uniform roll in `[0, 1)` from a pure hash of `(seed, n)`.
fn roll(seed: u64, n: u64) -> f64 {
    let mut x = seed ^ n.wrapping_mul(0xD1B5_4A32_D192_ED03);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Per-server circuit breaker (closed → open → half-open).
#[derive(Debug, Default)]
pub(crate) struct Breaker {
    consecutive_failures: Cell<u32>,
    open_until: Cell<Option<SimTime>>,
    half_open: Cell<bool>,
    trips: Cell<u64>,
}

impl Breaker {
    /// Whether an attempt may be routed to this server now. An expired
    /// open window transitions to half-open (one probe allowed).
    pub(crate) fn allows(&self, now: SimTime) -> bool {
        match self.open_until.get() {
            Some(t) if now < t => false,
            Some(_) => {
                self.open_until.set(None);
                self.half_open.set(true);
                true
            }
            None => true,
        }
    }

    pub(crate) fn on_success(&self) {
        // A success that lands while the breaker is open (and not probing)
        // is a *late* response to a request issued before the trip — e.g.
        // an ack already in flight when a crash notification forced the
        // breaker open. It says nothing about the server's health now, so
        // it must not un-trip the breaker; only a half-open probe (or an
        // explicit [`Breaker::reset`]) closes it.
        if self.open_until.get().is_some() && !self.half_open.get() {
            return;
        }
        self.consecutive_failures.set(0);
        self.half_open.set(false);
        self.open_until.set(None);
    }

    pub(crate) fn on_failure(&self, now: SimTime) {
        if self.half_open.get() {
            // Failed probe: straight back to open.
            self.half_open.set(false);
            self.open_until.set(Some(now + BREAKER_COOLDOWN));
            self.trips.set(self.trips.get() + 1);
            return;
        }
        let fails = self.consecutive_failures.get() + 1;
        self.consecutive_failures.set(fails);
        if fails >= BREAKER_FAILURE_THRESHOLD {
            self.consecutive_failures.set(0);
            self.open_until.set(Some(now + BREAKER_COOLDOWN));
            self.trips.set(self.trips.get() + 1);
        }
    }

    pub(crate) fn trips(&self) -> u64 {
        self.trips.get()
    }

    /// Open the breaker immediately (a crash notification): attempts are
    /// rejected for [`BREAKER_COOLDOWN`] without burning any failure threshold —
    /// the client retargets a crashed server's keys on the very next
    /// attempt instead of spending a full deadline discovering the crash.
    pub(crate) fn force_open(&self, now: SimTime) {
        self.consecutive_failures.set(0);
        self.half_open.set(false);
        self.open_until.set(Some(now + BREAKER_COOLDOWN));
        self.trips.set(self.trips.get() + 1);
    }

    /// Close the breaker unconditionally (a restart notification):
    /// traffic may route here again at once — demotion back to the
    /// recovered primary without waiting out the cooldown. Unlike
    /// [`Breaker::on_success`], this clears even a fully-open breaker.
    pub(crate) fn reset(&self) {
        self.consecutive_failures.set(0);
        self.half_open.set(false);
        self.open_until.set(None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_replays_per_seed() {
        let mk = || BackoffSchedule::new(Duration::from_micros(100), Duration::from_millis(10), 7);
        let a: Vec<Duration> = (0..32)
            .map({
                let mut s = mk();
                move |_| s.next_delay()
            })
            .collect();
        let b: Vec<Duration> = (0..32)
            .map({
                let mut s = mk();
                move |_| s.next_delay()
            })
            .collect();
        assert_eq!(a, b);
        let mut other =
            BackoffSchedule::new(Duration::from_micros(100), Duration::from_millis(10), 8);
        let c: Vec<Duration> = (0..32).map(|_| other.next_delay()).collect();
        assert_ne!(a, c, "different seeds should jitter differently");
    }

    #[test]
    fn backoff_is_bounded() {
        let mut s = BackoffSchedule::new(Duration::from_micros(50), Duration::from_millis(2), 99);
        for _ in 0..100 {
            let d = s.next_delay();
            assert!(d >= Duration::from_micros(50));
            assert!(d <= Duration::from_millis(2));
        }
    }

    /// Regression: an ack already in flight when a crash notification
    /// forces the breaker open must not close it again (the late-ack
    /// race) — but a half-open probe success still does.
    #[test]
    fn late_success_does_not_untrip_a_forced_open_breaker() {
        let b = Breaker::default();
        let crash = SimTime::from_nanos(10_000_000);
        b.force_open(crash);
        // A pre-crash request's response lands just after the trip.
        b.on_success();
        assert!(
            !b.allows(SimTime::from_nanos(10_000_300)),
            "late ack must not un-trip the crash ejection"
        );
        // An explicit restart notification does clear it.
        b.reset();
        assert!(b.allows(SimTime::from_nanos(10_000_400)));
        // And so does a successful half-open probe after the cooldown.
        b.force_open(crash);
        let after_cooldown = crash + BREAKER_COOLDOWN + Duration::from_millis(10);
        assert!(b.allows(after_cooldown), "probe allowed after cooldown");
        b.on_success();
        assert!(b.allows(after_cooldown), "probe success closes the breaker");
    }

    #[test]
    fn breaker_opens_after_threshold_and_probes() {
        let b = Breaker::default();
        let t0 = SimTime::from_nanos(0);
        assert!(b.allows(t0));
        for _ in 1..BREAKER_FAILURE_THRESHOLD {
            b.on_failure(t0);
            assert!(b.allows(t0), "failures below threshold keep it closed");
        }
        b.on_failure(t0);
        assert!(!b.allows(t0), "threshold reached: open");
        assert_eq!(b.trips(), 1);
        let later = t0 + BREAKER_COOLDOWN;
        let almost = t0 + (BREAKER_COOLDOWN - Duration::from_nanos(1));
        assert!(!b.allows(almost), "open until the cooldown ends");
        assert!(b.allows(later), "cooldown expired: half-open probe allowed");
        b.on_failure(later);
        assert!(!b.allows(later), "failed probe reopens immediately");
        let again = later + BREAKER_COOLDOWN;
        assert!(b.allows(again));
        b.on_success();
        assert!(b.allows(again));
        assert_eq!(b.trips(), 2);
    }
}
