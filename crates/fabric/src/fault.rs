//! Deterministic link-fault injection.
//!
//! A [`FaultPlan`] attaches to a [`Link`](crate::Link) and perturbs its
//! delivery schedule: per-message drops, extra delay, FIFO-escape
//! reordering, and scripted down windows in virtual time. Every decision
//! is a pure hash of `(seed, message seq)`, so a chaos run is bit-for-bit
//! reproducible — same seed, same faults, same timeline.
//!
//! Faults act on the *wire*, not the sender: a dropped message still
//! occupies the link for its serialization time and still yields a
//! successful send ticket, exactly like an unreliable datagram network.
//! What changes is whether (and when) the delivery event fires. All
//! outcomes are counted in [`FaultStats`], which also counts the
//! receiver-gone discards that previously vanished silently.

use std::time::Duration;

use nbkv_simrt::SimTime;

/// Scripted fault schedule for one link direction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for all per-message fault decisions on this link.
    pub seed: u64,
    /// Probability in `[0, 1]` that a message is silently dropped.
    pub drop_prob: f64,
    /// Probability in `[0, 1]` that a message gets extra delay.
    pub delay_prob: f64,
    /// Maximum extra delay for delayed messages (uniform in `[0, max]`).
    pub extra_delay: Duration,
    /// Probability in `[0, 1]` that a message escapes the FIFO floor and
    /// may arrive after messages sent later.
    pub reorder_prob: f64,
    /// Extra delay applied to reordered messages (uniform in `[0, max]`);
    /// without it a reordered message usually still lands in order.
    pub reorder_delay: Duration,
    /// Scripted `[from, until)` outage windows in virtual time; messages
    /// entering the wire inside a window are dropped.
    pub down_windows: Vec<(Duration, Duration)>,
}

impl FaultPlan {
    /// A plan that only injects drops.
    pub fn drops(seed: u64, drop_prob: f64) -> Self {
        FaultPlan {
            seed,
            drop_prob,
            ..FaultPlan::default()
        }
    }

    /// Add a scripted outage window.
    pub fn with_down_window(mut self, from: Duration, until: Duration) -> Self {
        assert!(from < until, "down window must be non-empty");
        self.down_windows.push((from, until));
        self
    }

    /// Whether the link is scripted down at `t`.
    pub fn is_down_at(&self, t: SimTime) -> bool {
        let ns = t.as_nanos();
        self.down_windows
            .iter()
            .any(|(from, until)| ns >= from.as_nanos() as u64 && ns < until.as_nanos() as u64)
    }

    /// Deterministic uniform draw in `[0, 1)` for message `seq` under
    /// fault dimension `salt`.
    pub(crate) fn roll(&self, seq: u64, salt: u64) -> f64 {
        (hash3(self.seed, seq, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Deterministic duration in `[0, max]` for message `seq` under `salt`.
    pub(crate) fn scaled_delay(&self, seq: u64, salt: u64, max: Duration) -> Duration {
        if max.is_zero() {
            return Duration::ZERO;
        }
        let frac = self.roll(seq, salt);
        Duration::from_nanos((max.as_nanos() as f64 * frac) as u64)
    }
}

/// Salt for the drop decision.
pub(crate) const SALT_DROP: u64 = 0x6472_6f70; // "drop"
/// Salt for the extra-delay decision.
pub(crate) const SALT_DELAY: u64 = 0x6465_6c61; // "dela"
/// Salt for the delay magnitude.
pub(crate) const SALT_DELAY_AMT: u64 = 0x616d_7430; // "amt0"
/// Salt for the reorder decision.
pub(crate) const SALT_REORDER: u64 = 0x726f_7264; // "rord"
/// Salt for the reorder delay magnitude.
pub(crate) const SALT_REORDER_AMT: u64 = 0x616d_7431; // "amt1"

fn hash3(seed: u64, seq: u64, salt: u64) -> u64 {
    nbkv_simrt::mix64(
        seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

nbkv_obs::counters! {
    /// Counters for injected (and observed) link faults.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FaultStats {
        /// Messages dropped by random drop probability.
        sum dropped: u64,
        /// Messages dropped because the link was scripted down.
        sum down_dropped: u64,
        /// Messages given extra delay.
        sum delayed: u64,
        /// Messages allowed to escape FIFO ordering.
        sum reordered: u64,
        /// Messages discarded in flight because the receiver was gone.
        sum receiver_gone: u64,
    }
}

impl FaultStats {
    /// Total messages that never reached the peer.
    pub fn total_lost(&self) -> u64 {
        self.dropped + self.down_dropped + self.receiver_gone
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_uniform_ish() {
        let plan = FaultPlan::drops(42, 0.5);
        let a: Vec<f64> = (0..64).map(|i| plan.roll(i, SALT_DROP)).collect();
        let b: Vec<f64> = (0..64).map(|i| plan.roll(i, SALT_DROP)).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (0.0..1.0).contains(v)));
        // Different salts give different streams.
        let c: Vec<f64> = (0..64).map(|i| plan.roll(i, SALT_DELAY)).collect();
        assert_ne!(a, c);
        // Different seeds give different streams.
        let plan2 = FaultPlan::drops(43, 0.5);
        let d: Vec<f64> = (0..64).map(|i| plan2.roll(i, SALT_DROP)).collect();
        assert_ne!(a, d);
    }

    #[test]
    fn down_windows_cover_half_open_ranges() {
        let plan = FaultPlan::default()
            .with_down_window(Duration::from_millis(10), Duration::from_millis(20));
        assert!(!plan.is_down_at(SimTime::from_nanos(9_999_999)));
        assert!(plan.is_down_at(SimTime::from_nanos(10_000_000)));
        assert!(plan.is_down_at(SimTime::from_nanos(19_999_999)));
        assert!(!plan.is_down_at(SimTime::from_nanos(20_000_000)));
    }

    #[test]
    fn scaled_delay_is_bounded() {
        let plan = FaultPlan {
            seed: 7,
            ..FaultPlan::default()
        };
        let max = Duration::from_micros(50);
        for seq in 0..256 {
            let d = plan.scaled_delay(seq, SALT_DELAY_AMT, max);
            assert!(d <= max, "delay {d:?} above max");
        }
        assert_eq!(
            plan.scaled_delay(3, SALT_DELAY_AMT, Duration::ZERO),
            Duration::ZERO
        );
    }
}
