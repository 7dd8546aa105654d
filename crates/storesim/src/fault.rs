//! Deterministic SSD fault injection.
//!
//! An [`SsdFaultPlan`] attaches to an [`SsdDevice`](crate::SsdDevice) and
//! perturbs command service: per-command read/write error probabilities,
//! random latency stalls, and scripted stall windows in virtual time
//! (firmware housekeeping, thermal throttling). Decisions are a pure hash
//! of `(seed, command seq)`, so runs replay bit-for-bit.
//!
//! A faulted command still occupies a device channel for its (possibly
//! stretched) service time — an erroring disk is not a fast disk.

use std::time::Duration;

use nbkv_simrt::SimTime;

/// Which command class a fault hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// A read command.
    Read,
    /// A write command.
    Write,
}

/// Scripted fault schedule for one device.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SsdFaultPlan {
    /// Seed for all per-command fault decisions.
    pub seed: u64,
    /// Probability in `[0, 1]` that a read fails with an injected error.
    pub read_error_prob: f64,
    /// Probability in `[0, 1]` that a write fails with an injected error
    /// (nothing is persisted).
    pub write_error_prob: f64,
    /// Probability in `[0, 1]` that a command is stalled.
    pub stall_prob: f64,
    /// Maximum extra service time for stalled commands (uniform `[0, max]`).
    pub stall: Duration,
    /// Scripted `[from, until)` windows during which *every* command pays
    /// the full [`stall`](Self::stall) on top of normal service time.
    pub stall_windows: Vec<(Duration, Duration)>,
}

impl SsdFaultPlan {
    /// A plan that only injects errors, at the same rate for both ops.
    pub fn errors(seed: u64, prob: f64) -> Self {
        SsdFaultPlan {
            seed,
            read_error_prob: prob,
            write_error_prob: prob,
            ..SsdFaultPlan::default()
        }
    }

    /// Add a scripted stall window.
    pub fn with_stall_window(mut self, from: Duration, until: Duration) -> Self {
        assert!(from < until, "stall window must be non-empty");
        self.stall_windows.push((from, until));
        self
    }

    /// Whether a scripted stall window covers `t`.
    pub fn in_stall_window(&self, t: SimTime) -> bool {
        let ns = t.as_nanos();
        self.stall_windows
            .iter()
            .any(|(from, until)| ns >= from.as_nanos() as u64 && ns < until.as_nanos() as u64)
    }

    pub(crate) fn roll(&self, seq: u64, salt: u64) -> f64 {
        (hash3(self.seed, seq, salt) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub(crate) fn scaled_stall(&self, seq: u64) -> Duration {
        if self.stall.is_zero() {
            return Duration::ZERO;
        }
        Duration::from_nanos((self.stall.as_nanos() as f64 * self.roll(seq, SALT_STALL_AMT)) as u64)
    }
}

pub(crate) const SALT_ERROR: u64 = 0x6572_7220; // "err "
pub(crate) const SALT_STALL: u64 = 0x7374_616c; // "stal"
pub(crate) const SALT_STALL_AMT: u64 = 0x616d_7432; // "amt2"

fn hash3(seed: u64, seq: u64, salt: u64) -> u64 {
    nbkv_simrt::mix64(
        seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ seq.wrapping_mul(0xD1B5_4A32_D192_ED03),
    )
}

nbkv_obs::counters! {
    /// Counters for injected device faults.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct SsdFaultStats {
        /// Reads that failed with an injected error.
        sum read_errors: u64,
        /// Writes that failed with an injected error.
        sum write_errors: u64,
        /// Commands stalled (random or scripted window).
        sum stalled: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_replay_per_seed() {
        let plan = SsdFaultPlan::errors(9, 0.3);
        let a: Vec<f64> = (0..64).map(|i| plan.roll(i, SALT_ERROR)).collect();
        let b: Vec<f64> = (0..64).map(|i| plan.roll(i, SALT_ERROR)).collect();
        assert_eq!(a, b);
        assert!(a.iter().all(|v| (0.0..1.0).contains(v)));
    }

    #[test]
    fn stall_windows_are_half_open() {
        let plan = SsdFaultPlan::default()
            .with_stall_window(Duration::from_millis(1), Duration::from_millis(2));
        assert!(!plan.in_stall_window(SimTime::from_nanos(999_999)));
        assert!(plan.in_stall_window(SimTime::from_nanos(1_000_000)));
        assert!(!plan.in_stall_window(SimTime::from_nanos(2_000_000)));
    }
}
