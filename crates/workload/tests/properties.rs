//! Property-based tests for workload generation and measurement.

use nbkv_workload::{LatencyRecorder, Zipf};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Zipf pmf is a probability distribution for any (n, theta).
    #[test]
    fn zipf_pmf_sums_to_one(n in 1usize..2000, theta in 0.0f64..2.5) {
        let z = Zipf::new(n, theta);
        let total: f64 = (0..n).map(|k| z.pmf(k)).sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum = {total}");
        for k in 1..n.min(50) {
            prop_assert!(z.pmf(k) <= z.pmf(k - 1) + 1e-12, "pmf must be nonincreasing");
        }
    }

    /// Samples always fall in range.
    #[test]
    fn zipf_samples_in_range(n in 1usize..500, theta in 0.0f64..2.0, seed in any::<u64>()) {
        use rand::SeedableRng;
        let z = Zipf::new(n, theta);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Recorder quantiles match a naive sorted-vector implementation.
    #[test]
    fn recorder_quantiles_match_naive(
        samples in prop::collection::vec(0u64..1_000_000, 1..300),
        q in 0.0f64..1.0,
    ) {
        let mut rec = LatencyRecorder::new();
        for &s in &samples {
            rec.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let rank = (q * sorted.len() as f64).ceil() as usize;
        let naive = sorted[rank.saturating_sub(1).min(sorted.len() - 1)];
        prop_assert_eq!(rec.quantile_ns(q), naive);
        let naive_mean =
            (samples.iter().map(|&x| x as u128).sum::<u128>() / samples.len() as u128) as u64;
        prop_assert_eq!(rec.mean_ns(), naive_mean);
    }
}
