//! Quantile math of the one power-of-two histogram: quantiles read from
//! merged [`Pow2Hist`]s (as `snapshot` merges the span paths that share
//! a leaf name) agree with quantiles of the concatenated raw samples to
//! within one bucket, never exceed the max, and the max is exact.

use nwhy_obs::hist::{bucket_of, bucket_upper_bound, Pow2Hist};
use proptest::prelude::*;

/// Samples, each tagged with the part (span path) it is recorded in.
fn arb_samples() -> impl Strategy<Value = Vec<(usize, u64)>> {
    proptest::collection::vec((0usize..4, 0u64..(1 << 32)), 1..200)
}

/// Records every sample into its part's histogram, then merges the parts.
fn merged(samples: &[(usize, u64)]) -> Pow2Hist {
    let mut parts = [
        Pow2Hist::new(),
        Pow2Hist::new(),
        Pow2Hist::new(),
        Pow2Hist::new(),
    ];
    for &(part, value) in samples {
        parts[part].record(value);
    }
    let mut out = Pow2Hist::new();
    for p in &parts {
        out.merge(p);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Merged quantiles equal quantiles of the concatenated raw samples
    /// to within one pow2 bucket, and never exceed the max.
    #[test]
    fn prop_merged_quantiles_match_concatenated_samples(samples in arb_samples()) {
        let m = merged(&samples);
        prop_assert_eq!(m.count, samples.len() as u64);

        let mut sorted: Vec<u64> = samples.iter().map(|&(_, v)| v).collect();
        sorted.sort_unstable();
        for q in [0.5, 0.9, 0.99, 1.0] {
            // lint: sample counts stay far below 2^53
            #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let got = m.quantile(q).expect("non-empty histogram");
            prop_assert_eq!(
                bucket_of(got),
                bucket_of(exact),
                "q={}: got {} vs exact {}",
                q,
                got,
                exact
            );
            // The answer is the bucket's inclusive upper bound clamped to
            // the max, so it never under-reports the exact sample.
            prop_assert!(got >= exact);
            prop_assert!(got <= m.max);
        }
    }

    /// max is exact (not bucketed), and p100 is the max itself.
    #[test]
    fn prop_max_is_exact(samples in arb_samples()) {
        let m = merged(&samples);
        let true_max = samples.iter().map(|&(_, v)| v).max().unwrap();
        prop_assert_eq!(m.max, true_max);
        prop_assert_eq!(m.quantile(1.0), Some(true_max));
        prop_assert!(true_max <= bucket_upper_bound(bucket_of(true_max)));
    }
}
