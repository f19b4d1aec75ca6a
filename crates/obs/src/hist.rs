//! The one power-of-two histogram law of the registry.
//!
//! The [`Hist`](crate::Hist) slabs and the per-span latency aggregates
//! bucket by [`bucket_of`], render bounds with [`bucket_upper_bound`]
//! and answer quantiles with [`Pow2Hist::quantile`], so a change of
//! bucket layout is made here once.

/// Bucket count: index `i` holds the values `v` with
/// `64 - v.leading_zeros() == i`, i.e. 0, 1, 2..3, 4..7, …
pub const BUCKETS: usize = 65;

/// The bucket `v` lands in, in `[0, 64]`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    64 - v.leading_zeros() as usize
}

/// Inclusive upper bound of bucket `i`.
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

/// A single-writer power-of-two histogram with an exact running max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pow2Hist {
    /// Number of recorded values.
    pub count: u64,
    /// Largest recorded value (exact, not bucketed).
    pub max: u64,
    /// Values per bucket, indexed by [`bucket_of`].
    pub buckets: [u64; BUCKETS],
}

impl Default for Pow2Hist {
    fn default() -> Pow2Hist {
        Pow2Hist::new()
    }
}

impl Pow2Hist {
    /// An empty histogram.
    pub const fn new() -> Pow2Hist {
        Pow2Hist {
            count: 0,
            max: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.max = self.max.max(v);
        // lint: panic: bucket_of is in [0, 64], the bucket array's range
        self.buckets[bucket_of(v)] += 1;
    }

    /// Adds every value of `other`.
    pub fn merge(&mut self, other: &Pow2Hist) {
        self.count += other.count;
        self.max = self.max.max(other.max);
        for (acc, n) in self.buckets.iter_mut().zip(&other.buckets) {
            *acc += n;
        }
    }

    /// The value at quantile `q` in `[0, 1]`: the inclusive upper bound
    /// of the bucket holding that rank, clamped to the exact max (so
    /// within one bucket of the exact sample quantile, and never above
    /// the max). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        // lint: count ≤ 2^53 in practice; rank arithmetic is on u64
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            clippy::cast_precision_loss
        )]
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist_of(values: &[u64]) -> Pow2Hist {
        let mut h = Pow2Hist::new();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn merge_adds_counts_buckets_and_max() {
        let mut a = hist_of(&[1, 3]);
        a.merge(&hist_of(&[3, 300]));
        assert_eq!(a.count, 4);
        assert_eq!(a.buckets[1], 1, "one sample of value 1");
        assert_eq!(a.buckets[2], 2, "two samples of value 3");
        assert_eq!(a.buckets[9], 1, "one sample of value 300");
        assert_eq!(a.max, 300);
    }

    #[test]
    fn quantiles_walk_the_buckets() {
        // 98 fast ops at 100µs (bucket 7: 64..127), 2 slow at 5000µs
        // (bucket 13: 4096..8191).
        let mut h = hist_of(&[100; 98]);
        h.record(5_000);
        h.record(5_000);
        assert_eq!(h.quantile(0.5), Some(bucket_upper_bound(7)));
        assert_eq!(h.quantile(0.9), Some(bucket_upper_bound(7)));
        // bucket 13's edge (8191) is above every sample: clamped to max
        assert_eq!(h.quantile(0.99), Some(5_000));
        assert_eq!(h.quantile(1.0), Some(5_000));
    }

    #[test]
    fn quantiles_never_exceed_the_max() {
        // Every sample sits below its bucket's edge (2^21 - 1 = 2097151).
        let h = hist_of(&[1_999_157, 1_500_000]);
        assert_eq!(h.quantile(0.5), Some(1_999_157));
        assert_eq!(h.quantile(0.99), Some(1_999_157));
    }

    #[test]
    fn top_bucket_reports_the_exact_max() {
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(hist_of(&[u64::MAX]).quantile(0.99), Some(u64::MAX));
    }

    #[test]
    fn empty_quantile_is_none() {
        assert_eq!(Pow2Hist::new().quantile(0.5), None);
        assert_eq!(Pow2Hist::new().quantile(1.0), None);
    }
}
