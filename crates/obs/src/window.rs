//! Sliding-window latency quantiles over power-of-two histograms.
//!
//! [`WindowedHist`] keeps a ring of `SUB_WINDOWS` sub-window histograms,
//! each covering `sub_width` ticks of the injected clock. An observation
//! lands in the sub-window owning `tick / sub_width`; a read merges every
//! sub-window still inside the trailing window and answers
//! `p50`/`p90`/`p99`/`max` from the merged buckets. Rotation is lazy: the
//! first observer (or reader) to touch a slot whose epoch has expired
//! re-claims it with a CAS and zeroes it — no background thread.
//!
//! The bucket layout matches the registry's cumulative histograms
//! (index `i` holds values `v` with `64 - v.leading_zeros() == i`), so a
//! merged window quantile is exact at bucket granularity: it equals the
//! quantile of the concatenated raw samples to within one power-of-two
//! bucket (pinned by a proptest in `tests/window_quantiles.rs`).
//!
//! Concurrency: built on [`nwhy_util::sync`] atomics (loom-compatible —
//! no `fetch_max`; the running max is a CAS loop). The rotation race is
//! benignly lossy: an observation landing between a slot's epoch CAS and
//! its zeroing can be dropped or double-zeroed, which costs at most a few
//! samples at a sub-window boundary of a *diagnostic* distribution.
//! Single-threaded use (all fixture tests) is exact.

use nwhy_util::sync::{AtomicU64, Ordering};

/// Bucket count shared with the registry's cumulative histograms.
pub const WINDOW_BUCKETS: usize = 65;

/// Sub-windows per ring. 8 × `sub_width` ticks of trailing history.
pub const SUB_WINDOWS: usize = 8;

/// Epoch stamp for a slot that has never been claimed.
const UNCLAIMED: u64 = u64::MAX;

struct SubWindow {
    /// Which `tick / sub_width` epoch this slot currently holds.
    epoch: AtomicU64,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    buckets: [AtomicU64; WINDOW_BUCKETS],
}

impl SubWindow {
    fn new() -> SubWindow {
        SubWindow {
            epoch: AtomicU64::new(UNCLAIMED),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn zero(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }

    /// Claims this slot for `epoch` if it currently holds an older one,
    /// zeroing the tallies. Returns `true` when the slot holds `epoch`
    /// after the call.
    fn claim(&self, epoch: u64) -> bool {
        let cur = self.epoch.load(Ordering::Acquire);
        if cur == epoch {
            return true;
        }
        if cur != UNCLAIMED && cur > epoch {
            // A newer epoch already owns the slot; this straggler's
            // observation is outside the window anyway.
            return false;
        }
        if self
            .epoch
            .compare_exchange(cur, epoch, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.zero();
            true
        } else {
            // Lost the race; recurse once — the winner either claimed our
            // epoch (we can use the slot) or a newer one (we drop).
            self.epoch.load(Ordering::Acquire) == epoch
        }
    }
}

/// A trailing-window histogram: ring of [`SUB_WINDOWS`] sub-histograms
/// rotated on tick, merged on read.
pub struct WindowedHist {
    sub_width: u64,
    slots: [SubWindow; SUB_WINDOWS],
}

impl std::fmt::Debug for WindowedHist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedHist")
            .field("sub_width", &self.sub_width)
            .finish_non_exhaustive()
    }
}

impl WindowedHist {
    /// A window of `SUB_WINDOWS × sub_width` ticks. `sub_width` is
    /// clamped to at least 1.
    pub fn new(sub_width: u64) -> WindowedHist {
        WindowedHist {
            sub_width: sub_width.max(1),
            slots: std::array::from_fn(|_| SubWindow::new()),
        }
    }

    /// Ticks covered by one sub-window.
    pub fn sub_width(&self) -> u64 {
        self.sub_width
    }

    #[inline]
    fn slot_of(&self, epoch: u64) -> &SubWindow {
        // lint: slot index is epoch modulo the fixed sub-window count
        #[allow(clippy::cast_possible_truncation)]
        let idx = (epoch % SUB_WINDOWS as u64) as usize;
        // lint: panic: idx is epoch modulo the slot count, always in bounds
        &self.slots[idx]
    }

    /// Records `value` at clock time `tick`.
    pub fn observe(&self, tick: u64, value: u64) {
        let epoch = tick / self.sub_width;
        let slot = self.slot_of(epoch);
        if !slot.claim(epoch) {
            return;
        }
        slot.count.fetch_add(1, Ordering::Relaxed);
        slot.sum.fetch_add(value, Ordering::Relaxed);
        // fetch_max is absent from the loom stand-in; CAS loop instead.
        let mut cur = slot.max.load(Ordering::Relaxed);
        while value > cur {
            match slot
                .max
                .compare_exchange_weak(cur, value, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        let idx = 64 - value.leading_zeros() as usize;
        // lint: panic: leading_zeros is in [0, 64], so idx is in [0, 64]
        slot.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Merges every sub-window still inside the trailing window ending at
    /// `tick` (the current, partially-filled sub-window included).
    pub fn merged(&self, tick: u64) -> WindowSummary {
        let now_epoch = tick / self.sub_width;
        let oldest = now_epoch.saturating_sub(SUB_WINDOWS as u64 - 1);
        let mut out = WindowSummary::default();
        for epoch in oldest..=now_epoch {
            let slot = self.slot_of(epoch);
            if slot.epoch.load(Ordering::Acquire) != epoch {
                continue;
            }
            out.count += slot.count.load(Ordering::Relaxed);
            out.sum += slot.sum.load(Ordering::Relaxed);
            out.max = out.max.max(slot.max.load(Ordering::Relaxed));
            for (acc, b) in out.buckets.iter_mut().zip(&slot.buckets) {
                *acc += b.load(Ordering::Relaxed);
            }
        }
        out
    }

    /// Drops all recorded history.
    pub fn clear(&self) {
        for slot in &self.slots {
            slot.zero();
            slot.epoch.store(UNCLAIMED, Ordering::Release);
        }
    }
}

/// The merged view of a [`WindowedHist`] at one point in time.
#[derive(Clone)]
pub struct WindowSummary {
    /// Observations inside the window.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Largest observed value (exact, not bucketed).
    pub max: u64,
    /// Power-of-two bucket counts, same layout as the cumulative
    /// histograms.
    pub buckets: [u64; WINDOW_BUCKETS],
}

impl Default for WindowSummary {
    fn default() -> WindowSummary {
        WindowSummary {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; WINDOW_BUCKETS],
        }
    }
}

impl std::fmt::Debug for WindowSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowSummary")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("max", &self.max)
            .finish_non_exhaustive()
    }
}

/// Inclusive upper bound of pow2 bucket `i` (shared with the registry's
/// cumulative histogram rendering).
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl WindowSummary {
    /// The value at quantile `q` in `[0, 1]`, as the inclusive upper
    /// bound of the pow2 bucket holding that rank clamped to the exact
    /// max (so exact to within one bucket, and never above the max).
    /// `None` for an empty window.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // lint: count ≤ 2^53 in practice; rank arithmetic is on u64
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Median.
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Mean of the windowed observations, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        // lint: diagnostic-precision mean
        #[allow(clippy::cast_precision_loss)]
        (self.count != 0).then(|| self.sum as f64 / self.count as f64)
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn observations_merge_within_the_window() {
        let w = WindowedHist::new(10);
        w.observe(0, 4);
        w.observe(5, 6);
        w.observe(12, 100);
        let m = w.merged(15);
        assert_eq!(m.count, 3);
        assert_eq!(m.sum, 110);
        assert_eq!(m.max, 100);
    }

    #[test]
    fn old_sub_windows_age_out() {
        let w = WindowedHist::new(10);
        w.observe(0, 1_000);
        // Window is 8 sub-windows of 10 ticks; by tick 85 the epoch-0
        // slot (epochs 0 vs current 8) is out of range.
        let m = w.merged(85);
        assert_eq!(m.count, 0, "epoch-0 observation must have aged out");
        assert_eq!(m.quantile(0.99), None);
        // And the slot is recycled on the next write that maps to it.
        w.observe(80, 5);
        assert_eq!(w.merged(85).count, 1);
    }

    #[test]
    fn rotation_pins_exact_bucket_counts() {
        // Fixture for the satellite: exact bucket counts after rotation.
        let w = WindowedHist::new(100);
        // epoch 0: values 1 (bucket 1) and 3 (bucket 2)
        w.observe(0, 1);
        w.observe(99, 3);
        // epoch 1: value 3 again and 300 (bucket 9: 256..511)
        w.observe(100, 3);
        w.observe(150, 300);
        let m = w.merged(199);
        assert_eq!(m.count, 4);
        assert_eq!(m.buckets[1], 1, "one sample of value 1");
        assert_eq!(m.buckets[2], 2, "two samples of value 3");
        assert_eq!(m.buckets[9], 1, "one sample of value 300");
        assert_eq!(m.max, 300);
        // Ring wraps: epoch 8 reuses epoch 0's slot and zeroes it.
        w.observe(800, 7);
        let m = w.merged(800);
        assert_eq!(m.count, 3, "epoch-0 samples displaced by wraparound");
        assert_eq!(m.buckets[1], 0);
        assert_eq!(m.buckets[2], 1, "epoch-1 sample of 3 still in window");
        assert_eq!(m.buckets[3], 1, "new sample of 7");
    }

    #[test]
    fn quantiles_walk_the_merged_buckets() {
        let w = WindowedHist::new(1_000);
        // 98 fast ops at 100µs (bucket 7: 64..127), 2 slow at 5000µs
        // (bucket 13: 4096..8191).
        for i in 0..98 {
            w.observe(i, 100);
        }
        w.observe(98, 5_000);
        w.observe(99, 5_000);
        let m = w.merged(100);
        assert_eq!(m.count, 100);
        assert_eq!(m.p50(), Some(bucket_upper_bound(7)));
        assert_eq!(m.p90(), Some(bucket_upper_bound(7)));
        // bucket 13's edge (8191) is above every sample: clamped to max
        assert_eq!(m.p99(), Some(5_000));
        assert_eq!(m.quantile(1.0), Some(5_000));
        assert_eq!(m.max, 5_000);
    }

    #[test]
    fn quantiles_never_exceed_the_max() {
        // Every sample sits below its bucket's edge (2^21 - 1 = 2097151).
        let w = WindowedHist::new(10);
        w.observe(0, 1_999_157);
        w.observe(1, 1_500_000);
        let m = w.merged(1);
        assert_eq!(m.p50(), Some(1_999_157));
        assert_eq!(m.p99(), Some(1_999_157));
    }

    #[test]
    fn top_bucket_reports_the_exact_max() {
        let w = WindowedHist::new(10);
        w.observe(0, u64::MAX);
        let m = w.merged(0);
        assert_eq!(m.quantile(0.99), Some(u64::MAX));
    }

    #[test]
    fn empty_window_mean_is_none() {
        let w = WindowedHist::new(10);
        assert_eq!(w.merged(0).mean(), None);
        w.observe(0, 10);
        w.observe(1, 20);
        // lint: tiny test floats compare exactly
        #[allow(clippy::float_cmp)]
        {
            assert_eq!(w.merged(1).mean(), Some(15.0));
        }
    }

    #[test]
    fn clear_forgets_everything() {
        let w = WindowedHist::new(10);
        w.observe(0, 42);
        w.clear();
        assert_eq!(w.merged(0).count, 0);
        w.observe(0, 7);
        assert_eq!(w.merged(0).count, 1);
    }
}
