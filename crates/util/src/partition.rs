//! Work-partitioning strategies (NWHy §III-D).
//!
//! The paper parallelizes its kernels with oneTBB `parallel_for` over three
//! kinds of ranges:
//!
//! - **blocked range** — contiguous ID chunks, one chunk per task (TBB's
//!   built-in `blocked_range`);
//! - **cyclic range** — with stride equal to the bin count `nb`, bin 0
//!   processes IDs `0, nb, 2·nb, …`, bin 1 processes `1, 1+nb, …`, etc.,
//!   which de-clusters skewed degree distributions (especially after
//!   relabel-by-degree);
//! - **cyclic neighbor range** — cyclic, but yielding `(id, neighborhood)`
//!   tuples; the s-line kernels get it from a cyclic [`Strategy`] bin whose
//!   row runner (`nwhy-core`'s `slinegraph::rows`) reads each row's
//!   neighborhood.
//!
//! Rayon's work-stealing scheduler plays the role of TBB's; each bin/block
//! becomes one stealable task.

use rayon::prelude::*;
use std::ops::Range;

/// How a `[0, n)` iteration space is split into parallel tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Contiguous chunks; `0` bins means "let rayon decide" (auto
    /// partitioner analog).
    Blocked { num_bins: usize },
    /// Strided assignment with `num_bins` bins (`0` = one bin per thread).
    Cyclic { num_bins: usize },
}

impl Strategy {
    /// Blocked with rayon-chosen granularity.
    pub const AUTO: Strategy = Strategy::Blocked { num_bins: 0 };

    /// Resolves `num_bins == 0` to a concrete bin count.
    pub fn bins(&self) -> usize {
        let requested = match self {
            Strategy::Blocked { num_bins } | Strategy::Cyclic { num_bins } => *num_bins,
        };
        if requested == 0 {
            (rayon::current_num_threads() * 4).max(1)
        } else {
            requested
        }
    }
}

/// Splits `0..n` into at most `n_blocks` contiguous ranges of near-equal
/// length. Empty ranges are omitted.
pub fn blocked_ranges(n: usize, n_blocks: usize) -> Vec<Range<usize>> {
    if n == 0 || n_blocks == 0 {
        return Vec::new();
    }
    let block = n.div_ceil(n_blocks);
    (0..n)
        .step_by(block)
        .map(|start| start..(start + block).min(n))
        .collect()
}

/// The indices owned by `bin` under cyclic partitioning of `0..n` with
/// `num_bins` bins: `bin, bin + num_bins, bin + 2·num_bins, …`.
#[derive(Debug, Clone)]
pub struct CyclicRange {
    next: usize,
    n: usize,
    stride: usize,
}

impl CyclicRange {
    /// Creates the cyclic range for `bin` of `num_bins` over `0..n`.
    ///
    /// # Panics
    /// Panics if `num_bins == 0` or `bin >= num_bins`.
    pub fn new(bin: usize, num_bins: usize, n: usize) -> Self {
        assert!(num_bins > 0, "num_bins must be positive");
        assert!(bin < num_bins, "bin {bin} out of range {num_bins}");
        Self {
            next: bin,
            n,
            stride: num_bins,
        }
    }
}

impl Iterator for CyclicRange {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.next >= self.n {
            return None;
        }
        let cur = self.next;
        self.next += self.stride;
        Some(cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = if self.next >= self.n {
            0
        } else {
            (self.n - self.next).div_ceil(self.stride)
        };
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for CyclicRange {}

/// Runs `f(i)` for every `i in 0..n` in parallel under `strategy`.
///
/// This is the Rust analog of Listing 4's `tbb::parallel_for` calls: blocked
/// chunks or cyclic bins become rayon tasks, and rayon's work stealing
/// rebalances stragglers exactly as TBB's scheduler does in the paper.
pub fn par_for_each_index<F>(n: usize, strategy: Strategy, f: F)
where
    F: Fn(usize) + Sync + Send,
{
    match strategy {
        Strategy::Blocked { num_bins: 0 } => {
            (0..n).into_par_iter().for_each(f);
        }
        Strategy::Blocked { num_bins } => {
            blocked_ranges(n, num_bins).into_par_iter().for_each(|r| {
                for i in r {
                    f(i);
                }
            });
        }
        Strategy::Cyclic { num_bins } => {
            let bins = if num_bins == 0 {
                Strategy::Cyclic { num_bins }.bins()
            } else {
                num_bins
            };
            (0..bins).into_par_iter().for_each(|bin| {
                for i in CyclicRange::new(bin, bins, n) {
                    f(i);
                }
            });
        }
    }
}

/// The indices one bin of a [`Strategy`] owns: a contiguous block or a
/// cyclic stride.
#[derive(Debug, Clone)]
pub enum Bin {
    /// A blocked bin's contiguous range.
    Blocked(Range<usize>),
    /// A cyclic bin's strided indices.
    Cyclic(CyclicRange),
}

impl Iterator for Bin {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            Bin::Blocked(r) => r.next(),
            Bin::Cyclic(c) => c.next(),
        }
    }
}

/// Runs `f` once per bin of `0..n` under `strategy`, each bin as one
/// rayon task, and returns the results in bin order. Callers that need
/// per-task setup and teardown (a scratch buffer borrowed for the bin's
/// duration, the per-thread edge lists `L_t(H)` of Algorithms 1–2) build
/// on this; plain per-index loops use [`par_for_each_index`].
pub fn par_map_bins<A, F>(n: usize, strategy: Strategy, f: F) -> Vec<A>
where
    A: Send,
    F: Fn(Bin) -> A + Sync,
{
    let bins = strategy.bins();
    match strategy {
        Strategy::Blocked { .. } => blocked_ranges(n, bins)
            .into_par_iter()
            .map(|r| f(Bin::Blocked(r)))
            .collect(),
        Strategy::Cyclic { .. } => (0..bins)
            .into_par_iter()
            .map(|bin| f(Bin::Cyclic(CyclicRange::new(bin, bins, n))))
            .collect(),
    }
}

/// Per-bin workload report for a partitioning strategy over items whose
/// costs are given by `cost`: returns `(max_bin, mean_bin, imbalance)`
/// where `imbalance = max / mean` (1.0 = perfectly balanced). This is the
/// §III-D diagnosis tool: blocked partitioning of a degree-sorted
/// skewed graph shows large imbalance, cyclic shows ~1.
pub fn imbalance_report(costs: &[usize], strategy: Strategy) -> (usize, f64, f64) {
    let bins = strategy.bins();
    let mut bin_cost = vec![0usize; bins];
    match strategy {
        Strategy::Blocked { .. } => {
            for (b, r) in blocked_ranges(costs.len(), bins).into_iter().enumerate() {
                bin_cost[b] = r.map(|i| costs[i]).sum();
            }
        }
        Strategy::Cyclic { .. } => {
            for (b, slot) in bin_cost.iter_mut().enumerate() {
                *slot = CyclicRange::new(b, bins, costs.len())
                    .map(|i| costs[i])
                    .sum();
            }
        }
    }
    let max = bin_cost.iter().copied().max().unwrap_or(0);
    let total: usize = bin_cost.iter().sum();
    let mean = total as f64 / bins as f64;
    let imbalance = if mean == 0.0 { 1.0 } else { max as f64 / mean };
    (max, mean, imbalance)
}

#[cfg(test)]
mod tests {
    use super::*;
    // lint: deliberately std, not crate::sync — these model-free tests
    // also run under the `--cfg loom` CI job, outside loom::model
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn blocked_ranges_cover_without_overlap() {
        let ranges = blocked_ranges(10, 3);
        let all: Vec<usize> = ranges.iter().cloned().flatten().collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn blocked_ranges_more_blocks_than_items() {
        let ranges = blocked_ranges(2, 8);
        let all: Vec<usize> = ranges.iter().cloned().flatten().collect();
        assert_eq!(all, vec![0, 1]);
    }

    #[test]
    fn blocked_ranges_empty() {
        assert!(blocked_ranges(0, 4).is_empty());
        assert!(blocked_ranges(5, 0).is_empty());
    }

    #[test]
    fn cyclic_range_strides_correctly() {
        let idx: Vec<usize> = CyclicRange::new(1, 3, 10).collect();
        assert_eq!(idx, vec![1, 4, 7]);
    }

    #[test]
    fn cyclic_range_size_hint_is_exact() {
        for n in 0..20 {
            for bins in 1..5 {
                for b in 0..bins {
                    let r = CyclicRange::new(b, bins, n);
                    assert_eq!(r.len(), r.clone().count(), "n={n} bins={bins} b={b}");
                }
            }
        }
    }

    #[test]
    fn cyclic_bins_partition_the_space() {
        let n = 23;
        let bins = 4;
        let mut seen = vec![0u32; n];
        for b in 0..bins {
            for i in CyclicRange::new(b, bins, n) {
                seen[i] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn cyclic_rejects_bad_bin() {
        let _ = CyclicRange::new(3, 3, 10);
    }

    fn visits_all(strategy: Strategy) {
        let n = 1000;
        let counts: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for_each_index(n, strategy, |i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(counts.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_blocked_auto_visits_each_once() {
        visits_all(Strategy::AUTO);
    }

    #[test]
    fn par_blocked_visits_each_once() {
        visits_all(Strategy::Blocked { num_bins: 7 });
    }

    #[test]
    fn par_cyclic_visits_each_once() {
        visits_all(Strategy::Cyclic { num_bins: 5 });
    }

    #[test]
    fn par_cyclic_zero_bins_defaults() {
        visits_all(Strategy::Cyclic { num_bins: 0 });
    }

    #[test]
    fn imbalance_blocked_on_sorted_skew() {
        // costs sorted descending: blocked gives all heavy items to bin 0
        let costs: Vec<usize> = (0..100).map(|i| 100 - i).collect();
        let blocked = imbalance_report(&costs, Strategy::Blocked { num_bins: 4 });
        let cyclic = imbalance_report(&costs, Strategy::Cyclic { num_bins: 4 });
        assert!(blocked.2 > 1.3, "blocked imbalance {}", blocked.2);
        assert!(cyclic.2 < 1.05, "cyclic imbalance {}", cyclic.2);
    }

    #[test]
    fn imbalance_uniform_costs_balanced() {
        let costs = vec![5usize; 64];
        for s in [
            Strategy::Blocked { num_bins: 4 },
            Strategy::Cyclic { num_bins: 4 },
        ] {
            let (_, _, imb) = imbalance_report(&costs, s);
            assert!((imb - 1.0).abs() < 1e-9, "{s:?}");
        }
    }

    #[test]
    fn imbalance_empty_costs() {
        let (max, mean, imb) = imbalance_report(&[], Strategy::Cyclic { num_bins: 3 });
        assert_eq!(max, 0);
        assert_eq!(mean, 0.0);
        assert_eq!(imb, 1.0);
    }

    #[test]
    fn with_accumulators_collects_everything() {
        for strategy in [
            Strategy::Blocked { num_bins: 3 },
            Strategy::Cyclic { num_bins: 3 },
        ] {
            let accs = par_map_bins(100, strategy, |bin| bin.collect::<Vec<usize>>());
            let mut all: Vec<usize> = accs.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn blocked_bins_come_back_in_index_order() {
        // the s-line kernels rely on this: sorted rows per blocked bin
        // concatenate into one sorted list
        let bins = par_map_bins(100, Strategy::Blocked { num_bins: 7 }, |bin| {
            bin.collect::<Vec<usize>>()
        });
        let all: Vec<usize> = bins.concat();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }

    mod props {
        use super::*;
        // not the prelude: proptest's `Strategy` trait would shadow ours
        use proptest::{prop_assert, prop_assert_eq, proptest};

        proptest! {
            // Both partitioners must form an exact partition of 0..n for
            // any (n, bins), including n == 0, n < bins, and n == bins.
            #[test]
            fn prop_blocked_ranges_partition(n in 0usize..500, bins in 1usize..20) {
                let ranges = blocked_ranges(n, bins);
                prop_assert!(ranges.len() <= bins);
                let all: Vec<usize> = ranges.iter().cloned().flatten().collect();
                prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
            }

            #[test]
            fn prop_cyclic_bins_partition(n in 0usize..500, bins in 1usize..20) {
                let mut seen = vec![0u32; n];
                for b in 0..bins {
                    for i in CyclicRange::new(b, bins, n) {
                        seen[i] += 1;
                    }
                }
                prop_assert!(seen.iter().all(|&c| c == 1));
            }

            // Visit-exactly-once must hold under real parallel execution
            // for every strategy and edge-shaped n (0, 1, == bins, etc.).
            #[test]
            fn prop_par_for_each_visits_once(n in 0usize..300, bins in 0usize..9) {
                for strategy in [
                    Strategy::Blocked { num_bins: bins },
                    Strategy::Cyclic { num_bins: bins },
                ] {
                    let counts: Vec<AtomicUsize> =
                        (0..n).map(|_| AtomicUsize::new(0)).collect();
                    par_for_each_index(n, strategy, |i| {
                        counts[i].fetch_add(1, Ordering::Relaxed);
                    });
                    prop_assert!(
                        counts.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                        "strategy {strategy:?} n {n}"
                    );
                }
            }

            #[test]
            fn prop_accumulators_lose_nothing(n in 0usize..300, bins in 1usize..9) {
                for strategy in [
                    Strategy::Blocked { num_bins: bins },
                    Strategy::Cyclic { num_bins: bins },
                ] {
                    let accs = par_map_bins(n, strategy, |bin| bin.collect::<Vec<usize>>());
                    let mut all: Vec<usize> = accs.into_iter().flatten().collect();
                    all.sort_unstable();
                    prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
                }
            }
        }
    }
}
