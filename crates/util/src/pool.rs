//! Thread-pool helpers for the strong-scaling harnesses.
//!
//! The paper's Figures 7–8 sweep thread counts while holding the input
//! fixed. [`with_threads`] runs a closure inside a dedicated Rayon pool of
//! exactly `n` threads so every `par_iter`/`par_for_each_index` inside it is
//! bounded by that count.

use rayon::ThreadPoolBuilder;

/// Runs `f` on a fresh Rayon pool with exactly `n` worker threads and
/// returns its result. `n == 0` is treated as 1.
pub fn with_threads<R: Send>(n: usize, f: impl FnOnce() -> R + Send) -> R {
    let pool = ThreadPoolBuilder::new()
        .num_threads(n.max(1))
        .build()
        .expect("failed to build rayon pool");
    pool.install(f)
}

/// The maximum thread count the scaling experiments should sweep to on this
/// host: the number of available CPUs (as rayon detects it), at least 1.
pub fn max_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Powers of two `1, 2, 4, …` up to and including `max` (and `max` itself
/// if it is not a power of two) — the thread counts Figures 7–8 sweep.
pub fn thread_sweep(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut out = Vec::new();
    let mut t = 1;
    while t <= max {
        out.push(t);
        t *= 2;
    }
    if *out.last().unwrap() != max {
        out.push(max);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rayon::prelude::*;

    #[test]
    fn with_threads_limits_pool_size() {
        let seen = with_threads(2, rayon::current_num_threads);
        assert_eq!(seen, 2);
    }

    #[test]
    fn with_threads_zero_means_one() {
        let seen = with_threads(0, rayon::current_num_threads);
        assert_eq!(seen, 1);
    }

    #[test]
    fn with_threads_runs_parallel_work() {
        let sum: u64 = with_threads(3, || (0..1000u64).into_par_iter().sum());
        assert_eq!(sum, 499_500);
    }

    #[test]
    fn range_for_each_and_map_split_without_losing_order() {
        use crate::sync::{AtomicU32, Ordering};
        for threads in [1, 2, 3] {
            for n in [0u32, 1, 7, 1000] {
                let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                with_threads(threads, || {
                    (0..n as usize).into_par_iter().for_each(|i| {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    })
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
                let doubled: Vec<u32> = with_threads(threads, || {
                    (5..5 + n).into_par_iter().map(|i| 2 * i).collect()
                });
                assert_eq!(doubled, (5..5 + n).map(|i| 2 * i).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn thread_sweep_shapes() {
        assert_eq!(thread_sweep(1), vec![1]);
        assert_eq!(thread_sweep(4), vec![1, 2, 4]);
        assert_eq!(thread_sweep(6), vec![1, 2, 4, 6]);
        assert_eq!(thread_sweep(0), vec![1]);
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }
}
