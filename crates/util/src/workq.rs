//! A chunked dynamic work queue.
//!
//! The paper's Algorithms 1–2 are "work queue-based": hyperedge IDs (or
//! pairs) are enqueued up front and workers drain the queue. Static
//! partitioning (blocked/cyclic) fixes each worker's share when the loop
//! starts; the [`ChunkedQueue`] here instead hands out fixed-size chunks
//! through an atomic cursor, so a worker that drew cheap items simply
//! comes back for more — self-scheduling in the classic
//! guided/chunked-dynamic style, and the finest-grained answer to the
//! skewed-degree imbalance §III-D discusses.

use crate::sync::{AtomicUsize, Ordering};

/// A slice-backed queue handing out contiguous chunks atomically.
#[derive(Debug)]
pub struct ChunkedQueue<'a, T> {
    items: &'a [T],
    cursor: AtomicUsize,
    chunk: usize,
}

impl<'a, T> ChunkedQueue<'a, T> {
    /// Wraps `items` with the given chunk size (`0` is treated as 1).
    pub fn new(items: &'a [T], chunk: usize) -> Self {
        Self {
            items,
            cursor: AtomicUsize::new(0),
            chunk: chunk.max(1),
        }
    }

    /// Chunk size chosen so that roughly `4 × workers` chunks exist per
    /// worker (a common guided-scheduling default), at least 1.
    pub fn with_auto_chunk(items: &'a [T], workers: usize) -> Self {
        let target_chunks = workers.max(1) * 16;
        Self::new(items, items.len().div_ceil(target_chunks).max(1))
    }

    /// Total number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the queue wraps no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The configured chunk size. `len().div_ceil(chunk_size())` is the
    /// number of successful steals a full drain performs — the quantity
    /// the instrumented queue kernels report.
    pub fn chunk_size(&self) -> usize {
        self.chunk
    }

    /// Atomically takes the next chunk; `None` once drained.
    ///
    /// The cursor stays bounded after the queue drains. A bare
    /// `fetch_add` would keep growing by `chunk` on every post-drain
    /// call — harmless for one drain, but a queue polled in a loop
    /// (BFS levels retry steal until `None`) would march the cursor
    /// toward `usize::MAX` and eventually wrap, handing out chunks
    /// again. Two guards prevent that: a `Relaxed` fast-path load skips
    /// the RMW entirely once the cursor is past the end (the common
    /// post-drain case), and the thread that overshoots tries once to
    /// CAS the cursor back down to `len`. All orderings are `Relaxed`
    /// per the [`crate::atomics`] policy: the cursor only partitions
    /// index space, it never publishes data — the `&[T]` items were
    /// written before the queue was built and are frozen for its
    /// lifetime, so the borrow itself is the synchronization.
    pub fn steal(&self) -> Option<&'a [T]> {
        let len = self.items.len();
        if self.cursor.load(Ordering::Relaxed) >= len {
            return None;
        }
        let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= len {
            // We overshot: undo our own increment if nobody else has
            // moved the cursor since. If the CAS fails another thread
            // either overshot too (its own cap attempt follows) or a
            // racing fast-path already saw a bounded value; one
            // winning cap per drain is enough to keep it bounded.
            let _ = self.cursor.compare_exchange(
                start + self.chunk,
                len,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            return None;
        }
        Some(&self.items[start..(start + self.chunk).min(len)])
    }

    /// Current cursor position (diagnostic; racy by nature).
    ///
    /// After a full drain this is at most `len() + chunk` — bounded —
    /// which the regression tests assert.
    pub fn cursor(&self) -> usize {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Drains the queue with `workers` rayon tasks, each repeatedly
    /// stealing chunks and folding items into a worker-local accumulator;
    /// returns all accumulators.
    ///
    /// Not available under `cfg(loom)`: the loom models drive
    /// [`steal`](Self::steal) directly with model-checked threads rather
    /// than through rayon's scheduler.
    #[cfg(not(loom))]
    pub fn drain_with<A, I, F>(&self, workers: usize, init: I, f: F) -> Vec<A>
    where
        T: Sync,
        A: Send,
        I: Fn() -> A + Sync,
        F: Fn(&mut A, &T) + Sync,
    {
        use rayon::prelude::*;
        (0..workers.max(1))
            .into_par_iter()
            .map(|_| {
                let mut acc = init();
                while let Some(chunk) = self.steal() {
                    for item in chunk {
                        f(&mut acc, item);
                    }
                }
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_covers_everything_once() {
        let items: Vec<u32> = (0..103).collect();
        let q = ChunkedQueue::new(&items, 10);
        let mut seen = Vec::new();
        while let Some(c) = q.steal() {
            seen.extend_from_slice(c);
        }
        assert_eq!(seen, items);
        assert!(q.steal().is_none());
    }

    #[test]
    fn zero_chunk_treated_as_one() {
        let items = [1, 2, 3];
        let q = ChunkedQueue::new(&items, 0);
        assert_eq!(q.steal(), Some(&items[0..1]));
    }

    #[test]
    fn auto_chunk_is_positive() {
        let items: Vec<u32> = (0..5).collect();
        let q = ChunkedQueue::with_auto_chunk(&items, 8);
        assert!(!q.is_empty());
        assert_eq!(q.len(), 5);
        let mut n = 0;
        while let Some(c) = q.steal() {
            n += c.len();
        }
        assert_eq!(n, 5);
    }

    #[test]
    fn concurrent_steal_partitions() {
        let items: Vec<u32> = (0..10_000).collect();
        let q = ChunkedQueue::new(&items, 7);
        let sums: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let mut sum = 0u64;
                        while let Some(c) = q.steal() {
                            sum += c.iter().map(|&x| x as u64).sum::<u64>();
                        }
                        sum
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let total: u64 = sums.iter().sum();
        assert_eq!(total, 10_000 * 9_999 / 2);
    }

    #[test]
    fn drain_with_collects_accumulators() {
        let items: Vec<u32> = (0..1000).collect();
        let q = ChunkedQueue::new(&items, 13);
        let accs = q.drain_with(4, Vec::new, |acc: &mut Vec<u32>, &x| acc.push(x));
        let mut all: Vec<u32> = accs.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, items);
    }

    #[test]
    fn empty_queue() {
        let items: Vec<u32> = Vec::new();
        let q = ChunkedQueue::new(&items, 4);
        assert!(q.is_empty());
        assert!(q.steal().is_none());
        let accs = q.drain_with(3, || 0u32, |acc, &x| *acc += x);
        assert_eq!(accs.iter().sum::<u32>(), 0);
    }

    #[test]
    fn cursor_stays_bounded_after_drain() {
        // Regression: steal() used to fetch_add unconditionally, so a
        // drained queue polled N more times grew its cursor by N*chunk.
        let items: Vec<u32> = (0..10).collect();
        let q = ChunkedQueue::new(&items, 3);
        while q.steal().is_some() {}
        let after_drain = q.cursor();
        for _ in 0..10_000 {
            assert!(q.steal().is_none());
        }
        assert_eq!(q.cursor(), after_drain, "cursor grew on post-drain polls");
        assert!(after_drain <= items.len() + 3);
    }

    #[test]
    fn cursor_bounded_under_concurrent_post_drain_polls() {
        let items: Vec<u32> = (0..100).collect();
        let q = ChunkedQueue::new(&items, 7);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let q = &q;
                s.spawn(move || {
                    // drain plus many extra polls racing with other threads
                    for _ in 0..5_000 {
                        let _ = q.steal();
                    }
                });
            }
        });
        // Worst case: every thread overshoots once before any cap lands,
        // but no poll after the first observed-drained load adds anything.
        assert!(
            q.cursor() <= items.len() + 8 * 7,
            "cursor {} escaped bound",
            q.cursor()
        );
    }
}
