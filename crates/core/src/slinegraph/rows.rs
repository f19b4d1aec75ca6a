//! The row runner behind the naive kernel and the counting and candidate
//! cores.
//!
//! A kernel's outer loop visits rows (outer hyperedges) from one of three
//! work sources ([`Rows`]). Each worker owns a reusable scratch buffer, an
//! output and its [`KernelStats`]; a static bin borrows its scratch from
//! an idle list and returns it when done, so the `n_e`-slot buffers
//! number the running threads, not the bins.

use super::stats::KernelStats;
use crate::{ids, Id};
use nwhy_util::partition::{par_map_bins, Strategy};
use nwhy_util::workq::ChunkedQueue;
use std::sync::{Mutex, PoisonError};

/// Where a kernel's rows (outer hyperedges) come from.
pub(super) enum Rows<'q> {
    /// Every hyperedge `0..n_e`, split by a static strategy. A counting
    /// row below the degree threshold counts the pairs it would have
    /// formed as skipped.
    All(Strategy),
    /// The hyperedges in a queue, its slots split by a static strategy.
    Queue(&'q [Id], Strategy),
    /// The hyperedges in a queue, drained by chunk stealing.
    Stealing(&'q ChunkedQueue<'q, Id>),
}

/// One worker's scratch, output and tallies.
pub(super) struct Worker<S, O> {
    pub scratch: S,
    pub out: O,
    pub stats: KernelStats,
}

/// Runs `row(worker, i, all)` for every row `rows` yields over a
/// hypergraph of `ne` hyperedges; `all` is true for [`Rows::All`].
/// Returns each worker's output (in bin order for the static sources)
/// and the merged tallies, which the caller flushes once it knows how
/// many edges it emitted.
pub(super) fn run_rows<S, O, N, I, F>(
    ne: usize,
    rows: Rows<'_>,
    scratch: N,
    init: I,
    row: F,
) -> (Vec<O>, KernelStats)
where
    S: Send,
    O: Send,
    N: Fn() -> S + Sync,
    I: Fn() -> O + Sync,
    F: Fn(&mut Worker<S, O>, Id, bool) + Sync,
{
    let idle = Mutex::new(Vec::new());
    // Every update leaves the idle list valid, so a poisoned lock is
    // still safe to use.
    let fresh = || {
        let reused = idle.lock().unwrap_or_else(PoisonError::into_inner).pop();
        Worker {
            scratch: reused.unwrap_or_else(&scratch),
            out: init(),
            stats: KernelStats::default(),
        }
    };
    let run_bin = |row_ids: &mut dyn Iterator<Item = Id>, all: bool| {
        let mut w = fresh();
        for i in row_ids {
            row(&mut w, i, all);
        }
        idle.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(w.scratch);
        (w.out, w.stats)
    };
    let done = match rows {
        Rows::All(strategy) => par_map_bins(ne, strategy, |bin| {
            run_bin(&mut bin.map(ids::from_usize), true)
        }),
        Rows::Queue(queue, strategy) => par_map_bins(queue.len(), strategy, |bin| {
            run_bin(&mut bin.filter_map(|slot| queue.get(slot).copied()), false)
        }),
        Rows::Stealing(q) => {
            let workers = rayon::current_num_threads().max(1);
            q.drain_with(workers, fresh, |w, &i| row(w, i, false))
                .into_iter()
                .map(|w| (w.out, w.stats))
                .collect()
        }
    };
    let mut stats = KernelStats::default();
    let outs = done.into_iter().map(|(out, s)| {
        stats.merge(&s);
        out
    });
    (outs.collect(), stats)
}
