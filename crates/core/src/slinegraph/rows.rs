//! The row runner behind the naive kernel and the counting and candidate
//! cores.
//!
//! A kernel's outer loop visits rows (outer hyperedges) from one of two
//! work sources ([`Rows`]). Each worker owns a reusable scratch buffer, an
//! output and its [`KernelStats`]; a bin borrows its scratch from
//! an idle list and returns it when done, so the `n_e`-slot buffers
//! number the running threads, not the bins.

use super::stats::KernelStats;
use crate::{ids, Id};
use nwhy_util::partition::{blocked_ranges, par_map_bins, Strategy};
use std::convert::Infallible;
use std::sync::{Mutex, PoisonError};

/// Where a kernel's rows (outer hyperedges) come from.
pub(super) enum Rows<'q> {
    /// Every hyperedge `0..n_e`, split by a static strategy. A counting
    /// row below the degree threshold counts the pairs it would have
    /// formed as skipped.
    All(Strategy),
    /// The hyperedges in a queue, its slots split by a static strategy.
    Queue(&'q [Id], Strategy),
}

/// One worker's scratch, output and tallies.
pub(super) struct Worker<S, O> {
    pub scratch: S,
    pub out: O,
    pub stats: KernelStats,
}

/// Runs `row(worker, i, all)` for every row `rows` yields over a
/// hypergraph of `ne` hyperedges; `all` is true for [`Rows::All`].
/// Returns each worker's output (in bin order) and the merged tallies,
/// which the caller flushes once it knows how many edges it emitted.
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
    let mut outs = Vec::new();
    let stats = run_waves(ne, rows, 1, scratch, init, row, |wave| {
        outs.extend(wave);
        Ok::<(), Infallible>(())
    });
    (outs, stats.unwrap_or_else(|never| match never {}))
}

/// [`run_rows`] in `waves` consecutive row ranges, one after another:
/// `sink` takes each range's bin outputs, in bin order, before the next
/// range starts, and an error from it stops the run. Blocked bins over a
/// range keep row order, so the outputs `sink` sees come in row order
/// overall. Cyclic bins run as one wave.
pub(super) fn run_waves<S, O, N, I, F, K, E>(
    ne: usize,
    rows: Rows<'_>,
    waves: usize,
    scratch: N,
    init: I,
    row: F,
    mut sink: K,
) -> Result<KernelStats, E>
where
    S: Send,
    O: Send,
    N: Fn() -> S + Sync,
    I: Fn() -> O + Sync,
    F: Fn(&mut Worker<S, O>, Id, bool) + Sync,
    K: FnMut(Vec<O>) -> Result<(), E>,
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
    let mut stats = KernelStats::default();
    let mut take = |done: Vec<(O, KernelStats)>| {
        let outs = done.into_iter().map(|(out, s)| {
            stats.merge(&s);
            out
        });
        sink(outs.collect())
    };
    // the slots of each wave: consecutive ranges for blocked bins
    let ranges = |n: usize, strategy: Strategy| match strategy {
        Strategy::Blocked { .. } if waves > 1 => blocked_ranges(n, waves),
        _ => std::iter::once(0..n).collect(),
    };
    match rows {
        Rows::All(strategy) => {
            for r in ranges(ne, strategy) {
                take(par_map_bins(r.len(), strategy, |bin| {
                    run_bin(&mut bin.map(|k| ids::from_usize(r.start + k)), true)
                }))?;
            }
        }
        Rows::Queue(queue, strategy) => {
            for r in ranges(queue.len(), strategy) {
                let slots = queue.get(r).unwrap_or_default();
                take(par_map_bins(slots.len(), strategy, |bin| {
                    run_bin(&mut bin.filter_map(|k| slots.get(k).copied()), false)
                }))?;
            }
        }
    }
    Ok(stats)
}
