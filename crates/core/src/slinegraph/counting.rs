//! The overlap-counting core behind every counting s-line kernel.
//!
//! For each outer hyperedge `e_i` a worker walks `e_i → v → e_j`
//! (`j > i`) and counts co-incidences in a dense sparse accumulator: a
//! `counts` array with one slot per hyperedge plus the list of slots the
//! row touched. An increment is an array bump, not a hash probe, and the
//! drain resets only the touched slots. The kernels differ only in where
//! rows come from ([`Rows`]) and in what they do with each
//! `(j, |e_i ∩ e_j|)` (the `emit` closure of [`count_rows`]).
//!
//! [`visit_pairs_meeting`] hands the same pairs to a sink that keeps no
//! edge list: s-components link them, toplexes mark the contained side.
//! Those sinks need no order, so their rows skip the sort.
//!
//! Every other caller gets a row's entries in `j` order, so under a
//! blocked strategy the workers' lists concatenate into a sorted list
//! and [`canonicalize`]'s sort is a linear pass. [`stream_pairs_meeting`]
//! relies on the same order to hand the bins' outputs straight to a
//! writer.

use super::rows::{run_rows, run_waves, Rows, Worker};
use super::stats::KernelStats;
use super::{canonicalize, meets, HyperAdjacency};
use crate::ids::{self, Overlap};
use crate::Id;
use nwhy_util::partition::Strategy;

/// The dense sparse accumulator. Between rows `counts` is all zero and
/// the two lists are empty.
#[derive(Default)]
struct Spa {
    counts: Vec<Overlap>,
    touched: Vec<Id>,
    kept: Vec<(Id, Overlap)>,
}

impl Spa {
    fn new(ne: usize) -> Self {
        Spa {
            counts: vec![0; ne],
            ..Spa::default()
        }
    }
}

impl<O> Worker<Spa, O> {
    /// Counts row `i` (skipped when `deg(e_i) < min_s`), resets the
    /// touched slots, and emits the entries meeting `min_s`: in `j`
    /// order when `ordered`, else in the order they were first touched.
    #[inline]
    fn row<A, F>(&mut self, h: &A, i: Id, min_s: usize, count_skips: bool, ordered: bool, emit: &F)
    where
        A: HyperAdjacency + ?Sized,
        F: Fn(&mut O, Id, Id, Overlap),
    {
        let nbrs_i = h.edge_neighbors(i);
        // Alg. 1 lines 6–7
        if nbrs_i.len() < min_s {
            if count_skips {
                let ne = h.num_hyperedges() as u64;
                self.stats.pairs_skipped(ne - 1 - u64::from(i));
            }
            return;
        }
        let Spa {
            counts,
            touched,
            kept,
        } = &mut self.scratch;
        // Alg. 1 lines 9–11
        for &v in nbrs_i.iter() {
            for &raw in h.node_neighbors(v).iter() {
                let j = h.edge_id(raw);
                if j > i {
                    self.stats.hashmap_insertion();
                    if let Some(n) = counts.get_mut(ids::to_usize(j)) {
                        if *n == 0 {
                            // lint: alloc: reused across rows; push is amortized O(1)
                            touched.push(j);
                        }
                        *n += 1;
                    }
                }
            }
        }
        // Each distinct counted candidate is one examined pair.
        self.stats.pairs_examined_n(touched.len() as u64);
        // Alg. 1 lines 12–14
        for &j in touched.iter() {
            if let Some(n) = counts.get_mut(ids::to_usize(j)) {
                if meets(*n, min_s) {
                    // lint: alloc: reused across rows; push is amortized O(1)
                    kept.push((j, *n));
                }
                *n = 0;
            }
        }
        touched.clear();
        if ordered {
            kept.sort_unstable();
        }
        for &(j, n) in kept.iter() {
            emit(&mut self.out, i, j, n);
        }
        kept.clear();
    }
}

/// Counts every row `rows` yields, calling `emit(out, i, j, n)` for each
/// pair whose overlap `n` meets `min_s`. Returns each worker's output (in
/// bin order for the static sources) and the merged tallies, which the
/// caller flushes once it knows how many edges it emitted.
pub(super) fn count_rows<A, O, I, F>(
    h: &A,
    rows: Rows<'_>,
    min_s: usize,
    init: I,
    emit: F,
) -> (Vec<O>, KernelStats)
where
    A: HyperAdjacency + ?Sized,
    O: Send,
    I: Fn() -> O + Sync,
    F: Fn(&mut O, Id, Id, Overlap) + Sync,
{
    let ne = h.num_hyperedges();
    run_rows(
        ne,
        rows,
        || Spa::new(ne),
        init,
        |w, i, all| w.row(h, i, min_s, all, true, &emit),
    )
}

/// Counts `rows` in waves of consecutive row ranges, as many as
/// [`Strategy::AUTO`] has bins, and streams the pairs whose overlap meets
/// `s`: `emit(out, i, j)` writes each pair into its bin's output, and
/// `sink` takes the outputs in bin order, one wave at a time, so about
/// 1/(4·threads) of the output is in flight. Under blocked bins over
/// ascending rows that order is the canonical one, with no pair vector
/// and no [`canonicalize`]. Returns how many pairs were emitted.
pub(super) fn stream_pairs_meeting<A, O, I, F, K, E>(
    h: &A,
    rows: Rows<'_>,
    s: usize,
    init: I,
    emit: F,
    mut sink: K,
) -> Result<usize, E>
where
    A: HyperAdjacency + ?Sized,
    O: Send,
    I: Fn() -> O + Sync,
    F: Fn(&mut O, Id, Id) + Sync,
    K: FnMut(O) -> Result<(), E>,
{
    let ne = h.num_hyperedges();
    // each output carries its pair count
    let counted = |out: &mut (O, usize), i, j, _| {
        emit(&mut out.0, i, j);
        out.1 += 1;
    };
    let mut emitted = 0;
    let stats = run_waves(
        ne,
        rows,
        Strategy::AUTO.bins(),
        || Spa::new(ne),
        || (init(), 0),
        |w, i, all| w.row(h, i, s, all, true, &counted),
        |wave| {
            wave.into_iter().try_for_each(|(out, n)| {
                emitted += n;
                sink(out)
            })
        },
    )?;
    stats.flush(emitted);
    Ok(emitted)
}

/// Counts every hyperedge's row once, as one wave, and calls
/// `visit(i, j, n)` on the pool threads for each pair `i < j` whose
/// overlap `n = |e_i ∩ e_j|` meets `s`, in no set order; then flushes the
/// tallies with the visited pairs as the emitted edges. The overlap
/// queries that need no edge list (s-components, toplexes) are sinks of
/// this walk.
pub(crate) fn visit_pairs_meeting<A, V>(h: &A, s: usize, visit: V)
where
    A: HyperAdjacency + ?Sized,
    V: Fn(Id, Id, Overlap) + Sync,
{
    let ne = h.num_hyperedges();
    let visited_pair = |visited: &mut usize, i, j, n| {
        visit(i, j, n);
        *visited += 1;
    };
    // the sinks need no order, so a row's pairs skip the sort
    let (visited, stats) = run_rows(
        ne,
        Rows::All(Strategy::AUTO),
        || Spa::new(ne),
        || 0usize,
        |w, i, all| w.row(h, i, s, all, false, &visited_pair),
    );
    stats.flush(visited.iter().sum());
}

/// Counts `rows` and returns the canonical pairs whose overlap meets `s`
/// — the whole of the hashmap kernel and of Algorithm 1.
pub(super) fn pairs_meeting<A: HyperAdjacency + ?Sized>(
    h: &A,
    rows: Rows<'_>,
    s: usize,
) -> Vec<(Id, Id)> {
    // lint: alloc: per-worker output accumulator; push is amortized O(1)
    let (outs, stats) = count_rows(h, rows, s, Vec::new, |out, i, j, _| out.push((i, j)));
    let pairs = outs.concat();
    stats.flush(pairs.len());
    canonicalize(pairs)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::ensemble::ensemble;
    use super::super::hashmap::hashmap;
    use super::super::naive::naive;
    use super::super::queue_single::queue_hashmap;
    use super::super::weighted::slinegraph_weighted_edges;
    use super::*;
    use crate::adjoin::AdjoinGraph;
    use crate::hypergraph::Hypergraph;
    use crate::ids::Relabeling;
    use crate::repr::RelabeledView;
    use nwhy_util::partition::Strategy;
    use proptest::strategy::Strategy as _;
    use proptest::{prop_assert_eq, proptest};

    pub(in crate::slinegraph) const STRATEGIES: [Strategy; 3] = [
        Strategy::AUTO,
        Strategy::Blocked { num_bins: 3 },
        Strategy::Cyclic { num_bins: 2 },
    ];

    pub(crate) fn arb_memberships() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Id>>> {
        proptest::collection::vec(proptest::collection::btree_set(0u32..20, 0..8), 0..12)
            .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
    }

    /// The descending-degree relabeling of `h`'s hyperedges.
    pub(crate) fn descending(h: &Hypergraph) -> Relabeling {
        let degrees: Vec<usize> = (0..h.num_hyperedges())
            .map(|e| h.edge_degree(ids::from_usize(e)))
            .collect();
        Relabeling::from_permutation(nwgraph::degree_permutation(
            &degrees,
            nwgraph::Direction::Descending,
        ))
    }

    /// A named queue and the pairs it must give.
    pub(in crate::slinegraph) type QueueCase = (&'static str, Vec<Id>, Vec<(Id, Id)>);

    /// The queues a case runs: every hyperedge in order, the same
    /// shuffled by `seed`, and a partial queue, which gives the pairs of
    /// `want` whose lower ID it holds.
    pub(in crate::slinegraph) fn queue_cases<A: HyperAdjacency + ?Sized>(
        h: &A,
        want: &[(Id, Id)],
        seed: u32,
    ) -> [QueueCase; 3] {
        let all: Vec<Id> = (0..ids::from_usize(h.num_hyperedges())).collect();
        let mix = |e: Id| (e ^ seed).wrapping_mul(0x9E37_79B9).rotate_left(13);
        let mut shuffled = all.clone();
        shuffled.sort_by_key(|&e| mix(e));
        let partial: Vec<Id> = shuffled
            .iter()
            .copied()
            .filter(|&e| mix(e) & 4 == 0)
            .collect();
        let want_partial: Vec<(Id, Id)> = want
            .iter()
            .copied()
            .filter(|(a, _)| partial.contains(a))
            .collect();
        [
            ("all", all, want.to_vec()),
            ("shuffled", shuffled, want.to_vec()),
            ("partial", partial, want_partial),
        ]
    }

    /// Exact `|e ∩ f|` from the representation's sorted rows.
    fn overlap<A: HyperAdjacency + ?Sized>(h: &A, e: Id, f: Id) -> Overlap {
        let (a, b) = (h.edge_neighbors(e), h.edge_neighbors(f));
        ids::from_usize(a.iter().filter(|v| b.binary_search(v).is_ok()).count())
    }

    /// Every counting entry point against `naive` on one representation.
    /// `seed` picks a queue order and a partial queue.
    fn agrees_with_naive<A: HyperAdjacency + ?Sized>(h: &A, s: usize, seed: u32) {
        let want = naive(h, s, Strategy::AUTO);
        let queues = queue_cases(h, &want, seed);
        for strategy in STRATEGIES {
            assert_eq!(hashmap(h, s, strategy), want, "hashmap {strategy:?}");
            for (name, queue, want) in &queues {
                let got = queue_hashmap(h, queue, s, strategy);
                assert_eq!(&got, want, "queue {name} {strategy:?}");
            }
            let sweep = ensemble(h, &[s, s + 1, 1], strategy);
            assert_eq!(sweep[0], want, "ensemble {strategy:?}");
            assert_eq!(sweep[1], naive(h, s + 1, Strategy::AUTO), "ensemble s+1");
            assert_eq!(sweep[2], naive(h, 1, Strategy::AUTO), "ensemble s=1");
            let triples = slinegraph_weighted_edges(h, s, strategy);
            let pairs: Vec<(Id, Id)> = triples.iter().map(|&(e, f, _)| (e, f)).collect();
            assert_eq!(pairs, want, "weighted {strategy:?}");
            for (e, f, n) in triples {
                assert_eq!(n, overlap(h, e, f), "weight of ({e},{f})");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_counting_kernels_match_naive(ms in arb_memberships(), s in 1usize..4, seed in 0u32..1000) {
            let h = Hypergraph::from_memberships(&ms);
            agrees_with_naive(&h, s, seed);
            agrees_with_naive(&AdjoinGraph::from_hypergraph(&h), s, seed);
            agrees_with_naive(&RelabeledView::from_relabeling(&h, &descending(&h)), s, seed);
        }

        #[test]
        fn prop_row_output_is_sorted_under_blocked_bins(ms in arb_memberships(), bins in 1usize..5) {
            // sorted per-row tails + in-order blocked bins: the
            // concatenation canonicalize receives is already sorted
            let h = Hypergraph::from_memberships(&ms);
            let (outs, _) = count_rows(&h, Rows::All(Strategy::Blocked { num_bins: bins }), 1,
                Vec::new, |out, i, j, _| out.push((i, j)));
            let pairs = outs.concat();
            let mut sorted = pairs.clone();
            sorted.sort_unstable();
            prop_assert_eq!(pairs, sorted);
        }
    }
}
