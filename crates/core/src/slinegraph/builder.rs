//! The fluent [`SLineBuilder`] — the single entry point for every s-line
//! construction over any [`HyperAdjacency`] representation.
//!
//! All construction surfaces (plain edges, symmetric CSR, weighted
//! variants, s-ensembles) flow through one pipeline:
//!
//! ```text
//! representation ──(optional RelabeledView)──► generic algorithm ──► map
//! back to original IDs ──► canonicalize
//! ```
//!
//! Degree relabeling is a *view*, not a reconstruction: the builder
//! computes a CSR-level degree permutation ([`nwgraph::degree_permutation`])
//! and layers a zero-copy [`RelabeledView`] over the representation. No
//! intermediate `BiEdgeList`, no membership cloning — the old
//! rebuild-the-hypergraph path is gone.
//!
//! # Examples
//!
//! ```
//! use nwhy_core::{Algorithm, Hypergraph, Relabel, SLineBuilder};
//!
//! let h = Hypergraph::from_memberships(&[
//!     vec![0, 1, 2],
//!     vec![1, 2, 3],  // shares {1,2} with e0
//!     vec![3, 4],     // shares {3} with e1
//! ]);
//! let edges = SLineBuilder::new(&h).s(1).edges();
//! assert_eq!(edges, vec![(0, 1), (1, 2)]);
//!
//! // same pipeline, different algorithm + degree-relabeled working IDs
//! let strong = SLineBuilder::new(&h)
//!     .s(2)
//!     .algorithm(Algorithm::QueueHashmap)
//!     .relabel(Relabel::Descending)
//!     .edges();
//! assert_eq!(strong, vec![(0, 1)]);
//! ```

use super::counting::stream_pairs_meeting;
use super::rows::Rows;
use super::{canonicalize, ensemble, planner, weighted, Algorithm, Relabel};
use crate::ids::{self, LocalId, Overlap, Relabeling};
use crate::repr::{HyperAdjacency, RelabeledView};
use crate::Id;
use nwgraph::{Csr, EdgeList};
use nwhy_obs::Counter;
use nwhy_util::partition::Strategy;

/// Fluent builder for s-line graphs over any [`HyperAdjacency`]
/// representation. Defaults: `s = 1`, [`Algorithm::Hashmap`],
/// [`Strategy::AUTO`], [`Relabel::None`].
#[derive(Debug, Clone, Copy)]
pub struct SLineBuilder<'a, A: HyperAdjacency + ?Sized> {
    repr: &'a A,
    s: usize,
    algorithm: Algorithm,
    /// `true` ⇒ the planner overrides `algorithm` per input.
    auto: bool,
    strategy: Strategy,
    relabel: Relabel,
}

impl<'a, A: HyperAdjacency + ?Sized> SLineBuilder<'a, A> {
    /// Starts a build over `repr` with default settings.
    #[must_use]
    pub fn new(repr: &'a A) -> Self {
        Self {
            repr,
            s: 1,
            algorithm: Algorithm::Hashmap,
            auto: false,
            strategy: Strategy::AUTO,
            relabel: Relabel::None,
        }
    }

    /// The overlap threshold `s ≥ 1` (validated at build time).
    #[must_use]
    pub fn s(mut self, s: usize) -> Self {
        self.s = s;
        self
    }

    /// Which construction algorithm to run (ignored by the weighted and
    /// ensemble terminals, which are hashmap-counting by construction).
    /// Cancels a previous [`SLineBuilder::auto`].
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self.auto = false;
        self
    }

    /// Lets the [`planner`] pick the construction algorithm from the
    /// input's structural features (degree skew, candidate work, `s`) —
    /// the programmatic face of CLI `--kernel auto`. The planner's
    /// choice never changes the result, only the work profile.
    #[must_use]
    pub fn auto(mut self) -> Self {
        self.auto = true;
        self
    }

    /// Work-partitioning strategy for the parallel loops.
    #[must_use]
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Degree relabeling of the working hyperedge IDs. Applied as a
    /// zero-copy [`RelabeledView`]; results are always reported in
    /// *original* IDs.
    #[must_use]
    pub fn relabel(mut self, relabel: Relabel) -> Self {
        self.relabel = relabel;
        self
    }

    /// The degree [`Relabeling`] for the configured direction; `None`
    /// when no relabeling is requested.
    fn permutation(&self) -> Option<Relabeling> {
        let dir = match self.relabel {
            Relabel::None => return None,
            Relabel::Ascending => nwgraph::Direction::Ascending,
            Relabel::Descending => nwgraph::Direction::Descending,
        };
        let degrees: Vec<usize> = (0..self.repr.num_hyperedges())
            .map(|e| self.repr.edge_degree(ids::from_usize(e)))
            .collect();
        Some(Relabeling::from_permutation(nwgraph::degree_permutation(
            &degrees, dir,
        )))
    }

    /// The algorithm this build will run: the planner's pick under
    /// [`SLineBuilder::auto`], the configured one otherwise. Exposed so
    /// callers (the CLI, benches) can report the decision.
    #[must_use]
    pub fn resolved_algorithm(&self) -> Algorithm {
        if self.auto {
            planner::plan(self.repr, self.s).algorithm
        } else {
            self.algorithm
        }
    }

    /// The canonical s-line edge set, in original hyperedge IDs.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    #[must_use]
    pub fn edges(&self) -> Vec<(Id, Id)> {
        assert!(self.s >= 1, "s must be at least 1");
        let algorithm = self.resolved_algorithm();
        let _span = nwhy_obs::span(algorithm.span_name());
        self.collect(algorithm)
    }

    /// Streams the canonical edge list, in original hyperedge IDs and in
    /// order, to `sink` in runs: each run is an `O` from `init`, filled
    /// by `emit(out, e, f)` for each of its pairs. Returns how many pairs
    /// there are. An error from `sink` stops the build and is returned.
    ///
    /// The build takes one of two paths, decided here and nowhere else:
    ///
    /// - **streamed** — [`Algorithm::Hashmap`] over every row, or
    ///   [`Algorithm::QueueHashmap`] over the identity queue, under
    ///   blocked bins and no relabel. These are the builds whose counting
    ///   bins come out in row order. The rows run in waves of
    ///   [`Strategy::AUTO`]'s bin count, and each bin formats its pairs
    ///   into its own run on its pool thread, so one wave's runs are in
    ///   flight at a time. There is no pair vector and no canonicalize.
    /// - **collected** — every other build collects [`Self::edges`],
    ///   canonicalized, and formats it in order on the calling thread.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    pub fn stream_edges<O, E>(
        &self,
        init: impl Fn() -> O + Sync,
        emit: impl Fn(&mut O, Id, Id) + Sync,
        mut sink: impl FnMut(O) -> Result<(), E>,
    ) -> Result<usize, E>
    where
        O: Send,
    {
        assert!(self.s >= 1, "s must be at least 1");
        let algorithm = self.resolved_algorithm();
        let _span = nwhy_obs::span(algorithm.span_name());
        let identity: Vec<Id>;
        let rows = match (algorithm, self.strategy, self.relabel) {
            (Algorithm::Hashmap, Strategy::Blocked { .. }, Relabel::None) => {
                Some(Rows::All(self.strategy))
            }
            (Algorithm::QueueHashmap, Strategy::Blocked { .. }, Relabel::None) => {
                identity = (0..ids::from_usize(self.repr.num_hyperedges())).collect();
                nwhy_obs::add(Counter::SlineQueuePushes, identity.len() as u64);
                Some(Rows::Queue(&identity, self.strategy))
            }
            _ => None,
        };
        if let Some(rows) = rows {
            return stream_pairs_meeting(self.repr, rows, self.s, init, emit, sink);
        }
        let pairs = self.collect(algorithm);
        for run in pairs.chunks(pairs.len().div_ceil(Strategy::AUTO.bins()).max(1)) {
            let mut out = init();
            for &(e, f) in run {
                emit(&mut out, e, f);
            }
            sink(out)?;
        }
        Ok(pairs.len())
    }

    /// The canonical edge set of `algorithm`, in original IDs.
    fn collect(&self, algorithm: Algorithm) -> Vec<(Id, Id)> {
        match self.permutation() {
            None => dispatch(self.repr, self.s, algorithm, self.strategy),
            Some(r) => {
                let view = RelabeledView::from_relabeling(self.repr, &r);
                let pairs = dispatch(&view, self.s, algorithm, self.strategy);
                canonicalize(
                    pairs
                        .into_iter()
                        .map(|(a, b)| back_pair(&r, a, b))
                        .collect(),
                )
            }
        }
    }

    /// The s-line graph as a symmetric [`Csr`] over hyperedge IDs —
    /// ready for the plain-graph algorithms (`Listing 2`'s
    /// `adjacency<0> slinegraph(slinegraph_els)`).
    #[must_use]
    pub fn csr(&self) -> Csr {
        let mut el = EdgeList::from_edges(self.repr.num_hyperedges(), self.edges());
        el.symmetrize();
        let g = Csr::from_edge_list(&el);
        crate::validate::debug_validate(
            &crate::validate::SLineOutput {
                csr: &g,
                repr: self.repr,
                s: self.s,
            },
            "SLineBuilder::csr",
        );
        g
    }

    /// Canonical weighted triples `(e, f, |e ∩ f|)` with `e < f`, sorted,
    /// overlap ≥ s, in original hyperedge IDs.
    ///
    /// # Panics
    /// Panics if `s == 0`.
    #[must_use]
    pub fn weighted_edges(&self) -> Vec<(Id, Id, Overlap)> {
        let _span = nwhy_obs::span("sline.weighted");
        match self.permutation() {
            None => weighted::slinegraph_weighted_edges(self.repr, self.s, self.strategy),
            Some(r) => {
                let view = RelabeledView::from_relabeling(self.repr, &r);
                let mut triples: Vec<(Id, Id, Overlap)> =
                    weighted::slinegraph_weighted_edges(&view, self.s, self.strategy)
                        .into_iter()
                        .map(|(a, b, o)| {
                            let (a, b) = back_pair(&r, a, b);
                            if a < b {
                                (a, b, o)
                            } else {
                                (b, a, o)
                            }
                        })
                        .collect();
                triples.sort_unstable();
                triples
            }
        }
    }

    /// The symmetric weighted CSR with edge weight `1 / |e ∩ f|` —
    /// stronger overlaps are "shorter".
    #[must_use]
    pub fn weighted_csr(&self) -> Csr {
        let triples = self.weighted_edges();
        let g = weighted::weighted_csr_from_triples(self.repr.num_hyperedges(), &triples);
        crate::validate::debug_validate(
            &crate::validate::SLineOutput {
                csr: &g,
                repr: self.repr,
                s: self.s,
            },
            "SLineBuilder::weighted_csr",
        );
        g
    }

    /// Canonical edge sets for *several* `s` values, sharing one counting
    /// pass (the ensemble algorithm of \[18\]); output aligns with
    /// `s_values`. The configured `s` and `algorithm` are unused here.
    ///
    /// # Panics
    /// Panics if any `s` is 0.
    #[must_use]
    pub fn ensemble_edges(&self, s_values: &[usize]) -> Vec<Vec<(Id, Id)>> {
        let _span = nwhy_obs::span("sline.ensemble");
        match self.permutation() {
            None => ensemble::ensemble(self.repr, s_values, self.strategy),
            Some(r) => {
                let view = RelabeledView::from_relabeling(self.repr, &r);
                ensemble::ensemble(&view, s_values, self.strategy)
                    .into_iter()
                    .map(|pairs| {
                        canonicalize(
                            pairs
                                .into_iter()
                                .map(|(a, b)| back_pair(&r, a, b))
                                .collect(),
                        )
                    })
                    .collect()
            }
        }
    }
}

/// Maps a working-space pair back to original (global) hyperedge IDs via
/// the typed [`Relabeling`] conversions.
#[inline]
fn back_pair(r: &Relabeling, a: Id, b: Id) -> (Id, Id) {
    (
        r.to_global(LocalId::new(a)).raw(),
        r.to_global(LocalId::new(b)).raw(),
    )
}

/// Runs one algorithm over a representation, in that representation's
/// working ID space. The queue-based algorithms get the full-ID-range
/// queue here; partial queues remain available through
/// [`super::queue_single`] / [`super::queue_two_phase`] directly.
pub(crate) fn dispatch<A: HyperAdjacency + ?Sized>(
    h: &A,
    s: usize,
    algo: Algorithm,
    strategy: Strategy,
) -> Vec<(Id, Id)> {
    use super::{hashmap, intersection, naive, queue_single, queue_two_phase};
    match algo {
        Algorithm::Naive => naive::naive(h, s, strategy),
        Algorithm::Intersection => intersection::intersection(h, s, strategy),
        Algorithm::Hashmap => hashmap::hashmap(h, s, strategy),
        Algorithm::QueueHashmap => {
            let queue: Vec<Id> = (0..ids::from_usize(h.num_hyperedges())).collect();
            queue_single::queue_hashmap(h, &queue, s, strategy)
        }
        Algorithm::QueueIntersection => {
            let queue: Vec<Id> = (0..ids::from_usize(h.num_hyperedges())).collect();
            queue_two_phase::queue_intersection(h, &queue, s, strategy)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjoin::AdjoinGraph;
    use crate::fixtures::{paper_hypergraph, paper_slinegraph_edges};
    use crate::repr::DualView;
    use crate::slinegraph::counting::tests::{arb_memberships, STRATEGIES};
    use proptest::prelude::*;

    #[test]
    fn builder_defaults_match_fixture() {
        let h = paper_hypergraph();
        for s in 1..=4 {
            assert_eq!(
                SLineBuilder::new(&h).s(s).edges(),
                paper_slinegraph_edges(s),
                "s={s}"
            );
        }
    }

    #[test]
    fn every_algorithm_runs_on_every_representation() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        for s in 1..=4 {
            let want = paper_slinegraph_edges(s);
            for algo in Algorithm::ALL {
                assert_eq!(
                    SLineBuilder::new(&h).s(s).algorithm(algo).edges(),
                    want,
                    "bi-adjacency {} s={s}",
                    algo.name()
                );
                assert_eq!(
                    SLineBuilder::new(&a).s(s).algorithm(algo).edges(),
                    want,
                    "adjoin {} s={s}",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn relabel_composes_with_every_algorithm_on_adjoin() {
        // The headline of the refactor: degree relabeling as a view now
        // composes with the adjoin representation — something the old
        // rebuild-a-Hypergraph path could not express at all.
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        for relabel in [Relabel::Ascending, Relabel::Descending] {
            for algo in Algorithm::ALL {
                assert_eq!(
                    SLineBuilder::new(&a)
                        .s(2)
                        .algorithm(algo)
                        .relabel(relabel)
                        .edges(),
                    paper_slinegraph_edges(2),
                    "adjoin {} {relabel:?}",
                    algo.name()
                );
            }
        }
    }

    #[test]
    fn dual_view_builds_the_clique_side() {
        let h = paper_hypergraph();
        let dual = h.dual();
        let via_view = SLineBuilder::new(&DualView::new(&h)).s(1).edges();
        let via_clone = SLineBuilder::new(&dual).s(1).edges();
        assert_eq!(via_view, via_clone);
    }

    #[test]
    fn weighted_terminals_agree_under_relabel() {
        let h = paper_hypergraph();
        let plain = SLineBuilder::new(&h).s(1).weighted_edges();
        for relabel in [Relabel::Ascending, Relabel::Descending] {
            let relabeled = SLineBuilder::new(&h).s(1).relabel(relabel).weighted_edges();
            assert_eq!(relabeled, plain, "{relabel:?}");
        }
        assert_eq!(
            plain,
            vec![(0, 1, 1), (0, 3, 3), (1, 2, 3), (1, 3, 2), (2, 3, 2)]
        );
    }

    #[test]
    fn ensemble_terminal_matches_per_s_builds_under_relabel() {
        let h = paper_hypergraph();
        let svals = [1usize, 2, 3, 4];
        for relabel in [Relabel::None, Relabel::Ascending, Relabel::Descending] {
            let got = SLineBuilder::new(&h)
                .relabel(relabel)
                .ensemble_edges(&svals);
            for (out, &s) in got.iter().zip(&svals) {
                assert_eq!(out, &paper_slinegraph_edges(s), "{relabel:?} s={s}");
            }
        }
    }

    #[test]
    fn csr_terminal_is_symmetric() {
        let h = paper_hypergraph();
        let g = SLineBuilder::new(&h).s(2).csr();
        assert!(g.is_symmetric());
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2 * paper_slinegraph_edges(2).len());
    }

    /// `stream_edges`' runs, concatenated, and its pair count.
    fn streamed<A: HyperAdjacency + ?Sized>(b: &SLineBuilder<'_, A>) -> (Vec<(Id, Id)>, usize) {
        let mut runs = Vec::new();
        let push = |run: &mut Vec<(Id, Id)>, e, f| run.push((e, f));
        let n = b
            .stream_edges(Vec::new, push, |run| {
                runs.push(run);
                Ok::<(), ()>(())
            })
            .unwrap();
        (runs.concat(), n)
    }

    proptest! {
        #[test]
        fn prop_stream_edges_matches_edges(ms in arb_memberships(), s in 1usize..4) {
            let h = crate::Hypergraph::from_memberships(&ms);
            for algo in Algorithm::ALL {
                for strategy in STRATEGIES {
                    for relabel in [Relabel::None, Relabel::Ascending, Relabel::Descending] {
                        let b = SLineBuilder::new(&h).s(s).algorithm(algo).strategy(strategy).relabel(relabel);
                        let want = b.edges();
                        prop_assert_eq!(streamed(&b), (want.clone(), want.len()), "{:?} {:?} {:?}", algo, strategy, relabel);
                    }
                }
            }
        }
    }

    #[test]
    fn a_failing_sink_stops_the_stream() {
        let h = paper_hypergraph();
        for algo in [Algorithm::Hashmap, Algorithm::Naive] {
            let mut calls = 0;
            let err = SLineBuilder::new(&h).s(1).algorithm(algo).stream_edges(
                Vec::new,
                |run: &mut Vec<(Id, Id)>, e, f| run.push((e, f)),
                |run| {
                    calls += 1;
                    if run.is_empty() {
                        Ok(())
                    } else {
                        Err("full")
                    }
                },
            );
            assert_eq!(err, Err("full"), "{}", algo.name());
            assert!(calls >= 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn s_zero_rejected_by_builder() {
        let h = paper_hypergraph();
        let _ = SLineBuilder::new(&h).s(0).edges();
    }
}
