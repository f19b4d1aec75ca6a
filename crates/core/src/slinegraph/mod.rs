//! s-line graph construction (§III-B.4, §III-C.3).
//!
//! The s-line graph `L_s(H)` has the hyperedges of `H` as vertices and an
//! edge `{e, f}` whenever `|e ∩ f| ≥ s`. Six construction algorithms are
//! implemented, all producing identical canonical edge sets, plus a
//! weighted variant that keeps the exact overlap sizes:
//!
//! | module | algorithm | paper source |
//! |---|---|---|
//! | [`naive`] | all-pairs set intersection | baseline |
//! | [`intersection`] | heuristic candidate + short-circuit intersection | Liu et al., HiPC 2021 \[17\] |
//! | [`hashmap`] | per-hyperedge overlap counting | Liu et al., IPDPS 2022 \[18\] |
//! | [`ensemble`] | all requested `s` in one counting pass | \[18\] |
//! | [`queue_single`] | **Algorithm 1**: work-queue + overlap counting | this paper |
//! | [`queue_two_phase`] | **Algorithm 2**: pair queue + set intersection | this paper |
//! | [`weighted`] | overlap counting, keeping `\|e ∩ f\|` as edge weight | Fig. 5 / s-walk framework |
//!
//! The four counting kernels ([`hashmap`], [`queue_single`],
//! [`ensemble`], [`weighted`]) are thin wrappers over one private
//! counting core: a dense per-worker overlap accumulator that takes its
//! rows from a static range or from queue slots.
//!
//! The two intersection kernels ([`intersection`], [`queue_two_phase`])
//! are thin wrappers over one private candidate-and-verify core: a
//! per-worker stamp array finds each row's distinct candidates, and a
//! shared verifier checks them with the [`overlap`] engine. Intersection
//! checks each candidate as it is found; Algorithm 2 queues them first
//! and checks the pair queue in one flat parallel pass. Both cores take
//! their rows from the same runner.
//!
//! Every algorithm is generic over [`HyperAdjacency`] — the bipartite
//! indirection trait defined in [`crate::repr`] — so the same code runs
//! on the bi-adjacency [`Hypergraph`], the [`AdjoinGraph`]
//! (single shared index set), the zero-copy dual view, and degree-relabeled
//! ID spaces. The fluent [`SLineBuilder`] is the single entry point that
//! wires representation, algorithm, partitioning strategy, and relabeling
//! together.
//!
//! [`Hypergraph`]: crate::hypergraph::Hypergraph
//! [`AdjoinGraph`]: crate::adjoin::AdjoinGraph

// The fluent builder is held to the pedantic `must_use_candidate` bar:
// every value-returning stage and terminal is annotated.
#[deny(clippy::must_use_candidate)]
pub mod builder;
mod candidates;
pub(crate) mod counting;
pub mod ensemble;
pub mod hashmap;
pub mod intersection;
pub mod naive;
pub mod overlap;
pub mod planner;
pub mod queue_single;
pub mod queue_two_phase;
mod rows;
pub(crate) mod stats;
pub mod weighted;

use crate::Id;

pub use builder::SLineBuilder;
// The trait lives in `crate::repr` since the representation-generic
// refactor; re-exported here for source compatibility.
pub use crate::repr::HyperAdjacency;

/// Which construction algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// All-pairs intersection (quadratic baseline).
    Naive,
    /// Heuristic set-intersection (HiPC 2021).
    Intersection,
    /// Hashmap overlap counting (IPDPS 2022).
    Hashmap,
    /// Paper Algorithm 1: single-phase queue + hashmap.
    QueueHashmap,
    /// Paper Algorithm 2: two-phase queue + set intersection.
    QueueIntersection,
}

impl Algorithm {
    /// All algorithm variants, for sweeps.
    pub const ALL: [Algorithm; 5] = [
        Algorithm::Naive,
        Algorithm::Intersection,
        Algorithm::Hashmap,
        Algorithm::QueueHashmap,
        Algorithm::QueueIntersection,
    ];

    /// Short display name used in benchmark tables.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Naive => "naive",
            Algorithm::Intersection => "intersection",
            Algorithm::Hashmap => "hashmap",
            Algorithm::QueueHashmap => "queue-hashmap(alg1)",
            Algorithm::QueueIntersection => "queue-intersection(alg2)",
        }
    }

    /// Stable span label used by the observability layer (`nwhy-obs`):
    /// dotted, with no parenthetical suffixes, so trace viewers group
    /// cleanly.
    pub fn span_name(&self) -> &'static str {
        match self {
            Algorithm::Naive => "sline.naive",
            Algorithm::Intersection => "sline.intersection",
            Algorithm::Hashmap => "sline.hashmap",
            Algorithm::QueueHashmap => "sline.queue_hashmap",
            Algorithm::QueueIntersection => "sline.queue_intersection",
        }
    }
}

/// Degree-based ID relabeling applied before construction (§III-D / Fig. 9
/// sweep "blocked/cyclic × relabel asc/desc").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Relabel {
    /// Keep original IDs.
    #[default]
    None,
    /// Low-degree hyperedges first.
    Ascending,
    /// High-degree hyperedges first.
    Descending,
}

/// Canonicalizes an undirected pair list: orders each pair `(min, max)`,
/// sorts, and deduplicates. All algorithms funnel through this so their
/// outputs are directly comparable. The sort is a linear pass when the
/// input is already sorted, as the counting kernels' output is under a
/// blocked strategy.
pub fn canonicalize(mut pairs: Vec<(Id, Id)>) -> Vec<(Id, Id)> {
    let _span = nwhy_obs::span("sline.canonicalize");
    for p in pairs.iter_mut() {
        if p.0 > p.1 {
            *p = (p.1, p.0);
        }
    }
    pairs.sort_unstable();
    pairs.dedup();
    pairs
}

/// `true` when an overlap count `n` meets the threshold `s` — the one
/// audited widening of an [`Overlap`](crate::ids::Overlap) count, shared
/// by every counting kernel.
#[inline]
pub(crate) fn meets(n: crate::ids::Overlap, s: usize) -> bool {
    n as usize >= s // lint: Overlap is a count, not an ID
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_hypergraph, paper_slinegraph_edges};
    use crate::hypergraph::Hypergraph;
    use nwhy_util::partition::Strategy; // disambiguate from proptest's Strategy trait
    use proptest::prelude::*;
    use proptest::strategy::Strategy as _;

    fn build(h: &Hypergraph, s: usize, algo: Algorithm) -> Vec<(Id, Id)> {
        SLineBuilder::new(h).s(s).algorithm(algo).edges()
    }

    #[test]
    fn canonicalize_orders_and_dedups() {
        let pairs = vec![(3, 1), (1, 3), (0, 2), (2, 0), (1, 3)];
        assert_eq!(canonicalize(pairs), vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn all_algorithms_match_fixture_expectations() {
        let h = paper_hypergraph();
        for s in 1..=4 {
            let want = paper_slinegraph_edges(s);
            for algo in Algorithm::ALL {
                assert_eq!(build(&h, s, algo), want, "{} at s={s}", algo.name());
            }
        }
    }

    #[test]
    fn relabel_variants_produce_identical_results() {
        let h = paper_hypergraph();
        for s in 1..=3 {
            let want = paper_slinegraph_edges(s);
            for relabel in [Relabel::Ascending, Relabel::Descending] {
                for algo in Algorithm::ALL {
                    let got = SLineBuilder::new(&h)
                        .s(s)
                        .algorithm(algo)
                        .relabel(relabel)
                        .edges();
                    assert_eq!(got, want, "{} s={s} {relabel:?}", algo.name());
                }
            }
        }
    }

    #[test]
    fn strategies_produce_identical_results() {
        let h = paper_hypergraph();
        for strategy in [
            Strategy::AUTO,
            Strategy::Blocked { num_bins: 2 },
            Strategy::Cyclic { num_bins: 3 },
        ] {
            for algo in Algorithm::ALL {
                assert_eq!(
                    SLineBuilder::new(&h)
                        .s(2)
                        .algorithm(algo)
                        .strategy(strategy)
                        .edges(),
                    paper_slinegraph_edges(2),
                    "{} {strategy:?}",
                    algo.name()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn s_zero_rejected() {
        let h = paper_hypergraph();
        build(&h, 0, Algorithm::Hashmap);
    }

    #[test]
    fn slinegraph_csr_is_symmetric() {
        let h = paper_hypergraph();
        let g = SLineBuilder::new(&h).s(2).csr();
        assert!(g.is_symmetric());
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 2 * paper_slinegraph_edges(2).len());
    }

    #[test]
    fn s_larger_than_any_overlap_gives_empty() {
        let h = paper_hypergraph();
        for algo in Algorithm::ALL {
            assert!(build(&h, 10, algo).is_empty());
        }
    }

    #[test]
    fn empty_hypergraph_all_algorithms() {
        let h = Hypergraph::from_memberships(&[]);
        for algo in Algorithm::ALL {
            assert!(build(&h, 1, algo).is_empty());
        }
    }

    /// Random hypergraph strategy for cross-validation properties.
    fn arb_memberships() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Id>>> {
        proptest::collection::vec(proptest::collection::btree_set(0u32..20, 0..8), 0..12)
            .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn prop_all_algorithms_agree(ms in arb_memberships(), s in 1usize..5) {
            let h = Hypergraph::from_memberships(&ms);
            let reference = build(&h, s, Algorithm::Naive);
            for algo in [Algorithm::Intersection, Algorithm::Hashmap,
                         Algorithm::QueueHashmap, Algorithm::QueueIntersection] {
                let got = build(&h, s, algo);
                prop_assert_eq!(&got, &reference, "{}", algo.name());
            }
        }

        #[test]
        fn prop_overlap_paths_and_planner_agree(ms in arb_memberships(), s in 1usize..5) {
            // the adaptive overlap rule and the planner's auto choice must
            // both be invisible in the results (the primitives themselves
            // are pinned in `overlap::tests`)
            let h = Hypergraph::from_memberships(&ms);
            let reference = build(&h, s, Algorithm::Naive);
            let adaptive = build(&h, s, Algorithm::Intersection);
            prop_assert_eq!(&adaptive, &reference, "intersection");
            let auto = SLineBuilder::new(&h).s(s).auto().edges();
            prop_assert_eq!(&auto, &reference, "auto");
        }

        #[test]
        fn prop_monotone_in_s(ms in arb_memberships()) {
            let h = Hypergraph::from_memberships(&ms);
            let mut prev = build(&h, 1, Algorithm::Hashmap);
            for s in 2..6 {
                let cur = build(&h, s, Algorithm::Hashmap);
                for e in &cur {
                    prop_assert!(prev.contains(e), "E_{} ⊄ E_{}", s, s - 1);
                }
                prev = cur;
            }
        }

        #[test]
        fn prop_slinegraph_definition(ms in arb_memberships(), s in 1usize..4) {
            // got edge {i,j} iff |members(i) ∩ members(j)| >= s
            let h = Hypergraph::from_memberships(&ms);
            let got = build(&h, s, Algorithm::Hashmap);
            let ne = crate::ids::from_usize(h.num_hyperedges());
            for i in 0..ne {
                for j in (i + 1)..ne {
                    let mi = h.edge_members(i);
                    let overlap = h.edge_members(j).iter().filter(|v| mi.contains(v)).count();
                    prop_assert_eq!(got.contains(&(i, j)), overlap >= s,
                        "pair ({},{}) overlap {}", i, j, overlap);
                }
            }
        }

        #[test]
        fn prop_ensemble_matches_per_s_hashmap(ms in arb_memberships()) {
            // the ensemble's single shared counting pass must be
            // indistinguishable from independent per-s hashmap builds
            let h = Hypergraph::from_memberships(&ms);
            let svals = [3usize, 1, 4, 2, 3]; // unsorted, with a duplicate
            let got = SLineBuilder::new(&h).ensemble_edges(&svals);
            prop_assert_eq!(got.len(), svals.len());
            for (out, &s) in got.iter().zip(&svals) {
                let single = hashmap::hashmap(&h, s, Strategy::AUTO);
                prop_assert_eq!(out, &single, "s={}", s);
            }
        }
    }
}
