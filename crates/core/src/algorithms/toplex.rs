//! Toplex computation — Algorithm 3 of the paper (§III-C.4).
//!
//! A *toplex* is a maximal hyperedge: `e` is a toplex iff no other
//! hyperedge `f ⊋ e`. Duplicate hyperedges (equal as sets) are collapsed
//! to the representative with the smallest ID, matching the antichain
//! semantics of Algorithm 3 (which keeps the first of two equal sets it
//! compares).
//!
//! The paper's pseudocode races on its shared `Ě` set; the parallel
//! implementation here uses an equivalent, race-free formulation: `e` is
//! dominated iff some hyperedge `f` contains *all* of `e`'s members
//! (`|e ∩ f| = |e|`) and `f` is "bigger" (`|f| > |e|`, or `|f| = |e|` with
//! `f < e` for the duplicate tie-break). The overlaps come from the s-line
//! construction's counting core at `s = 1`, which walks `e → v → f`
//! through the bipartite indirection and sees each overlapping pair once,
//! so the work is proportional to the incidences a hyperedge can actually
//! touch — the same cost structure as Algorithm 3's subset probes. Each
//! pair marks its contained side in a shared bitmap; marks only ever go
//! from clear to set, so the order the pool threads find pairs in does
//! not matter.

use crate::biedgelist::BiEdgeList;
use crate::hypergraph::Hypergraph;
use crate::ids;
use crate::repr::HyperAdjacency;
use crate::slinegraph::counting::visit_pairs_meeting;
use crate::Id;
use nwhy_util::bitmap::AtomicBitmap;
use rayon::prelude::*;

/// Returns the toplex hyperedge IDs of `h`, in increasing order, on any
/// representation.
///
/// Hyperedges with no members are dominated by any non-empty hyperedge
/// (∅ ⊆ anything); an empty hyperedge is a toplex only in a hypergraph
/// where *all* hyperedges are empty (then only the smallest ID survives).
///
/// # Examples
///
/// ```
/// use nwhy_core::{algorithms::toplex::toplexes, Hypergraph};
///
/// let h = Hypergraph::from_memberships(&[
///     vec![0, 1, 2],  // maximal
///     vec![1, 2],     // ⊂ e0
///     vec![2, 3],     // maximal (3 escapes e0)
/// ]);
/// assert_eq!(toplexes(&h), vec![0, 2]);
/// ```
pub fn toplexes<A: HyperAdjacency + ?Sized>(h: &A) -> Vec<Id> {
    let _span = nwhy_obs::span("algo.toplex");
    let ne = h.num_hyperedges();
    let dominated = AtomicBitmap::new(ne);
    // For i < j: i ⊆ j strictly smaller, or j ⊆ i no bigger (equal sets
    // keep the smaller ID).
    visit_pairs_meeting(h, 1, |i, j, n| {
        let (di, dj) = (h.edge_degree(i), h.edge_degree(j));
        let n = ids::to_usize(n);
        if n == di && di < dj {
            dominated.set(ids::to_usize(i));
        } else if n == dj && dj <= di {
            dominated.set(ids::to_usize(j));
        }
    });
    let any_nonempty = (0..ids::from_usize(ne)).any(|e| h.edge_degree(e) > 0);
    (0..ids::from_usize(ne))
        .filter(|&e| {
            if h.edge_degree(e) == 0 {
                // ∅ is dominated by any non-empty hyperedge; among
                // all-empty hypergraphs keep the smallest ID.
                return !any_nonempty && e == 0;
            }
            !dominated.get(ids::to_usize(e))
        })
        .collect()
}

/// Restricts `h` to its toplexes — the simplification HyperNetX calls
/// `restrict_to_edges(toplexes)`: every containment relation is
/// preserved because non-maximal edges are subsets of kept ones. Returns
/// the simplified hypergraph and `edge_map[new] = old`.
pub fn restrict_to_toplexes(h: &Hypergraph) -> (Hypergraph, Vec<Id>) {
    let tops = toplexes(h);
    let incidences: Vec<(Id, Id)> = tops
        .par_iter()
        .enumerate()
        .flat_map_iter(|(new, &old)| {
            h.edge_members(old)
                .iter()
                .map(move |&v| (ids::from_usize(new), v))
        })
        .collect();
    let bel = BiEdgeList::from_incidences(tops.len(), h.num_hypernodes(), incidences);
    (Hypergraph::from_biedgelist(&bel), tops)
}

/// Direct transcription of Algorithm 3 run sequentially — the oracle for
/// the parallel version. Quadratic; test/diagnostic use only.
pub fn toplexes_sequential(h: &Hypergraph) -> Vec<Id> {
    let _span = nwhy_obs::span("algo.toplex.sequential");
    let is_subset = |a: &[Id], b: &[Id]| -> bool {
        // both sorted: one merge walk over `b`
        let mut rest = b.iter();
        a.iter().all(|x| rest.by_ref().find(|&y| y >= x) == Some(x))
    };
    let mut maximal: Vec<Id> = Vec::new();
    for e in 0..ids::from_usize(h.num_hyperedges()) {
        let me = h.edge_members(e);
        let mut flag = true;
        maximal.retain(|&f| {
            let mf = h.edge_members(f);
            if flag && is_subset(me, mf) {
                flag = false; // e ⊆ f, drop e
            }
            // keep f unless strictly f ⊂ e (equal sets keep the earlier f)
            !(flag && is_subset(mf, me) && mf.len() < me.len())
        });
        if flag {
            maximal.push(e);
        }
    }
    maximal.sort_unstable();
    maximal
}

/// Checks the toplex invariants: the returned set is an antichain under
/// set inclusion (after collapsing duplicates) and every hyperedge is
/// contained in some toplex.
// lint: obs: validation oracle for tests and `nwhy-cli check`, not a serving kernel
pub fn validate_toplexes(h: &Hypergraph, toplexes: &[Id]) -> Result<(), String> {
    let contains = |sup: &[Id], sub: &[Id]| sub.iter().all(|x| sup.binary_search(x).is_ok());
    for (i, &a) in toplexes.iter().enumerate() {
        for &b in &toplexes[i + 1..] {
            let ma = h.edge_members(a);
            let mb = h.edge_members(b);
            if contains(ma, mb) || contains(mb, ma) {
                return Err(format!("toplexes {a} and {b} are nested/duplicate"));
            }
        }
    }
    for e in 0..ids::from_usize(h.num_hyperedges()) {
        let me = h.edge_members(e);
        if !toplexes.iter().any(|&t| contains(h.edge_members(t), me)) {
            return Err(format!("hyperedge {e} not covered by any toplex"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjoin::AdjoinGraph;
    use crate::fixtures::{nested_hypergraph, paper_hypergraph};
    use crate::repr::RelabeledView;
    use crate::slinegraph::counting::tests::descending;
    use nwhy_util::pool::with_threads;
    use proptest::prelude::*;

    #[test]
    fn nested_fixture() {
        // t0={0,1,2,3} ⊇ t1={1,2} ⊇ t2={2}; t3={3,4}; t4={1,2} dup of t1
        let h = nested_hypergraph();
        let t = toplexes(&h);
        assert_eq!(t, vec![0, 3]);
        validate_toplexes(&h, &t).unwrap();
    }

    #[test]
    fn paper_fixture_all_maximal() {
        let h = paper_hypergraph();
        let t = toplexes(&h);
        assert_eq!(t, vec![0, 1, 2, 3]); // no containments in the fixture
        validate_toplexes(&h, &t).unwrap();
    }

    #[test]
    fn duplicates_keep_smallest_id() {
        let h = Hypergraph::from_memberships(&[vec![0, 1], vec![0, 1], vec![0, 1]]);
        assert_eq!(toplexes(&h), vec![0]);
    }

    #[test]
    fn empty_hyperedges() {
        let h = Hypergraph::from_memberships(&[vec![], vec![0], vec![]]);
        assert_eq!(toplexes(&h), vec![1]);
        // all-empty: smallest ID is the lone toplex
        let h = Hypergraph::from_memberships(&[vec![], vec![]]);
        assert_eq!(toplexes(&h), vec![0]);
    }

    #[test]
    fn no_hyperedges() {
        let h = Hypergraph::from_memberships(&[]);
        assert!(toplexes(&h).is_empty());
    }

    #[test]
    fn chain_of_inclusions() {
        let h =
            Hypergraph::from_memberships(&[vec![0], vec![0, 1], vec![0, 1, 2], vec![0, 1, 2, 3]]);
        assert_eq!(toplexes(&h), vec![3]);
    }

    #[test]
    fn sequential_matches_parallel_on_fixtures() {
        for h in [paper_hypergraph(), nested_hypergraph()] {
            assert_eq!(toplexes(&h), toplexes_sequential(&h));
        }
    }

    #[test]
    fn restrict_to_toplexes_simplifies() {
        let h = nested_hypergraph();
        let (t, edge_map) = restrict_to_toplexes(&h);
        assert_eq!(edge_map, vec![0, 3]);
        assert_eq!(t.num_hyperedges(), 2);
        assert_eq!(t.edge_members(0), h.edge_members(0));
        assert_eq!(t.edge_members(1), h.edge_members(3));
        // node coverage preserved: every incident node stays incident
        for v in 0..ids::from_usize(h.num_hypernodes()) {
            if h.node_degree(v) > 0 {
                assert!(t.node_degree(v) > 0, "node {v} lost coverage");
            }
        }
    }

    #[test]
    fn empty_operations() {
        let h = Hypergraph::from_memberships(&[]);
        assert_eq!(restrict_to_toplexes(&h).0.num_hyperedges(), 0);
    }

    #[test]
    fn transformations_compose_with_analysis() {
        // restriction to toplexes must not change 1-line connectivity of
        // the surviving edges' component structure over nodes
        let h = paper_hypergraph();
        let (t, _) = restrict_to_toplexes(&h);
        let before = crate::algorithms::hyper_cc::hyper_cc(&h).num_components();
        let after = crate::algorithms::hyper_cc::hyper_cc(&t).num_components();
        assert_eq!(before, after);
    }

    fn arb_memberships() -> impl proptest::strategy::Strategy<Value = Vec<Vec<Id>>> {
        proptest::collection::vec(proptest::collection::btree_set(0u32..10, 0..6), 0..12)
            .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
    }

    /// `toplexes` on `h` equals the sequential oracle `want`, at 1–3
    /// threads.
    fn agrees_with_sequential<A: HyperAdjacency + ?Sized>(h: &A, want: &[Id]) {
        for threads in 1..=3 {
            let got = with_threads(threads, || toplexes(h));
            assert_eq!(got, want, "threads={threads}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_parallel_equals_sequential(ms in arb_memberships()) {
            let h = Hypergraph::from_memberships(&ms);
            let want = toplexes_sequential(&h);
            agrees_with_sequential(&h, &want);
            agrees_with_sequential(&AdjoinGraph::from_hypergraph(&h), &want);
            // the view's IDs decide its duplicate tie-breaks, so its
            // oracle runs on the hyperedges in the view's order
            let relabeling = descending(&h);
            let view = RelabeledView::from_relabeling(&h, &relabeling);
            let rows: Vec<Vec<Id>> = (0..ids::from_usize(h.num_hyperedges()))
                .map(|e| view.edge_neighbors(e).to_vec())
                .collect();
            agrees_with_sequential(&view, &toplexes_sequential(&Hypergraph::from_memberships(&rows)));
        }

        #[test]
        fn prop_invariants_hold(ms in arb_memberships()) {
            let h = Hypergraph::from_memberships(&ms);
            let t = toplexes(&h);
            validate_toplexes(&h, &t).map_err(TestCaseError::fail)?;
        }
    }
}
