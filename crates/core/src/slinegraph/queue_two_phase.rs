//! **Algorithm 2** — the paper's two-phase queue-based s-line
//! construction with set intersection.
//!
//! *Phase 1* walks the bipartite indirection once and enqueues every
//! eligible hyperedge pair `{e_i, e_j}` (`j > i`, both of degree ≥ s) into
//! per-worker queues, which are concatenated into one global pair queue.
//! *Phase 2* is a single flat parallel loop over the pair queue performing
//! one short-circuiting sorted intersection per pair.
//!
//! Because phase 2 has "only one for loop (barring the set intersection)",
//! the work granularity per queue item is small and uniform — the paper's
//! argument for better load balance than the nested non-queue intersection
//! algorithm. Like Algorithm 1 it is representation-independent (bipartite
//! or adjoin, original or permuted IDs).
//!
//! The paper's pseudocode enqueues a pair once per shared hypernode;
//! phase 1 is the `slinegraph::candidates` walk, which dedups with a
//! per-worker stamp array so each pair is intersected exactly once (a
//! pair enqueued `k` times would otherwise be intersected `k` times and
//! emitted as a duplicate edge).

use super::candidates::{candidate_rows, Verifier};
use super::rows::Rows;
use super::stats::KernelStats;
use super::{canonicalize, HyperAdjacency};
use crate::Id;
use nwhy_util::partition::Strategy;
use rayon::prelude::*;

/// Algorithm 2, checking pairs with the adaptive overlap engine. `queue`
/// holds the hyperedge IDs to process; returns canonical pairs.
pub fn queue_intersection<H: HyperAdjacency + ?Sized>(
    h: &H,
    queue: &[Id],
    s: usize,
    strategy: Strategy,
) -> Vec<(Id, Id)> {
    // ---- Phase 1: build the pair queue (Alg. 2 lines 1–6). ----
    let (pair_queue, mut stats) = phase1(h, queue, s, strategy);
    // Hyperedge IDs enqueued up front plus candidate pairs enqueued by
    // phase 1.
    stats.queue_pushed(queue.len() as u64 + pair_queue.len() as u64);

    // ---- Phase 2: flat intersection pass (Alg. 2 lines 7–13). ----
    //
    // Phase 1 emits each row's pairs contiguously, so each fold chain's
    // verifier loads row `i` once per run of pairs sharing it.
    let chain = || (Vec::new(), Verifier::new(h, s), KernelStats::default());
    let chains: Vec<_> = pair_queue
        .par_iter()
        .fold(chain, |(mut acc, mut verifier, mut stats), &(i, j)| {
            if verifier.check(i, j, &mut stats) {
                acc.push((i, j));
            }
            (acc, verifier, stats)
        })
        .map(|(acc, _, stats)| (acc, stats))
        .collect();
    let mut survivors = Vec::new();
    for (acc, phase2) in chains {
        survivors.extend(acc);
        stats.merge(&phase2);
    }
    stats.flush(survivors.len());
    canonicalize(survivors)
}

/// Phase 1: the candidate pairs of the queued rows whose partner has at
/// least `s` members, row by row, with the phase's tallies.
fn phase1<H: HyperAdjacency + ?Sized>(
    h: &H,
    queue: &[Id],
    s: usize,
    strategy: Strategy,
) -> (Vec<(Id, Id)>, KernelStats) {
    let (outs, stats) = candidate_rows(
        h,
        Rows::Queue(queue, strategy),
        s,
        false,
        Vec::new,
        // lint: alloc: per-worker output accumulator; push is amortized O(1)
        |pairs: &mut Vec<(Id, Id)>, _, i, j| pairs.push((i, j)),
    );
    (outs.concat(), stats)
}

/// Phase 1 alone: returns the candidate pair queue Algorithm 2 builds,
/// without the intersection pass. Exposed for the ablation bench that
/// measures the two phases separately.
// lint: obs: ablation-bench helper; the full kernel path flushes KernelStats
pub fn candidate_pairs<H: HyperAdjacency + ?Sized>(
    h: &H,
    queue: &[Id],
    s: usize,
    strategy: Strategy,
) -> Vec<(Id, Id)> {
    phase1(h, queue, s, strategy).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjoin::AdjoinGraph;
    use crate::fixtures::{paper_hypergraph, paper_slinegraph_edges};
    use crate::hypergraph::Hypergraph;
    use crate::ids;

    #[test]
    fn matches_fixture_on_biadjacency() {
        let h = paper_hypergraph();
        let queue: Vec<Id> = (0..4).collect();
        for s in 1..=4 {
            assert_eq!(
                queue_intersection(&h, &queue, s, Strategy::AUTO),
                paper_slinegraph_edges(s),
                "s={s}"
            );
        }
    }

    #[test]
    fn runs_directly_on_adjoin_graph() {
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        let queue: Vec<Id> = (0..ids::from_usize(a.num_hyperedges())).collect();
        for s in 1..=4 {
            assert_eq!(
                queue_intersection(&a, &queue, s, Strategy::AUTO),
                paper_slinegraph_edges(s),
                "adjoin s={s}"
            );
        }
    }

    #[test]
    fn candidate_queue_is_superset_of_result() {
        let h = paper_hypergraph();
        let queue: Vec<Id> = (0..4).collect();
        let candidates = candidate_pairs(&h, &queue, 2, Strategy::AUTO);
        let result = queue_intersection(&h, &queue, 2, Strategy::AUTO);
        for e in &result {
            assert!(candidates.contains(e), "{e:?} missing from phase-1 queue");
        }
        // candidates are deduped: each unordered pair appears once
        let canon = super::super::canonicalize(candidates.clone());
        assert_eq!(canon.len(), candidates.len());
    }

    #[test]
    fn phase1_degree_filter_prunes() {
        // e1 = {5} can never reach s=2
        let h = Hypergraph::from_memberships(&[vec![0, 5], vec![5], vec![0, 5]]);
        let queue: Vec<Id> = (0..3).collect();
        let candidates = candidate_pairs(&h, &queue, 2, Strategy::AUTO);
        assert_eq!(candidates, vec![(0, 2)]);
        assert_eq!(
            queue_intersection(&h, &queue, 2, Strategy::AUTO),
            vec![(0, 2)]
        );
    }

    #[test]
    fn shuffled_queue_same_result() {
        let h = paper_hypergraph();
        assert_eq!(
            queue_intersection(&h, &[3, 1, 0, 2], 2, Strategy::Cyclic { num_bins: 2 }),
            paper_slinegraph_edges(2)
        );
    }

    #[test]
    fn empty_inputs() {
        let h = Hypergraph::from_memberships(&[]);
        assert!(queue_intersection(&h, &[], 1, Strategy::AUTO).is_empty());
    }
}
