//! **Algorithm 1** — the paper's single-phase queue-based s-line
//! construction with overlap counting.
//!
//! The structural difference from [`super::hashmap`] is the work list:
//! instead of a `for` loop fixed over contiguous IDs `0..n_e`, hyperedge
//! IDs are enqueued into a work queue up front ("ID can be original or
//! permuted", Alg. 1 line 2) and workers drain the queue. This makes the
//! algorithm *representation-independent*: it runs unchanged on
//! bi-adjacencies, adjoin graphs (where hyperedge IDs share the index set
//! with hypernodes), and degree-relabeled ID spaces — the cases §III-C.3
//! says the non-queue algorithms cannot handle directly.
//!
//! It is the shared counting core of `slinegraph::counting` with the
//! queue's slots as its work source, split by a blocked or cyclic
//! strategy; the pool hands those bins to workers as they claim them, so
//! a worker that drew cheap hyperedges keeps pulling work instead of
//! idling. Enqueuing is linear in the number of hyperedges, so the
//! asymptotic complexity matches the non-queue hashmap algorithm.

use super::counting::pairs_meeting;
use super::rows::Rows;
use super::HyperAdjacency;
use crate::Id;
use nwhy_obs::Counter;
use nwhy_util::partition::Strategy;

/// Algorithm 1. `queue` holds the hyperedge IDs to process (any order,
/// any ID space the representation defines); returns canonical pairs.
/// Queue slots, not raw IDs, are the iteration space, so permuted or
/// relabeled IDs cost nothing extra.
pub fn queue_hashmap<H: HyperAdjacency + ?Sized>(
    h: &H,
    queue: &[Id],
    s: usize,
    strategy: Strategy,
) -> Vec<(Id, Id)> {
    nwhy_obs::add(Counter::SlineQueuePushes, queue.len() as u64);
    pairs_meeting(h, Rows::Queue(queue, strategy), s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adjoin::AdjoinGraph;
    use crate::fixtures::{paper_hypergraph, paper_slinegraph_edges};
    use crate::hypergraph::Hypergraph;

    #[test]
    fn matches_fixture_on_biadjacency() {
        let h = paper_hypergraph();
        let queue: Vec<Id> = (0..4).collect();
        for s in 1..=4 {
            assert_eq!(
                queue_hashmap(&h, &queue, s, Strategy::AUTO),
                paper_slinegraph_edges(s),
                "s={s}"
            );
        }
    }

    #[test]
    fn queue_order_is_irrelevant() {
        let h = paper_hypergraph();
        let shuffled: Vec<Id> = vec![2, 0, 3, 1];
        assert_eq!(
            queue_hashmap(&h, &shuffled, 2, Strategy::AUTO),
            paper_slinegraph_edges(2)
        );
    }

    #[test]
    fn runs_directly_on_adjoin_graph() {
        // the paper's headline versatility claim: same algorithm, single
        // shared index set, no remapping
        let h = paper_hypergraph();
        let a = AdjoinGraph::from_hypergraph(&h);
        let queue: Vec<Id> = (0..crate::ids::from_usize(a.num_hyperedges())).collect();
        for s in 1..=4 {
            assert_eq!(
                queue_hashmap(&a, &queue, s, Strategy::AUTO),
                paper_slinegraph_edges(s),
                "adjoin s={s}"
            );
        }
    }

    #[test]
    fn partial_queue_restricts_pairs() {
        // only enqueue hyperedges {1, 2, 3}: pairs involving 0 must not
        // appear even though 0 s-overlaps others
        let h = paper_hypergraph();
        let queue: Vec<Id> = vec![1, 2, 3];
        let got = queue_hashmap(&h, &queue, 1, Strategy::AUTO);
        assert_eq!(got, vec![(1, 2), (1, 3), (2, 3)]);
    }

    #[test]
    fn empty_queue_gives_empty_graph() {
        let h = paper_hypergraph();
        assert!(queue_hashmap(&h, &[], 1, Strategy::AUTO).is_empty());
    }

    #[test]
    fn cyclic_strategy_on_queue() {
        let h = Hypergraph::from_memberships(&[vec![0, 1, 2], vec![1, 2], vec![2, 3], vec![0, 3]]);
        let queue: Vec<Id> = (0..4).collect();
        assert_eq!(
            queue_hashmap(&h, &queue, 1, Strategy::Cyclic { num_bins: 3 }),
            queue_hashmap(&h, &queue, 1, Strategy::AUTO)
        );
    }
}
