//! Cross-representation consistency on generated datasets.
//!
//! The paper's central design claim: the same hypergraph metric can be
//! computed on any of the four representations (bi-adjacency, adjoin,
//! s-line, clique expansion) and by either framework (NWHy or the Hygra
//! baseline). These tests pin that equivalence on every Table I twin at
//! test scale.

use nwhy::core::algorithms::{
    adjoin_bfs, adjoin_cc_afforest, adjoin_cc_label_propagation, hyper_bfs_bottom_up,
    hyper_bfs_top_down, hyper_cc, hyper_cc_label_propagation,
};
use nwhy::core::repr::{DualView, HyperAdjacency, RelabeledView};
use nwhy::core::slinegraph::queue_single::queue_hashmap;
use nwhy::core::slinegraph::queue_two_phase::queue_intersection;
use nwhy::core::Relabeling;
use nwhy::core::{AdjoinGraph, Algorithm, HyperedgeId, Hypergraph, Relabel, SLineBuilder};
use nwhy::gen::profiles::TABLE1;
use nwhy::util::partition::Strategy;

const TEST_SCALE: usize = 50_000;

fn twins() -> Vec<(&'static str, Hypergraph)> {
    TABLE1
        .iter()
        .map(|p| (p.name, p.generate(TEST_SCALE, 99)))
        .collect()
}

#[test]
fn bfs_agrees_across_representations_and_frameworks() {
    for (name, h) in twins() {
        let a = AdjoinGraph::from_hypergraph(&h);
        let src = (0..nwhy::core::ids::from_usize(h.num_hyperedges()))
            .max_by_key(|&e| h.edge_degree(e))
            .unwrap();
        let td = hyper_bfs_top_down(&h, src);
        let bu = hyper_bfs_bottom_up(&h, src);
        let ad = adjoin_bfs(&a, HyperedgeId::new(src));
        let hy = hygra::hygra_bfs(&h, src);
        assert_eq!(
            td.edge_levels, bu.edge_levels,
            "{name}: top-down vs bottom-up"
        );
        assert_eq!(
            td.edge_levels, ad.edge_levels,
            "{name}: bipartite vs adjoin"
        );
        assert_eq!(td.edge_levels, hy.edge_levels, "{name}: NWHy vs Hygra");
        assert_eq!(td.node_levels, ad.node_levels, "{name}: node levels");
        assert_eq!(td.node_levels, hy.node_levels, "{name}: node levels hygra");
    }
}

#[test]
fn cc_agrees_across_representations_and_frameworks() {
    for (name, h) in twins() {
        let a = AdjoinGraph::from_hypergraph(&h);
        let exact = hyper_cc(&h);
        let aff = adjoin_cc_afforest(&a);
        let lp = adjoin_cc_label_propagation(&a);
        let hy = hygra::hygra_cc(&h);
        assert_eq!(
            exact.num_components(),
            aff.num_components(),
            "{name}: afforest"
        );
        assert_eq!(
            exact.num_components(),
            lp.num_components(),
            "{name}: adjoin lp"
        );
        assert_eq!(exact.num_components(), hy.num_components(), "{name}: hygra");
        // union-find HyperCC returns label propagation's labels bit for
        // bit on the bi-adjacency and the adjoin, dual and relabeled views
        fn same_labels<A: HyperAdjacency + ?Sized>(name: &str, view: &str, g: &A) {
            let lp = hyper_cc_label_propagation(g);
            assert_eq!(hyper_cc(g), lp, "{name}: {view}");
        }
        same_labels(name, "bi-adjacency", &h);
        same_labels(name, "adjoin", &a);
        same_labels(name, "dual", &DualView::new(&h));
        let degrees: Vec<usize> = (0..h.num_hyperedges())
            .map(|e| h.edge_degree(u32::try_from(e).unwrap()))
            .collect();
        let relabeling = Relabeling::from_permutation(nwhy::nwgraph::degree_permutation(
            &degrees,
            nwhy::nwgraph::Direction::Descending,
        ));
        same_labels(
            name,
            "relabeled",
            &RelabeledView::from_relabeling(&h, &relabeling),
        );
    }
}

#[test]
fn slinegraph_algorithms_agree_on_twins() {
    for (name, h) in twins() {
        for s in [1usize, 2, 4] {
            let reference = SLineBuilder::new(&h).s(s).edges();
            for algo in [
                Algorithm::Intersection,
                Algorithm::QueueHashmap,
                Algorithm::QueueIntersection,
            ] {
                let got = SLineBuilder::new(&h).s(s).algorithm(algo).edges();
                assert_eq!(got, reference, "{name} s={s} {}", algo.name());
            }
        }
    }
}

#[test]
fn queue_algorithms_run_on_adjoin_without_remapping() {
    for (name, h) in twins() {
        let a = AdjoinGraph::from_hypergraph(&h);
        let queue: Vec<u32> = (0..nwhy::core::ids::from_usize(a.num_hyperedges())).collect();
        for s in [1usize, 2] {
            let bi = SLineBuilder::new(&h).s(s).edges();
            let via_adjoin_1 = queue_hashmap(&a, &queue, s, Strategy::AUTO);
            let via_adjoin_2 = queue_intersection(&a, &queue, s, Strategy::AUTO);
            assert_eq!(via_adjoin_1, bi, "{name} s={s} alg1 on adjoin");
            assert_eq!(via_adjoin_2, bi, "{name} s={s} alg2 on adjoin");
        }
    }
}

#[test]
fn relabel_and_strategy_do_not_change_results() {
    for (name, h) in twins().into_iter().take(3) {
        let reference = SLineBuilder::new(&h).s(2).edges();
        for relabel in [Relabel::Ascending, Relabel::Descending] {
            for strategy in [
                Strategy::Blocked { num_bins: 8 },
                Strategy::Cyclic { num_bins: 8 },
            ] {
                for algo in [
                    Algorithm::Hashmap,
                    Algorithm::QueueHashmap,
                    Algorithm::Intersection,
                    Algorithm::QueueIntersection,
                ] {
                    let got = SLineBuilder::new(&h)
                        .s(2)
                        .algorithm(algo)
                        .strategy(strategy)
                        .relabel(relabel)
                        .edges();
                    assert_eq!(
                        got,
                        reference,
                        "{name} {relabel:?} {strategy:?} {}",
                        algo.name()
                    );
                }
            }
        }
    }
}

#[test]
fn builder_agrees_across_representations_for_every_algorithm() {
    // the tentpole guarantee: one generic pipeline, any representation.
    // For every construction algorithm and s ∈ {1..4}, building from the
    // bi-adjacency and from the adjoin graph must give identical
    // canonical edge sets — with and without degree relabeling.
    for (name, h) in twins().into_iter().take(4) {
        let a = AdjoinGraph::from_hypergraph(&h);
        for s in 1..=4usize {
            let reference = SLineBuilder::new(&h).s(s).edges();
            for algo in Algorithm::ALL {
                let from_bi = SLineBuilder::new(&h).s(s).algorithm(algo).edges();
                let from_adjoin = SLineBuilder::new(&a).s(s).algorithm(algo).edges();
                assert_eq!(from_bi, reference, "{name} s={s} {} on bi", algo.name());
                assert_eq!(
                    from_adjoin,
                    reference,
                    "{name} s={s} {} on adjoin",
                    algo.name()
                );
                let relabeled = SLineBuilder::new(&a)
                    .s(s)
                    .algorithm(algo)
                    .relabel(Relabel::Descending)
                    .edges();
                assert_eq!(
                    relabeled,
                    reference,
                    "{name} s={s} {} relabeled on adjoin",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn adjoin_cc_partition_matches_bipartite_partition() {
    for (name, h) in twins().into_iter().take(3) {
        let a = AdjoinGraph::from_hypergraph(&h);
        let exact = hyper_cc(&h);
        let aff = adjoin_cc_afforest(&a);
        // same-component relation must agree on a sample of hyperedge pairs
        let ne = h.num_hyperedges();
        let step = (ne / 50).max(1);
        for i in (0..ne).step_by(step) {
            for j in (0..ne).step_by(step) {
                assert_eq!(
                    exact.edge_labels[i] == exact.edge_labels[j],
                    aff.edge_labels[i] == aff.edge_labels[j],
                    "{name}: pair ({i},{j})"
                );
            }
        }
    }
}
