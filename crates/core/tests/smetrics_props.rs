//! Property tests for s-metric semantics on arbitrary hypergraphs —
//! the mathematical laws the s-walk framework (Aksoy et al.) guarantees,
//! checked against this implementation.

use nwhy_core::ids;
use nwhy_core::smetrics::SLineGraph;
use nwhy_core::{Hypergraph, Id};
use proptest::prelude::*;

fn arb_memberships() -> impl Strategy<Value = Vec<Vec<Id>>> {
    proptest::collection::vec(proptest::collection::btree_set(0u32..16, 0..7), 1..12)
        .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn s_distance_is_a_metric(ms in arb_memberships(), s in 1usize..4) {
        let h = Hypergraph::from_memberships(&ms);
        let lg = SLineGraph::new(&h, s);
        let n = ids::from_usize(lg.num_vertices());
        // identity and symmetry
        for a in 0..n {
            prop_assert_eq!(lg.s_distance(a, a), Some(0));
            for b in 0..n {
                prop_assert_eq!(lg.s_distance(a, b), lg.s_distance(b, a));
            }
        }
        // triangle inequality on all defined triples
        for a in 0..n {
            for b in 0..n {
                for c in 0..n {
                    if let (Some(ab), Some(bc), Some(ac)) =
                        (lg.s_distance(a, b), lg.s_distance(b, c), lg.s_distance(a, c))
                    {
                        prop_assert!(ac <= ab + bc, "d({a},{c}) > d({a},{b}) + d({b},{c})");
                    }
                }
            }
        }
    }

    #[test]
    fn s_path_realizes_s_distance(ms in arb_memberships(), s in 1usize..4) {
        let h = Hypergraph::from_memberships(&ms);
        let lg = SLineGraph::new(&h, s);
        let n = ids::from_usize(lg.num_vertices());
        for a in 0..n {
            for b in 0..n {
                match (lg.s_path(a, b), lg.s_distance(a, b)) {
                    (Some(p), Some(d)) => {
                        prop_assert_eq!(ids::from_usize(p.len()), d + 1);
                        prop_assert_eq!(p.first(), Some(&a));
                        prop_assert_eq!(p.last(), Some(&b));
                        // consecutive path hyperedges s-overlap
                        for w in p.windows(2) {
                            prop_assert!(lg.s_neighbors(w[0]).contains(&w[1]));
                        }
                    }
                    (None, None) => {}
                    (p, d) => prop_assert!(false, "path {p:?} vs distance {d:?}"),
                }
            }
        }
    }

    #[test]
    fn eccentricity_bounds_distances(ms in arb_memberships(), s in 1usize..3) {
        let h = Hypergraph::from_memberships(&ms);
        let lg = SLineGraph::new(&h, s);
        let ecc = lg.s_eccentricity(None);
        let n = ids::from_usize(lg.num_vertices());
        for a in 0..n {
            for b in 0..n {
                if let Some(d) = lg.s_distance(a, b) {
                    prop_assert!(d <= ecc[a as usize], "d({a},{b})={d} > ecc {}", ecc[a as usize]);
                }
            }
        }
        // diameter is the max ecc
        prop_assert_eq!(lg.s_diameter(), ecc.iter().copied().max().unwrap_or(0));
    }

    #[test]
    fn distances_monotone_in_s(ms in arb_memberships()) {
        // raising s can only break connections: distances non-decreasing
        let h = Hypergraph::from_memberships(&ms);
        let n = ids::from_usize(h.num_hyperedges());
        for s in 1usize..3 {
            let lo = SLineGraph::new(&h, s);
            let hi = SLineGraph::new(&h, s + 1);
            for a in 0..n {
                for b in 0..n {
                    match (lo.s_distance(a, b), hi.s_distance(a, b)) {
                        (Some(d1), Some(d2)) => prop_assert!(d1 <= d2),
                        (None, Some(_)) => prop_assert!(false, "connected at s+1 but not s"),
                        _ => {}
                    }
                }
            }
        }
    }

    #[test]
    fn component_labels_agree_with_distances(ms in arb_memberships(), s in 1usize..4) {
        let h = Hypergraph::from_memberships(&ms);
        let lg = SLineGraph::new(&h, s);
        let labels = lg.s_connected_components();
        let n = ids::from_usize(lg.num_vertices());
        for a in 0..n {
            for b in 0..n {
                prop_assert_eq!(
                    labels[a as usize] == labels[b as usize],
                    lg.s_distance(a, b).is_some(),
                    "labels vs reachability for ({}, {})", a, b
                );
            }
        }
    }

    #[test]
    fn centralities_are_well_formed(ms in arb_memberships()) {
        let h = Hypergraph::from_memberships(&ms);
        let lg = SLineGraph::new(&h, 1);
        let bc = lg.s_betweenness_centrality(true);
        prop_assert!(bc.iter().all(|&x| (0.0..=1.0 + 1e-9).contains(&x)));
        let cc = lg.s_closeness_centrality(None);
        prop_assert!(cc.iter().all(|&x| (0.0..=1.0 + 1e-9).contains(&x)));
        let hc = lg.s_harmonic_closeness_centrality(None);
        let n = lg.num_vertices() as f64;
        prop_assert!(hc.iter().all(|&x| x >= 0.0 && x <= n));
    }
}
