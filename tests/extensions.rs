//! Integration tests for the extension surface: weighted s-line graphs,
//! toplex restriction and online s-components — all running together on
//! generated data.

use nwhy::core::algorithms::toplex::restrict_to_toplexes;
use nwhy::core::slinegraph::weighted::slinegraph_weighted_edges;
use nwhy::core::SLineBuilder;
use nwhy::gen::profiles::{profile_by_name, TABLE1};
use nwhy::session::NWHypergraph;
use nwhy::util::partition::Strategy;

#[test]
fn weighted_linegraph_agrees_with_unweighted_on_twins() {
    let h = profile_by_name("com-Orkut").unwrap().generate(50_000, 5);
    for s in [1usize, 2, 3] {
        let unweighted = SLineBuilder::new(&h).s(s).edges();
        let weighted = slinegraph_weighted_edges(&h, s, Strategy::AUTO);
        assert_eq!(weighted.len(), unweighted.len(), "s={s}");
        for (&(a, b), &(wa, wb, o)) in unweighted.iter().zip(&weighted) {
            assert_eq!((a, b), (wa, wb));
            assert!(o as usize >= s);
        }
    }
}

#[test]
fn online_session_components_match_materialized() {
    for profile in &TABLE1 {
        let hg = NWHypergraph::from_hypergraph(profile.generate(100_000, 9));
        for s in [1usize, 2, 4, 8] {
            let online = hg.s_connected_components_online(s);
            let materialized = hg.s_linegraph(s, true).s_connected_components();
            assert_eq!(online, materialized, "{} s={s}", profile.name);
            assert_eq!(
                hg.is_s_connected_online(s),
                online.windows(2).all(|w| w[0] == w[1]),
                "{} s={s}",
                profile.name
            );
        }
    }
}

#[test]
fn toplex_restriction_then_full_analysis() {
    let h = profile_by_name("com-Orkut").unwrap().generate(100_000, 5);
    let hg = NWHypergraph::from_hypergraph(h);
    let (simplified, kept) = hg.restrict_to_toplexes();
    assert!(!kept.is_empty());
    assert!(simplified.num_hyperedges() <= hg.num_hyperedges());
    // the simplified hypergraph still answers every session query
    let lg = simplified.s_linegraph(2, true);
    assert_eq!(lg.num_vertices(), simplified.num_hyperedges());
    let _ = lg.s_connected_components();
}

#[test]
fn restriction_then_toplexes_is_idempotent() {
    let h = profile_by_name("Orkut-group").unwrap().generate(100_000, 7);
    let (t1, _) = restrict_to_toplexes(&h);
    let (t2, map2) = restrict_to_toplexes(&t1);
    // all edges of a toplex restriction are already maximal
    assert_eq!(t2.num_hyperedges(), t1.num_hyperedges());
    assert_eq!(
        map2,
        (0..nwhy::core::ids::from_usize(t1.num_hyperedges())).collect::<Vec<_>>()
    );
}
