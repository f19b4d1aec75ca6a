//! Integration tests for the extension surface: weighted s-line graphs,
//! (k, ℓ)-cores, hypergraph transformations, rectangular matrix ops,
//! online s-components and the dynamic work queue — all running together
//! on generated data.

use nwhy::core::algorithms::kcore::{kl_core, validate_kl_core};
use nwhy::core::ops::{diffusion_step, dominant_singular, incidence_checksum};
use nwhy::core::slinegraph::queue_single::{queue_hashmap, queue_hashmap_dynamic};
use nwhy::core::slinegraph::weighted::slinegraph_weighted_edges;
use nwhy::core::transform::{
    collapse_duplicate_edges, induced_subhypergraph, restrict_to_toplexes,
};
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
fn dynamic_queue_matches_static_on_twins() {
    for name in ["Orkut-group", "Rand1"] {
        let h = profile_by_name(name).unwrap().generate(100_000, 5);
        let queue: Vec<u32> = (0..nwhy::core::ids::from_usize(h.num_hyperedges())).collect();
        for s in [1usize, 2] {
            assert_eq!(
                queue_hashmap_dynamic(&h, &queue, s),
                queue_hashmap(&h, &queue, s, Strategy::AUTO),
                "{name} s={s}"
            );
        }
    }
}

#[test]
fn kl_cores_validate_on_twins() {
    let h = profile_by_name("LiveJournal").unwrap().generate(50_000, 5);
    for (k, l) in [(1, 1), (2, 2), (3, 5), (5, 2)] {
        let core = kl_core(&h, k, l);
        validate_kl_core(&h, k, l, &core).unwrap();
    }
}

#[test]
fn transformations_preserve_slinegraph_semantics() {
    let h = profile_by_name("Friendster").unwrap().generate(50_000, 5);
    // collapsing duplicates must not create or destroy s-overlaps among
    // surviving representatives
    let (c, classes) = collapse_duplicate_edges(&h);
    let collapsed = SLineBuilder::new(&c).s(2).edges();
    let original = SLineBuilder::new(&h).s(2).edges();
    // map collapsed pairs back through representatives; they must exist
    for &(a, b) in &collapsed {
        let ra = classes[a as usize][0];
        let rb = classes[b as usize][0];
        let key = if ra < rb { (ra, rb) } else { (rb, ra) };
        assert!(original.contains(&key), "collapsed pair {key:?} missing");
    }
}

#[test]
fn induced_subhypergraph_respects_membership() {
    let h = profile_by_name("Rand1").unwrap().generate(200_000, 5);
    let keep: Vec<u32> = (0..nwhy::core::ids::from_usize(h.num_hypernodes()))
        .step_by(2)
        .collect();
    let (sub, node_map) = induced_subhypergraph(&h, &keep);
    assert_eq!(sub.num_hypernodes(), keep.len());
    for e in 0..nwhy::core::ids::from_usize(sub.num_hyperedges()) {
        for &nv in sub.edge_members(e) {
            let old = node_map[nv as usize];
            assert!(h.edge_members(e).contains(&old));
        }
    }
}

#[test]
fn rectangular_ops_on_twins() {
    let h = profile_by_name("Web").unwrap().generate(100_000, 5);
    let (a, b, c) = incidence_checksum(&h);
    assert_eq!(a, c as f64);
    assert_eq!(b, c as f64);
    // one diffusion step conserves probability mass
    let n = h.num_hypernodes();
    let x = vec![1.0 / n as f64; n];
    let y = diffusion_step(&h, &x);
    assert!((y.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    // dominant singular value is bounded below by sqrt(max edge size)
    let (sigma, _) = dominant_singular(&h, 1e-9, 100);
    let max_e = h.stats().max_edge_degree as f64;
    assert!(sigma + 1e-6 >= max_e.sqrt(), "sigma {sigma} vs √{max_e}");
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
    let core = simplified.kl_core(2, 2);
    validate_kl_core(simplified.hypergraph(), 2, 2, &core).unwrap();
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
