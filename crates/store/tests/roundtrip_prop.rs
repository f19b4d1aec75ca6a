//! Property tests for the NWHYPAK1 codec: pack → open → decode is the
//! identity on arbitrary hypergraphs, through both the owned-buffer and
//! (on unix) the mmap backend.

use nwhy_core::{ids, BiEdgeList, Hypergraph, Id};
use nwhy_store::{pack_hypergraph, Backend, CompressedHypergraph};
use proptest::prelude::*;

/// Arbitrary membership lists: includes empty hypergraphs, empty rows
/// (hyperedges with no members), and singleton edges.
fn arb_memberships() -> impl Strategy<Value = Vec<Vec<Id>>> {
    proptest::collection::vec(proptest::collection::btree_set(0u32..40, 0..8), 0..14)
        .prop_map(|sets| sets.into_iter().map(|s| s.into_iter().collect()).collect())
}

/// Arbitrary weighted incidence lists (duplicates allowed — the format
/// must preserve duplicate incidences via zero gaps). Weights come from
/// scaled integers: the vendored proptest has no float strategies, and
/// exact-representable values keep the equality assertions meaningful.
fn arb_weighted() -> impl Strategy<Value = (Vec<(Id, Id)>, Vec<f64>)> {
    proptest::collection::vec(((0u32..10), (0u32..20), 0u32..2000), 0..30).prop_map(|triples| {
        triples
            .into_iter()
            .map(|(e, v, w)| ((e, v), (f64::from(w) - 1000.0) / 8.0))
            .unzip()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prop_pack_open_identity(ms in arb_memberships()) {
        let h = Hypergraph::from_memberships(&ms);
        let c = CompressedHypergraph::from_bytes(pack_hypergraph(&h)).unwrap();
        prop_assert_eq!(c.num_hyperedges(), h.num_hyperedges());
        prop_assert_eq!(c.num_hypernodes(), h.num_hypernodes());
        prop_assert_eq!(c.num_incidences(), h.num_incidences());
        prop_assert_eq!(&c.to_hypergraph(), &h);
        // row-level agreement, not just whole-structure equality
        for e in 0..ids::from_usize(h.num_hyperedges()) {
            prop_assert_eq!(&c.edge_row(e)[..], h.edge_members(e));
        }
        for v in 0..ids::from_usize(h.num_hypernodes()) {
            prop_assert_eq!(&c.node_row(v)[..], h.node_memberships(v));
        }
    }

    #[test]
    fn prop_pack_open_identity_weighted(input in arb_weighted()) {
        let (incidences, weights) = input;
        let bel = BiEdgeList::from_weighted_incidences(10, 20, incidences, weights);
        let h = Hypergraph::from_biedgelist(&bel);
        let c = CompressedHypergraph::from_bytes(pack_hypergraph(&h)).unwrap();
        prop_assert_eq!(c.is_weighted(), h.is_weighted());
        prop_assert_eq!(&c.to_hypergraph(), &h);
    }

    #[test]
    fn prop_file_roundtrip_through_backends(ms in arb_memberships()) {
        let h = Hypergraph::from_memberships(&ms);
        let bytes = pack_hypergraph(&h);
        let mut path = std::env::temp_dir();
        path.push(format!(
            "nwhy-store-prop-{}-{}.nwhypak",
            std::process::id(),
            h.num_incidences()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let owned = CompressedHypergraph::open(&path, Backend::Owned).unwrap();
        prop_assert!(!owned.is_mapped());
        prop_assert_eq!(&owned.to_hypergraph(), &h);
        #[cfg(all(unix, feature = "mmap"))]
        {
            let mapped = CompressedHypergraph::open(&path, Backend::Mmap).unwrap();
            prop_assert!(mapped.is_mapped());
            prop_assert_eq!(&mapped.to_hypergraph(), &h);
        }
        std::fs::remove_file(&path).ok();
    }
}
