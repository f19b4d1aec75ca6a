//! Thread-count independence of the packed-image layer: the packer, the
//! validating open walk and the resident decode cut each side into
//! blocks of sample groups for the pool, and nothing they produce may
//! depend on how many blocks there are. A one-thread pool runs one block
//! per side; a three-thread pool runs several, so every block boundary
//! below is crossed. Corrupt images must fail with the same typed error
//! either way.

use nwhy_core::{ids, BiEdgeList, HyperAdjacency, Hypergraph};
use nwhy_gen::uniform_random;
use nwhy_store::format::{HEADER_LEN, SAMPLE_EVERY};
use nwhy_store::{pack_hypergraph, CompressedHypergraph, Header, Side};
use nwhy_util::with_threads;

/// A weighted uniform hypergraph with more than eight sample groups on
/// each side, so the image has all six sections.
fn fixture() -> Hypergraph {
    let h = uniform_random(
        /* nodes */ 700, /* edges */ 600, /* size */ 5, 0x5EED,
    );
    let mut incidences = Vec::new();
    for e in 0..ids::from_usize(h.num_hyperedges()) {
        incidences.extend(h.edge_members(e).iter().map(|&v| (e, v)));
    }
    let weights = (0..incidences.len()).map(|i| i as f64 * 0.25).collect();
    let h = Hypergraph::from_biedgelist(&BiEdgeList::from_weighted_incidences(
        h.num_hyperedges(),
        h.num_hypernodes(),
        incidences,
        weights,
    ));
    assert!(h.num_hyperedges().min(h.num_hypernodes()) > 8 * SAMPLE_EVERY);
    h
}

/// What opening `img` gives: the decoded hypergraph, or the error.
fn outcome(img: &[u8]) -> Result<Hypergraph, String> {
    CompressedHypergraph::from_bytes(img.to_vec())
        .map(|c| c.to_hypergraph())
        .map_err(|e| format!("{e:?}"))
}

/// The byte range of each of the six sections, in file order.
fn sections(img: &[u8]) -> Vec<std::ops::Range<usize>> {
    let header = Header::parse(img).unwrap();
    let mut start = HEADER_LEN;
    header
        .section_lens
        .iter()
        .map(|&len| {
            let range = start..start + usize::try_from(len).unwrap();
            start = range.end;
            range
        })
        .collect()
}

/// Image offsets of every sample-group boundary: each stored sampled
/// index entry, taken as a position in its side's payload.
fn sample_boundaries(img: &[u8]) -> Vec<usize> {
    let s = sections(img);
    let mut out = Vec::new();
    for (index, payload) in [(&s[0], &s[1]), (&s[2], &s[3])] {
        for entry in img[index.clone()].chunks_exact(8) {
            let stored = u64::from_le_bytes(entry.try_into().unwrap());
            out.push(payload.start + usize::try_from(stored).unwrap());
        }
    }
    out
}

#[test]
fn pack_bytes_do_not_depend_on_thread_count() {
    let h = fixture();
    let one = with_threads(1, || pack_hypergraph(&h));
    let three = with_threads(3, || pack_hypergraph(&h));
    assert_eq!(one, three);
    let mut written = Vec::new();
    with_threads(3, || nwhy_store::write_packed(&mut written, &h)).unwrap();
    assert_eq!(written, one);
    assert_eq!(outcome(&one), Ok(h));
}

#[test]
fn truncations_at_sample_boundaries_fail_alike() {
    let img = pack_hypergraph(&fixture());
    let cuts: Vec<usize> = sample_boundaries(&img)
        .into_iter()
        .flat_map(|b| [b - 1, b, b + 1])
        .filter(|&cut| cut < img.len())
        .collect();
    assert!(cuts.len() >= 3 * 2 * 8);
    let open = || -> Vec<_> { cuts.iter().map(|&cut| outcome(&img[..cut])).collect() };
    let (one, three) = (with_threads(1, open), with_threads(3, open));
    for ((cut, a), b) in cuts.iter().zip(&one).zip(&three) {
        assert!(a.is_err(), "image cut to {cut} bytes opened");
        assert_eq!(a, b, "image cut to {cut} bytes");
    }
}

#[test]
fn bit_flips_in_every_section_fail_alike() {
    let img = pack_hypergraph(&fixture());
    // a seeded LCG spreads 400 flips over each of the six sections
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut next = |bound: usize| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize % bound
    };
    let mut flips = Vec::new();
    for section in sections(&img) {
        assert!(!section.is_empty());
        for _ in 0..400 {
            flips.push((section.start + next(section.len()), next(8)));
        }
    }
    let open = || -> Vec<_> {
        flips
            .iter()
            .map(|&(byte, bit)| {
                let mut bad = img.clone();
                bad[byte] ^= 1 << bit;
                outcome(&bad)
            })
            .collect()
    };
    let (one, three) = (with_threads(1, open), with_threads(3, open));
    let mut rejected = 0;
    for (((byte, bit), a), b) in flips.iter().zip(&one).zip(&three) {
        assert_eq!(a, b, "bit {bit} of byte {byte}");
        rejected += usize::from(a.is_err());
    }
    // the index flips are rejected, and weight flips still open
    assert!(
        rejected >= 400 && rejected < flips.len(),
        "{rejected} rejected"
    );
}

#[test]
fn resident_rows_match_per_row_decode_at_any_thread_count() {
    let img = pack_hypergraph(&fixture());
    for threads in [1, 3] {
        with_threads(threads, || {
            let packed = CompressedHypergraph::from_bytes(img.clone()).unwrap();
            let mut resident = CompressedHypergraph::from_bytes(img.clone()).unwrap();
            resident.materialize(Side::Nodes);
            resident.materialize(Side::Edges);
            for e in 0..ids::from_usize(packed.num_hyperedges()) {
                assert_eq!(*resident.edge_neighbors(e), packed.edge_row(e), "edge {e}");
            }
            for v in 0..ids::from_usize(packed.num_hypernodes()) {
                assert_eq!(*resident.node_neighbors(v), packed.node_row(v), "node {v}");
            }
        });
    }
}
