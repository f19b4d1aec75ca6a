//! Fail-closed text readers: seeded byte mutations of valid `.hgr`,
//! `.mtx` and `.tsv` files (a flipped bit, an inserted or deleted byte,
//! a truncation) must each read as an `Err` or as a hypergraph that
//! passes `Validate`, never a panic.

use nwhy::core::{Hypergraph, Validate};
use nwhy::gen::rng::Rng;
use nwhy::io::{
    read_bipartite_tsv, read_hyperedge_list, read_matrix_market, write_bipartite_tsv,
    write_hyperedge_list, write_matrix_market, IoError, Orientation,
};
use std::io::Cursor;

/// Mutants per format.
const MUTANTS: u64 = 3000;

/// Bytes an insertion or a replacement draws from half the time: the
/// ones the readers branch on. The other half is any byte.
const SPECIAL: &[u8] = b"0123456789 \t\n\r\x0b\x0c%#+-xe.";

/// Uniform in `0..n`.
fn below(rng: &mut Rng, n: usize) -> usize {
    usize::try_from(rng.below(n as u64)).unwrap_or(0)
}

fn random_byte(rng: &mut Rng) -> u8 {
    if rng.below(2) == 0 {
        SPECIAL
            .get(below(rng, SPECIAL.len()))
            .copied()
            .unwrap_or(b'0')
    } else {
        u8::try_from(rng.below(256)).unwrap_or(0)
    }
}

/// One to three random edits of `bytes`.
fn mutate(bytes: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..=rng.below(3) {
        let at = below(rng, out.len() + 1);
        match rng.below(5) {
            0 if at < out.len() => out[at] ^= 1 << rng.below(8),
            1 if at < out.len() => out[at] = random_byte(rng),
            2 => out.insert(at, random_byte(rng)),
            3 if at < out.len() => {
                out.remove(at);
            }
            _ => out.truncate(at),
        }
    }
    out
}

/// `Ok` only for a structure whose invariants hold.
fn check(what: &str, input: &[u8], read: Result<Hypergraph, IoError>) {
    if let Ok(h) = read {
        if let Err(e) = h.validate() {
            panic!(
                "{what}: {:?} read as an invalid hypergraph: {e}",
                String::from_utf8_lossy(input)
            );
        }
    }
}

fn fuzz(what: &str, seed: u64, valid: &[u8], read: impl Fn(&[u8]) -> Result<Hypergraph, IoError>) {
    assert!(read(valid).is_ok(), "{what}: the unmutated input must read");
    let mut rng = Rng::new(seed);
    let mut rejected = 0;
    for _ in 0..MUTANTS {
        let input = mutate(valid, &mut rng);
        let result = read(&input);
        rejected += usize::from(result.is_err());
        check(what, &input, result);
    }
    // the mutants reach the error paths, not only the happy one
    assert!(rejected > 0, "{what}: no mutant was rejected");
}

/// A small hypergraph with an empty hyperedge, written in `write`'s format.
fn valid(write: impl Fn(&mut Vec<u8>, &Hypergraph) -> Result<(), IoError>) -> Vec<u8> {
    let mut ms: Vec<Vec<u32>> = (0..6)
        .map(|e| {
            nwhy::gen::uniform_random(12, 1, 3, e)
                .edge_members(0)
                .to_vec()
        })
        .collect();
    ms.insert(2, Vec::new());
    let mut out = Vec::new();
    write(&mut out, &Hypergraph::from_memberships(&ms)).unwrap();
    out
}

#[test]
fn mutated_hyperedge_lists_fail_closed() {
    let text = valid(|w, h| write_hyperedge_list(w, h));
    fuzz("hgr", 11, &text, |b| read_hyperedge_list(Cursor::new(b)));
}

#[test]
fn mutated_matrix_market_files_fail_closed() {
    let text = valid(|w, h| write_matrix_market(w, h));
    fuzz("mtx", 12, &text, |b| read_matrix_market(Cursor::new(b)));
    let symmetric =
        b"%%MatrixMarket matrix coordinate real symmetric\n4 4 3\n2 1 0.5\n3 3 1\n4 2 -2\n";
    fuzz("mtx symmetric", 13, symmetric, |b| {
        read_matrix_market(Cursor::new(b))
    });
}

#[test]
fn mutated_bipartite_tsvs_fail_closed() {
    let text = valid(|w, h| write_bipartite_tsv(w, h));
    fuzz("tsv", 14, &text, |b| {
        read_bipartite_tsv(Cursor::new(b), Orientation::NodeEdge)
    });
    fuzz("tsv edge-node", 15, &text, |b| {
        read_bipartite_tsv(Cursor::new(b), Orientation::EdgeNode)
    });
}
