//! Plain edge-list output for s-line graphs: one `a\tb` line per pair,
//! IDs in decimal — what `nwhy-cli sline --out` writes.
//!
//! The digits are formatted by hand (`push_decimal`, the one decimal
//! formatter of the text writers) rather than through `write!`, whose
//! formatting machinery dominates the cost of writing multi-million-pair
//! lists.
//!
//! **Emit path.** [`write_sline_edges`] takes the build itself, not its
//! pairs: [`SLineBuilder::stream_edges`] has each counting bin format its
//! pairs into its own byte buffer on its pool thread, and the buffers are
//! written here in bin order, one wave of bins at a time. Builds whose
//! bins are not row-ordered are collected and canonicalized first, then
//! formatted the same way, so both paths give the same bytes.

use crate::error::IoError;
use nwhy_core::{HyperAdjacency, Id, SLineBuilder};
use std::io::{BufWriter, Write};

/// Decimal digits of the largest [`Id`] (`u32::MAX` = 4294967295).
const MAX_DIGITS: usize = 10;

/// Runs `builder` and writes its canonical edge list to `w`, one
/// `a\tb\n` line per pair, as the build streams it; returns the number
/// of pairs. Each write, under an `emit` span, appends one bin's
/// formatted pairs. Pass `w` unbuffered (a bare `File`); every write
/// error, the final flush's included, is returned.
///
/// # Panics
/// Panics if the builder's `s` is 0.
pub fn write_sline_edges<W: Write, A: HyperAdjacency + ?Sized>(
    w: W,
    builder: &SLineBuilder<'_, A>,
) -> Result<usize, IoError> {
    let mut w = BufWriter::new(w);
    let pairs = builder.stream_edges(Vec::new, push_pair, |run: Vec<u8>| {
        let _span = nwhy_obs::span("emit");
        w.write_all(&run)
    })?;
    let _span = nwhy_obs::span("emit");
    w.flush()?;
    Ok(pairs)
}

/// Appends the line `a\tb\n` to `out`.
fn push_pair(out: &mut Vec<u8>, a: Id, b: Id) {
    push_decimal(out, a);
    out.push(b'\t');
    push_decimal(out, b);
    out.push(b'\n');
}

/// Appends the decimal digits of `n` to `line`: the one decimal formatter
/// of the text writers.
// lint: obs: per-digit hot loop — a span here would dominate the work;
// the writers that call it carry the instrumentation
pub(crate) fn push_decimal(line: &mut Vec<u8>, n: Id) {
    let mut digits = [0u8; MAX_DIGITS];
    let mut rest = n;
    let mut len = 0;
    // fill from the right, least significant digit first
    for slot in digits.iter_mut().rev() {
        *slot = b'0' + u8::try_from(rest % 10).unwrap_or_default();
        len += 1;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    line.extend_from_slice(digits.get(MAX_DIGITS - len..).unwrap_or_default());
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwhy_core::{Algorithm, Hypergraph};
    use proptest::prelude::*;
    use std::io;

    fn reference(pairs: &[(Id, Id)]) -> Vec<u8> {
        pairs
            .iter()
            .map(|(a, b)| format!("{a}\t{b}\n"))
            .collect::<String>()
            .into_bytes()
    }

    /// A kernel whose bins stream (`Hashmap`) and one whose pairs are
    /// collected first (`Naive`).
    const PATHS: [Algorithm; 2] = [Algorithm::Hashmap, Algorithm::Naive];

    fn builder(h: &Hypergraph, s: usize, algorithm: Algorithm) -> SLineBuilder<'_, Hypergraph> {
        SLineBuilder::new(h).s(s).algorithm(algorithm)
    }

    /// `h`'s s-line edge list as `write_sline_edges` writes it.
    fn written(h: &Hypergraph, s: usize, algorithm: Algorithm) -> Vec<u8> {
        let mut out = Vec::new();
        let pairs = write_sline_edges(&mut out, &builder(h, s, algorithm)).unwrap();
        assert_eq!(pairs, out.iter().filter(|&&b| b == b'\n').count());
        out
    }

    /// `n` hyperedges sharing hypernode 0: every pair is an s = 1 edge.
    fn clique(n: usize) -> Hypergraph {
        Hypergraph::from_memberships(&vec![vec![0]; n])
    }

    #[test]
    fn extremes_and_empty() {
        let pairs = [(0, 0), (0, u32::MAX), (9, 10), (99, 100), (u32::MAX, 1)];
        let mut line = Vec::new();
        for &(a, b) in &pairs {
            push_pair(&mut line, a, b);
        }
        assert_eq!(line, reference(&pairs));
        for algorithm in PATHS {
            assert!(written(&Hypergraph::from_memberships(&[]), 1, algorithm).is_empty());
            assert!(written(&clique(3), 2, algorithm).is_empty());
        }
    }

    /// Accepts `room` bytes, then fails every write (a full disk).
    struct Full {
        room: usize,
    }

    impl Write for Full {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.room == 0 {
                return Err(io::Error::other("no space left"));
            }
            let n = buf.len().min(self.room);
            self.room -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn failing_writer_surfaces_as_err() {
        // a few bytes fit the write buffer, so only the final flush fails
        let small = clique(3);
        // ~200 KB of lines pass the buffer, so a mid-stream write fails
        let large = clique(200);
        for algorithm in PATHS {
            assert!(matches!(
                write_sline_edges(Full { room: 0 }, &builder(&small, 1, algorithm)),
                Err(IoError::Io(_))
            ));
            assert!(write_sline_edges(Full { room: 5 }, &builder(&large, 1, algorithm)).is_err());
            let ok = write_sline_edges(Full { room: usize::MAX }, &builder(&large, 1, algorithm));
            assert_eq!(ok.unwrap(), 200 * 199 / 2);
        }
    }

    /// An ID biased toward the extremes: `0`, `u32::MAX`, or any value.
    fn id() -> impl proptest::strategy::Strategy<Value = Id> {
        (0u8..4, 0u32..=u32::MAX).prop_map(|(pick, any)| match pick {
            0 => 0,
            1 => u32::MAX,
            _ => any,
        })
    }

    proptest! {
        #[test]
        fn prop_bytes_match_format(
            pairs in proptest::collection::vec((id(), id()), 0..64),
            ms in proptest::collection::vec(proptest::collection::btree_set(0u32..12, 0..5), 0..40),
            s in 1usize..3,
        ) {
            let mut line = Vec::new();
            for &(a, b) in &pairs {
                push_pair(&mut line, a, b);
            }
            prop_assert_eq!(line, reference(&pairs));
            let ms: Vec<Vec<Id>> = ms.into_iter().map(|m| m.into_iter().collect()).collect();
            let h = Hypergraph::from_memberships(&ms);
            let want = reference(&builder(&h, s, Algorithm::Naive).edges());
            for algorithm in Algorithm::ALL {
                prop_assert_eq!(&written(&h, s, algorithm), &want, "{:?}", algorithm);
            }
        }
    }
}
