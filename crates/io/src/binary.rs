//! A compact binary hypergraph format.
//!
//! Reading multi-hundred-megabyte Matrix Market text files dominates
//! end-to-end time for large inputs, so (like the C++ NWHy tooling, which
//! caches binary CSR dumps) this crate ships a straightforward
//! little-endian binary format:
//!
//! ```text
//! magic   8 bytes  "NWHYBIN1"
//! flags   u64      bit 0: weights present
//! n_e     u64      hyperedge-space size
//! n_v     u64      hypernode-space size
//! nnz     u64      incidence count
//! pairs   nnz × (u32 hyperedge, u32 hypernode)
//! weights nnz × f64   (only if flags bit 0)
//! ```
//!
//! [`read_binary`] builds the hyperedge CSR straight from the stream, in
//! two passes over the pair section through one fixed chunk buffer, so
//! no pair list is ever held in memory:
//!
//! 1. count each row's length (checking every pair's bounds);
//! 2. seek back and scatter each target (and its weight, read from the
//!    same chunk of the weight section) to its row's cursor, in file
//!    order.
//!
//! That is the stable counting sort that [`Hypergraph::from_biedgelist`]
//! runs, so rows that are not sorted get the same stable sort and the
//! result is the same hypergraph, duplicate incidences included. The
//! reader needs [`Seek`] for the second pass and to check, before sizing
//! anything, that the stream holds the payload the header claims.

use crate::error::IoError;
use nwhy_core::{ids, Hypergraph, Id};
use nwhy_obs::Counter;
use std::io::{ErrorKind, Read, Seek, SeekFrom, Write};

const MAGIC: &[u8; 8] = b"NWHYBIN1";
const FLAG_WEIGHTS: u64 = 1;

/// Panic-free fixed-size split: a short slice becomes a parse error
/// instead of an abort, keeping the whole decode path clear of the
/// lint's `panic-path` rule.
fn take_array<const N: usize>(b: &[u8]) -> Result<([u8; N], &[u8]), IoError> {
    b.split_first_chunk::<N>()
        .map(|(a, rest)| (*a, rest))
        .ok_or_else(|| IoError::parse(1, "truncated record"))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, IoError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

/// Incidence pairs (and weights) are read in chunks of this many
/// entries, so each pass holds one chunk of the file at a time.
const READ_CHUNK: usize = 1 << 16;

/// Streams the `nnz` pairs that start at byte `pairs_at` in
/// [`READ_CHUNK`] blocks, each with the matching block of the weight
/// section when `weights_at` is set, and hands every incidence to `f` in
/// file order after checking it against the `ne × nv` space.
fn for_each_incidence<R: Read + Seek>(
    r: &mut R,
    (pairs_at, weights_at): (u64, Option<u64>),
    (ne, nv, nnz): (usize, usize, usize),
    mut f: impl FnMut(Id, Id, f64) -> Result<(), IoError>,
) -> Result<(), IoError> {
    let mut buf = vec![0u8; nnz.min(READ_CHUNK) * 8];
    let mut wbuf = vec![0u8; if weights_at.is_some() { buf.len() } else { 0 }];
    let mut done = 0;
    while done < nnz {
        let take = (nnz - done).min(READ_CHUNK);
        let skip = done as u64 * 8;
        let pairs = buf.get_mut(..take * 8).unwrap_or_default();
        r.seek(SeekFrom::Start(pairs_at + skip))?;
        r.read_exact(pairs)?;
        let weights = wbuf.get_mut(..take * 8).unwrap_or_default();
        if let Some(at) = weights_at {
            r.seek(SeekFrom::Start(at + skip))?;
            r.read_exact(weights)?;
        }
        let mut weights = weights.chunks_exact(8);
        for pair in pairs.chunks_exact(8) {
            // the pair words are read as u32 and are already `Id`-sized
            let (e_bytes, rest) = take_array::<4>(pair)?;
            let (v_bytes, _) = take_array::<4>(rest)?;
            let e = u32::from_le_bytes(e_bytes);
            let v = u32::from_le_bytes(v_bytes);
            if ids::to_usize(e) >= ne || ids::to_usize(v) >= nv {
                return Err(IoError::parse(
                    1,
                    format!("incidence ({e},{v}) out of bounds {ne}x{nv}"),
                ));
            }
            let w = match weights.next() {
                Some(w) => f64::from_le_bytes(take_array::<8>(w)?.0),
                None => 1.0,
            };
            f(e, v, w)?;
        }
        done += take;
    }
    Ok(())
}

/// Reads the binary format into a hypergraph, in two passes over the
/// stream (see the module docs).
pub fn read_binary<R: Read + Seek>(mut r: R) -> Result<Hypergraph, IoError> {
    // Decode only: the CSR builds below carry their own spans.
    let decode = nwhy_obs::span("io.decode");
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(IoError::parse(1, "bad magic: not an NWHYBIN1 file"));
    }
    let flags = read_u64(&mut r)?;
    if flags & !FLAG_WEIGHTS != 0 {
        return Err(IoError::parse(1, format!("unknown flags {flags:#x}")));
    }
    let dim = |raw: u64, what: &'static str| -> Result<usize, IoError> {
        usize::try_from(raw).map_err(|_| IoError::parse(1, format!("{what} {raw} overflows usize")))
    };
    let ne = dim(read_u64(&mut r)?, "hyperedge-space size")?;
    let nv = dim(read_u64(&mut r)?, "hypernode-space size")?;
    let nnz = dim(read_u64(&mut r)?, "incidence count")?;
    // Defensive cap: refuse nnz that cannot possibly be honest (> u32
    // pair space) to avoid absurd allocations on corrupt headers.
    if nnz > (1usize << 40) {
        return Err(IoError::parse(1, format!("implausible nnz {nnz}")));
    }
    let weighted = flags & FLAG_WEIGHTS != 0;
    // The payload the header claims must be in the stream before
    // anything is sized by it; trailing bytes are ignored.
    let payload = nnz as u64 * if weighted { 16 } else { 8 };
    let pairs_at = r.stream_position()?;
    if r.seek(SeekFrom::End(0))?.saturating_sub(pairs_at) < payload {
        return Err(IoError::Io(ErrorKind::UnexpectedEof.into()));
    }
    let weights_at = weighted.then_some(pairs_at + nnz as u64 * 8);
    let space = (ne, nv, nnz);

    // Pass 1: `offsets[e + 1]` counts row `e`, then (after the scan)
    // serves as its write cursor, ending at the row's end.
    let mut offsets = vec![0usize; ne + 1];
    for_each_incidence(&mut r, (pairs_at, None), space, |e, _, _| {
        if let Some(count) = offsets.get_mut(ids::to_usize(e) + 1) {
            *count += 1;
        }
        Ok(())
    })?;
    let mut start = 0;
    for cursor in offsets.iter_mut().skip(1) {
        (*cursor, start) = (start, start + *cursor);
    }

    // Pass 2: scatter in file order, the stable order of a counting sort.
    let mut targets: Vec<Id> = vec![0; nnz];
    let mut weights = weighted.then(|| vec![0.0; nnz]);
    let changed = || IoError::parse(1, "file changed between read passes");
    for_each_incidence(&mut r, (pairs_at, weights_at), space, |e, v, w| {
        let cursor = offsets.get_mut(ids::to_usize(e) + 1).ok_or_else(changed)?;
        let at = *cursor;
        *cursor += 1;
        *targets.get_mut(at).ok_or_else(changed)? = v;
        if let Some(ws) = &mut weights {
            *ws.get_mut(at).ok_or_else(changed)? = w;
        }
        Ok(())
    })?;
    // Each cursor ends where the next row starts unless the rows grew or
    // shrank between the passes.
    if !offsets.is_sorted() || offsets.last() != Some(&nnz) {
        return Err(changed());
    }
    // header (magic + flags + 3 dims) + pairs + optional weights
    nwhy_obs::add(Counter::IoBytesRead, 40 + payload);
    nwhy_obs::add(Counter::IoIncidencesRead, nnz as u64);
    drop(decode);
    Ok(Hypergraph::from_scattered_rows(
        nv, offsets, targets, weights,
    ))
}

/// Writes `h` in the binary format; round-trips with [`read_binary`].
pub fn write_binary<W: Write>(mut w: W, h: &Hypergraph) -> Result<(), IoError> {
    let _span = nwhy_obs::span("io.write_binary");
    w.write_all(MAGIC)?;
    let weighted = h.is_weighted();
    let flags: u64 = if weighted { FLAG_WEIGHTS } else { 0 };
    w.write_all(&flags.to_le_bytes())?;
    w.write_all(&(h.num_hyperedges() as u64).to_le_bytes())?;
    w.write_all(&(h.num_hypernodes() as u64).to_le_bytes())?;
    w.write_all(&(h.num_incidences() as u64).to_le_bytes())?;
    for e in 0..ids::from_usize(h.num_hyperedges()) {
        for &v in h.edge_members(e) {
            w.write_all(&e.to_le_bytes())?;
            w.write_all(&v.to_le_bytes())?;
        }
    }
    if weighted {
        for e in 0..ids::from_usize(h.num_hyperedges()) {
            for (_, wgt) in h.edges().weighted_neighbors(e) {
                w.write_all(&wgt.to_le_bytes())?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwhy_core::fixtures::paper_hypergraph;
    use nwhy_core::BiEdgeList;
    use proptest::prelude::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip_unweighted() {
        let h = paper_hypergraph();
        let mut buf = Vec::new();
        write_binary(&mut buf, &h).unwrap();
        let h2 = read_binary(Cursor::new(buf)).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn roundtrip_weighted() {
        let bel = BiEdgeList::from_weighted_incidences(
            2,
            3,
            vec![(0, 0), (0, 2), (1, 1)],
            vec![0.25, -1.5, 7.0],
        );
        let h = Hypergraph::from_biedgelist(&bel);
        let mut buf = Vec::new();
        write_binary(&mut buf, &h).unwrap();
        let h2 = read_binary(Cursor::new(buf)).unwrap();
        assert_eq!(h, h2);
        assert!(h2.is_weighted());
    }

    #[test]
    fn rejects_bad_magic() {
        let e = read_binary(Cursor::new(b"NOTMAGIC\0\0\0\0".to_vec())).unwrap_err();
        assert!(e.to_string().contains("magic"));
    }

    #[test]
    fn rejects_truncated_file() {
        let h = paper_hypergraph();
        let mut buf = Vec::new();
        write_binary(&mut buf, &h).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(read_binary(Cursor::new(buf)).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_incidence() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&0u64.to_le_bytes()); // flags
        buf.extend_from_slice(&1u64.to_le_bytes()); // ne
        buf.extend_from_slice(&1u64.to_le_bytes()); // nv
        buf.extend_from_slice(&1u64.to_le_bytes()); // nnz
        buf.extend_from_slice(&5u32.to_le_bytes()); // e out of range
        buf.extend_from_slice(&0u32.to_le_bytes());
        let e = read_binary(Cursor::new(buf)).unwrap_err();
        assert!(e.to_string().contains("out of bounds"));
    }

    #[test]
    fn rejects_truncated_header() {
        // magic + flags only: the dims are missing
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(read_binary(Cursor::new(buf)).is_err());
        // half a magic
        assert!(read_binary(Cursor::new(b"NWHY".to_vec())).is_err());
    }

    #[test]
    fn lying_nnz_fails_without_huge_allocation() {
        // header claims ~1e9 incidences but the payload is 1 pair; the
        // reader must fail on the missing bytes before sizing anything
        // by the claim.
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&0u64.to_le_bytes()); // flags
        buf.extend_from_slice(&10u64.to_le_bytes()); // ne
        buf.extend_from_slice(&10u64.to_le_bytes()); // nv
        buf.extend_from_slice(&1_000_000_000u64.to_le_bytes()); // nnz (lie)
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        let e = read_binary(Cursor::new(buf)).unwrap_err();
        assert!(matches!(e, IoError::Io(_)), "expected truncation, got {e}");
    }

    #[test]
    fn rejects_truncated_weights_section() {
        let bel = BiEdgeList::from_weighted_incidences(
            2,
            3,
            vec![(0, 0), (0, 2), (1, 1)],
            vec![0.25, -1.5, 7.0],
        );
        let h = Hypergraph::from_biedgelist(&bel);
        let mut buf = Vec::new();
        write_binary(&mut buf, &h).unwrap();
        buf.truncate(buf.len() - 10); // cuts into the weights section
        assert!(read_binary(Cursor::new(buf)).is_err());
    }

    #[test]
    fn rejects_unknown_flags() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&8u64.to_le_bytes()); // unknown flag bit
        buf.extend_from_slice(&[0u8; 24]);
        assert!(read_binary(Cursor::new(buf)).is_err());
    }

    #[test]
    fn every_truncation_errors_never_aborts() {
        // malformed inputs must surface as `Err`, not a process abort:
        // every strict prefix of a valid weighted file is malformed
        let bel = BiEdgeList::from_weighted_incidences(
            2,
            3,
            vec![(0, 0), (0, 2), (1, 1)],
            vec![0.25, -1.5, 7.0],
        );
        let h = Hypergraph::from_biedgelist(&bel);
        let mut buf = Vec::new();
        write_binary(&mut buf, &h).unwrap();
        for len in 0..buf.len() {
            assert!(
                read_binary(Cursor::new(buf[..len].to_vec())).is_err(),
                "prefix of {len} bytes must error"
            );
        }
    }

    #[test]
    fn empty_hypergraph_roundtrip() {
        let h = Hypergraph::from_memberships(&[]);
        let mut buf = Vec::new();
        write_binary(&mut buf, &h).unwrap();
        let h2 = read_binary(Cursor::new(buf)).unwrap();
        assert_eq!(h2.num_hyperedges(), 0);
    }

    /// An NWHYBIN1 file holding `pairs` in the given order, which
    /// `write_binary` (edge-major, rows sorted) cannot produce.
    fn raw_file(ne: usize, nv: usize, pairs: &[(Id, Id)], weights: Option<&[f64]>) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        let flags = if weights.is_some() { FLAG_WEIGHTS } else { 0 };
        for word in [flags, ne as u64, nv as u64, pairs.len() as u64] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        for &(e, v) in pairs {
            buf.extend_from_slice(&e.to_le_bytes());
            buf.extend_from_slice(&v.to_le_bytes());
        }
        for w in weights.unwrap_or_default() {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        buf
    }

    #[test]
    fn trailing_bytes_are_ignored() {
        let mut buf = raw_file(2, 3, &[(1, 2), (0, 1)], None);
        buf.extend_from_slice(b"trailing");
        let want = BiEdgeList::from_incidences(2, 3, vec![(1, 2), (0, 1)]);
        assert_eq!(
            read_binary(Cursor::new(buf)).unwrap(),
            Hypergraph::from_biedgelist(&want)
        );
    }

    proptest! {
        /// The two-pass load equals building the pair list first, for any
        /// pair order (rows out of order, targets unsorted within a row,
        /// duplicate incidences with distinct weights), at any thread
        /// count.
        #[test]
        fn prop_streamed_load_matches_pair_list_build(
            case in (1u32..6, 1u32..9, 0u32..2).prop_flat_map(|(ne, nv, weighted)| {
                let triples = proptest::collection::vec((0..ne, 0..nv, 0u32..1000), 0..60);
                triples.prop_map(move |t| (ne, nv, weighted == 1, t))
            })
        ) {
            let (ne, nv, weighted, triples) = case;
            let (ne, nv) = (ids::to_usize(ne), ids::to_usize(nv));
            let pairs: Vec<(Id, Id)> = triples.iter().map(|&(e, v, _)| (e, v)).collect();
            let ws: Vec<f64> = triples.iter().map(|&(_, _, w)| f64::from(w)).collect();
            let (file, bel) = if weighted {
                let bel = BiEdgeList::from_weighted_incidences(ne, nv, pairs.clone(), ws.clone());
                (raw_file(ne, nv, &pairs, Some(&ws)), bel)
            } else {
                (raw_file(ne, nv, &pairs, None), BiEdgeList::from_incidences(ne, nv, pairs.clone()))
            };
            let want = Hypergraph::from_biedgelist(&bel);
            for threads in [1, 2, 3] {
                let got = nwhy_util::pool::with_threads(threads, || read_binary(Cursor::new(&file)));
                prop_assert_eq!(got.unwrap(), want.clone(), "{} threads", threads);
            }
        }
    }
}
