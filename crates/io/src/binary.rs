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

use crate::error::IoError;
use nwhy_core::{ids, BiEdgeList, Hypergraph};
use nwhy_obs::Counter;
use std::io::{Read, Write};

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

/// Incidence pairs (and weights) are read in bounded chunks of this many
/// entries, so a corrupt header claiming a huge `nnz` fails with a
/// truncation error after at most one chunk of over-allocation instead of
/// reserving `nnz` entries up front.
const READ_CHUNK: usize = 1 << 16;

/// Reads the binary format into a hypergraph.
pub fn read_binary<R: Read>(mut r: R) -> Result<Hypergraph, IoError> {
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
    // Chunked payload read: each chunk's bytes must actually arrive
    // before the next chunk's capacity is reserved, so memory growth is
    // bounded by the real stream length, not by the header's claim.
    let mut incidences = Vec::new();
    let mut buf = vec![0u8; nnz.min(READ_CHUNK) * 8];
    let mut remaining = nnz;
    while remaining > 0 {
        let take = remaining.min(READ_CHUNK);
        // lint: panic: take ≤ buf capacity by construction (buf is sized to nnz.min(READ_CHUNK) * 8)
        let bytes = &mut buf[..take * 8];
        r.read_exact(bytes)?;
        incidences.reserve(take);
        for pair in bytes.chunks_exact(8) {
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
            incidences.push((e, v));
        }
        remaining -= take;
    }
    let weighted = flags & FLAG_WEIGHTS != 0;
    let bel = if weighted {
        let mut weights = Vec::new();
        let mut remaining = nnz;
        while remaining > 0 {
            let take = remaining.min(READ_CHUNK);
            // lint: panic: take ≤ buf capacity by construction (buf is sized to nnz.min(READ_CHUNK) * 8)
            let bytes = &mut buf[..take * 8];
            r.read_exact(bytes)?;
            weights.reserve(take);
            for w in bytes.chunks_exact(8) {
                let (w_bytes, _) = take_array::<8>(w)?;
                weights.push(f64::from_le_bytes(w_bytes));
            }
            remaining -= take;
        }
        BiEdgeList::from_weighted_incidences(ne, nv, incidences, weights)
    } else {
        BiEdgeList::from_incidences(ne, nv, incidences)
    };
    // header (magic + flags + 3 dims) + pairs + optional weights
    let bytes = 40 + nnz as u64 * if weighted { 16 } else { 8 };
    nwhy_obs::add(Counter::IoBytesRead, bytes);
    nwhy_obs::add(Counter::IoIncidencesRead, nnz as u64);
    drop(decode);
    Ok(Hypergraph::from_biedgelist(&bel))
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
        // chunked reader must fail on the missing bytes (first chunk)
        // rather than reserving the full claimed capacity up front.
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
}
