//! The `NWHYPAK1` on-disk layout: header parsing and the packer.
//!
//! Byte-level layout (everything little-endian; see DESIGN.md §8 for the
//! normative spec):
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"NWHYPAK1"
//!      8     4  version (u32) — currently 1
//!     12     4  flags (u32) — bit 0: weights sections present
//!     16     8  n_e (u64)   — number of hyperedges
//!     24     8  n_v (u64)   — number of hypernodes
//!     32     8  nnz (u64)   — number of incidences
//!     40   6×8  section byte lengths (u64 each), in file order:
//!               edge_index, edge_payload, node_index, node_payload,
//!               edge_weights, node_weights
//!     88     …  the six sections, back to back, same order
//! ```
//!
//! Each of the two CSRs (hyperedge→hypernodes, hypernode→hyperedges)
//! contributes an *index* and a *payload* section. The payload is the
//! concatenation of the rows, each row being `varint(len)` followed by
//! `len` varints: the first neighbor absolute, every later one the gap
//! from its predecessor (non-negative, because neighbor slices are
//! sorted; `0` encodes a duplicate incidence). The index is a sampled
//! offset table: one u64 payload byte offset for every
//! [`SAMPLE_EVERY`]-th row. Readers use it only to cross-check the
//! validating walk that opens an image; random row access goes through
//! the full in-memory row-offset table that walk builds (see
//! [`crate::compressed`]). Weights sections, when flagged, are plain
//! `f64` little-endian arrays in row-major incidence order (`nnz`
//! entries each).

use crate::varint;
use crate::StoreError;
use nwhy_core::Hypergraph;
use std::io::Write;

/// File magic: format name and major revision in one token.
pub const MAGIC: [u8; 8] = *b"NWHYPAK1";

/// Header version this build reads and writes.
pub const VERSION: u32 = 1;

/// Flag bit 0: the two weights sections are present.
pub const FLAG_WEIGHTS: u32 = 1;

/// Row-start sampling interval of the on-disk offset index; 64 keeps the
/// index under 2% of payload size even for degenerate all-empty-row
/// inputs.
pub const SAMPLE_EVERY: usize = 64;

/// Total header size in bytes.
pub const HEADER_LEN: usize = 88;

/// Parsed `NWHYPAK1` header: the counts plus the six section lengths
/// (in file order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Flags word (see [`FLAG_WEIGHTS`]).
    pub flags: u32,
    /// Number of hyperedges.
    pub n_e: u64,
    /// Number of hypernodes.
    pub n_v: u64,
    /// Number of incidences.
    pub nnz: u64,
    /// Byte lengths of the six sections, in file order: edge index,
    /// edge payload, node index, node payload, edge weights, node
    /// weights.
    pub section_lens: [u64; 6],
}

impl Header {
    /// `true` if the weights sections are present.
    pub fn weighted(&self) -> bool {
        self.flags & FLAG_WEIGHTS != 0
    }

    /// Serializes the header into its 88-byte wire form.
    pub fn to_bytes(&self) -> [u8; HEADER_LEN] {
        let mut out = [0u8; HEADER_LEN];
        out[0..8].copy_from_slice(&MAGIC);
        out[8..12].copy_from_slice(&VERSION.to_le_bytes());
        out[12..16].copy_from_slice(&self.flags.to_le_bytes());
        out[16..24].copy_from_slice(&self.n_e.to_le_bytes());
        out[24..32].copy_from_slice(&self.n_v.to_le_bytes());
        out[32..40].copy_from_slice(&self.nnz.to_le_bytes());
        for (i, len) in self.section_lens.iter().enumerate() {
            out[40 + 8 * i..48 + 8 * i].copy_from_slice(&len.to_le_bytes());
        }
        out
    }

    /// Parses and sanity-checks a header from the front of `bytes`.
    ///
    /// Rejects short buffers, wrong magic, unknown versions, and unknown
    /// flag bits; does *not* yet check the section lengths against the
    /// buffer (the caller knows the total size and does that).
    // lint: obs: fixed-size header decode inside the (instrumented)
    // open path; nwhy-store carries no nwhy-obs dependency
    pub fn parse(bytes: &[u8]) -> Result<Header, StoreError> {
        // Report the magic mismatch first, even on a short buffer — "not
        // a pak file" beats "truncated" for a file that was never one.
        if !bytes.starts_with(&MAGIC) {
            let mut found = [0u8; 8];
            for (f, b) in found.iter_mut().zip(bytes) {
                *f = *b;
            }
            return Err(StoreError::BadMagic { found });
        }
        if bytes.len() < HEADER_LEN {
            return Err(StoreError::Truncated {
                what: "NWHYPAK1 header",
                offset: bytes.len(),
            });
        }
        let version = read_u32(bytes, 8);
        if version != VERSION {
            return Err(StoreError::BadVersion { found: version });
        }
        let flags = read_u32(bytes, 12);
        if flags & !FLAG_WEIGHTS != 0 {
            return Err(StoreError::UnknownFlags { flags });
        }
        let mut section_lens = [0u64; 6];
        for (i, len) in section_lens.iter_mut().enumerate() {
            *len = read_u64(bytes, 40 + 8 * i);
        }
        Ok(Header {
            flags,
            n_e: read_u64(bytes, 16),
            n_v: read_u64(bytes, 24),
            nnz: read_u64(bytes, 32),
            section_lens,
        })
    }
}

/// Reads a little-endian `u32` at `pos` (0 past the end; [`Header::parse`]
/// checks the header length first).
fn read_u32(bytes: &[u8], pos: usize) -> u32 {
    bytes
        .get(pos..pos + 4)
        .and_then(|b| b.try_into().ok())
        .map_or(0, u32::from_le_bytes)
}

/// Reads a little-endian `u64` at `pos`, as [`read_u32`].
fn read_u64(bytes: &[u8], pos: usize) -> u64 {
    bytes
        .get(pos..pos + 8)
        .and_then(|b| b.try_into().ok())
        .map_or(0, u64::from_le_bytes)
}

/// Gap-encodes one CSR into `(index, payload)` byte sections: the
/// payload is the concatenated varint rows, the index a sampled
/// row-start offset table (offsets relative to this CSR's payload
/// start).
// lint: obs: crate-internal packer covered by the `io.write_packed`
// span in nwhy-io; nwhy-store carries no nwhy-obs dependency
pub(crate) fn pack_csr(csr: &nwgraph::Csr) -> (Vec<u8>, Vec<u8>) {
    let mut index = Vec::new();
    let mut payload = Vec::new();
    for u in 0..csr.num_vertices() {
        if u % SAMPLE_EVERY == 0 {
            index.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        }
        let nbrs = csr.neighbors(nwhy_core::ids::from_usize(u));
        varint::encode(nbrs.len() as u64, &mut payload);
        let mut prev: u64 = 0;
        for (i, &v) in nbrs.iter().enumerate() {
            let v = u64::from(v);
            let gap = if i == 0 { v } else { v - prev };
            varint::encode(gap, &mut payload);
            prev = v;
        }
    }
    (index, payload)
}

/// Serializes the weights of one CSR (must be weighted) as `f64` LE.
fn pack_weights(ws: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ws.len() * 8);
    for w in ws {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Packs a hypergraph into a complete in-memory `NWHYPAK1` image.
///
/// Both bi-adjacency CSRs are encoded (the transpose is *not* recomputed
/// at open time — mutual indexing is part of the format, so opening is
/// pure decoding). Weights round-trip when present on both CSRs.
pub fn pack_hypergraph(h: &Hypergraph) -> Vec<u8> {
    let (edge_index, edge_payload) = pack_csr(h.edges());
    let (node_index, node_payload) = pack_csr(h.nodes());
    let weighted = h.is_weighted();
    let edge_weights = h.edges().weights().map(pack_weights).unwrap_or_default();
    let node_weights = h.nodes().weights().map(pack_weights).unwrap_or_default();

    let header = Header {
        flags: if weighted { FLAG_WEIGHTS } else { 0 },
        n_e: h.num_hyperedges() as u64,
        n_v: h.num_hypernodes() as u64,
        nnz: h.num_incidences() as u64,
        section_lens: [
            edge_index.len() as u64,
            edge_payload.len() as u64,
            node_index.len() as u64,
            node_payload.len() as u64,
            edge_weights.len() as u64,
            node_weights.len() as u64,
        ],
    };

    let total = HEADER_LEN
        + edge_index.len()
        + edge_payload.len()
        + node_index.len()
        + node_payload.len()
        + edge_weights.len()
        + node_weights.len();
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&header.to_bytes());
    out.extend_from_slice(&edge_index);
    out.extend_from_slice(&edge_payload);
    out.extend_from_slice(&node_index);
    out.extend_from_slice(&node_payload);
    out.extend_from_slice(&edge_weights);
    out.extend_from_slice(&node_weights);
    out
}

/// Packs `h` and writes the image to `w`.
pub fn write_packed<W: Write>(w: &mut W, h: &Hypergraph) -> Result<(), StoreError> {
    w.write_all(&pack_hypergraph(h))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwhy_core::fixtures::paper_hypergraph;

    #[test]
    fn header_roundtrip() {
        let h = Header {
            flags: FLAG_WEIGHTS,
            n_e: 4,
            n_v: 9,
            nnz: 18,
            section_lens: [8, 30, 16, 40, 144, 144],
        };
        let bytes = h.to_bytes();
        assert_eq!(Header::parse(&bytes).unwrap(), h);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = Header {
            flags: 0,
            n_e: 0,
            n_v: 0,
            nnz: 0,
            section_lens: [0; 6],
        }
        .to_bytes();
        bytes[0] = b'X';
        assert!(matches!(
            Header::parse(&bytes),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn rejects_unknown_version_and_flags() {
        let good = Header {
            flags: 0,
            n_e: 1,
            n_v: 1,
            nnz: 1,
            section_lens: [8, 2, 8, 2, 0, 0],
        };
        let mut v = good.to_bytes();
        v[8] = 9;
        assert!(matches!(
            Header::parse(&v),
            Err(StoreError::BadVersion { found: 9 })
        ));
        let mut f = good.to_bytes();
        f[12] = 0xfe;
        assert!(matches!(
            Header::parse(&f),
            Err(StoreError::UnknownFlags { .. })
        ));
    }

    #[test]
    fn rejects_truncated_header() {
        let bytes = Header {
            flags: 0,
            n_e: 0,
            n_v: 0,
            nnz: 0,
            section_lens: [0; 6],
        }
        .to_bytes();
        assert!(matches!(
            Header::parse(&bytes[..40]),
            Err(StoreError::Truncated { .. })
        ));
        // shorter than the magic itself → "not a pak file"
        assert!(matches!(
            Header::parse(&bytes[..4]),
            Err(StoreError::BadMagic { .. })
        ));
    }

    #[test]
    fn packed_image_is_smaller_than_raw_pairs() {
        let h = paper_hypergraph();
        let img = pack_hypergraph(&h);
        // NWHYBIN1 stores 8 bytes per incidence (two u32s) plus a header;
        // the paper fixture's IDs are tiny, so gaps are single bytes.
        assert!(img.len() < HEADER_LEN + 8 * h.num_incidences() + 40);
    }
}
