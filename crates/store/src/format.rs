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
//! [`SAMPLE_EVERY`]-th row. The validating walk that opens an image
//! starts its parallel blocks at these entries and checks each against
//! the walk of the block before it; random row access goes through the
//! full in-memory row-offset table that walk builds (see
//! [`crate::compressed`]). The packer encodes the same blocks on the
//! pool and writes the sections straight to its writer. Weights
//! sections, when flagged, are plain `f64` little-endian arrays in
//! row-major incidence order (`nnz` entries each).

use crate::varint;
use crate::StoreError;
use nwgraph::Csr;
use nwhy_core::{ids, Hypergraph};
use nwhy_util::blocked_ranges;
use rayon::prelude::*;
use std::io::{self, Write};
use std::ops::Range;

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

/// Splits `rows` into blocks of whole [`SAMPLE_EVERY`]-row sample groups
/// for the pool: one block on a one-thread pool, else two per thread.
/// The open walk, the resident decode and the packer all cut a side this
/// way, and none of their outcomes depends on the cut.
pub(crate) fn sample_blocks(rows: usize) -> Vec<Range<usize>> {
    let threads = rayon::current_num_threads();
    let blocks = if threads > 1 { 2 * threads } else { 1 };
    blocked_ranges(rows.div_ceil(SAMPLE_EVERY), blocks)
        .into_iter()
        .map(|groups| groups.start * SAMPLE_EVERY..rows.min(groups.end * SAMPLE_EVERY))
        .collect()
}

/// Gap-encodes rows `rows` of `csr`, a block of whole sample groups:
/// the block's payload bytes and, for each sampled row in it, that
/// row's offset from the block's start.
// lint: obs: crate-internal packer covered by the `io.write_packed`
// span in nwhy-io; nwhy-store carries no nwhy-obs dependency
pub(crate) fn encode_block(csr: &Csr, rows: Range<usize>) -> (Vec<u8>, Vec<u64>) {
    let mut samples = Vec::with_capacity(rows.len().div_ceil(SAMPLE_EVERY));
    // every row costs at least its length byte and a byte per member
    let incidences = match csr.offsets().get(rows.start..=rows.end) {
        Some([first, .., last]) => last - first,
        _ => 0,
    };
    let mut payload = Vec::with_capacity(rows.len() + incidences);
    for u in rows {
        if u % SAMPLE_EVERY == 0 {
            samples.push(payload.len() as u64);
        }
        let nbrs = csr.neighbors(ids::from_usize(u));
        varint::encode(nbrs.len() as u64, &mut payload);
        let mut prev: u64 = 0;
        for (i, &v) in nbrs.iter().enumerate() {
            let v = u64::from(v);
            let gap = if i == 0 { v } else { v - prev };
            varint::encode(gap, &mut payload);
            prev = v;
        }
    }
    (payload, samples)
}

/// One CSR's encoded sections: the sampled index, and the payload as
/// the blocks that encoded it, in row order.
struct EncodedCsr {
    index: Vec<u8>,
    payload: Vec<Vec<u8>>,
}

/// Gap-encodes both CSRs, the blocks of both in one pool batch, then
/// shifts each block's samples by the payload bytes before it.
fn encode_csrs(csrs: [&Csr; 2]) -> [EncodedCsr; 2] {
    let cuts = csrs.map(|csr| sample_blocks(csr.num_vertices()));
    let tasks: Vec<(&Csr, Range<usize>)> = csrs
        .iter()
        .zip(&cuts)
        .flat_map(|(&csr, cut)| cut.iter().map(move |rows| (csr, rows.clone())))
        .collect();
    let encoded: Vec<(Vec<u8>, Vec<u64>)> = tasks
        .into_par_iter()
        .map(|(csr, rows)| encode_block(csr, rows))
        .collect();
    let mut encoded = encoded.into_iter();
    cuts.map(|cut| {
        let mut index = Vec::new();
        let mut payload = Vec::with_capacity(cut.len());
        let mut base = 0u64;
        for (bytes, samples) in encoded.by_ref().take(cut.len()) {
            for sample in samples {
                index.extend_from_slice(&(base + sample).to_le_bytes());
            }
            base += bytes.len() as u64;
            payload.push(bytes);
        }
        EncodedCsr { index, payload }
    })
}

/// A hypergraph encoded for writing: the header and the six sections,
/// each held once, in the blocks that encoded it.
struct Image<'h> {
    header: Header,
    csrs: [EncodedCsr; 2],
    weights: [Option<&'h [f64]>; 2],
}

impl<'h> Image<'h> {
    /// Encodes both bi-adjacency CSRs of `h` (the transpose is *not*
    /// recomputed at open time — mutual indexing is part of the format,
    /// so opening is pure decoding); the weights are written straight
    /// from `h`.
    fn encode(h: &'h Hypergraph) -> Image<'h> {
        let csrs = encode_csrs([h.edges(), h.nodes()]);
        let weights = [h.edges().weights(), h.nodes().weights()];
        let ([edges, nodes], [edge_weights, node_weights]) = (&csrs, weights);
        let payload_len = |csr: &EncodedCsr| csr.payload.iter().map(Vec::len).sum::<usize>() as u64;
        let weights_len = |ws: Option<&[f64]>| ws.map_or(0, |ws| 8 * ws.len() as u64);
        let header = Header {
            flags: if h.is_weighted() { FLAG_WEIGHTS } else { 0 },
            n_e: h.num_hyperedges() as u64,
            n_v: h.num_hypernodes() as u64,
            nnz: h.num_incidences() as u64,
            section_lens: [
                edges.index.len() as u64,
                payload_len(edges),
                nodes.index.len() as u64,
                payload_len(nodes),
                weights_len(edge_weights),
                weights_len(node_weights),
            ],
        };
        Image {
            header,
            csrs,
            weights,
        }
    }

    /// The image's size in bytes.
    fn len(&self) -> usize {
        let sections = self.header.section_lens.iter();
        HEADER_LEN
            + sections
                .map(|&len| usize::try_from(len).unwrap_or_default())
                .sum::<usize>()
    }

    /// Writes the header, then each section in file order, straight to
    /// `w`: the image is never assembled in one buffer.
    fn write_to<W: Write>(&self, w: &mut W) -> io::Result<()> {
        w.write_all(&self.header.to_bytes())?;
        for csr in &self.csrs {
            w.write_all(&csr.index)?;
            for block in &csr.payload {
                w.write_all(block)?;
            }
        }
        let mut buf = Vec::new();
        for ws in self.weights.iter().flatten() {
            // `f64` little-endian, a thousand at a time
            for chunk in ws.chunks(1024) {
                buf.clear();
                for x in chunk {
                    buf.extend_from_slice(&x.to_le_bytes());
                }
                w.write_all(&buf)?;
            }
        }
        Ok(())
    }
}

/// Packs a hypergraph into a complete in-memory `NWHYPAK1` image: the
/// bytes [`write_packed`] writes. Weights round-trip when present on
/// both CSRs.
pub fn pack_hypergraph(h: &Hypergraph) -> Vec<u8> {
    let image = Image::encode(h);
    let mut out = Vec::with_capacity(image.len());
    // lint: writing into a `Vec` cannot fail
    image.write_to(&mut out).unwrap_or_default();
    out
}

/// Packs `h` and writes the image to `w`, section by section.
pub fn write_packed<W: Write>(w: &mut W, h: &Hypergraph) -> Result<(), StoreError> {
    Image::encode(h).write_to(w)?;
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
