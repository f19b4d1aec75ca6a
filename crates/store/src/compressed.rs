//! [`CompressedHypergraph`] — the `NWHYPAK1` image served through
//! [`HyperAdjacency`], so every s-line kernel, BFS/CC, and s-metric in
//! the workspace runs on the packed form unchanged.
//!
//! The image stays in its [`Storage`] (mmap or owned buffer). Opening it
//! makes one fully checked O(bytes) walk over every row of both packed
//! CSRs: every varint must decode in bounds, every gap sum must stay in
//! the target ID space, every sampled index entry must agree with the
//! walk, and the row lengths must sum to `nnz`. The walk runs on the
//! pool in blocks of whole sample groups, each starting at its stored
//! sampled offset; a merge in block order checks that each block starts
//! where the one before it ended, so the outcome does not depend on the
//! thread count (see `walk_rows`). The walk records each row's start
//! in an in-memory row-offset table (8 bytes per row), so random row
//! access is one table lookup plus decoding that row into a small owned
//! `Vec<Id>`. Degree queries read only the row's length varint. An image
//! that opens is codec-valid by construction, so no query after open can
//! fail: a corrupt image is a typed error at open, never a panic inside
//! a kernel.
//!
//! A query that reads one [`Side`] over and over can decode it once
//! with [`CompressedHypergraph::materialize`]: the side's rows become a
//! resident CSR (offsets and targets, no weights; 4·nnz + 8·(rows + 1)
//! bytes), decoded on the pool straight into its final arrays and
//! borrowed from memory from then on, while the other side keeps
//! decoding per row from the image.

use crate::format::{sample_blocks, Header, HEADER_LEN, SAMPLE_EVERY};
use crate::storage::{Backend, Storage};
use crate::varint;
use crate::StoreError;
use nwgraph::Csr;
use nwhy_core::validate::{InvariantViolation, Validate};
use nwhy_core::{ids, HyperAdjacency, Hypergraph, Id};
use nwhy_util::exclusive_prefix_sum_in_place;
use rayon::prelude::*;
use std::borrow::Cow;
use std::ops::Range;
use std::path::Path;

/// One packed CSR inside the image: section ranges (absolute byte
/// offsets into the storage), its target ID space, and the row-offset
/// table the open walk built.
#[derive(Debug, Clone)]
struct PackedCsr {
    num_targets: usize,
    index: Range<usize>,
    payload: Range<usize>,
    weights: Option<Range<usize>>,
    /// Payload-relative start of every row, then the payload length
    /// (`rows + 1` entries): row `r` is `starts[r]..starts[r + 1]`.
    starts: Vec<usize>,
    /// Every row decoded once, after [`CompressedHypergraph::materialize`]
    /// (boxed so that an image without one stays small).
    resident: Option<Box<Csr>>,
}

impl PackedCsr {
    fn rows(&self) -> usize {
        self.starts.len().saturating_sub(1)
    }

    /// The encoded bytes of row `r` (`varint(len)` then the gaps): one
    /// table lookup. Rows past the end read as empty.
    fn row<'a>(&self, bytes: &'a [u8], r: usize) -> &'a [u8] {
        let payload = bytes.get(self.payload.clone()).unwrap_or_default();
        match self.starts.get(r..) {
            Some(&[start, end, ..]) => payload.get(start..end).unwrap_or_default(),
            _ => &[],
        }
    }

    /// The members of row `r`: borrowed from the resident CSR when there
    /// is one, else decoded from the image. Rows past the end read as
    /// empty.
    fn neighbors<'a>(&'a self, bytes: &'a [u8], r: usize) -> Cow<'a, [Id]> {
        match &self.resident {
            Some(csr) => Cow::Borrowed(match csr.offsets().get(r..) {
                Some(&[start, end, ..]) => csr.targets().get(start..end).unwrap_or_default(),
                _ => &[],
            }),
            None => {
                let mut out = Vec::new();
                decode_row(self.row(bytes, r), &mut out);
                Cow::Owned(out)
            }
        }
    }

    /// The length of row `r`: two resident offsets, or the row's length
    /// varint. Rows past the end have length 0.
    fn len(&self, bytes: &[u8], r: usize) -> usize {
        match &self.resident {
            Some(csr) => match csr.offsets().get(r..) {
                Some(&[start, end, ..]) => end - start,
                _ => 0,
            },
            None => row_len(self.row(bytes, r)),
        }
    }

    /// Decodes every row into CSR offsets and targets on the pool: the
    /// row lengths block by block, one prefix sum, then each block
    /// decodes straight into its own slice of `targets`.
    fn decode(&self, bytes: &[u8]) -> (Vec<usize>, Vec<Id>) {
        let cut = sample_blocks(self.rows());
        // `offsets[r]` holds row `r`'s length, then (after the scan) its start
        let mut offsets = vec![0usize; self.rows() + 1];
        let mut tasks = Vec::with_capacity(cut.len());
        let mut rest = offsets.as_mut_slice();
        for rows in &cut {
            let (lens, tail) = rest.split_at_mut(rows.len());
            rest = tail;
            tasks.push((rows.clone(), lens));
        }
        tasks.into_par_iter().for_each(|(rows, lens)| {
            for (r, len) in rows.zip(lens) {
                *len = row_len(self.row(bytes, r));
            }
        });
        let nnz = exclusive_prefix_sum_in_place(&mut offsets);

        let mut targets: Vec<Id> = vec![0; nnz];
        let mut tasks = Vec::with_capacity(cut.len());
        let mut rest = targets.as_mut_slice();
        for rows in cut {
            let members = match offsets.get(rows.start..=rows.end) {
                Some(&[start, .., end]) => end - start,
                _ => 0,
            };
            let (out, tail) = rest.split_at_mut(members);
            rest = tail;
            tasks.push((rows, out));
        }
        tasks.into_par_iter().for_each(|(rows, out)| {
            let (mut row, mut at) = (Vec::new(), 0);
            for r in rows {
                decode_row(self.row(bytes, r), &mut row);
                if let Some(dst) = out.get_mut(at..at + row.len()) {
                    dst.copy_from_slice(&row);
                }
                at += row.len();
            }
        });
        (offsets, targets)
    }
}

/// One packed CSR's index and payload bytes, sized against its header
/// counts, as the open walk reads them.
struct Layout<'a> {
    index: &'a [u8],
    payload: &'a [u8],
    rows: usize,
    num_targets: usize,
}

impl<'a> Layout<'a> {
    /// Checks the index section's length and borrows both sections.
    fn new(
        bytes: &'a [u8],
        rows: usize,
        num_targets: usize,
        index: &Range<usize>,
        payload: &Range<usize>,
    ) -> Result<Layout<'a>, StoreError> {
        if index.len() != rows.div_ceil(SAMPLE_EVERY) * 8 {
            return Err(StoreError::Corrupt {
                what: "index section length != 8 × ceil(rows / 64)",
                offset: index.start,
            });
        }
        let (Some(index), Some(payload)) = (bytes.get(index.clone()), bytes.get(payload.clone()))
        else {
            return Err(StoreError::Truncated {
                what: "section payload",
                offset: bytes.len(),
            });
        };
        Ok(Layout {
            index,
            payload,
            rows,
            num_targets,
        })
    }

    /// The stored payload offset of the first row of sample group `g`.
    fn sample(&self, g: usize) -> Option<usize> {
        let entry = self.index.get(g * 8..g * 8 + 8)?;
        let stored = u64::from_le_bytes(entry.try_into().ok()?);
        usize::try_from(stored).ok()
    }

    /// Walks rows `rows` from payload offset `pos` with the full per-row
    /// checks ([`check_row`]), writing each row's start into `starts`
    /// and checking every sample after the block's first against the
    /// walk. The rows may claim at most `budget` incidences. Returns the
    /// offset the block ends at and its rows' total length.
    // lint: obs: per-row validation loop inside the (instrumented) open
    // path; nwhy-store carries no nwhy-obs dependency, callers instrument
    // opens via the `io.open_packed` span in nwhy-io
    fn walk_block(
        &self,
        rows: Range<usize>,
        mut pos: usize,
        budget: usize,
        starts: &mut [usize],
    ) -> Result<(usize, usize), StoreError> {
        let first = rows.start;
        let mut total = 0usize;
        for (r, start) in rows.zip(starts) {
            if r % SAMPLE_EVERY == 0 && r > first && self.sample(r / SAMPLE_EVERY) != Some(pos) {
                return Err(index_disagrees(r));
            }
            *start = pos;
            total += check_row(self.payload, &mut pos, budget - total, self.num_targets)?;
        }
        Ok((pos, total))
    }
}

/// The error for a sampled index entry (that of row `r`) the walk
/// disagrees with.
fn index_disagrees(r: usize) -> StoreError {
    StoreError::Corrupt {
        what: "sampled index disagrees with payload walk",
        offset: (r / SAMPLE_EVERY) * 8,
    }
}

/// The open walk over packed CSRs: decodes every row with full checks,
/// cross-checks every sampled index entry, rejects trailing bytes, and
/// requires each side's row lengths to sum to `nnz`. Returns each side's
/// row-offset table (`rows + 1` payload-relative offsets).
///
/// Each side is cut into blocks of whole sample groups
/// ([`sample_blocks`]), and the blocks of all sides run in one pool
/// batch: a block starts at its stored sampled offset, once that offset
/// lies within the payload, and fills its own chunk of the table. Then,
/// side by side and in block order, each block must start where the one
/// before it ended (the first at 0), else the index disagrees with the
/// walk. A block that failed, or whose rows claim more incidences than
/// are left, is walked again from that proven start with the exact
/// budget, which meets the error a front-to-back walk meets first. So
/// the outcome — the tables, or the error of the lowest failing block —
/// does not depend on the thread count.
// lint: obs: block merge of the (instrumented) open path; nwhy-store
// carries no nwhy-obs dependency, callers carry the `io.open_packed` span
fn walk_rows(sides: &[Layout<'_>], nnz: usize) -> Result<Vec<Vec<usize>>, StoreError> {
    // Every row costs at least its length byte, so a walk cannot pass
    // row `payload.len()`: walking no further keeps a header that claims
    // too many rows from reserving an outsized table.
    let mut tables: Vec<Vec<usize>> = sides
        .iter()
        .map(|side| vec![0; side.rows.min(side.payload.len() + 1) + 1])
        .collect();
    let cuts: Vec<Vec<Range<usize>>> = tables
        .iter()
        .map(|table| sample_blocks(table.len() - 1))
        .collect();
    let mut tasks = Vec::new();
    for ((side, table), cut) in sides.iter().zip(&mut tables).zip(&cuts) {
        let mut rest = table.as_mut_slice();
        for rows in cut {
            let (chunk, tail) = rest.split_at_mut(rows.len());
            rest = tail;
            tasks.push((side, rows.clone(), chunk));
        }
    }
    let walked: Vec<Result<(usize, usize), StoreError>> = tasks
        .into_par_iter()
        .map(
            |(side, rows, chunk)| match side.sample(rows.start / SAMPLE_EVERY) {
                Some(pos) if pos <= side.payload.len() => side.walk_block(rows, pos, nnz, chunk),
                _ => Err(index_disagrees(rows.start)),
            },
        )
        .collect();

    let mut walked = walked.into_iter();
    for ((side, table), cut) in sides.iter().zip(&mut tables).zip(&cuts) {
        let (mut pos, mut total) = (0usize, 0usize);
        for (rows, result) in cut.iter().zip(walked.by_ref()) {
            if side.sample(rows.start / SAMPLE_EVERY) != Some(pos) {
                return Err(index_disagrees(rows.start));
            }
            let budget = nnz - total;
            let (end, len) = match result {
                Ok((end, len)) if len <= budget => (end, len),
                _ => {
                    let chunk = table.get_mut(rows.clone()).unwrap_or_default();
                    side.walk_block(rows.clone(), pos, budget, chunk)?
                }
            };
            pos = end;
            total += len;
        }
        if pos != side.payload.len() {
            return Err(StoreError::Corrupt {
                what: "trailing bytes after last row",
                offset: pos,
            });
        }
        if total != nnz {
            return Err(StoreError::Corrupt {
                what: "row lengths do not sum to nnz",
                offset: pos,
            });
        }
        if let Some(last) = table.last_mut() {
            *last = pos;
        }
    }
    Ok(tables)
}

/// Checks one `varint(len) + gaps` row at `payload[*pos..]`, advancing
/// `*pos` past it, and returns its length. The length must not exceed
/// `max_len` (the incidences not yet claimed by earlier rows), and every
/// reconstructed value must fall inside `num_targets`.
// lint: obs: per-gap validation loop of the open walk; see `walk_rows`
fn check_row(
    payload: &[u8],
    pos: &mut usize,
    max_len: usize,
    num_targets: usize,
) -> Result<usize, StoreError> {
    let len = varint::decode(payload, pos)?;
    let len = usize::try_from(len)
        .ok()
        .filter(|&l| l <= max_len)
        .ok_or(StoreError::Corrupt {
            what: "row length exceeds incidence count",
            offset: *pos,
        })?;
    let mut value: u64 = 0;
    for _ in 0..len {
        // the first gap is absolute: 0 + gap
        let gap = varint::decode(payload, pos)?;
        value = value.checked_add(gap).ok_or(StoreError::Corrupt {
            what: "gap sum overflow",
            offset: *pos,
        })?;
        if value >= num_targets as u64 {
            return Err(StoreError::Corrupt {
                what: "gap sum out of target bounds",
                offset: *pos,
            });
        }
    }
    Ok(len)
}

/// Decodes one row that the open walk has validated into `out`
/// (cleared first). Infallible: decoding runs to the end of the row's
/// byte range, and every value is already known to fit the ID space.
// lint: obs: per-gap decode loop under every row query — a span here
// would dominate the work; the kernels calling it carry the spans
fn decode_row(row: &[u8], out: &mut Vec<Id>) {
    let mut pos = 0usize;
    let len = varint::decode_validated(row, &mut pos);
    out.clear();
    out.reserve(usize::try_from(len).unwrap_or_default());
    let mut value: u64 = 0;
    while pos < row.len() {
        value = value.wrapping_add(varint::decode_validated(row, &mut pos));
        // lint: the open walk proved value < num_targets ≤ 2^32
        #[allow(clippy::cast_possible_truncation)]
        out.push(value as Id);
    }
}

/// Length of a validated row — reads only its length varint.
fn row_len(row: &[u8]) -> usize {
    usize::try_from(varint::decode_validated(row, &mut 0)).unwrap_or_default()
}

/// Per-section byte sizes of an opened image — the raw material of the
/// `nwhy-cli info` subcommand and the storage benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageStats {
    /// Total image size in bytes (header + all sections).
    pub total_bytes: usize,
    /// Bytes of the two sampled-offset index sections.
    pub index_bytes: usize,
    /// Bytes of the two gap-coded payload sections.
    pub payload_bytes: usize,
    /// Bytes of the two weights sections (0 when unweighted).
    pub weights_bytes: usize,
    /// Number of incidences.
    pub nnz: usize,
}

impl StorageStats {
    /// Compressed bytes per incidence, counting both CSR directions
    /// (the `NWHYBIN1` yardstick stores 8 bytes per incidence once, so
    /// compare against `8.0`).
    pub fn bytes_per_incidence(&self) -> f64 {
        if self.nnz == 0 {
            return 0.0;
        }
        self.total_bytes as f64 / self.nnz as f64
    }
}

/// One side of the bi-adjacency, as stored in the image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The hyperedge rows (members of each hyperedge).
    Edges,
    /// The hypernode rows (hyperedges incident to each hypernode).
    Nodes,
}

/// A hypergraph served from a packed `NWHYPAK1` image without
/// decompression: both bi-adjacency directions decode per row, on
/// demand, straight out of the (possibly memory-mapped) byte image,
/// unless [`CompressedHypergraph::materialize`] has made a side resident.
#[derive(Debug)]
pub struct CompressedHypergraph {
    bytes: Storage,
    n_e: usize,
    n_v: usize,
    nnz: usize,
    edges: PackedCsr,
    nodes: PackedCsr,
}

impl CompressedHypergraph {
    /// Opens a `NWHYPAK1` file with the chosen [`Backend`].
    pub fn open(path: &Path, backend: Backend) -> Result<Self, StoreError> {
        Self::from_storage(Storage::open(path, backend)?)
    }

    /// Interprets an in-memory image (e.g. straight from
    /// [`crate::pack_hypergraph`]) as a compressed hypergraph.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Self, StoreError> {
        Self::from_storage(Storage::Owned(bytes))
    }

    /// Parses the header, checks the section bounds against the image
    /// size, and makes the validating open walk over both packed CSRs
    /// (see `walk_rows`). Any codec violation is an error here.
    // lint: obs: nwhy-store deliberately has no nwhy-obs dependency (it is the
    // zero-copy leaf crate under the unsafe-island lint wall); callers
    // instrument opens via the `io.open_packed` span in nwhy-io
    pub fn from_storage(bytes: Storage) -> Result<Self, StoreError> {
        let header = Header::parse(&bytes)?;
        let n_e = row_count(header.n_e, "n_e", 16)?;
        let n_v = row_count(header.n_v, "n_v", 24)?;
        let nnz = count(header.nnz, "nnz")?;

        let mut sections: [Range<usize>; 6] = Default::default();
        let mut end = HEADER_LEN;
        for (i, (section, &len)) in sections.iter_mut().zip(&header.section_lens).enumerate() {
            let start = end;
            end = start
                .checked_add(count(len, "section length")?)
                .ok_or(StoreError::Corrupt {
                    what: "section lengths overflow",
                    offset: 40 + 8 * i,
                })?;
            *section = start..end;
        }
        if end != bytes.len() {
            return Err(if end > bytes.len() {
                StoreError::Truncated {
                    what: "section payload",
                    offset: bytes.len(),
                }
            } else {
                StoreError::Corrupt {
                    what: "trailing bytes after last section",
                    offset: end,
                }
            });
        }
        let [edge_index, edge_payload, node_index, node_payload, edge_weights, node_weights] =
            sections;

        let weighted = header.weighted();
        let expect_weights = if weighted { nnz.saturating_mul(8) } else { 0 };
        for section in [&edge_weights, &node_weights] {
            if section.len() != expect_weights {
                return Err(StoreError::Corrupt {
                    what: if weighted {
                        "weights section length != 8 × nnz"
                    } else {
                        "weights section present without flag"
                    },
                    offset: section.start,
                });
            }
        }

        let mut tables = walk_rows(
            &[
                Layout::new(&bytes, n_e, n_v, &edge_index, &edge_payload)?,
                Layout::new(&bytes, n_v, n_e, &node_index, &node_payload)?,
            ],
            nnz,
        )?
        .into_iter();
        let mut packed = |num_targets, index, payload, weights: Range<usize>| PackedCsr {
            num_targets,
            index,
            payload,
            weights: weighted.then_some(weights),
            starts: tables.next().unwrap_or_default(),
            resident: None,
        };
        let edges = packed(n_v, edge_index, edge_payload, edge_weights);
        let nodes = packed(n_e, node_index, node_payload, node_weights);

        Ok(CompressedHypergraph {
            bytes,
            n_e,
            n_v,
            nnz,
            edges,
            nodes,
        })
    }

    /// Number of hyperedges.
    pub fn num_hyperedges(&self) -> usize {
        self.n_e
    }

    /// Number of hypernodes.
    pub fn num_hypernodes(&self) -> usize {
        self.n_v
    }

    /// Number of incidences.
    pub fn num_incidences(&self) -> usize {
        self.nnz
    }

    /// `true` when the image carries per-incidence weights.
    pub fn is_weighted(&self) -> bool {
        self.edges.weights.is_some()
    }

    /// `true` when served by the mmap backend.
    pub fn is_mapped(&self) -> bool {
        self.bytes.is_mapped()
    }

    /// Section-level size accounting.
    pub fn stats(&self) -> StorageStats {
        StorageStats {
            total_bytes: self.bytes.len(),
            index_bytes: self.edges.index.len() + self.nodes.index.len(),
            payload_bytes: self.edges.payload.len() + self.nodes.payload.len(),
            weights_bytes: self.edges.weights.as_ref().map_or(0, Range::len)
                + self.nodes.weights.as_ref().map_or(0, Range::len),
            nnz: self.nnz,
        }
    }

    /// Decodes every row of `side` once and keeps them resident, so
    /// later row and degree queries on that side read memory instead of
    /// the image. Costs 4·nnz + 8·(rows + 1) bytes; weights stay in the
    /// image. A no-op when the side is already resident.
    // lint: obs: nwhy-store has no nwhy-obs dependency; the CLI opens the
    // `build.resident` span around this call
    pub fn materialize(&mut self, side: Side) {
        let packed = match side {
            Side::Edges => &mut self.edges,
            Side::Nodes => &mut self.nodes,
        };
        if packed.resident.is_none() {
            let (offsets, targets) = packed.decode(&self.bytes);
            packed.resident = Some(Box::new(Csr::from_raw_parts(
                packed.num_targets,
                offsets,
                targets,
                None,
            )));
        }
    }

    /// Decodes the member hypernodes of hyperedge `e` (empty when `e` is
    /// out of range).
    pub fn edge_row(&self, e: Id) -> Vec<Id> {
        self.edges
            .neighbors(&self.bytes, ids::to_usize(e))
            .into_owned()
    }

    /// Decodes the incident hyperedges of hypernode `v`, as
    /// [`CompressedHypergraph::edge_row`].
    pub fn node_row(&self, v: Id) -> Vec<Id> {
        self.nodes
            .neighbors(&self.bytes, ids::to_usize(v))
            .into_owned()
    }

    /// Size of hyperedge `e` — reads only the length varint (or the
    /// resident offsets).
    pub fn edge_row_len(&self, e: Id) -> usize {
        self.edges.len(&self.bytes, ids::to_usize(e))
    }

    /// Degree of hypernode `v`, as [`CompressedHypergraph::edge_row_len`].
    pub fn node_row_len(&self, v: Id) -> usize {
        self.nodes.len(&self.bytes, ids::to_usize(v))
    }

    /// Streams every hyperedge row front to back, reusing one decode
    /// buffer. The visitor gets `(hyperedge, members)`.
    // lint: obs: row loop under the scan visitors, whose callers carry
    // the spans; nwhy-store has no nwhy-obs dependency
    pub fn scan_edges(&self, mut f: impl FnMut(Id, &[Id])) {
        let mut row = Vec::new();
        for e in 0..self.edges.rows() {
            decode_row(self.edges.row(&self.bytes, e), &mut row);
            f(ids::from_usize(e), &row);
        }
    }

    /// Fully decompresses back into an in-memory [`Hypergraph`]
    /// (including weights when present) — the exact inverse of
    /// [`crate::pack_hypergraph`].
    pub fn to_hypergraph(&self) -> Hypergraph {
        Hypergraph::from_raw_parts(self.unpack_csr(&self.edges), self.unpack_csr(&self.nodes))
    }

    /// Decodes one packed CSR, weights included, into a [`Csr`].
    fn unpack_csr(&self, packed: &PackedCsr) -> Csr {
        let (offsets, targets) = packed.decode(&self.bytes);
        let weights = packed.weights.as_ref().map(|range| {
            let ws = self.bytes.get(range.clone()).unwrap_or_default();
            ws.chunks_exact(8)
                .map(|w| <[u8; 8]>::try_from(w).map_or(0.0, f64::from_le_bytes))
                .collect()
        });
        Csr::from_raw_parts(packed.num_targets, offsets, targets, weights)
    }
}

/// Converts a 64-bit header count to `usize`.
fn count(value: u64, what: &'static str) -> Result<usize, StoreError> {
    usize::try_from(value).map_err(|_| StoreError::CountOverflow { what, value })
}

/// Converts a header row count (at header byte `offset`) to `usize`,
/// requiring every row — and so every neighbor value, which names a row
/// of the other direction — to fit the 32-bit [`Id`] space.
fn row_count(value: u64, what: &'static str, offset: usize) -> Result<usize, StoreError> {
    if value > u64::from(Id::MAX) + 1 {
        return Err(StoreError::Corrupt {
            what: "row count exceeds the 32-bit ID space",
            offset,
        });
    }
    count(value, what)
}

impl HyperAdjacency for CompressedHypergraph {
    type Neighbors<'a>
        = Cow<'a, [Id]>
    where
        Self: 'a;

    #[inline]
    fn num_hyperedges(&self) -> usize {
        self.n_e
    }
    #[inline]
    fn num_hypernodes(&self) -> usize {
        self.n_v
    }
    /// Borrows the row from a resident side; decodes it otherwise.
    fn edge_neighbors(&self, e: Id) -> Cow<'_, [Id]> {
        self.edges.neighbors(&self.bytes, ids::to_usize(e))
    }
    /// See [`HyperAdjacency::edge_neighbors`] on this impl.
    fn node_neighbors(&self, v: Id) -> Cow<'_, [Id]> {
        self.nodes.neighbors(&self.bytes, ids::to_usize(v))
    }
    /// Resident offsets or the length varint: no row decode.
    fn edge_degree(&self, e: Id) -> usize {
        self.edge_row_len(e)
    }
    /// Resident offsets or the length varint: no row decode.
    fn node_degree(&self, v: Id) -> usize {
        self.node_row_len(v)
    }
}

impl Validate for CompressedHypergraph {
    /// The codec invariants (every varint in bounds, the sampled index
    /// agreeing with the payload walk, row lengths summing to `nnz`, gap
    /// sums inside the target ID space) hold for every image that
    /// opened, so this checks the decompressed structure against every
    /// [`Hypergraph`] invariant: monotone offsets, sorted rows, and
    /// mutual transposes — which is the typed-ID round trip: every raw
    /// word in a node row names a hyperedge row and vice versa.
    fn validate(&self) -> Result<(), InvariantViolation> {
        self.to_hypergraph().validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack_hypergraph;
    use nwhy_core::fixtures::{multi_block_hypergraph, paper_hypergraph};

    fn packed_fixture() -> CompressedHypergraph {
        CompressedHypergraph::from_bytes(pack_hypergraph(&paper_hypergraph())).unwrap()
    }

    #[test]
    fn shape_matches_source() {
        let h = paper_hypergraph();
        let c = packed_fixture();
        assert_eq!(c.num_hyperedges(), h.num_hyperedges());
        assert_eq!(c.num_hypernodes(), h.num_hypernodes());
        assert_eq!(c.num_incidences(), h.num_incidences());
        assert!(!c.is_weighted());
        assert!(!c.is_mapped());
    }

    #[test]
    fn rows_match_source() {
        let h = paper_hypergraph();
        let c = packed_fixture();
        for e in 0..ids::from_usize(h.num_hyperedges()) {
            assert_eq!(c.edge_row(e), h.edge_members(e), "edge {e}");
            assert_eq!(c.edge_row_len(e), h.edge_degree(e));
        }
        for v in 0..ids::from_usize(h.num_hypernodes()) {
            assert_eq!(c.node_row(v), h.node_memberships(v), "node {v}");
            assert_eq!(c.node_row_len(v), h.node_degree(v));
        }
    }

    /// Random access across sampled-index block boundaries: every row,
    /// visited last to first so no row's lookup can lean on the one
    /// before it, including rows 63/64/65 and the last row.
    #[test]
    fn rows_match_source_across_index_blocks_in_reverse() {
        let h = multi_block_hypergraph();
        let c = CompressedHypergraph::from_bytes(pack_hypergraph(&h)).unwrap();
        assert!(h.num_hyperedges().min(h.num_hypernodes()) > 2 * SAMPLE_EVERY);
        let (n_e, n_v) = (
            ids::from_usize(h.num_hyperedges()),
            ids::from_usize(h.num_hypernodes()),
        );
        for e in (0..n_e).rev() {
            assert_eq!(c.edge_row(e), h.edge_members(e), "edge {e}");
            assert_eq!(c.edge_row_len(e), h.edge_degree(e), "edge {e}");
        }
        for v in (0..n_v).rev() {
            assert_eq!(c.node_row(v), h.node_memberships(v), "node {v}");
            assert_eq!(c.node_row_len(v), h.node_degree(v), "node {v}");
        }
        assert!(c.edge_row(n_e).is_empty() && c.node_row_len(n_v) == 0);
    }

    /// A resident side serves the same rows and degrees as the packed
    /// one, for every row visited last to first, and reads rows past
    /// the end as empty.
    #[test]
    fn resident_rows_match_packed_rows_in_reverse() {
        let h = multi_block_hypergraph();
        let packed = CompressedHypergraph::from_bytes(pack_hypergraph(&h)).unwrap();
        let mut c = CompressedHypergraph::from_bytes(pack_hypergraph(&h)).unwrap();
        c.materialize(Side::Edges);
        c.materialize(Side::Nodes);
        let (n_e, n_v) = (
            ids::from_usize(h.num_hyperedges()),
            ids::from_usize(h.num_hypernodes()),
        );
        for e in (0..=n_e).rev() {
            assert!(matches!(c.edge_neighbors(e), Cow::Borrowed(_)), "edge {e}");
            assert_eq!(c.edge_neighbors(e), packed.edge_neighbors(e), "edge {e}");
            assert_eq!(c.edge_degree(e), packed.edge_degree(e), "edge {e}");
        }
        for v in (0..=n_v).rev() {
            assert!(matches!(c.node_neighbors(v), Cow::Borrowed(_)), "node {v}");
            assert_eq!(c.node_neighbors(v), packed.node_neighbors(v), "node {v}");
            assert_eq!(c.node_degree(v), packed.node_degree(v), "node {v}");
        }
        assert!(c.edge_neighbors(n_e).is_empty() && c.node_degree(n_v) == 0);
    }

    /// The resident CSR of a weighted image holds exactly nnz targets
    /// and no weights; the weights stay in the image.
    #[test]
    fn resident_side_of_weighted_image_carries_no_weights() {
        let el = nwhy_core::BiEdgeList::from_weighted_incidences(
            3,
            4,
            vec![(0, 1), (0, 3), (1, 0), (2, 1), (2, 2)],
            vec![0.5, -1.0, 2.0, 3.5, 4.0],
        );
        let h = Hypergraph::from_biedgelist(&el);
        let mut c = CompressedHypergraph::from_bytes(pack_hypergraph(&h)).unwrap();
        assert!(c.is_weighted());
        for side in [Side::Edges, Side::Nodes] {
            c.materialize(side);
        }
        for (packed, rows) in [(&c.edges, 3), (&c.nodes, 4)] {
            let csr = packed.resident.as_ref().unwrap();
            assert!(csr.weights().is_none());
            assert_eq!(csr.targets().len(), c.num_incidences());
            assert_eq!(csr.offsets().len(), rows + 1);
        }
        assert_eq!(c.to_hypergraph(), h);
    }

    #[test]
    fn roundtrips_to_hypergraph() {
        let h = paper_hypergraph();
        let c = packed_fixture();
        assert_eq!(c.to_hypergraph(), h);
    }

    #[test]
    fn validates_clean_image() {
        assert_eq!(packed_fixture().validate(), Ok(()));
    }

    #[test]
    fn scan_visits_every_row_in_order() {
        let h = paper_hypergraph();
        let c = packed_fixture();
        let mut seen = Vec::new();
        c.scan_edges(|e, row| seen.push((e, row.to_vec())));
        assert_eq!(seen.len(), h.num_hyperedges());
        for (e, row) in &seen {
            assert_eq!(row, h.edge_members(*e));
        }
    }

    #[test]
    fn stats_beat_binary_bytes_per_incidence() {
        let c = packed_fixture();
        let stats = c.stats();
        assert_eq!(stats.nnz, 18);
        assert_eq!(
            stats.total_bytes,
            pack_hypergraph(&paper_hypergraph()).len()
        );
        assert!(stats.payload_bytes > 0);
    }

    #[test]
    fn corrupt_payload_is_reported() {
        let mut img = pack_hypergraph(&paper_hypergraph());
        // Flip the last payload byte to an overlong continuation marker:
        // the open walk runs off the end of the payload.
        let last = img.len() - 1;
        img[last] = 0x80;
        assert!(matches!(
            CompressedHypergraph::from_bytes(img),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn sampled_index_disagreement_is_rejected_at_open() {
        let mut img = pack_hypergraph(&paper_hypergraph());
        // The first index entry of the edge CSR must be 0.
        img[HEADER_LEN] = 1;
        assert!(matches!(
            CompressedHypergraph::from_bytes(img),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn truncated_image_is_rejected_at_open() {
        let img = pack_hypergraph(&paper_hypergraph());
        let cut = img.len() - 3;
        assert!(matches!(
            CompressedHypergraph::from_bytes(img[..cut].to_vec()),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_garbage_is_rejected_at_open() {
        let mut img = pack_hypergraph(&paper_hypergraph());
        img.extend_from_slice(b"junk");
        assert!(matches!(
            CompressedHypergraph::from_bytes(img),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn id_boundary_roundtrips_through_codec() {
        // Values at the top of the 32-bit ID space: a full hypergraph
        // with n_v ≈ u32::MAX is not materializable (the dense transpose
        // alone would need tens of gigabytes), so exercise the codec on
        // a raw CSR whose target *space* is u32::MAX while holding only
        // a handful of rows.
        let big = u32::MAX - 1;
        let csr = nwgraph::Csr::from_raw_parts(
            u32::MAX as usize,
            vec![0, 2, 2, 3],
            vec![5, big, big],
            None,
        );
        let (payload, samples) = crate::format::encode_block(&csr, 0..3);
        assert_eq!(samples, [0]); // ceil(3/64) = 1 sample
        let index = samples[0].to_le_bytes();
        let side = |num_targets| Layout {
            index: &index,
            payload: &payload,
            rows: 3,
            num_targets,
        };
        let starts = walk_rows(&[side(u32::MAX as usize)], 3).unwrap().remove(0);
        assert_eq!(starts.len(), 4);
        assert_eq!(starts[3], payload.len());
        let mut out = Vec::new();
        for r in 0..3u32 {
            let row = &payload[starts[r as usize]..starts[r as usize + 1]];
            decode_row(row, &mut out);
            assert_eq!(&out[..], csr.neighbors(r), "row {r}");
        }
        // one past the last ID is out of target bounds
        assert!(walk_rows(&[side(big as usize)], 3).is_err());
    }

    #[test]
    fn empty_hypergraph_packs_and_opens() {
        let h = Hypergraph::from_memberships(&[]);
        let c = CompressedHypergraph::from_bytes(pack_hypergraph(&h)).unwrap();
        assert_eq!(c.num_hyperedges(), 0);
        assert_eq!(c.num_hypernodes(), 0);
        assert_eq!(c.validate(), Ok(()));
        assert_eq!(c.to_hypergraph(), h);
    }
}
