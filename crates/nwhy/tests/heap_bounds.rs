//! Heap bounds of the load and representation layers, measured with a
//! counting global allocator on a generated Rand1 twin.
//!
//! - `read_binary` holds no pair list: its peak live heap is the
//!   hypergraph it returns plus its two chunk buffers, and a header that
//!   claims more pairs than the file holds costs no buffer at all.
//! - `AdjoinGraph::from_owned` reuses the hypergraph's arrays: its peak
//!   is three target arrays' worth (`3 · 4 · nnz` bytes) plus the adjoin
//!   offsets, not a second copy beside the first.
//!
//! One `#[test]` only, so no other test allocates while it measures.

use nwhy::core::AdjoinGraph;
use nwhy::gen::profiles::profile_by_name;
use peak_alloc::PeakAlloc;
use std::io::Cursor;

#[global_allocator]
static HEAP: PeakAlloc = PeakAlloc;

/// `read_binary` reads this many pairs (8 bytes each) per chunk, into a
/// pair buffer and, for weighted files, a weight buffer beside it.
const CHUNK_BYTES: usize = (1 << 16) * 8;
/// Thread start-up, span registry entries and other small bookkeeping.
const SLACK: usize = 256 << 10;

/// Runs `f` and returns its result with the peak live heap it added
/// above the heap live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    HEAP.reset_peak_usage();
    let base = HEAP.current_usage();
    let out = f();
    (out, HEAP.peak_usage() - base)
}

#[test]
fn load_and_adjoin_stay_within_their_heap_bounds() {
    let profile = profile_by_name("Rand1").expect("Rand1 profile");
    let h = profile.generate(2000, 7);
    let nnz = h.num_incidences();
    assert!(nnz > 4 * (1 << 16), "the twin must span several chunks");
    let mut file = Vec::new();
    nwhy::io::write_binary(&mut file, &h).unwrap();
    drop(h);

    let (loaded, load_peak) = peak_of(|| nwhy::io::read_binary(Cursor::new(&file)).unwrap());
    let bound = loaded.memory_bytes() + 2 * CHUNK_BYTES + SLACK;
    assert!(
        load_peak <= bound,
        "read_binary peaked at {load_peak} B > {bound} B for {nnz} incidences"
    );
    drop(file);

    // a header that claims far more pairs than the file holds is refused
    // before any buffer is sized by the claim
    let mut lie = b"NWHYBIN1".to_vec();
    for word in [0u64, 10, 10, 1_000_000] {
        lie.extend_from_slice(&word.to_le_bytes());
    }
    lie.extend_from_slice(&[0; 8]);
    let (refused, lie_peak) = peak_of(|| nwhy::io::read_binary(Cursor::new(&lie)));
    assert!(refused.is_err());
    assert!(lie_peak <= SLACK, "a lying header cost {lie_peak} B");

    let (ne, nv) = (loaded.num_hyperedges(), loaded.num_hypernodes());
    let h_bytes = loaded.memory_bytes();
    let (a, adjoin_peak) = peak_of(|| AdjoinGraph::from_owned(loaded));
    let offsets = (ne + nv + 1) * std::mem::size_of::<usize>();
    let bound = 3 * 4 * nnz + offsets + SLACK;
    // the hypergraph was live at the start, so the peak counts it too
    let adjoin_peak = adjoin_peak + h_bytes;
    assert!(
        adjoin_peak <= bound,
        "from_owned peaked at {adjoin_peak} B > {bound} B for {nnz} incidences"
    );
    assert_eq!(a.graph().num_edges(), 2 * nnz);
}
