//! NWHYPAK1 pack/unpack entry points.
//!
//! Thin I/O-layer façade over [`nwhy_store`]: packing writes the
//! compressed on-disk image ([`nwhy_store::format`]), opening hands back
//! a [`CompressedHypergraph`] served from the requested
//! [`Backend`] (mmap or owned buffer). Errors are mapped into the crate's
//! [`IoError`] taxonomy — OS failures stay [`IoError::Io`], format
//! violations become [`IoError::Parse`] with the binary-header line
//! convention (line 1), matching [`crate::binary`].

use crate::error::IoError;
use nwhy_core::Hypergraph;
use nwhy_obs::Counter;
use nwhy_store::{Backend, CompressedHypergraph, StoreError};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;

/// Maps a storage-layer error into the I/O error taxonomy: OS failures
/// pass through as [`IoError::Io`]; anything else is a malformed file,
/// reported against "line 1" like every binary-header failure.
fn store_err(e: StoreError) -> IoError {
    match e {
        StoreError::Io(e) => IoError::Io(e),
        other => IoError::parse(1, other.to_string()),
    }
}

/// Packs `h` into the NWHYPAK1 format at `path` (overwriting), section
/// by section, returning the file's size in bytes.
pub fn write_packed_file(path: &Path, h: &Hypergraph) -> Result<u64, IoError> {
    let _span = nwhy_obs::span("io.write_packed");
    let mut w = BufWriter::new(File::create(path)?);
    nwhy_store::write_packed(&mut w, h).map_err(store_err)?;
    w.flush()?;
    Ok(w.get_ref().metadata()?.len())
}

/// Opens an NWHYPAK1 file through the requested backend without
/// decompressing it: the result serves neighbor queries straight off the
/// packed image (zero-copy when mapped). Opening validates the whole
/// image, so a corrupt file is an [`IoError::Parse`] here and no later
/// query can fail.
pub fn open_packed(path: &Path, backend: Backend) -> Result<CompressedHypergraph, IoError> {
    let _span = nwhy_obs::span("io.open_packed");
    let c = CompressedHypergraph::open(path, backend).map_err(store_err)?;
    nwhy_obs::add(Counter::IoBytesRead, c.stats().total_bytes as u64);
    nwhy_obs::add(Counter::IoIncidencesRead, c.num_incidences() as u64);
    Ok(c)
}

/// Reads an NWHYPAK1 file fully back into an in-memory [`Hypergraph`]
/// (pointer-based bi-adjacency). The inverse of [`write_packed_file`].
pub fn read_packed(path: &Path) -> Result<Hypergraph, IoError> {
    Ok(open_packed(path, Backend::Owned)?.to_hypergraph())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nwhy_core::fixtures::paper_hypergraph;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nwhy-io-pack-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn pack_open_roundtrip() {
        let h = paper_hypergraph();
        let path = tmp("roundtrip.nwhypak");
        let written = write_packed_file(&path, &h).unwrap();
        assert!(written > 0);
        let c = open_packed(&path, Backend::Auto).unwrap();
        assert_eq!(c.num_hyperedges(), h.num_hyperedges());
        assert_eq!(read_packed(&path).unwrap(), h);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let e = open_packed(Path::new("/nonexistent/nwhy.pak"), Backend::Auto).unwrap_err();
        assert!(matches!(e, IoError::Io(_)));
    }

    #[test]
    fn garbage_file_is_parse_error() {
        let path = tmp("garbage.nwhypak");
        std::fs::write(&path, b"THIS IS NOT A PACKED HYPERGRAPH FILE").unwrap();
        let e = open_packed(&path, Backend::Auto).unwrap_err();
        assert!(matches!(e, IoError::Parse { line: 1, .. }), "got {e}");
        std::fs::remove_file(&path).ok();
    }
}
