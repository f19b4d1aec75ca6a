//! Plain edge-list output for s-line graphs: one `a\tb` line per pair,
//! IDs in decimal — what `nwhy-cli sline --out` writes.
//!
//! The digits are formatted by hand into one reused line buffer rather
//! than through `write!`, whose formatting machinery dominates the cost
//! of writing multi-million-pair lists.

use crate::error::IoError;
use nwhy_core::Id;
use std::io::{BufWriter, Write};

/// Capacity of [`write_edge_list`]'s write buffer.
const BUFFER_BYTES: usize = 1 << 20;

/// Decimal digits of the largest [`Id`] (`u32::MAX` = 4294967295).
const MAX_DIGITS: usize = 10;

/// Writes `pairs` as a tab-separated edge list, `a\tb\n` per pair, and
/// flushes. `w` gets its own 1 MiB buffer, so pass it unbuffered (a bare
/// `File`). Every write error, the final flush's included, is returned.
pub fn write_edge_list<W: Write>(w: W, pairs: &[(Id, Id)]) -> Result<(), IoError> {
    let _span = nwhy_obs::span("emit");
    let mut w = BufWriter::with_capacity(BUFFER_BYTES, w);
    let mut line = Vec::with_capacity(2 * MAX_DIGITS + 2);
    for &(a, b) in pairs {
        line.clear();
        push_decimal(&mut line, a);
        line.push(b'\t');
        push_decimal(&mut line, b);
        line.push(b'\n');
        w.write_all(&line)?;
    }
    w.flush()?;
    Ok(())
}

/// Appends the decimal digits of `n` to `line`.
fn push_decimal(line: &mut Vec<u8>, n: Id) {
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
    use proptest::prelude::*;
    use std::io;

    fn reference(pairs: &[(Id, Id)]) -> Vec<u8> {
        pairs
            .iter()
            .map(|(a, b)| format!("{a}\t{b}\n"))
            .collect::<String>()
            .into_bytes()
    }

    fn written(pairs: &[(Id, Id)]) -> Vec<u8> {
        let mut out = Vec::new();
        write_edge_list(&mut out, pairs).unwrap();
        out
    }

    #[test]
    fn extremes_and_empty() {
        let pairs = [(0, 0), (0, u32::MAX), (9, 10), (99, 100), (u32::MAX, 1)];
        assert_eq!(written(&pairs), reference(&pairs));
        assert!(written(&[]).is_empty());
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
        // the buffer holds everything, so only the final flush can fail
        let pairs = [(1, 2), (3, 4)];
        assert!(matches!(
            write_edge_list(Full { room: 0 }, &pairs),
            Err(IoError::Io(_))
        ));
        // a list larger than the buffer fails on a mid-stream write too
        let many: Vec<(Id, Id)> = (0..200_000).map(|i| (i, i + 1)).collect();
        assert!(write_edge_list(Full { room: 5 }, &many).is_err());
        assert!(write_edge_list(Full { room: usize::MAX }, &many).is_ok());
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
        fn prop_bytes_match_format(pairs in proptest::collection::vec((id(), id()), 0..64)) {
            prop_assert_eq!(written(&pairs), reference(&pairs));
        }
    }
}
