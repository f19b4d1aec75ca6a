//! LEB128 varints — the byte-level primitive of the `NWHYPAK1` payload.
//!
//! Neighbor lists are stored as a length varint followed by delta gaps
//! (first value absolute, every later value the difference from its
//! predecessor). Sorted neighbor slices make every gap non-negative, and
//! on the real datasets most gaps fit one byte — this is where the
//! format's compression comes from. Duplicate incidences (a multigraph
//! feature of [`nwgraph::Csr`]) encode as gap `0`.
//!
//! Values are `u64` on the wire even though IDs are `u32`: row lengths
//! and the header arithmetic are 64-bit, and a uniform codec keeps the
//! decoder branch-free on width.

use crate::StoreError;

/// Maximum encoded size of a `u64` varint (ceil(64 / 7) bytes).
pub const MAX_LEN: usize = 10;

/// Appends the LEB128 encoding of `value` to `out`.
#[inline]
// lint: obs: per-byte LEB128 hot loop — a span here would dominate the
// work; the row-level pack/decode callers carry the instrumentation
pub fn encode(mut value: u64, out: &mut Vec<u8>) {
    loop {
        #[allow(clippy::cast_possible_truncation)] // lint: masked to 7 bits first
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decodes one LEB128 varint from `bytes[*pos..]`, advancing `*pos`.
///
/// Errors on a truncated buffer, on an encoding longer than
/// [`MAX_LEN`] bytes, and on bit 64+ overflow.
#[inline]
// lint: obs: per-byte LEB128 hot loop — a span here would dominate the
// work; the row-level pack/decode callers carry the instrumentation
pub fn decode(bytes: &[u8], pos: &mut usize) -> Result<u64, StoreError> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    loop {
        let &byte = bytes.get(*pos).ok_or(StoreError::Truncated {
            what: "varint payload",
            offset: *pos,
        })?;
        *pos += 1;
        let bits = u64::from(byte & 0x7f);
        if shift >= 64 || (shift == 63 && bits > 1) {
            return Err(StoreError::Corrupt {
                what: "varint wider than 64 bits",
                offset: *pos - 1,
            });
        }
        value |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Decodes one varint from bytes the `NWHYPAK1` open walk has already
/// validated with [`decode`], advancing `*pos`. No error path: on valid
/// bytes it equals [`decode`], and on any other bytes it still stops at
/// the end of `bytes` instead of reading past it.
#[inline]
// lint: obs: per-byte LEB128 hot loop — a span here would dominate the
// work; the row-level pack/decode callers carry the instrumentation
pub(crate) fn decode_validated(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    while let Some(&byte) = bytes.get(*pos) {
        *pos += 1;
        value |= u64::from(byte & 0x7f).wrapping_shl(shift);
        if byte & 0x80 == 0 {
            break;
        }
        shift = shift.wrapping_add(7);
    }
    value
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) -> u64 {
        let mut buf = Vec::new();
        encode(v, &mut buf);
        let mut pos = 0;
        let back = decode(&buf, &mut pos).unwrap();
        assert_eq!(pos, buf.len(), "decode must consume the whole encoding");
        back
    }

    #[test]
    fn small_values_fit_one_byte() {
        for v in 0..128u64 {
            let mut buf = Vec::new();
            encode(v, &mut buf);
            assert_eq!(buf.len(), 1);
            assert_eq!(roundtrip(v), v);
        }
    }

    #[test]
    fn boundary_values() {
        for v in [
            127,
            128,
            16_383,
            16_384,
            u64::from(u32::MAX - 1),
            u64::from(u32::MAX),
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(roundtrip(v), v);
        }
    }

    #[test]
    fn max_value_is_ten_bytes() {
        let mut buf = Vec::new();
        encode(u64::MAX, &mut buf);
        assert_eq!(buf.len(), MAX_LEN);
    }

    #[test]
    fn truncated_buffer_errors() {
        let mut buf = Vec::new();
        encode(300, &mut buf);
        buf.pop();
        let mut pos = 0;
        assert!(matches!(
            decode(&buf, &mut pos),
            Err(StoreError::Truncated { .. })
        ));
    }

    #[test]
    fn overlong_continuation_errors() {
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert!(matches!(
            decode(&buf, &mut pos),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn validated_decode_matches_checked_decode() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 1 << 20, u64::MAX] {
            encode(v, &mut buf);
        }
        let (mut a, mut b) = (0usize, 0usize);
        for _ in 0..6 {
            assert_eq!(
                decode(&buf, &mut a).unwrap(),
                decode_validated(&buf, &mut b)
            );
            assert_eq!(a, b);
        }
        // a run-off continuation stops at the end instead of reading past it
        let mut pos = 0;
        decode_validated(&[0x80, 0x80], &mut pos);
        assert_eq!(pos, 2);
    }
}
