//! Minimal JSON support: string escaping, float formatting, and a small
//! recursive-descent parser.
//!
//! The workspace vendors no serde, so the round-trip and schema tests
//! (`--metrics=json`, `BENCH_*.json`) need a reader of their own. This
//! parser handles the full JSON grammar minus `\u` escapes beyond the
//! BMP surrogate-free range — more than enough for output we generate
//! ourselves.

use std::collections::BTreeMap;

/// Escapes a string for embedding inside JSON double quotes.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a valid JSON value: non-finite inputs (`NaN`,
/// `±inf` — e.g. the quantile of an empty row or the mean of a
/// 0-count histogram) become `null`; finite values always carry a
/// decimal point or exponent so they re-parse as floats.
pub fn fmt_f64(x: f64) -> String {
    if !x.is_finite() {
        return "null".into();
    }
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as `f64` (plus the exact u64 when integral).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object. `BTreeMap` keeps iteration deterministic for tests.
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// Object member lookup (`None` for non-objects / missing keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(m) => m.get(key),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as `f64`, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The number as `u64` when it is a non-negative integer.
    // lint: the match guard pins the value to a non-negative integer ≤ u64::MAX
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(x) if *x >= 0.0 && x.fract() == 0.0 && *x <= u64::MAX as f64 => {
                Some(*x as u64)
            }
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
pub fn parse(input: &str) -> Result<Value, String> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(b, pos);
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {pos}",
            c as char,
            pos = *pos
        ))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(b, pos);
    let Some(&c) = b.get(*pos) else {
        return Err("unexpected end of input".into());
    };
    match c {
        b'{' => parse_object(b, pos),
        b'[' => parse_array(b, pos),
        b'"' => Ok(Value::Str(parse_string(b, pos)?)),
        b't' => parse_lit(b, pos, "true", Value::Bool(true)),
        b'f' => parse_lit(b, pos, "false", Value::Bool(false)),
        b'n' => parse_lit(b, pos, "null", Value::Null),
        b'-' | b'0'..=b'9' => parse_number(b, pos),
        _ => Err(format!(
            "unexpected byte '{}' at {pos}",
            c as char,
            pos = *pos
        )),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    s.parse::<f64>()
        .map(Value::Num)
        .map_err(|e| format!("bad number {s:?}: {e}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        let Some(&c) = b.get(*pos) else {
            return Err("unterminated string".into());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&e) = b.get(*pos) else {
                    return Err("unterminated escape".into());
                };
                *pos += 1;
                match e {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'u' => {
                        let hex = b.get(*pos..*pos + 4).ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(code).ok_or("surrogate \\u escape")?);
                    }
                    _ => return Err(format!("bad escape '\\{}'", e as char)),
                }
            }
            c => {
                // Re-assemble multi-byte UTF-8 sequences byte-by-byte.
                if c < 0x80 {
                    out.push(c as char);
                } else {
                    let len = if c >= 0xf0 {
                        4
                    } else if c >= 0xe0 {
                        3
                    } else {
                        2
                    };
                    let start = *pos - 1;
                    let chunk = b
                        .get(start..start + len)
                        .ok_or("truncated UTF-8 sequence")?;
                    let s = std::str::from_utf8(chunk).map_err(|e| e.to_string())?;
                    out.push_str(s);
                    *pos = start + len;
                }
            }
        }
    }
}

fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Array(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Array(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Object(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Object(map));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(parse("42").unwrap().as_u64(), Some(42));
        assert_eq!(parse("-1.5").unwrap().as_f64(), Some(-1.5));
        assert_eq!(parse("\"hi\"").unwrap().as_str(), Some("hi"));
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("null").unwrap(), Value::Null);
    }

    #[test]
    fn parses_nested() {
        let v = parse(r#"{"a": [1, {"b": "x\n"}], "c": 2e3}"#).unwrap();
        assert_eq!(v.get("c").unwrap().as_f64(), Some(2000.0));
        let arr = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[0].as_u64(), Some(1));
        assert_eq!(arr[1].get("b").unwrap().as_str(), Some("x\n"));
    }

    #[test]
    fn escape_round_trips() {
        let s = "quo\"te\\back\nnew\ttab\u{1} Ünïcödé";
        let doc = format!("\"{}\"", escape(s));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(s));
    }

    #[test]
    fn fmt_f64_is_json_safe() {
        assert_eq!(fmt_f64(1.0), "1.0");
        assert_eq!(fmt_f64(0.25), "0.25");
        for x in [1.0, 0.25, 1e-9, 12345.678] {
            assert_eq!(parse(&fmt_f64(x)).unwrap().as_f64(), Some(x));
        }
    }

    #[test]
    fn fmt_f64_emits_null_for_non_finite() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = fmt_f64(x);
            assert_eq!(doc, "null");
            // and it stays valid JSON through the parser
            assert_eq!(parse(&doc).unwrap(), Value::Null);
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("1 2").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
    }
}
