//! Minimal JSON reader/writer for harness artifacts (sweep checkpoints,
//! report grids, bench records).
//!
//! The workspace is dependency-free by design, so this is a small
//! recursive-descent parser (its nesting capped at `MAX_DEPTH`, so hostile
//! input is an error, not a stack overflow) plus a deterministic writer:
//! objects preserve insertion order and `f64` values render through Rust's shortest
//! round-trip formatting, so `parse(render(v)) == v` for every value the
//! harness produces and byte-identical inputs yield byte-identical files.

use crate::error::{Error, Result};
use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts; one level deeper is
/// `Error::Invalid`. The parser recurses once per level, so without a cap a
/// socket peer could overflow the stack with a few kilobytes of `[`.
/// Measured on the grids of `all` and of a coordinated sweep's
/// `--checkpoint`, and on `explain --json`: each nests 5 deep, and a frame
/// carrying one cell's outcome one level less. 64 leaves twelvefold
/// headroom at a few kilobytes of stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects keep insertion order (deterministic output
/// matters more to the harness than hash-speed lookups on tiny documents).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (stored as `f64`; exact for |x| < 2^53).
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor starting empty.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Insert (or replace) a key in an object; panics on non-objects
    /// (programmer error, not data error).
    pub fn set(&mut self, key: &str, value: Json) {
        let Json::Obj(pairs) = self else {
            panic!("Json::set on non-object")
        };
        if let Some(pair) = pairs.iter_mut().find(|(k, _)| k == key) {
            pair.1 = value;
        } else {
            pairs.push((key.to_string(), value));
        }
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric payload as u64 (rejects negatives and fractions).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object pairs, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Render compactly (no whitespace), deterministically.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.is_finite() {
                    // Rust's Display for f64 is the shortest string that
                    // round-trips, so re-parsing restores the exact bits.
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null"); // JSON has no Inf/NaN
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed).
    pub fn parse(text: &str) -> Result<Json> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(Error::invalid(format!(
                "trailing bytes after JSON document at offset {pos}"
            )));
        }
        Ok(value)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<()> {
    if bytes.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(Error::invalid(format!(
            "expected {:?} at offset {}",
            c as char, *pos
        )))
    }
}

/// Parse the value at `pos`, which sits inside `depth` arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(Error::invalid(format!(
            "JSON nested deeper than {MAX_DEPTH} levels at offset {}",
            *pos
        ))),
        Some(b'{') => parse_obj(bytes, pos, depth + 1),
        Some(b'[') => parse_arr(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err(Error::invalid("unexpected end of JSON input")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(Error::invalid(format!("bad literal at offset {}", *pos)))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error::invalid("non-UTF8 number"))?;
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| Error::invalid(format!("bad number {text:?} at offset {start}")))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error::invalid("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::invalid("truncated \\u escape"))?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex)
                                .map_err(|_| Error::invalid("bad \\u escape"))?,
                            16,
                        )
                        .map_err(|_| Error::invalid("bad \\u escape"))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| Error::invalid("bad \\u code point"))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(Error::invalid("bad escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or escape, validating
                // only those bytes (both delimiters are ASCII, so a run never
                // splits a multi-byte sequence): linear in the document.
                let start = *pos;
                while bytes.get(*pos).is_some_and(|b| !matches!(b, b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| Error::invalid("non-UTF8 string"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_arr(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => {
                return Err(Error::invalid(format!(
                    "expected , or ] at offset {}",
                    *pos
                )))
            }
        }
    }
}

fn parse_obj(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json> {
    expect(bytes, pos, b'{')?;
    let mut pairs = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(pairs));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        pairs.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(pairs));
            }
            _ => {
                return Err(Error::invalid(format!(
                    "expected , or }} at offset {}",
                    *pos
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_values() {
        let mut obj = Json::obj();
        obj.set("schema", Json::from("test-v1"));
        obj.set("pi", Json::Num(std::f64::consts::PI));
        obj.set("count", Json::from(42u64));
        obj.set(
            "items",
            Json::Arr(vec![Json::Null, Json::Bool(true), Json::from("a\"b\\c\n")]),
        );
        let text = obj.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, obj);
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(back.render(), text);
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.0, -0.0, 1.5e-300, 0.1 + 0.2, 123_456_789.123_456_79, 1e18] {
            let j = Json::Num(v).render();
            let back = Json::parse(&j).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "value {v}");
        }
    }

    #[test]
    fn accessors() {
        let doc = Json::parse(r#"{"a": 1, "b": "x", "c": [1, 2], "d": null}"#).unwrap();
        assert_eq!(doc.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("b").unwrap().as_str(), Some("x"));
        assert_eq!(doc.get("c").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(doc.get("d"), Some(&Json::Null));
        assert_eq!(doc.get("missing"), None);
        assert_eq!(doc.get("a").unwrap().as_str(), None);
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "{\"a\":1}x",
            "\"\\u12\"",
        ] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn large_strings_parse_in_linear_time() {
        // Each of these took minutes when every character re-validated the
        // rest of the document; linear parsing takes milliseconds.
        let long = "gène \u{1F9EC} ".repeat(200_000);
        assert!(long.len() >= 2 << 20);
        let doc = Json::Str(long);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);

        let many = Json::Arr(
            (0..400_000)
                .map(|i| Json::Str(format!("a\"{}", i % 10)))
                .collect(),
        );
        let text = many.render();
        assert!(text.len() >= 2 << 20);
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, many);
        assert_eq!(back.render(), text);
    }

    #[test]
    fn invalid_utf8_inside_a_string_is_rejected() {
        // `Json::parse` takes `&str`, so drive the byte-level parser.
        let parse = |bytes: &[u8]| {
            let mut pos = 0;
            parse_string(bytes, &mut pos).map(|s| (s, pos))
        };
        assert_eq!(
            parse(b"\"ab\\ncd\" tail").unwrap(),
            ("ab\ncd".to_string(), 8)
        );
        let err = parse(b"\"ok\xffbad\"").unwrap_err();
        assert!(err.to_string().contains("non-UTF8 string"), "{err}");
        // Truncated multi-byte sequence right before the closing quote, and
        // right before an escape.
        assert!(parse(b"\"caf\xc3\"").is_err());
        assert!(parse(b"\"caf\xc3\\n\"").is_err());
        // Bytes after the string's end are not this string's business.
        assert_eq!(parse(b"\"ok\"\xff").unwrap(), ("ok".to_string(), 4));
        assert!(parse(b"\"open").is_err(), "unterminated");
        assert!(parse(b"\"bad\\q\"").is_err(), "bad escape");
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(matches!(err, Error::Invalid(_)), "{err}");
        assert!(err.to_string().contains("nested deeper"), "{err}");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
    }

    #[test]
    fn parses_nested_whitespace() {
        let doc = Json::parse(" { \"a\" : [ { \"b\" : 2.5 } ] } \n").unwrap();
        let b = doc.get("a").unwrap().as_arr().unwrap()[0].get("b").unwrap();
        assert_eq!(b.as_f64(), Some(2.5));
    }
}
