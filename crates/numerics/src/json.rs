//! A minimal, dependency-free JSON value with exact `f64` round-tripping.
//!
//! The build environment has no access to crates.io, so checkpoints,
//! fault plans, and adversary plans cannot use `serde`; this module
//! hand-rolls the small JSON subset they need. Two properties matter
//! for bit-exact resume:
//!
//! - finite `f64`s are written with Rust's shortest-round-trip formatter
//!   and therefore parse back to the identical bit pattern;
//! - non-finite values are encoded as the strings `"NaN"`, `"Infinity"`,
//!   `"-Infinity"` (JSON has no non-finite numbers), and `u64`s (RNG
//!   words) as decimal strings (JSON numbers are doubles and would lose
//!   bits above 2^53).
//!
//! The module lives at the bottom of the workspace (this crate has no
//! internal dependencies) so every layer — including `dcc-trace`, which
//! sits below `dcc-core` — can share the one parser. Higher layers
//! convert [`JsonError`] into their own error enums.

use std::fmt::Write as _;

/// A JSON parse failure: byte offset plus a short description.
///
/// Deliberately self-contained (no dependency on any workspace error
/// enum) so the parser can live at the bottom of the dependency graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub pos: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json parse error at byte {}: {}", self.pos, self.message)
    }
}

impl std::error::Error for JsonError {}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (no deduplication).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Encodes an `f64`, mapping non-finite values onto their string
    /// encodings.
    pub fn num(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x)
        } else if x.is_nan() {
            Json::Str("NaN".into())
        } else if x > 0.0 {
            Json::Str("Infinity".into())
        } else {
            Json::Str("-Infinity".into())
        }
    }

    /// Encodes a `u64` exactly (as a decimal string).
    pub fn u64(x: u64) -> Json {
        Json::Str(x.to_string())
    }

    /// Encodes a `usize` (safe as a JSON number — indices and rounds stay
    /// far below 2^53).
    pub fn idx(x: usize) -> Json {
        Json::Num(x as f64)
    }

    /// Decodes an `f64`, accepting both numbers and the non-finite
    /// string encodings.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "Infinity" => Some(f64::INFINITY),
                "-Infinity" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }

    /// Decodes an exact `u64` from its decimal-string encoding.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Str(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// Decodes a nonnegative integer index.
    pub fn as_idx(&self) -> Option<usize> {
        match self {
            Json::Num(x) if *x >= 0.0 && crate::exact_eq(x.fract(), 0.0) => Some(*x as usize),
            _ => None,
        }
    }

    /// The boolean value, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// A member of this object by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(x) => {
                // Rust's default f64 formatting is the shortest string
                // that round-trips, so parsing recovers the exact bits.
                let _ = write!(out, "{x}");
                // Ensure integral floats still look like numbers when
                // read by stricter tooling ("1" is valid JSON already,
                // so nothing else to do).
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
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
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

    /// Parses a JSON document (a single value with optional surrounding
    /// whitespace).
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input, including arrays and
    /// objects nested more than 128 levels deep.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(err(pos, "trailing characters after JSON value"));
        }
        Ok(value)
    }
}

/// Compact JSON serialization (`doc.to_string()` via the `ToString`
/// blanket impl).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
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

fn err(pos: usize, message: &str) -> JsonError {
    JsonError {
        pos,
        message: message.to_string(),
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, byte: u8) -> Result<(), JsonError> {
    if *pos < bytes.len() && bytes[*pos] == byte {
        *pos += 1;
        Ok(())
    } else {
        Err(err(*pos, &format!("expected '{}'", byte as char)))
    }
}

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// The parser recurses once per level, so without a cap a hostile
/// document of a few kilobytes of `[` overflows the stack.
const MAX_DEPTH: usize = 128;

/// Parses one value whose enclosing arrays and objects number `depth`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    if matches!(bytes.get(*pos), Some(b'[' | b'{')) && depth >= MAX_DEPTH {
        return Err(err(
            *pos,
            &format!("arrays and objects nested deeper than {MAX_DEPTH} levels"),
        ));
    }
    match bytes.get(*pos) {
        None => Err(err(*pos, "unexpected end of input")),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(err(*pos, "expected ',' or ']' in array")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos, depth + 1)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(err(*pos, "expected ',' or '}' in object")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    literal: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(literal.as_bytes()) {
        *pos += literal.len();
        Ok(value)
    } else {
        Err(err(*pos, &format!("expected '{literal}'")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(err(*pos, "unterminated string")),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| err(*pos, "truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| err(*pos, "non-ascii \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| err(*pos, "invalid \\u escape"))?;
                        // Surrogate pairs are not needed for our payloads;
                        // map unpaired surrogates to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(err(*pos, "invalid escape")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the whole unescaped run at once: it ends at an
                // ASCII `"` or `\\`, so the slice stays on a character
                // boundary, and each byte is validated exactly once.
                let start = *pos;
                while bytes.get(*pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| err(start, "invalid utf-8"))?;
                out.push_str(run);
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    if start == *pos {
        return Err(err(start, "expected a value"));
    }
    std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| err(start, "invalid number"))?
        .parse::<f64>()
        .map(Json::Num)
        .map_err(|_| err(start, "invalid number"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_structures() {
        let doc = Json::Obj(vec![
            ("a".into(), Json::Arr(vec![Json::Num(1.0), Json::Null])),
            ("b".into(), Json::Bool(true)),
            ("s".into(), Json::Str("line\n\"quoted\"\t".into())),
        ]);
        let text = doc.to_string();
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn f64_round_trip_is_bit_exact() {
        for &x in &[
            0.1,
            -1.0 / 3.0,
            std::f64::consts::PI,
            1e-300,
            -2.5e300,
            f64::MIN_POSITIVE,
            5e-324,
            0.0,
            -0.0,
            123_456_789.123_456_79,
        ] {
            let text = Json::num(x).to_string();
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{x} -> {text} -> {back}");
        }
    }

    #[test]
    fn non_finite_values_use_string_encoding() {
        for (x, s) in [
            (f64::NAN, "\"NaN\""),
            (f64::INFINITY, "\"Infinity\""),
            (f64::NEG_INFINITY, "\"-Infinity\""),
        ] {
            let text = Json::num(x).to_string();
            assert_eq!(text, s);
            let back = Json::parse(&text).unwrap().as_f64().unwrap();
            assert_eq!(back.to_bits(), x.to_bits());
        }
    }

    #[test]
    fn u64_is_exact_beyond_2_pow_53() {
        let x = u64::MAX - 12345;
        let text = Json::u64(x).to_string();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(x));
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in ["", "{", "[1,", "\"open", "{\"a\" 1}", "nul", "1 2", "[1]extra"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn multi_byte_characters_next_to_escapes_round_trip() {
        for s in ["é\"ü\\n", "é\"ü\n", "\\é", "日本\t語\"", "\"é", "ü"] {
            let doc = Json::Str(s.into());
            let text = doc.to_string();
            assert_eq!(Json::parse(&text).unwrap(), doc, "{text}");
        }
        assert_eq!(
            Json::parse(r#""é\"ü\\né""#).unwrap(),
            Json::Str("é\"ü\\né".into())
        );
        for bad in ["\"é", "\"é\\", "\"ü\\q\""] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nested deeper than 128"), "{err}");
        assert_eq!(err.pos, MAX_DEPTH);
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1) + "1" + &"}".repeat(MAX_DEPTH + 1);
        assert!(Json::parse(&objects).is_err());
        // Far past the cap: an error, not a stack overflow.
        assert!(Json::parse(&"[".repeat(50_000)).is_err());
    }

    #[test]
    fn whitespace_is_tolerated() {
        let doc = Json::parse(" { \"k\" :\n[ 1 , 2 ] }\t").unwrap();
        assert_eq!(doc.get("k").unwrap().as_arr().unwrap().len(), 2);
    }
}
