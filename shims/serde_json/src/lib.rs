//! In-workspace shim for `serde_json` (no crates.io access — see
//! `shims/README.md`).
//!
//! A recursive-descent JSON parser and writer over the shim `serde` crate's
//! [`Value`] tree. Covers what the workspace uses: `from_str`, `to_string`,
//! `to_string_pretty`, `to_value`/`from_value`, and an `Error` type that is
//! `Display + std::error::Error`.
//!
//! Departures from upstream worth knowing about:
//! * Non-finite floats serialize as `null` (same as upstream).
//! * Map keys are emitted in the order the `Value::Object` holds them (the
//!   shim `serde` sorts `HashMap` keys at `to_value` time for determinism).

pub use serde::Value;

use std::fmt;

/// Parse / serialize error.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::Error> for Error {
    fn from(e: serde::Error) -> Self {
        Error(e.to_string())
    }
}

/// Mirrors upstream serde_json, which converts its errors into `io::Error`
/// so `?` works inside `std::io::Result` functions.
impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
    }
}

pub type Result<T> = std::result::Result<T, Error>;

/// Serialize `value` as a compact JSON string.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, None, 0);
    Ok(out)
}

/// Serialize `value` as human-indented JSON.
pub fn to_string_pretty<T: serde::Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out, Some(2), 0);
    Ok(out)
}

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Result<Value> {
    Ok(value.to_value())
}

/// Convert a [`Value`] tree into a concrete type.
pub fn from_value<T: serde::Deserialize>(value: Value) -> Result<T> {
    T::from_value(&value).map_err(Error::from)
}

/// Parse a JSON document into a concrete type.
pub fn from_str<T: serde::Deserialize>(s: &str) -> Result<T> {
    let value = parse_document(s)?;
    T::from_value(&value).map_err(Error::from)
}

/// Construct JSON values with literal-ish syntax. Supports the subset this
/// workspace writes: `json!({ "k": expr, ... })`, `json!([a, b])`, and bare
/// serializable expressions.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($item:tt),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::json!($item) ),* ])
    };
    ({ $($key:literal : $val:tt),* $(,)? }) => {
        $crate::Value::Object(vec![ $( ($key.to_string(), $crate::json!($val)) ),* ])
    };
    ($other:expr) => { ::serde::Serialize::to_value(&$other) };
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn write_value(v: &Value, out: &mut String, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => write_number(n, out),
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(item, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..(width * depth) {
            out.push(' ');
        }
    }
}

fn write_number(n: &serde::Number, out: &mut String) {
    match n {
        serde::Number::PosInt(u) => out.push_str(&u.to_string()),
        serde::Number::NegInt(i) => out.push_str(&i.to_string()),
        serde::Number::Float(f) => {
            if f.is_finite() {
                // Rust's shortest round-trip float formatting; integral floats
                // get a ".0" suffix so they re-parse as floats.
                let s = format!("{f}");
                out.push_str(&s);
                if !s.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_document(s: &str) -> Result<Value> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at byte {}", p.pos)));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Value::Str(self.parse_string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(entries));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.parse_value()?;
            entries.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(entries));
                }
                other => {
                    return Err(Error(format!(
                        "expected ',' or '}}' in object, found {:?} at byte {}",
                        other.map(|c| c as char),
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                other => {
                    return Err(Error(format!(
                        "expected ',' or ']' in array, found {:?} at byte {}",
                        other.map(|c| c as char),
                        self.pos
                    )))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(Error("unterminated string".into())),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            // parse_hex4 enters with pos at 'u' and exits past
                            // the 4th digit.
                            let cp = self.parse_hex4()?;
                            if (0xD800..0xDC00).contains(&cp)
                                && self.bytes[self.pos..].starts_with(b"\\u")
                            {
                                // High surrogate followed by `\uXXXX`: decode
                                // the pair into one astral-plane char.
                                self.pos += 1; // skip '\', land on 'u'
                                let lo = self.parse_hex4()?;
                                if (0xDC00..0xE000).contains(&lo) {
                                    let c = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    out.push(char::from_u32(c).unwrap_or('\u{FFFD}'));
                                } else {
                                    out.push('\u{FFFD}');
                                    out.push(char::from_u32(lo).unwrap_or('\u{FFFD}'));
                                }
                            } else {
                                out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                            }
                            continue;
                        }
                        other => {
                            return Err(Error(format!("bad escape {:?}", other.map(|c| c as char))))
                        }
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the run up to the next quote or backslash in one
                    // go. Both are ASCII, so the run ends on a character
                    // boundary of the (valid UTF-8) input, and each byte is
                    // validated once rather than once per character.
                    let run = self.bytes[self.pos..]
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\')
                        .unwrap_or(self.bytes.len() - self.pos);
                    let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + run])
                        .map_err(|_| Error("invalid utf-8".into()))?;
                    out.push_str(text);
                    self.pos += run;
                }
            }
        }
    }

    /// Reads the 4 hex digits of a `\uXXXX` escape. On entry `pos` is at the
    /// `u`; on exit it is past the last digit.
    fn parse_hex4(&mut self) -> Result<u32> {
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err(Error("truncated \\u escape".into()));
        }
        let hex = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| Error("bad \\u escape".into()))?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| Error("bad \\u escape".into()))?;
        self.pos = end;
        Ok(cp)
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        let mut is_float = false;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| Error("bad number".into()))?;
        if is_float {
            let f: f64 = text.parse().map_err(|_| Error(format!("bad float {text}")))?;
            Ok(Value::Num(serde::Number::Float(f)))
        } else if text.starts_with('-') {
            let i: i64 = text.parse().map_err(|_| Error(format!("bad int {text}")))?;
            Ok(Value::Num(serde::Number::NegInt(i)))
        } else {
            match text.parse::<u64>() {
                Ok(u) => Ok(Value::Num(serde::Number::PosInt(u))),
                // Overflow: fall back to float like upstream's arbitrary_precision-off mode.
                Err(_) => {
                    let f: f64 = text.parse().map_err(|_| Error(format!("bad int {text}")))?;
                    Ok(Value::Num(serde::Number::Float(f)))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_compact() {
        let src = r#"{"a":1,"b":[1.5,true,null],"c":{"nested":"hi\nthere"}}"#;
        let v: Value = from_str(src).unwrap();
        let out = to_string(&v).unwrap();
        let v2: Value = from_str(&out).unwrap();
        assert_eq!(format!("{v:?}"), format!("{v2:?}"));
    }

    #[test]
    fn pretty_has_indentation() {
        let v: Value = from_str(r#"{"x":[1,2]}"#).unwrap();
        let pretty = to_string_pretty(&v).unwrap();
        assert!(pretty.contains("\n  \"x\""));
    }

    #[test]
    fn floats_round_trip_exactly() {
        let src = "[0.1,1e-9,12345.6789,3.0]";
        let v: Value = from_str(src).unwrap();
        let out = to_string(&v).unwrap();
        // Representation may differ (Display avoids exponents for 1e-9), but
        // the parsed values must be bit-identical after a round trip.
        assert_eq!(out, "[0.1,0.000000001,12345.6789,3.0]");
        let v2: Value = from_str(&out).unwrap();
        assert_eq!(format!("{v:?}"), format!("{v2:?}"));
    }

    #[test]
    fn unicode_escapes() {
        let v: Value = from_str(r#""café 😀""#).unwrap();
        match v {
            Value::Str(s) => assert_eq!(s, "café 😀"),
            other => panic!("expected string, got {other:?}"),
        }
        // Raw multi-byte runs interleaved with escapes.
        let v: Value = from_str(r#""é\"ü\\ 😀\u00e9x""#).unwrap();
        match v {
            Value::Str(s) => assert_eq!(s, "é\"ü\\ 😀éx"),
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn errors_report_position() {
        let err = from_str::<Value>("[1,2").unwrap_err();
        assert!(err.to_string().contains("array"));
        let err = from_str::<Value>("\"abc é").unwrap_err();
        assert!(err.to_string().contains("unterminated"));
    }

    #[test]
    fn json_macro_builds_objects() {
        let v = json!({ "name": "edge", "n": 3_usize, "flags": [true, false] });
        let out = to_string(&v).unwrap();
        assert_eq!(out, r#"{"name":"edge","n":3,"flags":[true,false]}"#);
    }
}
