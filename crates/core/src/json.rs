//! Dependency-free JSON encoding for experiment artifacts.
//!
//! The build environment has no crates.io access, so this minimal
//! writer/parser is the workspace's only serialisation: traces, configs,
//! telemetry and `--out` reports all go through it. The output follows
//! `serde_json`'s conventions (struct fields as object keys, non-finite
//! floats as `null`), so the files read like any other tool's.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (kept as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object (keys sorted for deterministic output).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `usize`, if it is a non-negative integral number.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64()
            .filter(|n| *n >= 0.0 && n.fract() == 0.0)
            .map(|n| n as usize)
    }

    /// The value as `bool`, if it is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if it is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// A field of the value, if it is an object containing `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Object(map) => map.get(key),
            _ => None,
        }
    }
}

/// Appends a JSON string literal (with escaping) to `out`.
pub fn write_string(out: &mut String, s: &str) {
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

/// Appends a JSON number to `out` (shortest round-trip representation;
/// non-finite values become `null`, as `serde_json` does).
pub fn write_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends an `f32` as a JSON number, preserving exact round-tripping.
pub fn write_f32(out: &mut String, v: f32) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Appends any [`Value`] as JSON: the write-side complement of [`parse`].
/// Objects print keys in sorted order (they are stored sorted); non-finite
/// numbers become `null`, as `serde_json` emits them.
pub fn write_value(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Number(n) => write_f64(out, *n),
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
        }
        Value::Object(map) => {
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(out, key);
                out.push(':');
                write_value(out, item);
            }
            out.push('}');
        }
    }
}

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a message describing the first syntax error, with its byte offset.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn eat_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected character at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(map));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex_escape()?;
                            let scalar = if (0xD800..=0xDBFF).contains(&code) {
                                // High surrogate: must be followed by an
                                // escaped low surrogate (RFC 8259 §7).
                                if !self.bytes[self.pos + 1..].starts_with(b"\\u") {
                                    return Err("unpaired surrogate in \\u escape".to_string());
                                }
                                self.pos += 2;
                                let low = self.hex_escape()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err("invalid low surrogate in \\u escape".to_string());
                                }
                                0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                code
                            };
                            out.push(
                                char::from_u32(scalar)
                                    .ok_or_else(|| "invalid \\u code point".to_string())?,
                            );
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 encoded character.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| format!("invalid UTF-8 at byte {start}"))?;
                    out.push_str(s);
                }
            }
        }
    }

    /// Reads the 4 hex digits of a `\uXXXX` escape. Entered with `pos` on the
    /// `u`; leaves `pos` on the last hex digit (the caller's shared advance
    /// steps past it).
    fn hex_escape(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .and_then(|h| std::str::from_utf8(h).ok())
            .ok_or_else(|| "truncated \\u escape".to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "invalid \\u escape".to_string())?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii digits");
        text.parse::<f64>()
            .map(Value::Number)
            .map_err(|_| format!("invalid number '{text}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_scalars() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse("true").unwrap(), Value::Bool(true));
        assert_eq!(parse("-2.5e3").unwrap(), Value::Number(-2500.0));
        assert_eq!(parse("\"a\\nb\"").unwrap(), Value::String("a\nb".into()));
    }

    #[test]
    fn parses_nested_structures() {
        let v = parse(r#"{"a": [1, 2, {"b": "c"}], "d": {}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("c")
        );
        assert_eq!(v.get("d"), Some(&Value::Object(BTreeMap::new())));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("1 2").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn string_escaping_round_trips() {
        let mut out = String::new();
        write_string(&mut out, "quote\" slash\\ tab\t ctrl\u{1} unicode é");
        let back = parse(&out).unwrap();
        assert_eq!(
            back.as_str(),
            Some("quote\" slash\\ tab\t ctrl\u{1} unicode é")
        );
    }

    #[test]
    fn surrogate_pair_escapes_decode_to_one_character() {
        // The standard JSON escaping of U+1F600 (as python's json.dumps emits).
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap().as_str(), Some("😀"));
        assert_eq!(
            parse(r#""😀""#).unwrap().as_str(),
            Some("😀"),
            "raw UTF-8 also works"
        );
        assert!(parse(r#""\ud83d""#).is_err(), "unpaired high surrogate");
        assert!(parse(r#""\ud83dA""#).is_err(), "high surrogate without low");
        assert!(
            parse(r#""\ude00""#).is_err(),
            "lone low surrogate is not a scalar"
        );
    }

    #[test]
    fn write_value_round_trips_nested_documents() {
        let doc = parse(r#"{"a":[1,2.5,null,true],"b":{"c":"x\ny"},"d":[]}"#).unwrap();
        let mut out = String::new();
        write_value(&mut out, &doc);
        assert_eq!(parse(&out).unwrap(), doc);
        // Non-finite numbers degrade to null on the way out.
        let mut out = String::new();
        write_value(&mut out, &Value::Array(vec![Value::Number(f64::NAN)]));
        assert_eq!(out, "[null]");
    }

    #[test]
    fn float_round_trip_is_exact() {
        for v in [0.1f32, 1.0 / 3.0, f32::MIN_POSITIVE, 12345.678] {
            let mut out = String::new();
            write_f32(&mut out, v);
            let back = parse(&out).unwrap().as_f64().unwrap() as f32;
            assert_eq!(back, v);
        }
    }
}
