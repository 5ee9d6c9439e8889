//! Minimal JSON encoding/decoding shared by the metrics exporter and the
//! sweep result store.
//!
//! Everything this workspace persists is flat and numeric (counter
//! values, interaction counts, count vectors), so a full serialization
//! framework would be pure overhead — and the offline build environment
//! could not fetch one anyway. This module implements exactly the subset
//! those formats emit: objects, arrays, unsigned 64-bit integers,
//! strings, `null`, and booleans. No floats: everything persisted is
//! integral, which is also what makes re-encoding byte-stable.
//!
//! (Historically this lived in `pp-sweep`; it moved here so the
//! telemetry core stays dependency-free while `pp-sweep` re-exports it
//! unchanged.)

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A JSON value (no floats; see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Unsigned integer.
    U64(u64),
    /// Negative integer (encoded with a leading `-`). Non-negative
    /// integers always use [`Value::U64`], so each integer has exactly
    /// one representation and re-encoding stays byte-stable.
    I64(i64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object; `BTreeMap` so encoding order is canonical.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// Build an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Value)>) -> Value {
        Value::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Array of unsigned integers.
    pub fn u64_arr(xs: impl IntoIterator<Item = u64>) -> Value {
        Value::Arr(xs.into_iter().map(Value::U64).collect())
    }

    /// `interactions`-style optional integer.
    pub fn opt_u64(x: Option<u64>) -> Value {
        match x {
            Some(v) => Value::U64(v),
            None => Value::Null,
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// Unsigned integer contents, if that is what this is.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::U64(x) => Some(*x),
            _ => None,
        }
    }

    /// String contents, if that is what this is.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array contents, if that is what this is.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Encode to a compact canonical string (object keys sorted).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    fn encode_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Value::U64(x) => {
                let _ = write!(out, "{x}");
            }
            Value::I64(x) => {
                let _ = write!(out, "{x}");
            }
            Value::Str(s) => encode_str(s, out),
            Value::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.encode_into(out);
                }
                out.push(']');
            }
            Value::Obj(map) => {
                out.push('{');
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_str(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document; `Err` carries a byte offset and
    /// message. Trailing whitespace is allowed, other trailing content is
    /// an error (journal/JSONL lines must be exactly one value).
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing content"));
        }
        Ok(v)
    }
}

/// Parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn encode_str(s: &str, out: &mut String) {
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn eat_lit(&mut self, lit: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'n') => self.eat_lit("null", Value::Null),
            Some(b't') => self.eat_lit("true", Value::Bool(true)),
            Some(b'f') => self.eat_lit("false", Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'0'..=b'9') | Some(b'-') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        // Reject the float/exponent forms the persisted formats never write.
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floats are not part of the persisted format"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .ok_or_else(|| self.err("invalid number"))?;
        if negative {
            // Canonical form: negative integers parse to I64, everything
            // else to U64, so parse ∘ encode is the identity.
            text.parse()
                .map(Value::I64)
                .map_err(|_| self.err("invalid number"))
        } else {
            text.parse()
                .map(Value::U64)
                .map_err(|_| self.err("invalid number"))
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"', "expected string")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                        Some(b'u') => {
                            if self.pos + 4 >= self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code).ok_or_else(|| self.err("bad codepoint"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // boundaries are valid by construction).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).expect("input is valid UTF-8");
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.eat(b'[', "expected array")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.eat(b'{', "expected object")?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':', "expected :")?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(map));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_store_shapes() {
        let v = Value::obj([
            ("key", Value::Str("ukp:k=4|n=96".into())),
            (
                "trials",
                Value::Arr(vec![
                    Value::obj([
                        ("trial", Value::U64(0)),
                        ("interactions", Value::U64(1234)),
                        ("completions", Value::u64_arr([10, 20])),
                        ("final_counts", Value::Null),
                    ]),
                    Value::obj([("trial", Value::U64(1)), ("interactions", Value::Null)]),
                ]),
            ),
        ]);
        let text = v.encode();
        assert_eq!(Value::parse(&text).unwrap(), v);
    }

    #[test]
    fn canonical_encoding_is_stable() {
        let a = Value::obj([("b", Value::U64(1)), ("a", Value::U64(2))]);
        // BTreeMap: keys sorted regardless of insertion order.
        assert_eq!(a.encode(), "{\"a\":2,\"b\":1}");
    }

    #[test]
    fn rejects_truncation_and_trailing() {
        assert!(Value::parse("{\"a\":1").is_err());
        assert!(Value::parse("{\"a\":1} x").is_err());
        assert!(Value::parse("{\"a\":1.5}").is_err());
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{\"a\"").is_err());
    }

    #[test]
    fn string_escapes_roundtrip() {
        let v = Value::Str("line\n\"quote\"\\tab\t\u{1}".into());
        assert_eq!(Value::parse(&v.encode()).unwrap(), v);
    }
}
