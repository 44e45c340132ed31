//! Minimal JSON value, writer and reader for benchmark reports.
//!
//! The workspace builds fully offline — no serde — so the `hsqp` driver
//! builds its reports as [`Json`] values and prints them through
//! [`Display`](fmt::Display), and tests and `hsqp_bench` read them back
//! with [`parse`], a small recursive-descent parser. The parser accepts
//! the complete JSON grammar (objects, arrays, strings with escapes,
//! numbers, booleans, null), so a report gaining fields never requires
//! touching it.

use std::collections::BTreeMap;
use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (an f64 — exact for the row counts and
    /// millisecond timings the reports carry).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is not preserved (sorted map).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Member `key` of an object, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Writes the value as JSON text that [`parse`] reads back. A container
/// holding only scalars goes on one line; any other container puts each
/// member on a line of its own, indented two spaces per level. Numbers use
/// Rust's shortest round-trip form, and a non-finite number is `null`.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_value(f, self, 0)
    }
}

fn is_container(v: &Json) -> bool {
    matches!(v, Json::Arr(_) | Json::Obj(_))
}

fn write_value(f: &mut fmt::Formatter<'_>, v: &Json, depth: usize) -> fmt::Result {
    match v {
        Json::Null => f.write_str("null"),
        Json::Bool(b) => write!(f, "{b}"),
        Json::Num(n) if n.is_finite() => write!(f, "{n}"),
        Json::Num(_) => f.write_str("null"),
        Json::Str(s) => write_str(f, s),
        Json::Arr(items) => {
            let nested = items.iter().any(is_container);
            write_members(f, ('[', ']'), nested, depth, items, |f, item| {
                write_value(f, item, depth + 1)
            })
        }
        Json::Obj(members) => {
            let nested = members.values().any(is_container);
            write_members(f, ('{', '}'), nested, depth, members, |f, (k, v)| {
                write_str(f, k)?;
                f.write_str(": ")?;
                write_value(f, v, depth + 1)
            })
        }
    }
}

/// Write a container's members between `brackets`: inline when no member
/// is itself a container, else one member per line.
fn write_members<I: IntoIterator>(
    f: &mut fmt::Formatter<'_>,
    brackets: (char, char),
    nested: bool,
    depth: usize,
    members: I,
    mut member: impl FnMut(&mut fmt::Formatter<'_>, I::Item) -> fmt::Result,
) -> fmt::Result {
    f.write_char(brackets.0)?;
    let mut first = true;
    for m in members {
        if !first {
            f.write_char(',')?;
        }
        if nested {
            write!(f, "\n{:1$}", "", 2 * (depth + 1))?;
        } else if !first {
            f.write_char(' ')?;
        }
        first = false;
        member(f, m)?;
    }
    if nested && !first {
        write!(f, "\n{:1$}", "", 2 * depth)?;
    }
    f.write_char(brackets.1)
}

fn write_str(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// A parse failure with its byte offset in the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where parsing failed.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parse a complete JSON document (rejects trailing garbage).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> ParseError {
        ParseError {
            at: self.pos,
            msg: msg.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            map.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
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
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ASCII in \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates (paired or lone) are not needed by
                            // the bench schema; map them to the replacement
                            // character instead of failing the whole file.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar; `pos` only ever advances by
                    // whole ASCII tokens or len_utf8, so it stays a char
                    // boundary of the original &str.
                    let c = self.input[self.pos..].chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ASCII digits are valid UTF-8");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_shaped_document() {
        let doc = r#"{
            "schema": "hsqp-bench-v1",
            "sf": 0.01,
            "queries": [
                {"query": 1, "rows": 4, "ms": 12.5, "bytes_shuffled": 1024},
                {"query": 3, "rows": 10, "ms": 7.25, "bytes_shuffled": 0}
            ]
        }"#;
        let v = parse(doc).unwrap();
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some("hsqp-bench-v1")
        );
        let queries = v.get("queries").and_then(Json::as_arr).unwrap();
        assert_eq!(queries.len(), 2);
        assert_eq!(queries[1].get("rows").and_then(Json::as_f64), Some(10.0));
    }

    #[test]
    fn parses_escapes_and_nesting() {
        let v = parse(r#"{"a": "x\n\"yA", "b": [true, false, null, -1.5e2]}"#).unwrap();
        assert_eq!(v.get("a").and_then(Json::as_str), Some("x\n\"yA"));
        let b = v.get("b").and_then(Json::as_arr).unwrap();
        assert_eq!(b[0], Json::Bool(true));
        assert_eq!(b[3], Json::Num(-150.0));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("").is_err());
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} extra").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn empty_containers() {
        assert_eq!(parse("{}").unwrap(), Json::Obj(BTreeMap::new()));
        assert_eq!(parse("[]").unwrap(), Json::Arr(Vec::new()));
    }

    #[test]
    fn written_values_parse_back_unchanged() {
        let value = Json::obj([
            ("name", Json::Str("a \"quoted\"\n\tline \\ \u{1}".into())),
            ("n", Json::Num(0.1 + 0.2)),
            ("big", Json::Num(1.0e21)),
            ("tiny", Json::Num(-2.5e-9)),
            ("empty", Json::Arr(Vec::new())),
            ("none", Json::obj([])),
            (
                "queries",
                Json::Arr(vec![
                    Json::obj([("query", Json::Num(1.0)), ("ok", Json::Bool(true))]),
                    Json::obj([("query", Json::Num(2.0)), ("error", Json::Null)]),
                ]),
            ),
        ]);
        let text = value.to_string();
        assert_eq!(parse(&text).expect("valid JSON"), value, "{text}");
        // Scalar-only containers stay on one line; the others nest.
        assert!(
            text.contains("\n    {\"ok\": true, \"query\": 1},\n"),
            "{text}"
        );
        assert!(text.starts_with("{\n  \"big\": "), "{text}");
        assert!(text.ends_with("\n}"), "{text}");
    }

    #[test]
    fn non_finite_numbers_are_written_as_null() {
        let text = Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::INFINITY)]).to_string();
        assert_eq!(text, "[null, null]");
        assert_eq!(
            parse(&text).unwrap(),
            Json::Arr(vec![Json::Null, Json::Null])
        );
    }
}
