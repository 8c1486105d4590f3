//! A minimal JSON value, renderer and parser.
//!
//! The build environment vendors no serde, so every JSON report (lint
//! diagnostics, fleet snapshots, scenario suites, ingest deliveries) is
//! a tiny [`Value`] tree rendered by one byte-stable renderer (objects
//! keep insertion order, two-space indent, `\n` line ends), with a
//! strict parser used to prove the rendering round-trips. Only what the
//! reports need is supported — no floats, no unicode escapes beyond
//! `\u`, no trailing commas.

use std::fmt::Write as _;

/// A JSON value. Numbers are integers — reports only carry counts,
/// coordinates, epochs and seeds. Object member order is preserved (and
/// significant for the byte-stable golden output).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer.
    Num(i64),
    /// An integer above `i64::MAX` (a `u64` seed or client id). The
    /// parser and `From<u64>` put every smaller one in [`Value::Num`],
    /// so each number has one representation.
    UNum(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// Convenience object constructor; members keep the given order.
    pub fn obj<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::Obj(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Member lookup on objects; `None` elsewhere.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders with two-space indentation and a trailing newline —
    /// byte-stable for golden files.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        let pad = "  ".repeat(depth + 1);
        let close = "  ".repeat(depth);
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Value::UNum(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Str(s) => out.push_str(&json_str(s)),
            Value::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    out.push_str(&pad);
                    item.render_into(out, depth + 1);
                    out.push_str(if i + 1 < items.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push(']');
            }
            Value::Obj(members) => {
                if members.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&json_str(k));
                    out.push_str(": ");
                    v.render_into(out, depth + 1);
                    out.push_str(if i + 1 < members.len() { ",\n" } else { "\n" });
                }
                out.push_str(&close);
                out.push('}');
            }
        }
    }

    /// Strict parse of one JSON document (surrounding whitespace ok).
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(text, bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

impl From<u64> for Value {
    fn from(n: u64) -> Value {
        i64::try_from(n).map_or(Value::UNum(n), Value::Num)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::from(n as u64)
    }
}

impl From<u32> for Value {
    fn from(n: u32) -> Value {
        Value::Num(n.into())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl FromIterator<Value> for Value {
    fn from_iter<I: IntoIterator<Item = Value>>(items: I) -> Value {
        Value::Arr(items.into_iter().collect())
    }
}

/// `s` as a quoted JSON string: quote, backslash and control
/// characters escaped, everything else verbatim.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {}, got {:?}",
            b as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

fn parse_value(text: &str, bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(text, bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(text, bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    other => return Err(format!("expected ',' or ']', got {other:?}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(text, bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                let value = parse_value(text, bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    other => return Err(format!("expected ',' or '}}', got {other:?}")),
                }
            }
        }
        Some(b'-' | b'0'..=b'9') => {
            let start = *pos;
            if bytes[*pos] == b'-' {
                *pos += 1;
            }
            while matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
                *pos += 1;
            }
            let digits = &text[start..*pos];
            digits.parse().map(Value::Num).or_else(|e| {
                digits
                    .parse()
                    .map(Value::UNum)
                    .map_err(|_| format!("bad number at byte {start}: {e}"))
            })
        }
        Some(&other) => Err(format!("unexpected {:?} at byte {}", other as char, *pos)),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("expected {lit:?} at byte {pos:?}"))
    }
}

fn parse_string(text: &str, bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b'u') => {
                        let hex = text.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let cp =
                            u32::from_str_radix(hex, 16).map_err(|e| format!("bad \\u: {e}"))?;
                        out.push(char::from_u32(cp).ok_or("surrogate \\u escape")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one full UTF-8 scalar.
                let rest = &text[*pos..];
                let c = rest.chars().next().ok_or("invalid utf-8 position")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn renders_and_parses_round_trip() {
        let v = Value::Obj(vec![
            ("version".into(), Value::Num(1)),
            (
                "items".into(),
                Value::Arr(vec![
                    Value::str("a \"quoted\"\nline"),
                    Value::Num(-42),
                    Value::Bool(true),
                    Value::Null,
                    Value::Obj(vec![]),
                    Value::Arr(vec![]),
                ]),
            ),
        ]);
        let text = v.render();
        let back = Value::parse(&text).unwrap();
        assert_eq!(back, v);
        // Byte-stable: render(parse(render(v))) == render(v).
        assert_eq!(back.render(), text);
    }

    #[test]
    fn rejects_garbage() {
        assert!(Value::parse("").is_err());
        assert!(Value::parse("{").is_err());
        assert!(Value::parse("[1,]").is_err());
        assert!(Value::parse("{} extra").is_err());
        assert!(Value::parse("\"unterminated").is_err());
    }

    #[test]
    fn json_str_escapes_what_json_requires() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(
            json_str("a\"b\\c\nd\re\tf\u{1}g\u{e9}"),
            "\"a\\\"b\\\\c\\nd\\re\\tf\\u0001g\u{e9}\""
        );
    }

    #[test]
    fn u64_numbers_print_and_parse_exactly() {
        for n in [0, 7, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX] {
            let v = Value::from(n);
            assert_eq!(v.render(), format!("{n}\n"));
            assert_eq!(Value::parse(&v.render()).unwrap(), v);
        }
        assert_eq!(Value::from(5u64), Value::Num(5));
        assert_eq!(Value::from(u64::MAX), Value::UNum(u64::MAX));
        assert!(Value::parse("18446744073709551616").is_err());
        assert!(Value::parse("-9223372036854775809").is_err());
    }

    #[test]
    fn get_looks_up_object_members() {
        let v = Value::parse("{\"a\": 1, \"b\": [2]}").unwrap();
        assert_eq!(v.get("a"), Some(&Value::Num(1)));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.get("b").unwrap(), &Value::Arr(vec![Value::Num(2)]));
    }
}
