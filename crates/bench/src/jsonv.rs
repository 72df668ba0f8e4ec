//! A dependency-free JSON parser and subset JSON-Schema validator.
//!
//! The repo hand-writes all of its JSON (there is no serde in the tree),
//! so CI needs an equally dependency-free way to hold the exported
//! observability artifacts to a contract. [`parse`] is a strict
//! recursive-descent JSON parser; [`validate`] checks a value against a
//! schema document using the subset of JSON Schema the checked-in schemas
//! under `schemas/` use: `type` (including `"integer"`), `required`,
//! `properties`, `items`, `enum` and `const`. Unknown keywords are
//! ignored, unknown object members are allowed — the contract pins shape,
//! not closed-world exactness.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// A parsed JSON value. Numbers are kept as `f64` (every number the
/// exporters emit is exactly representable or printed from an `f64` in the
/// first place).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; member order is not part of the contract, so a sorted
    /// map keeps lookups simple.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The array elements, or `None` for non-arrays.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, or `None` for non-strings.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// A parse failure, with the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input.
    pub at: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err<T>(&self, msg: &str) -> Result<T, ParseError> {
        Err(ParseError {
            at: self.i,
            msg: msg.to_string(),
        })
    }

    fn skip_ws(&mut self) {
        while let Some(&c) = self.b.get(self.i) {
            if c == b' ' || c == b'\t' || c == b'\n' || c == b'\r' {
                self.i += 1;
            } else {
                break;
            }
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), ParseError> {
        if self.b.get(self.i) == Some(&c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        self.skip_ws();
        match self.b.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{word}'"))
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).expect("digits are ASCII");
        match s.parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(Json::Num(v)),
            _ => self.err("malformed number"),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.i) {
                None => return self.err("unterminated string"),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = *self.b.get(self.i).ok_or(ParseError {
                        at: self.i,
                        msg: "unterminated escape".into(),
                    })?;
                    self.i += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex else {
                                return self.err("malformed \\u escape");
                            };
                            self.i += 4;
                            // Surrogate pairs are not emitted by our
                            // exporters; map lone surrogates to U+FFFD
                            // rather than failing the whole document.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                Some(&c) => {
                    if c < 0x20 {
                        return self.err("control character in string");
                    }
                    // Copy the full UTF-8 sequence starting here.
                    let ch_len = match c {
                        0x00..=0x7F => 1,
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let Some(chunk) = self.b.get(self.i..self.i + ch_len) else {
                        return self.err("truncated UTF-8");
                    };
                    let Ok(s) = std::str::from_utf8(chunk) else {
                        return self.err("invalid UTF-8");
                    };
                    out.push_str(s);
                    self.i += ch_len;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        let mut v = Vec::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(v));
        }
        loop {
            v.push(self.value()?);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(v));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        let mut m = BTreeMap::new();
        self.skip_ws();
        if self.b.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(m));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            m.insert(key, val);
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(m));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected).
///
/// # Errors
///
/// [`ParseError`] with the byte offset of the first malformed construct.
pub fn parse(text: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return p.err("trailing garbage after document");
    }
    Ok(v)
}

/// The members of a top-level JSON object: each member's name with the
/// byte range of its value text, in document order.
///
/// # Errors
///
/// [`ParseError`] when `text` is not one well-formed JSON object.
pub(crate) fn object_members(text: &str) -> Result<Vec<(String, Range<usize>)>, ParseError> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let mut members = Vec::new();
    p.skip_ws();
    p.expect(b'{')?;
    p.skip_ws();
    while p.b.get(p.i) != Some(&b'}') {
        if !members.is_empty() {
            p.expect(b',')?;
            p.skip_ws();
        }
        let key = p.string()?;
        p.skip_ws();
        p.expect(b':')?;
        p.skip_ws();
        let start = p.i;
        p.value()?;
        members.push((key, start..p.i));
        p.skip_ws();
    }
    p.i += 1;
    p.skip_ws();
    if p.i != p.b.len() {
        return p.err("trailing garbage after document");
    }
    Ok(members)
}

/// Validates `value` against `schema`, appending one message per violation
/// to `errors` with a JSON-Pointer-style path. Returns `true` when no
/// violation was found under this subtree.
pub fn validate(value: &Json, schema: &Json, path: &str, errors: &mut Vec<String>) -> bool {
    let before = errors.len();
    if let Some(ty) = schema.get("type").and_then(Json::as_str) {
        let ok = match ty {
            "object" => matches!(value, Json::Obj(_)),
            "array" => matches!(value, Json::Arr(_)),
            "string" => matches!(value, Json::Str(_)),
            "number" => matches!(value, Json::Num(_)),
            "integer" => matches!(value, Json::Num(n) if n.fract() == 0.0),
            "boolean" => matches!(value, Json::Bool(_)),
            "null" => matches!(value, Json::Null),
            other => {
                errors.push(format!("{path}: schema has unknown type '{other}'"));
                true
            }
        };
        if !ok {
            errors.push(format!("{path}: expected type {ty}, got {value:?}"));
            return false;
        }
    }
    if let Some(expected) = schema.get("const") {
        if value != expected {
            errors.push(format!(
                "{path}: expected const {expected:?}, got {value:?}"
            ));
        }
    }
    if let Some(options) = schema.get("enum").and_then(Json::as_arr) {
        if !options.contains(value) {
            errors.push(format!("{path}: {value:?} not in enum"));
        }
    }
    if let Some(required) = schema.get("required").and_then(Json::as_arr) {
        for name in required.iter().filter_map(Json::as_str) {
            if value.get(name).is_none() {
                errors.push(format!("{path}: missing required member '{name}'"));
            }
        }
    }
    if let (Some(Json::Obj(props)), Json::Obj(members)) = (schema.get("properties"), value) {
        for (name, sub) in props {
            if let Some(member) = members.get(name) {
                validate(member, sub, &format!("{path}/{name}"), errors);
            }
        }
    }
    if let (Some(item_schema), Json::Arr(items)) = (schema.get("items"), value) {
        for (i, item) in items.iter().enumerate() {
            validate(item, item_schema, &format!("{path}/{i}"), errors);
        }
    }
    errors.len() == before
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\n\"y\""}, "d": null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\n\"y\"")
        );
        assert_eq!(v.get("d"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn validates_types_required_and_items() {
        let schema = parse(
            r#"{"type":"object","required":["n","xs"],
                "properties":{"n":{"type":"integer"},
                              "xs":{"type":"array","items":{"type":"number"}}}}"#,
        )
        .unwrap();
        let mut errs = Vec::new();
        let good = parse(r#"{"n": 3, "xs": [1.5, 2]}"#).unwrap();
        assert!(validate(&good, &schema, "$", &mut errs), "{errs:?}");
        let bad = parse(r#"{"n": 3.5, "xs": [1.5, "two"]}"#).unwrap();
        assert!(!validate(&bad, &schema, "$", &mut errs));
        assert_eq!(errs.len(), 2, "{errs:?}");
        let missing = parse(r#"{"n": 3}"#).unwrap();
        errs.clear();
        assert!(!validate(&missing, &schema, "$", &mut errs));
    }
}
