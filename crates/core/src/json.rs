//! A hand-rolled JSON value model, writer, and parser.
//!
//! The build environment has no registry access, so the experiment
//! engine cannot lean on `serde`; this module provides exactly the
//! JSON surface the report pipeline needs:
//!
//! * [`Json`] — an ordered value tree (object keys keep insertion
//!   order, so serialization is deterministic byte-for-byte);
//! * [`Json::to_json_string`] — a compact writer with full string
//!   escaping;
//! * [`Json::parse`] — a strict recursive-descent parser, used by the
//!   CLI's `validate` subcommand and by tests to check that every
//!   emitted report is well-formed;
//! * the field accessors [`Json::str_at`], [`Json::count_at`],
//!   [`Json::num_at`], [`Json::arr_at`] and [`Json::obj_at`] — the one
//!   way every reader (reports, indexes, bench documents, cache stats,
//!   serve requests) takes a typed field out of a parsed document, with
//!   one whole-number rule ([`Json::as_count`]) and one error,
//!   [`FieldError`].
//!
//! Numbers are stored as `f64`. Values without a fractional part
//! serialize as integers; non-finite values (which valid reports never
//! contain) serialize as `null`.

use core::fmt::Write as _;

/// An ordered JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order (deterministic output).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs, preserving order.
    #[must_use]
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a string value.
    #[must_use]
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Looks up a key in an object (first match; `None` otherwise).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The numeric payload as a count: an integer from 0 to 2^53 that
    /// fits `T` (`2.5`, `-5`, `1e20` and `"5"` are not counts). Up to
    /// 2^53 every integer is an exact `f64` that the writer spells
    /// digit for digit, so a count read back writes its own bytes.
    /// This is the one whole-number rule of every reader.
    #[must_use]
    pub fn as_count<T: TryFrom<u64>>(&self) -> Option<T> {
        let x = self.as_f64()?;
        if x.fract() != 0.0 || !(0.0..=MAX_COUNT).contains(&x) {
            return None;
        }
        T::try_from(x as u64).ok()
    }

    /// The element list, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    // The field accessors: each reads `key` of this object, and fails
    // with a `FieldError` naming the key and the type it expected when
    // the key is absent or holds another type.

    /// The string at `key`.
    pub fn str_at(&self, key: &str) -> Result<&str, FieldError> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| FieldError::new(key, "string"))
    }

    /// The count at `key` ([`Json::as_count`]).
    pub fn count_at<T: TryFrom<u64>>(&self, key: &str) -> Result<T, FieldError> {
        self.get(key)
            .and_then(Json::as_count)
            .ok_or_else(|| FieldError::new(key, "whole-number"))
    }

    /// The number at `key`.
    pub fn num_at(&self, key: &str) -> Result<f64, FieldError> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| FieldError::new(key, "number"))
    }

    /// The array at `key`.
    pub fn arr_at(&self, key: &str) -> Result<&[Json], FieldError> {
        self.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| FieldError::new(key, "array"))
    }

    /// The `(key, value)` pairs of the object at `key`.
    pub fn obj_at(&self, key: &str) -> Result<&[(String, Json)], FieldError> {
        match self.get(key) {
            Some(Json::Obj(pairs)) => Ok(pairs),
            _ => Err(FieldError::new(key, "object")),
        }
    }

    /// Serializes compactly (no whitespace), deterministically.
    #[must_use]
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_number(*x, out),
            Json::Str(s) => write_string(s, out),
            Json::Arr(v) => {
                out.push('[');
                for (i, item) in v.iter().enumerate() {
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
                    write_string(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses a JSON document (one value, surrounded by optional
    /// whitespace). Strict: trailing garbage, unescaped control
    /// characters, and malformed numbers are errors.
    ///
    /// Uses [`ParseLimits::TRUSTED`] — the right bounds for documents
    /// this workspace wrote itself (reports, goldens, indexes).
    /// Input that crosses a trust boundary (network frames, anything a
    /// client sent) must go through [`Json::parse_with_limits`] with
    /// [`ParseLimits::UNTRUSTED`] or tighter.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the byte offset and the problem.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        Json::parse_with_limits(text, &ParseLimits::TRUSTED)
    }

    /// [`Json::parse`] under explicit resource bounds.
    ///
    /// The size cap is checked before any parsing work, so a huge
    /// hostile document costs one length comparison, not an allocation;
    /// the depth limit turns deeply nested arrays/objects into a parse
    /// error instead of unbounded recursion (a stack overflow aborts
    /// the whole process — unacceptable once the parser reads network
    /// input).
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] naming the byte offset and the problem;
    /// over-limit input reports which limit it broke.
    pub fn parse_with_limits(text: &str, limits: &ParseLimits) -> Result<Json, ParseError> {
        if let Some(cap) = limits.max_bytes {
            if text.len() > cap {
                return Err(ParseError {
                    offset: cap,
                    message: format!("input is {} bytes, over the {cap}-byte limit", text.len()),
                });
            }
        }
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
            max_depth: limits.max_depth,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err("trailing characters after the document"));
        }
        Ok(v)
    }
}

/// 2^53, the largest count [`Json::as_count`] accepts: every integer
/// up to it is an exact `f64`.
const MAX_COUNT: f64 = 9_007_199_254_740_992.0;

/// A field a reader needs is absent or has the wrong type. Displays as
/// `missing <type> field: <key>`, the wording of serve's replies.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FieldError {
    /// The key that was looked up.
    pub key: String,
    /// The type the reader expected (`string`, `whole-number`, …).
    pub expected: &'static str,
}

impl FieldError {
    fn new(key: &str, expected: &'static str) -> FieldError {
        FieldError {
            key: key.to_string(),
            expected,
        }
    }
}

impl core::fmt::Display for FieldError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "missing {} field: {}", self.expected, self.key)
    }
}

impl std::error::Error for FieldError {}

impl From<FieldError> for String {
    fn from(e: FieldError) -> String {
        e.to_string()
    }
}

/// Resource bounds applied while parsing.
///
/// Two presets cover the workspace: [`ParseLimits::TRUSTED`] for
/// documents produced by this codebase (no size cap — golden report
/// corpora are large and well-formed), and [`ParseLimits::UNTRUSTED`]
/// for input that crossed a trust boundary, where both knobs are
/// deliberately tight. Callers with their own threat model (e.g. the
/// serve layer's configurable frame cap) build explicit values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum container nesting depth; the value at `max_depth`
    /// levels of `[`/`{` is rejected.
    pub max_depth: usize,
    /// Maximum input length in bytes (`None` = unbounded).
    pub max_bytes: Option<usize>,
}

impl ParseLimits {
    /// Bounds for self-produced documents: generous depth, no size cap.
    pub const TRUSTED: ParseLimits = ParseLimits {
        max_depth: 128,
        max_bytes: None,
    };

    /// Default bounds for input from outside the process: report-shaped
    /// documents are at most a handful of levels deep and far under a
    /// megabyte, so 32 levels and 4 MiB reject abuse without ever
    /// touching legitimate traffic.
    pub const UNTRUSTED: ParseLimits = ParseLimits {
        max_depth: 32,
        max_bytes: Some(4 << 20),
    };
}

fn write_number(x: f64, out: &mut String) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x == x.trunc() && x.abs() < MAX_COUNT {
        let _ = write!(out, "{}", x as i64);
    } else {
        // Rust's shortest round-trip formatting: deterministic, and
        // `{e}` notation never appears for f64 `Display`.
        let _ = write!(out, "{x}");
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
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A parse failure: byte offset plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure in the input.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "JSON parse error at byte {}: {}",
            self.offset, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
    max_depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            offset: self.pos,
            message: msg.into(),
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
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        if self.depth >= self.max_depth {
            return Err(self.err(format!("nesting too deep (over {} levels)", self.max_depth)));
        }
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {word:?}")))
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        self.depth += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            // Duplicate keys would make `get` lookups ambiguous and
            // let two different documents serialize identically — the
            // strict parser refuses them.
            if pairs.iter().any(|(k, _)| *k == key) {
                return Err(self.err(format!("duplicate key {key:?} in object")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        self.depth += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
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
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let start = self.pos;
            // Fast path: a run of plain (non-escape, non-control) bytes.
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' || c < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            if self.pos > start {
                // The input is a &str, so the byte run is valid UTF-8.
                s.push_str(core::str::from_utf8(&self.bytes[start..self.pos]).expect("utf8 input"));
            }
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'n') => s.push('\n'),
                        Some(b'r') => s.push('\r'),
                        Some(b't') => s.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let c = self.unicode_escape()?;
                            s.push(c);
                            continue; // unicode_escape advanced pos itself
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = core::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .ok()
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn unicode_escape(&mut self) -> Result<char, ParseError> {
        let hi = self.hex4()?;
        if (0xD800..0xDC00).contains(&hi) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let lo = self.hex4()?;
                if (0xDC00..0xE000).contains(&lo) {
                    let c = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                    return char::from_u32(c).ok_or_else(|| self.err("invalid surrogate pair"));
                }
            }
            return Err(self.err("unpaired surrogate"));
        }
        char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_from = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_from {
            return Err(self.err("expected digits"));
        }
        // JSON forbids leading zeros: 0 is fine, 01 is not.
        if self.bytes[digits_from] == b'0' && self.pos - digits_from > 1 {
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_from {
                return Err(self.err("expected fraction digits"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_from = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_from {
                return Err(self.err("expected exponent digits"));
            }
        }
        let token = core::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        // A token beyond f64's range would read as an infinity, which no
        // writer emits (it writes `null`): refuse it, naming the token.
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::Num(x)),
            Ok(_) => {
                // The token is ASCII, so any byte index is a char boundary.
                let more = if token.len() > 40 { "..." } else { "" };
                Err(ParseError {
                    offset: start,
                    message: format!(
                        "number out of range: {}{more}",
                        &token[..token.len().min(40)]
                    ),
                })
            }
            Err(_) => Err(self.err("invalid number")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_and_parses_round_trip() {
        let v = Json::obj(vec![
            ("name", Json::str("fig01")),
            ("count", Json::Num(42.0)),
            ("ratio", Json::Num(5.82)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            (
                "rows",
                Json::Arr(vec![
                    Json::Arr(vec![Json::str("a"), Json::str("1")]),
                    Json::Arr(vec![Json::str("b\n\"quoted\""), Json::str("-inf")]),
                ]),
            ),
        ]);
        let s = v.to_json_string();
        assert_eq!(Json::parse(&s).unwrap(), v);
        // Integers serialize without a decimal point.
        assert!(s.contains("\"count\":42,"), "{s}");
    }

    #[test]
    fn escapes_are_exact() {
        let s = Json::str("tab\tnewline\nquote\"back\\slash\u{1}").to_json_string();
        assert_eq!(s, "\"tab\\tnewline\\nquote\\\"back\\\\slash\\u0001\"");
        assert_eq!(
            Json::parse(&s).unwrap(),
            Json::str("tab\tnewline\nquote\"back\\slash\u{1}")
        );
    }

    #[test]
    fn parses_standard_documents() {
        let v = Json::parse(r#" { "a": [1, -2.5, 1e3], "b": { "c": "é😀" } } "#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[2], Json::Num(1000.0));
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str().unwrap(),
            "é😀"
        );
        // Zero forms are legal; only *leading* zeros are not.
        let zeros = Json::parse("[0, 0.5, -0.125, 10, 0e2]").unwrap();
        assert_eq!(zeros.as_arr().unwrap().len(), 5);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "tru",
            "1.2.3",
            "\"unterminated",
            "{} trailing",
            "\"bad \\q escape\"",
            "\"unpaired \\ud800 surrogate\"",
            "01e",
            "-",
            "[\"\u{1}\"]",
            "01",
            "[007.5]",
            "-01",
            "{\"a\":1,\"a\":2}",
            "{\"a\":{\"b\":1,\"b\":1}}",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        // But a lone high surrogate followed by a pair is fine.
        assert!(Json::parse("\"\\ud83d\\ude00\"").is_ok());
    }

    #[test]
    fn counts_are_the_integers_from_0_to_2_pow_53_that_fit() {
        let count = |text: &str| Json::parse(text).unwrap().as_count::<u64>();
        assert_eq!(count("0"), Some(0));
        assert_eq!(count("9007199254740992"), Some(1 << 53));
        assert_eq!(
            Json::Num((1u64 << 53) as f64).to_json_string(),
            "9007199254740992"
        );
        for not in ["9007199254740994", "1e20", "-1", "2.5", "\"5\"", "null"] {
            assert_eq!(count(not), None, "{not}");
        }
        assert_eq!(Json::Num(70_000.0).as_count::<u16>(), None);
        let doc = Json::parse(r#"{"n":3,"s":"x","a":[],"o":{}}"#).unwrap();
        assert_eq!(doc.count_at::<usize>("n"), Ok(3));
        assert_eq!(doc.str_at("s"), Ok("x"));
        assert_eq!(doc.arr_at("a").map(<[Json]>::len), Ok(0));
        assert_eq!(doc.obj_at("o").map(<[(String, Json)]>::len), Ok(0));
        assert_eq!(doc.num_at("n"), Ok(3.0));
        let err = doc.count_at::<u64>("s").unwrap_err();
        assert_eq!(err.to_string(), "missing whole-number field: s");
        assert_eq!(
            doc.obj_at("missing").unwrap_err().to_string(),
            "missing object field: missing"
        );
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(Json::Num(f64::NAN).to_json_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_json_string(), "null");
    }

    #[test]
    fn numbers_beyond_f64_range_are_refused_by_name() {
        for (doc, token) in [(r#"{"x":1e999}"#, "1e999"), (r#"[0,-1E+400]"#, "-1E+400")] {
            let err = Json::parse(doc).unwrap_err();
            assert_eq!(
                err.message,
                format!("number out of range: {token}"),
                "{doc}"
            );
            assert_eq!(err.offset, doc.find(token).unwrap(), "{doc}");
        }
        let long = format!("[{}]", "9".repeat(400));
        let err = Json::parse(&long).unwrap_err();
        assert_eq!(
            err.message,
            format!("number out of range: {}...", "9".repeat(40))
        );
        // The largest finite values and underflow to zero still read.
        assert_eq!(
            Json::parse("1.7976931348623157e308"),
            Ok(Json::Num(f64::MAX))
        );
        assert_eq!(Json::parse("-1e-999"), Ok(Json::Num(-0.0)));
    }

    #[test]
    fn deep_nesting_is_bounded() {
        let deep = "[".repeat(200) + &"]".repeat(200);
        assert!(Json::parse(&deep).is_err());
        let ok = "[".repeat(100) + &"]".repeat(100);
        assert!(Json::parse(&ok).is_ok());
    }

    // ---------------------------------------------------------------
    // Adversarial inputs: what a hostile network client could send.
    // Every case must produce a ParseError — never a panic, a stack
    // overflow, or a runaway allocation.
    // ---------------------------------------------------------------

    #[test]
    fn hostile_deep_nesting_errors_instead_of_overflowing() {
        // 4096 levels would overflow the stack of a naive recursive
        // parser long before the closing brackets are reached.
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            let deep = open.repeat(4096) + "0" + &close.repeat(4096);
            let err = Json::parse(&deep).expect_err("4k nesting must be rejected");
            assert!(err.message.contains("nesting too deep"), "{err}");
            let err = Json::parse_with_limits(&deep, &ParseLimits::UNTRUSTED)
                .expect_err("4k nesting must be rejected under UNTRUSTED too");
            assert!(err.message.contains("nesting too deep"), "{err}");
        }
        // An unclosed nesting bomb (no closing brackets at all) is the
        // cheaper attack — same rejection, before the input runs out.
        let bomb = "[".repeat(1 << 16);
        assert!(Json::parse(&bomb).is_err());
    }

    #[test]
    fn depth_limit_boundary_is_exact() {
        let limits = ParseLimits {
            max_depth: 8,
            max_bytes: None,
        };
        let at = "[".repeat(8) + &"]".repeat(8);
        assert!(Json::parse_with_limits(&at, &limits).is_ok());
        let over = "[".repeat(9) + &"]".repeat(9);
        assert!(Json::parse_with_limits(&over, &limits).is_err());
    }

    #[test]
    fn size_cap_rejects_before_parsing() {
        let limits = ParseLimits {
            max_depth: 32,
            max_bytes: Some(64),
        };
        // A huge single token (string or number spelling) over the cap.
        let huge_string = format!("\"{}\"", "a".repeat(1 << 16));
        let err = Json::parse_with_limits(&huge_string, &limits).unwrap_err();
        assert_eq!(err.offset, 64);
        assert!(err.message.contains("over the 64-byte limit"), "{err}");
        let huge_number = format!("1{}", "0".repeat(1 << 16));
        assert!(Json::parse_with_limits(&huge_number, &limits).is_err());
        // At or under the cap, the same shapes parse.
        assert!(Json::parse_with_limits("\"aaaa\"", &limits).is_ok());
        let exactly = format!("\"{}\"", "a".repeat(62));
        assert_eq!(exactly.len(), 64);
        assert!(Json::parse_with_limits(&exactly, &limits).is_ok());
        // TRUSTED has no cap: the huge token is well-formed and parses.
        assert!(Json::parse(&huge_string).is_ok());
    }

    #[test]
    fn truncated_frames_error_cleanly() {
        // Prefixes of a valid document — what a dropped connection
        // leaves behind — must all error, at every cut point.
        let doc = r#"{"schema":"compstat-serve/v1","id":"r1","cols":[[0.25,1e-9],[0.5]]}"#;
        assert!(Json::parse(doc).is_ok());
        for n in 0..doc.len() {
            assert!(
                Json::parse(&doc[..n]).is_err(),
                "prefix of {n} bytes must not parse"
            );
        }
        // Truncation inside multi-byte tokens and escapes.
        for bad in ["\"abc", "\"ab\\", "\"ab\\u00", "[1,2", "{\"a\"", "12e", "-"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }
}
