//! Minimal, dependency-free JSON support shared across the workspace.
//!
//! The workspace is dependency-free by policy (see `crates/vendor/`), so
//! the small amount of JSON it needs — append-only campaign records, the
//! committed `BENCH_*.json` files, and the `serve` wire protocol — is
//! handled by a ~150-line recursive-descent parser and a couple of
//! writers instead of `serde`. Numbers format through Rust's
//! shortest-roundtrip `Display`, which is deterministic — the property
//! the campaign's byte-identical resume guarantee rests on.
//!
//! Lived in `ea_bench::json` until 0.6; promoted here so the serve
//! daemon (and anything else below the benchmark harness) can speak the
//! protocol without depending on the experiment crate.
//!
//! Strictness notes (the wire protocol relies on these):
//!
//! * non-finite numbers are **rejected** on parse (`NaN`, `Infinity`,
//!   and any exponent that overflows to ±inf) — JSON has no such
//!   literals, and [`fmt_f64`] maps non-finite values to `null` on the
//!   way out, so a round trip can never smuggle one in;
//! * `\uXXXX` escapes decode surrogate *pairs* to the astral code point;
//!   a lone surrogate decodes to U+FFFD rather than erroring (our own
//!   writers never emit one);
//! * arrays and objects nest at most [`MAX_DEPTH`] deep — the parser
//!   recurses per level, so an unbounded frame of `[` would overflow the
//!   stack (an abort, not a catchable panic); deeper input is an `Err`.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The deepest array/object nesting [`Json::parse`] accepts. Far above
/// anything the workspace writes (campaign records, `BENCH_*.json` and
/// protocol frames nest a handful of levels).
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value. Objects keep insertion order out of scope — the
/// consumers here look fields up by name.
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
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Parses one JSON document (trailing whitespace allowed, nothing else).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(v)
    }

    /// Object field access.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => out.push_str(&fmt_f64(*v)),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(map) => {
                out.push('{');
                for (k, (key, value)) in map.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&escape(key));
                    out.push_str("\":");
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

/// Compact serialisation back to JSON text (deterministic: object fields
/// in `BTreeMap` key order, numbers via [`fmt_f64`]).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Convenience constructors for building response documents in code.
impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
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

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Builds a [`Json::Obj`] from `(key, value)` pairs.
pub fn obj<const N: usize>(fields: [(&str, Json); N]) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

/// Parses the value at `pos`, which sits inside `depth` open arrays and
/// objects.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, b':')?;
                let val = parse_value(b, pos, depth + 1)?;
                map.insert(key, val);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(arr));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => keyword(b, pos, "true", Json::Bool(true)),
        Some(b'f') => keyword(b, pos, "false", Json::Bool(false)),
        Some(b'n') => keyword(b, pos, "null", Json::Null),
        Some(_) => parse_number(b, pos),
    }
}

fn keyword(b: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let parsed = std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok());
    match parsed {
        // `str::parse::<f64>` happily overflows "1e999" to +inf; JSON has
        // no non-finite numbers, so reject rather than propagate a value
        // `fmt_f64` could never write back.
        Some(v) if v.is_finite() => Ok(Json::Num(v)),
        Some(_) => Err(format!("non-finite number at byte {start}")),
        None => Err(format!("bad number at byte {start}")),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = parse_hex4(b, *pos + 1)?;
                        *pos += 4;
                        if (0xd800..0xdc00).contains(&hex) {
                            // High surrogate: a following `\uDC00..DFFF`
                            // completes the pair; anything else leaves a
                            // lone surrogate -> U+FFFD.
                            if b.get(*pos + 1) == Some(&b'\\') && b.get(*pos + 2) == Some(&b'u') {
                                let low = parse_hex4(b, *pos + 3)?;
                                if (0xdc00..0xe000).contains(&low) {
                                    *pos += 6;
                                    let cp = 0x10000 + ((hex - 0xd800) << 10) + (low - 0xdc00);
                                    out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                                } else {
                                    out.push('\u{fffd}');
                                }
                            } else {
                                out.push('\u{fffd}');
                            }
                        } else {
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let ch_len = utf8_len(c);
                let s = std::str::from_utf8(
                    b.get(*pos..*pos + ch_len)
                        .ok_or_else(|| format!("truncated utf-8 at byte {}", *pos))?,
                )
                .map_err(|_| format!("bad utf-8 at byte {}", *pos))?;
                out.push_str(s);
                *pos += ch_len;
            }
        }
    }
}

fn parse_hex4(b: &[u8], at: usize) -> Result<u32, String> {
    b.get(at..at + 4)
        .and_then(|h| std::str::from_utf8(h).ok())
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| format!("bad \\u escape at byte {at}"))
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

/// Escapes a string for embedding in JSON output (quotes not included).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Formats an `f64` as a JSON number: shortest-roundtrip, with non-finite
/// values mapped to `null` (JSON has no NaN/inf). Deterministic — equal
/// bits always produce equal bytes.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `Display` prints integral floats without a dot; keep them valid
        // JSON numbers as-is (1e30 etc. are fine too).
        s
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_bench_file_shape() {
        let doc = r#"{ "results": [
            {"name": "a/b", "value": 1.5e-2, "unit": "J"},
            {"name": "c", "median_ns": 123.25, "samples": 10}
        ] }"#;
        let v = Json::parse(doc).unwrap();
        let results = v.get("results").unwrap().as_arr().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].get("name").unwrap().as_str(), Some("a/b"));
        assert_eq!(results[0].get("value").unwrap().as_f64(), Some(1.5e-2));
        assert_eq!(results[1].get("median_ns").unwrap().as_f64(), Some(123.25));
    }

    #[test]
    fn round_trips_escapes_and_numbers() {
        let v = Json::parse(r#"{"s": "a\"b\\c\nd", "n": -1.25e-3, "t": true, "z": null}"#).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some("a\"b\\c\nd"));
        assert_eq!(v.get("n").unwrap().as_f64(), Some(-1.25e-3));
        assert_eq!(v.get("t"), Some(&Json::Bool(true)));
        assert_eq!(v.get("z"), Some(&Json::Null));
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("{\"a\": 1").is_err()); // truncated
        assert!(Json::parse("{} x").is_err()); // trailing
        assert!(Json::parse("").is_err());
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |d: usize| format!("{}{}", "[".repeat(d), "]".repeat(d));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Objects count too, interleaved with arrays.
        let mixed = "{\"a\":[".repeat(MAX_DEPTH) + &"]}".repeat(MAX_DEPTH);
        assert!(Json::parse(&mixed).is_err());
        // A 100 KB run of `[` used to overflow the stack.
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn rejects_nan_and_inf() {
        // No JSON literal spells a non-finite number...
        assert!(Json::parse("NaN").is_err());
        assert!(Json::parse("Infinity").is_err());
        assert!(Json::parse("-Infinity").is_err());
        // ...and an exponent overflowing to +-inf is rejected too.
        assert!(Json::parse("1e999").is_err());
        assert!(Json::parse("-1e999").is_err());
        assert!(Json::parse("[1.0, 1e999]").is_err());
        // The writer side maps them to null.
        assert_eq!(fmt_f64(f64::INFINITY), "null");
        assert_eq!(fmt_f64(f64::NEG_INFINITY), "null");
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn unicode_escapes_decode() {
        // BMP escape, raw multi-byte UTF-8, and an astral surrogate pair.
        let v = Json::parse(r#""café ✓ naïve 🦀""#).unwrap();
        assert_eq!(v.as_str(), Some("café ✓ naïve 🦀"));
        // Lone surrogates decode to the replacement character (both a
        // dangling high surrogate and an unpaired low one).
        assert_eq!(
            Json::parse(r#""\ud83e x""#).unwrap().as_str(),
            Some("\u{fffd} x")
        );
        assert_eq!(
            Json::parse(r#""\udd80""#).unwrap().as_str(),
            Some("\u{fffd}")
        );
        // High surrogate followed by a non-surrogate escape.
        assert_eq!(
            Json::parse(r#""\ud83eA""#).unwrap().as_str(),
            Some("\u{fffd}A")
        );
        // Truncated escapes error instead of panicking.
        assert!(Json::parse(r#""\u00""#).is_err());
        assert!(Json::parse(r#""\ud83e\u00""#).is_err());
    }

    #[test]
    fn seeded_string_roundtrip() {
        // Seeded pseudo-random strings over a hostile alphabet round-trip
        // through escape -> parse exactly.
        let alphabet: Vec<char> = "a\"\\\n\t\r\u{1}\u{1f}é✓🦀\u{0}z ".chars().collect();
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..64 {
            let mut s = String::new();
            for _ in 0..24 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                s.push(alphabet[(state >> 33) as usize % alphabet.len()]);
            }
            let doc = format!("\"{}\"", escape(&s));
            let back = Json::parse(&doc).unwrap();
            assert_eq!(back.as_str(), Some(s.as_str()), "doc: {doc}");
        }
    }

    #[test]
    fn value_writer_roundtrips() {
        let doc = r#"{"a":[1,2.5,"x"],"b":{"c":null,"d":true},"e":"q\"uote"}"#;
        let v = Json::parse(doc).unwrap();
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // Compact writer output is stable (BTreeMap order + fmt_f64).
        assert_eq!(Json::parse(&text).unwrap().to_string(), text);
    }

    #[test]
    fn obj_builder() {
        let v = obj([("x", 1.5f64.into()), ("s", "hi".into())]);
        assert_eq!(v.get("x").unwrap().as_f64(), Some(1.5));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi"));
    }

    #[test]
    fn f64_formatting_is_deterministic() {
        assert_eq!(fmt_f64(0.017915296047672412), "0.017915296047672412");
        assert_eq!(fmt_f64(2.0), "2");
        assert_eq!(fmt_f64(f64::NAN), "null");
        // Round-trip: parse(format(x)) == x bit-for-bit.
        for &x in &[1.0 / 3.0, 1e-300, 123456.789, -0.0] {
            let s = fmt_f64(x);
            assert_eq!(s.parse::<f64>().unwrap().to_bits(), x.to_bits());
        }
    }
}
