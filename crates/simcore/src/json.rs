//! Minimal JSON tree, writer, and parser.
//!
//! The workspace builds offline with no external crates, so it carries its
//! own JSON support. The codec lives here in the substrate crate so every
//! layer — the scenario registry, the experiment harness, the figure
//! binaries — shares one canonical serialization. Two properties matter
//! more than speed:
//!
//! * **Canonical output** — object keys keep insertion order, floats are
//!   printed with Rust's shortest-round-trip formatting, and the writer is
//!   purely a function of the tree. Two equal trees always serialize to
//!   identical bytes, which is what makes `results/*.json` byte-comparable
//!   across worker counts.
//! * **Lossless numbers** — numbers are stored as their literal text
//!   ([`Json::Num`]); a parsed file re-serializes to the same bytes, and
//!   `u64` values larger than 2^53 survive a cache round-trip.

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A float value; non-finite floats become `null` (JSON has no NaN).
    pub fn f64(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(format!("{v:?}"))
        } else {
            Json::Null
        }
    }

    /// An unsigned integer value.
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// A usize value.
    pub fn usize(v: usize) -> Json {
        Json::Num(v.to_string())
    }

    /// A string value.
    pub fn str(v: &str) -> Json {
        Json::Str(v.to_string())
    }

    /// An optional integer: `None` becomes `null`.
    pub fn opt_u64(v: Option<u64>) -> Json {
        v.map_or(Json::Null, Json::u64)
    }

    /// An optional float: `None` becomes `null`.
    pub fn opt_f64(v: Option<f64>) -> Json {
        v.map_or(Json::Null, Json::f64)
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as u64, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The value as usize.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|v| v as usize)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// `true` for `Json::Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(s) => out.push_str(s),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
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

/// Builds an object from key/value pairs (order preserved).
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a message describing the first syntax error, with its byte
/// offset.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
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

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).expect("ascii digits");
    if text.is_empty() || text.parse::<f64>().is_err() {
        return Err(format!("invalid number at byte {start}"));
    }
    Ok(Json::Num(text.to_string()))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                let esc = b
                    .get(*pos)
                    .ok_or_else(|| "unterminated escape".to_string())?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'b' => out.push('\u{0008}'),
                    b'f' => out.push('\u{000C}'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let hex =
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        *pos += 4;
                        // Surrogate pairs are not produced by this crate's
                        // writer; map lone surrogates to the replacement
                        // character rather than failing.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                    }
                    other => {
                        return Err(format!("bad escape '\\{}'", *other as char));
                    }
                }
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash. Both are
                // ASCII, so the run ends on a character boundary.
                let start = *pos;
                *pos = b[start..]
                    .iter()
                    .position(|&c| c == b'"' || c == b'\\')
                    .map_or(b.len(), |n| start + n);
                let run = std::str::from_utf8(&b[start..*pos])
                    .map_err(|_| "invalid UTF-8 in string".to_string())?;
                out.push_str(run);
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let value = parse_value(b, pos)?;
        fields.push((key, value));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_a_tree() {
        let tree = obj(vec![
            ("name", Json::str("fig04")),
            ("n", Json::u64(18446744073709551615)),
            ("pi", Json::f64(std::f64::consts::PI)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "arr",
                Json::Arr(vec![Json::u64(1), Json::str("two"), Json::f64(0.1)]),
            ),
        ]);
        let text = tree.to_pretty();
        let parsed = parse(&text).expect("parses");
        assert_eq!(parsed, tree);
        // Canonical: re-serializing parsed output is byte-identical.
        assert_eq!(parsed.to_pretty(), text);
    }

    #[test]
    fn u64_survives_beyond_f64_precision() {
        let v = Json::u64(u64::MAX - 1);
        let text = v.to_pretty();
        let parsed = parse(&text).expect("parses");
        assert_eq!(parsed.as_u64(), Some(u64::MAX - 1));
    }

    #[test]
    fn floats_round_trip_exactly() {
        for v in [0.1, 1.0 / 3.0, 1e-300, 2.5e300, -0.0, 123456.789] {
            let text = Json::f64(v).to_pretty();
            let parsed = parse(&text).expect("parses");
            let back = parsed.as_f64().expect("number");
            assert_eq!(back.to_bits(), v.to_bits(), "{v} → {text}");
        }
    }

    #[test]
    fn nan_and_inf_become_null() {
        assert!(Json::f64(f64::NAN).is_null());
        assert!(Json::f64(f64::INFINITY).is_null());
    }

    #[test]
    fn escapes_strings() {
        let v = Json::str("a\"b\\c\nd\te\u{0001}");
        let text = v.to_pretty();
        assert!(text.contains("\\\"") && text.contains("\\u0001"));
        assert_eq!(parse(&text).expect("parses"), v);
    }

    #[test]
    fn get_and_accessors() {
        let v = parse(r#"{"a": 1, "b": [true, null], "c": "x"}"#).expect("parses");
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(
            v.get("b").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("c").and_then(Json::as_str), Some("x"));
        assert!(v.get("d").is_none());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").is_err());
        assert!(parse("nul").is_err());
        assert!(parse("\"abc").is_err());
    }

    #[test]
    fn unicode_passthrough() {
        let v = Json::str("héllo → 世界");
        assert_eq!(parse(&v.to_pretty()).expect("parses"), v);
        // Escapes directly next to multi-byte runs.
        let v = Json::str("a\"é\\n世\u{1}");
        assert_eq!(parse(&v.to_pretty()).expect("parses"), v);
    }
}
