//! The workspace's one JSON layer: an ordered-field writer and a reader.
//!
//! Every document the workspace emits (`c11campaign/v4`,
//! `c11coverage/v1`, `c11metrics/v1` and its Chrome export,
//! `c11forensics/v1`, `c11fuzz/v1`, the `c11trace/v1` JSONL) and every
//! fork-server frame goes through [`JsonWriter`]; everything read back
//! (baselines, frames) goes through [`JsonValue`]. Field order is the
//! order of the writer calls, so each report type's one writer function
//! fixes its field order, and canonical documents stay byte-stable.

use std::fmt::Write as _;

/// Deepest array/object nesting [`JsonValue::parse`] accepts. The
/// deepest document the workspace writes nests six levels; the cap
/// keeps a hostile payload (a fork-server child's stdout) from
/// recursing the reader off its stack.
pub const MAX_DEPTH: usize = 128;

/// Builds one JSON document into a single buffer.
///
/// Values written in sequence inside an array, or after [`key`]s inside
/// an object, are comma-separated automatically. Strings are escaped
/// straight into the buffer and numbers formatted into it, so writing a
/// field allocates nothing beyond the buffer's own growth.
///
/// [`key`]: JsonWriter::key
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// Whether the next value or key must be preceded by a comma.
    comma: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonWriter::default()
    }

    /// An empty writer whose buffer starts with `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        JsonWriter {
            out: String::with_capacity(capacity),
            comma: false,
        }
    }

    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    fn separate(&mut self) {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
    }

    /// Starts an object field: `"name":`. The next call writes its value.
    pub fn key(&mut self, name: &str) -> &mut Self {
        self.separate();
        push_string(&mut self.out, name);
        self.out.push(':');
        self.comma = false;
        self
    }

    /// Writes an object; `fields` writes its keys and values.
    pub fn object(&mut self, fields: impl FnOnce(&mut Self)) {
        self.nested('{', '}', fields);
    }

    /// Writes an array; `items` writes its values.
    pub fn array(&mut self, items: impl FnOnce(&mut Self)) {
        self.nested('[', ']', items);
    }

    fn nested(&mut self, open: char, close: char, body: impl FnOnce(&mut Self)) {
        self.separate();
        self.out.push(open);
        self.comma = false;
        body(self);
        self.out.push(close);
        self.comma = true;
    }

    /// Writes a string, escaped per RFC 8259.
    pub fn str(&mut self, value: &str) {
        self.separate();
        push_string(&mut self.out, value);
    }

    /// Writes an unsigned integer.
    pub fn u64(&mut self, value: u64) {
        self.separate();
        push_digits(&mut self.out, value);
    }

    /// Writes a signed integer.
    pub fn i64(&mut self, value: i64) {
        self.separate();
        if value < 0 {
            self.out.push('-');
        }
        push_digits(&mut self.out, value.unsigned_abs());
    }

    /// Writes a float in Rust's shortest round-trip form; a non-finite
    /// value, which JSON cannot carry, is written as `null`.
    pub fn f64(&mut self, value: f64) {
        if value.is_finite() {
            self.separate();
            let _ = write!(self.out, "{value}");
        } else {
            self.null();
        }
    }

    /// Writes `true` or `false`.
    pub fn bool(&mut self, value: bool) {
        self.separate();
        self.out.push_str(if value { "true" } else { "false" });
    }

    /// Writes `null`.
    pub fn null(&mut self) {
        self.separate();
        self.out.push_str("null");
    }

    /// Writes an unsigned integer, or `null` for `None`.
    pub fn opt_u64(&mut self, value: Option<u64>) {
        match value {
            Some(v) => self.u64(v),
            None => self.null(),
        }
    }
}

/// Appends the decimal digits of `v`. Numbers are most of what a frame
/// holds, and this is cheaper than going through `fmt`.
fn push_digits(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Appends `s` as a quoted JSON string literal.
fn push_string(out: &mut String, s: &str) {
    out.push('"');
    push_escaped(out, s);
    out.push('"');
}

/// Appends the RFC 8259 escaping of `s`: quote, backslash, `\n`, `\r`
/// and `\t` by name, other control characters as `\u00XX`, everything
/// else (non-ASCII included) verbatim.
fn push_escaped(out: &mut String, s: &str) {
    if !s.bytes().any(|b| b < 0x20 || b == b'"' || b == b'\\') {
        out.push_str(s);
        return;
    }
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
}

/// The escaped form of `s`, without quotes (also what the forensics DOT
/// printer puts inside its quoted labels).
pub fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_escaped(&mut out, s);
    out
}

/// A parsed JSON value.
///
/// Numbers keep their raw text so 64-bit integers (seeds, indices,
/// interleaving hashes) round-trip exactly instead of through `f64`.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its source text.
    Number(String),
    /// A string (unescaped).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses a JSON document (any RFC 8259 document nested at most
    /// [`MAX_DEPTH`] levels deep).
    pub fn parse(text: &str) -> Result<JsonValue, String> {
        let mut reader = Reader {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = reader.value(0)?;
        reader.skip_ws();
        if reader.pos != reader.bytes.len() {
            return Err(format!("trailing data at byte {}", reader.pos));
        }
        Ok(value)
    }

    /// Object field lookup (first occurrence).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The field `key`, which must be present.
    pub fn field(&self, key: &str) -> Result<&JsonValue, String> {
        self.get(key).ok_or_else(|| format!("missing `{key}`"))
    }

    /// The unsigned-integer field `key`.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing number `{key}`"))
    }

    /// The numeric field `key`.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("missing number `{key}`"))
    }

    /// The boolean field `key`.
    pub fn bool_field(&self, key: &str) -> Result<bool, String> {
        self.get(key)
            .and_then(JsonValue::as_bool)
            .ok_or_else(|| format!("missing bool `{key}`"))
    }

    /// The string field `key`.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("missing string `{key}`"))
    }

    /// The array field `key`.
    pub fn array_field(&self, key: &str) -> Result<&[JsonValue], String> {
        self.get(key)
            .and_then(JsonValue::as_array)
            .ok_or_else(|| format!("missing array `{key}`"))
    }
}

/// Recursive-descent parser state over one document.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {} (found {:?})",
                byte as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    /// Parses one value at nesting `depth` (the number of enclosing
    /// arrays and objects).
    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            None => Err("unexpected end of input".to_string()),
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            )),
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    fields.push((key, self.value(depth + 1)?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(JsonValue::Object(fields));
                        }
                        other => {
                            return Err(format!(
                                "expected `,` or `}}` in object at byte {} (found {:?})",
                                self.pos,
                                other.map(|b| b as char)
                            ))
                        }
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                loop {
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(JsonValue::Array(items));
                        }
                        other => {
                            return Err(format!(
                                "expected `,` or `]` in array at byte {} (found {:?})",
                                self.pos,
                                other.map(|b| b as char)
                            ))
                        }
                    }
                }
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, literal: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(literal.as_bytes()) {
            self.pos += literal.len();
            Ok(value)
        } else {
            Err(format!("expected `{literal}` at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number bytes");
        if raw.is_empty() || raw.parse::<f64>().is_err() {
            return Err(format!("bad number `{raw}` at byte {start}"));
        }
        Ok(JsonValue::Number(raw.to_string()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        while let Some(b) = self.peek() {
            self.pos += 1;
            match b {
                b'"' => {
                    return String::from_utf8(out)
                        .map_err(|_| "invalid UTF-8 in string".to_string())
                }
                b'\\' => {
                    let escape = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'b' => out.push(0x08),
                        b'f' => out.push(0x0C),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            self.pos += 4;
                            // The writer never emits surrogate pairs;
                            // map lone surrogates to U+FFFD.
                            let c = char::from_u32(code).unwrap_or('\u{FFFD}');
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        other => return Err(format!("unknown escape `\\{}`", other as char)),
                    }
                }
                other => out.push(other),
            }
        }
        Err("unterminated string".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_separates_nests_and_escapes() {
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.key("s").str("a\"b\\c\nd\re\tf\u{1}é");
            w.key("n").u64(u64::MAX);
            w.key("i").i64(-3);
            w.key("min").i64(i64::MIN);
            w.key("zero").u64(0);
            w.key("f").f64(0.5);
            w.key("inf").f64(f64::INFINITY);
            w.key("nan").f64(f64::NAN);
            w.key("b").bool(false);
            w.key("none").opt_u64(None);
            w.key("a").array(|w| {
                w.u64(1);
                w.object(|_| {});
                w.array(|_| {});
                w.opt_u64(Some(2));
            });
        });
        assert_eq!(
            w.finish(),
            "{\"s\":\"a\\\"b\\\\c\\nd\\re\\tf\\u0001é\",\"n\":18446744073709551615,\
             \"i\":-3,\"min\":-9223372036854775808,\"zero\":0,\"f\":0.5,\"inf\":null,\"nan\":null,\"b\":false,\"none\":null,\
             \"a\":[1,{},[],2]}"
        );
        assert_eq!(esc("plain"), "plain");
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_reader_handles_the_emitters_shapes() {
        let doc = JsonValue::parse(
            r#"{"a":1,"b":-2.5,"c":"x\n\"y\"","d":[true,false,null],"e":{},"f":18446744073709551615}"#,
        )
        .expect("valid JSON");
        assert_eq!(doc.get("a").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(doc.get("b").and_then(JsonValue::as_f64), Some(-2.5));
        assert_eq!(doc.get("c").and_then(JsonValue::as_str), Some("x\n\"y\""));
        assert_eq!(
            doc.get("d").and_then(JsonValue::as_array).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(doc.get("e"), Some(&JsonValue::Object(Vec::new())));
        // u64::MAX round-trips exactly (would be lossy through f64).
        assert_eq!(doc.get("f").and_then(JsonValue::as_u64), Some(u64::MAX));
        assert!(JsonValue::parse("{\"unterminated\":").is_err());
        assert!(JsonValue::parse("{} trailing").is_err());
        assert!(JsonValue::parse("{1: 2}").is_err());
    }

    #[test]
    fn typed_fields_name_what_is_missing() {
        let doc = JsonValue::parse(r#"{"n":3,"s":"x","b":true,"a":[1],"f":0.25}"#).expect("valid");
        assert_eq!(doc.u64_field("n"), Ok(3));
        assert_eq!(doc.f64_field("f"), Ok(0.25));
        assert_eq!(doc.str_field("s"), Ok("x"));
        assert_eq!(doc.bool_field("b"), Ok(true));
        assert_eq!(doc.array_field("a").map(<[JsonValue]>::len), Ok(1));
        assert_eq!(doc.u64_field("s"), Err("missing number `s`".to_string()));
        assert_eq!(doc.str_field("z"), Err("missing string `z`".to_string()));
        assert_eq!(doc.field("z"), Err("missing `z`".to_string()));
    }

    #[test]
    fn written_documents_read_back() {
        let nasty = "q\"b\\n\nt\tr\rc\u{1f}é→";
        let mut w = JsonWriter::new();
        w.object(|w| {
            w.key(nasty).str(nasty);
            w.key("x").array(|w| w.u64(7));
        });
        let doc = JsonValue::parse(&w.finish()).expect("own output parses");
        assert_eq!(doc.str_field(nasty), Ok(nasty));
        assert_eq!(
            doc.array_field("x"),
            Ok(&[JsonValue::Number("7".into())][..])
        );
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let hostile = "[".repeat(1 << 20);
        let err = JsonValue::parse(&hostile).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
        let at_cap = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(JsonValue::parse(&at_cap).is_ok());
        let past_cap = format!(
            "{}{}",
            "{\"a\":".repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(JsonValue::parse(&past_cap).is_err());
    }
}
