//! Minimal, dependency-free JSON construction and parsing.
//!
//! The workspace is fully offline (no serde), but the PMU exports
//! machine-readable artifacts: Chrome `trace_event` files, CPI-stack
//! dumps, and the CI perf snapshot. [`JsonValue`] is the small value
//! tree all of those share; its `Display` impl writes minified,
//! RFC 8259-conformant JSON with deterministic field order (insertion
//! order), so golden-file tests can compare exact bytes.
//!
//! The matching tolerant reader, [`JsonValue::parse`], exists for the
//! two places the workspace reads its own JSON back: the
//! content-addressed result journal (`p5-experiments`) and the
//! `p5-serve` wire protocol. It accepts exactly the writer's grammar —
//! objects, arrays, strings with the writer's escapes, `u64`-precise
//! integers, bools, null — and returns `None` on any deviation, so a
//! truncated or garbled line degrades into "skip it", never a panic.

use std::fmt;

/// A JSON value. Build with the `From` impls and [`JsonObject`], render
/// with `to_string()`.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (JSON number).
    UInt(u64),
    /// A signed integer (JSON number).
    Int(i64),
    /// A float (JSON number); non-finite values render as `null`.
    Float(f64),
    /// A string.
    Str(String),
    /// An ordered array.
    Array(Vec<JsonValue>),
    /// An object with fields in insertion order.
    Object(Vec<(String, JsonValue)>),
}

impl From<bool> for JsonValue {
    fn from(v: bool) -> JsonValue {
        JsonValue::Bool(v)
    }
}
impl From<u64> for JsonValue {
    fn from(v: u64) -> JsonValue {
        JsonValue::UInt(v)
    }
}
impl From<u32> for JsonValue {
    fn from(v: u32) -> JsonValue {
        JsonValue::UInt(u64::from(v))
    }
}
impl From<usize> for JsonValue {
    fn from(v: usize) -> JsonValue {
        JsonValue::UInt(v as u64)
    }
}
impl From<i64> for JsonValue {
    fn from(v: i64) -> JsonValue {
        JsonValue::Int(v)
    }
}
impl From<f64> for JsonValue {
    fn from(v: f64) -> JsonValue {
        JsonValue::Float(v)
    }
}
impl From<&str> for JsonValue {
    fn from(v: &str) -> JsonValue {
        JsonValue::Str(v.to_string())
    }
}
impl From<String> for JsonValue {
    fn from(v: String) -> JsonValue {
        JsonValue::Str(v)
    }
}
impl From<Vec<JsonValue>> for JsonValue {
    fn from(v: Vec<JsonValue>) -> JsonValue {
        JsonValue::Array(v)
    }
}

/// Escapes `s` into `out` per RFC 8259 (quotes, backslash, control
/// characters).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

impl fmt::Display for JsonValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonValue::Null => write!(f, "null"),
            JsonValue::Bool(b) => write!(f, "{b}"),
            JsonValue::UInt(n) => write!(f, "{n}"),
            JsonValue::Int(n) => write!(f, "{n}"),
            JsonValue::Float(x) => {
                if x.is_finite() {
                    write!(f, "{x}")
                } else {
                    write!(f, "null")
                }
            }
            JsonValue::Str(s) => {
                let mut buf = String::with_capacity(s.len() + 2);
                escape_into(&mut buf, s);
                write!(f, "\"{buf}\"")
            }
            JsonValue::Array(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            JsonValue::Object(fields) => {
                write!(f, "{{")?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    let mut buf = String::with_capacity(key.len());
                    escape_into(&mut buf, key);
                    write!(f, "\"{buf}\":{value}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

impl JsonValue {
    /// Parses `text` as a single JSON value, tolerantly: any deviation
    /// from the writer's output grammar returns `None` instead of
    /// panicking, so callers can treat a bad line (a truncated journal
    /// tail, a garbled protocol frame) as "skip it" rather than "die".
    ///
    /// Number handling is asymmetric on purpose: an unsigned integer
    /// parses as [`JsonValue::UInt`] with full `u64` precision (float
    /// *bit patterns* round-trip exactly, which `f64` could not
    /// guarantee past 53 bits), a `-`-prefixed integer as
    /// [`JsonValue::Int`], and anything with a fraction or exponent as
    /// [`JsonValue::Float`].
    #[must_use]
    pub fn parse(text: &str) -> Option<JsonValue> {
        let mut r = JsonReader {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = r.value()?;
        r.skip_ws();
        (r.pos == r.bytes.len()).then_some(value)
    }

    /// The value of field `key`, if this is an object that has it.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as a `u64`, if it is an unsigned integer.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            JsonValue::UInt(v) => Some(v),
            _ => None,
        }
    }

    /// This value as an `f64`: floats directly, integers converted.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            JsonValue::Float(v) => Some(v),
            #[allow(clippy::cast_precision_loss)]
            JsonValue::UInt(v) => Some(v as f64),
            #[allow(clippy::cast_precision_loss)]
            JsonValue::Int(v) => Some(v as f64),
            _ => None,
        }
    }

    /// This value as a string slice, if it is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a bool, if it is a bool.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            JsonValue::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// This value's items, if it is an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// The tolerant recursive-descent reader behind [`JsonValue::parse`].
/// Accepts exactly the writer's grammar (plus insignificant whitespace);
/// anything else aborts the parse with `None`.
struct JsonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonReader<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Option<JsonValue> {
        self.skip_ws();
        match *self.bytes.get(self.pos)? {
            b'n' => self.literal("null").then_some(JsonValue::Null),
            b't' => self.literal("true").then_some(JsonValue::Bool(true)),
            b'f' => self.literal("false").then_some(JsonValue::Bool(false)),
            b'"' => self.string().map(JsonValue::Str),
            b'{' => self.object(),
            b'[' => self.array(),
            _ => self.number(),
        }
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            match *self.bytes.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    match *self.bytes.get(self.pos)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self.bytes.get(self.pos + 1..self.pos + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.pos += 4;
                        }
                        _ => return None,
                    }
                    self.pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through intact.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..]).ok()?;
                    let c = rest.chars().next()?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Option<JsonValue> {
        let start = self.pos;
        while matches!(
            self.bytes.get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).ok()?;
        if text.bytes().all(|b| b.is_ascii_digit()) && !text.is_empty() {
            return text.parse().ok().map(JsonValue::UInt);
        }
        if let Some(rest) = text.strip_prefix('-') {
            if rest.bytes().all(|b| b.is_ascii_digit()) && !rest.is_empty() {
                return text.parse().ok().map(JsonValue::Int);
            }
        }
        text.parse().ok().map(JsonValue::Float)
    }

    fn object(&mut self) -> Option<JsonValue> {
        if !self.eat(b'{') {
            return None;
        }
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Some(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return None;
            }
            fields.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b'}') {
                return Some(JsonValue::Object(fields));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }

    fn array(&mut self) -> Option<JsonValue> {
        if !self.eat(b'[') {
            return None;
        }
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Some(JsonValue::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b']') {
                return Some(JsonValue::Array(items));
            }
            if !self.eat(b',') {
                return None;
            }
        }
    }
}

/// Ordered-object builder:
///
/// ```
/// use p5_pmu::json::JsonObject;
/// let v = JsonObject::new()
///     .field("schema_version", 1u64)
///     .field("name", "pmu")
///     .build();
/// assert_eq!(v.to_string(), r#"{"schema_version":1,"name":"pmu"}"#);
/// ```
#[derive(Debug, Clone, Default)]
pub struct JsonObject(Vec<(String, JsonValue)>);

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> JsonObject {
        JsonObject(Vec::new())
    }

    /// Appends a field (insertion order is preserved on output).
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<JsonValue>) -> JsonObject {
        self.0.push((key.to_string(), value.into()));
        self
    }

    /// Finishes the object.
    #[must_use]
    pub fn build(self) -> JsonValue {
        JsonValue::Object(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(JsonValue::Null.to_string(), "null");
        assert_eq!(JsonValue::from(true).to_string(), "true");
        assert_eq!(JsonValue::from(42u64).to_string(), "42");
        assert_eq!(JsonValue::from(-7i64).to_string(), "-7");
        assert_eq!(JsonValue::from(1.5).to_string(), "1.5");
        assert_eq!(JsonValue::from(f64::NAN).to_string(), "null");
        assert_eq!(JsonValue::from("hi").to_string(), "\"hi\"");
    }

    #[test]
    fn strings_are_escaped() {
        let v = JsonValue::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(v.to_string(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn arrays_and_objects_nest() {
        let v = JsonObject::new()
            .field("xs", vec![JsonValue::from(1u64), JsonValue::from(2u64)])
            .field("inner", JsonObject::new().field("k", "v").build())
            .build();
        assert_eq!(v.to_string(), r#"{"xs":[1,2],"inner":{"k":"v"}}"#);
    }

    #[test]
    fn field_order_is_insertion_order() {
        let v = JsonObject::new().field("z", 1u64).field("a", 2u64).build();
        assert_eq!(v.to_string(), r#"{"z":1,"a":2}"#);
    }

    #[test]
    fn float_uses_shortest_roundtrip() {
        assert_eq!(JsonValue::from(0.1).to_string(), "0.1");
        assert_eq!(JsonValue::from(2.0).to_string(), "2");
    }

    #[test]
    fn parser_accepts_writer_output() {
        let v = JsonObject::new()
            .field("a", 1u64)
            .field("neg", -7i64)
            .field("s", "x\n\"y\"")
            .field("xs", vec![JsonValue::Null, JsonValue::from(true)])
            .field("inner", JsonObject::new().field("k", 1.5).build())
            .build();
        let back = JsonValue::parse(&v.to_string()).expect("writer output parses");
        assert_eq!(back, v);
        assert_eq!(back.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(back.get("s").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(back.get("xs").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(JsonValue::parse("{\"a\":").is_none());
        assert!(JsonValue::parse("not json").is_none());
        assert!(JsonValue::parse("{\"a\":1} trailing").is_none());
        assert!(JsonValue::parse("").is_none());
        assert!(JsonValue::parse("{\"a\":--3}").is_none());
    }

    #[test]
    fn parser_keeps_u64_precision() {
        // A float *bit pattern* exceeds f64's 53-bit mantissa; the
        // parser must never round-trip an unsigned integer through f64.
        let bits = 1.234_567_890_123_f64.to_bits();
        let v = JsonValue::parse(&format!("{{\"b\":{bits}}}")).unwrap();
        assert_eq!(v.get("b").unwrap().as_u64(), Some(bits));
        let neg = JsonValue::parse("-42").unwrap();
        assert_eq!(neg, JsonValue::Int(-42));
        assert_eq!(neg.as_f64(), Some(-42.0));
    }
}
