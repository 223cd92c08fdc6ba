//! Offline stand-in for `serde_json`.
//!
//! Renders and parses JSON text over the serde shim's [`serde::Value`]
//! data model: [`to_string`], [`to_string_pretty`], and [`from_str`].
//! Signed/unsigned 64-bit integers are preserved exactly; floats use
//! Rust's shortest round-trip `Display` form.

use std::fmt;

use serde::{de::DeserializeOwned, Serialize, Value};

/// Serialization or parse failure.
#[derive(Debug, Clone)]
pub struct Error(String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error(msg.to_string())
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes a value to compact JSON text.
///
/// # Errors
///
/// Returns [`Error`] when the value refuses serialization or contains a
/// non-finite float (JSON cannot represent NaN/infinity).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let value = serde::to_value(value).map_err(|e| Error(e.to_string()))?;
    let mut out = String::new();
    write_value(&mut out, &value, None, 0)?;
    Ok(out)
}

/// Serializes a value to 2-space-indented JSON text.
///
/// # Errors
///
/// Same conditions as [`to_string`].
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let value = serde::to_value(value).map_err(|e| Error(e.to_string()))?;
    let mut out = String::new();
    write_value(&mut out, &value, Some(2), 0)?;
    Ok(out)
}

/// Parses JSON text into any owned-deserializable type.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: DeserializeOwned>(text: &str) -> Result<T> {
    let value = parse(text)?;
    serde::from_value(value).map_err(|e| Error(e.to_string()))
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

fn write_value(out: &mut String, value: &Value, indent: Option<usize>, depth: usize) -> Result<()> {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(v) => out.push_str(&v.to_string()),
        Value::UInt(v) => out.push_str(&v.to_string()),
        Value::Float(v) => {
            if !v.is_finite() {
                return Err(Error(format!("cannot serialize non-finite float {v}")));
            }
            // Shortest round-trip form; force a decimal point so the value
            // re-parses as a float rather than an integer when exact.
            let s = v.to_string();
            out.push_str(&s);
            if !s.contains(['.', 'e', 'E']) {
                out.push_str(".0");
            }
        }
        Value::String(s) => write_string(out, s),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (name, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline_indent(out, indent, depth + 1);
                write_string(out, name);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, depth + 1)?;
            }
            newline_indent(out, indent, depth);
            out.push('}');
        }
    }
    Ok(())
}

fn newline_indent(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * depth {
            out.push(' ');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
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

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// Deepest array/object nesting the reader accepts. The parser recurses
/// once per level, so hostile input nested deeper is refused with an
/// [`Error`] instead of overflowing the stack. The deepest document the
/// workspace writes is a saved forest: a `max_depth = 32` tree nests
/// its leaves 72 levels deep (a model trained at scale 1 measures 44).
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around the current position.
    depth: usize,
}

fn parse(text: &str) -> Result<Value> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error(format!("trailing characters at offset {}", p.pos)));
    }
    Ok(value)
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error(format!(
                "expected `{}` at offset {}",
                b as char, self.pos
            )))
        }
    }

    fn consume_literal(&mut self, lit: &str) -> bool {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<Value> {
        match self.peek() {
            Some(b'n') if self.consume_literal("null") => Ok(Value::Null),
            Some(b't') if self.consume_literal("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.consume_literal("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.parse_string().map(Value::String),
            Some(b'[' | b'{') if self.depth == MAX_DEPTH => Err(Error(format!(
                "nesting deeper than {MAX_DEPTH} levels at offset {}",
                self.pos
            ))),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'-') | Some(b'0'..=b'9') => self.parse_number(),
            other => Err(Error(format!(
                "unexpected {:?} at offset {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    /// Runs `parse` one nesting level deeper.
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Value>) -> Result<Value> {
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn parse_array(&mut self) -> Result<Value> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(Error(format!("expected `,` or `]` at offset {}", self.pos))),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let name = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            fields.push((name, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(Error(format!("expected `,` or `}}` at offset {}", self.pos))),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' || b < 0x20 {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error(format!("invalid utf-8 in string: {e}")))?,
            );
            match self.peek() {
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
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| Error("truncated \\u escape".into()))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error("bad \\u escape".into()))?;
                            // Surrogate pairs are not produced by our writer;
                            // map unpaired surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        other => {
                            return Err(Error(format!("bad escape {other:?}")));
                        }
                    }
                    self.pos += 1;
                }
                other => {
                    return Err(Error(format!(
                        "unterminated or invalid string near offset {} ({other:?})",
                        self.pos
                    )));
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number bytes are ascii");
        if !is_float {
            if let Ok(v) = text.parse::<i64>() {
                return Ok(Value::Int(v));
            }
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Value::UInt(v));
            }
        }
        text.parse::<f64>()
            .map(Value::Float)
            .map_err(|e| Error(format!("bad number {text:?}: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_roundtrips_exactly() {
        let v = u64::MAX;
        let json = to_string(&v).unwrap();
        assert_eq!(json, "18446744073709551615");
        assert_eq!(from_str::<u64>(&json).unwrap(), v);
    }

    #[test]
    fn floats_roundtrip() {
        for v in [0.1f64, -2.5, 1e300, 3.0, f64::MIN_POSITIVE] {
            let json = to_string(&v).unwrap();
            assert_eq!(from_str::<f64>(&json).unwrap(), v, "{json}");
        }
    }

    #[test]
    fn strings_escape_and_parse() {
        let s = "a\"b\\c\nd\te\u{1}f unicode: Ω 💡";
        let json = to_string(s).unwrap();
        assert_eq!(from_str::<String>(&json).unwrap(), s);
    }

    #[test]
    fn nested_structures_roundtrip() {
        let v: Vec<(String, Vec<u32>)> =
            vec![("a".into(), vec![1, 2]), ("b".into(), vec![])];
        let json = to_string(&v).unwrap();
        assert_eq!(from_str::<Vec<(String, Vec<u32>)>>(&json).unwrap(), v);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(from_str::<Vec<(String, Vec<u32>)>>(&pretty).unwrap(), v);
    }

    #[test]
    fn malformed_input_errors() {
        assert!(from_str::<u32>("").is_err());
        assert!(from_str::<u32>("[1").is_err());
        assert!(from_str::<String>("\"abc").is_err());
        assert!(from_str::<u32>("1 2").is_err());
    }

    #[test]
    fn nesting_is_bounded_with_an_error() {
        let arrays = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let objects = |n: usize| "{\"a\":".repeat(n) + "0" + &"}".repeat(n);
        assert!(parse(&arrays(MAX_DEPTH)).is_ok());
        assert!(parse(&objects(MAX_DEPTH)).is_ok());
        for deeper in [arrays(MAX_DEPTH + 1), objects(MAX_DEPTH + 1)] {
            let err = parse(&deeper).unwrap_err().to_string();
            assert!(err.contains("nesting deeper than 128"), "{err}");
        }
        // A million unclosed brackets: an error, not a stack overflow.
        let err = from_str::<u32>(&"[".repeat(1_000_000)).unwrap_err().to_string();
        assert!(err.contains("nesting deeper than 128"), "{err}");
    }
}
