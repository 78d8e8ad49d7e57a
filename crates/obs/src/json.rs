//! Minimal hand-rolled JSON support: a deterministic writer (fixed key
//! order, shortest-round-trip floats via [`crate::num`]) and a small
//! recursive-descent parser used by the journal round-trip lint.
//!
//! The workspace has no crates.io access, so this module carries exactly
//! the JSON surface the observability layer needs — nothing external is
//! pulled in and the byte-level output is fully under our control, which
//! is what makes journals byte-comparable across thread counts.

use crate::num;

/// A parsed JSON value.
///
/// Numbers keep their **raw token** instead of an eagerly converted `f64`,
/// so 64-bit integers (e.g. RNG seeds) survive a parse → re-encode round
/// trip without precision loss.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its raw source token.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The value of `key` if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as an `f64` (numbers only; `null` is `None`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// This value as a `u64` (integer numbers only, exact).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// This value as a `usize` (integer numbers only, exact).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Value::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// This value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a quoted, escaped JSON string token.
///
/// Unescaped runs are copied whole; only `"`, `\\` and control
/// characters are rewritten. Every byte that needs an escape is ASCII, so
/// scanning bytes never splits a multi-byte character.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b != b'"' && b != b'\\' && b >= 0x20 {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                // A control character: `\u00XX` in lowercase hex.
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Appends an `f64` deterministically: the shortest round-trip digits
/// ([`num::push_f64`], byte-identical to `{}`) for finite values, `null`
/// otherwise (the journal schema treats non-finite measurements as
/// absent).
pub fn write_f64(out: &mut String, x: f64) {
    if x.is_finite() {
        num::push_f64(out, x);
    } else {
        out.push_str("null");
    }
}

/// Appends an optional `f64` (`None` → `null`).
pub fn write_opt_f64(out: &mut String, x: Option<f64>) {
    match x {
        Some(x) => write_f64(out, x),
        None => out.push_str("null"),
    }
}

/// Appends a slice of `f64` as a JSON array.
pub fn write_f64_array(out: &mut String, xs: &[f64]) {
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_f64(out, x);
    }
    out.push(']');
}

/// Appends a slice of `u64` as a JSON array.
pub fn write_u64_array(out: &mut String, xs: &[u64]) {
    out.push('[');
    for (i, &x) in xs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        num::push_u64(out, x);
    }
    out.push(']');
}

/// Parses one JSON document.
///
/// The parser walks the input's bytes: JSON's structure is all ASCII, so
/// a byte that is not a quote or a backslash inside a string is copied
/// with its whole unescaped run, multi-byte characters included.
///
/// # Errors
///
/// Returns a human-readable description of the first syntax error.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser { text, pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != text.len() {
        return Err(format!("trailing input at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset; always on a character boundary between tokens.
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    /// The character at byte `at`, for error messages.
    fn char_at(&self, at: usize) -> char {
        self.text
            .get(at..)
            .and_then(|rest| rest.chars().next())
            .unwrap_or(char::REPLACEMENT_CHARACTER)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.peek() {
            Some(got) if got == c => {
                self.pos += 1;
                Ok(())
            }
            Some(_) => Err(format!(
                "expected '{}', found '{}' at {}",
                char::from(c),
                self.char_at(self.pos),
                self.pos + 1
            )),
            None => Err(format!("expected '{}', found end of input", char::from(c))),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        for &b in word.as_bytes() {
            self.expect(b)?;
        }
        Ok(value)
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            Some(_) => Err(format!(
                "unexpected character '{}' at {}",
                self.char_at(self.pos),
                self.pos
            )),
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Consumes the `,` or the closing delimiter after a container item;
    /// `true` when the container closed.
    fn separator(&mut self, close: u8) -> Result<bool, String> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(false)
            }
            Some(b) if b == close => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(format!(
                "expected ',' or '{}', found {:?}",
                char::from(close),
                self.text[self.pos..].chars().next()
            )),
        }
    }

    fn object(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            if self.separator(b'}')? {
                return Ok(Value::Obj(fields));
            }
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
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
            if self.separator(b']')? {
                return Ok(Value::Arr(items));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the unescaped run whole: it starts after an ASCII byte
            // and ends at one (or at the end), so both ends are character
            // boundaries.
            let run = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(_) => self.escape(&mut out)?,
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    /// Decodes the escape after a backslash into `out`.
    fn escape(&mut self, out: &mut String) -> Result<(), String> {
        match self.bump() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'u') => {
                let mut code = 0u32;
                for _ in 0..4 {
                    let b = self.bump().ok_or("truncated \\u escape")?;
                    let d = char::from(b)
                        .to_digit(16)
                        .ok_or("bad hex digit in \\u escape")?;
                    code = code * 16 + d;
                }
                out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
            }
            Some(_) => return Err(format!("bad escape {:?}", Some(self.char_at(self.pos - 1)))),
            None => return Err("bad escape None".to_string()),
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let raw = &self.text[start..self.pos];
        raw.parse::<f64>()
            .map_err(|_| format!("bad number token {raw:?}"))?;
        Ok(Value::Num(raw.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a":1,"b":[true,null,"x\n"],"c":-2.5}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("c").unwrap().as_f64(), Some(-2.5));
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_bool(), Some(true));
        assert_eq!(arr[1], Value::Null);
        assert_eq!(arr[2].as_str(), Some("x\n"));
    }

    #[test]
    fn u64_precision_survives() {
        let big = u64::MAX;
        let v = parse(&format!("{{\"seed\":{big}}}")).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(big));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn escape_round_trips() {
        let s = "quote \" backslash \\ tab \t unicode \u{1}";
        let mut out = String::new();
        write_str(&mut out, s);
        let v = parse(&out).unwrap();
        assert_eq!(v.as_str(), Some(s));
    }

    #[test]
    fn float_formatting_is_shortest_round_trip() {
        let fmt = |x| {
            let mut out = String::new();
            write_f64(&mut out, x);
            out
        };
        assert_eq!(fmt(1.0), "1");
        assert_eq!(fmt(0.1), "0.1");
        assert_eq!(fmt(f64::NAN), "null");
        let x = 1.0 / 3.0;
        assert_eq!(fmt(x).parse::<f64>().unwrap(), x);
    }

    #[test]
    fn non_ascii_and_unicode_escapes_round_trip() {
        let label = "ré\u{1}\u{1F600}\"ñ\\";
        let mut out = String::new();
        write_str(&mut out, label);
        assert_eq!(parse(&out).unwrap().as_str(), Some(label));
        let v = parse(r#"["\u00e9\u0041", "日本", "\/"]"#).unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some("éA"));
        assert_eq!(items[1].as_str(), Some("日本"));
        assert_eq!(items[2].as_str(), Some("/"));
        assert!(parse(r#""\u00g1""#).is_err());
        assert!(parse(r#""\ud800""#).is_err());
        assert!(parse("[\"é\" é]").is_err());
        assert!(parse("é").is_err());
    }
}
