//! The workspace's one JSON layer: a small value type, a writer, and a
//! strict parser. The workspace builds offline (no serde), and two
//! documents need JSON — the `exflow-events/v1` JSONL stream
//! ([`crate::events`]) and the bench summary `repro` writes — so both go
//! through this module.
//!
//! Numbers keep the exactness a byte comparison of two documents depends
//! on: `f64` prints with Rust's shortest round-trip `Display` (so *string*
//! equality of two printed floats is *bit* equality of the values, and the
//! text re-parses to the same bits), and `u64` prints exactly (so
//! `u64::MAX` budgets survive, which an `f64`-only number model would
//! round). Objects are insertion-ordered `Vec`s, not hash maps, so emitted
//! field order is deterministic.
//!
//! ```
//! use exflow_core::json::Json;
//!
//! let doc = Json::obj(vec![("budget", u64::MAX.into()), ("p99", 0.1.into())]);
//! let text = doc.write().unwrap();
//! assert_eq!(text, r#"{"budget":18446744073709551615,"p99":0.1}"#);
//! let back = Json::parse(&text).unwrap();
//! assert_eq!(back, doc);
//! assert_eq!(back.get("budget").and_then(Json::as_u64), Some(u64::MAX));
//! assert!(Json::F64(f64::NAN).write().is_err());
//! ```

/// Containers nested deeper than this are rejected by [`Json::parse`], so
/// hostile input (`[[[[...`) cannot overflow the stack.
pub const MAX_DEPTH: usize = 64;

/// [`Json::write_pretty`] breaks containers shallower than this across
/// lines and prints deeper ones inline — one row object per line.
const PRETTY_BREAK_DEPTH: usize = 2;

/// A JSON value. Integers that fit are kept exact (`U64` / `I64`); every
/// other number is an `F64`.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer token that fits `u64`.
    U64(u64),
    /// A negative integer token that fits `i64`.
    I64(i64),
    /// Any other number; must be finite to be written.
    F64(f64),
    /// Writer-side only: an `f64` printed with a fixed number of decimals
    /// (display-rounded ratios and densities). Parses back as
    /// [`Json::F64`].
    Fixed(f64, usize),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order (first match wins on lookup).
    Obj(Vec<(String, Json)>),
}

impl From<u64> for Json {
    fn from(n: u64) -> Self {
        Json::U64(n)
    }
}

impl From<usize> for Json {
    fn from(n: usize) -> Self {
        Json::U64(n as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::F64(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

/// Values are equal when they serialize identically: numbers compare by
/// their printed token (for floats that is bit equality, and `F64(20.0)`
/// equals the `U64(20)` it re-parses as), everything else structurally.
impl PartialEq for Json {
    fn eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Null, Json::Null) => true,
            (Json::Bool(a), Json::Bool(b)) => a == b,
            (Json::Str(a), Json::Str(b)) => a == b,
            (Json::Arr(a), Json::Arr(b)) => a == b,
            (Json::Obj(a), Json::Obj(b)) => a == b,
            (a, b) => matches!((a.number_token(), b.number_token()), (Some(x), Some(y)) if x == y),
        }
    }
}

impl Json {
    /// An object from `(key, value)` pairs, in the given order.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The value under `key`, if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The exact unsigned integer, if this is one.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(n) => Some(n),
            _ => None,
        }
    }

    /// The number as an `f64` (integers convert; exact for floats).
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Json::U64(n) => Some(n as f64),
            Json::I64(n) => Some(n as f64),
            Json::F64(x) | Json::Fixed(x, _) => Some(x),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The token a number prints as, or `None` for non-numbers.
    fn number_token(&self) -> Option<String> {
        match *self {
            Json::U64(n) => Some(n.to_string()),
            Json::I64(n) => Some(n.to_string()),
            Json::F64(x) => Some(x.to_string()),
            Json::Fixed(x, decimals) => Some(format!("{x:.decimals$}")),
            _ => None,
        }
    }

    /// Compact text: no whitespace anywhere (the JSONL wire layout).
    /// Fails on a non-finite float — JSON has no token for it.
    pub fn write(&self) -> Result<String, String> {
        let mut out = String::new();
        self.emit(&mut out, None)?;
        Ok(out)
    }

    /// Document text: the top-level container and its direct children
    /// break across lines with two-space indents; anything deeper prints
    /// inline with `", "` / `": "` separators. Ends with a newline.
    pub fn write_pretty(&self) -> Result<String, String> {
        let mut out = String::new();
        self.emit(&mut out, Some(0))?;
        out.push('\n');
        Ok(out)
    }

    /// `depth` is `None` for compact output, else the nesting depth of
    /// this value in a pretty document.
    fn emit(&self, out: &mut String, depth: Option<usize>) -> Result<(), String> {
        let items: Vec<(Option<&str>, &Json)> = match self {
            Json::Arr(items) => items.iter().map(|v| (None, v)).collect(),
            Json::Obj(fields) => fields.iter().map(|(k, v)| (Some(&**k), v)).collect(),
            Json::F64(x) | Json::Fixed(x, _) if !x.is_finite() => {
                return Err(format!("cannot write non-finite number {x} as JSON"));
            }
            leaf => {
                match leaf {
                    Json::Null => out.push_str("null"),
                    Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
                    Json::Str(s) => emit_string(out, s),
                    number => out.push_str(&number.number_token().expect("a number")),
                }
                return Ok(());
            }
        };
        let (open, close) = if matches!(self, Json::Arr(_)) {
            ('[', ']')
        } else {
            ('{', '}')
        };
        // A pretty container breaks its elements across lines while it is
        // shallow enough; deeper ones (and compact output) stay inline.
        let broken = depth.filter(|&d| d < PRETTY_BREAK_DEPTH);
        out.push(open);
        for (i, (key, value)) in items.into_iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if let Some(d) = broken {
                out.push('\n');
                out.push_str(&"  ".repeat(d + 1));
            } else if i > 0 && depth.is_some() {
                out.push(' ');
            }
            if let Some(key) = key {
                emit_string(out, key);
                out.push_str(if depth.is_some() { ": " } else { ":" });
            }
            value.emit(out, depth.map(|d| d + 1))?;
        }
        if let Some(d) = broken {
            out.push('\n');
            out.push_str(&"  ".repeat(d));
        }
        out.push(close);
        Ok(())
    }

    /// Parse one JSON document (RFC 8259 grammar, nothing more: no
    /// trailing commas, comments, `NaN`, or trailing text). Never panics;
    /// every rejection is an `Err` naming the byte offset.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }
}

fn emit_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("invalid JSON at byte {}: {what}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        if hit {
            self.pos += 1;
        }
        hit
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.text.as_bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error("expected a value"))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b'[') => Ok(Json::Arr(self.seq(b']', depth, Self::value)?)),
            Some(b'{') => Ok(Json::Obj(self.seq(b'}', depth, |p, depth| {
                if p.peek() != Some(b'"') {
                    return Err(p.error("expected a quoted key"));
                }
                let key = p.string()?;
                p.skip_ws();
                if !p.eat(b':') {
                    return Err(p.error("expected ':' after the key"));
                }
                p.skip_ws();
                Ok((key, p.value(depth)?))
            })?)),
            _ => Err(self.error("expected a value")),
        }
    }

    /// The comma-separated elements of a container up to `close`; the
    /// opening bracket is at the cursor.
    fn seq<T>(
        &mut self,
        close: u8,
        depth: usize,
        element: impl Fn(&mut Self, usize) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(element(self, depth + 1)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(items);
            }
            if !self.eat(b',') {
                return Err(self.error("expected ',' or the closing bracket"));
            }
        }
    }

    fn digits(&mut self) -> usize {
        let start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        self.pos - start
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let negative = self.eat(b'-');
        let int_start = self.pos;
        let int_digits = self.digits();
        if int_digits == 0 || (int_digits > 1 && self.text.as_bytes()[int_start] == b'0') {
            return Err(self.error("malformed number"));
        }
        let mut integral = true;
        if self.eat(b'.') {
            integral = false;
            if self.digits() == 0 {
                return Err(self.error("expected digits after '.'"));
            }
        }
        if self.eat(b'e') || self.eat(b'E') {
            integral = false;
            if !self.eat(b'+') {
                self.eat(b'-');
            }
            if self.digits() == 0 {
                return Err(self.error("expected digits in the exponent"));
            }
        }
        let token = &self.text[start..self.pos];
        if integral && token != "-0" {
            if let Ok(n) = token.parse::<u64>() {
                return Ok(Json::U64(n));
            }
            if let (true, Ok(n)) = (negative, token.parse::<i64>()) {
                return Ok(Json::I64(n));
            }
        }
        // "-0" is the float -0.0; integers too large for u64/i64 and every
        // token with a fraction or exponent are floats.
        match token.parse::<f64>() {
            Ok(x) if x.is_finite() => Ok(Json::F64(x)),
            _ => Err(self.error("number out of range")),
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .filter(|d| d.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.error("expected four hex digits after \\u"))?;
        self.pos += 4;
        Ok(u32::from_str_radix(digits, 16).expect("four checked hex digits"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.pos += 1; // the opening quote, checked by the caller
        let mut out = String::new();
        loop {
            let run_start = self.pos;
            while !matches!(self.peek(), None | Some(b'"' | b'\\' | 0..=0x1f)) {
                self.pos += 1;
            }
            // The run stops only at ASCII bytes, so both ends are char
            // boundaries of the (valid UTF-8) input.
            out.push_str(&self.text[run_start..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escape = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let mut code = self.hex4()?;
                            if (0xd800..0xdc00).contains(&code) {
                                // A high surrogate must pair with a low one.
                                if !(self.eat(b'\\') && self.eat(b'u')) {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&low) {
                                    return Err(self.error("unpaired surrogate"));
                                }
                                code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
                            }
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("unpaired surrogate"))?,
                            );
                        }
                        _ => return Err(self.error("unknown escape")),
                    }
                }
                Some(_) => return Err(self.error("raw control character in a string")),
                None => return Err(self.error("unterminated string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_and_pretty_layouts() {
        let doc = Json::obj(vec![
            ("schema", "s/v1".into()),
            ("wall", 2.5.into()),
            (
                "rows",
                Json::Arr(vec![
                    Json::obj(vec![("k", 1usize.into()), ("xs", Json::Arr(vec![]))]),
                    Json::obj(vec![("k", Json::I64(-2)), ("ok", Json::Bool(true))]),
                ]),
            ),
        ]);
        assert_eq!(
            doc.write().unwrap(),
            r#"{"schema":"s/v1","wall":2.5,"rows":[{"k":1,"xs":[]},{"k":-2,"ok":true}]}"#
        );
        assert_eq!(
            doc.write_pretty().unwrap(),
            "{\n  \"schema\": \"s/v1\",\n  \"wall\": 2.5,\n  \"rows\": [\n    \
             {\"k\": 1, \"xs\": []},\n    {\"k\": -2, \"ok\": true}\n  ]\n}\n"
        );
        // Both layouts parse back to the same value.
        assert_eq!(Json::parse(&doc.write().unwrap()).unwrap(), doc);
        assert_eq!(Json::parse(&doc.write_pretty().unwrap()).unwrap(), doc);
        // A display-rounded number keeps its trailing zeros on the way out
        // and parses back as the plain float.
        let fixed = Json::Fixed(2.98, 3).write().unwrap();
        assert_eq!(fixed, "2.980");
        assert_eq!(Json::parse(&fixed).unwrap(), Json::F64(2.98));
    }

    #[test]
    fn number_tokens_classify_exactly() {
        assert!(matches!(
            Json::parse("18446744073709551615"),
            Ok(Json::U64(u64::MAX))
        ));
        assert!(matches!(
            Json::parse("-9223372036854775808"),
            Ok(Json::I64(i64::MIN))
        ));
        assert!(matches!(
            Json::parse("18446744073709551616"),
            Ok(Json::F64(_))
        ));
        match Json::parse("-0").unwrap() {
            Json::F64(x) => assert_eq!(x.to_bits(), (-0.0f64).to_bits()),
            other => panic!("-0 must stay a float: {other:?}"),
        }
        for bad in [
            "01", "1.", ".5", "+1", "1e", "--1", "1e999", "NaN", "Infinity",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn strings_escape_and_unescape() {
        let s = Json::Str("a\"b\\c\n\u{1}é😀".into());
        let text = s.write().unwrap();
        assert_eq!(text, "\"a\\\"b\\\\c\\u000a\\u0001é😀\"");
        assert_eq!(Json::parse(&text).unwrap(), s);
        assert_eq!(Json::parse(r#""😀é\/""#).unwrap(), Json::Str("😀é/".into()));
        for bad in [
            r#""\ud83d""#,
            r#""\ude00""#,
            r#""\x""#,
            "\"a\nb\"",
            "\"open",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn strictness_and_depth_limit() {
        for bad in [
            "",
            "[1,]",
            "{\"a\":1,}",
            "{a:1}",
            "[1] x",
            "[1 2]",
            "{\"a\" 1}",
            "nul",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must be rejected");
        }
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert!(Json::parse(&deep).unwrap_err().contains("too deep"));
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn lookup_and_typed_accessors() {
        let doc = Json::parse(r#"{"a": 3, "b": -1, "c": 0.5, "d": "x", "a": 4}"#).unwrap();
        assert_eq!(
            doc.get("a").and_then(Json::as_u64),
            Some(3),
            "first match wins"
        );
        assert_eq!(doc.get("b").and_then(Json::as_f64), Some(-1.0));
        assert_eq!(doc.get("b").and_then(Json::as_u64), None);
        assert_eq!(doc.get("c").and_then(Json::as_u64), None);
        assert_eq!(doc.get("d").and_then(Json::as_str), Some("x"));
        assert!(doc.get("zz").is_none() && doc.as_arr().is_none());
    }
}
