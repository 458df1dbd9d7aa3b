//! The workspace's one JSON grammar: a value tree, a strict RFC 8259
//! parser with a nesting cap, and the one string escaper every renderer
//! shares.
//!
//! Every reader of JSON in the workspace — the metrics/trace validators
//! here, the campaign row, lint row and journal readers and the serve
//! spec parser in `bist-batch`, the `BENCH_*.json` report check in
//! `bist-bench` — is [`Json::parse`] followed by a schema walk over the
//! tree, so they agree on what JSON is. Numbers stay as their validated
//! lexeme until a typed accessor reads them: `u64::MAX` seeds parse
//! exactly, shortest-round-trip floats parse back to the same bits, and
//! an integer-only schema can still tell `1` from `1.0`.
//!
//! ```
//! use bist_obs::json::{push_string, Json};
//!
//! let mut text = String::from("{\"name\": ");
//! push_string(&mut text, "caf\u{e9}\t\"x\"");
//! text.push_str(", \"seed\": 18446744073709551615}");
//! let value = Json::parse(&text).unwrap();
//! assert_eq!(value.get("name").and_then(Json::as_str), Some("caf\u{e9}\t\"x\""));
//! assert_eq!(value.get("seed").and_then(Json::as_u64), Some(u64::MAX));
//! assert!(Json::parse(&"[".repeat(100_000)).is_err()); // capped, no stack overflow
//! ```

use std::fmt::Write as _;

/// The deepest nesting of arrays and objects [`Json::parse`] accepts.
/// Every schema in the workspace nests at most three levels; the cap
/// bounds the parser's recursion so hostile input is an `Err`, never a
/// stack overflow.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object members keep their order of appearance
/// (exact-key-order schemas depend on it), duplicates included.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its validated lexeme (see the typed accessors).
    Num(String),
    /// A string, escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (surrounding whitespace
    /// allowed, nothing else).
    ///
    /// # Errors
    ///
    /// A description of the first grammar violation, with its byte
    /// offset. Nesting deeper than [`MAX_DEPTH`] is one.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, bytes: text.as_bytes(), pos: 0 };
        let value = p.value(0)?;
        p.ws();
        if p.pos == p.bytes.len() {
            Ok(value)
        } else {
            Err(p.err("trailing input"))
        }
    }

    /// The member `key` of an object (the last one if the key repeats);
    /// `None` for a missing key or a non-object.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The members of an object.
    #[must_use]
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// The items of an array.
    #[must_use]
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The decoded text of a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A boolean.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// A number written as a non-negative integer in `u64` range (no
    /// fraction, no exponent).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        self.lexeme()?.parse().ok()
    }

    /// A number written as an integer in `i64` range.
    #[must_use]
    pub fn as_i64(&self) -> Option<i64> {
        self.lexeme()?.parse().ok()
    }

    /// [`as_u64`](Self::as_u64), narrowed to `usize`.
    #[must_use]
    pub fn as_usize(&self) -> Option<usize> {
        self.lexeme()?.parse().ok()
    }

    /// Any number, correctly rounded: a lexeme written by `f64`'s
    /// shortest round-trip `Display` parses back to the same bits.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        self.lexeme()?.parse().ok()
    }

    fn lexeme(&self) -> Option<&str> {
        match self {
            Json::Num(n) => Some(n),
            _ => None,
        }
    }
}

/// Appends `s` to `out` as a quoted JSON string: `"` and `\` escaped,
/// `\n`/`\r`/`\t` by name, every other control character as `\u00XX`,
/// everything else verbatim. The output always parses back to `s`.
pub fn push_string(out: &mut String, s: &str) {
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

/// [`push_string`] into a fresh `String`.
#[must_use]
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_string(&mut out, s);
    out
}

/// Checks every non-blank line of a JSONL document with `row` and
/// returns the row count.
///
/// # Errors
///
/// The first offending line number and its violation.
pub fn validate_lines(
    text: &str,
    row: impl Fn(&str) -> Result<(), String>,
) -> Result<usize, String> {
    let mut rows = 0;
    for (i, line) in text.lines().enumerate() {
        if !line.trim().is_empty() {
            row(line).map_err(|e| format!("line {}: {e}", i + 1))?;
            rows += 1;
        }
    }
    Ok(rows)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// RFC 8259 whitespace: space, tab, LF, CR — nothing else.
    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    /// One value, `depth` containers deep.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => {
                Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")))
            }
            Some(b'{') => self.object(depth + 1),
            Some(b'[') => self.array(depth + 1),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(self.err(&format!("unexpected `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            members.push((key, self.value(depth)?));
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, kept as
    /// its lexeme.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => {
                self.pos += 1;
                if matches!(self.peek(), Some(b'0'..=b'9')) {
                    return Err(self.err("leading zero in number"));
                }
            }
            Some(b'1'..=b'9') => self.digits(),
            _ => return Err(self.err("expected a digit")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.required_digits("`.`")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.required_digits("exponent")?;
        }
        Ok(Json::Num(self.text[start..self.pos].to_string()))
    }

    fn digits(&mut self) {
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
    }

    fn required_digits(&mut self, after: &str) -> Result<(), String> {
        let start = self.pos;
        self.digits();
        if self.pos == start {
            Err(self.err(&format!("digits required after {after}")))
        } else {
            Ok(())
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run of plain characters in one go. The run stops
            // only at ASCII bytes, so both ends are character boundaries.
            let run = self.pos;
            while matches!(self.peek(), Some(b) if b != b'"' && b != b'\\' && b >= 0x20) {
                self.pos += 1;
            }
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("bad escape")),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                Some(_) => return Err(self.err("unescaped control character")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at `pos` — a UTF-16
    /// surrogate pair takes two escapes, a lone surrogate is an error —
    /// and leaves `pos` on its last hex digit.
    fn unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code)
            && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
        {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("unpaired surrogate in \\u escape"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.err("unpaired surrogate in \\u escape"))
    }

    /// Exactly four hex digits after the `u` at `pos`; leaves `pos` on
    /// the last one.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .text
            .get(self.pos + 1..self.pos + 5)
            .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        let code = u32::from_str_radix(digits, 16).expect("four hex digits");
        self.pos += 4;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(json: &str) -> Result<String, String> {
        match Json::parse(json)? {
            Json::Str(s) => Ok(s),
            other => Err(format!("not a string: {other:?}")),
        }
    }

    #[test]
    fn strings_follow_the_json_grammar() {
        // Every legal escape, surrogate pairs included.
        assert_eq!(parse_str(r#""\"\\\/\b\f\n\r\t""#).unwrap(), "\"\\/\u{8}\u{c}\n\r\t");
        assert_eq!(parse_str(r#""caf\u00E9 \ud83d\ude00""#).unwrap(), "café 😀");
        assert_eq!(parse_str("\"café 😀\"").unwrap(), "café 😀");
        // Raw control characters must be escaped.
        for c in ['\u{0}', '\u{8}', '\n', '\u{1f}'] {
            assert!(parse_str(&format!("\"a{c}b\"")).is_err(), "{c:?}");
        }
        // `\u` takes exactly four hex digits: no sign, no short form.
        for bad in [r#""\u+041""#, r#""\u-041""#, r#""\u41""#, r#""\u004g""#, r#""\x41""#] {
            assert!(parse_str(bad).is_err(), "{bad}");
        }
        // Lone or mismatched surrogates are not characters.
        for bad in [r#""\ud83d""#, r#""\ude00""#, r#""\ud83d\u0041""#, r#""\ud83dx""#] {
            assert!(parse_str(bad).is_err(), "{bad}");
        }
        // A multi-byte character right after `\u` is not a hex digit.
        assert!(parse_str("\"\\u00é\"").is_err());
        assert!(parse_str(r#""open"#).is_err());
        assert!(parse_str(r#""trailing\""#).is_err());
        // A long string parses in one pass.
        let long = "ü".repeat(1 << 16);
        assert_eq!(parse_str(&format!("\"{long}\"")).unwrap(), long);
    }

    #[test]
    fn escaped_strings_round_trip() {
        let hostile: String = (0u32..0x80)
            .filter_map(char::from_u32)
            .chain("é 😀 ∑ \u{2028} \u{10ffff}".chars())
            .collect();
        for s in ["", "plain", "tab\there", "nl\nx", "\u{1}", "back\\slash", &hostile] {
            let quoted = quote(s);
            assert!(!quoted[1..quoted.len() - 1].bytes().any(|b| b < 0x20), "{quoted:?}");
            assert_eq!(parse_str(&quoted).unwrap(), s);
        }
        // Printable text renders verbatim.
        assert_eq!(quote("café/a_b"), "\"café/a_b\"");
        assert_eq!(quote("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn numbers_keep_their_lexeme() {
        let n = |text: &str| Json::parse(text);
        assert_eq!(n("18446744073709551615").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(n("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(n("-3").unwrap().as_i64(), Some(-3));
        assert_eq!(n("-3").unwrap().as_u64(), None);
        // Integer accessors refuse fractions and exponents.
        assert_eq!(n("1.0").unwrap().as_u64(), None);
        assert_eq!(n("1e3").unwrap().as_i64(), None);
        assert_eq!(n("1E+3").unwrap().as_f64(), Some(1000.0));
        for x in [0.1, 1.0 / 3.0, 5e-324, f64::MAX, 0.000_123_456_789_012_345_67] {
            assert_eq!(n(&x.to_string()).unwrap().as_f64().map(f64::to_bits), Some(x.to_bits()));
        }
        for bad in ["01", "-01", "+1", "1.", ".5", "1e", "1e+", "-", "0x10", "NaN", "inf"] {
            assert!(n(bad).is_err(), "{bad}");
        }
        assert_eq!(n("-0").unwrap(), Json::Num("-0".to_string()));
    }

    #[test]
    fn documents_are_strict() {
        let doc =
            Json::parse(" {\"a\": [1, true, null, {\"b\": \"c\"}], \"a\": false}\r\n").unwrap();
        assert_eq!(doc.as_object().map(<[_]>::len), Some(2));
        assert_eq!(doc.get("a"), Some(&Json::Bool(false)), "the last duplicate wins");
        assert_eq!(doc.get("z"), None);
        assert_eq!(Json::Null.get("a"), None);
        for bad in [
            "",
            " ",
            "{",
            "}",
            "[1,]",
            "[,1]",
            "{\"a\" 1}",
            "{\"a\": 1,}",
            "{a: 1}",
            "{1: 2}",
            "tru",
            "nul",
            "[1] [2]",
            "{} x",
            "\u{c}{}",
            "{}\u{c}",
            "[1\u{c}]",
            "'a'",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).unwrap_err().contains("nesting"));
        let objects = format!("{}1{}", "{\"k\": ".repeat(MAX_DEPTH + 1), "}".repeat(MAX_DEPTH + 1));
        assert!(Json::parse(&objects).unwrap_err().contains("nesting"));
        for open in ["[", "{\"x\": "] {
            let deep = open.repeat(500_000);
            assert!(Json::parse(&deep).unwrap_err().contains("nesting"));
        }
    }
}
