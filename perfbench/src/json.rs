//! A small JSON reader (the benchmark's contract file, pinned results,
//! server replies) and the validator of the result line the benchmark
//! prints.

use std::collections::BTreeMap;

/// A parsed JSON value. Object keys keep their order of appearance.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = p.value()?;
        p.ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing characters at byte {}", p.pos));
        }
        Ok(value)
    }

    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Object keys in order (empty for non-objects).
    pub fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            _ => Vec::new(),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.ws();
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::String),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        text.parse().map(Json::Number).map_err(|_| format!("bad number `{text}` at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos]).map_err(|e| e.to_string())?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let escaped = self.bytes.get(self.pos + 1).copied();
                    self.pos += 2;
                    match escaped {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos - 1)),
                    }
                }
                _ => return Err("unterminated string".to_string()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.expect(b':')?;
            members.push((key, self.value()?));
            self.ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

/// Escapes `s` for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Checks a printed result line: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`; whole, consistent counts; and exactly the
/// metrics `expected` names (name → unit), each a finite number with the
/// expected unit.
pub fn validate_result(line: &str, expected: &BTreeMap<String, String>) -> Result<(), String> {
    let root = Json::parse(line)?;
    let keys = root.keys();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    root.get("correct").and_then(Json::as_bool).ok_or("`correct` is not a boolean")?;
    let count = |key: &str| -> Result<f64, String> {
        let n = root.get(key).and_then(Json::as_f64).ok_or(format!("`{key}` is not a number"))?;
        if n.fract() != 0.0 || n < 0.0 {
            return Err(format!("`{key}` = {n} is not a whole number"));
        }
        Ok(n)
    };
    let (attempted, failed) = (count("attempted")?, count("failed")?);
    if attempted < 1.0 || failed > attempted {
        return Err(format!("attempted {attempted} / failed {failed} are inconsistent"));
    }
    let metrics = root.get("metrics").ok_or("no `metrics`")?;
    let names: Vec<&str> = metrics.keys();
    let wanted: Vec<&str> = expected.keys().map(String::as_str).collect();
    let mut sorted_names = names.clone();
    sorted_names.sort_unstable();
    if sorted_names != wanted || names.len() != expected.len() {
        return Err(format!("metrics are {names:?}, expected {wanted:?}"));
    }
    for (name, unit) in expected {
        let metric = metrics.get(name).expect("name checked above");
        if metric.keys() != ["value", "unit"] {
            return Err(format!("metric `{name}` has keys {:?}", metric.keys()));
        }
        let value = metric.get("value").and_then(Json::as_f64);
        if !value.is_some_and(f64::is_finite) {
            return Err(format!("metric `{name}` has no finite value"));
        }
        if metric.get("unit").and_then(Json::as_str) != Some(unit.as_str()) {
            return Err(format!("metric `{name}` does not have unit `{unit}`"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let doc = Json::parse(r#"{"a": [1, -2.5e1, true, null], "b": {"c": "x\"A"}}"#).unwrap();
        assert_eq!(doc.keys(), ["a", "b"]);
        let a = doc.get("a").and_then(Json::as_array).unwrap();
        assert_eq!(a[1].as_f64(), Some(-25.0));
        assert_eq!(a[3], Json::Null);
        assert_eq!(doc.get("b").and_then(|b| b.get("c")).and_then(Json::as_str), Some("x\"A"));
        assert!(Json::parse("{\"a\": 1} x").is_err());
        assert!(Json::parse("[1, 2").is_err());
        assert_eq!(
            Json::parse(&format!("\"{}\"", escape("q\"\\\n"))).unwrap().as_str(),
            Some("q\"\\\n")
        );
    }

    fn expected() -> BTreeMap<String, String> {
        [("wall_s", "s"), ("setup_s", "s")]
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn validator_accepts_a_well_formed_result() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"wall_s": {"value": 1.5, "unit": "s"}, "setup_s": {"value": 0.2, "unit": "s"}}}"#;
        assert_eq!(validate_result(line, &expected()), Ok(()));
    }

    #[test]
    fn validator_rejects_schema_violations() {
        let cases = [
            // extra top-level key
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {}, "x": 1}"#,
            // zero attempts
            r#"{"correct": true, "attempted": 0, "failed": 0, "metrics": {"wall_s": {"value": 1, "unit": "s"}, "setup_s": {"value": 1, "unit": "s"}}}"#,
            // fractional count
            r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {"wall_s": {"value": 1, "unit": "s"}, "setup_s": {"value": 1, "unit": "s"}}}"#,
            // more failures than attempts
            r#"{"correct": false, "attempted": 1, "failed": 2, "metrics": {"wall_s": {"value": 1, "unit": "s"}, "setup_s": {"value": 1, "unit": "s"}}}"#,
            // missing metric
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 1, "unit": "s"}}}"#,
            // wrong unit
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": 1, "unit": "ms"}, "setup_s": {"value": 1, "unit": "s"}}}"#,
            // non-numeric value
            r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"wall_s": {"value": "1", "unit": "s"}, "setup_s": {"value": 1, "unit": "s"}}}"#,
            // not JSON at all
            "correct",
        ];
        for case in cases {
            assert!(validate_result(case, &expected()).is_err(), "accepted: {case}");
        }
    }
}
