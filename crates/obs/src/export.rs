//! Exporters for [`MetricsSnapshot`] and trace events — a
//! human-readable text table, a metrics JSON document and a trace
//! JSONL stream — plus strict schema validators in the
//! `bist_batch::jsonl` style (hand-rolled recursive descent, exact key
//! sets, no dependencies).

use crate::registry::{MetricsSnapshot, TraceEvent};
use std::fmt::Write as _;

/// The exact key sequence of one trace JSONL row.
pub const TRACE_KEYS: [&str; 4] = ["ts_us", "span", "labels", "dur_us"];

/// The exact top-level key sequence of the metrics JSON document.
pub const METRICS_KEYS: [&str; 3] = ["counters", "gauges", "histograms"];

/// The exact key sequence of one histogram object in the metrics JSON.
pub const HISTOGRAM_KEYS: [&str; 7] = ["count", "sum", "min", "max", "p50", "p90", "p99"];

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

/// Renders the snapshot as an aligned, human-readable text table
/// (sections in [`METRICS_KEYS`] order; empty sections are skipped).
#[must_use]
pub fn render_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let width = snapshot
        .counters
        .iter()
        .map(|(n, _)| n.len())
        .chain(snapshot.gauges.iter().map(|(n, _)| n.len()))
        .chain(snapshot.histograms.iter().map(|(n, _)| n.len()))
        .max()
        .unwrap_or(0);
    if !snapshot.counters.is_empty() {
        out.push_str("counters\n");
        for (name, v) in &snapshot.counters {
            let _ = writeln!(out, "  {name:<width$}  {v}");
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str("gauges\n");
        for (name, v) in &snapshot.gauges {
            let _ = writeln!(out, "  {name:<width$}  {v}");
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str("histograms\n");
        for (name, h) in &snapshot.histograms {
            let _ = writeln!(
                out,
                "  {name:<width$}  count={} sum={} min={} max={} p50={} p90={} p99={}",
                h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
            );
        }
    }
    if out.is_empty() {
        out.push_str("(no metrics recorded)\n");
    }
    out
}

fn push_str_json(out: &mut String, s: &str) {
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

/// Renders the snapshot as one metrics JSON document:
/// `{"counters": {...}, "gauges": {...}, "histograms": {name: {count,
/// sum, min, max, p50, p90, p99}}}`. Deterministic: names stay in the
/// snapshot's sorted order.
#[must_use]
pub fn render_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    for (i, (name, v)) in snapshot.counters.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    ");
        push_str_json(&mut out, name);
        let _ = write!(out, ": {v}");
    }
    out.push_str(if snapshot.counters.is_empty() { "},\n" } else { "\n  },\n" });
    out.push_str("  \"gauges\": {");
    for (i, (name, v)) in snapshot.gauges.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    ");
        push_str_json(&mut out, name);
        let _ = write!(out, ": {v}");
    }
    out.push_str(if snapshot.gauges.is_empty() { "},\n" } else { "\n  },\n" });
    out.push_str("  \"histograms\": {");
    for (i, (name, h)) in snapshot.histograms.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    ");
        push_str_json(&mut out, name);
        let _ = write!(
            out,
            ": {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}}}",
            h.count, h.sum, h.min, h.max, h.p50, h.p90, h.p99
        );
    }
    out.push_str(if snapshot.histograms.is_empty() { "}\n" } else { "\n  }\n" });
    out.push_str("}\n");
    out
}

/// Renders one trace event as a single-line JSON object with exactly
/// the [`TRACE_KEYS`] keys.
#[must_use]
pub fn event_to_json(event: &TraceEvent) -> String {
    let mut out = String::new();
    let _ = write!(out, "{{\"ts_us\": {}, \"span\": ", event.ts_us);
    push_str_json(&mut out, &event.span);
    out.push_str(", \"labels\": ");
    push_str_json(&mut out, &event.labels);
    let _ = write!(out, ", \"dur_us\": {}}}", event.dur_us);
    out
}

/// Renders events as a JSONL stream, one [`event_to_json`] row per
/// line.
#[must_use]
pub fn render_trace_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event_to_json(event));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

/// A parsed JSON value (integers only — the schemas emit no floats;
/// `i128` covers the full `u64` and `i64` ranges).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Json {
    Int(i128),
    Str(String),
    Object(Vec<(String, Json)>),
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { text, bytes: text.as_bytes(), pos: 0 }
    }

    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b'-' | b'0'..=b'9') => self.parse_int(),
            Some(other) => Err(self.err(&format!("unexpected `{}`", other as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // `pos` only ever advances by whole characters, so it stays on
            // a character boundary and decoding the next one is O(1).
            let Some(c) = self.text[self.pos..].chars().next() else {
                return Err(self.err("unterminated string"));
            };
            match c {
                '"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                '\\' => {
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
                        Some(b'u') => self.parse_unicode_escape()?,
                        _ => return Err(self.err("bad escape")),
                    };
                    s.push(escaped);
                    self.pos += 1;
                }
                c if c < '\u{20}' => return Err(self.err("unescaped control character")),
                c => {
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    /// Decodes the `\uXXXX` escape whose `u` is at `pos` (a UTF-16
    /// surrogate pair takes two escapes) and leaves `pos` on its last hex
    /// digit.
    fn parse_unicode_escape(&mut self) -> Result<char, String> {
        let mut code = self.hex4()?;
        if (0xD800..0xDC00).contains(&code)
            && self.bytes.get(self.pos + 1..self.pos + 3) == Some(b"\\u")
        {
            self.pos += 2;
            let low = self.hex4()?;
            if !(0xDC00..0xE000).contains(&low) {
                return Err(self.err("bad \\u escape"));
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))
    }

    /// Exactly four hex digits after the `u` at `pos`; leaves `pos` on
    /// the last one.
    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self
            .bytes
            .get(self.pos + 1..self.pos + 5)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .ok_or_else(|| self.err("bad \\u escape"))?;
        let code = digits.iter().fold(0, |acc, &d| acc * 16 + char::from(d).to_digit(16).unwrap());
        self.pos += 4;
        Ok(code)
    }

    fn parse_int(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floats are not part of the schema"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<i128>().map(Json::Int).map_err(|_| self.err("integer out of range"))
    }

    fn finish(&mut self) -> Result<(), String> {
        self.skip_ws();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.err("trailing input"))
        }
    }
}

fn as_object(value: &Json, what: &str) -> Result<Vec<(String, Json)>, String> {
    match value {
        Json::Object(fields) => Ok(fields.clone()),
        _ => Err(format!("{what}: expected an object")),
    }
}

fn as_int(value: &Json, what: &str) -> Result<i64, String> {
    match value {
        Json::Int(v) => i64::try_from(*v).map_err(|_| format!("{what}: integer out of i64 range")),
        _ => Err(format!("{what}: expected an integer")),
    }
}

fn as_nonneg(value: &Json, what: &str) -> Result<u64, String> {
    match value {
        Json::Int(v) => u64::try_from(*v)
            .map_err(|_| format!("{what}: expected a non-negative integer in u64 range, got {v}")),
        _ => Err(format!("{what}: expected an integer")),
    }
}

fn expect_keys(fields: &[(String, Json)], keys: &[&str], what: &str) -> Result<(), String> {
    let got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if got == keys {
        Ok(())
    } else {
        Err(format!("{what}: keys {got:?}, expected {keys:?}"))
    }
}

/// Validates one trace JSONL row: exactly the [`TRACE_KEYS`] keys in
/// order, `ts_us`/`dur_us` non-negative integers, `span`/`labels`
/// strings with `span` non-empty.
///
/// # Errors
///
/// A description of the first schema violation.
pub fn validate_trace_jsonl_line(line: &str) -> Result<(), String> {
    let mut parser = Parser::new(line);
    let value = parser.parse_value()?;
    parser.finish()?;
    let fields = as_object(&value, "trace row")?;
    expect_keys(&fields, &TRACE_KEYS, "trace row")?;
    as_nonneg(&fields[0].1, "ts_us")?;
    let Json::Str(span) = &fields[1].1 else {
        return Err("span: expected a string".to_string());
    };
    if span.is_empty() {
        return Err("span: must be non-empty".to_string());
    }
    if !matches!(&fields[2].1, Json::Str(_)) {
        return Err("labels: expected a string".to_string());
    }
    as_nonneg(&fields[3].1, "dur_us")?;
    Ok(())
}

/// Validates a whole trace JSONL stream, returning the row count.
///
/// # Errors
///
/// The first offending line number and its schema violation.
pub fn validate_trace_jsonl(text: &str) -> Result<usize, String> {
    let mut rows = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        validate_trace_jsonl_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        rows += 1;
    }
    Ok(rows)
}

/// Validates a metrics JSON document: top-level [`METRICS_KEYS`]
/// objects, counter/histogram values non-negative, gauge values
/// integers, each histogram carrying exactly [`HISTOGRAM_KEYS`].
/// Returns the total number of metrics.
///
/// # Errors
///
/// A description of the first schema violation.
pub fn validate_metrics_json(text: &str) -> Result<usize, String> {
    let mut parser = Parser::new(text);
    let value = parser.parse_value()?;
    parser.finish()?;
    let fields = as_object(&value, "metrics document")?;
    expect_keys(&fields, &METRICS_KEYS, "metrics document")?;
    let mut total = 0;
    for (name, v) in &as_object(&fields[0].1, "counters")? {
        as_nonneg(v, &format!("counter `{name}`"))?;
        total += 1;
    }
    for (name, v) in &as_object(&fields[1].1, "gauges")? {
        as_int(v, &format!("gauge `{name}`"))?;
        total += 1;
    }
    for (name, v) in &as_object(&fields[2].1, "histograms")? {
        let h = as_object(v, &format!("histogram `{name}`"))?;
        expect_keys(&h, &HISTOGRAM_KEYS, &format!("histogram `{name}`"))?;
        for (key, field) in &h {
            as_nonneg(field, &format!("histogram `{name}`.{key}"))?;
        }
        total += 1;
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> MetricsSnapshot {
        let r = Registry::new();
        r.counter("cache.tape.hit").add(3);
        r.counter("cache.tape.miss").inc();
        r.gauge("pool.queue_depth").set(-2);
        for v in [10, 100, 1000] {
            r.histogram("pool.queue_wait_us").record(v);
        }
        r.snapshot()
    }

    #[test]
    fn metrics_json_round_trips_through_validator() {
        let json = render_json(&sample_snapshot());
        assert_eq!(validate_metrics_json(&json).unwrap(), 4);
        // Empty snapshot is also schema-valid.
        assert_eq!(validate_metrics_json(&render_json(&MetricsSnapshot::default())).unwrap(), 0);
    }

    #[test]
    fn metrics_validator_rejects_malformed_documents() {
        assert!(validate_metrics_json("{}").is_err());
        assert!(validate_metrics_json("{\"counters\": {}, \"gauges\": {}}").is_err());
        assert!(validate_metrics_json(
            "{\"counters\": {\"c\": -1}, \"gauges\": {}, \"histograms\": {}}"
        )
        .is_err());
        assert!(validate_metrics_json(
            "{\"counters\": {}, \"gauges\": {}, \"histograms\": {\"h\": {\"count\": 1}}}"
        )
        .is_err());
        assert!(validate_metrics_json("{\"counters\": {}, \"gauges\": {}, \"histograms\": {}} x")
            .is_err());
    }

    #[test]
    fn trace_jsonl_round_trips_through_validator() {
        // Satellite: schema round-trip, including escaping.
        let events = vec![
            TraceEvent {
                ts_us: 0,
                span: "session.t0_us".to_string(),
                labels: String::new(),
                dur_us: 42,
            },
            TraceEvent {
                ts_us: 17,
                span: "session.fault_sim_us".to_string(),
                labels: "circuit=\"s27\"\nbackend=packed\t\\".to_string(),
                dur_us: u64::MAX,
            },
            TraceEvent {
                ts_us: 18,
                span: "s".to_string(),
                // Every control character, ASCII and beyond.
                labels: (0u32..0x80).filter_map(char::from_u32).chain("é 😀 ∑".chars()).collect(),
                dur_us: 1,
            },
        ];
        let text = render_trace_jsonl(&events);
        assert_eq!(validate_trace_jsonl(&text).unwrap(), 3);
        // Parse each line back and compare fields.
        for (line, event) in text.lines().zip(&events) {
            let mut parser = Parser::new(line);
            let Json::Object(fields) = parser.parse_value().unwrap() else { panic!() };
            assert_eq!(fields[0].1, Json::Int(i128::from(event.ts_us)));
            assert_eq!(fields[1].1, Json::Str(event.span.clone()));
            assert_eq!(fields[2].1, Json::Str(event.labels.clone()));
            assert_eq!(fields[3].1, Json::Int(i128::from(event.dur_us)));
        }
    }

    #[test]
    fn trace_validator_rejects_bad_rows() {
        assert!(validate_trace_jsonl_line("{}").is_err());
        assert!(validate_trace_jsonl_line(
            "{\"ts_us\": -1, \"span\": \"s\", \"labels\": \"\", \"dur_us\": 0}"
        )
        .is_err());
        assert!(validate_trace_jsonl_line(
            "{\"ts_us\": 0, \"span\": \"\", \"labels\": \"\", \"dur_us\": 0}"
        )
        .is_err());
        assert!(validate_trace_jsonl_line(
            "{\"ts_us\": 0, \"span\": \"s\", \"dur_us\": 0, \"labels\": \"\"}"
        )
        .is_err());
        assert!(validate_trace_jsonl_line(
            "{\"ts_us\": 0.5, \"span\": \"s\", \"labels\": \"\", \"dur_us\": 0}"
        )
        .is_err());
        assert!(validate_trace_jsonl("not json\n").is_err());
    }

    fn parse_str(json: &str) -> Result<String, String> {
        let mut parser = Parser::new(json);
        let value = parser.parse_value()?;
        parser.finish()?;
        match value {
            Json::Str(s) => Ok(s),
            other => Err(format!("not a string: {other:?}")),
        }
    }

    #[test]
    fn strings_follow_the_json_grammar() {
        // Every legal escape, surrogate pairs included.
        assert_eq!(parse_str(r#""\"\\\/\b\f\n\r\t""#).unwrap(), "\"\\/\u{8}\u{c}\n\r\t");
        assert_eq!(parse_str(r#""caf\u00E9 \ud83d\ude00""#).unwrap(), "café 😀");
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
        assert!(parse_str(r#""open"#).is_err());
        assert!(parse_str(r#""trailing\""#).is_err());
        // A long string parses in one pass (one character per step).
        let long = "ü".repeat(1 << 16);
        assert_eq!(parse_str(&format!("\"{long}\"")).unwrap(), long);
    }

    #[test]
    fn text_table_lists_every_metric() {
        let text = render_text(&sample_snapshot());
        for name in ["cache.tape.hit", "cache.tape.miss", "pool.queue_depth", "pool.queue_wait_us"]
        {
            assert!(text.contains(name), "{text}");
        }
        assert!(text.contains("count=3"), "{text}");
        assert_eq!(render_text(&MetricsSnapshot::default()), "(no metrics recorded)\n");
    }

    #[test]
    fn u64_max_survives_the_trace_schema() {
        let event =
            TraceEvent { ts_us: 0, span: "s".to_string(), labels: String::new(), dur_us: u64::MAX };
        let line = event_to_json(&event);
        assert!(line.contains(&u64::MAX.to_string()));
        assert!(validate_trace_jsonl_line(&line).is_ok());
        // One past u64::MAX is out of schema range.
        let over = line.replace(&u64::MAX.to_string(), "18446744073709551616");
        assert!(validate_trace_jsonl_line(&over).is_err());
    }
}
