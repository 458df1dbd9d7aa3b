//! Exporters for [`MetricsSnapshot`] and trace events — a
//! human-readable text table, a metrics JSON document and a trace
//! JSONL stream — plus strict schema validators: [`Json::parse`]
//! followed by a walk that demands exact key sequences and integer
//! values.

use crate::json::{push_string, validate_lines, Json};
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
        push_string(&mut out, name);
        let _ = write!(out, ": {v}");
    }
    out.push_str(if snapshot.counters.is_empty() { "},\n" } else { "\n  },\n" });
    out.push_str("  \"gauges\": {");
    for (i, (name, v)) in snapshot.gauges.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    ");
        push_string(&mut out, name);
        let _ = write!(out, ": {v}");
    }
    out.push_str(if snapshot.gauges.is_empty() { "},\n" } else { "\n  },\n" });
    out.push_str("  \"histograms\": {");
    for (i, (name, h)) in snapshot.histograms.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    ");
        push_string(&mut out, name);
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
    push_string(&mut out, &event.span);
    out.push_str(", \"labels\": ");
    push_string(&mut out, &event.labels);
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

fn object<'a>(value: &'a Json, what: &str) -> Result<&'a [(String, Json)], String> {
    value.as_object().ok_or_else(|| format!("{what}: expected an object"))
}

fn expect_keys(fields: &[(String, Json)], keys: &[&str], what: &str) -> Result<(), String> {
    let got: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if got == keys {
        Ok(())
    } else {
        Err(format!("{what}: keys {got:?}, expected {keys:?}"))
    }
}

fn nonneg(value: &Json, what: &str) -> Result<u64, String> {
    value.as_u64().ok_or_else(|| format!("{what}: expected a non-negative integer in u64 range"))
}

/// Validates one trace JSONL row: exactly the [`TRACE_KEYS`] keys in
/// order, `ts_us`/`dur_us` non-negative integers, `span`/`labels`
/// strings with `span` non-empty.
///
/// # Errors
///
/// A description of the first schema violation.
pub fn validate_trace_jsonl_line(line: &str) -> Result<(), String> {
    let value = Json::parse(line)?;
    let fields = object(&value, "trace row")?;
    expect_keys(fields, &TRACE_KEYS, "trace row")?;
    nonneg(&fields[0].1, "ts_us")?;
    let span = fields[1].1.as_str().ok_or("span: expected a string")?;
    if span.is_empty() {
        return Err("span: must be non-empty".to_string());
    }
    fields[2].1.as_str().ok_or("labels: expected a string")?;
    nonneg(&fields[3].1, "dur_us")?;
    Ok(())
}

/// Validates a whole trace JSONL stream, returning the row count.
///
/// # Errors
///
/// The first offending line number and its schema violation.
pub fn validate_trace_jsonl(text: &str) -> Result<usize, String> {
    validate_lines(text, validate_trace_jsonl_line)
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
    let value = Json::parse(text)?;
    let fields = object(&value, "metrics document")?;
    expect_keys(fields, &METRICS_KEYS, "metrics document")?;
    let mut total = 0;
    for (name, v) in object(&fields[0].1, "counters")? {
        nonneg(v, &format!("counter `{name}`"))?;
        total += 1;
    }
    for (name, v) in object(&fields[1].1, "gauges")? {
        v.as_i64().ok_or_else(|| format!("gauge `{name}`: expected an integer in i64 range"))?;
        total += 1;
    }
    for (name, v) in object(&fields[2].1, "histograms")? {
        let h = object(v, &format!("histogram `{name}`"))?;
        expect_keys(h, &HISTOGRAM_KEYS, &format!("histogram `{name}`"))?;
        for (key, field) in h {
            nonneg(field, &format!("histogram `{name}`.{key}"))?;
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
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["{\"x\": ", "["] {
            let deep = format!("{{\"counters\": {}", open.repeat(500_000));
            assert!(validate_metrics_json(&deep).unwrap_err().contains("nesting"));
            let deep = format!("{{\"ts_us\": {}", open.repeat(500_000));
            assert!(validate_trace_jsonl_line(&deep).unwrap_err().contains("nesting"));
        }
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
            let row = Json::parse(line).unwrap();
            assert_eq!(row.get("ts_us").and_then(Json::as_u64), Some(event.ts_us));
            assert_eq!(row.get("span").and_then(Json::as_str), Some(event.span.as_str()));
            assert_eq!(row.get("labels").and_then(Json::as_str), Some(event.labels.as_str()));
            assert_eq!(row.get("dur_us").and_then(Json::as_u64), Some(event.dur_us));
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
