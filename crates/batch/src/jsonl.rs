//! JSONL rendering and schema validation for campaign output.
//!
//! One JSON object per line. Every reader is [`Json::parse`] from
//! `bist_obs::json` followed by a walk over the campaign row schema, so
//! truncated or drifting output fails loudly (the
//! [`JsonlSink`](crate::JsonlSink) validates each row before writing
//! it, and CI re-validates the file). Rows allow unknown keys.

use crate::report::{JobMetrics, JobRecord, JobStatus};
use bist_obs::json::{push_string, validate_lines, Json};

/// Keys every row must carry. `seconds` stays the job's total wall time
/// (`queue_seconds + exec_seconds`) so historical consumers keep working.
const ROW_KEYS: [&str; 9] = [
    "job",
    "circuit",
    "backend",
    "scheme",
    "seed",
    "status",
    "seconds",
    "queue_seconds",
    "exec_seconds",
];
/// Additional keys required when `status == "ok"`.
const OK_KEYS: [&str; 14] = [
    "engine",
    "faults_total",
    "faults_detected",
    "t0_len",
    "n",
    "set_count",
    "total_len",
    "max_len",
    "applied_test_len",
    "loaded_fraction",
    "scheme_data_bits",
    "monolithic_data_bits",
    "gates_removed",
    "verified",
];

/// Renders one record as a single JSONL row (no trailing newline).
#[must_use]
pub fn record_to_json(record: &JobRecord) -> String {
    record_row(record, None)
}

/// [`record_to_json`], with an `"fp"` key carrying the writing
/// campaign's configuration fingerprint appended when one is given —
/// the row format of fingerprint-stamped journals.
pub(crate) fn record_row(record: &JobRecord, fingerprint: Option<&str>) -> String {
    let mut out = String::with_capacity(256);
    out.push('{');
    push_kv(&mut out, "job", &record.job.to_string());
    push_kv_str(&mut out, "circuit", &record.circuit);
    push_kv_str(&mut out, "backend", &record.backend);
    push_kv_str(&mut out, "scheme", &record.scheme);
    push_kv(&mut out, "seed", &record.seed.to_string());
    push_kv_str(&mut out, "status", record.status.as_str());
    push_kv(&mut out, "seconds", &format!("{:.6}", record.seconds));
    push_kv(&mut out, "queue_seconds", &format!("{:.6}", record.queue_seconds));
    push_kv(&mut out, "exec_seconds", &format!("{:.6}", record.exec_seconds));
    if let Some(m) = &record.metrics {
        push_kv_str(&mut out, "engine", &m.engine);
        push_kv(&mut out, "faults_total", &m.faults_total.to_string());
        push_kv(&mut out, "faults_detected", &m.faults_detected.to_string());
        push_kv(&mut out, "t0_len", &m.t0_len.to_string());
        push_kv(&mut out, "n", &m.n.to_string());
        push_kv(&mut out, "set_count", &m.set_count.to_string());
        push_kv(&mut out, "total_len", &m.total_len.to_string());
        push_kv(&mut out, "max_len", &m.max_len.to_string());
        push_kv(&mut out, "applied_test_len", &m.applied_test_len.to_string());
        // Shortest round-trip rendering (Rust's f64 Display), NOT a fixed
        // precision: resumed campaigns rebuild their summary from these
        // rows, and the digest compares f64 bit patterns exactly.
        push_kv(&mut out, "loaded_fraction", &m.loaded_fraction.to_string());
        push_kv(&mut out, "scheme_data_bits", &m.scheme_data_bits.to_string());
        push_kv(&mut out, "monolithic_data_bits", &m.monolithic_data_bits.to_string());
        push_kv(&mut out, "gates_removed", &m.gates_removed.to_string());
        let verified = match m.verified {
            Some(true) => "true",
            Some(false) => "false",
            None => "null",
        };
        push_kv(&mut out, "verified", verified);
    }
    if let Some(error) = &record.error {
        push_kv_str(&mut out, "error", error);
    }
    if let Some(fp) = fingerprint {
        push_kv_str(&mut out, "fp", fp);
    }
    out.push('}');
    out
}

fn push_kv(out: &mut String, key: &str, raw: &str) {
    push_key(out, key);
    out.push_str(raw);
}

fn push_kv_str(out: &mut String, key: &str, value: &str) {
    push_key(out, key);
    push_string(out, value);
}

fn push_key(out: &mut String, key: &str) {
    if out.len() > 1 {
        out.push_str(", ");
    }
    push_string(out, key);
    out.push_str(": ");
}

/// Keys every lint diagnostic row must carry (`subseq-bist lint --jsonl`).
const LINT_KEYS: [&str; 5] = ["circuit", "code", "severity", "message", "nets"];

/// Renders one lint diagnostic as a single JSONL row (no trailing
/// newline): `circuit`, stable `code` (`L001`…), `severity`
/// (`error`/`warning`), `message`, and the offending `nets` as a JSON
/// array.
#[must_use]
pub fn diagnostic_to_json(circuit: &str, diagnostic: &subseq_bist::verify::Diagnostic) -> String {
    let mut out = String::with_capacity(128);
    out.push('{');
    push_kv_str(&mut out, "circuit", circuit);
    push_kv_str(&mut out, "code", diagnostic.code.code());
    push_kv_str(&mut out, "severity", &diagnostic.severity().to_string());
    push_kv_str(&mut out, "message", &diagnostic.message);
    push_key(&mut out, "nets");
    out.push('[');
    for (i, net) in diagnostic.nets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_string(&mut out, net);
    }
    out.push_str("]}");
    out
}

/// Parses `line` as one JSON object row and checks that it carries
/// every key of `required` (`what` names the row kind in the error).
fn row_object(line: &str, required: &[&str], what: &str) -> Result<Json, String> {
    let row = Json::parse(line)?;
    let members = row.as_object().ok_or("expected a JSON object row")?;
    for key in required {
        if !members.iter().any(|(k, _)| k == key) {
            return Err(format!("{what} missing `{key}`"));
        }
    }
    Ok(row)
}

/// The string member `key` of a row already checked to carry it.
fn str_field<'a>(row: &'a Json, key: &str) -> Result<&'a str, String> {
    row.get(key).and_then(Json::as_str).ok_or_else(|| format!("{key}: expected a string"))
}

/// Validates one lint diagnostic JSONL row: well-formed JSON object, the
/// keys `circuit`, `code`, `severity`, `message` and `nets`, an
/// `L`-prefixed code and a known severity.
///
/// # Errors
///
/// A description of the first syntax or schema violation.
pub fn validate_lint_jsonl_line(line: &str) -> Result<(), String> {
    let row = row_object(line, &LINT_KEYS, "diagnostic row")?;
    let code = str_field(&row, "code")?;
    if code.len() != 4 || !code.starts_with('L') || !code[1..].bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("bad lint code `{code}` (want L000-style)"));
    }
    if row.get("nets").and_then(Json::as_array).is_none() {
        return Err("nets: expected an array".to_string());
    }
    match str_field(&row, "severity")? {
        "error" | "warning" => Ok(()),
        other => Err(format!("unknown severity `{other}`")),
    }
}

/// Validates a whole lint-diagnostic JSONL document (one row per
/// non-empty line) and returns the row count.
///
/// # Errors
///
/// The first offending line number and its violation.
pub fn validate_lint_jsonl(text: &str) -> Result<usize, String> {
    validate_lines(text, validate_lint_jsonl_line)
}

/// Parses a campaign row and checks its key set: the [`ROW_KEYS`], a
/// known `status`, the [`OK_KEYS`] on an ok row and `error` on a failed
/// one.
fn campaign_row(line: &str) -> Result<(Json, JobStatus), String> {
    let row = row_object(line, &ROW_KEYS, "row")?;
    let status = match str_field(&row, "status")? {
        "ok" => JobStatus::Ok,
        "failed" => JobStatus::Failed,
        other => return Err(format!("unknown status `{other}`")),
    };
    let required: &[&str] = if status == JobStatus::Ok { &OK_KEYS } else { &["error"] };
    for key in required {
        if row.get(key).is_none() {
            return Err(format!("{} row missing `{key}`", status.as_str()));
        }
    }
    Ok((row, status))
}

/// Validates one JSONL row: well-formed JSON object, the required row
/// keys, and — for `status: "ok"` rows — the metric keys, each with the
/// type [`parse_record`] reads it as. A row passes exactly when
/// `--resume` can replay it.
///
/// # Errors
///
/// A description of the first syntax or schema violation.
pub fn validate_jsonl_line(line: &str) -> Result<(), String> {
    parse_record(line).map(|_| ())
}

/// Validates a whole JSONL document (one row per non-empty line) and
/// returns the row count.
///
/// # Errors
///
/// The first offending line number and its violation.
pub fn validate_jsonl(text: &str) -> Result<usize, String> {
    validate_lines(text, validate_jsonl_line)
}

/// [`validate_jsonl`] for crash-recovery (`--resume`): tolerates exactly
/// one invalid **trailing** line — the torn write of a killed process —
/// and returns `(valid_rows, truncated)`. An invalid line anywhere
/// before the end is still an error: torn writes only ever corrupt the
/// tail of an append-only journal, so mid-file damage means the file is
/// not what it claims to be.
///
/// # Errors
///
/// The first offending non-trailing line number and its violation.
pub fn validate_jsonl_lenient(text: &str) -> Result<(usize, bool), String> {
    let lines: Vec<(usize, &str)> =
        text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()).collect();
    let mut rows = 0;
    for (position, (i, line)) in lines.iter().enumerate() {
        match validate_jsonl_line(line) {
            Ok(()) => rows += 1,
            Err(_) if position == lines.len() - 1 => return Ok((rows, true)),
            Err(e) => return Err(format!("line {}: {e}", i + 1)),
        }
    }
    Ok((rows, false))
}

/// One journal row parsed back into its record, plus the campaign
/// fingerprint the writing sink stamped on it (if any).
#[derive(Debug, Clone)]
pub struct ParsedRow {
    /// The reconstructed record.
    pub record: JobRecord,
    /// The `fp` key of the row — the writing campaign's configuration
    /// fingerprint, used by `--resume` to refuse stale journals.
    pub fingerprint: Option<String>,
}

/// Parses one JSONL row back into a [`JobRecord`] — the read half of
/// [`record_to_json`], used by crash-recovery to replay a journal.
/// Unknown keys are ignored (forward-compatible, like the validator).
///
/// # Errors
///
/// A description of the first syntax or schema violation.
pub fn parse_record(line: &str) -> Result<ParsedRow, String> {
    let (row, status) = campaign_row(line)?;
    let string = |key: &str| str_field(&row, key).map(str::to_string);
    let number = |key: &str| {
        row.get(key).and_then(Json::as_f64).ok_or_else(|| format!("{key}: expected a number"))
    };
    let count = |key: &str| {
        row.get(key).and_then(Json::as_usize).ok_or_else(|| format!("{key}: expected a count"))
    };
    let metrics = match status {
        JobStatus::Ok => Some(JobMetrics {
            engine: string("engine")?,
            faults_total: count("faults_total")?,
            faults_detected: count("faults_detected")?,
            t0_len: count("t0_len")?,
            n: count("n")?,
            set_count: count("set_count")?,
            total_len: count("total_len")?,
            max_len: count("max_len")?,
            applied_test_len: count("applied_test_len")?,
            loaded_fraction: number("loaded_fraction")?,
            scheme_data_bits: count("scheme_data_bits")?,
            monolithic_data_bits: count("monolithic_data_bits")?,
            gates_removed: count("gates_removed")?,
            verified: match row.get("verified") {
                Some(Json::Null) => None,
                Some(Json::Bool(b)) => Some(*b),
                _ => return Err("verified: expected `true`, `false` or `null`".to_string()),
            },
        }),
        JobStatus::Failed => None,
    };
    let optional = |key: &str| row.get(key).map(|_| string(key)).transpose();
    Ok(ParsedRow {
        record: JobRecord {
            job: count("job")?,
            circuit: string("circuit")?,
            backend: string("backend")?,
            scheme: string("scheme")?,
            seed: row.get("seed").and_then(Json::as_u64).ok_or("seed: expected a u64")?,
            status,
            seconds: number("seconds")?,
            queue_seconds: number("queue_seconds")?,
            exec_seconds: number("exec_seconds")?,
            metrics,
            error: optional("error")?,
        },
        fingerprint: optional("fp")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{JobMetrics, JobStatus};

    fn ok_record() -> JobRecord {
        JobRecord {
            job: 3,
            circuit: "s27".to_string(),
            backend: "sharded:0".to_string(),
            scheme: "default".to_string(),
            seed: 1999,
            status: JobStatus::Ok,
            seconds: 0.25,
            queue_seconds: 0.05,
            exec_seconds: 0.2,
            metrics: Some(JobMetrics {
                engine: "sharded".to_string(),
                faults_total: 32,
                faults_detected: 32,
                t0_len: 10,
                n: 2,
                set_count: 2,
                total_len: 5,
                max_len: 3,
                applied_test_len: 80,
                loaded_fraction: 0.5,
                scheme_data_bits: 12,
                monolithic_data_bits: 40,
                gates_removed: 0,
                verified: Some(true),
            }),
            error: None,
        }
    }

    #[test]
    fn ok_rows_render_and_validate() {
        let line = record_to_json(&ok_record());
        validate_jsonl_line(&line).expect("valid row");
        assert!(line.contains("\"status\": \"ok\""));
        assert!(line.contains("\"verified\": true"));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn failed_rows_require_error() {
        let mut record = ok_record();
        record.status = JobStatus::Failed;
        record.metrics = None;
        record.error = Some("it \"broke\"\nbadly".to_string());
        let line = record_to_json(&record);
        validate_jsonl_line(&line).expect("valid failed row");
        assert!(line.contains("\\\"broke\\\""));
        assert!(!line.contains('\n'));
        // Dropping the error key invalidates the row.
        record.error = None;
        let line = record_to_json(&record);
        assert!(validate_jsonl_line(&line).unwrap_err().contains("error"));
    }

    #[test]
    fn schema_violations_are_caught() {
        assert!(validate_jsonl_line("{").is_err());
        assert!(validate_jsonl_line("{}").unwrap_err().contains("job"));
        assert!(validate_jsonl_line("{\"job\": 1}x").is_err());
        let no_metrics = r#"{"job": 1, "circuit": "c", "backend": "b", "scheme": "s",
            "seed": 1, "status": "ok", "seconds": 0.1, "queue_seconds": 0.0,
            "exec_seconds": 0.1}"#
            .replace('\n', " ");
        assert!(validate_jsonl_line(&no_metrics).unwrap_err().contains("ok row missing"));
        // A row without the queue/exec split is rejected outright.
        let no_split = r#"{"job": 1, "circuit": "c", "backend": "b", "scheme": "s",
            "seed": 1, "status": "ok", "seconds": 0.1}"#
            .replace('\n', " ");
        assert!(validate_jsonl_line(&no_split).unwrap_err().contains("queue_seconds"));
        let bad_status = r#"{"job": 1, "circuit": "c", "backend": "b", "scheme": "s",
            "seed": 1, "status": "meh", "seconds": 0.1, "queue_seconds": 0.0,
            "exec_seconds": 0.1}"#
            .replace('\n', " ");
        assert!(validate_jsonl_line(&bad_status).unwrap_err().contains("meh"));
    }

    #[test]
    fn mistyped_fields_are_caught() {
        let row = record_to_json(&ok_record());
        for (from, to) in [
            ("\"faults_total\": 32", "\"faults_total\": \"x\""),
            ("\"t0_len\": 10", "\"t0_len\": -1"),
            ("\"loaded_fraction\": 0.5", "\"loaded_fraction\": \"0.5\""),
            ("\"verified\": true", "\"verified\": 1"),
            ("\"engine\": \"sharded\"", "\"engine\": 7"),
            ("\"seed\": 1999", "\"seed\": 1.5"),
            ("\"circuit\": \"s27\"", "\"circuit\": null"),
        ] {
            let bad = row.replace(from, to);
            assert_ne!(bad, row, "{from}");
            let key = &from[1..from[1..].find('"').unwrap() + 1];
            assert!(validate_jsonl_line(&bad).unwrap_err().contains(key), "{to}");
            // A whole document rejects it anywhere; a lenient read forgives
            // it only as the torn last line.
            assert!(validate_jsonl(&format!("{bad}\n{row}\n")).unwrap_err().starts_with("line 1"));
            assert!(validate_jsonl_lenient(&format!("{bad}\n{row}\n")).is_err(), "{to}");
            assert_eq!(validate_jsonl_lenient(&format!("{row}\n{bad}\n")), Ok((1, true)));
        }
    }

    #[test]
    fn lint_rows_render_and_validate() {
        use subseq_bist::verify::lint_source;
        let diags = lint_source("INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n").unwrap();
        assert!(!diags.is_empty());
        let mut doc = String::new();
        for d in &diags {
            let line = diagnostic_to_json("demo", d);
            validate_lint_jsonl_line(&line).expect("valid diagnostic row");
            assert!(line.contains("\"code\": \"L002\""), "{line}");
            assert!(line.contains("\"severity\": \"error\""), "{line}");
            assert!(line.contains("\"nets\": [\"ghost\"]"), "{line}");
            doc.push_str(&line);
            doc.push('\n');
        }
        assert_eq!(validate_lint_jsonl(&doc).unwrap(), diags.len());
    }

    #[test]
    fn lint_schema_violations_are_caught() {
        assert!(validate_lint_jsonl_line("{").is_err());
        assert!(validate_lint_jsonl_line("{}").unwrap_err().contains("circuit"));
        let row = |code: &str, sev: &str| {
            format!(
                r#"{{"circuit": "c", "code": "{code}", "severity": "{sev}", "message": "m", "nets": ["x"]}}"#
            )
        };
        assert!(validate_lint_jsonl_line(&row("L001", "error")).is_ok());
        assert!(validate_lint_jsonl_line(&row("L001", "warning")).is_ok());
        assert!(validate_lint_jsonl_line(&row("X001", "error")).unwrap_err().contains("X001"));
        assert!(validate_lint_jsonl_line(&row("L1", "error")).unwrap_err().contains("L1"));
        assert!(validate_lint_jsonl_line(&row("L001", "fatal")).unwrap_err().contains("fatal"));
        // `nets` must be an array, not a scalar.
        let scalar_nets =
            r#"{"circuit": "c", "code": "L001", "severity": "error", "message": "m", "nets": "x"}"#;
        assert!(validate_lint_jsonl_line(scalar_nets).is_err());
        // Campaign rows are not diagnostic rows.
        assert!(validate_lint_jsonl_line(&record_to_json(&ok_record())).is_err());
    }

    #[test]
    fn whole_documents_validate_with_line_numbers() {
        let good = format!("{}\n{}\n", record_to_json(&ok_record()), record_to_json(&ok_record()));
        assert_eq!(validate_jsonl(&good).unwrap(), 2);
        assert_eq!(validate_jsonl("\n\n").unwrap(), 0);
        let mixed = format!("{}\nnot json\n", record_to_json(&ok_record()));
        assert!(validate_jsonl(&mixed).unwrap_err().starts_with("line 2"));
        // Truncation of the last row is caught.
        let row = record_to_json(&ok_record());
        assert!(validate_jsonl(&row[..row.len() - 2]).is_err());
    }

    #[test]
    fn lenient_validation_forgives_only_a_torn_tail() {
        let row = record_to_json(&ok_record());
        // Intact documents: same row count, not truncated.
        let good = format!("{row}\n{row}\n");
        assert_eq!(validate_jsonl_lenient(&good).unwrap(), (2, false));
        // A torn final line is dropped and reported.
        let torn = format!("{row}\n{}", &row[..row.len() - 9]);
        assert!(validate_jsonl(&torn).is_err(), "strict mode still rejects");
        assert_eq!(validate_jsonl_lenient(&torn).unwrap(), (1, true));
        // Mid-file damage stays a hard error even leniently.
        let mid = format!("not json\n{row}\n");
        assert!(validate_jsonl_lenient(&mid).unwrap_err().starts_with("line 1"));
        assert_eq!(validate_jsonl_lenient("\n").unwrap(), (0, false));
    }

    #[test]
    fn parse_record_round_trips_and_rejects_incomplete_rows() {
        let line = record_to_json(&ok_record());
        let parsed = parse_record(&line).unwrap();
        assert_eq!(format!("{:?}", parsed.record), format!("{:?}", ok_record()));
        assert_eq!(parsed.fingerprint, None);
        // Unknown keys are ignored; a spliced fp is captured.
        let stamped =
            format!("{}, \"fp\": \"abc123\", \"extra\": [1, 2]}}", &line[..line.len() - 1]);
        let parsed = parse_record(&stamped).unwrap();
        assert_eq!(parsed.fingerprint.as_deref(), Some("abc123"));
        assert_eq!(parsed.record.job, 3);
        // An ok row without its metrics is rejected.
        assert!(parse_record(&line.replace(", \"engine\": \"sharded\"", ""))
            .unwrap_err()
            .contains("engine"));
        // Torn rows fail to parse.
        assert!(parse_record(&line[..line.len() - 4]).is_err());
        // Circuit and error strings survive any content, not just ASCII.
        for text in ["café", "😀", "tab\there", "nl\nx", "\u{1}", "back\\slash", "\"q\""] {
            let mut record = ok_record();
            record.circuit = text.to_string();
            record.error = Some(format!("{text} failed"));
            let parsed = parse_record(&record_row(&record, Some(text))).unwrap();
            assert_eq!(format!("{:?}", parsed.record), format!("{record:?}"));
            assert_eq!(parsed.fingerprint.as_deref(), Some(text));
        }
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["[", "{\"x\": "] {
            let deep = format!("{{\"x\": {}", open.repeat(500_000));
            assert!(validate_jsonl_line(&deep).unwrap_err().contains("nesting"));
            assert!(parse_record(&deep).unwrap_err().contains("nesting"));
            assert!(validate_lint_jsonl_line(&deep).unwrap_err().contains("nesting"));
        }
    }

    #[test]
    fn stamped_rows_append_the_fingerprint_last() {
        let plain = record_to_json(&ok_record());
        let stamped = record_row(&ok_record(), Some("abc123"));
        assert_eq!(stamped, format!("{}, \"fp\": \"abc123\"}}", &plain[..plain.len() - 1]));
        assert_eq!(record_row(&ok_record(), None), plain);
    }
}
