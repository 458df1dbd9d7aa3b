//! A dependency-free micro-benchmark harness with JSON trajectory output.
//!
//! The build environment cannot fetch `criterion`, so the `benches/`
//! targets use this self-calibrating timer instead: each benchmark is run
//! for enough iterations to swamp timer noise, several samples are taken,
//! and the per-iteration median is reported. [`Report::write_json`] emits
//! a `BENCH_<name>.json` file so successive PRs can track performance
//! trajectories.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Process-wide smoke-mode flag (see [`init_cli`]).
static SMOKE: AtomicBool = AtomicBool::new(false);

/// Enables/disables smoke mode: tiny calibration batches and two samples
/// per benchmark, so a full bench target finishes in seconds. Timings are
/// meaningless in smoke mode — it exists so CI can execute every
/// benchmark end-to-end and catch `BENCH_*.json` schema regressions.
pub fn set_smoke(on: bool) {
    SMOKE.store(on, Ordering::Relaxed);
}

/// True if smoke mode is enabled.
#[must_use]
pub fn smoke() -> bool {
    SMOKE.load(Ordering::Relaxed)
}

/// Bench-binary entry point: enables smoke mode when `--smoke` is among
/// the process arguments or `BENCH_SMOKE=1` is set. Call first in every
/// bench `main`.
pub fn init_cli() {
    let flagged = std::env::args().any(|a| a == "--smoke")
        || std::env::var("BENCH_SMOKE").is_ok_and(|v| v == "1");
    if flagged {
        set_smoke(true);
        println!("(smoke mode: timings are not meaningful)");
    }
}

/// One benchmark's measured timings (nanoseconds per iteration).
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Benchmark name (e.g. `"expand/materialized/len32_n8"`).
    pub name: String,
    /// Iterations per sample after calibration.
    pub iters: u64,
    /// Median of the per-iteration sample means.
    pub median_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Mean across samples.
    pub mean_ns: f64,
}

/// Target wall-clock time per calibration/sample batch.
const BATCH_NANOS: u128 = 20_000_000; // 20 ms
/// Samples per benchmark.
const SAMPLES: usize = 7;

/// Times `f`, auto-calibrating the iteration count. The closure's return
/// value is passed through [`black_box`] so the computation cannot be
/// optimized away.
pub fn bench<T>(name: impl Into<String>, mut f: impl FnMut() -> T) -> Measurement {
    let (batch_nanos, num_samples) = if smoke() { (200_000, 2) } else { (BATCH_NANOS, SAMPLES) };
    // Warm-up + calibration: double iterations until a batch takes long
    // enough to time reliably.
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed().as_nanos();
        if elapsed >= batch_nanos || iters >= 1 << 24 {
            break;
        }
        // Jump close to the target in one step once we have a estimate.
        let factor = (batch_nanos / elapsed.max(1)).clamp(2, 128) as u64;
        iters = iters.saturating_mul(factor).min(1 << 24);
    }

    let mut samples = Vec::with_capacity(num_samples);
    for _ in 0..num_samples {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        samples.push(start.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    let median_ns = samples[samples.len() / 2];
    let min_ns = samples[0];
    let mean_ns = samples.iter().sum::<f64>() / samples.len() as f64;

    let m = Measurement { name: name.into(), iters, median_ns, min_ns, mean_ns };
    println!(
        "{:<48} {:>12.0} ns/iter (min {:>10.0}, {} iters/sample)",
        m.name, m.median_ns, m.min_ns, m.iters
    );
    m
}

/// A named collection of measurements, serializable to `BENCH_<name>.json`.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Report name (the benchmark target).
    pub name: String,
    /// All measurements, in run order.
    pub measurements: Vec<Measurement>,
}

impl Report {
    /// Creates an empty report.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Report { name: name.into(), measurements: Vec::new() }
    }

    /// Runs and records one benchmark.
    pub fn run<T>(&mut self, name: impl Into<String>, f: impl FnMut() -> T) -> &Measurement {
        let m = bench(name, f);
        self.measurements.push(m);
        self.measurements.last().expect("just pushed")
    }

    /// The recorded measurement with the given name, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Measurement> {
        self.measurements.iter().find(|m| m.name == name)
    }

    /// Renders the report as a JSON document (hand-rolled: no serde in
    /// this environment; names are ASCII identifiers by convention).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": \"{}\",\n", escape(&self.name)));
        out.push_str("  \"results\": [\n");
        for (i, m) in self.measurements.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": \"{}\", \"iters\": {}, \"median_ns\": {:.1}, \
                 \"min_ns\": {:.1}, \"mean_ns\": {:.1}}}{}\n",
                escape(&m.name),
                m.iters,
                m.median_ns,
                m.min_ns,
                m.mean_ns,
                if i + 1 == self.measurements.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The report's file name: `BENCH_<name>.json` for a full run,
    /// `BENCH_<name>.smoke.json` in smoke mode, so a smoke run never
    /// overwrites the committed trajectory file.
    fn file_name(&self) -> String {
        let mode = if smoke() { ".smoke" } else { "" };
        format!("BENCH_{}{mode}.json", self.name)
    }

    /// Writes [`file_name`](Self::file_name) into the workspace root of
    /// the running bench (two levels above the `CARGO_MANIFEST_DIR` that
    /// cargo sets for the bench process), after validating the document
    /// against the report schema — a schema regression fails the bench
    /// run (and CI, which runs every bench in smoke mode) instead of
    /// silently corrupting the trajectory files.
    ///
    /// # Errors
    ///
    /// I/O errors from the write; `NotFound` if the process was not
    /// started by cargo; `InvalidData` if the rendered JSON does not
    /// round-trip through [`validate_json`].
    pub fn write_json(&self) -> std::io::Result<std::path::PathBuf> {
        let json = self.to_json();
        validate_json(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        let manifest_dir = std::env::var_os("CARGO_MANIFEST_DIR").ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "CARGO_MANIFEST_DIR is unset: run benches through `cargo bench`",
            )
        })?;
        let path = std::path::Path::new(&manifest_dir).join("../..").join(self.file_name());
        std::fs::write(&path, json)?;
        Ok(path)
    }
}

/// Validates that `text` is a syntactically well-formed JSON document
/// with the `BENCH_*.json` report schema: a top-level object with a
/// string `"bench"` and an array `"results"` whose entries each carry
/// `name`, `iters`, `median_ns`, `min_ns` and `mean_ns`.
///
/// # Errors
///
/// A description of the first syntax or schema violation found.
pub fn validate_json(text: &str) -> Result<(), String> {
    let mut p = JsonParser { bytes: text.as_bytes(), pos: 0 };
    p.ws();
    p.report()?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(())
}

const RESULT_KEYS: [&str; 5] = ["name", "iters", "median_ns", "min_ns", "mean_ns"];

/// Hand-rolled recursive-descent JSON parser (no serde in this offline
/// environment); strict enough to catch truncation, bad escaping and
/// missing report fields.
struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", c as char, self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    let esc = self.bytes.get(self.pos + 1);
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') | Some(b'b') | Some(b'f') | Some(b'n') | Some(b'r')
                        | Some(b't') => out.push(' '),
                        Some(b'u') => {
                            let hex = self.bytes.get(self.pos + 2..self.pos + 6);
                            if !hex.is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit)) {
                                return Err(format!("bad \\u escape at byte {}", self.pos));
                            }
                            out.push(' ');
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 2;
                }
                Some(&b) if b >= 0x20 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                _ => return Err(format!("unterminated string at byte {}", self.pos)),
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Self| {
            let s = p.pos;
            while p.bytes.get(p.pos).is_some_and(u8::is_ascii_digit) {
                p.pos += 1;
            }
            p.pos > s
        };
        if !digits(self) {
            return Err(format!("expected number at byte {start}"));
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("digits required after `.` at byte {}", self.pos));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!("digits required in exponent at byte {}", self.pos));
            }
        }
        Ok(())
    }

    /// Any JSON value, structure-checked only.
    fn value(&mut self) -> Result<(), String> {
        self.ws();
        match self.bytes.get(self.pos) {
            Some(b'"') => self.string().map(|_| ()),
            Some(b'{') => self.object(|p, _| p.value()),
            Some(b'[') => self.array(JsonParser::value),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            _ => self.number(),
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected `{word}` at byte {}", self.pos))
        }
    }

    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.ws();
        self.eat(b'{')?;
        self.ws();
        if self.bytes.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            member(self, &key)?;
            self.ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(
        &mut self,
        mut element: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.ws();
        self.eat(b'[')?;
        self.ws();
        if self.bytes.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            element(self)?;
            self.ws();
            match self.bytes.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    /// The report schema: `{"bench": <string>, "results": [<entry>...]}`.
    fn report(&mut self) -> Result<(), String> {
        let mut saw_bench = false;
        let mut saw_results = false;
        self.object(|p, key| match key {
            "bench" => {
                saw_bench = true;
                p.ws();
                p.string().map(|_| ())
            }
            "results" => {
                saw_results = true;
                p.array(JsonParser::result_entry)
            }
            _ => p.value(),
        })?;
        if !saw_bench {
            return Err("missing top-level `bench` key".to_string());
        }
        if !saw_results {
            return Err("missing top-level `results` key".to_string());
        }
        Ok(())
    }

    fn result_entry(&mut self) -> Result<(), String> {
        let mut seen: Vec<String> = Vec::new();
        self.object(|p, key| {
            seen.push(key.to_string());
            p.value()
        })?;
        for required in RESULT_KEYS {
            if !seen.iter().any(|k| k == required) {
                return Err(format!("result entry missing `{required}`"));
            }
        }
        Ok(())
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c => vec![c],
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `bench()` reads the process-global smoke flag; tests that call it
    /// (or toggle the flag) serialize on this guard so parallel test
    /// threads never observe each other's mode.
    static BENCH_GUARD: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn bench_measures_something() {
        let _serial = BENCH_GUARD.lock().unwrap();
        let m = bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(m.median_ns > 0.0);
        assert!(m.min_ns <= m.median_ns);
        assert!(m.iters >= 1);
    }

    #[test]
    fn validate_accepts_real_reports() {
        let mut r = Report::new("unit");
        r.measurements.push(Measurement {
            name: "a/b_c".into(),
            iters: 10,
            median_ns: 1.5,
            min_ns: 1.0,
            mean_ns: 2.0,
        });
        validate_json(&r.to_json()).expect("report schema is valid");
        // Empty result lists are still valid documents.
        validate_json(&Report::new("empty").to_json()).expect("empty report valid");
    }

    #[test]
    fn validate_rejects_malformed_and_schema_violations() {
        // Truncation.
        let good = {
            let mut r = Report::new("unit");
            r.measurements.push(Measurement {
                name: "x".into(),
                iters: 1,
                median_ns: 1.0,
                min_ns: 1.0,
                mean_ns: 1.0,
            });
            r.to_json()
        };
        assert!(validate_json(&good[..good.len() - 4]).is_err());
        // Syntax errors.
        assert!(validate_json("{").is_err());
        assert!(validate_json("{}x").is_err());
        assert!(validate_json(r#"{"bench": "a", "results": [,]}"#).is_err());
        // Schema violations.
        // Standard \uXXXX escapes are legal JSON; malformed ones are not.
        let unicode = r#"{"bench": "caf\u00e9", "results": []}"#;
        validate_json(unicode).expect("\\u escape is valid JSON");
        assert!(validate_json(r#"{"bench": "\u00zz", "results": []}"#).is_err());
        assert!(validate_json("{}").unwrap_err().contains("bench"));
        assert!(validate_json(r#"{"bench": "a"}"#).unwrap_err().contains("results"));
        let missing_key = r#"{"bench": "a", "results": [{"name": "x", "iters": 1}]}"#;
        assert!(validate_json(missing_key).unwrap_err().contains("median_ns"));
    }

    #[test]
    fn smoke_mode_runs_fast_and_round_trips() {
        let _serial = BENCH_GUARD.lock().unwrap();
        set_smoke(true);
        let m = bench("smoke_spin", || std::hint::black_box(41) + 1);
        set_smoke(false);
        assert!(m.iters >= 1);
        assert!(m.median_ns > 0.0);
    }

    #[test]
    fn smoke_reports_never_take_the_ledger_name() {
        let _serial = BENCH_GUARD.lock().unwrap();
        let r = Report::new("unit");
        assert_eq!(r.file_name(), "BENCH_unit.json");
        set_smoke(true);
        let smoke_name = r.file_name();
        set_smoke(false);
        assert_eq!(smoke_name, "BENCH_unit.smoke.json");
    }

    #[test]
    fn json_shape() {
        let mut r = Report::new("unit");
        r.measurements.push(Measurement {
            name: "a\"b".into(),
            iters: 10,
            median_ns: 1.5,
            min_ns: 1.0,
            mean_ns: 2.0,
        });
        let json = r.to_json();
        assert!(json.contains("\"bench\": \"unit\""));
        assert!(json.contains("a\\\"b"));
        assert!(json.contains("\"median_ns\": 1.5"));
        assert!(r.get("a\"b").is_some());
        assert!(r.get("missing").is_none());
    }
}
