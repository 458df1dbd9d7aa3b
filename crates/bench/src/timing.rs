//! A dependency-free micro-benchmark harness with JSON trajectory output.
//!
//! The build environment cannot fetch `criterion`, so the `benches/`
//! targets use this self-calibrating timer instead: each benchmark is run
//! for enough iterations to swamp timer noise, several samples are taken,
//! and the per-iteration median is reported. [`Report::write_json`] emits
//! a `BENCH_<name>.json` file so successive PRs can track performance
//! trajectories.

use bist_obs::json::{quote, Json};
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

    /// Renders the report as a JSON document, strings escaped by
    /// `bist_obs::json`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bench\": {},\n", quote(&self.name)));
        out.push_str("  \"results\": [\n");
        for (i, m) in self.measurements.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"iters\": {}, \"median_ns\": {:.1}, \
                 \"min_ns\": {:.1}, \"mean_ns\": {:.1}}}{}\n",
                quote(&m.name),
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

    /// Writes `BENCH_<name>.json` (`BENCH_<name>.smoke.json` in a smoke
    /// run) into the workspace root of the running bench (two levels
    /// above the `CARGO_MANIFEST_DIR` that cargo sets for the bench
    /// process), after validating the document
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
    let report = Json::parse(text)?;
    if report.as_object().is_none() {
        return Err("expected a top-level object".to_string());
    }
    match report.get("bench") {
        Some(Json::Str(_)) => {}
        Some(_) => return Err("top-level `bench` must be a string".to_string()),
        None => return Err("missing top-level `bench` key".to_string()),
    }
    let results = match report.get("results") {
        Some(results) => results.as_array().ok_or("top-level `results` must be an array")?,
        None => return Err("missing top-level `results` key".to_string()),
    };
    for entry in results {
        let entry = entry.as_object().ok_or("result entry must be an object")?;
        for required in RESULT_KEYS {
            if !entry.iter().any(|(k, _)| k == required) {
                return Err(format!("result entry missing `{required}`"));
            }
        }
    }
    Ok(())
}

const RESULT_KEYS: [&str; 5] = ["name", "iters", "median_ns", "min_ns", "mean_ns"];

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
    fn committed_ledger_files_validate() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for name in ["expansion", "fault_sim", "procedure1", "tables"] {
            let text = std::fs::read_to_string(root.join(format!("BENCH_{name}.json"))).unwrap();
            validate_json(&text).unwrap_or_else(|e| panic!("BENCH_{name}.json: {e}"));
        }
    }

    #[test]
    fn names_are_escaped_and_nesting_is_capped() {
        let mut r = Report::new("tab\there");
        r.measurements.push(Measurement {
            name: "nl\n\u{1}".into(),
            iters: 1,
            median_ns: 1.0,
            min_ns: 1.0,
            mean_ns: 1.0,
        });
        validate_json(&r.to_json()).expect("control characters are escaped");
        let deep = format!("{{\"bench\": \"a\", \"results\": {}", "[".repeat(500_000));
        assert!(validate_json(&deep).unwrap_err().contains("nesting"));
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
