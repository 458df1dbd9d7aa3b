//! The repository benchmark: end-to-end metrics of two workloads and,
//! in a separate traced run, where their time goes layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_suite|warm_requests \
//!     [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
//! ```
//!
//! Run from the repository root. `--seed` draws the timed work's inputs
//! (`cold_suite`: the campaigns' `T0` seeds; `warm_requests`: the request
//! stream), so one seed always gives the same work. `--seconds` sets
//! how much work a run measures: one operation per nominal number of
//! seconds, so every run of a workload holds the same count and a faster
//! program finishes sooner. The last line of standard output is one
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`: the `end_to_end` metrics of `BENCHMARK.json` with
//! `--trace 0`, its `per_layer` metrics with `--trace 1`. A full run also
//! writes that result, stamped with run metadata, to
//! `DIR/<workload>-seed<N>-trace<T>.json` (default `DIR` is
//! `perfbench/results` under the working directory), and a traced run
//! writes its spans next to it. `--smoke` runs tiny inputs, skips the
//! pinned digests and writes nothing.
//!
//! The default seed, a held-out seed for re-checking claims and the
//! digests the reference campaigns on the default seed must reproduce are
//! pinned in `pins.json`.

mod cold;
mod http;
mod json;
mod layers;
mod report;
mod stats;
mod sys;
mod trace;
mod warm;

use json::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

const CONTRACT: &str = include_str!("../../BENCHMARK.json");
const PINS: &str = include_str!("../pins.json");

/// One run's settings.
pub struct RunConfig {
    pub workload: String,
    pub seed: u64,
    /// The pinned default seed. Every run also executes the workload's
    /// reference campaign on this seed and checks it against `digest`;
    /// the timed work runs on seeds drawn from `seed` (see [`roster`]).
    pub default_seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub out_dir: PathBuf,
    /// The digest the reference campaign on the default seed must
    /// reproduce (`None` in smoke runs, whose inputs are too small to be
    /// pinned).
    digest: Option<String>,
}

impl RunConfig {
    /// The digest the operation on `seed` must reproduce, if pinned;
    /// for other seeds only verification is checked.
    pub fn pinned_digest(&self, seed: u64) -> Option<&str> {
        if seed == self.default_seed {
            self.digest.as_deref()
        } else {
            None
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse_flag<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or(format!("`{flag}` needs a value"))?;
    value.parse().map_err(|_| format!("bad value `{value}` for `{flag}`"))
}

/// `--trace`: `1` asks for the traced run, `0` for the end-to-end one;
/// any other value is an error rather than a silent untraced run.
fn parse_trace(value: Option<&String>) -> Result<bool, String> {
    match parse_flag::<String>("--trace", value)?.as_str() {
        "0" => Ok(false),
        "1" => Ok(true),
        other => Err(format!("bad value `{other}` for `--trace` (expected 0 or 1)")),
    }
}

/// Operations a timed run performs: one per `nominal` seconds of
/// `--seconds`, at least three (one in smoke runs).
pub fn op_count(config: &RunConfig, nominal: f64) -> u64 {
    if config.smoke {
        1
    } else {
        ((config.seconds / nominal).round() as u64).max(3)
    }
}

/// The `T0` seeds a run's timed work uses: `len` seeds below a million
/// drawn from the workload seed, so one workload seed always gives the
/// same work and another seed gives other `T0`s.
pub fn roster(seed: u64, len: usize) -> Vec<u64> {
    let mut rng = SplitMix(seed);
    (0..len).map(|_| rng.next_u64() % 1_000_000).collect()
}

/// A small seeded generator (SplitMix64) for seed rosters and request
/// streams.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..bound`.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Runs the benchmark; `Ok(false)` when an output check failed.
fn run() -> Result<bool, String> {
    let contract = Json::parse(CONTRACT).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let pins = Json::parse(PINS).map_err(|e| format!("pins.json: {e}"))?;
    let default_seed =
        pins.get("default_seed").and_then(Json::as_f64).ok_or("pins.json: no default_seed")? as u64;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = default_seed;
    let mut seconds = contract.get("run_seconds").and_then(Json::as_f64).unwrap_or(10.0);
    let mut trace = false;
    let mut smoke = false;
    let mut out_dir = PathBuf::from("perfbench/results");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => workload = Some(parse_flag::<String>(arg, it.next())?),
            "--seed" => seed = parse_flag(arg, it.next())?,
            "--seconds" => seconds = parse_flag(arg, it.next())?,
            "--trace" => trace = parse_trace(it.next())?,
            "--smoke" => smoke = true,
            "--out" => out_dir = parse_flag::<String>(arg, it.next())?.into(),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("`--workload` is required")?;
    let names: Vec<&str> = contract
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    if !names.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`; known: {}", names.join(", ")));
    }
    let digest = if smoke {
        None
    } else {
        let pinned = pins.get("digests").and_then(|d| d.get(&workload)).and_then(Json::as_str);
        Some(pinned.ok_or(format!("pins.json: no digest for `{workload}`"))?.to_string())
    };
    let config = RunConfig { workload, seed, default_seed, seconds, trace, smoke, out_dir, digest };

    let outcome = match config.workload.as_str() {
        "cold_suite" => cold::run(&config)?,
        "warm_requests" => warm::run(&config)?,
        other => return Err(format!("workload `{other}` has no implementation")),
    };

    let section = if config.trace { "per_layer" } else { "end_to_end" };
    let units = metric_units(&contract, section)?;
    let correct = outcome.problems.is_empty();
    let line = render(&outcome, &units, correct)?;
    json::validate_result(&line, &units.iter().cloned().collect())
        .map_err(|e| format!("result does not match BENCHMARK.json: {e}"))?;

    for note in &outcome.notes {
        println!("{note}");
    }
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
    if !config.smoke {
        write_result(&config, &line, &outcome)?;
    }
    println!("{line}");
    Ok(correct)
}

/// `(name, unit)` of every metric in a section of the contract, in order.
fn metric_units(contract: &Json, section: &str) -> Result<Vec<(String, String)>, String> {
    contract
        .get(section)
        .and_then(Json::as_array)
        .ok_or(format!("BENCHMARK.json has no `{section}`"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let unit = m.get("unit").and_then(Json::as_str);
            match (name, unit) {
                (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                _ => Err(format!("BENCHMARK.json: malformed `{section}` entry")),
            }
        })
        .collect()
}

/// The result line, metrics in contract order.
fn render(
    outcome: &report::Outcome,
    units: &[(String, String)],
    correct: bool,
) -> Result<String, String> {
    let values: BTreeMap<&str, f64> = outcome.metrics.iter().copied().collect();
    let metrics = units
        .iter()
        .map(|(name, unit)| {
            let value =
                values.get(name.as_str()).ok_or(format!("metric `{name}` was not measured"))?;
            Ok(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    ))
}

/// Writes the stamped result (and a traced run's spans) under the output
/// directory resolved from the working directory at run time.
fn write_result(config: &RunConfig, line: &str, outcome: &report::Outcome) -> Result<(), String> {
    let stem = format!("{}-seed{}-trace{}", config.workload, config.seed, u8::from(config.trace));
    std::fs::create_dir_all(&config.out_dir)
        .map_err(|e| format!("creating {}: {e}", config.out_dir.display()))?;
    let notes: Vec<String> =
        outcome.notes.iter().map(|n| format!("\"{}\"", json::escape(n))).collect();
    let problems: Vec<String> =
        outcome.problems.iter().map(|n| format!("\"{}\"", json::escape(n))).collect();
    let body = format!(
        "{{\"meta\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"result\": {line}, \"notes\": [{}], \"problems\": [{}]}}\n",
        sys::RunMeta::collect(config.smoke).to_json(),
        config.workload,
        config.seed,
        config.seconds,
        config.trace,
        notes.join(", "),
        problems.join(", ")
    );
    let path = config.out_dir.join(format!("{stem}.json"));
    std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    if config.trace {
        let path = config.out_dir.join(format!("{stem}.spans.jsonl"));
        std::fs::write(&path, trace::to_jsonl(&outcome.spans))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_flag_accepts_only_zero_and_one() {
        let arg = |s: &str| Some(s.to_string());
        assert_eq!(parse_trace(arg("0").as_ref()), Ok(false));
        assert_eq!(parse_trace(arg("1").as_ref()), Ok(true));
        for bad in ["2", "true", "", "01", "-1"] {
            assert!(parse_trace(arg(bad).as_ref()).is_err(), "accepted `{bad}`");
        }
        assert!(parse_trace(None).is_err());
    }

    #[test]
    fn roster_is_fixed_per_seed_and_differs_between_seeds() {
        let roster_a = roster(1999, 8);
        assert_eq!(roster_a, roster(1999, 8));
        assert_eq!(roster_a[..3], roster(1999, 3)[..]);
        assert_ne!(roster_a, roster(2027, 8));
        assert!(roster_a.iter().all(|&s| s < 1_000_000));
        let mut distinct = roster_a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 8);
    }
}
