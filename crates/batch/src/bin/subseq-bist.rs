//! `subseq-bist` — the batch campaign CLI.
//!
//! The one front end over the whole pipeline: expand a campaign
//! (circuits × backends × schemes × seeds), execute it concurrently with
//! shared artifact caches, print the roll-up and optionally stream
//! schema-validated JSONL.
//!
//! ```text
//! subseq-bist run [--smoke] [--circuits s27,a298 | --upto N | --quick | --full]
//!                 [--backends packed,scalar,sharded[:T]] [--seeds 1999,2000]
//!                 [--ns 2,4,8,16] [--no-postprocess] [--no-verify]
//!                 [--threads N] [--queue N] [--keep-going] [--jsonl PATH]
//!                 [--resume PATH] [--deadline MS] [--retries N]
//!                 [--cache-budget BYTES] [--chaos[=SEED]]
//!                 [--metrics PATH] [--trace PATH] [--metrics-stdout]
//! subseq-bist list-circuits
//! subseq-bist lint FILE.bench... | --suite [--jsonl PATH] [--deny-warnings]
//! subseq-bist check-equiv A B
//! subseq-bist validate [--lint | --metrics | --trace | --resume] FILE
//! ```
//!
//! Argument parsing is hand-rolled (no external dependencies), in the
//! same convention as the table binaries in `bist-bench`.

use std::sync::Arc;
use std::time::Duration;

use bist_batch::faultpoint::{FaultPlan, FaultPoint, FaultSite};
use bist_batch::{
    parse_backend, BatchError, CachePolicy, Campaign, CampaignEngine, CampaignServer, JsonlSink,
    ReportSink, ResumeLog, RetryPolicy, ServeConfig,
};
use subseq_bist::netlist::{benchmarks, parser, Circuit};
use subseq_bist::obs::export;
use subseq_bist::tgen::TgenConfig;
use subseq_bist::verify::{check_equiv, lint_circuit, lint_source, structural_hash, Severity};
use subseq_bist::{Backend, Obs, Registry};

const USAGE: &str = "\
subseq-bist — batch campaign front end for the subsequence-BIST pipeline

USAGE:
    subseq-bist run [OPTIONS]      execute a campaign and print the roll-up
    subseq-bist serve [OPTIONS]    long-lived campaign service over HTTP
    subseq-bist list-circuits      list the built-in benchmark suite
    subseq-bist lint TARGETS       statically lint netlists (see below)
    subseq-bist check-equiv A B    structural equivalence of two netlists
    subseq-bist validate FILE      schema-check a campaign JSONL file
             [--lint]              ...or a lint-diagnostic JSONL file
             [--metrics]           ...or a metrics JSON export
             [--trace]             ...or a trace JSONL export
             [--resume]            ...or a crash journal (tolerates one
                                   torn trailing line, as --resume does)
    subseq-bist help               show this text

LINT:
    subseq-bist lint FILE.bench... lint `.bench` files
    subseq-bist lint --suite       lint every built-in suite circuit
    --jsonl PATH                   also write one diagnostic row per line
    --deny-warnings                exit nonzero on warnings, not just errors

CHECK-EQUIV:
    A and B are `.bench` file paths or built-in suite circuit names.
    Exit 0 iff the circuits are structurally equivalent (names and gate
    order may differ; PI/PO/DFF positions, opcodes and pin order may not).

RUN OPTIONS:
    --circuits A,B,..   built-in suite circuits to run (default: --upto 3000)
    --upto N            every suite circuit with at most N gates
    --quick             alias for --upto 300
    --full              the whole suite including the largest analog
    --backends LIST     comma-separated: packed, scalar, sharded[:T]
                        (T threads, 0 = auto; default packed)
    --seeds LIST        comma-separated u64 seeds (default 1999)
    --ns LIST           repetition counts to sweep (default 2,4,8,16)
    --no-postprocess    skip the paper's §3.2 static compaction of S
    --no-verify         skip post-run coverage verification
    --t0-cap N          cap |T0| (default 1024, the paper's longest)
    --t0-budget N       T0 static-compaction trial budget (default 300)
    --threads N         worker threads (default 0 = one per core)
    --queue N           bounded job-queue depth (default 32)
    --keep-going        record job failures instead of cancelling
    --deadline MS       per-job deadline in milliseconds (cooperatively
                        cancels the sweep; the job fails as timed out)
    --retries N         attempts per job (default 1 = no retries; only
                        transient failures are retried, with backoff)
    --cache-budget B    bound the shared artifact cache to ~B bytes
                        (least-recently-used artifacts are evicted and
                        recomputed bit-identically on the next miss)
    --chaos[=SEED]      deterministic fault injection: seeded transient
                        errors, delays and poisoned cache computes that
                        heal on retry (defaults --retries to 3); results
                        stay identical to a fault-free run
    --jsonl PATH        stream one schema-validated JSON row per job
                        (each row is flushed immediately and stamped with
                        the campaign fingerprint — a crash-safe journal)
    --resume PATH       resume a killed campaign from its journal: replay
                        completed jobs, repair a torn trailing line, run
                        only the missing jobs and append their rows
    --metrics PATH      write counters/gauges/histograms as JSON after the run
    --trace PATH        record span traces and write them as JSONL
    --metrics-stdout    print the metrics table to stdout after the run
    --smoke             tiny CI configuration: small circuits, short T0,
                        n in {1,2}, packed + sharded backends

SERVE OPTIONS:
    --addr HOST:PORT    bind address (default 127.0.0.1:0 = free port)
    --threads N         worker threads shared by all campaigns in flight
                        (default 0 = auto); a campaign of J jobs holds
                        min(J, N) of them while it runs
    --queue N           engine job-queue depth (default 32)
    --max-pending N     queued campaigns before 429 (default 16)
    --cache-budget B    byte budget of the process-lifetime artifact
                        cache shared across campaigns (default unbounded)
    --journal-dir DIR   per-campaign JSONL journal directory
    Endpoints: POST /campaigns, GET /campaigns/<id>/results (streamed),
    GET /campaigns/<id>/summary, GET /metrics, GET /healthz,
    POST /shutdown (graceful drain; see README \"Campaign service\")
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some("list-circuits") => list_circuits(),
        Some("lint") => lint(&args[1..]),
        Some("check-equiv") => check_equiv_cmd(&args[1..]),
        Some("validate") => validate(&args[1..]),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => {
            Err(BatchError::Config(format!("unknown command `{other}` (try `subseq-bist help`)")))
        }
    };
    if let Err(e) = code {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

/// Splits a comma-separated flag value.
fn split_list(value: &str) -> Vec<String> {
    value.split(',').map(str::trim).filter(|s| !s.is_empty()).map(String::from).collect()
}

fn parse_flag_value<'a>(
    flag: &str,
    it: &mut std::slice::Iter<'a, String>,
) -> Result<&'a str, BatchError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| BatchError::Config(format!("`{flag}` needs a value")))
}

fn parse_usize(flag: &str, value: &str) -> Result<usize, BatchError> {
    value
        .parse()
        .map_err(|_| BatchError::Config(format!("`{flag}` needs an integer, got `{value}`")))
}

fn run(args: &[String]) -> Result<(), BatchError> {
    let mut circuits: Option<Vec<String>> = None;
    let mut upto: Option<usize> = None;
    let mut backends: Option<Vec<Backend>> = None;
    let mut seeds: Vec<u64> = vec![1999];
    let mut ns: Option<Vec<usize>> = None;
    let mut postprocess = true;
    let mut verify = true;
    let mut t0_cap: Option<usize> = None;
    let mut t0_budget: Option<usize> = None;
    let mut threads = 0;
    let mut queue = 32;
    let mut keep_going = false;
    let mut deadline: Option<u64> = None;
    let mut retries: Option<usize> = None;
    let mut cache_budget: Option<usize> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut jsonl: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut metrics: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut metrics_stdout = false;
    let mut smoke = false;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--circuits" => circuits = Some(split_list(parse_flag_value(arg, &mut it)?)),
            "--upto" => upto = Some(parse_usize(arg, parse_flag_value(arg, &mut it)?)?),
            "--quick" => upto = Some(300),
            "--full" => upto = Some(usize::MAX),
            "--backends" => {
                let tokens = split_list(parse_flag_value(arg, &mut it)?);
                backends = Some(tokens.iter().map(|t| parse_backend(t)).collect::<Result<_, _>>()?);
            }
            "--seeds" => {
                let tokens = split_list(parse_flag_value(arg, &mut it)?);
                seeds = tokens
                    .iter()
                    .map(|t| {
                        t.parse()
                            .map_err(|_| BatchError::Config(format!("bad seed `{t}` in --seeds")))
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--ns" => {
                let tokens = split_list(parse_flag_value(arg, &mut it)?);
                ns = Some(
                    tokens
                        .iter()
                        .map(|t| {
                            t.parse()
                                .map_err(|_| BatchError::Config(format!("bad n `{t}` in --ns")))
                        })
                        .collect::<Result<_, _>>()?,
                );
            }
            "--no-postprocess" => postprocess = false,
            "--no-verify" => verify = false,
            "--t0-cap" => t0_cap = Some(parse_usize(arg, parse_flag_value(arg, &mut it)?)?),
            "--t0-budget" => t0_budget = Some(parse_usize(arg, parse_flag_value(arg, &mut it)?)?),
            "--threads" => threads = parse_usize(arg, parse_flag_value(arg, &mut it)?)?,
            "--queue" => queue = parse_usize(arg, parse_flag_value(arg, &mut it)?)?,
            "--keep-going" => keep_going = true,
            "--deadline" => {
                let value = parse_flag_value(arg, &mut it)?;
                deadline = Some(value.parse().map_err(|_| {
                    BatchError::Config(format!("`--deadline` needs milliseconds, got `{value}`"))
                })?);
            }
            "--retries" => retries = Some(parse_usize(arg, parse_flag_value(arg, &mut it)?)?),
            "--cache-budget" => {
                cache_budget = Some(parse_usize(arg, parse_flag_value(arg, &mut it)?)?);
            }
            "--chaos" => chaos_seed = Some(7),
            flag if flag.starts_with("--chaos=") => {
                let spec = &flag["--chaos=".len()..];
                chaos_seed = Some(spec.parse().map_err(|_| {
                    BatchError::Config(format!("`--chaos` needs a u64 seed, got `{spec}`"))
                })?);
            }
            "--jsonl" => jsonl = Some(parse_flag_value(arg, &mut it)?.to_string()),
            "--resume" => resume = Some(parse_flag_value(arg, &mut it)?.to_string()),
            "--metrics" => metrics = Some(parse_flag_value(arg, &mut it)?.to_string()),
            "--trace" => trace = Some(parse_flag_value(arg, &mut it)?.to_string()),
            "--metrics-stdout" => metrics_stdout = true,
            "--smoke" => smoke = true,
            other => {
                return Err(BatchError::Config(format!(
                    "unknown flag `{other}` (try `subseq-bist help`)"
                )))
            }
        }
    }

    // Smoke mode: a tiny, CI-sized campaign; explicit flags always win.
    if smoke {
        upto.get_or_insert(300);
        if ns.is_none() {
            ns = Some(vec![1, 2]);
        }
        if backends.is_none() {
            backends = Some(vec![Backend::Packed, Backend::Sharded { threads: 0 }]);
        }
        println!("(smoke mode: tiny campaign, timings are not meaningful)");
    }
    // Defaults: the paper's 1024-vector cap and 300-trial budget, shrunk
    // in smoke mode unless given explicitly.
    let t0_cap = t0_cap.unwrap_or(if smoke { 48 } else { 1024 });
    let t0_budget = t0_budget.unwrap_or(if smoke { 20 } else { 300 });

    let mut campaign = Campaign::new()
        .seeds(seeds)
        .verify(verify)
        .tgen(TgenConfig::new().max_length(t0_cap).compaction_budget(t0_budget));
    campaign = match circuits {
        Some(names) => campaign.suite_circuits(names),
        None => campaign.suite_up_to(upto.unwrap_or(3000)),
    };
    if let Some(backends) = backends {
        campaign = campaign.backends(backends);
    }
    if let Some(ns) = ns {
        campaign = campaign.ns(ns);
    }
    if !postprocess {
        let schemes: Vec<_> =
            campaign.scheme_specs().iter().cloned().map(|s| s.postprocess(false)).collect();
        campaign = campaign.schemes(schemes);
    }

    if jsonl.is_some() && resume.is_some() {
        return Err(BatchError::Config(
            "`--resume` already names the journal; drop `--jsonl`".to_string(),
        ));
    }

    let mut engine =
        CampaignEngine::new().threads(threads).queue_depth(queue).keep_going(keep_going);
    if let Some(ms) = deadline {
        engine = engine.deadline(Duration::from_millis(ms));
    }
    if let Some(attempts) = retries {
        engine = engine.retry(RetryPolicy {
            max_attempts: attempts.max(1),
            backoff: Duration::from_millis(25),
        });
    }
    if let Some(bytes) = cache_budget {
        engine = engine.cache_policy(CachePolicy::bounded(bytes));
    }
    // The chaos plan injects only *healing* faults — transients, delays
    // and poisoned cache computes that succeed on retry — so a chaos run
    // (or a chaos run killed and resumed) converges to the digest of the
    // fault-free campaign. That identity is the whole point.
    let chaos_plan = chaos_seed.map(|seed| {
        Arc::new(
            FaultPlan::new(seed)
                .point(FaultPoint::new(FaultSite::JobTransient, "").rate_per_mille(400))
                .point(
                    FaultPoint::new(FaultSite::JobDelay, "")
                        .rate_per_mille(250)
                        .delay(Duration::from_millis(2)),
                )
                .point(FaultPoint::new(FaultSite::CachePoison, "t0:").rate_per_mille(400)),
        )
    });
    if let Some(plan) = &chaos_plan {
        engine = engine.chaos(Arc::clone(plan));
        if retries.is_none() {
            engine =
                engine.retry(RetryPolicy { max_attempts: 3, backoff: Duration::from_millis(10) });
        }
        println!(
            "(chaos mode: deterministic fault injection, seed {})",
            chaos_seed.unwrap_or_default()
        );
    }

    // Telemetry is opt-in: without one of the flags below the engine
    // keeps its no-op sink and records nothing.
    let registry = if metrics.is_some() || trace.is_some() || metrics_stdout {
        let registry = Arc::new(Registry::new());
        if trace.is_some() {
            registry.enable_tracing();
        }
        engine = engine.obs(Obs::with_registry(Arc::clone(&registry)));
        Some(registry)
    } else {
        None
    };

    let outcome = if let Some(path) = &resume {
        let fingerprint = campaign.fingerprint();
        let log = ResumeLog::load(path, &fingerprint)?;
        if log.truncated() {
            println!("repaired a torn trailing row in {path}");
        }
        println!("resuming from {path}: replaying {} completed job(s)", log.records().len());
        let mut sink = JsonlSink::append(path)?.with_fingerprint(&fingerprint);
        let mut sinks: [&mut dyn ReportSink; 1] = [&mut sink];
        let outcome = engine.run_resumed(&campaign, &mut sinks, log.records())?;
        println!("journal {} now holds {} JSONL rows", sink.path().display(), sink.rows());
        outcome
    } else if let Some(path) = &jsonl {
        let mut sink = JsonlSink::create(path)?.with_fingerprint(campaign.fingerprint());
        let mut sinks: [&mut dyn ReportSink; 1] = [&mut sink];
        let outcome = engine.run(&campaign, &mut sinks)?;
        println!("wrote {} JSONL rows to {}", sink.rows(), sink.path().display());
        outcome
    } else {
        engine.run(&campaign, &mut [])?
    };
    print!("{}", outcome.summary);
    println!("  summary digest: {:016x}", outcome.summary.digest());
    println!("  cache: {}", outcome.cache);
    println!("  cache {}", outcome.residency);
    if let Some(plan) = &chaos_plan {
        println!("  chaos: {} fault(s) injected", plan.injected());
    }

    if let Some(registry) = registry {
        let snapshot = registry.snapshot();
        if let Some(path) = &metrics {
            let rendered = export::render_json(&snapshot);
            let rows = export::validate_metrics_json(&rendered)
                .map_err(|e| BatchError::Config(format!("internal: emitted bad metrics: {e}")))?;
            std::fs::write(path, &rendered).map_err(BatchError::Io)?;
            println!("wrote {rows} metrics to {path}");
        }
        if let Some(path) = &trace {
            let rendered = export::render_trace_jsonl(&registry.trace_events());
            let rows = export::validate_trace_jsonl(&rendered)
                .map_err(|e| BatchError::Config(format!("internal: emitted bad trace: {e}")))?;
            std::fs::write(path, &rendered).map_err(BatchError::Io)?;
            println!("wrote {rows} trace events to {path}");
        }
        if metrics_stdout {
            print!("{}", export::render_text(&snapshot));
        }
    }
    Ok(())
}

/// The long-lived campaign service: binds, prints the address, serves
/// until a `POST /shutdown` drains the queue.
fn serve(args: &[String]) -> Result<(), BatchError> {
    let mut config = ServeConfig::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => config.addr = parse_flag_value(arg, &mut it)?.to_string(),
            "--threads" => config.threads = parse_usize(arg, parse_flag_value(arg, &mut it)?)?,
            "--queue" => config.queue_depth = parse_usize(arg, parse_flag_value(arg, &mut it)?)?,
            "--max-pending" => {
                config.max_pending = parse_usize(arg, parse_flag_value(arg, &mut it)?)?;
            }
            "--cache-budget" => {
                let bytes = parse_usize(arg, parse_flag_value(arg, &mut it)?)?;
                config.cache_policy = CachePolicy::bounded(bytes);
            }
            "--journal-dir" => {
                config.journal_dir = parse_flag_value(arg, &mut it)?.into();
            }
            other => {
                return Err(BatchError::Config(format!(
                    "unknown `serve` flag `{other}` (try `subseq-bist help`)"
                )))
            }
        }
    }
    let journal_dir = config.journal_dir.clone();
    let server = CampaignServer::bind(config)?;
    println!("subseq-bist serve: listening on http://{}", server.local_addr());
    println!("journals in {}", journal_dir.display());
    server.run()
}

fn list_circuits() -> Result<(), BatchError> {
    println!("{:<10} {:<10} {:>7}", "name", "analog of", "gates");
    for entry in benchmarks::suite() {
        println!("{:<10} {:<10} {:>7}", entry.name, entry.analog_of, entry.gates);
    }
    Ok(())
}

fn validate(args: &[String]) -> Result<(), BatchError> {
    let mut schema: Option<&str> = None;
    let mut path: Option<&str> = None;
    for arg in args {
        match arg.as_str() {
            flag @ ("--lint" | "--metrics" | "--trace" | "--resume") => {
                if let Some(prev) = schema {
                    return Err(BatchError::Config(format!(
                        "`validate` takes one schema flag, got `{prev}` and `{flag}`"
                    )));
                }
                schema = Some(flag);
            }
            other if path.is_none() => path = Some(other),
            other => {
                return Err(BatchError::Config(format!("unexpected `validate` argument `{other}`")))
            }
        }
    }
    let path =
        path.ok_or_else(|| BatchError::Config("`validate` needs a file path".to_string()))?;
    let text = read_file(path)?;
    if schema == Some("--resume") {
        let (rows, truncated) = bist_batch::jsonl::validate_jsonl_lenient(&text)
            .map_err(|e| BatchError::Config(format!("{path}: {e}")))?;
        let note = if truncated { " (one torn trailing line would be dropped)" } else { "" };
        println!("{path}: {rows} rows{note}, schema ok");
        return Ok(());
    }
    let (rows, what) = match schema {
        Some("--lint") => (bist_batch::jsonl::validate_lint_jsonl(&text), "diagnostic rows"),
        Some("--metrics") => (export::validate_metrics_json(&text), "metrics"),
        Some("--trace") => (export::validate_trace_jsonl(&text), "trace events"),
        _ => (bist_batch::jsonl::validate_jsonl(&text), "rows"),
    };
    let rows = rows.map_err(|e| BatchError::Config(format!("{path}: {e}")))?;
    println!("{path}: {rows} {what}, schema ok");
    Ok(())
}

fn read_file(path: &str) -> Result<String, BatchError> {
    std::fs::read_to_string(path).map_err(|e| {
        BatchError::Io(std::io::Error::new(e.kind(), format!("reading `{path}`: {e}")))
    })
}

/// Lint targets: `.bench` files, or the whole built-in suite.
fn lint(args: &[String]) -> Result<(), BatchError> {
    let mut files: Vec<String> = Vec::new();
    let mut suite = false;
    let mut jsonl: Option<String> = None;
    let mut deny_warnings = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--suite" => suite = true,
            "--jsonl" => jsonl = Some(parse_flag_value(arg, &mut it)?.to_string()),
            "--deny-warnings" => deny_warnings = true,
            flag if flag.starts_with("--") => {
                return Err(BatchError::Config(format!("unknown `lint` flag `{flag}`")))
            }
            file => files.push(file.to_string()),
        }
    }
    if files.is_empty() && !suite {
        return Err(BatchError::Config(
            "`lint` needs `.bench` files or `--suite` (try `subseq-bist help`)".to_string(),
        ));
    }

    // (name, diagnostics) per target. Files are linted at the source
    // level (so even netlists the strict parser refuses get diagnosed);
    // suite circuits are built in memory and linted at the graph level.
    let mut reports: Vec<(String, Vec<subseq_bist::verify::Diagnostic>)> = Vec::new();
    for path in &files {
        let text = read_file(path)?;
        let diags = lint_source(&text)
            .map_err(|e| BatchError::Config(format!("{path}: unparseable: {e}")))?;
        reports.push((path.clone(), diags));
    }
    if suite {
        for entry in benchmarks::suite() {
            let circuit = entry
                .build()
                .map_err(|e| BatchError::Config(format!("building `{}`: {e}", entry.name)))?;
            reports.push((entry.name.to_string(), lint_circuit(&circuit)));
        }
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    let mut rows = String::new();
    for (name, diags) in &reports {
        for d in diags {
            match d.severity() {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
            println!("{name}: {d} ({})", d.nets.join(", "));
            rows.push_str(&bist_batch::jsonl::diagnostic_to_json(name, d));
            rows.push('\n');
        }
    }
    if let Some(path) = &jsonl {
        bist_batch::jsonl::validate_lint_jsonl(&rows)
            .map_err(|e| BatchError::Config(format!("internal: emitted bad JSONL: {e}")))?;
        std::fs::write(path, &rows).map_err(BatchError::Io)?;
        println!(
            "wrote {} diagnostic rows to {path}",
            rows.lines().filter(|l| !l.trim().is_empty()).count()
        );
    }
    println!("linted {} netlist(s): {errors} error(s), {warnings} warning(s)", reports.len());
    if errors > 0 || (deny_warnings && warnings > 0) {
        return Err(BatchError::Config("lint failed".to_string()));
    }
    Ok(())
}

/// Resolves a `check-equiv` operand: a built-in suite circuit name, or a
/// `.bench` file path.
fn load_circuit(operand: &str) -> Result<Circuit, BatchError> {
    if let Some(entry) = benchmarks::suite().into_iter().find(|e| e.name == operand) {
        return entry.build().map_err(|e| BatchError::Config(format!("building `{operand}`: {e}")));
    }
    let text = read_file(operand)?;
    let name = operand.rsplit('/').next().unwrap_or(operand).trim_end_matches(".bench");
    parser::parse_bench(name, &text)
        .map_err(|e| BatchError::Config(format!("parsing `{operand}`: {e}")))
}

fn check_equiv_cmd(args: &[String]) -> Result<(), BatchError> {
    let [a, b] = args else {
        return Err(BatchError::Config(
            "`check-equiv` needs exactly two operands (suite names or .bench paths)".to_string(),
        ));
    };
    let ca = load_circuit(a)?;
    let cb = load_circuit(b)?;
    match check_equiv(&ca, &cb) {
        Ok(()) => {
            println!(
                "equivalent: `{a}` and `{b}` are structurally identical (hash {:016x})",
                structural_hash(&ca)
            );
            Ok(())
        }
        Err(why) => Err(BatchError::Config(format!("`{a}` vs `{b}`: {why}"))),
    }
}
