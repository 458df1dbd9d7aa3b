//! `warm_requests`: an in-process campaign service whose artifact cache
//! was warmed by a campaign over four circuits, driven by a closed loop of
//! two clients that each submit a single-circuit campaign and wait for
//! its summary — every `T0` is a cache hit, so the time goes to the
//! scheme, the engine pool, the HTTP/journal path and queueing behind
//! other campaigns.
//!
//! Set-up starts the service and warms it with one campaign over the four
//! circuits on the pinned default seed, checked against the pinned digest
//! (the quality ratios are its); it is repeated on fresh services and the
//! median reported. The workload seed draws the request stream. The mix
//! follows the service's own vocabulary and is assumed, not taken from any
//! measured traffic: each round deals out, for every circuit, the default
//! request (`ns` and `postprocess` omitted, so the paper's whole
//! {2, 4, 8, 16} sweep with postprocessing) and one request with a
//! non-empty subset of `ns` and postprocessing on or off, both drawn by
//! the workload seed, in an order the seed shuffles. A run serves a fixed
//! number of rounds (set by `--seconds`), so one workload seed always
//! gives the same traffic.
//!
//! Every request runs on the pinned seed's `T0`s, as the warm-up is the
//! one campaign the benchmark's definition names. `T0`s drawn from the
//! workload seed were tried: a request's cost moved by ±35% between `T0`
//! seeds, and the latency percentiles sit between request classes, so
//! with every request on three seed-drawn `T0` sets ten workload seeds
//! spread the median latency over 19% and the tail over 26% (IQR over
//! median), and with half of them on the pinned set five seeds still
//! spread the median over 22% and the p75 tail over 31% — at or past the
//! bounds the contract allows.
//! `cold_suite` times seed-drawn `T0`s instead.

use crate::http::{self, Response};
use crate::json::Json;
use crate::layers::{self, Counts, Prepared, T0};
use crate::report::{self, BatchFigures, Outcome, Samples, ServeFigures, JOB_SPAN};
use crate::stats::median;
use crate::trace::Tracer;
use crate::{RunConfig, SplitMix};
use bist_batch::{
    campaign_from_spec, CampaignEngine, CampaignServer, CampaignSummary, ServeConfig,
};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use subseq_bist::{MetricsSnapshot, Obs, Registry};

const WARM_CIRCUITS: [&str; 4] = ["a298", "a382", "a400", "a526"];
const SMOKE_CIRCUITS: [&str; 2] = ["s27", "a298"];
/// The paper's `n` sweep, what a request without `ns` gets.
const NS: [usize; 4] = [2, 4, 8, 16];
const CLIENTS: usize = 2;
/// Campaign worker threads of the service.
const THREADS: usize = 2;
/// Set-up repetitions (each on a fresh service) whose median is reported.
const SETUP_REPEATS: usize = 3;
/// Request rounds a traced run serves and replays.
const TRACED_ROUNDS: usize = 1;
/// Seconds of `--seconds` that buy one round of requests (about its
/// wall time on a 2-core host). The default requests on a400 and a526,
/// the slowest class, are a quarter of the stream, so the tail must be
/// the p90 (over 100 samples) rather than the p75 that sits on that
/// class's edge: 30 s buys 13 rounds of 8 requests.
const NOMINAL_ROUND_S: f64 = 2.3;

fn circuits(config: &RunConfig) -> &'static [&'static str] {
    if config.smoke {
        &SMOKE_CIRCUITS
    } else {
        &WARM_CIRCUITS
    }
}

fn limits_json(config: &RunConfig) -> String {
    let (cap, budget) = layers::tgen_limits(config.smoke);
    format!("\"t0_cap\": {cap}, \"t0_budget\": {budget}")
}

fn quoted(names: &[&str]) -> String {
    names.iter().map(|n| format!("\"{n}\"")).collect::<Vec<_>>().join(", ")
}

/// The warm-up campaign: every circuit the requests draw from.
fn warm_spec(config: &RunConfig) -> String {
    format!(
        "{{\"circuits\": [{}], \"seeds\": [{}], {}}}",
        quoted(circuits(config)),
        config.default_seed,
        limits_json(config)
    )
}

/// One client request: a single circuit, with an `n` subset and
/// postprocessing switch, or the service defaults (`None`).
#[derive(Debug, Clone)]
struct Request {
    circuit: &'static str,
    ns: Option<Vec<usize>>,
    postprocess: Option<bool>,
}

impl Request {
    fn spec(&self, config: &RunConfig) -> String {
        let mut spec = format!(
            "{{\"circuits\": [\"{}\"], \"seeds\": [{}], {}",
            self.circuit,
            config.default_seed,
            limits_json(config)
        );
        if let Some(ns) = &self.ns {
            let ns: Vec<String> = ns.iter().map(ToString::to_string).collect();
            spec += &format!(", \"ns\": [{}]", ns.join(", "));
        }
        if let Some(postprocess) = self.postprocess {
            spec += &format!(", \"postprocess\": {postprocess}");
        }
        spec + "}"
    }

    /// The `n` sweep and postprocessing switch the service runs.
    fn scheme(&self) -> (Vec<usize>, bool) {
        (self.ns.clone().unwrap_or(NS.to_vec()), self.postprocess.unwrap_or(true))
    }
}

/// The request stream shared by all clients, `len` requests of whole
/// rounds.
struct Stream<'a> {
    config: &'a RunConfig,
    next: AtomicUsize,
    len: usize,
}

impl Stream<'_> {
    /// Round `round`: for every circuit the default request and one
    /// subset request, shuffled. A circuit's subset requests walk the 15
    /// non-empty subsets of `ns` in a seeded order, with postprocessing
    /// alternately on and off from a seeded start, so the seed changes
    /// which requests a run sends while every run sends about the same
    /// mix of sizes.
    fn round(&self, round: usize) -> Vec<Request> {
        let mut deck = Vec::new();
        for (index, &circuit) in circuits(self.config).iter().enumerate() {
            let mut rng = SplitMix(self.config.seed ^ (index as u64 + 1).wrapping_mul(0xa076_1d64));
            // Non-empty subsets of NS, as bit masks.
            let mut masks: Vec<usize> = (1..1 << NS.len()).collect();
            rng.shuffle(&mut masks);
            let mask = masks[round % masks.len()];
            let ns = NS.iter().enumerate().filter(|(i, _)| (mask >> i) & 1 == 1);
            deck.push(Request { circuit, ns: None, postprocess: None });
            deck.push(Request {
                circuit,
                ns: Some(ns.map(|(_, &n)| n).collect()),
                postprocess: Some((round + rng.below(2)).is_multiple_of(2)),
            });
        }
        SplitMix(self.config.seed ^ (round as u64).wrapping_mul(0x9e37_79b9)).shuffle(&mut deck);
        deck
    }

    fn round_len(&self) -> usize {
        2 * circuits(self.config).len()
    }

    fn take(&self) -> Option<Request> {
        let index = self.next.fetch_add(1, Ordering::Relaxed);
        if index >= self.len {
            return None;
        }
        let len = self.round_len();
        Some(self.round(index / len).swap_remove(index % len))
    }
}

/// A running in-process service.
struct Server {
    addr: SocketAddr,
    registry: Arc<Registry>,
    handle: JoinHandle<Result<(), bist_batch::BatchError>>,
}

impl Server {
    fn start(journal_dir: PathBuf) -> Result<Server, String> {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: THREADS,
            journal_dir,
            ..ServeConfig::default()
        };
        let server = CampaignServer::bind(config).map_err(|e| e.to_string())?;
        let (addr, registry) = (server.local_addr(), server.registry());
        let handle = std::thread::spawn(move || server.run());
        Ok(Server { addr, registry, handle })
    }

    /// Drains the service and waits for its accept loop and scheduler.
    fn stop(self) -> Result<(), String> {
        http::request(self.addr, "POST", "/shutdown", "bench", "")?;
        self.handle
            .join()
            .map_err(|_| "service thread panicked".to_string())?
            .map_err(|e| e.to_string())
    }
}

/// One row streamed from `/campaigns/<id>/results`.
struct Row {
    exec_seconds: f64,
    queue_seconds: f64,
    fields: Json,
}

impl Row {
    fn num(&self, key: &str) -> f64 {
        self.fields.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }

    fn verified(&self) -> Option<bool> {
        self.fields.get("verified").and_then(Json::as_bool)
    }
}

/// A submitted campaign, followed to completion.
struct Served {
    submit: f64,
    latency: f64,
    rows: Vec<Row>,
    summary: Json,
}

impl Served {
    fn digest(&self) -> &str {
        self.summary.get("digest").and_then(Json::as_str).unwrap_or("")
    }

    fn count(&self, key: &str) -> f64 {
        self.summary.get(key).and_then(Json::as_f64).unwrap_or(-1.0)
    }
}

/// Why a submission produced no summary.
enum Refused {
    /// `429`: the admission queue was full.
    Rejected,
    Failed(String),
}

fn ok_body(response: Response, what: &str) -> Result<String, Refused> {
    match response.status {
        200 => Ok(response.body),
        429 => Err(Refused::Rejected),
        status => Err(Refused::Failed(format!("{what}: HTTP {status}: {}", response.body))),
    }
}

/// POSTs `spec`, streams its rows and waits for its summary.
fn submit_and_wait(addr: SocketAddr, client: &str, spec: &str) -> Result<Served, Refused> {
    let failed = Refused::Failed;
    let started = Instant::now();
    let body = ok_body(
        http::request(addr, "POST", "/campaigns", client, spec).map_err(failed)?,
        "submit",
    )?;
    let submit = started.elapsed().as_secs_f64();
    let id = Json::parse(&body)
        .ok()
        .and_then(|j| j.get("id").and_then(Json::as_f64))
        .map(|id| id as u64)
        .ok_or_else(|| Refused::Failed(format!("no campaign id in `{body}`")))?;
    let results = ok_body(
        http::request(addr, "GET", &format!("/campaigns/{id}/results"), client, "")
            .map_err(failed)?,
        "results",
    )?;
    let summary = ok_body(
        http::request(addr, "GET", &format!("/campaigns/{id}/summary"), client, "")
            .map_err(failed)?,
        "summary",
    )?;
    let latency = started.elapsed().as_secs_f64();
    let rows = results
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|line| {
            let fields =
                Json::parse(line).map_err(|e| Refused::Failed(format!("bad row `{line}`: {e}")))?;
            let get = |k: &str| fields.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            Ok(Row {
                exec_seconds: get("exec_seconds"),
                queue_seconds: get("queue_seconds"),
                fields,
            })
        })
        .collect::<Result<Vec<_>, Refused>>()?;
    let summary =
        Json::parse(&summary).map_err(|e| Refused::Failed(format!("bad summary: {e}")))?;
    Ok(Served { submit, latency, rows, summary })
}

/// Brings up a fresh service and warms its cache; returns it with the
/// set-up time and the served warm-up campaign.
fn warm_service(
    config: &RunConfig,
    journals: &Path,
    index: usize,
    problems: &mut Vec<String>,
) -> Result<(Server, f64, Served), String> {
    let started = Instant::now();
    let server = Server::start(journals.join(format!("service-{index}")))?;
    let served = match submit_and_wait(server.addr, "warm-up", &warm_spec(config)) {
        Ok(served) => served,
        Err(Refused::Rejected) => return Err("warm-up campaign was rejected".to_string()),
        Err(Refused::Failed(e)) => return Err(format!("warm-up campaign: {e}")),
    };
    let elapsed = started.elapsed().as_secs_f64();
    let jobs = circuits(config).len() as f64;
    if served.count("jobs_ok") != jobs || served.rows.iter().any(|r| r.verified() != Some(true)) {
        problems.push(format!(
            "warm-up campaign: {} of {jobs} jobs ok and verified",
            served.count("jobs_ok")
        ));
    }
    if let Some(expected) = config.pinned_digest(config.default_seed) {
        if served.digest() != expected {
            problems.push(format!("warm-up digest {} != pinned {expected}", served.digest()));
        }
    }
    Ok((server, elapsed, served))
}

/// Everything the closed loop observed.
struct Loop {
    window: f64,
    cpu: f64,
    done: Vec<(Request, Served)>,
    rejected: u64,
    errors: Vec<String>,
    attempted: u64,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

/// Runs the clients until `rounds` whole rounds of the stream are served.
fn closed_loop(config: &RunConfig, server: &Server, rounds: usize) -> Loop {
    let before = server.registry.snapshot();
    let results = Mutex::new(Vec::new());
    let mut stream = Stream { config, next: AtomicUsize::new(0), len: 0 };
    stream.len = stream.round_len() * rounds;
    let (cpu, started) = (crate::sys::cpu_seconds(), Instant::now());
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (results, stream) = (&results, &stream);
            scope.spawn(move || {
                let name = format!("client-{client}");
                while let Some(request) = stream.take() {
                    let outcome = submit_and_wait(server.addr, &name, &request.spec(config));
                    results.lock().expect("results lock").push((request, outcome));
                }
            });
        }
    });
    let window = started.elapsed().as_secs_f64();
    let cpu = crate::sys::cpu_seconds() - cpu;
    let mut out = Loop {
        window,
        cpu,
        done: Vec::new(),
        rejected: 0,
        errors: Vec::new(),
        attempted: 0,
        before,
        after: server.registry.snapshot(),
    };
    for (request, outcome) in results.into_inner().expect("results lock") {
        out.attempted += 1;
        match outcome {
            Ok(served) => out.done.push((request, served)),
            Err(Refused::Rejected) => out.rejected += 1,
            Err(Refused::Failed(e)) => out.errors.push(e),
        }
    }
    out
}

/// Folds the loop's requests into the end-to-end samples; a request
/// counts as failed unless its one job ran and verified.
fn sample(observed: &Loop, samples: &mut Samples, problems: &mut Vec<String>) {
    samples.window = observed.window;
    samples.cpu = observed.cpu;
    samples.attempted += observed.attempted;
    samples.failed += observed.rejected + observed.errors.len() as u64;
    problems.extend(observed.errors.iter().cloned());
    for (request, served) in &observed.done {
        let good = served.count("jobs_ok") == 1.0
            && served.rows.len() == 1
            && served.rows[0].verified() == Some(true);
        if !good {
            samples.failed += 1;
            problems.push(format!("request {request:?} did not verify: {}", served.digest()));
            continue;
        }
        samples.latency.push(served.latency);
    }
    samples.window_ops = samples.latency.len();
}

fn cache_counts(snapshot: &MetricsSnapshot) -> (u64, u64) {
    let sum = |suffix: &str| -> u64 {
        snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("cache.") && name.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    (sum(".hit"), sum(".miss"))
}

pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let journals = config.out_dir.join(format!("journals-{}", std::process::id()));
    let result = run_in(config, &journals);
    let _ = std::fs::remove_dir_all(&journals);
    result
}

fn run_in(config: &RunConfig, journals: &Path) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut samples = Samples::default();
    let repeats = if config.trace { 1 } else { SETUP_REPEATS };
    let mut warmed = None;
    for index in 0..repeats {
        if let Some((previous, _)) = warmed.take() {
            Server::stop(previous)?;
        }
        let (fresh, seconds, served) =
            warm_service(config, journals, index, &mut outcome.problems)?;
        samples.setup.push(seconds);
        warmed = Some((fresh, served));
    }
    let (server, pinned) = warmed.expect("at least one set-up");
    // The quality ratios are those of the pinned warm-up campaign.
    for row in &pinned.rows {
        samples.coverage.push(row.num("faults_detected") / row.num("faults_total"));
        samples.loaded.push(row.num("loaded_fraction"));
        samples.max_len.push(row.num("max_len") / row.num("t0_len"));
    }
    let rounds = if config.trace {
        TRACED_ROUNDS
    } else {
        crate::op_count(config, NOMINAL_ROUND_S) as usize
    };
    let observed = closed_loop(config, &server, rounds);
    server.stop()?;
    if observed.done.is_empty() {
        return Err(format!("no request completed: {:?}", observed.errors));
    }
    sample(&observed, &mut samples, &mut outcome.problems);
    if !config.trace {
        report::end_to_end(&samples, &mut outcome);
        return Ok(outcome);
    }
    outcome.attempted = samples.attempted;
    outcome.failed = samples.failed;
    let rows: Vec<&Row> = observed.done.iter().flat_map(|(_, s)| &s.rows).collect();
    let (hits_before, misses_before) = cache_counts(&observed.before);
    let (hits, misses) = cache_counts(&observed.after);
    let batch = BatchFigures {
        queue_wait: rows.iter().map(|r| r.queue_seconds).sum(),
        exec: rows.iter().map(|r| r.exec_seconds).sum(),
        // Campaigns run one at a time and a single-circuit campaign
        // occupies one worker.
        threads: 1,
        wall: observed.window,
        cache_hits: hits - hits_before,
        cache_misses: misses - misses_before,
    };
    let overheads: Vec<f64> = observed
        .done
        .iter()
        .map(|(_, s)| s.latency - s.rows.iter().map(|r| r.exec_seconds).sum::<f64>())
        .collect();
    let submits: Vec<f64> = observed.done.iter().map(|(_, s)| s.submit).collect();
    let serve = ServeFigures {
        submit: median(&submits).unwrap_or(0.0),
        overhead: median(&overheads).unwrap_or(0.0),
        rejected: observed.rejected,
    };
    replay(config, &observed, &pinned, &batch, &serve, &mut outcome)?;
    Ok(outcome)
}

/// The traced rebuild: the warmed `T0`s generated through the layers (the
/// pinned warm-up checked against its served digest), then every served
/// request replayed on them under spans and compared with its streamed
/// row.
fn replay(
    config: &RunConfig,
    observed: &Loop,
    pinned: &Served,
    batch: &BatchFigures,
    serve: &ServeFigures,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let registry = Arc::new(Registry::new());
    let obs = Obs::with_registry(Arc::clone(&registry));
    let tracer = Tracer::new();
    let mut counts = Counts::default();
    let mut warmed: BTreeMap<&str, (Prepared, T0)> = BTreeMap::new();
    for name in circuits(config) {
        let prepared = layers::prepare(&tracer, 0, name)?;
        let t0 = layers::generate_t0(
            &tracer,
            0,
            &prepared,
            layers::tgen_limits(config.smoke),
            config.default_seed,
            &obs,
            &mut counts,
        )?;
        warmed.insert(name, (prepared, t0));
    }
    check_warm_digest(config, &warmed, pinned, &mut outcome.problems)?;

    let mut reference = 0.0;
    for (index, (request, served)) in observed.done.iter().enumerate() {
        let (prepared, t0) = &warmed[request.circuit];
        let (ns, postprocess) = request.scheme();
        let id = index as u64 + 1;
        let mut scheme = tracer.time(JOB_SPAN, id, || {
            layers::run_scheme(
                &tracer,
                id,
                prepared,
                &obs,
                t0,
                &ns,
                postprocess,
                true,
                config.default_seed,
                &mut counts,
            )
        })?;
        let Some(row) = served.rows.first() else { continue };
        reference += row.exec_seconds;
        scheme.prefer(row.num("n") as usize);
        let best = scheme.best_run();
        let rebuilt = [
            ("t0_len", t0.sequence.len() as f64),
            ("faults_detected", t0.coverage.detected_count() as f64),
            ("n", best.n as f64),
            ("set_count", best.after.count as f64),
            ("total_len", best.after.total_len as f64),
            ("max_len", best.after.max_len as f64),
            ("loaded_fraction", best.after.total_len as f64 / t0.sequence.len().max(1) as f64),
        ];
        for (key, value) in rebuilt {
            if row.num(key).to_bits() != value.to_bits() {
                outcome.problems.push(format!(
                    "request {id} ({request:?}): {key} {} != served {}",
                    value,
                    row.num(key)
                ));
            }
        }
        if row.verified() != scheme.verified {
            outcome.problems.push(format!("request {id}: verification differs"));
        }
    }
    let vectors = registry.snapshot().counter("sim.vectors").unwrap_or(0);
    report::per_layer(tracer.spans(), &counts, vectors, batch, serve, reference, outcome);
    Ok(())
}

/// Rebuilds the pinned warm-up campaign's records from the
/// layer-generated `T0`s, with the best `n` the served rows picked among
/// ties, and checks its digest equals the one the service reported.
fn check_warm_digest(
    config: &RunConfig,
    warmed: &BTreeMap<&str, (Prepared, T0)>,
    served: &Served,
    problems: &mut Vec<String>,
) -> Result<(), String> {
    let campaign = campaign_from_spec(&warm_spec(config)).map_err(|e| e.to_string())?;
    let plan = CampaignEngine::new().plan(&campaign).map_err(|e| e.to_string())?;
    let scratch = Tracer::new();
    let mut records = Vec::new();
    for spec in &plan {
        let (prepared, t0) = &warmed[spec.circuit.key().as_str()];
        let mut scheme = layers::run_scheme(
            &scratch,
            0,
            prepared,
            &Obs::noop(),
            t0,
            &spec.scheme.ns,
            spec.scheme.postprocess,
            campaign.verifies(),
            spec.seed,
            &mut Counts::default(),
        )?;
        let label = spec.circuit.label();
        let row = served
            .rows
            .iter()
            .find(|r| r.fields.get("circuit").and_then(Json::as_str) == Some(&label));
        if let Some(row) = row {
            scheme.prefer(row.num("n") as usize);
        }
        records.push(layers::record(spec, prepared, t0, &scheme));
    }
    records.sort_by_key(|r| r.job);
    let rebuilt = format!("{:016x}", CampaignSummary::build(&records, plan.len(), 0.0).digest());
    if rebuilt != served.digest() {
        problems.push(format!("traced warm-up digest {rebuilt} != untraced {}", served.digest()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(seed: u64) -> RunConfig {
        RunConfig {
            workload: "warm_requests".to_string(),
            seed,
            default_seed: 1999,
            seconds: 40.0,
            trace: false,
            smoke: false,
            out_dir: PathBuf::new(),
            digest: None,
        }
    }

    fn stream(config: &RunConfig) -> Stream<'_> {
        Stream { config, next: AtomicUsize::new(0), len: 0 }
    }

    #[test]
    fn every_round_holds_the_default_and_a_subset_request_per_circuit() {
        let config = config(7);
        let stream = stream(&config);
        let round = stream.round(3);
        assert_eq!(round.len(), stream.round_len());
        assert_eq!(round.len(), 2 * WARM_CIRCUITS.len());
        for &circuit in &WARM_CIRCUITS {
            let pair: Vec<&Request> = round.iter().filter(|r| r.circuit == circuit).collect();
            assert_eq!(pair.len(), 2);
            assert!(pair.iter().any(|r| r.ns.is_none() && r.postprocess.is_none()));
            let subset = pair.iter().find_map(|r| r.ns.as_ref()).expect("a subset request");
            assert!(!subset.is_empty() && subset.iter().all(|n| NS.contains(n)));
        }
        let defaults: Vec<(Vec<usize>, bool)> =
            round.iter().filter(|r| r.ns.is_none()).map(Request::scheme).collect();
        assert!(defaults.iter().all(|s| *s == (NS.to_vec(), true)));
        for request in &round {
            let spec = request.spec(&config);
            assert_eq!(spec.contains("\"ns\""), request.ns.is_some(), "{spec}");
            assert!(campaign_from_spec(&spec).is_ok(), "{spec}");
        }
    }

    #[test]
    fn fifteen_rounds_send_every_subset_with_postprocessing_alternating() {
        let config = config(11);
        let stream = stream(&config);
        let subsets: Vec<Request> = (0..15)
            .flat_map(|r| stream.round(r))
            .filter(|r| r.circuit == "a400" && r.ns.is_some())
            .collect();
        let mut seen: Vec<&Vec<usize>> = subsets.iter().filter_map(|r| r.ns.as_ref()).collect();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 15);
        assert!(subsets.windows(2).all(|w| w[0].postprocess != w[1].postprocess));
    }

    #[test]
    fn the_stream_is_fixed_per_seed_and_differs_between_seeds() {
        let (a, b) = (config(7), config(8));
        let order = |c: &RunConfig| -> Vec<String> {
            let mut s = stream(c);
            s.len = 12 * s.round_len();
            std::iter::from_fn(|| s.take()).map(|r| r.spec(c)).collect()
        };
        assert_eq!(order(&a), order(&a));
        assert_eq!(order(&a).len(), 12 * 2 * WARM_CIRCUITS.len());
        assert_ne!(order(&a), order(&b));
        // The seed changes which requests are sent, not just their order.
        let mix = |c: &RunConfig| {
            let mut specs = order(c);
            specs.sort();
            specs
        };
        assert_ne!(mix(&a), mix(&b));
    }
}
