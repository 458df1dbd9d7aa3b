//! `subseq-bist serve` — the long-lived campaign service.
//!
//! A hand-rolled HTTP/1.1 front end over [`std::net::TcpListener`] (zero
//! new dependencies; request heads are size-capped and specs are read
//! with the workspace's one JSON grammar, `bist_obs::json`) that
//! promotes the batch engine into a daemon:
//!
//! * `POST /campaigns` — submit a campaign spec (the JSON vocabulary of
//!   the `run` CLI flags); responds with a campaign id and the spec's
//!   [`Campaign::fingerprint`].
//! * `GET /campaigns/<id>/results` — streams the campaign's JSONL rows
//!   with chunked transfer-encoding *as jobs complete*, riding the
//!   existing [`ReportSink`] plumbing.
//! * `GET /campaigns/<id>/summary` — blocks until the campaign finishes
//!   and returns the roll-up (job counts and the order-independent
//!   [`CampaignSummary::digest`]).
//! * `GET /metrics` — the process-lifetime [`Registry`] rendered as
//!   metrics JSON, self-validated before it leaves the process.
//! * `GET /healthz` — liveness.
//! * `POST /shutdown` — graceful drain: the in-flight campaign finishes,
//!   queued campaigns are cancelled with their (empty, resumable)
//!   journals left on disk, and the process exits cleanly.
//!
//! Behind the socket sits one process-lifetime [`ArtifactCache`] shared
//! by every campaign via [`CampaignEngine::shared_cache`]: cache keys
//! are campaign-independent (circuit key, seed, `TgenConfig`), so the
//! tape/collapse/`T0` artifacts the paper's flow precomputes are shared
//! *across requests*, under the cache's own byte-budget eviction. Admission control bounds the pending-campaign
//! queue (`429` on overflow) and serves clients round-robin — one
//! campaign per client per turn — so a flood from one client cannot
//! starve the rest. Campaigns execute one at a time on the worker pool
//! (jobs within a campaign run concurrently), which keeps every
//! campaign's summary bit-identical to an offline
//! [`CampaignEngine::run`] of the same spec.
//!
//! Every campaign writes a fingerprint-stamped JSONL journal under
//! [`ServeConfig::journal_dir`], created at submission time — so even a
//! campaign cancelled by shutdown before its first job leaves a valid
//! (empty) journal that `subseq-bist run --resume` accepts as a fresh
//! start.

use crate::cache::{ArtifactCache, CachePolicy};
use crate::campaign::Campaign;
use crate::engine::CampaignEngine;
use crate::jsonl::record_row;
use crate::report::{CampaignSummary, JobRecord, JsonlSink, ReportSink};
use crate::BatchError;
use bist_obs::json::{quote, Json};
use bist_obs::{export, CounterHandle, GaugeHandle, Obs, Registry};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;
use subseq_bist::tgen::TgenConfig;
use subseq_bist::Backend;

/// Largest accepted request body: campaign specs are small, and the
/// parser should never be fed an unbounded allocation.
const MAX_BODY_BYTES: usize = 1 << 20;

/// Largest accepted request head (request line plus headers): each
/// connection has its own thread, so an unbounded head would let one
/// client grow the process's memory without limit.
const MAX_HEAD_BYTES: u64 = 16 << 10;

/// Configuration of a [`CampaignServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads per campaign (0 = one per available core).
    pub threads: usize,
    /// Bounded job-queue depth of the engine (≥ 1).
    pub queue_depth: usize,
    /// Admission bound: campaigns queued (not yet running) before
    /// submissions are rejected with `429`.
    pub max_pending: usize,
    /// Residency policy of the process-lifetime artifact cache.
    pub cache_policy: CachePolicy,
    /// Directory for per-campaign JSONL journals.
    pub journal_dir: PathBuf,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            queue_depth: 32,
            max_pending: 16,
            cache_policy: CachePolicy::default(),
            journal_dir: std::env::temp_dir().join("subseq-bist-serve"),
        }
    }
}

/// Parses a `POST /campaigns` body into a [`Campaign`].
///
/// The vocabulary mirrors the `run` CLI flags, with the same defaults
/// (including `"smoke": true` shrinking the matrix exactly like
/// `--smoke`): `circuits` (suite names), `upto`, `backends` (labels in
/// the [`crate::parse_backend`] syntax), `seeds`, `ns`, `postprocess`,
/// `verify`, `t0_cap`, `t0_budget`, `smoke`. Unknown keys are rejected — a misspelled field
/// must fail the submission, not silently run a default campaign. The
/// spec is expanded eagerly so an invalid matrix fails here (HTTP 400)
/// rather than inside the worker pool.
///
/// Public so tests (and clients embedding the crate) can build the
/// *identical* offline [`Campaign`] from the same JSON they submit over
/// the socket.
///
/// # Errors
///
/// [`BatchError::Config`] describing the first syntax, schema or
/// campaign-shape violation.
pub fn campaign_from_spec(body: &str) -> Result<Campaign, BatchError> {
    let bad = |e: String| BatchError::Config(format!("campaign spec: {e}"));
    let mut circuits: Option<Vec<String>> = None;
    let mut upto: Option<usize> = None;
    let mut backend_tokens: Option<Vec<String>> = None;
    let mut seeds: Option<Vec<u64>> = None;
    let mut ns: Option<Vec<usize>> = None;
    let mut postprocess = true;
    let mut verify = true;
    let mut t0_cap: Option<usize> = None;
    let mut t0_budget: Option<usize> = None;
    let mut smoke = false;

    let spec = Json::parse(body).map_err(bad)?;
    let members = spec.as_object().ok_or_else(|| bad("expected a JSON object".to_string()))?;
    let mut read = |key: &str, value: &Json| -> Result<(), String> {
        match key {
            "circuits" => circuits = Some(string_array(value, key)?),
            "upto" => upto = Some(number(value, key)?),
            "backends" => backend_tokens = Some(string_array(value, key)?),
            "seeds" => seeds = Some(number_array(value, key)?),
            "ns" => ns = Some(number_array(value, key)?),
            "postprocess" => postprocess = boolean(value, key)?,
            "verify" => verify = boolean(value, key)?,
            "t0_cap" => t0_cap = Some(number(value, key)?),
            "t0_budget" => t0_budget = Some(number(value, key)?),
            "smoke" => smoke = boolean(value, key)?,
            other => return Err(format!("unknown key `{other}`")),
        }
        Ok(())
    };
    for (key, value) in members {
        read(key, value).map_err(bad)?;
    }

    // Smoke mode mirrors the CLI: explicit fields always win.
    if smoke {
        upto.get_or_insert(300);
        if ns.is_none() {
            ns = Some(vec![1, 2]);
        }
        if backend_tokens.is_none() {
            backend_tokens = Some(vec!["packed".to_string(), "sharded:0:256".to_string()]);
        }
    }
    let t0_cap = t0_cap.unwrap_or(if smoke { 48 } else { 1024 });
    let t0_budget = t0_budget.unwrap_or(if smoke { 20 } else { 300 });

    let mut campaign = Campaign::new()
        .verify(verify)
        .tgen(TgenConfig::new().max_length(t0_cap).compaction_budget(t0_budget));
    if let Some(seeds) = seeds {
        campaign = campaign.seeds(seeds);
    }
    campaign = match circuits {
        Some(names) => campaign.suite_circuits(names),
        None => campaign.suite_up_to(upto.unwrap_or(3000)),
    };
    if let Some(tokens) = backend_tokens {
        let backends: Vec<Backend> =
            tokens.iter().map(|t| crate::campaign::parse_backend(t)).collect::<Result<_, _>>()?;
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
    // Fail malformed matrices at submission, not inside the pool.
    campaign.expand()?;
    Ok(campaign)
}

fn boolean(value: &Json, key: &str) -> Result<bool, String> {
    value.as_bool().ok_or_else(|| format!("`{key}`: expected `true` or `false`"))
}

fn string_array(value: &Json, key: &str) -> Result<Vec<String>, String> {
    let items = value.as_array().ok_or_else(|| format!("`{key}`: expected an array"))?;
    items
        .iter()
        .map(|item| item.as_str().map(str::to_string))
        .collect::<Option<_>>()
        .ok_or_else(|| format!("`{key}`: expected an array of strings"))
}

fn number<T: std::str::FromStr>(value: &Json, key: &str) -> Result<T, String> {
    match value {
        Json::Num(lexeme) => lexeme.parse().ok(),
        _ => None,
    }
    .ok_or_else(|| format!("bad number in `{key}`"))
}

fn number_array<T: std::str::FromStr>(value: &Json, key: &str) -> Result<Vec<T>, String> {
    let items = value.as_array().ok_or_else(|| format!("`{key}`: expected an array"))?;
    items.iter().map(|item| number(item, key)).collect()
}

/// One submitted campaign's lifecycle, shared between the scheduler
/// (writer) and any number of result/summary readers.
struct CampaignState {
    fingerprint: String,
    campaign: Campaign,
    journal: PathBuf,
    progress: Mutex<Progress>,
    progressed: Condvar,
}

#[derive(Default)]
struct Progress {
    /// Fingerprint-stamped JSONL rows in completion order — exactly the
    /// bytes the journal holds, re-served to streaming clients.
    rows: Vec<String>,
    done: bool,
    summary: Option<CampaignSummary>,
    error: Option<String>,
}

/// The admission queue: one FIFO per client, clients served round-robin
/// (one campaign per client per turn) so a burst from one client cannot
/// starve the others.
#[derive(Default)]
struct Admission {
    per_client: BTreeMap<String, VecDeque<u64>>,
    rotation: VecDeque<String>,
    pending: usize,
    closed: bool,
}

impl Admission {
    fn push(&mut self, client: &str, id: u64) {
        let queue = self.per_client.entry(client.to_string()).or_default();
        if queue.is_empty() {
            self.rotation.push_back(client.to_string());
        }
        queue.push_back(id);
        self.pending += 1;
    }

    fn pop(&mut self) -> Option<u64> {
        let client = self.rotation.pop_front()?;
        let queue = self.per_client.get_mut(&client).expect("rotation entry has a queue");
        let id = queue.pop_front().expect("rotation entry is non-empty");
        if queue.is_empty() {
            self.per_client.remove(&client);
        } else {
            self.rotation.push_back(client);
        }
        self.pending -= 1;
        Some(id)
    }
}

/// Everything the connection handlers and the scheduler share.
struct Shared {
    config: ServeConfig,
    registry: Arc<Registry>,
    obs: Obs,
    cache: Arc<ArtifactCache>,
    next_id: AtomicU64,
    admission: Mutex<Admission>,
    admitted: Condvar,
    campaigns: Mutex<HashMap<u64, Arc<CampaignState>>>,
    shutdown: AtomicBool,
    accepted: CounterHandle,
    rejected: CounterHandle,
    completed: CounterHandle,
    requests: CounterHandle,
    pending_gauge: GaugeHandle,
}

/// The campaign service. Bind, then [`run`](Self::run) — the call
/// returns after a `POST /shutdown` has drained the queue.
pub struct CampaignServer {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl CampaignServer {
    /// Binds the listener, creates the journal directory and the
    /// process-lifetime artifact cache.
    ///
    /// # Errors
    ///
    /// I/O errors from binding or directory creation.
    pub fn bind(config: ServeConfig) -> Result<Self, BatchError> {
        std::fs::create_dir_all(&config.journal_dir)?;
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let registry = Arc::new(Registry::new());
        let obs = Obs::with_registry(Arc::clone(&registry));
        let cache = Arc::new(ArtifactCache::with_config(&obs, config.cache_policy, None));
        let shared = Arc::new(Shared {
            accepted: obs.counter("serve.campaigns.accepted"),
            rejected: obs.counter("serve.campaigns.rejected"),
            completed: obs.counter("serve.campaigns.completed"),
            requests: obs.counter("serve.requests"),
            pending_gauge: obs.gauge("serve.queue.pending"),
            config,
            registry,
            obs,
            cache,
            next_id: AtomicU64::new(0),
            admission: Mutex::new(Admission::default()),
            admitted: Condvar::new(),
            campaigns: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        });
        Ok(CampaignServer { listener, local_addr, shared })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The process-lifetime metrics registry (shared with every
    /// campaign run — tests read cross-campaign cache counters here).
    #[must_use]
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// Serves until a `POST /shutdown` drains the queue: the scheduler
    /// finishes the in-flight campaign, cancels queued ones (their
    /// empty journals stay resumable) and the accept loop stops.
    ///
    /// # Errors
    ///
    /// I/O errors from the accept loop.
    pub fn run(self) -> Result<(), BatchError> {
        let scheduler_shared = Arc::clone(&self.shared);
        let scheduler = std::thread::Builder::new()
            .name("campaign-scheduler".to_string())
            .spawn(move || scheduler_loop(&scheduler_shared))
            .map_err(BatchError::Io)?;
        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            let shared = Arc::clone(&self.shared);
            let _ = std::thread::Builder::new()
                .name("campaign-conn".to_string())
                .spawn(move || handle_connection(stream, &shared));
        }
        scheduler
            .join()
            .map_err(|_| BatchError::Config("campaign scheduler thread panicked".to_string()))?;
        Ok(())
    }
}

/// The scheduler: pops admitted campaigns round-robin and runs them one
/// at a time (jobs within a campaign still fan out over the worker
/// pool). Sequential campaign execution keeps each summary bit-identical
/// to an offline run of the same spec; the shared cache is what carries
/// the cross-campaign speedup.
fn scheduler_loop(shared: &Shared) {
    loop {
        let (next, draining) = {
            let mut admission = shared.admission.lock().expect("admission lock");
            loop {
                if let Some(id) = admission.pop() {
                    shared.pending_gauge.set(admission.pending as i64);
                    break (Some(id), admission.closed);
                }
                if admission.closed {
                    break (None, true);
                }
                admission = shared.admitted.wait(admission).expect("admission lock");
            }
        };
        let Some(id) = next else { return };
        let state = shared.campaigns.lock().expect("campaigns lock").get(&id).cloned();
        let Some(state) = state else { continue };
        if draining {
            // Shutdown arrived before this campaign started: cancel it,
            // leaving its empty journal resumable.
            let mut progress = state.progress.lock().expect("progress lock");
            progress.error =
                Some("cancelled by shutdown before starting (journal is resumable)".to_string());
            progress.done = true;
            state.progressed.notify_all();
            continue;
        }
        run_campaign(shared, &state);
    }
}

/// Executes one campaign over the process-lifetime cache, journaling to
/// disk and streaming rows to waiting clients.
fn run_campaign(shared: &Shared, state: &Arc<CampaignState>) {
    let engine = CampaignEngine::new()
        .threads(shared.config.threads)
        .queue_depth(shared.config.queue_depth)
        .keep_going(true)
        .obs(shared.obs.clone())
        .shared_cache(Arc::clone(&shared.cache));
    let result = (|| -> Result<CampaignSummary, BatchError> {
        // The journal file exists since submission; append keeps the
        // create-then-run handoff crash-safe.
        let mut journal = JsonlSink::append(&state.journal)?.with_fingerprint(&state.fingerprint);
        let mut stream = StreamSink { state: Arc::clone(state) };
        let mut sinks: [&mut dyn ReportSink; 2] = [&mut journal, &mut stream];
        Ok(engine.run(&state.campaign, &mut sinks)?.summary)
    })();
    let mut progress = state.progress.lock().expect("progress lock");
    match result {
        Ok(summary) => {
            progress.summary = Some(summary);
            shared.completed.inc();
        }
        Err(e) => progress.error = Some(e.to_string()),
    }
    progress.done = true;
    state.progressed.notify_all();
}

/// The in-memory half of the journal: pushes each fingerprint-stamped
/// row into the campaign state and wakes streaming clients.
struct StreamSink {
    state: Arc<CampaignState>,
}

impl ReportSink for StreamSink {
    fn accept(&mut self, record: &JobRecord) -> Result<(), BatchError> {
        let line = record_row(record, Some(&self.state.fingerprint));
        let mut progress = self.state.progress.lock().expect("progress lock");
        progress.rows.push(line);
        self.state.progressed.notify_all();
        Ok(())
    }
}

/// A parsed HTTP/1.1 request: line, lowercased header names, body.
struct Request {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    body: String,
}

impl Request {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }
}

/// Reads one line of the request head; a line cut short by the head
/// budget (or by the client hanging up) is an error, not a header.
fn read_head_line(head: &mut impl BufRead) -> Result<String, String> {
    let mut line = String::new();
    head.read_line(&mut line).map_err(|e| e.to_string())?;
    if line.ends_with('\n') {
        Ok(line)
    } else {
        Err(format!("request head is unterminated or exceeds {MAX_HEAD_BYTES} bytes"))
    }
}

fn read_request(stream: &TcpStream) -> Result<Request, String> {
    let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut head = reader.take(MAX_HEAD_BYTES);
    let line = read_head_line(&mut head)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts.next().ok_or("request line missing path")?.to_string();
    let mut headers = Vec::new();
    loop {
        let header = read_head_line(&mut head)?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    let length: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map_or(Ok(0), |(_, v)| v.parse().map_err(|_| format!("bad content-length `{v}`")))?;
    if length > MAX_BODY_BYTES {
        return Err(format!("request body of {length} bytes exceeds {MAX_BODY_BYTES}"));
    }
    let mut body = vec![0u8; length];
    head.into_inner().read_exact(&mut body).map_err(|e| e.to_string())?;
    let body = String::from_utf8(body).map_err(|_| "request body is not UTF-8".to_string())?;
    Ok(Request { method, path, headers, body })
}

fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

fn respond_json(stream: &mut TcpStream, status: &str, body: &str) {
    respond(stream, status, "application/json", body);
}

fn error_body(message: &str) -> String {
    format!("{{\"error\": {}}}", quote(message))
}

/// Lingering close after rejecting a request the server did not read to
/// its end: half-close, then discard what the client is still sending
/// (bounded in bytes, with a per-read timeout). Closing a socket with
/// unread input makes the kernel answer with a reset, which can destroy
/// the error response before the client reads it.
fn linger(stream: &TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(1)));
    let _ = std::io::copy(&mut stream.take(MAX_BODY_BYTES as u64), &mut std::io::sink());
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let request = match read_request(&stream) {
        Ok(request) => request,
        Err(e) => {
            respond_json(&mut stream, "400 Bad Request", &error_body(&e));
            linger(&stream);
            return;
        }
    };
    shared.requests.inc();
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => respond(&mut stream, "200 OK", "text/plain", "ok\n"),
        ("GET", "/metrics") => serve_metrics(&mut stream, shared),
        ("POST", "/campaigns") => submit_campaign(&mut stream, shared, &request),
        ("POST", "/shutdown") => initiate_shutdown(&mut stream, shared),
        ("GET", path) => match campaign_route(path) {
            Some((id, "results")) => stream_results(&mut stream, shared, id),
            Some((id, "summary")) => serve_summary(&mut stream, shared, id),
            _ => respond_json(&mut stream, "404 Not Found", &error_body("no such route")),
        },
        _ => respond_json(&mut stream, "404 Not Found", &error_body("no such route")),
    }
}

/// Parses `/campaigns/<id>/<leaf>` into `(id, leaf)`.
fn campaign_route(path: &str) -> Option<(u64, &str)> {
    let rest = path.strip_prefix("/campaigns/")?;
    let (id, leaf) = rest.split_once('/')?;
    Some((id.parse().ok()?, leaf))
}

fn serve_metrics(stream: &mut TcpStream, shared: &Shared) {
    let rendered = export::render_json(&shared.registry.snapshot());
    // Self-validation: the endpoint never serves bytes the strict
    // validator would reject (the same discipline as `--metrics`).
    match export::validate_metrics_json(&rendered) {
        Ok(_) => respond_json(stream, "200 OK", &rendered),
        Err(e) => respond_json(
            stream,
            "500 Internal Server Error",
            &error_body(&format!("internal: emitted bad metrics: {e}")),
        ),
    }
}

fn submit_campaign(stream: &mut TcpStream, shared: &Arc<Shared>, request: &Request) {
    let campaign = match campaign_from_spec(&request.body) {
        Ok(campaign) => campaign,
        Err(e) => {
            respond_json(stream, "400 Bad Request", &error_body(&e.to_string()));
            return;
        }
    };
    let fingerprint = campaign.fingerprint();
    // Fairness key: the client's self-declared identity, or its peer IP.
    let client = request
        .header("x-client")
        .map(str::to_string)
        .or_else(|| stream.peer_addr().ok().map(|a| a.ip().to_string()))
        .unwrap_or_else(|| "anonymous".to_string());

    let mut admission = shared.admission.lock().expect("admission lock");
    if admission.closed {
        respond_json(stream, "503 Service Unavailable", &error_body("shutting down"));
        return;
    }
    if admission.pending >= shared.config.max_pending {
        shared.rejected.inc();
        respond_json(
            stream,
            "429 Too Many Requests",
            &error_body(&format!(
                "pending-campaign queue is full ({} campaigns); retry later",
                admission.pending
            )),
        );
        return;
    }
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst) + 1;
    let journal = shared.config.journal_dir.join(format!("campaign-{id}.jsonl"));
    // The journal exists from the moment the submission is acknowledged:
    // a campaign cancelled before its first job still leaves a valid
    // (empty) journal behind, and an empty journal resumes as a fresh
    // run.
    if let Err(e) = std::fs::File::create(&journal) {
        respond_json(
            stream,
            "500 Internal Server Error",
            &error_body(&format!("creating journal `{}`: {e}", journal.display())),
        );
        return;
    }
    let state = Arc::new(CampaignState {
        fingerprint: fingerprint.clone(),
        campaign,
        journal: journal.clone(),
        progress: Mutex::new(Progress::default()),
        progressed: Condvar::new(),
    });
    shared.campaigns.lock().expect("campaigns lock").insert(id, state);
    admission.push(&client, id);
    shared.pending_gauge.set(admission.pending as i64);
    shared.accepted.inc();
    shared.admitted.notify_one();
    drop(admission);
    respond_json(
        stream,
        "200 OK",
        &format!(
            "{{\"id\": {id}, \"fingerprint\": \"{fingerprint}\", \"journal\": {}}}",
            quote(&journal.display().to_string())
        ),
    );
}

fn initiate_shutdown(stream: &mut TcpStream, shared: &Shared) {
    respond_json(stream, "200 OK", "{\"draining\": true}");
    shared.shutdown.store(true, Ordering::SeqCst);
    {
        let mut admission = shared.admission.lock().expect("admission lock");
        admission.closed = true;
        shared.admitted.notify_all();
    }
    // Wake the blocked accept loop so it observes the shutdown flag.
    if let Ok(local) = stream.local_addr() {
        let _ = TcpStream::connect(local);
    }
}

fn lookup(shared: &Shared, id: u64) -> Option<Arc<CampaignState>> {
    shared.campaigns.lock().expect("campaigns lock").get(&id).cloned()
}

/// Streams a campaign's JSONL rows with chunked transfer-encoding as
/// jobs complete; the stream ends when the campaign does.
fn stream_results(stream: &mut TcpStream, shared: &Shared, id: u64) {
    let Some(state) = lookup(shared, id) else {
        respond_json(stream, "404 Not Found", &error_body(&format!("no campaign {id}")));
        return;
    };
    if write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: application/jsonl\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )
    .is_err()
    {
        return;
    }
    let mut sent = 0usize;
    loop {
        let (batch, finished) = {
            let mut progress = state.progress.lock().expect("progress lock");
            while progress.rows.len() == sent && !progress.done {
                progress = state.progressed.wait(progress).expect("progress lock");
            }
            (progress.rows[sent..].to_vec(), progress.done)
        };
        for row in &batch {
            if write!(stream, "{:x}\r\n{row}\n\r\n", row.len() + 1).is_err() {
                return; // client hung up; the journal still has everything
            }
        }
        let _ = stream.flush();
        sent += batch.len();
        if finished {
            break;
        }
    }
    let _ = stream.write_all(b"0\r\n\r\n");
    let _ = stream.flush();
}

/// Blocks until the campaign finishes, then serves its roll-up.
fn serve_summary(stream: &mut TcpStream, shared: &Shared, id: u64) {
    let Some(state) = lookup(shared, id) else {
        respond_json(stream, "404 Not Found", &error_body(&format!("no campaign {id}")));
        return;
    };
    let progress: MutexGuard<'_, Progress> = {
        let mut progress = state.progress.lock().expect("progress lock");
        while !progress.done {
            progress = state.progressed.wait(progress).expect("progress lock");
        }
        progress
    };
    match (&progress.summary, &progress.error) {
        (Some(summary), _) => respond_json(
            stream,
            "200 OK",
            &format!(
                "{{\"id\": {id}, \"fingerprint\": \"{}\", \"digest\": \"{:016x}\", \
                 \"jobs_total\": {}, \"jobs_ok\": {}, \"jobs_failed\": {}, \"jobs_skipped\": {}, \
                 \"journal\": {}}}",
                state.fingerprint,
                summary.digest(),
                summary.jobs_total,
                summary.jobs_ok,
                summary.jobs_failed,
                summary.jobs_skipped,
                quote(&state.journal.display().to_string())
            ),
        ),
        (None, Some(error)) => {
            respond_json(stream, "500 Internal Server Error", &error_body(error));
        }
        (None, None) => respond_json(
            stream,
            "500 Internal Server Error",
            &error_body("campaign finished without a summary"),
        ),
    }
}
