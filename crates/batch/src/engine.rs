//! The concurrent campaign executor: a scoped-thread worker pool over a
//! bounded job queue, fed from the cost-ordered job schedule and drained
//! into [`ReportSink`]s as jobs complete.
//!
//! Jobs are dispatched longest-first: each job's cost is estimated as
//! *gate count × backend weight* ([`CampaignEngine::plan`]), so the most
//! expensive (circuit, backend) points start as early as possible and
//! cannot strand the pool behind a tail of quick jobs — the classic LPT
//! heuristic for shortening the critical path on multi-core hosts.
//! Scheduling is pure reordering of the dispatch sequence: outcomes come
//! back in matrix order and summaries are order-independent (pinned by
//! tests).
//!
//! Workers share one [`ArtifactCache`], so however the schedule lands on
//! the pool, each circuit is parsed once, its gate tape compiled once,
//! its fault universe collapsed once, and its `T0` generated once per
//! seed. A failing job cancels the rest of the campaign unless
//! `keep_going` is set; queued-but-unstarted jobs are then drained and
//! counted as skipped.

use crate::cache::{ArtifactCache, CachePolicy, CacheResidency, CacheStats};
use crate::campaign::{Campaign, CircuitSpec, JobSpec};
use crate::faultpoint::FaultPlan;
use crate::report::{CampaignSummary, JobMetrics, JobRecord, JobStatus, ReportSink};
use crate::BatchError;
use bist_obs::{CancelKind, CancelToken, Obs};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use subseq_bist::netlist::benchmarks;
use subseq_bist::{Backend, BistError, Session, SessionReport};

/// Per-job retry policy: how many attempts a transiently failing job
/// gets, and the deterministic backoff between them (attempt `k` sleeps
/// `backoff × k`). Only *transient* failures retry — permanent failures
/// (parse errors, assertion mismatches), panics and deadline timeouts
/// never do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per job, including the first (≥ 1; 1 = no
    /// retries).
    pub max_attempts: usize,
    /// Base backoff between attempts (deterministic, linearly scaled by
    /// the attempt number).
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 1, backoff: Duration::from_millis(25) }
    }
}

/// Worker-pool configuration of a [`CampaignEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Bounded job-queue depth (≥ 1; producers block when it is full).
    pub queue_depth: usize,
    /// Keep running after a job fails instead of cancelling the rest.
    pub keep_going: bool,
    /// Per-job deadline: each attempt gets a
    /// [`CancelToken`] expiring this far in the future, checked by the
    /// simulation sweeps at chunk boundaries. `None` = no deadline.
    pub deadline: Option<Duration>,
    /// Retry policy for transiently failing jobs.
    pub retry: RetryPolicy,
    /// Residency policy of the shared artifact cache.
    pub cache_policy: CachePolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            queue_depth: 32,
            keep_going: false,
            deadline: None,
            retry: RetryPolicy::default(),
            cache_policy: CachePolicy::default(),
        }
    }
}

/// Why a job ultimately failed (after retries, if any).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A permanent failure: retrying cannot help (parse error,
    /// configuration error, simulation mismatch).
    Permanent,
    /// A transient failure that survived every allowed attempt.
    Transient,
    /// The job panicked; the worker quarantined it via `catch_unwind`
    /// and kept serving the queue.
    Panicked,
    /// The job's deadline expired (cooperative cancellation observed by
    /// the sweep, or detected after the attempt).
    TimedOut,
}

impl fmt::Display for FailureKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureKind::Permanent => "permanent",
            FailureKind::Transient => "transient",
            FailureKind::Panicked => "panicked",
            FailureKind::TimedOut => "timed out",
        })
    }
}

/// A job's final failure: taxonomy, message and how many attempts ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// The failure taxonomy bucket.
    pub kind: FailureKind,
    /// The underlying failure message.
    pub message: String,
    /// Attempts consumed (1 = failed on the first try).
    pub attempts: usize,
}

impl fmt::Display for JobFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} after {} attempt", self.message, self.kind, self.attempts)?;
        if self.attempts != 1 {
            f.write_str("s")?;
        }
        f.write_str(")")
    }
}

/// One executed job: its spec, wall time and result.
#[derive(Debug)]
pub struct JobOutcome {
    /// The matrix point that ran.
    pub spec: JobSpec,
    /// Wall-clock seconds of the job: `queue_seconds + exec_seconds`.
    pub seconds: f64,
    /// Seconds the job sat in the bounded queue before a worker took it.
    pub queue_seconds: f64,
    /// Seconds the job executed (including artifact-cache waits and all
    /// retry attempts).
    pub exec_seconds: f64,
    /// The session report, or the typed failure.
    pub result: Result<SessionReport, JobFailure>,
}

/// Everything a finished campaign produced.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Executed jobs in matrix order (skipped jobs are absent).
    pub outcomes: Vec<JobOutcome>,
    /// The roll-up (carries the telemetry snapshot when the engine ran
    /// with an active sink).
    pub summary: CampaignSummary,
    /// Artifact-cache hit/miss counters.
    pub cache: CacheStats,
    /// Artifact-cache residency (entries + approximate pinned bytes per
    /// shelf) at campaign end.
    pub residency: CacheResidency,
}

impl CampaignOutcome {
    /// The report of the job with matrix id `id`, if it ran and
    /// succeeded.
    #[must_use]
    pub fn report(&self, id: usize) -> Option<&SessionReport> {
        self.outcomes.iter().find(|o| o.spec.id == id).and_then(|o| o.result.as_ref().ok())
    }
}

/// The campaign executor. See the module docs.
///
/// # Example
///
/// ```
/// use bist_batch::{Campaign, CampaignEngine};
/// use subseq_bist::tgen::TgenConfig;
///
/// let campaign = Campaign::new()
///     .suite_circuits(["s27"])
///     .ns(vec![1])
///     .tgen(TgenConfig::new().max_length(16))
///     .seeds([7]);
/// let outcome = CampaignEngine::new().run(&campaign, &mut [])?;
/// assert_eq!(outcome.summary.jobs_ok, 1);
/// # Ok::<(), bist_batch::BatchError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct CampaignEngine {
    config: EngineConfig,
    obs: Obs,
    /// Chaos injection plan shared with the worker pool and the artifact
    /// cache. `None` in production; see [`crate::faultpoint`].
    chaos: Option<Arc<FaultPlan>>,
    /// A caller-owned artifact cache shared across runs (and across
    /// engines). `None` = each run owns a fresh cache.
    cache: Option<Arc<ArtifactCache>>,
}

impl CampaignEngine {
    /// An engine with the default configuration (auto threads, queue
    /// depth 32, cancel on first error).
    #[must_use]
    pub fn new() -> Self {
        CampaignEngine::default()
    }

    /// Replaces the whole configuration.
    #[must_use]
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the worker-thread count (0 = one per available core).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads;
        self
    }

    /// Sets the bounded job-queue depth. A depth of 0 is kept as
    /// written and rejected with [`BatchError::Config`] at run time —
    /// server configs must not be silently rewritten.
    #[must_use]
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = depth;
        self
    }

    /// Keep running after job failures (they are recorded and rolled up
    /// instead of cancelling the campaign).
    #[must_use]
    pub fn keep_going(mut self, on: bool) -> Self {
        self.config.keep_going = on;
        self
    }

    /// Sets the per-job deadline: each attempt gets a cancellation token
    /// expiring this far in the future, observed by the simulation
    /// sweeps at chunk boundaries (`pool.timeouts` counts expiries).
    #[must_use]
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.config.deadline = Some(deadline);
        self
    }

    /// Sets the retry policy for transiently failing jobs
    /// (`pool.retries` counts re-attempts).
    #[must_use]
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.config.retry = retry;
        self
    }

    /// Sets the artifact cache's residency policy
    /// (`cache.<shelf>.evictions` counts what the byte budget evicts).
    #[must_use]
    pub fn cache_policy(mut self, policy: CachePolicy) -> Self {
        self.config.cache_policy = policy;
        self
    }

    /// Installs a chaos [`FaultPlan`]: the worker pool consults it per
    /// job attempt (panic / delay / transient-error sites) and the
    /// artifact cache per compute (poison site). Testing only — without
    /// a plan every injection site is a no-op branch.
    #[must_use]
    pub fn chaos(mut self, plan: Arc<FaultPlan>) -> Self {
        self.chaos = Some(plan);
        self
    }

    /// Shares a caller-owned [`ArtifactCache`] with every run of this
    /// engine (and with any other engine holding the same `Arc`). Cache
    /// keys are campaign-independent — circuit key, seed and
    /// `TgenConfig` — so a process-lifetime cache lets campaigns
    /// reuse each other's parses, tapes, collapses and `T0`s under the
    /// cache's own [`CachePolicy`] byte budget. When a shared cache is
    /// installed, the engine's [`cache_policy`](Self::cache_policy) and
    /// chaos plan do not apply to it: the cache keeps the policy and
    /// telemetry it was built with.
    #[must_use]
    pub fn shared_cache(mut self, cache: Arc<ArtifactCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Attaches a telemetry sink. The worker pool records queue-depth,
    /// queue-wait and execute histograms (`pool.*`), the shared artifact
    /// cache records hit/miss counters and residency gauges (`cache.*`),
    /// and every session runs fully instrumented (`session.*`, `core.*`,
    /// `sim.*`). The final [`MetricsSnapshot`](bist_obs::MetricsSnapshot)
    /// is embedded in the returned summary. Observation-only: results
    /// are bit-identical with or without a sink.
    #[must_use]
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// The cost-ordered dispatch schedule of `campaign`: the expanded job
    /// matrix sorted by decreasing estimated cost (gate count × backend
    /// weight), with the matrix id as the deterministic tie-break. This
    /// is exactly the order [`run`](Self::run) feeds the worker pool.
    ///
    /// # Errors
    ///
    /// [`BatchError::Config`] for invalid campaigns (as
    /// [`Campaign::expand`]).
    pub fn plan(&self, campaign: &Campaign) -> Result<Vec<JobSpec>, BatchError> {
        let mut jobs = campaign.expand()?;
        // Memoize the per-spec gate estimate: one registry/filesystem
        // probe per distinct circuit, not per job.
        let mut gates: HashMap<String, f64> = HashMap::new();
        let mut cost = |job: &JobSpec| -> f64 {
            let g = *gates.entry(job.circuit.key()).or_insert_with(|| estimate_gates(&job.circuit));
            g * backend_weight(job.backend)
        };
        let mut keyed: Vec<(f64, JobSpec)> = jobs.drain(..).map(|j| (cost(&j), j)).collect();
        keyed.sort_by(|(ca, a), (cb, b)| {
            cb.partial_cmp(ca).unwrap_or(std::cmp::Ordering::Equal).then(a.id.cmp(&b.id))
        });
        Ok(keyed.into_iter().map(|(_, j)| j).collect())
    }

    /// Expands and [`plan`](Self::plan)s `campaign`, executes every job
    /// on the worker pool in cost order (longest first), streaming a
    /// [`JobRecord`] per completed job to every sink (in completion
    /// order), then returns the outcomes (back in matrix order), the
    /// summary and the cache counters.
    ///
    /// # Errors
    ///
    /// [`BatchError::Config`] for invalid campaigns; the first job's
    /// error (as [`BatchError::JobFailed`]) when a job fails and
    /// `keep_going` is off; sink errors are propagated and also cancel
    /// the campaign.
    pub fn run(
        &self,
        campaign: &Campaign,
        sinks: &mut [&mut dyn ReportSink],
    ) -> Result<CampaignOutcome, BatchError> {
        self.run_resumed(campaign, sinks, &[])
    }

    /// [`run`](Self::run), skipping jobs already completed by a previous
    /// (possibly crashed) run of the same campaign. `replayed` carries
    /// the completed records — typically loaded from a JSONL journal via
    /// [`ResumeLog`](crate::ResumeLog) — keyed by matrix id; matching
    /// jobs are not re-executed and not re-streamed to sinks, but their
    /// records are merged into the final [`CampaignSummary`], so a
    /// killed-and-resumed campaign rolls up identically to an
    /// uninterrupted one.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_resumed(
        &self,
        campaign: &Campaign,
        sinks: &mut [&mut dyn ReportSink],
        replayed: &[JobRecord],
    ) -> Result<CampaignOutcome, BatchError> {
        let mut jobs = self.plan(campaign)?;
        let jobs_total = jobs.len();
        // Skip only ids that exist in this plan — a journal from another
        // campaign shape cannot mark anything done.
        let planned: HashSet<usize> = jobs.iter().map(|j| j.id).collect();
        let replayed: Vec<&JobRecord> =
            replayed.iter().filter(|r| planned.contains(&r.job)).collect();
        if !replayed.is_empty() {
            let done: HashSet<usize> = replayed.iter().map(|r| r.job).collect();
            jobs.retain(|j| !done.contains(&j.id));
        }
        if self.config.queue_depth == 0 {
            return Err(BatchError::Config(
                "queue_depth must be ≥ 1 (a zero-depth bounded queue can admit no jobs)"
                    .to_string(),
            ));
        }
        let keep_going = self.config.keep_going;
        let threads = resolve_threads(self.config.threads).min(jobs.len().max(1));

        let obs = self.obs.clone();
        let owned_cache;
        let cache: &ArtifactCache = match &self.cache {
            Some(shared) => shared,
            None => {
                owned_cache =
                    ArtifactCache::with_config(&obs, self.config.cache_policy, self.chaos.clone());
                &owned_cache
            }
        };
        let cancel = AtomicBool::new(false);
        let started = Instant::now();

        // Pool telemetry: pre-resolved handles, no-op without a sink.
        let queue_gauge = obs.gauge("pool.queue_depth");
        let queue_wait = obs.histogram("pool.queue_wait_us");
        let exec_hist = obs.histogram("pool.exec_us");
        let cancelled = obs.counter("pool.cancellations");
        let panics = obs.counter("pool.panics");
        let retries = obs.counter("pool.retries");
        let timeouts = obs.counter("pool.timeouts");

        // Each job travels with its enqueue timestamp, so the worker can
        // split wall time into queue wait vs execution.
        let (job_tx, job_rx) = mpsc::sync_channel::<(JobSpec, Instant)>(self.config.queue_depth);
        let job_rx = Mutex::new(job_rx);
        let (done_tx, done_rx) = mpsc::channel::<JobOutcome>();

        let mut outcomes: Vec<JobOutcome> = Vec::with_capacity(jobs_total);
        let mut records: Vec<JobRecord> = Vec::with_capacity(jobs_total);
        let mut sink_error: Option<BatchError> = None;

        std::thread::scope(|scope| {
            // Producer: feeds the bounded queue until done or cancelled.
            scope.spawn(|| {
                for job in jobs {
                    if cancel.load(Ordering::Relaxed) {
                        break;
                    }
                    if job_tx.send((job, Instant::now())).is_err() {
                        break;
                    }
                    queue_gauge.add(1);
                }
                drop(job_tx);
            });
            // Workers: pull jobs, run sessions over the shared cache.
            for worker in 0..threads {
                let done_tx = done_tx.clone();
                let jobs_done = obs.counter(&format!("pool.worker.{worker}.jobs"));
                scope.spawn(|| {
                    let done_tx = done_tx; // move the clone, share the rest
                    let jobs_done = jobs_done;
                    loop {
                        let received = job_rx.lock().expect("queue lock poisoned").recv();
                        let Ok((job, enqueued)) = received else { break };
                        queue_gauge.sub(1);
                        let queue_seconds = enqueued.elapsed().as_secs_f64();
                        if cancel.load(Ordering::Relaxed) {
                            cancelled.inc();
                            continue; // drain: counted as skipped
                        }
                        queue_wait.record(micros(queue_seconds));
                        let job_started = Instant::now();
                        let result = run_job_isolated(
                            cache,
                            campaign,
                            &job,
                            &obs,
                            &self.config,
                            self.chaos.as_deref(),
                            &panics,
                            &retries,
                            &timeouts,
                        );
                        let exec_seconds = job_started.elapsed().as_secs_f64();
                        exec_hist.record(micros(exec_seconds));
                        jobs_done.inc();
                        if result.is_err() && !keep_going {
                            cancel.store(true, Ordering::Relaxed);
                        }
                        let outcome = JobOutcome {
                            spec: job,
                            seconds: queue_seconds + exec_seconds,
                            queue_seconds,
                            exec_seconds,
                            result,
                        };
                        if done_tx.send(outcome).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(done_tx);
            // Collector (this thread): stream records to sinks as jobs
            // complete.
            for outcome in done_rx {
                let record = record_of(&outcome);
                for sink in sinks.iter_mut() {
                    if sink_error.is_none() {
                        if let Err(e) = sink.accept(&record) {
                            cancel.store(true, Ordering::Relaxed);
                            sink_error = Some(e);
                        }
                    }
                }
                records.push(record);
                outcomes.push(outcome);
            }
        });

        for sink in sinks.iter_mut() {
            if let Err(e) = sink.finish() {
                sink_error.get_or_insert(e);
            }
        }
        if let Some(e) = sink_error {
            return Err(e);
        }

        outcomes.sort_by_key(|o| o.spec.id);
        if !keep_going {
            if let Some(failed) = outcomes.iter().find(|o| o.result.is_err()) {
                return Err(BatchError::JobFailed {
                    job: failed.spec.id,
                    circuit: failed.spec.circuit.label(),
                    message: failed.result.as_ref().unwrap_err().to_string(),
                });
            }
        }
        // Merge replayed records so a resumed campaign rolls up exactly
        // like an uninterrupted one (axis grouping is order-independent;
        // sorting keeps the record list deterministic anyway).
        records.extend(replayed.iter().map(|r| (*r).clone()));
        records.sort_by_key(|r| r.job);
        let mut summary =
            CampaignSummary::build(&records, jobs_total, started.elapsed().as_secs_f64());
        summary.metrics = obs.snapshot();
        Ok(CampaignOutcome {
            outcomes,
            summary,
            cache: cache.stats(),
            residency: cache.residency(),
        })
    }
}

/// Resolves a requested thread count: 0 = one per available core (1 if
/// the host cannot say). The single source of truth for every
/// `available_parallelism` fallback in the crate — the worker pool, the
/// scheduler's backend cost weights and `serve`'s process-wide worker
/// budget must agree on what "auto" means.
pub(crate) fn resolve_threads(requested: usize) -> usize {
    match requested {
        0 => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        n => n,
    }
}

/// Seconds → whole microseconds for histogram recording.
fn micros(seconds: f64) -> u64 {
    if seconds <= 0.0 {
        0
    } else {
        (seconds * 1e6) as u64
    }
}

/// Estimated gate count of a circuit spec, without parsing anything:
/// suite circuits come straight from the benchmark registry; `.bench`
/// files are sized from their byte length (a gate line of the format
/// runs ~25 bytes). Only relative magnitudes matter — the estimate
/// ranks jobs, it never changes results.
fn estimate_gates(spec: &CircuitSpec) -> f64 {
    match spec {
        CircuitSpec::Suite(name) => {
            benchmarks::suite().iter().find(|e| e.name == name).map_or(1000.0, |e| e.gates as f64)
        }
        CircuitSpec::File(path) => {
            std::fs::metadata(path).map_or(1000.0, |m| (m.len() as f64 / 25.0).max(1.0))
        }
    }
}

/// Relative per-gate cost weight of a backend, normalized to the packed
/// engine. The dominant term is stream passes per fault: the scalar
/// engine runs one fault per pass where packed64 runs 63; the sharded
/// engine runs packed64's pass split across `t` threads.
fn backend_weight(backend: Backend) -> f64 {
    match backend {
        Backend::Packed => 1.0,
        Backend::Scalar => 63.0,
        Backend::Sharded { threads } => 1.0 / resolve_threads(threads) as f64,
    }
}

/// The stable chaos/injection key of a job: every attempt of the same
/// matrix point maps to the same key, across runs and processes.
fn job_key(job: &JobSpec) -> String {
    format!("job:{}:{}:{}:{}", job.circuit.label(), job.backend_label(), job.scheme.label, job.seed)
}

/// Whether a retry could plausibly clear this failure: transient
/// artifact failures (the cache released their slot) and
/// interrupted/timed-out I/O. Parse errors, config errors and
/// simulation mismatches are permanent.
fn is_transient(e: &BatchError) -> bool {
    match e {
        BatchError::Artifact { transient, .. } => *transient,
        BatchError::Io(io) | BatchError::Bist(BistError::Io(io)) => matches!(
            io.kind(),
            std::io::ErrorKind::Interrupted
                | std::io::ErrorKind::WouldBlock
                | std::io::ErrorKind::TimedOut
        ),
        _ => false,
    }
}

/// The human-readable payload of a caught panic.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker job panicked".to_string()
    }
}

/// Runs one job with the full resilience envelope: chaos injection,
/// `catch_unwind` panic quarantine, a per-attempt deadline token, and
/// deterministic retries for transient failures. Exactly one of
/// `pool.panics` / `pool.timeouts` is bumped for a quarantined/expired
/// job; `pool.retries` counts every re-attempt.
#[allow(clippy::too_many_arguments)]
fn run_job_isolated(
    cache: &ArtifactCache,
    campaign: &Campaign,
    job: &JobSpec,
    obs: &Obs,
    config: &EngineConfig,
    chaos: Option<&FaultPlan>,
    panics: &bist_obs::CounterHandle,
    retries: &bist_obs::CounterHandle,
    timeouts: &bist_obs::CounterHandle,
) -> Result<SessionReport, JobFailure> {
    let key = job_key(job);
    let max_attempts = config.retry.max_attempts.max(1);
    let mut attempt = 0;
    loop {
        attempt += 1;
        let token = config.deadline.map(|d| CancelToken::with_deadline(Instant::now() + d));
        let attempt_obs = match &token {
            Some(t) => obs.with_cancel(t.clone()),
            None => obs.clone(),
        };
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(plan) = chaos {
                if let Some(delay) = plan.delay_for(&key) {
                    std::thread::sleep(delay);
                }
                if plan.should_panic(&key) {
                    panic!("injected panic at `{key}`");
                }
                if let Some(message) = plan.transient_error(&key) {
                    return Err(BatchError::Artifact {
                        artifact: format!("job `{key}`"),
                        message,
                        transient: true,
                    });
                }
            }
            run_job(cache, campaign, job, &attempt_obs)
        }));
        let error = match caught {
            Err(payload) => {
                // Quarantine: the worker survives, the job is a typed
                // failure. Panics never retry — the job's state is
                // unknown.
                panics.inc();
                return Err(JobFailure {
                    kind: FailureKind::Panicked,
                    message: panic_message(payload.as_ref()),
                    attempts: attempt,
                });
            }
            Ok(Ok(report)) => return Ok(report),
            Ok(Err(e)) => e,
        };
        // An expired deadline classifies as a timeout regardless of how
        // the error surfaced (the sweep's cooperative Cancelled error,
        // or any failure racing the expiry).
        if token.as_ref().is_some_and(|t| t.kind() == Some(CancelKind::DeadlineExpired)) {
            timeouts.inc();
            return Err(JobFailure {
                kind: FailureKind::TimedOut,
                message: error.to_string(),
                attempts: attempt,
            });
        }
        let transient = is_transient(&error);
        if transient && attempt < max_attempts {
            retries.inc();
            // Deterministic linear backoff: attempt k sleeps backoff×k.
            std::thread::sleep(config.retry.backoff * u32::try_from(attempt).unwrap_or(u32::MAX));
            continue;
        }
        return Err(JobFailure {
            kind: if transient { FailureKind::Transient } else { FailureKind::Permanent },
            message: error.to_string(),
            attempts: attempt,
        });
    }
}

/// Runs one job through the [`Session`] facade over the shared cache.
/// The artifact-assembly phase gets its own `job.artifacts_us` span so
/// per-job execute time reconciles against the session's stage spans.
fn run_job(
    cache: &ArtifactCache,
    campaign: &Campaign,
    job: &JobSpec,
    obs: &Obs,
) -> Result<SessionReport, BatchError> {
    let span = obs.span("job.artifacts_us", format!("job={}", job.id));
    let artifacts = cache.artifacts_for(&job.circuit, job.seed, campaign.tgen_config())?;
    drop(span);
    Session::builder()
        .with_artifacts(artifacts)
        .backend(job.backend)
        .ns(job.scheme.ns.clone())
        .postprocess(job.scheme.postprocess)
        .seed(job.seed)
        .verify(campaign.verifies())
        .obs(obs.clone())
        .run()
        .map_err(BatchError::Bist)
}

/// Flattens one outcome into the sink/record form.
fn record_of(outcome: &JobOutcome) -> JobRecord {
    let spec = &outcome.spec;
    let base = JobRecord {
        job: spec.id,
        circuit: spec.circuit.label(),
        backend: spec.backend_label(),
        scheme: spec.scheme.label.clone(),
        seed: spec.seed,
        status: JobStatus::Ok,
        seconds: outcome.seconds,
        queue_seconds: outcome.queue_seconds,
        exec_seconds: outcome.exec_seconds,
        metrics: None,
        error: None,
    };
    match &outcome.result {
        Ok(report) => {
            let best = report.best();
            let (scheme_cost, monolithic_cost) = report.memory_costs();
            JobRecord {
                metrics: Some(JobMetrics {
                    engine: report.backend_name().to_string(),
                    faults_total: report.faults_total(),
                    faults_detected: report.coverage().detected_count(),
                    t0_len: report.t0().len(),
                    n: best.n,
                    set_count: best.after.count,
                    total_len: best.after.total_len,
                    max_len: best.after.max_len,
                    applied_test_len: best.applied_test_len(),
                    loaded_fraction: report.loaded_fraction(),
                    scheme_data_bits: scheme_cost.data_bits,
                    monolithic_data_bits: monolithic_cost.data_bits,
                    gates_removed: 0,
                    verified: report.verified(),
                }),
                ..base
            }
        }
        Err(failure) => {
            JobRecord { status: JobStatus::Failed, error: Some(failure.to_string()), ..base }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::MemorySink;
    use subseq_bist::tgen::TgenConfig;
    use subseq_bist::Backend;

    fn tiny_tgen() -> TgenConfig {
        TgenConfig::new().max_length(24).compaction_budget(20)
    }

    #[test]
    fn engine_runs_a_small_matrix_and_streams_records() {
        let campaign = Campaign::new()
            .suite_circuits(["s27"])
            .backends([Backend::Packed, Backend::Scalar])
            .seeds([1, 2])
            .ns(vec![1])
            .tgen(tiny_tgen());
        let mut sink = MemorySink::new();
        let mut sinks: [&mut dyn ReportSink; 1] = [&mut sink];
        let outcome = CampaignEngine::new().threads(2).run(&campaign, &mut sinks).unwrap();
        assert_eq!(outcome.summary.jobs_total, 4);
        assert_eq!(outcome.summary.jobs_ok, 4);
        assert_eq!(outcome.summary.jobs_skipped, 0);
        assert_eq!(sink.records.len(), 4);
        // Outcomes come back in matrix order regardless of completion.
        let ids: Vec<usize> = outcome.outcomes.iter().map(|o| o.spec.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        // One parse + one collapse total; T0 computed once per seed.
        assert_eq!(outcome.cache.circuit_misses, 1);
        assert_eq!(outcome.cache.fault_misses, 1);
        assert_eq!(outcome.cache.t0_misses, 2);
        assert_eq!(outcome.cache.circuit_hits, 3);
        // report() resolves by matrix id. Jobs 0/1 share seed 1's cached
        // T0 (coverage equality would be tautological), but Procedure 1
        // re-simulates expansions with each job's own engine — so equal
        // selections really do exercise packed-vs-scalar agreement.
        let a = outcome.report(0).unwrap();
        let b = outcome.report(1).unwrap();
        assert_eq!(a.backend_name(), "packed64");
        assert_eq!(b.backend_name(), "scalar");
        assert_eq!(a.best().after.total_len, b.best().after.total_len);
        assert_eq!(a.best().after.max_len, b.best().after.max_len);
    }

    #[test]
    fn failing_job_cancels_unless_keep_going() {
        let campaign =
            Campaign::new().suite_circuits(["nope", "s27"]).ns(vec![1]).tgen(tiny_tgen());
        // Default: first error cancels and surfaces.
        let err = CampaignEngine::new().threads(1).run(&campaign, &mut []).unwrap_err();
        match &err {
            BatchError::JobFailed { circuit, message, .. } => {
                assert_eq!(circuit, "nope");
                assert!(message.contains("unknown suite circuit"), "{message}");
            }
            other => panic!("expected JobFailed, got {other:?}"),
        }
        // keep_going: the failure is recorded, the rest still runs.
        let mut sink = MemorySink::new();
        let mut sinks: [&mut dyn ReportSink; 1] = [&mut sink];
        let outcome =
            CampaignEngine::new().threads(1).keep_going(true).run(&campaign, &mut sinks).unwrap();
        assert_eq!(outcome.summary.jobs_ok, 1);
        assert_eq!(outcome.summary.jobs_failed, 1);
        assert_eq!(sink.records.len(), 2);
        assert!(sink.records.iter().any(|r| r.status == JobStatus::Failed));
    }

    #[test]
    fn cancellation_skips_queued_jobs() {
        // One worker, failing first job, long tail: everything after the
        // failure is drained as skipped (the exact count depends on
        // timing only through the already-dequeued job).
        let campaign = Campaign::new()
            .suite_circuits(["nope", "s27", "s27", "s27"])
            .seeds([1, 2])
            .ns(vec![1])
            .tgen(tiny_tgen());
        let err = CampaignEngine::new().threads(1).queue_depth(1).run(&campaign, &mut []);
        assert!(err.is_err());
    }

    #[test]
    fn plan_orders_jobs_by_decreasing_cost() {
        // a5378 (5378 gates) must outrank s27 (10 gates); within a
        // circuit, the scalar engine outranks packed which outranks a
        // two-thread sharded engine.
        let campaign = Campaign::new()
            .suite_circuits(["s27", "a5378"])
            .backends([Backend::Sharded { threads: 2 }, Backend::Packed, Backend::Scalar])
            .ns(vec![1])
            .tgen(tiny_tgen());
        let plan = CampaignEngine::new().plan(&campaign).unwrap();
        assert_eq!(plan.len(), 6);
        // Most expensive first: the big analog under the scalar engine.
        assert_eq!(plan[0].circuit.key(), "a5378", "{plan:?}");
        assert_eq!(plan[0].backend_label(), "scalar");
        // Cheapest last: s27 on the sharded engine.
        assert_eq!(plan[5].circuit.key(), "s27", "{plan:?}");
        assert_eq!(plan[5].backend_label(), "sharded:2");
        // Within each circuit: scalar, then packed, then sharded.
        for key in ["a5378", "s27"] {
            let labels: Vec<String> = plan
                .iter()
                .filter(|j| j.circuit.key() == key)
                .map(JobSpec::backend_label)
                .collect();
            assert_eq!(labels, ["scalar", "packed", "sharded:2"], "{plan:?}");
        }
        // Matrix ids are untouched by scheduling.
        let mut ids: Vec<usize> = plan.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn plan_breaks_cost_ties_by_matrix_id() {
        let campaign =
            Campaign::new().suite_circuits(["s27"]).seeds([1, 2, 3]).ns(vec![1]).tgen(tiny_tgen());
        let plan = CampaignEngine::new().plan(&campaign).unwrap();
        let ids: Vec<usize> = plan.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![0, 1, 2], "equal-cost jobs keep matrix order");
    }

    #[test]
    fn summary_and_reports_are_independent_of_dispatch_order() {
        // The same campaign run with different worker counts (hence
        // different completion interleavings over the cost-ordered
        // schedule) must produce identical outcomes and identical
        // summaries up to wall/job timing.
        let campaign = Campaign::new()
            .suite_circuits(["s27", "a298"])
            .backends([Backend::Packed, Backend::Scalar])
            .seeds([1])
            .ns(vec![1])
            .tgen(tiny_tgen());
        let mut summaries = Vec::new();
        for threads in [1, 3] {
            let mut sink = MemorySink::new();
            let mut sinks: [&mut dyn ReportSink; 1] = [&mut sink];
            let outcome =
                CampaignEngine::new().threads(threads).run(&campaign, &mut sinks).unwrap();
            // Outcomes come back in matrix order regardless of schedule.
            let ids: Vec<usize> = outcome.outcomes.iter().map(|o| o.spec.id).collect();
            assert_eq!(ids, vec![0, 1, 2, 3]);
            summaries.push(outcome.summary);
        }
        let (a, b) = (&summaries[0], &summaries[1]);
        assert_eq!(a.jobs_total, b.jobs_total);
        assert_eq!(a.jobs_ok, b.jobs_ok);
        assert_eq!(a.circuits.len(), b.circuits.len());
        for (la, lb) in a.circuits.iter().zip(&b.circuits) {
            assert_eq!(la.label, lb.label);
            assert_eq!(la.jobs, lb.jobs);
            assert!((la.mean_coverage - lb.mean_coverage).abs() < 1e-12);
            assert!((la.mean_loaded_fraction - lb.mean_loaded_fraction).abs() < 1e-12);
            assert!((la.mean_storage_ratio - lb.mean_storage_ratio).abs() < 1e-12);
        }
        for (la, lb) in a.backends.iter().zip(&b.backends) {
            assert_eq!(la.label, lb.label);
            assert_eq!(la.jobs, lb.jobs);
        }
    }

    #[test]
    fn backend_weights_rank_sensibly() {
        assert!(backend_weight(Backend::Scalar) > backend_weight(Backend::Packed));
        // One thread runs packed's pass.
        assert_eq!(
            backend_weight(Backend::Packed),
            backend_weight(Backend::Sharded { threads: 1 })
        );
        assert!(
            backend_weight(Backend::Sharded { threads: 1 })
                > backend_weight(Backend::Sharded { threads: 4 })
        );
        assert!(backend_weight(Backend::Sharded { threads: 0 }) > 0.0);
        // Unknown suite names and missing files fall back to a positive
        // default instead of panicking.
        assert!(estimate_gates(&CircuitSpec::Suite("nope".into())) > 0.0);
        assert!(estimate_gates(&CircuitSpec::File("/no/such/file.bench".into())) > 0.0);
    }

    #[test]
    fn zero_queue_depth_is_a_typed_error_not_a_silent_clamp() {
        // The builder keeps the caller's value as written…
        let engine = CampaignEngine::new().queue_depth(0);
        assert_eq!(engine.config.queue_depth, 0, "no silent rewrite");
        // …and the run surfaces it as a configuration error instead of
        // quietly running with depth 1.
        let campaign = Campaign::new().suite_circuits(["s27"]).ns(vec![1]).tgen(tiny_tgen());
        let err = engine.run(&campaign, &mut []).unwrap_err();
        match err {
            BatchError::Config(msg) => assert!(msg.contains("queue_depth"), "{msg}"),
            other => panic!("expected Config error, got {other:?}"),
        }
        let cfg = EngineConfig::default();
        assert_eq!(cfg.threads, 0);
        assert!(!cfg.keep_going);
        assert_eq!(cfg.deadline, None);
        assert_eq!(cfg.retry.max_attempts, 1, "no retries by default");
        assert_eq!(cfg.cache_policy, CachePolicy::unbounded());
    }

    #[test]
    fn resolve_threads_is_the_single_auto_fallback() {
        assert!(resolve_threads(0) >= 1, "auto resolves to at least one core");
        assert_eq!(resolve_threads(3), 3, "explicit counts pass through");
        // The scheduler's sharded-backend weight uses the same fallback,
        // so "auto" cost estimates agree with the pool's "auto" size.
        let auto = resolve_threads(0) as f64;
        let weight = backend_weight(Backend::Sharded { threads: 0 });
        assert!((weight - 1.0 / auto).abs() < 1e-12);
    }

    #[test]
    fn shared_cache_is_reused_across_runs_and_engines() {
        let campaign =
            Campaign::new().suite_circuits(["s27"]).seeds([1]).ns(vec![1]).tgen(tiny_tgen());
        let obs = Obs::noop();
        let cache =
            Arc::new(ArtifactCache::with_config(&obs, crate::CachePolicy::unbounded(), None));
        let first = CampaignEngine::new()
            .threads(1)
            .shared_cache(Arc::clone(&cache))
            .run(&campaign, &mut [])
            .unwrap();
        assert_eq!(first.cache.circuit_misses, 1);
        assert_eq!(first.cache.t0_misses, 1);
        // A different engine, same cache: everything is warm, so the
        // second campaign records hits where the first recorded misses.
        let second = CampaignEngine::new()
            .threads(1)
            .shared_cache(Arc::clone(&cache))
            .run(&campaign, &mut [])
            .unwrap();
        assert_eq!(second.cache.circuit_misses, 1, "no new parse");
        assert_eq!(second.cache.t0_misses, 1, "no new T0 generation");
        assert!(second.cache.circuit_hits > first.cache.circuit_hits);
        assert_eq!(first.summary.digest(), second.summary.digest(), "warm == cold results");
    }

    #[test]
    fn transient_failures_retry_and_heal() {
        use crate::faultpoint::{FaultPoint, FaultSite};

        // One injected transient error per job key: with retries enabled
        // the campaign completes cleanly (no keep_going needed), and the
        // retry counter records exactly the injected failures.
        let campaign =
            Campaign::new().suite_circuits(["s27"]).seeds([1, 2]).ns(vec![1]).tgen(tiny_tgen());
        let plan = Arc::new(
            crate::faultpoint::FaultPlan::new(11)
                .point(FaultPoint::new(FaultSite::JobTransient, "s27")),
        );
        let registry = Arc::new(bist_obs::Registry::new());
        let outcome = CampaignEngine::new()
            .threads(2)
            .retry(RetryPolicy { max_attempts: 3, backoff: Duration::from_millis(1) })
            .chaos(Arc::clone(&plan))
            .obs(Obs::with_registry(Arc::clone(&registry)))
            .run(&campaign, &mut [])
            .unwrap();
        assert_eq!(outcome.summary.jobs_ok, 2);
        assert_eq!(outcome.summary.jobs_failed, 0);
        assert_eq!(plan.injected(), 2, "one transient per job key");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("pool.retries"), Some(2));
        assert_eq!(snap.counter("pool.panics"), Some(0));
        assert_eq!(snap.counter("pool.timeouts"), Some(0));
    }

    #[test]
    fn exhausted_retries_surface_a_transient_failure() {
        use crate::faultpoint::{FaultPoint, FaultSite};

        // Three injected transients per key but only two attempts: the
        // job fails with the Transient taxonomy and its attempt count.
        let campaign = Campaign::new().suite_circuits(["s27"]).ns(vec![1]).tgen(tiny_tgen());
        let plan = Arc::new(
            crate::faultpoint::FaultPlan::new(2)
                .point(FaultPoint::new(FaultSite::JobTransient, "").fires(3)),
        );
        let outcome = CampaignEngine::new()
            .threads(1)
            .keep_going(true)
            .retry(RetryPolicy { max_attempts: 2, backoff: Duration::from_millis(1) })
            .chaos(plan)
            .run(&campaign, &mut [])
            .unwrap();
        assert_eq!(outcome.summary.jobs_failed, 1);
        let failure = outcome.outcomes[0].result.as_ref().unwrap_err();
        assert_eq!(failure.kind, FailureKind::Transient);
        assert_eq!(failure.attempts, 2);
        assert!(failure.to_string().contains("transient"), "{failure}");
    }

    #[test]
    fn panics_are_quarantined_and_counted() {
        use crate::faultpoint::{FaultPoint, FaultSite};

        // A panicking job is caught by the worker, typed as Panicked and
        // (under keep_going) does not stop the rest of the campaign.
        let campaign =
            Campaign::new().suite_circuits(["s27"]).seeds([1, 2]).ns(vec![1]).tgen(tiny_tgen());
        let plan = Arc::new(
            crate::faultpoint::FaultPlan::new(5).point(FaultPoint::new(FaultSite::JobPanic, ":1")),
        );
        let registry = Arc::new(bist_obs::Registry::new());
        let outcome = CampaignEngine::new()
            .threads(1)
            .keep_going(true)
            .chaos(plan)
            .obs(Obs::with_registry(Arc::clone(&registry)))
            .run(&campaign, &mut [])
            .unwrap();
        assert_eq!(outcome.summary.jobs_ok, 1);
        assert_eq!(outcome.summary.jobs_failed, 1);
        let failure = outcome
            .outcomes
            .iter()
            .find_map(|o| o.result.as_ref().err())
            .expect("one job panicked");
        assert_eq!(failure.kind, FailureKind::Panicked);
        assert!(failure.message.contains("injected panic"), "{}", failure.message);
        assert_eq!(registry.snapshot().counter("pool.panics"), Some(1));
        // Without keep_going the panic is the campaign error.
        let plan = Arc::new(
            crate::faultpoint::FaultPlan::new(5).point(FaultPoint::new(FaultSite::JobPanic, ":1")),
        );
        let err = CampaignEngine::new().threads(1).chaos(plan).run(&campaign, &mut []).unwrap_err();
        assert!(matches!(err, BatchError::JobFailed { .. }), "{err}");
    }

    #[test]
    fn expired_deadlines_time_jobs_out() {
        use crate::faultpoint::{FaultPoint, FaultSite};

        // An injected delay far past the per-job deadline: the attempt's
        // token expires, the sweep (or the post-attempt check) observes
        // it, and the job is typed TimedOut — never retried.
        let campaign = Campaign::new().suite_circuits(["s27"]).ns(vec![1]).tgen(tiny_tgen());
        let plan = Arc::new(
            crate::faultpoint::FaultPlan::new(9)
                .point(FaultPoint::new(FaultSite::JobDelay, "").delay(Duration::from_millis(120))),
        );
        let registry = Arc::new(bist_obs::Registry::new());
        let outcome = CampaignEngine::new()
            .threads(1)
            .keep_going(true)
            .deadline(Duration::from_millis(10))
            .retry(RetryPolicy { max_attempts: 3, backoff: Duration::from_millis(1) })
            .chaos(plan)
            .obs(Obs::with_registry(Arc::clone(&registry)))
            .run(&campaign, &mut [])
            .unwrap();
        assert_eq!(outcome.summary.jobs_failed, 1);
        let failure = outcome.outcomes[0].result.as_ref().unwrap_err();
        assert_eq!(failure.kind, FailureKind::TimedOut);
        assert_eq!(failure.attempts, 1, "timeouts never retry");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("pool.timeouts"), Some(1));
        assert_eq!(snap.counter("pool.retries"), Some(0));
    }

    #[test]
    fn resumed_run_skips_replayed_jobs_and_merges_the_summary() {
        let campaign = Campaign::new()
            .suite_circuits(["s27", "a298"])
            .backends([Backend::Packed, Backend::Scalar])
            .seeds([1])
            .ns(vec![1])
            .tgen(tiny_tgen());
        let full = CampaignEngine::new().threads(2).run(&campaign, &mut []).unwrap();
        let full_records: Vec<JobRecord> = {
            let mut sink = MemorySink::new();
            let mut sinks: [&mut dyn ReportSink; 1] = [&mut sink];
            CampaignEngine::new().threads(2).run(&campaign, &mut sinks).unwrap();
            sink.records
        };
        // Replay half the jobs (ids 0 and 2) as already completed.
        let replayed: Vec<JobRecord> =
            full_records.iter().filter(|r| r.job % 2 == 0).cloned().collect();
        assert_eq!(replayed.len(), 2);
        let mut sink = MemorySink::new();
        let mut sinks: [&mut dyn ReportSink; 1] = [&mut sink];
        let resumed =
            CampaignEngine::new().threads(2).run_resumed(&campaign, &mut sinks, &replayed).unwrap();
        // Only the missing jobs executed and streamed.
        assert_eq!(resumed.outcomes.len(), 2);
        assert!(resumed.outcomes.iter().all(|o| o.spec.id % 2 == 1));
        assert_eq!(sink.records.len(), 2);
        // The merged summary matches the uninterrupted run in every
        // deterministic field.
        assert_eq!(resumed.summary.jobs_total, full.summary.jobs_total);
        assert_eq!(resumed.summary.jobs_ok, full.summary.jobs_ok);
        assert_eq!(resumed.summary.jobs_skipped, 0);
        for (a, b) in resumed.summary.circuits.iter().zip(&full.summary.circuits) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.jobs, b.jobs);
            assert!((a.mean_coverage - b.mean_coverage).abs() < 1e-12);
            assert!((a.mean_loaded_fraction - b.mean_loaded_fraction).abs() < 1e-12);
        }
        // A record from a different campaign shape is ignored.
        let mut foreign = replayed[0].clone();
        foreign.job = 999;
        let outcome =
            CampaignEngine::new().threads(1).run_resumed(&campaign, &mut [], &[foreign]).unwrap();
        assert_eq!(outcome.outcomes.len(), 4, "unknown job id cannot mark anything done");
    }
}
