//! # bist-obs — zero-dependency telemetry for the subseq-bist stack
//!
//! One uniform observability substrate for every layer of the
//! workspace: atomic [`Counter`]s and [`Gauge`]s, log₂-bucketed
//! [`Histogram`]s (count/sum/min/max/p50/p90/p99), an RAII [`Span`]
//! timer feeding named histograms and an optional trace-event buffer,
//! and a thread-safe [`Registry`] whose [`MetricsSnapshot`] is
//! stable-sorted so every export is deterministic.
//!
//! There are no dependencies. [`json`] holds the workspace's one JSON
//! grammar (a value tree, a strict depth-capped parser and the string
//! escaper) that every JSON reader and writer of the stack shares; the
//! exporters in [`export`] render a human-readable text table, a
//! metrics JSON document and a trace JSONL stream, each paired with a
//! strict schema validator built on it.
//!
//! ## The `Obs` handle
//!
//! Instrumented layers take an [`Obs`] — a cheap clonable handle that
//! is either *active* (backed by a shared [`Registry`]) or a *no-op
//! sink*. The no-op case is a `None` branch, not a trait object: hot
//! paths pre-resolve [`CounterHandle`]/[`HistogramHandle`]s once per
//! sweep and pay a single predictable branch per batch of updates, so
//! uninstrumented benchmarks (`detect/tape/*`) are unaffected.
//!
//! ```
//! use bist_obs::Obs;
//!
//! let obs = Obs::active();
//! obs.counter_add("cache.tape.hit", 1);
//! let span = obs.span("session.fault_sim_us", "circuit=s27");
//! // ... work ...
//! let dur_us = span.end();
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("cache.tape.hit"), Some(1));
//! assert_eq!(snap.histogram("session.fault_sim_us").unwrap().count, 1);
//! assert!(Obs::noop().snapshot().is_empty());
//! # let _ = dur_us;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
pub mod json;
mod metric;
mod registry;

pub use metric::{bucket_of, Counter, Gauge, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{MetricsSnapshot, Registry, Span, TraceEvent};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Why a [`CancelToken`] reports itself cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelKind {
    /// Someone called [`CancelToken::cancel`].
    Requested,
    /// The token's deadline passed.
    DeadlineExpired,
}

/// A cheap clonable cooperative-cancellation token: an atomic flag plus
/// an optional wall-clock deadline. Long-running computations poll
/// [`is_cancelled`](Self::is_cancelled) at natural boundaries (the fault
/// sweeps check once per chunk) and unwind with a typed error, so a
/// timed-out or abandoned job releases its worker instead of running to
/// completion. Clones share one flag; riding the [`Obs`] handle keeps
/// the token out of every intermediate API signature.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<CancelInner>,
}

#[derive(Debug, Default)]
struct CancelInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline; cancels only via [`cancel`](Self::cancel).
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A token that additionally reports cancelled once `deadline`
    /// passes.
    #[must_use]
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(CancelInner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// Requests cancellation (idempotent; visible to every clone).
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the token is cancelled — explicitly, or by its deadline
    /// having passed.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.kind().is_some()
    }

    /// Why the token is cancelled, or `None` if it is not. An explicit
    /// [`cancel`](Self::cancel) wins over a simultaneously expired
    /// deadline.
    #[must_use]
    pub fn kind(&self) -> Option<CancelKind> {
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Some(CancelKind::Requested);
        }
        match self.inner.deadline {
            Some(deadline) if Instant::now() >= deadline => Some(CancelKind::DeadlineExpired),
            _ => None,
        }
    }

    /// The deadline, if the token has one.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }
}

/// A cheap clonable telemetry handle: either active (sharing a
/// [`Registry`]) or a no-op sink. See the crate docs. The handle can
/// also carry a [`CancelToken`], giving instrumented layers a
/// cooperative-cancellation channel without any new plumbing.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    registry: Option<Arc<Registry>>,
    cancel: Option<CancelToken>,
}

impl Obs {
    /// The no-op sink: every operation is a `None` branch.
    #[must_use]
    pub fn noop() -> Self {
        Obs { registry: None, cancel: None }
    }

    /// An active handle over a fresh registry.
    #[must_use]
    pub fn active() -> Self {
        Obs { registry: Some(Arc::new(Registry::new())), cancel: None }
    }

    /// An active handle over an existing registry.
    #[must_use]
    pub fn with_registry(registry: Arc<Registry>) -> Self {
        Obs { registry: Some(registry), cancel: None }
    }

    /// This handle with `token` attached: clones passed down the stack
    /// all observe the same cancellation state. The registry (if any) is
    /// shared unchanged.
    #[must_use]
    pub fn with_cancel(&self, token: CancelToken) -> Self {
        Obs { registry: self.registry.clone(), cancel: Some(token) }
    }

    /// The attached cancel token, if any.
    #[must_use]
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Whether an attached token reports cancelled (`false` without a
    /// token).
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(CancelToken::is_cancelled)
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.registry.is_some()
    }

    /// The backing registry, when active.
    #[must_use]
    pub fn registry(&self) -> Option<&Arc<Registry>> {
        self.registry.as_ref()
    }

    /// Adds `n` to the counter named `name`.
    #[inline]
    pub fn counter_add(&self, name: &str, n: u64) {
        if let Some(r) = &self.registry {
            r.counter(name).add(n);
        }
    }

    /// Overwrites the gauge named `name`.
    #[inline]
    pub fn gauge_set(&self, name: &str, v: i64) {
        if let Some(r) = &self.registry {
            r.gauge(name).set(v);
        }
    }

    /// Adds `n` (may be negative) to the gauge named `name`.
    #[inline]
    pub fn gauge_add(&self, name: &str, n: i64) {
        if let Some(r) = &self.registry {
            r.gauge(name).add(n);
        }
    }

    /// Records one observation into the histogram named `name`.
    #[inline]
    pub fn record(&self, name: &str, v: u64) {
        if let Some(r) = &self.registry {
            r.histogram(name).record(v);
        }
    }

    /// Starts an RAII span recording into the histogram named `name`
    /// (and the trace buffer when tracing is enabled). `labels` is
    /// free-form `key=value` context for the trace row.
    #[must_use]
    pub fn span(&self, name: &str, labels: impl Into<String>) -> Span {
        match &self.registry {
            Some(r) => Span::start(Arc::clone(r), name.to_string(), labels.into()),
            None => Span::noop(),
        }
    }

    /// Pre-resolves the counter named `name` for hot paths (one branch
    /// per [`CounterHandle::add`], no name lookup).
    #[must_use]
    pub fn counter(&self, name: &str) -> CounterHandle {
        CounterHandle(self.registry.as_ref().map(|r| r.counter(name)))
    }

    /// Pre-resolves the gauge named `name` for hot paths.
    #[must_use]
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        GaugeHandle(self.registry.as_ref().map(|r| r.gauge(name)))
    }

    /// Pre-resolves the histogram named `name` for hot paths.
    #[must_use]
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        HistogramHandle(self.registry.as_ref().map(|r| r.histogram(name)))
    }

    /// A deterministic snapshot (empty for the no-op sink).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.as_ref().map(|r| r.snapshot()).unwrap_or_default()
    }
}

/// A pre-resolved counter; no-op when built from a no-op [`Obs`].
#[derive(Debug, Clone, Default)]
pub struct CounterHandle(Option<Arc<Counter>>);

impl CounterHandle {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        if let Some(c) = &self.0 {
            c.inc();
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.add(n);
        }
    }
}

/// A pre-resolved gauge; no-op when built from a no-op [`Obs`].
#[derive(Debug, Clone, Default)]
pub struct GaugeHandle(Option<Arc<Gauge>>);

impl GaugeHandle {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.0 {
            g.set(v);
        }
    }

    /// Adds `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.add(n);
        }
    }

    /// Subtracts `n`.
    #[inline]
    pub fn sub(&self, n: i64) {
        if let Some(g) = &self.0 {
            g.sub(n);
        }
    }
}

/// A pre-resolved histogram; no-op when built from a no-op [`Obs`].
#[derive(Debug, Clone, Default)]
pub struct HistogramHandle(Option<Arc<Histogram>>);

impl HistogramHandle {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.record(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_records_nothing() {
        let obs = Obs::noop();
        obs.counter_add("c", 1);
        obs.gauge_set("g", 1);
        obs.record("h", 1);
        obs.counter("c").inc();
        obs.gauge("g").add(1);
        obs.histogram("h").record(1);
        assert_eq!(obs.span("s", "").end(), 0);
        assert!(!obs.is_active());
        assert!(obs.snapshot().is_empty());
    }

    #[test]
    fn clones_share_one_registry() {
        let obs = Obs::active();
        let other = obs.clone();
        obs.counter_add("shared", 1);
        other.counter_add("shared", 1);
        let h = other.counter("shared");
        h.inc();
        assert_eq!(obs.snapshot().counter("shared"), Some(3));
    }

    #[test]
    fn default_is_noop() {
        assert!(!Obs::default().is_active());
    }

    /// Pre-resolving a handle registers the metric immediately at its
    /// zero value — so a long-lived service (`subseq-bist serve`) that
    /// resolves its counters and gauges at startup exports them from
    /// its very first `/metrics` render, before anything increments,
    /// and that cold render is schema-valid.
    #[test]
    fn pre_resolved_handles_export_at_zero() {
        let obs = Obs::active();
        let _requests = obs.counter("serve.requests");
        let _pending = obs.gauge("serve.queue.pending");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("serve.requests"), Some(0));
        assert_eq!(snap.gauge("serve.queue.pending"), Some(0));
        let rendered = export::render_json(&snap);
        assert_eq!(export::validate_metrics_json(&rendered), Ok(2));
    }

    #[test]
    fn cancel_tokens_share_state_across_clones() {
        let token = CancelToken::new();
        let other = token.clone();
        assert!(!token.is_cancelled());
        assert_eq!(token.kind(), None);
        other.cancel();
        assert!(token.is_cancelled());
        assert_eq!(token.kind(), Some(CancelKind::Requested));
        assert_eq!(token.deadline(), None);
    }

    #[test]
    fn deadline_tokens_expire() {
        let expired = CancelToken::with_deadline(std::time::Instant::now());
        assert!(expired.is_cancelled());
        assert_eq!(expired.kind(), Some(CancelKind::DeadlineExpired));
        let future = CancelToken::with_deadline(
            std::time::Instant::now() + std::time::Duration::from_secs(3600),
        );
        assert!(!future.is_cancelled());
        assert!(future.deadline().is_some());
        // An explicit cancel wins over the (unexpired) deadline.
        future.cancel();
        assert_eq!(future.kind(), Some(CancelKind::Requested));
    }

    #[test]
    fn obs_carries_a_cancel_token() {
        let obs = Obs::active();
        assert!(obs.cancel_token().is_none());
        assert!(!obs.is_cancelled());
        let token = CancelToken::new();
        let scoped = obs.with_cancel(token.clone());
        // The registry is shared; the token rides only the new handle.
        scoped.counter_add("shared", 1);
        assert_eq!(obs.snapshot().counter("shared"), Some(1));
        assert!(!scoped.is_cancelled());
        token.cancel();
        assert!(scoped.is_cancelled());
        assert!(scoped.cancel_token().is_some());
        assert!(!obs.is_cancelled());
    }
}
