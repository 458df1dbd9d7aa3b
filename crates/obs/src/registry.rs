//! The thread-safe metric [`Registry`], its deterministic
//! [`MetricsSnapshot`] and the RAII [`Span`] timer.

use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of independently locked name shards. Registration is rare
/// (hot paths hold pre-resolved `Arc`s), so this only has to keep
/// *concurrent first-touch* cheap.
const SHARDS: usize = 8;

#[derive(Debug, Default)]
struct Shard {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// A thread-safe registry of named metrics plus an optional trace-event
/// buffer.
///
/// Metric names are sharded across eight `Mutex<BTreeMap>`s;
/// [`snapshot`](Registry::snapshot) merges the shards into one
/// stable-sorted view, so exports are deterministic regardless of
/// registration order or shard assignment.
///
/// Tracing is off by default (spans then cost one histogram record and
/// never allocate); [`enable_tracing`](Registry::enable_tracing) turns
/// every subsequent [`Span`] into a buffered [`TraceEvent`] as well.
#[derive(Debug)]
pub struct Registry {
    epoch: Instant,
    shards: [Shard; SHARDS],
    tracing: AtomicBool,
    trace: Mutex<Vec<TraceEvent>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry {
            epoch: Instant::now(),
            shards: std::array::from_fn(|_| Shard::default()),
            tracing: AtomicBool::new(false),
            trace: Mutex::new(Vec::new()),
        }
    }
}

/// FNV-1a over the name picks the shard.
fn shard_of(name: &str) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % SHARDS as u64) as usize
}

impl Registry {
    /// A fresh registry; its creation instant is the trace epoch.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// The instant trace timestamps (`ts_us`) are relative to.
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Starts buffering a [`TraceEvent`] per finished span.
    pub fn enable_tracing(&self) {
        self.tracing.store(true, Ordering::Relaxed);
    }

    /// Whether spans currently emit trace events.
    #[must_use]
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    /// The counter named `name`, registering it on first touch.
    #[must_use]
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.shards[shard_of(name)].counters.lock().unwrap();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The gauge named `name`, registering it on first touch.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.shards[shard_of(name)].gauges.lock().unwrap();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// The histogram named `name`, registering it on first touch.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.shards[shard_of(name)].histograms.lock().unwrap();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Appends a trace event (used by [`Span`]; public so layers with
    /// their own timing can emit events too).
    pub fn push_trace(&self, event: TraceEvent) {
        self.trace.lock().unwrap().push(event);
    }

    /// A copy of the buffered trace events, in emission order.
    #[must_use]
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.trace.lock().unwrap().clone()
    }

    /// Microseconds elapsed since the registry epoch.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Merges every shard into one stable-sorted, point-in-time view.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        let mut gauges = BTreeMap::new();
        let mut histograms = BTreeMap::new();
        for shard in &self.shards {
            for (name, c) in shard.counters.lock().unwrap().iter() {
                counters.insert(name.clone(), c.get());
            }
            for (name, g) in shard.gauges.lock().unwrap().iter() {
                gauges.insert(name.clone(), g.get());
            }
            for (name, h) in shard.histograms.lock().unwrap().iter() {
                histograms.insert(name.clone(), h.snapshot());
            }
        }
        MetricsSnapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms.into_iter().collect(),
        }
    }
}

/// A deterministic (name-sorted) point-in-time export of a
/// [`Registry`]. This is the value embedded in campaign summaries and
/// rendered by the exporters in [`crate::export`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The counter named `name`, if present.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The gauge named `name`, if present.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The histogram named `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// True when nothing was ever recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// One finished span: what ran, when it started (µs since the registry
/// epoch) and how long it took.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start time, microseconds since the registry epoch.
    pub ts_us: u64,
    /// Span (= histogram) name.
    pub span: String,
    /// Free-form `key=value` context (may be empty).
    pub labels: String,
    /// Duration in microseconds.
    pub dur_us: u64,
}

/// An RAII timer: started via [`crate::Obs::span`], it records its
/// elapsed microseconds into the histogram of the same name when
/// dropped (or explicitly [`end`](Span::end)ed), and emits a
/// [`TraceEvent`] when the registry has tracing enabled.
///
/// A span from a no-op [`crate::Obs`] never reads the clock.
#[derive(Debug)]
pub struct Span {
    inner: Option<SpanInner>,
}

#[derive(Debug)]
struct SpanInner {
    registry: Arc<Registry>,
    name: String,
    labels: String,
    start: Instant,
}

impl Span {
    /// A span that records nothing.
    #[must_use]
    pub fn noop() -> Self {
        Span { inner: None }
    }

    pub(crate) fn start(registry: Arc<Registry>, name: String, labels: String) -> Self {
        Span { inner: Some(SpanInner { registry, name, labels, start: Instant::now() }) }
    }

    /// Ends the span now, returning its duration in microseconds (0 for
    /// a no-op span).
    pub fn end(mut self) -> u64 {
        self.finish()
    }

    fn finish(&mut self) -> u64 {
        let Some(inner) = self.inner.take() else {
            return 0;
        };
        let dur_us = u64::try_from(inner.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        inner.registry.histogram(&inner.name).record(dur_us);
        if inner.registry.tracing_enabled() {
            let since_epoch = inner.start.saturating_duration_since(inner.registry.epoch);
            inner.registry.push_trace(TraceEvent {
                ts_us: u64::try_from(since_epoch.as_micros()).unwrap_or(u64::MAX),
                span: inner.name,
                labels: inner.labels,
                dur_us,
            });
        }
        dur_us
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_stable_sorted_across_shards() {
        let r = Registry::new();
        // Names chosen to hash into different shards.
        for name in ["zebra", "alpha", "m.mid", "cache.tape.hit", "pool.depth"] {
            r.counter(name).inc();
        }
        let snap = r.snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
        assert_eq!(snap.counter("cache.tape.hit"), Some(1));
        assert_eq!(snap.counter("absent"), None);
    }

    #[test]
    fn same_name_same_instance() {
        let r = Registry::new();
        r.counter("x").add(2);
        r.counter("x").add(3);
        assert_eq!(r.snapshot().counter("x"), Some(5));
        r.gauge("g").set(9);
        r.gauge("g").sub(4);
        assert_eq!(r.snapshot().gauge("g"), Some(5));
    }

    #[test]
    fn spans_record_into_histograms_and_trace() {
        let r = Arc::new(Registry::new());
        r.enable_tracing();
        {
            let _s = Span::start(Arc::clone(&r), "work.us".to_string(), "k=v".to_string());
        }
        let dur = Span::start(Arc::clone(&r), "work.us".to_string(), String::new()).end();
        let snap = r.snapshot();
        let h = snap.histogram("work.us").unwrap();
        assert_eq!(h.count, 2);
        assert!(h.sum >= dur);
        let events = r.trace_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].span, "work.us");
        assert_eq!(events[0].labels, "k=v");
        assert!(events[1].ts_us >= events[0].ts_us);
    }

    #[test]
    fn noop_span_is_inert() {
        assert_eq!(Span::noop().end(), 0);
    }

    #[test]
    fn concurrent_registry_hammer() {
        // Satellite: many threads hitting the same and different names;
        // totals must come out exact.
        let r = Arc::new(Registry::new());
        let threads = 8;
        let per = 1000;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let r = Arc::clone(&r);
                scope.spawn(move || {
                    let shared = r.counter("hammer.shared");
                    let own = r.counter(&format!("hammer.t{t}"));
                    let h = r.histogram("hammer.lat_us");
                    for i in 0..per {
                        shared.inc();
                        own.inc();
                        h.record(i);
                        r.gauge("hammer.depth").add(1);
                        r.gauge("hammer.depth").sub(1);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.counter("hammer.shared"), Some(threads * per));
        for t in 0..threads {
            assert_eq!(snap.counter(&format!("hammer.t{t}")), Some(per));
        }
        let h = snap.histogram("hammer.lat_us").unwrap();
        assert_eq!(h.count, threads * per);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, per - 1);
        assert_eq!(snap.gauge("hammer.depth"), Some(0));
    }
}
