//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A [`Tracer`] belongs to one thread: [`Tracer::time`] opens a span,
//! runs the closure and closes it, and any span opened inside the closure
//! becomes its child. Spans are kept in memory and written out when the
//! run ends; per-layer self times are derived from them afterwards.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span: times are seconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Layer-qualified name, e.g. `core.procedure1`.
    pub name: &'static str,
    /// Start, seconds since the tracer epoch.
    pub start: f64,
    /// End, seconds since the tracer epoch.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (job, session or served request) the span belongs to.
    pub request: u64,
}

impl SpanRecord {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans on the current thread.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<SpanRecord>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name` for `request`.
    pub fn time<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            let start = self.epoch.elapsed().as_secs_f64();
            spans.push(SpanRecord { name, start, end: start, parent, request });
            spans.len() - 1
        };
        self.open.borrow_mut().push(index);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[index].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.borrow().clone()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are merged first, and
/// children are clipped to the parent).
pub fn self_times(spans: &[SpanRecord]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = span.start;
            for (start, end) in kids {
                let (start, end) = (start.max(cursor), end.min(span.end));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (span.duration() - covered).max(0.0)
        })
        .collect()
}

/// Per-name totals: (inclusive seconds, self seconds, span count).
pub fn by_name(spans: &[SpanRecord]) -> BTreeMap<&'static str, (f64, f64, usize)> {
    let mut out: BTreeMap<&'static str, (f64, f64, usize)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(span.name).or_default();
        entry.0 += span.duration();
        entry.1 += own;
        entry.2 += 1;
    }
    out
}

/// Spans as JSON lines (name, start, end, parent, request).
pub fn to_jsonl(spans: &[SpanRecord]) -> String {
    spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\": \"{}\", \"start\": {}, \"end\": {}, \"parent\": {parent}, \"request\": {}}}\n",
                s.name, s.start, s.end, s.request
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> SpanRecord {
        SpanRecord { name, start, end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0, 10] with children [1, 4] and [5, 9]; the second child
        // has its own child [6, 7].
        let spans = vec![
            span("job", 0.0, 10.0, None),
            span("a", 1.0, 4.0, Some(0)),
            span("b", 5.0, 9.0, Some(0)),
            span("c", 6.0, 7.0, Some(2)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![3.0, 3.0, 3.0, 1.0]);
        // Self times of a tree sum to the root's duration.
        assert!((own.iter().sum::<f64>() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_merged_and_clipped() {
        let spans = vec![
            span("job", 0.0, 10.0, None),
            span("a", 2.0, 6.0, Some(0)),
            span("b", 4.0, 8.0, Some(0)),
            span("c", 9.0, 12.0, Some(0)),
        ];
        // Covered: [2, 8] and [9, 10] = 7 seconds.
        assert!((self_times(&spans)[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let tracer = Tracer::new();
        let value = tracer.time("job", 7, || {
            tracer.time("core.procedure1", 7, || ());
            tracer.time("core.procedure1", 7, || ());
            tracer.time("core.verify", 7, || 42)
        });
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert!(spans[1..].iter().all(|s| s.parent == Some(0) && s.request == 7));
        let totals = by_name(&spans);
        assert_eq!(totals["core.procedure1"].2, 2);
        let self_sum: f64 = self_times(&spans).iter().sum();
        assert!((self_sum - spans[0].duration()).abs() < 1e-9);
        assert_eq!(to_jsonl(&spans).lines().count(), 4);
    }
}
