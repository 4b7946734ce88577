//! In-memory spans recorded by the benchmark's own code around its calls
//! into each layer, and the self-time arithmetic over them.
//!
//! Every span has a name, a start, an end and the span that caused it.
//! Load threads record into their own [`SpanLog`] (no shared lock on the
//! measured path); the logs are merged and written out when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Identifier of a span; 0 means "no parent".
pub type SpanId = u64;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique within a trace.
    pub id: SpanId,
    /// The span that caused this one (0 for the root).
    pub parent: SpanId,
    /// Layer-qualified name, e.g. `api.submit`.
    pub name: &'static str,
    /// What the spans of one request share: the `EventId` of the op (0
    /// when the span belongs to no single event).
    pub key: u64,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace epoch.
    pub end_ns: u64,
}

impl Span {
    /// Length of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans one thread records.  Ids are drawn from a range private to
/// the log (`lane`), so logs merge without renumbering.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: SpanId,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log whose ids start at `lane << 40`; lanes are numbered from 1.
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Self {
            epoch,
            next_id: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    /// Reserves an id for a span whose end is not known yet, so children
    /// can name it as their parent before it is recorded.
    pub fn reserve(&mut self) -> SpanId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Records a finished span under a reserved id.
    pub fn record_as(
        &mut self,
        id: SpanId,
        parent: SpanId,
        name: &'static str,
        key: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            key,
            start_ns: self.since_epoch(start),
            end_ns: self.since_epoch(end),
        });
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        parent: SpanId,
        name: &'static str,
        key: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.reserve();
        self.record_as(id, parent, name, key, start, end);
        id
    }

    /// Times `f` as a span and returns its result.
    pub fn time<T>(&mut self, parent: SpanId, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.record(parent, name, 0, start, Instant::now());
        out
    }

    /// The spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover.  Children that overlap one another (events
/// in flight at once) are counted once, and a child is clipped to its
/// parent's interval.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<SpanId, u64> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if span.parent != 0 {
            children
                .entry(span.parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .map(|span| {
            let covered = children
                .get_mut(&span.id)
                .map(|kids| covered_ns(kids, span.start_ns, span.end_ns))
                .unwrap_or(0);
            (span.id, span.duration_ns() - covered)
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Per-name totals of a trace: span count, summed duration and summed self
/// time, in name order.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for span in spans {
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += selfs[&span.id];
    }
    totals
}

/// The trace as a JSON document.
pub fn to_json(workload: &str, spans: &[Span]) -> Json {
    let selfs = self_times_ns(spans);
    Json::object([
        ("workload", Json::from(workload)),
        ("time_unit", Json::from("ns since the trace epoch")),
        (
            "spans",
            Json::Array(
                spans
                    .iter()
                    .map(|s| {
                        Json::object([
                            ("id", Json::from(s.id)),
                            ("parent", Json::from(s.parent)),
                            ("name", Json::from(s.name)),
                            ("key", Json::from(s.key)),
                            ("start", Json::from(s.start_ns)),
                            ("end", Json::from(s.end_ns)),
                            ("self", Json::from(selfs[&s.id])),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            key: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 50, 70),
            span(4, 2, 12, 20),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs[&1], 60);
        assert_eq!(selfs[&2], 12);
        assert_eq!(selfs[&3], 20);
        assert_eq!(selfs[&4], 8);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Two ops in flight at once under one root, one of which outlives
        // it: the root's self time is what no child covers.
        let spans = vec![
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 1, 40, 80),
            span(4, 1, 90, 150),
            span(5, 1, 20, 30),
        ];
        assert_eq!(self_times_ns(&spans)[&1], 100 - 70 - 10);
    }

    #[test]
    fn logs_of_different_lanes_never_share_an_id() {
        let epoch = Instant::now();
        let mut a = SpanLog::new(epoch, 1);
        let mut b = SpanLog::new(epoch, 2);
        let root = a.reserve();
        let now = Instant::now();
        let child = a.record(root, "child", 7, now, now);
        a.record_as(root, 0, "root", 0, epoch, Instant::now());
        let other = b.time(root, "other", || 5);
        assert_eq!(other, 5);
        let mut spans = a.into_spans();
        spans.extend(b.into_spans());
        let mut ids: Vec<SpanId> = spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3);
        assert!(spans
            .iter()
            .any(|s| s.id == child && s.parent == root && s.key == 7));
        let totals = totals_by_name(&spans);
        assert_eq!(totals["root"].0, 1);
        assert!(totals["root"].2 <= totals["root"].1);
    }
}
