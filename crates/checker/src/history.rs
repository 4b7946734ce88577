//! Execution histories: the raw material of the serializability checker.
//!
//! A [`History`] records, for one run of an AEON application:
//!
//! * per-event *spans* — a logical invocation timestamp taken no later than
//!   the moment the client submitted the event, and a response timestamp
//!   taken no earlier than the moment the client observed its completion;
//! * per-context *operation sequences* — the order in which events read and
//!   wrote each context, as observed inside the context (i.e. under the
//!   context's activation lock, which serializes all conflicting accesses).
//!
//! The timestamps are drawn from a single logical clock, so the real-time
//! ("happened strictly before") relation between events is well defined.
//! Because invocation timestamps are taken *before* submission and response
//! timestamps *after* completion, the recorded spans over-approximate the
//! true spans; the derived real-time order is therefore a subset of the true
//! one, which keeps the checker sound (it never reports a false violation
//! due to timestamping).

use aeon_types::{AccessMode, ContextId, EventId, HistorySink};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Whether an operation observed or modified the context state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// The operation only observed state.
    Read,
    /// The operation modified state.
    Write,
}

impl OpKind {
    /// Two operations conflict when they touch the same context and at least
    /// one of them is a write.
    pub fn conflicts_with(self, other: OpKind) -> bool {
        matches!((self, other), (OpKind::Write, _) | (_, OpKind::Write))
    }
}

/// One recorded access of a context by an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operation {
    /// The event performing the access.
    pub event: EventId,
    /// The context accessed.
    pub context: ContextId,
    /// Read or write.
    pub kind: OpKind,
    /// Logical timestamp at which the access was recorded (monotonic per
    /// context because accesses are recorded under the context lock).
    pub at: u64,
}

/// The client-observed span of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventSpan {
    /// Logical timestamp taken before the event was submitted.
    pub invoked_at: u64,
    /// Logical timestamp taken after the event's response was observed, or
    /// `None` while the event is still pending.
    pub responded_at: Option<u64>,
}

impl EventSpan {
    /// Whether this event responded strictly before `other` was invoked
    /// (the real-time precedence used by strict serializability).
    pub fn precedes(&self, other: &EventSpan) -> bool {
        matches!(self.responded_at, Some(r) if r < other.invoked_at)
    }
}

/// A complete recorded execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct History {
    /// Per-event spans.
    pub spans: BTreeMap<EventId, EventSpan>,
    /// Per-context operation sequences, in context-observed order.
    pub operations: BTreeMap<ContextId, Vec<Operation>>,
}

impl History {
    /// Creates an empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// All events that appear in the history (as a span, an operation, or
    /// both).
    pub fn events(&self) -> BTreeSet<EventId> {
        let mut events: BTreeSet<EventId> = self.spans.keys().copied().collect();
        for ops in self.operations.values() {
            events.extend(ops.iter().map(|op| op.event));
        }
        events
    }

    /// All contexts with at least one recorded operation.
    pub fn contexts(&self) -> BTreeSet<ContextId> {
        self.operations.keys().copied().collect()
    }

    /// Total number of recorded operations.
    pub fn operation_count(&self) -> usize {
        self.operations.values().map(Vec::len).sum()
    }

    /// Number of recorded events.
    pub fn event_count(&self) -> usize {
        self.events().len()
    }

    /// Returns `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.operations.iter().all(|(_, ops)| ops.is_empty())
    }

    /// Appends an operation to a context's sequence (test / generator
    /// convenience; the runtime path goes through [`HistoryRecorder`]).
    pub fn push_operation(&mut self, op: Operation) {
        self.operations.entry(op.context).or_default().push(op);
    }

    /// Inserts or replaces an event span (test / generator convenience).
    pub fn set_span(&mut self, event: EventId, span: EventSpan) {
        self.spans.insert(event, span);
    }

    /// Merges another history into this one.  Operation sequences for the
    /// same context are concatenated in `(self, other)` order; callers
    /// should only merge histories recorded against disjoint context sets or
    /// disjoint time ranges.
    pub fn merge(&mut self, other: History) {
        for (event, span) in other.spans {
            self.spans.entry(event).or_insert(span);
        }
        for (context, ops) in other.operations {
            self.operations.entry(context).or_default().extend(ops);
        }
    }
}

#[derive(Debug, Default)]
struct RecorderInner {
    clock: AtomicU64,
    spans: Mutex<BTreeMap<EventId, EventSpan>>,
    operations: Mutex<BTreeMap<ContextId, Vec<Operation>>>,
}

/// Thread-safe recorder of event spans and per-context reads and writes,
/// fed by a backend through [`HistorySink`] (or, in tests, by hand).
///
/// Cloning the recorder is cheap; all clones feed the same history.
///
/// # Examples
///
/// ```
/// use aeon_checker::{HistoryRecorder, OpKind};
/// use aeon_types::{ContextId, EventId};
///
/// let recorder = HistoryRecorder::new();
/// let event = EventId::new(1);
/// recorder.begin(event);
/// recorder.record(event, ContextId::new(7), OpKind::Write);
/// recorder.completed(event);
/// let history = recorder.history();
/// assert_eq!(history.event_count(), 1);
/// assert_eq!(history.operation_count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct HistoryRecorder {
    inner: Arc<RecorderInner>,
}

impl HistoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    fn tick(&self) -> u64 {
        self.inner.clock.fetch_add(1, Ordering::SeqCst)
    }

    /// Records the invocation timestamp of an event.  Call this *before*
    /// the event can start executing so the recorded span covers the true
    /// one.
    pub fn begin(&self, event: EventId) {
        let invoked_at = self.tick();
        self.inner.spans.lock().insert(
            event,
            EventSpan {
                invoked_at,
                responded_at: None,
            },
        );
    }

    /// Records the response timestamp of an event.  Call this *after* the
    /// client observed the completion (e.g. after `EventHandle::wait`).
    pub fn completed(&self, event: EventId) {
        let at = self.tick();
        let mut spans = self.inner.spans.lock();
        match spans.get_mut(&event) {
            Some(span) => span.responded_at = Some(at),
            None => {
                spans.insert(
                    event,
                    EventSpan {
                        invoked_at: at,
                        responded_at: Some(at),
                    },
                );
            }
        }
    }

    /// Records a read or write of `context` by `event`.  Backends call this
    /// while the event holds the context's activation lock.
    pub fn record(&self, event: EventId, context: ContextId, kind: OpKind) {
        let at = self.tick();
        self.inner
            .operations
            .lock()
            .entry(context)
            .or_default()
            .push(Operation {
                event,
                context,
                kind,
                at,
            });
    }

    /// Number of operations recorded so far.
    pub fn operation_count(&self) -> usize {
        self.inner.operations.lock().values().map(Vec::len).sum()
    }

    /// A snapshot of everything recorded so far.
    pub fn history(&self) -> History {
        History {
            spans: self.inner.spans.lock().clone(),
            operations: self.inner.operations.lock().clone(),
        }
    }

    /// Clears everything recorded so far (e.g. between benchmark phases).
    pub fn reset(&self) {
        self.inner.spans.lock().clear();
        self.inner.operations.lock().clear();
    }
}

/// The recorder is the canonical [`HistorySink`]: install a clone on any
/// `aeon_api::Deployment` (`install_history_sink`) and every backend feeds
/// it live invoke/respond/access records, ready for
/// [`crate::check_strict_serializability`] (the crate-level example does
/// exactly that).
impl HistorySink for HistoryRecorder {
    fn invoked(&self, event: EventId) {
        self.begin(event);
    }

    fn responded(&self, event: EventId) {
        self.completed(event);
    }

    fn accessed(&self, event: EventId, context: ContextId, mode: AccessMode) {
        let kind = if mode.is_read_only() {
            OpKind::Read
        } else {
            OpKind::Write
        };
        self.record(event, context, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u64) -> EventId {
        EventId::new(n)
    }

    fn cx(n: u64) -> ContextId {
        ContextId::new(n)
    }

    #[test]
    fn spans_capture_invocation_and_response_order() {
        let rec = HistoryRecorder::new();
        rec.begin(ev(1));
        rec.completed(ev(1));
        rec.begin(ev(2));
        rec.completed(ev(2));
        let h = rec.history();
        assert!(h.spans[&ev(1)].precedes(&h.spans[&ev(2)]));
        assert!(!h.spans[&ev(2)].precedes(&h.spans[&ev(1)]));
    }

    #[test]
    fn pending_events_never_precede_anything() {
        let rec = HistoryRecorder::new();
        rec.begin(ev(1));
        rec.begin(ev(2));
        rec.completed(ev(2));
        let h = rec.history();
        assert!(!h.spans[&ev(1)].precedes(&h.spans[&ev(2)]));
        assert!(h.spans[&ev(1)].responded_at.is_none());
    }

    #[test]
    fn completion_without_begin_creates_a_point_span() {
        let rec = HistoryRecorder::new();
        rec.completed(ev(9));
        let h = rec.history();
        assert!(h.spans[&ev(9)].responded_at.is_some());
    }

    #[test]
    fn operations_keep_per_context_order() {
        let rec = HistoryRecorder::new();
        rec.record(ev(1), cx(1), OpKind::Write);
        rec.record(ev(2), cx(1), OpKind::Read);
        rec.record(ev(3), cx(2), OpKind::Write);
        let h = rec.history();
        let ops = &h.operations[&cx(1)];
        assert_eq!(ops.len(), 2);
        assert_eq!(ops[0].event, ev(1));
        assert_eq!(ops[1].event, ev(2));
        assert!(ops[0].at < ops[1].at);
        assert_eq!(h.contexts().len(), 2);
        assert_eq!(h.operation_count(), 3);
        assert_eq!(h.event_count(), 3);
    }

    #[test]
    fn conflict_matrix_is_read_write_standard() {
        assert!(!OpKind::Read.conflicts_with(OpKind::Read));
        assert!(OpKind::Read.conflicts_with(OpKind::Write));
        assert!(OpKind::Write.conflicts_with(OpKind::Read));
        assert!(OpKind::Write.conflicts_with(OpKind::Write));
    }

    #[test]
    fn merge_combines_histories() {
        let rec_a = HistoryRecorder::new();
        rec_a.begin(ev(1));
        rec_a.record(ev(1), cx(1), OpKind::Write);
        rec_a.completed(ev(1));
        let rec_b = HistoryRecorder::new();
        rec_b.begin(ev(2));
        rec_b.record(ev(2), cx(2), OpKind::Write);
        rec_b.completed(ev(2));
        let mut merged = rec_a.history();
        merged.merge(rec_b.history());
        assert_eq!(merged.event_count(), 2);
        assert_eq!(merged.operation_count(), 2);
        assert!(!merged.is_empty());
    }

    #[test]
    fn reset_clears_everything() {
        let rec = HistoryRecorder::new();
        rec.begin(ev(1));
        rec.record(ev(1), cx(1), OpKind::Write);
        rec.reset();
        assert!(rec.history().is_empty());
        assert_eq!(rec.operation_count(), 0);
    }
}
