//! Load generation: closed-loop and open-loop threads, the ownership churn
//! and migration side tasks, and the raw per-event records they produce.
//!
//! `EventHandle` has only a blocking `wait()`, so completions are observed
//! in FIFO order: a closed-loop thread keeps a ring of `window` outstanding
//! handles (submit until full, wait the oldest); an open-loop workload
//! splits into a submitter that sends on schedule and a waiter that waits
//! the handles in the order they were sent.  An event that finished early
//! is therefore seen no earlier than the events submitted before it.

use crate::stats::Histogram;
use crate::trace::{SpanId, SpanLog};
use crate::workload::{Event, Load, Side, World};
use aeon::api::{Deployment, EventHandle, Session};
use aeon::{AccessMode, ContextId, ServerId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A send more than this late counts into `loadgen.late_share`.
pub const LATE_NS: u64 = 1_000_000;

/// Most events the open loop keeps outstanding.  Behind a stall the
/// generator sends its backlog in one burst; the TCP transport's per-peer
/// send queue holds 1024 frames and drops what does not fit, and an event
/// whose frame was dropped never completes.  Below the cap the loop is
/// open; at the cap it waits, and the wait is charged to the latency of
/// the events it delays, because their due times do not move.
const MAX_OUTSTANDING: u64 = 512;

/// When the submitting threads of a phase stop.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At this instant (a timed phase).
    At(Instant),
    /// After this many ops per submitting thread (warm-up, traced run).
    Ops(u64),
}

/// How the completions of a phase are binned by the time `wait()`
/// returned.
#[derive(Debug, Clone, Copy)]
pub struct Binning {
    /// Length of one bin.
    pub bin_ns: u64,
    /// Bins kept; a completion behind the last one is counted, not kept.
    pub bins: usize,
}

impl Binning {
    /// Everything in one bin.
    pub const WHOLE: Binning = Binning {
        bin_ns: u64::MAX,
        bins: 1,
    };
}

/// The successful events of one bin, by their latency: submit (closed
/// loop) or due time (open loop) → `wait()` returned.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bin {
    /// The read-only events.
    pub reads: Histogram,
    /// The exclusive events.
    pub writes: Histogram,
}

impl Bin {
    /// Events in the bin.
    pub fn len(&self) -> u64 {
        self.reads.len() + self.writes.len()
    }

    /// Adds the events of `other`.
    pub fn merge(&mut self, other: &Bin) {
        self.reads.merge(&other.reads);
        self.writes.merge(&other.writes);
    }

    /// Reads and writes together.
    pub fn all(&self) -> Histogram {
        let mut all = self.reads.clone();
        all.merge(&self.writes);
        all
    }
}

/// One `migrate_context` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    /// When the call returned, in nanoseconds since the phase started.
    pub done_ns: u64,
    /// Wall time of the call.
    pub duration_ns: u64,
    /// Bytes of serialised state moved.
    pub bytes: u64,
}

/// Everything the threads of one phase recorded.
#[derive(Debug, Default)]
pub struct PhaseLog {
    /// Wall time of the phase, first submit to last completion.
    pub elapsed: Duration,
    /// Successful events, binned by completion time.
    pub bins: Vec<Bin>,
    /// Successful events, whether kept in a bin or not.
    pub completed: u64,
    /// Events, ownership mutations and migrations attempted.
    pub attempted: u64,
    /// Of those, the ones whose submit or wait failed or was refused.
    pub failed: u64,
    /// Successful completions of events marked `tallied`.
    pub tallied_ok: u64,
    /// The first failure, for the report.
    pub first_error: Option<String>,
    /// Wall time of every ownership mutation (timed apart from events).
    pub churn_ns: Vec<u64>,
    /// Every migration.
    pub migrations: Vec<Migration>,
    /// Open loop: how late each send left, against its due time.
    pub late_ns: Vec<u64>,
    /// Open loop: most handles ever waiting between submitter and waiter.
    pub backlog_max: u64,
    /// Sum of all event latencies; over `elapsed` this is the mean number
    /// of events in flight (Little's law).
    pub latency_sum_ns: u64,
    /// Spans, when the phase was traced.
    pub spans: Vec<crate::trace::Span>,
}

impl PhaseLog {
    fn fail(&mut self, what: &str, error: &aeon::AeonError) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(format!("{what}: {error}"));
        }
    }

    fn merge(&mut self, other: PhaseLog) {
        if self.bins.len() < other.bins.len() {
            self.bins.resize_with(other.bins.len(), Bin::default);
        }
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            mine.merge(theirs);
        }
        self.completed += other.completed;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.tallied_ok += other.tallied_ok;
        self.first_error = self.first_error.take().or(other.first_error);
        self.churn_ns.extend(other.churn_ns);
        self.migrations.extend(other.migrations);
        self.late_ns.extend(other.late_ns);
        self.backlog_max = self.backlog_max.max(other.backlog_max);
        self.latency_sum_ns += other.latency_sum_ns;
        self.spans.extend(other.spans);
    }
}

/// Tracing context of a phase: the epoch of its span times and the root
/// span every op hangs under.
#[derive(Debug, Clone, Copy)]
pub struct Traced {
    /// Epoch of the trace.
    pub epoch: Instant,
    /// The `workload` span.
    pub root: SpanId,
}

/// The fixed send schedule of an open loop: op `i` is due `i / rate` after
/// the start, whatever has or has not completed by then.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    interval_ns: f64,
}

impl Schedule {
    /// A schedule of `rate` sends per second.
    pub fn new(rate: f64) -> Self {
        Self {
            interval_ns: 1e9 / rate,
        }
    }

    /// When op `i` is due, in nanoseconds since the start.
    pub fn due_ns(self, i: u64) -> u64 {
        (i as f64 * self.interval_ns) as u64
    }

    /// How late a send at `sent_ns` is for op `i` (0 when on time).
    pub fn lateness_ns(self, i: u64, sent_ns: u64) -> u64 {
        sent_ns.saturating_sub(self.due_ns(i))
    }
}

/// The span log of lane `n` of a traced phase.
fn lane(traced: Option<Traced>, n: u64) -> Option<(SpanLog, SpanId)> {
    traced.map(|t| (SpanLog::new(t.epoch, n), t.root))
}

/// The spans a thread recorded, if it was traced.
fn spans_of(lane: Option<(SpanLog, SpanId)>) -> Vec<crate::trace::Span> {
    lane.map(|(log, _)| log.into_spans()).unwrap_or_default()
}

fn ns_since(start: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(start).as_nanos() as u64
}

fn mode_of(event: &Event) -> AccessMode {
    if event.readonly {
        AccessMode::ReadOnly
    } else {
        AccessMode::Exclusive
    }
}

/// An event between submit and `wait()`.
struct InFlight<'a> {
    event: &'a Event,
    /// Submit time (closed loop) or due time (open loop).
    since: Instant,
    handle: EventHandle,
    /// The op's span id, when tracing.
    span: SpanId,
}

/// Start and binning of a phase.
#[derive(Debug, Clone, Copy)]
struct Clock {
    start: Instant,
    binning: Binning,
}

/// Waits the handle and records the completion (and its spans).
fn complete(
    flight: InFlight<'_>,
    clock: Clock,
    log: &mut PhaseLog,
    spans: &mut Option<(SpanLog, SpanId)>,
) {
    let key = flight.handle.event_id().raw();
    let wait_from = spans.as_ref().map(|_| Instant::now());
    let result = flight.handle.wait();
    let done = Instant::now();
    if let (Some((spans, root)), Some(wait_from)) = (spans.as_mut(), wait_from) {
        spans.record(flight.span, "api.wait", key, wait_from, done);
        spans.record_as(flight.span, *root, "op", key, flight.since, done);
    }
    match result {
        Ok(_) => {
            let latency_ns = ns_since(flight.since, done);
            log.latency_sum_ns += latency_ns;
            log.tallied_ok += u64::from(flight.event.tallied);
            log.completed += 1;
            let bin = (ns_since(clock.start, done) / clock.binning.bin_ns) as usize;
            if bin < clock.binning.bins {
                if log.bins.len() <= bin {
                    log.bins.resize_with(bin + 1, Bin::default);
                }
                if flight.event.readonly {
                    log.bins[bin].reads.record(latency_ns);
                } else {
                    log.bins[bin].writes.record(latency_ns);
                }
            }
        }
        Err(error) => log.fail(flight.event.method, &error),
    }
}

/// Submits `event`; `since` is what its latency is measured from.
fn submit<'a>(
    session: &dyn Session,
    event: &'a Event,
    since: Instant,
    log: &mut PhaseLog,
    spans: &mut Option<(SpanLog, SpanId)>,
) -> Option<InFlight<'a>> {
    log.attempted += 1;
    let submit_from = spans.as_ref().map(|_| Instant::now());
    let result = session.submit_with_mode(
        event.target,
        event.method,
        event.args.clone(),
        mode_of(event),
    );
    match result {
        Ok(handle) => {
            let mut span = 0;
            if let (Some((spans, _)), Some(submit_from)) = (spans.as_mut(), submit_from) {
                span = spans.reserve();
                let key = handle.event_id().raw();
                spans.record(span, "api.submit", key, submit_from, Instant::now());
            }
            Some(InFlight {
                event,
                since,
                handle,
                span,
            })
        }
        Err(error) => {
            log.fail(event.method, &error);
            None
        }
    }
}

/// The ownership churn of one closed-loop thread.
struct Churn<'a> {
    deployment: &'a dyn Deployment,
    every: u64,
    edges: &'a [(ContextId, ContextId)],
    done: u64,
}

impl Churn<'_> {
    /// Toggles the next edge: each edge is added on one visit and removed
    /// on the next.
    fn toggle(&mut self, log: &mut PhaseLog, spans: &mut Option<(SpanLog, SpanId)>) {
        let (owner, owned) = self.edges[(self.done / 2) as usize % self.edges.len()];
        let add = self.done.is_multiple_of(2);
        self.done += 1;
        log.attempted += 1;
        let from = Instant::now();
        let result = if add {
            self.deployment.add_ownership(owner, owned)
        } else {
            self.deployment.remove_ownership(owner, owned)
        };
        let to = Instant::now();
        if let Some((spans, root)) = spans.as_mut() {
            spans.record(*root, "ownership.mutate", 0, from, to);
        }
        match result {
            Ok(()) => log.churn_ns.push(ns_since(from, to)),
            Err(error) => log.fail("ownership churn", &error),
        }
    }
}

/// Lets the migrator quiesce the closed-loop threads around a migration.
///
/// On the current code an event that races a migration can be aborted (the
/// migrating context's lock is poisoned under it) and a multi-context
/// update torn, and a workload must not fail operations.  So the migrator
/// closes the gate, every load thread drains its window and parks, the
/// context moves, and the gate opens again.
#[derive(Debug, Default)]
struct Gate {
    closed: AtomicBool,
    parked: AtomicUsize,
}

/// How often a thread waiting on the gate looks again.
const GATE_POLL: Duration = Duration::from_micros(50);

/// One closed-loop thread: submit until `window` events are in flight,
/// then wait the oldest.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    session: &dyn Session,
    events: &[Event],
    window: usize,
    stop: Stop,
    clock: Clock,
    gate: &Gate,
    mut churn: Option<Churn<'_>>,
    mut spans: Option<(SpanLog, SpanId)>,
) -> PhaseLog {
    let mut log = PhaseLog::default();
    let mut ring: VecDeque<InFlight<'_>> = VecDeque::with_capacity(window);
    let mut next = 0u64;
    let mut txn_open = false;
    loop {
        if gate.closed.load(Ordering::Acquire) {
            for flight in ring.drain(..) {
                complete(flight, clock, &mut log, &mut spans);
            }
            gate.parked.fetch_add(1, Ordering::AcqRel);
            while gate.closed.load(Ordering::Acquire) {
                std::thread::sleep(GATE_POLL);
            }
            gate.parked.fetch_sub(1, Ordering::AcqRel);
        }
        let now = Instant::now();
        let more = txn_open
            || match stop {
                Stop::At(end) => now < end,
                Stop::Ops(ops) => next < ops,
            };
        if more && ring.len() < window {
            let mut since = now;
            if let Some(churn) = churn.as_mut() {
                if next % churn.every == churn.every - 1 {
                    churn.toggle(&mut log, &mut spans);
                    // The mutation is timed apart from the event behind it.
                    since = Instant::now();
                }
            }
            let event = &events[next as usize % events.len()];
            next += 1;
            txn_open = !event.closes_txn;
            ring.extend(submit(session, event, since, &mut log, &mut spans));
        } else if let Some(flight) = ring.pop_front() {
            complete(flight, clock, &mut log, &mut spans);
        } else {
            break;
        }
    }
    // Leave no toggled edge behind: the next phase starts from the plan's
    // own graph again.
    if let Some(churn) = churn.as_mut() {
        if !churn.done.is_multiple_of(2) {
            churn.toggle(&mut log, &mut spans);
        }
    }
    log.spans = spans_of(spans);
    log
}

/// The two threads of an open loop.  The submitter sends op `i` when it is
/// due and never waits for a completion; the waiter takes the handles in
/// send order.  Latency runs from the *due* time, so a stall of the system
/// or of the generator is charged to every event it delays.
fn open_loop(
    deployment: &dyn Deployment,
    events: &[Event],
    rate: f64,
    stop: Stop,
    clock: Clock,
    traced: Option<Traced>,
) -> PhaseLog {
    let start = clock.start;
    let schedule = Schedule::new(rate);
    let (tx, rx) = mpsc::channel::<InFlight<'_>>();
    let sent = AtomicU64::new(0);
    let waited = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let submitter = scope.spawn(|| {
            let session = deployment.session();
            let mut log = PhaseLog::default();
            let mut spans = lane(traced, 1);
            let mut next = 0u64;
            let mut txn_open = false;
            loop {
                let due = start + Duration::from_nanos(schedule.due_ns(next));
                let more = txn_open
                    || match stop {
                        Stop::At(end) => due < end,
                        Stop::Ops(ops) => next < ops,
                    };
                if !more {
                    break;
                }
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                while sent.load(Ordering::Relaxed) - waited.load(Ordering::Relaxed)
                    >= MAX_OUTSTANDING
                {
                    std::thread::sleep(GATE_POLL);
                }
                let event = &events[next as usize % events.len()];
                let sent_ns = ns_since(start, Instant::now());
                log.late_ns.push(schedule.lateness_ns(next, sent_ns));
                next += 1;
                txn_open = !event.closes_txn;
                if let Some(flight) = submit(session.as_ref(), event, due, &mut log, &mut spans) {
                    let backlog =
                        sent.fetch_add(1, Ordering::Relaxed) + 1 - waited.load(Ordering::Relaxed);
                    log.backlog_max = log.backlog_max.max(backlog);
                    if tx.send(flight).is_err() {
                        break;
                    }
                }
            }
            drop(tx);
            log.spans = spans_of(spans);
            log
        });
        let waiter = scope.spawn(|| {
            let mut log = PhaseLog::default();
            let mut spans = lane(traced, 2);
            for flight in rx {
                complete(flight, clock, &mut log, &mut spans);
                waited.fetch_add(1, Ordering::Relaxed);
            }
            log.spans = spans_of(spans);
            log
        });
        let mut log = submitter.join().expect("open-loop submitter panicked");
        log.merge(waiter.join().expect("open-loop waiter panicked"));
        log
    })
}

/// Migrates the next context to the next server, round-robin, once per
/// `period`, until `done` is set; the `loaders` closed-loop threads are
/// parked behind `gate` while a context moves.
#[allow(clippy::too_many_arguments)]
fn migrator(
    deployment: &dyn Deployment,
    contexts: &[ContextId],
    period: Duration,
    start: Instant,
    done: &AtomicBool,
    gate: &Gate,
    loaders: usize,
    mut spans: Option<(SpanLog, SpanId)>,
) -> PhaseLog {
    let mut log = PhaseLog::default();
    let servers: Vec<ServerId> = deployment.servers();
    let mut turn = 0usize;
    let mut due = start + period;
    loop {
        // Sleep in short steps so the end of the phase is noticed promptly.
        while Instant::now() < due && !done.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_millis(5).min(due - Instant::now().min(due)));
        }
        if done.load(Ordering::Acquire) {
            break;
        }
        due += period;
        let context = contexts[turn % contexts.len()];
        let mut to = servers[turn % servers.len()];
        if deployment.placement_of(context).ok() == Some(to) {
            to = servers[(turn + 1) % servers.len()];
        }
        turn += 1;
        gate.closed.store(true, Ordering::Release);
        while gate.parked.load(Ordering::Acquire) < loaders && !done.load(Ordering::Acquire) {
            std::thread::sleep(GATE_POLL);
        }
        if done.load(Ordering::Acquire) {
            gate.closed.store(false, Ordering::Release);
            break;
        }
        log.attempted += 1;
        let from = Instant::now();
        let result = deployment.migrate_context(context, to);
        let end = Instant::now();
        gate.closed.store(false, Ordering::Release);
        if let Some((spans, root)) = spans.as_mut() {
            spans.record(*root, "cluster.migrate", context.raw(), from, end);
        }
        match result {
            Ok(bytes) => log.migrations.push(Migration {
                done_ns: ns_since(start, end),
                duration_ns: ns_since(from, end),
                bytes,
            }),
            Err(error) => log.fail("migrate_context", &error),
        }
    }
    log.spans = spans_of(spans);
    log
}

/// Runs one phase of `world`'s load on `deployment`, starting now.
///
/// While the load threads run, `beside` runs on the calling thread (slice
/// boundary sampling, gauge polling); it is handed the phase's start and a
/// flag that is set once every submitting thread has finished.
pub fn run_phase(
    deployment: &dyn Deployment,
    world: &World,
    load: Load,
    stop: Stop,
    binning: Binning,
    traced: Option<Traced>,
    beside: impl FnOnce(Instant, &AtomicBool),
) -> PhaseLog {
    let done = AtomicBool::new(false);
    let gate = &Gate::default();
    let start = Instant::now();
    let clock = Clock { start, binning };
    std::thread::scope(|scope| {
        let side = match &world.side {
            Side::Migrate { period, contexts } => {
                let (done, spans) = (&done, lane(traced, 9));
                let loaders = match load {
                    Load::Closed { threads, .. } => threads,
                    Load::Open { .. } => 0,
                };
                Some(scope.spawn(move || {
                    migrator(
                        deployment, contexts, *period, start, done, gate, loaders, spans,
                    )
                }))
            }
            _ => None,
        };
        let loaders = scope.spawn(|| {
            let mut log = match load {
                Load::Open { rate } => {
                    open_loop(deployment, &world.streams[0], rate, stop, clock, traced)
                }
                Load::Closed { threads, window } => std::thread::scope(|inner| {
                    let handles: Vec<_> = (0..threads)
                        .map(|t| {
                            let spans = lane(traced, t as u64 + 1);
                            inner.spawn(move || {
                                let session = deployment.session();
                                let churn = match &world.side {
                                    Side::Churn { every, edges } => Some(Churn {
                                        deployment,
                                        every: *every,
                                        edges: &edges[t],
                                        done: 0,
                                    }),
                                    _ => None,
                                };
                                closed_loop(
                                    session.as_ref(),
                                    &world.streams[t],
                                    window,
                                    stop,
                                    clock,
                                    gate,
                                    churn,
                                    spans,
                                )
                            })
                        })
                        .collect();
                    let mut log = PhaseLog::default();
                    for handle in handles {
                        log.merge(handle.join().expect("closed-loop thread panicked"));
                    }
                    log
                }),
            };
            log.elapsed = start.elapsed();
            done.store(true, Ordering::Release);
            log
        });
        beside(start, &done);
        let mut log = loaders.join().expect("load threads panicked");
        if let Some(side) = side {
            log.merge(side.join().expect("migrator panicked"));
        }
        log
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_do_not_depend_on_completions() {
        let schedule = Schedule::new(4_000.0);
        assert_eq!(schedule.due_ns(0), 0);
        assert_eq!(schedule.due_ns(1), 250_000);
        assert_eq!(schedule.due_ns(4_000), 1_000_000_000);
        // A generator that stalled for 3 ms sends ops 8..20 in a burst; each
        // is still due on the original grid and is late against *it*, not
        // against the moment the previous send or completion happened.
        let stalled_until = 5_000_000;
        for i in 8..20 {
            assert_eq!(schedule.due_ns(i), i * 250_000);
            assert_eq!(
                schedule.lateness_ns(i, stalled_until),
                stalled_until - i * 250_000
            );
        }
        assert_eq!(schedule.lateness_ns(20, stalled_until), 0);
        assert_eq!(schedule.lateness_ns(40, stalled_until), 0);
    }
}
