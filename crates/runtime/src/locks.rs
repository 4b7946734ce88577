//! Per-context activation locks (Algorithm 1 & 2 of the paper).
//!
//! Every context owns a [`ContextLock`], which models the paper's
//! `toActivateQueue` + `activatedSet` pair:
//!
//! * events wanting to use the context enqueue an activation request;
//! * requests are granted strictly in FIFO order (this is what gives
//!   starvation freedom), with the read/write twist that consecutive
//!   read-only requests may hold the context simultaneously;
//! * an exclusive request is granted only when the activated set is empty.
//!
//! The dominator of an event's target uses the same lock as a sequencer; it
//! is held for the whole duration of the event, which is how two events that
//! could reach shared descendants are prevented from interleaving.
//!
//! Every waiter leaves a grant in the queue ([`ContextLock::activate_or_defer`]),
//! which is called once, by whoever decides it — the `release` that lets it
//! in, with the lock's mutex dropped, so the grant may activate or release
//! this very lock.  The server core (`crate::server`) takes every first lock
//! of a unit of work that way, so a queued event holds no thread; a nested
//! activation inside a running body blocks its thread
//! ([`ContextLock::activate`]) on a grant that wakes it.  One queue, one
//! granting loop: FIFO order, read sharing and starvation freedom do not
//! depend on how a waiter waits.  A lock can also be
//! *closed* — `poison` (the host shut down) or `mark_moved` (the context
//! moved to another server) — which answers each waiter with an error,
//! once, and every later arrival at once: `EventAborted` after a poison,
//! `MigrationInProgress` after a move, so that a waiter can tell "give up"
//! from "look for the context again".

use crate::reply::reply;
use aeon_types::{AccessMode, AeonError, ContextId, EventId, Result};
use parking_lot::Mutex;
use std::collections::VecDeque;

/// What a waiter leaves in the queue: called exactly once, with `Ok` when
/// its event is activated or `Err` when the lock is closed first.
type Grant = Box<dyn FnOnce(Result<()>) + Send>;

/// An activation request in the queue.
struct Waiter {
    event: EventId,
    mode: AccessMode,
    grant: Grant,
}

/// State protected by the lock's mutex.
#[derive(Default)]
struct LockState {
    /// Events currently holding the context (the paper's `activatedSet`).
    activated: Vec<(EventId, AccessMode)>,
    /// Events waiting to be activated, in arrival order
    /// (the paper's `toActivateQueue`).  Its head is never compatible
    /// with `activated`: every change that could make it so grants it.
    queue: VecDeque<Waiter>,
    /// Set when the lock turns every waiter away, with the reason.
    closed: Option<Closed>,
}

/// Why a lock turns waiters away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Closed {
    /// The hosting runtime or node shut down: waiters give up.
    Poisoned,
    /// The context moved to another server: waiters look for it there.
    Moved,
}

impl Closed {
    /// What `event`, waiting for `context`, is answered with.
    fn refusal(self, context: ContextId, event: EventId) -> AeonError {
        match self {
            Closed::Poisoned => AeonError::EventAborted {
                event,
                reason: "runtime shut down while waiting for activation".into(),
            },
            Closed::Moved => AeonError::MigrationInProgress(context),
        }
    }
}

impl LockState {
    fn holds(&self, event: EventId) -> bool {
        self.activated.iter().any(|(e, _)| *e == event)
    }

    fn admits(&self, mode: AccessMode) -> bool {
        mode.compatible_with(self.activated.iter().map(|(_, m)| m))
    }

    /// Activates `event` if that needs no wait — it holds the context
    /// already (re-entrant acquisition along another ownership path), or
    /// nobody is queued ahead and `mode` fits — and says whether it did.
    fn activate_now(
        &mut self,
        context: ContextId,
        event: EventId,
        mode: AccessMode,
    ) -> Result<bool> {
        if self.holds(event) {
            return Ok(true);
        }
        if let Some(closed) = self.closed {
            return Err(closed.refusal(context, event));
        }
        if self.queue.is_empty() && self.admits(mode) {
            self.activated.push((event, mode));
            return Ok(true);
        }
        Ok(false)
    }

    /// Grants from the head of the queue while compatible, in strict FIFO
    /// order, and returns their grants (to be called once the mutex is
    /// dropped).
    fn grant_from_head(&mut self) -> Vec<Grant> {
        let mut grants = Vec::new();
        while self.closed.is_none() && self.queue.front().is_some_and(|w| self.admits(w.mode)) {
            let waiter = self.queue.pop_front().expect("the head was just seen");
            self.activated.push((waiter.event, waiter.mode));
            grants.push(waiter.grant);
        }
        grants
    }
}

/// The activation lock of a single context.
pub struct ContextLock {
    context: ContextId,
    state: Mutex<LockState>,
}

impl std::fmt::Debug for ContextLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.lock();
        f.debug_struct("ContextLock")
            .field("context", &self.context)
            .field("activated", &state.activated)
            .field("queued", &state.queue.len())
            .finish()
    }
}

impl ContextLock {
    /// Creates the lock for `context`.
    pub fn new(context: ContextId) -> Self {
        Self {
            context,
            state: Mutex::new(LockState::default()),
        }
    }

    /// Blocks until `event` is activated on this context with `mode`.
    ///
    /// Activation is idempotent: if the event already holds the context the
    /// call returns immediately (re-entrant acquisition along a different
    /// ownership path).
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::EventAborted`] when the lock is poisoned by a
    /// runtime shutdown while waiting, and
    /// [`AeonError::MigrationInProgress`] when the context moved.
    pub fn activate(&self, event: EventId, mode: AccessMode) -> Result<()> {
        let (tx, rx) = reply();
        let wake = move |(), granted| {
            let _ = tx.send(granted);
        };
        match self.activate_or_defer(event, mode, (), wake) {
            Some(()) => Ok(()),
            // A grant is never dropped uncalled while the lock lives.
            None => rx
                .wait()
                .unwrap_or_else(|_| Err(Closed::Poisoned.refusal(self.context, event))),
        }
    }

    /// Activates `event` now if no wait is needed and hands `work` back
    /// (`Some`); otherwise returns `None` without blocking, and `grant` is
    /// called with `work` exactly once: with `Ok` by the `release` that
    /// activates the event, or with `Err` when the lock is — or already
    /// was — closed (see [`ContextLock::activate`] for the errors).  It
    /// runs on that thread with the lock's mutex dropped, so it must not
    /// wait; it may use this lock.
    pub fn activate_or_defer<W: Send + 'static>(
        &self,
        event: EventId,
        mode: AccessMode,
        work: W,
        grant: impl FnOnce(W, Result<()>) + Send + 'static,
    ) -> Option<W> {
        let mut state = self.state.lock();
        match state.activate_now(self.context, event, mode) {
            Ok(true) => Some(work),
            Ok(false) => {
                let grant = Box::new(move |granted| grant(work, granted));
                state.queue.push_back(Waiter { event, mode, grant });
                None
            }
            Err(error) => {
                drop(state);
                grant(work, Err(error));
                None
            }
        }
    }

    /// Activates `event` only if that needs no wait, and says whether it
    /// did; nothing is queued otherwise.  For callers that decide how to
    /// wait only once there is a wait (the server core).
    ///
    /// # Errors
    ///
    /// Those of [`ContextLock::activate`], when the lock is closed.
    pub fn try_activate(&self, event: EventId, mode: AccessMode) -> Result<bool> {
        self.state.lock().activate_now(self.context, event, mode)
    }

    /// Releases the context for `event` (the event terminated in every
    /// context) and grants the waiters this lets in.  Releasing a context
    /// the event does not hold is a no-op.
    pub fn release(&self, event: EventId) {
        let grants = {
            let mut state = self.state.lock();
            let before = state.activated.len();
            state.activated.retain(|(e, _)| *e != event);
            if state.activated.len() == before {
                return;
            }
            state.grant_from_head()
        };
        for grant in grants {
            grant(Ok(()));
        }
    }

    /// Poisons the lock: every current and future waiter is answered with
    /// [`AeonError::EventAborted`] (a blocked one wakes up with it).  Used
    /// when the host shuts down.
    pub fn poison(&self) {
        self.close(Closed::Poisoned);
    }

    /// Closes the lock of a context that moved to another server: every
    /// current and future waiter is answered
    /// [`AeonError::MigrationInProgress`], in queue order, so that each
    /// looks for the context at its new host instead of failing.
    pub fn mark_moved(&self) {
        self.close(Closed::Moved);
    }

    fn close(&self, why: Closed) {
        let waiters = {
            let mut state = self.state.lock();
            state.closed = Some(why);
            std::mem::take(&mut state.queue)
        };
        for waiter in waiters {
            (waiter.grant)(Err(why.refusal(self.context, waiter.event)));
        }
    }
}

#[cfg(test)]
impl ContextLock {
    /// Whether `event` currently holds the context.
    pub(crate) fn is_activated(&self, event: EventId) -> bool {
        self.state.lock().holds(event)
    }

    /// Number of events currently holding the context.
    fn activated_count(&self) -> usize {
        self.state.lock().activated.len()
    }

    /// Number of events waiting for the context.
    fn queued_count(&self) -> usize {
        self.state.lock().queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;

    fn ev(n: u64) -> EventId {
        EventId::new(n)
    }

    #[test]
    fn exclusive_events_serialize() {
        let lock = Arc::new(ContextLock::new(ContextId::new(1)));
        lock.activate(ev(1), AccessMode::Exclusive).unwrap();
        assert!(lock.is_activated(ev(1)));
        assert_eq!(lock.activated_count(), 1);

        let lock2 = lock.clone();
        let handle = thread::spawn(move || {
            lock2.activate(ev(2), AccessMode::Exclusive).unwrap();
            lock2.release(ev(2));
        });
        // Give the second event time to queue up.
        thread::sleep(Duration::from_millis(20));
        assert_eq!(lock.queued_count(), 1);
        assert!(!lock.is_activated(ev(2)));
        lock.release(ev(1));
        handle.join().unwrap();
        assert_eq!(lock.activated_count(), 0);
    }

    #[test]
    fn read_only_events_share() {
        let lock = ContextLock::new(ContextId::new(1));
        lock.activate(ev(1), AccessMode::ReadOnly).unwrap();
        lock.activate(ev(2), AccessMode::ReadOnly).unwrap();
        assert_eq!(lock.activated_count(), 2);
        lock.release(ev(1));
        lock.release(ev(2));
        assert_eq!(lock.activated_count(), 0);
    }

    #[test]
    fn activation_is_reentrant_per_event() {
        let lock = ContextLock::new(ContextId::new(1));
        lock.activate(ev(1), AccessMode::Exclusive).unwrap();
        lock.activate(ev(1), AccessMode::Exclusive).unwrap();
        assert_eq!(lock.activated_count(), 1);
        lock.release(ev(1));
        assert_eq!(lock.activated_count(), 0);
    }

    #[test]
    fn fifo_order_prevents_readers_from_overtaking_writers() {
        let lock = Arc::new(ContextLock::new(ContextId::new(1)));
        lock.activate(ev(1), AccessMode::ReadOnly).unwrap();

        // A writer queues first, then another reader.  The reader must NOT
        // be granted before the writer (that would starve writers).
        let l = lock.clone();
        let writer = thread::spawn(move || {
            l.activate(ev(2), AccessMode::Exclusive).unwrap();
            l.release(ev(2));
        });
        thread::sleep(Duration::from_millis(20));
        let l = lock.clone();
        let reader = thread::spawn(move || {
            l.activate(ev(3), AccessMode::ReadOnly).unwrap();
            l.release(ev(3));
        });
        thread::sleep(Duration::from_millis(20));
        // Reader 3 is behind writer 2 which is blocked on reader 1.
        assert!(!lock.is_activated(ev(3)));
        assert_eq!(lock.queued_count(), 2);
        lock.release(ev(1));
        writer.join().unwrap();
        reader.join().unwrap();
    }

    #[test]
    fn many_threads_one_winner_at_a_time() {
        let lock = Arc::new(ContextLock::new(ContextId::new(1)));
        let concurrent = Arc::new(AtomicUsize::new(0));
        let max_seen = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for i in 0..16u64 {
            let lock = lock.clone();
            let concurrent = concurrent.clone();
            let max_seen = max_seen.clone();
            handles.push(thread::spawn(move || {
                lock.activate(ev(i), AccessMode::Exclusive).unwrap();
                let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                max_seen.fetch_max(now, Ordering::SeqCst);
                thread::sleep(Duration::from_millis(1));
                concurrent.fetch_sub(1, Ordering::SeqCst);
                lock.release(ev(i));
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            max_seen.load(Ordering::SeqCst),
            1,
            "exclusive holders never overlap"
        );
        assert_eq!(lock.activated_count(), 0);
        assert_eq!(lock.queued_count(), 0);
    }

    #[test]
    fn poison_wakes_waiters_with_error() {
        let lock = Arc::new(ContextLock::new(ContextId::new(1)));
        lock.activate(ev(1), AccessMode::Exclusive).unwrap();
        let l = lock.clone();
        let waiter = thread::spawn(move || l.activate(ev(2), AccessMode::Exclusive));
        thread::sleep(Duration::from_millis(20));
        lock.poison();
        let res = waiter.join().unwrap();
        assert!(matches!(res, Err(AeonError::EventAborted { .. })));
        // The aborted waiter left the queue.
        assert_eq!(lock.queued_count(), 0);
    }

    /// Records what each deferred waiter was answered with, in call order.
    type Answers = Arc<Mutex<Vec<(u64, bool)>>>;

    fn defer(lock: &ContextLock, n: u64, mode: AccessMode, answers: &Answers) -> bool {
        let answers = Arc::clone(answers);
        lock.activate_or_defer(ev(n), mode, n, move |n, granted| {
            answers.lock().push((n, granted.is_ok()));
        })
        .is_some()
    }

    /// Blocks a thread in `activate` and returns once it is queued, holds
    /// the context, or was turned away.
    fn block(lock: &Arc<ContextLock>, n: u64, mode: AccessMode) -> thread::JoinHandle<Result<()>> {
        let queued = lock.queued_count();
        let l = Arc::clone(lock);
        let waiter = thread::spawn(move || l.activate(ev(n), mode));
        while lock.queued_count() == queued && !lock.is_activated(ev(n)) && !waiter.is_finished() {
            thread::yield_now();
        }
        waiter
    }

    #[test]
    fn deferred_and_blocking_waiters_are_granted_in_arrival_order() {
        let lock = Arc::new(ContextLock::new(ContextId::new(1)));
        let answers = Answers::default();
        assert!(defer(&lock, 1, AccessMode::Exclusive, &answers));
        assert!(!defer(&lock, 2, AccessMode::ReadOnly, &answers));
        let reader = block(&lock, 3, AccessMode::ReadOnly);
        assert!(!defer(&lock, 4, AccessMode::Exclusive, &answers));
        let late_reader = block(&lock, 5, AccessMode::ReadOnly);
        assert_eq!(lock.queued_count(), 4);
        assert!(answers.lock().is_empty(), "a grant before any release");

        // Readers 2 (deferred) and 3 (blocked) share; writer 4 waits and
        // reader 5 may not overtake it.
        lock.release(ev(1));
        reader.join().unwrap().unwrap();
        assert_eq!(*answers.lock(), vec![(2, true)]);
        assert!(lock.is_activated(ev(2)) && lock.is_activated(ev(3)));
        assert!(!lock.is_activated(ev(4)) && !lock.is_activated(ev(5)));
        lock.release(ev(2));
        assert!(!lock.is_activated(ev(4)));
        lock.release(ev(3));
        assert_eq!(*answers.lock(), vec![(2, true), (4, true)]);
        assert_eq!(lock.activated_count(), 1);
        lock.release(ev(4));
        late_reader.join().unwrap().unwrap();
        assert!(lock.is_activated(ev(5)));
        lock.release(ev(5));
        assert_eq!((lock.activated_count(), lock.queued_count()), (0, 0));
    }

    #[test]
    fn a_grant_runs_without_the_locks_mutex_held() {
        let lock = Arc::new(ContextLock::new(ContextId::new(1)));
        lock.activate(ev(1), AccessMode::Exclusive).unwrap();
        let l = Arc::clone(&lock);
        let (tx, rx) = std::sync::mpsc::channel();
        let granted_now =
            lock.activate_or_defer(ev(2), AccessMode::Exclusive, (), move |(), granted| {
                granted.unwrap();
                // Both take the mutex: a grant called under it would deadlock.
                l.release(ev(2));
                l.activate(ev(3), AccessMode::Exclusive).unwrap();
                tx.send(l.is_activated(ev(3))).unwrap();
            });
        assert!(granted_now.is_none());
        lock.release(ev(1));
        assert_eq!(rx.try_recv(), Ok(true), "the grant ran inside `release`");
        assert!(!lock.is_activated(ev(2)));
        lock.release(ev(3));
        assert_eq!(lock.activated_count(), 0);
    }

    #[test]
    fn poison_answers_each_deferred_waiter_once() {
        let lock = Arc::new(ContextLock::new(ContextId::new(1)));
        let answers = Answers::default();
        lock.activate(ev(1), AccessMode::Exclusive).unwrap();
        assert!(!defer(&lock, 2, AccessMode::Exclusive, &answers));
        let blocked = block(&lock, 3, AccessMode::ReadOnly);
        assert!(!defer(&lock, 4, AccessMode::ReadOnly, &answers));
        lock.poison();
        assert_eq!(*answers.lock(), vec![(2, false), (4, false)]);
        assert!(matches!(
            blocked.join().unwrap(),
            Err(AeonError::EventAborted { .. })
        ));
        // Nothing answers them again: not a second poison, not a release.
        lock.poison();
        lock.release(ev(1));
        assert_eq!(answers.lock().len(), 2);
        assert_eq!(lock.queued_count(), 0);
        // A later arrival is answered at once.
        assert!(!defer(&lock, 5, AccessMode::ReadOnly, &answers));
        assert_eq!(answers.lock().last(), Some(&(5, false)));
        assert!(lock.try_activate(ev(6), AccessMode::ReadOnly).is_err());
    }

    #[test]
    fn a_moved_lock_sends_every_waiter_after_its_context() {
        let lock = Arc::new(ContextLock::new(ContextId::new(1)));
        let answers = Arc::new(Mutex::new(Vec::new()));
        lock.activate(ev(1), AccessMode::Exclusive).unwrap();
        for n in [2, 4] {
            let answers = Arc::clone(&answers);
            let granted_now =
                lock.activate_or_defer(ev(n), AccessMode::ReadOnly, n, move |n, granted| {
                    answers.lock().push((n, granted));
                });
            assert!(granted_now.is_none());
        }
        let blocked = block(&lock, 3, AccessMode::Exclusive);
        lock.mark_moved();
        let moved = AeonError::MigrationInProgress(ContextId::new(1));
        let answered = vec![(2, Err(moved.clone())), (4, Err(moved.clone()))];
        assert_eq!(*answers.lock(), answered);
        assert_eq!(blocked.join().unwrap(), Err(moved.clone()));
        assert_eq!(lock.try_activate(ev(5), AccessMode::ReadOnly), Err(moved));
        assert_eq!(lock.queued_count(), 0);
    }

    #[test]
    fn try_activate_queues_nothing() {
        let lock = ContextLock::new(ContextId::new(1));
        assert_eq!(lock.try_activate(ev(1), AccessMode::ReadOnly), Ok(true));
        assert_eq!(lock.try_activate(ev(2), AccessMode::ReadOnly), Ok(true));
        assert_eq!(lock.try_activate(ev(3), AccessMode::Exclusive), Ok(false));
        assert_eq!(lock.try_activate(ev(1), AccessMode::ReadOnly), Ok(true));
        assert_eq!((lock.activated_count(), lock.queued_count()), (2, 0));
    }

    /// splitmix64: the property below draws its interleavings from it.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % n
        }
    }

    /// The lock's rules written as plainly as possible: what `activated`
    /// and the deferred answers must be after each step.
    #[derive(Default)]
    struct Model {
        activated: Vec<(EventId, AccessMode)>,
        queue: VecDeque<(u64, AccessMode, bool)>,
        answers: Vec<(u64, bool)>,
        /// Blocked threads the poison found in the queue.
        turned_away: Vec<u64>,
        poisoned: bool,
    }

    impl Model {
        fn fits(&self, mode: AccessMode) -> bool {
            match mode {
                AccessMode::Exclusive => self.activated.is_empty(),
                AccessMode::ReadOnly => self.activated.iter().all(|(_, m)| m.is_read_only()),
            }
        }

        fn grant(&mut self) {
            while let Some(&(n, mode, deferred)) = self.queue.front() {
                if self.poisoned || !self.fits(mode) {
                    break;
                }
                self.queue.pop_front();
                self.activated.push((ev(n), mode));
                if deferred {
                    self.answers.push((n, true));
                }
            }
        }
    }

    /// Releases `event` as its holder would: a blocked thread returns from
    /// `activate` first.
    fn release(
        lock: &ContextLock,
        event: EventId,
        blocked: &mut Vec<(u64, thread::JoinHandle<Result<()>>)>,
        case: u64,
    ) {
        if let Some(at) = blocked.iter().position(|(n, _)| ev(*n) == event) {
            let answer = blocked.swap_remove(at).1.join().unwrap();
            assert!(answer.is_ok(), "case {case}: {event:?} got {answer:?}");
        }
        lock.release(event);
    }

    /// Random interleavings of blocking and deferred arrivals, releases and
    /// a poison, checked after every step against [`Model`]: the lock never
    /// holds incompatible modes, grants in arrival order (readers sharing),
    /// answers every deferred waiter once, and every blocked thread ends
    /// with the answer the model gives it.  64 cases in a debug build,
    /// 5 000 optimised (CI runs both).
    #[test]
    fn random_interleavings_stay_compatible_and_grant_in_arrival_order() {
        let cases = if cfg!(debug_assertions) { 64 } else { 5_000 };
        for case in 0..cases {
            let mut rng = Rng(case);
            let lock = Arc::new(ContextLock::new(ContextId::new(1)));
            let answers = Answers::default();
            let mut model = Model::default();
            let mut blocked = Vec::new();
            for n in 0..(8 + rng.below(16)) {
                match rng.below(20) {
                    0 => {
                        lock.poison();
                        model.poisoned = true;
                        for (n, _, deferred) in std::mem::take(&mut model.queue) {
                            if deferred {
                                model.answers.push((n, false));
                            } else {
                                model.turned_away.push(n);
                            }
                        }
                    }
                    1..=9 if !model.activated.is_empty() => {
                        let pick = rng.below(model.activated.len() as u64) as usize;
                        let (event, _) = model.activated.remove(pick);
                        release(&lock, event, &mut blocked, case);
                        model.grant();
                    }
                    _ => {
                        let mode = if rng.below(2) == 0 {
                            AccessMode::ReadOnly
                        } else {
                            AccessMode::Exclusive
                        };
                        let deferred = rng.below(2) == 0;
                        let now = !model.poisoned && model.queue.is_empty() && model.fits(mode);
                        if now {
                            model.activated.push((ev(n), mode));
                        } else if model.poisoned {
                            if deferred {
                                model.answers.push((n, false));
                            }
                        } else {
                            model.queue.push_back((n, mode, deferred));
                        }
                        if deferred {
                            assert_eq!(defer(&lock, n, mode, &answers), now, "case {case}");
                        } else {
                            let waiter = block(&lock, n, mode);
                            if model.poisoned {
                                assert!(waiter.join().unwrap().is_err(), "case {case}");
                            } else {
                                blocked.push((n, waiter));
                            }
                        }
                    }
                }
                let state = lock.state.lock();
                assert_eq!(state.activated, model.activated, "case {case}, step {n}");
                let exclusive = state.activated.iter().filter(|(_, m)| !m.is_read_only());
                assert!(
                    exclusive.count() == 0 || state.activated.len() == 1,
                    "case {case}: incompatible holders {:?}",
                    state.activated
                );
                drop(state);
                assert_eq!(*answers.lock(), model.answers, "case {case}, step {n}");
            }
            // Drain: release holders until every blocked thread has its
            // answer — granted, or turned away by the poison.
            while let Some((event, _)) = model.activated.pop() {
                release(&lock, event, &mut blocked, case);
                model.grant();
            }
            assert!(model.poisoned || model.queue.is_empty(), "case {case}");
            for (n, waiter) in blocked {
                assert!(model.turned_away.contains(&n), "case {case}: {n}");
                assert!(waiter.join().unwrap().is_err(), "case {case}: {n}");
            }
            assert_eq!(*answers.lock(), model.answers, "case {case}");
        }
    }
}
