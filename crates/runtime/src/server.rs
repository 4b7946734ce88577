//! The server core: Algorithm 2's sequencing, activation and release,
//! written once for the in-process runtime and every cluster node.
//!
//! A [`ServerCore`] owns what a server keeps of the protocol: the contexts
//! hosted here (each a [`ContextSlot`] behind its [`ContextLock`]), the
//! lock of the global root, and the locks each event holds.  It does no
//! I/O — it never sends, spawns or sleeps — and it never decides how a
//! thread waits.  The protocol is three steps:
//!
//! * [`ServerCore::start`] takes the first lock of a unit of work arriving
//!   here: a submitted event's sequencer (its dominator, the global root or
//!   its own target), a cluster `Act`'s sequencer, an `Exec` /
//!   `ExecCertified` target, a `Call`'s callee.  Free, the work runs in
//!   place.  Held, the work waits in the lock's queue as a grant
//!   ([`ContextLock::activate_or_defer`]), and the thread that releases the
//!   lock hands it back to its backend — to a pool, or to the caller that
//!   waits for it — so no thread sits on a first lock.  A closed lock
//!   answers the work instead: a poisoned one with the error that resolves
//!   its event, a moved context with [`AeonError::MigrationInProgress`] and
//!   a context not hosted here with [`AeonError::ContextNotFound`], for the
//!   backend to look for it again.
//! * [`ServerCore::enter`] is a nested activation inside a running body
//!   (`scheduleNext` / `activatePath`), recorded as a hold.  A contended one
//!   waits on the thread that runs the body, in the way the backend passes
//!   in.
//! * [`ServerCore::release`] frees every hold of an event in the reverse
//!   order of acquisition (§4), which grants the next waiters.
//!
//! The backends are adapters around it: the runtime is the core with every
//! context local, a cluster node the core plus message dispatch, remote
//! calls and migration.  Its unit tests drive it by hand, without threads.

use crate::context::{ContextObject, ContextSlot};
use crate::locks::ContextLock;
use aeon_ownership::GLOBAL_ROOT;
use aeon_types::{AccessMode, AeonError, ContextId, EventId, Result};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;

/// The protocol state of one server (see the module docs).
#[derive(Debug)]
pub struct ServerCore {
    /// The contexts hosted here.
    slots: RwLock<HashMap<ContextId, Arc<ContextSlot>>>,
    /// The sequencer of events whose target has no concrete dominator,
    /// held under [`GLOBAL_ROOT`].
    root: ContextLock,
    /// The locks each event holds here, in acquisition order.
    holds: Mutex<HashMap<EventId, Vec<ContextId>>>,
}

impl Default for ServerCore {
    fn default() -> Self {
        Self {
            slots: RwLock::new(HashMap::new()),
            root: ContextLock::new(GLOBAL_ROOT),
            holds: Mutex::new(HashMap::new()),
        }
    }
}

impl ServerCore {
    /// The slot of `context`, if it is hosted here.
    pub fn slot(&self, context: ContextId) -> Option<Arc<ContextSlot>> {
        self.slots.read().get(&context).cloned()
    }

    /// Hosts `object` as `context`, replacing any slot it had.
    pub fn install(&self, context: ContextId, object: Box<dyn ContextObject>) {
        self.slots
            .write()
            .insert(context, ContextSlot::new(context, object));
    }

    /// Stops hosting `context` and returns its slot; the caller closes its
    /// lock ([`ContextLock::poison`] or [`ContextLock::mark_moved`]).
    pub fn remove(&self, context: ContextId) -> Option<Arc<ContextSlot>> {
        self.slots.write().remove(&context)
    }

    /// Number of contexts hosted here.
    pub fn hosted(&self) -> usize {
        self.slots.read().len()
    }

    /// Poisons every lock here, the global root's too: each waiter is
    /// answered with [`AeonError::EventAborted`], and so is every later
    /// arrival.  The slots are collected first, so that the grants this
    /// answers run with no guard of the core held.
    pub fn poison(&self) {
        let slots: Vec<Arc<ContextSlot>> = self.slots.read().values().cloned().collect();
        for slot in slots {
            slot.lock.poison();
        }
        self.root.poison();
    }

    /// Takes `lock` — a hosted context or [`GLOBAL_ROOT`] — as the first
    /// lock of `work`, a unit of work of `event`.  Returns the work when it
    /// holds the lock now, for the caller to run in place.  Otherwise the
    /// work is handed to `later` exactly once: with `Ok` by the thread
    /// whose release grants the lock (the work holds it by then), or with
    /// the error of a closed lock — at once when it already was closed, or
    /// when `lock` is not hosted here ([`AeonError::ContextNotFound`]).
    /// `later` runs with no guard held and must not wait: it hands the work
    /// on, to a pool or to a waiting thread, or answers it.
    pub fn start<W: Send + 'static>(
        self: &Arc<Self>,
        event: EventId,
        mode: AccessMode,
        lock: ContextId,
        work: W,
        later: impl FnOnce(W, Result<()>) + Send + 'static,
    ) -> Option<W> {
        let slot = if lock == GLOBAL_ROOT {
            None
        } else {
            match self.slot(lock) {
                Some(slot) => Some(slot),
                None => {
                    later(work, Err(AeonError::ContextNotFound(lock)));
                    return None;
                }
            }
        };
        let core = Arc::clone(self);
        let grant = move |work, granted: Result<()>| {
            if granted.is_ok() {
                core.hold(event, lock);
            }
            later(work, granted);
        };
        let context_lock = slot.as_ref().map_or(&self.root, |slot| &slot.lock);
        let now = context_lock.activate_or_defer(event, mode, work, grant);
        if now.is_some() {
            self.hold(event, lock);
        }
        now
    }

    /// Activates `context` for `event` inside its running body and returns
    /// the slot, or `None` when it is not hosted here.  Holding it already
    /// is no wait.  A contended activation is made by `wait`, on this
    /// thread, with the lock the event queues on.
    ///
    /// # Errors
    ///
    /// Those of [`ContextLock::activate`], when the lock is or gets closed.
    pub fn enter(
        &self,
        event: EventId,
        mode: AccessMode,
        context: ContextId,
        wait: impl FnOnce(&ContextLock) -> Result<()>,
    ) -> Result<Option<Arc<ContextSlot>>> {
        let Some(slot) = self.slot(context) else {
            return Ok(None);
        };
        if !slot.lock.try_activate(event, mode)? {
            wait(&slot.lock)?;
        }
        self.hold(event, context);
        Ok(Some(slot))
    }

    /// Releases every lock `event` holds here, the last taken first ("locks
    /// on the contexts accessed during an event are released in the
    /// reverse order on which they are locked", §4).  The grants this runs
    /// only hand work on.
    pub fn release(&self, event: EventId) {
        let Some(held) = self.holds.lock().remove(&event) else {
            return;
        };
        for context in held.into_iter().rev() {
            if context == GLOBAL_ROOT {
                self.root.release(event);
            } else if let Some(slot) = self.slot(context) {
                slot.lock.release(event);
            }
        }
    }

    /// Whether `event` holds `context` (or [`GLOBAL_ROOT`]) here.
    pub fn holds(&self, event: EventId, context: ContextId) -> bool {
        let holds = self.holds.lock();
        holds
            .get(&event)
            .is_some_and(|held| held.contains(&context))
    }

    fn hold(&self, event: EventId, context: ContextId) {
        let mut holds = self.holds.lock();
        let held = holds.entry(event).or_default();
        if !held.contains(&context) {
            held.push(context);
        }
    }
}

#[cfg(test)]
mod tests {
    //! The core driven by hand: every wait here is a grant or a `wait`
    //! closure that does not block, so no test starts a thread.

    use super::*;
    use crate::context::KvContext;

    type Log = Arc<Mutex<Vec<(u64, Result<()>)>>>;

    fn cx(raw: u64) -> ContextId {
        ContextId::new(raw)
    }

    fn ev(raw: u64) -> EventId {
        EventId::new(raw)
    }

    fn core_hosting(contexts: &[u64]) -> Arc<ServerCore> {
        let core = Arc::new(ServerCore::default());
        for &raw in contexts {
            core.install(cx(raw), Box::new(KvContext::new("Kv")));
        }
        core
    }

    /// Starts event `n` on `lock`; a deferred answer lands in `log`.
    fn start(core: &Arc<ServerCore>, n: u64, mode: AccessMode, lock: ContextId, log: &Log) -> bool {
        let log = Arc::clone(log);
        let later = move |work: u64, turn| log.lock().push((work, turn));
        core.start(ev(n), mode, lock, n, later) == Some(n)
    }

    fn holds(core: &ServerCore, context: ContextId, n: u64) -> bool {
        match core.slot(context) {
            Some(slot) => slot.lock.is_activated(ev(n)),
            None => core.root.is_activated(ev(n)),
        }
    }

    const EX: AccessMode = AccessMode::Exclusive;
    const RO: AccessMode = AccessMode::ReadOnly;

    #[test]
    fn a_free_first_lock_is_granted_now() {
        let core = core_hosting(&[1]);
        let log = Log::default();
        assert!(start(&core, 1, EX, cx(1), &log));
        assert!(start(&core, 2, EX, GLOBAL_ROOT, &log));
        assert!(log.lock().is_empty());
        assert!(holds(&core, cx(1), 1) && holds(&core, GLOBAL_ROOT, 2));
        core.release(ev(1));
        core.release(ev(2));
        assert!(!holds(&core, cx(1), 1) && !holds(&core, GLOBAL_ROOT, 2));
    }

    #[test]
    fn a_held_first_lock_defers_the_work_until_a_release_grants_it() {
        let core = core_hosting(&[1]);
        let log = Log::default();
        assert!(start(&core, 1, EX, cx(1), &log));
        assert!(!start(&core, 2, EX, cx(1), &log));
        assert!(log.lock().is_empty(), "no answer before the release");
        core.release(ev(1));
        assert_eq!(*log.lock(), [(2, Ok(()))]);
        // The grant recorded the hold: the next release frees it.
        assert!(holds(&core, cx(1), 2));
        assert!(!start(&core, 3, RO, cx(1), &log));
        core.release(ev(2));
        assert_eq!(log.lock().last(), Some(&(3, Ok(()))));
    }

    #[test]
    fn two_readers_share_a_first_lock() {
        let core = core_hosting(&[1]);
        let log = Log::default();
        assert!(start(&core, 1, RO, cx(1), &log));
        assert!(start(&core, 2, RO, cx(1), &log));
        assert!(!start(&core, 3, EX, cx(1), &log));
        core.release(ev(1));
        assert!(log.lock().is_empty(), "the writer waits for both readers");
        core.release(ev(2));
        assert_eq!(*log.lock(), [(3, Ok(()))]);
    }

    #[test]
    fn activation_is_reentrant_and_held_once() {
        let core = core_hosting(&[1, 2]);
        let log = Log::default();
        let no_wait = |_: &ContextLock| -> Result<()> { panic!("no wait expected") };
        assert!(start(&core, 1, EX, cx(1), &log));
        // The body enters its first lock's context, and a child twice.
        assert!(core.enter(ev(1), EX, cx(1), no_wait).unwrap().is_some());
        assert!(core.enter(ev(1), EX, cx(2), no_wait).unwrap().is_some());
        assert!(core.enter(ev(1), EX, cx(2), no_wait).unwrap().is_some());
        assert_eq!(core.holds.lock()[&ev(1)], [cx(1), cx(2)]);
        assert!(core.holds(ev(1), cx(2)) && !core.holds(ev(2), cx(2)));
        assert!(core.enter(ev(1), EX, cx(9), no_wait).unwrap().is_none());
        // One release frees each lock, however often it was entered.
        core.release(ev(1));
        assert!(start(&core, 2, EX, cx(1), &log) && start(&core, 3, EX, cx(2), &log));
    }

    #[test]
    fn a_contended_nested_activation_waits_the_backends_way() {
        let core = core_hosting(&[1]);
        let log = Log::default();
        assert!(start(&core, 1, EX, cx(1), &log));
        let mut waited = false;
        let refused = core.enter(ev(2), RO, cx(1), |lock| {
            waited = !lock.is_activated(ev(2));
            Err(AeonError::internal("the backend gave up"))
        });
        assert!(waited && refused.is_err());
        assert!(!core.holds.lock().contains_key(&ev(2)), "no hold recorded");
    }

    #[test]
    fn release_frees_the_holds_in_reverse_order() {
        let core = core_hosting(&[1, 2, 3]);
        let log = Log::default();
        let no_wait = |_: &ContextLock| -> Result<()> { panic!("no wait expected") };
        assert!(start(&core, 1, EX, GLOBAL_ROOT, &log));
        for context in [1, 2, 3] {
            core.enter(ev(1), EX, cx(context), no_wait).unwrap();
        }
        // One waiter per lock; their grants come in the order of release.
        for (n, lock) in [(11, cx(1)), (12, cx(2)), (13, cx(3)), (14, GLOBAL_ROOT)] {
            assert!(!start(&core, n, EX, lock, &log));
        }
        core.release(ev(1));
        let granted: Vec<u64> = log.lock().iter().map(|(n, _)| *n).collect();
        assert_eq!(granted, [13, 12, 11, 14]);
    }

    #[test]
    fn a_poisoned_lock_resolves_the_event() {
        let core = core_hosting(&[1]);
        let log = Log::default();
        assert!(start(&core, 1, EX, cx(1), &log));
        assert!(!start(&core, 2, EX, cx(1), &log));
        core.poison();
        assert!(matches!(
            log.lock()[0],
            (2, Err(AeonError::EventAborted { .. }))
        ));
        // A later arrival is answered at once, nested or first.
        assert!(!start(&core, 4, EX, cx(1), &log));
        assert!(matches!(
            log.lock()[1],
            (4, Err(AeonError::EventAborted { .. }))
        ));
        let nested = core.enter(ev(5), EX, cx(1), |_| unreachable!());
        assert!(matches!(nested, Err(AeonError::EventAborted { .. })));
    }

    #[test]
    fn a_moved_context_makes_the_work_look_for_it_again() {
        let core = core_hosting(&[1]);
        let log = Log::default();
        assert!(start(&core, 1, EX, cx(1), &log));
        assert!(!start(&core, 2, RO, cx(1), &log));
        // The context leaves: the queued work is told so, and so is work
        // arriving after it.
        core.remove(cx(1)).unwrap().lock.mark_moved();
        assert_eq!(
            *log.lock(),
            [(2, Err(AeonError::MigrationInProgress(cx(1))))]
        );
        assert!(!start(&core, 3, RO, cx(1), &log));
        assert_eq!(log.lock()[1], (3, Err(AeonError::ContextNotFound(cx(1)))));
        // Looking again finds it where it is hosted now.
        let there = core_hosting(&[1]);
        assert!(start(&there, 2, RO, cx(1), &log));
        assert!(holds(&there, cx(1), 2));
    }
}
