//! The event interpreter: everything about *what one event may do* that does
//! not depend on *where contexts live*.
//!
//! [`EventBody`] runs one event (or one call served on behalf of a remote
//! event) over a [`ContextHost`].  It owns the event's identity, its call
//! stack with the re-entrance guard, the ownership check on every call, the
//! read-only check, access recording, the `async` queue and its drain, the
//! sub-event list, the panic boundary around application code and the
//! certified-footprint rule.  It is the only [`InvocationHost`] in the
//! workspace: the in-process runtime, the cluster node and the simulator
//! each supply a thin [`ContextHost`] — locks and slots, `locate` and remote
//! calls, virtual-time accounting — so a contextclass program cannot tell
//! the backends apart by construction rather than by testing.
//!
//! The [`Invocation`] handed to context methods is a thin view over the
//! interpreter that exposes the operations the paper's language offers
//! inside an event: synchronous calls, `async` calls, `event` dispatch, and
//! ownership-graph mutation (creating child contexts, adding/removing
//! owners).

use crate::context::ContextObject;
use aeon_ownership::ClassGraph;
use aeon_types::{AccessMode, AeonError, Args, ClientId, ContextId, EventId, Result, Value};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// A deferred (`async`) method call, executed after the synchronous part of
/// the event finishes but before the event terminates.
#[derive(Debug, Clone)]
struct AsyncCall {
    caller: ContextId,
    target: ContextId,
    method: String,
    args: Args,
}

/// A sub-event dispatched from within an event; it becomes a fresh event
/// once its creator terminates (§3: "an event that is dispatched within
/// another event ... will execute after its creator event finishes").
#[derive(Debug, Clone, PartialEq)]
pub struct SubEvent {
    /// Target context of the new event.
    pub target: ContextId,
    /// Method to run.
    pub method: String,
    /// Arguments.
    pub args: Args,
    /// Access mode of the new event.
    pub mode: AccessMode,
}

// Sub-events travel in the cluster's `Done` and `CallReply` messages.
aeon_types::wire! { struct SubEvent { target, method, args, mode } }

/// The capability an [`Invocation`] delegates to; implemented once, by
/// [`EventBody`].
pub trait InvocationHost {
    /// Id of the running event.
    fn event_id(&self) -> EventId;

    /// Client that issued the event, if any.
    fn client(&self) -> Option<ClientId>;

    /// Access mode of the running event.
    fn mode(&self) -> AccessMode;

    /// Performs a synchronous method call from `caller` to `target`.
    fn call(
        &mut self,
        caller: ContextId,
        target: ContextId,
        method: &str,
        args: Args,
    ) -> Result<Value>;

    /// Schedules an asynchronous method call from `caller` to `target`.
    fn call_async(
        &mut self,
        caller: ContextId,
        target: ContextId,
        method: &str,
        args: Args,
    ) -> Result<()>;

    /// Dispatches a new event to start after the current one terminates.
    fn dispatch_event(
        &mut self,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<()>;

    /// Creates a new context owned by `owner`.
    fn create_child(
        &mut self,
        owner: ContextId,
        object: Box<dyn ContextObject>,
    ) -> Result<ContextId>;

    /// Adds `owner` as an owner of `owned`.
    fn add_ownership(&mut self, owner: ContextId, owned: ContextId) -> Result<()>;

    /// Removes `owner` from the owners of `owned`.
    fn remove_ownership(&mut self, owner: ContextId, owned: ContextId) -> Result<()>;

    /// Direct children of `parent`, optionally filtered by class name.
    fn children(&self, parent: ContextId, class: Option<&str>) -> Result<Vec<ContextId>>;
}

/// Identity of a running event, fixed for its lifetime.
#[derive(Debug, Clone, Copy)]
pub struct EventMeta {
    /// Id of the event.
    pub id: EventId,
    /// Client that issued it, if any.
    pub client: Option<ClientId>,
    /// Exclusive or read-only.
    pub mode: AccessMode,
}

/// How an event was admitted, which bounds what it may touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Footprint {
    /// Sequenced at the dominator of its target: it may reach everything
    /// the target (transitively) owns.
    Sequenced,
    /// Admitted *without* dominator sequencing because the analyzer
    /// certified the method `ro` with an empty `calls []` summary.  Its
    /// lock footprint must stay at the single target context: acquiring any
    /// further lock would be an unsequenced acquisition, and two such
    /// readers expanding their footprints in opposite orders around a
    /// writer could deadlock.  An attempted call therefore means the
    /// declared summary lied, and it surfaces as a hard error instead of a
    /// lock acquisition.  Read-only sub-event dispatch stays available:
    /// sub-events start as fresh, fully sequenced events after their
    /// creator terminates, so they never grow this event's footprint.
    Certified,
}

/// The methods admitted to the read-only fast path, keyed by class name:
/// `ro` methods whose declared call summary the analyzer certified as empty
/// (see [`aeon_analyzer::certified_readonly`]).  Fixed when a deployment is
/// built; empty when no class graph is installed.
#[derive(Debug, Clone, Default)]
pub struct CertifiedReads(HashMap<String, HashSet<String>>);

impl CertifiedReads {
    /// The admission set of `classes`.
    pub fn new(classes: Option<&ClassGraph>) -> Self {
        let mut certified: HashMap<String, HashSet<String>> = HashMap::new();
        if let Some(classes) = classes {
            for m in aeon_analyzer::certified_readonly(classes) {
                certified.entry(m.class).or_default().insert(m.method);
            }
        }
        Self(certified)
    }

    /// Whether no method is admitted (lets callers skip the class lookup).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// How an event running `method` of `class` in `mode` is admitted.
    pub fn admit(&self, class: &str, method: &str, mode: AccessMode) -> Footprint {
        let certified = mode.is_read_only()
            && self
                .0
                .get(class)
                .is_some_and(|methods| methods.contains(method));
        if certified {
            Footprint::Certified
        } else {
            Footprint::Sequenced
        }
    }
}

/// A locally hosted context as the interpreter sees it: the application
/// object behind its lock.
pub trait HostedObject {
    /// The application object.
    fn object(&self) -> &Mutex<Box<dyn ContextObject>>;
}

impl HostedObject for Mutex<Box<dyn ContextObject>> {
    fn object(&self) -> &Mutex<Box<dyn ContextObject>> {
        self
    }
}

/// Where [`ContextHost::enter`] found the target.
pub enum Entered {
    /// Hosted here; the event now holds its activation.
    Local(Arc<dyn HostedObject>),
    /// Hosted elsewhere; reach it with [`ContextHost::remote_call`].
    Remote,
}

/// What a backend supplies to the interpreter: where contexts live, how
/// their activations are taken, and the ownership network.  Lock release,
/// dominator sequencing and everything else about *when* an event may run
/// stay with the host's owner.
pub trait ContextHost {
    /// Whether `caller` (transitively) owns `target`.
    fn may_call(&self, caller: ContextId, target: ContextId) -> bool;

    /// Takes `target`'s activation for `event` (a no-op when the event
    /// already holds it) and hands back its object, or reports that the
    /// context lives on another server.
    fn enter(&mut self, event: &EventMeta, target: ContextId) -> Result<Entered>;

    /// Locks the object [`ContextHost::enter`] handed back.  Read-only
    /// events share an activation and take turns here, so this can wait for
    /// another reader's method frame — on the cluster, one that is itself
    /// waiting for a remote call; the cluster's host announces that wait to
    /// its pool.
    fn lock_object<'o>(
        &self,
        hosted: &'o dyn HostedObject,
    ) -> MutexGuard<'o, Box<dyn ContextObject>> {
        hosted.object().lock()
    }

    /// Serves a call to a context [`ContextHost::enter`] reported as
    /// remote; returns the callee's value and the sub-events it dispatched.
    /// `caller` is `None` for a forwarded top-level invocation.  Hosts
    /// whose contexts are all local keep the default.
    fn remote_call(
        &mut self,
        event: &EventMeta,
        caller: Option<ContextId>,
        target: ContextId,
        method: &str,
        args: &Args,
    ) -> Result<(Value, Vec<SubEvent>)> {
        let _ = (event, caller, method, args);
        Err(AeonError::internal(format!(
            "context {target} was reported remote by a host without remote contexts"
        )))
    }

    /// Reports an access of `context` by `event` to the history sink, if
    /// any.  Called under the object lock, so the per-context record order
    /// equals the order the context observed the accesses.
    fn record_access(&self, event: &EventMeta, context: ContextId);

    /// Creates a context owned by (and placed next to) `owner`.
    fn create_child(
        &mut self,
        owner: ContextId,
        object: Box<dyn ContextObject>,
    ) -> Result<ContextId>;

    /// Adds `owner` as an owner of `owned`.
    fn add_ownership(&mut self, owner: ContextId, owned: ContextId) -> Result<()>;

    /// Removes `owner` from the owners of `owned`.
    fn remove_ownership(&mut self, owner: ContextId, owned: ContextId) -> Result<()>;

    /// Direct children of `parent`, optionally filtered by class name.
    fn children(&self, parent: ContextId, class: Option<&str>) -> Result<Vec<ContextId>>;

    /// Debug-build sanitizer hook: `caller_method` (executing in `caller`)
    /// called or scheduled `target_method` on `target`.
    fn record_call_edge(
        &self,
        _caller: ContextId,
        _caller_method: &str,
        _target: ContextId,
        _target_method: &str,
    ) {
    }
}

/// What running an [`EventBody`] produced.
#[derive(Debug)]
pub struct BodyOutcome {
    /// The top-level method's result, or the first failing `async` call's
    /// error.
    pub result: Result<Value>,
    /// Sub-events to start now that the creator terminated; empty unless
    /// `result` is `Ok` — a failed event dispatches nothing.
    pub sub_events: Vec<SubEvent>,
    /// Number of `async` calls drained.
    pub async_calls: u64,
}

impl BodyOutcome {
    /// The outcome of an event that failed before its body could run.
    pub fn failed(error: AeonError) -> Self {
        Self {
            result: Err(error),
            sub_events: Vec::new(),
            async_calls: 0,
        }
    }
}

/// The running state of one event over a host.
pub struct EventBody<'h> {
    host: &'h mut dyn ContextHost,
    event: EventMeta,
    footprint: Footprint,
    /// Contexts (and, in debug builds, the method executing in each)
    /// currently on the synchronous call stack: the re-entrance guard, and
    /// the caller side of the call-summary sanitizer.
    call_stack: Vec<(ContextId, String)>,
    /// Deferred asynchronous calls.
    pending_async: VecDeque<AsyncCall>,
    /// Events dispatched from within this event.
    sub_events: Vec<SubEvent>,
}

impl<'h> EventBody<'h> {
    /// Starts the body of `event` over `host`.
    pub fn new(host: &'h mut dyn ContextHost, event: EventMeta, footprint: Footprint) -> Self {
        Self {
            host,
            event,
            footprint,
            call_stack: Vec::new(),
            pending_async: VecDeque::new(),
            sub_events: Vec::new(),
        }
    }

    /// Runs `method` on `target`, then the `async` calls it scheduled, in
    /// FIFO order.  `caller` is `None` for the event's top-level method and
    /// the calling context for a call served on behalf of an event running
    /// on another server (whose `async` calls therefore complete before the
    /// reply, not after the remote event's top-level method).
    pub fn run(
        mut self,
        caller: Option<ContextId>,
        target: ContextId,
        method: &str,
        args: &Args,
    ) -> BodyOutcome {
        let result = self.invoke(caller, target, method, args);
        self.finish(result)
    }

    fn finish(mut self, mut result: Result<Value>) -> BodyOutcome {
        let mut async_calls = 0;
        while let Some(call) = self.pending_async.pop_front() {
            async_calls += 1;
            let r = self.invoke(Some(call.caller), call.target, &call.method, &call.args);
            if result.is_ok() {
                if let Err(e) = r {
                    result = Err(e);
                }
            }
        }
        let sub_events = if result.is_ok() {
            self.sub_events
        } else {
            Vec::new()
        };
        BodyOutcome {
            result,
            sub_events,
            async_calls,
        }
    }

    /// Invokes `method` on `target`, wherever it lives.
    fn invoke(
        &mut self,
        caller: Option<ContextId>,
        target: ContextId,
        method: &str,
        args: &Args,
    ) -> Result<Value> {
        if let Some(caller) = caller {
            self.check_edge(caller, target, method)?;
        }
        // The ownership DAG is acyclic, so a well-formed application never
        // calls back into a context already on the stack.
        if self.call_stack.iter().any(|(c, _)| *c == target) {
            return Err(AeonError::internal(format!(
                "re-entrant call into context {target} within event {}",
                self.event.id
            )));
        }
        let dispatched = self.sub_events.len();
        let result = match self.host.enter(&self.event, target)? {
            Entered::Local(hosted) => {
                let mut object = self.host.lock_object(&*hosted);
                self.execute(&mut **object, target, method, args)
            }
            // The certificate was granted for a target hosted here; the
            // server it moved to would serve this as an ordinary call,
            // with nothing holding it to the certified footprint.
            Entered::Remote if self.footprint == Footprint::Certified => {
                Err(AeonError::MigrationInProgress(target))
            }
            Entered::Remote => self
                .host
                .remote_call(&self.event, caller, target, method, args)
                .map(|(value, sub_events)| {
                    self.sub_events.extend(sub_events);
                    value
                }),
        };
        // A failed call dispatches nothing, whether it ran here or on
        // another server (whose reply carries no sub-events on failure).
        if result.is_err() {
            self.sub_events.truncate(dispatched);
        }
        result
    }

    /// Runs `method` on the locked `object` of `target`.
    fn execute(
        &mut self,
        object: &mut dyn ContextObject,
        target: ContextId,
        method: &str,
        args: &Args,
    ) -> Result<Value> {
        self.host.record_access(&self.event, target);
        if self.event.mode.is_read_only() && !object.is_readonly(method) {
            return Err(AeonError::ReadOnlyViolation {
                context: target,
                method: method.to_string(),
            });
        }
        let frame = if cfg!(debug_assertions) {
            method.to_string()
        } else {
            String::new()
        };
        self.call_stack.push((target, frame));
        // A panicking contextclass method must not kill the worker or leave
        // the event's locks activated forever: it fails the call like any
        // other error, and the host's owner releases as usual.  (State
        // changes applied before the panic are the application's
        // responsibility, as with any aborted unwind.)
        let mut outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut invocation = Invocation::new(self, target);
            object.handle(method, args, &mut invocation)
        }))
        .unwrap_or_else(|payload| Err(AeonError::from_panic(payload)));
        self.call_stack.pop();
        // `Args::get_*` cannot name the method it serves; this is the method.
        // A nested call's error was named by its own frame and keeps it.
        if let Err(AeonError::BadArguments { method: name, .. }) = &mut outcome {
            if name.is_empty() {
                *name = method.to_string();
            }
        }
        outcome
    }

    /// Calls may only go along (transitive) ownership edges (§3).  In
    /// debug builds an allowed edge is also reported to the call-summary
    /// sanitizer: it belongs to the method executing in `caller` right now
    /// (`async` calls drain with an empty stack, having been reported when
    /// they were scheduled).
    fn check_edge(&self, caller: ContextId, target: ContextId, method: &str) -> Result<()> {
        if !self.host.may_call(caller, target) {
            return Err(AeonError::ownership(caller, target));
        }
        if cfg!(debug_assertions) {
            if let Some((top, top_method)) = self.call_stack.last() {
                if *top == caller {
                    self.host
                        .record_call_edge(caller, top_method, target, method);
                }
            }
        }
        Ok(())
    }

    /// Refuses a call made or scheduled by a certified event.
    fn check_footprint(&self, caller: ContextId, target: ContextId, method: &str) -> Result<()> {
        if self.footprint == Footprint::Certified {
            return Err(AeonError::internal(format!(
                "read-only fast path: context {caller} attempted a call to {target}::{method}, \
                 but its method was certified on an empty `calls []` summary"
            )));
        }
        Ok(())
    }

    /// Refuses ownership-network mutation from a certified event.  Reached
    /// only if a host consumer bypasses [`Invocation`], which rejects
    /// mutation from any read-only event first.
    fn check_mutation(&self, context: ContextId, operation: &str) -> Result<()> {
        if self.footprint == Footprint::Certified {
            return Err(AeonError::ReadOnlyViolation {
                context,
                method: operation.into(),
            });
        }
        Ok(())
    }
}

impl InvocationHost for EventBody<'_> {
    fn event_id(&self) -> EventId {
        self.event.id
    }

    fn client(&self) -> Option<ClientId> {
        self.event.client
    }

    fn mode(&self) -> AccessMode {
        self.event.mode
    }

    fn call(
        &mut self,
        caller: ContextId,
        target: ContextId,
        method: &str,
        args: Args,
    ) -> Result<Value> {
        self.check_footprint(caller, target, method)?;
        self.invoke(Some(caller), target, method, &args)
    }

    fn call_async(
        &mut self,
        caller: ContextId,
        target: ContextId,
        method: &str,
        args: Args,
    ) -> Result<()> {
        self.check_footprint(caller, target, method)?;
        // Checked eagerly so the programming error surfaces at the call
        // site, and again when the call drains.
        self.check_edge(caller, target, method)?;
        self.pending_async.push_back(AsyncCall {
            caller,
            target,
            method: method.to_string(),
            args,
        });
        Ok(())
    }

    fn dispatch_event(
        &mut self,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<()> {
        self.sub_events.push(SubEvent {
            target,
            method: method.to_string(),
            args,
            mode,
        });
        Ok(())
    }

    fn create_child(
        &mut self,
        owner: ContextId,
        object: Box<dyn ContextObject>,
    ) -> Result<ContextId> {
        self.check_mutation(owner, "create_child")?;
        self.host.create_child(owner, object)
    }

    fn add_ownership(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.check_mutation(owner, "add_ownership")?;
        self.host.add_ownership(owner, owned)
    }

    fn remove_ownership(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.check_mutation(owner, "remove_ownership")?;
        self.host.remove_ownership(owner, owned)
    }

    fn children(&self, parent: ContextId, class: Option<&str>) -> Result<Vec<ContextId>> {
        self.host.children(parent, class)
    }
}

/// The capability handed to [`ContextObject::handle`]: everything a context
/// method may do with the rest of the system while an event executes in it.
pub struct Invocation<'a> {
    host: &'a mut dyn InvocationHost,
    current: ContextId,
}

impl<'a> Invocation<'a> {
    /// Creates an invocation view for `current` on top of a host engine.
    ///
    /// This is called by execution engines (the in-process runtime, the
    /// distributed cluster); application code only ever receives a ready
    /// `&mut Invocation`.
    pub fn new(host: &'a mut dyn InvocationHost, current: ContextId) -> Self {
        Self { host, current }
    }

    /// The context currently executing.
    pub fn self_id(&self) -> ContextId {
        self.current
    }

    /// The id of the running event.
    pub fn event_id(&self) -> EventId {
        self.host.event_id()
    }

    /// The client that issued the event, if any.
    pub fn client(&self) -> Option<ClientId> {
        self.host.client()
    }

    /// Whether the running event is read-only.
    pub fn is_read_only(&self) -> bool {
        self.host.mode().is_read_only()
    }

    /// Performs a synchronous method call on a context owned (directly or
    /// transitively) by the current context, waiting for its result.
    ///
    /// # Errors
    ///
    /// * [`AeonError::OwnershipViolation`] when the current context does not
    ///   own `target`.
    /// * Whatever error the callee returns.
    pub fn call(&mut self, target: ContextId, method: &str, args: Args) -> Result<Value> {
        self.host.call(self.current, target, method, args)
    }

    /// Schedules an asynchronous (`async`-decorated) method call on an owned
    /// context.  The call executes before the event terminates, but the
    /// caller does not wait for it; its return value is discarded.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::OwnershipViolation`] when the current context
    /// does not own `target` (checked eagerly so the programming error
    /// surfaces at the call site).
    pub fn call_async(&mut self, target: ContextId, method: &str, args: Args) -> Result<()> {
        self.host.call_async(self.current, target, method, args)
    }

    /// Dispatches a new event from within this event.  The new event starts
    /// only after the current event has terminated and is sequenced like any
    /// client event.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ReadOnlyViolation`] when called from a read-only
    /// event (a read-only event must not cause state changes).
    pub fn dispatch_event(&mut self, target: ContextId, method: &str, args: Args) -> Result<()> {
        self.dispatch_event_with_mode(target, method, args, AccessMode::Exclusive)
    }

    /// Dispatches a new read-only event from within this event.
    pub fn dispatch_readonly_event(
        &mut self,
        target: ContextId,
        method: &str,
        args: Args,
    ) -> Result<()> {
        self.dispatch_event_with_mode(target, method, args, AccessMode::ReadOnly)
    }

    fn dispatch_event_with_mode(
        &mut self,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<()> {
        if self.host.mode().is_read_only() && mode.is_exclusive() {
            return Err(AeonError::ReadOnlyViolation {
                context: self.current,
                method: method.to_string(),
            });
        }
        self.host.dispatch_event(target, method, args, mode)
    }

    /// Creates a new context owned by the current context and returns its
    /// id.  The ownership graph is updated atomically; the new context is
    /// placed on the same server as its owner (locality by default, as the
    /// paper's runtime does for Rooms/Players/Items).
    ///
    /// # Errors
    ///
    /// * [`AeonError::ReadOnlyViolation`] from read-only events.
    /// * [`AeonError::OwnershipViolation`] if the class constraints forbid
    ///   this parent/child pair.
    pub fn create_child(&mut self, object: Box<dyn ContextObject>) -> Result<ContextId> {
        if self.host.mode().is_read_only() {
            return Err(AeonError::ReadOnlyViolation {
                context: self.current,
                method: "create_child".into(),
            });
        }
        self.host.create_child(self.current, object)
    }

    /// Adds the current context as an owner of `owned` (sharing state).
    ///
    /// # Errors
    ///
    /// * [`AeonError::ReadOnlyViolation`] from read-only events.
    /// * [`AeonError::CycleDetected`] / [`AeonError::OwnershipViolation`]
    ///   when the edge would violate the DAG or the class constraints.
    pub fn add_ownership(&mut self, owned: ContextId) -> Result<()> {
        if self.host.mode().is_read_only() {
            return Err(AeonError::ReadOnlyViolation {
                context: self.current,
                method: "add_ownership".into(),
            });
        }
        self.host.add_ownership(self.current, owned)
    }

    /// Removes the current context from the owners of `owned`.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ReadOnlyViolation`] from read-only events.
    /// * [`AeonError::ContextNotFound`] when `owned` is unknown.
    pub fn remove_ownership(&mut self, owned: ContextId) -> Result<()> {
        if self.host.mode().is_read_only() {
            return Err(AeonError::ReadOnlyViolation {
                context: self.current,
                method: "remove_ownership".into(),
            });
        }
        self.host.remove_ownership(self.current, owned)
    }

    /// The direct children (owned contexts) of the current context,
    /// optionally filtered by contextclass name.
    ///
    /// This mirrors the paper's `children[Room]` syntax in Listing 1.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] if the current context has
    /// been removed concurrently.
    pub fn children(&self, class: Option<&str>) -> Result<Vec<ContextId>> {
        self.host.children(self.current, class)
    }
}

impl std::fmt::Debug for Invocation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Invocation")
            .field("event", &self.host.event_id())
            .field("current", &self.current)
            .field("mode", &self.host.mode())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    //! The interpreter over an in-memory fake host — the substitution
    //! [`ContextHost`] exists to allow.  Every rule here holds on every
    //! backend because no backend has a second copy of it.

    use super::*;
    use aeon_types::args;

    type Log = Arc<Mutex<Vec<String>>>;

    /// All contexts local (except those listed in `remote`), no locks, and
    /// a record of what the interpreter asked for.
    #[derive(Default)]
    struct FakeHost {
        objects: HashMap<ContextId, Arc<Mutex<Box<dyn ContextObject>>>>,
        remote: HashSet<ContextId>,
        remote_calls: Vec<(Option<ContextId>, ContextId, String)>,
        entered: Vec<ContextId>,
        mutations: Vec<&'static str>,
    }

    impl FakeHost {
        fn with_probes(n: u64) -> (Self, Log) {
            let log = Log::default();
            let mut host = FakeHost::default();
            for raw in 1..=n {
                let probe = Probe {
                    log: Arc::clone(&log),
                };
                host.objects
                    .insert(cx(raw), Arc::new(Mutex::new(Box::new(probe))));
            }
            (host, log)
        }
    }

    impl ContextHost for FakeHost {
        fn may_call(&self, _caller: ContextId, _target: ContextId) -> bool {
            true
        }

        fn enter(&mut self, _event: &EventMeta, target: ContextId) -> Result<Entered> {
            if self.remote.contains(&target) {
                return Ok(Entered::Remote);
            }
            self.entered.push(target);
            self.objects
                .get(&target)
                .map(|object| Entered::Local(Arc::clone(object) as Arc<dyn HostedObject>))
                .ok_or(AeonError::ContextNotFound(target))
        }

        fn remote_call(
            &mut self,
            _event: &EventMeta,
            caller: Option<ContextId>,
            target: ContextId,
            method: &str,
            _args: &Args,
        ) -> Result<(Value, Vec<SubEvent>)> {
            self.remote_calls.push((caller, target, method.to_string()));
            let dispatched = SubEvent {
                target,
                method: "note".into(),
                args: args!["from-remote"],
                mode: AccessMode::Exclusive,
            };
            Ok((Value::from(7i64), vec![dispatched]))
        }

        fn record_access(&self, _event: &EventMeta, _context: ContextId) {}

        fn create_child(
            &mut self,
            _owner: ContextId,
            _object: Box<dyn ContextObject>,
        ) -> Result<ContextId> {
            self.mutations.push("create_child");
            Ok(cx(99))
        }

        fn add_ownership(&mut self, _owner: ContextId, _owned: ContextId) -> Result<()> {
            self.mutations.push("add_ownership");
            Ok(())
        }

        fn remove_ownership(&mut self, _owner: ContextId, _owned: ContextId) -> Result<()> {
            self.mutations.push("remove_ownership");
            Ok(())
        }

        fn children(&self, _parent: ContextId, _class: Option<&str>) -> Result<Vec<ContextId>> {
            Ok(Vec::new())
        }
    }

    /// A scripted contextclass: each method exercises one interpreter rule.
    /// Context arguments name the peers a method talks to.
    struct Probe {
        log: Log,
    }

    impl ContextObject for Probe {
        fn class_name(&self) -> &str {
            "Probe"
        }

        fn is_readonly(&self, method: &str) -> bool {
            matches!(method, "peek" | "lie_call" | "lie_async" | "ro_dispatch")
        }

        fn handle(&mut self, method: &str, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
            match method {
                "note" => {
                    self.log.lock().push(args.get_str(0)?.to_string());
                    Ok(Value::Null)
                }
                "peek" => Ok(Value::Null),
                "fail" => Err(AeonError::app(args.get_str(0)?)),
                "panic" => panic!("kaboom"),
                // Schedules three async calls on args[0], the middle two
                // failing, then finishes its own synchronous part.
                "fan_out" => {
                    let peer = args.get_context(0)?;
                    inv.call_async(peer, "note", args!["async-1"])?;
                    inv.call_async(peer, "fail", args!["first"])?;
                    inv.call_async(peer, "fail", args!["second"])?;
                    inv.call_async(peer, "note", args!["async-2"])?;
                    self.log.lock().push("top-level done".into());
                    Ok(Value::Null)
                }
                // Calls args[0], which calls back into this context.
                "reenter" => inv.call(args.get_context(0)?, "call_back", args![inv.self_id()]),
                "call_back" => inv.call(args.get_context(0)?, "note", args!["re-entered"]),
                "dispatch" => {
                    inv.dispatch_event(args.get_context(0)?, "note", args!["sub"])?;
                    Ok(Value::Null)
                }
                "dispatch_then_fail" => {
                    inv.dispatch_event(args.get_context(0)?, "note", args!["sub"])?;
                    Err(AeonError::app("after dispatch"))
                }
                // Dispatches, then swallows the failure of a callee that
                // dispatched too.
                "dispatch_and_swallow" => {
                    let peer = args.get_context(0)?;
                    inv.dispatch_event(peer, "note", args!["kept"])?;
                    let _ = inv.call(peer, "dispatch_then_fail", args![peer]);
                    Ok(Value::Null)
                }
                "relay" => inv.call(args.get_context(0)?, "peek", args![]),
                "lie_call" => inv.call(args.get_context(0)?, "peek", args![]),
                "lie_async" => inv
                    .call_async(args.get_context(0)?, "peek", args![])
                    .map(|()| Value::Null),
                "ro_dispatch" => inv
                    .dispatch_readonly_event(args.get_context(0)?, "peek", args![])
                    .map(|()| Value::Null),
                other => Err(AeonError::UnknownMethod {
                    class: "Probe".into(),
                    method: other.into(),
                }),
            }
        }
    }

    fn cx(raw: u64) -> ContextId {
        ContextId::new(raw)
    }

    fn event(mode: AccessMode) -> EventMeta {
        EventMeta {
            id: EventId::new(1),
            client: Some(ClientId::new(5)),
            mode,
        }
    }

    fn run(host: &mut FakeHost, mode: AccessMode, method: &str, args: Args) -> BodyOutcome {
        let footprint = match mode {
            AccessMode::Exclusive => Footprint::Sequenced,
            AccessMode::ReadOnly => Footprint::Certified,
        };
        EventBody::new(host, event(mode), footprint).run(None, cx(1), method, &args)
    }

    #[test]
    fn async_calls_drain_fifo_after_the_top_level_method_and_the_first_error_wins() {
        let (mut host, log) = FakeHost::with_probes(2);
        let outcome = run(&mut host, AccessMode::Exclusive, "fan_out", args![cx(2)]);
        assert_eq!(
            *log.lock(),
            ["top-level done", "async-1", "async-2"],
            "every async call runs, in order, after the synchronous part"
        );
        assert_eq!(outcome.async_calls, 4);
        assert_eq!(outcome.result, Err(AeonError::app("first")));
    }

    #[test]
    fn a_reentrant_call_is_rejected() {
        let (mut host, log) = FakeHost::with_probes(2);
        let err = run(&mut host, AccessMode::Exclusive, "reenter", args![cx(2)])
            .result
            .unwrap_err();
        assert!(err.to_string().contains("re-entrant"), "{err}");
        assert!(log.lock().is_empty());
        assert_eq!(
            host.entered,
            [cx(1), cx(2)],
            "the third entry never happens"
        );
    }

    #[test]
    fn a_read_only_event_cannot_reach_a_non_ro_method() {
        let (mut host, log) = FakeHost::with_probes(1);
        let body = EventBody::new(&mut host, event(AccessMode::ReadOnly), Footprint::Sequenced);
        let outcome = body.run(None, cx(1), "note", &args!["written"]);
        assert_eq!(
            outcome.result,
            Err(AeonError::ReadOnlyViolation {
                context: cx(1),
                method: "note".into(),
            })
        );
        assert!(log.lock().is_empty());
    }

    #[test]
    fn a_panic_fails_the_call_and_unwinds_the_call_stack() {
        let (mut host, _log) = FakeHost::with_probes(2);
        let mut body = EventBody::new(
            &mut host,
            event(AccessMode::Exclusive),
            Footprint::Sequenced,
        );
        let err = body.invoke(None, cx(1), "panic", &args![]).unwrap_err();
        assert!(matches!(&err, AeonError::Panicked { reason } if reason.contains("kaboom")));
        assert!(body.call_stack.is_empty());
        // The body stays usable: the panic was an ordinary failed call.
        assert_eq!(body.invoke(None, cx(2), "peek", &args![]), Ok(Value::Null));
    }

    #[test]
    fn a_failed_body_yields_no_sub_events() {
        let (mut host, _log) = FakeHost::with_probes(2);
        let ok = run(&mut host, AccessMode::Exclusive, "dispatch", args![cx(2)]);
        assert_eq!(ok.sub_events.len(), 1);
        let failed = run(
            &mut host,
            AccessMode::Exclusive,
            "dispatch_then_fail",
            args![cx(2)],
        );
        assert!(failed.result.is_err());
        assert!(failed.sub_events.is_empty());
        // The same rule one level down: a failed call contributes nothing
        // even when its caller carries on.
        let swallowed = run(
            &mut host,
            AccessMode::Exclusive,
            "dispatch_and_swallow",
            args![cx(2)],
        );
        assert!(swallowed.result.is_ok());
        let kept: Vec<&Args> = swallowed.sub_events.iter().map(|s| &s.args).collect();
        assert_eq!(kept, [&args!["kept"]]);
    }

    #[test]
    fn a_remote_context_is_reached_through_the_host() {
        let (mut host, _log) = FakeHost::with_probes(1);
        host.remote.insert(cx(2));
        let outcome = run(&mut host, AccessMode::Exclusive, "relay", args![cx(2)]);
        assert_eq!(outcome.result, Ok(Value::from(7i64)));
        assert_eq!(
            host.remote_calls,
            [(Some(cx(1)), cx(2), "peek".to_string())]
        );
        assert_eq!(
            outcome.sub_events.len(),
            1,
            "the callee's dispatches are merged"
        );
    }

    #[test]
    fn a_certified_footprint_stays_at_its_target() {
        let (mut host, _log) = FakeHost::with_probes(2);
        for method in ["lie_call", "lie_async"] {
            let err = run(&mut host, AccessMode::ReadOnly, method, args![cx(2)])
                .result
                .unwrap_err();
            assert!(err.to_string().contains("calls []"), "{method}: {err}");
        }
        assert_eq!(
            host.entered,
            [cx(1), cx(1)],
            "no second context was entered"
        );

        // Nor does a certified event follow its target to another server.
        host.remote.insert(cx(2));
        let body = EventBody::new(&mut host, event(AccessMode::ReadOnly), Footprint::Certified);
        let moved = body.run(None, cx(2), "peek", &args![]);
        assert_eq!(moved.result, Err(AeonError::MigrationInProgress(cx(2))));
        assert!(host.remote_calls.is_empty());

        // `Invocation` rejects mutation from any read-only event; the
        // footprint still refuses it for a consumer that bypasses it.
        let mut body = EventBody::new(&mut host, event(AccessMode::ReadOnly), Footprint::Certified);
        let child = Box::new(Probe {
            log: Log::default(),
        });
        assert!(body.create_child(cx(1), child).is_err());
        assert!(body.add_ownership(cx(1), cx(2)).is_err());
        assert!(body.remove_ownership(cx(1), cx(2)).is_err());
        assert!(host.mutations.is_empty());

        // Read-only sub-events never grow the footprint, so they stay
        // available; the same mutations pass on a sequenced event.
        let outcome = run(&mut host, AccessMode::ReadOnly, "ro_dispatch", args![cx(2)]);
        assert_eq!(outcome.result, Ok(Value::Null));
        assert_eq!(outcome.sub_events.len(), 1);
        let mut body = EventBody::new(
            &mut host,
            event(AccessMode::Exclusive),
            Footprint::Sequenced,
        );
        body.add_ownership(cx(1), cx(2)).unwrap();
        assert_eq!(host.mutations, ["add_ownership"]);
    }
}
