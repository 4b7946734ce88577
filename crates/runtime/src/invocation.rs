//! The event interpreter: everything about *what one event may do* that does
//! not depend on *where contexts live*.
//!
//! [`EventBody`] runs one event (or one call served on behalf of a remote
//! event) over a [`ContextHost`].  It owns the event's identity, its call
//! stack with the re-entrance guard, the ownership check on every call, the
//! read-only check, access recording, the `async` queue and its drain, the
//! sub-event list, the panic boundary around application code and the
//! certified-footprint rule and the top-down path a call takes to a context
//! it owns only transitively (Algorithm 2's `activatePath`).  It is written
//! once for the workspace: the in-process runtime (which the simulator
//! runs on) and the cluster node each supply a thin [`ContextHost`] —
//! activations and slots, remote calls, the move of a migration — so a
//! contextclass program cannot tell the backends apart by construction
//! rather than by testing.  What the interpreter asks the control plane (a
//! call's path of owners, a cut's members, children, edge edits) is one
//! [`DirOp`] to [`ContextHost::ask`], answered on every backend by the one
//! `ControlState::answer`; a local context is a [`ContextSlot`] on every
//! backend.
//!
//! The [`Invocation`] handed to context methods is the interpreter for the
//! length of one method frame, exposing the operations the paper's
//! language offers inside an event: synchronous calls, `async` calls,
//! `event` dispatch, and ownership-graph mutation (creating child contexts,
//! adding/removing owners).
//!
//! The interpreter also serves four reserved methods, `ENTER_METHOD`,
//! [`SNAPSHOT_METHOD`], [`RESTORE_METHOD`] and [`MIGRATE_METHOD`], before any
//! context object sees the call, so no contextclass can declare them.  A
//! consistent snapshot of a subtree (§5.3), its restore and a context's
//! migration (§5.2) are thereby ordinary events: every backend sequences,
//! executes and records them the way it does any other event, and supplies
//! only the move itself ([`ContextHost::migrate`]).

use crate::context::{ContextObject, ContextSlot};
use crate::deployment::{DirOp, DirReply};
use crate::snapshot::Snapshot;
use aeon_ownership::ClassGraph;
use aeon_types::{
    codec, AccessMode, AeonError, Args, ClientId, ContextId, EventId, Result, ServerId, Value,
};
use parking_lot::MutexGuard;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// The reserved method of a snapshot event (read-only, on the root of the
/// subtree): returns the [`Snapshot`] of the subtree as a [`Value`].
pub const SNAPSHOT_METHOD: &str = "@snapshot";

/// The reserved method of a restore event (exclusive, on the root of the
/// subtree, with a [`Snapshot`] as its one argument): returns the list of
/// the contexts it restored.
pub const RESTORE_METHOD: &str = "@restore";

/// The reserved method that only enters its context: a call of it takes
/// the context's activation for the calling event and returns `Null`.  A
/// call that skips an ownership level enters the owners between with it,
/// and a restore its cut's members before it writes any.
pub(crate) const ENTER_METHOD: &str = "@enter";

/// The reserved method of a migration event (exclusive, on the context,
/// with the destination server's id as its one argument): returns the
/// number of bytes of serialised state moved.
pub const MIGRATE_METHOD: &str = "@migrate";

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

/// Where [`ContextHost::enter`] found the target.
pub enum Entered {
    /// Hosted here; the event now holds its activation.
    Local(Arc<ContextSlot>),
    /// Hosted on this server elsewhere; reach it there with
    /// [`ContextHost::remote_call`].
    Remote(ServerId),
}

/// What a backend supplies to the interpreter: where contexts live, how
/// their activations are taken, and its way to the control plane.
/// Sequencing, lock release and everything else about *when* an event may
/// run stay with the host's owner (on the runtime and the cluster, their
/// `ServerCore`).
pub trait ContextHost {
    /// Answers `op` from the deployment's control plane — its ownership
    /// network and placement — with [`ControlState::answer`], here or where
    /// the plane is.  The interpreter asks for a call's path of owners
    /// ([`DirOp::PathOwners`]), a cut's members ([`DirOp::Subtree`]), a
    /// context's children and a method's edge edits.
    ///
    /// # Errors
    ///
    /// The plane's refusal of `op`, or why the plane could not be asked.
    ///
    /// [`ControlState::answer`]: crate::ControlState::answer
    fn ask(&self, op: DirOp) -> Result<DirReply>;

    /// Takes `target`'s activation for `event` (a no-op when the event
    /// already holds it) and hands back its object, or reports that the
    /// context lives on another server.
    fn enter(&mut self, event: &EventMeta, target: ContextId) -> Result<Entered>;

    /// Whether `event` holds `context`'s activation already: here, or on
    /// another server by a call made through this host.
    fn holds(&self, event: &EventMeta, context: ContextId) -> bool;

    /// Locks the object [`ContextHost::enter`] handed back.  Read-only
    /// events share an activation and take turns here, so this can wait for
    /// another reader's method frame — one that may itself be waiting for
    /// work queued on a pool; the runtime's and the cluster's hosts announce
    /// that wait to their pools.
    fn lock_object<'o>(&self, slot: &'o ContextSlot) -> MutexGuard<'o, Box<dyn ContextObject>>;

    /// Serves a call to a context [`ContextHost::enter`] reported as
    /// remote, on the `server` it named; returns the callee's value and the
    /// sub-events it dispatched.  `caller` is `None` for a forwarded
    /// top-level invocation.  Hosts whose contexts are all local keep the
    /// default.
    fn remote_call(
        &mut self,
        event: &EventMeta,
        server: ServerId,
        caller: Option<ContextId>,
        target: ContextId,
        method: &str,
        args: &Args,
    ) -> Result<(Value, Vec<SubEvent>)> {
        let _ = (event, server, caller, method, args);
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

    /// Moves `target` to server `to`: the running event holds it
    /// exclusively, `object` is its locked object and `state` its snapshot.
    /// A host without servers rebuilds the object through its class
    /// factory, if one is registered; a host with them ships `state` and
    /// hands every waiter still queued on `target` over to the new host.
    /// Either way the placement names `to` afterwards.  Runs under the
    /// panic boundary (a class factory is application code).
    fn migrate(
        &mut self,
        target: ContextId,
        object: &mut Box<dyn ContextObject>,
        state: Value,
        to: ServerId,
    ) -> Result<()>;

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
    state: BodyState,
}

/// What an event accumulates while it runs.  Each method frame's
/// [`Invocation`] carries it and hands it back.
#[derive(Default)]
struct BodyState {
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
            state: BodyState::default(),
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
        let mut result = self.invoke(caller, target, method, args);
        let mut async_calls = 0;
        while let Some(call) = self.state.pending_async.pop_front() {
            async_calls += 1;
            let r = self.invoke(Some(call.caller), call.target, &call.method, &call.args);
            if result.is_ok() {
                if let Err(e) = r {
                    result = Err(e);
                }
            }
        }
        let sub_events = if result.is_ok() {
            self.state.sub_events
        } else {
            Vec::new()
        };
        BodyOutcome {
            result,
            sub_events,
            async_calls,
        }
    }

    /// Asks the host's control plane `op`, unpacked into what it asks for.
    fn ask<T: TryFrom<DirReply, Error = AeonError>>(&self, op: DirOp) -> Result<T> {
        self.host.ask(op).and_then(T::try_from)
    }

    /// Invokes `method` on `target`, wherever it lives.
    fn invoke(
        &mut self,
        caller: Option<ContextId>,
        target: ContextId,
        method: &str,
        args: &Args,
    ) -> Result<Value> {
        let from = match caller {
            Some(caller) => Some(self.open_path(caller, target, method)?),
            None => None,
        };
        // The ownership DAG is acyclic, so a well-formed application never
        // calls back into a context already on the stack.
        if self.state.call_stack.iter().any(|(c, _)| *c == target) {
            return Err(AeonError::internal(format!(
                "re-entrant call into context {target} within event {}",
                self.event.id
            )));
        }
        let dispatched = self.state.sub_events.len();
        let result = match self.host.enter(&self.event, target)? {
            Entered::Local(hosted) => match method {
                ENTER_METHOD => Ok(Value::Null),
                SNAPSHOT_METHOD | RESTORE_METHOD => {
                    self.serve_reserved(caller, target, hosted, method, args)
                }
                MIGRATE_METHOD => self.serve_migrate(caller, target, &hosted, args),
                _ => {
                    let mut object = self.host.lock_object(&hosted);
                    self.execute(&mut **object, target, method, args)
                }
            },
            // The certificate was granted for a target hosted here; the
            // server it moved to would serve this as an ordinary call,
            // with nothing holding it to the certified footprint.
            Entered::Remote(_) if self.footprint == Footprint::Certified => {
                Err(AeonError::MigrationInProgress(target))
            }
            Entered::Remote(server) => self
                .host
                .remote_call(&self.event, server, from, target, method, args)
                .map(|(value, sub_events)| {
                    self.state.sub_events.extend(sub_events);
                    value
                }),
        };
        // A failed call dispatches nothing, whether it ran here or on
        // another server (whose reply carries no sub-events on failure).
        if result.is_err() {
            self.state.sub_events.truncate(dispatched);
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
        self.state.call_stack.push((target, frame));
        // The method's frame borrows the host and carries the event's state,
        // which comes back here when the method returns or panics.
        let mut invocation = Invocation {
            body: EventBody {
                host: &mut *self.host,
                event: self.event,
                footprint: self.footprint,
                state: std::mem::take(&mut self.state),
            },
            current: target,
        };
        // A panicking contextclass method must not kill the worker or leave
        // the event's locks activated forever: it fails the call like any
        // other error, and the host's owner releases as usual.  (State
        // changes applied before the panic are the application's
        // responsibility, as with any aborted unwind.)
        let mut outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            object.handle(method, args, &mut invocation)
        }))
        .unwrap_or_else(|payload| Err(AeonError::from_panic(payload)));
        self.state = invocation.body.state;
        self.state.call_stack.pop();
        // `Args::get_*` cannot name the method it serves; this is the method.
        // A nested call's error was named by its own frame and keeps it.
        if let Err(AeonError::BadArguments { method: name, .. }) = &mut outcome {
            if name.is_empty() {
                *name = method.to_string();
            }
        }
        outcome
    }

    /// Serves a reserved method on `target`, which this event has entered.
    /// As the event's top-level method, `target` is the root of a cut: its
    /// subtree is listed through the host owner before owned — the order
    /// that keeps entering it deadlock-free against events in flight — and
    /// every other member is entered by a call from the root, wherever it
    /// lives.  A snapshot captures each member as it enters it; a restore
    /// enters every member first (`ENTER_METHOD`) and writes only then,
    /// so a member that vanished fails it before any state changed.  Called
    /// from the root, `target` is one member: captured, or written
    /// (`args[0]` is its state).
    fn serve_reserved(
        &mut self,
        caller: Option<ContextId>,
        target: ContextId,
        hosted: Arc<ContextSlot>,
        method: &str,
        args: &Args,
    ) -> Result<Value> {
        let restore = method == RESTORE_METHOD;
        if restore && self.event.mode.is_read_only() {
            return Err(AeonError::ReadOnlyViolation {
                context: target,
                method: method.to_string(),
            });
        }
        if caller.is_some() {
            return self.serve_member(target, &hosted, args.get(0).filter(|_| restore));
        }
        // A cut enters many contexts, which a certified event may not.
        self.check_footprint(target, target, method)?;
        let members: Vec<ContextId> = self.ask(DirOp::Subtree(target))?;
        let at = |body: &mut Self, member: ContextId, method: &str, state: Option<&Value>| {
            if member == target {
                return body.serve_member(target, &hosted, state);
            }
            let args = state.map_or_else(Args::empty, |state| Args::new(vec![state.clone()]));
            body.invoke(Some(target), member, method, &args)
        };
        if !restore {
            let mut snapshot = Snapshot::new(target);
            for member in members {
                if let Some([class, state]) = at(self, member, method, None)?.as_list() {
                    let class = class.as_str().unwrap_or_default();
                    snapshot.insert(member, class, state.clone());
                }
            }
            return Ok(snapshot.to_value());
        }
        let snapshot = Snapshot::from_value(args.get(0).unwrap_or(&Value::Null))?;
        for member in members.iter().filter(|member| **member != target) {
            at(self, *member, ENTER_METHOD, None)?;
        }
        let mut restored = Vec::new();
        for member in members {
            if let Some(entry) = snapshot.get(member) {
                at(self, member, method, Some(&entry.state))?;
                restored.push(member);
            }
        }
        Ok(Value::from(restored))
    }

    /// One member's share of a cut: `state` written into it, or without
    /// one its `[class, state]` (`Null` when the context opts out of
    /// snapshots).
    fn serve_member(
        &self,
        target: ContextId,
        hosted: &ContextSlot,
        state: Option<&Value>,
    ) -> Result<Value> {
        let mut object = self.host.lock_object(hosted);
        self.host.record_access(&self.event, target);
        // `snapshot` and `restore` are application code, behind the same
        // panic boundary as a method.
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match state {
            Some(state) => {
                object.restore(state);
                Value::Null
            }
            None => match object.snapshot() {
                Value::Null => Value::Null,
                state => Value::from(vec![Value::from(object.class_name()), state]),
            },
        }))
        .map_err(AeonError::from_panic)
    }

    /// Moves `target`, which this exclusive event has entered, to the server
    /// `args[0]` names: captures its state under the object lock, records
    /// the access, and leaves the move to the host.  Only an event's
    /// top-level method moves its target.
    fn serve_migrate(
        &mut self,
        caller: Option<ContextId>,
        target: ContextId,
        hosted: &ContextSlot,
        args: &Args,
    ) -> Result<Value> {
        if self.event.mode.is_read_only() {
            return Err(AeonError::ReadOnlyViolation {
                context: target,
                method: MIGRATE_METHOD.into(),
            });
        }
        if caller.is_some() {
            return Err(AeonError::internal(format!(
                "{MIGRATE_METHOD} moves only the target of the event it is the method of"
            )));
        }
        let to = u32::try_from(args.get_i64(0)?)
            .map(ServerId::new)
            .map_err(|_| AeonError::BadArguments {
                method: MIGRATE_METHOD.into(),
                reason: "not a server id".into(),
            })?;
        let mut object = self.host.lock_object(hosted);
        self.host.record_access(&self.event, target);
        let host = &mut *self.host;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let state = object.snapshot();
            let moved = Value::from(codec::encoded_len(&state));
            host.migrate(target, &mut object, state, to).map(|()| moved)
        }))
        .unwrap_or_else(|payload| Err(AeonError::from_panic(payload)))
    }

    /// Calls go along (transitive) ownership edges only (§3), and take the
    /// path of them top-down (Algorithm 2's `activatePath`): unless
    /// `caller` owns `target` directly or the event already holds one of
    /// the target's owners below `caller`, the lowest-id such owner is
    /// entered first, from `caller` — so recursively up to it.  Returns the owner
    /// the call reaches `target` from (`caller` for a direct edge): a call
    /// to another server is sent from there, so the serving node sees one
    /// edge.  A call (not an entry) is also reported to the call-summary
    /// sanitizer.
    fn open_path(
        &mut self,
        caller: ContextId,
        target: ContextId,
        method: &str,
    ) -> Result<ContextId> {
        let owners: Vec<ContextId> = self.ask(DirOp::PathOwners(caller, target))?;
        if method != ENTER_METHOD {
            self.report_edge(caller, target, method);
        }
        let Some(&lowest) = owners.first() else {
            return Ok(caller);
        };
        if let Some(held) = owners.iter().find(|o| self.host.holds(&self.event, **o)) {
            return Ok(*held);
        }
        self.invoke(Some(caller), lowest, ENTER_METHOD, &Args::empty())?;
        Ok(lowest)
    }

    /// In debug builds, reports an allowed call to the call-summary
    /// sanitizer: it belongs to the method executing in `caller` right now
    /// (`async` calls drain with an empty stack, having been reported when
    /// they were scheduled).
    fn report_edge(&self, caller: ContextId, target: ContextId, method: &str) {
        if cfg!(debug_assertions) {
            if let Some((top, top_method)) = self.state.call_stack.last() {
                if *top == caller {
                    self.host
                        .record_call_edge(caller, top_method, target, method);
                }
            }
        }
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
}

/// The capability handed to [`ContextObject::handle`]: everything a context
/// method may do with the rest of the system while an event executes in it.
/// It is the event's interpreter for the length of the method's frame.
pub struct Invocation<'a> {
    body: EventBody<'a>,
    current: ContextId,
}

impl Invocation<'_> {
    /// The context currently executing.
    pub fn self_id(&self) -> ContextId {
        self.current
    }

    /// The id of the running event.
    pub fn event_id(&self) -> EventId {
        self.body.event.id
    }

    /// The client that issued the event, if any.
    pub fn client(&self) -> Option<ClientId> {
        self.body.event.client
    }

    /// Whether the running event is read-only.
    pub fn is_read_only(&self) -> bool {
        self.body.event.mode.is_read_only()
    }

    /// Performs a synchronous method call on a context owned (directly or
    /// transitively) by the current context, waiting for its result.  A
    /// call to a context owned only transitively first enters a path of
    /// owners down to it (Algorithm 2's `activatePath`).
    ///
    /// # Errors
    ///
    /// * [`AeonError::OwnershipViolation`] when the current context does not
    ///   own `target`.
    /// * Whatever error the callee returns.
    pub fn call(&mut self, target: ContextId, method: &str, args: Args) -> Result<Value> {
        self.body.check_footprint(self.current, target, method)?;
        self.body.invoke(Some(self.current), target, method, &args)
    }

    /// Schedules an asynchronous (`async`-decorated) method call on an owned
    /// context.  The call executes before the event terminates, but the
    /// caller does not wait for it; its return value is discarded.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::OwnershipViolation`] when the current context
    /// does not own `target` (checked eagerly so the programming error
    /// surfaces at the call site, and again when the call drains).
    pub fn call_async(&mut self, target: ContextId, method: &str, args: Args) -> Result<()> {
        let caller = self.current;
        self.body.check_footprint(caller, target, method)?;
        // The path is taken when the call drains.
        self.body
            .ask::<Vec<ContextId>>(DirOp::PathOwners(caller, target))?;
        self.body.report_edge(caller, target, method);
        self.body.state.pending_async.push_back(AsyncCall {
            caller,
            target,
            method: method.to_string(),
            args,
        });
        Ok(())
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
        self.check_writable(method)?;
        self.dispatch(target, method, args, AccessMode::Exclusive)
    }

    /// Dispatches a new read-only event from within this event.
    pub fn dispatch_readonly_event(
        &mut self,
        target: ContextId,
        method: &str,
        args: Args,
    ) -> Result<()> {
        self.dispatch(target, method, args, AccessMode::ReadOnly)
    }

    fn dispatch(
        &mut self,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<()> {
        self.body.state.sub_events.push(SubEvent {
            target,
            method: method.to_string(),
            args,
            mode,
        });
        Ok(())
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
        self.check_writable("create_child")?;
        self.body.host.create_child(self.current, object)
    }

    /// Adds the current context as an owner of `owned` (sharing state).
    ///
    /// # Errors
    ///
    /// * [`AeonError::ReadOnlyViolation`] from read-only events.
    /// * [`AeonError::CycleDetected`] / [`AeonError::OwnershipViolation`]
    ///   when the edge would violate the DAG or the class constraints.
    pub fn add_ownership(&mut self, owned: ContextId) -> Result<()> {
        self.check_writable("add_ownership")?;
        self.body.ask(DirOp::AddEdge(self.current, owned))
    }

    /// Removes the current context from the owners of `owned`.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ReadOnlyViolation`] from read-only events.
    /// * [`AeonError::ContextNotFound`] when `owned` is unknown.
    pub fn remove_ownership(&mut self, owned: ContextId) -> Result<()> {
        self.check_writable("remove_ownership")?;
        self.body.ask(DirOp::RemoveEdge(self.current, owned))
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
        let class = class.map(str::to_string);
        self.body.ask(DirOp::ChildrenOf {
            parent: self.current,
            class,
        })
    }

    /// Refuses `operation` — a change, or a way to cause one — from a
    /// read-only event, certified or not.
    fn check_writable(&self, operation: &str) -> Result<()> {
        if self.is_read_only() {
            return Err(AeonError::ReadOnlyViolation {
                context: self.current,
                method: operation.to_string(),
            });
        }
        Ok(())
    }
}

impl std::fmt::Debug for Invocation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Invocation")
            .field("event", &self.body.event.id)
            .field("current", &self.current)
            .field("mode", &self.body.event.mode)
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
    use parking_lot::Mutex;

    type Log = Arc<Mutex<Vec<String>>>;

    /// The server every context listed in `FakeHost::remote` lives on.
    const REMOTE: ServerId = ServerId::new(1);

    /// All contexts local (except those listed in `remote`), no locks, and
    /// a record of what the interpreter asked for.
    #[derive(Default)]
    struct FakeHost {
        objects: HashMap<ContextId, Arc<ContextSlot>>,
        remote: HashSet<ContextId>,
        remote_calls: Vec<(Option<ContextId>, ContextId, String)>,
        entered: Vec<ContextId>,
        mutations: Mutex<Vec<&'static str>>,
        /// What `DirOp::Subtree` lists (the root alone when empty).
        subtree: Vec<ContextId>,
        /// Each move asked for: the context, its captured state, where to.
        moves: Vec<(ContextId, Value, ServerId)>,
        /// What `DirOp::PathOwners` answers for a target (none when absent).
        owners: HashMap<ContextId, Vec<ContextId>>,
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
                    .insert(cx(raw), ContextSlot::new(cx(raw), Box::new(probe)));
            }
            (host, log)
        }
    }

    impl ContextHost for FakeHost {
        fn ask(&self, op: DirOp) -> Result<DirReply> {
            let mutation = match op {
                DirOp::PathOwners(_, target) => {
                    let owners = self.owners.get(&target).cloned();
                    return Ok(DirReply::Contexts(owners.unwrap_or_default()));
                }
                DirOp::Subtree(root) if self.subtree.is_empty() => {
                    return Ok(DirReply::Contexts(vec![root]));
                }
                DirOp::Subtree(_) => return Ok(DirReply::Contexts(self.subtree.clone())),
                DirOp::ChildrenOf { .. } => return Ok(DirReply::Contexts(Vec::new())),
                DirOp::AddEdge(..) => "add_ownership",
                DirOp::RemoveEdge(..) => "remove_ownership",
                other => panic!("the interpreter never asks {other:?}"),
            };
            self.mutations.lock().push(mutation);
            Ok(DirReply::Unit)
        }

        fn enter(&mut self, _event: &EventMeta, target: ContextId) -> Result<Entered> {
            if self.remote.contains(&target) {
                return Ok(Entered::Remote(REMOTE));
            }
            self.entered.push(target);
            self.objects
                .get(&target)
                .map(|slot| Entered::Local(Arc::clone(slot)))
                .ok_or(AeonError::ContextNotFound(target))
        }

        fn holds(&self, _event: &EventMeta, context: ContextId) -> bool {
            self.entered.contains(&context)
        }

        fn lock_object<'o>(&self, slot: &'o ContextSlot) -> MutexGuard<'o, Box<dyn ContextObject>> {
            slot.object.lock()
        }

        fn remote_call(
            &mut self,
            _event: &EventMeta,
            server: ServerId,
            caller: Option<ContextId>,
            target: ContextId,
            method: &str,
            _args: &Args,
        ) -> Result<(Value, Vec<SubEvent>)> {
            assert_eq!(server, REMOTE, "the call goes where `enter` found it");
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
            self.mutations.lock().push("create_child");
            Ok(cx(99))
        }

        fn migrate(
            &mut self,
            target: ContextId,
            _object: &mut Box<dyn ContextObject>,
            state: Value,
            to: ServerId,
        ) -> Result<()> {
            if to == ServerId::new(66) {
                panic!("no server 66");
            }
            self.moves.push((target, state, to));
            Ok(())
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
            matches!(
                method,
                "peek" | "lie_call" | "lie_async" | "ro_dispatch" | "create" | "own" | "disown"
            )
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
                // Marked `ro`, so that only `Invocation` stands between a
                // read-only event and the change.
                "create" => {
                    let child = Box::new(Probe {
                        log: Arc::clone(&self.log),
                    });
                    inv.create_child(child).map(Value::from)
                }
                "own" => inv
                    .add_ownership(args.get_context(0)?)
                    .map(|()| Value::Null),
                "disown" => inv
                    .remove_ownership(args.get_context(0)?)
                    .map(|()| Value::Null),
                // Calls args[0], then args[1], and reports them.
                "relay_two" => {
                    let first = inv.call(args.get_context(0)?, "peek", args![])?;
                    let second = inv.call(args.get_context(1)?, "peek", args![])?;
                    Ok(Value::from(vec![first, second]))
                }
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
        assert!(body.state.call_stack.is_empty());
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

        // Nor does it change the ownership network, even from a method
        // marked `ro`.
        host.remote.clear();
        for operation in ["create", "own", "disown"] {
            let refused = run(&mut host, AccessMode::ReadOnly, operation, args![cx(2)]);
            assert!(
                matches!(refused.result, Err(AeonError::ReadOnlyViolation { .. })),
                "{operation}: {:?}",
                refused.result
            );
        }
        assert!(host.mutations.lock().is_empty());

        // Read-only sub-events never grow the footprint, so they stay
        // available; the same mutations pass on a sequenced event.
        let outcome = run(&mut host, AccessMode::ReadOnly, "ro_dispatch", args![cx(2)]);
        assert_eq!(outcome.result, Ok(Value::Null));
        assert_eq!(outcome.sub_events.len(), 1);
        let owned = run(&mut host, AccessMode::Exclusive, "own", args![cx(2)]);
        assert_eq!(owned.result, Ok(Value::Null));
        assert_eq!(*host.mutations.lock(), ["add_ownership"]);
    }

    #[test]
    fn a_call_that_skips_a_level_enters_an_owner_first_and_is_sent_from_it() {
        // 1 owns 2 and 3, which both own 4; 4 owns 5.
        let (mut host, _log) = FakeHost::with_probes(5);
        host.owners.insert(cx(4), vec![cx(2), cx(3)]);
        host.owners.insert(cx(5), vec![cx(4)]);
        let outcome = run(
            &mut host,
            AccessMode::Exclusive,
            "relay_two",
            args![cx(5), cx(4)],
        );
        assert!(outcome.result.is_ok(), "{:?}", outcome.result);
        assert_eq!(
            host.entered,
            [cx(1), cx(2), cx(4), cx(5), cx(4)],
            "the lowest owner first, top-down; the second call finds 2 held"
        );

        // An owner the event already holds opens no path, and a call to
        // another server is sent from the target's owner.
        host.entered.clear();
        host.remote.insert(cx(5));
        let outcome = run(
            &mut host,
            AccessMode::Exclusive,
            "relay_two",
            args![cx(3), cx(5)],
        );
        assert!(outcome.result.is_ok(), "{:?}", outcome.result);
        assert_eq!(host.entered, [cx(1), cx(3), cx(4)]);
        assert_eq!(host.remote_calls, [(Some(cx(4)), cx(5), "peek".into())]);
    }

    #[test]
    fn a_cut_captures_every_member_and_a_restore_enters_all_before_it_writes() {
        let mut host = FakeHost::default();
        for raw in 1..=2 {
            let kv = crate::KvContext::with_entries("Kv", [("n", Value::from(raw as i64))]);
            host.objects
                .insert(cx(raw), ContextSlot::new(cx(raw), Box::new(kv)));
        }
        host.remote.insert(cx(3));
        host.subtree = vec![cx(1), cx(2), cx(3)];
        let (ro, ex) = (AccessMode::ReadOnly, AccessMode::Exclusive);
        let cut = |host: &mut FakeHost, mode, method, args: &Args| {
            EventBody::new(host, event(mode), Footprint::Sequenced)
                .run(None, cx(1), method, args)
                .result
        };
        let captured = cut(&mut host, ro, SNAPSHOT_METHOD, &args![]).unwrap();
        let snapshot = Snapshot::from_value(&captured).unwrap();
        assert_eq!(snapshot.len(), 2, "the remote member answered no state");
        let remote = [(Some(cx(1)), cx(3), SNAPSHOT_METHOD.to_string())];
        assert_eq!(host.remote_calls, remote);
        let certified = EventBody::new(&mut host, event(ro), Footprint::Certified);
        let err = certified.run(None, cx(1), SNAPSHOT_METHOD, &args![]).result;
        assert!(err.unwrap_err().to_string().contains("calls []"));

        cut(&mut host, ex, "set", &args!["n", 99]).unwrap();
        let restore = args![snapshot.to_value()];
        let refused = cut(&mut host, ro, RESTORE_METHOD, &restore);
        assert!(matches!(refused, Err(AeonError::ReadOnlyViolation { .. })));
        // A member that vanished fails the restore before anything is written.
        host.subtree = vec![cx(1), cx(2), cx(4)];
        let vanished = cut(&mut host, ex, RESTORE_METHOD, &restore);
        assert_eq!(vanished, Err(AeonError::ContextNotFound(cx(4))));
        assert_eq!(
            cut(&mut host, ro, "get", &args!["n"]),
            Ok(Value::from(99i64))
        );

        host.subtree = vec![cx(1), cx(2)];
        let restored = cut(&mut host, ex, RESTORE_METHOD, &restore);
        assert_eq!(restored, Ok(Value::from(vec![cx(1), cx(2)])));
        assert_eq!(
            cut(&mut host, ro, "get", &args!["n"]),
            Ok(Value::from(1i64))
        );
    }

    #[test]
    fn a_migration_moves_only_its_own_exclusive_target_and_counts_its_bytes() {
        let mut host = FakeHost::default();
        let kv = crate::KvContext::with_entries("Kv", [("n", Value::from(7i64))]);
        let state = ContextObject::snapshot(&kv);
        host.objects
            .insert(cx(1), ContextSlot::new(cx(1), Box::new(kv)));
        let migrate = |host: &mut FakeHost, mode, to: i64| {
            EventBody::new(host, event(mode), Footprint::Sequenced)
                .run(None, cx(1), MIGRATE_METHOD, &args![to])
                .result
        };
        let moved = migrate(&mut host, AccessMode::Exclusive, 2).unwrap();
        assert_eq!(moved, Value::from(codec::encoded_len(&state) as i64));
        assert_eq!(host.moves, [(cx(1), state, ServerId::new(2))]);

        let refused = migrate(&mut host, AccessMode::ReadOnly, 2);
        assert!(matches!(refused, Err(AeonError::ReadOnlyViolation { .. })));
        let refused = migrate(&mut host, AccessMode::Exclusive, -1);
        assert!(matches!(refused, Err(AeonError::BadArguments { .. })));
        let panicked = migrate(&mut host, AccessMode::Exclusive, 66);
        assert!(matches!(panicked, Err(AeonError::Panicked { .. })));
        let mut body = EventBody::new(
            &mut host,
            event(AccessMode::Exclusive),
            Footprint::Sequenced,
        );
        let nested = body.invoke(Some(cx(2)), cx(1), MIGRATE_METHOD, &args![2]);
        assert!(matches!(nested, Err(AeonError::Internal(_))));
        assert_eq!(host.moves.len(), 1, "only the first migration moved");
    }
}
