//! The in-process backend: [`AeonRuntime`]'s control surface is its
//! [`Deployment`] impl and [`AeonClient`]'s is its [`Session`] impl; only
//! introspection stays inherent.  A snapshot, a restore and a migration are
//! events like any other (the interpreter's reserved methods, submitted by
//! the trait's provided methods); all the runtime adds for a migration is
//! `RuntimeHost::migrate`, which rebuilds the object and moves its
//! placement.
//!
//! The ownership network, the context→server mapping, the server roster,
//! the class factories, the ids, the history sink and the shutdown flag are
//! one [`ControlState`], over which the `Deployment` trait writes every
//! control method it provides; the object table (`ContextSlot`s and their
//! locks), the global root and the locks each event holds are one
//! [`ServerCore`] — the same core every cluster node runs, here with every
//! context local.  This module adds the worker pool, statistics, history
//! recording of events, and the trait's two hooks: `control`, and `host`,
//! which installs into the core (a restored context rebuilt by its class
//! factory first, under the panic boundary).  Every question an event asks
//! the plane (`ContextHost::ask`: a call's path of owners, a cut's members,
//! children, edge edits) is [`ControlState::answer`], the function a
//! cluster's gateway answers a node process with.  A guard on the plane is
//! held for one such answer, or one sequencer look-up, and dropped before
//! the event waits on a context lock or runs contextclass code.
//!
//! An event starts on whichever thread brings it: a pool worker for a
//! submitted event (`Session::submit_with_mode`), the client's own thread
//! for a blocking call (`Session::call_with_mode`, which this backend
//! overrides), the creator's thread for a sub-event.  It takes its first
//! lock — its sequencer, or its target for a certified read — through
//! [`ServerCore::start`] and runs in place when that lock is free.  When it is held, the event waits in the lock's queue
//! as a grant and holds no thread: on a pool worker the grant resumes it on
//! the pool (`ShardedExecutor::resume`) and the worker is free at once; a
//! blocking caller waits for the grant itself, so its chain hands nothing
//! to the pool.  Order is never decided by the thread or the pool's queues,
//! only by the FIFO queues of the context locks.
//!
//! A nested activation inside a running body (`RuntimeHost::enter`) blocks
//! its thread, and on a pool worker it says so first
//! (`ShardedExecutor::block_in_place`): the event holding the context may
//! be one whose grant resumed it on the pool and which is still queued
//! there, behind the waiting worker.  Locks are taken sequencer first, then
//! owner before owned, so the holders cannot wait on each other in a cycle.
//!
//! One hook watches this path from inside: an [`EventObserver`], installed
//! with [`RuntimeBuilder::observer`], hears each activation
//! (`RuntimeHost::enter`, re-entries included) and each event's end (the top
//! of `Admitted::finish`, before its response point and its sub-events).
//! Its one user is the virtual-time simulator (`aeon-sim`), whose clock it
//! is; no configuration of the runtime, the cluster or `aeond` sets it.
//! Unset, each of the two sites costs one branch, and the plane is not read
//! for it.

use crate::context::{ContextObject, ContextSlot};
use crate::deployment::{ControlState, Deployment, DirOp, DirReply, Hosted, Session};
use crate::event::{EventHandle, EventRequest};
use crate::executor::{ExecutorConfig, ExecutorStats, ShardedExecutor};
use crate::invocation::{
    BodyOutcome, CertifiedReads, ContextHost, Entered, EventBody, EventMeta, Footprint,
};
use crate::locks::ContextLock;
use crate::reply::{reply, Replier};
use crate::server::ServerCore;
use crate::stats::RuntimeStats;
use aeon_ownership::{ClassGraph, ControlPlane, Dominator, Sequencer};
use aeon_types::{
    codec, AccessMode, AeonError, Args, ClientId, ContextId, EventId, Result, ServerId,
    ServerMetrics, Value,
};
use parking_lot::{Mutex, MutexGuard};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use aeon_ownership::Placement;

/// Watches every event of a runtime from inside its path, on the thread
/// that runs the event.  Installed with [`RuntimeBuilder::observer`]; the
/// virtual-time simulator (`aeon-sim`) is its one user, and charges virtual
/// time from these calls.  Both are made with the control plane read-locked,
/// so an observer must not call back into the runtime.
pub trait EventObserver: Send + Sync + std::fmt::Debug {
    /// `event` activated `context`, or re-entered a context it holds.
    fn entered(&self, plane: &ControlPlane, event: EventId, context: ContextId);

    /// `event` on `target` in `mode` finished, `ok` or not: its locks are
    /// released, and its response point and its sub-events come next.
    fn finished(
        &self,
        plane: &ControlPlane,
        event: EventId,
        target: ContextId,
        mode: AccessMode,
        ok: bool,
    );
}

/// Builder for [`AeonRuntime`].
#[derive(Debug)]
pub struct RuntimeBuilder {
    servers: usize,
    class_graph: Option<ClassGraph>,
    executor: ExecutorConfig,
    observer: Option<Arc<dyn EventObserver>>,
}

impl Default for RuntimeBuilder {
    fn default() -> Self {
        Self {
            servers: 1,
            class_graph: None,
            executor: ExecutorConfig::default(),
            observer: None,
        }
    }
}

impl RuntimeBuilder {
    /// Sets the number of logical servers created at startup (default 1).
    pub fn servers(mut self, n: usize) -> Self {
        self.servers = n;
        self
    }

    /// Installs a contextclass constraint graph: context creation and
    /// ownership changes are validated against it, and
    /// [`RuntimeBuilder::build`] refuses it unless it passes
    /// [`aeon_analyzer::enforce`].
    pub fn class_graph(mut self, classes: ClassGraph) -> Self {
        self.class_graph = Some(classes);
        self
    }

    /// Sets the number of resident event-executor workers (default: the
    /// machine's available parallelism); the shard count scales with it.
    /// The pool executes the events clients *submit*; a blocking
    /// [`Session::call_with_mode`] executes its event on the caller's
    /// own thread, so this bounds pool events, not callers.
    pub fn worker_threads(mut self, n: usize) -> Self {
        self.executor.workers = n;
        self
    }

    /// Installs an [`EventObserver`].  Without one, each of its two call
    /// sites costs one branch.
    pub fn observer(mut self, observer: Arc<dyn EventObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    /// Builds the runtime.
    ///
    /// # Errors
    ///
    /// * [`AeonError::Config`] when `servers` or `worker_threads` is zero.
    /// * Those of [`aeon_analyzer::enforce`] on the class graph:
    ///   [`AeonError::ClassCycleDetected`] and
    ///   [`AeonError::AnalysisRejected`].
    pub fn build(self) -> Result<AeonRuntime> {
        if self.servers == 0 {
            return Err(AeonError::Config("at least one server is required".into()));
        }
        if self.executor.workers == 0 {
            return Err(AeonError::Config(
                "at least one executor worker is required".into(),
            ));
        }
        if let Some(classes) = &self.class_graph {
            aeon_analyzer::enforce(classes)?;
        }
        let certified = CertifiedReads::new(self.class_graph.as_ref());
        let mut plane = ControlPlane::new(self.class_graph);
        for _ in 0..self.servers {
            plane.add_server();
        }
        let inner = Arc::new(RuntimeInner {
            executor: ShardedExecutor::new("aeon-runtime", self.executor),
            certified,
            observer: self.observer,
            control: ControlState::new(plane),
            core: Arc::default(),
            events_in_flight: AtomicU64::new(0),
            stats: RuntimeStats::default(),
            summary_violations: Mutex::new(std::collections::BTreeSet::new()),
        });
        Ok(AeonRuntime { inner })
    }
}

/// Shared interior of the runtime.
pub(crate) struct RuntimeInner {
    /// The sharded worker pool that executes events (no thread is spawned
    /// per event; see `crate::executor`).
    executor: ShardedExecutor,
    /// Methods admitted to the read-only fast path: unsequenced, with the
    /// target as their whole footprint.
    certified: CertifiedReads,
    observer: Option<Arc<dyn EventObserver>>,
    /// The plane, factories, ids, history sink and shutdown flag.  The
    /// per-event path only ever takes read guards on the plane.
    control: ControlState,
    /// The context objects, their locks, the global root and the holds of
    /// each event: Algorithm 2 with every context local.
    core: Arc<ServerCore>,
    events_in_flight: AtomicU64,
    stats: RuntimeStats,
    /// Debug-build call-summary sanitizer output: human-readable records of
    /// actual invoke edges that the statically declared `calls [...]`
    /// summaries do not cover (deduplicated).
    summary_violations: Mutex<std::collections::BTreeSet<String>>,
}

impl std::fmt::Debug for RuntimeInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeInner")
            .field("contexts", &self.core.hosted())
            .field(
                "servers",
                &self.control.plane().read().online_servers().len(),
            )
            .finish_non_exhaustive()
    }
}

impl RuntimeInner {
    /// Debug-build backstop of the static analysis: checks one actual
    /// invoke edge against the caller method's declared `calls [...]`
    /// summary and records a violation when the summary exists but does
    /// not cover the edge.  Methods without a summary are unchecked.
    fn record_call_edge(
        &self,
        caller: ContextId,
        caller_method: &str,
        target: ContextId,
        target_method: &str,
    ) {
        let violation = {
            let plane = self.control.plane().read();
            let Some(classes) = plane.classes() else {
                return;
            };
            let (Ok(caller_class), Ok(target_class)) =
                (plane.class_of(caller), plane.class_of(target))
            else {
                return;
            };
            let Some(summary) = classes.calls_of(caller_class, caller_method) else {
                return;
            };
            let covered = summary
                .iter()
                .any(|m| m.class == target_class && m.method == target_method);
            if covered {
                return;
            }
            format!(
                "{caller_class}::{caller_method} called {target_class}::{target_method}, \
                 which its declared call summary does not cover"
            )
        };
        self.summary_violations.lock().insert(violation);
    }

    /// An event about to start on the thread that calls this: a pool
    /// worker (`reply` is its handle), a blocking caller (`on_caller`), or
    /// the thread of its creator.
    fn admitted(
        self: Arc<Self>,
        request: EventRequest,
        footprint: Footprint,
        reply: Option<Replier<Result<Value>>>,
        on_caller: bool,
    ) -> Admitted {
        self.events_in_flight.fetch_add(1, Ordering::SeqCst);
        if footprint == Footprint::Certified {
            self.executor.note_fast_path();
        }
        Admitted {
            inner: self,
            request,
            footprint,
            reply,
            on_caller,
            started: Instant::now(),
            server: None,
        }
    }
}

/// An event on its way through the core.  It counts in
/// [`AeonRuntime::events_in_flight`] until it is dropped — once the
/// sub-events it dispatched started, each counting itself by then, and
/// before its outcome goes out — so the gauge spans the whole causal chain,
/// wherever a part of it waits for a grant (and even if execution panics).
struct Admitted {
    inner: Arc<RuntimeInner>,
    request: EventRequest,
    /// How the event was admitted.
    footprint: Footprint,
    /// The handle of a submitted event; `None` when a thread runs the
    /// event and takes its result (a blocking caller), or for a sub-event.
    reply: Option<Replier<Result<Value>>>,
    /// Whether the causal chain runs on a blocking caller's thread, which
    /// waits for each grant itself and hands nothing to the pool.
    on_caller: bool,
    /// When a thread first took the event up; its latency runs from here.
    started: Instant,
    /// The server hosting the target when the event was admitted, which
    /// its latency is recorded under too.
    server: Option<ServerId>,
}

impl Drop for Admitted {
    fn drop(&mut self) {
        self.inner.events_in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

impl Admitted {
    /// Takes the event's first lock — its target for a certified read, its
    /// sequencer otherwise — and runs the event on this thread when that
    /// lock is free.  Held, a pool worker moves on and the lock's grant
    /// resumes the event on the pool; a blocking caller waits here for the
    /// grant, so that its chain hands nothing to the pool.  Returns the
    /// result, unless a handle takes it.
    fn run(mut self) -> Result<Value> {
        let target = self.request.target;
        let lock = {
            let plane = self.inner.control.plane().read();
            self.server = plane.placement_of(target).ok();
            // A certified read's footprint is its target alone, held there
            // by `Footprint::Certified`; a single-lock footprint takes no
            // part in a hold-and-wait cycle, so it needs no sequencer.
            match self.footprint {
                Footprint::Certified => Ok(Sequencer::Own),
                Footprint::Sequenced => plane.sequencer_of(target),
            }
        };
        let lock = match lock {
            Ok(sequencer) => sequencer.lock(target),
            Err(error) => return self.finish(BodyOutcome::failed(error)),
        };
        let (id, mode) = (self.request.id, self.request.mode);
        let core = Arc::clone(&self.inner.core);
        if !self.on_caller {
            let now = core.start(id, mode, lock, self, Self::resume);
            return now.map_or(Ok(Value::Null), Self::execute);
        }
        let (tx, rx) = reply();
        let wake = move |(), granted| {
            let _ = tx.send(granted);
        };
        let granted = match core.start(id, mode, lock, (), wake) {
            Some(()) => Ok(()),
            None => rx.wait().unwrap_or(Err(AeonError::RuntimeShutdown)),
        };
        match granted {
            Ok(()) => self.execute(),
            Err(error) => self.finish(BodyOutcome::failed(error)),
        }
    }

    /// The grant of a pooled event's held first lock: the event resumes on
    /// the pool, or fails.
    fn resume(self, granted: Result<()>) {
        match granted {
            Ok(()) => {
                let (inner, key) = (Arc::clone(&self.inner), self.request.target.raw());
                inner.executor.resume(key, move || {
                    let _ = self.execute();
                });
            }
            Err(error) => {
                let _ = self.finish(BodyOutcome::failed(error));
            }
        }
    }

    /// Executes the event, which holds its first lock, at its target
    /// (`scheduleNext` / `execute`), and releases everything it took.
    fn execute(self) -> Result<Value> {
        let event = self.request.meta();
        let mut host = RuntimeHost { inner: &self.inner };
        let outcome = EventBody::new(&mut host, event, self.footprint).run(
            None,
            self.request.target,
            &self.request.method,
            &self.request.args,
        );
        self.inner.core.release(event.id);
        self.finish(outcome)
    }

    /// The completion tail of every event, after its locks are released:
    /// statistics, the response point (the completion becomes observable
    /// no earlier than this), the sub-events it dispatched — which start
    /// after their creator terminated, on this thread — and, once the event
    /// left the gauge, the outcome: to the handle, or as the result
    /// (`Ok(Null)` once a handle took it).
    fn finish(mut self, outcome: BodyOutcome) -> Result<Value> {
        let inner = Arc::clone(&self.inner);
        if let Some(observer) = &inner.observer {
            let request = &self.request;
            let ok = outcome.result.is_ok();
            let plane = inner.control.plane().read();
            observer.finished(&plane, request.id, request.target, request.mode, ok);
        }
        for _ in 0..outcome.async_calls {
            inner.stats.record_method_call(true);
        }
        let latency = self.started.elapsed();
        let read_only = self.request.mode.is_read_only();
        let (ok, server) = (outcome.result.is_ok(), self.server);
        inner.stats.record_event(ok, read_only, latency, server);
        if let Some(sink) = inner.control.sink() {
            sink.responded(self.request.id);
        }
        for sub in outcome.sub_events {
            inner.stats.record_sub_event();
            let request = EventRequest {
                id: EventId::new(inner.control.next_raw()),
                client: self.request.client,
                target: sub.target,
                method: sub.method,
                args: sub.args,
                mode: sub.mode,
            };
            if let Some(sink) = inner.control.sink() {
                sink.invoked(request.id);
            }
            let sub =
                Arc::clone(&inner).admitted(request, Footprint::Sequenced, None, self.on_caller);
            let _ = sub.run();
        }
        // Out of the gauge before anyone sees it complete.
        let reply = self.reply.take();
        drop(self);
        match reply {
            Some(reply) => {
                let _ = reply.send(outcome.result);
                Ok(Value::Null)
            }
            None => outcome.result,
        }
    }
}

/// The in-process host of the event interpreter: every context is a local
/// slot in the runtime's [`ServerCore`].
struct RuntimeHost<'a> {
    inner: &'a Arc<RuntimeInner>,
}

impl ContextHost for RuntimeHost<'_> {
    fn ask(&self, op: DirOp) -> Result<DirReply> {
        self.inner.control.answer(op)
    }

    /// A contended activation waits inside `block_in_place` on a pool
    /// worker: its holder may be an event whose grant resumed it on the
    /// pool, still queued there.
    fn enter(&mut self, event: &EventMeta, target: ContextId) -> Result<Entered> {
        let inner = self.inner;
        let wait = |lock: &ContextLock| {
            inner
                .executor
                .block_in_place(|| lock.activate(event.id, event.mode))
        };
        let slot = inner
            .core
            .enter(event.id, event.mode, target, wait)?
            .ok_or(AeonError::ContextNotFound(target))?;
        if let Some(observer) = &inner.observer {
            observer.entered(&inner.control.plane().read(), event.id, target);
        }
        inner.stats.record_method_call(false);
        Ok(Entered::Local(slot))
    }

    fn holds(&self, event: &EventMeta, context: ContextId) -> bool {
        self.inner.core.holds(event.id, context)
    }

    /// A reader's turn at an object another reader's frame holds is
    /// announced too: that frame may be waiting for a resumed event.
    fn lock_object<'o>(&self, slot: &'o ContextSlot) -> MutexGuard<'o, Box<dyn ContextObject>> {
        self.inner.executor.lock(&slot.object)
    }

    fn record_access(&self, event: &EventMeta, context: ContextId) {
        if let Some(sink) = self.inner.control.sink() {
            sink.accessed(event.id, context, event.mode);
        }
    }

    fn create_child(
        &mut self,
        owner: ContextId,
        object: Box<dyn ContextObject>,
    ) -> Result<ContextId> {
        let runtime = AeonRuntime {
            inner: Arc::clone(self.inner),
        };
        runtime.create_owned_context(object, &[owner])
    }

    /// Every context is in this process, so a move re-instantiates the
    /// object through the class factory when one is registered — what
    /// happens when the state crosses servers — and changes the placement;
    /// the slot, its lock and its queue stay.
    fn migrate(
        &mut self,
        target: ContextId,
        object: &mut Box<dyn ContextObject>,
        state: Value,
        to: ServerId,
    ) -> Result<()> {
        let factory = self.inner.control.factories().get(object.class_name());
        if let Some(factory) = factory {
            *object = factory(&state);
        }
        // Refused if the destination went offline since the event was
        // submitted.
        self.inner
            .control
            .plane()
            .write()
            .set_placement(target, to)?;
        self.inner
            .stats
            .record_migration(codec::encoded_len(&state) as u64);
        Ok(())
    }

    fn record_call_edge(
        &self,
        caller: ContextId,
        caller_method: &str,
        target: ContextId,
        target_method: &str,
    ) {
        self.inner
            .record_call_edge(caller, caller_method, target, target_method);
    }
}

/// The AEON runtime: hosts contexts, executes events, and exposes the
/// elasticity primitives (server management, migration) that the
/// elasticity manager builds upon.
///
/// Cloning the handle is cheap and all clones drive the same runtime.
#[derive(Debug, Clone)]
pub struct AeonRuntime {
    inner: Arc<RuntimeInner>,
}

impl AeonRuntime {
    /// Starts building a runtime.
    pub fn builder() -> RuntimeBuilder {
        RuntimeBuilder::default()
    }

    /// Creates a client handle for submitting events.
    pub fn client(&self) -> AeonClient {
        AeonClient {
            inner: Arc::clone(&self.inner),
            id: ClientId::new(self.inner.control.next_raw()),
        }
    }

    /// The dominator of `target`: the least upper bound of its share set,
    /// closed under sharing (`aeon_ownership::dominator`), whose lock
    /// sequences the events on `target`.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] when `target` is unknown.
    pub fn dominator_of(&self, target: ContextId) -> Result<Dominator> {
        self.inner.control.plane().read().dominator_of(target)
    }

    /// Runtime-wide statistics.
    pub fn stats(&self) -> &RuntimeStats {
        &self.inner.stats
    }

    /// Call-summary sanitizer findings: actual invoke edges observed at
    /// runtime that the statically declared `calls [...]` summaries do not
    /// cover.  Only populated in debug builds (the recording is compiled
    /// to a no-op in release); always empty when no class graph is
    /// installed or no summaries are declared.
    pub fn call_summary_violations(&self) -> Vec<String> {
        self.inner
            .summary_violations
            .lock()
            .iter()
            .cloned()
            .collect()
    }

    /// Number of events currently executing, counting an event as in
    /// flight until its whole causal chain (dispatched sub-events
    /// included) has finished.
    pub fn events_in_flight(&self) -> u64 {
        self.inner.events_in_flight.load(Ordering::SeqCst)
    }

    /// Counters of the event worker pool (queue depth, batching, caught
    /// panics, and the threads it started beside a worker that announced a
    /// blocking wait — a contended nested activation, or a reader's turn at
    /// an object another reader's frame holds).
    pub fn executor_stats(&self) -> ExecutorStats {
        self.inner.executor.stats()
    }
}

/// The runtime's side of the control surface; the contexts are local
/// slots of its [`ServerCore`] and the servers are logical.
impl Deployment for AeonRuntime {
    fn backend_name(&self) -> &'static str {
        "runtime"
    }

    fn control(&self) -> &ControlState {
        &self.inner.control
    }

    /// Every server is in this process: the object goes into the core.
    fn host(&self, _server: ServerId, context: ContextId, hosted: Hosted<'_>) -> Result<()> {
        let object = match hosted {
            Hosted::New(object) => object,
            Hosted::Restored(class, state) => {
                self.inner.control.factories().rebuild(class, state)?
            }
        };
        self.inner.core.install(context, object);
        Ok(())
    }

    fn session(&self) -> Box<dyn Session> {
        Box::new(self.client())
    }

    fn add_server(&self) -> Result<ServerId> {
        self.inner.control.running()?;
        Ok(self.inner.control.plane().write().add_server())
    }

    fn remove_server(&self, server: ServerId) -> Result<()> {
        self.inner.control.running()?;
        self.inner.control.plane().write().retire_server(server)
    }

    /// CPU/memory/IO are approximated from relative context load since the
    /// logical servers share the host machine; a server's latency is that
    /// of the events whose target it hosts.  Queue depth is *per server*: the
    /// process-wide worker pool keys every queued task by its target
    /// context, so each task is attributed to the server hosting that
    /// context.  (An even split was used here once — it made every server
    /// look equally loaded and hid exactly the hotspots the elasticity
    /// policies exist to find.)  Tasks whose context has no placement yet
    /// (racing a create/migrate) are spread round-robin so the fleet-wide
    /// sum stays meaningful.
    fn server_metrics(&self) -> Vec<ServerMetrics> {
        let queued = self.inner.executor.queued_by_key();
        let plane = self.inner.control.plane().read();
        let servers = plane.online_servers();
        let total_contexts = plane.context_count();
        let mut depth: BTreeMap<ServerId, usize> = servers.iter().map(|s| (*s, 0usize)).collect();
        let mut unplaced = 0usize;
        for (key, count) in queued {
            match plane
                .placement_of(ContextId::new(key))
                .ok()
                .and_then(|server| depth.get_mut(&server))
            {
                Some(d) => *d += count as usize,
                None => unplaced += count as usize,
            }
        }
        let fleet = servers.len().max(1);
        servers
            .into_iter()
            .enumerate()
            .map(|(i, server)| {
                let hosted = plane.hosted_on(server);
                let queue_depth = depth.get(&server).copied().unwrap_or(0)
                    + unplaced / fleet
                    + usize::from(i < unplaced % fleet);
                let latency = self.stats().server_latency(server);
                ServerMetrics::from_load(server, hosted, total_contexts, queue_depth, latency)
            })
            .collect()
    }

    fn executor_stats(&self) -> Option<ExecutorStats> {
        Some(AeonRuntime::executor_stats(self))
    }

    /// The server goes offline at once and every context hosted on it
    /// becomes unavailable (its lock is poisoned and its state is dropped);
    /// the ownership network and the placement map keep the contexts'
    /// identities, as on the cluster.
    fn crash_server(&self, server: ServerId) -> Result<()> {
        self.inner.control.running()?;
        let hosted = self.inner.control.plane().write().mark_crashed(server)?;
        for context in hosted {
            if let Some(slot) = self.inner.core.remove(context) {
                slot.lock.poison();
            }
        }
        Ok(())
    }

    /// Events blocked on context locks are aborted, the worker pool is
    /// stopped (queued events resolve their handles as closed), and no
    /// event is executing any more when this returns — wherever it ran: on
    /// a pool worker or on the thread of a blocking caller
    /// ([`Session::call_with_mode`]).
    fn shutdown(&self) {
        self.inner.control.shut_down();
        self.inner.core.poison();
        // Poisoning first unblocks any executing event, so joining the
        // pool cannot hang on a lock waiter.
        self.inner.executor.shutdown();
        // Events the pool's join does not cover run on threads the runtime
        // does not own: blocking callers.  Each holds the in-flight gauge;
        // none can be waiting on a context any more, so what is left is
        // method bodies running to their end.  A caller that passed the
        // shutdown check a moment ago and enters now finds every lock
        // poisoned and leaves without running a method.
        while self.events_in_flight() > 0 {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// A client handle: the entry point for submitting events.
#[derive(Debug, Clone)]
pub struct AeonClient {
    inner: Arc<RuntimeInner>,
    id: ClientId,
}

impl AeonClient {
    /// What happens to every client event before anything executes it: the
    /// shutdown check, the target lookup, the request under a fresh id, its
    /// invocation point, and the choice of path.
    fn admit(
        &self,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<(EventRequest, Footprint)> {
        self.inner.control.running()?;
        let slot = self.inner.core.slot(target);
        let slot = slot.ok_or(AeonError::ContextNotFound(target))?;
        let request = EventRequest {
            id: EventId::new(self.inner.control.next_raw()),
            client: Some(self.id),
            target,
            method: method.to_string(),
            args,
            mode,
        };
        // Recorded before the event is enqueued or run, so the invocation
        // timestamp can never be later than the true submission point.
        if let Some(sink) = self.inner.control.sink() {
            sink.invoked(request.id);
        }
        let footprint = self.inner.certified.admit(&slot.class, method, mode);
        Ok((request, footprint))
    }
}

/// A submitted event runs on the worker pool, sharded by its target; a
/// read the class graph certifies (`ro` with an empty `calls []` summary)
/// skips dominator sequencing and runs under a shared activation of its
/// target alone.  A caller that blocks anyway is served on its own thread.
impl Session for AeonClient {
    fn client_id(&self) -> ClientId {
        self.id
    }

    fn submit_with_mode(
        &self,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<EventHandle> {
        let (request, footprint) = self.admit(target, method, args, mode)?;
        let (tx, handle) = EventHandle::new(request.id, None);
        let inner = Arc::clone(&self.inner);
        // Sharded by target context, so that events on the same context
        // keep submission-order affinity.
        self.inner.executor.submit(request.target.raw(), move || {
            let _ = inner.admitted(request, footprint, Some(tx), false).run();
        });
        Ok(handle)
    }

    /// Executes the event **on the calling thread**: what
    /// `submit_with_mode(..)?.wait()` returns, without the hand-off to the
    /// worker pool and back.  The event is the same event — sequenced at
    /// its dominator or admitted to the certified read-only fast path,
    /// recorded, counted in the statistics and in
    /// [`AeonRuntime::events_in_flight`] — and it takes its turn in the
    /// same context-lock queues; only the thread that waits there and then
    /// runs the method differs.  A shutdown while it waits for a context
    /// aborts it with [`AeonError::EventAborted`].
    fn call_with_mode(
        &self,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<Value> {
        let (request, footprint) = self.admit(target, method, args, mode)?;
        let inner = Arc::clone(&self.inner);
        inner.admitted(request, footprint, None, true).run()
    }
}
