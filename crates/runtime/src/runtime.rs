//! The public runtime: context hosting, event submission, and elasticity
//! primitives (server management).  A snapshot, a restore and a migration
//! are events like any other (the interpreter's reserved methods, submitted
//! by `aeon-api`'s `Deployment`); all the runtime adds for a migration is
//! `RuntimeHost::migrate`, which rebuilds the object and moves its
//! placement.
//!
//! The ownership network, the context→server mapping and the server roster
//! are one [`ControlPlane`] behind one `RwLock`; this module adds what is
//! the runtime's own — the object table (`ContextSlot`s and their locks),
//! class factories, the worker pool, statistics and history recording.
//! Executing an event takes only read guards on the plane (dominator,
//! `may_call`), each dropped before the event waits on a context lock or
//! runs contextclass code.
//!
//! An event executes in one place — `RuntimeInner::run_event`, certified
//! reads included — on whichever thread brings it there: a pool worker for
//! a submitted event (`AeonClient::submit`), the client's own thread for a
//! blocking call (`AeonClient::call_with_mode`), the creator's thread for a
//! sub-event.  Order is never decided by the thread or the pool's queues,
//! only by the FIFO queues of the context locks.
//!
//! Waits here block their thread — `RuntimeHost::sequence` and `enter` call
//! [`ContextLock::activate`] — and need neither a deferred grant nor
//! `ShardedExecutor::block_in_place`, because no runtime wait can depend on
//! a task still queued in the pool: every holder of a runtime lock is a
//! thread that is *running* — a pool worker inside `run_event` or a
//! blocking caller — and it releases without
//! waiting for anything queued, since the sub-events an event dispatches
//! run only after its release, on the thread that ran it.  (A task queued
//! behind a waiting one in its batch holds nothing either, and a reader
//! waiting for the object another reader's frame holds waits for a running
//! frame.)  Locks are taken dominator first, then owner before owned, so
//! the holders cannot wait on each other in a cycle either.  The cluster
//! differs: its sequencer is held by an `Act` whose continuation may still
//! be queued, and a worker waits on remote calls; see `aeon_cluster`'s
//! `node.rs`.

use crate::context::{ContextFactory, ContextObject, ContextSlot};
use crate::event::{EventHandle, EventOutcome, EventRequest};
use crate::executor::{ExecutorConfig, ExecutorStats, ShardedExecutor};
use crate::invocation::{
    BodyOutcome, CertifiedReads, ContextHost, Entered, EventBody, EventMeta, Footprint, SubEvent,
};
use crate::locks::ContextLock;
use crate::stats::RuntimeStats;
use aeon_analyzer::AnalysisMode;
use aeon_ownership::{ClassGraph, ControlPlane, Dominator, DominatorMode, OwnershipGraph};
use aeon_types::{
    codec, AccessMode, AeonError, Args, ClientId, ContextId, EventId, IdGenerator, Result,
    ServerId, ServerMetrics, SharedHistorySink, Value,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use aeon_ownership::Placement;

/// Configuration of the runtime.
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Number of logical servers to create at startup.
    pub initial_servers: usize,
    /// Optional contextclass constraint graph; when present, context
    /// creation and ownership changes are validated against it.
    pub class_graph: Option<ClassGraph>,
    /// How the static analysis pipeline treats the class graph at build
    /// time (default: [`AnalysisMode::Enforce`]).
    pub analysis: AnalysisMode,
    /// Worker-pool configuration for event execution.
    pub executor: ExecutorConfig,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            initial_servers: 1,
            class_graph: None,
            analysis: AnalysisMode::default(),
            executor: ExecutorConfig::default(),
        }
    }
}

/// Builder for [`AeonRuntime`].
#[derive(Debug, Default)]
pub struct RuntimeBuilder {
    config: RuntimeConfig,
}

impl RuntimeBuilder {
    /// Sets the number of logical servers created at startup.
    pub fn servers(mut self, n: usize) -> Self {
        self.config.initial_servers = n;
        self
    }

    /// Installs a contextclass constraint graph; the static analysis
    /// pipeline is run by [`RuntimeBuilder::build`] (see
    /// [`RuntimeBuilder::analysis`]).
    pub fn class_graph(mut self, classes: ClassGraph) -> Self {
        self.config.class_graph = Some(classes);
        self
    }

    /// Sets how [`RuntimeBuilder::build`] treats analysis findings on the
    /// class graph: `Off` skips the pipeline, `Warn` prints diagnostics and
    /// proceeds, `Enforce` (the default) refuses to build on any
    /// error-severity diagnostic.
    pub fn analysis(mut self, mode: AnalysisMode) -> Self {
        self.config.analysis = mode;
        self
    }

    /// Sets the number of resident event-executor workers (default: the
    /// machine's available parallelism); the shard count scales with it.
    /// The pool executes the events clients *submit*; a blocking
    /// [`AeonClient::call_with_mode`] executes its event on the caller's
    /// own thread, so this bounds pool events, not callers.
    pub fn worker_threads(mut self, n: usize) -> Self {
        self.config.executor.workers = n;
        self
    }

    /// Builds the runtime.
    ///
    /// # Errors
    ///
    /// * [`AeonError::Config`] when `servers` is zero.
    /// * [`AeonError::ClassCycleDetected`] when the class graph's
    ///   ownership constraints are cyclic.
    /// * [`AeonError::AnalysisRejected`] when the analysis pipeline reports
    ///   error diagnostics and the mode is [`AnalysisMode::Enforce`].
    pub fn build(self) -> Result<AeonRuntime> {
        if self.config.initial_servers == 0 {
            return Err(AeonError::Config("at least one server is required".into()));
        }
        if self.config.executor.workers == 0 {
            return Err(AeonError::Config(
                "at least one executor worker is required".into(),
            ));
        }
        if let Some(classes) = &self.config.class_graph {
            classes.check()?;
            aeon_analyzer::enforce(classes, self.config.analysis)?;
        }
        let certified = CertifiedReads::new(self.config.class_graph.as_ref());
        let executor = ShardedExecutor::new("aeon-runtime", self.config.executor.clone());
        let inner = Arc::new(RuntimeInner {
            executor,
            certified,
            plane: RwLock::new(ControlPlane::new(
                DominatorMode::default(),
                self.config.class_graph.clone(),
            )),
            config: self.config,
            contexts: RwLock::new(HashMap::new()),
            factories: RwLock::new(HashMap::new()),
            global_root: ContextLock::new(ContextId::new(u64::MAX)),
            ids: IdGenerator::starting_at(1),
            events_in_flight: AtomicU64::new(0),
            stats: RuntimeStats::default(),
            shutdown: AtomicBool::new(false),
            history: RwLock::new(None),
            summary_violations: Mutex::new(std::collections::BTreeSet::new()),
        });
        for _ in 0..inner.config.initial_servers {
            inner.plane.write().add_server();
        }
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
    pub(crate) config: RuntimeConfig,
    /// Ownership network, placement and roster.  The per-event path only
    /// ever takes read guards, and no guard is held across contextclass
    /// code or a wait on a context lock.
    pub(crate) plane: RwLock<ControlPlane>,
    /// The context objects (the plane knows contexts only by id).
    pub(crate) contexts: RwLock<HashMap<ContextId, Arc<ContextSlot>>>,
    pub(crate) factories: RwLock<HashMap<String, ContextFactory>>,
    /// Sequencer used when a target has no concrete dominator
    /// ([`Dominator::GlobalRoot`]).
    pub(crate) global_root: ContextLock,
    pub(crate) ids: IdGenerator,
    events_in_flight: AtomicU64,
    pub(crate) stats: RuntimeStats,
    shutdown: AtomicBool,
    /// Optional live history sink: when installed, every event's
    /// invocation/response points and every context access are reported to
    /// it (see `aeon_types::HistorySink` for the timestamping contract).
    history: RwLock<Option<SharedHistorySink>>,
    /// Debug-build call-summary sanitizer output: human-readable records of
    /// actual invoke edges that the statically declared `calls [...]`
    /// summaries do not cover (deduplicated).
    summary_violations: Mutex<std::collections::BTreeSet<String>>,
}

impl std::fmt::Debug for RuntimeInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuntimeInner")
            .field("contexts", &self.contexts.read().len())
            .field("servers", &self.plane.read().online_servers().len())
            .finish_non_exhaustive()
    }
}

impl RuntimeInner {
    /// The installed history sink, if any (cloned out so hooks never hold
    /// the registry lock while recording).
    pub(crate) fn sink(&self) -> Option<SharedHistorySink> {
        self.history.read().clone()
    }

    pub(crate) fn context_slot(&self, id: ContextId) -> Result<Arc<ContextSlot>> {
        self.contexts
            .read()
            .get(&id)
            .cloned()
            .ok_or(AeonError::ContextNotFound(id))
    }

    /// Debug-build backstop of the static analysis: checks one actual
    /// invoke edge against the caller method's declared `calls [...]`
    /// summary and records a violation when the summary exists but does
    /// not cover the edge.  Methods without a summary are unchecked.
    pub(crate) fn record_call_edge(
        &self,
        caller: ContextId,
        caller_method: &str,
        target: ContextId,
        target_method: &str,
    ) {
        let Some(classes) = &self.config.class_graph else {
            return;
        };
        let (caller_class, target_class) = {
            let plane = self.plane.read();
            match (plane.class_of(caller), plane.class_of(target)) {
                (Ok(a), Ok(b)) => (a.to_string(), b.to_string()),
                _ => return,
            }
        };
        let Some(summary) = classes.calls_of(&caller_class, caller_method) else {
            return;
        };
        let covered = summary
            .iter()
            .any(|m| m.class == target_class && m.method == target_method);
        if !covered {
            self.summary_violations.lock().insert(format!(
                "{caller_class}::{caller_method} called {target_class}::{target_method}, \
                 which its declared call summary does not cover"
            ));
        }
    }

    /// Creates a context: `declare` enters it into the control plane under
    /// the id it is handed (validating everything first), then the object
    /// is installed.
    fn create_context(
        &self,
        object: Box<dyn ContextObject>,
        declare: impl FnOnce(&mut ControlPlane, ContextId, &str) -> Result<ServerId>,
    ) -> Result<ContextId> {
        let id = ContextId::new(self.ids.next_raw());
        let class = object.class_name();
        declare(&mut self.plane.write(), id, class)?;
        self.contexts
            .write()
            .insert(id, ContextSlot::new(id, object));
        Ok(id)
    }

    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Runs an event (and, recursively, the sub-events it dispatches) on the
    /// current thread.  `footprint` is how the event was admitted.
    fn run_event(self: &Arc<Self>, request: EventRequest, footprint: Footprint) -> EventOutcome {
        let started = Instant::now();
        // Held until the *whole causal chain* (the event plus every
        // sub-event it dispatched) has finished: drain and elasticity
        // decisions reading the gauge must not see a transient zero while
        // the chain is still executing.  The guard is also panic-safe.
        let _in_flight = InFlightGuard::enter(&self.events_in_flight);
        let event = request.meta();
        let mut host = RuntimeHost::new(self);
        // Sequence the event at the dominator of its target (Algorithm 2,
        // `to execute` + `dispatchEvent`), then execute at the target
        // (`scheduleNext` / `execute`).  A certified read skips the
        // sequencer: its footprint is its target alone, held to that by
        // [`Footprint::Certified`], and a single-lock footprint cannot take
        // part in a hold-and-wait cycle.
        let sequenced = match footprint {
            Footprint::Sequenced => host.sequence(&event, request.target),
            Footprint::Certified => {
                self.executor.note_fast_path();
                Ok(())
            }
        };
        let outcome = match sequenced {
            Ok(()) => EventBody::new(&mut host, event, footprint).run(
                None,
                request.target,
                &request.method,
                &request.args,
            ),
            Err(e) => BodyOutcome::failed(e),
        };
        host.release_all(event.id);
        for _ in 0..outcome.async_calls {
            self.stats.record_method_call(true);
        }
        let latency = started.elapsed();
        self.complete_event(
            &request,
            outcome.result.is_ok(),
            latency,
            outcome.sub_events,
        );
        EventOutcome {
            event: request.id,
            result: outcome.result,
            latency,
        }
    }

    /// The completion tail of every executed event, after its locks are
    /// released: statistics, the response point (the completion becomes
    /// observable no earlier than this), then the sub-events it dispatched,
    /// which run after their creator terminates.
    fn complete_event(
        self: &Arc<Self>,
        request: &EventRequest,
        ok: bool,
        latency: Duration,
        sub_events: Vec<SubEvent>,
    ) {
        self.stats
            .record_event(ok, request.mode.is_read_only(), latency);
        if let Some(sink) = self.sink() {
            sink.responded(request.id);
        }
        for sub in sub_events {
            self.stats.record_sub_event();
            let sub_request = EventRequest {
                id: EventId::new(self.ids.next_raw()),
                client: request.client,
                target: sub.target,
                method: sub.method,
                args: sub.args,
                mode: sub.mode,
            };
            if let Some(sink) = self.sink() {
                sink.invoked(sub_request.id);
            }
            let _ = self.run_event(sub_request, Footprint::Sequenced);
        }
    }

    /// Hands the event to the worker pool, sharded by target context so
    /// events on the same context keep submission-order affinity.
    fn spawn_event(self: &Arc<Self>, request: EventRequest, footprint: Footprint) -> EventHandle {
        let (tx, handle) = EventHandle::new(request.id);
        let inner = Arc::clone(self);
        let key = request.target.raw();
        self.executor.submit(key, move || {
            let outcome = inner.run_event(request, footprint);
            let _ = tx.send(outcome);
        });
        handle
    }
}

/// The in-process host of the event interpreter: every context is a local
/// slot behind a [`ContextLock`], and an event with no concrete dominator is
/// sequenced at the global root.
struct RuntimeHost<'a> {
    inner: &'a RuntimeInner,
    /// Context locks held, in acquisition order (released in reverse).
    held: Vec<Arc<ContextSlot>>,
    /// Whether the event holds the global-root sequencer.
    holds_global_root: bool,
}

impl<'a> RuntimeHost<'a> {
    fn new(inner: &'a RuntimeInner) -> Self {
        Self {
            inner,
            held: Vec::new(),
            holds_global_root: false,
        }
    }

    /// Takes the sequencer of an event targeting `target`: the lock of its
    /// dominator, or the global root when it has none.
    fn sequence(&mut self, event: &EventMeta, target: ContextId) -> Result<()> {
        let dominator = self.inner.plane.read().dominator_of(target)?;
        match dominator {
            Dominator::Context(dom) => {
                if dom != target {
                    let slot = self.inner.context_slot(dom)?;
                    self.activate(event, slot)?;
                }
            }
            Dominator::GlobalRoot => {
                self.inner.global_root.activate(event.id, event.mode)?;
                self.holds_global_root = true;
            }
        }
        Ok(())
    }

    /// Activates (locks) the slot for `event` unless already held.
    fn activate(&mut self, event: &EventMeta, slot: Arc<ContextSlot>) -> Result<()> {
        if self.held.iter().any(|s| s.id == slot.id) {
            return Ok(());
        }
        slot.lock.activate(event.id, event.mode)?;
        self.held.push(slot);
        Ok(())
    }

    /// Releases every held lock in reverse acquisition order ("locks on the
    /// contexts accessed during an event are released in the reverse order
    /// on which they are locked", §4).
    fn release_all(&mut self, event: EventId) {
        while let Some(slot) = self.held.pop() {
            slot.lock.release(event);
        }
        if self.holds_global_root {
            self.inner.global_root.release(event);
            self.holds_global_root = false;
        }
    }
}

impl ContextHost for RuntimeHost<'_> {
    fn may_call(&self, caller: ContextId, target: ContextId) -> bool {
        self.inner.plane.read().may_call(caller, target)
    }

    fn enter(&mut self, event: &EventMeta, target: ContextId) -> Result<Entered> {
        let slot = self.inner.context_slot(target)?;
        self.activate(event, Arc::clone(&slot))?;
        self.inner.stats.record_method_call(false);
        Ok(Entered::Local(slot))
    }

    fn record_access(&self, event: &EventMeta, context: ContextId) {
        if let Some(sink) = self.inner.sink() {
            sink.accessed(event.id, context, event.mode);
        }
    }

    fn create_child(
        &mut self,
        owner: ContextId,
        object: Box<dyn ContextObject>,
    ) -> Result<ContextId> {
        self.inner.create_context(object, |plane, id, class| {
            plane.declare_owned(id, class, &[owner])
        })
    }

    fn add_ownership(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.inner.plane.write().add_edge(owner, owned)
    }

    fn remove_ownership(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.inner.plane.write().remove_edge(owner, owned)
    }

    fn children(&self, parent: ContextId, class: Option<&str>) -> Result<Vec<ContextId>> {
        self.inner.plane.read().children_of(parent, class)
    }

    fn subtree(&self, root: ContextId) -> Result<Vec<ContextId>> {
        self.inner.plane.read().graph().subtree_topological(root)
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
        let factory = self
            .inner
            .factories
            .read()
            .get(object.class_name())
            .cloned();
        if let Some(factory) = factory {
            *object = factory(&state);
        }
        // Refused if the destination went offline since the event was
        // submitted.
        self.inner.plane.write().set_placement(target, to)?;
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

/// RAII increment of the events-in-flight gauge; decrements on drop (after
/// the sub-event chain, and even if execution panics).
struct InFlightGuard<'a>(&'a AtomicU64);

impl<'a> InFlightGuard<'a> {
    fn enter(gauge: &'a AtomicU64) -> Self {
        gauge.fetch_add(1, Ordering::SeqCst);
        Self(gauge)
    }
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
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
            id: ClientId::new(self.inner.ids.next_raw()),
        }
    }

    /// Registers a factory able to rebuild contexts of `class` from a
    /// snapshot (used by migration and crash recovery).
    pub fn register_class_factory(&self, class: impl Into<String>, factory: ContextFactory) {
        self.inner.factories.write().insert(class.into(), factory);
    }

    /// Installs a live history sink: from now on every event submission,
    /// completion and context access — including snapshot captures and
    /// restore writes — is reported to it.  Replaces any previous sink.
    pub fn install_history_sink(&self, sink: SharedHistorySink) {
        *self.inner.history.write() = Some(sink);
    }

    /// Creates a root context (no owners) and returns its id.
    ///
    /// # Errors
    ///
    /// * [`AeonError::Config`] when the class is not declared in the class
    ///   graph.
    /// * [`AeonError::ServerNotFound`] / [`AeonError::Config`] when the
    ///   requested placement is not satisfiable.
    pub fn create_context(
        &self,
        object: Box<dyn ContextObject>,
        placement: Placement,
    ) -> Result<ContextId> {
        self.inner.create_context(object, |plane, id, class| {
            plane.declare_root(id, class, placement)
        })
    }

    /// Creates a context owned by `owners` (at least one), co-located with
    /// its first owner.
    ///
    /// # Errors
    ///
    /// * [`AeonError::Config`] when `owners` is empty or the class is not
    ///   declared in the class graph.
    /// * [`AeonError::OwnershipViolation`] when the class constraints forbid
    ///   the ownership.
    pub fn create_owned_context(
        &self,
        object: Box<dyn ContextObject>,
        owners: &[ContextId],
    ) -> Result<ContextId> {
        self.inner.create_context(object, |plane, id, class| {
            plane.declare_owned(id, class, owners)
        })
    }

    /// Adds `owner` to the owners of `owned`.
    ///
    /// # Errors
    ///
    /// * [`AeonError::CycleDetected`] when the edge would create a cycle.
    /// * [`AeonError::OwnershipViolation`] when the class constraints forbid
    ///   the edge.
    pub fn add_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.inner.plane.write().add_edge(owner, owned)
    }

    /// Removes `owner` from the owners of `owned`.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] when either context is
    /// unknown.
    pub fn remove_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.inner.plane.write().remove_edge(owner, owned)
    }

    /// A snapshot of the current ownership network.
    pub fn ownership_graph(&self) -> OwnershipGraph {
        self.inner.plane.read().graph().clone()
    }

    /// The dominator of `target` under the configured mode.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] when `target` is unknown.
    pub fn dominator_of(&self, target: ContextId) -> Result<Dominator> {
        self.inner.plane.read().dominator_of(target)
    }

    /// Adds a new (logical) server and returns its id.
    pub fn add_server(&self) -> ServerId {
        self.inner.plane.write().add_server()
    }

    /// Marks a server offline.  The server must not host any contexts —
    /// migrate them away first (the elasticity manager does this when
    /// scaling in).
    ///
    /// # Errors
    ///
    /// * [`AeonError::ServerNotFound`] for unknown servers.
    /// * [`AeonError::Config`] when contexts are still placed on it.
    pub fn remove_server(&self, server: ServerId) -> Result<()> {
        self.inner.plane.write().retire_server(server)
    }

    /// Simulates a server crash: the server goes offline immediately and
    /// every context hosted on it becomes unavailable (its lock is poisoned
    /// and its state is dropped) until restored elsewhere with
    /// [`AeonRuntime::restore_context`].  The ownership network and the
    /// placement map keep the contexts' identities, mirroring the
    /// distributed deployment's crash behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ServerNotFound`] for unknown servers.
    pub fn crash_server(&self, server: ServerId) -> Result<()> {
        let hosted = self.inner.plane.write().mark_crashed(server)?;
        let mut contexts = self.inner.contexts.write();
        for context in hosted {
            if let Some(slot) = contexts.remove(&context) {
                slot.lock.poison();
            }
        }
        Ok(())
    }

    /// Re-hosts a context from externally held state (e.g. a checkpoint)
    /// after its server crashed.  The context keeps its identity and
    /// ownership edges; only its placement and state change.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ContextNotFound`] when the context was never created.
    /// * [`AeonError::MigrationFailed`] when no factory is registered for
    ///   its class.
    /// * [`AeonError::ServerNotFound`] when `server` is offline.
    pub fn restore_context(
        &self,
        context: ContextId,
        state: &Value,
        server: ServerId,
    ) -> Result<()> {
        let class = {
            let plane = self.inner.plane.read();
            if !plane.is_online(server) {
                return Err(AeonError::ServerNotFound(server));
            }
            plane.class_of(context)?.to_string()
        };
        let factory = self
            .inner
            .factories
            .read()
            .get(&class)
            .cloned()
            .ok_or_else(|| AeonError::MigrationFailed {
                context,
                reason: format!("no factory registered for class {class}"),
            })?;
        let object = factory(state);
        // A re-host is recorded as a single-write event: everything the
        // context does afterwards happens-after this install.
        let sink = self.inner.sink();
        let event = EventId::new(self.inner.ids.next_raw());
        if let Some(sink) = &sink {
            sink.invoked(event);
            sink.accessed(event, context, AccessMode::Exclusive);
        }
        self.inner
            .contexts
            .write()
            .insert(context, ContextSlot::new(context, object));
        if let Some(sink) = &sink {
            sink.responded(event);
        }
        self.inner.plane.write().set_placement(context, server)
    }

    /// Ids of all online servers.
    pub fn servers(&self) -> Vec<ServerId> {
        self.inner.plane.read().online_servers()
    }

    /// Current per-server load metrics (the elasticity control-plane feed).
    ///
    /// CPU/memory/IO are approximated from relative context load since the
    /// logical servers share the host machine; the latency is the
    /// runtime-wide mean event latency.  Queue depth is *per server*: the
    /// process-wide worker pool keys every queued task by its target
    /// context, so each task is attributed to the server hosting that
    /// context.  (An even split was used here once — it made every server
    /// look equally loaded and hid exactly the hotspots the elasticity
    /// policies exist to find.)  Tasks whose context has no placement yet
    /// (racing a create/migrate) are spread round-robin so the fleet-wide
    /// sum stays meaningful.
    pub fn server_metrics(&self) -> Vec<ServerMetrics> {
        let latency = self.stats().latency_summary();
        let histogram = self.stats().latency_histogram();
        let queued = self.inner.executor.queued_by_key();
        let plane = self.inner.plane.read();
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
                let hosted = plane.contexts_on(server).len();
                let queue_depth = depth.get(&server).copied().unwrap_or(0)
                    + unplaced / fleet
                    + usize::from(i < unplaced % fleet);
                ServerMetrics::from_load_with_latency(
                    server,
                    hosted,
                    total_contexts,
                    queue_depth,
                    latency.mean_micros / 1_000.0,
                    histogram,
                )
            })
            .collect()
    }

    /// The server currently hosting `context`.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] for unknown contexts.
    pub fn placement_of(&self, context: ContextId) -> Result<ServerId> {
        self.inner.plane.read().placement_of(context)
    }

    /// All contexts currently placed on `server`.
    pub fn contexts_on(&self, server: ServerId) -> Vec<ContextId> {
        self.inner.plane.read().contexts_on(server)
    }

    /// Number of contexts placed on online servers.
    pub fn context_count(&self) -> usize {
        self.inner.plane.read().context_count()
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
    /// panics; the runtime never announces a blocking wait, so its pool
    /// starts no thread beyond its workers).
    pub fn executor_stats(&self) -> ExecutorStats {
        self.inner.executor.stats()
    }

    /// Shuts the runtime down: subsequent submissions fail, events blocked
    /// on context locks are aborted, the worker pool is stopped (queued
    /// events resolve their handles as closed), and no event is
    /// executing any more when this returns — wherever it ran: on a pool
    /// worker or on the thread of a blocking caller
    /// ([`AeonClient::call_with_mode`]).
    pub fn shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        for slot in self.inner.contexts.read().values() {
            slot.lock.poison();
        }
        self.inner.global_root.poison();
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
    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Submits an exclusive (update) event and returns a completion handle.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::RuntimeShutdown`] after shutdown and
    /// [`AeonError::ContextNotFound`] for unknown targets.
    pub fn submit_event(&self, target: ContextId, method: &str, args: Args) -> Result<EventHandle> {
        self.submit(target, method, args, AccessMode::Exclusive)
    }

    /// Submits a read-only event (the paper's `ro` methods); read-only
    /// events of the same context may execute concurrently.
    ///
    /// When the class graph certifies the method for the fast path (`ro`
    /// with an empty `calls []` summary), the event skips dominator
    /// sequencing and executes under a shared activation of the target
    /// alone.
    ///
    /// # Errors
    ///
    /// Same conditions as [`AeonClient::submit_event`].
    pub fn submit_readonly_event(
        &self,
        target: ContextId,
        method: &str,
        args: Args,
    ) -> Result<EventHandle> {
        self.submit(target, method, args, AccessMode::ReadOnly)
    }

    /// Submits an event with an explicit access mode: the primitive behind
    /// [`AeonClient::submit_event`] and the `aeon-api` `Session`
    /// implementation.  The event runs on the worker pool; a caller that
    /// would only `wait()` on the handle should use
    /// [`AeonClient::call_with_mode`] instead.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::RuntimeShutdown`] after shutdown and
    /// [`AeonError::ContextNotFound`] for unknown targets.
    pub fn submit(
        &self,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<EventHandle> {
        let (request, footprint) = self.admit(target, method, args, mode)?;
        Ok(self.inner.spawn_event(request, footprint))
    }

    /// Executes an event **on the calling thread** and returns its result:
    /// what `submit(..)?.wait()` returns, without the hand-off to the worker
    /// pool and back (the `aeon-api` `Session::call` / `call_readonly` of
    /// this backend).  The event is the same event — sequenced at its
    /// dominator or admitted to the certified read-only fast path, recorded,
    /// counted in the statistics and in [`AeonRuntime::events_in_flight`] —
    /// and it takes its turn in the same context-lock queues; only the
    /// thread that waits there and then runs the method differs.
    ///
    /// # Errors
    ///
    /// Those of [`AeonClient::submit`], then the event's own:
    /// [`AeonError::EventAborted`] when the runtime shuts down while it
    /// waits for a context, and whatever the method returns.
    pub fn call_with_mode(
        &self,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<Value> {
        let (request, footprint) = self.admit(target, method, args, mode)?;
        self.inner.run_event(request, footprint).result
    }

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
        if self.inner.is_shutdown() {
            return Err(AeonError::RuntimeShutdown);
        }
        let slot = self.inner.context_slot(target)?;
        let request = EventRequest {
            id: EventId::new(self.inner.ids.next_raw()),
            client: Some(self.id),
            target,
            method: method.to_string(),
            args,
            mode,
        };
        // Recorded before the event is enqueued or run, so the invocation
        // timestamp can never be later than the true submission point.
        if let Some(sink) = self.inner.sink() {
            sink.invoked(request.id);
        }
        let footprint = self.inner.certified.admit(&slot.class, method, mode);
        Ok((request, footprint))
    }
}

/// Alias documenting the shape of events dispatched from within events.
pub use crate::invocation::SubEvent as DispatchedEvent;
