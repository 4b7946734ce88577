//! The deterministic virtual-time deployment backend.
//!
//! [`SimDeployment`] implements the `aeon-api` `Deployment`/`Session`
//! traits over a single-threaded, virtual-time execution engine: events
//! execute inline at submission, one at a time, which makes every run
//! trivially strictly serializable and bit-for-bit reproducible — the
//! property the evaluation harness needs.  Each event is charged virtual
//! time (network hops between the client and the servers it traverses plus
//! a per-method service time), so workload drivers written against the
//! unified API can read virtual latency and throughput while executing the
//! *real* contextclass code under the *real* event rules: events run
//! through the shared interpreter (`aeon_runtime::EventBody`), and the
//! engine's host of it only charges the hop/service cost of each context
//! entered and keeps the `(context, server)` trace the contention timeline
//! replays.
//!
//! The ownership network, placement map and server roster are a
//! [`ControlPlane`] embedded by value in the engine state — the same type,
//! and so the same rules and errors, as the runtime and the cluster's
//! directory authority; the engine adds only its object table, factories
//! and the virtual clock.  Dominators (the contention timeline's
//! sequencers) come from the plane's resolver in the default
//! [`DominatorMode`].
//!
//! The deterministic engine and the distributed cluster thereby bracket the
//! in-process runtime: same applications, same API, three execution
//! substrates.

use crate::resources::{CpuTimeline, LockTimeline};
use aeon_api::{Deployment, EventHandle, Session};
use aeon_ownership::{ClassGraph, ControlPlane, Dominator, DominatorMode, OwnershipGraph};
use aeon_runtime::{
    AnalysisMode, ContextFactory, ContextHost, ContextObject, Entered, EventBody, EventMeta,
    Footprint, Placement, Snapshot,
};
use aeon_types::{
    codec, AccessMode, AeonError, Args, ClientId, ContextId, EventId, IdGenerator, Result,
    ServerId, ServerMetrics, SharedHistorySink, SimDuration, SimTime, Value,
};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Builder for [`SimDeployment`].
#[derive(Debug)]
pub struct SimDeploymentBuilder {
    servers: usize,
    class_graph: Option<ClassGraph>,
    analysis: AnalysisMode,
    service: SimDuration,
    hop: SimDuration,
    contention_cores: Option<usize>,
    arrival_interval: Option<SimDuration>,
}

impl Default for SimDeploymentBuilder {
    fn default() -> Self {
        Self {
            servers: 1,
            class_graph: None,
            analysis: AnalysisMode::default(),
            service: SimDuration::from_micros(100),
            hop: SimDuration::from_micros(200),
            contention_cores: None,
            arrival_interval: None,
        }
    }
}

impl SimDeploymentBuilder {
    /// Sets the number of virtual servers.
    #[must_use]
    pub fn servers(mut self, servers: usize) -> Self {
        self.servers = servers;
        self
    }

    /// Installs a contextclass constraint graph; the static analysis runs
    /// at build time.
    #[must_use]
    pub fn class_graph(mut self, classes: ClassGraph) -> Self {
        self.class_graph = Some(classes);
        self
    }

    /// Sets how [`SimDeploymentBuilder::build`] treats static-analysis
    /// findings on the class graph: `Off` skips the pipeline, `Warn` prints
    /// diagnostics and proceeds, `Enforce` (the default) refuses to build on
    /// any error-severity diagnostic.
    #[must_use]
    pub fn analysis(mut self, mode: AnalysisMode) -> Self {
        self.analysis = mode;
        self
    }

    /// Sets the virtual CPU time charged per method execution.
    #[must_use]
    pub fn service_time(mut self, service: SimDuration) -> Self {
        self.service = service;
        self
    }

    /// Sets the virtual one-way network latency between servers.
    #[must_use]
    pub fn network_hop(mut self, hop: SimDuration) -> Self {
        self.hop = hop;
        self
    }

    /// Enables the contention timeline: instead of charging every event the
    /// serial `hop + cost + hop`, virtual time flows through contended
    /// resources: one lock per context and FIFO CPU cores per server.
    /// Each event is sequenced at its target's dominator (shared for
    /// read-only events), every context it touches takes its per-context
    /// lock, and CPU service queues on `cores` FIFO cores per server — so
    /// offered load beyond capacity shows up as queueing latency and
    /// throughput saturation, with the *real* contextclass code executing.
    #[must_use]
    pub fn contention(mut self, cores: usize) -> Self {
        self.contention_cores = Some(cores.max(1));
        self
    }

    /// Sets the open-loop inter-arrival gap between submitted events in
    /// contention mode (default: the service time, i.e. offered load equal
    /// to one core's capacity).  Ignored without
    /// [`SimDeploymentBuilder::contention`].
    #[must_use]
    pub fn arrival_interval(mut self, interval: SimDuration) -> Self {
        self.arrival_interval = Some(interval);
        self
    }

    /// Builds the deployment.
    ///
    /// # Errors
    ///
    /// * [`AeonError::Config`] when `servers` is zero.
    /// * [`AeonError::ClassCycleDetected`] when the class graph's ownership
    ///   constraints are cyclic.
    /// * [`AeonError::AnalysisRejected`] when the static analysis pipeline
    ///   reports error diagnostics and the mode is [`AnalysisMode::Enforce`].
    pub fn build(self) -> Result<SimDeployment> {
        if self.servers == 0 {
            return Err(AeonError::Config("at least one server is required".into()));
        }
        if let Some(classes) = &self.class_graph {
            classes.check()?;
            aeon_analyzer::enforce(classes, self.analysis)?;
        }
        let mut plane = ControlPlane::new(DominatorMode::default(), self.class_graph);
        for _ in 0..self.servers {
            plane.add_server();
        }
        let state = SimState {
            plane,
            contexts: HashMap::new(),
            factories: HashMap::new(),
            ids: IdGenerator::starting_at(1),
            clock: SimTime::ZERO,
            service: self.service,
            hop: self.hop,
            events_completed: 0,
            events_failed: 0,
            total_latency: SimDuration::ZERO,
            latency: aeon_types::LatencyHistogram::new(),
            shutdown: false,
            history: None,
            timeline: self.contention_cores.map(|cores| Timeline {
                cores,
                interval: self.arrival_interval.unwrap_or(self.service),
                next_arrival: SimTime::ZERO,
                locks: HashMap::new(),
                global_lock: LockTimeline::new(),
                cpus: HashMap::new(),
            }),
        };
        Ok(SimDeployment {
            inner: Arc::new(Mutex::new(state)),
        })
    }
}

/// The contended-resource state of the timeline mode: one sequencer/object
/// lock per context, one FIFO multi-core CPU per server, and an open-loop
/// arrival cursor.  Events still execute inline (real state, serial
/// histories); only their virtual-time accounting runs through these
/// resources.
struct Timeline {
    cores: usize,
    interval: SimDuration,
    next_arrival: SimTime,
    locks: HashMap<ContextId, LockTimeline>,
    /// Sequencer of events whose dominator is the unnamed global root
    /// (footnote 1, §3): the paper's per-application global sequencer.
    global_lock: LockTimeline,
    cpus: HashMap<ServerId, CpuTimeline>,
}

/// A context object behind its own lock, so handlers can borrow the engine
/// state mutably while the object executes.
type SharedObject = Arc<Mutex<Box<dyn ContextObject>>>;

/// A context hosted by the deterministic engine.
struct SimSlot {
    class: String,
    object: SharedObject,
}

/// The whole mutable state of the deterministic deployment, behind one
/// lock: execution is single-threaded by construction, which is what makes
/// it deterministic.
struct SimState {
    /// Ownership network, placement and roster — the same type the
    /// runtime and the cluster's directory authority hold.
    plane: ControlPlane,
    /// The context objects (the plane knows contexts only by id).
    contexts: HashMap<ContextId, SimSlot>,
    factories: HashMap<String, ContextFactory>,
    ids: IdGenerator,
    clock: SimTime,
    service: SimDuration,
    hop: SimDuration,
    events_completed: u64,
    events_failed: u64,
    total_latency: SimDuration,
    /// Distribution of per-event virtual latencies (same buckets as the
    /// live backends, so metric reports are comparable across engines).
    latency: aeon_types::LatencyHistogram,
    shutdown: bool,
    /// Optional live history sink.  The engine is single-threaded, so the
    /// recorded histories are serial by construction — useful to validate
    /// recording pipelines against a backend that cannot race.
    history: Option<SharedHistorySink>,
    /// Contention timeline (None: legacy serial accounting).
    timeline: Option<Timeline>,
}

impl SimState {
    fn slot(&self, id: ContextId) -> Result<(SharedObject, ServerId)> {
        let slot = self
            .contexts
            .get(&id)
            .ok_or(AeonError::ContextNotFound(id))?;
        Ok((Arc::clone(&slot.object), self.server_of(id)))
    }

    /// The server `id` is placed on (server 0 for a context the plane does
    /// not know, whose event fails on entry anyway).
    fn server_of(&self, id: ContextId) -> ServerId {
        self.plane.placement_of(id).unwrap_or(ServerId::new(0))
    }

    /// Creates a context: `declare` enters it into the control plane under
    /// the id it is handed (validating everything first), then the object
    /// is installed.
    fn create_context(
        &mut self,
        object: Box<dyn ContextObject>,
        declare: impl FnOnce(&mut ControlPlane, ContextId, &str) -> Result<ServerId>,
    ) -> Result<ContextId> {
        let class = object.class_name().to_string();
        let id = ContextId::new(self.ids.next_raw());
        declare(&mut self.plane, id, &class)?;
        self.install(id, class, object);
        Ok(id)
    }

    fn install(&mut self, id: ContextId, class: String, object: Box<dyn ContextObject>) {
        let object = Arc::new(Mutex::new(object));
        self.contexts.insert(id, SimSlot { class, object });
    }

    /// Charges one event's virtual time through the contended resources:
    /// client hop, sequencer acquisition at the target's dominator
    /// (shared for read-only events), then per touched context a server
    /// hop when crossing servers, the per-context lock, and FIFO CPU
    /// service — driven by the trace of the *real* execution.  Returns the
    /// event latency.
    fn charge_timeline(
        &mut self,
        target: ContextId,
        mode: AccessMode,
        entry_server: ServerId,
        trace: &[(ContextId, ServerId)],
    ) -> SimDuration {
        let hop = self.hop;
        let service = self.service;
        let readonly = mode.is_read_only();
        let timeline = self.timeline.as_mut().expect("timeline mode enabled");
        let arrival = timeline.next_arrival;
        timeline.next_arrival = arrival + timeline.interval;
        let mut now = arrival + hop;
        // Dominator sequencing; an unresolvable dominator (e.g. the target
        // vanished mid-run) falls back to the target's own lock.
        let sequencer = match self.plane.dominator_of(target) {
            Ok(Dominator::Context(context)) => Some(context),
            Ok(Dominator::GlobalRoot) => None,
            Err(_) => Some(target),
        };
        now = {
            let lock = match sequencer {
                Some(context) => timeline.locks.entry(context).or_default(),
                None => &mut timeline.global_lock,
            };
            if readonly {
                lock.next_shared_start(now)
            } else {
                lock.next_exclusive_start(now)
            }
        };
        let mut current_server = trace.first().map_or(entry_server, |(_, server)| *server);
        for &(context, server) in trace {
            if server != current_server {
                now += hop;
                current_server = server;
            }
            let start = {
                let lock = timeline.locks.entry(context).or_default();
                if readonly {
                    lock.next_shared_start(now)
                } else {
                    lock.next_exclusive_start(now)
                }
            };
            let cores = timeline.cores;
            let end = timeline
                .cpus
                .entry(server)
                .or_insert_with(|| CpuTimeline::new(cores))
                .run(start, service);
            let lock = timeline.locks.entry(context).or_default();
            if readonly {
                lock.hold_shared_until(end);
            } else {
                lock.hold_exclusive_until(end);
            }
            now = end;
        }
        // The sequencer was held for the whole execution.
        {
            let lock = match sequencer {
                Some(context) => timeline.locks.entry(context).or_default(),
                None => &mut timeline.global_lock,
            };
            if readonly {
                lock.hold_shared_until(now);
            } else {
                lock.hold_exclusive_until(now);
            }
        }
        now += hop;
        // The clock tracks the makespan: event completions overlap.
        if now > self.clock {
            self.clock = now;
        }
        now - arrival
    }

    /// Runs one event (plus its deferred `async` calls) and charges its
    /// virtual time; sub-events dispatched from within it run afterwards,
    /// exactly like on the other backends.
    fn run_event(
        &mut self,
        client: Option<ClientId>,
        target: ContextId,
        method: &str,
        args: &Args,
        mode: AccessMode,
    ) -> (EventId, Result<Value>) {
        let event = EventId::new(self.ids.next_raw());
        // Submission and execution coincide in the inline engine, so this
        // is the true invocation point.
        if let Some(sink) = &self.history {
            sink.invoked(event);
        }
        let entry_server = self.server_of(target);
        let mut host = SimHost {
            state: self,
            current_server: entry_server,
            cost: SimDuration::ZERO,
            trace: Vec::new(),
        };
        let meta = EventMeta {
            id: event,
            client,
            mode,
        };
        let outcome =
            EventBody::new(&mut host, meta, Footprint::Sequenced).run(None, target, method, args);
        let SimHost { cost, trace, .. } = host;
        let result = outcome.result;
        let latency = if self.timeline.is_some() {
            self.charge_timeline(target, mode, entry_server, &trace)
        } else {
            // Client -> entry server and reply hops bracket the execution.
            let latency = self.hop + cost + self.hop;
            self.clock += latency;
            latency
        };
        self.total_latency += latency;
        self.latency.record(latency.as_micros());
        if result.is_ok() {
            self.events_completed += 1;
        } else {
            self.events_failed += 1;
        }
        // The event terminated; sub-events (below) run after their creator.
        if let Some(sink) = &self.history {
            sink.responded(event);
        }
        for sub in outcome.sub_events {
            let _ = self.run_event(client, sub.target, &sub.method, &sub.args, sub.mode);
        }
        (event, result)
    }
}

/// The simulator's host of the event interpreter: every context is local
/// and nothing blocks, so entering one only charges virtual time.
struct SimHost<'a> {
    state: &'a mut SimState,
    current_server: ServerId,
    /// Serial-mode cost so far: a hop per server crossing plus a service
    /// time per context entered.
    cost: SimDuration,
    /// Contexts entered, in order, with their hosting servers — the step
    /// list the contention timeline replays.
    trace: Vec<(ContextId, ServerId)>,
}

impl ContextHost for SimHost<'_> {
    fn may_call(&self, caller: ContextId, target: ContextId) -> bool {
        self.state.plane.may_call(caller, target)
    }

    fn enter(&mut self, _event: &EventMeta, target: ContextId) -> Result<Entered> {
        let (object, server) = self.state.slot(target)?;
        if server != self.current_server {
            self.cost += self.state.hop;
            self.current_server = server;
        }
        self.cost += self.state.service;
        self.trace.push((target, server));
        Ok(Entered::Local(object))
    }

    fn record_access(&self, event: &EventMeta, context: ContextId) {
        if let Some(sink) = &self.state.history {
            sink.accessed(event.id, context, event.mode);
        }
    }

    fn create_child(
        &mut self,
        owner: ContextId,
        object: Box<dyn ContextObject>,
    ) -> Result<ContextId> {
        self.state.create_context(object, |plane, id, class| {
            plane.declare_owned(id, class, &[owner])
        })
    }

    fn add_ownership(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.state.plane.add_edge(owner, owned)
    }

    fn remove_ownership(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.state.plane.remove_edge(owner, owned)
    }

    fn children(&self, parent: ContextId, class: Option<&str>) -> Result<Vec<ContextId>> {
        self.state.plane.children_of(parent, class)
    }
}

/// The deterministic virtual-time deployment: the third execution backend
/// of the unified API, next to `AeonRuntime` and `Cluster`.
///
/// Cloning the handle is cheap and all clones drive the same deployment.
///
/// # Examples
///
/// ```
/// use aeon_api::{Deployment, Session};
/// use aeon_runtime::KvContext;
/// use aeon_sim::SimDeployment;
/// use aeon_types::{args, Value};
///
/// # fn main() -> aeon_types::Result<()> {
/// let sim = SimDeployment::builder().servers(4).build()?;
/// let item = sim.create_context(Box::new(KvContext::new("Item")), aeon_api::Placement::Auto)?;
/// let session = sim.session();
/// session.call(item, "incr", args!["gold", 3])?;
/// assert_eq!(session.call_readonly(item, "get", args!["gold"])?, Value::from(3i64));
/// assert!(sim.virtual_now() > aeon_types::SimTime::ZERO);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct SimDeployment {
    inner: Arc<Mutex<SimState>>,
}

impl std::fmt::Debug for SimDeployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.lock();
        f.debug_struct("SimDeployment")
            .field("contexts", &state.contexts.len())
            .field("clock", &state.clock)
            .finish_non_exhaustive()
    }
}

impl SimDeployment {
    /// Starts building a deterministic deployment.
    pub fn builder() -> SimDeploymentBuilder {
        SimDeploymentBuilder::default()
    }

    /// Opens a session (concrete type; the trait method boxes it).
    pub fn client(&self) -> SimSession {
        let id = ClientId::new(self.inner.lock().ids.next_raw());
        SimSession {
            inner: Arc::clone(&self.inner),
            id,
        }
    }

    /// The current virtual time.  In the default serial accounting events
    /// run back to back, so it is the sum of the virtual latencies of every
    /// event (and migration) so far; in contention mode events overlap and
    /// it is the makespan, the latest completion time.
    pub fn virtual_now(&self) -> SimTime {
        self.inner.lock().clock
    }

    /// Number of events that completed successfully.
    pub fn events_completed(&self) -> u64 {
        self.inner.lock().events_completed
    }

    /// Number of events that failed.
    pub fn events_failed(&self) -> u64 {
        self.inner.lock().events_failed
    }

    /// Mean virtual latency per event, or zero before the first event.
    pub fn mean_virtual_latency(&self) -> SimDuration {
        let state = self.inner.lock();
        let events = state.events_completed + state.events_failed;
        SimDuration::from_micros(
            state
                .total_latency
                .as_micros()
                .checked_div(events)
                .unwrap_or(0),
        )
    }

    /// Whether the contention timeline is enabled.
    pub fn contention_enabled(&self) -> bool {
        self.inner.lock().timeline.is_some()
    }

    /// Virtual throughput: completed events over the virtual makespan
    /// ([`SimDeployment::virtual_now`]), in events per virtual second.
    pub fn virtual_throughput(&self) -> f64 {
        let state = self.inner.lock();
        let horizon = state.clock.as_secs_f64();
        if horizon == 0.0 {
            return 0.0;
        }
        state.events_completed as f64 / horizon
    }

    /// Rewinds virtual time to zero: clears the clock, event counters,
    /// latency accounting, and (in contention mode) every lock and CPU
    /// timeline plus the arrival cursor.  Drivers call this between the
    /// deployment phase and the measured stream so setup traffic does not
    /// contend with the workload.  Context state and history sinks are
    /// untouched.
    pub fn reset_virtual_time(&self) {
        let mut state = self.inner.lock();
        state.clock = SimTime::ZERO;
        state.events_completed = 0;
        state.events_failed = 0;
        state.total_latency = SimDuration::ZERO;
        state.latency = aeon_types::LatencyHistogram::new();
        if let Some(timeline) = &mut state.timeline {
            timeline.next_arrival = SimTime::ZERO;
            timeline.locks.clear();
            timeline.global_lock = LockTimeline::new();
            timeline.cpus.clear();
        }
    }
}

/// A client session on a [`SimDeployment`]; events execute inline at
/// submission, in submission order.
#[derive(Clone)]
pub struct SimSession {
    inner: Arc<Mutex<SimState>>,
    id: ClientId,
}

impl std::fmt::Debug for SimSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession").field("id", &self.id).finish()
    }
}

impl Session for SimSession {
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
        let mut state = self.inner.lock();
        if state.shutdown {
            return Err(AeonError::RuntimeShutdown);
        }
        if !state.contexts.contains_key(&target) {
            return Err(AeonError::ContextNotFound(target));
        }
        let (event, result) = state.run_event(Some(self.id), target, method, &args, mode);
        Ok(EventHandle::ready(event, result))
    }
}

impl Deployment for SimDeployment {
    fn backend_name(&self) -> &'static str {
        "sim"
    }

    fn create_context(
        &self,
        object: Box<dyn ContextObject>,
        placement: Placement,
    ) -> Result<ContextId> {
        self.inner
            .lock()
            .create_context(object, |plane, id, class| {
                plane.declare_root(id, class, placement)
            })
    }

    fn create_owned_context(
        &self,
        object: Box<dyn ContextObject>,
        owners: &[ContextId],
    ) -> Result<ContextId> {
        self.inner
            .lock()
            .create_context(object, |plane, id, class| {
                plane.declare_owned(id, class, owners)
            })
    }

    fn register_class_factory(&self, class: &str, factory: ContextFactory) {
        self.inner
            .lock()
            .factories
            .insert(class.to_string(), factory);
    }

    fn install_history_sink(&self, sink: SharedHistorySink) {
        self.inner.lock().history = Some(sink);
    }

    fn add_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.inner.lock().plane.add_edge(owner, owned)
    }

    fn remove_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.inner.lock().plane.remove_edge(owner, owned)
    }

    fn ownership_graph(&self) -> OwnershipGraph {
        self.inner.lock().plane.graph().clone()
    }

    fn session(&self) -> Box<dyn Session> {
        Box::new(self.client())
    }

    fn migrate_context(&self, context: ContextId, to_server: ServerId) -> Result<u64> {
        let mut state = self.inner.lock();
        if !state.plane.is_online(to_server) {
            return Err(AeonError::ServerNotFound(to_server));
        }
        let slot = state
            .contexts
            .get(&context)
            .ok_or(AeonError::ContextNotFound(context))?;
        let object = Arc::clone(&slot.object);
        let class = slot.class.clone();
        let moved = {
            let mut object = object.lock();
            let snapshot = object.snapshot();
            let bytes = codec::encoded_len(&snapshot) as u64;
            if let Some(factory) = state.factories.get(&class) {
                *object = factory(&snapshot);
            }
            bytes
        };
        state.plane.set_placement(context, to_server)?;
        // A migration costs one network round trip of virtual time; in
        // contention mode the context is additionally unavailable for that
        // round trip, so in-flight load queues behind the move.
        let hop = state.hop;
        let blocked_until = state.clock + hop + hop;
        if let Some(timeline) = &mut state.timeline {
            timeline
                .locks
                .entry(context)
                .or_default()
                .block_until(blocked_until);
        }
        state.clock += hop + hop;
        Ok(moved)
    }

    fn add_server(&self) -> ServerId {
        self.inner.lock().plane.add_server()
    }

    fn remove_server(&self, server: ServerId) -> Result<()> {
        self.inner.lock().plane.retire_server(server)
    }

    fn server_metrics(&self) -> Vec<ServerMetrics> {
        // Virtual-time metrics: the latency signal is the mean virtual
        // latency charged to events so far, and the queue depth is zero
        // because the deterministic engine executes events inline.
        let state = self.inner.lock();
        let total_contexts = state.plane.context_count();
        let events = state.events_completed + state.events_failed;
        let avg_latency_ms = if events == 0 {
            0.0
        } else {
            state.total_latency.as_micros() as f64 / events as f64 / 1_000.0
        };
        state
            .plane
            .online_servers()
            .into_iter()
            .map(|server| {
                let hosted = state.plane.contexts_on(server).len();
                ServerMetrics::from_load_with_latency(
                    server,
                    hosted,
                    total_contexts,
                    0,
                    avg_latency_ms,
                    state.latency,
                )
            })
            .collect()
    }

    fn context_count(&self) -> usize {
        self.inner.lock().plane.context_count()
    }

    fn crash_server(&self, server: ServerId) -> Result<()> {
        let mut state = self.inner.lock();
        for context in state.plane.mark_crashed(server)? {
            state.contexts.remove(&context);
        }
        Ok(())
    }

    fn servers(&self) -> Vec<ServerId> {
        self.inner.lock().plane.online_servers()
    }

    fn placement_of(&self, context: ContextId) -> Result<ServerId> {
        self.inner.lock().plane.placement_of(context)
    }

    fn contexts_on(&self, server: ServerId) -> Vec<ContextId> {
        self.inner.lock().plane.contexts_on(server)
    }

    fn snapshot_context(&self, root: ContextId) -> Result<Snapshot> {
        let state = self.inner.lock();
        // The engine lock makes any capture a frozen cut; the members are
        // still visited owner-before-owned and recorded as one read set,
        // matching the other backends' snapshot semantics.
        let members = state.plane.graph().subtree_topological(root)?;
        let event = EventId::new(state.ids.next_raw());
        if let Some(sink) = &state.history {
            sink.invoked(event);
        }
        let mut snapshot = Snapshot::new(root);
        let result = (|| -> Result<()> {
            for member in members {
                let slot = state
                    .contexts
                    .get(&member)
                    .ok_or(AeonError::ContextNotFound(member))?;
                let object = slot.object.lock();
                if let Some(sink) = &state.history {
                    sink.accessed(event, member, AccessMode::ReadOnly);
                }
                let captured = object.snapshot();
                if !captured.is_null() {
                    snapshot.insert(member, slot.class.clone(), captured);
                }
            }
            Ok(())
        })();
        if let Some(sink) = &state.history {
            sink.responded(event);
        }
        result.map(|()| snapshot)
    }

    fn restore_snapshot(&self, snapshot: &Snapshot) -> Result<()> {
        let state = self.inner.lock();
        for (id, _) in snapshot.entries() {
            // Fail before mutating anything when an entry vanished — the
            // same all-or-nothing contract as the runtime and the cluster.
            if !state.contexts.contains_key(id) {
                return Err(AeonError::ContextNotFound(*id));
            }
        }
        let event = EventId::new(state.ids.next_raw());
        if let Some(sink) = &state.history {
            sink.invoked(event);
        }
        let result = (|| -> Result<()> {
            for (id, entry) in snapshot.entries() {
                let slot = state
                    .contexts
                    .get(id)
                    .ok_or(AeonError::ContextNotFound(*id))?;
                let mut object = slot.object.lock();
                if let Some(sink) = &state.history {
                    sink.accessed(event, *id, AccessMode::Exclusive);
                }
                object.restore(&entry.state);
            }
            Ok(())
        })();
        if let Some(sink) = &state.history {
            sink.responded(event);
        }
        result
    }

    fn restore_context(
        &self,
        context: ContextId,
        state_value: &Value,
        server: ServerId,
    ) -> Result<()> {
        let mut state = self.inner.lock();
        if !state.plane.is_online(server) {
            return Err(AeonError::ServerNotFound(server));
        }
        let class = state.plane.class_of(context)?.to_string();
        let factory =
            state
                .factories
                .get(&class)
                .cloned()
                .ok_or_else(|| AeonError::MigrationFailed {
                    context,
                    reason: format!("no factory registered for class {class}"),
                })?;
        let object = factory(state_value);
        // A re-host is recorded as a single-write event, like the other
        // backends.
        if let Some(sink) = &state.history {
            let event = EventId::new(state.ids.next_raw());
            sink.invoked(event);
            sink.accessed(event, context, AccessMode::Exclusive);
            sink.responded(event);
        }
        state.install(context, class, object);
        state.plane.set_placement(context, server)
    }

    fn shutdown(&self) {
        self.inner.lock().shutdown = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_runtime::KvContext;
    use aeon_types::args;

    #[test]
    fn events_execute_inline_and_charge_virtual_time() {
        let sim = SimDeployment::builder().servers(2).build().unwrap();
        let item = sim
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let session = sim.client();
        assert_eq!(
            session.call(item, "incr", args!["n", 5]).unwrap(),
            Value::from(5i64)
        );
        assert_eq!(sim.events_completed(), 1);
        let after_one = sim.virtual_now();
        assert!(after_one > SimTime::ZERO);
        session.call(item, "incr", args!["n", 1]).unwrap();
        assert!(sim.virtual_now() > after_one);
        assert!(sim.mean_virtual_latency() > SimDuration::ZERO);
    }

    #[test]
    fn readonly_and_unknown_method_semantics_match_the_runtime() {
        let sim = SimDeployment::builder().build().unwrap();
        let item = sim
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let session = sim.client();
        assert!(matches!(
            session.call_readonly(item, "incr", args!["n", 1]),
            Err(AeonError::ReadOnlyViolation { .. })
        ));
        assert!(matches!(
            session.call(item, "bogus", args![]),
            Err(AeonError::UnknownMethod { .. })
        ));
        assert_eq!(sim.events_failed(), 2);
    }

    #[test]
    fn migration_and_placement_are_tracked() {
        let sim = SimDeployment::builder().servers(3).build().unwrap();
        sim.register_class_factory(
            "Item",
            Arc::new(|state: &Value| {
                let mut item = KvContext::new("Item");
                ContextObject::restore(&mut item, state);
                Box::new(item) as Box<dyn ContextObject>
            }),
        );
        let item = sim
            .create_context(
                Box::new(KvContext::new("Item")),
                Placement::Server(ServerId::new(0)),
            )
            .unwrap();
        let session = sim.client();
        session.call(item, "set", args!["gold", 7]).unwrap();
        let moved = sim.migrate_context(item, ServerId::new(2)).unwrap();
        assert!(moved > 0);
        assert_eq!(sim.placement_of(item).unwrap(), ServerId::new(2));
        assert_eq!(
            session.call_readonly(item, "get", args!["gold"]).unwrap(),
            Value::from(7i64)
        );
    }

    #[test]
    fn contention_mode_saturates_a_single_sequencer() {
        // All events arrive at t=0 against one context on a one-core
        // server: the k-th event queues behind k predecessors, exactly the
        // fig5b saturation shape — but executing real contextclass code.
        let service = SimDuration::from_micros(100);
        let sim = SimDeployment::builder()
            .servers(1)
            .contention(1)
            .arrival_interval(SimDuration::ZERO)
            .service_time(service)
            .network_hop(SimDuration::ZERO)
            .build()
            .unwrap();
        let item = sim
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let session = sim.client();
        let events = 10u64;
        for _ in 0..events {
            session.call(item, "incr", args!["n", 1]).unwrap();
        }
        assert_eq!(sim.events_completed(), events);
        // Makespan: a serialized FIFO chain of `events` service times.
        let micros = |n: u64| SimTime::from_micros(service.as_micros() * n);
        assert_eq!(sim.virtual_now(), micros(events));
        // Mean latency of the chain: (1 + 2 + ... + 10)/10 = 5.5 services.
        assert_eq!(
            sim.mean_virtual_latency().as_micros(),
            service.as_micros() * (events + 1) / 2
        );
        assert!((sim.virtual_throughput() - 10_000.0).abs() < 1.0);
    }

    #[test]
    fn readonly_events_overlap_on_shared_locks_and_spare_cores() {
        let service = SimDuration::from_micros(100);
        let build = |readonly: bool| {
            let sim = SimDeployment::builder()
                .servers(1)
                .contention(4)
                .arrival_interval(SimDuration::ZERO)
                .service_time(service)
                .network_hop(SimDuration::ZERO)
                .build()
                .unwrap();
            let item = sim
                .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
                .unwrap();
            let session = sim.client();
            for _ in 0..4 {
                if readonly {
                    session.call_readonly(item, "get", args!["n"]).unwrap();
                } else {
                    session.call(item, "incr", args!["n", 1]).unwrap();
                }
            }
            sim.virtual_now()
        };
        // Four concurrent reads share the sequencer and spread over the
        // four cores; four writes serialize on the exclusive lock.
        assert_eq!(build(true), SimTime::ZERO + service);
        assert_eq!(build(false), SimTime::from_micros(service.as_micros() * 4));
    }

    #[test]
    fn contention_mode_scales_out_across_servers() {
        let service = SimDuration::from_micros(100);
        let makespan = |servers: usize| {
            let sim = SimDeployment::builder()
                .servers(servers)
                .contention(1)
                .arrival_interval(SimDuration::ZERO)
                .service_time(service)
                .network_hop(SimDuration::ZERO)
                .build()
                .unwrap();
            let contexts: Vec<ContextId> = (0..2)
                .map(|_| {
                    sim.create_context(Box::new(KvContext::new("Item")), Placement::Auto)
                        .unwrap()
                })
                .collect();
            let session = sim.client();
            for i in 0..20 {
                session
                    .call(contexts[i % contexts.len()], "incr", args!["n", 1])
                    .unwrap();
            }
            sim.virtual_now()
        };
        // Independent sequencers on independent servers run in parallel:
        // doubling the servers halves the makespan (the fig5a shape).
        assert_eq!(makespan(2), SimTime::from_micros(service.as_micros() * 10));
        assert_eq!(makespan(1), SimTime::from_micros(service.as_micros() * 20));
    }

    #[test]
    fn reset_virtual_time_clears_the_timeline_between_phases() {
        let sim = SimDeployment::builder()
            .servers(1)
            .contention(1)
            .arrival_interval(SimDuration::ZERO)
            .network_hop(SimDuration::ZERO)
            .build()
            .unwrap();
        let item = sim
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let session = sim.client();
        for _ in 0..5 {
            session.call(item, "incr", args!["n", 1]).unwrap();
        }
        assert!(sim.contention_enabled());
        assert!(sim.virtual_now() > SimTime::ZERO);
        sim.reset_virtual_time();
        assert_eq!(sim.virtual_now(), SimTime::ZERO);
        assert_eq!(sim.events_completed(), 0);
        // State survives the reset; only virtual time rewinds.
        session.call(item, "incr", args!["n", 1]).unwrap();
        assert_eq!(
            session.call_readonly(item, "get", args!["n"]).unwrap(),
            Value::from(6i64)
        );
    }

    #[test]
    fn crash_and_restore_round_trip() {
        let sim = SimDeployment::builder().servers(2).build().unwrap();
        sim.register_class_factory(
            "Item",
            Arc::new(|state: &Value| {
                let mut item = KvContext::new("Item");
                ContextObject::restore(&mut item, state);
                Box::new(item) as Box<dyn ContextObject>
            }),
        );
        let item = sim
            .create_context(
                Box::new(KvContext::new("Item")),
                Placement::Server(ServerId::new(1)),
            )
            .unwrap();
        let session = sim.client();
        session.call(item, "set", args!["gold", 3]).unwrap();
        let snapshot = sim.snapshot_context(item).unwrap();
        sim.crash_server(ServerId::new(1)).unwrap();
        assert!(session.call_readonly(item, "get", args!["gold"]).is_err());
        let state = &snapshot.get(item).unwrap().state;
        sim.restore_context(item, state, ServerId::new(0)).unwrap();
        assert_eq!(
            session.call_readonly(item, "get", args!["gold"]).unwrap(),
            Value::from(3i64)
        );
    }
}
