//! The backend-agnostic deployment API: the [`Deployment`] and [`Session`]
//! traits, over one [`ControlState`].
//!
//! The paper's promise is that one contextclass program runs unchanged on a
//! single server or on fifty.  [`Deployment`] is the control plane
//! (contexts, the ownership network, class factories, servers, load
//! metrics, migration, snapshots); [`Session`] is the data plane
//! (strictly-serializable events, each resolved through one
//! [`EventHandle`]).  The traits live here, next to the interpreter their
//! `ContextObject`s run under, and three backends implement them: this
//! crate's [`AeonRuntime`](crate::AeonRuntime), `aeon_cluster::Cluster`
//! and `aeon_sim::SimDeployment`.
//!
//! In the paper one authority, the eManager, keeps the context mapping and
//! the ownership network for every client and host (§5.1).  Here that is a
//! [`ControlState`]: the [`ControlPlane`] behind one `RwLock`, the class
//! factories, the id generator, the history sink and the shutdown flag.
//! It also admits every event: the set of certified reads, built once from
//! the plane's class graph, decides with [`ControlState::admit`] whether an
//! event is sequenced at its dominator or takes the read-only fast path,
//! and counts the events it admits to that path — the one count every
//! backend's `executor_stats` reports.
//! A backend supplies two hooks — [`Deployment::control`], its state, and
//! [`Deployment::host`], the one step that installs a new or restored
//! context on a server — and what really differs: its name, sessions,
//! metrics, servers and shutdown.  Everything else is written once, as a
//! provided method: the plane queries, the edge edits, factory and sink
//! registration, create and restore over `host`, and a snapshot, a restore
//! of one and a migration, each one event running a reserved method of the
//! interpreter.

use crate::event::EventHandle;
use crate::{
    CertifiedReads, ContextFactory, ContextObject, ExecutorStats, Footprint, Placement, Snapshot,
    MIGRATE_METHOD, RESTORE_METHOD, SNAPSHOT_METHOD,
};
use aeon_ownership::{ControlPlane, OwnershipGraph};
use aeon_types::{
    args, AccessMode, AeonError, Args, ClientId, ContextId, EventId, IdGenerator,
    NetworkStatsSnapshot, Result, ServerId, ServerMetrics, SharedHistorySink, Value,
};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The control state of a deployment in one process — what the paper's
/// eManager keeps for every client and host: the [`ControlPlane`]
/// (ownership network, placement, roster) behind one `RwLock`, the certified
/// reads of its class graph and the count of events admitted as one, the
/// class factories, the id generator for contexts, events and clients, the
/// history sink and the shutdown flag.  The runtime holds one; a cluster's
/// gateway and its in-process nodes share one.
pub struct ControlState {
    plane: RwLock<ControlPlane>,
    certified: CertifiedReads,
    fast_path: AtomicU64,
    factories: ClassFactories,
    ids: IdGenerator,
    history: RwLock<Option<SharedHistorySink>>,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for ControlState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControlState")
            .field("contexts", &self.plane.read().graph().len())
            .field("shutdown", &self.shutdown)
            .finish_non_exhaustive()
    }
}

impl ControlState {
    /// The state of a running deployment over `plane`; its class graph, if
    /// any, fixes the certified reads.
    pub fn new(plane: ControlPlane) -> Self {
        Self {
            certified: CertifiedReads::new(plane.classes()),
            fast_path: AtomicU64::new(0),
            plane: RwLock::new(plane),
            factories: ClassFactories::default(),
            ids: IdGenerator::starting_at(1),
            history: RwLock::new(None),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The control plane.  No guard on it may be held across contextclass
    /// code, a wait on a context lock or a send.
    pub fn plane(&self) -> &RwLock<ControlPlane> {
        &self.plane
    }

    /// The registered class factories.
    pub fn factories(&self) -> &ClassFactories {
        &self.factories
    }

    /// A fresh raw id, for a context, an event or a client.
    pub fn next_raw(&self) -> u64 {
        self.ids.next_raw()
    }

    /// The installed history sink, if any (cloned out, so that nothing
    /// records under the registry's lock).
    pub fn sink(&self) -> Option<SharedHistorySink> {
        self.history.read().clone()
    }

    /// `Ok` until shutdown, [`AeonError::RuntimeShutdown`] from then on:
    /// the guard of every operation a shut-down deployment refuses.
    ///
    /// # Errors
    ///
    /// [`AeonError::RuntimeShutdown`] once [`ControlState::shut_down`] ran.
    pub fn running(&self) -> Result<()> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(AeonError::RuntimeShutdown);
        }
        Ok(())
    }

    /// Marks the deployment shut down, and says whether it was already.
    pub fn shut_down(&self) -> bool {
        self.shutdown.swap(true, Ordering::SeqCst)
    }

    /// How an event running `method` in `mode` is admitted, and counted
    /// among the fast path's events when it is certified: a read of a
    /// method the analyzer certified (`ro` with an empty `calls []`
    /// summary) for `class`, its target's class, skips dominator sequencing;
    /// anything else is sequenced.  `class` is asked only for a read, and
    /// only when some method is certified; `None` (an unknown target) is
    /// sequenced.
    pub fn admit<'c>(
        &self,
        class: impl FnOnce() -> Option<&'c str>,
        method: &str,
        mode: AccessMode,
    ) -> Footprint {
        if self.certified.is_empty() || !mode.is_read_only() {
            return Footprint::Sequenced;
        }
        if !class().is_some_and(|class| self.certified.contains(class, method)) {
            return Footprint::Sequenced;
        }
        self.fast_path.fetch_add(1, Ordering::Relaxed);
        Footprint::Certified
    }

    /// The number of events [`ControlState::admit`] admitted to the
    /// read-only fast path.
    pub fn fast_path_events(&self) -> u64 {
        self.fast_path.load(Ordering::Relaxed)
    }

    /// Answers one [`DirOp`] from the plane: what every host's
    /// [`ContextHost::ask`](crate::ContextHost::ask) comes down to, here or
    /// — for a cluster's node process — at the gateway.  Queries take a
    /// read guard on the plane, changes a write guard, each for the one
    /// plane call only.
    ///
    /// # Errors
    ///
    /// Propagates the error of the control-plane operation.
    pub fn answer(&self, op: DirOp) -> Result<DirReply> {
        let (plane, contexts, unit) = (&self.plane, DirReply::Contexts, |()| DirReply::Unit);
        match op {
            DirOp::PlacementOf(context) => plane.read().placement_of(context).map(DirReply::Server),
            DirOp::SetPlacement(context, to) => plane.write().set_placement(context, to).map(unit),
            DirOp::PathOwners(from, to) => plane.read().path_owners(from, to).map(contexts),
            DirOp::ChildrenOf { parent, class } => {
                let children = plane.read().children_of(parent, class.as_deref());
                children.map(contexts)
            }
            DirOp::Subtree(root) => plane.read().graph().subtree_topological(root).map(contexts),
            DirOp::AddEdge(owner, owned) => plane.write().add_edge(owner, owned).map(unit),
            DirOp::RemoveEdge(owner, owned) => plane.write().remove_edge(owner, owned).map(unit),
            DirOp::CreateOwned { owner, class } => {
                let id = ContextId::new(self.next_raw());
                plane.write().declare_owned(id, &class, &[owner])?;
                Ok(DirReply::Context(id))
            }
        }
    }
}

/// A question to the control plane, or a change of it, that a host asks
/// while it runs an event: the one vocabulary every backend's
/// [`ContextHost::ask`](crate::ContextHost::ask) speaks, answered by
/// [`ControlState::answer`].  A cluster's node process ships it to the
/// gateway, so it has a byte representation (listed below): the paper's
/// "query the eManager / read the mapping from cloud storage" (§5.1).
#[derive(Debug, Clone, PartialEq)]
pub enum DirOp {
    /// Which server hosts this context?
    PlacementOf(ContextId),
    /// Record (or update) a context's placement.
    SetPlacement(ContextId, ServerId),
    /// The owners of `callee` a call from `caller` reaches it through
    /// (none for a direct edge; refused when there is no path).
    PathOwners(ContextId, ContextId),
    /// Direct children of `parent`, optionally filtered by class.
    ChildrenOf {
        /// The parent context.
        parent: ContextId,
        /// Optional class filter.
        class: Option<String>,
    },
    /// A context and everything it (transitively) owns, owner before owned.
    Subtree(ContextId),
    /// Add an ownership edge (class constraints are checked by the plane).
    AddEdge(ContextId, ContextId),
    /// Remove an ownership edge.
    RemoveEdge(ContextId, ContextId),
    /// Atomically validate class constraints, allocate an id, declare the
    /// context, and add the `owner → child` edge (the control-plane half
    /// of creating a child; the caller installs state and placement after).
    CreateOwned {
        /// The owning context.
        owner: ContextId,
        /// Class of the new child.
        class: String,
    },
}

/// What [`ControlState::answer`] returns for a [`DirOp`].
#[derive(Debug, Clone, PartialEq)]
pub enum DirReply {
    /// Nothing to report.
    Unit,
    /// A server id ([`DirOp::PlacementOf`]).
    Server(ServerId),
    /// A context id ([`DirOp::CreateOwned`]).
    Context(ContextId),
    /// A list of context ids ([`DirOp::ChildrenOf`], [`DirOp::Subtree`],
    /// [`DirOp::PathOwners`]).
    Contexts(Vec<ContextId>),
}

/// A [`DirReply`] unpacks into what its op asks for: `()`, a [`ServerId`],
/// a [`ContextId`] or a list of them.  Any other reply is an
/// [`AeonError::Internal`]: whoever answered broke the protocol.
macro_rules! unpack_dir_reply {
    ($($into:ty: $reply:pat => $value:expr;)*) => {$(
        impl TryFrom<DirReply> for $into {
            type Error = AeonError;

            fn try_from(reply: DirReply) -> Result<Self> {
                match reply {
                    $reply => Ok($value),
                    other => Err(AeonError::internal(format!(
                        "unexpected directory reply {other:?}"
                    ))),
                }
            }
        }
    )*};
}

unpack_dir_reply! {
    (): DirReply::Unit => ();
    ServerId: DirReply::Server(server) => server;
    ContextId: DirReply::Context(context) => context;
    Vec<ContextId>: DirReply::Contexts(contexts) => contexts;
}

// A node process asks in the cluster's `DirReq` and is answered in its
// `DirAck`; the tags are part of that wire format (see aeon-cluster's
// `wire` module).  Retired: `DirOp` 2 (`MayCall`) and 3 (`ClassOf`),
// `DirReply` 1 (`Flag`) and 5 (`Class`).
aeon_types::wire! { enum DirOp {
    0 => PlacementOf(context),
    1 => SetPlacement(context, server),
    4 => ChildrenOf { parent, class },
    5 => AddEdge(owner, owned),
    6 => RemoveEdge(owner, owned),
    7 => CreateOwned { owner, class },
    8 => Subtree(context),
    9 => PathOwners(caller, callee),
} }

aeon_types::wire! { enum DirReply {
    0 => Unit,
    2 => Server(server),
    3 => Context(context),
    4 => Contexts(contexts),
} }

/// The class factories of one process: what rebuilds a context of a class
/// from its state (migration, crash recovery, hosting in a node process).
#[derive(Default)]
pub struct ClassFactories(RwLock<HashMap<String, ContextFactory>>);

impl std::fmt::Debug for ClassFactories {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.0.read().keys()).finish()
    }
}

impl ClassFactories {
    /// Registers the factory of `class`, replacing any earlier one.
    pub fn register(&self, class: impl Into<String>, factory: ContextFactory) {
        self.0.write().insert(class.into(), factory);
    }

    /// The factory registered for `class`, if any.
    pub fn get(&self, class: &str) -> Option<ContextFactory> {
        self.0.read().get(class).cloned()
    }

    /// Rebuilds an object of `class` from `state`.  The factory is
    /// application code: a panic in it is this call's error, not an unwind
    /// into the caller.
    ///
    /// # Errors
    ///
    /// * [`AeonError::Config`] when no factory is registered for `class`.
    /// * [`AeonError::Panicked`] when the factory panics.
    pub fn rebuild(&self, class: &str, state: &Value) -> Result<Box<dyn ContextObject>> {
        let factory = self.get(class).ok_or_else(|| {
            AeonError::Config(format!("no factory registered for contextclass {class}"))
        })?;
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| factory(state)));
        built.map_err(AeonError::from_panic)
    }
}

/// What [`Deployment::host`] installs.
pub enum Hosted<'a> {
    /// A new context's object.
    New(Box<dyn ContextObject>),
    /// A context's class and captured state, rebuilt by its class factory.
    Restored(&'a str, &'a Value),
}

/// A client session on a deployment: the entry point for submitting
/// strictly-serializable events.
///
/// Implementations provide [`Session::submit_with_mode`]; the blocking
/// [`Session::call_with_mode`] defaults to it plus `wait`, and the
/// `submit_event` / `submit_readonly_event` / `call` / `call_readonly`
/// convenience wrappers, which no backend overrides, are default methods
/// over these two.  A backend may override `call_with_mode` when it can serve a caller that blocks anyway
/// more cheaply than `submit` + `wait` — the in-process runtime executes
/// the event on the calling thread instead of handing it to its worker
/// pool, and so does the cluster when the event's first server is a node in
/// the gateway's process — but results and errors must equal the default's
/// (`backend_parity` holds every backend to that).
pub trait Session: Send + Sync {
    /// The id the backend assigned to this client.
    fn client_id(&self) -> ClientId;

    /// Submits an event with an explicit access mode (the backend
    /// primitive).
    ///
    /// # Errors
    ///
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    /// * [`AeonError::ContextNotFound`] for unknown targets.
    fn submit_with_mode(
        &self,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<EventHandle>;

    /// Submits an exclusive (update) event and returns a completion handle.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::submit_with_mode`].
    fn submit_event(&self, target: ContextId, method: &str, args: Args) -> Result<EventHandle> {
        self.submit_with_mode(target, method, args, AccessMode::Exclusive)
    }

    /// Submits a read-only event (the paper's `ro` methods); read-only
    /// events of the same context may execute concurrently.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::submit_with_mode`].
    fn submit_readonly_event(
        &self,
        target: ContextId,
        method: &str,
        args: Args,
    ) -> Result<EventHandle> {
        self.submit_with_mode(target, method, args, AccessMode::ReadOnly)
    }

    /// Submits an event with an explicit access mode and waits for its
    /// result: `submit_with_mode(..)?.wait()`.  A backend may run the event
    /// on the calling thread, which then waits for the event's locks
    /// itself; the event is the same — sequenced, recorded and counted like
    /// a submitted one — and so is its result.
    ///
    /// # Errors
    ///
    /// Propagates submission and execution errors.
    fn call_with_mode(
        &self,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<Value> {
        self.submit_with_mode(target, method, args, mode)?.wait()
    }

    /// Submits an exclusive event and waits for its result.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::call_with_mode`].
    fn call(&self, target: ContextId, method: &str, args: Args) -> Result<Value> {
        self.call_with_mode(target, method, args, AccessMode::Exclusive)
    }

    /// Submits a read-only event and waits for its result.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::call_with_mode`].
    fn call_readonly(&self, target: ContextId, method: &str, args: Args) -> Result<Value> {
        self.call_with_mode(target, method, args, AccessMode::ReadOnly)
    }
}

/// An AEON deployment: a set of (logical or simulated) servers hosting
/// contexts wired into an ownership network, executing events with strict
/// serializability while supporting elasticity (server management, context
/// migration) and fault tolerance (snapshots, crash/restore).
///
/// The trait is object-safe: workload drivers take `&dyn Deployment` and run
/// unchanged against the in-process runtime, the distributed cluster, and
/// the deterministic simulator.
///
/// A backend implements [`Deployment::control`] and [`Deployment::host`],
/// two hooks the provided methods are written over, and the operations
/// that really differ between backends; it overrides no provided method.
pub trait Deployment: Send + Sync {
    /// A short name identifying the backend (for logs and test labels).
    fn backend_name(&self) -> &'static str;

    /// Backend hook, not for callers: the deployment's control state, which
    /// the provided control methods read and change.
    fn control(&self) -> &ControlState;

    /// Backend hook, not for callers: installs `context` on `server` — a
    /// new context's object, or one its class factory rebuilds from its
    /// state under the panic boundary.  The provided create and restore
    /// methods call it after their checks, with no guard held; it changes
    /// no placement.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ServerNotFound`] when `server` cannot take it.
    /// * [`AeonError::Panicked`] when the class factory panics; nothing is
    ///   installed.
    fn host(&self, server: ServerId, context: ContextId, hosted: Hosted<'_>) -> Result<()>;

    /// Creates a root context (no owners) and returns its id.
    ///
    /// # Errors
    ///
    /// * [`AeonError::Config`] when the class is not declared in the
    ///   installed class graph.
    /// * [`AeonError::ServerNotFound`] / [`AeonError::Config`] when the
    ///   placement is not satisfiable.
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    fn create_context(
        &self,
        object: Box<dyn ContextObject>,
        placement: Placement,
    ) -> Result<ContextId> {
        create(self, object, |plane, id, class| {
            plane.declare_root(id, class, placement)
        })
    }

    /// Creates a context owned by `owners` (at least one), co-located with
    /// its first owner.
    ///
    /// # Errors
    ///
    /// * [`AeonError::Config`] when `owners` is empty or the class is not
    ///   declared in the installed class graph.
    /// * [`AeonError::OwnershipViolation`] when the class constraints
    ///   forbid the ownership.
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    fn create_owned_context(
        &self,
        object: Box<dyn ContextObject>,
        owners: &[ContextId],
    ) -> Result<ContextId> {
        create(self, object, |plane, id, class| {
            plane.declare_owned(id, class, owners)
        })
    }

    /// Registers a factory able to rebuild contexts of `class` from a
    /// snapshot (used by migration and crash recovery).
    fn register_class_factory(&self, class: &str, factory: ContextFactory) {
        self.control().factories.register(class, factory);
    }

    /// Adds `owner` to the owners of `owned`.
    ///
    /// # Errors
    ///
    /// * [`AeonError::CycleDetected`] when the edge would create a cycle.
    /// * [`AeonError::OwnershipViolation`] when the class constraints
    ///   forbid the edge.
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    fn add_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()> {
        let control = self.control();
        control.running()?;
        control.plane.write().add_edge(owner, owned)
    }

    /// Removes `owner` from the owners of `owned`.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ContextNotFound`] when either context is unknown.
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    fn remove_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()> {
        let control = self.control();
        control.running()?;
        control.plane.write().remove_edge(owner, owned)
    }

    /// A snapshot of the current ownership network.
    fn ownership_graph(&self) -> OwnershipGraph {
        self.control().plane.read().graph().clone()
    }

    /// Opens a client session for submitting events.
    fn session(&self) -> Box<dyn Session>;

    /// Migrates `context` to `to_server` without violating consistency
    /// (§5.2) and returns the number of bytes of serialised state moved: one
    /// exclusive event on `context` running the interpreter's reserved
    /// [`MIGRATE_METHOD`], so it is admitted, sequenced at the dominator of
    /// `context`, recorded and released like any other event on it.  Events
    /// queued behind it continue at the new host; none fails because of the
    /// move.  A context already on `to_server` is left alone (`Ok(0)`).
    ///
    /// # Errors
    ///
    /// * [`AeonError::ServerNotFound`] when `to_server` is offline and
    ///   [`AeonError::ContextNotFound`] when `context` is unknown, both
    ///   before anything is submitted.
    /// * [`AeonError::MigrationFailed`] when the context cannot be rebuilt
    ///   on another server (no class factory), and whatever else fails the
    ///   event (e.g. a panicking class factory, [`AeonError::Panicked`]);
    ///   the context stays where it was.
    fn migrate_context(&self, context: ContextId, to_server: ServerId) -> Result<u64> {
        if !self.servers().contains(&to_server) {
            return Err(AeonError::ServerNotFound(to_server));
        }
        if self.placement_of(context)? == to_server {
            return Ok(0);
        }
        let moved = self
            .session()
            .call(context, MIGRATE_METHOD, args![to_server.raw()])?;
        Ok(moved
            .as_i64()
            .and_then(|n| u64::try_from(n).ok())
            .unwrap_or(0))
    }

    /// Adds a server to the deployment (scale-out) and returns its id.
    ///
    /// # Errors
    ///
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    /// * [`AeonError::Config`] where the deployment cannot start servers
    ///   itself (a cluster of external node processes).
    /// * The transport's error when the new server's endpoint cannot be
    ///   set up (a loopback cluster that cannot bind another listener).
    fn add_server(&self) -> Result<ServerId>;

    /// Releases a drained server (scale-in).  The server must not host any
    /// contexts — migrate them away first (the elasticity manager's
    /// `drain_server` does exactly that).
    ///
    /// # Errors
    ///
    /// * [`AeonError::ServerNotFound`] for unknown or already offline
    ///   servers.
    /// * [`AeonError::Config`] when contexts are still placed on it.
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    fn remove_server(&self, server: ServerId) -> Result<()>;

    /// Current per-server load metrics: the control-plane feed elasticity
    /// policies run on.  Each backend derives the report from what it can
    /// observe (hosted contexts, worker-pool queue depth, event latency —
    /// virtual time on the simulator); the resource utilisations are
    /// relative-load proxies in `[0, 1]`.
    fn server_metrics(&self) -> Vec<ServerMetrics>;

    /// Total number of contexts across all online servers: what
    /// [`Deployment::contexts_on`] returns summed over
    /// [`Deployment::servers`], a context lost to a crash not counted.
    fn context_count(&self) -> usize {
        self.control().plane.read().context_count()
    }

    /// Aggregate event-executor counters (submissions, completions,
    /// batching, fast-path hits, threads started for announced blocking
    /// waits), when the backend runs a
    /// worker pool.  `None` on backends without one (the deterministic
    /// simulator executes inline); the cluster reports the sum over its
    /// nodes.  Feeds the `aeond` metrics exposition.
    fn executor_stats(&self) -> Option<ExecutorStats> {
        None
    }

    /// A snapshot of the backend's transport traffic counters, when it has
    /// a networking substrate.  `None` on backends without one (the
    /// in-process runtime and the simulator move no bytes).  Feeds the
    /// `aeond` metrics exposition.
    fn network_stats(&self) -> Option<NetworkStatsSnapshot> {
        None
    }

    /// Simulates a server crash: its contexts become unavailable until
    /// restored elsewhere with [`Deployment::restore_context`].
    ///
    /// # Errors
    ///
    /// * [`AeonError::ServerNotFound`] for unknown servers.
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    fn crash_server(&self, server: ServerId) -> Result<()>;

    /// Ids of all online servers.
    fn servers(&self) -> Vec<ServerId> {
        self.control().plane.read().online_servers()
    }

    /// The server currently hosting `context`.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] for unknown contexts.
    fn placement_of(&self, context: ContextId) -> Result<ServerId> {
        self.control().plane.read().placement_of(context)
    }

    /// Contexts currently mapped to `server`, in id order.
    fn contexts_on(&self, server: ServerId) -> Vec<ContextId> {
        self.control().plane.read().contexts_on(server)
    }

    /// Takes a consistent snapshot of `root` and all its descendants
    /// (§5.3): one read-only event on `root` running the interpreter's
    /// reserved [`SNAPSHOT_METHOD`], so it is admitted, sequenced at the
    /// dominator of `root`, executed and recorded like any other event and
    /// captures every member at one cut.  Contexts whose
    /// `ContextObject::snapshot` is `Null` are left out.
    ///
    /// The event is the session's blocking call
    /// ([`Session::call_with_mode`]), which a backend may serve on the
    /// caller's thread.
    ///
    /// # Errors
    ///
    /// * [`AeonError::RuntimeShutdown`] after shutdown and
    ///   [`AeonError::ContextNotFound`] when `root` is unknown, both
    ///   checked before the event.
    /// * [`AeonError::SnapshotFailed`] naming `root` for whatever the event
    ///   returns instead of a cut, e.g. because a member's server crashed;
    ///   it holds no lock after.  That includes the event's refusal when
    ///   `root`'s own server crashed (before or after the check: a lost
    ///   context keeps its placement until restored).
    fn snapshot_context(&self, root: ContextId) -> Result<Snapshot> {
        self.control().running()?;
        self.placement_of(root)?;
        let cut = self.session().call_readonly(root, SNAPSHOT_METHOD, args![]);
        Snapshot::from_value(&cut.map_err(|e| cut_failed(root, e))?)
    }

    /// Restores the states of a snapshot taken by
    /// [`Deployment::snapshot_context`] in place, through
    /// `ContextObject::restore` (no class factory is needed): one exclusive
    /// event on the snapshot's root running the reserved
    /// [`RESTORE_METHOD`], which enters every member of the subtree before
    /// it writes any, so concurrent events see every member before the
    /// restore or every member after it.  An entry that has left the
    /// subtree since the capture is restored afterwards by an exclusive
    /// event of its own.  Each event is a blocking call, as for
    /// [`Deployment::snapshot_context`].
    ///
    /// # Errors
    ///
    /// * [`AeonError::RuntimeShutdown`] after shutdown and
    ///   [`AeonError::ContextNotFound`] when the root, or an entry outside
    ///   the subtree, is unknown, each checked before its event.
    /// * [`AeonError::SnapshotFailed`] naming the event's root for whatever
    ///   a restore event returns instead of success — its root's server
    ///   crashed included; a member of the subtree that vanished fails it
    ///   before any state changed.
    fn restore_snapshot(&self, snapshot: &Snapshot) -> Result<()> {
        let session = self.session();
        let restore = |root: ContextId, snapshot: &Snapshot| {
            self.control().running()?;
            self.placement_of(root)?;
            let state = args![snapshot.to_value()];
            let restored = session.call(root, RESTORE_METHOD, state);
            restored.map_err(|e| cut_failed(root, e))
        };
        let restored = restore(snapshot.root(), snapshot)?;
        let restored = restored.as_list().unwrap_or_default();
        for (id, entry) in snapshot.entries() {
            if !restored.contains(&Value::from(*id)) {
                let mut single = Snapshot::new(*id);
                single.insert(*id, entry.class.clone(), entry.state.clone());
                restore(*id, &single)?;
            }
        }
        Ok(())
    }

    /// Installs a live history sink: from now on the backend reports every
    /// event's invocation and response points and every context access
    /// (see [`aeon_types::HistorySink`] for the timestamping contract) to
    /// `sink`.  Sessions opened before the installation feed the sink too.
    ///
    /// The canonical sink is `aeon_checker::HistoryRecorder`, which turns
    /// the feed into a `History` that `check_strict_serializability` can
    /// verify — this is how the chaos suite audits real executions.
    /// Installing a sink replaces any previous one.
    fn install_history_sink(&self, sink: SharedHistorySink) {
        *self.control().history.write() = Some(sink);
    }

    /// Re-hosts a context from externally held state (e.g. a checkpoint)
    /// after its server crashed.  The context keeps its identity and
    /// ownership edges; only its placement and state change.  It is placed
    /// once installed, and recorded as one exclusive write — invoked and
    /// accessed before the placement moves, responded after — so that
    /// everything the context does afterwards happens-after it.  A refused
    /// restore records nothing.
    ///
    /// # Errors
    ///
    /// In the order checked:
    ///
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    /// * [`AeonError::ServerNotFound`] when `server` is offline.
    /// * [`AeonError::ContextNotFound`] when the context was never created.
    /// * [`AeonError::MigrationFailed`] when no factory is registered for
    ///   its class.
    /// * [`AeonError::Panicked`] when the class factory panics: nothing is
    ///   installed and the placement is unchanged.
    fn restore_context(&self, context: ContextId, state: &Value, server: ServerId) -> Result<()> {
        let control = self.control();
        control.running()?;
        let class = {
            let plane = control.plane.read();
            if !plane.is_online(server) {
                return Err(AeonError::ServerNotFound(server));
            }
            plane.class_of(context)?.to_string()
        };
        if control.factories.get(&class).is_none() {
            return Err(AeonError::MigrationFailed {
                context,
                reason: format!("no factory registered for class {class}"),
            });
        }
        self.host(server, context, Hosted::Restored(&class, state))?;
        let (sink, event) = (control.sink(), EventId::new(control.next_raw()));
        {
            // Recorded under the guard that moves the placement: nothing
            // routed by the new placement can be recorded first.
            let mut plane = control.plane.write();
            plane.set_placement(context, server)?;
            if let Some(sink) = &sink {
                sink.invoked(event);
                sink.accessed(event, context, AccessMode::Exclusive);
            }
        }
        if let Some(sink) = &sink {
            sink.responded(event);
        }
        Ok(())
    }

    /// Shuts the deployment down: subsequent submissions, context creations
    /// and restores, ownership edits, and adding, removing or crashing a
    /// server fail with [`AeonError::RuntimeShutdown`] and change nothing,
    /// and blocked events are aborted.
    fn shutdown(&self);
}

/// Creates a context: `declare` enters it into the control plane under a
/// fresh id (validating everything first) and names its server, which then
/// hosts the object; if that fails, the context is forgotten again.  A
/// shut-down deployment creates nothing.
fn create<D: Deployment + ?Sized>(
    deployment: &D,
    object: Box<dyn ContextObject>,
    declare: impl FnOnce(&mut ControlPlane, ContextId, &str) -> Result<ServerId>,
) -> Result<ContextId> {
    let control = deployment.control();
    control.running()?;
    let id = ContextId::new(control.next_raw());
    let server = declare(&mut control.plane.write(), id, object.class_name())?;
    let hosted = deployment.host(server, id, Hosted::New(object));
    if hosted.is_err() {
        let _ = control.plane.write().forget(id);
    }
    hosted.map(|()| id)
}

/// The error of a snapshot or restore event on `root` that failed.
fn cut_failed(root: ContextId, error: AeonError) -> AeonError {
    AeonError::SnapshotFailed {
        context: root,
        reason: error.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KvContext;
    use aeon_ownership::ClassGraph;
    use std::sync::Arc;

    /// A control state with one online server hosting one `Room` root.
    fn authority_with_room(class_graph: Option<ClassGraph>) -> (ControlState, ServerId, ContextId) {
        let dir = ControlState::new(ControlPlane::new(class_graph));
        let room = ContextId::new(dir.next_raw());
        let server = {
            let mut plane = dir.plane().write();
            plane.add_server();
            plane.declare_root(room, "Room", Placement::Auto).unwrap()
        };
        (dir, server, room)
    }

    #[test]
    fn answer_serves_control_plane_queries() {
        let (dir, server, room) = authority_with_room(None);
        assert_eq!(
            dir.answer(DirOp::PlacementOf(room)).unwrap(),
            DirReply::Server(server)
        );
        let created = dir
            .answer(DirOp::CreateOwned {
                owner: room,
                class: "Item".into(),
            })
            .unwrap();
        let DirReply::Context(child) = created else {
            panic!("expected Context reply, got {created:?}");
        };
        assert_eq!(
            dir.answer(DirOp::SetPlacement(child, server)).unwrap(),
            DirReply::Unit
        );
        assert_eq!(
            dir.answer(DirOp::PathOwners(room, child)).unwrap(),
            DirReply::Contexts(Vec::new())
        );
        assert_eq!(
            dir.answer(DirOp::ChildrenOf {
                parent: room,
                class: None
            })
            .unwrap(),
            DirReply::Contexts(vec![child])
        );
        assert_eq!(
            dir.answer(DirOp::Subtree(room)).unwrap(),
            DirReply::Contexts(vec![room, child])
        );
        assert!(dir.answer(DirOp::RemoveEdge(room, child)).is_ok());
    }

    /// What a host asks: the op, answered by the authority and unpacked.
    fn ask<T: TryFrom<DirReply, Error = AeonError>>(dir: &ControlState, op: DirOp) -> Result<T> {
        dir.answer(op).and_then(T::try_from)
    }

    #[test]
    fn host_facing_replies_unpack_into_what_the_op_asks_for() {
        let mut classes = ClassGraph::new();
        classes.add_constraint("Room", "Item");
        let (dir, server, room) = authority_with_room(Some(classes));
        let create = |owner, class: &str| {
            let class = class.to_string();
            ask::<ContextId>(&dir, DirOp::CreateOwned { owner, class })
        };
        let child = create(room, "Item").unwrap();
        assert_eq!(
            ask::<ServerId>(&dir, DirOp::PlacementOf(child)).unwrap(),
            server
        );
        let children = DirOp::ChildrenOf {
            parent: room,
            class: Some("Item".into()),
        };
        assert_eq!(ask::<Vec<ContextId>>(&dir, children).unwrap(), vec![child]);
        let owners =
            |caller, callee| ask::<Vec<ContextId>>(&dir, DirOp::PathOwners(caller, callee));
        assert_eq!(owners(room, child).unwrap(), Vec::new());
        assert!(owners(child, room).is_err());
        ask::<()>(&dir, DirOp::RemoveEdge(room, child)).unwrap();
        ask::<()>(&dir, DirOp::AddEdge(room, child)).unwrap();
        // A reply of another kind than the op asks for is refused.
        assert!(matches!(
            ask::<ServerId>(&dir, DirOp::Subtree(room)),
            Err(AeonError::Internal(_))
        ));
        // A refusal travels back as the plane's error, and declares nothing.
        let contexts = dir.plane().read().graph().len();
        assert!(matches!(
            create(child, "Room"),
            Err(AeonError::OwnershipViolation { .. })
        ));
        assert!(matches!(
            ask::<()>(&dir, DirOp::SetPlacement(child, ServerId::new(9))),
            Err(AeonError::ServerNotFound(_))
        ));
        assert_eq!(dir.plane().read().graph().len(), contexts);
    }

    #[test]
    fn admission_certifies_only_certified_reads_and_counts_them() {
        let mut classes = ClassGraph::new();
        classes.add_constraint("Room", "Item");
        classes.declare_method("Item", "get", true);
        classes.declare_calls("Item", "get", []);
        classes.declare_method("Item", "sum", true);
        let (dir, _, _) = authority_with_room(Some(classes));
        let item = || Some("Item");
        assert_eq!(
            dir.admit(item, "get", AccessMode::Exclusive),
            Footprint::Sequenced
        );
        assert_eq!(
            dir.admit(item, "sum", AccessMode::ReadOnly),
            Footprint::Sequenced
        );
        assert_eq!(
            dir.admit(|| None, "get", AccessMode::ReadOnly),
            Footprint::Sequenced
        );
        assert_eq!(dir.fast_path_events(), 0);
        assert_eq!(
            dir.admit(item, "get", AccessMode::ReadOnly),
            Footprint::Certified
        );
        assert_eq!(dir.fast_path_events(), 1);
        // Without a class graph nothing is certified, and no class is asked.
        let (bare, _, _) = authority_with_room(None);
        let unasked = || -> Option<&str> { panic!("the class was asked") };
        assert_eq!(
            bare.admit(unasked, "get", AccessMode::ReadOnly),
            Footprint::Sequenced
        );
        assert_eq!(bare.fast_path_events(), 0);
    }

    #[test]
    fn class_factories_rebuild_what_is_registered_and_refuse_the_rest() {
        let factories = ClassFactories::default();
        assert!(factories.get("Item").is_none());
        assert!(matches!(
            factories.rebuild("Item", &Value::Null).map(|_| ()),
            Err(AeonError::Config(_))
        ));
        factories.register(
            "Item",
            Arc::new(|state: &Value| {
                let mut kv = KvContext::new("Item");
                ContextObject::restore(&mut kv, state);
                Box::new(kv) as Box<dyn ContextObject>
            }),
        );
        let item = factories.rebuild("Item", &Value::Null).unwrap();
        assert_eq!(item.class_name(), "Item");
        factories.register("Item", Arc::new(|_: &Value| panic!("no such item")));
        assert_eq!(
            factories.rebuild("Item", &Value::Null).map(|_| ()),
            Err(AeonError::Panicked {
                reason: "no such item".into()
            })
        );
    }
}
