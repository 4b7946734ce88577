//! The backend-agnostic deployment API: the [`Deployment`] and [`Session`]
//! traits.
//!
//! The paper's promise is that one contextclass program runs unchanged on a
//! single server or on fifty.  [`Deployment`] is the control plane
//! (contexts, the ownership network, class factories, servers, load
//! metrics, migration, snapshots); [`Session`] is the data plane
//! (strictly-serializable events, each resolved through one
//! [`EventHandle`]).  The traits live here, next to the interpreter their
//! `ContextObject`s run under, and three backends implement them: this
//! crate's [`AeonRuntime`](crate::AeonRuntime), `aeon_cluster::Cluster`
//! and `aeon_sim::SimDeployment`.  A snapshot, a restore and a migration
//! are provided methods: each is one event running a reserved method of
//! the interpreter, so no backend implements them.

use crate::event::EventHandle;
use crate::{
    ContextFactory, ContextObject, ExecutorStats, Placement, Snapshot, MIGRATE_METHOD,
    RESTORE_METHOD, SNAPSHOT_METHOD,
};
use aeon_ownership::OwnershipGraph;
use aeon_types::{
    args, AccessMode, AeonError, Args, ClientId, ContextId, NetworkStatsSnapshot, Result, ServerId,
    ServerMetrics, SharedHistorySink, Value,
};

/// A client session on a deployment: the entry point for submitting
/// strictly-serializable events.
///
/// Implementations provide only [`Session::submit_with_mode`]; the
/// `submit_event` / `submit_readonly_event` / `call` / `call_readonly`
/// convenience wrappers are default methods expressed through it.  A
/// backend may override `call` / `call_readonly` when it can serve a caller
/// that blocks anyway more cheaply than `submit` + `wait` — the in-process
/// runtime executes the event on the calling thread instead of handing it
/// to its worker pool — but results and errors must equal the default's
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

    /// Submits an exclusive event and waits for its result.
    ///
    /// # Errors
    ///
    /// Propagates submission and execution errors.
    fn call(&self, target: ContextId, method: &str, args: Args) -> Result<Value> {
        self.submit_event(target, method, args)?.wait()
    }

    /// Submits a read-only event and waits for its result.
    ///
    /// # Errors
    ///
    /// Propagates submission and execution errors.
    fn call_readonly(&self, target: ContextId, method: &str, args: Args) -> Result<Value> {
        self.submit_readonly_event(target, method, args)?.wait()
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
pub trait Deployment: Send + Sync {
    /// A short name identifying the backend (for logs and test labels).
    fn backend_name(&self) -> &'static str;

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
    ) -> Result<ContextId>;

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
    ) -> Result<ContextId>;

    /// Registers a factory able to rebuild contexts of `class` from a
    /// snapshot (used by migration and crash recovery).
    fn register_class_factory(&self, class: &str, factory: ContextFactory);

    /// Adds `owner` to the owners of `owned`.
    ///
    /// # Errors
    ///
    /// * [`AeonError::CycleDetected`] when the edge would create a cycle.
    /// * [`AeonError::OwnershipViolation`] when the class constraints
    ///   forbid the edge.
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    fn add_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()>;

    /// Removes `owner` from the owners of `owned`.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ContextNotFound`] when either context is unknown.
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    fn remove_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()>;

    /// A snapshot of the current ownership network.
    fn ownership_graph(&self) -> OwnershipGraph;

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
    fn context_count(&self) -> usize;

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
    fn servers(&self) -> Vec<ServerId>;

    /// The server currently hosting `context`.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] for unknown contexts.
    fn placement_of(&self, context: ContextId) -> Result<ServerId>;

    /// Contexts currently mapped to `server`.
    fn contexts_on(&self, server: ServerId) -> Vec<ContextId>;

    /// Takes a consistent snapshot of `root` and all its descendants
    /// (§5.3): one read-only event on `root` running the interpreter's
    /// reserved [`SNAPSHOT_METHOD`], so it is admitted, sequenced at the
    /// dominator of `root`, executed and recorded like any other event and
    /// captures every member at one cut.  Contexts whose
    /// `ContextObject::snapshot` is `Null` are left out.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ContextNotFound`] when `root` is unknown, and the
    ///   other errors of submitting an event.
    /// * [`AeonError::SnapshotFailed`] naming `root` when the event fails,
    ///   e.g. because a member's server crashed; it holds no lock after.
    fn snapshot_context(&self, root: ContextId) -> Result<Snapshot> {
        let cut = self
            .session()
            .submit_readonly_event(root, SNAPSHOT_METHOD, args![])?;
        Snapshot::from_value(&cut.wait().map_err(|e| cut_failed(root, e))?)
    }

    /// Restores the states of a snapshot taken by
    /// [`Deployment::snapshot_context`] in place, through
    /// `ContextObject::restore` (no class factory is needed): one exclusive
    /// event on the snapshot's root running the reserved
    /// [`RESTORE_METHOD`], which enters every member of the subtree before
    /// it writes any, so concurrent events see every member before the
    /// restore or every member after it.  An entry that has left the
    /// subtree since the capture is restored afterwards by an exclusive
    /// event of its own.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ContextNotFound`] when the root, or an entry outside
    ///   the subtree, is unknown.
    /// * [`AeonError::SnapshotFailed`] when a restore event fails; a member
    ///   of the subtree that vanished fails it before any state changed.
    fn restore_snapshot(&self, snapshot: &Snapshot) -> Result<()> {
        let session = self.session();
        let restore = |root: ContextId, snapshot: &Snapshot| {
            let event = session.submit_event(root, RESTORE_METHOD, args![snapshot.to_value()])?;
            event.wait().map_err(|e| cut_failed(root, e))
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
    fn install_history_sink(&self, sink: SharedHistorySink);

    /// Re-hosts a context from externally held state (e.g. a checkpoint)
    /// after its server crashed.  The context keeps its identity and
    /// ownership edges; only its placement and state change.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ContextNotFound`] when the context was never created.
    /// * [`AeonError::MigrationFailed`] when no factory is registered for
    ///   its class.
    /// * [`AeonError::Panicked`] when the class factory panics: nothing is
    ///   installed and the placement is unchanged.
    /// * [`AeonError::ServerNotFound`] when `server` is offline.
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    fn restore_context(&self, context: ContextId, state: &Value, server: ServerId) -> Result<()>;

    /// Shuts the deployment down: subsequent submissions, context creations
    /// and restores, ownership edits, and adding, removing or crashing a
    /// server fail with [`AeonError::RuntimeShutdown`] and change nothing,
    /// and blocked events are aborted.
    fn shutdown(&self);
}

/// The error of a snapshot or restore event on `root` that failed.
fn cut_failed(root: ContextId, error: AeonError) -> AeonError {
    AeonError::SnapshotFailed {
        context: root,
        reason: error.to_string(),
    }
}
