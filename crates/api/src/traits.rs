//! The `Deployment` and `Session` traits.

use crate::handle::EventHandle;
use aeon_ownership::OwnershipGraph;
use aeon_runtime::{ContextFactory, ContextObject, ExecutorStats, Placement, Snapshot};
use aeon_types::{
    AccessMode, Args, ClientId, ContextId, NetworkStatsSnapshot, Result, ServerId, ServerMetrics,
    SharedHistorySink, Value,
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
    /// * [`aeon_types::AeonError::RuntimeShutdown`] after shutdown.
    /// * [`aeon_types::AeonError::ContextNotFound`] for unknown targets.
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
    /// * [`aeon_types::AeonError::ServerNotFound`] /
    ///   [`aeon_types::AeonError::Config`] when the placement is not
    ///   satisfiable.
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
    /// * [`aeon_types::AeonError::Config`] when `owners` is empty.
    /// * [`aeon_types::AeonError::OwnershipViolation`] when the class
    ///   constraints forbid the ownership.
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
    /// * [`aeon_types::AeonError::CycleDetected`] when the edge would create
    ///   a cycle.
    /// * [`aeon_types::AeonError::OwnershipViolation`] when the class
    ///   constraints forbid the edge.
    fn add_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()>;

    /// Removes `owner` from the owners of `owned`.
    ///
    /// # Errors
    ///
    /// Returns [`aeon_types::AeonError::ContextNotFound`] when either
    /// context is unknown.
    fn remove_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()>;

    /// A snapshot of the current ownership network.
    fn ownership_graph(&self) -> OwnershipGraph;

    /// Opens a client session for submitting events.
    fn session(&self) -> Box<dyn Session>;

    /// Migrates `context` to `to_server` without violating consistency and
    /// returns the number of bytes of serialised state moved.
    ///
    /// # Errors
    ///
    /// * [`aeon_types::AeonError::ContextNotFound`] /
    ///   [`aeon_types::AeonError::ServerNotFound`] for unknown ids.
    /// * [`aeon_types::AeonError::MigrationFailed`] when a protocol step
    ///   fails.
    fn migrate_context(&self, context: ContextId, to_server: ServerId) -> Result<u64>;

    /// Adds a server to the deployment (scale-out) and returns its id.
    fn add_server(&self) -> ServerId;

    /// Releases a drained server (scale-in).  The server must not host any
    /// contexts — migrate them away first (the elasticity manager's
    /// `drain_server` does exactly that).
    ///
    /// # Errors
    ///
    /// * [`aeon_types::AeonError::ServerNotFound`] for unknown or already
    ///   offline servers.
    /// * [`aeon_types::AeonError::Config`] when contexts are still placed on
    ///   it.
    fn remove_server(&self, server: ServerId) -> Result<()>;

    /// Current per-server load metrics: the control-plane feed elasticity
    /// policies run on.  Each backend derives the report from what it can
    /// observe (hosted contexts, worker-pool queue depth, event latency —
    /// virtual time on the simulator); the resource utilisations are
    /// relative-load proxies in `[0, 1]`.
    fn server_metrics(&self) -> Vec<ServerMetrics>;

    /// Total number of contexts across all online servers.
    ///
    /// The default sums [`Deployment::contexts_on`] over
    /// [`Deployment::servers`]; backends with a cheaper native count
    /// override it.
    fn context_count(&self) -> usize {
        self.servers()
            .into_iter()
            .map(|server| self.contexts_on(server).len())
            .sum()
    }

    /// Aggregate event-executor counters (submissions, completions,
    /// batching, fast-path hits, spill activity), when the backend runs a
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
    /// Returns [`aeon_types::AeonError::ServerNotFound`] for unknown
    /// servers.
    fn crash_server(&self, server: ServerId) -> Result<()>;

    /// Ids of all online servers.
    fn servers(&self) -> Vec<ServerId>;

    /// The server currently hosting `context`.
    ///
    /// # Errors
    ///
    /// Returns [`aeon_types::AeonError::ContextNotFound`] for unknown
    /// contexts.
    fn placement_of(&self, context: ContextId) -> Result<ServerId>;

    /// Contexts currently mapped to `server`.
    fn contexts_on(&self, server: ServerId) -> Vec<ContextId>;

    /// Takes a snapshot of `root` and all its descendants.
    ///
    /// # Errors
    ///
    /// Returns [`aeon_types::AeonError::ContextNotFound`] when `root` is
    /// unknown.
    fn snapshot_context(&self, root: ContextId) -> Result<Snapshot>;

    /// Restores context states from a snapshot previously produced by
    /// [`Deployment::snapshot_context`].
    ///
    /// # Errors
    ///
    /// Returns [`aeon_types::AeonError::ContextNotFound`] if a snapshotted
    /// context no longer exists.
    fn restore_snapshot(&self, snapshot: &Snapshot) -> Result<()>;

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
    /// * [`aeon_types::AeonError::ContextNotFound`] when the context was
    ///   never created.
    /// * [`aeon_types::AeonError::MigrationFailed`] when no factory is
    ///   registered for its class.
    /// * [`aeon_types::AeonError::ServerNotFound`] when `server` is offline.
    fn restore_context(&self, context: ContextId, state: &Value, server: ServerId) -> Result<()>;

    /// Shuts the deployment down: subsequent submissions fail and blocked
    /// events are aborted.
    fn shutdown(&self);
}
