//! The cluster gateway: builds the deployment, accepts client events, and
//! manages the servers.
//!
//! The gateway is the paper's *client library*: it knows the context
//! mapping and routes each event to the server hosting the dominator of its
//! target (§5.1).  It never touches context state, and a snapshot, a
//! restore or a migration is no protocol of its own: `Deployment` submits
//! each as an event, which the gateway routes like any other (the
//! node that runs a migration moves the context; see `node.rs`).
//!
//! The gateway has no thread of its own either.  It serves its id on the
//! network with [`gateway_handle`], which therefore runs on whichever thread
//! delivers a message (see `node.rs` for the delivery rules, which are the
//! same here): a node's pool worker completing an event (`Done`), the
//! caller of a control operation whose acknowledgement came back before it
//! could park, a transport reader over TCP.  Every arm completes a waiting
//! caller through its reply or sends; none waits.  What the gateway waits
//! on — every routed event until its `Done`, every control round trip
//! (a node process's `Host`, `MetricsReq`) until its answer — is one table
//! of pending requests (`crate::pending`), which `teardown` closes: each of
//! them reads `RuntimeShutdown` at once, and nothing opens after.  The `Done`
//! arm submits the event's sub-events, i.e. routes and sends from inside a
//! handler — which is why [`ClusterInner::send`] must never run under a
//! guard.  The
//! handler holds the cluster weakly: a cluster is owned by its `Cluster` /
//! `ClusterClient` handles alone, and `shutdown` (or dropping the last of
//! them) deregisters every handler, joins every pool and transport thread,
//! and leaves nothing behind.
//!
//! The control surface is the `Deployment` trait's: the plane queries, the
//! edge edits, create and restore are written once there, over the
//! deployment's one `ControlState` — which the gateway and every node in
//! its process share — and over this backend's hosting hook,
//! `Deployment::host`.  A node in the gateway's own process is *called*:
//! it is handed a new context's object whole, or rebuilds a restored one
//! with the class factory, and no message is sent.  A node process
//! (`TcpMesh`) is sent a `Host` carrying class and state, and builds the
//! object there with its own factory.
//!
//! A blocking call (`Session::call_with_mode`, which `call`,
//! `call_readonly`, a migration, a snapshot and a restore go through) is
//! `submit` + `wait()` with one step fewer.  It is admitted like any event
//! — running check, event id, `pending` entry, history `invoked`, the
//! routing decision under one read guard — and only the last step of
//! `submit` differs: when the server the work goes to first (the
//! sequencer's, or the target's for an `Exec` / `ExecCertified`) is a node
//! in this process, the client's thread serves the work there itself
//! (`node::serve`: its first lock, the method, the `Release` fan-out, the
//! `Done`) instead of sending it to the node's pool, so the handle's
//! `wait()` finds its answer set.  A node process (`TcpMesh`, empty
//! `nodes`) is sent the work as before.  Everything else the gateway does
//! to a node — route a submitted event or a sub-event, ask for metrics,
//! stop it — is a message.

use crate::directory::Directory;
use crate::message::{gateway_id, ClusterMessage, EventDescriptor};
use crate::node::{self, spawn_node, NodeShared};
use crate::pending::{unexpected, Pending, Waiter};
use crate::wire::message_wire_len;
use aeon_net::{
    ChannelTransport, MessageSizer, Network, NetworkStats, TcpTransport, TcpTransportConfig,
};
use aeon_ownership::{ClassGraph, ControlPlane, Sequencer};
use aeon_runtime::{
    CertifiedReads, ControlState, Deployment, EventHandle, ExecutorConfig, ExecutorStats,
    Footprint, Hosted, Session,
};
use aeon_types::{
    AccessMode, AeonError, Args, ClientId, ContextId, EventId, NetworkStatsSnapshot, Result,
    ServerId, ServerMetrics, Value,
};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default time the gateway waits for a control acknowledgement
/// (hosting a context, a metrics report).
const CONTROL_TIMEOUT: Duration = Duration::from_secs(10);
/// Default time a client waits for an event to complete.
const EVENT_TIMEOUT: Duration = Duration::from_secs(60);

/// How the cluster's servers exchange messages.
#[derive(Debug, Clone, Default)]
pub enum ClusterTransport {
    /// In-process crossbeam channels (the default): every node is a thread
    /// in this process; messages are moved, never serialised, but byte
    /// counters still report each message's encoded wire size.
    #[default]
    Channel,
    /// Real TCP sockets over loopback, one listener per node plus the
    /// gateway, with the nodes still running as threads in this process.
    /// Every protocol message crosses an actual socket — the parity
    /// configuration for exercising the wire codec and framing under the
    /// full test suites.
    TcpLoopback,
    /// Gateway-only mode for a cluster whose server nodes run as separate
    /// OS processes (`aeon-node`): the gateway binds `listen` and connects
    /// to each node in `peers`.  No in-process nodes are spawned;
    /// process-local introspection (executor stats, crash injection,
    /// `add_server`) is unavailable.
    TcpMesh {
        /// Address the gateway's transport listens on.
        listen: SocketAddr,
        /// Node id → socket address of every external `aeon-node` process.
        peers: BTreeMap<ServerId, SocketAddr>,
    },
}

/// Which of the three transports a running cluster uses (internal,
/// semantics-bearing subset of [`ClusterTransport`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Channel,
    Loopback,
    Mesh,
}

/// Builder for [`Cluster`].
#[derive(Debug)]
pub struct ClusterBuilder {
    servers: usize,
    class_graph: Option<ClassGraph>,
    executor: ExecutorConfig,
    transport: ClusterTransport,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    /// Starts a builder with a single server.
    pub fn new() -> Self {
        Self {
            servers: 1,
            class_graph: None,
            executor: ExecutorConfig::default(),
            transport: ClusterTransport::default(),
        }
    }

    /// Selects how servers exchange messages (default:
    /// [`ClusterTransport::Channel`]).  With
    /// [`ClusterTransport::TcpMesh`] the `servers` count is ignored — the
    /// mesh's peer map defines the server set.
    pub fn transport(mut self, transport: ClusterTransport) -> Self {
        self.transport = transport;
        self
    }

    /// Sets the number of servers started with the cluster.
    pub fn servers(mut self, servers: usize) -> Self {
        self.servers = servers;
        self
    }

    /// Sets the number of resident pool workers each node executes
    /// blocking messages on (default: the machine's available
    /// parallelism).
    pub fn worker_threads(mut self, n: usize) -> Self {
        self.executor.workers = n;
        self
    }

    /// Installs a contextclass constraint graph: context creation and
    /// ownership changes are validated against it, and
    /// [`ClusterBuilder::build`] refuses it unless it passes
    /// [`aeon_analyzer::enforce`].
    pub fn class_graph(mut self, classes: ClassGraph) -> Self {
        self.class_graph = Some(classes);
        self
    }

    /// Builds and starts the cluster.
    ///
    /// # Errors
    ///
    /// * [`AeonError::Config`] when `servers` or `worker_threads` is zero.
    /// * Those of [`aeon_analyzer::enforce`] on the class graph:
    ///   [`AeonError::ClassCycleDetected`] and
    ///   [`AeonError::AnalysisRejected`].
    pub fn build(self) -> Result<Cluster> {
        if self.servers == 0 && !matches!(self.transport, ClusterTransport::TcpMesh { .. }) {
            return Err(AeonError::Config("at least one server is required".into()));
        }
        if self.executor.workers == 0 {
            return Err(AeonError::Config(
                "at least one pool worker per node is required".into(),
            ));
        }
        if let Some(classes) = &self.class_graph {
            aeon_analyzer::enforce(classes)?;
        }
        let certified = CertifiedReads::new(self.class_graph.as_ref());
        let control = Arc::new(ControlState::new(ControlPlane::new(self.class_graph)));
        let (mode, network, mesh_peers): (Mode, Network<ClusterMessage>, Vec<ServerId>) =
            match &self.transport {
                ClusterTransport::Channel => {
                    // Even without sockets, size every message as if it had
                    // crossed the wire so byte counters are comparable
                    // between channel and TCP runs.
                    let sizer: MessageSizer<ClusterMessage> = Arc::new(message_wire_len);
                    let transport = ChannelTransport::with_sizer(sizer);
                    (
                        Mode::Channel,
                        Network::with_transport(Arc::new(transport)),
                        Vec::new(),
                    )
                }
                ClusterTransport::TcpLoopback => {
                    let listen = SocketAddr::from(([127, 0, 0, 1], 0));
                    let transport = TcpTransport::bind(TcpTransportConfig::new(listen))?;
                    (
                        Mode::Loopback,
                        Network::with_transport(Arc::new(transport)),
                        Vec::new(),
                    )
                }
                ClusterTransport::TcpMesh { listen, peers } => {
                    let mut config = TcpTransportConfig::new(*listen);
                    for (id, addr) in peers {
                        config = config.peer(*id, *addr);
                    }
                    let transport = TcpTransport::bind(config)?;
                    (
                        Mode::Mesh,
                        Network::with_transport(Arc::new(transport)),
                        peers.keys().copied().collect(),
                    )
                }
            };
        let shared_stats = network.stats_handle();
        let pending = Pending::new(gateway_id(), network.clone());
        let inner = Arc::new(ClusterInner {
            control,
            network,
            mode,
            shared_stats,
            node_networks: Mutex::new(BTreeMap::new()),
            executor_config: self.executor,
            certified,
            fast_path: AtomicU64::new(0),
            nodes: Mutex::new(BTreeMap::new()),
            pending,
        });
        let gateway = Arc::downgrade(&inner);
        inner.network.serve(gateway_id(), move |message| {
            let Some(inner) = gateway.upgrade() else {
                return false;
            };
            gateway_handle(&inner, message);
            // Should every handle have gone meanwhile, the cluster's
            // destructor joins pool and transport threads — this may be one.
            if let Some(last) = Arc::into_inner(inner) {
                std::thread::spawn(move || drop(last));
            }
            true
        });
        if inner.mode == Mode::Mesh {
            // The server set is the external process mesh; the plane only
            // needs to know the roster.
            for server in mesh_peers {
                inner.control.plane().write().register_server(server);
            }
        } else {
            for _ in 0..self.servers {
                inner.spawn_server()?;
            }
        }
        Ok(Cluster { inner })
    }
}

struct ClusterInner {
    /// The deployment's control state, shared with every in-process node.
    /// No guard on its plane is held across a round trip to a node.
    control: Arc<ControlState>,
    network: Network<ClusterMessage>,
    /// Which transport family this cluster runs on.
    mode: Mode,
    /// Byte/message counters shared by the gateway and (in loopback mode)
    /// every node network, so `network_stats` aggregates the whole cluster.
    shared_stats: Arc<NetworkStats>,
    /// Loopback mode: each node's own `Network` (distinct TCP listener),
    /// kept for address exchange with later-spawned nodes and for
    /// transport shutdown.
    node_networks: Mutex<BTreeMap<ServerId, Network<ClusterMessage>>>,
    /// Worker-pool configuration applied to every node (including ones
    /// added later by scale-out).
    executor_config: ExecutorConfig,
    /// Methods admitted to the read-only fast path.
    certified: CertifiedReads,
    /// Events the gateway routed as certified, unsequenced executions.
    fast_path: AtomicU64,
    nodes: Mutex<BTreeMap<ServerId, Arc<NodeShared>>>,
    /// What the gateway waits on: routed events (for their `Done`) and
    /// control round trips (host, metrics).
    pending: Pending,
}

impl std::fmt::Debug for ClusterInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterInner")
            .field("servers", &self.nodes.lock().len())
            .field("contexts", &self.control.plane().read().context_count())
            .finish_non_exhaustive()
    }
}

impl ClusterInner {
    /// Starts an in-process node and brings it online.  A shut-down cluster
    /// starts none, and a failed bind leaves the roster as it was.
    fn spawn_server(&self) -> Result<ServerId> {
        self.control.running()?;
        let network = self.node_network()?;
        // Known but offline until the node runs: nothing is placed on it
        // before it can answer a `Host`.
        let id = self.control.plane().write().reserve_server();
        self.introduce(id, &network);
        let handle = spawn_node(
            id,
            Directory::Shared(Arc::clone(&self.control)),
            &network,
            self.executor_config.clone(),
        );
        // Checked again under the map `teardown` collects the nodes from: a
        // shutdown that began meanwhile cannot see this node, so it is
        // stopped here.
        let mut nodes = self.nodes.lock();
        if let Err(shut_down) = self.control.running() {
            drop(nodes);
            handle.crash();
            self.detach_server(id);
            return Err(shut_down);
        }
        self.control.plane().write().register_server(id);
        nodes.insert(id, handle);
        Ok(id)
    }

    /// The network a new in-process node attaches to: the shared channel
    /// network, or (loopback mode) one on a fresh TCP listener.
    fn node_network(&self) -> Result<Network<ClusterMessage>> {
        match self.mode {
            Mode::Channel => Ok(self.network.clone()),
            Mode::Loopback => {
                let listen = SocketAddr::from(([127, 0, 0, 1], 0));
                let transport = TcpTransport::bind(TcpTransportConfig::new(listen))?;
                Ok(Network::with_transport_and_stats(
                    Arc::new(transport),
                    Arc::clone(&self.shared_stats),
                ))
            }
            Mode::Mesh => unreachable!("mesh clusters never spawn in-process nodes"),
        }
    }

    /// Loopback mode: exchanges the address of node `id`'s `network` with
    /// the gateway and every existing node.
    fn introduce(&self, id: ServerId, network: &Network<ClusterMessage>) {
        if self.mode != Mode::Loopback {
            return;
        }
        let addr = network
            .local_addr()
            .expect("a loopback transport has a local address");
        self.network.add_peer(id, addr);
        if let Some(gateway_addr) = self.network.local_addr() {
            network.add_peer(gateway_id(), gateway_addr);
        }
        let mut networks = self.node_networks.lock();
        for (other, other_network) in networks.iter() {
            other_network.add_peer(id, addr);
            if let Some(other_addr) = other_network.local_addr() {
                network.add_peer(*other, other_addr);
            }
        }
        networks.insert(id, network.clone());
    }

    /// Takes a stopped in-process node off the network: its id no longer
    /// routes, its handler — which owned the node — is dropped, and
    /// (loopback mode) its own listener, sockets and transport threads are
    /// gone when this returns.
    fn detach_server(&self, server: ServerId) {
        self.network.deregister(server);
        let node_network = self.node_networks.lock().remove(&server);
        if let Some(network) = node_network {
            network.deregister(server);
            network.shutdown_transport();
        }
    }

    /// Stops every in-process node and the gateway and joins every thread
    /// they started.  Runs once, from `shutdown` or from the destructor.
    fn teardown(&self) {
        // Collected first: `crash` joins a pool, which is no time to hold
        // the map.
        let nodes: Vec<Arc<NodeShared>> = self.nodes.lock().values().cloned().collect();
        for node in nodes {
            node.crash();
            self.detach_server(node.id);
        }
        self.network.deregister(gateway_id());
        self.network.shutdown_transport();
        // Nothing is left to answer what is still pending — an event queued
        // at a node whose pool dropped it, a control message in flight:
        // an event handle and a control round trip read `RuntimeShutdown`.
        self.pending.close();
    }

    /// Sends `message` to `to`.  The node's handler may run inside this
    /// call, on this thread, and answer the gateway before it returns:
    /// **never call it with a guard held** (the plane's, `nodes`).
    fn send(&self, to: ServerId, message: ClusterMessage) -> Result<()> {
        self.network.send_from(gateway_id(), to, message)
    }

    /// Routes an event to the server hosting the dominator of its target
    /// (Algorithm 2, `to execute`).  A `caller` that waits for the event
    /// until its deadline serves it itself when that server is a node in
    /// this process ([`node::serve`]): no hand-off to the node's pool and
    /// back.  Anyone else — a client that submits, the `Done` arm's
    /// sub-events — sends it.
    fn submit(
        &self,
        client: Option<ClientId>,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
        caller: Option<Instant>,
    ) -> Result<EventHandle> {
        self.control.running()?;
        let event = EventId::new(self.control.next_raw());
        let (tx, handle) = EventHandle::new(event, Some(EVENT_TIMEOUT));
        let corr = self.pending.open(Waiter::Event(client, tx))?;
        let descriptor = EventDescriptor {
            id: event,
            client,
            corr,
            target,
            method: method.to_string(),
            args,
            mode,
        };
        // Recorded before the event is routed, so the invocation timestamp
        // can never be later than the true submission point.
        if let Some(sink) = self.control.sink() {
            sink.invoked(event);
        }
        let delivered = self.route(descriptor).and_then(|(server, work)| {
            let node = caller.and_then(|_| self.nodes.lock().get(&server).cloned());
            match (node, caller) {
                (Some(node), Some(deadline)) => node::serve(&node, work, deadline),
                _ => self.send(server, work),
            }
        });
        if let Err(e) = delivered {
            self.pending.take(corr);
            return Err(e);
        }
        Ok(handle)
    }

    /// How the gateway admits `event`: certified when it is a read of a
    /// method the analyzer certified (`ro` with an empty `calls []`
    /// summary), sequenced otherwise.
    fn admit(&self, plane: &ControlPlane, event: &EventDescriptor) -> Footprint {
        if self.certified.is_empty() || !event.mode.is_read_only() {
            return Footprint::Sequenced;
        }
        match plane.class_of(event.target) {
            Ok(class) => self.certified.admit(class, &event.method, event.mode),
            Err(_) => Footprint::Sequenced,
        }
    }

    /// The server `event` goes to first and the unit of work it brings
    /// there, decided under one read guard of the plane, which is released
    /// before the work is sent or served.
    fn route(&self, event: EventDescriptor) -> Result<(ServerId, ClusterMessage)> {
        let plane = self.control.plane().read();
        let target_server = plane.placement_of(event.target)?;
        if self.admit(&plane, &event) == Footprint::Certified {
            // Certified read-only fast path: the event's lock footprint is
            // provably the single target context, so no dominator
            // sequencing is needed — route it straight to the target's
            // server, skipping the Act round trip.  The node still takes
            // the target's activation in shared mode, so the read
            // serializes against writers exactly as before, and holds the
            // event to that footprint.
            self.fast_path.fetch_add(1, Ordering::Relaxed);
            return Ok((target_server, ClusterMessage::ExecCertified { event }));
        }
        // The sequencer's server: its dominator's host, or for the virtual
        // root the lowest-id online server.
        let sequencer = plane.sequencer_of(event.target)?;
        let server = match sequencer {
            Sequencer::Own => target_server,
            Sequencer::Context(dominator) => plane.placement_of(dominator)?,
            Sequencer::GlobalRoot => plane
                .online_servers()
                .into_iter()
                .next()
                .ok_or_else(|| AeonError::Config("no online servers".into()))?,
        };
        let message = match sequencer {
            Sequencer::Own => ClusterMessage::Exec {
                event,
                sequencer: None,
            },
            _ => ClusterMessage::Act {
                sequencer: sequencer.lock(event.target),
                event,
            },
        };
        Ok((server, message))
    }
}

/// Handles one message addressed to the gateway, on the thread that
/// delivered it; no arm waits (see the module docs).
fn gateway_handle(inner: &ClusterInner, message: ClusterMessage) {
    match message {
        ClusterMessage::Done {
            corr,
            event,
            result,
            sub_events,
        } => {
            // Recorded before the completion is handed to the client,
            // so anything submitted after the client observes the
            // result is ordered after this event in real time.
            if let Some(sink) = inner.control.sink() {
                sink.responded(event);
            }
            let client = match inner.pending.take(corr) {
                Some(Waiter::Event(client, tx)) => {
                    let _ = tx.send(result);
                    client
                }
                _ => None,
            };
            // Sub-events start after their creator terminated (§3), on
            // behalf of the same client.
            for sub in sub_events {
                let _ = inner.submit(client, sub.target, &sub.method, sub.args, sub.mode, None);
            }
        }
        ClusterMessage::DirReq { corr, from, op } => {
            // Control-plane RPC from a node process: answer it from the
            // plane and send the answer straight back.
            let reply = inner.control.answer(op);
            let _ = inner.send(from, ClusterMessage::DirAck { corr, reply });
        }
        answer => inner.pending.complete(answer),
    }
}

/// A client of the cluster: the entry point for submitting events.
#[derive(Debug, Clone)]
pub struct ClusterClient {
    inner: Arc<ClusterInner>,
    id: ClientId,
}

impl Session for ClusterClient {
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
        self.inner
            .submit(Some(self.id), target, method, args, mode, None)
    }

    /// `submit` + `wait()`, served on the caller's thread where `submit`
    /// allows it; `EVENT_TIMEOUT` bounds the whole call, a wait for the
    /// first lock included.
    fn call_with_mode(
        &self,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<Value> {
        let deadline = Instant::now() + EVENT_TIMEOUT;
        let handle =
            self.inner
                .submit(Some(self.id), target, method, args, mode, Some(deadline))?;
        handle.wait_timeout(deadline.saturating_duration_since(Instant::now()))
    }
}

/// A running AEON cluster: a set of server nodes connected by the
/// message-passing substrate, plus the gateway used by clients and by the
/// elasticity machinery.
///
/// # Examples
///
/// ```
/// use aeon_api::{Deployment, Session};
/// use aeon_cluster::Cluster;
/// use aeon_runtime::{KvContext, Placement};
/// use aeon_types::{args, Value};
///
/// # fn main() -> aeon_types::Result<()> {
/// let cluster = Cluster::builder().servers(3).build()?;
/// let room = cluster.create_context(Box::new(KvContext::new("Room")), Placement::Auto)?;
/// let client = cluster.client();
/// client.call(room, "set", args!["time", "noon"])?;
/// assert_eq!(client.call_readonly(room, "get", args!["time"])?, Value::from("noon"));
/// cluster.shutdown();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    inner: Arc<ClusterInner>,
}

impl Cluster {
    /// Starts building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::new()
    }

    /// Creates a client handle.
    pub fn client(&self) -> ClusterClient {
        ClusterClient {
            inner: Arc::clone(&self.inner),
            id: ClientId::new(self.inner.control.next_raw()),
        }
    }

    /// Network traffic statistics (local vs. remote messages).
    pub fn network_stats(&self) -> &NetworkStats {
        self.inner.network.stats()
    }

    /// Per-server count of events whose target executed there.
    pub fn events_executed(&self) -> BTreeMap<ServerId, u64> {
        self.inner
            .nodes
            .lock()
            .iter()
            .map(|(id, node)| (*id, node.events_executed()))
            .collect()
    }

    /// Per-server count of hosted contexts (actual state, not the mapping).
    pub fn hosted_contexts(&self) -> BTreeMap<ServerId, usize> {
        self.inner
            .nodes
            .lock()
            .iter()
            .map(|(id, node)| (*id, node.hosted_contexts()))
            .collect()
    }

    /// Per-server counters of the nodes' worker pools (queue depth, threads
    /// started for announced blocking waits, caught panics).
    pub fn executor_stats(&self) -> BTreeMap<ServerId, ExecutorStats> {
        self.inner
            .nodes
            .lock()
            .iter()
            .map(|(id, node)| (*id, node.executor_stats()))
            .collect()
    }

    /// Number of events the gateway routed on the certified read-only fast
    /// path (straight to the target's server, no dominator activation
    /// round trip, as [`ClusterMessage::ExecCertified`]).
    pub fn fast_path_events(&self) -> u64 {
        self.inner.fast_path.load(Ordering::Relaxed)
    }
}

/// The gateway's side of the control surface: every other control method
/// is the trait's own, over the shared control state and `host`.
impl Deployment for Cluster {
    fn backend_name(&self) -> &'static str {
        "cluster"
    }

    fn control(&self) -> &ControlState {
        &self.inner.control
    }

    /// A node in this process is handed the object, or rebuilds it from the
    /// state under its panic boundary; a node process is sent a `Host` with
    /// class and state and answers with its `HostAck`.  No guard is held
    /// across either.
    fn host(&self, server: ServerId, context: ContextId, hosted: Hosted<'_>) -> Result<()> {
        let node = self.inner.nodes.lock().get(&server).cloned();
        if let Some(node) = node {
            return node.host(context, || match hosted {
                Hosted::New(object) => Ok(object),
                Hosted::Restored(class, state) => {
                    self.inner.control.factories().rebuild(class, state)
                }
            });
        }
        let (class, state) = match hosted {
            Hosted::New(object) => (object.class_name().to_string(), object.snapshot()),
            Hosted::Restored(class, state) => (class.to_string(), state.clone()),
        };
        let host = |corr| ClusterMessage::Host {
            corr,
            context,
            class,
            state,
            reply_to: gateway_id(),
        };
        let ack = self
            .inner
            .pending
            .round_trip(server, host, None, CONTROL_TIMEOUT, || {
                AeonError::ServerNotFound(server)
            })?;
        match ack {
            ClusterMessage::HostAck { result, .. } => result,
            other => Err(unexpected(&other)),
        }
    }

    fn session(&self) -> Box<dyn Session> {
        Box::new(self.client())
    }

    /// Adds a server to the cluster and returns its id (scale-out).
    ///
    /// # Errors
    ///
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    /// * [`AeonError::Config`] on a [`ClusterTransport::TcpMesh`] cluster:
    ///   external node processes are launched out of band, not by the
    ///   gateway.
    /// * The bind error when a loopback node's listener cannot bind.
    fn add_server(&self) -> Result<ServerId> {
        self.inner.control.running()?;
        if self.inner.mode == Mode::Mesh {
            return Err(AeonError::Config(
                "add_server is not available on a TcpMesh cluster; start another aeon-node process"
                    .into(),
            ));
        }
        self.inner.spawn_server()
    }

    /// Releases a drained server (scale-in): the node is taken offline, its
    /// worker pool is stopped and joined, and it is removed from the
    /// network.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ServerNotFound`] for unknown or already offline
    ///   servers.
    /// * [`AeonError::Config`] when the mapping still places contexts on it
    ///   — migrate them away first.
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    fn remove_server(&self, server: ServerId) -> Result<()> {
        self.inner.control.running()?;
        self.inner.control.plane().write().retire_server(server)?;
        let node = self.inner.nodes.lock().remove(&server);
        let Some(node) = node else {
            if self.inner.mode == Mode::Mesh {
                // External process: ask it to exit and forget the peer.
                let _ = self.inner.send(server, ClusterMessage::Shutdown);
                self.inner.network.deregister(server);
                return Ok(());
            }
            return Err(AeonError::ServerNotFound(server));
        };
        node.crash();
        self.inner.detach_server(server);
        Ok(())
    }

    /// Current per-server load metrics, collected with a metrics round trip
    /// to every online node (the distributed analogue of the paper's
    /// periodic utilisation reports to the eManager).  Nodes that crash
    /// between the server listing and the round trip are skipped.
    fn server_metrics(&self) -> Vec<ServerMetrics> {
        let mut raw = Vec::new();
        for server in self.servers() {
            let request = |corr| ClusterMessage::MetricsReq { corr };
            let ack = self
                .inner
                .pending
                .round_trip(server, request, None, CONTROL_TIMEOUT, || {
                    AeonError::ServerNotFound(server)
                });
            if let Ok(ClusterMessage::MetricsAck { metrics, .. }) = ack {
                raw.push(metrics);
            }
        }
        let total_contexts: usize = raw.iter().map(|m| m.context_count).sum();
        raw.into_iter()
            .map(|m| {
                ServerMetrics::from_load(
                    m.server,
                    m.context_count,
                    total_contexts,
                    m.queue_depth as usize,
                    m.latency,
                )
            })
            .collect()
    }

    fn executor_stats(&self) -> Option<ExecutorStats> {
        // Sum the per-node pools into one fleet-wide view.  A certified read
        // runs on its target's node pool like any event, but only the
        // gateway, which admits it, counts it: its counter is folded in
        // here.
        let mut total = ExecutorStats::default();
        for stats in Cluster::executor_stats(self).into_values() {
            total.workers += stats.workers;
            total.shards += stats.shards;
            total.submitted += stats.submitted;
            total.completed += stats.completed;
            total.queued += stats.queued;
            total.spill_spawned += stats.spill_spawned;
            total.spill_live += stats.spill_live;
            total.panics += stats.panics;
            total.batched += stats.batched;
            total.fast_path += stats.fast_path;
        }
        total.fast_path += self.fast_path_events();
        Some(total)
    }

    fn network_stats(&self) -> Option<NetworkStatsSnapshot> {
        Some(Cluster::network_stats(self).snapshot())
    }

    /// Simulates a server crash: the node stops processing immediately,
    /// every lock it holds is poisoned, and its contexts become unavailable
    /// until restored elsewhere with `restore_context`.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ServerNotFound`] for unknown servers.
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    fn crash_server(&self, server: ServerId) -> Result<()> {
        self.inner.control.running()?;
        if self.inner.mode == Mode::Mesh {
            return Err(AeonError::Config(
                "crash injection is not available for external node processes".into(),
            ));
        }
        let node = self.inner.nodes.lock().get(&server).cloned();
        node.ok_or(AeonError::ServerNotFound(server))?.crash();
        // The node dropped its objects with the crash; the plane keeps the
        // contexts' identities for a later re-host.
        self.inner.control.plane().write().mark_crashed(server)?;
        self.inner.detach_server(server);
        Ok(())
    }

    /// Shuts the cluster down: nodes stop accepting messages, blocked events
    /// are aborted, and every pool and transport thread is joined.
    fn shutdown(&self) {
        if self.inner.control.shut_down() {
            return;
        }
        if self.inner.mode == Mode::Mesh {
            // The nodes are other OS processes: ask each to exit.
            for server in self.servers() {
                let _ = self.inner.send(server, ClusterMessage::Shutdown);
            }
        }
        self.inner.teardown();
    }
}

impl Drop for ClusterInner {
    fn drop(&mut self) {
        if !self.control.shut_down() {
            self.teardown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_runtime::{ContextObject, KvContext, Placement};
    use aeon_types::args;
    use std::net::TcpStream;

    #[test]
    fn cluster_backend_round_trip_through_dyn_deployment() {
        let cluster = Cluster::builder().servers(2).build().unwrap();
        let deployment: &dyn Deployment = &cluster;
        assert_eq!(deployment.backend_name(), "cluster");
        let ctx = deployment
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let session = deployment.session();
        session.call(ctx, "set", args!["gold", 9]).unwrap();
        assert_eq!(
            session.call_readonly(ctx, "get", args!["gold"]).unwrap(),
            Value::from(9i64)
        );
        deployment.shutdown();
    }

    #[test]
    fn cluster_snapshot_restore_round_trip() {
        let cluster = Cluster::builder().servers(2).build().unwrap();
        cluster.register_class_factory(
            "Item",
            std::sync::Arc::new(|state: &Value| {
                let mut item = KvContext::new("Item");
                ContextObject::restore(&mut item, state);
                Box::new(item) as Box<dyn ContextObject>
            }),
        );
        let item = cluster
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let client = cluster.client();
        client.call(item, "set", args!["gold", 11]).unwrap();
        let snapshot = cluster.snapshot_context(item).unwrap();
        assert_eq!(snapshot.len(), 1);
        client.call(item, "set", args!["gold", 99]).unwrap();
        cluster.restore_snapshot(&snapshot).unwrap();
        assert_eq!(
            client.call_readonly(item, "get", args!["gold"]).unwrap(),
            Value::from(11i64)
        );
        cluster.shutdown();
    }

    /// Regression test: the gateway loop of the time looked at the shutdown
    /// flag only when its 50 ms poll timed out, so every shutdown took that
    /// long.
    #[test]
    fn an_idle_cluster_shuts_down_without_waiting_out_a_poll_interval() {
        for transport in [ClusterTransport::Channel, ClusterTransport::TcpLoopback] {
            let mut took: Vec<Duration> = (0..10)
                .map(|_| {
                    let cluster = Cluster::builder()
                        .servers(4)
                        .transport(transport.clone())
                        .build()
                        .unwrap();
                    let from = Instant::now();
                    cluster.shutdown();
                    from.elapsed()
                })
                .collect();
            took.sort();
            let median = took[took.len() / 2];
            assert!(
                median < Duration::from_millis(10),
                "{transport:?}: median idle shutdown took {median:?} ({took:?})"
            );
        }
    }

    /// The handler that owns a node and the network the node holds form a
    /// cycle; `shutdown`, `crash_server` and `remove_server` break it.
    #[test]
    fn no_node_outlives_its_cluster() {
        for transport in [ClusterTransport::Channel, ClusterTransport::TcpLoopback] {
            let cluster = Cluster::builder()
                .servers(4)
                .transport(transport.clone())
                .build()
                .unwrap();
            let servers = cluster.servers();
            let nodes: Vec<_> = cluster
                .inner
                .nodes
                .lock()
                .values()
                .map(Arc::downgrade)
                .collect();
            cluster.crash_server(servers[0]).unwrap();
            cluster.remove_server(servers[1]).unwrap();
            assert!(nodes[1].upgrade().is_none(), "{transport:?}: removed");
            cluster.shutdown();
            drop(cluster);
            for (node, server) in nodes.iter().zip(servers) {
                assert!(node.upgrade().is_none(), "{transport:?}: {server}");
            }
        }
    }

    /// A class factory is application code reached from a handler that runs
    /// on the sender's thread: its panic is the `HostAck`, not an unwind
    /// into whoever sent the `Host`.
    #[test]
    fn a_factory_that_panics_in_the_host_arm_is_answered_not_unwound() {
        let cluster = Cluster::builder().servers(1).build().unwrap();
        cluster.register_class_factory("Item", Arc::new(|_: &Value| panic!("no such item")));
        let server = cluster.servers()[0];
        let host = |corr| ClusterMessage::Host {
            corr,
            context: ContextId::new(77),
            class: "Item".into(),
            state: Value::Null,
            reply_to: gateway_id(),
        };
        let ack = cluster
            .inner
            .pending
            .round_trip(server, host, None, CONTROL_TIMEOUT, || {
                AeonError::ServerNotFound(server)
            });
        let Ok(ClusterMessage::HostAck { result, .. }) = ack else {
            panic!("no HostAck: {ack:?}");
        };
        assert_eq!(
            result,
            Err(AeonError::Panicked {
                reason: "no such item".into()
            })
        );
        cluster.shutdown();
    }

    /// Work that reaches a node its context has left is sent on by that
    /// node's worker, after the forwarding pointer: the new host runs it
    /// and answers its `Done`.
    #[test]
    fn an_exec_delivered_where_its_context_was_runs_at_its_new_host() {
        let cluster = Cluster::builder().servers(2).build().unwrap();
        cluster.register_class_factory(
            "Item",
            Arc::new(|state: &Value| {
                let mut item = KvContext::new("Item");
                ContextObject::restore(&mut item, state);
                Box::new(item) as Box<dyn ContextObject>
            }),
        );
        let [from, to] = cluster.servers()[..] else {
            panic!("two servers");
        };
        let item = cluster
            .create_context(Box::new(KvContext::new("Item")), Placement::Server(from))
            .unwrap();
        cluster.migrate_context(item, to).unwrap();
        let executed = cluster.events_executed();
        let id = EventId::new(cluster.inner.control.next_raw());
        let (tx, handle) = EventHandle::new(id, Some(CONTROL_TIMEOUT));
        let corr = cluster.inner.pending.open(Waiter::Event(None, tx)).unwrap();
        let event = EventDescriptor {
            id,
            client: None,
            corr,
            target: item,
            method: "set".into(),
            args: args!["gold", 5i64],
            mode: AccessMode::Exclusive,
        };
        let exec = ClusterMessage::Exec {
            event,
            sequencer: None,
        };
        cluster.inner.send(from, exec).unwrap();
        assert!(handle.wait().is_ok());
        let now = cluster.events_executed();
        assert_eq!((now[&from], now[&to]), (executed[&from], executed[&to] + 1));
        let client = cluster.client();
        assert_eq!(
            client.call_readonly(item, "get", args!["gold"]).unwrap(),
            Value::from(5i64)
        );
        cluster.shutdown();
    }

    /// Regression test: a crashed loopback node kept its listener, readers
    /// and sockets until the whole cluster shut down.
    #[test]
    fn a_crashed_loopback_node_stops_listening() {
        let cluster = Cluster::builder()
            .servers(2)
            .transport(ClusterTransport::TcpLoopback)
            .build()
            .unwrap();
        let server = cluster.servers()[0];
        let addr = cluster.inner.node_networks.lock()[&server]
            .local_addr()
            .unwrap();
        TcpStream::connect(addr).expect("a live node accepts connections");
        cluster.crash_server(server).unwrap();
        assert!(
            TcpStream::connect(addr).is_err(),
            "the crashed node's listener at {addr} still accepts"
        );
        assert!(!cluster.inner.node_networks.lock().contains_key(&server));
        cluster.shutdown();
    }
}
