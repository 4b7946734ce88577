//! The cluster gateway: builds the deployment, accepts client events, and
//! drives the elasticity/migration protocol.
//!
//! The gateway plays two of the paper's roles at once: the *client library*
//! (it knows the context mapping and routes each event to the server hosting
//! the dominator of its target, §5.1) and the *eManager driver* for
//! migrations (§5.2).  It never touches context state.
//!
//! The gateway has no thread of its own either.  It serves its id on the
//! network with [`gateway_handle`], which therefore runs on whichever thread
//! delivers a message (see `node.rs` for the delivery rules, which are the
//! same here): a node's pool worker completing an event (`Done`), the
//! caller of a control operation whose acknowledgement came back before it
//! could park, a transport reader over TCP.  Every arm completes a waiting
//! caller through its channel or sends; none waits.  The `Done` arm submits
//! the event's sub-events, i.e. routes and sends from inside a handler —
//! which is why [`ClusterInner::send`] must never run under a guard.  The
//! handler holds the cluster weakly: a cluster is owned by its `Cluster` /
//! `ClusterClient` handles alone, and `shutdown` (or dropping the last of
//! them) deregisters every handler, joins every pool and transport thread,
//! and leaves nothing behind.

use crate::directory::Directory;
use crate::message::{gateway_id, virtual_root, ClusterMessage, EventDescriptor, FreezeMember};
use crate::node::{spawn_node, NodeShared};
use crate::wire::message_wire_len;
use aeon_net::{
    ChannelTransport, MessageSizer, Network, NetworkStats, TcpTransport, TcpTransportConfig,
};
use aeon_ownership::{ClassGraph, ControlPlane, Dominator, OwnershipGraph};
use aeon_runtime::{
    AnalysisMode, CertifiedReads, ContextFactory, ContextObject, ExecutorConfig, ExecutorStats,
    Footprint, Placement, Snapshot,
};
use aeon_types::{
    AccessMode, AeonError, Args, ClientId, ContextId, EventId, Result, ServerId, ServerMetrics,
    SharedHistorySink, Value,
};
use crossbeam::channel::{bounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Default time the gateway waits for a control acknowledgement
/// (hosting a context, each migration step).
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
    analysis: AnalysisMode,
    executor: ExecutorConfig,
    transport: ClusterTransport,
    readonly_fast_path: bool,
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
            analysis: AnalysisMode::default(),
            executor: ExecutorConfig::default(),
            transport: ClusterTransport::default(),
            readonly_fast_path: true,
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
    /// parallelism); the shard count is derived from it.
    pub fn worker_threads(mut self, n: usize) -> Self {
        self.executor.workers = n;
        self
    }

    /// Caps the spill workers each node's blocking escape hatch may keep
    /// alive at once.
    pub fn max_spill_workers(mut self, n: usize) -> Self {
        self.executor.max_spill_workers = n;
        self
    }

    /// Caps how many queued same-context messages one node-executor dequeue
    /// may drain as a batch (`1` disables batching; clamped to at least 1).
    pub fn batch_max(mut self, n: usize) -> Self {
        self.executor.batch_max = n.max(1);
        self
    }

    /// Enables or disables the analyzer-certified read-only fast path at
    /// the gateway (default: enabled).  Certified events (`ro` with an
    /// empty `calls []` summary) are routed straight to their target's
    /// server as [`ClusterMessage::ExecCertified`], skipping the dominator
    /// activation round trip; the node holds them to their target.
    pub fn readonly_fast_path(mut self, enabled: bool) -> Self {
        self.readonly_fast_path = enabled;
        self
    }

    /// Installs a contextclass constraint graph; the static analysis runs at
    /// build time.
    pub fn class_graph(mut self, classes: ClassGraph) -> Self {
        self.class_graph = Some(classes);
        self
    }

    /// Sets how [`ClusterBuilder::build`] treats static-analysis findings on
    /// the class graph: `Off` skips the pipeline, `Warn` prints diagnostics
    /// and proceeds, `Enforce` (the default) refuses to build on any
    /// error-severity diagnostic.
    pub fn analysis(mut self, mode: AnalysisMode) -> Self {
        self.analysis = mode;
        self
    }

    /// Builds and starts the cluster.
    ///
    /// # Errors
    ///
    /// * [`AeonError::Config`] when `servers` is zero.
    /// * [`AeonError::ClassCycleDetected`] when the class graph's ownership
    ///   constraints are cyclic.
    /// * [`AeonError::AnalysisRejected`] when the static analysis pipeline
    ///   reports error diagnostics and the mode is [`AnalysisMode::Enforce`].
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
            classes.check()?;
            aeon_analyzer::enforce(classes, self.analysis)?;
        }
        let certified = CertifiedReads::new(self.class_graph.as_ref(), self.readonly_fast_path);
        let directory = Arc::new(Directory::new(self.class_graph));
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
        let inner = Arc::new(ClusterInner {
            directory,
            network,
            mode,
            shared_stats,
            node_networks: Mutex::new(BTreeMap::new()),
            executor_config: self.executor,
            certified,
            fast_path: AtomicU64::new(0),
            nodes: Mutex::new(BTreeMap::new()),
            pending_events: Mutex::new(HashMap::new()),
            pending_control: Mutex::new(HashMap::new()),
            corr: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
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
            // The server set is the external process mesh; the directory
            // only needs to know the roster.
            for server in mesh_peers {
                inner.plane().write().register_server(server);
            }
        } else {
            for _ in 0..self.servers {
                inner.spawn_server();
            }
        }
        Ok(Cluster { inner })
    }
}

/// A routed event awaiting its `Done`: the issuing client (inherited by the
/// event's sub-events) and the handle's completion channel.
type PendingEvent = (Option<ClientId>, Sender<Result<Value>>);

struct ClusterInner {
    directory: Arc<Directory>,
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
    /// Event completions waiting to be routed back to client handles.
    pending_events: Mutex<HashMap<u64, PendingEvent>>,
    /// Control acknowledgements (host, prepare, stop, install).
    pending_control: Mutex<HashMap<u64, Sender<ClusterMessage>>>,
    corr: AtomicU64,
    shutdown: AtomicBool,
}

impl std::fmt::Debug for ClusterInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterInner")
            .field("servers", &self.nodes.lock().len())
            .field("contexts", &self.plane().read().context_count())
            .finish_non_exhaustive()
    }
}

impl ClusterInner {
    /// The control plane (the directory authority's), which the gateway
    /// reads and changes directly.  No guard on it is held across a round
    /// trip to a node.
    fn plane(&self) -> &RwLock<ControlPlane> {
        self.directory.plane()
    }

    fn spawn_server(&self) -> ServerId {
        // Known but offline until the node runs: nothing is placed on it
        // before it can answer a `Host`.
        let id = self.plane().write().reserve_server();
        let network = self.node_network_for(id);
        let handle = spawn_node(
            id,
            Arc::clone(&self.directory),
            &network,
            self.executor_config.clone(),
        );
        self.plane().write().register_server(id);
        self.nodes.lock().insert(id, handle);
        id
    }

    /// The network a newly spawned in-process node attaches to: the shared
    /// channel network, or (loopback mode) a fresh TCP listener whose
    /// address is exchanged with the gateway and every existing node.
    fn node_network_for(&self, id: ServerId) -> Network<ClusterMessage> {
        match self.mode {
            Mode::Channel => self.network.clone(),
            Mode::Loopback => {
                let listen = SocketAddr::from(([127, 0, 0, 1], 0));
                let transport = TcpTransport::bind(TcpTransportConfig::new(listen))
                    .expect("binding a loopback node transport succeeds");
                let network = Network::with_transport_and_stats(
                    Arc::new(transport),
                    Arc::clone(&self.shared_stats),
                );
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
                network
            }
            Mode::Mesh => unreachable!("mesh clusters never spawn in-process nodes"),
        }
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
    }

    fn next_corr(&self) -> u64 {
        self.corr.fetch_add(1, Ordering::Relaxed)
    }

    /// Sends `message` to `to`.  The node's handler may run inside this
    /// call, on this thread, and answer the gateway before it returns:
    /// **never call it with a guard held** (the plane's, `pending_*`,
    /// `nodes`).
    fn send(&self, to: ServerId, message: ClusterMessage) -> Result<()> {
        self.network.send_from(gateway_id(), to, message)
    }

    /// Sends a control message and waits for its acknowledgement, which may
    /// already be there when the send returns.
    fn control_round_trip(
        &self,
        to: ServerId,
        corr: u64,
        message: ClusterMessage,
    ) -> Result<ClusterMessage> {
        // What a time-out is reported about: the context the message
        // concerns, or the server when it concerns none (freeze, metrics).
        let context = match &message {
            ClusterMessage::Host { context, .. }
            | ClusterMessage::Prepare { context, .. }
            | ClusterMessage::Stop { context, .. }
            | ClusterMessage::Migrate { context, .. } => Some(*context),
            _ => None,
        };
        let (tx, rx) = bounded(1);
        self.pending_control.lock().insert(corr, tx);
        if let Err(e) = self.send(to, message) {
            self.pending_control.lock().remove(&corr);
            return Err(e);
        }
        match rx.recv_timeout(CONTROL_TIMEOUT) {
            Ok(ack) => Ok(ack),
            Err(_) => {
                self.pending_control.lock().remove(&corr);
                Err(match context {
                    Some(context) => AeonError::MigrationFailed {
                        context,
                        reason: format!("server {to} did not acknowledge a control message"),
                    },
                    None => AeonError::ServerNotFound(to),
                })
            }
        }
    }

    /// Sends one [`ClusterMessage::FreezeReq`] and awaits its
    /// acknowledgement.  `frozen` collects every server that may hold
    /// freeze locks; the server is recorded *before* sending, so even a
    /// request that times out gets its server thawed by the caller.
    fn freeze_round_trip(
        &self,
        server: ServerId,
        freeze: EventId,
        members: Vec<FreezeMember>,
        capture: bool,
        frozen: &mut Vec<ServerId>,
    ) -> Result<Vec<(ContextId, String, Value)>> {
        if !frozen.contains(&server) {
            frozen.push(server);
        }
        let corr = self.next_corr();
        let ack = self.control_round_trip(
            server,
            corr,
            ClusterMessage::FreezeReq {
                corr,
                freeze,
                members,
                capture,
            },
        )?;
        match ack {
            ClusterMessage::FreezeAck { result, .. } => result,
            _ => Err(AeonError::internal(
                "unexpected acknowledgement to a freeze request",
            )),
        }
    }

    /// Freezes `members` in order, batching consecutive same-server
    /// members into one [`ClusterMessage::FreezeReq`]; the sequential
    /// round trips preserve the global acquisition order.  Returns the
    /// captured entries when `capture` is set.
    fn freeze_runs(
        &self,
        freeze: EventId,
        members: impl Iterator<Item = FreezeMember>,
        capture: bool,
        frozen: &mut Vec<ServerId>,
    ) -> Result<Vec<(ContextId, String, Value)>> {
        let mut entries = Vec::new();
        let mut run: Vec<FreezeMember> = Vec::new();
        let mut run_server: Option<ServerId> = None;
        for member in members {
            let server = self.plane().read().placement_of(member.context)?;
            if run_server != Some(server) {
                if let Some(prev) = run_server {
                    entries.extend(self.freeze_round_trip(
                        prev,
                        freeze,
                        std::mem::take(&mut run),
                        capture,
                        frozen,
                    )?);
                }
                run_server = Some(server);
            }
            run.push(member);
        }
        if let Some(server) = run_server {
            entries.extend(self.freeze_round_trip(server, freeze, run, capture, frozen)?);
        }
        Ok(entries)
    }

    /// Routes an event to the server hosting the dominator of its target
    /// (Algorithm 2, `to execute`).
    fn submit(
        &self,
        client: Option<ClientId>,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<ClusterEventHandle> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(AeonError::RuntimeShutdown);
        }
        let event = EventId::new(self.directory.next_raw());
        let corr = self.next_corr();
        let (tx, rx) = bounded(1);
        self.pending_events.lock().insert(corr, (client, tx));
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
        if let Some(sink) = self.directory.history_sink() {
            sink.invoked(event);
        }
        let routing = self.route(descriptor);
        if let Err(e) = routing {
            self.pending_events.lock().remove(&corr);
            return Err(e);
        }
        Ok(ClusterEventHandle { event, rx })
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

    fn route(&self, event: EventDescriptor) -> Result<()> {
        // The routing decision is made under one read guard, released
        // before anything is sent.
        let (server, message) = {
            let plane = self.plane().read();
            let target_server = plane.placement_of(event.target)?;
            if self.admit(&plane, &event) == Footprint::Certified {
                // Certified read-only fast path: the event's lock footprint
                // is provably the single target context, so no dominator
                // sequencing is needed — route it straight to the target's
                // server, skipping the Act round trip.  The node still takes
                // the target's activation in shared mode, so the read
                // serializes against writers exactly as before, and holds
                // the event to that footprint.
                self.fast_path.fetch_add(1, Ordering::Relaxed);
                (target_server, ClusterMessage::ExecCertified { event })
            } else {
                match sequencer_of(&plane, event.target)? {
                    Some((server, sequencer)) => (server, ClusterMessage::Act { event, sequencer }),
                    None => (
                        target_server,
                        ClusterMessage::Exec {
                            event,
                            sequencer: None,
                        },
                    ),
                }
            }
        };
        self.send(server, message)
    }
}

/// Where an event (or a subtree freeze) targeting `target` is sequenced, if
/// that is not `target`'s own lock: its dominator on the server hosting it,
/// or — when no concrete dominator exists — the virtual root, which lives
/// on the lowest-id online server.  `None` when `target` is its own
/// dominator.
fn sequencer_of(plane: &ControlPlane, target: ContextId) -> Result<Option<(ServerId, ContextId)>> {
    match plane.dominator_of(target)? {
        Dominator::Context(dom) if dom != target => Ok(Some((plane.placement_of(dom)?, dom))),
        Dominator::Context(_) => Ok(None),
        Dominator::GlobalRoot => {
            let server = plane
                .online_servers()
                .into_iter()
                .next()
                .ok_or_else(|| AeonError::Config("no online servers".into()))?;
            Ok(Some((server, virtual_root())))
        }
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
            if let Some(sink) = inner.directory.history_sink() {
                sink.responded(event);
            }
            let pending = inner.pending_events.lock().remove(&corr);
            let client = pending.and_then(|(client, tx)| {
                let _ = tx.send(result);
                client
            });
            // Sub-events start after their creator terminated (§3), on
            // behalf of the same client.
            for sub in sub_events {
                let _ = inner.submit(client, sub.target, &sub.method, sub.args, sub.mode);
            }
        }
        ClusterMessage::DirReq { corr, from, op } => {
            // Control-plane RPC from a node process: serve it at the
            // directory authority and send the answer straight back.
            let reply = inner.directory.serve_dir_op(op);
            let _ = inner.send(from, ClusterMessage::DirAck { corr, reply });
        }
        ClusterMessage::HostAck { corr, .. }
        | ClusterMessage::PrepareAck { corr, .. }
        | ClusterMessage::StopAck { corr, .. }
        | ClusterMessage::InstallAck { corr, .. }
        | ClusterMessage::FreezeAck { corr, .. }
        | ClusterMessage::MetricsAck { corr, .. } => {
            let entry = inner.pending_control.lock().remove(&corr);
            if let Some(tx) = entry {
                let _ = tx.send(message);
            }
        }
        _ => {}
    }
}

/// A handle to an event submitted to the cluster.
#[derive(Debug)]
pub struct ClusterEventHandle {
    event: EventId,
    rx: Receiver<Result<Value>>,
}

impl ClusterEventHandle {
    /// The id assigned to the event.
    pub fn event_id(&self) -> EventId {
        self.event
    }

    /// Waits for the event to complete and returns its result.
    ///
    /// # Errors
    ///
    /// * The error returned by the application method, if any.
    /// * [`AeonError::EventAborted`] when no completion arrives within the
    ///   cluster's event timeout (e.g. the hosting server crashed).
    pub fn wait(self) -> Result<Value> {
        self.wait_timeout(EVENT_TIMEOUT)
    }

    /// Waits up to `timeout` for the event to complete.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClusterEventHandle::wait`].
    pub fn wait_timeout(self, timeout: Duration) -> Result<Value> {
        match self.rx.recv_timeout(timeout) {
            Ok(result) => result,
            Err(_) => Err(AeonError::EventAborted {
                event: self.event,
                reason: "no completion received before the timeout".into(),
            }),
        }
    }
}

/// A client of the cluster: the entry point for submitting events.
#[derive(Debug, Clone)]
pub struct ClusterClient {
    inner: Arc<ClusterInner>,
    id: ClientId,
}

impl ClusterClient {
    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Submits an event with an explicit access mode: the primitive behind
    /// [`ClusterClient::submit_event`] and the `aeon-api` `Session`
    /// implementation.  The `call`/`call_readonly` convenience wrappers
    /// live on the `Session` trait, not here.
    ///
    /// # Errors
    ///
    /// * [`AeonError::RuntimeShutdown`] after shutdown.
    /// * [`AeonError::ContextNotFound`] for unknown targets.
    pub fn submit(
        &self,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<ClusterEventHandle> {
        self.inner.submit(Some(self.id), target, method, args, mode)
    }

    /// Submits an exclusive (update) event.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClusterClient::submit`].
    pub fn submit_event(
        &self,
        target: ContextId,
        method: &str,
        args: Args,
    ) -> Result<ClusterEventHandle> {
        self.submit(target, method, args, AccessMode::Exclusive)
    }

    /// Submits a read-only event.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ClusterClient::submit`].
    pub fn submit_readonly_event(
        &self,
        target: ContextId,
        method: &str,
        args: Args,
    ) -> Result<ClusterEventHandle> {
        self.submit(target, method, args, AccessMode::ReadOnly)
    }
}

/// A running AEON cluster: a set of server nodes connected by the
/// message-passing substrate, plus the gateway used by clients and by the
/// elasticity machinery.
///
/// # Examples
///
/// ```
/// use aeon_api::Session;
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
            id: ClientId::new(self.inner.directory.next_raw()),
        }
    }

    /// Registers the factory used to rebuild contexts of `class` from a
    /// snapshot during migration or recovery.
    pub fn register_class_factory(&self, class: impl Into<String>, factory: ContextFactory) {
        self.inner.directory.register_factory(class, factory);
    }

    /// Installs a live history sink: the gateway reports every event's
    /// invocation/response points and the nodes report every context
    /// access — including snapshot captures and restore writes — to it.
    /// Replaces any previous sink.
    pub fn install_history_sink(&self, sink: SharedHistorySink) {
        self.inner.directory.set_history_sink(sink);
    }

    /// Creates a root context (no owners) and hosts it according to
    /// `placement` (the same [`Placement`] policy the in-process runtime
    /// uses: least-loaded server, a specific server, or co-located with
    /// another context).
    ///
    /// # Errors
    ///
    /// * [`AeonError::Config`] when the class is not declared or no server is
    ///   online.
    /// * [`AeonError::ServerNotFound`] when the requested server is offline.
    pub fn create_context(
        &self,
        object: Box<dyn ContextObject>,
        placement: Placement,
    ) -> Result<ContextId> {
        self.host_new_context(object, |plane, id, class| {
            plane.declare_root(id, class, placement)
        })
    }

    /// Creates a context owned by `owners` (at least one), hosted next to
    /// its first owner.
    ///
    /// # Errors
    ///
    /// * [`AeonError::Config`] when `owners` is empty or the class is not
    ///   declared.
    /// * [`AeonError::OwnershipViolation`] when the class constraints forbid
    ///   the ownership.
    pub fn create_owned_context(
        &self,
        object: Box<dyn ContextObject>,
        owners: &[ContextId],
    ) -> Result<ContextId> {
        self.host_new_context(object, |plane, id, class| {
            plane.declare_owned(id, class, owners)
        })
    }

    /// Creates a context: `declare` enters it into the control plane under
    /// the id it is handed (validating everything first) and names the
    /// server, which is then asked to host the object; if that fails the
    /// context is forgotten again.
    fn host_new_context(
        &self,
        object: Box<dyn ContextObject>,
        declare: impl FnOnce(&mut ControlPlane, ContextId, &str) -> Result<ServerId>,
    ) -> Result<ContextId> {
        let class = object.class_name().to_string();
        let id = self.inner.directory.next_context_id();
        let server = declare(&mut self.inner.plane().write(), id, &class)?;
        // The snapshot travels on the wire (a node in another process
        // rebuilds from it); the object itself is parked in escrow so a
        // same-process node can move it in without a factory.
        let state = object.snapshot();
        let escrow = self.inner.directory.escrow_put(object);
        let corr = self.inner.next_corr();
        let ack = self.inner.control_round_trip(
            server,
            corr,
            ClusterMessage::Host {
                corr,
                context: id,
                class,
                state,
                escrow,
            },
        );
        let outcome = match ack {
            Ok(ClusterMessage::HostAck { result: Ok(()), .. }) => Ok(id),
            Ok(ClusterMessage::HostAck {
                result: Err(err), ..
            }) => Err(err),
            Ok(_) | Err(_) => Err(AeonError::ServerNotFound(server)),
        };
        // A cross-process node used its factory; drop the unclaimed
        // escrow entry either way so nothing leaks.
        let _ = self.inner.directory.escrow_take(escrow);
        if outcome.is_err() {
            let _ = self.inner.plane().write().forget(id);
        }
        outcome
    }

    /// Migrates `context` to `to` using the five-step protocol of §5.2 and
    /// returns the number of bytes of serialised state moved.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ContextNotFound`] / [`AeonError::ServerNotFound`] for
    ///   unknown ids.
    /// * [`AeonError::MigrationFailed`] when no factory is registered for
    ///   the context's class or a protocol step times out.
    pub fn migrate_context(&self, context: ContextId, to: ServerId) -> Result<u64> {
        let (from, class) = {
            let plane = self.inner.plane().read();
            if !plane.is_online(to) {
                return Err(AeonError::ServerNotFound(to));
            }
            let from = plane.placement_of(context)?;
            if from == to {
                return Ok(0);
            }
            (from, plane.class_of(context)?.to_string())
        };
        if self.inner.directory.factory_for(&class).is_none() {
            return Err(AeonError::MigrationFailed {
                context,
                reason: format!("no factory registered for class {class}"),
            });
        }
        // Step I: prepare the destination.
        let corr = self.inner.next_corr();
        self.inner
            .control_round_trip(to, corr, ClusterMessage::Prepare { corr, context })?;
        // Step II: stop the source from accepting new events for the context.
        let corr = self.inner.next_corr();
        self.inner
            .control_round_trip(from, corr, ClusterMessage::Stop { corr, context, to })?;
        // Step III: update the mapping; new requests now route to `to`.
        self.inner.plane().write().set_placement(context, to)?;
        // Steps IV/V: ship the state and wait for the installation ack.
        let corr = self.inner.next_corr();
        let ack = self.inner.control_round_trip(
            from,
            corr,
            ClusterMessage::Migrate { corr, context, to },
        )?;
        match ack {
            ClusterMessage::InstallAck { result, .. } => result,
            _ => Err(AeonError::MigrationFailed {
                context,
                reason: "unexpected acknowledgement".into(),
            }),
        }
    }

    /// Re-hosts a context from externally held state (e.g. a checkpoint)
    /// after its server crashed.  The context keeps its identity and
    /// ownership edges; only its placement and state change.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ContextNotFound`] when the context was never created.
    /// * [`AeonError::MigrationFailed`] when no factory is registered.
    /// * [`AeonError::ServerNotFound`] when `server` is offline.
    pub fn restore_context(
        &self,
        context: ContextId,
        state: &Value,
        server: ServerId,
    ) -> Result<()> {
        let class = {
            let plane = self.inner.plane().read();
            if !plane.is_online(server) {
                return Err(AeonError::ServerNotFound(server));
            }
            plane.class_of(context)?.to_string()
        };
        let factory =
            self.inner
                .directory
                .factory_for(&class)
                .ok_or_else(|| AeonError::MigrationFailed {
                    context,
                    reason: format!("no factory registered for class {class}"),
                })?;
        let object = factory(state);
        self.inner.plane().write().set_placement(context, server)?;
        let escrow = self.inner.directory.escrow_put(object);
        let corr = self.inner.next_corr();
        let ack = self.inner.control_round_trip(
            server,
            corr,
            ClusterMessage::Host {
                corr,
                context,
                class,
                state: state.clone(),
                escrow,
            },
        );
        let _ = self.inner.directory.escrow_take(escrow);
        match ack? {
            ClusterMessage::HostAck { result: Ok(()), .. } => {
                // A re-host is recorded as a single-write event: everything
                // the context does afterwards happens-after this install.
                if let Some(sink) = self.inner.directory.history_sink() {
                    let event = EventId::new(self.inner.directory.next_raw());
                    sink.invoked(event);
                    sink.accessed(event, context, AccessMode::Exclusive);
                    sink.responded(event);
                }
                Ok(())
            }
            ClusterMessage::HostAck {
                result: Err(err), ..
            } => Err(err),
            _ => Err(AeonError::ServerNotFound(server)),
        }
    }

    /// Takes a crash-consistent snapshot of `context` and all its
    /// descendants using the coordinated freeze protocol:
    ///
    /// 1. **Sequence** — a freeze event exclusively activates the
    ///    dominator's sequencer lock on its hosting node
    ///    ([`ClusterMessage::FreezeReq`] with the sequencer as sole
    ///    member), draining every in-flight event that could reach shared
    ///    state in the subtree.
    /// 2. **Freeze & capture** — every member is exclusively activated in
    ///    owner-before-owned order (consecutive same-server members batch
    ///    into one `FreezeReq`) and its state captured at activation; all
    ///    locks stay held, so the captures form one logical cut that some
    ///    serial execution could have produced.
    /// 3. **Thaw** — every contacted server receives a
    ///    [`ClusterMessage::ThawReq`] releasing the freeze event's locks —
    ///    on success *and* on failure, so a mid-freeze crash of one node
    ///    never strands locks on the others.
    ///
    /// Contexts whose snapshot is `Null` are skipped (the paper's opt-out
    /// convention).
    ///
    /// # Errors
    ///
    /// * [`AeonError::ContextNotFound`] when `context` is unknown.
    /// * [`AeonError::SnapshotFailed`] when a member is unreachable (e.g.
    ///   its server crashed mid-freeze); already-frozen members have been
    ///   thawed.
    pub fn snapshot_context(&self, context: ContextId) -> Result<Snapshot> {
        let members = self.subtree_members(context)?;
        let entries = self.freeze_subtree(context, &members, true, &[])?;
        let mut snapshot = Snapshot::new(context);
        for (id, class, state) in entries {
            if !state.is_null() {
                snapshot.insert(id, class, state);
            }
        }
        Ok(snapshot)
    }

    /// `root` and all its descendants, owner before owned.
    fn subtree_members(&self, root: ContextId) -> Result<Vec<ContextId>> {
        self.inner.plane().read().graph().subtree_topological(root)
    }

    /// Establishes a coordinated freeze of `root`'s subtree — sequencer
    /// first, then every member in the given owner-before-owned order —
    /// captures the frozen cut when asked, then (second phase, only once
    /// *every* member is frozen and validated) applies the `apply` states
    /// under the held locks, and **always** thaws every contacted server
    /// before returning, so no lock outlives the call even on partial
    /// failure.  Because nothing is written until the whole freeze is
    /// established, a member that is missing or unreachable fails the
    /// operation before any state changed.
    fn freeze_subtree(
        &self,
        root: ContextId,
        members: &[ContextId],
        capture: bool,
        apply: &[(ContextId, Value)],
    ) -> Result<Vec<(ContextId, String, Value)>> {
        let freeze = EventId::new(self.inner.directory.next_raw());
        let sink = self.inner.directory.history_sink();
        if let Some(sink) = &sink {
            sink.invoked(freeze);
        }
        let mut frozen: Vec<ServerId> = Vec::new();
        let result = (|| -> Result<Vec<(ContextId, String, Value)>> {
            // The freeze is sequenced exactly like an exclusive event
            // targeting `root` (whose own lock is the first member frozen).
            let sequencer = sequencer_of(&self.inner.plane().read(), root)?;
            if let Some((server, sequencer)) = sequencer {
                self.inner.freeze_round_trip(
                    server,
                    freeze,
                    vec![FreezeMember::freeze(sequencer)],
                    false,
                    &mut frozen,
                )?;
            }
            let entries = self.inner.freeze_runs(
                freeze,
                members.iter().map(|m| FreezeMember::freeze(*m)),
                capture,
                &mut frozen,
            )?;
            if !apply.is_empty() {
                // Apply phase: the freeze event already holds every lock
                // (activation is idempotent per event), so these requests
                // apply immediately.
                self.inner.freeze_runs(
                    freeze,
                    apply
                        .iter()
                        .map(|(context, state)| FreezeMember::restore(*context, state.clone())),
                    false,
                    &mut frozen,
                )?;
            }
            Ok(entries)
        })()
        .map_err(|e| AeonError::SnapshotFailed {
            context: root,
            reason: e.to_string(),
        });
        for server in &frozen {
            let _ = self.inner.send(*server, ClusterMessage::ThawReq { freeze });
        }
        if let Some(sink) = &sink {
            sink.responded(freeze);
        }
        result
    }

    /// Restores context states from a snapshot previously produced by
    /// [`Cluster::snapshot_context`].  Contexts must still be hosted; their
    /// state is replaced in place through `ContextObject::restore` on the
    /// hosting server, so no class factory is required — the same contract
    /// as the in-process runtime and the simulator.  (Re-hosting a context
    /// that was lost to a crash goes through
    /// [`Cluster::restore_context`] instead, which does need a factory.)
    ///
    /// The restore runs under the same coordinated subtree freeze as the
    /// snapshot, in two phases: first every member is frozen and validated
    /// (nothing is written yet — a missing or unreachable member fails the
    /// restore with the live state untouched), then the snapshot states
    /// are applied under the held locks.  Concurrent events therefore
    /// observe either the pre-restore or the post-restore state of *every*
    /// member, never a mix.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ContextNotFound`] if a snapshotted context no longer
    ///   exists.
    /// * [`AeonError::SnapshotFailed`] when a hosting server does not
    ///   answer; already-frozen members have been thawed.  If the failure
    ///   happens during the apply phase itself (a server dying *after* the
    ///   full freeze was established), the restore may be partially
    ///   applied — re-run it once the deployment recovered.
    pub fn restore_snapshot(&self, snapshot: &Snapshot) -> Result<()> {
        for (id, _) in snapshot.entries() {
            // Fail with the documented error before freezing anything when
            // an entry vanished.
            self.placement_of(*id)?;
        }
        let root = snapshot.root();
        let mut members = self.subtree_members(root)?;
        // Entries that left the subtree since the capture (ownership
        // edits) are frozen after the subtree members and restored with
        // them.
        let member_set: BTreeSet<ContextId> = members.iter().copied().collect();
        for (id, _) in snapshot.entries() {
            if !member_set.contains(id) {
                members.push(*id);
            }
        }
        let apply: Vec<(ContextId, Value)> = snapshot
            .entries()
            .map(|(id, entry)| (*id, entry.state.clone()))
            .collect();
        self.freeze_subtree(root, &members, false, &apply)
            .map(|_| ())
    }

    /// Adds a server to the cluster and returns its id (scale-out).
    ///
    /// # Panics
    ///
    /// Panics on a [`ClusterTransport::TcpMesh`] cluster: external node
    /// processes are launched out of band, not by the gateway.
    pub fn add_server(&self) -> ServerId {
        assert!(
            self.inner.mode != Mode::Mesh,
            "add_server is not available on a TcpMesh cluster; start another aeon-node process"
        );
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
    pub fn remove_server(&self, server: ServerId) -> Result<()> {
        self.inner.plane().write().retire_server(server)?;
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
    pub fn server_metrics(&self) -> Vec<ServerMetrics> {
        let mut raw = Vec::new();
        for server in self.servers() {
            let corr = self.inner.next_corr();
            if let Ok(ClusterMessage::MetricsAck { metrics, .. }) =
                self.inner
                    .control_round_trip(server, corr, ClusterMessage::MetricsReq { corr })
            {
                raw.push(metrics);
            }
        }
        let total_contexts: usize = raw.iter().map(|m| m.context_count).sum();
        raw.into_iter()
            .map(|m| {
                let avg_latency_ms = if m.events_executed == 0 {
                    0.0
                } else {
                    m.exec_micros as f64 / m.events_executed as f64 / 1_000.0
                };
                ServerMetrics::from_load_with_latency(
                    m.server,
                    m.context_count,
                    total_contexts,
                    m.queue_depth as usize,
                    avg_latency_ms,
                    m.latency,
                )
            })
            .collect()
    }

    /// Simulates a server crash: the node stops processing immediately,
    /// every lock it holds is poisoned, and its contexts become unavailable
    /// until restored elsewhere with [`Cluster::restore_context`].
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ServerNotFound`] for unknown servers.
    pub fn crash_server(&self, server: ServerId) -> Result<()> {
        if self.inner.mode == Mode::Mesh {
            return Err(AeonError::Config(
                "crash injection is not available for external node processes".into(),
            ));
        }
        let node = self.inner.nodes.lock().get(&server).cloned();
        node.ok_or(AeonError::ServerNotFound(server))?.crash();
        // The node dropped its objects with the crash; the plane keeps the
        // contexts' identities for a later re-host.
        self.inner.plane().write().mark_crashed(server)?;
        self.inner.detach_server(server);
        Ok(())
    }

    /// Ids of all online servers.
    pub fn servers(&self) -> Vec<ServerId> {
        self.inner.plane().read().online_servers()
    }

    /// The server currently hosting `context` according to the mapping.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] for unknown contexts.
    pub fn placement_of(&self, context: ContextId) -> Result<ServerId> {
        self.inner.plane().read().placement_of(context)
    }

    /// Contexts mapped to `server`.
    pub fn contexts_on(&self, server: ServerId) -> Vec<ContextId> {
        self.inner.plane().read().contexts_on(server)
    }

    /// Number of contexts mapped to online servers (contexts lost to a
    /// crash do not count until they are re-hosted).
    pub fn context_count(&self) -> usize {
        self.inner.plane().read().context_count()
    }

    /// A snapshot of the ownership network.
    pub fn ownership_graph(&self) -> OwnershipGraph {
        self.inner.plane().read().graph().clone()
    }

    /// Adds an ownership edge between existing contexts.
    ///
    /// # Errors
    ///
    /// Same conditions as the runtime's `add_ownership`.
    pub fn add_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.inner.plane().write().add_edge(owner, owned)
    }

    /// Removes an ownership edge.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] when either context is
    /// unknown.
    pub fn remove_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.inner.plane().write().remove_edge(owner, owned)
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

    /// Per-server count of worker naps spent waiting for a migrated-in
    /// context to be installed (each nap is one retry of the install-wait
    /// loop, capped to the remaining grace deadline).
    pub fn install_wait_retries(&self) -> BTreeMap<ServerId, u64> {
        self.inner
            .nodes
            .lock()
            .iter()
            .map(|(id, node)| (*id, node.install_wait_retries()))
            .collect()
    }

    /// Per-server counters of the nodes' worker pools (queue depth, spill
    /// activity, caught panics).
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
    /// round trip); see [`ClusterBuilder::readonly_fast_path`].
    pub fn fast_path_events(&self) -> u64 {
        self.inner.fast_path.load(Ordering::Relaxed)
    }

    /// Shuts the cluster down: nodes stop accepting messages, blocked events
    /// are aborted, and every pool and transport thread is joined.
    pub fn shutdown(&self) {
        if self.inner.shutdown.swap(true, Ordering::SeqCst) {
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
        if !self.shutdown.swap(true, Ordering::SeqCst) {
            self.teardown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use std::time::Instant;

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
        let inner = &cluster.inner;
        let corr = inner.next_corr();
        // An escrow token nothing was parked under, as a node in another
        // process sees every `Host`.
        let host = ClusterMessage::Host {
            corr,
            context: ContextId::new(77),
            class: "Item".into(),
            state: Value::Null,
            escrow: u64::MAX,
        };
        let ack = inner.control_round_trip(cluster.servers()[0], corr, host);
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
