//! A cluster server node: hosts context state, executes its share of every
//! event, and participates in the migration protocol.
//!
//! A node has no thread of its own that receives.  It *serves* its id on the
//! network ([`aeon_net::Network::serve`]): [`dispatch`] is called with each
//! message on whichever thread delivers it — the sender's (a client in
//! `submit`, the gateway's caller in a control round trip, a pool worker of
//! this or another node) on the channel transport, a connection's reader
//! thread over TCP.  What makes that safe:
//!
//! * **`dispatch` never waits.**  Every arm that can — `Act` (the sequencer
//!   lock), `Exec` / `ExecCertified` / `Call` (activation locks, the method
//!   body, remote calls), `Migrate` (exclusive access), `Install` (the class
//!   factory, the replay), `FreezeReq` (one activation per member) — goes to
//!   the node's sharded worker pool through `offload`, an unbounded push
//!   that does not block.  The pool is fixed-size (a thread per blocking
//!   message does not scale); tasks are sharded by the context they
//!   concern, and the pool's spill escape hatch keeps the node live when
//!   every resident worker is parked on a remote call or a lock held by a
//!   yet-unscheduled message (see `aeon_runtime::executor`).  The arms that
//!   run in line only flip a map and send an acknowledgement: `Host`
//!   (insert the object; its class factory, the one piece of application
//!   code reached from here, runs under the panic boundary), `Prepare` /
//!   `Stop` (open a buffer), `Release` / `ThawReq` (releasing a lock never
//!   blocks), `CallReply` / `DirAck` (complete a waiting caller),
//!   `FreezeReq`'s registration, `MetricsReq` (read counters), `Shutdown`.
//! * **No guard is held across a send** ([`NodeShared::send`]): the
//!   receiver's handler runs inside the send and may come straight back
//!   here.
//! * **`dispatch` is entered from many threads at once** — it always was,
//!   from pool workers (`handle_act` for a local target, `handle_install`'s
//!   replay) beside the receive loop this design removed: everything it
//!   touches is a lock-protected map or an atomic.
//! * **Recursion is bounded by the protocol**, not by load.  The longest
//!   chain is a worker's `Done` → the gateway's arm → a sub-event's `submit`
//!   → `route` → this `dispatch` → `offload`, where it ends.  A forwarded
//!   request is a nested `dispatch` per hop; the hops follow the context's
//!   moves forward in time and `Prepare` drops the pointer of a context
//!   that returns, so a chain visits a server at most once.
//!
//! A node is owned by whoever spawned it: its handler holds the only
//! long-lived `Arc` besides the spawner's, so the node is gone once it is
//! deregistered from the network and the spawner's handle dropped; there is
//! nothing to join but the pool, which [`NodeShared::crash`] does.
//!
//! What an event may do while it executes is not decided here: `Exec` and
//! `Call` handlers run the shared interpreter (`aeon_runtime::EventBody`)
//! over [`NodeHost`], which only answers where a context lives (`locate`,
//! with its wait for an in-flight `Install`), takes and records its
//! activation, and carries a call to another server and back.

use crate::directory::Directory;
use crate::message::{
    gateway_id, virtual_root, ClusterMessage, EventDescriptor, FreezeMember, NodeMetrics,
};
use aeon_net::Network;
use aeon_runtime::{
    ContextHost, ContextLock, ContextObject, Entered, EventBody, EventMeta, ExecutorConfig,
    ExecutorStats, Footprint, HostedObject, ShardedExecutor, SubEvent,
};
use aeon_types::{
    codec, AccessMode, AeonError, Args, ClientId, ContextId, EventId, Result, ServerId, Value,
};
use crossbeam::channel::{bounded, Sender};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long a node waits for the reply to a remote synchronous call before
/// aborting the event.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a node retries locating a context that the mapping says is local
/// but has not been installed yet (it may be in flight from a migration).
const INSTALL_GRACE: Duration = Duration::from_millis(2_000);

/// A context hosted by a node: its protocol lock and its application object.
pub(crate) struct HostedContext {
    pub(crate) class: String,
    pub(crate) lock: ContextLock,
    pub(crate) object: Mutex<Box<dyn ContextObject>>,
}

impl HostedObject for HostedContext {
    fn object(&self) -> &Mutex<Box<dyn ContextObject>> {
        &self.object
    }
}

impl HostedContext {
    fn new(id: ContextId, class: String, object: Box<dyn ContextObject>) -> Arc<Self> {
        Arc::new(Self {
            class,
            lock: ContextLock::new(id),
            object: Mutex::new(object),
        })
    }
}

/// Payload routed back to a worker waiting on a remote call.
struct CallOutcome {
    result: Result<Value>,
    participants: Vec<ServerId>,
    sub_events: Vec<SubEvent>,
}

/// A node: the state its message handler and its worker threads share.
pub(crate) struct NodeShared {
    pub(crate) id: ServerId,
    /// The node's worker pool: every potentially blocking message is
    /// executed here, sharded by the context it concerns.
    executor: ShardedExecutor,
    directory: Arc<Directory>,
    network: Network<ClusterMessage>,
    contexts: RwLock<HashMap<ContextId, Arc<HostedContext>>>,
    /// Sequencer lock used when an event has no concrete dominator.
    root_lock: ContextLock,
    /// Locks held on this node, per event (released on `Release`).
    held: Mutex<HashMap<EventId, Vec<ContextId>>>,
    /// Workers waiting for replies to remote calls, by correlation token.
    pending_calls: Mutex<HashMap<u64, Sender<CallOutcome>>>,
    corr: AtomicU64,
    /// Contexts migrated away: requests are forwarded to the new host
    /// (the paper's stale-context-map forwarding, §5.2).
    forwarding: RwLock<HashMap<ContextId, ServerId>>,
    /// Contexts in the stop window of a migration: requests are buffered and
    /// forwarded once the migration completes.
    stopped: Mutex<HashMap<ContextId, Vec<ClusterMessage>>>,
    /// Contexts announced by `Prepare` but not yet installed: requests are
    /// buffered and replayed after `Install`.
    installing: Mutex<HashMap<ContextId, Vec<ClusterMessage>>>,
    /// Coordinated freezes on this node, registered inline when the
    /// `FreezeReq` arrives (before its handler can even be scheduled) and
    /// removed when the handler finishes.  The flag flips to `true` when a
    /// `ThawReq` arrives while the freeze is still being established (the
    /// gateway gave up, e.g. after a control timeout): the handler then
    /// releases its own locks at the end, since no further thaw is coming
    /// for anything it acquired after the early thaw.  One mutex guards
    /// the whole lifecycle, so the thaw's check and the handler's
    /// completion cannot interleave into a stranded lock.
    active_freezes: Mutex<BTreeMap<EventId, bool>>,
    events_executed: AtomicU64,
    /// Cumulative wall-clock microseconds spent executing events whose
    /// target lives here (feeds the per-server latency metric).
    exec_micros: AtomicU64,
    /// Distribution of per-event execution times (feeds the p50/p99
    /// columns of the per-server metric report).
    exec_latency: Mutex<aeon_types::LatencyHistogram>,
    /// Times a worker slept waiting for a migrated-in context to be
    /// installed (the wait-for-install retry loop in [`NodeShared::locate`]).
    install_wait_retries: AtomicU64,
    running: AtomicBool,
    /// Set, and announced, when the node stops; `wait_stopped` blocks on it.
    halted: (Mutex<bool>, Condvar),
}

impl std::fmt::Debug for NodeShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeShared")
            .field("id", &self.id)
            .field("contexts", &self.contexts.read().len())
            .finish_non_exhaustive()
    }
}

impl NodeShared {
    /// Number of events whose target executed on this node.
    pub(crate) fn events_executed(&self) -> u64 {
        self.events_executed.load(Ordering::Relaxed)
    }

    /// Number of contexts currently installed on this node.
    pub(crate) fn hosted_contexts(&self) -> usize {
        self.contexts.read().len()
    }

    /// Times a worker slept waiting for a migrated-in context.
    pub(crate) fn install_wait_retries(&self) -> u64 {
        self.install_wait_retries.load(Ordering::Relaxed)
    }

    /// Counters of this node's worker pool.
    pub(crate) fn executor_stats(&self) -> ExecutorStats {
        self.executor.stats()
    }

    /// Stops the node immediately without draining (models a crash) and
    /// joins its pool — so never call it from a pool worker.
    pub(crate) fn crash(&self) {
        self.stop();
        self.executor.shutdown();
    }

    /// Blocks until the node was told to stop (`Shutdown`, or a crash).
    pub(crate) fn wait_stopped(&self) {
        let mut halted = self.halted.0.lock();
        while !*halted {
            self.halted.1.wait(&mut halted);
        }
    }

    /// Refuses every later message and wakes everything that could keep a
    /// pool worker parked (lock waiters, remote-call waiters).
    fn stop(&self) {
        self.running.store(false, Ordering::SeqCst);
        self.poison_all();
        *self.halted.0.lock() = true;
        self.halted.1.notify_all();
    }

    fn poison_all(&self) {
        for hosted in self.contexts.read().values() {
            hosted.lock.poison();
        }
        self.root_lock.poison();
        // Workers blocked on remote calls would otherwise sit out the full
        // call timeout; fail their calls immediately.
        let waiters: Vec<(u64, Sender<CallOutcome>)> = self.pending_calls.lock().drain().collect();
        for (_, reply) in waiters {
            let _ = reply.send(CallOutcome {
                result: Err(AeonError::RuntimeShutdown),
                participants: Vec::new(),
                sub_events: Vec::new(),
            });
        }
    }

    /// Sends `message` to `to`.  The receiver's handler may run inside this
    /// call, on this thread, and send back here: **never call it with a
    /// guard on one of this node's maps held** — copy what the message
    /// needs out first, in a statement of its own (a guard taken inside the
    /// argument list lives until the send returns).  The one lock a send
    /// does run under is the object mutex of a method frame making a remote
    /// call, which no handler touches.
    fn send(&self, to: ServerId, message: ClusterMessage) {
        // A failed send means the destination crashed or was removed; the
        // waiting party times out and surfaces an EventAborted error, which
        // is the behaviour we want under fault injection.
        let _ = self.network.send_from(self.id, to, message);
    }

    fn record_hold(&self, event: EventId, context: ContextId) {
        self.held.lock().entry(event).or_default().push(context);
    }

    fn release_event(&self, event: EventId) {
        let contexts = self.held.lock().remove(&event).unwrap_or_default();
        let map = self.contexts.read();
        for context in contexts.into_iter().rev() {
            if context == virtual_root() {
                self.root_lock.release(event);
            } else if let Some(hosted) = map.get(&context) {
                hosted.lock.release(event);
            }
        }
    }

    /// Reports a context access to the installed history sink, if any.
    /// Callers invoke this while holding the context's object lock so the
    /// per-context record order equals the observed access order.
    fn record_access(&self, event: EventId, context: ContextId, mode: AccessMode) {
        if let Some(sink) = self.directory.history_sink() {
            sink.accessed(event, context, mode);
        }
    }

    fn install(&self, context: ContextId, class: String, object: Box<dyn ContextObject>) {
        self.contexts
            .write()
            .insert(context, HostedContext::new(context, class, object));
    }

    /// Rebuilds an object of `class` from `state` with the registered
    /// factory (`None` without one).  The factory is application code: a
    /// panic in it becomes the error the waiting party is answered with,
    /// instead of unwinding into whoever delivered the message.
    fn rebuild(&self, class: &str, state: &Value) -> Option<Result<Box<dyn ContextObject>>> {
        let factory = self.directory.factory_for(class)?;
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| factory(state)));
        Some(built.map_err(AeonError::from_panic))
    }

    fn local(&self, context: ContextId) -> Option<Arc<HostedContext>> {
        self.contexts.read().get(&context).cloned()
    }

    /// Where `context` went when it was migrated away from here, copied
    /// out so that no guard outlives the look-up.
    fn forwarded(&self, context: ContextId) -> Option<ServerId> {
        self.forwarding.read().get(&context).copied()
    }

    /// The local entry of `target`, or `None` when it lives on another
    /// server.  A context mapped here but not installed yet (migration in
    /// flight) is waited for up to [`INSTALL_GRACE`].
    fn locate(&self, target: ContextId) -> Result<Option<Arc<HostedContext>>> {
        if let Some(hosted) = self.local(target) {
            return Ok(Some(hosted));
        }
        // Not local: where does the mapping say it lives?
        let deadline = std::time::Instant::now() + INSTALL_GRACE;
        loop {
            if self
                .forwarded(target)
                .is_some_and(|server| server != self.id)
            {
                return Ok(None);
            }
            if !self.running.load(Ordering::SeqCst) {
                return Err(AeonError::RuntimeShutdown);
            }
            match self.directory.placement_of(target) {
                Ok(server) if server == self.id => {
                    // Mapped here but not installed yet (migration in
                    // flight); wait briefly for the Install to land.
                    if let Some(hosted) = self.local(target) {
                        return Ok(Some(hosted));
                    }
                    let now = std::time::Instant::now();
                    if now >= deadline {
                        return Err(AeonError::MigrationInProgress(target));
                    }
                    // Never sleep past the deadline: a full fixed-interval
                    // nap could overshoot it and stall the worker longer
                    // than the configured grace period.
                    let nap = (deadline - now).min(Duration::from_millis(10));
                    self.install_wait_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(nap);
                }
                Ok(_) => return Ok(None),
                Err(e) => return Err(e),
            }
        }
    }

    /// Hands a potentially blocking message handler to the worker pool,
    /// sharded by the context the message concerns so same-context
    /// messages keep FIFO dequeue affinity.
    fn offload(&self, key: ContextId, work: impl FnOnce() + Send + 'static) {
        self.executor.submit(key.raw(), work);
    }

    /// Routing decision for messages that name a context this node may no
    /// longer (or not yet) host.  Hands the message back unless it was
    /// consumed (buffered or forwarded).
    fn reroute_if_needed(
        &self,
        context: ContextId,
        message: ClusterMessage,
    ) -> Option<ClusterMessage> {
        if let Some(next) = self.forwarded(context) {
            self.send(next, message);
            return None;
        }
        {
            let mut stopped = self.stopped.lock();
            if let Some(buffer) = stopped.get_mut(&context) {
                buffer.push(message);
                return None;
            }
        }
        {
            let mut installing = self.installing.lock();
            if let Some(buffer) = installing.get_mut(&context) {
                buffer.push(message);
                return None;
            }
        }
        Some(message)
    }
}

/// Spawns a node: starts its worker pool and serves its id on the network
/// with [`dispatch`].  The handler owns the node; deregistering the id is
/// what lets go of it.
pub(crate) fn spawn_node(
    id: ServerId,
    directory: Arc<Directory>,
    network: &Network<ClusterMessage>,
    executor: ExecutorConfig,
) -> Arc<NodeShared> {
    let shared = Arc::new(NodeShared {
        id,
        executor: ShardedExecutor::new(format!("aeon-node-{id}-pool"), executor),
        directory,
        network: network.clone(),
        contexts: RwLock::new(HashMap::new()),
        root_lock: ContextLock::new(virtual_root()),
        held: Mutex::new(HashMap::new()),
        pending_calls: Mutex::new(HashMap::new()),
        corr: AtomicU64::new(1),
        forwarding: RwLock::new(HashMap::new()),
        stopped: Mutex::new(HashMap::new()),
        installing: Mutex::new(HashMap::new()),
        active_freezes: Mutex::new(BTreeMap::new()),
        events_executed: AtomicU64::new(0),
        exec_micros: AtomicU64::new(0),
        exec_latency: Mutex::new(aeon_types::LatencyHistogram::new()),
        install_wait_retries: AtomicU64::new(0),
        running: AtomicBool::new(true),
        halted: (Mutex::new(false), Condvar::new()),
    });
    let node = Arc::clone(&shared);
    network.serve(id, move |message| {
        // A stopped node takes nothing: its senders see it as gone.
        let running = node.running.load(Ordering::SeqCst);
        if running {
            dispatch(&node, message);
        }
        running
    });
    shared
}

/// Handles one message on the thread that delivered it; see the module docs
/// for why no arm may wait.
fn dispatch(shared: &Arc<NodeShared>, message: ClusterMessage) {
    let message = match message.routed_context() {
        Some(context) if shared.local(context).is_none() => {
            let Some(message) = shared.reroute_if_needed(context, message) else {
                return;
            };
            message
        }
        _ => message,
    };
    match message {
        ClusterMessage::Host {
            corr,
            context,
            class,
            state,
            escrow,
        } => {
            // Same-process hand-off: the original object was parked in the
            // directory's escrow and is moved in without serialisation.
            // Across processes the token misses and the object is rebuilt
            // from its snapshotted state with the class factory.
            let object = match shared.directory.escrow_take(escrow) {
                Some(object) => Ok(object),
                None => shared.rebuild(&class, &state).unwrap_or_else(|| {
                    Err(AeonError::Config(format!(
                        "no factory registered for contextclass {class} on this node"
                    )))
                }),
            };
            let result = object.map(|object| shared.install(context, class, object));
            shared.send(
                gateway_id(),
                ClusterMessage::HostAck {
                    corr,
                    context,
                    result,
                },
            );
        }
        ClusterMessage::DirAck { corr, reply } => {
            shared.directory.complete_dir_reply(corr, reply);
        }
        ClusterMessage::Act { event, sequencer } => {
            let worker = Arc::clone(shared);
            shared.offload(sequencer, move || handle_act(&worker, event, sequencer));
        }
        ClusterMessage::Exec { event, sequencer } => {
            let worker = Arc::clone(shared);
            let key = event.target;
            shared.offload(key, move || {
                handle_exec(&worker, event, sequencer, Footprint::Sequenced)
            });
        }
        ClusterMessage::ExecCertified { event } => {
            let worker = Arc::clone(shared);
            let key = event.target;
            shared.offload(key, move || {
                handle_exec(&worker, event, None, Footprint::Certified)
            });
        }
        ClusterMessage::Call {
            event,
            mode,
            client,
            caller,
            target,
            method,
            args,
            reply_to,
            corr,
        } => {
            let worker = Arc::clone(shared);
            shared.offload(target, move || {
                handle_call(
                    &worker, event, mode, client, caller, target, method, args, reply_to, corr,
                )
            });
        }
        ClusterMessage::CallReply {
            corr,
            result,
            participants,
            sub_events,
        } => {
            if let Some(reply) = shared.pending_calls.lock().remove(&corr) {
                let _ = reply.send(CallOutcome {
                    result,
                    participants,
                    sub_events,
                });
            }
        }
        ClusterMessage::Release { event } => shared.release_event(event),
        ClusterMessage::Prepare { corr, context } => {
            shared.installing.lock().entry(context).or_default();
            // The context is coming (back) here: a pointer left from an
            // earlier move away is stale, and following it would bounce a
            // request between this node and the source until the install
            // lands — without end, now that a forward is a nested call.
            shared.forwarding.write().remove(&context);
            shared.send(gateway_id(), ClusterMessage::PrepareAck { corr, context });
        }
        ClusterMessage::Stop {
            corr,
            context,
            to: _,
        } => {
            shared.stopped.lock().entry(context).or_default();
            shared.send(gateway_id(), ClusterMessage::StopAck { corr, context });
        }
        ClusterMessage::Migrate { corr, context, to } => {
            let worker = Arc::clone(shared);
            shared.offload(context, move || handle_migrate(&worker, corr, context, to));
        }
        ClusterMessage::Install {
            corr,
            context,
            class,
            state,
            from: _,
        } => {
            let worker = Arc::clone(shared);
            shared.offload(context, move || {
                handle_install(&worker, corr, context, class, state)
            });
        }
        ClusterMessage::FreezeReq {
            corr,
            freeze,
            members,
            capture,
        } => {
            // Registered before the handler is queued, so a ThawReq that
            // overtakes a not-yet-started freeze still finds it and leaves
            // the release-your-own-locks marker.
            shared.active_freezes.lock().insert(freeze, false);
            let key = members.first().map(|m| m.context).unwrap_or(virtual_root());
            let worker = Arc::clone(shared);
            shared.offload(key, move || {
                handle_freeze(&worker, corr, freeze, members, capture)
            });
        }
        ClusterMessage::ThawReq { freeze } => {
            // Handled inline: releasing never blocks.  The flag is flipped
            // BEFORE releasing: locks the handler acquires after this point
            // are then released by the handler itself (it observes the
            // flag at the end), and locks acquired before are released by
            // release_event below — flipping after releasing would leave a
            // window where the handler completes in between and its
            // later-acquired locks are never released.
            if let Some(thawed) = shared.active_freezes.lock().get_mut(&freeze) {
                *thawed = true;
            }
            shared.release_event(freeze);
        }
        ClusterMessage::MetricsReq { corr } => {
            // Answered inline: the report only reads counters, it cannot
            // block, so it never competes with event execution for the pool.
            // Built before the send, so that no guard it reads under is
            // held across it.
            let metrics = Box::new(NodeMetrics {
                server: shared.id,
                context_count: shared.contexts.read().len(),
                queue_depth: shared.executor.stats().queued,
                events_executed: shared.events_executed.load(Ordering::Relaxed),
                exec_micros: shared.exec_micros.load(Ordering::Relaxed),
                latency: *shared.exec_latency.lock(),
            });
            shared.send(gateway_id(), ClusterMessage::MetricsAck { corr, metrics });
        }
        ClusterMessage::Shutdown => shared.stop(),
        // Gateway-only messages are ignored by nodes.
        ClusterMessage::HostAck { .. }
        | ClusterMessage::DirReq { .. }
        | ClusterMessage::PrepareAck { .. }
        | ClusterMessage::StopAck { .. }
        | ClusterMessage::InstallAck { .. }
        | ClusterMessage::FreezeAck { .. }
        | ClusterMessage::MetricsAck { .. }
        | ClusterMessage::Done { .. } => {}
    }
}

/// Sequences the event at the dominator (`ACT`), then forwards it to the
/// target server for execution (`EXEC`).
fn handle_act(shared: &Arc<NodeShared>, event: EventDescriptor, sequencer: ContextId) {
    let activation = if sequencer == virtual_root() {
        shared.root_lock.activate(event.id, event.mode)
    } else {
        match shared.local(sequencer) {
            Some(hosted) => hosted.lock.activate(event.id, event.mode),
            None => Err(AeonError::ContextNotFound(sequencer)),
        }
    };
    if let Err(error) = activation {
        shared.send(
            gateway_id(),
            ClusterMessage::Done {
                corr: event.corr,
                event: event.id,
                result: Err(error),
                sub_events: Vec::new(),
            },
        );
        return;
    }
    shared.record_hold(event.id, sequencer);
    let target_server = shared
        .forwarded(event.target)
        .or_else(|| shared.directory.placement_of(event.target).ok());
    match target_server {
        Some(server) => {
            let exec = ClusterMessage::Exec {
                event,
                sequencer: Some((shared.id, sequencer)),
            };
            if server == shared.id {
                dispatch(shared, exec);
            } else {
                shared.send(server, exec);
            }
        }
        None => {
            shared.release_event(event.id);
            shared.send(
                gateway_id(),
                ClusterMessage::Done {
                    corr: event.corr,
                    event: event.id,
                    result: Err(AeonError::ContextNotFound(event.target)),
                    sub_events: Vec::new(),
                },
            );
        }
    }
}

/// Executes the event at its target context and completes it.  `footprint`
/// is how the gateway admitted the event: a certified read arrives without
/// a sequencer and must not leave its target.
fn handle_exec(
    shared: &Arc<NodeShared>,
    event: EventDescriptor,
    sequencer: Option<(ServerId, ContextId)>,
    footprint: Footprint,
) {
    let started = std::time::Instant::now();
    let meta = EventMeta {
        id: event.id,
        client: event.client,
        mode: event.mode,
    };
    let mut host = NodeHost::new(shared);
    let outcome = EventBody::new(&mut host, meta, footprint).run(
        None,
        event.target,
        &event.method,
        &event.args,
    );

    // Release locks everywhere the event touched, then locally, then at the
    // sequencer (reverse of acquisition order across the cluster).
    for server in &host.participants {
        if *server != shared.id {
            shared.send(*server, ClusterMessage::Release { event: event.id });
        }
    }
    shared.release_event(event.id);
    if let Some((seq_server, _)) = sequencer {
        if seq_server != shared.id {
            shared.send(seq_server, ClusterMessage::Release { event: event.id });
        }
    }
    shared.events_executed.fetch_add(1, Ordering::Relaxed);
    let elapsed_micros = started.elapsed().as_micros() as u64;
    shared
        .exec_micros
        .fetch_add(elapsed_micros, Ordering::Relaxed);
    shared.exec_latency.lock().record(elapsed_micros);
    shared.send(
        gateway_id(),
        ClusterMessage::Done {
            corr: event.corr,
            event: event.id,
            result: outcome.result,
            sub_events: outcome.sub_events,
        },
    );
}

/// Serves a synchronous method call issued by another server on behalf of a
/// running event.
#[allow(clippy::too_many_arguments)]
fn handle_call(
    shared: &Arc<NodeShared>,
    event: EventId,
    mode: AccessMode,
    client: Option<ClientId>,
    caller: ContextId,
    target: ContextId,
    method: String,
    args: Args,
    reply_to: ServerId,
    corr: u64,
) {
    let meta = EventMeta {
        id: event,
        client,
        mode,
    };
    let mut host = NodeHost::new(shared);
    // A caller equal to the target marks a top-level invocation that was
    // forwarded after a migration; there is no ownership edge to check.
    let caller = if caller == target { None } else { Some(caller) };
    let outcome =
        EventBody::new(&mut host, meta, Footprint::Sequenced).run(caller, target, &method, &args);
    host.participants.insert(shared.id);
    shared.send(
        reply_to,
        ClusterMessage::CallReply {
            corr,
            result: outcome.result,
            participants: host.participants.into_iter().collect(),
            sub_events: outcome.sub_events,
        },
    );
}

/// Establishes this node's share of a coordinated subtree freeze: every
/// member is activated exclusively by the freeze event *in request order*
/// (the gateway sends members owner-before-owned, which makes the global
/// acquisition order deadlock-free against in-flight events), its state is
/// captured and/or replaced at the frozen cut, and the locks stay held
/// until the gateway's [`ClusterMessage::ThawReq`].
fn handle_freeze(
    shared: &Arc<NodeShared>,
    corr: u64,
    freeze: EventId,
    members: Vec<FreezeMember>,
    capture: bool,
) {
    let mut entries = Vec::new();
    let outcome = (|| -> Result<()> {
        for member in &members {
            if member.context == virtual_root() {
                shared.root_lock.activate(freeze, AccessMode::Exclusive)?;
                shared.record_hold(freeze, member.context);
                continue;
            }
            let hosted = shared
                .local(member.context)
                .ok_or(AeonError::ContextNotFound(member.context))?;
            hosted.lock.activate(freeze, AccessMode::Exclusive)?;
            shared.record_hold(freeze, member.context);
            let mut object = hosted.object.lock();
            if let Some(state) = &member.restore {
                shared.record_access(freeze, member.context, AccessMode::Exclusive);
                object.restore(state);
            }
            if capture {
                shared.record_access(freeze, member.context, AccessMode::ReadOnly);
                entries.push((member.context, hosted.class.clone(), object.snapshot()));
            }
        }
        Ok(())
    })();
    let thawed = shared
        .active_freezes
        .lock()
        .remove(&freeze)
        .unwrap_or(false);
    let result = if thawed {
        // The gateway abandoned this freeze while we were establishing it;
        // whatever the thaw did not catch is released here.
        shared.release_event(freeze);
        Err(AeonError::EventAborted {
            event: freeze,
            reason: "freeze thawed before it was established".into(),
        })
    } else {
        match outcome {
            Ok(()) => Ok(entries),
            Err(error) => {
                // A member is missing or the node is shutting down: release
                // this node's own holds so nothing stays locked, then report.
                shared.release_event(freeze);
                Err(error)
            }
        }
    };
    shared.send(gateway_id(), ClusterMessage::FreezeAck { corr, result });
}

/// Migration step IV on the source server: wait for exclusive access, ship
/// the serialised state, and start forwarding.
fn handle_migrate(shared: &Arc<NodeShared>, corr: u64, context: ContextId, to: ServerId) {
    let Some(hosted) = shared.local(context) else {
        shared.send(
            gateway_id(),
            ClusterMessage::InstallAck {
                corr,
                context,
                result: Err(AeonError::ContextNotFound(context)),
            },
        );
        return;
    };
    // The migration behaves like an exclusive event on the context: it waits
    // for in-flight events to drain and keeps new ones out.
    let migration_event = EventId::new(shared.directory.next_raw());
    if let Err(error) = hosted.lock.activate(migration_event, AccessMode::Exclusive) {
        shared.send(
            gateway_id(),
            ClusterMessage::InstallAck {
                corr,
                context,
                result: Err(error),
            },
        );
        return;
    }
    let (class, state) = {
        let object = hosted.object.lock();
        (hosted.class.clone(), object.snapshot())
    };
    shared.contexts.write().remove(&context);
    // The old lock is now orphaned: anyone who cloned the hosted entry
    // before the removal (an event or a subtree freeze racing with this
    // migration) must fail fast instead of blocking forever on a lock
    // whose exclusive holder never releases — or, worse, capturing the
    // stale pre-migration state.
    hosted.lock.poison();
    shared.forwarding.write().insert(context, to);
    shared.send(
        to,
        ClusterMessage::Install {
            corr,
            context,
            class,
            state,
            from: shared.id,
        },
    );
    // Forward everything buffered during the stop window.
    let buffered = shared.stopped.lock().remove(&context).unwrap_or_default();
    for message in buffered {
        shared.send(to, message);
    }
}

/// Migration step V on the destination server: rebuild the context from its
/// serialised state and replay buffered requests.
fn handle_install(
    shared: &Arc<NodeShared>,
    corr: u64,
    context: ContextId,
    class: String,
    state: Value,
) {
    let bytes = codec::encoded_len(&state) as u64;
    let result = match shared.rebuild(&class, &state) {
        Some(object) => object.map(|object| {
            shared.install(context, class, object);
            bytes
        }),
        None => Err(AeonError::MigrationFailed {
            context,
            reason: format!("no factory registered for class {class}"),
        }),
    };
    // Replay buffered requests (they were addressed to this node already).
    let buffered = shared
        .installing
        .lock()
        .remove(&context)
        .unwrap_or_default();
    for message in buffered {
        dispatch(shared, message);
    }
    shared.send(
        gateway_id(),
        ClusterMessage::InstallAck {
            corr,
            context,
            result,
        },
    );
}

/// The cluster node's host of the event interpreter: a context installed
/// here is entered under its [`ContextLock`]; any other travels to the
/// hosting server as a [`ClusterMessage::Call`].  Holds are recorded on the
/// node (released by `Release` fan-out), not here.
struct NodeHost<'a> {
    node: &'a NodeShared,
    /// Servers (other than this one) holding locks for the event because of
    /// calls issued here.
    participants: BTreeSet<ServerId>,
}

impl<'a> NodeHost<'a> {
    fn new(node: &'a NodeShared) -> Self {
        Self {
            node,
            participants: BTreeSet::new(),
        }
    }
}

impl ContextHost for NodeHost<'_> {
    fn may_call(&self, caller: ContextId, target: ContextId) -> bool {
        self.node.directory.may_call(caller, target)
    }

    fn enter(&mut self, event: &EventMeta, target: ContextId) -> Result<Entered> {
        match self.node.locate(target)? {
            Some(hosted) => {
                hosted.lock.activate(event.id, event.mode)?;
                self.node.record_hold(event.id, target);
                Ok(Entered::Local(hosted))
            }
            None => Ok(Entered::Remote),
        }
    }

    fn remote_call(
        &mut self,
        event: &EventMeta,
        caller: Option<ContextId>,
        target: ContextId,
        method: &str,
        args: &Args,
    ) -> Result<(Value, Vec<SubEvent>)> {
        let node = self.node;
        let server = match node.forwarded(target) {
            Some(server) => server,
            None => node.directory.placement_of(target)?,
        };
        let corr = node.corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = bounded(1);
        node.pending_calls.lock().insert(corr, tx);
        // Re-check liveness after registering: a crash/shutdown drains
        // `pending_calls` to wake blocked workers, and an insert that
        // races past that drain would otherwise park this worker for the
        // full call timeout (stalling the pool join).
        if !node.running.load(Ordering::SeqCst) {
            node.pending_calls.lock().remove(&corr);
            return Err(AeonError::RuntimeShutdown);
        }
        node.send(
            server,
            ClusterMessage::Call {
                event: event.id,
                mode: event.mode,
                client: event.client,
                caller: caller.unwrap_or(target),
                target,
                method: method.to_string(),
                args: args.clone(),
                reply_to: node.id,
                corr,
            },
        );
        match rx.recv_timeout(CALL_TIMEOUT) {
            Ok(outcome) => {
                // Locks taken while serving the call are held whatever it
                // returned.
                self.participants.extend(outcome.participants);
                outcome.result.map(|value| (value, outcome.sub_events))
            }
            Err(_) => {
                node.pending_calls.lock().remove(&corr);
                Err(AeonError::EventAborted {
                    event: event.id,
                    reason: format!("remote call to context {target} on {server} timed out"),
                })
            }
        }
    }

    fn record_access(&self, event: &EventMeta, context: ContextId) {
        self.node.record_access(event.id, context, event.mode);
    }

    fn create_child(
        &mut self,
        owner: ContextId,
        object: Box<dyn ContextObject>,
    ) -> Result<ContextId> {
        let class = object.class_name().to_string();
        // Control-plane half (class validation, id allocation, context and
        // edge declaration) runs at the directory authority — one RPC when
        // this node is a separate OS process.
        let id = self.node.directory.create_owned(owner, &class)?;
        // Locality: the child is hosted next to the (local) context that
        // created it, exactly like the in-process runtime.  The plane
        // placed it with its owner; say where it actually landed, which
        // differs while the owner is mid-migration.
        self.node.install(id, class, object);
        self.node.directory.set_placement(id, self.node.id)?;
        Ok(id)
    }

    fn add_ownership(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.node.directory.add_edge(owner, owned)
    }

    fn remove_ownership(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.node.directory.remove_edge(owner, owned)
    }

    fn children(&self, parent: ContextId, class: Option<&str>) -> Result<Vec<ContextId>> {
        self.node.directory.children_of(parent, class)
    }
}
