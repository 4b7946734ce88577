//! A cluster server node: hosts context state and executes its share of
//! every event — a migration included, which is an event like any other.
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
//!   body, remote calls) — goes to the node's sharded worker pool through
//!   `offload`, an unbounded push that does not block; tasks are sharded by
//!   the context they concern.  The arms that run in line only flip a map
//!   and send an acknowledgement: `Host` (insert the object, for a new
//!   context or one migrating in; its class factory, the one piece of
//!   application code reached from here, runs under the panic boundary),
//!   `Release` (releasing a lock never blocks), `CallReply` / `HostAck` /
//!   `DirAck` (complete a waiting caller), `MetricsReq` (read counters),
//!   `Shutdown`.
//! * **A pool worker waits only inside `block_in_place`; a sequencer wait
//!   holds no worker.**  The pool is fixed-size (a thread per blocking
//!   message does not scale), so a worker must not sit on a wait whose end
//!   needs a task queued behind it.  `Act` takes its sequencer with
//!   [`ContextLock::activate_or_defer`]: granted now, the worker goes on
//!   to execute the event — in place when the target is installed here;
//!   held, the `Act` leaves a grant in the lock's queue and the worker is
//!   free.  The grant runs on whichever thread releases the sequencer (a
//!   worker finishing an event, or this `dispatch`'s `Release` arm on a
//!   sender's thread) and only offloads the continuation.  Every other
//!   wait of a worker — a remote call's reply or a migration's `HostAck`, a
//!   contended activation in `enter`, a reader's turn at an object another
//!   reader's frame holds (`lock_object`) — is announced with
//!   `ShardedExecutor::block_in_place`, which hands the rest of the
//!   worker's batch back to the queue and keeps `workers` threads running
//!   the queues beside it (see `aeon_runtime::executor`): the holder it
//!   waits for may be an event whose granted continuation is still queued.
//!   An uncontended activation or object lock announces nothing.
//! * **No guard is held across a send** ([`NodeShared::send`]): the
//!   receiver's handler runs inside the send and may come straight back
//!   here.
//! * **`dispatch` is entered from many threads at once** — from senders,
//!   readers and pool workers (an `Act` re-dispatched after its sequencer
//!   moved): everything it touches is a lock-protected map or an atomic.
//! * **Recursion is bounded by the protocol**, not by load.  The longest
//!   chain is a worker's `Done` → the gateway's arm → a sub-event's `submit`
//!   → `route` → this `dispatch` → `offload`, where it ends.  A forwarded
//!   request is a nested `dispatch` per hop; the hops follow the context's
//!   moves forward in time and a `Host` drops the pointer of a context that
//!   returns, so a chain visits a server at most once.
//!
//! **A migration is an exclusive event on the context** (the interpreter's
//! reserved `@migrate`): sequenced at its dominator and holding the
//! context's lock like any writer, its worker ships the state in a `Host`
//! to the destination and waits for the `HostAck` (`NodeHost::migrate`).
//! Then it moves the placement, leaves a forwarding pointer and removes the
//! slot, and [`ContextLock::mark_moved`] tells every waiter still queued on
//! it that the context moved: a nested activation or a `Call` looks the
//! context up again and reaches it with a remote call, a certified read is
//! forwarded whole, and a deferred `Act` is re-dispatched to the
//! sequencer's new host in its queue order.  Nothing waiting fails, and
//! nothing is buffered.
//!
//! A node is owned by whoever spawned it: its handler holds the only
//! long-lived `Arc` besides the spawner's, so the node is gone once it is
//! deregistered from the network and the spawner's handle dropped; there is
//! nothing to join but the pool, which [`NodeShared::crash`] does.
//!
//! What an event may do while it executes is not decided here: `Exec` and
//! `Call` handlers run the shared interpreter (`aeon_runtime::EventBody`)
//! over [`NodeHost`], which only answers where a context lives, takes and
//! records its activation, carries a call to another server and back, and
//! moves a context.  A snapshot or a restore is such an event too: its
//! root's server calls every member on the others, and `Release` fan-out
//! ends it like any event, so a node has no message of its own for either.

use crate::directory::Directory;
use crate::message::{gateway_id, virtual_root, ClusterMessage, EventDescriptor, NodeMetrics};
use aeon_net::Network;
use aeon_runtime::reply::{reply, Replier, WaitError};
use aeon_runtime::{
    ContextHost, ContextLock, ContextObject, ContextSlot, Entered, EventBody, EventMeta,
    ExecutorConfig, ExecutorStats, Footprint, HostedObject, ShardedExecutor, SubEvent,
};
use aeon_types::{
    AccessMode, AeonError, Args, ClientId, ContextId, EventId, Result, ServerId, Value,
};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long a node waits for the reply to a remote synchronous call before
/// aborting the event.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);
/// The escrow token of a `Host` that parks no object: a migrating context is
/// always rebuilt from its state by the class factory.
const NO_ESCROW: u64 = u64::MAX;

/// Payload routed back to a worker waiting on a remote call (or on the
/// `HostAck` of a migration, which carries only a result).
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
    contexts: RwLock<HashMap<ContextId, Arc<ContextSlot>>>,
    /// Sequencer lock used when an event has no concrete dominator.
    root_lock: ContextLock,
    /// Locks held on this node, per event (released on `Release`).
    held: Mutex<HashMap<EventId, Vec<ContextId>>>,
    /// Workers waiting for replies to remote calls and migrations, by
    /// correlation token.
    pending_calls: Mutex<HashMap<u64, Replier<CallOutcome>>>,
    corr: AtomicU64,
    /// Contexts migrated away: requests are forwarded to the new host
    /// (the paper's stale-context-map forwarding, §5.2).
    forwarding: RwLock<HashMap<ContextId, ServerId>>,
    events_executed: AtomicU64,
    /// Cumulative wall-clock microseconds spent executing events whose
    /// target lives here (feeds the per-server latency metric).
    exec_micros: AtomicU64,
    /// Distribution of per-event execution times (feeds the p50/p99
    /// columns of the per-server metric report).
    exec_latency: Mutex<aeon_types::LatencyHistogram>,
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
        // Collected first: poisoning answers deferred `Act`s, which send.
        let hosted: Vec<Arc<ContextSlot>> = self.contexts.read().values().cloned().collect();
        for hosted in hosted {
            hosted.lock.poison();
        }
        self.root_lock.poison();
        // Workers blocked on remote calls would otherwise sit out the full
        // call timeout; closing their replies fails the calls immediately.
        let waiters = std::mem::take(&mut *self.pending_calls.lock());
        drop(waiters);
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
        // is the behaviour we want under fault injection.  (A remote call
        // sends its `Call` itself and fails at once instead.)
        let _ = self.network.send_from(self.id, to, message);
    }

    /// Activates `lock` for `event` on a pool worker, announcing the wait
    /// to the pool when there is one to make.
    fn activate(&self, lock: &ContextLock, event: EventId, mode: AccessMode) -> Result<()> {
        if lock.try_activate(event, mode)? {
            return Ok(());
        }
        self.executor.block_in_place(|| lock.activate(event, mode))
    }

    fn record_hold(&self, event: EventId, context: ContextId) {
        self.held.lock().entry(event).or_default().push(context);
    }

    /// Releases what `event` holds here.  The grants this runs only
    /// offload (see [`handle_act`]), so the map's read guard may stay.
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

    fn install(&self, context: ContextId, object: Box<dyn ContextObject>) {
        self.contexts
            .write()
            .insert(context, ContextSlot::new(context, object));
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

    fn local(&self, context: ContextId) -> Option<Arc<ContextSlot>> {
        self.contexts.read().get(&context).cloned()
    }

    /// Where `context` went when it was migrated away from here, copied
    /// out so that no guard outlives the look-up.
    fn forwarded(&self, context: ContextId) -> Option<ServerId> {
        self.forwarding.read().get(&context).copied()
    }

    /// Where `context` is as far as this node knows: its slot here, or the
    /// server its forwarding pointer names.  The slot is looked for again
    /// after the pointer: a context that comes back is installed before its
    /// stale pointer goes, so a look-up racing its return still finds it.
    fn whereabouts(&self, context: ContextId) -> Option<Result<Arc<ContextSlot>, ServerId>> {
        let slot = || self.local(context).map(Ok);
        slot()
            .or_else(|| self.forwarded(context).map(Err))
            .or_else(slot)
    }

    /// Hands a potentially blocking message handler to the worker pool,
    /// sharded by the context the message concerns so same-context
    /// messages keep FIFO dequeue affinity.
    fn offload(&self, key: ContextId, work: impl FnOnce() + Send + 'static) {
        self.executor.submit(key.raw(), work);
    }

    /// Sends `message` — a request answered under the correlation token it
    /// is built with — to `to`, and waits inside `block_in_place` for the
    /// answer `dispatch` hands back under that token.  A server that is
    /// gone fails it at once, a stopped node too, and `timed_out` is the
    /// error after [`CALL_TIMEOUT`].
    fn round_trip(
        &self,
        to: ServerId,
        message: impl FnOnce(u64) -> ClusterMessage,
        timed_out: impl FnOnce() -> AeonError,
    ) -> Result<CallOutcome> {
        let corr = self.corr.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = reply();
        self.pending_calls.lock().insert(corr, tx);
        // Re-check liveness after registering: a crash/shutdown drains
        // `pending_calls` to wake blocked workers, and an insert that
        // races past that drain would otherwise park this worker for the
        // full timeout (stalling the pool join).
        if !self.running.load(Ordering::SeqCst) {
            self.pending_calls.lock().remove(&corr);
            return Err(AeonError::RuntimeShutdown);
        }
        if let Err(error) = self.network.send_from(self.id, to, message(corr)) {
            self.pending_calls.lock().remove(&corr);
            return Err(error);
        }
        // An answer handled inline by the receiver (a `Host` on the channel
        // transport) is there already: taking it is no wait to announce.
        let answered = !self.pending_calls.lock().contains_key(&corr);
        let wait = || rx.wait_timeout(CALL_TIMEOUT);
        let outcome = if answered {
            wait()
        } else {
            self.executor.block_in_place(wait)
        };
        match outcome {
            Ok(outcome) => Ok(outcome),
            Err(WaitError::Closed) => Err(AeonError::RuntimeShutdown),
            Err(WaitError::Timeout) => {
                self.pending_calls.lock().remove(&corr);
                Err(timed_out())
            }
        }
    }

    /// Hands `outcome` to the worker waiting under `corr`, if it still is.
    fn complete(&self, corr: u64, outcome: CallOutcome) {
        if let Some(reply) = self.pending_calls.lock().remove(&corr) {
            let _ = reply.send(outcome);
        }
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
        events_executed: AtomicU64::new(0),
        exec_micros: AtomicU64::new(0),
        exec_latency: Mutex::new(aeon_types::LatencyHistogram::new()),
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
    // A context that migrated away: its new host serves the message.
    if let Some(context) = message.routed_context() {
        if shared.local(context).is_none() {
            if let Some(next) = shared.forwarded(context) {
                return shared.send(next, message);
            }
        }
    }
    match message {
        ClusterMessage::Host {
            corr,
            context,
            class,
            state,
            escrow,
            reply_to,
        } => {
            // Same-process creation: the original object was parked in the
            // directory's escrow and is moved in without serialisation.
            // Across processes the token misses, and a migrating context
            // parks nothing: the object is rebuilt from its state with the
            // class factory.
            let object = match shared.directory.escrow_take(escrow) {
                Some(object) => Ok(object),
                None => shared.rebuild(&class, &state).unwrap_or_else(|| {
                    Err(AeonError::Config(format!(
                        "no factory registered for contextclass {class} on this node"
                    )))
                }),
            };
            let result = object.map(|object| {
                shared.install(context, object);
                // A context coming back: the pointer left when it moved
                // away is stale, and following it would bounce requests
                // between this node and the last host.
                shared.forwarding.write().remove(&context);
            });
            shared.send(
                reply_to,
                ClusterMessage::HostAck {
                    corr,
                    context,
                    result,
                },
            );
        }
        ClusterMessage::HostAck { corr, result, .. } => shared.complete(
            corr,
            CallOutcome {
                result: result.map(|()| Value::Null),
                participants: Vec::new(),
                sub_events: Vec::new(),
            },
        ),
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
        } => shared.complete(
            corr,
            CallOutcome {
                result,
                participants,
                sub_events,
            },
        ),
        ClusterMessage::Release { event } => shared.release_event(event),
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
        ClusterMessage::DirReq { .. }
        | ClusterMessage::MetricsAck { .. }
        | ClusterMessage::Done { .. } => {}
    }
}

/// Sequences the event at the dominator (`ACT`), then executes it
/// (`EXEC`) — on this thread when the target is installed here, else at the
/// target's server.  A held sequencer keeps no worker: the `Act` waits in
/// the lock's queue as a grant, which whoever releases the sequencer runs
/// and which only hands the rest back to the pool, keyed by the sequencer
/// (it may run inside `dispatch`, where nothing may wait).  An `Act` whose
/// sequencer moved away — before it got here, or while its grant waited —
/// follows the forwarding pointer to the new host; a poisoned grant answers
/// the gateway at once.
fn handle_act(shared: &Arc<NodeShared>, event: EventDescriptor, sequencer: ContextId) {
    let (id, corr) = (event.id, event.corr);
    let hosted;
    let lock = if sequencer == virtual_root() {
        &shared.root_lock
    } else {
        match shared.whereabouts(sequencer) {
            Some(Ok(local)) => {
                hosted = local;
                &hosted.lock
            }
            // It moved away after `dispatch` found it here.
            Some(Err(next)) => return shared.send(next, ClusterMessage::Act { event, sequencer }),
            None => {
                let error = AeonError::ContextNotFound(sequencer);
                return shared.send(gateway_id(), failed(corr, id, error));
            }
        }
    };
    let mode = event.mode;
    // Shared with the grant, which is dropped unused when the sequencer is
    // granted now, so that the descriptor is moved on, not copied.
    let event = Arc::new(event);
    let later = Arc::clone(&event);
    let node = Arc::clone(shared);
    let granted_now = lock.activate_or_defer(id, mode, move |granted| match granted {
        Ok(()) => {
            let worker = Arc::clone(&node);
            node.offload(sequencer, move || sequenced(&worker, later, sequencer));
        }
        Err(AeonError::MigrationInProgress(_)) => {
            let event = Arc::unwrap_or_clone(later);
            dispatch(&node, ClusterMessage::Act { event, sequencer });
        }
        Err(error) => node.send(gateway_id(), failed(corr, id, error)),
    });
    if granted_now {
        sequenced(shared, event, sequencer);
    }
}

/// The rest of `ACT` once the event holds its sequencer.
fn sequenced(shared: &Arc<NodeShared>, event: Arc<EventDescriptor>, sequencer: ContextId) {
    let event = Arc::unwrap_or_clone(event);
    shared.record_hold(event.id, sequencer);
    let held = Some((shared.id, sequencer));
    if shared.local(event.target).is_some() {
        return handle_exec(shared, event, held, Footprint::Sequenced);
    }
    let target_server = shared
        .forwarded(event.target)
        .or_else(|| shared.directory.placement_of(event.target).ok());
    match target_server {
        Some(server) => shared.send(
            server,
            ClusterMessage::Exec {
                event,
                sequencer: held,
            },
        ),
        None => {
            shared.release_event(event.id);
            let error = AeonError::ContextNotFound(event.target);
            shared.send(gateway_id(), failed(event.corr, event.id, error));
        }
    }
}

/// The `Done` of an event that failed before it executed.
fn failed(corr: u64, event: EventId, error: AeonError) -> ClusterMessage {
    ClusterMessage::Done {
        corr,
        event,
        result: Err(error),
        sub_events: Vec::new(),
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
    // A certified read that found its target gone — it moved while the read
    // waited, or before it arrived — holds nothing: it is sent after the
    // context whole, for the new host to admit the same way.
    if matches!(outcome.result, Err(AeonError::MigrationInProgress(c)) if c == event.target)
        && footprint == Footprint::Certified
    {
        if let Some(next) = host.located {
            return shared.send(next, ClusterMessage::ExecCertified { event });
        }
    }

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

/// The cluster node's host of the event interpreter: a context installed
/// here is entered under its [`ContextLock`]; any other travels to the
/// hosting server as a [`ClusterMessage::Call`].  Holds are recorded on the
/// node (released by `Release` fan-out), not here.
struct NodeHost<'a> {
    node: &'a NodeShared,
    /// Servers (other than this one) holding locks for the event because of
    /// calls issued here.
    participants: BTreeSet<ServerId>,
    /// Where the context `enter` last reported remote lives.
    located: Option<ServerId>,
}

impl<'a> NodeHost<'a> {
    fn new(node: &'a NodeShared) -> Self {
        Self {
            node,
            participants: BTreeSet::new(),
            located: None,
        }
    }
}

impl ContextHost for NodeHost<'_> {
    fn may_call(&self, caller: ContextId, target: ContextId) -> bool {
        self.node.directory.may_call(caller, target)
    }

    fn enter(&mut self, event: &EventMeta, target: ContextId) -> Result<Entered> {
        let node = self.node;
        loop {
            let server = match node.whereabouts(target) {
                Some(Ok(hosted)) => match node.activate(&hosted.lock, event.id, event.mode) {
                    Ok(()) => {
                        node.record_hold(event.id, target);
                        return Ok(Entered::Local(hosted));
                    }
                    // It moved while this event waited for it (its slot is
                    // gone by now): look it up again.
                    Err(AeonError::MigrationInProgress(moved)) if moved == target => continue,
                    Err(error) => return Err(error),
                },
                Some(Err(server)) => server,
                None => node.directory.placement_of(target)?,
            };
            if server != node.id {
                self.located = Some(server);
                return Ok(Entered::Remote);
            }
            // Placed here, yet not found a moment ago: a context is
            // installed before it is placed, so it has just come back —
            // unless nothing installed it (a call to this node would come
            // straight back).
            if node.local(target).is_none() {
                return Err(AeonError::ContextNotFound(target));
            }
        }
    }

    fn lock_object<'o>(
        &self,
        hosted: &'o dyn HostedObject,
    ) -> MutexGuard<'o, Box<dyn ContextObject>> {
        let object = hosted.object();
        object
            .try_lock()
            .unwrap_or_else(|| self.node.executor.block_in_place(|| object.lock()))
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
        let server = self
            .located
            .take()
            .ok_or_else(|| AeonError::internal(format!("{target} was not entered")))?;
        let call = |corr| ClusterMessage::Call {
            event: event.id,
            mode: event.mode,
            client: event.client,
            caller: caller.unwrap_or(target),
            target,
            method: method.to_string(),
            args: args.clone(),
            reply_to: node.id,
            corr,
        };
        let outcome = node.round_trip(server, call, || AeonError::EventAborted {
            event: event.id,
            reason: format!("remote call to context {target} on {server} timed out"),
        })?;
        // Locks taken while serving the call are held whatever it returned.
        self.participants.extend(outcome.participants);
        outcome.result.map(|value| (value, outcome.sub_events))
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
        self.node.install(id, object);
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

    fn subtree(&self, root: ContextId) -> Result<Vec<ContextId>> {
        self.node.directory.subtree(root)
    }

    /// Ships the state to `to` and waits for its `HostAck`; only then does
    /// the context leave: the placement moves, a forwarding pointer stays
    /// behind, the slot goes, and every waiter still queued on its lock is
    /// sent after it.  Until the ack the context stays here, untouched — a
    /// failed move (no factory, a panicking one) leaves it usable.
    fn migrate(
        &mut self,
        target: ContextId,
        object: &mut Box<dyn ContextObject>,
        state: Value,
        to: ServerId,
    ) -> Result<()> {
        let node = self.node;
        let class = object.class_name().to_string();
        if node.directory.factory_for(&class).is_none() {
            return Err(AeonError::MigrationFailed {
                context: target,
                reason: format!("no factory registered for class {class}"),
            });
        }
        if to == node.id {
            return Ok(());
        }
        let host = |corr| ClusterMessage::Host {
            corr,
            context: target,
            class,
            state,
            escrow: NO_ESCROW,
            reply_to: node.id,
        };
        let acked = node.round_trip(to, host, || AeonError::MigrationFailed {
            context: target,
            reason: format!("server {to} did not acknowledge the context's state"),
        })?;
        acked.result?;
        node.directory.set_placement(target, to)?;
        node.forwarding.write().insert(target, to);
        let slot = node.contexts.write().remove(&target);
        if let Some(slot) = slot {
            slot.lock.mark_moved();
        }
        Ok(())
    }
}
