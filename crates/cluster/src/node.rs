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
//! * **`dispatch` never waits.**  Every arm that can — `Act`, `Exec`,
//!   `ExecCertified`, `Call`, each a unit of work (the method body, nested
//!   activations, remote calls) — goes to the node's sharded worker pool
//!   through `offload`, an unbounded push that does not block, keyed by the
//!   context of the work's first lock.  The arms that run in line only flip
//!   a map and send an acknowledgement: `Host` (rebuild the object from its
//!   state with the class factory, the one piece of application code
//!   reached from here, under the panic boundary, and install it through
//!   [`NodeShared::host`]), `Release` (releasing a lock never blocks),
//!   `CallReply` / `HostAck` / `DirAck` (complete a waiting round trip),
//!   `MetricsReq` (read counters), `Shutdown`.
//! * **A unit of work runs on a pool worker, or on the blocking caller
//!   that waits for it.**  Whatever a message brings goes to the pool.  A
//!   client's blocking `call` whose first server is a node in the
//!   gateway's own process (any transport) sends nothing: the gateway
//!   hands the work to [`serve`] on the client's thread, which takes the
//!   first lock through the same `start` and runs and answers the work
//!   exactly as a worker would, so no pool hand-off and no wake-up of the
//!   caller stand between the call and its `Done`.  Such a caller holds
//!   nothing, so it may wait: a held first lock is waited for in the
//!   lock's FIFO queue, and the grant hands the work to the caller (to the
//!   pool once the caller's deadline passed); a refused or moved one the
//!   grant answers or sends on itself, as it does for pool work.  Only a
//!   blocking caller runs work in line; what a handler delivers — a
//!   sub-event the gateway's `Done` arm submits included — is offloaded.
//! * **No unit of work waits for its first lock on a worker; a worker
//!   waits only inside `block_in_place`.**  The pool is fixed-size (a
//!   thread per blocking message does not scale), so a worker must not sit
//!   on a wait whose end needs a task queued behind it.  The worker takes
//!   the work's first lock — an `Act`'s sequencer, an `Exec` /
//!   `ExecCertified` target, a `Call`'s callee — through the node's
//!   [`ServerCore`] (`start`): free, it runs the work in place; held, the
//!   work waits in the lock's queue as a grant and the worker is free.  The
//!   grant runs on whichever thread releases the lock (a worker or a
//!   blocking caller finishing an event, or this `dispatch`'s `Release` arm
//!   on a sender's thread) and only offloads the work again (or hands it to
//!   its blocking caller), sends it after a context that moved, or answers
//!   its event when the node stopped.  Every other wait of a
//!   worker — a round trip (below), a contended activation nested in a
//!   running body, a reader's turn at an object another reader's frame
//!   holds (`lock_object`) — is announced with
//!   `ShardedExecutor::block_in_place`, which hands the rest of the
//!   worker's batch back to the queue and keeps `workers` threads running
//!   the queues beside it (see `aeon_runtime::executor`): the holder it
//!   waits for may be work whose grant offloaded it, still queued.  An
//!   uncontended activation or object lock announces nothing, and nor does
//!   a round trip whose answer came back inside its send.
//! * **No guard is held across a send** ([`NodeShared::send`]): the
//!   receiver's handler runs inside the send and may come straight back
//!   here.
//! * **`dispatch` is entered from many threads at once** — from senders,
//!   readers and pool workers (work re-delivered after its context moved):
//!   everything it touches is a lock-protected map or an atomic.
//! * **Recursion is bounded by the protocol**, not by load.  The longest
//!   chain is a worker's `Done` → the gateway's arm → a sub-event's `submit`
//!   → `route` → this `dispatch` → `offload`, where it ends.  Work for a
//!   context that left is forwarded by a worker of the node it reached
//!   (its first lock is not hosted there: `look_again`), one pool hop per
//!   server; the hops follow the context's moves forward in time and
//!   hosting drops the pointer of a context that returns, so a chain visits
//!   a server at most once.
//!
//! **Hosting is one step, [`NodeShared::host`]**: it refuses a stopped node,
//! installs the object and drops a stale forwarding pointer.  The `Host`
//! arm ends in it — a context migrating in, or one the gateway creates or
//! restores on a node process — and so does the gateway's hosting hook
//! (`Deployment::host`) for a node in its own process, which hands over a
//! new context's object whole or lets the node rebuild a restored one.
//! Such a node shares the gateway's control state; a node process holds a
//! remote [`Directory`]: its own class factories.
//!
//! **Every request a worker waits on is a round trip through the node's
//! table** (`crate::pending`): a remote call's `Call`, a migration's
//! `Host`, and in a node process (a remote [`Directory`]) every
//! control-plane op's `DirReq` to the gateway ([`NodeShared::ask`]).  The
//! request carries a token the table opened, and `dispatch` hands the
//! answer — `CallReply`, `HostAck`, `DirAck` — back under it in one arm.
//! Stopping the node closes the table: every such wait reads
//! `RuntimeShutdown` at once, so no worker sits out a time-out while the
//! pool is joined, and no round trip opens after.
//!
//! **A migration is an exclusive event on the context** (the interpreter's
//! reserved `@migrate`): sequenced at its dominator and holding the
//! context's lock like any writer, its worker ships the state in a `Host`
//! to the destination and waits for the `HostAck` (`NodeHost::migrate`).
//! Then it moves the placement, leaves a forwarding pointer and removes the
//! slot, and [`ContextLock::mark_moved`] tells every waiter still queued on
//! it that the context moved: a nested activation looks the context up
//! again and reaches it with a remote call, and every unit of work whose
//! grant waited there — an `Act`, an `Exec`, a certified read, a `Call` —
//! is sent whole after the context, in its queue order.  Nothing waiting
//! fails, and nothing is buffered.
//!
//! A node is owned by whoever spawned it: its handler holds the only
//! long-lived `Arc` besides the spawner's, so the node is gone once it is
//! deregistered from the network and the spawner's handle dropped; there is
//! nothing to join but the pool, which [`NodeShared::crash`] does.
//!
//! What an event may do while it executes is not decided here: `Exec` and
//! `Call` handlers run the shared interpreter (`aeon_runtime::EventBody`)
//! over [`NodeHost`], which only answers where a context lives, takes its
//! activation through the core, carries a call to another server and back,
//! and moves a context.  A snapshot or a restore is such an event too: its
//! root's server calls every member on the others, and `Release` fan-out
//! ends it like any event, so a node has no message of its own for either.

use crate::directory::{serve_dir_op, Directory};
use crate::message::{gateway_id, ClusterMessage, DirOp, DirReply, EventDescriptor, NodeMetrics};
use crate::pending::{unexpected, Pending};
use aeon_net::Network;
use aeon_runtime::reply::{reply, Replier};
use aeon_runtime::{
    ContextHost, ContextLock, ContextObject, ContextSlot, Entered, EventBody, EventMeta,
    ExecutorConfig, ExecutorStats, Footprint, HostedObject, ServerCore, ShardedExecutor, SubEvent,
};
use aeon_types::{AeonError, Args, ContextId, Result, ServerId, Value};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a node waits for the reply to a remote synchronous call before
/// aborting the event, and for a migration's `HostAck`.
const CALL_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a node process waits for the authority's answer to a [`DirOp`].
const DIR_RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// A node: the state its message handler and its worker threads share.
pub(crate) struct NodeShared {
    pub(crate) id: ServerId,
    /// The node's worker pool: every potentially blocking message is
    /// executed here, sharded by the context it concerns.
    executor: ShardedExecutor,
    /// Its class factories and history sink, and how it asks the plane.
    directory: Directory,
    network: Network<ClusterMessage>,
    /// The contexts installed here, the virtual root's lock and the locks
    /// each event holds here (released on `Release`).
    core: Arc<ServerCore>,
    /// The requests this node's workers wait on: remote calls, migrations'
    /// `Host`s and (in a node process) control-plane ops.
    pending: Pending,
    /// Contexts migrated away: requests are forwarded to the new host
    /// (the paper's stale-context-map forwarding, §5.2).
    forwarding: RwLock<HashMap<ContextId, ServerId>>,
    /// Execution times of the events whose target lives here: their count,
    /// total and distribution are the node's whole latency record.
    exec_latency: Mutex<aeon_types::LatencyHistogram>,
    running: AtomicBool,
    /// Set, and announced, when the node stops; `wait_stopped` blocks on it.
    halted: (Mutex<bool>, Condvar),
}

impl std::fmt::Debug for NodeShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeShared")
            .field("id", &self.id)
            .field("contexts", &self.core.hosted())
            .finish_non_exhaustive()
    }
}

impl NodeShared {
    /// Number of events whose target executed on this node.
    pub(crate) fn events_executed(&self) -> u64 {
        self.exec_latency.lock().count
    }

    /// Number of contexts currently installed on this node.
    pub(crate) fn hosted_contexts(&self) -> usize {
        self.core.hosted()
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
    /// pool worker parked: every unit of work waiting for a grant here is
    /// answered, and every round trip reads `RuntimeShutdown` instead of
    /// sitting out its time-out.
    fn stop(&self) {
        self.running.store(false, Ordering::SeqCst);
        self.core.poison();
        self.pending.close();
        *self.halted.0.lock() = true;
        self.halted.1.notify_all();
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
        // is the behaviour we want under fault injection.  (A round trip
        // sends its request itself and fails at once instead.)
        let _ = self.network.send_from(self.id, to, message);
    }

    /// Hosts `context` here with the object `object` hands over — a new
    /// context's, or one rebuilt from its state.  A stopped node hosts
    /// nothing and reads as gone, like a send to it.
    pub(crate) fn host(
        &self,
        context: ContextId,
        object: impl FnOnce() -> Result<Box<dyn ContextObject>>,
    ) -> Result<()> {
        if !self.running.load(Ordering::SeqCst) {
            return Err(AeonError::ServerNotFound(self.id));
        }
        self.core.install(context, object()?);
        // A context coming back: the pointer left when it moved away is
        // stale, and following it would bounce requests between this node
        // and the last host.
        self.forwarding.write().remove(&context);
        Ok(())
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
        let slot = || self.core.slot(context).map(Ok);
        slot()
            .or_else(|| self.forwarded(context).map(Err))
            .or_else(slot)
    }

    /// Answers `op` from the control plane, unpacked into what the op asks
    /// for: at once when this node shares the gateway's process, else with
    /// a round trip to the gateway, which answers it there.
    fn ask<T: TryFrom<DirReply, Error = AeonError>>(&self, op: DirOp) -> Result<T> {
        if let Directory::Shared(control) = &self.directory {
            return serve_dir_op(control, op).and_then(T::try_from);
        }
        let request = |corr| ClusterMessage::DirReq {
            corr,
            from: self.id,
            op,
        };
        let answer = self.pending.round_trip(
            gateway_id(),
            request,
            Some(&self.executor),
            DIR_RPC_TIMEOUT,
            || AeonError::internal("directory rpc to the authority timed out"),
        )?;
        match answer {
            ClusterMessage::DirAck { reply, .. } => reply.and_then(T::try_from),
            other => Err(unexpected(&other)),
        }
    }
}

/// Spawns a node: starts its worker pool and serves its id on the network
/// with [`dispatch`].  The handler owns the node; deregistering the id is
/// what lets go of it.
pub(crate) fn spawn_node(
    id: ServerId,
    directory: Directory,
    network: &Network<ClusterMessage>,
    executor: ExecutorConfig,
) -> Arc<NodeShared> {
    let shared = Arc::new(NodeShared {
        id,
        executor: ShardedExecutor::new(format!("aeon-node-{id}-pool"), executor),
        directory,
        network: network.clone(),
        core: Arc::default(),
        pending: Pending::new(id, network.clone()),
        forwarding: RwLock::new(HashMap::new()),
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
    match message {
        ClusterMessage::Host {
            corr,
            context,
            class,
            state,
            reply_to,
        } => {
            let factories = shared.directory.factories();
            let result = shared.host(context, || factories.rebuild(&class, &state));
            shared.send(
                reply_to,
                ClusterMessage::HostAck {
                    corr,
                    context,
                    result,
                },
            );
        }
        answer @ (ClusterMessage::HostAck { .. }
        | ClusterMessage::CallReply { .. }
        | ClusterMessage::MetricsAck { .. }
        | ClusterMessage::DirAck { .. }) => shared.pending.complete(answer),
        work @ (ClusterMessage::Act { .. }
        | ClusterMessage::Exec { .. }
        | ClusterMessage::ExecCertified { .. }
        | ClusterMessage::Call { .. }) => {
            offload(shared, work, false);
        }
        ClusterMessage::Release { event } => shared.core.release(event),
        ClusterMessage::MetricsReq { corr } => {
            // Answered inline: the report only reads counters, it cannot
            // block, so it never competes with event execution for the pool.
            // Built before the send, so that no guard it reads under is
            // held across it.
            let metrics = Box::new(NodeMetrics {
                server: shared.id,
                context_count: shared.core.hosted(),
                queue_depth: shared.executor.stats().queued,
                latency: *shared.exec_latency.lock(),
            });
            shared.send(gateway_id(), ClusterMessage::MetricsAck { corr, metrics });
        }
        ClusterMessage::Shutdown => shared.stop(),
        // Gateway-only messages are ignored by nodes.
        ClusterMessage::DirReq { .. } | ClusterMessage::Done { .. } => {}
    }
}

/// Takes the first lock of the unit of work `work` brings
/// ([`ServerCore::start`]) and returns the work when it holds that lock
/// now.  Held, the work waits in the lock's queue as a grant, which runs on
/// the thread that releases the lock — inside `dispatch`, maybe — and only
/// hands on or sends: granted, the work goes to the blocking `caller` that
/// waits for it, or (there is none, or it gave up) back to the pool; told
/// that its context moved or is not here, it goes after it; refused, its
/// event is answered.
fn start(
    shared: &Arc<NodeShared>,
    work: ClusterMessage,
    caller: Option<Replier<ClusterMessage>>,
) -> Option<ClusterMessage> {
    let (event, mode, lock) = work.first_lock()?;
    let node = Arc::clone(shared);
    shared.core.start(
        event,
        mode,
        lock,
        work,
        move |work, granted| match granted {
            Ok(()) => {
                let unclaimed = match caller {
                    Some(caller) => caller.send(work).err(),
                    None => Some(work),
                };
                if let Some(work) = unclaimed {
                    offload(&node, work, true);
                }
            }
            Err(AeonError::MigrationInProgress(_) | AeonError::ContextNotFound(_)) => {
                look_again(&node, work, lock)
            }
            Err(error) => answer(&node, work, BTreeSet::new(), Err(error), Vec::new()),
        },
    )
}

/// Serves the unit of work a blocking caller brings on the caller's own
/// thread, exactly as a worker would: `start` takes its first lock — a held
/// one is waited for in the lock's queue, until `deadline` — and then the
/// work runs and is answered here, so that the event's `Done` is on its
/// way to the gateway when this returns.  Whatever the grant does not hand
/// over, it answers or sends on itself, as it does for pool work; and work
/// granted after the deadline goes to the pool.  A caller holds nothing,
/// so it may wait; a handler never calls this.
///
/// # Errors
///
/// [`AeonError::ServerNotFound`] for a stopped node, as a send to it is;
/// the work is not taken up then.
pub(crate) fn serve(
    shared: &Arc<NodeShared>,
    work: ClusterMessage,
    deadline: Instant,
) -> Result<()> {
    if !shared.running.load(Ordering::SeqCst) {
        return Err(AeonError::ServerNotFound(shared.id));
    }
    let (tx, rx) = reply();
    let held = match start(shared, work, Some(tx)) {
        Some(work) => Ok(work),
        None => {
            let wait = || rx.wait_timeout(deadline.saturating_duration_since(Instant::now()));
            shared.executor.block_in_place(wait)
        }
    };
    if let Ok(work) = held {
        run(shared, work);
    }
    Ok(())
}

/// Hands work to the worker pool, keyed by its first lock's context so
/// that same-context work keeps FIFO dequeue affinity (and batches).  The
/// worker takes that lock and runs the work in place when it is free.
/// Work that `holds` it already — a grant's — is the rest of the task that
/// took it up, resumed at the front of its queue.
fn offload(shared: &Arc<NodeShared>, work: ClusterMessage, holds: bool) {
    let key = work.first_lock().map_or(0, |(_, _, context)| context.raw());
    let worker = Arc::clone(shared);
    if holds {
        return shared.executor.resume(key, move || run(&worker, work));
    }
    shared.executor.submit(key, move || {
        if let Some(work) = start(&worker, work, None) {
            run(&worker, work);
        }
    });
}

/// Runs work that holds its first lock, on a pool worker: an `Act`
/// continues at its target; an `Exec`, a certified read or a `Call` runs
/// its method here, over [`NodeHost`], and is answered.
fn run(shared: &Arc<NodeShared>, work: ClusterMessage) {
    let work = match work {
        ClusterMessage::Act { event, sequencer } => return sequenced(shared, event, sequencer),
        work => work,
    };
    let started = std::time::Instant::now();
    let mut host = NodeHost::new(shared);
    let outcome = match &work {
        ClusterMessage::Exec { event, .. } | ClusterMessage::ExecCertified { event } => {
            // A certified read arrives without a sequencer and must not
            // leave its target.
            let footprint = match work {
                ClusterMessage::Exec { .. } => Footprint::Sequenced,
                _ => Footprint::Certified,
            };
            let meta = EventMeta {
                id: event.id,
                client: event.client,
                mode: event.mode,
            };
            let body = EventBody::new(&mut host, meta, footprint);
            body.run(None, event.target, &event.method, &event.args)
        }
        ClusterMessage::Call {
            event,
            mode,
            client,
            caller,
            target,
            method,
            args,
            ..
        } => {
            let meta = EventMeta {
                id: *event,
                client: *client,
                mode: *mode,
            };
            // A caller equal to the target marks a top-level invocation
            // that was forwarded after a migration; there is no ownership
            // edge to check.
            let caller = (caller != target).then_some(*caller);
            let body = EventBody::new(&mut host, meta, Footprint::Sequenced);
            body.run(caller, *target, method, args)
        }
        _ => return,
    };
    if !matches!(work, ClusterMessage::Call { .. }) {
        // Rounded up: an event that ran took at least a microsecond.
        let elapsed_micros = started.elapsed().as_nanos().div_ceil(1_000).max(1) as u64;
        shared.exec_latency.lock().record(elapsed_micros);
    }
    let participants = host.participants;
    answer(
        shared,
        work,
        participants,
        outcome.result,
        outcome.sub_events,
    );
}

/// Sends `work` after `context`, its first lock's, which is not here: it is
/// delivered again when the context came back, sent on to the server a
/// forwarding pointer names, and refused when this node knows of neither.
fn look_again(shared: &Arc<NodeShared>, work: ClusterMessage, context: ContextId) {
    match shared.whereabouts(context) {
        Some(Ok(_)) => offload(shared, work, false),
        Some(Err(next)) => shared.send(next, work),
        None => answer(
            shared,
            work,
            BTreeSet::new(),
            Err(AeonError::ContextNotFound(context)),
            Vec::new(),
        ),
    }
}

/// Answers the unit of work `work` brought.  A `Call` replies to its caller
/// with the servers holding locks for the event because of it, this one
/// included.  Any other releases the event everywhere it holds locks — on
/// the servers its calls reached, here, then at the sequencer it was sent
/// with, the reverse of acquisition across the cluster — and reports
/// `Done` to the gateway.
fn answer(
    shared: &NodeShared,
    work: ClusterMessage,
    mut participants: BTreeSet<ServerId>,
    result: Result<Value>,
    sub_events: Vec<SubEvent>,
) {
    let (event, sequencer) = match work {
        ClusterMessage::Call { corr, reply_to, .. } => {
            participants.insert(shared.id);
            let participants = participants.into_iter().collect();
            let reply = ClusterMessage::CallReply {
                corr,
                result,
                participants,
                sub_events,
            };
            return shared.send(reply_to, reply);
        }
        ClusterMessage::Exec { event, sequencer } => (event, sequencer),
        ClusterMessage::Act { event, .. } | ClusterMessage::ExecCertified { event } => {
            (event, None)
        }
        _ => return,
    };
    for server in participants {
        if server != shared.id {
            shared.send(server, ClusterMessage::Release { event: event.id });
        }
    }
    shared.core.release(event.id);
    if let Some((seq_server, _)) = sequencer {
        if seq_server != shared.id {
            shared.send(seq_server, ClusterMessage::Release { event: event.id });
        }
    }
    let done = ClusterMessage::Done {
        corr: event.corr,
        event: event.id,
        result,
        sub_events,
    };
    shared.send(gateway_id(), done);
}

/// The rest of `ACT` once the event holds its sequencer: it executes
/// (`EXEC`) on this thread when the target is installed here, else at the
/// target's server.
fn sequenced(shared: &Arc<NodeShared>, event: EventDescriptor, sequencer: ContextId) {
    let held = Some((shared.id, sequencer));
    let target = event.target;
    if shared.core.slot(target).is_some() {
        return run(
            shared,
            ClusterMessage::Exec {
                event,
                sequencer: held,
            },
        );
    }
    let server = match shared.forwarded(target) {
        Some(server) => Ok(server),
        None => shared.ask(DirOp::PlacementOf(target)),
    };
    let exec = ClusterMessage::Exec {
        event,
        sequencer: held,
    };
    match server {
        Ok(server) => shared.send(server, exec),
        Err(error) => answer(shared, exec, BTreeSet::new(), Err(error), Vec::new()),
    }
}

/// The cluster node's host of the event interpreter: a context installed
/// here is entered through the node's [`ServerCore`], which records the
/// hold (released by `Release` fan-out); any other travels to the hosting
/// server as a [`ClusterMessage::Call`].
struct NodeHost<'a> {
    node: &'a NodeShared,
    /// Servers (other than this one) holding locks for the event because of
    /// calls issued here.
    participants: BTreeSet<ServerId>,
    /// Contexts on other servers that calls issued here entered.
    entered_remote: Vec<ContextId>,
}

impl<'a> NodeHost<'a> {
    fn new(node: &'a NodeShared) -> Self {
        Self {
            node,
            participants: BTreeSet::new(),
            entered_remote: Vec::new(),
        }
    }
}

impl ContextHost for NodeHost<'_> {
    fn path_owners(&self, caller: ContextId, target: ContextId) -> Result<Vec<ContextId>> {
        self.node.ask(DirOp::PathOwners(caller, target))
    }

    /// A contended activation waits inside `block_in_place`: its holder
    /// may be work whose grant offloaded it, still queued on this pool.
    fn enter(&mut self, event: &EventMeta, target: ContextId) -> Result<Entered> {
        let node = self.node;
        let wait = |lock: &ContextLock| {
            node.executor
                .block_in_place(|| lock.activate(event.id, event.mode))
        };
        loop {
            let server = match node.core.enter(event.id, event.mode, target, wait) {
                Ok(Some(hosted)) => return Ok(Entered::Local(hosted)),
                // It moved while this event waited for it (its slot is
                // gone by now): look it up again.
                Err(AeonError::MigrationInProgress(moved)) if moved == target => continue,
                Err(error) => return Err(error),
                Ok(None) => match node.whereabouts(target) {
                    // It came back a moment ago.
                    Some(Ok(_)) => continue,
                    Some(Err(server)) => server,
                    None => node.ask(DirOp::PlacementOf(target))?,
                },
            };
            if server != node.id {
                return Ok(Entered::Remote(server));
            }
            // Placed here, yet not found a moment ago: a context is
            // installed before it is placed, so it has just come back —
            // unless nothing installed it (a call to this node would come
            // straight back).
            if node.core.slot(target).is_none() {
                return Err(AeonError::ContextNotFound(target));
            }
        }
    }

    fn holds(&self, event: &EventMeta, context: ContextId) -> bool {
        self.node.core.holds(event.id, context) || self.entered_remote.contains(&context)
    }

    fn lock_object<'o>(
        &self,
        hosted: &'o dyn HostedObject,
    ) -> MutexGuard<'o, Box<dyn ContextObject>> {
        self.node.executor.lock(hosted.object())
    }

    fn remote_call(
        &mut self,
        event: &EventMeta,
        server: ServerId,
        caller: Option<ContextId>,
        target: ContextId,
        method: &str,
        args: &Args,
    ) -> Result<(Value, Vec<SubEvent>)> {
        let node = self.node;
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
        let answer =
            node.pending
                .round_trip(server, call, Some(&node.executor), CALL_TIMEOUT, || {
                    AeonError::EventAborted {
                        event: event.id,
                        reason: format!("remote call to context {target} on {server} timed out"),
                    }
                })?;
        let ClusterMessage::CallReply {
            result,
            participants,
            sub_events,
            ..
        } = answer
        else {
            return Err(unexpected(&answer));
        };
        // Locks taken while serving the call are held whatever it returned.
        self.participants.extend(participants);
        if result.is_ok() {
            self.entered_remote.push(target);
        }
        result.map(|value| (value, sub_events))
    }

    fn record_access(&self, event: &EventMeta, context: ContextId) {
        if let Some(sink) = self.node.directory.sink() {
            sink.accessed(event.id, context, event.mode);
        }
    }

    fn create_child(
        &mut self,
        owner: ContextId,
        object: Box<dyn ContextObject>,
    ) -> Result<ContextId> {
        let class = object.class_name().to_string();
        // Control-plane half (class validation, id allocation, context and
        // edge declaration) runs at the gateway's control state — one round
        // trip when this node is a separate OS process.
        let id = self.node.ask(DirOp::CreateOwned { owner, class })?;
        // Locality: the child is hosted next to the (local) context that
        // created it, exactly like the in-process runtime.  The plane
        // placed it with its owner; say where it actually landed, which
        // differs while the owner is mid-migration.
        self.node.core.install(id, object);
        self.node.ask::<()>(DirOp::SetPlacement(id, self.node.id))?;
        Ok(id)
    }

    fn add_ownership(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.node.ask(DirOp::AddEdge(owner, owned))
    }

    fn remove_ownership(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.node.ask(DirOp::RemoveEdge(owner, owned))
    }

    fn children(&self, parent: ContextId, class: Option<&str>) -> Result<Vec<ContextId>> {
        let class = class.map(str::to_string);
        self.node.ask(DirOp::ChildrenOf { parent, class })
    }

    fn subtree(&self, root: ContextId) -> Result<Vec<ContextId>> {
        self.node.ask(DirOp::Subtree(root))
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
        if node.directory.factories().get(&class).is_none() {
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
            reply_to: node.id,
        };
        let answer =
            node.pending
                .round_trip(to, host, Some(&node.executor), CALL_TIMEOUT, || {
                    AeonError::MigrationFailed {
                        context: target,
                        reason: format!("server {to} did not acknowledge the context's state"),
                    }
                })?;
        let ClusterMessage::HostAck { result, .. } = answer else {
            return Err(unexpected(&answer));
        };
        result?;
        node.ask::<()>(DirOp::SetPlacement(target, to))?;
        node.forwarding.write().insert(target, to);
        if let Some(slot) = node.core.remove(target) {
            slot.lock.mark_moved();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::virtual_root;
    use aeon_net::Endpoint;
    use aeon_runtime::KvContext;
    use aeon_types::{args, AccessMode, EventId};

    /// The node of a node process — a remote directory, a pool of one
    /// worker — on a channel network, and the gateway's mailbox, from which
    /// no `DirReq` is ever answered.
    fn node_with_a_silent_authority() -> (Arc<NodeShared>, Endpoint<ClusterMessage>) {
        let network = Network::new();
        let gateway = network.register(gateway_id());
        let pool = ExecutorConfig { workers: 1 };
        let directory = Directory::Remote(Default::default());
        let node = spawn_node(ServerId::new(0), directory, &network, pool);
        (node, gateway)
    }

    fn event(id: u64, target: ContextId, method: &str, args: Args) -> EventDescriptor {
        EventDescriptor {
            id: EventId::new(id),
            client: None,
            corr: id,
            target,
            method: method.into(),
            args,
            mode: AccessMode::Exclusive,
        }
    }

    /// Sends the node an event sequenced at the virtual root whose target
    /// it does not host: the worker that holds the root asks the authority
    /// where the target is, and that `DirReq` reaches the gateway.
    fn ask_where_an_unhosted_target_is(node: &NodeShared, gateway: &Endpoint<ClusterMessage>) {
        let act = ClusterMessage::Act {
            event: event(1, ContextId::new(500), "get", args!["k"]),
            sequencer: virtual_root(),
        };
        gateway.send(node.id, act).unwrap();
        match next(gateway) {
            ClusterMessage::DirReq {
                op: DirOp::PlacementOf(_),
                ..
            } => {}
            other => panic!("expected the placement query, got {other:?}"),
        }
    }

    fn next(gateway: &Endpoint<ClusterMessage>) -> ClusterMessage {
        gateway
            .recv_timeout(Duration::from_secs(5))
            .unwrap()
            .expect("the node sent nothing for 5 s")
    }

    fn stop(node: &NodeShared, gateway: &Endpoint<ClusterMessage>) -> Duration {
        let _ = gateway.send(node.id, ClusterMessage::Shutdown);
        let joined = Instant::now();
        node.crash();
        let took = joined.elapsed();
        gateway.network().deregister(node.id);
        took
    }

    /// Regression test: a node process's directory RPC was not in the
    /// node's table, so a node stopped in its middle left the worker
    /// waiting out the RPC's 10 s time-out, and its pool join with it.
    #[test]
    fn a_node_that_stops_answers_a_directory_rpc_in_flight_at_once() {
        let (node, gateway) = node_with_a_silent_authority();
        ask_where_an_unhosted_target_is(&node, &gateway);
        gateway.send(node.id, ClusterMessage::Shutdown).unwrap();
        match next(&gateway) {
            ClusterMessage::Done { event, result, .. } => {
                assert_eq!(event, EventId::new(1));
                assert_eq!(result, Err(AeonError::RuntimeShutdown));
            }
            other => panic!("expected the event's Done, got {other:?}"),
        }
        let took = stop(&node, &gateway);
        assert!(took < Duration::from_secs(1), "the pool join took {took:?}");
    }

    /// Regression test: a node process's worker waited for a `DirAck`
    /// without announcing it, so a pool of one ran nothing else until the
    /// authority answered or the RPC timed out.
    #[test]
    fn a_directory_rpc_in_flight_leaves_the_pool_to_other_work() {
        let (node, gateway) = node_with_a_silent_authority();
        let room = ContextId::new(7);
        node.host(room, || Ok(Box::new(KvContext::new("Room"))))
            .unwrap();
        ask_where_an_unhosted_target_is(&node, &gateway);
        let exec = ClusterMessage::Exec {
            event: event(2, room, "set", args!["k", 1i64]),
            sequencer: None,
        };
        gateway.send(node.id, exec).unwrap();
        match next(&gateway) {
            ClusterMessage::Done { event, result, .. } => {
                assert_eq!(event, EventId::new(2));
                assert!(result.is_ok(), "{result:?}");
            }
            other => panic!("expected the Exec's Done, got {other:?}"),
        }
        stop(&node, &gateway);
    }
}
