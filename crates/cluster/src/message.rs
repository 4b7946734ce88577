//! Wire messages exchanged between the gateway and the server nodes.
//!
//! The cluster runs on the pluggable transport substrate of `aeon-net`;
//! every protocol step of §4 (sequencing at the dominator, execution at the
//! target, remote method calls, lock release) and §5 (the five-step
//! migration protocol) is a message here, so the distributed deployment
//! exercises the same message flow as the paper's prototype.  Every variant
//! has a byte representation (see `crate::wire`), so the same protocol runs
//! unchanged over in-process channels and over TCP between real OS
//! processes.

use aeon_runtime::SubEvent;
use aeon_types::{AccessMode, Args, ClientId, ContextId, EventId, Result, ServerId, Value};
use std::fmt;

/// The server id used by the cluster gateway (client entry point).
pub fn gateway_id() -> ServerId {
    ServerId::new(u32::MAX)
}

/// Sentinel context id standing for the *virtual root* sequencer used when a
/// target has no concrete dominator ([`aeon_ownership::Dominator::GlobalRoot`]).
pub fn virtual_root() -> ContextId {
    ContextId::new(u64::MAX)
}

/// Everything a server needs to execute one event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventDescriptor {
    /// Unique event id.
    pub id: EventId,
    /// Client that issued the event, if any.
    pub client: Option<ClientId>,
    /// Gateway correlation token for the final [`ClusterMessage::Done`].
    pub corr: u64,
    /// Target context.
    pub target: ContextId,
    /// Method to invoke on the target.
    pub method: String,
    /// Arguments.
    pub args: Args,
    /// Exclusive or read-only.
    pub mode: AccessMode,
}

/// A server node's raw load report, shipped in a
/// [`ClusterMessage::MetricsAck`].  The gateway normalises it into the
/// backend-agnostic `aeon_types::ServerMetrics`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeMetrics {
    /// The reporting node.
    pub server: ServerId,
    /// Contexts currently installed on the node (actual state, not the
    /// mapping).
    pub context_count: usize,
    /// Tasks queued on the node's worker pool.
    pub queue_depth: u64,
    /// Events whose target executed on this node.
    pub events_executed: u64,
    /// Cumulative wall-clock microseconds spent executing those events.
    pub exec_micros: u64,
    /// Distribution of per-event execution times on this node.
    pub latency: aeon_types::LatencyHistogram,
}

/// One member of a coordinated subtree freeze
/// ([`ClusterMessage::FreezeReq`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FreezeMember {
    /// The context (or [`virtual_root`]) to freeze.
    pub context: ContextId,
    /// When set, state to install through `ContextObject::restore` once the
    /// member is frozen (the coordinated restore path).
    pub restore: Option<Value>,
}

impl FreezeMember {
    /// A member that is only frozen (and possibly captured).
    pub fn freeze(context: ContextId) -> Self {
        Self {
            context,
            restore: None,
        }
    }

    /// A member whose state is replaced once frozen.
    pub fn restore(context: ContextId, state: Value) -> Self {
        Self {
            context,
            restore: Some(state),
        }
    }
}

/// A control-plane (directory) operation a node asks the gateway to
/// perform on its behalf, shipped in a [`ClusterMessage::DirReq`].
///
/// When gateway and node share one process the node's `Directory` handle
/// answers these directly; across processes they become a synchronous RPC
/// to the authority — the paper's "query the eManager / read the mapping
/// from cloud storage" (§5.1).
#[derive(Debug, Clone, PartialEq)]
pub enum DirOp {
    /// Which server hosts this context?
    PlacementOf(ContextId),
    /// Record (or update) a context's placement.
    SetPlacement(ContextId, ServerId),
    /// May `caller` (transitively) call `callee`?
    MayCall(ContextId, ContextId),
    /// The contextclass of a context.
    ClassOf(ContextId),
    /// Direct children of `parent`, optionally filtered by class.
    ChildrenOf {
        /// The parent context.
        parent: ContextId,
        /// Optional class filter.
        class: Option<String>,
    },
    /// Add an ownership edge (class constraints are checked at the
    /// authority).
    AddEdge(ContextId, ContextId),
    /// Remove an ownership edge.
    RemoveEdge(ContextId, ContextId),
    /// Atomically validate class constraints, allocate an id, declare the
    /// context, and add the `owner → child` edge (the control-plane half
    /// of `create_child`; the caller installs state and placement after).
    CreateOwned {
        /// The owning context.
        owner: ContextId,
        /// Class of the new child.
        class: String,
    },
}

/// The payload of a successful [`ClusterMessage::DirAck`].
#[derive(Debug, Clone, PartialEq)]
pub enum DirReply {
    /// Nothing to report.
    Unit,
    /// A boolean answer ([`DirOp::MayCall`]).
    Flag(bool),
    /// A server id ([`DirOp::PlacementOf`]).
    Server(ServerId),
    /// A context id ([`DirOp::CreateOwned`]).
    Context(ContextId),
    /// A list of context ids ([`DirOp::ChildrenOf`]).
    Contexts(Vec<ContextId>),
    /// A class name ([`DirOp::ClassOf`]).
    Class(String),
}

/// A message of the cluster protocol.
#[derive(PartialEq)]
pub enum ClusterMessage {
    /// Gateway → server: host a newly created context.
    Host {
        /// Correlation token echoed in [`ClusterMessage::HostAck`].
        corr: u64,
        /// Id of the new context.
        context: ContextId,
        /// Contextclass name.
        class: String,
        /// Snapshot of the object's initial state; a node in another
        /// process rebuilds the object from it with the class factory.
        state: Value,
        /// Escrow token: when gateway and node share a process, the
        /// original object is parked in the directory's escrow under this
        /// token and moved (not rebuilt), preserving the zero-serialisation
        /// channel semantics — and letting factory-less tests keep working.
        escrow: u64,
    },
    /// Server → gateway: the context is installed (or hosting failed, e.g.
    /// no factory is registered for the class on that node's process).
    HostAck {
        /// Correlation token.
        corr: u64,
        /// The hosted context.
        context: ContextId,
        /// Success, or why the node could not host the context.
        result: Result<()>,
    },
    /// Node → gateway: perform a control-plane operation (placement
    /// lookup, ownership edit, child creation) at the directory authority.
    DirReq {
        /// Correlation token echoed in [`ClusterMessage::DirAck`].
        corr: u64,
        /// The requesting node (where the ack is sent).
        from: ServerId,
        /// The operation.
        op: DirOp,
    },
    /// Gateway → node: the outcome of a [`ClusterMessage::DirReq`].
    DirAck {
        /// Correlation token.
        corr: u64,
        /// The operation's reply, or its error.
        reply: Result<DirReply>,
    },
    /// Gateway → dominator server: sequence the event at `sequencer` before
    /// execution (Algorithm 2's `ACT`).
    Act {
        /// The event to sequence.
        event: EventDescriptor,
        /// The dominator context (or [`virtual_root`]).
        sequencer: ContextId,
    },
    /// Sequencer (or gateway) → target server: execute the event
    /// (Algorithm 2's `EXEC`).
    Exec {
        /// The event to execute.
        event: EventDescriptor,
        /// Where the sequencer lock is held, if a separate one was taken.
        sequencer: Option<(ServerId, ContextId)>,
    },
    /// Gateway → target server: execute a read the gateway admitted on the
    /// analyzer's certificate (`ro`, empty `calls []`) without sequencing
    /// it.  A distinct message, not an [`ClusterMessage::Exec`] flag: the
    /// node has no class graph of its own, so the admission must travel
    /// with the event for the node to hold it to its single-context
    /// footprint.
    ExecCertified {
        /// The event to execute.
        event: EventDescriptor,
    },
    /// Server → server: synchronous method call on a remotely hosted
    /// context, performed on behalf of a running event.
    Call {
        /// The running event.
        event: EventId,
        /// Access mode of the running event.
        mode: AccessMode,
        /// Client that issued the event, if any.
        client: Option<ClientId>,
        /// Calling context.
        caller: ContextId,
        /// Callee context (hosted by the receiving server).
        target: ContextId,
        /// Method name.
        method: String,
        /// Arguments.
        args: Args,
        /// Where to send the [`ClusterMessage::CallReply`].
        reply_to: ServerId,
        /// Correlation token.
        corr: u64,
    },
    /// Reply to a [`ClusterMessage::Call`].
    CallReply {
        /// Correlation token of the call.
        corr: u64,
        /// Result of the callee method.
        result: Result<Value>,
        /// Servers that acquired locks for the event while serving the call
        /// (the callee's server plus any server it called in turn).
        participants: Vec<ServerId>,
        /// Sub-events dispatched while serving the call.
        sub_events: Vec<SubEvent>,
    },
    /// Target server → every participant: the event terminated, release all
    /// locks held for it.
    Release {
        /// The terminated event.
        event: EventId,
    },
    /// Target server → gateway: the event finished.
    Done {
        /// Correlation token from the [`EventDescriptor`].
        corr: u64,
        /// The event.
        event: EventId,
        /// Its result.
        result: Result<Value>,
        /// Sub-events to submit now that the creator terminated.
        sub_events: Vec<SubEvent>,
    },
    /// Migration step I: eManager/gateway → destination server.
    Prepare {
        /// Correlation token.
        corr: u64,
        /// Context about to arrive.
        context: ContextId,
    },
    /// Destination server → gateway: ready to buffer requests for `context`.
    PrepareAck {
        /// Correlation token.
        corr: u64,
        /// The context.
        context: ContextId,
    },
    /// Migration step II: gateway → source server: stop accepting events for
    /// `context`.
    Stop {
        /// Correlation token.
        corr: u64,
        /// The migrating context.
        context: ContextId,
        /// Destination (used to forward late events).
        to: ServerId,
    },
    /// Source server → gateway: no new events will be accepted.
    StopAck {
        /// Correlation token.
        corr: u64,
        /// The context.
        context: ContextId,
    },
    /// Migration steps III/IV: gateway → source server: serialise and ship
    /// the context.
    Migrate {
        /// Correlation token.
        corr: u64,
        /// The migrating context.
        context: ContextId,
        /// Destination server.
        to: ServerId,
    },
    /// Source server → destination server: the serialised context state.
    Install {
        /// Correlation token.
        corr: u64,
        /// The migrating context.
        context: ContextId,
        /// Contextclass name (selects the factory).
        class: String,
        /// Serialised state (the context's snapshot).
        state: Value,
        /// The source server.
        from: ServerId,
    },
    /// Migration step V: destination server → gateway: migration finished.
    InstallAck {
        /// Correlation token.
        corr: u64,
        /// The migrated context.
        context: ContextId,
        /// Number of bytes of serialised state moved, or the failure.
        result: Result<u64>,
    },
    /// Gateway → server: exclusively activate `freeze` on each member in
    /// order, optionally capturing or replacing its state, and keep every
    /// lock held until the matching [`ClusterMessage::ThawReq`].  The
    /// coordinated-freeze leg of the distributed snapshot/restore protocol;
    /// member order follows the ownership DAG (owners before owned).
    FreezeReq {
        /// Correlation token echoed in [`ClusterMessage::FreezeAck`].
        corr: u64,
        /// The freeze event holding the member locks.
        freeze: EventId,
        /// Members to freeze, in acquisition order.  [`virtual_root`]
        /// freezes the node's virtual-root sequencer lock.
        members: Vec<FreezeMember>,
        /// Capture each member's state into the acknowledgement.
        capture: bool,
    },
    /// Server → gateway: every member of the [`ClusterMessage::FreezeReq`]
    /// is frozen (locks held) and, when requested, captured.
    FreezeAck {
        /// Correlation token.
        corr: u64,
        /// Captured `(context, class, state)` triples in request order
        /// (empty without capture), or the failure.  On failure the node
        /// has already released its own holds.
        result: Result<Vec<(ContextId, String, Value)>>,
    },
    /// Gateway → server: release every lock held by `freeze` (normal end of
    /// a coordinated snapshot/restore, or cleanup after a partial failure).
    ThawReq {
        /// The freeze event to release.
        freeze: EventId,
    },
    /// Gateway → server: report your current load (context count, queue
    /// depth, event counters) for the elasticity control plane.
    MetricsReq {
        /// Correlation token echoed in [`ClusterMessage::MetricsAck`].
        corr: u64,
    },
    /// Server → gateway: the node's load report.
    MetricsAck {
        /// Correlation token.
        corr: u64,
        /// The raw report (boxed: the variant is far larger than the
        /// hot-path event messages, and the report is a rare control
        /// message).
        metrics: Box<NodeMetrics>,
    },
    /// Gateway → server: take no further message and poison every local lock.
    Shutdown,
}

// Every event in flight is held as one of these, so a field that grows them
// should be a deliberate choice.  Measured with a 16-byte `Value` and `Args`:
// 88 / 120 (the largest message is `CallReply`, whose `Result<Value>` is the
// 56 bytes of an `AeonError`).
const _: () = assert!(std::mem::size_of::<EventDescriptor>() <= 88);
const _: () = assert!(std::mem::size_of::<ClusterMessage>() <= 120);

impl ClusterMessage {
    /// The context whose hosting decides which node handles this message,
    /// for the messages a node forwards or buffers while that context
    /// migrates (`None` for an `Act` on the virtual root, which every node
    /// sequences locally).
    pub(crate) fn routed_context(&self) -> Option<ContextId> {
        match self {
            ClusterMessage::Act { sequencer, .. } => {
                (*sequencer != virtual_root()).then_some(*sequencer)
            }
            ClusterMessage::Exec { event, .. } | ClusterMessage::ExecCertified { event } => {
                Some(event.target)
            }
            ClusterMessage::Call { target, .. } => Some(*target),
            _ => None,
        }
    }
}

impl fmt::Debug for ClusterMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterMessage::Host { context, class, .. } => {
                write!(f, "Host({context}, {class})")
            }
            ClusterMessage::HostAck {
                context, result, ..
            } => {
                write!(f, "HostAck({context}, ok={})", result.is_ok())
            }
            ClusterMessage::DirReq { from, op, .. } => write!(f, "DirReq(from={from}, {op:?})"),
            ClusterMessage::DirAck { corr, reply } => {
                write!(f, "DirAck(corr={corr}, ok={})", reply.is_ok())
            }
            ClusterMessage::Act { event, sequencer } => {
                write!(f, "Act(event={}, sequencer={sequencer})", event.id)
            }
            ClusterMessage::Exec { event, .. } => {
                write!(f, "Exec(event={}, target={})", event.id, event.target)
            }
            ClusterMessage::ExecCertified { event } => {
                write!(
                    f,
                    "ExecCertified(event={}, target={})",
                    event.id, event.target
                )
            }
            ClusterMessage::Call {
                event,
                target,
                method,
                ..
            } => {
                write!(f, "Call(event={event}, target={target}, method={method})")
            }
            ClusterMessage::CallReply { corr, result, .. } => {
                write!(f, "CallReply(corr={corr}, ok={})", result.is_ok())
            }
            ClusterMessage::Release { event } => write!(f, "Release({event})"),
            ClusterMessage::Done { event, result, .. } => {
                write!(f, "Done(event={event}, ok={})", result.is_ok())
            }
            ClusterMessage::Prepare { context, .. } => write!(f, "Prepare({context})"),
            ClusterMessage::PrepareAck { context, .. } => write!(f, "PrepareAck({context})"),
            ClusterMessage::Stop { context, to, .. } => write!(f, "Stop({context} -> {to})"),
            ClusterMessage::StopAck { context, .. } => write!(f, "StopAck({context})"),
            ClusterMessage::Migrate { context, to, .. } => {
                write!(f, "Migrate({context} -> {to})")
            }
            ClusterMessage::Install { context, from, .. } => {
                write!(f, "Install({context} from {from})")
            }
            ClusterMessage::InstallAck {
                context, result, ..
            } => {
                write!(f, "InstallAck({context}, ok={})", result.is_ok())
            }
            ClusterMessage::MetricsReq { corr } => write!(f, "MetricsReq(corr={corr})"),
            ClusterMessage::MetricsAck { metrics, .. } => {
                write!(
                    f,
                    "MetricsAck({}, contexts={})",
                    metrics.server, metrics.context_count
                )
            }
            ClusterMessage::FreezeReq {
                freeze,
                members,
                capture,
                ..
            } => {
                write!(
                    f,
                    "FreezeReq(freeze={freeze}, members={}, capture={capture})",
                    members.len()
                )
            }
            ClusterMessage::FreezeAck { corr, result } => {
                write!(f, "FreezeAck(corr={corr}, ok={})", result.is_ok())
            }
            ClusterMessage::ThawReq { freeze } => write!(f, "ThawReq({freeze})"),
            ClusterMessage::Shutdown => write!(f, "Shutdown"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sentinels_do_not_collide_with_ordinary_ids() {
        assert_ne!(gateway_id(), ServerId::new(0));
        assert_ne!(virtual_root(), ContextId::new(0));
    }

    #[test]
    fn debug_formats_are_compact() {
        let msg = ClusterMessage::Release {
            event: EventId::new(7),
        };
        assert!(format!("{msg:?}").contains("Release"));
        let msg = ClusterMessage::Shutdown;
        assert_eq!(format!("{msg:?}"), "Shutdown");
    }
}
