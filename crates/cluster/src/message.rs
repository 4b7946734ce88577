//! Wire messages exchanged between the gateway and the server nodes.
//!
//! The cluster runs on the pluggable transport substrate of `aeon-net`;
//! every protocol step of §4 (sequencing at the dominator, execution at the
//! target, remote method calls, lock release) is a message here, so the
//! distributed deployment exercises the same message flow as the paper's
//! prototype.  A migration (§5.2) is an event of that protocol; the only
//! message of its own is the `Host` that carries the state to its
//! destination, the one the gateway also sends a node process to host a
//! new or restored context (a node in the gateway's own process is handed
//! its object by a call, not a message).  Every variant
//! has a byte representation (see `crate::wire`), so the same protocol runs
//! unchanged over in-process channels and over TCP between real OS
//! processes.
//!
//! A request that waits for an answer carries a `corr` token from its
//! sender's table (`crate::pending`), and the answer echoes it:
//! `Host` → `HostAck`, `Call` → `CallReply`, `MetricsReq` → `MetricsAck`,
//! `DirReq` → `DirAck` (`ClusterMessage::answers` reads it), and an
//! event's [`EventDescriptor`] → its `Done`.

use aeon_runtime::{DirOp, DirReply, SubEvent};
use aeon_types::{AccessMode, Args, ClientId, ContextId, EventId, Result, ServerId, Value};
use std::fmt;

/// The server id used by the cluster gateway (client entry point).
pub fn gateway_id() -> ServerId {
    ServerId::new(u32::MAX)
}

/// Sentinel context id standing for the *virtual root* sequencer used when a
/// target has no concrete dominator ([`aeon_ownership::Sequencer::GlobalRoot`]):
/// the id under which every node's core keeps the global root's lock.
pub fn virtual_root() -> ContextId {
    aeon_ownership::GLOBAL_ROOT
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
    /// Per-event execution times on this node: their count, total and
    /// distribution.
    pub latency: aeon_types::LatencyHistogram,
}

/// A message of the cluster protocol.
#[derive(PartialEq)]
pub enum ClusterMessage {
    /// Gateway → node process: host a newly created (or re-hosted)
    /// context; server → server: host a context migrating in.
    Host {
        /// Correlation token echoed in [`ClusterMessage::HostAck`].
        corr: u64,
        /// Id of the context.
        context: ContextId,
        /// Contextclass name.
        class: String,
        /// Snapshot of the object's state; the receiver rebuilds the object
        /// from it with the class factory.
        state: Value,
        /// Where the [`ClusterMessage::HostAck`] goes: the gateway, or the
        /// node the context migrates from.
        reply_to: ServerId,
    },
    /// Server → the sender of a [`ClusterMessage::Host`]: the context is
    /// installed (or hosting failed, e.g. no factory is registered for the
    /// class on that node's process, or it panicked).
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
    /// The first lock of the unit of work this message brings to a node —
    /// an `Act`'s sequencer, an `Exec` / `ExecCertified` target, a `Call`'s
    /// callee — with the event that takes it and the mode it is taken in
    /// (see `aeon_runtime::ServerCore::start`).
    pub(crate) fn first_lock(&self) -> Option<(EventId, AccessMode, ContextId)> {
        match self {
            ClusterMessage::Act { event, sequencer } => Some((event.id, event.mode, *sequencer)),
            ClusterMessage::Exec { event, .. } | ClusterMessage::ExecCertified { event } => {
                Some((event.id, event.mode, event.target))
            }
            ClusterMessage::Call {
                event,
                mode,
                target,
                ..
            } => Some((*event, *mode, *target)),
            _ => None,
        }
    }

    /// The token of the request this message answers — a `HostAck`, a
    /// `CallReply`, a `MetricsAck` or a `DirAck` — under which the
    /// requester's table waits for it (see `crate::pending`).
    pub(crate) fn answers(&self) -> Option<u64> {
        match self {
            ClusterMessage::HostAck { corr, .. }
            | ClusterMessage::CallReply { corr, .. }
            | ClusterMessage::MetricsAck { corr, .. }
            | ClusterMessage::DirAck { corr, .. } => Some(*corr),
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
            ClusterMessage::MetricsReq { corr } => write!(f, "MetricsReq(corr={corr})"),
            ClusterMessage::MetricsAck { metrics, .. } => {
                write!(
                    f,
                    "MetricsAck({}, contexts={})",
                    metrics.server, metrics.context_count
                )
            }
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
