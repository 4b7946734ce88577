//! What a cluster node knows of the control state.
//!
//! In the paper, the ownership network and the context→server mapping are
//! maintained by the eManager and persisted in a cloud storage system that
//! every host and client can read (§5.1).  Here that is the deployment's
//! one [`ControlState`] — the same type the in-process runtime and the
//! simulator hold — which the `Deployment` trait reads and changes for the
//! gateway.  What a node asks of it while it runs an event is the one
//! [`DirOp`] vocabulary every host asks in, answered by the one
//! [`ControlState::answer`].  A node holds a [`Directory`], in one of two
//! flavours:
//!
//! * **shared**: a node in the gateway's process shares the gateway's
//!   [`ControlState`] (by `Arc`), standing in for "query the eManager /
//!   read the mapping from cloud storage": its class factories and history
//!   sink are the deployment's, and each [`DirOp`] is answered at once;
//! * **remote**: a node in an `aeon-node` OS process holds only its own
//!   [`ClassFactories`], which its binary registers.  It sends each
//!   [`DirOp`] to the gateway in a [`DirReq`], a round trip through the
//!   node's table of pending requests like any other (see `node.rs`): the
//!   wait is announced to the node's pool, and it ends with
//!   `RuntimeShutdown` the moment the node stops.  The gateway answers it
//!   with [`ControlState::answer`] in a [`DirAck`].  It issues no ids of its
//!   own (a node's new contexts get theirs at the gateway, and a request's
//!   token comes from its sender's table), and records no history.
//!
//! Either way the node gets the same [`DirReply`] (`NodeShared::ask`), so
//! node code is oblivious to which flavour it holds and neither flavour has
//! a rule of its own.  Context *state* is never stored here — it lives only
//! on the server currently hosting the context and moves exclusively
//! through the migration protocol.
//!
//! [`DirReq`]: crate::ClusterMessage::DirReq
//! [`DirAck`]: crate::ClusterMessage::DirAck
//! [`DirOp`]: aeon_runtime::DirOp
//! [`DirReply`]: aeon_runtime::DirReply

use aeon_runtime::{ClassFactories, ControlState};
use aeon_types::SharedHistorySink;
use std::sync::Arc;

/// What a node knows of the control state (see the module docs).
#[derive(Debug)]
pub(crate) enum Directory {
    /// A node in the gateway's process: the deployment's own state.
    Shared(Arc<ControlState>),
    /// A node process: its own class factories; it asks the gateway the
    /// rest.
    Remote(ClassFactories),
}

impl Directory {
    /// The class factories this node rebuilds contexts with.
    pub(crate) fn factories(&self) -> &ClassFactories {
        match self {
            Directory::Shared(control) => control.factories(),
            Directory::Remote(factories) => factories,
        }
    }

    /// The installed history sink, if any; a node process records none.
    pub(crate) fn sink(&self) -> Option<SharedHistorySink> {
        match self {
            Directory::Shared(control) => control.sink(),
            Directory::Remote(_) => None,
        }
    }
}
