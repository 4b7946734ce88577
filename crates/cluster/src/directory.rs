//! The cluster's control-plane metadata service.
//!
//! In the paper, the ownership network and the context→server mapping are
//! maintained by the eManager and persisted in a cloud storage system that
//! every host and client can read (§5.1).  The [`Directory`] plays that
//! role, in one of two flavours:
//!
//! * the **authority** (created by [`Directory::new`]) *is* a
//!   [`ControlPlane`] — the same type the in-process runtime and the
//!   simulator hold — behind one `RwLock`.  When the whole cluster runs in
//!   one process it is shared (by `Arc`) between the gateway and every
//!   server node, standing in for "query the eManager / read the mapping
//!   from cloud storage".  The gateway works on the plane directly
//!   ([`Directory::plane`]); what a *node* may ask is the [`DirOp`]
//!   vocabulary, answered from the plane by [`Directory::serve_dir_op`];
//! * a **remote** handle (created by [`Directory::remote`]) lives inside an
//!   `aeon-node` OS process and proxies the plane: the same
//!   [`Directory::serve_dir_op`] forwards each [`DirOp`] to the authority as
//!   a synchronous [`DirReq`]/[`DirAck`](ClusterMessage::DirAck) RPC over
//!   the network.
//!
//! The node-facing methods ([`Directory::placement_of`],
//! [`Directory::may_call`], [`Directory::create_owned`], …) are thin
//! wrappers that build the op and unpack the reply, so node code is
//! oblivious to which flavour it holds and neither flavour has a rule of
//! its own.  Context *state* is never stored here — it lives only on the
//! server currently hosting the context and moves exclusively through the
//! migration protocol.  Class factories, the escrow, id generation and the
//! history sink are process-local concerns and stay local on both flavours.
//!
//! [`DirReq`]: ClusterMessage::DirReq

use crate::message::{gateway_id, ClusterMessage, DirOp, DirReply};
use aeon_net::Network;
use aeon_ownership::{ClassGraph, ControlPlane, DominatorMode};
use aeon_runtime::{ContextFactory, ContextObject};
use aeon_types::{
    AeonError, ClassName, ContextId, IdGenerator, Result, ServerId, SharedHistorySink,
};
use crossbeam::channel::{self, Sender};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::time::Duration;

/// How long a remote directory handle waits for the authority's answer.
const DIR_RPC_TIMEOUT: Duration = Duration::from_secs(10);

/// Remote handles allocate ids in a namespace disjoint from the
/// authority's: bit 63 set, node id in bits 40..63, local counter below.
const REMOTE_ID_BASE: u64 = 1 << 63;

/// A node-process proxy that answers queries by RPC to the authority.
struct Remote {
    node: ServerId,
    network: Network<ClusterMessage>,
    pending: Mutex<HashMap<u64, Sender<Result<DirReply>>>>,
}

enum Backend {
    /// The authoritative control-plane state (eManager + cloud storage);
    /// boxed so that the handles, of which there is one per node, stay small.
    Authority(Box<RwLock<ControlPlane>>),
    Remote(Remote),
}

/// Shared control-plane state of a cluster (authority or remote proxy).
pub struct Directory {
    backend: Backend,
    factories: RwLock<HashMap<ClassName, ContextFactory>>,
    ids: IdGenerator,
    /// Objects parked between `create_context` and the node's `Host`
    /// handler when gateway and node share a process: the token travels on
    /// the wire, the object is moved through here without serialisation.
    escrow: Mutex<HashMap<u64, Box<dyn ContextObject>>>,
    /// Optional live history sink, shared by the gateway (event spans) and
    /// every node (context accesses); in a real deployment each host would
    /// hold its own handle to the same collector service.
    history: RwLock<Option<SharedHistorySink>>,
}

impl std::fmt::Debug for Directory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.backend {
            Backend::Authority(plane) => f
                .debug_struct("Directory")
                .field("contexts", &plane.read().graph().len())
                .finish_non_exhaustive(),
            Backend::Remote(remote) => f
                .debug_struct("Directory")
                .field("remote_of", &remote.node)
                .finish_non_exhaustive(),
        }
    }
}

impl Directory {
    /// Creates an empty directory authority.
    pub fn new(class_graph: Option<ClassGraph>) -> Self {
        Self::with_backend(
            Backend::Authority(Box::new(RwLock::new(ControlPlane::new(
                DominatorMode::default(),
                class_graph,
            )))),
            1,
        )
    }

    /// Creates a remote directory handle for node `node`, forwarding
    /// control-plane queries to the authority over `network`.
    pub fn remote(node: ServerId, network: Network<ClusterMessage>) -> Self {
        Self::with_backend(
            Backend::Remote(Remote {
                node,
                network,
                pending: Mutex::new(HashMap::new()),
            }),
            REMOTE_ID_BASE | (u64::from(node.raw()) << 40),
        )
    }

    fn with_backend(backend: Backend, first_id: u64) -> Self {
        Self {
            backend,
            factories: RwLock::new(HashMap::new()),
            ids: IdGenerator::starting_at(first_id),
            escrow: Mutex::new(HashMap::new()),
            history: RwLock::new(None),
        }
    }

    /// The authority's control plane, for the gateway: it reads and changes
    /// the plane directly, holding no guard across a round trip to a node.
    ///
    /// # Panics
    ///
    /// Panics on a remote handle — only node processes hold one, and they
    /// never run gateway code.
    pub(crate) fn plane(&self) -> &RwLock<ControlPlane> {
        match &self.backend {
            Backend::Authority(plane) => plane,
            Backend::Remote(_) => panic!("the gateway's directory is the authority"),
        }
    }

    /// Sends `op` to the authority and blocks for the matching
    /// [`ClusterMessage::DirAck`] (delivered via [`Self::complete_dir_reply`]).
    fn rpc(&self, remote: &Remote, op: DirOp) -> Result<DirReply> {
        let corr = self.ids.next_raw();
        let (tx, rx) = channel::bounded(1);
        remote.pending.lock().insert(corr, tx);
        let request = ClusterMessage::DirReq {
            corr,
            from: remote.node,
            op,
        };
        if let Err(err) = remote.network.send_from(remote.node, gateway_id(), request) {
            remote.pending.lock().remove(&corr);
            return Err(err);
        }
        match rx.recv_timeout(DIR_RPC_TIMEOUT) {
            Ok(reply) => reply,
            Err(_) => {
                remote.pending.lock().remove(&corr);
                Err(AeonError::Internal(
                    "directory rpc to the authority timed out".into(),
                ))
            }
        }
    }

    /// Routes a [`ClusterMessage::DirAck`] back to the thread blocked in
    /// [`Self::rpc`].  No-op on the authority (which never issues RPCs).
    pub(crate) fn complete_dir_reply(&self, corr: u64, reply: Result<DirReply>) {
        if let Backend::Remote(remote) = &self.backend {
            if let Some(tx) = remote.pending.lock().remove(&corr) {
                let _ = tx.send(reply);
            }
        }
    }

    /// Answers one [`DirOp`]: from the plane at the authority (the gateway's
    /// handler calls this for every [`ClusterMessage::DirReq`] a node sends,
    /// and in-process nodes reach it through the wrappers below), by RPC to
    /// the authority on a remote handle.  Queries take a read guard on the
    /// plane, changes a write guard, each for the one plane call only.
    ///
    /// # Errors
    ///
    /// Propagates the error of the control-plane operation or of the RPC.
    pub(crate) fn serve_dir_op(&self, op: DirOp) -> Result<DirReply> {
        let plane = match &self.backend {
            Backend::Authority(plane) => plane,
            Backend::Remote(remote) => return self.rpc(remote, op),
        };
        match op {
            DirOp::PlacementOf(context) => plane.read().placement_of(context).map(DirReply::Server),
            DirOp::SetPlacement(context, server) => plane
                .write()
                .set_placement(context, server)
                .map(|()| DirReply::Unit),
            DirOp::MayCall(caller, callee) => {
                Ok(DirReply::Flag(plane.read().may_call(caller, callee)))
            }
            DirOp::ClassOf(context) => plane
                .read()
                .class_of(context)
                .map(|class| DirReply::Class(class.to_string())),
            DirOp::ChildrenOf { parent, class } => plane
                .read()
                .children_of(parent, class.as_deref())
                .map(DirReply::Contexts),
            DirOp::AddEdge(owner, owned) => plane
                .write()
                .add_edge(owner, owned)
                .map(|()| DirReply::Unit),
            DirOp::RemoveEdge(owner, owned) => plane
                .write()
                .remove_edge(owner, owned)
                .map(|()| DirReply::Unit),
            DirOp::CreateOwned { owner, class } => {
                let id = self.next_context_id();
                plane.write().declare_owned(id, &class, &[owner])?;
                Ok(DirReply::Context(id))
            }
        }
    }

    /// Installs the live history sink (replacing any previous one).
    pub fn set_history_sink(&self, sink: SharedHistorySink) {
        *self.history.write() = Some(sink);
    }

    /// The installed history sink, if any.
    pub fn history_sink(&self) -> Option<SharedHistorySink> {
        self.history.read().clone()
    }

    /// Allocates a fresh context id.
    pub fn next_context_id(&self) -> ContextId {
        ContextId::new(self.ids.next_raw())
    }

    /// Allocates a fresh raw id (used for events, correlation tokens and
    /// clients).
    pub fn next_raw(&self) -> u64 {
        self.ids.next_raw()
    }

    // -- escrow -------------------------------------------------------------

    /// Parks an object for same-process hand-off and returns its token.
    pub(crate) fn escrow_put(&self, object: Box<dyn ContextObject>) -> u64 {
        let token = self.ids.next_raw();
        self.escrow.lock().insert(token, object);
        token
    }

    /// Claims a parked object, if the token was escrowed in this process.
    pub(crate) fn escrow_take(&self, token: u64) -> Option<Box<dyn ContextObject>> {
        self.escrow.lock().remove(&token)
    }

    // -- what a node may ask (one `DirOp` each) -----------------------------

    /// The server currently recorded as hosting `context`.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] for unknown contexts.
    pub fn placement_of(&self, context: ContextId) -> Result<ServerId> {
        match self.serve_dir_op(DirOp::PlacementOf(context))? {
            DirReply::Server(server) => Ok(server),
            other => Err(reply_mismatch("PlacementOf", &other)),
        }
    }

    /// Moves the placement of a context to an online server.
    ///
    /// # Errors
    ///
    /// [`AeonError::ContextNotFound`] / [`AeonError::ServerNotFound`] for an
    /// unknown context or an unknown or offline server.
    pub fn set_placement(&self, context: ContextId, server: ServerId) -> Result<()> {
        self.unit_op("SetPlacement", DirOp::SetPlacement(context, server))
    }

    /// Whether `caller` may (transitively) call `callee` (`false` when the
    /// authority cannot be reached).
    pub fn may_call(&self, caller: ContextId, callee: ContextId) -> bool {
        matches!(
            self.serve_dir_op(DirOp::MayCall(caller, callee)),
            Ok(DirReply::Flag(true))
        )
    }

    /// The class of a context.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] for unknown contexts.
    pub fn class_of(&self, context: ContextId) -> Result<String> {
        match self.serve_dir_op(DirOp::ClassOf(context))? {
            DirReply::Class(class) => Ok(class),
            other => Err(reply_mismatch("ClassOf", &other)),
        }
    }

    /// Direct children of `parent`, optionally filtered by class.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] when `parent` is unknown.
    pub fn children_of(&self, parent: ContextId, class: Option<&str>) -> Result<Vec<ContextId>> {
        let op = DirOp::ChildrenOf {
            parent,
            class: class.map(str::to_string),
        };
        match self.serve_dir_op(op)? {
            DirReply::Contexts(ids) => Ok(ids),
            other => Err(reply_mismatch("ChildrenOf", &other)),
        }
    }

    /// Declares a new context of class `class` owned by `owner`, under a
    /// freshly allocated id, placed next to `owner` — the control-plane half
    /// of creating an owned child at event time.  The caller installs the
    /// object and then confirms where with [`Directory::set_placement`].
    ///
    /// # Errors
    ///
    /// The errors of [`ControlPlane::declare_owned`]; nothing is declared
    /// when it refuses.
    pub fn create_owned(&self, owner: ContextId, class: &str) -> Result<ContextId> {
        let op = DirOp::CreateOwned {
            owner,
            class: class.to_string(),
        };
        match self.serve_dir_op(op)? {
            DirReply::Context(id) => Ok(id),
            other => Err(reply_mismatch("CreateOwned", &other)),
        }
    }

    /// Adds an ownership edge after validating the class constraints.
    ///
    /// # Errors
    ///
    /// * [`AeonError::OwnershipViolation`] when the class constraints forbid
    ///   the pair.
    /// * [`AeonError::CycleDetected`] when the edge would create a cycle.
    pub fn add_edge(&self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.unit_op("AddEdge", DirOp::AddEdge(owner, owned))
    }

    /// Removes an ownership edge.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] when either endpoint is
    /// unknown.
    pub fn remove_edge(&self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.unit_op("RemoveEdge", DirOp::RemoveEdge(owner, owned))
    }

    fn unit_op(&self, name: &str, op: DirOp) -> Result<()> {
        match self.serve_dir_op(op)? {
            DirReply::Unit => Ok(()),
            other => Err(reply_mismatch(name, &other)),
        }
    }

    // -- factories ----------------------------------------------------------

    /// Registers the factory used to rebuild contexts of `class` from their
    /// serialised state (migration, recovery, and cross-process hosting).
    pub fn register_factory(&self, class: impl Into<String>, factory: ContextFactory) {
        self.factories.write().insert(class.into(), factory);
    }

    /// The factory registered for `class`, if any.
    pub fn factory_for(&self, class: &str) -> Option<ContextFactory> {
        self.factories.read().get(class).cloned()
    }
}

fn reply_mismatch(op: &str, got: &DirReply) -> AeonError {
    AeonError::Internal(format!(
        "directory {op} rpc returned mismatched reply {got:?}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_ownership::Placement;
    use aeon_runtime::KvContext;
    use aeon_types::Value;
    use std::sync::Arc;

    /// An authority with one online server hosting one `Room` root.
    fn authority_with_room(class_graph: Option<ClassGraph>) -> (Directory, ServerId, ContextId) {
        let dir = Directory::new(class_graph);
        let room = dir.next_context_id();
        let server = {
            let mut plane = dir.plane().write();
            plane.add_server();
            plane.declare_root(room, "Room", Placement::Auto).unwrap()
        };
        (dir, server, room)
    }

    #[test]
    fn factories_round_trip() {
        let dir = Directory::new(None);
        assert!(dir.factory_for("Item").is_none());
        dir.register_factory(
            "Item",
            Arc::new(|state: &Value| {
                let mut kv = KvContext::new("Item");
                aeon_runtime::ContextObject::restore(&mut kv, state);
                Box::new(kv) as Box<dyn aeon_runtime::ContextObject>
            }),
        );
        assert!(dir.factory_for("Item").is_some());
    }

    #[test]
    fn escrow_moves_objects_by_token() {
        let dir = Directory::new(None);
        let token = dir.escrow_put(Box::new(KvContext::new("Item")));
        assert!(dir.escrow_take(token + 1).is_none());
        let object = dir.escrow_take(token).expect("escrowed object");
        assert_eq!(object.class_name(), "Item");
        assert!(dir.escrow_take(token).is_none(), "take is one-shot");
    }

    #[test]
    fn serve_dir_op_answers_control_plane_queries() {
        let (dir, server, room) = authority_with_room(None);
        assert_eq!(
            dir.serve_dir_op(DirOp::PlacementOf(room)).unwrap(),
            DirReply::Server(server)
        );
        assert_eq!(
            dir.serve_dir_op(DirOp::ClassOf(room)).unwrap(),
            DirReply::Class("Room".into())
        );
        let created = dir
            .serve_dir_op(DirOp::CreateOwned {
                owner: room,
                class: "Item".into(),
            })
            .unwrap();
        let DirReply::Context(child) = created else {
            panic!("expected Context reply, got {created:?}");
        };
        assert_eq!(
            dir.serve_dir_op(DirOp::SetPlacement(child, server))
                .unwrap(),
            DirReply::Unit
        );
        assert_eq!(
            dir.serve_dir_op(DirOp::MayCall(room, child)).unwrap(),
            DirReply::Flag(true)
        );
        assert_eq!(
            dir.serve_dir_op(DirOp::ChildrenOf {
                parent: room,
                class: None
            })
            .unwrap(),
            DirReply::Contexts(vec![child])
        );
        assert!(dir.serve_dir_op(DirOp::RemoveEdge(room, child)).is_ok());
    }

    #[test]
    fn node_facing_wrappers_unpack_the_authoritys_replies() {
        let mut classes = ClassGraph::new();
        classes.add_constraint("Room", "Item");
        let (dir, server, room) = authority_with_room(Some(classes));
        let child = dir.create_owned(room, "Item").unwrap();
        assert_eq!(dir.class_of(child).unwrap(), "Item");
        assert_eq!(dir.placement_of(child).unwrap(), server);
        assert_eq!(dir.children_of(room, Some("Item")).unwrap(), vec![child]);
        assert!(dir.may_call(room, child) && !dir.may_call(child, room));
        dir.remove_edge(room, child).unwrap();
        dir.add_edge(room, child).unwrap();
        // A refusal travels back as the plane's error, and declares nothing.
        let contexts = dir.plane().read().graph().len();
        assert!(matches!(
            dir.create_owned(child, "Room"),
            Err(AeonError::OwnershipViolation { .. })
        ));
        assert!(matches!(
            dir.set_placement(child, ServerId::new(9)),
            Err(AeonError::ServerNotFound(_))
        ));
        assert_eq!(dir.plane().read().graph().len(), contexts);
    }
}
