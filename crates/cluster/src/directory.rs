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
//!   `aeon-node` OS process and holds no plane.  Its node sends each
//!   [`DirOp`] to the gateway in a [`DirReq`], a round trip through the
//!   node's table of pending requests like any other (see `node.rs`): the
//!   wait is announced to the node's pool, and it ends with
//!   `RuntimeShutdown` the moment the node stops.  The gateway answers it
//!   with [`Directory::serve_dir_op`] in a [`DirAck`].
//!
//! Either way the node unpacks the [`DirReply`] into what its op asks for
//! (`TryFrom`), so node code is oblivious to which flavour it holds and
//! neither flavour has a rule of its own.  Context *state* is never stored
//! here — it lives only on the server currently hosting the context and
//! moves exclusively through the migration protocol.  Class factories, id
//! generation and the history sink are process-local concerns and stay
//! local on both flavours; a remote handle issues no ids of its
//! own (a node's new contexts get theirs at the authority, and a request's
//! token comes from its sender's table).
//!
//! [`DirReq`]: crate::ClusterMessage::DirReq
//! [`DirAck`]: crate::ClusterMessage::DirAck

use crate::message::{DirOp, DirReply};
use aeon_ownership::{ClassGraph, ControlPlane};
use aeon_runtime::ContextFactory;
use aeon_types::{ClassName, ContextId, IdGenerator, Result, SharedHistorySink};
use parking_lot::RwLock;
use std::collections::HashMap;

/// Shared control-plane state of a cluster (authority or remote handle).
pub struct Directory {
    /// The authoritative control-plane state (eManager + cloud storage);
    /// `None` on a remote handle.
    plane: Option<RwLock<ControlPlane>>,
    factories: RwLock<HashMap<ClassName, ContextFactory>>,
    ids: IdGenerator,
    /// Optional live history sink, shared by the gateway (event spans) and
    /// every node (context accesses); in a real deployment each host would
    /// hold its own handle to the same collector service.
    history: RwLock<Option<SharedHistorySink>>,
}

impl std::fmt::Debug for Directory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let contexts = self.plane.as_ref().map(|plane| plane.read().graph().len());
        f.debug_struct("Directory")
            .field("contexts", &contexts)
            .finish_non_exhaustive()
    }
}

impl Directory {
    /// Creates an empty directory authority.
    pub fn new(class_graph: Option<ClassGraph>) -> Self {
        Self::with_plane(Some(RwLock::new(ControlPlane::new(class_graph))))
    }

    /// Creates the remote directory handle of a node process, whose node
    /// asks the authority over the network.
    pub fn remote() -> Self {
        Self::with_plane(None)
    }

    fn with_plane(plane: Option<RwLock<ControlPlane>>) -> Self {
        Self {
            plane,
            factories: RwLock::new(HashMap::new()),
            ids: IdGenerator::starting_at(1),
            history: RwLock::new(None),
        }
    }

    /// Whether this is the authority, which answers a [`DirOp`] itself.
    pub(crate) fn is_authority(&self) -> bool {
        self.plane.is_some()
    }

    /// The authority's control plane, for the gateway: it reads and changes
    /// the plane directly, holding no guard across a round trip to a node.
    ///
    /// # Panics
    ///
    /// Panics on a remote handle — only node processes hold one, and they
    /// never run gateway code.
    pub(crate) fn plane(&self) -> &RwLock<ControlPlane> {
        self.plane
            .as_ref()
            .expect("the gateway's directory is the authority")
    }

    /// Answers one [`DirOp`] from the authority's plane: the gateway's
    /// handler calls this for every [`DirReq`](crate::ClusterMessage::DirReq) a node
    /// sends, and an in-process node for every op it asks.  Queries take a
    /// read guard on the plane, changes a write guard, each for the one
    /// plane call only.
    ///
    /// # Errors
    ///
    /// Propagates the error of the control-plane operation.
    ///
    /// # Panics
    ///
    /// Panics on a remote handle, like [`Directory::plane`].
    pub(crate) fn serve_dir_op(&self, op: DirOp) -> Result<DirReply> {
        let plane = self.plane();
        match op {
            DirOp::PlacementOf(context) => plane.read().placement_of(context).map(DirReply::Server),
            DirOp::SetPlacement(context, server) => plane
                .write()
                .set_placement(context, server)
                .map(|()| DirReply::Unit),
            DirOp::PathOwners(caller, callee) => plane
                .read()
                .path_owners(caller, callee)
                .map(DirReply::Contexts),
            DirOp::ChildrenOf { parent, class } => plane
                .read()
                .children_of(parent, class.as_deref())
                .map(DirReply::Contexts),
            DirOp::Subtree(root) => plane
                .read()
                .graph()
                .subtree_topological(root)
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

    /// Allocates a fresh raw id (used for events and clients).
    pub fn next_raw(&self) -> u64 {
        self.ids.next_raw()
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

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_ownership::Placement;
    use aeon_runtime::KvContext;
    use aeon_types::{AeonError, ServerId, Value};
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
    fn serve_dir_op_answers_control_plane_queries() {
        let (dir, server, room) = authority_with_room(None);
        assert_eq!(
            dir.serve_dir_op(DirOp::PlacementOf(room)).unwrap(),
            DirReply::Server(server)
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
            dir.serve_dir_op(DirOp::PathOwners(room, child)).unwrap(),
            DirReply::Contexts(Vec::new())
        );
        assert_eq!(
            dir.serve_dir_op(DirOp::ChildrenOf {
                parent: room,
                class: None
            })
            .unwrap(),
            DirReply::Contexts(vec![child])
        );
        assert_eq!(
            dir.serve_dir_op(DirOp::Subtree(room)).unwrap(),
            DirReply::Contexts(vec![room, child])
        );
        assert!(dir.serve_dir_op(DirOp::RemoveEdge(room, child)).is_ok());
    }

    /// What a node asks: the op, answered by the authority and unpacked.
    fn ask<T: TryFrom<DirReply, Error = AeonError>>(dir: &Directory, op: DirOp) -> Result<T> {
        dir.serve_dir_op(op).and_then(T::try_from)
    }

    #[test]
    fn node_facing_wrappers_unpack_the_authoritys_replies() {
        let mut classes = ClassGraph::new();
        classes.add_constraint("Room", "Item");
        let (dir, server, room) = authority_with_room(Some(classes));
        let create = |owner, class: &str| {
            let class = class.to_string();
            ask::<ContextId>(&dir, DirOp::CreateOwned { owner, class })
        };
        let child = create(room, "Item").unwrap();
        assert_eq!(
            ask::<ServerId>(&dir, DirOp::PlacementOf(child)).unwrap(),
            server
        );
        let children = DirOp::ChildrenOf {
            parent: room,
            class: Some("Item".into()),
        };
        assert_eq!(ask::<Vec<ContextId>>(&dir, children).unwrap(), vec![child]);
        let owners =
            |caller, callee| ask::<Vec<ContextId>>(&dir, DirOp::PathOwners(caller, callee));
        assert_eq!(owners(room, child).unwrap(), Vec::new());
        assert!(owners(child, room).is_err());
        ask::<()>(&dir, DirOp::RemoveEdge(room, child)).unwrap();
        ask::<()>(&dir, DirOp::AddEdge(room, child)).unwrap();
        // A reply of another kind than the op asks for is refused.
        assert!(matches!(
            ask::<ServerId>(&dir, DirOp::Subtree(room)),
            Err(AeonError::Internal(_))
        ));
        // A refusal travels back as the plane's error, and declares nothing.
        let contexts = dir.plane().read().graph().len();
        assert!(matches!(
            create(child, "Room"),
            Err(AeonError::OwnershipViolation { .. })
        ));
        assert!(matches!(
            ask::<()>(&dir, DirOp::SetPlacement(child, ServerId::new(9))),
            Err(AeonError::ServerNotFound(_))
        ));
        assert_eq!(dir.plane().read().graph().len(), contexts);
    }
}
