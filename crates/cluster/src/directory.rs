//! What a cluster node knows of the control state.
//!
//! In the paper, the ownership network and the context→server mapping are
//! maintained by the eManager and persisted in a cloud storage system that
//! every host and client can read (§5.1).  Here that is the deployment's
//! one [`ControlState`] — the same type the in-process runtime and the
//! simulator hold — which the `Deployment` trait reads and changes for the
//! gateway.  A node holds a [`Directory`], in one of two flavours:
//!
//! * **shared**: a node in the gateway's process shares the gateway's
//!   [`ControlState`] (by `Arc`), standing in for "query the eManager /
//!   read the mapping from cloud storage": its class factories and history
//!   sink are the deployment's, and what it asks — the [`DirOp`]
//!   vocabulary — is answered at once by [`serve_dir_op`];
//! * **remote**: a node in an `aeon-node` OS process holds only its own
//!   [`ClassFactories`], which its binary registers.  It sends each
//!   [`DirOp`] to the gateway in a [`DirReq`], a round trip through the
//!   node's table of pending requests like any other (see `node.rs`): the
//!   wait is announced to the node's pool, and it ends with
//!   `RuntimeShutdown` the moment the node stops.  The gateway answers it
//!   with [`serve_dir_op`] in a [`DirAck`].  It issues no ids of its own (a
//!   node's new contexts get theirs at the gateway, and a request's token
//!   comes from its sender's table), and records no history.
//!
//! Either way the node unpacks the [`DirReply`] into what its op asks for
//! (`TryFrom`), so node code is oblivious to which flavour it holds and
//! neither flavour has a rule of its own.  Context *state* is never stored
//! here — it lives only on the server currently hosting the context and
//! moves exclusively through the migration protocol.
//!
//! [`DirReq`]: crate::ClusterMessage::DirReq
//! [`DirAck`]: crate::ClusterMessage::DirAck

use crate::message::{DirOp, DirReply};
use aeon_runtime::{ClassFactories, ControlState};
use aeon_types::{ContextId, Result, SharedHistorySink};
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

/// Answers one [`DirOp`] from the deployment's control plane: the gateway's
/// handler calls this for every [`DirReq`](crate::ClusterMessage::DirReq) a
/// node process sends, and an in-process node for every op it asks.
/// Queries take a read guard on the plane, changes a write guard, each for
/// the one plane call only.
///
/// # Errors
///
/// Propagates the error of the control-plane operation.
pub(crate) fn serve_dir_op(control: &ControlState, op: DirOp) -> Result<DirReply> {
    let plane = control.plane();
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
            let id = ContextId::new(control.next_raw());
            plane.write().declare_owned(id, &class, &[owner])?;
            Ok(DirReply::Context(id))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_ownership::{ClassGraph, ControlPlane, Placement};
    use aeon_types::{AeonError, ServerId};

    /// A control state with one online server hosting one `Room` root.
    fn authority_with_room(class_graph: Option<ClassGraph>) -> (ControlState, ServerId, ContextId) {
        let dir = ControlState::new(ControlPlane::new(class_graph));
        let room = ContextId::new(dir.next_raw());
        let server = {
            let mut plane = dir.plane().write();
            plane.add_server();
            plane.declare_root(room, "Room", Placement::Auto).unwrap()
        };
        (dir, server, room)
    }

    #[test]
    fn serve_dir_op_answers_control_plane_queries() {
        let (dir, server, room) = authority_with_room(None);
        assert_eq!(
            serve_dir_op(&dir, DirOp::PlacementOf(room)).unwrap(),
            DirReply::Server(server)
        );
        let created = serve_dir_op(
            &dir,
            DirOp::CreateOwned {
                owner: room,
                class: "Item".into(),
            },
        )
        .unwrap();
        let DirReply::Context(child) = created else {
            panic!("expected Context reply, got {created:?}");
        };
        assert_eq!(
            serve_dir_op(&dir, DirOp::SetPlacement(child, server)).unwrap(),
            DirReply::Unit
        );
        assert_eq!(
            serve_dir_op(&dir, DirOp::PathOwners(room, child)).unwrap(),
            DirReply::Contexts(Vec::new())
        );
        assert_eq!(
            serve_dir_op(
                &dir,
                DirOp::ChildrenOf {
                    parent: room,
                    class: None
                }
            )
            .unwrap(),
            DirReply::Contexts(vec![child])
        );
        assert_eq!(
            serve_dir_op(&dir, DirOp::Subtree(room)).unwrap(),
            DirReply::Contexts(vec![room, child])
        );
        assert!(serve_dir_op(&dir, DirOp::RemoveEdge(room, child)).is_ok());
    }

    /// What a node asks: the op, answered by the authority and unpacked.
    fn ask<T: TryFrom<DirReply, Error = AeonError>>(dir: &ControlState, op: DirOp) -> Result<T> {
        serve_dir_op(dir, op).and_then(T::try_from)
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
