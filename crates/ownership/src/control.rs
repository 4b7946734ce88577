//! The control plane: the one copy of the ownership network, the
//! context→server mapping and the server roster (the eManager's state,
//! §5.1 of the paper), with every rule that reads or changes them.
//!
//! [`ControlPlane`] does no I/O, takes no locks of its own and never sees a
//! context *object*: the in-process runtime and the cluster's directory
//! authority each hold one behind a single `RwLock`, the simulator embeds
//! one by value, and all three keep only what is theirs — object tables,
//! factories, id generators, round trips.  Queries take `&self` (the
//! dominator cache is interior-mutable), mutations take `&mut self`, and
//! every mutation validates *before* it touches anything: a refused
//! operation leaves the graph (and its `version()`), the placement map and
//! the roster exactly as they were, and each cause of refusal has one error
//! (table below).  The roster keeps, per server, the number of contexts
//! placed on it, adjusted wherever a placement changes, so choosing the
//! least-loaded server, counting the hosted contexts and retiring a server
//! cost the number of servers, not the number of contexts.
//!
//! | cause | error |
//! |---|---|
//! | class not declared in the class graph | [`AeonError::Config`] |
//! | owned context without an owner | [`AeonError::Config`] |
//! | owner's class may not own the class | [`AeonError::OwnershipViolation`] |
//! | edge would close a cycle | [`AeonError::CycleDetected`] |
//! | unknown context | [`AeonError::ContextNotFound`] |
//! | unknown or offline server | [`AeonError::ServerNotFound`] |
//! | no server online, server not empty | [`AeonError::Config`] |

use crate::{ClassGraph, Dominator, DominatorMode, DominatorResolver, OwnershipGraph};
use aeon_types::{AeonError, ContextId, Result, ServerId};
use std::collections::{BTreeMap, HashMap};

/// Placement policy for newly created contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Place the context on the least-loaded server (fewest contexts).
    #[default]
    Auto,
    /// Place the context on the given server.
    Server(ServerId),
    /// Co-locate the context with another context (e.g. its owner) for
    /// locality, mirroring the paper's placement of Players/Items next to
    /// their Room.
    WithContext(ContextId),
}

/// One server of the roster.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Server {
    online: bool,
    /// Contexts placed on it, online or not.
    hosted: usize,
}

/// Ownership network + placement map + server roster, and the rules over
/// them (see the module docs).
#[derive(Debug)]
pub struct ControlPlane {
    graph: OwnershipGraph,
    classes: Option<ClassGraph>,
    placement: HashMap<ContextId, ServerId>,
    /// Every server ever known.
    servers: BTreeMap<ServerId, Server>,
    next_server: u32,
    resolver: DominatorResolver,
}

impl ControlPlane {
    /// An empty plane: no contexts, no servers.  When `classes` is given,
    /// context creation and ownership changes are validated against it.
    pub fn new(mode: DominatorMode, classes: Option<ClassGraph>) -> Self {
        Self {
            graph: OwnershipGraph::new(),
            classes,
            placement: HashMap::new(),
            servers: BTreeMap::new(),
            next_server: 0,
            resolver: DominatorResolver::new(mode),
        }
    }

    // -- ownership network ---------------------------------------------------

    /// The ownership network (borrow it for traversals, clone it for a
    /// snapshot).
    pub fn graph(&self) -> &OwnershipGraph {
        &self.graph
    }

    /// The class of a context.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] for unknown contexts.
    pub fn class_of(&self, context: ContextId) -> Result<&str> {
        self.graph.class_of(context)
    }

    /// The dominator of `target` under the plane's mode (cached until a
    /// mutation touches the target's sharing component).
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] for unknown targets.
    pub fn dominator_of(&self, target: ContextId) -> Result<Dominator> {
        self.resolver.dominator(&self.graph, target)
    }

    /// Whether `caller` may (transitively) call `callee`.
    pub fn may_call(&self, caller: ContextId, callee: ContextId) -> bool {
        self.graph.may_call(caller, callee)
    }

    /// Direct children of `parent`, optionally only those of `class`.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] when `parent` is unknown.
    pub fn children_of(&self, parent: ContextId, class: Option<&str>) -> Result<Vec<ContextId>> {
        self.graph.children_of(parent, class)
    }

    fn check_declared(&self, class: &str) -> Result<()> {
        match &self.classes {
            Some(classes) if !classes.contains(class) => Err(AeonError::Config(format!(
                "contextclass {class} is not declared in the class graph"
            ))),
            _ => Ok(()),
        }
    }

    /// Whether the class constraints (if any) let `owner_class` own
    /// `owned_class`.
    fn allows(&self, owner_class: &str, owned_class: &str) -> bool {
        self.classes
            .as_ref()
            .is_none_or(|classes| classes.allows(owner_class, owned_class))
    }

    /// Declares the root context `id` (no owners) of class `class`, places
    /// it according to `placement` and returns the chosen server.
    ///
    /// # Errors
    ///
    /// * [`AeonError::Config`] when the class is not declared, or no server
    ///   is online.
    /// * The [`ControlPlane::pick_server`] errors for `placement`.
    pub fn declare_root(
        &mut self,
        id: ContextId,
        class: &str,
        placement: Placement,
    ) -> Result<ServerId> {
        self.check_declared(class)?;
        let server = self.pick_server(placement)?;
        self.graph.add_context(id, class)?;
        self.place(id, server);
        Ok(server)
    }

    /// Declares the context `id` of class `class` owned by every context in
    /// `owners` — all edges or none — places it next to the first owner and
    /// returns that server.
    ///
    /// # Errors
    ///
    /// * [`AeonError::Config`] when `owners` is empty or the class is not
    ///   declared.
    /// * [`AeonError::ContextNotFound`] for an unknown owner.
    /// * [`AeonError::OwnershipViolation`] when an owner's class may not own
    ///   `class`; the callee in the error is the `u64::MAX` placeholder,
    ///   because the child never existed.
    /// * [`AeonError::ServerNotFound`] when the first owner sits on an
    ///   offline server.
    pub fn declare_owned(
        &mut self,
        id: ContextId,
        class: &str,
        owners: &[ContextId],
    ) -> Result<ServerId> {
        let Some(first) = owners.first() else {
            return Err(AeonError::Config(
                "an owned context requires at least one owner".into(),
            ));
        };
        self.check_declared(class)?;
        for owner in owners {
            if !self.allows(self.graph.class_of(*owner)?, class) {
                return Err(AeonError::ownership(*owner, ContextId::new(u64::MAX)));
            }
        }
        let server = self.pick_server(Placement::WithContext(*first))?;
        self.graph.add_context(id, class)?;
        for owner in owners {
            self.graph
                .add_edge(*owner, id)
                .expect("every owner exists and a context without descendants closes no cycle");
        }
        self.place(id, server);
        Ok(server)
    }

    /// Adds the ownership edge `owner → owned`, class check and cycle check
    /// in one step.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ContextNotFound`] when either context is unknown.
    /// * [`AeonError::OwnershipViolation`] when the class constraints forbid
    ///   the pair.
    /// * [`AeonError::CycleDetected`] when the edge would create a cycle.
    pub fn add_edge(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        let owner_class = self.graph.class_of(owner)?;
        if !self.allows(owner_class, self.graph.class_of(owned)?) {
            return Err(AeonError::ownership(owner, owned));
        }
        self.graph.add_edge(owner, owned)
    }

    /// Removes the ownership edge `owner → owned` if present.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] when either context is unknown.
    pub fn remove_edge(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        self.graph.remove_edge(owner, owned)
    }

    /// Forgets a context: its node, every edge incident to it and its
    /// placement (a creation whose install failed, or a removal).
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] when the context is unknown.
    pub fn forget(&mut self, context: ContextId) -> Result<()> {
        self.graph.remove_context(context)?;
        if let Some(server) = self.placement.remove(&context) {
            self.server_mut(server).hosted -= 1;
        }
        Ok(())
    }

    // -- servers -------------------------------------------------------------

    /// Allocates the next server id and records it as known but *offline*,
    /// for hosts that must start the server before it may receive contexts
    /// (bring it online with [`ControlPlane::register_server`]).
    pub fn reserve_server(&mut self) -> ServerId {
        let id = ServerId::new(self.next_server);
        self.next_server += 1;
        self.servers.insert(id, Server::default());
        id
    }

    /// Records `server` as online; ids allocated later stay above it.
    pub fn register_server(&mut self, server: ServerId) {
        self.servers.entry(server).or_default().online = true;
        self.next_server = self.next_server.max(server.raw() + 1);
    }

    /// Adds a new online server and returns its id.
    pub fn add_server(&mut self) -> ServerId {
        let id = self.reserve_server();
        self.register_server(id);
        id
    }

    /// Takes an empty online server offline (scale-in), check and flip in
    /// one step.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ServerNotFound`] for unknown or already offline
    ///   servers.
    /// * [`AeonError::Config`] when contexts are still placed on it.
    pub fn retire_server(&mut self, server: ServerId) -> Result<()> {
        if !self.is_online(server) {
            return Err(AeonError::ServerNotFound(server));
        }
        let hosted = self.server_mut(server).hosted;
        if hosted > 0 {
            return Err(AeonError::Config(format!(
                "server {server} still hosts {hosted} contexts"
            )));
        }
        self.server_mut(server).online = false;
        Ok(())
    }

    /// Marks a server crashed (offline) and returns the contexts placed on
    /// it, which the host must drop or poison.  They keep their identity,
    /// edges and placement until re-hosted elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ServerNotFound`] for unknown servers.
    pub fn mark_crashed(&mut self, server: ServerId) -> Result<Vec<ContextId>> {
        match self.servers.get_mut(&server) {
            Some(known) => known.online = false,
            None => return Err(AeonError::ServerNotFound(server)),
        }
        Ok(self.contexts_on(server))
    }

    /// Whether `server` is known and online.
    pub fn is_online(&self, server: ServerId) -> bool {
        self.servers.get(&server).is_some_and(|known| known.online)
    }

    /// All online servers, in id order.
    pub fn online_servers(&self) -> Vec<ServerId> {
        let online = self.servers.iter().filter(|(_, server)| server.online);
        online.map(|(id, _)| *id).collect()
    }

    // -- placement -----------------------------------------------------------

    /// Resolves a placement policy to an online server: the named one, the
    /// one hosting the named context, or — for [`Placement::Auto`] — the
    /// online server with the fewest contexts (lowest id on a tie).
    ///
    /// # Errors
    ///
    /// * [`AeonError::ServerNotFound`] when the named server, or the server
    ///   of the named context, is unknown or offline (a co-location target
    ///   may sit on a crashed server; nothing new is placed there).
    /// * [`AeonError::ContextNotFound`] when the named context has no
    ///   placement.
    /// * [`AeonError::Config`] when no server is online.
    pub fn pick_server(&self, placement: Placement) -> Result<ServerId> {
        let server = match placement {
            Placement::Server(server) => server,
            Placement::WithContext(other) => self.placement_of(other)?,
            Placement::Auto => {
                let online = self.servers.iter().filter(|(_, server)| server.online);
                return online
                    .min_by_key(|(id, server)| (server.hosted, id.raw()))
                    .map(|(id, _)| *id)
                    .ok_or_else(|| AeonError::Config("no online servers".into()));
            }
        };
        if self.is_online(server) {
            Ok(server)
        } else {
            Err(AeonError::ServerNotFound(server))
        }
    }

    /// The server `context` is placed on.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] for contexts without a
    /// placement.
    pub fn placement_of(&self, context: ContextId) -> Result<ServerId> {
        self.placement
            .get(&context)
            .copied()
            .ok_or(AeonError::ContextNotFound(context))
    }

    /// Moves the placement of a known context to an online server
    /// (migration, re-hosting after a crash).
    ///
    /// # Errors
    ///
    /// * [`AeonError::ContextNotFound`] when the context is unknown.
    /// * [`AeonError::ServerNotFound`] when the server is unknown or
    ///   offline.
    pub fn set_placement(&mut self, context: ContextId, server: ServerId) -> Result<()> {
        if !self.graph.contains(context) {
            return Err(AeonError::ContextNotFound(context));
        }
        if !self.is_online(server) {
            return Err(AeonError::ServerNotFound(server));
        }
        self.place(context, server);
        Ok(())
    }

    /// Records `context` on `server`, moving its count along.
    fn place(&mut self, context: ContextId, server: ServerId) {
        if let Some(old) = self.placement.insert(context, server) {
            self.server_mut(old).hosted -= 1;
        }
        self.server_mut(server).hosted += 1;
    }

    fn server_mut(&mut self, server: ServerId) -> &mut Server {
        let known = self.servers.get_mut(&server);
        known.expect("placements and callers name servers of the roster")
    }

    /// All contexts placed on `server`, in id order.
    pub fn contexts_on(&self, server: ServerId) -> Vec<ContextId> {
        let mut out: Vec<ContextId> = self
            .placement
            .iter()
            .filter(|(_, s)| **s == server)
            .map(|(c, _)| *c)
            .collect();
        out.sort();
        out
    }

    /// Number of contexts placed on online servers (contexts lost to a
    /// crash do not count until they are re-hosted).
    pub fn context_count(&self) -> usize {
        let online = self.servers.values().filter(|server| server.online);
        online.map(|server| server.hosted).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominator_of;
    use proptest::prelude::*;

    fn cx(n: u64) -> ContextId {
        ContextId::new(n)
    }

    fn srv(n: u32) -> ServerId {
        ServerId::new(n)
    }

    /// `Room` owns `Player` and `Item`, `Player` owns `Item`.
    fn game_classes() -> ClassGraph {
        let mut classes = ClassGraph::new();
        classes.add_constraint("Room", "Player");
        classes.add_constraint("Room", "Item");
        classes.add_constraint("Player", "Item");
        classes
    }

    fn plane_with_servers(servers: usize, classes: Option<ClassGraph>) -> ControlPlane {
        let mut plane = ControlPlane::new(DominatorMode::default(), classes);
        for _ in 0..servers {
            plane.add_server();
        }
        plane
    }

    /// Everything a refused mutation must leave alone.
    type Fingerprint = (
        u64,
        BTreeMap<ContextId, ServerId>,
        BTreeMap<ServerId, Server>,
        u32,
    );

    fn fingerprint(plane: &ControlPlane) -> Fingerprint {
        (
            plane.graph.version(),
            plane.placement.iter().map(|(c, s)| (*c, *s)).collect(),
            plane.servers.clone(),
            plane.next_server,
        )
    }

    #[test]
    fn least_loaded_balances_by_context_count() {
        let mut plane = plane_with_servers(2, None);
        assert_eq!(
            plane.declare_root(cx(1), "Room", Placement::Auto),
            Ok(srv(0))
        );
        assert_eq!(plane.pick_server(Placement::Auto), Ok(srv(1)));
        assert_eq!(
            plane.declare_root(cx(2), "Room", Placement::Auto),
            Ok(srv(1))
        );
        // Tie: lowest id wins.
        assert_eq!(plane.pick_server(Placement::Auto), Ok(srv(0)));
        assert_eq!(plane.contexts_on(srv(0)), vec![cx(1)]);
        assert_eq!(plane.context_count(), 2);
    }

    #[test]
    fn offline_servers_are_not_candidates() {
        let mut plane = plane_with_servers(2, None);
        plane.declare_root(cx(1), "Room", Placement::Auto).unwrap();
        assert_eq!(plane.mark_crashed(srv(0)), Ok(vec![cx(1)]));
        assert!(!plane.is_online(srv(0)) && plane.is_online(srv(1)));
        assert_eq!(plane.online_servers(), vec![srv(1)]);
        assert_eq!(plane.pick_server(Placement::Auto), Ok(srv(1)));
        assert_eq!(
            plane.pick_server(Placement::Server(srv(0))),
            Err(AeonError::ServerNotFound(srv(0)))
        );
        // Co-location with a context lost to the crash is refused too.
        assert_eq!(
            plane.pick_server(Placement::WithContext(cx(1))),
            Err(AeonError::ServerNotFound(srv(0)))
        );
        assert_eq!(
            plane.pick_server(Placement::WithContext(cx(7))),
            Err(AeonError::ContextNotFound(cx(7)))
        );
        plane.mark_crashed(srv(1)).unwrap();
        assert!(matches!(
            plane.pick_server(Placement::Auto),
            Err(AeonError::Config(_))
        ));
    }

    #[test]
    fn a_crash_keeps_identities_but_not_the_count() {
        let mut plane = plane_with_servers(2, None);
        plane
            .declare_root(cx(1), "Room", Placement::Server(srv(0)))
            .unwrap();
        plane
            .declare_root(cx(2), "Room", Placement::Server(srv(1)))
            .unwrap();
        assert_eq!(
            plane.mark_crashed(srv(9)),
            Err(AeonError::ServerNotFound(srv(9)))
        );
        assert_eq!(plane.mark_crashed(srv(1)), Ok(vec![cx(2)]));
        // "Contexts placed on online servers": the lost one does not count,
        // yet keeps its class and placement for a re-host.
        assert_eq!(plane.context_count(), 1);
        assert_eq!(plane.placement_of(cx(2)), Ok(srv(1)));
        assert_eq!(plane.class_of(cx(2)), Ok("Room"));
        plane.set_placement(cx(2), srv(0)).unwrap();
        assert_eq!(plane.context_count(), 2);
    }

    #[test]
    fn class_constraints_are_enforced_on_edges() {
        let mut plane = plane_with_servers(1, Some(game_classes()));
        plane.declare_root(cx(1), "Room", Placement::Auto).unwrap();
        plane.declare_root(cx(2), "Item", Placement::Auto).unwrap();
        plane.add_edge(cx(1), cx(2)).unwrap();
        let before = fingerprint(&plane);
        assert_eq!(
            plane.add_edge(cx(2), cx(1)),
            Err(AeonError::ownership(cx(2), cx(1)))
        );
        assert_eq!(
            plane.add_edge(cx(1), cx(9)),
            Err(AeonError::ContextNotFound(cx(9)))
        );
        // Reflexive pairs pass the class check, so the cycle check speaks.
        assert!(matches!(
            plane.add_edge(cx(1), cx(1)),
            Err(AeonError::CycleDetected { .. })
        ));
        assert_eq!(fingerprint(&plane), before);
        plane.remove_edge(cx(1), cx(2)).unwrap();
        assert!(!plane.may_call(cx(1), cx(2)));
    }

    #[test]
    fn declare_root_refusals_name_their_cause_and_change_nothing() {
        let mut plane = plane_with_servers(1, Some(game_classes()));
        plane.declare_root(cx(1), "Room", Placement::Auto).unwrap();
        let before = fingerprint(&plane);
        assert!(matches!(
            plane.declare_root(cx(2), "Dragon", Placement::Auto),
            Err(AeonError::Config(reason)) if reason.contains("not declared")
        ));
        assert_eq!(
            plane.declare_root(cx(2), "Room", Placement::Server(srv(3))),
            Err(AeonError::ServerNotFound(srv(3)))
        );
        assert_eq!(
            plane.declare_root(cx(2), "Room", Placement::WithContext(cx(5))),
            Err(AeonError::ContextNotFound(cx(5)))
        );
        assert!(matches!(
            plane.declare_root(cx(1), "Room", Placement::Auto),
            Err(AeonError::Internal(_))
        ));
        assert_eq!(fingerprint(&plane), before);
    }

    #[test]
    fn declare_owned_links_every_owner_or_nothing() {
        let mut plane = plane_with_servers(2, Some(game_classes()));
        plane
            .declare_root(cx(1), "Room", Placement::Server(srv(1)))
            .unwrap();
        plane
            .declare_owned(cx(2), "Player", &[cx(1)])
            .expect("a Room may own a Player");
        // Placed next to the first owner, owned by every owner.
        assert_eq!(
            plane.declare_owned(cx(3), "Item", &[cx(2), cx(1)]),
            Ok(srv(1))
        );
        assert_eq!(plane.children_of(cx(1), Some("Item")), Ok(vec![cx(3)]));
        assert_eq!(plane.children_of(cx(2), None), Ok(vec![cx(3)]));

        let before = fingerprint(&plane);
        let placeholder = cx(u64::MAX);
        assert!(matches!(
            plane.declare_owned(cx(4), "Item", &[]),
            Err(AeonError::Config(_))
        ));
        assert!(matches!(
            plane.declare_owned(cx(4), "Dragon", &[cx(1)]),
            Err(AeonError::Config(reason)) if reason.contains("not declared")
        ));
        assert_eq!(
            plane.declare_owned(cx(4), "Item", &[cx(8)]),
            Err(AeonError::ContextNotFound(cx(8)))
        );
        // The child never existed, so the violation cannot name it.
        assert_eq!(
            plane.declare_owned(cx(4), "Room", &[cx(2)]),
            Err(AeonError::ownership(cx(2), placeholder))
        );
        // A forbidden *second* owner refuses the whole creation: the first
        // edge is not left behind.
        assert_eq!(
            plane.declare_owned(cx(4), "Player", &[cx(1), cx(3)]),
            Err(AeonError::ownership(cx(3), placeholder))
        );
        assert!(matches!(
            plane.declare_owned(cx(3), "Item", &[cx(1)]),
            Err(AeonError::Internal(_))
        ));
        assert_eq!(fingerprint(&plane), before);
        // Nothing is created next to an owner lost to a crash.
        plane.mark_crashed(srv(1)).unwrap();
        let before = fingerprint(&plane);
        assert_eq!(
            plane.declare_owned(cx(4), "Item", &[cx(1)]),
            Err(AeonError::ServerNotFound(srv(1)))
        );
        assert_eq!(fingerprint(&plane), before);
    }

    #[test]
    fn dominator_of_shared_child_is_the_common_owner() {
        let mut plane = plane_with_servers(1, None);
        plane.declare_root(cx(1), "Room", Placement::Auto).unwrap();
        plane.declare_owned(cx(2), "Player", &[cx(1)]).unwrap();
        plane.declare_owned(cx(3), "Player", &[cx(1)]).unwrap();
        plane.declare_owned(cx(4), "Item", &[cx(2), cx(3)]).unwrap();
        assert_eq!(plane.dominator_of(cx(2)), Ok(Dominator::Context(cx(1))));
        assert_eq!(plane.dominator_of(cx(1)), Ok(Dominator::Context(cx(1))));
        assert!(plane.may_call(cx(1), cx(4)));
        assert!(!plane.may_call(cx(4), cx(1)));
        assert_eq!(plane.children_of(cx(1), Some("Player")).unwrap().len(), 2);
        assert_eq!(plane.class_of(cx(4)), Ok("Item"));
        // The cache follows the graph: unshare the Item and Player 2 is on
        // its own again.
        plane.remove_edge(cx(3), cx(4)).unwrap();
        assert_eq!(plane.dominator_of(cx(2)), Ok(Dominator::Context(cx(2))));
    }

    #[test]
    fn forget_clears_graph_and_placement() {
        let mut plane = plane_with_servers(1, None);
        plane.declare_root(cx(1), "Room", Placement::Auto).unwrap();
        plane.declare_owned(cx(2), "Item", &[cx(1)]).unwrap();
        plane.forget(cx(2)).unwrap();
        assert_eq!(
            plane.placement_of(cx(2)),
            Err(AeonError::ContextNotFound(cx(2)))
        );
        assert_eq!(plane.children_of(cx(1), None), Ok(vec![]));
        assert_eq!(plane.forget(cx(2)), Err(AeonError::ContextNotFound(cx(2))));
    }

    #[test]
    fn retire_server_checks_and_flips_in_one_step() {
        let mut plane = plane_with_servers(2, None);
        plane
            .declare_root(cx(1), "Room", Placement::Server(srv(1)))
            .unwrap();
        let before = fingerprint(&plane);
        assert!(matches!(
            plane.retire_server(srv(1)),
            Err(AeonError::Config(reason)) if reason.contains("still hosts 1 contexts")
        ));
        assert_eq!(
            plane.retire_server(srv(5)),
            Err(AeonError::ServerNotFound(srv(5)))
        );
        assert_eq!(fingerprint(&plane), before);
        assert!(plane.is_online(srv(1)), "a refused retire leaves it online");
        plane.retire_server(srv(0)).unwrap();
        assert_eq!(plane.online_servers(), vec![srv(1)]);
        // Retiring twice is refused like an unknown server.
        assert_eq!(
            plane.retire_server(srv(0)),
            Err(AeonError::ServerNotFound(srv(0)))
        );
    }

    #[test]
    fn set_placement_needs_a_known_context_and_an_online_server() {
        let mut plane = plane_with_servers(2, None);
        plane
            .declare_root(cx(1), "Room", Placement::Server(srv(0)))
            .unwrap();
        plane.retire_server(srv(1)).unwrap();
        let before = fingerprint(&plane);
        assert_eq!(
            plane.set_placement(cx(2), srv(0)),
            Err(AeonError::ContextNotFound(cx(2)))
        );
        assert_eq!(
            plane.set_placement(cx(1), srv(1)),
            Err(AeonError::ServerNotFound(srv(1)))
        );
        assert_eq!(fingerprint(&plane), before);
    }

    #[test]
    fn a_reserved_server_receives_nothing_until_registered() {
        let mut plane = plane_with_servers(1, None);
        let reserved = plane.reserve_server();
        assert_eq!(reserved, srv(1));
        assert!(!plane.is_online(reserved));
        assert_eq!(plane.pick_server(Placement::Auto), Ok(srv(0)));
        plane.register_server(reserved);
        assert_eq!(plane.online_servers(), vec![srv(0), srv(1)]);
        // Ids handed in from outside (a process mesh) push the counter on.
        plane.register_server(srv(7));
        assert_eq!(plane.add_server(), srv(8));
    }

    const CLASSES: [&str; 3] = ["Room", "Item", "Dragon"];

    proptest! {
        // 64 cases in the debug leg, 5 000 in CI's release leg, like the
        // dominator properties.
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 5_000 }
        ))]

        /// Any sequence of control-plane operations keeps the plane
        /// coherent, refusals are free of side effects, and the cached
        /// dominators always answer for the graph as it is now.
        #[test]
        fn plane_stays_coherent_under_random_operations(
            closure in any::<bool>(),
            constrained in any::<bool>(),
            ops in proptest::collection::vec((0u8..10, 0u64..10, 0u64..10), 1..80),
        ) {
            let mode = if closure { DominatorMode::Closure } else { DominatorMode::PaperFormula };
            // `Room` owns `Item`, either may own its own kind, `Dragon` is
            // not declared.
            let classes = constrained.then(|| {
                let mut classes = ClassGraph::new();
                classes.add_constraint("Room", "Item");
                classes
            });
            let mut plane = ControlPlane::new(mode, classes);
            plane.add_server();
            for (op, a, b) in ops {
                let before = fingerprint(&plane);
                let class = CLASSES[(a + b) as usize % 3];
                let server = srv(b as u32 % 4);
                let outcome: Result<()> = match op {
                    0 => { plane.add_server(); Ok(()) }
                    1 => {
                        let placement = match b % 3 {
                            0 => Placement::Auto,
                            1 => Placement::Server(server),
                            _ => Placement::WithContext(cx(b)),
                        };
                        plane.declare_root(cx(a), class, placement).map(|_| ())
                    }
                    2 => plane.declare_owned(cx(a), class, &[cx(b)]).map(|_| ()),
                    3 => plane
                        .declare_owned(cx(a), class, &[cx(b), cx((a + b) % 10)])
                        .map(|_| ()),
                    4 => plane.add_edge(cx(a), cx(b)),
                    5 => plane.remove_edge(cx(a), cx(b)),
                    6 => plane.set_placement(cx(a), server),
                    7 => plane.mark_crashed(server).map(|_| ()),
                    8 => plane.retire_server(server),
                    _ => plane.forget(cx(a)),
                };
                if outcome.is_err() {
                    prop_assert_eq!(fingerprint(&plane), before, "refused op {} changed state", op);
                }
                for (context, server) in &plane.placement {
                    prop_assert!(plane.servers.contains_key(server));
                    prop_assert!(plane.graph.contains(*context));
                }
                // The kept counts are what a recount gives, and the three
                // rules that read them answer as the scans they replaced.
                let recount = |server: &ServerId| {
                    plane.placement.values().filter(|s| *s == server).count()
                };
                for (id, known) in &plane.servers {
                    prop_assert_eq!(known.hosted, recount(id), "count of {}", id);
                }
                let online = plane.online_servers();
                prop_assert_eq!(
                    plane.context_count(),
                    online.iter().map(recount).sum::<usize>()
                );
                let least = online.iter().copied().min_by_key(|s| (recount(s), s.raw()));
                prop_assert_eq!(plane.pick_server(Placement::Auto).ok(), least);
                prop_assert!(plane.graph.is_acyclic());
                for context in plane.graph.contexts() {
                    prop_assert_eq!(
                        plane.dominator_of(context),
                        dominator_of(plane.graph(), context, mode),
                        "stale dominator for {} after op {}", context, op
                    );
                }
            }
        }
    }
}
