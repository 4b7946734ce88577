//! The runtime ownership DAG.

use aeon_types::{AeonError, ContextId, Result, Value};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Metadata stored per context node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct Node {
    /// Name of the contextclass the node is an instance of.
    class: String,
    /// Children (contexts directly owned by this one).
    children: BTreeSet<ContextId>,
    /// Parents (contexts that directly own this one).
    parents: BTreeSet<ContextId>,
}

/// The ownership network `G`: a directed acyclic graph over contexts where
/// an edge `a -> b` means "`a` directly owns `b`" (a field of `a` references
/// `b`).
///
/// The graph is the ground truth consulted by the execution protocol
/// (dominators, activation paths) and by the elasticity manager (placement,
/// migration of a context together with its subtree).  Every mutation is
/// cycle-checked so the DAG invariant can never be violated at runtime, and
/// bumps a version counter that dominator caches use for invalidation.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OwnershipGraph {
    nodes: BTreeMap<ContextId, Node>,
    version: u64,
}

impl OwnershipGraph {
    /// Creates an empty ownership network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of contexts in the network.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` when the network contains no contexts.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Monotonically increasing version, bumped on every mutation.
    ///
    /// Used by [`crate::DominatorResolver`] to invalidate its cache.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Returns `true` when `id` is a known context.
    pub fn contains(&self, id: ContextId) -> bool {
        self.nodes.contains_key(&id)
    }

    /// Name of the contextclass of `id`.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] for unknown contexts.
    pub fn class_of(&self, id: ContextId) -> Result<&str> {
        self.node(id).map(|n| n.class.as_str())
    }

    /// Registers a new context with no owners.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::Internal`] if the id is already registered.
    pub fn add_context(&mut self, id: ContextId, class: impl Into<String>) -> Result<()> {
        if self.nodes.contains_key(&id) {
            return Err(AeonError::internal(format!(
                "context {id} already registered"
            )));
        }
        self.nodes.insert(
            id,
            Node {
                class: class.into(),
                children: BTreeSet::new(),
                parents: BTreeSet::new(),
            },
        );
        self.version += 1;
        Ok(())
    }

    /// Removes a context and every edge incident to it.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] for unknown contexts.
    pub fn remove_context(&mut self, id: ContextId) -> Result<()> {
        let node = self
            .nodes
            .remove(&id)
            .ok_or(AeonError::ContextNotFound(id))?;
        for parent in &node.parents {
            if let Some(p) = self.nodes.get_mut(parent) {
                p.children.remove(&id);
            }
        }
        for child in &node.children {
            if let Some(c) = self.nodes.get_mut(child) {
                c.parents.remove(&id);
            }
        }
        self.version += 1;
        Ok(())
    }

    /// Adds a directly-owned edge `owner -> owned`.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ContextNotFound`] if either endpoint is unknown.
    /// * [`AeonError::CycleDetected`] if the edge would create a cycle
    ///   (including a self-loop).  The graph is left unchanged in that case.
    pub fn add_edge(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        if !self.contains(owner) {
            return Err(AeonError::ContextNotFound(owner));
        }
        if !self.contains(owned) {
            return Err(AeonError::ContextNotFound(owned));
        }
        if owner == owned || self.is_ancestor(owned, owner) {
            return Err(AeonError::CycleDetected {
                from: owner,
                to: owned,
            });
        }
        let inserted = self
            .nodes
            .get_mut(&owner)
            .expect("checked")
            .children
            .insert(owned);
        self.nodes
            .get_mut(&owned)
            .expect("checked")
            .parents
            .insert(owner);
        if inserted {
            self.version += 1;
        }
        Ok(())
    }

    /// Removes the edge `owner -> owned` if present.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] if either endpoint is unknown.
    pub fn remove_edge(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        if !self.contains(owner) {
            return Err(AeonError::ContextNotFound(owner));
        }
        if !self.contains(owned) {
            return Err(AeonError::ContextNotFound(owned));
        }
        let removed = self
            .nodes
            .get_mut(&owner)
            .expect("checked")
            .children
            .remove(&owned);
        self.nodes
            .get_mut(&owned)
            .expect("checked")
            .parents
            .remove(&owner);
        if removed {
            self.version += 1;
        }
        Ok(())
    }

    /// Direct children (directly-owned contexts) of `id`.
    pub fn children(&self, id: ContextId) -> Result<&BTreeSet<ContextId>> {
        self.node(id).map(|n| &n.children)
    }

    /// Direct parents (direct owners) of `id`.
    pub fn parents(&self, id: ContextId) -> Result<&BTreeSet<ContextId>> {
        self.node(id).map(|n| &n.parents)
    }

    /// All contexts with no owner (the maxima of the ownership order).
    pub fn roots(&self) -> Vec<ContextId> {
        self.nodes
            .iter()
            .filter(|(_, n)| n.parents.is_empty())
            .map(|(id, _)| *id)
            .collect()
    }

    /// All contexts in the network, in ascending id order.
    pub fn contexts(&self) -> impl Iterator<Item = ContextId> + '_ {
        self.nodes.keys().copied()
    }

    /// Iterates `(owner, owned)` edges.
    pub fn edges(&self) -> impl Iterator<Item = (ContextId, ContextId)> + '_ {
        self.nodes
            .iter()
            .flat_map(|(id, n)| n.children.iter().map(move |c| (*id, *c)))
    }

    /// The set of strict descendants of `id` (everything transitively owned,
    /// excluding `id` itself).
    pub fn descendants(&self, id: ContextId) -> Result<BTreeSet<ContextId>> {
        self.node(id)?;
        Ok(self.reach(id, |n| &n.children))
    }

    /// The subtree rooted at `id` (the root plus all its descendants) in a
    /// topological order: every owner precedes every context it
    /// (transitively) owns, with ties broken by context id so the order is
    /// deterministic.
    ///
    /// This is the acquisition order used by coordinated subtree freezes
    /// (snapshot / restore): because method calls only travel *down*
    /// ownership edges, acquiring member locks owner-before-owned can never
    /// deadlock against an in-flight event that already holds a member.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] if `id` is unknown.
    pub fn subtree_topological(&self, id: ContextId) -> Result<Vec<ContextId>> {
        let mut members = self.descendants(id)?;
        members.insert(id);
        // Kahn's algorithm over the edges internal to the member set; the
        // ready set is a BTreeSet so equal-depth members come out in id
        // order.
        let mut indegree: BTreeMap<ContextId, usize> = members.iter().map(|m| (*m, 0)).collect();
        for member in &members {
            for child in self.children(*member).expect("member sets are closed") {
                if let Some(d) = indegree.get_mut(child) {
                    *d += 1;
                }
            }
        }
        let mut ready: BTreeSet<ContextId> = indegree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(m, _)| *m)
            .collect();
        let mut order = Vec::with_capacity(members.len());
        while let Some(next) = ready.iter().next().copied() {
            ready.remove(&next);
            order.push(next);
            for child in self.children(next).expect("member sets are closed") {
                if let Some(d) = indegree.get_mut(child) {
                    *d -= 1;
                    if *d == 0 {
                        ready.insert(*child);
                    }
                }
            }
        }
        debug_assert_eq!(order.len(), members.len(), "ownership DAG is acyclic");
        Ok(order)
    }

    /// The set of strict ancestors of `id` (everything that transitively
    /// owns it, excluding `id` itself).
    pub fn ancestors(&self, id: ContextId) -> Result<BTreeSet<ContextId>> {
        self.node(id)?;
        Ok(self.reach(id, |n| &n.parents))
    }

    /// Returns `true` if `ancestor` transitively owns `descendant`
    /// (strictly: a context is not its own ancestor).
    pub fn is_ancestor(&self, ancestor: ContextId, descendant: ContextId) -> bool {
        if ancestor == descendant || !self.contains(ancestor) {
            return false;
        }
        // Contextclasses overwhelmingly call their direct children: answer
        // that from the parent set before allocating anything.
        let Some(node) = self.nodes.get(&descendant) else {
            return false;
        };
        if node.parents.contains(&ancestor) {
            return true;
        }
        // BFS from `descendant` upwards; ownership chains are short in
        // practice (the class DAG bounds their length).
        let mut queue = VecDeque::from([descendant]);
        let mut seen = BTreeSet::from([descendant]);
        while let Some(cur) = queue.pop_front() {
            if let Some(node) = self.nodes.get(&cur) {
                for p in &node.parents {
                    if *p == ancestor {
                        return true;
                    }
                    if seen.insert(*p) {
                        queue.push_back(*p);
                    }
                }
            }
        }
        false
    }

    /// Returns `true` if `caller` is allowed to invoke a method on `callee`:
    /// either they are the same context or `caller` transitively owns
    /// `callee` (§3: "an event executing in a certain context C can issue
    /// method calls to any contexts that C owns").
    pub fn may_call(&self, caller: ContextId, callee: ContextId) -> bool {
        caller == callee || self.is_ancestor(caller, callee)
    }

    /// Whether the graph is acyclic.  Mutations preserve acyclicity, so this
    /// only returns `false` for graphs deserialised from untrusted input.
    pub fn is_acyclic(&self) -> bool {
        // Kahn's algorithm.
        let mut indegree: BTreeMap<ContextId, usize> = self
            .nodes
            .iter()
            .map(|(id, n)| (*id, n.parents.len()))
            .collect();
        let mut queue: VecDeque<ContextId> = indegree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(id, _)| *id)
            .collect();
        let mut visited = 0usize;
        while let Some(cur) = queue.pop_front() {
            visited += 1;
            if let Some(node) = self.nodes.get(&cur) {
                for child in &node.children {
                    if let Some(d) = indegree.get_mut(child) {
                        *d -= 1;
                        if *d == 0 {
                            queue.push_back(*child);
                        }
                    }
                }
            }
        }
        visited == self.nodes.len()
    }

    /// Contexts in topological order (owners before owned).
    pub fn topological_order(&self) -> Vec<ContextId> {
        let mut indegree: BTreeMap<ContextId, usize> = self
            .nodes
            .iter()
            .map(|(id, n)| (*id, n.parents.len()))
            .collect();
        let mut queue: VecDeque<ContextId> = indegree
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(id, _)| *id)
            .collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(cur) = queue.pop_front() {
            order.push(cur);
            for child in &self.nodes[&cur].children {
                let d = indegree.get_mut(child).expect("child registered");
                *d -= 1;
                if *d == 0 {
                    queue.push_back(*child);
                }
            }
        }
        order
    }

    /// Serialises the graph into a [`Value`] for persistence in the cloud
    /// storage substrate (the eManager stores the ownership network next to
    /// the context mapping, §5.1).
    pub fn to_value(&self) -> Value {
        let nodes = self
            .nodes
            .iter()
            .map(|(id, n)| {
                Value::map([
                    ("id", Value::from(*id)),
                    ("class", Value::from(n.class.clone())),
                    (
                        "children",
                        Value::List(n.children.iter().map(|c| Value::from(*c)).collect()),
                    ),
                ])
            })
            .collect();
        Value::map([
            ("version", Value::from(self.version as i64)),
            ("nodes", Value::List(nodes)),
        ])
    }

    /// Reconstructs a graph from [`OwnershipGraph::to_value`] output.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::Codec`] when the value does not have the
    /// expected shape, and [`AeonError::CycleDetected`] when the encoded
    /// graph is not acyclic.
    pub fn from_value(value: &Value) -> Result<Self> {
        let nodes = value
            .get("nodes")
            .and_then(Value::as_list)
            .ok_or_else(|| AeonError::Codec("ownership graph: missing nodes".into()))?;
        let mut graph = OwnershipGraph::new();
        // First pass: contexts.
        for entry in nodes {
            let id = entry
                .get("id")
                .and_then(Value::as_context)
                .ok_or_else(|| AeonError::Codec("ownership graph: node missing id".into()))?;
            let class = entry
                .get("class")
                .and_then(Value::as_str)
                .ok_or_else(|| AeonError::Codec("ownership graph: node missing class".into()))?;
            graph.add_context(id, class)?;
        }
        // Second pass: edges (cycle-checked by add_edge).
        for entry in nodes {
            let id = entry
                .get("id")
                .and_then(Value::as_context)
                .expect("validated above");
            if let Some(children) = entry.get("children").and_then(Value::as_list) {
                for child in children {
                    let child = child.as_context().ok_or_else(|| {
                        AeonError::Codec("ownership graph: child is not a context ref".into())
                    })?;
                    graph.add_edge(id, child)?;
                }
            }
        }
        graph.version = value
            .get("version")
            .and_then(Value::as_i64)
            .unwrap_or(graph.version as i64) as u64;
        Ok(graph)
    }

    fn node(&self, id: ContextId) -> Result<&Node> {
        self.nodes.get(&id).ok_or(AeonError::ContextNotFound(id))
    }

    fn reach<'a, F>(&'a self, start: ContextId, next: F) -> BTreeSet<ContextId>
    where
        F: Fn(&'a Node) -> &'a BTreeSet<ContextId>,
    {
        let mut out = BTreeSet::new();
        let mut queue = VecDeque::from([start]);
        while let Some(cur) = queue.pop_front() {
            if let Some(node) = self.nodes.get(&cur) {
                for n in next(node) {
                    if out.insert(*n) {
                        queue.push_back(*n);
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::game_graph;
    use proptest::prelude::*;

    fn ctx(n: u64) -> ContextId {
        ContextId::new(n)
    }

    fn chain(n: u64) -> OwnershipGraph {
        let mut g = OwnershipGraph::new();
        for i in 0..n {
            g.add_context(ctx(i), "C").unwrap();
            if i > 0 {
                g.add_edge(ctx(i - 1), ctx(i)).unwrap();
            }
        }
        g
    }

    #[test]
    fn add_and_remove_contexts() {
        let mut g = OwnershipGraph::new();
        assert!(g.is_empty());
        g.add_context(ctx(1), "Room").unwrap();
        assert!(g.contains(ctx(1)));
        assert_eq!(g.class_of(ctx(1)).unwrap(), "Room");
        assert!(
            g.add_context(ctx(1), "Room").is_err(),
            "duplicate registration rejected"
        );
        g.remove_context(ctx(1)).unwrap();
        assert!(!g.contains(ctx(1)));
        assert!(g.remove_context(ctx(1)).is_err());
    }

    #[test]
    fn edges_require_known_endpoints() {
        let mut g = OwnershipGraph::new();
        g.add_context(ctx(1), "A").unwrap();
        assert!(matches!(
            g.add_edge(ctx(1), ctx(2)),
            Err(AeonError::ContextNotFound(_))
        ));
        assert!(matches!(
            g.add_edge(ctx(3), ctx(1)),
            Err(AeonError::ContextNotFound(_))
        ));
    }

    #[test]
    fn self_loops_and_cycles_are_rejected() {
        let mut g = chain(3);
        assert!(matches!(
            g.add_edge(ctx(1), ctx(1)),
            Err(AeonError::CycleDetected { .. })
        ));
        assert!(matches!(
            g.add_edge(ctx(2), ctx(0)),
            Err(AeonError::CycleDetected { .. })
        ));
        // Graph unchanged by the failed mutations.
        assert!(g.is_acyclic());
        assert_eq!(g.descendants(ctx(0)).unwrap().len(), 2);
    }

    #[test]
    fn multi_ownership_is_allowed() {
        let (g, ids) = game_graph();
        let parents = g.parents(ids.treasure).unwrap();
        assert!(parents.contains(&ids.player1));
        assert!(parents.contains(&ids.player2));
        assert!(parents.contains(&ids.kings_room));
    }

    #[test]
    fn descendants_and_ancestors() {
        let (g, ids) = game_graph();
        let desc = g.descendants(ids.kings_room).unwrap();
        assert!(desc.contains(&ids.player1));
        assert!(desc.contains(&ids.treasure));
        assert!(!desc.contains(&ids.armory));
        let anc = g.ancestors(ids.sword).unwrap();
        assert!(anc.contains(&ids.player3));
        assert!(anc.contains(&ids.weapons_vault));
        assert!(anc.contains(&ids.armory));
        assert!(anc.contains(&ids.castle));
        assert!(!anc.contains(&ids.kings_room));
    }

    #[test]
    fn subtree_topological_orders_owners_before_owned() {
        let (g, ids) = game_graph();
        let order = g.subtree_topological(ids.castle).unwrap();
        let mut members = g.descendants(ids.castle).unwrap();
        members.insert(ids.castle);
        assert_eq!(order.len(), members.len());
        let pos: BTreeMap<ContextId, usize> =
            order.iter().enumerate().map(|(i, c)| (*c, i)).collect();
        for (owner, owned) in g.edges() {
            if pos.contains_key(&owner) && pos.contains_key(&owned) {
                assert!(pos[&owner] < pos[&owned], "{owner} before {owned}");
            }
        }
        // Deterministic: a second call yields the same order.
        assert_eq!(order, g.subtree_topological(ids.castle).unwrap());
    }

    #[test]
    fn subtree_topological_handles_id_order_inversions() {
        // An owner created *after* the context it owns: id order would
        // acquire child before parent, the topological order must not.
        let mut g = OwnershipGraph::new();
        g.add_context(ctx(1), "Root").unwrap();
        g.add_context(ctx(2), "Child").unwrap();
        g.add_context(ctx(3), "Middle").unwrap();
        g.add_edge(ctx(1), ctx(3)).unwrap();
        g.add_edge(ctx(3), ctx(2)).unwrap();
        let order = g.subtree_topological(ctx(1)).unwrap();
        assert_eq!(order, vec![ctx(1), ctx(3), ctx(2)]);
        assert!(g.subtree_topological(ctx(99)).is_err());
    }

    #[test]
    fn may_call_follows_ownership() {
        let (g, ids) = game_graph();
        assert!(g.may_call(ids.player1, ids.treasure));
        assert!(g.may_call(ids.kings_room, ids.treasure));
        assert!(g.may_call(ids.castle, ids.sword));
        assert!(g.may_call(ids.player1, ids.player1));
        assert!(!g.may_call(ids.player1, ids.player2));
        assert!(!g.may_call(ids.treasure, ids.player1));
    }

    #[test]
    fn roots_and_topological_order() {
        let (g, ids) = game_graph();
        assert_eq!(g.roots(), vec![ids.castle]);
        let order = g.topological_order();
        assert_eq!(order.len(), g.len());
        let pos = |c: ContextId| order.iter().position(|x| *x == c).unwrap();
        for (owner, owned) in g.edges() {
            assert!(pos(owner) < pos(owned), "{owner} must precede {owned}");
        }
    }

    #[test]
    fn removing_edges_updates_both_sides() {
        let (mut g, ids) = game_graph();
        g.remove_edge(ids.player1, ids.treasure).unwrap();
        assert!(!g.children(ids.player1).unwrap().contains(&ids.treasure));
        assert!(!g.parents(ids.treasure).unwrap().contains(&ids.player1));
        // Removing a non-existent edge is a no-op that does not bump version.
        let v = g.version();
        g.remove_edge(ids.player1, ids.treasure).unwrap();
        assert_eq!(g.version(), v);
    }

    #[test]
    fn removing_context_detaches_neighbours() {
        let (mut g, ids) = game_graph();
        g.remove_context(ids.treasure).unwrap();
        assert!(!g.children(ids.player1).unwrap().contains(&ids.treasure));
        assert!(!g.children(ids.kings_room).unwrap().contains(&ids.treasure));
    }

    #[test]
    fn version_bumps_on_mutation_only() {
        let mut g = OwnershipGraph::new();
        let v0 = g.version();
        g.add_context(ctx(1), "A").unwrap();
        g.add_context(ctx(2), "B").unwrap();
        let v1 = g.version();
        assert!(v1 > v0);
        g.add_edge(ctx(1), ctx(2)).unwrap();
        let v2 = g.version();
        assert!(v2 > v1);
        // Re-adding the same edge is idempotent.
        g.add_edge(ctx(1), ctx(2)).unwrap();
        assert_eq!(g.version(), v2);
    }

    #[test]
    fn value_round_trip_preserves_structure() {
        let (g, _) = game_graph();
        let v = g.to_value();
        let g2 = OwnershipGraph::from_value(&v).unwrap();
        assert_eq!(g2.len(), g.len());
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
        for c in g.contexts() {
            assert_eq!(g.class_of(c).unwrap(), g2.class_of(c).unwrap());
        }
    }

    #[test]
    fn from_value_rejects_garbage() {
        assert!(OwnershipGraph::from_value(&Value::Null).is_err());
        assert!(OwnershipGraph::from_value(&Value::map([("nodes", Value::Int(1))])).is_err());
    }

    /// Strategy producing an arbitrary sequence of graph mutations.
    fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
        proptest::collection::vec((0u8..3, 0u64..12, 0u64..12), 1..120)
    }

    proptest! {
        /// No sequence of mutations can ever produce a cyclic graph, and
        /// parent/child links always stay symmetric.
        #[test]
        fn dag_invariant_under_random_mutation(ops in arb_ops()) {
            let mut g = OwnershipGraph::new();
            for (op, a, b) in ops {
                let (a, b) = (ctx(a), ctx(b));
                match op {
                    0 => { let _ = g.add_context(a, "X"); }
                    1 => { let _ = g.add_edge(a, b); }
                    _ => { let _ = g.remove_edge(a, b); }
                }
            }
            prop_assert!(g.is_acyclic());
            for c in g.contexts().collect::<Vec<_>>() {
                for child in g.children(c).unwrap().clone() {
                    prop_assert!(g.parents(child).unwrap().contains(&c));
                }
                for parent in g.parents(c).unwrap().clone() {
                    prop_assert!(g.children(parent).unwrap().contains(&c));
                }
            }
        }

        /// `is_ancestor` agrees with membership in `descendants`.
        #[test]
        fn ancestor_agrees_with_descendants(ops in arb_ops()) {
            let mut g = OwnershipGraph::new();
            for (op, a, b) in ops {
                let (a, b) = (ctx(a), ctx(b));
                match op {
                    0 => { let _ = g.add_context(a, "X"); }
                    1 => { let _ = g.add_edge(a, b); }
                    _ => { let _ = g.remove_edge(a, b); }
                }
            }
            let all: Vec<_> = g.contexts().collect();
            for &a in &all {
                let desc = g.descendants(a).unwrap();
                for &b in &all {
                    prop_assert_eq!(g.is_ancestor(a, b), desc.contains(&b));
                }
            }
        }
    }
}
