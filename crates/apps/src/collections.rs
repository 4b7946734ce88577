//! Distributed data structures built from contexts.
//!
//! §3 of the paper motivates the *reflexive* exception of the contextclass
//! analysis ("this exception ... allows for the construction of inductive
//! data structures like linked-lists, or trees") and §2.1 calls out that
//! EventWave cannot express them because its ownership structure is a fixed
//! tree.  This module implements two such structures as declarative
//! contextclasses, so every node is an independently migratable context
//! and every operation is an atomic event:
//!
//! * [`ListSet`] — a sorted singly linked list set: `ListSet` owns the head
//!   `ListNode`, every `ListNode` owns its successor (reflexive ownership);
//! * [`SearchTree`] — a binary search tree of `TreeNode` contexts (the
//!   paper's "trees"; a balanced B-tree would follow the same pattern with
//!   wider nodes).
//!
//! Both mutate the ownership graph at runtime (splicing a node out of the
//! list, attaching tree children), exercising `create_child`,
//! `add_ownership` and `remove_ownership` from inside events.

use aeon_api::{Deployment, Placement};
use aeon_ownership::ClassGraph;
use aeon_runtime::{context_class, AeonRuntime, ContextClass, Invocation};
use aeon_types::{args, Args, ContextId, Result, Value};

/// Class constraints of the collection structures (note the reflexive
/// `ListNode ≤ ListNode` and `TreeNode ≤ TreeNode` edges the analysis
/// permits), with the method metadata declared from the method tables.
pub fn collections_class_graph() -> ClassGraph {
    let mut classes = ClassGraph::new();
    classes.add_constraint("ListSet", "ListNode");
    classes.add_constraint("ListNode", "ListNode");
    classes.add_constraint("SearchTree", "TreeNode");
    classes.add_constraint("TreeNode", "TreeNode");
    ListSet::table().declare_in(&mut classes);
    ListNode::table().declare_in(&mut classes);
    SearchTree::table().declare_in(&mut classes);
    TreeNode::table().declare_in(&mut classes);
    classes
}

// ---------------------------------------------------------------------------
// Linked list set
// ---------------------------------------------------------------------------

/// Head context of a sorted linked list set of integers.
///
/// Methods: `insert(key) -> bool`, `remove(key) -> bool`,
/// `contains(key) -> bool` *(readonly)*, `len -> int` *(readonly)*,
/// `to_list -> [int]` *(readonly)*.
#[derive(Debug, Default)]
pub struct ListSet {
    head: Option<ContextId>,
    len: i64,
}

impl ListSet {
    /// Creates an empty list set.
    pub fn new() -> Self {
        Self::default()
    }

    fn insert(&mut self, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let key = args.get_i64(0)?;
        match self.head {
            None => {
                let node = inv.create_child(Box::new(ListNode::new(key)))?;
                self.head = Some(node);
                self.len += 1;
                Ok(Value::from(true))
            }
            Some(head) => {
                // A smaller key becomes the new head, owning the old one.
                let head_key = inv.call(head, "key", args![])?.as_i64().unwrap_or(0);
                if key < head_key {
                    let node = inv.create_child(Box::new(ListNode::new(key)))?;
                    inv.call(node, "set_next", args![head])?;
                    inv.remove_ownership(head)?;
                    self.head = Some(node);
                    self.len += 1;
                    return Ok(Value::from(true));
                }
                if key == head_key {
                    return Ok(Value::from(false));
                }
                let inserted = inv.call(head, "insert_after", args![key])?;
                if inserted.as_bool().unwrap_or(false) {
                    self.len += 1;
                }
                Ok(inserted)
            }
        }
    }

    fn remove(&mut self, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let key = args.get_i64(0)?;
        let Some(head) = self.head else {
            return Ok(Value::from(false));
        };
        let head_key = inv.call(head, "key", args![])?.as_i64().unwrap_or(0);
        if key == head_key {
            // Splice the head out: adopt its successor, then detach and
            // disown the removed node.
            let next = inv.call(head, "next", args![])?;
            match next.as_context() {
                Some(next_id) => {
                    inv.add_ownership(next_id)?;
                    self.head = Some(next_id);
                }
                None => self.head = None,
            }
            inv.call(head, "detach", args![])?;
            inv.remove_ownership(head)?;
            self.len -= 1;
            return Ok(Value::from(true));
        }
        let removed = inv.call(head, "remove_after", args![key])?;
        if removed.as_bool().unwrap_or(false) {
            self.len -= 1;
        }
        Ok(removed)
    }

    fn contains(&mut self, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let key = args.get_i64(0)?;
        match self.head {
            None => Ok(Value::from(false)),
            Some(head) => inv.call(head, "find", args![key]),
        }
    }

    fn len(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(self.len))
    }

    fn collect_values(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match self.head {
            None => Ok(Value::List(Box::default())),
            Some(head) => inv.call(head, "collect", args![]),
        }
    }

    fn snapshot_state(&self) -> Value {
        Value::map([
            (
                "head",
                self.head.map(Value::ContextRef).unwrap_or(Value::Null),
            ),
            ("len", Value::from(self.len)),
        ])
    }

    fn restore_state(&mut self, state: &Value) {
        self.head = state.get("head").and_then(Value::as_context);
        if let Some(len) = state.get("len").and_then(Value::as_i64) {
            self.len = len;
        }
    }
}

context_class! {
    ListSet: "ListSet" {
        method "insert" calls ["ListNode::key", "ListNode::set_next", "ListNode::insert_after"] => ListSet::insert,
        method "remove" calls ["ListNode::key", "ListNode::next", "ListNode::detach", "ListNode::remove_after"] => ListSet::remove,
        ro method "contains" calls ["ListNode::find"] => ListSet::contains,
        ro method "len" calls [] => ListSet::len,
        ro method "to_list" calls ["ListNode::collect"] => ListSet::collect_values,
    }
    snapshot = ListSet::snapshot_state;
    restore = ListSet::restore_state;
}

/// One node of a [`ListSet`].
#[derive(Debug)]
pub struct ListNode {
    key: i64,
    next: Option<ContextId>,
}

impl ListNode {
    /// Creates a node holding `key` with no successor.
    pub fn new(key: i64) -> Self {
        Self { key, next: None }
    }

    fn key(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(self.key))
    }

    fn next(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(self.next.map(Value::ContextRef).unwrap_or(Value::Null))
    }

    /// Adopts `next`: records the successor and takes an ownership edge to
    /// it so later traversals from this node are legal calls.
    fn set_next(&mut self, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let next = args.get(0).and_then(Value::as_context);
        if let Some(next) = next {
            inv.add_ownership(next)?;
        }
        self.next = next;
        Ok(Value::Null)
    }

    /// Detaches the successor: clears the field and drops the ownership
    /// edge (used when this node is spliced out).
    fn detach(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        if let Some(next) = self.next.take() {
            inv.remove_ownership(next)?;
        }
        Ok(Value::Null)
    }

    /// Inserts `key` somewhere after this node; returns whether the set
    /// changed.
    fn insert_after(&mut self, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let key = args.get_i64(0)?;
        debug_assert!(key > self.key);
        match self.next {
            None => {
                let node = inv.create_child(Box::new(ListNode::new(key)))?;
                self.next = Some(node);
                Ok(Value::from(true))
            }
            Some(next) => {
                let next_key = inv.call(next, "key", args![])?.as_i64().unwrap_or(0);
                if key == next_key {
                    Ok(Value::from(false))
                } else if key < next_key {
                    let node = inv.create_child(Box::new(ListNode::new(key)))?;
                    inv.call(node, "set_next", args![next])?;
                    inv.remove_ownership(next)?;
                    self.next = Some(node);
                    Ok(Value::from(true))
                } else {
                    inv.call(next, "insert_after", args![key])
                }
            }
        }
    }

    /// Removes `key` from the suffix after this node.
    fn remove_after(&mut self, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let key = args.get_i64(0)?;
        let Some(next) = self.next else {
            return Ok(Value::from(false));
        };
        let next_key = inv.call(next, "key", args![])?.as_i64().unwrap_or(0);
        if key == next_key {
            let after = inv.call(next, "next", args![])?;
            match after.as_context() {
                Some(after_id) => {
                    inv.add_ownership(after_id)?;
                    self.next = Some(after_id);
                }
                None => self.next = None,
            }
            inv.call(next, "detach", args![])?;
            inv.remove_ownership(next)?;
            Ok(Value::from(true))
        } else if key < next_key {
            Ok(Value::from(false))
        } else {
            inv.call(next, "remove_after", args![key])
        }
    }

    /// Readonly search.
    fn find(&mut self, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let key = args.get_i64(0)?;
        if key == self.key {
            return Ok(Value::from(true));
        }
        if key < self.key {
            return Ok(Value::from(false));
        }
        match self.next {
            None => Ok(Value::from(false)),
            Some(next) => inv.call(next, "find", args![key]),
        }
    }

    /// Readonly traversal.
    fn collect(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let mut values = vec![Value::from(self.key)];
        if let Some(next) = self.next {
            if let Value::List(rest) = inv.call(next, "collect", args![])? {
                values.extend(rest);
            }
        }
        Ok(Value::from(values))
    }

    fn snapshot_state(&self) -> Value {
        Value::map([
            ("key", Value::from(self.key)),
            (
                "next",
                self.next.map(Value::ContextRef).unwrap_or(Value::Null),
            ),
        ])
    }

    fn restore_state(&mut self, state: &Value) {
        if let Some(key) = state.get("key").and_then(Value::as_i64) {
            self.key = key;
        }
        self.next = state.get("next").and_then(Value::as_context);
    }
}

context_class! {
    ListNode: "ListNode" {
        ro method "key" calls [] => ListNode::key,
        ro method "next" calls [] => ListNode::next,
        method "set_next" calls [] => ListNode::set_next,
        method "detach" calls [] => ListNode::detach,
        method "insert_after" calls ["ListNode::key", "ListNode::set_next", "ListNode::insert_after"] => ListNode::insert_after,
        method "remove_after" calls ["ListNode::key", "ListNode::next", "ListNode::detach", "ListNode::remove_after"] => ListNode::remove_after,
        ro method "find" calls ["ListNode::find"] => ListNode::find,
        ro method "collect" calls ["ListNode::collect"] => ListNode::collect,
    }
    snapshot = ListNode::snapshot_state;
    restore = ListNode::restore_state;
}

// ---------------------------------------------------------------------------
// Binary search tree
// ---------------------------------------------------------------------------

/// Root context of a binary search tree of integers.
///
/// Methods: `insert(key) -> bool`, `contains(key) -> bool` *(readonly)*,
/// `min -> int|null` *(readonly)*, `size -> int` *(readonly)*,
/// `in_order -> [int]` *(readonly)*.
#[derive(Debug, Default)]
pub struct SearchTree {
    root: Option<ContextId>,
    size: i64,
}

impl SearchTree {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    fn insert(&mut self, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let key = args.get_i64(0)?;
        match self.root {
            None => {
                let node = inv.create_child(Box::new(TreeNode::new(key)))?;
                self.root = Some(node);
                self.size += 1;
                Ok(Value::from(true))
            }
            Some(root) => {
                let inserted = inv.call(root, "insert", args![key])?;
                if inserted.as_bool().unwrap_or(false) {
                    self.size += 1;
                }
                Ok(inserted)
            }
        }
    }

    fn contains(&mut self, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match self.root {
            None => Ok(Value::from(false)),
            Some(root) => {
                let key = args.get_i64(0)?;
                inv.call(root, "contains", args![key])
            }
        }
    }

    fn min(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match self.root {
            None => Ok(Value::Null),
            Some(root) => inv.call(root, "min", args![]),
        }
    }

    fn size(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(self.size))
    }

    fn in_order(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match self.root {
            None => Ok(Value::List(Box::default())),
            Some(root) => inv.call(root, "in_order", args![]),
        }
    }

    fn snapshot_state(&self) -> Value {
        Value::map([
            (
                "root",
                self.root.map(Value::ContextRef).unwrap_or(Value::Null),
            ),
            ("size", Value::from(self.size)),
        ])
    }

    fn restore_state(&mut self, state: &Value) {
        self.root = state.get("root").and_then(Value::as_context);
        if let Some(size) = state.get("size").and_then(Value::as_i64) {
            self.size = size;
        }
    }
}

context_class! {
    SearchTree: "SearchTree" {
        method "insert" calls ["TreeNode::insert"] => SearchTree::insert,
        ro method "contains" calls ["TreeNode::contains"] => SearchTree::contains,
        ro method "min" calls ["TreeNode::min"] => SearchTree::min,
        ro method "size" calls [] => SearchTree::size,
        ro method "in_order" calls ["TreeNode::in_order"] => SearchTree::in_order,
    }
    snapshot = SearchTree::snapshot_state;
    restore = SearchTree::restore_state;
}

/// One node of a [`SearchTree`].
#[derive(Debug)]
pub struct TreeNode {
    key: i64,
    left: Option<ContextId>,
    right: Option<ContextId>,
}

impl TreeNode {
    /// Creates a leaf node holding `key`.
    pub fn new(key: i64) -> Self {
        Self {
            key,
            left: None,
            right: None,
        }
    }

    fn insert(&mut self, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let key = args.get_i64(0)?;
        if key == self.key {
            return Ok(Value::from(false));
        }
        let slot = if key < self.key {
            self.left
        } else {
            self.right
        };
        match slot {
            None => {
                let node = inv.create_child(Box::new(TreeNode::new(key)))?;
                if key < self.key {
                    self.left = Some(node);
                } else {
                    self.right = Some(node);
                }
                Ok(Value::from(true))
            }
            Some(child) => inv.call(child, "insert", args![key]),
        }
    }

    fn contains(&mut self, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let key = args.get_i64(0)?;
        if key == self.key {
            return Ok(Value::from(true));
        }
        let child = if key < self.key {
            self.left
        } else {
            self.right
        };
        match child {
            None => Ok(Value::from(false)),
            Some(child) => inv.call(child, "contains", args![key]),
        }
    }

    fn min(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match self.left {
            None => Ok(Value::from(self.key)),
            Some(left) => inv.call(left, "min", args![]),
        }
    }

    fn in_order(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let mut values = Vec::new();
        if let Some(left) = self.left {
            if let Value::List(l) = inv.call(left, "in_order", args![])? {
                values.extend(l);
            }
        }
        values.push(Value::from(self.key));
        if let Some(right) = self.right {
            if let Value::List(r) = inv.call(right, "in_order", args![])? {
                values.extend(r);
            }
        }
        Ok(Value::from(values))
    }

    fn snapshot_state(&self) -> Value {
        Value::map([
            ("key", Value::from(self.key)),
            (
                "left",
                self.left.map(Value::ContextRef).unwrap_or(Value::Null),
            ),
            (
                "right",
                self.right.map(Value::ContextRef).unwrap_or(Value::Null),
            ),
        ])
    }

    fn restore_state(&mut self, state: &Value) {
        if let Some(key) = state.get("key").and_then(Value::as_i64) {
            self.key = key;
        }
        self.left = state.get("left").and_then(Value::as_context);
        self.right = state.get("right").and_then(Value::as_context);
    }
}

context_class! {
    TreeNode: "TreeNode" {
        method "insert" calls ["TreeNode::insert"] => TreeNode::insert,
        ro method "contains" calls ["TreeNode::contains"] => TreeNode::contains,
        ro method "min" calls ["TreeNode::min"] => TreeNode::min,
        ro method "in_order" calls ["TreeNode::in_order"] => TreeNode::in_order,
    }
    snapshot = TreeNode::snapshot_state;
    restore = TreeNode::restore_state;
}

/// Convenience: creates a runtime configured for the collection structures.
///
/// # Errors
///
/// Propagates [`aeon_runtime::RuntimeBuilder::build`] errors.
pub fn collections_runtime(servers: usize) -> Result<AeonRuntime> {
    AeonRuntime::builder()
        .servers(servers.max(1))
        .class_graph(collections_class_graph())
        .build()
}

/// Deploys an empty [`ListSet`] on any backend and returns its context id.
///
/// # Errors
///
/// Propagates context-creation errors.
pub fn deploy_list_set(deployment: &dyn Deployment) -> Result<ContextId> {
    deployment.create_context(Box::new(ListSet::new()), Placement::Auto)
}

/// Deploys an empty [`SearchTree`] on any backend and returns its context
/// id.
///
/// # Errors
///
/// Propagates context-creation errors.
pub fn deploy_search_tree(deployment: &dyn Deployment) -> Result<ContextId> {
    deployment.create_context(Box::new(SearchTree::new()), Placement::Auto)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_api::Session;
    use aeon_runtime::ContextObject;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn list_values(v: &Value) -> Vec<i64> {
        v.as_list()
            .unwrap_or(&[])
            .iter()
            .filter_map(Value::as_i64)
            .collect()
    }

    #[test]
    fn class_graph_permits_reflexive_ownership() {
        let classes = collections_class_graph();
        classes.check().unwrap();
        assert!(classes.allows("ListNode", "ListNode"));
        assert!(classes.allows("TreeNode", "TreeNode"));
        assert!(!classes.allows("ListNode", "ListSet"));
        assert_eq!(classes.readonly_method("ListSet", "contains"), Some(true));
        assert_eq!(classes.readonly_method("ListNode", "set_next"), Some(false));
    }

    #[test]
    fn list_set_inserts_in_sorted_order_without_duplicates() {
        let runtime = collections_runtime(2).unwrap();
        let list = deploy_list_set(&runtime).unwrap();
        let client = runtime.client();
        for key in [5i64, 1, 9, 5, 3, 9, 7] {
            client.call(list, "insert", args![key]).unwrap();
        }
        assert_eq!(
            client.call_readonly(list, "len", args![]).unwrap(),
            Value::from(5i64)
        );
        let values = client.call_readonly(list, "to_list", args![]).unwrap();
        assert_eq!(list_values(&values), vec![1, 3, 5, 7, 9]);
        assert_eq!(
            client.call_readonly(list, "contains", args![7i64]).unwrap(),
            Value::from(true)
        );
        assert_eq!(
            client.call_readonly(list, "contains", args![8i64]).unwrap(),
            Value::from(false)
        );
    }

    #[test]
    fn list_set_removals_splice_nodes_out() {
        let runtime = collections_runtime(1).unwrap();
        let list = deploy_list_set(&runtime).unwrap();
        let client = runtime.client();
        for key in 1..=6i64 {
            client.call(list, "insert", args![key]).unwrap();
        }
        // Remove the head, a middle element, and the tail.
        for key in [1i64, 4, 6] {
            assert_eq!(
                client.call(list, "remove", args![key]).unwrap(),
                Value::from(true)
            );
        }
        assert_eq!(
            client.call(list, "remove", args![42i64]).unwrap(),
            Value::from(false)
        );
        let values = client.call_readonly(list, "to_list", args![]).unwrap();
        assert_eq!(list_values(&values), vec![2, 3, 5]);
        assert_eq!(
            client.call_readonly(list, "len", args![]).unwrap(),
            Value::from(3i64)
        );
    }

    #[test]
    fn list_set_operations_are_atomic_under_concurrency() {
        let runtime = collections_runtime(2).unwrap();
        let list = deploy_list_set(&runtime).unwrap();
        let runtime = std::sync::Arc::new(runtime);
        let mut handles = Vec::new();
        for t in 0..4i64 {
            let runtime = std::sync::Arc::clone(&runtime);
            handles.push(std::thread::spawn(move || {
                let client = runtime.client();
                for i in 0..25i64 {
                    client.call(list, "insert", args![t * 25 + i]).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let client = runtime.client();
        assert_eq!(
            client.call_readonly(list, "len", args![]).unwrap(),
            Value::from(100i64)
        );
        let values = client.call_readonly(list, "to_list", args![]).unwrap();
        let values = list_values(&values);
        assert_eq!(values.len(), 100);
        assert!(
            values.windows(2).all(|w| w[0] < w[1]),
            "list stays sorted and duplicate free"
        );
    }

    #[test]
    fn search_tree_insert_and_lookup() {
        let runtime = collections_runtime(1).unwrap();
        let tree = deploy_search_tree(&runtime).unwrap();
        let client = runtime.client();
        for key in [50i64, 30, 70, 20, 40, 60, 80, 30] {
            client.call(tree, "insert", args![key]).unwrap();
        }
        assert_eq!(
            client.call_readonly(tree, "size", args![]).unwrap(),
            Value::from(7i64)
        );
        assert_eq!(
            client.call_readonly(tree, "min", args![]).unwrap(),
            Value::from(20i64)
        );
        assert_eq!(
            client
                .call_readonly(tree, "contains", args![60i64])
                .unwrap(),
            Value::from(true)
        );
        assert_eq!(
            client
                .call_readonly(tree, "contains", args![65i64])
                .unwrap(),
            Value::from(false)
        );
        let values = client.call_readonly(tree, "in_order", args![]).unwrap();
        assert_eq!(list_values(&values), vec![20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn structures_snapshot_and_restore() {
        let mut node = ListNode::new(7);
        node.next = Some(ContextId::new(9));
        let snap = ContextObject::snapshot(&node);
        let mut copy = ListNode::new(0);
        ContextObject::restore(&mut copy, &snap);
        assert_eq!(copy.key, 7);
        assert_eq!(copy.next, Some(ContextId::new(9)));

        let mut tree = TreeNode::new(3);
        tree.left = Some(ContextId::new(1));
        let snap = ContextObject::snapshot(&tree);
        let mut copy = TreeNode::new(0);
        ContextObject::restore(&mut copy, &snap);
        assert_eq!(copy.key, 3);
        assert_eq!(copy.left, Some(ContextId::new(1)));
        assert_eq!(copy.right, None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_list_set_matches_btreeset(keys in proptest::collection::vec(-50i64..50, 1..40)) {
            let runtime = collections_runtime(1).unwrap();
            let list = deploy_list_set(&runtime).unwrap();
            let client = runtime.client();
            let mut model = BTreeSet::new();
            for key in &keys {
                let inserted = client.call(list, "insert", args![*key]).unwrap();
                prop_assert_eq!(inserted, Value::from(model.insert(*key)));
            }
            let values = client.call_readonly(list, "to_list", args![]).unwrap();
            prop_assert_eq!(list_values(&values), model.iter().copied().collect::<Vec<_>>());
        }

        #[test]
        fn prop_tree_matches_btreeset(keys in proptest::collection::vec(-50i64..50, 1..40)) {
            let runtime = collections_runtime(1).unwrap();
            let tree = deploy_search_tree(&runtime).unwrap();
            let client = runtime.client();
            let mut model = BTreeSet::new();
            for key in &keys {
                let inserted = client.call(tree, "insert", args![*key]).unwrap();
                prop_assert_eq!(inserted, Value::from(model.insert(*key)));
            }
            let values = client.call_readonly(tree, "in_order", args![]).unwrap();
            prop_assert_eq!(list_values(&values), model.iter().copied().collect::<Vec<_>>());
            prop_assert_eq!(
                client.call_readonly(tree, "size", args![]).unwrap(),
                Value::from(model.len() as i64)
            );
        }
    }
}
