//! Static, contextclass-level ownership analysis (§3, "Type-based
//! enforcement of DAG ownership").
//!
//! AEON requires the *class-level* ownership constraints to be acyclic
//! (except for the reflexive case, which enables inductive structures such
//! as linked lists at the cost of runtime checks).  The analysis collects,
//! for every contextclass, the set of contextclasses its methods may reach,
//! and rejects programs whose constraint graph `C1 ≤ C0` contains a
//! non-reflexive cycle.

use aeon_types::{AeonError, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// A reference to one contextclass method, `Class::method`, as used in
/// declared call summaries.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MethodRef {
    /// Target contextclass name.
    pub class: String,
    /// Target method name.
    pub method: String,
}

impl MethodRef {
    /// Builds a reference from class and method names.
    pub fn new(class: impl Into<String>, method: impl Into<String>) -> Self {
        Self {
            class: class.into(),
            method: method.into(),
        }
    }

    /// Parses the `Class::method` notation used by `context_class!` call
    /// summaries; `None` when the text is not of that shape.
    pub fn parse(text: &str) -> Option<Self> {
        let (class, method) = text.split_once("::")?;
        if class.is_empty() || method.is_empty() || method.contains("::") {
            return None;
        }
        Some(Self::new(class, method))
    }
}

impl fmt::Display for MethodRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}::{}", self.class, self.method)
    }
}

/// Metadata of one contextclass method, as declared by the runtime's
/// method tables.
///
/// The analysis itself only needs the class-level ownership constraints, but
/// recording the per-class method surface here makes it available to every
/// consumer of the static analysis: tooling can list a class's methods, the
/// checker's recorder can classify operations as reads or writes without
/// instantiating a context, and cross-backend tests can assert that all
/// deployments agree on which methods are `ro`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodInfo {
    /// Method name as dispatched by the runtime.
    pub name: String,
    /// Whether the method was declared `readonly` (`ro`).
    pub readonly: bool,
    /// Declared outgoing call summary: the complete set of
    /// `Class::method` invocations this method may perform on *other*
    /// contexts.  `None` means the method never declared a summary (it is
    /// exempt from call-graph analysis); `Some(vec![])` declares "calls
    /// nothing".
    pub calls: Option<Vec<MethodRef>>,
}

impl MethodInfo {
    /// A method entry with no declared call summary.
    pub fn new(name: impl Into<String>, readonly: bool) -> Self {
        Self {
            name: name.into(),
            readonly,
            calls: None,
        }
    }
}

/// The contextclass constraint graph.
///
/// A constraint `owner ⊒ owned` (added with [`ClassGraph::add_constraint`])
/// records that instances of class `owner` may directly own / call into
/// instances of class `owned`, i.e. `owned ≤ owner` in the paper's notation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassGraph {
    /// class -> classes it may directly own.
    owns: BTreeMap<String, BTreeSet<String>>,
    /// class -> declared method surface (optional; filled in by the
    /// runtime's declarative method tables).
    methods: BTreeMap<String, Vec<MethodInfo>>,
}

impl ClassGraph {
    /// Creates an empty constraint graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a contextclass with no constraints yet.
    pub fn add_class(&mut self, class: impl Into<String>) -> &mut Self {
        self.owns.entry(class.into()).or_default();
        self
    }

    /// Returns `true` if the class has been declared.
    pub fn contains(&self, class: &str) -> bool {
        self.owns.contains_key(class)
    }

    /// Declared classes, in name order.
    pub fn classes(&self) -> impl Iterator<Item = &str> {
        self.owns.keys().map(String::as_str)
    }

    /// Number of declared classes.
    pub fn len(&self) -> usize {
        self.owns.len()
    }

    /// Returns `true` when no classes are declared.
    pub fn is_empty(&self) -> bool {
        self.owns.is_empty()
    }

    /// Records that `owner` instances may own `owned` instances
    /// (the constraint `owned ≤ owner`).  Both classes are declared
    /// implicitly if needed.  Reflexive constraints are allowed.
    pub fn add_constraint(
        &mut self,
        owner: impl Into<String>,
        owned: impl Into<String>,
    ) -> &mut Self {
        let owner = owner.into();
        let owned = owned.into();
        self.owns.entry(owned.clone()).or_default();
        self.owns.entry(owner).or_default().insert(owned);
        self
    }

    /// Returns whether instances of `owner` are allowed to directly own
    /// instances of `owned` according to the declared constraints.
    ///
    /// The reflexive case is always allowed (inductive data structures),
    /// mirroring the exception made by the paper's analysis.
    pub fn allows(&self, owner: &str, owned: &str) -> bool {
        if owner == owned {
            return true;
        }
        self.owns.get(owner).is_some_and(|set| set.contains(owned))
    }

    /// Returns whether the constraint `owned ≤ owner` was *explicitly*
    /// declared with [`ClassGraph::add_constraint`].
    ///
    /// Unlike [`ClassGraph::allows`] this does not grant the reflexive case
    /// for free: the analyzer uses it to distinguish an intentional
    /// inductive structure (`Node` declared to own `Node`) from accidental
    /// self-recursion in a call summary.
    pub fn declares(&self, owner: &str, owned: &str) -> bool {
        self.owns.get(owner).is_some_and(|set| set.contains(owned))
    }

    /// The classes `owner` was explicitly declared to own, in name order.
    pub fn owned_by(&self, owner: &str) -> impl Iterator<Item = &str> {
        self.owns
            .get(owner)
            .into_iter()
            .flatten()
            .map(String::as_str)
    }

    /// Declares a method of `class` (declaring the class implicitly if
    /// needed).  Re-declaring a method overwrites its metadata.
    pub fn declare_method(
        &mut self,
        class: impl Into<String>,
        name: impl Into<String>,
        readonly: bool,
    ) -> &mut Self {
        let class = class.into();
        let name = name.into();
        self.owns.entry(class.clone()).or_default();
        let methods = self.methods.entry(class).or_default();
        match methods.iter_mut().find(|m| m.name == name) {
            Some(existing) => existing.readonly = readonly,
            None => methods.push(MethodInfo::new(name, readonly)),
        }
        self
    }

    /// Declares the complete outgoing call summary of `class::method`
    /// (declaring class and method implicitly if needed).  Re-declaring a
    /// summary overwrites the previous one; an empty iterator declares
    /// "calls nothing", which is different from never declaring a summary.
    pub fn declare_calls(
        &mut self,
        class: impl Into<String>,
        method: impl Into<String>,
        calls: impl IntoIterator<Item = MethodRef>,
    ) -> &mut Self {
        let class = class.into();
        let method = method.into();
        self.owns.entry(class.clone()).or_default();
        let methods = self.methods.entry(class).or_default();
        let calls = Some(calls.into_iter().collect());
        match methods.iter_mut().find(|m| m.name == method) {
            Some(existing) => existing.calls = calls,
            None => methods.push(MethodInfo {
                name: method,
                readonly: false,
                calls,
            }),
        }
        self
    }

    /// The declared call summary of `class::method`; `None` when the method
    /// (or class) is unknown or never declared a summary.
    pub fn calls_of(&self, class: &str, method: &str) -> Option<&[MethodRef]> {
        self.methods
            .get(class)?
            .iter()
            .find(|m| m.name == method)?
            .calls
            .as_deref()
    }

    /// The declared method surface of `class` (empty when the class never
    /// declared its methods).
    pub fn methods_of(&self, class: &str) -> &[MethodInfo] {
        self.methods.get(class).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `method` of `class` was declared `readonly`; `None` when the
    /// class has no method declarations or the method is unknown.
    pub fn readonly_method(&self, class: &str, method: &str) -> Option<bool> {
        self.methods
            .get(class)?
            .iter()
            .find(|m| m.name == method)
            .map(|m| m.readonly)
    }

    /// Runs the static analysis: succeeds iff the constraint graph is
    /// acyclic once reflexive edges are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ClassCycleDetected`] describing one offending
    /// cycle when the analysis fails.
    pub fn check(&self) -> Result<()> {
        match self.find_constraint_cycle() {
            Some(cycle) => Err(AeonError::ClassCycleDetected {
                description: cycle.join(" -> "),
            }),
            None => Ok(()),
        }
    }

    /// Finds one non-reflexive cycle in the constraint graph, as the list of
    /// classes along it (first class repeated at the end); `None` when the
    /// graph is acyclic.
    ///
    /// The traversal is an explicit-stack depth-first search with
    /// colouring — deep ownership chains (e.g. a 100k-class reflexive list
    /// generated by tooling) must not overflow the call stack.
    pub fn find_constraint_cycle(&self) -> Option<Vec<String>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Colour {
            White,
            Grey,
            Black,
        }
        let mut colour: BTreeMap<&str, Colour> = self
            .owns
            .keys()
            .map(|k| (k.as_str(), Colour::White))
            .collect();

        for root in self.owns.keys() {
            if colour[root.as_str()] != Colour::White {
                continue;
            }
            // Each frame is (class, iterator over its owned classes); the
            // path stack mirrors the grey classes for cycle extraction.
            let mut frames: Vec<(&str, std::collections::btree_set::Iter<'_, String>)> = Vec::new();
            let mut path: Vec<&str> = Vec::new();
            colour.insert(root.as_str(), Colour::Grey);
            path.push(root.as_str());
            frames.push((root.as_str(), self.owns[root.as_str()].iter()));

            while !frames.is_empty() {
                // `Iter::next` returns references borrowed from `self.owns`,
                // not from the frame, so the frame borrow ends here and the
                // stack can be pushed/popped below.
                let (class, next) = {
                    let frame = frames.last_mut().expect("loop guard");
                    (frame.0, frame.1.next())
                };
                match next {
                    Some(child) if child.as_str() == class => {
                        // Reflexive exception: inductive structures.
                    }
                    Some(child) => {
                        match colour.get(child.as_str()).copied().unwrap_or(Colour::White) {
                            Colour::Grey => {
                                // Found a cycle: slice the path from the
                                // first occurrence of `child`.
                                let start =
                                    path.iter().position(|c| *c == child.as_str()).unwrap_or(0);
                                let mut cycle: Vec<String> =
                                    path[start..].iter().map(|s| s.to_string()).collect();
                                cycle.push(child.clone());
                                return Some(cycle);
                            }
                            Colour::White => {
                                colour.insert(child.as_str(), Colour::Grey);
                                path.push(child.as_str());
                                frames.push((child.as_str(), self.owns[child.as_str()].iter()));
                            }
                            Colour::Black => {}
                        }
                    }
                    None => {
                        colour.insert(class, Colour::Black);
                        path.pop();
                        frames.pop();
                    }
                }
            }
        }
        None
    }

    /// Validates that a runtime ownership graph respects the class
    /// constraints: every edge `owner -> owned` must be allowed by
    /// [`ClassGraph::allows`].
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::OwnershipViolation`] naming the first offending
    /// edge — both the context ids and their *classes*, plus the
    /// `add_constraint` call that would legalise the edge.
    pub fn validate_graph(&self, graph: &crate::OwnershipGraph) -> Result<()> {
        for (owner, owned) in graph.edges() {
            let owner_class = graph.class_of(owner)?;
            let owned_class = graph.class_of(owned)?;
            if !self.allows(owner_class, owned_class) {
                return Err(AeonError::OwnershipViolation {
                    caller: owner,
                    callee: owned,
                    detail: Some(format!(
                        "class {owner_class} may not own class {owned_class}; \
                         missing constraint {owned_class} <= {owner_class} \
                         (declare it with add_constraint(\"{owner_class}\", \
                         \"{owned_class}\"))"
                    )),
                });
            }
        }
        Ok(())
    }
}

/// Builds the class graph of the paper's game example (Figure 3, left);
/// the game's own, with its method tables, is
/// `aeon_apps::game::game_class_graph`.
#[cfg(test)]
fn game_class_graph() -> ClassGraph {
    let mut g = ClassGraph::new();
    g.add_constraint("Building", "Room");
    g.add_constraint("Room", "Player");
    g.add_constraint("Room", "Item");
    g.add_constraint("Player", "Item");
    g
}

/// Builds the class graph of the TPC-C application (§6.1.2); the
/// application's own is `aeon_apps::tpcc::tpcc_class_graph`.
#[cfg(test)]
fn tpcc_class_graph() -> ClassGraph {
    let mut g = ClassGraph::new();
    g.add_constraint("WareHouse", "Stock");
    g.add_constraint("WareHouse", "District");
    g.add_constraint("District", "Customer");
    g.add_constraint("District", "Order");
    g.add_constraint("Customer", "History");
    g.add_constraint("Customer", "Order");
    g.add_constraint("Order", "NewOrder");
    g.add_constraint("Order", "OrderLine");
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::game_graph;

    #[test]
    fn game_class_graph_passes_analysis() {
        game_class_graph().check().unwrap();
    }

    #[test]
    fn tpcc_class_graph_passes_analysis() {
        tpcc_class_graph().check().unwrap();
    }

    #[test]
    fn reflexive_constraints_are_accepted() {
        // Linked-list style inductive structure: a Node owns Nodes.
        let mut g = ClassGraph::new();
        g.add_constraint("List", "Node");
        g.add_constraint("Node", "Node");
        g.check().unwrap();
        assert!(g.allows("Node", "Node"));
    }

    #[test]
    fn two_class_cycle_is_rejected() {
        let mut g = ClassGraph::new();
        g.add_constraint("A", "B");
        g.add_constraint("B", "A");
        let err = g.check().unwrap_err();
        assert!(matches!(err, AeonError::ClassCycleDetected { .. }));
        assert!(
            err.to_string().contains("A"),
            "cycle description names the classes: {err}"
        );
    }

    #[test]
    fn longer_cycle_is_rejected_and_described() {
        let mut g = ClassGraph::new();
        g.add_constraint("A", "B");
        g.add_constraint("B", "C");
        g.add_constraint("C", "D");
        g.add_constraint("D", "B");
        let err = g.check().unwrap_err();
        if let AeonError::ClassCycleDetected { description } = err {
            assert!(
                description.contains("B") && description.contains("D"),
                "{description}"
            );
        } else {
            panic!("expected class cycle");
        }
    }

    #[test]
    fn allows_respects_declared_constraints() {
        let g = game_class_graph();
        assert!(g.allows("Room", "Player"));
        assert!(g.allows("Player", "Item"));
        assert!(!g.allows("Item", "Player"));
        assert!(!g.allows("Player", "Room"));
        // Reflexive allowed even if undeclared.
        assert!(g.allows("Room", "Room"));
    }

    #[test]
    fn validate_graph_accepts_figure_3_and_rejects_violations() {
        let (mut graph, ids) = game_graph();
        let classes = game_class_graph();
        classes.validate_graph(&graph).unwrap();
        // An Item owning a Player violates the class constraints even though
        // it is fine for the instance-level DAG (no cycle).
        graph.add_edge(ids.treasure, ids.player3).unwrap();
        assert!(matches!(
            classes.validate_graph(&graph),
            Err(AeonError::OwnershipViolation { .. })
        ));
    }

    #[test]
    fn method_ref_parses_class_method_notation() {
        let r = MethodRef::parse("Room::nr_players").unwrap();
        assert_eq!(r.class, "Room");
        assert_eq!(r.method, "nr_players");
        assert_eq!(r.to_string(), "Room::nr_players");
        assert!(MethodRef::parse("Room").is_none());
        assert!(MethodRef::parse("::m").is_none());
        assert!(MethodRef::parse("A::").is_none());
        assert!(MethodRef::parse("A::B::c").is_none());
    }

    #[test]
    fn call_summaries_are_recorded_and_survive_redeclaration() {
        let mut g = ClassGraph::new();
        g.declare_method("Branch", "transfer", false);
        assert_eq!(g.calls_of("Branch", "transfer"), None);
        g.declare_calls(
            "Branch",
            "transfer",
            [
                MethodRef::new("Account", "add"),
                MethodRef::new("Account", "add"),
            ],
        );
        let calls = g.calls_of("Branch", "transfer").unwrap();
        assert_eq!(calls.len(), 2);
        assert_eq!(calls[0], MethodRef::new("Account", "add"));
        // Re-declaring the method (e.g. a second declare_in) keeps the summary.
        g.declare_method("Branch", "transfer", false);
        assert!(g.calls_of("Branch", "transfer").is_some());
        // An empty summary is "calls nothing", distinct from undeclared.
        g.declare_calls("Branch", "noop", []);
        assert_eq!(g.calls_of("Branch", "noop"), Some(&[][..]));
        assert_eq!(g.calls_of("Branch", "unknown"), None);
        assert_eq!(g.calls_of("NoSuchClass", "m"), None);
    }

    #[test]
    fn declares_does_not_grant_the_reflexive_exception() {
        let mut g = ClassGraph::new();
        g.add_constraint("List", "Node");
        g.add_constraint("Node", "Node");
        assert!(g.declares("List", "Node"));
        assert!(g.declares("Node", "Node"));
        assert!(!g.declares("List", "List"));
        assert!(g.allows("List", "List"));
        let owned: Vec<&str> = g.owned_by("List").collect();
        assert_eq!(owned, vec!["Node"]);
    }

    #[test]
    fn deep_ownership_chain_does_not_overflow_the_stack() {
        // Satellite regression: a 100k-class reflexive chain (each class owns
        // itself and the next) must be analysed iteratively, not by
        // recursion depth proportional to the chain.
        let mut g = ClassGraph::new();
        const N: usize = 100_000;
        for i in 0..N {
            g.add_constraint(format!("C{i}"), format!("C{i}"));
            g.add_constraint(format!("C{i}"), format!("C{}", i + 1));
        }
        g.check().unwrap();
        // And a cycle closing the whole chain is still detected.
        g.add_constraint(format!("C{N}"), "C0");
        let err = g.check().unwrap_err();
        assert!(matches!(err, AeonError::ClassCycleDetected { .. }));
    }

    #[test]
    fn validate_graph_violation_names_the_classes() {
        let (mut graph, ids) = game_graph();
        let classes = game_class_graph();
        graph.add_edge(ids.treasure, ids.player3).unwrap();
        let err = classes.validate_graph(&graph).unwrap_err();
        let text = err.to_string();
        assert!(
            text.contains("Item") && text.contains("Player"),
            "violation names the classes, not just context ids: {text}"
        );
        assert!(
            text.contains("add_constraint"),
            "violation suggests the missing constraint: {text}"
        );
    }

    #[test]
    fn declared_classes_are_listed() {
        let g = game_class_graph();
        let classes: Vec<&str> = g.classes().collect();
        assert!(classes.contains(&"Building"));
        assert!(classes.contains(&"Item"));
        assert_eq!(g.len(), 4);
        assert!(!g.is_empty());
    }
}
