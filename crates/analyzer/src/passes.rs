//! The analysis passes.
//!
//! Every pass reads the same input — a fully declared
//! [`ClassGraph`] (constraints from `add_constraint`, method surfaces and
//! call summaries from the runtime's `context_class!` tables) — and appends
//! [`Diagnostic`]s to a shared [`AnalysisReport`].  Passes never mutate the
//! graph, so their order only affects report order, not findings.

use crate::report::{AnalysisReport, DiagCode, Diagnostic};
use aeon_ownership::{ClassGraph, MethodRef};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Runs every pass over `classes`, in diagnostic-code order, and returns
/// the accumulated report.
pub fn analyze(classes: &ClassGraph) -> AnalysisReport {
    let mut report = AnalysisReport::new();
    constraint_cycles(classes, &mut report);
    call_coverage(classes, &mut report);
    readonly_soundness(classes, &mut report);
    deadlock_freedom(classes, &mut report);
    reachability(classes, &mut report);
    report
}

/// AEON001: the ownership constraints must be acyclic (reflexive edges
/// excepted).  Re-renders [`ClassGraph::find_constraint_cycle`] as a
/// diagnostic so tooling sees it alongside the other passes.
fn constraint_cycles(classes: &ClassGraph, report: &mut AnalysisReport) {
    if let Some(cycle) = classes.find_constraint_cycle() {
        report.push(Diagnostic::new(
            DiagCode::OwnershipCycle,
            cycle.first().cloned(),
            None,
            format!(
                "ownership constraints are cyclic: {} (only the reflexive \
                 case is allowed)",
                cycle.join(" -> ")
            ),
        ));
    }
}

/// Transitive constraint reachability: every class reachable from `class`
/// by following `owns` edges (excluding `class` itself unless a cycle or a
/// reflexive constraint leads back to it).
fn reachable_from(classes: &ClassGraph, class: &str) -> BTreeSet<String> {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut queue: VecDeque<&str> = classes.owned_by(class).collect();
    while let Some(next) = queue.pop_front() {
        if seen.insert(next.to_string()) {
            queue.extend(classes.owned_by(next));
        }
    }
    seen
}

/// Whether a declared call edge from `class` to `call` is resolvable enough
/// to analyse: the target class is declared and, when the target class has a
/// declared method surface, the method exists on it.
fn resolvable(classes: &ClassGraph, call: &MethodRef) -> bool {
    classes.contains(&call.class)
        && (classes.methods_of(&call.class).is_empty()
            || classes.readonly_method(&call.class, &call.method).is_some())
}

/// AEON002 + AEON004: every declared call edge `A::m -> B::n` must target a
/// declared class/method (AEON004) and be covered by a chain of ownership
/// constraints making `B` transitively owned by `A` (AEON002) — otherwise
/// the call is guaranteed to surface at runtime as an `OwnershipViolation`.
fn call_coverage(classes: &ClassGraph, report: &mut AnalysisReport) {
    let mut reach_cache: BTreeMap<&str, BTreeSet<String>> = BTreeMap::new();
    let class_names: Vec<String> = classes.classes().map(str::to_string).collect();
    for class in &class_names {
        for method in classes.methods_of(class) {
            let Some(calls) = &method.calls else {
                continue;
            };
            for call in calls {
                if !classes.contains(&call.class) {
                    report.push(Diagnostic::new(
                        DiagCode::UndeclaredTarget,
                        Some(class.clone()),
                        Some(method.name.clone()),
                        format!(
                            "{class}::{} calls {call}, but class {} is not declared",
                            method.name, call.class
                        ),
                    ));
                    continue;
                }
                if !classes.methods_of(&call.class).is_empty()
                    && classes.readonly_method(&call.class, &call.method).is_none()
                {
                    report.push(Diagnostic::new(
                        DiagCode::UndeclaredTarget,
                        Some(class.clone()),
                        Some(method.name.clone()),
                        format!(
                            "{class}::{} calls {call}, but class {} declares no \
                             method {}",
                            method.name, call.class, call.method
                        ),
                    ));
                    // The method is missing but the class is known; the
                    // ownership-coverage check below still applies.
                }
                // Same-class calls go to sibling instances; the
                // instance-level DAG (plus the reflexive-constraint
                // runtime checks) covers them, and AEON005 audits the
                // recursion.
                if call.class == *class {
                    continue;
                }
                let reachable = reach_cache
                    .entry(class.as_str())
                    .or_insert_with(|| reachable_from(classes, class));
                if !reachable.contains(&call.class) {
                    report.push(Diagnostic::new(
                        DiagCode::UncoveredCall,
                        Some(class.clone()),
                        Some(method.name.clone()),
                        format!(
                            "{class}::{} calls {call}, but no ownership constraint \
                             chain makes {} owned by {class} (declare \
                             add_constraint(\"{class}\", \"{}\") or an \
                             intermediate owner)",
                            method.name, call.class, call.class
                        ),
                    ));
                }
            }
        }
    }
}

/// AEON003: a `ro` method must not (transitively) reach a mutating method
/// through the declared call graph — under a read-only activation the
/// mutating callee would fail at runtime with a `ReadOnlyViolation`.
///
/// Computed as a fixpoint ("may reach a mutating method") over the call
/// graph; the diagnostic names the offending path.
fn readonly_soundness(classes: &ClassGraph, report: &mut AnalysisReport) {
    let class_names: Vec<String> = classes.classes().map(str::to_string).collect();
    for class in &class_names {
        for method in classes.methods_of(class) {
            if !method.readonly {
                continue;
            }
            // Breadth-first search from the ro method over resolvable
            // call edges, keeping predecessor links for the path.
            let start = MethodRef::new(class.clone(), method.name.clone());
            let mut pred: BTreeMap<MethodRef, MethodRef> = BTreeMap::new();
            let mut queue: VecDeque<MethodRef> = VecDeque::from([start.clone()]);
            let mut seen: BTreeSet<MethodRef> = BTreeSet::from([start.clone()]);
            let mut offender: Option<MethodRef> = None;
            'search: while let Some(node) = queue.pop_front() {
                let Some(calls) = classes.calls_of(&node.class, &node.method) else {
                    continue;
                };
                for call in calls {
                    if !resolvable(classes, call) || !seen.insert(call.clone()) {
                        continue;
                    }
                    pred.insert(call.clone(), node.clone());
                    if classes.readonly_method(&call.class, &call.method) == Some(false) {
                        offender = Some(call.clone());
                        break 'search;
                    }
                    queue.push_back(call.clone());
                }
            }
            if let Some(end) = offender {
                let mut path = vec![end.clone()];
                let mut cursor = end.clone();
                while let Some(prev) = pred.get(&cursor) {
                    path.push(prev.clone());
                    cursor = prev.clone();
                }
                path.reverse();
                let rendered: Vec<String> = path.iter().map(MethodRef::to_string).collect();
                report.push(Diagnostic::new(
                    DiagCode::ReadonlyUnsound,
                    Some(class.clone()),
                    Some(method.name.clone()),
                    format!(
                        "ro method {class}::{} transitively calls mutating method \
                         {end} ({})",
                        method.name,
                        rendered.join(" -> ")
                    ),
                ));
            }
        }
    }
}

/// AEON005: recursion in the method call graph.
///
/// Under dominator sequencing an event holds its activations exclusively for
/// its whole duration, so a call cycle re-enters an activation the event
/// already holds and deadlocks (the runtime's re-entrance guard turns this
/// into an error, but only once it happens).  The one sanctioned shape is
/// the paper's inductive-structure exception: recursion that stays inside a
/// single class which *explicitly* declared the reflexive constraint
/// (`Node` owns `Node`) descends a chain of distinct instances.
fn deadlock_freedom(classes: &ClassGraph, report: &mut AnalysisReport) {
    // Build the method call graph, dropping unresolvable edges (AEON004
    // reports those) and sanctioned intra-class edges of classes with a
    // declared reflexive constraint.  Any cycle that remains is a
    // potential deadlock.
    let mut nodes: Vec<MethodRef> = Vec::new();
    let mut edges: BTreeMap<MethodRef, Vec<MethodRef>> = BTreeMap::new();
    let class_names: Vec<String> = classes.classes().map(str::to_string).collect();
    for class in &class_names {
        let reflexive = classes.declares(class, class);
        for method in classes.methods_of(class) {
            let node = MethodRef::new(class.clone(), method.name.clone());
            nodes.push(node.clone());
            let Some(calls) = &method.calls else {
                continue;
            };
            let outgoing: Vec<MethodRef> = calls
                .iter()
                .filter(|call| resolvable(classes, call))
                .filter(|call| !(reflexive && call.class == *class))
                .cloned()
                .collect();
            edges.insert(node, outgoing);
        }
    }

    // Iterative coloured DFS; every grey-hit is one cycle.  Cycles are
    // deduplicated by their member set so overlapping traversals don't
    // repeat a finding.
    #[derive(Clone, Copy, PartialEq)]
    enum Colour {
        White,
        Grey,
        Black,
    }
    let mut colour: BTreeMap<&MethodRef, Colour> =
        nodes.iter().map(|n| (n, Colour::White)).collect();
    let mut reported: BTreeSet<Vec<MethodRef>> = BTreeSet::new();
    for root in &nodes {
        if colour[root] != Colour::White {
            continue;
        }
        let mut path: Vec<&MethodRef> = vec![root];
        let mut frames: Vec<(&MethodRef, usize)> = vec![(root, 0)];
        colour.insert(root, Colour::Grey);
        while !frames.is_empty() {
            // The node reference is copied out (it borrows `nodes`, not
            // the frame), so the stack can be pushed/popped below.
            let (node, next) = {
                let frame = frames.last_mut().expect("loop guard");
                let snapshot = (frame.0, frame.1);
                frame.1 += 1;
                snapshot
            };
            let outgoing = edges.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if next >= outgoing.len() {
                colour.insert(node, Colour::Black);
                path.pop();
                frames.pop();
                continue;
            }
            let target = &outgoing[next];
            // Edges into classes that never declared a method surface
            // have no node of their own; they cannot continue a cycle.
            match colour.get(target).copied().unwrap_or(Colour::Black) {
                Colour::Grey => {
                    let start = path.iter().position(|n| *n == target).unwrap_or(0);
                    let mut cycle: Vec<MethodRef> =
                        path[start..].iter().map(|n| (*n).clone()).collect();
                    let mut key = cycle.clone();
                    key.sort();
                    if reported.insert(key) {
                        cycle.push(target.clone());
                        let rendered: Vec<String> =
                            cycle.iter().map(MethodRef::to_string).collect();
                        let single_class = cycle.iter().all(|n| n.class == cycle[0].class);
                        let hint = if single_class {
                            format!(
                                "; declare the reflexive constraint \
                                 add_constraint(\"{0}\", \"{0}\") if instances of \
                                 {0} intentionally recurse over owned instances",
                                cycle[0].class
                            )
                        } else {
                            String::new()
                        };
                        report.push(Diagnostic::new(
                            DiagCode::PotentialDeadlock,
                            Some(target.class.clone()),
                            Some(target.method.clone()),
                            format!(
                                "method call cycle {} can re-enter an exclusive \
                                 activation under dominator sequencing{hint}",
                                rendered.join(" -> ")
                            ),
                        ));
                    }
                }
                Colour::White => {
                    colour.insert(target, Colour::Grey);
                    path.push(target);
                    frames.push((target, 0));
                }
                Colour::Black => {}
            }
        }
    }
}

/// AEON006 + AEON007: in a multi-class graph, a class no non-reflexive
/// ownership constraint and no call edge connects to the rest of the graph
/// is unreachable (AEON007) — usually a typo'd class name in a constraint or
/// summary — and its declared methods can never execute (AEON006).
fn reachability(classes: &ClassGraph, report: &mut AnalysisReport) {
    if classes.len() < 2 {
        // A single class is trivially the root of its own world.
        return;
    }
    let mut touched: BTreeSet<String> = BTreeSet::new();
    let class_names: Vec<String> = classes.classes().map(str::to_string).collect();
    for class in &class_names {
        for owned in classes.owned_by(class) {
            if owned != class.as_str() {
                touched.insert(class.clone());
                touched.insert(owned.to_string());
            }
        }
        for method in classes.methods_of(class) {
            for call in method.calls.iter().flatten() {
                touched.insert(class.clone());
                if classes.contains(&call.class) {
                    touched.insert(call.class.clone());
                }
            }
        }
    }
    for class in &class_names {
        if touched.contains(class.as_str()) {
            continue;
        }
        report.push(Diagnostic::new(
            DiagCode::UnreachableClass,
            Some(class.clone()),
            None,
            format!(
                "class {class} is unreachable: no ownership constraint or call \
                 edge connects it to the rest of the graph (typo?)"
            ),
        ));
        for method in classes.methods_of(class) {
            report.push(Diagnostic::new(
                DiagCode::DeadMethod,
                Some(class.clone()),
                Some(method.name.clone()),
                format!(
                    "method {class}::{} can never execute: its class is \
                     unreachable",
                    method.name
                ),
            ));
        }
    }
}

/// The set of declared `ro` methods the AEON003 fixpoint proves
/// **transitively** read-only: every method reachable from them over
/// resolvable declared call edges is itself declared `ro`.
///
/// This is the positive complement of the AEON003 pass: that pass
/// reports `ro` methods that *may* reach a mutating method; this query
/// returns the `ro` methods for which the same breadth-first fixpoint finds
/// no such path **and** every edge along the way carries a call summary
/// (a summary-less callee could call anything, so nothing past it can be
/// proven).  Methods whose own summary is missing are excluded — with no
/// summary the method body is unconstrained.
pub fn transitively_readonly(classes: &ClassGraph) -> BTreeSet<MethodRef> {
    let mut certified = BTreeSet::new();
    let class_names: Vec<String> = classes.classes().map(str::to_string).collect();
    for class in &class_names {
        for method in classes.methods_of(class) {
            if !method.readonly || method.calls.is_none() {
                continue;
            }
            let start = MethodRef::new(class.clone(), method.name.clone());
            let mut queue: VecDeque<MethodRef> = VecDeque::from([start.clone()]);
            let mut seen: BTreeSet<MethodRef> = BTreeSet::from([start.clone()]);
            let mut proven = true;
            'search: while let Some(node) = queue.pop_front() {
                let Some(calls) = classes.calls_of(&node.class, &node.method) else {
                    // A reachable callee without a summary defeats the
                    // proof (its body is unconstrained).  The start method
                    // itself was already required to carry one.
                    proven = false;
                    break;
                };
                for call in calls {
                    if !resolvable(classes, call) {
                        proven = false;
                        break 'search;
                    }
                    if !seen.insert(call.clone()) {
                        continue;
                    }
                    if classes.readonly_method(&call.class, &call.method) != Some(true) {
                        // Mutating, or a method on a class with no declared
                        // surface (unknowable).
                        proven = false;
                        break 'search;
                    }
                    queue.push_back(call.clone());
                }
            }
            if proven {
                certified.insert(start);
            }
        }
    }
    certified
}

/// The subset of [`transitively_readonly`] methods eligible for the
/// runtime's **read-only fast path**: `ro` methods whose declared call
/// summary is empty (`calls []`), i.e. their lock footprint is exactly the
/// target context.
///
/// The fast path skips dominator sequencing, so two concurrently executing
/// fast-path events share no common sequencer with in-flight exclusive
/// events.  That is only deadlock-free if a fast-path event never *waits*
/// for a second context while holding its first: a reader holding `T`
/// (shared) and waiting for `C` opposite a writer holding `C` (exclusive)
/// and waiting for `T` is a cycle no dominator breaks, because neither
/// event was sequenced.  Restricting the fast path to leaf methods (empty
/// summary ⇒ single-lock footprint, even for same-class calls, which
/// target *other* instances) makes the hold-and-wait condition impossible,
/// so skipping the sequencer is safe.  Transitively-ro methods *with*
/// calls still take the slow path: dominator sequencing under a shared
/// activation.
pub fn certified_readonly(classes: &ClassGraph) -> BTreeSet<MethodRef> {
    let mut certified = BTreeSet::new();
    let class_names: Vec<String> = classes.classes().map(str::to_string).collect();
    for class in &class_names {
        for method in classes.methods_of(class) {
            if method.readonly && method.calls.as_deref().is_some_and(<[MethodRef]>::is_empty) {
                certified.insert(MethodRef::new(class.clone(), method.name.clone()));
            }
        }
    }
    certified
}

#[cfg(test)]
mod tests {
    use super::*;

    fn covered_graph() -> ClassGraph {
        let mut g = ClassGraph::new();
        g.add_constraint("Bank", "Branch");
        g.add_constraint("Branch", "Account");
        g.declare_method("Account", "read", true);
        g.declare_method("Account", "add", false);
        g.declare_calls("Branch", "transfer", [MethodRef::new("Account", "add")]);
        g.declare_calls(
            "Bank",
            "audit",
            [MethodRef::new("Account", "read")], // transitive: Bank -> Branch -> Account
        );
        g.declare_method("Bank", "audit", true);
        g.declare_method("Account", "read", true);
        g
    }

    #[test]
    fn clean_graph_produces_no_diagnostics() {
        let report = analyze(&covered_graph());
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn constraint_cycle_is_aeon001() {
        let mut g = ClassGraph::new();
        g.add_constraint("A", "B");
        g.add_constraint("B", "A");
        let report = analyze(&g);
        assert!(report.codes().contains(&DiagCode::OwnershipCycle));
    }

    #[test]
    fn uncovered_call_is_aeon002() {
        let mut g = covered_graph();
        // Account calling up into Branch is never ownership-covered.
        g.declare_calls("Account", "evil", [MethodRef::new("Branch", "transfer")]);
        g.declare_method("Branch", "transfer", false);
        let report = analyze(&g);
        assert_eq!(report.codes(), vec![DiagCode::UncoveredCall]);
        let diag = report.errors().next().unwrap();
        assert!(diag.message.contains("Account::evil"), "{}", diag.message);
        assert!(diag.message.contains("add_constraint"), "{}", diag.message);
    }

    #[test]
    fn transitive_ownership_covers_deep_calls() {
        // Bank::audit -> Account::read is covered through Bank -> Branch ->
        // Account; asserted by the clean-graph test, and the negative:
        let mut g = ClassGraph::new();
        g.add_constraint("Bank", "Branch");
        g.add_class("Account");
        g.add_constraint("Account", "Branch"); // keeps Account reachable
        g.declare_method("Account", "read", true);
        g.declare_calls("Bank", "audit", [MethodRef::new("Account", "read")]);
        let report = analyze(&g);
        assert!(report.codes().contains(&DiagCode::UncoveredCall));
    }

    #[test]
    fn ro_reaching_mutating_is_aeon003() {
        let mut g = covered_graph();
        // ro Bank::snoop -> ro Branch::peek -> mutating Account::add.
        g.declare_method("Branch", "peek", true);
        g.declare_calls("Branch", "peek", [MethodRef::new("Account", "add")]);
        g.declare_method("Branch", "peek", true);
        g.declare_method("Bank", "snoop", true);
        g.declare_calls("Bank", "snoop", [MethodRef::new("Branch", "peek")]);
        g.declare_method("Bank", "snoop", true);
        let report = analyze(&g);
        assert!(report.codes().contains(&DiagCode::ReadonlyUnsound));
        let diag = report
            .errors()
            .find(|d| d.code == DiagCode::ReadonlyUnsound)
            .unwrap();
        assert!(
            diag.message
                .contains("Bank::snoop -> Branch::peek -> Account::add")
                || diag.message.contains("Branch::peek -> Account::add"),
            "path is rendered: {}",
            diag.message
        );
    }

    #[test]
    fn undeclared_class_and_method_are_aeon004() {
        let mut g = covered_graph();
        g.declare_calls("Branch", "typo", [MethodRef::new("Acount", "add")]);
        g.declare_calls("Bank", "typo2", [MethodRef::new("Account", "sub")]);
        let report = analyze(&g);
        let aeon004: Vec<_> = report
            .errors()
            .filter(|d| d.code == DiagCode::UndeclaredTarget)
            .collect();
        assert_eq!(aeon004.len(), 2, "{}", report.render_text());
        assert!(aeon004.iter().any(|d| d.message.contains("Acount")));
        assert!(aeon004.iter().any(|d| d.message.contains("sub")));
    }

    #[test]
    fn calls_into_classes_without_method_surface_are_unchecked() {
        let mut g = ClassGraph::new();
        g.add_constraint("WareHouse", "Stock");
        // Stock declares constraints but no method table: the call is
        // ownership-checked, not surface-checked.
        g.declare_calls(
            "WareHouse",
            "reserve_stock",
            [MethodRef::new("Stock", "reserve")],
        );
        let report = analyze(&g);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn mutual_recursion_is_aeon005() {
        let mut g = covered_graph();
        g.declare_calls("Branch", "ping", [MethodRef::new("Account", "pong")]);
        g.declare_calls("Account", "pong", [MethodRef::new("Branch", "ping")]);
        let report = analyze(&g);
        assert!(report.codes().contains(&DiagCode::PotentialDeadlock));
    }

    #[test]
    fn self_recursion_without_reflexive_constraint_is_aeon005() {
        let mut g = ClassGraph::new();
        g.add_constraint("List", "Node");
        g.declare_calls("Node", "next", [MethodRef::new("Node", "next")]);
        let report = analyze(&g);
        assert!(
            report.codes().contains(&DiagCode::PotentialDeadlock),
            "{}",
            report.render_text()
        );
        let diag = report
            .errors()
            .find(|d| d.code == DiagCode::PotentialDeadlock)
            .unwrap();
        assert!(diag.message.contains("reflexive"), "{}", diag.message);
    }

    #[test]
    fn reflexive_constraint_sanctions_inductive_recursion() {
        let mut g = ClassGraph::new();
        g.add_constraint("List", "Node");
        g.add_constraint("Node", "Node");
        g.declare_calls("Node", "next", [MethodRef::new("Node", "next")]);
        g.declare_calls("List", "find", [MethodRef::new("Node", "next")]);
        let report = analyze(&g);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn unreachable_class_and_dead_methods_are_warnings() {
        let mut g = covered_graph();
        g.add_class("Orphan");
        g.declare_method("Orphan", "lost", false);
        let report = analyze(&g);
        assert!(!report.has_errors(), "{}", report.render_text());
        assert_eq!(
            report.codes(),
            vec![DiagCode::DeadMethod, DiagCode::UnreachableClass]
        );
    }

    #[test]
    fn single_class_graph_is_not_unreachable() {
        let mut g = ClassGraph::new();
        g.add_class("Kv");
        g.declare_method("Kv", "get", true);
        let report = analyze(&g);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn transitively_readonly_follows_the_aeon003_fixpoint() {
        let mut g = ClassGraph::new();
        g.add_constraint("Bank", "Branch");
        g.add_constraint("Branch", "Account");
        g.declare_method("Account", "read", true);
        g.declare_calls("Account", "read", []);
        g.declare_method("Account", "add", false);
        g.declare_calls("Account", "add", []);
        // Transitively ro through a chain of ro summaries.
        g.declare_method("Branch", "total", true);
        g.declare_calls("Branch", "total", [MethodRef::new("Account", "read")]);
        g.declare_method("Bank", "audit", true);
        g.declare_calls("Bank", "audit", [MethodRef::new("Branch", "total")]);
        // ro mark but reaches a mutating method: not certified.
        g.declare_method("Branch", "sneaky", true);
        g.declare_calls("Branch", "sneaky", [MethodRef::new("Account", "add")]);
        // ro mark but no summary: unconstrained body, not certified.
        g.declare_method("Branch", "opaque", true);
        let ro = transitively_readonly(&g);
        assert!(ro.contains(&MethodRef::new("Account", "read")));
        assert!(ro.contains(&MethodRef::new("Branch", "total")));
        assert!(ro.contains(&MethodRef::new("Bank", "audit")));
        assert!(!ro.contains(&MethodRef::new("Branch", "sneaky")));
        assert!(!ro.contains(&MethodRef::new("Branch", "opaque")));
        assert!(!ro.contains(&MethodRef::new("Account", "add")));
    }

    #[test]
    fn transitively_readonly_rejects_summary_gaps() {
        let mut g = ClassGraph::new();
        g.add_constraint("Branch", "Account");
        // Callee is ro but carries no summary of its own: the chain cannot
        // be proven past it.
        g.declare_method("Account", "read", true);
        g.declare_method("Branch", "total", true);
        g.declare_calls("Branch", "total", [MethodRef::new("Account", "read")]);
        let ro = transitively_readonly(&g);
        assert!(!ro.contains(&MethodRef::new("Branch", "total")));
        assert!(!ro.contains(&MethodRef::new("Account", "read")));
    }

    #[test]
    fn certified_readonly_is_the_leaf_subset() {
        let mut g = ClassGraph::new();
        g.add_constraint("Branch", "Account");
        g.declare_method("Account", "read", true);
        g.declare_calls("Account", "read", []);
        g.declare_method("Account", "add", false);
        g.declare_calls("Account", "add", []);
        g.declare_method("Branch", "total", true);
        g.declare_calls("Branch", "total", [MethodRef::new("Account", "read")]);
        let fast = certified_readonly(&g);
        // Leaf + ro: certified.
        assert!(fast.contains(&MethodRef::new("Account", "read")));
        // Leaf but mutating: not certified.
        assert!(!fast.contains(&MethodRef::new("Account", "add")));
        // ro (even transitively) but with a lock footprint beyond the
        // target: slow path.
        assert!(!fast.contains(&MethodRef::new("Branch", "total")));
        // Certified methods are always transitively readonly.
        let ro = transitively_readonly(&g);
        assert!(fast.iter().all(|m| ro.contains(m)));
    }
}
