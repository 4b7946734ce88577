//! Property tests for the static analysis pipeline.
//!
//! The generator is the oracle: it builds random ownership DAGs whose call
//! summaries only follow declared ownership edges, so by construction the
//! analyzer must accept them without a single diagnostic.  Each mutation
//! test then splices exactly one seeded defect into an otherwise-sound
//! graph and asserts the pipeline reports the matching `AEONnnn` code —
//! the same contract `aeon-lint` and deploy-time enforcement rely on.

use aeon_analyzer::{analyze, enforce, json, DiagCode};
use aeon_ownership::{ClassGraph, MethodRef};
use aeon_types::AeonError;
use proptest::prelude::*;

/// Class name of index `i`: `C0`, `C1`, ...
fn class(i: usize) -> String {
    format!("C{i}")
}

/// Mutating method name of class `i`.
fn mutating(i: usize) -> String {
    format!("m{i}")
}

/// Readonly method name of class `i`.
fn readonly(i: usize) -> String {
    format!("r{i}")
}

/// Builds a random sound graph of `n` classes.
///
/// Ownership constraints always point from a lower index to a strictly
/// higher index, so the constraint relation is acyclic by construction.  A
/// spine `C0 owns C1 owns ... owns Cn-1` keeps every class connected (no
/// AEON007), and `extra_bits` sprinkles additional forward edges on top.
/// Every class declares one mutating and one readonly method; the mutating
/// method's summary calls the mutating method of each directly-owned class
/// (trivially covered), and the readonly method's summary calls the
/// readonly method of each directly-owned class (never reaches a mutating
/// method).  The call graph therefore also only points forward: no AEON005.
fn sound_graph(n: usize, extra_bits: u64) -> ClassGraph {
    let mut classes = ClassGraph::new();
    let mut owned_of: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut bit = 0u32;
    for (i, owned) in owned_of.iter_mut().enumerate() {
        classes.add_class(class(i));
        for j in (i + 1)..n {
            let spine = j == i + 1;
            let extra = extra_bits >> (bit % 64) & 1 == 1;
            bit += 1;
            if spine || extra {
                classes.add_constraint(class(i), class(j));
                owned.push(j);
            }
        }
    }
    for (i, owned) in owned_of.iter().enumerate() {
        classes.declare_method(class(i), mutating(i), false);
        classes.declare_method(class(i), readonly(i), true);
        classes.declare_calls(
            class(i),
            mutating(i),
            owned.iter().map(|&j| MethodRef::new(class(j), mutating(j))),
        );
        classes.declare_calls(
            class(i),
            readonly(i),
            owned.iter().map(|&j| MethodRef::new(class(j), readonly(j))),
        );
    }
    classes
}

fn graph_strategy() -> impl Strategy<Value = ClassGraph> {
    (2usize..8, any::<u64>()).prop_map(|(n, bits)| sound_graph(n, bits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The generator oracle: summaries that only follow declared ownership
    /// edges analyze completely clean — no errors AND no warnings.
    #[test]
    fn sound_graphs_are_clean(classes in graph_strategy()) {
        let report = analyze(&classes);
        prop_assert!(
            report.is_clean(),
            "sound graph rejected:\n{}",
            report.render_text()
        );
        prop_assert!(classes.check().is_ok());
    }

    /// Clean graphs pass `enforce`.
    #[test]
    fn sound_graphs_pass_enforcement(classes in graph_strategy()) {
        prop_assert!(enforce(&classes).is_ok());
    }

    /// Mutation: a back-edge constraint closes a class-level ownership
    /// cycle, which must surface as AEON001.
    #[test]
    fn injected_ownership_cycle_is_rejected((n, bits) in (2usize..8, any::<u64>())) {
        let mut classes = sound_graph(n, bits);
        classes.add_constraint(class(n - 1), class(0));
        let report = analyze(&classes);
        prop_assert!(
            report.codes().contains(&DiagCode::OwnershipCycle),
            "expected AEON001, got:\n{}",
            report.render_text()
        );
        // The iterative checker agrees with the analyzer.
        prop_assert!(matches!(
            classes.check(),
            Err(AeonError::ClassCycleDetected { .. })
        ));
    }

    /// Mutation: a call against the ownership order (`Cn-1` calls `C0`,
    /// which it cannot own) is an uncovered edge: AEON002.
    #[test]
    fn injected_uncovered_call_is_rejected((n, bits) in (2usize..8, any::<u64>())) {
        let mut classes = sound_graph(n, bits);
        classes.declare_calls(
            class(n - 1),
            mutating(n - 1),
            [MethodRef::new(class(0), mutating(0))],
        );
        let report = analyze(&classes);
        prop_assert!(
            report.codes().contains(&DiagCode::UncoveredCall),
            "expected AEON002, got:\n{}",
            report.render_text()
        );
    }

    /// Mutation: a readonly method whose summary reaches a mutating method
    /// (directly here; the pass is transitive) is AEON003.
    #[test]
    fn injected_ro_calls_mutating_is_rejected((n, bits) in (2usize..8, any::<u64>())) {
        let mut classes = sound_graph(n, bits);
        // C0 owns C1 via the spine, so the edge is covered — the only
        // defect is the readonly method reaching a mutating one.
        classes.declare_calls(class(0), readonly(0), [MethodRef::new(class(1), mutating(1))]);
        let report = analyze(&classes);
        prop_assert!(
            report.codes().contains(&DiagCode::ReadonlyUnsound),
            "expected AEON003, got:\n{}",
            report.render_text()
        );
    }

    /// Mutation: a summary naming a class nobody declared is AEON004.
    #[test]
    fn injected_undeclared_target_is_rejected((n, bits) in (2usize..8, any::<u64>())) {
        let mut classes = sound_graph(n, bits);
        classes.declare_calls(
            class(0),
            mutating(0),
            [MethodRef::new("Ghost", "nothing")],
        );
        let report = analyze(&classes);
        prop_assert!(
            report.codes().contains(&DiagCode::UndeclaredTarget),
            "expected AEON004, got:\n{}",
            report.render_text()
        );
    }

    /// Mutation: closing a non-reflexive cycle in the method call graph
    /// (the spine chain `m0 -> m1 -> ... -> mn-1` plus a back edge
    /// `mn-1 -> m0`) is potential re-entrant deadlock: AEON005.
    #[test]
    fn injected_call_recursion_is_rejected((n, bits) in (2usize..8, any::<u64>())) {
        let mut classes = sound_graph(n, bits);
        classes.declare_calls(
            class(n - 1),
            mutating(n - 1),
            [MethodRef::new(class(0), mutating(0))],
        );
        let report = analyze(&classes);
        prop_assert!(
            report.codes().contains(&DiagCode::PotentialDeadlock),
            "expected AEON005, got:\n{}",
            report.render_text()
        );
    }

    /// Every mutated graph is refused by `enforce`.
    #[test]
    fn enforcement_tracks_mutations((n, bits) in (2usize..8, any::<u64>())) {
        let mut classes = sound_graph(n, bits);
        classes.declare_calls(
            class(n - 1),
            mutating(n - 1),
            [MethodRef::new(class(0), mutating(0))],
        );
        prop_assert!(matches!(
            enforce(&classes),
            Err(AeonError::AnalysisRejected { .. })
        ));
    }
}

/// A valid class-graph document, for the hostile-input properties.
const DOCUMENT: &str = r#"{"classes": {
  "Branch": {"owns": ["Account"], "methods": [
    {"name": "transfer", "readonly": false, "calls": ["Account::add"]},
    {"name": "ids", "readonly": true, "calls": null}]},
  "Account": {"owns": [], "methods": [{"name": "add"}, {"name": "\u0067et\t"}]}}}"#;

/// `from_json` reads input from outside the program: it returns a graph or
/// a `Codec` error, never a panic.
fn parses_or_refuses(bytes: &[u8]) {
    match json::from_json(&String::from_utf8_lossy(bytes)) {
        Ok(_) | Err(AeonError::Codec(_)) => {}
        Err(other) => panic!("{other:?} for {bytes:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        if cfg!(debug_assertions) { 64 } else { 5_000 }
    ))]

    #[test]
    fn json_documents_re_serialise_identically(classes in graph_strategy()) {
        let text = json::to_json(&classes);
        let back = json::from_json(&text).unwrap();
        prop_assert_eq!(&back, &classes);
        prop_assert_eq!(json::to_json(&back), text);
    }

    #[test]
    fn arbitrary_bytes_give_a_graph_or_a_codec_error(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        parses_or_refuses(&bytes);
    }

    #[test]
    fn every_truncation_with_any_byte_replaced_gives_a_graph_or_a_codec_error(
        at in any::<u64>(),
        byte in any::<u8>(),
    ) {
        json::from_json(DOCUMENT).unwrap();
        for end in 0..=DOCUMENT.len() {
            let mut bytes = DOCUMENT.as_bytes()[..end].to_vec();
            parses_or_refuses(&bytes);
            if end > 0 {
                bytes[at as usize % end] = byte;
                parses_or_refuses(&bytes);
            }
        }
    }
}
