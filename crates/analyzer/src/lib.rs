//! Static analysis of AEON contextclass graphs (§3, "Type-based
//! enforcement of DAG ownership").
//!
//! The paper's headline guarantee is that a *static* analysis over
//! contextclass declarations proves deadlock-free strict serializability
//! before the program runs.  This crate is that analysis for the
//! reproduction: [`analyze`] runs five passes over an
//! [`aeon_ownership::ClassGraph`] — the declarative model assembled from
//! `add_constraint` calls and the runtime's `context_class!` method tables
//! (method surfaces, `ro` marks, and per-method `calls [...]`
//! summaries) — producing an [`AnalysisReport`] of [`Diagnostic`]s with
//! stable codes:
//!
//! | code    | severity | meaning                                                |
//! |---------|----------|--------------------------------------------------------|
//! | AEON001 | error    | ownership constraints contain a non-reflexive cycle    |
//! | AEON002 | error    | a declared call edge is not covered by ownership       |
//! | AEON003 | error    | a `ro` method transitively reaches a mutating method   |
//! | AEON004 | error    | a call targets an undeclared class or method           |
//! | AEON005 | error    | method-call recursion can re-enter an exclusive        |
//! |         |          | activation (potential deadlock)                        |
//! | AEON006 | warning  | a method of an unreachable class can never execute     |
//! | AEON007 | warning  | a class is disconnected from the rest of the graph     |
//!
//! # Deploy-time enforcement
//!
//! The analysis is not optional.  Every deployment entry point
//! (`RuntimeBuilder`, `ClusterBuilder`, and through them `SimDeployment`
//! and `aeon::deploy`) calls [`enforce`] once over its class graph: error
//! diagnostics become [`AeonError::AnalysisRejected`] and the deployment is
//! refused; warnings print to stderr.  In debug builds the runtime
//! additionally records actual invoke edges and flags calls not covered by
//! the declared summaries — the dynamic sanitizer that validates the static
//! model.
//!
//! [`AeonError::AnalysisRejected`]: aeon_types::AeonError::AnalysisRejected
//!
//! The same analysis backs the `aeon-lint` binary, which lints the built-in
//! workspace graphs and JSON-encoded [`ClassGraph`] documents (see
//! [`json`]).
//!
//! # Examples
//!
//! ```
//! use aeon_analyzer::{analyze, DiagCode};
//! use aeon_ownership::{ClassGraph, MethodRef};
//!
//! let mut classes = ClassGraph::new();
//! classes.add_constraint("Branch", "Account");
//! classes.declare_method("Account", "add", false);
//! classes.declare_calls("Branch", "transfer", [MethodRef::new("Account", "add")]);
//! assert!(analyze(&classes).is_clean());
//!
//! // An Account has no business calling back up into its Branch:
//! classes.declare_calls("Account", "evil", [MethodRef::new("Branch", "transfer")]);
//! classes.declare_method("Branch", "transfer", false);
//! let report = analyze(&classes);
//! assert_eq!(report.codes(), vec![DiagCode::UncoveredCall]);
//! ```

pub mod json;
pub mod passes;
pub mod report;

pub use passes::{analyze, certified_readonly, transitively_readonly};
pub use report::{AnalysisReport, DiagCode, Diagnostic, Severity};

use aeon_ownership::ClassGraph;
use aeon_types::Result;

/// The one deploy-time gate every deployment entry point calls: checks
/// `classes`' ownership constraints for cycles, then runs [`analyze`].
/// Warnings print to stderr; error diagnostics refuse the deployment.
///
/// # Errors
///
/// * [`AeonError::ClassCycleDetected`] when the ownership constraints are
///   cyclic.
/// * [`AeonError::AnalysisRejected`] when any error-severity diagnostic is
///   reported.
///
/// [`AeonError::ClassCycleDetected`]: aeon_types::AeonError::ClassCycleDetected
/// [`AeonError::AnalysisRejected`]: aeon_types::AeonError::AnalysisRejected
pub fn enforce(classes: &ClassGraph) -> Result<()> {
    classes.check()?;
    let report = analyze(classes);
    for warning in report.warnings() {
        eprintln!("aeon-analyzer: {}", warning.render());
    }
    report.to_error().map_or(Ok(()), Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_ownership::MethodRef;
    use aeon_types::AeonError;

    fn broken() -> ClassGraph {
        let mut g = ClassGraph::new();
        g.add_constraint("Branch", "Account");
        g.declare_method("Branch", "transfer", false);
        g.declare_calls("Account", "evil", [MethodRef::new("Branch", "transfer")]);
        g
    }

    #[test]
    fn enforce_refuses_a_cycle_and_an_error_diagnostic() {
        let err = enforce(&broken()).unwrap_err();
        match err {
            AeonError::AnalysisRejected { errors, report } => {
                assert!(errors >= 1);
                assert!(report.contains("AEON002"));
            }
            other => panic!("unexpected {other:?}"),
        }
        let mut cyclic = ClassGraph::new();
        cyclic.add_constraint("A", "B");
        cyclic.add_constraint("B", "A");
        assert!(matches!(
            enforce(&cyclic),
            Err(AeonError::ClassCycleDetected { .. })
        ));
        let mut sound = broken();
        sound.declare_calls("Account", "evil", []);
        enforce(&sound).unwrap();
    }
}
