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
//! Every deployment entry point (`RuntimeBuilder`, `ClusterBuilder`,
//! `SimDeployment`, and `aeon::deploy`) runs [`enforce`] over its class
//! graph, governed by an [`AnalysisMode`] knob (`off | warn | enforce`,
//! default `enforce`): error diagnostics become
//! [`AeonError::AnalysisRejected`] and the deployment is refused.  In debug
//! builds the runtime additionally records actual invoke edges and flags
//! calls not covered by the declared summaries — the dynamic sanitizer that
//! validates the static model.
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
use aeon_types::{AeonError, Result};
use std::fmt;
use std::str::FromStr;

/// How deployment entry points react to analysis findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisMode {
    /// Skip the pipeline entirely.
    Off,
    /// Run the pipeline, print every diagnostic to stderr, deploy anyway.
    Warn,
    /// Run the pipeline; error diagnostics refuse the deployment with
    /// [`AeonError::AnalysisRejected`] (warnings still print).
    #[default]
    Enforce,
}

impl FromStr for AnalysisMode {
    type Err = AeonError;

    fn from_str(s: &str) -> Result<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Ok(AnalysisMode::Off),
            "warn" => Ok(AnalysisMode::Warn),
            "enforce" => Ok(AnalysisMode::Enforce),
            other => Err(AeonError::Config(format!(
                "unknown analysis mode {other:?} (expected off|warn|enforce)"
            ))),
        }
    }
}

impl fmt::Display for AnalysisMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisMode::Off => write!(f, "off"),
            AnalysisMode::Warn => write!(f, "warn"),
            AnalysisMode::Enforce => write!(f, "enforce"),
        }
    }
}

/// Runs [`analyze`] over `classes` under `mode`: the single
/// helper every deployment entry point calls.
///
/// Warnings always print to stderr (except in [`AnalysisMode::Off`]); error
/// diagnostics print in [`AnalysisMode::Warn`] and become
/// [`AeonError::AnalysisRejected`] in [`AnalysisMode::Enforce`].
///
/// # Errors
///
/// Returns [`AeonError::AnalysisRejected`] in `Enforce` mode when any
/// error-severity diagnostic is reported.
pub fn enforce(classes: &ClassGraph, mode: AnalysisMode) -> Result<()> {
    if mode == AnalysisMode::Off {
        return Ok(());
    }
    let report = analyze(classes);
    for warning in report.warnings() {
        eprintln!("aeon-analyzer: {}", warning.render());
    }
    match report.to_error() {
        None => Ok(()),
        Some(error) => match mode {
            AnalysisMode::Off => unreachable!("handled above"),
            AnalysisMode::Warn => {
                for diagnostic in report.errors() {
                    eprintln!("aeon-analyzer: {}", diagnostic.render());
                }
                Ok(())
            }
            AnalysisMode::Enforce => Err(error),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_ownership::MethodRef;

    fn broken() -> ClassGraph {
        let mut g = ClassGraph::new();
        g.add_constraint("Branch", "Account");
        g.declare_method("Branch", "transfer", false);
        g.declare_calls("Account", "evil", [MethodRef::new("Branch", "transfer")]);
        g
    }

    #[test]
    fn mode_parses_and_displays() {
        assert_eq!("off".parse::<AnalysisMode>().unwrap(), AnalysisMode::Off);
        assert_eq!("Warn".parse::<AnalysisMode>().unwrap(), AnalysisMode::Warn);
        assert_eq!(
            " enforce ".parse::<AnalysisMode>().unwrap(),
            AnalysisMode::Enforce
        );
        assert!(matches!(
            "strict".parse::<AnalysisMode>(),
            Err(AeonError::Config(_))
        ));
        assert_eq!(AnalysisMode::Enforce.to_string(), "enforce");
        assert_eq!(AnalysisMode::default(), AnalysisMode::Enforce);
    }

    #[test]
    fn enforce_rejects_warn_passes_off_skips() {
        let g = broken();
        let err = enforce(&g, AnalysisMode::Enforce).unwrap_err();
        match err {
            AeonError::AnalysisRejected { errors, report } => {
                assert!(errors >= 1);
                assert!(report.contains("AEON002"));
            }
            other => panic!("unexpected {other:?}"),
        }
        enforce(&g, AnalysisMode::Warn).unwrap();
        enforce(&g, AnalysisMode::Off).unwrap();
    }
}
