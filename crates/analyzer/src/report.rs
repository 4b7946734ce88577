//! Diagnostics: stable codes, severities, and the [`AnalysisReport`] the
//! pass pipeline accumulates into.

use aeon_types::{text, AeonError, Value};
use std::fmt;

/// Severity of one diagnostic.  Only [`Severity::Error`] diagnostics make
/// `enforce`-mode deployment fail (and `aeon-lint` exit nonzero).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but not unsound; reported, never fatal.
    Warning,
    /// The static model is unsound; deployment is refused in `enforce` mode.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes of the analysis pipeline.
///
/// The numeric codes are part of the tool contract (`aeon-lint` output, CI
/// greps, test assertions) and must never be renumbered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiagCode {
    /// AEON001: the class-level ownership constraints contain a
    /// non-reflexive cycle.
    OwnershipCycle,
    /// AEON002: a declared call edge `A::m -> B::n` is not covered by any
    /// chain of ownership constraints `B ≤ ... ≤ A` (it would surface at
    /// runtime as an `OwnershipViolation`).
    UncoveredCall,
    /// AEON003: a `ro` method transitively reaches a mutating method
    /// through the declared call graph.
    ReadonlyUnsound,
    /// AEON004: a declared call targets an undeclared class, or a method
    /// the target class's declared surface does not contain.
    UndeclaredTarget,
    /// AEON005: non-reflexive (mutual) recursion in the method call graph —
    /// under dominator sequencing the cycle can re-enter an exclusive
    /// activation and deadlock.
    PotentialDeadlock,
    /// AEON006: a method of an unreachable class (see AEON007) can never
    /// execute.
    DeadMethod,
    /// AEON007: a class no ownership constraint or call edge connects to
    /// the rest of a multi-class graph — usually a typo'd class name.
    UnreachableClass,
}

impl DiagCode {
    /// The stable `AEONnnn` code string.
    pub fn code(self) -> &'static str {
        match self {
            DiagCode::OwnershipCycle => "AEON001",
            DiagCode::UncoveredCall => "AEON002",
            DiagCode::ReadonlyUnsound => "AEON003",
            DiagCode::UndeclaredTarget => "AEON004",
            DiagCode::PotentialDeadlock => "AEON005",
            DiagCode::DeadMethod => "AEON006",
            DiagCode::UnreachableClass => "AEON007",
        }
    }

    /// The severity this code always carries.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::OwnershipCycle
            | DiagCode::UncoveredCall
            | DiagCode::ReadonlyUnsound
            | DiagCode::UndeclaredTarget
            | DiagCode::PotentialDeadlock => Severity::Error,
            DiagCode::DeadMethod | DiagCode::UnreachableClass => Severity::Warning,
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// One finding of the analysis pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable code (severity derives from it).
    pub code: DiagCode,
    /// Primary class the finding is about, when there is one.
    pub class: Option<String>,
    /// Primary method the finding is about, when there is one.
    pub method: Option<String>,
    /// Human-readable explanation (self-contained; already names the
    /// classes/methods involved).
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic anchored at `class::method`.
    pub fn new(
        code: DiagCode,
        class: impl Into<Option<String>>,
        method: impl Into<Option<String>>,
        message: impl Into<String>,
    ) -> Self {
        Self {
            code,
            class: class.into(),
            method: method.into(),
            message: message.into(),
        }
    }

    /// The diagnostic's severity (a function of its code).
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }

    /// Renders the diagnostic on one line: `error[AEON002] message`.
    pub fn render(&self) -> String {
        format!("{}[{}] {}", self.severity(), self.code, self.message)
    }
}

/// The accumulated output of an analysis run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnalysisReport {
    diagnostics: Vec<Diagnostic>,
}

impl AnalysisReport {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a diagnostic.
    pub fn push(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// All diagnostics, in pass order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Error)
    }

    /// Warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == Severity::Warning)
    }

    /// Whether any error-severity diagnostic was reported.
    pub fn has_errors(&self) -> bool {
        self.errors().next().is_some()
    }

    /// Whether the report is empty (no errors, no warnings).
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// The distinct codes present, in code order (test/CI helper).
    pub fn codes(&self) -> Vec<DiagCode> {
        let mut codes: Vec<DiagCode> = self.diagnostics.iter().map(|d| d.code).collect();
        codes.sort();
        codes.dedup();
        codes
    }

    /// Renders the report as text, one diagnostic per line.
    pub fn render_text(&self) -> String {
        self.diagnostics
            .iter()
            .map(Diagnostic::render)
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// The report as a list of diagnostic maps: `code`, `severity`,
    /// `class`, `method` (`null` when absent) and `message`.
    pub fn to_value(&self) -> Value {
        let optional = |s: &Option<String>| s.as_deref().map_or(Value::Null, Value::from);
        let diagnostics = self.diagnostics.iter().map(|d| {
            Value::map([
                ("code", Value::from(d.code.code())),
                ("severity", Value::from(d.severity().to_string())),
                ("class", optional(&d.class)),
                ("method", optional(&d.method)),
                ("message", Value::from(d.message.as_str())),
            ])
        });
        Value::from(diagnostics.collect::<Vec<_>>())
    }

    /// Renders the report as a JSON array of diagnostic objects.
    pub fn render_json(&self) -> String {
        text::to_json(&self.to_value())
    }

    /// Converts the report into the error `enforce`-mode deployment fails
    /// with; `None` when there are no error-severity diagnostics.
    pub fn to_error(&self) -> Option<AeonError> {
        if !self.has_errors() {
            return None;
        }
        Some(AeonError::AnalysisRejected {
            errors: self.errors().count(),
            report: self
                .errors()
                .map(Diagnostic::render)
                .collect::<Vec<_>>()
                .join("\n"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: DiagCode) -> Diagnostic {
        Diagnostic::new(code, Some("A".to_string()), None, "boom")
    }

    #[test]
    fn codes_are_stable_strings() {
        assert_eq!(DiagCode::OwnershipCycle.code(), "AEON001");
        assert_eq!(DiagCode::UncoveredCall.code(), "AEON002");
        assert_eq!(DiagCode::ReadonlyUnsound.code(), "AEON003");
        assert_eq!(DiagCode::UndeclaredTarget.code(), "AEON004");
        assert_eq!(DiagCode::PotentialDeadlock.code(), "AEON005");
        assert_eq!(DiagCode::DeadMethod.code(), "AEON006");
        assert_eq!(DiagCode::UnreachableClass.code(), "AEON007");
    }

    #[test]
    fn severity_split_matches_the_contract() {
        assert_eq!(DiagCode::PotentialDeadlock.severity(), Severity::Error);
        assert_eq!(DiagCode::DeadMethod.severity(), Severity::Warning);
        assert_eq!(DiagCode::UnreachableClass.severity(), Severity::Warning);
    }

    #[test]
    fn report_partitions_and_renders() {
        let mut report = AnalysisReport::new();
        assert!(report.is_clean());
        assert!(report.to_error().is_none());
        report.push(diag(DiagCode::UnreachableClass));
        assert!(!report.has_errors());
        report.push(diag(DiagCode::UncoveredCall));
        report.push(diag(DiagCode::UncoveredCall));
        assert!(report.has_errors());
        assert_eq!(report.errors().count(), 2);
        assert_eq!(report.warnings().count(), 1);
        assert_eq!(
            report.codes(),
            vec![DiagCode::UncoveredCall, DiagCode::UnreachableClass]
        );
        let text = report.render_text();
        assert!(text.contains("error[AEON002]"));
        assert!(text.contains("warning[AEON007]"));
        match report.to_error().unwrap() {
            AeonError::AnalysisRejected { errors, report } => {
                assert_eq!(errors, 2);
                assert!(report.contains("AEON002"));
                assert!(!report.contains("AEON007"), "warnings stay out: {report}");
            }
            other => panic!("unexpected error {other:?}"),
        }
        let json = report.render_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"code\":\"AEON002\""));
        assert!(json.contains("\"severity\":\"warning\""));
    }
}
