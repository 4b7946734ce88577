//! Error handling for the AEON reproduction.

use crate::ids::{ContextId, EventId, ServerId};
use std::fmt;

/// Convenient result alias used by every public API of the workspace.
pub type Result<T, E = AeonError> = std::result::Result<T, E>;

/// Errors produced by the AEON runtime, ownership network, elasticity
/// manager, and simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AeonError {
    /// A context id was used that the ownership network / runtime does not
    /// know about.
    ContextNotFound(ContextId),
    /// A server id was used that the cluster does not know about.
    ServerNotFound(ServerId),
    /// An event id was used that the runtime does not know about.
    EventNotFound(EventId),
    /// Adding an ownership edge would create a cycle in the context DAG.
    CycleDetected { from: ContextId, to: ContextId },
    /// The static contextclass analysis rejected the program: the class-level
    /// ownership constraints contain a non-reflexive cycle.
    ClassCycleDetected { description: String },
    /// A method call targeted a context that the calling context does not
    /// (transitively) own.
    OwnershipViolation {
        caller: ContextId,
        callee: ContextId,
        /// Optional class-level explanation (the offending classes and the
        /// missing constraint), filled in when the violation is detected by
        /// the static analysis rather than the runtime hot path.
        detail: Option<String>,
    },
    /// The static analysis refused the deployment: one or more
    /// error-severity diagnostics (see `aeon-analyzer`) were reported for
    /// the contextclass graph.  Every deployment entry point runs the
    /// analysis on its class graph (`aeon_analyzer::enforce`), and none can
    /// skip it.
    AnalysisRejected {
        /// Number of error-severity diagnostics.
        errors: usize,
        /// Rendered diagnostics, one per line (`AEONnnn ...`).
        report: String,
    },
    /// A `readonly` method attempted to modify state or call a non-readonly
    /// method.
    ReadOnlyViolation { context: ContextId, method: String },
    /// The named method does not exist on the target contextclass.
    UnknownMethod { class: String, method: String },
    /// A method was invoked with arguments of the wrong arity or type.
    BadArguments { method: String, reason: String },
    /// The application code returned an error.
    Application(String),
    /// A contextclass method panicked while handling the event.  The
    /// executor catches the unwind, releases the event's locks, and
    /// resolves the client handle with this error instead of a
    /// disconnect.
    Panicked { reason: String },
    /// The context is currently being migrated and cannot accept the
    /// operation (transient; callers may retry).
    MigrationInProgress(ContextId),
    /// A migration step failed.
    MigrationFailed { context: ContextId, reason: String },
    /// A snapshot (or snapshot restore) event on the root of a context
    /// subtree failed; like any failed event it holds no lock after.
    SnapshotFailed { context: ContextId, reason: String },
    /// The runtime has been shut down.
    RuntimeShutdown,
    /// A storage operation failed (e.g. compare-and-swap conflict).
    Storage(String),
    /// The event was aborted (e.g. the hosting server was removed).
    EventAborted { event: EventId, reason: String },
    /// The transport's bounded outbound queue for `peer` is at capacity:
    /// the message was NOT sent (transient backpressure; callers may
    /// retry, shed load, or escalate — the frame is counted in the
    /// transport's `frames_dropped` statistic).
    SendQueueFull { peer: ServerId },
    /// Codec (encode/decode) failure for snapshots or migration payloads.
    Codec(String),
    /// Configuration error (invalid parameters to a builder).
    Config(String),
    /// Internal invariant violation; indicates a bug in the framework.
    Internal(String),
}

impl fmt::Display for AeonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AeonError::ContextNotFound(c) => write!(f, "context {c} not found"),
            AeonError::ServerNotFound(s) => write!(f, "server {s} not found"),
            AeonError::EventNotFound(e) => write!(f, "event {e} not found"),
            AeonError::CycleDetected { from, to } => {
                write!(
                    f,
                    "adding ownership edge {from} -> {to} would create a cycle"
                )
            }
            AeonError::ClassCycleDetected { description } => {
                write!(
                    f,
                    "contextclass ownership constraints are cyclic: {description}"
                )
            }
            AeonError::OwnershipViolation {
                caller,
                callee,
                detail,
            } => {
                write!(f, "context {caller} does not own {callee}")?;
                if let Some(detail) = detail {
                    write!(f, " ({detail})")?;
                }
                Ok(())
            }
            AeonError::AnalysisRejected { errors, report } => {
                write!(
                    f,
                    "static analysis rejected the contextclass graph with {errors} error(s):\n{report}"
                )
            }
            AeonError::ReadOnlyViolation { context, method } => {
                write!(
                    f,
                    "readonly method {method} attempted an update in context {context}"
                )
            }
            AeonError::UnknownMethod { class, method } => {
                write!(f, "contextclass {class} has no method {method}")
            }
            AeonError::BadArguments { method, reason } => {
                write!(f, "bad arguments for method {method}: {reason}")
            }
            AeonError::Application(msg) => write!(f, "application error: {msg}"),
            AeonError::Panicked { reason } => {
                write!(f, "context method panicked: {reason}")
            }
            AeonError::MigrationInProgress(c) => {
                write!(f, "context {c} is currently migrating")
            }
            AeonError::MigrationFailed { context, reason } => {
                write!(f, "migration of context {context} failed: {reason}")
            }
            AeonError::SnapshotFailed { context, reason } => {
                write!(f, "snapshot rooted at context {context} failed: {reason}")
            }
            AeonError::RuntimeShutdown => write!(f, "the runtime has been shut down"),
            AeonError::Storage(msg) => write!(f, "storage error: {msg}"),
            AeonError::EventAborted { event, reason } => {
                write!(f, "event {event} aborted: {reason}")
            }
            AeonError::SendQueueFull { peer } => {
                write!(f, "outbound send queue for server {peer} is full")
            }
            AeonError::Codec(msg) => write!(f, "codec error: {msg}"),
            AeonError::Config(msg) => write!(f, "configuration error: {msg}"),
            AeonError::Internal(msg) => write!(f, "internal error: {msg}"),
        }
    }
}

impl std::error::Error for AeonError {}

impl AeonError {
    /// Returns `true` when the operation may be retried (transient errors
    /// such as an in-flight migration or a CAS conflict).
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            AeonError::MigrationInProgress(_)
                | AeonError::Storage(_)
                | AeonError::SendQueueFull { .. }
        )
    }

    /// Creates an [`AeonError::Application`] from any displayable value.
    pub fn app(msg: impl fmt::Display) -> Self {
        AeonError::Application(msg.to_string())
    }

    /// Creates an [`AeonError::Internal`] from any displayable value.
    pub fn internal(msg: impl fmt::Display) -> Self {
        AeonError::Internal(msg.to_string())
    }

    /// Creates an [`AeonError::BadArguments`] for an integer argument that
    /// would take `what` out of the range of an `i64`: a contextclass checks
    /// its arithmetic on client-supplied integers and refuses before it
    /// changes anything, in debug and release builds alike.  The method is
    /// left empty; the interpreter that ran the method fills it in.
    pub fn overflow(what: impl fmt::Display) -> Self {
        AeonError::BadArguments {
            method: String::new(),
            reason: format!("{what} overflows an i64"),
        }
    }

    /// Creates an [`AeonError::OwnershipViolation`] with no class-level
    /// detail (the runtime hot path, which only knows the context ids).
    pub fn ownership(caller: ContextId, callee: ContextId) -> Self {
        AeonError::OwnershipViolation {
            caller,
            callee,
            detail: None,
        }
    }

    /// Converts a caught panic payload (from `std::panic::catch_unwind`)
    /// into an [`AeonError::Panicked`], extracting the message when the
    /// payload is a string.
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        let reason = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        AeonError::Panicked { reason }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync_and_static() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<AeonError>();
    }

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = AeonError::ContextNotFound(ContextId::new(3));
        assert_eq!(err.to_string(), "context ctx-3 not found");
        let err = AeonError::CycleDetected {
            from: ContextId::new(1),
            to: ContextId::new(2),
        };
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn ownership_violation_detail_is_appended_when_present() {
        let bare = AeonError::ownership(ContextId::new(1), ContextId::new(2));
        assert_eq!(bare.to_string(), "context ctx-1 does not own ctx-2");
        let rich = AeonError::OwnershipViolation {
            caller: ContextId::new(1),
            callee: ContextId::new(2),
            detail: Some("class Item may not own class Player".into()),
        };
        assert!(rich.to_string().contains("class Item"));
    }

    #[test]
    fn analysis_rejected_reports_count_and_diagnostics() {
        let err = AeonError::AnalysisRejected {
            errors: 2,
            report: "AEON002 ...\nAEON003 ...".into(),
        };
        let text = err.to_string();
        assert!(text.contains("2 error(s)"));
        assert!(text.contains("AEON003"));
        assert!(!err.is_transient());
    }

    #[test]
    fn transient_classification() {
        assert!(AeonError::MigrationInProgress(ContextId::new(1)).is_transient());
        assert!(AeonError::Storage("cas conflict".into()).is_transient());
        assert!(!AeonError::RuntimeShutdown.is_transient());
        assert!(!AeonError::app("boom").is_transient());
    }

    #[test]
    fn helpers_build_expected_variants() {
        assert!(matches!(AeonError::app("x"), AeonError::Application(_)));
        assert!(matches!(AeonError::internal("x"), AeonError::Internal(_)));
        assert_eq!(
            AeonError::overflow("1 + 2").to_string(),
            "bad arguments for method : 1 + 2 overflows an i64"
        );
    }

    #[test]
    fn panic_payloads_become_panicked_errors() {
        let err = AeonError::from_panic(Box::new("boom"));
        assert_eq!(
            err,
            AeonError::Panicked {
                reason: "boom".into()
            }
        );
        let err = AeonError::from_panic(Box::new(String::from("owned boom")));
        assert!(err.to_string().contains("owned boom"));
        let err = AeonError::from_panic(Box::new(42usize));
        assert!(matches!(err, AeonError::Panicked { .. }));
        assert!(!err.is_transient());
    }
}
