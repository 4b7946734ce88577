//! Access modes of events and methods.

use std::fmt;

/// Whether an event (or method call) may modify context state.
///
/// Read-only events take a *shared* lock on the contexts they traverse, so
/// several of them may be active in the same context concurrently; exclusive
/// events serialize with everything else (Algorithm 2, line 11 of the
/// paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessMode {
    /// The event may update state; it requires exclusive access
    /// (the paper's `EX`).
    #[default]
    Exclusive,
    /// The event was declared `readonly` (`ro`); it only requires shared
    /// access (the paper's `RO`).
    ReadOnly,
}

impl AccessMode {
    /// Returns `true` for [`AccessMode::ReadOnly`].
    pub const fn is_read_only(self) -> bool {
        matches!(self, AccessMode::ReadOnly)
    }

    /// Returns `true` for [`AccessMode::Exclusive`].
    pub const fn is_exclusive(self) -> bool {
        matches!(self, AccessMode::Exclusive)
    }

    /// Returns whether an event with access mode `self` may be activated in
    /// a context whose currently-activated events have the modes given by
    /// `active`.
    ///
    /// This encodes the read/write-lock compatibility matrix: any number of
    /// read-only events may share a context, while an exclusive event
    /// requires the context to be free.
    pub fn compatible_with<'a, I>(self, active: I) -> bool
    where
        I: IntoIterator<Item = &'a AccessMode>,
    {
        let mut iter = active.into_iter().peekable();
        match self {
            AccessMode::Exclusive => iter.peek().is_none(),
            AccessMode::ReadOnly => iter.all(|m| m.is_read_only()),
        }
    }
}

impl fmt::Display for AccessMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessMode::Exclusive => write!(f, "EX"),
            AccessMode::ReadOnly => write!(f, "RO"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_requires_empty_context() {
        assert!(AccessMode::Exclusive.compatible_with([]));
        assert!(!AccessMode::Exclusive.compatible_with([&AccessMode::ReadOnly]));
        assert!(!AccessMode::Exclusive.compatible_with([&AccessMode::Exclusive]));
    }

    #[test]
    fn read_only_shares_with_read_only() {
        assert!(AccessMode::ReadOnly.compatible_with([]));
        assert!(
            AccessMode::ReadOnly.compatible_with([&AccessMode::ReadOnly, &AccessMode::ReadOnly])
        );
        assert!(!AccessMode::ReadOnly.compatible_with([&AccessMode::Exclusive]));
    }

    #[test]
    fn display_matches_paper_terminology() {
        assert_eq!(AccessMode::Exclusive.to_string(), "EX");
        assert_eq!(AccessMode::ReadOnly.to_string(), "RO");
    }

    #[test]
    fn default_is_exclusive() {
        assert_eq!(AccessMode::default(), AccessMode::Exclusive);
    }
}
