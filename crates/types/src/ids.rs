//! Strongly-typed identifiers used throughout the system.
//!
//! Every entity in AEON — contexts, events, servers, clients — is referred
//! to by a newtype identifier ([`ContextId`], [`EventId`], [`ServerId`],
//! [`ClientId`]) so the different id spaces cannot be confused
//! (C-NEWTYPE).  All ids are cheap `Copy` wrappers over integers.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of a context (an instance of a `contextclass`).
///
/// Contexts are the unit of data encapsulation and migration in AEON.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ContextId(u64);

/// Identifier of an event (an atomic, strictly-serializable client request).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventId(u64);

/// Identifier of a (possibly simulated) server / virtual machine hosting
/// contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ServerId(u32);

/// Identifier of a client issuing events against the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClientId(u64);

/// The name of a `contextclass` (e.g. `"Room"`, `"Player"`).
pub type ClassName = String;

macro_rules! impl_id {
    ($ty:ident, $raw:ty, $letter:expr) => {
        impl $ty {
            /// Creates an identifier from its raw integer representation.
            pub const fn new(raw: $raw) -> Self {
                Self(raw)
            }

            /// Returns the raw integer representation.
            pub const fn raw(self) -> $raw {
                self.0
            }
        }

        impl From<$raw> for $ty {
            fn from(raw: $raw) -> Self {
                Self(raw)
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", $letter, self.0)
            }
        }
    };
}

impl_id!(ContextId, u64, "ctx-");
impl_id!(EventId, u64, "ev-");
impl_id!(ServerId, u32, "srv-");
impl_id!(ClientId, u64, "cli-");

/// A process-wide generator of unique identifiers.
///
/// Both the runtime and the simulator use one `IdGenerator` per id space so
/// that identifiers are never reused within a run.
#[derive(Debug, Default)]
pub struct IdGenerator {
    next: AtomicU64,
}

impl IdGenerator {
    /// Creates a generator whose first issued id is `0`.
    pub fn new() -> Self {
        Self::starting_at(0)
    }

    /// Creates a generator whose first issued id is `start`.
    pub fn starting_at(start: u64) -> Self {
        Self {
            next: AtomicU64::new(start),
        }
    }

    /// Issues the next raw identifier.
    pub fn next_raw(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_round_trip_raw() {
        assert_eq!(ContextId::new(42).raw(), 42);
        assert_eq!(EventId::new(7).raw(), 7);
        assert_eq!(ServerId::new(3).raw(), 3);
        assert_eq!(ClientId::new(9).raw(), 9);
    }

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(ContextId::new(1).to_string(), "ctx-1");
        assert_eq!(EventId::new(2).to_string(), "ev-2");
        assert_eq!(ServerId::new(3).to_string(), "srv-3");
        assert_eq!(ClientId::new(4).to_string(), "cli-4");
    }

    #[test]
    fn ids_are_ordered_by_raw_value() {
        assert!(ContextId::new(1) < ContextId::new(2));
        assert!(EventId::new(5) < EventId::new(6));
    }

    #[test]
    fn generator_issues_unique_ids() {
        let gen = IdGenerator::new();
        let mut seen = HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(gen.next_raw()));
        }
    }

    #[test]
    fn generator_is_usable_from_many_threads() {
        let gen = std::sync::Arc::new(IdGenerator::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let gen = gen.clone();
            handles.push(std::thread::spawn(move || {
                (0..250).map(|_| gen.next_raw()).collect::<Vec<_>>()
            }));
        }
        let mut all = HashSet::new();
        for h in handles {
            for id in h.join().unwrap() {
                assert!(all.insert(id), "duplicate id issued across threads");
            }
        }
        assert_eq!(all.len(), 1000);
    }
}
