//! Declarative method dispatch for contextclasses.
//!
//! The paper extends C++ with a `contextclass` keyword whose compiler knows,
//! per class, the method surface and which methods are `readonly` (`ro`).
//! This module is the library equivalent: instead of every contextclass
//! hand-writing a `match method` block in [`ContextObject::handle`] and a
//! parallel string list in [`ContextObject::is_readonly`] (which inevitably
//! drift apart), a class declares its methods **once** in a [`MethodTable`]
//! and the runtime derives dispatch, `ro` classification, uniform
//! [`AeonError::UnknownMethod`] behaviour, and machine-readable metadata
//! (fed to `aeon-ownership`'s static analysis via
//! [`MethodTable::declare_in`]) from it.
//!
//! Most classes use the [`context_class!`] macro; classes with per-instance
//! class names (such as [`crate::KvContext`]) implement [`ContextClass`] by
//! hand and override [`ContextClass::class_name`].
//!
//! # Examples
//!
//! ```
//! use aeon_runtime::{
//!     context_class, AeonRuntime, ContextClass, Deployment, Invocation, Placement, Session,
//! };
//! use aeon_types::{args, Args, Result, Value};
//!
//! #[derive(Default)]
//! struct Counter {
//!     count: i64,
//! }
//!
//! impl Counter {
//!     fn add(&mut self, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
//!         self.count += args.get_i64(0)?;
//!         Ok(Value::from(self.count))
//!     }
//!
//!     fn get(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
//!         Ok(Value::from(self.count))
//!     }
//! }
//!
//! context_class! {
//!     Counter: "Counter" {
//!         method "add" => Counter::add,
//!         ro method "get" => Counter::get,
//!     }
//! }
//!
//! # fn main() -> Result<()> {
//! assert!(Counter::table().is_readonly("get"));
//! let runtime = AeonRuntime::builder().build()?;
//! let counter = runtime.create_context(Box::new(Counter::default()), Placement::Auto)?;
//! let client = runtime.client();
//! assert_eq!(client.submit_event(counter, "add", args![4])?.wait()?, Value::from(4i64));
//! runtime.shutdown();
//! # Ok(())
//! # }
//! ```

use crate::context::ContextObject;
use crate::invocation::Invocation;
use aeon_ownership::{ClassGraph, MethodRef};
use aeon_types::{AeonError, Args, Result, Value};

/// The signature of a declarative method handler.
pub type Handler<T> = fn(&mut T, &Args, &mut Invocation<'_>) -> Result<Value>;

/// One declared method of a contextclass.
pub struct MethodEntry<T> {
    name: &'static str,
    readonly: bool,
    /// Declared outgoing call summary (`"Class::method"` strings); `None`
    /// when the method never declared one.
    calls: Option<&'static [&'static str]>,
    handler: Handler<T>,
}

impl<T> MethodEntry<T> {
    /// Method name as dispatched.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Whether the method was declared `readonly`.
    pub fn readonly(&self) -> bool {
        self.readonly
    }

    /// The declared outgoing call summary (`"Class::method"` strings), or
    /// `None` when the method never declared one.  An empty slice declares
    /// "calls nothing".
    pub fn calls(&self) -> Option<&'static [&'static str]> {
        self.calls
    }
}

/// The declared method surface of a contextclass: dispatch table, `ro`
/// marks, and metadata in one place.
pub struct MethodTable<T> {
    class: &'static str,
    entries: Vec<MethodEntry<T>>,
}

impl<T> MethodTable<T> {
    /// Starts building a table for `class`.
    pub fn builder(class: &'static str) -> MethodTableBuilder<T> {
        MethodTableBuilder {
            table: MethodTable {
                class,
                entries: Vec::new(),
            },
        }
    }

    /// The static class name the table was declared for.
    pub fn class(&self) -> &'static str {
        self.class
    }

    /// The declared entry for `method`, if any.
    pub fn entry(&self, method: &str) -> Option<&MethodEntry<T>> {
        self.entries.iter().find(|e| e.name == method)
    }

    /// Whether `method` was declared `readonly`; unknown methods are not
    /// readonly.
    pub fn is_readonly(&self, method: &str) -> bool {
        self.entry(method).is_some_and(MethodEntry::readonly)
    }

    /// Iterates the declared methods in declaration order.
    pub fn methods(&self) -> impl Iterator<Item = &MethodEntry<T>> {
        self.entries.iter()
    }

    /// Declares this table's class and methods in a [`ClassGraph`], making
    /// the method metadata visible to the static analysis and its
    /// consumers (checker, tooling, cross-backend tests).
    pub fn declare_in(&self, classes: &mut ClassGraph) {
        classes.add_class(self.class);
        for entry in &self.entries {
            classes.declare_method(self.class, entry.name, entry.readonly);
            if let Some(calls) = entry.calls {
                let refs = calls.iter().map(|call| {
                    MethodRef::parse(call).unwrap_or_else(|| {
                        panic!(
                            "method {}::{} declares malformed call {call:?} \
                             (expected \"Class::method\")",
                            self.class, entry.name
                        )
                    })
                });
                classes.declare_calls(self.class, entry.name, refs);
            }
        }
    }
}

impl<T> std::fmt::Debug for MethodTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MethodTable")
            .field("class", &self.class)
            .field(
                "methods",
                &self.entries.iter().map(|e| e.name).collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// Builder for [`MethodTable`].
pub struct MethodTableBuilder<T> {
    table: MethodTable<T>,
}

impl<T> MethodTableBuilder<T> {
    /// Declares an exclusive (update) method.
    #[must_use]
    pub fn method(self, name: &'static str, handler: Handler<T>) -> Self {
        self.push(name, false, None, handler)
    }

    /// Declares a `readonly` (`ro`) method.
    #[must_use]
    pub fn readonly(self, name: &'static str, handler: Handler<T>) -> Self {
        self.push(name, true, None, handler)
    }

    /// Declares an exclusive (update) method together with its complete
    /// outgoing call summary (`"Class::method"` strings; an empty slice
    /// declares "calls nothing").
    #[must_use]
    pub fn method_calls(
        self,
        name: &'static str,
        calls: &'static [&'static str],
        handler: Handler<T>,
    ) -> Self {
        self.push(name, false, Some(calls), handler)
    }

    /// Declares a `readonly` (`ro`) method together with its complete
    /// outgoing call summary.
    #[must_use]
    pub fn readonly_calls(
        self,
        name: &'static str,
        calls: &'static [&'static str],
        handler: Handler<T>,
    ) -> Self {
        self.push(name, true, Some(calls), handler)
    }

    fn push(
        mut self,
        name: &'static str,
        readonly: bool,
        calls: Option<&'static [&'static str]>,
        handler: Handler<T>,
    ) -> Self {
        debug_assert!(
            self.table.entry(name).is_none(),
            "method {name} declared twice on {}",
            self.table.class
        );
        debug_assert!(
            calls
                .unwrap_or(&[])
                .iter()
                .all(|c| MethodRef::parse(c).is_some()),
            "method {name} on {} declares a malformed call summary",
            self.table.class
        );
        self.table.entries.push(MethodEntry {
            name,
            readonly,
            calls,
            handler,
        });
        self
    }

    /// Finishes the table.
    pub fn build(self) -> MethodTable<T> {
        self.table
    }
}

/// A contextclass with a declarative method surface.
///
/// Implementing `ContextClass` (usually through [`context_class!`]) yields a
/// blanket [`ContextObject`] implementation: dispatch, `ro` classification
/// and `UnknownMethod` behaviour all come from the class's [`MethodTable`],
/// so they cannot drift apart and behave identically on every deployment
/// backend.
pub trait ContextClass: Send + Sized + 'static {
    /// The class's method table (built once, shared by all instances).
    fn table() -> &'static MethodTable<Self>;

    /// The class name of this instance.  Defaults to the table's static
    /// name; override it for classes whose name is chosen per instance
    /// (e.g. [`crate::KvContext`]).
    fn class_name(&self) -> &str {
        Self::table().class()
    }

    /// Serialises the context state for migration or checkpointing (see
    /// [`ContextObject::snapshot`]).
    fn snapshot(&self) -> Value {
        Value::Null
    }

    /// Restores the context state from a snapshot (see
    /// [`ContextObject::restore`]).
    fn restore(&mut self, state: &Value) {
        let _ = state;
    }
}

impl<T: ContextClass> ContextObject for T {
    fn class_name(&self) -> &str {
        ContextClass::class_name(self)
    }

    fn handle(&mut self, method: &str, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match T::table().entry(method) {
            Some(entry) => (entry.handler)(self, args, inv),
            None => Err(AeonError::UnknownMethod {
                class: ContextClass::class_name(self).to_string(),
                method: method.to_string(),
            }),
        }
    }

    fn is_readonly(&self, method: &str) -> bool {
        T::table().is_readonly(method)
    }

    fn snapshot(&self) -> Value {
        ContextClass::snapshot(self)
    }

    fn restore(&mut self, state: &Value) {
        ContextClass::restore(self, state);
    }
}

/// Declares a contextclass: its name, its method table (with `ro` marks)
/// and, optionally, its snapshot/restore functions.
///
/// ```ignore
/// context_class! {
///     Building: "Building" {
///         method "update_time_of_day" calls ["Room::update_time_of_day"]
///             => Building::update_time_of_day,
///         ro method "count_players" calls ["Room::nr_players"]
///             => Building::count_players,
///     }
///     snapshot = Building::snapshot_state;
///     restore = Building::restore_state;
/// }
/// ```
///
/// The optional `calls [...]` clause declares the method's complete outgoing
/// call summary (`"Class::method"` literals; `calls []` declares "calls
/// nothing").  Summaries flow into the [`ClassGraph`] via
/// [`MethodTable::declare_in`], where `aeon-analyzer`'s pass pipeline checks
/// them for ownership coverage, readonly soundness, and deadlock freedom; in
/// debug builds the runtime additionally flags actual invocations not
/// covered by the declared summary.  Methods without the clause are exempt
/// from call-graph analysis.
///
/// Handlers are ordinary inherent functions with the [`Handler`] signature.
/// The macro expands to an implementation of [`ContextClass`] (and thereby
/// [`ContextObject`]), with the table built once in a
/// `std::sync::OnceLock`.
#[macro_export]
macro_rules! context_class {
    (
        $ty:ty : $class:literal { $($entries:tt)* }
        $(snapshot = $snap:path;)?
        $(restore = $restore:path;)?
    ) => {
        impl $crate::ContextClass for $ty {
            fn table() -> &'static $crate::MethodTable<Self> {
                static TABLE: ::std::sync::OnceLock<$crate::MethodTable<$ty>> =
                    ::std::sync::OnceLock::new();
                TABLE.get_or_init(|| {
                    $crate::context_class!(
                        @entries $crate::MethodTable::builder($class), $($entries)*
                    )
                    .build()
                })
            }

            $(
                fn snapshot(&self) -> $crate::macro_support::Value {
                    $snap(self)
                }
            )?

            $(
                fn restore(&mut self, state: &$crate::macro_support::Value) {
                    $restore(self, state)
                }
            )?
        }
    };
    (@entries $builder:expr, ) => { $builder };
    (@entries $builder:expr,
        ro method $name:literal calls [$($call:literal),* $(,)?] => $handler:expr, $($rest:tt)*
    ) => {
        $crate::context_class!(
            @entries $builder.readonly_calls($name, &[$($call),*], $handler), $($rest)*
        )
    };
    (@entries $builder:expr,
        method $name:literal calls [$($call:literal),* $(,)?] => $handler:expr, $($rest:tt)*
    ) => {
        $crate::context_class!(
            @entries $builder.method_calls($name, &[$($call),*], $handler), $($rest)*
        )
    };
    (@entries $builder:expr, ro method $name:literal => $handler:expr, $($rest:tt)*) => {
        $crate::context_class!(@entries $builder.readonly($name, $handler), $($rest)*)
    };
    (@entries $builder:expr, method $name:literal => $handler:expr, $($rest:tt)*) => {
        $crate::context_class!(@entries $builder.method($name, $handler), $($rest)*)
    };
}

/// Types the [`context_class!`] expansion refers to; not part of the public
/// API surface.
#[doc(hidden)]
pub mod macro_support {
    pub use aeon_types::Value;
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_types::args;

    #[derive(Default)]
    struct Probe {
        hits: i64,
    }

    impl Probe {
        fn hit(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
            self.hits += 1;
            Ok(Value::from(self.hits))
        }

        fn peek(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
            Ok(Value::from(self.hits))
        }

        fn snapshot_state(&self) -> Value {
            Value::map([("hits", Value::from(self.hits))])
        }

        fn restore_state(&mut self, state: &Value) {
            self.hits = state.get("hits").and_then(Value::as_i64).unwrap_or(0);
        }
    }

    context_class! {
        Probe: "Probe" {
            method "hit" => Probe::hit,
            ro method "peek" calls [] => Probe::peek,
            method "chain" calls ["Probe::hit", "Other::peek"] => Probe::hit,
        }
        snapshot = Probe::snapshot_state;
        restore = Probe::restore_state;
    }

    #[test]
    fn table_declares_methods_and_ro_marks() {
        let table = Probe::table();
        assert_eq!(table.class(), "Probe");
        assert!(!table.is_readonly("hit"));
        assert!(table.is_readonly("peek"));
        assert!(!table.is_readonly("missing"));
        assert_eq!(table.methods().count(), 3);
    }

    #[test]
    fn call_summaries_flow_through_the_macro() {
        let table = Probe::table();
        assert_eq!(table.entry("hit").unwrap().calls(), None);
        assert_eq!(table.entry("peek").unwrap().calls(), Some(&[][..]));
        assert_eq!(
            table.entry("chain").unwrap().calls(),
            Some(&["Probe::hit", "Other::peek"][..])
        );
    }

    #[test]
    fn blanket_context_object_dispatches_through_the_table() {
        use crate::{Deployment, Session};
        let runtime = crate::AeonRuntime::builder().build().unwrap();
        let probe = runtime
            .create_context(Box::new(Probe::default()), crate::Placement::Auto)
            .unwrap();
        let client = runtime.client();
        assert_eq!(
            client
                .submit_event(probe, "hit", args![])
                .unwrap()
                .wait()
                .unwrap(),
            Value::from(1i64)
        );
        assert_eq!(
            client
                .submit_readonly_event(probe, "peek", args![])
                .unwrap()
                .wait()
                .unwrap(),
            Value::from(1i64)
        );
        let err = client
            .submit_event(probe, "nope", args![])
            .unwrap()
            .wait()
            .unwrap_err();
        assert!(matches!(err, AeonError::UnknownMethod { class, method }
            if class == "Probe" && method == "nope"));
        runtime.shutdown();
    }

    #[test]
    fn macro_snapshot_and_restore_are_wired() {
        let mut probe = Probe { hits: 9 };
        let snap = ContextObject::snapshot(&probe);
        probe.hits = 0;
        ContextObject::restore(&mut probe, &snap);
        assert_eq!(probe.hits, 9);
    }

    #[test]
    fn declare_in_feeds_the_class_graph_metadata() {
        let mut classes = ClassGraph::new();
        Probe::table().declare_in(&mut classes);
        assert!(classes.contains("Probe"));
        assert_eq!(classes.readonly_method("Probe", "peek"), Some(true));
        assert_eq!(classes.readonly_method("Probe", "hit"), Some(false));
        assert_eq!(classes.readonly_method("Probe", "missing"), None);
        assert_eq!(classes.methods_of("Probe").len(), 3);
        // Call summaries land in the graph as parsed MethodRefs.
        assert_eq!(classes.calls_of("Probe", "hit"), None);
        assert_eq!(classes.calls_of("Probe", "peek"), Some(&[][..]));
        assert_eq!(
            classes.calls_of("Probe", "chain"),
            Some(
                &[
                    MethodRef::new("Probe", "hit"),
                    MethodRef::new("Other", "peek")
                ][..]
            )
        );
    }
}
