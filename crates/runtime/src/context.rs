//! Context objects: the user-visible unit of state and behaviour.

use crate::invocation::Invocation;
use crate::locks::ContextLock;
use aeon_types::{AeonError, Args, ContextId, Result, Value};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A `contextclass` instance, implemented by the application.
///
/// The paper extends C++ with a `contextclass` keyword; in this library a
/// contextclass is any type implementing `ContextObject`.  Methods are
/// dispatched dynamically by name with [`Args`]/[`Value`] payloads, which is
/// what allows the runtime to ship state across servers (migration,
/// checkpointing) without compile-time codegen.
///
/// # Snapshots
///
/// [`ContextObject::snapshot`] / [`ContextObject::restore`] convert the
/// context state to and from a [`Value`].  They are used by the migration
/// protocol (§5.2) and the fault-tolerance snapshot API (§5.3).  Returning
/// [`Value::Null`] from `snapshot` opts the context out of checkpointing,
/// mirroring the paper's "overridden method returns null" convention.
pub trait ContextObject: Send + 'static {
    /// Name of the contextclass (e.g. `"Room"`).
    fn class_name(&self) -> &str;

    /// Handles a method call or event landing on this context.
    ///
    /// `inv` exposes the runtime to the handler: synchronous calls,
    /// `async` calls and sub-event dispatch to owned contexts, plus child
    /// context creation.
    ///
    /// # Errors
    ///
    /// Implementations should return [`AeonError::UnknownMethod`] for
    /// unrecognised method names and [`AeonError::Application`] for
    /// application-level failures.
    fn handle(&mut self, method: &str, args: &Args, inv: &mut Invocation<'_>) -> Result<Value>;

    /// Returns `true` when `method` was declared `readonly` (`ro`).
    ///
    /// Read-only events may execute concurrently in the same context; the
    /// runtime rejects calls to non-readonly methods from read-only events.
    fn is_readonly(&self, method: &str) -> bool {
        let _ = method;
        false
    }

    /// Serialises the context state for migration or checkpointing.
    fn snapshot(&self) -> Value {
        Value::Null
    }

    /// Restores the context state from a snapshot produced by
    /// [`ContextObject::snapshot`].
    fn restore(&mut self, state: &Value) {
        let _ = state;
    }
}

/// Factory used to re-instantiate a context object of a given class from a
/// snapshot (during migration to another server or crash recovery).
pub type ContextFactory = Arc<dyn Fn(&Value) -> Box<dyn ContextObject> + Send + Sync>;

/// A generic key/value context useful for tests, examples and benchmarks:
/// state is a map of [`Value`]s and methods `get`/`set`/`incr`/`keys` are
/// provided.
#[derive(Debug, Default)]
pub struct KvContext {
    class: String,
    map: BTreeMap<String, Value>,
}

impl KvContext {
    /// Creates an empty KV context with the given class name.
    pub fn new(class: impl Into<String>) -> Self {
        Self {
            class: class.into(),
            map: BTreeMap::new(),
        }
    }

    /// Creates a KV context pre-populated with entries.
    pub fn with_entries<I, K>(class: impl Into<String>, entries: I) -> Self
    where
        I: IntoIterator<Item = (K, Value)>,
        K: Into<String>,
    {
        Self {
            class: class.into(),
            map: entries.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        }
    }
}

impl KvContext {
    fn get(&mut self, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(self
            .map
            .get(args.get_str(0)?)
            .cloned()
            .unwrap_or(Value::Null))
    }

    fn set(&mut self, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        let key = args.get_str(0)?.to_string();
        let value = args.get(1).cloned().unwrap_or(Value::Null);
        Ok(self.map.insert(key, value).unwrap_or(Value::Null))
    }

    /// `incr(key, by = 1)`: a key it holds is updated in place, so only a
    /// new key costs an allocation.  A value that is not an integer counts
    /// as 0.
    fn incr(&mut self, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        let key = args.get_str(0)?;
        let by = match args.get(1) {
            None => 1,
            Some(_) => args.get_i64(1)?,
        };
        let Some(value) = self.map.get_mut(key) else {
            self.map.insert(key.to_string(), Value::from(by));
            return Ok(Value::from(by));
        };
        let current = value.as_i64().unwrap_or(0);
        let next = current
            .checked_add(by)
            .ok_or_else(|| AeonError::overflow(format_args!("{key} {current} + {by}")))?;
        *value = Value::from(next);
        Ok(Value::from(next))
    }

    fn keys(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::List(
            self.map.keys().map(|k| Value::from(k.clone())).collect(),
        ))
    }
}

// KvContext picks its class name per instance, so it implements
// `ContextClass` by hand (overriding `class_name`) instead of going through
// the `context_class!` macro.
impl crate::method_table::ContextClass for KvContext {
    fn table() -> &'static crate::method_table::MethodTable<Self> {
        static TABLE: std::sync::OnceLock<crate::method_table::MethodTable<KvContext>> =
            std::sync::OnceLock::new();
        TABLE.get_or_init(|| {
            crate::method_table::MethodTable::builder("Kv")
                .readonly("get", KvContext::get)
                .method("set", KvContext::set)
                .method("incr", KvContext::incr)
                .readonly("keys", KvContext::keys)
                .build()
        })
    }

    fn class_name(&self) -> &str {
        &self.class
    }

    fn snapshot(&self) -> Value {
        Value::map([
            ("class", Value::from(self.class.clone())),
            ("map", Value::Map(Box::new(self.map.clone()))),
        ])
    }

    fn restore(&mut self, state: &Value) {
        if let Some(class) = state.get("class").and_then(Value::as_str) {
            self.class = class.to_string();
        }
        if let Some(map) = state.get("map").and_then(Value::as_map) {
            self.map = map.clone();
        }
    }
}

/// A hosted context: its protocol lock and its application object.  The
/// runtime's object table holds one per context, and so does each cluster
/// node for the contexts installed on it.
pub struct ContextSlot {
    /// The context's id.
    pub id: ContextId,
    /// Its contextclass, fixed when the slot is built.
    pub class: String,
    /// The protocol-level lock (activation queue + activated set).
    pub lock: ContextLock,
    /// The application object.  Accessed only by events holding the
    /// protocol lock on this context.
    pub object: Mutex<Box<dyn ContextObject>>,
}

impl ContextSlot {
    /// A slot for `object`, hosted as `id`.
    pub fn new(id: ContextId, object: Box<dyn ContextObject>) -> Arc<Self> {
        let class = object.class_name().to_string();
        Arc::new(Self {
            id,
            class,
            lock: ContextLock::new(id),
            object: Mutex::new(object),
        })
    }
}

impl fmt::Debug for ContextSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContextSlot")
            .field("id", &self.id)
            .field("class", &self.class)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_context_snapshot_round_trip() {
        let mut kv = KvContext::with_entries("Item", [("gold", Value::from(10i64))]);
        let snap = ContextObject::snapshot(&kv);
        kv.map.clear();
        kv.class = "Other".into();
        ContextObject::restore(&mut kv, &snap);
        assert_eq!(kv.class, "Item");
        assert_eq!(kv.map.get("gold"), Some(&Value::from(10i64)));
    }

    #[test]
    fn kv_readonly_classification() {
        let kv = KvContext::new("Item");
        assert!(kv.is_readonly("get"));
        assert!(kv.is_readonly("keys"));
        assert!(!kv.is_readonly("set"));
        assert!(!kv.is_readonly("incr"));
    }

    #[test]
    fn default_snapshot_is_null() {
        struct Plain;
        impl ContextObject for Plain {
            fn class_name(&self) -> &str {
                "Plain"
            }
            fn handle(
                &mut self,
                _method: &str,
                _args: &Args,
                _inv: &mut Invocation<'_>,
            ) -> Result<Value> {
                Ok(Value::Null)
            }
        }
        let p = Plain;
        assert!(p.snapshot().is_null());
        assert!(!p.is_readonly("anything"));
    }
}
