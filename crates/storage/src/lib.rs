//! Simulated cloud storage substrate.
//!
//! The paper keeps what the eManager must not lose — the ownership network,
//! in-flight migration intents and context snapshots — in an external cloud
//! storage service (S3-like), so that the eManager can be stateless and
//! recover from crashes (§5.1, §5.3).  Placement itself is not stored here:
//! the deployment's control plane is its one authority.  This crate provides
//! that substrate: a linearizable key/value store, implemented in memory.
//!
//! # Examples
//!
//! ```
//! use aeon_storage::{keys, CloudStore, InMemoryStore};
//! use aeon_types::Value;
//!
//! let store = InMemoryStore::new();
//! store.put("migration/7", Value::from(2i64)).unwrap();
//! assert_eq!(store.get("migration/7"), Some(Value::from(2i64)));
//! assert_eq!(store.list_prefix(keys::MIGRATION_PREFIX), ["migration/7"]);
//! store.delete("migration/7").unwrap();
//! assert!(store.is_empty());
//! ```

use aeon_types::{Result, Value};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The interface the rest of the system programs against.  Every operation
/// is linearizable.
pub trait CloudStore: Send + Sync + std::fmt::Debug {
    /// Reads the value stored under `key`.
    fn get(&self, key: &str) -> Option<Value>;

    /// Unconditionally writes `value` under `key`.
    ///
    /// # Errors
    ///
    /// Implementations may fail with [`aeon_types::AeonError::Storage`]
    /// (e.g. simulated outage).
    fn put(&self, key: &str, value: Value) -> Result<()>;

    /// Deletes `key`.  Deleting an absent key is a no-op.
    fn delete(&self, key: &str) -> Result<()>;

    /// Lists all keys starting with `prefix`, in lexicographic order.
    fn list_prefix(&self, prefix: &str) -> Vec<String>;
}

/// In-memory [`CloudStore`] implementation.
///
/// Clones share the same underlying storage, so a clone can be handed to
/// every server plus the eManager, mimicking a shared external service.
#[derive(Debug, Clone, Default)]
pub struct InMemoryStore {
    map: Arc<Mutex<BTreeMap<String, Value>>>,
}

impl InMemoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of keys currently stored.
    pub fn len(&self) -> usize {
        self.map.lock().len()
    }

    /// Returns `true` when the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl CloudStore for InMemoryStore {
    fn get(&self, key: &str) -> Option<Value> {
        self.map.lock().get(key).cloned()
    }

    fn put(&self, key: &str, value: Value) -> Result<()> {
        self.map.lock().insert(key.to_string(), value);
        Ok(())
    }

    fn delete(&self, key: &str) -> Result<()> {
        self.map.lock().remove(key);
        Ok(())
    }

    fn list_prefix(&self, prefix: &str) -> Vec<String> {
        self.map
            .lock()
            .keys()
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect()
    }
}

/// Well-known key prefixes used by the framework.  Applications may use any
/// other prefix.
pub mod keys {
    /// Serialized ownership network.
    pub const OWNERSHIP_KEY: &str = "ownership/graph";
    /// In-flight migration intents (`migration/<context id>` → the
    /// destination server's id).
    pub const MIGRATION_PREFIX: &str = "migration/";
    /// Checkpoints (`snapshot/<name>`).
    pub const SNAPSHOT_PREFIX: &str = "snapshot/";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_put_delete_cycle() {
        let store = InMemoryStore::new();
        assert!(store.get("k").is_none());
        store.put("k", Value::from(1i64)).unwrap();
        assert_eq!(store.get("k"), Some(Value::from(1i64)));
        store.put("k", Value::from(2i64)).unwrap();
        assert_eq!(store.get("k"), Some(Value::from(2i64)));
        store.delete("k").unwrap();
        assert!(store.get("k").is_none());
        // Deleting again is a no-op.
        store.delete("k").unwrap();
    }

    #[test]
    fn list_prefix_is_sorted_and_filtered() {
        let store = InMemoryStore::new();
        store.put("migration/2", Value::Null).unwrap();
        store.put("migration/1", Value::Null).unwrap();
        store.put("snapshot/daily", Value::Null).unwrap();
        let keys = store.list_prefix(keys::MIGRATION_PREFIX);
        assert_eq!(
            keys,
            vec!["migration/1".to_string(), "migration/2".to_string()]
        );
        assert_eq!(store.list_prefix("nope/").len(), 0);
    }

    #[test]
    fn clones_share_state() {
        let store = InMemoryStore::new();
        let clone = store.clone();
        store.put("k", Value::from(9i64)).unwrap();
        assert_eq!(clone.get("k"), Some(Value::from(9i64)));
        assert_eq!(clone.len(), 1);
    }
}
