//! The elasticity manager (eManager) of AEON (§5 of the paper).
//!
//! The eManager is a stateless service that
//!
//! * works on the deployment's own placement (`placement_of` /
//!   `contexts_on`) and keeps only what a replacement needs besides — the
//!   ownership network, checkpoints and migration intents — in cloud
//!   storage, so a crashed eManager can be replaced without losing state,
//! * evaluates *elasticity policies* (resource utilisation, server
//!   contention, SLA) against periodic server metrics and decides when to
//!   scale out/in and which contexts to migrate,
//! * migrates a context as one `migrate_context` call between persisting and
//!   clearing one intent (`migration/<context>` → destination), so a newly
//!   elected eManager re-submits the moves its predecessor left in flight,
//! * exposes the snapshot/checkpoint API (§5.3).
//!
//! The manager is backend-agnostic: [`EManager::new`] takes an
//! `Arc<dyn Deployment>` (see `aeon-api`), so the same policies elastically
//! scale the in-process runtime, the distributed cluster, and the
//! deterministic simulator.  Metric collection, scale out/in, and
//! migration all go through the `Deployment` control-plane surface
//! (`server_metrics`, `add_server`/`remove_server`, `migrate_context`,
//! `snapshot_context`).
//!
//! # Examples
//!
//! ```
//! use aeon::prelude::*;
//! use aeon::DeployConfig;
//! use aeon_emanager::{EManager, ServerContentionPolicy};
//! use aeon_storage::InMemoryStore;
//!
//! # fn main() -> aeon_types::Result<()> {
//! // Any backend works: `DeployConfig::runtime()` / `::cluster()` /
//! // `::sim()` all hand the manager the same `dyn Deployment`.
//! let deployment = aeon::deploy_shared(DeployConfig::sim().servers(1))?;
//! let manager = EManager::new(deployment.clone(), InMemoryStore::new());
//! manager.add_policy(Box::new(ServerContentionPolicy::new(2)));
//! for _ in 0..6 {
//!     deployment.create_context(Box::new(KvContext::new("Item")), Placement::Auto)?;
//! }
//! // The contention policy notices >2 contexts per server and scales out,
//! // rebalancing contexts onto the new servers.
//! let actions = manager.tick(&manager.collect_metrics())?;
//! assert!(!actions.is_empty());
//! assert!(deployment.servers().len() > 1);
//! deployment.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod manager;
pub mod policy;

pub use manager::EManager;
pub use policy::{
    ElasticityAction, ElasticityPolicy, ResourceUtilizationPolicy, ServerContentionPolicy,
    ServerMetrics, SlaPolicy,
};
