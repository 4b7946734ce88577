//! The backend-agnostic deployment API of the AEON reproduction.
//!
//! The paper's promise is that one contextclass program runs unchanged on a
//! single server or on fifty.  That promise is the [`Deployment`] /
//! [`Session`] pair of traits and their one [`EventHandle`], which are
//! defined in `aeon-runtime` (`ContextObject::handle` takes the runtime's
//! interpreter, so the traits cannot sit below it) and re-exported here
//! with the vocabulary a deployment's consumer needs.  The three backends
//! are `aeon_runtime::AeonRuntime`, `aeon_cluster::Cluster` and
//! `aeon_sim::SimDeployment`.  Each supplies its control state and its
//! hosting step and the operations that differ between backends (sessions,
//! metrics, servers, shutdown); the control methods over that state —
//! plane queries, edge edits, create, restore, snapshot, migration — are
//! written once, in the trait.
//!
//! # Examples
//!
//! ```
//! use aeon_api::{Deployment, Session};
//! use aeon_runtime::{AeonRuntime, KvContext, Placement};
//! use aeon_types::{args, Result, Value};
//!
//! fn drive(deployment: &dyn Deployment) -> Result<Value> {
//!     let counter = deployment.create_context(
//!         Box::new(KvContext::new("Counter")),
//!         Placement::Auto,
//!     )?;
//!     let session = deployment.session();
//!     session.call(counter, "incr", args!["hits", 1])?;
//!     session.call_readonly(counter, "get", args!["hits"])
//! }
//!
//! # fn main() -> Result<()> {
//! let runtime = AeonRuntime::builder().servers(2).build()?;
//! assert_eq!(drive(&runtime)?, Value::from(1i64));
//! runtime.shutdown();
//! # Ok(())
//! # }
//! ```

pub use aeon_runtime::{
    ContextFactory, ContextObject, Deployment, EventHandle, Placement, Session, Snapshot,
};
pub use aeon_types::{HistorySink, LatencyHistogram, ServerMetrics, SharedHistorySink};
