//! # aeon-cluster — the distributed deployment of AEON
//!
//! The in-process runtime (`aeon-runtime`) executes the AEON protocol with
//! shared-memory locks; this crate deploys the same protocol across a set of
//! *server nodes* connected only by the message-passing substrate of
//! `aeon-net`, which is how the paper's C++/Mace prototype is structured:
//!
//! * context **state** lives on exactly one server at a time and moves only
//!   by a migration (§5.2), which is an exclusive event on the context:
//!   sequenced like any other, it ships the state and hands every event
//!   queued on the context over to its new server;
//! * every event is **sequenced at the dominator** of its target (an `ACT`
//!   message to the dominator's server), then **executed at its target**
//!   (an `EXEC` message), with method calls to remotely hosted contexts
//!   travelling as `CALL`/`REPLY` messages (§4, Algorithm 2);
//! * locks are released cluster-wide with `RELEASE` messages once the event
//!   terminates everywhere;
//! * the **context mapping** (which server hosts which context) and the
//!   ownership network are kept in the deployment's one
//!   [`aeon_runtime::ControlState`], standing in for the paper's eManager
//!   plus cloud storage (§5.1): the gateway and every in-process node share
//!   it, and a node process asks the gateway over the wire;
//! * servers can be added at runtime, crashed (fault injection), and
//!   contexts migrated or restored from checkpoints without violating the
//!   consistency of in-flight events.
//!
//! Application code is unchanged between the two deployments: the same
//! [`aeon_runtime::ContextObject`] implementations run on either, because
//! both engines drive them through [`aeon_runtime::Invocation`] — and the
//! cluster implements the runtime's [`aeon_runtime::Deployment`] /
//! [`aeon_runtime::Session`] traits, so drivers written against the unified
//! API deploy here without changes.
//!
//! # Examples
//!
//! ```
//! use aeon_api::{Deployment, Session};
//! use aeon_cluster::Cluster;
//! use aeon_runtime::{KvContext, Placement};
//! use aeon_types::{args, Value};
//!
//! # fn main() -> aeon_types::Result<()> {
//! let cluster = Cluster::builder().servers(2).build()?;
//! let counter = cluster.create_context(Box::new(KvContext::new("Counter")), Placement::Auto)?;
//! let client = cluster.client();
//! client.call(counter, "incr", args!["hits", 1i64])?;
//! client.call(counter, "incr", args!["hits", 1i64])?;
//! assert_eq!(client.call_readonly(counter, "get", args!["hits"])?, Value::from(2i64));
//! cluster.shutdown();
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod cluster;
mod directory;
mod message;
mod node;
mod pending;
mod remote;
mod wire;

pub use aeon_runtime::{DirOp, DirReply};
pub use cluster::{Cluster, ClusterBuilder, ClusterClient, ClusterTransport};
pub use message::{gateway_id, virtual_root, ClusterMessage, EventDescriptor, NodeMetrics};
pub use remote::{run_node, NodeProcessConfig};
