//! The AEON runtime: strict-serializable multi-context events over an
//! ownership network (§4 of the paper).
//!
//! The runtime hosts *contexts* (user objects implementing
//! [`ContextObject`]) on a set of logical *servers*, maintains the ownership
//! DAG, and executes *events* — client requests that may traverse many
//! contexts — so that the overall execution is strictly serializable,
//! deadlock free and starvation free:
//!
//! 1. every event is first *sequenced* at the dominator of its target
//!    context (Algorithm 2's `dispatchEvent`), taking the dominator's lock
//!    in exclusive or shared (read-only) mode;
//! 2. the event then executes at its target, locking each context it enters
//!    (`scheduleNext` / `activatePath`), making synchronous or `async`
//!    method calls only along ownership edges.  A call to a context the
//!    caller owns only transitively first enters an owner of it, recursively
//!    up to the caller, so the path is locked top-down — unless the event
//!    already holds an owner of the target;
//! 3. on completion, every lock is released in reverse acquisition order and
//!    sub-events dispatched from within the event are submitted.
//!
//! The unit of parallelism is the event: events whose targets do not share
//! descendants have different dominators and proceed concurrently.
//!
//! The backend-agnostic API is here too: the [`Deployment`] and [`Session`]
//! traits and their one [`EventHandle`] (see [`deployment`]).  The runtime
//! implements them, and so do `aeon_cluster::Cluster` and
//! `aeon_sim::SimDeployment`; code written against `&dyn Deployment` runs
//! unchanged on all three.
//!
//! # Examples
//!
//! ```
//! use aeon_runtime::{AeonRuntime, ContextObject, Deployment, Invocation, Placement, Session};
//! use aeon_types::{args, Args, Result, Value};
//!
//! struct Counter { count: i64 }
//! impl ContextObject for Counter {
//!     fn class_name(&self) -> &str { "Counter" }
//!     fn handle(&mut self, method: &str, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
//!         match method {
//!             "add" => { self.count += args.get_i64(0)?; Ok(Value::from(self.count)) }
//!             "get" => Ok(Value::from(self.count)),
//!             _ => Err(aeon_types::AeonError::UnknownMethod {
//!                 class: "Counter".into(), method: method.into() }),
//!         }
//!     }
//!     fn is_readonly(&self, method: &str) -> bool { method == "get" }
//! }
//!
//! # fn main() -> Result<()> {
//! let runtime = AeonRuntime::builder().servers(2).build()?;
//! let counter = runtime.create_context(Box::new(Counter { count: 0 }), Placement::Auto)?;
//! let client = runtime.client();
//! let handle = client.submit_event(counter, "add", args![5])?;
//! assert_eq!(handle.wait()?, Value::from(5i64));
//! runtime.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod context;
pub mod deployment;
pub mod event;
pub mod executor;
pub mod invocation;
pub mod locks;
pub mod method_table;
pub mod reply;
pub mod runtime;
pub mod server;
pub mod snapshot;

pub use context::{ContextFactory, ContextObject, ContextSlot, KvContext};
pub use deployment::{ClassFactories, ControlState, Deployment, DirOp, DirReply, Hosted, Session};
pub use event::{EventHandle, EventRequest};
pub use executor::{ExecutorConfig, ExecutorStats, ShardedExecutor};
pub use invocation::{
    BodyOutcome, CertifiedReads, ContextHost, Entered, EventBody, EventMeta, Footprint, Invocation,
    SubEvent, MIGRATE_METHOD, RESTORE_METHOD, SNAPSHOT_METHOD,
};
pub use locks::ContextLock;
pub use method_table::{
    macro_support, ContextClass, Handler, MethodEntry, MethodTable, MethodTableBuilder,
};
pub use runtime::{AeonClient, AeonRuntime, EventObserver, Placement, RuntimeBuilder};
pub use server::ServerCore;
pub use snapshot::Snapshot;
