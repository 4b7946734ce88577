//! # AEON — Atomic Events over an Ownership Network
//!
//! A reproduction of *"Programming Scalable Cloud Services with AEON"*
//! (Middleware 2016): an actor-like framework in which stateful **contexts**
//! are organised in an ownership DAG and client **events** spanning many
//! contexts execute with strict serializability, deadlock freedom and
//! starvation freedom, while an **elasticity manager** migrates contexts
//! between servers without violating consistency.
//!
//! The public surface is organised around two ideas:
//!
//! 1. **One program, any deployment.**  Applications are written against
//!    the [`api`] traits — [`Deployment`](prelude::Deployment) for the
//!    control plane and [`Session`](prelude::Session) for submitting
//!    events — and run unchanged on the in-process concurrent runtime
//!    ([`runtime`]), the distributed message-passing cluster ([`cluster`]),
//!    or the deterministic virtual-time simulator ([`sim`]).  Which one
//!    executes is itself just configuration: [`deploy`] takes a
//!    [`DeployConfig`] naming the [`Backend`] plus the knobs every backend
//!    understands (servers, worker pool, class constraints) and returns a
//!    `Box<dyn Deployment>`.  The trait also exposes the elasticity
//!    control plane — `server_metrics()` (per-server load, context count,
//!    queue depth, latency), `add_server`/`remove_server`, migration and
//!    snapshots — which is what lets the [`emanager`] drive any backend.
//! 2. **Declarative contextclasses.**  A contextclass declares its methods
//!    once in a [`context_class!`](prelude::context_class) method table —
//!    handlers, `ro` marks and snapshot/restore together — and the runtime
//!    derives dispatch, read-only enforcement, uniform `UnknownMethod`
//!    errors and machine-readable method metadata from it.
//!
//! The remaining crates supply the machinery: [`ownership`] (the ownership
//! network, dominators and the static contextclass analysis), [`emanager`]
//! (elasticity policies and persisted migration intents), [`checker`]
//! (execution-history recording and strict-serializability checking),
//! [`storage`] / [`net`] (cloud-storage and networking substrates).
//!
//! # Quickstart
//!
//! ```
//! use aeon::prelude::*;
//!
//! # fn main() -> aeon::Result<()> {
//! // Pick a backend by configuration: Backend::Runtime here;
//! // Backend::Cluster or Backend::Sim deploy the same program distributed
//! // or simulated.
//! let deployment = aeon::deploy(DeployConfig::runtime().servers(2))?;
//!
//! let counter = deployment.create_context(
//!     Box::new(KvContext::new("Counter")),
//!     Placement::Auto,
//! )?;
//! let session = deployment.session();
//! session.call(counter, "incr", args!["hits", 1])?;          // event call
//! let hits = session.call_readonly(counter, "get", args!["hits"])?; // ro event
//! assert_eq!(hits, Value::from(1i64));
//! deployment.shutdown();
//! # Ok(())
//! # }
//! ```
//!
//! Defining a contextclass:
//!
//! ```
//! use aeon::prelude::*;
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
//! # fn main() -> aeon::Result<()> {
//! let runtime = AeonRuntime::builder().build()?;
//! let counter = runtime.create_context(Box::new(Counter::default()), Placement::Auto)?;
//! let session = runtime.session();
//! assert_eq!(session.call(counter, "add", args![5])?, Value::from(5i64));
//! runtime.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod config;
mod deploy;

pub use aeon_analyzer as analyzer;
pub use aeon_api as api;
pub use aeon_checker as checker;
pub use aeon_cluster as cluster;
pub use aeon_emanager as emanager;
pub use aeon_net as net;
pub use aeon_ownership as ownership;
pub use aeon_runtime as runtime;
pub use aeon_sim as sim;
pub use aeon_storage as storage;
pub use aeon_types as types;

pub use aeon_types::{AccessMode, AeonError, Args, ContextId, EventId, Result, ServerId, Value};
pub use config::{AdminConfig, ServiceConfig, WorkloadConfig};
pub use deploy::{deploy, deploy_shared, Backend, DeployConfig};

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::deploy::{deploy, deploy_shared, Backend, DeployConfig};
    pub use aeon_analyzer::{analyze, AnalysisReport, DiagCode};
    pub use aeon_api::{Deployment, EventHandle, Session};
    pub use aeon_checker::{check_strict_serializability, History, HistoryRecorder};
    pub use aeon_cluster::{Cluster, ClusterClient, ClusterTransport, NodeProcessConfig};
    pub use aeon_emanager::{
        EManager, ElasticityAction, ElasticityPolicy, ResourceUtilizationPolicy,
        ServerContentionPolicy, ServerMetrics, SlaPolicy,
    };
    pub use aeon_ownership::{ClassGraph, Dominator, MethodInfo, MethodRef, OwnershipGraph};
    pub use aeon_runtime::{
        context_class, AeonClient, AeonRuntime, ContextClass, ContextObject, Invocation, KvContext,
        MethodTable, Placement, Snapshot,
    };
    pub use aeon_sim::{SimDeployment, SimSession};
    pub use aeon_storage::{CloudStore, InMemoryStore};
    pub use aeon_types::{args, AccessMode, AeonError, Args, ContextId, Result, ServerId, Value};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let runtime = AeonRuntime::builder().servers(1).build().unwrap();
        let ctx = runtime
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let manager = EManager::new(std::sync::Arc::new(runtime.clone()), InMemoryStore::new());
        manager.add_policy(Box::new(ServerContentionPolicy::new(10)));
        assert!(manager.tick(&manager.collect_metrics()).unwrap().is_empty());
        assert_eq!(runtime.dominator_of(ctx).unwrap(), Dominator::Context(ctx));
        runtime.shutdown();
    }

    #[test]
    fn every_backend_is_a_deployment() {
        // The same closure drives all three backends through the trait.
        fn exercise(deployment: &dyn Deployment) {
            let ctx = deployment
                .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
                .unwrap();
            let session = deployment.session();
            session.call(ctx, "incr", args!["n", 2]).unwrap();
            assert_eq!(
                session.call_readonly(ctx, "get", args!["n"]).unwrap(),
                Value::from(2i64),
                "backend {}",
                deployment.backend_name()
            );
            deployment.shutdown();
        }
        exercise(&AeonRuntime::builder().servers(2).build().unwrap());
        exercise(&Cluster::builder().servers(2).build().unwrap());
        exercise(&SimDeployment::builder().servers(2).build().unwrap());
    }
}
