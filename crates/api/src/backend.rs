//! The in-process runtime as a [`Deployment`] backend.
//!
//! The other two backends live next to their types: `aeon-cluster`
//! implements the traits for `Cluster`/`ClusterClient`, `aeon-sim` for
//! `SimDeployment`/`SimSession`.

use crate::handle::EventHandle;
use crate::traits::{Deployment, Session};
use aeon_ownership::OwnershipGraph;
use aeon_runtime::{
    AeonClient, AeonRuntime, ContextFactory, ContextObject, ExecutorStats, Placement,
};
use aeon_types::{
    AccessMode, Args, ClientId, ContextId, Result, ServerId, ServerMetrics, SharedHistorySink,
    Value,
};

impl Session for AeonClient {
    fn client_id(&self) -> ClientId {
        self.id()
    }

    fn submit_with_mode(
        &self,
        target: ContextId,
        method: &str,
        args: Args,
        mode: AccessMode,
    ) -> Result<EventHandle> {
        let native = self.submit(target, method, args, mode)?;
        Ok(EventHandle::pending(native.event_id(), move || {
            native.wait()
        }))
    }

    // A blocked caller is served on its own thread: no hand-off to the
    // worker pool and back.
    fn call(&self, target: ContextId, method: &str, args: Args) -> Result<Value> {
        self.call_with_mode(target, method, args, AccessMode::Exclusive)
    }

    fn call_readonly(&self, target: ContextId, method: &str, args: Args) -> Result<Value> {
        self.call_with_mode(target, method, args, AccessMode::ReadOnly)
    }
}

impl Deployment for AeonRuntime {
    fn backend_name(&self) -> &'static str {
        "runtime"
    }

    fn create_context(
        &self,
        object: Box<dyn ContextObject>,
        placement: Placement,
    ) -> Result<ContextId> {
        AeonRuntime::create_context(self, object, placement)
    }

    fn create_owned_context(
        &self,
        object: Box<dyn ContextObject>,
        owners: &[ContextId],
    ) -> Result<ContextId> {
        AeonRuntime::create_owned_context(self, object, owners)
    }

    fn register_class_factory(&self, class: &str, factory: ContextFactory) {
        AeonRuntime::register_class_factory(self, class, factory);
    }

    fn add_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()> {
        AeonRuntime::add_ownership(self, owner, owned)
    }

    fn remove_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()> {
        AeonRuntime::remove_ownership(self, owner, owned)
    }

    fn ownership_graph(&self) -> OwnershipGraph {
        AeonRuntime::ownership_graph(self)
    }

    fn session(&self) -> Box<dyn Session> {
        Box::new(self.client())
    }

    fn add_server(&self) -> ServerId {
        AeonRuntime::add_server(self)
    }

    fn remove_server(&self, server: ServerId) -> Result<()> {
        AeonRuntime::remove_server(self, server)
    }

    fn server_metrics(&self) -> Vec<ServerMetrics> {
        AeonRuntime::server_metrics(self)
    }

    fn context_count(&self) -> usize {
        AeonRuntime::context_count(self)
    }

    fn executor_stats(&self) -> Option<ExecutorStats> {
        Some(AeonRuntime::executor_stats(self))
    }

    fn crash_server(&self, server: ServerId) -> Result<()> {
        AeonRuntime::crash_server(self, server)
    }

    fn servers(&self) -> Vec<ServerId> {
        AeonRuntime::servers(self)
    }

    fn placement_of(&self, context: ContextId) -> Result<ServerId> {
        AeonRuntime::placement_of(self, context)
    }

    fn contexts_on(&self, server: ServerId) -> Vec<ContextId> {
        AeonRuntime::contexts_on(self, server)
    }

    fn install_history_sink(&self, sink: SharedHistorySink) {
        AeonRuntime::install_history_sink(self, sink);
    }

    fn restore_context(&self, context: ContextId, state: &Value, server: ServerId) -> Result<()> {
        AeonRuntime::restore_context(self, context, state, server)
    }

    fn shutdown(&self) {
        AeonRuntime::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_runtime::KvContext;
    use aeon_types::args;

    fn as_deployment(runtime: &AeonRuntime) -> &dyn Deployment {
        runtime
    }

    #[test]
    fn runtime_backend_round_trip_through_dyn_deployment() {
        let runtime = AeonRuntime::builder().servers(2).build().unwrap();
        let deployment = as_deployment(&runtime);
        assert_eq!(deployment.backend_name(), "runtime");
        let ctx = deployment
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let session = deployment.session();
        session.call(ctx, "set", args!["gold", 5]).unwrap();
        assert_eq!(
            session.call_readonly(ctx, "get", args!["gold"]).unwrap(),
            Value::from(5i64)
        );
        deployment.shutdown();
    }

    #[test]
    fn session_wrappers_are_trait_defaults() {
        let runtime = AeonRuntime::builder().build().unwrap();
        let ctx = runtime
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let client = runtime.client();
        let handle = Session::submit_event(&client, ctx, "incr", args!["n", 2]).unwrap();
        assert_eq!(handle.wait().unwrap(), Value::from(2i64));
        let handle = Session::submit_readonly_event(&client, ctx, "get", args!["n"]).unwrap();
        assert_eq!(handle.wait().unwrap(), Value::from(2i64));
        runtime.shutdown();
    }
}
