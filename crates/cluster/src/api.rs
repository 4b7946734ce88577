//! The distributed cluster as an `aeon-api` [`Deployment`] backend.

use crate::cluster::{Cluster, ClusterClient};
use aeon_api::{Deployment, EventHandle, Session};
use aeon_ownership::OwnershipGraph;
use aeon_runtime::{ContextFactory, ContextObject, ExecutorStats, Placement};
use aeon_types::{
    AccessMode, Args, ClientId, ContextId, NetworkStatsSnapshot, Result, ServerId, ServerMetrics,
    SharedHistorySink, Value,
};

impl Session for ClusterClient {
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
}

impl Deployment for Cluster {
    fn backend_name(&self) -> &'static str {
        "cluster"
    }

    fn create_context(
        &self,
        object: Box<dyn ContextObject>,
        placement: Placement,
    ) -> Result<ContextId> {
        Cluster::create_context(self, object, placement)
    }

    fn create_owned_context(
        &self,
        object: Box<dyn ContextObject>,
        owners: &[ContextId],
    ) -> Result<ContextId> {
        Cluster::create_owned_context(self, object, owners)
    }

    fn register_class_factory(&self, class: &str, factory: ContextFactory) {
        Cluster::register_class_factory(self, class, factory);
    }

    fn add_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()> {
        Cluster::add_ownership(self, owner, owned)
    }

    fn remove_ownership(&self, owner: ContextId, owned: ContextId) -> Result<()> {
        Cluster::remove_ownership(self, owner, owned)
    }

    fn ownership_graph(&self) -> OwnershipGraph {
        Cluster::ownership_graph(self)
    }

    fn session(&self) -> Box<dyn Session> {
        Box::new(self.client())
    }

    fn add_server(&self) -> ServerId {
        Cluster::add_server(self)
    }

    fn remove_server(&self, server: ServerId) -> Result<()> {
        Cluster::remove_server(self, server)
    }

    fn server_metrics(&self) -> Vec<ServerMetrics> {
        Cluster::server_metrics(self)
    }

    fn context_count(&self) -> usize {
        Cluster::context_count(self)
    }

    fn executor_stats(&self) -> Option<ExecutorStats> {
        // Sum the per-node pools into one fleet-wide view.  A certified read
        // runs on its target's node pool like any event, but only the
        // gateway, which admits it, counts it: its counter is folded in
        // here.
        let mut total = ExecutorStats::default();
        for stats in Cluster::executor_stats(self).into_values() {
            total.workers += stats.workers;
            total.shards += stats.shards;
            total.submitted += stats.submitted;
            total.completed += stats.completed;
            total.queued += stats.queued;
            total.spill_spawned += stats.spill_spawned;
            total.spill_live += stats.spill_live;
            total.panics += stats.panics;
            total.batched += stats.batched;
            total.fast_path += stats.fast_path;
        }
        total.fast_path += Cluster::fast_path_events(self);
        Some(total)
    }

    fn network_stats(&self) -> Option<NetworkStatsSnapshot> {
        Some(Cluster::network_stats(self).snapshot())
    }

    fn crash_server(&self, server: ServerId) -> Result<()> {
        Cluster::crash_server(self, server)
    }

    fn servers(&self) -> Vec<ServerId> {
        Cluster::servers(self)
    }

    fn placement_of(&self, context: ContextId) -> Result<ServerId> {
        Cluster::placement_of(self, context)
    }

    fn contexts_on(&self, server: ServerId) -> Vec<ContextId> {
        Cluster::contexts_on(self, server)
    }

    fn install_history_sink(&self, sink: SharedHistorySink) {
        Cluster::install_history_sink(self, sink);
    }

    fn restore_context(&self, context: ContextId, state: &Value, server: ServerId) -> Result<()> {
        Cluster::restore_context(self, context, state, server)
    }

    fn shutdown(&self) {
        Cluster::shutdown(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_runtime::KvContext;
    use aeon_types::args;

    #[test]
    fn cluster_backend_round_trip_through_dyn_deployment() {
        let cluster = Cluster::builder().servers(2).build().unwrap();
        let deployment: &dyn Deployment = &cluster;
        assert_eq!(deployment.backend_name(), "cluster");
        let ctx = deployment
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let session = deployment.session();
        session.call(ctx, "set", args!["gold", 9]).unwrap();
        assert_eq!(
            session.call_readonly(ctx, "get", args!["gold"]).unwrap(),
            Value::from(9i64)
        );
        deployment.shutdown();
    }

    #[test]
    fn cluster_snapshot_restore_round_trip() {
        let cluster = Cluster::builder().servers(2).build().unwrap();
        cluster.register_class_factory(
            "Item",
            std::sync::Arc::new(|state: &Value| {
                let mut item = KvContext::new("Item");
                aeon_runtime::ContextObject::restore(&mut item, state);
                Box::new(item) as Box<dyn ContextObject>
            }),
        );
        let item = cluster
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let client = cluster.client();
        client.call(item, "set", args!["gold", 11]).unwrap();
        let snapshot = cluster.snapshot_context(item).unwrap();
        assert_eq!(snapshot.len(), 1);
        client.call(item, "set", args!["gold", 99]).unwrap();
        cluster.restore_snapshot(&snapshot).unwrap();
        assert_eq!(
            client.call_readonly(item, "get", args!["gold"]).unwrap(),
            Value::from(11i64)
        );
        cluster.shutdown();
    }
}
