//! The eManager service itself.

use crate::mapping::ContextMapping;
use crate::migration::{MigrationRecord, MigrationStep};
use crate::policy::{ElasticityAction, ElasticityPolicy, ServerMetrics};
use aeon_api::{Deployment, Snapshot};
use aeon_storage::CloudStore;
use aeon_types::{AeonError, ContextId, Result, ServerId, Value};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// The elasticity manager: maintains the context mapping, evaluates
/// elasticity policies, performs migrations, and exposes snapshots.
///
/// The manager is written entirely against the `aeon-api`
/// [`Deployment`] trait, so the same elasticity policies drive the
/// in-process runtime, the distributed cluster, and the deterministic
/// simulator — pass whichever backend `aeon::deploy` built.
///
/// The eManager itself is stateless in the sense of the paper: everything it
/// needs to recover (mapping, ownership network, in-flight migrations) lives
/// in the cloud storage substrate, so [`EManager::recover`] can finish the
/// work of a crashed predecessor.
pub struct EManager {
    deployment: Arc<dyn Deployment>,
    store: Arc<dyn CloudStore>,
    mapping: ContextMapping,
    policies: RwLock<Vec<Box<dyn ElasticityPolicy>>>,
    /// User-provided constraints: contexts that must never be migrated
    /// (the paper's constraint API, e.g. pinned contexts).
    pinned: Mutex<Vec<ContextId>>,
    /// Maximum number of servers the manager may allocate (cost constraint).
    max_servers: Mutex<Option<usize>>,
}

impl std::fmt::Debug for EManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EManager")
            .field("backend", &self.deployment.backend_name())
            .field("policies", &self.policies.read().len())
            .finish_non_exhaustive()
    }
}

impl EManager {
    /// Creates an eManager for `deployment`, persisting into `store`.
    pub fn new(deployment: Arc<dyn Deployment>, store: impl CloudStore + 'static) -> Self {
        let store: Arc<dyn CloudStore> = Arc::new(store);
        Self {
            deployment,
            mapping: ContextMapping::new(store.clone()),
            store,
            policies: RwLock::new(Vec::new()),
            pinned: Mutex::new(Vec::new()),
            max_servers: Mutex::new(None),
        }
    }

    /// The deployment this manager drives.
    pub fn deployment(&self) -> &Arc<dyn Deployment> {
        &self.deployment
    }

    /// Registers an elasticity policy.  Policies are evaluated in
    /// registration order on every [`EManager::tick`].
    pub fn add_policy(&self, policy: Box<dyn ElasticityPolicy>) {
        self.policies.write().push(policy);
    }

    /// Pins a context: elasticity decisions will never migrate it.
    pub fn pin_context(&self, context: ContextId) {
        self.pinned.lock().push(context);
    }

    /// Caps the number of servers the eManager may allocate (a cost
    /// constraint in the sense of §5.2).
    pub fn set_max_servers(&self, max: usize) {
        *self.max_servers.lock() = Some(max);
    }

    /// The context mapping view backed by cloud storage.
    pub fn mapping(&self) -> &ContextMapping {
        &self.mapping
    }

    /// Collects the current per-server metrics from the deployment (the
    /// periodic utilisation reports of §5.2; each backend derives them from
    /// what it can observe).
    pub fn collect_metrics(&self) -> Vec<ServerMetrics> {
        self.deployment.server_metrics()
    }

    /// Evaluates every registered policy against `metrics` and applies the
    /// resulting actions (scale out, rebalance, scale in).  Returns the
    /// actions that were applied.
    ///
    /// # Errors
    ///
    /// Propagates migration and storage failures; successfully applied
    /// actions are not rolled back.
    pub fn tick(&self, metrics: &[ServerMetrics]) -> Result<Vec<ElasticityAction>> {
        let mut applied = Vec::new();
        let decisions: Vec<ElasticityAction> = self
            .policies
            .read()
            .iter()
            .flat_map(|p| p.evaluate(metrics))
            .collect();
        for action in decisions {
            match &action {
                ElasticityAction::ScaleOut { count } => {
                    let limit = self.max_servers.lock().unwrap_or(usize::MAX);
                    let current = self.deployment.servers().len();
                    let allowed = limit.saturating_sub(current).min(*count);
                    for _ in 0..allowed {
                        self.deployment.add_server();
                    }
                    if allowed > 0 {
                        applied.push(ElasticityAction::ScaleOut { count: allowed });
                    }
                }
                ElasticityAction::Rebalance { from } => {
                    self.rebalance_from(*from)?;
                    applied.push(action);
                }
                ElasticityAction::ScaleIn { server } => {
                    if self.deployment.servers().len() > 1 {
                        self.drain_server(*server)?;
                        self.deployment.remove_server(*server)?;
                        applied.push(action);
                    }
                }
            }
        }
        Ok(applied)
    }

    /// Moves contexts from `from` to the least-loaded other servers until
    /// `from` holds no more than the fleet average.
    ///
    /// # Errors
    ///
    /// Propagates migration failures.
    pub fn rebalance_from(&self, from: ServerId) -> Result<()> {
        let servers = self.deployment.servers();
        if servers.len() < 2 {
            return Ok(());
        }
        let hosted = self.deployment.contexts_on(from);
        let average = self.deployment.context_count().div_ceil(servers.len());
        let excess = hosted.len().saturating_sub(average.max(1));
        if excess == 0 {
            return Ok(());
        }
        let pinned = self.pinned.lock().clone();
        let movable: Vec<ContextId> = hosted
            .into_iter()
            .filter(|c| !pinned.contains(c))
            .take(excess)
            .collect();
        for context in movable {
            // Pick the least loaded destination other than `from`.
            let dest = servers
                .iter()
                .filter(|s| **s != from)
                .min_by_key(|s| self.deployment.contexts_on(**s).len())
                .copied()
                .ok_or_else(|| AeonError::Config("no destination server".into()))?;
            self.migrate(context, dest)?;
        }
        Ok(())
    }

    /// Migrates every context off `server` (used before scaling in).
    ///
    /// # Errors
    ///
    /// Propagates migration failures.
    pub fn drain_server(&self, server: ServerId) -> Result<()> {
        let others: Vec<ServerId> = self
            .deployment
            .servers()
            .into_iter()
            .filter(|s| *s != server)
            .collect();
        if others.is_empty() {
            return Err(AeonError::Config("cannot drain the last server".into()));
        }
        for (i, context) in self.deployment.contexts_on(server).into_iter().enumerate() {
            self.migrate(context, others[i % others.len()])?;
        }
        Ok(())
    }

    /// Runs the five-step migration protocol for one context, persisting
    /// each step so a replacement eManager can finish it after a crash.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ContextNotFound`] / [`AeonError::ServerNotFound`] for
    ///   unknown ids.
    /// * Storage failures while persisting progress.
    pub fn migrate(&self, context: ContextId, to: ServerId) -> Result<()> {
        let from = self.deployment.placement_of(context)?;
        if from == to {
            return Ok(());
        }
        // Step I: destination prepares a queue for the context.
        let mut record = MigrationRecord {
            context,
            from,
            to,
            step: MigrationStep::Prepared,
        };
        record.persist(&self.store)?;
        // Step II: source stops accepting events targeting the context.  On
        // every backend the stop window is the migration event's exclusive
        // hold on the context (step IV): events queued behind it wait on the
        // context's lock and continue wherever the context went.
        record.step = MigrationStep::SourceStopped;
        record.persist(&self.store)?;
        // Step III: the mapping now names the destination.
        self.mapping.record(context, to)?;
        record.step = MigrationStep::MappingUpdated;
        record.persist(&self.store)?;
        // Step IV: the migrate event drains the queue and moves the state.
        self.deployment.migrate_context(context, to)?;
        record.step = MigrationStep::StateMoved;
        record.persist(&self.store)?;
        // Step V: destination resumes execution; the record is cleared.
        record.step = MigrationStep::Completed;
        record.persist(&self.store)?;
        MigrationRecord::clear(&self.store, context)?;
        Ok(())
    }

    /// Completes migrations left unfinished by a crashed eManager and
    /// refreshes the mapping from the deployment's placement.
    ///
    /// Returns the number of migrations that were completed.
    ///
    /// # Errors
    ///
    /// Propagates migration and storage failures.
    pub fn recover(&self) -> Result<usize> {
        let mut finished = 0;
        for record in MigrationRecord::load_all(&self.store) {
            // Re-drive the migration from wherever it stopped; every step is
            // idempotent.
            if record.step < MigrationStep::Completed {
                self.mapping.record(record.context, record.to)?;
                self.deployment.migrate_context(record.context, record.to)?;
                finished += 1;
            }
            MigrationRecord::clear(&self.store, record.context)?;
        }
        // Refresh mapping entries for any context the storage does not know
        // about yet (e.g. contexts created while the old eManager was down).
        for server in self.deployment.servers() {
            for context in self.deployment.contexts_on(server) {
                self.mapping.record(context, server)?;
            }
        }
        Ok(finished)
    }

    /// Persists the current ownership network next to the mapping (§5.1).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn persist_ownership(&self) -> Result<()> {
        let graph = self.deployment.ownership_graph();
        self.store
            .put(aeon_storage::keys::OWNERSHIP_KEY, graph.to_value())?;
        Ok(())
    }

    /// Takes a consistent snapshot of `root` and its descendants and writes
    /// it to cloud storage under `snapshot/<name>` (§5.3).  Returns the
    /// number of contexts captured.
    ///
    /// Every backend captures the subtree as one cut (a dominator-sequenced
    /// event on `root`), so a checkpoint taken under load is
    /// crash-consistent: it restores to a state some serial execution of
    /// the workload could have produced, never a torn mix of member states.
    ///
    /// # Errors
    ///
    /// Propagates snapshot and storage failures (including
    /// [`aeon_types::AeonError::SnapshotFailed`] when a member's server
    /// crashes mid-snapshot — the failed event releases the surviving
    /// members like any other, so the checkpoint can simply be retried).
    pub fn checkpoint(&self, name: &str, root: ContextId) -> Result<usize> {
        let snapshot = self.deployment.snapshot_context(root)?;
        let key = format!("{}{}", aeon_storage::keys::SNAPSHOT_PREFIX, name);
        self.store.put(&key, snapshot.to_value())?;
        Ok(snapshot.len())
    }

    /// Restores a checkpoint previously written with [`EManager::checkpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::Storage`] when the checkpoint does not exist,
    /// plus snapshot restore failures.
    pub fn restore_checkpoint(&self, name: &str) -> Result<()> {
        let key = format!("{}{}", aeon_storage::keys::SNAPSHOT_PREFIX, name);
        let record = self
            .store
            .get(&key)
            .ok_or_else(|| AeonError::Storage(format!("no checkpoint named {name}")))?;
        let snapshot = Snapshot::from_value(&record.value)?;
        self.deployment.restore_snapshot(&snapshot)
    }

    /// Access to the persisted ownership network, if any.
    pub fn load_ownership(&self) -> Option<Value> {
        self.store
            .get(aeon_storage::keys::OWNERSHIP_KEY)
            .map(|r| r.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{ServerContentionPolicy, SlaPolicy};
    use aeon::prelude::{args, KvContext, Placement};
    use aeon::{Backend, DeployConfig};
    use aeon_storage::InMemoryStore;

    /// Builds a deployment through the facade's config-driven entry point;
    /// the manager only ever sees `dyn Deployment`.
    fn deploy(backend: Backend, servers: usize) -> Arc<dyn Deployment> {
        aeon::deploy_shared(DeployConfig::new(backend).servers(servers)).unwrap()
    }

    fn with_contexts(
        backend: Backend,
        servers: usize,
        contexts: usize,
    ) -> (Arc<dyn Deployment>, Vec<ContextId>) {
        let deployment = deploy(backend, servers);
        let ids = (0..contexts)
            .map(|_| {
                deployment
                    .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
                    .unwrap()
            })
            .collect();
        (deployment, ids)
    }

    #[test]
    fn contention_policy_scales_out_and_rebalances() {
        let (deployment, _) = with_contexts(Backend::Runtime, 1, 6);
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());
        manager.add_policy(Box::new(ServerContentionPolicy::new(2)));
        let actions = manager.tick(&manager.collect_metrics()).unwrap();
        assert!(actions
            .iter()
            .any(|a| matches!(a, ElasticityAction::ScaleOut { .. })));
        assert!(deployment.servers().len() > 1);
        // After a couple of ticks every server is under the limit.
        manager.tick(&manager.collect_metrics()).unwrap();
        for server in deployment.servers() {
            assert!(deployment.contexts_on(server).len() <= 3);
        }
        deployment.shutdown();
    }

    #[test]
    fn the_same_policy_drives_the_simulator_backend() {
        // The point of the refactor: identical manager code, different
        // execution substrate.
        let (deployment, _) = with_contexts(Backend::Sim, 1, 6);
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());
        manager.add_policy(Box::new(ServerContentionPolicy::new(2)));
        manager.tick(&manager.collect_metrics()).unwrap();
        manager.tick(&manager.collect_metrics()).unwrap();
        assert!(deployment.servers().len() > 1);
        for server in deployment.servers() {
            assert!(deployment.contexts_on(server).len() <= 3);
        }
        deployment.shutdown();
    }

    #[test]
    fn max_servers_cap_is_respected() {
        let (deployment, _) = with_contexts(Backend::Runtime, 1, 12);
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());
        manager.add_policy(Box::new(ServerContentionPolicy::new(1)));
        manager.set_max_servers(3);
        manager.tick(&manager.collect_metrics()).unwrap();
        manager.tick(&manager.collect_metrics()).unwrap();
        assert!(deployment.servers().len() <= 3);
        deployment.shutdown();
    }

    #[test]
    fn migrate_updates_mapping_and_clears_record() {
        let (deployment, ids) = with_contexts(Backend::Runtime, 2, 2);
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());
        let ctx = ids[0];
        let from = deployment.placement_of(ctx).unwrap();
        let to = deployment
            .servers()
            .into_iter()
            .find(|s| *s != from)
            .unwrap();
        manager.migrate(ctx, to).unwrap();
        assert_eq!(deployment.placement_of(ctx).unwrap(), to);
        assert_eq!(manager.mapping().lookup(ctx).unwrap(), to);
        // Migrating to the current location is a no-op.
        manager.migrate(ctx, to).unwrap();
        deployment.shutdown();
    }

    #[test]
    fn pinned_contexts_are_not_rebalanced() {
        let (deployment, ids) = with_contexts(Backend::Runtime, 1, 4);
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());
        for id in &ids {
            manager.pin_context(*id);
        }
        deployment.add_server();
        manager.rebalance_from(deployment.servers()[0]).unwrap();
        // Everything stayed put because every context is pinned.
        assert_eq!(deployment.contexts_on(deployment.servers()[0]).len(), 4);
        deployment.shutdown();
    }

    #[test]
    fn drain_and_scale_in() {
        let (deployment, _) = with_contexts(Backend::Runtime, 2, 4);
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());
        let victim = deployment.servers()[1];
        manager.drain_server(victim).unwrap();
        assert!(deployment.contexts_on(victim).is_empty());
        deployment.remove_server(victim).unwrap();
        assert_eq!(deployment.servers().len(), 1);
        deployment.shutdown();
    }

    #[test]
    fn recovery_finishes_interrupted_migrations() {
        let (deployment, ids) = with_contexts(Backend::Runtime, 2, 1);
        let store = InMemoryStore::new();
        let ctx = ids[0];
        let from = deployment.placement_of(ctx).unwrap();
        let to = deployment
            .servers()
            .into_iter()
            .find(|s| *s != from)
            .unwrap();
        // Simulate an eManager that crashed after persisting step II.
        {
            let arc_store: Arc<dyn CloudStore> = Arc::new(store.clone());
            MigrationRecord {
                context: ctx,
                from,
                to,
                step: MigrationStep::SourceStopped,
            }
            .persist(&arc_store)
            .unwrap();
        }
        let manager = EManager::new(deployment.clone(), store);
        let finished = manager.recover().unwrap();
        assert_eq!(finished, 1);
        assert_eq!(deployment.placement_of(ctx).unwrap(), to);
        assert_eq!(manager.mapping().lookup(ctx).unwrap(), to);
        deployment.shutdown();
    }

    #[test]
    fn checkpoint_and_restore_via_storage() {
        let deployment = deploy(Backend::Runtime, 1);
        let room = deployment
            .create_context(Box::new(KvContext::new("Room")), Placement::Auto)
            .unwrap();
        let session = deployment.session();
        session.call(room, "set", args!["name", "castle"]).unwrap();
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());
        assert_eq!(manager.checkpoint("daily", room).unwrap(), 1);
        session.call(room, "set", args!["name", "ruins"]).unwrap();
        manager.restore_checkpoint("daily").unwrap();
        assert_eq!(
            session.call_readonly(room, "get", args!["name"]).unwrap(),
            aeon_types::Value::from("castle")
        );
        assert!(manager.restore_checkpoint("missing").is_err());
        deployment.shutdown();
    }

    #[test]
    fn checkpoint_under_cluster_load_is_a_frozen_cut() {
        use aeon_apps::bank::{bank_class_graph, deploy_bank, BankWorldConfig};
        use std::sync::atomic::{AtomicBool, Ordering};

        let deployment = aeon::deploy_shared(
            aeon::DeployConfig::new(Backend::Cluster)
                .servers(2)
                .class_graph(bank_class_graph()),
        )
        .unwrap();
        aeon_apps::bank::register_bank_factories(&*deployment);
        let config = BankWorldConfig::default();
        let world = deploy_bank(&*deployment, &config).unwrap();
        let expected = world.expected_total(&config);
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());

        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let session = deployment.session();
            let world = world.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let accounts = &world.accounts_of[i % world.branches.len()];
                    let _ = session.call(
                        world.branches[i % world.branches.len()],
                        "transfer",
                        aeon_types::args![accounts[i % accounts.len()], accounts[0], 2i64],
                    );
                    i += 1;
                }
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(30));
        let captured = manager.checkpoint("under-load", world.bank).unwrap();
        assert!(captured >= world.accounts.len());
        stop.store(true, Ordering::SeqCst);
        writer.join().unwrap();

        // The checkpointed cut conserves the total: restoring it mid-history
        // yields a state a serial execution could have produced.
        manager.restore_checkpoint("under-load").unwrap();
        let session = deployment.session();
        assert_eq!(
            session
                .call_readonly(world.bank, "audit", aeon_types::args![])
                .unwrap(),
            aeon_types::Value::from(expected)
        );
        deployment.shutdown();
    }

    #[test]
    fn ownership_network_is_persisted() {
        let (deployment, _) = with_contexts(Backend::Runtime, 1, 3);
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());
        manager.persist_ownership().unwrap();
        let value = manager.load_ownership().expect("persisted graph");
        let graph = aeon_ownership::OwnershipGraph::from_value(&value).unwrap();
        assert_eq!(graph.len(), 3);
        deployment.shutdown();
    }

    #[test]
    fn sla_policy_drives_scale_out_via_tick() {
        let (deployment, _) = with_contexts(Backend::Runtime, 1, 2);
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());
        manager.add_policy(Box::new(SlaPolicy::new(10.0).with_step(3)));
        // Fake metrics reporting an SLA violation.
        let metrics = vec![ServerMetrics {
            server: deployment.servers()[0],
            cpu: 0.9,
            memory: 0.5,
            io: 0.2,
            context_count: 2,
            queue_depth: 0,
            avg_latency_ms: 50.0,
            latency: aeon_types::LatencyHistogram::new(),
        }];
        manager.tick(&metrics).unwrap();
        assert_eq!(deployment.servers().len(), 4);
        deployment.shutdown();
    }
}
