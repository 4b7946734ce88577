//! The eManager service itself.

use crate::policy::{ElasticityAction, ElasticityPolicy, ServerMetrics};
use aeon_api::{Deployment, Snapshot};
use aeon_storage::{keys, CloudStore};
use aeon_types::{AeonError, ContextId, Result, ServerId, Value};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;

/// The elasticity manager: evaluates elasticity policies, performs
/// migrations, and exposes snapshots.
///
/// The manager is written entirely against the `aeon-api`
/// [`Deployment`] trait, so the same elasticity policies drive the
/// in-process runtime, the distributed cluster, and the deterministic
/// simulator — pass whichever backend `aeon::deploy` built.
///
/// The eManager itself is stateless in the sense of the paper: placement
/// is the deployment's own (`placement_of` / `contexts_on`), and what a
/// replacement needs besides — the ownership network, checkpoints and the
/// intent of every migration in flight — lives in the cloud storage
/// substrate, so [`EManager::recover`] can finish the work of a crashed
/// predecessor.
pub struct EManager {
    deployment: Arc<dyn Deployment>,
    store: Arc<dyn CloudStore>,
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

/// The storage key of the migration intent for `context`.
fn intent_key(context: ContextId) -> String {
    format!("{}{}", keys::MIGRATION_PREFIX, context.raw())
}

impl EManager {
    /// Creates an eManager for `deployment`, persisting into `store`.
    pub fn new(deployment: Arc<dyn Deployment>, store: impl CloudStore + 'static) -> Self {
        Self {
            deployment,
            store: Arc::new(store),
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

    /// Collects the current per-server metrics from the deployment (the
    /// periodic utilisation reports of §5.2; each backend derives them from
    /// what it can observe).
    pub fn collect_metrics(&self) -> Vec<ServerMetrics> {
        self.deployment.server_metrics()
    }

    /// Evaluates every registered policy against `metrics` and applies the
    /// resulting actions (scale out, rebalance, scale in).  Returns the
    /// actions that were applied.  A scale-in of a server that hosts a
    /// pinned context is neither applied nor returned.
    ///
    /// # Errors
    ///
    /// Propagates scale-out, migration and storage failures; successfully
    /// applied actions are not rolled back.
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
                        self.deployment.add_server()?;
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
                    let pinned = self.pinned.lock().clone();
                    let hosts_pinned = self
                        .deployment
                        .contexts_on(*server)
                        .iter()
                        .any(|c| pinned.contains(c));
                    if self.deployment.servers().len() > 1 && !hosts_pinned {
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

    /// Migrates every context off `server` (used before scaling in),
    /// pinned ones included: an operator's explicit drain (`aeond`'s
    /// `/drain`) overrides [`EManager::pin_context`].  [`EManager::tick`]
    /// never drains a server that hosts a pinned context.
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

    /// Migrates one context (§5.2) and returns the bytes of state moved
    /// (0 when it already lives on `to`).
    ///
    /// The move itself is one exclusive event on the context
    /// ([`Deployment::migrate_context`]).  Around it the manager persists
    /// one intent, `migration/<context>` → `to`, and clears it when the
    /// call returns, whether it succeeded or failed; an intent still in
    /// storage therefore names a move whose eManager crashed before it
    /// returned, and a replacement finishes it with [`EManager::recover`].
    ///
    /// # Errors
    ///
    /// The migration's own error ([`AeonError::ContextNotFound`],
    /// [`AeonError::ServerNotFound`], [`AeonError::MigrationFailed`], …;
    /// the context stays where it was), or a storage failure.
    pub fn migrate(&self, context: ContextId, to: ServerId) -> Result<u64> {
        let key = intent_key(context);
        self.store.put(&key, Value::from(to.raw()))?;
        let moved = self.deployment.migrate_context(context, to);
        self.store.delete(&key)?;
        moved
    }

    /// Finishes the migrations a crashed eManager left in flight: every
    /// persisted intent is re-submitted to the deployment and cleared after
    /// its attempt.  Re-submitting is idempotent — a context already on its
    /// intent's destination is `Ok(0)` — so a move that did complete before
    /// the crash costs nothing.
    ///
    /// Returns each intent's context with the outcome of its attempt, in
    /// key order.  A failed move is reported there and does not stop the
    /// others.  A key under the prefix that holds no intent is left alone.
    ///
    /// # Errors
    ///
    /// Only storage failures.
    pub fn recover(&self) -> Result<Vec<(ContextId, Result<u64>)>> {
        let mut outcomes = Vec::new();
        for key in self.store.list_prefix(keys::MIGRATION_PREFIX) {
            let context = key[keys::MIGRATION_PREFIX.len()..]
                .parse()
                .map(ContextId::new);
            let to = self
                .store
                .get(&key)
                .and_then(|value| value.as_i64())
                .and_then(|raw| u32::try_from(raw).ok())
                .map(ServerId::new);
            let (Ok(context), Some(to)) = (context, to) else {
                continue; // not an intent `migrate` wrote
            };
            let outcome = self.deployment.migrate_context(context, to);
            self.store.delete(&key)?;
            outcomes.push((context, outcome));
        }
        Ok(outcomes)
    }

    /// Persists the current ownership network (§5.1).
    ///
    /// # Errors
    ///
    /// Propagates storage failures.
    pub fn persist_ownership(&self) -> Result<()> {
        let graph = self.deployment.ownership_graph();
        self.store.put(keys::OWNERSHIP_KEY, graph.to_value())
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
        let key = format!("{}{}", keys::SNAPSHOT_PREFIX, name);
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
        let key = format!("{}{}", keys::SNAPSHOT_PREFIX, name);
        let value = self
            .store
            .get(&key)
            .ok_or_else(|| AeonError::Storage(format!("no checkpoint named {name}")))?;
        let snapshot = Snapshot::from_value(&value)?;
        self.deployment.restore_snapshot(&snapshot)
    }

    /// Access to the persisted ownership network, if any.
    pub fn load_ownership(&self) -> Option<Value> {
        self.store.get(keys::OWNERSHIP_KEY)
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

    /// The first server other than the one `ctx` lives on.
    fn elsewhere(deployment: &dyn Deployment, ctx: ContextId) -> ServerId {
        let from = deployment.placement_of(ctx).unwrap();
        deployment
            .servers()
            .into_iter()
            .find(|s| *s != from)
            .unwrap()
    }

    /// Persists the intent a predecessor that crashed mid-move left behind.
    fn persist_intent(store: &InMemoryStore, ctx: ContextId, to: ServerId) {
        store.put(&intent_key(ctx), Value::from(to.raw())).unwrap();
    }

    #[test]
    fn migrate_moves_the_context_and_clears_its_intent() {
        let (deployment, ids) = with_contexts(Backend::Runtime, 2, 2);
        let store = InMemoryStore::new();
        let manager = EManager::new(deployment.clone(), store.clone());
        let ctx = ids[0];
        let to = elsewhere(&*deployment, ctx);
        assert!(manager.migrate(ctx, to).unwrap() > 0);
        assert_eq!(deployment.placement_of(ctx).unwrap(), to);
        // Migrating to the current location is a no-op.
        assert_eq!(manager.migrate(ctx, to), Ok(0));
        // A failed move is returned, and its intent is cleared all the same.
        assert_eq!(
            manager.migrate(ctx, ServerId::new(99)),
            Err(AeonError::ServerNotFound(ServerId::new(99)))
        );
        assert_eq!(deployment.placement_of(ctx).unwrap(), to);
        assert!(store.is_empty());
        deployment.shutdown();
    }

    #[test]
    fn pinned_contexts_are_not_rebalanced() {
        let (deployment, ids) = with_contexts(Backend::Runtime, 1, 4);
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());
        for id in &ids {
            manager.pin_context(*id);
        }
        deployment.add_server().unwrap();
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
    fn a_scale_in_never_drains_a_pinned_context() {
        use crate::policy::ResourceUtilizationPolicy;

        let deployment = deploy(Backend::Runtime, 2);
        let servers = deployment.servers();
        let pinned = deployment
            .create_context(
                Box::new(KvContext::new("Item")),
                Placement::Server(servers[1]),
            )
            .unwrap();
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());
        manager.pin_context(pinned);
        manager.add_policy(Box::new(ResourceUtilizationPolicy::new(0.3, 0.8, 0.05)));
        // Every server is under `lower`, and the one hosting the pinned
        // context is the least loaded: the policy asks to release it.
        let metrics = [(servers[0], 0.2), (servers[1], 0.1)].map(|(server, cpu)| ServerMetrics {
            server,
            cpu,
            ..ServerMetrics::default()
        });
        assert_eq!(manager.tick(&metrics).unwrap(), []);
        assert_eq!(deployment.placement_of(pinned).unwrap(), servers[1]);
        assert_eq!(deployment.servers().len(), 2);
        deployment.shutdown();
    }

    #[test]
    fn recovery_finishes_interrupted_migrations() {
        let (deployment, ids) = with_contexts(Backend::Runtime, 2, 1);
        let store = InMemoryStore::new();
        let ctx = ids[0];
        let to = elsewhere(&*deployment, ctx);
        persist_intent(&store, ctx, to);
        let manager = EManager::new(deployment.clone(), store.clone());
        let outcomes = manager.recover().unwrap();
        assert!(matches!(outcomes[..], [(c, Ok(moved))] if c == ctx && moved > 0));
        assert_eq!(deployment.placement_of(ctx).unwrap(), to);
        assert!(store.is_empty());
        // Nothing is left to recover.
        assert_eq!(manager.recover().unwrap(), []);
        deployment.shutdown();
    }

    #[test]
    fn recovery_reports_an_intent_that_cannot_finish_and_finishes_the_rest() {
        let deployment = deploy(Backend::Runtime, 2);
        deployment.register_class_factory(
            "Fragile",
            Arc::new(|_: &Value| -> Box<dyn aeon_api::ContextObject> {
                panic!("this class cannot be rebuilt")
            }),
        );
        let fragile = deployment
            .create_context(Box::new(KvContext::new("Fragile")), Placement::Auto)
            .unwrap();
        let item = deployment
            .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
            .unwrap();
        let (fragile_home, item_to) = (
            deployment.placement_of(fragile).unwrap(),
            elsewhere(&*deployment, item),
        );
        let store = InMemoryStore::new();
        persist_intent(&store, fragile, elsewhere(&*deployment, fragile));
        persist_intent(&store, item, item_to);
        let manager = EManager::new(deployment.clone(), store.clone());
        let outcomes = manager.recover().unwrap();
        assert_eq!(outcomes.len(), 2);
        for (context, outcome) in &outcomes {
            if *context == fragile {
                assert!(outcome.is_err(), "{outcome:?}");
            } else {
                assert_eq!(*context, item);
                assert!(matches!(outcome, Ok(moved) if *moved > 0), "{outcome:?}");
            }
        }
        assert_eq!(deployment.placement_of(fragile).unwrap(), fragile_home);
        assert_eq!(deployment.placement_of(item).unwrap(), item_to);
        assert!(store.is_empty());
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

    /// Regression test: every sim server reported the sim-wide latency, so
    /// the SLA policy blamed the highest-id server whatever the load.
    #[test]
    fn sla_policy_rebalances_away_from_the_loaded_sim_server() {
        let (deployment, contexts) = with_contexts(Backend::Sim, 2, 4);
        let loaded = deployment.servers()[0];
        let session = deployment.session();
        for context in contexts {
            if deployment.placement_of(context) == Ok(loaded) {
                session.call(context, "set", args!["k", 1]).unwrap();
            }
        }
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());
        // Below the sim's 0.5 ms per event (two 200 µs hops, 100 µs service).
        manager.add_policy(Box::new(SlaPolicy::new(0.25).with_step(1)));
        let actions = manager.tick(&manager.collect_metrics()).unwrap();
        assert!(
            actions.contains(&ElasticityAction::Rebalance { from: loaded }),
            "{actions:?}"
        );
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
