//! Cross-backend parity: one generic workload driver, three deployments.
//!
//! Every test in this file takes a `&dyn Deployment` and is executed
//! against the in-process runtime (`AeonRuntime`), the distributed cluster
//! (`Cluster`), and the deterministic simulator (`SimDeployment`).  This is
//! the paper's central promise made executable: a contextclass program is
//! written once and behaves identically on every execution substrate.

use aeon::prelude::*;
use aeon_apps::game::{deploy_game, game_class_graph, Player, Room};

/// Registers snapshot factories for the game classes, so crash-recovery
/// and restore-based operations work on backends that rebuild objects from
/// serialised state (the cluster).
fn register_game_factories(deployment: &dyn Deployment) {
    deployment.register_class_factory(
        "Room",
        std::sync::Arc::new(|state: &Value| {
            let mut room = Room::default();
            ContextObject::restore(&mut room, state);
            Box::new(room) as Box<dyn ContextObject>
        }),
    );
    deployment.register_class_factory(
        "Player",
        std::sync::Arc::new(|state: &Value| {
            let mut player = Player::default();
            ContextObject::restore(&mut player, state);
            Box::new(player) as Box<dyn ContextObject>
        }),
    );
    deployment.register_class_factory(
        "Item",
        std::sync::Arc::new(|state: &Value| {
            let mut item = KvContext::new("Item");
            ContextObject::restore(&mut item, state);
            Box::new(item) as Box<dyn ContextObject>
        }),
    );
}

/// Runs `scenario` against all three backends, labelling failures with the
/// backend name.
fn on_every_backend(scenario: impl Fn(&dyn Deployment)) {
    let runtime = AeonRuntime::builder()
        .servers(2)
        .class_graph(game_class_graph())
        .build()
        .unwrap();
    scenario(&runtime);
    runtime.shutdown();

    let cluster = Cluster::builder()
        .servers(2)
        .class_graph(game_class_graph())
        .build()
        .unwrap();
    scenario(&cluster);
    cluster.shutdown();

    // The same cluster again, but with every message crossing a real TCP
    // socket on loopback instead of an in-process channel.
    let tcp = Cluster::builder()
        .servers(2)
        .transport(ClusterTransport::TcpLoopback)
        .class_graph(game_class_graph())
        .build()
        .unwrap();
    scenario(&tcp);
    tcp.shutdown();

    let sim = SimDeployment::builder()
        .servers(2)
        .class_graph(game_class_graph())
        .build()
        .unwrap();
    scenario(&sim);
}

#[test]
fn game_driver_runs_unchanged_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let world = deploy_game(deployment, 2, 2).unwrap();
        let session = deployment.session();
        for players in &world.players {
            for player in players {
                assert_eq!(
                    session.call(*player, "get_gold", args![7]).unwrap(),
                    Value::Bool(true),
                    "backend {backend}"
                );
            }
        }
        for treasure in &world.treasures {
            assert_eq!(
                session
                    .call_readonly(*treasure, "get", args!["gold"])
                    .unwrap(),
                Value::from(14i64),
                "backend {backend}"
            );
        }
        assert_eq!(
            session
                .call_readonly(world.building, "count_players", args![])
                .unwrap(),
            Value::from(4i64),
            "backend {backend}"
        );
    });
}

#[test]
fn unknown_methods_yield_unknown_method_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let world = deploy_game(deployment, 1, 1).unwrap();
        let session = deployment.session();
        let err = session
            .call(world.building, "no_such_method", args![])
            .unwrap_err();
        assert!(
            matches!(&err, AeonError::UnknownMethod { class, method }
                if class == "Building" && method == "no_such_method"),
            "backend {backend}: {err}"
        );
    });
}

#[test]
fn writes_from_readonly_events_are_rejected_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let world = deploy_game(deployment, 1, 1).unwrap();
        let session = deployment.session();
        // `update_time_of_day` is an update method; submitting it read-only
        // must fail uniformly.
        let err = session
            .call_readonly(world.rooms[0], "update_time_of_day", args![])
            .unwrap_err();
        assert!(
            matches!(err, AeonError::ReadOnlyViolation { .. }),
            "backend {backend}"
        );
    });
}

/// To a client `call` / `call_readonly` are `submit_*().wait()`.  A backend
/// may serve a blocked caller more cheaply (the runtime executes the event
/// on the caller's own thread); values and errors must not tell the two
/// apart.
#[test]
fn call_equals_submit_then_wait_on_every_backend() {
    /// An `Item` whose every method panics.
    struct Fuse;
    impl ContextObject for Fuse {
        fn class_name(&self) -> &str {
            "Item"
        }
        fn handle(&mut self, _: &str, _: &Args, _: &mut Invocation<'_>) -> Result<Value> {
            panic!("the fuse blew")
        }
    }

    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let world = deploy_game(deployment, 1, 2).unwrap();
        let player = world.players[0][0];
        let fuse = deployment
            .create_owned_context(Box::new(Fuse), &[world.rooms[0]])
            .unwrap();
        let session = deployment.session();
        // Runs the event both ways and returns the one outcome.
        let both = |target: ContextId, method: &str, args: Args, readonly: bool| {
            let (called, submitted) = if readonly {
                (
                    session.call_readonly(target, method, args.clone()),
                    session
                        .submit_readonly_event(target, method, args)
                        .and_then(EventHandle::wait),
                )
            } else {
                (
                    session.call(target, method, args.clone()),
                    session
                        .submit_event(target, method, args)
                        .and_then(EventHandle::wait),
                )
            };
            let show = |r: &Result<Value>| match r {
                Ok(value) => format!("ok: {value:?}"),
                Err(error) => format!("error: {error}"),
            };
            assert_eq!(
                show(&called),
                show(&submitted),
                "backend {backend}: {method}"
            );
            called
        };

        assert_eq!(
            both(player, "get_gold", args![7], false),
            Ok(Value::Bool(true)),
            "backend {backend}"
        );
        assert_eq!(
            both(world.building, "count_players", args![], true),
            Ok(Value::from(2i64)),
            "backend {backend}"
        );
        assert!(
            matches!(
                both(world.building, "no_such_method", args![], false),
                Err(AeonError::UnknownMethod { .. })
            ),
            "backend {backend}"
        );
        assert!(
            matches!(
                both(ContextId::new(999_999), "get_gold", args![7], false),
                Err(AeonError::ContextNotFound(_))
            ),
            "backend {backend}"
        );
        assert!(
            matches!(
                both(world.rooms[0], "update_time_of_day", args![], true),
                Err(AeonError::ReadOnlyViolation { .. })
            ),
            "backend {backend}"
        );
        assert!(
            matches!(
                both(fuse, "light", args![], false),
                Err(AeonError::Panicked { .. })
            ),
            "backend {backend}"
        );
        deployment.shutdown();
        assert_eq!(
            both(player, "get_gold", args![7], false),
            Err(AeonError::RuntimeShutdown),
            "backend {backend}"
        );
    });
}

/// An event run through `call` is recorded like a submitted one: the same
/// accesses, the invocation before all of them and the response after.
#[test]
fn a_called_event_is_recorded_like_a_submitted_one_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let recorder = HistoryRecorder::new();
        deployment.install_history_sink(std::sync::Arc::new(recorder.clone()));
        let world = deploy_game(deployment, 1, 1).unwrap();
        let player = world.players[0][0];
        let session = deployment.session();
        // The accesses of the one event `run` executes, in recorded order.
        let record_of = |run: &dyn Fn() -> Value| {
            recorder.reset();
            assert_eq!(run(), Value::Bool(true), "backend {backend}");
            let history = recorder.history();
            assert_eq!(history.spans.len(), 1, "backend {backend}: one event");
            let (event, span) = history.spans.iter().next().unwrap();
            let responded_at = span.responded_at.expect("the response is recorded");
            let mut accesses: Vec<_> = history.operations.values().flatten().collect();
            accesses.sort_by_key(|op| op.at);
            for op in &accesses {
                assert_eq!(op.event, *event, "backend {backend}");
                assert!(
                    span.invoked_at < op.at && op.at < responded_at,
                    "backend {backend}: access outside the recorded span"
                );
            }
            accesses
                .iter()
                .map(|op| (op.context, op.kind))
                .collect::<Vec<_>>()
        };
        let called = record_of(&|| session.call(player, "get_gold", args![7]).unwrap());
        let submitted = record_of(&|| {
            session
                .submit_event(player, "get_gold", args![7])
                .and_then(EventHandle::wait)
                .unwrap()
        });
        assert!(
            called.len() >= 3,
            "backend {backend}: player, mine, treasure"
        );
        assert_eq!(called, submitted, "backend {backend}");
    });
}

#[test]
fn snapshot_restore_round_trips_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        // Deliberately no factories: snapshot/restore of still-hosted
        // contexts must work in place on every backend.
        let world = deploy_game(deployment, 1, 1).unwrap();
        let session = deployment.session();
        let room = world.rooms[0];
        session.call(room, "update_time_of_day", args![]).unwrap();
        let snapshot = deployment.snapshot_context(room).unwrap();
        assert!(!snapshot.is_empty(), "backend {backend}");
        // Mutate past the snapshot, then roll back.
        session.call(room, "update_time_of_day", args![]).unwrap();
        session.call(room, "update_time_of_day", args![]).unwrap();
        deployment.restore_snapshot(&snapshot).unwrap();
        assert_eq!(
            session.call(room, "update_time_of_day", args![]).unwrap(),
            Value::from(2i64),
            "backend {backend}: restore rolled the room back to time 1"
        );
    });
}

#[test]
fn migration_preserves_state_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        register_game_factories(deployment);
        let world = deploy_game(deployment, 1, 1).unwrap();
        let session = deployment.session();
        let room = world.rooms[0];
        session.call(room, "update_time_of_day", args![]).unwrap();
        let from = deployment.placement_of(room).unwrap();
        let to = deployment
            .servers()
            .into_iter()
            .find(|s| *s != from)
            .expect("two servers configured");
        let moved = deployment.migrate_context(room, to).unwrap();
        assert!(moved > 0, "backend {backend}");
        assert_eq!(
            deployment.placement_of(room).unwrap(),
            to,
            "backend {backend}"
        );
        assert_eq!(
            session.call(room, "update_time_of_day", args![]).unwrap(),
            Value::from(2i64),
            "backend {backend}: state survived the migration"
        );
    });
}

#[test]
fn colocation_with_contexts_on_crashed_servers_is_rejected_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let spare = deployment.add_server();
        let doomed = deployment
            .create_context(Box::new(Room::default()), Placement::Server(spare))
            .unwrap();
        deployment.crash_server(spare).unwrap();
        // Neither explicit placement nor co-location may land new contexts
        // on the crashed server.
        let err = deployment
            .create_context(Box::new(Room::default()), Placement::Server(spare))
            .unwrap_err();
        assert!(
            matches!(err, AeonError::ServerNotFound(_)),
            "backend {backend}: {err}"
        );
        let err = deployment
            .create_context(Box::new(Room::default()), Placement::WithContext(doomed))
            .unwrap_err();
        assert!(
            matches!(err, AeonError::ServerNotFound(_)),
            "backend {backend}: {err}"
        );
        let err = deployment
            .create_owned_context(Box::new(Room::default()), &[doomed])
            .unwrap_err();
        assert!(
            matches!(
                err,
                AeonError::ServerNotFound(_) | AeonError::ContextNotFound(_)
            ),
            "backend {backend}: {err}"
        );
    });
}

// ---------------------------------------------------------------------------
// Control-plane parity: all three backends hold the same `ControlPlane`,
// so what is counted, what is refused and with which error cannot differ.
// ---------------------------------------------------------------------------

#[test]
fn context_count_skips_contexts_lost_to_a_crash_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let spare = deployment.add_server();
        let survivor = deployment.servers()[0];
        for server in [spare, survivor] {
            deployment
                .create_context(Box::new(Room::default()), Placement::Server(server))
                .unwrap();
        }
        assert_eq!(deployment.context_count(), 2, "backend {backend}");
        deployment.crash_server(spare).unwrap();
        // "Across all online servers": the count is what the rosters sum to.
        let placed: usize = deployment
            .servers()
            .into_iter()
            .map(|server| deployment.contexts_on(server).len())
            .sum();
        assert_eq!(placed, 1, "backend {backend}");
        assert_eq!(deployment.context_count(), 1, "backend {backend}");
    });
}

/// A `Player` that creates a child of whatever class it is told to — the
/// event-time path into context creation.
struct Spawner;

impl ContextObject for Spawner {
    fn class_name(&self) -> &str {
        "Player"
    }

    fn handle(&mut self, method: &str, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match method {
            "spawn" => inv
                .create_child(Box::new(KvContext::new(args.get_str(0)?)))
                .map(Value::from),
            other => Err(AeonError::UnknownMethod {
                class: "Player".into(),
                method: other.into(),
            }),
        }
    }
}

/// A `Room` owning a [`Spawner`] `Player`.
fn room_with_spawner(deployment: &dyn Deployment) -> (ContextId, ContextId) {
    let room = deployment
        .create_context(Box::new(Room::default()), Placement::Auto)
        .unwrap();
    let player = deployment
        .create_owned_context(Box::new(Spawner), &[room])
        .unwrap();
    (room, player)
}

/// Why a creation is refused.
#[derive(Debug, Clone, Copy)]
enum Refusal {
    /// The owner's class may not own the new context's class.
    ForbiddenPair,
    /// The new context's class is not in the class graph.
    Undeclared,
    /// An owned context without an owner.
    NoOwner,
}

/// Every way a creation can be refused under the game class graph, through
/// the deployment API and from inside an event (`spawn`).
fn refused_creations(
    deployment: &dyn Deployment,
    room: ContextId,
    player: ContextId,
) -> Vec<(Refusal, &'static str, AeonError)> {
    let session = deployment.session();
    let dragon = || Box::new(KvContext::new("Dragon"));
    vec![
        (
            Refusal::ForbiddenPair,
            "create_owned_context",
            deployment
                .create_owned_context(Box::new(Room::default()), &[player])
                .unwrap_err(),
        ),
        (
            Refusal::ForbiddenPair,
            "create_child in an event",
            session.call(player, "spawn", args!["Room"]).unwrap_err(),
        ),
        (
            Refusal::Undeclared,
            "create_context",
            deployment
                .create_context(dragon(), Placement::Auto)
                .unwrap_err(),
        ),
        (
            Refusal::Undeclared,
            "create_owned_context",
            deployment
                .create_owned_context(dragon(), &[room])
                .unwrap_err(),
        ),
        (
            Refusal::Undeclared,
            "create_child in an event",
            session.call(player, "spawn", args!["Dragon"]).unwrap_err(),
        ),
        (
            Refusal::NoOwner,
            "create_owned_context",
            deployment
                .create_owned_context(Box::new(Room::default()), &[])
                .unwrap_err(),
        ),
    ]
}

#[test]
fn refused_creations_have_one_error_per_cause_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let (room, player) = room_with_spawner(deployment);
        for (cause, path, err) in refused_creations(deployment, room, player) {
            let as_specified = match cause {
                // The child never existed: the callee is a placeholder.
                Refusal::ForbiddenPair => {
                    err == AeonError::ownership(player, ContextId::new(u64::MAX))
                }
                Refusal::Undeclared => {
                    matches!(&err, AeonError::Config(why) if why.contains("not declared"))
                }
                Refusal::NoOwner => matches!(err, AeonError::Config(_)),
            };
            assert!(
                as_specified,
                "backend {backend}, {cause:?} via {path}: {err:?}"
            );
        }
    });
}

#[test]
fn refused_creations_leave_the_ownership_graph_untouched_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let (room, player) = room_with_spawner(deployment);
        let before = deployment.ownership_graph();
        refused_creations(deployment, room, player);
        let after = deployment.ownership_graph();
        // Not "rolled back": never touched, so not even the version moved.
        assert_eq!(
            (after.len(), after.version()),
            (before.len(), before.version()),
            "backend {backend}"
        );
        // The same paths still create what the class graph allows.
        let item = deployment
            .session()
            .call(player, "spawn", args!["Item"])
            .unwrap();
        let graph = deployment.ownership_graph();
        assert_eq!(graph.len(), before.len() + 1, "backend {backend}");
        assert!(
            graph.may_call(room, item.as_context().unwrap()),
            "backend {backend}"
        );
    });
}

// ---------------------------------------------------------------------------
// Elasticity parity: the eManager holds an `Arc<dyn Deployment>`, so every
// elasticity scenario (policy-driven scale-out, drain, pins, crash
// recovery) must behave identically on all three backends.  The backends
// are built through the config-driven `aeon::deploy` entry point.
// ---------------------------------------------------------------------------

/// Runs `scenario` with a shared deployment handle (the shape the
/// elasticity manager holds) against all three backends.
fn on_every_backend_shared(scenario: impl Fn(std::sync::Arc<dyn Deployment>)) {
    for backend in Backend::ALL {
        let deployment = aeon::deploy_shared(DeployConfig::new(backend).servers(2)).unwrap();
        scenario(deployment.clone());
        deployment.shutdown();
    }
}

/// Registers the snapshot factory for the plain "Item" KvContext class used
/// by the elasticity scenarios.
fn register_item_factory(deployment: &dyn Deployment) {
    deployment.register_class_factory(
        "Item",
        std::sync::Arc::new(|state: &Value| {
            let mut item = KvContext::new("Item");
            ContextObject::restore(&mut item, state);
            Box::new(item) as Box<dyn ContextObject>
        }),
    );
}

/// Creates `n` Item contexts, each tagged with its index.
fn seed_items(deployment: &dyn Deployment, n: usize) -> Vec<ContextId> {
    let session = deployment.session();
    (0..n)
        .map(|i| {
            let item = deployment
                .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
                .unwrap();
            session.call(item, "set", args!["tag", i as i64]).unwrap();
            item
        })
        .collect()
}

/// Every item still answers with its tag (no state lost to migrations).
fn assert_items_intact(deployment: &dyn Deployment, items: &[ContextId], backend: &str) {
    let session = deployment.session();
    for (i, item) in items.iter().enumerate() {
        assert_eq!(
            session.call_readonly(*item, "get", args!["tag"]).unwrap(),
            Value::from(i as i64),
            "backend {backend}: item {i} lost state"
        );
    }
}

#[test]
fn emanager_scales_out_on_overload_on_every_backend() {
    on_every_backend_shared(|deployment| {
        let backend = deployment.backend_name();
        register_item_factory(deployment.as_ref());
        let items = seed_items(deployment.as_ref(), 8);
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());
        manager.add_policy(Box::new(ServerContentionPolicy::new(2)));
        let before = deployment.servers().len();
        let actions = manager.tick(&manager.collect_metrics()).unwrap();
        assert!(
            actions
                .iter()
                .any(|a| matches!(a, ElasticityAction::ScaleOut { .. })),
            "backend {backend}: {actions:?}"
        );
        assert!(deployment.servers().len() > before, "backend {backend}");
        // A second tick settles every server under the contention limit.
        manager.tick(&manager.collect_metrics()).unwrap();
        for server in deployment.servers() {
            assert!(
                deployment.contexts_on(server).len() <= 3,
                "backend {backend}: server {server} still overloaded"
            );
        }
        assert_items_intact(deployment.as_ref(), &items, backend);
    });
}

#[test]
fn emanager_drains_and_releases_a_server_on_every_backend() {
    on_every_backend_shared(|deployment| {
        let backend = deployment.backend_name();
        register_item_factory(deployment.as_ref());
        let items = seed_items(deployment.as_ref(), 6);
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());
        let victim = deployment.servers()[1];
        manager.drain_server(victim).unwrap();
        assert!(
            deployment.contexts_on(victim).is_empty(),
            "backend {backend}"
        );
        deployment.remove_server(victim).unwrap();
        assert!(!deployment.servers().contains(&victim), "backend {backend}");
        assert_items_intact(deployment.as_ref(), &items, backend);
    });
}

#[test]
fn emanager_respects_pinned_contexts_on_every_backend() {
    on_every_backend_shared(|deployment| {
        let backend = deployment.backend_name();
        register_item_factory(deployment.as_ref());
        // Pack everything onto one server, then pin it all.
        let first = deployment.servers()[0];
        let items: Vec<ContextId> = (0..4)
            .map(|_| {
                deployment
                    .create_context(Box::new(KvContext::new("Item")), Placement::Server(first))
                    .unwrap()
            })
            .collect();
        let manager = EManager::new(deployment.clone(), InMemoryStore::new());
        for item in &items {
            manager.pin_context(*item);
        }
        manager.rebalance_from(first).unwrap();
        assert_eq!(
            deployment.contexts_on(first).len(),
            4,
            "backend {backend}: pinned contexts moved"
        );
    });
}

#[test]
fn emanager_recovers_interrupted_migrations_on_every_backend() {
    use aeon::emanager::{MigrationRecord, MigrationStep};
    use aeon::storage::CloudStore;

    on_every_backend_shared(|deployment| {
        let backend = deployment.backend_name();
        register_item_factory(deployment.as_ref());
        let items = seed_items(deployment.as_ref(), 1);
        let ctx = items[0];
        let from = deployment.placement_of(ctx).unwrap();
        let to = deployment
            .servers()
            .into_iter()
            .find(|s| *s != from)
            .unwrap();
        let store = InMemoryStore::new();
        // Simulate a predecessor eManager that crashed after step II.
        {
            let arc_store: std::sync::Arc<dyn CloudStore> = std::sync::Arc::new(store.clone());
            MigrationRecord {
                context: ctx,
                from,
                to,
                step: MigrationStep::SourceStopped,
            }
            .persist(&arc_store)
            .unwrap();
        }
        let replacement = EManager::new(deployment.clone(), store);
        let finished = replacement.recover().unwrap();
        assert_eq!(finished, 1, "backend {backend}");
        assert_eq!(
            deployment.placement_of(ctx).unwrap(),
            to,
            "backend {backend}"
        );
        assert_eq!(
            replacement.mapping().lookup(ctx).unwrap(),
            to,
            "backend {backend}"
        );
        assert_items_intact(deployment.as_ref(), &items, backend);
    });
}

#[test]
fn server_metrics_reflect_load_on_every_backend() {
    on_every_backend_shared(|deployment| {
        let backend = deployment.backend_name();
        let _items = seed_items(deployment.as_ref(), 5);
        let metrics = deployment.server_metrics();
        assert_eq!(
            metrics.len(),
            deployment.servers().len(),
            "backend {backend}"
        );
        let total: usize = metrics.iter().map(|m| m.context_count).sum();
        assert_eq!(total, 5, "backend {backend}");
        for m in &metrics {
            assert!(
                (0.0..=1.0).contains(&m.cpu),
                "backend {backend}: cpu out of range"
            );
            assert_eq!(
                m.context_count,
                deployment.contexts_on(m.server).len(),
                "backend {backend}"
            );
        }
    });
}

#[test]
fn elasticity_scale_out_works_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let before = deployment.servers().len();
        let added = deployment.add_server();
        let after = deployment.servers();
        assert_eq!(after.len(), before + 1, "backend {backend}");
        assert!(after.contains(&added), "backend {backend}");
        // The new server is immediately usable for placement.
        let item = deployment
            .create_context(Box::new(Room::default()), Placement::Server(added))
            .unwrap();
        assert_eq!(
            deployment.placement_of(item).unwrap(),
            added,
            "backend {backend}"
        );
    });
}

// ---------------------------------------------------------------------------
// Event-interpreter rules: one `EventBody` runs every backend's events, so
// what an event may do cannot depend on where it runs.
// ---------------------------------------------------------------------------

/// A scripted contextclass for the interpreter-rule scenarios; `peer` is the
/// context its sub-events target.
#[derive(Default)]
struct Probe {
    peer: Option<ContextId>,
    /// Raw id of the client the last `whoami` event ran on behalf of
    /// (`-1`: none).
    seen_client: Option<i64>,
}

impl ContextObject for Probe {
    fn class_name(&self) -> &str {
        "Probe"
    }

    fn is_readonly(&self, method: &str) -> bool {
        method == "seen_client"
    }

    fn handle(&mut self, method: &str, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let peer = || self.peer.ok_or_else(|| AeonError::app("no peer adopted"));
        match method {
            "adopt" => {
                self.peer = Some(args.get_context(0)?);
                Ok(Value::Null)
            }
            "dispatch" => {
                inv.dispatch_event(peer()?, "incr", args![args.get_str(0)?, 1])?;
                Ok(Value::Null)
            }
            "dispatch_then_fail" => {
                inv.dispatch_event(peer()?, "incr", args![args.get_str(0)?, 1])?;
                Err(AeonError::app("failed after dispatching"))
            }
            "panic" => panic!("probe panicked on purpose"),
            "dispatch_whoami" => {
                inv.dispatch_event(peer()?, "whoami", args![])?;
                Ok(Value::Null)
            }
            "whoami" => {
                self.seen_client = Some(inv.client().map_or(-1, |c| c.raw() as i64));
                Ok(Value::Null)
            }
            "seen_client" => Ok(self.seen_client.map_or(Value::Null, Value::from)),
            other => Err(AeonError::UnknownMethod {
                class: "Probe".into(),
                method: other.into(),
            }),
        }
    }
}

/// Polls `read` until it returns a non-null value (sub-events complete
/// asynchronously on the live backends).
fn eventually(read: impl Fn() -> Value, what: &str) -> Value {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let value = read();
        if !value.is_null() {
            return value;
        }
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    }
}

#[test]
fn a_failed_event_dispatches_nothing_on_every_backend() {
    on_every_backend_shared(|deployment| {
        let backend = deployment.backend_name();
        let probe = deployment
            .create_context(Box::new(Probe::default()), Placement::Auto)
            .unwrap();
        let item = deployment
            .create_owned_context(Box::new(KvContext::new("Item")), &[probe])
            .unwrap();
        let session = deployment.session();
        session.call(probe, "adopt", args![item]).unwrap();
        let err = session
            .call(probe, "dispatch_then_fail", args!["from_failed"])
            .unwrap_err();
        assert_eq!(
            err,
            AeonError::app("failed after dispatching"),
            "backend {backend}"
        );
        // A later, successful event's sub-event is submitted after anything
        // the failed one could have dispatched; once it has run, the failed
        // event's sub-event would have run too.
        session.call(probe, "dispatch", args!["from_ok"]).unwrap();
        let read = |key: &str| session.call_readonly(item, "get", args![key]).unwrap();
        assert_eq!(
            eventually(|| read("from_ok"), "the successful event's sub-event"),
            Value::from(1i64),
            "backend {backend}"
        );
        assert_eq!(read("from_failed"), Value::Null, "backend {backend}");
    });
}

#[test]
fn a_panicking_method_fails_its_event_and_nothing_else_on_every_backend() {
    on_every_backend_shared(|deployment| {
        let backend = deployment.backend_name();
        let probe = deployment
            .create_context(Box::new(Probe::default()), Placement::Auto)
            .unwrap();
        let session = deployment.session();
        let err = session.call(probe, "panic", args![]).unwrap_err();
        assert!(
            matches!(&err, AeonError::Panicked { reason } if reason.contains("on purpose")),
            "backend {backend}: {err}"
        );
        // The deployment, and the very context that panicked, stay usable.
        session.call(probe, "adopt", args![probe]).unwrap();
        assert_eq!(
            session
                .call_readonly(probe, "seen_client", args![])
                .unwrap(),
            Value::Null,
            "backend {backend}"
        );
    });
}

#[test]
fn sub_events_inherit_their_creators_client_on_every_backend() {
    on_every_backend_shared(|deployment| {
        let backend = deployment.backend_name();
        let probe = deployment
            .create_context(Box::new(Probe::default()), Placement::Auto)
            .unwrap();
        let witness = deployment
            .create_owned_context(Box::new(Probe::default()), &[probe])
            .unwrap();
        let session = deployment.session();
        session.call(probe, "adopt", args![witness]).unwrap();
        session.call(probe, "dispatch_whoami", args![]).unwrap();
        let seen = eventually(
            || {
                session
                    .call_readonly(witness, "seen_client", args![])
                    .unwrap()
            },
            "the whoami sub-event",
        );
        assert_eq!(
            seen,
            Value::from(session.client_id().raw() as i64),
            "backend {backend}"
        );
    });
}

// ---------------------------------------------------------------------------
// Coordinated snapshot freeze parity (bank workload).
// ---------------------------------------------------------------------------

mod snapshot_freeze {
    use super::*;
    use aeon_apps::bank::{
        bank_class_graph, captured_account_total, deploy_bank, register_bank_factories,
        BankWorldConfig,
    };
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn on_every_bank_backend(scenario: impl Fn(Arc<dyn Deployment>)) {
        let runtime = AeonRuntime::builder()
            .servers(2)
            .class_graph(bank_class_graph())
            .build()
            .unwrap();
        scenario(Arc::new(runtime.clone()));
        runtime.shutdown();

        let cluster = Cluster::builder()
            .servers(2)
            .class_graph(bank_class_graph())
            .build()
            .unwrap();
        scenario(Arc::new(cluster.clone()));
        cluster.shutdown();

        let tcp = Cluster::builder()
            .servers(2)
            .transport(ClusterTransport::TcpLoopback)
            .class_graph(bank_class_graph())
            .build()
            .unwrap();
        scenario(Arc::new(tcp.clone()));
        tcp.shutdown();

        let sim = SimDeployment::builder()
            .servers(2)
            .class_graph(bank_class_graph())
            .build()
            .unwrap();
        scenario(Arc::new(sim));
    }

    /// Snapshot under concurrent mutations, mutate some more, restore:
    /// every account must come back to the value captured at the frozen
    /// cut — not a torn mix — and the cut itself must conserve the total.
    #[test]
    fn snapshot_restore_round_trips_to_the_frozen_cut_on_every_backend() {
        on_every_bank_backend(|deployment| {
            let backend = deployment.backend_name();
            register_bank_factories(&*deployment);
            let config = BankWorldConfig {
                branches: 3,
                accounts_per_branch: 3,
                shared_pairs: 1,
                shared_accounts: 1,
                initial_balance: 100,
            };
            let world = deploy_bank(&*deployment, &config).unwrap();
            let expected = world.expected_total(&config);

            // Concurrent transfer load while the snapshot is taken.
            let stop = Arc::new(AtomicBool::new(false));
            let writers: Vec<_> = (0..2)
                .map(|w| {
                    let session = deployment.session();
                    let world = world.clone();
                    let stop = Arc::clone(&stop);
                    std::thread::spawn(move || {
                        let mut i = 0usize;
                        while !stop.load(Ordering::SeqCst) {
                            let b = (i + w) % world.branches.len();
                            let accounts = &world.accounts_of[b];
                            let from = accounts[i % accounts.len()];
                            let to = accounts[(i + 1) % accounts.len()];
                            let _ =
                                session.call(world.branches[b], "transfer", args![from, to, 1i64]);
                            i += 1;
                        }
                    })
                })
                .collect();
            std::thread::sleep(std::time::Duration::from_millis(40));

            let snapshot = deployment.snapshot_context(world.bank).unwrap();
            assert_eq!(
                captured_account_total(&snapshot),
                expected,
                "backend {backend}: the frozen cut must conserve the total"
            );

            stop.store(true, Ordering::SeqCst);
            for writer in writers {
                writer.join().unwrap();
            }

            let cut: BTreeMap<ContextId, i64> = world
                .accounts
                .iter()
                .map(|a| {
                    let balance = snapshot
                        .get(*a)
                        .and_then(|e| e.state.get("balance"))
                        .and_then(Value::as_i64)
                        .expect("every account is captured");
                    (*a, balance)
                })
                .collect();

            // Mutations after the snapshot must be wound back by restore.
            let session = deployment.session();
            for (b, branch) in world.branches.iter().enumerate() {
                let accounts = &world.accounts_of[b];
                session
                    .call(*branch, "transfer", args![accounts[0], accounts[1], 17i64])
                    .unwrap();
            }

            deployment.restore_snapshot(&snapshot).unwrap();
            for account in &world.accounts {
                assert_eq!(
                    session.call_readonly(*account, "read", args![]).unwrap(),
                    Value::from(cut[account]),
                    "backend {backend}: account {account} must equal the frozen cut"
                );
            }
            assert_eq!(
                session.call_readonly(world.bank, "audit", args![]).unwrap(),
                Value::from(expected),
                "backend {backend}"
            );
        });
    }

    /// The §4 contract on a live run of every backend, with and without
    /// shared accounts (bank-level vs branch-level dominators): concurrent
    /// transfers — some with an `async` deposit leg — beside read-only
    /// audits that must never see a torn transfer, then concurrent
    /// increments of one hot account that must lose no update; the history
    /// the backend's sink recorded must be strictly serializable.
    #[test]
    fn concurrent_bank_history_is_strictly_serializable_on_every_backend() {
        for shared_pairs in [1, 0] {
            on_every_bank_backend(|deployment| {
                let backend = deployment.backend_name();
                let recorder = HistoryRecorder::new();
                deployment.install_history_sink(Arc::new(recorder.clone()));
                let config = BankWorldConfig {
                    branches: 4,
                    accounts_per_branch: 3,
                    shared_pairs,
                    shared_accounts: 1,
                    initial_balance: 100,
                };
                let world = deploy_bank(&*deployment, &config).unwrap();
                let expected = world.expected_total(&config);

                let clients: Vec<_> = (0..6usize)
                    .map(|c| {
                        let session = deployment.session();
                        let world = world.clone();
                        std::thread::spawn(move || {
                            for i in 0..30usize {
                                if i % 7 == 6 {
                                    assert_eq!(
                                        session
                                            .call_readonly(world.bank, "audit", args![])
                                            .unwrap(),
                                        Value::from(expected),
                                        "an audit observed a torn transfer"
                                    );
                                    continue;
                                }
                                let b = (c + i) % world.branches.len();
                                let accounts = &world.accounts_of[b];
                                let from = accounts[i % accounts.len()];
                                let to = accounts[(i + 1) % accounts.len()];
                                let method = if i % 5 == 4 {
                                    "transfer_async"
                                } else {
                                    "transfer"
                                };
                                let amount = 1 + (i % 9) as i64;
                                session
                                    .call(world.branches[b], method, args![from, to, amount])
                                    .unwrap();
                            }
                        })
                    })
                    .collect();
                for client in clients {
                    client.join().unwrap();
                }

                let session = deployment.session();
                assert_eq!(
                    session.call_readonly(world.bank, "audit", args![]).unwrap(),
                    Value::from(expected),
                    "backend {backend}: money is conserved"
                );
                let hot = world.accounts[0];
                let before = session.call_readonly(hot, "read", args![]).unwrap();
                let adders: Vec<_> = (0..8)
                    .map(|_| {
                        let session = deployment.session();
                        std::thread::spawn(move || {
                            for _ in 0..50 {
                                session.call(hot, "add", args![1i64]).unwrap();
                            }
                        })
                    })
                    .collect();
                for adder in adders {
                    adder.join().unwrap();
                }
                assert_eq!(
                    session.call_readonly(hot, "read", args![]).unwrap(),
                    Value::from(before.as_i64().unwrap() + 400),
                    "backend {backend}: an increment was lost"
                );

                let history = recorder.history();
                match check_strict_serializability(&history) {
                    Ok(order) => assert_eq!(order.order.len(), history.event_count()),
                    Err(violation) => {
                        panic!("backend {backend}, shared_pairs {shared_pairs}: {violation}")
                    }
                }
            });
        }
    }
}

/// The analyzer-certified read-only fast path: certified methods
/// (`Account::read`, `ro` with a `calls []` summary) take the fast path on
/// both live backends, uncertified read-only methods (`Branch::total`
/// declares `calls ["Account::read"]`) fall back to the sequenced slow
/// path, and both paths return identical values.
mod readonly_fast_path {
    use super::*;
    use aeon_apps::bank::{bank_class_graph, deploy_bank, BankWorldConfig};

    #[test]
    fn certified_reads_take_the_fast_path_on_every_live_backend() {
        let config = BankWorldConfig::default();
        let expected_read = Value::from(config.initial_balance);

        // In-process runtime: the counter lives on the sharded executor.
        let runtime = AeonRuntime::builder()
            .servers(2)
            .class_graph(bank_class_graph())
            .build()
            .unwrap();
        let world = deploy_bank(&runtime, &config).unwrap();
        let session = Deployment::session(&runtime);
        let before = runtime.executor_stats().fast_path;
        for account in &world.accounts {
            assert_eq!(
                session.call_readonly(*account, "read", args![]).unwrap(),
                expected_read
            );
        }
        assert_eq!(
            runtime.executor_stats().fast_path,
            before + world.accounts.len() as u64,
            "every certified read is served by the fast path"
        );
        // Uncertified read-only methods stay on the sequenced slow path.
        let total = session
            .call_readonly(world.branches[0], "total", args![])
            .unwrap();
        assert_eq!(
            runtime.executor_stats().fast_path,
            before + world.accounts.len() as u64,
            "an uncertified `ro` method must not take the fast path"
        );
        runtime.shutdown();

        // Distributed cluster, both transports: the gateway routes
        // certified reads as pre-sequenced Exec messages.
        for transport in [ClusterTransport::Channel, ClusterTransport::TcpLoopback] {
            let label = format!("{transport:?}");
            let cluster = Cluster::builder()
                .servers(2)
                .transport(transport)
                .class_graph(bank_class_graph())
                .build()
                .unwrap();
            let world = deploy_bank(&cluster, &config).unwrap();
            let session = Deployment::session(&cluster);
            let before = cluster.fast_path_events();
            for account in &world.accounts {
                assert_eq!(
                    session.call_readonly(*account, "read", args![]).unwrap(),
                    expected_read,
                    "transport {label}"
                );
            }
            assert_eq!(
                cluster.fast_path_events(),
                before + world.accounts.len() as u64,
                "transport {label}: every certified read is routed fast"
            );
            assert_eq!(
                session
                    .call_readonly(world.branches[0], "total", args![])
                    .unwrap(),
                total,
                "transport {label}: slow-path totals agree with the runtime"
            );
            assert_eq!(
                cluster.fast_path_events(),
                before + world.accounts.len() as u64,
                "transport {label}: uncertified `ro` stays sequenced"
            );
            cluster.shutdown();
        }
    }

    /// `Liar::peek` is certified on an empty `calls []` summary but calls
    /// its item: wherever the certified read runs, it must fail rather than
    /// make an unsequenced lock acquisition.
    #[test]
    fn a_lying_summary_is_refused_wherever_the_certified_read_runs() {
        struct Liar {
            item: Option<ContextId>,
        }
        impl ContextObject for Liar {
            fn class_name(&self) -> &str {
                "Liar"
            }
            fn is_readonly(&self, method: &str) -> bool {
                method == "peek"
            }
            fn handle(
                &mut self,
                method: &str,
                args: &Args,
                inv: &mut Invocation<'_>,
            ) -> Result<Value> {
                match method {
                    "adopt" => {
                        self.item = Some(args.get_context(0)?);
                        Ok(Value::Null)
                    }
                    "peek" => {
                        let item = self.item.ok_or_else(|| AeonError::app("no item"))?;
                        inv.call(item, "get", args!["gold"])
                    }
                    other => Err(AeonError::UnknownMethod {
                        class: "Liar".into(),
                        method: other.into(),
                    }),
                }
            }
        }
        let liar_class_graph = || {
            let mut classes = ClassGraph::new();
            classes.add_constraint("Liar", "Item");
            classes.declare_method("Liar", "adopt", false);
            classes.declare_method("Liar", "peek", true);
            classes.declare_calls("Liar", "peek", []);
            classes
        };
        let scenario = |deployment: &dyn Deployment, label: &str| {
            let liar = deployment
                .create_context(Box::new(Liar { item: None }), Placement::Auto)
                .unwrap();
            let gold = [("gold", Value::from(1i64))];
            let item = deployment
                .create_owned_context(Box::new(KvContext::with_entries("Item", gold)), &[liar])
                .unwrap();
            let session = deployment.session();
            session.call(liar, "adopt", args![item]).unwrap();
            let err = session.call_readonly(liar, "peek", args![]).unwrap_err();
            assert!(
                err.to_string().contains("calls []"),
                "{label}: expected a summary-lie error, got: {err}"
            );
            // The deployment stays healthy afterwards.
            assert_eq!(
                session.call_readonly(item, "get", args!["gold"]).unwrap(),
                Value::from(1i64),
                "{label}"
            );
        };

        let runtime = AeonRuntime::builder()
            .class_graph(liar_class_graph())
            .build()
            .unwrap();
        scenario(&runtime, "runtime");
        assert_eq!(runtime.executor_stats().fast_path, 1, "peek ran certified");
        runtime.shutdown();

        for transport in [ClusterTransport::Channel, ClusterTransport::TcpLoopback] {
            let label = format!("cluster {transport:?}");
            let cluster = Cluster::builder()
                .servers(2)
                .transport(transport)
                .class_graph(liar_class_graph())
                .build()
                .unwrap();
            scenario(&cluster, &label);
            assert_eq!(cluster.fast_path_events(), 1, "{label}: peek ran certified");
            cluster.shutdown();
        }
    }

    #[test]
    fn disabling_the_fast_path_preserves_results() {
        let config = BankWorldConfig::default();
        let runtime = AeonRuntime::builder()
            .servers(2)
            .class_graph(bank_class_graph())
            .readonly_fast_path(false)
            .build()
            .unwrap();
        let world = deploy_bank(&runtime, &config).unwrap();
        let session = Deployment::session(&runtime);
        for account in &world.accounts {
            assert_eq!(
                session.call_readonly(*account, "read", args![]).unwrap(),
                Value::from(config.initial_balance)
            );
        }
        assert_eq!(runtime.executor_stats().fast_path, 0);
        runtime.shutdown();

        let cluster = Cluster::builder()
            .servers(2)
            .class_graph(bank_class_graph())
            .readonly_fast_path(false)
            .build()
            .unwrap();
        let world = deploy_bank(&cluster, &config).unwrap();
        let session = Deployment::session(&cluster);
        for account in &world.accounts {
            assert_eq!(
                session.call_readonly(*account, "read", args![]).unwrap(),
                Value::from(config.initial_balance)
            );
        }
        assert_eq!(cluster.fast_path_events(), 0);
        cluster.shutdown();
    }
}

// ---------------------------------------------------------------------------
// Social workload parity
// ---------------------------------------------------------------------------

/// Runs `scenario` against all four backends with the *social* class
/// graph (the game-graph helper above hardcodes its own classes).
fn on_every_social_backend(scenario: impl Fn(&dyn Deployment)) {
    use aeon_apps::social::social_class_graph;

    let runtime = AeonRuntime::builder()
        .servers(2)
        .class_graph(social_class_graph())
        .build()
        .unwrap();
    scenario(&runtime);
    runtime.shutdown();

    let cluster = Cluster::builder()
        .servers(2)
        .class_graph(social_class_graph())
        .build()
        .unwrap();
    scenario(&cluster);
    cluster.shutdown();

    let tcp = Cluster::builder()
        .servers(2)
        .transport(ClusterTransport::TcpLoopback)
        .class_graph(social_class_graph())
        .build()
        .unwrap();
    scenario(&tcp);
    tcp.shutdown();

    let sim = SimDeployment::builder()
        .servers(2)
        .contention(2)
        .class_graph(social_class_graph())
        .build()
        .unwrap();
    scenario(&sim);
}

#[test]
fn social_driver_reaches_identical_state_on_every_backend() {
    use aeon_apps::social::{
        deploy_social, generate_plan, register_social_factories, run_social_stream, SocialConfig,
    };
    use std::cell::RefCell;

    let config = SocialConfig {
        regions: 2,
        users: 16,
        chain_depth: 4,
        follows_per_user: 3,
        zipf_s: 1.2,
        feed_capacity: 6,
        seed: 0xfeed_50c1,
    };
    let ops = generate_plan(&config).request_stream(200, config.seed);
    let reference: RefCell<Option<Vec<i64>>> = RefCell::new(None);

    on_every_social_backend(|deployment| {
        let backend = deployment.backend_name();
        register_social_factories(deployment);
        let world = deploy_social(deployment, &config).unwrap();
        let session = deployment.session();
        let report = run_social_stream(session.as_ref(), &world, &ops).unwrap();
        assert_eq!(
            (report.posts + report.reads) as usize,
            ops.len(),
            "backend {backend}"
        );
        let digest = world.digest(session.as_ref()).unwrap();
        let mut slot = reference.borrow_mut();
        match slot.as_ref() {
            None => *slot = Some(digest),
            Some(expected) => assert_eq!(
                expected, &digest,
                "backend {backend} diverged from the reference final state"
            ),
        }
    });
}
