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
    on_every_backend_with(
        |config| config.servers(2).class_graph(game_class_graph()),
        scenario,
    );
}

/// The runtime, the cluster — over in-process channels, then with every
/// message crossing a real TCP socket on loopback — and the simulator.
fn every_backend() -> [DeployConfig; 4] {
    [
        DeployConfig::runtime(),
        DeployConfig::cluster(),
        DeployConfig::cluster().transport(ClusterTransport::TcpLoopback),
        DeployConfig::sim(),
    ]
}

/// Runs `scenario` against [`every_backend`], each deployed from the config
/// `configure` makes of its backend's.
fn on_every_backend_with(
    configure: impl Fn(DeployConfig) -> DeployConfig,
    scenario: impl Fn(&dyn Deployment),
) {
    for config in every_backend() {
        let deployment = aeon::deploy(configure(config)).unwrap();
        scenario(&*deployment);
        deployment.shutdown();
    }
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
fn bad_arguments_name_their_method_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let world = deploy_game(deployment, 1, 1).unwrap();
        let err = deployment
            .session()
            .call(world.players[0][0], "get_gold", args!["x"])
            .unwrap_err();
        assert!(
            matches!(&err, AeonError::BadArguments { method, .. } if method == "get_gold"),
            "backend {backend}: {err:?}"
        );
        assert_eq!(
            err.to_string(),
            "bad arguments for method get_gold: argument 0 missing or not an int",
            "backend {backend}"
        );
    });
}

/// A client's integer goes through checked arithmetic, in debug and
/// release builds alike: an `incr` that would overflow, or whose step is
/// not an integer, is refused and the stored value stays.  A missing step
/// is 1.
#[test]
fn incr_refuses_an_overflow_and_a_bad_step_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let world = deploy_game(deployment, 1, 1).unwrap();
        let session = deployment.session();
        let item = world.treasures[0];
        let gold = || session.call_readonly(item, "get", args!["gold"]).unwrap();
        session.call(item, "set", args!["gold", i64::MAX]).unwrap();
        let err = session.call(item, "incr", args!["gold", 1i64]).unwrap_err();
        assert!(
            matches!(&err, AeonError::BadArguments { method, reason }
                if method == "incr" && reason.ends_with("overflows an i64")),
            "backend {backend}: {err:?}"
        );
        let err = session
            .call(item, "incr", args!["gold", "one"])
            .unwrap_err();
        assert!(
            matches!(&err, AeonError::BadArguments { method, .. } if method == "incr"),
            "backend {backend}: {err:?}"
        );
        assert_eq!(gold(), Value::from(i64::MAX), "backend {backend}");
        session.call(item, "set", args!["gold", 5i64]).unwrap();
        assert_eq!(
            session.call(item, "incr", args!["gold"]).unwrap(),
            Value::from(6i64),
            "backend {backend}"
        );
        let err = session
            .call(world.players[0][0], "get_gold", args![i64::MIN])
            .unwrap_err();
        assert!(
            matches!(&err, AeonError::BadArguments { method, .. } if method == "get_gold"),
            "backend {backend}: {err:?}"
        );
        assert_eq!(gold(), Value::from(6i64), "backend {backend}");
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

/// The id a handle reports is the id the backend recorded the event under:
/// an exclusive event, a certified read and a sequenced read each leave one
/// span, under the handle's id, and every access they made carries it.
#[test]
fn a_handle_names_the_event_its_backend_recorded_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let recorder = HistoryRecorder::new();
        deployment.install_history_sink(std::sync::Arc::new(recorder.clone()));
        let world = deploy_game(deployment, 1, 1).unwrap();
        let (room, player) = (world.rooms[0], world.players[0][0]);
        let session = deployment.session();
        let submits = [
            (player, "get_gold", args![7], AccessMode::Exclusive),
            (room, "nr_players", args![], AccessMode::ReadOnly),
            (player, "treasure_balance", args![], AccessMode::ReadOnly),
        ];
        for (target, method, args, mode) in submits {
            recorder.reset();
            let handle = session
                .submit_with_mode(target, method, args, mode)
                .unwrap();
            let event = handle.event_id();
            handle.wait().unwrap();
            let history = recorder.history();
            let recorded: Vec<_> = history.spans.keys().copied().collect();
            assert_eq!(recorded, [event], "backend {backend}: {method}");
            let accesses: Vec<_> = history.operations.values().flatten().collect();
            assert!(!accesses.is_empty(), "backend {backend}: {method}");
            for op in accesses {
                assert_eq!(op.event, event, "backend {backend}: {method}");
            }
        }
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

/// An entry that left the subtree between the capture and the restore is
/// still restored — after the subtree, by an exclusive event of its own —
/// and the members that stayed are back at the cut.
#[test]
fn a_restore_reaches_an_entry_that_left_the_subtree_on_every_backend() {
    on_every_backend_with(
        |config| config.servers(2),
        |deployment| {
            let backend = deployment.backend_name();
            let servers = deployment.servers();
            let room = deployment
                .create_context(
                    Box::new(KvContext::new("Room")),
                    Placement::Server(servers[0]),
                )
                .unwrap();
            let kept = deployment
                .create_owned_context(Box::new(KvContext::new("Item")), &[room])
                .unwrap();
            // On the other server, so the cluster's cut reaches it remotely.
            let leaver = deployment
                .create_context(
                    Box::new(KvContext::new("Item")),
                    Placement::Server(servers[1]),
                )
                .unwrap();
            deployment.add_ownership(room, leaver).unwrap();
            let session = deployment.session();
            let members = [room, kept, leaver];
            for member in members {
                session.call(member, "set", args!["n", 1]).unwrap();
            }
            let snapshot = deployment.snapshot_context(room).unwrap();
            assert_eq!(snapshot.len(), 3, "backend {backend}");
            for member in members {
                session.call(member, "set", args!["n", 2]).unwrap();
            }
            deployment.remove_ownership(room, leaver).unwrap();
            deployment.restore_snapshot(&snapshot).unwrap();
            for member in members {
                assert_eq!(
                    session.call_readonly(member, "get", args!["n"]).unwrap(),
                    Value::from(1i64),
                    "backend {backend}: {member} is back at the cut"
                );
            }
        },
    );
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

/// Moving a context to the server it already lives on moves nothing, on
/// every backend: `Ok(0)`, no rebuild through the class factory, and the
/// state and the placement as they were.
#[test]
fn migrating_to_the_current_server_is_a_no_op_on_every_backend() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let rebuilt = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&rebuilt);
        deployment.register_class_factory(
            "Room",
            Arc::new(move |state: &Value| {
                counter.fetch_add(1, Ordering::SeqCst);
                let mut room = Room::default();
                ContextObject::restore(&mut room, state);
                Box::new(room) as Box<dyn ContextObject>
            }),
        );
        let world = deploy_game(deployment, 1, 1).unwrap();
        let session = deployment.session();
        let room = world.rooms[0];
        session.call(room, "update_time_of_day", args![]).unwrap();
        let here = deployment.placement_of(room).unwrap();
        let before = deployment.snapshot_context(room).unwrap();
        assert_eq!(
            deployment.migrate_context(room, here),
            Ok(0),
            "backend {backend}"
        );
        assert_eq!(
            rebuilt.load(Ordering::SeqCst),
            0,
            "backend {backend}: the room was rebuilt"
        );
        assert_eq!(
            deployment.placement_of(room).unwrap(),
            here,
            "backend {backend}"
        );
        assert_eq!(
            deployment.snapshot_context(room).unwrap(),
            before,
            "backend {backend}"
        );
    });
}

/// Paper claim (§5.2): a context migrates without violating consistency.
/// Four clients transfer between the accounts of two branches — one account
/// shared by both, so some transfers are sequenced at the bank — while a
/// migrator moves the accounts back to back, each to a server it is not
/// on.  No transfer fails, the books balance, and the recorded history
/// (migrations included) is strictly serializable.  Moves and transfers
/// keep pace — neither count gets more than `WINDOW` ahead of the other —
/// so that the moves overlap the whole load however the threads are
/// scheduled, and the history the checker reads stays bounded where a move
/// is cheaper than a transfer (the runtime, the sim).
#[test]
fn transfers_under_back_to_back_migrations_neither_fail_nor_tear_on_every_backend() {
    use aeon_apps::bank::{bank_class_graph, deploy_bank, register_bank_factories};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    const CLIENTS: usize = 4;
    const TRANSFERS: usize = 500;
    const WINDOW: usize = 8;
    /// Waits until `ready` or `done` holds.
    fn until(ready: impl Fn() -> bool, done: &AtomicBool) {
        while !ready() && !done.load(Ordering::SeqCst) {
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
    }
    on_every_backend_with(
        |config| {
            config
                .servers(3)
                .worker_threads(2)
                .class_graph(bank_class_graph())
        },
        |deployment| {
            let backend = deployment.backend_name();
            register_bank_factories(deployment);
            let recorder = HistoryRecorder::new();
            deployment.install_history_sink(Arc::new(recorder.clone()));
            let config = aeon_apps::bank::BankWorldConfig {
                branches: 2,
                accounts_per_branch: 4,
                shared_pairs: 1,
                shared_accounts: 1,
                initial_balance: 100,
            };
            let world = deploy_bank(deployment, &config).unwrap();
            let (transferred, moved) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let (clients_done, migrator_done) = (AtomicBool::new(false), AtomicBool::new(false));
            let load = || transferred.load(Ordering::SeqCst);
            let moves = || moved.load(Ordering::SeqCst);
            std::thread::scope(|scope| {
                let clients: Vec<_> = (0..CLIENTS)
                    .map(|c| {
                        let (session, world) = (deployment.session(), &world);
                        let (transferred, migrator_done) = (&transferred, &migrator_done);
                        scope.spawn(move || {
                            for i in 0..TRANSFERS {
                                until(|| load() < moves() + WINDOW, migrator_done);
                                let b = (c + i) % world.branches.len();
                                let accounts = &world.accounts_of[b];
                                let from = accounts[i % accounts.len()];
                                let to = accounts[(i + 1) % accounts.len()];
                                let amount = 1 + (i % 9) as i64;
                                if let Err(error) = session.call(
                                    world.branches[b],
                                    "transfer",
                                    args![from, to, amount],
                                ) {
                                    panic!(
                                        "backend {backend}: transfer {i} of client {c}: {error}"
                                    );
                                }
                                transferred.fetch_add(1, Ordering::SeqCst);
                            }
                        })
                    })
                    .collect();
                let migrator = scope.spawn(|| {
                    let servers = deployment.servers();
                    let mut failure = None;
                    for account in world.accounts.iter().cycle() {
                        until(|| moves() < load(), &clients_done);
                        if clients_done.load(Ordering::SeqCst) {
                            break;
                        }
                        let here = deployment.placement_of(*account);
                        let at = servers.iter().position(|s| Ok(*s) == here);
                        let to = servers[(at.unwrap_or(0) + 1) % servers.len()];
                        match deployment.migrate_context(*account, to) {
                            Ok(bytes) if bytes > 0 => moved.fetch_add(1, Ordering::SeqCst),
                            other => {
                                failure = Some(format!("moving {account} to {to}: {other:?}"));
                                break;
                            }
                        };
                    }
                    // Clients waiting for a move go on without it.
                    migrator_done.store(true, Ordering::SeqCst);
                    failure
                });
                // Every client is joined before the migrator is told to stop,
                // failed or not, and only then is a failure passed on.
                let clients: Vec<_> = clients.into_iter().map(|c| c.join()).collect();
                clients_done.store(true, Ordering::SeqCst);
                if let Some(failure) = migrator.join().unwrap() {
                    panic!("backend {backend}: {failure}");
                }
                for client in clients {
                    client.unwrap();
                }
            });
            assert!(
                moves() + WINDOW + CLIENTS >= CLIENTS * TRANSFERS,
                "backend {backend}: only {} moves beside {} transfers",
                moves(),
                load()
            );

            let audit = deployment
                .session()
                .call_readonly(world.bank, "audit", args![])
                .unwrap();
            assert_eq!(
                audit,
                Value::from(world.expected_total(&config)),
                "backend {backend}: a transfer was torn"
            );
            let history = recorder.history();
            if let Err(violation) = check_strict_serializability(&history) {
                panic!("backend {backend}, {} migrations: {violation}", moves());
            }
        },
    );
}

#[test]
fn colocation_with_contexts_on_crashed_servers_is_rejected_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let spare = deployment.add_server().unwrap();
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
        let spare = deployment.add_server().unwrap();
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

/// After `shutdown()` a deployment creates, hosts and re-hosts nothing: all
/// three control operations fail with `RuntimeShutdown` and leave the
/// control plane as it was.  (The runtime and the simulator used to create
/// and restore anyway; the cluster declared the context, then failed on the
/// dead node with `ServerNotFound`.)
#[test]
fn a_shut_down_deployment_creates_and_restores_nothing_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        register_game_factories(deployment);
        let server = deployment.servers()[0];
        let room = deployment
            .create_context(Box::new(Room::default()), Placement::Server(server))
            .unwrap();
        let state = ContextObject::snapshot(&Room::default());
        deployment.shutdown();
        let edges_before: Vec<_> = deployment.ownership_graph().edges().collect();
        assert_eq!(
            deployment
                .create_context(Box::new(Room::default()), Placement::Auto)
                .err(),
            Some(AeonError::RuntimeShutdown),
            "backend {backend}: create_context"
        );
        assert_eq!(
            deployment
                .create_owned_context(Box::new(KvContext::new("Item")), &[room])
                .err(),
            Some(AeonError::RuntimeShutdown),
            "backend {backend}: create_owned_context"
        );
        assert_eq!(
            deployment.restore_context(room, &state, server),
            Err(AeonError::RuntimeShutdown),
            "backend {backend}: restore_context"
        );
        assert_eq!(deployment.context_count(), 1, "backend {backend}");
        assert_eq!(
            deployment.placement_of(room),
            Ok(server),
            "backend {backend}"
        );
        let edges_after: Vec<_> = deployment.ownership_graph().edges().collect();
        assert_eq!(edges_after, edges_before, "backend {backend}");
    });
}

/// After `shutdown()` a deployment's ownership network and roster hold
/// still: editing an edge and removing, crashing or adding a server all fail
/// with `RuntimeShutdown` and change nothing.  (All five used to succeed on
/// every backend, and the cluster started a node that nothing would stop.)
#[test]
fn a_shut_down_deployment_changes_no_edge_and_no_server_on_every_backend() {
    on_every_backend(|deployment| {
        let backend = deployment.backend_name();
        let room = deployment
            .create_context(Box::new(Room::default()), Placement::Auto)
            .unwrap();
        let item = deployment
            .create_owned_context(Box::new(KvContext::new("Item")), &[room])
            .unwrap();
        let player = deployment
            .create_owned_context(Box::new(Player::default()), &[room])
            .unwrap();
        deployment.shutdown();
        let edges_before: Vec<_> = deployment.ownership_graph().edges().collect();
        let servers_before = deployment.servers();
        assert_eq!(
            deployment.add_ownership(player, item),
            Err(AeonError::RuntimeShutdown),
            "backend {backend}: add_ownership"
        );
        assert_eq!(
            deployment.remove_ownership(room, item),
            Err(AeonError::RuntimeShutdown),
            "backend {backend}: remove_ownership"
        );
        assert_eq!(
            deployment.remove_server(servers_before[1]),
            Err(AeonError::RuntimeShutdown),
            "backend {backend}: remove_server"
        );
        assert_eq!(
            deployment.crash_server(servers_before[1]),
            Err(AeonError::RuntimeShutdown),
            "backend {backend}: crash_server"
        );
        assert_eq!(
            deployment.add_server(),
            Err(AeonError::RuntimeShutdown),
            "backend {backend}: add_server"
        );
        let edges_after: Vec<_> = deployment.ownership_graph().edges().collect();
        assert_eq!(edges_after, edges_before, "backend {backend}");
        assert_eq!(deployment.servers(), servers_before, "backend {backend}");
        assert_eq!(deployment.context_count(), 3, "backend {backend}");
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
/// elasticity manager holds) against [`every_backend`], on two servers.
fn on_every_backend_shared(scenario: impl Fn(std::sync::Arc<dyn Deployment>)) {
    for config in every_backend() {
        let deployment = aeon::deploy_shared(config.servers(2)).unwrap();
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

/// The intent a predecessor eManager that crashed mid-move left behind:
/// `migration/<context>` → the destination server's id.
fn persist_intent(store: &InMemoryStore, ctx: ContextId, to: ServerId) {
    let key = format!("{}{}", aeon::storage::keys::MIGRATION_PREFIX, ctx.raw());
    store.put(&key, Value::from(to.raw())).unwrap();
}

#[test]
fn emanager_recovers_interrupted_migrations_on_every_backend() {
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
        persist_intent(&store, ctx, to);
        let replacement = EManager::new(deployment.clone(), store.clone());
        let outcomes = replacement.recover().unwrap();
        assert!(
            matches!(outcomes[..], [(c, Ok(moved))] if c == ctx && moved > 0),
            "backend {backend}: {outcomes:?}"
        );
        assert_eq!(
            deployment.placement_of(ctx).unwrap(),
            to,
            "backend {backend}"
        );
        assert!(store.is_empty(), "backend {backend}: an intent was left");
        assert_items_intact(deployment.as_ref(), &items, backend);
    });
}

/// A move that fails — here the class factory that would rebuild the
/// context panics, inside the interpreter's panic boundary on every backend
/// — is returned by `EManager::migrate`, leaves the context where it was and
/// serving, and leaves no intent behind to block a later `recover`.
#[test]
fn a_failed_emanager_migration_leaves_placement_and_recovery_intact_on_every_backend() {
    on_every_backend_shared(|deployment| {
        let backend = deployment.backend_name();
        deployment.register_class_factory(
            "Fragile",
            std::sync::Arc::new(|_: &Value| -> Box<dyn ContextObject> {
                panic!("this class cannot be rebuilt")
            }),
        );
        let ctx = deployment
            .create_context(Box::new(KvContext::new("Fragile")), Placement::Auto)
            .unwrap();
        let session = deployment.session();
        session.call(ctx, "set", args!["n", 7]).unwrap();
        let from = deployment.placement_of(ctx).unwrap();
        let to = deployment
            .servers()
            .into_iter()
            .find(|s| *s != from)
            .unwrap();
        let store = InMemoryStore::new();
        let manager = EManager::new(deployment.clone(), store.clone());
        let failed = manager.migrate(ctx, to);
        assert!(failed.is_err(), "backend {backend}: {failed:?}");
        assert_eq!(
            deployment.placement_of(ctx).unwrap(),
            from,
            "backend {backend}"
        );
        assert_eq!(
            session.call_readonly(ctx, "get", args!["n"]).unwrap(),
            Value::from(7i64),
            "backend {backend}"
        );
        assert!(
            store
                .list_prefix(aeon::storage::keys::MIGRATION_PREFIX)
                .is_empty(),
            "backend {backend}: an intent was left"
        );
        assert_eq!(manager.recover(), Ok(vec![]), "backend {backend}");
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
            // Each item had one event, recorded by the server hosting it.
            let hosted = deployment.contexts_on(m.server).len() as u64;
            assert_eq!(m.latency.count, hosted, "backend {backend}: {}", m.server);
            // One latency record per server: the average is its histogram's.
            let mean_ms = match m.latency.count {
                0 => 0.0,
                n => m.latency.total_micros as f64 / n as f64 / 1000.0,
            };
            assert_eq!(m.avg_latency_ms, mean_ms, "backend {backend}");
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
        let added = deployment.add_server().unwrap();
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

/// Naps in `nap` for the given milliseconds, raising `started` first.
struct Napper {
    started: std::sync::Arc<std::sync::atomic::AtomicBool>,
}

impl ContextObject for Napper {
    fn class_name(&self) -> &str {
        "Napper"
    }

    fn handle(&mut self, method: &str, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        match method {
            "nap" => {
                self.started
                    .store(true, std::sync::atomic::Ordering::SeqCst);
                let millis = u64::try_from(args.get_i64(0)?).unwrap_or(0);
                std::thread::sleep(std::time::Duration::from_millis(millis));
                Ok(Value::Null)
            }
            other => Err(AeonError::UnknownMethod {
                class: "Napper".into(),
                method: other.into(),
            }),
        }
    }
}

/// An event still queued at its server when the deployment shuts down is
/// answered with `RuntimeShutdown` at once.  One server with one worker:
/// event A occupies the worker, event B waits behind it on another root
/// context, and the deployment shuts down while a session is still held.
/// The cluster used to leave B to its handle's time-out (60 s for `wait`);
/// the simulator runs both at submission.
#[test]
fn shutdown_answers_an_event_still_queued_on_every_backend() {
    use std::time::{Duration, Instant};
    on_every_backend_with(
        |config| config.servers(1).worker_threads(1),
        |deployment| {
            let backend = deployment.backend_name();
            let started = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let napper = deployment
                .create_context(
                    Box::new(Napper {
                        started: std::sync::Arc::clone(&started),
                    }),
                    Placement::Auto,
                )
                .unwrap();
            let item = deployment
                .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
                .unwrap();
            let session = deployment.session();
            let a = session.submit_event(napper, "nap", args![200]).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while !started.load(std::sync::atomic::Ordering::SeqCst) {
                assert!(Instant::now() < deadline, "backend {backend}: A never ran");
                std::thread::yield_now();
            }
            let b = session.submit_event(item, "incr", args!["n", 1]).unwrap();
            deployment.shutdown();
            let (tx, rx) = std::sync::mpsc::channel();
            let waiter = std::thread::spawn(move || {
                let _ = tx.send(b.wait());
            });
            let result = rx.recv_timeout(Duration::from_secs(1)).unwrap_or_else(|_| {
                panic!("backend {backend}: B is unanswered 1 s after shutdown returned")
            });
            waiter.join().unwrap();
            let expected = if backend == "sim" {
                Ok(Value::from(1i64))
            } else {
                Err(AeonError::RuntimeShutdown)
            };
            assert_eq!(result, expected, "backend {backend}");
            drop((a, session));
        },
    );
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

/// A restore runs the class factory, which is application code: a panic in
/// it fails the restore, not the caller, and changes nothing.
#[test]
fn a_panicking_restore_factory_fails_the_restore_and_nothing_else_on_every_backend() {
    on_every_backend_shared(|deployment| {
        let backend = deployment.backend_name();
        let items = seed_items(deployment.as_ref(), 2);
        deployment.register_class_factory(
            "Item",
            std::sync::Arc::new(|_: &Value| panic!("the factory refuses")),
        );
        let home = deployment.placement_of(items[0]).unwrap();
        let other = *deployment.servers().iter().find(|s| **s != home).unwrap();
        let placements = |d: &dyn Deployment| items.iter().map(|i| d.placement_of(*i)).collect();
        let before: Vec<_> = placements(deployment.as_ref());
        let err = deployment
            .restore_context(items[0], &Value::Null, other)
            .unwrap_err();
        assert!(
            matches!(&err, AeonError::Panicked { reason } if reason == "the factory refuses"),
            "backend {backend}: {err}"
        );
        assert_eq!(placements(deployment.as_ref()), before, "backend {backend}");
        assert_eq!(deployment.context_count(), 2, "backend {backend}");
        assert_items_intact(deployment.as_ref(), &items, backend);
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

    /// A transfer of `i64::MIN` has no withdrawal to make (its negation
    /// overflows): it is refused before either leg runs, by both transfer
    /// methods, and so is a deposit that would overflow a balance.  The
    /// bank still holds exactly its money.
    #[test]
    fn overflowing_transfers_are_refused_before_either_leg_on_every_backend() {
        on_every_bank_backend(|deployment| {
            let backend = deployment.backend_name();
            let config = BankWorldConfig::default();
            let world = deploy_bank(&*deployment, &config).unwrap();
            let session = deployment.session();
            let (from, to) = (world.accounts_of[0][0], world.accounts_of[0][1]);
            for method in ["transfer", "transfer_async"] {
                let err = session
                    .call(world.branches[0], method, args![from, to, i64::MIN])
                    .unwrap_err();
                assert!(
                    matches!(&err, AeonError::BadArguments { method: m, reason }
                        if m == method && reason.ends_with("overflows an i64")),
                    "backend {backend}: {err:?}"
                );
            }
            let err = session.call(to, "add", args![i64::MAX]).unwrap_err();
            assert!(
                matches!(&err, AeonError::BadArguments { method, .. } if method == "add"),
                "backend {backend}: {err:?}"
            );
            for account in [from, to] {
                assert_eq!(
                    session.call_readonly(account, "read", args![]).unwrap(),
                    Value::from(config.initial_balance),
                    "backend {backend}"
                );
            }
            assert_eq!(
                session.call_readonly(world.bank, "audit", args![]).unwrap(),
                Value::from(world.expected_total(&config)),
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

    /// Without a class graph nothing is certified: every read is sequenced
    /// at its dominator, and returns what the certified read returns.
    #[test]
    fn reads_without_a_class_graph_agree_with_certified_ones() {
        let config = BankWorldConfig::default();
        let read_all = |deployment: &dyn Deployment| {
            let world = deploy_bank(deployment, &config).unwrap();
            let session = deployment.session();
            let reads: Vec<Value> = world
                .accounts
                .iter()
                .map(|account| session.call_readonly(*account, "read", args![]).unwrap())
                .collect();
            assert_eq!(reads.len(), world.accounts.len());
            reads
        };
        let certified = AeonRuntime::builder()
            .servers(2)
            .class_graph(bank_class_graph())
            .build()
            .unwrap();
        let expected = read_all(&certified);
        assert_eq!(certified.executor_stats().fast_path, expected.len() as u64);
        certified.shutdown();

        let runtime = AeonRuntime::builder().servers(2).build().unwrap();
        assert_eq!(read_all(&runtime), expected, "runtime");
        assert_eq!(runtime.executor_stats().fast_path, 0);
        runtime.shutdown();

        let cluster = Cluster::builder().servers(2).build().unwrap();
        assert_eq!(read_all(&cluster), expected, "cluster");
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
