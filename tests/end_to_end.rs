//! Cross-crate integration tests: the full stack (runtime + ownership +
//! eManager + storage) exercised through the public facade, plus the
//! scale-out and latency-knee shape checks of the game on the virtual-time
//! sim.

use aeon::ownership::ControlPlane;
use aeon::prelude::*;
use aeon::runtime::EventObserver;
use aeon_apps::game::{deploy_game, game_class_graph};
use aeon_apps::tpcc::{deploy_tpcc, run_payment, tpcc_class_graph};
use aeon_types::{EventId, SimDuration};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Counts the events that finished without success.
#[derive(Debug, Default)]
struct Failures(AtomicU64);

impl EventObserver for Failures {
    fn entered(&self, _: &ControlPlane, _: EventId, _: ContextId) {}

    fn finished(&self, _: &ControlPlane, _: EventId, _: ContextId, _: AccessMode, ok: bool) {
        if !ok {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[test]
fn game_world_under_concurrent_load_with_elasticity() {
    let failures = Arc::new(Failures::default());
    let runtime = AeonRuntime::builder()
        .servers(2)
        .class_graph(game_class_graph())
        .observer(Arc::clone(&failures) as Arc<dyn EventObserver>)
        .build()
        .unwrap();
    let manager = EManager::new(std::sync::Arc::new(runtime.clone()), InMemoryStore::new());
    manager.add_policy(Box::new(ServerContentionPolicy::new(8)));
    let world = deploy_game(&runtime, 4, 3).unwrap();
    let client = runtime.client();

    // Concurrent gold transfers in every room.
    let mut handles = Vec::new();
    for players in &world.players {
        for player in players {
            for _ in 0..5 {
                handles.push(client.submit_event(*player, "get_gold", args![2]).unwrap());
            }
        }
    }
    // Scale out while the events run.
    manager.tick(&manager.collect_metrics()).unwrap();
    for handle in handles {
        assert_eq!(handle.wait().unwrap(), Value::from(true));
    }
    // Strict serializability: every room's treasure holds exactly the moved
    // amount.
    for treasure in &world.treasures {
        assert_eq!(
            client
                .call_readonly(*treasure, "get", args!["gold"])
                .unwrap(),
            Value::from(3 * 5 * 2i64)
        );
    }
    assert!(runtime.servers().len() >= 2);
    assert_eq!(failures.0.load(Ordering::Relaxed), 0, "no event failed");
    runtime.shutdown();
}

#[test]
fn tpcc_consistency_survives_checkpoint_restore_and_migration() {
    let runtime = AeonRuntime::builder()
        .servers(3)
        .class_graph(tpcc_class_graph())
        .build()
        .unwrap();
    let manager = EManager::new(std::sync::Arc::new(runtime.clone()), InMemoryStore::new());
    let world = deploy_tpcc(&runtime, 3, 5).unwrap();
    let client = runtime.client();

    for i in 0..60 {
        run_payment(&client, &world, i % 3, i % 5, 5).unwrap();
    }
    // Checkpoint the warehouse subtree, keep mutating, then restore.
    manager.checkpoint("after-60", world.warehouse).unwrap();
    for i in 0..30 {
        run_payment(&client, &world, i % 3, i % 5, 5).unwrap();
    }
    assert_eq!(
        client
            .call_readonly(world.warehouse, "ytd", args![])
            .unwrap(),
        Value::from(450i64)
    );
    manager.restore_checkpoint("after-60").unwrap();
    assert_eq!(
        client
            .call_readonly(world.warehouse, "ytd", args![])
            .unwrap(),
        Value::from(300i64)
    );
    // Migrate a district and verify the invariant still holds.
    let district = world.districts[0];
    let target = runtime
        .servers()
        .into_iter()
        .find(|s| *s != runtime.placement_of(district).unwrap())
        .unwrap();
    manager.migrate(district, target).unwrap();
    let d_sum: i64 = world
        .districts
        .iter()
        .map(|d| {
            client
                .call_readonly(*d, "ytd", args![])
                .unwrap()
                .as_i64()
                .unwrap()
        })
        .sum();
    assert_eq!(d_sum, 300);
    runtime.shutdown();
}

#[test]
fn ownership_network_is_recoverable_from_storage() {
    let runtime = AeonRuntime::builder().servers(1).build().unwrap();
    let room = runtime
        .create_context(Box::new(KvContext::new("Room")), Placement::Auto)
        .unwrap();
    let item = runtime
        .create_owned_context(Box::new(KvContext::new("Item")), &[room])
        .unwrap();
    let manager = EManager::new(std::sync::Arc::new(runtime.clone()), InMemoryStore::new());
    manager.persist_ownership().unwrap();
    let graph = OwnershipGraph::from_value(&manager.load_ownership().unwrap()).unwrap();
    assert!(graph.is_ancestor(room, item));
    runtime.shutdown();
}

const ROOMS: usize = 8;
const PLAYERS: usize = 4;
const EVENTS_PER_ROOM: usize = 40;

/// Runs the game's `get_gold` stream on the contention-mode sim (one core
/// per server) and returns the deployment for its virtual-time readings.
///
/// The world is `ROOMS` rooms of `PLAYERS` players.  `deploy_game`
/// co-locates every owned context with its first owner, so it starts out on
/// the building's server; room `i`'s whole subtree (room, treasure, players,
/// mines) is then moved to server `i % servers` and virtual time rewound,
/// so the set-up traffic does not contend with the stream.  The stream is
/// `EVENTS_PER_ROOM` events per room, round robin over the rooms and over
/// each room's players; every event is sequenced at its room (the players
/// share the room's treasure) and enters four contexts: the player, its
/// mine twice, the treasure.
fn game_stream_on_sim(servers: usize, arrival_interval: SimDuration) -> SimDeployment {
    let sim = SimDeployment::builder()
        .servers(servers)
        .class_graph(game_class_graph())
        .contention(1)
        .arrival_interval(arrival_interval)
        .build()
        .unwrap();
    let world = deploy_game(&sim, ROOMS, PLAYERS).unwrap();
    let graph = sim.ownership_graph();
    let online = sim.servers();
    for (i, room) in world.rooms.iter().enumerate() {
        for member in graph.subtree_topological(*room).unwrap() {
            sim.migrate_context(member, online[i % online.len()])
                .unwrap();
        }
    }
    sim.reset_virtual_time();

    let session = sim.client();
    for k in 0..EVENTS_PER_ROOM * ROOMS {
        let player = world.players[k % ROOMS][(k / ROOMS) % PLAYERS];
        assert_eq!(
            session.call(player, "get_gold", args![1]).unwrap(),
            Value::from(true)
        );
    }
    assert_eq!(sim.events_failed(), 0);
    sim
}

#[test]
fn sim_game_throughput_scales_out_with_servers() {
    // The shape of Figure 5a: all events offered at once, one room per
    // server.  Rooms are independent sequencers, so eight one-core servers
    // work through them in parallel while one server queues them all on its
    // single core.
    let one = game_stream_on_sim(1, SimDuration::ZERO).virtual_throughput();
    let eight = game_stream_on_sim(8, SimDuration::ZERO).virtual_throughput();
    assert!(
        eight >= 3.0 * one,
        "8 servers {eight} events/s vs 1 server {one} events/s"
    );
}

#[test]
fn sim_game_latency_rises_past_the_knee() {
    // The shape of Figure 5b.  An event costs four service times (400 us) at
    // its room's sequencer and each room sees every eighth arrival: at one
    // arrival per millisecond no event waits, at one per 10 us each room is
    // offered five times what it can serve and the queue grows.
    let low_rate = game_stream_on_sim(ROOMS, SimDuration::from_millis(1)).mean_virtual_latency();
    let high_rate = game_stream_on_sim(ROOMS, SimDuration::from_micros(10)).mean_virtual_latency();
    assert!(
        high_rate.as_micros() > 2 * low_rate.as_micros(),
        "past the knee {high_rate:?} vs below it {low_rate:?}"
    );
}

#[test]
fn sim_game_scale_out_run_is_exact() {
    // Virtual time is a function of the input alone: the same world and
    // stream give the same makespan and mean latency, to the microsecond.
    let run = || {
        let sim = game_stream_on_sim(ROOMS, SimDuration::ZERO);
        (sim.virtual_now(), sim.mean_virtual_latency())
    };
    assert_eq!(run(), run());
}

/// The readings every sim figure is made of: virtual clock (µs), mean
/// virtual latency (µs), virtual throughput (its bits), completed and
/// failed events.
type SimFigures = (u64, u64, u64, u64, u64);

fn sim_figures(sim: &SimDeployment) -> SimFigures {
    (
        sim.virtual_now().as_micros(),
        sim.mean_virtual_latency().as_micros(),
        sim.virtual_throughput().to_bits(),
        sim.events_completed(),
        sim.events_failed(),
    )
}

/// A counter that calls two of the counters it owns, or dispatches events
/// to them: the `Top → Mid → {X, Y}` world of `skip_level_calls`, with
/// sub-events.
struct Node {
    class: &'static str,
    n: i64,
}

impl ContextObject for Node {
    fn class_name(&self) -> &str {
        self.class
    }

    fn handle(&mut self, method: &str, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match method {
            "bump" => {
                self.n += 1;
                Ok(Value::from(self.n))
            }
            "get" => Ok(Value::from(self.n)),
            "touch" => {
                inv.call(args.get_context(0)?, "bump", args![])?;
                inv.call(args.get_context(1)?, "bump", args![])
            }
            "fan" => {
                inv.call_async(args.get_context(0)?, "bump", args![])?;
                inv.dispatch_event(args.get_context(1)?, "bump", args![])?;
                inv.dispatch_event(
                    args.get_context(0)?,
                    "touch",
                    args![args.get_context(1)?, args.get_context(1)?],
                )?;
                Ok(Value::Null)
            }
            other => Err(AeonError::UnknownMethod {
                class: self.class.into(),
                method: other.into(),
            }),
        }
    }

    fn is_readonly(&self, method: &str) -> bool {
        method == "get"
    }

    fn snapshot(&self) -> Value {
        Value::from(self.n)
    }

    fn restore(&mut self, state: &Value) {
        self.n = state.as_i64().unwrap_or_default();
    }
}

/// The skip-level world on the serial-mode sim: `Mid` and `Y` migrate to a
/// second server (charged like any event), then calls that skip `Mid`
/// enter it on their way down, events dispatch sub-events, and a few fail.
fn skip_level_world_on_serial_sim() -> SimDeployment {
    let sim = SimDeployment::builder().servers(2).build().unwrap();
    for class in ["Top", "Mid", "Leaf"] {
        sim.register_class_factory(
            class,
            std::sync::Arc::new(move |state: &Value| {
                let mut node = Node { class, n: 0 };
                node.restore(state);
                Box::new(node) as Box<dyn ContextObject>
            }),
        );
    }
    let node = |class| Box::new(Node { class, n: 0 }) as Box<dyn ContextObject>;
    let servers = sim.servers();
    let top = sim
        .create_context(node("Top"), Placement::Server(servers[0]))
        .unwrap();
    let mid = sim.create_owned_context(node("Mid"), &[top]).unwrap();
    let x = sim.create_owned_context(node("Leaf"), &[mid]).unwrap();
    let y = sim.create_owned_context(node("Leaf"), &[mid]).unwrap();
    for context in [mid, y] {
        sim.migrate_context(context, servers[1]).unwrap();
    }
    let session = sim.client();
    for round in 0..5 {
        session.call(mid, "touch", args![x, y]).unwrap();
        session.call(top, "touch", args![y, x]).unwrap();
        session.call(top, "fan", args![mid, y]).unwrap();
        session.call_readonly(x, "get", args![]).unwrap();
        if round % 2 == 0 {
            assert!(session.call_readonly(y, "bump", args![]).is_err());
            assert!(session.call(x, "touch", args![top, y]).is_err());
        }
    }
    sim
}

/// The sim's figures, captured exactly: a change to how the sim executes
/// events must leave every virtual reading of these runs as it was.
#[test]
fn sim_figures_are_pinned() {
    let figures = [
        sim_figures(&game_stream_on_sim(ROOMS, SimDuration::ZERO)),
        sim_figures(&game_stream_on_sim(1, SimDuration::from_micros(10))),
        {
            let sim = SimDeployment::builder()
                .servers(3)
                .contention(2)
                .class_graph(aeon_apps::social_class_graph())
                .build()
                .unwrap();
            let config = aeon_apps::social::SocialConfig::default();
            let world = aeon_apps::social::deploy_social(&sim, &config).unwrap();
            let ops = world.plan.request_stream(300, config.seed);
            sim.reset_virtual_time();
            aeon_apps::run_social_stream(&sim.client(), &world, &ops).unwrap();
            sim_figures(&sim)
        },
        sim_figures(&skip_level_world_on_serial_sim()),
    ];
    assert_eq!(
        figures,
        [
            (16_400, 8_600, 4_671_092_685_310_838_734, 320, 0),
            (128_400, 63_005, 4_657_698_846_863_260_063, 320, 0),
            (43_200, 5_622, 4_664_357_512_116_203_975, 300, 0),
            (28_000, 736, 4_652_741_154_316_185_015, 32, 6),
        ]
    );
}
