//! Cross-crate integration tests: the full stack (runtime + ownership +
//! eManager + storage) exercised through the public facade, plus the
//! scale-out and latency-knee shape checks of the game on the virtual-time
//! sim.

use aeon::prelude::*;
use aeon_apps::game::{deploy_game, game_class_graph};
use aeon_apps::tpcc::{deploy_tpcc, run_payment, tpcc_class_graph};
use aeon_types::SimDuration;

#[test]
fn game_world_under_concurrent_load_with_elasticity() {
    let runtime = AeonRuntime::builder()
        .servers(2)
        .class_graph(game_class_graph())
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
    assert_eq!(runtime.stats().events_failed(), 0);
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
