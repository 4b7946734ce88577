//! Behavioural tests of the AEON runtime: event execution, ownership
//! enforcement, read-only concurrency, sub-events, async calls, migration
//! and snapshots.

use aeon_ownership::{ClassGraph, ControlPlane, Dominator};
use aeon_runtime::{AeonRuntime, ContextObject, EventObserver, Invocation, KvContext, Placement};
use aeon_runtime::{Deployment, Session};
use aeon_types::{args, AccessMode, AeonError, Args, ContextId, EventId, Result, Value};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A player that owns a gold mine and a treasure item, mirroring Listing 1.
struct Player {
    gold_mine: Option<ContextId>,
    treasure: Option<ContextId>,
}

impl ContextObject for Player {
    fn class_name(&self) -> &str {
        "Player"
    }

    fn handle(&mut self, method: &str, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match method {
            "set_items" => {
                self.gold_mine = Some(args.get_context(0)?);
                self.treasure = Some(args.get_context(1)?);
                Ok(Value::Null)
            }
            // bool get_gold(int amt): take from the mine, put into treasure.
            "get_gold" => {
                let amount = args.get_i64(0)?;
                let mine = self.gold_mine.ok_or_else(|| AeonError::app("no mine"))?;
                let treasure = self.treasure.ok_or_else(|| AeonError::app("no treasure"))?;
                let available = inv.call(mine, "get", args!["gold"])?.as_i64().unwrap_or(0);
                if available < amount {
                    return Ok(Value::Bool(false));
                }
                inv.call(mine, "incr", args!["gold", -amount])?;
                inv.call(treasure, "incr", args!["gold", amount])?;
                Ok(Value::Bool(true))
            }
            "balance" => {
                let treasure = self.treasure.ok_or_else(|| AeonError::app("no treasure"))?;
                inv.call(treasure, "get", args!["gold"])
            }
            _ => Err(AeonError::UnknownMethod {
                class: "Player".into(),
                method: method.into(),
            }),
        }
    }

    fn is_readonly(&self, method: &str) -> bool {
        method == "balance"
    }
}

fn game_classes() -> ClassGraph {
    let mut classes = ClassGraph::new();
    classes.add_constraint("Room", "Player");
    classes.add_constraint("Room", "Item");
    classes.add_constraint("Player", "Item");
    classes
}

/// Builds a room with `players` players, each owning a private gold mine and
/// sharing a single treasure with the room and the other players.
fn build_room(runtime: &AeonRuntime, players: usize) -> (ContextId, Vec<ContextId>, ContextId) {
    let room = runtime
        .create_context(Box::new(KvContext::new("Room")), Placement::Auto)
        .expect("room");
    let treasure = runtime
        .create_owned_context(
            Box::new(KvContext::with_entries(
                "Item",
                [("gold", Value::from(0i64))],
            )),
            &[room],
        )
        .expect("treasure");
    let mut ids = Vec::new();
    for _ in 0..players {
        let player = runtime
            .create_owned_context(
                Box::new(Player {
                    gold_mine: None,
                    treasure: None,
                }),
                &[room],
            )
            .expect("player");
        let mine = runtime
            .create_owned_context(
                Box::new(KvContext::with_entries(
                    "Item",
                    [("gold", Value::from(1000i64))],
                )),
                &[player],
            )
            .expect("mine");
        runtime
            .add_ownership(player, treasure)
            .expect("share treasure");
        let client = runtime.client();
        client
            .call(player, "set_items", args![mine, treasure])
            .expect("wire player items");
        ids.push(player);
    }
    (room, ids, treasure)
}

/// A context whose `wedge` method announces that it is running and then
/// blocks until the test releases it; `noop` returns at once.
struct Gate {
    started: mpsc::Sender<()>,
    release: std::sync::Mutex<mpsc::Receiver<()>>,
}

impl ContextObject for Gate {
    fn class_name(&self) -> &str {
        "Item"
    }

    fn handle(&mut self, method: &str, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        match method {
            "wedge" => {
                let _ = self.started.send(());
                let _ = self
                    .release
                    .lock()
                    .unwrap()
                    .recv_timeout(Duration::from_secs(10));
                Ok(Value::from("unwedged"))
            }
            "noop" => Ok(Value::Null),
            _ => Err(AeonError::app("unknown")),
        }
    }
}

/// A runtime hosting one [`Gate`], with a thread blocked inside its `wedge`
/// method through a blocking `call`.  Returns the runtime, the gate, the
/// sender that releases the method, and the wedged caller.
fn runtime_with_a_wedged_caller() -> (
    AeonRuntime,
    ContextId,
    mpsc::Sender<()>,
    std::thread::JoinHandle<Result<Value>>,
) {
    let runtime = AeonRuntime::builder().worker_threads(1).build().unwrap();
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let gate = runtime
        .create_context(
            Box::new(Gate {
                started: started_tx,
                release: std::sync::Mutex::new(release_rx),
            }),
            Placement::Auto,
        )
        .unwrap();
    let client = runtime.client();
    let wedged = std::thread::spawn(move || client.call(gate, "wedge", args![]));
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the wedge event reaches its method");
    (runtime, gate, release_tx, wedged)
}

/// Polls `condition` until it holds or ten seconds pass.
fn eventually(what: &str, mut condition: impl FnMut() -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !condition() {
        assert!(std::time::Instant::now() < deadline, "timed out: {what}");
        std::thread::yield_now();
    }
}

#[test]
fn quickstart_counter_works() {
    let runtime = AeonRuntime::builder().servers(2).build().unwrap();
    let counter = runtime
        .create_context(Box::new(KvContext::new("Counter")), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    assert_eq!(
        client.call(counter, "incr", args!["hits", 1]).unwrap(),
        Value::from(1i64)
    );
    assert_eq!(
        client.call(counter, "incr", args!["hits", 2]).unwrap(),
        Value::from(3i64)
    );
    assert_eq!(
        client.call_readonly(counter, "get", args!["hits"]).unwrap(),
        Value::from(3i64)
    );
    runtime.shutdown();
}

#[test]
fn events_spanning_multiple_contexts_are_atomic() {
    let runtime = AeonRuntime::builder()
        .servers(4)
        .class_graph(game_classes())
        .build()
        .unwrap();
    let (_room, players, treasure) = build_room(&runtime, 2);
    let client = runtime.client();
    assert_eq!(
        client.call(players[0], "get_gold", args![100]).unwrap(),
        Value::Bool(true)
    );
    assert_eq!(
        client.call(players[1], "get_gold", args![50]).unwrap(),
        Value::Bool(true)
    );
    assert_eq!(
        client
            .call_readonly(players[0], "balance", args![])
            .unwrap(),
        Value::from(150i64)
    );
    // Direct read of the shared treasure agrees.
    assert_eq!(
        client
            .call_readonly(treasure, "get", args!["gold"])
            .unwrap(),
        Value::from(150i64)
    );
    runtime.shutdown();
}

#[test]
fn concurrent_transfers_preserve_conservation_invariant() {
    // Strict serializability stress test: concurrent get_gold events move
    // gold between contexts; the total amount of gold must be conserved and
    // equal to the sequential outcome.
    let log = Arc::new(Log::default());
    let runtime = AeonRuntime::builder()
        .servers(4)
        .class_graph(game_classes())
        .observer(Arc::clone(&log) as Arc<dyn EventObserver>)
        .build()
        .unwrap();
    let (_room, players, treasure) = build_room(&runtime, 4);
    let client = runtime.client();
    let per_player_events = 25;
    let mut handles = Vec::new();
    for &player in &players {
        for _ in 0..per_player_events {
            handles.push(client.submit_event(player, "get_gold", args![10]).unwrap());
        }
    }
    let mut successes = 0;
    for handle in handles {
        if handle.wait().unwrap() == Value::Bool(true) {
            successes += 1;
        }
    }
    assert_eq!(successes, players.len() * per_player_events);
    let total_moved = 10 * successes as i64;
    assert_eq!(
        client
            .call_readonly(treasure, "get", args!["gold"])
            .unwrap(),
        Value::from(total_moved)
    );
    // Each mine lost exactly what its player moved.
    for &player in &players {
        let remaining = client.call_readonly(player, "balance", args![]).unwrap();
        assert_eq!(remaining, Value::from(total_moved));
    }
    assert_eq!(log.finished("ok=false"), 0, "no event failed");
    runtime.shutdown();
}

#[test]
fn dominator_sequencing_matches_paper_example() {
    let runtime = AeonRuntime::builder()
        .servers(2)
        .class_graph(game_classes())
        .build()
        .unwrap();
    let (room, players, treasure) = build_room(&runtime, 2);
    // Players share the treasure, so their dominator is the room.
    for &player in &players {
        assert_eq!(
            runtime.dominator_of(player).unwrap(),
            Dominator::Context(room)
        );
    }
    // The treasure itself is a leaf: it is its own dominator.
    assert_eq!(
        runtime.dominator_of(treasure).unwrap(),
        Dominator::Context(treasure)
    );
    runtime.shutdown();
}

#[test]
fn ownership_violations_are_rejected() {
    struct Rogue {
        other: ContextId,
    }
    impl ContextObject for Rogue {
        fn class_name(&self) -> &str {
            "Player"
        }
        fn handle(
            &mut self,
            method: &str,
            _args: &Args,
            inv: &mut Invocation<'_>,
        ) -> Result<Value> {
            match method {
                "poke_other" => inv.call(self.other, "get", args!["gold"]),
                _ => Err(AeonError::UnknownMethod {
                    class: "Player".into(),
                    method: method.into(),
                }),
            }
        }
    }
    let runtime = AeonRuntime::builder().servers(1).build().unwrap();
    let other = runtime
        .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
        .unwrap();
    let rogue = runtime
        .create_context(Box::new(Rogue { other }), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    let err = client.call(rogue, "poke_other", args![]).unwrap_err();
    assert!(matches!(err, AeonError::OwnershipViolation { .. }), "{err}");
    runtime.shutdown();
}

#[test]
fn readonly_events_cannot_update_state() {
    let runtime = AeonRuntime::builder().servers(1).build().unwrap();
    let kv = runtime
        .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    let err = client.call_readonly(kv, "set", args!["k", 1]).unwrap_err();
    assert!(matches!(err, AeonError::ReadOnlyViolation { .. }), "{err}");
    runtime.shutdown();
}

#[test]
fn readonly_events_share_a_context_concurrently() {
    struct SlowReader {
        concurrent: Arc<AtomicUsize>,
        max_concurrent: Arc<AtomicUsize>,
    }
    impl ContextObject for SlowReader {
        fn class_name(&self) -> &str {
            "Reader"
        }
        fn handle(
            &mut self,
            method: &str,
            _args: &Args,
            _inv: &mut Invocation<'_>,
        ) -> Result<Value> {
            match method {
                "read" => {
                    let now = self.concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    self.max_concurrent.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(20));
                    self.concurrent.fetch_sub(1, Ordering::SeqCst);
                    Ok(Value::Null)
                }
                _ => Err(AeonError::app("unknown")),
            }
        }
        fn is_readonly(&self, method: &str) -> bool {
            method == "read"
        }
    }
    // NOTE: two read-only events still serialise on the object mutex inside
    // the context, but they hold the context lock simultaneously, which is
    // what this test observes through the activation counters.
    let log = Arc::new(Log::default());
    let runtime = AeonRuntime::builder()
        .servers(1)
        .observer(Arc::clone(&log) as Arc<dyn EventObserver>)
        .build()
        .unwrap();
    let concurrent = Arc::new(AtomicUsize::new(0));
    let max_concurrent = Arc::new(AtomicUsize::new(0));
    let reader = runtime
        .create_context(
            Box::new(SlowReader {
                concurrent: concurrent.clone(),
                max_concurrent: max_concurrent.clone(),
            }),
            Placement::Auto,
        )
        .unwrap();
    let client = runtime.client();
    let handles: Vec<_> = (0..4)
        .map(|_| {
            client
                .submit_readonly_event(reader, "read", args![])
                .unwrap()
        })
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    assert_eq!(log.finished("ReadOnly finished ok=true"), 4);
    runtime.shutdown();
}

#[test]
fn async_calls_complete_within_the_event() {
    struct Building;
    impl ContextObject for Building {
        fn class_name(&self) -> &str {
            "Room"
        }
        fn handle(
            &mut self,
            method: &str,
            _args: &Args,
            inv: &mut Invocation<'_>,
        ) -> Result<Value> {
            match method {
                "update_time" => {
                    for child in inv.children(Some("Item"))? {
                        inv.call_async(child, "incr", args!["time", 1])?;
                    }
                    Ok(Value::Null)
                }
                _ => Err(AeonError::app("unknown")),
            }
        }
    }
    let log = Arc::new(Log::default());
    let runtime = AeonRuntime::builder()
        .servers(2)
        .observer(Arc::clone(&log) as Arc<dyn EventObserver>)
        .build()
        .unwrap();
    let building = runtime
        .create_context(Box::new(Building), Placement::Auto)
        .unwrap();
    let mut rooms = Vec::new();
    for _ in 0..5 {
        rooms.push(
            runtime
                .create_owned_context(Box::new(KvContext::new("Item")), &[building])
                .unwrap(),
        );
    }
    let client = runtime.client();
    client.call(building, "update_time", args![]).unwrap();
    // The event entered the building, then each room once, by its five
    // `async` calls, before it finished.
    let heard = log.0.lock().clone();
    assert_eq!(heard.len(), 7, "{heard:?}");
    assert!(heard[0].contains(&format!("entered {building} ")));
    for (line, room) in heard[1..6].iter().zip(&rooms) {
        assert!(line.contains(&format!("entered {room} ")), "{heard:?}");
    }
    assert!(heard[6].ends_with("finished ok=true"), "{heard:?}");
    // All async updates are visible after the event completed.
    for room in rooms {
        assert_eq!(
            client.call_readonly(room, "get", args!["time"]).unwrap(),
            Value::from(1i64)
        );
    }
    runtime.shutdown();
}

#[test]
fn sub_events_run_after_their_creator() {
    struct Spawner {
        child: ContextId,
    }
    impl ContextObject for Spawner {
        fn class_name(&self) -> &str {
            "Room"
        }
        fn handle(
            &mut self,
            method: &str,
            _args: &Args,
            inv: &mut Invocation<'_>,
        ) -> Result<Value> {
            match method {
                "go" => {
                    inv.dispatch_event(self.child, "incr", args!["sub", 1])?;
                    // The sub-event has not run yet: it starts only after
                    // this event terminates, so the child still reads 0.
                    let now = inv.call(self.child, "get", args!["sub"])?;
                    Ok(now)
                }
                _ => Err(AeonError::app("unknown")),
            }
        }
    }
    let runtime = AeonRuntime::builder().servers(1).build().unwrap();
    let child = runtime
        .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
        .unwrap();
    let spawner = runtime
        .create_context(Box::new(Spawner { child }), Placement::Auto)
        .unwrap();
    runtime.add_ownership(spawner, child).unwrap();
    let client = runtime.client();
    let timed = events_timed(&runtime);
    let during = client.call(spawner, "go", args![]).unwrap();
    // The creator and its one sub-event, which ran on this thread before
    // the call returned.
    assert_eq!(events_timed(&runtime), timed + 2);
    assert_eq!(
        during,
        Value::Null,
        "sub-event effects are invisible to the creator"
    );
    // Eventually the sub-event applies.
    let mut value = Value::Null;
    for _ in 0..100 {
        value = client.call_readonly(child, "get", args!["sub"]).unwrap();
        if value == Value::from(1i64) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(value, Value::from(1i64));
    runtime.shutdown();
}

/// A sub-event is admitted like a client's event: one whose target is no
/// longer hosted — its server crashed — is refused at admission, so it
/// neither runs nor reaches the history, and its creator still succeeds.
#[test]
fn a_sub_event_to_a_context_no_longer_hosted_is_refused_unrecorded() {
    #[derive(Default)]
    struct Invoked(parking_lot::Mutex<Vec<EventId>>);
    impl aeon_types::HistorySink for Invoked {
        fn invoked(&self, event: EventId) {
            self.0.lock().push(event);
        }
        fn responded(&self, _: EventId) {}
        fn accessed(&self, _: EventId, _: ContextId, _: AccessMode) {}
    }
    struct Spawner {
        child: ContextId,
    }
    impl ContextObject for Spawner {
        fn class_name(&self) -> &str {
            "Room"
        }
        fn handle(&mut self, method: &str, _: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
            match method {
                "go" => inv.dispatch_event(self.child, "incr", args!["sub", 1])?,
                _ => return Err(AeonError::app("unknown")),
            }
            Ok(Value::Null)
        }
    }
    let log = Arc::new(Log::default());
    let runtime = AeonRuntime::builder()
        .servers(2)
        .observer(Arc::clone(&log) as Arc<dyn EventObserver>)
        .build()
        .unwrap();
    let [here, there] = runtime.servers()[..] else {
        panic!("two servers");
    };
    let item = Box::new(KvContext::new("Item"));
    let child = runtime
        .create_context(item, Placement::Server(there))
        .unwrap();
    let spawner = Box::new(Spawner { child });
    let spawner = runtime
        .create_context(spawner, Placement::Server(here))
        .unwrap();
    runtime.crash_server(there).unwrap();
    let invoked = Arc::new(Invoked::default());
    runtime.install_history_sink(Arc::clone(&invoked) as aeon_types::SharedHistorySink);
    let client = runtime.client();
    assert_eq!(client.call(spawner, "go", args![]), Ok(Value::Null));
    assert_eq!(invoked.0.lock().len(), 1, "only the creator was invoked");
    assert_eq!(log.finished("finished ok=true"), 1, "only the creator ran");
    assert_eq!(log.finished("ok=false"), 0);
    runtime.shutdown();
}

/// Records what an [`EventObserver`] hears, in order.
#[derive(Debug, Default)]
struct Log(parking_lot::Mutex<Vec<String>>);

impl Log {
    /// How many events finished with a line ending in `end`.
    fn finished(&self, end: &str) -> usize {
        self.0
            .lock()
            .iter()
            .filter(|line| line.ends_with(end))
            .count()
    }
}

/// How many events the runtime timed: the latency counts of
/// `server_metrics`, summed over the servers.
fn events_timed(runtime: &AeonRuntime) -> u64 {
    runtime
        .server_metrics()
        .iter()
        .map(|m| m.latency.count)
        .sum()
}

impl EventObserver for Log {
    fn entered(&self, plane: &ControlPlane, event: EventId, context: ContextId) {
        let server = plane.placement_of(context).unwrap();
        self.0
            .lock()
            .push(format!("{event} entered {context} on {server}"));
    }

    fn finished(
        &self,
        _plane: &ControlPlane,
        event: EventId,
        target: ContextId,
        mode: AccessMode,
        ok: bool,
    ) {
        self.0
            .lock()
            .push(format!("{event} on {target} {mode:?} finished ok={ok}"));
    }
}

#[test]
fn an_observer_hears_each_entry_then_the_end_before_the_sub_events() {
    struct Spawner {
        child: ContextId,
    }
    impl ContextObject for Spawner {
        fn class_name(&self) -> &str {
            "Room"
        }
        fn handle(&mut self, method: &str, _: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
            match method {
                "go" => {
                    inv.dispatch_event(self.child, "incr", args!["sub", 1])?;
                    inv.call(self.child, "get", args!["sub"])
                }
                _ => Err(AeonError::app("unknown")),
            }
        }
    }
    let log = Arc::new(Log::default());
    let runtime = AeonRuntime::builder()
        .servers(1)
        .observer(Arc::clone(&log) as Arc<dyn EventObserver>)
        .build()
        .unwrap();
    let child = runtime
        .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
        .unwrap();
    let spawner = runtime
        .create_context(Box::new(Spawner { child }), Placement::Auto)
        .unwrap();
    runtime.add_ownership(spawner, child).unwrap();
    let client = runtime.client();
    client
        .call_with_mode(spawner, "go", args![], AccessMode::Exclusive)
        .unwrap();
    client
        .call_with_mode(spawner, "stop", args![], AccessMode::Exclusive)
        .unwrap_err();
    // Ids: the contexts 1 and 2, the client 3, the events from 4 on.
    let server = runtime.placement_of(child).unwrap();
    assert_eq!(
        *log.0.lock(),
        [
            format!("ev-4 entered {spawner} on {server}"),
            format!("ev-4 entered {child} on {server}"),
            format!("ev-4 on {spawner} Exclusive finished ok=true"),
            format!("ev-5 entered {child} on {server}"),
            format!("ev-5 on {child} Exclusive finished ok=true"),
            format!("ev-6 entered {spawner} on {server}"),
            format!("ev-6 on {spawner} Exclusive finished ok=false"),
        ]
    );
    runtime.shutdown();
}

#[test]
fn create_child_from_within_an_event() {
    struct Factory;
    impl ContextObject for Factory {
        fn class_name(&self) -> &str {
            "Room"
        }
        fn handle(
            &mut self,
            method: &str,
            _args: &Args,
            inv: &mut Invocation<'_>,
        ) -> Result<Value> {
            match method {
                "spawn_item" => {
                    let item = inv.create_child(Box::new(KvContext::new("Item")))?;
                    inv.call(item, "set", args!["kind", "sword"])?;
                    Ok(Value::from(item))
                }
                _ => Err(AeonError::app("unknown")),
            }
        }
    }
    let runtime = AeonRuntime::builder()
        .servers(2)
        .class_graph(game_classes())
        .build()
        .unwrap();
    let room = runtime
        .create_context(Box::new(Factory), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    let item = client
        .call(room, "spawn_item", args![])
        .unwrap()
        .as_context()
        .unwrap();
    // The new item is owned by the room and co-located with it.
    assert!(runtime
        .ownership_graph()
        .children(room)
        .unwrap()
        .contains(&item));
    assert_eq!(
        runtime.placement_of(item).unwrap(),
        runtime.placement_of(room).unwrap()
    );
    assert_eq!(
        client.call_readonly(item, "get", args!["kind"]).unwrap(),
        Value::from("sword")
    );
    runtime.shutdown();
}

#[test]
fn migration_preserves_state_and_placement() {
    let runtime = AeonRuntime::builder().servers(2).build().unwrap();
    runtime.register_class_factory(
        "Item",
        Arc::new(|state: &Value| {
            let mut kv = KvContext::new("Item");
            kv.restore(state);
            Box::new(kv) as Box<dyn ContextObject>
        }),
    );
    let item = runtime
        .create_context(
            Box::new(KvContext::new("Item")),
            Placement::Server(runtime.servers()[0]),
        )
        .unwrap();
    let client = runtime.client();
    client.call(item, "set", args!["gold", 77]).unwrap();
    let from = runtime.placement_of(item).unwrap();
    let to = runtime.servers().into_iter().find(|s| *s != from).unwrap();
    let moved_bytes = runtime.migrate_context(item, to).unwrap();
    assert!(moved_bytes > 0);
    assert_eq!(runtime.placement_of(item).unwrap(), to);
    // State survived the serialise/rebuild round trip.
    assert_eq!(
        client.call_readonly(item, "get", args!["gold"]).unwrap(),
        Value::from(77i64)
    );
    assert_eq!(runtime.contexts_on(to), [item]);
    assert!(runtime.contexts_on(from).is_empty());
    runtime.shutdown();
}

#[test]
fn migration_waits_for_inflight_events() {
    let runtime = AeonRuntime::builder().servers(2).build().unwrap();
    let item = runtime
        .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    // Pound the context with updates from several threads while migrating it
    // back and forth; no update may be lost.
    let updates = 200;
    let handles: Vec<_> = (0..updates)
        .map(|_| client.submit_event(item, "incr", args!["n", 1]).unwrap())
        .collect();
    let servers = runtime.servers();
    for i in 0..6 {
        runtime
            .migrate_context(item, servers[i % servers.len()])
            .unwrap();
    }
    for h in handles {
        h.wait().unwrap();
    }
    assert_eq!(
        client.call_readonly(item, "get", args!["n"]).unwrap(),
        Value::from(updates as i64)
    );
    runtime.shutdown();
}

#[test]
fn snapshot_and_restore_round_trip() {
    let runtime = AeonRuntime::builder().servers(1).build().unwrap();
    let room = runtime
        .create_context(Box::new(KvContext::new("Room")), Placement::Auto)
        .unwrap();
    let item = runtime
        .create_owned_context(Box::new(KvContext::new("Item")), &[room])
        .unwrap();
    let client = runtime.client();
    client.call(room, "set", args!["name", "castle"]).unwrap();
    client.call(item, "set", args!["gold", 42]).unwrap();
    let snapshot = runtime.snapshot_context(room).unwrap();
    assert_eq!(snapshot.len(), 2);
    // Wreck the state, then restore.
    client.call(room, "set", args!["name", "ruins"]).unwrap();
    client.call(item, "set", args!["gold", 0]).unwrap();
    runtime.restore_snapshot(&snapshot).unwrap();
    assert_eq!(
        client.call_readonly(room, "get", args!["name"]).unwrap(),
        Value::from("castle")
    );
    assert_eq!(
        client.call_readonly(item, "get", args!["gold"]).unwrap(),
        Value::from(42i64)
    );
    runtime.shutdown();
}

#[test]
fn class_constraints_are_enforced_at_creation() {
    let runtime = AeonRuntime::builder()
        .servers(1)
        .class_graph(game_classes())
        .build()
        .unwrap();
    let item = runtime
        .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
        .unwrap();
    // An Item may not own a Player.
    let err = runtime
        .create_owned_context(Box::new(KvContext::new("Player")), &[item])
        .unwrap_err();
    assert!(matches!(err, AeonError::OwnershipViolation { .. }));
    // Undeclared classes are rejected up front.
    let err = runtime
        .create_context(Box::new(KvContext::new("Dragon")), Placement::Auto)
        .unwrap_err();
    assert!(matches!(err, AeonError::Config(_)));
    runtime.shutdown();
}

#[test]
fn server_management_and_placement() {
    let runtime = AeonRuntime::builder().servers(3).build().unwrap();
    assert_eq!(runtime.servers().len(), 3);
    let new_server = runtime.add_server().unwrap();
    assert_eq!(runtime.servers().len(), 4);
    // Auto placement balances across servers.
    let mut created = Vec::new();
    for _ in 0..8 {
        created.push(
            runtime
                .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
                .unwrap(),
        );
    }
    for server in runtime.servers() {
        assert_eq!(runtime.contexts_on(server).len(), 2);
    }
    // A server with contexts cannot be removed...
    let victim = runtime.placement_of(created[0]).unwrap();
    assert!(runtime.remove_server(victim).is_err());
    // ...but an empty one can.
    for ctx in runtime.contexts_on(new_server) {
        runtime.migrate_context(ctx, victim).unwrap();
    }
    runtime.remove_server(new_server).unwrap();
    assert_eq!(runtime.servers().len(), 3);
    runtime.shutdown();
}

#[test]
fn shutdown_rejects_new_events() {
    let runtime = AeonRuntime::builder().servers(1).build().unwrap();
    let kv = runtime
        .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    runtime.shutdown();
    assert!(matches!(
        client.call(kv, "get", args!["k"]),
        Err(AeonError::RuntimeShutdown)
    ));
    assert!(matches!(
        client.call_readonly(kv, "get", args!["k"]),
        Err(AeonError::RuntimeShutdown)
    ));
    assert!(matches!(
        client.submit_event(kv, "get", args!["k"]),
        Err(AeonError::RuntimeShutdown)
    ));
}

/// A blocking caller executes its event on its own thread, so the pool's
/// join no longer covers it: a caller queued behind an exclusive event must
/// leave with `EventAborted` when the runtime shuts down, not hang.
#[test]
fn shutdown_aborts_a_caller_blocked_behind_an_exclusive_event() {
    let (runtime, gate, release, wedged) = runtime_with_a_wedged_caller();
    let client = runtime.client();
    let blocked = std::thread::spawn(move || client.call(gate, "noop", args![]));
    // The second caller holds the gauge from before it queues on the
    // gate's lock; whether it is already parked there or about to be, the
    // poisoned lock turns it away.
    eventually("the second caller is in flight", || {
        runtime.events_in_flight() == 2
    });
    let stopper = {
        let runtime = runtime.clone();
        std::thread::spawn(move || runtime.shutdown())
    };
    let err = blocked.join().unwrap().unwrap_err();
    assert!(
        matches!(err, AeonError::EventAborted { .. }),
        "expected EventAborted, got {err:?}"
    );
    release.send(()).unwrap();
    stopper.join().unwrap();
    assert_eq!(wedged.join().unwrap().unwrap(), Value::from("unwedged"));
}

/// An event waiting for its first lock holds no pool thread: with the only
/// worker free and the gate wedged by a blocking caller, an event submitted
/// on the gate leaves a grant in the gate's queue, and an unrelated event
/// completes at once.  The queued event still counts as in flight, and it
/// runs once the gate is free.
#[test]
fn a_queued_event_holds_no_pool_worker() {
    let (runtime, gate, release, wedged) = runtime_with_a_wedged_caller();
    let other = runtime
        .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    let queued = client.submit_event(gate, "noop", args![]).unwrap();
    eventually("the worker took the gate's event up", || {
        runtime.executor_stats().queued == 0 && runtime.events_in_flight() == 2
    });
    let unrelated = client.submit_event(other, "incr", args!["n", 1]).unwrap();
    assert_eq!(
        unrelated.wait_timeout(Duration::from_secs(1)),
        Ok(Value::from(1i64)),
        "the unrelated event waited behind the queued one"
    );
    assert!(!wedged.is_finished(), "the gate is still wedged");
    assert_eq!(runtime.events_in_flight(), 2);
    release.send(()).unwrap();
    assert_eq!(wedged.join().unwrap().unwrap(), Value::from("unwedged"));
    assert_eq!(queued.wait().unwrap(), Value::Null);
    eventually("the gauge returns to zero", || {
        runtime.events_in_flight() == 0
    });
    runtime.shutdown();
}

/// Calls the context its argument names: `noop` there.
struct Caller;

impl ContextObject for Caller {
    fn class_name(&self) -> &str {
        "Caller"
    }

    fn handle(&mut self, _method: &str, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        inv.call(args.get_context(0)?, "noop", args![])
    }
}

/// A nested activation on the only worker waits for a context whose next
/// holder is an event resumed on the pool, queued behind that worker: the
/// wait is announced, so the pool starts a thread that runs the resumed
/// event, and both complete.
#[test]
fn a_nested_wait_behind_a_resumed_event_stays_live() {
    let (runtime, gate, release, wedged) = runtime_with_a_wedged_caller();
    let caller = runtime
        .create_context(Box::new(Caller), Placement::Auto)
        .unwrap();
    runtime.add_ownership(caller, gate).unwrap();
    let client = runtime.client();
    let resumed = client.submit_event(gate, "noop", args![]).unwrap();
    eventually("the gate's event waits for a grant", || {
        runtime.executor_stats().queued == 0 && runtime.events_in_flight() == 2
    });
    let nested = client.submit_event(caller, "touch", args![gate]).unwrap();
    eventually("the caller's event waits for the gate", || {
        runtime.events_in_flight() == 3
    });
    release.send(()).unwrap();
    assert_eq!(wedged.join().unwrap().unwrap(), Value::from("unwedged"));
    for handle in [resumed, nested] {
        assert_eq!(handle.wait_timeout(Duration::from_secs(5)), Ok(Value::Null));
    }
    runtime.shutdown();
}

/// `shutdown()` returning means nothing executes any more — also for an
/// event that runs on a caller's thread: it waits for a caller inside a
/// slow method to finish it.
#[test]
fn shutdown_waits_for_a_caller_inside_a_method() {
    let (runtime, _gate, release, wedged) = runtime_with_a_wedged_caller();
    let stopper = {
        let runtime = runtime.clone();
        std::thread::spawn(move || {
            runtime.shutdown();
            runtime.events_in_flight()
        })
    };
    // New events are refused from the moment the flag is up, while the
    // method that was already running is waited for.
    let client = runtime.client();
    eventually("shutdown has begun", || {
        matches!(
            client.call(ContextId::new(4242), "noop", args![]),
            Err(AeonError::RuntimeShutdown)
        )
    });
    assert_eq!(runtime.events_in_flight(), 1);
    assert!(
        !stopper.is_finished(),
        "shutdown returned while a caller was still inside a method"
    );
    release.send(()).unwrap();
    assert_eq!(
        stopper.join().unwrap(),
        0,
        "an event was in flight when shutdown returned"
    );
    assert_eq!(wedged.join().unwrap().unwrap(), Value::from("unwedged"));
}

#[test]
fn unknown_target_and_method_errors() {
    let runtime = AeonRuntime::builder().servers(1).build().unwrap();
    let client = runtime.client();
    assert!(matches!(
        client.call(ContextId::new(4242), "get", args![]),
        Err(AeonError::ContextNotFound(_))
    ));
    let kv = runtime
        .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
        .unwrap();
    assert!(matches!(
        client.call(kv, "no_such_method", args![]),
        Err(AeonError::UnknownMethod { .. })
    ));
    runtime.shutdown();
}

#[test]
fn latency_statistics_are_recorded() {
    let runtime = AeonRuntime::builder().servers(1).build().unwrap();
    let kv = runtime
        .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    for _ in 0..10 {
        client.call(kv, "incr", args!["n", 1]).unwrap();
    }
    let [metrics] = &runtime.server_metrics()[..] else {
        panic!("one server");
    };
    assert_eq!(metrics.latency.count, 10);
    assert!(metrics.latency.total_micros > 0);
    assert!(metrics.avg_latency_ms > 0.0);
    runtime.shutdown();
}

/// Regression: a panicking contextclass method must resolve the client
/// handle with [`AeonError::Panicked`] (not a disconnect), release the
/// context's activation lock, and leave the worker pool alive.
#[test]
fn panicking_method_fails_the_event_without_killing_the_pool() {
    struct Bomb;
    impl ContextObject for Bomb {
        fn class_name(&self) -> &str {
            "Bomb"
        }
        fn handle(
            &mut self,
            method: &str,
            _args: &Args,
            _inv: &mut Invocation<'_>,
        ) -> Result<Value> {
            match method {
                "explode" => panic!("kaboom"),
                _ => Ok(Value::from(7i64)),
            }
        }
    }
    let log = Arc::new(Log::default());
    let runtime = AeonRuntime::builder()
        .worker_threads(1)
        .observer(Arc::clone(&log) as Arc<dyn EventObserver>)
        .build()
        .unwrap();
    let bomb = runtime
        .create_context(Box::new(Bomb), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    let err = client.call(bomb, "explode", args![]).unwrap_err();
    assert!(
        matches!(err, AeonError::Panicked { ref reason } if reason.contains("kaboom")),
        "expected Panicked, got {err:?}"
    );
    // The single pool worker survived and the lock was released.
    assert_eq!(
        client.call(bomb, "poke", args![]).unwrap(),
        Value::from(7i64)
    );
    assert_eq!(runtime.events_in_flight(), 0);
    assert_eq!(log.finished("ok=false"), 1);
    assert_eq!(runtime.executor_stats().panics, 0);
    runtime.shutdown();
}

/// The builder rejects a zero-sized worker pool up front.
#[test]
fn zero_worker_pool_is_rejected() {
    assert!(matches!(
        AeonRuntime::builder().worker_threads(0).build(),
        Err(AeonError::Config(_))
    ));
}

/// The debug-build call-summary sanitizer: invoke edges covered by the
/// declared `calls [...]` summary record nothing, uncovered edges are
/// flagged (and deduplicated), and methods without a summary stay
/// unchecked.
#[test]
fn call_summary_sanitizer_flags_undeclared_edges() {
    use aeon_ownership::MethodRef;

    struct Caller {
        child: Option<ContextId>,
    }
    impl ContextObject for Caller {
        fn class_name(&self) -> &str {
            "Caller"
        }
        fn handle(&mut self, method: &str, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
            match method {
                "adopt" => {
                    self.child = Some(args.get_context(0)?);
                    Ok(Value::Null)
                }
                // Summary declares Child::incr only; "good" stays inside it,
                // "bad" also calls Child::set (sync) and Child::keys (async).
                "good" | "bad" => {
                    let child = self.child.ok_or_else(|| AeonError::app("no child"))?;
                    inv.call(child, "incr", args!["n", 1])?;
                    if method == "bad" {
                        inv.call(child, "set", args!["mark", 1])?;
                        inv.call_async(child, "keys", args![])?;
                    }
                    Ok(Value::Null)
                }
                // No summary declared for "wild": unchecked.
                "wild" => {
                    let child = self.child.ok_or_else(|| AeonError::app("no child"))?;
                    inv.call(child, "set", args!["wild", 1])
                }
                _ => Err(AeonError::UnknownMethod {
                    class: "Caller".into(),
                    method: method.into(),
                }),
            }
        }
    }

    let mut classes = ClassGraph::new();
    classes.add_constraint("Caller", "Child");
    classes.declare_method("Caller", "adopt", false);
    classes.declare_calls("Caller", "good", [MethodRef::new("Child", "incr")]);
    classes.declare_calls("Caller", "bad", [MethodRef::new("Child", "incr")]);
    classes.declare_method("Caller", "wild", false);

    let runtime = AeonRuntime::builder().class_graph(classes).build().unwrap();
    let caller = runtime
        .create_context(Box::new(Caller { child: None }), Placement::Auto)
        .unwrap();
    let child = runtime
        .create_owned_context(Box::new(KvContext::new("Child")), &[caller])
        .unwrap();
    let client = runtime.client();
    client.call(caller, "adopt", args![child]).unwrap();

    client.call(caller, "good", args![]).unwrap();
    client.call(caller, "wild", args![]).unwrap();
    assert!(
        runtime.call_summary_violations().is_empty(),
        "covered and unchecked calls must not be flagged: {:?}",
        runtime.call_summary_violations()
    );

    client.call(caller, "bad", args![]).unwrap();
    client.call(caller, "bad", args![]).unwrap(); // dedup
    let violations = runtime.call_summary_violations();
    if cfg!(debug_assertions) {
        assert_eq!(violations.len(), 2, "got {violations:?}");
        assert!(violations
            .iter()
            .any(|v| v.contains("Caller::bad") && v.contains("Child::set")));
        assert!(violations
            .iter()
            .any(|v| v.contains("Caller::bad") && v.contains("Child::keys")));
    } else {
        assert!(violations.is_empty(), "release builds record nothing");
    }
    runtime.shutdown();
}

/// A class graph that certifies `Counter::get` for the read-only fast path
/// (`ro` with an empty `calls []` summary) while leaving `keys` readonly
/// but summary-less (uncertified).
fn counter_classes() -> ClassGraph {
    let mut classes = ClassGraph::new();
    classes.declare_method("Counter", "get", true);
    classes.declare_calls("Counter", "get", []);
    classes.declare_method("Counter", "keys", true);
    classes.declare_method("Counter", "incr", false);
    classes
}

#[test]
fn certified_readonly_events_take_the_fast_path() {
    let runtime = AeonRuntime::builder()
        .class_graph(counter_classes())
        .build()
        .unwrap();
    let counter = runtime
        .create_context(Box::new(KvContext::new("Counter")), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    client.call(counter, "incr", args!["hits", 5]).unwrap();

    // Certified: `get` is `ro` with an empty summary.
    assert_eq!(
        client.call_readonly(counter, "get", args!["hits"]).unwrap(),
        Value::from(5i64)
    );
    assert_eq!(runtime.executor_stats().fast_path, 1);

    // Uncertified: `keys` is `ro` but has no summary, so it stays on the
    // fully sequenced slow path.
    client.call_readonly(counter, "keys", args![]).unwrap();
    assert_eq!(runtime.executor_stats().fast_path, 1);

    // A burst of certified reads all completes on the fast path.
    let handles: Vec<_> = (0..32)
        .map(|_| {
            client
                .submit_readonly_event(counter, "get", args!["hits"])
                .unwrap()
        })
        .collect();
    for handle in handles {
        assert_eq!(handle.wait().unwrap(), Value::from(5i64));
    }
    assert_eq!(runtime.executor_stats().fast_path, 33);
    runtime.shutdown();
}

#[test]
fn without_a_class_graph_no_read_is_certified() {
    let runtime = AeonRuntime::builder().build().unwrap();
    let counter = runtime
        .create_context(Box::new(KvContext::new("Counter")), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    client.call(counter, "incr", args!["hits", 1]).unwrap();
    assert_eq!(
        client.call_readonly(counter, "get", args!["hits"]).unwrap(),
        Value::from(1i64)
    );
    assert_eq!(runtime.executor_stats().fast_path, 0);
    runtime.shutdown();
}

#[test]
fn fast_path_reads_observe_completed_writes() {
    // Real-time ordering: once an exclusive event's handle has resolved, a
    // subsequently submitted certified read must observe its effect.
    let runtime = AeonRuntime::builder()
        .class_graph(counter_classes())
        .build()
        .unwrap();
    let counter = runtime
        .create_context(Box::new(KvContext::new("Counter")), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    for i in 1..=50i64 {
        client.call(counter, "incr", args!["n", 1]).unwrap();
        assert_eq!(
            client.call_readonly(counter, "get", args!["n"]).unwrap(),
            Value::from(i)
        );
    }
    assert_eq!(runtime.executor_stats().fast_path, 50);
    runtime.shutdown();
}

#[test]
fn fast_path_rejects_calls_from_lying_summaries() {
    // `Liar::peek` is certified on an empty `calls []` summary but actually
    // performs a call: the fast path must fail the event rather than make
    // an unsequenced lock acquisition.
    struct Liar {
        item: Option<ContextId>,
    }
    impl ContextObject for Liar {
        fn class_name(&self) -> &str {
            "Liar"
        }
        fn handle(&mut self, method: &str, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
            match method {
                "adopt" => {
                    self.item = Some(args.get_context(0)?);
                    Ok(Value::Null)
                }
                "peek" => {
                    let item = self.item.ok_or_else(|| AeonError::app("no item"))?;
                    inv.call(item, "get", args!["gold"])
                }
                _ => Err(AeonError::UnknownMethod {
                    class: "Liar".into(),
                    method: method.into(),
                }),
            }
        }
        fn is_readonly(&self, method: &str) -> bool {
            method == "peek"
        }
    }

    let mut classes = ClassGraph::new();
    classes.add_constraint("Liar", "Item");
    classes.declare_method("Liar", "adopt", false);
    classes.declare_method("Liar", "peek", true);
    classes.declare_calls("Liar", "peek", []);
    let runtime = AeonRuntime::builder().class_graph(classes).build().unwrap();
    let liar = runtime
        .create_context(Box::new(Liar { item: None }), Placement::Auto)
        .unwrap();
    let item = runtime
        .create_owned_context(
            Box::new(KvContext::with_entries(
                "Item",
                [("gold", Value::from(1i64))],
            )),
            &[liar],
        )
        .unwrap();
    let client = runtime.client();
    client.call(liar, "adopt", args![item]).unwrap();
    let err = client.call_readonly(liar, "peek", args![]).unwrap_err();
    assert!(
        err.to_string().contains("calls []"),
        "expected a summary-lie error, got: {err}"
    );
    // The runtime stays healthy afterwards.
    assert_eq!(
        client.call_readonly(item, "get", args!["gold"]).unwrap(),
        Value::from(1i64)
    );
    runtime.shutdown();
}

#[test]
fn server_metrics_attribute_queue_depth_to_the_hosting_server() {
    // Regression test: queue depth used to be the pool-wide count split
    // evenly across servers, which made a hotspot on one server look like
    // uniform fleet load.  Pin a context per server, wedge the single
    // worker on one of them, pile events onto it, and check the backlog
    // lands on the hosting server only.
    let runtime = AeonRuntime::builder()
        .servers(2)
        .worker_threads(1)
        .build()
        .unwrap();
    let servers = runtime.servers();
    let (started_tx, started_rx) = mpsc::channel();
    let (release_tx, release_rx) = mpsc::channel();
    let busy = runtime
        .create_context(
            Box::new(Gate {
                started: started_tx,
                release: std::sync::Mutex::new(release_rx),
            }),
            Placement::Server(servers[0]),
        )
        .unwrap();
    let _idle = runtime
        .create_context(
            Box::new(KvContext::new("Item")),
            Placement::Server(servers[1]),
        )
        .unwrap();

    let client = runtime.client();
    let wedged = client.submit_event(busy, "wedge", args![]).unwrap();
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("the wedge event reaches the worker");
    // The only worker is now blocked inside `busy`; these stay queued.
    let backlog: Vec<_> = (0..3)
        .map(|_| client.submit_event(busy, "noop", args![]).unwrap())
        .collect();

    let metrics = runtime.server_metrics();
    let depth_of = |s| {
        metrics
            .iter()
            .find(|m| m.server == s)
            .expect("metrics for every server")
            .queue_depth
    };
    assert_eq!(
        depth_of(servers[0]),
        3,
        "backlog sits behind the wedged server"
    );
    assert_eq!(
        depth_of(servers[1]),
        0,
        "the idle server reports no backlog"
    );

    release_tx.send(()).unwrap();
    wedged.wait().unwrap();
    for h in backlog {
        h.wait().unwrap();
    }
    runtime.shutdown();
}
