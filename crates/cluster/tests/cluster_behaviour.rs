//! Integration tests of the distributed deployment: event routing across
//! servers, remote method calls, migration under load and fault injection.
//! (Strict serializability of concurrent executions is checked across
//! backends in `tests/backend_parity.rs` and `tests/chaos_serializability.rs`
//! at the workspace root.)

use aeon_api::{Deployment, EventHandle, Session};
use aeon_cluster::{Cluster, ClusterTransport};
use aeon_ownership::ClassGraph;
use aeon_runtime::{context_class, ContextObject, Invocation, KvContext, Placement};
use aeon_types::{args, AeonError, Args, ContextId, Result, Value};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A parent context that aggregates over its children — used to force
/// cross-server synchronous calls.
#[derive(Debug, Default)]
struct Aggregator;

impl ContextObject for Aggregator {
    fn class_name(&self) -> &str {
        "Aggregator"
    }

    fn handle(&mut self, method: &str, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match method {
            // Sums the "count" key of every child, via synchronous calls.
            "sum" => {
                let mut total = 0i64;
                for child in inv.children(None)? {
                    total += inv
                        .call(child, "get", args!["count"])?
                        .as_i64()
                        .unwrap_or(0);
                }
                Ok(Value::from(total))
            }
            // Increments the "count" key of every child, asynchronously.
            "bump_all" => {
                for child in inv.children(None)? {
                    inv.call_async(child, "incr", args!["count", 1i64])?;
                }
                Ok(Value::Null)
            }
            // Increments one child synchronously and dispatches a follow-up
            // event targeting another child.
            "bump_and_followup" => {
                let first = args.get_context(0)?;
                let second = args.get_context(1)?;
                inv.call(first, "incr", args!["count", 1i64])?;
                inv.dispatch_event(second, "incr", args!["count", 10i64])?;
                Ok(Value::Null)
            }
            // Calls `bump_all` on the aggregator given as argument.
            "relay_bump_all" => inv.call(args.get_context(0)?, "bump_all", args![]),
            _ => Err(AeonError::UnknownMethod {
                class: "Aggregator".into(),
                method: method.into(),
            }),
        }
    }

    fn is_readonly(&self, method: &str) -> bool {
        method == "sum"
    }
}

fn kv_factory() -> aeon_runtime::ContextFactory {
    Arc::new(|state: &Value| {
        let mut kv = KvContext::new("Item");
        kv.restore(state);
        Box::new(kv) as Box<dyn ContextObject>
    })
}

#[test]
fn events_execute_on_the_hosting_server() {
    let cluster = Cluster::builder().servers(3).build().unwrap();
    let servers = cluster.servers();
    let mut rooms = Vec::new();
    for server in &servers {
        rooms.push(
            cluster
                .create_context(Box::new(KvContext::new("Room")), Placement::Server(*server))
                .unwrap(),
        );
    }
    let client = cluster.client();
    for (i, room) in rooms.iter().enumerate() {
        client
            .call(*room, "set", args!["name", format!("room-{i}")])
            .unwrap();
    }
    for (i, room) in rooms.iter().enumerate() {
        assert_eq!(
            client.call_readonly(*room, "get", args!["name"]).unwrap(),
            Value::from(format!("room-{i}"))
        );
    }
    // Every server executed at least one event (its own room's writes).
    let executed = cluster.events_executed();
    for server in &servers {
        assert!(executed[server] > 0, "server {server} executed no events");
    }
    cluster.shutdown();
}

#[test]
fn synchronous_calls_cross_servers() {
    let cluster = Cluster::builder().servers(2).build().unwrap();
    let servers = cluster.servers();
    // Parent on server 0; children explicitly on server 1 so the calls are
    // remote.
    let parent = cluster
        .create_context(Box::new(Aggregator), Placement::Server(servers[0]))
        .unwrap();
    let mut children = Vec::new();
    for _ in 0..3 {
        let child = cluster
            .create_context(
                Box::new(KvContext::new("Item")),
                Placement::Server(servers[1]),
            )
            .unwrap();
        cluster.add_ownership(parent, child).unwrap();
        children.push(child);
    }
    let client = cluster.client();
    for child in &children {
        client.call(*child, "set", args!["count", 5i64]).unwrap();
    }
    let before = cluster.network_stats().remote_messages();
    assert_eq!(
        client.call_readonly(parent, "sum", args![]).unwrap(),
        Value::from(15i64)
    );
    let after = cluster.network_stats().remote_messages();
    assert!(after > before, "aggregation crossed servers");
    cluster.shutdown();
}

/// Regression test: a remote call to a crashed server waited out the node's
/// 30 s call timeout, although the transport refuses the send at once.
#[test]
fn a_remote_call_to_a_crashed_server_fails_at_once() {
    let cluster = Cluster::builder().servers(2).build().unwrap();
    let servers = cluster.servers();
    let parent = cluster
        .create_context(Box::new(Aggregator), Placement::Server(servers[0]))
        .unwrap();
    let child = cluster
        .create_context(
            Box::new(KvContext::new("Item")),
            Placement::Server(servers[1]),
        )
        .unwrap();
    cluster.add_ownership(parent, child).unwrap();
    cluster.crash_server(servers[1]).unwrap();
    let started = Instant::now();
    let result = cluster.client().call_readonly(parent, "sum", args![]);
    assert_eq!(result, Err(AeonError::ServerNotFound(servers[1])));
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "the call failed only after {:?}",
        started.elapsed()
    );
    cluster.shutdown();
}

#[test]
fn async_calls_and_sub_events_work_across_servers() {
    let cluster = Cluster::builder().servers(2).build().unwrap();
    let servers = cluster.servers();
    let parent = cluster
        .create_context(Box::new(Aggregator), Placement::Server(servers[0]))
        .unwrap();
    let a = cluster
        .create_context(
            Box::new(KvContext::new("Item")),
            Placement::Server(servers[1]),
        )
        .unwrap();
    let b = cluster
        .create_context(
            Box::new(KvContext::new("Item")),
            Placement::Server(servers[0]),
        )
        .unwrap();
    cluster.add_ownership(parent, a).unwrap();
    cluster.add_ownership(parent, b).unwrap();
    let client = cluster.client();

    // Async fan-out: both children incremented within one event.
    client.call(parent, "bump_all", args![]).unwrap();
    assert_eq!(
        client.call_readonly(parent, "sum", args![]).unwrap(),
        Value::from(2i64)
    );

    // Sub-event: the follow-up executes after the creator event terminates.
    client
        .call(parent, "bump_and_followup", args![a, b])
        .unwrap();
    // Wait for the dispatched sub-event to land (it is asynchronous).
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let total = client
            .call_readonly(parent, "sum", args![])
            .unwrap()
            .as_i64()
            .unwrap();
        if total == 13 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "sub-event never executed, total={total}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    cluster.shutdown();
}

#[test]
fn async_calls_scheduled_while_serving_a_remote_call_run() {
    // The inner aggregator lives on another server than the event's target,
    // so its `bump_all` is served as a remote call; the async calls it
    // schedules must still complete within the event.
    let cluster = Cluster::builder().servers(2).build().unwrap();
    let servers = cluster.servers();
    let outer = cluster
        .create_context(Box::new(Aggregator), Placement::Server(servers[0]))
        .unwrap();
    let inner = cluster
        .create_context(Box::new(Aggregator), Placement::Server(servers[1]))
        .unwrap();
    let item = cluster
        .create_context(
            Box::new(KvContext::new("Item")),
            Placement::Server(servers[1]),
        )
        .unwrap();
    cluster.add_ownership(outer, inner).unwrap();
    cluster.add_ownership(inner, item).unwrap();
    let client = cluster.client();
    client.call(outer, "relay_bump_all", args![inner]).unwrap();
    assert_eq!(
        client.call_readonly(item, "get", args!["count"]).unwrap(),
        Value::from(1i64)
    );
    cluster.shutdown();
}

#[test]
fn read_only_events_reject_updates() {
    let cluster = Cluster::builder().servers(1).build().unwrap();
    let item = cluster
        .create_context(Box::new(KvContext::new("Item")), Placement::Auto)
        .unwrap();
    let client = cluster.client();
    let err = client
        .call_readonly(item, "set", args!["k", 1i64])
        .unwrap_err();
    assert!(matches!(err, AeonError::ReadOnlyViolation { .. }));
    cluster.shutdown();
}

#[test]
fn unknown_targets_and_offline_servers_are_reported() {
    let cluster = Cluster::builder().servers(1).build().unwrap();
    let client = cluster.client();
    assert!(matches!(
        client.call(ContextId::new(999), "get", args!["k"]),
        Err(AeonError::ContextNotFound(_))
    ));
    assert!(matches!(
        cluster.create_context(
            Box::new(KvContext::new("Item")),
            Placement::Server(aeon_types::ServerId::new(77))
        ),
        Err(AeonError::ServerNotFound(_))
    ));
    cluster.shutdown();
}

#[test]
fn migration_under_concurrent_load_loses_no_updates() {
    let cluster = Cluster::builder().servers(3).build().unwrap();
    cluster.register_class_factory("Item", kv_factory());
    let servers = cluster.servers();
    let counter = cluster
        .create_context(
            Box::new(KvContext::new("Item")),
            Placement::Server(servers[0]),
        )
        .unwrap();
    let cluster = Arc::new(cluster);

    let writers = 4;
    let increments = 40;
    let mut handles = Vec::new();
    for _ in 0..writers {
        let cluster = Arc::clone(&cluster);
        handles.push(std::thread::spawn(move || {
            let client = cluster.client();
            for _ in 0..increments {
                client.call(counter, "incr", args!["count", 1i64]).unwrap();
            }
        }));
    }
    // Bounce the context between servers while the writers hammer it.
    let migrator = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || {
            let mut moved_bytes = 0u64;
            for round in 0..6 {
                let to = servers[(round + 1) % servers.len()];
                moved_bytes += cluster.migrate_context(counter, to).unwrap();
                std::thread::sleep(Duration::from_millis(20));
            }
            moved_bytes
        })
    };
    for h in handles {
        h.join().unwrap();
    }
    let moved = migrator.join().unwrap();
    assert!(moved > 0, "migrations shipped serialized state");

    let client = cluster.client();
    let total = client
        .call_readonly(counter, "get", args!["count"])
        .unwrap();
    assert_eq!(total, Value::from((writers * increments) as i64));
    cluster.shutdown();
}

#[test]
fn migration_without_factory_is_refused_up_front() {
    let cluster = Cluster::builder().servers(2).build().unwrap();
    let servers = cluster.servers();
    let item = cluster
        .create_context(
            Box::new(KvContext::new("Item")),
            Placement::Server(servers[0]),
        )
        .unwrap();
    let err = cluster.migrate_context(item, servers[1]).unwrap_err();
    assert!(matches!(err, AeonError::MigrationFailed { .. }));
    // The context is untouched and still usable.
    let client = cluster.client();
    client.call(item, "set", args!["k", 1i64]).unwrap();
    cluster.shutdown();
}

#[test]
fn a_panicking_class_factory_fails_the_migration_at_once() {
    // Regression test: the panic was swallowed by the destination's pool, no
    // `InstallAck` was ever sent, and `migrate_context` sat out the 10 s
    // control timeout to report a failure about "context 0".
    let cluster = Cluster::builder().servers(2).build().unwrap();
    cluster.register_class_factory("Item", Arc::new(|_: &Value| panic!("factory exploded")));
    let servers = cluster.servers();
    let item = cluster
        .create_context(
            Box::new(KvContext::new("Item")),
            Placement::Server(servers[0]),
        )
        .unwrap();
    let from = Instant::now();
    let err = cluster.migrate_context(item, servers[1]).unwrap_err();
    assert!(
        from.elapsed() < Duration::from_secs(1),
        "the failure took {:?} to be reported",
        from.elapsed()
    );
    assert_eq!(
        err,
        AeonError::Panicked {
            reason: "factory exploded".into()
        }
    );
    // The source keeps the context until the destination acknowledged it,
    // so a failed move leaves it where it was, and usable.
    assert_eq!(cluster.placement_of(item), Ok(servers[0]));
    cluster
        .client()
        .call(item, "set", args!["k", 1i64])
        .unwrap();
    cluster.shutdown();
}

#[test]
fn a_request_for_a_context_on_its_way_back_waits_at_its_source_not_bounced() {
    // Regression test: a context that went s0 -> s1 left a forwarding
    // pointer on s0; on its way back (s1 already forwarding to s0, s0 not
    // yet installed) a request was bounced between the two along the stale
    // pointer until the install landed — a storm of messages with a
    // receive loop per node, a stack overflow with nested delivery.  Now
    // the request waits in the context's queue on s1, behind the migration,
    // and follows the context once s0 acknowledged the state.
    let hold = Arc::new(AtomicBool::new(false));
    let entered = Arc::new(AtomicBool::new(false));
    let cluster = Cluster::builder().servers(2).build().unwrap();
    {
        let (hold, entered) = (Arc::clone(&hold), Arc::clone(&entered));
        cluster.register_class_factory(
            "Item",
            Arc::new(move |state: &Value| {
                // Keeps the install window open for as long as the test says.
                entered.store(true, Ordering::SeqCst);
                while hold.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                kv_factory()(state)
            }),
        );
    }
    let servers = cluster.servers();
    let item = cluster
        .create_context(
            Box::new(KvContext::new("Item")),
            Placement::Server(servers[0]),
        )
        .unwrap();
    cluster.migrate_context(item, servers[1]).unwrap();

    hold.store(true, Ordering::SeqCst);
    entered.store(false, Ordering::SeqCst);
    let cluster = Arc::new(cluster);
    let back = {
        let cluster = Arc::clone(&cluster);
        std::thread::spawn(move || cluster.migrate_context(item, servers[0]))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while !entered.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "the install never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = cluster.network_stats();
    let before = stats.local_messages() + stats.remote_messages();
    let pending = cluster
        .client()
        .submit_event(item, "incr", args!["count", 1i64])
        .unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let sent = stats.local_messages() + stats.remote_messages() - before;
    assert!(sent <= 2, "{sent} messages for one queued request");

    hold.store(false, Ordering::SeqCst);
    back.join().unwrap().unwrap();
    pending.wait().unwrap();
    assert_eq!(
        cluster
            .client()
            .call_readonly(item, "get", args!["count"])
            .unwrap(),
        Value::from(1i64)
    );
    cluster.shutdown();
}

#[test]
fn crashed_server_contexts_can_be_restored_elsewhere() {
    let cluster = Cluster::builder().servers(2).build().unwrap();
    cluster.register_class_factory("Item", kv_factory());
    let servers = cluster.servers();
    let item = cluster
        .create_context(
            Box::new(KvContext::new("Item")),
            Placement::Server(servers[0]),
        )
        .unwrap();
    let client = cluster.client();
    client.call(item, "set", args!["gold", 42i64]).unwrap();
    // Take a checkpoint of the context state (what the snapshot API would
    // persist to cloud storage in §5.3).
    let checkpoint = {
        let mut kv = KvContext::new("Item");
        kv.restore(&Value::Null);
        // Rebuild the state we know the context has; in a full deployment
        // this would come from `EManager::checkpoint`.
        drop(kv);
        Value::map([
            ("class", Value::from("Item")),
            ("map", Value::map([("gold", Value::from(42i64))])),
        ])
    };

    cluster.crash_server(servers[0]).unwrap();
    // Events routed to the crashed server fail instead of hanging.
    let err = client
        .submit_event(item, "set", args!["gold", 1i64])
        .map(|h| h.wait_timeout(Duration::from_millis(500)));
    match err {
        Ok(Err(_)) | Err(_) => {}
        Ok(Ok(v)) => panic!("event unexpectedly succeeded on a crashed server: {v:?}"),
    }

    // Restore the context on the surviving server from the checkpoint.
    cluster
        .restore_context(item, &checkpoint, servers[1])
        .unwrap();
    assert_eq!(cluster.placement_of(item).unwrap(), servers[1]);
    assert_eq!(
        client.call_readonly(item, "get", args!["gold"]).unwrap(),
        Value::from(42i64)
    );
    client.call(item, "incr", args!["gold", 8i64]).unwrap();
    assert_eq!(
        client.call_readonly(item, "get", args!["gold"]).unwrap(),
        Value::from(50i64)
    );
    cluster.shutdown();
}

#[test]
fn scale_out_places_new_contexts_on_new_servers() {
    let cluster = Cluster::builder().servers(1).build().unwrap();
    for _ in 0..4 {
        cluster
            .create_context(Box::new(KvContext::new("Room")), Placement::Auto)
            .unwrap();
    }
    let new_server = cluster.add_server().unwrap();
    let fresh = cluster
        .create_context(Box::new(KvContext::new("Room")), Placement::Auto)
        .unwrap();
    assert_eq!(cluster.placement_of(fresh).unwrap(), new_server);
    assert_eq!(cluster.servers().len(), 2);
    cluster.shutdown();
}

/// A counter whose `hold` keeps its event — and with it the context's lock —
/// until the test opens `gate`, then adds one.  `bump` adds one to every
/// context it owns.
#[derive(Debug, Default, Clone)]
struct Cell {
    n: i64,
    holding: Arc<AtomicBool>,
    gate: Arc<AtomicBool>,
}

impl Cell {
    /// Another cell on the same gate.
    fn sibling(&self) -> Box<dyn ContextObject> {
        Box::new(Cell {
            n: 0,
            ..self.clone()
        })
    }

    fn hold(&mut self, _: &Args, _: &mut Invocation<'_>) -> Result<Value> {
        self.holding.store(true, Ordering::SeqCst);
        while !self.gate.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        self.n += 1;
        Ok(Value::Null)
    }

    fn add(&mut self, args: &Args, _: &mut Invocation<'_>) -> Result<Value> {
        self.n += args.get_i64(0)?;
        Ok(Value::from(self.n))
    }

    fn read(&mut self, _: &Args, _: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(self.n))
    }

    fn bump(&mut self, _: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        for child in inv.children(None)? {
            inv.call(child, "add", args![1i64])?;
        }
        Ok(Value::Null)
    }

    fn state(&self) -> Value {
        Value::from(self.n)
    }

    fn set_state(&mut self, state: &Value) {
        self.n = state.as_i64().unwrap_or_default();
    }
}

context_class! {
    Cell: "Cell" {
        ro method "read" calls [] => Cell::read,
        method "hold" calls [] => Cell::hold,
        method "add" calls [] => Cell::add,
        method "bump" calls [] => Cell::bump,
    }
    snapshot = Cell::state;
    restore = Cell::set_state;
}

/// A cluster of two servers hosting `Cell`s whose holds all wait for one
/// gate, over `transport`; `certified` installs the class graph that admits
/// `Cell::read` to the certified read path.
fn cell_cluster(transport: ClusterTransport, certified: bool) -> (Cluster, Cell) {
    let mut builder = Cluster::builder()
        .servers(2)
        .worker_threads(2)
        .transport(transport);
    if certified {
        let mut classes = ClassGraph::new();
        <Cell as aeon_runtime::ContextClass>::table().declare_in(&mut classes);
        builder = builder.class_graph(classes);
    }
    let cluster = builder.build().unwrap();
    let cell = Cell::default();
    let gate = cell.clone();
    cluster.register_class_factory(
        "Cell",
        Arc::new(move |state: &Value| {
            let mut cell = gate.sibling();
            cell.restore(state);
            cell
        }),
    );
    (cluster, cell)
}

/// Holds `context` with a slow event, migrates it to the other server while
/// the hold lasts, lets `waiter` queue behind the migration, then releases
/// the hold: the waiter must complete, after the move, without an error.
/// Returns what the waiter returned.  The migration and the waiter each get
/// a settle of their own to queue (no public hook shows a lock's queue); a
/// waiter that overtook the migration anyway would still pass, never fail.
fn waiter_behind_a_migration(
    cluster: &Cluster,
    gate: &Cell,
    context: ContextId,
    waiter: impl FnOnce() -> Result<EventHandle>,
) -> Value {
    let settle = Duration::from_millis(100);
    let client = cluster.client();
    let from = cluster.placement_of(context).unwrap();
    let to = *cluster.servers().iter().find(|s| **s != from).unwrap();
    let hold = client.submit_event(context, "hold", args![]).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !gate.holding.load(Ordering::SeqCst) {
        assert!(Instant::now() < deadline, "the hold never started");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::scope(|scope| {
        let migration = scope.spawn(|| cluster.migrate_context(context, to));
        std::thread::sleep(settle);
        let waiter = waiter().unwrap();
        std::thread::sleep(settle);
        gate.gate.store(true, Ordering::SeqCst);
        hold.wait().unwrap();
        assert!(migration.join().unwrap().unwrap() > 0);
        assert_eq!(cluster.placement_of(context), Ok(to));
        waiter
            .wait()
            .unwrap_or_else(|e| panic!("the waiter failed: {e}"))
    })
}

#[test]
fn a_certified_read_queued_on_a_moving_context_is_served_at_its_new_host() {
    for transport in [ClusterTransport::Channel, ClusterTransport::TcpLoopback] {
        let (cluster, gate) = cell_cluster(transport, true);
        let cell = cluster
            .create_context(gate.sibling(), Placement::Auto)
            .unwrap();
        let client = cluster.client();
        let read = waiter_behind_a_migration(&cluster, &gate, cell, || {
            client.submit_readonly_event(cell, "read", args![])
        });
        assert_eq!(read, Value::from(1i64), "the read saw the hold's write");
        assert_eq!(cluster.fast_path_events(), 1);
        cluster.shutdown();
    }
}

#[test]
fn a_nested_call_queued_on_a_moving_context_reaches_it_at_its_new_host() {
    for transport in [ClusterTransport::Channel, ClusterTransport::TcpLoopback] {
        let (cluster, gate) = cell_cluster(transport, false);
        let owner = cluster
            .create_context(gate.sibling(), Placement::Auto)
            .unwrap();
        let cell = cluster
            .create_owned_context(gate.sibling(), &[owner])
            .unwrap();
        let client = cluster.client();
        // `bump` is sequenced at the owner and calls the cell.
        waiter_behind_a_migration(&cluster, &gate, cell, || {
            client.submit_event(owner, "bump", args![])
        });
        assert_eq!(
            client.call_readonly(cell, "read", args![]).unwrap(),
            Value::from(2i64),
            "the hold and the bump both count"
        );
        cluster.shutdown();
    }
}

#[test]
fn an_act_queued_on_a_moving_sequencer_is_sequenced_at_its_new_host() {
    for transport in [ClusterTransport::Channel, ClusterTransport::TcpLoopback] {
        let (cluster, gate) = cell_cluster(transport, false);
        // `sequencer` owns `left` and `right`, which share `leaf`: an event
        // on `left` is sequenced at `sequencer`.
        let sequencer = cluster
            .create_context(gate.sibling(), Placement::Auto)
            .unwrap();
        let left = cluster
            .create_owned_context(gate.sibling(), &[sequencer])
            .unwrap();
        let right = cluster
            .create_owned_context(gate.sibling(), &[sequencer])
            .unwrap();
        let leaf = cluster
            .create_owned_context(gate.sibling(), &[left, right])
            .unwrap();
        let client = cluster.client();
        waiter_behind_a_migration(&cluster, &gate, sequencer, || {
            client.submit_event(left, "bump", args![])
        });
        assert_eq!(
            client.call_readonly(leaf, "read", args![]).unwrap(),
            Value::from(1i64)
        );
        cluster.shutdown();
    }
}

/// A node in the gateway's process is handed a new context's object, or
/// rebuilds a restored one, by a call: creating and restoring send nothing.
#[test]
fn hosting_on_a_node_in_the_gateways_process_sends_no_message() {
    for transport in [ClusterTransport::Channel, ClusterTransport::TcpLoopback] {
        let cluster = Cluster::builder()
            .servers(2)
            .transport(transport.clone())
            .build()
            .unwrap();
        cluster.register_class_factory("Item", kv_factory());
        let servers = cluster.servers();
        let before = cluster.network_stats().snapshot();
        let root = cluster
            .create_context(
                Box::new(KvContext::new("Item")),
                Placement::Server(servers[0]),
            )
            .unwrap();
        let owned = cluster
            .create_owned_context(Box::new(KvContext::new("Item")), &[root])
            .unwrap();
        let gold = Value::map([("gold", Value::from(7i64))]);
        let state = Value::map([("class", Value::from("Item")), ("map", gold)]);
        cluster.restore_context(owned, &state, servers[1]).unwrap();
        assert_eq!(cluster.network_stats().snapshot(), before, "{transport:?}");
        assert_eq!(cluster.placement_of(owned), Ok(servers[1]));
        let client = cluster.client();
        assert_eq!(
            client.call_readonly(owned, "get", args!["gold"]).unwrap(),
            Value::from(7i64),
            "{transport:?}"
        );
        cluster.shutdown();
    }
}

/// A create that races the crash of its server, or the cluster's shutdown,
/// either hosts its context — placed where it was declared — or fails and
/// leaves no trace in the ownership network.
#[test]
fn a_create_racing_a_crash_or_a_shutdown_is_placed_or_forgotten() {
    for transport in [ClusterTransport::Channel, ClusterTransport::TcpLoopback] {
        for crash in [true, false] {
            for round in 0..200 {
                let cluster = Cluster::builder()
                    .servers(1)
                    .worker_threads(1)
                    .transport(transport.clone())
                    .build()
                    .unwrap();
                let server = cluster.servers()[0];
                // Released together, then the create is held back a little
                // less each round and the stop a little more, so the rounds
                // sweep the create's whole path.
                let start = std::sync::Barrier::new(2);
                let hold_back = |rounds: usize| {
                    start.wait();
                    for _ in 0..rounds * 100 {
                        std::hint::spin_loop();
                    }
                };
                let created = std::thread::scope(|scope| {
                    let create = scope.spawn(|| {
                        hold_back(100usize.saturating_sub(round));
                        cluster.create_context(Box::new(KvContext::new("Item")), Placement::Auto)
                    });
                    hold_back(round.saturating_sub(100));
                    if crash {
                        cluster.crash_server(server).unwrap();
                    } else {
                        cluster.shutdown();
                    }
                    create.join().unwrap()
                });
                let case = format!("{transport:?}, crash: {crash}, round {round}: {created:?}");
                match created {
                    Ok(context) => assert_eq!(cluster.placement_of(context), Ok(server), "{case}"),
                    Err(_) => assert_eq!(cluster.ownership_graph().len(), 0, "{case}"),
                }
                cluster.shutdown();
            }
        }
    }
}

/// A blocking call whose sequencer a long event holds waits for its grant
/// on the caller's own thread; a crash of the node, or the cluster's
/// shutdown, answers it at once instead of leaving it parked.
#[test]
fn a_caller_waiting_for_its_grant_is_answered_when_the_cluster_stops() {
    for transport in [ClusterTransport::Channel, ClusterTransport::TcpLoopback] {
        for crash in [true, false] {
            let (cluster, gate) = cell_cluster(transport.clone(), false);
            let cell = cluster
                .create_context(gate.sibling(), Placement::Auto)
                .unwrap();
            let server = cluster.placement_of(cell).unwrap();
            let client = cluster.client();
            let hold = client.submit_event(cell, "hold", args![]).unwrap();
            let deadline = Instant::now() + Duration::from_secs(10);
            while !gate.holding.load(Ordering::SeqCst) {
                assert!(Instant::now() < deadline, "the hold never started");
                std::thread::sleep(Duration::from_millis(1));
            }
            let case = format!("{transport:?}, crash: {crash}");
            std::thread::scope(|scope| {
                let (called, answered) = std::sync::mpsc::channel();
                scope.spawn(move || called.send(client.call(cell, "add", args![1i64])));
                // No public hook shows a lock's queue: give the call a
                // moment to queue behind the hold.
                std::thread::sleep(Duration::from_millis(100));
                // Stopping joins the node's pool, which waits for the hold
                // until the gate opens below.
                let stop = scope.spawn(|| {
                    if crash {
                        cluster.crash_server(server).unwrap();
                    } else {
                        cluster.shutdown();
                    }
                });
                let result = answered.recv_timeout(Duration::from_secs(1));
                gate.gate.store(true, Ordering::SeqCst);
                stop.join().unwrap();
                match result {
                    Ok(Err(AeonError::EventAborted { .. } | AeonError::RuntimeShutdown)) => {}
                    other => panic!("{case}: the waiting call read {other:?}"),
                }
            });
            let _ = hold.wait();
            cluster.shutdown();
        }
    }
}
