//! Integration tests of the distributed deployment: event routing across
//! servers, remote method calls, migration under load and fault injection.
//! (Strict serializability of concurrent executions is checked across
//! backends in `tests/backend_parity.rs` and `tests/chaos_serializability.rs`
//! at the workspace root.)

use aeon_api::Session;
use aeon_cluster::Cluster;
use aeon_runtime::{ContextObject, Invocation, KvContext, Placement};
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
    // By then the source has shipped the state and dropped the object, so
    // the context is lost rather than still usable: a migration that can
    // be undone is ROADMAP item 2's, not pretended here.
    cluster.shutdown();
}

#[test]
fn a_request_for_a_context_on_its_way_back_is_buffered_not_bounced() {
    // Regression test: a context that went s0 -> s1 left a forwarding
    // pointer on s0; on its way back (s1 already forwarding to s0, s0 not
    // yet installed) a request was bounced between the two along the stale
    // pointer until the install landed — a storm of messages with a
    // receive loop per node, a stack overflow with nested delivery.
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
    assert!(sent <= 2, "{sent} messages for one buffered request");

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
    let new_server = cluster.add_server();
    let fresh = cluster
        .create_context(Box::new(KvContext::new("Room")), Placement::Auto)
        .unwrap();
    assert_eq!(cluster.placement_of(fresh).unwrap(), new_server);
    assert_eq!(cluster.servers().len(), 2);
    cluster.shutdown();
}
