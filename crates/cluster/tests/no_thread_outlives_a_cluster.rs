//! A cluster starts no thread to receive messages, and none of the threads
//! it does start — pool workers, transport threads, the threads a pool
//! starts beside a worker that announced a blocking wait — outlives it; the
//! latter do not outlive their burst either.
//!
//! Alone in its file, and one test, on purpose: the checks count the threads
//! of the process, so nothing else may run beside them.
#![cfg(target_os = "linux")]

use aeon_api::{Deployment, Session};
use aeon_cluster::{Cluster, ClusterTransport};
use aeon_runtime::{AeonRuntime, ContextObject, KvContext, Placement};
use aeon_types::{args, ContextId, Value};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// The name (`comm`, which the kernel cuts to 15 bytes) of every thread of
/// this process.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

/// `join` returns when a thread has exited; the kernel takes its `/proc`
/// entry away a moment later.
fn settle_at(threads: usize) -> usize {
    let joined = Instant::now();
    while thread_names().len() != threads && joined.elapsed() < Duration::from_millis(50) {
        std::thread::yield_now();
    }
    thread_names().len()
}

/// Threads of one idle node's pool: its workers, nothing else.
const WORKERS: usize = 2;
/// How long an idle thread of a pool parks before a surplus one retires
/// (`aeon_runtime::executor`).
const PARK_TIMEOUT: Duration = Duration::from_millis(100);

/// Threads whose name starts with `prefix`, once those just started have
/// taken their own name (a thread carries its spawner's until it first
/// runs).
fn named(prefix: &str, expected: usize) -> Vec<String> {
    let of = |names: &[String]| names.iter().filter(|n| n.starts_with(prefix)).count();
    let started = Instant::now();
    while of(&thread_names()) < expected && started.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
    thread_names()
}

/// Builds a 4-server cluster, creates 22 contexts on it, moves one, uses it
/// and drops the cluster after (`shut_down`) or without calling `shutdown`.
/// Every hosted object holds a clone of the returned token, so the token is
/// dead exactly when every node has let go of what it hosted.
fn cycle(transport: ClusterTransport, shut_down: bool) -> Weak<()> {
    let cluster = Cluster::builder()
        .servers(4)
        .worker_threads(WORKERS)
        .transport(transport)
        .build()
        .unwrap();
    let token = Arc::new(());
    let held = Arc::clone(&token);
    cluster.register_class_factory(
        "Item",
        Arc::new(move |state: &Value| {
            let mut item = Held(KvContext::new("Item"), Arc::clone(&held));
            item.restore(state);
            Box::new(item) as Box<dyn ContextObject>
        }),
    );
    let contexts: Vec<_> = (0..22)
        .map(|_| {
            let item = Held(KvContext::new("Item"), Arc::clone(&token));
            cluster
                .create_context(Box::new(item), Placement::Auto)
                .unwrap()
        })
        .collect();
    let moved = contexts[0];
    let from = cluster.placement_of(moved).unwrap();
    let to = *cluster.servers().iter().find(|s| **s != from).unwrap();
    cluster.migrate_context(moved, to).unwrap();
    let client = cluster.client();
    client.call(moved, "incr", args!["count", 1i64]).unwrap();
    assert_eq!(
        client.call_readonly(moved, "get", args!["count"]).unwrap(),
        Value::from(1i64)
    );
    if shut_down {
        cluster.shutdown();
    }
    Arc::downgrade(&token)
}

/// Two servers at `worker_threads(2)`, eight callers on each whose two
/// children live on the other server.
fn cross_calling_cluster(transport: ClusterTransport) -> (Cluster, Vec<ContextId>) {
    let cluster = Cluster::builder()
        .servers(2)
        .worker_threads(WORKERS)
        .transport(transport)
        .build()
        .unwrap();
    let servers = cluster.servers();
    let mut callers = Vec::new();
    for i in 0..16 {
        let (home, away) = (servers[i % 2], servers[(i + 1) % 2]);
        let children: Vec<ContextId> = (0..2)
            .map(|_| {
                cluster
                    .create_context(Box::new(KvContext::new("Item")), Placement::Server(away))
                    .unwrap()
            })
            .collect();
        let caller = cluster
            .create_context(Box::new(Caller(children.clone())), Placement::Server(home))
            .unwrap();
        for child in children {
            cluster.add_ownership(caller, child).unwrap();
        }
        callers.push(caller);
    }
    (cluster, callers)
}

/// 64 `poke`s spread over `callers`, all waited for.
fn burst(cluster: &Cluster, callers: &[ContextId]) {
    let client = cluster.client();
    let burst: Vec<_> = (0..64)
        .map(|i| {
            let caller = callers[i % callers.len()];
            client.submit_event(caller, "poke", args![]).unwrap()
        })
        .collect();
    for handle in burst {
        handle.wait().unwrap();
    }
}

/// `poke` increments each of its children, in order, with a synchronous
/// call: a remote call when the child lives elsewhere.
#[derive(Debug)]
struct Caller(Vec<ContextId>);

impl ContextObject for Caller {
    fn class_name(&self) -> &str {
        "Caller"
    }

    fn handle(
        &mut self,
        _method: &str,
        _args: &aeon_types::Args,
        inv: &mut aeon_runtime::Invocation<'_>,
    ) -> aeon_types::Result<Value> {
        for child in self.0.clone() {
            inv.call(child, "incr", args!["n", 1i64])?;
        }
        Ok(Value::Null)
    }
}

/// A `KvContext` that keeps a token alive for as long as it is hosted.
#[derive(Debug)]
struct Held(KvContext, #[allow(dead_code)] Arc<()>);

impl ContextObject for Held {
    fn class_name(&self) -> &str {
        self.0.class_name()
    }

    fn handle(
        &mut self,
        method: &str,
        args: &aeon_types::Args,
        inv: &mut aeon_runtime::Invocation<'_>,
    ) -> aeon_types::Result<Value> {
        self.0.handle(method, args, inv)
    }

    fn is_readonly(&self, method: &str) -> bool {
        self.0.is_readonly(method)
    }

    fn snapshot(&self) -> Value {
        self.0.snapshot()
    }

    fn restore(&mut self, state: &Value) {
        self.0.restore(state);
    }
}

#[test]
fn a_cluster_starts_only_its_pools_and_leaves_nothing_behind() {
    let before = thread_names().len();

    // Census of a running channel cluster: no gateway thread, no thread per
    // node; the only threads that carry a node's name are its pool's (a
    // pool thread `aeon-node-srv-1-pool-worker-0` reads `aeon-node-srv-1`
    // in `comm`, as a node's own receive thread did).
    let cluster = Cluster::builder()
        .servers(4)
        .worker_threads(WORKERS)
        .build()
        .unwrap();
    let of_nodes = |names: &[String]| names.iter().filter(|n| n.starts_with("aeon-node-")).count();
    let names = named("aeon-node-", 4 * WORKERS);
    assert!(
        !names.iter().any(|name| name == "aeon-gateway"),
        "a gateway thread: {names:?}"
    );
    assert_eq!(of_nodes(&names), 4 * WORKERS, "beside the pools: {names:?}");
    assert_eq!(names.len(), before + 4 * WORKERS, "{names:?}");
    cluster.shutdown();
    assert_eq!(settle_at(before), before, "{:?}", thread_names());
    drop(cluster);

    // The runtime's pool, idle: its workers and nothing else.
    let runtime = AeonRuntime::builder().worker_threads(2).build().unwrap();
    let names = named("aeon-runtime", 2);
    let of_runtime = names
        .iter()
        .filter(|n| n.starts_with("aeon-runtime"))
        .count();
    assert_eq!(of_runtime, 2, "{names:?}");
    assert_eq!(names.len(), before + 2, "{names:?}");
    runtime.shutdown();
    drop(runtime);
    assert_eq!(settle_at(before), before, "{:?}", thread_names());

    // A burst of events that queue on their sequencers and wait on remote
    // calls makes the pools start threads; once it is over, they are back at
    // their workers within a park timeout, and only the pools' own threads
    // ever existed.
    let (cluster, callers) = cross_calling_cluster(ClusterTransport::Channel);
    let resident = before + 2 * WORKERS;
    assert_eq!(settle_at(resident), resident, "{:?}", thread_names());
    burst(&cluster, &callers);
    let ended = Instant::now();
    let started: u64 = cluster
        .executor_stats()
        .values()
        .map(|stats| stats.spill_spawned)
        .sum();
    assert!(started > 0, "the burst never announced a wait");
    while thread_names().len() != resident && ended.elapsed() < 10 * PARK_TIMEOUT {
        std::thread::sleep(Duration::from_millis(1));
    }
    let settled = ended.elapsed();
    let names = thread_names();
    assert_eq!(names.len(), resident, "{names:?}");
    assert_eq!(of_nodes(&names), 2 * WORKERS, "{names:?}");
    // One park timeout after the last task, plus the wake-up and the exit
    // of a retiring thread on a shared host.
    assert!(
        settled < PARK_TIMEOUT + Duration::from_millis(150),
        "{started} threads took {settled:?} to retire"
    );
    cluster.shutdown();
    assert_eq!(settle_at(before), before, "{:?}", thread_names());
    drop(cluster);

    // The same burst over TCP.  Once it has settled, each transport — a
    // node's or the gateway's — runs one acceptor and one reader per
    // inbound connection, and nothing per peer: no writer, and no flusher
    // once what was sent is written.  The two nodes and the gateway have
    // all sent to each other, so each of the three is the far end of two
    // connections.
    let (cluster, callers) = cross_calling_cluster(ClusterTransport::TcpLoopback);
    burst(&cluster, &callers);
    let (transports, inbound) = (3, 2);
    let resident = before + 2 * WORKERS + transports * (1 + inbound);
    let ended = Instant::now();
    while thread_names().len() != resident && ended.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    let names = thread_names();
    let of = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
    assert_eq!(of("aeon-tcp-accept"), transports, "{names:?}");
    assert_eq!(of("aeon-tcp-reader"), transports * inbound, "{names:?}");
    assert_eq!(
        of("aeon-tcp-"),
        transports * (1 + inbound),
        "a writer or flusher: {names:?}"
    );
    assert_eq!(of("aeon-node-"), 2 * WORKERS, "{names:?}");
    assert_eq!(names.len(), resident, "{names:?}");
    cluster.shutdown();
    assert_eq!(settle_at(before), before, "{:?}", thread_names());
    drop(cluster);

    // Build, use, tear down, again and again: the thread count returns to
    // where it started and every node lets go of what it hosted — the
    // handler that owns a node and the network the node holds do not keep
    // each other alive.
    for (transport, cycles) in [
        (ClusterTransport::Channel, 200),
        (ClusterTransport::TcpLoopback, 20),
    ] {
        for round in 0..cycles {
            // Every tenth cluster is dropped without a `shutdown`.  Its last
            // handle may then be the one a message handler holds for a
            // moment (the worker that completed the last call), which
            // leaves the teardown to a thread of its own: give it time.
            let shut_down = round % 10 != 9;
            let hosted = cycle(transport.clone(), shut_down);
            let dropped = Instant::now();
            while !shut_down && hosted.upgrade().is_some() {
                assert!(dropped.elapsed() < Duration::from_secs(10));
                std::thread::yield_now();
            }
            assert!(
                hosted.upgrade().is_none(),
                "{transport:?} round {round}: a node outlived its cluster"
            );
        }
        assert_eq!(
            settle_at(before),
            before,
            "{transport:?}: {:?}",
            thread_names()
        );
    }
}
