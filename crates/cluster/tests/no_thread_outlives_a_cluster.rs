//! A cluster starts no thread to receive messages, and none of the threads
//! it does start — pool workers, transport threads — outlives it.
//!
//! Alone in its file, and one test, on purpose: the checks count the threads
//! of the process, so nothing else may run beside them.
#![cfg(target_os = "linux")]

use aeon_api::Session;
use aeon_cluster::{Cluster, ClusterTransport};
use aeon_runtime::{ContextObject, KvContext, Placement};
use aeon_types::{args, Value};
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

const WORKERS: usize = 2;
/// Threads of one node's pool: its workers and its stall monitor.
const POOL: usize = WORKERS + 1;

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
    // A thread carries its spawner's name until it first runs and sets its
    // own: let the pools' threads get that far.
    let of_nodes = |names: &[String]| names.iter().filter(|n| n.starts_with("aeon-node-")).count();
    let built = Instant::now();
    while of_nodes(&thread_names()) < 4 * POOL && built.elapsed() < Duration::from_secs(5) {
        std::thread::yield_now();
    }
    let names = thread_names();
    assert!(
        !names.iter().any(|name| name == "aeon-gateway"),
        "a gateway thread: {names:?}"
    );
    assert_eq!(of_nodes(&names), 4 * POOL, "beside the pools: {names:?}");
    assert_eq!(names.len(), before + 4 * POOL, "{names:?}");
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
