//! Multi-process smoke test: a cluster of real `aeon-node` OS processes.
//!
//! Spawns three `aeon-node` binaries on loopback, attaches a gateway
//! `Cluster` over `ClusterTransport::TcpMesh`, runs a short workload that
//! exercises the wire (hosting, events, migration, snapshot/restore, a
//! re-host from state, a class no node has a factory for), and
//! asserts every process exits cleanly on shutdown.

use aeon::cluster::{Cluster, ClusterTransport};
use aeon::prelude::*;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command};
use std::sync::Arc;

/// Reserves distinct ephemeral loopback ports.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

/// The node processes.  A failed run never sends the `Shutdown` they wait
/// for, so whatever still runs when the test ends is killed.
struct Nodes(Vec<(ServerId, Child)>);

impl Drop for Nodes {
    fn drop(&mut self) {
        for (_, child) in &mut self.0 {
            if let Ok(None) = child.try_wait() {
                let _ = child.kill();
                let _ = child.wait();
            }
        }
    }
}

fn spawn_nodes(gateway: SocketAddr, peers: &BTreeMap<ServerId, SocketAddr>) -> Nodes {
    let exe = env!("CARGO_BIN_EXE_aeon-node");
    let mut nodes = Nodes(Vec::new());
    for (id, addr) in peers {
        let mut command = Command::new(exe);
        command
            .arg("--id")
            .arg(id.raw().to_string())
            .arg("--listen")
            .arg(addr.to_string())
            .arg("--gateway")
            .arg(gateway.to_string());
        for (peer, peer_addr) in peers {
            if peer != id {
                command
                    .arg("--peer")
                    .arg(format!("{}={}", peer.raw(), peer_addr));
            }
        }
        nodes
            .0
            .push((*id, command.spawn().expect("spawn aeon-node")));
    }
    nodes
}

#[test]
fn three_process_cluster_runs_a_workload_and_shuts_down_cleanly() {
    let addrs = free_addrs(4);
    let gateway_addr = addrs[0];
    let peers: BTreeMap<ServerId, SocketAddr> = (0..3u32)
        .map(|i| (ServerId::new(i), addrs[i as usize + 1]))
        .collect();
    let mut nodes = spawn_nodes(gateway_addr, &peers);

    let cluster = Cluster::builder()
        .transport(ClusterTransport::TcpMesh {
            listen: gateway_addr,
            peers: peers.clone(),
        })
        .build()
        .expect("gateway binds");
    let servers = cluster.servers();
    assert_eq!(servers.len(), 3);

    // The gateway-side factory is needed to rebuild objects for restore.
    cluster.register_class_factory(
        "Item",
        Arc::new(|state: &Value| {
            let mut kv = KvContext::new("Item");
            ContextObject::restore(&mut kv, state);
            Box::new(kv) as Box<dyn ContextObject>
        }),
    );

    // Host one context per process, drive events through each.
    let client = cluster.client();
    let items: Vec<ContextId> = servers
        .iter()
        .map(|server| {
            cluster
                .create_context(Box::new(KvContext::new("Item")), Placement::Server(*server))
                .expect("host context on node process")
        })
        .collect();
    for (i, item) in items.iter().enumerate() {
        client.call(*item, "set", args!["n", i as i64]).unwrap();
    }
    for (i, item) in items.iter().enumerate() {
        assert_eq!(
            client.call_readonly(*item, "get", args!["n"]).unwrap(),
            Value::from(i as i64)
        );
    }

    // State crosses process boundaries: migrate, then snapshot/restore.
    let moved = cluster.migrate_context(items[0], servers[1]).unwrap();
    assert!(moved > 0, "migration serialised state over the wire");
    assert_eq!(
        client.call_readonly(items[0], "get", args!["n"]).unwrap(),
        Value::from(0i64)
    );
    let snapshot = cluster.snapshot_context(items[1]).unwrap();
    client.call(items[1], "set", args!["n", 99i64]).unwrap();
    cluster.restore_snapshot(&snapshot).unwrap();
    assert_eq!(
        client.call_readonly(items[1], "get", args!["n"]).unwrap(),
        Value::from(1i64)
    );

    // A context re-hosted from its state on another node process.
    let snapshot = cluster.snapshot_context(items[2]).unwrap();
    let (_, captured) = snapshot.entries().next().expect("one context");
    client.call(items[2], "set", args!["n", 55i64]).unwrap();
    cluster
        .restore_context(items[2], &captured.state, servers[0])
        .expect("restore context on node process");
    assert_eq!(cluster.placement_of(items[2]).unwrap(), servers[0]);
    assert_eq!(
        client.call_readonly(items[2], "get", args!["n"]).unwrap(),
        Value::from(2i64)
    );

    // A class no node process has a factory for is refused there, and
    // the gateway forgets the context it declared.
    let contexts = cluster.context_count();
    let refused = cluster.create_context(Box::new(KvContext::new("Unknown")), Placement::Auto);
    assert!(
        matches!(refused, Err(AeonError::Config(_))),
        "a class without a factory: {refused:?}"
    );
    assert_eq!(cluster.context_count(), contexts);

    // Bytes actually moved through sockets.
    let stats = cluster.network_stats();
    assert!(stats.bytes_sent() > 0, "gateway sent bytes over TCP");
    assert!(
        stats.bytes_received() > 0,
        "gateway received bytes over TCP"
    );

    cluster.shutdown();
    for (id, child) in &mut nodes.0 {
        let status = child.wait().expect("node process exit status");
        assert!(status.success(), "node {id} exited with {status}");
    }
}
