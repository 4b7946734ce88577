//! The distributed deployment as N real OS processes.
//!
//! Run with `cargo run --example distributed_cluster`.
//!
//! The parent process is the *gateway*: it spawns three copies of itself in
//! the `node` role (each one a full cluster server bound to its own TCP
//! listener on loopback, exactly what the `aeon-node` binary does), builds a
//! [`Cluster`] over `ClusterTransport::TcpMesh`, and then drives the same
//! workload the in-process example runs — context creation, events, remote
//! calls, a live migration, and a snapshot/restore — with every message
//! crossing a real socket.
//!
//! For a deployment across machines, replace the self-spawn with the
//! `aeon-node` binary on each host and give the gateway the peer map.

use aeon::cluster::{run_node, Cluster, ClusterTransport, NodeProcessConfig};
use aeon::prelude::*;
use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command};
use std::sync::Arc;

fn main() -> Result<()> {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("node") => node_main(&args.collect::<Vec<_>>()),
        _ => gateway_main(),
    }
}

/// Child-process role: one cluster server (what `aeon-node` does).
///
/// Args: `<id> <listen> <gateway> [<peer-id>=<peer-addr>]...`
fn node_main(args: &[String]) -> Result<()> {
    let id = ServerId::new(args[0].parse().expect("node id"));
    let listen: SocketAddr = args[1].parse().expect("listen addr");
    let gateway: SocketAddr = args[2].parse().expect("gateway addr");
    let mut config = NodeProcessConfig::new(id, listen, gateway);
    for spec in &args[3..] {
        let (peer, addr) = spec.split_once('=').expect("id=addr");
        config = config.peer(
            ServerId::new(peer.parse().expect("peer id")),
            addr.parse().expect("peer addr"),
        );
    }
    run_node(config, |factories| {
        // Factories let this process rebuild contexts from serialised
        // state: initial hosting, migration, and restore all arrive as
        // class name + captured state over the wire.
        for class in ["Room", "Item"] {
            factories.register(
                class,
                Arc::new(move |state: &Value| {
                    let mut kv = KvContext::new(class);
                    ContextObject::restore(&mut kv, state);
                    Box::new(kv) as Box<dyn ContextObject>
                }),
            );
        }
    })
}

/// Reserves an ephemeral loopback port per cluster role.
fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("bind loopback"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr"))
        .collect()
}

fn gateway_main() -> Result<()> {
    const SERVERS: u32 = 3;
    let addrs = free_addrs(SERVERS as usize + 1);
    let gateway_addr = addrs[0];
    let peers: BTreeMap<ServerId, SocketAddr> = (0..SERVERS)
        .map(|i| (ServerId::new(i), addrs[i as usize + 1]))
        .collect();

    // Spawn one OS process per server.
    let exe = std::env::current_exe().expect("current exe");
    let mut children: Vec<Child> = Vec::new();
    for (id, addr) in &peers {
        let mut command = Command::new(&exe);
        command
            .arg("node")
            .arg(id.raw().to_string())
            .arg(addr.to_string())
            .arg(gateway_addr.to_string());
        for (peer, peer_addr) in &peers {
            if peer != id {
                command.arg(format!("{}={}", peer.raw(), peer_addr));
            }
        }
        children.push(command.spawn().expect("spawn node process"));
    }
    println!("spawned {SERVERS} node processes, gateway on {gateway_addr}");

    let cluster = Cluster::builder()
        .transport(ClusterTransport::TcpMesh {
            listen: gateway_addr,
            peers,
        })
        .build()?;
    let servers = cluster.servers();
    println!("cluster sees servers {servers:?}");

    // The gateway needs factories too: restore rebuilds the object here
    // before shipping it to the hosting server.
    for class in ["Room", "Item"] {
        cluster.register_class_factory(
            class,
            Arc::new(move |state: &Value| {
                let mut kv = KvContext::new(class);
                ContextObject::restore(&mut kv, state);
                Box::new(kv) as Box<dyn ContextObject>
            }),
        );
    }

    // A Room on each server, each owning a couple of Items — the Host
    // message carries class + captured state; each node process rebuilds
    // the object with its registered factory.
    let mut rooms = Vec::new();
    let mut items = Vec::new();
    for server in &servers {
        let room =
            cluster.create_context(Box::new(KvContext::new("Room")), Placement::Server(*server))?;
        for _ in 0..2 {
            let item = cluster.create_owned_context(Box::new(KvContext::new("Item")), &[room])?;
            items.push(item);
        }
        rooms.push(room);
    }

    // Events: every call here crosses the wire to the hosting process.
    let client = cluster.client();
    for (i, item) in items.iter().enumerate() {
        client.call(*item, "set", args!["gold", (i as i64 + 1) * 10])?;
    }
    for (i, item) in items.iter().enumerate() {
        assert_eq!(
            client.call_readonly(*item, "get", args!["gold"])?,
            Value::from((i as i64 + 1) * 10),
        );
    }

    // Live migration between two processes: serialised state leaves one
    // node's address space and is installed in another's.
    let item = items[0];
    println!("item {item} initially on {}", cluster.placement_of(item)?);
    let bytes = cluster.migrate_context(item, *servers.last().expect("servers exist"))?;
    println!(
        "migrated {bytes} bytes of serialized state to {}",
        cluster.placement_of(item)?
    );
    println!(
        "gold after migration: {}",
        client.call_readonly(item, "get", args!["gold"])?
    );

    // Snapshot a room's subtree in one process, mutate, restore: the
    // restored state travels back out to the hosting process.
    let room = rooms[0];
    client.call(room, "set", args!["time", 1i64])?;
    let snapshot = cluster.snapshot_context(room)?;
    client.call(room, "set", args!["time", 99i64])?;
    cluster.restore_snapshot(&snapshot)?;
    assert_eq!(
        client.call_readonly(room, "get", args!["time"])?,
        Value::from(1i64),
        "restore rolled the room back to the snapshot"
    );
    println!("snapshot/restore round-tripped across processes");

    let stats = cluster.network_stats();
    println!(
        "network traffic: {} remote msgs, {} bytes sent, {} bytes received",
        stats.remote_messages(),
        stats.bytes_sent(),
        stats.bytes_received()
    );

    cluster.shutdown();
    for mut child in children {
        let status = child.wait().expect("node process exit");
        assert!(status.success(), "node process failed: {status}");
    }
    println!("all node processes shut down cleanly");
    Ok(())
}
