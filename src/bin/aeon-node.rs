//! `aeon-node` — one AEON cluster server as an OS process.
//!
//! A distributed AEON deployment is a gateway process (the application,
//! holding a [`aeon::cluster::Cluster`] built with
//! `ClusterTransport::TcpMesh`) plus N `aeon-node` processes, one per
//! server.  Each node binds a TCP listener, connects to the gateway and its
//! peer nodes, and then runs the ordinary server machinery — the receive
//! loop, the sharded worker pool, and the migration/snapshot protocol — until
//! the gateway shuts the cluster down.
//!
//! ```text
//! aeon-node --id 0 --listen 127.0.0.1:7100 --gateway 127.0.0.1:7090 \
//!           --peer 1=127.0.0.1:7101 --peer 2=127.0.0.1:7102
//! ```
//!
//! Every node must know the addresses of all peers it may exchange
//! node-to-node traffic with (remote calls, migration state transfer); the
//! gateway address is where directory RPCs (`DirReq`/`DirAck`) and event
//! acknowledgements go.
//!
//! The binary registers contextclass factories for the classes shipped with
//! the workspace (key-value contexts, the bank, the game and the social
//! network, each application's own list) so the gateway can host, migrate,
//! and restore those contexts here: a node process is where a context the
//! gateway creates meets its class factory.  Embedders
//! with their own classes write their own `main` against
//! [`aeon::cluster::run_node`].

use aeon::cluster::{run_node, NodeProcessConfig};
use aeon::runtime::{ClassFactories, ContextObject, ExecutorConfig, KvContext};
use aeon::types::{ServerId, Value};
use aeon_apps::bank::bank_factories;
use aeon_apps::game::game_factories;
use aeon_apps::social::social_factories;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::process::exit;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: aeon-node --id <n> --listen <addr> --gateway <addr> \
         [--peer <id>=<addr>]... [--workers <n>] [--kv-class <name>]..."
    );
    exit(2);
}

struct Args {
    id: Option<ServerId>,
    listen: Option<SocketAddr>,
    gateway: Option<SocketAddr>,
    peers: BTreeMap<ServerId, SocketAddr>,
    workers: Option<usize>,
    kv_classes: Vec<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        id: None,
        listen: None,
        gateway: None,
        peers: BTreeMap::new(),
        workers: None,
        kv_classes: Vec::new(),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--id" => {
                let raw: u32 = value().parse().unwrap_or_else(|_| usage());
                args.id = Some(ServerId::new(raw));
            }
            "--listen" => args.listen = Some(value().parse().unwrap_or_else(|_| usage())),
            "--gateway" => args.gateway = Some(value().parse().unwrap_or_else(|_| usage())),
            "--peer" => {
                let spec = value();
                let Some((id, addr)) = spec.split_once('=') else {
                    usage();
                };
                let id: u32 = id.parse().unwrap_or_else(|_| usage());
                let addr: SocketAddr = addr.parse().unwrap_or_else(|_| usage());
                args.peers.insert(ServerId::new(id), addr);
            }
            "--workers" => args.workers = Some(value().parse().unwrap_or_else(|_| usage())),
            "--kv-class" => args.kv_classes.push(value()),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

/// Factories for the contextclasses shipped with the workspace — each
/// application's own list — plus a generic key-value factory for `Item`,
/// `Counter` and every class named with `--kv-class`.
fn register_builtin_factories(factories: &ClassFactories, kv_classes: &[String]) {
    for class in ["Item", "Counter"]
        .into_iter()
        .map(str::to_string)
        .chain(kv_classes.iter().cloned())
    {
        let name = class.clone();
        factories.register(
            class,
            Arc::new(move |state: &Value| {
                let mut kv = KvContext::new(name.clone());
                ContextObject::restore(&mut kv, state);
                Box::new(kv) as Box<dyn ContextObject>
            }),
        );
    }
    let apps = [bank_factories(), game_factories(), social_factories()];
    for (class, factory) in apps.into_iter().flatten() {
        factories.register(class, factory);
    }
}

fn main() {
    let args = parse_args();
    let (Some(id), Some(listen), Some(gateway)) = (args.id, args.listen, args.gateway) else {
        usage();
    };
    let mut executor = ExecutorConfig::default();
    if let Some(workers) = args.workers {
        executor.workers = workers;
    }
    let config = NodeProcessConfig {
        id,
        listen,
        gateway,
        peers: args.peers,
        executor,
    };
    eprintln!("aeon-node {id}: listening on {listen}, gateway {gateway}");
    match run_node(config, |factories| {
        register_builtin_factories(factories, &args.kv_classes);
    }) {
        Ok(()) => eprintln!("aeon-node {id}: shut down cleanly"),
        Err(err) => {
            eprintln!("aeon-node {id}: {err}");
            exit(1);
        }
    }
}
