//! Running one cluster server as its own OS process.
//!
//! The `aeon-node` binary calls [`run_node`] with this process's server id,
//! its listen address, the gateway's address, and the addresses of its peer
//! nodes.  The function builds a TCP-backed [`Network`], attaches a
//! *remote* [`Directory`] handle (the node asks the control plane with
//! `DirReq`/`DirAck` round trips to the gateway, see [`crate::Directory`]),
//! spawns the ordinary node machinery — the same message handler (here
//! called by the transport's reader threads) and sharded worker pool used
//! in-process — and blocks until the gateway sends `Shutdown`.

use crate::directory::Directory;
use crate::message::{gateway_id, ClusterMessage};
use crate::node::spawn_node;
use aeon_net::{Network, TcpTransport, TcpTransportConfig};
use aeon_runtime::ExecutorConfig;
use aeon_types::{Result, ServerId};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

/// Everything a node process needs to join a cluster mesh.
#[derive(Debug, Clone)]
pub struct NodeProcessConfig {
    /// This node's server id (must match the gateway's peer map).
    pub id: ServerId,
    /// Address this node's transport listens on.
    pub listen: SocketAddr,
    /// Address of the gateway's transport.
    pub gateway: SocketAddr,
    /// Peer node id → address, for direct node-to-node traffic (remote
    /// calls, migration state transfer).  The gateway must not appear here.
    pub peers: BTreeMap<ServerId, SocketAddr>,
    /// Worker-pool configuration for this node.
    pub executor: ExecutorConfig,
}

impl NodeProcessConfig {
    /// A config with default executor settings and no peers.
    pub fn new(id: ServerId, listen: SocketAddr, gateway: SocketAddr) -> Self {
        Self {
            id,
            listen,
            gateway,
            peers: BTreeMap::new(),
            executor: ExecutorConfig::default(),
        }
    }

    /// Adds a peer node.
    #[must_use]
    pub fn peer(mut self, id: ServerId, addr: SocketAddr) -> Self {
        self.peers.insert(id, addr);
        self
    }
}

/// Runs one cluster server node in this process until the gateway shuts it
/// down.  `register` is called with the node's (remote) directory handle
/// before any message is processed — use it to register the contextclass
/// factories this node needs to host contexts
/// ([`Directory::register_factory`]).
///
/// # Errors
///
/// Returns an error when the listen address cannot be bound.
pub fn run_node<F>(config: NodeProcessConfig, register: F) -> Result<()>
where
    F: FnOnce(&Directory),
{
    let mut transport_config = TcpTransportConfig::new(config.listen);
    for (id, addr) in &config.peers {
        transport_config = transport_config.peer(*id, *addr);
    }
    transport_config = transport_config.peer(gateway_id(), config.gateway);
    let transport = TcpTransport::bind(transport_config)?;
    let network: Network<ClusterMessage> = Network::with_transport(Arc::new(transport));
    let directory = Arc::new(Directory::remote());
    register(&directory);
    let node = spawn_node(config.id, directory, &network, config.executor);
    node.wait_stopped();
    // Joins the pool from this thread, then lets go of the handler (which
    // owns the node) and of the transport's threads.
    node.crash();
    network.deregister(config.id);
    network.shutdown_transport();
    Ok(())
}
