//! Running one cluster server as its own OS process.
//!
//! The `aeon-node` binary calls [`run_node`] with this process's server id,
//! its listen address, the gateway's address, and the addresses of its peer
//! nodes.  The function builds a TCP-backed [`Network`], gives the node
//! its own [`ClassFactories`] (it asks the control plane everything else
//! with `DirReq`/`DirAck` round trips to the gateway), spawns the ordinary
//! node machinery — the same message handler (here called by the
//! transport's reader threads) and sharded worker pool used in-process —
//! and blocks until the gateway sends `Shutdown`.

use crate::directory::Directory;
use crate::message::{gateway_id, ClusterMessage};
use crate::node::spawn_node;
use aeon_net::{Network, TcpTransport, TcpTransportConfig};
use aeon_runtime::{ClassFactories, ExecutorConfig};
use aeon_types::{AeonError, Result, ServerId};
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
/// down.  `register` is called with the node's class factories before any
/// message is processed — register there the contextclasses this node
/// needs to host contexts ([`ClassFactories::register`]).
///
/// # Errors
///
/// * [`AeonError::Config`] when `config.executor` has zero workers, before
///   anything is bound.
/// * The bind error when the listen address cannot be bound.
pub fn run_node<F>(config: NodeProcessConfig, register: F) -> Result<()>
where
    F: FnOnce(&ClassFactories),
{
    if config.executor.workers == 0 {
        return Err(AeonError::Config(
            "at least one pool worker per node is required".into(),
        ));
    }
    let mut transport_config = TcpTransportConfig::new(config.listen);
    for (id, addr) in &config.peers {
        transport_config = transport_config.peer(*id, *addr);
    }
    transport_config = transport_config.peer(gateway_id(), config.gateway);
    let transport = TcpTransport::bind(transport_config)?;
    let network: Network<ClusterMessage> = Network::with_transport(Arc::new(transport));
    let factories = ClassFactories::default();
    register(&factories);
    let directory = Directory::Remote(factories);
    let node = spawn_node(config.id, directory, &network, config.executor);
    node.wait_stopped();
    // Joins the pool from this thread, then lets go of the handler (which
    // owns the node) and of the transport's threads.
    node.crash();
    network.deregister(config.id);
    network.shutdown_transport();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A node process without a worker is refused as the builders refuse
    /// one, and binds nothing: its listen address stays free.
    #[test]
    fn a_node_without_workers_is_refused_before_it_binds() {
        let free = TcpListener::bind("127.0.0.1:0").unwrap();
        let listen = free.local_addr().unwrap();
        drop(free);
        let gateway = SocketAddr::from(([127, 0, 0, 1], 9));
        let mut config = NodeProcessConfig::new(ServerId::new(0), listen, gateway);
        config.executor = ExecutorConfig::with_workers(0);
        let mut registered = false;
        let refused = run_node(config, |_| registered = true);
        assert_eq!(
            refused,
            Err(AeonError::Config(
                "at least one pool worker per node is required".into()
            ))
        );
        assert!(!registered, "no factory is registered for a refused node");
        TcpListener::bind(listen).expect("the refused node bound nothing");
    }
}
