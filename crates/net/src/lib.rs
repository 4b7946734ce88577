//! Networking substrate of the AEON reproduction.
//!
//! The paper's prototype runs on Mace (a C++ networking / event framework).
//! Here the substrate is a small layered stack:
//!
//! * [`Transport`] — how typed messages physically move between servers.
//!   Two implementations ship with the crate: [`ChannelTransport`] (the
//!   in-process delivery used by all single-process clusters) and
//!   [`TcpTransport`] (length-prefixed frames over `std::net` sockets,
//!   written by the sending thread itself, with a short-lived flusher per
//!   peer only to connect or to drain a backlog, and reconnect-on-send;
//!   used when a cluster runs as N real OS processes via the `aeon-node`
//!   binary).
//! * [`Network`] — the façade every component talks to.  It layers fault
//!   injection (administratively severed links) and [`NetworkStats`]
//!   (message and byte counters) on top of whichever transport it wraps,
//!   so the semantics above the wire are identical for channels and
//!   sockets.
//! * A server attaches with [`Network::serve`]: it gives the network a
//!   handler, and each message addressed to it is *delivered to the
//!   handler* — called on the sender's thread by the channel transport, on
//!   the connection's reader thread by the TCP transport — with no mailbox
//!   and no receiving thread in between.  A handler must not wait and may
//!   itself send; [`transport`] states the contract.
//! * [`Endpoint`] — for a receiver that wants a mailbox instead
//!   ([`Network::register`]): the handler pushes into an unbounded channel
//!   and the endpoint offers blocking / timed / non-blocking receive.
//!
//! Messages that cross a byte-oriented transport implement [`WireMessage`]
//! (`aeon-cluster` provides the implementation for its message enum with
//! the `Wire` vocabulary of `aeon_types::codec`).
//!
//! Latency is *not* simulated here (the concurrent runtime is about
//! correctness and real parallelism); `aeon-sim` charges network hops in
//! virtual time.
//!
//! # Examples
//!
//! In-process network (the default transport):
//!
//! ```
//! use aeon_net::Network;
//! use aeon_types::ServerId;
//!
//! let network: Network<String> = Network::new();
//! let a = network.register(ServerId::new(0));
//! let b = network.register(ServerId::new(1));
//! a.send(ServerId::new(1), "hello".to_string()).unwrap();
//! assert_eq!(b.recv().unwrap(), "hello");
//! ```

pub mod stats;
pub mod transport;

pub use stats::NetworkStats;
pub use transport::{
    ChannelTransport, MessageSizer, SendReceipt, Sink, TcpTransport, TcpTransportConfig, Transport,
    WireMessage,
};

use aeon_types::{AeonError, Result, ServerId};
use crossbeam::channel::{self, Receiver, TryRecvError};
use parking_lot::RwLock;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Shared state of a network: the transport plus the fault-injection and
/// statistics layers common to every transport.
#[derive(Debug)]
struct Shared<M: Send + 'static> {
    transport: Arc<dyn Transport<M>>,
    /// Links administratively taken down (fault injection); messages from
    /// `from` to `to` are silently dropped when `(from, to)` is present.
    severed: RwLock<std::collections::HashSet<(ServerId, ServerId)>>,
    stats: Arc<NetworkStats>,
}

/// A network connecting (possibly simulated) servers over a pluggable
/// [`Transport`].
///
/// Cloning the network is cheap: all clones share the same transport,
/// fault-injection table, and statistics.
#[derive(Debug)]
pub struct Network<M: Send + 'static> {
    shared: Arc<Shared<M>>,
}

impl<M: Send + 'static> Clone for Network<M> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<M: Send + 'static> Default for Network<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M: Send + 'static> Network<M> {
    /// Creates an empty in-process network (a [`ChannelTransport`] with no
    /// registered servers and no byte accounting).
    pub fn new() -> Self {
        Self::with_transport(Arc::new(ChannelTransport::new()))
    }

    /// Creates a network over an arbitrary transport with fresh statistics.
    pub fn with_transport(transport: Arc<dyn Transport<M>>) -> Self {
        Self::with_transport_and_stats(transport, Arc::new(NetworkStats::default()))
    }

    /// Creates a network over `transport` that accumulates into an existing
    /// stats object — lets several per-process networks (e.g. a loopback
    /// TCP cluster with one transport per node) report as one fabric.
    pub fn with_transport_and_stats(
        transport: Arc<dyn Transport<M>>,
        stats: Arc<NetworkStats>,
    ) -> Self {
        transport.bind_stats(Arc::clone(&stats));
        Self {
            shared: Arc::new(Shared {
                transport,
                severed: RwLock::new(std::collections::HashSet::new()),
                stats,
            }),
        }
    }

    /// Registers a server whose messages are delivered to `handler`, on the
    /// thread the transport delivers on (see [`transport`]): the handler
    /// must not wait.  It returns whether it took the message; a refusal is
    /// reported like a send to an unregistered id.  Re-registering an id
    /// replaces its previous handler or mailbox (used when a crashed server
    /// restarts).
    pub fn serve(&self, id: ServerId, handler: impl Fn(M) -> bool + Send + Sync + 'static) {
        self.shared.transport.register(id, Arc::new(handler));
    }

    /// Registers a server that receives through a mailbox and returns its
    /// endpoint: [`Network::serve`] with a handler that queues the message.
    pub fn register(&self, id: ServerId) -> Endpoint<M> {
        let (tx, rx) = channel::unbounded();
        self.serve(id, move |message| tx.send(message).is_ok());
        Endpoint {
            id,
            network: self.clone(),
            rx,
        }
    }

    /// Removes a server from the routing table and drops its handler;
    /// subsequent sends to it fail
    /// with [`AeonError::ServerNotFound`].  Any severed-link entries that
    /// mention the server are cleaned up too, so a later re-registration
    /// (a restarted server) does not inherit stale fault injection.
    pub fn deregister(&self, id: ServerId) {
        self.shared.transport.deregister(id);
        self.shared
            .severed
            .write()
            .retain(|(from, to)| *from != id && *to != id);
    }

    /// Returns the ids of all currently reachable servers.
    pub fn servers(&self) -> Vec<ServerId> {
        self.shared.transport.servers()
    }

    /// Sends `message` from `from` to `to`.  When `to` is served in this
    /// process over the channel transport (or is `from` itself), its handler
    /// has run, on this thread, by the time the call returns — so do not
    /// call it with a lock held that the handler, or anything the handler
    /// sends to, may take.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ServerNotFound`] when the destination is not
    /// registered (or has been deregistered, or its mailbox was dropped).
    pub fn send_from(&self, from: ServerId, to: ServerId, message: M) -> Result<()> {
        if self.shared.severed.read().contains(&(from, to)) {
            // Fault injection: the message is lost on the wire.
            self.shared.stats.record_dropped();
            return Ok(());
        }
        let receipt = self.shared.transport.send(from, to, message)?;
        self.shared.stats.record_sent(from == to, receipt.bytes);
        if receipt.delivered_locally {
            self.shared.stats.record_received(receipt.bytes);
        }
        Ok(())
    }

    /// Severs the directed link `from -> to`; messages are silently dropped
    /// until [`Network::heal_link`] is called.
    pub fn sever_link(&self, from: ServerId, to: ServerId) {
        self.shared.severed.write().insert((from, to));
    }

    /// Restores a previously severed link.
    pub fn heal_link(&self, from: ServerId, to: ServerId) {
        self.shared.severed.write().remove(&(from, to));
    }

    /// Traffic statistics accumulated since creation.
    pub fn stats(&self) -> &NetworkStats {
        &self.shared.stats
    }

    /// A shareable handle to the statistics (see
    /// [`Network::with_transport_and_stats`]).
    pub fn stats_handle(&self) -> Arc<NetworkStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Teaches a socket transport about a (new) remote peer; a no-op on
    /// in-process transports.
    pub fn add_peer(&self, id: ServerId, addr: SocketAddr) {
        self.shared.transport.add_peer(id, addr);
    }

    /// The local socket address the transport listens on, when it has one.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.shared.transport.local_addr()
    }

    /// Stops and joins the transport's background threads and closes its
    /// sockets (no-op for in-process transports).
    pub fn shutdown_transport(&self) {
        self.shared.transport.shutdown();
    }
}

/// A server's mailbox on the [`Network`] (see [`Network::register`]).
#[derive(Debug)]
pub struct Endpoint<M: Send + 'static> {
    id: ServerId,
    network: Network<M>,
    rx: Receiver<M>,
}

impl<M: Send + 'static> Endpoint<M> {
    /// The server id this endpoint was registered under.
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Sends a message to another server (or to itself).
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ServerNotFound`] when the destination is not
    /// registered.
    pub fn send(&self, to: ServerId, message: M) -> Result<()> {
        self.network.send_from(self.id, to, message)
    }

    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::RuntimeShutdown`] once the id was deregistered
    /// or re-registered (or the network torn down) and the mailbox is
    /// empty.
    pub fn recv(&self) -> Result<M> {
        self.rx.recv().map_err(|_| AeonError::RuntimeShutdown)
    }

    /// Waits up to `timeout` for a message.
    ///
    /// Returns `Ok(None)` on timeout so callers can interleave periodic
    /// work (e.g. the server scheduler loop).
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Option<M>> {
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(Some(m)),
            Err(channel::RecvTimeoutError::Timeout) => Ok(None),
            Err(channel::RecvTimeoutError::Disconnected) => Err(AeonError::RuntimeShutdown),
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<Option<M>> {
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(AeonError::RuntimeShutdown),
        }
    }

    /// A handle to the network this endpoint belongs to.
    pub fn network(&self) -> &Network<M> {
        &self.network
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn srv(n: u32) -> ServerId {
        ServerId::new(n)
    }

    #[test]
    fn point_to_point_delivery() {
        let net: Network<u32> = Network::new();
        let a = net.register(srv(0));
        let b = net.register(srv(1));
        a.send(srv(1), 42).unwrap();
        a.send(srv(1), 43).unwrap();
        assert_eq!(b.recv().unwrap(), 42);
        assert_eq!(b.recv().unwrap(), 43);
    }

    #[test]
    fn send_to_unknown_server_fails() {
        let net: Network<u32> = Network::new();
        let a = net.register(srv(0));
        assert!(matches!(
            a.send(srv(9), 1),
            Err(AeonError::ServerNotFound(_))
        ));
    }

    #[test]
    fn self_send_is_local() {
        let net: Network<u32> = Network::new();
        let a = net.register(srv(0));
        a.send(srv(0), 7).unwrap();
        assert_eq!(a.recv().unwrap(), 7);
        assert_eq!(net.stats().local_messages(), 1);
        assert_eq!(net.stats().remote_messages(), 0);
    }

    #[test]
    fn deregistered_server_is_unreachable() {
        let net: Network<u32> = Network::new();
        let a = net.register(srv(0));
        let _b = net.register(srv(1));
        net.deregister(srv(1));
        assert!(a.send(srv(1), 1).is_err());
        assert_eq!(net.servers(), vec![srv(0)]);
    }

    #[test]
    fn severed_links_drop_messages_and_heal() {
        let net: Network<u32> = Network::new();
        let a = net.register(srv(0));
        let b = net.register(srv(1));
        net.sever_link(srv(0), srv(1));
        a.send(srv(1), 1).unwrap();
        assert_eq!(b.try_recv().unwrap(), None);
        assert_eq!(net.stats().dropped_messages(), 1);
        net.heal_link(srv(0), srv(1));
        a.send(srv(1), 2).unwrap();
        assert_eq!(b.recv().unwrap(), 2);
    }

    #[test]
    fn deregister_clears_stale_severed_links() {
        // Regression test: a restarted (re-registered) server id must not
        // inherit fault injection that targeted its previous incarnation.
        let net: Network<u32> = Network::new();
        let a = net.register(srv(0));
        let _b = net.register(srv(1));
        net.sever_link(srv(0), srv(1));
        net.sever_link(srv(1), srv(0));
        net.sever_link(srv(0), srv(2));
        net.deregister(srv(1));
        let b = net.register(srv(1));
        a.send(srv(1), 5).unwrap();
        assert_eq!(b.recv().unwrap(), 5);
        b.send(srv(0), 6).unwrap();
        assert_eq!(a.recv().unwrap(), 6);
        assert_eq!(net.stats().dropped_messages(), 0);
        // Links not involving the deregistered id are untouched.
        assert!(net.shared.severed.read().contains(&(srv(0), srv(2))));
    }

    #[test]
    fn recv_timeout_returns_none_when_idle() {
        let net: Network<u32> = Network::new();
        let a = net.register(srv(0));
        assert_eq!(a.recv_timeout(Duration::from_millis(5)).unwrap(), None);
    }

    #[test]
    fn works_across_threads() {
        let net: Network<u64> = Network::new();
        let receiver = net.register(srv(0));
        let mut handles = Vec::new();
        for t in 1..=4u32 {
            let ep = net.register(srv(t));
            handles.push(std::thread::spawn(move || {
                for i in 0..100u64 {
                    ep.send(srv(0), u64::from(t) * 1000 + i).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut received = Vec::new();
        while let Some(m) = receiver.try_recv().unwrap() {
            received.push(m);
        }
        assert_eq!(received.len(), 400);
        assert_eq!(net.stats().remote_messages(), 400);
    }

    #[test]
    fn channel_sizer_feeds_byte_counters() {
        let transport: Arc<dyn Transport<Vec<u8>>> =
            Arc::new(ChannelTransport::with_sizer(Arc::new(|m: &Vec<u8>| {
                m.len() as u64
            })));
        let net = Network::with_transport(transport);
        let a = net.register(srv(0));
        let b = net.register(srv(1));
        a.send(srv(1), vec![0u8; 10]).unwrap();
        a.send(srv(1), vec![0u8; 32]).unwrap();
        assert_eq!(b.recv().unwrap().len(), 10);
        assert_eq!(net.stats().bytes_sent(), 42);
        assert_eq!(net.stats().bytes_received(), 42);
    }

    /// Runs `body` on a thread of its own and fails, rather than hangs,
    /// when it is not done in time.
    fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        finished
            .recv_timeout(limit)
            .expect("the body finished in time (a hang here is a deadlock)");
    }

    #[test]
    fn a_served_handler_runs_on_the_sending_thread() {
        let net: Network<u32> = Network::new();
        let ran_on = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen = Arc::clone(&ran_on);
        net.serve(srv(1), move |message| {
            seen.lock().push((message, std::thread::current().id()));
            true
        });
        net.send_from(srv(0), srv(1), 7).unwrap();
        let other = {
            let net = net.clone();
            std::thread::spawn(move || {
                net.send_from(srv(0), srv(1), 8).unwrap();
                std::thread::current().id()
            })
            .join()
            .unwrap()
        };
        // Delivered by the time `send_from` returned, by whoever sent.
        assert_eq!(
            *ran_on.lock(),
            vec![(7, std::thread::current().id()), (8, other)]
        );
        assert_eq!(net.stats().remote_messages(), 2);
    }

    #[test]
    fn a_handler_that_refuses_reads_as_an_unknown_server() {
        let net: Network<u32> = Network::new();
        net.serve(srv(1), |message| message != 13);
        net.send_from(srv(0), srv(1), 1).unwrap();
        assert_eq!(
            net.send_from(srv(0), srv(1), 13),
            Err(AeonError::ServerNotFound(srv(1)))
        );
        // A refused message was not delivered, so it is not counted as one.
        assert_eq!(net.stats().remote_messages(), 1);
    }

    #[test]
    fn concurrent_senders_arrive_in_per_sender_order() {
        let net: Network<(u32, u32)> = Network::new();
        let arrived = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let seen = Arc::clone(&arrived);
        net.serve(srv(0), move |message| {
            seen.lock().push(message);
            true
        });
        let senders: Vec<_> = (1..=4u32)
            .map(|t| {
                let net = net.clone();
                std::thread::spawn(move || {
                    for i in 0..1_000u32 {
                        net.send_from(srv(t), srv(0), (t, i)).unwrap();
                    }
                })
            })
            .collect();
        for sender in senders {
            sender.join().unwrap();
        }
        let arrived = arrived.lock();
        assert_eq!(arrived.len(), 4_000);
        for t in 1..=4u32 {
            let of_t: Vec<u32> = arrived.iter().filter(|m| m.0 == t).map(|m| m.1).collect();
            assert_eq!(of_t, (0..1_000).collect::<Vec<_>>(), "sender {t}");
        }
    }

    #[test]
    fn a_handler_may_send_while_servers_come_and_go() {
        // No guard of the transport is held while a handler runs: a handler
        // that sends takes the table's read guard again, which deadlocks
        // behind a waiting `register` / `deregister` if the outer `send`
        // still held its own.
        within(Duration::from_secs(60), || {
            let net: Network<u32> = Network::new();
            let relayed = net.register(srv(2));
            let relay = net.clone();
            net.serve(srv(1), move |message| {
                relay.send_from(srv(1), srv(2), message).is_ok()
            });
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let storm = {
                let (net, stop) = (net.clone(), Arc::clone(&stop));
                std::thread::spawn(move || {
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        drop(net.register(srv(9)));
                        net.deregister(srv(9));
                    }
                })
            };
            for i in 0..20_000u32 {
                net.send_from(srv(0), srv(1), i).unwrap();
                assert_eq!(relayed.try_recv().unwrap(), Some(i));
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            storm.join().unwrap();
        });
    }

    #[test]
    fn a_handler_may_deregister_itself() {
        within(Duration::from_secs(30), || {
            let net: Network<u32> = Network::new();
            let own = net.clone();
            net.serve(srv(1), move |_| {
                own.deregister(srv(1));
                true
            });
            net.send_from(srv(0), srv(1), 1).unwrap();
            assert!(net.send_from(srv(0), srv(1), 2).is_err());
        });
    }

    #[test]
    fn deregister_drops_the_handler() {
        /// Serves `id` with a handler that owns some state; the state is
        /// alive exactly as long as the handler is.
        fn serve_with_state(net: &Network<u32>, id: ServerId) -> std::sync::Weak<()> {
            let state = Arc::new(());
            let weak = Arc::downgrade(&state);
            net.serve(id, move |_| Arc::strong_count(&state) > 0);
            weak
        }
        let net: Network<u32> = Network::new();
        let state = serve_with_state(&net, srv(1));
        assert!(state.upgrade().is_some(), "the handler keeps its state");
        net.deregister(srv(1));
        assert!(
            state.upgrade().is_none(),
            "a deregistered handler is dropped"
        );
        // So is one that is replaced.
        let state = serve_with_state(&net, srv(1));
        let _mailbox = net.register(srv(1));
        assert!(state.upgrade().is_none(), "a replaced handler is dropped");
    }

    #[test]
    fn a_handler_is_dropped_outside_the_transport_s_guard() {
        // What a handler captured may do anything when it is dropped — join
        // threads that are sending, or send, as here: under the table's
        // write guard that would deadlock.
        struct SendsWhenDropped(Network<u32>);
        impl Drop for SendsWhenDropped {
            fn drop(&mut self) {
                let _ = self.0.send_from(srv(1), srv(2), 0);
            }
        }
        within(Duration::from_secs(30), || {
            let net: Network<u32> = Network::new();
            let farewells = net.register(srv(2));
            for replace in [false, true] {
                let state = SendsWhenDropped(net.clone());
                net.serve(srv(1), move |_| state.0.servers().len() > 1);
                if replace {
                    net.serve(srv(1), |_| true);
                } else {
                    net.deregister(srv(1));
                }
                assert_eq!(farewells.try_recv().unwrap(), Some(0));
            }
        });
    }

    #[test]
    fn a_dropped_endpoint_is_an_unknown_server() {
        let net: Network<u32> = Network::new();
        let a = net.register(srv(0));
        drop(net.register(srv(1)));
        assert_eq!(a.send(srv(1), 1), Err(AeonError::ServerNotFound(srv(1))));
    }

    #[test]
    fn a_deregistered_endpoint_drains_then_reports_shutdown() {
        let net: Network<u32> = Network::new();
        let a = net.register(srv(0));
        a.send(srv(0), 1).unwrap();
        assert_eq!(a.recv_timeout(Duration::from_millis(5)).unwrap(), Some(1));
        assert_eq!(a.recv_timeout(Duration::from_millis(5)).unwrap(), None);
        a.send(srv(0), 2).unwrap();
        net.deregister(srv(0));
        assert_eq!(a.recv().unwrap(), 2);
        assert_eq!(a.recv(), Err(AeonError::RuntimeShutdown));
        assert_eq!(a.try_recv(), Err(AeonError::RuntimeShutdown));
        assert_eq!(
            a.recv_timeout(Duration::from_millis(5)),
            Err(AeonError::RuntimeShutdown)
        );
    }

    mod tcp {
        use super::*;
        use std::net::SocketAddr;

        /// A trivial wire message for transport tests.
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Ping(u64, Vec<u8>);

        impl WireMessage for Ping {
            fn encode_wire(&self) -> Result<Vec<u8>> {
                let mut out = self.0.to_be_bytes().to_vec();
                out.extend_from_slice(&self.1);
                Ok(out)
            }

            fn decode_wire(bytes: &[u8]) -> Result<Self> {
                if bytes.len() < 8 {
                    return Err(AeonError::Codec("short ping".into()));
                }
                let mut raw = [0u8; 8];
                raw.copy_from_slice(&bytes[..8]);
                Ok(Ping(u64::from_be_bytes(raw), bytes[8..].to_vec()))
            }
        }

        fn loopback() -> SocketAddr {
            "127.0.0.1:0".parse().unwrap()
        }

        fn tcp_network() -> Network<Ping> {
            let transport: Arc<dyn Transport<Ping>> =
                Arc::new(TcpTransport::bind(TcpTransportConfig::new(loopback())).unwrap());
            Network::with_transport(transport)
        }

        #[test]
        fn frames_cross_a_real_socket() {
            let net_a = tcp_network();
            let net_b = tcp_network();
            net_a.add_peer(srv(1), net_b.local_addr().unwrap());
            net_b.add_peer(srv(0), net_a.local_addr().unwrap());
            let a = net_a.register(srv(0));
            let b = net_b.register(srv(1));

            a.send(srv(1), Ping(7, vec![1, 2, 3])).unwrap();
            assert_eq!(b.recv().unwrap(), Ping(7, vec![1, 2, 3]));
            b.send(srv(0), Ping(8, Vec::new())).unwrap();
            assert_eq!(a.recv().unwrap(), Ping(8, Vec::new()));

            // Exact frame accounting: prefix(4) + from(4) + to(4) + payload.
            assert_eq!(net_a.stats().bytes_sent(), (12 + 8 + 3) as u64);
            assert_eq!(net_b.stats().bytes_received(), (12 + 8 + 3) as u64);

            net_a.shutdown_transport();
            net_b.shutdown_transport();
        }

        #[test]
        fn send_before_peer_listens_retries() {
            // Reserve an address, drop the listener, send (the writer will
            // retry), then bring the real transport up on that address.
            let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = placeholder.local_addr().unwrap();
            drop(placeholder);

            let net_a = tcp_network();
            net_a.add_peer(srv(1), addr);
            let a = net_a.register(srv(0));
            a.send(srv(1), Ping(1, vec![9])).unwrap();

            let mut config = TcpTransportConfig::new(addr);
            config.connect_retries = 4;
            let transport_b: Arc<dyn Transport<Ping>> =
                Arc::new(TcpTransport::bind(config).unwrap());
            let net_b = Network::with_transport(transport_b);
            let b = net_b.register(srv(1));
            assert_eq!(
                b.recv_timeout(Duration::from_secs(15)).unwrap(),
                Some(Ping(1, vec![9]))
            );
            net_a.shutdown_transport();
            net_b.shutdown_transport();
        }

        /// Regression test: the acceptor started at `bind`, so a frame that
        /// arrived before the receiver registered reached no sink and was
        /// dropped (an `aeon-node` binds before it serves its id).
        #[test]
        fn a_frame_sent_before_its_receiver_registers_is_delivered_once_it_does() {
            let (net_a, net_b) = tcp_pair();
            let a = net_a.register(srv(0));
            a.send(srv(1), Ping(4, vec![1, 2])).unwrap();
            std::thread::sleep(Duration::from_millis(200));
            let b = net_b.register(srv(1));
            assert_eq!(
                b.recv_timeout(Duration::from_secs(5)).unwrap(),
                Some(Ping(4, vec![1, 2]))
            );
            assert_eq!(net_b.stats().frames_dropped(), 0);
            net_a.shutdown_transport();
            net_b.shutdown_transport();
        }

        #[test]
        fn self_send_short_circuits_but_counts_bytes() {
            let net = tcp_network();
            let a = net.register(srv(0));
            a.send(srv(0), Ping(3, vec![0; 4])).unwrap();
            assert_eq!(a.recv().unwrap(), Ping(3, vec![0; 4]));
            assert_eq!(net.stats().local_messages(), 1);
            assert_eq!(net.stats().bytes_sent(), (12 + 8 + 4) as u64);
            assert_eq!(net.stats().bytes_received(), (12 + 8 + 4) as u64);
            net.shutdown_transport();
        }

        #[test]
        fn full_send_queue_is_reported_not_silent() {
            // Regression test: a full bounded send queue used to block the
            // caller (and, once the writer retired, drop frames with no
            // trace).  Point the peer at a refusing port so the writer sits
            // in connect-with-retry without draining its queue, then
            // overflow a 1-slot queue.
            let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let dead_addr = placeholder.local_addr().unwrap();
            drop(placeholder);

            let mut config = TcpTransportConfig::new(loopback());
            config.send_queue = 1;
            config.connect_retries = 1000;
            config.retry_delay = Duration::from_millis(50);
            let transport: Arc<dyn Transport<Ping>> = Arc::new(TcpTransport::bind(config).unwrap());
            let net = Network::with_transport(transport);
            net.add_peer(srv(1), dead_addr);
            let a = net.register(srv(0));

            // First frame occupies the only queue slot (the writer cannot
            // drain it while the connection is refused).
            a.send(srv(1), Ping(1, Vec::new())).unwrap();
            let err = a.send(srv(1), Ping(2, Vec::new())).unwrap_err();
            assert_eq!(err, AeonError::SendQueueFull { peer: srv(1) });
            assert!(err.is_transient(), "queue-full is retryable backpressure");
            assert_eq!(net.stats().frames_dropped(), 1);
            net.shutdown_transport();
        }

        #[test]
        fn a_send_does_not_wait_for_a_connect_in_progress() {
            // The flusher connects with its bounded retry outside the
            // peer's mutex, so a send that finds it there queues and
            // returns.  A refusing port keeps it retrying for seconds.
            let placeholder = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            let dead_addr = placeholder.local_addr().unwrap();
            drop(placeholder);

            let mut config = TcpTransportConfig::new(loopback());
            config.connect_retries = 100;
            config.retry_delay = Duration::from_millis(50);
            let transport: Arc<dyn Transport<Ping>> = Arc::new(TcpTransport::bind(config).unwrap());
            let net = Network::with_transport(transport);
            net.add_peer(srv(1), dead_addr);
            let a = net.register(srv(0));
            a.send(srv(1), Ping(0, Vec::new())).unwrap();
            // Let the flusher get into its retry loop.
            std::thread::sleep(Duration::from_millis(20));
            for i in 1..10 {
                let started = std::time::Instant::now();
                a.send(srv(1), Ping(i, Vec::new())).unwrap();
                let took = started.elapsed();
                assert!(took < Duration::from_secs(1), "send {i} took {took:?}");
            }
            net.shutdown_transport();
        }

        /// Two transports that know each other as `srv(0)` and `srv(1)`.
        fn tcp_pair() -> (Network<Ping>, Network<Ping>) {
            let (net_a, net_b) = (tcp_network(), tcp_network());
            net_a.add_peer(srv(1), net_b.local_addr().unwrap());
            net_b.add_peer(srv(0), net_a.local_addr().unwrap());
            (net_a, net_b)
        }

        /// Writes one raw frame the way a peer's writer would.
        fn write_frame(socket: &mut std::net::TcpStream, to: ServerId, payload: &[u8]) {
            use std::io::Write;
            let mut frame = ((payload.len() + 8) as u32).to_be_bytes().to_vec();
            frame.extend_from_slice(&srv(0).raw().to_be_bytes());
            frame.extend_from_slice(&to.raw().to_be_bytes());
            frame.extend_from_slice(payload);
            socket.write_all(&frame).unwrap();
        }

        #[test]
        fn first_message_on_a_fresh_connection_does_not_wait_for_a_poll() {
            // Regression test: the acceptor used to look at its listener
            // every 20 ms, so the first frame on a new connection waited
            // ~10 ms on average for a reader to exist.
            let mut took: Vec<Duration> = (0..20)
                .map(|_| {
                    let (net_a, net_b) = tcp_pair();
                    let a = net_a.register(srv(0));
                    let b = net_b.register(srv(1));
                    let from = std::time::Instant::now();
                    a.send(srv(1), Ping(1, Vec::new())).unwrap();
                    b.recv_timeout(Duration::from_secs(5)).unwrap().unwrap();
                    let took = from.elapsed();
                    net_a.shutdown_transport();
                    net_b.shutdown_transport();
                    took
                })
                .collect();
            took.sort();
            let median = took[took.len() / 2];
            assert!(
                median < Duration::from_millis(5),
                "median first-message latency {median:?} ({took:?})"
            );
        }

        #[test]
        fn frames_the_reader_throws_away_are_counted() {
            // Regression test: an undecodable payload and a frame for an id
            // with no inbox here were skipped without touching a counter.
            let net = tcp_network();
            let inbox = net.register(srv(1));
            let mut socket = std::net::TcpStream::connect(net.local_addr().unwrap()).unwrap();

            write_frame(&mut socket, srv(1), b"short"); // `Ping` needs 8 bytes
            write_frame(
                &mut socket,
                srv(1),
                &Ping(7, vec![1]).encode_wire().unwrap(),
            );
            assert_eq!(
                inbox.recv_timeout(Duration::from_secs(5)).unwrap(),
                Some(Ping(7, vec![1]))
            );
            assert_eq!(net.stats().frames_dropped(), 1);

            write_frame(
                &mut socket,
                srv(9),
                &Ping(8, Vec::new()).encode_wire().unwrap(),
            );
            // The connection survives both: a later frame still arrives, and
            // frames are handled in order, so the drop is counted by then.
            write_frame(
                &mut socket,
                srv(1),
                &Ping(9, Vec::new()).encode_wire().unwrap(),
            );
            assert_eq!(
                inbox.recv_timeout(Duration::from_secs(5)).unwrap(),
                Some(Ping(9, Vec::new()))
            );
            assert_eq!(net.stats().frames_dropped(), 2);
            net.shutdown_transport();
        }

        #[test]
        fn an_out_of_range_length_kills_the_connection() {
            use std::io::{Read, Write};
            let net = tcp_network();
            let _inbox = net.register(srv(1));
            let mut socket = std::net::TcpStream::connect(net.local_addr().unwrap()).unwrap();
            socket
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            socket.write_all(&u32::MAX.to_be_bytes()).unwrap();
            // The reader hangs up: end of stream, not a time-out.
            assert_eq!(socket.read(&mut [0; 1]).unwrap(), 0);
            net.shutdown_transport();
        }

        #[test]
        fn a_burst_to_one_peer_arrives_whole_and_in_order() {
            const MESSAGES: u64 = 20_000;
            let (net_a, net_b) = tcp_pair();
            let a = net_a.register(srv(0));
            let b = net_b.register(srv(1));
            let receiver = std::thread::spawn(move || {
                for expected in 0..MESSAGES {
                    let got = b.recv_timeout(Duration::from_secs(20)).unwrap();
                    assert_eq!(got, Some(Ping(expected, vec![expected as u8; 24])));
                }
            });
            let mut refused = 0u64;
            for i in 0..MESSAGES {
                // A full queue is back-pressure: the frame was not taken, so
                // retrying cannot duplicate it.
                while let Err(e) = a.send(srv(1), Ping(i, vec![i as u8; 24])) {
                    assert_eq!(e, AeonError::SendQueueFull { peer: srv(1) });
                    refused += 1;
                    std::thread::yield_now();
                }
            }
            receiver.join().unwrap();
            // Refused sends are the only drops; nothing accepted was lost.
            assert_eq!(net_a.stats().frames_dropped(), refused);
            assert_eq!(net_b.stats().frames_dropped(), 0);
            net_a.shutdown_transport();
            net_b.shutdown_transport();
        }

        #[test]
        fn a_served_handler_runs_on_the_connection_s_reader_thread() {
            let (net_a, net_b) = tcp_pair();
            let (ran, ran_on) = std::sync::mpsc::channel();
            let ran = parking_lot::Mutex::new(ran);
            net_b.serve(srv(1), move |message: Ping| {
                let thread = std::thread::current();
                let _ = ran
                    .lock()
                    .send((message.0, thread.id(), thread.name().map(String::from)));
                true
            });
            // Across the socket: the reader of that connection.
            net_a
                .send_from(srv(0), srv(1), Ping(1, Vec::new()))
                .unwrap();
            let (message, thread, name) = ran_on.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(message, 1);
            assert_ne!(thread, std::thread::current().id());
            assert!(
                name.as_deref()
                    .is_some_and(|n| n.starts_with("aeon-tcp-reader")),
                "delivered on {name:?}"
            );
            // A self-send never reaches a socket: the sender's own thread.
            net_b
                .send_from(srv(1), srv(1), Ping(2, Vec::new()))
                .unwrap();
            let (message, thread, _) = ran_on.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!((message, thread), (2, std::thread::current().id()));
            net_a.shutdown_transport();
            net_b.shutdown_transport();
        }

        #[test]
        fn concurrent_senders_arrive_in_per_sender_order() {
            // Each sender on a transport of its own, then all four on one
            // transport, racing for the peer's connection and appending to
            // its backlog while one of them writes.
            for share_transport in [false, true] {
                senders_arrive_in_order(share_transport);
            }
        }

        fn senders_arrive_in_order(share_transport: bool) {
            let receiver = tcp_network();
            let arrived = Arc::new(parking_lot::Mutex::new(Vec::new()));
            let seen = Arc::clone(&arrived);
            receiver.serve(srv(0), move |message: Ping| {
                seen.lock().push(message.0);
                true
            });
            let shared = tcp_network();
            let senders: Vec<_> = (1..=4u64)
                .map(|t| {
                    let net = if share_transport {
                        shared.clone()
                    } else {
                        tcp_network()
                    };
                    net.add_peer(srv(0), receiver.local_addr().unwrap());
                    std::thread::spawn(move || {
                        for i in 0..1_000u64 {
                            let message = || Ping(t * 10_000 + i, Vec::new());
                            while let Err(e) = net.send_from(srv(t as u32), srv(0), message()) {
                                assert_eq!(e, AeonError::SendQueueFull { peer: srv(0) });
                                std::thread::yield_now();
                            }
                        }
                        net
                    })
                })
                .collect();
            let senders: Vec<_> = senders.into_iter().map(|s| s.join().unwrap()).collect();
            let deadline = std::time::Instant::now() + Duration::from_secs(20);
            while arrived.lock().len() < 4_000 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let arrived = arrived.lock().clone();
            assert_eq!(arrived.len(), 4_000, "shared transport: {share_transport}");
            for t in 1..=4u64 {
                let of_t: Vec<u64> = arrived
                    .iter()
                    .filter(|m| **m / 10_000 == t)
                    .map(|m| m % 10_000)
                    .collect();
                assert_eq!(
                    of_t,
                    (0..1_000).collect::<Vec<_>>(),
                    "sender {t}, shared transport: {share_transport}"
                );
            }
            for net in senders.iter().chain([&receiver, &shared]) {
                net.shutdown_transport();
            }
        }

        #[test]
        fn a_frame_for_a_dropped_endpoint_is_counted() {
            let (net_a, net_b) = tcp_pair();
            drop(net_b.register(srv(1)));
            let live = net_b.register(srv(2));
            net_a.add_peer(srv(2), net_b.local_addr().unwrap());
            net_a
                .send_from(srv(0), srv(1), Ping(1, Vec::new()))
                .unwrap();
            net_a
                .send_from(srv(0), srv(2), Ping(2, Vec::new()))
                .unwrap();
            assert_eq!(
                live.recv_timeout(Duration::from_secs(5)).unwrap(),
                Some(Ping(2, Vec::new()))
            );
            // Writers are per destination, so the two frames travel on two
            // connections and the dropped one may be read after the other.
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while net_b.stats().frames_dropped() == 0 && std::time::Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            assert_eq!(net_b.stats().frames_dropped(), 1);
            // In the same process it is the sender who is told.
            assert_eq!(
                net_b.send_from(srv(2), srv(1), Ping(3, Vec::new())),
                Err(AeonError::ServerNotFound(srv(1)))
            );
            net_a.shutdown_transport();
            net_b.shutdown_transport();
        }

        #[test]
        fn unknown_peer_is_server_not_found() {
            let net = tcp_network();
            let a = net.register(srv(0));
            assert!(matches!(
                a.send(srv(9), Ping(0, Vec::new())),
                Err(AeonError::ServerNotFound(_))
            ));
            net.shutdown_transport();
        }
    }
}
