//! When `shutdown_transport` returns, no thread of the transport is left.
//!
//! Alone in its file on purpose: the check counts the threads of the
//! process, so no sibling test may share it.
#![cfg(target_os = "linux")]

use aeon_net::{Network, TcpTransport, TcpTransportConfig, Transport, WireMessage};
use aeon_types::{AeonError, Result, ServerId};
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, PartialEq)]
struct Byte(u8);

impl WireMessage for Byte {
    fn encode_wire(&self) -> Result<Vec<u8>> {
        Ok(vec![self.0])
    }

    fn decode_wire(bytes: &[u8]) -> Result<Self> {
        match bytes {
            [byte] => Ok(Byte(*byte)),
            _ => Err(AeonError::Codec("not one byte".into())),
        }
    }
}

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

fn tcp_network() -> Network<Byte> {
    let listen = "127.0.0.1:0".parse().unwrap();
    let transport: Arc<dyn Transport<Byte>> =
        Arc::new(TcpTransport::bind(TcpTransportConfig::new(listen)).unwrap());
    Network::with_transport(transport)
}

#[test]
fn nothing_outlives_shutdown() {
    let before = threads();
    for _ in 0..5 {
        let (net_a, net_b) = (tcp_network(), tcp_network());
        let (addr_a, addr_b) = (net_a.local_addr().unwrap(), net_b.local_addr().unwrap());
        net_a.add_peer(ServerId::new(1), addr_b);
        net_b.add_peer(ServerId::new(0), addr_a);
        let a = net_a.register(ServerId::new(0));
        let b = net_b.register(ServerId::new(1));
        a.send(ServerId::new(1), Byte(7)).unwrap();
        assert_eq!(
            b.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(Byte(7))
        );
        b.send(ServerId::new(0), Byte(8)).unwrap();
        assert_eq!(
            a.recv_timeout(Duration::from_secs(5)).unwrap(),
            Some(Byte(8))
        );
        // Acceptor, reader and writer on each side by now.
        assert!(threads() >= before + 6);

        net_a.shutdown_transport();
        net_b.shutdown_transport();
        // `join` returns when a thread has exited; the kernel takes its
        // `/proc` entry away a moment later.
        let joined = Instant::now();
        while threads() != before && joined.elapsed() < Duration::from_millis(10) {
            std::thread::yield_now();
        }
        assert_eq!(threads(), before, "a transport thread outlived shutdown");
        for addr in [addr_a, addr_b] {
            assert!(
                std::net::TcpStream::connect(addr).is_err(),
                "the listener at {addr} outlived shutdown"
            );
        }
    }
}
