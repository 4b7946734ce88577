//! A peer that accepts a connection and never reads from it: the sender's
//! backlog fills and `send` refuses, but no `send` waits, every refusal is
//! counted, nothing accepted is lost or sent twice, and once the peer reads
//! again no thread of the transport but its acceptor is left.
//!
//! Alone in its file on purpose: the check counts the threads of the
//! process, so no sibling test may share it.
#![cfg(target_os = "linux")]

use aeon_net::{Network, TcpTransport, TcpTransportConfig, Transport, WireMessage};
use aeon_types::{AeonError, Result, ServerId};
use std::io::{ErrorKind, Read};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A numbered message with a filler that depends on its number, so a torn
/// or repeated frame shows.
#[derive(Debug, PartialEq)]
struct Numbered(u64);

/// Mostly small frames; every sixteenth is larger than a socket buffer has
/// room for once it fills, so the kernel takes part of it and the rest is
/// written from where it stopped.
fn filler(seq: u64) -> usize {
    if seq % 16 == 15 {
        40_000
    } else {
        100
    }
}

impl WireMessage for Numbered {
    fn encode_wire(&self) -> Result<Vec<u8>> {
        let mut bytes = self.0.to_be_bytes().to_vec();
        bytes.resize(8 + filler(self.0), self.0 as u8);
        Ok(bytes)
    }

    fn decode_wire(bytes: &[u8]) -> Result<Self> {
        let seq = bytes
            .first_chunk::<8>()
            .ok_or_else(|| AeonError::Codec("short".into()))?;
        Ok(Numbered(u64::from_be_bytes(*seq)))
    }
}

/// The names (`comm`, cut to 15 bytes) of this process's transport threads.
fn transport_threads() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .filter(|name| name.starts_with("aeon-tcp-"))
        .collect()
}

#[test]
fn a_peer_that_never_reads_holds_back_frames_not_senders() {
    let (from, to) = (ServerId::new(0), ServerId::new(1));
    let peer = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut config = TcpTransportConfig::new("127.0.0.1:0".parse().unwrap());
    config.send_queue = 64;
    let transport: Arc<dyn Transport<Numbered>> = Arc::new(TcpTransport::bind(config).unwrap());
    let net = Network::with_transport(transport);
    net.add_peer(to, peer.local_addr().unwrap());
    let _inbox = net.register(from);

    // Send until the backlog has refused a few frames.  The first send
    // starts the connection; the peer accepts it and never reads.
    let mut accepted = 0u64;
    let mut refused = 0u64;
    let mut held = None;
    while refused < 16 {
        let started = Instant::now();
        match net.send_from(from, to, Numbered(accepted)) {
            Ok(()) => accepted += 1,
            Err(e) => {
                assert_eq!(e, AeonError::SendQueueFull { peer: to });
                refused += 1;
            }
        }
        let took = started.elapsed();
        assert!(
            took < Duration::from_secs(1),
            "send {accepted} took {took:?}"
        );
        if held.is_none() {
            held = Some(peer.accept().unwrap().0);
        }
        assert!(accepted < 10_000_000, "the backlog never filled");
    }
    assert_eq!(net.stats().frames_dropped(), refused);

    // Read the socket: every accepted frame, whole, in order, once.
    let mut socket = held.unwrap();
    socket
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut frame = Vec::new();
    for seq in 0..accepted {
        let payload = Numbered(seq).encode_wire().unwrap();
        frame.resize(12 + payload.len(), 0);
        socket.read_exact(&mut frame).unwrap();
        assert_eq!(
            frame[..4],
            ((8 + payload.len()) as u32).to_be_bytes(),
            "frame {seq}"
        );
        assert_eq!(frame[4..8], from.raw().to_be_bytes(), "frame {seq}");
        assert_eq!(frame[8..12], to.raw().to_be_bytes(), "frame {seq}");
        assert!(frame[12..] == payload[..], "frame {seq} is torn");
    }
    socket
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    match socket.read(&mut frame) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
        other => panic!("bytes after the last accepted frame: {other:?}"),
    }

    // The backlog is written out: its flusher is gone, and nothing but the
    // acceptor (this transport has no inbound connection) is left.
    let drained = Instant::now();
    while transport_threads() != ["aeon-tcp-accept"] && drained.elapsed() < Duration::from_secs(5) {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(transport_threads(), ["aeon-tcp-accept"]);
    net.shutdown_transport();
}
