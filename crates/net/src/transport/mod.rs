//! Pluggable message transports underneath [`Network`](crate::Network).
//!
//! The [`Transport`] trait abstracts how a typed message travels from one
//! server to another.  Two implementations ship with the crate:
//!
//! * [`ChannelTransport`] — the original in-process transport: one crossbeam
//!   channel per registered server, zero-copy delivery.  Used by the
//!   concurrent runtime, the single-process cluster, and every unit test.
//! * [`TcpTransport`] — a real socket transport over `std::net`:
//!   length-prefixed frames, an acceptor/reader loop per process, per-peer
//!   writer threads, and reconnect-on-send with bounded retry.  Used when a
//!   cluster runs as N OS processes (`aeon-node`).
//!
//! [`Network`](crate::Network) layers fault injection (severed links) and
//! [`NetworkStats`](crate::NetworkStats) on top, so both transports share
//! identical semantics for everything above the wire.

mod channel;
mod tcp;

pub use channel::{ChannelTransport, MessageSizer};
pub use tcp::{TcpTransport, TcpTransportConfig};

use crate::stats::NetworkStats;
use aeon_types::{Result, ServerId};
use crossbeam::channel::Receiver;
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;

/// Outcome of a successful [`Transport::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendReceipt {
    /// Encoded size of the message on the wire (0 when the transport has no
    /// codec, e.g. a channel transport without a sizer).
    pub bytes: u64,
    /// `true` when the message was handed to a local inbox synchronously
    /// (channel delivery, or a TCP self-send short-circuit).  The caller
    /// records received-bytes immediately in that case; otherwise the
    /// receiving process's reader loop records them.
    pub delivered_locally: bool,
}

/// How messages move between servers.
///
/// Implementations are shared behind `Arc<dyn Transport<M>>` by every clone
/// of a [`Network`](crate::Network), so all methods take `&self` and must be
/// thread-safe.
pub trait Transport<M: Send + 'static>: Send + Sync + fmt::Debug {
    /// Registers a local inbox for `id` and returns its receiving half.
    /// Re-registering an id replaces the previous inbox (used when a
    /// crashed server restarts).
    fn register(&self, id: ServerId) -> Receiver<M>;

    /// Removes the local inbox for `id`; subsequent sends to it fail with
    /// `ServerNotFound` (unless the id is a known remote peer).
    fn deregister(&self, id: ServerId);

    /// Delivers `message` from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ServerNotFound`](aeon_types::AeonError) when the
    /// destination is neither locally registered nor a known peer.
    fn send(&self, from: ServerId, to: ServerId, message: M) -> Result<SendReceipt>;

    /// The ids this transport can currently deliver to (locally registered
    /// inboxes plus, for socket transports, known remote peers), sorted.
    fn servers(&self) -> Vec<ServerId>;

    /// Gives the transport a stats sink so asynchronous receive paths (TCP
    /// reader threads) can record received bytes.  Default: no-op.
    fn bind_stats(&self, _stats: Arc<NetworkStats>) {}

    /// Teaches a socket transport about a (new) remote peer.  Default:
    /// no-op for in-process transports.
    fn add_peer(&self, _id: ServerId, _addr: SocketAddr) {}

    /// The local socket address the transport listens on, when it has one.
    fn local_addr(&self) -> Option<SocketAddr> {
        None
    }

    /// Stops the transport's background threads (acceptor, readers,
    /// writers) and closes its sockets; when it returns none of them is
    /// left.  Default: no-op.
    fn shutdown(&self) {}
}

/// A message type that can cross a byte-oriented transport.
///
/// Implemented by `aeon-cluster` for `ClusterMessage`, which writes each
/// message straight into the buffer with the `Wire` vocabulary of
/// `aeon_types::codec` (its `wire` module is the format's specification);
/// any transport generic over `M: WireMessage` (such as [`TcpTransport`])
/// uses it to frame and recover messages.
pub trait WireMessage: Send + Sized + 'static {
    /// Encodes `self` into a self-contained byte payload.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::Codec`](aeon_types::AeonError) when the message
    /// cannot be represented on the wire.
    fn encode_wire(&self) -> Result<Vec<u8>>;

    /// Appends the payload [`WireMessage::encode_wire`] would produce to
    /// `out`, so a transport can encode straight into the frame it sends.
    /// Implement it when the payload can be written without first building
    /// it elsewhere; the default goes through `encode_wire`.
    ///
    /// # Errors
    ///
    /// Same as [`WireMessage::encode_wire`]; `out` may then hold a partial
    /// payload.
    fn encode_wire_into(&self, out: &mut Vec<u8>) -> Result<()> {
        out.extend_from_slice(&self.encode_wire()?);
        Ok(())
    }

    /// Decodes a payload previously produced by [`WireMessage::encode_wire`].
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::Codec`](aeon_types::AeonError) on malformed
    /// input.
    fn decode_wire(bytes: &[u8]) -> Result<Self>;
}
