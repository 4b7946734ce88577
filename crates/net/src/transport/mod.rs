//! Pluggable message transports underneath [`Network`](crate::Network).
//!
//! The [`Transport`] trait abstracts how a typed message travels from one
//! server to another.  Two implementations ship with the crate:
//!
//! * [`ChannelTransport`] — the in-process transport: a message is moved,
//!   never serialised, to the receiver by a function call.  Used by the
//!   single-process cluster and every unit test.
//! * [`TcpTransport`] — a real socket transport over `std::net`:
//!   length-prefixed frames, an acceptor/reader loop per process, sends
//!   written by the sending thread (a flusher per peer runs only to connect
//!   or to drain what the kernel did not take at once), and
//!   reconnect-on-send with bounded retry.  Used when a cluster runs as N OS
//!   processes (`aeon-node`).
//!
//! [`Network`](crate::Network) layers fault injection (severed links) and
//! [`crate::NetworkStats`] on top, so both transports share
//! identical semantics for everything above the wire.
//!
//! ## Delivery
//!
//! A server is a [`Sink`]: the function [`Transport::register`] is given for
//! its id.  A transport *calls* it with each message — there is no inbox and
//! no thread between the wire and the receiver:
//!
//! * [`ChannelTransport`] calls it on the **sender's thread**, inside `send`;
//! * [`TcpTransport`] calls it on the **reader thread** of the connection the
//!   frame arrived on (`aeon-tcp-reader`), and on the sender's thread for a
//!   self-send, which never touches a socket.
//!
//! Either way messages of one sender to one id are delivered one at a time,
//! in the order they were sent.  Two rules follow.  A transport holds **no
//! guard while it calls a sink** (it clones the sink out of its table first),
//! so a sink may send, register and deregister.  And a sink **must not
//! wait**: it runs on a thread that has other things to do — the sender's
//! own work, or every later frame of the connection — so it hands anything
//! that can block to a thread of its own and returns.  A mailbox is the
//! smallest such sink: [`Network::register`](crate::Network::register)
//! pushes into an unbounded channel and gives the caller the receiving end.

mod channel;
mod tcp;

pub use channel::{ChannelTransport, MessageSizer};
pub use tcp::{TcpTransport, TcpTransportConfig};

use crate::stats::NetworkStats;
use aeon_types::{Result, ServerId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;

/// What a transport delivers the messages of one server id to.  It returns
/// whether it took the message: one it refuses counts as undeliverable, as
/// if the id were not registered.  See the module docs for the threads it
/// is called on and what it may do there.
pub type Sink<M> = Arc<dyn Fn(M) -> bool + Send + Sync>;

/// The sinks registered with one transport, and the one place any of them
/// is called.
pub(crate) struct Sinks<M>(RwLock<HashMap<ServerId, Sink<M>>>);

impl<M> Sinks<M> {
    pub(crate) fn new() -> Self {
        Self(RwLock::new(HashMap::new()))
    }

    pub(crate) fn insert(&self, id: ServerId, sink: Sink<M>) {
        // The sink it replaces is dropped once the guard is gone: dropping
        // it may run the destructor of whatever it captured.
        let replaced = self.0.write().insert(id, sink);
        drop(replaced);
    }

    pub(crate) fn remove(&self, id: ServerId) {
        let removed = self.0.write().remove(&id);
        drop(removed);
    }

    pub(crate) fn ids(&self) -> Vec<ServerId> {
        self.0.read().keys().copied().collect()
    }

    /// Hands `message` to the sink of `to` on the calling thread, with no
    /// guard held: `None` when `to` has no sink here, otherwise whether the
    /// sink took it.
    pub(crate) fn deliver(&self, to: ServerId, message: M) -> Option<bool> {
        let sink = self.0.read().get(&to).cloned()?;
        Some(sink(message))
    }
}

/// Outcome of a successful [`Transport::send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendReceipt {
    /// Encoded size of the message on the wire (0 when the transport has no
    /// codec, e.g. a channel transport without a sizer).
    pub bytes: u64,
    /// `true` when the message was handed to a local sink synchronously
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
    /// Registers `sink` as the local receiver of `id`.  Re-registering an
    /// id replaces the previous sink (used when a crashed server restarts).
    fn register(&self, id: ServerId, sink: Sink<M>);

    /// Removes (and drops) the local sink of `id`; subsequent sends to it
    /// fail with `ServerNotFound` (unless the id is a known remote peer).
    fn deregister(&self, id: ServerId);

    /// Delivers `message` from `from` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ServerNotFound`](aeon_types::AeonError) when the
    /// destination is neither locally registered nor a known peer, or when
    /// its local sink refused the message.
    fn send(&self, from: ServerId, to: ServerId, message: M) -> Result<SendReceipt>;

    /// The ids this transport can currently deliver to (locally registered
    /// sinks plus, for socket transports, known remote peers), sorted.
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
