//! The in-process transport: `send` calls the receiver's sink.

use super::{SendReceipt, Sink, Sinks, Transport};
use aeon_types::{AeonError, Result, ServerId};
use std::fmt;
use std::sync::Arc;

/// Computes the encoded wire size of a message without sending it anywhere;
/// lets the channel transport report honest byte counts for
/// channel-vs-TCP comparisons.
pub type MessageSizer<M> = Arc<dyn Fn(&M) -> u64 + Send + Sync>;

/// In-process, channel-based transport connecting simulated servers.
///
/// Delivery is a call of the destination's sink on the sender's thread —
/// messages are moved, never serialised.  When a [`MessageSizer`] is
/// configured the transport still *measures* what each message would have
/// cost on the wire, so `NetworkStats` byte counters stay meaningful.
pub struct ChannelTransport<M> {
    sinks: Sinks<M>,
    sizer: Option<MessageSizer<M>>,
}

impl<M> fmt::Debug for ChannelTransport<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChannelTransport")
            .field("servers", &self.sinks.ids().len())
            .field("sized", &self.sizer.is_some())
            .finish()
    }
}

impl<M> Default for ChannelTransport<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> ChannelTransport<M> {
    /// Creates an empty transport that reports zero bytes per message.
    pub fn new() -> Self {
        Self {
            sinks: Sinks::new(),
            sizer: None,
        }
    }

    /// Creates an empty transport that measures each message's encoded
    /// size with `sizer`.
    pub fn with_sizer(sizer: MessageSizer<M>) -> Self {
        Self {
            sinks: Sinks::new(),
            sizer: Some(sizer),
        }
    }
}

impl<M: Send + 'static> Transport<M> for ChannelTransport<M> {
    fn register(&self, id: ServerId, sink: Sink<M>) {
        self.sinks.insert(id, sink);
    }

    fn deregister(&self, id: ServerId) {
        self.sinks.remove(id);
    }

    fn send(&self, _from: ServerId, to: ServerId, message: M) -> Result<SendReceipt> {
        let bytes = self.sizer.as_ref().map_or(0, |s| s(&message));
        if self.sinks.deliver(to, message) != Some(true) {
            return Err(AeonError::ServerNotFound(to));
        }
        Ok(SendReceipt {
            bytes,
            delivered_locally: true,
        })
    }

    fn servers(&self) -> Vec<ServerId> {
        let mut ids = self.sinks.ids();
        ids.sort();
        ids
    }
}
