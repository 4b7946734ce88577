//! Traffic statistics for the networking substrate.

use aeon_types::NetworkStatsSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counters of messages (and bytes) that crossed the network.
///
/// "Local" messages stay on the sending server (same-server delivery);
/// "remote" messages cross server boundaries.  The distinction matters for
/// the evaluation: one of the reasons AEON outperforms Orleans in the paper
/// is that dominator-aware placement keeps most calls local (§6.1.1).
///
/// Byte counters make channel-vs-TCP comparisons honest: the TCP transport
/// records exact on-the-wire frame sizes, while the channel transport
/// records the *encoded* size each message would have had on the wire
/// (zero when no message codec is configured, e.g. plain `Network<u32>`
/// test networks).
#[derive(Debug, Default)]
pub struct NetworkStats {
    local: AtomicU64,
    remote: AtomicU64,
    dropped: AtomicU64,
    frames_dropped: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
}

impl NetworkStats {
    /// Records a delivered message; `local` indicates same-server delivery
    /// and `bytes` the (encoded) size of the message on the wire.
    pub fn record_sent(&self, local: bool, bytes: u64) {
        if local {
            self.local.fetch_add(1, Ordering::Relaxed);
        } else {
            self.remote.fetch_add(1, Ordering::Relaxed);
        }
        self.bytes_sent.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `bytes` arriving from the wire (TCP readers) or delivered
    /// in-process (channel / loopback short-circuit).
    pub fn record_received(&self, bytes: u64) {
        self.bytes_received.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a message the network accepted but gave up on: a frame still
    /// queued for a peer when the transport abandoned its backlog.
    pub fn record_dropped(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an encoded frame the transport itself failed to deliver:
    /// bounded send-queue overflow, frames a retiring writer still held,
    /// or a received frame the reader had to throw away (payload that does
    /// not decode, destination with no sink here or refused by it).  A frame
    /// whose message was accepted and then abandoned counts here and in
    /// [`record_dropped`](Self::record_dropped) too; a nonzero frame-drop
    /// counter on a healthy deployment signals backpressure or connection
    /// churn.
    pub fn record_frame_dropped(&self) {
        self.frames_dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Messages delivered on the sending server.
    pub fn local_messages(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }

    /// Messages delivered across servers.
    pub fn remote_messages(&self) -> u64 {
        self.remote.load(Ordering::Relaxed)
    }

    /// Messages the network accepted and then lost (an abandoned backlog).
    pub fn dropped_messages(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Encoded frames dropped by the transport itself (queue overflow,
    /// writer retirement, frames a reader could not deliver).
    pub fn frames_dropped(&self) -> u64 {
        self.frames_dropped.load(Ordering::Relaxed)
    }

    /// Total messages offered to the network (delivered + dropped).
    pub fn total_messages(&self) -> u64 {
        self.local_messages() + self.remote_messages() + self.dropped_messages()
    }

    /// Total encoded bytes handed to the transport for delivery.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }

    /// Total encoded bytes received from the transport.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of every counter, as the plain value type that
    /// crosses API boundaries (`Deployment::network_stats`, the `aeond`
    /// metrics exposition).
    pub fn snapshot(&self) -> NetworkStatsSnapshot {
        NetworkStatsSnapshot {
            local_messages: self.local_messages(),
            remote_messages: self.remote_messages(),
            dropped_messages: self.dropped_messages(),
            frames_dropped: self.frames_dropped(),
            bytes_sent: self.bytes_sent(),
            bytes_received: self.bytes_received(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = NetworkStats::default();
        stats.record_sent(true, 10);
        stats.record_sent(false, 20);
        stats.record_sent(false, 0);
        stats.record_dropped();
        assert_eq!(stats.local_messages(), 1);
        assert_eq!(stats.remote_messages(), 2);
        assert_eq!(stats.dropped_messages(), 1);
        assert_eq!(stats.total_messages(), 4);
        assert_eq!(stats.bytes_sent(), 30);
    }

    #[test]
    fn frame_drops_are_counted_separately_from_injected_drops() {
        let stats = NetworkStats::default();
        stats.record_dropped();
        stats.record_frame_dropped();
        stats.record_frame_dropped();
        assert_eq!(stats.dropped_messages(), 1);
        assert_eq!(stats.frames_dropped(), 2);
        let snap = stats.snapshot();
        assert_eq!(snap.dropped_messages, 1);
        assert_eq!(snap.frames_dropped, 2);
    }

    #[test]
    fn byte_counters_track_both_directions() {
        let stats = NetworkStats::default();
        stats.record_sent(false, 100);
        stats.record_received(100);
        stats.record_received(8);
        assert_eq!(stats.bytes_sent(), 100);
        assert_eq!(stats.bytes_received(), 108);
    }
}
