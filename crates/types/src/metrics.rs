//! Per-server load metrics reported by every deployment backend.
//!
//! The elasticity manager (§5.2 of the paper) decides when to scale out/in
//! and what to migrate from periodic utilisation reports of every server.
//! [`ServerMetrics`] is that report, shared by all execution backends so
//! elasticity policies are written once and drive the in-process runtime,
//! the distributed cluster, and the deterministic simulator alike.
//!
//! Latency is reported as a fixed-bucket [`LatencyHistogram`] rather than a
//! single running average: the bench harness and elasticity policies need
//! tail percentiles (p50/p99), and averages hide exactly the tail the paper's
//! figures plot.

use crate::ids::ServerId;

/// Number of logarithmic buckets in a [`LatencyHistogram`].  Bucket `i`
/// covers `[2^i, 2^(i+1))` microseconds, so 40 buckets span sub-microsecond
/// to ~13 days — far beyond any plausible event latency.
pub const LATENCY_BUCKETS: usize = 40;

/// A fixed-size log2-bucketed latency histogram (microsecond samples).
///
/// The type is `Copy` (a small fixed array) so metric reports stay plain
/// value types that can cross the cluster wire and be aggregated without
/// allocation.  Buckets are powers of two: recording `micros` increments
/// bucket `floor(log2(max(micros, 1)))`, and percentiles report the upper
/// edge of the bucket holding the requested rank — a deliberate
/// overestimate, so reported tails are conservative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHistogram {
    /// Total recorded samples.
    pub count: u64,
    /// Sum of all recorded samples, in microseconds.
    pub total_micros: u64,
    /// Smallest recorded sample, in microseconds (0 when empty).
    pub min_micros: u64,
    /// Largest recorded sample, in microseconds (0 when empty).
    pub max_micros: u64,
    /// Log2 buckets; bucket `i` counts samples in `[2^i, 2^(i+1))` µs.
    pub buckets: [u64; LATENCY_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            count: 0,
            total_micros: 0,
            min_micros: 0,
            max_micros: 0,
            buckets: [0; LATENCY_BUCKETS],
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample of `micros` microseconds.
    pub fn record(&mut self, micros: u64) {
        let clamped = micros.max(1);
        let bucket = (64 - clamped.leading_zeros() as usize - 1).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket] += 1;
        self.total_micros += micros;
        if self.count == 0 {
            self.min_micros = micros;
            self.max_micros = micros;
        } else {
            self.min_micros = self.min_micros.min(micros);
            self.max_micros = self.max_micros.max(micros);
        }
        self.count += 1;
    }

    /// Folds another histogram into this one (for cross-server aggregation).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total_micros += other.total_micros;
        self.min_micros = self.min_micros.min(other.min_micros);
        self.max_micros = self.max_micros.max(other.max_micros);
    }

    /// Mean sample in microseconds (0 when empty).
    pub fn mean_micros(&self) -> u64 {
        self.total_micros.checked_div(self.count).unwrap_or(0)
    }

    /// The `q`-quantile (`0 < q <= 1`) in microseconds, reported as the
    /// upper edge of the bucket containing the ranked sample (0 when
    /// empty).  The final bucket reports the observed maximum instead of
    /// its (astronomical) upper edge.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                if i + 1 >= LATENCY_BUCKETS {
                    return self.max_micros;
                }
                return (1u64 << (i + 1)).min(self.max_micros.max(1));
            }
        }
        self.max_micros
    }

    /// Median (p50) in microseconds.
    pub fn p50_micros(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th percentile in microseconds.
    pub fn p99_micros(&self) -> u64 {
        self.percentile(0.99)
    }
}

/// A point-in-time copy of a transport's traffic counters.
///
/// The live counters (`aeon_net::NetworkStats`) are atomics owned by the
/// networking substrate; this plain value type is what crosses API
/// boundaries — notably `Deployment::network_stats` and the `aeond`
/// Prometheus exposition — without dragging a dependency on the net crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetworkStatsSnapshot {
    /// Messages delivered on the sending server.
    pub local_messages: u64,
    /// Messages delivered across servers.
    pub remote_messages: u64,
    /// Messages the network accepted and then lost (an abandoned send
    /// backlog).
    pub dropped_messages: u64,
    /// Encoded frames dropped by the transport itself (bounded send queue
    /// overflow, writer retirement mid-reconnect).
    pub frames_dropped: u64,
    /// Total encoded bytes handed to the transport for delivery.
    pub bytes_sent: u64,
    /// Total encoded bytes received from the transport.
    pub bytes_received: u64,
}

/// A periodic utilisation report for one server.
///
/// The resource utilisations are proxies derived from what each backend can
/// actually observe (relative context load, executor queue depth, event
/// latency); on a real cloud deployment they would come from the host OS.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerMetrics {
    /// The reporting server.
    pub server: ServerId,
    /// CPU utilisation in `[0, 1]`.
    pub cpu: f64,
    /// Memory utilisation in `[0, 1]`.
    pub memory: f64,
    /// IO utilisation in `[0, 1]`.
    pub io: f64,
    /// Number of contexts currently hosted.
    pub context_count: usize,
    /// Events queued for execution on the server's worker pool (zero on
    /// backends that execute inline, like the deterministic simulator).
    pub queue_depth: usize,
    /// Average latency of recent client requests, in milliseconds.
    pub avg_latency_ms: f64,
    /// Distribution of recent client-request latencies (microsecond
    /// buckets); empty on backends that have executed no events yet.
    pub latency: LatencyHistogram,
}

impl ServerMetrics {
    /// Builds a report from what every backend can observe: the share of
    /// the fleet's contexts hosted on `server` stands in for resource
    /// utilisation (`cpu = memory = share`, `io = share / 2`), and
    /// `avg_latency_ms` is the mean of `latency` (0 when it is empty).  All
    /// three backends derive their reports through this constructor so the
    /// proxy formula cannot drift between them.
    pub fn from_load(
        server: ServerId,
        context_count: usize,
        total_contexts: usize,
        queue_depth: usize,
        latency: LatencyHistogram,
    ) -> Self {
        let share = if total_contexts == 0 {
            0.0
        } else {
            context_count as f64 / total_contexts as f64
        };
        let avg_latency_ms = if latency.count == 0 {
            0.0
        } else {
            latency.total_micros as f64 / latency.count as f64 / 1000.0
        };
        Self {
            server,
            cpu: share,
            memory: share,
            io: share * 0.5,
            context_count,
            queue_depth,
            avg_latency_ms,
            latency,
        }
    }

    /// Median request latency in milliseconds, from the histogram.
    pub fn p50_ms(&self) -> f64 {
        self.latency.p50_micros() as f64 / 1000.0
    }

    /// 99th-percentile request latency in milliseconds, from the histogram.
    pub fn p99_ms(&self) -> f64 {
        self.latency.p99_micros() as f64 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_report_is_zeroed() {
        let m = ServerMetrics::default();
        assert_eq!(m.context_count, 0);
        assert_eq!(m.queue_depth, 0);
        assert_eq!(m.avg_latency_ms, 0.0);
        assert_eq!(m.latency.count, 0);
        assert_eq!(m.p50_ms(), 0.0);
        assert_eq!(m.p99_ms(), 0.0);
    }

    #[test]
    fn from_load_derives_utilisation_from_context_share() {
        let mut latency = LatencyHistogram::new();
        latency.record(2_000);
        latency.record(3_000);
        let m = ServerMetrics::from_load(ServerId::new(1), 3, 4, 7, latency);
        assert_eq!(m.cpu, 0.75);
        assert_eq!(m.memory, 0.75);
        assert_eq!(m.io, 0.375);
        assert_eq!(m.context_count, 3);
        assert_eq!(m.queue_depth, 7);
        assert_eq!(m.avg_latency_ms, 2.5);
        assert_eq!(m.latency, latency);
        // An empty fleet reports zero utilisation and no events a zero
        // latency, not NaN.
        let idle = ServerMetrics::from_load(ServerId::new(0), 0, 0, 0, LatencyHistogram::new());
        assert_eq!((idle.cpu, idle.avg_latency_ms), (0.0, 0.0));
    }

    #[test]
    fn histogram_records_buckets_and_extremes() {
        let mut h = LatencyHistogram::new();
        h.record(0); // clamps into bucket 0
        h.record(1);
        h.record(3);
        h.record(1000);
        assert_eq!(h.count, 4);
        assert_eq!(h.min_micros, 0);
        assert_eq!(h.max_micros, 1000);
        assert_eq!(h.mean_micros(), 1004 / 4);
        assert_eq!(h.buckets[0], 2); // 0 (clamped) and 1
        assert_eq!(h.buckets[1], 1); // 3 in [2, 4)
        assert_eq!(h.buckets[9], 1); // 1000 in [512, 1024)
    }

    #[test]
    fn percentiles_report_conservative_bucket_edges() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(100); // bucket [64, 128)
        }
        h.record(10_000); // bucket [8192, 16384)
        assert_eq!(h.p50_micros(), 128);
        assert_eq!(h.p99_micros(), 128);
        assert_eq!(h.percentile(1.0), 10_000);
        // Empty histogram reports zero, not NaN/garbage.
        assert_eq!(LatencyHistogram::new().p99_micros(), 0);
    }

    #[test]
    fn merge_combines_counts_and_extremes() {
        let mut a = LatencyHistogram::new();
        a.record(10);
        a.record(20);
        let mut b = LatencyHistogram::new();
        b.record(5);
        b.record(40_000);
        a.merge(&b);
        assert_eq!(a.count, 4);
        assert_eq!(a.min_micros, 5);
        assert_eq!(a.max_micros, 40_000);
        assert_eq!(a.total_micros, 40_035);
        // Merging into an empty histogram copies the source.
        let mut empty = LatencyHistogram::new();
        empty.merge(&a);
        assert_eq!(empty, a);
        // Merging an empty histogram is a no-op.
        let before = a;
        a.merge(&LatencyHistogram::new());
        assert_eq!(a, before);
    }
}
