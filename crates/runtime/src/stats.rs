//! Runtime statistics: event throughput, latency, message and migration
//! counters.
//!
//! Latency samples accumulate into the shared
//! [`aeon_types::LatencyHistogram`], the same fixed-bucket histogram every
//! backend reports through [`aeon_types::ServerMetrics`], one per server
//! over the events whose target it hosts: readers take a copy of one with
//! [`RuntimeStats::server_latency`], or of all merged with
//! [`RuntimeStats::latency_histogram`].

use aeon_types::{LatencyHistogram, ServerId};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Counters collected by the runtime; all methods are thread-safe.
#[derive(Debug, Default)]
pub struct RuntimeStats {
    events_completed: AtomicU64,
    events_failed: AtomicU64,
    readonly_events: AtomicU64,
    method_calls: AtomicU64,
    async_calls: AtomicU64,
    sub_events: AtomicU64,
    migrations: AtomicU64,
    migrated_bytes: AtomicU64,
    /// Event latencies: at 0 those of events whose target had no
    /// placement, at `raw + 1` those under server `raw` — the runtime's
    /// server ids are dense from 0.
    latency: Mutex<Vec<LatencyHistogram>>,
}

/// Where the latencies of events under `server` are kept.
fn slot(server: Option<ServerId>) -> usize {
    server.map_or(0, |server| server.raw() as usize + 1)
}

impl RuntimeStats {
    /// Records a completed event (success or failure) and its latency,
    /// under `server`, the one hosting its target, if known.
    pub fn record_event(
        &self,
        success: bool,
        readonly: bool,
        latency: Duration,
        server: Option<ServerId>,
    ) {
        if success {
            self.events_completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.events_failed.fetch_add(1, Ordering::Relaxed);
        }
        if readonly {
            self.readonly_events.fetch_add(1, Ordering::Relaxed);
        }
        // Rounded up: an event that completed took at least a microsecond.
        let micros = latency.as_nanos().div_ceil(1_000).max(1);
        let (mut latency, at) = (self.latency.lock(), slot(server));
        if latency.len() <= at {
            latency.resize_with(at + 1, LatencyHistogram::default);
        }
        latency[at].record(micros as u64);
    }

    /// Records a synchronous or asynchronous method call executed within an
    /// event.
    pub fn record_method_call(&self, asynchronous: bool) {
        self.method_calls.fetch_add(1, Ordering::Relaxed);
        if asynchronous {
            self.async_calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a sub-event dispatched from within an event.
    pub fn record_sub_event(&self) {
        self.sub_events.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a completed context migration and the payload size moved.
    pub fn record_migration(&self, bytes: u64) {
        self.migrations.fetch_add(1, Ordering::Relaxed);
        self.migrated_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Number of successfully completed events.
    pub fn events_completed(&self) -> u64 {
        self.events_completed.load(Ordering::Relaxed)
    }

    /// Number of failed events.
    pub fn events_failed(&self) -> u64 {
        self.events_failed.load(Ordering::Relaxed)
    }

    /// Number of events executed in read-only mode.
    pub fn readonly_events(&self) -> u64 {
        self.readonly_events.load(Ordering::Relaxed)
    }

    /// Number of context method calls executed within events.
    pub fn method_calls(&self) -> u64 {
        self.method_calls.load(Ordering::Relaxed)
    }

    /// Number of asynchronous method calls.
    pub fn async_calls(&self) -> u64 {
        self.async_calls.load(Ordering::Relaxed)
    }

    /// Number of sub-events dispatched from within events.
    pub fn sub_events(&self) -> u64 {
        self.sub_events.load(Ordering::Relaxed)
    }

    /// Number of context migrations performed.
    pub fn migrations(&self) -> u64 {
        self.migrations.load(Ordering::Relaxed)
    }

    /// Total bytes of context state moved by migrations.
    pub fn migrated_bytes(&self) -> u64 {
        self.migrated_bytes.load(Ordering::Relaxed)
    }

    /// A copy of the latency histogram over all completed events.
    pub fn latency_histogram(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for histogram in self.latency.lock().iter() {
            all.merge(histogram);
        }
        all
    }

    /// A copy of the latency histogram over the completed events whose
    /// target `server` hosted.
    pub fn server_latency(&self, server: ServerId) -> LatencyHistogram {
        let latency = self.latency.lock();
        latency.get(slot(Some(server))).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = RuntimeStats::default();
        stats.record_event(true, false, Duration::from_millis(1), None);
        stats.record_event(true, true, Duration::from_millis(2), None);
        stats.record_event(false, false, Duration::from_millis(3), None);
        stats.record_method_call(false);
        stats.record_method_call(true);
        stats.record_sub_event();
        stats.record_migration(1024);
        assert_eq!(stats.events_completed(), 2);
        assert_eq!(stats.events_failed(), 1);
        assert_eq!(stats.readonly_events(), 1);
        assert_eq!(stats.method_calls(), 2);
        assert_eq!(stats.async_calls(), 1);
        assert_eq!(stats.sub_events(), 1);
        assert_eq!(stats.migrations(), 1);
        assert_eq!(stats.migrated_bytes(), 1024);
    }

    #[test]
    fn latency_histogram_is_sane() {
        let stats = RuntimeStats::default();
        for ms in [1u64, 2, 4, 8, 100] {
            stats.record_event(true, false, Duration::from_millis(ms), None);
        }
        let h = stats.latency_histogram();
        assert_eq!(h.count, 5);
        assert_eq!(h.min_micros, 1_000);
        assert_eq!(h.max_micros, 100_000);
        assert!(h.mean_micros() > 1_000 && h.mean_micros() < 100_000);
        assert!(h.p50_micros() >= 1_000);
        assert!(h.p99_micros() >= h.p50_micros());
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = RuntimeStats::default().latency_histogram();
        assert_eq!(h.count, 0);
        assert_eq!(h.mean_micros(), 0);
        assert_eq!(h.p99_micros(), 0);
    }

    #[test]
    fn histogram_percentiles_are_monotone_in_quantile() {
        let mut h = LatencyHistogram::default();
        for i in 1..=1000u64 {
            h.record(i);
        }
        assert!(h.percentile(0.5) <= h.percentile(0.9));
        assert!(h.percentile(0.9) <= h.percentile(0.99));
    }
}
