//! Prometheus text exposition (format 0.0.4) of the metric types.
//!
//! The `aeond` service binary exposes its runtime state on `/metrics`;
//! this module renders [`ServerMetrics`] (per-server gauges plus the
//! [`LatencyHistogram`](crate::LatencyHistogram) as a native Prometheus
//! histogram) and
//! [`NetworkStatsSnapshot`] counters into that format.  The rendering
//! lives next to the metric types so every consumer — the service binary,
//! tests, future push gateways — agrees on metric names and label
//! conventions.
//!
//! Conventions (matching Prometheus best practice):
//!
//! * every metric is prefixed `aeon_`;
//! * counters end in `_total`, histograms expose `_bucket`/`_sum`/`_count`
//!   with cumulative `le` upper bounds;
//! * per-server series carry a `server="<id>"` label;
//! * each metric family is preceded by `# HELP` and `# TYPE` lines.

use crate::metrics::{NetworkStatsSnapshot, ServerMetrics, LATENCY_BUCKETS};

/// Incrementally builds one exposition document.
///
/// The writer only guarantees syntactic conventions (HELP/TYPE headers,
/// label escaping, sample lines); callers decide the metric families.
#[derive(Debug, Default)]
pub struct PromWriter {
    out: String,
}

impl PromWriter {
    /// A writer with an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the `# HELP` / `# TYPE` header of a metric family.
    /// `kind` is one of `gauge`, `counter`, `histogram`.
    pub fn family(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    /// Writes one sample line: `name{labels} value`.
    pub fn sample(&mut self, name: &str, labels: &[(&str, String)], value: f64) {
        self.out.push_str(name);
        if !labels.is_empty() {
            self.out.push('{');
            for (i, (key, val)) in labels.iter().enumerate() {
                if i > 0 {
                    self.out.push(',');
                }
                self.out.push_str(key);
                self.out.push_str("=\"");
                for c in val.chars() {
                    match c {
                        '\\' => self.out.push_str("\\\\"),
                        '"' => self.out.push_str("\\\""),
                        '\n' => self.out.push_str("\\n"),
                        c => self.out.push(c),
                    }
                }
                self.out.push('"');
            }
            self.out.push('}');
        }
        self.out.push(' ');
        // Prometheus accepts integer-valued floats without a fraction;
        // render whole numbers compactly so counters stay exact.
        if value.fract() == 0.0 && value.abs() < 1e15 {
            self.out.push_str(&format!("{}", value as i64));
        } else {
            self.out.push_str(&format!("{value}"));
        }
        self.out.push('\n');
    }

    /// The document rendered so far.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Renders the per-server control-plane metrics: utilisation gauges,
/// context/queue gauges, and the event-latency histogram (one Prometheus
/// histogram per server, microsecond buckets at power-of-two bounds).
pub fn render_server_metrics(w: &mut PromWriter, metrics: &[ServerMetrics]) {
    let label = |m: &ServerMetrics| vec![("server", m.server.raw().to_string())];

    w.family(
        "aeon_server_contexts",
        "Contexts currently hosted by the server.",
        "gauge",
    );
    for m in metrics {
        w.sample("aeon_server_contexts", &label(m), m.context_count as f64);
    }

    w.family(
        "aeon_server_queue_depth",
        "Events queued for execution on the server's worker pool.",
        "gauge",
    );
    for m in metrics {
        w.sample("aeon_server_queue_depth", &label(m), m.queue_depth as f64);
    }

    for (name, help, get) in [
        (
            "aeon_server_cpu_utilization",
            "CPU utilisation proxy in [0, 1].",
            (|m: &ServerMetrics| m.cpu) as fn(&ServerMetrics) -> f64,
        ),
        (
            "aeon_server_memory_utilization",
            "Memory utilisation proxy in [0, 1].",
            |m| m.memory,
        ),
        (
            "aeon_server_io_utilization",
            "IO utilisation proxy in [0, 1].",
            |m| m.io,
        ),
        (
            "aeon_server_avg_latency_ms",
            "Average latency of recent client requests in milliseconds.",
            |m| m.avg_latency_ms,
        ),
    ] {
        w.family(name, help, "gauge");
        for m in metrics {
            let v = get(m);
            // A metrics bug upstream must not corrupt the exposition:
            // NaN is not representable in the text format.
            w.sample(name, &label(m), if v.is_finite() { v } else { 0.0 });
        }
    }

    w.family(
        "aeon_event_latency_micros",
        "Distribution of recent client-request latencies in microseconds.",
        "histogram",
    );
    for m in metrics {
        let server = m.server.raw().to_string();
        let mut cumulative = 0u64;
        for (i, &count) in m.latency.buckets.iter().enumerate() {
            cumulative += count;
            // Skip empty tail buckets beyond the observed maximum, but
            // always render a bucket that carries counts so the
            // cumulative distribution is complete.
            if count == 0 && (1u64 << i) > m.latency.max_micros {
                continue;
            }
            let le = 1u64 << (i + 1).min(LATENCY_BUCKETS);
            w.sample(
                "aeon_event_latency_micros_bucket",
                &[("server", server.clone()), ("le", le.to_string())],
                cumulative as f64,
            );
        }
        w.sample(
            "aeon_event_latency_micros_bucket",
            &[("server", server.clone()), ("le", "+Inf".to_string())],
            m.latency.count as f64,
        );
        w.sample(
            "aeon_event_latency_micros_sum",
            &[("server", server.clone())],
            m.latency.total_micros as f64,
        );
        w.sample(
            "aeon_event_latency_micros_count",
            &[("server", server)],
            m.latency.count as f64,
        );
    }
}

/// Renders the transport traffic counters.
pub fn render_network_stats(w: &mut PromWriter, net: &NetworkStatsSnapshot) {
    w.family(
        "aeon_network_messages_total",
        "Messages delivered by the transport, by scope.",
        "counter",
    );
    w.sample(
        "aeon_network_messages_total",
        &[("scope", "local".into())],
        net.local_messages as f64,
    );
    w.sample(
        "aeon_network_messages_total",
        &[("scope", "remote".into())],
        net.remote_messages as f64,
    );
    w.family(
        "aeon_network_dropped_messages_total",
        "Messages the network accepted and then lost (an abandoned send backlog).",
        "counter",
    );
    w.sample(
        "aeon_network_dropped_messages_total",
        &[],
        net.dropped_messages as f64,
    );
    w.family(
        "aeon_network_frames_dropped_total",
        "Encoded frames dropped by the transport (send-queue overflow, writer retirement).",
        "counter",
    );
    w.sample(
        "aeon_network_frames_dropped_total",
        &[],
        net.frames_dropped as f64,
    );
    w.family(
        "aeon_network_bytes_total",
        "Encoded bytes crossing the transport, by direction.",
        "counter",
    );
    w.sample(
        "aeon_network_bytes_total",
        &[("direction", "sent".into())],
        net.bytes_sent as f64,
    );
    w.sample(
        "aeon_network_bytes_total",
        &[("direction", "received".into())],
        net.bytes_received as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServerId;
    use crate::metrics::LatencyHistogram;

    fn sample_metrics() -> Vec<ServerMetrics> {
        let mut latency = LatencyHistogram::new();
        latency.record(3); // bucket [2, 4)
        latency.record(100); // bucket [64, 128)
        latency.record(100);
        vec![
            // The rendered average is the field, whatever the histogram.
            ServerMetrics {
                avg_latency_ms: 2.5,
                ..ServerMetrics::from_load(ServerId::new(0), 3, 4, 7, latency)
            },
            ServerMetrics::from_load(ServerId::new(1), 1, 4, 0, LatencyHistogram::new()),
        ]
    }

    #[test]
    fn renders_gauges_with_server_labels() {
        let mut w = PromWriter::new();
        render_server_metrics(&mut w, &sample_metrics());
        let text = w.finish();
        assert!(text.contains("# TYPE aeon_server_contexts gauge"));
        assert!(text.contains("aeon_server_contexts{server=\"0\"} 3"));
        assert!(text.contains("aeon_server_contexts{server=\"1\"} 1"));
        assert!(text.contains("aeon_server_queue_depth{server=\"0\"} 7"));
        assert!(text.contains("aeon_server_avg_latency_ms{server=\"0\"} 2.5"));
    }

    #[test]
    fn renders_cumulative_histogram_buckets() {
        let mut w = PromWriter::new();
        render_server_metrics(&mut w, &sample_metrics());
        let text = w.finish();
        assert!(text.contains("# TYPE aeon_event_latency_micros histogram"));
        // 3 lands in [2,4) => le=4 cumulative 1; both 100s in [64,128) =>
        // le=128 cumulative 3.
        assert!(text.contains("aeon_event_latency_micros_bucket{server=\"0\",le=\"4\"} 1"));
        assert!(text.contains("aeon_event_latency_micros_bucket{server=\"0\",le=\"128\"} 3"));
        assert!(text.contains("aeon_event_latency_micros_bucket{server=\"0\",le=\"+Inf\"} 3"));
        assert!(text.contains("aeon_event_latency_micros_sum{server=\"0\"} 203"));
        assert!(text.contains("aeon_event_latency_micros_count{server=\"0\"} 3"));
        // The idle server still exposes a complete (empty) histogram.
        assert!(text.contains("aeon_event_latency_micros_bucket{server=\"1\",le=\"+Inf\"} 0"));
        assert!(text.contains("aeon_event_latency_micros_count{server=\"1\"} 0"));
    }

    #[test]
    fn renders_network_counters() {
        let mut w = PromWriter::new();
        render_network_stats(
            &mut w,
            &NetworkStatsSnapshot {
                local_messages: 5,
                remote_messages: 7,
                dropped_messages: 1,
                frames_dropped: 2,
                bytes_sent: 1000,
                bytes_received: 900,
            },
        );
        let text = w.finish();
        assert!(text.contains("aeon_network_messages_total{scope=\"local\"} 5"));
        assert!(text.contains("aeon_network_messages_total{scope=\"remote\"} 7"));
        assert!(text.contains("aeon_network_frames_dropped_total 2"));
        assert!(text.contains("aeon_network_bytes_total{direction=\"sent\"} 1000"));
        assert!(text.contains("aeon_network_bytes_total{direction=\"received\"} 900"));
    }

    #[test]
    fn nan_values_render_as_zero_not_nan() {
        let mut metrics = sample_metrics();
        metrics[0].avg_latency_ms = f64::NAN;
        let mut w = PromWriter::new();
        render_server_metrics(&mut w, &metrics);
        let text = w.finish();
        assert!(!text.contains("NaN"), "{text}");
        assert!(text.contains("aeon_server_avg_latency_ms{server=\"0\"} 0"));
    }

    #[test]
    fn label_values_are_escaped() {
        let mut w = PromWriter::new();
        w.family("x", "help", "gauge");
        w.sample("x", &[("l", "a\"b\\c\nd".into())], 1.0);
        assert!(w.finish().contains("x{l=\"a\\\"b\\\\c\\nd\"} 1"));
    }
}
