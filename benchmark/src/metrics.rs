//! Names, units and bounds of every metric the benchmark reports.
//! `BENCHMARK.json` at the repository root lists the same metrics; a unit
//! test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// A larger value is better.
    Higher,
    /// A smaller value is better.
    Lower,
}

/// One metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name, as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// End-to-end metrics: share of the baseline median by which the metric
    /// may get worse before `--compare` calls it worse.  0 for per-layer
    /// metrics.
    pub bound: f64,
    /// `BENCHMARK.json` lists the metric as an end-to-end metric with its
    /// bound; `BASELINE.md` records how far it repeats from run to run.
    pub gate: bool,
}

/// An end-to-end metric that is a gate.
const fn gate(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
        gate: true,
    }
}

/// An end-to-end metric that is reported and compared, but is no gate.
const fn seen(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        gate: false,
        ..gate(name, unit, better, bound)
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    seen(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a client of the system sees; measured with tracing off, reported
/// by every workload.
///
/// Wall-clock throughput and latency are wake-up bound on the current code
/// (blocking hand-offs) and the reference host steals up to 60 % of its two
/// cores in phases that outlast a run: from one run to the next they move
/// by more than any admissible bound (see `BASELINE.md`).  They are
/// measured, printed with their quartiles and compared by `--compare`, and
/// the traced run records them as `client.*`, but they are no gate.  So
/// does the set-up proper, `deploy_s`; `setup_s` is the set-up plus the
/// fixed warm-up window behind it, as the issue defines it, which does
/// repeat.
pub const END_TO_END: &[Metric] = &[
    seen("throughput_eps", "1/s", Higher, 0.10),
    seen("latency_p50_us", "us", Lower, 0.10),
    seen("latency_p99_us", "us", Lower, 0.25),
    seen("read_latency_p50_us", "us", Lower, 0.10),
    seen("write_latency_p50_us", "us", Lower, 0.10),
    seen("cpu_us_per_event", "us", Lower, 0.10),
    gate("peak_rss_mb", "MiB", Lower, 0.25),
    gate("setup_s", "s", Lower, 0.25),
    seen("deploy_s", "s", Lower, 0.25),
];

/// The end-to-end metrics `BENCHMARK.json` lists.
pub fn gates() -> impl Iterator<Item = &'static Metric> {
    END_TO_END.iter().filter(|m| m.gate)
}

/// Client-observed wall time of `migrate_context`.  Only
/// `bank-migrate-cluster` migrates, so this is compared by `--compare` but
/// cannot be listed in `BENCHMARK.json`, whose end-to-end metrics every
/// workload must report (the traced run reports it as
/// `client.migration_ms_p50`).
pub const MIGRATION: Metric = seen("migration_ms_p50", "ms", Lower, 0.20);

/// One layer each; from the traced run, the public stats getters, or an
/// isolated probe of the layer's public API.  A metric whose layer is not
/// on a workload's path reads 0 there.
pub const PER_LAYER: &[Metric] = &[
    layer("api.submit_us_p50", "us", Lower),
    layer("api.submit_us_p99", "us", Lower),
    layer("api.wait_us_p50", "us", Lower),
    layer("api.inflight_mean", "count", Higher),
    layer("runtime.tasks_per_event", "count", Lower),
    layer("runtime.batched_share", "share", Higher),
    layer("runtime.fast_path_share", "share", Higher),
    layer("runtime.spill_spawned_per_kevent", "count", Lower),
    layer("runtime.spill_live_max", "count", Lower),
    layer("runtime.queue_depth_max", "count", Lower),
    layer("runtime.exec_stage_p50_us", "us", Lower),
    layer("runtime.executor.handoff_ns", "ns", Lower),
    layer("runtime.executor.tasks_per_s", "1/s", Higher),
    layer("ownership.dominator_cold_ns", "ns", Lower),
    layer("ownership.dominator_cached_ns", "ns", Lower),
    layer("ownership.share_set_ns", "ns", Lower),
    layer("ownership.graph_edges", "count", Lower),
    layer("ownership.mutate_us_p50", "us", Lower),
    layer("types.codec.encode_ns", "ns", Lower),
    layer("types.codec.decode_ns", "ns", Lower),
    layer("cluster.wire.encode_ns", "ns", Lower),
    layer("cluster.wire.decode_ns", "ns", Lower),
    layer("cluster.wire.bytes_per_msg", "B", Lower),
    layer("net.msgs_per_event", "count", Lower),
    layer("net.remote_msgs_per_event", "count", Lower),
    layer("net.bytes_per_event", "B", Lower),
    layer("net.frames_dropped", "count", Lower),
    layer("net.dropped_messages", "count", Lower),
    layer("net.channel.rtt_us", "us", Lower),
    layer("net.tcp.rtt_us", "us", Lower),
    layer("net.tcp.msgs_per_s", "1/s", Higher),
    layer("cluster.migrate_ms_p50", "ms", Lower),
    layer("cluster.migrate_ms_max", "ms", Lower),
    layer("cluster.migrate_bytes_mean", "B", Lower),
    layer("cluster.migrations", "count", Higher),
    layer("cluster.snapshot_ms", "ms", Lower),
    layer("cluster.restore_ms", "ms", Lower),
    layer("emanager.checkpoint_ms", "ms", Lower),
    layer("emanager.drain_ms", "ms", Lower),
    layer("core.deploy_ms", "ms", Lower),
    layer("analyzer.analyze_ms", "ms", Lower),
    layer("apps.world_deploy_ms", "ms", Lower),
    layer("apps.contexts", "count", Lower),
    layer("checker.check_ms", "ms", Lower),
    layer("checker.events_checked", "count", Higher),
    layer("checker.edges", "count", Lower),
    layer("sim.virtual_eps", "1/s", Higher),
    layer("sim.virtual_latency_mean_us", "us", Lower),
    layer("sim.wall_eps", "1/s", Higher),
    layer("loadgen.late_share", "share", Lower),
    layer("loadgen.late_us_p99", "us", Lower),
    layer("loadgen.backlog_max", "count", Lower),
    layer("loadgen.slice_iqr_share", "share", Lower),
    layer("trace.overhead_share", "share", Lower),
    layer("client.throughput_eps", "1/s", Higher),
    layer("client.latency_p50_us", "us", Lower),
    layer("client.latency_p99_us", "us", Lower),
    layer("client.read_latency_p50_us", "us", Lower),
    layer("client.write_latency_p50_us", "us", Lower),
    layer("client.cpu_us_per_event", "us", Lower),
    layer("client.migration_ms_p50", "ms", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::Workload;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Json::as_f64),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let expect = |metrics: &[Metric], gated: bool| -> Vec<_> {
            metrics
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        m.unit.to_string(),
                        match m.better {
                            Higher => "higher".to_string(),
                            Lower => "lower".to_string(),
                        },
                        gated.then_some(m.bound),
                    )
                })
                .collect()
        };
        let gated: Vec<Metric> = gates().copied().collect();
        assert_eq!(listed(&doc, "end_to_end"), expect(&gated, true));
        assert_eq!(listed(&doc, "per_layer"), expect(PER_LAYER, false));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_bounds_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .chain([&MIGRATION])
            .map(|m| m.name)
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(gates().any(|m| m.name == "setup_s" && m.unit == "s"));
        assert!(gates().count() <= 16);
        assert!(PER_LAYER.len() <= 128);
    }
}
