//! The traced run: the per-layer numbers of one workload.
//!
//! Every layer is measured from outside — spans around calls into public
//! functions, deltas of the public stats getters over the traced pass, and
//! isolated probes of each layer's public API fed with the workload's own
//! inputs.  After a warm-up the run makes an untraced pass of timed slices,
//! measured exactly as a round is (the `client.*` metrics), and then repeats
//! the workload with tracing on for a fixed op count (not a fixed time), so
//! counts and per-event ratios repeat.

use crate::loadgen::{run_phase, Binning, PhaseLog, Stop, Traced, LATE_NS};
use crate::measure::{account, deploy, run_slices, verdict, warm_up, Deployed, Slicing};
use crate::metrics::PER_LAYER;
use crate::report::{over_slices, LayerDoc};
use crate::stats::percentile;
use crate::trace::{self, SpanLog};
use crate::workload::{Event, Size, Tally, Workload, SERVERS, WORKER_THREADS};
use aeon::api::Deployment;
use aeon::checker::{check_strict_serializability, HistoryRecorder, PrecedenceGraph};
use aeon::cluster::{ClusterMessage, EventDescriptor};
use aeon::emanager::EManager;
use aeon::net::{
    ChannelTransport, Endpoint, Network, TcpTransport, TcpTransportConfig, Transport, WireMessage,
};
use aeon::ownership::{share_set, DominatorResolver, OwnershipGraph};
use aeon::runtime::{ExecutorConfig, ShardedExecutor};
use aeon::sim::SimDeployment;
use aeon::storage::InMemoryStore;
use aeon::types::{codec, ClientId, LatencyHistogram};
use aeon::{AccessMode, AeonError, ContextId, EventId, ServerId, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Median of nanosecond samples, in `unit_ns`-sized units (0 when empty).
fn median_of(ns: &[u64], unit_ns: f64) -> f64 {
    let mut v: Vec<f64> = ns.iter().map(|ns| *ns as f64 / unit_ns).collect();
    percentile(&mut v, 0.5).unwrap_or(0.0)
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// Runs `f` `reps` times and returns the mean wall time of one run in ns.
fn mean_ns(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    let from = Instant::now();
    for i in 0..reps {
        f(i);
    }
    from.elapsed().as_nanos() as f64 / reps.max(1) as f64
}

/// The merged exec-stage histogram of all servers (the backend's own
/// worker-side timer: a stage, not the latency a client sees).
fn exec_histogram(deployment: &dyn Deployment) -> LatencyHistogram {
    let mut merged = LatencyHistogram::new();
    for metrics in deployment.server_metrics() {
        merged.merge(&metrics.latency);
    }
    merged
}

/// The samples `after` holds beyond `before` (both cumulative).
fn histogram_delta(before: &LatencyHistogram, after: &LatencyHistogram) -> LatencyHistogram {
    let mut delta = *after;
    delta.count = after.count.saturating_sub(before.count);
    delta.total_micros = after.total_micros.saturating_sub(before.total_micros);
    for (bucket, old) in delta.buckets.iter_mut().zip(before.buckets) {
        *bucket = bucket.saturating_sub(old);
    }
    delta
}

/// Distinct targets of a stream, in first-use order, at most `limit`.
fn distinct_targets(events: &[Event], limit: usize) -> Vec<ContextId> {
    let mut seen = BTreeSet::new();
    events
        .iter()
        .map(|e| e.target)
        .filter(|t| seen.insert(*t))
        .take(limit)
        .collect()
}

// -- probes -------------------------------------------------------------

/// `ShardedExecutor::submit` of no-op tasks keyed by the workload's context
/// ids: (hand-off ns from submit to the task starting, tasks per second
/// with the queues kept full).
fn probe_executor(targets: &[ContextId], size: Size) -> (f64, f64) {
    let pool = ShardedExecutor::new("bench-probe", ExecutorConfig::with_workers(WORKER_THREADS));
    let key = |i: usize| targets[i % targets.len()].raw();
    let (tx, rx) = mpsc::channel();
    let handoffs: Vec<u64> = (0..size.pick(2_000, 200))
        .filter_map(|i| {
            let tx = tx.clone();
            let from = Instant::now();
            pool.submit(key(i), move || {
                let _ = tx.send(Instant::now());
            });
            let started = rx.recv().ok()?;
            Some(started.saturating_duration_since(from).as_nanos() as u64)
        })
        .collect();
    let tasks = size.pick(200_000u64, 20_000);
    let ran = Arc::new(AtomicU64::new(0));
    let from = Instant::now();
    for i in 0..tasks {
        let ran = Arc::clone(&ran);
        pool.submit(key(i as usize), move || {
            ran.fetch_add(1, Ordering::Relaxed);
        });
    }
    while ran.load(Ordering::Relaxed) < tasks {
        std::thread::yield_now();
    }
    let per_s = tasks as f64 / from.elapsed().as_secs_f64();
    pool.shutdown();
    (median_of(&handoffs, 1.0), per_s)
}

/// `DominatorResolver::dominator` cold and cached, and `share_set`, on the
/// workload's ownership graph for the targets of its op stream: (cold ns,
/// cached ns, share-set ns).
fn probe_ownership(graph: &OwnershipGraph, targets: &[ContextId]) -> (f64, f64, f64) {
    let timed = |f: &dyn Fn(ContextId)| -> Vec<u64> {
        targets
            .iter()
            .map(|t| {
                let from = Instant::now();
                f(*t);
                from.elapsed().as_nanos() as u64
            })
            .collect()
    };
    let cold = timed(&|t| {
        let _ = black_box(DominatorResolver::default().dominator(graph, t));
    });
    let resolver = DominatorResolver::default();
    for t in targets {
        let _ = resolver.dominator(graph, *t);
    }
    let cached = mean_ns(targets.len() * 50, |i| {
        let _ = black_box(resolver.dominator(graph, targets[i % targets.len()]));
    });
    let shares = timed(&|t| {
        let _ = black_box(share_set(graph, t));
    });
    (median_of(&cold, 1.0), cached, median_of(&shares, 1.0))
}

/// The `Exec` request and `Done` response the cluster exchanges for
/// `event`.
fn messages_of(event: &Event, i: u64) -> [ClusterMessage; 2] {
    let id = EventId::new(i);
    [
        ClusterMessage::Exec {
            event: EventDescriptor {
                id,
                client: Some(ClientId::new(1)),
                corr: i,
                target: event.target,
                method: event.method.to_string(),
                args: event.args.clone(),
                mode: if event.readonly {
                    AccessMode::ReadOnly
                } else {
                    AccessMode::Exclusive
                },
            },
            sequencer: None,
        },
        ClusterMessage::Done {
            corr: i,
            event: id,
            result: Ok(Value::from(i as i64)),
            sub_events: Vec::new(),
        },
    ]
}

/// `aeon_types::codec` on the workload's argument lists and the cluster's
/// wire format on the messages its events travel as: (codec encode ns,
/// codec decode ns, wire encode ns, wire decode ns, bytes per message).
fn probe_wire(events: &[Event], size: Size) -> aeon::Result<(f64, f64, f64, f64, f64)> {
    let sample = &events[..events.len().min(512)];
    let reps = size.pick(100_000, 10_000);
    let values: Vec<Value> = sample
        .iter()
        .map(|e| Value::List(e.args.iter().cloned().collect()))
        .collect();
    let encoded: Vec<_> = values.iter().map(codec::encode).collect();
    let codec_encode = mean_ns(reps, |i| {
        black_box(codec::encode(black_box(&values[i % values.len()])));
    });
    let codec_decode = mean_ns(reps, |i| {
        let _ = black_box(codec::decode(black_box(&encoded[i % encoded.len()])));
    });
    let messages: Vec<ClusterMessage> = sample
        .iter()
        .enumerate()
        .flat_map(|(i, e)| messages_of(e, i as u64))
        .collect();
    let frames: Vec<Vec<u8>> = messages
        .iter()
        .map(WireMessage::encode_wire)
        .collect::<aeon::Result<_>>()?;
    let wire_encode = mean_ns(reps, |i| {
        let _ = black_box(black_box(&messages[i % messages.len()]).encode_wire());
    });
    let wire_decode = mean_ns(reps, |i| {
        let _ = black_box(ClusterMessage::decode_wire(black_box(
            &frames[i % frames.len()],
        )));
    });
    let bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len().max(1) as f64;
    Ok((codec_encode, codec_decode, wire_encode, wire_decode, bytes))
}

fn srv(n: u32) -> ServerId {
    ServerId::new(n)
}

/// Median round trip, in µs, of the workload's `Exec` messages between
/// endpoint `a` (server 0) and an echo thread that owns `b` (server 1) for
/// the duration; `b` is handed back.
fn round_trips(
    a: &Endpoint<ClusterMessage>,
    b: Endpoint<ClusterMessage>,
    events: &[Event],
    trips: usize,
) -> (Endpoint<ClusterMessage>, aeon::Result<f64>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let echo = scope.spawn(|| {
            while !stop.load(Ordering::Acquire) {
                if let Ok(Some(message)) = b.recv_timeout(Duration::from_millis(20)) {
                    let _ = b.send(srv(0), message);
                }
            }
            b
        });
        let result = (0..trips)
            .map(|i| {
                let [request, _] = messages_of(&events[i % events.len()], i as u64);
                let from = Instant::now();
                a.send(srv(1), request)?;
                a.recv_timeout(Duration::from_secs(10))?
                    .ok_or_else(|| AeonError::app("net probe: echo timed out"))?;
                Ok(from.elapsed().as_nanos() as u64)
            })
            .collect::<aeon::Result<Vec<u64>>>();
        stop.store(true, Ordering::Release);
        let b = echo.join().expect("net probe echo thread panicked");
        (b, result.map(|rtts| median_of(&rtts, 1e3)))
    })
}

/// Round trip over the in-process channel transport, in µs.
fn probe_net_channel(events: &[Event], size: Size) -> aeon::Result<f64> {
    let transport: Arc<dyn Transport<ClusterMessage>> = Arc::new(ChannelTransport::new());
    let net = Network::with_transport(transport);
    let (a, b) = (net.register(srv(0)), net.register(srv(1)));
    round_trips(&a, b, events, size.pick(2_000, 200)).1
}

/// Two `Endpoint`s over TCP loopback: (round trip µs, one-way messages per
/// second with the sender never waiting for a reply).
fn probe_net_tcp(events: &[Event], size: Size) -> aeon::Result<(f64, f64)> {
    let bind = || -> aeon::Result<Network<ClusterMessage>> {
        let listen = "127.0.0.1:0".parse().expect("literal socket address");
        let transport: Arc<dyn Transport<ClusterMessage>> =
            Arc::new(TcpTransport::bind(TcpTransportConfig::new(listen))?);
        Ok(Network::with_transport(transport))
    };
    let (net_a, net_b) = (bind()?, bind()?);
    let addr = |net: &Network<ClusterMessage>| {
        net.local_addr()
            .ok_or_else(|| AeonError::app("net probe: TCP transport has no address"))
    };
    net_a.add_peer(srv(1), addr(&net_b)?);
    net_b.add_peer(srv(0), addr(&net_a)?);
    let (a, b) = (net_a.register(srv(0)), net_b.register(srv(1)));
    let (b, rtt) = round_trips(&a, b, events, size.pick(2_000, 200));

    let flood = size.pick(20_000usize, 2_000);
    let from = Instant::now();
    let received = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut got = 0;
            while got < flood {
                match b.recv_timeout(Duration::from_secs(5)) {
                    Ok(Some(_)) => got += 1,
                    _ => break,
                }
            }
            got
        });
        for i in 0..flood {
            let [request, _] = messages_of(&events[i % events.len()], i as u64);
            let mut request = Some(request);
            // The per-peer send queue is bounded; a full queue is
            // back-pressure, not loss, so the probe retries.
            while let Some(message) = request.take() {
                if let Err(AeonError::SendQueueFull { .. }) = a.send(srv(1), message) {
                    std::thread::yield_now();
                    let [again, _] = messages_of(&events[i % events.len()], i as u64);
                    request = Some(again);
                }
            }
        }
        receiver.join().expect("net probe receiver panicked")
    });
    let per_s = received as f64 / from.elapsed().as_secs_f64();
    net_a.shutdown_transport();
    net_b.shutdown_transport();
    if received < flood {
        return Err(AeonError::app(format!(
            "net probe: {received} of {flood} flooded messages arrived"
        )));
    }
    Ok((rtt?, per_s))
}

/// Replays the head of the social stream on the virtual-time simulator in
/// contention mode: (virtual events/s, mean virtual latency µs, wall
/// events/s).  The virtual figures depend only on the seed.
fn probe_sim(deployed: &Deployed, ops: u64) -> aeon::Result<(f64, f64, f64)> {
    let Some((plan, stream)) = &deployed.world.social else {
        return Ok((0.0, 0.0, 0.0));
    };
    let sim = SimDeployment::builder()
        .servers(SERVERS)
        .contention(WORKER_THREADS)
        .class_graph(aeon_apps::social_class_graph())
        .build()?;
    let world = aeon_apps::deploy_social_plan(&sim, plan.clone())?;
    let head = &stream[..stream.len().min(ops as usize)];
    sim.reset_virtual_time();
    let from = Instant::now();
    aeon_apps::run_social_stream(&sim.client(), &world, head)?;
    let wall = from.elapsed().as_secs_f64();
    Ok((
        sim.virtual_throughput(),
        sim.mean_virtual_latency().as_micros() as f64,
        head.len() as f64 / wall,
    ))
}

// -- the traced run -----------------------------------------------------

/// Runs the traced run of `workload` and writes its spans to
/// `out_dir/trace-<workload>.json`.  The untraced pass is timed as
/// `slicing` says; the traced pass makes the op count of `seconds`.
pub fn run_traced(
    workload: Workload,
    seed: u64,
    size: Size,
    slicing: Slicing,
    seconds: f64,
    out_dir: &Path,
) -> LayerDoc {
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut report = LayerDoc {
        attempted: 0,
        failed: 0,
        error: None,
        values: BTreeMap::new(),
        spans: BTreeMap::new(),
    };
    let epoch = Instant::now();
    let mut spans = SpanLog::new(epoch, 15);
    let root = spans.reserve();

    let classes = workload.class_graph();
    let from = Instant::now();
    let analysis = spans.time(root, "analyzer.analyze", || {
        aeon::analyzer::analyze(&classes)
    });
    values.insert("analyzer.analyze_ms", ms(from, Instant::now()));
    black_box(analysis);

    let deployed = match deploy(workload, seed, size) {
        Ok(deployed) => deployed,
        Err(error) => {
            report.error = Some(error);
            return report;
        }
    };
    let deployment = deployed.deployment.as_ref();
    spans.record(root, "core.deploy", 0, deployed.deploy.0, deployed.deploy.1);
    spans.record(
        root,
        "apps.world_deploy",
        0,
        deployed.world_deploy.0,
        deployed.world_deploy.1,
    );
    values.insert("core.deploy_ms", ms(deployed.deploy.0, deployed.deploy.1));
    values.insert(
        "apps.world_deploy_ms",
        ms(deployed.world_deploy.0, deployed.world_deploy.1),
    );
    values.insert("apps.contexts", deployment.context_count() as f64);

    // Warm-up, then pass 1 with tracing off: what the client sees, and the
    // base of `trace.overhead_share`.
    let load = workload.load();
    let ops = workload.traced_ops(size, seconds);
    let mut tally = Tally::default();
    let warmup = warm_up(workload, &deployed, size);
    account(
        &warmup,
        &mut tally,
        &mut report.attempted,
        &mut report.failed,
    );
    let (plain, plain_rows) = run_slices(workload, &deployed, slicing);
    account(
        &plain,
        &mut tally,
        &mut report.attempted,
        &mut report.failed,
    );

    let recorder = (workload == Workload::BankMigrateCluster).then(|| {
        let recorder = HistoryRecorder::new();
        deployment.install_history_sink(Arc::new(recorder.clone()));
        recorder
    });

    // Pass 2, tracing on, between two readings of the stats getters.
    let executor_before = deployment.executor_stats().unwrap_or_default();
    let network_before = deployment.network_stats().unwrap_or_default();
    let exec_before = exec_histogram(deployment);
    let (mut queue_max, mut spill_live_max) = (0u64, 0usize);
    let traced = run_phase(
        deployment,
        &deployed.world,
        load,
        Stop::Ops(ops),
        Binning::WHOLE,
        Some(Traced { epoch, root }),
        |_, done| {
            while !done.load(Ordering::Acquire) {
                if let Some(stats) = deployment.executor_stats() {
                    queue_max = queue_max.max(stats.queued);
                    spill_live_max = spill_live_max.max(stats.spill_live);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        },
    );
    account(
        &traced,
        &mut tally,
        &mut report.attempted,
        &mut report.failed,
    );
    let executor = deployment.executor_stats().unwrap_or_default();
    let network = deployment.network_stats().unwrap_or_default();
    let exec_stage = histogram_delta(&exec_before, &exec_histogram(deployment));
    let history = recorder.map(|recorder| recorder.history());

    let events = traced.completed as f64;
    let span_ns = |name: &str| -> Vec<u64> {
        traced
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(trace::Span::duration_ns)
            .collect()
    };
    let submits = span_ns("api.submit");
    let mut submit_us: Vec<f64> = submits.iter().map(|ns| *ns as f64 / 1e3).collect();
    values.insert("api.submit_us_p50", median_of(&submits, 1e3));
    values.insert(
        "api.submit_us_p99",
        percentile(&mut submit_us, 0.99).unwrap_or(0.0),
    );
    values.insert("api.wait_us_p50", median_of(&span_ns("api.wait"), 1e3));
    values.insert(
        "api.inflight_mean",
        ratio(
            traced.latency_sum_ns as f64,
            traced.elapsed.as_nanos() as f64,
        ),
    );

    let tasks = executor.submitted.saturating_sub(executor_before.submitted) as f64;
    let delta = |after: u64, before: u64| after.saturating_sub(before) as f64;
    values.insert("runtime.tasks_per_event", ratio(tasks, events));
    values.insert(
        "runtime.batched_share",
        ratio(delta(executor.batched, executor_before.batched), tasks),
    );
    values.insert(
        "runtime.fast_path_share",
        ratio(delta(executor.fast_path, executor_before.fast_path), events),
    );
    values.insert(
        "runtime.spill_spawned_per_kevent",
        ratio(
            delta(executor.spill_spawned, executor_before.spill_spawned) * 1e3,
            events,
        ),
    );
    values.insert("runtime.spill_live_max", spill_live_max as f64);
    values.insert("runtime.queue_depth_max", queue_max as f64);
    values.insert("runtime.exec_stage_p50_us", exec_stage.p50_micros() as f64);

    let messages = delta(
        network.local_messages + network.remote_messages,
        network_before.local_messages + network_before.remote_messages,
    );
    values.insert("net.msgs_per_event", ratio(messages, events));
    values.insert(
        "net.remote_msgs_per_event",
        ratio(
            delta(network.remote_messages, network_before.remote_messages),
            events,
        ),
    );
    values.insert(
        "net.bytes_per_event",
        ratio(delta(network.bytes_sent, network_before.bytes_sent), events),
    );
    values.insert(
        "net.frames_dropped",
        delta(network.frames_dropped, network_before.frames_dropped),
    );
    values.insert(
        "net.dropped_messages",
        delta(network.dropped_messages, network_before.dropped_messages),
    );

    values.insert("ownership.mutate_us_p50", median_of(&traced.churn_ns, 1e3));
    let durations: Vec<u64> = traced.migrations.iter().map(|m| m.duration_ns).collect();
    values.insert("cluster.migrate_ms_p50", median_of(&durations, 1e6));
    values.insert(
        "cluster.migrate_ms_max",
        durations.iter().max().map_or(0.0, |ns| *ns as f64 / 1e6),
    );
    values.insert(
        "cluster.migrate_bytes_mean",
        ratio(
            traced.migrations.iter().map(|m| m.bytes).sum::<u64>() as f64,
            durations.len() as f64,
        ),
    );
    values.insert("cluster.migrations", durations.len() as f64);

    // The generator is judged on the untraced pass, as the client is.
    let late = plain.late_ns.iter().filter(|ns| **ns > LATE_NS).count();
    let mut late_us: Vec<f64> = plain.late_ns.iter().map(|ns| *ns as f64 / 1e3).collect();
    values.insert(
        "loadgen.late_share",
        ratio(late as f64, plain.late_ns.len() as f64),
    );
    values.insert(
        "loadgen.late_us_p99",
        percentile(&mut late_us, 0.99).unwrap_or(0.0),
    );
    values.insert("loadgen.backlog_max", plain.backlog_max as f64);
    let eps = |log: &PhaseLog| ratio(log.completed as f64, log.elapsed.as_secs_f64());
    values.insert(
        "trace.overhead_share",
        1.0 - ratio(eps(&traced), eps(&plain)),
    );

    // What a client sees, tracing off: the median over the slices of pass
    // 1, the arithmetic of the end-to-end tables.  These wall-clock figures
    // do not repeat within a bound on a shared host, so they are recorded
    // here and are no gate.
    let sliced = |name: &str| over_slices(plain_rows.iter(), name);
    for metric in PER_LAYER {
        if let Some(name) = metric.name.strip_prefix("client.") {
            values.insert(metric.name, sliced(name).map_or(0.0, |s| s.median));
        }
    }
    values.insert(
        "loadgen.slice_iqr_share",
        sliced("throughput_eps").map_or(0.0, |s| s.iqr_share()),
    );

    // Probes of single layers, fed with the workload's own inputs.
    let stream = &deployed.world.streams[0];
    let targets = distinct_targets(stream, 256);
    let mut probes = || -> aeon::Result<()> {
        let (handoff, per_s) = probe_executor(&targets, size);
        values.insert("runtime.executor.handoff_ns", handoff);
        values.insert("runtime.executor.tasks_per_s", per_s);

        let graph = deployment.ownership_graph();
        let (cold, cached, shares) = probe_ownership(&graph, &targets);
        values.insert("ownership.dominator_cold_ns", cold);
        values.insert("ownership.dominator_cached_ns", cached);
        values.insert("ownership.share_set_ns", shares);
        values.insert("ownership.graph_edges", graph.edges().count() as f64);

        if workload.on_cluster() {
            let (enc, dec, wire_enc, wire_dec, bytes) = probe_wire(stream, size)?;
            values.insert("types.codec.encode_ns", enc);
            values.insert("types.codec.decode_ns", dec);
            values.insert("cluster.wire.encode_ns", wire_enc);
            values.insert("cluster.wire.decode_ns", wire_dec);
            values.insert("cluster.wire.bytes_per_msg", bytes);
            if workload == Workload::TpccTcp {
                let (rtt, per_s) = probe_net_tcp(stream, size)?;
                values.insert("net.tcp.rtt_us", rtt);
                values.insert("net.tcp.msgs_per_s", per_s);
            } else {
                values.insert("net.channel.rtt_us", probe_net_channel(stream, size)?);
            }
        }

        let (virtual_eps, virtual_latency, wall_eps) = probe_sim(&deployed, ops)?;
        values.insert("sim.virtual_eps", virtual_eps);
        values.insert("sim.virtual_latency_mean_us", virtual_latency);
        values.insert("sim.wall_eps", wall_eps);

        if workload == Workload::BankMigrateCluster {
            let root_context = deployed.world.root;
            let from = Instant::now();
            let snapshot = spans.time(root, "cluster.snapshot", || {
                deployment.snapshot_context(root_context)
            })?;
            values.insert("cluster.snapshot_ms", ms(from, Instant::now()));
            let from = Instant::now();
            spans.time(root, "cluster.restore", || {
                deployment.restore_snapshot(&snapshot)
            })?;
            values.insert("cluster.restore_ms", ms(from, Instant::now()));

            let manager = EManager::new(Arc::clone(&deployed.deployment), InMemoryStore::new());
            let from = Instant::now();
            spans.time(root, "emanager.checkpoint", || {
                manager.checkpoint("benchmark", root_context)
            })?;
            values.insert("emanager.checkpoint_ms", ms(from, Instant::now()));
            let last = *deployment.servers().last().expect("a cluster has servers");
            let from = Instant::now();
            spans.time(root, "emanager.drain", || manager.drain_server(last))?;
            values.insert("emanager.drain_ms", ms(from, Instant::now()));
        }
        Ok(())
    };
    let probed = probes().map_err(|e| format!("probe failed: {e}"));

    let mut serializable = Ok(());
    if let Some(history) = &history {
        let from = Instant::now();
        let checked = spans.time(root, "checker.check", || {
            check_strict_serializability(history)
        });
        values.insert("checker.check_ms", ms(from, Instant::now()));
        values.insert("checker.events_checked", history.event_count() as f64);
        values.insert(
            "checker.edges",
            PrecedenceGraph::build(history).edge_count() as f64,
        );
        serializable = checked
            .map(|_| ())
            .map_err(|violation| format!("history is not strictly serializable: {violation}"));
    }

    let mut outcome = verdict(&deployed, &tally, &[&warmup, &plain, &traced])
        .and(probed)
        .and(serializable);
    deployment.shutdown();
    spans.record_as(root, 0, "workload", 0, epoch, Instant::now());

    let mut all_spans = spans.into_spans();
    all_spans.extend(traced.spans);
    report.spans = trace::totals_by_name(&all_spans)
        .into_iter()
        .map(|(name, (count, total_ns, self_ns))| {
            let ms = |ns: u64| ns as f64 / 1e6;
            (name.to_string(), (count as f64, ms(total_ns), ms(self_ns)))
        })
        .collect();
    let path = out_dir.join(format!("trace-{}.json", workload.name()));
    let written = std::fs::create_dir_all(out_dir).and_then(|()| {
        std::fs::write(
            &path,
            trace::to_json(workload.name(), &all_spans).to_string(),
        )
    });
    if let Err(error) = written {
        outcome = outcome.and(Err(format!("cannot write {}: {error}", path.display())));
    }
    report.error = outcome.err();
    // A metric whose layer is not on the workload's path reads 0.
    report.values = PER_LAYER
        .iter()
        .map(|m| {
            let value = values.get(m.name).copied().unwrap_or(0.0);
            (m.name.to_string(), value)
        })
        .collect();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_delta_keeps_only_the_new_samples() {
        let mut before = LatencyHistogram::new();
        for us in [10, 10, 10, 10] {
            before.record(us);
        }
        let mut after = before;
        for us in [1_000, 1_000, 1_000] {
            after.record(us);
        }
        let delta = histogram_delta(&before, &after);
        assert_eq!(delta.count, 3);
        assert_eq!(delta.p50_micros(), 1_000);
        assert!(after.p50_micros() < 1_000);
    }
}
