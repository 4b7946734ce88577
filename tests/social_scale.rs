//! Scale and sanity checks for the Zipfian social-graph workload.
//!
//! Smoke-size runs execute on all three backends in CI and assert the
//! invariants that matter at scale: the directory (placement lookups agree
//! with per-server rosters), the placement spread, the `server_metrics()`
//! proxy gauges, and the memory bound (feed ring buffers never exceed
//! their configured capacity no matter how skewed the post stream is).
//!
//! The full-scale leg deploys ≥ 10⁶ contexts on the runtime backend and is
//! gated behind `AEON_SOCIAL_SCALE=1` (it allocates roughly a million
//! live contexts; CI runs it as a step of its own after the smoke one):
//!
//! ```text
//! AEON_SOCIAL_SCALE=1 cargo test --release --test social_scale social_full_scale -- --nocapture
//! ```
//!
//! It prints how long the deployment took and the process's peak resident
//! set, which is what shows working memory that grows per query or per
//! thread instead of per deployment.
//!
//! The deterministic-replay regression at the bottom runs the same seeded
//! stream twice through the virtual-time simulator and requires bitwise
//! identical histories — the property every seeded repro in this repo
//! leans on.

use aeon::prelude::*;
use aeon_apps::social::{
    deploy_social, generate_plan, register_social_factories, run_social_stream, social_class_graph,
    SocialConfig,
};
use std::sync::Arc;

fn chaos_seed() -> u64 {
    std::env::var("AEON_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20260729)
}

fn smoke_config() -> SocialConfig {
    SocialConfig {
        regions: 2,
        users: 48,
        chain_depth: 6,
        follows_per_user: 3,
        zipf_s: 1.2,
        feed_capacity: 8,
        seed: chaos_seed(),
    }
}

/// The invariants a healthy deployment upholds at any scale.
fn assert_deployment_sane(deployment: &dyn Deployment, config: &SocialConfig) {
    let total = deployment.context_count();
    assert_eq!(
        total,
        config.total_contexts(),
        "backend {} lost or duplicated contexts",
        deployment.backend_name()
    );

    // Metrics: per-server context counts partition the fleet, and every
    // proxy gauge stays in its documented range.
    let metrics = deployment.server_metrics();
    let hosted: usize = metrics.iter().map(|m| m.context_count).sum();
    assert_eq!(hosted, total, "server_metrics context counts must sum up");
    for m in &metrics {
        assert!((0.0..=1.0).contains(&m.cpu), "cpu gauge out of range");
        assert!((0.0..=1.0).contains(&m.memory), "memory gauge out of range");
        assert!((0.0..=1.0).contains(&m.io), "io gauge out of range");
        assert!(m.avg_latency_ms >= 0.0);
    }

    // Directory: the per-server rosters and the point lookups must agree,
    // and together cover the whole fleet.
    let mut roster_total = 0usize;
    for server in deployment.servers() {
        let contexts = deployment.contexts_on(server);
        roster_total += contexts.len();
        // Point-check a bounded sample so the full-scale leg stays cheap.
        for context in contexts.iter().step_by((contexts.len() / 64).max(1)) {
            assert_eq!(
                deployment.placement_of(*context).unwrap(),
                server,
                "directory lookup disagrees with server roster"
            );
        }
    }
    assert_eq!(
        roster_total, total,
        "server rosters must partition the fleet"
    );
}

/// Deploys the smoke-size graph, replays the skewed stream, and checks
/// sanity plus the feed memory bound on the given backend.
fn smoke_scenario(deployment: &dyn Deployment) {
    register_social_factories(deployment);
    let config = smoke_config();
    let world = deploy_social(deployment, &config).unwrap();
    assert_deployment_sane(deployment, &config);

    let ops = generate_plan(&config).request_stream(400, config.seed);
    let session = deployment.session();
    let report = run_social_stream(session.as_ref(), &world, &ops).unwrap();
    assert_eq!((report.posts + report.reads) as usize, ops.len());
    assert!(report.posts > 0, "zipfian stream must contain posts");

    // Memory bound: no feed ever holds more than its ring capacity, even
    // the celebrity feeds that absorb most of the skewed post volume.
    for feed in &world.feeds {
        let len = session
            .call_readonly(*feed, "len", args![])
            .unwrap()
            .as_i64()
            .unwrap();
        assert!(
            (0..=config.feed_capacity as i64).contains(&len),
            "feed overflowed its capacity bound: {len}"
        );
    }
    assert_deployment_sane(deployment, &config);
}

#[test]
fn social_smoke_on_runtime() {
    let runtime = AeonRuntime::builder()
        .servers(3)
        .class_graph(social_class_graph())
        .build()
        .unwrap();
    smoke_scenario(&runtime);
    runtime.shutdown();
}

#[test]
fn social_smoke_on_cluster() {
    let cluster = Cluster::builder()
        .servers(3)
        .class_graph(social_class_graph())
        .build()
        .unwrap();
    smoke_scenario(&cluster);
    cluster.shutdown();
}

#[test]
fn social_smoke_on_sim() {
    let sim = SimDeployment::builder()
        .servers(3)
        .contention(2)
        .class_graph(social_class_graph())
        .build()
        .unwrap();
    smoke_scenario(&sim);
    assert!(sim.virtual_now() > aeon_types::SimTime::ZERO);
}

/// ≥ 10⁶ live contexts on the runtime backend: 8 regions, 500 000 users,
/// and 500 000 feeds.  Follower fan-out is disabled at this scale (the
/// knob exists precisely so the graph generator stays linear); the
/// directory, placement, metrics, and feed memory bound are asserted
/// exactly as at smoke size.
#[test]
fn social_full_scale_million_contexts() {
    if std::env::var("AEON_SOCIAL_SCALE").is_err() {
        eprintln!("social_full_scale_million_contexts: skipped (set AEON_SOCIAL_SCALE=1)");
        return;
    }
    let config = SocialConfig {
        regions: 8,
        users: 500_000,
        chain_depth: 16,
        follows_per_user: 0,
        zipf_s: 1.1,
        feed_capacity: 8,
        seed: chaos_seed(),
    };
    assert!(config.total_contexts() >= 1_000_000);
    let runtime = AeonRuntime::builder()
        .servers(4)
        .class_graph(social_class_graph())
        .build()
        .unwrap();
    let started = std::time::Instant::now();
    let world = deploy_social(&runtime, &config).unwrap();
    eprintln!(
        "social_full_scale_million_contexts: {} contexts deployed in {:.1} s",
        config.total_contexts(),
        started.elapsed().as_secs_f64()
    );
    assert_deployment_sane(&runtime, &config);

    // A bounded skewed stream over the million-context graph; the feeds it
    // hits must respect the ring capacity.
    let ops = generate_plan(&config).request_stream(2_000, config.seed);
    let session = runtime.client();
    let report = run_social_stream(&session, &world, &ops).unwrap();
    assert_eq!((report.posts + report.reads) as usize, ops.len());
    for feed in world.feeds.iter().step_by(10_000) {
        let len = session
            .call_readonly(*feed, "len", args![])
            .unwrap()
            .as_i64()
            .unwrap();
        assert!((0..=config.feed_capacity as i64).contains(&len));
    }
    assert_deployment_sane(&runtime, &config);
    runtime.shutdown();
    eprintln!(
        "social_full_scale_million_contexts: peak resident set {}",
        peak_resident_set().as_deref().unwrap_or("unknown")
    );
}

/// The `VmHWM` line of `/proc/self/status` (Linux only, best effort).
fn peak_resident_set() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    Some(line["VmHWM:".len()..].trim().to_string())
}

/// Deterministic-replay regression: the same seed must produce bitwise
/// identical histories (and identical virtual clocks) across two
/// independent simulator runs.  Catches hidden nondeterminism — iteration
/// over unordered maps, ambient randomness, wall-clock leakage — anywhere
/// in the virtual-time engine or the workload generator.
#[test]
fn social_replay_is_deterministic_in_sim() {
    let run = || {
        let sim = SimDeployment::builder()
            .servers(3)
            .contention(2)
            .class_graph(social_class_graph())
            .build()
            .unwrap();
        register_social_factories(&sim);
        let recorder = HistoryRecorder::new();
        sim.install_history_sink(Arc::new(recorder.clone()));
        let config = smoke_config();
        let world = deploy_social(&sim, &config).unwrap();
        let ops = generate_plan(&config).request_stream(300, config.seed);
        let session = sim.client();
        run_social_stream(&session, &world, &ops).unwrap();
        (recorder.history(), sim.virtual_now())
    };
    let (history_a, clock_a) = run();
    let (history_b, clock_b) = run();
    assert!(history_a.operation_count() > 0);
    assert_eq!(clock_a, clock_b, "virtual clocks diverged between replays");
    assert_eq!(history_a, history_b, "replay produced a different history");
}
