//! Checker-driven chaos suite: the paper's strict-serializability claim,
//! verified against *real* cluster executions under fault injection.
//!
//! A randomized concurrent bank workload (transfers + read-only audits)
//! hammers a multi-server cluster while the chaos driver injects
//! coordinated snapshots, snapshot restores, context migrations, a server
//! crash recovered from the last checkpoint, and scale-out — all mid-run.
//! Every event span and context access is recorded through the deployment's
//! history sink (`aeon_checker::HistoryRecorder`), and the recorded history
//! must pass `check_strict_serializability`.
//!
//! The suite also proves its own teeth without any product code: under the
//! same client load, the test itself "captures" the accounts one read-only
//! event at a time and records those reads as *one* event through the
//! recorder's public `begin` / `record` / `completed`.  Over every account
//! that member-at-a-time capture interleaves with a transfer — a conflict
//! cycle the checker rejects; over a single account it is an ordinary read
//! and must be accepted.
//!
//! Runs are seeded (`AEON_CHAOS_SEED`) so failures are reproducible; CI
//! runs this file in release mode under a timeout.

use aeon::checker::OpKind;
use aeon::prelude::*;
use aeon::EventId;
use aeon_apps::bank::{
    bank_class_graph, captured_account_total, deploy_bank, register_bank_factories, BankWorld,
    BankWorldConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const DEFAULT_SEED: u64 = 20260729;
/// Transfers/audits submitted by each client thread per run.
const OPS_PER_CLIENT: usize = 150;
const CLIENTS: usize = 4;
/// Passes of the test-side member-at-a-time capture per negative-control run.
const CAPTURES: u64 = 4;

fn chaos_seed() -> u64 {
    std::env::var("AEON_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(DEFAULT_SEED)
}

fn chaos_config() -> BankWorldConfig {
    BankWorldConfig {
        branches: 4,
        accounts_per_branch: 3,
        shared_pairs: 1,
        shared_accounts: 1,
        initial_balance: 100,
    }
}

/// Spawns the client threads: each submits a seeded random stream of
/// transfers and audits, tolerating errors (fault injection makes some
/// events fail), and pausing while the driver performs a crash.
fn spawn_clients(
    cluster: &Cluster,
    world: &BankWorld,
    seed: u64,
    stop: &Arc<AtomicBool>,
    pause: &Arc<AtomicBool>,
) -> Vec<thread::JoinHandle<usize>> {
    (0..CLIENTS)
        .map(|c| {
            let session = cluster.client();
            let world = world.clone();
            let stop = Arc::clone(stop);
            let pause = Arc::clone(pause);
            thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ ((c as u64 + 1) << 32));
                let mut submitted = 0usize;
                while submitted < OPS_PER_CLIENT && !stop.load(Ordering::SeqCst) {
                    if pause.load(Ordering::SeqCst) {
                        thread::sleep(Duration::from_millis(2));
                        continue;
                    }
                    let b = rng.gen_range(0..world.branches.len());
                    let accounts = &world.accounts_of[b];
                    let from = accounts[rng.gen_range(0..accounts.len())];
                    let to = accounts[rng.gen_range(0..accounts.len())];
                    let amount = rng.gen_range(1..10i64);
                    let outcome = if rng.gen_range(0..12) == 0 {
                        session
                            .submit_readonly_event(world.bank, "audit", args![])
                            .and_then(|h| h.wait())
                    } else {
                        session
                            .submit_event(world.branches[b], "transfer", args![from, to, amount])
                            .and_then(|h| h.wait())
                    };
                    // Errors are expected under fault injection (crashed
                    // members, in-flight migrations); the order-level check
                    // at the end is what matters.
                    let _ = outcome;
                    submitted += 1;
                }
                submitted
            })
        })
        .collect()
}

/// Crashes one server and recovers the cluster from `checkpoint`: the lost
/// contexts are re-hosted from the checkpointed state (a `Null` state for
/// contexts the snapshot skipped), then the whole subtree is rewound to the
/// checkpoint so the recovered system is a consistent cut — which keeps the
/// conservation invariant intact for later snapshots.
fn crash_and_recover(cluster: &Cluster, checkpoint: &Snapshot, pause: &Arc<AtomicBool>) {
    pause.store(true, Ordering::SeqCst);
    // Clients are synchronous; once they observe the pause flag their last
    // event has completed, so this drain leaves (almost) nothing in flight.
    thread::sleep(Duration::from_millis(300));
    let servers = cluster.servers();
    if servers.len() < 2 {
        pause.store(false, Ordering::SeqCst);
        return;
    }
    // Never crash the server hosting the bank root's sequencer-bearing
    // subtree entry point is fine too, but picking the last server keeps
    // the choice deterministic.
    let victim = *servers.last().unwrap();
    let survivor = servers[0];
    let lost = cluster.contexts_on(victim);
    cluster.crash_server(victim).unwrap();
    for context in lost {
        let state = checkpoint
            .get(context)
            .map(|e| e.state.clone())
            .unwrap_or(Value::Null);
        cluster
            .restore_context(context, &state, survivor)
            .expect("re-hosting a checkpointed context succeeds");
    }
    cluster
        .restore_snapshot(checkpoint)
        .expect("rewinding to the checkpoint succeeds");
    // Scale back out so later migrations have somewhere to go.
    let _ = cluster.add_server();
    pause.store(false, Ordering::SeqCst);
}

/// One full chaos run; returns the recorded history.
fn run_chaos(seed: u64, transport: ClusterTransport) -> History {
    let cluster = Cluster::builder()
        .servers(3)
        .class_graph(bank_class_graph())
        .transport(transport)
        .build()
        .unwrap();
    register_bank_factories(&cluster);
    let recorder = HistoryRecorder::new();
    cluster.install_history_sink(Arc::new(recorder.clone()));
    let config = chaos_config();
    let world = deploy_bank(&cluster, &config).unwrap();
    let expected = world.expected_total(&config);

    let stop = Arc::new(AtomicBool::new(false));
    let pause = Arc::new(AtomicBool::new(false));
    let clients = spawn_clients(&cluster, &world, seed, &stop, &pause);

    let mut rng = StdRng::seed_from_u64(seed);
    let mut checkpoint: Option<Snapshot> = None;
    let mut crashed = false;
    while clients.iter().any(|c| !c.is_finished()) {
        thread::sleep(Duration::from_millis(20));
        match rng.gen_range(0..8) {
            // Coordinated snapshot mid-load: the captured cut must
            // conserve the total balance — the crash-consistency
            // claim itself.  (Snapshots may fail transiently when they race
            // a migration; that is fine, consistency of successful cuts is
            // what is asserted.)
            0..=3 => {
                if let Ok(snapshot) = cluster.snapshot_context(world.bank) {
                    if !crashed {
                        assert_eq!(
                            captured_account_total(&snapshot),
                            expected,
                            "frozen snapshot cut is torn (seed {seed})"
                        );
                    }
                    checkpoint = Some(snapshot);
                }
            }
            // Rewind the live system to the last checkpoint mid-load.
            4 => {
                if let Some(snapshot) = &checkpoint {
                    let _ = cluster.restore_snapshot(snapshot);
                }
            }
            // Migrate a random account to a random server.
            5 | 6 => {
                let account = world.accounts[rng.gen_range(0..world.accounts.len())];
                let servers = cluster.servers();
                let target = servers[rng.gen_range(0..servers.len())];
                let _ = cluster.migrate_context(account, target);
            }
            // Crash a server once and recover it from the checkpoint.
            _ => {
                if !crashed {
                    if let Some(snapshot) = checkpoint.clone() {
                        crash_and_recover(&cluster, &snapshot, &pause);
                        crashed = true;
                    }
                }
            }
        }
    }
    stop.store(true, Ordering::SeqCst);
    let submitted: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(submitted, CLIENTS * OPS_PER_CLIENT);
    cluster.shutdown();
    recorder.history()
}

#[test]
fn chaos_cluster_history_is_strictly_serializable() {
    let seed = chaos_seed();
    for round in 0..2u64 {
        let history = run_chaos(seed.wrapping_add(round), ClusterTransport::default());
        assert!(
            history.operation_count() >= 1_000,
            "expected a >=1k-op history, got {} (seed {seed}, round {round})",
            history.operation_count()
        );
        if let Err(violation) = check_strict_serializability(&history) {
            panic!("seed {seed} round {round}: {violation}");
        }
    }
}

/// The same chaos workload over the real wire path: every inter-server hop
/// crosses the TCP loopback transport, so the serializability guarantee the
/// static analyzer certifies at deploy time is exercised end to end on the
/// transport a production cluster would use.
#[test]
fn chaos_cluster_history_is_strictly_serializable_over_tcp_loopback() {
    let seed = chaos_seed().wrapping_add(0x7c9);
    let history = run_chaos(seed, ClusterTransport::TcpLoopback);
    assert!(
        history.operation_count() >= 1_000,
        "expected a >=1k-op history, got {} (seed {seed})",
        history.operation_count()
    );
    if let Err(violation) = check_strict_serializability(&history) {
        panic!("tcp-loopback seed {seed}: {violation}");
    }
}

/// The negative control's driver.  Under the chaos client load (no faults),
/// the test repeatedly reads the first `members` accounts one read-only
/// event at a time and records each pass as a *single* event reading all of
/// them — what a snapshot without the coordinated freeze would amount to.
/// Its ids come from the top of the `u64` range, clear of the backend's.
/// The load is stopped after [`CAPTURES`] passes: a rejected history costs
/// the checker a cycle search from every event left unordered, so the
/// negative control keeps its history small.
fn run_member_at_a_time_capture(seed: u64, members: usize) -> History {
    let cluster = Cluster::builder()
        .servers(3)
        .class_graph(bank_class_graph())
        .build()
        .unwrap();
    let recorder = HistoryRecorder::new();
    cluster.install_history_sink(Arc::new(recorder.clone()));
    let world = deploy_bank(&cluster, &chaos_config()).unwrap();

    let stop = Arc::new(AtomicBool::new(false));
    let pause = Arc::new(AtomicBool::new(false));
    let clients = spawn_clients(&cluster, &world, seed, &stop, &pause);
    let session = cluster.client();
    for n in 1..=CAPTURES {
        let capture = EventId::new(u64::MAX - n);
        recorder.begin(capture);
        for account in world.accounts.iter().take(members) {
            session.call_readonly(*account, "read", args![]).unwrap();
            recorder.record(capture, *account, OpKind::Read);
        }
        recorder.completed(capture);
    }
    stop.store(true, Ordering::SeqCst);
    for client in clients {
        client.join().unwrap();
    }
    cluster.shutdown();
    recorder.history()
}

#[test]
fn torn_member_at_a_time_snapshot_is_caught_by_the_checker() {
    let seed = chaos_seed().wrapping_add(0x7021);
    for attempt in 0..3u64 {
        let history = run_member_at_a_time_capture(seed.wrapping_add(attempt), usize::MAX);
        if check_strict_serializability(&history).is_err() {
            return;
        }
    }
    panic!("the member-at-a-time capture was never caught by the checker");
}

/// The control of the control: the same driver over a single account is an
/// ordinary atomic read, so a rejection above is due to the tearing and not
/// to recording a capture from the test side.
#[test]
fn single_member_capture_passes_the_checker() {
    let seed = chaos_seed().wrapping_add(0x7021);
    let history = run_member_at_a_time_capture(seed, 1);
    if let Err(violation) = check_strict_serializability(&history) {
        panic!("seed {seed}: {violation}");
    }
}

/// Satellite regression: a snapshot whose member's owner node crashed
/// mid-freeze must fail with a clean error and leave no stranded locks on
/// the surviving members.
#[test]
fn crashed_member_mid_freeze_fails_cleanly_and_thaws_survivors() {
    let cluster = Cluster::builder()
        .servers(3)
        .class_graph(bank_class_graph())
        .build()
        .unwrap();
    register_bank_factories(&cluster);
    let config = BankWorldConfig {
        branches: 3,
        accounts_per_branch: 2,
        shared_pairs: 0,
        shared_accounts: 0,
        initial_balance: 50,
    };
    let world = deploy_bank(&cluster, &config).unwrap();
    // Ownership co-location puts the whole tree next to the root; spread a
    // couple of members so the freeze really spans servers.
    let root_server = cluster.placement_of(world.bank).unwrap();
    let victim = cluster
        .servers()
        .into_iter()
        .find(|s| *s != root_server)
        .unwrap();
    cluster.migrate_context(world.accounts[0], victim).unwrap();
    cluster.migrate_context(world.accounts[1], victim).unwrap();
    let lost = cluster.contexts_on(victim);
    assert!(!lost.is_empty());
    cluster.crash_server(victim).unwrap();

    let err = cluster.snapshot_context(world.bank).unwrap_err();
    assert!(
        matches!(err, AeonError::SnapshotFailed { context, .. } if context == world.bank),
        "expected a clean SnapshotFailed, got: {err}"
    );

    // No stranded locks: every surviving member still accepts events.
    let session = cluster.client();
    for account in &world.accounts {
        if cluster.placement_of(*account).unwrap() == victim {
            continue;
        }
        assert_eq!(
            session
                .submit_event(*account, "add", args![1i64])
                .unwrap()
                .wait()
                .unwrap(),
            Value::from(51i64),
            "surviving account {account} is still usable after the failed freeze"
        );
    }

    // After re-hosting the lost members, the coordinated snapshot succeeds
    // and sees every account.
    for context in lost {
        cluster
            .restore_context(context, &Value::Null, root_server)
            .unwrap();
    }
    let snapshot = cluster.snapshot_context(world.bank).unwrap();
    let accounts_captured = snapshot
        .entries()
        .filter(|(_, e)| e.class == "Account")
        .count();
    assert_eq!(accounts_captured, world.accounts.len());
    cluster.shutdown();
}

/// Drives transfers + certified read-only bursts while the main thread
/// takes coordinated snapshots, and returns the recorded history plus the
/// number of completed fast-path-eligible reads.
///
/// The certified fast path (`Account::read` is `ro` with a `calls []`
/// summary) skips dominator sequencing, so a burst of fast reads racing a
/// snapshot freeze is the adversarial case for the certification argument:
/// frozen cuts must still conserve the total balance and the full history
/// must stay strictly serializable.
fn fast_path_mid_snapshot_scenario(deployment: &dyn Deployment, seed: u64) -> (History, usize) {
    let recorder = HistoryRecorder::new();
    deployment.install_history_sink(Arc::new(recorder.clone()));
    let config = chaos_config();
    let world = deploy_bank(deployment, &config).unwrap();
    let expected = world.expected_total(&config);
    let stop = Arc::new(AtomicBool::new(false));

    let reads = thread::scope(|scope| {
        // Writers keep the accounts hot with conflicting transfers.
        let mut writers = Vec::new();
        for c in 0..2u64 {
            let session = deployment.session();
            let world = world.clone();
            let stop = Arc::clone(&stop);
            writers.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (c + 1));
                while !stop.load(Ordering::SeqCst) {
                    let b = rng.gen_range(0..world.branches.len());
                    let accounts = &world.accounts_of[b];
                    let from = accounts[rng.gen_range(0..accounts.len())];
                    let to = accounts[rng.gen_range(0..accounts.len())];
                    let _ = session
                        .submit_event(world.branches[b], "transfer", args![from, to, 1i64])
                        .and_then(|h| h.wait());
                }
            }));
        }
        // Readers hammer the certified read-only fast path.
        let mut readers = Vec::new();
        for c in 0..2u64 {
            let session = deployment.session();
            let world = world.clone();
            let stop = Arc::clone(&stop);
            readers.push(scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ ((c + 1) << 16));
                let mut reads = 0usize;
                while !stop.load(Ordering::SeqCst) {
                    let account = world.accounts[rng.gen_range(0..world.accounts.len())];
                    if session
                        .submit_readonly_event(account, "read", args![])
                        .and_then(|h| h.wait())
                        .is_ok()
                    {
                        reads += 1;
                    }
                }
                reads
            }));
        }
        // Coordinated snapshots mid-burst: every successful frozen cut must
        // conserve the total balance despite the unsequenced fast reads.
        let mut cuts = 0;
        while cuts < 6 {
            if let Ok(snapshot) = deployment.snapshot_context(world.bank) {
                assert_eq!(
                    captured_account_total(&snapshot),
                    expected,
                    "frozen cut torn under fast-path reads (seed {seed})"
                );
                cuts += 1;
            }
            thread::sleep(Duration::from_millis(5));
        }
        stop.store(true, Ordering::SeqCst);
        for writer in writers {
            writer.join().unwrap();
        }
        readers.into_iter().map(|r| r.join().unwrap()).sum()
    });
    (recorder.history(), reads)
}

#[test]
fn readonly_fast_path_burst_mid_snapshot_stays_strictly_serializable() {
    let seed = chaos_seed().wrapping_add(0x4e0);

    // Cluster leg (Channel transport): fast reads route as pre-sequenced
    // Exec messages straight to the target's server.
    let cluster = Cluster::builder()
        .servers(3)
        .class_graph(bank_class_graph())
        .build()
        .unwrap();
    register_bank_factories(&cluster);
    let (history, reads) = fast_path_mid_snapshot_scenario(&cluster, seed);
    assert!(
        cluster.fast_path_events() >= reads as u64,
        "every certified read takes the fast path ({} events, {reads} reads)",
        cluster.fast_path_events()
    );
    cluster.shutdown();
    assert!(history.operation_count() > 200);
    if let Err(violation) = check_strict_serializability(&history) {
        panic!("cluster fast-path burst, seed {seed}: {violation}");
    }

    // Runtime leg: fast reads run under a shared object lock without
    // dominator sequencing or exclusive activation.
    let runtime = AeonRuntime::builder()
        .servers(2)
        .class_graph(bank_class_graph())
        .build()
        .unwrap();
    let (history, reads) = fast_path_mid_snapshot_scenario(&runtime, seed ^ 0xa5);
    assert!(
        runtime.executor_stats().fast_path >= reads as u64,
        "every certified read takes the fast path ({} events, {reads} reads)",
        runtime.executor_stats().fast_path
    );
    runtime.shutdown();
    assert!(history.operation_count() > 200);
    if let Err(violation) = check_strict_serializability(&history) {
        panic!("runtime fast-path burst, seed {seed}: {violation}");
    }
}

// ---------------------------------------------------------------------------
// Hot-dominator migration under Zipfian load (the social workload)
// ---------------------------------------------------------------------------

/// Zipf-skewed social traffic hammers the celebrity users while the driver
/// live-migrates their dominators (regions, celebrities, celebrity feeds)
/// between servers.  Migration moves exactly the contexts whose sequencers
/// order most of the traffic, so any window where a sequencer's event
/// stream escapes its lock shows up as a precedence cycle.
fn run_social_migration_chaos(deployment: &dyn Deployment, seed: u64) -> History {
    use aeon_apps::social::{deploy_social, generate_plan, register_social_factories, SocialOp};

    register_social_factories(deployment);
    let recorder = HistoryRecorder::new();
    deployment.install_history_sink(Arc::new(recorder.clone()));
    let config = aeon_apps::SocialConfig {
        regions: 2,
        users: 24,
        chain_depth: 6,
        follows_per_user: 3,
        zipf_s: 1.3,
        feed_capacity: 8,
        seed,
    };
    let world = deploy_social(deployment, &config).unwrap();
    let plan = generate_plan(&config);
    let ops_per_client = 120usize;

    thread::scope(|scope| {
        let mut clients = Vec::new();
        for c in 0..CLIENTS {
            let session = deployment.session();
            let ops = plan.request_stream(ops_per_client, seed ^ ((c as u64 + 1) << 16));
            let world = &world;
            clients.push(scope.spawn(move || {
                let mut applied = 0usize;
                for op in &ops {
                    // Events racing a migration may fail transiently; the
                    // serializability of what *did* execute is the claim.
                    let outcome = match *op {
                        SocialOp::Post { user, payload } => {
                            session.call(world.users[user as usize], "post", args![payload])
                        }
                        SocialOp::Timeline { user } => {
                            session.call_readonly(world.users[user as usize], "timeline", args![])
                        }
                        SocialOp::FeedLen { user } => {
                            session.call_readonly(world.feeds[user as usize], "len", args![])
                        }
                    };
                    applied += usize::from(outcome.is_ok());
                }
                applied
            }));
        }

        // The chaos driver: keep migrating hot dominators while clients run.
        let hot = world.hot_dominators(4);
        let servers = deployment.servers();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut migrations = 0usize;
        while clients.iter().any(|c| !c.is_finished()) {
            thread::sleep(Duration::from_millis(5));
            let target = hot[rng.gen_range(0..hot.len())];
            let to = servers[rng.gen_range(0..servers.len())];
            migrations += usize::from(deployment.migrate_context(target, to).is_ok());
        }

        let applied: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert!(
            applied >= CLIENTS * ops_per_client / 2,
            "too few events survived migration chaos: {applied}"
        );
        assert!(migrations > 0, "the driver never migrated a hot dominator");
    });
    recorder.history()
}

#[test]
fn social_hot_dominator_migration_is_strictly_serializable() {
    let seed = chaos_seed();

    let runtime = AeonRuntime::builder()
        .servers(3)
        .class_graph(aeon_apps::social::social_class_graph())
        .build()
        .unwrap();
    let history = run_social_migration_chaos(&runtime, seed);
    runtime.shutdown();
    assert!(
        history.operation_count() >= 500,
        "expected a >=500-op history, got {} (seed {seed})",
        history.operation_count()
    );
    if let Err(violation) = check_strict_serializability(&history) {
        panic!("runtime social migration chaos, seed {seed}: {violation}");
    }

    let cluster = Cluster::builder()
        .servers(3)
        .class_graph(aeon_apps::social::social_class_graph())
        .build()
        .unwrap();
    let history = run_social_migration_chaos(&cluster, seed ^ 0x50c1a1);
    cluster.shutdown();
    assert!(
        history.operation_count() >= 500,
        "expected a >=500-op history, got {} (seed {seed})",
        history.operation_count()
    );
    if let Err(violation) = check_strict_serializability(&history) {
        panic!("cluster social migration chaos, seed {seed}: {violation}");
    }
}

/// Backend sanity for the recording surface itself: the deterministic
/// simulator records serial histories by construction, and the recorder's
/// adapter sees snapshot captures as reads and restores as writes.
#[test]
fn sim_backend_records_serial_histories_with_snapshot_events() {
    let sim = SimDeployment::builder()
        .servers(2)
        .class_graph(bank_class_graph())
        .build()
        .unwrap();
    let recorder = HistoryRecorder::new();
    Deployment::install_history_sink(&sim, Arc::new(recorder.clone()));
    let config = chaos_config();
    let world = deploy_bank(&sim, &config).unwrap();
    let session = Deployment::session(&sim);
    for i in 0..20i64 {
        let b = (i as usize) % world.branches.len();
        let accounts = &world.accounts_of[b];
        session
            .call(
                world.branches[b],
                "transfer",
                args![accounts[0], accounts[1], 1i64],
            )
            .unwrap();
    }
    let snapshot = sim.snapshot_context(world.bank).unwrap();
    sim.restore_snapshot(&snapshot).unwrap();
    let history = recorder.history();
    assert!(history.operation_count() > 60);
    check_strict_serializability(&history).expect("the inline engine is serial by construction");
    sim.shutdown();
}
