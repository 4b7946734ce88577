//! A cluster on pools of one worker stays live with nothing watching it.
//!
//! A node's pool is fixed-size, and an event's waits — for its sequencer,
//! for a context another event holds, for the reply to a remote call — may
//! end only after a task queued behind them runs.  Two rules keep that from
//! wedging the pool (`crates/cluster/src/node.rs`): a unit of work — an
//! `Act`, an `Exec`, a certified read, a `Call` — whose first lock is held
//! leaves a grant in the lock's queue instead of a parked worker, and every
//! other wait is announced with `block_in_place`, which hands the rest of
//! the worker's batch back and keeps `workers` threads running the queues
//! beside it.  Each scenario below
//! would hang on a pool of one without them, so each runs under a watchdog
//! (and ten times optimised in CI's hang detector).

use aeon::prelude::*;
use aeon_apps::bank::{deploy_bank, register_bank_factories, BankWorld, BankWorldConfig};
use aeon_apps::game::{deploy_game, game_class_graph};
use std::sync::mpsc;
use std::time::Duration;

/// Runs `scenario` on a thread of its own and fails the test if it has not
/// finished after `WATCHDOG`: a hang fails, it does not stall the suite.
fn within(what: &str, scenario: impl FnOnce() + Send + 'static) {
    const WATCHDOG: Duration = Duration::from_secs(20);
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || {
        scenario();
        let _ = done.send(());
    });
    match finished.recv_timeout(WATCHDOG) {
        Ok(()) => {}
        Err(mpsc::RecvTimeoutError::Timeout) => panic!("{what}: hung for {WATCHDOG:?}"),
        Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{what}: the scenario panicked"),
    }
}

fn pool_of_one(servers: usize) -> Cluster {
    Cluster::builder()
        .servers(servers)
        .worker_threads(1)
        .build()
        .unwrap()
}

/// Threads the nodes' pools started for announced waits, so far.
fn started(cluster: &Cluster) -> u64 {
    cluster
        .executor_stats()
        .values()
        .map(|stats| stats.spill_spawned)
        .sum()
}

/// Submits every `(target, method, args, mode)` at once, then waits for all
/// of them; returns their results in order.
fn burst(cluster: &Cluster, events: Vec<(ContextId, &str, Args, AccessMode)>) -> Vec<Value> {
    let client = cluster.client();
    let handles: Vec<_> = events
        .into_iter()
        .map(|(target, method, args, mode)| client.submit(target, method, args, mode).unwrap())
        .collect();
    handles
        .into_iter()
        .map(|handle| handle.wait().unwrap())
        .collect()
}

/// (a) One room, every context on one server, one worker.  64 `get_gold`s
/// queue on the room, their sequencer: each is granted when the one before
/// it releases, so no worker ever waits and no thread is started.  Four
/// `count_players` beside them enter the held room read-only — a contended
/// activation, which is announced and may start threads; all complete.
#[test]
fn a_room_on_a_pool_of_one_sequences_a_burst_by_grants() {
    within("(a) one room, one worker", || {
        let cluster = Cluster::builder()
            .servers(1)
            .worker_threads(1)
            .class_graph(game_class_graph())
            .build()
            .unwrap();
        let world = deploy_game(&cluster, 1, 8).unwrap();
        let players = world.players[0].clone();
        let gold = |i: usize| (players[i % 8], "get_gold", args![1], AccessMode::Exclusive);

        let before = started(&cluster);
        let results = burst(&cluster, (0..64).map(gold).collect());
        assert!(results.iter().all(|r| *r == Value::Bool(true)));
        assert_eq!(started(&cluster), before, "a worker waited for the room");

        let mut events: Vec<_> = (0..64).map(gold).collect();
        for at in [0, 16, 32, 48] {
            let count = (
                world.building,
                "count_players",
                args![],
                AccessMode::ReadOnly,
            );
            events.insert(at, count);
        }
        let results = burst(&cluster, events);
        assert_eq!(
            results.iter().filter(|r| **r == Value::from(8i64)).count(),
            4
        );
        let session = cluster.session();
        assert_eq!(
            session
                .call_readonly(world.treasures[0], "get", args!["gold"])
                .unwrap(),
            Value::from(128i64)
        );
        cluster.shutdown();
    });
}

/// A bank on two servers at `worker_threads(1)`, contexts placed by `place`
/// (which gets the bank's ids and the two servers).
fn placed_bank(
    config: &BankWorldConfig,
    place: impl Fn(&BankWorld, [ServerId; 2]) -> Vec<(ContextId, ServerId)>,
) -> (Cluster, BankWorld) {
    let cluster = pool_of_one(2);
    register_bank_factories(&cluster);
    let world = deploy_bank(&cluster, config).unwrap();
    let servers = cluster.servers();
    for (context, server) in place(&world, [servers[0], servers[1]]) {
        if cluster.placement_of(context).unwrap() != server {
            cluster.migrate_context(context, server).unwrap();
        }
    }
    (cluster, world)
}

/// Total of every account's balance.
fn balances(cluster: &Cluster, world: &BankWorld) -> i64 {
    let session = cluster.session();
    world
        .accounts
        .iter()
        .map(|a| session.call_readonly(*a, "read", args![]).unwrap())
        .map(|v| v.as_i64().unwrap())
        .sum()
}

/// (b) Branch 0 on server A with its accounts on B, branch 1 on B with its
/// accounts on A, one worker each.  An `add` is sequenced at its branch and
/// executed at the account's server; a `transfer` executes at its branch
/// and calls both accounts on the other server — so each server's worker
/// waits on the other's.
#[test]
fn dominators_and_their_targets_on_opposite_servers_stay_live() {
    within("(b) crossed placement, one worker each", || {
        let config = BankWorldConfig {
            branches: 2,
            accounts_per_branch: 4,
            shared_pairs: 0,
            ..BankWorldConfig::default()
        };
        let (cluster, world) = placed_bank(&config, |world, [a, b]| {
            let mut placement = vec![(world.branches[0], a), (world.branches[1], b)];
            placement.extend(world.accounts_of[0].iter().map(|c| (*c, b)));
            placement.extend(world.accounts_of[1].iter().map(|c| (*c, a)));
            placement
        });
        let mut events = Vec::new();
        for round in 0..8 {
            for (branch, accounts) in world.branches.iter().zip(&world.accounts_of) {
                for account in accounts {
                    events.push((*account, "add", args![1i64], AccessMode::Exclusive));
                }
                let (from, to) = (accounts[round % 4], accounts[(round + 1) % 4]);
                let transfer = args![from, to, 5i64];
                events.push((*branch, "transfer", transfer, AccessMode::Exclusive));
            }
        }
        burst(&cluster, events);
        assert_eq!(
            balances(&cluster, &world),
            world.expected_total(&config) + 8 * 8,
            "an add was lost or a transfer torn"
        );
        cluster.shutdown();
    });
}

/// `pass` calls the next relay, synchronously; the last one increments a
/// counter of its own.
#[derive(Debug)]
struct Relay {
    next: Option<ContextId>,
    passed: i64,
}

impl ContextObject for Relay {
    fn class_name(&self) -> &str {
        "Relay"
    }

    fn handle(&mut self, method: &str, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match (method, self.next) {
            ("pass", Some(next)) => inv.call(next, "pass", args![]),
            ("pass", None) => {
                self.passed += 1;
                Ok(Value::from(self.passed))
            }
            _ => Err(AeonError::UnknownMethod {
                class: "Relay".into(),
                method: method.into(),
            }),
        }
    }
}

/// (d) Remote calls nested A → B → A, one worker on each server: A's worker
/// waits on B, whose worker waits on a call that must run on A.  Beside
/// them, `Bank::audit` on A reads the branches on B and the accounts back
/// on A, `Branch::total` on B reads the accounts on A, and `add`s
/// sequenced on B execute on A.  Concurrent audits share the bank's
/// activation and take turns at its object, which one of them holds while
/// it waits on B: that turn is a wait to announce too.
#[test]
fn remote_calls_nested_across_two_pools_of_one_complete() {
    within("(d) nested remote calls, one worker each", || {
        let config = BankWorldConfig {
            branches: 2,
            accounts_per_branch: 3,
            ..BankWorldConfig::default()
        };
        let (cluster, world) = placed_bank(&config, |world, [a, b]| {
            let mut placement = vec![(world.bank, a)];
            placement.extend(world.branches.iter().map(|c| (*c, b)));
            placement.extend(world.accounts.iter().map(|c| (*c, a)));
            placement
        });
        let servers = cluster.servers();
        let relay = |next, server| {
            cluster
                .create_context(
                    Box::new(Relay { next, passed: 0 }),
                    Placement::Server(server),
                )
                .unwrap()
        };
        let leaf = relay(None, servers[0]);
        let middle = relay(Some(leaf), servers[1]);
        let top = relay(Some(middle), servers[0]);
        cluster.add_ownership(top, middle).unwrap();
        cluster.add_ownership(middle, leaf).unwrap();

        let total = world.expected_total(&config);
        let mut events = Vec::new();
        for round in 0..8 {
            events.push((top, "pass", args![], AccessMode::Exclusive));
            events.push((world.bank, "audit", args![], AccessMode::ReadOnly));
            let branch = world.branches[round % 2];
            events.push((branch, "total", args![], AccessMode::ReadOnly));
            let account = world.accounts_of[round % 2][0];
            events.push((account, "add", args![0i64], AccessMode::Exclusive));
        }
        let results = burst(&cluster, events);
        let mut audits = results.iter().skip(1).step_by(4);
        assert!(audits.all(|audit| *audit == Value::from(total)));
        let mut passes: Vec<i64> = results
            .iter()
            .step_by(4)
            .map(|v| v.as_i64().unwrap())
            .collect();
        passes.sort_unstable();
        assert_eq!(passes, (1..=8).collect::<Vec<_>>());
        cluster.shutdown();
    });
}

/// A context whose `hold` keeps it for 300 ms after saying it started;
/// `poke` writes nothing, `peek` is a certified read.
struct Sleeper {
    started: mpsc::Sender<()>,
}

impl ContextObject for Sleeper {
    fn class_name(&self) -> &str {
        "Sleeper"
    }

    fn handle(&mut self, method: &str, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        match method {
            "hold" => {
                let _ = self.started.send(());
                std::thread::sleep(Duration::from_millis(300));
                Ok(Value::from("held"))
            }
            "poke" | "peek" => Ok(Value::from(method)),
            other => Err(AeonError::app(format!("unknown method {other}"))),
        }
    }

    fn is_readonly(&self, method: &str) -> bool {
        method == "peek"
    }
}

/// (e) An `Exec` or a certified read that arrives while a method holds its
/// target waits in the target's queue as a grant, not on a worker: with
/// two workers, one of them inside the 300 ms `hold`, neither entry makes
/// the pool start a thread.  (Taking the entry's lock on a worker and
/// announcing the wait started one, every time.)
#[test]
fn a_contended_entry_starts_no_pool_thread() {
    within("(e) contended entries, two workers", || {
        let mut classes = ClassGraph::new();
        classes.declare_method("Sleeper", "hold", false);
        classes.declare_method("Sleeper", "poke", false);
        classes.declare_method("Sleeper", "peek", true);
        classes.declare_calls("Sleeper", "peek", []);
        for (method, mode) in [
            ("poke", AccessMode::Exclusive),
            ("peek", AccessMode::ReadOnly),
        ] {
            let cluster = Cluster::builder()
                .servers(1)
                .worker_threads(2)
                .class_graph(classes.clone())
                .build()
                .unwrap();
            let (started_tx, started_rx) = mpsc::channel();
            let sleeper = Sleeper {
                started: started_tx,
            };
            let target = cluster
                .create_context(Box::new(sleeper), Placement::Auto)
                .unwrap();
            let client = cluster.client();
            let reads = cluster.fast_path_events();
            let hold = client
                .submit(target, "hold", args![], AccessMode::Exclusive)
                .unwrap();
            started_rx.recv_timeout(Duration::from_secs(10)).unwrap();
            let before = started(&cluster);
            let entry = client.submit(target, method, args![], mode).unwrap();
            assert_eq!(hold.wait().unwrap(), Value::from("held"));
            assert_eq!(entry.wait().unwrap(), Value::from(method));
            assert_eq!(
                started(&cluster),
                before,
                "{method}: the entry held a worker"
            );
            let certified = cluster.fast_path_events() - reads;
            assert_eq!(certified, u64::from(mode.is_read_only()), "{method}");
            cluster.shutdown();
        }
    });
}
