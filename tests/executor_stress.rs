//! Stress and regression tests for the sharded worker-pool executor:
//! offered concurrency far above the pool size, sub-event chains deeper
//! than the pool, event-lifecycle accounting (the in-flight gauge spans
//! the whole causal chain), panicking contextclass methods resolving
//! handles with a proper error on both execution backends, and blocking
//! `call`s — on the runtime, and on a node of the cluster in the gateway's
//! process, snapshots and restores included — which execute on the calling
//! thread beside the pool's `submit_*` events.

use aeon::prelude::*;
use aeon_apps::bank::{bank_class_graph, Account};
use aeon_apps::game::{deploy_game, game_class_graph};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::{Duration, Instant};

/// Polls `condition` until it holds or the deadline passes.
fn eventually(what: &str, timeout: Duration, mut condition: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !condition() {
        assert!(Instant::now() < deadline, "timed out waiting for: {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A context that counts invocations and chains sub-events to itself:
/// `chain(hops)` dispatches `chain(hops - 1)` until `hops` reaches zero.
/// The causal chain is strictly sequential, so it exercises depth (not
/// width) on a bounded pool.
#[derive(Default)]
struct ChainContext {
    invocations: i64,
}

impl ContextObject for ChainContext {
    fn class_name(&self) -> &str {
        "Chain"
    }

    fn handle(&mut self, method: &str, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match method {
            "chain" => {
                self.invocations += 1;
                // A small dwell per hop keeps the causal chain observable
                // from outside (the gauge tests sample it concurrently).
                std::thread::sleep(Duration::from_micros(500));
                let hops = args.get_i64(0)?;
                if hops > 0 {
                    inv.dispatch_event(inv.self_id(), "chain", args![hops - 1])?;
                }
                Ok(Value::from(self.invocations))
            }
            "count" => Ok(Value::from(self.invocations)),
            _ => Err(AeonError::UnknownMethod {
                class: "Chain".into(),
                method: method.into(),
            }),
        }
    }

    fn is_readonly(&self, method: &str) -> bool {
        method == "count"
    }
}

/// A context whose `block` method parks on a test-held mutex, and whose
/// `spawn_block` method dispatches `block` as a sub-event.
struct GateContext {
    gate: Arc<StdMutex<()>>,
}

impl ContextObject for GateContext {
    fn class_name(&self) -> &str {
        "Gate"
    }

    fn handle(&mut self, method: &str, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match method {
            "block" => {
                let _held = self.gate.lock().unwrap();
                Ok(Value::Null)
            }
            "spawn_block" => {
                inv.dispatch_event(inv.self_id(), "block", args![])?;
                Ok(Value::Null)
            }
            _ => Err(AeonError::UnknownMethod {
                class: "Gate".into(),
                method: method.into(),
            }),
        }
    }
}

/// A context with a deliberately panicking method.
struct PanickyContext;

impl ContextObject for PanickyContext {
    fn class_name(&self) -> &str {
        "Panicky"
    }

    fn handle(&mut self, method: &str, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        match method {
            "boom" => panic!("deliberate test panic"),
            "ok" => Ok(Value::from(1i64)),
            _ => Err(AeonError::UnknownMethod {
                class: "Panicky".into(),
                method: method.into(),
            }),
        }
    }
}

/// A context that fans a call out to every child handed to `set_children`.
struct FanoutContext {
    children: Vec<ContextId>,
}

impl ContextObject for FanoutContext {
    fn class_name(&self) -> &str {
        "Fanout"
    }

    fn handle(&mut self, method: &str, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match method {
            "set_children" => {
                self.children = (0..args.len())
                    .map(|i| args.get_context(i))
                    .collect::<Result<_>>()?;
                Ok(Value::Null)
            }
            "fanout" => {
                let mut total = 0i64;
                for child in self.children.clone() {
                    total += inv
                        .call(child, "incr", args!["n", 1])?
                        .as_i64()
                        .unwrap_or(0);
                }
                Ok(Value::from(total))
            }
            _ => Err(AeonError::UnknownMethod {
                class: "Fanout".into(),
                method: method.into(),
            }),
        }
    }
}

#[test]
fn runtime_pool_smaller_than_offered_concurrency() {
    let contexts = 32usize;
    let events_per_context = 16usize;
    let runtime = AeonRuntime::builder()
        .servers(2)
        .worker_threads(4)
        .build()
        .unwrap();
    let targets: Vec<ContextId> = (0..contexts)
        .map(|_| {
            runtime
                .create_context(Box::new(KvContext::new("Counter")), Placement::Auto)
                .unwrap()
        })
        .collect();
    let client = runtime.client();
    let mut handles = Vec::new();
    for _ in 0..events_per_context {
        for target in &targets {
            handles.push(client.submit_event(*target, "incr", args!["n", 1]).unwrap());
        }
    }
    assert_eq!(handles.len(), contexts * events_per_context);
    for handle in handles {
        handle.wait().unwrap();
    }
    for target in &targets {
        let n = client
            .submit_readonly_event(*target, "get", args!["n"])
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(n, Value::from(events_per_context as i64));
    }
    eventually(
        "in-flight gauge returns to zero",
        Duration::from_secs(5),
        || runtime.events_in_flight() == 0,
    );
    eventually("all tasks counted", Duration::from_secs(5), || {
        let stats = runtime.executor_stats();
        stats.completed == stats.submitted && stats.queued == 0
    });
    let stats = runtime.executor_stats();
    assert_eq!(stats.workers, 4);
    assert_eq!(stats.panics, 0);
    runtime.shutdown();
}

#[test]
fn runtime_sub_event_chain_deeper_than_pool() {
    let depth = 64i64;
    let runtime = AeonRuntime::builder().worker_threads(2).build().unwrap();
    let chain = runtime
        .create_context(Box::new(ChainContext::default()), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    // The handle resolves only once the creator event finished; the
    // runtime executes the dispatched chain inline afterwards, so poll the
    // counter for completion of the whole causal chain.
    client
        .submit_event(chain, "chain", args![depth])
        .unwrap()
        .wait()
        .unwrap();
    eventually("sub-event chain completes", Duration::from_secs(30), || {
        let count = client
            .submit_readonly_event(chain, "count", args![])
            .unwrap()
            .wait()
            .unwrap();
        count == Value::from(depth + 1)
    });
    eventually(
        "in-flight gauge returns to zero",
        Duration::from_secs(5),
        || runtime.events_in_flight() == 0,
    );
    runtime.shutdown();
}

#[test]
fn in_flight_gauge_spans_the_whole_causal_chain() {
    let gate = Arc::new(StdMutex::new(()));
    let runtime = AeonRuntime::builder().worker_threads(2).build().unwrap();
    let ctx = runtime
        .create_context(
            Box::new(GateContext {
                gate: Arc::clone(&gate),
            }),
            Placement::Auto,
        )
        .unwrap();
    let client = runtime.client();
    let held = gate.lock().unwrap();
    let handle = client.submit_event(ctx, "spawn_block", args![]).unwrap();
    // While the sub-event is parked on the gate, the gauge must count BOTH
    // the creator (its causal chain is not done) and the sub-event.  The
    // old accounting decremented the creator before its sub-events ran and
    // reported 1 here.
    eventually(
        "gauge counts creator + blocked sub-event",
        Duration::from_secs(10),
        || runtime.events_in_flight() == 2,
    );
    drop(held);
    handle.wait().unwrap();
    eventually(
        "in-flight gauge returns to zero",
        Duration::from_secs(5),
        || runtime.events_in_flight() == 0,
    );
    runtime.shutdown();
}

#[test]
fn panicking_method_resolves_runtime_handle_with_error() {
    let runtime = AeonRuntime::builder().worker_threads(2).build().unwrap();
    let ctx = runtime
        .create_context(Box::new(PanickyContext), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    let timed = || -> u64 {
        let metrics = runtime.server_metrics();
        metrics.iter().map(|m| m.latency.count).sum()
    };
    let before = timed();
    let err = client
        .submit_event(ctx, "boom", args![])
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(
        matches!(err, AeonError::Panicked { ref reason } if reason.contains("deliberate")),
        "expected a Panicked error, got: {err:?}"
    );
    // The failed event went through the completion tail: it was timed.
    assert_eq!(timed(), before + 1);
    // The context lock was released by the unwind path: the context stays
    // usable and the pool worker survived.
    let ok = client
        .submit_event(ctx, "ok", args![])
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(ok, Value::from(1i64));
    assert_eq!(runtime.events_in_flight(), 0);
    runtime.shutdown();
}

#[test]
fn panicking_method_resolves_cluster_handle_with_error() {
    let cluster = Cluster::builder()
        .servers(2)
        .worker_threads(2)
        .build()
        .unwrap();
    let ctx = cluster
        .create_context(Box::new(PanickyContext), Placement::Auto)
        .unwrap();
    let client = cluster.client();
    let err = client
        .submit_event(ctx, "boom", args![])
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(
        matches!(err, AeonError::Panicked { ref reason } if reason.contains("deliberate")),
        "expected a Panicked error, got: {err:?}"
    );
    // Locks were released and the node's pool survived the panic.
    let ok = client
        .submit_event(ctx, "ok", args![])
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(ok, Value::from(1i64));
    cluster.shutdown();
}

#[test]
fn cluster_pool_smaller_than_offered_concurrency() {
    // 8 fanout roots spread over 2 nodes, children deliberately placed on
    // the *other* node so every fanout waits on remote calls; 1 or 2
    // resident workers per node << 64 offered events.  Progress depends on
    // queueing, on `Act`s that wait for their sequencer as grants rather
    // than as parked workers, and on each remote-call wait being announced
    // to the pool, which keeps its resident count of threads running the
    // queues — a node's worker waits on the other node's, and vice versa.
    // Under a watchdog: a wedged pool would otherwise only surface when
    // the remote calls time out, after 30 s.
    for workers in [1, 2] {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            offered_concurrency_above_the_pool(workers);
            let _ = done.send(());
        });
        if let Err(error) = finished.recv_timeout(Duration::from_secs(20)) {
            // `Timeout`: the pools wedged; `Disconnected`: the scenario
            // panicked (its message is above).
            panic!("worker_threads({workers}): {error:?}");
        }
    }
}

fn offered_concurrency_above_the_pool(workers: usize) {
    let callers = 8usize;
    let children_per_caller = 2usize;
    let rounds = 8usize;
    let cluster = Cluster::builder()
        .servers(2)
        .worker_threads(workers)
        .build()
        .unwrap();
    let servers = cluster.servers();
    let mut roots = Vec::new();
    for i in 0..callers {
        let home = servers[i % servers.len()];
        let away = servers[(i + 1) % servers.len()];
        let caller = cluster
            .create_context(
                Box::new(FanoutContext {
                    children: Vec::new(),
                }),
                Placement::Server(home),
            )
            .unwrap();
        let mut child_args = Vec::new();
        for _ in 0..children_per_caller {
            let child = cluster
                .create_context(Box::new(KvContext::new("Item")), Placement::Server(away))
                .unwrap();
            cluster.add_ownership(caller, child).unwrap();
            child_args.push(Value::from(child));
        }
        let client = cluster.client();
        client
            .submit_event(caller, "set_children", Args::from(child_args))
            .unwrap()
            .wait()
            .unwrap();
        roots.push(caller);
    }
    let client = cluster.client();
    let mut handles = Vec::new();
    for _ in 0..rounds {
        for caller in &roots {
            handles.push(client.submit_event(*caller, "fanout", args![]).unwrap());
        }
    }
    assert_eq!(handles.len(), callers * rounds);
    for handle in handles {
        handle.wait().unwrap();
    }
    // Every child was incremented once per round by its caller.
    for caller in &roots {
        let total = client
            .submit_event(*caller, "fanout", args![])
            .unwrap()
            .wait()
            .unwrap()
            .as_i64()
            .unwrap();
        // The verification fanout itself increments once more.
        assert_eq!(total as usize, children_per_caller * (rounds + 1));
    }
    // Completion counters trail the Done messages by a hair; poll briefly.
    eventually("all node tasks counted", Duration::from_secs(5), || {
        cluster
            .executor_stats()
            .values()
            .all(|stat| stat.completed == stat.submitted && stat.queued == 0)
    });
    let stats = cluster.executor_stats();
    assert_eq!(stats.len(), 2);
    for stat in stats.values() {
        assert_eq!((stat.panics, stat.workers), (0, workers));
    }
    cluster.shutdown();
}

#[test]
fn cluster_sub_event_chain_deeper_than_pool() {
    let depth = 32i64;
    let cluster = Cluster::builder()
        .servers(2)
        .worker_threads(2)
        .build()
        .unwrap();
    let chain = cluster
        .create_context(Box::new(ChainContext::default()), Placement::Auto)
        .unwrap();
    let client = cluster.client();
    client
        .submit_event(chain, "chain", args![depth])
        .unwrap()
        .wait()
        .unwrap();
    // Sub-events are resubmitted through the gateway after each creator
    // completes; poll until the whole chain has executed.
    eventually("sub-event chain completes", Duration::from_secs(60), || {
        client
            .submit_readonly_event(chain, "count", args![])
            .unwrap()
            .wait()
            .unwrap()
            == Value::from(depth + 1)
    });
    cluster.shutdown();
}

#[test]
fn no_thread_is_spawned_per_event() {
    // Submitting far more events than the pool size must not grow the
    // completed-task count past the submissions (each event is exactly one
    // pool task) and must reuse the fixed worker set: the executor stats
    // expose that directly.
    let runtime = AeonRuntime::builder().worker_threads(3).build().unwrap();
    let ctx = runtime
        .create_context(Box::new(KvContext::new("Counter")), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    let events = 200u64;
    let mut handles = Vec::new();
    for _ in 0..events {
        handles.push(client.submit_event(ctx, "incr", args!["n", 1]).unwrap());
    }
    for handle in handles {
        handle.wait().unwrap();
    }
    // The completion counter trails the handle resolution by a hair (the
    // worker bumps it after sending the outcome); poll briefly.
    eventually("all tasks counted", Duration::from_secs(5), || {
        runtime.executor_stats().completed == events
    });
    let stats = runtime.executor_stats();
    assert_eq!(stats.workers, 3);
    assert_eq!(stats.submitted, events);
    runtime.shutdown();
}

/// Many concurrent writers mixed with the in-flight gauge: a sampler
/// thread watches the gauge while a burst of gated chains executes and
/// verifies it only ever decays to zero after every chain finished.
#[test]
fn gauge_under_concurrent_chains_returns_to_zero_only_at_the_end() {
    let runtime = AeonRuntime::builder().worker_threads(4).build().unwrap();
    let client = runtime.client();
    let chains: Vec<ContextId> = (0..8)
        .map(|_| {
            runtime
                .create_context(Box::new(ChainContext::default()), Placement::Auto)
                .unwrap()
        })
        .collect();
    let depth = 16i64;
    let handles: Vec<_> = chains
        .iter()
        .map(|c| client.submit_event(*c, "chain", args![depth]).unwrap())
        .collect();
    let peak = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicU64::new(0));
    let sampler = {
        let runtime = runtime.clone();
        let peak = Arc::clone(&peak);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while stop.load(Ordering::SeqCst) == 0 {
                peak.fetch_max(runtime.events_in_flight(), Ordering::SeqCst);
                std::thread::yield_now();
            }
        })
    };
    for handle in handles {
        handle.wait().unwrap();
    }
    for chain in &chains {
        eventually("chain completes", Duration::from_secs(30), || {
            client
                .submit_readonly_event(*chain, "count", args![])
                .unwrap()
                .wait()
                .unwrap()
                == Value::from(depth + 1)
        });
    }
    stop.store(1, Ordering::SeqCst);
    sampler.join().unwrap();
    assert!(peak.load(Ordering::SeqCst) >= 2, "gauge never saw overlap");
    eventually(
        "in-flight gauge returns to zero",
        Duration::from_secs(5),
        || runtime.events_in_flight() == 0,
    );
    runtime.shutdown();
}

// ---------------------------------------------------------------------------
// Blocking calls on the runtime: executed by the thread that blocks.
// ---------------------------------------------------------------------------

/// 16 client threads of blocking calls against a pool of one: half of them
/// contend for one context, the rest have one each.  Nothing may be handed
/// to the pool — its submission counter, its spill counter and the threads
/// it owns stay exactly where they were — and no increment may be lost.
#[test]
fn blocking_calls_hand_nothing_to_the_pool() {
    let threads = 8usize;
    let calls = 200usize;
    let runtime = AeonRuntime::builder().worker_threads(1).build().unwrap();
    let counters: Vec<ContextId> = (0..=threads)
        .map(|_| {
            runtime
                .create_context(Box::new(KvContext::new("Counter")), Placement::Auto)
                .unwrap()
        })
        .collect();
    let (&shared, private) = counters.split_first().unwrap();
    let before = runtime.executor_stats();

    let targets = std::iter::repeat_n(shared, threads).chain(private.iter().copied());
    let clients: Vec<_> = targets
        .map(|target| {
            let client = runtime.client();
            std::thread::spawn(move || {
                for _ in 0..calls {
                    client.call(target, "incr", args!["n", 1]).unwrap();
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }

    let after = runtime.executor_stats();
    assert_eq!(after.submitted, before.submitted, "a call was handed off");
    assert_eq!(after.spill_spawned, before.spill_spawned);
    assert_eq!(
        (after.workers, after.spill_live),
        (1, 0),
        "the pool grew under blocking callers"
    );
    let client = runtime.client();
    let read = |target| client.call_readonly(target, "get", args!["n"]).unwrap();
    assert_eq!(read(shared), Value::from((threads * calls) as i64));
    for target in private {
        assert_eq!(read(*target), Value::from(calls as i64));
    }
    assert_eq!(runtime.events_in_flight(), 0);
    runtime.shutdown();
}

/// Pool events and caller-thread events on one sequencer: four threads keep
/// 16 submitted `get_gold` events in flight each while four others call it
/// blockingly, all into one room's shared treasure.  No gold may be lost and
/// the recorded history must be strictly serializable — the order is decided
/// in the room's lock queue, whichever thread waits there.
#[test]
fn submitted_and_called_events_share_one_sequencer() {
    let per_thread = 48usize;
    let runtime = AeonRuntime::builder()
        .worker_threads(2)
        .class_graph(game_class_graph())
        .build()
        .unwrap();
    let recorder = HistoryRecorder::new();
    runtime.install_history_sink(Arc::new(recorder.clone()));
    let world = deploy_game(&runtime, 1, 8).unwrap();
    recorder.reset();

    let clients: Vec<_> = world.players[0]
        .iter()
        .enumerate()
        .map(|(t, &player)| {
            let client = runtime.client();
            std::thread::spawn(move || {
                if t % 2 == 0 {
                    for _ in 0..per_thread {
                        assert_eq!(
                            client.call(player, "get_gold", args![1]).unwrap(),
                            Value::Bool(true)
                        );
                    }
                    return;
                }
                let mut window = std::collections::VecDeque::new();
                for _ in 0..per_thread {
                    if window.len() == 16 {
                        let oldest: aeon::runtime::EventHandle = window.pop_front().unwrap();
                        assert_eq!(oldest.wait().unwrap(), Value::Bool(true));
                    }
                    window.push_back(client.submit_event(player, "get_gold", args![1]).unwrap());
                }
                for handle in window {
                    assert_eq!(handle.wait().unwrap(), Value::Bool(true));
                }
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap();
    }

    let client = runtime.client();
    assert_eq!(
        client
            .call_readonly(world.treasures[0], "get", args!["gold"])
            .unwrap(),
        Value::from((8 * per_thread) as i64),
        "gold was lost or minted"
    );
    let history = recorder.history();
    assert!(history.event_count() >= 8 * per_thread);
    if let Err(violation) = check_strict_serializability(&history) {
        panic!("mixed called/submitted history: {violation}");
    }
    runtime.shutdown();
}

/// Certified reads from both sides: `call_readonly` runs a certified batch
/// of one on the caller's thread while submitted certified reads go through
/// the drain task and an exclusive writer increments the same account.
/// Every read sees the balance after some prefix of the writes, a thread's
/// successive reads never go back, and the fast-path counter counts both
/// kinds.
#[test]
fn called_and_submitted_certified_reads_agree_with_a_writer() {
    let writes = 300i64;
    let reads = 300usize;
    let runtime = AeonRuntime::builder()
        .worker_threads(2)
        .class_graph(bank_class_graph())
        .build()
        .unwrap();
    let account = runtime
        .create_context(Box::new(Account::new(0)), Placement::Auto)
        .unwrap();
    let before = runtime.executor_stats().fast_path;

    let writer = {
        let client = runtime.client();
        std::thread::spawn(move || {
            for _ in 0..writes {
                client.call(account, "add", args![1i64]).unwrap();
            }
        })
    };
    let readers: Vec<_> = (0..4)
        .map(|r| {
            let client = runtime.client();
            std::thread::spawn(move || {
                let mut last = 0i64;
                for _ in 0..reads {
                    let seen = if r % 2 == 0 {
                        client.call_readonly(account, "read", args![])
                    } else {
                        client
                            .submit_readonly_event(account, "read", args![])
                            .and_then(|handle| handle.wait())
                    };
                    let seen = seen.unwrap().as_i64().unwrap();
                    assert!(
                        (last..=writes).contains(&seen),
                        "read {seen} after {last} with {writes} writes in all"
                    );
                    last = seen;
                }
            })
        })
        .collect();
    writer.join().unwrap();
    for reader in readers {
        reader.join().unwrap();
    }

    let client = runtime.client();
    assert_eq!(
        client.call_readonly(account, "read", args![]).unwrap(),
        Value::from(writes)
    );
    assert_eq!(
        runtime.executor_stats().fast_path - before,
        (4 * reads + 1) as u64,
        "every certified read, called or submitted, takes the fast path"
    );
    runtime.shutdown();
}

/// What the hand-off cost: on an idle runtime a blocking `call` must take
/// less than half of `submit_event(..).wait()` on the same context.
/// Relative and interleaved, so a stolen vCPU slows both sides alike;
/// optimised builds only.
#[cfg(not(debug_assertions))]
#[test]
fn a_blocking_call_is_cheaper_than_submit_then_wait() {
    let samples = 300usize;
    let runtime = AeonRuntime::builder().worker_threads(2).build().unwrap();
    let ctx = runtime
        .create_context(Box::new(KvContext::new("Counter")), Placement::Auto)
        .unwrap();
    let client = runtime.client();
    let mut called = Vec::with_capacity(samples);
    let mut submitted = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        client.call(ctx, "incr", args!["n", 1]).unwrap();
        called.push(start.elapsed());
        let start = Instant::now();
        client
            .submit_event(ctx, "incr", args!["n", 1])
            .unwrap()
            .wait()
            .unwrap();
        submitted.push(start.elapsed());
    }
    called.sort();
    submitted.sort();
    // Measured 1-3 us against 8-50 us; the factor is what fails a `call`
    // that is `submit` + `wait` underneath, where the medians are equal.
    assert!(
        2 * called[samples / 2] < submitted[samples / 2],
        "median call {:?} is not below half the median submit+wait {:?}",
        called[samples / 2],
        submitted[samples / 2]
    );
    runtime.shutdown();
}

// ---------------------------------------------------------------------------
// Blocking calls on the cluster: a node in the gateway's process is served
// on the caller's thread.  Named `cluster_blocking_call*`, so that the hang
// detector can loop them: a lost grant parks a client thread.
// ---------------------------------------------------------------------------

const IN_PROCESS: [ClusterTransport; 2] =
    [ClusterTransport::Channel, ClusterTransport::TcpLoopback];

/// Each node pool's `(submitted, spill_spawned)`: what a hand-off to a pool
/// moves.
fn pool_counters(cluster: &Cluster) -> Vec<(u64, u64)> {
    let stats = cluster.executor_stats().into_values();
    stats.map(|s| (s.submitted, s.spill_spawned)).collect()
}

/// `blocking_calls_hand_nothing_to_the_pool` on two nodes with pools of
/// one: each counter is its own sequencer, so sequencer and target share a
/// server.  No node's pool may be handed a call — its submission and spill
/// counters stay where they were — and no increment may be lost.
#[test]
fn cluster_blocking_calls_hand_nothing_to_a_pool() {
    let threads = 8usize;
    let calls = 100usize;
    for transport in IN_PROCESS {
        let cluster = Cluster::builder()
            .servers(2)
            .worker_threads(1)
            .transport(transport.clone())
            .build()
            .unwrap();
        let counters: Vec<ContextId> = (0..=threads)
            .map(|_| {
                cluster
                    .create_context(Box::new(KvContext::new("Counter")), Placement::Auto)
                    .unwrap()
            })
            .collect();
        let (&shared, private) = counters.split_first().unwrap();
        let before = pool_counters(&cluster);

        let targets = std::iter::repeat_n(shared, threads).chain(private.iter().copied());
        let clients: Vec<_> = targets
            .map(|target| {
                let client = cluster.client();
                std::thread::spawn(move || {
                    for _ in 0..calls {
                        client.call(target, "incr", args!["n", 1]).unwrap();
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }

        assert_eq!(
            pool_counters(&cluster),
            before,
            "{transport:?}: a call was handed off"
        );
        let client = cluster.client();
        let read = |target| client.call_readonly(target, "get", args!["n"]).unwrap();
        assert_eq!(read(shared), Value::from((threads * calls) as i64));
        for target in private {
            assert_eq!(read(*target), Value::from(calls as i64), "{transport:?}");
        }
        cluster.shutdown();
    }
}

/// A snapshot and a restore are blocking calls too: a subtree hosted on one
/// node in the gateway's process is captured, and restored, on the
/// caller's thread, and no node's pool is handed either event.  The
/// restore brings back the captured states.
#[test]
fn cluster_blocking_snapshot_and_restore_hand_nothing_to_a_pool() {
    for transport in IN_PROCESS {
        let cluster = Cluster::builder()
            .servers(2)
            .worker_threads(1)
            .transport(transport.clone())
            .build()
            .unwrap();
        let room = cluster
            .create_context(Box::new(KvContext::new("Room")), Placement::Auto)
            .unwrap();
        let items: Vec<ContextId> = (0..3i64)
            .map(|n| {
                let item = KvContext::with_entries("Item", [("n", Value::from(n))]);
                cluster
                    .create_owned_context(Box::new(item), &[room])
                    .unwrap()
            })
            .collect();
        let server = cluster.placement_of(room).unwrap();
        for item in &items {
            assert_eq!(cluster.placement_of(*item).unwrap(), server);
        }
        let client = cluster.client();
        let before = pool_counters(&cluster);

        let snapshot = cluster.snapshot_context(room).unwrap();
        assert_eq!(snapshot.len(), 1 + items.len(), "{transport:?}");
        for item in &items {
            client.call(*item, "set", args!["n", 99]).unwrap();
        }
        cluster.restore_snapshot(&snapshot).unwrap();

        assert_eq!(
            pool_counters(&cluster),
            before,
            "{transport:?}: a snapshot or a restore was handed off"
        );
        for (n, item) in items.iter().enumerate() {
            let read = client.call_readonly(*item, "get", args!["n"]).unwrap();
            assert_eq!(read, Value::from(n as i64), "{transport:?}");
        }
        cluster.shutdown();
    }
}

/// `submitted_and_called_events_share_one_sequencer` on the cluster: the
/// room's lock queue orders caller-thread and pool events alike.
#[test]
fn cluster_blocking_calls_and_submitted_events_share_one_sequencer() {
    let per_thread = 48usize;
    for transport in IN_PROCESS {
        let cluster = Cluster::builder()
            .servers(2)
            .worker_threads(2)
            .class_graph(game_class_graph())
            .transport(transport.clone())
            .build()
            .unwrap();
        let recorder = HistoryRecorder::new();
        cluster.install_history_sink(Arc::new(recorder.clone()));
        let world = deploy_game(&cluster, 1, 8).unwrap();
        recorder.reset();

        let clients: Vec<_> = world.players[0]
            .iter()
            .enumerate()
            .map(|(t, &player)| {
                let client = cluster.client();
                std::thread::spawn(move || {
                    if t % 2 == 0 {
                        for _ in 0..per_thread {
                            let got = client.call(player, "get_gold", args![1]).unwrap();
                            assert_eq!(got, Value::Bool(true));
                        }
                        return;
                    }
                    let mut window = std::collections::VecDeque::new();
                    for _ in 0..per_thread {
                        if window.len() == 16 {
                            let oldest: aeon::runtime::EventHandle = window.pop_front().unwrap();
                            assert_eq!(oldest.wait().unwrap(), Value::Bool(true));
                        }
                        let handle = client.submit_event(player, "get_gold", args![1]).unwrap();
                        window.push_back(handle);
                    }
                    for handle in window {
                        assert_eq!(handle.wait().unwrap(), Value::Bool(true));
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }

        let client = cluster.client();
        assert_eq!(
            client
                .call_readonly(world.treasures[0], "get", args!["gold"])
                .unwrap(),
            Value::from((8 * per_thread) as i64),
            "{transport:?}: gold was lost or minted"
        );
        let history = recorder.history();
        assert!(history.event_count() >= 8 * per_thread);
        if let Err(violation) = check_strict_serializability(&history) {
            panic!("{transport:?}: mixed called/submitted history: {violation}");
        }
        cluster.shutdown();
    }
}

/// `a_blocking_call_is_cheaper_than_submit_then_wait` on the channel
/// cluster: served on the caller's thread, a `call` skips the node's pool
/// and the wake-up of the caller.
#[cfg(not(debug_assertions))]
#[test]
fn cluster_blocking_call_is_cheaper_than_submit_then_wait() {
    let samples = 300usize;
    let cluster = Cluster::builder()
        .servers(2)
        .worker_threads(2)
        .build()
        .unwrap();
    let ctx = cluster
        .create_context(Box::new(KvContext::new("Counter")), Placement::Auto)
        .unwrap();
    let client = cluster.client();
    let mut called = Vec::with_capacity(samples);
    let mut submitted = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        client.call(ctx, "incr", args!["n", 1]).unwrap();
        called.push(start.elapsed());
        let start = Instant::now();
        client
            .submit_event(ctx, "incr", args!["n", 1])
            .unwrap()
            .wait()
            .unwrap();
        submitted.push(start.elapsed());
    }
    called.sort();
    submitted.sort();
    assert!(
        2 * called[samples / 2] < submitted[samples / 2],
        "median call {:?} is not below half the median submit+wait {:?}",
        called[samples / 2],
        submitted[samples / 2]
    );
    cluster.shutdown();
}
