//! A call that skips an ownership level takes the path down to its target
//! (Algorithm 2's `activatePath`), on every backend.
//!
//! `Top` owns `Mid`, which owns `X` and `Y`: the dominators are `Top`,
//! `Mid` and the leaves themselves.  One client loops `Mid.touch(X, Y)`,
//! sequenced at `Mid`; another loops `Top.touch(Y, X)`, sequenced at `Top`,
//! whose calls reach `X` and `Y` through `Mid`.  Each `touch` pauses
//! between its two calls.  An event that took `Y` without entering `Mid`
//! first would hold it while the other event, holding `Mid` and `X`, waits
//! for it — and then wait for `X` itself.  The control runs
//! `Top.touch(X, Y)`, in the same order as the other client.
//!
//! `Mid` and `Y` live on a second server, so on the cluster the path
//! crosses servers both ways.  A run that stops making progress fails on a
//! watchdog instead of hanging, and every history must pass the checker.

use aeon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Events each client runs.
const ROUNDS: usize = 150;
/// The pause between a `touch`'s two calls: the window the two clients'
/// lock orders cross in.
const PAUSE: Duration = Duration::from_micros(200);
/// How long no client may complete an event before the run counts as stuck.
const STALL: Duration = Duration::from_secs(5);

/// A counter that can also touch two of the counters it owns.
struct Node {
    class: &'static str,
    n: i64,
}

impl ContextObject for Node {
    fn class_name(&self) -> &str {
        self.class
    }

    fn handle(&mut self, method: &str, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match method {
            "bump" => {
                self.n += 1;
                Ok(Value::from(self.n))
            }
            "get" => Ok(Value::from(self.n)),
            "touch" => {
                inv.call(args.get_context(0)?, "bump", args![])?;
                std::thread::sleep(PAUSE);
                inv.call(args.get_context(1)?, "bump", args![])
            }
            other => Err(AeonError::UnknownMethod {
                class: self.class.into(),
                method: other.into(),
            }),
        }
    }

    fn is_readonly(&self, method: &str) -> bool {
        method == "get"
    }

    fn snapshot(&self) -> Value {
        Value::from(self.n)
    }

    fn restore(&mut self, state: &Value) {
        self.n = state.as_i64().unwrap_or_default();
    }
}

fn node(class: &'static str) -> Box<dyn ContextObject> {
    Box::new(Node { class, n: 0 })
}

fn every_backend() -> [(&'static str, DeployConfig); 4] {
    [
        ("runtime", DeployConfig::runtime()),
        ("channel cluster", DeployConfig::cluster()),
        (
            "TCP cluster",
            DeployConfig::cluster().transport(ClusterTransport::TcpLoopback),
        ),
        ("sim", DeployConfig::sim()),
    ]
}

/// Runs both clients on `config`'s backend; `skip_reversed` makes the
/// `Top` client take `Y` before `X`.  A stuck run is reported, not
/// panicked on, so that every backend gets its turn.
fn run(
    backend: &str,
    config: DeployConfig,
    skip_reversed: bool,
) -> std::result::Result<(), String> {
    let deployment = aeon::deploy_shared(config.servers(2).worker_threads(4)).unwrap();
    for class in ["Top", "Mid", "Leaf"] {
        let factory = Arc::new(move |state: &Value| {
            let mut node = Node { class, n: 0 };
            node.restore(state);
            Box::new(node) as Box<dyn ContextObject>
        });
        deployment.register_class_factory(class, factory);
    }
    let recorder = HistoryRecorder::new();
    deployment.install_history_sink(Arc::new(recorder.clone()));
    let servers = deployment.servers();
    let top = deployment
        .create_context(node("Top"), Placement::Server(servers[0]))
        .unwrap();
    let mid = deployment
        .create_owned_context(node("Mid"), &[top])
        .unwrap();
    let x = deployment
        .create_owned_context(node("Leaf"), &[mid])
        .unwrap();
    let y = deployment
        .create_owned_context(node("Leaf"), &[mid])
        .unwrap();
    for context in [mid, y] {
        deployment.migrate_context(context, servers[1]).unwrap();
    }

    let done = Arc::new(AtomicUsize::new(0));
    let (first, second) = if skip_reversed { (y, x) } else { (x, y) };
    let clients: Vec<_> = [(mid, x, y), (top, first, second)]
        .into_iter()
        .map(|(target, a, b)| {
            let (session, done) = (deployment.session(), Arc::clone(&done));
            std::thread::spawn(move || {
                for _ in 0..ROUNDS {
                    session.call(target, "touch", args![a, b])?;
                    done.fetch_add(1, Ordering::SeqCst);
                }
                Ok::<(), AeonError>(())
            })
        })
        .collect();
    let (mut seen, mut since) = (0, Instant::now());
    while !clients.iter().all(|client| client.is_finished()) {
        std::thread::sleep(Duration::from_millis(10));
        let now = done.load(Ordering::SeqCst);
        if now != seen {
            (seen, since) = (now, Instant::now());
        }
        // The stuck clients keep the deployment alive: nothing joins them.
        if since.elapsed() > STALL {
            return Err(format!(
                "{backend}: stuck after {seen} of {} events",
                2 * ROUNDS
            ));
        }
    }
    for client in clients {
        client.join().unwrap().unwrap();
    }

    let session = deployment.session();
    for leaf in [x, y] {
        let count = session.call_readonly(leaf, "get", args![]).unwrap();
        assert_eq!(count, Value::from(2 * ROUNDS as i64), "backend {backend}");
    }
    if let Err(violation) = check_strict_serializability(&recorder.history()) {
        panic!("backend {backend}: {violation}");
    }
    deployment.shutdown();
    Ok(())
}

/// Runs on every backend and fails naming each one that got stuck.
fn on_every_backend(skip_reversed: bool) {
    let stuck: Vec<String> = every_backend()
        .into_iter()
        .filter_map(|(backend, config)| run(backend, config, skip_reversed).err())
        .collect();
    assert!(stuck.is_empty(), "{}", stuck.join("; "));
}

#[test]
fn a_call_that_skips_a_level_takes_its_path_on_every_backend() {
    on_every_backend(true);
}

#[test]
fn calls_in_one_order_complete_on_every_backend() {
    on_every_backend(false);
}
