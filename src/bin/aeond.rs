//! `aeond` — run an AEON deployment as a long-lived service.
//!
//! Loads a TOML [`aeon::config::ServiceConfig`], builds the
//! configured deployment (`runtime`, `cluster`, or `sim`), and exposes a
//! minimal HTTP/1.0 admin surface for operators:
//!
//! - `GET /healthz` — liveness: the process is up and serving.
//! - `GET /readyz`  — readiness: every configured server reports metrics.
//! - `GET /metrics` — Prometheus text exposition (per-server load, event
//!   latency histogram, executor pool counters, network counters).  Served
//!   from a cache refreshed by a background timer so scrapes never block
//!   on a cluster round trip.
//! - `GET|POST /drain` — graceful drain: migrate every context off all but
//!   the first server via the elasticity manager, shut the deployment
//!   down, answer `200`, and exit 0.
//!
//! The bound admin address is printed on stdout at startup (useful with
//! `listen = "127.0.0.1:0"`, where the OS picks the port).  An optional
//! `[workload]` section drives built-in KV traffic so smoke tests observe
//! nonzero counters without an external client.

use aeon::config::{ServiceConfig, WorkloadConfig};
use aeon::prelude::*;
use aeon::runtime::ExecutorStats;
use aeon::types::promtext::{render_network_stats, render_server_metrics, PromWriter};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::exit;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Most bytes read of one admin request: its request line and headers.
const MAX_REQUEST_BYTES: u64 = 8 * 1024;
/// How long one admin request may take to arrive, all of it.
const REQUEST_DEADLINE: Duration = Duration::from_secs(5);

fn usage() -> ! {
    eprintln!("usage: aeond --config <path>");
    exit(2);
}

fn main() {
    let mut config_path = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--config" => config_path = Some(argv.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    let Some(config_path) = config_path else {
        usage();
    };
    let config = match ServiceConfig::load(std::path::Path::new(&config_path)) {
        Ok(config) => config,
        Err(e) => {
            eprintln!("aeond: {e}");
            exit(1);
        }
    };

    let deployment = match aeon::deploy_shared(config.deployment.clone()) {
        Ok(deployment) => deployment,
        Err(e) => {
            eprintln!("aeond: deploy failed: {e}");
            exit(1);
        }
    };
    // Drain migrates contexts between servers, which on the cluster backend
    // rebuilds them from snapshots via the class factory registry.
    deployment.register_class_factory(
        "Item",
        Arc::new(|state| {
            let mut item = KvContext::new("Item");
            ContextObject::restore(&mut item, state);
            Box::new(item) as Box<dyn ContextObject>
        }),
    );
    let manager = EManager::new(deployment.clone(), InMemoryStore::new());

    let listener = match TcpListener::bind(config.admin.listen) {
        Ok(listener) => listener,
        Err(e) => {
            eprintln!("aeond: bind {}: {e}", config.admin.listen);
            exit(1);
        }
    };
    let admin_addr = listener
        .local_addr()
        .expect("bound listener has an address");
    println!("aeond: admin listening on {admin_addr}");
    std::io::stdout().flush().ok();

    let cache = Arc::new(Mutex::new(render_exposition(deployment.as_ref())));
    spawn_push_timer(
        deployment.clone(),
        cache.clone(),
        config.admin.push_interval,
    );
    if let Some(workload) = config.workload {
        spawn_workload(deployment.clone(), workload);
    }

    for stream in listener.incoming() {
        let Ok(stream) = stream else { continue };
        if let Some(path) = read_request_path(&stream) {
            serve(&stream, &path, deployment.as_ref(), &manager, &cache);
        }
    }
}

/// Background timer: snapshot the deployment's metrics into the exposition
/// cache every `interval`, so `/metrics` answers from memory.
fn spawn_push_timer(
    deployment: Arc<dyn Deployment>,
    cache: Arc<Mutex<String>>,
    interval: Duration,
) {
    std::thread::Builder::new()
        .name("aeond-metrics-push".into())
        .spawn(move || loop {
            std::thread::sleep(interval);
            let body = render_exposition(deployment.as_ref());
            *cache.lock().expect("metrics cache poisoned") = body;
        })
        .expect("spawn metrics-push thread");
}

/// Built-in traffic source: `contexts` KV contexts each receiving `events`
/// increment events from a background thread.
fn spawn_workload(deployment: Arc<dyn Deployment>, workload: WorkloadConfig) {
    std::thread::Builder::new()
        .name("aeond-workload".into())
        .spawn(move || {
            let mut contexts = Vec::with_capacity(workload.contexts);
            for _ in 0..workload.contexts {
                match deployment.create_context(Box::new(KvContext::new("Item")), Placement::Auto) {
                    Ok(ctx) => contexts.push(ctx),
                    Err(e) => {
                        eprintln!("aeond: workload create_context: {e}");
                        return;
                    }
                }
            }
            let session = deployment.session();
            for round in 0..workload.events {
                for &ctx in &contexts {
                    if let Err(e) = session.call(ctx, "incr", args!["hits", 1]) {
                        eprintln!("aeond: workload event {round}: {e}");
                        return;
                    }
                }
            }
        })
        .expect("spawn workload thread");
}

/// Renders the full Prometheus exposition for the deployment.
fn render_exposition(deployment: &dyn Deployment) -> String {
    let mut w = PromWriter::new();
    w.family("aeon_up", "Whether the aeond service is up.", "gauge");
    w.sample("aeon_up", &[], 1.0);
    w.family(
        "aeon_servers",
        "Number of servers in the deployment.",
        "gauge",
    );
    w.sample("aeon_servers", &[], deployment.servers().len() as f64);
    w.family("aeon_contexts_total", "Number of live contexts.", "gauge");
    w.sample(
        "aeon_contexts_total",
        &[],
        deployment.context_count() as f64,
    );
    render_server_metrics(&mut w, &deployment.server_metrics());
    if let Some(stats) = deployment.executor_stats() {
        render_executor_stats(&mut w, &stats);
    }
    if let Some(net) = deployment.network_stats() {
        render_network_stats(&mut w, &net);
    }
    w.finish()
}

/// Executor pool counters.  Lives here rather than in `aeon-types` because
/// [`ExecutorStats`] belongs to `aeon-runtime`, which `aeon-types` cannot
/// depend on.
fn render_executor_stats(w: &mut PromWriter, stats: &ExecutorStats) {
    let gauges: [(&str, &str, u64); 4] = [
        (
            "aeon_executor_workers",
            "Resident pool worker threads.",
            stats.workers as u64,
        ),
        (
            "aeon_executor_shards",
            "Executor queue shards.",
            stats.shards as u64,
        ),
        (
            "aeon_executor_queued",
            "Tasks currently queued.",
            stats.queued,
        ),
        (
            "aeon_executor_spill_live",
            "Pool threads alive beyond the resident workers (started for blocking waits).",
            stats.spill_live as u64,
        ),
    ];
    for (name, help, value) in gauges {
        w.family(name, help, "gauge");
        w.sample(name, &[], value as f64);
    }
    let counters: [(&str, &str, u64); 6] = [
        (
            "aeon_executor_submitted_total",
            "Tasks submitted to the pool.",
            stats.submitted,
        ),
        (
            "aeon_executor_completed_total",
            "Tasks completed by the pool.",
            stats.completed,
        ),
        (
            "aeon_executor_spill_spawned_total",
            "Pool threads started because a worker announced a blocking wait.",
            stats.spill_spawned,
        ),
        (
            "aeon_executor_panics_total",
            "Tasks that panicked.",
            stats.panics,
        ),
        (
            "aeon_executor_batched_total",
            "Events coalesced into batches.",
            stats.batched,
        ),
        (
            "aeon_executor_fast_path_total",
            "Certified read-only fast-path events.",
            stats.fast_path,
        ),
    ];
    for (name, help, value) in counters {
        w.family(name, help, "counter");
        w.sample(name, &[], value as f64);
    }
}

/// Reads the HTTP/1.0 request line and discards headers; returns the path.
/// The accept loop is single-threaded, so the request is bounded: at most
/// [`MAX_REQUEST_BYTES`], all of them within [`REQUEST_DEADLINE`].
fn read_request_path(stream: &TcpStream) -> Option<String> {
    let request = Deadline {
        stream,
        at: Instant::now() + REQUEST_DEADLINE,
    };
    let mut reader = BufReader::new(request.take(MAX_REQUEST_BYTES));
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let path = parts.next()?.to_string();
    if method != "GET" && method != "POST" {
        return None;
    }
    // Drain headers so the client sees a clean close.
    loop {
        let mut header = String::new();
        match reader.read_line(&mut header) {
            Ok(0) => break,
            Ok(_) if header.trim().is_empty() => break,
            Ok(_) => continue,
            Err(_) => break,
        }
    }
    Some(path)
}

/// A stream whose every read times out at one deadline for the whole
/// request, not a fresh timeout per read.
struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        let mut stream = self.stream;
        stream.set_read_timeout(Some(left))?;
        stream.read(buf)
    }
}

fn respond(mut stream: &TcpStream, status: &str, content_type: &str, body: &str) {
    let _ = write!(
        stream,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

fn serve(
    stream: &TcpStream,
    path: &str,
    deployment: &dyn Deployment,
    manager: &EManager,
    cache: &Mutex<String>,
) {
    match path {
        "/healthz" => respond(stream, "200 OK", "text/plain", "ok\n"),
        "/readyz" => {
            // Live probe: every configured server must answer metrics
            // collection.  A partitioned or crashed server fails this.
            let servers = deployment.servers().len();
            let reporting = deployment.server_metrics().len();
            if servers > 0 && reporting == servers {
                respond(stream, "200 OK", "text/plain", "ready\n");
            } else {
                let body = format!("not ready: {reporting}/{servers} servers reporting\n");
                respond(stream, "503 Service Unavailable", "text/plain", &body);
            }
        }
        "/metrics" => {
            let body = cache.lock().expect("metrics cache poisoned").clone();
            respond(stream, "200 OK", "text/plain; version=0.0.4", &body);
        }
        "/drain" => {
            let servers = deployment.servers();
            for &server in servers.iter().skip(1) {
                if let Err(e) = manager.drain_server(server) {
                    let body = format!("drain {server} failed: {e}\n");
                    respond(stream, "500 Internal Server Error", "text/plain", &body);
                    return;
                }
            }
            deployment.shutdown();
            respond(stream, "200 OK", "text/plain", "drained\n");
            exit(0);
        }
        _ => respond(stream, "404 Not Found", "text/plain", "not found\n"),
    }
}
