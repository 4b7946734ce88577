//! End-to-end smoke test for the `aeond` service binary.
//!
//! Spawns a real `aeond` OS process with a temporary TOML config (cluster
//! backend, OS-assigned admin port, built-in workload), discovers the
//! admin address from the line the binary prints on stdout, then drives
//! the whole operability surface over plain HTTP/1.0: `/healthz`,
//! `/readyz`, `/metrics` (asserting the workload moved the counters and
//! the latency histogram is well-formed), and finally `/drain`, asserting
//! the process exits 0.  Two more cases hold the admin loop's bound on a
//! request against clients that never finish theirs.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

struct Response {
    status: u16,
    body: String,
}

/// One HTTP/1.0 request over a fresh connection.
fn http_get(addr: &str, path: &str) -> std::io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(stream, "GET {path} HTTP/1.0\r\nHost: aeond\r\n\r\n")?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or(0);
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default();
    Ok(Response { status, body })
}

/// Polls `path` until it answers 200 or the deadline passes.
fn await_ok(addr: &str, path: &str, deadline: Duration) -> Response {
    let start = Instant::now();
    loop {
        if let Ok(response) = http_get(addr, path) {
            if response.status == 200 {
                return response;
            }
        }
        assert!(
            start.elapsed() < deadline,
            "{path} did not answer 200 within {deadline:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Extracts the value of an unlabelled sample, e.g. `aeon_up 1`.
fn sample_value(exposition: &str, name: &str) -> Option<f64> {
    exposition.lines().find_map(|line| {
        let (sample, value) = line.split_once(' ')?;
        (sample == name).then(|| value.trim().parse().ok())?
    })
}

/// The sum of `name`'s samples over every label set.
fn sample_total(exposition: &str, name: &str) -> f64 {
    exposition
        .lines()
        .filter_map(|line| {
            let (sample, value) = line.split_once(' ')?;
            let metric = sample.split('{').next()?;
            (metric == name).then(|| value.trim().parse::<f64>().ok())?
        })
        .sum()
}

/// A running `aeond`, its admin address and its temporary directory.
/// Dropped — at the end of a test, or as a failed assertion unwinds it — it
/// kills and reaps the process if it still runs, so that no orphan holds
/// the test's stderr open, and removes the directory.
struct Aeond {
    child: Child,
    addr: String,
    dir: PathBuf,
}

impl Drop for Aeond {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Starts `aeond` on `config`, written to a temporary directory named after
/// `name`.
fn spawn_aeond(name: &str, config: &str) -> Aeond {
    let dir = std::env::temp_dir().join(format!("aeond-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let config_path = dir.join("aeond.toml");
    std::fs::write(&config_path, config).expect("write config");

    let child = Command::new(env!("CARGO_BIN_EXE_aeond"))
        .arg("--config")
        .arg(&config_path)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn aeond");
    let mut aeond = Aeond {
        child,
        addr: String::new(),
        dir,
    };

    // The first stdout line announces the bound admin address.
    let stdout = aeond.child.stdout.take().expect("captured stdout");
    let mut banner = String::new();
    BufReader::new(stdout)
        .read_line(&mut banner)
        .expect("read startup banner");
    aeond.addr = banner
        .rsplit(' ')
        .next()
        .map(str::trim)
        .expect("address in startup banner")
        .to_string();
    assert!(
        aeond.addr.parse::<std::net::SocketAddr>().is_ok(),
        "unparseable admin address in banner: {banner:?}"
    );
    aeond
}

#[test]
fn aeond_serves_probes_metrics_and_drains_cleanly() {
    let config = r#"
        [deployment]
        backend = "cluster"
        servers = 2
        worker_threads = 2

        [admin]
        listen = "127.0.0.1:0"
        push_interval_ms = 100

        [workload]
        contexts = 4
        events = 25
    "#;
    let mut aeond = spawn_aeond("e2e", config);
    let addr = aeond.addr.clone();

    assert_eq!(http_get(&addr, "/healthz").expect("healthz").status, 200);
    await_ok(&addr, "/readyz", Duration::from_secs(30));
    assert_eq!(
        http_get(&addr, "/nonsense").expect("unknown path").status,
        404
    );

    // Wait for the push timer to publish an exposition where the workload's
    // events are visible — in the servers' latency records, which count an
    // event wherever it ran: the workload's blocking calls hand nothing to
    // a node's pool — then sanity-check its shape.
    let deadline = Instant::now() + Duration::from_secs(30);
    let exposition = loop {
        let response = http_get(&addr, "/metrics").expect("metrics");
        assert_eq!(response.status, 200);
        if sample_total(&response.body, "aeon_event_latency_micros_count") > 0.0 {
            break response.body;
        }
        assert!(
            Instant::now() < deadline,
            "workload events never reached the exposition:\n{}",
            response.body
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    assert_eq!(sample_value(&exposition, "aeon_up"), Some(1.0));
    assert_eq!(sample_value(&exposition, "aeon_servers"), Some(2.0));
    assert!(
        sample_value(&exposition, "aeon_contexts_total").is_some_and(|v| v >= 4.0),
        "workload contexts missing from exposition"
    );
    assert!(
        exposition.contains("# TYPE aeon_event_latency_micros histogram"),
        "latency histogram family missing"
    );
    assert!(
        exposition.contains(r#"aeon_event_latency_micros_bucket{server="0",le="+Inf"}"#),
        "histogram +Inf bucket missing"
    );
    assert!(
        exposition.contains("aeon_network_messages_total"),
        "cluster network counters missing"
    );

    // Graceful drain: 200, then a clean exit.
    let drain = http_get(&addr, "/drain").expect("drain");
    assert_eq!(drain.status, 200, "drain body: {}", drain.body);
    let status = aeond.child.wait().expect("wait for aeond");
    assert!(status.success(), "aeond exited with {status}");
}

/// A runtime behind the admin surface, with no workload.
const QUIET: &str = r#"
    [deployment]
    backend = "runtime"
    servers = 1

    [admin]
    listen = "127.0.0.1:0"
"#;

/// Asks `/healthz` and returns how long the answer took.
fn healthz_takes(addr: &str) -> Duration {
    let asked = Instant::now();
    assert_eq!(http_get(addr, "/healthz").expect("healthz").status, 200);
    asked.elapsed()
}

/// One client at a time is served, so a request is bounded in size: a
/// megabyte with no newline, its socket kept open, costs the admin loop
/// 8 KiB and no wait.
#[test]
fn an_endless_request_line_does_not_hold_the_admin_loop() {
    let aeond = spawn_aeond("endless", QUIET);
    let addr = &aeond.addr;
    let mut hog = TcpStream::connect(addr).expect("connect");
    let hog = std::thread::spawn(move || {
        let _ = hog.write_all(&vec![b'a'; 1 << 20]);
        hog
    });
    std::thread::sleep(Duration::from_millis(100));
    let took = healthz_takes(addr);
    assert!(took < Duration::from_secs(1), "/healthz took {took:?}");
    drop(hog.join());
}

/// ... and in time: a client that sends one byte a second has five seconds
/// for its whole request, not five for each byte.
#[test]
fn a_trickling_request_does_not_hold_the_admin_loop() {
    let aeond = spawn_aeond("trickle", QUIET);
    let addr = &aeond.addr;
    let mut drip = TcpStream::connect(addr).expect("connect");
    let drip = std::thread::spawn(move || {
        for _ in 0..12 {
            if drip.write_all(b"a").is_err() {
                break;
            }
            std::thread::sleep(Duration::from_secs(1));
        }
    });
    std::thread::sleep(Duration::from_millis(100));
    let took = healthz_takes(addr);
    assert!(took < Duration::from_secs(7), "/healthz took {took:?}");
    drip.join().ok();
}
