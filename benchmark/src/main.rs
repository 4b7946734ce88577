//! The repository's benchmark: five workloads, client-observed end-to-end
//! metrics, per-layer probes and a traced run.  See `README.md`.
//!
//! The process started by the user only orchestrates: every round of every
//! workload, and every traced run, is a fresh child process of this same
//! binary, so set-up is equally cold each time and one workload's threads
//! and heap never bleed into the next.

mod json;
mod layers;
mod loadgen;
mod measure;
mod metrics;
mod procfs;
mod report;
mod stats;
mod trace;
mod workload;

use json::Json;
use measure::Slicing;
use metrics::{gates, PER_LAYER};
use report::{aggregate, EndToEnd, LayerDoc, RoundDoc};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workload::{Size, Workload};

/// Measured seconds per workload unless `--seconds` says otherwise; the
/// `run_seconds` of `BENCHMARK.json`, and what `BASELINE.md` was taken with.
const RUN_SECONDS: f64 = 16.0;
/// Rounds per workload; each is a fresh process with its own set-up.
const ROUNDS: usize = 3;
/// Timed slices per round.
const SLICES: usize = 4;
/// A child still running this long after its expected end is killed and
/// counted as failed (an event whose message was lost waits 60 s for its
/// time-out), so that one stuck round cannot carry a run past 180 s.
const CHILD_GRACE: Duration = Duration::from_secs(45);
/// Where traces and the default results document go, relative to the
/// benchmark's directory.
const OUT_DIR: &str = "out";

const USAGE: &str = "\
usage: aeon-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                      [--smoke] [--out FILE]
       aeon-benchmark --compare A.json B.json

Without --workload every workload runs, rounds interleaved, followed by
the traced run of each; the results document is written to --out (default
out/results.json).  With --workload one workload runs: its end-to-end
metrics (--trace 0, the default) or its traced run (--trace 1), and the
last line printed is one JSON object with the run's metrics.
  --seed N      seed of world shapes and op streams (default 1)
  --seconds S   measured seconds per workload (default 16), split over
                3 rounds x 4 slices
  --smoke       1 round x 2 slices of 0.5 s on small worlds
workloads: game-runtime game-cluster tpcc-tcp social-zipf-runtime
           bank-migrate-cluster";

#[derive(Debug, Clone)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    smoke: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    /// Internal: this process is a child running one round (`round`) or
    /// one traced run (`traced`).
    child: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: None,
        smoke: false,
        out: None,
        compare: None,
        child: None,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload = Some(
                    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => {
                options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be within (0, 600]".into());
                }
                options.seconds = seconds;
            }
            "--trace" => {
                options.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                });
            }
            "--smoke" => options.smoke = true,
            "--out" => options.out = Some(PathBuf::from(value()?)),
            "--compare" => {
                options.compare = Some((PathBuf::from(value()?), PathBuf::from(value()?)))
            }
            "--child" => options.child = Some(value()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if options.trace.is_some() && options.workload.is_none() {
        return Err("--trace needs --workload (without it, both runs are made)".into());
    }
    Ok(options)
}

impl Options {
    fn size(&self) -> Size {
        if self.smoke {
            Size::Smoke
        } else {
            Size::Full
        }
    }

    fn rounds(&self) -> usize {
        if self.smoke {
            1
        } else {
            ROUNDS
        }
    }

    fn slicing(&self) -> Slicing {
        if self.smoke {
            Slicing {
                slices: 2,
                slice: Duration::from_millis(500),
            }
        } else {
            Slicing {
                slices: SLICES,
                slice: Duration::from_secs_f64(self.seconds / (ROUNDS * SLICES) as f64),
            }
        }
    }
}

// -- child side ---------------------------------------------------------

/// Runs one round or one traced run in this process and prints its
/// hand-over document as the only line on stdout.
fn run_child(kind: &str, options: &Options) -> Result<(), String> {
    let workload = options.workload.ok_or("--child needs --workload")?;
    let doc = match kind {
        "round" => {
            measure::run_round(workload, options.seed, options.size(), options.slicing()).to_json()
        }
        "traced" => {
            let seconds = if options.smoke { 1.0 } else { options.seconds };
            layers::run_traced(
                workload,
                options.seed,
                options.size(),
                options.slicing(),
                seconds,
                Path::new(OUT_DIR),
            )
            .to_json()
        }
        other => return Err(format!("unknown --child kind {other}")),
    };
    println!("{doc}");
    Ok(())
}

// -- parent side --------------------------------------------------------

/// Starts this binary again as a child, waits for it (killing it past the
/// timeout) and parses the document it printed.
fn spawn_child(kind: &str, workload: Workload, options: &Options) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--child", kind, "--workload", workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if options.smoke {
        command.arg("--smoke");
    }
    let mut child = command.spawn().map_err(|e| format!("spawn child: {e}"))?;
    // The child prints one short line, well under a pipe's buffer, so it
    // never blocks on a parent that reads only after it has exited.
    // A round is its slices plus set-ups and warm-up; a traced run its
    // slices plus the traced pass and the probes.
    let mut expected = options.slicing().slice * options.slicing().slices as u32;
    if kind == "traced" {
        expected += Duration::from_secs(30);
    }
    let deadline = Instant::now() + expected + CHILD_GRACE;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => break,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(10)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!(
                    "{} {kind} child ran {CHILD_GRACE:?} over its time and was killed",
                    workload.name()
                ));
            }
            Err(e) => return Err(format!("wait for child: {e}")),
        }
    }
    let output = child
        .wait_with_output()
        .map_err(|e| format!("read child output: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| {
            format!(
                "{} {kind} child ({}) printed nothing",
                workload.name(),
                output.status
            )
        })?;
    Json::parse(line)
}

fn failed_round(error: String) -> RoundDoc {
    RoundDoc {
        setups_s: Vec::new(),
        warmup_s: 0.0,
        peak_rss_mb: 0.0,
        attempted: 1,
        failed: 1,
        error: Some(error),
        rows: Vec::new(),
    }
}

/// Runs the untraced rounds of `workloads`, interleaved (A B C, A B C, …)
/// so a slow phase of the shared host is spread over all of them.
fn run_rounds(workloads: &[Workload], options: &Options) -> Vec<EndToEnd> {
    let mut rounds: Vec<Vec<RoundDoc>> = vec![Vec::new(); workloads.len()];
    for round in 0..options.rounds() {
        for (slot, workload) in workloads.iter().enumerate() {
            eprintln!(
                "[{}] round {} of {}",
                workload.name(),
                round + 1,
                options.rounds()
            );
            let doc = spawn_child("round", *workload, options)
                .and_then(|doc| RoundDoc::from_json(&doc))
                .unwrap_or_else(failed_round);
            rounds[slot].push(doc);
        }
    }
    rounds.iter().map(|r| aggregate(r)).collect()
}

fn run_traced(workload: Workload, options: &Options) -> LayerDoc {
    eprintln!("[{}] traced run", workload.name());
    spawn_child("traced", workload, options)
        .and_then(|doc| LayerDoc::from_json(&doc))
        .unwrap_or_else(|error| LayerDoc {
            attempted: 1,
            failed: 1,
            error: Some(error),
            values: Default::default(),
            spans: Default::default(),
        })
}

/// The facts of the host a reader needs beside every figure.
fn host_line(before: (u64, u64)) -> (f64, f64, String) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from) as f64;
    let steal = procfs::steal_share(before, procfs::host_ticks());
    let line = format!(
        "host: nproc {nproc}, steal {:.4} of host CPU time during the run (/proc/stat)",
        steal
    );
    (nproc, steal, line)
}

/// The last line of a single-workload run: one JSON object with exactly
/// the keys `correct`, `attempted`, `failed` and `metrics`.
fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&str, f64, &str)>,
) -> Json {
    Json::object([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted.max(1))),
        ("failed", Json::from(failed)),
        (
            "metrics",
            Json::object(metrics.into_iter().map(|(name, value, unit)| {
                (
                    name,
                    Json::object([("value", Json::from(value)), ("unit", Json::from(unit))]),
                )
            })),
        ),
    ])
}

fn run_one(workload: Workload, options: &Options) -> bool {
    let steal_before = procfs::host_ticks();
    let (correct, line) = if options.trace == Some(true) {
        let layers = run_traced(workload, options);
        print!("{}", layers.table(workload.name()));
        let metrics = PER_LAYER
            .iter()
            .map(|m| {
                let value = layers.values.get(m.name).copied().unwrap_or(0.0);
                (m.name, value, m.unit)
            })
            .collect();
        let line = contract_line(layers.correct(), layers.attempted, layers.failed, metrics);
        (layers.correct(), line)
    } else {
        let result = run_rounds(&[workload], options).remove(0);
        print!("{}", result.table(workload.name()));
        let metrics = gates()
            .map(|m| {
                let value = result
                    .metrics
                    .iter()
                    .find(|r| r.metric.name == m.name)
                    .map_or(0.0, |r| r.value);
                (m.name, value, m.unit)
            })
            .collect();
        let line = contract_line(result.correct(), result.attempted, result.failed, metrics);
        (result.correct(), line)
    };
    println!("{}", host_line(steal_before).2);
    println!("{line}");
    correct
}

fn run_all(options: &Options) -> Result<bool, String> {
    let steal_before = procfs::host_ticks();
    let results = run_rounds(&Workload::ALL, options);
    let layers: Vec<LayerDoc> = Workload::ALL
        .iter()
        .map(|w| run_traced(*w, options))
        .collect();
    let mut all_correct = true;
    let mut members = Vec::new();
    for ((workload, result), layers) in Workload::ALL.iter().zip(&results).zip(&layers) {
        print!("{}", result.table(workload.name()));
        print!("{}", layers.table(workload.name()));
        println!();
        let correct = result.correct() && layers.correct();
        all_correct &= correct;
        members.push((
            workload.name(),
            Json::object([
                ("correct", Json::from(correct)),
                ("attempted", Json::from(result.attempted + layers.attempted)),
                ("failed", Json::from(result.failed + layers.failed)),
                ("end_to_end", result.to_json()),
                ("traced", layers.to_json()),
            ]),
        ));
    }
    let (nproc, steal, line) = host_line(steal_before);
    println!("{line}");
    let doc = Json::object([
        ("schema", Json::from("aeon-benchmark/v1")),
        ("seed", Json::from(options.seed)),
        ("seconds", Json::from(options.seconds)),
        ("smoke", Json::from(options.smoke)),
        (
            "host",
            Json::object([
                ("nproc", Json::from(nproc)),
                ("steal_share", Json::from(steal)),
            ]),
        ),
        ("workloads", Json::object(members)),
    ]);
    let path = options
        .out
        .clone()
        .unwrap_or_else(|| Path::new(OUT_DIR).join("results.json"));
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(&path, format!("{doc}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    println!(
        "{}",
        if all_correct {
            "all workloads correct"
        } else {
            "FAILED: see ERROR lines"
        }
    );
    Ok(all_correct)
}

fn compare(a: &Path, b: &Path) -> Result<(), String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{}: {e}", path.display())))
    };
    print!("{}", report::compare(&read(a)?, &read(b)?));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(kind) = &options.child {
        run_child(kind, &options).map(|()| true)
    } else if let Some((a, b)) = &options.compare {
        compare(a, b).map(|()| true)
    } else if let Some(workload) = options.workload {
        Ok(run_one(workload, &options))
    } else {
        run_all(&options)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let options =
            parse_args(&args("--workload tpcc-tcp --seed 7 --seconds 12 --trace 1")).unwrap();
        assert_eq!(options.workload, Some(Workload::TpccTcp));
        assert_eq!(options.seed, 7);
        assert_eq!(options.trace, Some(true));
        assert_eq!(options.slicing().slices, SLICES);
        assert_eq!(options.slicing().slice, Duration::from_secs(1));
        assert_eq!(options.rounds(), ROUNDS);
        // Without --seconds a run is the one BENCHMARK.json describes.
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(parse_args(&[]).unwrap().seconds)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seconds 0",
            "--seconds inf",
            "--trace 2 --workload tpcc-tcp",
            "--trace 1",
            "--frobnicate",
            "--seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad} accepted");
        }
    }

    #[test]
    fn smoke_is_one_short_round_on_small_worlds() {
        let options = parse_args(&args("--smoke")).unwrap();
        assert_eq!(options.rounds(), 1);
        assert_eq!(options.slicing().slices, 2);
        assert_eq!(options.size(), Size::Smoke);
    }

    #[test]
    fn the_last_line_has_exactly_the_contract_keys() {
        let line = contract_line(true, 0, 0, vec![("setup_s", 0.8127, "s")]);
        let keys: Vec<&str> = line
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        // `attempted` is at least 1 even when a child died before trying.
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(1.0));
        let text = line.to_string();
        assert!(
            text.contains("\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}"),
            "{text}"
        );
    }
}
