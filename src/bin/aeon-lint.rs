//! `aeon-lint` — static analysis of AEON contextclass graphs from the
//! command line.
//!
//! Runs the `aeon-analyzer` pass pipeline (AEON001..AEON007) over the
//! workspace's built-in application graphs and/or JSON-encoded `ClassGraph`
//! documents, and exits nonzero when any error-severity diagnostic is
//! found — the CI gate that keeps every shipped graph deployable.
//!
//! ```text
//! aeon-lint [--format text|json] [TARGET...]
//!
//! TARGET   a built-in graph (game, tpcc, bank, kv, collections),
//!          "builtins" for all of them, or a path to a ClassGraph JSON
//!          document.  Default: builtins.
//! ```
//!
//! Exit status: 0 when every target is free of error diagnostics, 1 when
//! any error diagnostic was reported, 2 on usage or input errors.

use aeon_analyzer::{analyze, json, AnalysisReport};
use aeon_ownership::ClassGraph;
use aeon_types::{text, Value};
use std::process::ExitCode;

const BUILTINS: [&str; 5] = ["game", "tpcc", "bank", "kv", "collections"];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn builtin_graph(name: &str) -> Option<ClassGraph> {
    match name {
        "game" => Some(aeon_apps::game::game_class_graph()),
        "tpcc" => Some(aeon_apps::tpcc::tpcc_class_graph()),
        "bank" => Some(aeon_apps::bank::bank_class_graph()),
        "kv" => Some(aeon_apps::kv_class_graph()),
        "collections" => Some(aeon_apps::collections::collections_class_graph()),
        _ => None,
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: aeon-lint [--format text|json] [TARGET...]\n\
         \n\
         TARGET is a built-in graph ({}), \"builtins\" for all of them,\n\
         or a path to a ClassGraph JSON document.  Default: builtins.",
        BUILTINS.join(", ")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut targets: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                other => {
                    eprintln!(
                        "aeon-lint: --format expects text or json, got {:?}",
                        other.unwrap_or("nothing")
                    );
                    return usage();
                }
            },
            "--help" | "-h" => {
                usage();
                return ExitCode::SUCCESS;
            }
            _ => targets.push(arg),
        }
    }
    if targets.is_empty() {
        targets.push("builtins".to_string());
    }
    // Expand "builtins" and load every target before linting, so a typo'd
    // target fails fast with exit 2 instead of half a run.
    let mut graphs: Vec<(String, ClassGraph)> = Vec::new();
    for target in targets {
        if target == "builtins" {
            for name in BUILTINS {
                graphs.push((name.to_string(), builtin_graph(name).expect("builtin")));
            }
        } else if let Some(classes) = builtin_graph(&target) {
            graphs.push((target, classes));
        } else {
            let text = match std::fs::read_to_string(&target) {
                Ok(text) => text,
                Err(e) => {
                    eprintln!("aeon-lint: cannot read {target}: {e}");
                    return ExitCode::from(2);
                }
            };
            match json::from_json(&text) {
                Ok(classes) => graphs.push((target, classes)),
                Err(e) => {
                    eprintln!("aeon-lint: cannot parse {target}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
    }

    let reports: Vec<(String, AnalysisReport)> = graphs
        .iter()
        .map(|(name, classes)| (name.clone(), analyze(classes)))
        .collect();
    let failed = reports.iter().any(|(_, r)| r.has_errors());

    match format {
        Format::Text => {
            for (name, report) in &reports {
                if report.is_clean() {
                    println!("{name}: clean");
                } else {
                    println!(
                        "{name}: {} error(s), {} warning(s)",
                        report.errors().count(),
                        report.warnings().count()
                    );
                    for line in report.render_text().lines() {
                        println!("  {line}");
                    }
                }
            }
        }
        Format::Json => {
            let all = reports
                .iter()
                .map(|(name, r)| (name.as_str(), r.to_value()));
            println!("{}", text::to_json(&Value::map(all)));
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
