//! Checking the paper's §4 claim on a live run: a concurrent bank-transfer
//! workload runs on the chosen backend, the backend's history sink records
//! it, and the history is verified to be strictly serializable, alongside
//! the value-level invariant that money is conserved.
//!
//! Run with `cargo run --example serializability_audit [runtime|cluster|sim]`.

use aeon::prelude::*;
use aeon_apps::bank::{bank_class_graph, deploy_bank, BankWorldConfig};
use std::sync::Arc;

const CLIENTS: usize = 6;
const OPS_PER_CLIENT: usize = 40;

fn main() -> Result<()> {
    let backend: Backend = match std::env::args().nth(1) {
        Some(name) => name.parse()?,
        None => Backend::default(),
    };
    let deployment = aeon::deploy(
        DeployConfig::new(backend)
            .servers(4)
            .class_graph(bank_class_graph()),
    )?;
    let recorder = HistoryRecorder::new();
    deployment.install_history_sink(Arc::new(recorder.clone()));
    // Four branches; multi-ownership: branches 0 and 1 share one account.
    let config = BankWorldConfig {
        accounts_per_branch: 3,
        ..BankWorldConfig::default()
    };
    let world = deploy_bank(deployment.as_ref(), &config)?;
    let expected = world.expected_total(&config);

    // Each client: mostly transfers (every third with an `async` deposit
    // leg), and a read-only audit of the whole bank every eighth operation.
    let (transfers, audits) = std::thread::scope(|scope| -> Result<(u64, u64)> {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (deployment, world) = (deployment.as_ref(), &world);
                scope.spawn(move || {
                    let session = deployment.session();
                    let (mut transfers, mut audits) = (0u64, 0u64);
                    for i in 0..OPS_PER_CLIENT {
                        if i % 8 == 7 {
                            session.call_readonly(world.bank, "audit", args![])?;
                            audits += 1;
                            continue;
                        }
                        let b = (c + i) % world.branches.len();
                        let accounts = &world.accounts_of[b];
                        let from = accounts[i % accounts.len()];
                        let to = accounts[(i + 1) % accounts.len()];
                        let method = if i % 3 == 2 {
                            "transfer_async"
                        } else {
                            "transfer"
                        };
                        let amount = 1 + (i % 10) as i64;
                        session.call(world.branches[b], method, args![from, to, amount])?;
                        transfers += 1;
                    }
                    Ok((transfers, audits))
                })
            })
            .collect();
        let mut totals = (0, 0);
        for client in clients {
            let (transfers, audits) = client.join().expect("client thread")?;
            totals.0 += transfers;
            totals.1 += audits;
        }
        Ok(totals)
    })?;
    let observed = deployment
        .session()
        .call_readonly(world.bank, "audit", args![])?;
    deployment.shutdown();

    let history = recorder.history();
    let verdict = check_strict_serializability(&history);
    println!("backend            : {backend}");
    println!("transfers executed : {transfers}");
    println!("read-only audits   : {audits}");
    println!("events recorded    : {}", history.event_count());
    println!("operations recorded: {}", history.operation_count());
    println!("expected total     : {expected}");
    println!("observed total     : {observed}");
    match &verdict {
        Ok(order) => println!(
            "strictly serializable: yes (equivalent serial order over {} events)",
            order.order.len()
        ),
        Err(violation) => println!("strictly serializable: NO — {violation}"),
    }
    if verdict.is_err() || observed != Value::from(expected) {
        std::process::exit(1);
    }
    Ok(())
}
