//! The cluster delivers every message to its handler on the thread that
//! sends it (channel transport) or reads it off the socket (TCP): a node's
//! pool worker that completes an event runs the gateway's `Done` arm, which
//! submits the event's sub-events, which runs a node's `dispatch` — all on
//! that worker's stack, beside callers of `snapshot` / `restore_snapshot` /
//! `migrate_context` doing their control round trips the same way.  A lock
//! held across one of those sends, or a handler that waits, shows as a hang,
//! not as a failure — so the scenario runs under a watchdog.
//!
//! The load is the bank's `transfer_async` from four clients, plus a relay
//! per client whose every event dispatches a zero-amount `transfer_async`
//! as a *sub-event* (a sub-event has no handle; moving nothing, it cannot
//! unbalance the books unseen).  Beside it a driver snapshots, restores and
//! migrates accounts.  A migration is an exclusive event on the account, so
//! an event that meets one waits for it and continues at the account's new
//! host: nothing may fail, and the audit must balance.

use aeon::prelude::*;
use aeon_apps::bank::{deploy_bank, register_bank_factories, BankWorldConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::Duration;

const CLIENTS: usize = 4;
const OPS_PER_CLIENT: usize = 120;

/// A root context whose `relay(branch, from, to)` dispatches a zero-amount
/// transfer on `branch` as a sub-event.
#[derive(Debug)]
struct Teller;

impl ContextObject for Teller {
    fn class_name(&self) -> &str {
        "Teller"
    }

    fn handle(&mut self, method: &str, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        match method {
            "relay" => {
                let (from, to) = (args.get_context(1)?, args.get_context(2)?);
                inv.dispatch_event(
                    args.get_context(0)?,
                    "transfer_async",
                    args![from, to, 0i64],
                )?;
                Ok(Value::Null)
            }
            _ => Err(AeonError::UnknownMethod {
                class: "Teller".into(),
                method: method.into(),
            }),
        }
    }
}

fn run(transport: ClusterTransport) {
    let transport = &transport;
    let cluster = Cluster::builder()
        .servers(3)
        .worker_threads(2)
        .transport(transport.clone())
        .build()
        .unwrap();
    register_bank_factories(&cluster);
    let config = BankWorldConfig {
        branches: 4,
        accounts_per_branch: 3,
        shared_pairs: 1,
        shared_accounts: 1,
        initial_balance: 100,
    };
    let world = deploy_bank(&cluster, &config).unwrap();
    let expected = world.expected_total(&config);
    let tellers: Vec<ContextId> = (0..CLIENTS)
        .map(|_| {
            cluster
                .create_context(Box::new(Teller), Placement::Auto)
                .unwrap()
        })
        .collect();

    let clients_done = AtomicBool::new(false);
    thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (session, world, teller) = (cluster.client(), &world, tellers[c]);
                scope.spawn(move || {
                    for op in 0..OPS_PER_CLIENT {
                        let b = (c + op) % world.branches.len();
                        let accounts = &world.accounts_of[b];
                        let from = accounts[op % accounts.len()];
                        let to = accounts[(op + 1) % accounts.len()];
                        let amount = (op % 9 + 1) as i64;
                        let moved = session.call(
                            world.branches[b],
                            "transfer_async",
                            args![from, to, amount],
                        );
                        if let Err(error) = moved {
                            panic!("{transport:?}: a transfer failed: {error}");
                        }
                        // The relay itself touches only the teller; its
                        // sub-event is submitted from the gateway's `Done`
                        // arm on whichever thread delivered the `Done`.
                        session
                            .call(teller, "relay", args![world.branches[b], from, to])
                            .unwrap();
                    }
                })
            })
            .collect();

        let driver = scope.spawn(|| {
            let servers = cluster.servers();
            let (mut round, mut migrated, mut captured) = (0usize, 0usize, 0usize);
            let mut checkpoint = None;
            while !clients_done.load(Ordering::SeqCst) {
                round += 1;
                let account = world.accounts[round % world.accounts.len()];
                let to = servers[round % servers.len()];
                cluster.migrate_context(account, to).unwrap();
                migrated += 1;
                match round % 3 {
                    0 => {
                        if let Some(snapshot) = &checkpoint {
                            cluster.restore_snapshot(snapshot).unwrap();
                        }
                    }
                    _ => {
                        checkpoint = Some(cluster.snapshot_context(world.bank).unwrap());
                        captured += 1;
                    }
                }
                thread::sleep(Duration::from_millis(2));
            }
            assert!(migrated > 0, "{transport:?}: nothing was migrated");
            assert!(captured > 0, "{transport:?}: no snapshot succeeded");
        });

        for client in clients {
            client.join().unwrap();
        }
        clients_done.store(true, Ordering::SeqCst);
        driver.join().unwrap();
    });

    let audit = cluster
        .client()
        .call_readonly(world.bank, "audit", args![])
        .unwrap();
    assert_eq!(audit, Value::from(expected), "{transport:?}");
    cluster.shutdown();
}

#[test]
fn handlers_on_the_delivering_thread_neither_deadlock_nor_lose_money() {
    for transport in [ClusterTransport::Channel, ClusterTransport::TcpLoopback] {
        let (done, finished) = mpsc::channel();
        let scenario = transport.clone();
        thread::spawn(move || {
            run(scenario);
            let _ = done.send(());
        });
        // A panic in the scenario drops `done`: reported as such, at once.
        match finished.recv_timeout(Duration::from_secs(60)) {
            Ok(()) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => panic!("{transport:?}: scenario failed"),
            Err(mpsc::RecvTimeoutError::Timeout) => panic!("{transport:?}: hung for 60 s"),
        }
    }
}
