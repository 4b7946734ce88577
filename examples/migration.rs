//! Live migration: a context keeps serving strictly-serializable events
//! while the eManager moves it between servers — each move one exclusive
//! event, bracketed by a persisted migration intent — and a replacement
//! eManager re-submits whatever intents its predecessor left in flight.
//!
//! Run with `cargo run --example migration`.

use aeon::prelude::*;

fn main() -> Result<()> {
    let deployment = aeon::deploy_shared(DeployConfig::runtime().servers(3))?;
    let store = InMemoryStore::new();
    let manager = EManager::new(deployment.clone(), store.clone());

    let counter =
        deployment.create_context(Box::new(KvContext::new("Counter")), Placement::Auto)?;
    let session = deployment.session();

    // Drive load while migrating the context around the deployment.
    let handles: Vec<_> = (0..300)
        .map(|_| {
            session
                .submit_event(counter, "incr", args!["n", 1])
                .unwrap()
        })
        .collect();
    let servers = deployment.servers();
    for i in 0..6 {
        manager.migrate(counter, servers[i % servers.len()])?;
    }
    for handle in handles {
        handle.wait()?;
    }
    let value = session.call_readonly(counter, "get", args!["n"])?;
    println!("counter after 300 increments and 6 migrations: {value}");
    assert_eq!(value, Value::from(300i64));

    // A replacement eManager re-submits the intents left in storage: none
    // here, since every `migrate` above returned and cleared its own.
    let replacement = EManager::new(deployment.clone(), store);
    let outcomes = replacement.recover()?;
    println!(
        "replacement eManager found {} in-flight migrations",
        outcomes.len()
    );
    println!("context now lives on {}", deployment.placement_of(counter)?);
    deployment.shutdown();
    Ok(())
}
