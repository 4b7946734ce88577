//! `bank-migrate-cluster`: transfers and audits at low concurrency while a
//! second thread migrates accounts between servers.
//!
//! With two events in flight the cluster's remote-call path is measured
//! where a hand-off redesign could cost latency.  The elasticity control
//! plane (`migrate_context`) runs in the same deployment, but not beside the
//! data plane: the load thread is parked around each migration (the gate in
//! `loadgen.rs`), because an event that races one can be aborted on the
//! current code.  So no event of this workload, and no event of the history
//! its traced run checks, ever overlaps a migration.

use super::{read_i64, thread_rng, Event, Side, Size, Tally, World};
use aeon::api::Deployment;
use aeon::types::args;
use aeon_apps::bank::{deploy_bank, register_bank_factories, BankWorld, BankWorldConfig};
use rand::Rng;
use std::time::Duration;

/// Pause between two migrations.
const MIGRATE_EVERY: Duration = Duration::from_millis(200);

/// One op of the bank mix, before it is bound to context ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BankOp {
    /// 70 %: `Branch::transfer(from, to, amount)` between two accounts the
    /// branch (co-)owns — exclusive, three contexts.
    Transfer {
        branch: usize,
        from: usize,
        to: usize,
        amount: i64,
    },
    /// 25 %: `Branch::total` — read-only over one branch.
    BranchTotal { branch: usize },
    /// 5 %: `Bank::audit` — read-only over the whole tree.
    Audit,
}

/// Accounts each branch (co-)owns under `config`: exclusive ones, plus the
/// shared ones of every sharing pair the branch belongs to.
fn accounts_of(config: &BankWorldConfig, branch: usize) -> usize {
    let pairs = config.shared_pairs.min(config.branches.saturating_sub(1));
    let in_pairs = usize::from(branch < pairs) + usize::from(branch >= 1 && branch <= pairs);
    config.accounts_per_branch + in_pairs * config.shared_accounts
}

/// The op stream for `seed`.
pub fn generate(seed: u64, size: Size) -> Vec<BankOp> {
    let config = BankWorldConfig::default();
    let mut rng = thread_rng(seed, 0);
    (0..size.stream_len())
        .map(|_| {
            let roll = rng.gen_range(0..100u32);
            let branch = rng.gen_range(0..config.branches);
            let accounts = accounts_of(&config, branch);
            let from = rng.gen_range(0..accounts);
            // A different account of the same branch.
            let to = (from + rng.gen_range(1..accounts)) % accounts;
            let amount = rng.gen_range(1..=10i64);
            match roll {
                0..=69 => BankOp::Transfer {
                    branch,
                    from,
                    to,
                    amount,
                },
                70..=94 => BankOp::BranchTotal { branch },
                _ => BankOp::Audit,
            }
        })
        .collect()
}

fn bind(world: &BankWorld, op: BankOp) -> Event {
    match op {
        BankOp::Transfer {
            branch,
            from,
            to,
            amount,
        } => {
            let accounts = &world.accounts_of[branch];
            Event::update(
                world.branches[branch],
                "transfer",
                args![accounts[from], accounts[to], amount],
            )
        }
        BankOp::BranchTotal { branch } => Event::read(world.branches[branch], "total", args![]),
        BankOp::Audit => Event::read(world.bank, "audit", args![]),
    }
}

/// Transfers move money inside one event, so every audit sees the total
/// the bank was deployed with.
pub fn check_total(audit: i64, expected: i64) -> Result<(), String> {
    if audit == expected {
        Ok(())
    } else {
        Err(format!(
            "Bank::audit = {audit}, deployed total is {expected}"
        ))
    }
}

/// Deploys the bank and binds the stream.
pub fn deploy(deployment: &dyn Deployment, seed: u64, size: Size) -> aeon::Result<World> {
    let config = BankWorldConfig::default();
    // Migration rebuilds a context from its serialised state.
    register_bank_factories(deployment);
    let world = deploy_bank(deployment, &config)?;
    // A fresh bank sits on one server.  Spread the accounts the way the
    // migrator will keep them spread, so the first timed slice sees the
    // same share of remote calls as the last.
    let servers = deployment.servers();
    for (i, account) in world.accounts.iter().enumerate() {
        let to = servers[i % servers.len()];
        if deployment.placement_of(*account)? != to {
            deployment.migrate_context(*account, to)?;
        }
    }
    let stream = generate(seed, size)
        .into_iter()
        .map(|op| bind(&world, op))
        .collect();
    let expected = world.expected_total(&config);
    let bank = world.bank;
    Ok(World {
        streams: vec![stream],
        side: Side::Migrate {
            period: MIGRATE_EVERY,
            contexts: world.accounts.clone(),
        },
        invariant: Box::new(move |deployment: &dyn Deployment, _: &Tally| {
            let session = deployment.session();
            check_total(
                read_i64(session.as_ref(), bank, "audit", args![])?,
                expected,
            )
        }),
        root: bank,
        social: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_function_of_the_seed() {
        assert_eq!(generate(9, Size::Smoke), generate(9, Size::Smoke));
        assert_ne!(generate(9, Size::Smoke), generate(10, Size::Smoke));
    }

    #[test]
    fn transfers_stay_inside_the_accounts_a_branch_owns() {
        let config = BankWorldConfig::default();
        // Default shape: branches 0 and 1 share one account.
        assert_eq!(accounts_of(&config, 0), 5);
        assert_eq!(accounts_of(&config, 1), 5);
        assert_eq!(accounts_of(&config, 2), 4);
        for op in generate(1, Size::Smoke) {
            if let BankOp::Transfer {
                branch, from, to, ..
            } = op
            {
                assert_ne!(from, to);
                assert!(from.max(to) < accounts_of(&config, branch));
            }
        }
    }

    #[test]
    fn created_or_destroyed_money_fails_the_invariant() {
        assert!(check_total(1_700, 1_700).is_ok());
        assert!(check_total(1_699, 1_700).is_err());
    }
}
