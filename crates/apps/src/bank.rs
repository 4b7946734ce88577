//! A bank-transfer application, generic over the unified deployment API.
//!
//! Structure: a [`Bank`] root owns [`Branch`]es; each branch owns
//! [`Account`]s, and adjacent branches may *share* accounts
//! (multi-ownership, §3 of the paper), which forces events on those
//! branches to be sequenced at the bank-level dominator while events on
//! non-sharing branches keep their own sequencers.  That mix is exactly
//! what a consistent snapshot has to cut through, so this workload
//! is the backbone of the chaos-serializability suite and the
//! backend-parity snapshot tests.
//!
//! These contextclasses are plain [`context_class!`] tables deployed through
//! `&dyn Deployment`, so the same bank runs on the runtime, the cluster, and
//! the simulator; history recording comes from the backend's installed
//! history sink, not from the application.
//!
//! The key invariant: `transfer` moves money between two accounts inside
//! one event, so *any* consistent cut of the system conserves the total
//! balance.  A torn snapshot is precisely a cut that breaks it.

use crate::{register_factories, restored, ClassFactory};
use aeon_api::Deployment;
use aeon_ownership::ClassGraph;
use aeon_runtime::{context_class, ContextClass, Invocation, Placement, Snapshot};
use aeon_types::{args, AeonError, Args, ContextId, Result, Value};
use std::collections::BTreeSet;

/// Class constraints of the bank, with method metadata declared from the
/// tables.
pub fn bank_class_graph() -> ClassGraph {
    let mut classes = ClassGraph::new();
    classes.add_constraint("Bank", "Branch");
    classes.add_constraint("Branch", "Account");
    Bank::table().declare_in(&mut classes);
    Branch::table().declare_in(&mut classes);
    Account::table().declare_in(&mut classes);
    classes
}

/// A single account: an integer balance.
#[derive(Debug, Default)]
pub struct Account {
    balance: i64,
}

impl Account {
    /// Creates an account holding `balance`.
    pub fn new(balance: i64) -> Self {
        Self { balance }
    }

    fn read(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(self.balance))
    }

    fn add(&mut self, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        let amount = args.get_i64(0)?;
        self.balance = self.balance.checked_add(amount).ok_or_else(|| {
            AeonError::overflow(format_args!("balance {} + {amount}", self.balance))
        })?;
        Ok(Value::from(self.balance))
    }

    fn write(&mut self, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        self.balance = args.get_i64(0)?;
        Ok(Value::Null)
    }

    fn snapshot_state(&self) -> Value {
        Value::map([("balance", Value::from(self.balance))])
    }

    fn restore_state(&mut self, state: &Value) {
        self.balance = state.get("balance").and_then(Value::as_i64).unwrap_or(0);
    }
}

context_class! {
    Account: "Account" {
        ro method "read" calls [] => Account::read,
        method "add" calls [] => Account::add,
        method "write" calls [] => Account::write,
    }
    snapshot = Account::snapshot_state;
    restore = Account::restore_state;
}

/// A branch: moves money between the accounts it (co-)owns.
#[derive(Debug, Default)]
pub struct Branch;

impl Branch {
    // transfer(from_account, to_account, amount): both legs inside one
    // event, so the total is conserved at every consistent cut.
    fn transfer(&mut self, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let from = args.get_context(0)?;
        let to = args.get_context(1)?;
        let (amount, withdrawal) = amount_and_withdrawal(args)?;
        inv.call(from, "add", args![withdrawal])?;
        inv.call(to, "add", args![amount])?;
        Ok(Value::Null)
    }

    // transfer_async(from_account, to_account, amount): the deposit leg is
    // an `async` call, which still completes inside the event.
    fn transfer_async(&mut self, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let from = args.get_context(0)?;
        let to = args.get_context(1)?;
        let (amount, withdrawal) = amount_and_withdrawal(args)?;
        inv.call(from, "add", args![withdrawal])?;
        inv.call_async(to, "add", args![amount])?;
        Ok(Value::Null)
    }

    fn total(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let mut total = 0i64;
        for account in inv.children(Some("Account"))? {
            total += inv
                .call(account, "read", args![])?
                .as_i64()
                .ok_or_else(|| AeonError::app("account returned a non-integer"))?;
        }
        Ok(Value::from(total))
    }

    fn account_ids(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::List(
            inv.children(Some("Account"))?
                .into_iter()
                .map(Value::ContextRef)
                .collect(),
        ))
    }
}

/// The amount of a transfer (argument 2) and its negation, the withdrawal.
/// An amount with no negation (`i64::MIN`) is refused before either leg
/// runs.
fn amount_and_withdrawal(args: &Args) -> Result<(i64, i64)> {
    let amount = args.get_i64(2)?;
    let withdrawal = amount
        .checked_neg()
        .ok_or_else(|| AeonError::overflow(format_args!("the withdrawal -({amount})")))?;
    Ok((amount, withdrawal))
}

context_class! {
    Branch: "Branch" {
        method "transfer" calls ["Account::add"] => Branch::transfer,
        method "transfer_async" calls ["Account::add"] => Branch::transfer_async,
        ro method "total" calls ["Account::read"] => Branch::total,
        ro method "account_ids" calls [] => Branch::account_ids,
    }
}

/// The bank root: audits the whole tree read-only.
#[derive(Debug, Default)]
pub struct Bank;

impl Bank {
    // readonly: total money across every account.  Shared accounts have
    // two owning branches, so the audit deduplicates account ids first.
    fn audit(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let mut seen = BTreeSet::new();
        let mut total = 0i64;
        for branch in inv.children(Some("Branch"))? {
            let ids = inv.call(branch, "account_ids", args![])?;
            for id in ids
                .as_list()
                .unwrap_or(&[])
                .iter()
                .filter_map(Value::as_context)
            {
                if seen.insert(id) {
                    total += inv
                        .call(id, "read", args![])?
                        .as_i64()
                        .ok_or_else(|| AeonError::app("account returned a non-integer"))?;
                }
            }
        }
        Ok(Value::from(total))
    }

    fn branch_count(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(inv.children(Some("Branch"))?.len() as i64))
    }
}

context_class! {
    Bank: "Bank" {
        ro method "audit" calls ["Branch::account_ids", "Account::read"] => Bank::audit,
        ro method "branch_count" calls [] => Bank::branch_count,
    }
}

/// Shape of a deployed bank.
#[derive(Debug, Clone)]
pub struct BankWorldConfig {
    /// Number of branches.
    pub branches: usize,
    /// Accounts exclusively owned by each branch.
    pub accounts_per_branch: usize,
    /// Adjacent branch pairs `(0,1), (1,2), …` that share accounts; pairs
    /// beyond this count stay isolated, so the deployment mixes bank-level
    /// and branch-level dominators.
    pub shared_pairs: usize,
    /// Accounts shared by each sharing pair.
    pub shared_accounts: usize,
    /// Initial balance of every account.
    pub initial_balance: i64,
}

impl Default for BankWorldConfig {
    fn default() -> Self {
        Self {
            branches: 4,
            accounts_per_branch: 4,
            shared_pairs: 1,
            shared_accounts: 1,
            initial_balance: 100,
        }
    }
}

/// Context ids of a deployed bank.
#[derive(Debug, Clone)]
pub struct BankWorld {
    /// The root context.
    pub bank: ContextId,
    /// Branch contexts.
    pub branches: Vec<ContextId>,
    /// For each branch, the accounts it (co-)owns: exclusive first, then
    /// shared.
    pub accounts_of: Vec<Vec<ContextId>>,
    /// Every distinct account.
    pub accounts: Vec<ContextId>,
}

impl BankWorld {
    /// Total money in the system right after deployment.
    pub fn expected_total(&self, config: &BankWorldConfig) -> i64 {
        self.accounts.len() as i64 * config.initial_balance
    }
}

/// Deploys the bank onto any backend.
///
/// # Errors
///
/// Propagates context-creation errors (e.g. class-graph violations).
pub fn deploy_bank(deployment: &dyn Deployment, config: &BankWorldConfig) -> Result<BankWorld> {
    let bank = deployment.create_context(Box::new(Bank), Placement::Auto)?;
    let mut branches = Vec::with_capacity(config.branches);
    let mut accounts_of: Vec<Vec<ContextId>> = Vec::with_capacity(config.branches);
    let mut accounts = Vec::new();
    for _ in 0..config.branches {
        let branch = deployment.create_owned_context(Box::new(Branch), &[bank])?;
        branches.push(branch);
        accounts_of.push(Vec::new());
    }
    for (b, branch) in branches.iter().enumerate() {
        for _ in 0..config.accounts_per_branch {
            let account = deployment
                .create_owned_context(Box::new(Account::new(config.initial_balance)), &[*branch])?;
            accounts_of[b].push(account);
            accounts.push(account);
        }
    }
    for pair in 0..config.shared_pairs.min(config.branches.saturating_sub(1)) {
        for _ in 0..config.shared_accounts {
            let account = deployment.create_owned_context(
                Box::new(Account::new(config.initial_balance)),
                &[branches[pair], branches[pair + 1]],
            )?;
            accounts_of[pair].push(account);
            accounts_of[pair + 1].push(account);
            accounts.push(account);
        }
    }
    Ok(BankWorld {
        bank,
        branches,
        accounts_of,
        accounts,
    })
}

/// Sum of the account balances captured in a snapshot of (part of) a bank
/// subtree.  On a consistent cut this equals the deployment's
/// [`BankWorld::expected_total`]; the snapshot tests assert exactly that.
pub fn captured_account_total(snapshot: &Snapshot) -> i64 {
    snapshot
        .entries()
        .filter(|(_, e)| e.class == "Account")
        .filter_map(|(_, e)| e.state.get("balance").and_then(Value::as_i64))
        .sum()
}

/// The bank's classes, each with the factory that rebuilds it from a
/// snapshot.
pub fn bank_factories() -> Vec<ClassFactory> {
    vec![
        ("Account", restored::<Account>()),
        ("Branch", restored::<Branch>()),
        ("Bank", restored::<Bank>()),
    ]
}

/// Registers snapshot factories for the bank classes, so migration and
/// crash re-hosting work on backends that rebuild objects from serialised
/// state.
pub fn register_bank_factories(deployment: &dyn Deployment) {
    register_factories(deployment, bank_factories());
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_runtime::AeonRuntime;

    #[test]
    fn transfers_conserve_money_and_audit_deduplicates_shared_accounts() {
        let runtime = AeonRuntime::builder()
            .servers(2)
            .class_graph(bank_class_graph())
            .build()
            .unwrap();
        let config = BankWorldConfig::default();
        let world = deploy_bank(&runtime, &config).unwrap();
        let session = Deployment::session(&runtime);
        let expected = world.expected_total(&config);
        assert_eq!(
            session.call_readonly(world.bank, "audit", args![]).unwrap(),
            Value::from(expected)
        );
        let from = world.accounts_of[0][0];
        let to = *world.accounts_of[0].last().unwrap();
        session
            .call(world.branches[0], "transfer", args![from, to, 30i64])
            .unwrap();
        assert_eq!(
            session.call_readonly(world.bank, "audit", args![]).unwrap(),
            Value::from(expected)
        );
        assert_eq!(
            session.call_readonly(from, "read", args![]).unwrap(),
            Value::from(config.initial_balance - 30)
        );
        runtime.shutdown();
    }

    #[test]
    fn bank_world_shapes_follow_the_config() {
        let runtime = AeonRuntime::builder()
            .class_graph(bank_class_graph())
            .build()
            .unwrap();
        let config = BankWorldConfig {
            branches: 3,
            accounts_per_branch: 2,
            shared_pairs: 2,
            shared_accounts: 1,
            initial_balance: 10,
        };
        let world = deploy_bank(&runtime, &config).unwrap();
        assert_eq!(world.branches.len(), 3);
        assert_eq!(world.accounts.len(), 3 * 2 + 2);
        // Shared accounts appear in both neighbouring branches.
        assert_eq!(world.accounts_of[1].len(), 2 + 2);
        let session = Deployment::session(&runtime);
        assert_eq!(
            session
                .call_readonly(world.branches[1], "total", args![])
                .unwrap(),
            Value::from(40i64)
        );
        runtime.shutdown();
    }
}
