//! The TPC-C benchmark (§6.1.2), partitioned by district as in the paper.
//!
//! Context structure (multi-ownership variant):
//!
//! ```text
//! WareHouse ── District ── Customer ── Order ── {NewOrder, OrderLine}
//!                     └──────────────── Order      (shared with Customer)
//! ```
//!
//! The contextclasses are declared with [`aeon_runtime::context_class!`]
//! method tables and the transaction drivers are generic over
//! [`aeon_api::Deployment`]/[`aeon_api::Session`].

use aeon_api::{Deployment, Placement, Session};
use aeon_ownership::ClassGraph;
use aeon_runtime::{context_class, ContextClass, Invocation};
use aeon_types::{args, AeonError, Args, ContextId, Result, Value};
use rand::Rng;

/// Class constraints of the TPC-C application (§6.1.2 listing), with the
/// contextclass method metadata declared from the method tables.
pub fn tpcc_class_graph() -> ClassGraph {
    let mut classes = ClassGraph::new();
    classes.add_constraint("WareHouse", "Stock");
    classes.add_constraint("WareHouse", "District");
    classes.add_constraint("District", "Customer");
    classes.add_constraint("District", "Order");
    classes.add_constraint("Customer", "History");
    classes.add_constraint("Customer", "Order");
    classes.add_constraint("Order", "NewOrder");
    classes.add_constraint("Order", "OrderLine");
    Warehouse::table().declare_in(&mut classes);
    District::table().declare_in(&mut classes);
    Customer::table().declare_in(&mut classes);
    classes
}

/// The five TPC-C transaction types and their standard mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransactionKind {
    /// New-order (45% of the mix).
    NewOrder,
    /// Payment (43%).
    Payment,
    /// Order-status, read-only (4%).
    OrderStatus,
    /// Delivery (4%).
    Delivery,
    /// Stock-level, read-only (4%).
    StockLevel,
}

impl TransactionKind {
    /// Draws a transaction type according to the standard TPC-C mix.
    pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let roll: f64 = rng.gen();
        if roll < 0.45 {
            TransactionKind::NewOrder
        } else if roll < 0.88 {
            TransactionKind::Payment
        } else if roll < 0.92 {
            TransactionKind::OrderStatus
        } else if roll < 0.96 {
            TransactionKind::Delivery
        } else {
            TransactionKind::StockLevel
        }
    }

    /// Whether the transaction is read-only.
    pub fn readonly(self) -> bool {
        matches!(
            self,
            TransactionKind::OrderStatus | TransactionKind::StockLevel
        )
    }
}

// ---------------------------------------------------------------------------
// Contextclasses.
// ---------------------------------------------------------------------------

/// `current + by`, or the overflow error naming `what`, so that a context
/// refuses the argument with its state unchanged.
fn add_checked(what: &str, current: i64, by: i64) -> Result<i64> {
    current
        .checked_add(by)
        .ok_or_else(|| AeonError::overflow(format_args!("{what} {current} + {by}")))
}

/// The warehouse context: year-to-date totals and the (fixed) item/stock
/// catalogue, which does not need elasticity and therefore lives inside the
/// warehouse context as the paper does.
#[derive(Debug, Default)]
pub struct Warehouse {
    ytd: i64,
    stock: std::collections::BTreeMap<i64, i64>,
}

impl Warehouse {
    /// Creates a warehouse with `items` catalogue entries of `quantity`
    /// stock each.
    pub fn new(items: i64, quantity: i64) -> Self {
        Self {
            ytd: 0,
            stock: (0..items).map(|i| (i, quantity)).collect(),
        }
    }

    fn add_ytd(&mut self, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        self.ytd = add_checked("ytd", self.ytd, args.get_i64(0)?)?;
        Ok(Value::from(self.ytd))
    }

    fn ytd(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(self.ytd))
    }

    fn reserve_stock(&mut self, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        let item = args.get_i64(0)?;
        let qty = args.get_i64(1)?;
        let entry = self
            .stock
            .get_mut(&item)
            .ok_or_else(|| AeonError::app(format!("unknown item {item}")))?;
        let restocked = if *entry < qty {
            add_checked("stock", *entry, 91)? // TPC-C restock rule
        } else {
            *entry
        };
        *entry = restocked
            .checked_sub(qty)
            .ok_or_else(|| AeonError::overflow(format_args!("stock {restocked} - {qty}")))?;
        Ok(Value::from(*entry))
    }

    fn stock_level(&mut self, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        let threshold = args.get_i64(0)?;
        let low = self.stock.values().filter(|q| **q < threshold).count();
        Ok(Value::from(low))
    }

    fn snapshot_state(&self) -> Value {
        Value::map([("ytd", Value::from(self.ytd))])
    }

    fn restore_state(&mut self, state: &Value) {
        self.ytd = state.get("ytd").and_then(Value::as_i64).unwrap_or(0);
    }
}

context_class! {
    Warehouse: "WareHouse" {
        method "add_ytd" calls [] => Warehouse::add_ytd,
        ro method "ytd" calls [] => Warehouse::ytd,
        method "reserve_stock" calls [] => Warehouse::reserve_stock,
        ro method "stock_level" calls [] => Warehouse::stock_level,
    }
    snapshot = Warehouse::snapshot_state;
    restore = Warehouse::restore_state;
}

/// The district context: order-id counter and year-to-date totals.
#[derive(Debug, Default)]
pub struct District {
    ytd: i64,
    next_order_id: i64,
}

impl District {
    fn add_ytd(&mut self, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        self.ytd = add_checked("ytd", self.ytd, args.get_i64(0)?)?;
        Ok(Value::from(self.ytd))
    }

    fn ytd(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(self.ytd))
    }

    fn next_order_id(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        let id = self.next_order_id;
        self.next_order_id += 1;
        Ok(Value::from(id))
    }

    fn order_count(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(self.next_order_id))
    }

    fn snapshot_state(&self) -> Value {
        Value::map([
            ("ytd", Value::from(self.ytd)),
            ("next_order_id", Value::from(self.next_order_id)),
        ])
    }

    fn restore_state(&mut self, state: &Value) {
        self.ytd = state.get("ytd").and_then(Value::as_i64).unwrap_or(0);
        self.next_order_id = state
            .get("next_order_id")
            .and_then(Value::as_i64)
            .unwrap_or(0);
    }
}

context_class! {
    District: "District" {
        method "add_ytd" calls [] => District::add_ytd,
        ro method "ytd" calls [] => District::ytd,
        method "next_order_id" calls [] => District::next_order_id,
        ro method "order_count" calls [] => District::order_count,
    }
    snapshot = District::snapshot_state;
    restore = District::restore_state;
}

/// The customer context: balance, payment history and its orders.
#[derive(Debug, Default)]
pub struct Customer {
    balance: i64,
    payments: i64,
    orders: Vec<i64>,
}

impl Customer {
    fn pay(&mut self, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        let amount = args.get_i64(0)?;
        self.balance = self.balance.checked_sub(amount).ok_or_else(|| {
            AeonError::overflow(format_args!("balance {} - {amount}", self.balance))
        })?;
        self.payments += 1;
        Ok(Value::from(self.balance))
    }

    fn record_order(&mut self, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        self.orders.push(args.get_i64(0)?);
        Ok(Value::from(self.orders.len()))
    }

    fn last_order(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(self
            .orders
            .last()
            .map(|o| Value::from(*o))
            .unwrap_or(Value::Null))
    }

    fn balance(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(self.balance))
    }

    fn snapshot_state(&self) -> Value {
        Value::map([
            ("balance", Value::from(self.balance)),
            ("payments", Value::from(self.payments)),
            (
                "orders",
                Value::List(self.orders.iter().map(|o| Value::from(*o)).collect()),
            ),
        ])
    }

    fn restore_state(&mut self, state: &Value) {
        self.balance = state.get("balance").and_then(Value::as_i64).unwrap_or(0);
        self.payments = state.get("payments").and_then(Value::as_i64).unwrap_or(0);
        if let Some(orders) = state.get("orders").and_then(Value::as_list) {
            self.orders = orders.iter().filter_map(Value::as_i64).collect();
        }
    }
}

context_class! {
    Customer: "Customer" {
        method "pay" calls [] => Customer::pay,
        method "record_order" calls [] => Customer::record_order,
        ro method "last_order" calls [] => Customer::last_order,
        ro method "balance" calls [] => Customer::balance,
    }
    snapshot = Customer::snapshot_state;
    restore = Customer::restore_state;
}

/// A deployed TPC-C database.
#[derive(Debug, Clone)]
pub struct TpccWorld {
    /// The single warehouse context.
    pub warehouse: ContextId,
    /// One district per logical partition.
    pub districts: Vec<ContextId>,
    /// Customers, grouped by district.
    pub customers: Vec<Vec<ContextId>>,
}

/// Deploys a (scaled-down) TPC-C database on any [`Deployment`] backend:
/// one warehouse, `districts` districts, `customers_per_district` customers
/// each.
///
/// # Errors
///
/// Propagates context-creation failures.
pub fn deploy_tpcc(
    deployment: &dyn Deployment,
    districts: usize,
    customers_per_district: usize,
) -> Result<TpccWorld> {
    let warehouse =
        deployment.create_context(Box::new(Warehouse::new(100, 1_000)), Placement::Auto)?;
    let mut world = TpccWorld {
        warehouse,
        districts: Vec::new(),
        customers: Vec::new(),
    };
    for _ in 0..districts {
        let district =
            deployment.create_owned_context(Box::new(District::default()), &[warehouse])?;
        let mut customers = Vec::new();
        for _ in 0..customers_per_district {
            customers
                .push(deployment.create_owned_context(Box::new(Customer::default()), &[district])?);
        }
        world.districts.push(district);
        world.customers.push(customers);
    }
    Ok(world)
}

/// Executes a New-Order transaction against the deployed world through any
/// [`Session`].
///
/// # Errors
///
/// Propagates event execution failures.
pub fn run_new_order(
    session: &dyn Session,
    world: &TpccWorld,
    district_idx: usize,
    customer_idx: usize,
    amount: i64,
) -> Result<i64> {
    let district = world.districts[district_idx];
    let customer = world.customers[district_idx][customer_idx];
    session.call(world.warehouse, "reserve_stock", args![amount % 100, 1])?;
    let order_id = session
        .call(district, "next_order_id", args![])?
        .as_i64()
        .unwrap_or(0);
    session.call(customer, "record_order", args![order_id])?;
    Ok(order_id)
}

/// Executes a Payment transaction: warehouse, district and customer YTD /
/// balance updates (the TPC-C consistency condition W_YTD = Σ D_YTD is
/// checked by the tests).
///
/// # Errors
///
/// Propagates event execution failures.
pub fn run_payment(
    session: &dyn Session,
    world: &TpccWorld,
    district_idx: usize,
    customer_idx: usize,
    amount: i64,
) -> Result<()> {
    session.call(world.warehouse, "add_ytd", args![amount])?;
    session.call(world.districts[district_idx], "add_ytd", args![amount])?;
    session.call(
        world.customers[district_idx][customer_idx],
        "pay",
        args![amount],
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_runtime::AeonRuntime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn runtime_tpcc_consistency_invariant() {
        // W_YTD == sum of D_YTD after a batch of concurrent payments
        // (TPC-C consistency condition 1), and order ids are unique per
        // district.
        let runtime = AeonRuntime::builder()
            .servers(4)
            .class_graph(tpcc_class_graph())
            .build()
            .unwrap();
        let world = deploy_tpcc(&runtime, 2, 3).unwrap();
        let client = runtime.client();
        let mut expected_total = 0i64;
        for i in 0..30 {
            let d = i % 2;
            let c = i % 3;
            run_payment(&client, &world, d, c, 10).unwrap();
            expected_total += 10;
            run_new_order(&client, &world, d, c, i as i64).unwrap();
        }
        let w_ytd = client
            .call_readonly(world.warehouse, "ytd", args![])
            .unwrap();
        assert_eq!(w_ytd, Value::from(expected_total));
        let mut district_sum = 0;
        for d in &world.districts {
            district_sum += client
                .call_readonly(*d, "ytd", args![])
                .unwrap()
                .as_i64()
                .unwrap();
        }
        assert_eq!(district_sum, expected_total);
        // 15 orders per district, ids 0..15.
        for d in &world.districts {
            assert_eq!(
                client.call_readonly(*d, "order_count", args![]).unwrap(),
                Value::from(15i64)
            );
        }
        runtime.shutdown();
    }

    #[test]
    fn tpcc_class_graph_is_valid_and_carries_method_metadata() {
        let classes = tpcc_class_graph();
        classes.check().unwrap();
        assert_eq!(classes.readonly_method("WareHouse", "ytd"), Some(true));
        assert_eq!(
            classes.readonly_method("WareHouse", "reserve_stock"),
            Some(false)
        );
        assert_eq!(classes.readonly_method("Customer", "balance"), Some(true));
    }

    #[test]
    fn transaction_mix_is_roughly_standard() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut counts = std::collections::HashMap::new();
        let n = 20_000;
        for _ in 0..n {
            *counts
                .entry(TransactionKind::sample(&mut rng))
                .or_insert(0usize) += 1;
        }
        let frac = |k: TransactionKind| counts[&k] as f64 / n as f64;
        assert!((frac(TransactionKind::NewOrder) - 0.45).abs() < 0.02);
        assert!((frac(TransactionKind::Payment) - 0.43).abs() < 0.02);
        assert!((frac(TransactionKind::OrderStatus) - 0.04).abs() < 0.01);
        assert!(TransactionKind::OrderStatus.readonly());
        assert!(!TransactionKind::NewOrder.readonly());
    }
}
