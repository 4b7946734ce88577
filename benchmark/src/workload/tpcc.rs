//! `tpcc-tcp`: TPC-C transactions flattened into their single-context
//! events, offered open loop over TCP loopback.
//!
//! No event calls another context, so wire encode/decode, framing, the
//! sockets and the gateway hop do most of the work and the sub-call path
//! does none.

use super::{read_i64, thread_rng, Event, Side, Size, Tally, World};
use aeon::api::Deployment;
use aeon::types::args;
use aeon_apps::tpcc::{deploy_tpcc, TpccWorld};
use aeon_apps::TransactionKind;
use rand::Rng;

/// (districts, customers per district).
fn shape(size: Size) -> (usize, usize) {
    size.pick((4, 8), (2, 4))
}

/// One single-context event of a flattened transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TpccOp {
    /// `Warehouse::add_ytd(amount)` (Payment, 1 of 3).
    WarehouseAddYtd { amount: i64 },
    /// `District::add_ytd(amount)` (Payment, 2 of 3).
    DistrictAddYtd { district: usize, amount: i64 },
    /// `Customer::pay(amount)` (Payment, 3 of 3; Delivery with the
    /// delivered amount credited back).
    Pay {
        district: usize,
        customer: usize,
        amount: i64,
    },
    /// `Warehouse::reserve_stock(item, 1)` (New-Order, 1 of 3).
    ReserveStock { item: i64 },
    /// `District::next_order_id` (New-Order, 2 of 3).
    NextOrderId { district: usize },
    /// `Customer::record_order(order)` (New-Order, 3 of 3).  An open loop
    /// cannot wait for `next_order_id`, so the stream numbers orders itself.
    RecordOrder {
        district: usize,
        customer: usize,
        order: i64,
    },
    /// `Customer::last_order`, read-only (Order-Status, 1 of 2).
    LastOrder { district: usize, customer: usize },
    /// `Customer::balance`, read-only (Order-Status, 2 of 2).
    Balance { district: usize, customer: usize },
    /// `Warehouse::stock_level(threshold)`, read-only (Stock-Level).
    StockLevel { threshold: i64 },
}

/// The transactions of the standard mix, each flattened into its events;
/// the stream ends behind a whole transaction.
pub fn generate(seed: u64, size: Size) -> Vec<Vec<TpccOp>> {
    let (districts, customers) = shape(size);
    let mut rng = thread_rng(seed, 0);
    let mut transactions = Vec::new();
    let mut events = 0;
    let mut order = 0;
    while events < size.stream_len() {
        let district = rng.gen_range(0..districts);
        let customer = rng.gen_range(0..customers);
        let amount = rng.gen_range(1..=5_000i64);
        let transaction = match TransactionKind::sample(&mut rng) {
            TransactionKind::NewOrder => {
                order += 1;
                vec![
                    TpccOp::ReserveStock { item: amount % 100 },
                    TpccOp::NextOrderId { district },
                    TpccOp::RecordOrder {
                        district,
                        customer,
                        order,
                    },
                ]
            }
            TransactionKind::Payment => vec![
                TpccOp::WarehouseAddYtd { amount },
                TpccOp::DistrictAddYtd { district, amount },
                TpccOp::Pay {
                    district,
                    customer,
                    amount,
                },
            ],
            TransactionKind::OrderStatus => vec![
                TpccOp::LastOrder { district, customer },
                TpccOp::Balance { district, customer },
            ],
            TransactionKind::Delivery => vec![TpccOp::Pay {
                district,
                customer,
                amount: -amount,
            }],
            TransactionKind::StockLevel => vec![TpccOp::StockLevel {
                threshold: 900 + amount % 100,
            }],
        };
        events += transaction.len();
        transactions.push(transaction);
    }
    transactions
}

fn bind(world: &TpccWorld, op: TpccOp) -> Event {
    let customer = |d: usize, c: usize| world.customers[d][c];
    match op {
        TpccOp::WarehouseAddYtd { amount } => {
            Event::update(world.warehouse, "add_ytd", args![amount])
        }
        TpccOp::DistrictAddYtd { district, amount } => {
            Event::update(world.districts[district], "add_ytd", args![amount])
        }
        TpccOp::Pay {
            district,
            customer: c,
            amount,
        } => Event::update(customer(district, c), "pay", args![amount]),
        TpccOp::ReserveStock { item } => {
            Event::update(world.warehouse, "reserve_stock", args![item, 1])
        }
        TpccOp::NextOrderId { district } => {
            Event::update(world.districts[district], "next_order_id", args![])
        }
        TpccOp::RecordOrder {
            district,
            customer: c,
            order,
        } => Event::update(customer(district, c), "record_order", args![order]),
        TpccOp::LastOrder {
            district,
            customer: c,
        } => Event::read(customer(district, c), "last_order", args![]),
        TpccOp::Balance {
            district,
            customer: c,
        } => Event::read(customer(district, c), "balance", args![]),
        TpccOp::StockLevel { threshold } => {
            Event::read(world.warehouse, "stock_level", args![threshold])
        }
    }
}

/// TPC-C consistency condition 1: `W_YTD = Σ D_YTD`.
pub fn check_ytd(warehouse: i64, districts: &[i64]) -> Result<(), String> {
    let sum: i64 = districts.iter().sum();
    if warehouse == sum {
        Ok(())
    } else {
        Err(format!(
            "W_YTD = {warehouse} but the districts' YTD sum to {sum}"
        ))
    }
}

/// Deploys the database and binds the stream.
pub fn deploy(deployment: &dyn Deployment, seed: u64, size: Size) -> aeon::Result<World> {
    let (districts, customers) = shape(size);
    let world = deploy_tpcc(deployment, districts, customers)?;
    let mut stream = Vec::new();
    for transaction in generate(seed, size) {
        let last = transaction.len() - 1;
        for (i, op) in transaction.into_iter().enumerate() {
            stream.push(Event {
                closes_txn: i == last,
                ..bind(&world, op)
            });
        }
    }
    let root = world.warehouse;
    Ok(World {
        streams: vec![stream],
        side: Side::None,
        invariant: Box::new(move |deployment: &dyn Deployment, _: &Tally| {
            let session = deployment.session();
            let ytd = |ctx| read_i64(session.as_ref(), ctx, "ytd", args![]);
            let districts: Vec<i64> = world
                .districts
                .iter()
                .map(|d| ytd(*d))
                .collect::<Result<_, _>>()?;
            check_ytd(ytd(world.warehouse)?, &districts)
        }),
        root,
        social: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_a_function_of_the_seed() {
        assert_eq!(generate(3, Size::Smoke), generate(3, Size::Smoke));
        assert_ne!(generate(3, Size::Smoke), generate(4, Size::Smoke));
    }

    #[test]
    fn payments_keep_their_three_legs_together() {
        let transactions = generate(1, Size::Smoke);
        let events: usize = transactions.iter().map(Vec::len).sum();
        assert!(events >= Size::Smoke.stream_len());
        let (mut warehouse, mut districts) = (0i64, 0i64);
        for transaction in &transactions {
            for op in transaction {
                match op {
                    TpccOp::WarehouseAddYtd { amount } => warehouse += amount,
                    TpccOp::DistrictAddYtd { amount, .. } => districts += amount,
                    _ => {}
                }
            }
        }
        assert!(warehouse > 0);
        assert_eq!(warehouse, districts);
    }

    #[test]
    fn a_lost_district_update_fails_the_invariant() {
        assert!(check_ytd(30, &[10, 20]).is_ok());
        assert!(check_ytd(30, &[10, 19]).is_err());
    }
}
