//! Property tests of the checker over generated histories: serial and
//! lock-disciplined histories are always accepted, lost updates always
//! rejected, and an accepted order respects every write-write conflict.
//! (Live runs are checked where the backends are: `tests/backend_parity.rs`
//! and `tests/chaos_serializability.rs` at the workspace root.)

use aeon_checker::generator::{locked_history, racy_history, serial_history, GeneratorConfig};
use aeon_checker::{check_serializability, check_strict_serializability, OpKind};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_serial_histories_always_accepted(
        events in 1usize..40,
        contexts in 1usize..8,
        ops in 1usize..5,
        read_percent in 0u32..=100,
        seed in any::<u64>(),
    ) {
        let config = GeneratorConfig { events, contexts, ops_per_event: ops, read_percent, seed };
        let history = serial_history(&config);
        prop_assert!(check_strict_serializability(&history).is_ok());
    }

    #[test]
    fn prop_locked_histories_always_accepted(
        events in 1usize..60,
        contexts in 1usize..10,
        ops in 1usize..6,
        read_percent in 0u32..=100,
        seed in any::<u64>(),
    ) {
        let config = GeneratorConfig { events, contexts, ops_per_event: ops, read_percent, seed };
        let history = locked_history(&config);
        prop_assert!(check_strict_serializability(&history).is_ok());
    }

    #[test]
    fn prop_lost_updates_always_rejected(
        contexts in 1usize..6,
        seed in any::<u64>(),
    ) {
        let config = GeneratorConfig { events: 4, contexts, ops_per_event: 2, read_percent: 50, seed };
        let history = racy_history(&config, 100);
        prop_assert!(check_serializability(&history).is_err());
        prop_assert!(check_strict_serializability(&history).is_err());
    }

    #[test]
    fn prop_serialization_order_respects_conflicts(
        events in 2usize..30,
        contexts in 1usize..6,
        ops in 1usize..4,
        seed in any::<u64>(),
    ) {
        let config = GeneratorConfig { events, contexts, ops_per_event: ops, read_percent: 20, seed };
        let history = locked_history(&config);
        let order = check_strict_serializability(&history).unwrap();
        let positions = order.positions();
        // Every write->write pair in a context must appear in serial order.
        for ops in history.operations.values() {
            for (i, a) in ops.iter().enumerate() {
                for b in ops.iter().skip(i + 1) {
                    if a.event != b.event
                        && a.kind == OpKind::Write
                        && b.kind == OpKind::Write
                    {
                        prop_assert!(positions[&a.event] < positions[&b.event]);
                    }
                }
            }
        }
    }
}
