//! The applications used by the paper: the massively multiplayer online
//! game of §2, the TPC-C benchmark of §6.1.2, and the inductive context
//! data structures of §3 (`collections`), plus the bank and the Zipfian
//! social network the test and benchmark suites add.  Each is a set of real
//! [`aeon_runtime::ContextObject`] implementations and a deployment driver
//! over `&dyn` [`aeon_api::Deployment`], so one copy of an application runs
//! unchanged on the runtime, the cluster and the virtual-time sim.

pub mod bank;
pub mod collections;
pub mod game;
pub mod social;
pub mod tpcc;

pub use bank::{deploy_bank, register_bank_factories, BankWorld, BankWorldConfig};
pub use collections::{ListSet, SearchTree};
pub use social::{
    deploy_social, deploy_social_plan, generate_plan, register_social_factories, run_social_stream,
    social_class_graph, SocialConfig, SocialOp, SocialPlan, SocialStreamReport, SocialWorld,
    ZipfSampler,
};
pub use tpcc::TransactionKind;

use aeon_api::Deployment;
use aeon_runtime::{ContextFactory, ContextObject};
use std::sync::Arc;

/// A contextclass's name and the factory that rebuilds its object from a
/// snapshot: one entry of an application's factory list
/// ([`bank::bank_factories`], [`game::game_factories`],
/// [`social::social_factories`]).
pub type ClassFactory = (&'static str, ContextFactory);

/// The factory of `T`: a default `T`, restored from the state.
fn restored<T: ContextObject + Default + 'static>() -> ContextFactory {
    Arc::new(|state| {
        let mut object = T::default();
        object.restore(state);
        Box::new(object) as Box<dyn ContextObject>
    })
}

/// Registers every factory of `factories` with `deployment`.
fn register_factories(deployment: &dyn Deployment, factories: Vec<ClassFactory>) {
    for (class, factory) in factories {
        deployment.register_class_factory(class, factory);
    }
}

/// Class graph of a plain key/value deployment: the single `Kv` class
/// ([`aeon_runtime::KvContext`]'s method table) with no ownership
/// constraints — the smallest graph `aeon-lint` exercises.
pub fn kv_class_graph() -> aeon_ownership::ClassGraph {
    use aeon_runtime::ContextClass;
    let mut classes = aeon_ownership::ClassGraph::new();
    classes.add_class("Kv");
    aeon_runtime::KvContext::table().declare_in(&mut classes);
    classes
}

#[cfg(test)]
mod tests {
    use aeon_analyzer::analyze;

    #[test]
    fn every_builtin_class_graph_is_analyzer_clean() {
        for (name, classes) in [
            ("game", crate::game::game_class_graph()),
            ("tpcc", crate::tpcc::tpcc_class_graph()),
            ("bank", crate::bank::bank_class_graph()),
            ("social", crate::social::social_class_graph()),
            ("kv", crate::kv_class_graph()),
            ("collections", crate::collections::collections_class_graph()),
        ] {
            let report = analyze(&classes);
            assert!(
                report.is_clean(),
                "builtin graph {name} is not clean:\n{}",
                report.render_text()
            );
        }
    }
}
