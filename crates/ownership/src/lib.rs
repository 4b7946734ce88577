//! The ownership network of AEON (§3 of the paper).
//!
//! Contexts are organised in a directed acyclic graph by the
//! *directly-owned* relation: a context `C` is directly owned by `C'` when a
//! field of `C'` references `C`.  Multi-ownership (several parents) is
//! allowed; cycles are not.  The DAG induces, for every context, a
//! *dominator*: the least context that transitively owns everything the
//! target might share state with.  Dominators are where the runtime
//! serialises potentially-conflicting events, which is what yields strict
//! serializability together with deadlock- and starvation-freedom.
//!
//! This crate provides:
//!
//! * [`OwnershipGraph`] — the runtime context DAG with cycle-checked
//!   mutation, traversal helpers and persistence to/from
//!   [`Value`](aeon_types::Value)s;
//! * [`dominator`] — the `share`/`dom` computation of §3 plus a cached
//!   resolver;
//! * [`control`] — the [`ControlPlane`]: graph, context→server mapping and
//!   server roster with every rule over them, the one copy all three
//!   execution backends hold;
//! * [`analysis`] — the static, contextclass-level acyclicity analysis that
//!   the AEON compiler performs before admitting a program.
//!
//! The path a call takes to a context its caller owns only transitively
//! (Algorithm 2's `activatePath`) is walked up from the callee, one owner
//! at a time ([`OwnershipGraph::path_owners`]), by the event interpreter.
//!
//! # Examples
//!
//! ```
//! use aeon_ownership::OwnershipGraph;
//! use aeon_types::ContextId;
//!
//! let mut g = OwnershipGraph::new();
//! let castle = ContextId::new(0);
//! let room = ContextId::new(1);
//! let player = ContextId::new(2);
//! g.add_context(castle, "Building").unwrap();
//! g.add_context(room, "Room").unwrap();
//! g.add_context(player, "Player").unwrap();
//! g.add_edge(castle, room).unwrap();
//! g.add_edge(room, player).unwrap();
//! assert!(g.is_ancestor(castle, player));
//! // Adding the reverse edge would create a cycle and is rejected.
//! assert!(g.add_edge(player, castle).is_err());
//! ```

pub mod analysis;
pub mod control;
pub mod dominator;
pub mod graph;

pub use analysis::{ClassGraph, MethodInfo, MethodRef};
pub use control::{ControlPlane, Placement, Sequencer, GLOBAL_ROOT};
pub use dominator::{dominator_of, share_set, Dominator, DominatorResolver};
pub use graph::OwnershipGraph;

/// The game ownership network of Figure 3 of the paper, for this crate's
/// unit tests.
#[cfg(test)]
mod fixtures {
    use crate::OwnershipGraph;
    use aeon_types::ContextId;

    /// Handles to the contexts of the Figure 3 game graph.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct GameGraph {
        pub castle: ContextId,
        pub kings_room: ContextId,
        pub armory: ContextId,
        pub player1: ContextId,
        pub player2: ContextId,
        pub player3: ContextId,
        pub treasure: ContextId,
        pub weapons_vault: ContextId,
        pub sword: ContextId,
        pub horse: ContextId,
    }

    /// Builds the runtime ownership DAG of Figure 3:
    ///
    /// ```text
    /// Castle ── Kings Room ── {Player1, Player2, Treasure}
    ///        └─ Armory     ── {Player3, Weapons Vault}
    /// Player1 ── Treasure          (shared with Player2 and Kings Room)
    /// Player2 ── Treasure
    /// Player3 ── {Sword, Horse}
    /// Weapons Vault ── {Sword, Horse}   (shared with Player3)
    /// ```
    pub fn game_graph() -> (OwnershipGraph, GameGraph) {
        let mut g = OwnershipGraph::new();
        let ids = GameGraph {
            castle: ContextId::new(0),
            kings_room: ContextId::new(1),
            armory: ContextId::new(2),
            player1: ContextId::new(3),
            player2: ContextId::new(4),
            player3: ContextId::new(5),
            treasure: ContextId::new(6),
            weapons_vault: ContextId::new(7),
            sword: ContextId::new(8),
            horse: ContextId::new(9),
        };
        g.add_context(ids.castle, "Building").unwrap();
        g.add_context(ids.kings_room, "Room").unwrap();
        g.add_context(ids.armory, "Room").unwrap();
        g.add_context(ids.player1, "Player").unwrap();
        g.add_context(ids.player2, "Player").unwrap();
        g.add_context(ids.player3, "Player").unwrap();
        g.add_context(ids.treasure, "Item").unwrap();
        g.add_context(ids.weapons_vault, "Item").unwrap();
        g.add_context(ids.sword, "Item").unwrap();
        g.add_context(ids.horse, "Item").unwrap();

        g.add_edge(ids.castle, ids.kings_room).unwrap();
        g.add_edge(ids.castle, ids.armory).unwrap();
        g.add_edge(ids.kings_room, ids.player1).unwrap();
        g.add_edge(ids.kings_room, ids.player2).unwrap();
        g.add_edge(ids.kings_room, ids.treasure).unwrap();
        g.add_edge(ids.player1, ids.treasure).unwrap();
        g.add_edge(ids.player2, ids.treasure).unwrap();
        g.add_edge(ids.armory, ids.player3).unwrap();
        g.add_edge(ids.armory, ids.weapons_vault).unwrap();
        g.add_edge(ids.player3, ids.sword).unwrap();
        g.add_edge(ids.player3, ids.horse).unwrap();
        g.add_edge(ids.weapons_vault, ids.sword).unwrap();
        g.add_edge(ids.weapons_vault, ids.horse).unwrap();
        (g, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::fixtures::game_graph;
    use super::*;
    use aeon_types::ContextId;

    #[test]
    fn fixture_matches_figure_3_shape() {
        let (g, ids) = game_graph();
        assert_eq!(g.len(), 10);
        assert!(g.is_ancestor(ids.castle, ids.sword));
        assert!(g.is_ancestor(ids.kings_room, ids.treasure));
        assert!(!g.is_ancestor(ids.armory, ids.treasure));
        assert_eq!(g.parents(ids.treasure).unwrap().len(), 3);
        assert_eq!(g.parents(ids.sword).unwrap().len(), 2);
    }

    #[test]
    fn dominators_match_section_3_examples() {
        let (g, ids) = game_graph();
        let resolver = DominatorResolver::default();
        // "dom(G, Player1) is Kings room and dom(G, Sword) is Sword" — §3.
        assert_eq!(
            resolver.dominator(&g, ids.player1).unwrap(),
            Dominator::Context(ids.kings_room)
        );
        // A leaf context has no descendants, so its share set is empty and
        // it is its own dominator ("dom(G, Sword) is Sword" — §3).  Events
        // reaching it from above still serialise against events targeting it
        // directly via its activation queue (the Horse/E3 illustration, §4).
        assert_eq!(
            resolver.dominator(&g, ids.sword).unwrap(),
            Dominator::Context(ids.sword)
        );
        // Single-owner contexts are their own dominator.
        assert_eq!(
            resolver.dominator(&g, ids.castle).unwrap(),
            Dominator::Context(ids.castle)
        );
        assert_eq!(
            resolver.dominator(&g, ids.armory).unwrap(),
            Dominator::Context(ids.armory)
        );
    }

    #[test]
    fn missing_context_is_reported() {
        let g = OwnershipGraph::new();
        assert!(g.children(ContextId::new(42)).is_err());
    }
}
