//! Top-down path discovery in the ownership DAG.
//!
//! `activatePath` in Algorithm 2 of the paper locks every context on a path
//! from an event's dominator down to the context being entered, in top-down
//! order.  This module finds such a path.

use crate::graph::OwnershipGraph;
use aeon_types::{AeonError, ContextId, Result};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Finds a shortest ownership path `from -> ... -> to` (inclusive on both
/// ends) following directly-owned edges.
///
/// When `from == to` the path is the single context.  The choice among
/// several shortest paths is deterministic (children are explored in
/// ascending id order) so that repeated activations of the same event lock
/// the same contexts.
///
/// # Errors
///
/// * [`AeonError::ContextNotFound`] if either endpoint is unknown.
/// * [`AeonError::OwnershipViolation`] if `to` is not reachable from `from`
///   (i.e. `from` does not transitively own `to`).
pub fn find_path(graph: &OwnershipGraph, from: ContextId, to: ContextId) -> Result<Vec<ContextId>> {
    if !graph.contains(from) {
        return Err(AeonError::ContextNotFound(from));
    }
    if !graph.contains(to) {
        return Err(AeonError::ContextNotFound(to));
    }
    if from == to {
        return Ok(vec![from]);
    }
    // BFS from `from` towards `to` along children edges.
    let mut predecessor: BTreeMap<ContextId, ContextId> = BTreeMap::new();
    let mut visited: BTreeSet<ContextId> = BTreeSet::from([from]);
    let mut queue = VecDeque::from([from]);
    while let Some(cur) = queue.pop_front() {
        for child in graph.children(cur)? {
            if visited.insert(child) {
                predecessor.insert(child, cur);
                if child == to {
                    // Reconstruct.
                    let mut path = vec![to];
                    let mut node = to;
                    while let Some(&prev) = predecessor.get(&node) {
                        path.push(prev);
                        node = prev;
                    }
                    path.reverse();
                    return Ok(path);
                }
                queue.push_back(child);
            }
        }
    }
    Err(AeonError::ownership(from, to))
}

/// Returns every context on *some* path from `from` to `to` — the union of
/// all paths.  Used by conservative lock acquisition strategies and by the
/// snapshot API (a consistent snapshot of a context covers all reachable
/// children).
///
/// # Errors
///
/// Same conditions as [`find_path`].
pub fn all_on_paths(
    graph: &OwnershipGraph,
    from: ContextId,
    to: ContextId,
) -> Result<BTreeSet<ContextId>> {
    // A context X is on a path from `from` to `to` iff it is reachable from
    // `from` and `to` is reachable from it.
    find_path(graph, from, to)?; // validates reachability and endpoints
    let mut down: BTreeSet<ContextId> = graph.descendants(from)?;
    down.insert(from);
    let mut up: BTreeSet<ContextId> = graph.ancestors(to)?;
    up.insert(to);
    Ok(down.intersection(&up).copied().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::game_graph;

    #[test]
    fn trivial_path_is_the_context_itself() {
        let (g, ids) = game_graph();
        assert_eq!(
            find_path(&g, ids.player1, ids.player1).unwrap(),
            vec![ids.player1]
        );
    }

    #[test]
    fn path_from_dominator_to_target() {
        let (g, ids) = game_graph();
        let path = find_path(&g, ids.kings_room, ids.treasure).unwrap();
        // The shortest path is the direct ownership edge.
        assert_eq!(path, vec![ids.kings_room, ids.treasure]);
        let path = find_path(&g, ids.castle, ids.sword).unwrap();
        assert_eq!(path.first(), Some(&ids.castle));
        assert_eq!(path.last(), Some(&ids.sword));
        // Every consecutive pair must be an ownership edge.
        for w in path.windows(2) {
            assert!(g.children(w[0]).unwrap().contains(&w[1]));
        }
    }

    #[test]
    fn unreachable_target_is_an_ownership_violation() {
        let (g, ids) = game_graph();
        assert!(matches!(
            find_path(&g, ids.armory, ids.treasure),
            Err(AeonError::OwnershipViolation { .. })
        ));
        assert!(matches!(
            find_path(&g, ids.player1, ids.kings_room),
            Err(AeonError::OwnershipViolation { .. })
        ));
    }

    #[test]
    fn unknown_endpoints_are_reported() {
        let (g, _) = game_graph();
        let ghost = aeon_types::ContextId::new(999);
        assert!(matches!(
            find_path(&g, ghost, ghost),
            Err(AeonError::ContextNotFound(_))
        ));
    }

    #[test]
    fn all_on_paths_is_a_superset_of_any_path() {
        let (g, ids) = game_graph();
        let union = all_on_paths(&g, ids.armory, ids.sword).unwrap();
        // Both the Player3 route and the Weapons Vault route are included.
        assert!(union.contains(&ids.player3));
        assert!(union.contains(&ids.weapons_vault));
        assert!(union.contains(&ids.armory));
        assert!(union.contains(&ids.sword));
        assert!(!union.contains(&ids.horse));
        let path = find_path(&g, ids.armory, ids.sword).unwrap();
        for c in path {
            assert!(union.contains(&c));
        }
    }
}
