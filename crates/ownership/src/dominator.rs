//! Dominator computation (§3 of the paper).
//!
//! For a context `C` in ownership network `G`, the *share set* collects the
//! contexts that might access state in common with `C`:
//!
//! ```text
//! share(G,C) = { C' | desc(G,C) ∩ children(G,C') ≠ ∅ }
//!            ∪ { C' | desc(G,C') ∩ desc(G,C) ≠ ∅
//!                     ∧ C' ∉ desc(G,C) ∧ C ∉ desc(G,C') }
//! ```
//!
//! and the *dominator* is the least upper bound of `share(G,C) ∪ {C}` in the
//! ownership semi-lattice.  Locking the dominator before executing an event
//! guarantees that no two events that could touch common state run
//! concurrently, while unrelated events proceed in parallel.
//!
//! # How a query is answered
//!
//! Both clauses only select contexts that can *reach* a descendant of `C`,
//! so one *expansion* of `C` walks down to `desc(C)`, then up from it:
//! the first clause is the direct owners of the descendants, the second is
//! everything else the upward walk meets that is neither below nor above
//! `C`.  [`DominatorMode::Closure`] repeats that for the members it finds
//! until nothing new turns up, and the least upper bound of the result is
//! the dominator.
//!
//! **Pruning lemma.**  For `x ∈ desc(y)`:
//! `share(x) ⊆ share(y) ∪ {y} ∪ desc(y)`.  First clause: `desc(x) ⊆
//! desc(y)`, so an owner of a descendant of `x` owns a descendant of `y`,
//! and is in `share(y)` or is `y`.  Second clause: a context that shares a
//! descendant with `x` shares it with `y`; if it is not above `x` it is not
//! above `y` either (`anc(x) ⊇ anc(y) ∪ {y}`), so it is below `y` or in
//! `share(y)`.
//!
//! **Why deferral is safe.**  The closure therefore expands a member only
//! if, when its turn comes, no strict ancestor of it is a member; otherwise
//! the member is *deferred* for good.  Ownership is acyclic, so above every
//! deferred member sits an expanded one, and by the lemma (applied down the
//! chain) everything the full closure would have derived from the deferred
//! member is a member already or lies below an expanded member.  The full
//! closure is thus the pruned one plus descendants of its members, and a
//! descendant of a member never changes the set of common upper bounds:
//! `anc(x) ⊇ anc(y)`.  For the same reason the least upper bound is taken
//! over the members that were not deferred — they include every maximum of
//! the set.
//!
//! **Cost model.**  A leaf — what most events target — shares nothing and is
//! answered from its empty child set.  Any other query runs on the graph
//! itself: contexts are the graph's slots, adjacency is a slice of slots,
//! and the marks of every walk sit in a `Scratch` indexed by slot and
//! stamped with the walk's epoch — nothing is interned, copied, cleared or
//! allocated per query; the scratch comes from the graph's pool, which
//! holds as many as queries ever ran at once.  Expanding `m` visits
//! `desc(m)`, `anc(m)` and the contexts above `desc(m)` once each; a
//! deferred member costs the ancestor steps up to the first member, usually
//! one.  The least upper bound is one upward pass per member that was not
//! deferred, counting how many passes reach each context.  For `k` owner
//! chains of depth `d` over one shared context that is `k + 1` expansions
//! where the unpruned closure makes `k·d`.  No mark is touched beyond what
//! the walks reach, so a query on a chain inside a large network stays
//! proportional to the chain.  Through a [`DominatorResolver`] a leaf costs
//! one id lookup, and a *cached* answer for any other context one id lookup,
//! one union-find `find` and one array read.

use crate::graph::{Dir, OwnershipGraph, Scratch};
use aeon_types::{ContextId, Result};
use parking_lot::RwLock;
use std::collections::BTreeSet;

/// The result of a dominator query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dominator {
    /// A concrete context dominates the target.
    Context(ContextId),
    /// No single context dominates every sharing context (the ownership
    /// order has multiple maxima over the share set).  The paper inserts an
    /// unnamed context in this case (footnote 1, §3); the runtime maps this
    /// to a per-application global sequencer.
    GlobalRoot,
}

impl Dominator {
    /// Returns the context id if the dominator is a concrete context.
    pub fn context(self) -> Option<ContextId> {
        match self {
            Dominator::Context(c) => Some(c),
            Dominator::GlobalRoot => None,
        }
    }
}

/// How dominators are derived from the share relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DominatorMode {
    /// The one-step formula exactly as written in §3 of the paper:
    /// `dom(G,C) = lub(share(G,C) ∪ {C})`.
    PaperFormula,
    /// Fix-point closure of the share relation before taking the least
    /// upper bound.  On the paper's applications this coincides with the
    /// one-step formula, but it remains safe for ownership networks where
    /// sharing chains are asymmetric (two targets with overlapping
    /// descendant sets are then guaranteed to resolve to the same
    /// sequencer).  This is the default.
    #[default]
    Closure,
}

/// The walks of a query, on the slots of `graph`.
impl Scratch {
    /// Starts a query by expanding `target`: `members` is then `{target} ∪
    /// share(target)`.
    fn start(&mut self, graph: &OwnershipGraph, target: u32) {
        self.add_member(target);
        let alone = self.is_maximal(graph, target);
        debug_assert!(alone, "nothing covers the only member");
        self.expand(graph, target);
    }

    fn add_member(&mut self, v: u32) {
        let mark = &mut self.marks[v as usize];
        if mark.member <= self.base {
            mark.member = self.epoch;
            self.members.push(v);
        }
    }

    /// Starts a new epoch and marks the strict ancestors of `m` in it.
    /// Returns `false` as soon as one of them is a member or lies below an
    /// expanded member: `m` is then covered, and the marks are partial.
    fn is_maximal(&mut self, graph: &OwnershipGraph, m: u32) -> bool {
        let epoch = self.next_epoch();
        if self.marks[m as usize].below > self.base {
            return false;
        }
        self.region.clear();
        self.region.push(m);
        let mut next = 0;
        while let Some(&v) = self.region.get(next) {
            next += 1;
            for &p in graph.adjacent(v, Dir::Up) {
                let mark = &mut self.marks[p as usize];
                if mark.member > self.base || mark.below > self.base {
                    return false;
                }
                if mark.above != epoch {
                    mark.above = epoch;
                    self.region.push(p);
                }
            }
        }
        true
    }

    /// Adds `share(m)` to the members.  Classifies against the ancestor
    /// marks of the current epoch, so `is_maximal(m)` must have just
    /// returned `true`.
    fn expand(&mut self, graph: &OwnershipGraph, m: u32) {
        self.expansions += 1;
        let epoch = self.epoch;
        // Down: `region` becomes `desc(m)`.
        self.region.clear();
        self.region.push(m);
        let mut next = 0;
        while let Some(&v) = self.region.get(next) {
            next += 1;
            for &c in graph.adjacent(v, Dir::Down) {
                let mark = &mut self.marks[c as usize];
                if mark.below != epoch {
                    mark.below = epoch;
                    self.region.push(c);
                }
            }
        }
        // Up from the descendants.  An owner of a descendant is a member
        // wherever it sits (first clause); anything further up is one
        // unless it is `m` or above `m` (second clause), and nothing above
        // those can be one either, so the walk does not continue there.
        let mut next = 1;
        while let Some(&v) = self.region.get(next) {
            next += 1;
            let descendant = self.marks[v as usize].below == epoch;
            for &p in graph.adjacent(v, Dir::Up) {
                if p == m {
                    continue;
                }
                let mark = &mut self.marks[p as usize];
                let comparable = mark.below == epoch || mark.above == epoch;
                if !comparable && mark.seen != epoch {
                    mark.seen = epoch;
                    self.region.push(p);
                }
                if descendant || !comparable {
                    self.add_member(p);
                }
            }
        }
    }

    /// The least context that is an ancestor-or-self of every one of
    /// `tops`, by counting: one upward pass per top, and the common upper
    /// bounds are the contexts every pass reached.
    fn least_upper_bound(&mut self, graph: &OwnershipGraph) -> Dominator {
        if let [only] = self.tops[..] {
            return Dominator::Context(graph.id_of(only));
        }
        // A count is kept relative to `zero`, so whatever an earlier query
        // left in `hits` reads as no pass at all.
        let zero = self.epoch;
        for i in 0..self.tops.len() {
            let top = self.tops[i];
            graph.reach(self, top, Dir::Up);
            for v in &self.region {
                let mark = &mut self.marks[*v as usize];
                mark.hits = mark.hits.max(zero) + 1;
            }
        }
        // `region` is what the last pass reached, a superset of the common
        // bounds.  Those are closed upwards, so the least one is the only
        // one that owns no other; several such, or none, mean no least.
        let all = self.epoch;
        let epoch = self.next_epoch();
        for v in &self.region {
            if self.marks[*v as usize].hits == all {
                for p in graph.adjacent(*v, Dir::Up) {
                    self.marks[*p as usize].seen = epoch;
                }
            }
        }
        let mut least = self.region.iter().filter(|v| {
            let mark = &self.marks[**v as usize];
            mark.hits == all && mark.seen != epoch
        });
        match (least.next(), least.next()) {
            (Some(v), None) => Dominator::Context(graph.id_of(*v)),
            _ => Dominator::GlobalRoot,
        }
    }
}

/// Computes the share set of `target` per the §3 formula.
///
/// # Errors
///
/// Returns [`ContextNotFound`](aeon_types::AeonError::ContextNotFound) if
/// `target` is unknown.
pub fn share_set(graph: &OwnershipGraph, target: ContextId) -> Result<BTreeSet<ContextId>> {
    let target = graph.slot_of(target)?;
    if graph.adjacent(target, Dir::Down).is_empty() {
        return Ok(BTreeSet::new());
    }
    Ok(graph.with_scratch(|scratch| {
        scratch.start(graph, target);
        let share = scratch.members[1..].iter();
        share.map(|m| graph.id_of(*m)).collect()
    }))
}

/// Computes the dominator of `target` using the requested [`DominatorMode`].
///
/// # Errors
///
/// Returns [`ContextNotFound`](aeon_types::AeonError::ContextNotFound) if
/// `target` is unknown.
pub fn dominator_of(
    graph: &OwnershipGraph,
    target: ContextId,
    mode: DominatorMode,
) -> Result<Dominator> {
    Ok(resolve(graph, graph.slot_of(target)?, mode).0)
}

/// The dominator of the context in slot `target` and the number of
/// expansions it took.  A leaf shares nothing and so dominates itself.
fn resolve(graph: &OwnershipGraph, target: u32, mode: DominatorMode) -> (Dominator, usize) {
    if graph.adjacent(target, Dir::Down).is_empty() {
        return (Dominator::Context(graph.id_of(target)), 0);
    }
    graph.with_scratch(|scratch| {
        scratch.start(graph, target);
        // The members no other member covered when their turn came: the
        // only ones expanded, and a superset of the maxima of the final set.
        scratch.tops.push(target);
        let mut next = 1;
        while let Some(&m) = scratch.members.get(next) {
            next += 1;
            if scratch.is_maximal(graph, m) {
                scratch.tops.push(m);
                if mode == DominatorMode::Closure {
                    scratch.expand(graph, m);
                }
            }
        }
        (scratch.least_upper_bound(graph), scratch.expansions)
    })
}

/// A caching dominator resolver.
///
/// Dominators are queried on every event dispatch, so the resolver keeps
/// the answers that took a walk, by slot, with the stamp the target's sharing component had
/// when each was computed, and serves one exactly as long as that stamp is
/// still the component's.  A dominator depends only on what its target
/// reaches along ownership edges in either direction; every mutation stamps
/// the component it touched and components only ever merge, so they are
/// supersets of those regions and an unchanged stamp means an unchanged
/// region — while a mutation elsewhere in the network costs this target
/// nothing.  (A long-lived graph whose components have all merged is back
/// to one stamp for everything.)  A resolver follows the history of *one*
/// graph: the stamps of two graphs that were mutated apart, or of a graph
/// and an older checkpoint of it, are not comparable.
#[derive(Debug)]
pub struct DominatorResolver {
    mode: DominatorMode,
    cache: RwLock<Vec<Entry>>,
    /// Queries the cache could not answer.
    #[cfg(test)]
    misses: std::sync::atomic::AtomicUsize,
}

/// The answer for the context `target`, valid while `stamp` is the stamp of
/// its component.  Stamp 0 is no graph's: the entry is empty.
#[derive(Debug, Clone, Copy)]
struct Entry {
    stamp: u64,
    target: ContextId,
    dominator: Dominator,
}

impl Default for DominatorResolver {
    fn default() -> Self {
        Self::new(DominatorMode::default())
    }
}

impl DominatorResolver {
    /// Creates a resolver with the given mode.
    pub fn new(mode: DominatorMode) -> Self {
        Self {
            mode,
            cache: RwLock::default(),
            #[cfg(test)]
            misses: Default::default(),
        }
    }

    /// The mode the resolver was configured with.
    pub fn mode(&self) -> DominatorMode {
        self.mode
    }

    /// Returns the dominator of `target` in `graph`, consulting the cache.
    ///
    /// # Errors
    ///
    /// Returns [`ContextNotFound`](aeon_types::AeonError::ContextNotFound) if
    /// `target` is unknown.
    pub fn dominator(&self, graph: &OwnershipGraph, target: ContextId) -> Result<Dominator> {
        let slot = graph.slot_of(target)?;
        // A leaf — what most events target — shares nothing and dominates
        // itself, which is cheaper to see than to look up.
        if graph.adjacent(slot, Dir::Down).is_empty() {
            return Ok(Dominator::Context(target));
        }
        let stamp = graph.stamp_of(slot);
        if let Some(entry) = self.cache.read().get(slot as usize) {
            if entry.stamp == stamp && entry.target == target {
                return Ok(entry.dominator);
            }
        }
        #[cfg(test)]
        self.misses
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dominator = resolve(graph, slot, self.mode).0;
        let entry = Entry {
            stamp,
            target,
            dominator,
        };
        let mut cache = self.cache.write();
        if cache.len() <= slot as usize {
            let empty = Entry { stamp: 0, ..entry };
            cache.resize(slot as usize + 1, empty);
        }
        cache[slot as usize] = entry;
        Ok(dominator)
    }

    /// Number of cached entries that still answer for `graph` (diagnostics /
    /// tests).
    pub fn cached_entries(&self, graph: &OwnershipGraph) -> usize {
        let cache = self.cache.read();
        (0..graph.slot_count().min(cache.len()))
            .filter(|slot| {
                let entry = &cache[*slot];
                let slot = *slot as u32;
                entry.stamp == graph.stamp_of(slot) && entry.target == graph.id_of(slot)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::game_graph;
    use proptest::prelude::*;

    fn ctx(n: u64) -> ContextId {
        ContextId::new(n)
    }

    impl DominatorResolver {
        fn misses(&self) -> usize {
            self.misses.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn share_set_of_players_matches_paper() {
        let (g, ids) = game_graph();
        let share = share_set(&g, ids.player1).unwrap();
        // Player2 shares the Treasure; the Kings Room directly owns it.
        assert!(share.contains(&ids.player2));
        assert!(share.contains(&ids.kings_room));
        assert!(!share.contains(&ids.armory));
        assert!(!share.contains(&ids.castle));
        // Leaf contexts share nothing.
        assert!(share_set(&g, ids.treasure).unwrap().is_empty());
    }

    #[test]
    fn dominators_of_game_graph() {
        let (g, ids) = game_graph();
        for mode in [DominatorMode::PaperFormula, DominatorMode::Closure] {
            let dom = |c| dominator_of(&g, c, mode).unwrap();
            assert_eq!(dom(ids.player1), Dominator::Context(ids.kings_room));
            assert_eq!(dom(ids.player2), Dominator::Context(ids.kings_room));
            assert_eq!(dom(ids.player3), Dominator::Context(ids.armory));
            assert_eq!(dom(ids.weapons_vault), Dominator::Context(ids.armory));
            assert_eq!(dom(ids.castle), Dominator::Context(ids.castle));
            assert_eq!(dom(ids.armory), Dominator::Context(ids.armory));
            assert_eq!(dom(ids.treasure), Dominator::Context(ids.treasure));
            assert_eq!(dom(ids.sword), Dominator::Context(ids.sword));
        }
    }

    #[test]
    fn kings_room_is_its_own_dominator() {
        // The Kings Room's descendants are only reachable through it or
        // through its own children (players), which it dominates.
        let (g, ids) = game_graph();
        assert_eq!(
            dominator_of(&g, ids.kings_room, DominatorMode::Closure).unwrap(),
            Dominator::Context(ids.kings_room)
        );
    }

    #[test]
    fn sharing_roots_yield_global_root() {
        // Two parentless contexts sharing a child have no common ancestor,
        // so the dominator degenerates to the global root sentinel
        // (footnote 1 of the paper: an unnamed context would be inserted).
        let mut g = OwnershipGraph::new();
        g.add_context(ctx(1), "A").unwrap();
        g.add_context(ctx(2), "B").unwrap();
        g.add_context(ctx(3), "Shared").unwrap();
        g.add_edge(ctx(1), ctx(3)).unwrap();
        g.add_edge(ctx(2), ctx(3)).unwrap();
        assert_eq!(
            dominator_of(&g, ctx(1), DominatorMode::PaperFormula).unwrap(),
            Dominator::GlobalRoot
        );
        assert_eq!(
            dominator_of(&g, ctx(2), DominatorMode::Closure).unwrap(),
            Dominator::GlobalRoot
        );
    }

    #[test]
    fn unknown_context_is_an_error() {
        let g = OwnershipGraph::new();
        assert!(dominator_of(&g, ctx(9), DominatorMode::Closure).is_err());
    }

    #[test]
    fn closure_mode_unifies_asymmetric_sharing_chains() {
        // P owns A, B;  Q owns P and C;  B shares X with A and Y with C.
        //   Q ── P ── A ── X
        //   │     └── B ── X, Y
        //   └── C ── Y
        // The one-step formula gives dom(A) = P but dom(B) = Q; closure mode
        // lifts both to Q so conflicting events always share a sequencer.
        let mut g = OwnershipGraph::new();
        for (i, class) in [
            (1, "Q"),
            (2, "P"),
            (3, "A"),
            (4, "B"),
            (5, "C"),
            (6, "X"),
            (7, "Y"),
        ] {
            g.add_context(ctx(i), class).unwrap();
        }
        g.add_edge(ctx(1), ctx(2)).unwrap(); // Q -> P
        g.add_edge(ctx(1), ctx(5)).unwrap(); // Q -> C
        g.add_edge(ctx(2), ctx(3)).unwrap(); // P -> A
        g.add_edge(ctx(2), ctx(4)).unwrap(); // P -> B
        g.add_edge(ctx(3), ctx(6)).unwrap(); // A -> X
        g.add_edge(ctx(4), ctx(6)).unwrap(); // B -> X
        g.add_edge(ctx(4), ctx(7)).unwrap(); // B -> Y
        g.add_edge(ctx(5), ctx(7)).unwrap(); // C -> Y

        assert_eq!(
            dominator_of(&g, ctx(3), DominatorMode::PaperFormula).unwrap(),
            Dominator::Context(ctx(2))
        );
        assert_eq!(
            dominator_of(&g, ctx(4), DominatorMode::PaperFormula).unwrap(),
            Dominator::Context(ctx(1))
        );
        // Closure mode: both A and B resolve to Q.
        assert_eq!(
            dominator_of(&g, ctx(3), DominatorMode::Closure).unwrap(),
            Dominator::Context(ctx(1))
        );
        assert_eq!(
            dominator_of(&g, ctx(4), DominatorMode::Closure).unwrap(),
            Dominator::Context(ctx(1))
        );
    }

    #[test]
    fn resolver_caches_until_the_component_changes() {
        let (mut g, ids) = game_graph();
        let resolver = DominatorResolver::default();
        assert_eq!(
            resolver.dominator(&g, ids.player1).unwrap(),
            Dominator::Context(ids.kings_room)
        );
        assert_eq!(resolver.cached_entries(&g), 1);
        resolver.dominator(&g, ids.player3).unwrap();
        assert_eq!((resolver.cached_entries(&g), resolver.misses()), (2, 2));
        resolver.dominator(&g, ids.player3).unwrap();
        assert_eq!(resolver.misses(), 2, "a repeated query is a hit");
        // The game is one component: a mutation anywhere in it leaves no
        // entry valid.
        g.remove_edge(ids.player1, ids.treasure).unwrap();
        assert_eq!(resolver.cached_entries(&g), 0);
        resolver.dominator(&g, ids.player3).unwrap();
        assert_eq!((resolver.cached_entries(&g), resolver.misses()), (1, 3));
        // Player1 no longer reaches the Treasure, so it only dominates
        // itself.
        assert_eq!(
            resolver.dominator(&g, ids.player1).unwrap(),
            Dominator::Context(ids.player1)
        );
    }

    /// Two rooms of two players sharing an item each, not connected: ids
    /// `base..base + 4` are room, player, player, item.
    fn add_room(g: &mut OwnershipGraph, base: u64) {
        for (i, class) in ["Room", "Player", "Player", "Item"].iter().enumerate() {
            g.add_context(ctx(base + i as u64), *class).unwrap();
        }
        for (owner, owned) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            g.add_edge(ctx(base + owner), ctx(base + owned)).unwrap();
        }
    }

    #[test]
    fn a_mutation_invalidates_its_own_component_only() {
        let mut g = OwnershipGraph::new();
        add_room(&mut g, 10);
        add_room(&mut g, 20);
        let resolver = DominatorResolver::default();
        let query_all = |g: &OwnershipGraph| {
            let before = resolver.misses();
            for target in g.contexts() {
                let cached = resolver.dominator(g, target).unwrap();
                assert_eq!(cached, dominator_of(g, target, resolver.mode()).unwrap());
            }
            resolver.misses() - before
        };
        // The items are leaves: answered from their empty child sets,
        // neither missed nor kept.
        assert_eq!(query_all(&g), 6);
        assert_eq!((query_all(&g), resolver.cached_entries(&g)), (0, 6));
        // Unsharing room A's item: A's three entries miss (one of its
        // players is a leaf from now on), B's three hit.
        g.remove_edge(ctx(12), ctx(13)).unwrap();
        assert_eq!(resolver.cached_entries(&g), 3);
        assert_eq!(query_all(&g), 2);
        assert_eq!(
            resolver.dominator(&g, ctx(11)).unwrap(),
            Dominator::Context(ctx(11))
        );
        // A room created on its own, with an item, touches neither.
        add_room(&mut g, 30);
        assert_eq!((query_all(&g), resolver.cached_entries(&g)), (3, 8));
        // Removing B's item and creating a context in the freed slot: B
        // misses (stamped at both), A and the new room do not.
        g.remove_context(ctx(23)).unwrap();
        g.add_context(ctx(40), "Item").unwrap();
        assert_eq!(resolver.cached_entries(&g), 5);
        g.add_edge(ctx(21), ctx(40)).unwrap();
        assert_eq!((query_all(&g), resolver.cached_entries(&g)), (2, 7));
        // An edge between rooms A and B merges them: both miss, the third
        // room still hits.
        g.add_edge(ctx(10), ctx(20)).unwrap();
        assert_eq!(resolver.cached_entries(&g), 3);
        assert_eq!(query_all(&g), 4);
        // Components do not split: cutting the edge again restamps both.
        g.remove_edge(ctx(10), ctx(20)).unwrap();
        assert_eq!((query_all(&g), resolver.cached_entries(&g)), (4, 7));
    }

    #[test]
    fn a_restored_graph_never_reuses_a_stamp() {
        // Built out of id order, so the restored copy (rebuilt ascending)
        // lays its slots out differently.
        let mut g = OwnershipGraph::new();
        add_room(&mut g, 20);
        add_room(&mut g, 10);
        g.remove_edge(ctx(21), ctx(23)).unwrap();
        let resolver = DominatorResolver::default();
        for target in g.contexts() {
            resolver.dominator(&g, target).unwrap();
        }
        let mut restored = OwnershipGraph::from_value(&g.to_value()).unwrap();
        assert_eq!(restored, g);
        let check = |restored: &OwnershipGraph| {
            let fresh = DominatorResolver::default();
            for target in restored.contexts() {
                assert_eq!(
                    resolver.dominator(restored, target).unwrap(),
                    fresh.dominator(restored, target).unwrap(),
                    "stale dominator for {target}"
                );
            }
        };
        check(&restored);
        restored.add_edge(ctx(21), ctx(23)).unwrap();
        check(&restored);
        restored.add_edge(ctx(13), ctx(20)).unwrap();
        check(&restored);
        restored.remove_context(ctx(10)).unwrap();
        check(&restored);
        restored.add_context(ctx(40), "Room").unwrap();
        restored.add_edge(ctx(40), ctx(11)).unwrap();
        check(&restored);
    }

    /// Builds a random DAG by only adding edges from lower ids to higher ids
    /// (guaranteeing acyclicity and exercising multi-ownership).
    fn arb_dag() -> impl Strategy<Value = OwnershipGraph> {
        proptest::collection::vec((0u64..12, 0u64..12), 0..40).prop_map(|edges| {
            let mut g = OwnershipGraph::new();
            for i in 0..12 {
                g.add_context(ctx(i), "C").unwrap();
            }
            for (a, b) in edges {
                if a < b {
                    let _ = g.add_edge(ctx(a), ctx(b));
                }
            }
            g
        })
    }

    /// The §3 share-set formula exactly as written: scan every context and
    /// intersect descendant sets.  Kept as the executable specification the
    /// optimised single-walk implementation is checked against.
    fn share_set_reference(graph: &OwnershipGraph, target: ContextId) -> BTreeSet<ContextId> {
        let desc_c = graph.descendants(target).unwrap();
        let mut share = BTreeSet::new();
        if desc_c.is_empty() {
            return share;
        }
        let desc_c_or_self: BTreeSet<ContextId> = desc_c
            .iter()
            .copied()
            .chain(std::iter::once(target))
            .collect();
        for other in graph.contexts() {
            if other == target {
                continue;
            }
            let children = graph.children(other).unwrap();
            if children.iter().any(|c| desc_c.contains(c)) {
                share.insert(other);
                continue;
            }
            if desc_c_or_self.contains(&other) || graph.is_ancestor(other, target) {
                continue;
            }
            let desc_other = graph.descendants(other).unwrap();
            if desc_other.iter().any(|d| desc_c.contains(d)) {
                share.insert(other);
            }
        }
        share
    }

    /// The least upper bound of `set` by definition: intersect the
    /// ancestor-or-self sets, then keep the common bound every other one
    /// owns.  The oracle the counting version is checked against.
    fn least_upper_bound(graph: &OwnershipGraph, set: &BTreeSet<ContextId>) -> Dominator {
        let mut common: Option<BTreeSet<ContextId>> = None;
        for member in set {
            let mut anc = graph.ancestors(*member).unwrap();
            anc.insert(*member);
            common = Some(match common {
                Some(c) => c.intersection(&anc).copied().collect(),
                None => anc,
            });
        }
        let common = common.unwrap_or_default();
        let least: Vec<ContextId> = common
            .iter()
            .copied()
            .filter(|cand| {
                common
                    .iter()
                    .all(|other| other == cand || graph.is_ancestor(*other, *cand))
            })
            .collect();
        match least.as_slice() {
            [unique] => Dominator::Context(*unique),
            _ => Dominator::GlobalRoot,
        }
    }

    /// The dominator by definition: `share ∪ {target}` from the §3
    /// reference, closed by expanding *every* member in closure mode, then
    /// the set-intersection least upper bound.
    fn dominator_oracle(
        graph: &OwnershipGraph,
        target: ContextId,
        mode: DominatorMode,
    ) -> Dominator {
        let mut set = BTreeSet::from([target]);
        set.extend(share_set_reference(graph, target));
        if mode == DominatorMode::Closure {
            let mut pending: Vec<ContextId> = set.iter().copied().collect();
            while let Some(member) = pending.pop() {
                for extra in share_set_reference(graph, member) {
                    if set.insert(extra) {
                        pending.push(extra);
                    }
                }
            }
        }
        least_upper_bound(graph, &set)
    }

    const MODES: [DominatorMode; 2] = [DominatorMode::PaperFormula, DominatorMode::Closure];

    /// `roots` regions, `k` invitation chains of depth `d` dealt round-robin
    /// under them, and one feed every user owns: the celebrity shape, where
    /// every user shares with every other.  Returns the graph, the roots,
    /// the chains (inviter first) and the feed.
    fn celebrity(
        roots: u64,
        k: u64,
        d: u64,
    ) -> (
        OwnershipGraph,
        Vec<ContextId>,
        Vec<Vec<ContextId>>,
        ContextId,
    ) {
        let mut g = OwnershipGraph::new();
        let mut next = 0;
        let mut fresh = |g: &mut OwnershipGraph, class: &str| {
            next += 1;
            g.add_context(ctx(next), class).unwrap();
            ctx(next)
        };
        let feed = fresh(&mut g, "Feed");
        let roots: Vec<ContextId> = (0..roots).map(|_| fresh(&mut g, "Region")).collect();
        let chains = (0..k)
            .map(|chain| {
                let mut owner = roots[chain as usize % roots.len()];
                (0..d)
                    .map(|_| {
                        let user = fresh(&mut g, "User");
                        g.add_edge(owner, user).unwrap();
                        g.add_edge(user, feed).unwrap();
                        owner = user;
                        user
                    })
                    .collect()
            })
            .collect();
        (g, roots, chains, feed)
    }

    #[test]
    fn celebrity_feed_resolves_to_the_region_root() {
        let (g, roots, chains, feed) = celebrity(1, 5, 4);
        for mode in MODES {
            for user in chains.iter().flatten() {
                let dom = dominator_of(&g, *user, mode).unwrap();
                assert_eq!(dom, Dominator::Context(roots[0]));
                assert_eq!(dom, dominator_oracle(&g, *user, mode));
            }
            for own in [feed, roots[0]] {
                assert_eq!(
                    dominator_of(&g, own, mode).unwrap(),
                    Dominator::Context(own)
                );
                assert_eq!(dominator_oracle(&g, own, mode), Dominator::Context(own));
            }
        }
    }

    #[test]
    fn celebrity_feed_across_two_roots_needs_the_global_root() {
        let (g, roots, chains, feed) = celebrity(2, 6, 3);
        for mode in MODES {
            for target in chains.iter().flatten().chain(&roots) {
                let dom = dominator_of(&g, *target, mode).unwrap();
                assert_eq!(dom, Dominator::GlobalRoot);
                assert_eq!(dom, dominator_oracle(&g, *target, mode));
            }
            assert_eq!(
                dominator_of(&g, feed, mode).unwrap(),
                Dominator::Context(feed)
            );
        }
    }

    #[test]
    fn a_chain_that_shares_nothing_resolves_to_itself() {
        let mut g = OwnershipGraph::new();
        for i in 0..6 {
            g.add_context(ctx(i), "User").unwrap();
            if i > 0 {
                g.add_edge(ctx(i - 1), ctx(i)).unwrap();
            }
        }
        for mode in MODES {
            for user in g.contexts() {
                let (dom, expansions) = resolve(&g, g.slot_of(user).unwrap(), mode);
                assert_eq!(dom, Dominator::Context(user));
                assert!(expansions <= 1);
            }
        }
    }

    #[test]
    fn expansions_grow_with_the_chains_not_with_their_depth() {
        // The unpruned closure expands all `k·d` users.
        for k in [3, 9] {
            for d in [2, 5, 20] {
                let (g, roots, chains, _) = celebrity(1, k, d);
                for target in [chains[0][0], *chains[0].last().unwrap()] {
                    let target = g.slot_of(target).unwrap();
                    let (dom, expansions) = resolve(&g, target, DominatorMode::Closure);
                    assert_eq!(dom, Dominator::Context(roots[0]));
                    assert!(
                        expansions as u64 <= k + 1,
                        "{expansions} expansions for {k} chains of depth {d}"
                    );
                }
            }
        }
    }

    proptest! {
        // The vendored proptest runs 32 cases by default, too few to mean
        // much on 12-context DAGs; the release leg of CI runs the long one.
        #![proptest_config(ProptestConfig::with_cases(
            if cfg!(debug_assertions) { 64 } else { 5_000 }
        ))]

        /// The optimised upward-walk share set matches the quadratic §3
        /// formula on every random multi-ownership DAG.
        #[test]
        fn share_set_matches_paper_formula(g in arb_dag()) {
            for target in g.contexts() {
                prop_assert_eq!(
                    share_set(&g, target).unwrap(),
                    share_set_reference(&g, target)
                );
            }
        }

        /// Expanding only the maxima and counting the least upper bound
        /// gives the dominator the definition gives, for every target and
        /// in both modes.
        #[test]
        fn dominator_matches_oracle(g in arb_dag()) {
            for mode in MODES {
                for target in g.contexts() {
                    prop_assert_eq!(
                        dominator_of(&g, target, mode).unwrap(),
                        dominator_oracle(&g, target, mode),
                        "target {} in {:?} mode", target, mode
                    );
                }
            }
        }

        /// Resolvers queried between arbitrary mutations — contexts removed
        /// and re-created in recycled slots, edges joining components, edges
        /// and contexts leaving one — always answer for the graph as it is
        /// now: `eager` for every context after every step (against a fresh
        /// walk, itself pinned to the oracle above), `lazy` only when an op
        /// asks, so its entries are of every age (against the oracle).
        #[test]
        fn resolver_follows_interleaved_mutations(
            closure in any::<bool>(),
            ops in proptest::collection::vec((0u8..8, 0u64..12, 0u64..12), 1..120),
        ) {
            let mode = MODES[closure as usize];
            let (eager, lazy) = (DominatorResolver::new(mode), DominatorResolver::new(mode));
            let mut g = OwnershipGraph::new();
            for (op, a, b) in ops {
                let (a, b) = (ctx(a), ctx(b));
                match op {
                    0 | 1 => { let _ = g.add_context(a, "C"); }
                    2 | 3 => { let _ = g.add_edge(a, b); }
                    4 => { let _ = g.remove_edge(a, b); }
                    5 => { let _ = g.remove_context(a); }
                    _ => match lazy.dominator(&g, a) {
                        Ok(dom) => prop_assert_eq!(dom, dominator_oracle(&g, a, mode)),
                        Err(_) => prop_assert!(!g.contains(a)),
                    },
                }
                for target in g.contexts() {
                    prop_assert_eq!(
                        eager.dominator(&g, target),
                        dominator_of(&g, target, mode),
                        "stale dominator for {} after op {}", target, op
                    );
                }
                let walked = g.contexts().filter(|c| !g.children(*c).unwrap().is_empty());
                prop_assert_eq!(eager.cached_entries(&g), walked.count());
            }
        }
    }

    proptest! {
        /// The dominator (when concrete) is always an ancestor-or-self of
        /// the target and of every context in its share set.
        #[test]
        fn dominator_dominates_share_set(g in arb_dag(), target in 0u64..12) {
            let target = ctx(target);
            for mode in [DominatorMode::PaperFormula, DominatorMode::Closure] {
                let dom = dominator_of(&g, target, mode).unwrap();
                if let Dominator::Context(d) = dom {
                    prop_assert!(d == target || g.is_ancestor(d, target));
                    for s in share_set(&g, target).unwrap() {
                        prop_assert!(d == s || g.is_ancestor(d, s),
                            "dominator {d} must dominate sharing context {s}");
                    }
                }
            }
        }

        /// In closure mode, two targets with overlapping descendant sets
        /// either resolve to the same concrete dominator or at least one of
        /// them resolves to the global root — i.e. conflicting events always
        /// have a common sequencer.
        #[test]
        fn closure_mode_gives_conflicting_targets_a_common_sequencer(
            g in arb_dag(), a in 0u64..12, b in 0u64..12
        ) {
            let (a, b) = (ctx(a), ctx(b));
            prop_assume!(a != b);
            let mut da: std::collections::BTreeSet<_> = g.descendants(a).unwrap();
            da.insert(a);
            let mut db: std::collections::BTreeSet<_> = g.descendants(b).unwrap();
            db.insert(b);
            if da.intersection(&db).next().is_some() {
                let dom_a = dominator_of(&g, a, DominatorMode::Closure).unwrap();
                let dom_b = dominator_of(&g, b, DominatorMode::Closure).unwrap();
                let ok = dom_a == dom_b
                    || dom_a == Dominator::GlobalRoot
                    || dom_b == Dominator::GlobalRoot
                    // One target dominated by the other's dominator: the
                    // lower event's path activation passes through it.
                    || match (dom_a, dom_b) {
                        (Dominator::Context(x), Dominator::Context(y)) => {
                            g.is_ancestor(x, y) || g.is_ancestor(y, x) || x == y
                        }
                        _ => false,
                    };
                prop_assert!(ok, "targets {a} and {b} share state but lack a common sequencer");
            }
        }

        /// The cache never changes answers.
        #[test]
        fn cached_answers_match_uncached(g in arb_dag(), targets in proptest::collection::vec(0u64..12, 1..8)) {
            let resolver = DominatorResolver::default();
            for t in targets {
                let t = ctx(t);
                let cached = resolver.dominator(&g, t).unwrap();
                let fresh = dominator_of(&g, t, DominatorMode::Closure).unwrap();
                prop_assert_eq!(cached, fresh);
            }
        }
    }
}
