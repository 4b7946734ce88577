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
//! answered from its empty child set.  Any other query owns one arena
//! (`Walk`): each context it touches is interned once to a dense local id
//! (one hash lookup per incident edge and direction), after which every
//! walk is index arithmetic over epoch-stamped marks — no per-walk set or
//! queue is allocated.  Expanding `m` visits `desc(m)`, `anc(m)` and the
//! contexts above `desc(m)` once each; a deferred member costs the ancestor
//! steps up to the first member, usually one.  The least upper bound is one
//! upward pass per member that was not deferred, counting how many passes
//! reach each context.  For `k` owner chains of depth `d` over one shared
//! context that is `k + 1` expansions where the unpruned closure makes
//! `k·d`.  Nothing is indexed beyond what the walks reach, so a query on a
//! chain inside a large network stays proportional to the chain.

use crate::graph::OwnershipGraph;
use aeon_types::{ContextId, Result};
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;

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

/// Direction of a walk along ownership edges.
#[derive(Debug, Clone, Copy)]
enum Dir {
    /// Towards the owners.
    Up = 0,
    /// Towards the owned.
    Down = 1,
}

/// What a query knows about one context it touched.
#[derive(Debug, Default)]
struct Slot {
    id: ContextId,
    /// Where [`Walk::links`] holds the local ids of the context's direct
    /// owners (`Dir::Up`) and directly owned contexts (`Dir::Down`), once a
    /// walk has needed them.
    links: [Option<Range<u32>>; 2],
    /// In `share ∪ {target}` (or its closure) so far.
    member: bool,
    /// Epoch of the last expansion that found the context strictly below
    /// the expanded member.  Non-zero for good afterwards, which is all a
    /// later coverage check needs.
    below: u32,
    /// Epoch of the last ancestor walk that reached the context.
    above: u32,
    /// Epoch of the last upward walk that reached the context.
    seen: u32,
    /// Least-upper-bound passes that reached the context.
    hits: u32,
}

/// The arena of one query: dense local ids for the contexts it touches,
/// their adjacency in local ids, and the marks of every walk.  A mark is
/// set when it equals [`Walk::epoch`], so starting the next walk is one
/// increment.
#[derive(Debug)]
struct Walk<'g> {
    graph: &'g OwnershipGraph,
    local: HashMap<ContextId, u32>,
    slots: Vec<Slot>,
    links: Vec<u32>,
    epoch: u32,
    /// The target (local id 0), then the share members in the order found;
    /// doubles as the closure's worklist.
    members: Vec<u32>,
    /// Breadth-first queue of the walk in progress.
    region: Vec<u32>,
    /// Calls of [`Walk::expand`], for the tests of the cost model.
    expansions: usize,
}

/// Initial capacity of a [`Walk`]: the sharing regions of the paper's
/// applications are tens of contexts, and growing the arena step by step
/// from nothing doubles the cost of a query that small.
const REGION_HINT: usize = 64;

impl<'g> Walk<'g> {
    /// Starts a query by expanding `target`: `members` is then `{target} ∪
    /// share(target)`.  `None` for a leaf — what most events target — which
    /// shares nothing and so dominates itself.
    fn new(graph: &'g OwnershipGraph, target: ContextId) -> Result<Option<Self>> {
        if graph.children(target)?.is_empty() {
            return Ok(None);
        }
        let mut walk = Walk {
            graph,
            local: HashMap::with_capacity(REGION_HINT),
            slots: Vec::with_capacity(REGION_HINT),
            links: Vec::with_capacity(2 * REGION_HINT),
            epoch: 0,
            members: Vec::new(),
            region: Vec::with_capacity(REGION_HINT),
            expansions: 0,
        };
        let target = walk.intern(target);
        walk.add_member(target);
        let alone = walk.is_maximal(target);
        debug_assert!(alone, "nothing covers the only member");
        walk.expand(target);
        Ok(Some(walk))
    }

    fn intern(&mut self, id: ContextId) -> u32 {
        let next = u32::try_from(self.slots.len()).expect("fewer than 2^32 contexts");
        *self.local.entry(id).or_insert_with(|| {
            self.slots.push(Slot {
                id,
                ..Slot::default()
            });
            next
        })
    }

    fn id(&self, v: u32) -> ContextId {
        self.slots[v as usize].id
    }

    /// The range of `links` holding `v`'s neighbours in direction `dir`.
    fn neighbours(&mut self, v: u32, dir: Dir) -> Range<usize> {
        let range = match &self.slots[v as usize].links[dir as usize] {
            Some(range) => range.clone(),
            None => {
                let graph = self.graph;
                let id = self.id(v);
                let adjacent = match dir {
                    Dir::Up => graph.parents(id),
                    Dir::Down => graph.children(id),
                }
                .expect("interned contexts are in the graph");
                let start = self.links.len() as u32;
                for n in adjacent {
                    let n = self.intern(*n);
                    self.links.push(n);
                }
                let range = start..self.links.len() as u32;
                self.slots[v as usize].links[dir as usize] = Some(range.clone());
                range
            }
        };
        range.start as usize..range.end as usize
    }

    fn add_member(&mut self, v: u32) {
        let slot = &mut self.slots[v as usize];
        if !slot.member {
            slot.member = true;
            self.members.push(v);
        }
    }

    /// Starts a new epoch and marks the strict ancestors of `m` in it.
    /// Returns `false` as soon as one of them is a member or lies below an
    /// expanded member: `m` is then covered, and the marks are partial.
    fn is_maximal(&mut self, m: u32) -> bool {
        self.epoch += 1;
        if self.slots[m as usize].below != 0 {
            return false;
        }
        self.region.clear();
        self.region.push(m);
        let mut next = 0;
        while let Some(&v) = self.region.get(next) {
            next += 1;
            for i in self.neighbours(v, Dir::Up) {
                let p = self.links[i];
                let slot = &mut self.slots[p as usize];
                if slot.member || slot.below != 0 {
                    return false;
                }
                if slot.above != self.epoch {
                    slot.above = self.epoch;
                    self.region.push(p);
                }
            }
        }
        true
    }

    /// Adds `share(m)` to the members.  Classifies against the ancestor
    /// marks of the current epoch, so `is_maximal(m)` must have just
    /// returned `true`.
    fn expand(&mut self, m: u32) {
        self.expansions += 1;
        let epoch = self.epoch;
        // Down: `region` becomes `desc(m)`.
        self.region.clear();
        self.region.push(m);
        let mut next = 0;
        while let Some(&v) = self.region.get(next) {
            next += 1;
            for i in self.neighbours(v, Dir::Down) {
                let c = self.links[i];
                let slot = &mut self.slots[c as usize];
                if slot.below != epoch {
                    slot.below = epoch;
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
            let descendant = self.slots[v as usize].below == epoch;
            for i in self.neighbours(v, Dir::Up) {
                let p = self.links[i];
                if p == m {
                    continue;
                }
                let slot = &mut self.slots[p as usize];
                let comparable = slot.below == epoch || slot.above == epoch;
                if !comparable && slot.seen != epoch {
                    slot.seen = epoch;
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
    fn least_upper_bound(&mut self, tops: &[u32]) -> Dominator {
        if let [only] = tops {
            return Dominator::Context(self.id(*only));
        }
        for &top in tops {
            self.epoch += 1;
            let epoch = self.epoch;
            self.region.clear();
            self.region.push(top);
            self.slots[top as usize].seen = epoch;
            let mut next = 0;
            while let Some(&v) = self.region.get(next) {
                next += 1;
                self.slots[v as usize].hits += 1;
                for i in self.neighbours(v, Dir::Up) {
                    let p = self.links[i];
                    let slot = &mut self.slots[p as usize];
                    if slot.seen != epoch {
                        slot.seen = epoch;
                        self.region.push(p);
                    }
                }
            }
        }
        // `region` is what the last pass reached, a superset of the common
        // bounds.  Those are closed upwards, so the least one is the only
        // one that owns no other; several such, or none, mean no least.
        self.epoch += 1;
        let epoch = self.epoch;
        let all = tops.len() as u32;
        for j in 0..self.region.len() {
            let v = self.region[j];
            if self.slots[v as usize].hits == all {
                for i in self.neighbours(v, Dir::Up) {
                    let p = self.links[i];
                    self.slots[p as usize].seen = epoch;
                }
            }
        }
        let mut least = self.region.iter().filter(|v| {
            let slot = &self.slots[**v as usize];
            slot.hits == all && slot.seen != epoch
        });
        match (least.next(), least.next()) {
            (Some(v), None) => Dominator::Context(self.id(*v)),
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
    Ok(Walk::new(graph, target)?
        .map(|walk| walk.members[1..].iter().map(|m| walk.id(*m)).collect())
        .unwrap_or_default())
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
    resolve(graph, target, mode).map(|(dominator, _)| dominator)
}

/// The dominator of `target` and the number of expansions it took.
fn resolve(
    graph: &OwnershipGraph,
    target: ContextId,
    mode: DominatorMode,
) -> Result<(Dominator, usize)> {
    let Some(mut walk) = Walk::new(graph, target)? else {
        return Ok((Dominator::Context(target), 0));
    };
    // The members no other member covered when their turn came: the only
    // ones expanded, and a superset of the maxima of the final set.
    let mut tops = vec![walk.members[0]];
    let mut next = 1;
    while let Some(&m) = walk.members.get(next) {
        next += 1;
        if walk.is_maximal(m) {
            tops.push(m);
            if mode == DominatorMode::Closure {
                walk.expand(m);
            }
        }
    }
    Ok((walk.least_upper_bound(&tops), walk.expansions))
}

/// A caching dominator resolver.
///
/// Dominators are queried on every event dispatch, so the resolver caches
/// results and invalidates the cache whenever the ownership graph version
/// changes (i.e. after any mutation such as a context creation or an
/// ownership change).
#[derive(Debug)]
pub struct DominatorResolver {
    mode: DominatorMode,
    cache: RwLock<Cache>,
}

#[derive(Debug, Default)]
struct Cache {
    version: u64,
    map: BTreeMap<ContextId, Dominator>,
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
            cache: RwLock::new(Cache::default()),
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
        {
            let cache = self.cache.read();
            if cache.version == graph.version() {
                if let Some(dom) = cache.map.get(&target) {
                    return Ok(*dom);
                }
            }
        }
        let dom = dominator_of(graph, target, self.mode)?;
        let mut cache = self.cache.write();
        if cache.version != graph.version() {
            cache.map.clear();
            cache.version = graph.version();
        }
        cache.map.insert(target, dom);
        Ok(dom)
    }

    /// Number of cached entries (diagnostics / tests).
    pub fn cached_entries(&self) -> usize {
        self.cache.read().map.len()
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
    fn resolver_caches_until_graph_changes() {
        let (mut g, ids) = game_graph();
        let resolver = DominatorResolver::default();
        assert_eq!(
            resolver.dominator(&g, ids.player1).unwrap(),
            Dominator::Context(ids.kings_room)
        );
        assert_eq!(resolver.cached_entries(), 1);
        resolver.dominator(&g, ids.player3).unwrap();
        assert_eq!(resolver.cached_entries(), 2);
        // Mutating the graph invalidates the cache on next query.
        g.remove_edge(ids.player1, ids.treasure).unwrap();
        resolver.dominator(&g, ids.player3).unwrap();
        assert_eq!(resolver.cached_entries(), 1);
        // With the Player1 -> Treasure edge gone, Player1 still shares the
        // Treasure's owner set?  No: Player1 no longer reaches Treasure, so
        // it only dominates itself.
        assert_eq!(
            resolver.dominator(&g, ids.player1).unwrap(),
            Dominator::Context(ids.player1)
        );
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
                let (dom, expansions) = resolve(&g, user, mode).unwrap();
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
                    let (dom, expansions) = resolve(&g, target, DominatorMode::Closure).unwrap();
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

        /// One resolver, queried between arbitrary mutations, always
        /// answers for the graph as it is now.
        #[test]
        fn resolver_follows_interleaved_mutations(
            closure in any::<bool>(),
            ops in proptest::collection::vec((0u8..6, 0u64..12, 0u64..12), 1..120),
        ) {
            let mode = MODES[closure as usize];
            let resolver = DominatorResolver::new(mode);
            let mut g = OwnershipGraph::new();
            for (op, a, b) in ops {
                let (a, b) = (ctx(a), ctx(b));
                match op {
                    0 => { let _ = g.add_context(a, "C"); }
                    1 | 2 => { let _ = g.add_edge(a, b); }
                    3 => { let _ = g.remove_edge(a, b); }
                    _ => match resolver.dominator(&g, a) {
                        Ok(dom) => prop_assert_eq!(dom, dominator_oracle(&g, a, mode)),
                        Err(_) => prop_assert!(!g.contains(a)),
                    },
                }
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
