//! The runtime ownership DAG.
//!
//! # Layout
//!
//! A context is a *slot*: an index into one `Vec` that holds its id, its
//! interned class and its direct owners and owned contexts as slot numbers.
//! One `ContextId → slot` map sits at the boundary — a public call looks its
//! arguments up once, a traversal never does — and the slot of a removed
//! context goes on a free list for the next creation.  Walks keep their
//! marks in a `Scratch` indexed by slot and pooled in the graph, so
//! `is_ancestor` / `may_call`, the cycle check of `add_edge` and the
//! dominator queries build no set, map or queue of their own.
//!
//! # Orders
//!
//! Slot numbers are never observable.  Everything that returns several
//! contexts returns them **ascending by `ContextId`** whatever the order the
//! graph was built in: [`OwnershipGraph::children`] and
//! [`OwnershipGraph::parents`], [`crate::ControlPlane::children_of`],
//! [`OwnershipGraph::contexts`], [`OwnershipGraph::roots`],
//! [`OwnershipGraph::edges`] (by owner, then by owned) and the nodes and
//! child lists of [`OwnershipGraph::to_value`];
//! [`OwnershipGraph::subtree_topological`] picks the lowest id among the
//! contexts that are ready, and [`OwnershipGraph::topological_order`] is
//! breadth-first from the roots in id order.  Two graphs are equal when they
//! hold the same contexts, classes, edges and version.
//!
//! # Sharing components
//!
//! A dominator depends only on what its target reaches along ownership
//! edges in either direction, so the graph keeps a union-find over the slots
//! and one *stamp* per component, drawn from [`OwnershipGraph::version`]:
//! `add_context` opens a component, `add_edge` merges two, and every
//! mutation stamps the component it touched with the new version.  Removals
//! never split a component — a superset of what a context reaches is still
//! safe to invalidate together — so [`crate::DominatorResolver`] may serve a
//! cached answer exactly as long as the stamp it was computed under is the
//! component's.  There is no path compression (queries run under `&self`);
//! union by size keeps a `find` logarithmic.

use aeon_types::{AeonError, ContextId, Result, Value};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Hasher of the `ContextId → slot` map.  Ids are small integers the
/// deployment hands out itself, and the lookup is on the path of every
/// event, so one multiply — folded, because the table takes its bucket from
/// the low bits and its tag from the high ones — stands in for SipHash.
#[derive(Debug, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.write_u64(self.0 ^ u64::from(*byte));
        }
    }

    fn write_u64(&mut self, id: u64) {
        let mixed = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = mixed ^ (mixed >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Direction of a walk along ownership edges.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Dir {
    /// Towards the owners.
    Up,
    /// Towards the owned.
    Down,
}

/// One context.
#[derive(Debug, Clone)]
struct Slot {
    id: ContextId,
    /// Index into [`OwnershipGraph::classes`], or [`FREE`].
    class: u32,
    /// Slots of the direct owners, ascending by their context ids.
    parents: Vec<u32>,
    /// Slots of the directly owned contexts, ascending by their context ids.
    children: Vec<u32>,
}

/// The class of a slot on the free list.
const FREE: u32 = u32::MAX;

/// A walk numbers itself with a `u32` epoch and a dominator query takes
/// fewer than `2·slots + 3` of them, which must fit between two resets of a
/// [`Scratch`].
const MAX_SLOTS: usize = (u32::MAX / 2 - 2) as usize;

/// Union-find node of one slot; `size` and `stamp` mean something at the
/// root of a component only.
#[derive(Debug, Clone, Copy)]
struct Component {
    parent: u32,
    size: u32,
    stamp: u64,
}

/// What the walks know about one slot.  Every field holds the epoch of the
/// walk that last set it, so a mark is set when it equals the epoch of the
/// walk in progress (or, for the marks a whole query accumulates, lies above
/// the epoch the query started from) and nothing is ever cleared.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Marks {
    /// In `share ∪ {target}` (or its closure) of the query in progress.
    pub(crate) member: u32,
    /// Last expansion that found the slot strictly below the expanded
    /// member.
    pub(crate) below: u32,
    /// Last ancestor walk that reached the slot; in a resolver's fill, the
    /// fill that looked at the slot's owners.
    pub(crate) above: u32,
    /// Last breadth-first walk that reached the slot; in a resolver's fill,
    /// the fill that proved the slot.
    pub(crate) seen: u32,
    /// Least-upper-bound passes that reached the slot, counted from the
    /// epoch before the first pass; inside `subtree_topological`, the owners
    /// not yet emitted — a count that ends at zero, which no epoch is.
    pub(crate) hits: u32,
}

/// The working memory of one walk: marks by slot, grown to the slot count
/// and never cleared, plus the queues the walks fill.  The graph pools them
/// ([`OwnershipGraph::with_scratch`]): there are as many as walks ever ran
/// at once, not one per query and not one per thread.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    pub(crate) marks: Vec<Marks>,
    pub(crate) epoch: u32,
    /// The epoch the query in progress started from: a mark above it was
    /// set by this query.
    pub(crate) base: u32,
    /// Breadth-first queue of the walk in progress, start first.
    pub(crate) region: Vec<u32>,
    /// The target, then the share members in the order found; doubles as
    /// the closure's worklist.
    pub(crate) members: Vec<u32>,
    /// The members no other member covered when their turn came; after a
    /// resolver's fill, every context proven to have the target's closure.
    pub(crate) tops: Vec<u32>,
    /// Expansions of the query in progress, for the tests of the cost model.
    pub(crate) expansions: usize,
}

impl Scratch {
    /// Starts a query on a graph of `slots` slots.
    fn begin(&mut self, slots: usize) {
        if u64::from(self.epoch) + 2 * slots as u64 + 3 > u64::from(u32::MAX) {
            self.marks.clear();
            self.epoch = 0;
        }
        if self.marks.len() < slots {
            self.marks.resize(slots, Marks::default());
        }
        self.base = self.epoch;
        self.epoch += 1;
        self.members.clear();
        self.tops.clear();
        self.expansions = 0;
    }

    /// Starts the next walk of the query and returns its epoch.
    pub(crate) fn next_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }
}

/// The scratches no walk is using.  A copy of a graph starts with none.
#[derive(Debug, Default)]
struct Pool(Mutex<Vec<Scratch>>);

impl Clone for Pool {
    fn clone(&self) -> Self {
        Self::default()
    }
}

/// The ownership network `G`: a directed acyclic graph over contexts where
/// an edge `a -> b` means "`a` directly owns `b`" (a field of `a` references
/// `b`).
///
/// The graph is the ground truth consulted by the execution protocol
/// (dominators, activation paths) and by the elasticity manager (placement,
/// migration of a context together with its subtree).  Every mutation is
/// cycle-checked so the DAG invariant can never be violated at runtime, and
/// bumps a version counter that stamps the sharing component it touched (see
/// the module docs for the layout, the guaranteed orders and the stamps).
#[derive(Debug, Clone, Default)]
pub struct OwnershipGraph {
    slots: Vec<Slot>,
    /// One union-find node per slot.
    components: Vec<Component>,
    index: HashMap<ContextId, u32, BuildHasherDefault<IdHasher>>,
    free: Vec<u32>,
    /// Interned contextclass names.
    classes: Vec<String>,
    version: u64,
    pool: Pool,
}

impl PartialEq for OwnershipGraph {
    fn eq(&self, other: &Self) -> bool {
        self.version == other.version
            && self.len() == other.len()
            && self.index.iter().all(|(id, mine)| {
                other.index.get(id).is_some_and(|theirs| {
                    self.class_name(*mine) == other.class_name(*theirs)
                        && self
                            .ids(self.adjacent(*mine, Dir::Down))
                            .eq(other.ids(other.adjacent(*theirs, Dir::Down)))
                })
            })
    }
}

impl Eq for OwnershipGraph {}

impl OwnershipGraph {
    /// Creates an empty ownership network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of contexts in the network.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` when the network contains no contexts.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Monotonically increasing version, bumped on every mutation.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Returns `true` when `id` is a known context.
    pub fn contains(&self, id: ContextId) -> bool {
        self.index.contains_key(&id)
    }

    /// Name of the contextclass of `id`.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] for unknown contexts.
    pub fn class_of(&self, id: ContextId) -> Result<&str> {
        self.slot_of(id).map(|slot| self.class_name(slot))
    }

    /// Registers a new context with no owners.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::Internal`] if the id is already registered.
    pub fn add_context(&mut self, id: ContextId, class: impl Into<String>) -> Result<()> {
        if self.contains(id) {
            return Err(AeonError::internal(format!(
                "context {id} already registered"
            )));
        }
        let class = class.into();
        let known = self.classes.iter().position(|known| *known == class);
        let class = known.unwrap_or_else(|| {
            self.classes.push(class);
            self.classes.len() - 1
        }) as u32;
        self.version += 1;
        let slot = match self.free.pop() {
            // The slot stays in the component of its previous tenant: its
            // union-find node may be another slot's parent, so it cannot go
            // back to a singleton.  That component was stamped when the
            // tenant left and is stamped again now, like any component a
            // mutation touches, so nothing computed for the old tenant can
            // pass for the new one.
            Some(slot) => {
                self.slots[slot as usize].id = id;
                self.slots[slot as usize].class = class;
                self.restamp(slot);
                slot
            }
            None => {
                assert!(self.slots.len() < MAX_SLOTS, "fewer than 2^31 contexts");
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    id,
                    class,
                    parents: Vec::new(),
                    children: Vec::new(),
                });
                self.components.push(Component {
                    parent: slot,
                    size: 1,
                    stamp: self.version,
                });
                slot
            }
        };
        self.index.insert(id, slot);
        Ok(())
    }

    /// Removes a context and every edge incident to it.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] for unknown contexts.
    pub fn remove_context(&mut self, id: ContextId) -> Result<()> {
        let slot = self.slot_of(id)?;
        for parent in std::mem::take(self.list_mut(slot, Dir::Up)) {
            self.unlink(parent, Dir::Down, slot);
        }
        for child in std::mem::take(self.list_mut(slot, Dir::Down)) {
            self.unlink(child, Dir::Up, slot);
        }
        self.slots[slot as usize].class = FREE;
        self.index.remove(&id);
        self.free.push(slot);
        self.version += 1;
        self.restamp(slot);
        Ok(())
    }

    /// Adds a directly-owned edge `owner -> owned`.
    ///
    /// # Errors
    ///
    /// * [`AeonError::ContextNotFound`] if either endpoint is unknown.
    /// * [`AeonError::CycleDetected`] if the edge would create a cycle
    ///   (including a self-loop).  The graph is left unchanged in that case.
    pub fn add_edge(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        let (from, to) = (self.slot_of(owner)?, self.slot_of(owned)?);
        if from == to || self.owns(to, from) {
            return Err(AeonError::CycleDetected {
                from: owner,
                to: owned,
            });
        }
        if !self.link(from, Dir::Down, to) {
            return Ok(());
        }
        self.link(to, Dir::Up, from);
        self.version += 1;
        // Union by size; the merged component is the one the edge touched.
        let (mut root, mut other) = (self.find(from), self.find(to));
        if root != other {
            if self.components[root as usize].size < self.components[other as usize].size {
                std::mem::swap(&mut root, &mut other);
            }
            self.components[other as usize].parent = root;
            self.components[root as usize].size += self.components[other as usize].size;
        }
        self.components[root as usize].stamp = self.version;
        Ok(())
    }

    /// Removes the edge `owner -> owned` if present.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] if either endpoint is unknown.
    pub fn remove_edge(&mut self, owner: ContextId, owned: ContextId) -> Result<()> {
        let (from, to) = (self.slot_of(owner)?, self.slot_of(owned)?);
        if !self.unlink(from, Dir::Down, to) {
            return Ok(());
        }
        self.unlink(to, Dir::Up, from);
        self.version += 1;
        self.restamp(from);
        Ok(())
    }

    /// Direct children (directly-owned contexts) of `id`, ascending.
    pub fn children(&self, id: ContextId) -> Result<Vec<ContextId>> {
        self.children_of(id, None)
    }

    /// Direct children of `id`, optionally only those of `class`, ascending.
    pub(crate) fn children_of(&self, id: ContextId, class: Option<&str>) -> Result<Vec<ContextId>> {
        let children = self.adjacent(self.slot_of(id)?, Dir::Down);
        let Some(class) = class else {
            return Ok(self.ids(children).collect());
        };
        let class = self.classes.iter().position(|known| known == class);
        Ok(children
            .iter()
            .map(|child| &self.slots[*child as usize])
            .filter(|child| Some(child.class as usize) == class)
            .map(|child| child.id)
            .collect())
    }

    /// Direct parents (direct owners) of `id`, ascending.
    pub fn parents(&self, id: ContextId) -> Result<Vec<ContextId>> {
        Ok(self
            .ids(self.adjacent(self.slot_of(id)?, Dir::Up))
            .collect())
    }

    /// All contexts with no owner (the maxima of the ownership order).
    pub fn roots(&self) -> Vec<ContextId> {
        let roots = self.ordered().into_iter();
        roots
            .filter(|slot| self.adjacent(*slot, Dir::Up).is_empty())
            .map(|slot| self.id_of(slot))
            .collect()
    }

    /// All contexts in the network, in ascending id order.
    pub fn contexts(&self) -> impl Iterator<Item = ContextId> + '_ {
        self.ordered().into_iter().map(move |slot| self.id_of(slot))
    }

    /// Iterates `(owner, owned)` edges, ascending.
    pub fn edges(&self) -> impl Iterator<Item = (ContextId, ContextId)> + '_ {
        self.ordered().into_iter().flat_map(move |slot| {
            self.ids(self.adjacent(slot, Dir::Down))
                .map(move |child| (self.id_of(slot), child))
        })
    }

    /// The set of strict descendants of `id` (everything transitively owned,
    /// excluding `id` itself).
    pub fn descendants(&self, id: ContextId) -> Result<BTreeSet<ContextId>> {
        self.closure(id, Dir::Down)
    }

    /// The subtree rooted at `id` (the root plus all its descendants) in a
    /// topological order: every owner precedes every context it
    /// (transitively) owns, with ties broken by context id so the order is
    /// deterministic.
    ///
    /// This is the order in which a snapshot or restore event enters the
    /// members of its subtree: because method calls only travel *down*
    /// ownership edges, acquiring member locks owner-before-owned can never
    /// deadlock against an in-flight event that already holds a member.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::ContextNotFound`] if `id` is unknown.
    pub fn subtree_topological(&self, id: ContextId) -> Result<Vec<ContextId>> {
        let root = self.slot_of(id)?;
        Ok(self.with_scratch(|scratch| {
            self.reach(scratch, root, Dir::Down);
            // Kahn's algorithm over the member set, which is closed
            // downwards; `hits` counts the owners inside it that are still
            // to come.  Only the root starts with none, and the ready set
            // is a heap so equal-depth members come out in id order.
            for member in &scratch.region {
                scratch.marks[*member as usize].hits = 0;
            }
            for member in &scratch.region {
                for child in self.adjacent(*member, Dir::Down) {
                    scratch.marks[*child as usize].hits += 1;
                }
            }
            let mut ready = BinaryHeap::from([Reverse((id, root))]);
            let mut order = Vec::with_capacity(scratch.region.len());
            while let Some(Reverse((next, slot))) = ready.pop() {
                order.push(next);
                for child in self.adjacent(slot, Dir::Down) {
                    let mark = &mut scratch.marks[*child as usize];
                    mark.hits -= 1;
                    if mark.hits == 0 {
                        ready.push(Reverse((self.id_of(*child), *child)));
                    }
                }
            }
            debug_assert_eq!(
                order.len(),
                scratch.region.len(),
                "ownership DAG is acyclic"
            );
            order
        }))
    }

    /// The set of strict ancestors of `id` (everything that transitively
    /// owns it, excluding `id` itself).
    pub fn ancestors(&self, id: ContextId) -> Result<BTreeSet<ContextId>> {
        self.closure(id, Dir::Up)
    }

    /// Returns `true` if `ancestor` transitively owns `descendant`
    /// (strictly: a context is not its own ancestor).
    pub fn is_ancestor(&self, ancestor: ContextId, descendant: ContextId) -> bool {
        match (self.index.get(&ancestor), self.index.get(&descendant)) {
            (Some(above), Some(below)) => above != below && self.owns(*above, *below),
            _ => false,
        }
    }

    /// Returns `true` if `caller` is allowed to invoke a method on `callee`:
    /// either they are the same context or `caller` transitively owns
    /// `callee` (§3: "an event executing in a certain context C can issue
    /// method calls to any contexts that C owns").
    pub fn may_call(&self, caller: ContextId, callee: ContextId) -> bool {
        caller == callee || self.is_ancestor(caller, callee)
    }

    /// The direct owners of `callee` through which `caller` reaches it,
    /// ascending: empty when `callee` is `caller` or one of its direct
    /// children, else those of its owners that `caller` is or transitively
    /// owns.  A call enters one of them before `callee`, so it takes the
    /// ownership path top-down (Algorithm 2's `activatePath`).
    ///
    /// # Errors
    ///
    /// [`AeonError::OwnershipViolation`] when `caller` may not call
    /// `callee` ([`OwnershipGraph::may_call`]).
    pub fn path_owners(&self, caller: ContextId, callee: ContextId) -> Result<Vec<ContextId>> {
        let denied = || AeonError::ownership(caller, callee);
        let (Some(&above), Some(&below)) = (self.index.get(&caller), self.index.get(&callee))
        else {
            return Err(denied());
        };
        let owners = self.adjacent(below, Dir::Up);
        if above == below || self.position(owners, caller).is_ok() {
            return Ok(Vec::new());
        }
        let on_path: Vec<ContextId> = owners
            .iter()
            .filter(|owner| self.owns(above, **owner))
            .map(|owner| self.id_of(*owner))
            .collect();
        if on_path.is_empty() {
            return Err(denied());
        }
        Ok(on_path)
    }

    /// Whether the graph is acyclic.  Mutations preserve acyclicity, so this
    /// only returns `false` for graphs deserialised from untrusted input.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().len() == self.len()
    }

    /// Contexts in topological order (owners before owned).
    pub fn topological_order(&self) -> Vec<ContextId> {
        // Kahn's algorithm, breadth-first from the roots.
        let mut pending: Vec<usize> = self.slots.iter().map(|s| s.parents.len()).collect();
        let mut queue = self.ordered();
        queue.retain(|slot| pending[*slot as usize] == 0);
        let mut next = 0;
        while let Some(&slot) = queue.get(next) {
            next += 1;
            for child in self.adjacent(slot, Dir::Down) {
                pending[*child as usize] -= 1;
                if pending[*child as usize] == 0 {
                    queue.push(*child);
                }
            }
        }
        self.ids(&queue).collect()
    }

    /// Serialises the graph into a [`Value`] for persistence in the cloud
    /// storage substrate (the eManager stores the ownership network next to
    /// the context mapping, §5.1).
    pub fn to_value(&self) -> Value {
        let nodes = self
            .ordered()
            .into_iter()
            .map(|slot| {
                let children = self.ids(self.adjacent(slot, Dir::Down));
                Value::map([
                    ("id", Value::from(self.id_of(slot))),
                    ("class", Value::from(self.class_name(slot).to_string())),
                    ("children", Value::List(children.map(Value::from).collect())),
                ])
            })
            .collect();
        Value::map([
            ("version", Value::from(self.version as i64)),
            ("nodes", Value::List(nodes)),
        ])
    }

    /// Reconstructs a graph from [`OwnershipGraph::to_value`] output.  Its
    /// version is the stored one, or the number of mutations the rebuild
    /// took if that is higher — never lower, so no stamp is drawn twice —
    /// and every component carries it.
    ///
    /// # Errors
    ///
    /// Returns [`AeonError::Codec`] when the value does not have the
    /// expected shape or stores a negative version, and
    /// [`AeonError::CycleDetected`] when the encoded graph is not acyclic.
    pub fn from_value(value: &Value) -> Result<Self> {
        let nodes = value
            .get("nodes")
            .and_then(Value::as_list)
            .ok_or_else(|| AeonError::Codec("ownership graph: missing nodes".into()))?;
        let stored = value.get("version").and_then(Value::as_i64).unwrap_or(0);
        let stored = u64::try_from(stored)
            .map_err(|_| AeonError::Codec("ownership graph: negative version".into()))?;
        let mut graph = OwnershipGraph::new();
        // First pass: contexts.
        for entry in nodes {
            let id = entry
                .get("id")
                .and_then(Value::as_context)
                .ok_or_else(|| AeonError::Codec("ownership graph: node missing id".into()))?;
            let class = entry
                .get("class")
                .and_then(Value::as_str)
                .ok_or_else(|| AeonError::Codec("ownership graph: node missing class".into()))?;
            graph.add_context(id, class)?;
        }
        // Second pass: edges (cycle-checked by add_edge).
        for entry in nodes {
            let id = entry
                .get("id")
                .and_then(Value::as_context)
                .expect("validated above");
            if let Some(children) = entry.get("children").and_then(Value::as_list) {
                for child in children {
                    let child = child.as_context().ok_or_else(|| {
                        AeonError::Codec("ownership graph: child is not a context ref".into())
                    })?;
                    graph.add_edge(id, child)?;
                }
            }
        }
        graph.version = graph.version.max(stored);
        for component in &mut graph.components {
            component.stamp = graph.version;
        }
        Ok(graph)
    }

    // -- slots: what the walks of this crate run on ---------------------------

    /// The slot of `id`.
    pub(crate) fn slot_of(&self, id: ContextId) -> Result<u32> {
        self.index
            .get(&id)
            .copied()
            .ok_or(AeonError::ContextNotFound(id))
    }

    pub(crate) fn id_of(&self, slot: u32) -> ContextId {
        self.slots[slot as usize].id
    }

    /// Number of slots, free ones included.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The slots next to `slot` in direction `dir`, ascending by context id.
    pub(crate) fn adjacent(&self, slot: u32, dir: Dir) -> &[u32] {
        let node = &self.slots[slot as usize];
        match dir {
            Dir::Up => &node.parents,
            Dir::Down => &node.children,
        }
    }

    /// The stamp of the sharing component of `slot`: the version of the last
    /// mutation that touched anything `slot` is, or ever was, connected to.
    pub(crate) fn stamp_of(&self, slot: u32) -> u64 {
        self.components[self.find(slot) as usize].stamp
    }

    /// Runs `walk` on a pooled scratch, sized for this graph and started on
    /// a new query.
    pub(crate) fn with_scratch<R>(&self, walk: impl FnOnce(&mut Scratch) -> R) -> R {
        let mut scratch = self.pool.0.lock().pop().unwrap_or_default();
        scratch.begin(self.slots.len());
        let out = walk(&mut scratch);
        self.pool.0.lock().push(scratch);
        out
    }

    /// Breadth-first from `start` along `dir`: `scratch.region` becomes
    /// `start` followed by everything it reaches, each `seen` in the new
    /// epoch.
    pub(crate) fn reach(&self, scratch: &mut Scratch, start: u32, dir: Dir) {
        let epoch = scratch.next_epoch();
        scratch.region.clear();
        scratch.region.push(start);
        scratch.marks[start as usize].seen = epoch;
        let mut next = 0;
        while let Some(&slot) = scratch.region.get(next) {
            next += 1;
            for neighbour in self.adjacent(slot, dir) {
                let mark = &mut scratch.marks[*neighbour as usize];
                if mark.seen != epoch {
                    mark.seen = epoch;
                    scratch.region.push(*neighbour);
                }
            }
        }
    }

    fn closure(&self, id: ContextId, dir: Dir) -> Result<BTreeSet<ContextId>> {
        let start = self.slot_of(id)?;
        Ok(self.with_scratch(|scratch| {
            self.reach(scratch, start, dir);
            self.ids(&scratch.region[1..]).collect()
        }))
    }

    /// Whether `above` transitively owns `below`, two distinct slots.
    fn owns(&self, above: u32, below: u32) -> bool {
        // Contextclasses overwhelmingly call their direct children: answer
        // that from the owner list before borrowing a scratch.
        let id = self.id_of(above);
        if self.position(self.adjacent(below, Dir::Up), id).is_ok() {
            return true;
        }
        self.with_scratch(|scratch| {
            self.reach(scratch, below, Dir::Up);
            scratch.marks[above as usize].seen == scratch.epoch
        })
    }

    /// Where `id` is — or would go — in `list`, which ascends by context id.
    fn position(&self, list: &[u32], id: ContextId) -> std::result::Result<usize, usize> {
        list.binary_search_by_key(&id, |slot| self.id_of(*slot))
    }

    fn list_mut(&mut self, slot: u32, dir: Dir) -> &mut Vec<u32> {
        let node = &mut self.slots[slot as usize];
        match dir {
            Dir::Up => &mut node.parents,
            Dir::Down => &mut node.children,
        }
    }

    /// Puts `other` on the `dir` list of `slot`; `false` if it was there.
    /// An edge is recorded at both ends, by two calls.
    fn link(&mut self, slot: u32, dir: Dir, other: u32) -> bool {
        let at = self.position(self.adjacent(slot, dir), self.id_of(other));
        at.is_err_and(|at| {
            self.list_mut(slot, dir).insert(at, other);
            true
        })
    }

    /// Takes `other` off the `dir` list of `slot`; `false` if it was not on
    /// it.
    fn unlink(&mut self, slot: u32, dir: Dir, other: u32) -> bool {
        let at = self.position(self.adjacent(slot, dir), self.id_of(other));
        at.is_ok_and(|at| {
            self.list_mut(slot, dir).remove(at);
            true
        })
    }

    fn ids<'a>(&'a self, slots: &'a [u32]) -> impl Iterator<Item = ContextId> + 'a {
        slots.iter().map(|slot| self.id_of(*slot))
    }

    fn class_name(&self, slot: u32) -> &str {
        &self.classes[self.slots[slot as usize].class as usize]
    }

    /// The live slots, ascending by context id.
    fn ordered(&self) -> Vec<u32> {
        let mut live: Vec<u32> = (0..self.slots.len() as u32)
            .filter(|slot| self.slots[*slot as usize].class != FREE)
            .collect();
        live.sort_unstable_by_key(|slot| self.id_of(*slot));
        live
    }

    /// The root of the component of `slot`.
    fn find(&self, mut slot: u32) -> u32 {
        while self.components[slot as usize].parent != slot {
            slot = self.components[slot as usize].parent;
        }
        slot
    }

    /// Stamps the component of `slot` with the current version.
    fn restamp(&mut self, slot: u32) {
        let root = self.find(slot);
        self.components[root as usize].stamp = self.version;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::game_graph;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn ctx(n: u64) -> ContextId {
        ContextId::new(n)
    }

    /// Slots the last query of `scratch` set a mark on.
    fn visited(scratch: &Scratch) -> usize {
        let touched = |m: &&Marks| {
            [m.member, m.below, m.above, m.seen, m.hits]
                .iter()
                .any(|mark| *mark > scratch.base)
        };
        scratch.marks.iter().filter(touched).count()
    }

    fn chain(n: u64) -> OwnershipGraph {
        let mut g = OwnershipGraph::new();
        for i in 0..n {
            g.add_context(ctx(i), "C").unwrap();
            if i > 0 {
                g.add_edge(ctx(i - 1), ctx(i)).unwrap();
            }
        }
        g
    }

    #[test]
    fn add_and_remove_contexts() {
        let mut g = OwnershipGraph::new();
        assert!(g.is_empty());
        g.add_context(ctx(1), "Room").unwrap();
        assert!(g.contains(ctx(1)));
        assert_eq!(g.class_of(ctx(1)).unwrap(), "Room");
        assert!(
            g.add_context(ctx(1), "Room").is_err(),
            "duplicate registration rejected"
        );
        g.remove_context(ctx(1)).unwrap();
        assert!(!g.contains(ctx(1)));
        assert!(g.remove_context(ctx(1)).is_err());
    }

    #[test]
    fn edges_require_known_endpoints() {
        let mut g = OwnershipGraph::new();
        g.add_context(ctx(1), "A").unwrap();
        assert!(matches!(
            g.add_edge(ctx(1), ctx(2)),
            Err(AeonError::ContextNotFound(_))
        ));
        assert!(matches!(
            g.add_edge(ctx(3), ctx(1)),
            Err(AeonError::ContextNotFound(_))
        ));
    }

    #[test]
    fn self_loops_and_cycles_are_rejected() {
        let mut g = chain(3);
        assert!(matches!(
            g.add_edge(ctx(1), ctx(1)),
            Err(AeonError::CycleDetected { .. })
        ));
        assert!(matches!(
            g.add_edge(ctx(2), ctx(0)),
            Err(AeonError::CycleDetected { .. })
        ));
        // Graph unchanged by the failed mutations.
        assert!(g.is_acyclic());
        assert_eq!(g.descendants(ctx(0)).unwrap().len(), 2);
    }

    #[test]
    fn multi_ownership_is_allowed() {
        let (g, ids) = game_graph();
        let parents = g.parents(ids.treasure).unwrap();
        assert!(parents.contains(&ids.player1));
        assert!(parents.contains(&ids.player2));
        assert!(parents.contains(&ids.kings_room));
    }

    #[test]
    fn descendants_and_ancestors() {
        let (g, ids) = game_graph();
        let desc = g.descendants(ids.kings_room).unwrap();
        assert!(desc.contains(&ids.player1));
        assert!(desc.contains(&ids.treasure));
        assert!(!desc.contains(&ids.armory));
        let anc = g.ancestors(ids.sword).unwrap();
        assert!(anc.contains(&ids.player3));
        assert!(anc.contains(&ids.weapons_vault));
        assert!(anc.contains(&ids.armory));
        assert!(anc.contains(&ids.castle));
        assert!(!anc.contains(&ids.kings_room));
    }

    #[test]
    fn subtree_topological_orders_owners_before_owned() {
        let (g, ids) = game_graph();
        let order = g.subtree_topological(ids.castle).unwrap();
        let mut members = g.descendants(ids.castle).unwrap();
        members.insert(ids.castle);
        assert_eq!(order.len(), members.len());
        let pos: BTreeMap<ContextId, usize> =
            order.iter().enumerate().map(|(i, c)| (*c, i)).collect();
        for (owner, owned) in g.edges() {
            if pos.contains_key(&owner) && pos.contains_key(&owned) {
                assert!(pos[&owner] < pos[&owned], "{owner} before {owned}");
            }
        }
        // Deterministic: a second call yields the same order.
        assert_eq!(order, g.subtree_topological(ids.castle).unwrap());
    }

    #[test]
    fn subtree_topological_handles_id_order_inversions() {
        // An owner created *after* the context it owns: id order would
        // acquire child before parent, the topological order must not.
        let mut g = OwnershipGraph::new();
        g.add_context(ctx(1), "Root").unwrap();
        g.add_context(ctx(2), "Child").unwrap();
        g.add_context(ctx(3), "Middle").unwrap();
        g.add_edge(ctx(1), ctx(3)).unwrap();
        g.add_edge(ctx(3), ctx(2)).unwrap();
        let order = g.subtree_topological(ctx(1)).unwrap();
        assert_eq!(order, vec![ctx(1), ctx(3), ctx(2)]);
        assert!(g.subtree_topological(ctx(99)).is_err());
    }

    #[test]
    fn may_call_follows_ownership() {
        let (g, ids) = game_graph();
        assert!(g.may_call(ids.player1, ids.treasure));
        assert!(g.may_call(ids.kings_room, ids.treasure));
        assert!(g.may_call(ids.castle, ids.sword));
        assert!(g.may_call(ids.player1, ids.player1));
        assert!(!g.may_call(ids.player1, ids.player2));
        assert!(!g.may_call(ids.treasure, ids.player1));
    }

    #[test]
    fn path_owners_are_the_callees_owners_below_the_caller() {
        let (g, ids) = game_graph();
        let owners = |caller, callee| g.path_owners(caller, callee);
        // Direct edges and self-calls open no path.
        assert_eq!(owners(ids.player1, ids.treasure), Ok(vec![]));
        assert_eq!(owners(ids.player1, ids.player1), Ok(vec![]));
        // The castle reaches the treasure through all three of its owners,
        // the sword only through the armory's two children.
        assert_eq!(
            owners(ids.castle, ids.treasure),
            Ok(vec![ids.kings_room, ids.player1, ids.player2])
        );
        assert_eq!(
            owners(ids.castle, ids.sword),
            Ok(vec![ids.player3, ids.weapons_vault])
        );
        assert_eq!(
            owners(ids.armory, ids.sword),
            Ok(vec![ids.player3, ids.weapons_vault])
        );
        for (caller, callee) in [(ids.player1, ids.player2), (ids.treasure, ids.player1)] {
            assert_eq!(
                owners(caller, callee),
                Err(AeonError::ownership(caller, callee))
            );
        }
        assert!(owners(ids.castle, ContextId::new(99)).is_err());
    }

    #[test]
    fn roots_and_topological_order() {
        let (g, ids) = game_graph();
        assert_eq!(g.roots(), vec![ids.castle]);
        let order = g.topological_order();
        assert_eq!(order.len(), g.len());
        let pos = |c: ContextId| order.iter().position(|x| *x == c).unwrap();
        for (owner, owned) in g.edges() {
            assert!(pos(owner) < pos(owned), "{owner} must precede {owned}");
        }
    }

    #[test]
    fn removing_edges_updates_both_sides() {
        let (mut g, ids) = game_graph();
        g.remove_edge(ids.player1, ids.treasure).unwrap();
        assert!(!g.children(ids.player1).unwrap().contains(&ids.treasure));
        assert!(!g.parents(ids.treasure).unwrap().contains(&ids.player1));
        // Removing a non-existent edge is a no-op that does not bump version.
        let v = g.version();
        g.remove_edge(ids.player1, ids.treasure).unwrap();
        assert_eq!(g.version(), v);
    }

    #[test]
    fn removing_context_detaches_neighbours() {
        let (mut g, ids) = game_graph();
        g.remove_context(ids.treasure).unwrap();
        assert!(!g.children(ids.player1).unwrap().contains(&ids.treasure));
        assert!(!g.children(ids.kings_room).unwrap().contains(&ids.treasure));
    }

    #[test]
    fn version_bumps_on_mutation_only() {
        let mut g = OwnershipGraph::new();
        let v0 = g.version();
        g.add_context(ctx(1), "A").unwrap();
        g.add_context(ctx(2), "B").unwrap();
        let v1 = g.version();
        assert!(v1 > v0);
        g.add_edge(ctx(1), ctx(2)).unwrap();
        let v2 = g.version();
        assert!(v2 > v1);
        // Re-adding the same edge is idempotent.
        g.add_edge(ctx(1), ctx(2)).unwrap();
        assert_eq!(g.version(), v2);
    }

    #[test]
    fn value_round_trip_preserves_structure() {
        let (g, _) = game_graph();
        let v = g.to_value();
        let g2 = OwnershipGraph::from_value(&v).unwrap();
        assert_eq!(g2.len(), g.len());
        let e1: Vec<_> = g.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
        for c in g.contexts() {
            assert_eq!(g.class_of(c).unwrap(), g2.class_of(c).unwrap());
        }
    }

    #[test]
    fn from_value_rejects_garbage() {
        assert!(OwnershipGraph::from_value(&Value::Null).is_err());
        assert!(OwnershipGraph::from_value(&Value::map([("nodes", Value::Int(1))])).is_err());
    }

    #[test]
    fn from_value_never_lowers_the_version_and_refuses_a_negative_one() {
        let (g, ids) = game_graph();
        let with_version = |version: i64| {
            let Value::Map(mut fields) = g.to_value() else {
                panic!("a graph serialises as a map");
            };
            fields.insert("version".into(), Value::from(version));
            OwnershipGraph::from_value(&Value::Map(fields))
        };
        assert!(matches!(with_version(-1), Err(AeonError::Codec(_))));
        // The rebuild took more mutations than the checkpoint claims: a
        // stamp drawn from the stored count would be drawn twice.
        let mut low = with_version(3).unwrap();
        assert_eq!(low.version(), g.version());
        let high = with_version(1_000).unwrap();
        assert_eq!(high.version(), 1_000);
        let before = low.stamp_of(low.slot_of(ids.castle).unwrap());
        low.remove_edge(ids.player1, ids.treasure).unwrap();
        assert!(low.stamp_of(low.slot_of(ids.castle).unwrap()) > before);
    }

    #[test]
    fn equality_ignores_the_build_order_and_a_clone_is_its_own_graph() {
        let build = |order: &[u64]| {
            let mut g = OwnershipGraph::new();
            for i in order {
                g.add_context(ctx(*i), if i % 2 == 0 { "Even" } else { "Odd" })
                    .unwrap();
            }
            for i in order {
                if *i > 0 {
                    g.add_edge(ctx(i / 2), ctx(*i)).unwrap();
                }
            }
            g
        };
        let ascending = build(&[0, 1, 2, 3, 4, 5, 6]);
        let shuffled = build(&[4, 0, 6, 2, 5, 1, 3]);
        assert_eq!(ascending, shuffled);
        assert_eq!(ascending.to_value(), shuffled.to_value());
        assert_eq!(
            ascending.subtree_topological(ctx(0)).unwrap(),
            shuffled.subtree_topological(ctx(0)).unwrap()
        );
        let mut copy = shuffled.clone();
        assert_eq!(copy, shuffled);
        copy.remove_context(ctx(5)).unwrap();
        copy.add_context(ctx(9), "Odd").unwrap();
        assert_ne!(copy, shuffled);
        assert!(shuffled.contains(ctx(5)) && !shuffled.contains(ctx(9)));
        assert!(shuffled.is_ancestor(ctx(0), ctx(5)));
        // Same contexts and edges, another class or another version: unequal.
        let mut other = build(&[0, 1, 2, 3, 4, 5, 6]);
        other.remove_edge(ctx(0), ctx(1)).unwrap();
        other.add_edge(ctx(0), ctx(1)).unwrap();
        assert_ne!(other, ascending);
    }

    #[test]
    fn a_walk_touches_its_region_not_the_network() {
        let mut g = OwnershipGraph::new();
        for i in 0..100_000 {
            g.add_context(ctx(i), "C").unwrap();
        }
        let (a, b, c) = (ctx(40_000), ctx(70_001), ctx(12));
        g.add_edge(a, b).unwrap();
        g.add_edge(a, c).unwrap();
        let dominator = |target| crate::dominator_of(&g, target).unwrap();
        assert_eq!(dominator(a), crate::Dominator::Context(a));
        {
            let pool = g.pool.0.lock();
            assert_eq!((pool.len(), pool[0].marks.len()), (1, 100_000));
            assert_eq!(visited(&pool[0]), 3, "a, b and c");
        }
        // The same scratch serves the walks that follow, of any kind.
        assert_eq!(dominator(b), crate::Dominator::Context(b));
        assert_eq!(g.descendants(a).unwrap(), BTreeSet::from([b, c]));
        assert!(g.may_call(a, c) && !g.may_call(b, c));
        let pool = g.pool.0.lock();
        assert_eq!((pool.len(), visited(&pool[0])), (1, 2), "c and a");
    }

    #[test]
    fn concurrent_walks_get_a_scratch_each_and_the_pool_keeps_them() {
        let (g, ids) = game_graph();
        let both_inside = std::sync::Barrier::new(2);
        std::thread::scope(|threads| {
            for _ in 0..2 {
                threads.spawn(|| {
                    g.with_scratch(|_| {
                        both_inside.wait();
                    })
                });
            }
        });
        assert_eq!(g.pool.0.lock().len(), 2);
        // Later walks, one at a time, reuse what is there.
        for _ in 0..10 {
            crate::dominator_of(&g, ids.player1).unwrap();
            assert!(g.may_call(ids.castle, ids.sword));
        }
        assert_eq!(g.pool.0.lock().len(), 2);
    }

    #[test]
    fn a_scratch_starts_over_before_its_epochs_run_out() {
        let (g, ids) = game_graph();
        g.pool.0.lock().push(Scratch {
            epoch: u32::MAX - 5,
            marks: vec![
                Marks {
                    seen: u32::MAX - 5,
                    hits: u32::MAX - 5,
                    ..Marks::default()
                };
                g.slot_count()
            ],
            ..Scratch::default()
        });
        assert!(g.is_ancestor(ids.castle, ids.sword));
        assert_eq!(
            crate::dominator_of(&g, ids.player1).unwrap(),
            crate::Dominator::Context(ids.kings_room)
        );
        assert!(g.pool.0.lock()[0].epoch < 100);
    }

    /// The layout the graph had before it moved to slots — ordered maps and
    /// sets keyed by id — with every observable order derived from it the
    /// way that code derived it.
    #[derive(Default)]
    struct Model {
        nodes: BTreeMap<ContextId, (&'static str, BTreeSet<ContextId>)>,
    }

    impl Model {
        fn parents(&self, id: ContextId) -> impl Iterator<Item = ContextId> + '_ {
            let owners = self.nodes.iter().filter(move |(_, n)| n.1.contains(&id));
            owners.map(|(owner, _)| *owner)
        }

        fn edges(&self) -> Vec<(ContextId, ContextId)> {
            let edges = self.nodes.iter();
            edges
                .flat_map(|(id, n)| n.1.iter().map(move |c| (*id, *c)))
                .collect()
        }

        fn to_value(&self, version: u64) -> Value {
            let nodes = self.nodes.iter().map(|(id, (class, children))| {
                Value::map([
                    ("id", Value::from(*id)),
                    ("class", Value::from(class.to_string())),
                    (
                        "children",
                        Value::List(children.iter().map(|c| Value::from(*c)).collect()),
                    ),
                ])
            });
            Value::map([
                ("version", Value::from(version as i64)),
                ("nodes", Value::List(nodes.collect())),
            ])
        }

        /// Kahn's algorithm over `members`: `lowest_first` picks the lowest
        /// ready id (the subtree order), otherwise first ready, first out.
        fn kahn(&self, members: &BTreeSet<ContextId>, lowest_first: bool) -> Vec<ContextId> {
            let mut indegree: BTreeMap<ContextId, usize> = members
                .iter()
                .map(|m| (*m, self.parents(*m).filter(|p| members.contains(p)).count()))
                .collect();
            let mut ready: Vec<ContextId> = members
                .iter()
                .copied()
                .filter(|m| indegree[m] == 0)
                .collect();
            let mut order = Vec::new();
            while !ready.is_empty() {
                if lowest_first {
                    ready.sort();
                }
                let next = ready.remove(0);
                order.push(next);
                for child in &self.nodes[&next].1 {
                    let left = indegree.get_mut(child).unwrap();
                    *left -= 1;
                    if *left == 0 {
                        ready.push(*child);
                    }
                }
            }
            order
        }

        fn subtree(&self, root: ContextId) -> BTreeSet<ContextId> {
            let mut members = BTreeSet::from([root]);
            let mut pending = vec![root];
            while let Some(next) = pending.pop() {
                for child in &self.nodes[&next].1 {
                    if members.insert(*child) {
                        pending.push(*child);
                    }
                }
            }
            members
        }
    }

    const CLASSES: [&str; 3] = ["Room", "Player", "Item"];

    /// Strategy producing an arbitrary sequence of graph mutations.
    fn arb_ops() -> impl Strategy<Value = Vec<(u8, u64, u64)>> {
        proptest::collection::vec((0u8..4, 0u64..12, 0u64..12), 1..120)
    }

    proptest! {
        /// No sequence of mutations can ever produce a cyclic graph, and
        /// parent/child links always stay symmetric.
        #[test]
        fn dag_invariant_under_random_mutation(ops in arb_ops()) {
            let mut g = OwnershipGraph::new();
            for (op, a, b) in ops {
                let (a, b) = (ctx(a), ctx(b));
                match op {
                    0 => { let _ = g.add_context(a, "X"); }
                    1 => { let _ = g.add_edge(a, b); }
                    2 => { let _ = g.remove_edge(a, b); }
                    _ => { let _ = g.remove_context(a); }
                }
            }
            prop_assert!(g.is_acyclic());
            for c in g.contexts().collect::<Vec<_>>() {
                for child in g.children(c).unwrap().clone() {
                    prop_assert!(g.parents(child).unwrap().contains(&c));
                }
                for parent in g.parents(c).unwrap().clone() {
                    prop_assert!(g.children(parent).unwrap().contains(&c));
                }
            }
        }

        /// Whatever order contexts and edges come and go in — removed
        /// contexts re-created in recycled slots included — everything the
        /// graph lists comes out as the ordered layout listed it, down to
        /// the bytes of the checkpoint.
        #[test]
        fn observable_orders_match_the_ordered_layout(
            ops in proptest::collection::vec((0u8..6, 0u64..12, 0u64..12), 1..160),
        ) {
            let mut g = OwnershipGraph::new();
            let mut model = Model::default();
            for (op, a, b) in ops {
                let class = CLASSES[(a % 3) as usize];
                let (a, b) = (ctx(a), ctx(b));
                match op {
                    0 | 1 => if g.add_context(a, class).is_ok() {
                        model.nodes.insert(a, (class, BTreeSet::new()));
                    },
                    2 | 3 => if g.add_edge(a, b).is_ok() {
                        model.nodes.get_mut(&a).unwrap().1.insert(b);
                    },
                    4 => if g.remove_edge(a, b).is_ok() {
                        model.nodes.get_mut(&a).unwrap().1.remove(&b);
                    },
                    _ => if g.remove_context(a).is_ok() {
                        model.nodes.remove(&a);
                        for node in model.nodes.values_mut() {
                            node.1.remove(&a);
                        }
                    },
                }
            }
            let all: BTreeSet<ContextId> = model.nodes.keys().copied().collect();
            prop_assert_eq!(g.len(), all.len());
            prop_assert_eq!(g.contexts().collect::<BTreeSet<_>>(), all.clone());
            prop_assert!(g.contexts().collect::<Vec<_>>().windows(2).all(|w| w[0] < w[1]));
            prop_assert_eq!(g.edges().collect::<Vec<_>>(), model.edges());
            prop_assert_eq!(
                aeon_types::codec::encode(&g.to_value()),
                aeon_types::codec::encode(&model.to_value(g.version()))
            );
            prop_assert_eq!(&OwnershipGraph::from_value(&g.to_value()).unwrap(), &g);
            let roots: Vec<ContextId> =
                all.iter().copied().filter(|c| model.parents(*c).next().is_none()).collect();
            prop_assert_eq!(g.roots(), roots);
            prop_assert_eq!(g.topological_order(), model.kahn(&all, false));
            for (id, (class, children)) in &model.nodes {
                prop_assert_eq!(g.class_of(*id), Ok(*class));
                prop_assert_eq!(g.children(*id).unwrap(), children.iter().copied().collect::<Vec<_>>());
                prop_assert_eq!(g.parents(*id).unwrap(), model.parents(*id).collect::<Vec<_>>());
                for wanted in CLASSES {
                    let of_class: Vec<ContextId> = children
                        .iter()
                        .copied()
                        .filter(|c| model.nodes[c].0 == wanted)
                        .collect();
                    prop_assert_eq!(g.children_of(*id, Some(wanted)).unwrap(), of_class);
                }
                prop_assert_eq!(g.children_of(*id, Some("Dragon")).unwrap(), vec![]);
                let subtree = model.subtree(*id);
                prop_assert_eq!(g.subtree_topological(*id).unwrap(), model.kahn(&subtree, true));
                let mut below = g.descendants(*id).unwrap();
                below.insert(*id);
                prop_assert_eq!(below, subtree);
            }
        }

        /// `is_ancestor` agrees with membership in `descendants`.
        #[test]
        fn ancestor_agrees_with_descendants(ops in arb_ops()) {
            let mut g = OwnershipGraph::new();
            for (op, a, b) in ops {
                let (a, b) = (ctx(a), ctx(b));
                match op {
                    0 => { let _ = g.add_context(a, "X"); }
                    1 => { let _ = g.add_edge(a, b); }
                    2 => { let _ = g.remove_edge(a, b); }
                    _ => { let _ = g.remove_context(a); }
                }
            }
            let all: Vec<_> = g.contexts().collect();
            for &a in &all {
                let desc = g.descendants(a).unwrap();
                for &b in &all {
                    prop_assert_eq!(g.is_ancestor(a, b), desc.contains(&b));
                }
            }
        }
    }
}
