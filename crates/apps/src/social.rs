//! A social/session-graph workload that manufactures hot spots on purpose.
//!
//! Structure: [`Region`] roots own invitation chains of [`User`]s (each
//! user owns the user it invited, so ownership chains run `chain_depth`
//! deep); every user owns its own [`Feed`], and *following* another user
//! co-owns that user's feed (multi-ownership, §3 of the paper).  Follow
//! targets are sampled from a Zipf distribution over the region's users, so
//! a handful of celebrity feeds accumulate many owners — their dominators
//! climb toward the region root, and the Zipf-skewed request stream then
//! concentrates sequencing traffic on exactly those hot dominators.  That
//! is the access pattern where parallel-execution middleware breaks first,
//! and the one the chaos checker migrates out from under live load.
//!
//! Everything is generated deterministically from a seed: the graph shape
//! ([`generate_plan`]) and the request stream
//! ([`SocialPlan::request_stream`]) are pure functions of the
//! [`SocialConfig`], so the same workload replays bit-for-bit on the
//! runtime, the cluster, and the deterministic simulator.  Feeds are ring
//! buffers capped at `feed_capacity` posts, which keeps memory bounded even
//! at the 10⁶-context scale the `tests/social_scale.rs` suite deploys.

use aeon_api::{Deployment, Session};
use aeon_ownership::ClassGraph;
use aeon_runtime::{context_class, ContextClass, ContextObject, Invocation, Placement};
use aeon_types::{args, AeonError, Args, ContextId, Result, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Class constraints of the social graph, with method metadata declared
/// from the tables.  `User` owns `User` (invitation chains) and `Feed`
/// (its own feed plus every feed it follows); the reflexive `User` → `User`
/// constraint is the same inductive pattern the §3 collections use.
pub fn social_class_graph() -> ClassGraph {
    let mut classes = ClassGraph::new();
    classes.add_constraint("Region", "User");
    classes.add_constraint("User", "User");
    classes.add_constraint("User", "Feed");
    Region::table().declare_in(&mut classes);
    User::table().declare_in(&mut classes);
    Feed::table().declare_in(&mut classes);
    classes
}

// ---------------------------------------------------------------------------
// Contextclasses
// ---------------------------------------------------------------------------

/// A feed: a bounded ring buffer of post payloads.
#[derive(Debug, Default)]
pub struct Feed {
    capacity: usize,
    posts: VecDeque<i64>,
}

impl Feed {
    /// Creates an empty feed that retains at most `capacity` posts
    /// (`0` means unbounded).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            posts: VecDeque::new(),
        }
    }

    fn append(&mut self, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        self.posts.push_back(args.get_i64(0)?);
        if self.capacity > 0 {
            while self.posts.len() > self.capacity {
                self.posts.pop_front();
            }
        }
        Ok(Value::from(self.posts.len() as i64))
    }

    fn latest(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(self.posts.back().copied().unwrap_or(0)))
    }

    fn len(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(self.posts.len() as i64))
    }

    fn sum(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(self.posts.iter().sum::<i64>()))
    }

    fn snapshot_state(&self) -> Value {
        Value::map([
            ("capacity", Value::from(self.capacity as i64)),
            (
                "posts",
                Value::List(self.posts.iter().map(|p| Value::from(*p)).collect()),
            ),
        ])
    }

    fn restore_state(&mut self, state: &Value) {
        self.capacity = state
            .get("capacity")
            .and_then(Value::as_i64)
            .unwrap_or(0)
            .max(0) as usize;
        self.posts = state
            .get("posts")
            .and_then(Value::as_list)
            .map(|items| items.iter().filter_map(Value::as_i64).collect())
            .unwrap_or_default();
    }
}

context_class! {
    Feed: "Feed" {
        method "append" calls [] => Feed::append,
        ro method "latest" calls [] => Feed::latest,
        ro method "len" calls [] => Feed::len,
        ro method "sum" calls [] => Feed::sum,
    }
    snapshot = Feed::snapshot_state;
    restore = Feed::restore_state;
}

/// A user: posts into its own feed and reads a timeline over the feeds it
/// follows.
#[derive(Debug, Default)]
pub struct User {
    posts: u64,
    feed: Option<ContextId>,
    follows: Vec<ContextId>,
}

impl User {
    // setup(own_feed, [followed_feed, ...]): wires the references in one
    // event so deployment needs a single call per user.
    fn setup(&mut self, args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        self.feed = Some(args.get_context(0)?);
        self.follows = args
            .get(1)
            .and_then(Value::as_list)
            .map(|items| items.iter().filter_map(Value::as_context).collect())
            .unwrap_or_default();
        Ok(Value::Null)
    }

    fn post(&mut self, args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let feed = self
            .feed
            .ok_or_else(|| AeonError::app("user has no feed (setup not called)"))?;
        let payload = args.get_i64(0)?;
        self.posts += 1;
        inv.call(feed, "append", args![payload])
    }

    // readonly: the latest post of every followed feed plus our own,
    // folded into one sum so the result is digestable across backends.
    fn timeline(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let mut feeds: Vec<ContextId> = self.feed.into_iter().collect();
        feeds.extend(self.follows.iter().copied());
        let mut total = 0i64;
        for feed in feeds {
            total += inv
                .call(feed, "latest", args![])?
                .as_i64()
                .ok_or_else(|| AeonError::app("feed returned a non-integer"))?;
        }
        Ok(Value::from(total))
    }

    fn post_count(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(self.posts as i64))
    }

    fn follow_count(&mut self, _args: &Args, _inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(self.follows.len() as i64))
    }

    fn snapshot_state(&self) -> Value {
        Value::map([
            ("posts", Value::from(self.posts as i64)),
            (
                "feed",
                self.feed.map(Value::ContextRef).unwrap_or(Value::Null),
            ),
            (
                "follows",
                Value::List(self.follows.iter().map(|f| Value::ContextRef(*f)).collect()),
            ),
        ])
    }

    fn restore_state(&mut self, state: &Value) {
        self.posts = state
            .get("posts")
            .and_then(Value::as_i64)
            .unwrap_or(0)
            .max(0) as u64;
        self.feed = state.get("feed").and_then(Value::as_context);
        self.follows = state
            .get("follows")
            .and_then(Value::as_list)
            .map(|items| items.iter().filter_map(Value::as_context).collect())
            .unwrap_or_default();
    }
}

context_class! {
    User: "User" {
        method "setup" calls [] => User::setup,
        method "post" calls ["Feed::append"] => User::post,
        ro method "timeline" calls ["Feed::latest"] => User::timeline,
        ro method "post_count" calls [] => User::post_count,
        ro method "follow_count" calls [] => User::follow_count,
    }
    snapshot = User::snapshot_state;
    restore = User::restore_state;
}

/// A region root: the top of every invitation chain deployed into it.
#[derive(Debug, Default)]
pub struct Region;

impl Region {
    fn user_count(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        Ok(Value::from(inv.children(Some("User"))?.len() as i64))
    }

    // readonly: posts across the chain heads this region directly owns.
    fn stats(&mut self, _args: &Args, inv: &mut Invocation<'_>) -> Result<Value> {
        let mut total = 0i64;
        for user in inv.children(Some("User"))? {
            total += inv
                .call(user, "post_count", args![])?
                .as_i64()
                .ok_or_else(|| AeonError::app("user returned a non-integer"))?;
        }
        Ok(Value::from(total))
    }
}

context_class! {
    Region: "Region" {
        ro method "user_count" calls [] => Region::user_count,
        ro method "stats" calls ["User::post_count"] => Region::stats,
    }
}

// ---------------------------------------------------------------------------
// Zipf sampler
// ---------------------------------------------------------------------------

/// A seeded Zipf(s) sampler over ranks `0..n` via a precomputed CDF table
/// and binary search.  Rank `r` has weight `1/(r+1)^s`, so `s = 0` is
/// uniform, and larger `s` concentrates mass on the lowest ranks.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// Builds the sampler.
    ///
    /// # Errors
    ///
    /// [`AeonError::Config`] when `n` is zero or `s` is negative or not
    /// finite.
    pub fn new(n: usize, s: f64) -> Result<Self> {
        if n == 0 {
            return Err(AeonError::Config(
                "zipf sampler needs at least one rank".into(),
            ));
        }
        if !s.is_finite() || s < 0.0 {
            return Err(AeonError::Config(format!(
                "zipf exponent must be finite and non-negative, got {s}"
            )));
        }
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for rank in 0..n {
            // (rank+1) >= 1, so the power never divides by zero.
            acc += ((rank + 1) as f64).powf(s).recip();
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        // Guard against float round-off at the top end.
        *cdf.last_mut().expect("n >= 1") = 1.0;
        Ok(Self { cdf })
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Always `false`: construction rejects `n = 0`.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Probability mass of `rank`.
    pub fn pmf(&self, rank: usize) -> f64 {
        let lo = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - lo
    }

    /// Maps a uniform draw `u ∈ [0, 1)` to a rank (deterministic).
    pub fn sample_with(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }

    /// Samples a rank.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        self.sample_with(rng.gen_range(0.0..1.0))
    }
}

// ---------------------------------------------------------------------------
// Deterministic generator
// ---------------------------------------------------------------------------

/// Shape and skew knobs of the social workload.
#[derive(Debug, Clone)]
pub struct SocialConfig {
    /// Number of region roots.
    pub regions: usize,
    /// Total users across all regions (each user also gets one feed, so a
    /// deployment holds `regions + 2 * users` contexts).
    pub users: usize,
    /// Maximum invitation-chain length: users deeper than this start a new
    /// chain directly under their region.
    pub chain_depth: usize,
    /// Feeds each user follows (targets are Zipf-sampled celebrities in
    /// the same region; the realised count can be smaller after
    /// deduplication).
    pub follows_per_user: usize,
    /// Skew of both the follow graph and the request stream.
    pub zipf_s: f64,
    /// Ring-buffer cap per feed: what bounds memory at full scale.
    pub feed_capacity: usize,
    /// Seed of the graph shape (request streams take their own seed).
    pub seed: u64,
}

impl Default for SocialConfig {
    fn default() -> Self {
        Self {
            regions: 2,
            users: 64,
            chain_depth: 8,
            follows_per_user: 3,
            zipf_s: 1.1,
            feed_capacity: 8,
            seed: 0x50c1a1,
        }
    }
}

impl SocialConfig {
    /// Contexts a deployment of this config creates.
    pub fn total_contexts(&self) -> usize {
        self.regions + 2 * self.users
    }
}

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocialOp {
    /// `user` posts `payload` into its feed (mutating; sequenced at the
    /// feed's dominator, which is hot for celebrities).
    Post {
        /// Author index into [`SocialWorld::users`].
        user: u32,
        /// Post payload.
        payload: i64,
    },
    /// `user` reads its timeline (read-only; touches every followed feed).
    Timeline {
        /// Reader index.
        user: u32,
    },
    /// Directory-style read of `user`'s feed length.
    FeedLen {
        /// Feed owner index.
        user: u32,
    },
}

/// The deterministic graph shape: pure data, independent of any backend.
#[derive(Debug, Clone)]
pub struct SocialPlan {
    /// The config this plan was generated from.
    pub config: SocialConfig,
    /// Region index of each user.
    pub region_of: Vec<u32>,
    /// Inviting user of each user (`None` for chain heads owned directly
    /// by their region).  Always a smaller user index, so the instance
    /// graph is acyclic by construction.
    pub inviter_of: Vec<Option<u32>>,
    /// Followed users of each user: same region, never the user itself,
    /// deduplicated and sorted.
    pub follows: Vec<Vec<u32>>,
}

/// Generates the graph shape from the config, deterministically.
pub fn generate_plan(config: &SocialConfig) -> SocialPlan {
    let regions = config.regions.max(1);
    let chain = config.chain_depth.max(1);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut region_of = Vec::with_capacity(config.users);
    let mut inviter_of = Vec::with_capacity(config.users);
    let mut follows = Vec::with_capacity(config.users);
    // User i lives in region i % regions at in-region position i / regions;
    // a position that is a multiple of `chain_depth` starts a new chain.
    for i in 0..config.users {
        let region = i % regions;
        let position = i / regions;
        region_of.push(region as u32);
        inviter_of.push(if position.is_multiple_of(chain) {
            None
        } else {
            Some((i - regions) as u32)
        });
    }
    // Zipf sampler per distinct region population (region sizes differ by
    // at most one).
    let size_of = |region: usize| (config.users + regions - 1 - region) / regions;
    let samplers: Vec<Option<ZipfSampler>> = (0..regions)
        .map(|r| {
            let n = size_of(r);
            (n > 0).then(|| ZipfSampler::new(n, config.zipf_s).expect("n >= 1, s validated"))
        })
        .collect();
    for i in 0..config.users {
        let region = i % regions;
        let mut chosen = BTreeSet::new();
        if let Some(sampler) = &samplers[region] {
            // Bounded attempts: rejecting self-follows can starve in tiny
            // regions, so the realised follow count may be smaller.
            for _ in 0..config.follows_per_user.saturating_mul(3) {
                if chosen.len() >= config.follows_per_user {
                    break;
                }
                let rank = sampler.sample(&mut rng);
                let target = rank * regions + region;
                if target != i {
                    chosen.insert(target as u32);
                }
            }
        }
        follows.push(chosen.into_iter().collect());
    }
    SocialPlan {
        config: config.clone(),
        region_of,
        inviter_of,
        follows,
    }
}

impl SocialPlan {
    /// Generates a Zipf-skewed request stream: ~60% posts by Zipf-ranked
    /// authors (rank 0 = the hottest celebrity), ~30% uniform timeline
    /// reads, ~10% Zipf-ranked feed-length probes.
    pub fn request_stream(&self, events: usize, seed: u64) -> Vec<SocialOp> {
        if self.config.users == 0 {
            return Vec::new();
        }
        let sampler = ZipfSampler::new(self.config.users, self.config.zipf_s)
            .expect("users >= 1, s validated");
        let mut rng = StdRng::seed_from_u64(seed);
        (0..events)
            .map(|i| {
                let kind = rng.gen_range(0..10u32);
                if kind < 6 {
                    SocialOp::Post {
                        user: sampler.sample(&mut rng) as u32,
                        payload: i as i64,
                    }
                } else if kind < 9 {
                    SocialOp::Timeline {
                        user: rng.gen_range(0..self.config.users) as u32,
                    }
                } else {
                    SocialOp::FeedLen {
                        user: sampler.sample(&mut rng) as u32,
                    }
                }
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Deployment driver
// ---------------------------------------------------------------------------

/// Context ids of a deployed social graph.
#[derive(Debug, Clone)]
pub struct SocialWorld {
    /// The generated shape.
    pub plan: SocialPlan,
    /// Region roots.
    pub regions: Vec<ContextId>,
    /// Users, in plan order.
    pub users: Vec<ContextId>,
    /// Each user's own feed, in plan order.
    pub feeds: Vec<ContextId>,
}

impl SocialWorld {
    /// The hottest contexts under the Zipf stream: the region roots (the
    /// dominators of celebrity feeds) plus the lowest-ranked users and
    /// their feeds.  These are the live-migration victims of the chaos
    /// scenario.
    pub fn hot_dominators(&self, celebrities: usize) -> Vec<ContextId> {
        let mut hot = self.regions.clone();
        for i in 0..celebrities.min(self.users.len()) {
            hot.push(self.users[i]);
            hot.push(self.feeds[i]);
        }
        hot
    }

    /// A deterministic digest of the final graph state, independent of the
    /// backend's context-id assignment: per-user post counts and timeline
    /// sums, per-feed lengths and payload sums, per-region stats.  Equal
    /// digests mean equal final states.
    pub fn digest(&self, session: &dyn Session) -> Result<Vec<i64>> {
        let mut out = Vec::with_capacity(4 * self.users.len() + self.regions.len());
        for user in &self.users {
            out.push(
                session
                    .call_readonly(*user, "post_count", args![])?
                    .as_i64()
                    .ok_or_else(|| AeonError::app("post_count returned a non-integer"))?,
            );
            out.push(
                session
                    .call_readonly(*user, "timeline", args![])?
                    .as_i64()
                    .ok_or_else(|| AeonError::app("timeline returned a non-integer"))?,
            );
        }
        for feed in &self.feeds {
            out.push(
                session
                    .call_readonly(*feed, "len", args![])?
                    .as_i64()
                    .ok_or_else(|| AeonError::app("len returned a non-integer"))?,
            );
            out.push(
                session
                    .call_readonly(*feed, "sum", args![])?
                    .as_i64()
                    .ok_or_else(|| AeonError::app("sum returned a non-integer"))?,
            );
        }
        for region in &self.regions {
            out.push(
                session
                    .call_readonly(*region, "stats", args![])?
                    .as_i64()
                    .ok_or_else(|| AeonError::app("stats returned a non-integer"))?,
            );
        }
        Ok(out)
    }
}

/// Generates a plan from `config` and deploys it.
///
/// # Errors
///
/// Propagates context-creation and setup-event errors.
pub fn deploy_social(deployment: &dyn Deployment, config: &SocialConfig) -> Result<SocialWorld> {
    deploy_social_plan(deployment, generate_plan(config))
}

/// Deploys an already-generated plan onto any backend.
///
/// # Errors
///
/// Propagates context-creation and setup-event errors.
pub fn deploy_social_plan(deployment: &dyn Deployment, plan: SocialPlan) -> Result<SocialWorld> {
    let regions: Vec<ContextId> = (0..plan.config.regions.max(1))
        .map(|_| deployment.create_context(Box::new(Region), Placement::Auto))
        .collect::<Result<_>>()?;
    let mut users = Vec::with_capacity(plan.config.users);
    let mut feeds = Vec::with_capacity(plan.config.users);
    for i in 0..plan.config.users {
        // The inviter always has a smaller index, so it already exists;
        // the feed co-locates with its user (first owner wins placement).
        let owner = match plan.inviter_of[i] {
            Some(inviter) => users[inviter as usize],
            None => regions[plan.region_of[i] as usize],
        };
        let user = deployment.create_owned_context(Box::new(User::default()), &[owner])?;
        let feed = deployment
            .create_owned_context(Box::new(Feed::new(plan.config.feed_capacity)), &[user])?;
        users.push(user);
        feeds.push(feed);
    }
    // Every follow edge goes in before the first `setup` event: the graph
    // then holds still while they run, so the dominator walk of a region's
    // first user answers the rest of the region from the resolver's cache.
    for (user, followed) in users.iter().zip(&plan.follows) {
        for &t in followed {
            deployment.add_ownership(*user, feeds[t as usize])?;
        }
    }
    let session = deployment.session();
    for ((user, feed), followed) in users.iter().zip(&feeds).zip(&plan.follows) {
        let followed = followed
            .iter()
            .map(|&t| Value::ContextRef(feeds[t as usize]));
        session.call(
            *user,
            "setup",
            args![*feed, Value::List(followed.collect())],
        )?;
    }
    Ok(SocialWorld {
        plan,
        regions,
        users,
        feeds,
    })
}

/// Counters of one applied request stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SocialStreamReport {
    /// Posts applied.
    pub posts: u64,
    /// Read-only events applied (timelines + feed-length probes).
    pub reads: u64,
}

/// Applies `ops` serially through one session; the deterministic leg the
/// parity and replay tests compare across backends.
///
/// # Errors
///
/// Propagates the first event error.
pub fn run_social_stream(
    session: &dyn Session,
    world: &SocialWorld,
    ops: &[SocialOp],
) -> Result<SocialStreamReport> {
    let mut report = SocialStreamReport::default();
    for op in ops {
        match *op {
            SocialOp::Post { user, payload } => {
                session.call(world.users[user as usize], "post", args![payload])?;
                report.posts += 1;
            }
            SocialOp::Timeline { user } => {
                session.call_readonly(world.users[user as usize], "timeline", args![])?;
                report.reads += 1;
            }
            SocialOp::FeedLen { user } => {
                session.call_readonly(world.feeds[user as usize], "len", args![])?;
                report.reads += 1;
            }
        }
    }
    Ok(report)
}

/// Registers snapshot factories for the social classes, so migration and
/// crash re-hosting work on backends that rebuild objects from serialised
/// state.
pub fn register_social_factories(deployment: &dyn Deployment) {
    deployment.register_class_factory(
        "Feed",
        Arc::new(|state: &Value| {
            let mut feed = Feed::default();
            ContextObject::restore(&mut feed, state);
            Box::new(feed) as Box<dyn ContextObject>
        }),
    );
    deployment.register_class_factory(
        "User",
        Arc::new(|state: &Value| {
            let mut user = User::default();
            ContextObject::restore(&mut user, state);
            Box::new(user) as Box<dyn ContextObject>
        }),
    );
    deployment.register_class_factory(
        "Region",
        Arc::new(|_state: &Value| Box::new(Region) as Box<dyn ContextObject>),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeon_runtime::AeonRuntime;

    fn tiny_config() -> SocialConfig {
        SocialConfig {
            regions: 2,
            users: 12,
            chain_depth: 3,
            follows_per_user: 2,
            zipf_s: 1.0,
            feed_capacity: 4,
            seed: 7,
        }
    }

    #[test]
    fn plans_are_deterministic_and_well_formed() {
        let config = tiny_config();
        let a = generate_plan(&config);
        let b = generate_plan(&config);
        assert_eq!(a.inviter_of, b.inviter_of);
        assert_eq!(a.follows, b.follows);
        for (i, inviter) in a.inviter_of.iter().enumerate() {
            if let Some(inviter) = inviter {
                assert!((*inviter as usize) < i, "inviter precedes the invitee");
                assert_eq!(a.region_of[*inviter as usize], a.region_of[i]);
            }
            for &t in &a.follows[i] {
                assert_ne!(t as usize, i, "no self-follows");
                assert_eq!(a.region_of[t as usize], a.region_of[i]);
            }
        }
        assert_eq!(
            a.request_stream(100, 11),
            b.request_stream(100, 11),
            "request streams replay deterministically"
        );
    }

    #[test]
    fn posts_land_in_feeds_and_timelines_see_follows() {
        let runtime = AeonRuntime::builder()
            .servers(2)
            .class_graph(social_class_graph())
            .build()
            .unwrap();
        let config = tiny_config();
        let world = deploy_social(&runtime, &config).unwrap();
        assert_eq!(runtime.context_count(), config.total_contexts());
        let session = Deployment::session(&runtime);
        session.call(world.users[0], "post", args![41i64]).unwrap();
        session.call(world.users[0], "post", args![42i64]).unwrap();
        assert_eq!(
            session
                .call_readonly(world.feeds[0], "latest", args![])
                .unwrap(),
            Value::from(42i64)
        );
        // Any follower of user 0 sees 42 in its timeline sum.
        if let Some(follower) = (0..config.users).find(|&i| world.plan.follows[i].contains(&0)) {
            let timeline = session
                .call_readonly(world.users[follower], "timeline", args![])
                .unwrap()
                .as_i64()
                .unwrap();
            assert!(timeline >= 42, "timeline {timeline} includes the celebrity");
        }
        runtime.shutdown();
    }

    #[test]
    fn feed_capacity_bounds_memory() {
        let runtime = AeonRuntime::builder()
            .class_graph(social_class_graph())
            .build()
            .unwrap();
        let config = SocialConfig {
            users: 1,
            regions: 1,
            feed_capacity: 4,
            ..tiny_config()
        };
        let world = deploy_social(&runtime, &config).unwrap();
        let session = Deployment::session(&runtime);
        for payload in 0..32i64 {
            session
                .call(world.users[0], "post", args![payload])
                .unwrap();
        }
        assert_eq!(
            session
                .call_readonly(world.feeds[0], "len", args![])
                .unwrap(),
            Value::from(4i64)
        );
        runtime.shutdown();
    }

    #[test]
    fn zipf_is_skewed_and_uniform_at_zero() {
        let zipf = ZipfSampler::new(100, 1.2).unwrap();
        assert!(zipf.pmf(0) > zipf.pmf(1));
        assert!(zipf.pmf(1) > zipf.pmf(50));
        let uniform = ZipfSampler::new(10, 0.0).unwrap();
        for rank in 0..10 {
            assert!((uniform.pmf(rank) - 0.1).abs() < 1e-9);
        }
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(zipf.sample(&mut rng) < 100);
        }
    }
}
