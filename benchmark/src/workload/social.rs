//! `social-zipf-runtime`: Zipf-skewed posts and reads on a follower graph
//! whose ownership edges change under the load.
//!
//! Celebrity feeds have many owners, so their dominators sit high and the
//! skewed stream concentrates sequencing on them; the churn uses the
//! ownership layer for mutations beside the lookups every event makes, so a
//! cache that speeds lookups but slows invalidation shows here.

use super::{read_i64, thread_rng, Event, Side, Size, Tally, World, LOAD_THREADS};
use aeon::api::Deployment;
use aeon::types::args;
use aeon::ContextId;
use aeon_apps::social::{deploy_social_plan, generate_plan, SocialConfig, SocialOp, SocialPlan};
use aeon_apps::SocialWorld;
use rand::Rng;
use std::collections::BTreeSet;

/// Every this-many ops, a load thread toggles one follow edge.
const CHURN_EVERY: u64 = 100;
/// Distinct edges each thread toggles in turn.
const CHURN_EDGES: usize = 64;

fn config(seed: u64, size: Size) -> SocialConfig {
    SocialConfig {
        regions: size.pick(4, 2),
        users: size.pick(200, 60),
        follows_per_user: size.pick(5, 3),
        zipf_s: 1.1,
        seed,
        ..SocialConfig::default()
    }
}

/// The graph shape for `seed`.
pub fn plan(seed: u64, size: Size) -> SocialPlan {
    generate_plan(&config(seed, size))
}

/// The op stream of load thread `thread`: 60 % posts, 30 % timelines, 10 %
/// feed-length reads (`SocialPlan::request_stream`).
pub fn generate(plan: &SocialPlan, seed: u64, thread: usize, size: Size) -> Vec<SocialOp> {
    use rand::RngCore;
    plan.request_stream(size.stream_len(), thread_rng(seed, thread).next_u64())
}

/// Per thread, `(follower, followed)` user pairs of one region that the
/// plan does not connect: toggling them never removes an edge a `timeline`
/// relies on.  No pair appears twice, within or across threads.
pub fn churn_pairs(plan: &SocialPlan, seed: u64) -> Vec<Vec<(u32, u32)>> {
    let users = plan.config.users as u32;
    let mut rng = thread_rng(seed, LOAD_THREADS);
    let mut taken = BTreeSet::new();
    (0..LOAD_THREADS)
        .map(|_| {
            let mut pairs = Vec::with_capacity(CHURN_EDGES);
            // Bounded: a tiny, fully connected region could starve.
            for _ in 0..CHURN_EDGES * 64 {
                if pairs.len() == CHURN_EDGES {
                    break;
                }
                let (u, v) = (rng.gen_range(0..users), rng.gen_range(0..users));
                let same_region = plan.region_of[u as usize] == plan.region_of[v as usize];
                if u != v
                    && same_region
                    && !plan.follows[u as usize].contains(&v)
                    && taken.insert((u, v))
                {
                    pairs.push((u, v));
                }
            }
            pairs
        })
        .collect()
}

fn bind(world: &SocialWorld, op: SocialOp) -> Event {
    match op {
        SocialOp::Post { user, payload } => Event {
            tallied: true,
            ..Event::update(world.users[user as usize], "post", args![payload])
        },
        SocialOp::Timeline { user } => Event::read(world.users[user as usize], "timeline", args![]),
        SocialOp::FeedLen { user } => Event::read(world.feeds[user as usize], "len", args![]),
    }
}

/// Every successful post was counted by its author, and no feed outgrew
/// its ring buffer.
pub fn check_posts(
    post_counts: &[i64],
    posted_ok: u64,
    feed_lens: &[i64],
    capacity: usize,
) -> Result<(), String> {
    let counted: i64 = post_counts.iter().sum();
    if counted != posted_ok as i64 {
        return Err(format!(
            "users counted {counted} posts, the load generator saw {posted_ok} succeed"
        ));
    }
    match feed_lens.iter().find(|len| **len > capacity as i64) {
        Some(len) => Err(format!("a feed holds {len} posts, capacity is {capacity}")),
        None => Ok(()),
    }
}

/// Deploys the graph and binds the streams.
pub fn deploy(deployment: &dyn Deployment, seed: u64, size: Size) -> aeon::Result<World> {
    let plan = plan(seed, size);
    let abstract_streams: Vec<Vec<SocialOp>> = (0..LOAD_THREADS)
        .map(|t| generate(&plan, seed, t, size))
        .collect();
    let pairs = churn_pairs(&plan, seed);
    let world = deploy_social_plan(deployment, plan.clone())?;
    let streams = abstract_streams
        .iter()
        .map(|ops| ops.iter().map(|op| bind(&world, *op)).collect())
        .collect();
    let edges: Vec<Vec<(ContextId, ContextId)>> = pairs
        .iter()
        .map(|thread| {
            thread
                .iter()
                .map(|(u, v)| (world.users[*u as usize], world.feeds[*v as usize]))
                .collect()
        })
        .collect();
    let root = world.regions[0];
    let capacity = plan.config.feed_capacity;
    let replay = abstract_streams.into_iter().next().unwrap_or_default();
    Ok(World {
        streams,
        side: Side::Churn {
            every: CHURN_EVERY,
            edges,
        },
        invariant: Box::new(move |deployment: &dyn Deployment, tally: &Tally| {
            let session = deployment.session();
            let read_all = |contexts: &[ContextId], method: &str| -> Result<Vec<i64>, String> {
                contexts
                    .iter()
                    .map(|ctx| read_i64(session.as_ref(), *ctx, method, args![]))
                    .collect()
            };
            check_posts(
                &read_all(&world.users, "post_count")?,
                tally.tallied_ok,
                &read_all(&world.feeds, "len")?,
                capacity,
            )
        }),
        root,
        social: Some((plan, replay)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_and_streams_are_functions_of_the_seed() {
        let a = plan(5, Size::Smoke);
        let b = plan(5, Size::Smoke);
        assert_eq!(a.follows, b.follows);
        assert_ne!(a.follows, plan(6, Size::Smoke).follows);
        assert_eq!(
            generate(&a, 5, 0, Size::Smoke),
            generate(&b, 5, 0, Size::Smoke)
        );
        assert_ne!(
            generate(&a, 5, 0, Size::Smoke),
            generate(&a, 5, 1, Size::Smoke)
        );
        assert_eq!(churn_pairs(&a, 5), churn_pairs(&b, 5));
    }

    #[test]
    fn churn_never_touches_an_edge_of_the_plan() {
        let plan = plan(1, Size::Full);
        let pairs = churn_pairs(&plan, 1);
        assert_eq!(pairs.len(), LOAD_THREADS);
        let mut seen = BTreeSet::new();
        for (u, v) in pairs.iter().flatten() {
            assert_ne!(u, v);
            assert_eq!(plan.region_of[*u as usize], plan.region_of[*v as usize]);
            assert!(!plan.follows[*u as usize].contains(v));
            assert!(seen.insert((*u, *v)), "pair toggled by two threads");
        }
        assert_eq!(seen.len(), LOAD_THREADS * CHURN_EDGES);
    }

    #[test]
    fn a_lost_post_or_an_overfull_feed_fails_the_invariant() {
        assert!(check_posts(&[2, 3], 5, &[2, 3], 8).is_ok());
        assert!(check_posts(&[2, 2], 5, &[2, 3], 8).is_err());
        assert!(check_posts(&[2, 3], 5, &[2, 9], 8).is_err());
    }
}
