//! Property tests for the social workload generators.
//!
//! Two generator surfaces get the adversarial treatment: the Zipf sampler
//! (distribution sanity across the whole exponent range, including the
//! degenerate `s → 0` uniform case) and the seeded graph generator (every
//! plan must be a well-formed ownership DAG that deploys cleanly under the
//! deploy-time analysis — the AEON001–005 diagnostics never fire, for any
//! seed).

use aeon_analyzer::analyze;
use aeon_apps::social::{
    deploy_social_plan, generate_plan, social_class_graph, SocialConfig, ZipfSampler,
};
use aeon_sim::SimDeployment;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn social_class_graph_is_statically_clean() {
    let report = analyze(&social_class_graph());
    assert!(report.is_clean(), "{}", report.render_text());
}

proptest! {
    /// Zipf rank frequencies are monotone non-increasing, normalised, and
    /// well defined over the whole exponent range — including `s = 0`
    /// (uniform) and `s ≥ 1` (heavy skew).  No division by zero, no NaN.
    #[test]
    fn zipf_pmf_is_monotone_and_normalised(n in 1usize..200, s in 0.0f64..3.0) {
        let zipf = ZipfSampler::new(n, s).unwrap();
        prop_assert_eq!(zipf.len(), n);
        let mut total = 0.0;
        let mut prev = f64::INFINITY;
        for rank in 0..n {
            let p = zipf.pmf(rank);
            prop_assert!(p.is_finite() && p > 0.0, "pmf({rank}) = {p}");
            prop_assert!(p <= prev + 1e-12, "pmf must not increase with rank");
            prev = p;
            total += p;
        }
        prop_assert!((total - 1.0).abs() < 1e-9, "pmf sums to {total}");
    }

    /// Samples always land in `[0, n)`, for any uniform draw including the
    /// boundaries.
    #[test]
    fn zipf_samples_stay_in_range(n in 1usize..100, s in 0.0f64..3.0, u in 0.0f64..1.0) {
        let zipf = ZipfSampler::new(n, s).unwrap();
        prop_assert!(zipf.sample_with(u) < n);
        prop_assert!(zipf.sample_with(0.0) < n);
        prop_assert!(zipf.sample_with(0.999_999_999) < n);
    }

    /// At `s = 0` every rank is equally likely.
    #[test]
    fn zipf_at_zero_is_uniform(n in 1usize..100) {
        let zipf = ZipfSampler::new(n, 0.0).unwrap();
        let uniform = 1.0 / n as f64;
        for rank in 0..n {
            prop_assert!((zipf.pmf(rank) - uniform).abs() < 1e-9);
        }
    }

    /// Every seeded plan is well formed: users sit in their declared
    /// region, invite edges always point from an earlier user to a later
    /// one (the DAG guarantee), and follow edges never self-reference or
    /// duplicate.
    #[test]
    fn generated_plans_are_well_formed(
        regions in 1usize..4,
        users in 1usize..48,
        chain_depth in 1usize..8,
        follows_per_user in 0usize..6,
        zipf_s in 0.0f64..2.5,
        seed in any::<u64>(),
    ) {
        let config = SocialConfig {
            regions,
            users,
            chain_depth,
            follows_per_user,
            zipf_s,
            feed_capacity: 4,
            seed,
        };
        let plan = generate_plan(&config);
        prop_assert_eq!(plan.region_of.len(), users);
        prop_assert_eq!(plan.inviter_of.len(), users);
        prop_assert_eq!(plan.follows.len(), users);
        for user in 0..users {
            prop_assert!((plan.region_of[user] as usize) < regions);
            if let Some(inviter) = plan.inviter_of[user] {
                prop_assert!(
                    (inviter as usize) < user,
                    "invite edges must point forward: {inviter} -> {user}"
                );
                prop_assert_eq!(plan.region_of[inviter as usize], plan.region_of[user]);
            }
            let mut seen = std::collections::BTreeSet::new();
            for &followed in &plan.follows[user] {
                prop_assert!((followed as usize) < users);
                prop_assert!(followed as usize != user, "no self-follows");
                prop_assert!(seen.insert(followed), "no duplicate follows");
            }
            prop_assert!(plan.follows[user].len() <= follows_per_user);
        }
    }

    /// Every seeded plan deploys under the enforced static analysis: the
    /// deploy-time pipeline re-checks the instance ownership network
    /// against the class constraints, so a clean deployment means none of
    /// AEON001–005 fired for this seed.
    #[test]
    fn every_seed_deploys_analyzer_clean(
        users in 1usize..32,
        follows_per_user in 0usize..5,
        seed in any::<u64>(),
    ) {
        let config = SocialConfig {
            regions: 2,
            users,
            chain_depth: 5,
            follows_per_user,
            zipf_s: 1.1,
            feed_capacity: 4,
            seed,
        };
        let sim = SimDeployment::builder()
            .servers(2)
            .class_graph(social_class_graph())
            .build()
            .unwrap();
        let plan = generate_plan(&config);
        let world = deploy_social_plan(&sim, plan).unwrap();
        prop_assert_eq!(world.users.len(), users);
    }

    /// The sampler accepts any seeded RNG without panicking and remains
    /// deterministic for equal seeds.
    #[test]
    fn zipf_sampling_is_deterministic_per_seed(n in 1usize..64, seed in any::<u64>()) {
        let zipf = ZipfSampler::new(n, 1.1).unwrap();
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..32).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        prop_assert_eq!(draw(seed), draw(seed));
    }
}
