//! Cross-validation of the occupancy-aware engine stack.
//!
//! **Cache integrity** — after every rule's in-place `vector_step_into`,
//! `shift_support` point mutation, and agent-engine rounds (which maintain the
//! caches incrementally through `record`), every cached observable
//! matches a from-scratch recount of the raw counts. The law of each
//! vector step is pinned against the literal agent engine in
//! `engine_crossval.rs`.
//!
//! Plus an E7-style one-round mean-agreement check for the 2-Median
//! vector step against its agent-level semantics.

use proptest::prelude::*;
use rand::SeedableRng;
use symbreak_core::rules::{
    HMajority, LazyVoter, ThreeMajority, ThreeMajorityAlt, TwoChoices, TwoMedian,
    UndecidedDynamics, Voter,
};
use symbreak_core::{AgentEngine, Configuration, Engine, VectorEngine, VectorStep};
use symbreak_sim::rng::Pcg64;

fn counts_strategy(k: usize, max: u64) -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..max, k)
        .prop_filter("at least one node", |c| c.iter().sum::<u64>() > 0)
}

/// Every rule with a vector step, type-erased.
fn vector_rules() -> Vec<(&'static str, Box<dyn VectorStep>)> {
    vec![
        ("Voter", Box::new(Voter)),
        ("3-Majority", Box::new(ThreeMajority)),
        ("3-Majority-alt", Box::new(ThreeMajorityAlt)),
        ("2-Choices", Box::new(TwoChoices)),
        ("Lazy Voter", Box::new(LazyVoter::half())),
        ("4-Majority", Box::new(HMajority::new(4))),
        ("2-Median", Box::new(TwoMedian)),
    ]
}

/// Asserts that every cached observable of `c` equals a from-scratch
/// recount of its raw counts.
fn check_caches(c: &Configuration) -> Result<(), TestCaseError> {
    let counts = c.counts();
    let colors = counts.iter().filter(|&&v| v > 0).count();
    let max = counts.iter().copied().max().unwrap_or(0);
    let mut first = 0u64;
    let mut second = 0u64;
    for &v in counts {
        if v >= first {
            second = first;
            first = v;
        } else if v > second {
            second = v;
        }
    }
    let n = counts.iter().sum::<u64>();
    let l2: f64 = counts.iter().map(|&v| (v as f64 / n as f64).powi(2)).sum();
    let occupied: Vec<u32> =
        (0..counts.len()).filter(|&i| counts[i] > 0).map(|i| i as u32).collect();
    prop_assert_eq!(c.n(), n);
    prop_assert_eq!(c.num_colors(), colors);
    prop_assert_eq!(c.max_support(), max);
    prop_assert_eq!(c.bias(), first - second);
    prop_assert_eq!(c.occupied(), &occupied[..]);
    prop_assert!((c.l2_norm_sq() - l2).abs() < 1e-12, "l2 {} vs recount {}", c.l2_norm_sq(), l2);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sparse_step_keeps_caches_exact_for_every_rule(
        counts in counts_strategy(8, 40),
        seed in 0u64..10_000,
    ) {
        for (name, rule) in vector_rules() {
            let start = Configuration::from_counts(counts.clone());
            let mut rng = Pcg64::seed_from_u64(seed);
            let mut c = start.clone();
            for round in 0..3 {
                rule.vector_step_into(&mut c, &mut rng);
                prop_assert_eq!(c.n(), start.n(), "{} changed the population at round {}", name, round);
                prop_assert_eq!(c.num_slots(), start.num_slots());
                check_caches(&c)?;
            }
        }
    }

    #[test]
    fn caches_survive_sparse_steps_and_raw_mutation(
        counts in counts_strategy(6, 30),
        seed in 0u64..10_000,
    ) {
        let mut c = Configuration::from_counts(counts);
        let mut rng = Pcg64::seed_from_u64(seed);
        for _ in 0..4 {
            ThreeMajority.vector_step_into(&mut c, &mut rng);
            check_caches(&c)?;
        }
        // A point mutation that empties a slot (and may revive slot 0)
        // must keep the caches exact too.
        let donor = c.plurality().index();
        c.shift_support(Some(donor), Some(0), c.counts()[donor]);
        c.validate();
        check_caches(&c)?;
    }

    #[test]
    fn agent_engine_caches_match_recount(
        counts in counts_strategy(5, 20),
        seed in 0u64..5_000,
    ) {
        // 3-Majority exercises decided↔decided shifts; the undecided
        // dynamics exercises mass entering and leaving the configuration.
        let c = Configuration::from_counts(counts);
        let mut majority = AgentEngine::new(ThreeMajority, &c, seed);
        let mut undecided = AgentEngine::new(UndecidedDynamics, &c, seed ^ 0x9E37);
        for _ in 0..4 {
            majority.step();
            check_caches(majority.config_ref())?;
            undecided.step();
            check_caches(undecided.config_ref())?;
            prop_assert_eq!(undecided.config_ref().n() + undecided.undecided(), c.n());
        }
    }
}

/// Binomial 5-sigma tolerance on a mean of `trials` supports.
fn tol(n: u64, mean: f64, trials: u64) -> f64 {
    let p = (mean / n as f64).clamp(0.0, 1.0);
    5.0 * (n as f64 * p * (1.0 - p) / trials as f64).sqrt() + 0.5
}

#[test]
fn two_median_vector_step_matches_agent_means() {
    // E7-style: one-round mean supports of the new 2-Median vector step
    // vs the literal agent-level semantics.
    let start = Configuration::from_counts(vec![25, 10, 40, 0, 25]);
    let n = start.n();
    let trials = 4_000u64;
    let k = start.num_slots();
    let mut agent_sums = vec![0u64; k];
    let mut vector_sums = vec![0u64; k];
    for t in 0..trials {
        let mut a = AgentEngine::new(TwoMedian, &start, 500 + t);
        a.step();
        for (s, &c) in agent_sums.iter_mut().zip(a.config_ref().counts()) {
            *s += c;
        }
        let mut v = VectorEngine::new(TwoMedian, start.clone(), 9_500 + t);
        v.step();
        for (s, &c) in vector_sums.iter_mut().zip(v.config_ref().counts()) {
            *s += c;
        }
    }
    for i in 0..k {
        let ma = agent_sums[i] as f64 / trials as f64;
        let mv = vector_sums[i] as f64 / trials as f64;
        let t = tol(n, ma, trials);
        assert!((ma - mv).abs() < t, "value {i}: agent mean {ma} vs vector mean {mv} (tol {t})");
    }
}

#[test]
fn two_median_vector_engine_reaches_consensus() {
    // The vector step also has the right long-run behaviour: 2-Median
    // contracts to a single value.
    let start = Configuration::from_counts(vec![20, 5, 15, 8, 12]);
    let mut e = VectorEngine::new(TwoMedian, start, 11);
    let mut rounds = 0;
    while !e.is_consensus() && rounds < 100_000 {
        e.step();
        rounds += 1;
    }
    assert!(e.is_consensus(), "no consensus after {rounds} rounds");
    assert_eq!(e.config_ref().n(), 60);
}

#[test]
fn singleton_vector_trajectory_stays_exact() {
    // The Theorem-5 workload in miniature: a plain (non-compacting)
    // VectorEngine from the singleton start keeps positional identity
    // (num_slots == k forever) while the occupancy caches track the
    // shrinking support exactly.
    let n = 512u64;
    let mut e = VectorEngine::new(ThreeMajority, Configuration::singletons(n), 21);
    let mut rounds = 0;
    while !e.is_consensus() && rounds < 100_000 {
        e.step();
        rounds += 1;
        let c = e.config_ref();
        assert_eq!(c.num_slots(), n as usize, "no slot is ever dropped");
        assert_eq!(c.n(), n, "population preserved");
        assert_eq!(
            c.num_colors(),
            c.counts().iter().filter(|&&v| v > 0).count(),
            "occupancy cache exact at round {rounds}"
        );
    }
    assert!(e.is_consensus());
    assert_eq!(e.num_colors(), 1);
    assert_eq!(e.max_support(), n);
    assert_eq!(e.bias(), n);
}
