//! E7-style cross-validation of the agent engine against the exact
//! one-step law.
//!
//! [`AgentEngine`] is the literal Uniform Pull model, the oracle every
//! shortcut is checked against; here it is checked in turn against
//! [`VectorEngine`], one draw from `Mult(n, α(c))`. The checks compare
//! one-round means over many trials for 3-Majority, h-Majority, Voter and
//! 2-Choices, from concentrated, near-uniform, singleton and absorbed
//! starts, and full consensus-time means for Voter.

use symbreak_core::rules::{HMajority, ThreeMajority, TwoChoices, Voter};
use symbreak_core::{AgentEngine, Configuration, Engine, UpdateRule, VectorEngine, VectorStep};

/// Mean per-color supports after one round of `engine(seed + t)` over
/// `trials` trials.
fn one_step_means<E: Engine>(
    start: &Configuration,
    trials: u64,
    seed: u64,
    engine: impl Fn(u64) -> E,
) -> Vec<f64> {
    let mut sums = vec![0u64; start.num_slots()];
    for t in 0..trials {
        let mut e = engine(seed + t);
        e.step();
        assert_eq!(e.undecided(), 0, "an AC process leaves no node undecided");
        for (s, &c) in sums.iter_mut().zip(e.configuration().counts()) {
            *s += c;
        }
    }
    sums.iter().map(|&s| s as f64 / trials as f64).collect()
}

/// Binomial 5-sigma tolerance on a mean of `trials` supports.
fn tol(n: u64, mean: f64, trials: u64) -> f64 {
    let p = (mean / n as f64).clamp(0.0, 1.0);
    5.0 * (n as f64 * p * (1.0 - p) / trials as f64).sqrt() + 0.5
}

fn crossval<R>(rule: R, start: Configuration, trials: u64, seed: u64)
where
    R: UpdateRule + VectorStep + Clone,
{
    let n = start.n();
    let agent = one_step_means(&start, trials, seed + trials, |s| {
        AgentEngine::new(rule.clone(), &start, s)
    });
    let vector = one_step_means(&start, trials, seed + 2 * trials, |s| {
        VectorEngine::new(rule.clone(), start.clone(), s)
    });
    for i in 0..start.num_slots() {
        let t = tol(n, vector[i], trials);
        assert!(
            (agent[i] - vector[i]).abs() < t,
            "color {i}: agent mean {} vs vector mean {} (tol {t})",
            agent[i],
            vector[i]
        );
    }
}

#[test]
fn three_majority_agent_matches_vector() {
    crossval(ThreeMajority, Configuration::from_counts(vec![30, 20, 10]), 4_000, 100);
    crossval(ThreeMajority, Configuration::from_counts(vec![22, 18, 20, 21, 19]), 4_000, 10_000);
}

#[test]
fn voter_agent_matches_vector() {
    crossval(Voter, Configuration::from_counts(vec![60, 25, 15]), 4_000, 200);
    crossval(Voter, Configuration::from_counts(vec![10, 12, 9, 11, 8, 10]), 4_000, 20_000);
}

#[test]
fn two_choices_agent_matches_vector() {
    crossval(TwoChoices, Configuration::from_counts(vec![70, 20, 10]), 4_000, 300);
    crossval(TwoChoices, Configuration::from_counts(vec![15, 14, 16, 15]), 4_000, 30_000);
}

#[test]
fn absorbed_round_is_a_fixed_point_in_every_mode() {
    // Every pull returns the consensus color, so the state must stay
    // absorbed.
    let start = Configuration::consensus(500, 4);
    let mut e = AgentEngine::new(ThreeMajority, &start, 9);
    for _ in 0..5 {
        e.step();
    }
    assert!(e.is_consensus());
    assert_eq!(e.configuration().support(0), 500);
}

#[test]
fn three_majority_agent_matches_vector_at_singleton_start() {
    // k = n singletons. h-Majority's exact-alpha vector step cannot
    // enumerate k = 96, so 3-Majority carries this regime.
    crossval(ThreeMajority, Configuration::singletons(96), 3_000, 50_000);
}

#[test]
fn multiset_rules_agent_match_vector_at_low_occupancy() {
    crossval(ThreeMajority, Configuration::from_counts(vec![70, 20, 10]), 4_000, 70_000);
    crossval(HMajority::new(5), Configuration::from_counts(vec![55, 30, 15]), 2_000, 80_000);
}

#[test]
fn voter_agent_matches_vector_concentrated_and_singletons() {
    crossval(Voter, Configuration::from_counts(vec![80, 15, 5]), 4_000, 90_000);
    crossval(Voter, Configuration::singletons(64), 3_000, 100_000);
}

/// Mean consensus round over 300 runs of `engine(base + t)`.
fn mean_consensus_time<E: Engine>(base: u64, engine: impl Fn(u64) -> E) -> f64 {
    let trials = 300u64;
    let total: u64 = (0..trials)
        .map(|t| {
            let mut e = engine(base + t);
            let mut rounds = 0u64;
            while !e.is_consensus() && rounds < 1_000_000 {
                e.step();
                rounds += 1;
            }
            assert!(e.is_consensus());
            rounds
        })
        .sum();
    total as f64 / trials as f64
}

#[test]
fn consensus_time_law_agrees_between_modes() {
    // Beyond one-step means: full consensus-time means over trials must
    // agree between the literal engine and the exact vector law (Voter,
    // small instance).
    let start = Configuration::uniform(48, 6);
    let agent = mean_consensus_time(80_000, |s| AgentEngine::new(Voter, &start, s));
    let vector = mean_consensus_time(40_000, |s| VectorEngine::new(Voter, start.clone(), s));
    assert!(
        (agent - vector).abs() < 0.2 * vector,
        "consensus-time law diverged: agent {agent} vs vector {vector}"
    );
}
