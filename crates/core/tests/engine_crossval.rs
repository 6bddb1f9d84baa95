//! E7-style cross-validation of the agent engine against the exact
//! one-step law.
//!
//! [`AgentEngine`] is the literal Uniform Pull model, the oracle every
//! shortcut is checked against; here it is checked in turn against
//! [`VectorEngine`], one draw from `Mult(n, α(c))`. The checks compare
//! one-round means and variances over many trials for 3-Majority, its
//! 2-Choices-plus-Voter reformulation, h-Majority, Voter, lazy Voter and
//! 2-Choices, from concentrated, near-uniform, singleton and absorbed
//! starts, and full consensus-time means for Voter.

use symbreak_core::rules::{
    HMajority, LazyVoter, ThreeMajority, ThreeMajorityAlt, TwoChoices, Voter,
};
use symbreak_core::{AgentEngine, Configuration, Engine, UpdateRule, VectorEngine, VectorStep};

/// Per-color supports after one round of `engine(seed + t)`, one row
/// per color, one entry per trial.
fn one_step_supports<E: Engine>(
    start: &Configuration,
    trials: u64,
    seed: u64,
    engine: impl Fn(u64) -> E,
) -> Vec<Vec<f64>> {
    let mut rows = vec![Vec::with_capacity(trials as usize); start.num_slots()];
    for t in 0..trials {
        let mut e = engine(seed + t);
        e.step();
        assert_eq!(e.undecided(), 0, "an AC process leaves no node undecided");
        for (row, &c) in rows.iter_mut().zip(e.configuration().counts()) {
            row.push(c as f64);
        }
    }
    rows
}

/// Sample mean, sample variance and the squared standard error of that
/// variance, `(m₄ − s⁴) / T`.
fn moments(xs: &[f64]) -> (f64, f64, f64) {
    let t = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / t;
    let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / t;
    let m4 = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / t;
    (mean, var, (m4 - var * var).max(0.0) / t)
}

/// Binomial 5-sigma tolerance on a mean of `trials` supports.
fn tol(n: u64, mean: f64, trials: u64) -> f64 {
    let p = (mean / n as f64).clamp(0.0, 1.0);
    5.0 * (n as f64 * p * (1.0 - p) / trials as f64).sqrt() + 0.5
}

/// Per color, the agent engine's one-step mean and variance must match
/// the vector engine's within 5σ. The variance is what sees a lazy
/// Voter's activation rate: its mean is the start for every rate.
fn crossval<R>(rule: R, start: Configuration, trials: u64, seed: u64)
where
    R: UpdateRule + VectorStep + Clone,
{
    let n = start.n();
    let agent = one_step_supports(&start, trials, seed + trials, |s| {
        AgentEngine::new(rule.clone(), &start, s)
    });
    let vector = one_step_supports(&start, trials, seed + 2 * trials, |s| {
        VectorEngine::new(rule.clone(), start.clone(), s)
    });
    for i in 0..start.num_slots() {
        let (agent_mean, agent_var, agent_se2) = moments(&agent[i]);
        let (vector_mean, vector_var, vector_se2) = moments(&vector[i]);
        let t = tol(n, vector_mean, trials);
        assert!(
            (agent_mean - vector_mean).abs() < t,
            "color {i}: agent mean {agent_mean} vs vector mean {vector_mean} (tol {t})"
        );
        let t = 5.0 * (agent_se2 + vector_se2).sqrt() + 0.05;
        assert!(
            (agent_var - vector_var).abs() < t,
            "color {i}: agent variance {agent_var} vs vector variance {vector_var} (tol {t})"
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
fn lazy_voter_agent_matches_vector() {
    // Not an AC-process: a sleeping node keeps its own opinion, so the
    // vector step is its own wake-up-then-redistribute decomposition.
    crossval(LazyVoter::half(), Configuration::from_counts(vec![50, 30, 20]), 4_000, 110_000);
    crossval(LazyVoter::half(), Configuration::from_counts(vec![9, 11, 10, 12, 8]), 4_000, 120_000);
}

#[test]
fn three_majority_alt_agent_matches_vector() {
    // The agent rule is 2-Choices with a Voter fallback; its vector step
    // is 3-Majority's `Mult(n, α)`, so this pins the paper's claim that
    // the two are the same process.
    crossval(ThreeMajorityAlt, Configuration::from_counts(vec![45, 35, 20]), 4_000, 130_000);
    crossval(ThreeMajorityAlt, Configuration::from_counts(vec![16, 14, 15, 15]), 4_000, 140_000);
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
