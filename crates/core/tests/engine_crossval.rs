//! E7-style cross-validation of the agent engine's sampling modes.
//!
//! The native `SampleAccess` dispatch (the alias-table path with its
//! run-length fast form for ordered windows, multiset window splits,
//! single-peer draws) must be distributionally identical to the literal
//! per-node path — and both, for processes with a vector step, to the
//! exact one-step law. The checks compare one-round means over many trials for
//! 3-Majority, Voter, and 2-Choices, from starts chosen to exercise
//! every sampler form: alias / run-length / constant rounds, and both
//! multiset sub-paths (the cached-binomial window walk at low occupancy
//! and the tallying fallback at singleton starts).

use symbreak_core::rules::{HMajority, ThreeMajority, TwoChoices, UndecidedDynamics, Voter};
use symbreak_core::{
    AgentEngine, Configuration, Engine, SamplingMode, UpdateRule, VectorEngine, VectorStep,
};

/// Mean per-color supports (plus undecided mean) after one agent-engine
/// round over `trials` trials.
fn one_step_agent_means<R: UpdateRule + Clone>(
    rule: R,
    start: &Configuration,
    mode: SamplingMode,
    trials: u64,
    seed: u64,
) -> (Vec<f64>, f64) {
    let k = start.num_slots();
    let mut sums = vec![0u64; k];
    let mut undecided = 0u64;
    for t in 0..trials {
        let mut e = AgentEngine::with_sampling(rule.clone(), start, seed + t, mode);
        e.step();
        for (s, &c) in sums.iter_mut().zip(e.configuration().counts()) {
            *s += c;
        }
        undecided += e.undecided();
    }
    (sums.iter().map(|&s| s as f64 / trials as f64).collect(), undecided as f64 / trials as f64)
}

/// Mean per-color supports after one exact vector-step round.
fn one_step_vector_means<R: VectorStep + Clone>(
    rule: R,
    start: &Configuration,
    trials: u64,
    seed: u64,
) -> Vec<f64> {
    let k = start.num_slots();
    let mut sums = vec![0u64; k];
    for t in 0..trials {
        let mut e = VectorEngine::new(rule.clone(), start.clone(), seed + t);
        e.step();
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
    let (per_node, per_node_undecided) =
        one_step_agent_means(rule.clone(), &start, SamplingMode::PerNode, trials, seed + trials);
    let (native, native_undecided) =
        one_step_agent_means(rule.clone(), &start, SamplingMode::Native, trials, seed + 3 * trials);
    let vector = one_step_vector_means(rule, &start, trials, seed + 2 * trials);
    for i in 0..start.num_slots() {
        let t = tol(n, per_node[i], trials);
        assert!(
            (per_node[i] - vector[i]).abs() < t,
            "color {i}: per-node mean {} vs vector mean {} (tol {t})",
            per_node[i],
            vector[i]
        );
        assert!(
            (native[i] - per_node[i]).abs() < t,
            "color {i}: native mean {} vs per-node mean {} (tol {t})",
            native[i],
            per_node[i]
        );
        assert!(
            (native[i] - vector[i]).abs() < t,
            "color {i}: native mean {} vs vector mean {} (tol {t})",
            native[i],
            vector[i]
        );
    }
    assert!(
        (native_undecided - per_node_undecided).abs() < tol(n, per_node_undecided.max(1.0), trials),
        "undecided: native {native_undecided} vs per-node {per_node_undecided}"
    );
}

#[test]
fn three_majority_native_matches_per_node_and_vector() {
    // p_top = 0.5: the run-length sampler form.
    crossval(ThreeMajority, Configuration::from_counts(vec![30, 20, 10]), 4_000, 100);
    // Near-uniform: the alias form.
    crossval(ThreeMajority, Configuration::from_counts(vec![22, 18, 20, 21, 19]), 4_000, 10_000);
}

#[test]
fn voter_native_matches_per_node_and_vector() {
    crossval(Voter, Configuration::from_counts(vec![60, 25, 15]), 4_000, 200);
    crossval(Voter, Configuration::from_counts(vec![10, 12, 9, 11, 8, 10]), 4_000, 20_000);
}

#[test]
fn two_choices_native_matches_per_node_and_vector() {
    crossval(TwoChoices, Configuration::from_counts(vec![70, 20, 10]), 4_000, 300);
    crossval(TwoChoices, Configuration::from_counts(vec![15, 14, 16, 15]), 4_000, 30_000);
}

#[test]
fn absorbed_round_is_a_fixed_point_in_every_mode() {
    // Consensus uses the constant sampler form (and the multiset path's
    // single-category window); it must stay absorbed.
    let start = Configuration::consensus(500, 4);
    for mode in [SamplingMode::Native, SamplingMode::PerNode] {
        let mut e = AgentEngine::with_sampling(ThreeMajority, &start, 9, mode);
        for _ in 0..5 {
            e.step();
        }
        assert!(e.is_consensus());
        assert_eq!(e.configuration().support(0), 500);
    }
}

#[test]
fn multiset_dispatch_matches_per_node_at_singleton_start() {
    // k = n singletons: the multiset path's diverse tallying fallback
    // (d > 16 live categories). h-Majority's exact-alpha vector step
    // cannot enumerate k = 96, so 3-Majority carries this regime (the
    // low-occupancy test below covers h-Majority's multiset path).
    crossval(ThreeMajority, Configuration::singletons(96), 3_000, 50_000);
}

#[test]
fn multiset_dispatch_matches_per_node_at_low_occupancy() {
    // Few live colors: the cached-binomial WindowMultinomial walk.
    crossval(ThreeMajority, Configuration::from_counts(vec![70, 20, 10]), 4_000, 70_000);
    crossval(HMajority::new(5), Configuration::from_counts(vec![55, 30, 15]), 2_000, 80_000);
}

#[test]
fn single_peer_dispatch_matches_per_node_for_voter() {
    // Voter's native path draws one categorical per node; both the
    // run-length (concentrated) and alias (diverse) sampler forms.
    crossval(Voter, Configuration::from_counts(vec![80, 15, 5]), 4_000, 90_000);
    crossval(Voter, Configuration::singletons(64), 3_000, 100_000);
}

#[test]
fn undecided_multiset_dispatch_matches_per_node() {
    // The undecided dynamics has no vector step, so compare the agent
    // modes directly. For h = 1 rules Native deliberately short-circuits
    // to the alias path (a one-draw window walk can never pay), so this
    // is a sanity pin that the short-circuit changes nothing in law —
    // the rule's *real* native path is on the cluster wire, pinned by
    // `native_undecided_consumption_matches_per_node_engine` in
    // crates/runtime/tests/cluster_crossval.rs.
    let start = Configuration::from_counts(vec![40, 30, 20]);
    let trials = 4_000u64;
    let two_step_means = |mode: SamplingMode, base: u64| {
        let k = start.num_slots();
        let mut sums = vec![0u64; k];
        let mut undecided = 0u64;
        for t in 0..trials {
            let mut e = AgentEngine::with_sampling(UndecidedDynamics, &start, base + t, mode);
            e.step();
            e.step();
            for (s, &c) in sums.iter_mut().zip(e.config_ref().counts()) {
                *s += c;
            }
            undecided += e.undecided();
        }
        let means: Vec<f64> = sums.iter().map(|&s| s as f64 / trials as f64).collect();
        (means, undecided as f64 / trials as f64)
    };
    let (native, native_u) = two_step_means(SamplingMode::Native, 110_000);
    let (per_node, per_node_u) = two_step_means(SamplingMode::PerNode, 120_000);
    let n = start.n();
    for i in 0..start.num_slots() {
        let t = tol(n, per_node[i], trials);
        assert!(
            (native[i] - per_node[i]).abs() < t,
            "color {i}: native {} vs per-node {} (tol {t})",
            native[i],
            per_node[i]
        );
    }
    assert!(
        (native_u - per_node_u).abs() < tol(n, per_node_u, trials),
        "undecided: native {native_u} vs per-node {per_node_u}"
    );
}

#[test]
fn consensus_time_law_agrees_between_modes() {
    // Beyond one-step means: full consensus-time means over trials must
    // agree between the two sampling modes (Voter, small instance).
    let start = Configuration::uniform(48, 6);
    let mean_time = |mode: SamplingMode, base: u64| {
        let trials = 300u64;
        let total: u64 = (0..trials)
            .map(|t| {
                let mut e = AgentEngine::with_sampling(Voter, &start, base + t, mode);
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
    };
    let native = mean_time(SamplingMode::Native, 40_000);
    let per_node = mean_time(SamplingMode::PerNode, 80_000);
    assert!(
        (native - per_node).abs() < 0.2 * per_node,
        "consensus-time law diverged: native {native} vs per-node {per_node}"
    );
}
