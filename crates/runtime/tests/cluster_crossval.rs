//! E7-style cross-validation of the sharded runtime against the engines:
//! the message-passing cluster must realize the same stochastic process
//! as the single-machine `VectorEngine` (the exact one-step law), so the
//! occupancy-aware wire format cannot silently change the process.
//!
//! Compares mean consensus times over paired independent trials for
//! Voter and 3-Majority, with a Welch-style tolerance on the difference
//! of means. Seeds are fixed, so the check is deterministic.

use symbreak_core::rules::{ThreeMajority, TwoMedian, UndecidedDynamics, Voter};
use symbreak_core::{
    run_to_consensus, AgentEngine, Configuration, RunOptions, UpdateRule, VectorEngine, VectorStep,
};
use symbreak_runtime::{Cluster, ClusterConfig};
use symbreak_sim::run_trials;
use symbreak_stats::Summary;

fn cluster_times<R>(rule: R, start: &Configuration, trials: u64, seed: u64) -> Vec<u64>
where
    R: UpdateRule + Clone + Send + Sync,
{
    let start = start.clone();
    run_trials(trials, seed, move |_t, s| {
        let cluster = Cluster::new(rule.clone(), &start, ClusterConfig::new(3, s));
        cluster.run_to_consensus(10_000_000).expect("consensus").consensus_round
    })
}

fn engine_times<R>(rule: R, start: &Configuration, trials: u64, seed: u64) -> Vec<u64>
where
    R: VectorStep + Clone + Send + Sync,
{
    let start = start.clone();
    run_trials(trials, seed, move |_t, s| {
        let mut e = VectorEngine::new(rule.clone(), start.clone(), s);
        run_to_consensus(&mut e, &RunOptions { max_rounds: u64::MAX, record_trace: false })
            .consensus_round
            .expect("consensus")
    })
}

/// Asserts the two mean consensus times agree within a Welch-style
/// 5-sigma band on the difference of means.
fn assert_means_agree(name: &str, cluster: &[u64], engine: &[u64]) {
    let c = Summary::of_counts(cluster);
    let e = Summary::of_counts(engine);
    let tol = 5.0 * (c.std_err().powi(2) + e.std_err().powi(2)).sqrt() + 0.5;
    assert!(
        (c.mean() - e.mean()).abs() < tol,
        "{name}: cluster mean {} vs engine mean {} (tol {tol})",
        c.mean(),
        e.mean()
    );
}

#[test]
fn cluster_matches_vector_engine_three_majority() {
    let start = Configuration::uniform(256, 8);
    let trials = 48;
    let cluster = cluster_times(ThreeMajority, &start, trials, 7100);
    let engine = engine_times(ThreeMajority, &start, trials, 7200);
    assert_means_agree("3-Majority", &cluster, &engine);
}

#[test]
fn cluster_matches_vector_engine_voter() {
    let start = Configuration::uniform(128, 8);
    let trials = 48;
    let cluster = cluster_times(Voter, &start, trials, 7300);
    let engine = engine_times(Voter, &start, trials, 7400);
    assert_means_agree("Voter", &cluster, &engine);
}

#[test]
fn cluster_matches_vector_engine_from_singleton_start() {
    // The k = n start is the regime the sparse wire format exists for;
    // pin the law there too.
    let start = Configuration::singletons(96);
    let trials = 48;
    let cluster = cluster_times(ThreeMajority, &start, trials, 7500);
    let engine = engine_times(ThreeMajority, &start, trials, 7600);
    assert_means_agree("3-Majority singletons", &cluster, &engine);
}

#[test]
fn native_multiset_consumption_matches_vector_engine() {
    // `ClusterConfig::new` runs 3-Majority on condensed shards: the
    // pooled palettes go through one pooled-block window step in the pull
    // gear (per-ball dealing while diverse) and one closed-form
    // `Mult(local_n, α)` in the push gear — an exact aggregation of
    // Uniform Pull, so the consensus-time law must match the exact
    // one-step law's.
    let start = Configuration::uniform(192, 8);
    let trials = 48;
    let cluster = cluster_times(ThreeMajority, &start, trials, 8100);
    let engine = engine_times(ThreeMajority, &start, trials, 8200);
    assert_means_agree("3-Majority native cluster", &cluster, &engine);
}

#[test]
fn native_single_peer_consumption_matches_vector_engine() {
    // Voter from k = n singletons: h = 1, long trajectories, maximal
    // color diversity. `ClusterConfig::new` runs it on condensed shards,
    // which install the pooled palettes as the next histogram in the
    // pull gear and draw one `Mult(local_n, union)` in the push gear.
    let start = Configuration::singletons(64);
    let trials = 48;
    let cluster = cluster_times(Voter, &start, trials, 8500);
    let engine = engine_times(Voter, &start, trials, 8600);
    assert_means_agree("Voter native cluster", &cluster, &engine);
}

#[test]
fn native_undecided_consumption_matches_per_node_engine() {
    // The undecided dynamics is the h = 1 multiset rule. On the
    // condensed shards `ClusterConfig::new` runs, its pull rounds deal
    // per-group blocks (per-ball dealing while diverse) and its push rounds
    // take binomial splits, including the all-UNDECIDED rounds where
    // the window carries the UNDECIDED pseudo-opinion — pin the whole
    // lifecycle's law against the literal per-node engine (the rule
    // has no vector law).
    let start = Configuration::from_counts(vec![70, 30]);
    let trials = 48;
    let cluster = cluster_times(UndecidedDynamics, &start, trials, 9100);
    let engine = run_trials(trials, 9200, move |_t, s| {
        let mut e = AgentEngine::new(UndecidedDynamics, &start, s);
        run_to_consensus(&mut e, &RunOptions { max_rounds: u64::MAX, record_trace: false })
            .consensus_round
            .expect("consensus")
    });
    assert_means_agree("Undecided native cluster", &cluster, &engine);
}

#[test]
fn native_two_median_cluster_matches_vector_engine() {
    // 2-Median runs on condensed shards under `ClusterConfig::new`
    // (per-group blocks in the pull gear, a CDF cascade in the push
    // gear); pin it against the exact one-step law (its own-state
    // dependence makes it the rule most sensitive to a mis-dealt
    // window).
    let start = Configuration::from_counts(vec![40, 20, 30, 38]);
    let trials = 48;
    let cluster = cluster_times(TwoMedian, &start, trials, 8800);
    let engine = engine_times(TwoMedian, &start, trials, 8900);
    assert_means_agree("2-Median native cluster", &cluster, &engine);
}
