//! E21 — the sample-consumption taxonomy on the wire: condensed
//! multiset and single-peer palette consumption, checked against the
//! exact `VectorEngine` law on the workloads where the diverse-regime
//! data-plane floor lives.
//!
//! Background: with every color alive in every shard (the E20-style
//! diverse regime), no wire *format* beats the `O(n·h)` per-round draw
//! floor. But the floor's constant is not fixed. Under the default
//! `ShardRepr::Histogram` a shard running a rule that consumes only the
//! **multiset** of each node's window (3-Majority here) or a single
//! peer (Voter) is condensed: it holds a local histogram, not an agent
//! vector, and moves received palettes between histograms as mass —
//! grouped hypergeometric blocks or per-ball dealing in the pull gear, one
//! closed-form step in the push gear — and for a single-peer rule the
//! pooled palettes *are* the next histogram. These are the cluster's
//! default consume paths. Agent-backed shards (`ShardRepr::Agents`)
//! run the literal ordered dealing and one `update` per node instead;
//! this experiment does not use them.
//!
//! The verdict requires a Welch 5σ agreement of the end-of-horizon
//! observables between the cluster and the `VectorEngine` oracle (one
//! exact `Mult(n, α(c))` draw per round) over independent trials.
//!
//! `SYMBREAK_SCALE` scales `n` (default 10⁵, floor 4096) and the
//! horizons; the CI smoke runs `SYMBREAK_SCALE=0.04096`.

use symbreak_bench::{scale, scaled_trials, section, verdict};
use symbreak_core::process::VectorStep;
use symbreak_core::rules::{ThreeMajority, Voter};
use symbreak_core::{Configuration, Engine, UpdateRule, VectorEngine};
use symbreak_runtime::{Cluster, ClusterConfig};
use symbreak_stats::table::fmt_f64;
use symbreak_stats::{Summary, Table};

/// Shard count for both workloads.
const SHARDS: usize = 8;

/// Runs `trials` cluster horizons and as many `VectorEngine` horizons
/// from the singleton start and Welch-compares `observe` on the final
/// configurations; returns whether the laws agree.
fn run_against_oracle<R: UpdateRule + VectorStep + Clone + Send>(
    rule: R,
    n: u64,
    horizon: u64,
    trials: u64,
    seed: u64,
    observe: impl Fn(&Configuration) -> u64,
) -> bool {
    let start = Configuration::singletons(n);
    let cluster: Vec<u64> = (0..trials)
        .map(|t| {
            let cfg = ClusterConfig::new(SHARDS, seed + t);
            let out = Cluster::new(rule.clone(), &start, cfg).run_horizon(horizon);
            observe(&out.final_config)
        })
        .collect();
    let oracle: Vec<u64> = (0..trials)
        .map(|t| {
            let mut engine = VectorEngine::new(rule.clone(), start.clone(), seed + 50_000 + t);
            for _ in 0..horizon {
                if engine.is_consensus() {
                    break;
                }
                engine.step();
            }
            observe(engine.config_ref())
        })
        .collect();

    let c = Summary::of_counts(&cluster);
    let v = Summary::of_counts(&oracle);
    let tol = 5.0 * (c.std_err().powi(2) + v.std_err().powi(2)).sqrt() + 0.5;
    let ok = (c.mean() - v.mean()).abs() < tol;

    let mut table = Table::new(vec!["path", "observable mean", "observable sd"]);
    for (label, s) in [("cluster (condensed consume)", &c), ("VectorEngine oracle", &v)] {
        table.row(vec![label.to_string(), fmt_f64(s.mean()), fmt_f64(s.std_dev())]);
    }
    println!("{table}");
    println!(
        "law agreement |Δmean| {} < {} ({})",
        fmt_f64((c.mean() - v.mean()).abs()),
        fmt_f64(tol),
        if ok { "ok" } else { "DIVERGED" }
    );
    ok
}

fn main() {
    let n = ((100_000.0 * scale()).round() as u64).max(4096);
    let trials = scaled_trials(6);
    println!(
        "# E21: condensed wire consumption vs the VectorEngine law (n = k = {n}, {SHARDS} shards)"
    );

    // Voter on its fixed diverse horizon: condensed single-peer
    // consumption installs the pooled palettes as the next histogram,
    // with no sample buffer and no per-node rule calls; the
    // colors-alive count at the horizon (~2n/t decay) pins the law.
    let voter_horizon = ((2_000.0 * scale()).round() as u64).clamp(64, 4_000);
    section(&format!(
        "Voter (single peer), fixed {voter_horizon}-round diverse horizon x {trials} trials"
    ));
    let voter_ok =
        run_against_oracle(Voter, n, voter_horizon, trials, 210_000, |c| c.num_colors() as u64);

    // 3-Majority from singletons: per-ball dealing for the first rounds,
    // then grouped hypergeometric blocks (and the push gear's
    // closed-form step) once occupancy collapses. Max support at the
    // horizon pins the law.
    let tm_horizon = ((300.0 * scale()).round() as u64).clamp(48, 600);
    section(&format!(
        "3-Majority (multiset), fixed {tm_horizon}-round singleton horizon x {trials} trials"
    ));
    let tm_ok =
        run_against_oracle(ThreeMajority, n, tm_horizon, trials, 220_000, |c| c.max_support());

    verdict(
        "E21",
        "condensed multiset/single-peer consumption on the cluster matches the VectorEngine \
         Uniform Pull law",
        voter_ok && tm_ok,
    );
}
