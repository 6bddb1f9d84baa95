//! E10 — Conjecture 1: the h-Majority hierarchy. `(h+1)`-Majority should
//! be stochastically faster than `h`-Majority; the paper proves it for
//! `h ∈ {1, 2, 3}` (Voter = 1-/2-Majority ⪯ 3-Majority via Lemma 2) and
//! conjectures the rest.
//!
//! Measures mean consensus times for `h ∈ {2..6}` from a uniform k-color
//! configuration using the agent-level engine (the exact α enumeration is
//! exponential in h). `h = 1` and `h = 2` are both exactly Voter, which
//! is checked on α rather than raced: two samples of one law would only
//! compare noise. PASS = identical Voter laws, monotone non-increasing
//! means (within noise) and a strict drop from h=2 (Voter) to h=3 (the
//! proven part).

use symbreak_bench::{scaled_trials, section, verdict};
use symbreak_core::rules::{HMajority, Voter};
use symbreak_core::{AcProcess, AgentEngine, Configuration, Engine};
use symbreak_sim::run_trials;
use symbreak_stats::table::fmt_f64;
use symbreak_stats::{Summary, Table};

fn main() {
    println!("# E10: the h-Majority hierarchy (Conjecture 1, empirical)");
    let n: u64 = 2048;
    let k = 32;
    let trials = scaled_trials(20);
    let start = Configuration::uniform(n, k);

    // 1- and 2-Majority are Voter: one law, so one row below. Every
    // symmetric rule has α = x on the uniform start, so a skewed start
    // checks the identity too.
    let skewed = Configuration::from_counts(vec![1024, 512, 256, 128, 128]);
    let same_voter_law = [&start, &skewed].into_iter().all(|c| {
        let voter = Voter.alpha(c);
        [HMajority::new(1).alpha(c), HMajority::new(2).alpha(c)]
            .iter()
            .all(|a| a.iter().zip(&voter).all(|(x, y)| (x - y).abs() < 1e-12))
    });
    println!("α of 1-Majority, 2-Majority and Voter agree within 1e-12: {same_voter_law}");

    section("Mean consensus time vs h (agent engine, n = 2048, k = 32 uniform)");
    let mut table = Table::new(vec!["h", "mean rounds", "sd", "p95"]);
    let mut means = Vec::new();
    for h in 2..=6usize {
        let start = start.clone();
        let times = run_trials(trials, 1700 + h as u64, move |_t, s| {
            let mut engine = AgentEngine::new(HMajority::new(h), &start, s);
            let mut rounds = 0u64;
            while !engine.is_consensus() {
                engine.step();
                rounds += 1;
            }
            rounds
        });
        let s = Summary::of_counts(&times);
        means.push(s.mean());
        table.row(vec![
            h.to_string(),
            fmt_f64(s.mean()),
            fmt_f64(s.std_dev()),
            fmt_f64(s.quantile(0.95)),
        ]);
    }
    println!("{table}");
    println!("(h = 2 is exactly Voter, as is h = 1; the paper proves Voter ⪰st 3-Majority)");

    // Monotone non-increasing within 10% noise slack; strict drop 2 -> 3.
    let mut monotone = true;
    for w in means.windows(2) {
        monotone &= w[1] <= w[0] * 1.10;
    }
    let proven_drop = means[1] < means[0] * 0.8;
    verdict(
        "E10",
        "consensus time is monotone non-increasing in h, with a strict Voter→3-Majority drop",
        same_voter_law && monotone && proven_drop,
    );
}
