#![warn(missing_docs)]
//! Shared harness for the experiment binaries (`src/bin/exp_e*.rs`).
//!
//! Every binary regenerates one quantitative claim of the paper (see
//! DESIGN.md §1 for the experiment index) and prints:
//!
//! 1. a Markdown table with the regenerated series,
//! 2. a `VERDICT:` line stating whether the measured shape matches the
//!    paper's claim.
//!
//! Scale knob: set `SYMBREAK_SCALE` (default `1.0`) to multiply trial
//! counts and the largest problem sizes; `0.25` gives a quick smoke run,
//! `4` a publication-quality one.

use symbreak_core::rules::{ThreeMajority, TwoChoices, Voter};
use symbreak_core::{
    hitting_time_colors, run_to_consensus, Configuration, Engine, RunOptions, VectorEngine,
    VectorStep,
};
use symbreak_sim::run_trials;

/// Reads the global scale factor from `SYMBREAK_SCALE` (default 1.0).
pub fn scale() -> f64 {
    std::env::var("SYMBREAK_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .unwrap_or(1.0)
}

/// Scales a trial count by [`scale`], with a floor of 3.
pub fn scaled_trials(base: u64) -> u64 {
    ((base as f64 * scale()).round() as u64).max(3)
}

/// Prints a section header.
pub fn section(title: &str) {
    println!("\n## {title}\n");
}

/// Prints a standardized verdict line and exits non-zero on failure (so
/// `run_all` and CI can aggregate).
pub fn verdict(experiment: &str, claim: &str, pass: bool) {
    let status = if pass { "PASS" } else { "FAIL" };
    println!("\nVERDICT [{experiment}] {status}: {claim}");
    if !pass {
        std::process::exit(1);
    }
}

/// Measures consensus times of a vectorized rule over independent trials
/// (compacting engine; suitable for permutation-invariant observables).
pub fn consensus_times<R>(rule: R, start: &Configuration, trials: u64, seed: u64) -> Vec<u64>
where
    R: VectorStep + Clone + Send + Sync,
{
    let start = start.clone();
    run_trials(trials, seed, move |_t, s| {
        let mut engine = VectorEngine::new(rule.clone(), start.clone(), s).with_compaction();
        let out = run_to_consensus(
            &mut engine,
            &RunOptions { max_rounds: u64::MAX, record_trace: false },
        );
        out.consensus_round.expect("uncapped run reaches consensus")
    })
}

/// Measures the hitting times `T^κ` of a vectorized rule over independent
/// trials.
pub fn hitting_times<R>(
    rule: R,
    start: &Configuration,
    kappa: usize,
    trials: u64,
    seed: u64,
) -> Vec<u64>
where
    R: VectorStep + Clone + Send + Sync,
{
    let start = start.clone();
    run_trials(trials, seed, move |_t, s| {
        let mut engine = VectorEngine::new(rule.clone(), start.clone(), s).with_compaction();
        hitting_time_colors(&mut engine, kappa, u64::MAX).expect("uncapped")
    })
}

/// The three headline rules with display names, for comparison tables.
pub fn headline_rules() -> Vec<(&'static str, HeadlineRule)> {
    vec![
        ("Voter", HeadlineRule::Voter),
        ("2-Choices", HeadlineRule::TwoChoices),
        ("3-Majority", HeadlineRule::ThreeMajority),
    ]
}

/// A closed enum over the headline rules so tables can iterate them
/// uniformly despite their distinct types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadlineRule {
    /// The Voter baseline.
    Voter,
    /// The "ignore" rule.
    TwoChoices,
    /// The "comply" rule.
    ThreeMajority,
}

impl VectorStep for HeadlineRule {
    fn vector_step_into(&self, c: &mut Configuration, rng: &mut dyn rand::RngCore) {
        match self {
            HeadlineRule::Voter => Voter.vector_step_into(c, rng),
            HeadlineRule::TwoChoices => TwoChoices.vector_step_into(c, rng),
            HeadlineRule::ThreeMajority => ThreeMajority.vector_step_into(c, rng),
        }
    }
}

/// Runs a boxed engine until consensus and returns the round.
pub fn drive_to_consensus(engine: &mut dyn Engine, max_rounds: u64) -> Option<u64> {
    let out = run_to_consensus(engine, &RunOptions { max_rounds, record_trace: false });
    out.consensus_round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consensus_times_are_positive_and_reproducible() {
        let start = Configuration::singletons(64);
        let a = consensus_times(HeadlineRule::ThreeMajority, &start, 5, 7);
        let b = consensus_times(HeadlineRule::ThreeMajority, &start, 5, 7);
        assert_eq!(a, b);
        assert!(a.iter().all(|&t| t > 0));
    }

    #[test]
    fn hitting_times_bounded_by_consensus_times() {
        let start = Configuration::singletons(128);
        let h = hitting_times(HeadlineRule::Voter, &start, 8, 4, 11);
        let c = consensus_times(HeadlineRule::Voter, &start, 4, 11);
        for (hk, ck) in h.iter().zip(&c) {
            assert!(hk <= ck, "T^8 must not exceed T^1");
        }
    }

    #[test]
    fn headline_rules_all_step() {
        let c = Configuration::uniform(100, 4);
        let mut rng = symbreak_sim::rng::Pcg64::seed_from_u64(1);
        use rand::SeedableRng as _;
        for (_, rule) in headline_rules() {
            assert_eq!(rule.vector_step(&c, &mut rng).n(), 100);
        }
    }

    #[test]
    fn scale_defaults_to_one() {
        // Can't portably mutate the env in tests; just check the floor.
        assert!(scaled_trials(10) >= 3);
    }
}
