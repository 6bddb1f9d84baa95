//! One-step-law integration (Equation (2) / footnote 2): agent engines,
//! vector engines, analytic process functions and expectations all agree,
//! and both engines realize an exact consensus-time law.

use rand::SeedableRng;
use symbreak::core::dominance::random_configuration;
use symbreak::core::rules::alpha_three_majority;
use symbreak::prelude::*;
use symbreak::stats::chi_square_gof;
use symbreak::stats::ecdf::ks_threshold;

#[test]
fn agent_and_vector_engines_share_the_one_step_law() {
    let start = Configuration::from_counts(vec![100, 60, 30, 10]);
    let trials = 1_500u64;
    let agent: Vec<u64> = run_trials(trials, 1, {
        let start = start.clone();
        move |_t, s| {
            let mut e = AgentEngine::new(ThreeMajority, &start, s);
            e.step();
            e.configuration().support(0)
        }
    });
    let vector: Vec<u64> = run_trials(trials, 2, {
        let start = start.clone();
        move |_t, s| {
            let mut e = VectorEngine::new(ThreeMajority, start.clone(), s);
            e.step();
            e.configuration().support(0)
        }
    });
    let ks = StochasticOrder::test_counts(&agent, &vector).ks;
    let threshold = ks_threshold(trials as usize, trials as usize, 1.63);
    assert!(ks < threshold, "KS {ks} >= {threshold}");
}

#[test]
fn h3_majority_exact_alpha_equals_formula_on_random_configs() {
    let mut rng = Pcg64::seed_from_u64(5);
    for _ in 0..50 {
        let c = random_configuration(60, 6, &mut rng);
        let enumerated = HMajority::new(3).alpha(&c);
        let formula = alpha_three_majority(&c);
        for (a, b) in enumerated.iter().zip(&formula) {
            assert!((a - b).abs() < 1e-10, "{enumerated:?} vs {formula:?}");
        }
    }
}

#[test]
fn expectation_identity_2c_3m_on_random_configs() {
    let mut rng = Pcg64::seed_from_u64(6);
    for _ in 0..200 {
        let c = random_configuration(200, 10, &mut rng);
        let e2 = TwoChoices.expected_fractions(&c);
        let e3 = ThreeMajority.expected_fractions(&c);
        for (a, b) in e2.iter().zip(&e3) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}

#[test]
fn voter_expectation_is_the_identity_map() {
    let mut rng = Pcg64::seed_from_u64(7);
    for _ in 0..100 {
        let c = random_configuration(150, 8, &mut rng);
        let e = Voter.expected_fractions(&c);
        let x = c.fractions();
        for (a, b) in e.iter().zip(&x) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}

#[test]
fn rational_and_float_alpha_agree_for_h4() {
    use symbreak::core::counterexample::{alpha_h_majority_exact, Rational};
    let c = Configuration::from_counts(vec![4, 3, 2, 1]);
    let float = HMajority::new(4).alpha(&c);
    let x: Vec<Rational> = c.counts().iter().map(|&v| Rational::new(v as i128, 10)).collect();
    let exact = alpha_h_majority_exact(&x, 4);
    for (f, e) in float.iter().zip(&exact) {
        assert!((f - e.to_f64()).abs() < 1e-12);
    }
}

/// Trials per engine arm of the exact consensus-time checks.
const GEOM_TRIALS: u64 = 20_000;

/// Histogram bins of the consensus round `T ≥ 1`; bin `i` counts `T = i + 1`
/// and the last bin lumps the tail.
const GEOM_BINS: usize = 40;

/// Histogram of the consensus round over [`GEOM_TRIALS`] runs of `engine`.
fn consensus_round_histogram<E: Engine>(seed: u64, engine: impl Fn(u64) -> E + Sync) -> Vec<u64> {
    let rounds = run_trials(GEOM_TRIALS, seed, |_t, s| {
        let mut e = engine(s);
        while !e.is_consensus() {
            e.step();
        }
        e.round()
    });
    let mut hist = vec![0u64; GEOM_BINS];
    for t in rounds {
        assert!(t >= 1, "the start is not a consensus");
        hist[(t as usize).min(GEOM_BINS) - 1] += 1;
    }
    hist
}

/// Chi-square (5σ) of a consensus-round histogram against `Geom(p)` on
/// `1, 2, …`.
fn is_geometric(hist: &[u64], p: f64) -> bool {
    let trials = hist.iter().sum::<u64>() as f64;
    let mut expected: Vec<f64> =
        (0..GEOM_BINS - 1).map(|i| p * (1.0 - p).powi(i as i32) * trials).collect();
    expected.push((1.0 - p).powi(GEOM_BINS as i32 - 1) * trials);
    chi_square_gof(hist, &expected, 5.0).within_sigma(5.0)
}

/// The consensus-round histograms of the agent and the vector engine from
/// two singletons.
fn two_singleton_histograms<R>(rule: R, seed: u64) -> [Vec<u64>; 2]
where
    R: UpdateRule + VectorStep + Clone + Sync,
{
    let start = Configuration::singletons(2);
    [
        consensus_round_histogram(seed, |s| AgentEngine::new(rule.clone(), &start, s)),
        consensus_round_histogram(seed + 1, |s| VectorEngine::new(rule.clone(), start.clone(), s)),
    ]
}

#[test]
fn consensus_time_from_two_singletons_is_exactly_geometric() {
    // n = 2, one node per color: a round ends in consensus exactly when
    // both nodes come out on one color. Voter and 3-Majority each adopt
    // a uniform color, so p = 1/2. A 2-Choices node flips only when both
    // its samples show the other color (1/4), so exactly one node flips
    // with p = 2·(1/4)·(3/4) = 3/8, and E[T] = 8/3. Each histogram must
    // also reject the other rule's law, or the check has no power.
    for (name, histograms, p, wrong_p) in [
        ("Voter", two_singleton_histograms(Voter, 11), 0.5, 3.0 / 8.0),
        ("3-Majority", two_singleton_histograms(ThreeMajority, 21), 0.5, 3.0 / 8.0),
        ("2-Choices", two_singleton_histograms(TwoChoices, 31), 3.0 / 8.0, 0.5),
    ] {
        for (engine, hist) in ["agent", "vector"].into_iter().zip(&histograms) {
            assert!(is_geometric(hist, p), "{name} {engine} engine: T is not Geom({p}): {hist:?}");
            assert!(
                !is_geometric(hist, wrong_p),
                "{name} {engine} engine: Geom({wrong_p}) accepted"
            );
        }
    }
}
