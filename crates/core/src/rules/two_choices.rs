//! The 2-Choices process ("ignore"): sample two nodes; adopt their color if
//! they agree, otherwise keep your own.
//!
//! 2-Choices is **not** an AC-process: a node that sees a mismatch keeps
//! its *own* color, so the update depends on the node's state. It shares
//! the 3-Majority expectation `x_i² + (1 − Σ x_j²) x_i` (footnote 2) yet
//! needs `Ω(n / log n)` rounds from low-support configurations (Theorem 5)
//! — the paper's headline separation.

use rand::RngCore;

use crate::config::Configuration;
use crate::opinion::Opinion;
use crate::process::{with_step_scratch, ExpectedUpdate, UpdateRule, VectorStep};
use symbreak_sim::dist::{sample_multinomial_sparse_into, uniform_below, Binomial};

/// The 2-Choices update rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoChoices;

impl TwoChoices {
    /// Creates the rule.
    pub fn new() -> Self {
        TwoChoices
    }
}

impl UpdateRule for TwoChoices {
    fn name(&self) -> &'static str {
        "2-Choices"
    }

    fn sample_count(&self) -> usize {
        2
    }

    fn update(&self, own: Opinion, samples: &[Opinion], _rng: &mut dyn RngCore) -> Opinion {
        let [a, b] = samples else { panic!("2-Choices needs exactly two samples") };
        if a == b {
            *a
        } else {
            own // ignore the samples
        }
    }
}

impl ExpectedUpdate for TwoChoices {
    /// Footnote 2: identical to 3-Majority's expectation.
    fn expected_fractions(&self, c: &Configuration) -> Vec<f64> {
        let norm_sq = c.l2_norm_sq();
        c.fractions().iter().map(|&x| x * x + (1.0 - norm_sq) * x).collect()
    }
}

/// The mover form is drawn when its expected rejection proposals per
/// occupied color, `max·(max/n + S₂)` (see [`draws_movers`]), stay
/// below this; otherwise the per-color binomials are. A proposal costs a
/// few uniform draws, a per-color round about one and a half binomial
/// constructions per color. Median step times on a 2-vCPU Intel Xeon at
/// `n = 2^18`, movers against per color, with the proposals per color in
/// parentheses: uniform `k = 2` (`2^17`) 4.2 ms against 0.5 µs, `k = 64`
/// (128) 70 against 15 µs, `k = 128` (32) 34 against 24 µs, `k = 256`
/// (8) 19 against 39 µs, `k = 4096` (1/32) 16 against 362 µs, and
/// singletons (`2/n`) 0.91 against 17.7 ms.
const MOVER_PROPOSALS_PER_COLOR: f64 = 16.0;

/// Whether a round from `c` draws its movers ([`step_movers`]) rather
/// than one binomial per color ([`step_per_color`]), from cached `O(1)`
/// state only.
///
/// The mover form's targets take `k·max²/Σc²` proposals each and number
/// `Σc²/n` in expectation; its leavers take about `k·max/n` each and
/// number `n·S₂`. Together that is `k·max·(max/n + S₂)`, against `k`
/// per-color draws.
fn draws_movers(c: &Configuration) -> bool {
    let max = c.max_support() as f64;
    max * (max / c.n() as f64 + c.l2_norm_sq()) < MOVER_PROPOSALS_PER_COLOR
}

impl VectorStep for TwoChoices {
    /// Exact one-step sampler.
    ///
    /// Each node independently "matches" (its two samples agree on some
    /// color) with probability `S₂ = Σ x_i²`; conditioned on matching, the
    /// matched color is `i` with probability `x_i² / S₂` *independent of
    /// the node's own color*. So a node of color `j` moves to `i ≠ j` with
    /// probability `x_i²` and stays with probability `1 − S₂ + x_j²`. The
    /// round is drawn in one of two forms of that law:
    ///
    /// * **movers**: `M ∼ Bin(n, S₂)` nodes match; their targets are
    ///   i.i.d. `∝ c_i²` over the pre-step counts, and the `M` nodes that
    ///   leave are a uniform `M`-subset of all nodes. Both are drawn by
    ///   rejection over the occupied list, so a round costs about
    ///   `k·max·(max/n + S₂)` proposals — `O(1)` from singletons, where
    ///   about one node moves per round;
    /// * **per color**: `m_j ∼ Bin(c_j, S₂)` nodes abandon each occupied
    ///   color `j`, and the pooled `Σ m_j` matchers redistribute by the
    ///   sparse multinomial walk over the match distribution: about
    ///   `1.5·k` binomials, cheaper when few colors hold many nodes.
    ///
    /// The form is picked by `draws_movers` from cached `O(1)` state
    /// only, never from a drawn quantity such as `M`: a choice that
    /// depends on the draw would bias the law. Either form then keeps a
    /// fixed seed's trajectory reproducible.
    ///
    /// Every round, `M = 0` included, rewrites the counts through
    /// [`Configuration::rewrite_occupied`], whose `O(#occupied)` cache
    /// refresh is the step's floor. That keeps every vector step on one
    /// mutation path. Editing only the moved slots would make a round
    /// with no movers take under a microsecond, which the engine-race
    /// benchmark's CPU clock (1 µs resolution) cannot time until it times
    /// batches of steps.
    fn vector_step_into(&self, c: &mut Configuration, rng: &mut dyn RngCore) {
        let n = c.n();
        if n == 0 {
            return;
        }
        if draws_movers(c) {
            step_movers(c, rng);
        } else {
            step_per_color(c, rng);
        }
        debug_assert_eq!(c.n(), n, "2-Choices step must preserve the population");
    }
}

/// The mover form of the 2-Choices round (see
/// [`TwoChoices::vector_step_into`]).
fn step_movers(c: &mut Configuration, rng: &mut dyn RngCore) {
    let movers = Binomial::new(c.n(), c.l2_norm_sq().clamp(0.0, 1.0)).sample(rng);
    let max = c.max_support();
    with_step_scratch(|s| {
        let targets = &mut s.targets;
        targets.clear();
        c.rewrite_occupied(|occ, counts| {
            let k = occ.len() as u64;
            // Targets ∝ c_i²: a uniform occupied slot, accepted with
            // probability (c_i / max)², before any count changes.
            while (targets.len() as u64) < movers {
                let i = occ[uniform_below(rng, k) as usize];
                let ci = counts[i as usize];
                if uniform_below(rng, max) < ci && uniform_below(rng, max) < ci {
                    targets.push(i);
                }
            }
            // Leavers without replacement: a slot is accepted with
            // probability (live count / max), then loses one node.
            let mut left = movers;
            while left > 0 {
                let i = occ[uniform_below(rng, k) as usize] as usize;
                if uniform_below(rng, max) < counts[i] {
                    counts[i] -= 1;
                    left -= 1;
                }
            }
            for &i in targets.iter() {
                counts[i as usize] += 1;
            }
        });
    });
}

/// The per-color form of the 2-Choices round (see
/// [`TwoChoices::vector_step_into`]).
fn step_per_color(c: &mut Configuration, rng: &mut dyn RngCore) {
    let nf = c.n() as f64;
    let s2 = c.l2_norm_sq();
    let p_match = s2.clamp(0.0, 1.0);
    with_step_scratch(|s| {
        s.counts.clear();
        s.counts.extend(c.occupied_counts());
        c.rewrite_occupied(|occ, counts| {
            let mut movers_total = 0u64;
            for (j, &i) in occ.iter().enumerate() {
                let cj = s.counts[j];
                let m = Binomial::new(cj, p_match).sample(rng);
                movers_total += m;
                counts[i as usize] = cj - m;
            }
            if movers_total > 0 {
                s.weights.clear();
                s.weights.extend(s.counts.iter().map(|&cj| {
                    let x = cj as f64 / nf;
                    x * x / s2
                }));
                sample_multinomial_sparse_into(movers_total, &s.weights, occ, rng, counts);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::ThreeMajority;
    use rand::SeedableRng;
    use std::collections::BTreeMap;
    use symbreak_sim::rng::Pcg64;
    use symbreak_stats::chi_square_gof;

    fn op(i: u32) -> Opinion {
        Opinion::new(i)
    }

    #[test]
    fn matching_samples_are_adopted() {
        let mut rng = Pcg64::seed_from_u64(1);
        assert_eq!(TwoChoices.update(op(9), &[op(2), op(2)], &mut rng), op(2));
    }

    #[test]
    fn mismatched_samples_are_ignored() {
        let mut rng = Pcg64::seed_from_u64(2);
        assert_eq!(TwoChoices.update(op(9), &[op(2), op(3)], &mut rng), op(9));
    }

    #[test]
    fn expectation_matches_three_majority() {
        // Footnote 2: E[2-Choices] == E[3-Majority] on every configuration.
        use crate::process::ExpectedUpdate as _;
        for counts in [vec![5, 3, 2], vec![1, 1, 1, 1], vec![97, 2, 1], vec![10]] {
            let c = Configuration::from_counts(counts);
            let e2 = TwoChoices.expected_fractions(&c);
            let e3 = ThreeMajority.expected_fractions(&c);
            for (a, b) in e2.iter().zip(&e3) {
                assert!((a - b).abs() < 1e-12, "{e2:?} vs {e3:?}");
            }
        }
    }

    #[test]
    fn expected_fractions_sum_to_one() {
        use crate::process::ExpectedUpdate as _;
        let c = Configuration::from_counts(vec![4, 3, 2, 1]);
        let s: f64 = TwoChoices.expected_fractions(&c).iter().sum();
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vector_step_preserves_mass() {
        let mut rng = Pcg64::seed_from_u64(3);
        let c = Configuration::uniform(1000, 10);
        let next = TwoChoices.vector_step(&c, &mut rng);
        assert_eq!(next.n(), 1000);
    }

    #[test]
    fn consensus_is_absorbing() {
        let mut rng = Pcg64::seed_from_u64(4);
        let c = Configuration::consensus(64, 2);
        assert_eq!(TwoChoices.vector_step(&c, &mut rng), c);
    }

    #[test]
    fn vector_step_mean_matches_expectation() {
        use crate::process::ExpectedUpdate as _;
        let c = Configuration::from_counts(vec![60, 30, 10]);
        let expect = TwoChoices.expected_fractions(&c);
        let mut rng = Pcg64::seed_from_u64(5);
        let trials = 20_000;
        let mut sums = [0u64; 3];
        for _ in 0..trials {
            let next = TwoChoices.vector_step(&c, &mut rng);
            for (s, &v) in sums.iter_mut().zip(next.counts()) {
                *s += v;
            }
        }
        for i in 0..3 {
            let mean = sums[i] as f64 / trials as f64 / 100.0;
            assert!(
                (mean - expect[i]).abs() < 0.01,
                "color {i}: mean fraction {mean} vs expected {}",
                expect[i]
            );
        }
    }

    #[test]
    fn singletons_barely_move() {
        // From the n-color configuration, a node matches only when it
        // samples the same node twice (prob 1/n): most rounds change little.
        let mut rng = Pcg64::seed_from_u64(6);
        let c = Configuration::singletons(256);
        let next = TwoChoices.vector_step(&c, &mut rng);
        // The number of colors can drop only via the rare matches.
        assert!(next.num_colors() >= 250, "got {}", next.num_colors());
    }

    /// The exact next-configuration pmf, node by node: a node of color
    /// `j` moves to `i ≠ j` with probability `x_i²` and stays with
    /// probability `1 − S₂ + x_j²`.
    fn exact_next_law(start: &[u64]) -> BTreeMap<Vec<u64>, f64> {
        let n = start.iter().sum::<u64>() as f64;
        let x: Vec<f64> = start.iter().map(|&c| c as f64 / n).collect();
        let s2: f64 = x.iter().map(|v| v * v).sum();
        let mut law = BTreeMap::from([(vec![0; start.len()], 1.0)]);
        for (j, &cj) in start.iter().enumerate() {
            for _ in 0..cj {
                let mut next = BTreeMap::new();
                for (state, p) in &law {
                    for (i, &xi) in x.iter().enumerate() {
                        let q = if i == j { 1.0 - s2 + xi * xi } else { xi * xi };
                        let mut to = state.clone();
                        to[i] += 1;
                        *next.entry(to).or_insert(0.0) += p * q;
                    }
                }
                law = next;
            }
        }
        law
    }

    /// Chi-square of `trials` rounds of `step` from `start` against the
    /// exact law, over every next configuration.
    fn step_matches_exact_law(
        step: fn(&mut Configuration, &mut dyn RngCore),
        start: &[u64],
        trials: u64,
        seed: u64,
    ) -> bool {
        let law = exact_next_law(start);
        let mut observed: BTreeMap<Vec<u64>, u64> = law.keys().map(|k| (k.clone(), 0)).collect();
        let c = Configuration::from_counts(start.to_vec());
        let mut rng = Pcg64::seed_from_u64(seed);
        for _ in 0..trials {
            let mut next = c.clone();
            step(&mut next, &mut rng);
            *observed.get_mut(next.counts()).expect("a configuration of the exact law") += 1;
        }
        let observed: Vec<u64> = observed.into_values().collect();
        let expected: Vec<f64> = law.values().map(|p| p * trials as f64).collect();
        chi_square_gof(&observed, &expected, 5.0).within_sigma(5.0)
    }

    const LAW_STARTS: [&[u64]; 4] = [&[2, 1, 1], &[3, 2, 1], &[1, 1, 1, 1, 1], &[4, 1]];

    #[test]
    fn mover_step_matches_exact_law() {
        for (s, start) in LAW_STARTS.iter().enumerate() {
            assert!(step_matches_exact_law(step_movers, start, 20_000, 40 + s as u64), "{start:?}");
        }
    }

    #[test]
    fn per_color_step_matches_exact_law() {
        for (s, start) in LAW_STARTS.iter().enumerate() {
            let ok = step_matches_exact_law(step_per_color, start, 20_000, 50 + s as u64);
            assert!(ok, "{start:?}");
        }
    }

    #[test]
    fn branch_follows_expected_rejection_work() {
        let n = 1 << 18;
        assert!(!draws_movers(&Configuration::uniform(n, 2)));
        assert!(!draws_movers(&Configuration::uniform(n, 64)));
        assert!(draws_movers(&Configuration::uniform(n, 4096)));
        assert!(draws_movers(&Configuration::singletons(n)));
    }

    #[test]
    fn name_and_samples() {
        assert_eq!(TwoChoices.name(), "2-Choices");
        assert_eq!(TwoChoices.sample_count(), 2);
    }
}
