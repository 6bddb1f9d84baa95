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
use symbreak_sim::dist::{sample_multinomial_sparse_into, Binomial};

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

impl VectorStep for TwoChoices {
    /// Exact one-step sampler, `O(#occupied)` per round.
    ///
    /// Each node independently "matches" (its two samples agree on some
    /// color) with probability `S₂ = Σ x_i²`; conditioned on matching, the
    /// matched color is `i` with probability `x_i² / S₂` *independent of
    /// the node's own color*. So: per occupied color `j`,
    /// `m_j ∼ Bin(c_j, S₂)` nodes abandon `j`; the pooled `Σ m_j` matchers
    /// redistribute multinomially over the match distribution. `S₂` is
    /// `O(1)` from the configuration cache, and no draw visits an empty
    /// slot.
    fn vector_step_into(&self, c: &mut Configuration, rng: &mut dyn RngCore) {
        let n = c.n();
        if n == 0 {
            return;
        }
        let nf = n as f64;
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
        debug_assert_eq!(c.n(), n, "2-Choices step must preserve the population");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::ThreeMajority;
    use rand::SeedableRng;
    use symbreak_sim::rng::Pcg64;

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

    #[test]
    fn name_and_samples() {
        assert_eq!(TwoChoices.name(), "2-Choices");
        assert_eq!(TwoChoices.sample_count(), 2);
    }
}
