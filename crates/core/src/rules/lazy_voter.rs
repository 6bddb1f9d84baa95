//! The lazy Voter process of \[BGKMT16\]: with probability `1 − p` a node
//! does nothing; with probability `p` it performs a Voter step.
//!
//! The paper's Lemma 3 pointedly does **not** need laziness ("their
//! analysis relies critically on the fact that their process is lazy …
//! while our proof does not require any laziness"); this rule lets the
//! harness measure the cost of laziness directly. Interestingly it is
//! *less* than the naive `1/p` rescaling: in the coalescing dual on the
//! complete graph, a pair of half-lazy walks meets with probability
//! `(p² + 2p(1−p))/n = 3/(4n)` per round versus `1/n` for fully active
//! walks (a stationary target is easier to hit than a moving one), so
//! half-lazy consensus is only ≈ 4/3 slower, not 2× slower.
//!
//! Lazy Voter is *not* an AC-process — an inactive node keeps its own
//! opinion — but like 2-Choices it has an exact `O(#occupied)` one-step
//! decomposition.

use rand::{Rng, RngCore};

use crate::config::Configuration;
use crate::opinion::Opinion;
use crate::process::{with_step_scratch, ExpectedUpdate, UpdateRule, VectorStep};
use symbreak_sim::dist::{sample_multinomial_sparse_into, Binomial};

/// Lazy Voter with per-round activation probability `p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LazyVoter {
    p: f64,
}

impl LazyVoter {
    /// Creates a lazy Voter that acts with probability `p` each round.
    ///
    /// # Panics
    /// Panics unless `p ∈ (0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "activation probability must lie in (0, 1]");
        Self { p }
    }

    /// The canonical half-lazy variant (`p = 1/2`), as in \[BGKMT16\].
    pub fn half() -> Self {
        Self::new(0.5)
    }

    /// Activation probability.
    pub fn activity(&self) -> f64 {
        self.p
    }
}

impl UpdateRule for LazyVoter {
    fn name(&self) -> &'static str {
        "Lazy Voter"
    }

    fn sample_count(&self) -> usize {
        1
    }

    fn update(&self, own: Opinion, samples: &[Opinion], rng: &mut dyn RngCore) -> Opinion {
        if rng.gen::<f64>() < self.p {
            samples[0]
        } else {
            own
        }
    }
}

impl ExpectedUpdate for LazyVoter {
    /// `E[x'] = (1 − p)·x + p·x = x`: like Voter, no drift at all.
    fn expected_fractions(&self, c: &Configuration) -> Vec<f64> {
        c.fractions()
    }
}

impl VectorStep for LazyVoter {
    /// Per occupied color `j`: `Bin(c_j, p)` nodes wake up and
    /// redistribute multinomially over `c/n`; sleepers stay. Allocation
    /// free, and no draw visits an empty slot.
    fn vector_step_into(&self, c: &mut Configuration, rng: &mut dyn RngCore) {
        let n = c.n();
        if n == 0 {
            return;
        }
        let nf = n as f64;
        let p = self.p;
        with_step_scratch(|s| {
            s.counts.clear();
            s.counts.extend(c.occupied_counts());
            c.rewrite_occupied(|occ, counts| {
                let mut awake = 0u64;
                for (j, &i) in occ.iter().enumerate() {
                    let cj = s.counts[j];
                    let w = Binomial::new(cj, p).sample(rng);
                    awake += w;
                    counts[i as usize] = cj - w;
                }
                if awake > 0 {
                    s.weights.clear();
                    s.weights.extend(s.counts.iter().map(|&cj| cj as f64 / nf));
                    sample_multinomial_sparse_into(awake, &s.weights, occ, rng, counts);
                }
            });
        });
        debug_assert_eq!(c.n(), n, "lazy Voter step must preserve the population");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use symbreak_sim::rng::Pcg64;

    fn op(i: u32) -> Opinion {
        Opinion::new(i)
    }

    #[test]
    fn full_activity_equals_voter_semantics() {
        let mut rng = Pcg64::seed_from_u64(1);
        let lazy = LazyVoter::new(1.0);
        for _ in 0..100 {
            assert_eq!(lazy.update(op(9), &[op(3)], &mut rng), op(3));
        }
    }

    #[test]
    fn activation_frequency_matches_p() {
        let mut rng = Pcg64::seed_from_u64(2);
        let lazy = LazyVoter::new(0.3);
        let trials = 50_000;
        let mut acted = 0;
        for _ in 0..trials {
            if lazy.update(op(0), &[op(1)], &mut rng) == op(1) {
                acted += 1;
            }
        }
        let freq = acted as f64 / trials as f64;
        assert!((freq - 0.3).abs() < 0.01, "activation freq {freq}");
    }

    #[test]
    fn vector_step_preserves_mass_and_consensus() {
        let mut rng = Pcg64::seed_from_u64(3);
        let c = Configuration::uniform(500, 5);
        assert_eq!(LazyVoter::half().vector_step(&c, &mut rng).n(), 500);
        let fixed = Configuration::consensus(64, 2);
        assert_eq!(LazyVoter::half().vector_step(&fixed, &mut rng), fixed);
    }

    #[test]
    fn vector_step_mean_is_driftless() {
        let c = Configuration::from_counts(vec![70, 30]);
        let mut rng = Pcg64::seed_from_u64(4);
        let trials = 20_000;
        let mut sum0 = 0u64;
        for _ in 0..trials {
            sum0 += LazyVoter::half().vector_step(&c, &mut rng).support(0);
        }
        let mean = sum0 as f64 / trials as f64;
        assert!((mean - 70.0).abs() < 0.3, "lazy voter must be driftless, mean {mean}");
    }

    #[test]
    fn laziness_slows_consensus_by_four_thirds() {
        // Coalescing-dual argument (module docs): half-lazy pairs meet at
        // rate 3/(4n) vs 1/n, so consensus is ≈ 4/3 slower — NOT 2x.
        use crate::engine::{Engine, VectorEngine};
        let start = Configuration::uniform(64, 8);
        let mean_time = |p: f64, base_seed: u64| {
            let trials = 200;
            let total: u64 = (0..trials)
                .map(|t| {
                    let mut e = VectorEngine::new(LazyVoter::new(p), start.clone(), base_seed + t);
                    let mut rounds = 0;
                    while !e.is_consensus() {
                        e.step();
                        rounds += 1;
                    }
                    rounds
                })
                .sum();
            total as f64 / trials as f64
        };
        let fast = mean_time(1.0, 10_000);
        let slow = mean_time(0.5, 20_000);
        let ratio = slow / fast;
        assert!(
            (1.15..=1.55).contains(&ratio),
            "expected ≈4/3 slowdown at half activity, got {ratio:.2} ({fast:.1} vs {slow:.1})"
        );
    }

    #[test]
    #[should_panic(expected = "activation probability")]
    fn zero_activity_panics() {
        LazyVoter::new(0.0);
    }
}
