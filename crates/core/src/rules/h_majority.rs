//! The generalized h-Majority process (Section 5, Conjecture 1).
//!
//! Sample `h` nodes; adopt the *plurality* color among the samples,
//! breaking ties uniformly at random among the tied colors. For `h = 3`
//! this coincides with 3-Majority, and for `h ∈ {1, 2}` with Voter
//! (with two samples, either they agree — both are the same color — or
//! the tie-break picks a uniform one of the two, which is again a uniform
//! node sample).
//!
//! The exact process function is computed by enumerating all ordered
//! sample outcomes (`k^h` terms) — intended for the small-`k` analyses of
//! Appendix B and the hierarchy experiment, not for large configurations
//! (use the agent-level engine there).

use rand::{Rng, RngCore};

use crate::config::Configuration;
use crate::opinion::Opinion;
use crate::process::{
    ac_vector_step_into, condensed_window_step_by_dealing, AcProcess, MultisetRule, SampleAccess,
    UpdateRule, VectorStep,
};
use crate::rules::three_majority::ThreeMajority;
use symbreak_sim::dist::GroupSplitter;

/// Practical cap on `k^h` enumeration work for the exact process function.
const MAX_ENUMERATION: u128 = 4_000_000;

/// The h-Majority update rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HMajority {
    h: usize,
}

impl HMajority {
    /// Creates an h-Majority rule.
    ///
    /// # Panics
    /// Panics if `h == 0`.
    pub fn new(h: usize) -> Self {
        assert!(h >= 1, "h must be at least 1");
        Self { h }
    }

    /// The number of samples `h`.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Whether the exact `α` enumeration is feasible for `k` support
    /// colors.
    pub fn supports_exact_alpha(&self, k: usize) -> bool {
        (k as u128).checked_pow(self.h as u32).is_some_and(|c| c <= MAX_ENUMERATION)
    }
}

impl UpdateRule for HMajority {
    fn name(&self) -> &'static str {
        "h-Majority"
    }

    fn sample_count(&self) -> usize {
        self.h
    }

    fn update(&self, _own: Opinion, samples: &[Opinion], rng: &mut dyn RngCore) -> Opinion {
        plurality_with_random_ties(samples, rng)
    }

    fn sample_access(&self) -> SampleAccess {
        SampleAccess::Multiset
    }

    fn as_multiset(&self) -> Option<&dyn MultisetRule> {
        Some(self)
    }
}

impl MultisetRule for HMajority {
    /// The plurality rule reads nothing but the histogram, so this is
    /// [`plurality_with_random_ties`] minus the tally pass: find the
    /// best multiplicity, tie-break uniformly among the opinions
    /// holding it.
    fn update_from_counts(
        &self,
        _own: Opinion,
        counts: &[(Opinion, u32)],
        rng: &mut dyn RngCore,
    ) -> Opinion {
        debug_assert_eq!(counts.iter().map(|&(_, c)| c).sum::<u32>() as usize, self.h);
        let best = counts.iter().map(|&(_, c)| c).max().expect("non-empty window");
        let tied = counts.iter().filter(|&&(_, c)| c == best).count();
        if tied == 1 {
            counts.iter().find(|&&(_, c)| c == best).expect("tied opinion").0
        } else {
            let pick = rng.gen_range(0..tied);
            counts.iter().filter(|&&(_, c)| c == best).nth(pick).expect("tied opinion").0
        }
    }

    /// Plurality reads nothing of `own`.
    fn own_insensitive(&self) -> bool {
        true
    }

    /// Aggregate pooled-block consumption per `h`:
    ///
    /// * `h ∈ {1, 2}` — the outcome multiset is a uniform
    ///   `count`-subset of the block. At `h = 1` that is the block
    ///   itself; at `h = 2` a window is either doubled (outcome is that
    ///   value) or split (the tie-break adopts a uniform entry), so
    ///   every window contributes one uniformly-chosen ball — and one
    ///   ball per window of a uniform dealing is a uniform subset.
    /// * `h = 3` — coincides with 3-Majority: on windows with a
    ///   repeat the plurality agrees, and on all-distinct windows the
    ///   three tied opinions each hold one entry, so
    ///   uniform-among-tied ≡ uniform-among-entries.
    /// * `h ≥ 4` — no closed form here; the exact per-window dealing
    ///   fallback.
    fn condensed_window_step(
        &self,
        own: Opinion,
        count: u64,
        values: &[Opinion],
        block: &mut [u64],
        rng: &mut dyn RngCore,
        out: &mut Vec<(Opinion, u64)>,
    ) {
        if count == 0 {
            return;
        }
        match self.h {
            1 => {
                for (j, &c) in block.iter().enumerate() {
                    if c > 0 {
                        out.push((values[j], c));
                    }
                }
            }
            2 => {
                GroupSplitter::new(block).draw_block(count, rng, |j, x| {
                    out.push((values[j], x));
                });
            }
            3 => ThreeMajority.condensed_window_step(own, count, values, block, rng, out),
            _ => condensed_window_step_by_dealing(self, own, count, values, block, rng, out),
        }
    }
}

/// Returns the plurality opinion among `samples`, breaking ties uniformly.
pub fn plurality_with_random_ties(samples: &[Opinion], rng: &mut dyn RngCore) -> Opinion {
    debug_assert!(!samples.is_empty());
    // Tiny h: count in a local scratch list (samples.len() distinct max).
    let mut distinct: Vec<(Opinion, u32)> = Vec::with_capacity(samples.len());
    for &s in samples {
        match distinct.iter_mut().find(|(o, _)| *o == s) {
            Some((_, cnt)) => *cnt += 1,
            None => distinct.push((s, 1)),
        }
    }
    let best = distinct.iter().map(|&(_, c)| c).max().expect("non-empty samples");
    let tied: Vec<Opinion> =
        distinct.iter().filter(|&&(_, c)| c == best).map(|&(o, _)| o).collect();
    if tied.len() == 1 {
        tied[0]
    } else {
        tied[rng.gen_range(0..tied.len())]
    }
}

impl AcProcess for HMajority {
    /// Exact `α^{(hM)}` by enumeration over ordered sample tuples.
    ///
    /// # Panics
    /// Panics when `k^h` exceeds the enumeration cap — check
    /// [`HMajority::supports_exact_alpha`] first.
    fn alpha(&self, c: &Configuration) -> Vec<f64> {
        let x = c.fractions();
        let k = x.len();
        assert!(
            self.supports_exact_alpha(k),
            "k^h = {k}^{} exceeds the exact-enumeration cap",
            self.h
        );
        let mut alpha = vec![0.0; k];
        // Enumerate ordered tuples via mixed-radix counting; skip branches
        // with zero probability by only iterating support colors.
        let support: Vec<usize> = (0..k).filter(|&i| x[i] > 0.0).collect();
        let mut tuple = vec![0usize; self.h]; // indices into `support`
        loop {
            // Probability and per-color counts of this ordered tuple.
            let mut prob = 1.0;
            let mut counts = vec![0u32; k];
            for &t in &tuple {
                let color = support[t];
                prob *= x[color];
                counts[color] += 1;
            }
            let best = counts.iter().copied().max().expect("k >= 1");
            let tied: Vec<usize> = (0..k).filter(|&i| counts[i] == best && best > 0).collect();
            let share = prob / tied.len() as f64;
            for &i in &tied {
                alpha[i] += share;
            }
            // Next tuple in mixed radix base |support|.
            let mut pos = 0;
            loop {
                if pos == self.h {
                    return alpha;
                }
                tuple[pos] += 1;
                if tuple[pos] < support.len() {
                    break;
                }
                tuple[pos] = 0;
                pos += 1;
            }
        }
    }
}

impl VectorStep for HMajority {
    /// Sparse step via the shared AC sampler. The `α` enumeration itself
    /// still allocates one dense vector (its cost is `k^h`, so it is only
    /// run at small `k` anyway); the multinomial draw walks the occupied
    /// slots only.
    fn vector_step_into(&self, c: &mut Configuration, rng: &mut dyn RngCore) {
        ac_vector_step_into(self, c, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::assert_probability_vector;
    use crate::rules::three_majority::alpha_three_majority;
    use crate::rules::Voter;
    use rand::SeedableRng;
    use symbreak_sim::rng::Pcg64;

    fn op(i: u32) -> Opinion {
        Opinion::new(i)
    }

    #[test]
    fn h1_and_h2_alpha_equal_voter() {
        for counts in [vec![4, 3, 2, 1], vec![9, 1], vec![2, 2, 2]] {
            let c = Configuration::from_counts(counts);
            let v = Voter.alpha(&c);
            for h in [1, 2] {
                let a = HMajority::new(h).alpha(&c);
                for (ai, vi) in a.iter().zip(&v) {
                    assert!((ai - vi).abs() < 1e-12, "h={h}: {a:?} vs {v:?}");
                }
            }
        }
    }

    #[test]
    fn h3_alpha_equals_equation_2() {
        for counts in [vec![4, 3, 2, 1], vec![9, 1], vec![5, 5, 5], vec![7, 2, 1]] {
            let c = Configuration::from_counts(counts);
            let enumerated = HMajority::new(3).alpha(&c);
            let formula = alpha_three_majority(&c);
            for (a, b) in enumerated.iter().zip(&formula) {
                assert!((a - b).abs() < 1e-12, "{enumerated:?} vs {formula:?}");
            }
        }
    }

    #[test]
    fn alpha_is_probability_vector_for_various_h() {
        let c = Configuration::from_counts(vec![6, 3, 1]);
        for h in 1..=6 {
            let a = HMajority::new(h).alpha(&c);
            assert_probability_vector(&a);
        }
    }

    #[test]
    fn alpha_handles_empty_slots() {
        let c = Configuration::from_counts(vec![5, 0, 5]);
        let a = HMajority::new(4).alpha(&c);
        assert_eq!(a[1], 0.0);
        assert_probability_vector(&a);
    }

    #[test]
    fn appendix_b_seven_twelfths() {
        // x = (1/2, 1/6, 1/6, 1/6): α₁^{(3M)} = 7/12 (Equation (24)).
        let c = Configuration::from_counts(vec![3, 1, 1, 1]);
        let a = HMajority::new(3).alpha(&c);
        assert!((a[0] - 7.0 / 12.0).abs() < 1e-12, "alpha_1 = {}", a[0]);
    }

    #[test]
    fn appendix_b_four_majority_fixed_point() {
        // x̃ = (1/2, 1/2, 0, 0) is a fixed point of α^{(4M)} by symmetry.
        let c = Configuration::from_counts(vec![2, 2, 0, 0]);
        let a = HMajority::new(4).alpha(&c);
        assert!((a[0] - 0.5).abs() < 1e-12);
        assert!((a[1] - 0.5).abs() < 1e-12);
        assert_eq!(a[2], 0.0);
        assert_eq!(a[3], 0.0);
    }

    #[test]
    fn plurality_update_majority_wins() {
        let mut rng = Pcg64::seed_from_u64(1);
        let r = HMajority::new(5);
        let samples = [op(1), op(2), op(1), op(3), op(1)];
        assert_eq!(r.update(op(9), &samples, &mut rng), op(1));
    }

    #[test]
    fn plurality_tie_break_is_uniform() {
        let mut rng = Pcg64::seed_from_u64(2);
        let r = HMajority::new(4);
        let samples = [op(0), op(0), op(1), op(1)];
        let mut counts = [0u32; 2];
        for _ in 0..20_000 {
            counts[r.update(op(9), &samples, &mut rng).index()] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 20_000.0 - 0.5).abs() < 0.02);
        }
    }

    #[test]
    fn agent_rule_matches_alpha_marginals() {
        // Monte-Carlo check: update() frequencies equal the enumerated α.
        let c = Configuration::from_counts(vec![5, 3, 2]);
        let x = c.fractions();
        let r = HMajority::new(4);
        let a = r.alpha(&c);
        let mut rng = Pcg64::seed_from_u64(3);
        let cat = symbreak_sim::dist::Categorical::new(&x);
        let trials = 60_000;
        let mut counts = [0u64; 3];
        for _ in 0..trials {
            let samples: Vec<Opinion> = (0..4).map(|_| op(cat.sample(&mut rng) as u32)).collect();
            counts[r.update(op(9), &samples, &mut rng).index()] += 1;
        }
        for i in 0..3 {
            let freq = counts[i] as f64 / trials as f64;
            assert!((freq - a[i]).abs() < 0.01, "color {i}: freq {freq} vs alpha {}", a[i]);
        }
    }

    #[test]
    fn vector_step_mass() {
        let mut rng = Pcg64::seed_from_u64(4);
        let c = Configuration::uniform(300, 3);
        assert_eq!(HMajority::new(5).vector_step(&c, &mut rng).n(), 300);
    }

    #[test]
    fn exact_alpha_feasibility_bounds() {
        let r = HMajority::new(3);
        assert!(r.supports_exact_alpha(100));
        assert!(!r.supports_exact_alpha(200)); // 200^3 = 8e6 > cap
        assert!(HMajority::new(7).supports_exact_alpha(8));
    }

    #[test]
    #[should_panic(expected = "h must be at least 1")]
    fn zero_h_panics() {
        HMajority::new(0);
    }
}
