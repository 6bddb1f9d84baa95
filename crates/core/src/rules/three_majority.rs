//! The 3-Majority process ("comply"): sample three nodes; adopt the
//! majority color among the samples, or a random sample's color if all
//! three differ.
//!
//! 3-Majority is an AC-process with process function (Equation (2))
//!
//! ```text
//! α_i(c) = x_i · (1 + x_i − ‖x‖₂²),   x = c/n.
//! ```
//!
//! [`ThreeMajorityAlt`] implements the paper's reformulation — run
//! 2-Choices, and on a mismatch fall back to Voter with a fresh sample —
//! which is distributionally identical (the test-suite checks this, and
//! Experiment E7 validates both against the multinomial law).

use rand::{Rng, RngCore};

use crate::config::Configuration;
use crate::opinion::Opinion;
use crate::process::{
    with_step_scratch, AcProcess, MultisetRule, SampleAccess, UpdateRule, VectorStep,
};
use symbreak_sim::dist::{FenwickPool, GroupSplitter, Hypergeometric};

/// The direct 3-Majority update rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreeMajority;

impl ThreeMajority {
    /// Creates the rule.
    pub fn new() -> Self {
        ThreeMajority
    }
}

impl UpdateRule for ThreeMajority {
    fn name(&self) -> &'static str {
        "3-Majority"
    }

    fn sample_count(&self) -> usize {
        3
    }

    fn update(&self, _own: Opinion, samples: &[Opinion], rng: &mut dyn RngCore) -> Opinion {
        let [a, b, c] = samples else { panic!("3-Majority needs exactly three samples") };
        // If any two agree, adopt that color.
        if a == b || a == c {
            return *a;
        }
        if b == c {
            return *b;
        }
        // All distinct: adopt one uniformly at random (equivalently, a
        // fixed sample — see the paper's footnote 1; we use the random
        // variant).
        samples[rng.gen_range(0..3usize)]
    }

    fn sample_access(&self) -> SampleAccess {
        SampleAccess::Multiset
    }

    fn as_multiset(&self) -> Option<&dyn MultisetRule> {
        Some(self)
    }
}

impl MultisetRule for ThreeMajority {
    fn update_from_counts(
        &self,
        _own: Opinion,
        counts: &[(Opinion, u32)],
        rng: &mut dyn RngCore,
    ) -> Opinion {
        debug_assert_eq!(counts.iter().map(|&(_, c)| c).sum::<u32>(), 3);
        // A window of three holds a repeated opinion iff it has fewer
        // than three distinct entries; otherwise the tie-break adopts a
        // uniform sample, which over three distinct singletons is a
        // uniform entry.
        match counts {
            [(o, _)] => *o,
            [(a, ca), (b, _)] => {
                if *ca >= 2 {
                    *a
                } else {
                    *b
                }
            }
            _ => counts[rng.gen_range(0..3usize)].0,
        }
    }

    /// Closed-form aggregate: 3-Majority ignores `own`, and for a
    /// window of three i.i.d. draws from *any* categorical `θ` the
    /// majority-or-random-tiebreak outcome lands on entry `j` with
    /// probability `θ_j (1 + θ_j − ‖θ‖₂²)` — Equation (2) evaluated on
    /// the sample distribution rather than the configuration (the
    /// derivation never uses that `θ` is the global fraction vector).
    /// So the whole stepping population is one `Mult(m, α(θ))` draw,
    /// taken class by class over the distinct weights (equal `θ_j`,
    /// equal `α_j`), regardless of group counts.
    fn condensed_push_step(
        &self,
        groups: &[(Opinion, u64)],
        values: &[Opinion],
        weights: &[f64],
        rng: &mut dyn RngCore,
        out: &mut Vec<(Opinion, u64)>,
    ) {
        let nodes: u64 = groups.iter().map(|&(_, c)| c).sum();
        if nodes == 0 {
            return;
        }
        with_step_scratch(|s| {
            s.classes.group(0..weights.len() as u32, |j| weights[j as usize].to_bits());
            let (total, sum_sq) = s.classes.iter().fold((0.0, 0.0), |(t, q), (bits, g)| {
                let w = f64::from_bits(bits);
                (t + g as f64 * w, q + g as f64 * w * w)
            });
            let norm_sq = sum_sq / (total * total);
            let alpha = |bits| alpha_of(f64::from_bits(bits) / total, norm_sq);
            let base = out.len();
            out.extend(values.iter().map(|&v| (v, 0)));
            let drawn = &mut out[base..];
            s.classes.sample_multinomial(nodes, alpha, rng, |j, x| drawn[j as usize].1 += x);
            // Drop the undrawn entries. Advancing by the test instead of
            // branching on it avoids a mispredict per entry in diverse
            // rounds, where about half the entries are drawn.
            let mut end = base;
            for i in base..out.len() {
                out[end] = out[i];
                end += usize::from(out[i].1 > 0);
            }
            out.truncate(end);
        });
    }

    /// 3-Majority reads nothing of `own` — the whole condensed pull
    /// round is one pooled-block call.
    fn own_insensitive(&self) -> bool {
        true
    }

    /// Exact aggregate consumption of a pooled without-replacement
    /// block, `O(#values + #cross·log #values)` instead of per-window.
    ///
    /// Dealing the block into `count` windows and updating each is
    /// distributionally the [`ThreeMajorityAlt`] rule on uniformly
    /// *ordered* windows (a dealt window conditioned on its multiset is
    /// a uniform arrangement, and the alt rule agrees with
    /// majority-or-random-tiebreak on every multiset). Under the alt
    /// rule a window's outcome is its pair value when slots 1 and 2
    /// match, else its slot-3 "voter" ball. Slot positions of a uniform
    /// dealing are exchangeable, so:
    ///
    /// * the voter balls `V` are a uniform `count`-subset of the block,
    /// * the slot-1 balls `F` are a uniform `count`-subset of the rest,
    /// * the slot-2 balls `S` are the remainder, and the pairing `F↔S`
    ///   is a uniform bijection, independent of which voter ball sits
    ///   in which window.
    ///
    /// The bijection's per-category match counts are revealed
    /// sequentially: conditioned on the categories processed so far, the
    /// partners of category `j`'s `f_j` balls are a uniform
    /// `f_j`-subset of the remaining `S` pool, so the number of matches
    /// `M_j` is hypergeometric and the `f_j − M_j` cross partners are a
    /// uniform subset of `S` minus category `j` (dealt and discarded —
    /// those windows fall to their voter ball). Matched windows emit
    /// their pair value; the `count − ΣM_j` unmatched windows emit a
    /// uniform subset of `V`.
    fn condensed_window_step(
        &self,
        _own: Opinion,
        count: u64,
        values: &[Opinion],
        block: &mut [u64],
        rng: &mut dyn RngCore,
        out: &mut Vec<(Opinion, u64)>,
    ) {
        debug_assert_eq!(block.iter().sum::<u64>(), count * 3, "block mass must be count·3");
        if count == 0 {
            return;
        }
        with_step_scratch(|s| {
            // Voter balls: a uniform count-subset of the block; the
            // remainder (2·count balls) feeds the pair slots.
            let voters = &mut s.aux_counts;
            voters.clear();
            voters.resize(values.len(), 0);
            GroupSplitter::new(block).draw_block(count, rng, |j, x| voters[j] += x);
            // Slot-1 balls: a uniform count-subset of the remainder.
            let first = &mut s.aux_counts2;
            first.clear();
            first.resize(values.len(), 0);
            GroupSplitter::new(block).draw_block(count, rng, |j, x| first[j] += x);
            // `block` now holds S, the slot-2 partner pool.
            let mut partners = FenwickPool::new(block);
            let mut matched = 0u64;
            for (j, &fj) in first.iter().enumerate() {
                if fj == 0 {
                    continue;
                }
                let sj = partners.count(j);
                let pool = partners.remaining();
                let mj =
                    if sj == pool { fj } else { Hypergeometric::new(pool, sj, fj).sample(rng) };
                if mj > 0 {
                    out.push((values[j], mj));
                    partners.remove(j, mj);
                    matched += mj;
                }
                let cross = fj - mj;
                if cross > 0 {
                    // Cross partners: uniform over S minus category j
                    // (mask it out for the deal), then discarded — their
                    // windows adopt voter balls below.
                    let mask = partners.count(j);
                    partners.remove(j, mask);
                    partners.deal(cross, rng, |_cat, _c| {});
                    partners.add(j, mask);
                }
            }
            // Unmatched windows adopt a uniform subset of the voter
            // balls (the window↔voter assignment is uniform and
            // independent of the pairing).
            let unmatched = count - matched;
            if unmatched > 0 {
                GroupSplitter::new(voters).draw_block(unmatched, rng, |j, x| {
                    out.push((values[j], x));
                });
            }
        });
    }
}

impl AcProcess for ThreeMajority {
    fn alpha(&self, c: &Configuration) -> Vec<f64> {
        alpha_three_majority(c)
    }

    fn alpha_into(&self, c: &Configuration, out: &mut Vec<f64>) {
        let n = c.n() as f64;
        let norm_sq = c.l2_norm_sq();
        out.clear();
        out.extend(c.occupied_counts().map(|cnt| alpha_of(cnt as f64 / n, norm_sq)));
    }
}

impl VectorStep for ThreeMajority {
    /// Allocation-free sparse step: `Mult(n, α)` drawn class by class.
    /// Equation (2)'s `α` depends on a color only through its support
    /// (`‖x‖₂²` is `O(1)` from the configuration cache), so the occupied
    /// slots are grouped by support and each class total is split
    /// uniformly over its colors.
    fn vector_step_into(&self, c: &mut Configuration, rng: &mut dyn RngCore) {
        let (n, norm_sq) = (c.n(), c.l2_norm_sq());
        with_step_scratch(|s| {
            c.rewrite_occupied(|occ, counts| {
                s.classes.group(occ.iter().copied(), |i| counts[i as usize]);
                for &i in occ {
                    counts[i as usize] = 0;
                }
                let alpha = |support| alpha_of(support as f64 / n as f64, norm_sq);
                s.classes.sample_multinomial(n, alpha, rng, |i, x| counts[i as usize] += x);
            });
        });
        debug_assert_eq!(c.n(), n, "AC step must preserve the population");
    }
}

/// Equation (2) for one color: `α_i = x_i (1 + x_i − ‖x‖₂²)`.
fn alpha_of(x: f64, norm_sq: f64) -> f64 {
    x * (1.0 + x - norm_sq)
}

/// Equation (2): `α_i = x_i (1 + x_i − ‖x‖₂²)`.
pub fn alpha_three_majority(c: &Configuration) -> Vec<f64> {
    let norm_sq = c.l2_norm_sq();
    c.fractions().iter().map(|&x| alpha_of(x, norm_sq)).collect()
}

/// The paper's reformulated 3-Majority: 2-Choices with a Voter fallback.
///
/// Sample two nodes; if they agree adopt their color, otherwise sample a
/// *third* node and adopt its color. Distributionally identical to
/// [`ThreeMajority`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreeMajorityAlt;

impl ThreeMajorityAlt {
    /// Creates the rule.
    pub fn new() -> Self {
        ThreeMajorityAlt
    }
}

impl UpdateRule for ThreeMajorityAlt {
    fn name(&self) -> &'static str {
        "3-Majority (2-Choices+Voter)"
    }

    fn sample_count(&self) -> usize {
        3
    }

    fn update(&self, _own: Opinion, samples: &[Opinion], _rng: &mut dyn RngCore) -> Opinion {
        let [a, b, c] = samples else { panic!("3-Majority (alt) needs exactly three samples") };
        if a == b {
            *a
        } else {
            // Mismatch: comply with a fresh Voter sample.
            *c
        }
    }
}

impl AcProcess for ThreeMajorityAlt {
    fn alpha(&self, c: &Configuration) -> Vec<f64> {
        alpha_three_majority(c)
    }

    fn alpha_into(&self, c: &Configuration, out: &mut Vec<f64>) {
        ThreeMajority.alpha_into(c, out);
    }
}

impl VectorStep for ThreeMajorityAlt {
    fn vector_step_into(&self, c: &mut Configuration, rng: &mut dyn RngCore) {
        ThreeMajority.vector_step_into(c, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::assert_probability_vector;
    use rand::SeedableRng;
    use symbreak_sim::rng::Pcg64;

    fn op(i: u32) -> Opinion {
        Opinion::new(i)
    }

    #[test]
    fn alpha_is_probability_vector() {
        for counts in [vec![5, 3, 2], vec![10, 0, 0], vec![1, 1, 1, 1, 1, 1]] {
            let c = Configuration::from_counts(counts);
            assert_probability_vector(&ThreeMajority.alpha(&c));
        }
    }

    #[test]
    fn alpha_matches_hand_computation() {
        // x = (1/2, 1/2): norm² = 1/2, α_i = 1/2·(1 + 1/2 − 1/2) = 1/2.
        let c = Configuration::from_counts(vec![5, 5]);
        let a = ThreeMajority.alpha(&c);
        assert!((a[0] - 0.5).abs() < 1e-12);
        assert!((a[1] - 0.5).abs() < 1e-12);
        // x = (3/4, 1/4): norm² = 10/16, α_0 = 3/4·(1 + 3/4 − 5/8) = 27/32.
        let c = Configuration::from_counts(vec![3, 1]);
        let a = ThreeMajority.alpha(&c);
        assert!((a[0] - 27.0 / 32.0).abs() < 1e-12);
        assert!((a[1] - 5.0 / 32.0).abs() < 1e-12);
    }

    #[test]
    fn majority_of_samples_wins() {
        let mut rng = Pcg64::seed_from_u64(1);
        let r = ThreeMajority;
        assert_eq!(r.update(op(9), &[op(1), op(1), op(2)], &mut rng), op(1));
        assert_eq!(r.update(op(9), &[op(2), op(1), op(2)], &mut rng), op(2));
        assert_eq!(r.update(op(9), &[op(1), op(2), op(2)], &mut rng), op(2));
        assert_eq!(r.update(op(9), &[op(3), op(3), op(3)], &mut rng), op(3));
    }

    #[test]
    fn distinct_samples_random_choice_is_uniform() {
        let mut rng = Pcg64::seed_from_u64(2);
        let r = ThreeMajority;
        let mut counts = [0u32; 3];
        for _ in 0..30_000 {
            let o = r.update(op(9), &[op(0), op(1), op(2)], &mut rng);
            counts[o.index()] += 1;
        }
        for &c in &counts {
            assert!((c as f64 / 30_000.0 - 1.0 / 3.0).abs() < 0.02, "counts {counts:?}");
        }
    }

    #[test]
    fn alt_rule_agrees_on_matching_pair() {
        let mut rng = Pcg64::seed_from_u64(3);
        let r = ThreeMajorityAlt;
        assert_eq!(r.update(op(9), &[op(4), op(4), op(7)], &mut rng), op(4));
        // Mismatch: take the third sample.
        assert_eq!(r.update(op(9), &[op(4), op(5), op(7)], &mut rng), op(7));
    }

    #[test]
    fn own_color_is_ignored() {
        // AC property: the result never depends on `own`.
        let mut rng1 = Pcg64::seed_from_u64(4);
        let mut rng2 = Pcg64::seed_from_u64(4);
        let samples = [op(1), op(2), op(3)];
        let a = ThreeMajority.update(op(0), &samples, &mut rng1);
        let b = ThreeMajority.update(op(7), &samples, &mut rng2);
        assert_eq!(a, b);
    }

    #[test]
    fn vector_step_preserves_mass_and_consensus() {
        let mut rng = Pcg64::seed_from_u64(5);
        let c = Configuration::uniform(500, 5);
        let next = ThreeMajority.vector_step(&c, &mut rng);
        assert_eq!(next.n(), 500);
        let fixed = Configuration::consensus(100, 3);
        assert_eq!(ThreeMajority.vector_step(&fixed, &mut rng), fixed);
    }

    #[test]
    fn alpha_favours_large_colors_relative_to_voter() {
        // Drift: for the plurality color, α_i > x_i; for the minority, <.
        let c = Configuration::from_counts(vec![70, 30]);
        let a = ThreeMajority.alpha(&c);
        let x = c.fractions();
        assert!(a[0] > x[0], "plurality should gain in expectation");
        assert!(a[1] < x[1], "minority should shrink in expectation");
    }

    #[test]
    fn names_and_sample_counts() {
        assert_eq!(ThreeMajority.sample_count(), 3);
        assert_eq!(ThreeMajorityAlt.sample_count(), 3);
        assert!(ThreeMajority.name().contains("3-Majority"));
    }
}
