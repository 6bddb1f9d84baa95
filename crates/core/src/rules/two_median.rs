//! The 2-Median process \[DGM+11\]: colors are *ordered* values; each node
//! updates to the median of its own value and two sampled values.
//!
//! Included as the paper's related-work comparator: 2-Median reaches
//! consensus in `O(log k · log log n + log n)` rounds without bias, but it
//! requires a total order on colors and is not self-stabilizing for
//! Byzantine agreement (it can violate validity). It is not an AC-process
//! (the update depends on the node's own value) — but like 2-Choices it
//! has an exact vectorized decomposition: nodes sharing a value are
//! exchangeable, so the nodes at value `v` scatter with a law read off
//! the median CDF. The per-value target distributions genuinely differ,
//! but conditioned on the move *direction* they are truncations of one
//! shared law — so the sparse step realizes all of them through two
//! pooled binomial cascades ([`scatter_two_median`]) in `O(#occupied)`
//! draws per round, down from the `O(#occupied²)` per-group multinomial
//! scatter this module used to pay.

use rand::RngCore;

use crate::config::Configuration;
use crate::opinion::Opinion;
use crate::process::{
    with_step_scratch, ExpectedUpdate, MultisetRule, SampleAccess, StepScratch, UpdateRule,
    VectorStep,
};
use symbreak_sim::dist::Binomial;

/// The 2-Median update rule. Opinion indices are interpreted as points on
/// the integer line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoMedian;

impl TwoMedian {
    /// Creates the rule.
    pub fn new() -> Self {
        TwoMedian
    }
}

impl UpdateRule for TwoMedian {
    fn name(&self) -> &'static str {
        "2-Median"
    }

    fn sample_count(&self) -> usize {
        2
    }

    fn update(&self, own: Opinion, samples: &[Opinion], _rng: &mut dyn RngCore) -> Opinion {
        let [a, b] = samples else { panic!("2-Median needs exactly two samples") };
        median3(own, *a, *b)
    }

    fn sample_access(&self) -> SampleAccess {
        SampleAccess::Multiset
    }

    fn as_multiset(&self) -> Option<&dyn MultisetRule> {
        Some(self)
    }
}

impl MultisetRule for TwoMedian {
    /// The median of `{own, a, b}` is symmetric in the two samples, so
    /// the window multiset determines it: a doubled sample is the
    /// median outright (it brackets `own` from both sides).
    fn update_from_counts(
        &self,
        own: Opinion,
        counts: &[(Opinion, u32)],
        _rng: &mut dyn RngCore,
    ) -> Opinion {
        match counts {
            [(a, _)] => *a,
            [(a, _), (b, _)] => median3(own, *a, *b),
            _ => panic!("2-Median windows hold exactly two samples"),
        }
    }

    /// The `scatter_two_median` cascade over the union CDF: group
    /// positions on the value axis come from one merged scan (both
    /// sides are ascending), and a group whose own value is absent from
    /// `values` still stays put on it when neither sample side wins.
    fn condensed_push_step(
        &self,
        groups: &[(Opinion, u64)],
        values: &[Opinion],
        weights: &[f64],
        rng: &mut dyn RngCore,
        out: &mut Vec<(Opinion, u64)>,
    ) {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 || values.is_empty() {
            out.extend(groups.iter().copied().filter(|&(_, c)| c > 0));
            return;
        }
        let mut positioned: Vec<(usize, bool, u64)> = Vec::with_capacity(groups.len());
        let mut p = 0usize;
        for &(own, count) in groups {
            while p < values.len() && values[p] < own {
                p += 1;
            }
            let at = p < values.len() && values[p] == own;
            positioned.push((p, at, count));
        }
        with_step_scratch(|s| {
            s.aux.clear();
            let mut acc = 0.0;
            for &w in weights {
                acc += w / total;
                s.aux.push(acc);
            }
            let StepScratch { aux: cdf, aux_counts: down, aux_counts2: up, .. } = s;
            scatter_two_median(
                cdf,
                &|g| positioned[g],
                positioned.len(),
                down,
                up,
                rng,
                &mut |landing, c| match landing {
                    Landing::Value(t) => out.push((values[t], c)),
                    Landing::Stay(g) => out.push((groups[g].0, c)),
                },
            );
        });
    }
}

/// Where one trinomial/cascade emission lands: an index on the sample
/// value axis, or a group's own (possibly off-axis) value.
enum Landing {
    Value(usize),
    Stay(usize),
}

/// One synchronous 2-Median round, scattered group-by-group through two
/// pooled binomial cascades — `O(#values + #groups)` binomial draws
/// where the naive per-group scatter pays a `#values`-category
/// multinomial *per group*.
///
/// Every node draws two iid samples from the categorical over the
/// ascending value axis with prefix CDF `cdf` (`cdf[t]` = probability a
/// sample is ≤ `values[t]`). The median of `{own, X, Y}` lands strictly
/// below own iff `max(X, Y)` does (then it *is* that max), strictly
/// above iff `min(X, Y)` does, and on own otherwise. So a group of `c`
/// nodes sharing a value splits by one trinomial into (down, stay, up)
/// — and conditioned on moving down, every ball's landing law is the
/// SAME truncated max-distribution `P(land = t) ∝ cdf[t]² − cdf[t−1]²`,
/// restricted below the group's entry level. That makes all the
/// per-group truncated multinomials realizable as ONE descending
/// binomial cascade: at level `t`, each pooled ball (from any group
/// entering at or above `t`) lands with probability
/// `1 − (cdf[t−1]/cdf[t])²`, independent of its group. The up cascade
/// is the mirror image on the suffix survival `G(t) = 1 − cdf[t−1]`.
///
/// `group(g)` returns `(p, at, count)`: the insertion position of the
/// group's own value on the axis, whether it sits exactly at
/// `values[p]`, and its size — and must be nondecreasing in `(p, at)`
/// (ascending own values guarantee this). `down`/`up` are caller
/// scratch. Emits every landing through `emit`; targets may repeat.
fn scatter_two_median(
    cdf: &[f64],
    group: &dyn Fn(usize) -> (usize, bool, u64),
    n_groups: usize,
    down: &mut Vec<u64>,
    up: &mut Vec<u64>,
    rng: &mut dyn RngCore,
    emit: &mut dyn FnMut(Landing, u64),
) {
    let u = cdf.len();
    down.clear();
    down.resize(n_groups, 0);
    up.clear();
    up.resize(n_groups, 0);

    // Pass 1: per-group (down, stay, up) trinomial. A group at the
    // bottom of the axis cannot move down (`p_low = 0` exactly), one at
    // or beyond the top cannot move up.
    for g in 0..n_groups {
        let (p, at, count) = group(g);
        if count == 0 {
            continue;
        }
        let f_below = if p > 0 { cdf[p - 1] } else { 0.0 };
        let f_at = if at { cdf[p] } else { f_below };
        let p_low = (f_below * f_below).clamp(0.0, 1.0);
        let p_high = if p + usize::from(at) >= u {
            0.0
        } else {
            ((1.0 - f_at) * (1.0 - f_at)).clamp(0.0, 1.0)
        };
        let d = if p_low > 0.0 { Binomial::new(count, p_low).sample(rng) } else { 0 };
        let rest = count - d;
        let h = if p_high > 0.0 && rest > 0 {
            Binomial::new(rest, (p_high / (1.0 - p_low)).clamp(0.0, 1.0)).sample(rng)
        } else {
            0
        };
        down[g] = d;
        up[g] = h;
        if rest - h > 0 {
            emit(Landing::Stay(g), rest - h);
        }
    }

    // Pass 2: down cascade, descending the axis. Group `g`'s
    // down-movers join the pool at their entry level `p − 1`; at level
    // `t` the pooled balls land with the shared conditional probability
    // `1 − (cdf[t−1]/cdf[t])²`. The pool provably drains no later than
    // the first level with `cdf[t] = 0` (the conditional hits 1 just
    // above it), and unconditionally at `t = 0`.
    let mut pool = 0u64;
    let mut g = n_groups;
    for t in (0..u).rev() {
        while g > 0 && group(g - 1).0 > t {
            g -= 1;
            pool += down[g];
        }
        if pool == 0 {
            continue;
        }
        let land = if t == 0 || cdf[t] <= 0.0 {
            pool
        } else {
            let ratio = (cdf[t - 1] / cdf[t]).clamp(0.0, 1.0);
            Binomial::new(pool, (1.0 - ratio * ratio).clamp(0.0, 1.0)).sample(rng)
        };
        if land > 0 {
            emit(Landing::Value(t), land);
            pool -= land;
        }
    }
    debug_assert_eq!(pool, 0, "down cascade must drain at the bottom of the axis");

    // Pass 3: up cascade, ascending — the mirror image on the suffix
    // survival `G(t) = 1 − cdf[t−1]`; entry level is the first axis
    // position strictly above own, `p + at`.
    let mut pool = 0u64;
    let mut g = 0usize;
    for t in 0..u {
        while g < n_groups && {
            let (p, at, _) = group(g);
            p + usize::from(at) <= t
        } {
            pool += up[g];
            g += 1;
        }
        if pool == 0 {
            continue;
        }
        let g_here = 1.0 - if t > 0 { cdf[t - 1] } else { 0.0 };
        let land = if t + 1 == u || g_here <= 0.0 {
            pool
        } else {
            let ratio = ((1.0 - cdf[t]) / g_here).clamp(0.0, 1.0);
            Binomial::new(pool, (1.0 - ratio * ratio).clamp(0.0, 1.0)).sample(rng)
        };
        if land > 0 {
            emit(Landing::Value(t), land);
            pool -= land;
        }
    }
    debug_assert_eq!(pool, 0, "up cascade must drain at the top of the axis");
}

/// Median of three opinions by color index.
fn median3(a: Opinion, b: Opinion, c: Opinion) -> Opinion {
    let mut v = [a, b, c];
    v.sort_unstable();
    v[1]
}

impl ExpectedUpdate for TwoMedian {
    /// Exact expectation via the CDF decomposition: a node with value `v`
    /// moves to a value `≤ t` iff at least two of `{v, X, Y}` are `≤ t`,
    /// with `X, Y` iid from the configuration distribution.
    fn expected_fractions(&self, c: &Configuration) -> Vec<f64> {
        let x = c.fractions();
        let k = x.len();
        // F[t] = Pr[sample <= t].
        let mut cdf = vec![0.0; k];
        let mut acc = 0.0;
        for t in 0..k {
            acc += x[t];
            cdf[t] = acc;
        }
        // For a node with value v: Pr[new <= t] =
        //   v <= t: 1 - (1-F)^2   (need at least one sample <= t)
        //   v >  t: F^2           (need both samples <= t)
        let mut expected = vec![0.0; k];
        #[allow(clippy::needless_range_loop)] // v is a *value* on the line, not just an index
        for v in 0..k {
            if x[v] == 0.0 {
                continue;
            }
            let weight = x[v];
            let mut prev = 0.0;
            for (t, &f) in cdf.iter().enumerate() {
                let p_le = if v <= t { 1.0 - (1.0 - f) * (1.0 - f) } else { f * f };
                expected[t] += weight * (p_le - prev);
                prev = p_le;
            }
        }
        expected
    }
}

impl VectorStep for TwoMedian {
    /// Exact sparse one-step sampler via the `scatter_two_median`
    /// cascades: every occupied value is its own group sitting exactly
    /// on the axis, so the whole round costs `O(#occupied)` binomial
    /// draws — the previous formulation scattered each group by its own
    /// `Mult(c_v, q_v)` over all occupied slots, `O(#occupied²)` per
    /// round.
    fn vector_step_into(&self, c: &mut Configuration, rng: &mut dyn RngCore) {
        let n = c.n();
        if n == 0 {
            return;
        }
        let nf = n as f64;
        with_step_scratch(|s| {
            s.counts.clear();
            s.counts.extend(c.occupied_counts());
            // F over occupied values (ascending slot order = value order).
            s.aux.clear();
            let mut acc = 0.0;
            for &cv in &s.counts {
                acc += cv as f64 / nf;
                s.aux.push(acc);
            }
            let StepScratch { counts: old, aux: cdf, aux_counts: down, aux_counts2: up, .. } = s;
            c.rewrite_occupied(|occ, counts| {
                for &i in occ {
                    counts[i as usize] = 0;
                }
                scatter_two_median(
                    cdf,
                    &|g| (g, true, old[g]),
                    old.len(),
                    down,
                    up,
                    rng,
                    &mut |landing, cnt| {
                        let t = match landing {
                            Landing::Value(t) | Landing::Stay(t) => t,
                        };
                        counts[occ[t] as usize] += cnt;
                    },
                );
            });
        });
        debug_assert_eq!(c.n(), n, "2-Median step must preserve the population");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::assert_probability_vector;
    use rand::SeedableRng;
    use std::collections::BTreeMap;
    use symbreak_sim::rng::Pcg64;
    use symbreak_stats::chi_square_gof;

    fn op(i: u32) -> Opinion {
        Opinion::new(i)
    }

    #[test]
    fn median_of_three() {
        let mut rng = Pcg64::seed_from_u64(1);
        assert_eq!(TwoMedian.update(op(5), &[op(1), op(9)], &mut rng), op(5));
        assert_eq!(TwoMedian.update(op(1), &[op(5), op(9)], &mut rng), op(5));
        assert_eq!(TwoMedian.update(op(9), &[op(1), op(5)], &mut rng), op(5));
        assert_eq!(TwoMedian.update(op(3), &[op(3), op(7)], &mut rng), op(3));
    }

    #[test]
    fn expected_fractions_is_probability_vector() {
        for counts in [vec![5, 3, 2], vec![1, 1, 1, 1, 1], vec![10, 0, 5]] {
            let c = Configuration::from_counts(counts);
            assert_probability_vector(&TwoMedian.expected_fractions(&c));
        }
    }

    #[test]
    fn consensus_is_fixed_point_of_expectation() {
        let c = Configuration::consensus(20, 4);
        let e = TwoMedian.expected_fractions(&c);
        assert!((e[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expectation_matches_monte_carlo() {
        let c = Configuration::from_counts(vec![4, 2, 4]);
        let expect = TwoMedian.expected_fractions(&c);
        let x = c.fractions();
        let cat = symbreak_sim::dist::Categorical::new(&x);
        let mut rng = Pcg64::seed_from_u64(2);
        let trials = 100_000;
        let mut counts = [0u64; 3];
        for _ in 0..trials {
            // Node value drawn from the configuration, plus two samples.
            let own = op(cat.sample(&mut rng) as u32);
            let a = op(cat.sample(&mut rng) as u32);
            let b = op(cat.sample(&mut rng) as u32);
            counts[TwoMedian.update(own, &[a, b], &mut rng).index()] += 1;
        }
        for i in 0..3 {
            let freq = counts[i] as f64 / trials as f64;
            assert!(
                (freq - expect[i]).abs() < 0.01,
                "color {i}: freq {freq} vs expected {}",
                expect[i]
            );
        }
    }

    #[test]
    fn median_pulls_towards_the_middle() {
        // Mass at the extremes: the middle should gain in expectation.
        let c = Configuration::from_counts(vec![45, 10, 45]);
        let e = TwoMedian.expected_fractions(&c);
        assert!(e[1] > 0.1, "middle should grow, got {e:?}");
    }

    /// The exact law of the next multiset when `groups` step against iid
    /// samples from `values` / `weights`, node by node: a node at `own`
    /// lands on `median(own, X, Y)`. A state counts the landed nodes per
    /// opinion of the returned axis (every value and every own value,
    /// ascending).
    fn exact_next_law(
        groups: &[(Opinion, u64)],
        values: &[Opinion],
        weights: &[f64],
    ) -> (Vec<Opinion>, BTreeMap<Vec<u64>, f64>) {
        let total: f64 = weights.iter().sum();
        let mut axis: Vec<Opinion> =
            values.iter().chain(groups.iter().map(|g| &g.0)).copied().collect();
        axis.sort_unstable();
        axis.dedup();
        let mut law = BTreeMap::from([(vec![0; axis.len()], 1.0)]);
        for &(own, count) in groups {
            let mut land = vec![0.0; axis.len()];
            for (&a, &wa) in values.iter().zip(weights) {
                for (&b, &wb) in values.iter().zip(weights) {
                    let t = axis.binary_search(&median3(own, a, b)).expect("a median on the axis");
                    land[t] += wa * wb / (total * total);
                }
            }
            for _ in 0..count {
                let mut next = BTreeMap::new();
                for (state, p) in &law {
                    for (t, &q) in land.iter().enumerate().filter(|&(_, &q)| q > 0.0) {
                        let mut to = state.clone();
                        to[t] += 1;
                        *next.entry(to).or_insert(0.0) += p * q;
                    }
                }
                law = next;
            }
        }
        (axis, law)
    }

    /// Chi-square of `trials` draws of `step` (the next multiset as
    /// `(opinion, count)` entries, which may repeat) against the exact
    /// law of `groups` stepping on `values` / `weights`.
    fn step_matches_exact_law(
        groups: &[(Opinion, u64)],
        values: &[Opinion],
        weights: &[f64],
        trials: u64,
        seed: u64,
        step: &mut dyn FnMut(&mut Pcg64) -> Vec<(Opinion, u64)>,
    ) -> bool {
        let (axis, law) = exact_next_law(groups, values, weights);
        let mut observed: BTreeMap<Vec<u64>, u64> = law.keys().map(|k| (k.clone(), 0)).collect();
        let mut rng = Pcg64::seed_from_u64(seed);
        for _ in 0..trials {
            let mut state = vec![0; axis.len()];
            for (o, c) in step(&mut rng) {
                state[axis.binary_search(&o).expect("an outcome on the axis")] += c;
            }
            *observed.get_mut(&state).expect("a configuration of the exact law") += 1;
        }
        let observed: Vec<u64> = observed.into_values().collect();
        let expected: Vec<f64> = law.values().map(|p| p * trials as f64).collect();
        chi_square_gof(&observed, &expected, 5.0).within_sigma(5.0)
    }

    #[test]
    fn vector_step_matches_exact_law() {
        // The last start leaves slot 1 empty between occupied values.
        let starts: [&[u64]; 4] = [&[2, 1, 1], &[3, 2, 1], &[1, 1, 1, 1, 1], &[4, 0, 1]];
        for (s, start) in starts.iter().enumerate() {
            let c = Configuration::from_counts(start.to_vec());
            let groups: Vec<(Opinion, u64)> =
                c.occupied().iter().map(|&i| op(i)).zip(c.occupied_counts()).collect();
            let values: Vec<Opinion> = groups.iter().map(|g| g.0).collect();
            let weights: Vec<f64> = groups.iter().map(|g| g.1 as f64).collect();
            let ok = step_matches_exact_law(
                &groups,
                &values,
                &weights,
                20_000,
                60 + s as u64,
                &mut |rng| {
                    let mut next = c.clone();
                    TwoMedian.vector_step_into(&mut next, rng);
                    next.occupied().iter().map(|&i| op(i)).zip(next.occupied_counts()).collect()
                },
            );
            assert!(ok, "{start:?}");
        }
    }

    #[test]
    fn condensed_push_step_matches_exact_law() {
        // The second case puts every group's own value off `values`:
        // below the axis, between two values and above it.
        type Case<'a> = (&'a [(Opinion, u64)], &'a [Opinion], &'a [f64]);
        let cases: [Case; 3] = [
            (&[(op(1), 2), (op(3), 1), (op(4), 1)], &[op(1), op(3), op(4)], &[2.0, 1.0, 1.0]),
            (&[(op(0), 1), (op(2), 2), (op(5), 1)], &[op(1), op(3), op(4)], &[0.5, 0.3, 0.2]),
            (&[(op(2), 1), (op(4), 3)], &[op(1), op(4), op(6)], &[1.0, 3.0, 1.0]),
        ];
        for (s, &(groups, values, weights)) in cases.iter().enumerate() {
            let ok = step_matches_exact_law(
                groups,
                values,
                weights,
                20_000,
                70 + s as u64,
                &mut |rng| {
                    let mut out = Vec::new();
                    TwoMedian.condensed_push_step(groups, values, weights, rng, &mut out);
                    out
                },
            );
            assert!(ok, "{groups:?} on {values:?}");
        }
    }

    #[test]
    fn name_and_samples() {
        assert_eq!(TwoMedian.name(), "2-Median");
        assert_eq!(TwoMedian.sample_count(), 2);
    }
}
