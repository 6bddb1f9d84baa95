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
use symbreak_sim::dist::{Binomial, FenwickPool, GroupSplitter};

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

    /// Exact aggregate consumption of one group's pooled
    /// without-replacement block.
    ///
    /// A dealt window of two is an unordered pair; exchangeability of
    /// slot positions makes the slot-1 balls `F` a uniform
    /// `count`-subset of the block, the slot-2 balls `S` the remainder,
    /// and the pairing `F↔S` a uniform bijection. Revealing the
    /// bijection category-by-category keeps the rest uniform, so the
    /// partners of category `j`'s `f_j` balls are a uniform
    /// `f_j`-subset of the remaining `S` pool — and unlike 3-Majority
    /// the partner split *is* the outcome: a window `(values[j],
    /// values[k])` emits `median3(own, values[j], values[k])`, i.e. the
    /// lower endpoint when `own` sits at or below both, the upper when
    /// at or above both, and `own` itself when strictly between.
    fn condensed_window_step(
        &self,
        own: Opinion,
        count: u64,
        values: &[Opinion],
        block: &mut [u64],
        rng: &mut dyn RngCore,
        out: &mut Vec<(Opinion, u64)>,
    ) {
        debug_assert_eq!(block.iter().sum::<u64>(), count * 2, "block mass must be count·2");
        if count == 0 {
            return;
        }
        with_step_scratch(|s| {
            let first = &mut s.aux_counts;
            first.clear();
            first.resize(values.len(), 0);
            GroupSplitter::new(block).draw_block(count, rng, |j, x| first[j] += x);
            // `block` now holds S, the partner pool.
            let mut partners = FenwickPool::new(block);
            let tally = &mut s.aux_counts2;
            tally.clear();
            tally.resize(values.len(), 0);
            let mut stay = 0u64;
            for (j, &fj) in first.iter().enumerate() {
                if fj == 0 {
                    continue;
                }
                partners.deal(fj, rng, |k, c| {
                    let (lo, hi) = if j <= k { (j, k) } else { (k, j) };
                    if own <= values[lo] {
                        tally[lo] += c;
                    } else if own >= values[hi] {
                        tally[hi] += c;
                    } else {
                        stay += c;
                    }
                });
            }
            for (j, &c) in tally.iter().enumerate() {
                if c > 0 {
                    out.push((values[j], c));
                }
            }
            if stay > 0 {
                out.push((own, stay));
            }
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
    use symbreak_sim::rng::Pcg64;

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

    #[test]
    fn name_and_samples() {
        assert_eq!(TwoMedian.name(), "2-Median");
        assert_eq!(TwoMedian.sample_count(), 2);
    }
}
