//! Exact discrete samplers, implemented from scratch.
//!
//! Everything the engines draw per round bottoms out here:
//!
//! * [`uniform_below`] — a uniform integer below a bound, by Lemire's
//!   multiply-shift rejection; the index draw of the tallies and of
//!   2-Choices' mover step.
//! * [`Binomial`] — inversion (BINV) when `n·min(p,q) < 10`, Hörmann's
//!   BTRS transformed rejection above it; both exact.
//! * [`sample_multinomial_into`] — `Mult(n, θ)` by the `O(k)`
//!   conditional-binomial decomposition, allocation-free.
//!   [`sample_multinomial_sparse_into`] walks an occupied-slot list
//!   instead of the dense vector, which is what keeps singleton-start
//!   vector rounds at `O(#surviving colors)`.
//! * [`Categorical`] — Vose's alias method: `O(k)` build, `O(1)` draw,
//!   and an allocation-free [`Categorical::rebuild`] for tables redrawn
//!   every round.
//! * [`sample_multinomial_tally_into`] — the "ball-drop" multinomial
//!   form: `n` alias draws tallied. Same law as the conditional-binomial
//!   walk, inverted cost profile — this is what keeps the `k = n`
//!   singleton start from paying one binomial construction per occupied
//!   slot.
//! * [`WeightClasses`] — `Mult(n, w)` drawn class by class when many
//!   entries share a weight: class totals by the conditional-binomial
//!   walk, then each total split uniformly over its class. 3-Majority's
//!   `α` depends on a color only through its support, so a many-color
//!   round has few classes.
//! * [`Hypergeometric`] — inversion from the support's lower bound for
//!   the small draw counts of per-node sample windows, switching to a
//!   mode-centered two-sided inversion when the edge pmf underflows
//!   (bulk draws).
//! * [`GroupSplitter`] — the without-replacement dealing of a pooled
//!   sample histogram into blocks, by multivariate-hypergeometric
//!   conditionals: blocks of `h` are per-node windows, and one block of
//!   `count` splits 3-Majority's pooled pull block into its first-slot
//!   balls, which is what makes its condensed pull rounds
//!   `O(#occupied·h)` instead of per-node.
//! * [`WindowMultinomial`] — i.i.d. `Mult(h, θ)` per-node windows with
//!   the conditional binomials cached across nodes, for rules that
//!   consume only the *multiset* of their window.
//! * [`FenwickPool`] — a Fenwick tree over category counts: `O(log d)`
//!   single-category edits, bit-descended draws with or without
//!   replacement, and bulk without-replacement removal by one
//!   [`GroupSplitter`] block. The condensed 3-Majority pull block deals
//!   its partner pool from one ([`FenwickPool::deal`] has no other
//!   caller), and a condensed shard's per-ball dealing takes each ball
//!   of a walked palette by rank ([`FenwickPool::take_at`]).
//!
//! All samplers take any [`rand::RngCore`] (including `&mut dyn RngCore`)
//! and are deterministic given the generator state, which keeps whole
//! trajectories bit-reproducible.
//!
//! # Example
//!
//! One synchronous round of an anonymous process, drawn two ways — the
//! vectorized multinomial (how `VectorEngine` steps) and one alias draw
//! per pull — from the same support counts:
//!
//! ```
//! use rand::SeedableRng;
//! use symbreak_sim::dist::{sample_multinomial_into, Categorical};
//! use symbreak_sim::rng::Pcg64;
//!
//! let mut rng = Pcg64::seed_from_u64(7);
//! let supports = [60.0, 30.0, 10.0];
//!
//! // Vectorized: the whole next configuration in k binomial draws.
//! let mut next = [0u64; 3];
//! sample_multinomial_into(100, &supports, &mut rng, &mut next);
//! assert_eq!(next.iter().sum::<u64>(), 100);
//!
//! // Agent-level: one O(1) categorical draw per pull.
//! let alias = Categorical::new(&supports);
//! let pulls: Vec<usize> = (0..100).map(|_| alias.sample(&mut rng)).collect();
//! assert!(pulls.iter().all(|&c| c < 3));
//! ```

use rand::{Rng, RngCore};

/// `n·min(p, 1−p)` boundary between the inversion and BTRS regimes.
/// `binomial_inversion_regime_matches_exact_pmf` and
/// `binomial_btrs_boundary_matches_exact_pmf` in `tests/gof.rs` probe
/// both sides of this threshold.
const BTRS_THRESHOLD: f64 = 10.0;

#[inline]
fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform draw in `[0, span)` without modulo bias (Lemire rejection):
/// one `next_u64` per draw except on a `span/2^64` sliver, and exactly
/// one for a power-of-two `span` (including `span == 1`).
///
/// # Panics
/// Debug builds panic if `span == 0`.
#[inline]
pub fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    loop {
        let m = (rng.next_u64() as u128).wrapping_mul(span as u128);
        let low = m as u64;
        // `2^64 mod span < span`, so `low ≥ span` always accepts; the
        // division only runs on the ~`span/2^64` sliver of draws.
        if low >= span || low >= span.wrapping_neg() % span {
            return (m >> 64) as u64;
        }
    }
}

/// `ln(k!)`: exact table for small `k`, Stirling's series beyond it.
///
/// The series error at `k ≥ 16` is below 1e-13 relative, far inside the
/// tolerance the BTRS acceptance test needs.
// The table entries are ln(k!) to full f64 precision; ln(2!) genuinely
// equals the LN_2 constant clippy spots, it is not a rounded stand-in.
#[allow(clippy::approx_constant, clippy::excessive_precision)]
fn ln_factorial(k: u64) -> f64 {
    const TABLE: [f64; 17] = [
        0.0,
        0.0,
        0.693_147_180_559_945_3,
        1.791_759_469_228_055,
        3.178_053_830_347_946,
        4.787_491_742_782_046,
        6.579_251_212_010_101,
        8.525_161_361_065_415,
        10.604_602_902_745_251,
        12.801_827_480_081_469,
        15.104_412_573_075_516,
        17.502_307_845_873_887,
        19.987_214_495_661_885,
        22.552_163_853_123_42,
        25.191_221_182_738_68,
        27.899_271_383_840_89,
        30.671_860_106_080_672,
    ];
    if k < TABLE.len() as u64 {
        return TABLE[k as usize];
    }
    let x = k as f64;
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    (x + 0.5) * x.ln() - x
        + 0.918_938_533_204_672_7 // ln(2π)/2
        + inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0))
}

/// Sampling regime chosen at construction time.
#[derive(Debug, Clone, Copy)]
enum BinomialMethod {
    /// `p ∈ {0, 1}` or `n = 0`: the result is constant.
    Degenerate(u64),
    /// BINV sequential inversion (small `n·p'`).
    Inversion {
        /// `q^n`, the pmf at zero.
        r0: f64,
        /// `p/q`.
        s: f64,
        /// `(n+1)·s`.
        a: f64,
    },
    /// Hörmann's BTRS transformed rejection (large `n·p'`).
    Btrs {
        b: f64,
        a: f64,
        c: f64,
        v_r: f64,
        alpha: f64,
        /// `ln(p/q)`.
        lpq: f64,
        /// Mode `⌊(n+1)p⌋`.
        m: u64,
        /// `ln(m!) + ln((n−m)!)`.
        h: f64,
    },
}

/// The binomial distribution `Bin(n, p)`.
///
/// Construction precomputes the regime constants, so repeated `sample`
/// calls on one instance are cheap in both regimes.
///
/// # Example
/// ```
/// use rand::SeedableRng;
/// use symbreak_sim::dist::Binomial;
/// use symbreak_sim::rng::Pcg64;
///
/// let mut rng = Pcg64::seed_from_u64(1);
/// let x = Binomial::new(1_000_000, 0.5).sample(&mut rng);
/// assert!((x as f64 - 500_000.0).abs() < 5_000.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Binomial {
    n: u64,
    /// Effective success probability `p' = min(p, 1−p)`.
    p_eff: f64,
    /// Whether the result must be mirrored (`p > 1/2`).
    flipped: bool,
    method: BinomialMethod,
}

impl Binomial {
    /// Creates a sampler for `Bin(n, p)`.
    ///
    /// # Panics
    /// Panics unless `0 ≤ p ≤ 1` and `p` is finite.
    pub fn new(n: u64, p: f64) -> Self {
        assert!(p.is_finite() && (0.0..=1.0).contains(&p), "binomial p = {p} out of [0, 1]");
        let flipped = p > 0.5;
        let p_eff = if flipped { 1.0 - p } else { p };
        let method = if n == 0 || p_eff == 0.0 {
            BinomialMethod::Degenerate(0)
        } else if n as f64 * p_eff < BTRS_THRESHOLD {
            let q = 1.0 - p_eff;
            let s = p_eff / q;
            BinomialMethod::Inversion {
                // q^n via exp(n ln q): no underflow in this regime since
                // n·p' < 10 implies n·ln(1/q) ≲ 10·(1 + p').
                r0: (n as f64 * q.ln()).exp(),
                s,
                a: (n as f64 + 1.0) * s,
            }
        } else {
            let nf = n as f64;
            let q = 1.0 - p_eff;
            let spq = (nf * p_eff * q).sqrt();
            let b = 1.15 + 2.53 * spq;
            let a = -0.0873 + 0.0248 * b + 0.01 * p_eff;
            let c = nf * p_eff + 0.5;
            let v_r = 0.92 - 4.2 / b;
            let alpha = (2.83 + 5.1 / b) * spq;
            let lpq = (p_eff / q).ln();
            let m = ((nf + 1.0) * p_eff).floor() as u64;
            BinomialMethod::Btrs {
                b,
                a,
                c,
                v_r,
                alpha,
                lpq,
                m,
                h: ln_factorial(m) + ln_factorial(n - m),
            }
        };
        Self { n, p_eff, flipped, method }
    }

    /// Number of trials `n`.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Success probability `p`.
    pub fn p(&self) -> f64 {
        if self.flipped {
            1.0 - self.p_eff
        } else {
            self.p_eff
        }
    }

    /// Draws one value in `0..=n`.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        let x = match self.method {
            BinomialMethod::Degenerate(v) => v,
            BinomialMethod::Inversion { r0, s, a } => self.sample_inversion(rng, r0, s, a),
            BinomialMethod::Btrs { b, a, c, v_r, alpha, lpq, m, h } => {
                self.sample_btrs(rng, b, a, c, v_r, alpha, lpq, m, h)
            }
        };
        if self.flipped {
            self.n - x
        } else {
            x
        }
    }

    /// BINV: walk the cdf from zero using the pmf recurrence
    /// `pmf(x+1) = pmf(x) · (n−x)/(x+1) · p/q`.
    fn sample_inversion<R: RngCore + ?Sized>(&self, rng: &mut R, r0: f64, s: f64, a: f64) -> u64 {
        // With n·p' < 10, P(X > 110) < 1e-50; restarting past the bound
        // keeps the walk finite without measurable distortion.
        let bound = self.n.min(110);
        loop {
            let mut r = r0;
            let mut u = unit_f64(rng);
            let mut x = 0u64;
            loop {
                if u <= r {
                    return x;
                }
                u -= r;
                x += 1;
                if x > bound {
                    break; // numerical tail; redraw
                }
                r *= a / x as f64 - s;
            }
        }
    }

    /// BTRS (Hörmann 1993): transformed rejection with a squeeze that
    /// accepts ~96% of candidates without evaluating the pmf.
    #[allow(clippy::too_many_arguments)]
    fn sample_btrs<R: RngCore + ?Sized>(
        &self,
        rng: &mut R,
        b: f64,
        a: f64,
        c: f64,
        v_r: f64,
        alpha: f64,
        lpq: f64,
        m: u64,
        h: f64,
    ) -> u64 {
        loop {
            let u = unit_f64(rng) - 0.5;
            let mut v = unit_f64(rng);
            let us = 0.5 - u.abs();
            let kf = (2.0 * a / us + b) * u + c;
            if kf < 0.0 || kf > self.n as f64 {
                continue;
            }
            let k = kf as u64;
            if us >= 0.07 && v <= v_r {
                return k; // inside the squeeze: accept without pmf work
            }
            v = (v * alpha / (a / (us * us) + b)).ln();
            let accept =
                h - ln_factorial(k) - ln_factorial(self.n - k) + (k as f64 - m as f64) * lpq;
            if v <= accept {
                return k;
            }
        }
    }
}

/// Allocation-free multinomial draw: fills `out[i] ∼ Mult(n, θ)` by the
/// conditional-binomial decomposition, `X_1 ∼ Bin(n, θ_1/Σθ)`, then
/// recursively on the rest: `O(k)` binomial draws, each `O(1)`
/// amortized. `θ` need not be normalized.
///
/// # Panics
/// Panics if `out.len() != theta.len()`, on a negative, infinite or NaN
/// weight, or if all weights are zero while `n > 0`.
pub fn sample_multinomial_into<R: RngCore + ?Sized>(
    n: u64,
    theta: &[f64],
    rng: &mut R,
    out: &mut [u64],
) {
    assert_eq!(out.len(), theta.len(), "output length must equal category count");
    out.fill(0);
    conditional_binomial_walk(n, theta, rng, |j, x| out[j] += x);
}

/// Sparse multinomial draw over occupied slots only: `theta[j]` is the
/// weight of dense slot `idx[j]`, and the count drawn for it is **added**
/// to `out[idx[j]]`. Slots outside `idx` are untouched, and the
/// conditional-binomial walk visits only the `idx` list, so a draw costs
/// `O(idx.len())` regardless of `out.len()`.
///
/// With ascending `idx` listing exactly the positive entries of a dense
/// weight vector (and `out` zeroed at those slots), the RNG consumption —
/// and hence the drawn configuration — is identical to
/// [`sample_multinomial_into`] over the dense vector: a zero-weight slot
/// there draws from a degenerate binomial, which consumes no randomness.
/// So an occupancy-aware step that skips the empty slots draws exactly
/// the dense law, in `O(#occupied)` per round.
///
/// # Example
/// ```
/// use rand::SeedableRng;
/// use symbreak_sim::dist::sample_multinomial_sparse_into;
/// use symbreak_sim::rng::Pcg64;
///
/// let mut rng = Pcg64::seed_from_u64(5);
/// // 1000 slots, only two occupied: the walk visits just those two.
/// let mut counts = vec![0u64; 1000];
/// sample_multinomial_sparse_into(50, &[3.0, 1.0], &[17, 900], &mut rng, &mut counts);
/// assert_eq!(counts[17] + counts[900], 50);
/// assert_eq!(counts.iter().sum::<u64>(), 50);
/// ```
///
/// # Panics
/// Panics if `theta.len() != idx.len()`, on a negative, infinite or NaN
/// weight, or if all weights are zero while `n > 0`.
pub fn sample_multinomial_sparse_into<R: RngCore + ?Sized>(
    n: u64,
    theta: &[f64],
    idx: &[u32],
    rng: &mut R,
    out: &mut [u64],
) {
    assert_eq!(theta.len(), idx.len(), "one weight per occupied slot");
    conditional_binomial_walk(n, theta, rng, |j, x| out[idx[j] as usize] += x);
}

/// The "ball-drop" multinomial draw: `Mult(n, θ)` realized as `n`
/// i.i.d. categorical draws from the prebuilt alias `table`, each
/// tallied into `out[idx[j]]` (added, like the sparse walk; untouched
/// slots stay untouched).
///
/// A multinomial **is** the histogram of `n` i.i.d. categorical draws,
/// so the law is exactly `Mult(n, weights)` for the weights `table` was
/// built from — but the cost profile is inverted relative to the
/// conditional-binomial walk: `O(1)` per trial with no per-category
/// transcendentals, versus one `Binomial` construction per positive
/// category. The walk wins when `n ≫ #categories` (the concentrated
/// regime); the ball-drop wins when `#categories` is of the order of
/// `n` — the `k = n` singleton start, where a vector round's
/// `Mult(n, α)` would otherwise pay `n` binomial constructions. The two
/// forms consume randomness differently, so switching between them
/// changes the realized trajectory (not the law); dispatchers must pick
/// the form from deterministic round state to stay seed-reproducible.
///
/// # Example
/// ```
/// use rand::SeedableRng;
/// use symbreak_sim::dist::{sample_multinomial_tally_into, Categorical};
/// use symbreak_sim::rng::Pcg64;
///
/// let mut rng = Pcg64::seed_from_u64(19);
/// let table = Categorical::new(&[1.0, 1.0, 2.0]);
/// let mut counts = vec![0u64; 100];
/// sample_multinomial_tally_into(50, &table, &[5, 40, 99], &mut rng, &mut counts);
/// assert_eq!(counts[5] + counts[40] + counts[99], 50);
/// ```
///
/// # Panics
/// Panics if `idx.len() != table.k()`.
pub fn sample_multinomial_tally_into<R: RngCore + ?Sized>(
    n: u64,
    table: &Categorical,
    idx: &[u32],
    rng: &mut R,
    out: &mut [u64],
) {
    assert_eq!(idx.len(), table.k(), "one slot index per alias category");
    for _ in 0..n {
        out[idx[table.sample(rng)] as usize] += 1;
    }
}

/// A class of `g` entries receives `M ≥ SPLIT_WALK_FACTOR · g` of a
/// class-wise multinomial's trials by the equal-`p` binomial walk (one
/// binomial per entry), fewer by a uniform-index tally (one `O(1)` draw
/// per trial). On a 2-vCPU AMD EPYC, at 20,000 entries, a tally draw took
/// about 1.2 ns and a walk step about 47 ns, so the walk wins from about
/// 40 trials per entry; the factor leaves room for larger tallies'
/// cache misses.
const SPLIT_WALK_FACTOR: u64 = 32;

/// A tallied class total is first split over blocks of this many
/// entries by binomials, then tallied block by block, so the random
/// writes of a large class stay within a cache-sized stretch of it.
const TALLY_BLOCK: usize = 4096;

/// Entries grouped into classes of equal weight, for drawing
/// `Mult(n, w)` class by class ([`WeightClasses::sample_multinomial`])
/// when many entries share a weight.
///
/// [`WeightClasses::group`] builds the classes in `O(d)` from one
/// integer key per entry: a counting sort when the keys span a range no
/// wider than the entry count (supports, integer-valued weights), an
/// LSD radix sort by bytes otherwise. Keys are first reduced to the bits
/// in which they differ, so `f64` bit patterns of integer weights sort
/// in one pass too. The buffers are kept across calls, so a value reused
/// round after round allocates nothing once it has reached its largest
/// size; it holds at most 12 bytes per entry (members, the sort buffer
/// and the counting-sort buckets) plus `O(#classes)`.
///
/// # Example
/// ```
/// use rand::SeedableRng;
/// use symbreak_sim::dist::WeightClasses;
/// use symbreak_sim::rng::Pcg64;
///
/// let mut rng = Pcg64::seed_from_u64(23);
/// // Five entries in three weight classes: {0, 2, 4}, {1} and {3}.
/// let weights = [1.0f64, 3.0, 1.0, 0.0, 1.0];
/// let mut classes = WeightClasses::default();
/// classes.group(0..5, |j| weights[j as usize].to_bits());
/// assert_eq!(classes.iter().count(), 3);
/// let mut counts = [0u64; 5];
/// classes.sample_multinomial(60, f64::from_bits, &mut rng, |j, x| counts[j as usize] += x);
/// assert_eq!(counts.iter().sum::<u64>(), 60);
/// assert_eq!(counts[3], 0, "a zero-weight entry is never drawn");
/// ```
#[derive(Debug, Clone, Default)]
pub struct WeightClasses {
    /// Entry ids grouped by class, keys ascending; within a class in
    /// the order [`WeightClasses::group`] received them.
    members: Vec<u32>,
    /// Sort ping-pong buffer and per-digit bucket counts.
    tmp: Vec<u32>,
    buckets: Vec<u32>,
    /// `(key, end of the class's run in members)`, keys ascending.
    classes: Vec<(u64, u32)>,
    /// Per-class mass `g_c · w_c`, then the class totals drawn from it.
    mass: Vec<f64>,
    totals: Vec<u64>,
}

impl WeightClasses {
    /// Groups the entries `ids` by `key(id)`. Equal keys form one class,
    /// and classes are ordered by ascending key.
    ///
    /// # Panics
    /// Panics if there are more than `u32::MAX` entries.
    pub fn group<I, K>(&mut self, ids: I, key: K)
    where
        I: IntoIterator<Item = u32>,
        K: Fn(u32) -> u64,
    {
        self.members.clear();
        self.classes.clear();
        let mut ids = ids.into_iter();
        let Some(first) = ids.next() else { return };
        let k0 = key(first);
        let (mut lo, mut hi, mut differ) = (k0, k0, 0u64);
        self.members.push(first);
        self.members.extend(ids.inspect(|&id| {
            let k = key(id);
            lo = lo.min(k);
            hi = hi.max(k);
            differ |= k ^ k0;
        }));
        let d = self.members.len();
        assert!(d <= u32::MAX as usize, "too many entries to group");
        if differ == 0 {
            self.classes.push((k0, d as u32));
            return;
        }
        // Every key shares its low `shift` bits with `lo`, so
        // `(k − lo) >> shift` keeps the order and loses nothing.
        let shift = differ.trailing_zeros();
        let range = (hi - lo) >> shift;
        if range < d.max(256) as u64 {
            // Counting sort: one pass, and every non-empty bucket is a class.
            self.sort_pass(range as usize + 1, |id| ((key(id) - lo) >> shift) as usize);
            let mut start = 0u32;
            for (b, &end) in self.buckets.iter().enumerate() {
                if end > start {
                    self.classes.push((lo + ((b as u64) << shift), end));
                    start = end;
                }
            }
            return;
        }
        for pass in (0..64 - range.leading_zeros()).step_by(8) {
            self.sort_pass(256, |id| (((key(id) - lo) >> shift >> pass) & 0xFF) as usize);
        }
        let mut current = key(self.members[0]);
        for (at, &id) in self.members.iter().enumerate().skip(1) {
            let k = key(id);
            if k != current {
                self.classes.push((current, at as u32));
                current = k;
            }
        }
        self.classes.push((current, d as u32));
    }

    /// One stable counting-sort pass of `members` by `digit(id) <
    /// buckets`, leaving each bucket's end offset in `buckets`. A digit
    /// every entry shares moves nothing and is skipped.
    fn sort_pass(&mut self, buckets: usize, digit: impl Fn(u32) -> usize) {
        let d = self.members.len();
        self.buckets.clear();
        self.buckets.resize(buckets, 0);
        for &id in &self.members {
            self.buckets[digit(id)] += 1;
        }
        if self.buckets.iter().any(|&b| b as usize == d) {
            return;
        }
        let mut at = 0u32;
        for b in self.buckets.iter_mut() {
            (*b, at) = (at, at + *b);
        }
        self.tmp.resize(d, 0);
        for &id in &self.members {
            let b = &mut self.buckets[digit(id)];
            self.tmp[*b as usize] = id;
            *b += 1;
        }
        std::mem::swap(&mut self.members, &mut self.tmp);
    }

    /// The classes as `(key, number of entries)`, keys ascending.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut start = 0u32;
        self.classes.iter().map(move |&(key, end)| {
            let g = end - start;
            start = end;
            (key, u64::from(g))
        })
    }

    /// Draws `Mult(n, w)` over the grouped entries, where every entry of
    /// the class with key `k` has weight `weight(k)`, and passes each
    /// entry's positive count to `deposit(id, count)` (an entry may be
    /// passed more than once; counts add).
    ///
    /// Two exact stages: the class totals `Mult(n, (g_c · w_c)_c)` by
    /// the conditional-binomial walk over the classes, then each total
    /// `M_c` split uniformly over its `g_c` entries — by a uniform-index
    /// tally when `M_c < SPLIT_WALK_FACTOR · g_c` (in blocks of
    /// `TALLY_BLOCK` entries), by the equal-`p` binomial walk otherwise.
    /// The form depends only on `(M_c, g_c)`, so draws are
    /// seed-reproducible. A many-color round with few distinct weights
    /// costs about one cheap draw per trial, against one binomial
    /// construction per entry for the plain walk.
    ///
    /// # Panics
    /// Panics on invalid weights, or if all weights are zero while
    /// `n > 0`.
    pub fn sample_multinomial<R, W, F>(&mut self, n: u64, weight: W, rng: &mut R, mut deposit: F)
    where
        R: RngCore + ?Sized,
        W: Fn(u64) -> f64,
        F: FnMut(u32, u64),
    {
        let mut mass = std::mem::take(&mut self.mass);
        mass.clear();
        mass.extend(self.iter().map(|(key, g)| g as f64 * weight(key)));
        self.mass = mass;
        self.totals.clear();
        self.totals.resize(self.classes.len(), 0);
        sample_multinomial_into(n, &self.mass, rng, &mut self.totals);
        let mut start = 0usize;
        for (&(_, end), &total) in self.classes.iter().zip(&self.totals) {
            let members = &self.members[start..end as usize];
            start = end as usize;
            split_uniform(total, members, rng, &mut deposit);
        }
    }
}

/// Splits `m` trials uniformly over `members`: `Mult(m, uniform(g))`.
fn split_uniform<R, F>(m: u64, members: &[u32], rng: &mut R, deposit: &mut F)
where
    R: RngCore + ?Sized,
    F: FnMut(u32, u64),
{
    let g = members.len() as u64;
    if m == 0 {
        return;
    }
    let Some((&last, rest)) = members.split_last() else { unreachable!("a class is never empty") };
    if rest.is_empty() {
        deposit(last, m);
    } else if m < SPLIT_WALK_FACTOR * g {
        let (mut remaining, mut left) = (m, g);
        for block in members.chunks(TALLY_BLOCK) {
            let b = block.len() as u64;
            let x = if b == left {
                remaining
            } else {
                Binomial::new(remaining, b as f64 / left as f64).sample(rng)
            };
            for _ in 0..x {
                deposit(block[uniform_below(rng, b) as usize], 1);
            }
            remaining -= x;
            left -= b;
        }
    } else {
        let mut remaining = m;
        for (i, &id) in rest.iter().enumerate() {
            let x = Binomial::new(remaining, 1.0 / (g - i as u64) as f64).sample(rng);
            if x > 0 {
                deposit(id, x);
                remaining -= x;
            }
        }
        if remaining > 0 {
            deposit(last, remaining);
        }
    }
}

/// The conditional-binomial walk behind the dense and the sparse
/// multinomial draws (and so [`WeightClasses`]' class totals):
/// `deposit(j, x)` receives the count for category `j` (only called with
/// `x > 0`). Its one body is what makes the dense and sparse draws
/// consume the RNG identically.
///
/// One pass over `theta` sums the mass, finds the last positive weight
/// and checks that every weight is finite and non-negative, before any
/// draw.
///
/// # Panics
/// Panics on a negative, infinite or NaN weight, or if all weights are
/// zero while `n > 0`.
fn conditional_binomial_walk<R, F>(n: u64, theta: &[f64], rng: &mut R, mut deposit: F)
where
    R: RngCore + ?Sized,
    F: FnMut(usize, u64),
{
    let (mut mass, mut last_pos) = (0.0f64, None);
    for (j, &t) in theta.iter().enumerate() {
        assert!(t.is_finite() && t >= 0.0, "weight[{j}] = {t} invalid");
        mass += t;
        if t > 0.0 {
            last_pos = Some(j);
        }
    }
    let Some(last_pos) = last_pos else {
        assert!(n == 0, "all-zero weights cannot place {n} trials");
        return;
    };
    let mut remaining = n;
    for (j, &t) in theta.iter().enumerate() {
        if remaining == 0 {
            break;
        }
        if j == last_pos {
            // All residual mass belongs here; assigning directly keeps
            // floating-point dust off zero-weight categories.
            deposit(j, remaining);
            remaining = 0;
            break;
        }
        let p = (t / mass).clamp(0.0, 1.0);
        let x = Binomial::new(remaining, p).sample(rng);
        if x > 0 {
            deposit(j, x);
            remaining -= x;
        }
        mass -= t;
    }
    debug_assert_eq!(remaining, 0, "all trials must be placed");
}

/// A categorical distribution over `0..k` by Vose's alias method:
/// `O(k)` construction, `O(1)` per draw.
///
/// Zero-weight categories are never sampled — the paper's processes rely
/// on dead colors staying dead.
///
/// # Example
/// ```
/// use rand::SeedableRng;
/// use symbreak_sim::dist::Categorical;
/// use symbreak_sim::rng::Pcg64;
///
/// let mut rng = Pcg64::seed_from_u64(11);
/// let dist = Categorical::new(&[5.0, 0.0, 1.0]);
/// for _ in 0..1_000 {
///     assert_ne!(dist.sample(&mut rng), 1, "dead categories stay dead");
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Categorical {
    /// Per-column `(acceptance probability, fallback alias)` packed
    /// into one 16-byte entry: the hot draw reads both unconditionally
    /// (branch-free select), so keeping them on the same cache line
    /// halves the random memory traffic per draw on large tables.
    table: Vec<(f64, u32)>,
    /// Lemire rejection threshold `2^64 mod k`, precomputed so the hot
    /// draw never executes an integer division.
    reject_below: u64,
}

impl Categorical {
    /// Builds the alias table from (unnormalized) non-negative weights.
    ///
    /// # Panics
    /// Panics on empty input, negative/non-finite weights, or an all-zero
    /// weight vector.
    pub fn new(weights: &[f64]) -> Self {
        let mut cat = Self { table: Vec::new(), reject_below: 0 };
        cat.rebuild(weights);
        cat
    }

    /// Rebuilds the table in place from new weights, reusing the table
    /// buffers' capacity — for samplers reconstructed every round (e.g.
    /// the ball-drop multinomial path). The two transient worklists of
    /// Vose's construction still allocate; the `O(k)` `prob`/`alias`
    /// tables do not once capacity has been reached.
    ///
    /// # Panics
    /// As [`Categorical::new`].
    pub fn rebuild(&mut self, weights: &[f64]) {
        let k = weights.len();
        assert!(k > 0, "categorical needs at least one category");
        assert!(k <= u32::MAX as usize, "too many categories for the alias table");
        let mut total = 0.0;
        let mut argmax = 0usize;
        for (i, &w) in weights.iter().enumerate() {
            assert!(w.is_finite() && w >= 0.0, "weight[{i}] = {w} invalid");
            if w > weights[argmax] {
                argmax = i;
            }
            total += w;
        }
        assert!(total > 0.0, "categorical weights must not all be zero");

        // Scaled weights: mean 1. Columns < 1 need an alias partner.
        // Zero-weight columns must alias somewhere harmless; the argmax
        // is always a valid positive category.
        let scale = k as f64 / total;
        let table = &mut self.table;
        table.clear();
        table.extend(weights.iter().map(|&w| (w * scale, argmax as u32)));

        let mut small: Vec<u32> = Vec::with_capacity(k);
        let mut large: Vec<u32> = Vec::with_capacity(k);
        for (i, &(p, _)) in table.iter().enumerate() {
            if p < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
            small.pop();
            // Column s keeps its own mass; the rest of the column is
            // donated by l.
            table[s as usize].1 = l;
            let donated = 1.0 - table[s as usize].0;
            table[l as usize].0 -= donated;
            if table[l as usize].0 < 1.0 {
                large.pop();
                // Only genuinely positive categories may become direct
                // hits; floating-point residue on a zero weight must not.
                if weights[l as usize] > 0.0 {
                    small.push(l);
                }
            }
        }
        // Leftovers (all ≈ 1 up to rounding) accept directly.
        for &i in small.iter().chain(large.iter()) {
            table[i as usize].0 = if weights[i as usize] > 0.0 { 1.0 } else { 0.0 };
        }
        self.reject_below = (k as u64).wrapping_neg() % k as u64;
    }

    /// Number of categories.
    pub fn k(&self) -> usize {
        self.table.len()
    }

    /// Draws one category index in `O(1)` — a single 64-bit draw.
    ///
    /// The column is chosen by Lemire multiply-shift with rejection
    /// (exactly uniform); the low 64 bits of the same widening product,
    /// which conditioned on the column are uniform on a grid finer than
    /// f64 resolution, drive the accept/alias threshold. One RNG call
    /// per draw keeps the serial generator dependency off the hot path.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        let k = self.table.len() as u64;
        loop {
            let m = (rng.next_u64() as u128).wrapping_mul(k as u128);
            let low = m as u64;
            if low < self.reject_below {
                continue; // biased zone: probability < k/2^64
            }
            let i = (m >> 64) as usize;
            let frac = (low >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            // The accept/alias decision is data-dependent coin-flip noise
            // (on near-uniform tables the Vose construction cascades
            // donations, leaving accept probabilities spread over (0, 1)),
            // so a branch here mispredicts ~50% and dominates the draw.
            // Select with mask arithmetic instead — guaranteed branch-free.
            let (p, a) = self.table[i];
            let mask = ((frac < p) as usize).wrapping_neg();
            return (i & mask) | (a as usize & !mask);
        }
    }
}

/// The hypergeometric distribution: the number of *marked* balls in a
/// uniform draw of `draws` balls **without replacement** from an urn of
/// `total` balls, `marked` of which are marked.
///
/// Sampled by inversion from the support's lower bound
/// `max(0, draws − (total − marked))` using the pmf ratio recurrence —
/// exact, with the starting pmf evaluated through `ln_factorial` — when
/// the expected walk length `mean − lo` is at most `WALK_MEAN_CAP` (64),
/// which fits the small per-window draw counts of the engine stack
/// (`h ≤ 9`ish). For *bulk* parameters (a long expected walk, or an
/// edge pmf that underflows `f64`) construction switches to
/// the HRUA ratio-of-uniforms rejection sampler (Stadlober 1989;
/// Kachitvichyanukul & Schmeiser 1985) — exact acceptance against the
/// true pmf through `ln_factorial`, **O(1) expected uniforms per draw**
/// regardless of the standard deviation, which is what keeps bulk
/// pool-dealing (`GroupSplitter` blocks, condensed cross-deals)
/// n-independent. Degenerate bulk corners HRUA's table-mountain hat
/// does not cover (`min(draws, total − draws) < 10` or
/// `min(marked, total − marked) < 10` — reachable only through extreme
/// `total`) fall back to a two-sided inversion walking outward from the
/// mode `⌊(draws+1)(marked+1)/(total+2)⌋` with the same exact ratio
/// recurrences, expected `O(σ)` support points per draw. Every start
/// realizes the identical law; small-draw parameters keep the
/// lower-bound start (and its exact randomness consumption) unchanged.
///
/// # Example
/// ```
/// use rand::SeedableRng;
/// use symbreak_sim::dist::Hypergeometric;
/// use symbreak_sim::rng::Pcg64;
///
/// let mut rng = Pcg64::seed_from_u64(17);
/// // 3 draws from an urn of 10 with 4 marked: mean 3·4/10 = 1.2.
/// let d = Hypergeometric::new(10, 4, 3);
/// let mean =
///     (0..4_000).map(|_| d.sample(&mut rng)).sum::<u64>() as f64 / 4_000.0;
/// assert!((mean - 1.2).abs() < 0.1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Hypergeometric {
    total: u64,
    marked: u64,
    draws: u64,
    /// Support lower bound `max(0, draws − (total − marked))`.
    lo: u64,
    /// Support upper bound `min(draws, marked)`.
    hi: u64,
    /// Inversion starting point: `lo` when `pmf(lo)` is representable
    /// (the small-draw walk), otherwise the mode (bulk regime).
    start: u64,
    /// `pmf(start)`.
    p_start: f64,
    /// Precomputed HRUA rejection constants (bulk regime only).
    hrua: Option<Hrua>,
}

/// Constants of the HRUA ratio-of-uniforms hat, precomputed once per
/// parameter triple. The hat is built over the *transformed* problem
/// `(mingoodbad, maxgoodbad, computed_draws)` with
/// `computed_draws = min(draws, total − draws) ≤ total/2` and
/// `mingoodbad = min(marked, total − marked)`, whose symmetry keeps the
/// acceptance rate bounded below uniformly in the parameters; the
/// sample is mapped back through the two reflections afterwards.
#[derive(Debug, Clone, Copy)]
struct Hrua {
    /// `min(marked, total − marked)`.
    mingoodbad: u64,
    /// `max(marked, total − marked)`.
    maxgoodbad: u64,
    /// `min(draws, total − draws)`.
    computed_draws: u64,
    /// Hat center `mean + 1/2`.
    a: f64,
    /// Hat width `D1·sqrt(var + 1/2) + D2` (twice Stadlober's `s_hat`).
    width: f64,
    /// Exclusive upper bound on accepted candidates.
    b: f64,
    /// `ln pmf` numerator terms at the transformed mode (the additive
    /// `ln C(total, draws)` constant cancels in the acceptance test).
    g: f64,
    /// Original `marked` (the second reflection needs it).
    marked: u64,
    /// `marked > total − marked`: undo with `k ← computed_draws − k`.
    marked_flipped: bool,
    /// `draws > total − draws`: undo with `k ← marked − k`.
    draws_flipped: bool,
}

/// HRUA hat-width constants: `2·sqrt(2/e)` and `3 − 2·sqrt(3/e)`.
const HRUA_D1: f64 = 1.715_527_769_921_413_5;
const HRUA_D2: f64 = 0.898_916_162_058_898_8;

/// Largest expected one-sided walk (`mean − lo` support points per
/// draw) the lower-bound inversion is allowed; longer walks take the
/// O(1)-expected HRUA rejection instead. Comfortably above every
/// per-window draw count (`draws ≤ h`), so window dealing keeps the
/// legacy walk and its exact randomness consumption; comfortably below
/// where the walk's linear cost overtakes HRUA's ~2 log-pmf
/// evaluations per draw.
const WALK_MEAN_CAP: f64 = 64.0;

impl Hypergeometric {
    /// Creates a sampler for the urn `(total, marked)` and `draws` draws.
    ///
    /// # Panics
    /// Panics if `marked > total` or `draws > total`.
    pub fn new(total: u64, marked: u64, draws: u64) -> Self {
        assert!(marked <= total, "cannot mark {marked} of {total} balls");
        assert!(draws <= total, "cannot draw {draws} of {total} balls");
        let lo = draws.saturating_sub(total - marked);
        let hi = draws.min(marked);
        // ln pmf(x) = ln C(marked, x) + ln C(total−marked, draws−x)
        //           − ln C(total, draws).
        let ln_c = |n: u64, k: u64| ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k);
        let ln_pmf =
            |x: u64| ln_c(marked, x) + ln_c(total - marked, draws - x) - ln_c(total, draws);
        let mut hrua = None;
        let (mut start, mut p_start) = (lo, 1.0);
        if lo != hi {
            // The one-sided walk from `lo` visits `mean − lo` support
            // points in expectation — only dispatch to it when that is
            // genuinely small (it always is for per-window draws,
            // `draws ≤ h`, which keeps the legacy byte-exact randomness
            // consumption on those paths) *and* its starting pmf is
            // representable.
            let mean = draws as f64 * marked as f64 / total as f64;
            let walkable = mean - lo as f64 <= WALK_MEAN_CAP;
            let p_lo = if walkable { ln_pmf(lo).exp() } else { 0.0 };
            if p_lo > 0.0 {
                p_start = p_lo;
            } else {
                // Bulk regime: reject against the HRUA hat (O(1)
                // expected per draw, n-independent) when its validity
                // floor holds, else start an inversion at the mode —
                // its pmf is at least 1/(support width), far above any
                // underflow — and walk both directions from there.
                hrua = Hrua::new(total, marked, draws);
                if hrua.is_none() {
                    let mode =
                        ((draws + 1) as f64 * (marked + 1) as f64 / (total + 2) as f64) as u64;
                    let mode = mode.clamp(lo, hi);
                    let p_mode = ln_pmf(mode).exp();
                    assert!(
                        p_mode > 0.0,
                        "Hypergeometric({total}, {marked}, {draws}): mode pmf underflowed"
                    );
                    (start, p_start) = (mode, p_mode);
                }
            }
        }
        Self { total, marked, draws, lo, hi, start, p_start, hrua }
    }

    /// Ratio `pmf(x+1)/pmf(x)` (requires `lo ≤ x < hi`).
    fn ratio_up(&self, x: u64) -> f64 {
        let num = (self.marked - x) as f64 * (self.draws - x) as f64;
        // `x ≥ lo` keeps `total − marked + x + 1 ≥ draws`, so this
        // ordering never underflows.
        let den = (x + 1) as f64 * (self.total - self.marked + x + 1 - self.draws) as f64;
        num / den
    }

    /// Ratio `pmf(x−1)/pmf(x)` (requires `lo < x ≤ hi`).
    fn ratio_down(&self, x: u64) -> f64 {
        // `x > lo` keeps `total − marked − draws + x ≥ 1`.
        let num = x as f64 * (self.total - self.marked - self.draws + x) as f64;
        let den = (self.marked - x + 1) as f64 * (self.draws - x + 1) as f64;
        num / den
    }

    /// Draws one value in `lo..=hi`.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lo == self.hi {
            return self.lo;
        }
        if let Some(hrua) = &self.hrua {
            let x = hrua.sample(rng);
            debug_assert!((self.lo..=self.hi).contains(&x));
            return x;
        }
        if self.start == self.lo {
            // Small-draw one-sided inversion from the lower bound, with
            // the ratio recurrence; restarting past the upper bound
            // handles floating-point dust in the cdf exactly like the
            // binomial BINV walk does.
            loop {
                let mut u = unit_f64(rng);
                let mut x = self.lo;
                let mut r = self.p_start;
                loop {
                    if u <= r {
                        return x;
                    }
                    u -= r;
                    if x == self.hi {
                        break; // numerical tail; redraw
                    }
                    r *= self.ratio_up(x);
                    x += 1;
                }
            }
        }
        // Bulk fallback (degenerate corners outside the HRUA validity
        // floor): two-sided inversion accumulating the cdf outward from
        // the mode, alternating sides, so the expected number of visited
        // support points is O(standard deviation) regardless of how wide
        // the support is. One uniform per attempt, like the walk above.
        loop {
            let mut u = unit_f64(rng);
            if u <= self.p_start {
                return self.start;
            }
            u -= self.p_start;
            let (mut up, mut r_up) = (self.start, self.p_start);
            let (mut dn, mut r_dn) = (self.start, self.p_start);
            loop {
                let mut moved = false;
                if up < self.hi {
                    r_up *= self.ratio_up(up);
                    up += 1;
                    if u <= r_up {
                        return up;
                    }
                    u -= r_up;
                    moved = true;
                }
                if dn > self.lo {
                    r_dn *= self.ratio_down(dn);
                    dn -= 1;
                    if u <= r_dn {
                        return dn;
                    }
                    u -= r_dn;
                    moved = true;
                }
                if !moved {
                    break; // numerical tail; redraw
                }
            }
        }
    }
}

impl Hrua {
    /// Builds the hat for `(total, marked, draws)`, or `None` when the
    /// transformed parameters sit below the validity floor of the
    /// table-mountain majorization (the O(σ) mode walk covers those).
    fn new(total: u64, marked: u64, draws: u64) -> Option<Self> {
        let computed_draws = draws.min(total - draws);
        let mingoodbad = marked.min(total - marked);
        let maxgoodbad = marked.max(total - marked);
        if computed_draws < 10 || mingoodbad < 10 {
            return None;
        }
        let p = mingoodbad as f64 / total as f64;
        let q = maxgoodbad as f64 / total as f64;
        let mu = computed_draws as f64 * p;
        let a = mu + 0.5;
        let var =
            (total - computed_draws) as f64 * computed_draws as f64 * p * q / (total - 1) as f64;
        let sigma = (var + 0.5).sqrt();
        let width = HRUA_D1 * sigma + HRUA_D2;
        let m = ((computed_draws + 1) as f64 * (mingoodbad + 1) as f64 / (total + 2) as f64) as u64;
        let g = Self::ln_pmf_terms(m, mingoodbad, maxgoodbad, computed_draws);
        // The transformed support is the contiguous `0..=min(computed,
        // mingoodbad)` (`computed_draws ≤ total/2 ≤ maxgoodbad` pins the
        // lower bound at 0); `b` additionally clips candidates more than
        // 16 standard deviations above the mean, where the hat carries
        // no mass.
        let b = ((computed_draws.min(mingoodbad) + 1) as f64).min((a + 16.0 * sigma).floor());
        Some(Self {
            mingoodbad,
            maxgoodbad,
            computed_draws,
            a,
            width,
            b,
            g,
            marked,
            marked_flipped: marked > total - marked,
            draws_flipped: draws > total - draws,
        })
    }

    /// The `k`-dependent terms of `−ln pmf(k)` on the transformed
    /// problem: `ln k! + ln (mingoodbad−k)! + ln (computed−k)! +
    /// ln (maxgoodbad−computed+k)!`.
    fn ln_pmf_terms(k: u64, mingoodbad: u64, maxgoodbad: u64, computed: u64) -> f64 {
        ln_factorial(k)
            + ln_factorial(mingoodbad - k)
            + ln_factorial(computed - k)
            + ln_factorial(maxgoodbad - computed + k)
    }

    /// One HRUA rejection draw: two uniforms per attempt, a squeeze
    /// accept, a squeeze reject, then the exact log acceptance test —
    /// O(1) expected attempts uniformly over the parameter space.
    fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        loop {
            let u = unit_f64(rng);
            let v = unit_f64(rng);
            if u <= 0.0 {
                continue; // guards the hat division and ln(u)
            }
            let x = self.a + self.width * (v - 0.5) / u;
            if x < 0.0 || x >= self.b {
                continue; // outside the support / clipped tail
            }
            let k = x as u64;
            let t = self.g
                - Self::ln_pmf_terms(k, self.mingoodbad, self.maxgoodbad, self.computed_draws);
            // Squeeze accept, squeeze reject, exact test (in that order).
            if u * (4.0 - u) - 3.0 <= t {
                return self.untransform(k);
            }
            if u * (u - t) >= 1.0 {
                continue;
            }
            if 2.0 * u.ln() <= t {
                return self.untransform(k);
            }
        }
    }

    /// Maps an accepted transformed sample back through the two
    /// reflections to the original `(total, marked, draws)` problem.
    fn untransform(&self, k: u64) -> u64 {
        let mut k = k;
        if self.marked_flipped {
            k = self.computed_draws - k;
        }
        if self.draws_flipped {
            k = self.marked - k;
        }
        k
    }
}

/// Deals a pooled sample histogram into blocks **without replacement**:
/// the one realization of the multivariate-hypergeometric block law.
///
/// If the pool is the histogram of `W` i.i.d. draws, a uniform dealing
/// into blocks leaves the blocks jointly distributed as consecutive
/// stretches of the i.i.d. sequence (an i.i.d. sequence conditioned on
/// its multiset is a uniform arrangement). Each block's counts follow a
/// multivariate hypergeometric on the *remaining* pool, factorized into
/// per-category [`Hypergeometric`] conditionals with early exit once
/// the block is full. A block of `h` is one node's window (the
/// reference condensed pull step deals one per node); a block of `g·h`
/// is a whole opinion group's draws at once, which a multiset-consuming
/// rule cannot tell from `g` windows summed, and which makes condensed
/// pull rounds `O(#groups · #categories)` instead of `O(nodes · h)`.
/// Order the pool by decreasing count so the early exit bites.
///
/// Zero-count categories are skipped and a `draws = 0` block returns
/// immediately; neither consumes randomness.
///
/// # Example
/// ```
/// use rand::SeedableRng;
/// use symbreak_sim::dist::GroupSplitter;
/// use symbreak_sim::rng::Pcg64;
///
/// let mut rng = Pcg64::seed_from_u64(29);
/// let mut pool = [6u64, 4, 2]; // 12 pooled draws: blocks of 8 and 4
/// let mut splitter = GroupSplitter::new(&mut pool);
/// let mut block = 0u64;
/// splitter.draw_block(8, &mut rng, |_cat, x| block += x);
/// assert_eq!((block, splitter.remaining()), (8, 4));
/// splitter.draw_block(4, &mut rng, |_cat, x| block += x);
/// assert_eq!((block, splitter.remaining()), (12, 0));
/// ```
#[derive(Debug)]
pub struct GroupSplitter<'a> {
    pool: &'a mut [u64],
    remaining: u64,
}

impl<'a> GroupSplitter<'a> {
    /// Wraps a pool histogram (counts per category) for dealing. The
    /// pool is consumed in place as blocks are drawn.
    pub fn new(pool: &'a mut [u64]) -> Self {
        let remaining = pool.iter().sum();
        Self { pool, remaining }
    }

    /// Balls left in the pool.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Deals one block of `draws` balls from the pool, calling
    /// `deposit(category, count)` for each category with a positive
    /// count in the block (ascending category order).
    ///
    /// # Panics
    /// Panics if fewer than `draws` balls remain.
    pub fn draw_block<R, F>(&mut self, draws: u64, rng: &mut R, mut deposit: F)
    where
        R: RngCore + ?Sized,
        F: FnMut(usize, u64),
    {
        assert!(draws <= self.remaining, "block of {draws} from a pool of {}", self.remaining);
        if draws == 0 {
            return;
        }
        let mut need = draws;
        let mut suffix = self.remaining;
        for (cat, count) in self.pool.iter_mut().enumerate() {
            if need == 0 {
                break;
            }
            let k = *count;
            if k == 0 {
                continue;
            }
            // This category's share of the block: hypergeometric on the
            // remaining pool suffix. When the suffix *is* this category,
            // the draw is deterministic and consumes no randomness.
            let x =
                if k == suffix { need } else { Hypergeometric::new(suffix, k, need).sample(rng) };
            if x > 0 {
                deposit(cat, x);
                *count -= x;
                need -= x;
            }
            suffix -= k;
        }
        debug_assert_eq!(need, 0, "block must be filled exactly");
        self.remaining -= draws;
    }
}

/// A Fenwick tree over integer category counts: `O(d)` build, `O(log d)`
/// single-category edits ([`add`](Self::add), [`remove`](Self::remove)),
/// and `O(log d)` bit-descended draws — with
/// replacement ([`sample`](Self::sample)) or without
/// ([`draw`](Self::draw), the same descent plus a removal) — plus a bulk
/// [`FenwickPool::deal`] that switches to per-category conditional
/// hypergeometrics once the requested count rivals the category count.
///
/// Both draw forms invert one exact uniform in `[0, remaining)` against
/// the prefix sums, so the pool is exact in law either way. Sequential
/// uniform draws without replacement realize
/// exactly the multivariate-hypergeometric block law of
/// [`GroupSplitter`], so the two are interchangeable in law; the Fenwick
/// form is for consumers that interleave draws with structural edits
/// (e.g. 3-Majority's condensed pull step temporarily masking one
/// category out of the partner pool between deals).
///
/// # Example
/// ```
/// use rand::SeedableRng;
/// use symbreak_sim::dist::FenwickPool;
/// use symbreak_sim::rng::Pcg64;
///
/// let mut rng = Pcg64::seed_from_u64(31);
/// let mut pool = FenwickPool::new(&[5, 0, 3]);
/// assert_eq!(pool.remaining(), 8);
/// assert_ne!(pool.sample(&mut rng), 1, "empty categories are never drawn");
/// assert_eq!(pool.remaining(), 8, "sampling does not remove");
/// let cat = pool.draw(&mut rng);
/// assert_ne!(cat, 1);
/// assert_eq!(pool.remaining(), 7);
/// let mut dealt = 0u64;
/// pool.deal(7, &mut rng, |_cat, c| dealt += c);
/// assert_eq!((dealt, pool.remaining()), (7, 0));
/// ```
#[derive(Debug, Clone)]
pub struct FenwickPool {
    /// 1-based Fenwick tree over the category counts.
    tree: Vec<u64>,
    /// Plain count mirror (`counts[i]` = balls left in category `i`).
    counts: Vec<u64>,
    remaining: u64,
}

impl FenwickPool {
    /// Builds the pool over `counts` balls per category, `O(d)`.
    pub fn new(counts: &[u64]) -> Self {
        let mut pool =
            Self { tree: Vec::new(), counts: counts.to_vec(), remaining: counts.iter().sum() };
        pool.rebuild_tree();
        pool
    }

    /// Reconstructs the Fenwick tree from the count mirror, `O(d)`.
    fn rebuild_tree(&mut self) {
        let len = self.counts.len();
        self.tree.clear();
        self.tree.resize(len + 1, 0);
        self.tree[1..].copy_from_slice(&self.counts);
        for i in 1..=len {
            let j = i + (i & i.wrapping_neg());
            if j <= len {
                self.tree[j] += self.tree[i];
            }
        }
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the pool has no categories at all.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Balls left in the pool.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Balls left in category `i`.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Adds `k` balls to category `i`, `O(log d)`.
    pub fn add(&mut self, i: usize, k: u64) {
        self.counts[i] += k;
        self.remaining += k;
        let mut j = i + 1;
        while j < self.tree.len() {
            self.tree[j] += k;
            j += j & j.wrapping_neg();
        }
    }

    /// Removes `k` balls from category `i`, `O(log d)`.
    ///
    /// # Panics
    /// Panics (in debug builds) if category `i` holds fewer than `k`.
    pub fn remove(&mut self, i: usize, k: u64) {
        debug_assert!(self.counts[i] >= k, "removing {k} from a category of {}", self.counts[i]);
        self.counts[i] -= k;
        self.remaining -= k;
        let mut j = i + 1;
        while j < self.tree.len() {
            self.tree[j] -= k;
            j += j & j.wrapping_neg();
        }
    }

    /// Draws one pooled ball uniformly *with* replacement (the pool is
    /// not mutated); returns its 0-based category index. `O(log d)`.
    ///
    /// # Panics
    /// Panics (in debug builds) when the pool is empty.
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
        debug_assert!(self.remaining > 0, "drew from an empty pool");
        self.locate(rng.gen_range(0..self.remaining))
    }

    /// Removes the ball of 0-based `rank` among the remaining balls
    /// (categories in index order) and returns its category. A uniform
    /// `rank` in `[0, remaining)` makes this a [`draw`](Self::draw).
    /// `O(log d)`.
    ///
    /// # Panics
    /// Panics (in debug builds) if `rank ≥ remaining`.
    pub fn take_at(&mut self, rank: u64) -> usize {
        debug_assert!(rank < self.remaining, "rank {rank} past the pool");
        let pos = self.locate(rank);
        self.remove(pos, 1);
        pos
    }

    /// The category holding the ball of 0-based rank `target`.
    fn locate(&self, mut target: u64) -> usize {
        let len = self.counts.len();
        // Descend to the largest index whose prefix sum is ≤ target.
        let mut pos = 0usize;
        let mut step = len.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= len && self.tree[next] <= target {
                target -= self.tree[next];
                pos = next;
            }
            step >>= 1;
        }
        pos
    }

    /// Draws one pooled ball uniformly and removes it: the
    /// [`sample`](Self::sample) descent plus a one-ball
    /// [`remove`](Self::remove). `O(log d)`.
    pub fn draw<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> usize {
        let pos = self.sample(rng);
        self.remove(pos, 1);
        pos
    }

    /// Deals `c` uniform balls without replacement, calling
    /// `deposit(category, count)` per removal (entries may repeat and
    /// carry count 1 on the per-ball path; callers tally).
    ///
    /// Dispatched deterministically in `(c, d)`: when the deal is a
    /// sizeable fraction of the category count (`8·c ≥ d`) it runs as
    /// one [`GroupSplitter`] block over the counts plus an `O(d)` tree
    /// rebuild, otherwise as `c`
    /// bit-descended single draws (`O(c log d)`), which is cheaper for
    /// sparse removals from wide pools. Both realize the identical
    /// uniform without-replacement law.
    ///
    /// # Panics
    /// Panics if fewer than `c` balls remain.
    pub fn deal<R, F>(&mut self, c: u64, rng: &mut R, mut deposit: F)
    where
        R: RngCore + ?Sized,
        F: FnMut(usize, u64),
    {
        assert!(c <= self.remaining, "deal of {c} from a pool of {}", self.remaining);
        if c == 0 {
            return;
        }
        if c.saturating_mul(8) >= self.counts.len() as u64 {
            GroupSplitter::new(&mut self.counts).draw_block(c, rng, deposit);
            self.remaining -= c;
            self.rebuild_tree();
        } else {
            for _ in 0..c {
                let cat = self.draw(rng);
                deposit(cat, 1);
            }
        }
    }
}

/// I.i.d. fixed-size multinomial windows `Mult(h, θ)`, with the
/// conditional-binomial walk's per-category samplers built **once** and
/// reused across windows.
///
/// This is the with-replacement sibling of a [`GroupSplitter`] block of
/// `h`, for per-node windows that are independent (Uniform Pull samples
/// with replacement); the default condensed push step of a multiset rule
/// draws its windows from one. The walk at category `j` with `r` trials left
/// always draws from the same `Bin(r, θ_j / Σ_{i≥j} θ_i)`, so all
/// `d·h` binomial samplers are precomputed and a window costs only the
/// categories actually visited — ~one cached draw per window once the
/// leading category dominates. Order `weights` by decreasing mass for
/// the early exit to bite; the last weight must be positive (it absorbs
/// the walk's remainder).
///
/// # Example
/// ```
/// use rand::SeedableRng;
/// use symbreak_sim::dist::WindowMultinomial;
/// use symbreak_sim::rng::Pcg64;
///
/// let mut rng = Pcg64::seed_from_u64(29);
/// let windows = WindowMultinomial::new(&[6.0, 3.0, 1.0], 3);
/// let mut total = 0u64;
/// windows.sample_window(&mut rng, |_cat, x| total += x);
/// assert_eq!(total, 3);
/// ```
#[derive(Debug, Clone)]
pub struct WindowMultinomial {
    /// `bins[j·h + (r−1)]`: `Bin(r, θ_j / Σ_{i≥j} θ_i)` for category
    /// `j < d − 1`; the last category takes the walk's remainder.
    bins: Vec<Binomial>,
    d: usize,
    h: usize,
}

impl WindowMultinomial {
    /// Builds the cached walk for windows of `h` draws over `weights`
    /// (unnormalized; finite, non-negative, last one positive).
    ///
    /// # Panics
    /// Panics on empty weights, `h = 0`, invalid weights, or a
    /// non-positive last weight.
    pub fn new(weights: &[f64], h: usize) -> Self {
        let d = weights.len();
        assert!(d > 0, "window multinomial needs at least one category");
        assert!(h > 0, "window size must be positive");
        for (i, &w) in weights.iter().enumerate() {
            assert!(w.is_finite() && w >= 0.0, "weight[{i}] = {w} invalid");
        }
        assert!(weights[d - 1] > 0.0, "the last weight absorbs the remainder; it must be positive");
        let mut bins = Vec::with_capacity((d - 1) * h);
        let mut suffix: f64 = weights.iter().sum();
        for &w in &weights[..d - 1] {
            let p = (w / suffix).clamp(0.0, 1.0);
            for r in 1..=h {
                bins.push(Binomial::new(r as u64, p));
            }
            suffix -= w;
        }
        Self { bins, d, h }
    }

    /// The window size `h`.
    pub fn h(&self) -> usize {
        self.h
    }

    /// Draws one window, calling `deposit(category, count)` for each
    /// category with a positive count (ascending category order).
    pub fn sample_window<R, F>(&self, rng: &mut R, mut deposit: F)
    where
        R: RngCore + ?Sized,
        F: FnMut(usize, u64),
    {
        let mut need = self.h;
        for j in 0..self.d {
            if need == 0 {
                return;
            }
            if j == self.d - 1 {
                deposit(j, need as u64);
                return;
            }
            let x = self.bins[j * self.h + (need - 1)].sample(rng);
            if x > 0 {
                deposit(j, x);
                need -= x as usize;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg64;
    use rand::SeedableRng;

    #[test]
    fn ln_factorial_matches_direct_product() {
        for k in 0..40u64 {
            let direct: f64 = (1..=k).map(|i| (i as f64).ln()).sum();
            assert!(
                (ln_factorial(k) - direct).abs() < 1e-9,
                "ln({k}!) = {} vs {direct}",
                ln_factorial(k)
            );
        }
        // Spot-check deep into the Stirling regime.
        let direct: f64 = (1..=5000u64).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(5000) - direct).abs() < 1e-7);
    }

    #[test]
    fn binomial_mean_and_variance_both_regimes() {
        let mut rng = Pcg64::seed_from_u64(11);
        for &(n, p) in &[(50u64, 0.05f64), (1_000, 0.3), (10_000, 0.0007), (1_000_000, 0.5)] {
            let d = Binomial::new(n, p);
            let trials = 30_000;
            let mut sum = 0.0;
            let mut sumsq = 0.0;
            for _ in 0..trials {
                let x = d.sample(&mut rng) as f64;
                sum += x;
                sumsq += x * x;
            }
            let mean = sum / trials as f64;
            let var = sumsq / trials as f64 - mean * mean;
            let (em, ev) = (n as f64 * p, n as f64 * p * (1.0 - p));
            let tol = 6.0 * (ev / trials as f64).sqrt() + 1e-9;
            assert!((mean - em).abs() < tol, "Bin({n},{p}): mean {mean} vs {em}");
            assert!((var - ev).abs() < 0.1 * ev + 1.0, "Bin({n},{p}): var {var} vs {ev}");
        }
    }

    #[test]
    fn binomial_flip_symmetry_exact_edges() {
        let mut rng = Pcg64::seed_from_u64(2);
        assert_eq!(Binomial::new(100, 0.0).sample(&mut rng), 0);
        assert_eq!(Binomial::new(100, 1.0).sample(&mut rng), 100);
        assert_eq!(Binomial::new(0, 0.7).sample(&mut rng), 0);
    }

    #[test]
    fn multinomial_conserves_and_respects_support() {
        let mut rng = Pcg64::seed_from_u64(3);
        let theta = [0.2, 0.0, 0.5, 0.3, 0.0];
        let mut x = [0u64; 5];
        for _ in 0..100 {
            sample_multinomial_into(10_000, &theta, &mut rng, &mut x);
            assert_eq!(x.iter().sum::<u64>(), 10_000);
            assert_eq!(x[1], 0, "zero-weight category must stay empty");
            assert_eq!(x[4], 0, "trailing zero-weight category must stay empty");
        }
    }

    #[test]
    #[should_panic(expected = "weight[0] = -1 invalid")]
    fn multinomial_rejects_a_negative_weight() {
        let mut rng = Pcg64::seed_from_u64(31);
        sample_multinomial_into(10, &[-1.0, 0.5, 2.0], &mut rng, &mut [0; 3]);
    }

    #[test]
    #[should_panic(expected = "weight[1] = NaN invalid")]
    fn multinomial_rejects_a_nan_weight() {
        let mut rng = Pcg64::seed_from_u64(32);
        sample_multinomial_into(10, &[0.5, f64::NAN, 2.0], &mut rng, &mut [0; 3]);
    }

    #[test]
    #[should_panic(expected = "weight[0] = -1 invalid")]
    fn sparse_multinomial_rejects_a_negative_weight() {
        let mut rng = Pcg64::seed_from_u64(33);
        sample_multinomial_sparse_into(10, &[-1.0, 0.5, 2.0], &[0, 2, 4], &mut rng, &mut [0; 5]);
    }

    #[test]
    fn multinomial_marginal_mean() {
        let mut rng = Pcg64::seed_from_u64(4);
        let theta = [0.1, 0.6, 0.3];
        let trials = 20_000u64;
        let mut sums = [0u64; 3];
        let mut x = [0u64; 3];
        for _ in 0..trials {
            sample_multinomial_into(1_000, &theta, &mut rng, &mut x);
            for (s, x) in sums.iter_mut().zip(x) {
                *s += x;
            }
        }
        for i in 0..3 {
            let mean = sums[i] as f64 / trials as f64;
            let expect = 1_000.0 * theta[i];
            assert!((mean - expect).abs() < 1.5, "cat {i}: {mean} vs {expect}");
        }
    }

    #[test]
    fn sparse_multinomial_matches_dense_bit_for_bit() {
        // Same seed, dense weights with zeros vs the sparse (theta, idx)
        // restriction: the draws must be identical, not just in law.
        let dense_theta = [0.0, 0.2, 0.0, 0.5, 0.3, 0.0];
        let sparse_theta = [0.2, 0.5, 0.3];
        let idx = [1u32, 3, 4];
        for trial in 0..50u64 {
            let mut rng_dense = Pcg64::seed_from_u64(900 + trial);
            let mut rng_sparse = Pcg64::seed_from_u64(900 + trial);
            let mut dense = [0u64; 6];
            sample_multinomial_into(10_000, &dense_theta, &mut rng_dense, &mut dense);
            let mut sparse = [0u64; 6];
            sample_multinomial_sparse_into(
                10_000,
                &sparse_theta,
                &idx,
                &mut rng_sparse,
                &mut sparse,
            );
            assert_eq!(dense, sparse);
            assert_eq!(rng_dense.next_u64(), rng_sparse.next_u64(), "RNG streams diverged");
        }
    }

    #[test]
    fn sparse_multinomial_adds_into_existing_counts() {
        let mut rng = Pcg64::seed_from_u64(10);
        let mut out = [7u64, 0, 3];
        sample_multinomial_sparse_into(100, &[0.5, 0.5], &[0, 2], &mut rng, &mut out);
        assert_eq!(out[0] + out[2], 110, "draw adds to prior values");
        assert_eq!(out[1], 0, "untouched slot stays untouched");
    }

    #[test]
    fn sparse_multinomial_zero_trials_and_zero_weights() {
        let mut rng = Pcg64::seed_from_u64(11);
        let mut out = [0u64; 4];
        sample_multinomial_sparse_into(0, &[0.0, 0.0], &[0, 1], &mut rng, &mut out);
        assert_eq!(out, [0; 4]);
        // Interior zero weight is skipped without consuming randomness.
        sample_multinomial_sparse_into(50, &[0.5, 0.0, 0.5], &[0, 1, 3], &mut rng, &mut out);
        assert_eq!(out.iter().sum::<u64>(), 50);
        assert_eq!(out[1], 0);
    }

    #[test]
    fn categorical_point_mass_is_deterministic() {
        let mut rng = Pcg64::seed_from_u64(5);
        let cat = Categorical::new(&[0.0, 0.0, 7.0, 0.0]);
        for _ in 0..200 {
            assert_eq!(cat.sample(&mut rng), 2);
        }
    }

    #[test]
    fn categorical_frequencies_match_weights() {
        let mut rng = Pcg64::seed_from_u64(6);
        let weights = [1.0, 2.0, 3.0, 4.0];
        let cat = Categorical::new(&weights);
        let trials = 100_000;
        let mut counts = [0u64; 4];
        for _ in 0..trials {
            counts[cat.sample(&mut rng)] += 1;
        }
        for i in 0..4 {
            let freq = counts[i] as f64 / trials as f64;
            let expect = weights[i] / 10.0;
            assert!((freq - expect).abs() < 0.01, "cat {i}: {freq} vs {expect}");
        }
    }

    #[test]
    fn categorical_rebuild_matches_fresh_table() {
        let mut table = Categorical::new(&[1.0, 1.0]);
        table.rebuild(&[1.0, 2.0, 3.0, 4.0]);
        let fresh = Categorical::new(&[1.0, 2.0, 3.0, 4.0]);
        // Same table => same draws from the same stream.
        let mut a = Pcg64::seed_from_u64(31);
        let mut b = Pcg64::seed_from_u64(31);
        for _ in 0..500 {
            assert_eq!(table.sample(&mut a), fresh.sample(&mut b));
        }
    }

    #[test]
    fn fenwick_pool_sample_frequencies_match_counts() {
        let mut rng = Pcg64::seed_from_u64(51);
        let counts = [30u64, 0, 50, 20];
        let pool = FenwickPool::new(&counts);
        let trials = 50_000u64;
        let mut hits = [0u64; 4];
        for _ in 0..trials {
            hits[pool.sample(&mut rng)] += 1;
        }
        assert_eq!(hits[1], 0, "zero-count category must never be drawn");
        for i in [0usize, 2, 3] {
            let freq = hits[i] as f64 / trials as f64;
            let expect = counts[i] as f64 / 100.0;
            let sd = (expect * (1.0 - expect) / trials as f64).sqrt();
            assert!((freq - expect).abs() < 6.0 * sd, "category {i}: {freq} vs {expect}");
        }
    }

    #[test]
    fn fenwick_pool_draw_is_sample_plus_removal() {
        // Same stream, same descent: a draw lands where a sample would,
        // and leaves the pool one ball lighter in exactly that category.
        let mut pool = FenwickPool::new(&[4, 0, 6, 1]);
        let mut a = Pcg64::seed_from_u64(9);
        let mut b = Pcg64::seed_from_u64(9);
        while pool.remaining() > 0 {
            let before = pool.clone();
            let expect = before.sample(&mut b);
            let got = pool.draw(&mut a);
            assert_eq!(got, expect);
            assert_eq!(pool.count(got) + 1, before.count(got));
            assert_eq!(pool.remaining() + 1, before.remaining());
        }
        assert_eq!(pool.tree, FenwickPool::new(&[0, 0, 0, 0]).tree);
    }

    #[test]
    fn fenwick_pool_take_at_removes_the_ranked_ball() {
        // Ranks count the remaining balls in category order: the last
        // rank is the last nonempty category, rank 0 the first.
        let mut pool = FenwickPool::new(&[2, 0, 3, 1]);
        assert_eq!(pool.take_at(5), 3);
        assert_eq!(pool.take_at(2), 2);
        assert_eq!(pool.take_at(0), 0);
        assert_eq!(pool.take_at(1), 2);
        assert_eq!((pool.count(0), pool.count(2), pool.remaining()), (1, 1, 2));
        assert_eq!(pool.take_at(1), 2);
        assert_eq!(pool.take_at(0), 0);
        assert_eq!(pool.tree, FenwickPool::new(&[0, 0, 0, 0]).tree);
    }

    #[test]
    fn ball_drop_tally_matches_multinomial_law() {
        let mut rng = Pcg64::seed_from_u64(41);
        let weights = [0.5, 0.3, 0.2];
        let idx = [2u32, 7, 11];
        let table = Categorical::new(&weights);
        let trials = 5_000u64;
        let per_draw = 200u64;
        let mut sums = [0u64; 3];
        for _ in 0..trials {
            let mut out = [0u64; 12];
            sample_multinomial_tally_into(per_draw, &table, &idx, &mut rng, &mut out);
            assert_eq!(out.iter().sum::<u64>(), per_draw);
            for (s, &i) in sums.iter_mut().zip(&idx) {
                *s += out[i as usize];
            }
        }
        for i in 0..3 {
            let mean = sums[i] as f64 / trials as f64;
            let expect = per_draw as f64 * weights[i];
            let sd = (per_draw as f64 * weights[i] * (1.0 - weights[i]) / trials as f64).sqrt();
            assert!((mean - expect).abs() < 6.0 * sd + 0.05, "cat {i}: {mean} vs {expect}");
        }
    }

    #[test]
    fn hypergeometric_matches_exact_pmf() {
        // Frequencies against the exactly enumerated pmf for a few urns.
        let mut rng = Pcg64::seed_from_u64(43);
        for &(total, marked, draws) in &[(10u64, 4u64, 3u64), (20, 15, 6), (7, 7, 3), (50, 1, 10)] {
            let d = Hypergeometric::new(total, marked, draws);
            let trials = 40_000u64;
            let mut counts = vec![0u64; draws as usize + 1];
            for _ in 0..trials {
                counts[d.sample(&mut rng) as usize] += 1;
            }
            // Exact pmf via the binomial-coefficient ratio.
            let c = |n: u64, k: u64| -> f64 {
                if k > n {
                    return 0.0;
                }
                (1..=k).map(|i| (n - k + i) as f64 / i as f64).product()
            };
            for x in 0..=draws {
                let pmf = c(marked, x) * c(total - marked, draws - x) / c(total, draws);
                let freq = counts[x as usize] as f64 / trials as f64;
                let sd = (pmf * (1.0 - pmf) / trials as f64).sqrt();
                assert!(
                    (freq - pmf).abs() < 6.0 * sd + 1e-3,
                    "H({total},{marked},{draws}) at {x}: freq {freq} vs pmf {pmf}"
                );
            }
        }
    }

    #[test]
    fn hypergeometric_degenerate_edges() {
        let mut rng = Pcg64::seed_from_u64(44);
        assert_eq!(Hypergeometric::new(5, 0, 3).sample(&mut rng), 0);
        assert_eq!(Hypergeometric::new(5, 5, 3).sample(&mut rng), 3);
        assert_eq!(Hypergeometric::new(5, 2, 0).sample(&mut rng), 0);
        // Forced lower bound: 4 draws from 5 with 3 unmarked => at least 1.
        let d = Hypergeometric::new(5, 2, 4);
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            assert!((1..=2).contains(&x));
        }
    }

    #[test]
    fn window_splitter_deals_the_whole_pool() {
        // Per-node windows are `GroupSplitter` blocks of `h` balls.
        let mut rng = Pcg64::seed_from_u64(45);
        for seed_pool in [[12u64, 0, 6, 2], [5, 5, 5, 5], [20, 0, 0, 0]] {
            let mut pool = seed_pool;
            let total: u64 = pool.iter().sum();
            let h = 5u64;
            let windows = total / h;
            let mut splitter = GroupSplitter::new(&mut pool);
            let mut dealt = [0u64; 4];
            for _ in 0..windows {
                let mut got = 0u64;
                splitter.draw_block(h, &mut rng, |cat, x| {
                    dealt[cat] += x;
                    got += x;
                });
                assert_eq!(got, h, "window must carry exactly h balls");
            }
            assert_eq!(splitter.remaining(), total % h);
            for (d, s) in dealt.iter().zip(&seed_pool) {
                assert!(d <= s, "cannot deal more than the pool held");
            }
            assert_eq!(dealt.iter().sum::<u64>(), windows * h);
        }
    }

    #[test]
    fn window_splitter_first_window_is_hypergeometric() {
        // The first window's count of category 0 must follow
        // H(total, pool[0], h) exactly.
        let mut rng = Pcg64::seed_from_u64(46);
        let trials = 30_000u64;
        let mut sum = 0u64;
        for _ in 0..trials {
            let mut pool = [6u64, 3, 3];
            let mut splitter = GroupSplitter::new(&mut pool);
            splitter.draw_block(4, &mut rng, |cat, x| {
                if cat == 0 {
                    sum += x;
                }
            });
        }
        let mean = sum as f64 / trials as f64;
        let expect = 4.0 * 6.0 / 12.0; // h · K / N = 2
        assert!((mean - expect).abs() < 0.03, "mean {mean} vs {expect}");
    }

    #[test]
    fn window_multinomial_matches_direct_draws() {
        // Window marginals must equal Mult(h, θ): compare per-category
        // means against h·θ_i.
        let mut rng = Pcg64::seed_from_u64(47);
        let weights = [5.0, 3.0, 2.0];
        let h = 4usize;
        let wm = WindowMultinomial::new(&weights, h);
        let trials = 30_000u64;
        let mut sums = [0u64; 3];
        for _ in 0..trials {
            let mut got = 0u64;
            wm.sample_window(&mut rng, |cat, x| {
                sums[cat] += x;
                got += x;
            });
            assert_eq!(got, h as u64);
        }
        for i in 0..3 {
            let mean = sums[i] as f64 / trials as f64;
            let expect = h as f64 * weights[i] / 10.0;
            assert!((mean - expect).abs() < 0.03, "cat {i}: {mean} vs {expect}");
        }
    }

    #[test]
    fn window_multinomial_concentrated_early_exit_is_lawful() {
        // A dominant first category: most windows resolve in one cached
        // draw, and the law still matches Mult(h, θ).
        let mut rng = Pcg64::seed_from_u64(48);
        let wm = WindowMultinomial::new(&[0.98, 0.02], 3);
        let trials = 50_000u64;
        let mut minority = 0u64;
        for _ in 0..trials {
            wm.sample_window(&mut rng, |cat, x| {
                if cat == 1 {
                    minority += x;
                }
            });
        }
        let mean = minority as f64 / trials as f64;
        assert!((mean - 0.06).abs() < 0.01, "minority mean {mean} vs 3·0.02");
    }

    #[test]
    fn weight_classes_group_equal_keys_in_key_order() {
        // Small keys take the one counting-sort pass, wide keys the
        // byte-wise radix passes; both must agree with a plain sort.
        let mut rng = Pcg64::seed_from_u64(41);
        let mut classes = WeightClasses::default();
        for (d, span) in [(1usize, 1u64), (50, 4), (300, 1 << 40), (1000, 3), (64, u64::MAX)] {
            let keys: Vec<u64> = (0..d).map(|_| rng.next_u64() % span.max(1)).collect();
            let keys: Vec<u64> = keys.iter().map(|&k| k | 0xF00).collect();
            classes.group(0..d as u32, |j| keys[j as usize]);
            let mut want: Vec<(u64, u32)> = (0..d as u32).map(|j| (keys[j as usize], j)).collect();
            want.sort_unstable();
            let got: Vec<(u64, u32)> =
                classes.members.iter().map(|&j| (keys[j as usize], j)).collect();
            assert_eq!(got, want, "d = {d}, span = {span}");
            let mut distinct: Vec<u64> = keys.clone();
            distinct.sort_unstable();
            distinct.dedup();
            let class_keys: Vec<u64> = classes.classes.iter().map(|c| c.0).collect();
            assert_eq!(class_keys, distinct);
            assert_eq!(classes.classes.last().map(|c| c.1), Some(d as u32));
        }
        classes.group(std::iter::empty(), |_| 0);
        assert_eq!(classes.iter().count(), 0);
    }
}
