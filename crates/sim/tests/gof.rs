//! Chi-square goodness-of-fit of the exact samplers against their exact
//! pmfs — stronger than the range/mean invariants in `properties.rs`.

use rand::SeedableRng;
use symbreak_sim::dist::{
    Binomial, Categorical, FenwickPool, GroupSplitter, Hypergeometric, WeightClasses,
};
use symbreak_sim::rng::Pcg64;
use symbreak_stats::infer::chi_square_gof;

/// Exact `Bin(n, p)` pmf over `0..=n` via the stable recurrence
/// `pmf(x+1) = pmf(x)·(n−x)/(x+1)·p/q`, started from the mode outward to
/// avoid underflow at large `n`.
fn binomial_pmf(n: u64, p: f64) -> Vec<f64> {
    let q = 1.0 - p;
    let mode = ((n + 1) as f64 * p).floor().min(n as f64) as usize;
    let mut pmf = vec![0.0f64; n as usize + 1];
    // Unnormalized start; renormalize at the end (exact up to f64).
    pmf[mode] = 1.0;
    for x in mode..n as usize {
        pmf[x + 1] = pmf[x] * ((n - x as u64) as f64 / (x as f64 + 1.0)) * (p / q);
    }
    for x in (0..mode).rev() {
        pmf[x] = pmf[x + 1] * ((x as f64 + 1.0) / (n - x as u64) as f64) * (q / p);
    }
    let total: f64 = pmf.iter().sum();
    for v in pmf.iter_mut() {
        *v /= total;
    }
    pmf
}

fn binomial_chi_square(n: u64, p: f64, draws: u64, seed: u64) -> bool {
    let d = Binomial::new(n, p);
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut observed = vec![0u64; n as usize + 1];
    for _ in 0..draws {
        observed[d.sample(&mut rng) as usize] += 1;
    }
    let expected: Vec<f64> = binomial_pmf(n, p).iter().map(|&q| q * draws as f64).collect();
    chi_square_gof(&observed, &expected, 5.0).within_sigma(5.0)
}

#[test]
fn binomial_inversion_regime_matches_exact_pmf() {
    // n·p = 2.5: the BINV path.
    assert!(binomial_chi_square(50, 0.05, 200_000, 1));
}

#[test]
fn binomial_btrs_regime_matches_exact_pmf() {
    // n·p = 300: the BTRS path.
    assert!(binomial_chi_square(1_000, 0.3, 200_000, 2));
}

#[test]
fn binomial_btrs_boundary_matches_exact_pmf() {
    // n·p' just above the regime split at 10, and a flipped p > 1/2.
    assert!(binomial_chi_square(10_000, 0.0012, 150_000, 3));
    assert!(binomial_chi_square(200, 0.85, 150_000, 4));
}

#[test]
fn categorical_matches_weights_chi_square() {
    let weights = [5.0, 0.0, 1.0, 17.0, 3.0, 0.5, 8.0, 2.5];
    let total: f64 = weights.iter().sum();
    let cat = Categorical::new(&weights);
    let mut rng = Pcg64::seed_from_u64(5);
    let draws = 400_000u64;
    let mut observed = vec![0u64; weights.len()];
    for _ in 0..draws {
        observed[cat.sample(&mut rng)] += 1;
    }
    assert_eq!(observed[1], 0, "zero-weight category must never be drawn");
    // Drop the structural zero from the test (its expected count is 0).
    let obs: Vec<u64> =
        observed.iter().zip(&weights).filter(|(_, &w)| w > 0.0).map(|(&o, _)| o).collect();
    let expected: Vec<f64> =
        weights.iter().filter(|&&w| w > 0.0).map(|&w| w / total * draws as f64).collect();
    assert!(chi_square_gof(&obs, &expected, 5.0).within_sigma(5.0));
}

#[test]
fn categorical_near_uniform_table_chi_square() {
    // Exactly equal weights exercise the alias construction's donation
    // cascade (every column ends up with a fractional accept probability).
    let k = 101usize;
    let weights = vec![990.0; k];
    let cat = Categorical::new(&weights);
    let mut rng = Pcg64::seed_from_u64(6);
    let draws = 500_000u64;
    let mut observed = vec![0u64; k];
    for _ in 0..draws {
        observed[cat.sample(&mut rng)] += 1;
    }
    let expected = vec![draws as f64 / k as f64; k];
    assert!(chi_square_gof(&observed, &expected, 5.0).within_sigma(5.0));
}

/// Exact `Hypergeometric(total, marked, draws)` pmf over the support
/// `[lo, hi]`, mode-started via the same outward recurrence idiom as
/// [`binomial_pmf`]: `pmf(x+1)/pmf(x) = (marked−x)(draws−x) /
/// ((x+1)(total−marked−draws+x+1))`.
fn hypergeometric_pmf(total: u64, marked: u64, draws: u64) -> (u64, Vec<f64>) {
    let lo = draws.saturating_sub(total - marked);
    let hi = marked.min(draws);
    let mode = (((draws + 1) * (marked + 1)) / (total + 2)).clamp(lo, hi);
    let mut pmf = vec![0.0f64; (hi - lo + 1) as usize];
    pmf[(mode - lo) as usize] = 1.0;
    let ratio_up = |x: u64| {
        ((marked - x) * (draws - x)) as f64 / ((x + 1) * (total - marked + x + 1 - draws)) as f64
    };
    for x in mode..hi {
        pmf[(x + 1 - lo) as usize] = pmf[(x - lo) as usize] * ratio_up(x);
    }
    for x in (lo..mode).rev() {
        pmf[(x - lo) as usize] = pmf[(x + 1 - lo) as usize] / ratio_up(x);
    }
    let total_mass: f64 = pmf.iter().sum();
    for v in pmf.iter_mut() {
        *v /= total_mass;
    }
    (lo, pmf)
}

fn hypergeometric_chi_square(total: u64, marked: u64, draws: u64, samples: u64, seed: u64) -> bool {
    let d = Hypergeometric::new(total, marked, draws);
    let mut rng = Pcg64::seed_from_u64(seed);
    let (lo, pmf) = hypergeometric_pmf(total, marked, draws);
    let mut observed = vec![0u64; pmf.len()];
    for _ in 0..samples {
        observed[(d.sample(&mut rng) - lo) as usize] += 1;
    }
    // Lump bins whose expected count is negligible into their inner
    // neighbour so the chi-square statistic stays well-conditioned.
    let mut obs = Vec::new();
    let mut expected = Vec::new();
    let mut carry_o = 0u64;
    let mut carry_e = 0.0f64;
    for (o, &q) in observed.iter().zip(&pmf) {
        carry_o += o;
        carry_e += q * samples as f64;
        if carry_e >= 5.0 {
            obs.push(carry_o);
            expected.push(carry_e);
            carry_o = 0;
            carry_e = 0.0;
        }
    }
    if carry_e > 0.0 {
        let last = obs.len() - 1;
        obs[last] += carry_o;
        expected[last] += carry_e;
    }
    chi_square_gof(&obs, &expected, 5.0).within_sigma(5.0)
}

#[test]
fn hypergeometric_small_draw_walk_matches_exact_pmf() {
    // Tiny draws: the p_lo-started one-sided walk (the path that is
    // byte-identical to the pre-bulk sampler).
    assert!(hypergeometric_chi_square(500, 120, 8, 200_000, 11));
}

#[test]
fn hypergeometric_bulk_mode_walk_matches_exact_pmf() {
    // Large draws from a large pool: `pmf(lo)` underflows f64, so the
    // sampler must start the two-sided walk at the mode.
    assert!(hypergeometric_chi_square(40_000, 18_000, 9_000, 120_000, 12));
}

#[test]
fn hypergeometric_bulk_tight_support_matches_exact_pmf() {
    // draws > total − marked pins lo > 0; the bulk path must respect
    // the shifted support.
    assert!(hypergeometric_chi_square(1_000, 900, 700, 150_000, 13));
}

#[test]
fn group_splitter_blocks_sum_to_pool_exactly() {
    let mut rng = Pcg64::seed_from_u64(21);
    let original = vec![17u64, 0, 4, 96, 1, 33, 250, 8];
    let total: u64 = original.iter().sum();
    let group_sizes = [100u64, 0, 250, 59];
    assert_eq!(group_sizes.iter().sum::<u64>(), total, "groups must exhaust the pool");
    let mut pool = original.clone();
    let mut splitter = GroupSplitter::new(&mut pool);
    let mut dealt = vec![0u64; original.len()];
    for &g in &group_sizes {
        let mut block = vec![0u64; original.len()];
        splitter.draw_block(g, &mut rng, |j, x| block[j] += x);
        assert_eq!(block.iter().sum::<u64>(), g, "block mass must equal the group size");
        for (d, b) in dealt.iter_mut().zip(&block) {
            *d += b;
        }
    }
    assert_eq!(splitter.remaining(), 0, "the pool must be exhausted");
    assert_eq!(dealt, original, "blocks must sum to the pool exactly");
    assert_eq!(pool, vec![0u64; original.len()], "the pool slice must be drained");
}

#[test]
fn group_splitter_degenerate_pools() {
    let mut rng = Pcg64::seed_from_u64(22);
    // Single category: every block is deterministic.
    let mut pool = vec![40u64];
    let mut splitter = GroupSplitter::new(&mut pool);
    let mut got = 0u64;
    splitter.draw_block(15, &mut rng, |j, x| {
        assert_eq!(j, 0);
        got += x;
    });
    assert_eq!(got, 15);
    assert_eq!(splitter.remaining(), 25);
    // Empty group: no randomness, no deposits.
    splitter.draw_block(0, &mut rng, |_, _| panic!("draws == 0 must deposit nothing"));
    assert_eq!(splitter.remaining(), 25);
    // h = 1 windows: 25 singleton blocks drain the remainder.
    for _ in 0..25 {
        let mut x = 0u64;
        splitter.draw_block(1, &mut rng, |_, c| x += c);
        assert_eq!(x, 1);
    }
    assert_eq!(splitter.remaining(), 0);
}

#[test]
fn group_splitter_marginals_are_hypergeometric_chi_square() {
    // The first block's per-category count is marginally
    // Hypergeometric(total, pool[j], g): the nested conditional
    // construction must reproduce the unconditional marginal.
    let original = [60u64, 140, 25, 75];
    let total: u64 = original.iter().sum();
    let g = 90u64;
    let samples = 120_000u64;
    let mut rng = Pcg64::seed_from_u64(23);
    for (j, &marked) in original.iter().enumerate() {
        let (lo, pmf) = hypergeometric_pmf(total, marked, g);
        let mut observed = vec![0u64; pmf.len()];
        for _ in 0..samples {
            let mut pool = original.to_vec();
            let mut splitter = GroupSplitter::new(&mut pool);
            let mut x = 0u64;
            splitter.draw_block(g, &mut rng, |cat, c| {
                if cat == j {
                    x = c;
                }
            });
            observed[(x - lo) as usize] += 1;
        }
        let expected: Vec<f64> = pmf.iter().map(|&q| q * samples as f64).collect();
        // Lump sub-5-count tails exactly as the hypergeometric helper.
        let mut obs_l = Vec::new();
        let mut exp_l = Vec::new();
        let (mut co, mut ce) = (0u64, 0.0f64);
        for (&o, &e) in observed.iter().zip(&expected) {
            co += o;
            ce += e;
            if ce >= 5.0 {
                obs_l.push(co);
                exp_l.push(ce);
                co = 0;
                ce = 0.0;
            }
        }
        if ce > 0.0 {
            let last = obs_l.len() - 1;
            obs_l[last] += co;
            exp_l[last] += ce;
        }
        assert!(
            chi_square_gof(&obs_l, &exp_l, 5.0).within_sigma(5.0),
            "category {j} marginal deviates from Hypergeometric({total}, {marked}, {g})"
        );
    }
}

/// Every outcome of `Mult(n, w)` with positive probability and its
/// exact pmf `n!/∏x_j! · ∏p_j^x_j`, each keyed by its counts read as
/// base-`(n+1)` digits.
fn multinomial_outcomes(n: u64, w: &[f64]) -> Vec<(u64, f64)> {
    fn ln_fact(k: u64) -> f64 {
        (1..=k).map(|i| (i as f64).ln()).sum()
    }
    fn walk(n: u64, p: &[f64], left: u64, code: u64, ln_pmf: f64, out: &mut Vec<(u64, f64)>) {
        let Some((&pj, rest)) = p.split_first() else {
            if left == 0 {
                out.push((code, ln_pmf.exp()));
            }
            return;
        };
        let top = if pj > 0.0 { left } else { 0 };
        for x in 0..=top {
            let term = if x > 0 { x as f64 * pj.ln() - ln_fact(x) } else { 0.0 };
            walk(n, rest, left - x, code * (n + 1) + x, ln_pmf + term, out);
        }
    }
    let total: f64 = w.iter().sum();
    let p: Vec<f64> = w.iter().map(|&x| x / total).collect();
    let mut out = Vec::new();
    walk(n, &p, n, 0, ln_fact(n), &mut out);
    out
}

/// Chi-square of [`WeightClasses::sample_multinomial`] over every
/// outcome of `Mult(n, w)` against the exact pmf; also checks each draw
/// conserves `n` and never touches a zero-weight entry.
fn weight_classes_chi_square(n: u64, w: &[f64], draws: u64, seed: u64) -> bool {
    let outcomes = multinomial_outcomes(n, w);
    let total: f64 = outcomes.iter().map(|o| o.1).sum();
    assert!((total - 1.0).abs() < 1e-9, "the enumeration must cover the pmf, got {total}");
    let mut classes = WeightClasses::default();
    classes.group(0..w.len() as u32, |j| w[j as usize].to_bits());
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut observed = vec![0u64; outcomes.len()];
    let mut counts = vec![0u64; w.len()];
    for _ in 0..draws {
        counts.fill(0);
        classes.sample_multinomial(n, f64::from_bits, &mut rng, |j, x| counts[j as usize] += x);
        assert_eq!(counts.iter().sum::<u64>(), n, "mass must be conserved");
        for (&x, &wj) in counts.iter().zip(w) {
            assert!(wj > 0.0 || x == 0, "a zero-weight entry was drawn: {counts:?}");
        }
        let code = counts.iter().fold(0u64, |acc, &x| acc * (n + 1) + x);
        let at = outcomes.binary_search_by_key(&code, |o| o.0).expect("a possible outcome");
        observed[at] += 1;
    }
    let expected: Vec<f64> = outcomes.iter().map(|o| o.1 * draws as f64).collect();
    chi_square_gof(&observed, &expected, 5.0).within_sigma(5.0)
}

#[test]
fn weight_classes_match_exact_multinomial_pmf() {
    // Five entries in three classes, one of them a single entry, plus a
    // zero-weight entry: class totals fall both below and above their
    // class sizes, all split by the uniform-index tally.
    assert!(weight_classes_chi_square(6, &[1.0, 2.0, 1.0, 0.0, 1.0], 200_000, 31));
    // Four entries, three classes: a pair, and two single entries.
    assert!(weight_classes_chi_square(6, &[2.0, 1.0, 2.0, 3.0], 200_000, 32));
    // The pair holds 10/11 of the mass, so its total of ~64 reaches 32
    // per entry in about half the draws, which take the equal-p
    // binomial walk; the rest are tallied.
    assert!(weight_classes_chi_square(70, &[5.0, 1.0, 5.0], 200_000, 33));
}

#[test]
fn weight_classes_split_a_large_class_uniformly() {
    // 10,000 entries of weight 1 beside one of weight 5,000: the large
    // class spans several tally blocks, whose shares are binomial. The
    // per-entry totals over independent draws are one multinomial.
    let mut w = vec![1.0f64; 10_000];
    w.push(5_000.0);
    let total: f64 = w.iter().sum();
    let (n, draws) = (15_000u64, 100u64);
    let mut classes = WeightClasses::default();
    classes.group(0..w.len() as u32, |j| w[j as usize].to_bits());
    let mut rng = Pcg64::seed_from_u64(34);
    let mut observed = vec![0u64; w.len()];
    for _ in 0..draws {
        classes.sample_multinomial(n, f64::from_bits, &mut rng, |j, x| observed[j as usize] += x);
    }
    assert_eq!(observed.iter().sum::<u64>(), n * draws);
    let expected: Vec<f64> = w.iter().map(|&x| x / total * (n * draws) as f64).collect();
    assert!(chi_square_gof(&observed, &expected, 5.0).within_sigma(5.0));
}

#[test]
fn fenwick_pool_prefix_sums_and_point_ops() {
    let counts = [5u64, 0, 12, 3, 0, 7, 1];
    let mut pool = FenwickPool::new(&counts);
    assert_eq!(pool.len(), counts.len());
    assert_eq!(pool.remaining(), counts.iter().sum::<u64>());
    assert!(!pool.is_empty());
    for (i, &c) in counts.iter().enumerate() {
        assert_eq!(pool.count(i), c, "counts mirror must match the input");
    }
    pool.remove(2, 12);
    assert_eq!(pool.count(2), 0);
    pool.add(4, 9);
    assert_eq!(pool.count(4), 9);
    assert_eq!(pool.remaining(), 5 + 3 + 9 + 7 + 1);
    // Remove everything; the pool must report no balls left (the
    // categories themselves remain — `is_empty` is about categories).
    for i in 0..counts.len() {
        let c = pool.count(i);
        pool.remove(i, c);
    }
    assert_eq!(pool.remaining(), 0);
    assert!(!pool.is_empty(), "categories persist after their balls are gone");
}

#[test]
fn fenwick_pool_draw_agrees_with_naive_cdf_scan() {
    // Replaying the identical RNG stream through the bit-descended draw
    // and a naive linear CDF scan must pick the same categories: both
    // map `target ∈ [0, remaining)` to the category holding that ball.
    use rand::Rng as _;
    for seed in 0..20u64 {
        let mut grow = Pcg64::seed_from_u64(900 + seed);
        let len = grow.gen_range(1..24usize);
        let counts: Vec<u64> = (0..len).map(|_| grow.gen_range(0..9u64)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            continue;
        }
        let mut pool = FenwickPool::new(&counts);
        let mut naive = counts.clone();
        let mut rng_a = Pcg64::seed_from_u64(7_000 + seed);
        let mut rng_b = Pcg64::seed_from_u64(7_000 + seed);
        for _ in 0..total {
            let picked = pool.draw(&mut rng_a);
            let mut target = rng_b.gen_range(0..naive.iter().sum::<u64>());
            let mut scan = 0usize;
            while target >= naive[scan] {
                target -= naive[scan];
                scan += 1;
            }
            naive[scan] -= 1;
            assert_eq!(picked, scan, "draw must match the naive CDF scan");
            assert_eq!(pool.count(picked), naive[picked], "counts mirror must track draws");
        }
        assert_eq!(pool.remaining(), 0, "drawing `total` balls must empty the pool");
    }
}

#[test]
fn fenwick_pool_deal_matches_pool_composition() {
    // `deal` dispatches between per-ball draws and the bulk
    // conditional-hypergeometric sweep on `c·8 ≥ len`; both must hand
    // back exactly `c` balls that the pool actually held, and leave the
    // tree in step with the counts: draining the rest through `draw`
    // must return exactly what `count` reports.
    let mut rng = Pcg64::seed_from_u64(31);
    let narrow = vec![9u64, 0, 14, 2, 5];
    let wide: Vec<u64> = (0..20).map(|i| i % 4).collect();
    for (counts, c) in [(&narrow, 1u64), (&narrow, 2), (&narrow, 30), (&wide, 1), (&wide, 2)] {
        let mut pool = FenwickPool::new(counts);
        let before: Vec<u64> = (0..pool.len()).map(|i| pool.count(i)).collect();
        let mut dealt = vec![0u64; counts.len()];
        pool.deal(c, &mut rng, |cat, x| dealt[cat] += x);
        assert_eq!(dealt.iter().sum::<u64>(), c, "deal must hand back exactly c balls");
        for i in 0..counts.len() {
            assert!(dealt[i] <= before[i], "cannot deal more than the pool held");
            assert_eq!(pool.count(i), before[i] - dealt[i], "pool must shrink by the dealt mass");
        }
        assert_eq!(pool.remaining(), counts.iter().sum::<u64>() - c);
        let left: Vec<u64> = (0..pool.len()).map(|i| pool.count(i)).collect();
        let mut drained = vec![0u64; counts.len()];
        while pool.remaining() > 0 {
            drained[pool.draw(&mut rng)] += 1;
        }
        assert_eq!(drained, left, "draws after a deal of {c} must drain the remaining counts");
    }
}

/// Chi-square of the Fenwick pool's with-replacement draw frequencies
/// against its own count vector (the exact categorical law it claims to
/// realize).
fn fenwick_sample_chi_square(cat: &FenwickPool, draws: u64, seed: u64) -> bool {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut observed = vec![0u64; cat.len()];
    for _ in 0..draws {
        observed[cat.sample(&mut rng)] += 1;
    }
    let total = cat.remaining() as f64;
    // Drop structural zeros (their expected count is 0 and they must
    // never be drawn — asserted slot by slot).
    let mut obs = Vec::new();
    let mut expected = Vec::new();
    for (i, &o) in observed.iter().enumerate() {
        let c = cat.count(i);
        if c == 0 {
            assert_eq!(o, 0, "empty slot {i} was drawn");
        } else {
            obs.push(o);
            expected.push(c as f64 / total * draws as f64);
        }
    }
    chi_square_gof(&obs, &expected, 5.0).within_sigma(5.0)
}

#[test]
fn fenwick_pool_fresh_matches_counts_chi_square() {
    // Built in one shot over a count vector with interior zeros: the
    // bit-descended draw must realize exactly the counts' law.
    let counts = [5u64, 0, 1, 17, 3, 0, 8, 2, 40, 0, 11];
    let cat = FenwickPool::new(&counts);
    assert_eq!(cat.remaining(), counts.iter().sum::<u64>());
    assert!(fenwick_sample_chi_square(&cat, 400_000, 41));
}
