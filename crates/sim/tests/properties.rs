//! Property-based tests of the sampler invariants.

use proptest::prelude::*;
use rand::SeedableRng;
use symbreak_sim::dist::{sample_multinomial_into, Binomial, Categorical};
use symbreak_sim::rng::{trial_seed, Pcg64};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn binomial_sample_in_range(n in 0u64..10_000, p in 0.0f64..=1.0, seed in 0u64..10_000) {
        let mut rng = Pcg64::seed_from_u64(seed);
        let x = Binomial::new(n, p).sample(&mut rng);
        prop_assert!(x <= n);
    }

    #[test]
    fn binomial_extremes(n in 0u64..10_000, seed in 0u64..10_000) {
        let mut rng = Pcg64::seed_from_u64(seed);
        prop_assert_eq!(Binomial::new(n, 0.0).sample(&mut rng), 0);
        prop_assert_eq!(Binomial::new(n, 1.0).sample(&mut rng), n);
    }

    #[test]
    fn binomial_mirror_symmetry_in_distribution(seed in 0u64..500) {
        // Bin(n, p) and n − Bin(n, 1−p) have the same law; check means on
        // small batches.
        let n = 200u64;
        let p = 0.73;
        let mut rng_a = Pcg64::seed_from_u64(seed);
        let mut rng_b = Pcg64::seed_from_u64(seed + 100_000);
        let batch = 200;
        let ma: f64 = (0..batch).map(|_| Binomial::new(n, p).sample(&mut rng_a) as f64).sum::<f64>() / batch as f64;
        let mb: f64 = (0..batch)
            .map(|_| (n - Binomial::new(n, 1.0 - p).sample(&mut rng_b)) as f64)
            .sum::<f64>() / batch as f64;
        // Loose: both near np = 146 within 5 sigma of the batch mean.
        let sd = (n as f64 * p * (1.0 - p) / batch as f64).sqrt();
        prop_assert!((ma - 146.0).abs() < 5.0 * sd + 1.0);
        prop_assert!((mb - 146.0).abs() < 5.0 * sd + 1.0);
    }

    #[test]
    fn multinomial_counts_sum_to_n(
        n in 0u64..5_000,
        weights in proptest::collection::vec(0.01f64..5.0, 1..12),
        seed in 0u64..10_000,
    ) {
        let total: f64 = weights.iter().sum();
        let theta: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let mut rng = Pcg64::seed_from_u64(seed);
        // Stale contents must be overwritten, not added to.
        let mut x = vec![7u64; theta.len()];
        sample_multinomial_into(n, &theta, &mut rng, &mut x);
        prop_assert_eq!(x.iter().sum::<u64>(), n);
    }

    #[test]
    fn categorical_samples_only_supported_indices(
        weights in proptest::collection::vec(0.0f64..5.0, 2..10),
        seed in 0u64..10_000,
    ) {
        prop_assume!(weights.iter().sum::<f64>() > 0.1);
        let cat = Categorical::new(&weights);
        let mut rng = Pcg64::seed_from_u64(seed);
        for _ in 0..50 {
            let i = cat.sample(&mut rng);
            prop_assert!(i < weights.len());
            prop_assert!(weights[i] > 0.0, "sampled zero-weight category {i}");
        }
    }

    #[test]
    fn trial_seeds_distinct_for_distinct_trials(master in 0u64..1000, a in 0u64..1000, b in 0u64..1000) {
        if a != b {
            prop_assert_ne!(trial_seed(master, a), trial_seed(master, b));
        }
    }

    #[test]
    fn pcg_streams_reproducible(seed in 0u64..100_000) {
        use rand::RngCore;
        let mut a = Pcg64::seed_from_u64(seed);
        let mut b = Pcg64::seed_from_u64(seed);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
