#![warn(missing_docs)]
//! Deterministic simulation substrate for consensus-process experiments.
//!
//! The paper proves "with high probability" statements over the protocol's
//! own randomness on a synchronous complete graph. This crate supplies the
//! substrate for sampling that randomness exactly and reproducibly:
//!
//! * [`rng`] — seedable, splittable generators implemented in-house
//!   ([`rng::SplitMix64`], [`rng::Pcg64`]) so trajectories are bit-stable
//!   across `rand` version bumps; deterministic per-trial seed derivation.
//! * [`dist`] — exact discrete samplers built from scratch: binomial
//!   (inversion + BTRS rejection), multinomial (conditional-binomial,
//!   `O(k)`), categorical (Vose alias method, `O(1)` per draw), and
//!   without-replacement dealing (hypergeometric blocks, Fenwick pools).
//! * [`trace`] — round-by-round trajectory recording with CSV export.
//! * [`montecarlo`] — a deterministic, thread-parallel multi-trial driver.
//!
//! # Example
//!
//! ```
//! use symbreak_sim::rng::{Pcg64, trial_seed};
//! use symbreak_sim::dist::Binomial;
//! use rand::SeedableRng;
//!
//! let mut rng = Pcg64::seed_from_u64(trial_seed(42, 0));
//! let b = Binomial::new(1000, 0.25);
//! let x = b.sample(&mut rng);
//! assert!(x <= 1000);
//! ```

pub mod bundle;
pub mod dist;
pub mod montecarlo;
pub mod rng;
pub mod trace;

pub use bundle::{RoundAggregate, TraceBundle};
pub use dist::{Binomial, Categorical};
pub use montecarlo::run_trials;
pub use rng::{trial_seed, Pcg64, SplitMix64};
pub use trace::{RoundStats, Trace};
