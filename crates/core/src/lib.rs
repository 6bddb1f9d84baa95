#![warn(missing_docs)]
//! `symbreak-core` — the consensus processes and comparison framework of
//! *"Ignore or Comply? On Breaking Symmetry in Consensus"* (Berenbrink,
//! Clementi, Elsässer, Kling, Mallmann-Trenn, Natale; PODC 2017).
//!
//! The paper studies synchronous pull-based consensus on the complete graph
//! of `n` anonymous nodes, comparing the **2-Choices** rule (ignore a
//! sample mismatch) with **3-Majority** (comply with a fresh sample), and
//! proves a polynomial separation between them from many-color
//! configurations. This crate implements:
//!
//! * [`config::Configuration`] — the state vector `c ∈ N₀^k`, `Σcᵢ = n`,
//!   occupancy-aware (occupied-slot list + cached observables), with the
//!   observables the analysis tracks (remaining colors, max support,
//!   bias, majorization) in `O(1)`.
//! * [`process`] — the AC-process abstraction of Definition 1
//!   ([`process::AcProcess`]) together with agent-level
//!   ([`process::UpdateRule`]) and expectation-level
//!   ([`process::ExpectedUpdate`]) semantics.
//! * [`rules`] — Voter, 2-Choices, 3-Majority (direct and the paper's
//!   2-Choices+Voter reformulation), h-Majority, 2-Median, and the
//!   undecided-state dynamics.
//! * [`engine`] — agent-level (`O(nh)`/round) and vectorized
//!   (allocation-free, `O(#occupied)`/round) engines with identical
//!   distributions.
//! * [`run`] — consensus runners and the hitting times `T^κ`.
//! * [`dominance`] — Definition 2 and the Lemma 2 inequality
//!   `α^{(3M)}(c) ⪰ α^{(V)}(c̃)`.
//! * [`theory`] — the paper's bound curves (Theorems 1/4/5/8, Lemma 3).
//! * [`counterexample`] — Appendix B in exact rational arithmetic.
//!
//! # Quickstart
//!
//! ```
//! use symbreak_core::config::Configuration;
//! use symbreak_core::engine::{Engine, VectorEngine};
//! use symbreak_core::rules::ThreeMajority;
//! use symbreak_core::run::{run_to_consensus, RunOptions};
//!
//! // 1024 nodes, every node its own color (leader election).
//! let start = Configuration::singletons(1024);
//! let mut engine = VectorEngine::new(ThreeMajority, start, 42);
//! let outcome = run_to_consensus(&mut engine, &RunOptions::default());
//! assert!(outcome.reached_consensus());
//! ```

pub mod config;
pub mod counterexample;
pub mod dominance;
pub mod engine;
pub mod opinion;
pub mod phases;
pub mod potential;
pub mod process;
pub mod rules;
pub mod run;
pub mod theory;

pub use config::Configuration;
pub use engine::{AgentEngine, Engine, VectorEngine};
pub use opinion::Opinion;
pub use process::{
    condensed_window_step_by_dealing, AcProcess, ExpectedUpdate, MultisetRule, SampleAccess,
    UpdateRule, VectorStep,
};
pub use run::{hitting_time_colors, run_to_consensus, RunOptions, RunOutcome};
