//! The consensus processes studied (or cited) by the paper.
//!
//! The `Access` column is the sample-consumption taxonomy
//! ([`crate::process::SampleAccess`]): what each rule actually reads of
//! its window, which is what the cluster wire path dispatches on
//! ([`crate::AgentEngine`] runs every rule literally).
//!
//! | Process | AC? | Samples | Access | Reference |
//! |---------|-----|---------|--------|-----------|
//! | [`Voter`] | yes | 1 | single peer | Section 1, Eq. (1) |
//! | [`TwoChoices`] | **no** | 2 | ordered window | Section 1 ("ignore") |
//! | [`ThreeMajority`] | yes | 3 | multiset | Section 1, Eq. (2) ("comply") |
//! | [`ThreeMajorityAlt`] | yes | 3 | ordered window | Section 1's reformulation |
//! | [`HMajority`] | yes | h | multiset | Section 5 / Conjecture 1 |
//! | [`LazyVoter`] | **no** | 1 | ordered window | \[BGKMT16\], Lemma 3 discussion |
//! | [`TwoMedian`] | no | 2 | multiset | \[DGM+11\], related work |
//! | [`UndecidedDynamics`] | no | 1 | multiset | \[BCN+15\], related work |
//!
//! 2-Choices is the genuine ordered-window consumer (its "first two
//! agree" test is positional against the node's own state);
//! [`ThreeMajorityAlt`] is *defined* positionally (2-Choices with a
//! Voter fallback), so it keeps the ordered contract even though its
//! law equals 3-Majority's; [`LazyVoter`] reads its own state on the
//! lazy branch, so it cannot adopt the single-peer shortcut.

mod h_majority;
mod lazy_voter;
mod three_majority;
mod two_choices;
mod two_median;
mod undecided;
mod voter;

pub use h_majority::{plurality_with_random_ties, HMajority};
pub use lazy_voter::LazyVoter;
pub use three_majority::{alpha_three_majority, ThreeMajority, ThreeMajorityAlt};
pub use two_choices::TwoChoices;
pub use two_median::TwoMedian;
pub use undecided::{UndecidedDynamics, UndecidedState};
pub use voter::Voter;
