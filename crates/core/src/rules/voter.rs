//! The Voter process (a.k.a. Polling): sample one node, adopt its opinion.
//!
//! Voter is the baseline AC-process with `α_i(c) = c_i / n` (Equation (1)).
//! The paper's Phase-1 analysis bounds 3-Majority by Voter, whose own
//! behaviour is controlled through the coalescing-random-walk duality
//! (Lemma 4, implemented in `symbreak-graphs`).

use rand::RngCore;

use crate::config::Configuration;
use crate::opinion::Opinion;
use crate::process::{ac_vector_step_into, AcProcess, SampleAccess, UpdateRule, VectorStep};

/// The Voter update rule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Voter;

impl Voter {
    /// Creates the rule.
    pub fn new() -> Self {
        Voter
    }
}

impl UpdateRule for Voter {
    fn name(&self) -> &'static str {
        "Voter"
    }

    fn sample_count(&self) -> usize {
        1
    }

    fn update(&self, _own: Opinion, samples: &[Opinion], _rng: &mut dyn RngCore) -> Opinion {
        samples[0]
    }

    /// Voter is *the* single-peer rule: the next opinion **is** the one
    /// drawn sample, so the shard wire path may skip sample
    /// materialization entirely.
    fn sample_access(&self) -> SampleAccess {
        SampleAccess::SinglePeer
    }
}

impl AcProcess for Voter {
    fn alpha(&self, c: &Configuration) -> Vec<f64> {
        c.fractions()
    }

    fn alpha_into(&self, c: &Configuration, out: &mut Vec<f64>) {
        let n = c.n() as f64;
        out.clear();
        out.extend(c.occupied_counts().map(|cnt| cnt as f64 / n));
    }
}

impl VectorStep for Voter {
    /// Allocation-free sparse step: `Mult(n, c/n)` over the occupied
    /// slots, `O(#occupied)` per round.
    fn vector_step_into(&self, c: &mut Configuration, rng: &mut dyn RngCore) {
        ac_vector_step_into(self, c, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use symbreak_sim::rng::Pcg64;

    #[test]
    fn alpha_is_fraction_vector() {
        let c = Configuration::from_counts(vec![3, 1, 0]);
        assert_eq!(Voter.alpha(&c), vec![0.75, 0.25, 0.0]);
    }

    #[test]
    fn update_copies_sample() {
        let mut rng = Pcg64::seed_from_u64(1);
        let out = Voter.update(Opinion::new(5), &[Opinion::new(2)], &mut rng);
        assert_eq!(out, Opinion::new(2));
    }

    #[test]
    fn vector_step_preserves_mass() {
        let mut rng = Pcg64::seed_from_u64(2);
        let c = Configuration::uniform(1000, 10);
        let next = Voter.vector_step(&c, &mut rng);
        assert_eq!(next.n(), 1000);
        assert_eq!(next.num_slots(), 10);
    }

    #[test]
    fn consensus_is_absorbing() {
        let mut rng = Pcg64::seed_from_u64(3);
        let c = Configuration::consensus(50, 4);
        let next = Voter.vector_step(&c, &mut rng);
        assert_eq!(next, c);
    }

    #[test]
    fn sample_count_is_one() {
        assert_eq!(Voter.sample_count(), 1);
        assert_eq!(Voter.name(), "Voter");
    }
}
