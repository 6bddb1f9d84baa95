//! The Undecided-State dynamics \[BCN+15\]: a decided node that samples a
//! different color becomes *undecided*; an undecided node adopts the color
//! of the first decided node it samples.
//!
//! Included as the paper's related-work comparator. With a large enough
//! bias it reaches consensus in `O(k log n)` rounds, but — as the paper
//! notes — from the `k = n` singleton configuration a constant fraction of
//! nodes goes undecided immediately, and the process may need to recover.
//! Not an AC-process (the update depends on the node's own state), and its
//! state space is richer than a [`Configuration`]: it additionally tracks
//! the undecided count, so it has a bespoke [`UndecidedState`] with a
//! vectorized, allocation-free `O(#occupied)` step.

use rand::RngCore;

use crate::config::Configuration;
use crate::opinion::Opinion;
use crate::process::{with_step_scratch, MultisetRule, SampleAccess, UpdateRule};
use symbreak_sim::dist::{sample_multinomial_into, Binomial};

/// The undecided-dynamics update rule (agent-level form).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UndecidedDynamics;

impl UndecidedDynamics {
    /// Creates the rule.
    pub fn new() -> Self {
        UndecidedDynamics
    }
}

impl UpdateRule for UndecidedDynamics {
    fn name(&self) -> &'static str {
        "Undecided-State"
    }

    fn sample_count(&self) -> usize {
        1
    }

    fn update(&self, own: Opinion, samples: &[Opinion], _rng: &mut dyn RngCore) -> Opinion {
        let s = samples[0];
        if own.is_undecided() {
            // Try to find a real color.
            s
        } else if s.is_undecided() || s == own {
            own
        } else {
            Opinion::UNDECIDED
        }
    }

    fn sample_access(&self) -> SampleAccess {
        SampleAccess::Multiset
    }

    fn as_multiset(&self) -> Option<&dyn MultisetRule> {
        Some(self)
    }
}

impl MultisetRule for UndecidedDynamics {
    /// A one-sample window *is* its multiset; the rule is listed as a
    /// multiset consumer (not [`SampleAccess::SinglePeer`]) because a
    /// decided node reads its own state against the sample rather than
    /// adopting it outright.
    fn update_from_counts(
        &self,
        own: Opinion,
        counts: &[(Opinion, u32)],
        rng: &mut dyn RngCore,
    ) -> Opinion {
        debug_assert_eq!(counts.iter().map(|&(_, c)| c).sum::<u32>(), 1);
        self.update(own, &[counts[0].0], rng)
    }

    /// Closed-form aggregate over a one-sample window from `θ`:
    ///
    /// * a group decided on `j` keeps w.p. `θ_j + θ_undecided` (same
    ///   color, or an undecided sample) — one binomial per group, the
    ///   rest go undecided;
    /// * the undecided group adopts a `Mult(u, θ)` draw (an undecided
    ///   sample means staying undecided, which the draw covers because
    ///   [`Opinion::UNDECIDED`] is itself a `values` entry when its
    ///   weight is positive).
    fn condensed_push_step(
        &self,
        groups: &[(Opinion, u64)],
        values: &[Opinion],
        weights: &[f64],
        rng: &mut dyn RngCore,
        out: &mut Vec<(Opinion, u64)>,
    ) {
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            out.extend(groups.iter().copied().filter(|&(_, c)| c > 0));
            return;
        }
        let w_undecided = match values.last() {
            Some(o) if o.is_undecided() => *weights.last().unwrap(),
            _ => 0.0,
        };
        let mut next_undecided = 0u64;
        // `groups` and `values` are both ascending, so the own-weight
        // lookup is a single merged scan.
        let mut vi = 0usize;
        for &(own, count) in groups {
            if count == 0 {
                continue;
            }
            if own.is_undecided() {
                with_step_scratch(|s| {
                    s.aux_counts.clear();
                    s.aux_counts.resize(values.len(), 0);
                    sample_multinomial_into(count, weights, rng, &mut s.aux_counts);
                    for (j, &c) in s.aux_counts.iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        if values[j].is_undecided() {
                            next_undecided += c;
                        } else {
                            out.push((values[j], c));
                        }
                    }
                });
            } else {
                while vi < values.len() && values[vi] < own {
                    vi += 1;
                }
                let w_own = if vi < values.len() && values[vi] == own { weights[vi] } else { 0.0 };
                let p_keep = ((w_own + w_undecided) / total).clamp(0.0, 1.0);
                let keep = Binomial::new(count, p_keep).sample(rng);
                if keep > 0 {
                    out.push((own, keep));
                }
                next_undecided += count - keep;
            }
        }
        if next_undecided > 0 {
            out.push((Opinion::UNDECIDED, next_undecided));
        }
    }
}

/// Population state of the undecided dynamics: decided color counts plus
/// the undecided count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndecidedState {
    colors: Configuration,
    undecided: u64,
}

impl UndecidedState {
    /// Starts with all nodes decided according to `config`.
    pub fn new(config: Configuration) -> Self {
        Self { colors: config, undecided: 0 }
    }

    /// The decided-color counts.
    pub fn colors(&self) -> &Configuration {
        &self.colors
    }

    /// Number of undecided nodes.
    pub fn undecided(&self) -> u64 {
        self.undecided
    }

    /// Total population (decided + undecided).
    pub fn population(&self) -> u64 {
        self.colors.n() + self.undecided
    }

    /// Whether all nodes are decided on a single color.
    pub fn is_consensus(&self) -> bool {
        self.undecided == 0 && self.colors.is_consensus()
    }

    /// One synchronous round, vectorized and allocation-free in
    /// `O(#occupied colors)`:
    ///
    /// * decided on `j` → undecided with probability `(n − c_j − u)/n`
    ///   (sampled node decided on a different color);
    /// * undecided → color `i` with probability `c_i/n`, stays undecided
    ///   with probability `u/n`.
    ///
    /// Only occupied colors draw (an empty color has no nodes to lose and
    /// zero adoption probability), so the singleton-start recovery runs
    /// the paper remarks on scale with the surviving support, not `k`.
    pub fn step(&mut self, rng: &mut dyn RngCore) {
        let n = self.population();
        if n == 0 {
            return;
        }
        let nf = n as f64;
        let u = self.undecided;
        let mut next_undecided = 0u64;
        with_step_scratch(|s| {
            s.counts.clear();
            s.counts.extend(self.colors.occupied_counts());
            self.colors.rewrite_occupied(|occ, counts| {
                // Decided nodes: keep or go undecided.
                for (j, &i) in occ.iter().enumerate() {
                    let cj = s.counts[j];
                    let p_leave = ((n - cj - u) as f64 / nf).clamp(0.0, 1.0);
                    let leavers = Binomial::new(cj, p_leave).sample(rng);
                    counts[i as usize] = cj - leavers;
                    next_undecided += leavers;
                }

                // Undecided nodes: adopt a decided sample's color or stay
                // (weights: occupied colors + the stay-undecided slot).
                if u > 0 {
                    s.weights.clear();
                    s.weights.extend(s.counts.iter().map(|&c| c as f64 / nf));
                    s.weights.push(u as f64 / nf);
                    s.aux_counts.clear();
                    s.aux_counts.resize(s.weights.len(), 0);
                    sample_multinomial_into(u, &s.weights, rng, &mut s.aux_counts);
                    for (j, &i) in occ.iter().enumerate() {
                        counts[i as usize] += s.aux_counts[j];
                    }
                    next_undecided += s.aux_counts[occ.len()];
                }
            });
        });
        self.undecided = next_undecided;
        debug_assert_eq!(self.population(), n, "population must be conserved");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use symbreak_sim::rng::Pcg64;

    fn op(i: u32) -> Opinion {
        Opinion::new(i)
    }

    #[test]
    fn decided_node_keeps_on_same_or_undecided_sample() {
        let mut rng = Pcg64::seed_from_u64(1);
        let r = UndecidedDynamics;
        assert_eq!(r.update(op(3), &[op(3)], &mut rng), op(3));
        assert_eq!(r.update(op(3), &[Opinion::UNDECIDED], &mut rng), op(3));
    }

    #[test]
    fn decided_node_goes_undecided_on_conflict() {
        let mut rng = Pcg64::seed_from_u64(2);
        let out = UndecidedDynamics.update(op(3), &[op(4)], &mut rng);
        assert!(out.is_undecided());
    }

    #[test]
    fn undecided_node_adopts_sample() {
        let mut rng = Pcg64::seed_from_u64(3);
        let r = UndecidedDynamics;
        assert_eq!(r.update(Opinion::UNDECIDED, &[op(7)], &mut rng), op(7));
        assert!(r.update(Opinion::UNDECIDED, &[Opinion::UNDECIDED], &mut rng).is_undecided());
    }

    #[test]
    fn state_step_conserves_population() {
        let mut rng = Pcg64::seed_from_u64(4);
        let mut s = UndecidedState::new(Configuration::uniform(1000, 10));
        for _ in 0..50 {
            s.step(&mut rng);
            assert_eq!(s.population(), 1000);
        }
    }

    #[test]
    fn consensus_is_absorbing() {
        let mut rng = Pcg64::seed_from_u64(5);
        let mut s = UndecidedState::new(Configuration::consensus(100, 3));
        s.step(&mut rng);
        assert!(s.is_consensus());
        assert_eq!(s.undecided(), 0);
    }

    #[test]
    fn singleton_start_goes_mostly_undecided() {
        // The paper's remark: for k = n, a constant fraction becomes
        // undecided in one round (each node sees a different color w.p.
        // 1 − 1/n).
        let mut rng = Pcg64::seed_from_u64(6);
        let mut s = UndecidedState::new(Configuration::singletons(512));
        s.step(&mut rng);
        assert!(s.undecided() > 400, "expected most nodes undecided, got {}", s.undecided());
    }

    #[test]
    fn biased_two_color_run_reaches_consensus() {
        let mut rng = Pcg64::seed_from_u64(7);
        let mut s = UndecidedState::new(Configuration::from_counts(vec![700, 300]));
        let mut rounds = 0;
        while !s.is_consensus() && rounds < 10_000 {
            s.step(&mut rng);
            rounds += 1;
        }
        assert!(s.is_consensus(), "no consensus after {rounds} rounds");
        assert_eq!(s.colors().plurality(), op(0), "majority color should win");
    }

    #[test]
    fn vectorized_step_matches_agent_semantics_in_expectation() {
        // One vector round from a known state vs many agent-level updates.
        let config = Configuration::from_counts(vec![60, 40]);
        let trials = 20_000;
        let mut rng = Pcg64::seed_from_u64(8);
        let mut sum_c0 = 0u64;
        let mut sum_undecided = 0u64;
        for _ in 0..trials {
            let mut s = UndecidedState::new(config.clone());
            s.step(&mut rng);
            sum_c0 += s.colors().support(0);
            sum_undecided += s.undecided();
        }
        // Agent semantics: decided-0 keeps w.p. (60+0)/100 -> stays 0
        // unless sample is color 1 (p=0.4): E[c0'] = 60*0.6 = 36.
        // E[undecided'] = 60*0.4 + 40*0.6 = 48.
        let mean_c0 = sum_c0 as f64 / trials as f64;
        let mean_u = sum_undecided as f64 / trials as f64;
        assert!((mean_c0 - 36.0).abs() < 0.5, "mean c0 {mean_c0}");
        assert!((mean_u - 48.0).abs() < 0.5, "mean undecided {mean_u}");
    }

    #[test]
    fn name_and_samples() {
        assert_eq!(UndecidedDynamics.name(), "Undecided-State");
        assert_eq!(UndecidedDynamics.sample_count(), 1);
    }
}
