//! Synchronous round engines.
//!
//! Two implementations of the same semantics:
//!
//! * [`AgentEngine`] — the literal model: every node pulls `h` uniformly
//!   random nodes and applies its [`UpdateRule`] to their opinions. `O(n·h)`
//!   per round; works for *every* rule, including non-AC processes, and
//!   never looks at how a rule reads its samples — it is the oracle.
//! * [`VectorEngine`] — the distributional shortcut: one draw from the
//!   exact one-step law, taken in place via
//!   [`VectorStep::vector_step_into`]. `O(#occupied colors)` per round and
//!   allocation-free; this is what makes the large-`n` sweeps — including
//!   the `k = n` singleton starts of Theorem 5 — feasible.
//!
//! Experiment E7 (and the cross-validation tests) confirm the two
//! agree distributionally, which is exactly the paper's observation that an
//! AC-process's one-step law is `Mult(n, α(c))`.

use rand::{Rng, SeedableRng};

use crate::config::Configuration;
use crate::opinion::Opinion;
use crate::process::{UpdateRule, VectorStep};
use symbreak_sim::rng::Pcg64;

/// A synchronous consensus-process engine.
pub trait Engine {
    /// Borrowed view of the current configuration (decided colors only).
    ///
    /// This is the cheap accessor the runners poll every round; cloning
    /// via [`Engine::configuration`] is only needed when the snapshot
    /// must outlive the engine.
    fn config_ref(&self) -> &Configuration;

    /// The current configuration (decided colors only), cloned.
    fn configuration(&self) -> Configuration {
        self.config_ref().clone()
    }

    /// Number of completed rounds.
    fn round(&self) -> u64;

    /// Advances one synchronous round.
    fn step(&mut self);

    /// Number of undecided nodes (0 for processes without an undecided
    /// state).
    fn undecided(&self) -> u64 {
        0
    }

    /// Number of remaining colors — `O(1)` from the configuration cache.
    fn num_colors(&self) -> usize {
        self.config_ref().num_colors()
    }

    /// Largest support — `O(1)` from the configuration cache.
    fn max_support(&self) -> u64 {
        self.config_ref().max_support()
    }

    /// Bias (gap between the two largest supports) — `O(1)` from the
    /// configuration cache.
    fn bias(&self) -> u64 {
        self.config_ref().bias()
    }

    /// Whether the system has reached consensus: all nodes decided on one
    /// color.
    fn is_consensus(&self) -> bool {
        self.undecided() == 0 && self.config_ref().is_consensus()
    }
}

/// Agent-level engine: simulates each node explicitly.
///
/// This is the literal Uniform Pull model for every rule: each node pulls
/// `h` uniformly random nodes (with replacement, possibly itself), reads
/// their opinions and applies [`UpdateRule::update`]. It is the oracle the
/// distributional shortcuts ([`VectorEngine`], the runtime's shards) are
/// checked against.
#[derive(Debug, Clone)]
pub struct AgentEngine<R> {
    rule: R,
    opinions: Vec<Opinion>,
    next_opinions: Vec<Opinion>,
    /// Decided-color counts as a full [`Configuration`], kept in sync
    /// incrementally by [`AgentEngine::record`] so the [`Engine`]
    /// observables need no per-round recount or clone.
    config: Configuration,
    undecided: u64,
    round: u64,
    rng: Pcg64,
}

impl<R: UpdateRule> AgentEngine<R> {
    /// Creates an engine with all nodes decided per `config`.
    pub fn new(rule: R, config: &Configuration, seed: u64) -> Self {
        let opinions = config.to_opinions();
        let next_opinions = opinions.clone();
        Self {
            rule,
            opinions,
            next_opinions,
            config: config.clone(),
            undecided: 0,
            round: 0,
            rng: Pcg64::seed_from_u64(seed),
        }
    }

    /// The per-node opinions of the current round.
    pub fn opinions(&self) -> &[Opinion] {
        &self.opinions
    }

    /// The rule driving this engine.
    pub fn rule(&self) -> &R {
        &self.rule
    }

    /// Records node `u`'s transition `own → new`, maintaining the
    /// incremental count/undecided bookkeeping (the configuration's
    /// derived caches are refreshed once per round in [`Engine::step`]).
    #[inline]
    fn record(&mut self, u: usize, own: Opinion, new: Opinion) {
        self.next_opinions[u] = new;
        if new != own {
            match (own.is_undecided(), new.is_undecided()) {
                (false, false) => {
                    self.config.shift_unit(Some(own.index()), Some(new.index()));
                }
                (false, true) => {
                    self.config.shift_unit(Some(own.index()), None);
                    self.undecided += 1;
                }
                (true, false) => {
                    self.undecided -= 1;
                    self.config.shift_unit(None, Some(new.index()));
                }
                (true, true) => unreachable!("new == own was excluded"),
            }
        }
    }
}

impl<R: UpdateRule> Engine for AgentEngine<R> {
    fn config_ref(&self) -> &Configuration {
        &self.config
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn undecided(&self) -> u64 {
        self.undecided
    }

    fn step(&mut self) {
        let n = self.opinions.len();
        if n > 0 {
            let mut samples = vec![Opinion::new(0); self.rule.sample_count()];
            for u in 0..n {
                for s in samples.iter_mut() {
                    // Uniform Pull: sample a uniformly random node (with
                    // replacement, possibly u itself) and read its opinion.
                    *s = self.opinions[self.rng.gen_range(0..n)];
                }
                let own = self.opinions[u];
                let new = self.rule.update(own, &samples, &mut self.rng);
                self.record(u, own, new);
            }
            std::mem::swap(&mut self.opinions, &mut self.next_opinions);
            // `record` defers every derived cache (an exact per-shift
            // occupancy list would make many-color rounds quadratic);
            // one O(k) rebuild per round keeps the observables exact and
            // is dominated by the O(n·h) round itself.
            self.config.rebuild_caches();
        }
        self.round += 1;
    }
}

/// Vectorized engine: one exact draw from the one-step law per round,
/// taken in place via [`VectorStep::vector_step_into`] — allocation-free
/// and `O(#occupied)` for the rules in this crate.
#[derive(Debug, Clone)]
pub struct VectorEngine<R> {
    rule: R,
    config: Configuration,
    round: u64,
    rng: Pcg64,
    compact: bool,
}

impl<R: VectorStep> VectorEngine<R> {
    /// Creates an engine starting from `config`.
    pub fn new(rule: R, config: Configuration, seed: u64) -> Self {
        Self { rule, config, round: 0, rng: Pcg64::seed_from_u64(seed), compact: false }
    }

    /// Enables zero-slot compaction after every round.
    ///
    /// Historically this was what kept long runs at `O(remaining colors)`
    /// per round; the occupancy-aware configuration now does that by
    /// itself, so this is a thin wrapper around the `O(#occupied)`
    /// [`Configuration::compact_in_place`] — kept because it also trims
    /// the dense buffer (memory) and renumbers colors exactly as before.
    /// Renumbering means: use only with permutation-invariant observables
    /// (see [`Configuration::compacted`]).
    pub fn with_compaction(mut self) -> Self {
        self.compact = true;
        self.config.compact_in_place();
        self
    }

    /// The rule driving this engine.
    pub fn rule(&self) -> &R {
        &self.rule
    }
}

impl<R: VectorStep> Engine for VectorEngine<R> {
    fn config_ref(&self) -> &Configuration {
        &self.config
    }

    fn round(&self) -> u64 {
        self.round
    }

    fn step(&mut self) {
        self.rule.vector_step_into(&mut self.config, &mut self.rng);
        if self.compact {
            self.config.compact_in_place();
        }
        self.round += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::{ThreeMajority, TwoChoices, UndecidedDynamics, Voter};

    #[test]
    fn agent_engine_preserves_population() {
        let c = Configuration::uniform(200, 8);
        let mut e = AgentEngine::new(ThreeMajority, &c, 1);
        for _ in 0..20 {
            e.step();
            let cfg = e.configuration();
            assert_eq!(cfg.n() + e.undecided(), 200);
        }
        assert_eq!(e.round(), 20);
    }

    #[test]
    fn vector_engine_preserves_population() {
        let c = Configuration::uniform(500, 10);
        let mut e = VectorEngine::new(Voter, c, 2);
        for _ in 0..20 {
            e.step();
            assert_eq!(e.configuration().n(), 500);
        }
    }

    #[test]
    fn consensus_detected_and_absorbing_agent() {
        let c = Configuration::consensus(50, 3);
        let mut e = AgentEngine::new(TwoChoices, &c, 3);
        assert!(e.is_consensus());
        e.step();
        assert!(e.is_consensus());
        assert_eq!(e.configuration().support(0), 50);
    }

    #[test]
    fn small_voter_run_reaches_consensus_both_engines() {
        let c = Configuration::uniform(40, 4);
        let mut agent = AgentEngine::new(Voter, &c, 4);
        let mut vector = VectorEngine::new(Voter, c, 5);
        for e in [&mut agent as &mut dyn Engine, &mut vector as &mut dyn Engine] {
            let mut rounds = 0;
            while !e.is_consensus() && rounds < 100_000 {
                e.step();
                rounds += 1;
            }
            assert!(e.is_consensus(), "no consensus after {rounds} rounds");
        }
    }

    #[test]
    fn incremental_counts_match_recount() {
        let c = Configuration::uniform(120, 6);
        let mut e = AgentEngine::new(ThreeMajority, &c, 6);
        for _ in 0..10 {
            e.step();
            let from_counts = e.configuration();
            let recounted = Configuration::from_opinions(e.opinions(), 6);
            assert_eq!(from_counts, recounted);
        }
    }

    #[test]
    fn undecided_tracked_by_agent_engine() {
        let c = Configuration::singletons(64);
        let mut e = AgentEngine::new(UndecidedDynamics, &c, 7);
        e.step();
        assert!(e.undecided() > 0, "singleton start must create undecided nodes");
        assert!(!e.is_consensus());
        assert_eq!(e.configuration().n() + e.undecided(), 64);
    }

    #[test]
    fn engines_deterministic_per_seed() {
        let c = Configuration::uniform(100, 5);
        let run = |seed: u64| {
            let mut e = AgentEngine::new(ThreeMajority, &c, seed);
            for _ in 0..5 {
                e.step();
            }
            e.configuration()
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn compaction_keeps_slots_equal_to_colors() {
        let c = Configuration::singletons(200);
        let mut e = VectorEngine::new(Voter, c, 9).with_compaction();
        let mut rounds = 0;
        while !e.is_consensus() && rounds < 100_000 {
            e.step();
            rounds += 1;
            let cfg = e.configuration();
            assert_eq!(cfg.num_slots(), cfg.num_colors(), "no dead slots after compaction");
            assert_eq!(cfg.n(), 200, "population preserved");
        }
        assert!(e.is_consensus(), "compacting engine still reaches consensus");
        assert_eq!(e.configuration().num_slots(), 1);
    }

    #[test]
    fn compaction_mean_consensus_time_matches_plain() {
        // Compaction must not change the process law: compare mean
        // consensus times of plain vs compacting engines over trials.
        let c = Configuration::singletons(64);
        let trials = 400u64;
        let mut sum_plain = 0u64;
        let mut sum_compact = 0u64;
        for t in 0..trials {
            let mut plain = VectorEngine::new(ThreeMajority, c.clone(), 50_000 + t);
            let mut compact =
                VectorEngine::new(ThreeMajority, c.clone(), 90_000 + t).with_compaction();
            for e in [&mut plain as &mut dyn Engine, &mut compact as &mut dyn Engine] {
                while !e.is_consensus() {
                    e.step();
                }
            }
            sum_plain += plain.round();
            sum_compact += compact.round();
        }
        let mp = sum_plain as f64 / trials as f64;
        let mc = sum_compact as f64 / trials as f64;
        assert!(
            (mp - mc).abs() < 0.15 * mp,
            "compaction changed the consensus-time law: {mp} vs {mc}"
        );
    }

    #[test]
    fn agent_vs_vector_one_step_means_agree() {
        // E7 in miniature: the one-round mean support of color 0 must agree
        // between the two engines for an AC process.
        let c = Configuration::from_counts(vec![30, 20, 10]);
        let trials = 4_000;
        let mut sum_agent = 0u64;
        let mut sum_vector = 0u64;
        for t in 0..trials {
            let mut a = AgentEngine::new(ThreeMajority, &c, 1000 + t);
            a.step();
            sum_agent += a.configuration().support(0);
            let mut v = VectorEngine::new(ThreeMajority, c.clone(), 2000 + t);
            v.step();
            sum_vector += v.configuration().support(0);
        }
        let ma = sum_agent as f64 / trials as f64;
        let mv = sum_vector as f64 / trials as f64;
        assert!((ma - mv).abs() < 0.5, "agent {ma} vs vector {mv}");
    }
}
