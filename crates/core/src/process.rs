//! Process abstractions: anonymous consensus processes (Definition 1),
//! agent-level update rules, and expected one-step behaviour.
//!
//! The paper's key structural observation is that for an *AC-process* the
//! one-step law is multinomial: `P(c) ∼ Mult(n, α(c))`. Processes whose
//! update depends on the updating node's own opinion — notably 2-Choices —
//! are **not** AC-processes; they still implement [`UpdateRule`] (the
//! agent-level semantics) and [`ExpectedUpdate`] (the expectation, which
//! exists for every process), but not [`AcProcess`].

use rand::RngCore;

use crate::config::Configuration;
use crate::opinion::Opinion;

/// An anonymous consensus process `P_α` (Definition 1): each node
/// independently adopts opinion `i` with probability `α_i(c)`.
pub trait AcProcess {
    /// The process function `α : C → [0,1]^k`, returned over the `k`
    /// slots of `c`. Must be a probability vector.
    fn alpha(&self, c: &Configuration) -> Vec<f64>;

    /// Writes `α` restricted to the occupied slots of `c` into `out`
    /// (cleared first), aligned with [`Configuration::occupied`].
    ///
    /// Every process in the paper has `α_i(c) = 0` whenever `c_i = 0`
    /// (dead colors stay dead), so the restriction loses nothing.
    /// Processes whose `α` has a per-slot closed form override this to be
    /// allocation-free; the default gathers from [`AcProcess::alpha`].
    fn alpha_into(&self, c: &Configuration, out: &mut Vec<f64>) {
        let dense = self.alpha(c);
        out.clear();
        out.extend(c.occupied().iter().map(|&i| dense[i as usize]));
    }
}

/// What a rule actually reads of its per-round sample window — the
/// sample-consumption taxonomy the runtime's shard workers dispatch on.
///
/// `UpdateRule::update` hands every rule an *ordered* window, but most
/// rules consume strictly less, and every layer that materializes,
/// ships, or deals individual sample draws for them is doing wasted
/// per-draw work. The classification is a **contract**, not a hint:
/// the shard workers are free to (and do) deliver the declared access form
/// through samplers that never materialize the window, so a rule that
/// over-declares would silently change the process law.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SampleAccess {
    /// Reads the ordered sample sequence (or interleaves own-state with
    /// sample positions, like 2-Choices' "first two agree" test). The
    /// engines must materialize a window distributed as i.i.d. Uniform
    /// Pull draws. The default, and always safe.
    #[default]
    OrderedWindow,
    /// Reads only the **multiset** of the window: the rule implements
    /// [`MultisetRule`] and engines may deliver per-node count vectors
    /// drawn by window-splitting samplers instead of dealt sample
    /// sequences (lawful because i.i.d. windows are exchangeable).
    Multiset,
    /// Adopts a single uniform peer's opinion, ignoring its own state:
    /// `update(own, [s], _) == s` for every `own` and `s`. Engines may
    /// skip sample materialization entirely and write the drawn opinion
    /// (or a lawful dealing of a drawn opinion *multiset*) straight
    /// into the node state.
    SinglePeer,
}

/// Agent-level (per-node) update semantics under Uniform Pull.
///
/// Every process in the paper is expressible this way, including non-AC
/// processes whose outcome depends on the node's own opinion.
pub trait UpdateRule {
    /// Short display name, e.g. `"3-Majority"`.
    fn name(&self) -> &'static str;

    /// Number of uniform samples each node pulls per round.
    fn sample_count(&self) -> usize;

    /// Computes the node's next opinion from its own opinion and the pulled
    /// samples (`samples.len() == self.sample_count()`).
    ///
    /// The extra `rng` supports rules with internal randomness (e.g.
    /// 3-Majority's random tie-break). Implementations must not assume
    /// anything about node identity — only opinions are visible.
    fn update(&self, own: Opinion, samples: &[Opinion], rng: &mut dyn RngCore) -> Opinion;

    /// How this rule consumes its window — see [`SampleAccess`].
    ///
    /// Rules declaring [`SampleAccess::Multiset`] must also override
    /// [`UpdateRule::as_multiset`]; the shard workers assert the pairing.
    fn sample_access(&self) -> SampleAccess {
        SampleAccess::OrderedWindow
    }

    /// The multiset entry point, for rules declaring
    /// [`SampleAccess::Multiset`]. Returns `None` otherwise (the
    /// default).
    fn as_multiset(&self) -> Option<&dyn MultisetRule> {
        None
    }
}

/// A rule whose update depends on the window only through its multiset.
///
/// This is the agent-level analogue of tracking configurations instead
/// of agents: collapsing a window to its histogram is lawful exactly
/// because i.i.d. windows are exchangeable, and it converts every layer
/// that delivers samples from per-draw to per-(node, distinct-color)
/// work. Implementations must agree **in law** with
/// [`UpdateRule::update`] over any window with the given histogram —
/// pinned for every rule in this crate by the exchangeability proptest
/// in `tests/multiset_law.rs`.
pub trait MultisetRule: UpdateRule {
    /// Computes the node's next opinion from its own opinion and the
    /// window's histogram: `counts` lists `(opinion, multiplicity)`
    /// pairs with distinct opinions (order unspecified) whose
    /// multiplicities sum to [`UpdateRule::sample_count`]. Entries may
    /// include [`Opinion::UNDECIDED`]
    /// (for the undecided-state dynamics).
    fn update_from_counts(
        &self,
        own: Opinion,
        counts: &[(Opinion, u32)],
        rng: &mut dyn RngCore,
    ) -> Opinion;

    /// One synchronous push-gear round over a *condensed* shard: every
    /// node draws an i.i.d. `Mult(h, θ)` window from the categorical
    /// with `values`/`weights` support and updates, but only the
    /// resulting opinion **multiset** is produced.
    ///
    /// `groups` lists the stepping population as `(own, count)` pairs
    /// with distinct opinions ascending; `values` are the distinct
    /// sample opinions, strictly ascending (so [`Opinion::UNDECIDED`],
    /// when present, is last), with positive `weights` aligned to them.
    /// Appends `(opinion, count)` pairs to `out` — entries may repeat;
    /// callers tally.
    ///
    /// Must agree in law with `count` independent
    /// [`MultisetRule::update_from_counts`] calls over i.i.d.
    /// `Mult(h, θ)` windows per group. The default realizes exactly
    /// that, one node at a time; rules with a closed-form aggregate law
    /// (3-Majority's Equation-2 multinomial, the undecided dynamics'
    /// binomial splits, 2-Median's CDF cascade) override it to run in
    /// `O(#values)` instead of `O(Σ counts · h)`.
    fn condensed_push_step(
        &self,
        groups: &[(Opinion, u64)],
        values: &[Opinion],
        weights: &[f64],
        rng: &mut dyn RngCore,
        out: &mut Vec<(Opinion, u64)>,
    ) {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]), "values must be ascending");
        let nodes: u64 = groups.iter().map(|&(_, c)| c).sum();
        if nodes == 0 {
            return;
        }
        let walk = symbreak_sim::dist::WindowMultinomial::new(weights, self.sample_count());
        let mut window: Vec<(Opinion, u32)> = Vec::with_capacity(self.sample_count());
        for &(own, count) in groups {
            for _ in 0..count {
                window.clear();
                walk.sample_window(rng, |j, x| {
                    window.push((values[j], x as u32));
                });
                let next = self.update_from_counts(own, &window, rng);
                match out.iter_mut().find(|e| e.0 == next) {
                    Some(e) => e.1 += 1,
                    None => out.push((next, 1)),
                }
            }
        }
    }

    /// Whether [`MultisetRule::update_from_counts`] ignores `own` — the
    /// rule is an AC-process at window level (3-Majority, h-Majority).
    ///
    /// A condensed shard reads this once, when it is built: the pull
    /// rounds of an own-insensitive rule may consume the whole pool as
    /// one block, one [`MultisetRule::condensed_window_step`] call for
    /// every node, because the outcome law does not depend on which
    /// node a window was dealt to. Every other rule's pull rounds deal
    /// per ball. Defaults to `false` (always safe).
    fn own_insensitive(&self) -> bool {
        false
    }

    /// A pooled block of a synchronous *pull*-gear round over a
    /// condensed shard — the without-replacement sibling of
    /// [`MultisetRule::condensed_push_step`]: `count` nodes of opinion
    /// `own` jointly consume `block`, the exact histogram of their
    /// `count·h` pooled sample draws, and only the resulting opinion
    /// **multiset** is produced. The runtime calls it once per pull
    /// round, on the whole pool, and only for
    /// [own-insensitive](MultisetRule::own_insensitive) rules, whose
    /// `own` it ignores.
    ///
    /// `values` are the distinct sample opinions, strictly ascending (so
    /// [`Opinion::UNDECIDED`], when present, is last), with `block`
    /// aligned to them; `block` sums to `count · h` and is destroyed by
    /// the call (left in an unspecified state). Appends
    /// `(opinion, count)` pairs to `out` — entries may repeat; callers
    /// tally.
    ///
    /// Must agree **in law** with dealing `block` into `count` uniform
    /// without-replacement `h`-windows (one [`GroupSplitter`] block of
    /// `h` per window, the multivariate-hypergeometric law) and applying
    /// [`MultisetRule::update_from_counts`] per window — the default
    /// realizes exactly that, one window at a time. 3-Majority and
    /// h-Majority (`h ≤ 3`) override it with an exact aggregate law
    /// that runs in `O(#values)`-ish instead of `O(count · h)`, which
    /// is what makes their condensed pull rounds as cheap as push
    /// rounds.
    ///
    /// [`GroupSplitter`]: symbreak_sim::dist::GroupSplitter
    fn condensed_window_step(
        &self,
        own: Opinion,
        count: u64,
        values: &[Opinion],
        block: &mut [u64],
        rng: &mut dyn RngCore,
        out: &mut Vec<(Opinion, u64)>,
    ) {
        condensed_window_step_by_dealing(self, own, count, values, block, rng, out);
    }
}

/// The reference realization of [`MultisetRule::condensed_window_step`]:
/// deal the pooled block into `count` uniform without-replacement
/// `h`-windows and update each — exact for every multiset rule, and the
/// law every aggregate override must match. Public so overrides can fall
/// back to it for parameters outside their closed form (h-Majority at
/// `h ≥ 4`) and so law tests can pin aggregate paths against it.
pub fn condensed_window_step_by_dealing<M: MultisetRule + ?Sized>(
    rule: &M,
    own: Opinion,
    count: u64,
    values: &[Opinion],
    block: &mut [u64],
    rng: &mut dyn RngCore,
    out: &mut Vec<(Opinion, u64)>,
) {
    debug_assert!(values.windows(2).all(|w| w[0] < w[1]), "values must be ascending");
    debug_assert_eq!(values.len(), block.len(), "block must align with values");
    if count == 0 {
        return;
    }
    let h = rule.sample_count() as u64;
    debug_assert_eq!(block.iter().sum::<u64>(), count * h, "block mass must be count·h");
    let mut splitter = symbreak_sim::dist::GroupSplitter::new(block);
    let mut window: Vec<(Opinion, u32)> = Vec::with_capacity(h as usize);
    for _ in 0..count {
        window.clear();
        splitter.draw_block(h, rng, |j, x| window.push((values[j], x as u32)));
        let next = rule.update_from_counts(own, &window, rng);
        match out.iter_mut().find(|e| e.0 == next) {
            Some(e) => e.1 += 1,
            None => out.push((next, 1)),
        }
    }
}

impl UpdateRule for Box<dyn UpdateRule> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn sample_count(&self) -> usize {
        (**self).sample_count()
    }

    fn update(&self, own: Opinion, samples: &[Opinion], rng: &mut dyn RngCore) -> Opinion {
        (**self).update(own, samples, rng)
    }

    fn sample_access(&self) -> SampleAccess {
        (**self).sample_access()
    }

    fn as_multiset(&self) -> Option<&dyn MultisetRule> {
        (**self).as_multiset()
    }
}

/// The expected next configuration, as fractions.
///
/// For an AC-process this equals `α(c)`; for 2-Choices it is computed
/// directly. Footnote 2 of the paper: 2-Choices and 3-Majority have the
/// *same* expectation `x_i² + (1 − Σ x_j²)·x_i`.
pub trait ExpectedUpdate {
    /// Expected fractions after one round from configuration `c`.
    fn expected_fractions(&self, c: &Configuration) -> Vec<f64>;
}

/// Blanket: every AC-process's expectation is its process function.
impl<P: AcProcess> ExpectedUpdate for P {
    fn expected_fractions(&self, c: &Configuration) -> Vec<f64> {
        self.alpha(c)
    }
}

/// A process with a vectorized one-step sampler.
///
/// For AC-processes this is `Mult(n, α(c))`; 2-Choices and the undecided
/// dynamics have bespoke decompositions. The vector step must be
/// distributionally identical to one synchronous agent-level round — the
/// test-suite cross-validates this against the literal [`AgentEngine`]
/// (Experiment E7).
///
/// [`VectorStep::vector_step_into`] is the one sampler: it advances a
/// configuration in place, and the rules in this crate implement it with
/// allocation-free `O(#occupied)` draws. [`VectorStep::vector_step`] is
/// the same draw on a copy.
///
/// [`AgentEngine`]: crate::engine::AgentEngine
pub trait VectorStep {
    /// Advances `c` to the next configuration in place.
    fn vector_step_into(&self, c: &mut Configuration, rng: &mut dyn RngCore);

    /// Samples the next configuration from `c`: a clone advanced by
    /// [`VectorStep::vector_step_into`].
    fn vector_step(&self, c: &Configuration, rng: &mut dyn RngCore) -> Configuration {
        let mut next = c.clone();
        self.vector_step_into(&mut next, rng);
        next
    }
}

/// Reusable per-thread buffers for allocation-free sparse steps.
///
/// A rule's `vector_step_into` takes `&self` and `&mut Configuration`,
/// so per-step working memory cannot live in either; it lives here,
/// borrowed for the duration of one step via [`with_step_scratch`].
#[derive(Debug, Default)]
pub(crate) struct StepScratch {
    /// Old per-occupied-slot counts (snapshot taken before rewriting).
    pub counts: Vec<u64>,
    /// Secondary count buffer (e.g. the undecided dynamics' adoption
    /// draw).
    pub aux_counts: Vec<u64>,
    /// Tertiary count buffer (e.g. 2-Median's per-group up-mover
    /// counts, drawn in the trinomial pass before the ascending cascade
    /// consumes them).
    pub aux_counts2: Vec<u64>,
    /// Slot indices drawn one per trial (e.g. the 2-Choices movers'
    /// targets).
    pub targets: Vec<u32>,
    /// Per-occupied-slot weights for the one-step sampler.
    pub weights: Vec<f64>,
    /// Secondary float buffer (e.g. 2-Median's CDF over occupied values).
    pub aux: Vec<f64>,
    /// Reusable alias table for the ball-drop multinomial form (built
    /// lazily; `rebuild` keeps its buffers across rounds).
    pub alias: Option<symbreak_sim::dist::Categorical>,
    /// Equal-weight classes for 3-Majority's class-wise `Mult(n, α)`.
    pub classes: symbreak_sim::dist::WeightClasses,
}

/// Times the thread-local scratch fallback allocated fresh buffers
/// because both slots were already borrowed (three-deep nesting). Debug
/// builds count it so a hot loop cannot hide in the fallback; release
/// builds keep the counter at zero cost by not maintaining it.
#[cfg(debug_assertions)]
static SCRATCH_FALLBACKS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Number of fresh-buffer scratch fallbacks so far on any thread
/// (debug builds only; always 0 in release builds). Read by the
/// scratch-nesting test; dead in non-test builds by design.
#[cfg(debug_assertions)]
#[allow(dead_code)]
pub(crate) fn scratch_fallback_count() -> u64 {
    SCRATCH_FALLBACKS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Runs `f` with one of this thread's **two** step-scratch slots. A
/// nested step (a rule stepping inside another rule's scratch closure —
/// e.g. a composite rule delegating mid-step) gets the second slot with
/// its buffers intact across calls, so one level of re-entrancy stays
/// allocation-free. Deeper nesting falls back to fresh buffers; debug
/// builds count those fallbacks ([`scratch_fallback_count`]) so a hot
/// loop cannot silently hide in the fallback.
pub(crate) fn with_step_scratch<T>(f: impl FnOnce(&mut StepScratch) -> T) -> T {
    thread_local! {
        static SCRATCH: [std::cell::RefCell<StepScratch>; 2] =
            [std::cell::RefCell::new(StepScratch::default()),
             std::cell::RefCell::new(StepScratch::default())];
    }
    SCRATCH.with(|slots| {
        for slot in slots {
            if let Ok(mut scratch) = slot.try_borrow_mut() {
                return f(&mut scratch);
            }
        }
        #[cfg(debug_assertions)]
        SCRATCH_FALLBACKS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        f(&mut StepScratch::default())
    })
}

/// `Mult(n, θ)` over `d` positive categories is drawn by ball-drop
/// tally when `n < BALL_DROP_FACTOR · d`, by the conditional-binomial
/// walk otherwise. The walk pays one binomial construction
/// (transcendentals included) per category; a tally pays one `O(1)`
/// alias draw per trial plus an `O(d)` table build — so the tally wins
/// until trials outnumber categories by roughly the cost ratio of those
/// two units.
pub(crate) const BALL_DROP_FACTOR: u64 = 8;

/// Whether the ball-drop form wins for `n` trials over `d` positive
/// categories. Deterministic in round state, so dispatching on it keeps
/// trajectories seed-reproducible.
pub(crate) fn ball_drop_wins(n: u64, d: usize) -> bool {
    n < BALL_DROP_FACTOR * d as u64
}

/// The shared sparse one-step sampler for AC-processes: draws
/// `P(c) ∼ Mult(n, α(c))` over the occupied slots only, in place.
///
/// The draw form is dispatched per round: the conditional-binomial walk
/// when trials dominate the occupancy, the ball-drop tally otherwise
/// ([`ball_drop_wins`]) — which is what keeps the `k = n` singleton
/// start's early rounds from paying one binomial construction per
/// occupied slot. Both forms are exactly `Mult(n, α)`.
pub(crate) fn ac_vector_step_into<P: AcProcess + ?Sized>(
    process: &P,
    c: &mut Configuration,
    rng: &mut dyn RngCore,
) {
    let n = c.n();
    with_step_scratch(|s| {
        process.alpha_into(c, &mut s.weights);
        let ball_drop = ball_drop_wins(n, c.num_colors());
        if ball_drop {
            let table = match &mut s.alias {
                Some(table) => {
                    table.rebuild(&s.weights);
                    table
                }
                none => none.insert(symbreak_sim::dist::Categorical::new(&s.weights)),
            };
            c.rewrite_occupied(|occ, counts| {
                for &i in occ {
                    counts[i as usize] = 0;
                }
                symbreak_sim::dist::sample_multinomial_tally_into(n, table, occ, rng, counts);
            });
        } else {
            c.rewrite_occupied(|occ, counts| {
                for &i in occ {
                    counts[i as usize] = 0;
                }
                symbreak_sim::dist::sample_multinomial_sparse_into(n, &s.weights, occ, rng, counts);
            });
        }
    });
    debug_assert_eq!(c.n(), n, "AC step must preserve the population");
}

/// Validates that `alpha` is a probability vector (panics otherwise).
/// Used in debug assertions and tests.
pub fn assert_probability_vector(alpha: &[f64]) {
    let mut total = 0.0;
    for (i, &a) in alpha.iter().enumerate() {
        assert!(a.is_finite() && (-1e-12..=1.0 + 1e-9).contains(&a), "alpha[{i}] = {a} invalid");
        total += a;
    }
    assert!((total - 1.0).abs() < 1e-7, "alpha sums to {total}, expected 1");
}

#[cfg(test)]
mod tests {
    use super::*;

    struct ConstantProcess;

    impl AcProcess for ConstantProcess {
        fn alpha(&self, c: &Configuration) -> Vec<f64> {
            let k = c.num_slots();
            vec![1.0 / k as f64; k]
        }
    }

    #[test]
    fn blanket_expected_update_for_ac() {
        let c = Configuration::uniform(10, 4);
        let p = ConstantProcess;
        assert_eq!(p.expected_fractions(&c), p.alpha(&c));
    }

    #[test]
    fn probability_vector_validation_accepts_valid() {
        assert_probability_vector(&[0.25, 0.75]);
        assert_probability_vector(&[1.0]);
        assert_probability_vector(&[0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "sums to")]
    fn probability_vector_validation_rejects_bad_sum() {
        assert_probability_vector(&[0.5, 0.6]);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn probability_vector_validation_rejects_negative() {
        assert_probability_vector(&[-0.5, 1.5]);
    }

    #[test]
    fn default_sample_access_is_ordered_without_multiset_entry() {
        struct Plain;
        impl UpdateRule for Plain {
            fn name(&self) -> &'static str {
                "plain"
            }
            fn sample_count(&self) -> usize {
                1
            }
            fn update(&self, own: Opinion, _s: &[Opinion], _r: &mut dyn RngCore) -> Opinion {
                own
            }
        }
        assert_eq!(Plain.sample_access(), SampleAccess::OrderedWindow);
        assert!(Plain.as_multiset().is_none());
    }

    #[test]
    fn nested_step_scratch_uses_second_slot_without_fallback() {
        // One level of nesting must be served by the second thread-local
        // slot; only a third simultaneous borrow takes the counted
        // fresh-buffer fallback.
        #[cfg(debug_assertions)]
        let before = scratch_fallback_count();
        with_step_scratch(|outer| {
            outer.counts.push(1);
            with_step_scratch(|inner| {
                inner.counts.push(2);
                assert_ne!(outer.counts.as_ptr(), inner.counts.as_ptr());
            });
        });
        #[cfg(debug_assertions)]
        assert_eq!(scratch_fallback_count(), before, "two-deep nesting must not fall back");
        #[cfg(debug_assertions)]
        {
            with_step_scratch(|_| {
                with_step_scratch(|_| {
                    with_step_scratch(|_| {});
                });
            });
            assert_eq!(scratch_fallback_count(), before + 1, "three-deep nesting is counted");
        }
    }

    #[test]
    fn ball_drop_predicate_flips_with_occupancy() {
        // Singleton start: trials == occupancy, tally form.
        assert!(ball_drop_wins(1000, 1000));
        // Concentrated: trials dwarf occupancy, walk form.
        assert!(!ball_drop_wins(1000, 2));
        assert!(!ball_drop_wins(0, 0));
    }
}
