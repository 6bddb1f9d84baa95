//! Cross-validation of condensed (histogram-backed) shards against the
//! agent-backed baseline.
//!
//! A condensed shard never materializes its `local_n` agents: it steps a
//! local histogram by closed-form aggregate draws. That is a different
//! randomness consumption order, so the two representations cannot be
//! compared pathwise — but both realize exactly the Uniform Pull law, so
//! every distributional observable must agree. The tests here pin:
//!
//! * mean consensus times, condensed vs `ShardRepr::Agents`, within a
//!   Welch-style 5-sigma band (3-Majority, Voter, Undecided Dynamics,
//!   both dense and `k = n` singleton starts);
//! * per-seed determinism of condensed runs;
//! * *byte-exact* equality on the sub-path where the arbitration
//!   downgrades a `Histogram` request to agent-backed shards (ordered
//!   windows) — there the representations must coincide, not merely
//!   agree in law;
//! * byte-exact blindness of agent shards to the rule's declared
//!   access: a multiset or single-peer rule runs exactly as the same
//!   rule declared ordered-window;
//! * fault-layer semantics mode-identically preserved: inert plans are
//!   trajectory-invisible, palette-loss compensation and crash-rejoin
//!   conserve mass on histogram-backed shards;
//! * the condensed contract: every condensed rule, gear and report mode
//!   completes its rounds on the sorted-pairs path.

use rand::RngCore;
use symbreak_core::rules::{
    HMajority, ThreeMajority, TwoChoices, TwoMedian, UndecidedDynamics, Voter,
};
use symbreak_core::{Configuration, Opinion, SampleAccess, UpdateRule};
use symbreak_runtime::{
    Cluster, ClusterConfig, CrashSpec, FaultPlan, GearMode, ReportMode, ShardRepr, StopReason,
};
use symbreak_sim::run_trials;
use symbreak_stats::Summary;

/// Order-sensitive fold over the per-round observables; any divergence
/// in any round of the trajectory changes the digest.
fn trace_digest(trace: &symbreak_sim::trace::Trace) -> u64 {
    let mut acc = 0u64;
    for r in trace.rounds() {
        acc = acc
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(r.round)
            .wrapping_add((r.num_colors as u64) << 20)
            .wrapping_add(r.max_support << 40)
            .wrapping_add(r.bias);
    }
    acc
}

fn times_with_repr<R>(
    rule: R,
    start: &Configuration,
    trials: u64,
    seed: u64,
    repr: ShardRepr,
) -> Vec<u64>
where
    R: UpdateRule + Clone + Send + Sync,
{
    times_with_repr_gear(rule, start, trials, seed, repr, GearMode::Auto)
}

fn times_with_repr_gear<R>(
    rule: R,
    start: &Configuration,
    trials: u64,
    seed: u64,
    repr: ShardRepr,
    gear: GearMode,
) -> Vec<u64>
where
    R: UpdateRule + Clone + Send + Sync,
{
    let start = start.clone();
    run_trials(trials, seed, move |_t, s| {
        let cfg = ClusterConfig::new(3, s).with_shard_repr(repr).with_data_gear(gear);
        let cluster = Cluster::new(rule.clone(), &start, cfg);
        cluster.run_to_consensus(10_000_000).expect("consensus").consensus_round
    })
}

/// Asserts the two mean consensus times agree within a Welch-style
/// 5-sigma band on the difference of means.
fn assert_means_agree(name: &str, condensed: &[u64], agents: &[u64]) {
    let c = Summary::of_counts(condensed);
    let a = Summary::of_counts(agents);
    let tol = 5.0 * (c.std_err().powi(2) + a.std_err().powi(2)).sqrt() + 0.5;
    assert!(
        (c.mean() - a.mean()).abs() < tol,
        "{name}: condensed mean {} vs agents mean {} (tol {tol})",
        c.mean(),
        a.mean()
    );
}

// ---------------------------------------------------------------------
// Distributional agreement: condensed vs agent-backed, same law.
// ---------------------------------------------------------------------

#[test]
fn condensed_matches_agents_three_majority() {
    let start = Configuration::uniform(256, 8);
    let trials = 48;
    let condensed = times_with_repr(ThreeMajority, &start, trials, 11100, ShardRepr::Histogram);
    let agents = times_with_repr(ThreeMajority, &start, trials, 11200, ShardRepr::Agents);
    assert_means_agree("3-Majority", &condensed, &agents);
}

#[test]
fn condensed_matches_agents_three_majority_singletons() {
    // k = n is the worst case for condensation (#occupied = local_n at
    // the start) and drives the pull gear, the ordered→split dispatch
    // lifecycle, and the occupancy collapse — the full condensed round
    // path end to end.
    let start = Configuration::singletons(96);
    let trials = 48;
    let condensed = times_with_repr(ThreeMajority, &start, trials, 11300, ShardRepr::Histogram);
    let agents = times_with_repr(ThreeMajority, &start, trials, 11400, ShardRepr::Agents);
    assert_means_agree("3-Majority singletons", &condensed, &agents);
}

#[test]
fn condensed_matches_agents_voter() {
    // Voter consumes single peers: the condensed path is one multinomial
    // over the union weights per round, no per-node window walk.
    let start = Configuration::uniform(128, 8);
    let trials = 48;
    let condensed = times_with_repr(Voter, &start, trials, 11500, ShardRepr::Histogram);
    let agents = times_with_repr(Voter, &start, trials, 11600, ShardRepr::Agents);
    assert_means_agree("Voter", &condensed, &agents);
}

#[test]
fn condensed_matches_agents_undecided_dynamics() {
    // The undecided dynamics carries the UNDECIDED pseudo-opinion
    // outside the histogram slots; the condensed bookkeeping tracks it
    // as a separate mass that must flow through palettes, reports and
    // the closed-form step identically to the agent-backed path.
    let start = Configuration::from_counts(vec![70, 30]);
    let trials = 48;
    let condensed = times_with_repr(UndecidedDynamics, &start, trials, 11700, ShardRepr::Histogram);
    let agents = times_with_repr(UndecidedDynamics, &start, trials, 11800, ShardRepr::Agents);
    assert_means_agree("Undecided dynamics", &condensed, &agents);
}

// ---------------------------------------------------------------------
// The grouped condensed pull gear, pinned in law: with the data gear
// forced to pull on *both* representations, every round of the
// condensed run flows through the grouped consume (per-opinion
// hypergeometric blocks / per-ball dealing / pooled tally) while the agent
// run walks its nodes — the two must agree in distribution. One test
// per consume dispatch arm.
// ---------------------------------------------------------------------

#[test]
fn forced_pull_grouped_matches_agents_three_majority() {
    // Own-insensitive multiset rule from the k = n start: the condensed
    // pull round runs the single mega-block `condensed_window_step`
    // while the pool is concentrated, and the origin-interleaved flat
    // path while it is diverse — both arms stay pull-only under
    // `GearMode::ForcePull`.
    let start = Configuration::singletons(96);
    let trials = 48;
    let condensed = times_with_repr_gear(
        ThreeMajority,
        &start,
        trials,
        12100,
        ShardRepr::Histogram,
        GearMode::ForcePull,
    );
    let agents = times_with_repr_gear(
        ThreeMajority,
        &start,
        trials,
        12200,
        ShardRepr::Agents,
        GearMode::ForcePull,
    );
    assert_means_agree("3-Majority forced pull", &condensed, &agents);
}

#[test]
fn forced_pull_grouped_matches_agents_two_median() {
    // Own-sensitive multiset rule: the grouped consume cannot collapse
    // to one mega block. The singleton start's envelope bound already
    // exceeds the per-ball budget, so it deals per ball off the
    // palettes. The uniform start passes the envelope check, but its
    // exact pool (`d` ≈ 100 categories) times its 100 groups outnumbers
    // the `local_n · h` balls, so it takes the same per-ball dealing
    // once the tally has fixed `d`.
    for (start, trials, seed) in
        [(Configuration::singletons(96), 48, 12300), (Configuration::uniform(4000, 100), 24, 12350)]
    {
        let condensed = times_with_repr_gear(
            TwoMedian,
            &start,
            trials,
            seed,
            ShardRepr::Histogram,
            GearMode::ForcePull,
        );
        let agents = times_with_repr_gear(
            TwoMedian,
            &start,
            trials,
            seed + 100,
            ShardRepr::Agents,
            GearMode::ForcePull,
        );
        assert_means_agree("2-Median forced pull", &condensed, &agents);
    }
}

#[test]
fn forced_pull_grouped_matches_agents_undecided_dynamics() {
    // The undecided dynamics exercises the grouped per-(opinion-group)
    // split with the UNDECIDED pseudo-group carried outside the slots.
    let start = Configuration::from_counts(vec![70, 30]);
    let trials = 48;
    let condensed = times_with_repr_gear(
        UndecidedDynamics,
        &start,
        trials,
        12500,
        ShardRepr::Histogram,
        GearMode::ForcePull,
    );
    let agents = times_with_repr_gear(
        UndecidedDynamics,
        &start,
        trials,
        12600,
        ShardRepr::Agents,
        GearMode::ForcePull,
    );
    assert_means_agree("Undecided dynamics forced pull", &condensed, &agents);
}

#[test]
fn forced_pull_grouped_matches_agents_h_majority() {
    // h = 5 has no closed-form aggregate: the grouped consume falls
    // back to `condensed_window_step_by_dealing` (window splits per
    // group), which must still match the per-node agent walk in law.
    let start = Configuration::uniform(96, 6);
    let trials = 48;
    let condensed = times_with_repr_gear(
        HMajority::new(5),
        &start,
        trials,
        12700,
        ShardRepr::Histogram,
        GearMode::ForcePull,
    );
    let agents = times_with_repr_gear(
        HMajority::new(5),
        &start,
        trials,
        12800,
        ShardRepr::Agents,
        GearMode::ForcePull,
    );
    assert_means_agree("h-Majority (h = 5) forced pull", &condensed, &agents);
}

// ---------------------------------------------------------------------
// Determinism and seed-exact sub-paths.
// ---------------------------------------------------------------------

#[test]
fn condensed_runs_are_deterministic_per_seed() {
    let start = Configuration::singletons(96);
    let run = || {
        Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 99))
            .run_to_consensus(1_000_000)
            .expect("consensus")
    };
    let a = run();
    let b = run();
    assert_eq!(a.consensus_round, b.consensus_round);
    assert_eq!(a.total_messages, b.total_messages);
    assert_eq!(a.final_config, b.final_config);
    assert_eq!(trace_digest(&a.trace), trace_digest(&b.trace));
}

#[test]
fn ordered_window_downgrade_is_agent_exact() {
    // 2-Choices consumes an ordered sample window, so a `Histogram`
    // request arbitrates down to agent-backed shards: the two configs
    // must produce byte-identical runs, not merely the same law.
    let start = Configuration::singletons(128);
    let run = |repr| {
        let cfg = ClusterConfig::new(3, 7).with_shard_repr(repr);
        Cluster::new(TwoChoices, &start, cfg).run_horizon(30)
    };
    let hist = run(ShardRepr::Histogram);
    let agents = run(ShardRepr::Agents);
    assert_eq!(hist.total_messages, agents.total_messages);
    assert_eq!(hist.final_config, agents.final_config);
    assert_eq!(trace_digest(&hist.trace), trace_digest(&agents.trace));
}

/// Delegates every call to the wrapped rule but declares an ordered
/// window, whatever access the wrapped rule declares.
#[derive(Clone)]
struct AsOrderedWindow<R>(R);

impl<R: UpdateRule> UpdateRule for AsOrderedWindow<R> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn sample_count(&self) -> usize {
        self.0.sample_count()
    }

    fn update(&self, own: Opinion, samples: &[Opinion], rng: &mut dyn RngCore) -> Opinion {
        self.0.update(own, samples, rng)
    }

    fn sample_access(&self) -> SampleAccess {
        SampleAccess::OrderedWindow
    }
}

#[test]
fn agent_shards_ignore_the_rule_sample_access() {
    // Agent shards consume every rule by ordered dealing and one
    // `update` per node, so a multiset (3-Majority) or single-peer
    // (Voter) rule must run byte-identically to the same rule declared
    // ordered-window, in every gear.
    fn check<R: UpdateRule + Clone + Send + 'static>(rule: R, start: &Configuration) {
        for gear in [GearMode::Auto, GearMode::ForcePush, GearMode::ForcePull] {
            let cfg =
                ClusterConfig::new(3, 11).with_shard_repr(ShardRepr::Agents).with_data_gear(gear);
            let real = Cluster::new(rule.clone(), start, cfg.clone()).run_horizon(40);
            let ordered = Cluster::new(AsOrderedWindow(rule.clone()), start, cfg).run_horizon(40);
            assert_eq!(real.total_messages, ordered.total_messages, "{gear:?}");
            assert_eq!(real.final_config, ordered.final_config, "{gear:?}");
            assert_eq!(trace_digest(&real.trace), trace_digest(&ordered.trace), "{gear:?}");
        }
    }
    check(ThreeMajority, &Configuration::uniform(240, 6));
    check(Voter, &Configuration::uniform(240, 6));
}

#[test]
fn force_push_is_auto_exact_when_auto_arbitrates_push() {
    // From the uniform k = 8 start, `occ · shards² = 9 · 9 ≤ n · h =
    // 256 · 3` from round 1 and occupancy only falls, so the auto
    // arbitration picks push every round — forcing push must therefore
    // reproduce the auto run byte for byte, not merely in law.
    let start = Configuration::uniform(256, 8);
    let run = |gear| {
        let cfg = ClusterConfig::new(3, 21).with_data_gear(gear);
        Cluster::new(ThreeMajority, &start, cfg).run_to_consensus(1_000_000).expect("consensus")
    };
    let auto = run(GearMode::Auto);
    let forced = run(GearMode::ForcePush);
    assert_eq!(auto.consensus_round, forced.consensus_round);
    assert_eq!(auto.total_messages, forced.total_messages);
    assert_eq!(auto.final_config, forced.final_config);
    assert_eq!(trace_digest(&auto.trace), trace_digest(&forced.trace));
}

#[test]
fn ordered_window_downgrade_forced_pull_is_agent_exact() {
    // Ordered-window rules arbitrate down to agent-backed shards even
    // when a gear is forced: with `ForcePull` pinning both fleets to
    // the same gear sequence, the `Histogram` request and the explicit
    // `Agents` config must still coincide byte for byte.
    let start = Configuration::singletons(128);
    let run = |repr| {
        let cfg =
            ClusterConfig::new(3, 7).with_shard_repr(repr).with_data_gear(GearMode::ForcePull);
        Cluster::new(TwoChoices, &start, cfg).run_horizon(30)
    };
    let hist = run(ShardRepr::Histogram);
    let agents = run(ShardRepr::Agents);
    assert_eq!(hist.total_messages, agents.total_messages);
    assert_eq!(hist.final_config, agents.final_config);
    assert_eq!(trace_digest(&hist.trace), trace_digest(&agents.trace));
}

#[test]
fn condensed_forced_pull_is_deterministic_per_seed() {
    // The grouped pull consume (mega block, interleaved dealing, flat
    // tally) draws through the shard's owned stream only: two runs of
    // the same seed must coincide exactly even with the gear pinned to
    // the grouped path's worst case.
    let start = Configuration::singletons(96);
    let run = || {
        let cfg = ClusterConfig::new(4, 99).with_data_gear(GearMode::ForcePull);
        Cluster::new(ThreeMajority, &start, cfg).run_to_consensus(1_000_000).expect("consensus")
    };
    let a = run();
    let b = run();
    assert_eq!(a.consensus_round, b.consensus_round);
    assert_eq!(a.total_messages, b.total_messages);
    assert_eq!(a.final_config, b.final_config);
    assert_eq!(trace_digest(&a.trace), trace_digest(&b.trace));
}

// ---------------------------------------------------------------------
// Fault-layer semantics, mode-identically preserved.
// ---------------------------------------------------------------------

#[test]
fn inert_fault_plan_is_trajectory_invisible_under_condensation() {
    let start = Configuration::uniform(200, 8);
    let free = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 42))
        .run_to_consensus(1_000_000)
        .expect("consensus");
    let inert = Cluster::new(
        ThreeMajority,
        &start,
        ClusterConfig::new(4, 42).with_fault_plan(FaultPlan::none()),
    )
    .run_to_consensus(1_000_000)
    .expect("consensus");
    assert_eq!(inert.consensus_round, free.consensus_round);
    assert_eq!(inert.total_messages, free.total_messages);
    assert_eq!(trace_digest(&inert.trace), trace_digest(&free.trace));
}

#[test]
fn condensed_palette_loss_is_recovered_and_conserves_mass() {
    // Singleton start keeps the fleet in the pull gear, so the dropped
    // palettes hit the condensed serve path and the shard re-samples the
    // missing mass from its round-start histogram.
    let start = Configuration::singletons(96);
    let plan = FaultPlan::none().with_seed(3).with_palette_rates(0.25, 0.0, 0.0);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 17).with_fault_plan(plan))
        .run_to_consensus(1_000_000)
        .expect("consensus under palette loss");
    assert!(out.faults.palettes_dropped > 0);
    assert!(out.faults.recovered_samples > 0);
    assert_eq!(out.final_config.n(), 96);
    assert!(out.final_config.is_consensus());
}

#[test]
fn condensed_crash_rejoin_conserves_mass() {
    // Crash-stop and rejoin on histogram-backed shards: the rejoin body
    // is installed by copying counts (no dense recount), with the mass
    // check running over the sparse snapshot.
    let start = Configuration::uniform(200, 8);
    let plan = FaultPlan::none()
        .with_crash(CrashSpec { shard: 2, crash_round: 3, rejoin_round: Some(7) })
        .with_max_faulty(1);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 42).with_fault_plan(plan))
        .run_to_consensus(1_000_000)
        .expect("consensus after crash-rejoin");
    assert_eq!(out.faults.rejoins, 1);
    assert_eq!(out.final_config.n(), 200);
    assert!(out.final_config.is_consensus());
}

/// Runs `rule` on condensed shards under every gear and report mode
/// from a singleton, a concentrated and a mid-diversity start. The
/// worker asserts the condensed contract after every consume (debug
/// builds): no per-agent state, the output installed straight into the
/// sorted pairs, and no dense tally left behind. A round that slips
/// off that path panics its worker, which ends the fleet early with
/// `TransportLost` instead of at consensus or the horizon.
fn assert_condensed_rounds_hold_the_contract<R>(rule: R)
where
    R: UpdateRule + Clone + Send + Sync,
{
    let starts = [
        Configuration::singletons(96),
        Configuration::uniform(96, 4),
        Configuration::uniform(3072, 48),
    ];
    for start in &starts {
        for gear in [GearMode::Auto, GearMode::ForcePush, GearMode::ForcePull] {
            for mode in [ReportMode::Sparse, ReportMode::Delta] {
                let cfg = ClusterConfig::new(3, 41).with_data_gear(gear).with_report_mode(mode);
                let out = Cluster::new(rule.clone(), start, cfg).run_horizon(12);
                assert!(
                    matches!(out.stop, StopReason::Consensus | StopReason::HorizonExhausted),
                    "{} {gear:?} {mode:?} from n = {}: stopped with {:?}",
                    rule.name(),
                    start.n(),
                    out.stop
                );
            }
        }
    }
}

#[test]
fn condensed_contract_holds_for_three_majority() {
    assert_condensed_rounds_hold_the_contract(ThreeMajority);
}

#[test]
fn condensed_contract_holds_for_undecided_dynamics() {
    assert_condensed_rounds_hold_the_contract(UndecidedDynamics);
}

#[test]
fn condensed_contract_holds_for_two_median() {
    assert_condensed_rounds_hold_the_contract(TwoMedian);
}

#[test]
fn condensed_contract_holds_for_h_majority() {
    assert_condensed_rounds_hold_the_contract(HMajority::new(5));
}

#[test]
fn condensed_contract_holds_for_voter() {
    assert_condensed_rounds_hold_the_contract(Voter);
}
