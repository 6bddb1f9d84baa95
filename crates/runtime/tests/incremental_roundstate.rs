//! Round-state lifecycle: incremental (delta-patched) samplers vs the
//! per-round rebuild baseline.
//!
//! `RoundStateMode::Incremental` keeps the push-gear union sampler and
//! the condensed serving palettes alive across rounds, patching them
//! from histogram deltas instead of re-deduplicating / re-aliasing from
//! scratch. The patched samplers are *distribution-exact* but consume
//! randomness in a different order, so — like the condensed-vs-agents
//! and gear comparisons — the two modes are compared in law, not
//! pathwise. The tests here pin:
//!
//! * the rebuild mode is the default and, forced explicitly, replays
//!   the PR 9 golden digests byte-for-byte (the incremental layer is
//!   invisible unless opted into);
//! * incremental runs are deterministic per seed and conserve mass
//!   through the delta-patched push rounds (including the UNDECIDED
//!   pseudo-slot's signed deltas);
//! * mean consensus times agree incremental-vs-rebuild within the
//!   Welch-style 5-sigma band, per rule;
//! * agent-backed shards take the delta push path (the stalled
//!   regime's venue): in-law agreement, per-seed determinism, and the
//!   wire collapse the deltas exist for;
//! * on the sub-paths where the incremental gate arbitrates itself off
//!   (active fault plans) or has nothing to patch (agent-backed pull
//!   gear) the two modes coincide byte-for-byte, not merely in law;
//! * the persistent Fenwick serving sampler (the pull-gear side of the
//!   incremental state) agrees with the rebuilt flat palette in law and
//!   stays per-seed deterministic under pipelined serving.

use symbreak_core::rules::{ThreeMajority, TwoChoices, UndecidedDynamics, Voter};
use symbreak_core::{Configuration, UpdateRule};
use symbreak_runtime::{Cluster, ClusterConfig, FaultPlan, GearMode, RoundStateMode, ShardRepr};
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

fn times_with_round_state<R>(
    rule: R,
    start: &Configuration,
    trials: u64,
    seed: u64,
    rs: RoundStateMode,
) -> Vec<u64>
where
    R: UpdateRule + Clone + Send + Sync,
{
    let start = start.clone();
    run_trials(trials, seed, move |_t, s| {
        let cfg = ClusterConfig::new(3, s).with_round_state(rs);
        let cluster = Cluster::new(rule.clone(), &start, cfg);
        cluster.run_to_consensus(10_000_000).expect("consensus").consensus_round
    })
}

/// Asserts the two mean observables agree within a Welch-style 5-sigma
/// band on the difference of means.
fn assert_means_agree(name: &str, incremental: &[u64], rebuild: &[u64]) {
    let i = Summary::of_counts(incremental);
    let r = Summary::of_counts(rebuild);
    let tol = 5.0 * (i.std_err().powi(2) + r.std_err().powi(2)).sqrt() + 0.5;
    assert!(
        (i.mean() - r.mean()).abs() < tol,
        "{name}: incremental mean {} vs rebuild mean {} (tol {tol})",
        i.mean(),
        r.mean()
    );
}

// ---------------------------------------------------------------------
// The rebuild baseline: default mode, byte-exact against the PR 9
// goldens when forced explicitly.
// ---------------------------------------------------------------------

#[test]
fn rebuild_is_the_default_round_state() {
    assert_eq!(RoundStateMode::default(), RoundStateMode::Rebuild);
    assert_eq!(
        ClusterConfig::new(4, 42),
        ClusterConfig::new(4, 42).with_round_state(RoundStateMode::Rebuild)
    );
}

#[test]
fn golden_three_majority_forced_rebuild_seed_exact() {
    let start = Configuration::uniform(200, 8);
    let config = ClusterConfig::new(4, 42)
        .with_shard_repr(ShardRepr::Agents)
        .with_round_state(RoundStateMode::Rebuild);
    let out =
        Cluster::new(ThreeMajority, &start, config).run_to_consensus(1_000_000).expect("consensus");
    assert_eq!(out.consensus_round, 20);
    assert_eq!(out.total_messages, 4320);
    assert_eq!(trace_digest(&out.trace), 0x4f42011c66704f4b);
}

#[test]
fn golden_two_choices_forced_rebuild_seed_exact() {
    let start = Configuration::singletons(128);
    let config = ClusterConfig::new(3, 7).with_round_state(RoundStateMode::Rebuild);
    let out = Cluster::new(TwoChoices, &start, config).run_horizon(30);
    assert_eq!(out.final_config.num_colors(), 96);
    assert_eq!(out.total_messages, 7950);
    assert_eq!(out.report_entries.iter().sum::<u64>(), 3696);
    assert_eq!(trace_digest(&out.trace), 0x9007113d1f373db1);
}

#[test]
fn golden_voter_forced_rebuild_seed_exact() {
    // The batched-wire Voter golden of `fault_properties.rs` (re-pinned
    // there when the per-entry wire was deleted).
    let start = Configuration::uniform(120, 6);
    let config = ClusterConfig::new(3, 9).with_round_state(RoundStateMode::Rebuild);
    let out = Cluster::new(Voter, &start, config).run_to_consensus(1_000_000).expect("consensus");
    assert_eq!(out.consensus_round, 388);
    assert_eq!(out.total_messages, 16614);
    assert_eq!(trace_digest(&out.trace), 0x4bf1e2c02a383ae6);
}

// ---------------------------------------------------------------------
// Incremental runs: deterministic, mass-conserving, consensus-reaching.
// ---------------------------------------------------------------------

#[test]
fn incremental_runs_are_deterministic_per_seed() {
    // Uniform k = 8 keeps the auto gear in push from round 1, so this
    // drives consecutive delta-patched push rounds end to end.
    let start = Configuration::uniform(256, 8);
    let run = || {
        let cfg = ClusterConfig::new(4, 99).with_round_state(RoundStateMode::Incremental);
        Cluster::new(ThreeMajority, &start, cfg).run_to_consensus(1_000_000).expect("consensus")
    };
    let a = run();
    let b = run();
    assert_eq!(a.consensus_round, b.consensus_round);
    assert_eq!(a.total_messages, b.total_messages);
    assert_eq!(a.final_config, b.final_config);
    assert_eq!(trace_digest(&a.trace), trace_digest(&b.trace));
}

#[test]
fn incremental_reaches_consensus_and_conserves_mass() {
    let start = Configuration::uniform(256, 8);
    let cfg = ClusterConfig::new(4, 5).with_round_state(RoundStateMode::Incremental);
    let out =
        Cluster::new(ThreeMajority, &start, cfg).run_to_consensus(1_000_000).expect("consensus");
    assert_eq!(out.final_config.n(), 256);
    assert!(out.final_config.is_consensus());
}

#[test]
fn incremental_conserves_mass_undecided_dynamics() {
    // The UNDECIDED pseudo-slot rides the delta palettes as a signed
    // count like any other slot; its mass must round-trip through the
    // patched union every round.
    let start = Configuration::from_counts(vec![70, 30]);
    let cfg = ClusterConfig::new(3, 23).with_round_state(RoundStateMode::Incremental);
    let out = Cluster::new(UndecidedDynamics, &start, cfg)
        .run_to_consensus(1_000_000)
        .expect("consensus");
    assert_eq!(out.final_config.n(), 100);
    assert!(out.final_config.is_consensus());
}

// ---------------------------------------------------------------------
// Distributional agreement: incremental vs rebuild, same law, per rule.
// ---------------------------------------------------------------------

#[test]
fn incremental_matches_rebuild_three_majority() {
    let start = Configuration::uniform(256, 8);
    let trials = 48;
    let inc =
        times_with_round_state(ThreeMajority, &start, trials, 13100, RoundStateMode::Incremental);
    let reb = times_with_round_state(ThreeMajority, &start, trials, 13200, RoundStateMode::Rebuild);
    assert_means_agree("3-Majority", &inc, &reb);
}

#[test]
fn incremental_matches_rebuild_three_majority_singletons() {
    // k = n start: the fleet opens in the pull gear (persistent Fenwick
    // serving) and shifts to push as occupancy collapses — the full
    // incremental round-state lifecycle, including the full-broadcast
    // re-arm after each gear flip.
    let start = Configuration::singletons(96);
    let trials = 48;
    let inc =
        times_with_round_state(ThreeMajority, &start, trials, 13300, RoundStateMode::Incremental);
    let reb = times_with_round_state(ThreeMajority, &start, trials, 13400, RoundStateMode::Rebuild);
    assert_means_agree("3-Majority singletons", &inc, &reb);
}

#[test]
fn incremental_matches_rebuild_voter() {
    let start = Configuration::uniform(128, 8);
    let trials = 48;
    let inc = times_with_round_state(Voter, &start, trials, 13500, RoundStateMode::Incremental);
    let reb = times_with_round_state(Voter, &start, trials, 13600, RoundStateMode::Rebuild);
    assert_means_agree("Voter", &inc, &reb);
}

#[test]
fn incremental_matches_rebuild_undecided_dynamics() {
    let start = Configuration::from_counts(vec![70, 30]);
    let trials = 48;
    let inc = times_with_round_state(
        UndecidedDynamics,
        &start,
        trials,
        13700,
        RoundStateMode::Incremental,
    );
    let reb =
        times_with_round_state(UndecidedDynamics, &start, trials, 13800, RoundStateMode::Rebuild);
    assert_means_agree("Undecided dynamics", &inc, &reb);
}

// ---------------------------------------------------------------------
// Agent-backed shards on the delta push path: the stalled regime's
// actual venue. Compared in law (the delta union consumes randomness
// in a different order than the broadcast union), plus per-seed
// determinism and the wire collapse the deltas exist for.
// ---------------------------------------------------------------------

#[test]
fn incremental_agent_push_matches_rebuild_in_law() {
    let start = Configuration::uniform(200, 8);
    let times = |seed, rs| {
        let start = start.clone();
        run_trials(48, seed, move |_t, s| {
            let cfg = ClusterConfig::new(4, s)
                .with_shard_repr(ShardRepr::Agents)
                .with_data_gear(GearMode::ForcePush)
                .with_round_state(rs);
            Cluster::new(ThreeMajority, &start, cfg)
                .run_to_consensus(10_000_000)
                .expect("consensus")
                .consensus_round
        })
    };
    let inc = times(13900, RoundStateMode::Incremental);
    let reb = times(14000, RoundStateMode::Rebuild);
    assert_means_agree("3-Majority agent-backed push", &inc, &reb);
}

#[test]
fn incremental_agent_push_is_deterministic_and_shrinks_the_wire() {
    // Singletons under 2-Choices: the stalled regime, where per-round
    // histogram deltas are tiny against the full broadcast.
    let start = Configuration::singletons(96);
    let run = |rs| {
        let cfg =
            ClusterConfig::new(3, 77).with_data_gear(GearMode::ForcePush).with_round_state(rs);
        Cluster::new(TwoChoices, &start, cfg).run_horizon(40)
    };
    let a = run(RoundStateMode::Incremental);
    let b = run(RoundStateMode::Incremental);
    assert_eq!(a.total_messages, b.total_messages);
    assert_eq!(a.final_config, b.final_config);
    assert_eq!(trace_digest(&a.trace), trace_digest(&b.trace));
    let reb = run(RoundStateMode::Rebuild);
    assert_eq!(a.final_config.n(), 96, "2-Choices never undecides: mass conserved");
    assert!(
        a.total_messages < reb.total_messages / 2,
        "delta push wire ({}) must collapse against the full broadcast ({})",
        a.total_messages,
        reb.total_messages
    );
}

// ---------------------------------------------------------------------
// Gate fallbacks: where the incremental state cannot apply, the mode
// must be byte-invisible, not merely agree in law.
// ---------------------------------------------------------------------

#[test]
fn incremental_is_byte_invisible_on_agent_pull_gear() {
    // The incremental state's persistent samplers live in the push
    // union and the condensed serving palette; an agent-backed fleet
    // held on the pull gear touches neither, so the mode must coincide
    // exactly with the rebuild baseline, not merely agree in law.
    let start = Configuration::uniform(200, 8);
    let run = |rs| {
        let cfg = ClusterConfig::new(4, 42)
            .with_shard_repr(ShardRepr::Agents)
            .with_data_gear(GearMode::ForcePull)
            .with_round_state(rs);
        Cluster::new(ThreeMajority, &start, cfg).run_to_consensus(1_000_000).expect("consensus")
    };
    let inc = run(RoundStateMode::Incremental);
    let reb = run(RoundStateMode::Rebuild);
    assert_eq!(inc.consensus_round, reb.consensus_round);
    assert_eq!(inc.total_messages, reb.total_messages);
    assert_eq!(inc.final_config, reb.final_config);
    assert_eq!(trace_digest(&inc.trace), trace_digest(&reb.trace));
}

#[test]
fn incremental_falls_back_byte_exact_under_active_fault_plan() {
    // Dropped palettes can desynchronize a persistent union from the
    // fleet's true histograms, so an active fault plan pins the fleet to
    // the rebuild path — byte-for-byte, same plan on both sides.
    let start = Configuration::uniform(256, 8);
    let plan = FaultPlan::none().with_seed(3).with_palette_rates(0.2, 0.0, 0.0);
    let run = |rs| {
        let cfg = ClusterConfig::new(4, 17).with_fault_plan(plan.clone()).with_round_state(rs);
        Cluster::new(ThreeMajority, &start, cfg).run_to_consensus(1_000_000).expect("consensus")
    };
    let inc = run(RoundStateMode::Incremental);
    let reb = run(RoundStateMode::Rebuild);
    assert_eq!(inc.consensus_round, reb.consensus_round);
    assert_eq!(inc.total_messages, reb.total_messages);
    assert_eq!(inc.final_config, reb.final_config);
    assert_eq!(trace_digest(&inc.trace), trace_digest(&reb.trace));
}

// ---------------------------------------------------------------------
// The persistent Fenwick serving sampler (pull gear): engaged when a
// batch's draw budget is small against `local_n`, i.e. many shards and
// thin per-batch totals.
// ---------------------------------------------------------------------

/// 16 shards over n = 3200 with Voter (h = 1) gives ~12 draws per
/// serve batch against `local_n` = 200, which lands the arbitration in
/// the Fenwick regime (`total * log k < local_n`) every round.
fn fenwick_regime_config(seed: u64, rs: RoundStateMode) -> ClusterConfig {
    ClusterConfig::new(16, seed).with_data_gear(GearMode::ForcePull).with_round_state(rs)
}

#[test]
fn incremental_fenwick_serving_matches_rebuild_in_law() {
    let start = Configuration::uniform(3200, 8);
    let trials = 32;
    let max_support_after = |seed_base: u64, rs: RoundStateMode| {
        let start = start.clone();
        run_trials(trials, seed_base, move |_t, s| {
            let out = Cluster::new(Voter, &start, fenwick_regime_config(s, rs)).run_horizon(30);
            assert_eq!(out.final_config.n(), 3200);
            out.trace.rounds().last().expect("rounds").max_support
        })
    };
    let inc = max_support_after(14100, RoundStateMode::Incremental);
    let reb = max_support_after(14200, RoundStateMode::Rebuild);
    assert_means_agree("Voter Fenwick serving (max support @30)", &inc, &reb);
}

#[test]
fn incremental_fenwick_serving_is_deterministic_per_seed() {
    // Pipelined serving answers pull batches in channel-arrival order;
    // the Fenwick draw must not condition on anything arrival-ordered,
    // so two same-seed runs coincide exactly.
    let start = Configuration::uniform(3200, 8);
    let run = || {
        Cluster::new(Voter, &start, fenwick_regime_config(77, RoundStateMode::Incremental))
            .run_horizon(30)
    };
    let a = run();
    let b = run();
    assert_eq!(a.total_messages, b.total_messages);
    assert_eq!(a.final_config, b.final_config);
    assert_eq!(trace_digest(&a.trace), trace_digest(&b.trace));
}
