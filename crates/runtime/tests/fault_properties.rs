//! Fault-injection layer tests: seed-exactness of inert plans, fault
//! tolerance and degradation semantics of active ones.
//!
//! The golden tests pin the exact trajectory of the fault-free path so
//! a fault-layer regression that perturbs the strict barrier (an extra
//! RNG draw, a reordered fold, a changed message count) is caught as a
//! digest mismatch rather than a silent drift.

use proptest::prelude::*;
use symbreak_core::rules::{
    HMajority, ThreeMajority, TwoChoices, TwoMedian, UndecidedDynamics, Voter,
};
use symbreak_core::Configuration;
use symbreak_runtime::{
    ByzantineSpec, Cluster, ClusterConfig, CorruptionKind, CrashSpec, FaultCounters, FaultKind,
    FaultPlan, GearMode, ReportMode, ShardRepr, StopReason,
};

/// Strips the wire-byte counters (PR 8) off a [`FaultCounters`] so the
/// pre-transport goldens can still pin "all *fault* counters zero":
/// frame bytes are counted even on the fault-free channel path, and a
/// nonzero byte tally is correctness there, not degradation.
fn zero_bytes(mut faults: symbreak_runtime::FaultCounters) -> symbreak_runtime::FaultCounters {
    assert!(faults.bytes_sent > 0, "every run moves at least its reports");
    assert!(faults.bytes_received > 0);
    faults.bytes_sent = 0;
    faults.bytes_received = 0;
    faults
}

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

// ---------------------------------------------------------------------
// Seed-exactness of the inert plan: `FaultPlan::none()` must leave the
// strict coordinator byte-for-byte identical to the pre-fault runtime.
// The pinned values are the PR 5 goldens.
// ---------------------------------------------------------------------

#[test]
fn inert_plan_is_the_default_config() {
    assert_eq!(FaultPlan::none(), FaultPlan::default());
    assert_eq!(
        ClusterConfig::new(4, 42),
        ClusterConfig::new(4, 42).with_fault_plan(FaultPlan::none())
    );
}

#[test]
fn golden_three_majority_inert_plan_seed_exact() {
    // `ShardRepr::Agents` pins the materialized per-agent baseline: an
    // inert plan on agent-backed shards must replay the literal ordered
    // trajectory byte-for-byte. Re-pinned when agent shards stopped
    // consuming multiset rules through window splits (the old values
    // were round 20, 4320 messages, digest 0x4f42011c66704f4b), and
    // again when agent push broadcasts became sorted by slot, which
    // reorders the push union (round 17, 3912 messages, digest
    // 0x11e9201424d8b3f4 before).
    let start = Configuration::uniform(200, 8);
    let config = ClusterConfig::new(4, 42)
        .with_shard_repr(ShardRepr::Agents)
        .with_fault_plan(FaultPlan::none());
    let out =
        Cluster::new(ThreeMajority, &start, config).run_to_consensus(1_000_000).expect("consensus");
    assert_eq!(out.consensus_round, 26);
    assert_eq!(out.total_messages, 5552);
    assert_eq!(trace_digest(&out.trace), 0x477351a04a5d0ca1);
    assert_eq!(zero_bytes(out.faults), Default::default());
}

#[test]
fn golden_two_choices_inert_plan_seed_exact() {
    // Default `ShardRepr::Histogram` requested, but 2-Choices consumes an
    // ordered window, so the arbitration downgrades to agent-backed shards
    // and the PR 6 golden must hold unchanged.
    let start = Configuration::singletons(128);
    let config = ClusterConfig::new(3, 7).with_fault_plan(FaultPlan::none());
    let out = Cluster::new(TwoChoices, &start, config).run_horizon(30);
    assert_eq!(out.final_config.num_colors(), 96);
    assert_eq!(out.total_messages, 7950);
    assert_eq!(out.report_entries.iter().sum::<u64>(), 3696);
    assert_eq!(trace_digest(&out.trace), 0x9007113d1f373db1);
    assert_eq!(out.stop, StopReason::HorizonExhausted);
    assert!(out.wire_bytes > 0, "the channel backend still counts frame bytes");
    assert_eq!(out.wire_bytes, out.faults.bytes_sent);
    assert_eq!(zero_bytes(out.faults), Default::default());
}

#[test]
fn golden_voter_inert_plan_seed_exact() {
    // Re-pinned once when the per-entry request/reply wire was deleted:
    // the old golden (round 92, 22080 messages, digest
    // 0x8fe0152528e7a52c) pinned that wire, which no longer exists. Same
    // start and seed, now on the one remaining wire, where Voter runs
    // condensed (single-peer) shards under the default representation.
    // Re-pinned again when every push union became one sorted merge: the
    // condensed Voter push draws over the ascending union instead of the
    // first-touch one (round 388, 16614 messages, digest
    // 0x4bf1e2c02a383ae6 before).
    let start = Configuration::uniform(120, 6);
    let config = ClusterConfig::new(3, 9).with_fault_plan(FaultPlan::none());
    let out = Cluster::new(Voter, &start, config).run_to_consensus(1_000_000).expect("consensus");
    assert_eq!(out.consensus_round, 187);
    assert_eq!(out.total_messages, 9288);
    assert_eq!(trace_digest(&out.trace), 0xaf9f786504c0358a);
    assert_eq!(zero_bytes(out.faults), Default::default());
}

/// Checks an inert-plan run against its pinned observables: rounds,
/// `total_messages`, `Σ report_entries`, wire bytes (exact under the
/// strict barrier) and the trace digest.
fn assert_inert_golden(
    out: &symbreak_runtime::HorizonOutcome,
    rounds: u64,
    messages: u64,
    entries: u64,
    wire_bytes: u64,
    digest: u64,
) {
    assert_eq!(out.rounds_run, rounds);
    assert_eq!(out.total_messages, messages);
    assert_eq!(out.report_entries.iter().sum::<u64>(), entries);
    assert_eq!(out.wire_bytes, wire_bytes);
    assert_eq!(trace_digest(&out.trace), digest);
    assert_eq!(zero_bytes(out.faults), Default::default());
}

#[test]
fn golden_three_majority_condensed_push_seed_exact() {
    // The condensed 3-Majority push: two histogram shards from
    // singletons boot in pull (`occ · 4 > 3n`), and `Auto` switches to
    // push from round 2 once about `0.63n` colors survive. Re-pinned
    // once when the push step moved to the class-wise `Mult(n, α)`
    // draw; the old values were 40, 18184, 4163, 49775,
    // 0x3ce0cc55f059a164.
    // Its wire bytes were re-pinned when a pull batch became one draw
    // count (wire version 4); they were 51493 before.
    let start = Configuration::singletons(512);
    let config = ClusterConfig::new(2, 11).with_fault_plan(FaultPlan::none());
    let out = Cluster::new(ThreeMajority, &start, config).run_horizon(400);
    assert_eq!(out.stop, StopReason::Consensus);
    assert_eq!(out.consensus_round, Some(out.rounds_run));
    assert_inert_golden(&out, 41, 19116, 4396, 51477, 0xaef2189ad4b42810);
}

#[test]
fn golden_undecided_condensed_push_seed_exact() {
    // The undecided dynamics on three histogram shards, push forced from
    // round 1: after the first step every shard holds undecided nodes,
    // so every broadcast palette ends in an undecided tail and the union
    // carries undecided mass from all three.
    let start = Configuration::uniform(600, 12);
    let config = ClusterConfig::new(3, 13).with_data_gear(GearMode::ForcePush);
    let out = Cluster::new(UndecidedDynamics, &start, config).run_horizon(400);
    assert_eq!(out.stop, StopReason::Consensus);
    assert_inert_golden(&out, 29, 5298, 791, 14082, 0x2cc9d7a2f4c145af);
}

#[test]
fn golden_two_median_condensed_push_seed_exact() {
    // 2-Median is own-sensitive: its push step runs one CDF cascade per
    // own-opinion group, so the step output repeats colors across
    // groups and the install must coalesce them.
    let start = Configuration::uniform(512, 24);
    let config = ClusterConfig::new(2, 19).with_data_gear(GearMode::ForcePush);
    let out = Cluster::new(TwoMedian, &start, config).run_horizon(400);
    assert_eq!(out.stop, StopReason::Consensus);
    assert_inert_golden(&out, 13, 856, 191, 2778, 0xeb46036a6ee8aa01);
}

#[test]
fn golden_h_majority_condensed_push_seed_exact() {
    // h-Majority at h = 5 has no closed-form push step: the generic
    // per-node `condensed_push_step` walks one window per node. Delta
    // reports pin the tracked condensed report off the installed pairs.
    let start = Configuration::uniform(300, 20);
    let config = ClusterConfig::new(3, 29)
        .with_data_gear(GearMode::ForcePush)
        .with_report_mode(ReportMode::Delta);
    let out = Cluster::new(HMajority::new(5), &start, config).run_horizon(400);
    assert_eq!(out.stop, StopReason::Consensus);
    assert_inert_golden(&out, 9, 2292, 363, 5529, 0x2194d8cd7c280578);
}

#[test]
fn golden_two_choices_forced_push_seed_exact() {
    // The ordered-window push on agent shards: every sample is an iid
    // draw from the union of the broadcast histograms. This is the
    // stalled Theorem-5 round, with delta reports. Re-pinned when agent
    // push broadcasts became sorted by slot; the old values were 59256
    // messages, 336 entries, 111005 wire bytes, digest 0x6b8cea57aa4f9812.
    let start = Configuration::singletons(256);
    let config = ClusterConfig::new(3, 5)
        .with_shard_repr(ShardRepr::Agents)
        .with_data_gear(GearMode::ForcePush)
        .with_report_mode(ReportMode::Delta);
    let out = Cluster::new(TwoChoices, &start, config).run_horizon(40);
    assert_eq!(out.stop, StopReason::HorizonExhausted);
    assert_inert_golden(&out, 40, 59796, 321, 111949, 0xb4d8fd0f0221fc6f);
}

#[test]
fn golden_two_choices_stalled_delta_seed_exact() {
    // The stalled Theorem-5 round under `Auto`: two agent shards from
    // singletons stay in the pull gear (raw palettes, `total < 24·d`),
    // and every report after the first is a delta of a few entries.
    // Its wire bytes were re-pinned when a pull batch became one draw
    // count (wire version 4); they were 805101 before.
    let start = Configuration::singletons(1024);
    let config = ClusterConfig::new(2, 1).with_report_mode(ReportMode::Delta);
    let out = Cluster::new(TwoChoices, &start, config).run_horizon(200);
    assert_eq!(out.stop, StopReason::HorizonExhausted);
    assert_eq!(out.report_entries[0], 1022, "round 1 reports sparse");
    assert_inert_golden(&out, 200, 410400, 1532, 801901, 0x65a8bc6d20c658a8);
}

#[test]
fn golden_two_choices_uniform_delta_seed_exact() {
    // Delta tracking on a diverse run: three colors churn every slot
    // every round, so the coordinator never commands a delta body and
    // each round is a tracked sparse report, mostly in the push gear.
    // Re-pinned when agent push broadcasts became sorted by slot; the old
    // values were 22 rounds, 512 messages, 125 entries, 3302 wire bytes,
    // digest 0xee13f6a180964f9d.
    // Its wire bytes were re-pinned when a pull batch became one draw
    // count (wire version 4); they were 2994 before.
    let start = Configuration::uniform(4096, 3);
    let config = ClusterConfig::new(2, 2).with_report_mode(ReportMode::Delta);
    let out = Cluster::new(TwoChoices, &start, config).run_horizon(100_000);
    assert_eq!(out.stop, StopReason::Consensus);
    assert_inert_golden(&out, 20, 464, 113, 2978, 0xec5f7c99634629cf);
}

#[test]
fn golden_two_choices_mixed_delta_seed_exact() {
    // One shard of four large colors beside three shards of singletons:
    // shard 0 serves walkable histogram palettes (`total ≥ 24·d`) while
    // the others serve raw ones, reports switch sparse → delta after
    // round 1 and back to sparse once churn outgrows half the surviving
    // colors, and the gear moves from pull to push near the end.
    // Re-pinned when agent push broadcasts became sorted by slot; the old
    // values were final entries [25, 16, 9, 4], 1986 entries, 86017 wire
    // bytes, digest 0xc0573bdc5eb9bd0a (30 rounds, 46592 messages).
    // Its wire bytes were re-pinned when a pull batch became one draw
    // count (wire version 4); they were 85827 before.
    let mut counts = vec![64u64; 4];
    counts.extend(std::iter::repeat_n(1, 768));
    let start = Configuration::from_counts(counts);
    let config = ClusterConfig::new(4, 3).with_report_mode(ReportMode::Delta);
    let out = Cluster::new(TwoChoices, &start, config).run_horizon(100_000);
    assert_eq!(out.stop, StopReason::Consensus);
    assert_eq!(&out.report_entries[..3], &[765, 26, 35], "sparse, then delta");
    assert_eq!(&out.report_entries[26..], &[23, 17, 9, 4], "sparse again at the end");
    assert_inert_golden(&out, 30, 46592, 1942, 84415, 0xeb541f7eecabd0d);
}

// ---------------------------------------------------------------------
// Seed-exactness of an active plan: one mixed plan that fires every
// fault kind at once — palette drop, duplicate and delay, report delay,
// a crash with rejoin, and a plausible Byzantine liar — pinned byte for
// byte on a singleton start. The byte counters are left out: the
// relaxed barrier lets them drift (see `socket_fleet_survives_fault_plan`).
// ---------------------------------------------------------------------

/// Runs the mixed plan and checks the pinned observables: the round,
/// `Σ total_messages`, `Σ report_entries`, every fault counter and the
/// trace digest.
fn assert_mixed_plan_golden(
    repr: ShardRepr,
    gear: GearMode,
    round: u64,
    messages: u64,
    entries: u64,
    digest: u64,
    faults: FaultCounters,
) {
    let plan = FaultPlan::none()
        .with_seed(17)
        .with_palette_rates(0.1, 0.1, 0.1)
        .with_report_rates(0.0, 0.0, 0.1)
        .with_crash(CrashSpec { shard: 2, crash_round: 3, rejoin_round: Some(6) })
        .with_byzantine(ByzantineSpec { shard: 1, budget: 2, kind: CorruptionKind::Plausible })
        .with_max_faulty(3);
    let config =
        ClusterConfig::new(4, 23).with_shard_repr(repr).with_data_gear(gear).with_fault_plan(plan);
    let out = Cluster::new(ThreeMajority, &Configuration::singletons(256), config).run_horizon(400);
    assert_eq!(out.stop, StopReason::Consensus);
    assert_eq!(out.consensus_round, Some(round));
    assert_eq!(out.rounds_run, round);
    assert_eq!(out.total_messages, messages);
    assert_eq!(out.report_entries.iter().sum::<u64>(), entries);
    assert_eq!(trace_digest(&out.trace), digest);
    assert_eq!(zero_bytes(out.faults), faults);
}

#[test]
fn golden_mixed_plan_agents_seed_exact() {
    // Agent-backed shards boot in the pull gear. Re-pinned when agent
    // shards stopped consuming multiset rules through window splits
    // (the old values were round 30, 18206 messages, 2527 entries,
    // digest 0xec5051a15e763a69, and 40/32/41 palettes dropped,
    // duplicated and delayed, 13 reports delayed, 30 Byzantine reports,
    // 13 resyncs and 13 quorum rounds), and again when agent push
    // broadcasts became sorted by slot (round 40, 21242 messages, 2903
    // entries, digest 0xbc2969dda9cad35e, 51/41/55 palettes, 17 reports
    // delayed, 40 Byzantine reports, 17 resyncs and 16 quorum rounds
    // before).
    let faults = FaultCounters {
        palettes_dropped: 43,
        palettes_duplicated: 33,
        palettes_delayed: 47,
        reports_delayed: 13,
        crash_rounds: 3,
        rejoins: 1,
        byzantine_reports: 33,
        straggler_resyncs: 13,
        recovered_samples: 1316,
        quorum_rounds: 13,
        ..FaultCounters::default()
    };
    assert_mixed_plan_golden(
        ShardRepr::Agents,
        GearMode::Auto,
        33,
        19000,
        2637,
        0xbb059f007c6a2e17,
        faults,
    );
}

#[test]
fn golden_mixed_plan_histogram_seed_exact() {
    // Condensed shards: pull from the singleton start, push once the
    // occupancy concentrates. Re-pinned with the class-wise push step;
    // the old values were round 28, 16982 messages, 2394 entries,
    // digest 0xba2c36cd5b2b691b, and 39/31/36 palettes dropped,
    // duplicated and delayed, 12 reports delayed, 28 Byzantine reports,
    // 12 resyncs and 12 quorum rounds.
    let faults = FaultCounters {
        palettes_dropped: 28,
        palettes_duplicated: 29,
        palettes_delayed: 32,
        reports_delayed: 10,
        crash_rounds: 3,
        rejoins: 1,
        byzantine_reports: 24,
        straggler_resyncs: 10,
        recovered_samples: 1329,
        quorum_rounds: 10,
        ..FaultCounters::default()
    };
    assert_mixed_plan_golden(
        ShardRepr::Histogram,
        GearMode::Auto,
        24,
        15372,
        2196,
        0xba3438488cd7cc55,
        faults,
    );
}

#[test]
fn golden_mixed_plan_force_push_seed_exact() {
    // Push rounds reweight lost histograms instead of recovering them.
    // Re-pinned with the class-wise push step; the old values were
    // round 25, 19548 messages, 2106 entries, digest 0x5aef7805852c614d,
    // and 29 palettes dropped, 25 Byzantine reports, 10 resyncs.
    let faults = FaultCounters {
        palettes_dropped: 33,
        palettes_duplicated: 30,
        palettes_delayed: 33,
        reports_delayed: 11,
        crash_rounds: 3,
        rejoins: 1,
        byzantine_reports: 26,
        straggler_resyncs: 11,
        quorum_rounds: 11,
        ..FaultCounters::default()
    };
    assert_mixed_plan_golden(
        ShardRepr::Histogram,
        GearMode::ForcePush,
        26,
        20514,
        2231,
        0x47b5f1337ca0acf5,
        faults,
    );
}

// ---------------------------------------------------------------------
// Duplicate-only plans: identical copies are deduplicated by receivers
// and the coordinator, so the trajectory is *exactly* the fault-free
// one — only the wire accounting grows.
// ---------------------------------------------------------------------

#[test]
fn palette_duplicates_dedup_to_fault_free_trajectory() {
    let start = Configuration::uniform(160, 8);
    let free = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 11))
        .run_to_consensus(1_000_000)
        .expect("consensus");
    let plan = FaultPlan::none().with_seed(5).with_palette_rates(0.0, 1.0, 0.0);
    let faulty =
        Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 11).with_fault_plan(plan))
            .run_to_consensus(1_000_000)
            .expect("consensus under duplicates");
    assert_eq!(faulty.consensus_round, free.consensus_round);
    assert_eq!(trace_digest(&faulty.trace), trace_digest(&free.trace));
    assert_eq!(faulty.final_config, free.final_config);
    // Every inter-shard palette was sent twice: the duplicate copies
    // are real wire traffic and must be counted.
    assert!(faulty.total_messages > free.total_messages);
    assert!(faulty.faults.palettes_duplicated > 0);
    assert_eq!(faulty.faults.recovered_samples, 0);
}

#[test]
fn report_duplicates_double_entries_but_not_data_plane() {
    let start = Configuration::uniform(160, 8);
    let free = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 11)).run_horizon(12);
    let plan = FaultPlan::none().with_seed(5).with_report_rates(0.0, 1.0, 0.0);
    let faulty =
        Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 11).with_fault_plan(plan))
            .run_horizon(12);
    assert_eq!(trace_digest(&faulty.trace), trace_digest(&free.trace));
    // A duplicated report re-sends its body (control-plane entries
    // doubled) but describes the same data-plane traffic (messages
    // unchanged).
    assert_eq!(faulty.total_messages, free.total_messages);
    for (f, o) in faulty.report_entries.iter().zip(free.report_entries.iter()) {
        assert_eq!(*f, 2 * o);
    }
    assert_eq!(faulty.faults.reports_duplicated, 4 * 12);
}

// ---------------------------------------------------------------------
// Lossy plans: dropped or delayed palettes are compensated by local
// re-sampling, so mass is conserved and consensus still lands.
// ---------------------------------------------------------------------

#[test]
fn palette_drops_are_recovered_and_consensus_holds() {
    // Singleton start: the fleet boots in the pull gear (a concentrated
    // start would arbitrate every round to push, whose loss
    // compensation is union renormalization, not local re-sampling —
    // `recovered_samples` is a pull-gear counter).
    let start = Configuration::singletons(200);
    let plan = FaultPlan::none().with_seed(3).with_palette_rates(0.25, 0.0, 0.0);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 42).with_fault_plan(plan))
        .run_to_consensus(1_000_000)
        .expect("consensus under palette loss");
    assert!(out.faults.palettes_dropped > 0);
    assert!(out.faults.recovered_samples > 0);
    assert_eq!(out.final_config.n(), 200);
    assert!(out.final_config.is_consensus());
}

#[test]
fn delayed_palettes_are_discarded_and_recovered() {
    // Singleton start for the same reason as above: the delayed-palette
    // re-sampling path only runs in the pull gear.
    let start = Configuration::singletons(200);
    let plan = FaultPlan::none().with_seed(3).with_palette_rates(0.0, 0.0, 0.3);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 42).with_fault_plan(plan))
        .run_to_consensus(1_000_000)
        .expect("consensus under palette delay");
    assert!(out.faults.palettes_delayed > 0);
    assert!(out.faults.recovered_samples > 0);
    assert!(out.final_config.is_consensus());
}

#[test]
fn delayed_reports_resync_as_stragglers() {
    let start = Configuration::uniform(200, 8);
    let plan = FaultPlan::none().with_seed(9).with_report_rates(0.0, 0.0, 0.4).with_max_faulty(3);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 42).with_fault_plan(plan))
        .run_to_consensus(1_000_000)
        .expect("consensus under report delay");
    assert!(out.faults.reports_delayed > 0);
    assert!(out.faults.straggler_resyncs > 0);
    assert!(out.faults.quorum_rounds > 0);
    assert!(out.final_config.is_consensus());
}

// ---------------------------------------------------------------------
// Crash-stop and rejoin.
// ---------------------------------------------------------------------

#[test]
fn crashed_shard_rejoins_from_snapshot_and_consensus_holds() {
    let start = Configuration::uniform(200, 8);
    let plan = FaultPlan::none()
        .with_crash(CrashSpec { shard: 2, crash_round: 3, rejoin_round: Some(7) })
        .with_max_faulty(1);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 42).with_fault_plan(plan))
        .run_to_consensus(1_000_000)
        .expect("consensus after crash-rejoin");
    assert_eq!(out.faults.rejoins, 1);
    assert_eq!(out.faults.crash_rounds, 4); // rounds 3,4,5,6
    assert!(out.faults.quorum_rounds >= 4);
    assert_eq!(out.final_config.n(), 200);
    assert!(out.final_config.is_consensus());
    assert!(out.consensus_round > 7);
}

#[test]
fn permanent_crash_within_tolerance_still_converges_honest_view() {
    // Shard 1 crashes forever; the honest survivors keep exchanging and
    // the coordinator declares consensus over the honest view only
    // after the frozen snapshot's colors die out of it — which cannot
    // happen while the crashed shard is counted, so permanent crashes
    // leave the merged view stuck at > 1 color and consensus is
    // declared only if the crashed shard's snapshot already agrees.
    // Use a horizon run and check degradation is bounded, not stuck.
    let start = Configuration::uniform(120, 4);
    let plan = FaultPlan::none()
        .with_crash(CrashSpec { shard: 1, crash_round: 2, rejoin_round: None })
        .with_max_faulty(1);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(3, 5).with_fault_plan(plan))
        .run_horizon(40);
    assert_eq!(out.faults.rejoins, 0);
    assert_eq!(out.faults.crash_rounds, 39); // rounds 2..=40
    assert!(out.faults.quorum_rounds >= 39);
    assert_eq!(out.final_config.n(), 120); // frozen snapshot keeps mass
    assert!(matches!(out.stop, StopReason::Consensus | StopReason::HorizonExhausted));
}

// ---------------------------------------------------------------------
// Quorum relaxation limits: below N − F fresh valid reports the
// coordinator aborts with a typed reason instead of folding a minority.
// ---------------------------------------------------------------------

#[test]
fn total_report_loss_aborts_with_too_many_faults() {
    let start = Configuration::uniform(80, 4);
    let plan = FaultPlan::none().with_seed(1).with_report_rates(1.0, 0.0, 0.0);
    let err = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 2).with_fault_plan(plan))
        .run_to_consensus(1_000)
        .expect_err("no quorum is reachable");
    assert_eq!(err.stop, StopReason::TooManyFaults);
    assert_eq!(err.rounds_run, 1);
    assert!(err.faults.reports_dropped >= 4);
    assert_eq!(err.consensus_round, None);
}

#[test]
fn crashes_beyond_tolerance_abort() {
    let start = Configuration::uniform(80, 4);
    let plan = FaultPlan::none()
        .with_crash(CrashSpec { shard: 0, crash_round: 2, rejoin_round: None })
        .with_crash(CrashSpec { shard: 1, crash_round: 2, rejoin_round: None })
        .with_max_faulty(1);
    let err = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 2).with_fault_plan(plan))
        .run_to_consensus(1_000)
        .expect_err("two of four crashed, one tolerated");
    assert_eq!(err.stop, StopReason::TooManyFaults);
    assert_eq!(err.rounds_run, 2);
}

// ---------------------------------------------------------------------
// Byzantine shards.
// ---------------------------------------------------------------------

#[test]
fn plausible_byzantine_reports_are_tolerated_by_quorum() {
    let start = Configuration::uniform(200, 8);
    let plan = FaultPlan::none()
        .with_byzantine(ByzantineSpec { shard: 1, budget: 3, kind: CorruptionKind::Plausible })
        .with_max_faulty(1);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 42).with_fault_plan(plan))
        .run_to_consensus(1_000_000)
        .expect("consensus over the honest view");
    assert!(out.faults.byzantine_reports > 0);
    // Mass-preserving lies pass validation: they distort the merged
    // *measurement*, not the quorum.
    assert_eq!(out.faults.rejected_reports, 0);
    assert_eq!(out.final_config.n(), 200);
}

#[test]
fn mass_violating_byzantine_reports_are_rejected() {
    let start = Configuration::uniform(200, 8);
    let plan = FaultPlan::none()
        .with_byzantine(ByzantineSpec { shard: 1, budget: 7, kind: CorruptionKind::Inflate })
        .with_max_faulty(1);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 42).with_fault_plan(plan))
        .run_to_consensus(1_000_000)
        .expect("consensus over the honest view");
    assert!(out.faults.byzantine_reports > 0);
    assert!(out.faults.rejected_reports > 0);
    // Every fresh report from the liar is rejected, so every round runs
    // below full attendance on the relaxed quorum.
    assert!(out.faults.quorum_rounds >= out.consensus_round);
}

// ---------------------------------------------------------------------
// Property tests: randomized plans preserve the layer's invariants.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Duplicated + reordered delivery (receivers may see the two
    /// copies interleaved with other shards' traffic in any order)
    /// deduplicates to the exact fault-free trajectory.
    #[test]
    fn dup_only_plans_are_trajectory_invisible(
        seed in 0u64..200,
        fault_seed in 0u64..200,
        shards in 2usize..5,
        pal_dup in 0.2f64..1.0,
        rep_dup in 0.2f64..1.0,
    ) {
        let start = Configuration::uniform(120, 6);
        let free = Cluster::new(ThreeMajority, &start, ClusterConfig::new(shards, seed))
            .run_horizon(10);
        let plan = FaultPlan::none()
            .with_seed(fault_seed)
            .with_palette_rates(0.0, pal_dup, 0.0)
            .with_report_rates(0.0, rep_dup, 0.0);
        let faulty = Cluster::new(
            ThreeMajority,
            &start,
            ClusterConfig::new(shards, seed).with_fault_plan(plan),
        )
        .run_horizon(10);
        prop_assert_eq!(trace_digest(&faulty.trace), trace_digest(&free.trace));
        prop_assert_eq!(&faulty.final_config, &free.final_config);
        prop_assert_eq!(faulty.consensus_round, free.consensus_round);
        prop_assert!(faulty.total_messages >= free.total_messages);
        prop_assert_eq!(faulty.faults.recovered_samples, 0);
    }

    /// Crash-rejoin conserves mass and passes the shard-side dense
    /// recount integrity check (asserted inside `Worker::rejoin`, which
    /// runs in-process here).
    #[test]
    fn crash_rejoin_preserves_mass_and_integrity(
        seed in 0u64..200,
        shard in 0usize..4,
        crash_round in 2u64..6,
        outage in 1u64..5,
    ) {
        let start = Configuration::uniform(160, 8);
        let plan = FaultPlan::none()
            .with_crash(CrashSpec {
                shard,
                crash_round,
                rejoin_round: Some(crash_round + outage),
            })
            .with_max_faulty(1);
        let out = Cluster::new(
            ThreeMajority,
            &start,
            ClusterConfig::new(4, seed).with_fault_plan(plan),
        )
        .run_to_consensus(1_000_000)
        .expect("consensus after rejoin");
        prop_assert_eq!(out.faults.rejoins, 1);
        prop_assert_eq!(out.faults.crash_rounds, outage);
        prop_assert_eq!(out.final_config.n(), 160);
        prop_assert!(out.final_config.is_consensus());
    }

    /// Mixed lossy plans within tolerance either converge or abort with
    /// the typed reason — never deadlock, never lose mass.
    #[test]
    fn mixed_faults_degrade_gracefully(
        seed in 0u64..100,
        fault_seed in 0u64..100,
    ) {
        let start = Configuration::uniform(160, 8);
        let plan = FaultPlan::none()
            .with_seed(fault_seed)
            .with_palette_rates(0.1, 0.1, 0.1)
            .with_report_rates(0.05, 0.05, 0.05)
            .with_max_faulty(3);
        let result = Cluster::new(
            ThreeMajority,
            &start,
            ClusterConfig::new(4, seed).with_fault_plan(plan),
        )
        .run_to_consensus(2_000);
        match result {
            Ok(out) => {
                prop_assert!(out.final_config.is_consensus());
                prop_assert_eq!(out.final_config.n(), 160);
            }
            Err(out) => {
                prop_assert!(matches!(
                    out.stop,
                    StopReason::TooManyFaults | StopReason::HorizonExhausted
                ));
                prop_assert_eq!(out.final_config.n(), 160);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Plan preconditions.
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "sparse reports")]
fn active_plans_reject_delta_reports() {
    let start = Configuration::uniform(40, 4);
    let plan = FaultPlan::none().with_palette_rates(0.1, 0.0, 0.0);
    let config = ClusterConfig::new(2, 1)
        .with_report_mode(symbreak_runtime::ReportMode::Delta)
        .with_fault_plan(plan);
    let _ = Cluster::new(ThreeMajority, &start, config);
}

#[test]
fn fault_kind_classification_is_exposed() {
    // Smoke-check the public classification API the shards and
    // coordinator share.
    let plan = FaultPlan::none().with_seed(7).with_palette_rates(0.3, 0.3, 0.3);
    let mut seen = [false; 4];
    for round in 1..=50u64 {
        for (from, to) in [(0usize, 1usize), (1, 0), (0, 2), (2, 1)] {
            match plan.palette_fault(round, from, to) {
                None => seen[0] = true,
                Some(FaultKind::Drop) => seen[1] = true,
                Some(FaultKind::Duplicate) => seen[2] = true,
                Some(FaultKind::Delay) => seen[3] = true,
            }
        }
    }
    assert!(seen.iter().all(|&b| b), "all fault kinds drawn at 30% rates over 200 trials");
}
