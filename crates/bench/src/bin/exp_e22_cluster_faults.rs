//! E22 — the cluster under injected faults: 3-Majority re-consensus
//! across a drop-rate × crash-count × Byzantine-count sweep on the
//! quorum-relaxed coordinator.
//!
//! Background: the strict runtime (E17/E20/E21) runs a synchronous
//! barrier — every shard's report is required every round, so one lost
//! message wedges the fleet. The fault layer replaces that with an
//! `N − F` quorum (the integer-exact `quorum_threshold` from the
//! adversary crate) plus a deterministic, seeded fault schedule shared
//! by sender, receiver, and coordinator: dropped / duplicated / delayed
//! palettes and reports, crash-stop shards that rejoin from coordinator
//! snapshots, and Byzantine shards whose mass-violating report bodies
//! are rejected at the fold.
//!
//! Three checks gate the verdict:
//!
//! 1. **The inert plan is `F = 0`** — every plan runs the same
//!    fault-aware exchange and coordinator loops, so a duplicate-only
//!    palette plan (every inter-shard palette sent twice, the copies
//!    deduplicated by receivers) must realize exactly the inert plan's
//!    trajectory (same consensus round, final configuration and trace)
//!    while paying strictly more wire entries.
//! 2. **Sweep** — every cell of the drop × crash × Byzantine grid
//!    (faults within the declared tolerance `F`) must re-reach
//!    3-Majority consensus; for crash cells the consensus must land
//!    *after* the last rejoin, and the recovery time (consensus round −
//!    rejoin round) is reported.
//! 3. **Negative control** — crashing more shards than `F` tolerates
//!    must abort with the typed `TooManyFaults` reason, not deadlock
//!    and not fold a minority view.
//!
//! `SYMBREAK_SCALE` scales `n` and the trial counts; the CI smoke runs
//! `SYMBREAK_SCALE=0.04096`.

use symbreak_bench::{scale, scaled_trials, section, verdict};
use symbreak_core::rules::ThreeMajority;
use symbreak_core::Configuration;
use symbreak_runtime::{
    ByzantineSpec, Cluster, ClusterConfig, CorruptionKind, CrashSpec, FaultPlan, StopReason,
};
use symbreak_stats::table::fmt_f64;
use symbreak_stats::{Summary, Table};

/// Shard count: room for two concurrent crash windows plus one
/// Byzantine shard while honest shards stay the majority.
const SHARDS: usize = 6;

/// Opinions in the uniform start configuration.
const COLORS: usize = 8;

/// Round the first crash fires; later crashes stagger by two rounds.
const CRASH_ROUND: u64 = 3;

/// Rounds a crashed shard stays dark before its snapshot rejoin.
const OUTAGE: u64 = 3;

/// Builds the sweep cell's plan: `crashes` staggered crash-rejoin
/// windows on the low shards, `byz` mass-inflating liars on the high
/// shards, palette loss at `drop` across the whole fleet.
fn cell_plan(fault_seed: u64, drop: f64, crashes: usize, byz: usize) -> FaultPlan {
    let mut plan = FaultPlan::none()
        .with_seed(fault_seed)
        .with_palette_rates(drop, 0.0, 0.0)
        .with_max_faulty(crashes + byz);
    for c in 0..crashes {
        let crash_round = CRASH_ROUND + 2 * c as u64;
        plan = plan.with_crash(CrashSpec {
            shard: c,
            crash_round,
            rejoin_round: Some(crash_round + OUTAGE),
        });
    }
    for b in 0..byz {
        plan = plan.with_byzantine(ByzantineSpec {
            shard: SHARDS - 1 - b,
            budget: 5,
            kind: CorruptionKind::Inflate,
        });
    }
    plan
}

fn main() {
    let n = ((20_000.0 * scale()).round() as u64).max(512);
    let trials = scaled_trials(5);
    let start = Configuration::uniform(n, COLORS);
    println!("# E22: cluster fault injection (n = {n}, k = {COLORS}, {SHARDS} shards, {trials} trials/cell)");

    // 1. The inert plan is the F = 0 case of the fault machinery: a
    //    duplicate-only palette plan fires a fault decision on every
    //    inter-shard edge and must still replay the inert trajectory.
    section("inert plan = F = 0: duplicate-only palettes vs FaultPlan::none()");
    let mut inert_ok = true;
    for t in 0..trials {
        let run = |plan| {
            let config = ClusterConfig::new(SHARDS, 2200 + t).with_fault_plan(plan);
            Cluster::new(ThreeMajority, &start, config)
                .run_to_consensus(1_000_000)
                .expect("consensus within the round cap")
        };
        let inert = run(FaultPlan::none());
        let dup = run(FaultPlan::none().with_seed(2200 + t).with_palette_rates(0.0, 1.0, 0.0));
        // Every *fault* counter proper of the inert run must stay zero
        // (the byte counters measure the wire, not the faults).
        let mut inert_faults = inert.faults;
        inert_faults.bytes_sent = 0;
        inert_faults.bytes_received = 0;
        inert_ok &= dup.consensus_round == inert.consensus_round
            && dup.final_config == inert.final_config
            && dup.trace == inert.trace
            && dup.total_messages > inert.total_messages
            && dup.faults.palettes_duplicated > 0
            && dup.faults.recovered_samples == 0
            && inert.faults.bytes_sent > 0
            && inert_faults == Default::default();
    }
    println!(
        "duplicate-only palettes vs FaultPlan::none() over {trials} seeds: {}",
        if inert_ok {
            "identical (round, final config, trace); duplicates only add wire entries"
        } else {
            "DIVERGED"
        }
    );

    // 2. The sweep.
    section("drop-rate x crash x Byzantine sweep (quorum N - F)");
    let mut table = Table::new(vec![
        "drop",
        "crashes",
        "byz",
        "consensus mean",
        "recovery mean",
        "recovered/trial",
        "quorum rounds",
        "rejected",
        "wire MB mean",
    ]);
    let mut sweep_ok = true;
    for &drop in &[0.0, 0.1, 0.25] {
        for &crashes in &[0usize, 1, 2] {
            for &byz in &[0usize, 1] {
                if drop == 0.0 && crashes == 0 && byz == 0 {
                    continue; // the inert cell is phase 1
                }
                let last_rejoin =
                    if crashes > 0 { CRASH_ROUND + 2 * (crashes as u64 - 1) + OUTAGE } else { 0 };
                let mut consensus = Vec::new();
                let mut recovery = Vec::new();
                let mut recovered = Vec::new();
                let mut wire_bytes = Vec::new();
                let mut quorum_rounds = 0u64;
                let mut rejected = 0u64;
                for t in 0..trials {
                    let plan = cell_plan(9_000 + t, drop, crashes, byz);
                    let cfg = ClusterConfig::new(SHARDS, 2300 + t).with_fault_plan(plan);
                    match Cluster::new(ThreeMajority, &start, cfg).run_to_consensus(1_000_000) {
                        Ok(out) => {
                            // Consensus is declared over the honest
                            // view; the merged view also carries the
                            // liar's last accepted body (its initial
                            // snapshot — every inflated successor is
                            // rejected), so it collapses to one color
                            // only in liar-free cells. Mass is
                            // conserved either way.
                            sweep_ok &= out.final_config.n() == n
                                && (byz > 0 || out.final_config.is_consensus())
                                && (byz == 0 || out.faults.rejected_reports > 0)
                                && out.faults.rejoins == crashes as u64;
                            if crashes > 0 {
                                // Re-consensus must postdate the last
                                // rejoin: the frozen snapshot keeps the
                                // honest view diverse until then.
                                sweep_ok &= out.consensus_round > last_rejoin;
                                recovery.push(out.consensus_round - last_rejoin);
                            }
                            consensus.push(out.consensus_round);
                            wire_bytes.push(out.faults.bytes_sent);
                            recovered.push(out.faults.recovered_samples);
                            quorum_rounds += out.faults.quorum_rounds;
                            rejected += out.faults.rejected_reports;
                        }
                        Err(out) => {
                            println!(
                                "cell drop={drop} crashes={crashes} byz={byz} trial {t}: \
                                 {:?} after {} rounds",
                                out.stop, out.rounds_run
                            );
                            sweep_ok = false;
                        }
                    }
                }
                let mean = |v: &[u64]| {
                    if v.is_empty() {
                        "-".into()
                    } else {
                        fmt_f64(Summary::of_counts(v).mean())
                    }
                };
                table.row(vec![
                    fmt_f64(drop),
                    crashes.to_string(),
                    byz.to_string(),
                    mean(&consensus),
                    mean(&recovery),
                    mean(&recovered),
                    quorum_rounds.to_string(),
                    rejected.to_string(),
                    if wire_bytes.is_empty() {
                        "-".into()
                    } else {
                        fmt_f64(Summary::of_counts(&wire_bytes).mean() / 1e6)
                    },
                ]);
            }
        }
    }
    println!("{table}");

    // 3. Negative control: tolerance is a real bound.
    section("negative control (crashes beyond F)");
    let plan = cell_plan(77, 0.0, 2, 0)
        .with_crash(CrashSpec { shard: 2, crash_round: CRASH_ROUND, rejoin_round: None })
        .with_crash(CrashSpec { shard: 3, crash_round: CRASH_ROUND, rejoin_round: None })
        .with_max_faulty(1);
    let err =
        Cluster::new(ThreeMajority, &start, ClusterConfig::new(SHARDS, 4321).with_fault_plan(plan))
            .run_to_consensus(1_000);
    let control_ok = matches!(&err, Err(out) if out.stop == StopReason::TooManyFaults);
    match &err {
        Err(out) => println!(
            "4 faulty shards vs F = 1: {:?} at round {} (quorum never folded a minority view)",
            out.stop, out.rounds_run
        ),
        Ok(_) => println!("UNEXPECTED consensus with 4 faulty shards vs F = 1"),
    }

    verdict(
        "E22",
        "the quorum-relaxed cluster re-reaches 3-Majority consensus across the drop x crash x \
         Byzantine sweep, a duplicate-only plan replays the inert (F = 0) trajectory, and \
         over-tolerance fault loads abort with the typed reason",
        inert_ok && sweep_ok && control_ok,
    );
}
