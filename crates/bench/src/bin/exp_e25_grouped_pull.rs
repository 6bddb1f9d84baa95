//! E25 — condensed pull gear: 3-Majority's pooled block makes condensed
//! pull rounds `O(#occupied · h)`, the same complexity class as the
//! push gear, and own-sensitive rules deal per ball.
//!
//! Before the grouped consume, a condensed shard receiving pull
//! palettes still walked its *nodes*: one multivariate-hypergeometric
//! window split per node off the pooled histogram (`O(local_n · h log
//! d)` with the Fenwick dealer), which is exactly the per-agent cost
//! condensation exists to avoid — the E23 k = n singleton rows sat at
//! 0.18–0.63x against the agent baseline because of it. The consume now
//! has two arms: an own-insensitive rule (3-Majority, h-Majority) whose
//! pool is concentrated enough applies its aggregate window law once,
//! on the whole pool (`MultisetRule::condensed_window_step`); every
//! other round deals per ball off the palettes. (A per-opinion-group
//! arm for own-sensitive rules ran first; no `Auto`-gear run reached
//! it, so it is gone. The binary keeps its name.)
//!
//! **Part A** pins the complexity claim: 3-Majority from the uniform
//! `k = 256` start with the data gear *forced* to pull and to push
//! ([`GearMode::ForcePull`] / [`GearMode::ForcePush`] — auto
//! arbitration would flip this start straight to push), swept across
//! two decades of `n` up to 10⁸. Both gears must hold an n-independent
//! flat per-round band — the pull gear could not before this change
//! (its per-round cost was `Θ(n)`).
//!
//! **Part B** pins the payoff where E23 measured the regression: paired
//! same-seed runs from the `k = n` singleton start,
//! `ShardRepr::Histogram` vs `ShardRepr::Agents`, for 3-Majority and
//! 2-Median (Multiset) and Voter (SinglePeer). Each row runs at the
//! population and horizon where its condensation claim lives:
//! 3-Majority at n = 10⁶ over 300 rounds, 2-Median at n = 8·10⁶ to
//! consensus (its margin comes from the pull rounds, which grow with
//! n), and Voter at n = 10⁶ over 2400 rounds (voter occupancy decays
//! like 2n/t, so the condensed win sits in the coalesced tail — a short
//! horizon measures only the crossover region). Every leg is timed
//! twice interleaved and scored by its best per-round time, which
//! cancels both consensus-length luck and machine drift. Every row must
//! now sit at ≥ 1.0x (full scale): the pooled block carries
//! 3-Majority, the flat Fisher–Yates dealing (O(1) per ball, no Fenwick
//! `log d`) carries the own-sensitive diverse regime, and Voter's
//! palette tally was already node-free. The agent baseline is the
//! literal ordered path — Fisher–Yates dealing (or iid union draws) and
//! one `update` per node, for every rule. Records taken while agent
//! shards still had multiset window splits and single-peer dealing of
//! their own timed a faster baseline, so their speedup columns do not
//! compare with this one's.
//!
//! `SYMBREAK_SCALE` scales the largest Part A size (default 10⁸) and
//! the Part B populations (never upscaled — Part B exists to pair
//! against the agent baseline).

use std::time::Instant;

use symbreak_bench::{scale, section, verdict};
use symbreak_core::rules::{ThreeMajority, TwoMedian, Voter};
use symbreak_core::{Configuration, UpdateRule};
use symbreak_runtime::{Cluster, ClusterConfig, GearMode, ShardRepr};
use symbreak_stats::table::fmt_f64;
use symbreak_stats::Table;

const K_COLORS: u64 = 256;
const SHARDS: usize = 8;
const HORIZON_A: u64 = 48;

fn main() {
    println!("# E25: grouped condensed pull — O(#occupied·h) pull rounds, both gears flat in n");

    // ---------------- Part A: forced-gear flat bands ----------------
    let n_max = ((100_000_000.0 * scale()).round() as u64).max(65_536);
    let sizes: Vec<u64> =
        [n_max / 100, n_max / 10, n_max].into_iter().filter(|&n| n >= 65_536).collect();

    section(&format!(
        "Part A: 3-Majority, uniform k = {K_COLORS} start, {SHARDS} shards, forced gears, \
         horizon {HORIZON_A}"
    ));
    let mut table = Table::new(vec!["n", "gear", "rounds run", "us/round", "entries/round"]);
    let mut bands: Vec<(&str, Vec<f64>)> = vec![("pull", Vec::new()), ("push", Vec::new())];
    for (i, &n) in sizes.iter().enumerate() {
        let start = Configuration::uniform(n, K_COLORS as usize);
        for (gear_name, gear, band_idx) in
            [("pull", GearMode::ForcePull, 0usize), ("push", GearMode::ForcePush, 1usize)]
        {
            let config = ClusterConfig::new(SHARDS, 2500 + i as u64).with_data_gear(gear);
            let cluster = Cluster::new(ThreeMajority, &start, config);
            let t = Instant::now();
            let out = cluster.run_horizon(HORIZON_A);
            let secs = t.elapsed().as_secs_f64();
            let us_round = secs * 1e6 / out.rounds_run as f64;
            assert_eq!(out.final_config.n(), n, "mass conserved at n = {n} ({gear_name})");
            bands[band_idx].1.push(us_round);
            table.row(vec![
                n.to_string(),
                gear_name.to_string(),
                out.rounds_run.to_string(),
                fmt_f64(us_round),
                fmt_f64(out.total_messages as f64 / out.rounds_run as f64),
            ]);
        }
    }
    println!("{table}");

    // The claim: per-round cost flat (within allocator/cache noise)
    // while n spans decades, in *both* gears. The pre-grouped pull
    // consume scaled linearly — 100x across this sweep.
    let mut bands_ok = true;
    for (gear_name, band) in &bands {
        if band.len() >= 2 {
            let lo = band.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = band.iter().cloned().fold(0.0, f64::max);
            let flat = hi / lo < 5.0;
            bands_ok &= flat;
            println!(
                "{gear_name} gear band: {:.1}–{:.1} us/round ({:.2}x) while n grows {:.0}x",
                lo,
                hi,
                hi / lo,
                *sizes.last().unwrap() as f64 / sizes[0] as f64
            );
        }
    }

    // ---------------- Part B: the singleton rows, paired ----------------
    // Per-row (population, horizon): each rule is paired where its
    // condensation claim lives (see the module doc). Populations scale
    // down with SYMBREAK_SCALE but never up.
    let n_of = |base: f64| ((base * scale().min(1.0)).round() as u64).max(8_192);
    section(&format!(
        "Part B: paired Histogram vs Agents, k = n singletons, best-of-{REPS} per-round timing"
    ));
    let mut table =
        Table::new(vec!["workload", "access", "n", "condensed ms/r", "agents ms/r", "speedup"]);
    let mut worst_speedup = f64::INFINITY;
    let mut run_pair =
        |name: &str, access: &str, rule: &dyn RunPair, n_b: u64, horizon_b: u64, seed: u64| {
            let start_b = Configuration::singletons(n_b);
            let (c, a, rounds) = rule.run(&start_b, horizon_b, seed);
            let speedup = a / c;
            worst_speedup = worst_speedup.min(speedup);
            table.row(vec![
                format!("{name} ({rounds}r)"),
                access.to_string(),
                n_b.to_string(),
                fmt_f64(c * 1e3),
                fmt_f64(a * 1e3),
                format!("{speedup:.2}x"),
            ]);
        };
    run_pair("3-Majority singletons", "Multiset", &ThreeMajority, n_of(1e6), 300, 4242);
    run_pair("2-Median singletons", "Multiset", &TwoMedian, n_of(8e6), 100, 4243);
    run_pair("Voter singletons", "SinglePeer", &Voter, n_of(1e6), 2_400, 4244);
    println!("{table}");
    println!(
        "worst singleton per-round speedup: {worst_speedup:.2}x (acceptance floor 1.0x at \
         full scale; pre-grouped consume sat at 0.18–0.63x)"
    );

    let enforce = scale() >= 0.999;
    verdict(
        "E25",
        "the grouped condensed pull gear holds an n-independent per-round band in both forced \
         gears across two decades up to n = 1e8, and every k = n singleton pairing now meets or \
         beats the agent baseline",
        bands_ok && (!enforce || worst_speedup >= 1.0),
    );
}

/// Repetitions per leg; every leg is scored by its best per-round time.
const REPS: usize = 2;

/// Object-safe paired runner so the three rules share one closure.
/// Returns (condensed s/round, agents s/round, min rounds run).
trait RunPair {
    fn run(&self, start: &Configuration, horizon: u64, seed: u64) -> (f64, f64, u64);
}

impl<R: UpdateRule + Clone + Send + Sync> RunPair for R {
    fn run(&self, start: &Configuration, horizon: u64, seed: u64) -> (f64, f64, u64) {
        // Interleave the reps (C, A, C, A) so slow drift on a shared box
        // hits both representations alike; best-of-REPS per-round time
        // then cancels scheduler bad luck and consensus-length variance.
        let mut per_round = [f64::INFINITY; 2];
        let mut rounds = [u64::MAX; 2];
        for _ in 0..REPS {
            for (i, repr) in [ShardRepr::Histogram, ShardRepr::Agents].into_iter().enumerate() {
                let config = ClusterConfig::new(SHARDS, seed).with_shard_repr(repr);
                let cluster = Cluster::new(self.clone(), start, config);
                let t = Instant::now();
                let out = cluster.run_horizon(horizon);
                let secs = t.elapsed().as_secs_f64();
                assert_eq!(out.final_config.n(), start.n(), "mass conserved");
                per_round[i] = per_round[i].min(secs / out.rounds_run.max(1) as f64);
                rounds[i] = rounds[i].min(out.rounds_run);
            }
        }
        (per_round[0], per_round[1], rounds[0].min(rounds[1]))
    }
}
