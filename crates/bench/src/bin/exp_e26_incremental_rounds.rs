//! E26 — incremental round state: delta-updatable samplers make
//! stalled-regime rounds `O(#changed)` instead of `O(#occupied)`.
//!
//! The cluster's per-round samplers are rebuilt from scratch each round
//! by default — `O(#occupied)` (the push-gear union alias, the serving
//! mirror) — even in the stalled Theorem-5 regime where only `O(1)`
//! opinions actually change per round. The cluster's
//! [`RoundStateMode::Incremental`] keeps the samplers alive and patches
//! them from the touched-slot change set: a
//! [`symbreak_sim::dist::FenwickPool`] takes an `O(log k)` point update
//! and draws in `O(log k)`, push rounds broadcast histogram deltas, and
//! an unchanged round reuses last round's consume-side alias table
//! outright.
//!
//! **Part A** pins the complexity claim at the sampler layer, the same
//! isolation the E25 gear bands used: a fixed tree of `k = 2¹⁸` slots,
//! exactly 64 patched slots and 64 draws per round, with `#occupied`
//! swept 16x (4096 → 65536). The incremental arm (Fenwick patch +
//! draw) must hold a flat band (≤ 1.3x) — its cost has no `#occupied`
//! term at all — while the rebuild arm (fresh Vose alias over the
//! occupied weights per round, the pre-PR union/sampler idiom) grows
//! roughly linearly.
//!
//! **Part B** pins the payoff where the claim lives: the stalled
//! Theorem-5 regime of E20, `k = n = 10⁵` singletons under 2-Choices
//! on the 8-shard push-gear cluster with delta reports — an agent
//! switches opinion only when both its samples agree, so the expected
//! number of changed histogram slots per round is `O(1)` *globally*.
//! The rebuild arm re-broadcasts every shard's full histogram
//! (`shards² · #occupied` wire entries), re-deduplicates the union and
//! re-aliases it every round; the incremental arm broadcasts zigzag
//! deltas, patches the persistent union, and reuses the consume-side
//! alias table outright on switch-free rounds. Paired same-seed
//! trajectories, best-of-reps per round: the incremental run must be
//! ≥ 1.3x faster — and the delta wire ≥ 10x smaller — at full scale.
//!
//! **Part C** (informational) runs the mode pairing where the win is
//! *not*: the condensed cluster on a uniform `k = 256` start (every
//! slot live and wholesale-resampled per round, so deltas are as wide
//! as full broadcasts — measures the delta path's overhead ceiling).
//!
//! `SYMBREAK_SCALE` scales the Part B/C populations (never upscaled:
//! the claim is pinned at n = 10⁵). Part A ignores it — the sampler
//! microbenchmark has no population to shrink, and a shorter timed
//! loop only adds noise to the band it exists to pin.

use std::hint::black_box;
use std::time::Instant;

use rand::{Rng, SeedableRng};
use symbreak_bench::{scale, section, verdict};
use symbreak_core::rules::{ThreeMajority, TwoChoices};
use symbreak_core::Configuration;
use symbreak_runtime::{Cluster, ClusterConfig, GearMode, ReportMode, RoundStateMode};
use symbreak_sim::dist::{Categorical, FenwickPool};
use symbreak_sim::rng::Pcg64;
use symbreak_stats::table::fmt_f64;
use symbreak_stats::Table;

/// Fixed tree width for Part A: the slot universe the Fenwick sampler
/// spans. Patch and draw cost `O(log K_SLOTS)` regardless of occupancy.
/// 2^18 keeps the whole tree (~4 MB of f64 prefix nodes) inside a
/// commodity L3 at every sweep point, so the band measures the
/// algorithmic cost rather than where the tree falls out of cache.
const K_SLOTS: usize = 1 << 18;
/// Patched slots per Part A round (the fixed `#changed`).
const CHANGED: usize = 64;
/// Draws per Part A round (small against `#occupied`: the stalled
/// regime draws little, which is exactly when rebuilds can't amortize).
const DRAWS: usize = 64;
/// Repetitions per timed leg; each leg scores its best per-round time.
const REPS: usize = 3;

/// One Part A arm: `rounds` rounds of 64 patches + 64 draws over a
/// fixed occupied set. The incremental arm patches a persistent
/// [`FenwickPool`]; the rebuild arm applies the same patches to
/// its dense counts and rebuilds a Vose [`Categorical`] from the
/// occupied weights every round (the pre-incremental idiom,
/// `O(#occupied)` per round). `patch_slots` is the *same* set at every
/// sweep point (the strided sets nest), so "fixed `#changed`" holds
/// literally — the patched slots, not just their number, are
/// occupancy-independent. The patch stream — identical for both arms —
/// is precomputed outside the timed loop: choosing which slot flips is
/// harness bookkeeping, not sampler cost. Returns µs/round.
fn part_a_arm(occ_slots: &[usize], patch_slots: &[usize], rounds: u64, incremental: bool) -> f64 {
    let mut counts = vec![0u64; K_SLOTS];
    for &s in occ_slots {
        counts[s] = 2;
    }
    // Toggle slots between 1 and 2 so every patch is a real count
    // change and the occupied set stays fixed.
    let mut schedule = Pcg64::seed_from_u64(2600);
    let patches: Vec<(u32, u64)> = (0..rounds as usize * CHANGED)
        .map(|_| {
            let s = patch_slots[schedule.gen_range(0..patch_slots.len())];
            let c = 3 - counts[s];
            counts[s] = c;
            (s as u32, c)
        })
        .collect();
    for &s in occ_slots {
        counts[s] = 2;
    }
    let mut draw_rng = Pcg64::seed_from_u64(if incremental { 2601 } else { 2602 });
    let mut fen = FenwickPool::new(&counts);
    let mut alias: Option<Categorical> = None;
    let mut weights: Vec<f64> = Vec::with_capacity(occ_slots.len());
    let t = Instant::now();
    for round in 0..rounds as usize {
        let block = &patches[round * CHANGED..(round + 1) * CHANGED];
        if incremental {
            for &(s, c) in block {
                fen.set(s as usize, c);
            }
            for _ in 0..DRAWS {
                black_box(fen.sample(&mut draw_rng));
            }
        } else {
            for &(s, c) in block {
                counts[s as usize] = c;
            }
            weights.clear();
            weights.extend(occ_slots.iter().map(|&s| counts[s] as f64));
            match &mut alias {
                Some(a) => a.rebuild(&weights),
                None => alias = Some(Categorical::new(&weights)),
            }
            let a = alias.as_ref().expect("alias just built");
            for _ in 0..DRAWS {
                black_box(occ_slots[a.sample(&mut draw_rng)]);
            }
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / rounds as f64
}

fn main() {
    println!(
        "# E26: incremental round state — O(#changed) stalled rounds, rebuild as the paired \
         baseline"
    );

    // ---------------- Part A: sampler-layer flat band ----------------
    // Part A is a pure sampler microbenchmark: its cost is independent
    // of n, so SYMBREAK_SCALE has nothing to shrink — scaling the round
    // count down only widens the best-of timing noise past the 1.3x
    // band this part exists to pin. Always run the full loop (~13 s).
    let rounds_a = 3_000u64;
    let occupancies: [usize; 3] = [4_096, 16_384, 65_536];
    section(&format!(
        "Part A: k = 2^18 slots, {CHANGED} patches + {DRAWS} draws per round, {rounds_a} rounds, \
         #occupied swept {}x",
        occupancies[occupancies.len() - 1] / occupancies[0]
    ));
    let mut table = Table::new(vec!["#occupied", "incremental us/r", "rebuild us/r", "ratio"]);
    let mut inc_band: Vec<f64> = Vec::new();
    let mut reb_line: Vec<f64> = Vec::new();
    // The patched slots are the sparsest sweep point's strided set —
    // a subset of every denser strided set, so the changed set is
    // identical at every occupancy.
    let patch_stride = K_SLOTS / occupancies[0];
    let patch_slots: Vec<usize> = (0..occupancies[0]).map(|i| i * patch_stride).collect();
    // Evenly strided occupied sets over the slot universe.
    let occ_slots: Vec<Vec<usize>> = occupancies
        .iter()
        .map(|&occ| {
            let stride = K_SLOTS / occ;
            (0..occ).map(|i| i * stride).collect()
        })
        .collect();
    // Reps run outermost, interleaved across occupancies, so every
    // sweep point's best-of draws from the same turbo/thermal phases —
    // timing the points minutes apart is what makes the band flaky.
    // The incremental arm is ~40x cheaper than the rebuild arm and is
    // the one the band acceptance reads, so it gets 3x the reps.
    let mut best = [[f64::INFINITY; 2]; 3];
    for rep in 0..3 * REPS {
        for (j, slots) in occ_slots.iter().enumerate() {
            best[j][0] = best[j][0].min(part_a_arm(slots, &patch_slots, rounds_a, true));
            if rep < REPS {
                best[j][1] = best[j][1].min(part_a_arm(slots, &patch_slots, rounds_a, false));
            }
        }
    }
    for (j, &occ) in occupancies.iter().enumerate() {
        inc_band.push(best[j][0]);
        reb_line.push(best[j][1]);
        table.row(vec![
            occ.to_string(),
            fmt_f64(best[j][0]),
            fmt_f64(best[j][1]),
            format!("{:.2}x", best[j][1] / best[j][0]),
        ]);
    }
    println!("{table}");
    let band_lo = inc_band.iter().cloned().fold(f64::INFINITY, f64::min);
    let band_hi = inc_band.iter().cloned().fold(0.0, f64::max);
    let band = band_hi / band_lo;
    let growth = reb_line[reb_line.len() - 1] / reb_line[0];
    let bands_ok = band < 1.3;
    println!(
        "incremental band: {band_lo:.2}-{band_hi:.2} us/round ({band:.2}x, acceptance < 1.3x) \
         while #occupied grows 16x; rebuild line grows {growth:.1}x"
    );

    // ---------------- Part B: paired stalled-regime cluster trajectory ----------------
    let n_b = ((100_000.0 * scale().min(1.0)).round() as u64).max(4_096);
    let horizon_b = 64u64;
    section(&format!(
        "Part B: 2-Choices, k = n = {n_b} singletons (Theorem-5 stalled regime), 8 shards, \
         forced push, delta reports, horizon {horizon_b}, paired same-seed cluster runs, \
         best-of-{REPS} per-round timing"
    ));
    let start_b = Configuration::singletons(n_b);
    let mut best_b = [f64::INFINITY; 2];
    let mut wire_b = [0u64; 2];
    for _ in 0..REPS {
        for (i, rs) in [(0usize, RoundStateMode::Incremental), (1, RoundStateMode::Rebuild)] {
            let config = ClusterConfig::new(8, 4242)
                .with_data_gear(GearMode::ForcePush)
                .with_report_mode(ReportMode::Delta)
                .with_round_state(rs);
            let cluster = Cluster::new(TwoChoices, &start_b, config);
            let t = Instant::now();
            let out = cluster.run_horizon(horizon_b);
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(out.final_config.n(), n_b, "mass conserved ({rs:?})");
            assert!(
                out.consensus_round.is_none(),
                "the Theorem-5 horizon must stay stalled ({rs:?})"
            );
            best_b[i] = best_b[i].min(secs / out.rounds_run.max(1) as f64);
            wire_b[i] = out.total_messages;
        }
    }
    let speedup_b = best_b[1] / best_b[0];
    let wire_ratio = wire_b[1] as f64 / wire_b[0].max(1) as f64;
    let mut table = Table::new(vec!["mode", "ms/round", "wire entries"]);
    table.row(vec!["incremental".into(), fmt_f64(best_b[0] * 1e3), wire_b[0].to_string()]);
    table.row(vec!["rebuild".into(), fmt_f64(best_b[1] * 1e3), wire_b[1].to_string()]);
    println!("{table}");
    println!(
        "stalled-regime speedup: {speedup_b:.2}x (acceptance floor 1.3x at full scale); delta \
         wire collapse: {wire_ratio:.1}x fewer entries (floor 10x at full scale)"
    );

    // ---------------- Part C: overhead checks (informational) ----------------
    section(
        "Part C (informational): where the win is not — the condensed cluster on a uniform \
         k = 256 start",
    );
    let n_c = ((1_000_000.0 * scale().min(1.0)).round() as u64).max(65_536);
    let start_c = Configuration::uniform(n_c, 256);
    let horizon_c = 48u64;
    let mut best_c = [f64::INFINITY; 2];
    for _ in 0..REPS {
        for (i, rs) in [(0usize, RoundStateMode::Incremental), (1, RoundStateMode::Rebuild)] {
            let config = ClusterConfig::new(8, 2626)
                .with_data_gear(GearMode::ForcePush)
                .with_round_state(rs);
            let cluster = Cluster::new(ThreeMajority, &start_c, config);
            let t = Instant::now();
            let out = cluster.run_horizon(horizon_c);
            let secs = t.elapsed().as_secs_f64();
            assert_eq!(out.final_config.n(), n_c, "mass conserved ({rs:?})");
            best_c[i] = best_c[i].min(secs / out.rounds_run.max(1) as f64);
        }
    }
    let mut table = Table::new(vec!["venue", "incremental ms/r", "rebuild ms/r", "ratio"]);
    table.row(vec![
        format!("cluster condensed, 3-Majority uniform k = 256, n = {n_c}"),
        fmt_f64(best_c[0] * 1e3),
        fmt_f64(best_c[1] * 1e3),
        format!("{:.2}x", best_c[1] / best_c[0]),
    ]);
    println!("{table}");
    println!(
        "overhead check: deltas as wide as fulls (condensed uniform) — a ratio near 1.0x is the \
         expected ceiling, not the claim"
    );

    let enforce = scale() >= 0.999;
    verdict(
        "E26",
        "the incremental round state holds an occupancy-independent per-round band (16x \
         occupancy growth inside a 1.3x band) and runs the stalled Theorem-5 cluster regime \
         >= 1.3x faster (>= 10x less wire) than the per-round rebuild baseline at full scale",
        bands_ok && (!enforce || (speedup_b >= 1.3 && wire_ratio >= 10.0)),
    );
}
