//! E20 — Theorem 5 at system scale: the `Ω(n / log n)` lower-bound
//! horizon for 2-Choices, executed on the *sharded message-passing
//! cluster* (not the single-machine engines) from the `k = n` singleton
//! start, at `n = 10⁶` at full scale.
//!
//! This is the workload the aggregate wire formats exist for. The
//! control plane runs `ReportMode::Delta`: 2-Choices from singletons
//! keeps `Θ(n)` colors alive for the whole horizon (absolute sparse
//! reports would stay `O(local_n)` forever) while only `O(1)` nodes
//! switch opinion per round, so the coordinator flips the fleet to
//! signed-delta reports and the per-round report size collapses to
//! `O(#changed)`. The data plane sends one pull batch + one opinion
//! palette per shard pair per round (`O(#pairs · #distinct)` channel
//! entries), under the `2·n·h` entries of one request and one reply per
//! pull.
//!
//! Regenerates the Theorem-5 claim at scale: from maximal support 1, no
//! color exceeds `ℓ' = max(2, γ·ln n)` within the `n / (γ·ℓ')` horizon
//! w.h.p., and in particular the cluster cannot reach consensus there.
//!
//! `SYMBREAK_SCALE` scales `n` (default 10⁶, floor 4096); the CI smoke
//! runs `SYMBREAK_SCALE=0.004096` for exactly `k = n = 4096` and a
//! ~50-round horizon.

use symbreak_bench::{scale, section, verdict};
use symbreak_core::rules::TwoChoices;
use symbreak_core::theory::{theorem5_horizon, theorem5_support_cap};
use symbreak_core::Configuration;
use symbreak_runtime::{Cluster, ClusterConfig, ReportMode};
use symbreak_stats::table::fmt_f64;
use symbreak_stats::Table;

fn main() {
    println!("# E20: Theorem-5 horizon sweep on the cluster (reports: Delta)");
    let gamma = 3.0;
    let shards = 8;
    let n_max = ((1_000_000.0 * scale()).round() as u64).max(4096);
    let sizes: Vec<u64> = if n_max / 4 >= 4096 { vec![n_max / 4, n_max] } else { vec![n_max] };

    let mut all_capped = true;
    let mut none_converged = true;
    for (i, &n) in sizes.iter().enumerate() {
        let ell_prime = theorem5_support_cap(1, gamma, n);
        let horizon = (theorem5_horizon(n, ell_prime, gamma).floor() as u64).max(4);
        section(&format!(
            "n = k = {n}: support cap ell' = {ell_prime}, horizon n/(γ·ell') = {horizon} rounds"
        ));

        let start = Configuration::singletons(n);
        let config =
            ClusterConfig::new(shards, 2017 + i as u64).with_report_mode(ReportMode::Delta);
        let cluster = Cluster::new(TwoChoices, &start, config);
        let out = cluster.run_horizon(horizon);

        // The support-cap series, at geometrically spaced checkpoints.
        let mut table =
            Table::new(vec!["round", "max support", "colors alive", "alive / n", "report entries"]);
        let rounds = out.trace.rounds();
        let mut checkpoints: Vec<u64> = Vec::new();
        let mut c = 1u64;
        while c < horizon {
            checkpoints.push(c);
            c *= 4;
        }
        checkpoints.push(horizon);
        for cp in checkpoints {
            if let Some(r) = rounds.get(cp as usize - 1) {
                table.row(vec![
                    r.round.to_string(),
                    r.max_support.to_string(),
                    r.num_colors.to_string(),
                    fmt_f64(r.num_colors as f64 / n as f64),
                    out.report_entries[cp as usize - 1].to_string(),
                ]);
            }
        }
        println!("{table}");

        let peak = rounds.iter().map(|r| r.max_support).max().unwrap_or(0);
        let violations = rounds.iter().filter(|r| r.max_support > ell_prime).count();
        all_capped &= violations == 0;
        none_converged &= out.consensus_round.is_none();
        println!(
            "peak support {peak} / cap {ell_prime}; violations {violations}/{}; consensus: {:?}",
            rounds.len(),
            out.consensus_round
        );

        // Message accounting: the wire must come in under the Uniform
        // Pull cost model of one request and one reply per pull (each
        // pair's palette carries at most as many entries as the pulls
        // it answers).
        let per_pull_total = out.rounds_run * 2 * n * 2;
        assert!(
            out.total_messages < per_pull_total,
            "the wire must move fewer entries than the 2·n·h model \
             ({} vs {per_pull_total})",
            out.total_messages
        );
        println!(
            "messages: {} total vs {} per-pull model = {:.1}x compression",
            out.total_messages,
            per_pull_total,
            per_pull_total as f64 / out.total_messages as f64
        );

        // The transport layer's byte accounting (PR 8): every entry
        // above rides the versioned frame codec, and the channel
        // backend counts the exact frame lengths a socket fleet would
        // write.
        println!(
            "wire bytes: {} total = {:.1}/round ({:.2} bytes/entry)",
            out.wire_bytes,
            out.wire_bytes as f64 / out.rounds_run as f64,
            out.wire_bytes as f64 / out.total_messages as f64
        );

        // The delta control plane: once the process stalls, per-round
        // report entries collapse from O(local_n) to O(#changed).
        let tail = &out.report_entries[out.report_entries.len() / 2..];
        let tail_mean = tail.iter().sum::<u64>() as f64 / tail.len() as f64;
        println!(
            "report entries: {} round-1 (absolute) -> {:.1}/round over the stalled tail \
             (O(#changed), colors alive ~{})",
            out.report_entries[0],
            tail_mean,
            rounds.last().map(|r| r.num_colors).unwrap_or(0)
        );
        assert!(
            tail_mean < n as f64 / 10.0,
            "delta reports should collapse well below O(n) in the stalled regime"
        );
    }

    verdict(
        "E20",
        "on the sharded cluster, 2-Choices respects the Theorem-5 support cap over the \
         Ω(n/log n) horizon and does not reach consensus",
        all_capped && none_converged,
    );
}
