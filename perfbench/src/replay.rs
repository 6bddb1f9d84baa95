//! Per-layer replays: each layer's public functions, called from outside
//! on inputs captured from the workload itself — configuration snapshots
//! at sampled rounds, shard-sized halves of them, and the measured
//! report and palette sizes. Replays run after the timed loops, so they
//! never disturb the end-to-end numbers.
//!
//! A per-snapshot time is the median over repeated calls; a metric is
//! the per-round average of its snapshot values (see [`round_average`]).

use std::hint::black_box;
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use symbreak_core::process::{AcProcess, MultisetRule, UpdateRule, VectorStep};
use symbreak_core::rules::{ThreeMajority, TwoChoices};
use symbreak_core::{Configuration, Opinion};
use symbreak_runtime::codec::{
    decode_frame, decode_report, decode_shard_message, encode_report, encode_shard_message,
};
use symbreak_runtime::message::ShardReport;
use symbreak_runtime::{OpinionPalette, ReportBody, ShardMessage};
use symbreak_sim::dist::{
    sample_multinomial_into, sample_multinomial_sparse_into, sample_multinomial_tally_into,
    Binomial, Categorical, FenwickPool, GroupSplitter, Hypergeometric,
};
use symbreak_sim::rng::Pcg64;

use crate::{median, SHARDS};

/// A configuration captured at a round of the workload's trajectory.
#[derive(Debug, Clone)]
pub struct Snap {
    /// Rounds completed when the snapshot was taken.
    pub round: u64,
    /// The configuration.
    pub config: Configuration,
}

/// Wall-time budget of one replayed (metric, snapshot) pair.
const BUDGET: Duration = Duration::from_millis(100);

/// Calls per timing of a nanosecond-scale replay.
const BATCH: usize = 1000;

/// Median seconds per call of `f` over at least 3 and at most 200 calls
/// and about [`BUDGET`]; `prep` builds each call's input untimed.
fn time_call<S>(mut prep: impl FnMut() -> S, mut f: impl FnMut(S)) -> f64 {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < 3 || (start.elapsed() < BUDGET && times.len() < 200) {
        let input = prep();
        let t = Instant::now();
        f(input);
        times.push(t.elapsed().as_secs_f64());
    }
    median(&mut times)
}

/// Average over rounds of a quantity sampled at `points` (round, value),
/// rounds ascending. Between two sampled rounds the quantity follows the
/// power law through both points — exact for the `1/t`-like decay of
/// per-round cost along a coalescing trajectory, which straight lines
/// between log-spaced samples would overstate several-fold — and a
/// straight line where the law is undefined (round 0, values ≤ 0).
pub fn round_average(points: &[(u64, f64)]) -> f64 {
    let (Some(first), Some(last)) = (points.first(), points.last()) else { return 0.0 };
    let span = (last.0 - first.0) as f64;
    if span == 0.0 {
        return points.iter().map(|p| p.1).sum::<f64>() / points.len() as f64;
    }
    let area: f64 = points
        .windows(2)
        .map(|w| {
            let ((r0, v0), (r1, v1)) = ((w[0].0 as f64, w[0].1), (w[1].0 as f64, w[1].1));
            if r0 < 1.0 || v0 <= 0.0 || v1 <= 0.0 {
                return (v0 + v1) / 2.0 * (r1 - r0);
            }
            let (ratio, b) = (r1 / r0, (v1 / v0).ln() / (r1 / r0).ln());
            if (b + 1.0).abs() < 1e-9 {
                v0 * r0 * ratio.ln()
            } else {
                v0 * r0 / (b + 1.0) * (ratio.powf(b + 1.0) - 1.0)
            }
        })
        .sum();
    area / span
}

/// Replays `f` on every snapshot and averages over rounds.
fn per_snap(snaps: &[Snap], mut f: impl FnMut(&Configuration) -> f64) -> f64 {
    let points: Vec<(u64, f64)> = snaps.iter().map(|s| (s.round, f(&s.config))).collect();
    round_average(&points)
}

/// A shard's sparse report body: `(slot, count)` pairs.
type Body = Vec<(u32, u64)>;

/// Splits a configuration into two shard bodies of `(slot, count)` pairs,
/// alternating which half rounds up so each shard holds about `n/2`.
fn split_halves(c: &Configuration) -> (Body, Body) {
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for (j, (&slot, count)) in c.occupied().iter().zip(c.occupied_counts()).enumerate() {
        let first = if j % 2 == 0 { count.div_ceil(2) } else { count / 2 };
        if first > 0 {
            a.push((slot, first));
        }
        if count > first {
            b.push((slot, count - first));
        }
    }
    (a, b)
}

/// 3-Majority's `α` over the occupied slots.
fn alpha_3m(c: &Configuration) -> Vec<f64> {
    let mut w = Vec::new();
    ThreeMajority.alpha_into(c, &mut w);
    w
}

/// One shard's pooled pull block at the `k = n` singleton boot round:
/// the histogram of `local_n · 3` uniform draws over the `n` colors,
/// as (values, counts) over the drawn colors.
fn boot_block(n: u64, rng: &mut Pcg64) -> (Vec<Opinion>, Vec<u64>) {
    let local_n = n / SHARDS as u64;
    let mut drawn = vec![0u64; n as usize];
    sample_multinomial_into(local_n * 3, &vec![1.0; n as usize], rng, &mut drawn);
    drawn
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c > 0)
        .map(|(slot, &c)| (Opinion::new(slot as u32), c))
        .unzip()
}

/// One replayed metric: `(name, value)`.
pub type Metric = (&'static str, f64);

/// `engine_race_3m`: 3-Majority's `Mult(n, α)` in both forms, its vector
/// step and `α`, at the race's snapshots.
pub fn race_3m(n: u64, snaps: &[Snap], seed: u64) -> Vec<Metric> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let mut sparse_pts = Vec::new();
    let mut tally_pts = Vec::new();
    for s in snaps {
        let c = &s.config;
        let w = alpha_3m(c);
        let mut counts = vec![0u64; c.num_slots()];
        let sparse = time_call(
            || (),
            |()| {
                for &i in c.occupied() {
                    counts[i as usize] = 0;
                }
                sample_multinomial_sparse_into(n, &w, c.occupied(), &mut rng, &mut counts);
            },
        );
        let mut table = Categorical::new(&w);
        let tally = time_call(
            || (),
            |()| {
                for &i in c.occupied() {
                    counts[i as usize] = 0;
                }
                table.rebuild(&w);
                sample_multinomial_tally_into(n, &table, c.occupied(), &mut rng, &mut counts);
            },
        );
        sparse_pts.push((s.round, sparse * 1e6));
        tally_pts.push((s.round, tally * 1e6));
    }
    // The rule dispatches to whichever form its cost model predicts is
    // cheaper, so the cheaper replay is its sampler time.
    let sampler_pts: Vec<(u64, f64)> =
        sparse_pts.iter().zip(&tally_pts).map(|(a, b)| (a.0, a.1.min(b.1))).collect();
    let step_ms = per_snap(snaps, |c| {
        time_call(|| c.clone(), |mut next| ThreeMajority.vector_step_into(&mut next, &mut rng))
            * 1e3
    });
    let mut alpha = Vec::new();
    let alpha_us =
        per_snap(snaps, |c| time_call(|| (), |()| ThreeMajority.alpha_into(c, &mut alpha)) * 1e6);
    vec![
        ("sim.dist.multinomial_sparse_us", round_average(&sparse_pts)),
        ("sim.dist.multinomial_tally_us", round_average(&tally_pts)),
        ("core.rules.vector_step_ms.3m", step_ms),
        ("core.rules.alpha_us.3m", alpha_us),
        // Rule self time: the vector step minus the samplers it calls.
        ("core.rules.self_ms.3m", step_ms - (alpha_us + round_average(&sampler_pts)) / 1e3),
    ]
}

/// `engine_race_2c`: 2-Choices' per-slot `Binomial(1, S₂)` and its vector
/// step at the race's snapshots.
pub fn race_2c(snaps: &[Snap], seed: u64) -> Vec<Metric> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let binomial_ns = per_snap(snaps, |c| {
        let p = c.l2_norm_sq().clamp(0.0, 1.0);
        time_call(
            || (),
            |()| {
                for _ in 0..BATCH {
                    black_box(Binomial::new(1, black_box(p)).sample(&mut rng));
                }
            },
        ) / BATCH as f64
            * 1e9
    });
    let step_ms = per_snap(snaps, |c| {
        time_call(|| c.clone(), |mut next| TwoChoices.vector_step_into(&mut next, &mut rng)) * 1e3
    });
    let occupied = per_snap(snaps, |c| c.num_colors() as f64);
    vec![
        ("sim.dist.binomial_ns", binomial_ns),
        ("core.rules.vector_step_ms.2c", step_ms),
        // Rule self time: the vector step minus one binomial per slot.
        ("core.rules.self_ms.2c", step_ms - occupied * binomial_ns / 1e6),
    ]
}

/// `fleet_3m_singletons`: the boot round's pooled pull block (splitter,
/// hypergeometric, Fenwick dealing, window step), and at the fleet's
/// snapshots one shard's push step with its `Mult(n/2, α)` and union
/// alias table, and the coordinator's sparse fold of two shard bodies.
pub fn fleet_3m(n: u64, snaps: &[Snap], seed: u64) -> Vec<Metric> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let local_n = n / SHARDS as u64;
    let multinomial_us = per_snap(snaps, |c| {
        let w = alpha_3m(c);
        let mut counts = vec![0u64; w.len()];
        time_call(|| (), |()| sample_multinomial_into(local_n, &w, &mut rng, &mut counts)) * 1e6
    });
    let categorical_us = per_snap(snaps, |c| {
        let w: Vec<f64> = c.occupied_counts().map(|x| x as f64).collect();
        time_call(|| (), |()| drop(black_box(Categorical::new(&w)))) * 1e6
    });

    let (values, block) = boot_block(n, &mut rng);
    let mut sink = 0u64;
    let splitter_ms = time_call(
        || block.clone(),
        |mut b| GroupSplitter::new(&mut b).draw_block(local_n, &mut rng, |_, x| sink += x),
    ) * 1e3;
    let total: u64 = block.iter().sum();
    let marked = (total / block.len().max(1) as u64).max(1);
    let hyper_ns = time_call(
        || (),
        |()| {
            for _ in 0..BATCH {
                black_box(Hypergeometric::new(total, marked, local_n).sample(&mut rng));
            }
        },
    ) / BATCH as f64
        * 1e9;
    let deals = (BATCH as u64).min(total);
    let fenwick_ns = time_call(
        || FenwickPool::new(&block),
        |mut pool| {
            for _ in 0..deals {
                pool.deal(1, &mut rng, |_, x| sink += x);
            }
        },
    ) / deals as f64
        * 1e9;
    let mut stepped = Vec::new();
    let window_ms = time_call(
        || block.clone(),
        |mut b| {
            stepped.clear();
            ThreeMajority.condensed_window_step(
                Opinion::new(0),
                local_n,
                &values,
                &mut b,
                &mut rng,
                &mut stepped,
            );
        },
    ) * 1e3;
    black_box(sink);

    let push_ms = per_snap(snaps, |c| {
        let (mine, _) = split_halves(c);
        let groups: Vec<(Opinion, u64)> =
            mine.iter().map(|&(slot, count)| (Opinion::new(slot), count)).collect();
        let values: Vec<Opinion> = c.occupied().iter().map(|&s| Opinion::new(s)).collect();
        let weights: Vec<f64> = c.occupied_counts().map(|x| x as f64).collect();
        time_call(
            || (),
            |()| {
                stepped.clear();
                ThreeMajority.condensed_push_step(
                    &groups,
                    &values,
                    &weights,
                    &mut rng,
                    &mut stepped,
                );
            },
        ) * 1e3
    });
    let merge_us = per_snap(snaps, |c| {
        let (a, b) = split_halves(c);
        time_call(|| c.clone(), |mut m| m.merge_sparse([&a[..], &b[..]])) * 1e6
    });
    vec![
        ("sim.dist.multinomial_us", multinomial_us),
        ("sim.dist.categorical_build_us", categorical_us),
        ("sim.dist.group_splitter_ms", splitter_ms),
        ("sim.dist.hypergeometric_ns", hyper_ns),
        ("sim.dist.fenwick_deal_ns", fenwick_ns),
        ("core.rules.condensed_push_step_ms", push_ms),
        ("core.rules.condensed_window_step_ms", window_ms),
        ("core.config.merge_sparse_us", merge_us),
    ]
}

/// `fleet_2c_stalled` and `socket_2c_stalled`: one per-node 2-Choices
/// `update` and the coordinator's fold of delta bodies of the measured
/// `#changed` (`report_entries` per round over all shards), at the fleet's
/// snapshots; on sockets also one shard's raw palette of `n/2` opinions
/// and its delta report through the codec.
pub fn fleet_2c(snaps: &[Snap], report_entries: f64, socket: bool, seed: u64) -> Vec<Metric> {
    let mut rng = Pcg64::seed_from_u64(seed);
    let update_ns = per_snap(snaps, |c| {
        let opinions = c.to_opinions();
        let pick = |rng: &mut Pcg64| opinions[rng.gen_range(0..opinions.len())];
        let trio: Vec<(Opinion, [Opinion; 2])> =
            (0..BATCH).map(|_| (pick(&mut rng), [pick(&mut rng), pick(&mut rng)])).collect();
        time_call(
            || (),
            |()| {
                for (own, samples) in &trio {
                    black_box(TwoChoices.update(*own, samples, &mut rng));
                }
            },
        ) / BATCH as f64
            * 1e9
    });
    let deltas_us = per_snap(snaps, |c| {
        let pairs = ((report_entries / 2.0).round() as usize).clamp(1, c.num_colors() / 2);
        let occ = c.occupied();
        let body: Vec<(u32, i64)> =
            (0..pairs).flat_map(|i| [(occ[2 * i], -1), (occ[2 * i + 1], 1)]).collect();
        time_call(|| c.clone(), |mut m| m.apply_deltas([&body[..]])) * 1e6
    });
    let mut out =
        vec![("core.rules.update_ns.2c", update_ns), ("core.config.apply_deltas_us", deltas_us)];
    if socket {
        let (enc, dec) = palette_codec(snaps);
        let (enc_report, dec_report) = report_codec(snaps, report_entries);
        out.extend([
            ("runtime.codec.encode_palette_us", enc),
            ("runtime.codec.decode_palette_us", dec),
            ("runtime.codec.encode_report_us", enc_report),
            ("runtime.codec.decode_report_us", dec_report),
        ]);
    }
    out
}

/// Encode and decode µs of one shard's raw palette (`n/2` opinions).
fn palette_codec(snaps: &[Snap]) -> (f64, f64) {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for s in snaps {
        let local_n = s.config.n() as usize / SHARDS;
        let palette: Vec<Opinion> = s.config.to_opinions().into_iter().take(local_n).collect();
        let msg = ShardMessage::Palette(OpinionPalette {
            origin: 1,
            round: 1,
            palette,
            runs: Vec::new(),
        });
        let mut buf = Vec::new();
        enc.push((
            s.round,
            time_call(
                || (),
                |()| {
                    buf.clear();
                    encode_shard_message(&msg, &mut buf);
                },
            ) * 1e6,
        ));
        dec.push((
            s.round,
            time_call(
                || (),
                |()| {
                    let (frame, _) = decode_frame(&buf).expect("replayed frame decodes");
                    black_box(decode_shard_message(&frame).expect("replayed palette decodes"));
                },
            ) * 1e6,
        ));
    }
    (round_average(&enc), round_average(&dec))
}

/// Encode and decode µs of one shard's delta report at the measured size.
fn report_codec(snaps: &[Snap], report_entries: f64) -> (f64, f64) {
    let entries = ((report_entries / SHARDS as f64).round() as usize).max(1);
    let report = ShardReport {
        shard: 0,
        round: snaps.last().map_or(1, |s| s.round.max(1)),
        body: ReportBody::Delta(
            (0..entries).map(|i| (i as u32, if i % 2 == 0 { -1 } else { 1 })).collect(),
        ),
        undecided: 0,
        messages_sent: 0,
        recovered: 0,
        changed_slots: None,
        bytes_sent: 0,
        bytes_received: 0,
    };
    let mut buf = Vec::new();
    let enc = time_call(
        || (),
        |()| {
            buf.clear();
            encode_report(&report, &mut buf);
        },
    );
    let dec = time_call(
        || (),
        |()| {
            let (frame, _) = decode_frame(&buf).expect("replayed frame decodes");
            black_box(decode_report(&frame).expect("replayed report decodes"));
        },
    );
    (enc * 1e6, dec * 1e6)
}

#[cfg(test)]
mod tests {
    use super::round_average;

    #[test]
    fn round_average_is_exact_for_power_laws_and_lines() {
        let inverse: Vec<(u64, f64)> =
            [1u64, 4, 16, 64].iter().map(|&r| (r, 1.0 / r as f64)).collect();
        assert!((round_average(&inverse) - 64f64.ln() / 63.0).abs() < 1e-12);
        let square: Vec<(u64, f64)> = [1u64, 3].iter().map(|&r| (r, (r * r) as f64)).collect();
        assert!((round_average(&square) - 26.0 / 6.0).abs() < 1e-12);
        assert_eq!(round_average(&[(0, 2.0), (10, 4.0)]), 3.0);
        assert_eq!(round_average(&[(5, 7.0)]), 7.0);
        assert_eq!(round_average(&[]), 0.0);
    }
}
