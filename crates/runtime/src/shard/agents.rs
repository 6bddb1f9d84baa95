//! The agent-vector shard representation: one opinion per owned node,
//! stepped the literal Uniform Pull way for every rule.

use rand::Rng;

use symbreak_core::{Opinion, UpdateRule};
use symbreak_sim::dist::Categorical;
use symbreak_sim::rng::Pcg64;

use super::{walk_palette, PaletteBuffers, Palettes, ShardState};
use crate::message::{ReportBody, ReportFormat};

/// Tallies `opinions` into the dense `counts` scratch (assumed zero
/// outside `touched`), recording first-touched slots, and returns the
/// undecided count. The one histogram loop behind the delta baseline,
/// the serving snapshot, the push broadcast and the report recount.
fn count_opinions(opinions: &[Opinion], counts: &mut [u64], touched: &mut Vec<u32>) -> u64 {
    let mut undecided = 0u64;
    for &o in opinions {
        if o.is_undecided() {
            undecided += 1;
            continue;
        }
        let i = o.index();
        if counts[i] == 0 {
            touched.push(i as u32);
        }
        counts[i] += 1;
    }
    undecided
}

/// The one write path for agent opinions during a round. With `on`
/// (delta tracking) every write that changes an opinion is logged as
/// `(old, new)`, so the report can net the round's moves instead of
/// recounting the shard.
struct OpinionLog {
    on: bool,
    moves: Vec<(Opinion, Opinion)>,
}

impl OpinionLog {
    #[inline]
    fn write(&mut self, slot: &mut Opinion, next: Opinion) {
        if self.on && *slot != next {
            self.moves.push((*slot, next));
        }
        *slot = next;
    }
}

/// An agent-backed shard: the materialized opinion vector, stepped by
/// one `update` call per node over its dealt (pull) or drawn (push)
/// sample window, whatever the rule's sample access.
pub(super) struct Agents {
    /// One opinion per owned node. Rounds write it only through `log`.
    opinions: Vec<Opinion>,
    log: OpinionLog,
    /// The distinct decided opinions and the undecided nodes in
    /// `opinions` as of the last report (so at round start).
    distinct: usize,
    undecided: u64,
    h: usize,
    /// One sample slot per (local node, pull): `samples[local·h + s]`.
    samples: Vec<Opinion>,
    /// Dense tally scratch, zero outside `touched`: the round-start
    /// snapshot while a pull round serves or a push round broadcasts,
    /// the recount or the netted moves while reporting, zero between.
    counts: Vec<u64>,
    touched: Vec<u32>,
    /// The snapshot's undecided count, and whether this pull round's
    /// snapshot is built (see [`Agents::ensure_snapshot`]).
    snap_undecided: u64,
    snap_ready: bool,
    /// Per-origin walk draws (zero between serves) and the snapshot
    /// weights they are drawn over.
    serve_counts: Vec<u64>,
    theta: Vec<f64>,
    /// Previous round's counts, kept only under delta tracking and
    /// rolled forward in place by the netted moves.
    prev_counts: Vec<u64>,
}

impl Agents {
    pub(super) fn new(opinions: Vec<Opinion>, h: usize, k_slots: usize, tracking: bool) -> Self {
        let mut agents = Self {
            samples: vec![Opinion::new(0); opinions.len() * h],
            opinions,
            log: OpinionLog { on: tracking, moves: Vec::new() },
            distinct: 0,
            undecided: 0,
            h,
            counts: vec![0; k_slots],
            touched: Vec::new(),
            snap_undecided: 0,
            snap_ready: false,
            serve_counts: vec![0; k_slots],
            theta: Vec::new(),
            prev_counts: if tracking { vec![0; k_slots] } else { Vec::new() },
        };
        // The round-0 baseline the first report (and, under delta
        // tracking, the first delta) is relative to.
        agents.baseline(None);
        agents
    }

    /// Tallies the opinions as the report baseline: `distinct`,
    /// `undecided` and, under delta tracking, `prev_counts` (which must
    /// be zero). On rejoin, `expect` holds the snapshot the tally must
    /// reproduce exactly. `O(local_n)`.
    fn baseline(&mut self, expect: Option<(&[(u32, u64)], u64)>) {
        self.touched.clear();
        self.undecided = count_opinions(&self.opinions, &mut self.counts, &mut self.touched);
        self.distinct = self.touched.len();
        if let Some((body, undecided)) = expect {
            assert_eq!(self.undecided, undecided, "rejoin recount: undecided mismatch");
            assert_eq!(self.distinct, body.len(), "rejoin recount: occupancy mismatch");
            for &(slot, count) in body {
                let tally = self.counts[slot as usize];
                assert_eq!(tally, count, "rejoin recount: slot {slot} mismatch");
            }
        }
        if self.log.on {
            std::mem::swap(&mut self.prev_counts, &mut self.counts);
            self.touched.clear();
        } else {
            self.clear_tally();
        }
    }

    /// Builds this pull round's snapshot (first-touch order) if nothing
    /// has yet. Opinions do not change during the exchange, and the
    /// snapshot draws no randomness, so building it late — only for a
    /// round that serves a histogram walk — serves exactly what an
    /// eager snapshot would.
    fn ensure_snapshot(&mut self) {
        if !self.snap_ready {
            debug_assert!(self.touched.is_empty());
            self.snap_undecided =
                count_opinions(&self.opinions, &mut self.counts, &mut self.touched);
            self.snap_ready = true;
        }
    }

    /// Zeroes the dense tally behind `touched`.
    fn clear_tally(&mut self) {
        for &i in &self.touched {
            self.counts[i as usize] = 0;
        }
        self.touched.clear();
    }

    /// Applies the update rule to the sample windows, in deterministic
    /// node order.
    fn apply_windows<R: UpdateRule>(&mut self, rule: &R, rng: &mut Pcg64) {
        for (local, window) in self.samples.chunks_exact(self.h).enumerate() {
            let next = rule.update(self.opinions[local], window, rng);
            self.log.write(&mut self.opinions[local], next);
        }
    }

    /// Nets this round's logged moves into signed `(slot, Δcount)`
    /// entries, one per slot whose count changed, in first-move order.
    /// Rolls `prev_counts`, `distinct` and `undecided` forward and
    /// clears the log. `counts` (zero between reports) holds each
    /// touched slot's running net change as a wrapping `i64`.
    fn net_moves(&mut self) -> Vec<(u32, i64)> {
        self.touched.clear();
        let mut undecided_shift = 0i64;
        for &(old, new) in &self.log.moves {
            for (o, step) in [(old, -1i64), (new, 1)] {
                if o.is_undecided() {
                    undecided_shift += step;
                    continue;
                }
                let i = o.index();
                // A slot whose net returned to zero may be listed twice;
                // the emission below skips the second copy.
                if self.counts[i] == 0 {
                    self.touched.push(i as u32);
                }
                self.counts[i] = self.counts[i].wrapping_add(step as u64);
            }
        }
        self.log.moves.clear();
        let mut pairs = Vec::new();
        for &i in &self.touched {
            let net = self.counts[i as usize] as i64;
            if net == 0 {
                continue;
            }
            self.counts[i as usize] = 0;
            let prev = self.prev_counts[i as usize];
            let next = prev.checked_add_signed(net).expect("a slot cannot lose more than it held");
            self.prev_counts[i as usize] = next;
            self.distinct = self.distinct + usize::from(prev == 0) - usize::from(next == 0);
            pairs.push((i, net));
        }
        self.touched.clear();
        self.undecided = self
            .undecided
            .checked_add_signed(undecided_shift)
            .expect("undecided count cannot go negative");
        pairs
    }
}

impl ShardState for Agents {
    fn local_n(&self) -> usize {
        self.opinions.len()
    }

    fn distinct(&self) -> usize {
        self.distinct
    }

    /// A walk draws over the lazily built snapshot; a raw batch reads
    /// the opinions directly, so in the diverse regime an agent shard
    /// never tallies a snapshot in the pull gear.
    fn serve(&mut self, m: u64, walk: bool, rng: &mut Pcg64, out: &mut PaletteBuffers) {
        if walk {
            self.ensure_snapshot();
            self.theta.clear();
            self.theta.extend(self.touched.iter().map(|&i| self.counts[i as usize] as f64));
            walk_palette(
                m,
                self.snap_undecided,
                self.opinions.len(),
                &self.touched,
                &self.theta,
                rng,
                &mut self.serve_counts,
                out,
            );
        } else {
            // A `u32` range: a `usize` one would draw another stream.
            let local_n = self.opinions.len() as u32;
            out.0.reserve(m as usize);
            for _ in 0..m {
                out.0.push(self.opinions[rng.gen_range(0..local_n) as usize]);
            }
        }
    }

    fn compensate(&mut self, m: u64, rng: &mut Pcg64, out: &mut PaletteBuffers) {
        let local_n = self.opinions.len();
        out.0.reserve(m as usize);
        for _ in 0..m {
            out.0.push(self.opinions[rng.gen_range(0..local_n)]);
        }
    }

    fn serving_done(&mut self) {
        self.clear_tally();
        self.snap_ready = false;
    }

    /// The round-start tally, sorted by slot (`O(d log d)`, push
    /// rounds only) so every push union is one merge of sorted runs.
    fn push_histogram(&mut self, (body, bruns): &mut PaletteBuffers) -> u64 {
        let undecided = count_opinions(&self.opinions, &mut self.counts, &mut self.touched);
        self.touched.sort_unstable();
        for &i in &self.touched {
            bruns.push((body.len() as u32, self.counts[i as usize]));
            body.push(Opinion::new(i));
        }
        self.clear_tally();
        undecided
    }

    /// Deals the received palettes into the sample buffer in origin
    /// order (arrival-order independent) through an inside-out
    /// Fisher–Yates — one pass expands *and* shuffles — then applies
    /// the rule per node. An iid sequence conditioned on its multiset is
    /// a uniform arrangement, so the joint law of the `local_n · h`
    /// samples is exactly iid Uniform Pull.
    fn consume_pull<R: UpdateRule>(&mut self, rule: &R, rng: &mut Pcg64, palettes: &mut Palettes) {
        let mut pos = 0usize;
        for origin in 0..palettes.recv.len() {
            let (palette, runs) = palettes.take(origin);
            let mut deal = |o: Opinion| {
                let j = rng.gen_range(0..=pos);
                self.samples[pos] = self.samples[j];
                self.samples[j] = o;
                pos += 1;
            };
            if runs.is_empty() {
                // Raw palette: one insert per draw.
                palette.iter().for_each(|&o| deal(o));
            } else {
                for &(pi, c) in &runs {
                    (0..c).for_each(|_| deal(palette[pi as usize]));
                }
            }
            palettes.pool.push((palette, runs));
        }
        debug_assert_eq!(pos, self.samples.len(), "palette mass must equal the requested pulls");
        self.apply_windows(rule, rng);
    }

    /// Draws all `local_n · h` samples iid from the union alias table
    /// (no shuffle needed — iid draws are already exchangeable), then
    /// applies the rule per node.
    fn consume_push<R: UpdateRule>(
        &mut self,
        rule: &R,
        rng: &mut Pcg64,
        values: &[Opinion],
        weights: &[f64],
    ) {
        if self.samples.is_empty() {
            return;
        }
        let alias = Categorical::new(weights);
        for sample in &mut self.samples {
            *sample = values[alias.sample(rng)];
        }
        self.apply_windows(rule, rng);
    }

    /// Under delta tracking the round's logged moves are netted first,
    /// in `O(#moves)`: they are the delta body and the changed-slot
    /// count, and they roll `prev_counts`, `distinct` and `undecided`
    /// forward. A sparse body recounts the opinions in first-touch
    /// order, `O(local_n)`.
    fn report(
        &mut self,
        format: ReportFormat,
        pool: &mut Vec<Vec<(u32, u64)>>,
    ) -> (ReportBody, u64, Option<u64>) {
        let deltas = self.log.on.then(|| self.net_moves());
        let changed_slots = deltas.as_ref().map(|d| d.len() as u64);
        let body = match format {
            ReportFormat::Delta => {
                ReportBody::Delta(deltas.expect("delta reports need ReportMode::Delta tracking"))
            }
            ReportFormat::Sparse => {
                self.touched.clear();
                let undecided = count_opinions(&self.opinions, &mut self.counts, &mut self.touched);
                debug_assert!(
                    !self.log.on
                        || (undecided == self.undecided && self.touched.len() == self.distinct),
                    "netted moves must agree with the recount"
                );
                self.undecided = undecided;
                self.distinct = self.touched.len();
                let mut pairs = pool.pop().unwrap_or_default();
                pairs.clear();
                pairs.extend(self.touched.iter().map(|&i| (i, self.counts[i as usize])));
                self.clear_tally();
                ReportBody::Sparse(pairs)
            }
        };
        (body, self.undecided, changed_slots)
    }

    /// Rematerializes the opinions and verifies them by a dense
    /// recount: the snapshot is the shard's own last accepted report,
    /// so the tally must round-trip exactly. The verified tally is the
    /// new report baseline.
    fn rejoin(&mut self, body: &[(u32, u64)], undecided: u64) {
        let local_n = self.opinions.len();
        self.opinions.clear();
        for &(slot, count) in body {
            self.opinions.extend(std::iter::repeat_n(Opinion::new(slot), count as usize));
        }
        self.opinions.extend(std::iter::repeat_n(Opinion::UNDECIDED, undecided as usize));
        assert_eq!(self.opinions.len(), local_n, "snapshot mass must match the shard size");
        self.log.moves.clear();
        self.prev_counts.fill(0);
        self.baseline(Some((body, undecided)));
    }
}
