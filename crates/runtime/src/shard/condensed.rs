//! The condensed shard representation: the local histogram as sorted
//! `(slot, count)` pairs plus an undecided count, stepped by moving
//! mass between histograms. No per-agent state exists on this path.

use rand::Rng;

use symbreak_core::{Opinion, SampleAccess, UpdateRule};
use symbreak_sim::dist::{sample_multinomial_into, FenwickPool};
use symbreak_sim::rng::Pcg64;

use super::{walk_palette, PaletteBuffers, Palettes, ShardState};
use crate::message::{ReportBody, ReportFormat};

/// Crossover between the pooled condensed-pull block and per-ball
/// dealing: the block pays one hypergeometric draw plus `O(log d)`
/// Fenwick traffic per pool category, which costs roughly this many
/// per-ball dealing steps. The block engages only while
/// `d · FACTOR ≤ local_n · h`.
const POOL_DISPATCH_FACTOR: u64 = 16;

/// Two-pass 16-bit LSD radix sort for the flat condensed tally: ~4
/// sequential passes over the data plus two bucket scatters, where a
/// comparison sort pays `n log n` branchy compares. `tmp` and `counts`
/// are caller-owned scratch so the per-round cost is zeroing the 2^16
/// counters twice. Falls back to `sort_unstable` for short inputs
/// (counter zeroing would dominate) or inputs too long for the u32
/// bucket offsets.
fn radix_sort_u32(data: &mut [u32], tmp: &mut Vec<u32>, counts: &mut Vec<u32>) {
    let n = data.len();
    if n < 4096 || n > u32::MAX as usize {
        data.sort_unstable();
        return;
    }
    tmp.resize(n, 0);
    counts.resize(1 << 16, 0);
    radix_pass(data, tmp, counts, 0);
    radix_pass(tmp, data, counts, 16);
}

/// One stable counting-sort pass of [`radix_sort_u32`] on the 16-bit
/// digit at `shift`.
fn radix_pass(src: &[u32], dst: &mut [u32], counts: &mut [u32], shift: u32) {
    counts.fill(0);
    for &x in src {
        counts[((x >> shift) & 0xFFFF) as usize] += 1;
    }
    let mut sum = 0u32;
    for c in counts.iter_mut() {
        let t = *c;
        *c = sum;
        sum += t;
    }
    for &x in src {
        let b = ((x >> shift) & 0xFFFF) as usize;
        dst[counts[b] as usize] = x;
        counts[b] += 1;
    }
}

/// The flat-tally key of an opinion: its slot, `u32::MAX` for UNDECIDED
/// (which sorts last).
fn flat_key(o: Opinion) -> u32 {
    if o.is_undecided() {
        u32::MAX
    } else {
        o.index() as u32
    }
}

/// Tallies the present palettes into the dense `counts` scratch (zero
/// outside `touched`) origin by origin, recording first-touched slots,
/// and returns the undecided mass. A palette without runs is raw: one
/// draw per entry.
fn tally_palettes(
    palettes: &[Option<PaletteBuffers>],
    counts: &mut [u64],
    touched: &mut Vec<u32>,
) -> u64 {
    let mut undecided = 0u64;
    let mut tally = |o: Opinion, c: u64| {
        if o.is_undecided() {
            undecided += c;
        } else {
            let i = o.index();
            if counts[i] == 0 {
                touched.push(i as u32);
            }
            counts[i] += c;
        }
    };
    for (palette, runs) in palettes.iter().flatten() {
        if runs.is_empty() {
            palette.iter().for_each(|&o| tally(o, 1));
        } else {
            runs.iter().for_each(|&(pi, c)| tally(palette[pi as usize], c));
        }
    }
    undecided
}

/// Visits the signed per-slot changes from `prev` to `cur` (both
/// strictly ascending by slot with positive counts) in delta-body
/// order: changed or new slots ascending, then vanished slots
/// ascending. Two sorted merges, `O(|prev| + |cur|)`, no dense scratch.
fn pair_deltas(prev: &[(u32, u64)], cur: &[(u32, u64)], mut emit: impl FnMut(u32, i64)) {
    let mut j = 0;
    for &(i, c) in cur {
        while j < prev.len() && prev[j].0 < i {
            j += 1;
        }
        let p = if j < prev.len() && prev[j].0 == i { prev[j].1 } else { 0 };
        if c != p {
            emit(i, c as i64 - p as i64);
        }
    }
    let mut j = 0;
    for &(i, p) in prev {
        while j < cur.len() && cur[j].0 < i {
            j += 1;
        }
        if j == cur.len() || cur[j].0 != i {
            emit(i, -(p as i64));
        }
    }
}

/// A condensed shard (see the module docs of [`crate::shard`]).
pub(super) struct Condensed {
    /// Whether the rule is a [`MultisetRule`](symbreak_core::MultisetRule) consumed by aggregate
    /// steps; otherwise it reads a single peer (Voter).
    multiset: bool,
    /// Whether the rule is an own-insensitive multiset rule, whose
    /// pull rounds may take the pooled block.
    pooled: bool,
    h: usize,
    k_slots: usize,
    /// The shard's node count: the seed body's mass.
    local_n: usize,
    /// The decided counts as sorted `(slot, count)` pairs — ascending
    /// slots, positive counts, `O(#occupied)` memory. Consumes install
    /// into it; serving, push broadcasts and reports read it directly.
    hist_pairs: Vec<(u32, u64)>,
    /// Undecided node count.
    hist_undecided: u64,
    /// The previous report's pairs, kept only under delta tracking.
    prev_pairs: Option<Vec<(u32, u64)>>,
    /// Flat per-draw tally for paths that decide one node at a time
    /// (single-peer pulls, interleaved dealing): raw slot indices with
    /// `u32::MAX` standing for UNDECIDED, sorted and run-length-encoded
    /// into `hist_pairs` at install. One sequential sort beats
    /// `local_n` random scatters into a `k_slots`-wide scratch plus the
    /// gather pass needed to undo them.
    consumed_flat: Vec<u32>,
    /// Scratch for [`radix_sort_u32`] over `consumed_flat`.
    radix_tmp: Vec<u32>,
    radix_counts: Vec<u32>,
    /// Per-round flat opinion mirror for raw pull serving — the
    /// histogram expanded to one entry per node (undecided tail
    /// included), built lazily on the first raw batch of a round and
    /// shared by the rest. A uniform index read is a draw from the
    /// round-start distribution at exactly the agent serve cost (one
    /// `gen_range` and one array read per draw); the `O(local_n)`
    /// sequential run-fill amortizes against the ~`local_n·h` draws
    /// the raw regime serves per round.
    serve_flat: Vec<Opinion>,
    serve_flat_fresh: bool,
    /// The histogram's slots and weights as the walk samplers take
    /// them, rebuilt per walk.
    walk_slots: Vec<u32>,
    walk_theta: Vec<f64>,
    /// Own-opinion groups `(opinion, count)`, ascending with undecided
    /// last — the `condensed_push_step` contract order.
    groups: Vec<(Opinion, u64)>,
    /// Step output `(opinion, count)` (entries may repeat or be zero),
    /// installed by [`Condensed::install`].
    step_out: Vec<(Opinion, u64)>,
    /// Dense `k_slots`-wide scratch, zero between uses: the walk draws
    /// while serving, the pooled palette tally while consuming.
    serve_counts: Vec<u64>,
    /// Pooled received-sample histogram, parallel to `pool_ops` in
    /// ascending opinion order — the condensed-step `values` contract.
    /// The single-peer push reuses it for its draw counts, aligned with
    /// the union.
    pool_counts: Vec<u64>,
    pool_ops: Vec<Opinion>,
    /// Slots touched while tallying the pool into `serve_counts`.
    pool_touched: Vec<u32>,
}

impl Condensed {
    /// The shard seeded from `body`, with its consume fixed by `rule`:
    /// its sample access (which must not be an ordered window) and
    /// whether its pull rounds may take the pooled block.
    pub(super) fn new<R: UpdateRule>(
        body: Vec<(u32, u64)>,
        rule: &R,
        k_slots: usize,
        tracking: bool,
    ) -> Self {
        let access = rule.sample_access();
        assert!(access != SampleAccess::OrderedWindow, "ordered windows are never condensed");
        assert!(body.iter().all(|&(s, _)| (s as usize) < k_slots), "seed body: slot out of range");
        let local_n = body.iter().map(|&(_, c)| c).sum::<u64>() as usize;
        let mut condensed = Self {
            multiset: access == SampleAccess::Multiset,
            pooled: rule.as_multiset().is_some_and(|m| m.own_insensitive()),
            h: rule.sample_count(),
            k_slots,
            local_n,
            hist_pairs: Vec::new(),
            hist_undecided: 0,
            prev_pairs: None,
            consumed_flat: Vec::new(),
            radix_tmp: Vec::new(),
            radix_counts: Vec::new(),
            serve_flat: Vec::new(),
            serve_flat_fresh: false,
            walk_slots: Vec::new(),
            walk_theta: Vec::new(),
            groups: Vec::new(),
            // A seed body is installed like a step's output (repeated
            // slots accumulate, zero counts drop).
            step_out: body.into_iter().map(|(s, c)| (Opinion::new(s), c)).collect(),
            serve_counts: vec![0; k_slots],
            pool_counts: Vec::new(),
            pool_ops: Vec::new(),
            pool_touched: Vec::new(),
        };
        condensed.install();
        // The round-0 baseline the first delta is relative to.
        if tracking {
            condensed.prev_pairs = Some(condensed.hist_pairs.clone());
        }
        condensed
    }

    /// Appends to `out` the [`walk_palette`] of `m > 0` draws over the
    /// pairs.
    fn walk(&mut self, m: u64, rng: &mut Pcg64, out: &mut PaletteBuffers) {
        self.walk_slots.clear();
        self.walk_theta.clear();
        for &(i, c) in &self.hist_pairs {
            self.walk_slots.push(i);
            self.walk_theta.push(c as f64);
        }
        let (slots, theta, counts) = (&self.walk_slots, &self.walk_theta, &mut self.serve_counts);
        walk_palette(m, self.hist_undecided, self.local_n, slots, theta, rng, counts, out);
    }

    /// Rebuilds the own-opinion groups from the histogram: `(opinion,
    /// count)` ascending, with the undecided group last
    /// ([`Opinion::UNDECIDED`] orders above every color) — the order
    /// `condensed_push_step` requires.
    fn fill_groups(&mut self) {
        self.groups.clear();
        self.groups.extend(self.hist_pairs.iter().map(|&(i, c)| (Opinion::new(i), c)));
        if self.hist_undecided > 0 {
            self.groups.push((Opinion::UNDECIDED, self.hist_undecided));
        }
    }

    /// Installs `step_out` as the new histogram: one sort plus one
    /// coalescing pass straight into the sorted `hist_pairs`, with the
    /// undecided mass (which orders last) split off and zero counts
    /// dropped. `O(#entries · log #entries)`.
    fn install(&mut self) {
        self.step_out.sort_unstable_by_key(|&(o, _)| o);
        self.hist_pairs.clear();
        let (mut mass, mut undecided) = (0u64, 0u64);
        for &(o, c) in &self.step_out {
            if o.is_undecided() {
                undecided += c;
            } else if c > 0 {
                mass += c;
                let i = o.index() as u32;
                match self.hist_pairs.last_mut() {
                    Some(last) if last.0 == i => last.1 += c,
                    _ => self.hist_pairs.push((i, c)),
                }
            }
        }
        self.finish_install(mass, undecided);
    }

    /// Installs the histogram from the flat per-draw tally
    /// (`consumed_flat`): sort the raw slot indices, then run-length
    /// encode the runs straight into the sorted `hist_pairs`. The
    /// sentinel `u32::MAX` entries (UNDECIDED) sort to the tail and
    /// become the undecided mass.
    fn install_flat(&mut self) {
        radix_sort_u32(&mut self.consumed_flat, &mut self.radix_tmp, &mut self.radix_counts);
        let dec_end = self.consumed_flat.partition_point(|&s| s != u32::MAX);
        let undecided = (self.consumed_flat.len() - dec_end) as u64;
        self.hist_pairs.clear();
        let runs = self.consumed_flat[..dec_end].chunk_by(|a, b| a == b);
        self.hist_pairs.extend(runs.map(|run| (run[0], run.len() as u64)));
        self.consumed_flat.clear();
        self.finish_install(dec_end as u64, undecided);
    }

    fn finish_install(&mut self, mass: u64, undecided: u64) {
        debug_assert_eq!(
            mass + undecided,
            self.local_n as u64,
            "condensed step must conserve the shard's mass"
        );
        self.hist_undecided = undecided;
    }

    /// Single-peer pull: the pooled palette multiset **is** the next
    /// histogram — flatten it into the per-draw tally and
    /// sort/RLE-install. No RNG at all.
    fn consume_pull_single_peer(&mut self, palettes: &mut Palettes) {
        debug_assert_eq!(self.h, 1, "single-peer rules pull one sample");
        for origin in 0..palettes.recv.len() {
            let (palette, runs) = palettes.take(origin);
            let flat = &mut self.consumed_flat;
            if runs.is_empty() {
                flat.extend(palette.iter().map(|&o| flat_key(o)));
            } else {
                for &(pi, c) in &runs {
                    flat.resize(flat.len() + c as usize, flat_key(palette[pi as usize]));
                }
            }
            palettes.pool.push((palette, runs));
        }
        debug_assert_eq!(self.consumed_flat.len(), self.local_n, "palette mass must be the nodes");
        self.install_flat();
    }

    /// Per-ball dealing straight off the received palettes, without
    /// materializing the pool: each ball is a uniform draw from the
    /// remaining pool. One bounded draw picks the origin with
    /// probability proportional to its remaining mass, and its residual
    /// is a uniform rank among that origin's remaining balls. A raw
    /// palette lists iid draws in draw order, so its entries are
    /// exchangeable and it is read in order. A run-encoded (walked)
    /// palette lists its runs by slot, which is not exchangeable, so its
    /// ball is the one at the residual's rank, taken from a
    /// [`FenwickPool`] over its run counts. Each ball costs one bounded
    /// draw over `shards` counters plus a sequential read or an
    /// `O(log #runs)` descent.
    fn consume_pull_interleaved<R: UpdateRule>(
        &mut self,
        rule: &R,
        rng: &mut Pcg64,
        palettes: &mut Palettes,
    ) {
        let shards = palettes.recv.len();
        let h = self.h;
        self.fill_groups();
        // Per-origin remaining mass, the read cursor of a raw palette
        // and the remaining run counts of a run-encoded one.
        let taken: Vec<PaletteBuffers> = (0..shards).map(|o| palettes.take(o)).collect();
        let mut left: Vec<Option<FenwickPool>> = taken
            .iter()
            .map(|(_, runs)| {
                let counts: Vec<u64> = runs.iter().map(|&(_, c)| c).collect();
                (!runs.is_empty()).then(|| FenwickPool::new(&counts))
            })
            .collect();
        let mut rem: Vec<u64> = taken
            .iter()
            .zip(&left)
            .map(|((palette, _), runs)| {
                runs.as_ref().map_or(palette.len() as u64, |p| p.remaining())
            })
            .collect();
        let mut cursor = vec![0usize; shards];
        let mut total: u64 = rem.iter().sum();
        debug_assert_eq!(total, (self.local_n * h) as u64, "palette mass must cover the windows");
        // Each ball is drawn uniformly among the remaining pool, so the
        // windows come out uniformly *ordered* — apply the rule's
        // ordered update directly.
        let mut wbuf: Vec<Opinion> = Vec::with_capacity(h);
        for &(own, count) in &self.groups {
            for _ in 0..count {
                wbuf.clear();
                for _ in 0..h {
                    // u32 draws when the pool allows it: the uniform
                    // rejection step is a 64-bit widening multiply
                    // instead of a 128-bit one, and this loop runs once
                    // per ball.
                    let mut r = if total <= u32::MAX as u64 {
                        rng.gen_range(0..total as u32) as u64
                    } else {
                        rng.gen_range(0..total)
                    };
                    let mut o = 0;
                    while r >= rem[o] {
                        r -= rem[o];
                        o += 1;
                    }
                    rem[o] -= 1;
                    total -= 1;
                    let (palette, runs) = &taken[o];
                    wbuf.push(match &mut left[o] {
                        None => {
                            cursor[o] += 1;
                            palette[cursor[o] - 1]
                        }
                        Some(pool) => palette[runs[pool.take_at(r)].0 as usize],
                    });
                }
                self.consumed_flat.push(flat_key(rule.update(own, &wbuf, rng)));
            }
        }
        debug_assert_eq!(total, 0, "the pooled palettes must be dealt exactly");
        palettes.pool.extend(taken);
        self.install_flat();
    }

    /// Multiset pull, in one of two arms: an own-insensitive rule
    /// whose pool passes the envelope bound ([`Condensed::pool_fits`])
    /// consumes it as one pooled block
    /// ([`Condensed::consume_pull_pooled`]); every other round deals per
    /// ball off the received palettes
    /// ([`Condensed::consume_pull_interleaved`]). Both are the same
    /// without-replacement law. In the diverse regime (singleton
    /// starts, `d ≈ local_n · h`) the block would be an order of
    /// magnitude slower than touching every ball once.
    fn consume_pull_multiset<R: UpdateRule>(
        &mut self,
        rule: &R,
        rng: &mut Pcg64,
        palettes: &mut Palettes,
    ) {
        if self.pooled && self.pool_fits(palettes) {
            self.consume_pull_pooled(rule, rng, palettes);
        } else {
            self.consume_pull_interleaved(rule, rng, palettes);
        }
    }

    /// Whether the pooled block may take this round: the palette
    /// envelopes bound the pool's distinct-category count `d` from
    /// above at `O(shards)` cost (a raw palette by its entry count, a
    /// run-encoded one by its run count), and the block's `O(d)`
    /// per-category draws must stay within the per-ball budget
    /// ([`POOL_DISPATCH_FACTOR`]). Checked before the pool is tallied,
    /// since the tally is itself an `O(local_n · h)` random-scatter
    /// pass.
    fn pool_fits(&self, palettes: &Palettes) -> bool {
        let upper_d: u64 = palettes
            .recv
            .iter()
            .map(|slot| {
                let (palette, runs) = slot.as_ref().expect("one palette per peer");
                (if runs.is_empty() { palette.len() } else { runs.len() }) as u64
            })
            .sum();
        upper_d * POOL_DISPATCH_FACTOR <= (self.local_n * self.h) as u64
    }

    /// Pooled pull for an own-insensitive rule
    /// ([`MultisetRule::own_insensitive`](symbreak_core::MultisetRule::own_insensitive) —
    /// 3-Majority, h-Majority): every node sees the same window law,
    /// so the received palettes (raw ones tallied too) pool into one
    /// block and one `condensed_window_step` call applies the rule's
    /// aggregate law to all `local_n` nodes at once: `O(d log d)` per
    /// round, independent of `local_n`. The same without-replacement
    /// law as [`Condensed::consume_pull_interleaved`].
    fn consume_pull_pooled<R: UpdateRule>(
        &mut self,
        rule: &R,
        rng: &mut Pcg64,
        palettes: &mut Palettes,
    ) {
        let msr = rule.as_multiset().expect("Multiset access requires a MultisetRule impl");
        // Tally the pooled histogram into `serve_counts` (zero outside
        // serves).
        self.pool_touched.clear();
        let pool_undecided =
            tally_palettes(&palettes.recv, &mut self.serve_counts, &mut self.pool_touched);
        palettes.recycle();

        // Gather the pool ascending by opinion, undecided last — the
        // condensed-step `values` contract — zeroing the scratch.
        self.pool_touched.sort_unstable();
        self.pool_counts.clear();
        self.pool_ops.clear();
        for &i in &self.pool_touched {
            self.pool_counts.push(std::mem::take(&mut self.serve_counts[i as usize]));
            self.pool_ops.push(Opinion::new(i));
        }
        if pool_undecided > 0 {
            self.pool_counts.push(pool_undecided);
            self.pool_ops.push(Opinion::UNDECIDED);
        }
        debug_assert_eq!(
            self.pool_counts.iter().sum::<u64>(),
            (self.local_n * self.h) as u64,
            "palette mass must equal the requested pulls"
        );

        // One aggregate call covers every group (the `own` argument is
        // ignored by the rule's law).
        self.step_out.clear();
        msr.condensed_window_step(
            Opinion::UNDECIDED,
            self.local_n as u64,
            &self.pool_ops,
            &mut self.pool_counts,
            rng,
            &mut self.step_out,
        );
        self.install();
    }
}

impl ShardState for Condensed {
    fn local_n(&self) -> usize {
        self.local_n
    }

    fn distinct(&self) -> usize {
        self.hist_pairs.len()
    }

    /// A walk draws over `hist_pairs`; a raw batch reads the flat
    /// mirror (the draws still come from the per-origin serving
    /// streams, so pipelined serving stays arrival-order independent).
    fn serve(&mut self, m: u64, walk: bool, rng: &mut Pcg64, out: &mut PaletteBuffers) {
        let local_n = self.local_n;
        if walk {
            self.walk(m, rng, out);
        } else if m > 0 {
            if !self.serve_flat_fresh {
                self.serve_flat.clear();
                self.serve_flat.reserve(local_n);
                for &(i, c) in &self.hist_pairs {
                    self.serve_flat.resize(self.serve_flat.len() + c as usize, Opinion::new(i));
                }
                // The remainder up to local_n is the undecided tail.
                self.serve_flat.resize(local_n, Opinion::UNDECIDED);
                self.serve_flat_fresh = true;
            }
            out.0.reserve(m as usize);
            for _ in 0..m {
                out.0.push(self.serve_flat[rng.gen_range(0..local_n)]);
            }
        }
    }

    /// The walk law on the round stream, emitted runs-encoded.
    fn compensate(&mut self, m: u64, rng: &mut Pcg64, out: &mut PaletteBuffers) {
        if m > 0 {
            self.walk(m, rng, out);
        }
    }

    fn serving_done(&mut self) {
        self.serve_flat_fresh = false;
    }

    /// The pairs as they stand, with no snapshot scratch.
    fn push_histogram(&mut self, (body, bruns): &mut PaletteBuffers) -> u64 {
        for &(i, c) in &self.hist_pairs {
            bruns.push((body.len() as u32, c));
            body.push(Opinion::new(i));
        }
        self.hist_undecided
    }

    fn consume_pull<R: UpdateRule>(&mut self, rule: &R, rng: &mut Pcg64, palettes: &mut Palettes) {
        if self.multiset {
            self.consume_pull_multiset(rule, rng, palettes);
        } else {
            self.consume_pull_single_peer(palettes);
        }
    }

    /// A multiset rule steps the whole shard through one
    /// [`MultisetRule::condensed_push_step`](symbreak_core::MultisetRule::condensed_push_step) call — the rule's
    /// closed-form aggregate over iid `Mult(h, union)` windows — so the
    /// per-round compute is `O(#occupied · h)`, independent of
    /// `local_n`: the path the Theorem-5 `n ≥ 10⁸` sweeps run on. A
    /// single-peer rule's next opinion is one iid union draw per node,
    /// so its next histogram is one `Mult(local_n, union)`.
    fn consume_push<R: UpdateRule>(
        &mut self,
        rule: &R,
        rng: &mut Pcg64,
        values: &[Opinion],
        weights: &[f64],
    ) {
        self.step_out.clear();
        if self.multiset {
            self.fill_groups();
            let msr = rule.as_multiset().expect("Multiset access requires a MultisetRule impl");
            msr.condensed_push_step(&self.groups, values, weights, rng, &mut self.step_out);
        } else {
            debug_assert_eq!(self.h, 1, "single-peer rules pull one sample");
            self.pool_counts.clear();
            self.pool_counts.resize(weights.len(), 0);
            sample_multinomial_into(self.local_n as u64, weights, rng, &mut self.pool_counts);
            self.step_out.extend(values.iter().copied().zip(self.pool_counts.iter().copied()));
        }
        self.install();
    }

    /// A sparse body is `hist_pairs` verbatim. Under delta tracking the
    /// changes against the previous report's pairs come from one sorted
    /// merge ([`pair_deltas`]), and the pairs roll forward.
    fn report(
        &mut self,
        format: ReportFormat,
        pool: &mut Vec<Vec<(u32, u64)>>,
    ) -> (ReportBody, u64, Option<u64>) {
        let cur = &self.hist_pairs;
        let (body, changed_slots) = match format {
            ReportFormat::Sparse => {
                let changed = self.prev_pairs.as_ref().map(|prev| {
                    let mut changed = 0u64;
                    pair_deltas(prev, cur, |_, _| changed += 1);
                    changed
                });
                let mut pairs = pool.pop().unwrap_or_default();
                pairs.clear();
                pairs.extend_from_slice(cur);
                (ReportBody::Sparse(pairs), changed)
            }
            ReportFormat::Delta => {
                let prev = self
                    .prev_pairs
                    .as_ref()
                    .expect("delta reports need ReportMode::Delta tracking");
                let mut pairs = Vec::new();
                pair_deltas(prev, cur, |i, delta| pairs.push((i, delta)));
                let changed = pairs.len() as u64;
                (ReportBody::Delta(pairs), Some(changed))
            }
        };
        if let Some(prev) = &mut self.prev_pairs {
            prev.clone_from(&self.hist_pairs);
        }
        (body, self.hist_undecided, changed_slots)
    }

    /// Copies the counts and verifies them in `O(#occupied)` — slot
    /// range, positive counts, mass identity, and duplicate detection
    /// on the sorted pairs — without materializing an opinion.
    fn rejoin(&mut self, body: &[(u32, u64)], undecided: u64) {
        self.consumed_flat.clear();
        let mut mass = u128::from(undecided);
        for &(slot, count) in body {
            assert!((slot as usize) < self.k_slots, "rejoin snapshot: slot out of range");
            assert!(count > 0, "rejoin snapshot: zero-count slot");
            mass += u128::from(count);
        }
        assert_eq!(mass, self.local_n as u128, "snapshot mass must match the shard size");
        self.hist_pairs.clear();
        self.hist_pairs.extend_from_slice(body);
        self.hist_pairs.sort_unstable();
        assert!(
            self.hist_pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "rejoin snapshot: duplicate slots"
        );
        self.hist_undecided = undecided;
        // Re-baseline the delta tracking against the rejoined histogram.
        if let Some(prev) = &mut self.prev_pairs {
            prev.clone_from(&self.hist_pairs);
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::{Rng, SeedableRng};

    use super::*;

    /// Random sorted pairs over 24 slots: each slot occupied with
    /// probability `p`, counts in 1..=4 so unchanged slots are common.
    fn random_pairs(p: f64, rng: &mut Pcg64) -> Vec<(u32, u64)> {
        let mut pairs = Vec::new();
        for slot in 0..24 {
            if rng.gen_bool(p) {
                pairs.push((slot, rng.gen_range(1..=4)));
            }
        }
        pairs
    }

    /// The dense computation the sorted merge replaces: both histograms
    /// mirrored into `k`-wide scratch, changed or new slots in current
    /// order, then vanished slots in previous order.
    fn dense_deltas(prev: &[(u32, u64)], cur: &[(u32, u64)]) -> Vec<(u32, i64)> {
        let (mut p, mut c) = (vec![0u64; 24], vec![0u64; 24]);
        prev.iter().for_each(|&(i, n)| p[i as usize] = n);
        cur.iter().for_each(|&(i, n)| c[i as usize] = n);
        let changed = cur.iter().filter(|&&(i, n)| n != p[i as usize]);
        let vanished = prev.iter().filter(|&&(i, _)| c[i as usize] == 0);
        changed
            .map(|&(i, n)| (i, n as i64 - p[i as usize] as i64))
            .chain(vanished.map(|&(i, n)| (i, -(n as i64))))
            .collect()
    }

    #[test]
    fn pair_deltas_match_the_dense_diff() {
        let mut rng = Pcg64::seed_from_u64(11);
        for trial in 0..400 {
            // Densities from empty to full, so empty, new, vanished and
            // unchanged slots all occur.
            let density = [0.0, 0.2, 0.5, 0.9, 1.0];
            let prev = random_pairs(density[trial % 5], &mut rng);
            let cur = random_pairs(density[(trial / 5) % 5], &mut rng);
            let dense = dense_deltas(&prev, &cur);
            let mut merged = Vec::new();
            pair_deltas(&prev, &cur, |i, d| merged.push((i, d)));
            assert_eq!(merged, dense, "prev {prev:?}, cur {cur:?}");

            // Through a tracked report, in both formats: the delta body
            // and `changed_slots` are the dense ones, and the pairs roll
            // forward.
            for format in [ReportFormat::Delta, ReportFormat::Sparse] {
                let mut shard =
                    Condensed::new(prev.clone(), &symbreak_core::rules::ThreeMajority, 24, true);
                shard.hist_pairs.clone_from(&cur);
                let (body, _, changed) = shard.report(format, &mut Vec::new());
                assert_eq!(changed, Some(dense.len() as u64));
                match body {
                    ReportBody::Delta(pairs) => assert_eq!(pairs, dense),
                    ReportBody::Sparse(pairs) => assert_eq!(pairs, cur),
                }
                assert_eq!(shard.prev_pairs.as_deref(), Some(&cur[..]));
            }
        }
        // Identical histograms report nothing; a shard emptied of every
        // decided color reports each slot vanished.
        let pairs = [(2, 3), (7, 1)];
        let mut none = 0;
        pair_deltas(&pairs, &pairs, |_, _| none += 1);
        assert_eq!(none, 0);
        let mut gone = Vec::new();
        pair_deltas(&pairs, &[], |i, d| gone.push((i, d)));
        assert_eq!(gone, [(2, -3), (7, -1)]);
    }
}
