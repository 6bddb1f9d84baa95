//! Shard workers: each thread owns a contiguous range of nodes and speaks
//! the wire protocol of [`crate::message`].
//!
//! Traffic is aggregated, in two coordinator-arbitrated gears. In the
//! *pull* gear each peer gets one [`PullBatch`] (a single
//! [`TargetRun`] covering the peer's whole range), answered by one
//! [`OpinionPalette`] sampled shard-side from the server's round-start
//! opinions. Pull batches are served the moment they arrive
//! (pipelined, no intra-round barrier); each (server, origin) pair
//! draws from its own dedicated RNG stream, so the realized trajectory
//! is deterministic per seed even though channel arrival order is not.
//! In the *push* gear (concentrated regime) there are no pulls: every
//! shard broadcasts its opinion histogram and the union of the
//! received histograms is the global round-start distribution — see
//! [`DataFormat::Push`]. Under an inert fault plan the coordinator's
//! report barrier keeps the fleet in round lockstep, so every message a
//! shard receives belongs to its current round (see below for the
//! relaxed barrier of an active plan).
//!
//! An agent-backed shard turns the received aggregates into node
//! updates the literal Uniform Pull way, for every rule, on one path
//! per gear: pull palettes are dealt into the sample buffer in origin
//! order through an inside-out Fisher–Yates (an iid sequence
//! conditioned on its multiset is a uniform arrangement, so per-node
//! samples are exactly Uniform Pull); push rounds draw every sample iid
//! from the union alias table; then one `update` call per node. Only
//! condensed shards (below) dispatch on the rule's [`SampleAccess`].
//!
//! A sparse report recounts the shard's opinions through a reusable
//! touched-slot scratch in `O(local_n)`, instead of a fresh dense
//! `vec![0; k]`. Under [`ReportMode::Delta`] an agent-backed shard
//! never recounts to find what changed: every opinion write goes
//! through one logging helper (`OpinionLog`), and the report nets the
//! round's `(old, new)` moves into signed `(slot, Δcount)` entries,
//! rolling the previous-round counts, the local distinct count and the
//! undecided count forward in place. A [`ReportFormat::Delta`] round
//! therefore costs `O(#moves)` to report; a sparse round still
//! recounts for its body. Condensed shards clone or mirror their
//! histogram instead (below), and compare it against the previous
//! counts when tracking.
//!
//! The round-start snapshot the pull palettes are served from is built
//! lazily, on the first batch that needs it: a histogram-walk batch, or
//! any batch on a condensed shard. A raw batch off an agent vector
//! reads the opinions directly, so in the diverse regime an
//! agent-backed shard never tallies a snapshot in the pull gear. The
//! walk-or-raw choice reads the distinct count the last report left
//! behind.
//!
//! Under [`crate::cluster::ShardRepr::Histogram`] (multiset or
//! single-peer rule, see `cluster::shard_is_condensed`) the worker is
//! **condensed**: it never materializes a per-agent opinion vector at
//! all. Its only state is the local histogram as sorted `(slot, count)`
//! pairs plus the undecided count. A pull round's snapshot mirrors the
//! pairs and pull palettes are sampled from it; a push round broadcasts
//! the pairs as they stand and merges the peers' sorted palettes into
//! the union. Received palettes and push unions are consumed as mass
//! moved between histograms — grouped hypergeometric blocks in the pull
//! gear (one [`symbreak_core::MultisetRule`] `condensed_window_step`
//! call per occupied opinion group, or a single mega-block call for
//! own-insensitive rules, with flat dealing in the diverse regime), and
//! one `condensed_push_step` call per round in the push gear — so in
//! both gears the per-round compute drops from `O(local_n · h)` to
//! `O(#occupied · h)`. Every consume installs its output straight into
//! the sorted pairs (one sort-and-coalesce pass), and a sparse report
//! clones them: a condensed push round never touches a `k_slots`-wide
//! scratch. Rejoin copies the snapshot counts and verifies them in
//! `O(#occupied)` with no dense recount. The agent-backed paths are
//! untouched (byte-identical per seed).
//!
//! There is one exchange per gear, and it is **fault-aware**: fault
//! decisions are stateless hashes of a [`FaultPlan`] shared with every
//! peer and the coordinator (see [`crate::fault`]), so senders
//! intercept their own transmissions (drop / duplicate /
//! delay-by-one-round), receivers compute exactly which messages will
//! arrive — round tags park messages from peers that ran ahead of the
//! relaxed barrier until their round starts — and lost or late pull
//! palettes are compensated by re-sampling the requested draws from the
//! shard's own round-start snapshot (counted as `recovered`).
//! Crash-stopped shards simply receive no round commands; on
//! [`Control::Rejoin`] the worker rebuilds its opinions from the
//! coordinator snapshot and verifies the reconstruction with a dense
//! recount. Byzantine shards corrupt their report bodies through the
//! adversary crate's strategies on a dedicated RNG stream. The inert
//! plan ([`FaultPlan::none`]) is the `F = 0` case of the same loops:
//! every peer is live, every message arrives exactly once, nothing is
//! compensated or corrupted, and the fleet runs in strict lockstep.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::{Rng, SeedableRng};

use symbreak_core::{Opinion, SampleAccess, UpdateRule};
use symbreak_sim::dist::{
    sample_multinomial_into, sample_multinomial_sparse_into, Binomial, Categorical, GroupSplitter,
};
use symbreak_sim::rng::{trial_seed, Pcg64};

use symbreak_adversary::{Adversary, RandomFlipper};
use symbreak_core::Configuration;

use crate::cluster::{shard_is_condensed, ReportMode, ShardRepr};
use crate::fault::{CorruptionKind, FaultKind, FaultPlan, BYZANTINE_SALT};
use crate::message::{
    Control, DataFormat, OpinionPalette, PullBatch, ReportBody, ReportFormat, ShardMessage,
    ShardReport, TargetRun,
};
use crate::transport::{Transport, TransportLost};

/// Node-ownership partition: shard `i` owns global ids
/// `[i·chunk, min((i+1)·chunk, n))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Partition {
    pub n: u32,
    pub chunk: u32,
    pub shards: usize,
}

impl Partition {
    pub fn new(n: u32, shards: usize) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(n as usize >= shards, "need at least one node per shard");
        let chunk = n.div_ceil(shards as u32);
        Self { n, chunk, shards }
    }

    pub fn owner(&self, gid: u32) -> usize {
        debug_assert!(gid < self.n);
        ((gid / self.chunk) as usize).min(self.shards - 1)
    }

    pub fn range(&self, shard: usize) -> std::ops::Range<u32> {
        // Both ends clamp to n: with chunk = ceil(n/shards), trailing
        // shards can be empty (e.g. n = 10, shards = 8). The products
        // run in u64 — `(shard + 1) · chunk` can exceed u32::MAX for a
        // trailing shard even though the clamped result fits.
        let n = u64::from(self.n);
        let chunk = u64::from(self.chunk);
        let lo = (shard as u64 * chunk).min(n);
        let hi = ((shard as u64 + 1) * chunk).min(n);
        lo as u32..hi as u32
    }
}

/// Static per-run parameters shared by every shard.
///
/// `k_slots` is the number of color slots reported back to the
/// coordinator (opinion indices must stay below it).
#[derive(Debug, Clone)]
pub(crate) struct ShardSpec {
    pub partition: Partition,
    pub k_slots: usize,
    pub report_mode: ReportMode,
    pub repr: ShardRepr,
    pub master_seed: u64,
    pub plan: FaultPlan,
}

/// A shard's seed state, matching its representation: the coordinator
/// sends a sparse histogram body to condensed shards and a materialized
/// opinion vector otherwise (the worker asserts the variant against the
/// spec's representation and the rule's sample access).
pub(crate) enum ShardInit {
    Agents(Vec<Opinion>),
    Histogram(Vec<(u32, u64)>),
}

/// Runs one shard to completion over any [`Transport`]. A lost
/// endpoint — a dead peer process, a vanished coordinator — aborts the
/// current round and exits the worker cleanly (the loss cascades to
/// the rest of the fleet through their own transports; see
/// [`crate::transport`]). A panic inside a round or a rejoin exits the
/// worker the same way: the panic is caught here, and dropping the
/// transport tells the peers and the coordinator that this shard is
/// gone.
pub(crate) fn run_shard<R: UpdateRule, T: Transport>(
    shard_id: usize,
    spec: ShardSpec,
    rule: R,
    init: ShardInit,
    transport: T,
) {
    let mut worker = Worker::new(shard_id, spec, rule, init, transport);
    loop {
        let alive = match worker.transport.recv_control() {
            Ok(Control::Round { round, report, data }) => {
                catch_unwind(AssertUnwindSafe(|| worker.round(round, report, data).is_ok()))
                    .unwrap_or(false)
            }
            Ok(Control::Rejoin { round, body, undecided }) => {
                catch_unwind(AssertUnwindSafe(|| worker.rejoin(round, &body, undecided))).is_ok()
            }
            Ok(Control::Stop) | Err(_) => false,
        };
        if !alive {
            break;
        }
    }
}

/// A pooled palette allocation: the distinct-opinion list plus its
/// `(palette_idx, count)` runs.
type PaletteBuffers = (Vec<Opinion>, Vec<(u32, u64)>);

/// One merged half of a push union: parallel opinions and weights.
type AliasBuffers = (Vec<Opinion>, Vec<f64>);

/// Unions condensed push histograms into `values` / `weights`, strictly
/// ascending by opinion with the undecided mass last. Every condensed
/// palette is `hist_pairs` plus an undecided tail, already ascending
/// ([`Opinion::UNDECIDED`] orders above every color), so the union is a
/// merge of sorted runs with no `k_slots`-wide scratch: two slots merge
/// straight from the wire buffers, more merge each half into `pool`
/// first (`⌈log₂ S⌉` merges per entry). Absent palettes (lost under an
/// active fault plan) are empty. Counts sum as integers, so the weights
/// equal the dense tally's exactly.
fn merge_palettes(
    palettes: &[Option<PaletteBuffers>],
    pool: &mut Vec<AliasBuffers>,
    values: &mut Vec<Opinion>,
    weights: &mut Vec<f64>,
) {
    values.clear();
    weights.clear();
    if palettes.len() <= 2 {
        let run = |slot| palette_run(palettes.get(slot).unwrap_or(&None));
        return merge_two(run(0), run(1), values, weights);
    }
    let (l, r) = palettes.split_at(palettes.len() / 2);
    let [mut lo, mut hi] = [(); 2].map(|_| pool.pop().unwrap_or_default());
    merge_palettes(l, pool, &mut lo.0, &mut lo.1);
    merge_palettes(r, pool, &mut hi.0, &mut hi.1);
    merge_two(alias_run(&lo), alias_run(&hi), values, weights);
    pool.extend([lo, hi]);
}

/// A palette slot as a sorted run for [`merge_two`]: its length and an
/// accessor; an absent palette is empty.
fn palette_run(slot: &Option<PaletteBuffers>) -> (usize, impl Fn(usize) -> (Opinion, u64) + '_) {
    let (palette, runs) = slot.as_ref().map_or((&[][..], &[][..]), |(p, r)| (&p[..], &r[..]));
    (runs.len(), move |i| (palette[runs[i].0 as usize], runs[i].1))
}

/// A merged half as a sorted run for [`merge_two`] (its weights are
/// integer counts).
fn alias_run((values, weights): &AliasBuffers) -> (usize, impl Fn(usize) -> (Opinion, u64) + '_) {
    (values.len(), move |i| (values[i], weights[i] as u64))
}

/// Appends the merge of two strictly ascending `(opinion, count)` runs
/// to `values` / `weights`, summing the counts of an opinion both
/// carry. Each step advances by comparison results instead of branching
/// on them (two shards' colors interleave unpredictably), and converts
/// a count to `f64` once, on output.
fn merge_two(
    (na, a): (usize, impl Fn(usize) -> (Opinion, u64)),
    (nb, b): (usize, impl Fn(usize) -> (Opinion, u64)),
    values: &mut Vec<Opinion>,
    weights: &mut Vec<f64>,
) {
    let (mut i, mut j) = (0, 0);
    while i < na && j < nb {
        let ((x, c), (y, d)) = (a(i), b(j));
        values.push(x.min(y));
        weights.push((if x <= y { c } else { 0 } + if y <= x { d } else { 0 }) as f64);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    for (o, c) in (i..na).map(a).chain((j..nb).map(b)) {
        values.push(o);
        weights.push(c as f64);
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

/// Unions push histograms in first-touch order (origin by origin, each
/// palette in its own order) with the undecided mass last, deduplicated
/// through the dense `counts` scratch (zero outside `touched`, and left
/// so). Agent shards broadcast in first-touch tally order, and the
/// condensed single-peer multinomial walks the union in this order, so
/// both keep it for their seed-exact trajectories.
fn dense_union(
    palettes: &[Option<PaletteBuffers>],
    counts: &mut [u64],
    touched: &mut Vec<u32>,
    values: &mut Vec<Opinion>,
    weights: &mut Vec<f64>,
) {
    let undecided = tally_palettes(palettes, counts, touched);
    values.clear();
    weights.clear();
    for &i in touched.iter() {
        weights.push(counts[i as usize] as f64);
        values.push(Opinion::new(i));
        counts[i as usize] = 0;
    }
    touched.clear();
    if undecided > 0 {
        weights.push(undecided as f64);
        values.push(Opinion::UNDECIDED);
    }
}

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

/// Crossover between the aggregate condensed-pull paths (mega-block /
/// grouped) and flat per-ball dealing: the aggregate paths pay one
/// hypergeometric draw plus `O(log d)` Fenwick traffic per pool
/// category, which costs roughly this many per-ball dealing steps.
/// Aggregates engage only while `d · FACTOR ≤ local_n · h`; in the
/// diverse regime (singleton starts, `d ≈ local_n · h`) they would be
/// an order of magnitude slower than touching every ball once.
const MEGA_DISPATCH_FACTOR: u64 = 16;

/// Tallies `opinions` into the dense `counts` scratch (assumed zero
/// outside `touched`), recording first-touched slots, and returns the
/// undecided count. The one histogram loop behind the delta baseline,
/// both data-plane gears, and the report builder.
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

/// The one write path for agent-shard opinions during a round. With
/// `on` (delta tracking on an agent-backed shard) every write that
/// changes an opinion is logged as `(old, new)`, so the report can net
/// the round's moves instead of recounting the shard.
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

/// Which dense scratch a condensed worker mirrors its histogram into.
enum Mirror {
    /// Round-start snapshot (`snap_counts` / `snap_touched`).
    Snapshot,
    /// Report tally (`count_scratch` / `touched`).
    Report,
    /// Delta baseline (`prev_counts` / `prev_touched`).
    Prev,
}

/// One shard's mutable round state: the owned opinions plus every
/// reusable buffer of both gears and the report formats.
struct Worker<R, T> {
    shard_id: usize,
    partition: Partition,
    k_slots: usize,
    report_mode: ReportMode,
    /// The rule's declared sample access, which the condensed consume
    /// paths dispatch on.
    access: SampleAccess,
    rule: R,
    /// The materialized agent vector — empty on a condensed shard,
    /// which holds its whole state in `hist` + `hist_undecided`.
    /// Rounds write it only through `log`.
    opinions: Vec<Opinion>,
    log: OpinionLog,
    /// Agent shards: the distinct decided opinions and the undecided
    /// nodes in `opinions` as of the last report (so at round start).
    distinct: usize,
    undecided: u64,
    transport: T,
    rng: Pcg64,
    h: usize,
    /// One sample slot per (local node, pull): `samples[local·h + s]`.
    samples: Vec<Opinion>,

    // Condensed (histogram) representation state.
    /// Whether this worker is condensed (see the module docs): decided
    /// once at construction from the spec's [`ShardRepr`] and the
    /// sample access, never per round.
    condensed: bool,
    /// The shard's node count — `opinions.len()` on agent-backed
    /// shards, the seed-body mass on condensed ones.
    local_n: usize,
    /// Condensed local state: the decided counts as sorted
    /// `(slot, count)` pairs — ascending slots, positive counts,
    /// `O(#occupied)` memory. Consumes install into it, push rounds
    /// broadcast it and sparse untracked reports copy it, with no
    /// `k_slots`-wide scatter (`O(local_n)`-class work when
    /// `#occupied ≈ local_n`).
    hist_pairs: Vec<(u32, u64)>,
    /// Decided mass of `hist_pairs` (`Σ count`).
    hist_n: u64,
    /// Condensed local state: undecided node count.
    hist_undecided: u64,
    /// Whether this round's consume installed `hist_pairs` (see
    /// [`Self::finish_install`]): a sparse untracked report then copies
    /// the pairs, and every other report shape mirrors them first.
    report_pairs_fresh: bool,
    /// Flat per-draw tally for condensed paths that decide one node at
    /// a time (single-peer pulls, flat dealing): raw slot indices with
    /// `u32::MAX` standing for UNDECIDED, sorted and run-length-encoded
    /// into `hist_pairs` at install. One sequential sort beats
    /// `local_n` random scatters into the `k_slots`-wide scratch plus
    /// the gather pass needed to undo them.
    consumed_flat: Vec<u32>,
    /// Scratch for [`radix_sort_u32`] over `consumed_flat`.
    radix_tmp: Vec<u32>,
    radix_counts: Vec<u32>,
    /// Per-round flat opinion mirror for condensed raw pull serving —
    /// the round-start histogram expanded to one entry per node
    /// (undecided tail included), built lazily on the first raw batch
    /// of a round and shared by the rest. A uniform index read is a
    /// draw from the round-start distribution at exactly the
    /// agent-backed serve cost (one `gen_range` and one array read per
    /// draw); the `O(local_n)` sequential run-fill amortizes against
    /// the ~`local_n·h` draws the raw regime serves per round.
    serve_flat: Vec<Opinion>,
    serve_flat_fresh: bool,
    /// Condensed own-opinion groups `(opinion, count)`, ascending with
    /// undecided last — the `condensed_push_step` contract order.
    groups: Vec<(Opinion, u64)>,
    /// Condensed step output `(opinion, count)` (entries may repeat or
    /// be zero), installed by [`Self::install_condensed`].
    step_out: Vec<(Opinion, u64)>,

    // Data-plane state.
    dest_theta: Vec<f64>,
    dest_counts: Vec<u64>,
    /// One serving RNG stream per requesting shard: palettes for origin
    /// `o` always draw from `serve_rngs[o]`, so batches can be served
    /// the moment they arrive (pipelined) while keeping the realized
    /// trajectory independent of channel arrival order.
    serve_rngs: Vec<Pcg64>,
    run_pool: Vec<Vec<TargetRun>>,
    palette_pool: Vec<PaletteBuffers>,
    /// Round-start local opinion histogram (dense, zero outside
    /// `snap_touched`) the palettes are sampled from. Pull rounds build
    /// it on first use ([`Worker::ensure_snapshot`]); `snap_ready` says
    /// whether this round's is built.
    snap_counts: Vec<u64>,
    snap_touched: Vec<u32>,
    snap_undecided: u64,
    snap_ready: bool,
    /// Per-origin draw aggregation buffer (zero between serves).
    serve_counts: Vec<u64>,
    theta_scratch: Vec<f64>,
    /// This round's received palettes, slotted by server shard so the
    /// sample expansion order is arrival-order independent.
    recv_palettes: Vec<Option<PaletteBuffers>>,
    /// Union-histogram scratch for push rounds: parallel alias-table
    /// weights and the opinions they stand for.
    alias_weights: Vec<f64>,
    alias_values: Vec<Opinion>,
    /// Merged halves of [`merge_palettes`] (more than two shards).
    union_halves: Vec<AliasBuffers>,

    /// Pooled sparse report bodies, recycled by the transport after
    /// framing — the last per-round allocation in the worker loop.
    report_pool: Vec<Vec<(u32, u64)>>,

    // Condensed consumption scratch.
    /// One node's window histogram (≤ h entries).
    window: Vec<(Opinion, u32)>,
    /// Pooled received-sample histogram, parallel to `pool_ops` in
    /// ascending opinion order — the condensed-step `values` contract.
    /// The condensed single-peer push reuses it for its draw counts,
    /// aligned with the union.
    pool_counts: Vec<u64>,
    pool_ops: Vec<Opinion>,
    /// Slots touched while tallying the pool into `serve_counts`
    /// (reused as the dense tally scratch — it is zero outside serves).
    pool_touched: Vec<u32>,
    /// One opinion-group's dealt share of the pooled histogram
    /// (condensed pull, grouped path; aligned with `pool_ops`).
    group_block: Vec<u64>,
    /// Flattened pool for the diverse-regime Fisher–Yates fallback of
    /// the condensed pull consume (`O(1)` per dealt ball).
    flat_pool: Vec<Opinion>,

    // Report state.
    count_scratch: Vec<u64>,
    touched: Vec<u32>,
    /// Previous round's counts, kept only under [`ReportMode::Delta`]:
    /// rolled forward in place by the netted moves on agent shards,
    /// swapped with the fresh mirror on condensed ones.
    prev_counts: Vec<u64>,
    /// The occupied slots of `prev_counts` (condensed shards only).
    prev_touched: Vec<u32>,

    // Fault-injection state (idle under an inert plan).
    plan: FaultPlan,
    /// The round currently being executed (from the last round command).
    round_no: u64,
    /// Future-tagged messages parked until their round starts: under a
    /// relaxed barrier a peer that made quorum may run one (or more)
    /// rounds ahead of a straggler.
    pending: Vec<ShardMessage>,
    /// A report held for one barrier (`FaultKind::Delay`).
    delayed_report: Option<ShardReport>,
    /// `messages_sent` of reports that were dropped in transit, carried
    /// forward into the next report so the cost model stays honest.
    carry_messages: u64,
    /// Samples regenerated locally this round for lost palettes.
    recovered: u64,
    /// Dedicated corruption stream of a Byzantine shard.
    byz_rng: Option<Pcg64>,
}

impl<R: UpdateRule, T: Transport> Worker<R, T> {
    fn new(shard_id: usize, spec: ShardSpec, rule: R, init: ShardInit, transport: T) -> Self {
        let ShardSpec { partition, k_slots, report_mode, repr, master_seed, plan } = spec;
        let rng = Pcg64::seed_from_u64(trial_seed(master_seed, shard_id as u64 + 1));
        let h = rule.sample_count();
        let shards = partition.shards;
        let tracking = report_mode == ReportMode::Delta;
        let access = rule.sample_access();
        assert!(
            access != SampleAccess::Multiset || rule.as_multiset().is_some(),
            "Multiset access requires a MultisetRule impl"
        );
        debug_assert!(access != SampleAccess::SinglePeer || h == 1);
        // The init variant must agree with the coordinator's predicate.
        let condensed = shard_is_condensed(repr, access);
        assert_eq!(
            condensed,
            matches!(init, ShardInit::Histogram(_)),
            "shard init variant must match the condensed predicate"
        );
        // A seed body is installed like a step's output below (repeated
        // slots accumulate, zero counts drop).
        let (opinions, seed, local_n) = match init {
            ShardInit::Agents(opinions) => {
                let local_n = opinions.len();
                (opinions, Vec::new(), local_n)
            }
            ShardInit::Histogram(body) => {
                assert!(
                    body.iter().all(|&(s, _)| (s as usize) < k_slots),
                    "seed body: slot out of range"
                );
                let local_n = body.iter().map(|&(_, c)| c).sum::<u64>() as usize;
                (Vec::new(), body.into_iter().map(|(s, c)| (Opinion::new(s), c)).collect(), local_n)
            }
        };

        let mut worker = Self {
            shard_id,
            partition,
            k_slots,
            report_mode,
            access,
            rule,
            rng,
            h,
            // Condensed workers never materialize anything per-agent.
            samples: if condensed { Vec::new() } else { vec![Opinion::new(0); local_n * h] },
            condensed,
            local_n,
            hist_n: local_n as u64,
            hist_undecided: 0,
            hist_pairs: Vec::new(),
            report_pairs_fresh: false,
            consumed_flat: Vec::new(),
            radix_tmp: Vec::new(),
            radix_counts: Vec::new(),
            serve_flat: Vec::new(),
            serve_flat_fresh: false,
            groups: Vec::new(),
            step_out: seed,
            dest_theta: vec![0.0; shards],
            dest_counts: vec![0; shards],
            // A distinct stream per (server, origin) pair, salted so it
            // never collides with the shard round streams.
            serve_rngs: (0..shards)
                .map(|origin| {
                    let pair = (shard_id * shards + origin) as u64;
                    Pcg64::seed_from_u64(trial_seed(master_seed ^ 0x9E37_79B9_7F4A_7C15, pair + 1))
                })
                .collect(),
            run_pool: Vec::new(),
            palette_pool: Vec::new(),
            snap_counts: vec![0; k_slots],
            snap_touched: Vec::new(),
            snap_undecided: 0,
            snap_ready: false,
            serve_counts: vec![0; k_slots],
            theta_scratch: Vec::new(),
            recv_palettes: (0..shards).map(|_| None).collect(),
            alias_weights: Vec::new(),
            alias_values: Vec::new(),
            union_halves: Vec::new(),
            report_pool: Vec::new(),
            window: Vec::new(),
            pool_counts: Vec::new(),
            pool_ops: Vec::new(),
            pool_touched: Vec::new(),
            group_block: Vec::new(),
            flat_pool: Vec::new(),
            count_scratch: vec![0; k_slots],
            touched: Vec::new(),
            prev_counts: if tracking { vec![0; k_slots] } else { Vec::new() },
            prev_touched: Vec::new(),
            round_no: 0,
            pending: Vec::new(),
            delayed_report: None,
            carry_messages: 0,
            recovered: 0,
            byz_rng: if plan.byzantine_spec(shard_id).is_some() {
                Some(Pcg64::seed_from_u64(trial_seed(
                    plan.seed ^ BYZANTINE_SALT,
                    shard_id as u64 + 1,
                )))
            } else {
                None
            },
            plan,
            opinions,
            log: OpinionLog { on: tracking && !condensed, moves: Vec::new() },
            distinct: 0,
            undecided: 0,
            transport,
        };
        // The round-0 baseline the first report (and, under delta
        // tracking, the first delta) is relative to.
        if worker.condensed {
            worker.install_condensed();
            worker.report_pairs_fresh = false;
            if tracking {
                worker.mirror_hist(Mirror::Prev);
            }
        } else {
            worker.baseline_agents();
        }
        worker
    }

    /// Tallies the agent opinions as the report baseline: `distinct`,
    /// `undecided` and, under delta tracking, `prev_counts` (which must
    /// be zero). `O(local_n)`; runs at construction and on rejoin.
    fn baseline_agents(&mut self) {
        debug_assert!(!self.condensed);
        self.touched.clear();
        self.undecided = count_opinions(&self.opinions, &mut self.count_scratch, &mut self.touched);
        self.distinct = self.touched.len();
        if self.log.on {
            std::mem::swap(&mut self.prev_counts, &mut self.count_scratch);
        } else {
            for &i in &self.touched {
                self.count_scratch[i as usize] = 0;
            }
        }
        self.touched.clear();
    }

    /// The distinct decided opinions the shard holds at round start.
    fn local_distinct(&self) -> usize {
        if self.condensed {
            self.hist_pairs.len()
        } else {
            self.distinct
        }
    }

    /// Copies the condensed histogram into one of the dense scratches
    /// (assumed zero with an empty touched list) in ascending slot
    /// order — the condensed stand-in for [`count_opinions`], `O(#occupied)`.
    fn mirror_hist(&mut self, target: Mirror) {
        debug_assert!(self.condensed);
        let (counts, touched) = match target {
            Mirror::Snapshot => (&mut self.snap_counts, &mut self.snap_touched),
            Mirror::Report => (&mut self.count_scratch, &mut self.touched),
            Mirror::Prev => (&mut self.prev_counts, &mut self.prev_touched),
        };
        debug_assert!(touched.is_empty());
        for &(i, c) in &self.hist_pairs {
            counts[i as usize] = c;
            touched.push(i);
        }
    }

    /// Freezes the round-start local histogram into the snapshot
    /// scratch. Agent-backed shards tally their opinions (first-touch
    /// order, byte-identical to the pre-condensed runtime); condensed
    /// shards (pull rounds only) mirror `hist_pairs` (ascending slot
    /// order — a lawful wire-order difference) and invalidate the
    /// per-round serving mirror.
    fn snapshot_round_start(&mut self) {
        self.snap_touched.clear();
        if self.condensed {
            self.mirror_hist(Mirror::Snapshot);
            self.snap_undecided = self.hist_undecided;
            self.serve_flat_fresh = false;
        } else {
            self.snap_undecided =
                count_opinions(&self.opinions, &mut self.snap_counts, &mut self.snap_touched);
        }
    }

    /// Builds this pull round's snapshot if nothing has yet. Opinions do
    /// not change during the exchange, and the snapshot draws no
    /// randomness, so building it late serves exactly what an eager
    /// snapshot would.
    fn ensure_snapshot(&mut self) {
        if !self.snap_ready {
            self.snapshot_round_start();
            self.snap_ready = true;
        }
    }

    /// Rebuilds the condensed own-opinion groups from the histogram:
    /// `(opinion, count)` ascending (occupied slots are sorted), with
    /// the undecided group last ([`Opinion::UNDECIDED`] orders above
    /// every color) — the order `condensed_push_step` requires.
    fn condensed_groups(&mut self) {
        debug_assert!(self.condensed);
        self.groups.clear();
        for &(i, c) in &self.hist_pairs {
            self.groups.push((Opinion::new(i), c));
        }
        if self.hist_undecided > 0 {
            self.groups.push((Opinion::UNDECIDED, self.hist_undecided));
        }
    }

    /// Installs a condensed round's `step_out` as the new histogram:
    /// one sort plus one coalescing pass straight into the sorted
    /// `hist_pairs`, with the undecided mass (which orders last) split
    /// off and zero counts dropped. `O(#entries · log #entries)`; the
    /// dense scratch is never written.
    fn install_condensed(&mut self) {
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

    /// Installs the post-step histogram from the flat per-draw tally
    /// (`consumed_flat`): sort the raw slot indices, then run-length
    /// encode the runs straight into the sorted `hist_pairs`. The
    /// sentinel `u32::MAX` entries (UNDECIDED) sort to the tail and
    /// become the undecided mass.
    fn install_condensed_from_flat(&mut self) {
        radix_sort_u32(&mut self.consumed_flat, &mut self.radix_tmp, &mut self.radix_counts);
        let dec_end = self.consumed_flat.partition_point(|&s| s != u32::MAX);
        let undecided = (self.consumed_flat.len() - dec_end) as u64;
        self.hist_pairs.clear();
        let runs = self.consumed_flat[..dec_end].chunk_by(|a, b| a == b);
        self.hist_pairs.extend(runs.map(|run| (run[0], run.len() as u64)));
        self.consumed_flat.clear();
        self.finish_install(dec_end as u64, undecided);
    }

    /// Records a condensed install's masses and flags the pairs fresh
    /// for the round's report.
    fn finish_install(&mut self, mass: u64, undecided: u64) {
        debug_assert!(self.condensed);
        debug_assert_eq!(
            mass + undecided,
            self.local_n as u64,
            "condensed step must conserve the shard's mass"
        );
        self.hist_n = mass;
        self.hist_undecided = undecided;
        self.report_pairs_fresh = true;
    }

    fn round(
        &mut self,
        round: u64,
        format: ReportFormat,
        data: DataFormat,
    ) -> Result<(), TransportLost> {
        self.round_no = round;
        let mut messages_sent = std::mem::take(&mut self.carry_messages);
        self.flush_delayed();
        match data {
            DataFormat::Pull => {
                self.pull_exchange(&mut messages_sent)?;
                match (self.condensed, self.access) {
                    (false, _) => {
                        self.deal_palettes_ordered();
                        self.apply_ordered_windows();
                    }
                    (true, SampleAccess::SinglePeer) => self.consume_pull_condensed_single_peer(),
                    (true, SampleAccess::Multiset) => self.consume_pull_condensed_multiset(),
                    (true, SampleAccess::OrderedWindow) => {
                        unreachable!("ordered-window rules are never condensed")
                    }
                }
            }
            DataFormat::Push => {
                self.push_exchange(&mut messages_sent)?;
                match (self.condensed, self.access) {
                    (false, _) => {
                        self.sample_push_ordered();
                        self.apply_ordered_windows();
                    }
                    (true, SampleAccess::SinglePeer) => self.consume_push_condensed_single_peer(),
                    (true, SampleAccess::Multiset) => self.consume_push_condensed_multiset(),
                    (true, SampleAccess::OrderedWindow) => {
                        unreachable!("ordered-window rules are never condensed")
                    }
                }
            }
        }
        if self.condensed {
            // The condensed contract: no per-agent state, ever, and the
            // consume installed straight into `hist_pairs` with no dense
            // tally left behind — a round that materialized opinions or
            // samples, or scattered into `touched` / `snap_touched`, has
            // silently fallen off the O(#occupied) path.
            debug_assert!(
                self.opinions.is_empty() && self.samples.is_empty() && self.report_pairs_fresh,
                "condensed shard materialized per-agent state or skipped the install"
            );
            debug_assert!(self.touched.is_empty() && self.snap_touched.is_empty(), "dense tally");
        }

        // Sample the wire counters after the exchange and before the
        // report itself is framed: a report's own bytes land in the
        // next round's report (the coordinator's per-shard maximum
        // closes the one-round tail at shutdown).
        let wire_sent = self.transport.bytes_sent();
        let wire_received = self.transport.bytes_received();
        let (mut body, undecided, changed_slots) = self.build_report(format);
        self.corrupt_report_if_byzantine(&mut body);
        let report = ShardReport {
            shard: self.shard_id,
            round,
            body,
            undecided,
            messages_sent,
            recovered: std::mem::take(&mut self.recovered),
            changed_slots,
            bytes_sent: wire_sent,
            bytes_received: wire_received,
        };
        match self.plan.report_fault(round, self.shard_id) {
            None => self.send_report_pooled(report),
            Some(FaultKind::Drop) => {
                // Transmitted and lost: carry the wire tally forward so
                // the next report accounts for this round's traffic,
                // and count the lost frame's bytes as sent.
                self.transport.count_lost_report(&report);
                self.carry_messages += report.messages_sent;
            }
            Some(FaultKind::Duplicate) => {
                self.send_report_pooled(report.clone());
                self.send_report_pooled(report);
            }
            Some(FaultKind::Delay) => {
                debug_assert!(self.delayed_report.is_none(), "one delayed report at a time");
                self.delayed_report = Some(report);
            }
        }
        Ok(())
    }

    /// Sends a report and recycles whatever body buffer the transport
    /// hands back (serializing backends are done with a sparse body
    /// once framed) into the report pool — closing the last per-round
    /// allocation in the worker loop.
    fn send_report_pooled(&mut self, report: ShardReport) {
        if let Some(buf) = self.transport.send_report(report) {
            self.report_pool.push(buf);
        }
    }

    /// Sends the report the fault plan held back last round: the
    /// coordinator's relaxed barrier did not wait for it then, and
    /// folds it as a straggler re-sync now. Crash-stop voids the
    /// stash: the worker clears it on rejoin, not here.
    fn flush_delayed(&mut self) {
        if let Some(report) = self.delayed_report.take() {
            self.send_report_pooled(report);
        }
    }

    /// Rebuilds this shard's state from the coordinator's snapshot
    /// after a crash-stop window, and verifies the reconstruction: a
    /// dense recount of the rematerialized opinions on agent-backed
    /// shards (the snapshot is the shard's own last accepted report, so
    /// the tally must round-trip exactly), an `O(#occupied)` body check
    /// — slot range, positive counts, mass identity, and duplicate
    /// detection through the rebuilt occupancy — on condensed shards,
    /// which copy the counts and never materialize an opinion.
    fn rejoin(&mut self, round: u64, body: &[(u32, u64)], undecided: u64) {
        self.round_no = round;
        // Crash-stop lost all in-flight state.
        self.pending.clear();
        self.delayed_report = None;
        self.carry_messages = 0;
        self.recovered = 0;
        // The scratch was zeroed by the last completed round's report;
        // the snapshot histogram owes it nothing.
        self.report_pairs_fresh = false;
        self.consumed_flat.clear();
        if self.condensed {
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
            self.hist_n = (mass - u128::from(undecided)) as u64;
            self.hist_undecided = undecided;
            if self.report_mode == ReportMode::Delta {
                // Re-baseline the delta tracking against the rejoined
                // histogram.
                for &i in &self.prev_touched {
                    self.prev_counts[i as usize] = 0;
                }
                self.prev_touched.clear();
                self.mirror_hist(Mirror::Prev);
            }
            return;
        }
        let local_n = self.opinions.len();
        self.opinions.clear();
        for &(slot, count) in body {
            self.opinions.extend(std::iter::repeat_n(Opinion::new(slot), count as usize));
        }
        self.opinions.extend(std::iter::repeat_n(Opinion::UNDECIDED, undecided as usize));
        assert_eq!(self.opinions.len(), local_n, "snapshot mass must match the shard size");
        // Dense-recount integrity check: tally the reconstituted
        // opinions and compare against the snapshot body slot by slot.
        self.touched.clear();
        let recount_undecided =
            count_opinions(&self.opinions, &mut self.count_scratch, &mut self.touched);
        assert_eq!(recount_undecided, undecided, "rejoin recount: undecided mismatch");
        assert_eq!(self.touched.len(), body.len(), "rejoin recount: occupancy mismatch");
        for &(slot, count) in body {
            assert_eq!(
                self.count_scratch[slot as usize], count,
                "rejoin recount: slot {slot} mismatch"
            );
        }
        for &i in &self.touched {
            self.count_scratch[i as usize] = 0;
        }
        self.touched.clear();
        // The verified tally is the new report baseline.
        self.distinct = body.len();
        self.undecided = undecided;
        self.log.moves.clear();
        if self.log.on {
            // Re-baseline the delta tracking against the rejoined state.
            self.prev_counts.fill(0);
            self.baseline_agents();
        }
    }

    /// Applies the update rule to the dealt sample windows, in
    /// deterministic node order — how an agent-backed shard consumes
    /// every rule in both gears.
    fn apply_ordered_windows(&mut self) {
        let local_n = self.opinions.len();
        for local in 0..local_n {
            let own = self.opinions[local];
            let window = &self.samples[local * self.h..(local + 1) * self.h];
            let next = self.rule.update(own, window, &mut self.rng);
            self.log.write(&mut self.opinions[local], next);
        }
    }

    /// The pull gear's exchange phase: one [`PullBatch`] and one
    /// [`OpinionPalette`] per live peer per round. Ends with this round's
    /// palettes parked in `recv_palettes`, consumption left to the
    /// caller.
    ///
    /// Pull batches are never faulted (they are the round's control
    /// skeleton) and are served the moment they arrive — each origin has
    /// its own serving RNG stream, so the trajectory does not depend on
    /// the (nondeterministic) arrival order. Palette responses pass
    /// through the plan's per-edge decisions on both sides: the server
    /// intercepts its own transmissions, the requester knows exactly how
    /// many copies will arrive, and every palette it will never see —
    /// dropped, late, or owed by a crashed peer — is compensated by
    /// re-sampling the requested draw count from this shard's own
    /// round-start opinions (counted as `recovered`), so the sample mass
    /// stays exact and every consumption path runs unchanged. Under an
    /// inert plan every peer is live, every palette lands exactly once
    /// and nothing is compensated: the strict lockstep exchange.
    fn pull_exchange(&mut self, messages_sent: &mut u64) -> Result<(), TransportLost> {
        let local_n = self.local_n;
        let shards = self.partition.shards;
        let round = self.round_no;
        let total = (local_n * self.h) as u64;

        // Split the round's `local_n · h` uniform pulls over the
        // destination shards: a multinomial on the range sizes, with
        // crashed peers masked out so every pull targets a live node.
        for dest in 0..shards {
            self.dest_theta[dest] = if self.plan.is_crashed(dest, round) {
                0.0
            } else {
                self.partition.range(dest).len() as f64
            };
        }
        sample_multinomial_into(total, &self.dest_theta, &mut self.rng, &mut self.dest_counts);

        // Every live peer (including self) sends us one pull batch and
        // owes us its palette copies through the `peer → self` edge.
        let mut expected_pulls = 0usize;
        let expected_palettes = self.expected_palettes();
        for peer in 0..shards {
            if self.plan.is_crashed(peer, round) {
                continue;
            }
            expected_pulls += 1;
            let mut runs = self.run_pool.pop().unwrap_or_default();
            runs.clear();
            let m = self.dest_counts[peer];
            if m > 0 {
                let len = self.partition.range(peer).len() as u32;
                runs.push(TargetRun { start: 0, len, count: m });
            }
            *messages_sent += runs.len() as u64;
            self.transport.send(
                peer,
                ShardMessage::Pull(PullBatch {
                    origin: self.shard_id as u32,
                    round,
                    target_runs: runs,
                }),
            );
        }

        let mut pulls = 0usize;
        let mut palettes = 0usize;
        while pulls < expected_pulls || palettes < expected_palettes {
            match self.recv_current()? {
                ShardMessage::Pull(batch) => {
                    pulls += 1;
                    let origin = batch.origin as usize;
                    let palette = self.build_palette(&batch);
                    self.send_palette(origin, palette, messages_sent);
                    self.run_pool.push(batch.target_runs);
                }
                ShardMessage::Palette(p) => {
                    palettes += 1;
                    self.absorb_palette(p);
                }
            }
        }

        // Compensate the palettes that never landed: re-sample the
        // requested draw count from this shard's own round-start
        // opinions (the lost server's law is out of reach; the local
        // stand-in keeps the sample mass exact). Crashed peers were
        // masked to zero draws, so their slots fill with empty
        // palettes and recover nothing.
        for origin in 0..shards {
            if self.recv_palettes[origin].is_some() {
                continue;
            }
            let m = self.dest_counts[origin];
            let (mut palette, mut runs) = self.palette_pool.pop().unwrap_or_default();
            palette.clear();
            runs.clear();
            debug_assert!(m == 0 || local_n > 0, "draws need a non-empty shard");
            if self.condensed {
                // The same self-compensation law off the histogram — a
                // binomial undecided split plus a sparse multinomial
                // over the round-start snapshot, emitted runs-encoded
                // — on the same round RNG the agent path's per-draw
                // reads consume.
                if m > 0 {
                    self.ensure_snapshot();
                    let undec = if self.snap_undecided > 0 {
                        Binomial::new(m, self.snap_undecided as f64 / local_n as f64)
                            .sample(&mut self.rng)
                    } else {
                        0
                    };
                    let rest = m - undec;
                    if rest > 0 {
                        self.theta_scratch.clear();
                        self.theta_scratch.extend(
                            self.snap_touched.iter().map(|&i| self.snap_counts[i as usize] as f64),
                        );
                        sample_multinomial_sparse_into(
                            rest,
                            &self.theta_scratch,
                            &self.snap_touched,
                            &mut self.rng,
                            &mut self.serve_counts,
                        );
                    }
                    for &i in &self.snap_touched {
                        let c = self.serve_counts[i as usize];
                        if c > 0 {
                            runs.push((palette.len() as u32, c));
                            palette.push(Opinion::new(i));
                            self.serve_counts[i as usize] = 0;
                        }
                    }
                    if undec > 0 {
                        runs.push((palette.len() as u32, undec));
                        palette.push(Opinion::UNDECIDED);
                    }
                }
            } else {
                palette.reserve(m as usize);
                for _ in 0..m {
                    palette.push(self.opinions[self.rng.gen_range(0..local_n)]);
                }
            }
            self.recovered += m;
            self.recv_palettes[origin] = Some((palette, runs));
        }

        // Serving is done for the round: clear the snapshot histogram
        // if one was built.
        for &i in &self.snap_touched {
            self.snap_counts[i as usize] = 0;
        }
        self.snap_touched.clear();
        self.snap_ready = false;
        self.serve_flat_fresh = false;
        Ok(())
    }

    /// Reconstitutes per-node samples from the received palettes: deals
    /// them into the sample buffer in origin order (arrival-order
    /// independent) through an inside-out Fisher–Yates — one pass
    /// expands *and* shuffles. An iid sequence conditioned on its
    /// multiset is a uniform arrangement, so the joint law of the
    /// `local_n · h` samples is exactly iid Uniform Pull.
    fn deal_palettes_ordered(&mut self) {
        let shards = self.partition.shards;
        let total = self.opinions.len() * self.h;
        let mut pos = 0usize;
        for origin in 0..shards {
            let (palette, runs) = self.recv_palettes[origin].take().expect("one palette per peer");
            if runs.is_empty() {
                // Raw palette: one insert per draw.
                for &o in &palette {
                    let j = self.rng.gen_range(0..=pos);
                    self.samples[pos] = self.samples[j];
                    self.samples[j] = o;
                    pos += 1;
                }
            } else {
                for &(pi, c) in &runs {
                    let o = palette[pi as usize];
                    for _ in 0..c {
                        let j = self.rng.gen_range(0..=pos);
                        self.samples[pos] = self.samples[j];
                        self.samples[j] = o;
                        pos += 1;
                    }
                }
            }
            self.palette_pool.push((palette, runs));
        }
        debug_assert_eq!(pos, total, "palette mass must equal the requested pulls");
    }

    /// Single-peer consumption of the pull gear, condensed: the pooled
    /// palette multiset **is** the next histogram — flatten it into the
    /// per-draw tally and sort/RLE-install. No RNG at all.
    fn consume_pull_condensed_single_peer(&mut self) {
        debug_assert_eq!(self.h, 1, "single-peer rules pull one sample");
        let shards = self.partition.shards;
        let mut mass = 0u64;
        for origin in 0..shards {
            let (palette, runs) = self.recv_palettes[origin].take().expect("one palette per peer");
            {
                let flat = &mut self.consumed_flat;
                if runs.is_empty() {
                    mass += palette.len() as u64;
                    flat.reserve(palette.len());
                    for &o in &palette {
                        flat.push(if o.is_undecided() { u32::MAX } else { o.index() as u32 });
                    }
                } else {
                    for &(pi, c) in &runs {
                        let o = palette[pi as usize];
                        mass += c;
                        let s = if o.is_undecided() { u32::MAX } else { o.index() as u32 };
                        flat.resize(flat.len() + c as usize, s);
                    }
                }
            }
            self.palette_pool.push((palette, runs));
        }
        debug_assert_eq!(mass, self.local_n as u64, "palette mass must equal the node count");
        self.install_condensed_from_flat();
    }

    /// Flat multiset consumption straight off the received palettes,
    /// without materializing the pool: dealing the pooled multiset into
    /// per-node `h`-windows uniformly is, ball by ball, a uniform
    /// interleaving of the origins (pick an origin with probability
    /// proportional to its remaining mass), and conditioned on the
    /// origin the palette entries are exchangeable — so reading each
    /// palette in arrival order is the same law as a uniform dealing.
    /// Each ball costs one bounded draw over `shards` counters and one
    /// sequential palette read, instead of a random-scatter tally pass
    /// plus a random swap in a pooled scratch of `local_n · h` entries.
    fn consume_pull_condensed_interleaved(&mut self) {
        let shards = self.partition.shards;
        let h = self.h;
        self.condensed_groups();
        // Per-origin remaining mass and read cursor; run-encoded
        // palettes are expanded on the fly as (run index, used).
        let mut palettes: Vec<PaletteBuffers> = Vec::with_capacity(shards);
        let mut rem: Vec<u64> = Vec::with_capacity(shards);
        let mut pos: Vec<(usize, u64)> = vec![(0, 0); shards];
        for origin in 0..shards {
            let (palette, runs) = self.recv_palettes[origin].take().expect("one palette per peer");
            rem.push(if runs.is_empty() {
                palette.len() as u64
            } else {
                runs.iter().map(|&(_, c)| c).sum()
            });
            palettes.push((palette, runs));
        }
        let mut total: u64 = rem.iter().sum();
        debug_assert_eq!(total, (self.local_n * h) as u64, "palette mass must cover the windows");
        // Each ball is drawn uniformly among the remaining pool, so the
        // windows come out uniformly *ordered* — apply the rule's
        // ordered update directly (the multiset presentation would be
        // the same law at a window-pairs build per node).
        let mut wbuf: Vec<Opinion> = Vec::with_capacity(h);
        for gi in 0..self.groups.len() {
            let (own, count) = self.groups[gi];
            for _ in 0..count {
                wbuf.clear();
                for _ in 0..h {
                    // u32 draws when the pool allows it: the uniform
                    // rejection step is a 64-bit widening multiply
                    // instead of a 128-bit one, and this loop runs once
                    // per ball.
                    let mut r = if total <= u32::MAX as u64 {
                        self.rng.gen_range(0..total as u32) as u64
                    } else {
                        self.rng.gen_range(0..total)
                    };
                    let mut o = 0;
                    while r >= rem[o] {
                        r -= rem[o];
                        o += 1;
                    }
                    rem[o] -= 1;
                    total -= 1;
                    let (palette, runs) = &palettes[o];
                    wbuf.push(if runs.is_empty() {
                        let i = pos[o].0;
                        pos[o].0 = i + 1;
                        palette[i]
                    } else {
                        let (ri, used) = pos[o];
                        let (pi, c) = runs[ri];
                        pos[o] = if used + 1 == c { (ri + 1, 0) } else { (ri, used + 1) };
                        palette[pi as usize]
                    });
                }
                let next = self.rule.update(own, &wbuf, &mut self.rng);
                self.consumed_flat.push(if next.is_undecided() {
                    u32::MAX
                } else {
                    next.index() as u32
                });
            }
        }
        debug_assert_eq!(total, 0, "the pooled palettes must be dealt exactly");
        for p in palettes {
            self.palette_pool.push(p);
        }
        self.install_condensed_from_flat();
    }

    /// Multiset consumption of the pull gear, condensed: pool the
    /// received palettes (raw ones are tallied too — a condensed shard
    /// has no ordered path to bail to) and consume the pooled
    /// histogram **by opinion group, not by node**:
    ///
    /// * **mega-block** (the rule is
    ///   [`MultisetRule::own_insensitive`][symbreak_core::MultisetRule] —
    ///   3-Majority, h-Majority) — every group sees the same window
    ///   law, so the whole pool is one block and one
    ///   `condensed_window_step` call applies the rule's aggregate law
    ///   to all `local_n` nodes at once: `O(d log d)` per round,
    ///   independent of `local_n`.
    /// * **grouped** (own-sensitive rules while
    ///   `#groups · d ≤ local_n · h`) — a [`GroupSplitter`] deals the
    ///   pool into per-group blocks of `count · h` balls (nested
    ///   multivariate hypergeometrics over the shrinking pool — exactly
    ///   the law of handing each group its share of a uniform dealing),
    ///   then one `condensed_window_step` per occupied group:
    ///   `O(#occupied · (d + h))` per round.
    /// * **flat dealing** (the diverse regime, e.g. singleton starts
    ///   where `#groups · d` would exceed the ball count) — deal
    ///   per-node windows at `O(1)` per ball, matching the agent-backed
    ///   consume's cost per ball instead of paying `O(log d)` Fenwick
    ///   draws.
    ///
    /// All three are the same without-replacement law; the next
    /// histogram is tallied as blocks are consumed and no per-agent
    /// state is ever materialized.
    ///
    /// The diverse regime is detected *before* the pool is tallied: the
    /// palette envelopes bound the pool's distinct-category count `d`
    /// from above at `O(shards)` cost, and when even the aggregate
    /// paths' `O(d)` per-category draws would exceed the per-ball
    /// budget ([`MEGA_DISPATCH_FACTOR`] amortizes a per-category
    /// hypergeometric against per-ball dealing), the whole tally —
    /// itself an `O(local_n · h)` random-scatter pass — is skipped and
    /// consumption runs straight off the received palettes
    /// ([`Self::consume_pull_condensed_interleaved`]).
    fn consume_pull_condensed_multiset(&mut self) {
        let shards = self.partition.shards;
        // Bound d off the envelopes: raw palettes contribute at most
        // their entry count, run-encoded ones at most their run count.
        let mut upper_d = 0u64;
        for origin in 0..shards {
            let (palette, runs) =
                self.recv_palettes[origin].as_ref().expect("one palette per peer");
            upper_d += if runs.is_empty() { palette.len() as u64 } else { runs.len() as u64 };
        }
        if upper_d * MEGA_DISPATCH_FACTOR > (self.local_n * self.h) as u64 {
            return self.consume_pull_condensed_interleaved();
        }
        // Tally the pooled histogram, reusing `serve_counts` — zero
        // outside serves — as the dense scratch.
        self.pool_touched.clear();
        let pool_undecided =
            tally_palettes(&self.recv_palettes, &mut self.serve_counts, &mut self.pool_touched);
        self.recycle_palettes();

        // Gather the pool ascending by opinion, undecided last — the
        // condensed-step `values` contract — zeroing the scratch.
        let d = self.pool_touched.len() + usize::from(pool_undecided > 0);
        self.pool_touched.sort_unstable();
        self.pool_counts.clear();
        self.pool_ops.clear();
        for &i in &self.pool_touched {
            self.pool_counts.push(self.serve_counts[i as usize]);
            self.pool_ops.push(Opinion::new(i));
            self.serve_counts[i as usize] = 0;
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

        self.condensed_groups();
        self.step_out.clear();
        let h = self.h as u64;
        let msr = self.rule.as_multiset().expect("Multiset access requires a MultisetRule impl");
        if msr.own_insensitive() {
            // Mega-block: one aggregate call covers every group (the
            // `own` argument is ignored by the rule's law).
            msr.condensed_window_step(
                Opinion::UNDECIDED,
                self.local_n as u64,
                &self.pool_ops,
                &mut self.pool_counts,
                &mut self.rng,
                &mut self.step_out,
            );
        } else if (self.groups.len() as u64).saturating_mul(d as u64) <= (self.local_n as u64) * h {
            // Grouped: deal each group its `count · h`-ball share of
            // the shrinking pool, then apply the rule's aggregate law
            // once per group.
            let mut splitter = GroupSplitter::new(&mut self.pool_counts);
            for gi in 0..self.groups.len() {
                let (own, count) = self.groups[gi];
                let block = &mut self.group_block;
                block.clear();
                block.resize(d, 0);
                splitter.draw_block(count * h, &mut self.rng, |j, x| block[j] += x);
                msr.condensed_window_step(
                    own,
                    count,
                    &self.pool_ops,
                    block,
                    &mut self.rng,
                    &mut self.step_out,
                );
            }
            debug_assert_eq!(splitter.remaining(), 0, "the pool must be dealt exactly");
        } else {
            // Flat dealing: the per-group dense blocks would cost more
            // than touching every ball once, so flatten the pool and
            // deal per-node windows by partial Fisher–Yates.
            self.flat_pool.clear();
            for (j, &c) in self.pool_counts.iter().enumerate() {
                let o = self.pool_ops[j];
                self.flat_pool.extend(std::iter::repeat_n(o, c as usize));
            }
            let mut m = self.flat_pool.len();
            for gi in 0..self.groups.len() {
                let (own, count) = self.groups[gi];
                for _ in 0..count {
                    self.window.clear();
                    for _ in 0..self.h {
                        let j = self.rng.gen_range(0..m);
                        let o = self.flat_pool[j];
                        m -= 1;
                        self.flat_pool[j] = self.flat_pool[m];
                        match self.window.iter_mut().find(|e| e.0 == o) {
                            Some(e) => e.1 += 1,
                            None => self.window.push((o, 1)),
                        }
                    }
                    let next = msr.update_from_counts(own, &self.window, &mut self.rng);
                    self.consumed_flat.push(if next.is_undecided() {
                        u32::MAX
                    } else {
                        next.index() as u32
                    });
                }
            }
            debug_assert_eq!(m, 0, "the pool must be dealt exactly");
            // Per-node decisions went to the flat tally; nothing ran
            // through `step_out`, so install by sort/RLE and be done.
            debug_assert!(self.step_out.is_empty());
            self.install_condensed_from_flat();
            return;
        }
        self.install_condensed();
    }

    /// The push data plane's exchange phase for the concentrated
    /// regime: no pulls at all. Every shard broadcasts its round-start
    /// opinion histogram — a condensed shard its sorted `hist_pairs`
    /// with the undecided mass last, built straight from the pairs with
    /// no snapshot scratch; an agent shard its first-touch tally — and
    /// each requester unions the received histograms — which is exactly
    /// the global round-start opinion distribution (a uniform node is a
    /// shard ∝ size, then a uniform node within it) — into the parallel
    /// `alias_weights` / `alias_values` scratch. Sampling from the union
    /// is left to the caller.
    ///
    /// The broadcast skips crashed peers and each copy passes through
    /// the plan's per-edge decision; the union is built from whichever
    /// contributions survived (see [`Worker::union_palettes`]) — push
    /// rounds have no sample-mass contract to restore, so lost
    /// histograms reweight rather than recover.
    fn push_exchange(&mut self, messages_sent: &mut u64) -> Result<(), TransportLost> {
        let (mut body, mut bruns) = self.palette_pool.pop().unwrap_or_default();
        body.clear();
        bruns.clear();
        let undecided = if self.condensed {
            for &(i, c) in &self.hist_pairs {
                bruns.push((body.len() as u32, c));
                body.push(Opinion::new(i));
            }
            self.hist_undecided
        } else {
            self.snapshot_round_start();
            for &i in &self.snap_touched {
                bruns.push((body.len() as u32, self.snap_counts[i as usize]));
                body.push(Opinion::new(i));
                self.snap_counts[i as usize] = 0;
            }
            self.snap_touched.clear();
            self.snap_undecided
        };
        if undecided > 0 {
            bruns.push((body.len() as u32, undecided));
            body.push(Opinion::UNDECIDED);
        }
        self.broadcast_palette(body, bruns, messages_sent);
        self.collect_palettes()?;
        self.union_palettes();
        Ok(())
    }

    /// Unions the received push histograms into `alias_values` /
    /// `alias_weights`, over the ~occ distinct global colors rather than
    /// the `shards · occ` raw entries. Condensed multiset shards merge
    /// their sorted palettes ([`merge_palettes`]) into the ascending
    /// order `condensed_push_step` requires; agent shards and condensed
    /// single-peer shards keep the first-touch order of [`dense_union`].
    /// Contributions lost to an active fault plan are simply absent:
    /// the alias table normalizes over the surviving mass, reweighting
    /// the round's samples toward the shards that were heard (under an
    /// inert plan every slot is filled, so this is the fault-free union
    /// verbatim).
    fn union_palettes(&mut self) {
        if self.condensed && self.access == SampleAccess::Multiset {
            merge_palettes(
                &self.recv_palettes,
                &mut self.union_halves,
                &mut self.alias_values,
                &mut self.alias_weights,
            );
        } else {
            dense_union(
                &self.recv_palettes,
                &mut self.snap_counts,
                &mut self.snap_touched,
                &mut self.alias_values,
                &mut self.alias_weights,
            );
        }
        self.recycle_palettes();
    }

    /// Returns this round's received palette buffers to the pool.
    fn recycle_palettes(&mut self) {
        for slot in &mut self.recv_palettes {
            if let Some(buffers) = slot.take() {
                self.palette_pool.push(buffers);
            }
        }
    }

    /// Receives the next message belonging to the current round.
    /// Messages parked by earlier rounds are drained first; messages
    /// tagged with a *future* round (a peer that made quorum and ran
    /// ahead of this straggler) are parked until their round starts.
    ///
    /// Stale tags are impossible by construction: a receiver's round-`r`
    /// loop blocks until every round-`r` message addressed to it has
    /// arrived (the plan-derived expected counts are exact), so no
    /// shard ever advances past a round with its traffic still in
    /// flight — asserted, not assumed.
    fn recv_current(&mut self) -> Result<ShardMessage, TransportLost> {
        fn tag(msg: &ShardMessage) -> u64 {
            match msg {
                ShardMessage::Pull(b) => b.round,
                ShardMessage::Palette(p) => p.round,
            }
        }
        if let Some(i) = self.pending.iter().position(|m| tag(m) == self.round_no) {
            return Ok(self.pending.swap_remove(i));
        }
        loop {
            let msg = self.transport.recv()?;
            let t = tag(&msg);
            if t == self.round_no {
                return Ok(msg);
            }
            assert!(t > self.round_no, "stale round-{t} message in round {}", self.round_no);
            self.pending.push(msg);
        }
    }

    /// Absorbs one current-round palette: the first copy from a non-late
    /// origin fills its slot; duplicate copies and
    /// deterministically-late deliveries are discarded (their buffers
    /// returned to the pool).
    fn absorb_palette(&mut self, p: OpinionPalette) {
        let origin = p.origin as usize;
        let late =
            self.plan.palette_fault(self.round_no, origin, self.shard_id) == Some(FaultKind::Delay);
        if !late && self.recv_palettes[origin].is_none() {
            self.recv_palettes[origin] = Some((p.palette, p.runs));
        } else {
            self.palette_pool.push((p.palette, p.runs));
        }
    }

    /// How many palette copies this shard receives this round: the
    /// copies each live peer sends through its `peer → self` edge (late
    /// copies still arrive — and are discarded — so they count). One per
    /// peer under an inert plan.
    fn expected_palettes(&self) -> usize {
        let round = self.round_no;
        (0..self.partition.shards)
            .filter(|&peer| !self.plan.is_crashed(peer, round))
            .map(|peer| match self.plan.palette_fault(round, peer, self.shard_id) {
                None | Some(FaultKind::Delay) => 1,
                Some(FaultKind::Duplicate) => 2,
                Some(FaultKind::Drop) => 0,
            })
            .sum()
    }

    /// Transmits one palette through the plan's fault decision for the
    /// `self → dest` edge this round, keeping the wire accounting
    /// honest: dropped copies were transmitted and lost (counted once),
    /// duplicates count twice, late copies count once and are discarded
    /// by the receiver.
    fn send_palette(&mut self, dest: usize, palette: OpinionPalette, messages_sent: &mut u64) {
        let wire = (palette.palette.len() + palette.runs.len()) as u64;
        match self.plan.palette_fault(self.round_no, self.shard_id, dest) {
            None | Some(FaultKind::Delay) => {
                *messages_sent += wire;
                self.transport.send(dest, ShardMessage::Palette(palette));
            }
            Some(FaultKind::Drop) => {
                // Transmitted and lost: the entries and the frame bytes
                // both count as sent, nothing is delivered.
                *messages_sent += wire;
                self.transport.count_lost(&ShardMessage::Palette(palette));
            }
            Some(FaultKind::Duplicate) => {
                *messages_sent += 2 * wire;
                self.transport.send(dest, ShardMessage::Palette(palette.clone()));
                self.transport.send(dest, ShardMessage::Palette(palette));
            }
        }
    }

    /// Broadcasts one push histogram to every live peer, each copy
    /// through [`Worker::send_palette`]. Every peer but the last live
    /// one gets a pooled copy — built once, then bulk-copied rather than
    /// re-pushed entry by entry — and the last takes the original
    /// buffers.
    fn broadcast_palette(
        &mut self,
        mut body: Vec<Opinion>,
        mut bruns: Vec<(u32, u64)>,
        messages_sent: &mut u64,
    ) {
        let round = self.round_no;
        let origin = self.shard_id as u32;
        let last = (0..self.partition.shards)
            .rev()
            .find(|&peer| !self.plan.is_crashed(peer, round))
            .expect("the broadcasting shard is live");
        for peer in 0..=last {
            if self.plan.is_crashed(peer, round) {
                continue;
            }
            let (palette, runs) = if peer == last {
                (std::mem::take(&mut body), std::mem::take(&mut bruns))
            } else {
                let (mut p, mut r) = self.palette_pool.pop().unwrap_or_default();
                p.clear();
                r.clear();
                p.extend_from_slice(&body);
                r.extend_from_slice(&bruns);
                (p, r)
            };
            self.send_palette(peer, OpinionPalette { origin, round, palette, runs }, messages_sent);
        }
    }

    /// Collects this push round's histograms into `recv_palettes`:
    /// exactly [`Worker::expected_palettes`] copies arrive, and nothing
    /// else (a push round has no pulls at all).
    fn collect_palettes(&mut self) -> Result<(), TransportLost> {
        for _ in 0..self.expected_palettes() {
            match self.recv_current()? {
                ShardMessage::Palette(p) => self.absorb_palette(p),
                ShardMessage::Pull(_) => {
                    unreachable!("round lockstep: pull message in a push round")
                }
            }
        }
        Ok(())
    }

    /// Rewrites this shard's report body if the plan marks it
    /// Byzantine. [`CorruptionKind::Plausible`] routes through the
    /// adversary crate's `RandomFlipper` on the shard's dedicated
    /// corruption stream — mass-preserving, so the lie passes the
    /// coordinator's validation and must be tolerated by consensus
    /// detection. [`CorruptionKind::Inflate`] adds phantom mass the
    /// coordinator rejects.
    fn corrupt_report_if_byzantine(&mut self, body: &mut ReportBody) {
        let Some(rng) = self.byz_rng.as_mut() else { return };
        let spec = *self.plan.byzantine_spec(self.shard_id).expect("byz_rng implies a spec");
        let ReportBody::Sparse(pairs) = body else {
            panic!("fault plans require sparse reports");
        };
        match spec.kind {
            CorruptionKind::Plausible => {
                let mut counts = vec![0u64; self.k_slots];
                for &(slot, c) in pairs.iter() {
                    counts[slot as usize] = c;
                }
                let mut cfg = Configuration::from_counts(counts);
                if cfg.n() > 0 {
                    RandomFlipper::new(spec.budget).corrupt(&mut cfg, rng);
                }
                pairs.clear();
                pairs.extend(cfg.occupied().iter().copied().zip(cfg.occupied_counts()));
            }
            CorruptionKind::Inflate => {
                if let Some(first) = pairs.first_mut() {
                    first.1 += spec.budget;
                } else {
                    pairs.push((0, spec.budget));
                }
            }
        }
    }

    /// Ordered consumption of the push gear: all `local_n · h` samples
    /// drawn iid from the union alias table into the sample buffer (no
    /// shuffle needed — iid draws are already exchangeable).
    fn sample_push_ordered(&mut self) {
        let total = self.opinions.len() * self.h;
        if total == 0 {
            return;
        }
        let alias = Categorical::new(&self.alias_weights);
        for pos in 0..total {
            self.samples[pos] = self.alias_values[alias.sample(&mut self.rng)];
        }
    }

    /// Single-peer consumption of the push gear, condensed: every
    /// node's next opinion is an iid union draw, so the next histogram
    /// is one `Mult(local_n, union)` — `O(#distinct)` for the whole
    /// shard, no per-node work at all.
    fn consume_push_condensed_single_peer(&mut self) {
        debug_assert_eq!(self.h, 1, "single-peer rules pull one sample");
        self.pool_counts.clear();
        self.pool_counts.resize(self.alias_weights.len(), 0);
        sample_multinomial_into(
            self.local_n as u64,
            &self.alias_weights,
            &mut self.rng,
            &mut self.pool_counts,
        );
        self.step_out.clear();
        self.step_out
            .extend(self.alias_values.iter().copied().zip(self.pool_counts.iter().copied()));
        self.install_condensed();
    }

    /// Multiset consumption of the push gear, condensed: the whole
    /// shard steps through one [`symbreak_core::MultisetRule`]
    /// `condensed_push_step` call — the rule's closed-form aggregate
    /// over iid `Mult(h, union)` windows (a multinomial for 3-Majority,
    /// binomial splits for the undecided dynamics, CDF cascades for
    /// 2-Median, with a generic per-node fallback) — so the per-round
    /// compute is `O(#occupied · h)`, independent of `local_n`. This is
    /// the path the Theorem-5 `n ≥ 10⁸` sweeps run on. The union
    /// arrives merged ascending, undecided last — the condensed-step
    /// contract — from [`merge_palettes`], and the step's output is
    /// installed by one sort-and-coalesce pass.
    fn consume_push_condensed_multiset(&mut self) {
        self.condensed_groups();
        self.step_out.clear();
        let msr = self.rule.as_multiset().expect("Multiset access requires a MultisetRule impl");
        msr.condensed_push_step(
            &self.groups,
            &self.alias_values,
            &self.alias_weights,
            &mut self.rng,
            &mut self.step_out,
        );
        self.install_condensed();
    }

    /// Samples the palette answering one pull batch from the round-start
    /// state, drawing from the origin's dedicated serving stream,
    /// choosing per batch between two exact samplers by the draw count
    /// `m` vs the distinct local color count `d`:
    ///
    /// * **raw** (`m < 24·d`, the diverse regime) — draw `m` uniform
    ///   targets and ship their opinions verbatim (a palette with no
    ///   runs): `O(m)` cheap draws and `m` wire entries, with no
    ///   per-node routing. A histogram would not compress enough here
    ///   to pay for building one.
    /// * **histogram walk** (`m ≥ 24·d`, the concentrated regime) — a
    ///   multinomial over the round-start opinion histogram (undecided
    ///   mass split off first): `O(d)` binomial draws and wire
    ///   entries, with no per-draw work at all. A conditional-binomial
    ///   step costs tens of materialized draws, hence the crossover.
    ///
    /// Both are exactly the law of `m` uniform snapshot reads; the
    /// choice depends only on deterministic per-round state, so the
    /// trajectory stays seed-reproducible.
    ///
    /// Sending is left to the caller, which routes the palette through
    /// the plan's edge decision ([`Worker::send_palette`]).
    fn build_palette(&mut self, batch: &PullBatch) -> OpinionPalette {
        // Crossover between the raw and walk samplers: a
        // conditional-binomial step (sampler construction + draw)
        // costs roughly twenty-odd materialized draws.
        const WALK_FACTOR: u64 = 24;
        let local_n = self.local_n;
        let origin = batch.origin as usize;
        let d = self.local_distinct() as u64 + 1;
        let total: u64 = batch.target_runs.iter().map(|r| r.count).sum();
        let walkable = total >= WALK_FACTOR * d
            && batch.target_runs.iter().all(|r| r.start == 0 && r.len as usize == local_n);
        // A raw batch off the agent vector reads the opinions directly;
        // everything else samples the round-start snapshot.
        if walkable || (self.condensed && total > 0) {
            self.ensure_snapshot();
        }
        let rng = &mut self.serve_rngs[origin];

        let (mut palette, mut pruns) = self.palette_pool.pop().unwrap_or_default();
        palette.clear();
        pruns.clear();

        if walkable {
            let mut served_undecided = 0u64;
            for run in &batch.target_runs {
                if run.count == 0 {
                    continue;
                }
                let undec = if self.snap_undecided > 0 {
                    Binomial::new(run.count, self.snap_undecided as f64 / local_n as f64)
                        .sample(rng)
                } else {
                    0
                };
                served_undecided += undec;
                let rest = run.count - undec;
                if rest > 0 {
                    self.theta_scratch.clear();
                    self.theta_scratch.extend(
                        self.snap_touched.iter().map(|&i| self.snap_counts[i as usize] as f64),
                    );
                    sample_multinomial_sparse_into(
                        rest,
                        &self.theta_scratch,
                        &self.snap_touched,
                        rng,
                        &mut self.serve_counts,
                    );
                }
            }
            // Emit the histogram palette in snapshot-touched order
            // (every drawn opinion is a local color).
            for &i in &self.snap_touched {
                let c = self.serve_counts[i as usize];
                if c > 0 {
                    pruns.push((palette.len() as u32, c));
                    palette.push(Opinion::new(i));
                    self.serve_counts[i as usize] = 0;
                }
            }
            if served_undecided > 0 {
                pruns.push((palette.len() as u32, served_undecided));
                palette.push(Opinion::UNDECIDED);
            }
        } else if self.condensed {
            // Raw palette off the histogram: a uniform read of the flat
            // mirror is a draw from the round-start distribution — the
            // mirror is run-filled once per round on the first raw
            // batch and shared by the rest (the draws still come from
            // the per-origin serving streams, so pipelined serving
            // stays arrival-order independent).
            if total > 0 {
                if !self.serve_flat_fresh {
                    self.serve_flat.clear();
                    self.serve_flat.reserve(local_n);
                    for &i in &self.snap_touched {
                        let c = self.snap_counts[i as usize] as usize;
                        self.serve_flat.resize(self.serve_flat.len() + c, Opinion::new(i));
                    }
                    // The remainder up to local_n is the undecided tail.
                    self.serve_flat.resize(local_n, Opinion::UNDECIDED);
                    self.serve_flat_fresh = true;
                }
                palette.reserve(total as usize);
                for run in &batch.target_runs {
                    debug_assert!(
                        run.start == 0 && run.len as usize == local_n,
                        "batched pulls cover whole shard ranges"
                    );
                    for _ in 0..run.count {
                        let t = rng.gen_range(0..local_n);
                        palette.push(self.serve_flat[t]);
                    }
                }
            }
        } else {
            // Raw: the drawn opinions themselves, in draw order.
            palette.reserve(total as usize);
            for run in &batch.target_runs {
                for _ in 0..run.count {
                    let t = run.start + rng.gen_range(0..run.len);
                    palette.push(self.opinions[t as usize]);
                }
            }
        }

        OpinionPalette { origin: self.shard_id as u32, round: self.round_no, palette, runs: pruns }
    }

    /// Builds the commanded report body; under [`ReportMode::Delta`]
    /// also rolls the previous-round counts forward and reports the
    /// changed-slot count.
    fn build_report(&mut self, format: ReportFormat) -> (ReportBody, u64, Option<u64>) {
        if !self.condensed {
            return self.build_agent_report(format);
        }
        let tracking = self.report_mode == ReportMode::Delta;
        if std::mem::take(&mut self.report_pairs_fresh)
            && !tracking
            && format == ReportFormat::Sparse
        {
            // `hist_pairs` *is* the sparse body, already sorted — no
            // dense pass at all, and nothing to zero behind the report.
            let mut pairs = self.report_pool.pop().unwrap_or_default();
            pairs.clear();
            pairs.extend_from_slice(&self.hist_pairs);
            return (ReportBody::Sparse(pairs), self.hist_undecided, None);
        }
        // Tracked or delta shapes compare against the dense previous
        // counts: mirror the histogram once (`O(#occupied)`, no recount).
        self.touched.clear();
        self.mirror_hist(Mirror::Report);

        let changed_slots = if tracking {
            let mut changed = 0u64;
            for &i in &self.touched {
                if self.count_scratch[i as usize] != self.prev_counts[i as usize] {
                    changed += 1;
                }
            }
            for &i in &self.prev_touched {
                if self.count_scratch[i as usize] == 0 {
                    changed += 1;
                }
            }
            Some(changed)
        } else {
            None
        };

        let body = match format {
            ReportFormat::Sparse => self.sparse_body_from_scratch(),
            ReportFormat::Delta => {
                assert!(tracking, "delta reports need ReportMode::Delta tracking");
                let mut pairs = Vec::with_capacity(changed_slots.unwrap_or(0) as usize);
                for &i in &self.touched {
                    let new = self.count_scratch[i as usize];
                    let prev = self.prev_counts[i as usize];
                    if new != prev {
                        pairs.push((i, new as i64 - prev as i64));
                    }
                }
                for &i in &self.prev_touched {
                    if self.count_scratch[i as usize] == 0 {
                        pairs.push((i, -(self.prev_counts[i as usize] as i64)));
                    }
                }
                ReportBody::Delta(pairs)
            }
        };

        if tracking {
            // Roll prev ← new; the swapped-out previous counts become
            // the (zeroed) scratch for the next round.
            std::mem::swap(&mut self.prev_counts, &mut self.count_scratch);
            std::mem::swap(&mut self.prev_touched, &mut self.touched);
        }
        for &i in &self.touched {
            self.count_scratch[i as usize] = 0;
        }
        self.touched.clear();
        (body, self.hist_undecided, changed_slots)
    }

    /// The sparse body of the tally in `count_scratch` / `touched`, in
    /// touched order. Leaves the scratch as it is.
    fn sparse_body_from_scratch(&mut self) -> ReportBody {
        let mut pairs = self.report_pool.pop().unwrap_or_default();
        pairs.clear();
        pairs.reserve(self.touched.len());
        for &i in &self.touched {
            pairs.push((i, self.count_scratch[i as usize]));
        }
        ReportBody::Sparse(pairs)
    }

    /// The agent-backed report. Under delta tracking the round's logged
    /// moves are netted first, in `O(#moves)`: they are the delta body
    /// and the changed-slot count, and they roll `prev_counts`,
    /// `distinct` and `undecided` forward. A sparse body recounts the
    /// opinions in first-touch order, `O(local_n)`.
    fn build_agent_report(&mut self, format: ReportFormat) -> (ReportBody, u64, Option<u64>) {
        let deltas = self.log.on.then(|| self.net_moves());
        let changed_slots = deltas.as_ref().map(|d| d.len() as u64);
        let body = match format {
            ReportFormat::Delta => {
                ReportBody::Delta(deltas.expect("delta reports need ReportMode::Delta tracking"))
            }
            ReportFormat::Sparse => {
                self.touched.clear();
                let undecided =
                    count_opinions(&self.opinions, &mut self.count_scratch, &mut self.touched);
                debug_assert!(
                    !self.log.on
                        || (undecided == self.undecided && self.touched.len() == self.distinct),
                    "netted moves must agree with the recount"
                );
                self.undecided = undecided;
                self.distinct = self.touched.len();
                let body = self.sparse_body_from_scratch();
                for &i in &self.touched {
                    self.count_scratch[i as usize] = 0;
                }
                self.touched.clear();
                body
            }
        };
        (body, self.undecided, changed_slots)
    }

    /// Nets this round's logged moves into signed `(slot, Δcount)`
    /// entries, one per slot whose count changed, in first-move order.
    /// Rolls `prev_counts`, `distinct` and `undecided` forward and
    /// clears the log. `count_scratch` (zero between reports) holds each
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
                if self.count_scratch[i] == 0 {
                    self.touched.push(i as u32);
                }
                self.count_scratch[i] = self.count_scratch[i].wrapping_add(step as u64);
            }
        }
        self.log.moves.clear();
        let mut pairs = Vec::new();
        for &i in &self.touched {
            let net = self.count_scratch[i as usize] as i64;
            if net == 0 {
                continue;
            }
            self.count_scratch[i as usize] = 0;
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_covers_all_nodes_disjointly() {
        for (n, shards) in [(10u32, 3usize), (16, 4), (7, 7), (100, 8), (5, 1)] {
            let p = Partition::new(n, shards);
            let mut seen = vec![false; n as usize];
            for s in 0..shards {
                for gid in p.range(s) {
                    assert!(!seen[gid as usize], "node {gid} owned twice");
                    seen[gid as usize] = true;
                    assert_eq!(p.owner(gid), s, "owner mismatch for {gid}");
                }
            }
            assert!(seen.iter().all(|&s| s), "n={n} shards={shards}: not all owned");
        }
    }

    #[test]
    fn partition_owner_matches_range_for_uneven_split() {
        let p = Partition::new(10, 4); // chunk = 3: ranges 0..3,3..6,6..9,9..10
        assert_eq!(p.range(0), 0..3);
        assert_eq!(p.range(3), 9..10);
        assert_eq!(p.owner(9), 3);
    }

    #[test]
    fn partition_range_does_not_wrap_near_u32_max() {
        // chunk = 2^31: the trailing shard's `(shard + 1) · chunk` is 2^32,
        // one past u32::MAX, before the clamp to n.
        let p = Partition::new(u32::MAX, 2);
        assert_eq!(p.range(0), 0..1 << 31);
        assert_eq!(p.range(1), 1 << 31..u32::MAX);
        assert_eq!(p.owner(u32::MAX - 1), 1);
    }

    /// Random condensed push palettes over 40 slots: ascending colors,
    /// an undecided tail on every even origin, counts up to 2^30.
    fn random_palettes(shards: usize, rng: &mut Pcg64) -> Vec<Option<PaletteBuffers>> {
        (0..shards)
            .map(|origin| {
                let (mut palette, mut runs) = (Vec::new(), Vec::new());
                for slot in 0..40 {
                    if rng.gen_bool(0.4) {
                        runs.push((palette.len() as u32, rng.gen_range(1..1 << 30)));
                        palette.push(Opinion::new(slot));
                    }
                }
                if origin % 2 == 0 {
                    runs.push((palette.len() as u32, rng.gen_range(1..1 << 30)));
                    palette.push(Opinion::UNDECIDED);
                }
                Some((palette, runs))
            })
            .collect()
    }

    #[test]
    fn merged_union_is_the_dense_union_sorted() {
        let mut rng = Pcg64::seed_from_u64(5);
        let mut pool = Vec::new();
        let (mut counts, mut touched) = (vec![0u64; 40], Vec::new());
        for shards in [1usize, 2, 3, 5] {
            for trial in 0..16 {
                let mut palettes = random_palettes(shards, &mut rng);
                if trial % 2 == 1 {
                    // A palette lost under an active fault plan.
                    palettes[trial % shards] = None;
                }
                let (mut values, mut weights) = (Vec::new(), Vec::new());
                merge_palettes(&palettes, &mut pool, &mut values, &mut weights);
                let merged: Vec<(Opinion, f64)> = values.into_iter().zip(weights).collect();

                let (mut values, mut weights) = (Vec::new(), Vec::new());
                dense_union(&palettes, &mut counts, &mut touched, &mut values, &mut weights);
                let mut dense: Vec<(Opinion, f64)> = values.into_iter().zip(weights).collect();
                dense.sort_by_key(|&(o, _)| o);

                assert_eq!(merged, dense, "shards {shards}, trial {trial}");
                assert!(merged.windows(2).all(|w| w[0].0 < w[1].0), "strictly ascending");
                assert!(touched.is_empty() && counts.iter().all(|&c| c == 0));
            }
        }
    }

    #[test]
    fn merged_union_sums_shared_colors_and_undecided_exactly() {
        let palette = |entries: &[(Opinion, u64)]| {
            let palette = entries.iter().map(|&(o, _)| o).collect();
            let runs = entries.iter().enumerate().map(|(j, &(_, c))| (j as u32, c)).collect();
            Some((palette, runs))
        };
        let (a, b, u) = (Opinion::new(3), Opinion::new(9), Opinion::UNDECIDED);
        let palettes = vec![
            palette(&[(a, 1), (b, 2), (u, 4)]),
            None,
            palette(&[(b, (1 << 31) - 1), (u, 8)]),
            palette(&[(a, 16)]),
        ];
        let (mut values, mut weights) = (Vec::new(), Vec::new());
        merge_palettes(&palettes, &mut Vec::new(), &mut values, &mut weights);
        assert_eq!(values, [a, b, u]);
        assert_eq!(weights, [17.0, (1u64 << 31) as f64 + 1.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "one node per shard")]
    fn too_many_shards_panics() {
        Partition::new(3, 4);
    }
}
