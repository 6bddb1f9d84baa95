//! Shard workers: each thread owns a contiguous range of nodes and speaks
//! the wire protocol of [`crate::message`].
//!
//! Traffic is aggregated, in two coordinator-arbitrated gears. In the
//! *pull* gear each peer gets one [`PullBatch`] (how many uniform draws
//! to take from the peer's nodes), answered by one
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
//! In the push gear every shard broadcasts its histogram sorted by
//! slot, undecided mass last, so the union is one merge of sorted runs
//! (`merge_palettes`) on every shard, whatever its representation.
//!
//! A shard's nodes live behind one crate-private trait,
//! `ShardState`, with two implementations picked once by
//! `run_shard` from the `ShardInit` variant (the worker is
//! monomorphized over it, `Worker<R, T, S>`). `Worker` keeps what
//! both share: the exchange of both gears, the fault plan's
//! interceptions, the push union and the report framing.
//!
//! * **Agents** (`agents.rs`) materialize one opinion per node and step
//!   every rule the literal Uniform Pull way, on one path per gear:
//!   pull palettes are dealt into the sample buffer in origin order
//!   through an inside-out Fisher–Yates (an iid sequence conditioned on
//!   its multiset is a uniform arrangement, so per-node samples are
//!   exactly Uniform Pull); push rounds draw every sample iid from the
//!   union alias table; then one `update` call per node. The round-start
//!   snapshot is tallied only for a histogram-walk batch (lazily, once
//!   per round) or a push broadcast: a raw batch reads the opinions
//!   directly. Under
//!   [`ReportMode::Delta`] every opinion write is logged, and the report
//!   nets the round's `(old, new)` moves into signed `(slot, Δcount)`
//!   entries in `O(#moves)`; a sparse report recounts in `O(local_n)`.
//! * **Condensed** (`condensed.rs`, under
//!   [`crate::cluster::ShardRepr::Histogram`] for a multiset or
//!   single-peer rule, see `cluster::shard_is_condensed`) holds only
//!   the local histogram as sorted `(slot, count)` pairs plus the
//!   undecided count; no per-agent state exists. Pull palettes —
//!   walked, raw or compensating — are served straight from the pairs,
//!   which do not change during the exchange. Received palettes and
//!   push unions are consumed as mass moved between histograms:
//!   grouped hypergeometric blocks in the pull gear (one
//!   [`symbreak_core::MultisetRule`] `condensed_window_step` call per
//!   occupied opinion group, or a single mega-block call for
//!   own-insensitive rules, with per-ball dealing where the blocks
//!   would outnumber the balls), and one `condensed_push_step` call per
//!   round in the push gear, so in both gears the per-round compute
//!   drops from `O(local_n · h)` to `O(#occupied · h)`. Every consume
//!   installs its output straight into the sorted pairs; a sparse
//!   report copies them, and a tracked report merges them against the
//!   previous report's pairs. Rejoin copies the snapshot counts and
//!   verifies them in `O(#occupied)`.
//!
//! There is one exchange per gear, and it is **fault-aware**: fault
//! decisions are stateless hashes of a [`FaultPlan`] shared with every
//! peer and the coordinator (see [`crate::fault`]), so senders
//! intercept their own transmissions (drop / duplicate /
//! delay-by-one-round), receivers compute exactly which messages will
//! arrive — round tags park messages from peers that ran ahead of the
//! relaxed barrier until their round starts — and lost or late pull
//! palettes are compensated by re-sampling the requested draws from the
//! shard's own round-start state (counted as `recovered`).
//! Crash-stopped shards simply receive no round commands; on
//! [`Control::Rejoin`] the worker rebuilds its state from the
//! coordinator snapshot and verifies the reconstruction (a dense
//! recount of the opinions, or an `O(#occupied)` body check of the
//! pairs). Byzantine shards corrupt their report bodies through the
//! adversary crate's strategies on a dedicated RNG stream. The inert
//! plan ([`FaultPlan::none`]) is the `F = 0` case of the same loops:
//! every peer is live, every message arrives exactly once, nothing is
//! compensated or corrupted, and the fleet runs in strict lockstep.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::SeedableRng;

use symbreak_adversary::{Adversary, RandomFlipper};
use symbreak_core::{Configuration, Opinion, SampleAccess, UpdateRule};
use symbreak_sim::dist::{sample_multinomial_into, sample_multinomial_sparse_into, Binomial};
use symbreak_sim::rng::{trial_seed, Pcg64};

use crate::cluster::{shard_is_condensed, ReportMode, ShardRepr};
use crate::fault::{CorruptionKind, FaultKind, FaultPlan, BYZANTINE_SALT};
use crate::message::{
    Control, DataFormat, OpinionPalette, PullBatch, ReportBody, ReportFormat, ShardMessage,
    ShardReport,
};
use crate::transport::{Transport, TransportLost};

mod agents;
mod condensed;

use agents::Agents;
use condensed::Condensed;

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

    /// Whether a received pull batch is one a live requester could
    /// have sent: its origin is a shard, and it asks for at most `h`
    /// draws per node of the origin (a requester splits its
    /// `local_n · h` pulls over the destinations). O(1); a corrupt
    /// count would otherwise size the palette allocation that serves it.
    fn admits(&self, batch: &PullBatch, h: usize) -> bool {
        let origin = batch.origin as usize;
        origin < self.shards && batch.count <= self.range(origin).len() as u64 * h as u64
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

/// Runs one shard to completion over any [`Transport`], on the
/// representation its seed state names: an agent vector for
/// [`ShardInit::Agents`], a condensed histogram for
/// [`ShardInit::Histogram`]. The choice is made once, here, and the
/// worker is monomorphized over it. A lost endpoint — a dead peer
/// process, a vanished coordinator — aborts the current round and exits
/// the worker cleanly (the loss cascades to the rest of the fleet
/// through their own transports; see [`crate::transport`]). A panic
/// inside a round or a rejoin exits the worker the same way: the panic
/// is caught here, and dropping the transport tells the peers and the
/// coordinator that this shard is gone.
pub(crate) fn run_shard<R: UpdateRule, T: Transport>(
    shard_id: usize,
    spec: ShardSpec,
    rule: R,
    init: ShardInit,
    transport: T,
) {
    let access = rule.sample_access();
    assert!(
        access != SampleAccess::Multiset || rule.as_multiset().is_some(),
        "Multiset access requires a MultisetRule impl"
    );
    let h = rule.sample_count();
    debug_assert!(access != SampleAccess::SinglePeer || h == 1);
    // The init variant must agree with the coordinator's predicate.
    assert_eq!(
        shard_is_condensed(spec.repr, access),
        matches!(init, ShardInit::Histogram(_)),
        "shard init variant must match the condensed predicate"
    );
    let tracking = spec.report_mode == ReportMode::Delta;
    match init {
        ShardInit::Agents(opinions) => {
            let state = Agents::new(opinions, h, spec.k_slots, tracking);
            Worker::new(shard_id, spec, rule, state, transport).run();
        }
        ShardInit::Histogram(body) => {
            let state = Condensed::new(body, access, h, spec.k_slots, tracking);
            Worker::new(shard_id, spec, rule, state, transport).run();
        }
    }
}

/// A pooled palette allocation: the distinct-opinion list plus its
/// `(palette_idx, count)` runs.
type PaletteBuffers = (Vec<Opinion>, Vec<(u32, u64)>);

/// One merged half of a push union: parallel opinions and weights.
type AliasBuffers = (Vec<Opinion>, Vec<f64>);

/// A round's received palettes, slotted by server shard so consumption
/// order is independent of arrival order, over a pool of recycled
/// buffers.
struct Palettes {
    recv: Vec<Option<PaletteBuffers>>,
    pool: Vec<PaletteBuffers>,
}

impl Palettes {
    /// An empty buffer pair, recycled when the pool has one.
    fn fresh(&mut self) -> PaletteBuffers {
        let (mut palette, mut runs) = self.pool.pop().unwrap_or_default();
        palette.clear();
        runs.clear();
        (palette, runs)
    }

    /// Takes `origin`'s palette out of its slot.
    fn take(&mut self, origin: usize) -> PaletteBuffers {
        self.recv[origin].take().expect("one palette per peer")
    }

    /// Returns this round's remaining received buffers to the pool.
    fn recycle(&mut self) {
        for slot in &mut self.recv {
            if let Some(buffers) = slot.take() {
                self.pool.push(buffers);
            }
        }
    }
}

/// A shard's representation of its nodes: the opinion state plus the
/// scratch its serving, consume, report and rejoin paths use.
/// [`Agents`] holds one opinion per node and runs the literal ordered
/// path; [`Condensed`] holds a sorted histogram and moves mass between
/// histograms. The [`Worker`] owns the exchange, the fault plan and
/// the report framing, and calls into its representation for
/// everything that reads or writes opinions.
trait ShardState {
    /// The number of nodes the shard owns.
    fn local_n(&self) -> usize;

    /// The distinct decided opinions the shard holds at round start.
    fn distinct(&self) -> usize;

    /// Appends to `out` the palette answering a pull batch of `m`
    /// draws, drawn on the origin's serving stream from the round-start
    /// state: a histogram walk when `walk` (see [`walk_palette`]),
    /// otherwise the drawn opinions verbatim in draw order.
    fn serve(&mut self, m: u64, walk: bool, rng: &mut Pcg64, out: &mut PaletteBuffers);

    /// Appends to `out` `m` draws from the round-start state, on the
    /// round stream: the stand-in for a palette that never arrived.
    fn compensate(&mut self, m: u64, rng: &mut Pcg64, out: &mut PaletteBuffers);

    /// Ends a pull round's serving, dropping any round-start snapshot.
    fn serving_done(&mut self);

    /// Appends the shard's round-start decided histogram to `out`,
    /// ascending by slot, and returns its undecided count.
    fn push_histogram(&mut self, out: &mut PaletteBuffers) -> u64;

    /// Steps every node from this pull round's received palettes.
    fn consume_pull<R: UpdateRule>(&mut self, rule: &R, rng: &mut Pcg64, palettes: &mut Palettes);

    /// Steps every node from this push round's union: parallel
    /// `values` / `weights`, ascending by opinion with undecided last.
    fn consume_push<R: UpdateRule>(
        &mut self,
        rule: &R,
        rng: &mut Pcg64,
        values: &[Opinion],
        weights: &[f64],
    );

    /// Builds the commanded report body (sparse bodies reuse a buffer
    /// from `pool`) and returns it with the undecided count and, under
    /// [`ReportMode::Delta`] tracking, the changed-slot count.
    fn report(
        &mut self,
        format: ReportFormat,
        pool: &mut Vec<Vec<(u32, u64)>>,
    ) -> (ReportBody, u64, Option<u64>);

    /// Rebuilds the state from the coordinator's snapshot of this
    /// shard and verifies the reconstruction.
    fn rejoin(&mut self, body: &[(u32, u64)], undecided: u64);
}

/// Unions push histograms into `values` / `weights`, strictly ascending
/// by opinion with the undecided mass last. Every push palette — a
/// condensed shard's pairs, an agent shard's tally sorted by slot —
/// carries its undecided tail last and is already ascending
/// ([`Opinion::UNDECIDED`] orders above every color), so the union is a
/// merge of sorted runs with no `k_slots`-wide scratch: two slots merge
/// straight from the wire buffers, more merge each half into `pool`
/// first (`⌈log₂ S⌉` merges per entry). Absent palettes (lost under an
/// active fault plan) are empty. Counts sum as integers, so each weight
/// is its opinion's exact total.
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

/// Appends to `out` a histogram palette of `m > 0` uniform reads of a
/// shard of `local_n` nodes whose decided counts are `theta` over
/// `slots`, plus `undecided` undecided nodes: a binomial undecided
/// split, then a sparse multinomial over the slots — `O(d)` binomial
/// draws and wire entries, with no per-draw work. The palette lists the
/// drawn slots in `slots` order, the undecided mass last; `counts` is
/// dense scratch, zero at `slots` before and after.
#[allow(clippy::too_many_arguments)]
fn walk_palette(
    m: u64,
    undecided: u64,
    local_n: usize,
    slots: &[u32],
    theta: &[f64],
    rng: &mut Pcg64,
    counts: &mut [u64],
    (palette, runs): &mut PaletteBuffers,
) {
    let served_undecided = if undecided > 0 {
        Binomial::new(m, undecided as f64 / local_n as f64).sample(rng)
    } else {
        0
    };
    if m > served_undecided {
        sample_multinomial_sparse_into(m - served_undecided, theta, slots, rng, counts);
    }
    for &i in slots {
        let c = std::mem::take(&mut counts[i as usize]);
        if c > 0 {
            runs.push((palette.len() as u32, c));
            palette.push(Opinion::new(i));
        }
    }
    if served_undecided > 0 {
        runs.push((palette.len() as u32, served_undecided));
        palette.push(Opinion::UNDECIDED);
    }
}

/// One shard's round driver: the exchange of both gears, the fault
/// plan's interceptions and the report framing, over a representation
/// `S` that owns the opinions and every buffer that reads them.
struct Worker<R, T, S> {
    shard_id: usize,
    partition: Partition,
    k_slots: usize,
    rule: R,
    state: S,
    transport: T,
    /// The round stream: destination splits, compensation draws and
    /// every consume.
    rng: Pcg64,

    // Data-plane state.
    dest_theta: Vec<f64>,
    dest_counts: Vec<u64>,
    /// One serving RNG stream per requesting shard: palettes for origin
    /// `o` always draw from `serve_rngs[o]`, so batches can be served
    /// the moment they arrive (pipelined) while keeping the realized
    /// trajectory independent of channel arrival order.
    serve_rngs: Vec<Pcg64>,
    palettes: Palettes,
    /// Union-histogram scratch for push rounds: parallel alias-table
    /// weights and the opinions they stand for.
    alias_weights: Vec<f64>,
    alias_values: Vec<Opinion>,
    /// Merged halves of [`merge_palettes`] (more than two shards).
    union_halves: Vec<AliasBuffers>,
    /// Pooled sparse report bodies, recycled by the transport after
    /// framing — the last per-round allocation in the worker loop.
    report_pool: Vec<Vec<(u32, u64)>>,

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

impl<R: UpdateRule, T: Transport, S: ShardState> Worker<R, T, S> {
    fn new(shard_id: usize, spec: ShardSpec, rule: R, state: S, transport: T) -> Self {
        let ShardSpec { partition, k_slots, master_seed, plan, .. } = spec;
        let shards = partition.shards;
        Self {
            shard_id,
            partition,
            k_slots,
            rule,
            state,
            transport,
            rng: Pcg64::seed_from_u64(trial_seed(master_seed, shard_id as u64 + 1)),
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
            palettes: Palettes { recv: (0..shards).map(|_| None).collect(), pool: Vec::new() },
            alias_weights: Vec::new(),
            alias_values: Vec::new(),
            union_halves: Vec::new(),
            report_pool: Vec::new(),
            round_no: 0,
            pending: Vec::new(),
            delayed_report: None,
            carry_messages: 0,
            recovered: 0,
            byz_rng: plan.byzantine_spec(shard_id).map(|_| {
                Pcg64::seed_from_u64(trial_seed(plan.seed ^ BYZANTINE_SALT, shard_id as u64 + 1))
            }),
            plan,
        }
    }

    /// Serves control commands until `Stop` or a lost endpoint.
    fn run(mut self) {
        loop {
            let alive = match self.transport.recv_control() {
                Ok(Control::Round { round, report, data }) => {
                    catch_unwind(AssertUnwindSafe(|| self.round(round, report, data).is_ok()))
                        .unwrap_or(false)
                }
                Ok(Control::Rejoin { round, body, undecided }) => {
                    catch_unwind(AssertUnwindSafe(|| self.rejoin(round, &body, undecided))).is_ok()
                }
                Ok(Control::Stop) | Err(_) => false,
            };
            if !alive {
                break;
            }
        }
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
                self.state.consume_pull(&self.rule, &mut self.rng, &mut self.palettes);
            }
            DataFormat::Push => {
                self.push_exchange(&mut messages_sent)?;
                let (values, weights) = (&self.alias_values, &self.alias_weights);
                self.state.consume_push(&self.rule, &mut self.rng, values, weights);
            }
        }

        // Sample the wire counters after the exchange and before the
        // report itself is framed: a report's own bytes land in the
        // next round's report (the coordinator's per-shard maximum
        // closes the one-round tail at shutdown).
        let wire_sent = self.transport.bytes_sent();
        let wire_received = self.transport.bytes_received();
        let (mut body, undecided, changed_slots) = self.state.report(format, &mut self.report_pool);
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
    /// after a crash-stop window (see [`ShardState::rejoin`]); every
    /// in-flight message and counter was lost with the crash.
    fn rejoin(&mut self, round: u64, body: &[(u32, u64)], undecided: u64) {
        self.round_no = round;
        self.pending.clear();
        self.delayed_report = None;
        self.carry_messages = 0;
        self.recovered = 0;
        self.state.rejoin(body, undecided);
    }

    /// The pull gear's exchange phase: one [`PullBatch`] and one
    /// [`OpinionPalette`] per live peer per round. Ends with this round's
    /// palettes parked in `palettes`, consumption left to the caller.
    ///
    /// Pull batches are never faulted (they are the round's control
    /// skeleton) and are served the moment they arrive, once
    /// [`Partition::admits`] accepts them (a batch no live requester
    /// could have sent ends the round as a lost transport) — each origin has
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
        let local_n = self.state.local_n();
        let shards = self.partition.shards;
        let round = self.round_no;
        let total = (local_n * self.rule.sample_count()) as u64;

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
            let count = self.dest_counts[peer];
            // A non-empty batch is one wire entry.
            *messages_sent += u64::from(count > 0);
            let batch = PullBatch { origin: self.shard_id as u32, round, count };
            self.transport.send(peer, ShardMessage::Pull(batch));
        }

        let mut pulls = 0usize;
        let mut palettes = 0usize;
        while pulls < expected_pulls || palettes < expected_palettes {
            match self.recv_current()? {
                ShardMessage::Pull(batch) => {
                    pulls += 1;
                    if !self.partition.admits(&batch, self.rule.sample_count()) {
                        return Err(TransportLost);
                    }
                    let palette = self.build_palette(&batch);
                    self.send_palette(batch.origin as usize, palette, messages_sent);
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
            if self.palettes.recv[origin].is_some() {
                continue;
            }
            let m = self.dest_counts[origin];
            debug_assert!(m == 0 || local_n > 0, "draws need a non-empty shard");
            let mut buffers = self.palettes.fresh();
            self.state.compensate(m, &mut self.rng, &mut buffers);
            self.recovered += m;
            self.palettes.recv[origin] = Some(buffers);
        }
        self.state.serving_done();
        Ok(())
    }

    /// The push data plane's exchange phase for the concentrated
    /// regime: no pulls at all. Every shard broadcasts its round-start
    /// opinion histogram sorted by slot ([`ShardState::push_histogram`]:
    /// a condensed shard's pairs as they stand, an agent shard's tally
    /// after an `O(d log d)` sort) with the undecided mass last, and each
    /// requester unions the received histograms — which is exactly the
    /// global round-start opinion distribution (a uniform node is a
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
        let mut buffers = self.palettes.fresh();
        let undecided = self.state.push_histogram(&mut buffers);
        let (body, bruns) = &mut buffers;
        if undecided > 0 {
            bruns.push((body.len() as u32, undecided));
            body.push(Opinion::UNDECIDED);
        }
        self.broadcast_palette(buffers, messages_sent);
        self.collect_palettes()?;
        self.union_palettes();
        Ok(())
    }

    /// Unions the received push histograms into `alias_values` /
    /// `alias_weights`, over the ~occ distinct global colors rather than
    /// the `shards · occ` raw entries, by one sorted merge
    /// ([`merge_palettes`]): every shard broadcasts sorted by slot, so
    /// this is the only union, for agent and condensed shards and every
    /// rule alike. Contributions lost to an active
    /// fault plan are simply absent: the alias table normalizes over
    /// the surviving mass, reweighting the round's samples toward the
    /// shards that were heard (under an inert plan every slot is
    /// filled, so this is the fault-free union verbatim).
    fn union_palettes(&mut self) {
        merge_palettes(
            &self.palettes.recv,
            &mut self.union_halves,
            &mut self.alias_values,
            &mut self.alias_weights,
        );
        self.palettes.recycle();
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
        if !late && self.palettes.recv[origin].is_none() {
            self.palettes.recv[origin] = Some((p.palette, p.runs));
        } else {
            self.palettes.pool.push((p.palette, p.runs));
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
    fn broadcast_palette(&mut self, buffers: PaletteBuffers, messages_sent: &mut u64) {
        let round = self.round_no;
        let origin = self.shard_id as u32;
        let last = (0..self.partition.shards)
            .rev()
            .find(|&peer| !self.plan.is_crashed(peer, round))
            .expect("the broadcasting shard is live");
        let mut buffers = Some(buffers);
        for peer in 0..=last {
            if self.plan.is_crashed(peer, round) {
                continue;
            }
            let (palette, runs) = if peer == last {
                buffers.take().expect("the last live peer takes the original")
            } else {
                let (body, bruns) = buffers.as_ref().expect("sent to the last live peer only");
                let (mut p, mut r) = self.palettes.fresh();
                p.extend_from_slice(body);
                r.extend_from_slice(bruns);
                (p, r)
            };
            self.send_palette(peer, OpinionPalette { origin, round, palette, runs }, messages_sent);
        }
    }

    /// Collects this push round's histograms into `palettes`: exactly
    /// [`Worker::expected_palettes`] copies arrive, and nothing else (a
    /// push round has no pulls at all).
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
        let d = self.state.distinct() as u64 + 1;
        let walk = batch.count >= WALK_FACTOR * d;
        let mut buffers = self.palettes.fresh();
        let rng = &mut self.serve_rngs[batch.origin as usize];
        self.state.serve(batch.count, walk, rng, &mut buffers);
        let (palette, runs) = buffers;
        OpinionPalette { origin: self.shard_id as u32, round: self.round_no, palette, runs }
    }
}

#[cfg(test)]
mod tests {
    use rand::Rng;

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

    /// Push palettes as agent shards broadcast them: each origin tallies
    /// 50 random opinions (one in eight undecided) of a 40-slot
    /// palette, then emits the tally sorted by slot, the undecided tail
    /// last.
    fn agent_palettes(shards: usize, rng: &mut Pcg64) -> Vec<Option<PaletteBuffers>> {
        let k_slots = 40;
        (0..shards)
            .map(|_| {
                let opinions: Vec<Opinion> = (0..50)
                    .map(|_| {
                        if rng.gen_range(0..8) == 0 {
                            Opinion::UNDECIDED
                        } else {
                            Opinion::new(rng.gen_range(0..k_slots))
                        }
                    })
                    .collect();
                let mut state = agents::Agents::new(opinions, 1, k_slots as usize, false);
                let mut buffers = (Vec::new(), Vec::new());
                let undecided = state.push_histogram(&mut buffers);
                if undecided > 0 {
                    buffers.1.push((buffers.0.len() as u32, undecided));
                    buffers.0.push(Opinion::UNDECIDED);
                }
                Some(buffers)
            })
            .collect()
    }

    #[test]
    fn merged_union_is_the_map_union() {
        let mut rng = Pcg64::seed_from_u64(5);
        let mut pool = Vec::new();
        for shards in [1usize, 2, 3, 5] {
            for trial in 0..32 {
                let mut palettes = if trial < 16 {
                    random_palettes(shards, &mut rng)
                } else {
                    agent_palettes(shards, &mut rng)
                };
                if trial % 2 == 1 {
                    // A palette lost under an active fault plan.
                    palettes[trial % shards] = None;
                }
                let (mut values, mut weights) = (Vec::new(), Vec::new());
                merge_palettes(&palettes, &mut pool, &mut values, &mut weights);
                let merged: Vec<(Opinion, f64)> = values.into_iter().zip(weights).collect();

                // Reference: integer sums per opinion in an ordered map,
                // converted to f64 once (bit-equal weights).
                let mut map = std::collections::BTreeMap::<Opinion, u64>::new();
                for (palette, runs) in palettes.iter().flatten() {
                    for &(pi, c) in runs {
                        *map.entry(palette[pi as usize]).or_default() += c;
                    }
                }
                let reference: Vec<(Opinion, f64)> =
                    map.into_iter().map(|(o, c)| (o, c as f64)).collect();

                assert_eq!(merged.len(), reference.len(), "shards {shards}, trial {trial}");
                for (m, r) in merged.iter().zip(&reference) {
                    assert_eq!(m.0, r.0, "shards {shards}, trial {trial}");
                    assert_eq!(m.1.to_bits(), r.1.to_bits(), "shards {shards}, trial {trial}");
                }
                assert!(merged.windows(2).all(|w| w[0].0 < w[1].0), "strictly ascending");
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
    fn partition_admits_only_pulls_a_live_requester_could_send() {
        let p = Partition::new(10, 4); // ranges of 3, 3, 3 and 1 nodes
        let batch = |origin, count| PullBatch { origin, round: 1, count };
        // At most `h` draws per node of the origin, an empty batch too.
        assert!(p.admits(&batch(0, 0), 2));
        assert!(p.admits(&batch(0, 6), 2));
        assert!(!p.admits(&batch(0, 7), 2));
        assert!(p.admits(&batch(3, 3), 3));
        assert!(!p.admits(&batch(3, 4), 3));
        // A corrupt count or origin never reaches the serving paths.
        assert!(!p.admits(&batch(1, u64::MAX), 3));
        assert!(!p.admits(&batch(4, 0), 1));
        assert!(!p.admits(&batch(u32::MAX, 1), 1));
    }

    #[test]
    #[should_panic(expected = "one node per shard")]
    fn too_many_shards_panics() {
        Partition::new(3, 4);
    }
}
