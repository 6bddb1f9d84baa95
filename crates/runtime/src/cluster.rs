//! The cluster coordinator: spawns shard threads, drives synchronous
//! rounds, aggregates per-round observables, and detects consensus.
//!
//! The data plane is fixed (see [`crate::message`] for the wire
//! protocol itself): each shard pair's pulls aggregate into one
//! [`crate::message::PullBatch`] answered by one
//! [`crate::message::OpinionPalette`], and — once occupancy
//! concentrates (`occ · shards² ≤ n·h`) — the coordinator flips the
//! fleet to histogram *push* ([`crate::message::DataFormat::Push`]):
//! every shard broadcasts its opinion histogram and samples its own
//! pulls from the union, `O(#shards² · #distinct)` entries per round
//! regardless of `n`. [`GearMode`] can pin either gear.
//!
//! **[`ReportMode`]** selects the control plane: sparse absolute
//! reports folded into **one** persistent merged [`Configuration`] via
//! [`Configuration::merge_sparse`] (`O(#occupied)` per round), or —
//! under [`ReportMode::Delta`] — signed per-round deltas merged via
//! [`Configuration::apply_deltas`] (`O(#changed)` per round) once the
//! coordinator observes the changed-slot set collapsing. The
//! coordinator arbitrates the sparse↔delta switch round-by-round
//! through [`crate::message::Control::Round`], keeping the format
//! uniform across shards within a round (absolute and delta reports
//! cannot be mixed against a single merged configuration).
//!
//! Per-round observables ([`Trace`]) read off the merged
//! configuration's `O(1)` cached observables.
//!
//! There is **one coordinator loop**, a quorum barrier over a
//! [`FaultPlan`]: it sizes each round's report collection exactly from
//! the plan's stateless fault hashes (see [`crate::fault`]), proceeds
//! once fresh *valid* attendance reaches the integer-exact `N − F`
//! quorum ([`symbreak_adversary::quorum_threshold`]), folds stale
//! straggler reports as re-syncs, and replays snapshots to rejoining
//! crashed shards ([`crate::message::Control::Rejoin`]). The inert plan
//! ([`FaultPlan::none`]) is the `F = 0` case: every shard reports once
//! per round, the quorum is the whole fleet, and the barrier is strict
//! lockstep. The plan changes one thing, the fold. Inert plans fold
//! each round's complete reports losslessly into the merged view, as
//! above. Active plans reject mass-violating (Byzantine) bodies by the
//! same `Σ counts + undecided = local_n` identity the lossless merge
//! paths assert, and detect consensus on the *honest* view — the
//! non-Byzantine shards' last accepted bodies, rebuilt
//! revival-tolerantly via [`Configuration::rebuild_sparse`] (stale
//! straggler bodies can re-light colors the merged view had retired).

use std::sync::mpsc;

use symbreak_adversary::quorum_threshold;
use symbreak_core::{Configuration, SampleAccess, UpdateRule};
use symbreak_sim::trace::{RoundStats, Trace};

use crate::fault::{FaultCounters, FaultKind, FaultPlan, StopReason};
use crate::message::{Control, DataFormat, ReportBody, ReportFormat, ShardReport};
use crate::shard::{run_shard, Partition, ShardSpec};
use crate::transport::{
    ChannelLink, ChannelTransport, CoordinatorLink, FleetSpec, SocketConfig, SocketFleet, WireRule,
};

/// Per-round report wire format exchanged between shards and the
/// coordinator.
///
/// The report format never touches the protocol's RNG streams, so both
/// modes realize the identical trajectory per seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportMode {
    /// `(slot, count)` pairs over each shard's locally occupied slots,
    /// folded into a persistent merged configuration. Per-round cost
    /// `O(local_n)` on the shard and `O(#occupied)` at the coordinator.
    #[default]
    Sparse,
    /// Adaptive signed-delta control plane: absolute sparse reports
    /// until the per-round changed-slot set is small relative to the
    /// occupancy, then `(slot, Δcount)` deltas — `O(#changed)` on the
    /// wire and at the coordinator, which is where the high-occupancy
    /// Theorem-5 regime lives (`Θ(n)` colors alive, `O(1)` switches per
    /// round). The coordinator commands the format per round and may
    /// switch back if churn returns.
    Delta,
}

/// Per-shard state representation.
///
/// Under [`ShardRepr::Histogram`] (the default) a shard keeps only its
/// local opinion histogram — `O(#occupied)` memory instead of
/// `O(local_n)` agents — and steps, serves, consumes, and reports off
/// counts alone. The condensed form engages per rule (see
/// `shard_is_condensed`): a rule whose [`SampleAccess`] is multiset or
/// single-peer; ordered-window rules (2-Choices) keep the agent vector
/// regardless, because an ordered window is a property of individual
/// draws that a histogram cannot replay. [`ShardRepr::Agents`] forces
/// the agent vector everywhere. An agent shard consumes every rule the
/// same way, whatever its access: ordered dealing (or iid union draws
/// in the push gear) and one `update` call per node.
///
/// Both representations realize the same process law (the condensed
/// step is an exact aggregation, not an approximation) but consume
/// randomness differently, so their trajectories are compared
/// distributionally, not pathwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardRepr {
    /// Configuration-backed local histogram where the rule's sample
    /// access permits; `O(#occupied · h)` per-round compute in the
    /// push gear.
    #[default]
    Histogram,
    /// Materialized per-agent opinion vector everywhere (the forced mode
    /// for ordered-window rules).
    Agents,
}

/// Whether a shard runs condensed: the representation asks for a
/// histogram and the rule's sample access can consume one. Both
/// backends apply it once, in `Cluster::boot`, and ship the verdict
/// to every shard.
pub(crate) fn shard_is_condensed(repr: ShardRepr, access: SampleAccess) -> bool {
    repr == ShardRepr::Histogram && access != SampleAccess::OrderedWindow
}

/// Data-plane gear selection.
///
/// [`GearMode::Auto`] is the byte-exact default: condensed fleets boot
/// in whatever gear the start configuration arbitrates to and
/// re-arbitrate every round; agent-backed fleets boot pull-first. The
/// force modes pin one gear for the whole run — the instrument the
/// gear benchmarks use to time each data plane across a sweep where
/// auto arbitration would switch mid-band.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GearMode {
    /// Per-round pull/push arbitration over the merged view.
    #[default]
    Auto,
    /// Every data round pushes whole histograms.
    ForcePush,
    /// Every data round answers pulls.
    ForcePull,
}

/// Cluster construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of shard threads (each owns a contiguous node range).
    pub shards: usize,
    /// Master seed; shard streams are derived deterministically from it.
    pub seed: u64,
    /// Report wire format (defaults to [`ReportMode::Sparse`]).
    pub report_mode: ReportMode,
    /// Per-shard state representation (defaults to
    /// [`ShardRepr::Histogram`], arbitrated per rule).
    pub shard_repr: ShardRepr,
    /// Data-plane gear selection (defaults to [`GearMode::Auto`],
    /// the byte-exact per-round arbitration).
    pub data_gear: GearMode,
    /// Deterministic fault schedule (defaults to the inert
    /// [`FaultPlan::none`], the `F = 0` case of the fault-aware paths).
    pub fault_plan: FaultPlan,
}

impl ClusterConfig {
    /// Shorthand for the default formats (sparse reports, condensed
    /// shards where the rule allows, auto gear, no faults).
    pub fn new(shards: usize, seed: u64) -> Self {
        Self {
            shards,
            seed,
            report_mode: ReportMode::default(),
            shard_repr: ShardRepr::default(),
            data_gear: GearMode::default(),
            fault_plan: FaultPlan::none(),
        }
    }

    /// Selects the report wire format.
    pub fn with_report_mode(mut self, report_mode: ReportMode) -> Self {
        self.report_mode = report_mode;
        self
    }

    /// Selects the per-shard state representation.
    pub fn with_shard_repr(mut self, shard_repr: ShardRepr) -> Self {
        self.shard_repr = shard_repr;
        self
    }

    /// Selects the data-plane gear (pin push or pull, or keep the
    /// default per-round arbitration).
    pub fn with_data_gear(mut self, data_gear: GearMode) -> Self {
        self.data_gear = data_gear;
        self
    }

    /// Installs a fault schedule. Active plans require sparse reports
    /// (checked by [`Cluster::new`]): delta chains cannot be applied
    /// relative to states the coordinator never saw.
    pub fn with_fault_plan(mut self, fault_plan: FaultPlan) -> Self {
        self.fault_plan = fault_plan;
        self
    }
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self::new(4, 0)
    }
}

/// Outcome of a cluster run that reached consensus.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// Round at which consensus was observed.
    pub consensus_round: u64,
    /// The final aggregated configuration.
    pub final_config: Configuration,
    /// Round-by-round observables.
    pub trace: Trace,
    /// Total point-to-point wire entries exchanged over the whole run:
    /// the target-run, palette, and palette-run entries —
    /// `O(#shard-pairs · #distinct opinions)` per round, bounded by the
    /// `n·h` draws they carry. Under an active fault plan, dropped and
    /// delayed entries count once (transmitted) and duplicated entries
    /// count twice.
    pub total_messages: u64,
    /// Fault and degradation observables (all zero for inert plans).
    pub faults: FaultCounters,
}

/// Outcome of a fixed-horizon cluster run (consensus not required).
#[derive(Debug, Clone)]
pub struct HorizonOutcome {
    /// Round at which consensus was observed, if within the horizon.
    pub consensus_round: Option<u64>,
    /// Rounds actually executed (the horizon, or less on early consensus).
    pub rounds_run: u64,
    /// The final aggregated configuration.
    pub final_config: Configuration,
    /// Round-by-round observables (e.g. the Theorem-5 support-cap
    /// series).
    pub trace: Trace,
    /// Total point-to-point wire entries, counted as in
    /// [`ClusterOutcome::total_messages`].
    pub total_messages: u64,
    /// Per-round control-plane size: the summed report-body entry
    /// counts across shards (`Σ |report|` — pairs for sparse, changed
    /// slots for delta; received duplicates and straggler
    /// retransmissions included). This is the series the
    /// delta control plane collapses in the stalled regime.
    pub report_entries: Vec<u64>,
    /// Why the run ended: consensus, horizon exhausted, a round whose
    /// fresh valid attendance fell below the `N − F` quorum (active
    /// fault plans), or a vanished transport endpoint
    /// ([`StopReason::TransportLost`], socket fleets).
    pub stop: StopReason,
    /// Fault and degradation observables. The byte counters
    /// ([`FaultCounters::bytes_sent`] / `bytes_received`) are nonzero
    /// even for inert plans; the fault counters proper are all zero.
    pub faults: FaultCounters,
    /// Total wire bytes sent fleet-wide over the whole run, at
    /// [`crate::codec`] frame sizes (identical to
    /// [`FaultCounters::bytes_sent`], surfaced as a column so the
    /// benches can report measured bytes/round next to the entry
    /// counts). Identical per seed across transport backends under the
    /// strict barrier (the channel backend counts the frames it
    /// *would* have written); under an active fault plan the relaxed
    /// barrier lets next-round messages race the counter sampling, so
    /// the tally may drift by a few bytes per run when an embedded
    /// cumulative crosses a varint length boundary — in either backend.
    pub wire_bytes: u64,
}

/// A distributed execution of one update rule over sharded node actors.
#[derive(Debug, Clone)]
pub struct Cluster<R> {
    rule: R,
    start: Configuration,
    /// `start.n()`, checked at construction to fit the `u32` node ids.
    n: u32,
    config: ClusterConfig,
}

impl<R: UpdateRule + Clone + Send> Cluster<R> {
    /// Prepares a cluster over the nodes described by `start`.
    ///
    /// # Panics
    /// Panics if there are fewer nodes than shards, zero shards, or
    /// more nodes than `u32` node ids can address.
    pub fn new(rule: R, start: &Configuration, config: ClusterConfig) -> Self {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(start.n() >= config.shards as u64, "need at least one node per shard");
        let n = u32::try_from(start.n())
            .unwrap_or_else(|_| panic!("{} nodes exceed the u32 node-id space", start.n()));
        if config.fault_plan.is_active() {
            config.fault_plan.validate(config.shards);
            assert!(config.report_mode == ReportMode::Sparse, "fault plans require sparse reports");
        }
        Self { rule, start: start.clone(), n, config }
    }

    /// Runs synchronous rounds until consensus, or `max_rounds`.
    ///
    /// Returns the full [`HorizonOutcome`] as the error when consensus
    /// was not reached — its [`HorizonOutcome::stop`] distinguishes an
    /// exhausted horizon from a fault-aborted run
    /// ([`StopReason::TooManyFaults`]). Consumes the cluster (the shard
    /// threads are joined either way).
    // The Err carries the whole diagnostic outcome; a run returns at
    // most once, so the variant size is not worth a Box at call sites.
    #[allow(clippy::result_large_err)]
    pub fn run_to_consensus(self, max_rounds: u64) -> Result<ClusterOutcome, HorizonOutcome> {
        let out = self.run_horizon(max_rounds);
        match out.consensus_round {
            Some(consensus_round) => Ok(ClusterOutcome {
                consensus_round,
                final_config: out.final_config,
                trace: out.trace,
                total_messages: out.total_messages,
                faults: out.faults,
            }),
            None => Err(out),
        }
    }

    /// Runs exactly `rounds` synchronous rounds, stopping early only at
    /// consensus, and reports the trajectory either way. This is the
    /// Theorem-5 entry point: the lower-bound experiments care about the
    /// support-cap series over an `Ω(n / log n)` horizon, not about
    /// reaching consensus.
    pub fn run_horizon(self, rounds: u64) -> HorizonOutcome {
        let boot = self.boot();
        let Self { rule, start, config, .. } = self;
        let shards = config.shards;
        let k_slots = start.num_slots();

        // Wire the topology: one inbox per shard, everyone holds senders
        // to everyone; a control channel per shard; one report channel.
        let mut inboxes = Vec::with_capacity(shards);
        let mut peer_senders = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::channel();
            peer_senders.push(tx);
            inboxes.push(rx);
        }
        let mut control_txs = Vec::with_capacity(shards);
        let mut control_rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = mpsc::channel();
            control_txs.push(tx);
            control_rxs.push(rx);
        }
        let (report_tx, report_rx) = mpsc::channel();

        crossbeam::thread::scope(|scope| {
            for (shard_id, (inbox, control)) in inboxes.into_iter().zip(control_rxs).enumerate() {
                let body = boot.bodies[shard_id].clone();
                let transport =
                    ChannelTransport::new(inbox, peer_senders.clone(), control, report_tx.clone());
                let rule = rule.clone();
                let spec = ShardSpec {
                    partition: boot.partition,
                    k_slots,
                    condensed: boot.condensed,
                    tracking: config.report_mode == ReportMode::Delta,
                    master_seed: config.seed,
                    plan: config.fault_plan.clone(),
                };
                scope.spawn(move |_| {
                    run_shard(shard_id, spec, rule, body, transport);
                });
            }
            // The coordinator's copies are no longer needed; dropping them
            // lets shards observe closed channels at shutdown.
            drop(peer_senders);
            drop(report_tx);

            let mut link = ChannelLink::new(control_txs, report_rx);
            let out = run_coordinator(rounds, &boot, &config, start, &mut link);
            // Shut the shards down (crash-stopped shards included: they
            // are blocked on their control channels).
            for s in 0..shards {
                let _ = link.send_control(s, Control::Stop);
            }
            drop(link);
            out
        })
        .expect("shard thread panicked")
    }
}

/// Socket-backed entry points: the same coordinator loop driven over a
/// fleet of shard *processes* (one per shard, spawned from the worker
/// binary) instead of in-process threads. Requires [`WireRule`] so the
/// rule instance can be serialized into each worker's init frame.
impl<R: WireRule> Cluster<R> {
    /// Runs exactly `rounds` rounds over a socket fleet — the process-
    /// per-shard counterpart of [`Cluster::run_horizon`]. Same seed,
    /// same trajectory, same wire bytes as the channel backend: the
    /// protocol logic and the RNG streams live in the shard code, which
    /// is generic over the transport.
    ///
    /// # Panics
    /// Panics if the fleet cannot be launched (bind failure, missing
    /// worker binary — see [`SocketConfig::worker`]). A peer vanishing
    /// *after* launch is not a panic: the run aborts with
    /// [`StopReason::TransportLost`].
    pub fn run_horizon_socket(self, rounds: u64, socket: &SocketConfig) -> HorizonOutcome {
        let boot = self.boot();
        let spec = FleetSpec {
            n: self.n,
            shards: self.config.shards,
            k_slots: self.start.num_slots(),
            tracking: self.config.report_mode == ReportMode::Delta,
            master_seed: self.config.seed,
            plan: self.config.fault_plan.clone(),
            rule: self.rule.spec(),
            condensed: boot.condensed,
            bodies: boot.bodies.clone(),
        };
        let mut fleet = SocketFleet::launch(&spec, socket).expect("socket fleet launch");
        let out = run_coordinator(rounds, &boot, &self.config, self.start, fleet.link_mut());
        fleet.shutdown();
        out
    }

    /// Runs a socket fleet until consensus, or `max_rounds` — the
    /// process-per-shard counterpart of [`Cluster::run_to_consensus`].
    // Same Err shape and rationale as `run_to_consensus`.
    #[allow(clippy::result_large_err)]
    pub fn run_to_consensus_socket(
        self,
        max_rounds: u64,
        socket: &SocketConfig,
    ) -> Result<ClusterOutcome, HorizonOutcome> {
        let out = self.run_horizon_socket(max_rounds, socket);
        match out.consensus_round {
            Some(consensus_round) => Ok(ClusterOutcome {
                consensus_round,
                final_config: out.final_config,
                trace: out.trace,
                total_messages: out.total_messages,
                faults: out.faults,
            }),
            None => Err(out),
        }
    }
}

impl<R: UpdateRule> Cluster<R> {
    /// What both backends derive from the cluster before round 1: the
    /// partition, the per-shard sparse seed bodies (no `O(n)` opinion
    /// expansion), the condensed predicate, and the boot gear.
    ///
    /// Condensed fleets boot in whatever gear the start configuration
    /// arbitrates to: a forced pull first round would pay per-node
    /// window splits — the one cost condensation exists to avoid —
    /// before the first report could flip the gear, and the coordinator
    /// holds the merged start state before round 1 anyway. Agent-backed
    /// fleets keep the pull-first boot: their round 1 is `O(local_n)` in
    /// either gear, and holding it fixed preserves the
    /// pre-condensation trajectories byte-for-byte (the
    /// `fault_properties` goldens pin them). A forced gear overrides
    /// both.
    fn boot(&self) -> Boot {
        let shards = self.config.shards;
        let partition = Partition::new(self.n, shards);
        let condensed = shard_is_condensed(self.config.shard_repr, self.rule.sample_access());
        let h = self.rule.sample_count() as u64;
        let auto = if condensed {
            arbitrate_gear(&self.start, shards, self.n, h)
        } else {
            DataFormat::Pull
        };
        Boot {
            partition,
            bodies: shard_bodies(&self.start, &partition),
            condensed,
            h,
            initial_data: resolve_gear(self.config.data_gear, auto),
        }
    }
}

/// The pre-round-1 state both backends share (see [`Cluster::boot`]).
struct Boot {
    partition: Partition,
    bodies: Vec<Vec<(u32, u64)>>,
    /// Whether the shards run condensed, shipped to every worker in
    /// its spec.
    condensed: bool,
    /// The rule's per-node sample count.
    h: u64,
    /// Round 1's data-plane gear.
    initial_data: DataFormat,
}

/// Splits the start configuration into per-shard sparse seed bodies by
/// prefix sum: color `i`'s nodes occupy one contiguous global interval
/// (exactly how [`Configuration::to_opinions`] lays agents out), so
/// each shard's body is the ascending intersection of those intervals
/// with its node range — `O(#occupied + #shards)` total, no `O(n)`
/// opinion expansion.
fn shard_bodies(start: &Configuration, partition: &Partition) -> Vec<Vec<(u32, u64)>> {
    let mut bodies: Vec<Vec<(u32, u64)>> = vec![Vec::new(); partition.shards];
    let mut pos = 0u64;
    for (&slot, count) in start.occupied().iter().zip(start.occupied_counts()) {
        let mut remaining = count;
        while remaining > 0 {
            let shard = partition.owner(pos as u32);
            let end = u64::from(partition.range(shard).end);
            let take = remaining.min(end - pos);
            bodies[shard].push((slot, take));
            pos += take;
            remaining -= take;
        }
    }
    debug_assert_eq!(pos, start.n(), "bodies must cover every node");
    bodies
}

/// Pull/push data-plane arbitration over a merged view: push whole
/// histograms once broadcasting every shard's histogram (and
/// alias-sampling their union) is clearly cheaper than answering pulls.
/// The union carries ~occ entries per server, so `S² · occ` must sit
/// under the `n·h` draws it replaces.
fn arbitrate_gear(merged: &Configuration, shards: usize, n: u32, h: u64) -> DataFormat {
    let occ = merged.num_colors() as u64 + 1;
    let pairs = (shards * shards) as u64;
    if occ * pairs <= u64::from(n) * h {
        DataFormat::Push
    } else {
        DataFormat::Pull
    }
}

/// Applies the configured [`GearMode`] over an auto-arbitrated choice.
fn resolve_gear(gear: GearMode, auto: DataFormat) -> DataFormat {
    match gear {
        GearMode::Auto => auto,
        GearMode::ForcePush => DataFormat::Push,
        GearMode::ForcePull => DataFormat::Pull,
    }
}

/// Validates a sparse report body against the shard's node budget: in-
/// range slots and the same mass identity (`Σ counts + undecided =
/// local_n`) the lossless merge paths assert, applied as a rejection
/// filter so Byzantine mass inflation cannot poison the merged view.
fn accept_body(rep: &ShardReport, k_slots: usize, local_n: u64) -> Option<&[(u32, u64)]> {
    let ReportBody::Sparse(pairs) = &rep.body else { return None };
    if pairs.iter().any(|&(slot, _)| slot as usize >= k_slots) {
        return None;
    }
    let mass: u128 =
        pairs.iter().map(|&(_, c)| u128::from(c)).sum::<u128>() + u128::from(rep.undecided);
    (mass == u128::from(local_n)).then_some(pairs.as_slice())
}

/// An active plan's view of the fleet: each shard's last accepted
/// report — seeded from the start configuration's per-shard bodies, so
/// a crash in round 1 still has a snapshot to rejoin from — and the
/// honest (non-Byzantine) view rebuilt from them.
struct LastAccepted {
    body: Vec<Vec<(u32, u64)>>,
    undecided: Vec<u64>,
    round: Vec<u64>,
    honest: Configuration,
}

impl LastAccepted {
    /// Validates `rep` ([`accept_body`]) and, if it passes, makes it
    /// its shard's last accepted state.
    fn accept(&mut self, rep: &ShardReport, k_slots: usize, partition: &Partition) -> bool {
        let s = rep.shard;
        let Some(pairs) = accept_body(rep, k_slots, partition.range(s).len() as u64) else {
            return false;
        };
        self.body[s] = pairs.to_vec();
        self.undecided[s] = rep.undecided;
        self.round[s] = rep.round;
        true
    }
}

/// The one coordinator loop: an `await(≥ N − F)` barrier over the
/// shards' reports, for every fault plan.
///
/// Each round it commands the live shards (replaying a snapshot to any
/// shard whose rejoin is due) and sizes the report collection *exactly*
/// from the plan's stateless hashes — fresh copies per fault kind plus
/// last round's delayed stragglers, so the blocking receive needs no
/// timeout. Fresh valid attendance must reach the integer-exact `N − F`
/// quorum or the run aborts with [`StopReason::TooManyFaults`]. An
/// inert plan is `F = 0`: every shard reports exactly once per round
/// and the quorum is all of them.
///
/// Whether the plan is active decides only how reports fold. Under an
/// inert plan every round's reports are complete and current, so they
/// fold losslessly into the persistent merged view, whose occupancy
/// only ever shrinks ([`Configuration::merge_sparse`], or
/// [`Configuration::apply_deltas`] once [`ReportMode::Delta`]
/// arbitration switches the format), and consensus is read off it. Under an active plan reports can be
/// missing, stale, or lies, so the merged (all shards) and honest
/// (non-Byzantine shards) views are rebuilt from each shard's last
/// accepted body every round, revival-tolerantly via
/// [`Configuration::rebuild_sparse`] (stale straggler bodies can
/// re-light colors the merged view had retired). Consensus is detected
/// on the honest view, which makes the coordinator a sound measurement
/// harness under up to `F` plausible liars — the lie lands in the
/// *trace*, never in the consensus verdict.
fn run_coordinator(
    rounds: u64,
    boot: &Boot,
    config: &ClusterConfig,
    mut merged: Configuration,
    link: &mut dyn CoordinatorLink,
) -> HorizonOutcome {
    let Boot { partition, h, initial_data, .. } = *boot;
    let ClusterConfig { report_mode, data_gear, fault_plan: ref plan, .. } = *config;
    let (n, shards) = (partition.n, partition.shards);
    let k_slots = merged.num_slots();
    let quorum = quorum_threshold(
        shards as u64,
        shards.saturating_sub(plan.max_faulty) as f64 / shards as f64,
    ) as usize;
    // `None` under an inert plan: the round's fresh reports (`fresh`)
    // fold losslessly instead.
    let mut last = plan.is_active().then(|| LastAccepted {
        body: boot.bodies.clone(),
        undecided: vec![0; shards],
        round: vec![0; shards],
        honest: merged.clone(),
    });
    let mut fresh: Vec<ShardReport> = Vec::with_capacity(shards);

    let mut trace = Trace::new();
    let mut consensus_round = None;
    let mut rounds_run = 0u64;
    let mut total_messages = 0u64;
    let mut report_entries = Vec::new();
    let mut faults = FaultCounters::default();
    let mut stop = StopReason::HorizonExhausted;
    let mut seen = vec![false; shards];
    // Per-shard high-water marks of the cumulative wire-byte counters
    // the reports carry. Each report samples its shard's transport
    // *before* its own framing, so the last report read is one round
    // stale on the report-frame bytes; the max over all reports
    // (duplicates and stragglers included) closes everything but that
    // tail.
    let mut shard_sent = vec![0u64; shards];
    let mut shard_received = vec![0u64; shards];
    // The per-round report format: always sparse in Sparse mode,
    // arbitrated on the reported changed-slot counts in Delta mode
    // (start absolute; switch once the changed set is small, switch
    // back if churn returns).
    let mut format = ReportFormat::Sparse;
    // The data-plane gear: round 1's is the caller's (start-arbitrated
    // for condensed fleets, pull-first for agent-backed ones); after
    // that, push once the occupancy concentrates enough that
    // broadcasting whole histograms is cheaper than answering pulls
    // (`occ · shards² ≤ n·h`) — and back, should occupancy ever rise.
    let mut data = initial_data;
    'rounds: for round in 1..=rounds {
        // Command the round. A shard whose rejoin is due gets the
        // snapshot replay first, then the round command; crashed shards
        // get nothing at all.
        for s in 0..shards {
            if plan.is_crashed(s, round) {
                faults.crash_rounds += 1;
                continue;
            }
            if plan.crashes.iter().any(|c| c.shard == s && c.rejoin_round == Some(round)) {
                faults.rejoins += 1;
                let last = last.as_ref().expect("crash plans are active");
                let rejoin = Control::Rejoin {
                    round,
                    body: last.body[s].clone(),
                    undecided: last.undecided[s],
                };
                if link.send_control(s, rejoin).is_err() {
                    stop = StopReason::TransportLost;
                    break 'rounds;
                }
            }
            if link.send_control(s, Control::Round { round, report: format, data }).is_err() {
                stop = StopReason::TransportLost;
                break 'rounds;
            }
        }

        // Tally the round's planned palette faults (the shards decide
        // identically from the same stateless hashes; counting here
        // keeps the counters off the wire).
        for from in 0..shards {
            if plan.is_crashed(from, round) {
                continue;
            }
            for to in 0..shards {
                if to == from || plan.is_crashed(to, round) {
                    continue;
                }
                match plan.palette_fault(round, from, to) {
                    Some(FaultKind::Drop) => faults.palettes_dropped += 1,
                    Some(FaultKind::Duplicate) => faults.palettes_duplicated += 1,
                    Some(FaultKind::Delay) => faults.palettes_delayed += 1,
                    None => {}
                }
            }
        }

        // Size the barrier: exactly how many report messages arrive
        // this round — fresh copies by fault kind, plus last round's
        // delayed reports flushed by their shards' round-command (a
        // shard that crashed since voids its stash).
        let mut expected = 0usize;
        for s in 0..shards {
            if plan.is_crashed(s, round) {
                continue;
            }
            expected += match plan.report_fault(round, s) {
                None => 1,
                Some(FaultKind::Duplicate) => {
                    faults.reports_duplicated += 1;
                    2
                }
                Some(FaultKind::Drop) => {
                    faults.reports_dropped += 1;
                    0
                }
                Some(FaultKind::Delay) => {
                    faults.reports_delayed += 1;
                    0
                }
            };
            if round > 1
                && !plan.is_crashed(s, round - 1)
                && plan.report_fault(round - 1, s) == Some(FaultKind::Delay)
            {
                expected += 1;
            }
        }

        seen.iter_mut().for_each(|b| *b = false);
        fresh.clear();
        let mut attendance = 0usize;
        let mut entries = 0u64;
        for _ in 0..expected {
            let Ok(rep) = link.recv_report() else {
                stop = StopReason::TransportLost;
                break 'rounds;
            };
            // A report the barrier cannot have asked for — from a
            // future round, or stale under a plan that delays nothing —
            // means a broken worker: abort like a lost link.
            let straggler = rep.round < round;
            if rep.round > round || (straggler && last.is_none()) {
                stop = StopReason::TransportLost;
                break 'rounds;
            }
            let s = rep.shard;
            entries += rep.body.entries();
            shard_sent[s] = shard_sent[s].max(rep.bytes_sent);
            shard_received[s] = shard_received[s].max(rep.bytes_received);
            if plan.byzantine_spec(s).is_some() {
                faults.byzantine_reports += 1;
            }
            if straggler {
                // A straggler's delayed report: fold it as a re-sync if
                // it is newer than the shard's last accepted state (its
                // fresh successor may already have landed).
                let last = last.as_mut().expect("stragglers imply an active plan");
                faults.straggler_resyncs += 1;
                total_messages += rep.messages_sent;
                faults.recovered_samples += rep.recovered;
                if rep.round > last.round[s] && !last.accept(&rep, k_slots, &partition) {
                    faults.rejected_reports += 1;
                }
                continue;
            }
            if seen[s] {
                // The duplicate copy: its body entries were counted
                // (that wire cost is real), but its `messages_sent` is
                // the same data-plane tally the first copy already
                // folded — adding it again would fabricate traffic.
                continue;
            }
            seen[s] = true;
            total_messages += rep.messages_sent;
            faults.recovered_samples += rep.recovered;
            let valid = match last.as_mut() {
                Some(last) => last.accept(&rep, k_slots, &partition),
                None => {
                    fresh.push(rep);
                    true
                }
            };
            if valid {
                attendance += 1;
            } else {
                faults.rejected_reports += 1;
            }
        }
        rounds_run = round;
        report_entries.push(entries);

        // The fold, and the view consensus is read off.
        let agreed = match last.as_mut() {
            None => {
                match format {
                    ReportFormat::Sparse => {
                        merged.merge_sparse(fresh.iter().map(|r| match &r.body {
                            ReportBody::Sparse(pairs) => pairs.as_slice(),
                            _ => unreachable!("sparse round, non-sparse report"),
                        }));
                    }
                    ReportFormat::Delta => {
                        merged.apply_deltas(fresh.iter().map(|r| match &r.body {
                            ReportBody::Delta(pairs) => pairs.as_slice(),
                            _ => unreachable!("delta round, non-delta report"),
                        }));
                    }
                }
                if report_mode == ReportMode::Delta {
                    let changed: u64 = fresh.iter().map(|r| r.changed_slots.unwrap_or(0)).sum();
                    format = if changed * 2 <= merged.num_colors() as u64 {
                        ReportFormat::Delta
                    } else {
                        ReportFormat::Sparse
                    };
                }
                fresh.iter().all(|r| r.undecided == 0) && merged.is_consensus()
            }
            Some(last) => {
                let honest = |s: &usize| plan.byzantine_spec(*s).is_none();
                merged.rebuild_sparse(last.body.iter().map(Vec::as_slice));
                last.honest
                    .rebuild_sparse((0..shards).filter(honest).map(|s| last.body[s].as_slice()));
                (0..shards).filter(honest).all(|s| last.undecided[s] == 0)
                    && last.honest.is_consensus()
            }
        };
        trace.push(RoundStats {
            round,
            num_colors: merged.num_colors(),
            max_support: merged.max_support(),
            bias: merged.bias(),
        });
        if attendance < quorum {
            // The round degraded past the plan's tolerance: record the
            // round and abort rather than fold a minority view.
            stop = StopReason::TooManyFaults;
            break;
        }
        if attendance < shards {
            faults.quorum_rounds += 1;
        }
        data = resolve_gear(data_gear, arbitrate_gear(&merged, shards, n, h));
        if agreed {
            consensus_round = Some(round);
            stop = StopReason::Consensus;
            break;
        }
    }
    faults.bytes_sent = shard_sent.iter().sum::<u64>() + link.bytes_sent();
    faults.bytes_received = shard_received.iter().sum::<u64>() + link.bytes_received();
    HorizonOutcome {
        consensus_round,
        rounds_run,
        final_config: merged,
        trace,
        total_messages,
        report_entries,
        stop,
        wire_bytes: faults.bytes_sent,
        faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::TransportLost;
    use symbreak_core::rules::{ThreeMajority, TwoChoices, UndecidedDynamics, Voter};

    #[test]
    fn cluster_reaches_consensus_three_majority() {
        let start = Configuration::uniform(200, 8);
        let cluster = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 1));
        let out = cluster.run_to_consensus(100_000).expect("consensus");
        assert!(out.consensus_round > 0);
        assert_eq!(out.final_config.n(), 200);
        assert!(out.final_config.is_consensus());
        assert_eq!(out.trace.len() as u64, out.consensus_round);
    }

    #[test]
    fn cluster_works_single_shard() {
        let start = Configuration::uniform(64, 4);
        let cluster = Cluster::new(Voter, &start, ClusterConfig::new(1, 2));
        assert!(cluster.run_to_consensus(1_000_000).is_ok());
    }

    #[test]
    fn cluster_works_with_many_shards_and_uneven_ranges() {
        let start = Configuration::uniform(50, 5);
        let cluster = Cluster::new(ThreeMajority, &start, ClusterConfig::new(7, 3));
        let out = cluster.run_to_consensus(100_000).expect("consensus");
        assert_eq!(out.final_config.n(), 50);
    }

    #[test]
    fn cluster_respects_round_cap() {
        let start = Configuration::singletons(512);
        let cluster = Cluster::new(TwoChoices, &start, ClusterConfig::new(4, 4));
        let err = cluster.run_to_consensus(2).expect_err("2 rounds cannot suffice");
        assert_eq!(err.stop, StopReason::HorizonExhausted);
    }

    #[test]
    fn cluster_is_deterministic_per_seed() {
        let start = Configuration::uniform(120, 6);
        let run = |seed| {
            let cluster = Cluster::new(ThreeMajority, &start, ClusterConfig::new(3, seed));
            cluster.run_to_consensus(100_000).expect("consensus").consensus_round
        };
        assert_eq!(run(42), run(42), "runs must be deterministic per seed");
    }

    #[test]
    fn cluster_handles_undecided_dynamics() {
        let start = Configuration::from_counts(vec![80, 20]);
        let cluster = Cluster::new(UndecidedDynamics, &start, ClusterConfig::new(4, 5));
        let out = cluster.run_to_consensus(1_000_000).expect("consensus");
        assert!(out.final_config.is_consensus());
    }

    #[test]
    fn cluster_handles_undecided_dynamics_with_delta_reports() {
        let start = Configuration::from_counts(vec![80, 20]);
        let cfg = ClusterConfig::new(4, 5).with_report_mode(ReportMode::Delta);
        let cluster = Cluster::new(UndecidedDynamics, &start, cfg);
        let out = cluster.run_to_consensus(1_000_000).expect("consensus");
        assert!(out.final_config.is_consensus());
    }

    #[test]
    fn population_is_conserved_every_round() {
        let start = Configuration::uniform(90, 3);
        let cluster = Cluster::new(Voter, &start, ClusterConfig::new(3, 6));
        let out = cluster.run_to_consensus(1_000_000).expect("consensus");
        // Trace max_support never exceeds n; final mass intact.
        assert!(out.trace.rounds().iter().all(|r| r.max_support <= 90));
        assert_eq!(out.final_config.n(), 90);
    }

    #[test]
    fn wire_entries_collapse_below_the_per_draw_cost() {
        // The aggregate data plane is bounded by the per-draw cost model
        // (a palette never carries more entries than the pulls it
        // answers) and collapses far below it once the per-pair draw
        // count dwarfs the distinct-opinion count, where the serving
        // side switches from raw palettes to run-length histograms.
        let n = 4096u64;
        let start = Configuration::uniform(n, 8);
        let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 9)).run_horizon(40);
        let per_round = out.total_messages / out.rounds_run;
        assert!(
            per_round < 2 * n * 3 / 4,
            "the wire should collapse the per-round entry count \
             ({per_round}/round vs {} request-plus-reply entries)",
            2 * n * 3
        );
    }

    #[test]
    fn report_modes_run_the_same_trajectory() {
        // The report wire format never touches the protocol RNG streams,
        // so same seed ⇒ identical realized process.
        for (counts, shards, seed) in [
            (Configuration::uniform(200, 8).counts().to_vec(), 3usize, 11u64),
            (vec![1; 64], 4, 12), // k = n singleton start
        ] {
            let start = Configuration::from_counts(counts);
            let run = |mode| {
                Cluster::new(
                    ThreeMajority,
                    &start,
                    ClusterConfig::new(shards, seed).with_report_mode(mode),
                )
                .run_to_consensus(1_000_000)
                .expect("consensus")
            };
            let sparse = run(ReportMode::Sparse);
            let delta = run(ReportMode::Delta);
            assert_eq!(sparse.consensus_round, delta.consensus_round);
            assert_eq!(sparse.trace, delta.trace);
            assert_eq!(sparse.final_config, delta.final_config);
            assert_eq!(sparse.total_messages, delta.total_messages);
        }
    }

    #[test]
    fn delta_and_sparse_agree_under_undecided_dynamics() {
        // Mass-changing reports (shards holding back undecided nodes)
        // exercise merge_sparse's and apply_deltas' population
        // re-derivation.
        let start = Configuration::from_counts(vec![60, 40]);
        let run = |mode| {
            Cluster::new(
                UndecidedDynamics,
                &start,
                ClusterConfig::new(4, 13).with_report_mode(mode),
            )
            .run_to_consensus(1_000_000)
            .expect("consensus")
        };
        let sparse = run(ReportMode::Sparse);
        let delta = run(ReportMode::Delta);
        assert_eq!(sparse.consensus_round, delta.consensus_round);
        assert_eq!(sparse.trace, delta.trace);
        assert_eq!(sparse.final_config, delta.final_config);
    }

    #[test]
    fn netted_agent_deltas_fold_to_the_sparse_trajectory_on_every_consume_path() {
        // Agent shards under delta tracking net their logged opinion
        // writes instead of recounting. Their one consume path per gear
        // (ordered dealing or union draws, then `update`) writes
        // opinions for every rule, with and without undecided mass, so
        // each rule and gear must fold to the trajectory the sparse
        // recount produces.
        // Debug builds also check every tracked sparse round's netted
        // counts against its recount. Only the stalled 2-Choices run
        // changes few enough slots for the coordinator to command delta
        // bodies; the others exercise the netting under sparse bodies.
        fn check<R: UpdateRule + Clone + Send + 'static>(
            rule: R,
            start: &Configuration,
            gear: GearMode,
            expect_delta: bool,
        ) {
            let run = |mode| {
                let cfg = ClusterConfig::new(3, 21)
                    .with_shard_repr(ShardRepr::Agents)
                    .with_data_gear(gear)
                    .with_report_mode(mode);
                Cluster::new(rule.clone(), start, cfg).run_horizon(60)
            };
            let sparse = run(ReportMode::Sparse);
            let delta = run(ReportMode::Delta);
            assert_eq!(sparse.trace, delta.trace, "{gear:?}");
            assert_eq!(sparse.final_config, delta.final_config, "{gear:?}");
            assert_eq!(sparse.total_messages, delta.total_messages, "{gear:?}");
            let entries = |out: &HorizonOutcome| out.report_entries.iter().sum::<u64>();
            assert_eq!(entries(&delta) < entries(&sparse), expect_delta, "{gear:?}");
        }
        let stalled = {
            let mut counts = vec![8u64; 3];
            counts.extend(std::iter::repeat_n(1, 300));
            Configuration::from_counts(counts)
        };
        let few = Configuration::from_counts(vec![120, 90, 90]);
        for gear in [GearMode::Auto, GearMode::ForcePush, GearMode::ForcePull] {
            check(TwoChoices, &stalled, gear, true);
            check(ThreeMajority, &few, gear, false);
            check(Voter, &few, gear, false);
            check(UndecidedDynamics, &few, gear, false);
        }
    }

    #[test]
    fn delta_reports_collapse_to_changed_set_in_stalled_regime() {
        // 2-Choices from the k = n singleton start is the Theorem-5
        // stalled regime: Θ(n) colors stay alive (absolute sparse
        // reports stay O(local_n)) while only O(1) nodes switch opinion
        // per round (P[both samples agree] ≈ Σ xⱼ² ≈ 1/n per node). The
        // delta control plane must collapse per-round report entries to
        // O(#changed) there, on the *identical* realized trajectory.
        let n = 4096u64;
        let start = Configuration::singletons(n);
        let run = |mode| {
            let cfg = ClusterConfig::new(8, 2024).with_report_mode(mode);
            Cluster::new(TwoChoices, &start, cfg).run_horizon(40)
        };
        let sparse = run(ReportMode::Sparse);
        let delta = run(ReportMode::Delta);
        assert_eq!(sparse.trace, delta.trace, "report format must not change the process");
        assert_eq!(sparse.final_config, delta.final_config);

        // Skip the first rounds (the arbitrator starts absolute); after
        // that, delta rounds carry O(#changed) entries while sparse
        // rounds stay O(#occupied) ≈ n.
        let tail_mean = |v: &[u64]| {
            let tail = &v[5..];
            tail.iter().sum::<u64>() as f64 / tail.len() as f64
        };
        let sparse_mean = tail_mean(&sparse.report_entries);
        let delta_mean = tail_mean(&delta.report_entries);
        assert!(
            sparse_mean > n as f64 / 2.0,
            "sparse reports should stay O(#occupied) ≈ n (got {sparse_mean}/round)"
        );
        assert!(
            delta_mean * 10.0 < sparse_mean,
            "delta reports should collapse to O(#changed): \
             {delta_mean}/round vs sparse {sparse_mean}/round"
        );
    }

    #[test]
    fn native_consumption_is_deterministic_and_reaches_consensus() {
        // The access-dispatched consume paths for a multiset rule
        // (3-Majority), a single-peer rule (Voter), and the
        // own-state-reading 2-Median.
        use symbreak_core::rules::TwoMedian;
        let start = Configuration::uniform(120, 6);
        let run = |seed| {
            let cluster = Cluster::new(ThreeMajority, &start, ClusterConfig::new(3, seed));
            cluster.run_to_consensus(100_000).expect("consensus").consensus_round
        };
        assert_eq!(run(42), run(42), "consumption must be deterministic per seed");
        let out = Cluster::new(Voter, &Configuration::uniform(64, 4), ClusterConfig::new(4, 7))
            .run_to_consensus(1_000_000)
            .expect("consensus");
        assert!(out.final_config.is_consensus(), "Voter");
        let out = Cluster::new(TwoMedian, &Configuration::uniform(64, 5), ClusterConfig::new(4, 8))
            .run_to_consensus(1_000_000)
            .expect("consensus");
        assert!(out.final_config.is_consensus(), "2-Median");
    }

    #[test]
    fn run_horizon_reports_capped_trajectories() {
        let start = Configuration::singletons(128);
        let cluster = Cluster::new(Voter, &start, ClusterConfig::new(4, 9));
        let out = cluster.run_horizon(5);
        assert_eq!(out.rounds_run, 5);
        assert_eq!(out.consensus_round, None, "128 singletons cannot converge in 5 rounds");
        assert_eq!(out.trace.len(), 5);
        assert_eq!(out.final_config.n(), 128);
        // At most one entry per draw plus one pull batch per shard pair.
        assert!(out.total_messages > 0 && out.total_messages <= 5 * (128 + 4 * 4));
        assert_eq!(out.report_entries.len(), 5);
        // Occupancy only shrinks along the trajectory.
        let colors: Vec<usize> = out.trace.rounds().iter().map(|r| r.num_colors).collect();
        assert!(colors.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn run_horizon_stops_early_at_consensus() {
        let start = Configuration::uniform(60, 3);
        let out =
            Cluster::new(ThreeMajority, &start, ClusterConfig::new(3, 10)).run_horizon(100_000);
        let round = out.consensus_round.expect("consensus well before the cap");
        assert_eq!(out.rounds_run, round);
        assert_eq!(out.trace.len() as u64, round);
        assert!(out.final_config.is_consensus());
    }

    #[test]
    fn tiny_clusters_terminate() {
        // n = 2 on 2 shards hits rounds where a peer's pull batch is
        // empty (zero draws land on it) — survived via the always-sent
        // (possibly empty) batches that close both phases by count.
        for seed in 0..40 {
            let start = Configuration::uniform(2, 2);
            let cluster = Cluster::new(Voter, &start, ClusterConfig::new(2, seed));
            let out = cluster.run_to_consensus(100_000).expect("consensus");
            assert!(out.final_config.is_consensus());
        }
    }

    #[test]
    fn report_from_a_future_round_aborts_as_transport_lost() {
        // A link whose every report claims round 99: the coordinator
        // must end the run with a typed stop, not panic.
        struct FutureLink;
        impl CoordinatorLink for FutureLink {
            fn send_control(&mut self, _: usize, _: Control) -> Result<(), TransportLost> {
                Ok(())
            }
            fn recv_report(&mut self) -> Result<ShardReport, TransportLost> {
                Ok(ShardReport {
                    shard: 0,
                    round: 99,
                    body: ReportBody::Sparse(vec![(0, 32)]),
                    undecided: 0,
                    messages_sent: 0,
                    recovered: 0,
                    changed_slots: None,
                    bytes_sent: 0,
                    bytes_received: 0,
                })
            }
            fn bytes_sent(&self) -> u64 {
                0
            }
            fn bytes_received(&self) -> u64 {
                0
            }
        }
        let start = Configuration::uniform(64, 2);
        let cluster = Cluster::new(Voter, &start, ClusterConfig::new(2, 0));
        let out = run_coordinator(5, &cluster.boot(), &cluster.config, start, &mut FutureLink);
        assert_eq!(out.stop, StopReason::TransportLost);
        assert_eq!(out.rounds_run, 0);
    }

    #[test]
    #[should_panic(expected = "one node per shard")]
    fn more_shards_than_nodes_panics() {
        let start = Configuration::uniform(3, 3);
        Cluster::new(Voter, &start, ClusterConfig::new(8, 0));
    }

    #[test]
    #[should_panic(expected = "u32 node-id space")]
    fn more_nodes_than_u32_ids_panics() {
        // 2^32 + 1 nodes would truncate to one node in the u32 id space.
        let start = Configuration::from_counts(vec![1 << 32, 1]);
        Cluster::new(Voter, &start, ClusterConfig::new(2, 0));
    }
}
