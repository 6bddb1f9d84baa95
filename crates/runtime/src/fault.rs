//! Deterministic fault injection for the cluster runtime.
//!
//! A [`FaultPlan`] turns the lockstep cluster into a degradable
//! service: it interposes on the shard wire path and injects dropped,
//! duplicated, and delayed-by-one-round [`crate::message::OpinionPalette`]
//! and [`crate::message::ShardReport`] messages, crash-stops shards over
//! scheduled round windows (they rejoin from a coordinator snapshot),
//! and turns chosen shards Byzantine (their report bodies are corrupted
//! before sending — mass-preserving lies are tolerated by quorum,
//! mass-violating ones are rejected by the coordinator's validation).
//!
//! # Why the plan is a *shared pure function*, not a wire interceptor
//!
//! The runtime has no timeouts: every receive loop blocks until its
//! expected message count is met. Faults therefore cannot be decided by
//! one party alone — a silently dropped palette would deadlock its
//! receiver. Instead every fault decision is a **stateless hash** of
//! `(plan seed, round, sender, receiver)`: the sender uses it to decide
//! whether to transmit, the receiver uses the *same* hash to know the
//! message will never come (and to regenerate the lost samples
//! locally), and the coordinator uses it to size its per-round report
//! barrier. The three parties agree by construction, so the degraded
//! protocol stays deterministic per `(seed, plan)` and deadlock-free —
//! the same design that makes the fault-free cluster reproducible.
//!
//! Intra-shard traffic (`from == to`) is exempt: a shard's channel to
//! itself models function calls, not a network.
//!
//! A plan with every rate zero and no crash/Byzantine entries
//! ([`FaultPlan::none`], the default) is **inert**: it runs the same
//! fault-aware exchange and coordinator loops as any other plan, with
//! every decision the identity (`F = 0`), and realizes the identical
//! trajectory, trace, and message counts per seed as the fault-free
//! protocol (pinned by the seed-exactness tests).
//!
//! The layer is **representation-agnostic**: fault decisions hash wire
//! coordinates, never shard internals, so condensed (histogram-backed)
//! shards degrade under the same law as agent-backed ones. The two
//! compensation paths that used to walk per-agent state are
//! histogram-native when the shard is condensed — lost-palette recovery
//! re-samples the missing mass as one sparse multinomial over the
//! round-start snapshot, and [`crate::message::Control::Rejoin`]
//! installs the snapshot by copying counts with a sparse mass check
//! instead of a dense `O(local_n)` recount.

/// What happens to one faulted message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Transmitted and lost: the sender counts the entries, the receiver
    /// compensates (palettes: local sample recovery; reports: the
    /// coordinator reuses the shard's last accepted body).
    Drop,
    /// Transmitted twice: both transmissions count, the receiver
    /// discards the second copy.
    Duplicate,
    /// Delivered past its round's usefulness window. A delayed *report*
    /// is physically held by the shard and flushed at its next round
    /// command, reaching the coordinator one barrier late — folded as a
    /// straggler re-sync. A delayed *palette* still crosses the wire
    /// in-round but deterministically misses the round's consumption
    /// window: the receiver absorbs and discards it, having already
    /// regenerated the lost samples locally. (Physically holding a
    /// palette would deadlock the barrier cycle: the coordinator waits
    /// on the receiver's report, the receiver on the sender's flush,
    /// the sender on the coordinator's next round command.)
    Delay,
}

/// One scheduled crash-stop window.
///
/// The shard is dead for rounds `crash_round ..= rejoin_round - 1`
/// inclusive: it receives no round commands, sends and receives
/// nothing, and its nodes are frozen at the coordinator's last accepted
/// snapshot. At `rejoin_round` the coordinator replays that snapshot to
/// it ([`crate::message::Control::Rejoin`]) and it resumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashSpec {
    /// Which shard crashes.
    pub shard: usize,
    /// First round the shard is dead for (1-based).
    pub crash_round: u64,
    /// First round the shard is live again; `None` means it never
    /// rejoins (the run must tolerate it via `max_faulty` for good).
    pub rejoin_round: Option<u64>,
}

/// How a Byzantine shard corrupts its report bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorruptionKind {
    /// Mass-preserving lies: the sparse body is corrupted through the
    /// adversary crate's `RandomFlipper` (up to `budget` phantom node
    /// moves per round, possibly reviving dead colors). The body stays
    /// *plausible* — it passes the coordinator's mass validation — so
    /// the lie lands in the merged view and must be tolerated by the
    /// quorum-relaxed consensus detection.
    Plausible,
    /// Mass-inflating lies: `budget` phantom nodes are added to the
    /// body's first slot, violating `Σ counts + undecided = local_n`.
    /// The coordinator rejects the body by the same mass-identity
    /// invariant `merge_sparse`/`apply_deltas` assert on the lossless
    /// path, and the shard counts against the `max_faulty` budget that
    /// round.
    Inflate,
}

/// One permanently Byzantine shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByzantineSpec {
    /// Which shard lies.
    pub shard: usize,
    /// Per-round corruption budget (phantom node moves, or phantom mass).
    pub budget: u64,
    /// The corruption applied to every report body it sends.
    pub kind: CorruptionKind,
}

/// A seeded, deterministic fault schedule for one cluster run.
///
/// Rates are per-message Bernoulli probabilities decided by the
/// stateless hash described in the module docs; the three rates of a
/// message class must sum to at most 1.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault hash (independent of the cluster seed: the same
    /// protocol trajectory can be re-run under different fault draws).
    pub seed: u64,
    /// P\[an inter-shard palette is dropped\].
    pub palette_drop: f64,
    /// P\[an inter-shard palette is transmitted twice\].
    pub palette_duplicate: f64,
    /// P\[an inter-shard palette is delayed by one round\].
    pub palette_delay: f64,
    /// P\[a shard report is dropped\].
    pub report_drop: f64,
    /// P\[a shard report is transmitted twice\].
    pub report_duplicate: f64,
    /// P\[a shard report is delayed by one round\].
    pub report_delay: f64,
    /// Scheduled crash-stop windows (at most one per shard).
    pub crashes: Vec<CrashSpec>,
    /// Permanently Byzantine shards.
    pub byzantine: Vec<ByzantineSpec>,
    /// `F`: how many shards may fail to deliver a fresh valid report in
    /// one round before the coordinator aborts. The barrier proceeds on
    /// `N − F` attendance (the exact quorum via
    /// [`symbreak_adversary::quorum_threshold`]); fewer is
    /// [`StopReason::TooManyFaults`].
    pub max_faulty: usize,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Splits the top 53 bits of a hash into a uniform in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// SplitMix64-style stateless mix over a fault-decision tuple.
fn mix(seed: u64, salt: u64, round: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        ^ salt
        ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ a.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ b.wrapping_mul(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps a uniform draw through a drop/duplicate/delay rate triple.
fn classify(u: f64, drop: f64, duplicate: f64, delay: f64) -> Option<FaultKind> {
    if u < drop {
        Some(FaultKind::Drop)
    } else if u < drop + duplicate {
        Some(FaultKind::Duplicate)
    } else if u < drop + duplicate + delay {
        Some(FaultKind::Delay)
    } else {
        None
    }
}

const PALETTE_SALT: u64 = 0xA5A5_5A5A_0F0F_F0F0;
const REPORT_SALT: u64 = 0x3C3C_C3C3_69AA_5596;
/// Salt of the Byzantine corruption RNG streams (one per shard),
/// disjoint from the shard round and serving streams by construction.
pub(crate) const BYZANTINE_SALT: u64 = 0x517C_C1B7_2722_0A95;

impl FaultPlan {
    /// The inert plan: no faults (`F = 0`).
    pub fn none() -> Self {
        Self {
            seed: 0,
            palette_drop: 0.0,
            palette_duplicate: 0.0,
            palette_delay: 0.0,
            report_drop: 0.0,
            report_duplicate: 0.0,
            report_delay: 0.0,
            crashes: Vec::new(),
            byzantine: Vec::new(),
            max_faulty: 0,
        }
    }

    /// Builder: sets the fault hash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sets the palette drop/duplicate/delay rates.
    pub fn with_palette_rates(mut self, drop: f64, duplicate: f64, delay: f64) -> Self {
        self.palette_drop = drop;
        self.palette_duplicate = duplicate;
        self.palette_delay = delay;
        self
    }

    /// Builder: sets the report drop/duplicate/delay rates.
    pub fn with_report_rates(mut self, drop: f64, duplicate: f64, delay: f64) -> Self {
        self.report_drop = drop;
        self.report_duplicate = duplicate;
        self.report_delay = delay;
        self
    }

    /// Builder: schedules a crash-stop window.
    pub fn with_crash(mut self, spec: CrashSpec) -> Self {
        self.crashes.push(spec);
        self
    }

    /// Builder: marks a shard Byzantine.
    pub fn with_byzantine(mut self, spec: ByzantineSpec) -> Self {
        self.byzantine.push(spec);
        self
    }

    /// Builder: sets the per-round faulty-shard tolerance `F`.
    pub fn with_max_faulty(mut self, max_faulty: usize) -> Self {
        self.max_faulty = max_faulty;
        self
    }

    /// Whether the plan injects anything at all. Inert plans fold
    /// reports losslessly; active ones cannot.
    pub fn is_active(&self) -> bool {
        self.palette_drop > 0.0
            || self.palette_duplicate > 0.0
            || self.palette_delay > 0.0
            || self.report_drop > 0.0
            || self.report_duplicate > 0.0
            || self.report_delay > 0.0
            || !self.crashes.is_empty()
            || !self.byzantine.is_empty()
    }

    /// Checks the plan against a fleet size; called by
    /// [`crate::Cluster::new`].
    ///
    /// # Panics
    /// Panics on out-of-range rates or shard indices, overlapping crash
    /// specs, Byzantine crash targets, or `max_faulty >= shards`.
    pub fn validate(&self, shards: usize) {
        let triple_ok =
            |a: f64, b: f64, c: f64| a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0;
        assert!(
            triple_ok(self.palette_drop, self.palette_duplicate, self.palette_delay),
            "palette fault rates must be non-negative and sum to at most 1"
        );
        assert!(
            triple_ok(self.report_drop, self.report_duplicate, self.report_delay),
            "report fault rates must be non-negative and sum to at most 1"
        );
        assert!(self.max_faulty < shards, "max_faulty must leave a non-empty quorum");
        for (i, c) in self.crashes.iter().enumerate() {
            assert!(c.shard < shards, "crash spec names shard {} of {shards}", c.shard);
            assert!(c.crash_round >= 1, "rounds are 1-based");
            if let Some(rejoin) = c.rejoin_round {
                assert!(rejoin > c.crash_round, "rejoin must follow the crash");
            }
            assert!(
                self.crashes[..i].iter().all(|prev| prev.shard != c.shard),
                "at most one crash window per shard"
            );
        }
        for b in &self.byzantine {
            assert!(b.shard < shards, "byzantine spec names shard {} of {shards}", b.shard);
            assert!(
                self.crashes.iter().all(|c| c.shard != b.shard),
                "a shard cannot be both Byzantine and crash-scheduled"
            );
        }
    }

    /// Whether `shard` is crash-stopped during `round`.
    pub fn is_crashed(&self, shard: usize, round: u64) -> bool {
        self.crashes.iter().any(|c| {
            c.shard == shard && round >= c.crash_round && c.rejoin_round.is_none_or(|r| round < r)
        })
    }

    /// The Byzantine spec covering `shard`, if any.
    pub fn byzantine_spec(&self, shard: usize) -> Option<&ByzantineSpec> {
        self.byzantine.iter().find(|b| b.shard == shard)
    }

    /// The fault, if any, injected on the palette `from → to` in
    /// `round`. Intra-shard palettes (`from == to`) are never faulted.
    pub fn palette_fault(&self, round: u64, from: usize, to: usize) -> Option<FaultKind> {
        if from == to {
            return None;
        }
        let u = unit(mix(self.seed, PALETTE_SALT, round, from as u64, to as u64));
        classify(u, self.palette_drop, self.palette_duplicate, self.palette_delay)
    }

    /// The fault, if any, injected on `shard`'s report for `round`.
    pub fn report_fault(&self, round: u64, shard: usize) -> Option<FaultKind> {
        let u = unit(mix(self.seed, REPORT_SALT, round, shard as u64, 0));
        classify(u, self.report_drop, self.report_duplicate, self.report_delay)
    }
}

/// Why a cluster run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The merged (honest-view, under faults) configuration reached
    /// consensus.
    Consensus,
    /// The round horizon elapsed without consensus.
    HorizonExhausted,
    /// A round's fresh valid report attendance fell below the `N − F`
    /// quorum: the run degraded past the plan's tolerance and aborted.
    TooManyFaults,
    /// A transport endpoint vanished mid-run (a worker process died,
    /// a socket closed): the coordinator aborted like
    /// [`StopReason::TooManyFaults`] and sent Stop to the live shards.
    /// Distinct from injected faults, which are shared decisions and
    /// never sever a connection.
    TransportLost,
}

/// Per-run fault and degradation observables, so degraded operation is
/// measurable rather than silent. All zero for inert plans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Inter-shard palettes transmitted and lost.
    pub palettes_dropped: u64,
    /// Inter-shard palettes transmitted twice.
    pub palettes_duplicated: u64,
    /// Inter-shard palettes delivered one round late (and discarded).
    pub palettes_delayed: u64,
    /// Reports transmitted and lost.
    pub reports_dropped: u64,
    /// Reports transmitted twice.
    pub reports_duplicated: u64,
    /// Reports delivered one barrier late (straggler re-syncs).
    pub reports_delayed: u64,
    /// Shard-rounds spent crash-stopped.
    pub crash_rounds: u64,
    /// Snapshot rejoins performed.
    pub rejoins: u64,
    /// Reports received from Byzantine shards.
    pub byzantine_reports: u64,
    /// Reports rejected by the coordinator's mass validation.
    pub rejected_reports: u64,
    /// Stale reports folded as straggler re-syncs.
    pub straggler_resyncs: u64,
    /// Samples shards regenerated locally for lost palettes.
    pub recovered_samples: u64,
    /// Rounds the barrier closed below full attendance (quorum-relaxed
    /// rounds).
    pub quorum_rounds: u64,
    /// Total wire bytes sent fleet-wide, at [`crate::codec`] frame
    /// sizes: every shard's data-plane and report frames (including
    /// frames the fault plan transmitted-and-lost) plus the
    /// coordinator's control frames. Nonzero even for inert plans —
    /// this pair measures the wire, not the faults.
    pub bytes_sent: u64,
    /// Total wire bytes received fleet-wide. Differs from `bytes_sent`
    /// by exactly the frames that were sent but never delivered
    /// (injected drops/delays, reports cut off by an abort).
    pub bytes_received: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inert_plan_is_inactive_and_decides_no_faults() {
        let plan = FaultPlan::none();
        assert!(!plan.is_active());
        for round in 1..50 {
            for s in 0..4usize {
                assert_eq!(plan.report_fault(round, s), None);
                for o in 0..4usize {
                    assert_eq!(plan.palette_fault(round, s, o), None);
                }
            }
        }
        plan.validate(4);
    }

    #[test]
    fn decisions_are_deterministic_and_self_exempt() {
        let plan = FaultPlan::none().with_seed(7).with_palette_rates(0.3, 0.3, 0.3);
        for round in 1..100 {
            for s in 0..6usize {
                assert_eq!(plan.palette_fault(round, s, s), None, "self-pairs exempt");
                for o in 0..6usize {
                    assert_eq!(
                        plan.palette_fault(round, s, o),
                        plan.palette_fault(round, s, o),
                        "stateless decisions must agree across parties"
                    );
                }
            }
        }
    }

    #[test]
    fn rates_produce_roughly_proportional_kinds() {
        let plan = FaultPlan::none().with_seed(11).with_palette_rates(0.2, 0.1, 0.05);
        let (mut drop, mut dup, mut delay, mut none) = (0u32, 0u32, 0u32, 0u32);
        for round in 1..=2000 {
            match plan.palette_fault(round, 0, 1) {
                Some(FaultKind::Drop) => drop += 1,
                Some(FaultKind::Duplicate) => dup += 1,
                Some(FaultKind::Delay) => delay += 1,
                None => none += 1,
            }
        }
        // Loose 3-sigma-ish bands: the hash should behave like a fair
        // Bernoulli source at these rates.
        assert!((300..=500).contains(&drop), "drop draws: {drop}");
        assert!((130..=270).contains(&dup), "duplicate draws: {dup}");
        assert!((55..=145).contains(&delay), "delay draws: {delay}");
        assert!(none > 1100, "none draws: {none}");
    }

    #[test]
    fn crash_windows_are_half_open() {
        let plan = FaultPlan::none()
            .with_crash(CrashSpec { shard: 2, crash_round: 5, rejoin_round: Some(8) })
            .with_max_faulty(1);
        assert!(!plan.is_crashed(2, 4));
        assert!(plan.is_crashed(2, 5));
        assert!(plan.is_crashed(2, 7));
        assert!(!plan.is_crashed(2, 8));
        assert!(!plan.is_crashed(1, 6));
        plan.validate(4);
    }

    #[test]
    fn permanent_crash_never_rejoins() {
        let plan = FaultPlan::none()
            .with_crash(CrashSpec { shard: 0, crash_round: 3, rejoin_round: None })
            .with_max_faulty(1);
        assert!(plan.is_crashed(0, 1_000_000));
        plan.validate(3);
    }

    #[test]
    #[should_panic(expected = "at most one crash window per shard")]
    fn overlapping_crash_specs_panic() {
        FaultPlan::none()
            .with_crash(CrashSpec { shard: 1, crash_round: 2, rejoin_round: Some(4) })
            .with_crash(CrashSpec { shard: 1, crash_round: 6, rejoin_round: Some(8) })
            .with_max_faulty(1)
            .validate(4);
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn overfull_rate_triple_panics() {
        FaultPlan::none().with_palette_rates(0.5, 0.4, 0.2).validate(4);
    }

    #[test]
    #[should_panic(expected = "non-empty quorum")]
    fn max_faulty_must_leave_a_quorum() {
        FaultPlan::none().with_max_faulty(4).validate(4);
    }

    #[test]
    #[should_panic(expected = "Byzantine and crash-scheduled")]
    fn byzantine_crash_overlap_panics() {
        FaultPlan::none()
            .with_crash(CrashSpec { shard: 1, crash_round: 2, rejoin_round: Some(4) })
            .with_byzantine(ByzantineSpec { shard: 1, budget: 2, kind: CorruptionKind::Plausible })
            .with_max_faulty(2)
            .validate(4);
    }
}
