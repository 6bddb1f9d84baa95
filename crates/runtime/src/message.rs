//! The cluster wire protocol: every message type exchanged between
//! shards and with the coordinator.
//!
//! # Data plane
//!
//! All inter-shard traffic is batched per (sender-shard, receiver-shard)
//! pair per phase. Uniform pulls are anonymous and exchangeable, so
//! per-pair traffic collapses to at most two messages per round, in one
//! of two coordinator-arbitrated gears ([`DataFormat`]):
//!
//! **Pull gear** (the diverse regime):
//!
//! * a [`PullBatch`] — "draw `count` uniform targets from your nodes" —
//!   in place of individual per-node requests: under Uniform Pull a
//!   node's target is uniform over all `n` nodes, so a pull addressed
//!   to a peer is uniform over that peer's range and the whole batch is
//!   one number;
//! * an [`OpinionPalette`] reply, *sampled shard-side* — raw drawn
//!   opinions while they would not compress, a run-length histogram
//!   (distributionally identical to reading `count` uniform snapshot
//!   entries) once they do — at most `count` entries, collapsing to
//!   `O(#distinct opinions)` as the process concentrates.
//!
//! Both phases close by *batch count*: every shard sends every shard
//! exactly one pull batch and exactly one palette per round, empty or
//! not. The receiving shard reconstitutes per-node samples by dealing
//! the palettes through a Fisher–Yates pass — an iid sequence
//! conditioned on its multiset is a uniform arrangement.
//!
//! **Push gear** (the concentrated regime, `occ · shards² ≤ n·h`): no
//! pulls at all. Every shard broadcasts its round-start opinion
//! histogram as one palette per peer, and each shard draws all its
//! `local_n · h` samples locally from the union of the received
//! histograms via one alias table — exactly Uniform Pull (a uniform
//! node is a shard ∝ size, then a uniform node within it, so its
//! opinion is distributed as the global histogram), iid per sample
//! with no reassembly shuffle, at `O(#shards² · #distinct)` wire
//! entries per round regardless of `n`.
//!
//! In both gears the realized process law is *exactly* Uniform Pull
//! (cross-validated against the engines).
//!
//! The wire is **representation-agnostic**: nothing in a
//! [`PullBatch`], [`OpinionPalette`], or report body reveals whether the
//! serving shard materializes its agents ([`crate::ShardRepr::Agents`])
//! or keeps only a local histogram ([`crate::ShardRepr::Histogram`]).
//! Palettes are distributional objects (iid draws from the frozen
//! round-start snapshot), which a histogram serves directly; per-node
//! sample reassembly is a *consumer*-side choice.
//!
//! # Control plane
//!
//! Per-round shard reports carry one of two [`ReportBody`] formats,
//! commanded round-by-round by the coordinator via [`Control::Round`]
//! (all shards use the same format within a round, which is what keeps
//! the coordinator's single merged configuration mergeable):
//!
//! * [`ReportBody::Sparse`] — absolute `(slot, count)` pairs over the
//!   shard's locally occupied slots; `O(#locally occupied)` on the wire,
//!   merged via `Configuration::merge_sparse`.
//! * [`ReportBody::Delta`] — signed `(slot, Δcount)` pairs over the
//!   slots whose local support *changed* this round; `O(#changed)` on
//!   the wire, merged via `Configuration::apply_deltas`. This is the
//!   high-occupancy-regime format: 2-Choices from `k = n` singletons
//!   keeps `Θ(n)` colors alive over the whole Theorem-5 horizon (so
//!   absolute reports stay `O(local_n)`) while only `O(1)` nodes switch
//!   per round once the process stalls.
//!
//! The report format never touches the protocol's RNG streams, so both
//! formats realize the identical trajectory for a given seed.
//!
//! # Fault tagging and accounting
//!
//! Every data-plane message and every report carries the round
//! it belongs to. In the fault-free cluster the coordinator's report
//! barrier makes the tags redundant (every message a shard receives is
//! for its current round); under an active [`crate::FaultPlan`] they
//! are what keeps the relaxed protocol coherent: receivers park
//! *future*-tagged messages (a peer that made quorum may already be a
//! round ahead), discard *stale*-tagged ones (a delayed duplicate that
//! lost its race), and recognize duplicates by their already-filled
//! per-origin slot.
//!
//! Accounting stays honest under injected faults: a dropped message's
//! entries are still counted by its sender (it was transmitted and
//! lost), a duplicated message's entries are counted **twice** (two
//! transmissions), and a delayed message is one transmission counted
//! once. A dropped *report* would lose its `messages_sent` counter
//! snapshot with it, so shards carry the unreported tally forward into
//! their next report — which is how the documented `2·n·h`-style cost
//! models remain comparable between faulty and fault-free runs.

use symbreak_core::Opinion;

/// All pulls a shard addresses to the receiving shard this round: how
/// many uniform draws to take from the receiver's nodes.
///
/// Every shard sends every shard exactly one pull batch per round (empty
/// or not) — batches close the pull phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PullBatch {
    /// Shard index of the requester (routes the palette back).
    pub origin: u32,
    /// The synchronous round this batch belongs to (see the module-level
    /// fault-tagging notes).
    pub round: u64,
    /// How many uniform draws to take from the receiver's round-start
    /// opinions (`0` for an empty batch).
    pub count: u64,
}

/// The aggregate reply to a [`PullBatch`]: the opinions of the drawn
/// targets, in one of two encodings.
///
/// * **Histogram** (`runs` non-empty): `palette` lists the distinct
///   opinions observed, `runs` pairs each with its count. Built
///   *shard-side* — once opinions concentrate the server samples a
///   multinomial over its round-start opinion histogram instead of
///   materializing individual targets, so building and shipping the
///   palette is `O(#distinct opinions)` rather than `O(count)`.
/// * **Raw** (`runs` empty): `palette` is the drawn opinions verbatim,
///   one entry per draw. Used in the many-color regime, where a
///   histogram would not compress (`#distinct ≈ count`) — one entry
///   per draw, with no per-node routing.
///
/// Every shard sends every shard exactly one palette per round (empty
/// or not) — palettes close the reply phase by batch count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpinionPalette {
    /// Shard index of the server (identifies which batch this answers).
    pub origin: u32,
    /// The synchronous round this palette belongs to (see the
    /// module-level fault-tagging notes).
    pub round: u64,
    /// The distinct opinions observed among the drawn targets
    /// (histogram form), or the drawn opinions verbatim (raw form).
    /// May include [`Opinion::UNDECIDED`].
    pub palette: Vec<Opinion>,
    /// `(palette_idx, count)` pairs: how many of the drawn targets held
    /// each palette opinion; `Σ count` equals the requested draw total.
    /// Empty in the raw encoding.
    pub runs: Vec<(u32, u64)>,
}

/// Batched shard-to-shard traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMessage {
    /// One aggregate pull batch.
    Pull(PullBatch),
    /// One aggregate reply palette.
    Palette(OpinionPalette),
}

/// Report wire format for one round, commanded by the coordinator.
///
/// Keeping the format uniform across shards within a round is what
/// makes the coordinator's single merged configuration sufficient
/// state: absolute sparse reports replace the occupied supports, delta
/// reports shift them — mixing the two in one round would require
/// per-shard previous-report state at the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportFormat {
    /// Absolute `(slot, count)` pairs ([`ReportBody::Sparse`]).
    #[default]
    Sparse,
    /// Signed `(slot, Δcount)` pairs ([`ReportBody::Delta`]).
    Delta,
}

/// Data-plane format for one round, commanded by the coordinator.
///
/// Like [`ReportFormat`], keeping the format uniform across shards
/// within a round is what keeps the protocol simple: in a push round
/// nobody sends pulls, and every received palette is a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataFormat {
    /// Pull/reply: [`PullBatch`]es answered by sampled
    /// [`OpinionPalette`]s.
    #[default]
    Pull,
    /// Histogram push, for the concentrated regime (arbitrated on
    /// `occ · shards² ≤ n·h`): every shard broadcasts its round-start
    /// opinion histogram as an [`OpinionPalette`] — no pulls at all —
    /// and each requester draws all its `local_n · h` samples locally
    /// from the union of the received histograms via one alias table.
    /// Exactly Uniform Pull (a uniform node is a shard ∝ size, then a
    /// uniform node within it, so its opinion is distributed as the
    /// global histogram), iid per sample with no reassembly shuffle,
    /// at `O(#shards · #distinct)` wire entries per server.
    Push,
}

/// Coordinator-to-shard control traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Control {
    /// Run one more synchronous round with the given report and
    /// data-plane formats.
    Round {
        /// The round number (1-based), echoed onto every message the
        /// shard emits this round.
        round: u64,
        /// Report wire format for the round.
        report: ReportFormat,
        /// Data-plane format for the round.
        data: DataFormat,
    },
    /// Revive a crash-stopped shard from the coordinator's snapshot of
    /// its last accepted report: the shard rebuilds its node opinions
    /// from the sparse body (crash-stop lost its own state), verifies
    /// the reconstruction against a dense recount, and resumes with the
    /// next [`Control::Round`].
    Rejoin {
        /// The round the shard rejoins at (its first live round).
        round: u64,
        /// Snapshot `(slot, count)` support, summing with `undecided`
        /// to the shard's node count.
        body: Vec<(u32, u64)>,
        /// Undecided nodes in the snapshot.
        undecided: u64,
    },
    /// Terminate and report.
    Stop,
}

/// A shard's per-round opinion counts, in the wire format selected by
/// [`crate::ReportMode`] and the per-round [`ReportFormat`] command.
///
/// # Example
///
/// The same round, reported two ways — a shard whose 10 nodes sit on
/// slots 3 and 7 of a `k = 8` configuration, after one node moved
/// `7 → 3`:
///
/// ```
/// use symbreak_runtime::ReportBody;
///
/// let sparse = ReportBody::Sparse(vec![(3, 9), (7, 1)]); // absolute
/// let delta = ReportBody::Delta(vec![(3, 1), (7, -1)]);  // what changed
/// assert_eq!(sparse.entries(), 2);
/// assert_eq!(delta.entries(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportBody {
    /// `(slot, count)` pairs over the locally occupied slots, in
    /// first-touch order (the merge is additive, so order is
    /// irrelevant); every `count` is non-zero. `O(#locally occupied)`
    /// on the wire.
    Sparse(Vec<(u32, u64)>),
    /// Signed `(slot, Δcount)` pairs over the slots whose local support
    /// changed this round; every `Δcount` is non-zero. `O(#changed)` on
    /// the wire — the stalled-regime format.
    Delta(Vec<(u32, i64)>),
}

impl ReportBody {
    /// Number of `(slot, value)` pairs the body carries on the wire.
    pub fn entries(&self) -> u64 {
        match self {
            ReportBody::Sparse(pairs) => pairs.len() as u64,
            ReportBody::Delta(pairs) => pairs.len() as u64,
        }
    }
}

/// Shard-to-coordinator per-round report: this shard's opinion counts
/// plus its undecided count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// Shard index.
    pub shard: usize,
    /// The round this report describes (under an active fault plan a
    /// delayed report arrives one round late; the coordinator folds it
    /// as a straggler re-sync by this tag).
    pub round: u64,
    /// Support among this shard's nodes, in the commanded wire format.
    pub body: ReportBody,
    /// Undecided nodes in this shard.
    pub undecided: u64,
    /// Point-to-point wire entries this shard sent during the round
    /// (one per non-empty pull batch plus palette and run entries). Under an active fault
    /// plan this includes entries transmitted-and-lost, counts
    /// duplicated transmissions twice, and carries forward the tally of
    /// any previous report that was itself dropped (see the
    /// module-level accounting notes).
    pub messages_sent: u64,
    /// Samples this shard regenerated locally because the palette that
    /// should have carried them was dropped or delayed past its round
    /// (`0` in fault-free runs).
    pub recovered: u64,
    /// How many color slots changed local support this round, when the
    /// shard tracks its previous round ([`crate::ReportMode::Delta`]);
    /// `None` in modes that do not track. The coordinator arbitrates
    /// the sparse↔delta switch on this.
    pub changed_slots: Option<u64>,
    /// Cumulative wire bytes this shard has sent over its
    /// [`crate::transport::Transport`], at [`crate::codec`] frame
    /// sizes, sampled after this round's exchange and before this
    /// report itself is framed (so a report's own bytes land in the
    /// *next* report — a one-round tail the coordinator's final sum
    /// closes by taking the per-shard maximum it ever saw).
    pub bytes_sent: u64,
    /// Cumulative wire bytes received (data plane plus control frames),
    /// sampled at the same point as `bytes_sent`.
    pub bytes_received: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_bodies_compare_structurally() {
        let sparse = ReportBody::Sparse(vec![(0, 2), (3, 1)]);
        assert_eq!(sparse, ReportBody::Sparse(vec![(0, 2), (3, 1)]));
        assert_ne!(ReportBody::Delta(vec![(0, 2)]), ReportBody::Sparse(vec![(0, 2)]));
    }

    #[test]
    fn report_body_entry_counts() {
        assert_eq!(ReportBody::Sparse(vec![(0, 2), (3, 1)]).entries(), 2);
        assert_eq!(ReportBody::Delta(vec![(7, -4)]).entries(), 1);
    }

    #[test]
    fn palette_mass_matches_runs() {
        let p = OpinionPalette {
            origin: 0,
            round: 1,
            palette: vec![Opinion::new(3), Opinion::UNDECIDED],
            runs: vec![(0, 5), (1, 2)],
        };
        let total: u64 = p.runs.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 7);
        assert_eq!(p.palette.len(), p.runs.len());
    }
}
