//! The cluster wire protocol: every message type exchanged between
//! shards and with the coordinator, in both wire modes.
//!
//! # Data plane
//!
//! All inter-shard traffic is batched per (sender-shard, receiver-shard)
//! pair per phase. The runtime speaks one of two wire formats, selected
//! by [`crate::WireMode`]:
//!
//! ## Per-entry (`WireMode::PerEntry`)
//!
//! The PR 3 format, kept as the paired-benchmark baseline. Each of a
//! node's `h` pulls travels as its own [`Request`] entry and comes back
//! as its own [`Reply`] entry, so a round moves exactly `2·n·h` entries
//! through the channels. The two phases close differently:
//!
//! * **Requests** are counted by *batches*: every shard sends exactly one
//!   request batch to every shard each round, empty or not, so a shard
//!   knows the request phase is over once it has received one batch per
//!   shard.
//! * **Replies** are counted by *entries*: a shard expects exactly
//!   `local_n · h` reply entries per round, so empty reply batches carry
//!   no information and are **not** sent.
//!
//! ## Batched (`WireMode::Batched`)
//!
//! The aggregate format. Uniform pulls are anonymous and exchangeable,
//! so per-pair traffic collapses to at most two messages per round, in
//! one of two coordinator-arbitrated gears ([`DataFormat`]):
//!
//! **Pull gear** (the diverse regime):
//!
//! * a [`PullBatch`] of [`TargetRun`]s — "draw `count` uniform targets
//!   from this shard-local id range" — in place of the individual
//!   requests (one run covering the peer's whole range suffices for
//!   Uniform Pull, so a batch is `O(1)` entries);
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
//! (cross-validated against the engines), but the RNG discipline
//! differs from per-entry mode, so the two wire modes realize
//! different (equally lawful) trajectories per seed.
//!
//! The batched wire is **representation-agnostic**: nothing in a
//! [`PullBatch`], [`OpinionPalette`], or report body reveals whether the
//! serving shard materializes its agents ([`crate::ShardRepr::Agents`])
//! or keeps only a local histogram ([`crate::ShardRepr::Histogram`]).
//! Palettes are distributional objects (iid draws from the frozen
//! round-start snapshot), which a histogram serves directly; per-node
//! sample reassembly is a *consumer*-side choice. Only the per-entry
//! format is inherently agent-addressed, which is why it forces the
//! agent-backed representation.
//!
//! # Control plane
//!
//! Per-round shard reports carry one of three [`ReportBody`] formats,
//! commanded round-by-round by the coordinator via [`Control::Round`]
//! (all shards use the same format within a round, which is what keeps
//! the coordinator's single merged configuration mergeable):
//!
//! * [`ReportBody::Sparse`] — absolute `(slot, count)` pairs over the
//!   shard's locally occupied slots; `O(#locally occupied)` on the wire,
//!   merged via `Configuration::merge_sparse`.
//! * [`ReportBody::Delta`] — signed `(slot, Δcount)` pairs over the
//!   slots whose local support *changed* this round; `O(#changed)` on
//!   the wire and in the coordinator's `Configuration::apply_deltas`
//!   fold (agent-backed shards build it from a diff of their opinion
//!   vector against the previous report's, with no tally). This is the
//!   high-occupancy-regime format: 2-Choices from `k = n` singletons
//!   keeps `Θ(n)` colors alive over the whole Theorem-5 horizon (so
//!   absolute reports stay `O(local_n)`) while only `O(1)` nodes switch
//!   per round once the process stalls.
//! * [`ReportBody::Dense`] — the full `k`-slot count vector (the
//!   pre-sparse format, kept as the paired-benchmark baseline).
//!
//! The report format never touches the protocol's RNG streams, so all
//! three formats realize the identical trajectory for a given seed and
//! wire mode.
//!
//! # Fault tagging and accounting
//!
//! Every batched data-plane message and every report carries the round
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

/// A pull request: node `requester` (global id) asks for the opinion of
/// node `target` (global id, owned by the receiving shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// Global id of the node whose opinion is requested.
    pub target: u32,
    /// Global id of the requesting node (used only to route the reply and
    /// slot it into the right sample position).
    pub requester: u32,
    /// Which of the requester's `h` sample slots this request fills.
    pub slot: u8,
}

/// A pull reply carrying the opinion of the target at the round start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// Global id of the requesting node.
    pub requester: u32,
    /// Sample slot being filled.
    pub slot: u8,
    /// The pulled opinion.
    pub opinion: Opinion,
}

/// One run of an aggregate pull: "draw `count` uniform random targets
/// from the shard-local id range `[start, start + len)`".
///
/// Runs are the unit the batched wire mode counts as a message entry.
/// Uniform Pull needs only one run spanning the peer's whole range, but
/// the format admits subranges so non-uniform pull distributions stay
/// expressible on the same wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TargetRun {
    /// First shard-local node id of the run.
    pub start: u32,
    /// Number of node ids the run spans.
    pub len: u32,
    /// How many uniform draws to take from the run.
    pub count: u64,
}

/// All pulls a shard addresses to the receiving shard this round, as
/// sorted target runs ([`crate::WireMode::Batched`]).
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
    /// The aggregate pulls, sorted by `start`, non-overlapping.
    pub target_runs: Vec<TargetRun>,
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
///   histogram would not compress (`#distinct ≈ count`) — still half
///   of per-entry mode's `2·count` entries, with no per-entry routing.
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

/// A pooled palette allocation: an [`OpinionPalette`]'s distinct-opinion
/// list plus its `(palette_idx, count)` runs, recycled across rounds.
pub type PaletteBuffers = (Vec<Opinion>, Vec<(u32, u64)>);

/// Batched shard-to-shard traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardMessage {
    /// All per-entry requests a shard addresses to the receiving shard
    /// this round ([`crate::WireMode::PerEntry`]).
    Requests(Vec<Request>),
    /// All per-entry replies a shard returns to the receiving shard this
    /// round ([`crate::WireMode::PerEntry`]).
    Replies(Vec<Reply>),
    /// One aggregate pull batch ([`crate::WireMode::Batched`]).
    Pull(PullBatch),
    /// One aggregate reply palette ([`crate::WireMode::Batched`]).
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
    /// Dense `k`-slot vectors ([`ReportBody::Dense`]).
    Dense,
}

/// Data-plane format for one batched round, commanded by the
/// coordinator (ignored in per-entry wire mode).
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
        /// Data-plane format for the round (batched wire only).
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
/// The same round, reported three ways — a shard whose 10 nodes sit on
/// slots 3 and 7 of a `k = 8` configuration, after one node moved
/// `7 → 3`:
///
/// ```
/// use symbreak_runtime::ReportBody;
///
/// let sparse = ReportBody::Sparse(vec![(3, 9), (7, 1)]); // absolute
/// let delta = ReportBody::Delta(vec![(3, 1), (7, -1)]);  // what changed
/// let dense = ReportBody::Dense(vec![0, 0, 0, 9, 0, 0, 0, 1]);
/// assert_eq!(sparse.entries(), 2);
/// assert_eq!(delta.entries(), 2);
/// assert_eq!(dense.entries(), 8); // always O(k) on the wire
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
    /// Per-color support over all `k` slots (the pre-sparse format, kept
    /// as the paired-benchmark baseline).
    Dense(Vec<u64>),
}

impl ReportBody {
    /// Number of wire entries the body carries (pairs, or dense slots).
    pub fn entries(&self) -> u64 {
        match self {
            ReportBody::Sparse(pairs) => pairs.len() as u64,
            ReportBody::Delta(pairs) => pairs.len() as u64,
            ReportBody::Dense(counts) => counts.len() as u64,
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
    /// (request/reply entries in per-entry mode; target runs plus
    /// palette and run entries in batched mode). Under an active fault
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
    fn message_shapes() {
        let r = Request { target: 1, requester: 2, slot: 0 };
        assert_eq!(r.target, 1);
        let msg = ShardMessage::Requests(vec![r]);
        match msg {
            ShardMessage::Requests(v) => assert_eq!(v.len(), 1),
            _ => panic!("wrong variant"),
        }
    }

    #[test]
    fn reply_carries_opinion() {
        let rep = Reply { requester: 3, slot: 1, opinion: Opinion::new(9) };
        assert_eq!(rep.opinion, Opinion::new(9));
        assert_eq!(rep.slot, 1);
    }

    #[test]
    fn report_bodies_compare_structurally() {
        let sparse = ReportBody::Sparse(vec![(0, 2), (3, 1)]);
        assert_eq!(sparse, ReportBody::Sparse(vec![(0, 2), (3, 1)]));
        assert_ne!(sparse, ReportBody::Dense(vec![2, 0, 0, 1]));
        assert_ne!(ReportBody::Delta(vec![(0, 2)]), ReportBody::Sparse(vec![(0, 2)]));
    }

    #[test]
    fn report_body_entry_counts() {
        assert_eq!(ReportBody::Sparse(vec![(0, 2), (3, 1)]).entries(), 2);
        assert_eq!(ReportBody::Delta(vec![(7, -4)]).entries(), 1);
        assert_eq!(ReportBody::Dense(vec![2, 0, 0, 1]).entries(), 4);
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
