//! Shard workers: each thread owns a contiguous range of nodes and speaks
//! the wire protocol of [`crate::message`] in the configured
//! [`WireMode`].
//!
//! **Per-entry mode** recycles its batch buffers: outgoing request and
//! reply batches are drawn from per-type buffer pools that are
//! replenished by the batches *received* from peers (each round a shard
//! sends and receives the same number of batches of each type, so the
//! pools reach equilibrium after the first round).
//!
//! **Batched mode** aggregates, in two coordinator-arbitrated gears.
//! In the *pull* gear each peer gets one [`PullBatch`] (a single
//! [`TargetRun`] covering the peer's whole range), answered by one
//! [`OpinionPalette`] sampled shard-side from the server's round-start
//! opinions. Pull batches are served the moment they arrive
//! (pipelined, no intra-round barrier); each (server, origin) pair
//! draws from its own dedicated RNG stream, so the realized trajectory
//! is deterministic per seed even though channel arrival order is not.
//! In the *push* gear (concentrated regime) there are no pulls: every
//! shard broadcasts its opinion histogram and the union of the
//! received histograms is the global round-start distribution — see
//! [`DataFormat::Push`]. The coordinator's report barrier keeps the
//! fleet in round lockstep, so every message a shard receives belongs
//! to its current round (asserted, not assumed).
//!
//! How the received aggregates become node updates is dispatched on
//! the rule's [`SampleAccess`] (under [`ConsumeMode::Native`], batched
//! wire only):
//!
//! * **ordered window** (and [`ConsumeMode::Ordered`]) — pull palettes
//!   are dealt into the sample buffer in origin order through an
//!   inside-out Fisher–Yates (an iid sequence conditioned on its
//!   multiset is a uniform arrangement, so per-node samples are
//!   exactly Uniform Pull); push rounds draw every sample iid from the
//!   union alias table; then one `update` call per node.
//! * **multiset** — the palettes are consumed directly as one pooled
//!   histogram, dealt to nodes as per-node window count vectors by a
//!   multivariate-hypergeometric `WindowSplitter` (pull) or iid
//!   `WindowMultinomial` windows (push) — no Fisher–Yates pass, no
//!   sample materialization, one `update_from_counts` call per node.
//!   Falls back to the ordered dealing while the pool is too diverse
//!   for the per-node conditional walks to pay.
//! * **single peer** — the dealt multiset *is* the next opinion
//!   vector: palettes (pull) or union draws (push) land straight in
//!   `opinions`, with no sample buffer and no rule calls.
//!
//! Reports are counted through a reusable touched-slot scratch in
//! `O(local_n)` instead of a fresh dense `vec![0; k]`. Under
//! [`ReportMode::Delta`] the shard additionally keeps a baseline of its
//! previous report so it can emit signed `(slot, Δcount)` bodies of
//! size `O(#changed)` when the coordinator commands
//! [`ReportFormat::Delta`]: agent-backed shards keep the previous
//! opinion vector and build those bodies from a chunked opinion diff,
//! with no tally; condensed shards keep the previous counts.
//!
//! Under [`crate::cluster::ShardRepr::Histogram`] (batched wire, native
//! consumption, multiset or single-peer rule) the worker is
//! **condensed**: it never materializes a per-agent opinion vector at
//! all. Its only state is a [`Configuration`]-backed local histogram
//! plus the undecided count. The round-start snapshot mirrors the
//! histogram (ascending slot order), pull palettes are served from a
//! per-round cached alias table over it, received palettes and push
//! unions are consumed as mass moved between histograms — grouped
//! hypergeometric blocks in the pull gear (one
//! [`symbreak_core::MultisetRule`] `condensed_window_step` call per
//! occupied opinion group, or a single mega-block call for
//! own-insensitive rules, with a flat Fisher–Yates dealing fallback in
//! the diverse regime), and one `condensed_push_step` call per round
//! in the push gear — so in both gears the per-round compute drops
//! from `O(local_n · h)` to `O(#occupied · h)` — and reports mirror
//! the histogram straight into the touched-slot scratch. Rejoin copies the snapshot counts and
//! verifies them in `O(#occupied)` with no dense recount. The
//! agent-backed paths are untouched (byte-identical per seed).
//!
//! Under an **active [`FaultPlan`]** (batched wire only) the worker
//! runs fault-aware exchange variants: fault decisions are stateless
//! hashes shared with every peer and the coordinator (see
//! [`crate::fault`]), so senders intercept their own transmissions
//! (drop / duplicate / delay-by-one-round), receivers compute exactly
//! which messages will arrive — round tags park messages from peers
//! that ran ahead of the relaxed barrier until their round starts —
//! and lost or late pull palettes are compensated by
//! re-sampling the requested draws from the shard's own round-start
//! snapshot (counted as `recovered`). Crash-stopped shards simply
//! receive no round commands; on [`Control::Rejoin`] the worker
//! rebuilds its opinions from the coordinator snapshot and verifies
//! the reconstruction with a dense recount. Byzantine shards corrupt
//! their report bodies through the adversary crate's strategies on a
//! dedicated RNG stream. The fault-free paths are byte-identical to
//! the inert-plan cluster.

use rand::{Rng, SeedableRng};

use symbreak_core::{Opinion, RoundStateMode, SampleAccess, UpdateRule};
use symbreak_sim::dist::{
    expected_window_visits, expected_window_visits_counts, sample_multinomial_into,
    sample_multinomial_sparse_into, Binomial, Categorical, DynamicCategorical, GroupSplitter,
    WindowMultinomial, WindowSplitter, WALK_CANDIDATE_CAP,
};
use symbreak_sim::rng::{trial_seed, Pcg64};

use symbreak_adversary::{Adversary, RandomFlipper};
use symbreak_core::Configuration;

use crate::cluster::{ConsumeMode, ReportMode, ShardRepr, WireMode};
use crate::codec::{unzigzag, zigzag};
use crate::fault::{CorruptionKind, FaultKind, FaultPlan, BYZANTINE_SALT};
use crate::message::{
    Control, DataFormat, OpinionPalette, PaletteBuffers, PullBatch, Reply, ReportBody,
    ReportFormat, Request, ShardMessage, ShardReport, TargetRun,
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
        // shards can be empty (e.g. n = 10, shards = 8).
        let lo = ((shard as u32) * self.chunk).min(self.n);
        let hi = ((shard as u32 + 1) * self.chunk).min(self.n);
        lo..hi
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
    pub wire_mode: WireMode,
    pub consume_mode: ConsumeMode,
    pub repr: ShardRepr,
    pub master_seed: u64,
    pub plan: FaultPlan,
    pub round_state: RoundStateMode,
}

/// A shard's seed state, matching its representation: the coordinator
/// sends a sparse histogram body to condensed shards and a materialized
/// opinion vector otherwise (the worker asserts the variant against the
/// spec's representation and the rule's effective sample access).
pub(crate) enum ShardInit {
    Agents(Vec<Opinion>),
    Histogram(Vec<(u32, u64)>),
}

/// Runs one shard to completion over any [`Transport`]. A lost
/// endpoint — a dead peer process, a vanished coordinator — aborts the
/// current round and exits the worker cleanly (the loss cascades to
/// the rest of the fleet through their own transports; see
/// [`crate::transport`]).
pub(crate) fn run_shard<R: UpdateRule, T: Transport>(
    shard_id: usize,
    spec: ShardSpec,
    rule: R,
    init: ShardInit,
    transport: T,
) {
    let mut worker = Worker::new(shard_id, spec, rule, init, transport);
    loop {
        match worker.transport.recv_control() {
            Ok(Control::Round { round, report, data }) => {
                if worker.round(round, report, data).is_err() {
                    break;
                }
            }
            Ok(Control::Rejoin { round, body, undecided }) => {
                worker.rejoin(round, &body, undecided)
            }
            Ok(Control::Stop) | Err(_) => break,
        }
    }
}

/// Appends a sorted `(slot, count)` histogram and its undecided mass as
/// a histogram palette: ascending opinions, undecided last, one run per
/// entry.
fn hist_palette(
    pairs: &[(u32, u64)],
    undecided: u64,
    body: &mut Vec<Opinion>,
    runs: &mut Vec<(u32, u64)>,
) {
    for &(i, c) in pairs {
        runs.push((body.len() as u32, c));
        body.push(Opinion::new(i));
    }
    if undecided > 0 {
        runs.push((body.len() as u32, undecided));
        body.push(Opinion::UNDECIDED);
    }
}

/// Unions histogram palettes whose runs ascend by opinion (undecided
/// last — every condensed push palette) by an `S`-way sorted merge
/// into parallel `values` / `weights`: ascending, deduplicated, each
/// weight the integer sum of its slot's counts. No dense scratch, no
/// sort — `O(S · #union)` head compares. Missing palettes (lost to a
/// fault plan) are skipped. `heads` is scratch: one `(key, cursor)`
/// per palette, where the key orders like the head opinion and
/// `u64::MAX` marks an exhausted palette.
fn merge_sorted_union(
    palettes: &[Option<PaletteBuffers>],
    heads: &mut Vec<(u64, usize)>,
    values: &mut Vec<Opinion>,
    weights: &mut Vec<f64>,
) {
    const DONE: u64 = u64::MAX;
    const UNDECIDED_KEY: u64 = u32::MAX as u64;
    fn key(p: &Option<PaletteBuffers>, cursor: usize) -> u64 {
        let Some((palette, runs)) = p else { return DONE };
        match runs.get(cursor) {
            Some(&(pi, _)) => {
                let o = palette[pi as usize];
                if o.is_undecided() {
                    UNDECIDED_KEY
                } else {
                    o.index() as u64
                }
            }
            None => DONE,
        }
    }
    values.clear();
    weights.clear();
    heads.clear();
    heads.extend(palettes.iter().map(|p| (key(p, 0), 0)));
    loop {
        let min = heads.iter().map(|&(k, _)| k).min().unwrap_or(DONE);
        if min == DONE {
            break;
        }
        let mut count = 0u64;
        for (p, head) in palettes.iter().zip(heads.iter_mut()) {
            if head.0 == min {
                let (_, runs) = p.as_ref().expect("a live head has a palette");
                count += runs[head.1].1;
                head.1 += 1;
                head.0 = key(p, head.1);
            }
        }
        debug_assert!(heads.iter().all(|&(k, _)| k > min), "palette runs must strictly ascend");
        let o = if min == UNDECIDED_KEY { Opinion::UNDECIDED } else { Opinion::new(min as u32) };
        values.push(o);
        weights.push(count as f64);
    }
}

/// Unions histogram palettes in any order through a dense scratch
/// (zero outside `touched`, and left that way) into parallel `values`
/// / `weights`: colors in first-touch order — palettes by origin, runs
/// in palette order — then the undecided mass.
fn scatter_union(
    palettes: &[Option<PaletteBuffers>],
    counts: &mut [u64],
    touched: &mut Vec<u32>,
    values: &mut Vec<Opinion>,
    weights: &mut Vec<f64>,
) {
    let mut undecided = 0u64;
    for (palette, runs) in palettes.iter().flatten() {
        for &(pi, c) in runs {
            let o = palette[pi as usize];
            if o.is_undecided() {
                undecided += c;
            } else {
                let i = o.index();
                if counts[i] == 0 {
                    touched.push(i as u32);
                }
                counts[i] += c;
            }
        }
    }
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

/// Applies a signed delta to an unsigned count (counts are bounded by
/// `n ≤ u32::MAX`, so the i64 arithmetic cannot overflow).
fn add_signed(base: u64, d: i64) -> u64 {
    let out = base as i64 + d;
    debug_assert!(out >= 0, "delta drove a count negative");
    out as u64
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
/// undecided count. The one histogram loop behind both batched data
/// planes' round-start snapshot, the report builder and the rejoin check.
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
/// reusable buffer of both wire modes and the report formats.
struct Worker<R, T> {
    shard_id: usize,
    partition: Partition,
    k_slots: usize,
    report_mode: ReportMode,
    wire_mode: WireMode,
    /// The effective sample access this worker dispatches on:
    /// the rule's declared access under [`ConsumeMode::Native`] on the
    /// batched wire, [`SampleAccess::OrderedWindow`] otherwise (the
    /// per-entry wire is per-draw by construction).
    access: SampleAccess,
    rule: R,
    /// The materialized agent vector — empty on a condensed shard,
    /// which holds its whole state in `hist` + `hist_undecided`.
    opinions: Vec<Opinion>,
    transport: T,
    rng: Pcg64,
    h: usize,
    lo: u32,
    /// One sample slot per (local node, pull): `samples[local·h + s]`.
    samples: Vec<Opinion>,

    // Condensed (histogram) representation state.
    /// Whether this worker is condensed (see the module docs): decided
    /// once at construction from the spec's [`ShardRepr`] and the
    /// effective sample access, never per round.
    condensed: bool,
    /// The shard's node count — `opinions.len()` on agent-backed
    /// shards, the seed-body mass on condensed ones.
    local_n: usize,
    /// Condensed local state: the decided counts as sorted
    /// `(slot, count)` pairs — ascending slots, positive counts,
    /// `O(#occupied)` memory. Kept sparse on purpose: rebuilding a
    /// dense [`Configuration`] every round costs three extra
    /// scatter/gather passes over the `k_slots` array, which is
    /// exactly the `O(local_n)`-class work condensation exists to
    /// avoid when `#occupied ≈ local_n`.
    hist_pairs: Vec<(u32, u64)>,
    /// Decided mass of `hist_pairs` (`Σ count`).
    hist_n: u64,
    /// Condensed local state: undecided node count.
    hist_undecided: u64,
    /// Whether `count_scratch` / `touched` still hold the post-step
    /// tally `hist` was just rebuilt from — [`Self::build_report`] then
    /// reports straight off them instead of re-mirroring the histogram
    /// (one fewer `O(#occupied)` scatter pass per condensed round).
    report_fresh: bool,
    /// Whether `hist_pairs` was just installed straight from the flat
    /// per-draw tally ([`Self::install_condensed_from_flat`]) — the
    /// dense scratch was never written, so a sparse untracked report is
    /// a clone of the pairs and every other report shape mirrors first.
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
    /// Condensed push-step output scratch (entries may repeat).
    step_out: Vec<(Opinion, u64)>,

    // Per-entry wire state.
    snapshot: Vec<Opinion>,
    outgoing: Vec<Vec<Request>>,
    reply_out: Vec<Vec<Reply>>,
    request_pool: Vec<Vec<Request>>,
    reply_pool: Vec<Vec<Reply>>,

    // Batched wire state.
    dest_theta: Vec<f64>,
    dest_counts: Vec<u64>,
    /// One serving RNG stream per requesting shard: palettes for origin
    /// `o` always draw from `serve_rngs[o]`, so batches can be served
    /// the moment they arrive (pipelined, like per-entry mode) while
    /// keeping the realized trajectory independent of channel arrival
    /// order.
    serve_rngs: Vec<Pcg64>,
    run_pool: Vec<Vec<TargetRun>>,
    palette_pool: Vec<PaletteBuffers>,
    /// Round-start local opinion histogram (dense, zero outside
    /// `snap_touched`) the palettes are sampled from.
    snap_counts: Vec<u64>,
    snap_touched: Vec<u32>,
    snap_undecided: u64,
    /// Per-origin draw aggregation buffer (zero between serves).
    serve_counts: Vec<u64>,
    theta_scratch: Vec<f64>,
    /// This round's received palettes, slotted by server shard so the
    /// sample expansion order is arrival-order independent.
    recv_palettes: Vec<Option<PaletteBuffers>>,
    /// Per-origin `(head key, cursor)` of the sorted push-union merge.
    merge_heads: Vec<(u64, usize)>,
    /// Union-histogram scratch for push rounds: parallel alias-table
    /// weights and the opinions they stand for.
    alias_weights: Vec<f64>,
    alias_values: Vec<Opinion>,

    // Incremental (delta-patched) round state. Engages only when the
    // spec asks for [`RoundStateMode::Incremental`] on a condensed,
    // batched, fault-free worker — decided once at construction; every
    // other combination keeps the rebuild paths bit-for-bit.
    inc: bool,
    /// Last round this shard broadcast a push histogram. Deltas are
    /// only lawful between *consecutive* push rounds; sender and every
    /// receiver derive the same full-vs-delta decision from the shared
    /// coordinator gear sequence, so the wire needs no new frame kind.
    push_sent_round: Option<u64>,
    /// The histogram as of the last push broadcast (the sender-side
    /// delta baseline) and its undecided mass.
    push_sent_prev: Vec<(u32, u64)>,
    push_sent_undecided: u64,
    /// Persistent push-union state: dense counts over `k_slots`, the
    /// ascending occupied-slot list, and the undecided mass. On delta
    /// rounds it is patched from `O(#changed)` wire entries instead of
    /// re-deduplicating `shards · #occupied` raw entries through the
    /// snapshot scratch.
    union_counts: Vec<u64>,
    union_occ: Vec<u32>,
    union_undecided: u64,
    /// Round the persistent union reflects.
    union_round: Option<u64>,
    /// Slots whose union membership (zero ↔ positive) flipped while
    /// folding this round's palettes, plus the merge scratch: the
    /// occupied list is rebuilt by one sorted merge per round instead
    /// of per-transition `Vec::insert` / `Vec::remove` (which is
    /// quadratic when a round flips many slots — the condensed
    /// closed-form step resamples every occupied slot).
    union_trans: Vec<u32>,
    union_occ_scratch: Vec<u32>,
    /// Persistent push-consume alias table (incremental rounds only):
    /// rebuilt from `alias_weights` only when the union actually
    /// changed. A stalled round with no global switches reuses last
    /// round's table outright — `Categorical::new` is deterministic in
    /// its weights, so the reuse is byte-invisible, not just lawful.
    push_cat: Option<Categorical>,
    push_cat_stale: bool,
    /// Persistent serving sampler over `k_slots + 1` weights (the
    /// trailing slot carries the undecided mass): patched from the
    /// histogram diff at each round-start snapshot, then drawn from in
    /// `O(log k)` per pull — small raw batches skip the `O(local_n)`
    /// flat-mirror fill entirely.
    serve_fen: DynamicCategorical,
    /// The `hist_pairs` state `serve_fen` currently reflects.
    serve_fen_prev: Vec<(u32, u64)>,
    /// Pooled sparse report bodies, recycled by the transport after
    /// framing — the last per-round allocation in the worker loop.
    report_pool: Vec<Vec<(u32, u64)>>,

    // Multiset-native consumption scratch.
    /// One node's window histogram (≤ h entries).
    window: Vec<(Opinion, u32)>,
    /// Pooled received-sample histogram (parallel to `pool_ops`):
    /// decreasing count order on the agent-backed path (the walk's
    /// early exit bites first), ascending opinion order — the
    /// condensed-step `values` contract — on the condensed path.
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
    /// Previous report's counts: the delta baseline of a condensed
    /// shard under [`ReportMode::Delta`] (empty otherwise).
    prev_counts: Vec<u64>,
    prev_touched: Vec<u32>,
    /// Previous report's opinion vector and undecided count: the delta
    /// baseline of an agent-backed shard under [`ReportMode::Delta`]
    /// (empty otherwise) — 4 bytes per node instead of 8 per slot.
    prev_opinions: Vec<Opinion>,
    prev_undecided: u64,

    // Fault-injection state (inert unless `plan.is_active()`).
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
        let ShardSpec {
            partition,
            k_slots,
            report_mode,
            wire_mode,
            consume_mode,
            repr,
            master_seed,
            plan,
            round_state,
        } = spec;
        let rng = Pcg64::seed_from_u64(trial_seed(master_seed, shard_id as u64 + 1));
        let h = rule.sample_count();
        let shards = partition.shards;
        let per_entry = wire_mode == WireMode::PerEntry;
        let batched = !per_entry;
        let tracking = report_mode == ReportMode::Delta;
        // The per-entry wire is per-draw by construction, so native
        // consumption only applies on the batched data plane.
        let access = if batched && consume_mode == ConsumeMode::Native {
            let access = rule.sample_access();
            assert!(
                access != SampleAccess::Multiset || rule.as_multiset().is_some(),
                "Multiset access requires a MultisetRule impl"
            );
            debug_assert!(access != SampleAccess::SinglePeer || h == 1);
            access
        } else {
            SampleAccess::OrderedWindow
        };
        // Condensed iff the representation asks for it and the rule's
        // effective access can consume histograms — and the init
        // variant must agree (the coordinator applies this predicate).
        let condensed = repr == ShardRepr::Histogram && access != SampleAccess::OrderedWindow;
        assert_eq!(
            condensed,
            matches!(init, ShardInit::Histogram(_)),
            "shard init variant must match the condensed predicate"
        );
        // Incremental round state applies on the batched data plane,
        // where the per-round sampler and union rebuilds live: the
        // push gear's delta broadcasts (agent-backed and condensed
        // alike) and the condensed serving sampler. Per-entry workers
        // have no per-round rebuild to amortize, and active fault
        // plans re-derive state across drop/rejoin windows that a
        // delta chain cannot span — both keep the rebuild path
        // regardless of the knob.
        let inc = round_state == RoundStateMode::Incremental && batched && !plan.is_active();
        let (opinions, hist_pairs, local_n) = match init {
            ShardInit::Agents(opinions) => {
                let local_n = opinions.len();
                (opinions, Vec::new(), local_n)
            }
            ShardInit::Histogram(mut body) => {
                // Canonicalize the seed body into the sorted-pairs
                // invariant (ascending slots, positive counts, no
                // duplicates — repeated slots accumulate).
                body.sort_unstable();
                let mut pairs: Vec<(u32, u64)> = Vec::with_capacity(body.len());
                for (slot, count) in body {
                    assert!((slot as usize) < k_slots, "seed body: slot {slot} out of range");
                    if count == 0 {
                        continue;
                    }
                    match pairs.last_mut() {
                        Some(last) if last.0 == slot => last.1 += count,
                        _ => pairs.push((slot, count)),
                    }
                }
                let local_n = pairs.iter().map(|&(_, c)| c).sum::<u64>() as usize;
                (Vec::new(), pairs, local_n)
            }
        };

        let mut worker = Self {
            shard_id,
            partition,
            k_slots,
            report_mode,
            wire_mode,
            access,
            rule,
            rng,
            h,
            lo: partition.range(shard_id).start,
            // Single-peer-native workers never materialize samples — both
            // gears write the dealt multiset straight into `opinions` and
            // there is no ordered fallback on that path. Condensed
            // workers never materialize anything per-agent at all.
            samples: if access == SampleAccess::SinglePeer || condensed {
                Vec::new()
            } else {
                vec![Opinion::new(0); local_n * h]
            },
            condensed,
            local_n,
            hist_n: local_n as u64,
            hist_undecided: 0,
            hist_pairs,
            report_fresh: false,
            report_pairs_fresh: false,
            consumed_flat: Vec::new(),
            radix_tmp: Vec::new(),
            radix_counts: Vec::new(),
            serve_flat: Vec::new(),
            serve_flat_fresh: false,
            groups: Vec::new(),
            step_out: Vec::new(),
            snapshot: if per_entry { opinions.clone() } else { Vec::new() },
            outgoing: if per_entry {
                (0..shards).map(|_| Vec::new()).collect()
            } else {
                Vec::new()
            },
            reply_out: if per_entry {
                (0..shards).map(|_| Vec::new()).collect()
            } else {
                Vec::new()
            },
            request_pool: Vec::new(),
            reply_pool: Vec::new(),
            dest_theta: if batched {
                (0..shards).map(|d| partition.range(d).len() as f64).collect()
            } else {
                Vec::new()
            },
            dest_counts: if batched { vec![0; shards] } else { Vec::new() },
            serve_rngs: if batched {
                // A distinct stream per (server, origin) pair, salted so
                // it never collides with the shard round streams.
                (0..shards)
                    .map(|origin| {
                        let pair = (shard_id * shards + origin) as u64;
                        Pcg64::seed_from_u64(trial_seed(
                            master_seed ^ 0x9E37_79B9_7F4A_7C15,
                            pair + 1,
                        ))
                    })
                    .collect()
            } else {
                Vec::new()
            },
            run_pool: Vec::new(),
            palette_pool: Vec::new(),
            snap_counts: if batched { vec![0; k_slots] } else { Vec::new() },
            snap_touched: Vec::new(),
            snap_undecided: 0,
            serve_counts: if batched { vec![0; k_slots] } else { Vec::new() },
            theta_scratch: Vec::new(),
            recv_palettes: if batched { (0..shards).map(|_| None).collect() } else { Vec::new() },
            merge_heads: Vec::new(),
            alias_weights: Vec::new(),
            alias_values: Vec::new(),
            inc,
            push_sent_round: None,
            push_sent_prev: Vec::new(),
            push_sent_undecided: 0,
            union_counts: if inc { vec![0; k_slots] } else { Vec::new() },
            union_occ: Vec::new(),
            union_undecided: 0,
            union_round: None,
            union_trans: Vec::new(),
            union_occ_scratch: Vec::new(),
            push_cat: None,
            push_cat_stale: true,
            serve_fen: if inc && condensed {
                DynamicCategorical::with_slots(k_slots + 1)
            } else {
                DynamicCategorical::with_slots(0)
            },
            serve_fen_prev: Vec::new(),
            report_pool: Vec::new(),
            window: Vec::new(),
            pool_counts: Vec::new(),
            pool_ops: Vec::new(),
            pool_touched: Vec::new(),
            group_block: Vec::new(),
            flat_pool: Vec::new(),
            count_scratch: vec![0; k_slots],
            touched: Vec::new(),
            prev_counts: if tracking && condensed { vec![0; k_slots] } else { Vec::new() },
            prev_touched: Vec::new(),
            prev_opinions: Vec::new(),
            prev_undecided: 0,
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
            transport,
        };
        if tracking {
            // The round-0 baseline the first delta report is relative to.
            worker.rebaseline();
        }
        worker
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
    /// shards mirror `hist` (ascending slot order — a lawful wire-order
    /// difference) and invalidate the per-round serving alias.
    fn snapshot_round_start(&mut self) {
        self.snap_touched.clear();
        if self.condensed {
            self.mirror_hist(Mirror::Snapshot);
            self.snap_undecided = self.hist_undecided;
            self.serve_flat_fresh = false;
            if self.inc {
                self.patch_serve_fen();
            }
        } else {
            self.snap_undecided =
                count_opinions(&self.opinions, &mut self.snap_counts, &mut self.snap_touched);
        }
    }

    /// Patches the persistent serving sampler to the current
    /// histogram: a two-pointer walk over the (both ascending) current
    /// and previously-reflected pair lists — `O(#occupied)` sequential
    /// compares, but tree traffic only for the `O(#changed)` slots
    /// whose count actually moved (`set` is a no-op on equal counts).
    /// The trailing weight slot carries the undecided mass.
    fn patch_serve_fen(&mut self) {
        debug_assert!(self.inc);
        let fen = &mut self.serve_fen;
        let cur = &self.hist_pairs;
        let prev = &self.serve_fen_prev;
        let (mut i, mut j) = (0usize, 0usize);
        while i < cur.len() || j < prev.len() {
            if j == prev.len() || (i < cur.len() && cur[i].0 < prev[j].0) {
                fen.set(cur[i].0 as usize, cur[i].1);
                i += 1;
            } else if i == cur.len() || prev[j].0 < cur[i].0 {
                fen.set(prev[j].0 as usize, 0);
                j += 1;
            } else {
                fen.set(cur[i].0 as usize, cur[i].1);
                i += 1;
                j += 1;
            }
        }
        fen.set(self.k_slots, self.hist_undecided);
        self.serve_fen_prev.clone_from(&self.hist_pairs);
        debug_assert_eq!(
            self.serve_fen.total(),
            self.local_n as u64,
            "serving sampler must carry exactly the shard's mass"
        );
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

    /// Installs a condensed round's post-step tally — accumulated in
    /// `count_scratch` / `touched` — as the new histogram: one sort of
    /// the touched slots plus one gather pass, `O(#occupied ·
    /// log #occupied)` with no dense traffic. The scratch is
    /// deliberately left holding the tally and flagged fresh: the
    /// round's report reads it directly ([`Self::build_report`] zeroes
    /// it behind the report, as it always has).
    fn install_condensed(&mut self, undecided: u64) {
        debug_assert!(self.condensed);
        // The sorted-pairs invariant; also canonicalizes the report
        // body order downstream of the first-touch tally.
        self.touched.sort_unstable();
        self.hist_pairs.clear();
        let mut mass = 0u64;
        for &i in &self.touched {
            let c = self.count_scratch[i as usize];
            debug_assert!(c > 0, "tallies only ever touch slots they increment");
            mass += c;
            self.hist_pairs.push((i, c));
        }
        self.hist_n = mass;
        self.hist_undecided = undecided;
        self.report_fresh = true;
        debug_assert_eq!(
            mass + undecided,
            self.local_n as u64,
            "condensed step must conserve the shard's mass"
        );
    }

    /// Installs the post-step histogram from the flat per-draw tally
    /// (`consumed_flat`): sort the raw slot indices, then run-length
    /// encode the runs straight into the sorted `hist_pairs`. The
    /// sentinel `u32::MAX` entries (UNDECIDED) sort to the tail and
    /// become the undecided mass. The dense scratch is never touched,
    /// so the report is flagged `report_pairs_fresh` instead of
    /// `report_fresh`.
    fn install_condensed_from_flat(&mut self) {
        debug_assert!(self.condensed);
        radix_sort_u32(&mut self.consumed_flat, &mut self.radix_tmp, &mut self.radix_counts);
        let dec_end = self.consumed_flat.partition_point(|&s| s != u32::MAX);
        let undecided = (self.consumed_flat.len() - dec_end) as u64;
        self.hist_pairs.clear();
        let mut i = 0;
        while i < dec_end {
            let s = self.consumed_flat[i];
            let mut j = i + 1;
            while j < dec_end && self.consumed_flat[j] == s {
                j += 1;
            }
            self.hist_pairs.push((s, (j - i) as u64));
            i = j;
        }
        self.consumed_flat.clear();
        self.hist_n = dec_end as u64;
        self.hist_undecided = undecided;
        self.report_pairs_fresh = true;
        debug_assert_eq!(
            self.hist_n + undecided,
            self.local_n as u64,
            "condensed step must conserve the shard's mass"
        );
    }

    fn round(
        &mut self,
        round: u64,
        format: ReportFormat,
        data: DataFormat,
    ) -> Result<(), TransportLost> {
        self.round_no = round;
        let faulty = self.plan.is_active();
        let mut messages_sent = std::mem::take(&mut self.carry_messages);
        if faulty {
            self.flush_delayed();
        }
        match (self.wire_mode, data, self.access) {
            (WireMode::PerEntry, _, _) => {
                debug_assert!(!faulty, "fault plans require the batched wire");
                self.pull_per_entry(&mut messages_sent)?;
                self.apply_ordered_windows();
            }
            (WireMode::Batched, DataFormat::Pull, access) => {
                if faulty {
                    self.pull_exchange_faulty(&mut messages_sent)?;
                } else {
                    self.pull_exchange(&mut messages_sent)?;
                }
                match (self.condensed, access) {
                    (false, SampleAccess::OrderedWindow) => {
                        self.deal_palettes_ordered();
                        self.apply_ordered_windows();
                    }
                    (false, SampleAccess::SinglePeer) => self.deal_palettes_single_peer(),
                    (false, SampleAccess::Multiset) => self.consume_palettes_multiset(),
                    (true, SampleAccess::SinglePeer) => self.consume_pull_condensed_single_peer(),
                    (true, SampleAccess::Multiset) => self.consume_pull_condensed_multiset(),
                    (true, SampleAccess::OrderedWindow) => {
                        unreachable!("ordered-window rules are never condensed")
                    }
                }
            }
            (WireMode::Batched, DataFormat::Push, access) => {
                if faulty {
                    self.push_exchange_faulty(&mut messages_sent)?;
                } else {
                    self.push_exchange(&mut messages_sent)?;
                }
                match (self.condensed, access) {
                    (false, SampleAccess::OrderedWindow) => {
                        self.sample_push_ordered();
                        self.apply_ordered_windows();
                    }
                    (false, SampleAccess::SinglePeer) => self.sample_push_single_peer(),
                    (false, SampleAccess::Multiset) => self.sample_push_multiset(),
                    (true, SampleAccess::SinglePeer) => self.consume_push_condensed_single_peer(),
                    (true, SampleAccess::Multiset) => self.consume_push_condensed_multiset(),
                    (true, SampleAccess::OrderedWindow) => {
                        unreachable!("ordered-window rules are never condensed")
                    }
                }
            }
        }
        if self.condensed {
            // The condensed contract: no per-agent state, ever — a
            // round that materialized opinions or samples has silently
            // fallen off the O(#occupied) path.
            debug_assert!(
                self.opinions.is_empty() && self.samples.is_empty() && self.snapshot.is_empty(),
                "condensed shard materialized per-agent state"
            );
        }

        // Sample the wire counters after the exchange and before the
        // report itself is framed: a report's own bytes land in the
        // next round's report (the coordinator's per-shard maximum
        // closes the one-round tail at shutdown).
        let wire_sent = self.transport.bytes_sent();
        let wire_received = self.transport.bytes_received();
        let (mut body, undecided, changed_slots) = self.build_report(format);
        if faulty {
            self.corrupt_report_if_byzantine(&mut body);
        }
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
        if !faulty {
            self.send_report_pooled(report);
            return Ok(());
        }
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
        self.report_fresh = false;
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
                self.rebaseline();
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
        if self.report_mode == ReportMode::Delta {
            self.rebaseline();
        }
    }

    /// Resets the [`ReportMode::Delta`] baseline to the current state,
    /// so the next delta report is relative to it: a copy of the
    /// opinion vector on agent-backed shards, a mirror of the
    /// histogram into `prev_counts` on condensed ones.
    fn rebaseline(&mut self) {
        if self.condensed {
            for &i in &self.prev_touched {
                self.prev_counts[i as usize] = 0;
            }
            self.prev_touched.clear();
            self.mirror_hist(Mirror::Prev);
        } else {
            self.prev_opinions.clone_from(&self.opinions);
            self.prev_undecided = self.opinions.iter().filter(|o| o.is_undecided()).count() as u64;
        }
    }

    /// The PR 3 data plane: one [`Request`]/[`Reply`] entry per pull.
    fn pull_per_entry(&mut self, messages_sent: &mut u64) -> Result<(), TransportLost> {
        let local_n = self.opinions.len();
        let shards = self.partition.shards;
        // Freeze the round-start snapshot (synchrony: replies quote it).
        self.snapshot.clone_from(&self.opinions);

        // Issue h uniform pull requests per local node, batched per
        // destination shard. Every destination gets exactly one request
        // batch, empty or not — batches close the request phase.
        for local in 0..local_n {
            let requester = self.lo + local as u32;
            for slot in 0..self.h {
                let target = self.rng.gen_range(0..self.partition.n);
                self.outgoing[self.partition.owner(target)].push(Request {
                    target,
                    requester,
                    slot: slot as u8,
                });
            }
        }
        for (dest, out) in self.outgoing.iter_mut().enumerate() {
            let batch = std::mem::replace(out, self.request_pool.pop().unwrap_or_default());
            *messages_sent += batch.len() as u64;
            self.transport.send(dest, ShardMessage::Requests(batch));
        }

        // Serve requests as they arrive and absorb replies until both
        // sides of the round are complete. Replies are counted by entry
        // (`local_n · h` expected), so empty reply batches are skipped.
        let mut request_batches = 0usize;
        let expected_replies = local_n * self.h;
        let mut replies_received = 0usize;
        while request_batches < shards || replies_received < expected_replies {
            match self.transport.recv()? {
                ShardMessage::Requests(mut batch) => {
                    request_batches += 1;
                    for req in batch.drain(..) {
                        let opinion = self.snapshot[(req.target - self.lo) as usize];
                        self.reply_out[self.partition.owner(req.requester)].push(Reply {
                            requester: req.requester,
                            slot: req.slot,
                            opinion,
                        });
                    }
                    self.request_pool.push(batch);
                    for (dest, out) in self.reply_out.iter_mut().enumerate() {
                        if out.is_empty() {
                            continue;
                        }
                        let replies =
                            std::mem::replace(out, self.reply_pool.pop().unwrap_or_default());
                        *messages_sent += replies.len() as u64;
                        self.transport.send(dest, ShardMessage::Replies(replies));
                    }
                }
                ShardMessage::Replies(mut batch) => {
                    replies_received += batch.len();
                    for rep in batch.drain(..) {
                        let local = (rep.requester - self.lo) as usize;
                        self.samples[local * self.h + rep.slot as usize] = rep.opinion;
                    }
                    self.reply_pool.push(batch);
                }
                _ => unreachable!("batched message on a per-entry cluster"),
            }
        }
        Ok(())
    }

    /// Applies the update rule to the dealt sample windows, in
    /// deterministic node order — the ordered-window consumption shared
    /// by the per-entry wire and [`ConsumeMode::Ordered`].
    fn apply_ordered_windows(&mut self) {
        let local_n = self.opinions.len();
        for local in 0..local_n {
            let own = self.opinions[local];
            let window = &self.samples[local * self.h..(local + 1) * self.h];
            self.opinions[local] = self.rule.update(own, window, &mut self.rng);
        }
    }

    /// The aggregate data plane's exchange phase: one [`PullBatch`] and
    /// one [`OpinionPalette`] per peer per round. Ends with this round's
    /// palettes parked in `recv_palettes`, consumption left to the
    /// [`SampleAccess`]-dispatched caller.
    fn pull_exchange(&mut self, messages_sent: &mut u64) -> Result<(), TransportLost> {
        let local_n = self.local_n;
        let shards = self.partition.shards;
        let total = (local_n * self.h) as u64;

        // Round-start local opinion histogram: what the palettes this
        // shard serves are sampled from.
        self.snapshot_round_start();

        // Split the round's `local_n · h` uniform pulls over the
        // destination shards: a multinomial on the range sizes.
        sample_multinomial_into(total, &self.dest_theta, &mut self.rng, &mut self.dest_counts);
        for dest in 0..shards {
            let mut runs = self.run_pool.pop().unwrap_or_default();
            runs.clear();
            let m = self.dest_counts[dest];
            if m > 0 {
                let len = self.partition.range(dest).len() as u32;
                runs.push(TargetRun { start: 0, len, count: m });
            }
            *messages_sent += runs.len() as u64;
            self.transport.send(
                dest,
                ShardMessage::Pull(PullBatch {
                    origin: self.shard_id as u32,
                    round: self.round_no,
                    target_runs: runs,
                }),
            );
        }

        // Absorb this round's pulls and palettes. Pull batches are
        // served the moment they arrive — each origin has its own
        // serving RNG stream, so the trajectory does not depend on the
        // (nondeterministic) arrival order. Every message received here
        // belongs to this round: the coordinator's report barrier keeps
        // the fleet in lockstep (a shard reports only after consuming
        // exactly `shards` pulls and `shards` palettes, and no shard
        // starts round r+1 before every round-r report is in).
        let mut pulls = 0usize;
        let mut palettes = 0usize;
        while pulls < shards || palettes < shards {
            match self.transport.recv()? {
                ShardMessage::Pull(batch) => {
                    assert!(pulls < shards, "round lockstep: unexpected extra pull batch");
                    pulls += 1;
                    self.serve_batch(&batch, messages_sent);
                    self.run_pool.push(batch.target_runs);
                }
                ShardMessage::Palette(p) => {
                    assert!(
                        palettes < shards && self.recv_palettes[p.origin as usize].is_none(),
                        "round lockstep: unexpected extra palette"
                    );
                    self.recv_palettes[p.origin as usize] = Some((p.palette, p.runs));
                    palettes += 1;
                }
                _ => unreachable!("per-entry message on a batched cluster"),
            }
        }

        // Serving is done for the round: clear the snapshot histogram.
        for &i in &self.snap_touched {
            self.snap_counts[i as usize] = 0;
        }
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

    /// Single-peer consumption of the pull gear: the next opinion vector
    /// **is** the received sample multiset, expanded straight into
    /// `opinions` with no Fisher–Yates, no sample buffer, and no rule
    /// calls.
    ///
    /// Lawful because [`SampleAccess::SinglePeer`] updates adopt their
    /// one sample unconditionally (own-free), and every cluster
    /// observable — reports, served opinions, next-round pulls — depends
    /// on a shard's opinions only through their *multiset* (uniform
    /// draws within a range are permutation-invariant), so the
    /// deterministic in-order assignment realizes exactly the Uniform
    /// Pull configuration law.
    fn deal_palettes_single_peer(&mut self) {
        debug_assert_eq!(self.h, 1, "single-peer rules pull one sample");
        let shards = self.partition.shards;
        let mut pos = 0usize;
        for origin in 0..shards {
            let (palette, runs) = self.recv_palettes[origin].take().expect("one palette per peer");
            if runs.is_empty() {
                self.opinions[pos..pos + palette.len()].copy_from_slice(&palette);
                pos += palette.len();
            } else {
                for &(pi, c) in &runs {
                    let o = palette[pi as usize];
                    for _ in 0..c {
                        self.opinions[pos] = o;
                        pos += 1;
                    }
                }
            }
            self.palette_pool.push((palette, runs));
        }
        debug_assert_eq!(pos, self.opinions.len(), "palette mass must equal the node count");
    }

    /// Multiset consumption of the pull gear: the received palettes are
    /// taken directly as one pooled histogram and dealt to nodes as
    /// per-node window count vectors through a multivariate
    /// hypergeometric [`WindowSplitter`] — deleting the inside-out
    /// Fisher–Yates dealing pass (and the per-draw window reads) on this
    /// path.
    ///
    /// The pooled multiset is that of `local_n · h` iid Uniform Pull
    /// draws; dealing it uniformly into `h`-windows (which the
    /// sequential hypergeometric split realizes exactly) makes the
    /// windows jointly distributed as iid ordered windows' multisets,
    /// and the dealing is independent of the nodes' own opinions, so
    /// `update_from_counts` sees exactly the ordered path's law. In the
    /// diverse regime — more live categories than [`WALK_CANDIDATE_CAP`]
    /// or an [`expected_window_visits_counts`] statistic above `h` —
    /// the conditional walk would do more per-node work than it saves,
    /// so the worker falls back to the ordered dealing.
    fn consume_palettes_multiset(&mut self) {
        let shards = self.partition.shards;
        // A non-empty *raw* palette is the serving side's own verdict
        // that the regime is too diverse for histograms to compress —
        // and a walk-worthy (concentrated) pool never ships raw — so
        // skip even the tally pass and deal ordered. This keeps the
        // diverse-regime native path byte-identical in cost to the
        // ordered one.
        let any_raw = (0..shards).any(|origin| {
            let (palette, runs) =
                self.recv_palettes[origin].as_ref().expect("one palette per peer");
            runs.is_empty() && !palette.is_empty()
        });
        if any_raw {
            self.deal_palettes_ordered();
            self.apply_ordered_windows();
            return;
        }
        // Tally the pooled histogram by reference (the palettes stay
        // parked in case the diverse fallback needs the ordered path),
        // reusing `serve_counts` — zero outside serves — as the dense
        // scratch.
        self.pool_touched.clear();
        let mut pool_undecided = 0u64;
        for origin in 0..shards {
            let (palette, runs) =
                self.recv_palettes[origin].as_ref().expect("one palette per peer");
            let mut tally = |o: Opinion, c: u64| {
                if o.is_undecided() {
                    pool_undecided += c;
                } else {
                    let i = o.index();
                    if self.serve_counts[i] == 0 {
                        self.pool_touched.push(i as u32);
                    }
                    self.serve_counts[i] += c;
                }
            };
            if runs.is_empty() {
                for &o in palette {
                    tally(o, 1);
                }
            } else {
                for &(pi, c) in runs {
                    tally(palette[pi as usize], c);
                }
            }
        }
        let d = self.pool_touched.len() + usize::from(pool_undecided > 0);

        // Gather the pool in decreasing-count order (so the split's
        // early exit bites), zeroing the scratch as it drains; bail to
        // the ordered dealing when the pool is too diverse for the
        // per-node conditional walk to beat the per-draw dealing.
        let walkable = d <= WALK_CANDIDATE_CAP && {
            let mut pool: Vec<(u64, Opinion)> = Vec::with_capacity(d);
            for &i in &self.pool_touched {
                pool.push((self.serve_counts[i as usize], Opinion::new(i)));
            }
            if pool_undecided > 0 {
                pool.push((pool_undecided, Opinion::UNDECIDED));
            }
            pool.sort_by_key(|&(c, _)| std::cmp::Reverse(c));
            self.pool_counts.clear();
            self.pool_ops.clear();
            for &(c, o) in &pool {
                self.pool_counts.push(c);
                self.pool_ops.push(o);
            }
            expected_window_visits_counts(&self.pool_counts, self.h) <= self.h as f64
        };
        for &i in &self.pool_touched {
            self.serve_counts[i as usize] = 0;
        }
        if !walkable {
            self.deal_palettes_ordered();
            self.apply_ordered_windows();
            return;
        }

        // Return the palette buffers to the pool.
        for origin in 0..shards {
            let buffers = self.recv_palettes[origin].take().expect("one palette per peer");
            self.palette_pool.push(buffers);
        }

        let local_n = self.opinions.len();
        let h = self.h as u64;
        let msr = self.rule.as_multiset().expect("Multiset access requires a MultisetRule impl");
        let ops = &self.pool_ops;
        let mut splitter = WindowSplitter::new(&mut self.pool_counts);
        for local in 0..local_n {
            self.window.clear();
            let window = &mut self.window;
            splitter.draw_window(h, &mut self.rng, |cat, x| window.push((ops[cat], x as u32)));
            let own = self.opinions[local];
            self.opinions[local] = msr.update_from_counts(own, &self.window, &mut self.rng);
        }
        debug_assert_eq!(splitter.remaining(), 0, "the pool must be dealt exactly");
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
        let mut pool_undecided = 0u64;
        for origin in 0..shards {
            let (palette, runs) = self.recv_palettes[origin].take().expect("one palette per peer");
            {
                let mut tally = |o: Opinion, c: u64| {
                    if o.is_undecided() {
                        pool_undecided += c;
                    } else {
                        let i = o.index();
                        if self.serve_counts[i] == 0 {
                            self.pool_touched.push(i as u32);
                        }
                        self.serve_counts[i] += c;
                    }
                };
                if runs.is_empty() {
                    for &o in &palette {
                        tally(o, 1);
                    }
                } else {
                    for &(pi, c) in &runs {
                        tally(palette[pi as usize], c);
                    }
                }
            }
            self.palette_pool.push((palette, runs));
        }

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
        let mut next_undecided = 0u64;
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
        for gi in 0..self.step_out.len() {
            let (o, c) = self.step_out[gi];
            if c == 0 {
                continue;
            }
            if o.is_undecided() {
                next_undecided += c;
            } else {
                let i = o.index();
                if self.count_scratch[i] == 0 {
                    self.touched.push(i as u32);
                }
                self.count_scratch[i] += c;
            }
        }
        self.install_condensed(next_undecided);
    }

    /// The push data plane's exchange phase for the concentrated
    /// regime: no pulls at all. Every shard broadcasts its round-start
    /// opinion histogram; each requester unions the `shards` received
    /// histograms — which is exactly the global round-start opinion
    /// distribution (a uniform node is a shard ∝ size, then a uniform
    /// node within it) — into the parallel `alias_weights` /
    /// `alias_values` scratch. Sampling from the union is left to the
    /// [`SampleAccess`]-dispatched caller.
    fn push_exchange(&mut self, messages_sent: &mut u64) -> Result<(), TransportLost> {
        if self.inc {
            return self.push_exchange_incremental(messages_sent);
        }
        let (body, bruns) = self.push_body();
        self.broadcast_palette(body, bruns, messages_sent);
        self.recv_push_palettes()?;
        self.union_palettes();
        Ok(())
    }

    /// The round-start opinion histogram as a push palette. Condensed
    /// shards read it straight off `hist_pairs` (ascending, undecided
    /// last); agent-backed shards tally their opinions through the
    /// snapshot scratch (first-touch order) and reset it behind the
    /// gather.
    fn push_body(&mut self) -> PaletteBuffers {
        let (mut body, mut bruns) = self.palette_pool.pop().unwrap_or_default();
        body.clear();
        bruns.clear();
        if self.condensed {
            hist_palette(&self.hist_pairs, self.hist_undecided, &mut body, &mut bruns);
            return (body, bruns);
        }
        self.snapshot_round_start();
        for &i in &self.snap_touched {
            bruns.push((body.len() as u32, self.snap_counts[i as usize]));
            body.push(Opinion::new(i));
            self.snap_counts[i as usize] = 0;
        }
        self.snap_touched.clear();
        if self.snap_undecided > 0 {
            bruns.push((body.len() as u32, self.snap_undecided));
            body.push(Opinion::UNDECIDED);
        }
        (body, bruns)
    }

    /// Broadcasts this round's push palette to the whole fleet (self
    /// included) through one [`Transport::broadcast`] — one frame
    /// length for all `shards` copies, extra copies drawn from the
    /// palette pool.
    fn broadcast_palette(
        &mut self,
        palette: Vec<Opinion>,
        runs: Vec<(u32, u64)>,
        messages_sent: &mut u64,
    ) {
        let shards = self.partition.shards as u64;
        *messages_sent += shards * (palette.len() + runs.len()) as u64;
        let msg =
            OpinionPalette { origin: self.shard_id as u32, round: self.round_no, palette, runs };
        self.transport.broadcast(msg, &mut self.palette_pool);
    }

    /// Collects the fleet's push histograms into `recv_palettes`. The
    /// coordinator's report barrier keeps rounds in lockstep, so
    /// exactly `shards` palettes — and nothing else — arrive here (a
    /// push round has no pulls at all).
    fn recv_push_palettes(&mut self) -> Result<(), TransportLost> {
        for _ in 0..self.partition.shards {
            match self.transport.recv()? {
                ShardMessage::Palette(p) => {
                    assert!(
                        self.recv_palettes[p.origin as usize].is_none(),
                        "round lockstep: unexpected extra palette"
                    );
                    self.recv_palettes[p.origin as usize] = Some((p.palette, p.runs));
                }
                _ => unreachable!("round lockstep: pull or per-entry message in a push round"),
            }
        }
        Ok(())
    }

    /// The incremental push gear: persistent union, delta broadcasts.
    ///
    /// Between *consecutive* push rounds every receiver still holds
    /// last round's union, so each shard broadcasts only its histogram
    /// *delta* — signed per-slot changes, zigzag-encoded in the run
    /// count field — and receivers patch their persistent union in
    /// `O(#changed · log #occupied)` instead of re-deduplicating
    /// `shards · #occupied` raw entries. The first push round after a
    /// pull round (or boot) broadcasts the full histogram and resets
    /// the union. Sender and receivers derive the same full-vs-delta
    /// decision from the shared coordinator gear sequence (did the
    /// previous round push?), so the wire stays self-describing with
    /// no new message type.
    ///
    /// Condensed shards diff their primary `hist_pairs`
    /// representation directly. Agent-backed shards — where the
    /// stalled Theorem-5 regime actually lives, with `O(1)` opinion
    /// switches per round — materialize the round-start tally into the
    /// same sorted-pairs form first (`O(#occupied · log #occupied)`
    /// against the rebuild path's `shards · #occupied` broadcast
    /// copies and union re-deduplication). The union no longer routes
    /// through the snapshot scratch on either representation.
    fn push_exchange_incremental(&mut self, messages_sent: &mut u64) -> Result<(), TransportLost> {
        if !self.condensed {
            // Tally the round-start opinions, then sort into the
            // ascending `hist_pairs` invariant the delta diff (and the
            // next round's baseline) expects. The dense scratch is
            // reset behind the gather, as the broadcast path does.
            self.snapshot_round_start();
            self.snap_touched.sort_unstable();
            self.hist_pairs.clear();
            for &i in &self.snap_touched {
                self.hist_pairs.push((i, self.snap_counts[i as usize]));
                self.snap_counts[i as usize] = 0;
            }
            self.hist_n = self.local_n as u64 - self.snap_undecided;
            self.hist_undecided = self.snap_undecided;
            self.snap_touched.clear();
        }
        let prev_round = self.round_no.checked_sub(1);
        let delta_round = prev_round.is_some()
            && self.push_sent_round == prev_round
            && self.union_round == prev_round;

        let (mut body, mut bruns) = self.palette_pool.pop().unwrap_or_default();
        body.clear();
        bruns.clear();
        if delta_round {
            // Two-pointer diff of the (ascending) current histogram
            // against the last broadcast: O(#occupied) compares,
            // O(#changed) emitted entries.
            let cur = &self.hist_pairs;
            let prev = &self.push_sent_prev;
            let (mut i, mut j) = (0usize, 0usize);
            while i < cur.len() || j < prev.len() {
                let (slot, d) = if j == prev.len() || (i < cur.len() && cur[i].0 < prev[j].0) {
                    let (s, c) = cur[i];
                    i += 1;
                    (s, c as i64)
                } else if i == cur.len() || prev[j].0 < cur[i].0 {
                    let (s, c) = prev[j];
                    j += 1;
                    (s, -(c as i64))
                } else {
                    let (s, c) = cur[i];
                    let p = prev[j].1;
                    i += 1;
                    j += 1;
                    (s, c as i64 - p as i64)
                };
                if d != 0 {
                    bruns.push((body.len() as u32, zigzag(d)));
                    body.push(Opinion::new(slot));
                }
            }
            let du = self.hist_undecided as i64 - self.push_sent_undecided as i64;
            if du != 0 {
                bruns.push((body.len() as u32, zigzag(du)));
                body.push(Opinion::UNDECIDED);
            }
        } else {
            hist_palette(&self.hist_pairs, self.hist_undecided, &mut body, &mut bruns);
        }
        // Record the baseline the next round's delta is relative to.
        self.push_sent_prev.clone_from(&self.hist_pairs);
        self.push_sent_undecided = self.hist_undecided;
        self.push_sent_round = Some(self.round_no);

        self.broadcast_palette(body, bruns, messages_sent);
        self.recv_push_palettes()?;
        self.union_apply(delta_round);
        Ok(())
    }

    /// Folds the received palettes into the persistent union. A full
    /// round resets the union first; a delta round treats every entry
    /// as a zigzag-signed count change. Slots whose membership flips
    /// (zero ↔ positive) are collected and the ascending occupied list
    /// is rebuilt by one sorted merge — `O(#occupied + #flips ·
    /// log #flips)` per round regardless of how many slots flip
    /// (per-flip `Vec::insert` would go quadratic on wide unions). The
    /// alias scratch is materialized from it — ascending slots,
    /// undecided last — so the push consume paths run unchanged (a
    /// lawful ordering difference from the rebuild union's first-touch
    /// order).
    fn union_apply(&mut self, delta_round: bool) {
        let shards = self.partition.shards;
        if !delta_round {
            for &i in &self.union_occ {
                self.union_counts[i as usize] = 0;
            }
            self.union_occ.clear();
            self.union_undecided = 0;
        }
        debug_assert!(self.union_trans.is_empty());
        let mut changed = !delta_round;
        for origin in 0..shards {
            let Some((palette, runs)) = self.recv_palettes[origin].take() else {
                continue;
            };
            changed |= !runs.is_empty();
            for &(pi, c) in &runs {
                let o = palette[pi as usize];
                let d = if delta_round { unzigzag(c) } else { c as i64 };
                if o.is_undecided() {
                    self.union_undecided = add_signed(self.union_undecided, d);
                } else {
                    let slot = o.index();
                    let old = self.union_counts[slot];
                    let new = add_signed(old, d);
                    self.union_counts[slot] = new;
                    if (old == 0) != (new == 0) {
                        self.union_trans.push(slot as u32);
                    }
                }
            }
            self.palette_pool.push((palette, runs));
        }
        if !self.union_trans.is_empty() {
            // A slot can flip more than once across the fleet's deltas
            // (in, then out again): dedup the transition list and let
            // the merge read final membership off the counts
            // themselves.
            self.union_trans.sort_unstable();
            self.union_trans.dedup();
            let merged = &mut self.union_occ_scratch;
            merged.clear();
            let (mut i, mut j) = (0usize, 0usize);
            let occ = &self.union_occ;
            let trans = &self.union_trans;
            while i < occ.len() || j < trans.len() {
                let slot = if j == trans.len() || (i < occ.len() && occ[i] < trans[j]) {
                    let s = occ[i];
                    i += 1;
                    s
                } else {
                    if i < occ.len() && occ[i] == trans[j] {
                        i += 1;
                    }
                    let s = trans[j];
                    j += 1;
                    s
                };
                if self.union_counts[slot as usize] > 0 {
                    merged.push(slot);
                }
            }
            std::mem::swap(&mut self.union_occ, &mut self.union_occ_scratch);
            self.union_trans.clear();
        }
        self.union_round = Some(self.round_no);
        // An all-empty delta round left the union — and therefore the
        // alias scratch — exactly as the previous round materialized
        // it: skip the O(#occupied) gather and keep the consume-side
        // table fresh.
        if changed {
            self.push_cat_stale = true;
            self.alias_weights.clear();
            self.alias_values.clear();
            for &i in &self.union_occ {
                self.alias_weights.push(self.union_counts[i as usize] as f64);
                self.alias_values.push(Opinion::new(i));
            }
            if self.union_undecided > 0 {
                self.alias_weights.push(self.union_undecided as f64);
                self.alias_values.push(Opinion::UNDECIDED);
            }
        }
        debug_assert_eq!(
            self.union_occ.iter().map(|&i| self.union_counts[i as usize]).sum::<u64>()
                + self.union_undecided,
            self.partition.n as u64,
            "push union must carry the whole population"
        );
    }

    /// Unions the received push histograms into the parallel
    /// `alias_values` / `alias_weights` scratch over the ~occ distinct
    /// global colors rather than the `shards · occ` raw entries.
    /// Condensed multiset shards — whose closed-form step wants the
    /// union ascending — merge their ascending palettes in one sorted
    /// pass ([`merge_sorted_union`]); every other shard deduplicates
    /// through the (currently idle) snapshot scratch in first-touch
    /// order ([`scatter_union`]): their consumers draw in alias order,
    /// so that order is part of their pinned trajectories. Contributions lost to an active fault plan are simply
    /// absent: the alias table normalizes over the surviving mass,
    /// reweighting the round's samples toward the shards that were
    /// heard (on the exact path every slot is filled, so this is the
    /// fault-free union verbatim).
    fn union_palettes(&mut self) {
        if self.condensed && self.access == SampleAccess::Multiset {
            merge_sorted_union(
                &self.recv_palettes,
                &mut self.merge_heads,
                &mut self.alias_values,
                &mut self.alias_weights,
            );
        } else {
            // A pull round leaves its touched list behind over zeroed
            // counts, and condensed push bodies never snapshot.
            self.snap_touched.clear();
            scatter_union(
                &self.recv_palettes,
                &mut self.snap_counts,
                &mut self.snap_touched,
                &mut self.alias_values,
                &mut self.alias_weights,
            );
        }
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
                _ => unreachable!("per-entry message on a batched cluster"),
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

    /// Absorbs one current-round palette under an active plan: the
    /// first copy from a non-late origin fills its slot; duplicate
    /// copies and deterministically-late deliveries are discarded
    /// (their buffers returned to the pool).
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

    /// How many palette copies this shard will receive from live peer
    /// `from` this round (late copies still arrive — and are discarded
    /// — so they count).
    fn expected_palette_copies(&self, from: usize) -> usize {
        match self.plan.palette_fault(self.round_no, from, self.shard_id) {
            None | Some(FaultKind::Delay) => 1,
            Some(FaultKind::Duplicate) => 2,
            Some(FaultKind::Drop) => 0,
        }
    }

    /// Transmits one palette through the plan's fault decision for the
    /// `self → dest` edge this round, keeping the wire accounting
    /// honest: dropped copies were transmitted and lost (counted once),
    /// duplicates count twice, late copies count once and are discarded
    /// by the receiver.
    fn send_palette_faulty(
        &mut self,
        dest: usize,
        palette: OpinionPalette,
        messages_sent: &mut u64,
    ) {
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

    /// Fault-aware pull exchange. Pull batches are never faulted (they
    /// are the round's control skeleton); palette responses pass
    /// through the plan's per-edge decisions on both sides: the server
    /// intercepts its own transmissions, the requester knows exactly
    /// how many copies will arrive, and every palette it will never
    /// see — dropped, late, or owed by a crashed peer — is compensated
    /// by re-sampling the requested draw count from this shard's own
    /// round-start opinions (counted as `recovered`), so the sample
    /// mass stays exact and every consumption path runs unchanged.
    fn pull_exchange_faulty(&mut self, messages_sent: &mut u64) -> Result<(), TransportLost> {
        let local_n = self.local_n;
        let shards = self.partition.shards;
        let round = self.round_no;
        let total = (local_n * self.h) as u64;

        self.snapshot_round_start();

        // Crashed peers take no traffic: mask them out of the
        // destination weights so every pull targets a live node.
        for dest in 0..shards {
            self.dest_theta[dest] = if self.plan.is_crashed(dest, round) {
                0.0
            } else {
                self.partition.range(dest).len() as f64
            };
        }
        sample_multinomial_into(total, &self.dest_theta, &mut self.rng, &mut self.dest_counts);

        let mut expected_pulls = 0usize;
        let mut expected_palettes = 0usize;
        for peer in 0..shards {
            if self.plan.is_crashed(peer, round) {
                continue;
            }
            // Every live peer (including self) sends us one pull batch
            // and owes us a palette through the `peer → self` edge.
            expected_pulls += 1;
            expected_palettes += self.expected_palette_copies(peer);
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
                    self.send_palette_faulty(origin, palette, messages_sent);
                    self.run_pool.push(batch.target_runs);
                }
                ShardMessage::Palette(p) => {
                    palettes += 1;
                    self.absorb_palette(p);
                }
                _ => unreachable!("per-entry message on a batched cluster"),
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

        for &i in &self.snap_touched {
            self.snap_counts[i as usize] = 0;
        }
        Ok(())
    }

    /// Fault-aware push exchange: the broadcast skips crashed peers,
    /// each histogram copy passes through the plan's per-edge fault
    /// decision, and the union is built from whichever contributions
    /// survived (see [`Worker::union_palettes`]) — push rounds have no
    /// sample-mass contract to restore, so lost histograms reweight
    /// rather than recover.
    fn push_exchange_faulty(&mut self, messages_sent: &mut u64) -> Result<(), TransportLost> {
        let shards = self.partition.shards;
        let round = self.round_no;

        let (body, bruns) = self.push_body();
        let mut expected_palettes = 0usize;
        for peer in 0..shards {
            if self.plan.is_crashed(peer, round) {
                continue;
            }
            // The live-peer loop is symmetric: `peer` is both a
            // broadcast destination (self → peer) and a sender whose
            // copies we must expect (peer → self).
            expected_palettes += self.expected_palette_copies(peer);
            let (mut palette, mut pruns) = self.palette_pool.pop().unwrap_or_default();
            palette.clear();
            pruns.clear();
            palette.extend_from_slice(&body);
            pruns.extend_from_slice(&bruns);
            let msg = OpinionPalette { origin: self.shard_id as u32, round, palette, runs: pruns };
            self.send_palette_faulty(peer, msg, messages_sent);
        }
        self.palette_pool.push((body, bruns));

        let mut palettes = 0usize;
        while palettes < expected_palettes {
            match self.recv_current()? {
                ShardMessage::Palette(p) => {
                    palettes += 1;
                    self.absorb_palette(p);
                }
                _ => unreachable!("round lockstep: pull or per-entry message in a push round"),
            }
        }

        self.union_palettes();
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
    /// shuffle needed — iid draws are already exchangeable). On
    /// incremental rounds the table persists and is rebuilt only when
    /// the union changed — a stalled round with all-empty deltas draws
    /// from last round's table verbatim.
    fn sample_push_ordered(&mut self) {
        let total = self.opinions.len() * self.h;
        if total == 0 {
            return;
        }
        if self.inc {
            if self.push_cat_stale || self.push_cat.is_none() {
                match &mut self.push_cat {
                    Some(c) => c.rebuild(&self.alias_weights),
                    None => self.push_cat = Some(Categorical::new(&self.alias_weights)),
                }
                self.push_cat_stale = false;
            }
            let alias = self.push_cat.take().expect("alias table just ensured");
            for pos in 0..total {
                self.samples[pos] = self.alias_values[alias.sample(&mut self.rng)];
            }
            self.push_cat = Some(alias);
        } else {
            let alias = Categorical::new(&self.alias_weights);
            for pos in 0..total {
                self.samples[pos] = self.alias_values[alias.sample(&mut self.rng)];
            }
        }
    }

    /// Single-peer consumption of the push gear: each node's one sample
    /// is its next opinion, drawn straight into `opinions` — no sample
    /// buffer and no rule calls.
    fn sample_push_single_peer(&mut self) {
        debug_assert_eq!(self.h, 1, "single-peer rules pull one sample");
        if self.opinions.is_empty() {
            return;
        }
        let alias = Categorical::new(&self.alias_weights);
        for pos in 0..self.opinions.len() {
            self.opinions[pos] = self.alias_values[alias.sample(&mut self.rng)];
        }
    }

    /// Multiset consumption of the push gear: per-node windows are
    /// independent `Mult(h, union)` draws, taken as count vectors
    /// through a [`WindowMultinomial`] walk with all conditional
    /// binomials cached — ~one cached draw per node once the union
    /// concentrates, versus `h` alias draws plus window reads on the
    /// ordered path. While the union is still too diverse for the walk
    /// to pay, the round takes the ordered path unchanged (a multiset
    /// rule consumes an ordered window just fine).
    fn sample_push_multiset(&mut self) {
        let local_n = self.opinions.len();
        if local_n == 0 {
            return;
        }
        let h = self.h;
        // Sort the union by decreasing weight so the walk's early exit
        // bites, then arbitrate on the expected visit count.
        let walkable = self.alias_values.len() <= WALK_CANDIDATE_CAP && {
            let mut union: Vec<(f64, Opinion)> =
                self.alias_weights.iter().copied().zip(self.alias_values.iter().copied()).collect();
            union.sort_by(|a, b| b.0.total_cmp(&a.0));
            self.pool_ops.clear();
            self.alias_weights.clear();
            for &(w, o) in &union {
                self.alias_weights.push(w);
                self.pool_ops.push(o);
            }
            // The sorted weights are a valid alias source too, so the
            // ordered fallback below stays correct after this rewrite
            // (alias_values is realigned alongside, and the persistent
            // consume table is invalidated against the reorder).
            self.alias_values.clear();
            self.alias_values.extend_from_slice(&self.pool_ops);
            self.push_cat_stale = true;
            expected_window_visits(&self.alias_weights, h) <= h as f64
        };
        if !walkable {
            self.sample_push_ordered();
            self.apply_ordered_windows();
            return;
        }
        let msr = self.rule.as_multiset().expect("Multiset access requires a MultisetRule impl");
        let walk = WindowMultinomial::new(&self.alias_weights, h);
        let ops = &self.pool_ops;
        for local in 0..local_n {
            self.window.clear();
            let window = &mut self.window;
            walk.sample_window(&mut self.rng, |j, x| window.push((ops[j], x as u32)));
            let own = self.opinions[local];
            self.opinions[local] = msr.update_from_counts(own, &self.window, &mut self.rng);
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
        let mut undecided = 0u64;
        for (j, &c) in self.pool_counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let o = self.alias_values[j];
            if o.is_undecided() {
                undecided += c;
            } else {
                let i = o.index();
                if self.count_scratch[i] == 0 {
                    self.touched.push(i as u32);
                }
                self.count_scratch[i] += c;
            }
        }
        self.install_condensed(undecided);
    }

    /// Multiset consumption of the push gear, condensed: the whole
    /// shard steps through one [`symbreak_core::MultisetRule`]
    /// `condensed_push_step` call — the rule's closed-form aggregate
    /// over iid `Mult(h, union)` windows (a multinomial for 3-Majority,
    /// binomial splits for the undecided dynamics, CDF cascades for
    /// 2-Median, with a generic per-node fallback) — so the per-round
    /// compute is `O(#occupied · h)`, independent of `local_n`. This is
    /// the path the Theorem-5 `n ≥ 10⁸` sweeps run on.
    fn consume_push_condensed_multiset(&mut self) {
        // The condensed-step contract: the union ascending by opinion
        // (undecided orders last), deduplicated — which both the
        // sorted merge and the persistent incremental union produce.
        debug_assert!(
            self.alias_values.windows(2).all(|w| w[0] < w[1]),
            "push union must be strictly ascending"
        );
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
        let mut undecided = 0u64;
        for gi in 0..self.step_out.len() {
            let (o, c) = self.step_out[gi];
            if c == 0 {
                continue;
            }
            if o.is_undecided() {
                undecided += c;
            } else {
                let i = o.index();
                if self.count_scratch[i] == 0 {
                    self.touched.push(i as u32);
                }
                self.count_scratch[i] += c;
            }
        }
        self.install_condensed(undecided);
    }

    /// Serves one pull batch from the round-start state, drawing from
    /// the origin's dedicated serving stream, choosing per batch
    /// between two exact samplers by the draw count `m` vs the
    /// distinct local color count `d`:
    ///
    /// * **raw** (`m < 24·d`, the diverse regime) — draw `m` uniform
    ///   targets and ship their opinions verbatim (a palette with no
    ///   runs): `O(m)` cheap draws and `m` wire entries — half of
    ///   per-entry mode's `2m`, with no request routing — which the
    ///   requester expands with one copy. A histogram would not
    ///   compress enough here to pay for building one.
    /// * **histogram walk** (`m ≥ 24·d`, the concentrated regime) — a
    ///   multinomial over the round-start opinion histogram (undecided
    ///   mass split off first): `O(d)` binomial draws and wire
    ///   entries, with no per-draw work at all. A conditional-binomial
    ///   step costs tens of materialized draws, hence the crossover.
    ///
    /// Both are exactly the law of `m` uniform snapshot reads; the
    /// choice depends only on deterministic per-round state, so the
    /// trajectory stays seed-reproducible.
    fn serve_batch(&mut self, batch: &PullBatch, messages_sent: &mut u64) {
        let palette = self.build_palette(batch);
        *messages_sent += (palette.palette.len() + palette.runs.len()) as u64;
        self.transport.send(batch.origin as usize, ShardMessage::Palette(palette));
    }

    /// Samples the palette answering one pull batch from the round-start
    /// state (see [`Worker::serve_batch`] for the raw-vs-walk crossover);
    /// sending is left to the caller so the fault path can intercept the
    /// transmission.
    fn build_palette(&mut self, batch: &PullBatch) -> OpinionPalette {
        // Crossover between the raw and walk samplers: a
        // conditional-binomial step (sampler construction + draw)
        // costs roughly twenty-odd materialized draws.
        const WALK_FACTOR: u64 = 24;
        let local_n = self.local_n;
        let origin = batch.origin as usize;
        let rng = &mut self.serve_rngs[origin];
        let d = self.snap_touched.len() as u64 + 1;
        let total: u64 = batch.target_runs.iter().map(|r| r.count).sum();

        let (mut palette, mut pruns) = self.palette_pool.pop().unwrap_or_default();
        palette.clear();
        pruns.clear();

        let walkable = total >= WALK_FACTOR * d
            && batch.target_runs.iter().all(|r| r.start == 0 && r.len as usize == local_n);
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
            //
            // Incremental round state arbitrates per batch between the
            // mirror and the persistent Fenwick sampler: `total` draws
            // at `O(log k)` each against the mirror's `O(local_n)`
            // fill. The choice reads only the batch itself (never
            // whether another origin's batch already built the
            // mirror), so it too is arrival-order independent.
            let lg = u64::from((usize::BITS - (self.k_slots + 1).leading_zeros()).max(1));
            if self.inc && total > 0 && total.saturating_mul(lg) < local_n as u64 {
                debug_assert_eq!(self.serve_fen.total(), local_n as u64);
                palette.reserve(total as usize);
                for run in &batch.target_runs {
                    debug_assert!(
                        run.start == 0 && run.len as usize == local_n,
                        "batched pulls cover whole shard ranges"
                    );
                    for _ in 0..run.count {
                        let t = self.serve_fen.sample(rng);
                        palette.push(if t == self.k_slots {
                            Opinion::UNDECIDED
                        } else {
                            Opinion::new(t as u32)
                        });
                    }
                }
            } else if total > 0 {
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

    /// Builds the commanded report body, its undecided count and —
    /// under [`ReportMode::Delta`] — the changed-slot count.
    ///
    /// Agent-backed shards under [`ReportMode::Delta`] diff their
    /// opinions against the previous report's vector: a delta round's
    /// body *is* the folded diff (no tally at all), and a sparse or
    /// dense round tallies its absolute body as usual and takes only
    /// the changed-slot count from the diff. Every other shard tallies.
    fn build_report(&mut self, format: ReportFormat) -> (ReportBody, u64, Option<u64>) {
        if self.report_mode != ReportMode::Delta || self.condensed {
            return self.tally_report(format);
        }
        let deltas = self.diff_against_baseline();
        let changed = Some(deltas.len() as u64);
        if format == ReportFormat::Delta {
            return (ReportBody::Delta(deltas), self.prev_undecided, changed);
        }
        let (body, undecided, _) = self.tally_report(format);
        debug_assert_eq!(undecided, self.prev_undecided, "diffed undecided count drifted");
        (body, undecided, changed)
    }

    /// Diffs `opinions` against the delta baseline `prev_opinions`,
    /// rolling the baseline (and `prev_undecided`) forward in place, and
    /// returns the net `(slot, Δcount)` pairs of the slots whose local
    /// count moved — exactly the slots a recount-and-compare would
    /// report. Unchanged chunks cost one branchless compare pass; each
    /// changed node folds its −1/+1 into the report scratch, so the
    /// whole diff is `O(local_n)` sequential compares plus
    /// `O(#changed nodes)` scattered work.
    fn diff_against_baseline(&mut self) -> Vec<(u32, i64)> {
        const CHUNK: usize = 64;
        debug_assert!(self.touched.is_empty(), "report scratch must start zeroed");
        let scratch = &mut self.count_scratch;
        let touched = &mut self.touched;
        let mut undecided = self.prev_undecided;
        // Signed nets live in the u64 scratch as two's complement; a
        // slot whose net returns to zero and moves again is listed
        // twice, which the zeroing emit loop below dedups.
        let mut bump = |o: Opinion, d: u64| {
            let i = o.index();
            if scratch[i] == 0 {
                touched.push(i as u32);
            }
            scratch[i] = scratch[i].wrapping_add(d);
        };
        for (cur, base) in self.opinions.chunks(CHUNK).zip(self.prev_opinions.chunks_mut(CHUNK)) {
            if !cur.iter().zip(base.iter()).fold(false, |diff, (a, b)| diff | (a != b)) {
                continue;
            }
            for (&new, old) in cur.iter().zip(base.iter_mut()) {
                if new == *old {
                    continue;
                }
                if old.is_undecided() {
                    undecided -= 1;
                } else {
                    bump(*old, u64::MAX);
                }
                if new.is_undecided() {
                    undecided += 1;
                } else {
                    bump(new, 1);
                }
                *old = new;
            }
        }
        self.prev_undecided = undecided;
        let mut deltas = Vec::new();
        for &i in &self.touched {
            let net = std::mem::take(&mut self.count_scratch[i as usize]) as i64;
            if net != 0 {
                deltas.push((i, net));
            }
        }
        self.touched.clear();
        deltas
    }

    /// Counts the post-update opinions (or mirrors the condensed
    /// histogram) and builds the commanded report body; a condensed
    /// shard under [`ReportMode::Delta`] also rolls its previous-report
    /// counts forward and reports the changed-slot count.
    fn tally_report(&mut self, format: ReportFormat) -> (ReportBody, u64, Option<u64>) {
        let tracking = self.report_mode == ReportMode::Delta && self.condensed;
        if self.condensed && self.report_pairs_fresh {
            self.report_pairs_fresh = false;
            if !tracking && format == ReportFormat::Sparse {
                // Flat-tally install: `hist_pairs` *is* the sparse
                // body, already sorted — no dense pass at all. The
                // scratch was never written this round, so there is
                // nothing to zero behind the report.
                let mut pairs = self.report_pool.pop().unwrap_or_default();
                pairs.clear();
                pairs.extend_from_slice(&self.hist_pairs);
                return (ReportBody::Sparse(pairs), self.hist_undecided, None);
            }
            // Dense/delta shapes want the dense scratch: mirror once
            // and fall through as a freshly-tallied report.
            self.touched.clear();
            self.mirror_hist(Mirror::Report);
            self.report_fresh = true;
        }
        let undecided = if self.condensed {
            // The post-step histogram *is* the count. Right after a
            // condensed consume the tally it was installed from is
            // still sitting in the scratch — report straight off it;
            // otherwise (round-0 style calls) mirror the histogram
            // (`O(#occupied)`, no recount). Either way the body
            // builders below run unchanged.
            if self.report_fresh {
                self.report_fresh = false;
            } else {
                self.touched.clear();
                self.mirror_hist(Mirror::Report);
            }
            self.hist_undecided
        } else {
            self.touched.clear();
            count_opinions(&self.opinions, &mut self.count_scratch, &mut self.touched)
        };

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
            ReportFormat::Sparse => {
                let mut pairs = self.report_pool.pop().unwrap_or_default();
                pairs.clear();
                pairs.reserve(self.touched.len());
                for &i in &self.touched {
                    pairs.push((i, self.count_scratch[i as usize]));
                }
                ReportBody::Sparse(pairs)
            }
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
            ReportFormat::Dense => {
                let mut counts = vec![0u64; self.k_slots];
                for &i in &self.touched {
                    counts[i as usize] = self.count_scratch[i as usize];
                }
                ReportBody::Dense(counts)
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
        (body, undecided, changed_slots)
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
    #[should_panic(expected = "one node per shard")]
    fn too_many_shards_panics() {
        Partition::new(3, 4);
    }

    /// `shards` ascending histogram palettes over `k` slots: disjoint
    /// supports deal each slot to one shard, overlapping ones give each
    /// shard a random ~half of all slots. Counts reach past `2^53` in
    /// sum, so a union that summed in f64 would round differently.
    fn test_palettes(
        shards: usize,
        k: u32,
        disjoint: bool,
        undecided: bool,
        rng: &mut Pcg64,
    ) -> Vec<Option<PaletteBuffers>> {
        (0..shards)
            .map(|s| {
                let mut pairs: Vec<(u32, u64)> = Vec::new();
                for i in 0..k {
                    let member =
                        if disjoint { i as usize % shards == s } else { rng.gen_bool(0.5) };
                    if member {
                        pairs.push((i, rng.gen_range(1..=1u64 << 52)));
                    }
                }
                let u = if undecided { rng.gen_range(1..=1u64 << 40) } else { 0 };
                let (mut body, mut runs) = (Vec::new(), Vec::new());
                hist_palette(&pairs, u, &mut body, &mut runs);
                Some((body, runs))
            })
            .collect()
    }

    /// A transport for workers driven directly by a test: report
    /// building and rejoin never touch it.
    struct NoTransport;

    impl Transport for NoTransport {
        fn send(&mut self, _: usize, _: ShardMessage) {
            unreachable!("test worker sends nothing")
        }
        fn broadcast(&mut self, _: OpinionPalette, _: &mut Vec<PaletteBuffers>) {
            unreachable!("test worker sends nothing")
        }
        fn recv(&mut self) -> Result<ShardMessage, TransportLost> {
            unreachable!("test worker receives nothing")
        }
        fn send_report(&mut self, _: ShardReport) -> Option<Vec<(u32, u64)>> {
            unreachable!("test worker sends nothing")
        }
        fn recv_control(&mut self) -> Result<Control, TransportLost> {
            unreachable!("test worker receives nothing")
        }
        fn count_lost(&mut self, _: &ShardMessage) {}
        fn count_lost_report(&mut self, _: &ShardReport) {}
        fn bytes_sent(&self) -> u64 {
            0
        }
        fn bytes_received(&self) -> u64 {
            0
        }
    }

    /// Dense recount of an opinion vector: per-slot counts and the
    /// undecided count.
    fn recount(opinions: &[Opinion], k: usize) -> (Vec<u64>, u64) {
        let (mut counts, mut touched) = (vec![0u64; k], Vec::new());
        let undecided = count_opinions(opinions, &mut counts, &mut touched);
        (counts, undecided)
    }

    #[test]
    fn agent_delta_report_matches_recount_reference() {
        use symbreak_core::rules::TwoChoices;
        let (n, k) = (700u32, 40usize);
        let mut rng = Pcg64::seed_from_u64(23);
        let spec = ShardSpec {
            partition: Partition::new(n, 1),
            k_slots: k,
            report_mode: ReportMode::Delta,
            wire_mode: WireMode::Batched,
            consume_mode: ConsumeMode::Native,
            repr: ShardRepr::Agents,
            master_seed: 5,
            plan: FaultPlan::none(),
            round_state: RoundStateMode::Rebuild,
        };
        let random_opinion = |rng: &mut Pcg64| {
            if rng.gen_bool(0.1) {
                Opinion::UNDECIDED
            } else {
                Opinion::new(rng.gen_range(0..k as u32))
            }
        };
        let init: Vec<Opinion> = (0..n).map(|_| random_opinion(&mut rng)).collect();
        let mut w = Worker::new(0, spec, TwoChoices, ShardInit::Agents(init), NoTransport);
        let mut baseline = recount(&w.opinions, k);
        let mut older = baseline.clone();
        for round in 1..=120u64 {
            match round % 10 {
                // Every node changes opinion.
                3 => {
                    for o in w.opinions.iter_mut() {
                        *o = if o.is_undecided() {
                            Opinion::new(0)
                        } else {
                            Opinion::new((o.index() as u32 + 1) % k as u32)
                        };
                    }
                }
                // Nothing changes.
                5 => {}
                // Crash-stop and rejoin from an older accepted report
                // (the latest was lost): the next report is relative to
                // the rejoined vector, not to the last one built.
                7 => {
                    let (counts, undecided) = &older;
                    let body: Vec<(u32, u64)> = (0..k as u32)
                        .filter(|&i| counts[i as usize] > 0)
                        .map(|i| (i, counts[i as usize]))
                        .collect();
                    w.rejoin(round, &body, *undecided);
                    baseline = older.clone();
                    let j = rng.gen_range(0..n as usize);
                    w.opinions[j] = random_opinion(&mut rng);
                }
                // A few random rewrites (some back to the same value).
                _ => {
                    for _ in 0..rng.gen_range(0..6) {
                        let j = rng.gen_range(0..n as usize);
                        w.opinions[j] = random_opinion(&mut rng);
                    }
                }
            }
            let current = recount(&w.opinions, k);
            let mut expect: Vec<(u32, i64)> = (0..k)
                .filter(|&i| current.0[i] != baseline.0[i])
                .map(|i| (i as u32, current.0[i] as i64 - baseline.0[i] as i64))
                .collect();
            let format = if rng.gen_bool(0.5) { ReportFormat::Delta } else { ReportFormat::Sparse };
            let (body, undecided, changed) = w.build_report(format);
            assert_eq!(undecided, current.1, "round {round}: undecided");
            assert_eq!(changed, Some(expect.len() as u64), "round {round}: changed slots");
            match body {
                ReportBody::Delta(mut pairs) => {
                    assert_eq!(format, ReportFormat::Delta);
                    pairs.sort_unstable();
                    expect.sort_unstable();
                    assert_eq!(pairs, expect, "round {round}: delta body");
                }
                ReportBody::Sparse(pairs) => {
                    assert_eq!(format, ReportFormat::Sparse);
                    let mut dense = vec![0u64; k];
                    for (slot, c) in pairs {
                        assert_eq!(dense[slot as usize], 0, "round {round}: repeated slot");
                        dense[slot as usize] = c;
                    }
                    assert_eq!(dense, current.0, "round {round}: sparse body");
                }
                ReportBody::Dense(_) => unreachable!("no dense round commanded"),
            }
            assert!(w.touched.is_empty() && w.count_scratch.iter().all(|&c| c == 0));
            assert_eq!(w.prev_opinions, w.opinions, "round {round}: baseline rolled forward");
            older = std::mem::replace(&mut baseline, current);
        }
    }

    #[test]
    fn sorted_union_merge_matches_scatter_reference() {
        let mut rng = Pcg64::seed_from_u64(17);
        let k = 300u32;
        for shards in [1usize, 2, 3, 8] {
            for disjoint in [true, false] {
                for undecided in [true, false] {
                    let mut palettes = test_palettes(shards, k, disjoint, undecided, &mut rng);
                    if shards == 3 {
                        // A palette lost to a fault plan is skipped.
                        palettes[1] = None;
                    }
                    let (mut values, mut weights, mut heads) = (Vec::new(), Vec::new(), Vec::new());
                    merge_sorted_union(&palettes, &mut heads, &mut values, &mut weights);

                    let mut counts = vec![0u64; k as usize];
                    let (mut touched, mut ref_values, mut ref_weights) =
                        (Vec::new(), Vec::new(), Vec::new());
                    scatter_union(
                        &palettes,
                        &mut counts,
                        &mut touched,
                        &mut ref_values,
                        &mut ref_weights,
                    );
                    assert!(counts.iter().all(|&c| c == 0) && touched.is_empty());
                    let mut reference: Vec<(Opinion, f64)> =
                        ref_values.into_iter().zip(ref_weights).collect();
                    reference.sort_by_key(|&(o, _)| o);

                    let case = format!("S={shards} disjoint={disjoint} undecided={undecided}");
                    assert_eq!(values.len(), reference.len(), "{case}: union size");
                    assert_eq!(
                        values.last() == Some(&Opinion::UNDECIDED),
                        undecided,
                        "{case}: undecided mass orders last"
                    );
                    for (j, &(o, w)) in reference.iter().enumerate() {
                        assert_eq!(values[j], o, "{case}: value order at {j}");
                        assert_eq!(weights[j].to_bits(), w.to_bits(), "{case}: weight at {j}");
                    }
                }
            }
        }
    }
}
