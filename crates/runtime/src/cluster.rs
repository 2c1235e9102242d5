//! The cluster coordinator: spawns shard threads, drives synchronous
//! rounds, aggregates per-round observables, and detects consensus.
//!
//! Two orthogonal knobs shape the per-round traffic (see
//! [`crate::message`] for the wire protocol itself):
//!
//! * **[`WireMode`]** selects the data plane: the default
//!   [`WireMode::Batched`] aggregates each shard pair's pulls into one
//!   [`crate::message::PullBatch`] answered by one
//!   [`crate::message::OpinionPalette`], and — once occupancy
//!   concentrates (`occ · shards² ≤ n·h`) — flips the fleet to
//!   histogram *push* ([`crate::message::DataFormat::Push`]): every
//!   shard broadcasts its opinion histogram and samples its own pulls
//!   from the union, `O(#shards² · #distinct)` entries per round
//!   regardless of `n`. [`WireMode::PerEntry`] keeps the PR 3
//!   request/reply format (`2·n·h` entries per round) as the paired
//!   baseline.
//! * **[`ReportMode`]** selects the control plane: sparse absolute
//!   reports folded into **one** persistent merged [`Configuration`]
//!   via [`Configuration::merge_sparse`] (`O(#occupied)` per round), or
//!   — under [`ReportMode::Delta`] — signed per-round deltas merged via
//!   [`Configuration::apply_deltas`] (`O(#changed)` wire entries and an
//!   `O(#changed)` fold, plus a memmove when slots die and a rare
//!   `O(#occupied)` rescan when a leading slot moved) once the
//!   coordinator observes the changed-slot set collapsing. The coordinator arbitrates the
//!   sparse↔delta switch round-by-round through
//!   [`crate::message::Control::Round`], keeping the format
//!   uniform across shards within a round (absolute and delta reports
//!   cannot be mixed against a single merged configuration).
//!   [`ReportMode::Dense`] preserves the pre-sparse path (fresh dense
//!   vectors and a `from_counts` rebuild every round) as the
//!   paired-benchmark baseline.
//!
//! Per-round observables ([`Trace`]) read off the merged
//! configuration's `O(1)` cached observables in every mode.
//!
//! Under an **active [`FaultPlan`]** the coordinator swaps the strict
//! barrier for a quorum-relaxed one: it sizes each round's report
//! collection exactly from the plan's stateless fault hashes (see
//! [`crate::fault`]), proceeds once fresh *valid* attendance reaches
//! the integer-exact `N − F` quorum
//! ([`symbreak_adversary::quorum_threshold`]), folds stale straggler
//! reports as re-syncs, rejects mass-violating (Byzantine) bodies by
//! the same `Σ counts + undecided = local_n` identity the lossless
//! merge paths assert, replays snapshots to rejoining crashed shards
//! ([`crate::message::Control::Rejoin`]), and detects consensus on the
//! *honest* view — the non-Byzantine shards' last accepted bodies,
//! rebuilt revival-tolerantly via [`Configuration::rebuild_sparse`]
//! (stale straggler bodies can re-light colors the merged view had
//! retired). Inert plans ([`FaultPlan::none`]) take the exact lockstep
//! coordinator, byte-identical per seed to the pre-fault runtime.

use std::sync::mpsc;

use symbreak_adversary::quorum_threshold;
use symbreak_core::{Configuration, Opinion, RoundStateMode, SampleAccess, UpdateRule};
use symbreak_sim::trace::{RoundStats, Trace};

use crate::fault::{FaultCounters, FaultKind, FaultPlan, StopReason};
use crate::message::{Control, DataFormat, ReportBody, ReportFormat, ShardReport};
use crate::shard::{run_shard, Partition, ShardInit, ShardSpec};
use crate::transport::{
    ChannelLink, ChannelTransport, CoordinatorLink, FleetSpec, SocketConfig, SocketFleet, WireRule,
};

/// Per-round report wire format exchanged between shards and the
/// coordinator.
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
    /// Dense `k`-slot count vectors rebuilt from scratch every round (the
    /// pre-sparse protocol), kept as the paired-benchmark baseline.
    Dense,
}

/// Data-plane wire format exchanged between shards.
///
/// The report format never touches the protocol's RNG streams, so for a
/// fixed wire mode every [`ReportMode`] realizes the identical
/// trajectory per seed. The two *wire* modes realize the same process
/// law — batched mode is an exact aggregation of Uniform Pull, not an
/// approximation — but consume randomness differently, so their
/// trajectories are compared distributionally, not pathwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireMode {
    /// Aggregate traffic: one `PullBatch` + one `OpinionPalette` per
    /// shard pair per round in the diverse regime, and coordinator-
    /// arbitrated histogram push (no pulls at all, `O(#shards² ·
    /// #distinct)` entries) once opinions concentrate.
    #[default]
    Batched,
    /// One `Request` and one `Reply` entry per pull: exactly `2·n·h`
    /// channel entries per round (the PR 3 data plane, kept as the
    /// paired-benchmark baseline).
    PerEntry,
}

/// How shards consume the batched data plane's received aggregates —
/// the runtime end of the sample-consumption taxonomy
/// ([`symbreak_core::SampleAccess`]).
///
/// Under [`ConsumeMode::Native`] (the default) a shard dispatches on
/// the rule's declared access: multiset rules take received
/// [`crate::message::OpinionPalette`]s directly as histogram splits
/// (per-node multivariate-hypergeometric windows — no inside-out
/// Fisher–Yates dealing pass), and single-peer rules skip sample
/// materialization entirely (the dealt multiset *is* the next opinion
/// vector). Both are exactly the Uniform Pull law; they consume
/// randomness differently from the ordered dealing, so the trajectories
/// are compared distributionally (like the wire modes), not pathwise.
/// [`ConsumeMode::Ordered`] forces the ordered-window dealing for every
/// rule — the paired baseline. The per-entry wire always consumes
/// ordered (its replies are already per-draw).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConsumeMode {
    /// Dispatch on the rule's [`symbreak_core::SampleAccess`].
    #[default]
    Native,
    /// Ordered-window dealing for every rule (the pre-taxonomy
    /// behaviour), kept as the paired baseline.
    Ordered,
}

/// Per-shard state representation.
///
/// Under [`ShardRepr::Histogram`] (the default) a shard keeps only its
/// local opinion histogram — `O(#occupied)` memory instead of
/// `O(local_n)` agents — and steps, serves, consumes, and reports off
/// counts alone. The condensed form engages per rule: batched wire,
/// native consumption, and a rule whose [`SampleAccess`] is multiset
/// or single-peer; ordered-window rules (and the per-entry wire or
/// [`ConsumeMode::Ordered`]) keep the agent vector regardless, because
/// an ordered window is a property of individual draws that a
/// histogram cannot replay. [`ShardRepr::Agents`] forces the agent
/// vector everywhere — the paired crossval baseline, byte-identical
/// per seed to the pre-condensed runtime.
///
/// Both representations realize the same process law (the condensed
/// step is an exact aggregation, not an approximation) but consume
/// randomness differently, so — like the wire modes — their
/// trajectories are compared distributionally, not pathwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardRepr {
    /// Configuration-backed local histogram where the rule's sample
    /// access permits; `O(#occupied · h)` per-round compute in the
    /// push gear.
    #[default]
    Histogram,
    /// Materialized per-agent opinion vector everywhere (the paired
    /// baseline and the forced mode for ordered-window rules).
    Agents,
}

/// Data-plane gear selection (batched wire only — the per-entry wire
/// has no push gear and ignores this knob).
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
    /// Data-plane wire format (defaults to [`WireMode::Batched`]).
    pub wire_mode: WireMode,
    /// Sample-consumption dispatch (defaults to [`ConsumeMode::Native`]).
    pub consume_mode: ConsumeMode,
    /// Per-shard state representation (defaults to
    /// [`ShardRepr::Histogram`], arbitrated per rule).
    pub shard_repr: ShardRepr,
    /// Data-plane gear selection (defaults to [`GearMode::Auto`],
    /// the byte-exact per-round arbitration).
    pub data_gear: GearMode,
    /// Deterministic fault schedule (defaults to the inert
    /// [`FaultPlan::none`], which keeps the exact fault-free paths).
    pub fault_plan: FaultPlan,
    /// Per-round sampler lifecycle (defaults to
    /// [`RoundStateMode::Rebuild`], the byte-exact baseline).
    /// [`RoundStateMode::Incremental`] lets condensed shards patch
    /// their persistent push-union and serving samplers from
    /// `O(#changed)` histogram deltas instead of rebuilding from
    /// scratch each round — distribution-exact, but a different RNG
    /// discipline, so (like the wire modes) incremental trajectories
    /// are compared distributionally, not pathwise. Shards that are
    /// not condensed, and fleets with an active fault plan, keep the
    /// rebuild path regardless of the knob.
    pub round_state: RoundStateMode,
}

impl ClusterConfig {
    /// Shorthand for the default formats (batched data plane, sparse
    /// reports, native sample consumption, no faults).
    pub fn new(shards: usize, seed: u64) -> Self {
        Self {
            shards,
            seed,
            report_mode: ReportMode::default(),
            wire_mode: WireMode::default(),
            consume_mode: ConsumeMode::default(),
            shard_repr: ShardRepr::default(),
            data_gear: GearMode::default(),
            fault_plan: FaultPlan::none(),
            round_state: RoundStateMode::default(),
        }
    }

    /// Selects the report wire format.
    pub fn with_report_mode(mut self, report_mode: ReportMode) -> Self {
        self.report_mode = report_mode;
        self
    }

    /// Selects the data-plane wire format.
    pub fn with_wire_mode(mut self, wire_mode: WireMode) -> Self {
        self.wire_mode = wire_mode;
        self
    }

    /// Selects the sample-consumption dispatch.
    pub fn with_consume_mode(mut self, consume_mode: ConsumeMode) -> Self {
        self.consume_mode = consume_mode;
        self
    }

    /// Selects the per-shard state representation.
    pub fn with_shard_repr(mut self, shard_repr: ShardRepr) -> Self {
        self.shard_repr = shard_repr;
        self
    }

    /// Selects the data-plane gear (pin push or pull, or keep the
    /// default per-round arbitration). Batched wire only; the
    /// per-entry wire has no push gear and ignores the knob.
    pub fn with_data_gear(mut self, data_gear: GearMode) -> Self {
        self.data_gear = data_gear;
        self
    }

    /// Installs a fault schedule. Active plans require the batched wire
    /// and sparse reports (checked by [`Cluster::new`]): delta chains
    /// cannot be applied relative to states the coordinator never saw,
    /// and dense bodies have no rejection-tolerant merge.
    pub fn with_fault_plan(mut self, fault_plan: FaultPlan) -> Self {
        self.fault_plan = fault_plan;
        self
    }

    /// Selects the per-round sampler lifecycle (persistent
    /// delta-patched round state vs the byte-exact from-scratch
    /// rebuild baseline).
    pub fn with_round_state(mut self, round_state: RoundStateMode) -> Self {
        self.round_state = round_state;
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
    /// Total point-to-point wire entries exchanged over the whole run.
    /// Under [`WireMode::PerEntry`] this is exactly `2·n·h` per round
    /// (every request and its reply counted individually, intra-shard
    /// deliveries included — there is no coalescing); under
    /// [`WireMode::Batched`] it is the target-run, palette, and
    /// palette-run entries — `O(#shard-pairs · #distinct opinions)` per
    /// round. Under an active fault plan, dropped and delayed entries
    /// count once (transmitted) and duplicated entries count twice.
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
    /// slots for delta, `k · shards` for dense; received duplicates and
    /// straggler retransmissions included). This is the series the
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
    config: ClusterConfig,
}

impl<R: UpdateRule + Clone + Send> Cluster<R> {
    /// Prepares a cluster over the nodes described by `start`.
    ///
    /// # Panics
    /// Panics if there are fewer nodes than shards, or zero shards.
    pub fn new(rule: R, start: &Configuration, config: ClusterConfig) -> Self {
        assert!(config.shards >= 1, "need at least one shard");
        assert!(start.n() >= config.shards as u64, "need at least one node per shard");
        if config.fault_plan.is_active() {
            config.fault_plan.validate(config.shards);
            assert!(
                config.wire_mode == WireMode::Batched && config.report_mode == ReportMode::Sparse,
                "fault plans require the batched wire and sparse reports"
            );
        }
        Self { rule, start: start.clone(), config }
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
        let n = self.start.n() as u32;
        let k_slots = self.start.num_slots();
        let shards = self.config.shards;
        let report_mode = self.config.report_mode;
        let wire_mode = self.config.wire_mode;
        let consume_mode = self.config.consume_mode;
        let data_gear = self.config.data_gear;
        let round_state = self.config.round_state;
        let plan = self.config.fault_plan;
        let partition = Partition::new(n, shards);

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

        // Per-shard sparse seed bodies (no O(n) opinion expansion); a
        // shard is condensed when the representation, the wire, and the
        // rule's sample access all permit it — the same predicate the
        // worker asserts against its init.
        let bodies = shard_bodies(&self.start, &partition);
        let condensed = self.config.shard_repr == ShardRepr::Histogram
            && wire_mode == WireMode::Batched
            && consume_mode == ConsumeMode::Native
            && self.rule.sample_access() != SampleAccess::OrderedWindow;
        let h = self.rule.sample_count() as u64;
        let rule = self.rule;
        let seed = self.config.seed;
        let shard_repr = self.config.shard_repr;
        // The persistent merged configuration the sparse and delta
        // reports fold into; occupancy only ever shrinks (dead colors
        // stay dead).
        let merged = self.start;

        crossbeam::thread::scope(|scope| {
            for (shard_id, (inbox, control)) in inboxes.into_iter().zip(control_rxs).enumerate() {
                let init = if condensed {
                    ShardInit::Histogram(bodies[shard_id].clone())
                } else {
                    // Expand the shard's body into its agent vector:
                    // colors lie ascending and contiguous (exactly how
                    // `to_opinions` lays agents out), so this equals
                    // slicing the global expansion.
                    let range = partition.range(shard_id);
                    let mut opinions = Vec::with_capacity(range.len());
                    for &(slot, count) in &bodies[shard_id] {
                        opinions.extend(std::iter::repeat_n(Opinion::new(slot), count as usize));
                    }
                    debug_assert_eq!(opinions.len(), range.len());
                    ShardInit::Agents(opinions)
                };
                let transport =
                    ChannelTransport::new(inbox, peer_senders.clone(), control, report_tx.clone());
                let rule = rule.clone();
                let spec = ShardSpec {
                    partition,
                    k_slots,
                    report_mode,
                    wire_mode,
                    consume_mode,
                    repr: shard_repr,
                    master_seed: seed,
                    plan: plan.clone(),
                    round_state,
                };
                scope.spawn(move |_| {
                    run_shard(shard_id, spec, rule, init, transport);
                });
            }
            // The coordinator's copies are no longer needed; dropping them
            // lets shards observe closed channels at shutdown.
            drop(peer_senders);
            drop(report_tx);

            // Condensed fleets boot in whatever gear the start
            // configuration arbitrates to: a forced pull first round
            // would pay per-node window splits — the one cost
            // condensation exists to avoid — before the first report
            // could flip the gear, and the coordinator holds the
            // merged start state before round 1 anyway. Agent-backed
            // fleets keep the pull-first boot: their round 1 is
            // `O(local_n)` in either gear, and holding it fixed
            // preserves the pre-condensation trajectories
            // byte-for-byte (the `fault_properties` goldens pin them).
            // A forced gear overrides both.
            let auto =
                if condensed { arbitrate_gear(&merged, shards, n, h) } else { DataFormat::Pull };
            let initial_data =
                if wire_mode == WireMode::Batched { resolve_gear(data_gear, auto) } else { auto };
            let mut link = ChannelLink::new(control_txs, report_rx);
            let out = if plan.is_active() {
                run_coordinator_faulty(
                    rounds,
                    n,
                    h,
                    k_slots,
                    partition,
                    &bodies,
                    merged,
                    &plan,
                    initial_data,
                    data_gear,
                    &mut link,
                )
            } else {
                run_coordinator_exact(
                    rounds,
                    n,
                    h,
                    k_slots,
                    shards,
                    report_mode,
                    wire_mode,
                    merged,
                    initial_data,
                    data_gear,
                    &mut link,
                )
            };
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

/// Socket-backed entry points: the same coordinator loops driven over a
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
        let n = self.start.n() as u32;
        let k_slots = self.start.num_slots();
        let shards = self.config.shards;
        let report_mode = self.config.report_mode;
        let wire_mode = self.config.wire_mode;
        let consume_mode = self.config.consume_mode;
        let data_gear = self.config.data_gear;
        let plan = self.config.fault_plan;
        let partition = Partition::new(n, shards);
        let bodies = shard_bodies(&self.start, &partition);
        // The same condensation predicate `run_horizon` applies; the
        // workers re-derive and assert it against their init.
        let condensed = self.config.shard_repr == ShardRepr::Histogram
            && wire_mode == WireMode::Batched
            && consume_mode == ConsumeMode::Native
            && self.rule.sample_access() != SampleAccess::OrderedWindow;
        let h = self.rule.sample_count() as u64;
        let merged = self.start;
        let auto = if condensed { arbitrate_gear(&merged, shards, n, h) } else { DataFormat::Pull };
        let initial_data =
            if wire_mode == WireMode::Batched { resolve_gear(data_gear, auto) } else { auto };
        let spec = FleetSpec {
            n,
            shards,
            k_slots,
            report_mode,
            wire_mode,
            consume_mode,
            repr: self.config.shard_repr,
            master_seed: self.config.seed,
            plan: plan.clone(),
            round_state: self.config.round_state,
            rule: self.rule.spec(),
            condensed,
            bodies: bodies.clone(),
        };
        let mut fleet = SocketFleet::launch(&spec, socket).expect("socket fleet launch");
        let out = if plan.is_active() {
            run_coordinator_faulty(
                rounds,
                n,
                h,
                k_slots,
                partition,
                &bodies,
                merged,
                &plan,
                initial_data,
                data_gear,
                fleet.link_mut(),
            )
        } else {
            run_coordinator_exact(
                rounds,
                n,
                h,
                k_slots,
                shards,
                report_mode,
                wire_mode,
                merged,
                initial_data,
                data_gear,
                fleet.link_mut(),
            )
        };
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

/// The strict-barrier coordinator (inert fault plans): every shard
/// reports every round, the formats are arbitrated round-by-round, and
/// the merged configuration folds lossless reports. This is the
/// pre-fault lockstep loop, byte-identical per seed.
#[allow(clippy::too_many_arguments)]
fn run_coordinator_exact(
    rounds: u64,
    n: u32,
    h: u64,
    k_slots: usize,
    shards: usize,
    report_mode: ReportMode,
    wire_mode: WireMode,
    mut merged: Configuration,
    initial_data: DataFormat,
    data_gear: GearMode,
    link: &mut dyn CoordinatorLink,
) -> HorizonOutcome {
    let mut trace = Trace::new();
    let mut consensus_round = None;
    let mut rounds_run = 0u64;
    let mut total_messages = 0u64;
    let mut report_entries = Vec::new();
    let mut reports: Vec<ShardReport> = Vec::with_capacity(shards);
    let mut stop = StopReason::HorizonExhausted;
    // Per-shard high-water marks of the cumulative wire-byte counters
    // the reports carry. Each report samples its shard's transport
    // *before* its own framing, so the last report read is one round
    // stale on the report-frame bytes; the max over all accepted
    // reports closes everything but that tail.
    let mut shard_sent = vec![0u64; shards];
    let mut shard_received = vec![0u64; shards];
    // The per-round report format: fixed in Sparse/Dense modes,
    // arbitrated on the reported changed-slot counts in Delta
    // mode (start absolute; switch once the changed set is
    // small, switch back if churn returns).
    let mut format = match report_mode {
        ReportMode::Sparse | ReportMode::Delta => ReportFormat::Sparse,
        ReportMode::Dense => ReportFormat::Dense,
    };
    // The data-plane format (batched wire only): pull/reply
    // until the occupancy concentrates enough that pushing
    // whole histograms is cheaper than answering pulls
    // (`occ · shards² ≤ n·h`), then histogram push — and back,
    // should occupancy ever rise (it cannot for the paper's
    // processes, but the protocol does not rely on that).
    // Round 1's gear is the caller's: start-arbitrated for
    // condensed fleets, pull-first for agent-backed ones.
    let mut data = initial_data;
    'rounds: for round in 1..=rounds {
        for s in 0..shards {
            if link.send_control(s, Control::Round { round, report: format, data }).is_err() {
                stop = StopReason::TransportLost;
                break 'rounds;
            }
        }
        reports.clear();
        let mut undecided = 0u64;
        let mut entries = 0u64;
        for _ in 0..shards {
            let Ok(report) = link.recv_report() else {
                stop = StopReason::TransportLost;
                break 'rounds;
            };
            undecided += report.undecided;
            total_messages += report.messages_sent;
            entries += report.body.entries();
            shard_sent[report.shard] = shard_sent[report.shard].max(report.bytes_sent);
            shard_received[report.shard] = shard_received[report.shard].max(report.bytes_received);
            reports.push(report);
        }
        rounds_run = round;
        report_entries.push(entries);
        match format {
            ReportFormat::Sparse => {
                merged.merge_sparse(reports.iter().map(|r| match &r.body {
                    ReportBody::Sparse(pairs) => pairs.as_slice(),
                    _ => unreachable!("sparse round, non-sparse report"),
                }));
            }
            ReportFormat::Delta => {
                merged.apply_deltas(reports.iter().map(|r| match &r.body {
                    ReportBody::Delta(pairs) => pairs.as_slice(),
                    _ => unreachable!("delta round, non-delta report"),
                }));
            }
            ReportFormat::Dense => {
                // The preserved pre-sparse path: a fresh dense
                // aggregate and configuration rebuild per round.
                let mut counts = vec![0u64; k_slots];
                for r in &reports {
                    let ReportBody::Dense(shard_counts) = &r.body else {
                        unreachable!("dense round, non-dense report")
                    };
                    for (total, c) in counts.iter_mut().zip(shard_counts) {
                        *total += c;
                    }
                }
                merged = Configuration::from_counts(counts);
            }
        }
        if report_mode == ReportMode::Delta {
            let changed: u64 = reports.iter().map(|r| r.changed_slots.unwrap_or(0)).sum();
            format = if changed * 2 <= merged.num_colors() as u64 {
                ReportFormat::Delta
            } else {
                ReportFormat::Sparse
            };
        }
        if wire_mode == WireMode::Batched {
            data = resolve_gear(data_gear, arbitrate_gear(&merged, shards, n, h));
        }
        trace.push(RoundStats {
            round,
            num_colors: merged.num_colors(),
            max_support: merged.max_support(),
            bias: merged.bias(),
        });
        if undecided == 0 && merged.is_consensus() {
            consensus_round = Some(round);
            stop = StopReason::Consensus;
            break;
        }
    }
    let faults = FaultCounters {
        bytes_sent: shard_sent.iter().sum::<u64>() + link.bytes_sent(),
        bytes_received: shard_received.iter().sum::<u64>() + link.bytes_received(),
        ..FaultCounters::default()
    };
    HorizonOutcome {
        stop,
        consensus_round,
        rounds_run,
        final_config: merged,
        trace,
        total_messages,
        report_entries,
        wire_bytes: faults.bytes_sent,
        faults,
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

/// The quorum-relaxed coordinator for active fault plans.
///
/// Each round it commands the live shards (replaying a snapshot to any
/// shard whose rejoin is due), sizes the report collection *exactly*
/// from the plan's stateless hashes — fresh copies per fault kind plus
/// last round's delayed stragglers, so the blocking receive needs no
/// timeout — and keeps a per-shard last-accepted body. Fresh valid
/// attendance must reach the `N − F` quorum or the run aborts with
/// [`StopReason::TooManyFaults`]. The merged (all shards) and honest
/// (non-Byzantine shards) views are rebuilt from the last-accepted
/// bodies each round; consensus is detected on the honest view, which
/// makes the coordinator a sound measurement harness under up to `F`
/// plausible liars — the lie lands in the *trace*, never in the
/// consensus verdict.
#[allow(clippy::too_many_arguments)]
fn run_coordinator_faulty(
    rounds: u64,
    n: u32,
    h: u64,
    k_slots: usize,
    partition: Partition,
    seed_bodies: &[Vec<(u32, u64)>],
    mut merged: Configuration,
    plan: &FaultPlan,
    initial_data: DataFormat,
    data_gear: GearMode,
    link: &mut dyn CoordinatorLink,
) -> HorizonOutcome {
    let shards = partition.shards;
    let quorum =
        quorum_threshold(shards as u64, (shards - plan.max_faulty) as f64 / shards as f64) as usize;

    // Per-shard last accepted report state, seeded from the start
    // configuration's per-shard bodies (already ascending, identical to
    // the old dense tally) so a crash in round 1 still has a snapshot
    // to rejoin from.
    let mut last_body: Vec<Vec<(u32, u64)>> = seed_bodies.to_vec();
    let mut last_undecided = vec![0u64; shards];
    let mut last_round = vec![0u64; shards];
    let mut honest = merged.clone();

    let mut trace = Trace::new();
    let mut consensus_round = None;
    let mut rounds_run = 0u64;
    let mut total_messages = 0u64;
    let mut report_entries = Vec::new();
    let mut faults = FaultCounters::default();
    let mut stop = StopReason::HorizonExhausted;
    let mut seen = vec![false; shards];
    // High-water marks of the cumulative wire-byte counters (sampled
    // pre-framing by every report, including duplicates and
    // stragglers — the max absorbs them all).
    let mut shard_sent = vec![0u64; shards];
    let mut shard_received = vec![0u64; shards];
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
                if link
                    .send_control(
                        s,
                        Control::Rejoin {
                            round,
                            body: last_body[s].clone(),
                            undecided: last_undecided[s],
                        },
                    )
                    .is_err()
                {
                    stop = StopReason::TransportLost;
                    break 'rounds;
                }
            }
            if link
                .send_control(s, Control::Round { round, report: ReportFormat::Sparse, data })
                .is_err()
            {
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

        // Size the relaxed barrier: exactly how many report messages
        // arrive this round — fresh copies by fault kind, plus last
        // round's delayed reports flushed by their shards' round-
        // command (a shard that crashed since voids its stash).
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
        let mut attendance = 0usize;
        let mut entries = 0u64;
        for _ in 0..expected {
            let Ok(rep) = link.recv_report() else {
                stop = StopReason::TransportLost;
                break 'rounds;
            };
            let s = rep.shard;
            assert!(rep.round <= round, "report from the future");
            entries += rep.body.entries();
            shard_sent[s] = shard_sent[s].max(rep.bytes_sent);
            shard_received[s] = shard_received[s].max(rep.bytes_received);
            if plan.byzantine_spec(s).is_some() {
                faults.byzantine_reports += 1;
            }
            if rep.round < round {
                // A straggler's delayed report: fold it as a re-sync if
                // it is newer than the shard's last accepted state (its
                // fresh successor may already have landed).
                faults.straggler_resyncs += 1;
                total_messages += rep.messages_sent;
                faults.recovered_samples += rep.recovered;
                if rep.round > last_round[s] {
                    match accept_body(&rep, k_slots, partition.range(s).len() as u64) {
                        Some(pairs) => {
                            last_body[s] = pairs.to_vec();
                            last_undecided[s] = rep.undecided;
                            last_round[s] = rep.round;
                        }
                        None => faults.rejected_reports += 1,
                    }
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
            match accept_body(&rep, k_slots, partition.range(s).len() as u64) {
                Some(pairs) => {
                    attendance += 1;
                    last_body[s] = pairs.to_vec();
                    last_undecided[s] = rep.undecided;
                    last_round[s] = round;
                }
                None => faults.rejected_reports += 1,
            }
        }
        rounds_run = round;
        report_entries.push(entries);

        // Rebuild the merged (all shards) and honest (non-Byzantine)
        // views from the last accepted bodies. Stale straggler bodies
        // can re-light colors the merged view had retired, hence the
        // revival-tolerant rebuild.
        merged.rebuild_sparse(last_body.iter().map(|b| b.as_slice()));
        honest.rebuild_sparse(
            last_body
                .iter()
                .enumerate()
                .filter(|&(s, _)| plan.byzantine_spec(s).is_none())
                .map(|(_, b)| b.as_slice()),
        );
        let honest_undecided: u64 = (0..shards)
            .filter(|&s| plan.byzantine_spec(s).is_none())
            .map(|s| last_undecided[s])
            .sum();

        if attendance < quorum {
            // The round degraded past the plan's tolerance: record the
            // round and abort rather than fold a minority view.
            stop = StopReason::TooManyFaults;
            trace.push(RoundStats {
                round,
                num_colors: merged.num_colors(),
                max_support: merged.max_support(),
                bias: merged.bias(),
            });
            break;
        }
        if attendance < shards {
            faults.quorum_rounds += 1;
        }
        // Pull/push arbitration over the merged view, exactly as on
        // the strict path (fault plans mandate the batched wire).
        data = resolve_gear(data_gear, arbitrate_gear(&merged, shards, n, h));
        trace.push(RoundStats {
            round,
            num_colors: merged.num_colors(),
            max_support: merged.max_support(),
            bias: merged.bias(),
        });
        if honest_undecided == 0 && honest.is_consensus() {
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
    fn cluster_is_deterministic_per_seed_in_both_wire_modes() {
        let start = Configuration::uniform(120, 6);
        for wire in [WireMode::Batched, WireMode::PerEntry] {
            let run = |seed| {
                let cfg = ClusterConfig::new(3, seed).with_wire_mode(wire);
                let cluster = Cluster::new(ThreeMajority, &start, cfg);
                cluster.run_to_consensus(100_000).expect("consensus").consensus_round
            };
            assert_eq!(run(42), run(42), "{wire:?} must be deterministic per seed");
        }
    }

    #[test]
    fn cluster_handles_undecided_dynamics() {
        let start = Configuration::from_counts(vec![80, 20]);
        let cluster = Cluster::new(UndecidedDynamics, &start, ClusterConfig::new(4, 5));
        let out = cluster.run_to_consensus(1_000_000).expect("consensus");
        assert!(out.final_config.is_consensus());
    }

    #[test]
    fn cluster_handles_undecided_dynamics_per_entry_and_delta() {
        let start = Configuration::from_counts(vec![80, 20]);
        for (wire, report) in
            [(WireMode::PerEntry, ReportMode::Sparse), (WireMode::Batched, ReportMode::Delta)]
        {
            let cfg = ClusterConfig::new(4, 5).with_wire_mode(wire).with_report_mode(report);
            let cluster = Cluster::new(UndecidedDynamics, &start, cfg);
            let out = cluster.run_to_consensus(1_000_000).expect("consensus");
            assert!(out.final_config.is_consensus(), "{wire:?}/{report:?}");
        }
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
    fn per_entry_message_accounting_matches_protocol_cost() {
        // Each round: every node sends h requests and receives h replies,
        // so total messages = rounds * 2 * n * h exactly — intra-shard
        // deliveries included, no coalescing.
        let n = 120u64;
        let start = Configuration::uniform(n, 4);
        let cfg = ClusterConfig::new(3, 8).with_wire_mode(WireMode::PerEntry);
        let cluster = Cluster::new(ThreeMajority, &start, cfg);
        let out = cluster.run_to_consensus(100_000).expect("consensus");
        assert_eq!(out.total_messages, out.consensus_round * 2 * n * 3);
    }

    #[test]
    fn batched_wire_moves_fewer_entries_than_per_entry() {
        // The aggregate data plane is bounded by the per-entry cost
        // model (a palette never carries more entries than the pulls it
        // answers) and collapses far below it once the per-pair draw
        // count dwarfs the distinct-opinion count, where the serving
        // side switches from raw palettes to run-length histograms.
        let n = 4096u64;
        let start = Configuration::uniform(n, 8);
        let run = |wire| {
            let cfg = ClusterConfig::new(4, 9).with_wire_mode(wire);
            Cluster::new(ThreeMajority, &start, cfg).run_horizon(40)
        };
        let batched = run(WireMode::Batched);
        let per_entry = run(WireMode::PerEntry);
        assert_eq!(per_entry.total_messages, per_entry.rounds_run * 2 * n * 3);
        let batched_per_round = batched.total_messages / batched.rounds_run;
        assert!(
            batched_per_round < per_entry.total_messages / per_entry.rounds_run / 4,
            "batched wire should collapse the per-round entry count \
             (batched {batched_per_round}/round vs per-entry {}/round)",
            2 * n * 3
        );
    }

    #[test]
    fn report_modes_run_the_same_trajectory_batched() {
        // The report wire format never touches the protocol RNG streams,
        // so same seed + same wire mode ⇒ identical realized process.
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
            let dense = run(ReportMode::Dense);
            let delta = run(ReportMode::Delta);
            assert_eq!(sparse.consensus_round, dense.consensus_round);
            assert_eq!(sparse.trace, dense.trace);
            assert_eq!(sparse.final_config, dense.final_config);
            assert_eq!(sparse.total_messages, dense.total_messages);
            assert_eq!(sparse.consensus_round, delta.consensus_round);
            assert_eq!(sparse.trace, delta.trace);
            assert_eq!(sparse.final_config, delta.final_config);
            assert_eq!(sparse.total_messages, delta.total_messages);
        }
    }

    #[test]
    fn report_modes_run_the_same_trajectory_per_entry() {
        let start = Configuration::from_counts(vec![1; 64]);
        let run = |mode| {
            let cfg =
                ClusterConfig::new(4, 12).with_report_mode(mode).with_wire_mode(WireMode::PerEntry);
            Cluster::new(ThreeMajority, &start, cfg).run_to_consensus(1_000_000).expect("consensus")
        };
        let sparse = run(ReportMode::Sparse);
        let dense = run(ReportMode::Dense);
        let delta = run(ReportMode::Delta);
        assert_eq!(sparse.consensus_round, dense.consensus_round);
        assert_eq!(sparse.trace, dense.trace);
        assert_eq!(sparse.final_config, dense.final_config);
        assert_eq!(sparse.consensus_round, delta.consensus_round);
        assert_eq!(sparse.trace, delta.trace);
        assert_eq!(sparse.final_config, delta.final_config);
    }

    #[test]
    fn dense_and_sparse_agree_under_undecided_dynamics() {
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
        let dense = run(ReportMode::Dense);
        let delta = run(ReportMode::Delta);
        assert_eq!(sparse.consensus_round, dense.consensus_round);
        assert_eq!(sparse.trace, dense.trace);
        assert_eq!(sparse.final_config, dense.final_config);
        assert_eq!(sparse.trace, delta.trace);
        assert_eq!(sparse.final_config, delta.final_config);
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
    fn consume_modes_are_deterministic_and_reach_consensus() {
        // Both consumption modes on the batched wire, for a multiset
        // rule (3-Majority), a single-peer rule (Voter), and the
        // own-state-reading 2-Median.
        use symbreak_core::rules::TwoMedian;
        let start = Configuration::uniform(120, 6);
        for consume in [ConsumeMode::Native, ConsumeMode::Ordered] {
            let run = |seed| {
                let cfg = ClusterConfig::new(3, seed).with_consume_mode(consume);
                let cluster = Cluster::new(ThreeMajority, &start, cfg);
                cluster.run_to_consensus(100_000).expect("consensus").consensus_round
            };
            assert_eq!(run(42), run(42), "{consume:?} must be deterministic per seed");
        }
        for consume in [ConsumeMode::Native, ConsumeMode::Ordered] {
            let cfg = ClusterConfig::new(4, 7).with_consume_mode(consume);
            let out = Cluster::new(Voter, &Configuration::uniform(64, 4), cfg)
                .run_to_consensus(1_000_000)
                .expect("consensus");
            assert!(out.final_config.is_consensus(), "Voter/{consume:?}");
            let cfg = ClusterConfig::new(4, 8).with_consume_mode(consume);
            let out = Cluster::new(TwoMedian, &Configuration::uniform(64, 5), cfg)
                .run_to_consensus(1_000_000)
                .expect("consensus");
            assert!(out.final_config.is_consensus(), "2-Median/{consume:?}");
        }
    }

    #[test]
    fn native_report_modes_run_the_same_trajectory() {
        // The report format still never touches the data-plane RNG
        // streams under native consumption.
        let start = Configuration::from_counts(vec![1; 64]);
        let run = |mode| {
            Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 12).with_report_mode(mode))
                .run_to_consensus(1_000_000)
                .expect("consensus")
        };
        let sparse = run(ReportMode::Sparse);
        let delta = run(ReportMode::Delta);
        assert_eq!(sparse.trace, delta.trace);
        assert_eq!(sparse.final_config, delta.final_config);
    }

    #[test]
    fn run_horizon_reports_capped_trajectories() {
        let start = Configuration::singletons(128);
        let cfg = ClusterConfig::new(4, 9).with_wire_mode(WireMode::PerEntry);
        let cluster = Cluster::new(Voter, &start, cfg);
        let out = cluster.run_horizon(5);
        assert_eq!(out.rounds_run, 5);
        assert_eq!(out.consensus_round, None, "128 singletons cannot converge in 5 rounds");
        assert_eq!(out.trace.len(), 5);
        assert_eq!(out.final_config.n(), 128);
        assert_eq!(out.total_messages, 5 * 2 * 128);
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
    fn rounds_without_cross_shard_replies_terminate() {
        // With n = 2 nodes on 2 shards and h = 1, both nodes sample their
        // own shard with probability 1/4 per round, so runs repeatedly
        // hit rounds where *zero* reply batches cross shard boundaries —
        // exactly the case the per-entry protocol must survive without
        // the (skipped) empty reply batches. Replies are counted by
        // entry, not by batch, so every one of these runs must still
        // terminate.
        for seed in 0..40 {
            let start = Configuration::uniform(2, 2);
            let cfg = ClusterConfig::new(2, seed).with_wire_mode(WireMode::PerEntry);
            let cluster = Cluster::new(Voter, &start, cfg);
            let out = cluster.run_to_consensus(100_000).expect("consensus despite empty replies");
            assert!(out.final_config.is_consensus());
        }
    }

    #[test]
    fn batched_tiny_clusters_terminate() {
        // The batched analogue: n = 2 on 2 shards hits rounds where a
        // peer's pull batch is empty (zero draws land on it) — survived
        // via the always-sent (possibly empty) batches that close both
        // phases by count.
        for seed in 0..40 {
            let start = Configuration::uniform(2, 2);
            let cluster = Cluster::new(Voter, &start, ClusterConfig::new(2, seed));
            let out = cluster.run_to_consensus(100_000).expect("consensus");
            assert!(out.final_config.is_consensus());
        }
    }

    #[test]
    #[should_panic(expected = "one node per shard")]
    fn more_shards_than_nodes_panics() {
        let start = Configuration::uniform(3, 3);
        Cluster::new(Voter, &start, ClusterConfig::new(8, 0));
    }
}
