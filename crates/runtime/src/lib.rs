#![warn(missing_docs)]
//! Message-passing distributed runtime for the paper's protocols.
//!
//! The engines in `symbreak-core` sample the process *law*; this crate
//! executes the protocol the way the paper's system model describes it —
//! anonymous nodes that, each synchronous round, **pull** the opinions of
//! uniformly random peers via messages and apply their update rule
//! locally. Nodes are partitioned into shard threads that exchange
//! batched [`message`]s over channels; a coordinator drives the
//! synchronous rounds (the barrier) and collects per-round observables.
//!
//! The runtime makes three properties of the model concrete:
//!
//! * **Anonymity** — pulls carry no requester identity beyond an opaque
//!   reply route; update rules see only opinions.
//! * **Uniform Pull** — each node draws `h` uniform random node ids per
//!   round; the owning shard answers with opinions *frozen at the round
//!   start* (synchrony).
//! * **O(log k) state** — a node's state is its opinion; shards hold no
//!   global view.
//!
//! Traffic is aggregate end-to-end (see [`message`] for the wire
//! protocol, and `docs/ARCHITECTURE.md` for the message-cost model):
//!
//! * **Data plane** ([`WireMode`]) — by default each shard pair
//!   exchanges one `PullBatch` of target runs and one `OpinionPalette`
//!   sampled shard-side per round, and once occupancy concentrates the
//!   coordinator flips the fleet to histogram *push*
//!   ([`DataFormat::Push`]): every shard broadcasts its opinion
//!   histogram and draws its own pulls from the union via one alias
//!   table — `O(#shards² · #distinct)` channel entries per round
//!   instead of the per-entry `2·n·h`. The per-entry request/reply
//!   format survives as [`WireMode::PerEntry`] for paired
//!   benchmarking; every format realizes exactly the Uniform Pull law.
//! * **Control plane** ([`ReportMode`]) — shards report sparse
//!   `(slot, count)` pairs over their locally occupied colors, folded
//!   into one persistent merged [`Configuration`] via
//!   `Configuration::merge_sparse`; under [`ReportMode::Delta`] the
//!   coordinator switches the fleet to signed `(slot, Δcount)` reports
//!   (merged via `Configuration::apply_deltas`) once the per-round
//!   changed-slot set collapses — `O(#changed)` wire entries and
//!   coordinator fold per round exactly where the high-occupancy
//!   Theorem-5 regime lives.
//! * **Shard representation** ([`ShardRepr`]) — by default shards whose
//!   rule consumes multisets or single peers on the batched wire are
//!   *condensed*: their whole state is a local histogram, stepped by
//!   closed-form aggregate draws — `O(#occupied)` memory and, in the
//!   push gear, `O(#occupied · h)` per-round compute, independent of
//!   `local_n` — which is what makes `n ≥ 10⁸` Theorem-5 sweeps
//!   tractable. [`ShardRepr::Agents`] forces the materialized per-agent
//!   vector everywhere as the paired baseline.
//! * **Fault layer** ([`FaultPlan`]) — a seeded, deterministic fault
//!   schedule interposes on the wire path: dropped / duplicated /
//!   delayed palettes and reports, crash-stop shards that rejoin from
//!   coordinator snapshots, and Byzantine shards whose corrupted report
//!   bodies are rejected (mass-violating) or tolerated by quorum
//!   (plausible). The coordinator relaxes its barrier to `N − F`
//!   attendance and the outcome carries a typed [`StopReason`] plus
//!   [`FaultCounters`]. Every fault decision is a stateless hash shared
//!   by sender, receiver, and coordinator, so degraded runs stay
//!   deterministic and deadlock-free (see [`fault`]).
//! * **Transport layer** ([`transport`]) — every shard↔shard and
//!   shard↔coordinator message crosses a [`transport::Transport`] /
//!   coordinator-link abstraction with a compact versioned byte
//!   [`codec`] (little-endian, varint counts, round-tagged frame
//!   headers). Two backends: in-process channels (the default — counts
//!   frame bytes without serializing, byte-identical per seed to the
//!   pre-codec runtime) and Unix-domain/TCP sockets
//!   ([`Cluster::run_horizon_socket`]), where the fleet runs as one OS
//!   process per shard spawned from a worker binary
//!   ([`transport::shard_process_main`]). A vanished peer aborts the
//!   run with [`StopReason::TransportLost`] instead of deadlocking.
//!
//! [`Configuration`]: symbreak_core::Configuration
//!
//! The test-suite cross-validates the runtime against the single-threaded
//! engines: same process law, same consensus behaviour.
//!
//! # Examples
//!
//! Run to consensus on the default (batched, sparse-report) formats:
//!
//! ```
//! use symbreak_runtime::{Cluster, ClusterConfig};
//! use symbreak_core::rules::ThreeMajority;
//! use symbreak_core::Configuration;
//!
//! let start = Configuration::uniform(256, 8);
//! let cluster = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 7));
//! let outcome = cluster.run_to_consensus(10_000).expect("consensus");
//! assert_eq!(outcome.final_config.num_colors(), 1);
//! ```
//!
//! Fixed-horizon runs (the Theorem-5 entry point) report the trajectory
//! whether or not consensus is reached, plus the per-round control-plane
//! size the delta reports collapse:
//!
//! ```
//! use symbreak_runtime::{Cluster, ClusterConfig, ReportMode};
//! use symbreak_core::rules::TwoChoices;
//! use symbreak_core::Configuration;
//!
//! let start = Configuration::singletons(256);
//! let config = ClusterConfig::new(4, 7).with_report_mode(ReportMode::Delta);
//! let out = Cluster::new(TwoChoices, &start, config).run_horizon(10);
//! assert_eq!(out.rounds_run, 10);
//! assert_eq!(out.consensus_round, None); // 2-Choices stalls from singletons
//! assert_eq!(out.report_entries.len(), 10);
//! assert!(out.trace.rounds().iter().all(|r| r.max_support < 256));
//! ```

pub mod cluster;
pub mod codec;
pub mod fault;
pub mod message;
pub mod shard;
pub mod transport;

pub use cluster::{
    Cluster, ClusterConfig, ClusterOutcome, ConsumeMode, GearMode, HorizonOutcome, ReportMode,
    ShardRepr, WireMode,
};
pub use fault::{
    ByzantineSpec, CorruptionKind, CrashSpec, FaultCounters, FaultKind, FaultPlan, StopReason,
};
pub use message::{
    DataFormat, OpinionPalette, PullBatch, ReportBody, ReportFormat, Request, ShardMessage,
    TargetRun,
};
pub use symbreak_core::RoundStateMode;
pub use transport::{
    shard_process_main, spawn_shard_process, RuleSpec, SocketConfig, Transport, TransportAddr,
    TransportLost, WireRule,
};
