//! Socket-backend integration: a fleet of shard *processes* over Unix
//! domain sockets (TCP smoke-tested where the sandbox permits) must
//! replay the channel backend's trajectory byte-for-byte per seed —
//! the RNG streams and protocol logic live in shard code generic over
//! the transport, and the codec consumes no randomness — and a peer
//! vanishing mid-run must abort with a typed
//! [`StopReason::TransportLost`], never deadlock.

use std::path::PathBuf;

use symbreak_core::rules::{LazyVoter, ThreeMajority, TwoChoices, Voter};
use symbreak_core::Configuration;
use symbreak_runtime::{
    Cluster, ClusterConfig, FaultPlan, GearMode, ReportMode, RoundStateMode, ShardRepr,
    SocketConfig, StopReason, TransportAddr, WireRule,
};

/// The worker binary Cargo built alongside this test.
fn worker() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_symbreak_shard_worker"))
}

fn unix_config() -> SocketConfig {
    SocketConfig { worker: Some(worker()), ..SocketConfig::default() }
}

fn trace_digest(trace: &symbreak_sim::trace::Trace) -> u64 {
    let mut acc = 0u64;
    for r in trace.rounds() {
        acc = acc
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(r.round)
            .wrapping_add((r.num_colors as u64) << 20)
            .wrapping_add(r.max_support << 40)
            .wrapping_add(r.bias);
    }
    acc
}

// ---------------------------------------------------------------------
// Seed-exact parity with the channel backend.
// ---------------------------------------------------------------------

#[test]
fn socket_fleet_replays_channel_trajectory_condensed() {
    let start = Configuration::uniform(400, 8);
    let config = || ClusterConfig::new(4, 42);
    let channel = Cluster::new(ThreeMajority, &start, config()).run_horizon(25);
    let socket =
        Cluster::new(ThreeMajority, &start, config()).run_horizon_socket(25, &unix_config());
    assert_eq!(trace_digest(&socket.trace), trace_digest(&channel.trace));
    assert_eq!(socket.final_config, channel.final_config);
    assert_eq!(socket.consensus_round, channel.consensus_round);
    assert_eq!(socket.total_messages, channel.total_messages);
    assert_eq!(socket.report_entries, channel.report_entries);
    // The tentpole parity claim: the channel backend's counted frame
    // lengths equal the socket backend's actually-written bytes.
    assert_eq!(socket.wire_bytes, channel.wire_bytes);
    assert_eq!(socket.faults.bytes_sent, channel.faults.bytes_sent);
    assert_eq!(socket.faults.bytes_received, channel.faults.bytes_received);
    assert!(socket.wire_bytes > 0);
}

#[test]
fn socket_fleet_replays_channel_trajectory_agents_delta() {
    // Agent-backed shards + the delta control plane: exercises Rejoin-
    // free sparse/delta arbitration and per-agent init expansion in the
    // worker.
    let start = Configuration::singletons(300);
    let config = || {
        ClusterConfig::new(3, 7)
            .with_shard_repr(ShardRepr::Agents)
            .with_report_mode(ReportMode::Delta)
    };
    let channel = Cluster::new(Voter, &start, config()).run_horizon(20);
    let socket = Cluster::new(Voter, &start, config()).run_horizon_socket(20, &unix_config());
    assert_eq!(trace_digest(&socket.trace), trace_digest(&channel.trace));
    assert_eq!(socket.total_messages, channel.total_messages);
    assert_eq!(socket.wire_bytes, channel.wire_bytes);
}

#[test]
fn socket_fleet_replays_agent_delta_golden() {
    // The stalled 2-Choices delta golden of `fault_properties.rs`
    // (S = 2) over worker processes: opinion-diff delta reports must
    // frame to the same bytes the channel backend counts.
    let start = Configuration::singletons(4096);
    let config = ClusterConfig::new(2, 7).with_report_mode(ReportMode::Delta);
    let out = Cluster::new(TwoChoices, &start, config).run_horizon_socket(60, &unix_config());
    assert_eq!(trace_digest(&out.trace), 0x4e82_89fe_00b3_8a82);
    assert_eq!(out.wire_bytes, 989_442);
    assert_eq!(out.total_messages, 491_760);
    assert_eq!(out.report_entries.iter().sum::<u64>(), 4230);
}

/// Runs `rule` on the incremental push gear over channels and over
/// sockets and asserts the two agree on trajectory, message count and
/// bytes — and that delta rounds actually ran (the rebuild broadcast
/// costs more messages).
fn assert_incremental_push_parity<R: WireRule + Clone + Send>(
    rule: R,
    start: &Configuration,
    repr: ShardRepr,
) {
    let config = |mode| {
        ClusterConfig::new(3, 21)
            .with_shard_repr(repr)
            .with_data_gear(GearMode::ForcePush)
            .with_round_state(mode)
    };
    let incremental = || config(RoundStateMode::Incremental);
    let channel = Cluster::new(rule.clone(), start, incremental()).run_horizon(20);
    let socket =
        Cluster::new(rule.clone(), start, incremental()).run_horizon_socket(20, &unix_config());
    assert_eq!(trace_digest(&socket.trace), trace_digest(&channel.trace), "{repr:?}");
    assert_eq!(socket.final_config, channel.final_config, "{repr:?}");
    assert_eq!(socket.total_messages, channel.total_messages, "{repr:?}");
    assert_eq!(socket.wire_bytes, channel.wire_bytes, "{repr:?}");
    assert_eq!(socket.faults.bytes_sent, channel.faults.bytes_sent, "{repr:?}");
    assert_eq!(socket.faults.bytes_received, channel.faults.bytes_received, "{repr:?}");
    let rebuild = Cluster::new(rule, start, config(RoundStateMode::Rebuild)).run_horizon(20);
    assert!(channel.total_messages < rebuild.total_messages, "{repr:?}: no delta rounds");
}

#[test]
fn socket_fleet_replays_channel_trajectory_incremental_push() {
    // The incremental push gear ships delta palettes after its first
    // full broadcast, through the transport's broadcast: one encoding
    // written to every remote peer, the self copy looped back. The
    // condensed fleet runs 3-Majority from a concentrated start; the
    // agent-backed one runs the stalled 2-Choices singleton regime,
    // where only a few opinions switch per round.
    assert_incremental_push_parity(
        ThreeMajority,
        &Configuration::uniform(400, 8),
        ShardRepr::Histogram,
    );
    assert_incremental_push_parity(TwoChoices, &Configuration::singletons(300), ShardRepr::Agents);
}

#[test]
fn socket_fleet_runs_parameterized_rules_to_consensus() {
    // A rule with a serialized parameter (LazyVoter's activity) crosses
    // the init frame intact and reaches consensus over sockets.
    let start = Configuration::uniform(200, 4);
    let config = ClusterConfig::new(2, 11);
    let out = Cluster::new(LazyVoter::new(0.5), &start, config)
        .run_to_consensus_socket(100_000, &unix_config())
        .expect("consensus over sockets");
    assert!(out.final_config.is_consensus());
    assert_eq!(out.final_config.n(), 200);
}

#[test]
fn socket_fleet_survives_fault_plan() {
    // The round-tag parking and quorum machinery over real sockets:
    // drop/dup/delay palettes and reports, same trajectory as channels.
    let start = Configuration::uniform(240, 8);
    let plan = FaultPlan::none()
        .with_seed(5)
        .with_palette_rates(0.1, 0.1, 0.1)
        .with_report_rates(0.05, 0.05, 0.05)
        .with_max_faulty(3);
    let config = || ClusterConfig::new(4, 13).with_fault_plan(plan.clone());
    let channel = Cluster::new(ThreeMajority, &start, config()).run_horizon(15);
    let socket =
        Cluster::new(ThreeMajority, &start, config()).run_horizon_socket(15, &unix_config());
    assert_eq!(trace_digest(&socket.trace), trace_digest(&channel.trace));
    assert_eq!(socket.total_messages, channel.total_messages);
    assert_eq!(socket.stop, channel.stop);
    // The fault counters proper tally identically (stateless shared
    // hashes). The byte counters are *nearly* identical: under the
    // relaxed barrier a next-round message can race into this round's
    // receive loop in either backend, and when the sampled cumulative
    // crosses a varint length boundary the report's own frame grows a
    // byte — so allow a few bytes of slack instead of exact equality
    // (which the inert-plan tests above do pin).
    let mut s = socket.faults;
    let mut c = channel.faults;
    let sent_gap = s.bytes_sent.abs_diff(c.bytes_sent);
    let recv_gap = s.bytes_received.abs_diff(c.bytes_received);
    assert!(sent_gap <= 16, "sent {} vs {}", s.bytes_sent, c.bytes_sent);
    assert!(recv_gap <= 16, "received {} vs {}", s.bytes_received, c.bytes_received);
    s.bytes_sent = 0;
    s.bytes_received = 0;
    c.bytes_sent = 0;
    c.bytes_received = 0;
    assert_eq!(s, c);
}

// ---------------------------------------------------------------------
// Hang-free disconnect.
// ---------------------------------------------------------------------

#[test]
fn killed_worker_aborts_with_transport_lost() {
    // Shard 1's worker self-terminates at round 3 (before exchanging):
    // the EOF cascades through its peers and the coordinator, and the
    // run aborts with the typed reason instead of deadlocking.
    let start = Configuration::uniform(200, 8);
    let cfg = SocketConfig { kill: Some((1, 3)), ..unix_config() };
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 42))
        .run_horizon_socket(1_000, &cfg);
    assert_eq!(out.stop, StopReason::TransportLost);
    assert_eq!(out.consensus_round, None);
    assert!(out.rounds_run >= 2, "rounds before the kill completed normally");
    assert!(out.rounds_run < 1_000, "the horizon was cut short");
}

#[test]
fn killed_worker_round_one_aborts_without_progress() {
    let start = Configuration::uniform(120, 4);
    let cfg = SocketConfig { kill: Some((0, 1)), ..unix_config() };
    let out = Cluster::new(Voter, &start, ClusterConfig::new(2, 3)).run_horizon_socket(1_000, &cfg);
    assert_eq!(out.stop, StopReason::TransportLost);
    assert!(out.trace.rounds().len() <= 1);
}

// ---------------------------------------------------------------------
// TCP smoke (skipped where the sandbox forbids loopback binds).
// ---------------------------------------------------------------------

#[test]
fn tcp_fleet_matches_channel_when_loopback_is_permitted() {
    if std::net::TcpListener::bind("127.0.0.1:0").is_err() {
        eprintln!("skipping TCP transport smoke: loopback bind not permitted in this sandbox");
        return;
    }
    let start = Configuration::uniform(200, 8);
    let config = || ClusterConfig::new(3, 9);
    let channel = Cluster::new(ThreeMajority, &start, config()).run_horizon(10);
    let cfg =
        SocketConfig { addr: Some(TransportAddr::Tcp("127.0.0.1:0".to_string())), ..unix_config() };
    let socket = Cluster::new(ThreeMajority, &start, config()).run_horizon_socket(10, &cfg);
    assert_eq!(trace_digest(&socket.trace), trace_digest(&channel.trace));
    assert_eq!(socket.wire_bytes, channel.wire_bytes);
}
