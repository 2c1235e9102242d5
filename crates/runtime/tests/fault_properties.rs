//! Fault-injection layer tests: seed-exactness of inert plans, fault
//! tolerance and degradation semantics of active ones.
//!
//! The golden tests pin the exact trajectory of the fault-free path so
//! a fault-layer regression that perturbs the strict barrier (an extra
//! RNG draw, a reordered fold, a changed message count) is caught as a
//! digest mismatch rather than a silent drift.

use proptest::prelude::*;
use symbreak_core::rules::{ThreeMajority, TwoChoices, Voter};
use symbreak_core::Configuration;
use symbreak_runtime::{
    ByzantineSpec, Cluster, ClusterConfig, ConsumeMode, CorruptionKind, CrashSpec, FaultKind,
    FaultPlan, ReportMode, RoundStateMode, ShardRepr, StopReason, WireMode,
};

/// Strips the wire-byte counters (PR 8) off a [`FaultCounters`] so the
/// pre-transport goldens can still pin "all *fault* counters zero":
/// frame bytes are counted even on the fault-free channel path, and a
/// nonzero byte tally is correctness there, not degradation.
fn zero_bytes(mut faults: symbreak_runtime::FaultCounters) -> symbreak_runtime::FaultCounters {
    assert!(faults.bytes_sent > 0, "every run moves at least its reports");
    assert!(faults.bytes_received > 0);
    faults.bytes_sent = 0;
    faults.bytes_received = 0;
    faults
}

/// Order-sensitive fold over the per-round observables; any divergence
/// in any round of the trajectory changes the digest.
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
// Seed-exactness of the inert plan: `FaultPlan::none()` must leave the
// strict coordinator byte-for-byte identical to the pre-fault runtime.
// The pinned values are the PR 5 goldens.
// ---------------------------------------------------------------------

#[test]
fn inert_plan_is_the_default_config() {
    assert_eq!(FaultPlan::none(), FaultPlan::default());
    assert_eq!(
        ClusterConfig::new(4, 42),
        ClusterConfig::new(4, 42).with_fault_plan(FaultPlan::none())
    );
}

#[test]
fn golden_three_majority_inert_plan_seed_exact() {
    // `ShardRepr::Agents` pins the materialized per-agent baseline: an
    // inert plan on agent-backed shards must replay the pre-condensation
    // trajectory byte-for-byte.
    let start = Configuration::uniform(200, 8);
    let config = ClusterConfig::new(4, 42)
        .with_shard_repr(ShardRepr::Agents)
        .with_fault_plan(FaultPlan::none());
    let out =
        Cluster::new(ThreeMajority, &start, config).run_to_consensus(1_000_000).expect("consensus");
    assert_eq!(out.consensus_round, 20);
    assert_eq!(out.total_messages, 4320);
    assert_eq!(trace_digest(&out.trace), 0x4f42011c66704f4b);
    assert_eq!(zero_bytes(out.faults), Default::default());
}

#[test]
fn golden_two_choices_inert_plan_seed_exact() {
    // Default `ShardRepr::Histogram` requested, but 2-Choices consumes an
    // ordered window, so the arbitration downgrades to agent-backed shards
    // and the PR 6 golden must hold unchanged.
    let start = Configuration::singletons(128);
    let config = ClusterConfig::new(3, 7)
        .with_consume_mode(ConsumeMode::Ordered)
        .with_fault_plan(FaultPlan::none());
    let out = Cluster::new(TwoChoices, &start, config).run_horizon(30);
    assert_eq!(out.final_config.num_colors(), 96);
    assert_eq!(out.total_messages, 7950);
    assert_eq!(out.report_entries.iter().sum::<u64>(), 3696);
    assert_eq!(trace_digest(&out.trace), 0x9007113d1f373db1);
    assert_eq!(out.stop, StopReason::HorizonExhausted);
    assert!(out.wire_bytes > 0, "the channel backend still counts frame bytes");
    assert_eq!(out.wire_bytes, out.faults.bytes_sent);
    assert_eq!(zero_bytes(out.faults), Default::default());
}

#[test]
fn golden_voter_per_entry_inert_plan_seed_exact() {
    // Per-entry wire forces agent-backed shards regardless of the default
    // `ShardRepr::Histogram`, so this PR 6 golden must hold unchanged.
    let start = Configuration::uniform(120, 6);
    let config = ClusterConfig::new(3, 9)
        .with_wire_mode(WireMode::PerEntry)
        .with_fault_plan(FaultPlan::none());
    let out = Cluster::new(Voter, &start, config).run_to_consensus(1_000_000).expect("consensus");
    assert_eq!(out.consensus_round, 92);
    assert_eq!(out.total_messages, 22080);
    assert_eq!(trace_digest(&out.trace), 0x8fe0152528e7a52c);
}

/// The condensed push gear: 3-Majority from a uniform 4096-color start
/// at n = 10⁶ arbitrates every round to push, so each round is one
/// union of the fleet's histogram broadcasts plus one closed-form step.
/// Recorded on the scatter-and-sort union with frames sized at both
/// ends; the sorted-merge union and once-sized broadcast frames must
/// replay trajectory, wire bytes and message counts exactly.
#[test]
fn golden_condensed_push_three_majority() {
    let start = Configuration::uniform(1_000_000, 4096);
    // (shards, digest, Rebuild (wire_bytes, total_messages), Incremental (...)).
    let cases = [
        (2, 0xc063_7112_d92c_60d1, (3_383_659, 966_660), (3_145_023, 939_316)),
        (3, 0x1a03_4cd0_65ce_a18a, (6_455_585, 2_162_700), (6_283_067, 2_090_826)),
        (5, 0x7f6f_2275_45f2_f8cf, (16_559_977, 5_980_200), (15_958_207, 5_729_160)),
    ];
    for (shards, digest, rebuild, incremental) in cases {
        for (mode, (wire_bytes, total_messages)) in
            [(RoundStateMode::Rebuild, rebuild), (RoundStateMode::Incremental, incremental)]
        {
            let config = ClusterConfig::new(shards, 7).with_round_state(mode);
            let out = Cluster::new(ThreeMajority, &start, config).run_horizon(30);
            assert_eq!(trace_digest(&out.trace), digest, "S={shards} {mode:?}: digest");
            assert_eq!(out.wire_bytes, wire_bytes, "S={shards} {mode:?}: wire bytes");
            assert_eq!(out.total_messages, total_messages, "S={shards} {mode:?}: messages");
        }
    }
}

/// Agent-backed shards under [`ReportMode::Delta`]: 2-Choices from
/// singletons stalls, so the coordinator switches the fleet to delta
/// reports within a few rounds; 3-Majority on forced agent shards keeps
/// enough churn that most rounds stay sparse under tracking. Recorded
/// with dense `prev_counts` baselines on the shards and an occupancy
/// rescan in every coordinator fold; opinion-diff reports and the
/// `O(#changed)` fold must replay trajectory, wire bytes, message
/// counts and report entries exactly.
#[test]
fn golden_agent_delta_reports() {
    let start = Configuration::singletons(4096);
    // (rule, shards, digest, wire_bytes, total_messages, Σ report_entries).
    let cases = [
        ("2-Choices", 2, 0x4e82_89fe_00b3_8a82, 989_442, 491_760, 4230),
        ("2-Choices", 3, 0x9d25_4e2d_3897_ca31, 998_479, 492_060, 4216),
        ("3-Majority", 3, 0xc077_c1e0_1541_fd44, 908_661, 329_184, 56_267),
    ];
    for (rule, shards, digest, wire_bytes, total_messages, entries) in cases {
        let config = ClusterConfig::new(shards, 7).with_report_mode(ReportMode::Delta);
        let out = match rule {
            "2-Choices" => Cluster::new(TwoChoices, &start, config).run_horizon(60),
            _ => Cluster::new(ThreeMajority, &start, config.with_shard_repr(ShardRepr::Agents))
                .run_horizon(60),
        };
        assert_eq!(trace_digest(&out.trace), digest, "{rule} S={shards}: digest");
        assert_eq!(out.wire_bytes, wire_bytes, "{rule} S={shards}: wire bytes");
        assert_eq!(out.total_messages, total_messages, "{rule} S={shards}: messages");
        assert_eq!(
            out.report_entries.iter().sum::<u64>(),
            entries,
            "{rule} S={shards}: report entries"
        );
    }
}

// ---------------------------------------------------------------------
// Duplicate-only plans: identical copies are deduplicated by receivers
// and the coordinator, so the trajectory is *exactly* the fault-free
// one — only the wire accounting grows.
// ---------------------------------------------------------------------

#[test]
fn palette_duplicates_dedup_to_fault_free_trajectory() {
    let start = Configuration::uniform(160, 8);
    let free = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 11))
        .run_to_consensus(1_000_000)
        .expect("consensus");
    let plan = FaultPlan::none().with_seed(5).with_palette_rates(0.0, 1.0, 0.0);
    let faulty =
        Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 11).with_fault_plan(plan))
            .run_to_consensus(1_000_000)
            .expect("consensus under duplicates");
    assert_eq!(faulty.consensus_round, free.consensus_round);
    assert_eq!(trace_digest(&faulty.trace), trace_digest(&free.trace));
    assert_eq!(faulty.final_config, free.final_config);
    // Every inter-shard palette was sent twice: the duplicate copies
    // are real wire traffic and must be counted.
    assert!(faulty.total_messages > free.total_messages);
    assert!(faulty.faults.palettes_duplicated > 0);
    assert_eq!(faulty.faults.recovered_samples, 0);
}

#[test]
fn report_duplicates_double_entries_but_not_data_plane() {
    let start = Configuration::uniform(160, 8);
    let free = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 11)).run_horizon(12);
    let plan = FaultPlan::none().with_seed(5).with_report_rates(0.0, 1.0, 0.0);
    let faulty =
        Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 11).with_fault_plan(plan))
            .run_horizon(12);
    assert_eq!(trace_digest(&faulty.trace), trace_digest(&free.trace));
    // A duplicated report re-sends its body (control-plane entries
    // doubled) but describes the same data-plane traffic (messages
    // unchanged).
    assert_eq!(faulty.total_messages, free.total_messages);
    for (f, o) in faulty.report_entries.iter().zip(free.report_entries.iter()) {
        assert_eq!(*f, 2 * o);
    }
    assert_eq!(faulty.faults.reports_duplicated, 4 * 12);
}

// ---------------------------------------------------------------------
// Lossy plans: dropped or delayed palettes are compensated by local
// re-sampling, so mass is conserved and consensus still lands.
// ---------------------------------------------------------------------

#[test]
fn palette_drops_are_recovered_and_consensus_holds() {
    // Singleton start: the fleet boots in the pull gear (a concentrated
    // start would arbitrate every round to push, whose loss
    // compensation is union renormalization, not local re-sampling —
    // `recovered_samples` is a pull-gear counter).
    let start = Configuration::singletons(200);
    let plan = FaultPlan::none().with_seed(3).with_palette_rates(0.25, 0.0, 0.0);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 42).with_fault_plan(plan))
        .run_to_consensus(1_000_000)
        .expect("consensus under palette loss");
    assert!(out.faults.palettes_dropped > 0);
    assert!(out.faults.recovered_samples > 0);
    assert_eq!(out.final_config.n(), 200);
    assert!(out.final_config.is_consensus());
}

#[test]
fn delayed_palettes_are_discarded_and_recovered() {
    // Singleton start for the same reason as above: the delayed-palette
    // re-sampling path only runs in the pull gear.
    let start = Configuration::singletons(200);
    let plan = FaultPlan::none().with_seed(3).with_palette_rates(0.0, 0.0, 0.3);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 42).with_fault_plan(plan))
        .run_to_consensus(1_000_000)
        .expect("consensus under palette delay");
    assert!(out.faults.palettes_delayed > 0);
    assert!(out.faults.recovered_samples > 0);
    assert!(out.final_config.is_consensus());
}

#[test]
fn delayed_reports_resync_as_stragglers() {
    let start = Configuration::uniform(200, 8);
    let plan = FaultPlan::none().with_seed(9).with_report_rates(0.0, 0.0, 0.4).with_max_faulty(3);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 42).with_fault_plan(plan))
        .run_to_consensus(1_000_000)
        .expect("consensus under report delay");
    assert!(out.faults.reports_delayed > 0);
    assert!(out.faults.straggler_resyncs > 0);
    assert!(out.faults.quorum_rounds > 0);
    assert!(out.final_config.is_consensus());
}

// ---------------------------------------------------------------------
// Crash-stop and rejoin.
// ---------------------------------------------------------------------

#[test]
fn crashed_shard_rejoins_from_snapshot_and_consensus_holds() {
    let start = Configuration::uniform(200, 8);
    let plan = FaultPlan::none()
        .with_crash(CrashSpec { shard: 2, crash_round: 3, rejoin_round: Some(7) })
        .with_max_faulty(1);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 42).with_fault_plan(plan))
        .run_to_consensus(1_000_000)
        .expect("consensus after crash-rejoin");
    assert_eq!(out.faults.rejoins, 1);
    assert_eq!(out.faults.crash_rounds, 4); // rounds 3,4,5,6
    assert!(out.faults.quorum_rounds >= 4);
    assert_eq!(out.final_config.n(), 200);
    assert!(out.final_config.is_consensus());
    assert!(out.consensus_round > 7);
}

#[test]
fn permanent_crash_within_tolerance_still_converges_honest_view() {
    // Shard 1 crashes forever; the honest survivors keep exchanging and
    // the coordinator declares consensus over the honest view only
    // after the frozen snapshot's colors die out of it — which cannot
    // happen while the crashed shard is counted, so permanent crashes
    // leave the merged view stuck at > 1 color and consensus is
    // declared only if the crashed shard's snapshot already agrees.
    // Use a horizon run and check degradation is bounded, not stuck.
    let start = Configuration::uniform(120, 4);
    let plan = FaultPlan::none()
        .with_crash(CrashSpec { shard: 1, crash_round: 2, rejoin_round: None })
        .with_max_faulty(1);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(3, 5).with_fault_plan(plan))
        .run_horizon(40);
    assert_eq!(out.faults.rejoins, 0);
    assert_eq!(out.faults.crash_rounds, 39); // rounds 2..=40
    assert!(out.faults.quorum_rounds >= 39);
    assert_eq!(out.final_config.n(), 120); // frozen snapshot keeps mass
    assert!(matches!(out.stop, StopReason::Consensus | StopReason::HorizonExhausted));
}

// ---------------------------------------------------------------------
// Quorum relaxation limits: below N − F fresh valid reports the
// coordinator aborts with a typed reason instead of folding a minority.
// ---------------------------------------------------------------------

#[test]
fn total_report_loss_aborts_with_too_many_faults() {
    let start = Configuration::uniform(80, 4);
    let plan = FaultPlan::none().with_seed(1).with_report_rates(1.0, 0.0, 0.0);
    let err = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 2).with_fault_plan(plan))
        .run_to_consensus(1_000)
        .expect_err("no quorum is reachable");
    assert_eq!(err.stop, StopReason::TooManyFaults);
    assert_eq!(err.rounds_run, 1);
    assert!(err.faults.reports_dropped >= 4);
    assert_eq!(err.consensus_round, None);
}

#[test]
fn crashes_beyond_tolerance_abort() {
    let start = Configuration::uniform(80, 4);
    let plan = FaultPlan::none()
        .with_crash(CrashSpec { shard: 0, crash_round: 2, rejoin_round: None })
        .with_crash(CrashSpec { shard: 1, crash_round: 2, rejoin_round: None })
        .with_max_faulty(1);
    let err = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 2).with_fault_plan(plan))
        .run_to_consensus(1_000)
        .expect_err("two of four crashed, one tolerated");
    assert_eq!(err.stop, StopReason::TooManyFaults);
    assert_eq!(err.rounds_run, 2);
}

// ---------------------------------------------------------------------
// Byzantine shards.
// ---------------------------------------------------------------------

#[test]
fn plausible_byzantine_reports_are_tolerated_by_quorum() {
    let start = Configuration::uniform(200, 8);
    let plan = FaultPlan::none()
        .with_byzantine(ByzantineSpec { shard: 1, budget: 3, kind: CorruptionKind::Plausible })
        .with_max_faulty(1);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 42).with_fault_plan(plan))
        .run_to_consensus(1_000_000)
        .expect("consensus over the honest view");
    assert!(out.faults.byzantine_reports > 0);
    // Mass-preserving lies pass validation: they distort the merged
    // *measurement*, not the quorum.
    assert_eq!(out.faults.rejected_reports, 0);
    assert_eq!(out.final_config.n(), 200);
}

#[test]
fn mass_violating_byzantine_reports_are_rejected() {
    let start = Configuration::uniform(200, 8);
    let plan = FaultPlan::none()
        .with_byzantine(ByzantineSpec { shard: 1, budget: 7, kind: CorruptionKind::Inflate })
        .with_max_faulty(1);
    let out = Cluster::new(ThreeMajority, &start, ClusterConfig::new(4, 42).with_fault_plan(plan))
        .run_to_consensus(1_000_000)
        .expect("consensus over the honest view");
    assert!(out.faults.byzantine_reports > 0);
    assert!(out.faults.rejected_reports > 0);
    // Every fresh report from the liar is rejected, so every round runs
    // below full attendance on the relaxed quorum.
    assert!(out.faults.quorum_rounds >= out.consensus_round);
}

// ---------------------------------------------------------------------
// Property tests: randomized plans preserve the layer's invariants.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Duplicated + reordered delivery (receivers may see the two
    /// copies interleaved with other shards' traffic in any order)
    /// deduplicates to the exact fault-free trajectory.
    #[test]
    fn dup_only_plans_are_trajectory_invisible(
        seed in 0u64..200,
        fault_seed in 0u64..200,
        shards in 2usize..5,
        pal_dup in 0.2f64..1.0,
        rep_dup in 0.2f64..1.0,
    ) {
        let start = Configuration::uniform(120, 6);
        let free = Cluster::new(ThreeMajority, &start, ClusterConfig::new(shards, seed))
            .run_horizon(10);
        let plan = FaultPlan::none()
            .with_seed(fault_seed)
            .with_palette_rates(0.0, pal_dup, 0.0)
            .with_report_rates(0.0, rep_dup, 0.0);
        let faulty = Cluster::new(
            ThreeMajority,
            &start,
            ClusterConfig::new(shards, seed).with_fault_plan(plan),
        )
        .run_horizon(10);
        prop_assert_eq!(trace_digest(&faulty.trace), trace_digest(&free.trace));
        prop_assert_eq!(&faulty.final_config, &free.final_config);
        prop_assert_eq!(faulty.consensus_round, free.consensus_round);
        prop_assert!(faulty.total_messages >= free.total_messages);
        prop_assert_eq!(faulty.faults.recovered_samples, 0);
    }

    /// Crash-rejoin conserves mass and passes the shard-side dense
    /// recount integrity check (asserted inside `Worker::rejoin`, which
    /// runs in-process here).
    #[test]
    fn crash_rejoin_preserves_mass_and_integrity(
        seed in 0u64..200,
        shard in 0usize..4,
        crash_round in 2u64..6,
        outage in 1u64..5,
    ) {
        let start = Configuration::uniform(160, 8);
        let plan = FaultPlan::none()
            .with_crash(CrashSpec {
                shard,
                crash_round,
                rejoin_round: Some(crash_round + outage),
            })
            .with_max_faulty(1);
        let out = Cluster::new(
            ThreeMajority,
            &start,
            ClusterConfig::new(4, seed).with_fault_plan(plan),
        )
        .run_to_consensus(1_000_000)
        .expect("consensus after rejoin");
        prop_assert_eq!(out.faults.rejoins, 1);
        prop_assert_eq!(out.faults.crash_rounds, outage);
        prop_assert_eq!(out.final_config.n(), 160);
        prop_assert!(out.final_config.is_consensus());
    }

    /// Mixed lossy plans within tolerance either converge or abort with
    /// the typed reason — never deadlock, never lose mass.
    #[test]
    fn mixed_faults_degrade_gracefully(
        seed in 0u64..100,
        fault_seed in 0u64..100,
    ) {
        let start = Configuration::uniform(160, 8);
        let plan = FaultPlan::none()
            .with_seed(fault_seed)
            .with_palette_rates(0.1, 0.1, 0.1)
            .with_report_rates(0.05, 0.05, 0.05)
            .with_max_faulty(3);
        let result = Cluster::new(
            ThreeMajority,
            &start,
            ClusterConfig::new(4, seed).with_fault_plan(plan),
        )
        .run_to_consensus(2_000);
        match result {
            Ok(out) => {
                prop_assert!(out.final_config.is_consensus());
                prop_assert_eq!(out.final_config.n(), 160);
            }
            Err(out) => {
                prop_assert!(matches!(
                    out.stop,
                    StopReason::TooManyFaults | StopReason::HorizonExhausted
                ));
                prop_assert_eq!(out.final_config.n(), 160);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Plan preconditions.
// ---------------------------------------------------------------------

#[test]
#[should_panic(expected = "batched wire")]
fn active_plans_reject_per_entry_wire() {
    let start = Configuration::uniform(40, 4);
    let plan = FaultPlan::none().with_palette_rates(0.1, 0.0, 0.0);
    let config = ClusterConfig::new(2, 1).with_wire_mode(WireMode::PerEntry).with_fault_plan(plan);
    let _ = Cluster::new(ThreeMajority, &start, config);
}

#[test]
fn fault_kind_classification_is_exposed() {
    // Smoke-check the public classification API the shards and
    // coordinator share.
    let plan = FaultPlan::none().with_seed(7).with_palette_rates(0.3, 0.3, 0.3);
    let mut seen = [false; 4];
    for round in 1..=50u64 {
        for (from, to) in [(0usize, 1usize), (1, 0), (0, 2), (2, 1)] {
            match plan.palette_fault(round, from, to) {
                None => seen[0] = true,
                Some(FaultKind::Drop) => seen[1] = true,
                Some(FaultKind::Duplicate) => seen[2] = true,
                Some(FaultKind::Delay) => seen[3] = true,
            }
        }
    }
    assert!(seen.iter().all(|&b| b), "all fault kinds drawn at 30% rates over 200 trials");
}
