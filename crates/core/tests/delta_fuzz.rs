//! Delta-report fuzz: drives a coordinator-style merged
//! [`Configuration`] through randomly interleaved Sparse / Delta / Dense
//! report rounds against a from-scratch per-shard model, and asserts the
//! merged configuration always equals a full recount — mass conserved,
//! dead colors stay dead, caches consistent.
//!
//! This is the property the cluster's adaptive delta control plane
//! leans on: the coordinator may command a different report format every
//! round (absolute sparse via `merge_sparse`, signed deltas via
//! `apply_deltas`, dense rebuilds via `from_counts`) and the single
//! persistent merged configuration must stay exact across any switch
//! sequence.

use proptest::prelude::*;
use symbreak_core::Configuration;

/// One simulated mutation of the per-shard local counts. Fields are raw
/// fuzz bytes, reduced modulo the model's dimensions on application.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    shard: u8,
    src: u8,
    dst: u8,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..=255, 0u8..=255, 0u8..=255, 0u8..=255).prop_map(|(kind, shard, src, dst)| Op {
        kind,
        shard,
        src,
        dst,
    })
}

/// Applies one op to the per-shard locals, respecting the invariant the
/// real processes guarantee: mass may only arrive on slots that were
/// globally occupied at the round start (`live`), because a dead color
/// cannot be sampled. Ops that would violate it are skipped.
fn apply_op(locals: &mut [Vec<u64>], live: &[bool], op: Op) {
    let shards = locals.len();
    let k = locals[0].len();
    let s = op.shard as usize % shards;
    let src = op.src as usize % k;
    let dst = op.dst as usize % k;
    match op.kind % 3 {
        // Move one unit src -> dst within a shard.
        0 => {
            if locals[s][src] > 0 && live[dst] {
                locals[s][src] -= 1;
                locals[s][dst] += 1;
            }
        }
        // One unit leaves the decided pool (undecided dynamics).
        1 => {
            if locals[s][src] > 0 {
                locals[s][src] -= 1;
            }
        }
        // One undecided node adopts a live opinion (mass returns).
        _ => {
            if live[dst] {
                locals[s][dst] += 1;
            }
        }
    }
}

fn global_counts(locals: &[Vec<u64>], k: usize) -> Vec<u64> {
    let mut g = vec![0u64; k];
    for local in locals {
        for (gi, &c) in g.iter_mut().zip(local) {
            *gi += c;
        }
    }
    g
}

/// Per-shard signed delta reports: the slots whose local count moved
/// between `old` and `new`, with the signed change.
fn delta_parts(new: &[Vec<u64>], old: &[Vec<u64>]) -> Vec<Vec<(u32, i64)>> {
    new.iter()
        .zip(old)
        .map(|(new, old)| {
            new.iter()
                .zip(old)
                .enumerate()
                .filter(|&(_, (&n, &o))| n != o)
                .map(|(i, (&n, &o))| (i as u32, n as i64 - o as i64))
                .collect()
        })
        .collect()
}

/// Every observable of `merged` must match a from-scratch rebuild.
fn assert_matches_recount(merged: &Configuration, global: &[u64]) {
    let fresh = Configuration::from_counts(global.to_vec());
    assert_eq!(merged, &fresh, "merged counts drifted from the recount");
    assert_eq!(merged.n(), fresh.n(), "population drifted");
    assert_eq!(merged.occupied(), fresh.occupied(), "occupancy list drifted");
    assert_eq!(merged.num_colors(), fresh.num_colors());
    assert_eq!(merged.max_support(), fresh.max_support());
    assert_eq!(merged.bias(), fresh.bias());
    assert!((merged.l2_norm_sq() - fresh.l2_norm_sq()).abs() < 1e-12 || merged.n() == 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn interleaved_report_formats_stay_exact(
        initial in proptest::collection::vec(
            proptest::collection::vec(0u64..5, 2..9),
            1..4,
        ),
        rounds in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(op_strategy(), 0..12)),
            1..8,
        ),
    ) {
        // Normalize the ragged fuzz input: every shard sees k slots.
        let k = initial.iter().map(|l| l.len()).min().unwrap();
        let mut locals: Vec<Vec<u64>> =
            initial.iter().map(|l| l[..k].to_vec()).collect();

        let global = global_counts(&locals, k);
        let mut merged = Configuration::from_counts(global.clone());
        assert_matches_recount(&merged, &global);

        for (format, ops) in rounds {
            // Round start: what is alive now is what may gain mass.
            let live: Vec<bool> = global_counts(&locals, k).iter().map(|&c| c > 0).collect();
            let prev_locals = locals.clone();
            for op in ops {
                apply_op(&mut locals, &live, op);
            }

            match format {
                // Absolute sparse reports -> merge_sparse.
                0 => {
                    let parts: Vec<Vec<(u32, u64)>> = locals
                        .iter()
                        .map(|local| {
                            local
                                .iter()
                                .enumerate()
                                .filter(|&(_, &c)| c > 0)
                                .map(|(i, &c)| (i as u32, c))
                                .collect()
                        })
                        .collect();
                    merged.merge_sparse(parts.iter().map(|p| p.as_slice()));
                }
                // Signed delta reports -> apply_deltas.
                1 => {
                    let parts = delta_parts(&locals, &prev_locals);
                    merged.apply_deltas(parts.iter().map(|p| p.as_slice()));
                }
                // Dense reports -> full rebuild (the pre-sparse path).
                _ => {
                    merged = Configuration::from_counts(global_counts(&locals, k));
                }
            }

            let global = global_counts(&locals, k);
            assert_matches_recount(&merged, &global);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The Theorem-5 stall shape: many colors of tiny support, and a
    /// long run of rounds in which only a unit or two moves, folded as
    /// delta reports. Long sequences walk the incremental top-two
    /// maintenance through slow leader growth, ties, deaths and the
    /// occasional leader-shrink rescan; every fold must still match a
    /// full recount.
    #[test]
    fn long_stalled_delta_sequences_stay_exact(
        initial in proptest::collection::vec(
            // Mostly singletons, a few empty or doubled/tripled slots.
            proptest::collection::vec((0usize..8).prop_map(|r| [0u64, 1, 1, 1, 1, 1, 2, 3][r]), 16..48),
            1..4,
        ),
        rounds in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 0..3),
            150..400,
        ),
    ) {
        let k = initial.iter().map(|l| l.len()).min().unwrap();
        let mut locals: Vec<Vec<u64>> =
            initial.iter().map(|l| l[..k].to_vec()).collect();
        let mut merged = Configuration::from_counts(global_counts(&locals, k));

        for ops in rounds {
            let live: Vec<bool> = global_counts(&locals, k).iter().map(|&c| c > 0).collect();
            let prev_locals = locals.clone();
            for op in ops {
                apply_op(&mut locals, &live, op);
            }
            let parts = delta_parts(&locals, &prev_locals);
            merged.apply_deltas(parts.iter().map(|p| p.as_slice()));
            assert_matches_recount(&merged, &global_counts(&locals, k));
        }
    }
}
