//! The traced run: the per-layer ledger.
//!
//! Spans are recorded from this file around each call into a layer and
//! written out when the run ends; every per-layer number below is read
//! back from them. The ledger has four parts:
//!
//! 1. The traced workload's own passes, untraced and traced in turn:
//!    their ratio is the tracing overhead, and the traced passes give the
//!    cluster (or engine) layer figures. A cluster workload also runs its
//!    single-process engine twin, and the engine workload its 2-shard
//!    channel cluster twin, so every layer reports on every workload.
//! 2. The stall workload's socket fleet next to its same-seed channel
//!    twin: the transport layer's launch time and per-round overhead,
//!    and the check that both backends walk the same trajectory and move
//!    the same bytes.
//! 3. Short paired gear probes through `GearMode` on the horizon
//!    workload's start: pull and push round times, and the push round's
//!    log-log slope against `n` (the ARCHITECTURE.md cost model
//!    `O(#occupied·h)` predicts 0).
//! 4. Sampler, rule, configuration and codec kernels, timed on inputs
//!    captured from the state the named workload reaches early in its own
//!    run (same rule, start and seed; a capture horizon of a few rounds).
//!
//! Every kernel runs a fixed number of operations sized from its input,
//! never a time budget.

use std::hint::black_box;
use std::path::Path;

use rand::SeedableRng;
use symbreak_core::rules::{ThreeMajority, TwoChoices};
use symbreak_core::{Configuration, MultisetRule, Opinion, UpdateRule, VectorStep};
use symbreak_runtime::codec::{
    decode_frame, decode_report, decode_shard_message, encode_report, encode_shard_message,
};
use symbreak_runtime::message::ShardReport;
use symbreak_runtime::{
    Cluster, ClusterConfig, GearMode, OpinionPalette, ReportBody, ShardMessage, StopReason,
};
use symbreak_sim::dist::{
    sample_multinomial_sparse_into, Binomial, Categorical, DynamicCategorical, GroupSplitter,
    Hypergeometric, WindowMultinomial,
};
use symbreak_sim::rng::Pcg64;
use symbreak_stats::regression::fit_power_law;

use crate::report::{median, metric, quantile, Checks, Metric};
use crate::trace::{SpanId, Tracer};
use crate::workload::{
    check_pass, check_repeat, pass, Backend, Env, PassResult, Start, Workload, SHARDS,
};

/// Untraced/traced pass pairs behind `trace_overhead_pct`.
const OVERHEAD_PAIRS: usize = 2;
/// Set-up passes behind each boot figure.
const BOOTS: usize = 3;
/// Rounds per gear probe.
const GEAR_ROUNDS: u64 = 8;
/// Element operations each kernel runs (its input size sets the repeat
/// count), about 0.1 s per kernel on the reference box.
const KERNEL_OPS: u64 = 10_000_000;

/// The workload named `name`: each kernel and probe is anchored on the
/// workload whose fleet or state it characterizes.
fn named<'a>(all: &'a [Workload], name: &str) -> &'a Workload {
    all.iter().find(|w| w.name == name).expect("the workload table names every anchor")
}

fn repeats(per_iter: u64) -> u64 {
    (KERNEL_OPS / per_iter.max(1)).max(1)
}

/// Durations (ns) of the spans called `name` directly under `parent`.
fn child_ns(tr: &Tracer, parent: SpanId, name: &str) -> Vec<f64> {
    let Some(parent) = parent.index() else { return Vec::new() };
    tr.spans()
        .iter()
        .filter(|s| s.parent == Some(parent) && s.name == name)
        .map(|s| s.ns() as f64)
        .collect()
}

/// Median duration (ms) of the boot spans under each set-up pass root.
fn boot_ms(tr: &Tracer, roots: &[SpanId], name: &str) -> f64 {
    let ns: Vec<f64> = roots.iter().flat_map(|&r| child_ns(tr, r, name)).collect();
    median(&ns) / 1e6
}

fn boots(
    w: &Workload,
    backend: Backend,
    seed: u64,
    env: &mut Env,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Vec<SpanId> {
    (0..BOOTS)
        .map(|_| {
            let r = pass(w, backend, seed, 0, env, tr);
            check_pass(w, 0, &r, checks);
            r.root
        })
        .collect()
}

fn run_traced(
    w: &Workload,
    backend: Backend,
    seed: u64,
    horizon: u64,
    env: &mut Env,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> PassResult {
    let r = pass(w, backend, seed, horizon, env, tr);
    check_pass(w, horizon, &r, checks);
    r
}

/// Per-round ms of a run pass: its run span less the median boot.
fn round_ms(tr: &Tracer, run: &PassResult, run_span: &str, boot_ms: f64) -> f64 {
    let run_ms = child_ns(tr, run.root, run_span).iter().sum::<f64>() / 1e6;
    (run_ms - boot_ms) / run.rounds_run.max(1) as f64
}

pub fn traced_run(
    w: &Workload,
    all: &[Workload],
    seed: u64,
    env: &mut Env,
    checks: &mut Checks,
    trace_path: &Path,
) -> Vec<Metric> {
    let mut tr = Tracer::new(true);
    let mut out = Vec::new();

    // 1. The workload's own passes: tracing overhead, then its layers.
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut own: Vec<PassResult> = Vec::new();
    for _ in 0..OVERHEAD_PAIRS {
        tr.set_enabled(false);
        let r = run_traced(w, w.backend, seed, w.horizon, env, &mut tr, checks);
        untraced.push(r.secs);
        tr.set_enabled(true);
        let r = run_traced(w, w.backend, seed, w.horizon, env, &mut tr, checks);
        traced.push(r.secs);
        if let Some(first) = own.first() {
            check_repeat(w.name, first, &r, checks);
        }
        own.push(r);
    }
    let overhead_pct = (median(&traced) / median(&untraced) - 1.0) * 100.0;
    let own_pass = own.pop().expect("at least one traced pass");

    // Engine layer: the workload itself, or its single-process twin.
    let engine_pass = if w.backend == Backend::Engine {
        own_pass.clone()
    } else {
        run_traced(w, Backend::Engine, seed, w.horizon, env, &mut tr, checks)
    };
    let steps_ms: Vec<f64> =
        child_ns(&tr, engine_pass.root, "core.engine.step").iter().map(|ns| ns / 1e6).collect();
    out.push(metric("core.engine.step_ms_p50", median(&steps_ms), "ms"));
    out.push(metric("core.engine.step_ms_p99", quantile(&steps_ms, 0.99), "ms"));
    out.push(metric(
        "core.engine.colors_at_horizon",
        engine_pass.final_config.num_colors() as f64,
        "count",
    ));

    // Cluster layer: the workload's own fleet, or the engine's channel twin.
    let (cluster_pass, boot_span, run_span, cluster_backend) = match w.backend {
        Backend::Unix => {
            (own_pass, "runtime.cluster.boot_socket", "runtime.cluster.run_socket", Backend::Unix)
        }
        Backend::Channel => {
            (own_pass, "runtime.cluster.boot", "runtime.cluster.run", Backend::Channel)
        }
        Backend::Engine => (
            run_traced(w, Backend::Channel, seed, w.horizon, env, &mut tr, checks),
            "runtime.cluster.boot",
            "runtime.cluster.run",
            Backend::Channel,
        ),
    };
    let roots = boots(w, cluster_backend, seed, env, &mut tr, checks);
    let cluster_boot_ms = boot_ms(&tr, &roots, boot_span);
    let entries: Vec<f64> = cluster_pass.report_entries.iter().map(|&e| e as f64).collect();
    let rounds = cluster_pass.rounds_run.max(1) as f64;
    out.push(metric("runtime.cluster.boot_ms", cluster_boot_ms, "ms"));
    out.push(metric(
        "runtime.cluster.round_ms",
        round_ms(&tr, &cluster_pass, run_span, cluster_boot_ms),
        "ms",
    ));
    out.push(metric("runtime.cluster.report_entries_p50", median(&entries), "count"));
    out.push(metric(
        "runtime.cluster.report_entries_max",
        entries.iter().copied().fold(0.0, f64::max),
        "count",
    ));
    out.push(metric(
        "runtime.cluster.wire_entries_per_round",
        cluster_pass.total_messages as f64 / rounds,
        "count",
    ));

    // 2. Transport: the stall workload's socket fleet and its channel twin.
    let stall = named(all, "stall-2choices-unix");
    let socket_pass = if w.name == stall.name {
        cluster_pass.clone()
    } else {
        run_traced(stall, Backend::Unix, seed, stall.horizon, env, &mut tr, checks)
    };
    let launch_roots = if w.name == stall.name {
        roots
    } else {
        boots(stall, Backend::Unix, seed, env, &mut tr, checks)
    };
    let channel_twin =
        run_traced(stall, Backend::Channel, seed, stall.horizon, env, &mut tr, checks);
    checks.check(
        socket_pass.trace == channel_twin.trace
            && socket_pass.digest == channel_twin.digest
            && socket_pass.wire_bytes == channel_twin.wire_bytes,
        || {
            format!(
                "{}: socket fleet and channel twin diverged (wire {} vs {})",
                stall.name, socket_pass.wire_bytes, channel_twin.wire_bytes
            )
        },
    );
    let socket_ms =
        child_ns(&tr, socket_pass.root, "runtime.cluster.run_socket").iter().sum::<f64>() / 1e6;
    let channel_ms =
        child_ns(&tr, channel_twin.root, "runtime.cluster.run").iter().sum::<f64>() / 1e6;
    out.push(metric(
        "runtime.transport.wire_bytes_per_round",
        cluster_pass.wire_bytes as f64 / rounds,
        "B",
    ));
    out.push(metric(
        "runtime.transport.fleet_launch_ms",
        boot_ms(&tr, &launch_roots, "runtime.cluster.boot_socket"),
        "ms",
    ));
    out.push(metric(
        "runtime.transport.socket_overhead_ms_per_round",
        (socket_ms - channel_ms) / stall.horizon as f64,
        "ms",
    ));

    // 3. Gear probes on the horizon workload's start.
    let horizon = named(all, "horizon-1e8");
    out.extend(gear_probes(horizon, seed, &mut tr, checks));

    // 4. Kernels on captured states.
    let comply = named(all, "comply-3majority");
    let engine = named(all, "engine-3majority");
    let capture = |w: &Workload,
                   backend: Backend,
                   rounds: u64,
                   env: &mut Env,
                   tr: &mut Tracer,
                   checks: &mut Checks| {
        run_traced(w, backend, seed, rounds.min(w.horizon), env, tr, checks).final_config
    };
    let stall_round = stall.horizon / 8;
    let stall_state = capture(stall, Backend::Channel, stall_round, env, &mut tr, checks);
    let stall_next = capture(stall, Backend::Channel, stall_round + 1, env, &mut tr, checks);
    let comply_state = capture(comply, Backend::Channel, 10, env, &mut tr, checks);
    let horizon_state = capture(horizon, Backend::Channel, 10, env, &mut tr, checks);
    let engine_state = capture(engine, Backend::Engine, 50, env, &mut tr, checks);
    let mut rng = Pcg64::seed_from_u64(seed ^ 0x6c65_6467_6572);
    out.extend(sampler_kernels(&horizon_state, &comply_state, &engine_state, &mut rng, &mut tr));
    out.extend(rule_kernels(&stall_state, &comply_state, &engine_state, &mut rng, &mut tr));
    out.extend(config_kernels(&stall_state, &stall_next, &comply_state, &mut tr, checks));
    out.extend(codec_kernels(&stall_state, &mut rng, &mut tr, checks));

    out.push(metric("trace_overhead_pct", overhead_pct, "%"));
    if let Err(e) = tr.write_jsonl(trace_path) {
        checks.check(false, || format!("writing spans to {}: {e}", trace_path.display()));
    }
    out
}

/// Per-round ms of `rounds` forced-gear rounds at `n`, less the boot.
fn gear_round_ms(
    n: u64,
    k: usize,
    gear: GearMode,
    seed: u64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> f64 {
    let start = Configuration::uniform(n, k);
    let config = ClusterConfig::new(SHARDS, seed).with_data_gear(gear);
    let boot = tr.open("runtime.shard.boot");
    Cluster::new(ThreeMajority, &start, config.clone()).run_horizon(0);
    tr.close(boot, 0);
    let run = tr.open(match gear {
        GearMode::ForcePush => "runtime.shard.push",
        _ => "runtime.shard.pull",
    });
    let out = Cluster::new(ThreeMajority, &start, config).run_horizon(GEAR_ROUNDS);
    tr.close(run, GEAR_ROUNDS);
    checks.check(
        out.final_config.n() == n
            && out.rounds_run == GEAR_ROUNDS
            && out.stop == StopReason::HorizonExhausted,
        || format!("gear probe {gear:?} at n = {n}: wrong mass or rounds"),
    );
    (tr.ns(run) - tr.ns(boot)) / 1e6 / GEAR_ROUNDS as f64
}

fn gear_probes(h: &Workload, seed: u64, tr: &mut Tracer, checks: &mut Checks) -> Vec<Metric> {
    let Start::Uniform { k } = h.start else { unreachable!("the horizon workload starts uniform") };
    // Pull rounds at n = 1e8 cost seconds each, so the pair runs at the
    // sweep's smallest size; the push sweep spans two decades of n.
    let sizes = [h.n / 100, h.n / 10, h.n];
    let pull = gear_round_ms(sizes[0], k, GearMode::ForcePull, seed, tr, checks);
    let push: Vec<f64> =
        sizes.iter().map(|&n| gear_round_ms(n, k, GearMode::ForcePush, seed, tr, checks)).collect();
    let ns: Vec<f64> = sizes.iter().map(|&n| n as f64).collect();
    let slope = fit_power_law(&ns, &push).exponent;
    vec![
        metric("runtime.shard.pull_round_ms", pull, "ms"),
        metric("runtime.shard.push_round_ms", push[2], "ms"),
        metric("runtime.shard.push_round_slope_vs_n", slope, "1"),
    ]
}

fn weights(c: &Configuration) -> Vec<f64> {
    c.occupied_counts().map(|x| x as f64).collect()
}

fn sampler_kernels(
    horizon: &Configuration,
    comply: &Configuration,
    engine: &Configuration,
    rng: &mut Pcg64,
    tr: &mut Tracer,
) -> Vec<Metric> {
    let hw = weights(horizon);
    let d = hw.len() as u64;

    let mut cat = Categorical::new(&hw);
    let reps = repeats(d);
    tr.time("sim.dist.categorical_build", reps * d, || {
        for _ in 0..reps {
            cat.rebuild(black_box(&hw));
        }
    });
    tr.time("sim.dist.categorical_draw", KERNEL_OPS, || {
        let mut acc = 0usize;
        for _ in 0..KERNEL_OPS {
            acc = acc.wrapping_add(cat.sample(rng));
        }
        black_box(acc);
    });

    let counts: Vec<u64> = horizon.occupied_counts().collect();
    let mut dynamic = DynamicCategorical::new(&counts);
    let sets: Vec<(usize, u64)> = (0..KERNEL_OPS / 10)
        .map(|j| {
            let i = (rand::RngCore::next_u64(rng) % d) as usize;
            (i, counts[i] + (j & 1))
        })
        .collect();
    tr.time("sim.dist.dynamic_categorical_set", sets.len() as u64, || {
        for &(i, c) in &sets {
            dynamic.set(i, c);
        }
    });
    black_box(dynamic.total());

    // The comply workload's pooled pull draws: every node's h = 3 samples.
    let pool: Vec<u64> = comply.occupied_counts().map(|c| 3 * c).collect();
    let mut groups: Vec<u64> = comply.occupied_counts().collect();
    groups.sort_unstable_by(|a, b| b.cmp(a));
    groups.truncate(64);
    for _ in 0..repeats(pool.len() as u64 * groups.len() as u64 / 4) {
        let mut p = pool.clone();
        let id = tr.open("sim.dist.group_split");
        let mut splitter = GroupSplitter::new(&mut p);
        let mut acc = 0u64;
        for &g in &groups {
            splitter.draw_block(3 * g, rng, |_, x| acc += x);
        }
        black_box(acc);
        tr.close(id, groups.len() as u64);
    }

    let draws = 3 * groups[0];
    let total: u64 = pool.iter().sum();
    tr.time("sim.dist.hypergeometric_draw", KERNEL_OPS / 10, || {
        let mut acc = 0u64;
        let mut j = 0usize;
        for _ in 0..KERNEL_OPS / 10 {
            acc += Hypergeometric::new(total, pool[j], draws.min(total)).sample(rng);
            j = (j + 1) % pool.len();
        }
        black_box(acc);
    });

    let walk = WindowMultinomial::new(&hw, 3);
    let windows = repeats(d);
    tr.time("sim.dist.window_multinomial", windows, || {
        let mut acc = 0u64;
        for _ in 0..windows {
            walk.sample_window(rng, |_, x| acc += x);
        }
        black_box(acc);
    });

    let ew = weights(engine);
    let n = engine.n();
    tr.time("sim.dist.binomial_draw", KERNEL_OPS / 10, || {
        let mut acc = 0u64;
        let mut j = 0usize;
        for _ in 0..KERNEL_OPS / 10 {
            acc += Binomial::new(n, ew[j] / n as f64).sample(rng);
            j = (j + 1) % ew.len();
        }
        black_box(acc);
    });

    let idx: Vec<u32> = engine.occupied().to_vec();
    let mut tally = vec![0u64; engine.num_slots()];
    let reps = repeats(idx.len() as u64);
    tr.time("sim.dist.multinomial_sparse", reps * idx.len() as u64, || {
        for _ in 0..reps {
            sample_multinomial_sparse_into(n, &ew, &idx, rng, &mut tally);
        }
    });
    black_box(&tally);

    vec![
        metric(
            "sim.dist.categorical_build_ns_per_slot",
            tr.ns_per_op("sim.dist.categorical_build"),
            "ns",
        ),
        metric("sim.dist.categorical_draw_ns", tr.ns_per_op("sim.dist.categorical_draw"), "ns"),
        metric(
            "sim.dist.dynamic_categorical_set_ns",
            tr.ns_per_op("sim.dist.dynamic_categorical_set"),
            "ns",
        ),
        metric("sim.dist.group_split_ns_per_block", tr.ns_per_op("sim.dist.group_split"), "ns"),
        metric(
            "sim.dist.hypergeometric_draw_ns",
            tr.ns_per_op("sim.dist.hypergeometric_draw"),
            "ns",
        ),
        metric(
            "sim.dist.window_multinomial_ns_per_window",
            tr.ns_per_op("sim.dist.window_multinomial"),
            "ns",
        ),
        metric("sim.dist.binomial_draw_ns", tr.ns_per_op("sim.dist.binomial_draw"), "ns"),
        metric(
            "sim.dist.multinomial_sparse_ns_per_slot",
            tr.ns_per_op("sim.dist.multinomial_sparse"),
            "ns",
        ),
    ]
}

fn rule_kernels(
    stall: &Configuration,
    comply: &Configuration,
    engine: &Configuration,
    rng: &mut Pcg64,
    tr: &mut Tracer,
) -> Vec<Metric> {
    // 2-Choices: every node of the stall state with two uniform samples.
    let opinions = stall.to_opinions();
    let n = opinions.len() as u64;
    let samples: Vec<[Opinion; 2]> = (0..n)
        .map(|_| {
            let mut pick = || opinions[(rand::RngCore::next_u64(rng) % n) as usize];
            [pick(), pick()]
        })
        .collect();
    let reps = repeats(n);
    tr.time("core.rules.two_choices_update", reps * n, || {
        let mut changed = 0u64;
        for _ in 0..reps {
            for (own, s) in opinions.iter().zip(&samples) {
                changed += u64::from(TwoChoices.update(*own, black_box(s), rng) != *own);
            }
        }
        black_box(changed);
    });

    // 3-Majority's condensed pull step: the comply state's largest
    // classes, each consuming a block of its 3·count pooled draws.
    let values: Vec<Opinion> = comply.occupied().iter().map(|&s| Opinion::new(s)).collect();
    let mut pool: Vec<u64> = comply.occupied_counts().map(|c| 3 * c).collect();
    let mut classes: Vec<(Opinion, u64)> =
        values.iter().copied().zip(comply.occupied_counts()).collect();
    classes.sort_unstable_by_key(|&(_, count)| std::cmp::Reverse(count));
    classes.truncate(32);
    let mut blocks: Vec<Vec<u64>> = Vec::with_capacity(classes.len());
    {
        let mut splitter = GroupSplitter::new(&mut pool);
        for &(_, count) in &classes {
            let mut block = vec![0u64; values.len()];
            splitter.draw_block(3 * count, rng, |j, x| block[j] += x);
            blocks.push(block);
        }
    }
    let mut next = Vec::new();
    for _ in 0..repeats(values.len() as u64 * classes.len() as u64) {
        for (&(own, count), block) in classes.iter().zip(&blocks) {
            let mut b = block.clone();
            next.clear();
            tr.time("core.rules.condensed_window_step", 1, || {
                ThreeMajority.condensed_window_step(own, count, &values, &mut b, rng, &mut next)
            });
        }
    }
    black_box(&next);

    let occupied = engine.num_colors() as u64;
    for _ in 0..repeats(occupied) {
        let mut c = engine.clone();
        tr.time("core.rules.vector_step", occupied, || ThreeMajority.vector_step_into(&mut c, rng));
        black_box(c.n());
    }

    vec![
        metric(
            "core.rules.two_choices_update_ns_per_node",
            tr.ns_per_op("core.rules.two_choices_update"),
            "ns",
        ),
        metric(
            "core.rules.condensed_window_step_ns_per_group",
            tr.ns_per_op("core.rules.condensed_window_step"),
            "ns",
        ),
        metric("core.rules.vector_step_ns_per_color", tr.ns_per_op("core.rules.vector_step"), "ns"),
    ]
}

/// `c`'s supports split into `SHARDS` contiguous node ranges, the way
/// the runtime seeds its shards: what each shard's sparse report holds.
fn shard_bodies(c: &Configuration) -> Vec<Vec<(u32, u64)>> {
    let per = c.n().div_ceil(SHARDS as u64);
    let mut bodies = vec![Vec::new(); SHARDS];
    let mut pos = 0u64;
    for (&slot, count) in c.occupied().iter().zip(c.occupied_counts()) {
        let mut left = count;
        while left > 0 {
            let shard = (pos / per) as usize;
            let take = left.min((shard as u64 + 1) * per - pos);
            bodies[shard].push((slot, take));
            pos += take;
            left -= take;
        }
    }
    bodies
}

fn config_kernels(
    stall: &Configuration,
    stall_next: &Configuration,
    comply: &Configuration,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Vec<Metric> {
    let bodies = shard_bodies(comply);
    let entries: u64 = bodies.iter().map(|b| b.len() as u64).sum();
    let mut merged = comply.clone();
    let reps = repeats(entries);
    tr.time("core.config.merge_sparse", reps * entries, || {
        for _ in 0..reps {
            merged.merge_sparse(bodies.iter().map(Vec::as_slice));
        }
    });
    checks.check(merged == *comply, || {
        "merge_sparse of a state's own shard bodies changed it".into()
    });

    // One round of the stall coordinator's delta fold, split by shard.
    let mut deltas: Vec<(u32, i64)> = Vec::new();
    for &slot in stall.occupied() {
        let d = stall_next.support(slot as usize) as i64 - stall.support(slot as usize) as i64;
        if d != 0 {
            deltas.push((slot, d));
        }
    }
    let half = deltas.len() / 2;
    let parts = [&deltas[..half], &deltas[half..]];
    let applied = deltas.len().max(1) as u64;
    let mut folded = stall.clone();
    for _ in 0..repeats(stall.num_colors() as u64).min(200) {
        folded = stall.clone();
        tr.time("core.config.apply_deltas", applied, || folded.apply_deltas(parts));
    }
    checks.check(folded == *stall_next, || {
        "stall delta fold did not reproduce the next round".into()
    });

    vec![
        metric(
            "core.config.merge_sparse_ns_per_entry",
            tr.ns_per_op("core.config.merge_sparse"),
            "ns",
        ),
        metric(
            "core.config.apply_deltas_ns_per_entry",
            tr.ns_per_op("core.config.apply_deltas"),
            "ns",
        ),
    ]
}

fn codec_kernels(
    stall: &Configuration,
    rng: &mut Pcg64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Vec<Metric> {
    // A raw palette answering one peer's pulls (local_n · h draws of the
    // stall state), and one shard's sparse report of it.
    let opinions = stall.to_opinions();
    let n = opinions.len() as u64;
    let draws = n / SHARDS as u64 * 2;
    let palette: Vec<Opinion> =
        (0..draws).map(|_| opinions[(rand::RngCore::next_u64(rng) % n) as usize]).collect();
    let msg =
        ShardMessage::Palette(OpinionPalette { origin: 1, round: 100, palette, runs: Vec::new() });
    let report = ShardReport {
        shard: 0,
        round: 100,
        body: ReportBody::Sparse(shard_bodies(stall).swap_remove(0)),
        undecided: 0,
        messages_sent: draws,
        recovered: 0,
        changed_slots: Some(2),
        bytes_sent: 45_000_000,
        bytes_received: 45_000_000,
    };

    let mut buf = Vec::new();
    encode_shard_message(&msg, &mut buf);
    let msg_bytes = buf.len() as u64;
    let reps = repeats(msg_bytes / 4);
    tr.time("runtime.codec.encode_shard_message", reps * msg_bytes, || {
        for _ in 0..reps {
            buf.clear();
            encode_shard_message(black_box(&msg), &mut buf);
        }
    });
    let mut decoded = None;
    tr.time("runtime.codec.decode_shard_message", reps * msg_bytes, || {
        for _ in 0..reps {
            let (frame, _) = decode_frame(black_box(&buf)).expect("frame decodes");
            decoded = Some(decode_shard_message(&frame).expect("message decodes"));
        }
    });
    checks.check(decoded.as_ref() == Some(&msg), || "shard message codec round trip".into());

    buf.clear();
    encode_report(&report, &mut buf);
    let rep_bytes = buf.len() as u64;
    let reps = repeats(rep_bytes / 4);
    tr.time("runtime.codec.encode_report", reps * rep_bytes, || {
        for _ in 0..reps {
            buf.clear();
            encode_report(black_box(&report), &mut buf);
        }
    });
    let mut decoded = None;
    tr.time("runtime.codec.decode_report", reps * rep_bytes, || {
        for _ in 0..reps {
            let (frame, _) = decode_frame(black_box(&buf)).expect("frame decodes");
            decoded = Some(decode_report(&frame).expect("report decodes"));
        }
    });
    checks.check(decoded.as_ref() == Some(&report), || "report codec round trip".into());

    vec![
        metric(
            "runtime.codec.encode_shard_message_ns_per_byte",
            tr.ns_per_op("runtime.codec.encode_shard_message"),
            "ns/B",
        ),
        metric(
            "runtime.codec.decode_shard_message_ns_per_byte",
            tr.ns_per_op("runtime.codec.decode_shard_message"),
            "ns/B",
        ),
        metric(
            "runtime.codec.encode_report_ns_per_byte",
            tr.ns_per_op("runtime.codec.encode_report"),
            "ns/B",
        ),
        metric(
            "runtime.codec.decode_report_ns_per_byte",
            tr.ns_per_op("runtime.codec.decode_report"),
            "ns/B",
        ),
    ]
}
