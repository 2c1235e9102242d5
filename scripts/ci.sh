#!/usr/bin/env bash
# CI pipeline: tier-1 verify, experiment smoke, bench baseline dump.
#
# Usage: scripts/ci.sh [output.json]
#   BENCH_OUT   — bench summary path (default: arg1 or BENCH_ci.json)
#   SYMBREAK_SCALE       — experiment scale for the smoke run (default 0.25)
#   SYMBREAK_BENCH_MS    — per-benchmark measurement budget (default 2500)
set -euo pipefail
cd "$(dirname "$0")/.."

BENCH_OUT="${BENCH_OUT:-${1:-BENCH_ci.json}}"

echo "==> lint: cargo fmt --check"
cargo fmt --all --check

echo "==> lint: cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> docs: cargo doc --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "==> docs: cargo test --doc"
cargo test -q --doc --workspace

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release --workspace
cargo test -q --workspace

echo "==> runtime smoke: batched/delta cluster, singleton start k = n = 4096, ~50 rounds"
SYMBREAK_SCALE=0.004096 cargo run --release -p symbreak-bench --bin exp_e20_cluster_theorem5

echo "==> consumption smoke: multiset/single-peer native wire vs ordered dealing, k = n = 4096"
SYMBREAK_SCALE=0.04096 cargo run --release -p symbreak-bench --bin exp_e21_multiset_wire

echo "==> fault smoke: quorum-relaxed cluster under drop/crash/Byzantine injection"
SYMBREAK_SCALE=0.04096 cargo run --release -p symbreak-bench --bin exp_e22_cluster_faults

echo "==> condensed smoke: histogram shards, Theorem-5 horizon at n = 262144, paired repr runs"
SYMBREAK_SCALE=0.00262144 cargo run --release -p symbreak-bench --bin exp_e23_condensed_shards

echo "==> transport smoke: loopback Unix-socket fleet vs channel fleet, byte-exact per seed"
SYMBREAK_SCALE=0.04096 cargo run --release -p symbreak-bench --bin exp_e24_transport

echo "==> grouped pull smoke: forced-gear bands + paired k = n singleton rows"
SYMBREAK_SCALE=0.001 cargo run --release -p symbreak-bench --bin exp_e25_grouped_pull

echo "==> incremental round-state smoke: sampler flat band + paired stalled-regime cluster runs"
SYMBREAK_SCALE=0.04096 cargo run --release -p symbreak-bench --bin exp_e26_incremental_rounds

echo "==> benchmark smoke: every BENCHMARK.json workload at tiny size, untraced and traced"
python3 perfbench/smoke_test.py

echo "==> experiment smoke (SYMBREAK_SCALE=${SYMBREAK_SCALE:-0.25})"
SYMBREAK_SCALE="${SYMBREAK_SCALE:-0.25}" \
    cargo run --release -p symbreak-bench --bin run_all

echo "==> benches: samplers + engines (incl. cluster_singleton_run) -> ${BENCH_OUT}"
JSONL="$(mktemp)"
trap 'rm -f "$JSONL"' EXIT
SYMBREAK_BENCH_JSON="$JSONL" cargo bench -p symbreak-bench -- samplers engines
{
    echo '['
    sed 's/$/,/' "$JSONL" | sed '$ s/,$//'
    echo ']'
} > "$BENCH_OUT"
echo "wrote $(grep -c ns_per_iter "$BENCH_OUT") results to ${BENCH_OUT}"
