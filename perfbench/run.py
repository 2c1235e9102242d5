#!/usr/bin/env python3
"""Build and run the repository's benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the `perfbench` package (its own Cargo package, with
path dependencies on the workspace crates) into `$CARGO_TARGET_DIR`
(default `.bench_build`), runs one workload at the given seed, and relays
the benchmark's output. `--trace 0` measures the end-to-end metrics;
`--trace 1` makes a separate traced run that prints the per-layer ledger.
`--seconds` sets how many fixed-horizon passes a run makes (at each
workload's nominal pass time), so the work depends on the arguments only.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the line before it is a
record with the revision, `nproc`, the workload's parameters and why it
exists. `--size tiny` shrinks every workload for the smoke test.

Everything the benchmark writes stays under the target directory. If the
build or the run fails, or the output lacks a metric named in
`BENCHMARK.json`, the script exits non-zero without printing a result.
"""

import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170
# The first build of a checkout compiles the workspace crates.
BUILD_TIMEOUT_S = 800


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def tree_revision():
    """Content digest of the sources the benchmark builds; the checkout the
    benchmark runs in need not be a git repository."""
    digest = hashlib.sha256()
    tops = ["Cargo.toml", "Cargo.lock", "crates", "vendor", "perfbench"]
    skip = {"target", ".bench_build", "__pycache__"}
    for top in tops:
        base = os.path.join(ROOT, top)
        paths = []
        if os.path.isfile(base):
            paths.append(base)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(d for d in dirnames if d not in skip)
            paths.extend(os.path.join(dirpath, f) for f in sorted(filenames))
        for path in paths:
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = sys.argv[1:]
    trace = "--trace" in args and args[args.index("--trace") + 1] == "1"

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target_abs = target if os.path.isabs(target) else os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target_abs)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("building the benchmark failed")

    # Relative to the root so socket paths stay short.
    work_dir = os.path.relpath(os.path.join(target_abs, "perfbench-work"), ROOT)
    binary = os.path.join(target_abs, "release", "perfbench")
    cmd = [binary, *args, "--work-dir", work_dir, "--rev", tree_revision()]
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark ran past {RUN_TIMEOUT_S} s")
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        fail(f"the benchmark exited with code {run.returncode}")

    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the benchmark's last line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"unexpected result keys {sorted(result)}")
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m.get("unit") for name, m in result["metrics"].items()}
        if got != expected:
            fail(f"metrics {got} do not match BENCHMARK.json {expected}")
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            fail(f"metric {name} has no numeric value")

    print("\n".join(lines))


if __name__ == "__main__":
    main()
