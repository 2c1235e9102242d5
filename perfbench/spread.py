#!/usr/bin/env python3
"""Run-to-run spread and seed check for the benchmark's end-to-end metrics.

Usage, from the repository root:

    python3 perfbench/spread.py [--seeds 10] [--first-seed 1] [--workload NAME ...]

Runs `perfbench/run.py --trace 0` once per seed on each workload (every
run at another seed) and prints, per metric, the median and the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of the median, next to the metric's bound from `BENCHMARK.json`.
A spread passes below a third of the bound (`setup_s` is reported but not
held to it). The seed check holds every run's value to within the bound
of the first seed's, in the metric's worse direction: the fixed-horizon
work must not depend on which trajectory a seed draws. Exits non-zero if
a run fails or a check does not hold.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(value, base, better):
    """How much worse `value` is than `base`, as a share of `base`."""
    return (value - base) / base if better == "lower" else (base - value) / base


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    ok = True
    for workload in workloads:
        seeds = range(args.first_seed, args.first_seed + args.seeds)
        runs = [run_once(workload, s, spec["run_seconds"]) for s in seeds]
        print(f"== {workload}: {len(runs)} seeds from {args.first_seed}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            values = [r[name] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            worst = max(worse_by(v, values[0], m["better"]) for v in values)
            spread_ok = name == "setup_s" or spread < bound / 3
            seed_ok = worst <= bound
            ok &= spread_ok and seed_ok
            print(f"{name:<14} median {med:<12.6g} spread {spread:7.2%} (bound {bound:.0%}) "
                  f"{'ok' if spread_ok else 'WIDE'}; worst vs first seed {worst:+7.2%} "
                  f"{'ok' if seed_ok else 'OUT'}  values {[round(v, 6) for v in values]}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
