#!/usr/bin/env python3
"""Tiny-size smoke test of the benchmark.

Usage, from the repository root:

    python3 perfbench/smoke_test.py

Runs every workload of `BENCHMARK.json` at `--size tiny`, untraced and
traced, and asserts that each run prints every metric `BENCHMARK.json`
names for its mode, with its unit and a finite value, that the record line
carries the revision, `nproc` and the workload parameters, and that every
correctness check passes. Takes about a minute.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD_KEYS = {"rev", "nproc", "workload", "why", "seed", "n", "k", "shards", "rule",
               "backend", "gear", "report_mode", "horizon"}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            out = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"), "--workload", w["name"],
                 "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            lines = out.stdout.splitlines()
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            tag = f"{w['name']} trace {trace}"
            assert RECORD_KEYS <= set(record), f"{tag}: record lacks {RECORD_KEYS - set(record)}"
            assert record["workload"] == w["name"], tag
            assert result["correct"] and result["failed"] == 0, f"{tag}: a check failed"
            assert result["attempted"] >= 1, tag
            names = spec["per_layer" if trace else "end_to_end"]
            for m in names:
                got = result["metrics"].get(m["name"])
                assert got is not None, f"{tag}: {m['name']} missing"
                assert got["unit"] == m["unit"], f"{tag}: {m['name']} unit {got['unit']}"
                assert math.isfinite(got["value"]), f"{tag}: {m['name']} not finite"
                assert any(line.split()[:1] == [m["name"]] for line in lines[:-2]), \
                    f"{tag}: {m['name']} not printed by name"
            assert len(result["metrics"]) == len(names), f"{tag}: unexpected extra metrics"
            print(f"ok  {tag}: {result['attempted']} checks, {len(names)} metrics")


if __name__ == "__main__":
    main()
