#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

    python3 perfbench/smoke.py

Runs every workload briefly (six seconds of timed load, then the traced
run) and asserts that each run passes its output checks and prints
exactly the metrics BENCHMARK.json names, each with its unit. Exits
non-zero on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Runnable by hand, left out of BENCHMARK.json (see NOTES.md).
EXTRA_WORKLOADS = ["sweep_detailed"]


def run(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--seconds", "6",
         "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit code {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]] + EXTRA_WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            want = {m["name"]: m["unit"] for m in bench[kind]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            problems = []
            if not result["correct"] or result["failed"] != 0:
                problems.append(f"output checks failed: {result['failed']} of {result['attempted']}")
            if set(got) != set(want):
                problems.append(f"missing {sorted(set(want) - set(got))}, "
                                f"unexpected {sorted(set(got) - set(want))}")
            problems += [f"{n}: unit {got[n]!r}, expected {u!r}"
                         for n, u in want.items() if n in got and got[n] != u]
            if problems:
                sys.exit(f"{workload} trace={trace}: " + "; ".join(problems))
            print(f"ok: {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} checked")


if __name__ == "__main__":
    main()
