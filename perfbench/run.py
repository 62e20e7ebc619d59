#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload sweep_detailed --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); cargo's output goes to stderr so that the last
line of stdout stays the benchmark's JSON result. Exits non-zero without
a result when the build or the run fails. Any other arguments are passed
to the benchmark binary unchanged (`reference quick|tiny` regenerates the
reference digest tables).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(ROOT, target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
