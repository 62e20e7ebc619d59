#!/usr/bin/env bash
# Offline CI gate: format, build, test, lint. No network access required — no
# manifest in the repository has an external dependency.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo fmt --check (whole workspace) =="
cargo fmt --check --all

echo "== cargo build --release =="
cargo build --release --offline --workspace

echo "== cargo test =="
cargo test -q --offline --workspace

echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo doc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== doc-tests =="
cargo test -q --offline --workspace --doc

echo "== campaign determinism: --jobs 1 vs --jobs 2 artifacts =="
mkdir -p artifacts/jobs1 artifacts/jobs2
cargo run --release --offline -p p5-experiments --bin repro -- \
  --quick --only table3 --jobs 1 \
  --csv-dir artifacts/jobs1 --json-dir artifacts/jobs1 > /dev/null
cargo run --release --offline -p p5-experiments --bin repro -- \
  --quick --only table3 --jobs 2 \
  --csv-dir artifacts/jobs2 --json-dir artifacts/jobs2 > /dev/null
if ! diff -r artifacts/jobs1 artifacts/jobs2 > artifacts/determinism.diff; then
  echo "DETERMINISM GATE FAILED: --jobs 1 and --jobs 2 artifacts differ"
  cat artifacts/determinism.diff
  exit 1
fi
rm artifacts/determinism.diff

# Shared-cell determinism: fig6 is the presented campaign whose cells
# repeat (its worst-case points re-measure eight grid cells), so each
# repeat takes its twin's outcome (DESIGN.md §12). Its artifacts must be
# byte-identical at --jobs 1 and --jobs 2.
echo "== shared-cell determinism: fig6 --jobs 1 vs --jobs 2 artifacts =="
mkdir -p artifacts/fig6_jobs1 artifacts/fig6_jobs2
cargo run --release --offline -p p5-experiments --bin repro -- \
  --quick --only fig6 --jobs 1 \
  --csv-dir artifacts/fig6_jobs1 --json-dir artifacts/fig6_jobs1 > /dev/null
cargo run --release --offline -p p5-experiments --bin repro -- \
  --quick --only fig6 --jobs 2 \
  --csv-dir artifacts/fig6_jobs2 --json-dir artifacts/fig6_jobs2 > /dev/null
if ! diff -r artifacts/fig6_jobs1 artifacts/fig6_jobs2 > artifacts/shared_cells.diff; then
  echo "SHARED-CELL GATE FAILED: fig6 --jobs 1 and --jobs 2 artifacts differ"
  cat artifacts/shared_cells.diff
  exit 1
fi
rm artifacts/shared_cells.diff

# Idle-skip determinism: the event-horizon idle skip is wall-clock only
# (DESIGN.md §17) — `--plan detailed+noskip` runs of the quick table3
# grid and of the PMU artifacts (CPI stacks + Chrome trace) must be
# byte-identical to the default skip-on runs. Diffs stay in artifacts/.
echo "== idle-skip determinism: --plan detailed+noskip artifacts vs default =="
mkdir -p artifacts/idle_skip_off/table3 artifacts/idle_skip_on/pmu artifacts/idle_skip_off/pmu
cargo run --release --offline -p p5-experiments --bin repro -- \
  --quick --only table3 --jobs 2 --plan detailed+noskip \
  --csv-dir artifacts/idle_skip_off/table3 --json-dir artifacts/idle_skip_off/table3 > /dev/null
if ! diff -r artifacts/jobs1 artifacts/idle_skip_off/table3 > artifacts/idle_skip.diff; then
  echo "IDLE-SKIP GATE FAILED: --plan detailed+noskip table3 artifacts differ from the skip-on run"
  cat artifacts/idle_skip.diff
  exit 1
fi
cargo run --release --offline -p p5-experiments --bin repro -- \
  --quick --only pmu --pmu --trace artifacts/idle_skip_on/pmu/trace.json \
  --json-dir artifacts/idle_skip_on/pmu > /dev/null
cargo run --release --offline -p p5-experiments --bin repro -- \
  --quick --only pmu --pmu --plan detailed+noskip --trace artifacts/idle_skip_off/pmu/trace.json \
  --json-dir artifacts/idle_skip_off/pmu > /dev/null
if ! diff -r artifacts/idle_skip_on/pmu artifacts/idle_skip_off/pmu > artifacts/idle_skip.diff; then
  echo "IDLE-SKIP GATE FAILED: --plan detailed+noskip PMU artifacts differ from the skip-on run"
  cat artifacts/idle_skip.diff
  exit 1
fi
rm artifacts/idle_skip.diff

# Sampled-plan tolerance: the three-speed `sampled` measure must land
# within confidence-interval distance of the detailed quick Table 3
# (DESIGN.md §15). Both runs are seeded and deterministic, so the gate
# cannot flake — a failure means the estimator drifted.
echo "== sampled-plan tolerance: --plan sampled table3 vs detailed =="
mkdir -p artifacts/sampled
cargo run --release --offline -p p5-experiments --bin repro -- \
  --quick --only table3 --jobs 2 --plan sampled \
  --csv-dir artifacts/sampled --json-dir artifacts/sampled > /dev/null
if ! python3 scripts/check_sampled_tolerance.py \
  artifacts/jobs1/table3.json artifacts/sampled/table3.json; then
  echo "SAMPLED GATE FAILED: --plan sampled table3 out of tolerance vs detailed"
  exit 1
fi

# Sampled-plan Figure 2 tolerance: the ratio-shaped priority sweep
# (speedup vs the (4,4) baseline) under --plan sampled vs detailed,
# through the same checker. Ratio rows carry no confidence intervals and
# divide by clamped baselines, so the checker coverage-gates them (95%
# of cells within a 15% band; the chaotic contention-resonant tail is
# printed and excused — see the checker's docstring).
echo "== sampled fig2 tolerance: --plan sampled fig2 vs detailed =="
mkdir -p artifacts/fig2_detailed artifacts/fig2_sampled
cargo run --release --offline -p p5-experiments --bin repro -- \
  --quick --only fig2 --jobs 2 \
  --csv-dir artifacts/fig2_detailed --json-dir artifacts/fig2_detailed > /dev/null
cargo run --release --offline -p p5-experiments --bin repro -- \
  --quick --only fig2 --jobs 2 --plan sampled \
  --csv-dir artifacts/fig2_sampled --json-dir artifacts/fig2_sampled > /dev/null
if ! python3 scripts/check_sampled_tolerance.py \
  artifacts/fig2_detailed/fig2.json artifacts/fig2_sampled/fig2.json; then
  echo "SAMPLED-FIG2 GATE FAILED: --plan sampled fig2 out of tolerance vs detailed"
  exit 1
fi

# Idle-skip determinism on the priority sweep: the quick Figure 2 cells
# include the starved +/-5 pairs, where the skip jumps the most, so the
# event horizon is held byte-for-byte there too, not only on table3's
# (4,4) grid. Diffs the detailed fig2 artifacts built just above.
echo "== idle-skip determinism: --plan detailed+noskip fig2 vs default =="
mkdir -p artifacts/idle_skip_off/fig2
cargo run --release --offline -p p5-experiments --bin repro -- \
  --quick --only fig2 --jobs 2 --plan detailed+noskip \
  --csv-dir artifacts/idle_skip_off/fig2 --json-dir artifacts/idle_skip_off/fig2 > /dev/null
if ! diff -r artifacts/fig2_detailed artifacts/idle_skip_off/fig2 > artifacts/fig2_idle_skip.diff; then
  echo "IDLE-SKIP GATE FAILED: --plan detailed+noskip fig2 artifacts differ from the skip-on run"
  cat artifacts/fig2_idle_skip.diff
  exit 1
fi
rm artifacts/fig2_idle_skip.diff

# Kill-and-resume determinism: abort the journaled table3 campaign at
# cell 21 of 42 (exit 3 by the repro exit-code contract), then resume
# from the journal — the resumed artifacts must be byte-identical to the
# uninterrupted jobs-1 reference (DESIGN.md §13). The resume must also
# have replayed: a journal that loaded nothing, or only stale or corrupt
# lines, re-simulates every cell and would still match.
echo "== kill-and-resume determinism: journaled abort + --resume vs plain =="
rm -rf artifacts/resume_journal artifacts/resumed
mkdir -p artifacts/resumed
set +e
cargo run --release --offline -p p5-experiments --bin repro -- \
  --quick --only table3 --jobs 2 \
  --journal artifacts/resume_journal --chaos-abort-after 21 > /dev/null
interrupted=$?
set -e
if [ "$interrupted" -ne 3 ]; then
  echo "RESUME GATE FAILED: interrupted run exited $interrupted, expected 3 (aborted)"
  exit 1
fi
cargo run --release --offline -p p5-experiments --bin repro -- \
  --quick --only table3 --jobs 2 \
  --journal artifacts/resume_journal --resume \
  --csv-dir artifacts/resumed --json-dir artifacts/resumed > artifacts/resume.out
if ! diff -r artifacts/jobs1 artifacts/resumed > artifacts/resume.diff; then
  echo "RESUME GATE FAILED: resumed artifacts differ from the uninterrupted run"
  cat artifacts/resume.diff
  exit 1
fi
if ! grep -Eq '^journal: resumed .* with [1-9][0-9]* record\(s\)$' artifacts/resume.out; then
  echo "RESUME GATE FAILED: the journal loaded no record, or some lines were stale or corrupt"
  cat artifacts/resume.out
  exit 1
fi
if ! grep -Eq '\([1-9][0-9]* replayed from journal\)' artifacts/resume.out; then
  echo "RESUME GATE FAILED: the resumed run replayed no cell from the journal"
  cat artifacts/resume.out
  exit 1
fi
rm artifacts/resume.diff artifacts/resume.out
rm -rf artifacts/resume_journal

# Serve smoke: a daemon on a unix socket serves the same quick table3
# grid twice. Both fetches must be byte-identical to the offline jobs-1
# reference, and the second must be answered from the result cache
# (DESIGN.md §14).
echo "== p5-serve smoke: daemon-fetched artifacts vs offline + cache hits =="
rm -rf artifacts/serve1 artifacts/serve2 artifacts/serve.sock
mkdir -p artifacts/serve1 artifacts/serve2
cargo run --release --offline -p p5-serve --bin p5_serve -- \
  --unix artifacts/serve.sock > artifacts/serve.log 2>&1 &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true' EXIT
cargo run --release --offline -p p5-serve --bin p5_client -- \
  --unix artifacts/serve.sock --wait-ready 30000 \
  --grid table3 --fidelity quick \
  --csv-dir artifacts/serve1 --json-dir artifacts/serve1 > artifacts/serve1.out
cargo run --release --offline -p p5-serve --bin p5_client -- \
  --unix artifacts/serve.sock \
  --grid table3 --fidelity quick \
  --csv-dir artifacts/serve2 --json-dir artifacts/serve2 > artifacts/serve2.out
# A sampled-plan fetch of the same grid against the warm cache: its
# cells hash under their own keys, so the detailed entries must NOT
# serve it (DESIGN.md §15) — and a repeat must then hit its own entries.
cargo run --release --offline -p p5-serve --bin p5_client -- \
  --unix artifacts/serve.sock \
  --grid table3 --fidelity quick --plan sampled > artifacts/serve3.out
cargo run --release --offline -p p5-serve --bin p5_client -- \
  --unix artifacts/serve.sock \
  --grid table3 --fidelity quick --plan sampled > artifacts/serve4.out
cargo run --release --offline -p p5-serve --bin p5_client -- \
  --unix artifacts/serve.sock --shutdown > /dev/null
wait "$serve_pid"
trap - EXIT
for leg in serve1 serve2; do
  if ! diff -r artifacts/jobs1 "artifacts/$leg" > "artifacts/$leg.diff"; then
    echo "SERVE GATE FAILED: $leg artifacts differ from the offline reference"
    cat "artifacts/$leg.diff"
    exit 1
  fi
  rm "artifacts/$leg.diff"
done
if ! grep -q "(0 from server cache)" artifacts/serve1.out; then
  echo "SERVE GATE FAILED: first fetch should be fully uncached"
  cat artifacts/serve1.out
  exit 1
fi
if ! grep -q "(42 from server cache)" artifacts/serve2.out; then
  echo "SERVE GATE FAILED: second fetch should be fully cached"
  cat artifacts/serve2.out
  exit 1
fi
if ! grep -q "(0 from server cache)" artifacts/serve3.out; then
  echo "SERVE GATE FAILED: sampled-plan fetch must not hit detailed cache entries"
  cat artifacts/serve3.out
  exit 1
fi
if ! grep -q "(42 from server cache)" artifacts/serve4.out; then
  echo "SERVE GATE FAILED: repeated sampled-plan fetch should be fully cached"
  cat artifacts/serve4.out
  exit 1
fi
rm -f artifacts/serve1.out artifacts/serve2.out artifacts/serve3.out \
  artifacts/serve4.out artifacts/serve.log

# Benchmark build + smoke: perfbench/ is a workspace of its own, so the
# workspace build above never compiles it, yet it calls the public API
# (run_isolated_cell, cell_key, ResultJournal, Server::bind_tcp, the
# client). Its unit tests, then every workload briefly, each checked
# against the committed reference digests (perfbench/NOTES.md).
echo "== perfbench: unit tests + smoke of every workload =="
CARGO_TARGET_DIR=.bench_build cargo test -q --offline --manifest-path perfbench/Cargo.toml
python3 perfbench/smoke.py

echo "== PMU smoke: CPI stacks + Chrome trace =="
mkdir -p artifacts
cargo run --release --offline -p p5-experiments --bin repro -- \
  --quick --only pmu --pmu --trace artifacts/priority_switch_trace.json \
  --json-dir artifacts
test -s artifacts/priority_switch_trace.json
test -s artifacts/pmu.json

# Smoke-sized run (--quick): gates PMU overhead, the two-speed warmup
# speedup, the shared-cell speedup/bit-identity, the result-journal
# write overhead, the sampled-plan speedup, and the idle-skip
# speedup/bit-identity without the full snapshot's cost. The committed
# BENCH_repro.json is the full-methodology snapshot, refreshed manually
# on perf-relevant changes (see PERF.md), so the quick artifact stays in
# artifacts/ and does not overwrite it.
echo "== perf smoke: PMU overhead + two-speed warmup + shared cells + journal + sampled + idle-skip gates =="
cargo run --release --offline -p p5-experiments --bin perf_snapshot -- \
  --out artifacts/BENCH_quick.json --check --quick

echo "CI gate passed"
