//! Performance snapshot: wall-time and simulated-cycles-per-second of a
//! fixed workload with the PMU off, counting, and sampling, plus the
//! two-speed engine's functional-vs-detailed warmup throughput, written
//! as `BENCH_repro.json`.
//!
//! ```text
//! cargo run --release -p p5-experiments --bin perf_snapshot
//! cargo run --release -p p5-experiments --bin perf_snapshot -- --check
//! cargo run --release -p p5-experiments --bin perf_snapshot -- --check --quick
//! cargo run --release -p p5-experiments --bin perf_snapshot -- --out path.json
//! ```
//!
//! Methodology (see PERF.md for the full discussion): runs are
//! **interleaved** — every round times each PMU mode once before the
//! next round starts — and the reported number per mode is the
//! **median** across rounds, with the max−min spread recorded next to
//! it. Interleaving spreads slow-host transients (frequency ramps, cron
//! jobs) across all modes instead of letting them bias whichever mode
//! ran first, which is what previously produced *negative* measured PMU
//! overheads; the medians make single outlier rounds irrelevant.
//!
//! `--check` exits non-zero if the PMU's measured overhead exceeds the
//! gates ([`MAX_COUNTERS_OVERHEAD_PCT`], [`MAX_SAMPLING_OVERHEAD_PCT`]),
//! the functional warmup path is less than
//! [`MIN_WARMUP_SPEEDUP`]× faster than detailed warmup, shared cells
//! are less than [`MIN_REUSE_SPEEDUP`]× faster (or not bit-identical)
//! on the sweep-shaped campaign leg, write-ahead
//! result journaling costs more than [`MAX_JOURNAL_OVERHEAD_PCT`] over
//! the identical un-journaled leg, the three-speed `sampled` plan is
//! less than [`MIN_SAMPLED_SPEEDUP`]× faster than fully detailed on the
//! long-repetition cell, or the event-horizon idle skip is less than
//! [`MIN_IDLE_SKIP_SPEEDUP`]× faster (or not bit-identical) on the
//! stall-heavy starved cell — how CI keeps the instrumentation, the
//! two-speed engine, shared cells, the durability layer, the
//! sampling engine and the idle-skip fast path honest. `--quick`
//! shrinks the cycle budgets and cell counts for a CI smoke run. The
//! `off` mode *is* the disabled-PMU state — its hot-path cost is one
//! never-taken branch per cycle, so the disabled overhead is bounded by
//! run-to-run noise (see the Observability section of DESIGN.md); the
//! modes measured here gate the cost of actually turning the PMU on.

use p5_core::{CoreConfig, SmtCore};
use p5_experiments::campaign::{Campaign, CampaignSpec, CellSpec};
use p5_experiments::journal::ResultJournal;
use p5_experiments::Experiments;
use p5_isa::{Priority, ThreadId};
use p5_microbench::MicroBenchmark;
use p5_pmu::json::{JsonObject, JsonValue};
use p5_pmu::PmuConfig;
use std::time::Instant;

/// Sampling interval used by the `sampling` mode.
const SAMPLE_INTERVAL: u64 = 4_096;

/// Overhead gate for counters-only mode, percent over `off`.
const MAX_COUNTERS_OVERHEAD_PCT: f64 = 20.0;
/// Overhead gate for sampling mode, percent over `off`.
const MAX_SAMPLING_OVERHEAD_PCT: f64 = 20.0;
/// Gate: functional warmup must fast-forward the warm phase at least
/// this many times faster than the detailed engine simulates it.
const MIN_WARMUP_SPEEDUP: f64 = 2.0;
/// Gate: shared cells must cut the wall-clock of the sweep-shaped
/// campaign leg by at least this factor (and the shared results must
/// stay bit-identical to the plain run).
const MIN_REUSE_SPEEDUP: f64 = 3.0;
/// Gate: write-ahead result journaling must cost at most this much over
/// the identical un-journaled campaign leg, in percent of wall-clock —
/// durability has to stay in the noise.
const MAX_JOURNAL_OVERHEAD_PCT: f64 = 5.0;
/// Gate: the sampled measure plan (three-speed engine) must cut the
/// wall-clock of the long-repetition cell by at least this factor over
/// the fully detailed plan — the whole point of interval sampling.
const MIN_SAMPLED_SPEEDUP: f64 = 10.0;
/// Gate: the event-horizon idle skip must cut the wall-clock of the
/// stall-heavy starved cell by at least this factor — and the skipped
/// run must stay bit-identical to the per-cycle run, which is the fast
/// path's whole contract.
const MIN_IDLE_SKIP_SPEEDUP: f64 = 1.5;

/// Worker count for the parallel leg of the campaign-scaling benchmark.
const CAMPAIGN_JOBS: usize = 4;

/// Cycle budgets and round counts; `--quick` swaps in the smoke-sized
/// set so the CI perf gate costs seconds, not minutes.
struct Params {
    warm_cycles: u64,
    measure_cycles: u64,
    rounds: usize,
    campaign_rounds: usize,
    /// Cells in the campaign-scaling leg (quick runs a subset of the
    /// presented benchmarks so the smoke gate stays cheap).
    campaign_cells: usize,
    /// Cells in the journal-overhead leg. Kept at the full presented
    /// list even under `--quick`: the leg gates a fixed per-cell fsync
    /// cost as a *percentage* of simulate time, and the idle-skip fast
    /// path shrank quick simulate time enough that a 3-cell leg
    /// measures the host's fsync latency, not the journal design.
    journal_cells: usize,
    /// Duplicate cells in the warm-reuse leg.
    reuse_cells: usize,
    /// Fixed warm-phase length of the warm-reuse leg: pinned via the
    /// FAME clamp so warmup dominates each cell.
    reuse_warm_cycles: u64,
    /// Iteration count of the sampled-plan leg's programs: long enough
    /// that one repetition costs far more detailed cycles than the
    /// sampling schedule spends, the regime interval sampling targets.
    sampled_iterations: u64,
    /// Interleaved detailed/sampled rounds in the sampled-plan leg.
    sampled_rounds: usize,
    /// Cycles of the idle-skip leg's stall-heavy starved cell.
    idle_skip_cycles: u64,
    /// Interleaved skip-off/skip-on rounds in the idle-skip leg.
    idle_skip_rounds: usize,
}

impl Params {
    fn full() -> Params {
        Params {
            warm_cycles: 500_000,
            measure_cycles: 2_000_000,
            rounds: 5,
            campaign_rounds: 2,
            campaign_cells: MicroBenchmark::PRESENTED.len(),
            journal_cells: MicroBenchmark::PRESENTED.len(),
            reuse_cells: 8,
            reuse_warm_cycles: 1_500_000,
            sampled_iterations: 60_000,
            sampled_rounds: 3,
            idle_skip_cycles: 2_000_000,
            idle_skip_rounds: 3,
        }
    }

    fn quick() -> Params {
        Params {
            warm_cycles: 200_000,
            measure_cycles: 500_000,
            rounds: 3,
            campaign_rounds: 1,
            campaign_cells: 3,
            journal_cells: MicroBenchmark::PRESENTED.len(),
            reuse_cells: 6,
            reuse_warm_cycles: 600_000,
            sampled_iterations: 20_000,
            sampled_rounds: 2,
            idle_skip_cycles: 500_000,
            idle_skip_rounds: 2,
        }
    }
}

/// PMU operating modes the snapshot times.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Off,
    Counters,
    Sampling,
}

impl Mode {
    const ALL: [Mode; 3] = [Mode::Off, Mode::Counters, Mode::Sampling];

    fn name(self) -> &'static str {
        match self {
            Mode::Off => "off",
            Mode::Counters => "counters",
            Mode::Sampling => "sampling",
        }
    }
}

/// Median of a sample set (interleaved rounds are few, so a sort is
/// fine). Panics on an empty slice.
fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("wall times are finite"));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Run-to-run spread as a percentage of the median: `(max − min) /
/// median`. Reported next to every median so a reader can tell signal
/// from noise.
fn spread_pct(samples: &[f64]) -> f64 {
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    100.0 * (max - min) / median(samples)
}

/// The fixed snapshot workload: `cpu_int` against `ldint_l2` at (4,4).
fn workload_core() -> SmtCore {
    let mut core = SmtCore::new(CoreConfig::power5_like());
    core.load_program(ThreadId::T0, MicroBenchmark::CpuInt.program());
    core.load_program(ThreadId::T1, MicroBenchmark::LdintL2.program());
    core.set_priority(ThreadId::T0, Priority::from_level(4).expect("valid"));
    core.set_priority(ThreadId::T1, Priority::from_level(4).expect("valid"));
    core
}

/// One timed run: detailed warmup, then the measured window with the
/// PMU in `mode`. Returns `(warm_wall, measure_wall)` in seconds so the
/// warmup and measure phases can be reported separately.
fn timed_run(p: &Params, mode: Mode) -> (f64, f64) {
    let mut core = workload_core();
    let t = Instant::now();
    core.run_cycles(p.warm_cycles);
    let warm_wall = t.elapsed().as_secs_f64();
    match mode {
        Mode::Off => {}
        Mode::Counters => core.enable_pmu(PmuConfig::counters_only()),
        Mode::Sampling => core.enable_pmu(PmuConfig::sampling(SAMPLE_INTERVAL)),
    }
    let t = Instant::now();
    core.run_cycles(p.measure_cycles);
    let measure_wall = t.elapsed().as_secs_f64();
    if mode != Mode::Off {
        let pmu = core.take_pmu().expect("enabled above");
        assert_eq!(
            pmu.cycles(),
            p.measure_cycles,
            "PMU observed the full window"
        );
    }
    (warm_wall, measure_wall)
}

/// Times one warmup of `cycles` on the chosen engine (`functional`
/// selects the two-speed fast-forward path) and returns the wall time
/// in seconds.
fn timed_warmup(cycles: u64, functional: bool) -> f64 {
    let mut core = workload_core();
    let t = Instant::now();
    if functional {
        core.functional_warmup(cycles);
    } else {
        core.run_cycles(cycles);
    }
    t.elapsed().as_secs_f64()
}

/// The campaign-scaling workload: the first `count` presented benchmarks
/// paired with `cpu_int` at default priorities, under the quick FAME
/// policy.
fn campaign_cells(count: usize) -> Vec<CellSpec> {
    let default = Priority::from_level(4).expect("valid");
    MicroBenchmark::PRESENTED
        .into_iter()
        .take(count)
        .map(|b| {
            CellSpec::pair(
                format!("{}+cpu_int", b.name()),
                b.program(),
                MicroBenchmark::CpuInt.program(),
                (default, default),
            )
        })
        .collect()
}

/// Runs the serial campaign workload with write-ahead journaling into a
/// fresh temp-dir journal (`true`) or without (`false`) and returns the
/// wall time in seconds. A fresh journal per round keeps every round a
/// cold-start write workload (no replays).
fn timed_campaign_journaled(count: usize, round: usize, journaled: bool) -> f64 {
    let mut ctx = Experiments::quick().with_jobs(1);
    let dir = journaled.then(|| {
        std::env::temp_dir().join(format!("p5-perf-journal-{}-{round}", std::process::id()))
    });
    if let Some(dir) = &dir {
        let journal = ResultJournal::create(dir).expect("temp journal dir is writable");
        ctx = ctx.with_journal(std::sync::Arc::new(journal));
    }
    let spec = CampaignSpec::for_ctx(&ctx, campaign_cells(count));
    let t = Instant::now();
    let result = Campaign::run(&ctx, &spec);
    let wall = t.elapsed().as_secs_f64();
    assert_eq!(result.cells.len(), count, "every cell produced an outcome");
    // Close the journal (Drop flushes) before tearing down its directory.
    drop(result);
    drop(ctx);
    if let Some(dir) = dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    wall
}

/// Runs the campaign workload with `jobs` workers and returns the wall
/// time in seconds.
fn timed_campaign(jobs: usize, count: usize) -> f64 {
    let ctx = Experiments::quick().with_jobs(jobs);
    let spec = CampaignSpec::for_ctx(&ctx, campaign_cells(count));
    let t = Instant::now();
    let result = Campaign::run(&ctx, &spec);
    let wall = t.elapsed().as_secs_f64();
    assert_eq!(result.cells.len(), count, "every cell produced an outcome");
    wall
}

/// Runs the sweep-shaped warm-reuse leg — `reuse_cells` copies of the
/// identical `ldint_l2`+`cpu_int` pair at (4,4), each dominated by the
/// same fixed-length warm phase — with shared cells on or off. The leg
/// is one identity, so sharing simulates one cell instead of
/// `reuse_cells`. Returns the wall time and the per-cell IPC bit
/// patterns so the two runs can be checked for bit-identity, which is
/// the optimisation's whole contract.
fn timed_reuse(p: &Params, reuse: bool) -> (f64, Vec<u64>) {
    let mut ctx = Experiments::quick().with_jobs(1);
    ctx.fame.warmup = p5_fame::WarmupBudget::fixed(p.reuse_warm_cycles);
    let default = Priority::from_level(4).expect("valid");
    // Short repetitions keep the measure phase small next to the pinned
    // warm phase — the leg exists to time warm-up amortisation, not
    // measurement.
    let cells: Vec<CellSpec> = (0..p.reuse_cells)
        .map(|i| {
            CellSpec::pair(
                format!("sweep{i}"),
                MicroBenchmark::LdintL2.program_with_iterations(150),
                MicroBenchmark::CpuInt.program_with_iterations(150),
                (default, default),
            )
        })
        .collect();
    let spec = CampaignSpec {
        reuse_warmup: reuse,
        ..CampaignSpec::for_ctx(&ctx, cells)
    };
    let t = Instant::now();
    let result = Campaign::run(&ctx, &spec);
    let wall = t.elapsed().as_secs_f64();
    let bits = result
        .cells
        .iter()
        .map(|c| c.measured.total_ipc().map_or(0, f64::to_bits))
        .collect();
    (wall, bits)
}

/// Runs the long-repetition cell — `ldint_l2` against `cpu_int` at
/// (4,4), both with [`Params::sampled_iterations`]-iteration bodies so
/// a single repetition dwarfs the sampling schedule — end-to-end under
/// the fully detailed plan or the three-speed `sampled` plan. Returns
/// the wall time and the measured total IPC, so the two plans' answers
/// can be compared (the CI tolerance gate lives in `scripts/ci.sh`;
/// here the relative error is recorded, the speedup gated).
fn timed_sampled(p: &Params, sampled: bool) -> (f64, f64) {
    let mut ctx = Experiments::quick().with_jobs(1);
    if sampled {
        ctx = ctx.with_plan(p5_core::ExecutionPlan::sampled(
            p5_core::SamplingConfig::balanced(),
        ));
    }
    let default = Priority::from_level(4).expect("valid");
    let cells = vec![CellSpec::pair(
        "long".to_string(),
        MicroBenchmark::LdintL2.program_with_iterations(p.sampled_iterations),
        MicroBenchmark::CpuInt.program_with_iterations(p.sampled_iterations),
        (default, default),
    )];
    let spec = CampaignSpec::for_ctx(&ctx, cells);
    let t = Instant::now();
    let result = Campaign::run(&ctx, &spec);
    let wall = t.elapsed().as_secs_f64();
    let ipc = result.cells[0]
        .measured
        .total_ipc()
        .expect("the long cell produces a measurement");
    (wall, ipc)
}

/// Runs the stall-heavy starved cell — the `ldint_mem` pointer chase
/// favoured at priority 6 over `ldint_l2` starved at priority 1, so the
/// favoured thread spends most cycles waiting out memory misses while
/// the starved one rarely holds a decode slot — with the event-horizon
/// idle skip off or on, PMU sampling attached (the skip must batch the
/// accounting, not bypass it). Returns the wall time and a digest of
/// every observable (stats ledgers, CPI stacks, hardware counters,
/// samples) so the two runs can be checked for bit-identity.
fn timed_idle_skip(cycles: u64, skip: bool) -> (f64, String) {
    let mut cfg = CoreConfig::power5_like();
    cfg.plan.idle_skip = skip;
    let mut core = SmtCore::new(cfg);
    core.load_program(ThreadId::T0, MicroBenchmark::LdintMem.program());
    core.load_program(ThreadId::T1, MicroBenchmark::LdintL2.program());
    core.set_priority(ThreadId::T0, Priority::from_level(6).expect("valid"));
    core.set_priority(ThreadId::T1, Priority::from_level(1).expect("valid"));
    core.enable_pmu(PmuConfig::sampling(SAMPLE_INTERVAL));
    let t = Instant::now();
    core.run_cycles(cycles);
    let wall = t.elapsed().as_secs_f64();
    let pmu = core.take_pmu().expect("enabled above");
    let digest = format!(
        "cycle={} stats={:?} stacks={:?} counters={:?} samples={:?}",
        core.cycle(),
        core.stats(),
        [pmu.stack(ThreadId::T0), pmu.stack(ThreadId::T1)],
        pmu.counters(),
        pmu.samples(),
    );
    (wall, digest)
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.iter().any(|a| a == "--check");
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_repro.json", String::as_str);
    let p = if quick {
        Params::quick()
    } else {
        Params::full()
    };

    println!(
        "== perf snapshot: cpu_int/ldint_l2 (4,4), {} cycles, median of {} interleaved rounds{} ==",
        p.measure_cycles,
        p.rounds,
        if quick { " (quick)" } else { "" }
    );

    // PMU modes, interleaved: each round times every mode once, so host
    // transients land on all modes evenly instead of biasing the first.
    let mut warm_samples: Vec<f64> = Vec::new();
    let mut measure_samples: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..p.rounds {
        for (i, mode) in Mode::ALL.into_iter().enumerate() {
            let (warm, measure) = timed_run(&p, mode);
            warm_samples.push(warm);
            measure_samples[i].push(measure);
        }
    }
    let mut mode_rows = Vec::new();
    let mut med = [0.0f64; 3];
    for (i, mode) in Mode::ALL.into_iter().enumerate() {
        med[i] = median(&measure_samples[i]);
        let spread = spread_pct(&measure_samples[i]);
        let cps = p.measure_cycles as f64 / med[i];
        println!(
            "{:<9} {:>8.1} ms (spread {:>4.1}%)   {:>12.0} cycles/s",
            mode.name(),
            med[i] * 1e3,
            spread,
            cps
        );
        mode_rows.push(
            JsonObject::new()
                .field("mode", mode.name())
                .field("wall_ms", med[i] * 1e3)
                .field("spread_pct", spread)
                .field("cycles_per_sec", cps)
                .build(),
        );
    }
    let counters_pct = 100.0 * (med[1] / med[0] - 1.0);
    let sampling_pct = 100.0 * (med[2] / med[0] - 1.0);
    println!("overhead vs off: counters {counters_pct:+.1}%  sampling {sampling_pct:+.1}%");

    let counters_ok = counters_pct < MAX_COUNTERS_OVERHEAD_PCT;
    let sampling_ok = sampling_pct < MAX_SAMPLING_OVERHEAD_PCT;

    // Phase split: the same detailed engine runs both phases, so their
    // throughputs should agree; a divergence flags a phase-dependent
    // regression (e.g. cold-start effects) that end-to-end numbers hide.
    let warm_med = median(&warm_samples);
    let warm_cps = p.warm_cycles as f64 / warm_med;
    let measure_cps = p.measure_cycles as f64 / med[0];
    println!(
        "phases (detailed engine): warmup {warm_cps:>12.0} cycles/s   measure {measure_cps:>12.0} cycles/s"
    );

    // Two-speed warmup: functional fast-forward vs detailed simulation
    // of the identical warm phase, interleaved and medianed the same
    // way. Gated: the fast path must actually be fast.
    let warmup_bench_cycles = p.measure_cycles;
    let mut detailed_samples = Vec::new();
    let mut functional_samples = Vec::new();
    for _ in 0..p.rounds {
        detailed_samples.push(timed_warmup(warmup_bench_cycles, false));
        functional_samples.push(timed_warmup(warmup_bench_cycles, true));
    }
    let detailed_med = median(&detailed_samples);
    let functional_med = median(&functional_samples);
    let warmup_speedup = detailed_med / functional_med;
    let warmup_ok = warmup_speedup >= MIN_WARMUP_SPEEDUP;
    println!(
        "== two-speed warmup: {warmup_bench_cycles} cycles, detailed vs functional ==\n\
         detailed  {:>8.1} ms (spread {:>4.1}%)   functional {:>8.1} ms (spread {:>4.1}%)   speedup {warmup_speedup:.1}x",
        detailed_med * 1e3,
        spread_pct(&detailed_samples),
        functional_med * 1e3,
        spread_pct(&functional_samples),
    );

    // Campaign scaling: the same cell list serial and with CAMPAIGN_JOBS
    // workers. Recorded, not gated — the speedup is bounded by the host's
    // available parallelism, which CI containers often cap at one.
    let host_cpus = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    println!(
        "== campaign scaling: {} quick cells, serial vs {CAMPAIGN_JOBS} jobs (host has {host_cpus} CPU(s)) ==",
        p.campaign_cells
    );
    let mut serial_samples = Vec::new();
    let mut parallel_samples = Vec::new();
    for _ in 0..p.campaign_rounds {
        serial_samples.push(timed_campaign(1, p.campaign_cells));
        parallel_samples.push(timed_campaign(CAMPAIGN_JOBS, p.campaign_cells));
    }
    let serial_wall = median(&serial_samples);
    let parallel_wall = median(&parallel_samples);
    let speedup = serial_wall / parallel_wall;
    println!(
        "serial {:>8.1} ms   {CAMPAIGN_JOBS} jobs {:>8.1} ms   speedup {speedup:.2}x",
        serial_wall * 1e3,
        parallel_wall * 1e3
    );

    // Journal overhead: the identical serial campaign leg with the
    // write-ahead journal off vs on, interleaved and medianed. Gated:
    // durability must stay in the noise.
    // Five interleaved rounds minimum: the journaled delta per round is
    // a handful of buffered writes (the batch fsync lands on drop,
    // outside the timer), so the signal is small and the median needs
    // enough rounds to shed this container's scheduling transients.
    let journal_rounds = p.campaign_rounds.max(5);
    println!(
        "== journal overhead: {} quick cells at 1 job, journal off vs on ({journal_rounds} rounds) ==",
        p.journal_cells
    );
    let mut journal_off_samples = Vec::new();
    let mut journal_on_samples = Vec::new();
    for round in 0..journal_rounds {
        journal_off_samples.push(timed_campaign_journaled(p.journal_cells, round, false));
        journal_on_samples.push(timed_campaign_journaled(p.journal_cells, round, true));
    }
    let journal_off = median(&journal_off_samples);
    let journal_on = median(&journal_on_samples);
    let journal_pct = 100.0 * (journal_on / journal_off - 1.0);
    let journal_ok = journal_pct <= MAX_JOURNAL_OVERHEAD_PCT;
    println!(
        "off {:>8.1} ms (spread {:>4.1}%)   on {:>8.1} ms (spread {:>4.1}%)   overhead {journal_pct:+.1}%",
        journal_off * 1e3,
        spread_pct(&journal_off_samples),
        journal_on * 1e3,
        spread_pct(&journal_on_samples),
    );

    // Shared cells on a sweep-shaped campaign: many cells repeating one
    // workload pair, each dominated by the identical warm phase.
    // Interleaved off/on rounds, medians, and a bit-identity check — the
    // optimisation must be both fast and invisible.
    println!(
        "== warm reuse: {} duplicate cells, {} warm cycles each, reuse off vs on ==",
        p.reuse_cells, p.reuse_warm_cycles
    );
    let mut reuse_off_samples = Vec::new();
    let mut reuse_on_samples = Vec::new();
    let mut reuse_identical = true;
    for _ in 0..p.campaign_rounds {
        let (off_wall, off_bits) = timed_reuse(&p, false);
        let (on_wall, on_bits) = timed_reuse(&p, true);
        reuse_off_samples.push(off_wall);
        reuse_on_samples.push(on_wall);
        reuse_identical &= off_bits == on_bits;
    }
    let reuse_off = median(&reuse_off_samples);
    let reuse_on = median(&reuse_on_samples);
    let reuse_speedup = reuse_off / reuse_on;
    let reuse_ok = reuse_speedup >= MIN_REUSE_SPEEDUP && reuse_identical;
    println!(
        "off {:>8.1} ms   on {:>8.1} ms   speedup {reuse_speedup:.2}x   bit-identical: {}",
        reuse_off * 1e3,
        reuse_on * 1e3,
        if reuse_identical { "yes" } else { "NO" }
    );

    // Sampled measure (three-speed engine): the identical long-repetition
    // cell under the fully detailed plan vs `--plan sampled`, interleaved
    // and medianed. Gated: interval sampling must actually buy its 10x on
    // workloads whose repetitions are long enough to need it. Accuracy is
    // recorded here (relative error of the sampled total IPC against the
    // detailed answer) and gated separately by the CI tolerance check.
    println!(
        "== sampled plan: ldint_l2/cpu_int (4,4) x {} iterations, detailed vs sampled ({} rounds) ==",
        p.sampled_iterations, p.sampled_rounds
    );
    let mut plan_detailed_samples = Vec::new();
    let mut plan_sampled_samples = Vec::new();
    let mut plan_detailed_ipc = 0.0f64;
    let mut plan_sampled_ipc = 0.0f64;
    for _ in 0..p.sampled_rounds {
        let (wall, ipc) = timed_sampled(&p, false);
        plan_detailed_samples.push(wall);
        plan_detailed_ipc = ipc;
        let (wall, ipc) = timed_sampled(&p, true);
        plan_sampled_samples.push(wall);
        plan_sampled_ipc = ipc;
    }
    let plan_detailed_wall = median(&plan_detailed_samples);
    let plan_sampled_wall = median(&plan_sampled_samples);
    let sampled_speedup = plan_detailed_wall / plan_sampled_wall;
    let sampled_rel_err = if plan_detailed_ipc > 0.0 {
        (plan_sampled_ipc - plan_detailed_ipc).abs() / plan_detailed_ipc
    } else {
        f64::INFINITY
    };
    let sampled_ok = sampled_speedup >= MIN_SAMPLED_SPEEDUP;
    println!(
        "detailed {:>8.1} ms (spread {:>4.1}%)   sampled {:>8.1} ms (spread {:>4.1}%)   \
         speedup {sampled_speedup:.1}x   ipc {:.4} vs {:.4} (rel err {:.2}%)",
        plan_detailed_wall * 1e3,
        spread_pct(&plan_detailed_samples),
        plan_sampled_wall * 1e3,
        spread_pct(&plan_sampled_samples),
        plan_detailed_ipc,
        plan_sampled_ipc,
        100.0 * sampled_rel_err,
    );

    // Event-horizon idle skip: the stall-heavy starved cell with the
    // skip off vs on, interleaved and medianed. Gated on both axes: the
    // fast path must actually be fast on its target regime AND produce
    // byte-for-byte the same observables — speed with a changed answer
    // is a correctness bug, not an optimisation.
    println!(
        "== idle skip: ldint_mem/ldint_l2 (6,1), {} cycles, skip off vs on ({} rounds) ==",
        p.idle_skip_cycles, p.idle_skip_rounds
    );
    let mut skip_off_samples = Vec::new();
    let mut skip_on_samples = Vec::new();
    let mut skip_identical = true;
    for _ in 0..p.idle_skip_rounds {
        let (off_wall, off_digest) = timed_idle_skip(p.idle_skip_cycles, false);
        let (on_wall, on_digest) = timed_idle_skip(p.idle_skip_cycles, true);
        skip_off_samples.push(off_wall);
        skip_on_samples.push(on_wall);
        skip_identical &= off_digest == on_digest;
    }
    let skip_off_wall = median(&skip_off_samples);
    let skip_on_wall = median(&skip_on_samples);
    let idle_skip_speedup = skip_off_wall / skip_on_wall;
    let idle_skip_ok = idle_skip_speedup >= MIN_IDLE_SKIP_SPEEDUP && skip_identical;
    println!(
        "off {:>8.1} ms (spread {:>4.1}%)   on {:>8.1} ms (spread {:>4.1}%)   speedup {idle_skip_speedup:.2}x   bit-identical: {}",
        skip_off_wall * 1e3,
        spread_pct(&skip_off_samples),
        skip_on_wall * 1e3,
        spread_pct(&skip_on_samples),
        if skip_identical { "yes" } else { "NO" }
    );

    let doc = JsonObject::new()
        .field("schema_version", p5_experiments::export::SCHEMA_VERSION)
        .field("artifact", "bench_repro")
        .field("methodology", "interleaved-median")
        .field("workload", "cpu_int/ldint_l2 (4,4)")
        .field("quick", quick)
        .field("warm_cycles", p.warm_cycles)
        .field("measure_cycles", p.measure_cycles)
        .field("rounds", p.rounds as u64)
        .field("sample_interval", SAMPLE_INTERVAL)
        .field("modes", JsonValue::Array(mode_rows))
        .field(
            "overhead_pct",
            JsonObject::new()
                .field("counters", counters_pct)
                .field("sampling", sampling_pct)
                .build(),
        )
        .field(
            "phases",
            JsonObject::new()
                .field("warmup_cycles_per_sec", warm_cps)
                .field("measure_cycles_per_sec", measure_cps)
                .build(),
        )
        .field(
            "warmup",
            JsonObject::new()
                .field("bench_cycles", warmup_bench_cycles)
                .field("detailed_wall_ms", detailed_med * 1e3)
                .field("detailed_spread_pct", spread_pct(&detailed_samples))
                .field("functional_wall_ms", functional_med * 1e3)
                .field("functional_spread_pct", spread_pct(&functional_samples))
                .field(
                    "functional_cycles_per_sec",
                    warmup_bench_cycles as f64 / functional_med,
                )
                .field("speedup", warmup_speedup)
                .build(),
        )
        .field(
            "gates",
            JsonObject::new()
                .field("max_counters_overhead_pct", MAX_COUNTERS_OVERHEAD_PCT)
                .field("max_sampling_overhead_pct", MAX_SAMPLING_OVERHEAD_PCT)
                .field("min_warmup_speedup", MIN_WARMUP_SPEEDUP)
                .field("min_reuse_speedup", MIN_REUSE_SPEEDUP)
                .field("max_journal_overhead_pct", MAX_JOURNAL_OVERHEAD_PCT)
                .field("min_sampled_speedup", MIN_SAMPLED_SPEEDUP)
                .field("min_idle_skip_speedup", MIN_IDLE_SKIP_SPEEDUP)
                .field("counters_ok", counters_ok)
                .field("sampling_ok", sampling_ok)
                .field("warmup_ok", warmup_ok)
                .field("reuse_ok", reuse_ok)
                .field("journal_ok", journal_ok)
                .field("sampled_ok", sampled_ok)
                .field("idle_skip_ok", idle_skip_ok)
                .build(),
        )
        .field(
            "campaign",
            JsonObject::new()
                .field("cells", p.campaign_cells as u64)
                .field("jobs", CAMPAIGN_JOBS as u64)
                .field("available_parallelism", host_cpus as u64)
                .field("serial_wall_ms", serial_wall * 1e3)
                .field("parallel_wall_ms", parallel_wall * 1e3)
                .field("speedup", speedup)
                .build(),
        )
        .field(
            "journal",
            JsonObject::new()
                .field("cells", p.journal_cells as u64)
                .field("rounds", journal_rounds as u64)
                .field("off_wall_ms", journal_off * 1e3)
                .field("on_wall_ms", journal_on * 1e3)
                .field("overhead_pct", journal_pct)
                .build(),
        )
        .field(
            "warm_reuse",
            JsonObject::new()
                .field("cells", p.reuse_cells as u64)
                .field("warm_cycles", p.reuse_warm_cycles)
                .field("off_wall_ms", reuse_off * 1e3)
                .field("on_wall_ms", reuse_on * 1e3)
                .field("speedup", reuse_speedup)
                .field("bit_identical", reuse_identical)
                .build(),
        )
        .field(
            "sampled",
            JsonObject::new()
                .field("iterations", p.sampled_iterations)
                .field("rounds", p.sampled_rounds as u64)
                .field("detailed_wall_ms", plan_detailed_wall * 1e3)
                .field("sampled_wall_ms", plan_sampled_wall * 1e3)
                .field("speedup", sampled_speedup)
                .field("detailed_total_ipc", plan_detailed_ipc)
                .field("sampled_total_ipc", plan_sampled_ipc)
                .field("rel_err", sampled_rel_err)
                .build(),
        )
        .field(
            "idle_skip",
            JsonObject::new()
                .field("workload", "ldint_mem/ldint_l2 (6,1)")
                .field("cycles", p.idle_skip_cycles)
                .field("rounds", p.idle_skip_rounds as u64)
                .field("off_wall_ms", skip_off_wall * 1e3)
                .field("on_wall_ms", skip_on_wall * 1e3)
                .field("speedup", idle_skip_speedup)
                .field("bit_identical", skip_identical)
                .build(),
        )
        .build();
    if let Err(e) = std::fs::write(out, doc.to_string()) {
        eprintln!("cannot write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");

    if check {
        let mut failed = false;
        if !(counters_ok && sampling_ok) {
            eprintln!(
                "OVERHEAD GATE FAILED: counters {counters_pct:+.1}% (limit {MAX_COUNTERS_OVERHEAD_PCT}%), \
                 sampling {sampling_pct:+.1}% (limit {MAX_SAMPLING_OVERHEAD_PCT}%)"
            );
            failed = true;
        }
        if !warmup_ok {
            eprintln!(
                "WARMUP GATE FAILED: functional warmup only {warmup_speedup:.2}x faster than \
                 detailed (minimum {MIN_WARMUP_SPEEDUP}x)"
            );
            failed = true;
        }
        if !reuse_ok {
            eprintln!(
                "WARM-REUSE GATE FAILED: speedup {reuse_speedup:.2}x (minimum \
                 {MIN_REUSE_SPEEDUP}x), bit-identical: {reuse_identical}"
            );
            failed = true;
        }
        if !journal_ok {
            eprintln!(
                "JOURNAL GATE FAILED: write-ahead journaling costs {journal_pct:+.1}% \
                 over the plain leg (limit {MAX_JOURNAL_OVERHEAD_PCT}%)"
            );
            failed = true;
        }
        if !sampled_ok {
            eprintln!(
                "SAMPLED GATE FAILED: the sampled plan is only {sampled_speedup:.2}x faster \
                 than detailed on the long-repetition cell (minimum {MIN_SAMPLED_SPEEDUP}x)"
            );
            failed = true;
        }
        if !idle_skip_ok {
            eprintln!(
                "IDLE-SKIP GATE FAILED: speedup {idle_skip_speedup:.2}x (minimum \
                 {MIN_IDLE_SKIP_SPEEDUP}x), bit-identical: {skip_identical}"
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }
}
