//! Calibration helper: prints single-thread IPCs and the SMT(4,4) matrix
//! for the six presented micro-benchmarks next to the paper's Table 3.
//!
//! Run with `cargo run --release -p p5-experiments --bin calibrate`.
//! Pass `--pmu` to append a single-thread CPI-stack table: where each
//! benchmark's cycles go, which is the first place to look when a
//! measured IPC drifts from the paper's column.
//!
//! `--plan SPEC` takes `repro`'s plan grammar (DESIGN.md §15) and lands
//! on the calibrated core's configuration. `detailed+ff` warms each
//! cell on the functional fast-forward engine (DESIGN.md §11): faster,
//! statistically equivalent, not bit-identical to the default detailed
//! warmup. Calibration measures fixed windows, so a sampled measure is
//! a usage error, and so is a plan that does not parse: the error
//! prints the grammar.
//!
//! Pass `--journal DIR` to journal every measured scalar (ST IPC and
//! each SMT matrix cell) write-ahead to `DIR/journal.jsonl`, and
//! `--resume` to replay journaled scalars bit-identically instead of
//! re-simulating them — an interrupted calibration costs only the cells
//! that never finished (DESIGN.md §13 "Durability & crash recovery").
//!
//! Any other argument, and a flag missing its value, is a usage error.

use p5_core::{CoreConfig, ExecutionPlan, MeasureMode, RunOutcome, SmtCore, WarmupMode};
use p5_experiments::journal::{CellKey, ResultJournal, StableHasher, JOURNAL_SCHEMA_VERSION};
use p5_isa::ThreadId;
use p5_microbench::MicroBenchmark;
use p5_pmu::{CpiComponent, PmuConfig};
use std::hash::{Hash, Hasher};
use std::sync::OnceLock;

/// The scalar journal, when `--journal DIR` was passed.
fn journal() -> &'static OnceLock<ResultJournal> {
    static JOURNAL: OnceLock<ResultJournal> = OnceLock::new();
    &JOURNAL
}

/// Content-addressed key for one calibration scalar: the schema version,
/// a label naming the measurement (kind, benchmarks, warm cycles, cycle
/// budget), and the calibrated core configuration through its typed
/// `Hash`, which covers the plan's warmup engine. Any change to the
/// measurement invalidates the journaled value; the wall-clock-only
/// `+noskip` is not part of that `Hash`, so it replays from the same
/// records.
fn scalar_key(cfg: &CoreConfig, label: &str) -> CellKey {
    let mut h = StableHasher::new();
    (JOURNAL_SCHEMA_VERSION, label, cfg).hash(&mut h);
    CellKey(h.finish())
}

/// Replays `label` from the journal when possible, otherwise measures it
/// via `f` and journals the result. Errors are never journaled, so a
/// resumed run retries them.
fn journaled(
    cfg: &CoreConfig,
    label: &str,
    f: impl FnOnce() -> Result<(f64, bool), String>,
) -> Result<(f64, bool), String> {
    let Some(journal) = journal().get() else {
        return f();
    };
    let key = scalar_key(cfg, label);
    if let Some((value, converged)) = journal.lookup_scalar(key) {
        return Ok((value, converged));
    }
    let (value, converged) = f()?;
    journal.record_scalar(key, value, converged);
    Ok((value, converged))
}

/// Warms `core` for `cycles` on the engine its plan selects, then
/// resets its statistics so the measurement counts from here.
fn warm(core: &mut SmtCore, cycles: u64) {
    match core.config().plan.warmup {
        WarmupMode::Detailed => core.run_cycles(cycles),
        WarmupMode::Functional => core.functional_warmup(cycles),
    }
    core.reset_stats();
}

/// Runs to the repetition target, surfacing truncation and stalls: a
/// cell that hit the cycle budget is tagged `~` (lower-confidence
/// average) and a wedged cell prints the watchdog's diagnosis instead of
/// a silently bogus number.
fn run_to(core: &mut SmtCore, target: [usize; 2], max_cycles: u64) -> Result<bool, String> {
    match core.try_run_until_repetitions(target, max_cycles) {
        Ok(RunOutcome::Completed) => Ok(true),
        Ok(RunOutcome::MaxCycles) => Ok(false),
        Err(e) => Err(e.to_string()),
    }
}

fn st_ipc(cfg: &CoreConfig, bench: MicroBenchmark) -> Result<(f64, bool), String> {
    journaled(
        cfg,
        &format!("st_ipc/{}/4000000/50000000", bench.name()),
        || {
            let mut core = SmtCore::new(cfg.clone());
            core.load_program(ThreadId::T0, bench.program());
            // Warm caches/TLB/predictor, then measure.
            warm(&mut core, 4_000_000);
            let complete = run_to(&mut core, [10, 0], 50_000_000)?;
            Ok((core.stats().ipc(ThreadId::T0), complete))
        },
    )
}

fn smt_ipc(cfg: &CoreConfig, a: MicroBenchmark, b: MicroBenchmark) -> Result<(f64, bool), String> {
    journaled(
        cfg,
        &format!("smt_ipc/{}/{}/6000000/100000000", a.name(), b.name()),
        || {
            let mut core = SmtCore::new(cfg.clone());
            core.load_program(ThreadId::T0, a.program());
            core.load_program(ThreadId::T1, b.program());
            warm(&mut core, 6_000_000);
            let complete = run_to(&mut core, [10, 10], 100_000_000)?;
            Ok((core.stats().ipc(ThreadId::T0), complete))
        },
    )
}

/// Measures a single-thread CPI stack over a fixed window and returns
/// the per-component cycle fractions, or the stall diagnosis.
fn st_cpi_stack(
    cfg: &CoreConfig,
    bench: MicroBenchmark,
) -> Result<[f64; CpiComponent::COUNT], String> {
    const MEASURE_CYCLES: u64 = 2_000_000;
    let mut core = SmtCore::new(cfg.clone());
    core.load_program(ThreadId::T0, bench.program());
    warm(&mut core, 4_000_000);
    core.enable_pmu(PmuConfig::counters_only());
    core.try_run_cycles(MEASURE_CYCLES)
        .map_err(|e| e.to_string())?;
    let pmu = core.take_pmu().expect("enabled above");
    pmu.reconcile()?;
    let stack = pmu.stack(ThreadId::T0);
    let mut fractions = [0.0; CpiComponent::COUNT];
    for c in CpiComponent::ALL {
        fractions[c.index()] = stack.fraction(c);
    }
    Ok(fractions)
}

fn print_cpi_stacks(cfg: &CoreConfig) {
    println!("\n== Single-thread CPI stacks (% of cycles) ==");
    print!("{:<18}", "");
    for c in CpiComponent::ALL {
        print!("{:>8}", c.short());
    }
    println!();
    for b in MicroBenchmark::PRESENTED {
        match st_cpi_stack(cfg, b) {
            Ok(fractions) => {
                print!("{:<18}", b.name());
                for f in fractions {
                    print!("{:>7.1}%", 100.0 * f);
                }
                println!();
            }
            Err(e) => println!("{:<18} FAILED: {e}", b.name()),
        }
    }
}

/// The flags calibrate accepts that stand alone.
const SWITCHES: [&str; 2] = ["--pmu", "--resume"];

/// The flags calibrate accepts that take the next argument as their
/// value.
const VALUE_FLAGS: [&str; 2] = ["--plan", "--journal"];

/// The argument after `flag`, if `flag` was passed.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
}

/// Exits with a usage error naming `what`.
fn usage_error(what: &str) -> ! {
    eprintln!("{what}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = p5_experiments::check_args(&args, &SWITCHES, &VALUE_FLAGS) {
        usage_error(&format!(
            "{e} (calibrate takes --pmu, --plan SPEC, --journal DIR and --resume)"
        ));
    }
    let pmu_flag = args.iter().any(|a| a == "--pmu");
    let plan = flag_value(&args, "--plan")
        .map_or(Ok(ExecutionPlan::detailed()), |s| ExecutionPlan::parse(s))
        .unwrap_or_else(|e| usage_error(&format!("--plan: {e}\n{}", ExecutionPlan::GRAMMAR)));
    if matches!(plan.measure, MeasureMode::Sampled(_)) {
        usage_error(&format!(
            "--plan {plan}: calibration measures fixed windows, \
             so it takes no sampled measure"
        ));
    }
    // The calibrated core: the POWER5-like defaults routed through the
    // validating builder, the same construction path the experiments
    // use, under the requested plan.
    let cfg = CoreConfig::builder()
        .plan(plan)
        .build()
        .expect("power5_like defaults are valid");
    let journal_dir = flag_value(&args, "--journal");
    let resume = args.iter().any(|a| a == "--resume");
    if resume && journal_dir.is_none() {
        usage_error("--resume requires --journal DIR");
    }
    if let Some(dir) = journal_dir {
        let dir = std::path::Path::new(dir);
        let opened = if resume {
            ResultJournal::resume(dir).map(|(j, stats)| {
                println!(
                    "journal: resumed {} with {} record(s)",
                    j.path().display(),
                    stats.entries
                );
                j
            })
        } else {
            ResultJournal::create(dir)
        };
        match opened {
            Ok(j) => {
                let _ = journal().set(j);
            }
            Err(e) => {
                eprintln!("could not open journal in {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    println!("== Single-thread IPC (paper Table 3 ST column) ==");
    for b in MicroBenchmark::PRESENTED {
        let paper = b
            .paper_st_ipc()
            .map_or_else(|| "  n/a".to_string(), |v| format!("{v:>5.2}"));
        match st_ipc(&cfg, b) {
            Ok((ipc, complete)) => println!(
                "{:<18} measured {:>6.3}{}  paper {paper}",
                b.name(),
                ipc,
                if complete { " " } else { "~" },
            ),
            Err(e) => println!("{:<18} FAILED: {e}", b.name()),
        }
    }

    println!("\n== SMT (4,4) PThread IPC matrix (rows: PThread) ==");
    print!("{:<18}", "");
    for b in MicroBenchmark::PRESENTED {
        print!("{:>10}", &b.name()[..b.name().len().min(9)]);
    }
    println!();
    let mut truncated = 0u32;
    for a in MicroBenchmark::PRESENTED {
        print!("{:<18}", a.name());
        for b in MicroBenchmark::PRESENTED {
            match smt_ipc(&cfg, a, b) {
                Ok((pa, complete)) => {
                    if !complete {
                        truncated += 1;
                    }
                    print!("{pa:>9.3}{}", if complete { " " } else { "~" });
                }
                Err(_) => print!("{:>10}", "stall"),
            }
        }
        println!();
    }
    if truncated > 0 {
        println!("\n~ = hit the cycle budget before 10 repetitions ({truncated} cell(s))");
    }

    if pmu_flag {
        print_cpi_stacks(&cfg);
    }
    if let Some(j) = journal().get() {
        j.flush();
    }
}
