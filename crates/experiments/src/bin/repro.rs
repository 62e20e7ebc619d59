//! Full reproduction run: regenerates every table and figure of the paper
//! and checks the headline claims.
//!
//! ```text
//! cargo run --release -p p5-experiments --bin repro            # full fidelity
//! cargo run --release -p p5-experiments --bin repro -- --quick # smoke run
//! cargo run --release -p p5-experiments --bin repro -- --only table3,fig5
//! cargo run --release -p p5-experiments --bin repro -- --csv-dir results/
//! cargo run --release -p p5-experiments --bin repro -- --json-dir results/
//! cargo run --release -p p5-experiments --bin repro -- --pmu   # CPI stacks
//! cargo run --release -p p5-experiments --bin repro -- --pmu --trace out.json
//! cargo run --release -p p5-experiments --bin repro -- --jobs 4
//! cargo run --release -p p5-experiments --bin repro -- --plan detailed+ff
//! cargo run --release -p p5-experiments --bin repro -- --plan sampled:10000,40000
//! ```
//!
//! `--jobs N` fans the campaign cells out over N worker threads
//! (default: available parallelism). Artifacts are byte-identical for
//! every N — see the campaign module's determinism argument.
//!
//! `--plan SPEC` selects the execution plan (DESIGN.md §15 "Three-speed
//! engine"): `detailed` (the default — bit-identical with earlier
//! revisions), `detailed+ff` (functional fast-forward warmup,
//! statistically equivalent), or `sampled[:interval,period]` (interval
//! sampling: short detailed measurement bursts alternating with
//! functional fast-forward, every IPC reported as a mean with a 95%
//! confidence interval). `--help` prints the whole grammar. Any
//! argument `--help` does not list, and a flag missing its value, is a
//! usage error.
//!
//! `--pmu` adds the per-cell CPI-stack section; `--trace <path>`
//! additionally captures the priority-switch transient and writes it as
//! Chrome trace-event JSON (open in `chrome://tracing` or Perfetto).
//!
//! `--journal DIR` journals every finished campaign cell write-ahead to
//! `DIR/journal.jsonl`; `--resume` replays journaled cells
//! bit-identically instead of re-simulating them, so an interrupted run
//! costs only the cells that never finished (DESIGN.md §13 "Durability
//! & crash recovery"). `--time-budget-ms N` bounds the whole run in
//! wall-clock time (remaining cells are skipped, the report stays
//! valid, exit code 3); `--cell-deadline-ms N` bounds each cell (an
//! overrunning cell degrades, the run continues). The chaos flags
//! (`--chaos-abort-after I`, `--chaos-panic I`) rehearse host failures
//! at campaign cell `I` and exist for the crash-safety CI gate.
//!
//! The run is resilient: an experiment whose cells degrade reports them
//! inline (`DEGRADED ...` lines); an experiment that fails outright is
//! skipped with its error and the run continues, finishing with a
//! partial-results summary instead of dying mid-way. The exit code
//! distinguishes the outcomes (see `--help`): 0 clean, 1 usage or I/O
//! error, 2 completed with degraded cells or failed sections, 3
//! campaign aborted early (time budget or abort).

use p5_experiments::{
    ablations, claims, export, fig2, fig3, fig4, fig5, fig6, mpi, noise, pmu, sweep, table1,
    table2, table3, table4, Experiments,
};
use std::collections::HashSet;
use std::path::PathBuf;
use std::time::Instant;

fn write_csv(dir: Option<&PathBuf>, name: &str, contents: &str) {
    let Some(dir) = dir else { return };
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("could not write {}: {e}", path.display());
    } else {
        println!("   wrote {}", path.display());
    }
}

fn write_json(dir: Option<&PathBuf>, name: &str, contents: &str) {
    write_csv(dir, name, contents);
}

/// Per-section failures collected over the run.
#[derive(Default)]
struct Failures(Vec<String>);

impl Failures {
    fn record(&mut self, section: &str, error: &dyn std::fmt::Display) {
        eprintln!("!! {section} failed: {error} — continuing with a partial report\n");
        self.0.push(format!("{section}: {error}"));
    }
}

const HELP: &str = "\
repro — regenerate the paper's tables and figures

USAGE:
    repro [OPTIONS]

OPTIONS:
    --quick                 reduced-fidelity smoke run
    --only LIST             comma-separated sections (table1,table2,table3,
                            fig2,fig3,fig4,fig5,fig6,table4,mpi,noise,
                            ablations,pmu,claims)
    --csv-dir DIR           export CSV artifacts into DIR
    --json-dir DIR          export JSON artifacts into DIR
    --jobs N                campaign worker threads (default: all cores);
                            artifacts are byte-identical for every N
    --plan SPEC             execution plan (DESIGN.md §15), a speed
                            and any flags, e.g. detailed+ff:
{plan}
    --pmu                   add the per-cell CPI-stack section
    --trace PATH            write the priority-switch Chrome trace to PATH
    --journal DIR           journal finished cells to DIR/journal.jsonl
                            (write-ahead; DESIGN.md §13)
    --resume                with --journal: replay journaled cells
                            bit-identically instead of re-simulating them
    --time-budget-ms N      wall-clock budget for the whole run; on expiry,
                            remaining cells are skipped and the exit code is 3
    --cell-deadline-ms N    wall-clock deadline per campaign cell; an
                            overrunning cell is marked degraded
    --chaos-abort-after I   (testing) abort the campaign at cell index I
    --chaos-panic I         (testing) panic the worker at cell index I
    -h, --help              print this help and exit

EXIT CODES:
    0    every requested section completed with no degraded cells
    1    usage or I/O error
    2    run completed, but some cells degraded or sections failed
         (the report is partial but valid)
    3    campaign aborted early: the time budget expired or an abort
         fired; unfinished cells were skipped (with --journal, a
         --resume run picks up exactly where this one stopped)
";

/// `HELP` with the plan grammar under `--plan SPEC`.
fn help() -> String {
    p5_experiments::with_plan_grammar(HELP, 28)
}

/// Every section `--only` accepts, in the order `--help` lists them.
const SECTIONS: [&str; 14] = [
    "table1",
    "table2",
    "table3",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "table4",
    "mpi",
    "noise",
    "ablations",
    "pmu",
    "claims",
];

/// The flags `--help` lists that stand alone, in its order.
const SWITCHES: [&str; 5] = ["--quick", "--pmu", "--resume", "-h", "--help"];

/// The flags `--help` lists that take the next argument as their value,
/// in its order.
const VALUE_FLAGS: [&str; 11] = [
    "--only",
    "--csv-dir",
    "--json-dir",
    "--jobs",
    "--plan",
    "--trace",
    "--journal",
    "--time-budget-ms",
    "--cell-deadline-ms",
    "--chaos-abort-after",
    "--chaos-panic",
];

/// Parses the `--only` list, exiting with a usage error on a missing
/// list or a section `--help` does not name (which would otherwise
/// match nothing and run nothing).
fn only_sections(args: &[String]) -> Option<HashSet<String>> {
    let i = args.iter().position(|a| a == "--only")?;
    let Some(list) = args.get(i + 1) else {
        eprintln!("--only expects a comma-separated list of sections");
        std::process::exit(1);
    };
    let mut set = HashSet::new();
    for name in list.split(',') {
        if !SECTIONS.contains(&name) {
            eprintln!(
                "--only: unknown section {name:?} (sections: {})",
                SECTIONS.join(",")
            );
            std::process::exit(1);
        }
        set.insert(name.to_string());
    }
    Some(set)
}

fn parsed_flag(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|n| match n.parse() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("{flag} expects a non-negative integer, got {n:?}");
                std::process::exit(1);
            }
        })
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", help());
        return;
    }
    if let Err(e) = p5_experiments::check_args(&args, &SWITCHES, &VALUE_FLAGS) {
        eprintln!("{e} (see --help)");
        std::process::exit(1);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let only = only_sections(&args);
    let csv_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--csv-dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let json_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--json-dir")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let pmu_flag = args.iter().any(|a| a == "--pmu");
    let plan = match args
        .iter()
        .position(|a| a == "--plan")
        .and_then(|i| args.get(i + 1))
    {
        Some(spec) => match p5_core::ExecutionPlan::parse(spec) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("--plan: {e} (see --help)");
                std::process::exit(1);
            }
        },
        None => p5_core::ExecutionPlan::detailed(),
    };
    let jobs: usize = match args
        .iter()
        .position(|a| a == "--jobs")
        .and_then(|i| args.get(i + 1))
    {
        Some(n) => match n.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--jobs expects a positive integer, got {n:?}");
                std::process::exit(1);
            }
        },
        None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    let trace_path: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--trace")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let journal_dir: Option<PathBuf> = args
        .iter()
        .position(|a| a == "--journal")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from);
    let resume = args.iter().any(|a| a == "--resume");
    if resume && journal_dir.is_none() {
        eprintln!("--resume requires --journal DIR");
        std::process::exit(1);
    }
    let time_budget_ms = parsed_flag(&args, "--time-budget-ms");
    let cell_deadline_ms = parsed_flag(&args, "--cell-deadline-ms");
    let chaos_abort_after = parsed_flag(&args, "--chaos-abort-after");
    let chaos_panic = parsed_flag(&args, "--chaos-panic");
    for dir in [&csv_dir, &json_dir].into_iter().flatten() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
    }
    let wants = |name: &str| only.as_ref().is_none_or(|set| set.contains(name));

    let mut ctx = if quick {
        Experiments::quick()
    } else {
        Experiments::paper()
    }
    .with_jobs(jobs)
    // Three-speed engine: the plan picks the warmup engine, the measure
    // schedule (detailed vs. interval sampling) and the idle skip. The
    // default detailed plan keeps artifacts bit-identical with earlier
    // revisions. See DESIGN.md §15.
    .with_plan(plan);
    if let Some(dir) = &journal_dir {
        let journal = if resume {
            match p5_experiments::journal::ResultJournal::resume(dir) {
                Ok((journal, stats)) => {
                    println!(
                        "journal: resumed {} with {} record(s){}{}",
                        journal.path().display(),
                        stats.entries,
                        if stats.stale > 0 {
                            format!(", {} stale (schema mismatch, ignored)", stats.stale)
                        } else {
                            String::new()
                        },
                        if stats.corrupt > 0 {
                            format!(", {} corrupt line(s) skipped", stats.corrupt)
                        } else {
                            String::new()
                        },
                    );
                    journal
                }
                Err(e) => {
                    eprintln!("cannot resume journal in {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        } else {
            match p5_experiments::journal::ResultJournal::create(dir) {
                Ok(journal) => journal,
                Err(e) => {
                    eprintln!("cannot create journal in {}: {e}", dir.display());
                    std::process::exit(1);
                }
            }
        };
        ctx = ctx.with_journal(std::sync::Arc::new(journal));
    }
    // The cancellation token exists only when something can fire it
    // (a time budget or a chaos abort): tokenless runs stay strictly
    // wall-clock-independent.
    let cancel = if time_budget_ms.is_some() || chaos_abort_after.is_some() {
        let token = match time_budget_ms {
            Some(ms) => p5_core::CancelToken::with_budget(std::time::Duration::from_millis(ms)),
            None => p5_core::CancelToken::new(),
        };
        ctx = ctx.with_cancel(token.clone());
        Some(token)
    } else {
        None
    };
    if let Some(ms) = cell_deadline_ms {
        ctx = ctx.with_cell_deadline(std::time::Duration::from_millis(ms));
    }
    if chaos_abort_after.is_some() || chaos_panic.is_some() {
        let mut plan = p5_fault::ChaosPlan::new();
        if let Some(i) = chaos_abort_after {
            plan = plan.abort_at(usize::try_from(i).unwrap_or(usize::MAX));
        }
        if let Some(i) = chaos_panic {
            plan = plan.panic_cell(usize::try_from(i).unwrap_or(usize::MAX));
        }
        ctx = ctx.with_chaos(plan);
    }
    println!(
        "== POWER5 software-controlled priority reproduction ({} fidelity, {} job{}, plan {}) ==\n",
        if quick { "quick" } else { "paper" },
        ctx.jobs,
        if ctx.jobs == 1 { "" } else { "s" },
        plan
    );

    let t0 = Instant::now();
    let mut failures = Failures::default();
    let mut degraded_total = 0usize;
    // Per-status roll-up across every campaign of the run, for the
    // end-of-run summary (crashed/skipped/replayed cells used to be
    // visible only via the exit code and journal inspection).
    let mut counts = p5_experiments::CellCounts::default();

    if wants("table1") {
        section("Table 1", || table1::run().render());
    }
    if wants("table2") {
        section("Table 2", || table2::run().render());
    }
    if wants("table3") {
        let t = Instant::now();
        match table3::run(&ctx) {
            Ok(r) => {
                println!("{}   (Table 3 took {:.1?})\n", r.render(), t.elapsed());
                degraded_total += r.degraded.len();
                counts += r.counts;
                write_csv(csv_dir.as_ref(), "table3.csv", &export::table3_csv(&r));
                write_json(json_dir.as_ref(), "table3.json", &export::table3_json(&r));
            }
            Err(e) => failures.record("Table 3", &e),
        }
    }

    // Figures 2-4 and the claims share one sweep.
    let needs_sweep = wants("fig2") || wants("fig3") || wants("fig4") || wants("claims");
    let mut fig2_result = None;
    let mut fig3_result = None;
    let mut fig4_result = None;
    if needs_sweep {
        let t = Instant::now();
        println!("-- priority sweep (-5..=+5 over all 36 pairs) --");
        match sweep::run(&ctx, &[-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5]) {
            Ok(sweep) => {
                println!("   ({:.1?})", t.elapsed());
                degraded_total += sweep.degraded.len();
                counts += sweep.counts;
                if sweep.recovered > 0 {
                    println!(
                        "   {} cell(s) recovered via escalated budget",
                        sweep.recovered
                    );
                }
                for note in &sweep.degraded {
                    println!("   DEGRADED {note}");
                }
                println!();
                if wants("fig2") {
                    let r = fig2::Fig2Result::from_sweep(&sweep);
                    println!("{}", r.render());
                    write_csv(csv_dir.as_ref(), "fig2.csv", &export::fig2_csv(&r));
                    write_json(json_dir.as_ref(), "fig2.json", &export::fig2_json(&r));
                    fig2_result = Some(r);
                } else if wants("claims") {
                    fig2_result = Some(fig2::Fig2Result::from_sweep(&sweep));
                }
                if wants("fig3") {
                    let r = fig3::Fig3Result::from_sweep(&sweep);
                    println!("{}", r.render());
                    write_csv(csv_dir.as_ref(), "fig3.csv", &export::fig3_csv(&r));
                    write_json(json_dir.as_ref(), "fig3.json", &export::fig3_json(&r));
                    fig3_result = Some(r);
                } else if wants("claims") {
                    fig3_result = Some(fig3::Fig3Result::from_sweep(&sweep));
                }
                if wants("fig4") {
                    let r = fig4::Fig4Result::from_sweep(&sweep);
                    println!("{}", r.render());
                    write_csv(csv_dir.as_ref(), "fig4.csv", &export::fig4_csv(&r));
                    write_json(json_dir.as_ref(), "fig4.json", &export::fig4_json(&r));
                    fig4_result = Some(r);
                } else if wants("claims") {
                    fig4_result = Some(fig4::Fig4Result::from_sweep(&sweep));
                }
            }
            Err(e) => failures.record("priority sweep (figs 2-4)", &e),
        }
    }

    let mut fig5_result = None;
    if wants("fig5") || wants("claims") {
        let t = Instant::now();
        match fig5::run(&ctx) {
            Ok(r) => {
                degraded_total += r.h264_mcf.degraded.len() + r.applu_equake.degraded.len();
                counts += r.counts;
                if wants("fig5") {
                    println!("{}   ({:.1?})\n", r.render(), t.elapsed());
                    write_csv(csv_dir.as_ref(), "fig5.csv", &export::fig5_csv(&r));
                    write_json(json_dir.as_ref(), "fig5.json", &export::fig5_json(&r));
                }
                fig5_result = Some(r);
            }
            Err(e) => failures.record("Figure 5", &e),
        }
    }

    let mut table4_result = None;
    if wants("table4") || wants("claims") {
        let t = Instant::now();
        match table4::run(&ctx) {
            Ok(r) => {
                degraded_total += r.degraded.len();
                counts += r.counts;
                if wants("table4") {
                    println!("{}   ({:.1?})\n", r.render(), t.elapsed());
                    write_csv(csv_dir.as_ref(), "table4.csv", &export::table4_csv(&r));
                    write_json(json_dir.as_ref(), "table4.json", &export::table4_json(&r));
                }
                table4_result = Some(r);
            }
            Err(e) => failures.record("Table 4", &e),
        }
    }

    let mut fig6_result = None;
    if wants("fig6") || wants("claims") {
        let t = Instant::now();
        match fig6::run(&ctx) {
            Ok(r) => {
                degraded_total += r.degraded.len();
                counts += r.counts;
                if wants("fig6") {
                    println!("{}   ({:.1?})\n", r.render(), t.elapsed());
                    write_csv(csv_dir.as_ref(), "fig6.csv", &export::fig6_csv(&r));
                    write_json(json_dir.as_ref(), "fig6.json", &export::fig6_json(&r));
                }
                fig6_result = Some(r);
            }
            Err(e) => failures.record("Figure 6", &e),
        }
    }

    if wants("mpi") {
        let t = Instant::now();
        match mpi::run(&ctx) {
            Ok(r) => {
                println!(
                    "{}   (MPI re-balancing took {:.1?})\n",
                    r.render(),
                    t.elapsed()
                );
                degraded_total += r.degraded.len();
                counts += r.counts;
            }
            Err(e) => failures.record("MPI re-balancing", &e),
        }
    }

    if wants("noise") {
        section("Measurement isolation", || noise::run(&ctx).render());
    }

    if wants("ablations") {
        let t = Instant::now();
        let r = ablations::run(&ctx);
        println!("{}   (ablations took {:.1?})\n", r.render(), t.elapsed());
        degraded_total += r.degraded.len();
        counts += r.counts;
    }

    // The PMU section is opt-in: `--pmu`, or an explicit `--only` list
    // that names it.
    let run_pmu = pmu_flag || only.as_ref().is_some_and(|set| set.contains("pmu"));
    if run_pmu {
        let t = Instant::now();
        match pmu::run(&ctx) {
            Ok(r) => {
                println!(
                    "{}   (PMU CPI stacks took {:.1?})\n",
                    r.render(),
                    t.elapsed()
                );
                write_json(json_dir.as_ref(), "pmu.json", &pmu::pmu_json(&r));
            }
            Err(e) => failures.record("PMU CPI stacks", &e),
        }
    }
    if let Some(path) = &trace_path {
        let t = Instant::now();
        match pmu::priority_switch_trace(&ctx) {
            Ok(capture) => {
                println!(
                    "-- priority-switch trace: {} cycles, {} samples, {} events ({:.1?}) --",
                    capture.cycles,
                    capture.samples,
                    capture.events,
                    t.elapsed()
                );
                if let Err(e) = std::fs::write(path, &capture.json) {
                    failures.record("priority-switch trace", &e);
                } else {
                    println!(
                        "   wrote {} (load in chrome://tracing or Perfetto)\n",
                        path.display()
                    );
                }
            }
            Err(e) => failures.record("priority-switch trace", &e),
        }
    }

    if wants("claims") {
        if let (Some(f2), Some(f3), Some(f4), Some(f5), Some(f6), Some(t4)) = (
            fig2_result.as_ref(),
            fig3_result.as_ref(),
            fig4_result.as_ref(),
            fig5_result.as_ref(),
            fig6_result.as_ref(),
            table4_result.as_ref(),
        ) {
            println!("{}", claims::evaluate(f2, f3, f4, f5, f6, t4).render());
        } else if !failures.0.is_empty() {
            println!("claims: skipped — missing inputs from the failed section(s) above\n");
        }
    }

    println!("total: {:.1?}", t0.elapsed());
    if counts.total > 0 {
        println!("{}", counts.render());
    }
    let aborted = cancel.as_ref().is_some_and(p5_core::CancelToken::expired);
    if !failures.0.is_empty() {
        println!("PARTIAL REPORT — {} section(s) failed:", failures.0.len());
        for f in &failures.0 {
            println!("  - {f}");
        }
    }
    // Exit-code contract (documented in --help, asserted by
    // crates/experiments/tests/cli.rs). Abort wins over degradation:
    // an aborted run is *expected* to carry skipped cells.
    if aborted {
        println!("campaign aborted early — resume with --journal DIR --resume");
        std::process::exit(3);
    }
    if degraded_total > 0 || !failures.0.is_empty() {
        println!(
            "completed with {} degraded cell(s) and {} failed section(s)",
            degraded_total,
            failures.0.len()
        );
        std::process::exit(2);
    }
    println!("all requested sections completed");
}

fn section(name: &str, run: impl FnOnce() -> String) {
    let t = Instant::now();
    let body = run();
    println!("{body}   ({name} took {:.1?})\n", t.elapsed());
}

#[cfg(test)]
mod tests {
    use super::{help, SECTIONS, SWITCHES, VALUE_FLAGS};

    #[test]
    fn accepts_exactly_the_flags_help_lists() {
        let help = help();
        let options = help
            .split_once("OPTIONS:")
            .and_then(|(_, rest)| rest.split_once("EXIT CODES:"))
            .expect("--help has an OPTIONS section")
            .0;
        let (mut switches, mut value_flags) = (Vec::new(), Vec::new());
        for line in options.lines().map(str::trim_start) {
            if !line.starts_with('-') {
                continue;
            }
            // The flag column, e.g. `--only LIST` or `-h, --help`.
            let spec = line.split("  ").next().unwrap_or_default();
            let (flags, takes_value) = match spec.rsplit_once(' ') {
                Some((flags, value)) if value.chars().all(|c| c.is_ascii_uppercase()) => {
                    (flags, true)
                }
                _ => (spec, false),
            };
            let list = if takes_value {
                &mut value_flags
            } else {
                &mut switches
            };
            list.extend(flags.split(", "));
        }
        assert_eq!(switches, SWITCHES);
        assert_eq!(value_flags, VALUE_FLAGS);
    }

    #[test]
    fn only_accepts_exactly_the_sections_help_names() {
        let help = help();
        let listed = help
            .split_once("sections (")
            .and_then(|(_, rest)| rest.split_once(')'))
            .expect("--help lists the sections in parentheses")
            .0;
        let listed: Vec<&str> = listed.split(',').map(str::trim).collect();
        assert_eq!(listed, SECTIONS);
    }
}
