//! The repository benchmark. Run it through `perfbench/run.py`, which
//! builds it first:
//!
//! ```text
//! python3 perfbench/run.py --workload sweep_detailed --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` times the workload and prints the end-to-end metrics;
//! `--trace 1` runs the separate traced run and prints the per-layer
//! metrics. Either way every output is checked, and the last line of
//! stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `perfbench reference quick|tiny` regenerates the reference
//! digest tables. Workloads and metrics are described in
//! `perfbench/NOTES.md`.

mod cells;
mod report;
mod serve;
mod stats;
mod sweep;
mod trace;
mod traced;

use p5_pmu::json::JsonValue;
use report::Report;
use serve::Mix;
use std::path::{Path, PathBuf};

/// Campaign workers of the offline sweep (one per host CPU).
pub const JOBS: usize = 2;
/// Worker pool of the serve daemon.
pub const POOL: usize = 2;

/// A file of the benchmark's own directory (runs start at the root of
/// the checkout).
pub fn bench_file(name: &str) -> PathBuf {
    Path::new("perfbench").join(name)
}

fn scratch_root() -> PathBuf {
    Path::new(".bench_tmp").join(std::process::id().to_string())
}

/// A fresh, empty scratch directory inside the checkout, removed when
/// the run ends.
pub fn scratch_dir(tag: &str) -> Result<PathBuf, String> {
    let dir = scratch_root().join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("scratch dir {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Run digests recorded for known seeds (`perfbench/expected.json`).
pub struct Expected(JsonValue);

impl Expected {
    fn load() -> Result<Expected, String> {
        let path = bench_file("expected.json");
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        JsonValue::parse(&text)
            .map(Expected)
            .ok_or_else(|| format!("{} is not valid JSON", path.display()))
    }

    /// Prints the run digest and, when one is recorded for this
    /// workload and seed, checks it.
    pub fn check(&self, report: &mut Report, workload: &str, seed: u64, digest: u64) {
        let hex = format!("{digest:016x}");
        let recorded = self
            .0
            .get("digests")
            .and_then(|d| d.get(workload))
            .and_then(|w| w.get(&seed.to_string()))
            .and_then(JsonValue::as_str);
        match recorded {
            Some(want) => {
                report.check(want == hex, format!("digest {hex} differs from the recorded {want}"));
                report.note(format!("digest {hex} (recorded for seed {seed})"));
            }
            None => report.note(format!("digest {hex} (no digest recorded for seed {seed}; cells checked against the reference table)")),
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds expects a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed expects an unsigned integer")?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got {other:?}")),
        },
    })
}

fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let expected = Expected::load()?;
    let mix = match args.workload.as_str() {
        "sweep_detailed" => None,
        "serve_warm" => Some(Mix::Warm),
        "serve_mixed" => Some(Mix::Mixed),
        other => return Err(format!("unknown workload {other:?}")),
    };
    report.note(format!(
        "workload {} seed {} ({}; {} workers, host parallelism {})",
        args.workload,
        args.seed,
        if args.trace {
            "traced run"
        } else {
            "timed run"
        },
        JOBS,
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
    ));
    match (mix, args.trace) {
        (None, false) => sweep::timed(args.seed, args.seconds, &expected, report),
        (Some(mix), false) => serve::timed(mix, args.seed, args.seconds, &expected, report),
        (None, true) => traced::run(&sweep::trace_inputs(args.seed)?, report),
        (Some(mix), true) => traced::run(&serve::trace_inputs(mix, args.seed)?, report),
    }
}

fn reference(which: &str) -> Result<(), String> {
    let (ctx, universe, file) = match which {
        "quick" => (
            p5_experiments::Experiments::quick(),
            cells::sweep_universe(),
            "reference_quick.tsv",
        ),
        "tiny" => (
            p5_serve::protocol::Fidelity::Tiny.context(),
            cells::tiny_universe(),
            "reference_tiny.tsv",
        ),
        other => return Err(format!("unknown reference {other:?} (quick or tiny)")),
    };
    cells::write_reference(&ctx, &universe, &bench_file(file))?;
    println!(
        "wrote {} digests to {}",
        universe.len(),
        bench_file(file).display()
    );
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("reference") {
        if let Err(e) = reference(args.get(1).map_or("", String::as_str)) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
        return;
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload W --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut report = Report::new();
    let outcome = run(&parsed, &mut report);
    let _ = std::fs::remove_dir_all(scratch_root());
    // Only succeeds once no other run is using the scratch area.
    let _ = std::fs::remove_dir(".bench_tmp");
    match outcome {
        Ok(()) => report.finish(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
