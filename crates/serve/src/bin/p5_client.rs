//! `p5_client` — submit campaigns to a running `p5_serve` daemon.
//!
//! Fetched campaigns are reassembled client-side into the exact
//! aggregation an offline run produces; with `--grid table3` and
//! `--csv-dir`/`--json-dir` the exported artifacts are byte-identical
//! to `repro --only table3` under the matching fidelity flag. Any
//! argument `--help` does not list, and a flag missing its value, is a
//! usage error before anything connects.

use p5_experiments::{export, table3};
use p5_serve::client::{self, Endpoint};
use p5_serve::protocol::{CampaignRequest, CellRequest, Fidelity};
use std::path::PathBuf;

const HELP: &str = "\
p5_client — submit campaigns to a p5_serve daemon

USAGE:
    p5_client (--unix PATH | --tcp ADDR) [OPTIONS]

OPTIONS:
    --unix PATH         daemon's unix-domain socket
    --tcp ADDR          daemon's TCP address, e.g. 127.0.0.1:7055
    --grid NAME         campaign grid shorthand (currently: table3)
    --cell SPEC         one explicit cell; repeatable. SPEC is
                        PRIMARY[,SECONDARY[,P,S]] with paper benchmark
                        names and priority levels 0-7, e.g.
                        cpu_int,ldint_l2,6,2 (default priorities 4,4)
    --fidelity NAME     paper | quick | tiny (default: quick)
    --seed N            campaign seed (default: the fidelity's seed,
                        matching offline repro)
    --plan SPEC         execution plan, a speed and any flags (sampled
                        and detailed results occupy disjoint cache
                        entries):
{plan}
    --no-cache          force every cell to simulate server-side
    --csv-dir DIR       with --grid table3: write table3.csv into DIR
    --json-dir DIR      with --grid table3: write table3.json into DIR
    --wait-ready MS     poll until the daemon answers, up to MS ms
    --stats             print cache statistics and exit
    --shutdown          ask the daemon to exit
    -h, --help          print this help and exit

EXIT CODES:
    0    campaign completed with no degraded cells
    1    usage, connection, or protocol error
    2    campaign completed, but some cells degraded
";

/// The flags `--help` lists that stand alone, in its order.
const SWITCHES: [&str; 5] = ["--no-cache", "--stats", "--shutdown", "-h", "--help"];

/// The flags `--help` lists that take the next argument as their value,
/// in its order.
const VALUE_FLAGS: [&str; 10] = [
    "--unix",
    "--tcp",
    "--grid",
    "--cell",
    "--fidelity",
    "--seed",
    "--plan",
    "--csv-dir",
    "--json-dir",
    "--wait-ready",
];

fn value_of(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_cell(spec: &str) -> Result<CellRequest, String> {
    let parts: Vec<&str> = spec.split(',').collect();
    let priorities = match parts.len() {
        1 | 2 => (4, 4),
        4 => {
            let level = |s: &str| {
                s.parse::<u8>()
                    .map_err(|_| format!("bad priority level {s:?} in {spec:?}"))
            };
            (level(parts[2])?, level(parts[3])?)
        }
        _ => {
            return Err(format!(
                "bad cell spec {spec:?} (expected PRIMARY[,SECONDARY[,P,S]])"
            ))
        }
    };
    Ok(CellRequest {
        primary: parts[0].to_string(),
        secondary: parts.get(1).map(ToString::to_string),
        priorities,
    })
}

fn write_artifact(dir: Option<&PathBuf>, name: &str, contents: &str) {
    let Some(dir) = dir else { return };
    let path = dir.join(name);
    if let Err(e) = std::fs::write(&path, contents) {
        eprintln!("could not write {}: {e}", path.display());
        std::process::exit(1);
    }
    println!("   wrote {}", path.display());
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", p5_experiments::with_plan_grammar(HELP, 24));
        return;
    }
    if let Err(e) = p5_experiments::check_args(&args, &SWITCHES, &VALUE_FLAGS) {
        eprintln!("{e} (see --help)");
        std::process::exit(1);
    }
    let endpoint = match (
        value_of(&args, "--unix").map(PathBuf::from),
        value_of(&args, "--tcp"),
    ) {
        (Some(path), None) => Endpoint::Unix(path),
        (None, Some(addr)) => Endpoint::Tcp(addr),
        _ => {
            eprintln!("exactly one of --unix PATH or --tcp ADDR is required");
            std::process::exit(1);
        }
    };

    if let Some(ms) = value_of(&args, "--wait-ready") {
        let Ok(ms) = ms.parse::<u64>() else {
            eprintln!("--wait-ready expects milliseconds, got {ms:?}");
            std::process::exit(1);
        };
        if let Err(e) = client::wait_ready(&endpoint, std::time::Duration::from_millis(ms)) {
            eprintln!("daemon not ready after {ms} ms: {e}");
            std::process::exit(1);
        }
    }

    if args.iter().any(|a| a == "--stats") {
        match client::stats(&endpoint) {
            Ok(stats) => {
                println!(
                    "cache: {} hits, {} misses, {} entries, {} evicted, hit rate {:.1}%",
                    stats.hits,
                    stats.misses,
                    stats.entries,
                    stats.evictions,
                    stats.hit_rate() * 100.0
                );
            }
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
        return;
    }
    if args.iter().any(|a| a == "--shutdown") {
        if let Err(e) = client::shutdown(&endpoint) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        println!("daemon shutting down");
        return;
    }

    let fidelity = match value_of(&args, "--fidelity") {
        None => Fidelity::Quick,
        Some(name) => match Fidelity::from_name(&name) {
            Some(f) => f,
            None => {
                eprintln!("unknown fidelity {name:?} (expected paper, quick, or tiny)");
                std::process::exit(1);
            }
        },
    };
    let grid = value_of(&args, "--grid");
    let mut cells = Vec::new();
    for spec in args.windows(2).filter(|w| w[0] == "--cell").map(|w| &w[1]) {
        match parse_cell(spec) {
            Ok(cell) => cells.push(cell),
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        }
    }
    if grid.is_none() && cells.is_empty() {
        eprintln!("nothing to do: pass --grid table3, --cell SPEC, --stats, or --shutdown");
        std::process::exit(1);
    }
    let seed = value_of(&args, "--seed").map(|n| match n.parse() {
        Ok(seed) => seed,
        Err(_) => {
            eprintln!("--seed expects a non-negative integer, got {n:?}");
            std::process::exit(1);
        }
    });
    let plan = match value_of(&args, "--plan") {
        Some(spec) => match p5_core::ExecutionPlan::parse(&spec) {
            Ok(plan) => plan,
            Err(e) => {
                eprintln!("--plan: {e}");
                std::process::exit(1);
            }
        },
        None => p5_core::ExecutionPlan::detailed(),
    };
    let request = CampaignRequest {
        fidelity,
        grid: grid.clone(),
        cells,
        seed,
        plan,
        cache: !args.iter().any(|a| a == "--no-cache"),
    };

    let served = match client::run_campaign(&endpoint, &request) {
        Ok(served) => served,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let counts = served.result.counts();
    println!("{} ({} from server cache)", counts.render(), served.cached);
    for note in &served.result.degraded {
        println!("DEGRADED {note}");
    }

    let csv_dir = value_of(&args, "--csv-dir").map(PathBuf::from);
    let json_dir = value_of(&args, "--json-dir").map(PathBuf::from);
    if grid.as_deref() == Some("table3") && (csv_dir.is_some() || json_dir.is_some()) {
        match table3::from_campaign(&served.result) {
            Ok(r) => {
                write_artifact(csv_dir.as_ref(), "table3.csv", &export::table3_csv(&r));
                write_artifact(json_dir.as_ref(), "table3.json", &export::table3_json(&r));
            }
            Err(e) => {
                eprintln!("table3 projection failed: {e}");
                std::process::exit(2);
            }
        }
    }
    if !served.result.degraded.is_empty() {
        std::process::exit(2);
    }
}
