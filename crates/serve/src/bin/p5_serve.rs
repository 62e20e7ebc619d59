//! `p5_serve` — the campaign daemon.
//!
//! Binds a unix or TCP socket, serves campaign requests until a client
//! sends `shutdown`, and keeps a content-addressed result cache across
//! requests (persisted under `--cache-dir`, in-memory otherwise). Any
//! argument `--help` does not list, and a flag missing its value, is a
//! usage error before anything binds.

use p5_serve::cache::ResultCache;
use p5_serve::server::Server;
use std::path::PathBuf;

const HELP: &str = "\
p5_serve — persistent campaign daemon with a content-addressed result cache

USAGE:
    p5_serve (--unix PATH | --tcp ADDR) [OPTIONS]

OPTIONS:
    --unix PATH       listen on a unix-domain socket at PATH
    --tcp ADDR        listen on a TCP address, e.g. 127.0.0.1:7055
                      (port 0 picks an ephemeral port, printed on stdout)
    --jobs N          simulation worker threads (default: all cores)
    --cache-dir DIR   persist the result cache to DIR/journal.jsonl and
                      resume it on restart (default: in-memory)
    --cache-max-entries N
                      bound the in-memory cache index to N records,
                      evicting oldest-first; 0 means unbounded (the
                      default). Eviction never touches the journal file
                      — an evicted cell just re-simulates on its next
                      request
    -h, --help        print this help and exit

The daemon prints one `listening on ...` line once the socket is ready,
then serves until a client sends a shutdown request. Submit campaigns
with the p5_client binary or any line-delimited-JSON speaker.

EXIT CODES:
    0    clean shutdown (a client asked for it)
    1    usage error
    2    socket or cache I/O error
";

/// The flags `--help` lists that stand alone, in its order.
const SWITCHES: [&str; 2] = ["-h", "--help"];

/// The flags `--help` lists that take the next argument as their value,
/// in its order.
const VALUE_FLAGS: [&str; 5] = [
    "--unix",
    "--tcp",
    "--jobs",
    "--cache-dir",
    "--cache-max-entries",
];

fn value_of(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        print!("{HELP}");
        return;
    }
    if let Err(e) = p5_experiments::check_args(&args, &SWITCHES, &VALUE_FLAGS) {
        eprintln!("{e} (see --help)");
        std::process::exit(1);
    }
    let unix = value_of(&args, "--unix").map(PathBuf::from);
    let tcp = value_of(&args, "--tcp");
    if unix.is_some() == tcp.is_some() {
        eprintln!("exactly one of --unix PATH or --tcp ADDR is required");
        std::process::exit(1);
    }
    let jobs: usize = match value_of(&args, "--jobs") {
        Some(n) => match n.parse() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("--jobs expects a positive integer, got {n:?}");
                std::process::exit(1);
            }
        },
        None => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };

    let cache = match value_of(&args, "--cache-dir").map(PathBuf::from) {
        Some(dir) => match ResultCache::persistent(&dir) {
            Ok((cache, stats)) => {
                println!(
                    "cache: {} entries resumed from {}",
                    stats.entries,
                    dir.display()
                );
                cache
            }
            Err(e) => {
                eprintln!("could not open cache dir {}: {e}", dir.display());
                std::process::exit(2);
            }
        },
        None => ResultCache::in_memory(),
    };
    if let Some(n) = value_of(&args, "--cache-max-entries") {
        match n.parse::<usize>() {
            Ok(0) => {}
            Ok(max) => cache.set_max_entries(Some(max)),
            Err(_) => {
                eprintln!("--cache-max-entries expects a non-negative integer, got {n:?}");
                std::process::exit(1);
            }
        }
    }

    let bound = match (&unix, &tcp) {
        (Some(path), None) => Server::bind_unix(path, jobs, cache),
        (None, Some(addr)) => Server::bind_tcp(addr, jobs, cache),
        _ => unreachable!("validated above"),
    };
    let server = match bound {
        Ok(server) => server,
        Err(e) => {
            eprintln!("could not bind: {e}");
            std::process::exit(2);
        }
    };
    match (&unix, server.local_addr()) {
        (Some(path), _) => println!("listening on unix:{} ({jobs} jobs)", path.display()),
        (None, Some(addr)) => println!("listening on tcp:{addr} ({jobs} jobs)"),
        (None, None) => {}
    }
    // Harnesses wait for the `listening` line through a pipe, where
    // stdout is block-buffered — push it out before blocking in accept.
    let _ = std::io::Write::flush(&mut std::io::stdout());
    if let Err(e) = server.serve() {
        eprintln!("server failed: {e}");
        std::process::exit(2);
    }
}
