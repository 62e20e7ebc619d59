//! Write your own micro-benchmark in the textual assembly format and
//! characterize it against the paper's workloads — no Rust required.
//!
//! ```text
//! cargo run --release --example custom_workload              # built-in demo
//! cargo run --release --example custom_workload -- my.p5asm  # from a file
//! ```

use p5repro::core::{CoreConfig, SmtCore};
use p5repro::isa::{asm, Priority, ThreadId};
use p5repro::microbench::MicroBenchmark;

/// A hash-join-probe-flavoured kernel: chase into a hash table, a little
/// integer work per probe, and a poorly predicted match branch.
const DEMO: &str = r"
; hash join probe
stream table chase 4MiB
stream output seq 256KiB stride 8
iterations 600

ld   r2, table[r2]    ; bucket walk
add  r3, r2           ; key compare
br   random:300       ; match?
add  r4, r3
st   output, r4       ; emit tuple
add  r5, r5
br   loop
";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (name, source) = match args.first() {
        Some(path) => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            });
            (path.clone(), text)
        }
        None => ("hash_probe".to_string(), DEMO.to_string()),
    };

    let program = asm::parse(&name, &source).unwrap_or_else(|e| {
        eprintln!("parse error in {name}: {e}");
        std::process::exit(1);
    });
    println!("parsed `{name}`: {program}\n");
    println!("canonical form:\n{}", asm::format(&program));

    // Single-thread baseline.
    let mut core = SmtCore::new(CoreConfig::power5_like());
    core.load_program(ThreadId::T0, program.clone());
    core.run_cycles(2_000_000);
    core.reset_stats();
    core.run_cycles(2_000_000);
    let st = core.stats().ipc(ThreadId::T0);
    println!("single-thread IPC: {st:.3}\n");

    // Paired with cpu_int under three priority settings.
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "pair", "custom IPC", "cpu_int IPC", "total"
    );
    for (pp, ps) in [(4u8, 4u8), (6, 4), (2, 4)] {
        let mut core = SmtCore::new(CoreConfig::power5_like());
        core.load_program(ThreadId::T0, program.clone());
        core.load_program(ThreadId::T1, MicroBenchmark::CpuInt.program());
        core.set_priority(ThreadId::T0, Priority::from_level(pp).expect("valid"));
        core.set_priority(ThreadId::T1, Priority::from_level(ps).expect("valid"));
        core.run_cycles(2_000_000);
        core.reset_stats();
        core.run_cycles(2_000_000);
        let a = core.stats().ipc(ThreadId::T0);
        let b = core.stats().ipc(ThreadId::T1);
        println!(
            "{:>8} {a:>12.3} {b:>12.3} {:>10.3}",
            format!("({pp},{ps})"),
            a + b
        );
    }
    println!(
        "\n(the rule of thumb from the paper applies: prioritize the custom\n\
         kernel only if it is the higher-IPC, non-memory-bound side)"
    );
}
