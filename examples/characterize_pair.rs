//! Characterize one workload pairing across the full priority range —
//! the per-pair slice of the paper's Figures 2, 3 and 4.
//!
//! Pass two micro-benchmark names (default: `cpu_int ldint_l2`):
//!
//! ```text
//! cargo run --release --example characterize_pair -- cpu_int lng_chain_cpuint
//! ```

use p5repro::experiments::{priority_pair, Experiments};
use p5repro::isa::ThreadId;
use p5repro::microbench::MicroBenchmark;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let primary = args.first().map_or(MicroBenchmark::CpuInt, |name| {
        MicroBenchmark::from_name(name).unwrap_or_else(|| {
            eprintln!("unknown benchmark {name}; available:");
            for b in MicroBenchmark::ALL {
                eprintln!("  {b}");
            }
            std::process::exit(1);
        })
    });
    let secondary = args.get(1).map_or(MicroBenchmark::LdintL2, |name| {
        MicroBenchmark::from_name(name).unwrap_or_else(|| {
            eprintln!("unknown benchmark {name}");
            std::process::exit(1);
        })
    });

    let ctx = Experiments::quick();
    println!(
        "characterizing ({}, {}) across priority differences -5..=+5\n",
        primary.name(),
        secondary.name()
    );
    println!(
        "{:>5} {:>10} {:>12} {:>12} {:>10} {:>12}",
        "diff", "pair", "PThread IPC", "SThread IPC", "total", "vs (4,4)"
    );

    // Measure the (4,4) baseline first so every row can be normalized.
    let baseline = {
        let (p, s) = priority_pair(0);
        let report = ctx.measure_pair(primary.program(), secondary.program(), (p, s));
        report.total_ipc()
    };

    for diff in -5..=5 {
        let (p, s) = priority_pair(diff);
        let report = ctx.measure_pair(primary.program(), secondary.program(), (p, s));
        let pt = report.thread(ThreadId::T0).expect("active").ipc;
        let st = report.thread(ThreadId::T1).expect("active").ipc;
        let total = pt + st;
        let rel = format!("{:+.1}%", (total / baseline - 1.0) * 100.0);
        println!(
            "{:>5} {:>10} {:>12.3} {:>12.3} {:>10.3} {:>12}",
            format!("{diff:+}"),
            format!("({},{})", p.level(), s.level()),
            pt,
            st,
            total,
            rel
        );
    }

    println!(
        "\nreading guide: positive differences favour {}, negative favour {};\n\
         the paper's rule of thumb is to stay within +/-2 unless one\n\
         thread's performance genuinely does not matter.",
        primary.name(),
        secondary.name()
    );
}
