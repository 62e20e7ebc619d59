//! Where each presented micro-benchmark's cycles go when it runs alone:
//! one single-thread CPI stack per benchmark, the first place to look
//! when a measured IPC drifts from the paper's Table 3 ST column.
//!
//! Each benchmark warms for 4M cycles on the detailed engine, then the
//! PMU counts a 2M-cycle window. A row is printed only once its stack
//! reconciles: the components add up to the cycles simulated.
//!
//! ```text
//! cargo run --release --example st_cpi_stacks
//! ```

use p5repro::core::{CoreConfig, SmtCore};
use p5repro::isa::ThreadId;
use p5repro::microbench::MicroBenchmark;
use p5repro::pmu::{CpiComponent, PmuConfig};

/// `bench`'s single-thread CPI stack, or why it could not be measured.
fn st_cpi_stack(bench: MicroBenchmark) -> Result<[f64; CpiComponent::COUNT], String> {
    let mut core = SmtCore::new(CoreConfig::power5_like());
    core.load_program(ThreadId::T0, bench.program());
    core.run_cycles(4_000_000);
    core.reset_stats();
    core.enable_pmu(PmuConfig::counters_only());
    core.try_run_cycles(2_000_000).map_err(|e| e.to_string())?;
    let pmu = core.take_pmu().expect("enabled above");
    pmu.reconcile()?;
    let stack = pmu.stack(ThreadId::T0);
    Ok(CpiComponent::ALL.map(|c| stack.fraction(c)))
}

fn main() {
    println!("== Single-thread CPI stacks (% of cycles) ==");
    print!("{:<18}", "");
    for c in CpiComponent::ALL {
        print!("{:>8}", c.short());
    }
    println!();
    let mut failed = false;
    for bench in MicroBenchmark::PRESENTED {
        match st_cpi_stack(bench) {
            Ok(fractions) => {
                print!("{:<18}", bench.name());
                for f in fractions {
                    print!("{:>7.1}%", 100.0 * f);
                }
                println!();
            }
            Err(e) => {
                println!("{:<18} FAILED: {e}", bench.name());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
