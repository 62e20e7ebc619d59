//! Why the paper needed a kernel patch (Section 4.3).
//!
//! The stock Linux kernel resets a context's priority to MEDIUM (4) at
//! every kernel entry — interrupt, exception, system call — because it
//! does not track priorities. Any experiment that raises a priority and
//! expects it to persist is silently destroyed at the next timer tick.
//! This example reproduces that failure mode and shows the patched kernel
//! fixing it.
//!
//! ```text
//! cargo run --release --example kernel_patch
//! ```

use p5repro::core::{CoreConfig, SmtCore};
use p5repro::isa::{Priority, ThreadId};
use p5repro::microbench::MicroBenchmark;
use p5repro::os::{Kernel, KernelMode};

fn run(mode: KernelMode) -> (f64, f64, u64) {
    let mut core = SmtCore::new(CoreConfig::power5_like());
    core.load_program(ThreadId::T0, MicroBenchmark::CpuInt.program());
    core.load_program(ThreadId::T1, MicroBenchmark::CpuInt.program());

    let mut kernel = Kernel::new(core, mode);
    kernel.set_timer_interval(50_000).unwrap(); // a timer tick every 50k cycles

    // The experimenter boosts T0 with supervisor rights...
    kernel
        .set_supervisor_priority(ThreadId::T0, Priority::High)
        .expect("supervisor may set 6");

    // ...and measures for a while, with timer interrupts firing.
    kernel.run_cycles(2_000_000);

    let stats = kernel.core().stats();
    (
        stats.ipc(ThreadId::T0),
        stats.ipc(ThreadId::T1),
        kernel.stats().priority_resets,
    )
}

fn main() {
    println!("experiment: boost T0 to priority 6, measure under timer interrupts\n");

    let (v0, v1, v_resets) = run(KernelMode::Vanilla);
    println!("vanilla kernel:  T0 {v0:.3}  T1 {v1:.3}  (priority resets: {v_resets})");
    println!("  -> the boost evaporates at the first kernel entry;");
    println!("     both threads end up back at (4,4) for most of the run.\n");

    let (p0, p1, p_resets) = run(KernelMode::Patched);
    println!("patched kernel:  T0 {p0:.3}  T1 {p1:.3}  (priority resets: {p_resets})");
    println!("  -> the +2 difference persists: T0 gets 7 of 8 decode cycles");
    println!("     for the whole measurement, as Equation 1 dictates.");

    assert!(p0 / p1 > v0 / v1, "patched kernel must preserve the skew");
}
