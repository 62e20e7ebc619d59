//! Integration of the simulated OS layer with the core: privilege
//! enforcement through the whole stack, the kernel's reset-on-interrupt
//! behaviour, and the paper's patched-kernel workflow.

use p5repro::core::{CoreConfig, SmtCore};
use p5repro::isa::{Priority, ThreadId};
use p5repro::microbench::MicroBenchmark;
use p5repro::os::{sysfs_write, Kernel, KernelMode, OsError};

fn kernel(mode: KernelMode) -> Kernel {
    let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
    core.load_program(
        ThreadId::T0,
        MicroBenchmark::CpuInt.program_with_iterations(20),
    );
    core.load_program(
        ThreadId::T1,
        MicroBenchmark::CpuInt.program_with_iterations(20),
    );
    Kernel::new(core, mode)
}

#[test]
fn paper_experiment_workflow_on_patched_kernel() {
    // The workflow of Section 4.3/5: set priorities through /sys, run,
    // measure — without the kernel interfering.
    let mut k = kernel(KernelMode::Patched);
    k.set_timer_interval(10_000).unwrap();
    sysfs_write(&mut k, "thread0/priority", "6").expect("patched kernel exposes 6");
    sysfs_write(&mut k, "thread1/priority", "2").expect("2 is a user level anyway");

    k.run_cycles(320_000);

    // Priorities survived 32 timer interrupts.
    assert_eq!(k.core().priority(ThreadId::T0), Priority::High);
    assert_eq!(k.core().priority(ThreadId::T1), Priority::Low);
    assert_eq!(k.stats().priority_resets, 0);
    assert_eq!(k.stats().timer_interrupts, 32);

    // And the (6,2) split is the Equation-1 ratio: R = 32.
    let s = k.core().stats();
    let g1 = s.thread(ThreadId::T1).decode_cycles_granted;
    assert_eq!(g1, 320_000 / 32);
}

#[test]
fn same_experiment_is_destroyed_by_the_vanilla_kernel() {
    let mut k = kernel(KernelMode::Vanilla);
    k.set_timer_interval(10_000).unwrap();
    // User space cannot even request 6 on the stock kernel...
    assert_eq!(
        sysfs_write(&mut k, "thread0/priority", "6"),
        Err(OsError::InsufficientPrivilege {
            requested: Priority::High
        })
    );
    // ...and a supervisor-set priority evaporates at the next interrupt.
    k.set_supervisor_priority(ThreadId::T0, Priority::High)
        .expect("supervisor sets 6");
    k.run_cycles(320_000);
    assert_eq!(k.core().priority(ThreadId::T0), Priority::Medium);
    assert!(k.stats().priority_resets >= 1);

    let s = k.core().stats();
    let g0 = s.thread(ThreadId::T0).decode_cycles_granted;
    let g1 = s.thread(ThreadId::T1).decode_cycles_granted;
    // Nearly all of the run happened at (4,4).
    let skew = g0 as f64 / g1 as f64;
    assert!(
        skew < 1.1,
        "vanilla kernel should flatten the decode skew, got {skew}"
    );
}

#[test]
fn spin_wait_scenario_reduces_spinner_interference() {
    // The kernel lowers a spinning thread's priority so the lock holder
    // (on the sibling context) makes faster progress.
    let mut k = kernel(KernelMode::Vanilla);
    k.run_cycles(50_000);
    let before = k.core().stats().ipc(ThreadId::T0);

    k.enter_spin_wait(ThreadId::T1);
    k.core_mut().reset_stats();
    k.run_cycles(50_000);
    let during = k.core().stats().ipc(ThreadId::T0);
    assert!(
        during > 1.2 * before,
        "lock holder must speed up while the spinner is demoted: {during} vs {before}"
    );

    k.exit_spin_wait(ThreadId::T1);
    assert_eq!(k.core().priority(ThreadId::T1), Priority::Medium);
}

#[test]
fn hypervisor_call_reaches_single_thread_mode() {
    let mut k = kernel(KernelMode::Patched);
    k.set_hypervisor_priority(ThreadId::T0, Priority::VeryHigh)
        .unwrap();
    k.run_cycles(20_000);
    assert!(k.core().stats().committed(ThreadId::T0) > 0);
    assert_eq!(k.core().stats().committed(ThreadId::T1), 0);
}

#[test]
fn sysfs_rejects_garbage_across_the_stack() {
    let mut k = kernel(KernelMode::Patched);
    assert_eq!(
        sysfs_write(&mut k, "thread9/priority", "4"),
        Err(OsError::InvalidPath)
    );
    assert_eq!(
        sysfs_write(&mut k, "thread0/priority", "medium"),
        Err(OsError::InvalidValue)
    );
    assert_eq!(
        sysfs_write(&mut k, "thread0/priority", "8"),
        Err(OsError::InvalidValue)
    );
    // Nothing changed.
    assert_eq!(k.core().priority(ThreadId::T0), Priority::Medium);
    assert_eq!(k.stats().priority_writes, 0);
}
