//! Integration of the case-study workloads with the core: FFT/LU
//! pipeline behaviour, MPI re-balancing, SPEC-proxy pairing dynamics, and
//! determinism across the whole stack.

use p5repro::core::{CoreConfig, SmtCore};
use p5repro::fame::{FameConfig, FameRunner};
use p5repro::isa::{Priority, ThreadId};
use p5repro::workloads::{fftlu, mpi::ImbalancedApp, SpecProxy};

fn quick_fame() -> FameRunner {
    FameRunner::new(FameConfig {
        maiv: 0.08,
        stable_window: 2,
        min_repetitions: 2,
        max_cycles: 4_000_000,
        warmup: p5repro::fame::WarmupBudget {
            min_cycles: 10_000,
            max_cycles: 300_000,
            ring_passes: 1,
        },
    })
}

fn pair_times(
    a: p5repro::isa::Program,
    b: p5repro::isa::Program,
    pa: Priority,
    pb: Priority,
) -> (f64, f64) {
    let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
    core.load_program(ThreadId::T0, a);
    core.load_program(ThreadId::T1, b);
    core.set_priority(ThreadId::T0, pa);
    core.set_priority(ThreadId::T1, pb);
    let report = quick_fame().measure(&mut core);
    (
        report
            .thread(ThreadId::T0)
            .expect("active")
            .avg_repetition_cycles,
        report
            .thread(ThreadId::T1)
            .expect("active")
            .avg_repetition_cycles,
    )
}

#[test]
fn fft_lu_prioritization_shifts_time_between_stages() {
    let fft = || fftlu::fft_program_with_iterations(300);
    let lu = || fftlu::lu_program_with_iterations(700);
    let (fft_44, lu_44) = pair_times(fft(), lu(), Priority::Medium, Priority::Medium);
    let (fft_64, lu_64) = pair_times(fft(), lu(), Priority::High, Priority::Medium);
    assert!(
        fft_64 <= fft_44 * 1.01,
        "prioritized FFT must not slow down"
    );
    assert!(lu_64 > lu_44, "the LU pays for the FFT's boost");
}

#[test]
fn fft_lu_over_rotation_makes_lu_the_bottleneck() {
    let fft = || fftlu::fft_program_with_iterations(300);
    let lu = || fftlu::lu_program_with_iterations(700);
    let (fft_63, lu_63) = pair_times(fft(), lu(), Priority::High, Priority::MediumLow);
    let (fft_64, lu_64) = pair_times(fft(), lu(), Priority::High, Priority::Medium);
    assert!(
        lu_63 > lu_64,
        "a bigger difference must slow the LU further: {lu_63} vs {lu_64}"
    );
    let _ = (fft_63, fft_64);
}

#[test]
fn mpi_superstep_follows_the_slower_rank() {
    let app = ImbalancedApp::with_imbalance(2.0);
    let (heavy, light) = pair_times(
        app.heavy_rank().with_iterations(1200),
        app.light_rank().with_iterations(600),
        Priority::Medium,
        Priority::Medium,
    );
    assert!(heavy > light, "the heavy rank dominates at (4,4)");
    assert_eq!(app.superstep_time(heavy, light), heavy);
}

#[test]
fn spec_proxies_preserve_relative_boundedness_in_smt() {
    // h264ref (cpu-bound) keeps a much higher IPC than mcf (memory-bound)
    // when they share the core, as in the paper's case study.
    let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
    core.load_program(
        ThreadId::T0,
        SpecProxy::H264ref.program_with_iterations(400),
    );
    core.load_program(ThreadId::T1, SpecProxy::Mcf.program_with_iterations(100));
    let report = quick_fame().measure(&mut core);
    let h = report.thread(ThreadId::T0).expect("active").ipc;
    let m = report.thread(ThreadId::T1).expect("active").ipc;
    assert!(
        h > 2.0 * m,
        "h264ref must dominate mcf in IPC terms: {h} vs {m}"
    );
}

#[test]
fn prioritizing_the_cpu_bound_spec_proxy_does_not_lose_throughput() {
    let base = {
        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        core.load_program(
            ThreadId::T0,
            SpecProxy::H264ref.program_with_iterations(400),
        );
        core.load_program(ThreadId::T1, SpecProxy::Mcf.program_with_iterations(100));
        quick_fame().measure(&mut core).total_ipc()
    };
    let boosted = {
        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        core.load_program(
            ThreadId::T0,
            SpecProxy::H264ref.program_with_iterations(400),
        );
        core.load_program(ThreadId::T1, SpecProxy::Mcf.program_with_iterations(100));
        core.set_priority(ThreadId::T0, Priority::High);
        quick_fame().measure(&mut core).total_ipc()
    };
    assert!(
        boosted >= 0.97 * base,
        "prioritizing the high-IPC thread must not cost throughput: {boosted} vs {base}"
    );
}

#[test]
fn whole_stack_is_deterministic() {
    let run = || {
        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        core.load_program(ThreadId::T0, SpecProxy::Equake.program_with_iterations(50));
        core.load_program(ThreadId::T1, SpecProxy::Applu.program_with_iterations(200));
        core.set_priority(ThreadId::T0, Priority::MediumHigh);
        core.run_cycles(300_000);
        (
            core.stats().committed(ThreadId::T0),
            core.stats().committed(ThreadId::T1),
            core.mem().stats().accesses,
            core.branch_stats().mispredicted,
        )
    };
    assert_eq!(run(), run(), "same seed, same programs => identical runs");
}
