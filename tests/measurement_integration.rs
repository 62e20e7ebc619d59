//! Integration of the FAME methodology with the core and the
//! micro-benchmarks: convergence, repetition accounting, and the
//! characterization invariants the paper's Table 3 rests on.

use p5repro::core::{CoreConfig, SmtCore};
use p5repro::fame::{FameConfig, FameRunner};
use p5repro::isa::ThreadId;
use p5repro::microbench::MicroBenchmark;

fn quick_fame() -> FameRunner {
    FameRunner::new(FameConfig {
        maiv: 0.05,
        stable_window: 2,
        min_repetitions: 3,
        max_cycles: 3_000_000,
        warmup: p5repro::fame::WarmupBudget {
            min_cycles: 10_000,
            max_cycles: 400_000,
            ring_passes: 1,
        },
    })
}

fn st_ipc(bench: MicroBenchmark, iterations: u64) -> f64 {
    let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
    core.load_program(ThreadId::T0, bench.program_with_iterations(iterations));
    quick_fame()
        .measure(&mut core)
        .thread(ThreadId::T0)
        .expect("active")
        .ipc
}

#[test]
fn fame_converges_on_steady_microbenchmarks() {
    for bench in [
        MicroBenchmark::CpuInt,
        MicroBenchmark::CpuFp,
        MicroBenchmark::LngChainCpuint,
        MicroBenchmark::BrHit,
    ] {
        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        core.load_program(ThreadId::T0, bench.program_with_iterations(40));
        let report = quick_fame().measure(&mut core);
        assert!(
            report.converged(),
            "{bench} must converge under relaxed MAIV"
        );
        assert!(report.thread(ThreadId::T0).expect("active").repetitions >= 3);
    }
}

#[test]
fn st_ipc_ordering_matches_the_papers_characterization() {
    // The tiny test hierarchy preserves the qualitative ordering the
    // paper's Table 3 establishes on real hardware.
    let l1 = st_ipc(MicroBenchmark::LdintL1, 60);
    let cpu = st_ipc(MicroBenchmark::CpuInt, 20);
    let chain = st_ipc(MicroBenchmark::LngChainCpuint, 15);
    let mem = st_ipc(MicroBenchmark::LdintMem, 40);
    assert!(
        l1 > cpu && cpu > chain && chain > mem,
        "ordering violated: l1 {l1}, cpu {cpu}, chain {chain}, mem {mem}"
    );
}

#[test]
fn smt_halves_a_thread_paired_with_itself() {
    let st = st_ipc(MicroBenchmark::CpuInt, 20);

    let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
    core.load_program(
        ThreadId::T0,
        MicroBenchmark::CpuInt.program_with_iterations(20),
    );
    core.load_program(
        ThreadId::T1,
        MicroBenchmark::CpuInt.program_with_iterations(20),
    );
    let report = quick_fame().measure(&mut core);
    let paired = report.thread(ThreadId::T0).expect("active").ipc;

    assert!(
        paired < 0.7 * st && paired > 0.3 * st,
        "SMT(4,4) should roughly halve a self-paired cpu thread: {paired} vs {st}"
    );
    // But the combined throughput beats single-thread execution.
    assert!(report.total_ipc() > st);
}

#[test]
fn branch_misses_cost_ipc_under_fame() {
    let hit = st_ipc(MicroBenchmark::BrHit, 40);
    let miss = st_ipc(MicroBenchmark::BrMiss, 40);
    assert!(
        hit > 1.3 * miss,
        "br_miss must pay for mispredictions: hit {hit} vs miss {miss}"
    );
}

#[test]
fn fame_repetition_times_are_consistent_with_ipc() {
    let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
    let program = MicroBenchmark::CpuInt.program_with_iterations(20);
    let per_rep = program.instructions_per_repetition() as f64;
    core.load_program(ThreadId::T0, program);
    let report = quick_fame().measure(&mut core);
    let m = report.thread(ThreadId::T0).expect("active");
    // IPC ~= instructions-per-rep / cycles-per-rep.
    let derived = per_rep / m.avg_repetition_cycles;
    assert!(
        (derived - m.ipc).abs() / m.ipc < 0.05,
        "IPC {0} vs derived {derived}",
        m.ipc
    );
}

#[test]
fn faster_thread_runs_more_repetitions_like_paper_figure_1() {
    let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
    core.load_program(
        ThreadId::T0,
        MicroBenchmark::CpuInt.program_with_iterations(10),
    );
    core.load_program(
        ThreadId::T1,
        MicroBenchmark::LngChainCpuint.program_with_iterations(30),
    );
    let report = quick_fame().measure(&mut core);
    let fast = report.thread(ThreadId::T0).expect("active");
    let slow = report.thread(ThreadId::T1).expect("active");
    assert!(fast.repetitions > slow.repetitions);
    assert!(slow.repetitions >= 3, "both reach the minimum");
}
