//! End-to-end tests of the software-controlled priority mechanism across
//! the ISA, core and micro-benchmark crates: Equation 1 enforcement at
//! the decode stage, the special modes, and the or-nop interface.

use p5repro::core::{CoreConfig, SmtCore};
use p5repro::isa::{
    decode_policy, DecodePolicy, Op, Priority, PrivilegeLevel, Program, StaticInst, ThreadId,
};
use p5repro::microbench::MicroBenchmark;

fn smt_core_with(bench: MicroBenchmark) -> SmtCore {
    let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
    core.load_program(ThreadId::T0, bench.program_with_iterations(50));
    core.load_program(ThreadId::T1, bench.program_with_iterations(50));
    core
}

#[test]
fn decode_slot_grants_match_equation_1_for_every_difference() {
    for diff in 0i32..=5 {
        let (hi, lo) = match diff {
            0 => (4, 4),
            1 => (5, 4),
            2 => (6, 4),
            3 => (6, 3),
            4 => (6, 2),
            _ => (6, 1),
        };
        let mut core = smt_core_with(MicroBenchmark::CpuInt);
        core.set_priority(ThreadId::T0, Priority::from_level(hi).unwrap());
        core.set_priority(ThreadId::T1, Priority::from_level(lo).unwrap());
        let period = 1u64 << (diff.unsigned_abs() + 1);
        let cycles = period * 1_000;
        core.run_cycles(cycles);
        let g0 = core.stats().thread(ThreadId::T0).decode_cycles_granted;
        let g1 = core.stats().thread(ThreadId::T1).decode_cycles_granted;
        assert_eq!(g0 + g1, cycles, "every cycle is granted to someone");
        assert_eq!(
            g1,
            cycles / period,
            "diff {diff}: low-priority thread gets exactly 1 of {period} cycles"
        );
    }
}

#[test]
fn higher_priority_thread_finishes_repetitions_faster() {
    let mut core = smt_core_with(MicroBenchmark::CpuInt);
    core.set_priority(ThreadId::T0, Priority::High);
    core.run_cycles(400_000);
    let r0 = core.stats().repetition_count(ThreadId::T0);
    let r1 = core.stats().repetition_count(ThreadId::T1);
    assert!(
        r0 > r1,
        "prioritized thread must complete more repetitions ({r0} vs {r1})"
    );
}

#[test]
fn symmetric_priorities_are_symmetric() {
    // (6,4) seen from T0 equals (4,6) seen from T1.
    let mut a = smt_core_with(MicroBenchmark::CpuInt);
    a.set_priority(ThreadId::T0, Priority::High);
    a.run_cycles(200_000);

    let mut b = smt_core_with(MicroBenchmark::CpuInt);
    b.set_priority(ThreadId::T1, Priority::High);
    b.run_cycles(200_000);

    let a0 = a.stats().committed(ThreadId::T0);
    let b1 = b.stats().committed(ThreadId::T1);
    let rel = (a0 as f64 - b1 as f64).abs() / a0 as f64;
    assert!(
        rel < 0.02,
        "mirrored priorities must mirror outcomes: {a0} vs {b1}"
    );
}

#[test]
fn single_thread_mode_via_priority_7_matches_unloaded_sibling() {
    let mut st = SmtCore::new(CoreConfig::tiny_for_tests());
    st.load_program(
        ThreadId::T0,
        MicroBenchmark::CpuInt.program_with_iterations(50),
    );
    st.run_cycles(100_000);

    let mut p7 = smt_core_with(MicroBenchmark::CpuInt);
    p7.set_priority(ThreadId::T0, Priority::VeryHigh);
    p7.run_cycles(100_000);

    let ipc_st = st.stats().ipc(ThreadId::T0);
    let ipc_p7 = p7.stats().ipc(ThreadId::T0);
    assert!(
        (ipc_st - ipc_p7).abs() / ipc_st < 0.02,
        "priority 7 must behave like single-thread mode: {ipc_st} vs {ipc_p7}"
    );
    assert_eq!(p7.stats().committed(ThreadId::T1), 0);
}

#[test]
fn low_power_mode_throttles_the_whole_core() {
    let mut normal = smt_core_with(MicroBenchmark::CpuInt);
    normal.run_cycles(64_000);
    let mut lp = smt_core_with(MicroBenchmark::CpuInt);
    lp.set_priority(ThreadId::T0, Priority::VeryLow);
    lp.set_priority(ThreadId::T1, Priority::VeryLow);
    lp.run_cycles(64_000);

    let normal_total = normal.stats().total_ipc();
    let lp_total = lp.stats().total_ipc();
    assert!(
        lp_total < normal_total / 10.0,
        "low-power mode decodes one instruction per 32 cycles: {lp_total} vs {normal_total}"
    );
}

#[test]
fn or_nop_priority_requests_respect_privilege_end_to_end() {
    // A program that tries to self-boost to priority 6.
    let mut b = Program::builder("self-boost");
    b.push(StaticInst::new(Op::OrNop(Priority::High)));
    for _ in 0..20 {
        b.push(StaticInst::new(Op::IntAlu));
    }
    b.iterations(10);
    let boost = b.build().unwrap();

    // As user code: the or-nop is a plain nop; priority stays 4.
    let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
    core.load_program(ThreadId::T0, boost.clone());
    core.set_privilege(ThreadId::T0, PrivilegeLevel::User);
    core.run_cycles(5_000);
    assert_eq!(core.priority(ThreadId::T0), Priority::Medium);

    // As supervisor code: it takes effect at decode.
    let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
    core.load_program(ThreadId::T0, boost);
    core.set_privilege(ThreadId::T0, PrivilegeLevel::Supervisor);
    core.run_cycles(5_000);
    assert_eq!(core.priority(ThreadId::T0), Priority::High);
}

#[test]
fn effective_policy_tracks_program_load_state() {
    let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
    assert_eq!(core.effective_policy(), DecodePolicy::BothOff);
    core.load_program(
        ThreadId::T1,
        MicroBenchmark::CpuInt.program_with_iterations(10),
    );
    assert_eq!(
        core.effective_policy(),
        DecodePolicy::SingleThread {
            runner: ThreadId::T1
        }
    );
    core.load_program(
        ThreadId::T0,
        MicroBenchmark::CpuInt.program_with_iterations(10),
    );
    assert_eq!(
        core.effective_policy(),
        decode_policy(Priority::Medium, Priority::Medium)
    );
}

#[test]
fn transparent_background_thread_in_core_terms() {
    // Foreground cpu_fp at 6, background cpu_int at 1: the foreground's
    // IPC should be within a few percent of its single-thread IPC.
    let mut st = SmtCore::new(CoreConfig::tiny_for_tests());
    st.load_program(
        ThreadId::T0,
        MicroBenchmark::CpuFp.program_with_iterations(30),
    );
    st.run_cycles(200_000);
    let st_ipc = st.stats().ipc(ThreadId::T0);

    let mut pair = SmtCore::new(CoreConfig::tiny_for_tests());
    pair.load_program(
        ThreadId::T0,
        MicroBenchmark::CpuFp.program_with_iterations(30),
    );
    pair.load_program(
        ThreadId::T1,
        MicroBenchmark::CpuInt.program_with_iterations(30),
    );
    pair.set_priority(ThreadId::T0, Priority::High);
    pair.set_priority(ThreadId::T1, Priority::VeryLow);
    pair.run_cycles(200_000);

    let fg = pair.stats().ipc(ThreadId::T0);
    assert!(
        fg > 0.92 * st_ipc,
        "background at priority 1 must be near-transparent: {fg} vs {st_ipc}"
    );
    assert!(
        pair.stats().ipc(ThreadId::T1) > 0.0,
        "the background still makes progress"
    );
}
