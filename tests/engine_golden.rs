//! Golden pin: the detailed engine's results against committed
//! constants.
//!
//! Every other bit-identity suite compares two modes of the same engine
//! (idle skip on vs off, restored vs warmed), so an engine change that
//! moved both sides alike would pass them all. This suite compares short
//! tiny-fidelity runs against digests captured once and committed here,
//! so any change to a simulated bit of them fails.
//!
//! - Campaign cells: a busy pair at (4,4), memory-bound pairs at (6,1)
//!   where the idle skip engages, a pair at a negative difference,
//!   single-thread baselines, and `br_miss` (random branches) at a fixed
//!   campaign index. A cell's digest is the one
//!   `perfbench/reference_tiny.tsv` records: FNV-1a over its status and
//!   both threads' IPC bit patterns, next to its warm-up plus measured
//!   cycles. The last test holds the constants and that table in step.
//! - Fixed-length core runs for the decode policies whose FAME cells
//!   take millions of cycles to measure: low-power (1,1) and
//!   single-thread priority 7; and one on the full-size core whose
//!   starved thread keeps instructions queued for thousands of decodes.
//! - One fixed-length run with PMU sampling attached, whose CPI stacks
//!   are pinned as well.
//! - FAME reports of the paths no campaign cell above takes: pairs under
//!   functional warm-up and the sampled measure. These digests cover
//!   every field of every report.
//! - The two-core chip: a fixed-length run of the noise experiment's
//!   noisy setup, and both of its regimes at a small context, at one
//!   and two jobs.
//! - Runs that change mid-run what the decode stage and the balancer
//!   read: or-nops that walk a context through the decode policies
//!   (detailed and functional warm-up), `set_priority` between chunks,
//!   a context unloaded and reloaded, and a balancer-on pair with deep
//!   misses. These digests cover every core statistic.
//!
//! A change that is meant to alter results updates these constants (a
//! failure prints the values it got) together with the perfbench
//! reference tables.

use p5repro::core::{BalancerConfig, Chip, CoreConfig, CoreId, ExecutionPlan, SmtCore};
use p5repro::experiments::campaign::{run_isolated_cell, CampaignSpec, CellSpec};
use p5repro::experiments::journal::StableHasher;
use p5repro::experiments::noise::{self, os_noise_program, Regime};
use p5repro::experiments::{CellStatus, Experiments, Measured};
use p5repro::fame::{FameConfig, FameReport, FameRunner, WarmupBudget};
use p5repro::isa::{
    BranchBehavior, DataKind, Op, Priority, Program, Reg, StaticInst, StreamSpec, ThreadId,
};
use p5repro::microbench::MicroBenchmark;
use p5repro::pmu::PmuConfig;
use std::hash::Hasher;

/// One pinned run: canonical name (`a` for a single-thread baseline,
/// `a+b@p,s` for a pair at priority levels `p,s`), campaign index, and
/// the expected digest and simulated cycles.
struct Golden {
    name: &'static str,
    id: usize,
    digest: u64,
    cycles: u64,
}

const fn golden(name: &'static str, id: usize, digest: u64, cycles: u64) -> Golden {
    Golden {
        name,
        id,
        digest,
        cycles,
    }
}

/// Tiny-fidelity campaign cells, as `run_isolated_cell` measures them.
const CELLS: &[Golden] = &[
    golden("cpu_int+cpu_int@4,4", 0, 0xcc4d_15b2_9e17_79b9, 98_952),
    golden(
        "lng_chain_cpuint+cpu_int@4,4",
        0,
        0x96c6_92d2_12cb_07b7,
        138_376,
    ),
    golden("cpu_fp+cpu_int@4,4", 0, 0x6bea_bdaf_6298_af40, 136_328),
    golden("ldint_l3+ldint_mem@6,1", 0, 0x4746_02db_cb17_3c51, 216_200),
    golden("cpu_int+ldint_mem@6,1", 0, 0x7073_4a2a_c0a8_a9c5, 90_760),
    golden("ldint_mem+ldint_l2@6,1", 0, 0x3548_776a_59a7_16f8, 856_200),
    golden("ldint_l1+cpu_int@2,6", 0, 0xd09f_1b92_78a0_2ab7, 457_608),
    golden("cpu_int", 0, 0x5017_e5bf_32f2_0db6, 49_544),
    golden("ldint_mem", 0, 0x461c_6ceb_1b81_5038, 90_248),
    golden("br_miss+cpu_int@4,4", 3, 0xd417_0ebc_71ce_a199, 164_488),
];

/// Fixed-length core runs (the index is unused), digested as a cell
/// with status `Ok`.
const CORE_RUNS: &[Golden] = &[
    golden("cpu_int+ldint_l2@1,1", 0, 0x7a8d_b0d6_e895_05c1, 100_000),
    golden("cpu_int+cpu_fp@7,4", 0, 0x15a9_e511_23a8_eaa5, 100_000),
];

/// A fixed-length run on the full-size core (`CoreConfig::power5_like`)
/// of a pair whose starved thread's oldest queued instruction trails the
/// newest decode by thousands of instructions (4,503 at cycle 244,530 of
/// this run), far more than its share of the GCT holds.
const LONG_SPAN_RUNS: &[Golden] = &[golden(
    "cpu_int+ldint_mem@6,1",
    0,
    0xda3b_971c_b66b_f982,
    300_000,
)];

/// FAME reports of single-core pairs, named `plan pair`: the campaign
/// cells above all warm and measure in detail. The digest covers every
/// field of the report; the cycles are warm-up plus measured cycles.
#[rustfmt::skip]
const FAME_CORE_RUNS: &[Golden] = &[
    golden("detailed+ff ldint_l2+cpu_int@4,4", 0, 0x7239_9194_7a58_a161, 29_576),
    golden("sampled:2048,8192 ldint_l2+cpu_int@4,4", 0, 0x25fb_6c93_2679_7650, 58_248),
    golden("sampled:2048,8192+dw ldint_l2+cpu_int@4,4", 0, 0x313e_c266_16bf_b50a, 88_968),
    golden("detailed+ff ldint_mem+ldint_l2@6,1", 0, 0xa25f_8cfe_9e1b_dc4c, 35_720),
    golden("sampled:2048,8192 ldint_mem+ldint_l2@6,1", 0, 0x13e7_c44d_94c6_2563, 2_741_128),
    golden("sampled:2048,8192+dw ldint_mem+ldint_l2@6,1", 0, 0x9d64_3034_e32b_7f9c, 2_997_128),
];

/// The tiny fidelity `p5-serve` and perfbench simulate at.
fn tiny() -> Experiments {
    Experiments::with_configs(CoreConfig::tiny_for_tests(), FameConfig::quick())
}

fn bench(name: &str) -> Program {
    MicroBenchmark::from_name(name)
        .unwrap_or_else(|| panic!("unknown microbenchmark {name}"))
        .program()
}

/// Splits a pair name into its two programs and priorities.
fn parse_pair(name: &str) -> (&str, &str, (Priority, Priority)) {
    let (programs, levels) = name.split_once('@').expect("pair names hold an '@'");
    let (a, b) = programs.split_once('+').expect("pair names hold a '+'");
    let (p, s) = levels.split_once(',').expect("levels are 'p,s'");
    let level = |l: &str| Priority::from_level(l.parse().expect("numeric level")).expect("0..=7");
    (a, b, (level(p), level(s)))
}

fn cell(name: &str) -> CellSpec {
    if !name.contains('@') {
        return CellSpec::single(name, bench(name));
    }
    let (a, b, priorities) = parse_pair(name);
    CellSpec::pair(name, bench(a), bench(b), priorities)
}

fn status_code(status: CellStatus) -> u8 {
    match status {
        CellStatus::Ok => 0,
        CellStatus::Recovered => 1,
        CellStatus::Degraded => 2,
        CellStatus::Crashed => 3,
        CellStatus::Skipped => 4,
    }
}

/// Status plus both threads' IPC bit patterns, hashed exactly as
/// perfbench hashes its reference rows.
fn digest(status: CellStatus, ipc: [Option<f64>; 2]) -> u64 {
    let mut h = StableHasher::new();
    h.write_u8(status_code(status));
    for ipc in ipc {
        match ipc {
            Some(ipc) => {
                h.write_u8(1);
                h.write_u64(ipc.to_bits());
            }
            None => h.write_u8(0),
        }
    }
    h.finish()
}

fn cell_digest(m: &Measured) -> (u64, u64) {
    let cycles = m
        .report
        .as_ref()
        .map_or(0, |r| r.warmup_cycles + r.measured_cycles);
    (digest(m.status, ThreadId::ALL.map(|t| m.ipc(t))), cycles)
}

fn check(what: &str, pinned: &[Golden], got: impl Fn(&Golden) -> (u64, u64)) {
    let wrong: Vec<String> = pinned
        .iter()
        .filter_map(|g| {
            let (digest, cycles) = got(g);
            ((digest, cycles) != (g.digest, g.cycles)).then(|| {
                format!(
                    "{} @ id {}: got {digest:#018x}, {cycles}; pinned {:#018x}, {}",
                    g.name, g.id, g.digest, g.cycles
                )
            })
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "golden {what} moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn campaign_cells_match_their_golden_digests() {
    let ctx = tiny();
    let spec = CampaignSpec {
        cells: Vec::new(),
        jobs: 1,
        seed: ctx.core.rng_seed,
        reuse_warmup: false,
    };
    check("cells", CELLS, |g| {
        cell_digest(&run_isolated_cell(&ctx, &spec, g.id, &cell(g.name)).0)
    });
}

/// A tiny core under `plan`.
fn tiny_core(plan: ExecutionPlan) -> CoreConfig {
    let mut cfg = CoreConfig::tiny_for_tests();
    cfg.plan = plan;
    cfg
}

/// A core of `cfg` running pair `name` from cycle 0, each thread's
/// program built by `program`.
fn pair_core(name: &str, cfg: CoreConfig, program: fn(&str) -> Program) -> SmtCore {
    let (a, b, (p, s)) = parse_pair(name);
    let mut core = SmtCore::new(cfg);
    core.load_program(ThreadId::T0, program(a));
    core.load_program(ThreadId::T1, program(b));
    core.set_priority(ThreadId::T0, p);
    core.set_priority(ThreadId::T1, s);
    core
}

/// Runs pair `g.name` on a core of `cfg` for `g.cycles` and digests it.
fn fixed_length_run(cfg: CoreConfig, g: &Golden) -> (u64, u64) {
    let mut core = pair_core(g.name, cfg, bench);
    core.run_cycles(g.cycles);
    let ipc = ThreadId::ALL.map(|t| Some(core.stats().ipc(t)));
    (digest(CellStatus::Ok, ipc), core.cycle())
}

#[test]
fn fixed_length_core_runs_match_their_golden_digests() {
    check("core runs", CORE_RUNS, |g| {
        fixed_length_run(tiny_core(ExecutionPlan::detailed()), g)
    });
}

#[test]
fn long_span_core_run_matches_its_golden_digest() {
    check("long-span core run", LONG_SPAN_RUNS, |g| {
        fixed_length_run(CoreConfig::power5_like(), g)
    });
}

/// Every field of `report`, hashed in order, and its warm-up plus
/// measured cycles.
fn fame_digest(report: &FameReport) -> (u64, u64) {
    let mut h = StableHasher::new();
    for m in &report.threads {
        let Some(m) = m else {
            h.write_u8(0);
            continue;
        };
        h.write_u8(1);
        h.write_u64(m.repetitions as u64);
        h.write_u64(m.avg_repetition_cycles.to_bits());
        h.write_u64(m.ipc.to_bits());
        h.write_u8(u8::from(m.converged));
        h.write_u64(m.estimate.value.to_bits());
        h.write_u64(m.estimate.ci95.to_bits());
        h.write_u32(m.estimate.samples);
    }
    h.write_u64(report.measured_cycles);
    h.write_u64(report.warmup_cycles);
    (h.finish(), report.warmup_cycles + report.measured_cycles)
}

/// A 40-iteration body of micro-benchmark `name`.
fn short_bench(name: &str) -> Program {
    MicroBenchmark::from_name(name)
        .unwrap_or_else(|| panic!("unknown microbenchmark {name}"))
        .program_with_iterations(40)
}

#[test]
fn fame_core_reports_match_their_golden_digests() {
    check("FAME core reports", FAME_CORE_RUNS, |g| {
        let (plan, pair) = g.name.split_once(' ').expect("names are 'plan pair'");
        let plan = ExecutionPlan::parse(plan).expect("valid plan");
        let mut core = pair_core(pair, tiny_core(plan), short_bench);
        let runner = FameRunner::new(FameConfig::quick());
        fame_digest(&runner.try_measure(&mut core).expect("healthy pair"))
    });
}

/// The PMU run: the memory-bound (6,1) pair with interval sampling, so
/// idle spans cross sample edges.
const PMU_RUN: &str = "ldint_mem+ldint_l2@6,1";
const PMU_RUN_CYCLES: u64 = 300_000;

/// CPI stack counts of the PMU run, per thread, in `CpiComponent` order.
const PMU_STACKS: [&[u64]; 2] = [
    &[3667, 4687, 138, 0, 0, 288_586, 2922, 0],
    &[2520, 295_313, 0, 0, 2071, 0, 96, 0],
];

/// Committed instructions of the PMU run, per thread.
const PMU_COMMITTED: [u64; 2] = [9996, 5040];

#[test]
fn sampled_pmu_run_matches_its_golden_cpi_stacks() {
    let mut core = pair_core(PMU_RUN, tiny_core(ExecutionPlan::detailed()), bench);
    core.enable_pmu(PmuConfig::sampling(4096));
    core.run_cycles(PMU_RUN_CYCLES);
    let pmu = core.take_pmu().expect("PMU was enabled");
    let stacks = ThreadId::ALL.map(|t| pmu.stack(t).counts().to_vec());
    let committed = ThreadId::ALL.map(|t| core.stats().committed(t));
    assert_eq!(
        (stacks[0].as_slice(), stacks[1].as_slice(), committed),
        (PMU_STACKS[0], PMU_STACKS[1], PMU_COMMITTED),
        "golden PMU run moved: (stack T0, stack T1, committed)"
    );
    assert_eq!(pmu.samples().len() as u64, PMU_RUN_CYCLES / 4096);
}

/// The pinned cells are rows of perfbench's reference table wherever
/// that table has them (it leaves out `br_miss`, whose result depends
/// on the campaign index).
#[test]
fn golden_cells_agree_with_the_perfbench_reference_table() {
    let table = std::fs::read_to_string(
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("perfbench/reference_tiny.tsv"),
    )
    .expect("perfbench/reference_tiny.tsv is committed");
    let mut matched = 0;
    for g in CELLS {
        let row = table
            .lines()
            .find(|line| line.split('\t').next() == Some(g.name));
        if let Some(row) = row {
            assert_eq!(
                row,
                format!("{}\t{:016x}\t{}", g.name, g.digest, g.cycles),
                "golden constant and reference row disagree"
            );
            matched += 1;
        }
    }
    assert_eq!(matched, CELLS.len() - 1, "every cell but br_miss has a row");
}

/// Every statistic of `core` (core, memory and branch counters, its
/// cycle and both priorities), hashed, and its cycle count.
fn core_digest(core: &SmtCore) -> (u64, u64) {
    let mut h = StableHasher::new();
    let text = format!(
        "{:?} {:?} {:?} {:?}",
        core.stats(),
        core.mem().stats(),
        core.branch_stats(),
        ThreadId::ALL.map(|t| core.priority(t)),
    );
    h.write(text.as_bytes());
    (h.finish(), core.cycle())
}

/// A loop whose or-nops walk its context through four decode policies
/// against a sibling at priority 2: a 6-to-2 ratio, a near tie, single
/// thread (7) and the sibling favoured (1). Each phase runs a short
/// dependent ALU chain and a load.
fn priority_walker() -> Program {
    let mut b = Program::builder("priority_walker");
    let s = b.stream(StreamSpec::sequential(24 * 1024, 64));
    for p in [
        Priority::High,
        Priority::MediumLow,
        Priority::VeryHigh,
        Priority::VeryLow,
    ] {
        b.push(StaticInst::new(Op::OrNop(p)));
        for i in 0..4u8 {
            b.push(
                StaticInst::new(Op::IntAlu)
                    .dst(Reg::new(40 + i))
                    .src1(Reg::new(40 + (i + 3) % 4)),
            );
        }
        b.push(
            StaticInst::new(Op::Load {
                stream: s,
                kind: DataKind::Int,
            })
            .dst(Reg::new(50)),
        );
    }
    b.push(StaticInst::new(Op::Branch(BranchBehavior::LoopBack)));
    b.iterations(40);
    b.build().expect("valid program")
}

/// FAME reports of the priority walker beside `cpu_int` at priority 2,
/// named by plan.
#[rustfmt::skip]
const OR_NOP_WALKS: &[Golden] = &[
    golden("detailed", 0, 0x3357_e47a_d172_d2b1, 25_736),
    golden("detailed+ff", 0, 0x6f55_61ce_2d84_d9f7, 45_960),
];

#[test]
fn or_nop_priority_walks_match_their_golden_digests() {
    check("or-nop priority walks", OR_NOP_WALKS, |g| {
        let plan = ExecutionPlan::parse(g.name).expect("valid plan");
        let mut core = SmtCore::new(tiny_core(plan));
        core.load_program(ThreadId::T0, priority_walker());
        core.load_program(ThreadId::T1, short_bench("cpu_int"));
        core.set_priority(ThreadId::T1, Priority::Low);
        let runner = FameRunner::new(FameConfig::quick());
        fame_digest(&runner.try_measure(&mut core).expect("healthy pair"))
    });
}

/// Fixed-length scenarios on the tiny core, digested by [`core_digest`].
#[rustfmt::skip]
const SCENARIOS: &[Golden] = &[
    golden("set_priority between chunks", 0, 0x2af9_5739_76ad_4e57, 120_000),
    golden("unload and reload", 0, 0x225c_ca0f_e971_1b67, 100_000),
    golden("balancer with deep misses", 0, 0xa9c0_8052_d05d_bbe9, 120_000),
];

fn scenario(name: &str) -> (u64, u64) {
    let g = SCENARIOS
        .iter()
        .find(|g| g.name == name)
        .expect("pinned scenario");
    let got = match name {
        "set_priority between chunks" => {
            // Every policy, each entered from a different one: ratios
            // both ways, low power, single thread by 7 and by 0, and
            // decode switched off.
            let mut core = pair_core(
                "ldint_l2+cpu_int@4,4",
                tiny_core(ExecutionPlan::detailed()),
                bench,
            );
            for (p, s) in [
                (6, 1),
                (1, 1),
                (7, 4),
                (2, 6),
                (0, 3),
                (0, 0),
                (5, 4),
                (4, 0),
            ] {
                core.set_priority(ThreadId::T0, Priority::from_level(p).unwrap());
                core.set_priority(ThreadId::T1, Priority::from_level(s).unwrap());
                core.run_cycles(15_000);
            }
            core_digest(&core)
        }
        "unload and reload" => {
            let mut core = pair_core(
                "cpu_int+ldint_l2@6,1",
                tiny_core(ExecutionPlan::detailed()),
                bench,
            );
            core.run_cycles(30_000);
            core.unload_program(ThreadId::T1);
            core.run_cycles(10_000);
            core.load_program(ThreadId::T1, bench("ldint_mem"));
            core.run_cycles(30_000);
            core.unload_program(ThreadId::T0);
            core.run_cycles(5_000);
            core.load_program(ThreadId::T0, bench("cpu_fp"));
            core.set_priority(ThreadId::T0, Priority::Low);
            core.run_cycles(25_000);
            core_digest(&core)
        }
        "balancer with deep misses" => {
            // Tight caps so the deep-miss cap and the miss cap both gate.
            let mut cfg = tiny_core(ExecutionPlan::detailed());
            cfg.balancer = BalancerConfig {
                enabled: true,
                gct_cap_per_thread: 8,
                miss_cap_per_thread: 2,
                gct_cap_deep_miss: 3,
            };
            let mut core = pair_core("ldint_mem+cpu_int@4,4", cfg, bench);
            core.enable_pmu(PmuConfig::counters_only());
            core.run_cycles(120_000);
            let pmu = core.take_pmu().expect("PMU was enabled");
            assert!(
                core.stats().thread(ThreadId::T0).blocked_balancer > 0,
                "the balancer must gate the memory-bound thread"
            );
            let (digest, cycles) = core_digest(&core);
            let mut h = StableHasher::new();
            h.write_u64(digest);
            for t in ThreadId::ALL {
                for &n in pmu.stack(t).counts() {
                    h.write_u64(n);
                }
            }
            (h.finish(), cycles)
        }
        other => panic!("unknown scenario {other}"),
    };
    check("scenario", std::slice::from_ref(g), |_| got);
    got
}

#[test]
fn set_priority_between_chunks_matches_its_golden_digest() {
    scenario("set_priority between chunks");
}

#[test]
fn unloading_and_reloading_contexts_matches_its_golden_digest() {
    scenario("unload and reload");
}

#[test]
fn balancer_on_pair_with_deep_misses_matches_its_golden_digest() {
    scenario("balancer with deep misses");
}

/// A fixed-length serial chip run of noise's noisy setup: the OS-noise
/// stand-in on both contexts of core 0, `ldint_l2` alone on core 1. The
/// digest hashes [`core_digest`] of both cores; the cycles are the
/// chip's.
const CHIP_RUNS: &[Golden] = &[golden(
    "os_noise x2 | ldint_l2",
    0,
    0xfcb9_d0f6_608b_59b7,
    60_000,
)];

#[test]
fn serial_chip_noise_run_matches_its_golden_digest() {
    check("serial chip run", CHIP_RUNS, |g| {
        let mut chip = Chip::new(CoreConfig::tiny_for_tests());
        let c0 = chip.core_mut(CoreId::C0);
        c0.load_program(ThreadId::T0, os_noise_program());
        c0.load_program(ThreadId::T1, os_noise_program());
        chip.core_mut(CoreId::C1)
            .load_program(ThreadId::T0, bench("ldint_l2"));
        chip.run_cycles(g.cycles);
        let mut h = StableHasher::new();
        for id in CoreId::ALL {
            h.write_u64(core_digest(chip.core(id)).0);
        }
        (h.finish(), chip.cycle())
    });
}

/// Noise's regimes for `ldint_l1` at [`noise_context`], named by what
/// core 0 runs. On the tiny core `ldint_l1`'s ring lives in the shared
/// L3, so the noise slows it and makes its repetitions uneven. The
/// digest covers every field of the regime; the cycles are the warm-up
/// plus measured horizon.
#[rustfmt::skip]
const NOISE_REGIMES: &[Golden] = &[
    golden("isolated", 0, 0xc6cd_fb31_8152_e418, 100_000),
    golden("noisy", 0, 0x8f0e_42c8_c8fa_64fe, 100_000),
];

/// A tiny core with a short fixed horizon: 20,000 warm-up cycles and
/// 80,000 measured.
fn noise_context(jobs: usize) -> Experiments {
    let fame = FameConfig {
        max_cycles: 80_000,
        warmup: WarmupBudget::fixed(20_000),
        ..FameConfig::quick()
    };
    let mut ctx = Experiments::with_configs(CoreConfig::tiny_for_tests(), fame);
    ctx.jobs = jobs;
    ctx
}

/// Every field of a noise regime, hashed in order.
fn regime_digest(r: &Regime) -> u64 {
    let mut h = StableHasher::new();
    h.write_u64(r.mean_ipc.to_bits());
    h.write_u64(r.repetition_cv.to_bits());
    h.write_u64(r.repetitions as u64);
    h.finish()
}

#[test]
fn noise_regimes_match_their_golden_digests() {
    for jobs in [1, 2] {
        let ctx = noise_context(jobs);
        let result = noise::run_with(&ctx, MicroBenchmark::LdintL1);
        let horizon = ctx.fame.warmup.max_cycles + ctx.fame.max_cycles;
        check(
            &format!("noise regimes at --jobs {jobs}"),
            NOISE_REGIMES,
            |g| {
                let regime = if g.name == "noisy" {
                    &result.noisy
                } else {
                    &result.isolated
                };
                (regime_digest(regime), horizon)
            },
        );
    }
}
