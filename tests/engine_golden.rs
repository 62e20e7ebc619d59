//! Golden pin: the detailed engine's results against committed
//! constants.
//!
//! Every other bit-identity suite compares two modes of the same engine
//! (idle skip on vs off, restored vs warmed, serial vs threaded), so an
//! engine change that moved both sides alike would pass them all. This
//! suite compares short tiny-fidelity runs against digests captured once
//! and committed here, so any change to a simulated bit of them fails.
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
//!   single-thread priority 7.
//! - One fixed-length run with PMU sampling attached, whose CPI stacks
//!   are pinned as well.
//!
//! A change that is meant to alter results updates these constants (a
//! failure prints the values it got) together with the perfbench
//! reference tables.

use p5repro::core::{CoreConfig, SmtCore};
use p5repro::experiments::campaign::{run_isolated_cell, CampaignSpec, CellSpec};
use p5repro::experiments::journal::StableHasher;
use p5repro::experiments::{CellStatus, Experiments, Measured};
use p5repro::fame::FameConfig;
use p5repro::isa::{Priority, ThreadId};
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

/// The tiny fidelity `p5-serve` and perfbench simulate at.
fn tiny() -> Experiments {
    Experiments::with_configs(CoreConfig::tiny_for_tests(), FameConfig::quick())
}

fn bench(name: &str) -> p5repro::isa::Program {
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

/// A tiny core running pair `name` from cycle 0.
fn pair_core(name: &str) -> SmtCore {
    let (a, b, (p, s)) = parse_pair(name);
    let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
    core.load_program(ThreadId::T0, bench(a));
    core.load_program(ThreadId::T1, bench(b));
    core.set_priority(ThreadId::T0, p);
    core.set_priority(ThreadId::T1, s);
    core
}

#[test]
fn fixed_length_core_runs_match_their_golden_digests() {
    check("core runs", CORE_RUNS, |g| {
        let mut core = pair_core(g.name);
        core.run_cycles(g.cycles);
        let ipc = ThreadId::ALL.map(|t| Some(core.stats().ipc(t)));
        (digest(CellStatus::Ok, ipc), core.cycle())
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
    let mut core = pair_core(PMU_RUN);
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
