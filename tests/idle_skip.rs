//! The event-horizon idle skip's external contract: **bit-identity**.
//!
//! The fast path (`ExecutionPlan::idle_skip`, default on) may only
//! change wall-clock time — never a single measured byte. These tests
//! drive the full public surface A/B — skip on vs `+noskip` — across
//! randomized priority pairs and fault schedules, FAME measurements,
//! campaign journal payloads, and the deadline/cancellation path.
//!
//! Like `tests/properties.rs`, the randomized cases draw from a fixed
//! xorshift64* stream so any failure reproduces exactly.

use p5repro::core::{CoreConfig, SmtCore};
use p5repro::experiments::campaign::{cell_key, Campaign, CampaignSpec, CellSpec};
use p5repro::experiments::journal::measured_to_json;
use p5repro::experiments::Experiments;
use p5repro::fame::{FameConfig, FameRunner};
use p5repro::isa::{Priority, ThreadId};
use p5repro::microbench::MicroBenchmark;

/// Deterministic xorshift64* generator (the simulator's own family).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }
}

fn bench(name: &str) -> p5repro::isa::Program {
    MicroBenchmark::from_name(name)
        .unwrap_or_else(|| panic!("unknown microbenchmark {name}"))
        .program()
}

/// Everything observable about a finished core, as one comparable
/// string (full stats ledgers, memory and branch counters, PMU stacks,
/// hardware counters and samples).
fn observable(core: &mut SmtCore) -> String {
    let pmu = match core.take_pmu() {
        Some(p) => format!(
            "stacks={:?} counters={:?} samples={:?}",
            [p.stack(ThreadId::T0), p.stack(ThreadId::T1)],
            p.counters(),
            p.samples(),
        ),
        None => "none".to_owned(),
    };
    format!(
        "cycle={} stats={:?} mem={:?} branch={:?} pmu={pmu}",
        core.cycle(),
        core.stats(),
        core.mem().stats(),
        core.branch_stats(),
    )
}

/// Random priority pairs x random fault schedules (decode stalls,
/// cache-port blocks, LMQ saturation, priority rewrites), skip on vs
/// off: every observable must match bit-for-bit. Faults are injected
/// directly between `run_cycles` chunks so the skip engages *inside*
/// the faulted windows.
#[test]
fn idle_skip_is_bit_identical_under_random_faults() {
    let benches = ["cpu_int", "ldint_l2", "cpu_fp", "ldint_mem"];
    for case in 0..8u64 {
        let run = |skip: bool| {
            // Both sides re-derive the identical schedule from the seed.
            let mut rng = Rng::new(0x1D1E_5C1F ^ (case << 8));
            let mut cfg = CoreConfig::tiny_for_tests();
            cfg.plan.idle_skip = skip;
            let mut core = SmtCore::new(cfg);
            core.load_program(ThreadId::T0, bench(benches[(rng.next() % 4) as usize]));
            core.load_program(ThreadId::T1, bench(benches[(rng.next() % 4) as usize]));
            core.set_priority(
                ThreadId::T0,
                Priority::from_level(rng.range(0, 7) as u8).unwrap(),
            );
            core.set_priority(
                ThreadId::T1,
                Priority::from_level(rng.range(0, 7) as u8).unwrap(),
            );
            core.enable_pmu(p5repro::pmu::PmuConfig::sampling(rng.range(50, 500)));
            for _ in 0..5 {
                match rng.next() % 4 {
                    0 => {
                        let t = if rng.next().is_multiple_of(2) {
                            ThreadId::T0
                        } else {
                            ThreadId::T1
                        };
                        core.inject_decode_stall(t, rng.range(100, 3_000));
                    }
                    1 => core.inject_cache_port_block(rng.range(100, 2_000)),
                    2 => core.inject_lmq_block(rng.range(100, 2_000)),
                    _ => {
                        let t = if rng.next().is_multiple_of(2) {
                            ThreadId::T0
                        } else {
                            ThreadId::T1
                        };
                        core.set_priority(t, Priority::from_level(rng.range(1, 6) as u8).unwrap());
                    }
                }
                core.run_cycles(rng.range(500, 6_000));
            }
            observable(&mut core)
        };
        assert_eq!(run(true), run(false), "case {case} diverged");
    }
}

/// A full FAME measurement (warmup + repetition harvesting + interval
/// estimates) is bit-identical with the skip on: `ThreadMeasurement`s
/// compare equal field-for-field, including the IEEE-754 bits inside.
#[test]
fn idle_skip_preserves_thread_measurements() {
    for (primary, secondary, (p, s)) in [
        ("cpu_int", Some("ldint_l2"), (6u8, 1u8)), // the starved corner
        ("ldint_mem", None, (4, 4)),
        ("cpu_int", Some("cpu_fp"), (2, 5)),
    ] {
        let measure = |skip: bool| {
            let mut cfg = CoreConfig::tiny_for_tests();
            cfg.plan.idle_skip = skip;
            let mut core = SmtCore::new(cfg);
            core.load_program(ThreadId::T0, bench(primary));
            if let Some(name) = secondary {
                core.load_program(ThreadId::T1, bench(name));
                core.set_priority(ThreadId::T0, Priority::from_level(p).unwrap());
                core.set_priority(ThreadId::T1, Priority::from_level(s).unwrap());
            }
            FameRunner::new(FameConfig::quick())
                .try_measure(&mut core)
                .expect("measurement completes")
        };
        let on = measure(true);
        let off = measure(false);
        assert_eq!(on, off, "({primary},{secondary:?}) at ({p},{s}) diverged");
    }
}

/// Campaign-level identity: cells measured under `+noskip` journal the
/// same `cell_key` AND the same serialized payload bytes as skip-on
/// cells — so a cache populated either way serves the other.
#[test]
fn idle_skip_preserves_journal_cell_payloads() {
    let cells = || {
        vec![
            CellSpec::single("ST cpu_int", bench("cpu_int")),
            CellSpec::pair(
                "(cpu_int,ldint_l2) at (6,1)",
                bench("cpu_int"),
                bench("ldint_l2"),
                (
                    Priority::from_level(6).unwrap(),
                    Priority::from_level(1).unwrap(),
                ),
            ),
        ]
    };
    let run = |skip: bool| {
        let mut core = CoreConfig::tiny_for_tests();
        core.plan.idle_skip = skip;
        let ctx = Experiments::with_configs(core, FameConfig::quick());
        let spec = CampaignSpec {
            cells: cells(),
            jobs: 1,
            seed: ctx.core.rng_seed,
            reuse_warmup: false,
        };
        let keys: Vec<_> = spec
            .cells
            .iter()
            .enumerate()
            .map(|(id, cell)| cell_key(&ctx, &spec, id, cell))
            .collect();
        let result = Campaign::run(&ctx, &spec);
        let payloads: Vec<String> = result
            .cells
            .iter()
            .map(|c| measured_to_json(&c.measured).to_string())
            .collect();
        (keys, payloads)
    };
    let (keys_on, payloads_on) = run(true);
    let (keys_off, payloads_off) = run(false);
    assert_eq!(
        keys_on, keys_off,
        "skip on/off must share content-addressed keys (the flag is normalized out)"
    );
    assert_eq!(
        payloads_on, payloads_off,
        "journaled payload bytes must be identical"
    );
}

/// Cancellation: the skip is clamped to every caller's chunk budget, so
/// an expired deadline token still aborts at the next chunk boundary —
/// the core cannot leap the whole warmup budget in one jump past the
/// cancellation check.
#[test]
fn deadline_fires_within_one_horizon_jump() {
    let mut cfg = CoreConfig::tiny_for_tests();
    assert!(cfg.plan.idle_skip, "skip defaults on");
    // A memory-bound thread with its sibling absent: long idle spans
    // between misses — the skip's favourite terrain.
    cfg.lmq_entries = 1;
    let mut core = SmtCore::new(cfg);
    core.load_program(ThreadId::T0, bench("ldint_mem"));
    let runner = FameRunner::new(FameConfig::quick()).with_cancel(
        p5repro::core::CancelToken::with_budget(std::time::Duration::ZERO),
    );
    let err = runner
        .warm_only(&mut core)
        .expect_err("expired deadline must abort the warmup");
    assert!(
        matches!(err, p5repro::core::SimError::Deadline { phase: "warmup" }),
        "{err:?}"
    );
    // The warmup checks the token every 4096-cycle chunk, and a jump
    // never exceeds the remaining chunk budget: the deadline fired
    // within one chunk's worth of simulated time.
    assert!(
        core.cycle() <= 4_096,
        "skip must not leap past the cancellation boundary: cycle {}",
        core.cycle()
    );
}
