//! PMU accounting contract, end to end: over seeded random
//! configurations — including runs under injected faults — every
//! per-thread CPI stack reconciles against the observed cycles, decode
//! slot counters partition the cycle budget, and interval samples sum
//! back to the cumulative stacks.

use p5repro::core::{CoreConfig, SmtCore};
use p5repro::fault::{check_invariants, FaultInjector, FaultPlan, FaultRng};
use p5repro::isa::{Priority, ThreadId};
use p5repro::microbench::MicroBenchmark;
use p5repro::pmu::PmuConfig;

/// Seed-driven pick of a benchmark pair, priority pair and sampling
/// interval. Uses the fault crate's deterministic RNG so failures name a
/// reproducible seed.
fn pick(rng: &mut FaultRng) -> (MicroBenchmark, MicroBenchmark, (u8, u8), u64) {
    let presented = MicroBenchmark::PRESENTED;
    // `FaultRng::range` draws from the inclusive range `lo..=hi`.
    let a = presented[rng.range(0, presented.len() as u64 - 1) as usize];
    let b = presented[rng.range(0, presented.len() as u64 - 1) as usize];
    let pa = rng.range(1, 6) as u8;
    let pb = rng.range(1, 6) as u8;
    let interval = [0u64, 256, 1_024][rng.range(0, 2) as usize];
    (a, b, (pa, pb), interval)
}

fn configured_core(seed: u64) -> SmtCore {
    // Alternate between the paper-shaped core and the tiny test core so
    // both memory geometries are exercised.
    if seed.is_multiple_of(2) {
        SmtCore::new(CoreConfig::power5_like())
    } else {
        SmtCore::new(CoreConfig::tiny_for_tests())
    }
}

#[test]
fn cpi_stacks_reconcile_over_seeded_configs() {
    const CYCLES: u64 = 32_768; // multiple of every sampling interval
    for seed in 0..15u64 {
        let mut rng = FaultRng::new(seed);
        let (a, b, (pa, pb), interval) = pick(&mut rng);
        let mut core = configured_core(seed);
        core.load_program(ThreadId::T0, a.program());
        core.load_program(ThreadId::T1, b.program());
        core.set_priority(ThreadId::T0, Priority::from_level(pa).unwrap());
        core.set_priority(ThreadId::T1, Priority::from_level(pb).unwrap());
        core.run_cycles(2_048);
        core.enable_pmu(if interval == 0 {
            PmuConfig::counters_only()
        } else {
            PmuConfig::sampling(interval)
        });
        core.try_run_cycles(CYCLES)
            .unwrap_or_else(|e| panic!("seed {seed} ({a} vs {b} @ ({pa},{pb})): {e}"));
        let pmu = core.take_pmu().expect("enabled above");

        assert_eq!(pmu.cycles(), CYCLES, "seed {seed}");
        pmu.reconcile()
            .unwrap_or_else(|e| panic!("seed {seed} ({a} vs {b} @ ({pa},{pb})): {e}"));

        // Decode slot counters partition the cycle budget: at most one
        // designated thread per cycle, and a grant can only be used or
        // stolen once.
        let c = pmu.counters();
        let granted: u64 = c.decode_granted.iter().sum();
        let used: u64 = c.decode_used.iter().sum();
        let stolen: u64 = c.decode_stolen.iter().sum();
        assert!(granted <= CYCLES, "seed {seed}: granted {granted}");
        assert!(
            used <= granted,
            "seed {seed}: used {used} > granted {granted}"
        );
        assert!(stolen <= granted, "seed {seed}: stolen {stolen}");

        if let Some(expected_samples) = CYCLES.checked_div(interval) {
            assert_eq!(pmu.samples_dropped(), 0, "seed {seed}");
            assert_eq!(pmu.samples().len() as u64, expected_samples, "seed {seed}");
            // Interval samples are deltas; over a run that is a whole
            // number of intervals they sum back to the cumulative stack.
            for t in ThreadId::ALL {
                let i = t.index();
                let mut summed = [0u64; 8];
                for s in pmu.samples() {
                    for (acc, n) in summed.iter_mut().zip(s.components[i].counts()) {
                        *acc += n;
                    }
                }
                assert_eq!(
                    summed,
                    *pmu.stack(t).counts(),
                    "seed {seed} {t}: samples disagree with cumulative stack"
                );
            }
        }
    }
}

#[test]
fn cpi_stacks_reconcile_under_injected_faults() {
    for seed in 100..105u64 {
        let mut cfg = CoreConfig::tiny_for_tests();
        cfg.watchdog_stall_cycles = 20_000;
        cfg.try_validate().expect("legal config");
        let mut core = SmtCore::new(cfg);
        core.load_program(ThreadId::T0, MicroBenchmark::CpuInt.program());
        core.load_program(ThreadId::T1, MicroBenchmark::LdintL2.program());
        core.enable_pmu(PmuConfig::sampling(512));

        let plan = FaultPlan::generate(seed, 40_000, 4);
        let injector = FaultInjector::new(plan);
        // Any of the documented outcomes is acceptable here; the PMU's
        // books must balance regardless of how the run ended.
        let outcome = injector.run(&mut core, [500, 500], 60_000);

        let observed = core.cycle();
        let pmu = core.take_pmu().expect("enabled above");
        assert_eq!(pmu.cycles(), observed, "seed {seed}: PMU saw every cycle");
        pmu.reconcile()
            .unwrap_or_else(|e| panic!("seed {seed} (outcome {outcome:?}): {e}"));
        if let Err(violations) = check_invariants(&core) {
            panic!("seed {seed}: pipeline invariants violated: {violations:?}");
        }
    }
}
