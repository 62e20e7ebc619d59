//! Contract of the warm-state checkpoint layer (DESIGN.md §12):
//! restoring a checkpoint and measuring is *bit-identical* to warming in
//! place and measuring — on both warmup engines, across the presented
//! workloads, under faults (which must opt out of sharing), and at every
//! worker count. Reuse is a wall-clock optimisation only; any observable
//! difference is a bug.

use p5repro::core::{CoreConfig, ExecutionPlan, SmtCore, WarmupMode};
use p5repro::experiments::campaign::{Campaign, CampaignSpec, CellFaults, CellSpec};
use p5repro::experiments::{export, table3, Experiments};
use p5repro::fame::{FameConfig, FameRunner};
use p5repro::isa::{Priority, ThreadId};
use p5repro::microbench::MicroBenchmark;

/// The fast context on the tiny test core (mirrors `tests/determinism.rs`).
fn ctx(jobs: usize, reuse: bool) -> Experiments {
    Experiments::with_configs(
        CoreConfig::tiny_for_tests(),
        FameConfig {
            maiv: 0.05,
            stable_window: 2,
            min_repetitions: 3,
            max_cycles: 3_000_000,
            warmup: p5repro::fame::WarmupBudget {
                min_cycles: 5_000,
                max_cycles: 300_000,
                ring_passes: 1,
            },
        },
    )
    .with_jobs(jobs)
    .with_plan(ExecutionPlan::detailed().with_warm_reuse(reuse))
}

/// Restore-then-measure equals warm-then-measure, bit for bit, for every
/// presented (Table 2) workload against `cpu_int`, on both the detailed
/// and the functional warmup engine.
#[test]
fn restored_measurement_matches_in_place_for_presented_workloads() {
    let fame = ctx(1, false).fame;
    let runner = FameRunner::new(fame);
    for mode in [WarmupMode::Detailed, WarmupMode::Functional] {
        for bench in MicroBenchmark::PRESENTED {
            let mut cfg = CoreConfig::tiny_for_tests();
            cfg.plan.warmup = mode;
            let load = |core: &mut SmtCore| {
                core.load_program(ThreadId::T0, bench.program_with_iterations(300));
                core.load_program(ThreadId::T1, MicroBenchmark::CpuInt.program_with_iterations(300));
            };

            // Reference: warm and measure in place.
            let mut reference = SmtCore::new(cfg.clone());
            load(&mut reference);
            let expected = runner.try_measure(&mut reference).unwrap();

            // Checkpoint path: warm a donor, snapshot, restore into a
            // cold core, measure from the restored state.
            let mut donor = SmtCore::new(cfg.clone());
            load(&mut donor);
            let warmup = runner.warm_only(&mut donor).unwrap();
            let snap = donor.snapshot_warm_state();
            let mut restored = SmtCore::new(cfg);
            load(&mut restored);
            restored.restore_warm_state(&snap).unwrap();
            let got = runner.try_measure_restored(&mut restored, warmup).unwrap();

            assert_eq!(got.warmup_cycles, expected.warmup_cycles, "{bench:?} {mode:?}");
            assert_eq!(
                got.measured_cycles, expected.measured_cycles,
                "{bench:?} {mode:?}"
            );
            for t in [ThreadId::T0, ThreadId::T1] {
                let (a, b) = (got.thread(t).unwrap(), expected.thread(t).unwrap());
                assert_eq!(a.repetitions, b.repetitions, "{bench:?} {mode:?} {t:?}");
                assert_eq!(
                    a.ipc.to_bits(),
                    b.ipc.to_bits(),
                    "{bench:?} {mode:?} {t:?}: IPC must be bit-identical"
                );
            }
        }
    }
}

/// A faulted cell inside a sweep of otherwise identical cells never
/// shares a checkpoint, and every cell — faulted included — produces the
/// same outcome whether reuse is on or off.
#[test]
fn faulted_cells_are_excluded_from_sharing_and_unchanged_by_it() {
    let p4 = Priority::from_level(4).unwrap();
    let run = |reuse: bool| {
        let c = ctx(1, reuse);
        let mut cells: Vec<CellSpec> = (0..3)
            .map(|i| {
                CellSpec::pair(
                    format!("clean{i}"),
                    MicroBenchmark::LdintL2.program_with_iterations(300),
                    MicroBenchmark::CpuInt.program_with_iterations(300),
                    (p4, p4),
                )
            })
            .collect();
        cells.push(
            CellSpec::pair(
                "faulted",
                MicroBenchmark::LdintL2.program_with_iterations(300),
                MicroBenchmark::CpuInt.program_with_iterations(300),
                (p4, p4),
            )
            .with_faults(CellFaults {
                seed: 0xFA_57,
                count: 3,
                horizon: 30_000,
            }),
        );
        Campaign::run(&c, &CampaignSpec::for_ctx(&c, cells))
    };
    let plain = run(false);
    let shared = run(true);
    assert_eq!(plain.cells.len(), shared.cells.len());
    for (a, b) in plain.cells.iter().zip(&shared.cells) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.measured.status, b.measured.status, "cell {}", a.label);
        for t in [ThreadId::T0, ThreadId::T1] {
            assert_eq!(
                a.measured.ipc(t).map(f64::to_bits),
                b.measured.ipc(t).map(f64::to_bits),
                "cell {} thread {t:?}: reuse must not change any bit",
                a.label
            );
        }
    }
    assert_eq!(plain.recovered, shared.recovered);
}

/// With reuse enabled, a presented artifact is byte-identical at every
/// worker count — and byte-identical to the reuse-off artifact too.
#[test]
fn table3_artifacts_are_byte_identical_with_reuse_at_any_worker_count() {
    let plain = table3::run(&ctx(1, false)).expect("plain table3");
    let serial = table3::run(&ctx(1, true)).expect("serial reuse table3");
    let parallel = table3::run(&ctx(4, true)).expect("parallel reuse table3");
    let reference_csv = export::table3_csv(&plain);
    let reference_json = export::table3_json(&plain);
    for (name, r) in [("jobs=1", &serial), ("jobs=4", &parallel)] {
        assert_eq!(
            export::table3_csv(r),
            reference_csv,
            "{name}: CSV must not depend on reuse or worker count"
        );
        assert_eq!(
            export::table3_json(r),
            reference_json,
            "{name}: JSON must not depend on reuse or worker count"
        );
    }
}
