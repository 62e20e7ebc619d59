//! Crash-safety contract for the campaign engine: a panicking cell is
//! isolated at the cell boundary (neighbors stay bit-identical), a
//! per-cell deadline degrades only the overrunning cell and is never
//! journaled, an expired campaign budget skips cleanly, and a
//! mid-campaign abort leaves a valid partial result.

use p5repro::core::{CancelToken, CoreConfig, SimError};
use p5repro::experiments::campaign::{Campaign, CampaignSpec, CellSpec};
use p5repro::experiments::journal::ResultJournal;
use p5repro::experiments::{CellStatus, Experiments};
use p5repro::fame::FameConfig;
use p5repro::fault::ChaosPlan;
use p5repro::isa::{Op, Priority, Program, Reg, StaticInst, ThreadId};
use std::sync::Arc;
use std::time::Duration;

/// A fast context on the tiny test core, mirroring the determinism
/// suite's policy so cells finish in milliseconds.
fn ctx(jobs: usize) -> Experiments {
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
}

fn cpu_program(iters: u64) -> Program {
    let mut b = Program::builder("cpu");
    for i in 0..10 {
        b.push(StaticInst::new(Op::IntAlu).dst(Reg::new(32 + i)));
    }
    b.iterations(iters);
    b.build().unwrap()
}

fn cells(n: usize) -> Vec<CellSpec> {
    let default = Priority::from_level(4).unwrap();
    (0..n)
        .map(|i| {
            CellSpec::pair(
                format!("cell{i}"),
                cpu_program(60 + i as u64),
                cpu_program(90),
                (default, default),
            )
        })
        .collect()
}

#[test]
fn panicking_cell_is_isolated_and_neighbors_stay_bit_identical() {
    let baseline = {
        let c = ctx(1);
        Campaign::run(&c, &CampaignSpec::for_ctx(&c, cells(6)))
    };
    for jobs in [1, 4] {
        let c = ctx(jobs).with_chaos(ChaosPlan::new().panic_cell(2));
        let result = Campaign::run(&c, &CampaignSpec::for_ctx(&c, cells(6)));
        assert_eq!(result.cells.len(), 6, "every cell produced an outcome");
        for (out, base) in result.cells.iter().zip(&baseline.cells) {
            if out.id == 2 {
                assert_eq!(out.measured.status, CellStatus::Crashed);
                assert!(
                    matches!(out.measured.error, Some(SimError::CellPanic { .. })),
                    "crashed cell carries the panic payload, got {:?}",
                    out.measured.error
                );
                assert!(out.measured.is_degraded());
            } else {
                assert_eq!(
                    out.measured.status, base.measured.status,
                    "cell {} at {jobs} jobs",
                    out.label
                );
                for t in [ThreadId::T0, ThreadId::T1] {
                    assert_eq!(
                        out.measured.ipc(t).map(f64::to_bits),
                        base.measured.ipc(t).map(f64::to_bits),
                        "cell {} thread {t:?}: neighbors of a crashed cell \
                         must be bit-identical to a crash-free run",
                        out.label
                    );
                }
            }
        }
        assert_eq!(result.skipped, 0, "a panic does not cancel the campaign");
    }
}

#[test]
fn zero_cell_deadline_degrades_every_cell_but_finishes_the_campaign() {
    let c = ctx(1).with_cell_deadline(Duration::ZERO);
    let result = Campaign::run(&c, &CampaignSpec::for_ctx(&c, cells(3)));
    assert_eq!(result.cells.len(), 3);
    for out in &result.cells {
        assert_eq!(
            out.measured.status,
            CellStatus::Degraded,
            "cell {}: an overrunning cell degrades, it does not abort",
            out.label
        );
        assert!(
            matches!(out.measured.error, Some(SimError::Deadline { .. })),
            "cell {} carries the deadline diagnosis, got {:?}",
            out.label,
            out.measured.error
        );
    }
    assert_eq!(result.skipped, 0, "the campaign itself was never cancelled");
}

/// A cell's own wall-clock deadline depends on the host, so the
/// degradation it causes is reported but never journaled: a later run
/// on the same journal simulates the cell instead of replaying it.
#[test]
fn a_cell_deadline_degradation_is_never_journaled() {
    let journal = Arc::new(ResultJournal::in_memory());
    let c = ctx(1)
        .with_cell_deadline(Duration::ZERO)
        .with_journal(Arc::clone(&journal));
    let degraded = Campaign::run(&c, &CampaignSpec::for_ctx(&c, cells(3)));
    for out in &degraded.cells {
        assert_eq!(
            out.measured.status,
            CellStatus::Degraded,
            "cell {}",
            out.label
        );
        assert!(
            matches!(out.measured.error, Some(SimError::Deadline { .. })),
            "cell {} carries the deadline diagnosis, got {:?}",
            out.label,
            out.measured.error
        );
    }
    assert_eq!(
        journal.cell_count(),
        0,
        "no deadline degradation is journaled"
    );

    let c = ctx(1).with_journal(journal);
    let after = Campaign::run(&c, &CampaignSpec::for_ctx(&c, cells(3)));
    let fresh = {
        let c = ctx(1);
        Campaign::run(&c, &CampaignSpec::for_ctx(&c, cells(3)))
    };
    assert_eq!(after.replayed, 0, "nothing was there to replay");
    for (out, clean) in after.cells.iter().zip(&fresh.cells) {
        assert_eq!(out.measured.status, CellStatus::Ok, "cell {}", out.label);
        assert!(!out.replayed, "cell {} was simulated", out.label);
        assert_eq!(
            format!("{:?}", out.measured),
            format!("{:?}", clean.measured),
            "cell {} is bit-equal to a fresh run",
            out.label
        );
    }
}

#[test]
fn expired_campaign_budget_skips_every_cell() {
    let token = CancelToken::with_budget(Duration::ZERO);
    let c = ctx(4).with_cancel(token.clone());
    let result = Campaign::run(&c, &CampaignSpec::for_ctx(&c, cells(5)));
    assert_eq!(result.cells.len(), 5, "skipped cells still report outcomes");
    for out in &result.cells {
        assert_eq!(
            out.measured.status,
            CellStatus::Skipped,
            "cell {}",
            out.label
        );
        assert!(out.measured.report.is_none(), "a skipped cell has no data");
    }
    assert_eq!(result.skipped, 5);
    assert!(token.expired());
}

#[test]
fn chaos_abort_stops_the_campaign_midway_with_a_valid_partial_result() {
    let token = CancelToken::new();
    let c = ctx(1)
        .with_cancel(token.clone())
        .with_chaos(ChaosPlan::new().abort_at(3));
    let result = Campaign::run(&c, &CampaignSpec::for_ctx(&c, cells(6)));
    assert_eq!(result.cells.len(), 6);
    // At one job, cells run in index order: everything before the abort
    // index completed, everything from it on was skipped.
    for out in &result.cells {
        if out.id < 3 {
            assert_eq!(out.measured.status, CellStatus::Ok, "cell {}", out.label);
        } else {
            assert_eq!(
                out.measured.status,
                CellStatus::Skipped,
                "cell {}: the abort cell and its successors never run",
                out.label
            );
        }
    }
    assert_eq!(result.skipped, 3);
    assert!(token.is_cancelled(), "the abort fired through the token");
}
