//! Contract of shared cells (DESIGN.md §12): a campaign simulates each
//! distinct cell identity once and gives that result to every cell
//! that shares it.
//!
//! A cell's identity is what `cell_key` hashes. Within one campaign the
//! configurations are common to every cell, so two cells with one
//! identity have one result, and sharing it must not change a bit. The
//! lowest id of a group runs the whole per-cell flow: chaos, replay,
//! panic isolation and the journal. The other ids run nothing, keep
//! their own id and label, and each still gets one `CellStarted` and
//! one `CellFinished` event. A chaos fault scheduled on any id of a
//! group fires on the group's one run.
//!
//! The `jobs = 2` rows run two workers only on a host with at least two
//! CPUs: `parallel_map` clamps the worker count to the host's available
//! parallelism, so on one CPU they repeat the serial schedule.

use p5repro::experiments::campaign::{
    cell_key, Campaign, CampaignEvent, CampaignResult, CampaignSpec, CellFaults, CellOutcome,
    CellSpec,
};
use p5repro::experiments::journal::ResultJournal;
use p5repro::experiments::{CellStatus, Experiments};
use p5repro::fault::ChaosPlan;
use p5repro::isa::Priority;
use p5repro::microbench::MicroBenchmark;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};

/// The fast context on the tiny test core (mirrors `tests/determinism.rs`).
fn ctx(jobs: usize) -> Experiments {
    Experiments::with_configs(
        p5repro::core::CoreConfig::tiny_for_tests(),
        p5repro::fame::FameConfig {
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

/// Ids 0 and 4 are one clean pair, ids 1 and 5 one pair under one fault
/// schedule, ids 2 and 6 one pair whose `br_miss` draws from the seeded
/// RNG (so their per-cell seeds keep them apart), and id 3 stands alone.
fn cells() -> Vec<CellSpec> {
    let (high, low) = (
        Priority::from_level(6).unwrap(),
        Priority::from_level(2).unwrap(),
    );
    let pair = |label: &str, primary: MicroBenchmark| {
        CellSpec::pair(
            label,
            primary.program_with_iterations(300),
            MicroBenchmark::CpuInt.program_with_iterations(300),
            (high, low),
        )
    };
    let faults = CellFaults {
        seed: 0xFA_57,
        count: 3,
        horizon: 30_000,
    };
    vec![
        pair("clean", MicroBenchmark::LdintL2),
        pair("faulted", MicroBenchmark::LdintL2).with_faults(faults),
        pair("rng", MicroBenchmark::BrMiss),
        CellSpec::single(
            "single",
            MicroBenchmark::LdintL1.program_with_iterations(300),
        ),
        pair("clean again", MicroBenchmark::LdintL2),
        pair("faulted again", MicroBenchmark::LdintL2).with_faults(faults),
        pair("rng again", MicroBenchmark::BrMiss),
    ]
}

fn spec(ctx: &Experiments, reuse: bool) -> CampaignSpec {
    CampaignSpec {
        cells: cells(),
        jobs: ctx.jobs,
        seed: 0x5EED,
        reuse_warmup: reuse,
    }
}

/// Everything a cell measured. `Debug` prints each `f64` in its
/// shortest round-trip form, so equal text means equal bits.
fn bits(outcome: &CellOutcome) -> String {
    format!("{:?}", outcome.measured)
}

fn all_bits(result: &CampaignResult) -> Vec<String> {
    result.cells.iter().map(bits).collect()
}

#[test]
fn sharing_is_bit_identical_at_every_worker_count() {
    let reference = Campaign::run(&ctx(1), &spec(&ctx(1), false));
    let expected = all_bits(&reference);
    assert_eq!(expected[0], expected[4], "one identity, one result");
    assert_eq!(expected[1], expected[5], "one fault schedule, one result");
    assert_ne!(
        expected[2], expected[6],
        "the RNG twins draw different branch outcomes, so merging them would show"
    );
    for jobs in [1, 2] {
        for reuse in [false, true] {
            let c = ctx(jobs);
            let events = Mutex::new(HashMap::<usize, (usize, usize)>::new());
            let result = Campaign::run_observed(&c, &spec(&c, reuse), |event| {
                let mut events = events.lock().unwrap();
                match *event {
                    CampaignEvent::CellStarted { id, .. } => events.entry(id).or_default().0 += 1,
                    CampaignEvent::CellFinished { id, .. } => events.entry(id).or_default().1 += 1,
                }
            });
            let row = format!("jobs={jobs} reuse={reuse}");
            assert_eq!(all_bits(&result), expected, "{row}");
            for (id, (cell, base)) in result.cells.iter().zip(&reference.cells).enumerate() {
                assert_eq!((cell.id, &cell.label), (id, &base.label), "{row}");
                assert!(!cell.replayed, "{row}: no journal, nothing replayed");
            }
            let events = events.into_inner().unwrap();
            assert_eq!(events.len(), 7, "{row}: every id reports");
            assert!(
                events.values().all(|&counts| counts == (1, 1)),
                "{row}: one start and one finish per id, got {events:?}"
            );
            assert_eq!(result.recovered, reference.recovered, "{row}");
            assert_eq!(result.degraded, reference.degraded, "{row}");
            assert_eq!(result.counts(), reference.counts(), "{row}");
        }
    }
}

#[test]
fn chaos_on_any_copy_fires_on_the_groups_run() {
    for jobs in [1, 2] {
        let run = |victim: usize| {
            let c = ctx(jobs).with_chaos(ChaosPlan::new().panic_cell(victim));
            Campaign::run(&c, &spec(&c, true))
        };
        // Id 4 shares id 0's simulation, so a panic scheduled on the
        // copy fires on that one run and crashes the whole group.
        let copy = run(4);
        // A panic in the group's lowest id is the group's outcome too.
        let lowest = run(0);
        for result in [&copy, &lowest] {
            for id in [0, 4] {
                assert_eq!(
                    result.cells[id].measured.status,
                    CellStatus::Crashed,
                    "jobs={jobs} id={id}"
                );
            }
            for cell in result.cells.iter().filter(|c| ![0, 4].contains(&c.id)) {
                assert_ne!(cell.measured.status, CellStatus::Crashed, "jobs={jobs}");
            }
        }
    }
}

#[test]
fn a_fresh_journal_records_each_identity_once_and_replays_nothing() {
    let expected = all_bits(&Campaign::run(&ctx(1), &spec(&ctx(1), false)));
    for jobs in [1, 2] {
        let dir =
            std::env::temp_dir().join(format!("p5-shared-cells-{}-{jobs}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = ResultJournal::create(&dir).expect("journal dir");
        let c = ctx(jobs).with_journal(Arc::new(journal));
        let spec = spec(&c, true);
        let result = Campaign::run(&c, &spec);
        assert_eq!(all_bits(&result), expected, "jobs={jobs}");
        for cell in &result.cells {
            assert!(
                !cell.replayed,
                "jobs={jobs}: cell {} came from no earlier run",
                cell.label
            );
        }
        assert_eq!(result.replayed, 0, "jobs={jobs}");
        let keys: HashSet<_> = (spec.cells.iter().enumerate())
            .map(|(id, cell)| cell_key(&c, &spec, id, cell))
            .collect();
        assert_eq!(keys.len(), 5, "two merged pairs among seven cells");
        let text = std::fs::read_to_string(dir.join(ResultJournal::FILE_NAME)).unwrap();
        assert_eq!(
            text.lines().filter(|line| !line.trim().is_empty()).count(),
            keys.len(),
            "jobs={jobs}: one journal line per distinct key"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
