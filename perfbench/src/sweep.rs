//! `sweep_detailed`: the offline priority sweep `repro` spends its time
//! on — `Campaign::run_observed` at quick fidelity, default detailed
//! plan, no journal, two workers.

use crate::cells::{self, CellDef, Reference};
use crate::report::{peak_rss_mb, Report};
use crate::traced::{TraceInputs, TracedRequest};
use crate::{stats, Expected, JOBS};
use p5_core::ExecutionPlan;
use p5_experiments::campaign::{Campaign, CampaignEvent, CampaignSpec, CellSpec};
use p5_experiments::Experiments;
use p5_serve::protocol::{CampaignRequest, Fidelity};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// Tail percentile of the cell times: the highest a pass of 62 cells
/// supports with ten samples beyond it.
const TAIL: f64 = 75.0;

/// Cells of the pass the traced run replays (both Figure 5 cells first).
const TRACE_CELLS: usize = 40;

/// Requests the traced client sends for replayed micro-benchmark cells.
const TRACE_REQUESTS: usize = 40;

/// The context, the reference table, and every cell a pass can draw,
/// built once: programs are what every campaign user builds first.
struct Setup {
    ctx: Experiments,
    reference: Reference,
    universe: HashMap<String, CellSpec>,
}

fn setup() -> Result<Setup, String> {
    Ok(Setup {
        ctx: Experiments::quick().with_jobs(JOBS),
        reference: Reference::load(&crate::bench_file("reference_quick.tsv"))?,
        universe: cells::sweep_universe()
            .into_iter()
            .map(|(_, c)| (c.name(), c.spec()))
            .collect(),
    })
}

pub fn timed(
    seed: u64,
    seconds: f64,
    expected: &Expected,
    report: &mut Report,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = setup()?;
        setups.push(t0.elapsed().as_secs_f64());
        ready = Some(s);
    }
    let Setup {
        ctx,
        reference,
        universe,
    } = ready.expect("at least one set-up");

    // The run repeats one seeded pass; every repetition simulates the
    // same cells, so each cell's least-disturbed time can be kept.
    let pass: Vec<String> = cells::sweep_pass(seed, &reference)
        .iter()
        .map(CellDef::name)
        .collect();
    let spec = CampaignSpec {
        cells: pass.iter().map(|name| universe[name].clone()).collect(),
        jobs: JOBS,
        seed: ctx.core.rng_seed,
        reuse_warmup: false,
    };
    let mut best_ms = vec![f64::INFINITY; pass.len()];
    let (mut occupancy, mut wall_rates) = (Vec::new(), Vec::new());
    let mut cycles = 0u64;
    let mut elapsed = 0.0;
    for index in 0u64.. {
        let started: Mutex<Vec<Option<Instant>>> = Mutex::new(vec![None; pass.len()]);
        let took: Mutex<Vec<f64>> = Mutex::new(vec![f64::INFINITY; pass.len()]);
        let t0 = Instant::now();
        let result = Campaign::run_observed(&ctx, &spec, |event| match *event {
            CampaignEvent::CellStarted { id, .. } => {
                started.lock().expect("event lock")[id] = Some(Instant::now());
            }
            CampaignEvent::CellFinished { id, .. } => {
                if let Some(s) = started.lock().expect("event lock")[id] {
                    took.lock().expect("event lock")[id] = s.elapsed().as_secs_f64() * 1e3;
                }
            }
        });
        let secs = t0.elapsed().as_secs_f64();
        elapsed += secs;
        let took = took.into_inner().expect("event lock");
        for (best, &ms) in best_ms.iter_mut().zip(&took) {
            *best = best.min(ms);
        }
        occupancy.push(took.iter().sum::<f64>() / (1e3 * secs * JOBS as f64));
        wall_rates.push(pass.len() as f64 / secs);

        let mut digests = Vec::with_capacity(pass.len());
        for (name, cell) in pass.iter().zip(&result.cells) {
            let ok = reference.matches(name, &cell.measured);
            report.attempt(ok);
            report.check(
                ok,
                format!("pass {index}: {name} differs from the reference"),
            );
            if index == 0 {
                cycles += cells::cycles(&cell.measured);
            }
            digests.push(cells::cell_digest(&cell.measured));
        }
        if index == 0 {
            expected.check(report, "sweep_detailed", seed, cells::run_digest(digests));
        }
        // Stop where the run ends closest to `seconds`.
        let per_pass = elapsed / (index + 1) as f64;
        if elapsed + per_pass / 2.0 >= seconds {
            break;
        }
    }

    // The host's speed drifts over 10-30 s stretches, so each cell is
    // timed at its least-disturbed repetition, and the campaign's
    // throughput is that work spread over the workers at the occupancy
    // the passes measured (stragglers and idle workers still count).
    let work_s: f64 = best_ms.iter().sum::<f64>() / 1e3;
    let occupied = stats::median(&occupancy);
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    report.note(format!(
        "{} passes of {} cells in {elapsed:.3} s; wall-clock cells/s per pass: {}; worker occupancy: {}",
        wall_rates.len(),
        pass.len(),
        list(&wall_rates),
        list(&occupancy)
    ));
    let rate = |n: f64| n * JOBS as f64 * occupied / work_s;
    let detail = format!(
        "best of {} repetitions per cell, occupancy {occupied:.3}",
        wall_rates.len()
    );
    report.metric_n(
        "setup_s",
        stats::median(&setups),
        "s",
        &format!("median of {SETUP_REPS} set-ups"),
    );
    report.metric_n("cells_per_s", rate(pass.len() as f64), "cells/s", &detail);
    report.metric_n("sim_cycles_per_s", rate(cycles as f64), "cycles/s", &detail);
    report.median("req_p50_ms", &best_ms, "ms");
    report.tail("req_tail_ms", &best_ms, TAIL, "ms");
    let rss = peak_rss_mb();
    report.check(rss > 0.0, "peak RSS unreadable");
    report.metric("peak_rss_mb", rss, "MB");
    Ok(())
}

pub fn trace_inputs(seed: u64) -> Result<TraceInputs, String> {
    let reference = Reference::load(&crate::bench_file("reference_quick.tsv"))?;
    let cells: Vec<CellDef> = cells::sweep_pass(seed, &reference)
        .into_iter()
        .take(TRACE_CELLS)
        .collect();
    let micro: Vec<&CellDef> = cells.iter().filter(|c| c.request().is_some()).collect();
    let mut rng = cells::Rng::new(seed, 0x7EACE);
    let requests = (0..TRACE_REQUESTS)
        .map(|_| {
            let mut pick = micro.clone();
            rng.shuffle(&mut pick);
            pick.truncate(1 + rng.below(8));
            TracedRequest {
                request: CampaignRequest {
                    fidelity: Fidelity::Quick,
                    grid: None,
                    cells: pick.iter().filter_map(|c| c.request()).collect(),
                    seed: None,
                    plan: ExecutionPlan::detailed(),
                    cache: true,
                },
                names: pick.iter().map(|c| c.name()).collect(),
                hit: true,
            }
        })
        .collect();
    Ok(TraceInputs {
        ctx: Experiments::quick(),
        cells,
        jobs: JOBS,
        requests,
        journal_dir: Some(crate::scratch_dir("sweep-trace")?),
        reference,
    })
}
