//! Spans recorded from outside the program: the benchmark times each
//! call it makes into a layer's public API, and the traced run splits
//! its wall time into per-layer self time plus `other`.
//!
//! Spans never nest (each wraps one leaf call), so a span's self time is
//! its duration, and `other` — wall time minus every span — is whatever
//! no layer accounts for: the benchmark's own bookkeeping.

use crate::cells::{Bench, CellDef, Class};
use p5_core::{SimError, SmtCore};
use p5_experiments::campaign::{cell_key, derive_cell_seed, CampaignSpec, CellSpec};
use p5_experiments::journal::ResultJournal;
use p5_experiments::{CellStatus, Experiments, Measured};
use p5_fame::{FameConfig, FameReport, FameRunner};
use p5_isa::ThreadId;
use std::collections::BTreeMap;
use std::time::Instant;

/// Collects spans: per-layer self time and per-metric samples, in
/// nanoseconds. A disabled tracer runs the same calls without timing
/// them, which is the untraced baseline for the tracing overhead.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    layers: BTreeMap<&'static str, u128>,
    samples: BTreeMap<&'static str, Vec<u128>>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            ..Tracer::default()
        }
    }

    /// Runs `f` as one span of `layer`, recorded under `metric`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        metric: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos();
        *self.layers.entry(layer).or_default() += ns;
        self.samples.entry(metric).or_default().push(ns);
        out
    }

    /// Adds to an exact counter.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_default() += n;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Every sample of `metric`, in nanoseconds.
    pub fn samples(&self, metric: &str) -> &[u128] {
        self.samples.get(metric).map_or(&[], Vec::as_slice)
    }

    /// Self time of every layer that recorded a span.
    pub fn layers(&self) -> &BTreeMap<&'static str, u128> {
        &self.layers
    }
}

/// Time and cycles one layer call spent, per cell class — the base of
/// the `engine.*_cycles_per_s` ratios.
fn count_cycles(tr: &mut Tracer, class: Class, phase: &'static str, cycles: u64, ns: u128) {
    let (cyc, time) = match (phase, class) {
        ("warm", Class::Busy) => ("cycles.warm.busy", "ns.warm.busy"),
        ("warm", Class::Stall) => ("cycles.warm.stall", "ns.warm.stall"),
        (_, Class::Busy) => ("cycles.measure.busy", "ns.measure.busy"),
        (_, Class::Stall) => ("cycles.measure.stall", "ns.measure.stall"),
    };
    tr.count(cyc, cycles);
    tr.count(time, u64::try_from(ns).unwrap_or(u64::MAX));
}

/// One measurement attempt through the layer calls: fresh core,
/// programs and priorities, warm-up, measurement.
fn attempt(
    tr: &mut Tracer,
    ctx: &Experiments,
    class: Class,
    spec: &CellSpec,
    fame: FameConfig,
) -> Result<FameReport, SimError> {
    let mut core: SmtCore = tr.span("core", "core.new_ms", || ctx.try_new_core())?;
    tr.span("core", "core.load_us", || {
        core.load_program(ThreadId::T0, spec.primary.clone());
        if let Some(secondary) = &spec.secondary {
            core.load_program(ThreadId::T1, secondary.clone());
            core.set_priority(ThreadId::T0, spec.priorities.0);
            core.set_priority(ThreadId::T1, spec.priorities.1);
        }
    });
    let runner = FameRunner::new(fame);
    let t0 = Instant::now();
    let warm = tr.span("fame", "fame.warm_ms", || runner.warm_only(&mut core))?;
    count_cycles(tr, class, "warm", warm, t0.elapsed().as_nanos());
    let t0 = Instant::now();
    let report = tr.span("fame", "fame.measure_ms", || {
        runner.try_measure_restored(&mut core, warm)
    })?;
    count_cycles(
        tr,
        class,
        "measure",
        report.measured_cycles,
        t0.elapsed().as_nanos(),
    );
    Ok(report)
}

/// A cell replayed through the layers, and whether it needed the
/// escalated-budget retry.
pub struct Replayed {
    pub measured: Measured,
    pub retried: bool,
}

/// Replays cell `id` of a campaign seeded `seed` through the layer
/// calls with the cell's derived seed, following the campaign's
/// resilient path (one escalated-budget retry), then keys it and
/// records it in `journal`.
pub fn replay_cell(
    tr: &mut Tracer,
    ctx: &Experiments,
    seed: u64,
    id: usize,
    cell: &CellDef,
    journal: &ResultJournal,
) -> Replayed {
    let mut cell_ctx = ctx.clone();
    cell_ctx.core.rng_seed = derive_cell_seed(seed, id as u64);
    let (primary, secondary) = tr.span("microbench", "microbench.program_us", || {
        (cell.primary.program(), cell.secondary.map(Bench::program))
    });
    let spec = cell.spec_with(primary, secondary);
    let class = cell.class();
    let first = attempt(tr, &cell_ctx, class, &spec, ctx.fame);
    let (measured, retried) = match first {
        Ok(report) if report.converged() => (measured(Some(report), CellStatus::Ok, None), false),
        Err(e) if !e.is_retryable() => (measured(None, CellStatus::Degraded, Some(e)), false),
        first => {
            let escalated = ctx.fame.escalated(Experiments::RETRY_ESCALATION);
            let m = match attempt(tr, &cell_ctx, class, &spec, escalated) {
                Ok(report) if report.converged() => {
                    measured(Some(report), CellStatus::Recovered, None)
                }
                Ok(report) => {
                    let error = budget_error(&escalated, &report);
                    measured(Some(report), CellStatus::Degraded, Some(error))
                }
                Err(e) => measured(first.ok(), CellStatus::Degraded, Some(e)),
            };
            (m, true)
        }
    };
    let campaign = CampaignSpec {
        cells: Vec::new(),
        jobs: 1,
        seed,
        reuse_warmup: false,
    };
    let key = tr.span("campaign", "campaign.cell_key_us", || {
        cell_key(ctx, &campaign, id, &spec)
    });
    tr.span("journal", "journal.record_us", || {
        journal.record_cell(key, &measured)
    });
    Replayed { measured, retried }
}

fn measured(report: Option<FameReport>, status: CellStatus, error: Option<SimError>) -> Measured {
    Measured {
        report,
        status,
        error,
    }
}

/// The error a degraded cell reports after its escalated retry ran out
/// of budget (the same one the campaign attaches).
fn budget_error(fame: &FameConfig, report: &FameReport) -> SimError {
    SimError::BudgetExhausted {
        cycle_budget: fame.max_cycles,
        repetitions: [0, 1].map(|i| report.threads[i].map_or(0, |m| m.repetitions)),
        target: [0, 1].map(|i| {
            if report.threads[i].is_some() {
                fame.min_repetitions
            } else {
                0
            }
        }),
    }
}
