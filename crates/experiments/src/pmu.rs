//! PMU experiment: per-cell CPI stacks and the priority-switch trace.
//!
//! Two artifacts:
//!
//! * [`run`] measures each presented micro-benchmark paired with itself
//!   at priorities (4,4) and (6,2) with the PMU enabled, and reports the
//!   per-thread CPI stack of every cell — the cycle-level *explanation*
//!   behind the IPC numbers of Table 3 and Figures 2–4. Every stack is
//!   checked to reconcile (components sum to cycles).
//! * [`priority_switch_trace`] runs a pair under the patched kernel,
//!   switches the primary thread's priority mid-run through the sysfs
//!   interface, and exports the PMU's interval samples as a Chrome
//!   trace-event JSON — the Figure-2-style transient, viewable on a
//!   timeline in `chrome://tracing` or Perfetto.

use crate::campaign::parallel_map;
use crate::{ExpError, Experiments};
use p5_isa::{Priority, ThreadId};
use p5_microbench::MicroBenchmark;
use p5_os::{Kernel, KernelMode, SysfsRequest};
use p5_pmu::json::{JsonObject, JsonValue};
use p5_pmu::{chrome_trace, CpiComponent, CpiStack, PmuConfig};
use std::fmt::Write as _;

/// Warm-up cycles before each cell's measurement window.
pub const WARM_CYCLES: u64 = 100_000;
/// Measured cycles per cell.
pub const MEASURE_CYCLES: u64 = 400_000;

/// The priority pairs each benchmark is measured under.
pub const PRIORITY_PAIRS: [(u8, u8); 2] = [(4, 4), (6, 2)];

/// One measured cell: a benchmark against itself under one priority
/// pair, with both threads' CPI stacks.
#[derive(Debug, Clone)]
pub struct PmuCell {
    /// Benchmark run on both contexts.
    pub bench: &'static str,
    /// (primary, secondary) priority levels.
    pub priorities: (u8, u8),
    /// Cycles the PMU observed.
    pub cycles: u64,
    /// Per-thread CPI stacks.
    pub stacks: [CpiStack; 2],
    /// Per-thread IPC over the measured window.
    pub ipc: [f64; 2],
    /// Why the cell is untrustworthy, if the run or the reconciliation
    /// check failed.
    pub degraded: Option<String>,
}

/// The per-cell CPI-stack artifact.
#[derive(Debug, Clone)]
pub struct PmuResult {
    /// All measured cells, benchmark-major.
    pub cells: Vec<PmuCell>,
}

impl PmuResult {
    /// Text report: one row per (cell, thread) with the stack as
    /// percentages of total cycles.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out =
            String::from("== PMU CPI stacks (each benchmark vs itself; % of cycles) ==\n");
        let _ = write!(
            out,
            "{:<16} {:>5} {:>3} {:>6}",
            "pair", "prio", "thr", "ipc"
        );
        for c in CpiComponent::ALL {
            let _ = write!(out, " {:>6}", c.short());
        }
        out.push('\n');
        for cell in &self.cells {
            for t in ThreadId::ALL {
                let i = t.index();
                let _ = write!(
                    out,
                    "{:<16} ({},{}) {:>3} {:>6.3}",
                    cell.bench, cell.priorities.0, cell.priorities.1, t, cell.ipc[i]
                );
                for c in CpiComponent::ALL {
                    let _ = write!(out, " {:>5.1}%", 100.0 * cell.stacks[i].fraction(c));
                }
                out.push('\n');
            }
        }
        let degraded: Vec<&PmuCell> = self.cells.iter().filter(|c| c.degraded.is_some()).collect();
        if degraded.is_empty() {
            let _ = writeln!(
                out,
                "all {} cells reconcile: CPI components sum to total cycles",
                self.cells.len()
            );
        } else {
            for c in degraded {
                let _ = writeln!(
                    out,
                    "DEGRADED {} ({},{}): {}",
                    c.bench,
                    c.priorities.0,
                    c.priorities.1,
                    c.degraded.as_deref().unwrap_or("unknown")
                );
            }
        }
        out
    }
}

fn measure_cell(ctx: &Experiments, bench: MicroBenchmark, prio: (u8, u8)) -> PmuCell {
    let mut cell = PmuCell {
        bench: bench.name(),
        priorities: prio,
        cycles: 0,
        stacks: [CpiStack::new(); 2],
        ipc: [0.0; 2],
        degraded: None,
    };
    let mut core = match ctx.try_new_core() {
        Ok(core) => core,
        Err(e) => {
            cell.degraded = Some(e.to_string());
            return cell;
        }
    };
    core.load_program(ThreadId::T0, bench.program());
    core.load_program(ThreadId::T1, bench.program());
    core.set_priority(ThreadId::T0, Priority::from_level(prio.0).expect("1..=6"));
    core.set_priority(ThreadId::T1, Priority::from_level(prio.1).expect("1..=6"));
    if let Err(e) = core.try_run_cycles(WARM_CYCLES) {
        cell.degraded = Some(format!("warm-up: {e}"));
        return cell;
    }
    core.reset_stats();
    core.enable_pmu(PmuConfig::counters_only());
    if let Err(e) = core.try_run_cycles(MEASURE_CYCLES) {
        cell.degraded = Some(e.to_string());
    }
    let pmu = core.take_pmu().expect("enabled above");
    if cell.degraded.is_none() {
        if let Err(e) = pmu.reconcile() {
            cell.degraded = Some(e);
        }
    }
    cell.cycles = pmu.cycles();
    cell.stacks = [*pmu.stack(ThreadId::T0), *pmu.stack(ThreadId::T1)];
    cell.ipc = [
        core.stats().ipc(ThreadId::T0),
        core.stats().ipc(ThreadId::T1),
    ];
    cell
}

/// Measures every presented benchmark against itself under
/// [`PRIORITY_PAIRS`], with reconciliation checked per cell.
///
/// # Errors
///
/// Returns [`ExpError`] only if *every* cell degrades; individual
/// degraded cells are annotated on the result.
pub fn run(ctx: &Experiments) -> Result<PmuResult, ExpError> {
    // Benchmark-major flat cell list, fanned out on the campaign
    // engine's worker pool; each cell builds its own core, so results
    // are independent of `ctx.jobs`.
    let combos: Vec<(MicroBenchmark, (u8, u8))> = MicroBenchmark::PRESENTED
        .iter()
        .flat_map(|&bench| PRIORITY_PAIRS.iter().map(move |&prio| (bench, prio)))
        .collect();
    let cells = parallel_map(ctx.jobs, combos.len(), |i| {
        let (bench, prio) = combos[i];
        measure_cell(ctx, bench, prio)
    });
    if cells.iter().all(|c| c.degraded.is_some()) {
        return Err(ExpError {
            artifact: "pmu",
            message: format!(
                "every cell degraded; first: {}",
                cells[0].degraded.as_deref().unwrap_or("unknown")
            ),
        });
    }
    Ok(PmuResult { cells })
}

/// The CPI-stack artifact as machine-readable JSON (stamped with
/// `schema_version`, see [`crate::export::SCHEMA_VERSION`]).
#[must_use]
pub fn pmu_json(r: &PmuResult) -> String {
    let cells: Vec<JsonValue> = r
        .cells
        .iter()
        .map(|cell| {
            let threads: Vec<JsonValue> = ThreadId::ALL
                .iter()
                .map(|&t| {
                    let i = t.index();
                    let mut components = JsonObject::new();
                    for c in CpiComponent::ALL {
                        components = components.field(c.name(), cell.stacks[i].get(c));
                    }
                    JsonObject::new()
                        .field("thread", t.to_string())
                        .field("ipc", cell.ipc[i])
                        .field("components", components.build())
                        .build()
                })
                .collect();
            let mut obj = JsonObject::new()
                .field("bench", cell.bench)
                .field(
                    "priorities",
                    vec![
                        JsonValue::from(u64::from(cell.priorities.0)),
                        JsonValue::from(u64::from(cell.priorities.1)),
                    ],
                )
                .field("cycles", cell.cycles)
                .field("threads", threads);
            if let Some(d) = &cell.degraded {
                obj = obj.field("degraded", d.as_str());
            }
            obj.build()
        })
        .collect();
    JsonObject::new()
        .field("schema_version", crate::export::SCHEMA_VERSION)
        .field("artifact", "pmu")
        .field("warm_cycles", WARM_CYCLES)
        .field("measure_cycles", MEASURE_CYCLES)
        .field("cells", cells)
        .build()
        .to_string()
}

/// Summary of a captured priority-switch trace.
#[derive(Debug, Clone)]
pub struct TraceCapture {
    /// Cycles the PMU observed.
    pub cycles: u64,
    /// Interval samples captured.
    pub samples: usize,
    /// Discrete events captured (priority changes, timer interrupts).
    pub events: usize,
    /// The Chrome trace-event JSON document.
    pub json: String,
}

/// Sampling interval of the priority-switch trace, in cycles.
pub const TRACE_SAMPLE_INTERVAL: u64 = 1_024;
/// Cycles run in each of the trace's three phases (4,4) → (6,4) → (4,4).
pub const TRACE_PHASE_CYCLES: u64 = 64 * TRACE_SAMPLE_INTERVAL;

/// Captures the Figure-2-style priority-switch transient: `cpu_int` vs
/// `ldint_l2` under the patched kernel, with the primary thread raised
/// to priority 6 through sysfs mid-run and restored afterwards. The
/// returned JSON loads in `chrome://tracing` / Perfetto.
///
/// # Errors
///
/// Returns [`ExpError`] if the core wedges or a sysfs write is rejected.
pub fn priority_switch_trace(ctx: &Experiments) -> Result<TraceCapture, ExpError> {
    let err = |message: String| ExpError {
        artifact: "pmu-trace",
        message,
    };
    let mut core = ctx.try_new_core().map_err(|e| err(e.to_string()))?;
    core.load_program(ThreadId::T0, MicroBenchmark::CpuInt.program());
    core.load_program(ThreadId::T1, MicroBenchmark::LdintL2.program());
    let mut kernel = Kernel::new(core, KernelMode::Patched);
    kernel
        .set_timer_interval(10_000)
        .map_err(|e| err(e.to_string()))?;
    kernel
        .core_mut()
        .enable_pmu(PmuConfig::sampling(TRACE_SAMPLE_INTERVAL));
    kernel
        .try_run_cycles(TRACE_PHASE_CYCLES)
        .map_err(|e| err(format!("phase 1 (4,4): {e}")))?;
    SysfsRequest::set_priority(ThreadId::T0, Priority::High)
        .apply(&mut kernel)
        .map_err(|e| err(e.to_string()))?;
    kernel
        .try_run_cycles(TRACE_PHASE_CYCLES)
        .map_err(|e| err(format!("phase 2 (6,4): {e}")))?;
    SysfsRequest::set_priority(ThreadId::T0, Priority::Medium)
        .apply(&mut kernel)
        .map_err(|e| err(e.to_string()))?;
    kernel
        .try_run_cycles(TRACE_PHASE_CYCLES)
        .map_err(|e| err(format!("phase 3 (4,4): {e}")))?;
    let pmu = kernel
        .core_mut()
        .take_pmu()
        .expect("pmu enabled before the run");
    pmu.reconcile().map_err(err)?;
    Ok(TraceCapture {
        cycles: pmu.cycles(),
        samples: pmu.samples().len(),
        events: pmu.events().len(),
        json: chrome_trace(&pmu, "priority-switch cpu_int/ldint_l2 4-6-4"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> Experiments {
        Experiments::with_configs(
            p5_core::CoreConfig::tiny_for_tests(),
            p5_fame::FameConfig::quick(),
        )
    }

    #[test]
    fn cells_reconcile_on_tiny_core() {
        let cell = measure_cell(&tiny_ctx(), MicroBenchmark::CpuInt, (4, 4));
        assert!(cell.degraded.is_none(), "{:?}", cell.degraded);
        assert_eq!(cell.cycles, MEASURE_CYCLES);
        for i in 0..2 {
            assert_eq!(cell.stacks[i].total(), MEASURE_CYCLES);
        }
        assert!(cell.ipc[0] > 0.0);
    }

    #[test]
    fn pmu_json_is_stamped_and_lists_cells() {
        let r = PmuResult {
            cells: vec![measure_cell(&tiny_ctx(), MicroBenchmark::CpuInt, (6, 2))],
        };
        let json = pmu_json(&r);
        assert!(json.starts_with(r#"{"schema_version":2,"artifact":"pmu""#));
        assert!(json.contains(r#""bench":"cpu_int""#));
        assert!(json.contains(r#""components":{"base":"#));
    }

    #[test]
    fn priority_switch_trace_captures_transition() {
        let capture = priority_switch_trace(&tiny_ctx()).expect("trace");
        assert_eq!(capture.cycles, 3 * TRACE_PHASE_CYCLES);
        assert_eq!(
            capture.samples,
            (3 * TRACE_PHASE_CYCLES / TRACE_SAMPLE_INTERVAL) as usize
        );
        assert!(capture.events > 0, "priority switches + timer interrupts");
        assert!(capture.json.contains(r#""name":"priority -> 6""#));
        assert!(capture.json.contains(r#""name":"timer interrupt""#));
    }
}
