//! # p5-experiments
//!
//! The per-table / per-figure reproduction harness for Boneti et al.
//! (ISCA 2008). One module per paper artifact:
//!
//! | module | paper artifact |
//! |--------|----------------|
//! | [`table1`] | Table 1 — priority levels, privilege, or-nop encodings |
//! | [`table2`] | Table 2 — micro-benchmark loop bodies |
//! | [`table3`] | Table 3 — ST and SMT(4,4) IPC matrix |
//! | [`fig2`]   | Figure 2 — PThread speedup under positive priorities |
//! | [`fig3`]   | Figure 3 — PThread slowdown under negative priorities |
//! | [`fig4`]   | Figure 4 — throughput vs. priority difference |
//! | [`fig5`]   | Figure 5 — SPEC pair case studies (total IPC) |
//! | [`table4`] | Table 4 — FFT/LU pipeline execution times |
//! | [`fig6`]   | Figure 6 — transparent (background) execution |
//! | [`mpi`]    | Section 5.4 — MPI imbalance re-balancing |
//! | [`noise`]  | Section 4.1 — measurement isolation on the dual-core chip |
//! | [`ablations`] | design-choice ablations (balancer, decode slots, GCT, LMQ, prefetch) |
//! | [`claims`] | headline quantitative claims, checked programmatically |
//! | [`pmu`]    | per-cell CPI stacks + priority-switch Chrome trace (observability) |
//!
//! Every experiment takes an [`Experiments`] context (core configuration +
//! FAME measurement configuration), returns a typed result, and renders a
//! text report comparing measured values against the paper where the paper
//! gives numbers.
//!
//! # Example
//!
//! ```no_run
//! use p5_experiments::{Experiments, table3};
//!
//! let ctx = Experiments::quick();
//! let result = table3::run(&ctx)?;
//! println!("{}", result.render());
//! # Ok::<(), p5_experiments::ExpError>(())
//! ```
//!
//! Experiment `run` functions return `Result`: a cell whose measurement
//! wedges or exhausts its budget is retried once with an escalated cycle
//! budget, then — if still failing — recorded as a *degraded* annotation
//! on the partial result rather than aborting the artifact. Only a
//! failure that leaves an artifact without usable data (a lost baseline,
//! every cell degraded) surfaces as an [`ExpError`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod campaign;
pub mod claims;
pub mod export;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod journal;
pub mod mpi;
pub mod noise;
pub mod pmu;
pub mod report;
pub mod sweep;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;

use p5_core::{CoreConfig, SimError, SmtCore};
use p5_fame::{FameConfig, FameReport, FameRunner};
use p5_isa::{Priority, Program, ThreadId};
use std::fmt;

/// Error from an experiment artifact whose measurements failed so
/// completely that no partial result could be reported.
///
/// Individual cell failures do *not* produce an `ExpError`: they are
/// recorded as degraded-cell annotations on the (partial) result. Only a
/// failure that leaves the artifact without usable data — every cell
/// wedged, or a baseline the whole artifact normalizes against missing —
/// aborts the artifact.
#[derive(Debug, Clone)]
pub struct ExpError {
    /// Which artifact failed ("sweep", "table4", ...).
    pub artifact: &'static str,
    /// What happened, including the underlying [`SimError`] text.
    pub message: String,
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.artifact, self.message)
    }
}

impl std::error::Error for ExpError {}

/// A degraded-cell annotation: which cell, and why its data is
/// untrustworthy.
///
/// Every experiment artifact reports degraded cells through this one
/// type (surfaced by [`campaign::CampaignResult::degraded`] and the
/// per-artifact `degraded` fields), so the `DEGRADED` lines of all
/// reports share one format: `label: cause`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// Which cell degraded, e.g. `"(cpu_int,ldint_l2) at diff +2"`.
    pub label: String,
    /// Why: the underlying [`SimError`] text, or `"unconverged"`.
    pub cause: String,
}

impl Degradation {
    /// Builds an annotation.
    #[must_use]
    pub fn new(label: impl Into<String>, cause: impl Into<String>) -> Degradation {
        Degradation {
            label: label.into(),
            cause: cause.into(),
        }
    }
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.label, self.cause)
    }
}

/// Per-status cell tally of a campaign — the roll-up every artifact
/// carries (see [`campaign::CampaignResult::counts`]) so end-of-run
/// summaries can report *how* their cells finished, not just how many
/// degraded. Counts by [`CellStatus`] are mutually exclusive and sum to
/// `total`; `replayed` is orthogonal (a replayed cell also counts under
/// its journaled status).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellCounts {
    /// Cells in the campaign.
    pub total: usize,
    /// Converged first try ([`CellStatus::Ok`]).
    pub ok: usize,
    /// Needed the escalated-budget retry ([`CellStatus::Recovered`]).
    pub recovered: usize,
    /// No converged measurement ([`CellStatus::Degraded`]).
    pub degraded: usize,
    /// Worker panicked; caught at the cell boundary
    /// ([`CellStatus::Crashed`]).
    pub crashed: usize,
    /// Never ran — claimed after the campaign token expired
    /// ([`CellStatus::Skipped`]).
    pub skipped: usize,
    /// Replayed bit-identically from the result journal instead of
    /// simulated (any status; `0` without a journal).
    pub replayed: usize,
}

impl CellCounts {
    /// Tallies one measurement into the counts.
    pub fn tally(&mut self, status: CellStatus, replayed: bool) {
        self.total += 1;
        match status {
            CellStatus::Ok => self.ok += 1,
            CellStatus::Recovered => self.recovered += 1,
            CellStatus::Degraded => self.degraded += 1,
            CellStatus::Crashed => self.crashed += 1,
            CellStatus::Skipped => self.skipped += 1,
        }
        if replayed {
            self.replayed += 1;
        }
    }

    /// One-line human-readable summary, e.g.
    /// `42 cells: 40 ok, 1 recovered, 1 crashed (2 replayed)`.
    /// Zero counts are omitted (except `ok`), so a clean run reads
    /// simply `42 cells: 42 ok`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut parts = vec![format!("{} ok", self.ok)];
        for (n, what) in [
            (self.recovered, "recovered"),
            (self.degraded, "degraded"),
            (self.crashed, "crashed"),
            (self.skipped, "skipped"),
        ] {
            if n > 0 {
                parts.push(format!("{n} {what}"));
            }
        }
        let replayed = if self.replayed > 0 {
            format!(" ({} replayed from journal)", self.replayed)
        } else {
            String::new()
        };
        format!("{} cells: {}{}", self.total, parts.join(", "), replayed)
    }
}

impl std::ops::AddAssign for CellCounts {
    fn add_assign(&mut self, rhs: CellCounts) {
        self.total += rhs.total;
        self.ok += rhs.ok;
        self.recovered += rhs.recovered;
        self.degraded += rhs.degraded;
        self.crashed += rhs.crashed;
        self.skipped += rhs.skipped;
        self.replayed += rhs.replayed;
    }
}

/// How a resilient measurement ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellStatus {
    /// Converged within the normal budget on the first attempt.
    Ok,
    /// The first attempt failed or ran out of budget; the retry with an
    /// escalated cycle budget converged.
    Recovered,
    /// Both attempts failed to converge; the cell carries whatever data
    /// survived plus the error.
    Degraded,
    /// The cell's worker panicked; the panic was caught at the cell
    /// boundary ([`campaign`]'s isolation), so the campaign — and every
    /// other cell — completed normally.
    Crashed,
    /// The campaign's cancellation token stopped the cell: it had
    /// already expired when a worker claimed the cell, or it expired
    /// while the cell was simulating. Skipped cells carry no data, are
    /// never journaled, and are retried by a resumed run (see
    /// [`journal`]).
    Skipped,
}

/// Result of one resilient measurement (see
/// [`Experiments::measure_resilient`]): the report, how it was
/// obtained, and — for degraded cells — the error that limited it.
#[derive(Debug, Clone)]
pub struct Measured {
    /// The FAME report, if any attempt produced one. Degraded cells keep
    /// their best unconverged report so callers can still plot a value.
    pub report: Option<FameReport>,
    /// How the measurement ended.
    pub status: CellStatus,
    /// The error that degraded the cell, if any.
    pub error: Option<SimError>,
}

impl Measured {
    /// Whether the cell carries no trustworthy (converged) measurement
    /// — it degraded, its worker crashed, or it never ran at all.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        matches!(
            self.status,
            CellStatus::Degraded | CellStatus::Crashed | CellStatus::Skipped
        )
    }

    /// IPC of one thread, if measured.
    #[must_use]
    pub fn ipc(&self, thread: ThreadId) -> Option<f64> {
        self.report
            .as_ref()
            .and_then(|r| r.thread(thread))
            .map(|m| m.ipc)
    }

    /// Per-thread IPC estimate (mean plus 95% confidence interval), if
    /// measured. Detailed measurements carry an exact single-sample
    /// estimate (`ci95 == 0`); sampled measurements carry the interval
    /// statistics.
    #[must_use]
    pub fn ipc_estimate(&self, thread: ThreadId) -> Option<p5_fame::Estimate> {
        self.report
            .as_ref()
            .and_then(|r| r.thread(thread))
            .map(|m| m.estimate)
    }

    /// 95% confidence half-width of the combined IPC, if measured
    /// (zero for detailed measurements).
    #[must_use]
    pub fn total_ipc_ci95(&self) -> Option<f64> {
        self.report.as_ref().map(FameReport::total_ipc_ci95)
    }

    /// Average repetition time of one thread, if measured.
    #[must_use]
    pub fn avg_repetition_cycles(&self, thread: ThreadId) -> Option<f64> {
        self.report
            .as_ref()
            .and_then(|r| r.thread(thread))
            .map(|m| m.avg_repetition_cycles)
    }

    /// Combined IPC of the active threads, if measured.
    #[must_use]
    pub fn total_ipc(&self) -> Option<f64> {
        self.report.as_ref().map(FameReport::total_ipc)
    }

    /// The degradation annotation for a partial report, if the cell is
    /// degraded.
    #[must_use]
    pub fn degradation(&self, label: &str) -> Option<Degradation> {
        if !self.is_degraded() {
            return None;
        }
        let why = self
            .error
            .as_ref()
            .map_or_else(|| "unconverged".to_string(), SimError::to_string);
        Some(Degradation::new(label, why))
    }
}

/// Shared context for all experiments: the simulated machine and the
/// measurement methodology.
#[derive(Debug, Clone)]
pub struct Experiments {
    /// Core configuration (the simulated POWER5).
    pub core: CoreConfig,
    /// FAME measurement configuration.
    pub fame: FameConfig,
    /// Worker threads used by the campaign engine (`1` = serial; the
    /// artifacts are byte-identical either way, see [`campaign`]).
    pub jobs: usize,
    /// Write-ahead result journal: finished cells are recorded here and
    /// journaled cells are replayed instead of re-simulated (the
    /// `--journal`/`--resume` flags). `None` (the default) journals
    /// nothing.
    pub journal: Option<std::sync::Arc<journal::ResultJournal>>,
    /// Per-cell wall-clock deadline: a cell still simulating this long
    /// after it started is stopped at the next FAME chunk boundary and
    /// marked degraded. `None` (the default) leaves cells unbounded;
    /// deadlines make outcomes wall-clock-dependent by design.
    pub cell_deadline: Option<std::time::Duration>,
    /// Campaign-level cancellation token (typically
    /// [`CancelToken::with_budget`](p5_core::CancelToken::with_budget)
    /// for `--time-budget-ms`): once it expires, in-flight cells stop
    /// at their next chunk boundary and, like unclaimed cells, are
    /// skipped, yielding a valid partial result.
    pub cancel: Option<p5_core::CancelToken>,
    /// Host-level chaos schedule for crash-safety rehearsal (scheduled
    /// worker panics, stalls, mid-campaign aborts). Test/CI machinery;
    /// `None` in every normal run.
    pub chaos: Option<p5_fault::ChaosPlan>,
}

impl Experiments {
    /// Full-fidelity configuration: POWER5-like core, the paper's FAME
    /// parameters (MAIV 1%, ≥10 repetitions). This is what regenerates
    /// EXPERIMENTS.md.
    #[must_use]
    pub fn paper() -> Experiments {
        Experiments::with_configs(CoreConfig::power5_like(), FameConfig::paper())
    }

    /// A context from explicit core and FAME configurations, with every
    /// execution-policy knob (jobs, journal, deadlines, cancellation,
    /// chaos) at its default.
    #[must_use]
    pub fn with_configs(core: CoreConfig, fame: FameConfig) -> Experiments {
        Experiments {
            core,
            fame,
            jobs: 1,
            journal: None,
            cell_deadline: None,
            cancel: None,
            chaos: None,
        }
    }

    /// Reduced-fidelity configuration for smoke tests and CI: same core,
    /// fewer repetitions, looser MAIV, tighter cycle caps.
    #[must_use]
    pub fn quick() -> Experiments {
        Experiments::with_configs(
            CoreConfig::power5_like(),
            FameConfig {
                maiv: 0.05,
                stable_window: 2,
                min_repetitions: 3,
                max_cycles: 30_000_000,
                warmup: p5_fame::WarmupBudget {
                    min_cycles: 20_000,
                    max_cycles: 10_000_000,
                    ring_passes: 1,
                },
            },
        )
    }

    /// Returns this context with the campaign worker count replaced.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Experiments {
        self.jobs = jobs.max(1);
        self
    }

    /// Returns this context running under the given
    /// [`ExecutionPlan`](p5_core::ExecutionPlan) (the `--plan` flag of
    /// the binaries): the plan lands on the core configuration, where
    /// every campaign cell reads it.
    #[must_use]
    pub fn with_plan(mut self, plan: p5_core::ExecutionPlan) -> Experiments {
        self.core.plan = plan;
        self
    }

    /// Returns this context with a write-ahead result journal attached
    /// (the `--journal` flag of the binaries).
    #[must_use]
    pub fn with_journal(mut self, journal: std::sync::Arc<journal::ResultJournal>) -> Experiments {
        self.journal = Some(journal);
        self
    }

    /// Returns this context with a per-cell wall-clock deadline (the
    /// `--cell-deadline-ms` flag of the binaries).
    #[must_use]
    pub fn with_cell_deadline(mut self, deadline: std::time::Duration) -> Experiments {
        self.cell_deadline = Some(deadline);
        self
    }

    /// Returns this context with a campaign-level cancellation token
    /// (the `--time-budget-ms` flag of the binaries).
    #[must_use]
    pub fn with_cancel(mut self, token: p5_core::CancelToken) -> Experiments {
        self.cancel = Some(token);
        self
    }

    /// Returns this context with a host-level chaos schedule attached
    /// (crash-safety rehearsal; see [`p5_fault::ChaosPlan`]).
    #[must_use]
    pub fn with_chaos(mut self, plan: p5_fault::ChaosPlan) -> Experiments {
        self.chaos = Some(plan);
        self
    }

    /// How much the cycle budget is multiplied by when a cell is retried
    /// (see [`FameConfig::escalated`]).
    pub const RETRY_ESCALATION: u64 = 4;

    /// Builds an idle core with this context's configuration.
    #[must_use]
    pub fn new_core(&self) -> SmtCore {
        SmtCore::new(self.core.clone())
    }

    /// Builds an idle core, returning a typed error on invalid
    /// configuration instead of panicking.
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::InvalidConfig`] from
    /// [`CoreConfig::try_validate`].
    pub fn try_new_core(&self) -> Result<SmtCore, SimError> {
        SmtCore::try_new(self.core.clone())
    }

    /// FAME-measures a pair of programs under the given priorities.
    #[must_use]
    pub fn measure_pair(
        &self,
        primary: Program,
        secondary: Program,
        priorities: (Priority, Priority),
    ) -> FameReport {
        let mut core = self.new_core();
        core.load_program(ThreadId::T0, primary);
        core.load_program(ThreadId::T1, secondary);
        core.set_priority(ThreadId::T0, priorities.0);
        core.set_priority(ThreadId::T1, priorities.1);
        FameRunner::new(self.fame).measure(&mut core)
    }

    /// Resilient single-thread measurement: never panics, retries a
    /// failed or unconverged run once with an escalated cycle budget
    /// before marking the cell degraded.
    #[must_use]
    pub fn measure_single_resilient(&self, program: Program) -> Measured {
        self.measure_resilient(
            move |core| core.load_program(ThreadId::T0, program.clone()),
            None,
        )
    }

    /// The retry/escalation path every resilient measurement shares.
    ///
    /// Attempt 1 runs on a fresh core prepared by `setup`, with the
    /// configured budget. If it errors retryably (watchdog stall,
    /// exhausted budget) or returns an unconverged report, attempt 2
    /// runs on another fresh core with the budgets multiplied by
    /// [`Experiments::RETRY_ESCALATION`]. A cell that still has no
    /// converged report after that is `Degraded`; it keeps the best
    /// report observed plus the error that limited it.
    ///
    /// Under a [`CancelToken`](p5_core::CancelToken) every attempt's FAME
    /// runner checks the token between simulation chunks, so an expired
    /// token stops the measurement at a clean boundary with a
    /// (non-retryable) [`SimError::Deadline`] and the cell degrades
    /// instead of running forever. `None` is the tokenless path —
    /// bit-reproducible, never wall-clock-dependent.
    pub fn measure_resilient(
        &self,
        setup: impl Fn(&mut SmtCore),
        cancel: Option<&p5_core::CancelToken>,
    ) -> Measured {
        let runner = |fame: FameConfig| -> FameRunner {
            match cancel {
                Some(token) => FameRunner::new(fame).with_cancel(token.clone()),
                None => FameRunner::new(fame),
            }
        };
        let attempt = |fame: FameConfig| -> Result<FameReport, SimError> {
            let mut core = self.try_new_core()?;
            setup(&mut core);
            runner(fame).try_measure(&mut core)
        };
        let budget_error = |fame: &FameConfig, report: &FameReport| SimError::BudgetExhausted {
            cycle_budget: fame.max_cycles,
            repetitions: [0, 1].map(|i| report.threads[i].map_or(0, |m| m.repetitions)),
            target: [0, 1].map(|i| {
                if report.threads[i].is_some() {
                    fame.min_repetitions
                } else {
                    0
                }
            }),
        };

        let first = attempt(self.fame);
        if let Ok(report) = &first {
            if report.converged() {
                return Measured {
                    report: first.ok(),
                    status: CellStatus::Ok,
                    error: None,
                };
            }
        }
        if let Err(e) = &first {
            if !e.is_retryable() {
                return Measured {
                    report: None,
                    status: CellStatus::Degraded,
                    error: first.err(),
                };
            }
        }

        let escalated = self.fame.escalated(Self::RETRY_ESCALATION);
        match attempt(escalated) {
            Ok(report) if report.converged() => Measured {
                report: Some(report),
                status: CellStatus::Recovered,
                error: None,
            },
            Ok(report) => {
                let error = budget_error(&escalated, &report);
                Measured {
                    report: Some(report),
                    status: CellStatus::Degraded,
                    error: Some(error),
                }
            }
            Err(e) => Measured {
                // Keep the first attempt's (unconverged) data if it had
                // any: a degraded value beats no value in a partial
                // report.
                report: first.ok(),
                status: CellStatus::Degraded,
                error: Some(e),
            },
        }
    }
}

impl Default for Experiments {
    fn default() -> Self {
        Experiments::paper()
    }
}

/// The priority pair used for a given priority *difference*, following the
/// paper's figures: positive differences raise the PThread toward 6 and
/// then lower the SThread; negative differences mirror that.
///
/// | diff | pair |
/// |------|------|
/// | 0    | (4,4) |
/// | +1   | (5,4) |
/// | +2   | (6,4) |
/// | +3   | (6,3) |
/// | +4   | (6,2) |
/// | +5   | (6,1) |
///
/// # Panics
///
/// Panics if `diff` is outside `-5..=5`.
#[must_use]
pub fn priority_pair(diff: i32) -> (Priority, Priority) {
    let (p, s) = match diff.abs() {
        0 => (4, 4),
        1 => (5, 4),
        2 => (6, 4),
        3 => (6, 3),
        4 => (6, 2),
        5 => (6, 1),
        _ => panic!("priority difference {diff} outside the paper's -5..=+5 range"),
    };
    let (p, s) = if diff >= 0 { (p, s) } else { (s, p) };
    (
        Priority::from_level(p).expect("levels 1..=6 are valid"),
        Priority::from_level(s).expect("levels 1..=6 are valid"),
    )
}

/// Checks a binary's arguments: `switches` stand alone and
/// `value_flags` take the next argument as their value.
///
/// # Errors
///
/// Names the first argument that is neither, and a value flag that is
/// last or followed by a flag instead of its value (either would
/// otherwise be ignored and run the defaults).
pub fn check_args(args: &[String], switches: &[&str], value_flags: &[&str]) -> Result<(), String> {
    let is_flag = |arg: &str| switches.contains(&arg) || value_flags.contains(&arg);
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if value_flags.contains(&arg.as_str()) {
            if args.next().is_none_or(|value| is_flag(value)) {
                return Err(format!("{arg} expects a value"));
            }
        } else if !switches.contains(&arg.as_str()) {
            return Err(format!("unknown argument {arg:?}"));
        }
    }
    Ok(())
}

/// A binary's `--help` text with its `{plan}` line replaced by
/// [`ExecutionPlan::GRAMMAR`](p5_core::ExecutionPlan::GRAMMAR), each
/// grammar line indented to `column`.
#[must_use]
pub fn with_plan_grammar(help: &str, column: usize) -> String {
    let grammar: String = (p5_core::ExecutionPlan::GRAMMAR.lines())
        .map(|line| format!("{:column$}{line}\n", ""))
        .collect();
    help.replace("{plan}\n", &grammar)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_pairs_match_paper_convention() {
        assert_eq!(priority_pair(0), (Priority::Medium, Priority::Medium));
        assert_eq!(priority_pair(2), (Priority::High, Priority::Medium));
        assert_eq!(priority_pair(5), (Priority::High, Priority::VeryLow));
        assert_eq!(priority_pair(-2), (Priority::Medium, Priority::High));
        assert_eq!(priority_pair(-5), (Priority::VeryLow, Priority::High));
    }

    #[test]
    fn priority_pair_differences_are_correct() {
        for d in -5i32..=5 {
            let (p, s) = priority_pair(d);
            assert_eq!(i32::from(p.level()) - i32::from(s.level()), d, "diff {d}");
        }
    }

    #[test]
    #[should_panic(expected = "outside the paper's")]
    fn out_of_range_diff_panics() {
        let _ = priority_pair(6);
    }

    #[test]
    fn quick_context_builds_core() {
        let ctx = Experiments::quick();
        let core = ctx.new_core();
        assert_eq!(core.cycle(), 0);
    }

    fn tiny_ctx() -> Experiments {
        Experiments::with_configs(
            p5_core::CoreConfig::tiny_for_tests(),
            p5_fame::FameConfig::quick(),
        )
    }

    fn cpu_program(iters: u64) -> Program {
        let mut b = Program::builder("cpu");
        for i in 0..10 {
            b.push(p5_isa::StaticInst::new(p5_isa::Op::IntAlu).dst(p5_isa::Reg::new(32 + i)));
        }
        b.iterations(iters);
        b.build().unwrap()
    }

    fn chase_program(footprint: u64) -> Program {
        let mut b = Program::builder("chase");
        let s = b.stream(p5_isa::StreamSpec::pointer_chase(footprint));
        let ptr = p5_isa::Reg::new(1);
        b.push(
            p5_isa::StaticInst::new(p5_isa::Op::Load {
                stream: s,
                kind: p5_isa::DataKind::Int,
            })
            .dst(ptr)
            .src1(ptr),
        );
        b.iterations(100);
        b.build().unwrap()
    }

    #[test]
    fn cell_counts_tally_and_render() {
        let mut counts = CellCounts::default();
        for _ in 0..3 {
            counts.tally(CellStatus::Ok, false);
        }
        counts.tally(CellStatus::Recovered, false);
        counts.tally(CellStatus::Crashed, false);
        counts.tally(CellStatus::Ok, true);
        assert_eq!(counts.total, 6);
        assert_eq!(counts.ok, 4);
        assert_eq!(
            counts.render(),
            "6 cells: 4 ok, 1 recovered, 1 crashed (1 replayed from journal)"
        );

        let mut clean = CellCounts::default();
        clean.tally(CellStatus::Ok, false);
        assert_eq!(clean.render(), "1 cells: 1 ok");

        let mut sum = CellCounts::default();
        sum += counts;
        sum += clean;
        assert_eq!(sum.total, 7);
        assert_eq!(sum.ok, 5);
        assert_eq!(sum.replayed, 1);
    }

    #[test]
    fn resilient_measurement_of_healthy_cell_is_ok() {
        let m = tiny_ctx().measure_single_resilient(cpu_program(50));
        assert_eq!(m.status, CellStatus::Ok);
        assert!(m.error.is_none());
        assert!(m.ipc(ThreadId::T0).unwrap() > 0.5);
        assert!(m.degradation("cell").is_none());
    }

    #[test]
    fn resilient_measurement_recovers_via_escalated_budget() {
        // The first budget cannot fit min_repetitions; the 4x escalation
        // can.
        let mut ctx = tiny_ctx();
        ctx.fame.min_repetitions = 40;
        ctx.fame.max_cycles = 8_000;
        ctx.fame.warmup = p5_fame::WarmupBudget::fixed(500);
        let m = ctx.measure_single_resilient(cpu_program(50));
        assert_eq!(m.status, CellStatus::Recovered);
        assert!(m.report.expect("recovered report").converged());
    }

    #[test]
    fn resilient_measurement_marks_wedged_cell_degraded() {
        let mut ctx = tiny_ctx();
        ctx.core.lmq_entries = 0; // beyond-L1 misses never issue
        ctx.core.watchdog_stall_cycles = 10_000;
        let m = ctx.measure_single_resilient(chase_program(256 * 1024));
        assert!(m.is_degraded());
        let note = m.degradation("chase").expect("degradation note");
        assert_eq!(note.label, "chase");
        assert!(note.cause.contains("lmq"), "culprit named: {note}");
    }

    #[test]
    fn resilient_measurement_surfaces_invalid_config() {
        let mut ctx = tiny_ctx();
        ctx.core.gct_entries = 0;
        let m = ctx.measure_single_resilient(cpu_program(50));
        assert!(m.is_degraded());
        assert!(m.report.is_none());
        assert!(matches!(
            m.error,
            Some(p5_core::SimError::InvalidConfig {
                field: "gct_entries",
                ..
            })
        ));
    }
}
