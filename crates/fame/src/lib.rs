//! # p5-fame
//!
//! The FAME methodology — *FAirly MEasuring Multithreaded Architectures*
//! (Vera et al., PACT 2007) — as used by Boneti et al. (ISCA 2008),
//! Section 4.1.
//!
//! FAME's premise: the average accumulated IPC of a program in a
//! multithreaded workload is representative only once it is within a
//! threshold — the *Maximum Allowable IPC Variation* (MAIV) — of the
//! steady-state IPC. Each benchmark in the workload is therefore
//! re-executed until its running average IPC stabilizes, and "the
//! execution of the entire workload stops when all benchmarks have
//! executed as many times as needed to accomplish a given MAIV value".
//! For the paper's setup a MAIV of 1% requires at least 10 repetitions
//! per benchmark. The average execution time of a thread is the total
//! accounted time divided by the number of *complete* repetitions — the
//! trailing incomplete repetition is discarded (paper Figure 1).
//!
//! A [`FameRunner`] measures one [`SmtCore`]: the paper measures on the
//! second core of the dual-core POWER5 while the first is isolated, so
//! a lone core is the measured machine.
//!
//! # Example
//!
//! ```
//! use p5_core::{CoreConfig, SmtCore};
//! use p5_fame::{FameConfig, FameRunner};
//! use p5_isa::{Op, Program, StaticInst, ThreadId};
//!
//! let mut b = Program::builder("toy");
//! for _ in 0..10 { b.push(StaticInst::new(Op::IntAlu)); }
//! b.iterations(50);
//! let prog = b.build()?;
//!
//! let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
//! core.load_program(ThreadId::T0, prog);
//! let report = FameRunner::new(FameConfig::quick()).measure(&mut core);
//! let m = report.thread(ThreadId::T0).unwrap();
//! assert!(m.converged);
//! assert!(m.ipc > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use p5_core::{CancelToken, MeasureMode, SamplingConfig, SimError, SmtCore, WarmupMode};
use p5_isa::{AccessPattern, ThreadId};
use std::hash::{Hash, Hasher};

/// The warm-up cycle budget, folded into one validated struct (it used
/// to be three loose `warmup_*` fields on [`FameConfig`]).
///
/// The effective budget for a given workload is
/// `clamp(ring_passes × ring_lines × cold_access, min_cycles, max_cycles)`
/// — see [`FameRunner::warm_only`] for the exact derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WarmupBudget {
    /// Minimum warm-up cycles even for cache-light programs (fills the
    /// pipeline, trains the predictor).
    pub min_cycles: u64,
    /// Hard cap on the warm-up phase.
    pub max_cycles: u64,
    /// Ring passes each pointer-chase stream should complete during
    /// warm-up (subject to `max_cycles`).
    pub ring_passes: u64,
}

impl WarmupBudget {
    /// The single validated constructor.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `min_cycles > max_cycles`
    /// (the clamp would be empty) or `max_cycles` is zero.
    pub fn new(
        min_cycles: u64,
        max_cycles: u64,
        ring_passes: u64,
    ) -> Result<WarmupBudget, SimError> {
        if max_cycles == 0 {
            return Err(SimError::InvalidConfig {
                field: "warmup.max_cycles",
                message: "warm-up cap must be nonzero".into(),
            });
        }
        if min_cycles > max_cycles {
            return Err(SimError::InvalidConfig {
                field: "warmup.min_cycles",
                message: format!("warm-up floor {min_cycles} exceeds the cap {max_cycles}"),
            });
        }
        Ok(WarmupBudget {
            min_cycles,
            max_cycles,
            ring_passes,
        })
    }

    /// A budget pinned to exactly `cycles` regardless of workload
    /// footprint — what perf benches use to compare engines on equal
    /// terms.
    ///
    /// # Panics
    ///
    /// Panics if `cycles` is zero.
    #[must_use]
    pub fn fixed(cycles: u64) -> WarmupBudget {
        WarmupBudget::new(cycles, cycles, 0).expect("nonzero fixed budget")
    }

    /// A copy with both cycle bounds multiplied by `factor` (saturating).
    #[must_use]
    pub fn escalated(&self, factor: u64) -> WarmupBudget {
        WarmupBudget {
            min_cycles: self.min_cycles.saturating_mul(factor),
            max_cycles: self.max_cycles.saturating_mul(factor),
            ring_passes: self.ring_passes,
        }
    }
}

/// Parameters of a FAME measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FameConfig {
    /// Maximum Allowable IPC Variation: the measurement of a thread is
    /// converged once its running average IPC changes by less than this
    /// relative fraction over `stable_window` consecutive repetitions.
    /// Under a sampled plan the same threshold bounds the relative
    /// half-width of the 95 % confidence interval instead.
    pub maiv: f64,
    /// Repetitions over which the MAIV criterion must hold.
    pub stable_window: usize,
    /// Minimum repetitions per thread regardless of MAIV (the paper's
    /// setup needs at least 10 for MAIV = 1%). Under a sampled plan this
    /// is the minimum number of interval samples instead.
    pub min_repetitions: usize,
    /// Hard cycle budget for the measurement phase; if exhausted the
    /// report is marked unconverged.
    pub max_cycles: u64,
    /// Warm-up phase budget.
    pub warmup: WarmupBudget,
}

/// Every field is part of a measurement's identity; `maiv` hashes by
/// its bit pattern. The pattern names every field, so a new one does
/// not compile until its author decides whether it splits a cache key.
impl Hash for FameConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let FameConfig {
            maiv,
            stable_window,
            min_repetitions,
            max_cycles,
            warmup,
        } = self;
        maiv.to_bits().hash(state);
        (stable_window, min_repetitions, max_cycles, warmup).hash(state);
    }
}

impl FameConfig {
    /// The paper's configuration: MAIV 1%, at least 10 repetitions.
    #[must_use]
    pub fn paper() -> FameConfig {
        FameConfig {
            maiv: 0.01,
            stable_window: 3,
            min_repetitions: 10,
            max_cycles: 200_000_000,
            warmup: WarmupBudget {
                min_cycles: 100_000,
                max_cycles: 60_000_000,
                ring_passes: 2,
            },
        }
    }

    /// A reduced configuration for unit tests and smoke runs.
    #[must_use]
    pub fn quick() -> FameConfig {
        FameConfig {
            maiv: 0.05,
            stable_window: 2,
            min_repetitions: 3,
            max_cycles: 5_000_000,
            warmup: WarmupBudget {
                min_cycles: 5_000,
                max_cycles: 500_000,
                ring_passes: 1,
            },
        }
    }

    /// Validates the parameters, returning a typed error.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `maiv` is not in `(0, 1)`,
    /// any count is zero, or the warm-up budget is degenerate (see
    /// [`WarmupBudget::new`]).
    pub fn try_validate(&self) -> Result<(), SimError> {
        if !(self.maiv > 0.0 && self.maiv < 1.0) {
            return Err(SimError::InvalidConfig {
                field: "maiv",
                message: format!("MAIV must be in (0,1), got {}", self.maiv),
            });
        }
        for (field, n) in [
            ("stable_window", self.stable_window as u64),
            ("min_repetitions", self.min_repetitions as u64),
            ("max_cycles", self.max_cycles),
        ] {
            if n == 0 {
                return Err(SimError::InvalidConfig {
                    field,
                    message: format!("{field} must be nonzero"),
                });
            }
        }
        let w = self.warmup;
        WarmupBudget::new(w.min_cycles, w.max_cycles, w.ring_passes)?;
        Ok(())
    }

    /// Validates the parameters.
    ///
    /// # Panics
    ///
    /// Panics if [`FameConfig::try_validate`] rejects them.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }

    /// A copy of this configuration with the measurement and warm-up
    /// cycle budgets multiplied by `factor` (saturating) — the
    /// escalation step run-level resilience applies before declaring a
    /// cell degraded.
    #[must_use]
    pub fn escalated(&self, factor: u64) -> FameConfig {
        FameConfig {
            max_cycles: self.max_cycles.saturating_mul(factor),
            warmup: self.warmup.escalated(factor),
            ..*self
        }
    }
}

impl Default for FameConfig {
    fn default() -> Self {
        FameConfig::paper()
    }
}

/// Two-sided 95 % critical values of Student's t for 1..=30 degrees of
/// freedom; beyond 30 the normal approximation (1.96) is used.
const T_TABLE_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// A statistical estimate of a measured quantity: point value, 95 %
/// confidence-interval half-width, and the number of samples behind it.
///
/// Detailed (exhaustive) measurements carry the degenerate
/// [`Estimate::exact`] form — `ci95 == 0.0`, one "sample" — so every
/// artifact number has a uniform `value ± ci95 (n)` annotation
/// regardless of the plan that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Point estimate (the sample mean).
    pub value: f64,
    /// Half-width of the 95 % confidence interval around `value`,
    /// computed with Student's t on `samples - 1` degrees of freedom.
    /// Zero for exact values, single samples, and zero-variance
    /// populations.
    pub ci95: f64,
    /// Number of samples the estimate aggregates.
    pub samples: u32,
}

impl Estimate {
    /// An exhaustively measured (non-sampled) value: no interval.
    #[must_use]
    pub fn exact(value: f64) -> Estimate {
        Estimate {
            value,
            ci95: 0.0,
            samples: 1,
        }
    }

    /// Mean and 95 % confidence interval of a sample population.
    ///
    /// Degenerate inputs are well-defined: an empty slice yields
    /// `{0.0, 0.0, 0}`, a single sample yields `{x, 0.0, 1}` (no
    /// variance estimate exists), and a zero-variance population yields
    /// `ci95 == 0.0`.
    #[must_use]
    pub fn from_samples(samples: &[f64]) -> Estimate {
        let n = samples.len();
        if n == 0 {
            return Estimate {
                value: 0.0,
                ci95: 0.0,
                samples: 0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return Estimate {
                value: mean,
                ci95: 0.0,
                samples: 1,
            };
        }
        // Sample variance (n - 1 denominator), clamped at zero against
        // catastrophic cancellation on constant populations.
        let var = samples
            .iter()
            .map(|x| {
                let d = x - mean;
                d * d
            })
            .sum::<f64>()
            / (n - 1) as f64;
        let se = (var.max(0.0) / n as f64).sqrt();
        let df = n - 1;
        let t = if df <= T_TABLE_95.len() {
            T_TABLE_95[df - 1]
        } else {
            1.96
        };
        Estimate {
            value: mean,
            ci95: t * se,
            samples: u32::try_from(n).unwrap_or(u32::MAX),
        }
    }

    /// Whether `x` lies within the 95 % confidence interval.
    #[must_use]
    pub fn covers(&self, x: f64) -> bool {
        (x - self.value).abs() <= self.ci95
    }
}

/// Measurement of one thread under FAME.
///
/// Under a sampled plan, `repetitions` counts interval *samples* rather
/// than program repetitions, `avg_repetition_cycles` is the detailed
/// interval length, and `ipc` equals `estimate.value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadMeasurement {
    /// Complete repetitions observed during the measurement phase
    /// (interval samples under a sampled plan).
    pub repetitions: usize,
    /// Average cycles per complete repetition (incomplete tail discarded).
    pub avg_repetition_cycles: f64,
    /// Average accumulated IPC at the last complete repetition boundary
    /// (the sample mean under a sampled plan).
    pub ipc: f64,
    /// Whether the MAIV criterion was met within the cycle budget.
    pub converged: bool,
    /// The IPC estimate with its confidence interval. For detailed
    /// measurements this is `Estimate::exact(ipc)`.
    pub estimate: Estimate,
}

/// Result of one FAME measurement of a core (one or two active threads).
#[derive(Debug, Clone, PartialEq)]
pub struct FameReport {
    /// Per-context measurements (`None` for inactive contexts).
    pub threads: [Option<ThreadMeasurement>; 2],
    /// Cycles spent in the measurement phase.
    pub measured_cycles: u64,
    /// Cycles spent warming up.
    pub warmup_cycles: u64,
}

impl FameReport {
    /// Measurement for one context.
    #[must_use]
    pub fn thread(&self, thread: ThreadId) -> Option<&ThreadMeasurement> {
        self.threads[thread.index()].as_ref()
    }

    /// Combined IPC of the active contexts (the paper's "total IPC").
    #[must_use]
    pub fn total_ipc(&self) -> f64 {
        self.threads.iter().flatten().map(|m| m.ipc).sum()
    }

    /// 95 % confidence-interval half-width of [`total_ipc`]
    /// (quadrature sum of the per-thread half-widths, treating the two
    /// threads' sampling noise as independent). Zero for detailed
    /// measurements.
    ///
    /// [`total_ipc`]: FameReport::total_ipc
    #[must_use]
    pub fn total_ipc_ci95(&self) -> f64 {
        self.threads
            .iter()
            .flatten()
            .map(|m| m.estimate.ci95 * m.estimate.ci95)
            .sum::<f64>()
            .sqrt()
    }

    /// Whether every active thread converged.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.threads.iter().flatten().all(|m| m.converged)
    }
}

/// Cycles per detailed warm-up chunk.
const WARMUP_CHUNK: u64 = 4096;

/// Cycles between the detailed measure's checks. It decides where
/// convergence is tested, so it is part of the results.
const CHECK_PERIOD: u64 = 256;

/// Simulated cycles between a simulating thread's yields at its checks
/// ([`FameRunner::check`]). A thread waiting for a CPU behind a worker,
/// such as a daemon's handler with a cache hit to answer, then gets one
/// within this many cycles (0.1–0.25 ms at 8–22M cycles/s) instead of a
/// scheduler slice. A `yield_now` with nothing else to run costs about
/// 0.25 µs on a 2-vCPU guest, at most 0.3% of the period; a yield at
/// every 256-cycle measure check would cost 1–2.6%. Unlike
/// [`CHECK_PERIOD`], the cadence is not part of the results: a yield
/// moves no check.
const YIELD_PERIOD: u64 = 2048;

/// Whether the `ran` cycles that brought the core's cycle counter to
/// `cycles` crossed a multiple of [`YIELD_PERIOD`].
fn yield_due(cycles: u64, ran: u64) -> bool {
    cycles % YIELD_PERIOD < ran
}

/// Errors with [`SimError::NoActiveThread`] unless a context of `core`
/// has a program loaded.
fn require_program(core: &SmtCore) -> Result<(), SimError> {
    let loaded = ThreadId::ALL.iter().any(|&t| core.is_active(t));
    loaded.then_some(()).ok_or(SimError::NoActiveThread)
}

/// Runs FAME measurements over a prepared [`SmtCore`] (programs loaded,
/// priorities set).
#[derive(Debug, Clone)]
pub struct FameRunner {
    config: FameConfig,
    cancel: Option<CancelToken>,
}

impl FameRunner {
    /// Creates a runner.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`FameConfig::validate`]).
    #[must_use]
    pub fn new(config: FameConfig) -> FameRunner {
        config.validate();
        FameRunner {
            config,
            cancel: None,
        }
    }

    /// Returns this runner with a cooperative wall-clock deadline token:
    /// both phases check it between simulation chunks (alongside the
    /// cycle-budget watchdog) and abort with [`SimError::Deadline`] once
    /// it expires, leaving the core at a clean chunk boundary. Without a
    /// token nothing wall-clock-dependent is ever consulted, so runs
    /// stay bit-reproducible.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> FameRunner {
        self.cancel = Some(token);
        self
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &FameConfig {
        &self.config
    }

    /// Warm-up cycles needed so each pointer-chase ring is walked
    /// `warmup_ring_passes` times (estimated optimistically at one access
    /// per ~`memory_latency` cycles), bounded by the configured caps.
    fn warmup_budget(&self, core: &SmtCore) -> u64 {
        let mem = &core.config().mem;
        let line = mem.l1d.line_bytes;
        // A serial chase warms at one access per cold-miss round trip.
        let cold_access = mem.memory_latency + mem.dtlb.miss_penalty;
        // Rings that exceed the L3 never warm — their steady state is
        // permanently cold, so warming them would only waste budget.
        let l3_lines = mem.l3.size_bytes / line;
        let mut budget = self.config.warmup.min_cycles;
        for t in ThreadId::ALL {
            if let Some(program) = core.program(t) {
                for spec in program.streams() {
                    if matches!(spec.pattern, AccessPattern::PointerChase) {
                        let lines = (spec.footprint_bytes / line).max(1);
                        if lines <= l3_lines {
                            budget =
                                budget.max(self.config.warmup.ring_passes * lines * cold_access);
                        }
                    }
                }
            }
        }
        budget.min(self.config.warmup.max_cycles)
    }

    /// Runs the warm-up and measurement phases and reports per-thread
    /// averages. The core is left in its post-measurement state (warm),
    /// with statistics covering the measurement phase only.
    ///
    /// # Panics
    ///
    /// Panics if no context has a program loaded, or if the core's
    /// forward-progress watchdog trips mid-measurement. Callers that
    /// need to survive either should use
    /// [`try_measure`](FameRunner::try_measure).
    pub fn measure(&self, core: &mut SmtCore) -> FameReport {
        self.try_measure(core).unwrap_or_else(|e| match e {
            SimError::NoActiveThread => panic!("FAME needs at least one active thread"),
            e => panic!("{e}"),
        })
    }

    /// Runs the warm-up and measurement phases and reports per-thread
    /// averages, surfacing livelocks as typed errors instead of burning
    /// the whole cycle budget.
    ///
    /// Both phases honour the core's forward-progress watchdog
    /// ([`watchdog_stall_cycles`](p5_core::CoreConfig::watchdog_stall_cycles)):
    /// if no dispatch group commits for that many cycles, the
    /// measurement aborts with a diagnostic snapshot. A run that merely
    /// exhausts `max_cycles` while still progressing returns `Ok` with
    /// `converged == false` — the caller decides whether to escalate
    /// the budget (see [`FameConfig::escalated`]).
    ///
    /// # Errors
    ///
    /// [`SimError::NoActiveThread`] if no context has a program loaded;
    /// [`SimError::ForwardProgressStall`] if the watchdog trips.
    pub fn try_measure(&self, core: &mut SmtCore) -> Result<FameReport, SimError> {
        let warmup = self.warm_only(core)?;
        self.try_measure_restored(core, warmup)
    }

    /// Runs *only* the warm-up phase — the same budget, engine dispatch
    /// and statistics reset [`try_measure`](FameRunner::try_measure)
    /// performs before it starts measuring — and returns the warm-up
    /// length in cycles. On success the core sits exactly at the
    /// warmup→measurement boundary, so following it with
    /// [`try_measure_restored`](FameRunner::try_measure_restored) is
    /// `try_measure` itself, split where a caller can time or inspect
    /// the two phases apart.
    ///
    /// The two-speed engine dispatches here: functional mode
    /// fast-forwards the whole budget in one stall-free call; detailed
    /// mode simulates it in chunks, so a wedge cannot eat the whole
    /// budget.
    ///
    /// # Errors
    ///
    /// [`SimError::NoActiveThread`] if no context has a program loaded;
    /// [`SimError::ForwardProgressStall`] if the watchdog trips during a
    /// detailed warm-up.
    pub fn warm_only(&self, core: &mut SmtCore) -> Result<u64, SimError> {
        require_program(core)?;
        self.check(core, "warmup", 0)?;
        let warmup = self.warmup_budget(core);
        match core.config().plan.warmup {
            WarmupMode::Functional => core.functional_warmup(warmup),
            WarmupMode::Detailed => {
                let mut warmed: u64 = 0;
                while warmed < warmup {
                    let n = WARMUP_CHUNK.min(warmup - warmed);
                    core.run_cycles(n);
                    warmed += n;
                    self.check(core, "warmup", n)?;
                }
            }
        }
        core.reset_stats();
        Ok(warmup)
    }

    /// Runs the measurement phase on a core that
    /// [`warm_only`](FameRunner::warm_only) has just warmed.
    /// `warmup_cycles` is the value `warm_only` returned (reported
    /// verbatim in the [`FameReport`]). The two calls in sequence are
    /// [`try_measure`](FameRunner::try_measure), bit for bit.
    ///
    /// # Errors
    ///
    /// [`SimError::NoActiveThread`] if no context has a program loaded;
    /// [`SimError::ForwardProgressStall`] if the watchdog trips.
    pub fn try_measure_restored(
        &self,
        core: &mut SmtCore,
        warmup_cycles: u64,
    ) -> Result<FameReport, SimError> {
        require_program(core)?;
        match core.config().plan.measure {
            MeasureMode::Detailed => self.measure_detailed(core, warmup_cycles),
            MeasureMode::Sampled(sampling) => self.measure_sampled(core, warmup_cycles, sampling),
        }
    }

    /// The check before the warm-up and after every chunk: the core must
    /// pass its forward-progress watchdog, and the run stops once the
    /// token has expired.
    ///
    /// It is also the simulating thread's yield point. Once the `ran`
    /// cycles just simulated cross a multiple of [`YIELD_PERIOD`], the
    /// thread yields its CPU, so a thread waiting for one runs within a
    /// period instead of a scheduler slice. The functional phases (the
    /// `+ff` warm-up and a sampled plan's fast-forward periods) run
    /// without a check, so they do not yield.
    fn check(&self, core: &SmtCore, phase: &'static str, ran: u64) -> Result<(), SimError> {
        let watchdog = core.config().watchdog_stall_cycles;
        if watchdog != 0 && core.stalled_cycles() >= watchdog {
            return Err(SimError::ForwardProgressStall {
                snapshot: Box::new(core.diagnostic_snapshot()),
            });
        }
        if self.cancel.as_ref().is_some_and(CancelToken::expired) {
            return Err(SimError::Deadline { phase });
        }
        if yield_due(core.stats().cycles, ran) {
            std::thread::yield_now();
        }
        Ok(())
    }

    /// Whether the measure phase has cycle budget left.
    fn within_budget(&self, core: &SmtCore) -> bool {
        core.stats().cycles < self.config.max_cycles
    }

    /// The classic exhaustive FAME repetition loop: runs until every
    /// active thread satisfies MAIV and the minimum repetition count.
    fn measure_detailed(&self, core: &mut SmtCore, warmup: u64) -> Result<FameReport, SimError> {
        let mut tracker = ConvergenceTracker::new(core);
        while !tracker.all_done() && self.within_budget(core) {
            core.run_cycles(CHECK_PERIOD);
            self.check(core, "measure", CHECK_PERIOD)?;
            tracker.observe(core, &self.config);
        }
        Ok(tracker.finalize(core, warmup))
    }

    /// Interval sampling (SMARTS / Pac-Sim): alternate `interval`
    /// detailed cycles with `period` functionally fast-forwarded cycles.
    /// Each detailed interval contributes one IPC sample per thread
    /// (committed-instruction delta — the functional engine never
    /// touches commit counts). The phase is bounded by `max_cycles` of
    /// *virtual* time (detailed plus fast-forwarded).
    fn measure_sampled(
        &self,
        core: &mut SmtCore,
        warmup: u64,
        sampling: SamplingConfig,
    ) -> Result<FameReport, SimError> {
        let mut sampler = Sampler::new(core);
        while !sampler.all_done() && self.within_budget(core) {
            let before = ThreadId::ALL.map(|t| core.stats().thread(t).committed);
            core.run_cycles(sampling.interval);
            self.check(core, "measure", sampling.interval)?;
            sampler.observe(core, before, sampling.interval, &self.config);
            if !sampler.all_done() && self.within_budget(core) {
                core.functional_warmup(sampling.period);
            }
        }
        Ok(sampler.finalize(core, warmup, sampling.interval))
    }
}

/// MAIV convergence state of the detailed measurement loop.
#[derive(Debug)]
struct ConvergenceTracker {
    last_ipc: [Option<f64>; 2],
    stable: [usize; 2],
    done: [bool; 2],
    seen_reps: [usize; 2],
}

impl ConvergenceTracker {
    fn new(core: &SmtCore) -> ConvergenceTracker {
        ConvergenceTracker {
            last_ipc: [None, None],
            stable: [0, 0],
            done: ThreadId::ALL.map(|t| !core.is_active(t)),
            seen_reps: [0, 0],
        }
    }

    fn all_done(&self) -> bool {
        self.done[0] && self.done[1]
    }

    /// Applies the MAIV criterion to any repetitions completed since
    /// the last observation.
    fn observe(&mut self, core: &SmtCore, config: &FameConfig) {
        for t in ThreadId::ALL {
            let i = t.index();
            if self.done[i] {
                continue;
            }
            let reps = &core.stats().thread(t).repetitions;
            if reps.len() <= self.seen_reps[i] {
                continue;
            }
            self.seen_reps[i] = reps.len();
            let last = reps[reps.len() - 1];
            let ipc = last.committed_at_end as f64 / last.end_cycle.max(1) as f64;
            if let Some(prev) = self.last_ipc[i] {
                let delta = if prev > 0.0 {
                    ((ipc - prev) / prev).abs()
                } else {
                    1.0
                };
                if delta < config.maiv {
                    self.stable[i] += 1;
                } else {
                    self.stable[i] = 0;
                }
            }
            self.last_ipc[i] = Some(ipc);
            if reps.len() >= config.min_repetitions && self.stable[i] >= config.stable_window {
                self.done[i] = true;
            }
        }
    }

    /// Builds the report from the repetition records.
    fn finalize(&self, core: &SmtCore, warmup: u64) -> FameReport {
        let measured_cycles = core.stats().cycles;
        let threads = ThreadId::ALL.map(|t| {
            if !core.is_active(t) {
                return None;
            }
            let reps = &core.stats().thread(t).repetitions;
            // The first boundary after the stats reset closes a partial
            // repetition (the thread was mid-loop when measurement
            // started); average over the complete repetitions between the
            // first and last boundaries, as the paper's Figure 1 does
            // with its discarded tail.
            let (avg_repetition_cycles, ipc) = match reps.as_slice() {
                [first, .., last] => {
                    let span_cycles = (last.end_cycle - first.end_cycle).max(1) as f64;
                    let span_insts = (last.committed_at_end - first.committed_at_end) as f64;
                    let complete = (reps.len() - 1) as f64;
                    (span_cycles / complete, span_insts / span_cycles)
                }
                [last] => (
                    last.end_cycle as f64,
                    last.committed_at_end as f64 / last.end_cycle.max(1) as f64,
                ),
                // Not even one complete repetition: fall back to raw IPC.
                [] => (measured_cycles as f64, core.stats().ipc(t)),
            };
            Some(ThreadMeasurement {
                repetitions: reps.len(),
                avg_repetition_cycles,
                ipc,
                converged: self.done[t.index()],
                estimate: Estimate::exact(ipc),
            })
        });
        FameReport {
            threads,
            measured_cycles,
            warmup_cycles: warmup,
        }
    }
}

/// State of the interval-sampling loop: each active thread's IPC
/// samples and whether its estimate has converged.
#[derive(Debug)]
struct Sampler {
    samples: [Vec<f64>; 2],
    done: [bool; 2],
}

impl Sampler {
    fn new(core: &SmtCore) -> Sampler {
        Sampler {
            samples: [Vec::new(), Vec::new()],
            done: ThreadId::ALL.map(|t| !core.is_active(t)),
        }
    }

    fn all_done(&self) -> bool {
        self.done[0] && self.done[1]
    }

    /// Takes one IPC sample per active thread over the interval that
    /// just ended, given each context's committed instructions when it
    /// began. A thread converges once it has `min_repetitions` samples
    /// and the CI95 half-width is within `maiv` of the mean.
    fn observe(&mut self, core: &SmtCore, before: [u64; 2], interval: u64, config: &FameConfig) {
        for t in ThreadId::ALL.into_iter().filter(|&t| core.is_active(t)) {
            let i = t.index();
            let delta = core.stats().thread(t).committed - before[i];
            let samples = &mut self.samples[i];
            samples.push(delta as f64 / interval as f64);
            if self.done[i] || samples.len() < config.min_repetitions {
                continue;
            }
            let est = Estimate::from_samples(samples);
            if est.ci95 <= config.maiv * est.value {
                self.done[i] = true;
            }
        }
    }

    /// Builds the report from the samples.
    fn finalize(&self, core: &SmtCore, warmup: u64, interval: u64) -> FameReport {
        let threads = ThreadId::ALL.map(|t| {
            let samples = &self.samples[t.index()];
            let est = Estimate::from_samples(samples);
            core.is_active(t).then_some(ThreadMeasurement {
                repetitions: samples.len(),
                avg_repetition_cycles: interval as f64,
                ipc: est.value,
                converged: self.done[t.index()],
                estimate: est,
            })
        });
        FameReport {
            threads,
            measured_cycles: core.stats().cycles,
            warmup_cycles: warmup,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p5_core::CoreConfig;
    use p5_isa::{DataKind, Op, Program, Reg, StaticInst, StreamSpec};

    fn cpu_program(iters: u64) -> Program {
        let mut b = Program::builder("cpu");
        for i in 0..10 {
            b.push(StaticInst::new(Op::IntAlu).dst(Reg::new(32 + i)));
        }
        b.iterations(iters);
        b.build().unwrap()
    }

    fn chase_program(footprint: u64, iters: u64) -> Program {
        let mut b = Program::builder("chase");
        let s = b.stream(StreamSpec::pointer_chase(footprint));
        let ptr = Reg::new(1);
        b.push(
            StaticInst::new(Op::Load {
                stream: s,
                kind: DataKind::Int,
            })
            .dst(ptr)
            .src1(ptr),
        );
        b.iterations(iters);
        b.build().unwrap()
    }

    #[test]
    fn single_thread_measurement_converges() {
        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        core.load_program(ThreadId::T0, cpu_program(50));
        let report = FameRunner::new(FameConfig::quick()).measure(&mut core);
        let m = report.thread(ThreadId::T0).unwrap();
        assert!(m.converged, "steady program must converge: {m:?}");
        assert!(m.repetitions >= 3);
        assert!(m.ipc > 0.5);
        assert!(m.avg_repetition_cycles > 0.0);
        assert!(report.thread(ThreadId::T1).is_none());
        assert!(report.converged());
    }

    #[test]
    fn pair_measurement_requires_min_reps_of_both() {
        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        core.load_program(ThreadId::T0, cpu_program(50));
        core.load_program(ThreadId::T1, cpu_program(500)); // 10x longer reps
        let report = FameRunner::new(FameConfig::quick()).measure(&mut core);
        let fast = report.thread(ThreadId::T0).unwrap();
        let slow = report.thread(ThreadId::T1).unwrap();
        assert!(fast.repetitions >= 3);
        assert!(slow.repetitions >= 3);
        // The faster benchmark re-executes more often (paper Figure 1).
        assert!(fast.repetitions > slow.repetitions);
    }

    #[test]
    fn total_ipc_sums_threads() {
        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        core.load_program(ThreadId::T0, cpu_program(50));
        core.load_program(ThreadId::T1, cpu_program(50));
        let report = FameRunner::new(FameConfig::quick()).measure(&mut core);
        let sum =
            report.thread(ThreadId::T0).unwrap().ipc + report.thread(ThreadId::T1).unwrap().ipc;
        assert!((report.total_ipc() - sum).abs() < 1e-12);
    }

    #[test]
    fn budget_exhaustion_reports_unconverged() {
        let cfg = FameConfig {
            min_repetitions: 1000,
            max_cycles: 20_000,
            ..FameConfig::quick()
        };
        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        core.load_program(ThreadId::T0, cpu_program(50));
        let report = FameRunner::new(cfg).measure(&mut core);
        assert!(!report.thread(ThreadId::T0).unwrap().converged);
        assert!(!report.converged());
    }

    #[test]
    fn warmup_scales_with_chase_footprint() {
        let runner = FameRunner::new(FameConfig::quick());
        let mut small = SmtCore::new(CoreConfig::tiny_for_tests());
        small.load_program(ThreadId::T0, chase_program(4 * 1024, 100));
        let mut large = SmtCore::new(CoreConfig::tiny_for_tests());
        large.load_program(ThreadId::T0, chase_program(32 * 1024, 100));
        assert!(runner.warmup_budget(&large) > runner.warmup_budget(&small));
        // And is capped.
        assert!(runner.warmup_budget(&large) <= FameConfig::quick().warmup.max_cycles);
        // A ring that cannot fit the L3 never warms: no budget is spent.
        let mut huge = SmtCore::new(CoreConfig::tiny_for_tests());
        huge.load_program(ThreadId::T0, chase_program(512 * 1024, 100));
        assert_eq!(
            runner.warmup_budget(&huge),
            FameConfig::quick().warmup.min_cycles
        );
    }

    #[test]
    #[should_panic(expected = "at least one active thread")]
    fn measuring_idle_core_panics() {
        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        let _ = FameRunner::new(FameConfig::quick()).measure(&mut core);
    }

    #[test]
    #[should_panic(expected = "MAIV")]
    fn invalid_maiv_panics() {
        let _ = FameRunner::new(FameConfig {
            maiv: 0.0,
            ..FameConfig::quick()
        });
    }

    #[test]
    fn zero_repetition_fallback() {
        // A program whose single repetition never completes in budget.
        let cfg = FameConfig {
            max_cycles: 5_000,
            warmup: WarmupBudget::fixed(100),
            ..FameConfig::quick()
        };
        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        core.load_program(ThreadId::T0, cpu_program(1_000_000));
        let report = FameRunner::new(cfg).measure(&mut core);
        let m = report.thread(ThreadId::T0).unwrap();
        assert_eq!(m.repetitions, 0);
        assert!(!m.converged);
        assert!(m.ipc > 0.0, "falls back to raw IPC");
    }

    #[test]
    fn paper_config_defaults() {
        let c = FameConfig::paper();
        assert!((c.maiv - 0.01).abs() < 1e-12);
        assert_eq!(c.min_repetitions, 10);
        assert_eq!(FameConfig::default(), c);
    }

    #[test]
    fn try_measure_reports_idle_core_as_typed_error() {
        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        let err = FameRunner::new(FameConfig::quick())
            .try_measure(&mut core)
            .expect_err("no program loaded");
        assert_eq!(err, SimError::NoActiveThread);
    }

    #[test]
    fn try_measure_surfaces_watchdog_stall_with_culprit() {
        let mut cfg = CoreConfig::tiny_for_tests();
        cfg.lmq_entries = 0; // beyond-L1 misses can never issue
        cfg.watchdog_stall_cycles = 10_000;
        let mut core = SmtCore::new(cfg);
        core.load_program(ThreadId::T0, chase_program(256 * 1024, 100));
        let err = FameRunner::new(FameConfig::quick())
            .try_measure(&mut core)
            .expect_err("wedged core must trip the watchdog");
        let snap = err.snapshot().expect("stall carries a snapshot");
        assert_eq!(
            snap.culprit,
            p5_core::StuckResource::LoadMissQueue,
            "diagnostic must name the saturated resource"
        );
    }

    #[test]
    fn escalated_multiplies_budgets_only() {
        let base = FameConfig::quick();
        let up = base.escalated(4);
        assert_eq!(up.max_cycles, base.max_cycles * 4);
        assert_eq!(up.warmup.max_cycles, base.warmup.max_cycles * 4);
        assert_eq!(up.warmup.min_cycles, base.warmup.min_cycles * 4);
        assert_eq!(up.warmup.ring_passes, base.warmup.ring_passes);
        assert_eq!(up.maiv, base.maiv);
        assert_eq!(up.min_repetitions, base.min_repetitions);
        // Saturates instead of overflowing.
        assert_eq!(base.escalated(u64::MAX).max_cycles, u64::MAX);
    }

    #[test]
    fn warmup_budget_constructor_validates() {
        assert!(WarmupBudget::new(100, 1_000, 2).is_ok());
        // Floor above cap: the clamp would be empty.
        let err = WarmupBudget::new(2_000, 1_000, 2).unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidConfig {
                field: "warmup.min_cycles",
                ..
            }
        ));
        // Zero cap can never warm anything.
        let err = WarmupBudget::new(0, 0, 2).unwrap_err();
        assert!(matches!(
            err,
            SimError::InvalidConfig {
                field: "warmup.max_cycles",
                ..
            }
        ));
        // FameConfig validation covers the nested budget.
        let bad = FameConfig {
            warmup: WarmupBudget {
                min_cycles: 10,
                max_cycles: 5,
                ring_passes: 1,
            },
            ..FameConfig::quick()
        };
        assert!(bad.try_validate().is_err());
        let fixed = WarmupBudget::fixed(4_096);
        assert_eq!((fixed.min_cycles, fixed.max_cycles), (4_096, 4_096));
    }

    #[test]
    fn estimate_from_known_population() {
        // Hand-checked population: mean 2.0, sample std 1.0, n = 4,
        // t(3) = 3.182 → ci95 = 3.182 * 1.0 / sqrt(4) = 1.591.
        let est = Estimate::from_samples(&[1.0, 1.0, 3.0, 3.0]);
        assert!((est.value - 2.0).abs() < 1e-12);
        assert_eq!(est.samples, 4);
        let expected = 3.182 * (4.0f64 / 3.0).sqrt() / 2.0;
        assert!(
            (est.ci95 - expected).abs() < 1e-9,
            "ci95 {} != {expected}",
            est.ci95
        );
        assert!(est.covers(2.5));
        assert!(!est.covers(4.0));
    }

    #[test]
    fn estimate_degenerate_cases() {
        // Empty population.
        let empty = Estimate::from_samples(&[]);
        assert_eq!((empty.value, empty.ci95, empty.samples), (0.0, 0.0, 0));
        // Single sample: no variance estimate exists, interval is zero.
        let one = Estimate::from_samples(&[1.5]);
        assert_eq!((one.value, one.ci95, one.samples), (1.5, 0.0, 1));
        // Zero variance: exact value with a collapsed interval.
        let flat = Estimate::from_samples(&[0.75; 12]);
        assert!((flat.value - 0.75).abs() < 1e-12);
        assert_eq!(flat.ci95, 0.0);
        assert_eq!(flat.samples, 12);
        // Exact wrapper.
        let exact = Estimate::exact(0.33);
        assert_eq!((exact.value, exact.ci95, exact.samples), (0.33, 0.0, 1));
        assert!(exact.covers(0.33) && !exact.covers(0.3300001));
    }

    #[test]
    fn estimate_large_population_uses_normal_tail() {
        // A deterministic seeded population (xorshift-ish) with n > 31 so
        // the 1.96 normal tail applies, cross-checked against a direct
        // computation.
        let mut x: u64 = 0x9e3779b97f4a7c15;
        let mut pop = Vec::new();
        for _ in 0..64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            pop.push((x % 1000) as f64 / 1000.0);
        }
        let est = Estimate::from_samples(&pop);
        let mean = pop.iter().sum::<f64>() / 64.0;
        let var = pop.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / 63.0;
        let expected = 1.96 * (var / 64.0).sqrt();
        assert!((est.value - mean).abs() < 1e-12);
        assert!((est.ci95 - expected).abs() < 1e-12);
    }

    #[test]
    fn sampled_measurement_converges_with_interval() {
        let plan = p5_core::ExecutionPlan::sampled(SamplingConfig {
            interval: 2_048,
            period: 8_192,
        });
        let mut cfg = CoreConfig::tiny_for_tests();
        cfg.plan = plan;
        let mut core = SmtCore::new(cfg);
        core.load_program(ThreadId::T0, cpu_program(50));
        let report = FameRunner::new(FameConfig::quick()).measure(&mut core);
        let m = report.thread(ThreadId::T0).unwrap();
        assert!(m.converged, "steady program must converge: {m:?}");
        assert!(m.repetitions >= 3, "at least min_repetitions samples");
        assert_eq!(m.estimate.samples as usize, m.repetitions);
        assert_eq!(m.ipc, m.estimate.value);
        assert!(m.estimate.ci95 >= 0.0);
        assert!(m.ipc > 0.5);
    }

    #[test]
    fn sampled_estimate_brackets_detailed_ipc() {
        let run = |plan: p5_core::ExecutionPlan| {
            let mut cfg = CoreConfig::tiny_for_tests();
            cfg.plan = plan;
            let mut core = SmtCore::new(cfg);
            core.load_program(ThreadId::T0, chase_program(8 * 1024, 500));
            FameRunner::new(FameConfig::quick()).measure(&mut core)
        };
        let detailed = run(p5_core::ExecutionPlan::detailed());
        let sampled = run(p5_core::ExecutionPlan::sampled(SamplingConfig {
            interval: 4_096,
            period: 16_384,
        }));
        let d = detailed.thread(ThreadId::T0).unwrap();
        let s = sampled.thread(ThreadId::T0).unwrap();
        assert_eq!(d.estimate.ci95, 0.0, "detailed carries an exact estimate");
        let rel = ((s.ipc - d.ipc) / d.ipc).abs();
        assert!(
            rel < 0.10,
            "sampled IPC {} strays {rel:.3} from detailed {}",
            s.ipc,
            d.ipc
        );
    }

    #[test]
    fn sampled_measurement_is_deterministic() {
        let run = || {
            let mut cfg = CoreConfig::tiny_for_tests();
            cfg.plan = p5_core::ExecutionPlan::sampled(SamplingConfig::default());
            let mut core = SmtCore::new(cfg);
            core.load_program(ThreadId::T0, chase_program(8 * 1024, 500));
            core.load_program(ThreadId::T1, cpu_program(200));
            FameRunner::new(FameConfig::quick()).measure(&mut core)
        };
        assert_eq!(run(), run(), "same seed, same schedule, same bits");
    }

    #[test]
    fn expired_token_aborts_with_deadline_error() {
        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        core.load_program(ThreadId::T0, cpu_program(50));
        let err = FameRunner::new(FameConfig::quick())
            .with_cancel(p5_core::CancelToken::with_budget(std::time::Duration::ZERO))
            .try_measure(&mut core)
            .expect_err("expired token must abort the run");
        assert!(
            matches!(err, SimError::Deadline { phase: "warmup" }),
            "{err:?}"
        );
        assert!(!err.is_retryable());
    }

    #[test]
    fn cancelled_token_aborts_mid_measure() {
        let token = p5_core::CancelToken::new();
        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        core.load_program(ThreadId::T0, cpu_program(50));
        let runner = FameRunner::new(FameConfig::quick()).with_cancel(token.clone());
        let warmup = runner.warm_only(&mut core).expect("live token warms fine");
        token.cancel();
        let err = runner
            .try_measure_restored(&mut core, warmup)
            .expect_err("cancelled token must abort the measure phase");
        assert!(
            matches!(err, SimError::Deadline { phase: "measure" }),
            "{err:?}"
        );
    }

    #[test]
    fn live_token_is_bit_identical_to_no_token() {
        let measure = |token: Option<p5_core::CancelToken>| {
            let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
            core.load_program(ThreadId::T0, chase_program(8 * 1024, 200));
            let mut runner = FameRunner::new(FameConfig::quick());
            if let Some(t) = token {
                runner = runner.with_cancel(t);
            }
            runner.try_measure(&mut core).expect("converges")
        };
        let plain = measure(None);
        let tokened = measure(Some(p5_core::CancelToken::with_budget(
            std::time::Duration::from_secs(3600),
        )));
        assert_eq!(
            plain, tokened,
            "a live token must not perturb the measurement"
        );
    }

    #[test]
    fn checks_yield_once_per_yield_period() {
        // The detailed measure checks every CHECK_PERIOD cycles from a
        // reset counter: one check in eight yields.
        let measure: Vec<u64> = (1..=80).map(|k| k * CHECK_PERIOD).collect();
        let due = measure.iter().filter(|&&c| yield_due(c, CHECK_PERIOD));
        assert_eq!(due.count(), 10);
        // A warm-up chunk or a sampled interval past the period always
        // yields, wherever the counter sits; the check before the
        // warm-up, after no cycles, never does.
        for cycles in [WARMUP_CHUNK, 10_000, 50_000 + 10_000, 12_345] {
            assert!(yield_due(cycles, WARMUP_CHUNK));
            assert!(!yield_due(cycles, 0));
        }
    }

    #[test]
    fn try_validate_names_offending_field() {
        let err = FameConfig {
            max_cycles: 0,
            ..FameConfig::quick()
        }
        .try_validate()
        .expect_err("zero budget");
        assert!(matches!(
            err,
            SimError::InvalidConfig {
                field: "max_cycles",
                ..
            }
        ));
    }
}
