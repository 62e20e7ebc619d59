//! # p5-fault
//!
//! Deterministic fault injection for the POWER5 priority simulator.
//!
//! The paper's mechanisms — decode-slot arbitration by priority ratio,
//! the dynamic resource balancer, the shared LMQ — are exactly the
//! places where a cycle-level model can silently wedge when a resource
//! saturates. This crate perturbs a running [`SmtCore`] with scheduled
//! faults and asserts the robustness contract: **every perturbed run
//! ends in a bounded outcome** (completion, budget exhaustion, or a
//! typed [`SimError`]) **and the conservation laws of the pipeline
//! survive the perturbation**.
//!
//! Everything is seeded and self-contained: a [`FaultPlan`] is derived
//! from a single `u64` with the same xorshift64* generator the engine
//! uses for data-dependent branches, so any failing plan is exactly
//! reproducible from its seed.
//!
//! # Example
//!
//! ```
//! use p5_core::{CoreConfig, SmtCore};
//! use p5_fault::{check_invariants, FaultInjector, FaultPlan};
//! use p5_isa::{Op, Program, Reg, StaticInst, ThreadId};
//!
//! let mut b = Program::builder("toy");
//! for i in 0..10 {
//!     b.push(StaticInst::new(Op::IntAlu).dst(Reg::new(32 + i)));
//! }
//! b.iterations(100);
//! let prog = b.build()?;
//!
//! let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
//! core.load_program(ThreadId::T0, prog.clone());
//! core.load_program(ThreadId::T1, prog);
//!
//! let plan = FaultPlan::generate(0xBAD_5EED, 50_000, 8);
//! let outcome = FaultInjector::new(plan).run(&mut core, [3, 3], 2_000_000);
//! assert!(outcome.is_ok() || outcome.is_err()); // bounded either way
//! check_invariants(&core).expect("conservation laws hold under faults");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use p5_core::{RunOutcome, SimError, SmtCore};
use p5_isa::{decode_policy, DecodePolicy, Priority, ThreadId};
use std::fmt;

/// Deterministic xorshift64* generator (the engine's own family), so
/// fault plans need no external RNG crate and reproduce exactly.
#[derive(Debug, Clone)]
pub struct FaultRng(u64);

impl FaultRng {
    /// Creates a generator; a zero seed is remapped to a fixed odd
    /// constant (xorshift has an all-zero fixed point).
    #[must_use]
    pub fn new(seed: u64) -> FaultRng {
        FaultRng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw from `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        debug_assert!(lo <= hi);
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// One kind of microarchitectural perturbation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Front-end bubble: `thread` decodes nothing for `cycles` cycles.
    DecodeStall {
        /// The stalled context.
        thread: ThreadId,
        /// Stall length.
        cycles: u64,
    },
    /// No load or store may issue for `cycles` cycles.
    CachePortBlock {
        /// Block length.
        cycles: u64,
    },
    /// The LMQ reports no free entry for `cycles` cycles.
    LmqSaturate {
        /// Saturation length.
        cycles: u64,
    },
    /// A burst of `bursts` decode stalls of `stall` cycles each, `gap`
    /// cycles apart, on `thread` — models the balancer's flush reaction
    /// storming (the model implements flushes as decode gates, which is
    /// steady-state equivalent; see `BalancerConfig`).
    FlushStorm {
        /// The flushed context.
        thread: ThreadId,
        /// Number of flushes in the storm.
        bursts: u32,
        /// Decode-dead cycles per flush.
        stall: u64,
        /// Cycles between consecutive flushes.
        gap: u64,
    },
    /// A stray write to `thread`'s priority register: any level 0-7,
    /// including 0 (context off) and 7 (single-thread mode).
    PriorityCorruption {
        /// The corrupted context.
        thread: ThreadId,
        /// The level written (0-7).
        level: u8,
    },
}

impl FaultKind {
    /// Whether the fault's effect persists indefinitely (a corrupted
    /// priority stays corrupted; blocking faults expire on their own).
    #[must_use]
    pub fn is_permanent(&self) -> bool {
        matches!(self, FaultKind::PriorityCorruption { .. })
    }

    /// The last cycle (relative to injection) at which this fault still
    /// actively blocks something; `None` for permanent faults.
    fn active_window(&self) -> Option<u64> {
        match *self {
            FaultKind::DecodeStall { cycles, .. }
            | FaultKind::CachePortBlock { cycles }
            | FaultKind::LmqSaturate { cycles } => Some(cycles),
            FaultKind::FlushStorm {
                bursts, stall, gap, ..
            } => Some(u64::from(bursts) * (stall + gap)),
            FaultKind::PriorityCorruption { .. } => None,
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::DecodeStall { thread, cycles } => {
                write!(f, "decode stall of {cycles} cycles on {thread:?}")
            }
            FaultKind::CachePortBlock { cycles } => {
                write!(f, "cache ports blocked for {cycles} cycles")
            }
            FaultKind::LmqSaturate { cycles } => {
                write!(f, "LMQ saturated for {cycles} cycles")
            }
            FaultKind::FlushStorm {
                thread,
                bursts,
                stall,
                gap,
            } => write!(
                f,
                "flush storm on {thread:?}: {bursts} x {stall}-cycle stalls every {gap} cycles"
            ),
            FaultKind::PriorityCorruption { thread, level } => {
                write!(f, "priority of {thread:?} corrupted to {level}")
            }
        }
    }
}

/// A fault scheduled at an absolute core cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Core cycle at which the fault fires.
    pub at_cycle: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, seeded schedule of faults.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// Generates `count` faults uniformly over cycles `1..=horizon`,
    /// fully determined by `seed`. Fault kinds, victim threads, and
    /// durations are drawn from the same stream, so two plans with the
    /// same arguments are identical.
    #[must_use]
    pub fn generate(seed: u64, horizon: u64, count: usize) -> FaultPlan {
        let mut rng = FaultRng::new(seed);
        let horizon = horizon.max(1);
        let mut faults: Vec<ScheduledFault> = (0..count)
            .map(|_| {
                let at_cycle = rng.range(1, horizon);
                let thread = if rng.next_u64().is_multiple_of(2) {
                    ThreadId::T0
                } else {
                    ThreadId::T1
                };
                let kind = match rng.next_u64() % 5 {
                    0 => FaultKind::DecodeStall {
                        thread,
                        cycles: rng.range(50, 2_000),
                    },
                    1 => FaultKind::CachePortBlock {
                        cycles: rng.range(50, 2_000),
                    },
                    2 => FaultKind::LmqSaturate {
                        cycles: rng.range(50, 2_000),
                    },
                    3 => FaultKind::FlushStorm {
                        thread,
                        bursts: rng.range(2, 6) as u32,
                        stall: rng.range(20, 200),
                        gap: rng.range(50, 500),
                    },
                    _ => FaultKind::PriorityCorruption {
                        thread,
                        level: rng.range(0, 7) as u8,
                    },
                };
                ScheduledFault { at_cycle, kind }
            })
            .collect();
        faults.sort_by_key(|f| f.at_cycle);
        FaultPlan { seed, faults }
    }

    /// A plan with explicit faults (for targeted tests).
    #[must_use]
    pub fn explicit(faults: Vec<ScheduledFault>) -> FaultPlan {
        let mut faults = faults;
        faults.sort_by_key(|f| f.at_cycle);
        FaultPlan { seed: 0, faults }
    }

    /// The seed this plan was generated from (0 for explicit plans).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled faults, in firing order.
    #[must_use]
    pub fn faults(&self) -> &[ScheduledFault] {
        &self.faults
    }
}

/// Drives a core to a repetition target while firing a [`FaultPlan`],
/// and attributes any resulting stall to the injected fault when one is
/// plausibly responsible.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Creates an injector for `plan`.
    #[must_use]
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan }
    }

    /// The plan being injected.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Runs `core` toward `target` repetitions under the fault plan.
    ///
    /// The loop steps the core cycle by cycle, firing each scheduled
    /// fault when its cycle arrives (flush storms expand into their
    /// individual stalls here). The core's forward-progress watchdog is
    /// honoured throughout; the run is additionally bounded by
    /// `max_cycles`, so it **always** returns:
    ///
    /// - `Ok(Completed)` — the target was reached despite the faults;
    /// - `Ok(MaxCycles)` — still progressing, budget ran out (e.g. a
    ///   corrupted priority starving one thread);
    /// - `Err(SimError::InjectedFault)` — the watchdog tripped while an
    ///   injected fault was still in effect (the description names both
    ///   the fault and the saturated resource);
    /// - `Err(SimError::ForwardProgressStall)` — the watchdog tripped
    ///   with no live fault to blame (a genuine model wedge).
    ///
    /// # Errors
    ///
    /// See above; errors are part of the contract, not exceptional.
    pub fn run(
        &self,
        core: &mut SmtCore,
        target: [usize; 2],
        max_cycles: u64,
    ) -> Result<RunOutcome, SimError> {
        // Expand flush storms into individual decode stalls.
        let mut events: Vec<ScheduledFault> = Vec::new();
        for f in &self.plan.faults {
            match f.kind {
                FaultKind::FlushStorm {
                    thread,
                    bursts,
                    stall,
                    gap,
                } => {
                    for i in 0..u64::from(bursts) {
                        events.push(ScheduledFault {
                            at_cycle: f.at_cycle + i * (stall + gap),
                            kind: FaultKind::DecodeStall {
                                thread,
                                cycles: stall,
                            },
                        });
                    }
                }
                _ => events.push(*f),
            }
        }
        events.sort_by_key(|f| f.at_cycle);

        let deadline = core.cycle() + max_cycles;
        let watchdog = core.config().watchdog_stall_cycles;
        let mut next_event = 0usize;
        // (cycle fired, original fault) of the most recent application,
        // for stall attribution.
        let mut last_fired: Option<(u64, FaultKind)> = None;
        let mut any_permanent: Option<(u64, FaultKind)> = None;

        while core.cycle() < deadline {
            let done = ThreadId::ALL.iter().all(|&t| {
                !core.is_active(t) || core.stats().thread(t).repetitions.len() >= target[t.index()]
            });
            if done {
                return Ok(RunOutcome::Completed);
            }

            while next_event < events.len() && events[next_event].at_cycle <= core.cycle() {
                let fault = events[next_event];
                self.apply(core, fault.kind);
                if fault.kind.is_permanent() {
                    any_permanent = Some((core.cycle(), fault.kind));
                }
                last_fired = Some((core.cycle(), fault.kind));
                next_event += 1;
            }

            if watchdog != 0 && core.stalled_cycles() >= watchdog {
                let snapshot = core.diagnostic_snapshot();
                // Blame the injection if a fault is permanent or its
                // blocking window overlaps the stall window.
                let blamed = any_permanent.or_else(|| {
                    last_fired.filter(|(fired, kind)| {
                        kind.active_window()
                            .is_some_and(|w| fired + w + watchdog >= core.cycle())
                    })
                });
                return Err(match blamed {
                    Some((fired, kind)) => SimError::InjectedFault {
                        cycle: fired,
                        description: format!(
                            "{kind}; stalled on {} at cycle {}",
                            snapshot.culprit,
                            core.cycle()
                        ),
                    },
                    None => SimError::ForwardProgressStall {
                        snapshot: Box::new(snapshot),
                    },
                });
            }

            core.step();
        }
        Ok(RunOutcome::MaxCycles)
    }

    fn apply(&self, core: &mut SmtCore, kind: FaultKind) {
        match kind {
            FaultKind::DecodeStall { thread, cycles } => {
                core.inject_decode_stall(thread, cycles);
            }
            FaultKind::CachePortBlock { cycles } => core.inject_cache_port_block(cycles),
            FaultKind::LmqSaturate { cycles } => core.inject_lmq_block(cycles),
            FaultKind::FlushStorm { .. } => unreachable!("storms expand before the loop"),
            FaultKind::PriorityCorruption { thread, level } => {
                let p = Priority::from_level(level).expect("levels 0-7 are all valid");
                core.set_priority(thread, p);
            }
        }
    }
}

/// Checks the pipeline conservation laws on a core, typically after a
/// faulted run:
///
/// - committed ≤ decoded, per thread;
/// - decode cycles used ≤ decode cycles granted, per thread;
/// - total decode grants ≤ total cycles;
/// - GCT and LMQ occupancies within capacity.
///
/// # Errors
///
/// Returns every violated law as a human-readable string.
pub fn check_invariants(core: &SmtCore) -> Result<(), Vec<String>> {
    let mut violations = Vec::new();
    let stats = core.stats();
    let mut granted_total = 0u64;
    for t in ThreadId::ALL {
        let st = stats.thread(t);
        if st.committed > st.decoded {
            violations.push(format!(
                "{t:?}: committed {} > decoded {}",
                st.committed, st.decoded
            ));
        }
        if st.decode_cycles_used > st.decode_cycles_granted {
            violations.push(format!(
                "{t:?}: decode cycles used {} > granted {}",
                st.decode_cycles_used, st.decode_cycles_granted
            ));
        }
        granted_total += st.decode_cycles_granted;
    }
    if granted_total > stats.cycles {
        violations.push(format!(
            "decode grants {granted_total} > cycles {}",
            stats.cycles
        ));
    }
    if core.gct_occupancy() > core.config().gct_entries {
        violations.push(format!(
            "GCT occupancy {} > capacity {}",
            core.gct_occupancy(),
            core.config().gct_entries
        ));
    }
    if core.lmq_occupancy() > core.config().lmq_entries {
        violations.push(format!(
            "LMQ occupancy {} > capacity {}",
            core.lmq_occupancy(),
            core.config().lmq_entries
        ));
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

/// Checks that the decode-slot grant ratio between the two threads
/// respects Equation 1's `R = 2^(|d|+1)` bound for a run whose
/// priorities were `(p0, p1)` throughout (do not call this if a
/// [`FaultKind::PriorityCorruption`] fired — the ledger then spans two
/// policies). Tolerance covers at most one partial period.
///
/// # Errors
///
/// Returns a description of the violated share bound.
pub fn check_decode_share_bound(core: &SmtCore, p0: Priority, p1: Priority) -> Result<(), String> {
    let stats = core.stats();
    let g0 = stats.thread(ThreadId::T0).decode_cycles_granted;
    let g1 = stats.thread(ThreadId::T1).decode_cycles_granted;
    let total = g0 + g1;
    if total == 0 {
        return Ok(());
    }
    match decode_policy(p0, p1) {
        DecodePolicy::Ratio {
            favoured,
            favoured_slots,
            period,
        } => {
            let expected = f64::from(favoured_slots) / f64::from(period);
            let g_fav = if favoured == ThreadId::T0 { g0 } else { g1 };
            let actual = g_fav as f64 / total as f64;
            // One partial period of slack either way.
            let tol = f64::from(period) / total as f64 + 1e-9;
            if (actual - expected).abs() > tol {
                return Err(format!(
                    "favoured share {actual:.4} deviates from 2^(|d|+1) share \
                     {expected:.4} beyond tolerance {tol:.4} \
                     (grants {g0}/{g1}, priorities {}/{})",
                    p0.level(),
                    p1.level()
                ));
            }
            Ok(())
        }
        // Single-thread, low-power, and off modes have no two-sided
        // ratio to check.
        _ => Ok(()),
    }
}

/// One kind of *host-level* failure — a fault in the machinery running
/// the simulation rather than in the simulated microarchitecture.
///
/// Where [`FaultKind`] perturbs the modeled pipeline, `HostFaultKind`
/// perturbs the campaign engine itself: a worker panicking mid-cell, a
/// cell stalling past its wall-clock deadline, the whole campaign being
/// torn down. The campaign engine consumes a [`ChaosPlan`] to rehearse
/// exactly these failures deterministically in tests and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostFaultKind {
    /// The worker thread panics at the start of the cell (before any
    /// simulation work), as a wedged allocator or a library bug would.
    PanicCell,
    /// The worker sleeps `millis` of wall-clock time before simulating,
    /// busting any per-cell deadline smaller than that.
    StallCell {
        /// Host sleep in milliseconds.
        millis: u64,
    },
    /// The campaign's cancellation token fires when this cell is
    /// claimed — every cell not yet finished is abandoned, as on a
    /// SIGTERM or CI timeout.
    AbortCampaign,
}

impl fmt::Display for HostFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            HostFaultKind::PanicCell => f.write_str("worker panics at cell start"),
            HostFaultKind::StallCell { millis } => {
                write!(f, "worker stalls {millis}ms before simulating")
            }
            HostFaultKind::AbortCampaign => f.write_str("campaign aborted at cell claim"),
        }
    }
}

/// A host-level failure pinned to one campaign cell (by its index in
/// the campaign's cell list).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostFault {
    /// Index of the victim cell in the campaign spec.
    pub cell_id: usize,
    /// What happens when a worker claims that cell.
    pub kind: HostFaultKind,
}

/// A deterministic schedule of host-level failures for one campaign
/// run, keyed by cell index (so the plan is independent of worker
/// count and claim order — the same cell fails at any `--jobs`).
///
/// A campaign simulates each group of cells with one identity once, on
/// the group's lowest index, and gives that outcome to the rest. A fault
/// scheduled on any index of such a group fires on that one run, so
/// every cell of the group shares its effect.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    faults: Vec<HostFault>,
}

impl ChaosPlan {
    /// An empty plan: no host failures.
    #[must_use]
    pub fn new() -> ChaosPlan {
        ChaosPlan::default()
    }

    /// Adds a worker panic at the start of cell `cell_id`.
    #[must_use]
    pub fn panic_cell(mut self, cell_id: usize) -> ChaosPlan {
        self.faults.push(HostFault {
            cell_id,
            kind: HostFaultKind::PanicCell,
        });
        self
    }

    /// Adds a `millis`-millisecond host stall at the start of cell
    /// `cell_id`.
    #[must_use]
    pub fn stall_cell(mut self, cell_id: usize, millis: u64) -> ChaosPlan {
        self.faults.push(HostFault {
            cell_id,
            kind: HostFaultKind::StallCell { millis },
        });
        self
    }

    /// Aborts the whole campaign when cell `cell_id` is claimed.
    #[must_use]
    pub fn abort_at(mut self, cell_id: usize) -> ChaosPlan {
        self.faults.push(HostFault {
            cell_id,
            kind: HostFaultKind::AbortCampaign,
        });
        self
    }

    /// All scheduled host faults, in insertion order.
    #[must_use]
    pub fn faults(&self) -> &[HostFault] {
        &self.faults
    }

    /// The host faults pinned to cell `cell_id`, in insertion order.
    pub fn for_cell(&self, cell_id: usize) -> impl Iterator<Item = HostFaultKind> + '_ {
        self.faults
            .iter()
            .filter(move |f| f.cell_id == cell_id)
            .map(|f| f.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p5_core::CoreConfig;
    use p5_isa::{Op, Program, Reg, StaticInst};

    fn cpu_program(iters: u64) -> Program {
        let mut b = Program::builder("cpu");
        for i in 0..10 {
            b.push(StaticInst::new(Op::IntAlu).dst(Reg::new(32 + i)));
        }
        b.iterations(iters);
        b.build().unwrap()
    }

    fn smt_core() -> SmtCore {
        let mut c = SmtCore::new(CoreConfig::tiny_for_tests());
        c.load_program(ThreadId::T0, cpu_program(200));
        c.load_program(ThreadId::T1, cpu_program(200));
        c
    }

    #[test]
    fn plans_are_deterministic_in_seed() {
        let a = FaultPlan::generate(42, 100_000, 16);
        let b = FaultPlan::generate(42, 100_000, 16);
        assert_eq!(a.faults(), b.faults());
        let c = FaultPlan::generate(43, 100_000, 16);
        assert_ne!(a.faults(), c.faults(), "different seed, different plan");
        assert!(a
            .faults()
            .windows(2)
            .all(|w| w[0].at_cycle <= w[1].at_cycle));
    }

    #[test]
    fn transient_faults_still_complete() {
        let plan = FaultPlan::explicit(vec![
            ScheduledFault {
                at_cycle: 500,
                kind: FaultKind::DecodeStall {
                    thread: ThreadId::T0,
                    cycles: 1_000,
                },
            },
            ScheduledFault {
                at_cycle: 2_000,
                kind: FaultKind::CachePortBlock { cycles: 500 },
            },
            ScheduledFault {
                at_cycle: 4_000,
                kind: FaultKind::FlushStorm {
                    thread: ThreadId::T1,
                    bursts: 3,
                    stall: 100,
                    gap: 200,
                },
            },
        ]);
        let mut core = smt_core();
        let outcome = FaultInjector::new(plan)
            .run(&mut core, [5, 5], 5_000_000)
            .expect("transient faults must not stall the core");
        assert_eq!(outcome, RunOutcome::Completed);
        check_invariants(&core).expect("conservation laws");
    }

    #[test]
    fn corrupting_both_priorities_to_zero_is_a_typed_error() {
        let plan = FaultPlan::explicit(vec![
            ScheduledFault {
                at_cycle: 1_000,
                kind: FaultKind::PriorityCorruption {
                    thread: ThreadId::T0,
                    level: 0,
                },
            },
            ScheduledFault {
                at_cycle: 1_001,
                kind: FaultKind::PriorityCorruption {
                    thread: ThreadId::T1,
                    level: 0,
                },
            },
        ]);
        let mut cfg = CoreConfig::tiny_for_tests();
        cfg.watchdog_stall_cycles = 5_000;
        let mut core = SmtCore::new(cfg);
        core.load_program(ThreadId::T0, cpu_program(100_000));
        core.load_program(ThreadId::T1, cpu_program(100_000));
        let err = FaultInjector::new(plan)
            .run(&mut core, [50, 50], 50_000_000)
            .expect_err("both contexts off can never progress");
        match err {
            SimError::InjectedFault { description, .. } => {
                assert!(
                    description.contains("corrupted to 0"),
                    "attribution names the fault: {description}"
                );
            }
            other => panic!("expected InjectedFault, got {other:?}"),
        }
        assert!(core.cycle() < 1_000_000, "watchdog fired early");
    }

    #[test]
    fn decode_share_bound_holds_without_corruption() {
        let mut core = smt_core();
        let p0 = Priority::from_level(6).unwrap();
        let p1 = Priority::from_level(4).unwrap();
        core.set_priority(ThreadId::T0, p0);
        core.set_priority(ThreadId::T1, p1);
        let plan = FaultPlan::explicit(vec![ScheduledFault {
            at_cycle: 1_000,
            kind: FaultKind::LmqSaturate { cycles: 2_000 },
        }]);
        FaultInjector::new(plan)
            .run(&mut core, [5, 5], 5_000_000)
            .expect("transient LMQ saturation completes");
        check_decode_share_bound(&core, p0, p1).expect("Equation 1 bound");
    }

    #[test]
    fn chaos_plan_pins_faults_to_cells() {
        let plan = ChaosPlan::new()
            .panic_cell(3)
            .stall_cell(3, 250)
            .abort_at(7);
        assert_eq!(plan.faults().len(), 3);
        let cell3: Vec<_> = plan.for_cell(3).collect();
        assert_eq!(
            cell3,
            vec![
                HostFaultKind::PanicCell,
                HostFaultKind::StallCell { millis: 250 }
            ]
        );
        assert_eq!(
            plan.for_cell(7).collect::<Vec<_>>(),
            vec![HostFaultKind::AbortCampaign]
        );
        assert!(plan.for_cell(0).next().is_none());
        assert_eq!(
            HostFaultKind::StallCell { millis: 250 }.to_string(),
            "worker stalls 250ms before simulating"
        );
    }

    #[test]
    fn seeded_sweep_is_bounded_and_invariant_preserving() {
        for seed in 1..=10u64 {
            let plan = FaultPlan::generate(seed, 20_000, 6);
            let mut cfg = CoreConfig::tiny_for_tests();
            cfg.watchdog_stall_cycles = 20_000;
            let mut core = SmtCore::new(cfg);
            core.load_program(ThreadId::T0, cpu_program(200));
            core.load_program(ThreadId::T1, cpu_program(200));
            let result = FaultInjector::new(plan).run(&mut core, [5, 5], 3_000_000);
            match result {
                Ok(_) => {}
                Err(SimError::InjectedFault { .. } | SimError::ForwardProgressStall { .. }) => {}
                Err(other) => panic!("seed {seed}: unexpected error {other:?}"),
            }
            check_invariants(&core).unwrap_or_else(|v| panic!("seed {seed}: violations {v:?}"));
        }
    }
}
