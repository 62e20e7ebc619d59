//! The dual-core POWER5 chip: two SMT2 cores sharing the L2, L3 and TLB.
//!
//! The paper's methodology depends on this chip-level structure: "both
//! single-thread and multithreaded experiments were performed on the
//! second core of the POWER5. All user-land processes and interrupt
//! requests were isolated on the first one, leaving the second core as
//! free as possible from noise" (Section 4.1). [`Chip`] lets the
//! reproduction demonstrate exactly that: activity on core 0 perturbs
//! core 1 only through the shared cache levels, and isolating it removes
//! the noise.
//!
//! # Parallel execution
//!
//! The chip can also run its two cores on separate OS threads
//! ([`ChipParallelism`], DESIGN.md §16): a deterministic turnstile mode
//! (`quantum == 1`) that keeps results bit-identical to the serial
//! reference order, and a relaxed-quantum mode (the parti-gem5 idiom,
//! arXiv 2308.09445) where both cores free-run between barriers at the
//! shared L2/L3 boundary. Either way the only mutable state the threads
//! share is behind the poison-recovering shared-cache locks; each
//! core's private pipeline state stays lock-free.

use crate::cancel::CancelToken;
use crate::config::{ChipParallelism, CoreConfig};
use crate::engine::SmtCore;
use p5_mem::{MemoryHierarchy, SharedCaches};
use std::sync::{Condvar, Mutex, PoisonError};

/// Identifier of one of the chip's two cores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoreId {
    /// Core 0 (where the paper parked the OS and interrupts).
    C0,
    /// Core 1 (the paper's measurement core).
    C1,
}

impl CoreId {
    /// Both core identifiers.
    pub const ALL: [CoreId; 2] = [CoreId::C0, CoreId::C1];

    /// Zero-based index.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            CoreId::C0 => 0,
            CoreId::C1 => 1,
        }
    }
}

/// A dual-core POWER5 chip. Each core is a full [`SmtCore`] (private L1D,
/// decode priorities, GCT, balancer); the L2, L3 and TLB are shared
/// between the cores, so workloads interact across cores exactly through
/// the levels the real chip shares.
///
/// Cores step in lockstep, core 0 first within each cycle — the
/// interleaving is fixed, so chip simulations are as deterministic as
/// single-core ones.
///
/// # Example
///
/// ```
/// use p5_core::{Chip, CoreConfig, CoreId};
/// use p5_isa::{Op, Program, StaticInst, ThreadId};
///
/// let mut b = Program::builder("toy");
/// b.push(StaticInst::new(Op::IntAlu));
/// b.iterations(100);
/// let prog = b.build()?;
///
/// let mut chip = Chip::new(CoreConfig::tiny_for_tests());
/// chip.core_mut(CoreId::C0).load_program(ThreadId::T0, prog.clone());
/// chip.core_mut(CoreId::C1).load_program(ThreadId::T0, prog);
/// chip.run_cycles(10_000);
/// assert!(chip.core(CoreId::C1).stats().committed(ThreadId::T0) > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Chip {
    cores: [SmtCore; 2],
    cycle: u64,
    parallelism: ChipParallelism,
}

impl Chip {
    /// Distinguishes the two cores' address spaces (bit 50, far above the
    /// per-thread and per-stream region bits).
    const CORE_ADDRESS_SALT: u64 = 1 << 50;

    /// How often (in cycles) a threaded or serial chunked run polls its
    /// [`CancelToken`]. `CancelToken::expired` reads the wall clock, so
    /// per-cycle polling would dominate small quanta; 1024 cycles keeps
    /// the poll below measurement noise while still bounding overshoot
    /// to microseconds of simulated work.
    const CANCEL_CHECK_CYCLES: u64 = 1024;

    /// Builds a chip whose two cores both use `config`; the L2, L3 and
    /// TLB of `config.mem` are instantiated once and shared. The chip's
    /// scheduling mode is taken from `config.plan.chip`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`CoreConfig::validate`]).
    #[must_use]
    pub fn new(config: CoreConfig) -> Chip {
        let parallelism = config.plan.chip;
        let shared = SharedCaches::new(&config.mem);
        let mem0 = MemoryHierarchy::with_shared(config.mem, shared.clone());
        let mem1 = MemoryHierarchy::with_shared(config.mem, shared);
        Chip {
            cores: [
                SmtCore::with_memory(config.clone(), mem0, 0),
                SmtCore::with_memory(config, mem1, Chip::CORE_ADDRESS_SALT),
            ],
            cycle: 0,
            parallelism,
        }
    }

    /// The chip's scheduling mode (from `config.plan.chip` at
    /// construction unless overridden via
    /// [`set_parallelism`](Chip::set_parallelism)).
    #[must_use]
    pub fn parallelism(&self) -> ChipParallelism {
        self.parallelism
    }

    /// Overrides the scheduling mode. Serial and deterministic threaded
    /// (`quantum == 1`) runs are bit-identical, so switching between
    /// them mid-simulation is safe; switching to a relaxed quantum
    /// changes the shared-cache interleaving from that point on.
    pub fn set_parallelism(&mut self, parallelism: ChipParallelism) {
        self.parallelism = parallelism;
    }

    /// One core of the chip.
    #[must_use]
    pub fn core(&self, id: CoreId) -> &SmtCore {
        &self.cores[id.index()]
    }

    /// Mutable access to one core (to load programs, set priorities).
    pub fn core_mut(&mut self, id: CoreId) -> &mut SmtCore {
        &mut self.cores[id.index()]
    }

    /// Every core, indexed by [`CoreId::index`].
    #[must_use]
    pub fn cores(&self) -> &[SmtCore] {
        &self.cores
    }

    /// Mutable access to every core, indexed by [`CoreId::index`].
    pub fn cores_mut(&mut self) -> &mut [SmtCore] {
        &mut self.cores
    }

    /// Chip cycle count.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances both cores by one cycle (core 0 first — the serial
    /// reference order every other mode is measured against).
    pub fn step(&mut self) {
        self.cycle += 1;
        for core in &mut self.cores {
            core.step();
        }
    }

    /// Advances both cores by `n` cycles under the configured
    /// [`ChipParallelism`].
    ///
    /// # Panics
    ///
    /// Propagates a panic from either core's cycle loop (in threaded
    /// mode the sibling thread is released first, so a panicking core
    /// never deadlocks the chip — see the internal `QuantumBarrier`).
    pub fn run_cycles(&mut self, n: u64) {
        match self.parallelism {
            ChipParallelism::Serial => {
                for _ in 0..n {
                    self.step();
                }
            }
            ChipParallelism::Threaded { quantum } => {
                let ran = self.run_threaded(n, quantum.max(1), None);
                debug_assert_eq!(ran, n, "uncancelled runs complete in full");
            }
        }
    }

    /// Advances both cores by up to `n` cycles, polling `cancel` (from
    /// both threads, in threaded mode) roughly every
    /// `Chip::CANCEL_CHECK_CYCLES` (currently 1024) cycles.
    /// Returns the number of cycles actually run — both cores always
    /// stop together at the same cycle (serial/turnstile) or quantum
    /// (relaxed) boundary, so the chip remains consistent after an
    /// early stop and the caller decides how to report it.
    pub fn try_run_cycles(&mut self, n: u64, cancel: Option<&CancelToken>) -> u64 {
        match self.parallelism {
            ChipParallelism::Serial => {
                let mut ran = 0u64;
                while ran < n {
                    if cancel.is_some_and(CancelToken::expired) {
                        break;
                    }
                    let chunk = Chip::CANCEL_CHECK_CYCLES.min(n - ran);
                    for _ in 0..chunk {
                        self.step();
                    }
                    ran += chunk;
                }
                ran
            }
            ChipParallelism::Threaded { quantum } => self.run_threaded(n, quantum.max(1), cancel),
        }
    }

    /// Runs both cores on separate OS threads for up to `n` cycles:
    /// core 1 on a scoped worker thread, core 0 on the calling thread.
    /// `quantum == 1` serializes the cores through a [`Turnstile`]
    /// (bit-identical to [`step`](Chip::step)); larger quanta free-run
    /// both cores between [`QuantumBarrier`] waits. Returns the cycles
    /// completed by *both* cores (early stop only via `cancel`).
    fn run_threaded(&mut self, n: u64, quantum: u64, cancel: Option<&CancelToken>) -> u64 {
        if n == 0 {
            return 0;
        }
        let (left, right) = self.cores.split_at_mut(1);
        let core0 = &mut left[0];
        let core1 = &mut right[0];
        let ran = if quantum == 1 {
            let turnstile = Turnstile::new();
            std::thread::scope(|scope| {
                scope.spawn(|| turnstile.run_core(1, core1, n, cancel));
                turnstile.run_core(0, core0, n, cancel)
            })
        } else {
            let barrier = QuantumBarrier::new();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    run_relaxed_core(core1, n, quantum, &barrier, cancel);
                });
                run_relaxed_core(core0, n, quantum, &barrier, cancel)
            })
        };
        self.cycle += ran;
        ran
    }

    /// Resets the statistics of both cores (and thereby the shared cache
    /// statistics once — the levels are shared).
    pub fn reset_stats(&mut self) {
        for core in &mut self.cores {
            core.reset_stats();
        }
    }

    /// Combined IPC across all four hardware threads.
    #[must_use]
    pub fn total_ipc(&self) -> f64 {
        self.cores.iter().map(|c| c.stats().total_ipc()).sum()
    }
}

/// Locks a mutex, recovering the payload from a poisoned lock (the PR 6
/// pattern: every per-lock update is atomic with respect to its guard,
/// so a poisoned chip-sync lock is stale-but-consistent and the abort
/// flags below carry the actual failure).
fn lock_recover<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Shared state of the deterministic (`quantum == 1`) turnstile.
#[derive(Debug)]
struct TurnstileState {
    /// Which core may execute the current cycle (0 or 1). Core 0 always
    /// goes first within a cycle, exactly like [`Chip::step`].
    turn: u8,
    /// Cycles fully completed by both cores.
    completed: u64,
    /// Clean early stop (cancel token expired): both cores break at the
    /// next cycle boundary.
    stopped: bool,
    /// A core's cycle loop panicked: the sibling must bail out of its
    /// wait instead of blocking on a turn that will never come.
    aborted: bool,
}

/// The deterministic chip scheduler: a Mutex+Condvar turnstile that
/// hands the right to execute from core 0 to core 1 and back, one cycle
/// each, in strict alternation. The cores run on two OS threads but
/// never concurrently, so every shared-cache access happens in the
/// serial reference order and the results are bit-identical to
/// [`ChipParallelism::Serial`] — the determinism mode's whole argument
/// (DESIGN.md §16).
#[derive(Debug)]
struct Turnstile {
    state: Mutex<TurnstileState>,
    cv: Condvar,
}

impl Turnstile {
    fn new() -> Turnstile {
        Turnstile {
            state: Mutex::new(TurnstileState {
                turn: 0,
                completed: 0,
                stopped: false,
                aborted: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Marks the turnstile aborted and wakes the sibling (called from a
    /// panic guard; the panic itself propagates through the thread
    /// scope).
    fn abort(&self) {
        lock_recover(&self.state).aborted = true;
        self.cv.notify_all();
    }

    /// Runs `core` for up to `n` cycles as participant `me` (0 or 1).
    /// Returns the cycles completed by both cores.
    ///
    /// Cancellation protocol: both threads poll the token during their
    /// own turns, but an expiry only sets `stopped` — the actual break
    /// happens at the *start of core 0's turn*, i.e. at a cycle
    /// boundary, so the cores always finish the same number of cycles.
    fn run_core(&self, me: u8, core: &mut SmtCore, n: u64, cancel: Option<&CancelToken>) -> u64 {
        let mut since_check = 0u64;
        loop {
            let mut st = lock_recover(&self.state);
            loop {
                if st.aborted {
                    return st.completed;
                }
                if st.completed == n || st.stopped {
                    // `stopped` is only ever set together with
                    // `turn = 0`, i.e. at a cycle boundary, so both
                    // cores have finished the same number of cycles.
                    self.cv.notify_all();
                    return st.completed;
                }
                if st.turn == me {
                    break;
                }
                st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
            if me == 0 && cancel.is_some() {
                since_check += 1;
                if since_check >= Chip::CANCEL_CHECK_CYCLES {
                    since_check = 0;
                    if cancel.is_some_and(CancelToken::expired) {
                        // Core 0's turn start is a cycle boundary:
                        // stop here, before stepping the next cycle.
                        st.stopped = true;
                        self.cv.notify_all();
                        return st.completed;
                    }
                }
            }
            drop(st);
            // The turn variable (not the lock) provides the mutual
            // exclusion, so a panicking `step` cannot poison the state
            // lock mid-update; the guard flips `aborted` instead.
            let guard = AbortOnPanic(self);
            core.step();
            std::mem::forget(guard);
            let mut st = lock_recover(&self.state);
            if me == 1 {
                // Core 1 finishes each cycle; both cores have now
                // stepped it. Core 1 polls the token here too (both
                // threads check, as the cancel contract requires) —
                // the expiry takes effect at the boundary just formed.
                st.completed += 1;
                since_check += 1;
                if since_check >= Chip::CANCEL_CHECK_CYCLES {
                    since_check = 0;
                    if cancel.is_some_and(CancelToken::expired) {
                        st.stopped = true;
                    }
                }
            }
            st.turn = 1 - me;
            self.cv.notify_all();
            drop(st);
        }
    }
}

/// Sets the turnstile's abort flag if dropped while unwinding — a core
/// that panics mid-cycle must wake its sibling before the panic tears
/// down the thread scope, or the sibling would wait forever on a turn
/// that never comes.
struct AbortOnPanic<'a>(&'a Turnstile);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        self.0.abort();
    }
}

/// What a relaxed-mode core should do after a quantum rendezvous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QuantumVerdict {
    /// Both cores arrived and no one voted to stop: run the next
    /// quantum.
    Continue,
    /// Both cores arrived and at least one voted to stop (cancel token
    /// expired): both break at this quantum boundary, cycle-aligned.
    Stop,
    /// The sibling panicked mid-quantum: bail out immediately (the
    /// panic itself propagates through the thread scope).
    Aborted,
}

/// State of the relaxed-mode quantum barrier.
#[derive(Debug)]
struct BarrierState {
    /// Cores that have reached the current rendezvous.
    arrived: usize,
    /// Rendezvous counter; waiting cores sleep until it advances.
    generation: u64,
    /// Stop votes accumulated for the rendezvous in progress.
    stop_votes: bool,
    /// The latched verdict of the last completed rendezvous. Latched
    /// only when the second core arrives, and no new rendezvous can
    /// complete until the slower core has read it — so each core
    /// always observes its own generation's verdict (the naive
    /// "shared flag read after the barrier" protocol races on one
    /// CPU: the faster core can start the next quantum and cast a new
    /// vote before the slower core has read the old one).
    verdict: QuantumVerdict,
    /// A core's quantum panicked: every present and future wait
    /// returns [`QuantumVerdict::Aborted`] immediately instead of
    /// blocking on a dead sibling.
    aborted: bool,
}

/// A two-party cycle-quantum barrier for relaxed-mode execution, in the
/// parti-gem5 style: both cores free-run a quantum of cycles, then
/// rendezvous here before starting the next one. Unlike
/// `std::sync::Barrier` it is abortable — a panicking core releases its
/// sibling instead of deadlocking it — and its lock is
/// poison-recovering like every other chip-shared lock.
#[derive(Debug)]
struct QuantumBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
}

impl QuantumBarrier {
    fn new() -> QuantumBarrier {
        QuantumBarrier {
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                stop_votes: false,
                verdict: QuantumVerdict::Continue,
                aborted: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Waits for the sibling core, casting this core's stop vote for
    /// the quantum just run. The second arriver latches the
    /// generation's verdict (Stop if either core voted) under the
    /// mutex, so both cores act on the *same* verdict and always break
    /// at the same quantum boundary.
    fn wait(&self, request_stop: bool) -> QuantumVerdict {
        let mut st = lock_recover(&self.state);
        if st.aborted {
            return QuantumVerdict::Aborted;
        }
        st.stop_votes |= request_stop;
        st.arrived += 1;
        if st.arrived == 2 {
            st.arrived = 0;
            st.verdict = if st.stop_votes {
                QuantumVerdict::Stop
            } else {
                QuantumVerdict::Continue
            };
            st.stop_votes = false;
            st.generation += 1;
            self.cv.notify_all();
            return st.verdict;
        }
        let generation = st.generation;
        while st.generation == generation && !st.aborted {
            st = self.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        if st.aborted {
            QuantumVerdict::Aborted
        } else {
            st.verdict
        }
    }

    /// Aborts the barrier: wakes every waiter and fails all future
    /// waits.
    fn abort(&self) {
        lock_recover(&self.state).aborted = true;
        self.cv.notify_all();
    }
}

/// Releases the sibling core if dropped while unwinding (relaxed-mode
/// counterpart of [`AbortOnPanic`]).
struct BarrierAbortOnPanic<'a>(&'a QuantumBarrier);

impl Drop for BarrierAbortOnPanic<'_> {
    fn drop(&mut self) {
        self.0.abort();
    }
}

/// One core's relaxed-mode loop: free-run `quantum` cycles, rendezvous,
/// repeat. Returns the cycles completed.
///
/// Cancellation protocol: each thread polls the token at most once per
/// [`Chip::CANCEL_CHECK_CYCLES`] cycles and carries the result into the
/// rendezvous as its stop vote; the barrier latches a single verdict
/// per generation, so both cores break at the same quantum boundary
/// and stay cycle-aligned.
fn run_relaxed_core(
    core: &mut SmtCore,
    n: u64,
    quantum: u64,
    barrier: &QuantumBarrier,
    cancel: Option<&CancelToken>,
) -> u64 {
    let mut done = 0u64;
    let mut since_check = 0u64;
    while done < n {
        let chunk = quantum.min(n - done);
        let mut request_stop = false;
        if let Some(token) = cancel {
            since_check += chunk;
            if since_check >= Chip::CANCEL_CHECK_CYCLES {
                since_check = 0;
                request_stop = token.expired();
            }
        }
        let guard = BarrierAbortOnPanic(barrier);
        core.run_cycles(chunk);
        std::mem::forget(guard);
        match barrier.wait(request_stop) {
            QuantumVerdict::Continue => done += chunk,
            QuantumVerdict::Stop => {
                done += chunk;
                break;
            }
            QuantumVerdict::Aborted => break,
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use p5_isa::{DataKind, Op, Program, Reg, StaticInst, StreamSpec, ThreadId};

    fn cpu_program() -> Program {
        let mut b = Program::builder("cpu");
        for i in 0..10 {
            b.push(StaticInst::new(Op::IntAlu).dst(Reg::new(32 + i)));
        }
        b.iterations(100);
        b.build().unwrap()
    }

    fn chase_program(footprint: u64) -> Program {
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
        b.iterations(500);
        b.build().unwrap()
    }

    #[test]
    fn both_cores_execute_independently() {
        let mut chip = Chip::new(CoreConfig::tiny_for_tests());
        chip.core_mut(CoreId::C0)
            .load_program(ThreadId::T0, cpu_program());
        chip.core_mut(CoreId::C1)
            .load_program(ThreadId::T0, cpu_program());
        chip.run_cycles(10_000);
        let c0 = chip.core(CoreId::C0).stats().committed(ThreadId::T0);
        let c1 = chip.core(CoreId::C1).stats().committed(ThreadId::T0);
        assert!(c0 > 0 && c1 > 0);
        // A pure cpu workload shares nothing: the cores run at identical
        // speed.
        assert_eq!(c0, c1);
        assert_eq!(chip.cycle(), 10_000);
    }

    #[test]
    fn idle_sibling_core_costs_nothing() {
        let mut single = SmtCore::new(CoreConfig::tiny_for_tests());
        single.load_program(ThreadId::T0, cpu_program());
        single.run_cycles(10_000);

        let mut chip = Chip::new(CoreConfig::tiny_for_tests());
        chip.core_mut(CoreId::C1)
            .load_program(ThreadId::T0, cpu_program());
        chip.run_cycles(10_000);

        assert_eq!(
            single.stats().committed(ThreadId::T0),
            chip.core(CoreId::C1).stats().committed(ThreadId::T0)
        );
    }

    #[test]
    fn cores_contend_in_the_shared_l2() {
        // A chase that fits the tiny L2 (8 KiB, 4-way) when alone, but
        // oversubscribes every set once both cores run a copy.
        let fits_alone = 8 * 1024;
        let measure = |noisy: bool| {
            let mut chip = Chip::new(CoreConfig::tiny_for_tests());
            chip.core_mut(CoreId::C1)
                .load_program(ThreadId::T0, chase_program(fits_alone));
            if noisy {
                chip.core_mut(CoreId::C0)
                    .load_program(ThreadId::T0, chase_program(fits_alone));
            }
            chip.run_cycles(100_000);
            chip.reset_stats();
            chip.run_cycles(200_000);
            chip.core(CoreId::C1).stats().ipc(ThreadId::T0)
        };
        let quiet = measure(false);
        let noisy = measure(true);
        assert!(
            noisy < quiet,
            "cross-core L2 contention must slow the measurement core: {noisy} vs {quiet}"
        );
    }

    #[test]
    fn address_spaces_of_the_cores_are_disjoint() {
        // Two cores running the *same* chase program must not hit on each
        // other's lines: with both active the shared L2 sees twice the
        // distinct lines.
        let mut chip = Chip::new(CoreConfig::tiny_for_tests());
        chip.core_mut(CoreId::C0)
            .load_program(ThreadId::T0, chase_program(2 * 1024));
        chip.core_mut(CoreId::C1)
            .load_program(ThreadId::T0, chase_program(2 * 1024));
        chip.run_cycles(50_000);
        // 2 KiB = 32 lines of 64 B per core; both sets must be resident
        // simultaneously, which requires them to be distinct lines.
        let l2 = chip.core(CoreId::C0).mem().l2_stats();
        assert!(
            l2.total_misses() >= 64,
            "both cores must bring in their own copies (got {} misses)",
            l2.total_misses()
        );
    }

    #[test]
    fn chip_runs_are_deterministic() {
        let run = || {
            let mut chip = Chip::new(CoreConfig::tiny_for_tests());
            chip.core_mut(CoreId::C0)
                .load_program(ThreadId::T0, chase_program(16 * 1024));
            chip.core_mut(CoreId::C1)
                .load_program(ThreadId::T0, cpu_program());
            chip.core_mut(CoreId::C1)
                .load_program(ThreadId::T1, chase_program(4 * 1024));
            chip.run_cycles(100_000);
            (
                chip.core(CoreId::C0).stats().committed(ThreadId::T0),
                chip.core(CoreId::C1).stats().committed(ThreadId::T0),
                chip.core(CoreId::C1).stats().committed(ThreadId::T1),
            )
        };
        assert_eq!(run(), run());
    }

    fn threaded_config(quantum: u64) -> CoreConfig {
        let mut config = CoreConfig::tiny_for_tests();
        config.plan.chip = ChipParallelism::Threaded { quantum };
        config
    }

    /// Loads the shared-cache-contending mixed workload used by the
    /// determinism tests: both cores chase pointers through the shared
    /// L2 plus a cpu thread on core 1.
    fn load_contending(chip: &mut Chip) {
        chip.core_mut(CoreId::C0)
            .load_program(ThreadId::T0, chase_program(16 * 1024));
        chip.core_mut(CoreId::C1)
            .load_program(ThreadId::T0, cpu_program());
        chip.core_mut(CoreId::C1)
            .load_program(ThreadId::T1, chase_program(4 * 1024));
    }

    fn signature(chip: &Chip) -> (u64, u64, u64, u64) {
        (
            chip.core(CoreId::C0).stats().committed(ThreadId::T0),
            chip.core(CoreId::C1).stats().committed(ThreadId::T0),
            chip.core(CoreId::C1).stats().committed(ThreadId::T1),
            chip.core(CoreId::C0).mem().l2_stats().total_misses(),
        )
    }

    #[test]
    fn deterministic_threaded_is_bit_identical_to_serial() {
        let run = |config: CoreConfig| {
            let mut chip = Chip::new(config);
            load_contending(&mut chip);
            chip.run_cycles(50_000);
            signature(&chip)
        };
        assert_eq!(
            run(CoreConfig::tiny_for_tests()),
            run(threaded_config(1)),
            "quantum-1 turnstile must reproduce the serial interleaving exactly"
        );
    }

    #[test]
    fn relaxed_quantum_is_exact_for_non_interacting_workloads() {
        // Pure cpu workloads never touch the shared levels, so even the
        // relaxed interleaving cannot change their cycle-by-cycle
        // behaviour.
        let run = |config: CoreConfig| {
            let mut chip = Chip::new(config);
            chip.core_mut(CoreId::C0)
                .load_program(ThreadId::T0, cpu_program());
            chip.core_mut(CoreId::C1)
                .load_program(ThreadId::T0, cpu_program());
            chip.run_cycles(20_000);
            (
                chip.core(CoreId::C0).stats().committed(ThreadId::T0),
                chip.core(CoreId::C1).stats().committed(ThreadId::T0),
                chip.cycle(),
            )
        };
        assert_eq!(run(CoreConfig::tiny_for_tests()), run(threaded_config(256)));
    }

    #[test]
    fn relaxed_quantum_handles_partial_final_quantum() {
        let mut chip = Chip::new(threaded_config(4096));
        load_contending(&mut chip);
        // 10_000 = 2 full quanta + a 1808-cycle tail.
        chip.run_cycles(10_000);
        assert_eq!(chip.cycle(), 10_000);
        assert_eq!(chip.core(CoreId::C0).cycle(), 10_000);
        assert_eq!(chip.core(CoreId::C1).cycle(), 10_000);
    }

    #[test]
    fn cancelled_threaded_run_stops_both_cores_at_the_same_boundary() {
        for quantum in [1u64, 512] {
            let mut chip = Chip::new(threaded_config(quantum));
            load_contending(&mut chip);
            let token = CancelToken::new();
            token.cancel();
            let ran = chip.try_run_cycles(100_000, Some(&token));
            assert!(
                ran < 100_000,
                "expired token must stop a quantum-{quantum} run early (ran {ran})"
            );
            assert_eq!(
                chip.core(CoreId::C0).cycle(),
                chip.core(CoreId::C1).cycle(),
                "cores must stop at the same cycle under quantum {quantum}"
            );
            assert_eq!(chip.cycle(), chip.core(CoreId::C0).cycle());
        }
    }

    #[test]
    fn serial_try_run_cycles_without_token_runs_in_full() {
        let mut chip = Chip::new(CoreConfig::tiny_for_tests());
        load_contending(&mut chip);
        assert_eq!(chip.try_run_cycles(5_000, None), 5_000);
        assert_eq!(chip.cycle(), 5_000);
    }

    #[test]
    fn quantum_barrier_releases_the_sibling_on_panic() {
        let barrier = QuantumBarrier::new();
        let released = std::thread::scope(|scope| {
            let waiter = scope.spawn(|| barrier.wait(false));
            let panicker = scope.spawn(|| {
                let _guard = BarrierAbortOnPanic(&barrier);
                std::panic::panic_any("chip worker died mid-quantum");
            });
            assert!(panicker.join().is_err());
            waiter.join().expect("waiter must not deadlock or die")
        });
        assert_eq!(
            released,
            QuantumVerdict::Aborted,
            "an aborted barrier reports the abort, not a verdict"
        );
        assert_eq!(
            barrier.wait(false),
            QuantumVerdict::Aborted,
            "an aborted barrier stays aborted"
        );
    }

    #[test]
    fn quantum_barrier_recovers_a_poisoned_lock() {
        let barrier = QuantumBarrier::new();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _st = barrier.state.lock().unwrap();
            panic!("poison the barrier lock");
        }));
        assert!(barrier.state.is_poisoned());
        // Both parties still rendezvous: the poison is recovered, not
        // cascaded (PR 6 pattern).
        let (a, b) = std::thread::scope(|scope| {
            let sibling = scope.spawn(|| barrier.wait(false));
            let own = barrier.wait(false);
            (own, sibling.join().unwrap())
        });
        assert!(
            a == QuantumVerdict::Continue && b == QuantumVerdict::Continue,
            "a poisoned-but-consistent barrier keeps working"
        );
    }

    #[test]
    fn turnstile_abort_wakes_a_waiting_core() {
        let turnstile = Turnstile::new();
        let mut core = SmtCore::new(CoreConfig::tiny_for_tests());
        core.load_program(ThreadId::T0, cpu_program());
        let completed = std::thread::scope(|scope| {
            // Participant 1 can never run: the turn starts (and stays)
            // at 0. Only the abort releases it.
            let waiter = scope.spawn(|| turnstile.run_core(1, &mut core, 1_000, None));
            turnstile.abort();
            waiter.join().expect("aborted participant exits cleanly")
        });
        assert_eq!(completed, 0);
    }

    #[test]
    fn total_ipc_sums_both_cores() {
        let mut chip = Chip::new(CoreConfig::tiny_for_tests());
        chip.core_mut(CoreId::C0)
            .load_program(ThreadId::T0, cpu_program());
        chip.core_mut(CoreId::C1)
            .load_program(ThreadId::T0, cpu_program());
        chip.run_cycles(10_000);
        let sum =
            chip.core(CoreId::C0).stats().total_ipc() + chip.core(CoreId::C1).stats().total_ipc();
        assert!((chip.total_ipc() - sum).abs() < 1e-12);
    }
}
