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

use crate::config::CoreConfig;
use crate::engine::SmtCore;
use p5_mem::{MemoryHierarchy, SharedCaches};

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
/// single-core ones (DESIGN.md §16).
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
}

impl Chip {
    /// Distinguishes the two cores' address spaces (bit 50, far above the
    /// per-thread and per-stream region bits).
    const CORE_ADDRESS_SALT: u64 = 1 << 50;

    /// Builds a chip whose two cores both use `config`; the L2, L3 and
    /// TLB of `config.mem` are instantiated once and shared.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`CoreConfig::validate`]).
    #[must_use]
    pub fn new(config: CoreConfig) -> Chip {
        let shared = SharedCaches::new(&config.mem);
        let mem0 = MemoryHierarchy::with_shared(config.mem, shared.clone());
        let mem1 = MemoryHierarchy::with_shared(config.mem, shared);
        Chip {
            cores: [
                SmtCore::with_memory(config.clone(), mem0, 0),
                SmtCore::with_memory(config, mem1, Chip::CORE_ADDRESS_SALT),
            ],
            cycle: 0,
        }
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

    /// Chip cycle count.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances both cores by one cycle, core 0 first.
    pub fn step(&mut self) {
        self.cycle += 1;
        for core in &mut self.cores {
            core.step();
        }
    }

    /// Advances both cores by `n` cycles.
    pub fn run_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.step();
        }
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
