//! # p5-microbench
//!
//! The fifteen synthetic micro-benchmarks of Boneti et al. (ISCA 2008),
//! Table 2, expressed as instruction-level loop bodies for the `p5-core`
//! simulator.
//!
//! Each benchmark "stresses a specific processor characteristic"
//! (paper Section 4.2): short- and long-latency integer arithmetic,
//! floating point, loads targeting each cache level, and branches with
//! high and low prediction rates. All benchmarks share the same structure:
//! they iterate over a loop body (one execution of the body is a
//! *micro-iteration*), and differ only in the body.
//!
//! The bodies here encode the *dependence and latency structure* the paper
//! measured rather than the literal C source: in particular, the
//! cache-level-targeted load benchmarks use dependent (pointer-chase)
//! address streams because the paper's measured IPCs (0.27 at L2, 0.02 at
//! memory) imply each access's latency is exposed serially — see DESIGN.md
//! for the full justification of that modeling choice.
//!
//! # Example
//!
//! ```
//! use p5_microbench::MicroBenchmark;
//!
//! let prog = MicroBenchmark::CpuInt.program();
//! assert!(prog.body().len() > 100);       // 54 source lines of work
//! assert_eq!(prog.name(), "cpu_int");
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bodies;

pub use bodies::footprints;

use p5_isa::Program;
use std::fmt;

/// The characteristic group a micro-benchmark belongs to (paper Table 2's
/// four families).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchGroup {
    /// Fixed-point arithmetic.
    Integer,
    /// Floating-point arithmetic.
    FloatingPoint,
    /// Loads targeting a specific cache level.
    Memory,
    /// Conditional branches.
    Branch,
}

impl fmt::Display for BenchGroup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchGroup::Integer => write!(f, "Integer"),
            BenchGroup::FloatingPoint => write!(f, "Floating Point"),
            BenchGroup::Memory => write!(f, "Memory"),
            BenchGroup::Branch => write!(f, "Branch"),
        }
    }
}

/// One of the fifteen micro-benchmarks of paper Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MicroBenchmark {
    /// 54 lines of `a += (iter*(iter-1)) - xi*iter`: short-latency
    /// integer, one multiply per line, high ILP.
    CpuInt,
    /// Same structure with adds only.
    CpuIntAdd,
    /// Multiply-only lines: `a = (iter*iter)*xi*iter`.
    CpuIntMul,
    /// 50 lines whose accumulators chain across lines through a multiply:
    /// a long dependency chain, low IPC.
    LngChainCpuint,
    /// Data-dependent branches with a constant direction (`a` filled with
    /// zeros): near-perfect prediction.
    BrHit,
    /// Data-dependent branches taken randomly (modulo 2): heavy
    /// misprediction.
    BrMiss,
    /// `a[i+s] = a[i+s] + 1` with every load hitting the L1.
    LdintL1,
    /// Loads always hitting the L2.
    LdintL2,
    /// Loads always hitting the L3.
    LdintL3,
    /// Loads always missing every cache level.
    LdintMem,
    /// Floating-point variant of [`MicroBenchmark::LdintL1`].
    LdfpL1,
    /// Floating-point variant of [`MicroBenchmark::LdintL2`].
    LdfpL2,
    /// Floating-point variant of [`MicroBenchmark::LdintL3`].
    LdfpL3,
    /// Floating-point variant of [`MicroBenchmark::LdintMem`].
    LdfpMem,
    /// 54 lines of `a += (tmp*(tmp-1.0)) - xi*tmp` over floats: a
    /// floating-point latency chain.
    CpuFp,
}

impl MicroBenchmark {
    /// All fifteen benchmarks, in Table 2 order.
    pub const ALL: [MicroBenchmark; 15] = [
        MicroBenchmark::CpuInt,
        MicroBenchmark::CpuIntAdd,
        MicroBenchmark::CpuIntMul,
        MicroBenchmark::LngChainCpuint,
        MicroBenchmark::BrHit,
        MicroBenchmark::BrMiss,
        MicroBenchmark::LdintL1,
        MicroBenchmark::LdintL2,
        MicroBenchmark::LdintL3,
        MicroBenchmark::LdintMem,
        MicroBenchmark::LdfpL1,
        MicroBenchmark::LdfpL2,
        MicroBenchmark::LdfpL3,
        MicroBenchmark::LdfpMem,
        MicroBenchmark::CpuFp,
    ];

    /// The six benchmarks the paper presents results for ("we present only
    /// the benchmarks that provide differentiation", Section 4.2), in the
    /// row order of Table 3.
    pub const PRESENTED: [MicroBenchmark; 6] = [
        MicroBenchmark::LdintL1,
        MicroBenchmark::LdintL2,
        MicroBenchmark::LdintMem,
        MicroBenchmark::CpuInt,
        MicroBenchmark::CpuFp,
        MicroBenchmark::LngChainCpuint,
    ];

    /// The benchmark's name as printed in the paper.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            MicroBenchmark::CpuInt => "cpu_int",
            MicroBenchmark::CpuIntAdd => "cpu_int_add",
            MicroBenchmark::CpuIntMul => "cpu_int_mul",
            MicroBenchmark::LngChainCpuint => "lng_chain_cpuint",
            MicroBenchmark::BrHit => "br_hit",
            MicroBenchmark::BrMiss => "br_miss",
            MicroBenchmark::LdintL1 => "ldint_l1",
            MicroBenchmark::LdintL2 => "ldint_l2",
            MicroBenchmark::LdintL3 => "ldint_l3",
            MicroBenchmark::LdintMem => "ldint_mem",
            MicroBenchmark::LdfpL1 => "ldfp_l1",
            MicroBenchmark::LdfpL2 => "ldfp_l2",
            MicroBenchmark::LdfpL3 => "ldfp_l3",
            MicroBenchmark::LdfpMem => "ldfp_mem",
            MicroBenchmark::CpuFp => "cpu_fp",
        }
    }

    /// Parses a paper-style name (e.g. `"ldint_l2"`).
    #[must_use]
    pub fn from_name(name: &str) -> Option<MicroBenchmark> {
        MicroBenchmark::ALL.into_iter().find(|b| b.name() == name)
    }

    /// The Table 2 family this benchmark belongs to.
    #[must_use]
    pub fn group(self) -> BenchGroup {
        match self {
            MicroBenchmark::CpuInt
            | MicroBenchmark::CpuIntAdd
            | MicroBenchmark::CpuIntMul
            | MicroBenchmark::LngChainCpuint => BenchGroup::Integer,
            MicroBenchmark::CpuFp => BenchGroup::FloatingPoint,
            MicroBenchmark::BrHit | MicroBenchmark::BrMiss => BenchGroup::Branch,
            _ => BenchGroup::Memory,
        }
    }

    /// Whether the benchmark is memory-bound (its loads dominate and miss
    /// at least the L1).
    #[must_use]
    pub fn is_memory_bound(self) -> bool {
        matches!(
            self,
            MicroBenchmark::LdintL2
                | MicroBenchmark::LdintL3
                | MicroBenchmark::LdintMem
                | MicroBenchmark::LdfpL2
                | MicroBenchmark::LdfpL3
                | MicroBenchmark::LdfpMem
        )
    }

    /// The loop body as written in paper Table 2 (for documentation and
    /// the Table 2 experiment).
    #[must_use]
    pub fn loop_body_source(self) -> &'static str {
        match self {
            MicroBenchmark::CpuInt => "a += (iter * (iter - 1)) - xi * iter : xi in {1..54}",
            MicroBenchmark::CpuIntAdd => {
                "a += (iter + (iterp)) - xi + iter : xi in {1..54}; iterp = iter - 1 + a"
            }
            MicroBenchmark::CpuIntMul => "a = (iter * iter) * xi * iter : xi in {1..54}",
            MicroBenchmark::LngChainCpuint => {
                "a += (iter * (iter - 1)) - x0 * iter; b += ... + a; (50 chained lines)"
            }
            MicroBenchmark::BrHit => {
                "if (a[s]==0) a=a+1; else a=a-1; s in {1..28}; a filled with all 0's"
            }
            MicroBenchmark::BrMiss => {
                "if (a[s]==0) a=a+1; else a=a-1; s in {1..28}; a filled randomly (mod 2)"
            }
            MicroBenchmark::LdintL1
            | MicroBenchmark::LdintL2
            | MicroBenchmark::LdintL3
            | MicroBenchmark::LdintMem => {
                "a[i+s] = a[i+s]+1; s set so loads always hit the desired cache level"
            }
            MicroBenchmark::LdfpL1
            | MicroBenchmark::LdfpL2
            | MicroBenchmark::LdfpL3
            | MicroBenchmark::LdfpMem => "a[i+s] = a[i+s]+1; a is an array of floats",
            MicroBenchmark::CpuFp => {
                "a += (tmp * (tmp - 1.0)) - xi * tmp : xi in {1.0..54.0}; tmp = iter * 1.0"
            }
        }
    }

    /// Builds the benchmark's program with its default micro-iteration
    /// count (sized so one repetition is a few thousand to a few tens of
    /// thousands of instructions, as in the paper's setup scaled to
    /// simulator time).
    #[must_use]
    pub fn program(self) -> Program {
        bodies::build(self, self.default_iterations())
    }

    /// Builds the benchmark's program with an explicit micro-iteration
    /// count (the measurement harness trades run time for precision this
    /// way).
    ///
    /// # Panics
    ///
    /// Panics if `iterations` is zero.
    #[must_use]
    pub fn program_with_iterations(self, iterations: u64) -> Program {
        assert!(iterations > 0, "iteration count must be positive");
        bodies::build(self, iterations)
    }

    /// Default micro-iterations per repetition.
    #[must_use]
    pub fn default_iterations(self) -> u64 {
        match self {
            MicroBenchmark::CpuInt => 120,
            MicroBenchmark::CpuIntAdd => 90,
            MicroBenchmark::CpuIntMul => 120,
            MicroBenchmark::LngChainCpuint => 100,
            MicroBenchmark::BrHit | MicroBenchmark::BrMiss => 175,
            MicroBenchmark::LdintL1 | MicroBenchmark::LdfpL1 => 400,
            MicroBenchmark::LdintL2 | MicroBenchmark::LdfpL2 => 1200,
            MicroBenchmark::LdintL3 | MicroBenchmark::LdfpL3 => 600,
            MicroBenchmark::LdintMem | MicroBenchmark::LdfpMem => 250,
            MicroBenchmark::CpuFp => 70,
        }
    }
}

impl fmt::Display for MicroBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p5_isa::FuClass;

    #[test]
    fn all_programs_build_and_are_nonempty() {
        for b in MicroBenchmark::ALL {
            let p = b.program();
            assert!(!p.body().is_empty(), "{b}");
            assert_eq!(p.name(), b.name());
            assert!(p.iterations() > 0);
        }
    }

    #[test]
    fn names_roundtrip() {
        for b in MicroBenchmark::ALL {
            assert_eq!(MicroBenchmark::from_name(b.name()), Some(b));
        }
        assert_eq!(MicroBenchmark::from_name("nonesuch"), None);
    }

    #[test]
    fn presented_set_matches_paper_table3_rows() {
        let names: Vec<_> = MicroBenchmark::PRESENTED.iter().map(|b| b.name()).collect();
        assert_eq!(
            names,
            vec![
                "ldint_l1",
                "ldint_l2",
                "ldint_mem",
                "cpu_int",
                "cpu_fp",
                "lng_chain_cpuint"
            ]
        );
    }

    #[test]
    fn groups_are_classified() {
        assert_eq!(MicroBenchmark::CpuInt.group(), BenchGroup::Integer);
        assert_eq!(MicroBenchmark::CpuFp.group(), BenchGroup::FloatingPoint);
        assert_eq!(MicroBenchmark::LdintL2.group(), BenchGroup::Memory);
        assert_eq!(MicroBenchmark::BrMiss.group(), BenchGroup::Branch);
    }

    #[test]
    fn memory_boundedness() {
        assert!(MicroBenchmark::LdintMem.is_memory_bound());
        assert!(MicroBenchmark::LdfpL2.is_memory_bound());
        assert!(!MicroBenchmark::LdintL1.is_memory_bound(), "L1 loads hit");
        assert!(!MicroBenchmark::CpuInt.is_memory_bound());
    }

    #[test]
    fn integer_benchmarks_are_fxu_dominated() {
        for b in [
            MicroBenchmark::CpuInt,
            MicroBenchmark::CpuIntAdd,
            MicroBenchmark::CpuIntMul,
            MicroBenchmark::LngChainCpuint,
        ] {
            let p = b.program();
            let fxu = p
                .body()
                .iter()
                .filter(|i| i.op.fu_class() == FuClass::Fxu)
                .count();
            assert!(
                fxu * 10 >= p.body().len() * 9,
                "{b}: {} of {} are FXU",
                fxu,
                p.body().len()
            );
        }
    }

    #[test]
    fn fp_benchmark_is_fpu_dominated() {
        let p = MicroBenchmark::CpuFp.program();
        let fpu = p
            .body()
            .iter()
            .filter(|i| i.op.fu_class() == FuClass::Fpu)
            .count();
        assert!(fpu * 2 >= p.body().len(), "{fpu} of {}", p.body().len());
    }

    #[test]
    fn load_benchmarks_contain_load_store_pairs() {
        for b in [
            MicroBenchmark::LdintL1,
            MicroBenchmark::LdintL2,
            MicroBenchmark::LdintMem,
            MicroBenchmark::LdfpMem,
        ] {
            let mix = b.program().body_mix();
            assert!(mix.loads > 0, "{b}");
            assert_eq!(mix.loads, mix.stores, "{b}: one store per load");
        }
    }

    #[test]
    fn branch_benchmarks_have_28_data_branches() {
        for b in [MicroBenchmark::BrHit, MicroBenchmark::BrMiss] {
            let mix = b.program().body_mix();
            // 28 data-dependent branches + 1 loop-back branch.
            assert_eq!(mix.branches, 29, "{b}");
        }
    }

    #[test]
    fn every_body_ends_with_loop_back() {
        use p5_isa::{BranchBehavior, Op};
        for b in MicroBenchmark::ALL {
            let p = b.program();
            let last = p.body().last().unwrap();
            assert_eq!(
                last.op,
                Op::Branch(BranchBehavior::LoopBack),
                "{b} must close its loop"
            );
        }
    }

    #[test]
    fn cache_level_footprints_are_ordered() {
        let l1 = footprints::L1_FIT;
        let l2 = footprints::L2_FIT;
        let l3 = footprints::L3_FIT;
        let mem = footprints::MEM;
        assert!(l1 < l2 && l2 < l3 && l3 < mem);
    }

    #[test]
    fn custom_iteration_count() {
        let p = MicroBenchmark::CpuInt.program_with_iterations(7);
        assert_eq!(p.iterations(), 7);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_iterations_panics() {
        let _ = MicroBenchmark::CpuInt.program_with_iterations(0);
    }

    #[test]
    fn display_and_sources() {
        assert_eq!(MicroBenchmark::LdintMem.to_string(), "ldint_mem");
        for b in MicroBenchmark::ALL {
            assert!(!b.loop_body_source().is_empty());
        }
    }
}
