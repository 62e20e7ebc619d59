//! Static instruction classes executed by the simulator.

use crate::program::{DataKind, StreamId};
use crate::{Priority, Reg};
use std::fmt;

/// The functional-unit class an instruction executes on (POWER5-like:
/// two fixed-point units, two floating-point units, two load/store units
/// and one branch unit per core).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FuClass {
    /// Fixed-point unit (integer ALU, multiply, divide, logical nops).
    Fxu,
    /// Floating-point unit.
    Fpu,
    /// Load/store unit.
    Lsu,
    /// Branch unit.
    Bru,
}

impl FuClass {
    /// All functional-unit classes.
    pub const ALL: [FuClass; 4] = [FuClass::Fxu, FuClass::Fpu, FuClass::Lsu, FuClass::Bru];
}

impl fmt::Display for FuClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuClass::Fxu => write!(f, "FXU"),
            FuClass::Fpu => write!(f, "FPU"),
            FuClass::Lsu => write!(f, "LSU"),
            FuClass::Bru => write!(f, "BRU"),
        }
    }
}

/// Dynamic outcome model of a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchBehavior {
    /// The loop-closing backward branch: taken on every micro-iteration
    /// except the last one of a repetition. Nearly perfectly predictable.
    LoopBack,
    /// A data-dependent branch whose direction is constant, as in the
    /// paper's `br_hit` micro-benchmark where "`a` is filled with all 0's":
    /// the BHT learns it immediately.
    ConstantTaken,
    /// As above but constantly not-taken.
    ConstantNotTaken,
    /// A data-dependent branch taken with probability `taken_permille`/1000
    /// using the core's seeded RNG, as in `br_miss` where "`a` is filled
    /// randomly (modulo 2)". At 500 permille a bimodal BHT mispredicts
    /// about half the time.
    Random {
        /// Probability of the branch being taken, in thousandths.
        taken_permille: u16,
    },
}

/// An instruction class as it appears in a program's loop body.
///
/// Execution latencies are a property of the simulated core (see
/// `p5-core`'s `CoreConfig`), not of the ISA, mirroring how the same PPC
/// binary runs on different POWER implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Single-cycle fixed-point operation (add, sub, logical, compare).
    IntAlu,
    /// Fixed-point multiply.
    IntMul,
    /// Fixed-point divide.
    IntDiv,
    /// Pipelined floating-point operation (add, sub, mul, fma).
    FpAlu,
    /// Floating-point divide (long, unpipelined).
    FpDiv,
    /// Load from an address stream. `kind` distinguishes the integer and
    /// floating-point variants of the paper's `ldint_*`/`ldfp_*`
    /// benchmarks.
    Load {
        /// The address stream this load walks.
        stream: StreamId,
        /// Integer or floating-point destination.
        kind: DataKind,
    },
    /// Store to an address stream (paper loop bodies store back to the
    /// element just loaded).
    Store {
        /// The address stream this store walks.
        stream: StreamId,
        /// Integer or floating-point source.
        kind: DataKind,
    },
    /// Conditional branch.
    Branch(BranchBehavior),
    /// The special `or X,X,X` form that requests a thread-priority change
    /// and "performs no other operation" (paper Section 3.2). Whether the
    /// request takes effect depends on privilege (see `p5-os`).
    OrNop(Priority),
    /// An ordinary no-op.
    Nop,
}

impl Op {
    /// The functional-unit class this op occupies. Or-nops and nops execute
    /// on the fixed-point unit like the PPC `or` instruction they are.
    #[must_use]
    pub fn fu_class(self) -> FuClass {
        match self {
            Op::IntAlu | Op::IntMul | Op::IntDiv | Op::OrNop(_) | Op::Nop => FuClass::Fxu,
            Op::FpAlu | Op::FpDiv => FuClass::Fpu,
            Op::Load { .. } | Op::Store { .. } => FuClass::Lsu,
            Op::Branch(_) => FuClass::Bru,
        }
    }

    /// Whether this op reads memory.
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(self, Op::Load { .. })
    }

    /// Whether this op writes memory.
    #[must_use]
    pub fn is_store(self) -> bool {
        matches!(self, Op::Store { .. })
    }

    /// Whether this op is a conditional branch.
    #[must_use]
    pub fn is_branch(self) -> bool {
        matches!(self, Op::Branch(_))
    }

    /// The address stream referenced by a load or store, if any.
    #[must_use]
    pub fn stream(self) -> Option<StreamId> {
        match self {
            Op::Load { stream, .. } | Op::Store { stream, .. } => Some(stream),
            _ => None,
        }
    }

    /// Short mnemonic for display.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::IntAlu => "add",
            Op::IntMul => "mul",
            Op::IntDiv => "div",
            Op::FpAlu => "fadd",
            Op::FpDiv => "fdiv",
            Op::Load {
                kind: DataKind::Int,
                ..
            } => "ld",
            Op::Load {
                kind: DataKind::Float,
                ..
            } => "lfd",
            Op::Store {
                kind: DataKind::Int,
                ..
            } => "st",
            Op::Store {
                kind: DataKind::Float,
                ..
            } => "stfd",
            Op::Branch(_) => "bc",
            Op::OrNop(_) => "or.prio",
            Op::Nop => "nop",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.mnemonic())
    }
}

/// A static instruction in a program's loop body: an [`Op`] plus register
/// operands used for dependency tracking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StaticInst {
    /// The operation class.
    pub op: Op,
    /// Destination register written by this instruction, if any.
    pub dst: Option<Reg>,
    /// First source register, if any.
    pub src1: Option<Reg>,
    /// Second source register, if any.
    pub src2: Option<Reg>,
}

impl StaticInst {
    /// Creates an instruction with no register operands.
    #[must_use]
    pub fn new(op: Op) -> StaticInst {
        StaticInst {
            op,
            dst: None,
            src1: None,
            src2: None,
        }
    }

    /// Sets the destination register (chainable).
    #[must_use]
    pub fn dst(mut self, r: Reg) -> StaticInst {
        self.dst = Some(r);
        self
    }

    /// Sets the first source register (chainable).
    #[must_use]
    pub fn src1(mut self, r: Reg) -> StaticInst {
        self.src1 = Some(r);
        self
    }

    /// Sets the second source register (chainable).
    #[must_use]
    pub fn src2(mut self, r: Reg) -> StaticInst {
        self.src2 = Some(r);
        self
    }

    /// Iterates over the (up to two) source registers.
    pub fn sources(&self) -> impl Iterator<Item = Reg> + '_ {
        self.src1.into_iter().chain(self.src2)
    }
}

impl fmt::Display for StaticInst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.op.mnemonic())?;
        if let Some(d) = self.dst {
            write!(f, " {d}")?;
        }
        for (i, s) in self.sources().enumerate() {
            if i == 0 && self.dst.is_none() {
                write!(f, " {s}")?;
            } else {
                write!(f, ", {s}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fu_class_mapping() {
        assert_eq!(Op::IntAlu.fu_class(), FuClass::Fxu);
        assert_eq!(Op::IntMul.fu_class(), FuClass::Fxu);
        assert_eq!(Op::FpAlu.fu_class(), FuClass::Fpu);
        assert_eq!(Op::FpDiv.fu_class(), FuClass::Fpu);
        assert_eq!(Op::Nop.fu_class(), FuClass::Fxu);
        assert_eq!(Op::OrNop(Priority::Medium).fu_class(), FuClass::Fxu);
        assert_eq!(
            Op::Load {
                stream: StreamId::new(0),
                kind: DataKind::Int
            }
            .fu_class(),
            FuClass::Lsu
        );
        assert_eq!(
            Op::Branch(BranchBehavior::LoopBack).fu_class(),
            FuClass::Bru
        );
    }

    #[test]
    fn predicates() {
        let ld = Op::Load {
            stream: StreamId::new(2),
            kind: DataKind::Int,
        };
        let st = Op::Store {
            stream: StreamId::new(2),
            kind: DataKind::Int,
        };
        assert!(ld.is_load() && !ld.is_store());
        assert!(st.is_store() && !st.is_load());
        assert_eq!(ld.stream(), Some(StreamId::new(2)));
        assert_eq!(Op::IntAlu.stream(), None);
        assert!(Op::Branch(BranchBehavior::Random {
            taken_permille: 500
        })
        .is_branch());
        assert!(!Op::IntAlu.is_branch());
    }

    #[test]
    fn static_inst_builder_and_sources() {
        let a = Reg::new(0);
        let b = Reg::new(1);
        let c = Reg::new(2);
        let i = StaticInst::new(Op::IntAlu).dst(a).src1(b).src2(c);
        assert_eq!(i.dst, Some(a));
        assert_eq!(i.sources().collect::<Vec<_>>(), vec![b, c]);
        let j = StaticInst::new(Op::Nop);
        assert_eq!(j.sources().count(), 0);
    }

    #[test]
    fn display_forms() {
        let a = Reg::new(0);
        let b = Reg::new(1);
        let i = StaticInst::new(Op::IntAlu).dst(a).src1(b);
        assert_eq!(i.to_string(), "add r0, r1");
        assert_eq!(Op::FpAlu.to_string(), "fadd");
        assert_eq!(FuClass::Lsu.to_string(), "LSU");
    }
}
