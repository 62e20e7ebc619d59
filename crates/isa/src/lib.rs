//! # p5-isa
//!
//! Instruction-set and thread-priority model for the POWER5
//! software-controlled priority reproduction (Boneti et al., ISCA 2008).
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Priority`] — the eight POWER5 software-controlled thread priorities
//!   (paper Table 1), their privilege requirements and `or X,X,X` nop
//!   encodings.
//! * [`DecodePolicy`] / [`decode_policy`] — the decode-slot allocation rule
//!   of paper Equation 1, `R = 2^(|PrioP - PrioS| + 1)`, including the
//!   special cases for priorities 0, 7 and the (1,1) low-power mode.
//! * [`Op`], [`StaticInst`] — the instruction classes the simulator
//!   executes (fixed-point, floating-point, loads/stores over address
//!   streams, branches, priority-setting or-nops).
//! * [`Program`] — a loop-structured program: a straight-line loop body
//!   iterated a configurable number of times, plus the address streams its
//!   memory instructions walk.
//!
//! # Example
//!
//! ```
//! use p5_isa::{Priority, decode_policy, DecodePolicy, ThreadId};
//!
//! // Paper Section 3.2: PThread priority 6, SThread priority 2 -> R = 32,
//! // the core decodes 31 times from PThread and once from SThread.
//! let policy = decode_policy(Priority::High, Priority::Low);
//! assert_eq!(
//!     policy,
//!     DecodePolicy::Ratio { favoured: ThreadId::T0, favoured_slots: 31, period: 32 }
//! );
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod asm;
mod inst;
mod priority;
mod program;
mod reg;

pub use inst::{BranchBehavior, FuClass, Op, StaticInst};
pub use priority::{
    decode_policy, DecodePolicy, OrNopEncoding, Priority, PriorityError, PrivilegeLevel,
    PRIORITY_TABLE,
};
pub use program::{
    AccessPattern, BodyMix, DataKind, Program, ProgramBuilder, ProgramError, StreamId, StreamSpec,
};
pub use reg::Reg;

/// Identifier of one of the two hardware thread contexts of an SMT2 core.
///
/// The paper calls context 0 the "primary thread" (PThread) and context 1
/// the "secondary thread" (SThread); the distinction is purely positional.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ThreadId {
    /// The primary thread (PThread in the paper's terminology).
    T0,
    /// The secondary thread (SThread in the paper's terminology).
    T1,
}

impl ThreadId {
    /// Both thread identifiers, in order.
    pub const ALL: [ThreadId; 2] = [ThreadId::T0, ThreadId::T1];

    /// Returns the other context of the core.
    ///
    /// ```
    /// use p5_isa::ThreadId;
    /// assert_eq!(ThreadId::T0.other(), ThreadId::T1);
    /// assert_eq!(ThreadId::T1.other(), ThreadId::T0);
    /// ```
    #[must_use]
    pub fn other(self) -> ThreadId {
        match self {
            ThreadId::T0 => ThreadId::T1,
            ThreadId::T1 => ThreadId::T0,
        }
    }

    /// Zero-based index of the context (0 or 1), usable to index arrays.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            ThreadId::T0 => 0,
            ThreadId::T1 => 1,
        }
    }

    /// Builds a `ThreadId` from an index.
    ///
    /// # Panics
    ///
    /// Panics if `index > 1`.
    #[must_use]
    pub fn from_index(index: usize) -> ThreadId {
        match index {
            0 => ThreadId::T0,
            1 => ThreadId::T1,
            _ => panic!("SMT2 core has exactly two contexts, got index {index}"),
        }
    }
}

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThreadId::T0 => write!(f, "T0"),
            ThreadId::T1 => write!(f, "T1"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_id_other_is_involution() {
        for t in ThreadId::ALL {
            assert_eq!(t.other().other(), t);
            assert_ne!(t.other(), t);
        }
    }

    #[test]
    fn thread_id_index_roundtrip() {
        for t in ThreadId::ALL {
            assert_eq!(ThreadId::from_index(t.index()), t);
        }
    }

    #[test]
    #[should_panic(expected = "exactly two contexts")]
    fn thread_id_from_bad_index_panics() {
        let _ = ThreadId::from_index(2);
    }

    #[test]
    fn thread_id_display() {
        assert_eq!(ThreadId::T0.to_string(), "T0");
        assert_eq!(ThreadId::T1.to_string(), "T1");
    }
}
