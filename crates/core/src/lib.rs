//! # p5-core
//!
//! A cycle-level, execution-driven model of one POWER5-like SMT2 core,
//! built to reproduce the software-controlled thread-priority
//! characterization of Boneti et al. (ISCA 2008).
//!
//! The model implements the two levels of thread control the paper
//! describes:
//!
//! 1. **Software-controlled priorities** (paper Section 3.2): the decode
//!    stage divides its cycles between the two contexts according to
//!    Equation 1, `R = 2^(|PrioP − PrioS| + 1)`, with the special cases for
//!    priority 0 (context off), priority 7 (single-thread mode) and (1,1)
//!    (low-power mode). Priorities are changed by `or X,X,X` nops flowing
//!    through decode, subject to the privilege rules of Table 1, or
//!    directly by the embedding software layer (`p5-os`).
//! 2. **Dynamic hardware resource balancing** (paper Section 3.1): a
//!    balancer monitors per-thread Global Completion Table (GCT) occupancy
//!    and outstanding long-latency misses, and throttles the decode of an
//!    offending thread until the congestion clears.
//!
//! The pipeline: per-thread program cursors feed a shared decode stage
//! (one context per cycle, `decode_width` instructions into one GCT
//! group); instructions wait in per-class issue queues, issue out-of-order
//! onto FXU/FPU/LSU/BRU pipes once their producers have finished, loads
//! walk the shared `p5-mem` hierarchy subject to a shared load-miss queue,
//! and groups retire in order, one per thread per cycle.
//!
//! # Example
//!
//! ```
//! use p5_core::{CoreConfig, SmtCore};
//! use p5_isa::{Priority, ThreadId, Program, StaticInst, Op};
//!
//! // A tiny all-integer program.
//! let mut b = Program::builder("toy");
//! for _ in 0..10 {
//!     b.push(StaticInst::new(Op::IntAlu));
//! }
//! b.iterations(100);
//! let prog = b.build()?;
//!
//! let mut core = SmtCore::new(CoreConfig::power5_like());
//! core.load_program(ThreadId::T0, prog.clone());
//! core.load_program(ThreadId::T1, prog);
//! core.set_priority(ThreadId::T0, Priority::High);   // +2 over default
//! core.run_cycles(10_000);
//! let s = core.stats();
//! assert!(s.committed(ThreadId::T0) > s.committed(ThreadId::T1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Engine modes
//!
//! The core is a *three-speed* engine. The detailed, cycle-level
//! pipeline above is the only mode that produces per-cycle truth;
//! [`SmtCore::functional_warmup`] fast-forwards in program order,
//! touching the same architectural warm state (caches, TLB, branch
//! predictor) without any pipeline bookkeeping — and, because it never
//! touches committed-instruction counts or repetition records, it can
//! also run *mid-measurement* between detailed sampling intervals.
//! Which speeds a run uses is selected by [`CoreConfig::plan`] (an
//! [`ExecutionPlan`], default fully [`ExecutionPlan::detailed`], so
//! artifacts stay bit-identical unless another plan is explicitly
//! requested):
//!
//! ```
//! use p5_core::{CoreConfig, ExecutionPlan, SmtCore, WarmupMode};
//! use p5_isa::{DataKind, Op, Program, StaticInst, StreamSpec, ThreadId};
//!
//! // A loop with a strided load, so warmup has cache state to build.
//! let mut b = Program::builder("ld_loop");
//! let stream = b.stream(StreamSpec::sequential(64 * 1024, 64));
//! b.push(StaticInst::new(Op::Load { stream, kind: DataKind::Int }));
//! b.push(StaticInst::new(Op::IntAlu));
//! b.iterations(10_000);
//! let prog = b.build()?;
//!
//! let config = CoreConfig {
//!     plan: ExecutionPlan::parse("detailed+ff")?,
//!     ..CoreConfig::power5_like()
//! };
//! config.try_validate()?;
//! assert_eq!(config.plan.warmup, WarmupMode::Functional);
//!
//! let mut core = SmtCore::new(config);
//! core.load_program(ThreadId::T0, prog);
//! core.functional_warmup(50_000);      // fast-forward the warm phase
//! core.reset_stats();
//! core.run_cycles(10_000);             // measure on the detailed engine
//! assert!(core.stats().ipc(ThreadId::T0) > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cancel;
mod chip;
mod config;
mod engine;
mod error;
mod queues;
mod stats;
mod thread;

pub use cancel::CancelToken;
pub use chip::{Chip, CoreId};
pub use config::{
    BalancerConfig, CoreConfig, ExecutionPlan, MeasureMode, OpLatencies, SamplingConfig, WarmupMode,
};
pub use engine::{RunOutcome, SmtCore};
pub use error::{DiagnosticSnapshot, SimError, StuckResource, ThreadDiag};
pub use stats::{CoreStats, DecodeBlock, RepetitionRecord, ThreadStats};
pub use thread::stream_base_address;
