//! # p5-workloads
//!
//! Application-level workloads for the paper's case studies:
//!
//! * [`SpecProxy`] — synthetic stand-ins for the four SPEC CPU benchmarks
//!   of Section 5.3.1 (h264ref, mcf, applu, equake), calibrated to the
//!   single-thread IPC and memory-boundedness the paper reports. The
//!   original binaries and inputs require a licensed SPEC kit and a real
//!   POWER5; the case studies depend only on the pairing of a high-IPC
//!   cpu-bound thread with a low-IPC memory-bound thread, which the
//!   proxies preserve (see DESIGN.md).
//! * [`fftlu`] — the FFT→LU software pipeline of Section 5.4.1 (Table 4):
//!   a producer thread running a Fast Fourier Transform kernel and a
//!   consumer applying LU decomposition to its output.
//! * [`mpi`] — the imbalanced bulk-synchronous (MPI-style) application
//!   model behind the Section 5.4 execution-time case study.
//!
//! # Example
//!
//! ```
//! use p5_workloads::SpecProxy;
//!
//! let mcf = SpecProxy::Mcf.program();
//! assert_eq!(mcf.name(), "mcf");
//! assert!(SpecProxy::Mcf.paper_st_ipc() < SpecProxy::H264ref.paper_st_ipc());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod fftlu;
pub mod mpi;
mod spec;

pub use spec::SpecProxy;

use p5_isa::{BranchBehavior, DataKind, Op, Program, ProgramBuilder, Reg, StaticInst, StreamId};

/// Shared body-construction helpers for workload kernels.
pub(crate) struct BodyWriter<'a> {
    builder: &'a mut ProgramBuilder,
    next_tmp: u8,
}

impl<'a> BodyWriter<'a> {
    pub(crate) fn new(builder: &'a mut ProgramBuilder) -> BodyWriter<'a> {
        BodyWriter {
            builder,
            next_tmp: 40,
        }
    }

    fn tmp(&mut self) -> Reg {
        let r = Reg::new(self.next_tmp);
        self.next_tmp = if self.next_tmp >= 120 {
            40
        } else {
            self.next_tmp + 1
        };
        r
    }

    /// Independent single-cycle integer op.
    pub(crate) fn int(&mut self) {
        let d = self.tmp();
        self.builder.push(StaticInst::new(Op::IntAlu).dst(d));
    }

    /// Integer op extending the chain through `acc`.
    pub(crate) fn int_chain(&mut self, acc: Reg) {
        self.builder
            .push(StaticInst::new(Op::IntAlu).dst(acc).src1(acc));
    }

    /// Integer multiply extending the chain through `acc`.
    pub(crate) fn mul_chain(&mut self, acc: Reg) {
        self.builder
            .push(StaticInst::new(Op::IntMul).dst(acc).src1(acc));
    }

    /// Independent floating-point op.
    pub(crate) fn fp(&mut self) {
        let d = self.tmp();
        self.builder.push(StaticInst::new(Op::FpAlu).dst(d));
    }

    /// Floating-point op extending the chain through `acc`.
    pub(crate) fn fp_chain(&mut self, acc: Reg) {
        self.builder
            .push(StaticInst::new(Op::FpAlu).dst(acc).src1(acc));
    }

    /// Independent floating-point divide (long latency, unpipelined).
    pub(crate) fn fp_div(&mut self) {
        let d = self.tmp();
        self.builder.push(StaticInst::new(Op::FpDiv).dst(d));
    }

    /// Load whose value feeds `dst` (independent address stream).
    pub(crate) fn load(&mut self, stream: StreamId, kind: DataKind, dst: Reg) {
        self.builder
            .push(StaticInst::new(Op::Load { stream, kind }).dst(dst));
    }

    /// Dependent pointer-chase load through `ptr`.
    pub(crate) fn chase(&mut self, stream: StreamId, kind: DataKind, ptr: Reg) {
        self.builder.push(
            StaticInst::new(Op::Load { stream, kind })
                .dst(ptr)
                .src1(ptr),
        );
    }

    /// Store of `src` to `stream`'s last-loaded element.
    pub(crate) fn store(&mut self, stream: StreamId, kind: DataKind, src: Reg) {
        self.builder
            .push(StaticInst::new(Op::Store { stream, kind }).src1(src));
    }

    /// Well-predicted conditional branch.
    pub(crate) fn branch_predictable(&mut self) {
        self.builder
            .push(StaticInst::new(Op::Branch(BranchBehavior::ConstantTaken)));
    }

    /// Poorly-predicted conditional branch (`taken_permille` of 1000).
    pub(crate) fn branch_random(&mut self, taken_permille: u16) {
        self.builder
            .push(StaticInst::new(Op::Branch(BranchBehavior::Random {
                taken_permille,
            })));
    }

    /// Closes the loop body.
    pub(crate) fn finish(self) {
        self.builder
            .push(StaticInst::new(Op::Branch(BranchBehavior::LoopBack)));
    }
}

/// Builds a [`Program`] from a closure that writes one micro-iteration's
/// body.
pub(crate) fn kernel(
    name: &str,
    iterations: u64,
    write: impl FnOnce(&mut ProgramBuilder, &mut Vec<StreamId>),
) -> Program {
    let mut b = Program::builder(name);
    let mut streams = Vec::new();
    write(&mut b, &mut streams);
    b.iterations(iterations);
    b.build().expect("workload kernels are well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn body_writer_rotates_temporaries() {
        let mut b = Program::builder("t");
        let mut w = BodyWriter::new(&mut b);
        for _ in 0..200 {
            w.int();
        }
        w.finish();
        b.iterations(1);
        let p = b.build().unwrap();
        assert_eq!(p.body().len(), 201);
        // All destinations stay within the temp range.
        for inst in p.body().iter().take(200) {
            let d = inst.dst.unwrap().index();
            assert!((40..=120).contains(&d));
        }
    }

    #[test]
    fn kernel_builder_produces_named_program() {
        let p = kernel("demo", 5, |b, _| {
            let mut w = BodyWriter::new(b);
            w.int();
            w.finish();
        });
        assert_eq!(p.name(), "demo");
        assert_eq!(p.iterations(), 5);
        assert_eq!(p.body().len(), 2);
    }
}
