//! Loop-body construction for each micro-benchmark.

use crate::MicroBenchmark;
use p5_isa::{BranchBehavior, DataKind, Op, Program, ProgramBuilder, Reg, StaticInst, StreamSpec};

/// Working-set sizes targeting each level of the POWER5-like hierarchy
/// (L1D 32 KiB, L2 1.5 MiB, L3 32 MiB).
pub mod footprints {
    /// Fits comfortably in the 32 KiB L1D.
    pub const L1_FIT: u64 = 16 * 1024;
    /// Exceeds the L1 and fits the 1.5 MiB L2 alone (7 of 12 ways per
    /// set), but two copies (one per context) overflow it: with equal
    /// access rates the shared L2 retains neither working set, producing
    /// the paper's (ldint_l2, ldint_l2) mutual slowdown — and a
    /// sufficiently large priority difference slows the victim enough to
    /// tip LRU residency back to the favoured thread, reproducing the
    /// paper's large memory-vs-memory prioritization gains.
    pub const L2_FIT: u64 = 896 * 1024;
    /// Exceeds the L2, fits in the 32 MiB L3.
    pub const L3_FIT: u64 = 8 * 1024 * 1024;
    /// Exceeds every cache level.
    pub const MEM: u64 = 128 * 1024 * 1024;
}

// Register conventions.
const ACC: u8 = 0; // accumulator `a`
const ITER: u8 = 1; // loop variable (modeled as a preloaded constant)
const PTR: u8 = 2; // pointer-chase register
const TMP_BASE: u8 = 32; // rotating temporaries
const TMP_COUNT: u8 = 16;

fn tmp(i: usize) -> Reg {
    Reg::new(TMP_BASE + (i % TMP_COUNT as usize) as u8)
}

fn loop_back(b: &mut ProgramBuilder) {
    b.push(StaticInst::new(Op::Branch(BranchBehavior::LoopBack)));
}

/// Builds the loop body of `bench` with the given micro-iteration count.
pub(crate) fn build(bench: MicroBenchmark, iterations: u64) -> Program {
    let mut b = Program::builder(bench.name());
    match bench {
        MicroBenchmark::CpuInt => cpu_int(&mut b),
        MicroBenchmark::CpuIntAdd => cpu_int_add(&mut b),
        MicroBenchmark::CpuIntMul => cpu_int_mul(&mut b),
        MicroBenchmark::LngChainCpuint => lng_chain_cpuint(&mut b),
        MicroBenchmark::BrHit => branches(&mut b, BranchBehavior::ConstantNotTaken),
        MicroBenchmark::BrMiss => branches(
            &mut b,
            BranchBehavior::Random {
                taken_permille: 500,
            },
        ),
        MicroBenchmark::LdintL1 => load_l1(&mut b, DataKind::Int),
        MicroBenchmark::LdfpL1 => load_l1(&mut b, DataKind::Float),
        MicroBenchmark::LdintL2 => load_chase(&mut b, DataKind::Int, footprints::L2_FIT),
        MicroBenchmark::LdfpL2 => load_chase(&mut b, DataKind::Float, footprints::L2_FIT),
        MicroBenchmark::LdintL3 => load_chase(&mut b, DataKind::Int, footprints::L3_FIT),
        MicroBenchmark::LdfpL3 => load_chase(&mut b, DataKind::Float, footprints::L3_FIT),
        MicroBenchmark::LdintMem => load_chase(&mut b, DataKind::Int, footprints::MEM),
        MicroBenchmark::LdfpMem => load_chase(&mut b, DataKind::Float, footprints::MEM),
        MicroBenchmark::CpuFp => cpu_fp(&mut b),
    }
    b.iterations(iterations);
    b.build().expect("generated bodies are well-formed")
}

/// `a += (iter*(iter-1)) - xi*iter`, 54 lines. The common subexpression
/// `iter*(iter-1)` is hoisted (as `xlc -O2` would); each line contributes
/// one multiply and two single-cycle ops, with only the final accumulate
/// on the cross-line chain — high ILP bounded by FXU multiply throughput.
fn cpu_int(b: &mut ProgramBuilder) {
    let acc = Reg::new(ACC);
    let iter = Reg::new(ITER);
    let hoisted = tmp(0);
    // t = iter - 1; m = iter * t  (recomputed once per micro-iteration)
    b.push(StaticInst::new(Op::IntAlu).dst(hoisted).src1(iter));
    b.push(
        StaticInst::new(Op::IntMul)
            .dst(hoisted)
            .src1(iter)
            .src2(hoisted),
    );
    for line in 0..54 {
        let m = tmp(1 + (line % 8));
        let s = tmp(9 + (line % 6));
        // mi = xi * iter (xi is a preloaded constant register)
        b.push(StaticInst::new(Op::IntMul).dst(m).src1(iter));
        // si = hoisted - mi
        b.push(StaticInst::new(Op::IntAlu).dst(s).src1(hoisted).src2(m));
        // a += si (the only chained op)
        b.push(StaticInst::new(Op::IntAlu).dst(acc).src1(acc).src2(s));
    }
    loop_back(b);
}

/// Add-only variant: `a += (iter + iterp) - xi + iter`.
fn cpu_int_add(b: &mut ProgramBuilder) {
    let acc = Reg::new(ACC);
    let iter = Reg::new(ITER);
    for line in 0..54 {
        let t1 = tmp(line % 8);
        let t2 = tmp(8 + (line % 8));
        b.push(StaticInst::new(Op::IntAlu).dst(t1).src1(iter));
        b.push(StaticInst::new(Op::IntAlu).dst(t2).src1(t1).src2(iter));
        b.push(StaticInst::new(Op::IntAlu).dst(t2).src1(t2));
        b.push(StaticInst::new(Op::IntAlu).dst(acc).src1(acc).src2(t2));
    }
    loop_back(b);
}

/// Multiply-only variant: `a = (iter*iter) * xi * iter` (no cross-line
/// chain, bounded purely by multiply throughput).
fn cpu_int_mul(b: &mut ProgramBuilder) {
    let iter = Reg::new(ITER);
    for line in 0..54 {
        let t1 = tmp(line % 8);
        let t2 = tmp(8 + (line % 8));
        b.push(StaticInst::new(Op::IntMul).dst(t1).src1(iter).src2(iter));
        b.push(StaticInst::new(Op::IntMul).dst(t2).src1(t1));
        b.push(StaticInst::new(Op::IntMul).dst(t2).src1(t2).src2(iter));
    }
    loop_back(b);
}

/// 50 lines whose accumulator chains across lines *through a multiply*:
/// `acc = (acc * iter) - xi*iter + t`. Per line the chain costs
/// mul+sub+add, so IPC sits near 4 insts / (mul_latency + 2).
fn lng_chain_cpuint(b: &mut ProgramBuilder) {
    let acc = Reg::new(ACC);
    let iter = Reg::new(ITER);
    for line in 0..50 {
        let c = tmp(line % 8);
        let m = tmp(8 + (line % 8));
        // c = acc * iter          (chained multiply)
        b.push(StaticInst::new(Op::IntMul).dst(c).src1(acc).src2(iter));
        // m = xi * iter           (independent)
        b.push(StaticInst::new(Op::IntMul).dst(m).src1(iter));
        // c = c - m               (chained)
        b.push(StaticInst::new(Op::IntAlu).dst(c).src1(c).src2(m));
        // acc = c + iter          (chained)
        b.push(StaticInst::new(Op::IntAlu).dst(acc).src1(c).src2(iter));
    }
    loop_back(b);
}

/// `if (a[s]==0) a=a+1; else a=a-1`, 28 lines: load, compare, branch,
/// update. The direction depends on the data: constant for `br_hit`,
/// random for `br_miss`.
fn branches(b: &mut ProgramBuilder, behavior: BranchBehavior) {
    let acc = Reg::new(ACC);
    let s = b.stream(StreamSpec::sequential(footprints::L1_FIT, 8));
    for line in 0..28 {
        let v = tmp(line % 8);
        b.push(
            StaticInst::new(Op::Load {
                stream: s,
                kind: DataKind::Int,
            })
            .dst(v),
        );
        // compare a[s] against zero
        b.push(StaticInst::new(Op::IntAlu).dst(tmp(8 + line % 4)).src1(v));
        b.push(StaticInst::new(Op::Branch(behavior)));
        // a = a +/- 1
        b.push(StaticInst::new(Op::IntAlu).dst(acc).src1(acc));
    }
    loop_back(b);
}

/// `a[i+s] = a[i+s]+1` with the whole array resident in L1: independent
/// strided load/add/store triplets, bounded by LSU throughput.
fn load_l1(b: &mut ProgramBuilder, kind: DataKind) {
    let s = b.stream(StreamSpec::sequential(footprints::L1_FIT, 8));
    let add_op = match kind {
        DataKind::Int => Op::IntAlu,
        DataKind::Float => Op::FpAlu,
    };
    for e in 0..16 {
        let v = tmp(e % 8);
        let w = tmp(8 + (e % 8));
        b.push(StaticInst::new(Op::Load { stream: s, kind }).dst(v));
        b.push(StaticInst::new(add_op).dst(w).src1(v));
        b.push(StaticInst::new(Op::Store { stream: s, kind }).src1(w));
    }
    loop_back(b);
}

/// `a[i+s] = a[i+s]+1` with the array sized for a deeper cache level.
/// Dependent (pointer-chase) accesses expose each level's latency
/// serially, matching the paper's measured per-level IPCs (see the crate
/// docs and DESIGN.md).
fn load_chase(b: &mut ProgramBuilder, kind: DataKind, footprint: u64) {
    let s = b.stream(StreamSpec::pointer_chase(footprint));
    let ptr = Reg::new(PTR);
    let add_op = match kind {
        DataKind::Int => Op::IntAlu,
        DataKind::Float => Op::FpAlu,
    };
    let w = tmp(0);
    // ptr = *ptr  (the chase)
    b.push(
        StaticInst::new(Op::Load { stream: s, kind })
            .dst(ptr)
            .src1(ptr),
    );
    // w = ptr + 1
    b.push(StaticInst::new(add_op).dst(w).src1(ptr));
    // *addr = w
    b.push(StaticInst::new(Op::Store { stream: s, kind }).src1(w));
    loop_back(b);
}

/// `a += (tmp*(tmp-1.0)) - xi*tmp` over floats, 54 lines: two chained
/// floating-point ops per line (the accumulate compiled as
/// `a = (a + m1) - m2`), so IPC sits near 5 / (2 × fp_latency).
fn cpu_fp(b: &mut ProgramBuilder) {
    let acc = Reg::new(ACC);
    let iter = Reg::new(ITER);
    let tmp_f = tmp(0);
    // tmp = iter * 1.0 (once per micro-iteration)
    b.push(StaticInst::new(Op::FpAlu).dst(tmp_f).src1(iter));
    for line in 0..54 {
        let f1 = tmp(1 + (line % 5));
        let m1 = tmp(6 + (line % 5));
        let m2 = tmp(11 + (line % 5));
        // f1 = tmp - 1.0
        b.push(StaticInst::new(Op::FpAlu).dst(f1).src1(tmp_f));
        // m1 = tmp * f1
        b.push(StaticInst::new(Op::FpAlu).dst(m1).src1(tmp_f).src2(f1));
        // m2 = xi * tmp
        b.push(StaticInst::new(Op::FpAlu).dst(m2).src1(tmp_f));
        // a = a + m1          (chained)
        b.push(StaticInst::new(Op::FpAlu).dst(acc).src1(acc).src2(m1));
        // a = a - m2          (chained)
        b.push(StaticInst::new(Op::FpAlu).dst(acc).src1(acc).src2(m2));
    }
    loop_back(b);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_int_has_54_lines_of_3_plus_prefix() {
        let p = build(MicroBenchmark::CpuInt, 1);
        // 2 prefix + 54*3 + loop branch
        assert_eq!(p.body().len(), 2 + 54 * 3 + 1);
    }

    #[test]
    fn lng_chain_is_chained_through_accumulator() {
        let p = build(MicroBenchmark::LngChainCpuint, 1);
        let acc = Reg::new(ACC);
        // The accumulator must be both read and written in every line.
        let reads = p
            .body()
            .iter()
            .filter(|i| i.src1 == Some(acc) || i.src2 == Some(acc))
            .count();
        let writes = p.body().iter().filter(|i| i.dst == Some(acc)).count();
        assert_eq!(reads, 50);
        assert_eq!(writes, 50);
    }

    #[test]
    fn chase_bodies_have_self_dependent_load() {
        for bench in [
            MicroBenchmark::LdintL2,
            MicroBenchmark::LdintL3,
            MicroBenchmark::LdintMem,
        ] {
            let p = build(bench, 1);
            let load = &p.body()[0];
            assert!(load.op.is_load());
            assert_eq!(load.dst, load.src1, "{bench}: load must chase itself");
            assert!(p.streams()[0].is_dependent());
        }
    }

    #[test]
    fn l1_bodies_use_independent_sequential_stream() {
        let p = build(MicroBenchmark::LdintL1, 1);
        assert!(!p.streams()[0].is_dependent());
        assert_eq!(p.streams()[0].footprint_bytes, footprints::L1_FIT);
    }

    #[test]
    fn fp_load_variant_uses_fp_add() {
        let p = build(MicroBenchmark::LdfpL2, 1);
        assert!(p.body().iter().any(|i| matches!(i.op, Op::FpAlu)));
    }

    #[test]
    fn br_bodies_differ_only_in_behavior() {
        let hit = build(MicroBenchmark::BrHit, 1);
        let miss = build(MicroBenchmark::BrMiss, 1);
        assert_eq!(hit.body().len(), miss.body().len());
        let hit_branches = hit
            .body()
            .iter()
            .filter(|i| matches!(i.op, Op::Branch(BranchBehavior::ConstantNotTaken)))
            .count();
        let miss_branches = miss
            .body()
            .iter()
            .filter(|i| matches!(i.op, Op::Branch(BranchBehavior::Random { .. })))
            .count();
        assert_eq!(hit_branches, 28);
        assert_eq!(miss_branches, 28);
    }
}
