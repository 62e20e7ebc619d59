//! The measurement-isolation methodology of paper Section 4.1.
//!
//! "Normal software environment can insert significant noise into
//! performance measurements. To minimize such noise, both single-thread
//! and multithreaded experiments were performed on the second core of the
//! POWER5. All user-land processes and interrupt requests were isolated
//! on the first one."
//!
//! This experiment reproduces the effect on the dual-core
//! [`Chip`]: the benchmark under measurement runs on
//! core 1 while core 0 is either idle (the paper's isolated setup) or
//! runs an OS-noise stand-in that pressures the shared L2/L3. The report
//! shows the measured IPC and the per-repetition variability under both
//! regimes. Each regime steps its own serial chip, so the two run side by
//! side on the campaign pool with the same bits as one after the other.

use crate::campaign::parallel_map;
use crate::report::{f3, pct, TextTable};
use crate::Experiments;
use p5_core::{Chip, CoreId};
use p5_isa::{DataKind, Op, Program, Reg, StaticInst, StreamSpec, ThreadId};
use p5_microbench::MicroBenchmark;

/// A stand-in for the background OS activity the paper moved off the
/// measurement core: buffer copies, page-cache churn and logging —
/// modeled as a streaming copy over a memory-sized footprint. Independent
/// line-granular accesses give it the high cache-insertion rate that
/// makes shared-L2 pollution visible on the sibling core.
#[must_use]
pub fn os_noise_program() -> Program {
    let mut b = Program::builder("os_noise");
    let src = b.stream(StreamSpec::sequential(16 * 1024 * 1024, 128));
    let dst = b.stream(StreamSpec::sequential(16 * 1024 * 1024, 128));
    for i in 0..4 {
        let v = Reg::new(40 + i);
        b.push(
            StaticInst::new(Op::Load {
                stream: src,
                kind: DataKind::Int,
            })
            .dst(v),
        );
        b.push(
            StaticInst::new(Op::Load {
                stream: dst,
                kind: DataKind::Int,
            })
            .dst(Reg::new(50 + i)),
        );
        b.push(
            StaticInst::new(Op::Store {
                stream: dst,
                kind: DataKind::Int,
            })
            .src1(v),
        );
        b.push(StaticInst::new(Op::IntAlu).dst(Reg::new(60 + i)));
    }
    b.push(StaticInst::new(Op::Branch(
        p5_isa::BranchBehavior::LoopBack,
    )));
    b.iterations(2_000);
    b.build().expect("noise program is well-formed")
}

/// One measurement regime.
#[derive(Debug, Clone, Copy)]
pub struct Regime {
    /// Mean IPC of the benchmark on the measurement core.
    pub mean_ipc: f64,
    /// Coefficient of variation of the per-repetition times (the noise
    /// the paper's isolation removes).
    pub repetition_cv: f64,
    /// Repetitions observed.
    pub repetitions: usize,
}

/// Result of the isolation experiment.
#[derive(Debug, Clone)]
pub struct NoiseResult {
    /// The benchmark measured on core 1.
    pub bench: MicroBenchmark,
    /// Core 0 idle (the paper's setup).
    pub isolated: Regime,
    /// Core 0 running the OS-noise stand-in.
    pub noisy: Regime,
}

impl NoiseResult {
    /// The slowdown the un-isolated regime imposes on the measurement.
    #[must_use]
    pub fn perturbation(&self) -> f64 {
        self.isolated.mean_ipc / self.noisy.mean_ipc.max(1e-12) - 1.0
    }

    /// Renders the comparison.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "core 0".into(),
            "mean IPC".into(),
            "repetition CV".into(),
            "repetitions".into(),
        ]);
        for (label, r) in [
            ("isolated (idle)", &self.isolated),
            ("OS noise", &self.noisy),
        ] {
            t.row(vec![
                label.into(),
                f3(r.mean_ipc),
                pct(r.repetition_cv),
                r.repetitions.to_string(),
            ]);
        }
        format!(
            "Measurement isolation (paper Section 4.1) — {} on core 1\n{}perturbation from shared-cache noise: {}\n",
            self.bench.name(),
            t.render(),
            pct(self.perturbation())
        )
    }
}

fn measure(ctx: &Experiments, bench: MicroBenchmark, noisy: bool) -> Regime {
    let mut chip = Chip::new(ctx.core.clone());
    chip.core_mut(CoreId::C1)
        .load_program(ThreadId::T0, bench.program());
    if noisy {
        // Both contexts of core 0 run noise, as a busy OS core would.
        chip.core_mut(CoreId::C0)
            .load_program(ThreadId::T0, os_noise_program());
        chip.core_mut(CoreId::C0)
            .load_program(ThreadId::T1, os_noise_program());
    }

    // Warm, then measure for a fixed horizon (bounded by the FAME cycle
    // budget so smoke configurations stay cheap).
    chip.run_cycles(ctx.fame.warmup.max_cycles.min(6_000_000));
    chip.reset_stats();
    chip.run_cycles(ctx.fame.max_cycles.min(4_000_000));

    let stats = chip.core(CoreId::C1).stats();
    let reps = &stats.thread(ThreadId::T0).repetitions;
    let mean_ipc = stats.ipc(ThreadId::T0);

    // Per-repetition durations (excluding the partial first boundary).
    let mut durations = Vec::new();
    for w in reps.windows(2) {
        durations.push((w[1].end_cycle - w[0].end_cycle) as f64);
    }
    let repetition_cv = if durations.len() >= 2 {
        let mean = durations.iter().sum::<f64>() / durations.len() as f64;
        let var = durations
            .iter()
            .map(|d| (d - mean) * (d - mean))
            .sum::<f64>()
            / durations.len() as f64;
        var.sqrt() / mean
    } else {
        0.0
    };

    Regime {
        mean_ipc,
        repetition_cv,
        repetitions: reps.len(),
    }
}

/// Runs the isolation experiment on `ldint_l2`, the benchmark most
/// exposed to shared-L2 noise.
#[must_use]
pub fn run(ctx: &Experiments) -> NoiseResult {
    run_with(ctx, MicroBenchmark::LdintL2)
}

/// Runs the isolation experiment on a caller-chosen benchmark.
#[must_use]
pub fn run_with(ctx: &Experiments, bench: MicroBenchmark) -> NoiseResult {
    let [isolated, noisy]: [Regime; 2] = parallel_map(ctx.jobs, 2, |i| measure(ctx, bench, i == 1))
        .try_into()
        .expect("one result per regime");
    NoiseResult {
        bench,
        isolated,
        noisy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_program_builds() {
        let p = os_noise_program();
        assert_eq!(p.name(), "os_noise");
        let mix = p.body_mix();
        assert!(mix.loads >= 8, "streaming noise needs load pressure");
        assert!(mix.stores >= 4);
    }

    #[test]
    fn render_smoke() {
        let r = NoiseResult {
            bench: MicroBenchmark::LdintL2,
            isolated: Regime {
                mean_ipc: 0.31,
                repetition_cv: 0.002,
                repetitions: 12,
            },
            noisy: Regime {
                mean_ipc: 0.15,
                repetition_cv: 0.05,
                repetitions: 7,
            },
        };
        let s = r.render();
        assert!(s.contains("isolated (idle)"));
        assert!(s.contains("OS noise"));
        assert!(r.perturbation() > 1.0);
    }
}
