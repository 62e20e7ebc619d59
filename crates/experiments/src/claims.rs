//! Programmatic checks of the paper's headline quantitative claims
//! (the C1–C8 list of DESIGN.md).
//!
//! Each claim is evaluated on measured experiment results and reported as
//! pass/fail with the measured value next to the paper's. Where the
//! simulator substrate is known to under- or over-shoot the paper's
//! absolute factors, the thresholds encode the *shape* requirement (who
//! wins, direction, rough magnitude) rather than the exact number — see
//! EXPERIMENTS.md for the discussion.

use crate::fig2::Fig2Result;
use crate::fig3::Fig3Result;
use crate::fig4::Fig4Result;
use crate::fig5::Fig5Result;
use crate::fig6::Fig6Result;
use crate::sweep;
use crate::table4::Table4Result;
use crate::Experiments;
use p5_microbench::MicroBenchmark;

/// Outcome of one claim check.
#[derive(Debug, Clone)]
pub struct ClaimOutcome {
    /// Claim identifier (C1–C8).
    pub id: &'static str,
    /// What the paper claims.
    pub description: &'static str,
    /// The measured value, formatted.
    pub measured: String,
    /// The acceptance criterion, formatted.
    pub criterion: String,
    /// Whether the criterion held.
    pub pass: bool,
}

/// All claim outcomes.
#[derive(Debug, Clone)]
pub struct ClaimsResult {
    /// Outcomes in C1..C8 order.
    pub outcomes: Vec<ClaimOutcome>,
}

impl ClaimsResult {
    /// Whether every claim passed.
    #[must_use]
    pub fn all_pass(&self) -> bool {
        self.outcomes.iter().all(|c| c.pass)
    }

    /// Renders the checklist.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("Headline claims (paper vs measured)\n");
        for c in &self.outcomes {
            out.push_str(&format!(
                "[{}] {}: {}\n      measured {} | criterion {}\n",
                if c.pass { "PASS" } else { "FAIL" },
                c.id,
                c.description,
                c.measured,
                c.criterion
            ));
        }
        out.push_str(&format!("all pass: {}\n", self.all_pass()));
        out
    }
}

/// Evaluates the claims from precomputed experiment results.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn evaluate(
    fig2: &Fig2Result,
    fig3: &Fig3Result,
    fig4: &Fig4Result,
    fig5: &Fig5Result,
    fig6: &Fig6Result,
    table4: &Table4Result,
) -> ClaimsResult {
    use MicroBenchmark::{CpuFp, CpuInt, LdintMem, LngChainCpuint};

    let mut outcomes = Vec::new();

    // C1 — "increasing the priority of a cpu-bound thread could reduce
    // its execution time by 2.5x over the baseline".
    let c1 = fig2.max_speedup(CpuInt);
    outcomes.push(ClaimOutcome {
        id: "C1",
        description: "prioritizing a cpu-bound thread speeds it up ~2.5x (paper)",
        measured: format!("{c1:.2}x"),
        criterion: ">= 1.7x".into(),
        pass: c1 >= 1.7,
    });

    // C2 — "by reducing the priority of a cpu-bound thread, its
    // performance can decrease up to 42x [vs memory-bound] and up to 20x
    // [vs cpu-bound]" — negative priorities hurt far more than positive
    // ones help.
    let c2 = fig3.max_slowdown(CpuInt);
    outcomes.push(ClaimOutcome {
        id: "C2",
        description: "negative priorities degrade a cpu-bound thread by an order of magnitude (paper up to 20-42x)",
        measured: format!("{c2:.1}x"),
        criterion: ">= 10x and >= 3x the positive-side gain".into(),
        pass: c2 >= 10.0 && c2 >= 3.0 * c1,
    });

    // C3 — "ldint_mem is insensitive to low priorities in all cases other
    // than running with another thread of ldint_mem".
    let worst_other = MicroBenchmark::PRESENTED
        .iter()
        .filter(|&&b| b != LdintMem)
        .map(|&b| fig3.slowdown_at(LdintMem, b, -5))
        .fold(0.0, f64::max);
    outcomes.push(ClaimOutcome {
        id: "C3",
        description: "a memory-bound thread is insensitive to low priority vs non-memory partners (paper <2.5x)",
        measured: format!("worst vs non-mem {worst_other:.2}x"),
        criterion: "< 2.5x".into(),
        pass: worst_other < 2.5,
    });

    // C4 — "the IPC throughput of the POWER5 improves up to 2x by using
    // software-controlled priorities".
    let c4 = fig4.best_improvement();
    outcomes.push(ClaimOutcome {
        id: "C4",
        description: "total throughput improves up to ~2x on the right pair (paper)",
        measured: format!("{c4:.2}x"),
        criterion: ">= 1.5x".into(),
        pass: c4 >= 1.5,
    });

    // C5 — "+2 usually represents a point of relative saturation, where
    // most of the benchmarks reach at least 95% of their maximum
    // performance".
    let sat = |p: MicroBenchmark, s: MicroBenchmark| {
        fig2.speedup_at(p, s, 2) / fig2.speedup_at(p, s, 5).max(1e-12)
    };
    let c5 = sat(CpuInt, CpuInt)
        .min(sat(CpuInt, LngChainCpuint))
        .min(sat(CpuFp, CpuFp));
    outcomes.push(ClaimOutcome {
        id: "C5",
        description: "+2 is the saturation knee for cpu-bound threads (paper >=95% of max)",
        measured: format!("{:.0}% of max at +2", c5 * 100.0),
        criterion: ">= 80%".into(),
        pass: c5 >= 0.80,
    });

    // C6 — "the overall system performance increases by 23.7%"
    // (h264ref + mcf peak).
    let (peak_d, peak_gain) = fig5.h264_mcf.peak();
    outcomes.push(ClaimOutcome {
        id: "C6",
        description: "h264ref+mcf total IPC peaks well above (4,4) (paper +23.7%)",
        measured: format!("{:+.1}% at diff {peak_d:+}", peak_gain * 100.0),
        criterion: ">= +8%".into(),
        pass: peak_gain >= 0.08,
    });

    // C7 — Table 4: best pair is (6,4), which also beats single-thread
    // mode; (6,3) over-rotates and loses to (4,4).
    let best = table4.best();
    let default_iter = table4.rows[0].iteration_cycles();
    let over_rotated = table4
        .rows
        .iter()
        .find(|r| r.prio_fft == 6 && r.prio_lu == 3)
        .map_or(0.0, |r| r.iteration_cycles());
    let c7 = best.prio_fft == 6
        && best.prio_lu == 4
        && table4.improvement_over_st() > 0.0
        && over_rotated > default_iter;
    outcomes.push(ClaimOutcome {
        id: "C7",
        description: "FFT/LU: (6,4) is best, beats ST mode; (6,3) over-rotates (paper 9.3% / 10%)",
        measured: format!(
            "best ({},{}), {:+.1}% vs ST, (6,3) {}",
            best.prio_fft,
            best.prio_lu,
            table4.improvement_over_st() * 100.0,
            if over_rotated > default_iter {
                "over-rotates"
            } else {
                "does not over-rotate"
            }
        ),
        criterion: "best=(6,4), >0% vs ST, (6,3) worse than (4,4)".into(),
        pass: c7,
    });

    // C8 — "a thread can run transparently, with almost no impact on the
    // performance of a higher-priority thread ... foreground threads with
    // lower IPC are less sensitive".
    let c8_fp = fig6.fg_time_61(CpuFp, CpuInt);
    let c8_lng = fig6.fg_time_61(LngChainCpuint, CpuInt);
    let c8 = c8_fp <= 1.15 && c8_lng <= 1.15;
    outcomes.push(ClaimOutcome {
        id: "C8",
        description:
            "a priority-1 background is near-transparent to low-IPC foregrounds (paper ~<10%)",
        measured: format!("cpu_fp {:.2}x, lng_chain {:.2}x", c8_fp, c8_lng),
        criterion: "<= 1.15x each".into(),
        pass: c8,
    });

    ClaimsResult { outcomes }
}

/// Runs every experiment the claims need and evaluates them.
///
/// # Errors
///
/// Propagates the first [`crate::ExpError`] from the underlying
/// experiments — the claim checklist is only meaningful on a complete
/// set of inputs.
pub fn run(ctx: &Experiments) -> Result<ClaimsResult, crate::ExpError> {
    let sweep = sweep::run(ctx, &[-5, -4, -3, -2, -1, 0, 1, 2, 3, 4, 5])?;
    let fig2 = Fig2Result::from_sweep(&sweep);
    let fig3 = Fig3Result::from_sweep(&sweep);
    let fig4 = Fig4Result::from_sweep(&sweep);
    let fig5 = crate::fig5::run(ctx)?;
    let fig6 = crate::fig6::run(ctx)?;
    let table4 = crate::table4::run(ctx)?;
    Ok(evaluate(&fig2, &fig3, &fig4, &fig5, &fig6, &table4))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_reports_pass_fail() {
        let r = ClaimsResult {
            outcomes: vec![
                ClaimOutcome {
                    id: "C1",
                    description: "demo",
                    measured: "2.0x".into(),
                    criterion: ">= 1.7x".into(),
                    pass: true,
                },
                ClaimOutcome {
                    id: "C2",
                    description: "demo2",
                    measured: "1.0x".into(),
                    criterion: ">= 10x".into(),
                    pass: false,
                },
            ],
        };
        let s = r.render();
        assert!(s.contains("[PASS] C1"));
        assert!(s.contains("[FAIL] C2"));
        assert!(!r.all_pass());
    }
}
