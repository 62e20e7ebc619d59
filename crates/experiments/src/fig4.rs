//! Figure 4 — IPC throughput with respect to the (4,4) execution, as the
//! priority difference sweeps −4..+4.
//!
//! Paper findings this figure carries:
//!
//! * total throughput can improve by 2× or more in special cases, at the
//!   cost of a severe slowdown of the low-priority thread;
//! * throughput improves when the higher-IPC thread of the pair is
//!   prioritized;
//! * the POWER5 baseline (4,4) is already effective in most cases —
//!   many prioritizations lose throughput.

use crate::report::{ratio, TextTable};
use crate::sweep::{self, PrioritySweep};
use crate::Experiments;
use p5_microbench::MicroBenchmark;

/// Differences plotted in the figure.
pub const DIFFS: [i32; 9] = [4, 3, 2, 1, 0, -1, -2, -3, -4];

/// Measured Figure 4: `relative[p][s][k]` is total IPC at `DIFFS[k]` over
/// total IPC at (4,4) for the pair `(p, s)`.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// Relative throughput per (pthread, sthread, diff).
    pub relative: [[[f64; 9]; 6]; 6],
    /// Absolute total IPC at the baseline, per pair.
    pub baseline_total: [[f64; 6]; 6],
}

impl Fig4Result {
    /// Projects the figure from a sweep including −4..=4.
    ///
    /// # Panics
    ///
    /// Panics if the sweep lacks any needed difference.
    #[must_use]
    pub fn from_sweep(sweep: &PrioritySweep) -> Fig4Result {
        let mut relative = [[[0.0; 9]; 6]; 6];
        let mut baseline_total = [[0.0; 6]; 6];
        for p in 0..6 {
            for s in 0..6 {
                let base = sweep.baseline(p, s).total_ipc.max(1e-12);
                baseline_total[p][s] = base;
                for (k, &d) in DIFFS.iter().enumerate() {
                    relative[p][s][k] = sweep.cell(d, p, s).total_ipc / base;
                }
            }
        }
        Fig4Result {
            relative,
            baseline_total,
        }
    }

    /// Relative throughput for a pair at a difference.
    ///
    /// # Panics
    ///
    /// Panics if `diff` is not in [`DIFFS`].
    #[must_use]
    pub fn throughput_at(
        &self,
        pthread: MicroBenchmark,
        sthread: MicroBenchmark,
        diff: i32,
    ) -> f64 {
        let k = DIFFS
            .iter()
            .position(|&d| d == diff)
            .expect("difference must be in -4..=4");
        self.relative[PrioritySweep::index(pthread)][PrioritySweep::index(sthread)][k]
    }

    /// The best relative throughput reached over every pair and
    /// difference.
    #[must_use]
    pub fn best_improvement(&self) -> f64 {
        self.relative
            .iter()
            .flatten()
            .flatten()
            .copied()
            .fold(0.0, f64::max)
    }

    /// Renders the sub-figures (PThread per sub-figure, as in the paper).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::from("Figure 4 — total IPC relative to the (4,4) execution\n");
        for (which, bench) in crate::fig2::SUBFIGURES.iter().enumerate() {
            let p = PrioritySweep::index(*bench);
            let letter = (b'a' + which as u8) as char;
            out.push_str(&format!("({letter}) PThread = {}\n", bench.name()));
            let mut header = vec!["SThread".to_string()];
            header.extend(DIFFS.iter().map(|d| format!("{d:+}")));
            let mut t = TextTable::new(header);
            for (s, sb) in MicroBenchmark::PRESENTED.iter().enumerate() {
                let mut row = vec![sb.name().to_string()];
                row.extend((0..9).map(|k| ratio(self.relative[p][s][k])));
                t.row(row);
            }
            out.push_str(&t.render());
            out.push('\n');
        }
        out
    }
}

/// Runs the measurements and projects the figure.
///
/// # Errors
///
/// Propagates [`crate::ExpError`] if the underlying sweep produced no
/// usable data; individual degraded cells only annotate the sweep.
pub fn run(ctx: &Experiments) -> Result<Fig4Result, crate::ExpError> {
    let sweep = sweep::run(ctx, &[-4, -3, -2, -1, 0, 1, 2, 3, 4])?;
    Ok(Fig4Result::from_sweep(&sweep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepCell;

    fn synthetic_sweep() -> PrioritySweep {
        let diffs: Vec<i32> = (-4..=4).collect();
        let grids = diffs
            .iter()
            .map(|&d| {
                let c = SweepCell {
                    pt_ipc: 0.0,
                    st_ipc: 0.0,
                    total_ipc: 1.0 + d.abs() as f64 * 0.1,
                };
                [[c; 6]; 6]
            })
            .collect();
        PrioritySweep {
            diffs,
            grids,
            degraded: Vec::new(),
            recovered: 0,
            counts: crate::CellCounts::default(),
        }
    }

    #[test]
    fn relative_throughput_vs_baseline() {
        let f = Fig4Result::from_sweep(&synthetic_sweep());
        let at0 = f.throughput_at(MicroBenchmark::CpuInt, MicroBenchmark::CpuInt, 0);
        let at4 = f.throughput_at(MicroBenchmark::CpuInt, MicroBenchmark::CpuInt, 4);
        assert!((at0 - 1.0).abs() < 1e-12);
        assert!((at4 - 1.4).abs() < 1e-12);
        assert!((f.best_improvement() - 1.4).abs() < 1e-12);
        assert!((f.baseline_total[0][0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn render_covers_nine_diffs() {
        let s = Fig4Result::from_sweep(&synthetic_sweep()).render();
        assert!(s.contains("+4"));
        assert!(s.contains("-4"));
    }
}
