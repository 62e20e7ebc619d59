//! Figure 3 — performance degradation of the PThread as its priority
//! decreases with respect to the SThread (differences −1 through −5).
//!
//! Paper findings this figure carries:
//!
//! * negative priorities hurt far more than positive priorities help
//!   (up to ~42× degradation for a cpu-bound thread against a
//!   memory-bound one, ~20× against another cpu-bound one);
//! * `ldint_mem` is insensitive to low priority except against another
//!   `ldint_mem`;
//! * −3 marks a clear step in the loss.

use crate::report::{ratio, TextTable};
use crate::sweep::{self, PrioritySweep};
use crate::Experiments;
use p5_microbench::MicroBenchmark;

/// Negative differences plotted in the figure.
pub const DIFFS: [i32; 5] = [-1, -2, -3, -4, -5];

/// Measured Figure 3: `slowdown[p][s][k]` is the factor by which PThread
/// `p`'s execution time grows at difference `DIFFS[k]` against SThread
/// `s`, relative to (4,4) (IPC ratio baseline/measured).
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// Degradation factor per (pthread, sthread, diff).
    pub slowdown: [[[f64; 5]; 6]; 6],
}

impl Fig3Result {
    /// Projects the figure from a sweep including differences −5..=0.
    ///
    /// # Panics
    ///
    /// Panics if the sweep lacks any needed difference.
    #[must_use]
    pub fn from_sweep(sweep: &PrioritySweep) -> Fig3Result {
        let mut slowdown = [[[0.0; 5]; 6]; 6];
        for (p, plane) in slowdown.iter_mut().enumerate() {
            for (s, row) in plane.iter_mut().enumerate() {
                let base = sweep.baseline(p, s).pt_ipc;
                for (k, &d) in DIFFS.iter().enumerate() {
                    let ipc = sweep.cell(d, p, s).pt_ipc.max(1e-12);
                    row[k] = base / ipc;
                }
            }
        }
        Fig3Result { slowdown }
    }

    /// Degradation of `pthread` vs `sthread` at a difference.
    ///
    /// # Panics
    ///
    /// Panics if `diff` is not in [`DIFFS`].
    #[must_use]
    pub fn slowdown_at(&self, pthread: MicroBenchmark, sthread: MicroBenchmark, diff: i32) -> f64 {
        let k = DIFFS
            .iter()
            .position(|&d| d == diff)
            .expect("difference must be -1..=-5");
        self.slowdown[PrioritySweep::index(pthread)][PrioritySweep::index(sthread)][k]
    }

    /// Worst degradation `pthread` suffers over any SThread / difference.
    #[must_use]
    pub fn max_slowdown(&self, pthread: MicroBenchmark) -> f64 {
        let p = PrioritySweep::index(pthread);
        self.slowdown[p]
            .iter()
            .flatten()
            .copied()
            .fold(0.0, f64::max)
    }

    /// Renders all six sub-figures as tables (sub-figure order as in
    /// [`crate::fig2::SUBFIGURES`]).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out =
            String::from("Figure 3 — PThread slowdown vs (4,4) as its priority decreases\n");
        for (which, bench) in crate::fig2::SUBFIGURES.iter().enumerate() {
            let p = PrioritySweep::index(*bench);
            let letter = (b'a' + which as u8) as char;
            out.push_str(&format!("({letter}) PThread = {}\n", bench.name()));
            let mut header = vec!["SThread".to_string()];
            header.extend(DIFFS.iter().map(|d| format!("{d}")));
            let mut t = TextTable::new(header);
            for (s, sb) in MicroBenchmark::PRESENTED.iter().enumerate() {
                let mut row = vec![sb.name().to_string()];
                row.extend((0..5).map(|k| ratio(self.slowdown[p][s][k])));
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
pub fn run(ctx: &Experiments) -> Result<Fig3Result, crate::ExpError> {
    let sweep = sweep::run(ctx, &[0, -1, -2, -3, -4, -5])?;
    Ok(Fig3Result::from_sweep(&sweep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepCell;

    fn synthetic_sweep() -> PrioritySweep {
        // pt IPC halves per negative step.
        let diffs: Vec<i32> = vec![0, -1, -2, -3, -4, -5];
        let grids = diffs
            .iter()
            .map(|&d| {
                let c = SweepCell {
                    pt_ipc: 1.0 / f64::from(1 << d.unsigned_abs()),
                    st_ipc: 1.0,
                    total_ipc: 0.0,
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
    fn slowdowns_are_relative_to_baseline() {
        let f = Fig3Result::from_sweep(&synthetic_sweep());
        let d1 = f.slowdown_at(MicroBenchmark::CpuInt, MicroBenchmark::CpuInt, -1);
        let d5 = f.slowdown_at(MicroBenchmark::CpuInt, MicroBenchmark::CpuInt, -5);
        assert!((d1 - 2.0).abs() < 1e-9);
        assert!((d5 - 32.0).abs() < 1e-9);
        assert!((f.max_slowdown(MicroBenchmark::LdintMem) - 32.0).abs() < 1e-9);
    }

    #[test]
    fn render_shows_negative_diffs() {
        let f = Fig3Result::from_sweep(&synthetic_sweep());
        let s = f.render();
        assert!(s.contains("-5"));
        assert!(s.contains("(f) PThread = ldint_mem"));
    }
}
