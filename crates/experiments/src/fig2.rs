//! Figure 2 — performance improvement of the PThread as its priority
//! increases with respect to the SThread (differences +1 through +5),
//! relative to the (4,4) baseline.
//!
//! Paper findings this figure carries:
//!
//! * cpu-bound threads gain the most (up to ~2.5× vs. the baseline);
//! * low-IPC non-memory threads (`lng_chain_cpuint`, `cpu_fp`) gain
//!   little;
//! * memory-bound threads gain only when paired with another memory-bound
//!   thread (up to +240% for `ldint_l2`), with the largest step late in
//!   the difference range;
//! * +2 is the saturation knee for most benchmarks (≥95% of maximum).

use crate::report::{ratio, TextTable};
use crate::sweep::{self, PrioritySweep};
use crate::Experiments;
use p5_microbench::MicroBenchmark;

/// Positive differences plotted in the figure.
pub const DIFFS: [i32; 5] = [1, 2, 3, 4, 5];

/// Sub-figure order used in the paper: (a) lng_chain_cpuint, (b) cpu_fp,
/// (c) cpu_int, (d) ldint_l1, (e) ldint_l2, (f) ldint_mem.
pub const SUBFIGURES: [MicroBenchmark; 6] = [
    MicroBenchmark::LngChainCpuint,
    MicroBenchmark::CpuFp,
    MicroBenchmark::CpuInt,
    MicroBenchmark::LdintL1,
    MicroBenchmark::LdintL2,
    MicroBenchmark::LdintMem,
];

/// Measured Figure 2: `speedup[p][s][k]` is the PThread `p`'s IPC at
/// difference `DIFFS[k]` against SThread `s`, relative to (4,4); indices
/// over [`MicroBenchmark::PRESENTED`].
#[derive(Debug, Clone)]
pub struct Fig2Result {
    /// Relative PThread performance per (pthread, sthread, diff).
    pub speedup: [[[f64; 5]; 6]; 6],
}

impl Fig2Result {
    /// Projects the figure from a sweep that includes differences 0..=5.
    ///
    /// # Panics
    ///
    /// Panics if the sweep lacks any of the needed differences.
    #[must_use]
    pub fn from_sweep(sweep: &PrioritySweep) -> Fig2Result {
        let mut speedup = [[[0.0; 5]; 6]; 6];
        for (p, plane) in speedup.iter_mut().enumerate() {
            for (s, row) in plane.iter_mut().enumerate() {
                let base = sweep.baseline(p, s).pt_ipc.max(1e-12);
                for (k, &d) in DIFFS.iter().enumerate() {
                    row[k] = sweep.cell(d, p, s).pt_ipc / base;
                }
            }
        }
        Fig2Result { speedup }
    }

    /// Maximum speedup a PThread reaches over any SThread and difference.
    #[must_use]
    pub fn max_speedup(&self, pthread: MicroBenchmark) -> f64 {
        let p = PrioritySweep::index(pthread);
        self.speedup[p]
            .iter()
            .flatten()
            .copied()
            .fold(0.0, f64::max)
    }

    /// Speedup of `pthread` vs `sthread` at a difference.
    ///
    /// # Panics
    ///
    /// Panics if `diff` is not in [`DIFFS`].
    #[must_use]
    pub fn speedup_at(&self, pthread: MicroBenchmark, sthread: MicroBenchmark, diff: i32) -> f64 {
        let k = DIFFS
            .iter()
            .position(|&d| d == diff)
            .expect("difference must be +1..=+5");
        self.speedup[PrioritySweep::index(pthread)][PrioritySweep::index(sthread)][k]
    }

    /// Renders all six sub-figures as tables.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out =
            String::from("Figure 2 — PThread speedup vs (4,4) as its priority increases\n");
        for (which, bench) in SUBFIGURES.iter().enumerate() {
            let p = PrioritySweep::index(*bench);
            let letter = (b'a' + which as u8) as char;
            out.push_str(&format!("({letter}) PThread = {}\n", bench.name()));
            let mut header = vec!["SThread".to_string()];
            header.extend(DIFFS.iter().map(|d| format!("+{d}")));
            let mut t = TextTable::new(header);
            for (s, sb) in MicroBenchmark::PRESENTED.iter().enumerate() {
                let mut row = vec![sb.name().to_string()];
                row.extend((0..5).map(|k| ratio(self.speedup[p][s][k])));
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
pub fn run(ctx: &Experiments) -> Result<Fig2Result, crate::ExpError> {
    let sweep = sweep::run(ctx, &[0, 1, 2, 3, 4, 5])?;
    Ok(Fig2Result::from_sweep(&sweep))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepCell;

    fn synthetic_sweep() -> PrioritySweep {
        // pt IPC grows linearly with diff for every pair.
        let diffs: Vec<i32> = (0..=5).collect();
        let grids = diffs
            .iter()
            .map(|&d| {
                let c = SweepCell {
                    pt_ipc: 1.0 + d as f64,
                    st_ipc: 1.0,
                    total_ipc: 2.0 + d as f64,
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
    fn speedups_are_relative_to_baseline() {
        let f = Fig2Result::from_sweep(&synthetic_sweep());
        assert!(
            (f.speedup_at(MicroBenchmark::CpuInt, MicroBenchmark::CpuInt, 1) - 2.0).abs() < 1e-12
        );
        assert!(
            (f.speedup_at(MicroBenchmark::CpuInt, MicroBenchmark::CpuInt, 5) - 6.0).abs() < 1e-12
        );
        assert!((f.max_speedup(MicroBenchmark::LdintL2) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn render_lists_subfigures() {
        let f = Fig2Result::from_sweep(&synthetic_sweep());
        let s = f.render();
        for (i, b) in SUBFIGURES.iter().enumerate() {
            let letter = (b'a' + i as u8) as char;
            assert!(s.contains(&format!("({letter}) PThread = {}", b.name())));
        }
    }
}
