//! Shared priority sweep over all pairs of presented micro-benchmarks.
//!
//! Figures 2, 3 and 4 all derive from the same grid of measurements: for
//! every (PThread, SThread) pair of the six presented benchmarks and every
//! priority difference, the per-thread and combined IPCs. Running the
//! sweep once and projecting three figures out of it keeps the full
//! reproduction run affordable.

use crate::campaign::{Campaign, CampaignSpec, CellSpec};
use crate::{priority_pair, CellCounts, Degradation, ExpError, Experiments};
use p5_isa::ThreadId;
use p5_microbench::MicroBenchmark;

/// One measured cell of the sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepCell {
    /// PThread (T0) IPC.
    pub pt_ipc: f64,
    /// SThread (T1) IPC.
    pub st_ipc: f64,
    /// Combined IPC.
    pub total_ipc: f64,
}

/// The full grid: for each priority difference, a 6×6 matrix of cells
/// indexed `[pthread][sthread]` over [`MicroBenchmark::PRESENTED`].
#[derive(Debug, Clone)]
pub struct PrioritySweep {
    /// The differences measured, in the order of `grids`.
    pub diffs: Vec<i32>,
    /// One 6×6 grid per difference.
    pub grids: Vec<[[SweepCell; 6]; 6]>,
    /// Annotations for cells whose measurement degraded (kept at their
    /// best unconverged value, or zero when nothing was measured).
    pub degraded: Vec<Degradation>,
    /// Cells that needed the escalated-budget retry but then converged.
    pub recovered: usize,
    /// Per-status cell tally of the underlying campaign.
    pub counts: CellCounts,
}

impl PrioritySweep {
    /// The cell for `(diff, pthread index, sthread index)`.
    ///
    /// # Panics
    ///
    /// Panics if `diff` was not part of the sweep.
    #[must_use]
    pub fn cell(&self, diff: i32, pthread: usize, sthread: usize) -> &SweepCell {
        let k = self
            .diffs
            .iter()
            .position(|&d| d == diff)
            .unwrap_or_else(|| panic!("difference {diff} was not swept"));
        &self.grids[k][pthread][sthread]
    }

    /// The (4,4) baseline cell for a pair.
    ///
    /// # Panics
    ///
    /// Panics if difference 0 was not part of the sweep.
    #[must_use]
    pub fn baseline(&self, pthread: usize, sthread: usize) -> &SweepCell {
        self.cell(0, pthread, sthread)
    }

    /// Index of a benchmark within [`MicroBenchmark::PRESENTED`].
    ///
    /// # Panics
    ///
    /// Panics if `bench` is not one of the six presented benchmarks.
    #[must_use]
    pub fn index(bench: MicroBenchmark) -> usize {
        MicroBenchmark::PRESENTED
            .iter()
            .position(|&b| b == bench)
            .unwrap_or_else(|| panic!("{bench} is not in the presented set"))
    }
}

/// Runs the sweep for the given priority differences (each in `-5..=5`).
///
/// A cell whose measurement fails — even after the escalated-budget
/// retry — keeps its best unconverged value (zero if nothing was
/// measured) and is annotated in [`PrioritySweep::degraded`]; the sweep
/// itself still completes.
///
/// # Errors
///
/// Returns [`ExpError`] only if *every* cell degraded: a sweep with no
/// usable data cannot anchor the figures derived from it.
pub fn run(ctx: &Experiments, diffs: &[i32]) -> Result<PrioritySweep, ExpError> {
    let benches = MicroBenchmark::PRESENTED;
    // Build the flat cell list diff-major, then pthread, then sthread —
    // the cell for (diff k, i, j) has id k*36 + i*6 + j.
    let mut cells = Vec::with_capacity(diffs.len() * benches.len() * benches.len());
    for &diff in diffs {
        let priorities = priority_pair(diff);
        for a in &benches {
            for b in &benches {
                cells.push(CellSpec::pair(
                    format!("({},{}) at diff {diff:+}", a.name(), b.name()),
                    a.program(),
                    b.program(),
                    priorities,
                ));
            }
        }
    }
    let result = Campaign::run(ctx, &CampaignSpec::for_ctx(ctx, cells));
    if result.all_degraded() {
        return Err(ExpError {
            artifact: "sweep",
            message: format!(
                "all {} cells degraded; first: {}",
                result.cells.len(),
                result
                    .degraded
                    .first()
                    .map_or_else(String::new, Degradation::to_string)
            ),
        });
    }
    let side = benches.len();
    let grids = (0..diffs.len())
        .map(|k| {
            let mut grid = [[SweepCell {
                pt_ipc: 0.0,
                st_ipc: 0.0,
                total_ipc: 0.0,
            }; 6]; 6];
            for (i, row) in grid.iter_mut().enumerate() {
                for (j, cell) in row.iter_mut().enumerate() {
                    let m = result.measured(k * side * side + i * side + j);
                    let pt = m.ipc(ThreadId::T0).unwrap_or(0.0);
                    let st = m.ipc(ThreadId::T1).unwrap_or(0.0);
                    *cell = SweepCell {
                        pt_ipc: pt,
                        st_ipc: st,
                        total_ipc: pt + st,
                    };
                }
            }
            grid
        })
        .collect();
    Ok(PrioritySweep {
        diffs: diffs.to_vec(),
        grids,
        counts: result.counts(),
        degraded: result.degraded,
        recovered: result.recovered,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_sweep() -> PrioritySweep {
        let cell = |v: f64| SweepCell {
            pt_ipc: v,
            st_ipc: v / 2.0,
            total_ipc: v * 1.5,
        };
        PrioritySweep {
            diffs: vec![0, 2],
            grids: vec![[[cell(1.0); 6]; 6], [[cell(2.0); 6]; 6]],
            degraded: Vec::new(),
            recovered: 0,
            counts: CellCounts::default(),
        }
    }

    #[test]
    fn cell_lookup_by_diff() {
        let s = dummy_sweep();
        assert_eq!(s.cell(0, 0, 0).pt_ipc, 1.0);
        assert_eq!(s.cell(2, 3, 4).pt_ipc, 2.0);
        assert_eq!(s.baseline(1, 1).pt_ipc, 1.0);
    }

    #[test]
    #[should_panic(expected = "was not swept")]
    fn missing_diff_panics() {
        let s = dummy_sweep();
        let _ = s.cell(5, 0, 0);
    }

    #[test]
    fn bench_indexing() {
        assert_eq!(PrioritySweep::index(MicroBenchmark::LdintL1), 0);
        assert_eq!(PrioritySweep::index(MicroBenchmark::LngChainCpuint), 5);
    }

    #[test]
    #[should_panic(expected = "not in the presented set")]
    fn non_presented_bench_panics() {
        let _ = PrioritySweep::index(MicroBenchmark::BrHit);
    }
}
