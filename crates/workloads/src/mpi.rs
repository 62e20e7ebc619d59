//! Imbalanced bulk-synchronous (MPI-style) application model
//! (paper Section 5.4).
//!
//! "Most of the parallel applications have synchronization points where
//! all the tasks must complete some amount of work in order to continue
//! ... usually a task has to wait for other tasks to complete." Two ranks
//! share the SMT core; per superstep, the iteration time is the slower
//! rank's time. Software-controlled priorities re-balance the ranks.

use crate::{kernel, BodyWriter};
use p5_isa::{DataKind, Program, Reg, StreamSpec};

/// A two-rank bulk-synchronous application with a configurable work
/// imbalance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImbalancedApp {
    /// Work units the heavy rank executes per superstep.
    pub heavy_iterations: u64,
    /// Work units the light rank executes per superstep.
    pub light_iterations: u64,
}

impl ImbalancedApp {
    /// Creates an application whose heavy rank does `ratio` times the
    /// light rank's work per superstep (`ratio >= 1`).
    ///
    /// # Panics
    ///
    /// Panics if `ratio < 1.0` or is not finite.
    #[must_use]
    pub fn with_imbalance(ratio: f64) -> ImbalancedApp {
        assert!(
            ratio.is_finite() && ratio >= 1.0,
            "imbalance ratio must be >= 1"
        );
        let light = 1200u64;
        ImbalancedApp {
            heavy_iterations: (light as f64 * ratio) as u64,
            light_iterations: light,
        }
    }

    /// The heavy rank's program (one repetition = one superstep of work).
    #[must_use]
    pub fn heavy_rank(&self) -> Program {
        rank_program("rank_heavy", self.heavy_iterations)
    }

    /// The light rank's program.
    #[must_use]
    pub fn light_rank(&self) -> Program {
        rank_program("rank_light", self.light_iterations)
    }

    /// Superstep time given each rank's average repetition time: the
    /// barrier waits for the slower rank.
    #[must_use]
    pub fn superstep_time(&self, heavy_time: f64, light_time: f64) -> f64 {
        heavy_time.max(light_time)
    }
}

impl Default for ImbalancedApp {
    /// A 3x imbalance. The priority mechanism's rate steps are coarse —
    /// each unit of difference roughly doubles the decode-rate ratio — so
    /// re-balancing pays off only when the work imbalance exceeds one
    /// step, as in the paper's FFT/LU pipeline (~7x). A 3x imbalance is
    /// the representative middle of that regime.
    fn default() -> Self {
        ImbalancedApp::with_imbalance(3.0)
    }
}

/// Per-rank compute kernel: a stencil-flavoured mix of independent
/// floating-point updates, integer index arithmetic and grid loads. The
/// high instruction-level parallelism makes the rank throughput-bound, so
/// decode-slot priorities genuinely shift time between the ranks (a
/// latency-bound kernel would be insensitive to them).
fn rank_program(name: &str, iterations: u64) -> Program {
    kernel(name, iterations, |b, _| {
        let grid = b.stream(StreamSpec::sequential(256 * 1024, 8));
        let mut w = BodyWriter::new(b);
        w.load(grid, DataKind::Float, Reg::new(30));
        for _ in 0..6 {
            w.fp();
        }
        w.int();
        w.int();
        w.store(grid, DataKind::Float, Reg::new(31));
        w.finish();
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_scales_heavy_rank() {
        let app = ImbalancedApp::with_imbalance(1.3);
        // (explicit ratio, not the default)
        let h = app.heavy_rank().instructions_per_repetition();
        let l = app.light_rank().instructions_per_repetition();
        let ratio = h as f64 / l as f64;
        assert!((ratio - 1.3).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn balanced_app_has_equal_ranks() {
        let app = ImbalancedApp::with_imbalance(1.0);
        assert_eq!(
            app.heavy_rank().instructions_per_repetition(),
            app.light_rank().instructions_per_repetition()
        );
    }

    #[test]
    fn superstep_is_bounded_by_slower_rank() {
        let app = ImbalancedApp::default();
        assert_eq!(app.superstep_time(1.3, 1.0), 1.3);
        assert_eq!(app.superstep_time(0.9, 1.1), 1.1);
    }

    #[test]
    #[should_panic(expected = "imbalance ratio")]
    fn sub_unit_ratio_panics() {
        let _ = ImbalancedApp::with_imbalance(0.5);
    }

    #[test]
    fn default_is_3x() {
        let app = ImbalancedApp::default();
        let ratio = app.heavy_iterations as f64 / app.light_iterations as f64;
        assert!((ratio - 3.0).abs() < 0.01);
    }
}
