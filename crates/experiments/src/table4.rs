//! Table 4 — execution time of the FFT→LU software pipeline under
//! priorities (Section 5.4.1).
//!
//! The paper reports, per priority pair, the FFT time, the LU time, and
//! the pipeline iteration time (the max of the two), plus the
//! single-thread-mode sequential execution (FFT then LU). The best case
//! is (6,4); (6,3) over-rotates, inverting the imbalance.

use crate::campaign::{Campaign, CampaignSpec, CellSpec};
use crate::report::{f2, f2_ci, pct, TextTable};
use crate::{CellCounts, Degradation, Experiments};
use p5_isa::{Priority, ThreadId};
use p5_workloads::fftlu;

/// One measured configuration.
#[derive(Debug, Clone, Copy)]
pub struct Table4Row {
    /// FFT thread priority.
    pub prio_fft: u8,
    /// LU thread priority.
    pub prio_lu: u8,
    /// Average FFT repetition time in cycles.
    pub fft_cycles: f64,
    /// Average LU repetition time in cycles.
    pub lu_cycles: f64,
    /// 95% confidence half-width of the FFT repetition time, in cycles,
    /// propagated from the sampled IPC estimate by the delta method
    /// (zero under the detailed plan, where the value is exact).
    pub fft_ci95: f64,
    /// 95% confidence half-width of the LU repetition time, in cycles.
    pub lu_ci95: f64,
}

impl Table4Row {
    /// Pipeline iteration time: the slower stage bounds the iteration.
    #[must_use]
    pub fn iteration_cycles(&self) -> f64 {
        fftlu::iteration_time(self.fft_cycles, self.lu_cycles)
    }
}

/// Measured Table 4.
#[derive(Debug, Clone)]
pub struct Table4Result {
    /// FFT single-thread repetition time.
    pub fft_st_cycles: f64,
    /// LU single-thread repetition time.
    pub lu_st_cycles: f64,
    /// 95% confidence half-width of the FFT single-thread repetition
    /// time, in cycles (zero under the detailed plan).
    pub fft_st_ci95: f64,
    /// 95% confidence half-width of the LU single-thread repetition
    /// time, in cycles.
    pub lu_st_ci95: f64,
    /// SMT rows in the paper's order: (4,4), (5,4), (6,4), (6,3).
    /// Rows whose measurement degraded beyond recovery are omitted.
    pub rows: Vec<Table4Row>,
    /// Annotations for measurements that degraded.
    pub degraded: Vec<Degradation>,
    /// Per-status cell tally of the underlying campaign.
    pub counts: CellCounts,
}

impl Table4Result {
    /// Sequential single-thread-mode iteration time (FFT then LU).
    #[must_use]
    pub fn st_iteration_cycles(&self) -> f64 {
        self.fft_st_cycles + self.lu_st_cycles
    }

    /// The row with the best (smallest) iteration time.
    ///
    /// # Panics
    ///
    /// Panics if no rows were measured.
    #[must_use]
    pub fn best(&self) -> &Table4Row {
        self.rows
            .iter()
            .min_by(|a, b| a.iteration_cycles().total_cmp(&b.iteration_cycles()))
            .expect("rows measured")
    }

    /// Improvement of the best row over the (4,4) default, as a fraction.
    ///
    /// # Panics
    ///
    /// Panics if the (4,4) row was not measured.
    #[must_use]
    pub fn improvement_over_default(&self) -> f64 {
        let default = self
            .rows
            .iter()
            .find(|r| r.prio_fft == 4 && r.prio_lu == 4)
            .expect("default row measured");
        1.0 - self.best().iteration_cycles() / default.iteration_cycles()
    }

    /// Improvement of the best row over sequential single-thread mode.
    #[must_use]
    pub fn improvement_over_st(&self) -> f64 {
        1.0 - self.best().iteration_cycles() / self.st_iteration_cycles()
    }

    /// Renders measured cycles next to the paper's seconds. Sampled
    /// measurements render as `value ±ci95`; detailed ones as the bare
    /// (exact) value, byte-identical to the pre-interval output.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "priorities".into(),
            "FFT cycles".into(),
            "LU cycles".into(),
            "iteration".into(),
            "paper (FFT s, LU s, iter s)".into(),
        ]);
        t.row(vec![
            "single-thread".into(),
            f2_ci(self.fft_st_cycles, self.fft_st_ci95),
            f2_ci(self.lu_st_cycles, self.lu_st_ci95),
            f2(self.st_iteration_cycles()),
            format!(
                "({}, {}, {})",
                fftlu::PAPER_FFT_ST_SECONDS,
                fftlu::PAPER_LU_ST_SECONDS,
                fftlu::PAPER_FFT_ST_SECONDS + fftlu::PAPER_LU_ST_SECONDS
            ),
        ]);
        for (row, paper) in self.rows.iter().zip(fftlu::PAPER_TABLE4.iter()) {
            let (pp, pl, pf, plu, pit) = *paper;
            t.row(vec![
                format!("({},{})", row.prio_fft, row.prio_lu),
                f2_ci(row.fft_cycles, row.fft_ci95),
                f2_ci(row.lu_cycles, row.lu_ci95),
                f2(row.iteration_cycles()),
                format!("({pp},{pl}): ({pf}, {plu}, {pit})"),
            ]);
        }
        let mut out = format!(
            "Table 4 — FFT/LU pipeline execution times\n{}best: ({},{}) — {} vs default, {} vs single-thread mode (paper: 9.3%, 10%)\n",
            t.render(),
            self.best().prio_fft,
            self.best().prio_lu,
            pct(self.improvement_over_default()),
            pct(self.improvement_over_st())
        );
        for note in &self.degraded {
            out.push_str(&format!("DEGRADED {note}\n"));
        }
        out
    }
}

/// Runs the single-thread and four SMT configurations. Rows whose
/// measurement degrades beyond recovery are dropped (annotated on the
/// result); the table survives as long as its baselines do.
///
/// # Errors
///
/// Returns [`crate::ExpError`] if either single-thread baseline failed —
/// every relative number in the table normalizes against them — or if
/// the (4,4) default row failed, since the improvement-over-default
/// comparison anchors the paper's claim.
pub fn run(ctx: &Experiments) -> Result<Table4Result, crate::ExpError> {
    // Cell ids: 0 = FFT ST, 1 = LU ST, then one pair cell per valid
    // paper row (invalid priority levels are annotated and skipped at
    // spec-build time).
    let mut cells = vec![
        CellSpec::single("FFT ST", fftlu::fft_program()),
        CellSpec::single("LU ST", fftlu::lu_program()),
    ];
    let mut invalid = Vec::new();
    let mut pair_ids = Vec::new();
    for &(pf, pl, ..) in fftlu::PAPER_TABLE4.iter() {
        let Some(priorities) = Priority::from_level(pf).zip(Priority::from_level(pl)) else {
            invalid.push(Degradation::new(
                format!("({pf},{pl})"),
                "invalid priority level",
            ));
            continue;
        };
        pair_ids.push((cells.len(), pf, pl));
        cells.push(CellSpec::pair(
            format!("({pf},{pl})"),
            fftlu::fft_program(),
            fftlu::lu_program(),
            priorities,
        ));
    }
    let campaign = Campaign::run(ctx, &CampaignSpec::for_ctx(ctx, cells));
    let mut degraded = campaign.degraded.clone();
    degraded.extend(invalid);

    let st_cycles = |id: usize, label: &str| -> Result<(f64, f64), crate::ExpError> {
        let m = campaign.measured(id);
        let cycles = m
            .avg_repetition_cycles(ThreadId::T0)
            .ok_or_else(|| crate::ExpError {
                artifact: "table4",
                message: format!(
                    "single-thread {label} baseline failed: {}",
                    m.error
                        .as_ref()
                        .map_or_else(|| "no data".to_string(), |e| e.to_string())
                ),
            })?;
        Ok((cycles, delta_ci95(m, ThreadId::T0, cycles)))
    };
    let (fft_st, fft_st_ci) = st_cycles(0, "FFT ST")?;
    let (lu_st, lu_st_ci) = st_cycles(1, "LU ST")?;

    let mut rows = Vec::new();
    for (id, pf, pl) in pair_ids {
        let m = campaign.measured(id);
        match m
            .avg_repetition_cycles(ThreadId::T0)
            .zip(m.avg_repetition_cycles(ThreadId::T1))
        {
            Some((fft_cycles, lu_cycles)) => rows.push(Table4Row {
                prio_fft: pf,
                prio_lu: pl,
                fft_cycles,
                lu_cycles,
                fft_ci95: delta_ci95(m, ThreadId::T0, fft_cycles),
                lu_ci95: delta_ci95(m, ThreadId::T1, lu_cycles),
            }),
            None => degraded.push(Degradation::new(
                format!("({pf},{pl})"),
                "row dropped, no data",
            )),
        }
    }

    if !rows.iter().any(|r| r.prio_fft == 4 && r.prio_lu == 4) {
        return Err(crate::ExpError {
            artifact: "table4",
            message: format!(
                "the (4,4) default row failed; nothing to compare against ({})",
                degraded
                    .last()
                    .map_or_else(String::new, Degradation::to_string)
            ),
        });
    }

    Ok(Table4Result {
        fft_st_cycles: fft_st,
        lu_st_cycles: lu_st,
        fft_st_ci95: fft_st_ci,
        lu_st_ci95: lu_st_ci,
        rows,
        degraded,
        counts: campaign.counts(),
    })
}

/// Propagates a sampled IPC interval onto a repetition-time value by the
/// delta method: instructions per repetition are fixed by the program,
/// so the relative half-width of the IPC estimate *is* the relative
/// half-width of the cycles-per-repetition it implies. Detailed
/// estimates carry `ci95 == 0` and propagate to exactly zero.
fn delta_ci95(m: &crate::Measured, thread: ThreadId, cycles: f64) -> f64 {
    m.ipc_estimate(thread)
        .filter(|e| e.value > 0.0)
        .map_or(0.0, |e| cycles * e.ci95 / e.value)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> Table4Result {
        let row = |prio_fft, prio_lu, fft_cycles, lu_cycles| Table4Row {
            prio_fft,
            prio_lu,
            fft_cycles,
            lu_cycles,
            fft_ci95: 0.0,
            lu_ci95: 0.0,
        };
        Table4Result {
            fft_st_cycles: 1860.0,
            lu_st_cycles: 260.0,
            fft_st_ci95: 0.0,
            lu_st_ci95: 0.0,
            rows: vec![
                row(4, 4, 2050.0, 420.0),
                row(5, 4, 2020.0, 480.0),
                row(6, 4, 1910.0, 640.0),
                row(6, 3, 1870.0, 2330.0),
            ],
            degraded: Vec::new(),
            counts: CellCounts::default(),
        }
    }

    #[test]
    fn matches_paper_arithmetic() {
        let r = synthetic();
        assert_eq!(r.best().prio_fft, 6);
        assert_eq!(r.best().prio_lu, 4);
        // Paper: "9.3% of improvement over the default priorities" and
        // ~10% over single-thread mode.
        assert!((r.improvement_over_default() - (1.0 - 1910.0 / 2050.0)).abs() < 1e-12);
        assert!((r.improvement_over_st() - (1.0 - 1910.0 / 2120.0)).abs() < 1e-12);
        assert!(r.improvement_over_default() > 0.06);
        assert!(r.improvement_over_st() > 0.09);
    }

    #[test]
    fn over_rotation_detected() {
        let r = synthetic();
        let last = r.rows.last().unwrap();
        assert!(last.iteration_cycles() > r.rows[0].iteration_cycles());
    }

    #[test]
    fn render_smoke() {
        let s = synthetic().render();
        assert!(s.contains("(6,4)"));
        assert!(s.contains("single-thread"));
        assert!(s.contains("paper"));
        // Detailed results carry zero half-widths and must render
        // without intervals — the exactness contract of the detailed
        // plan.
        assert!(!s.contains('±'));
    }

    #[test]
    fn render_shows_confidence_intervals_when_sampled() {
        let mut r = synthetic();
        r.fft_st_ci95 = 12.5;
        r.rows[0].lu_ci95 = 3.25;
        let s = r.render();
        assert!(s.contains("1860.00 ±12.50"));
        assert!(s.contains("420.00 ±3.25"));
        // Cells without a half-width stay exact.
        assert!(s.contains("260.00"));
        assert!(!s.contains("260.00 ±"));
    }
}
