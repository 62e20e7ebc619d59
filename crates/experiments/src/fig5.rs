//! Figure 5 — total IPC of the SPEC pairs with increasing priorities
//! (the throughput case studies of Section 5.3.1).
//!
//! Pair 1: h264ref (PThread) + mcf. Paper: baseline IPCs 0.920/0.144
//! (total 1.064); at +2 h264ref gains 10.4% while mcf loses 13.2% for a
//! 7.2% total gain; at the peak the total improves 23.7% (h264ref +38%,
//! mcf −32%).
//!
//! Pair 2: applu (PThread) + equake. Paper: baseline 0.500/0.140 (total
//! 0.630); peak at +5 with a 14% improvement.

use crate::campaign::{Campaign, CampaignResult, CampaignSpec, CellSpec};
use crate::report::{f3, pct, TextTable};
use crate::{priority_pair, CellCounts, Degradation, Experiments};
use p5_isa::ThreadId;
use p5_workloads::SpecProxy;

/// Priority differences measured (0 = the (4,4) baseline).
pub const DIFFS: [i32; 6] = [0, 1, 2, 3, 4, 5];

/// One case-study curve.
#[derive(Debug, Clone)]
pub struct CaseStudy {
    /// The prioritized (PThread) benchmark.
    pub primary: SpecProxy,
    /// The co-scheduled benchmark.
    pub secondary: SpecProxy,
    /// Per difference: (primary IPC, secondary IPC, total IPC). Points
    /// whose measurement degraded beyond recovery are omitted.
    pub points: Vec<(i32, f64, f64, f64)>,
    /// Annotations for measurements that degraded.
    pub degraded: Vec<Degradation>,
}

impl CaseStudy {
    /// Baseline total IPC (difference 0).
    ///
    /// # Panics
    ///
    /// Panics if difference 0 was not measured.
    #[must_use]
    pub fn baseline_total(&self) -> f64 {
        self.points
            .iter()
            .find(|(d, ..)| *d == 0)
            .map(|&(_, _, _, t)| t)
            .expect("baseline point present")
    }

    /// `(difference, relative improvement)` of the peak total IPC.
    #[must_use]
    pub fn peak(&self) -> (i32, f64) {
        let base = self.baseline_total();
        self.points
            .iter()
            .map(|&(d, _, _, t)| (d, t / base - 1.0))
            .fold((0, 0.0), |acc, x| if x.1 > acc.1 { x } else { acc })
    }

    /// Renders the curve.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "diff".into(),
            format!("{} IPC", self.primary.name()),
            format!("{} IPC", self.secondary.name()),
            "total IPC".into(),
            "vs (4,4)".into(),
        ]);
        let base = self.baseline_total();
        for &(d, p, s, total) in &self.points {
            t.row(vec![
                format!("{d:+}"),
                f3(p),
                f3(s),
                f3(total),
                pct(total / base - 1.0),
            ]);
        }
        let (peak_d, peak_gain) = self.peak();
        let mut out = format!(
            "{} + {}\n{}peak: {} at diff {peak_d:+}\n",
            self.primary.name(),
            self.secondary.name(),
            t.render(),
            pct(peak_gain)
        );
        for note in &self.degraded {
            out.push_str(&format!("DEGRADED {note}\n"));
        }
        out
    }
}

/// Measured Figure 5: both case studies.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// (a) h264ref + mcf.
    pub h264_mcf: CaseStudy,
    /// (b) applu + equake.
    pub applu_equake: CaseStudy,
    /// Per-status cell tally of the underlying 12-cell campaign.
    pub counts: CellCounts,
}

impl Fig5Result {
    /// Renders both sub-figures.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "Figure 5 — SPEC pair total IPC with increasing priorities\n(a) {}\n(b) {}",
            self.h264_mcf.render(),
            self.applu_equake.render()
        )
    }
}

/// Builds the six cells of one case-study curve (one per difference).
fn study_cells(primary: SpecProxy, secondary: SpecProxy) -> Vec<CellSpec> {
    DIFFS
        .iter()
        .map(|&d| {
            CellSpec::pair(
                format!("{}+{} at diff {d:+}", primary.name(), secondary.name()),
                primary.program(),
                secondary.program(),
                priority_pair(d),
            )
        })
        .collect()
}

/// Aggregates one curve from its six consecutive cells starting at
/// `base` in the campaign.
fn aggregate_study(
    campaign: &CampaignResult,
    base: usize,
    primary: SpecProxy,
    secondary: SpecProxy,
) -> Result<CaseStudy, crate::ExpError> {
    let mut points = Vec::new();
    let mut degraded = Vec::new();
    for (k, &d) in DIFFS.iter().enumerate() {
        let outcome = &campaign.cells[base + k];
        if let Some(note) = outcome.measured.degradation(&outcome.label) {
            degraded.push(note);
        }
        if let Some((p, s)) = outcome
            .measured
            .ipc(ThreadId::T0)
            .zip(outcome.measured.ipc(ThreadId::T1))
        {
            points.push((d, p, s, p + s));
        }
    }
    // The whole curve is relative to the (4,4) point; without it there is
    // nothing to normalize against.
    if !points.iter().any(|(d, ..)| *d == 0) {
        return Err(crate::ExpError {
            artifact: "fig5",
            message: format!(
                "{}+{}: the (4,4) baseline point failed ({})",
                primary.name(),
                secondary.name(),
                degraded
                    .first()
                    .map_or_else(String::new, Degradation::to_string)
            ),
        });
    }
    Ok(CaseStudy {
        primary,
        secondary,
        points,
        degraded,
    })
}

/// Runs both case studies as one 12-cell campaign. Degraded non-baseline
/// points are dropped from the curves and annotated.
///
/// # Errors
///
/// Returns [`crate::ExpError`] if either case study lost its (4,4)
/// baseline point.
pub fn run(ctx: &Experiments) -> Result<Fig5Result, crate::ExpError> {
    let mut cells = study_cells(SpecProxy::H264ref, SpecProxy::Mcf);
    cells.extend(study_cells(SpecProxy::Applu, SpecProxy::Equake));
    let campaign = Campaign::run(ctx, &CampaignSpec::for_ctx(ctx, cells));
    Ok(Fig5Result {
        h264_mcf: aggregate_study(&campaign, 0, SpecProxy::H264ref, SpecProxy::Mcf)?,
        applu_equake: aggregate_study(&campaign, DIFFS.len(), SpecProxy::Applu, SpecProxy::Equake)?,
        counts: campaign.counts(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> CaseStudy {
        CaseStudy {
            primary: SpecProxy::H264ref,
            secondary: SpecProxy::Mcf,
            points: vec![
                (0, 0.9, 0.14, 1.04),
                (1, 0.95, 0.13, 1.08),
                (2, 1.0, 0.12, 1.12),
                (3, 1.2, 0.09, 1.29),
                (4, 1.25, 0.05, 1.30),
                (5, 1.22, 0.02, 1.24),
            ],
            degraded: Vec::new(),
        }
    }

    #[test]
    fn peak_detection() {
        let c = synthetic();
        assert!((c.baseline_total() - 1.04).abs() < 1e-12);
        let (d, gain) = c.peak();
        assert_eq!(d, 4);
        assert!((gain - (1.30 / 1.04 - 1.0)).abs() < 1e-12);
    }

    #[test]
    fn render_contains_names_and_peak() {
        let s = synthetic().render();
        assert!(s.contains("h264ref"));
        assert!(s.contains("mcf"));
        assert!(s.contains("peak:"));
    }
}
