//! Table 3 — IPC of the six presented micro-benchmarks in single-thread
//! mode and in SMT with priorities (4,4).
//!
//! For each row benchmark the paper reports its single-thread IPC, then
//! for each column co-runner the PThread IPC (`pt`) and the combined IPC
//! (`tt`) under the default (4,4) priorities.

use crate::campaign::{Campaign, CampaignResult, CampaignSpec, CellSpec};
use crate::report::{f3_ci, TextTable};
use crate::{CellCounts, Degradation, Experiments};
use p5_microbench::MicroBenchmark;

/// The paper's Table 3: per row benchmark, the ST IPC and the `(pt, tt)`
/// pair for each of the six column co-runners (column order =
/// [`MicroBenchmark::PRESENTED`]).
pub const PAPER_TABLE3: [(f64, [(f64, f64); 6]); 6] = [
    // ldint_l1
    (
        2.29,
        [
            (1.15, 2.31),
            (0.60, 0.87),
            (0.79, 0.81),
            (0.73, 1.57),
            (0.77, 1.18),
            (0.42, 0.91),
        ],
    ),
    // ldint_l2
    (
        0.27,
        [
            (0.27, 0.87),
            (0.11, 0.22),
            (0.17, 0.19),
            (0.27, 0.87),
            (0.25, 0.65),
            (0.27, 0.72),
        ],
    ),
    // ldint_mem
    (
        0.02,
        [
            (0.02, 0.81),
            (0.02, 0.19),
            (0.01, 0.02),
            (0.02, 0.90),
            (0.02, 0.39),
            (0.02, 0.48),
        ],
    ),
    // cpu_int
    (
        1.14,
        [
            (0.84, 1.57),
            (0.59, 0.87),
            (0.88, 0.90),
            (0.61, 1.22),
            (0.65, 1.06),
            (0.43, 0.86),
        ],
    ),
    // cpu_fp
    (
        0.41,
        [
            (0.41, 1.18),
            (0.39, 0.65),
            (0.37, 0.39),
            (0.40, 1.06),
            (0.36, 0.72),
            (0.37, 0.85),
        ],
    ),
    // lng_chain_cpuint
    (
        0.51,
        [
            (0.49, 0.91),
            (0.45, 0.73),
            (0.47, 0.48),
            (0.43, 0.86),
            (0.48, 0.85),
            (0.42, 0.85),
        ],
    ),
];

/// Measured Table 3.
#[derive(Debug, Clone, Default)]
pub struct Table3Result {
    /// Single-thread IPC per presented benchmark.
    pub st: [f64; 6],
    /// PThread IPC for each (row, column) pairing under (4,4).
    pub pt: [[f64; 6]; 6],
    /// Combined IPC for each pairing under (4,4).
    pub tt: [[f64; 6]; 6],
    /// 95% confidence half-width of each ST IPC (zero under the
    /// detailed plan, where every value is exact).
    pub st_ci95: [f64; 6],
    /// 95% confidence half-width of each PThread IPC.
    pub pt_ci95: [[f64; 6]; 6],
    /// 95% confidence half-width of each combined IPC.
    pub tt_ci95: [[f64; 6]; 6],
    /// Annotations for measurements that degraded (their cells are kept
    /// at the best unconverged value, or zero).
    pub degraded: Vec<Degradation>,
    /// Per-status cell tally of the underlying campaign.
    pub counts: CellCounts,
}

impl Table3Result {
    /// Renders measured values with the paper's next to them. Sampled
    /// measurements carry a nonzero 95% confidence half-width and render
    /// as `value ±ci95`; detailed measurements are exact and render as
    /// the bare value, byte-identical to the pre-interval output.
    #[must_use]
    pub fn render(&self) -> String {
        let benches = MicroBenchmark::PRESENTED;
        let mut header = vec!["benchmark".to_string(), "ST (paper)".to_string()];
        for b in benches {
            header.push(format!("{} pt/tt", b.name()));
        }
        let mut t = TextTable::new(header);
        for (i, b) in benches.iter().enumerate() {
            let mut row = vec![
                b.name().to_string(),
                format!(
                    "{} ({})",
                    f3_ci(self.st[i], self.st_ci95[i]),
                    PAPER_TABLE3[i].0
                ),
            ];
            for j in 0..6 {
                let (ppt, ptt) = PAPER_TABLE3[i].1[j];
                row.push(format!(
                    "{}/{} ({ppt}/{ptt})",
                    f3_ci(self.pt[i][j], self.pt_ci95[i][j]),
                    f3_ci(self.tt[i][j], self.tt_ci95[i][j])
                ));
            }
            t.row(row);
        }
        let mut out = format!(
            "Table 3 — ST IPC and SMT(4,4) pairwise IPC, measured (paper)\n{}",
            t.render()
        );
        for note in &self.degraded {
            out.push_str(&format!("DEGRADED {note}\n"));
        }
        out
    }

    /// Structural checks the paper's analysis highlights, evaluated on the
    /// measured matrix (used by tests and the claims experiment):
    ///
    /// 1. ST IPC ordering: `ldint_l1 > cpu_int > lng_chain ≈ cpu_fp >
    ///    ldint_l2 > ldint_mem`.
    /// 2. Same-benchmark SMT pairing roughly halves the high-IPC threads.
    /// 3. Memory-bound threads barely change IPC across partners.
    #[must_use]
    pub fn shape_holds(&self) -> bool {
        let idx = |b: MicroBenchmark| {
            MicroBenchmark::PRESENTED
                .iter()
                .position(|&x| x == b)
                .expect("presented benchmark")
        };
        let l1 = idx(MicroBenchmark::LdintL1);
        let l2 = idx(MicroBenchmark::LdintL2);
        let mem = idx(MicroBenchmark::LdintMem);
        let ci = idx(MicroBenchmark::CpuInt);
        let _cf = idx(MicroBenchmark::CpuFp);
        let lng = idx(MicroBenchmark::LngChainCpuint);

        let ordering = self.st[l1] > self.st[ci]
            && self.st[ci] > self.st[lng]
            && self.st[lng] > self.st[l2]
            && self.st[l2] > self.st[mem];

        let halving = self.pt[l1][l1] < 0.75 * self.st[l1] && self.pt[ci][ci] < 0.75 * self.st[ci];

        let mem_insensitive = (0..6).all(|j| {
            if j == mem {
                return true;
            }
            (self.pt[mem][j] - self.st[mem]).abs() < 0.5 * self.st[mem]
        });

        ordering && halving && mem_insensitive
    }
}

/// The artifact's flat cell list, in aggregation order: ids `0..6` are
/// the ST baselines, then `6 + i*6 + j` the (row `i`, column `j`) pairs
/// under (4,4). Shared by [`run`] and the `p5-serve` protocol's
/// `table3` grid shorthand, so a server-side expansion measures exactly
/// the cells an offline run would.
#[must_use]
pub fn cells() -> Vec<CellSpec> {
    let benches = MicroBenchmark::PRESENTED;
    let mut cells = Vec::with_capacity(benches.len() * (benches.len() + 1));
    for b in &benches {
        cells.push(CellSpec::single(format!("ST {}", b.name()), b.program()));
    }
    for a in &benches {
        for b in &benches {
            cells.push(CellSpec::pair(
                format!("({},{})", a.name(), b.name()),
                a.program(),
                b.program(),
                crate::priority_pair(0),
            ));
        }
    }
    cells
}

/// Runs the 6 single-thread and 36 pairwise measurements. Degraded cells
/// keep their best unconverged value and are annotated on the result.
///
/// # Errors
///
/// Returns [`crate::ExpError`] only if every measurement degraded.
pub fn run(ctx: &Experiments) -> Result<Table3Result, crate::ExpError> {
    let campaign = Campaign::run(ctx, &CampaignSpec::for_ctx(ctx, cells()));
    from_campaign(&campaign)
}

/// Aggregates a campaign over [`cells`] into the Table 3 matrix — the
/// projection step of [`run`], exposed separately so outcomes fetched
/// through `p5-serve` land on the identical aggregation (and therefore
/// identical exported bytes) as an offline run.
///
/// # Errors
///
/// Returns [`crate::ExpError`] only if every measurement degraded.
pub fn from_campaign(campaign: &CampaignResult) -> Result<Table3Result, crate::ExpError> {
    let benches = MicroBenchmark::PRESENTED;
    if campaign.all_degraded() {
        return Err(crate::ExpError {
            artifact: "table3",
            message: format!(
                "all 42 measurements degraded; first: {}",
                campaign
                    .degraded
                    .first()
                    .map_or_else(String::new, Degradation::to_string)
            ),
        });
    }
    let mut result = Table3Result {
        degraded: campaign.degraded.clone(),
        counts: campaign.counts(),
        ..Table3Result::default()
    };
    for i in 0..benches.len() {
        let m = campaign.measured(i);
        result.st[i] = m.ipc(p5_isa::ThreadId::T0).unwrap_or(0.0);
        result.st_ci95[i] = m.ipc_estimate(p5_isa::ThreadId::T0).map_or(0.0, |e| e.ci95);
    }
    for i in 0..benches.len() {
        for j in 0..benches.len() {
            let m = campaign.measured(benches.len() + i * benches.len() + j);
            result.pt[i][j] = m.ipc(p5_isa::ThreadId::T0).unwrap_or(0.0);
            result.tt[i][j] = m.total_ipc().unwrap_or(0.0);
            result.pt_ci95[i][j] = m.ipc_estimate(p5_isa::ThreadId::T0).map_or(0.0, |e| e.ci95);
            result.tt_ci95[i][j] = m.total_ipc_ci95().unwrap_or(0.0);
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_are_internally_consistent() {
        // tt >= pt for every cell (the co-runner contributes nonnegative
        // IPC).
        for (st, row) in PAPER_TABLE3 {
            assert!(st > 0.0);
            for (pt, tt) in row {
                assert!(tt >= pt, "tt {tt} < pt {pt}");
            }
        }
    }

    #[test]
    fn render_smoke() {
        let r = Table3Result {
            st: [2.3, 0.3, 0.02, 1.2, 0.4, 0.45],
            pt: [[0.5; 6]; 6],
            tt: [[1.0; 6]; 6],
            degraded: vec![Degradation::new("(cpu_int,cpu_int)", "budget")],
            ..Table3Result::default()
        };
        let s = r.render();
        assert!(s.contains("ldint_l1"));
        assert!(s.contains("(2.29)"));
        assert!(s.contains("DEGRADED (cpu_int,cpu_int)"));
        // Detailed results carry zero half-widths and must render without
        // intervals — the exactness contract of the detailed plan.
        assert!(!s.contains('±'));
    }

    #[test]
    fn render_shows_confidence_intervals_when_sampled() {
        let mut r = Table3Result {
            st: [2.3, 0.3, 0.02, 1.2, 0.4, 0.45],
            pt: [[0.5; 6]; 6],
            tt: [[1.0; 6]; 6],
            ..Table3Result::default()
        };
        r.st_ci95[0] = 0.0123;
        r.pt_ci95[1][2] = 0.004;
        r.tt_ci95[1][2] = 0.0151;
        let s = r.render();
        assert!(s.contains("2.300 ±0.012"));
        assert!(s.contains("0.500 ±0.004/1.000 ±0.015"));
        // Cells without a half-width stay exact.
        assert!(s.contains("0.500/1.000"));
    }

    #[test]
    fn shape_holds_on_paper_values() {
        // The paper's own numbers must satisfy our shape checks.
        let mut pt = [[0.0; 6]; 6];
        let mut tt = [[0.0; 6]; 6];
        let mut st = [0.0; 6];
        for i in 0..6 {
            st[i] = PAPER_TABLE3[i].0;
            for j in 0..6 {
                pt[i][j] = PAPER_TABLE3[i].1[j].0;
                tt[i][j] = PAPER_TABLE3[i].1[j].1;
            }
        }
        let r = Table3Result {
            st,
            pt,
            tt,
            ..Table3Result::default()
        };
        assert!(r.shape_holds());
    }
}
