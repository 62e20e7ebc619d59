//! Figure 6 — transparent execution: running a background thread at
//! priority 1 under a foreground thread (Section 5.5).
//!
//! Sub-figures:
//!
//! * (a) foreground at priority 6, background at 1: foreground execution
//!   time relative to its single-thread time, for every (fg, bg) pair;
//! * (b) the same with the foreground at priority 5;
//! * (c) worst-case effect of the background thread as its priority rises
//!   from 1 toward the foreground's (foreground priority 6..2 vs
//!   background 1 in the paper's framing: the *difference* shrinks);
//! * (d) the average IPC the background thread itself achieves.
//!
//! Paper findings: high-latency (memory-bound) threads make the best
//! foregrounds and the worst backgrounds; a background `ldint_mem` costs
//! most foregrounds the most; low-IPC foregrounds are nearly unaffected
//! (the background is "transparent").

use crate::campaign::{Campaign, CampaignResult, CampaignSpec, CellSpec};
use crate::report::{f3, ratio, TextTable};
use crate::{CellCounts, Degradation, Experiments};
use p5_isa::{Priority, ThreadId};
use p5_microbench::MicroBenchmark;

/// Foreground priorities for sub-figure (c), paired with background 1.
pub const WORST_CASE_FG_PRIOS: [u8; 5] = [6, 5, 4, 3, 2];

/// Measured Figure 6.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Single-thread IPC of each presented benchmark.
    pub st_ipc: [f64; 6],
    /// `(fg relative time, bg IPC)` at (6,1) for `[fg][bg]`.
    pub fg6: [[(f64, f64); 6]; 6],
    /// `(fg relative time, bg IPC)` at (5,1) for `[fg][bg]`.
    pub fg5: [[(f64, f64); 6]; 6],
    /// Sub-figure (c): for each listed foreground, its relative time with
    /// a memory-bound background as the foreground priority drops
    /// 6,5,4,3,2 (background fixed at 1).
    pub worst_case: Vec<(MicroBenchmark, MicroBenchmark, [f64; 5])>,
    /// Annotations for measurements that degraded (their cells are kept
    /// at the best unconverged value, or zero).
    pub degraded: Vec<Degradation>,
    /// Per-status cell tally of the underlying campaign.
    pub counts: CellCounts,
}

impl Fig6Result {
    fn idx(bench: MicroBenchmark) -> usize {
        MicroBenchmark::PRESENTED
            .iter()
            .position(|&b| b == bench)
            .expect("presented benchmark")
    }

    /// Foreground relative execution time at (6,1).
    #[must_use]
    pub fn fg_time_61(&self, fg: MicroBenchmark, bg: MicroBenchmark) -> f64 {
        self.fg6[Self::idx(fg)][Self::idx(bg)].0
    }

    /// Average background IPC across foregrounds at (6,1) for one
    /// background benchmark.
    #[must_use]
    pub fn avg_bg_ipc_61(&self, bg: MicroBenchmark) -> f64 {
        let j = Self::idx(bg);
        let sum: f64 = (0..6).map(|i| self.fg6[i][j].1).sum();
        sum / 6.0
    }

    /// Worst foreground slowdown any background causes at (6,1) on `fg`.
    #[must_use]
    pub fn worst_fg_time_61(&self, fg: MicroBenchmark) -> f64 {
        let i = Self::idx(fg);
        self.fg6[i].iter().map(|&(t, _)| t).fold(0.0, f64::max)
    }

    /// Renders all four sub-figures.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out =
            String::from("Figure 6 — transparent execution (background thread at priority 1)\n");
        for (title, grid) in [
            ("(a) foreground priority 6", &self.fg6),
            ("(b) foreground priority 5", &self.fg5),
        ] {
            out.push_str(title);
            out.push('\n');
            let mut header = vec!["fg \\ bg (rel. time)".to_string()];
            header.extend(
                MicroBenchmark::PRESENTED
                    .iter()
                    .map(|b| b.name().to_string()),
            );
            let mut t = TextTable::new(header);
            for (i, fg) in MicroBenchmark::PRESENTED.iter().enumerate() {
                let mut row = vec![fg.name().to_string()];
                row.extend((0..6).map(|j| ratio(grid[i][j].0)));
                t.row(row);
            }
            out.push_str(&t.render());
            out.push('\n');
        }

        out.push_str("(c) worst-case background effect as the foreground priority drops\n");
        let mut header = vec!["foreground (bg)".to_string()];
        header.extend(WORST_CASE_FG_PRIOS.iter().map(|p| format!("({p},1)")));
        let mut t = TextTable::new(header);
        for (fg, bg, times) in &self.worst_case {
            let mut row = vec![format!("{} ({})", fg.name(), bg.name())];
            row.extend(times.iter().map(|&x| ratio(x)));
            t.row(row);
        }
        out.push_str(&t.render());
        out.push('\n');

        out.push_str("(d) average background-thread IPC at (6,1)\n");
        let mut t = TextTable::new(vec!["background".into(), "avg IPC".into()]);
        for b in MicroBenchmark::PRESENTED {
            t.row(vec![b.name().into(), f3(self.avg_bg_ipc_61(b))]);
        }
        out.push_str(&t.render());
        for note in &self.degraded {
            out.push_str(&format!("DEGRADED {note}\n"));
        }
        out
    }
}

/// Sub-figure (c) series: the paper uses `ldint_mem` as the worst
/// background for the first three foregrounds, and a non-memory
/// background for the "ldint_mem 2" series.
const WORST_CASES: [(MicroBenchmark, MicroBenchmark); 4] = [
    (MicroBenchmark::LdintL2, MicroBenchmark::LdintMem),
    (MicroBenchmark::CpuFp, MicroBenchmark::LdintMem),
    (MicroBenchmark::LngChainCpuint, MicroBenchmark::LdintMem),
    (MicroBenchmark::LdintMem, MicroBenchmark::CpuInt),
];

/// Builds the 36 grid cells for one foreground priority (background
/// fixed at 1).
fn grid_cells(fg_prio: Priority) -> Vec<CellSpec> {
    let mut cells = Vec::with_capacity(36);
    for fg in &MicroBenchmark::PRESENTED {
        for bg in &MicroBenchmark::PRESENTED {
            cells.push(CellSpec::pair(
                format!(
                    "({},{}) fg {} bg {}",
                    fg_prio.level(),
                    Priority::VeryLow.level(),
                    fg.name(),
                    bg.name()
                ),
                fg.program(),
                bg.program(),
                (fg_prio, Priority::VeryLow),
            ));
        }
    }
    cells
}

/// Aggregates one 6×6 grid from 36 consecutive cells starting at `base`.
fn aggregate_grid(
    campaign: &CampaignResult,
    base: usize,
    st_ipc: &[f64; 6],
) -> [[(f64, f64); 6]; 6] {
    let mut grid = [[(0.0, 0.0); 6]; 6];
    for (i, row) in grid.iter_mut().enumerate() {
        for (j, cell) in row.iter_mut().enumerate() {
            let m = campaign.measured(base + i * 6 + j);
            let fg_ipc = m.ipc(ThreadId::T0).unwrap_or(0.0);
            let bg_ipc = m.ipc(ThreadId::T1).unwrap_or(0.0);
            *cell = (st_ipc[i] / fg_ipc.max(1e-12), bg_ipc);
        }
    }
    grid
}

/// Runs all Figure 6 measurements as one 98-cell campaign (6 ST
/// baselines + two 36-cell grids + 20 worst-case points). Degraded cells
/// keep their best unconverged value and are annotated on the result.
///
/// # Errors
///
/// Returns [`crate::ExpError`] if a single-thread baseline failed —
/// every relative-time cell normalizes against them.
pub fn run(ctx: &Experiments) -> Result<Fig6Result, crate::ExpError> {
    let presented = MicroBenchmark::PRESENTED;
    let mut cells: Vec<CellSpec> = presented
        .iter()
        .map(|b| CellSpec::single(format!("ST {}", b.name()), b.program()))
        .collect();
    cells.extend(grid_cells(Priority::High));
    cells.extend(grid_cells(Priority::MediumHigh));
    for &(fg, bg) in &WORST_CASES {
        for &p in &WORST_CASE_FG_PRIOS {
            let prio = Priority::from_level(p).expect("levels 2..=6 are valid");
            cells.push(CellSpec::pair(
                format!("({p},1) fg {} bg {}", fg.name(), bg.name()),
                fg.program(),
                bg.program(),
                (prio, Priority::VeryLow),
            ));
        }
    }
    let campaign = Campaign::run(ctx, &CampaignSpec::for_ctx(ctx, cells));

    let mut st_ipc = [0.0; 6];
    for (i, b) in presented.iter().enumerate() {
        st_ipc[i] = campaign
            .measured(i)
            .ipc(ThreadId::T0)
            .ok_or_else(|| crate::ExpError {
                artifact: "fig6",
                message: format!("single-thread {} baseline failed", b.name()),
            })?;
    }

    let fg6 = aggregate_grid(&campaign, 6, &st_ipc);
    let fg5 = aggregate_grid(&campaign, 6 + 36, &st_ipc);

    let worst_base = 6 + 2 * 36;
    let series = WORST_CASE_FG_PRIOS.len();
    let worst_case = WORST_CASES
        .iter()
        .enumerate()
        .map(|(c, &(fg, bg))| {
            let i = Fig6Result::idx(fg);
            let mut times = [0.0; 5];
            for (k, slot) in times.iter_mut().enumerate() {
                let m = campaign.measured(worst_base + c * series + k);
                let fg_ipc = m.ipc(ThreadId::T0).unwrap_or(0.0);
                *slot = st_ipc[i] / fg_ipc.max(1e-12);
            }
            (fg, bg, times)
        })
        .collect();

    Ok(Fig6Result {
        st_ipc,
        fg6,
        fg5,
        worst_case,
        counts: campaign.counts(),
        degraded: campaign.degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synthetic() -> Fig6Result {
        let mut fg6 = [[(1.05, 0.2); 6]; 6];
        fg6[0][2] = (1.4, 0.01); // ldint_l1 hurt by ldint_mem background
        Fig6Result {
            st_ipc: [2.3, 0.3, 0.014, 1.2, 0.42, 0.45],
            fg6,
            fg5: [[(1.1, 0.25); 6]; 6],
            worst_case: vec![(
                MicroBenchmark::CpuFp,
                MicroBenchmark::LdintMem,
                [1.02, 1.04, 1.1, 1.3, 1.6],
            )],
            degraded: Vec::new(),
            counts: CellCounts::default(),
        }
    }

    #[test]
    fn lookups() {
        let r = synthetic();
        assert!(
            (r.fg_time_61(MicroBenchmark::LdintL1, MicroBenchmark::LdintMem) - 1.4).abs() < 1e-12
        );
        assert!((r.worst_fg_time_61(MicroBenchmark::LdintL1) - 1.4).abs() < 1e-12);
        let avg = r.avg_bg_ipc_61(MicroBenchmark::LdintMem);
        assert!((avg - (0.2 * 5.0 + 0.01) / 6.0).abs() < 1e-12);
    }

    #[test]
    fn render_smoke() {
        let s = synthetic().render();
        assert!(s.contains("(a) foreground priority 6"));
        assert!(s.contains("(c) worst-case"));
        assert!(s.contains("(d) average background-thread IPC"));
    }
}
