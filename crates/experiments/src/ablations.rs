//! Design-choice ablations (DESIGN.md §7): the core settings the
//! priority results rest on, each changed alone and measured on the
//! observable it protects.
//!
//! | setting | values | observable |
//! |---------|--------|------------|
//! | resource balancer (paper Section 3.1) | on, off | `cpu_int` IPC beside `ldint_mem` at (4,4) |
//! | deep-miss GCT cap | 4 | the same |
//! | decode slots | strict, work-conserving | total IPC of a `cpu_int` pair at (6,4) |
//! | GCT entries | 10, 20, 40 | `cpu_int` IPC beside `ldint_mem` at (4,4) |
//! | LMQ entries | 2, 8, 32 | single-thread `ldint_l1` IPC |
//! | prefetch depth | 0, 2, 4 | single-thread FFT IPC |
//!
//! Each row is a one-cell campaign under the context's core with that
//! one setting changed. It therefore inherits the run's plan, seed,
//! journal and cancellation, and keys, journals and resumes like every
//! other cell. Rows run across `ctx.jobs` workers.

use crate::campaign::{parallel_map, Campaign, CampaignSpec, CellSpec};
use crate::report::{f3, TextTable};
use crate::{CellCounts, Degradation, Experiments, Measured};
use p5_core::{BalancerConfig, CoreConfig};
use p5_isa::{Priority, ThreadId};
use p5_microbench::MicroBenchmark;
use std::fmt;

/// What a row measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Observable {
    /// `cpu_int`'s IPC beside a memory-bound `ldint_mem` at (4,4): the
    /// victim the resource balancer protects.
    VictimIpc,
    /// Total IPC of two `cpu_int` threads at (6,4).
    PairThroughput,
    /// Single-thread `ldint_l1` IPC.
    LdintL1Ipc,
    /// Single-thread FFT IPC.
    FftIpc,
}

impl Observable {
    /// The cell that measures this observable.
    fn cell(self, label: String) -> CellSpec {
        let cpu_int = || MicroBenchmark::CpuInt.program();
        match self {
            Observable::VictimIpc => CellSpec::pair(
                label,
                cpu_int(),
                MicroBenchmark::LdintMem.program(),
                (Priority::Medium, Priority::Medium),
            ),
            Observable::PairThroughput => CellSpec::pair(
                label,
                cpu_int(),
                cpu_int(),
                (Priority::High, Priority::Medium),
            ),
            Observable::LdintL1Ipc => CellSpec::single(label, MicroBenchmark::LdintL1.program()),
            Observable::FftIpc => CellSpec::single(label, p5_workloads::fftlu::fft_program()),
        }
    }

    /// The observable's value in a measured cell, if it has one.
    fn value(self, measured: &Measured) -> Option<f64> {
        match self {
            Observable::PairThroughput => measured.total_ipc(),
            _ => measured.ipc(ThreadId::T0),
        }
    }

    /// Column text for the report.
    fn describe(self) -> &'static str {
        match self {
            Observable::VictimIpc => "cpu_int IPC beside ldint_mem (4,4)",
            Observable::PairThroughput => "total IPC of cpu_int pair (6,4)",
            Observable::LdintL1Ipc => "ldint_l1 ST IPC",
            Observable::FftIpc => "fft ST IPC",
        }
    }
}

/// One core setting, changed from the context's core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setting {
    /// The dynamic resource balancer on or off.
    Balancer(bool),
    /// The balancer's GCT cap for a thread with a beyond-L2 miss.
    DeepMissGctCap(usize),
    /// Whether a sibling may steal the designated thread's unused decode
    /// slot (work-conserving) or not (strict).
    StealDecodeSlots(bool),
    /// GCT entries, with both balancer GCT caps two below.
    GctEntries(usize),
    /// LMQ entries, with the balancer's per-thread miss cap equal.
    LmqEntries(usize),
    /// Next-line prefetch depth.
    PrefetchDepth(u64),
}

impl Setting {
    /// Applies the setting to `core`.
    fn apply(self, core: &mut CoreConfig) {
        match self {
            Setting::Balancer(true) => core.balancer.enabled = true,
            Setting::Balancer(false) => core.balancer = BalancerConfig::disabled(),
            Setting::DeepMissGctCap(cap) => core.balancer.gct_cap_deep_miss = cap,
            Setting::StealDecodeSlots(steal) => core.steal_idle_decode_slots = steal,
            Setting::GctEntries(entries) => {
                core.gct_entries = entries;
                core.balancer.gct_cap_per_thread = entries - 2;
                core.balancer.gct_cap_deep_miss = entries - 2;
            }
            Setting::LmqEntries(entries) => {
                core.lmq_entries = entries;
                core.balancer.miss_cap_per_thread = entries;
            }
            Setting::PrefetchDepth(depth) => core.mem.prefetch_depth = depth,
        }
    }

    /// What the setting is measured on.
    fn observable(self) -> Observable {
        match self {
            Setting::Balancer(_) | Setting::DeepMissGctCap(_) | Setting::GctEntries(_) => {
                Observable::VictimIpc
            }
            Setting::StealDecodeSlots(_) => Observable::PairThroughput,
            Setting::LmqEntries(_) => Observable::LdintL1Ipc,
            Setting::PrefetchDepth(_) => Observable::FftIpc,
        }
    }
}

impl fmt::Display for Setting {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Setting::Balancer(on) => write!(f, "balancer {}", if on { "on" } else { "off" }),
            Setting::DeepMissGctCap(cap) => write!(f, "deep-miss GCT cap {cap}"),
            Setting::StealDecodeSlots(steal) => write!(
                f,
                "decode slots {}",
                if steal { "work-conserving" } else { "strict" }
            ),
            Setting::GctEntries(n) => write!(f, "GCT {n}"),
            Setting::LmqEntries(n) => write!(f, "LMQ {n}"),
            Setting::PrefetchDepth(d) => write!(f, "prefetch depth {d}"),
        }
    }
}

/// The measured rows, in report order.
pub const SETTINGS: [Setting; 14] = [
    Setting::Balancer(true),
    Setting::Balancer(false),
    Setting::DeepMissGctCap(4),
    Setting::StealDecodeSlots(false),
    Setting::StealDecodeSlots(true),
    Setting::GctEntries(10),
    Setting::GctEntries(20),
    Setting::GctEntries(40),
    Setting::LmqEntries(2),
    Setting::LmqEntries(8),
    Setting::LmqEntries(32),
    Setting::PrefetchDepth(0),
    Setting::PrefetchDepth(2),
    Setting::PrefetchDepth(4),
];

/// One measured row.
#[derive(Debug, Clone, Copy)]
pub struct AblationRow {
    /// The setting changed.
    pub setting: Setting,
    /// The observable's value, or `None` if the cell has no data.
    pub value: Option<f64>,
}

/// Measured result.
#[derive(Debug, Clone)]
pub struct AblationResult {
    /// One row per [`SETTINGS`] entry, in order.
    pub rows: Vec<AblationRow>,
    /// Annotations for rows whose cell degraded.
    pub degraded: Vec<Degradation>,
    /// Per-status cell tally over every row's campaign.
    pub counts: CellCounts,
}

impl AblationResult {
    /// Renders the report.
    #[must_use]
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["setting".into(), "observable".into(), "IPC".into()]);
        for row in &self.rows {
            t.row(vec![
                row.setting.to_string(),
                row.setting.observable().describe().into(),
                row.value.map_or_else(|| "-".into(), f3),
            ]);
        }
        let mut out = format!(
            "Design-choice ablations (one core setting changed per row)\n{}",
            t.render()
        );
        for note in &self.degraded {
            out.push_str(&format!("DEGRADED {note}\n"));
        }
        out
    }
}

/// Measures every [`SETTINGS`] row.
#[must_use]
pub fn run(ctx: &Experiments) -> AblationResult {
    let campaigns = parallel_map(ctx.jobs, SETTINGS.len(), |i| {
        let setting = SETTINGS[i];
        let mut row_ctx = ctx.clone().with_jobs(1);
        setting.apply(&mut row_ctx.core);
        let cell = setting.observable().cell(setting.to_string());
        Campaign::run(&row_ctx, &CampaignSpec::for_ctx(&row_ctx, vec![cell]))
    });
    let mut result = AblationResult {
        rows: Vec::new(),
        degraded: Vec::new(),
        counts: CellCounts::default(),
    };
    for (setting, campaign) in SETTINGS.into_iter().zip(campaigns) {
        result.rows.push(AblationRow {
            setting,
            value: setting.observable().value(campaign.measured(0)),
        });
        result.counts += campaign.counts();
        result.degraded.extend(campaign.degraded);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_measures_at_quick_fidelity() {
        let ctx =
            Experiments::with_configs(CoreConfig::power5_like(), p5_fame::FameConfig::quick())
                .with_jobs(2);
        let r = run(&ctx);
        assert!(r.degraded.is_empty(), "{:?}", r.degraded);
        assert_eq!(r.counts.total, SETTINGS.len());
        let value = |s: Setting| {
            r.rows
                .iter()
                .find(|row| row.setting == s)
                .and_then(|row| row.value)
                .expect("every row measured")
        };
        for s in SETTINGS {
            assert!(value(s) > 0.0, "{s}");
        }
        // The balancer protects the victim from its memory-bound sibling.
        assert!(value(Setting::Balancer(false)) < value(Setting::Balancer(true)));
        let text = r.render();
        for s in SETTINGS {
            assert!(text.contains(&s.to_string()), "{s} rendered");
        }
    }
}
