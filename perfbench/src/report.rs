//! What one benchmark run reports: checks, metrics, and the final JSON
//! result line.

use crate::stats::{self, Pct};
use std::time::Instant;

/// The outcome of one run. Human-readable lines go to stdout as they
/// are added; the JSON object is printed last.
#[derive(Debug, Default)]
pub struct Report {
    failed_checks: usize,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new() -> Report {
        Report::default()
    }

    /// Prints an informational line.
    pub fn note(&self, line: impl AsRef<str>) {
        println!("{}", line.as_ref());
    }

    /// Records one correctness check; a failing check makes the run
    /// incorrect, however fast it was.
    pub fn check(&mut self, ok: bool, what: impl AsRef<str>) -> bool {
        if !ok {
            self.failed_checks += 1;
            println!("CHECK FAILED: {}", what.as_ref());
        }
        ok
    }

    /// Counts one attempted operation (cell or request) and whether it
    /// failed.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Counts a batch of attempted operations.
    pub fn attempts(&mut self, ok: u64, failed: u64) {
        self.attempted += ok + failed;
        self.failed += failed;
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("metric {name} = {value} {unit}");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A metric with its sample count printed beside it.
    pub fn metric_n(&mut self, name: &str, value: f64, unit: &'static str, detail: &str) {
        println!("metric {name} = {value} {unit} ({detail})");
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The median of a timing, printed with its sample count.
    pub fn median(&mut self, name: &str, samples: &[f64], unit: &'static str) {
        if samples.is_empty() {
            self.metric_n(name, 0.0, unit, "no samples");
        } else {
            let n = samples.len();
            self.metric_n(
                name,
                stats::median(samples),
                unit,
                &format!("median of {n}"),
            );
        }
    }

    /// A percentile that honours the ten-samples-beyond rule: the
    /// highest percentile up to `want` the samples support.
    pub fn tail(&mut self, name: &str, samples: &[f64], want: f64, unit: &'static str) {
        let shape: Vec<String> = [50.0, 75.0, 90.0, 95.0, 98.0, 99.0]
            .iter()
            .filter_map(|&p| stats::percentile(samples, p))
            .map(|p| format!("p{} {:.3}", p.pct, p.value))
            .collect();
        println!(
            "{name} distribution ({unit}, n={}): {}",
            samples.len(),
            shape.join(", ")
        );
        match stats::tail(samples, want) {
            Some(p @ Pct { pct, .. }) => {
                if pct < want {
                    println!("note: {name} fell back from p{want} to p{pct}");
                }
                self.metric_n(name, p.value, unit, &p.describe(unit));
            }
            None => {
                self.check(
                    false,
                    format!(
                        "{name}: only {} samples, no percentile qualifies",
                        samples.len()
                    ),
                );
                self.metric_n(name, 0.0, unit, "too few samples");
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed_checks == 0 && self.failed == 0 && self.attempted > 0
    }

    /// Prints the closing JSON line.
    pub fn finish(mut self) {
        self.check(self.attempted > 0, "the run attempted nothing");
        let finite = self.metrics.iter().all(|(_, v, _)| v.is_finite());
        self.check(finite, "a metric is not a finite number");
        if self.attempted > 0 {
            println!(
                "failed_frac = {} ({} of {} cells and requests)",
                self.failed as f64 / self.attempted as f64,
                self.failed,
                self.attempted
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }
}

/// Busy and stolen clock ticks of all CPUs together (first line of
/// `/proc/stat`). Stolen time is time a virtual CPU had work to run while
/// the host ran another guest on it.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    match fields[..] {
        [user, nice, system, _, _, irq, softirq, steal, ..] => {
            Some((user + nice + system + irq + softirq, steal))
        }
        _ => None,
    }
}

/// A stretch of wall time, and how much of it the host took away.
///
/// On a shared virtual machine the host may take half of both CPUs for
/// minutes on end, which halves any CPU-bound rate measured in wall time.
/// CPU-bound durations are therefore reported in guest time: wall time
/// less the share of the CPUs' runnable time that was stolen.
pub struct Stretch {
    t0: Instant,
    ticks: Option<(u64, u64)>,
}

impl Stretch {
    pub fn start() -> Stretch {
        Stretch {
            t0: Instant::now(),
            ticks: cpu_ticks(),
        }
    }

    /// Wall seconds since the start, and the share of the CPUs' runnable
    /// time since the start that was stolen (0 where `/proc/stat` has no
    /// steal count).
    pub fn end(&self) -> (f64, f64) {
        let wall = self.t0.elapsed().as_secs_f64();
        let stolen = match (self.ticks, cpu_ticks()) {
            (Some((b0, s0)), Some((b1, s1))) if b1 + s1 > b0 + s0 => {
                (s1 - s0) as f64 / ((b1 - b0) + (s1 - s0)) as f64
            }
            _ => 0.0,
        };
        (wall, stolen)
    }
}

/// The process's peak resident set, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
