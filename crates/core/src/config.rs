//! Core pipeline configuration.

use crate::error::SimError;
use crate::queues::MAX_QUEUE_SLOTS;
use p5_mem::MemConfig;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Execution latencies per instruction class, in cycles from issue to
/// result availability.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpLatencies {
    /// Single-cycle fixed-point ops.
    pub int_alu: u64,
    /// Fixed-point multiply.
    pub int_mul: u64,
    /// Fixed-point divide.
    pub int_div: u64,
    /// Pipelined floating-point op.
    pub fp_alu: u64,
    /// Floating-point divide.
    pub fp_div: u64,
    /// Branch resolution.
    pub branch: u64,
    /// Store (address + data accepted; completion latency).
    pub store: u64,
    /// Issue-to-issue interval of a fixed-point multiply on one FXU
    /// (POWER5 multiplies are not fully pipelined).
    pub int_mul_occupancy: u64,
    /// Issue-to-issue interval of a fixed-point divide.
    pub int_div_occupancy: u64,
    /// Issue-to-issue interval of a floating-point divide.
    pub fp_div_occupancy: u64,
}

impl OpLatencies {
    /// POWER5-like latencies.
    #[must_use]
    pub fn power5_like() -> OpLatencies {
        OpLatencies {
            int_alu: 1,
            int_mul: 7,
            int_div: 36,
            fp_alu: 6,
            fp_div: 30,
            branch: 1,
            store: 1,
            int_mul_occupancy: 3,
            int_div_occupancy: 20,
            fp_div_occupancy: 20,
        }
    }
}

/// Configuration of the dynamic hardware resource balancer
/// (paper Section 3.1).
///
/// POWER5 "considers that there is an unbalanced use of resources when a
/// thread reaches a threshold of L2 cache or TLB misses, or when a thread
/// uses too many GCT entries", and reacts by stalling the offending
/// thread's decode or flushing its pending dispatch. The model implements
/// both triggers as decode gates, which is steady-state equivalent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BalancerConfig {
    /// Master switch. With the balancer off, a stalled memory-bound thread
    /// can clog the shared GCT and starve its sibling (useful for
    /// ablation benches).
    pub enabled: bool,
    /// Maximum GCT groups one thread may hold while the sibling is active;
    /// decode of the offender stalls above this.
    pub gct_cap_per_thread: usize,
    /// Maximum outstanding beyond-L1 misses one thread may hold in the
    /// load-miss queue while the sibling is active.
    pub miss_cap_per_thread: usize,
    /// Maximum GCT groups a thread may hold while it has an outstanding
    /// *beyond-L2* miss and the sibling is active — the paper's
    /// "threshold of L2 cache or TLB misses" stall/flush trigger. Lower
    /// than `gct_cap_per_thread`, this bounds how much of the shared
    /// window a long-latency-missing thread can clog.
    pub gct_cap_deep_miss: usize,
}

impl BalancerConfig {
    /// POWER5-like defaults for a 20-entry GCT and an 8-entry LMQ.
    #[must_use]
    pub fn power5_like() -> BalancerConfig {
        BalancerConfig {
            enabled: true,
            gct_cap_per_thread: 18,
            miss_cap_per_thread: 6,
            // Equal to the plain GCT cap by default: the clogging pressure
            // of a long-latency-missing thread and its decay under
            // priority differences are what reproduce the paper's
            // (cpu-bound, memory-bound) interactions. Lower values model a
            // more aggressive balancer (ablation benches explore this).
            gct_cap_deep_miss: 18,
        }
    }

    /// Balancer disabled (ablation).
    #[must_use]
    pub fn disabled() -> BalancerConfig {
        BalancerConfig {
            enabled: false,
            gct_cap_per_thread: usize::MAX,
            miss_cap_per_thread: usize::MAX,
            gct_cap_deep_miss: usize::MAX,
        }
    }
}

/// How the engine executes the warmup phase that precedes measurement.
///
/// The FAME runner (and anything else that warms a core before taking
/// numbers) can either simulate warmup cycle-by-cycle on the detailed
/// pipeline, or fast-forward it functionally: instructions execute in
/// program order and touch the caches, the data TLB and the branch
/// predictor, but no GCT, issue-queue or PMU state is modelled. See
/// [`SmtCore::functional_warmup`](crate::SmtCore::functional_warmup) for
/// the exact contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WarmupMode {
    /// Warm up on the detailed cycle-by-cycle engine. This is the
    /// default: with it, every artifact output is bit-identical to the
    /// pre-two-speed engine.
    #[default]
    Detailed,
    /// Fast-forward warmup with
    /// [`SmtCore::functional_warmup`](crate::SmtCore::functional_warmup).
    /// Measured results are statistically equivalent (warmed cache, TLB
    /// and predictor state) but not bit-identical to `Detailed`, because
    /// the warmup interleaving is approximated.
    Functional,
}

/// Shape of one sampling unit in [`MeasureMode::Sampled`]: a short
/// detailed measurement interval followed by a functional fast-forward
/// gap, repeated until the IPC estimate converges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SamplingConfig {
    /// Cycles simulated on the detailed engine per sample. Each interval
    /// yields one per-thread IPC sample (committed-instruction delta over
    /// the interval length).
    pub interval: u64,
    /// Cycles fast-forwarded functionally between detailed intervals.
    /// The functional engine keeps caches, the data TLB and the branch
    /// predictor warm and advances the virtual clock, so consecutive
    /// samples observe a continuously aged machine.
    pub period: u64,
}

impl SamplingConfig {
    /// Default schedule: 10 k detailed cycles sampled every 50 k cycles
    /// (a 20 % detail duty cycle). Chosen so the quick-fidelity Table 3
    /// grid lands within 5 % of the detailed run while long workloads
    /// still see an order-of-magnitude speedup.
    #[must_use]
    pub fn balanced() -> SamplingConfig {
        SamplingConfig {
            interval: 10_000,
            period: 40_000,
        }
    }
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig::balanced()
    }
}

/// How the measured phase is executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MeasureMode {
    /// Simulate every measured cycle on the detailed engine (FAME
    /// repetition-boundary IPC). The default; presented artifacts use it.
    #[default]
    Detailed,
    /// Alternate short detailed intervals with functional fast-forward
    /// and estimate IPC (mean + 95 % confidence interval) from the
    /// per-interval sample population — the SMARTS / Pac-Sim idiom.
    Sampled(SamplingConfig),
}

/// The unified three-speed execution plan: how a core is warmed, how the
/// measured phase runs, and whether the engine skips idle spans.
///
/// The canonical text form is [`ExecutionPlan::GRAMMAR`], accepted by
/// [`ExecutionPlan::parse`] and produced by `Display`, e.g.
/// `sampled:10000,40000+dw` or `detailed+ff+noskip`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionPlan {
    /// How the warmup phase preceding measurement is executed.
    pub warmup: WarmupMode,
    /// How the measured phase is executed.
    pub measure: MeasureMode,
    /// Whether the detailed engine may batch-advance over spans of
    /// provably idle cycles to the next event horizon (wall-clock only;
    /// bit-identical by construction — same stats, same PMU totals, same
    /// RNG draw count; see DESIGN.md §17). Defaults on; `+noskip` turns
    /// it off for A/B measurement.
    pub idle_skip: bool,
}

impl Default for ExecutionPlan {
    fn default() -> ExecutionPlan {
        ExecutionPlan {
            warmup: WarmupMode::default(),
            measure: MeasureMode::default(),
            idle_skip: true,
        }
    }
}

/// A plan's share of a measurement's identity: the warm-up engine and
/// the measure mode, the two fields that change the measured bytes.
/// The other, `idle_skip`, is left out by name: it changes only wall
/// time (bit-identical by construction).
///
/// The pattern names every field, so a new one does not compile until
/// its author decides whether it splits a cache key.
impl Hash for ExecutionPlan {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let ExecutionPlan {
            warmup,
            measure,
            idle_skip: _,
        } = self;
        (warmup, measure).hash(state);
    }
}

impl ExecutionPlan {
    /// Fully detailed execution — warmup and measurement both
    /// cycle-accurate. Bit-identical to the pre-plan engine; presented
    /// artifacts use this.
    #[must_use]
    pub fn detailed() -> ExecutionPlan {
        ExecutionPlan::default()
    }

    /// Sampled execution: functional warmup, then alternating detailed
    /// intervals and functional fast-forward per `sampling`.
    #[must_use]
    pub fn sampled(sampling: SamplingConfig) -> ExecutionPlan {
        ExecutionPlan {
            warmup: WarmupMode::Functional,
            measure: MeasureMode::Sampled(sampling),
            idle_skip: true,
        }
    }

    /// Returns a copy with the event-horizon idle skip set.
    #[must_use]
    pub fn with_idle_skip(mut self, skip: bool) -> ExecutionPlan {
        self.idle_skip = skip;
        self
    }

    /// The plan grammar [`parse`](ExecutionPlan::parse) accepts, one
    /// form or flag per line, as the binaries' `--help` texts and usage
    /// errors print it.
    pub const GRAMMAR: &'static str = "\
detailed           cycle-level throughout (default)
sampled[:INT,PER]  interval sampling, 95% confidence
                   intervals (default 10000,40000)
+ff                functional warmup, detailed measure
+dw                detailed warmup, sampled measure
+noskip            no idle skip (same bits, slower)
";

    /// Parses [`GRAMMAR`](ExecutionPlan::GRAMMAR): a speed, then flags
    /// in any order. Later flags win on conflict (`+ff+dw` ends
    /// detailed). `Display`
    /// emits the canonical form — speed, then `+ff`/`+dw` if the warmup
    /// differs from the speed's default, then `+noskip` if the idle skip
    /// is off — so parse/display round-trips.
    ///
    /// ```
    /// use p5_core::{ExecutionPlan, MeasureMode, WarmupMode};
    ///
    /// // The default plan: detailed warmup, detailed measure.
    /// let plan = ExecutionPlan::parse("detailed").unwrap();
    /// assert_eq!(plan, ExecutionPlan::detailed());
    ///
    /// // Sampled measure with an explicit schedule and detailed warmup.
    /// let plan = ExecutionPlan::parse("sampled:512,2048+dw").unwrap();
    /// assert_eq!(plan.warmup, WarmupMode::Detailed);
    /// assert!(matches!(plan.measure, MeasureMode::Sampled(s)
    ///     if s.interval == 512 && s.period == 2048));
    /// assert_eq!(plan.to_string(), "sampled:512,2048+dw");
    /// ```
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending token for
    /// unknown speeds, flags, or malformed/zero sampling parameters.
    pub fn parse(text: &str) -> Result<ExecutionPlan, String> {
        let mut parts = text.split('+');
        let speed = parts.next().unwrap_or_default();
        let mut plan = if speed == "detailed" {
            ExecutionPlan::detailed()
        } else if let Some(rest) = speed.strip_prefix("sampled") {
            let sampling = if rest.is_empty() {
                SamplingConfig::default()
            } else if let Some(args) = rest.strip_prefix(':') {
                let (i, p) = args
                    .split_once(',')
                    .ok_or_else(|| format!("expected sampled:interval,period, got `{speed}`"))?;
                let interval: u64 = i
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad sampling interval `{i}`"))?;
                let period: u64 = p
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad sampling period `{p}`"))?;
                SamplingConfig { interval, period }
            } else {
                return Err(format!("unknown plan `{speed}`"));
            };
            if sampling.interval == 0 || sampling.period == 0 {
                return Err("sampling interval and period must be nonzero".into());
            }
            ExecutionPlan::sampled(sampling)
        } else {
            return Err(format!(
                "unknown plan `{speed}` (expected `detailed` or `sampled[:interval,period]`)"
            ));
        };
        for flag in parts {
            match flag {
                "ff" => plan.warmup = WarmupMode::Functional,
                "dw" => plan.warmup = WarmupMode::Detailed,
                "noskip" => plan.idle_skip = false,
                other => return Err(format!("unknown plan flag `+{other}`")),
            }
        }
        Ok(plan)
    }
}

impl fmt::Display for ExecutionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.measure {
            MeasureMode::Detailed => {
                f.write_str("detailed")?;
                if self.warmup == WarmupMode::Functional {
                    f.write_str("+ff")?;
                }
            }
            MeasureMode::Sampled(s) => {
                write!(f, "sampled:{},{}", s.interval, s.period)?;
                if self.warmup == WarmupMode::Detailed {
                    f.write_str("+dw")?;
                }
            }
        }
        if !self.idle_skip {
            f.write_str("+noskip")?;
        }
        Ok(())
    }
}

/// Full configuration of the SMT2 core.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct CoreConfig {
    /// Instructions decoded per decode cycle (one context per cycle forms
    /// one dispatch group).
    pub decode_width: usize,
    /// Global Completion Table entries (dispatch groups in flight, shared
    /// between the two contexts).
    pub gct_entries: usize,
    /// Fixed-point units.
    pub fxu_units: usize,
    /// Floating-point units.
    pub fpu_units: usize,
    /// Load/store units.
    pub lsu_units: usize,
    /// Branch units.
    pub bru_units: usize,
    /// Fixed-point issue-queue capacity (shared, 1 to 64 entries).
    pub fxq_size: usize,
    /// Floating-point issue-queue capacity (shared, 1 to 64 entries).
    pub fpq_size: usize,
    /// Load/store issue-queue capacity (shared, 1 to 64 entries).
    pub lsq_size: usize,
    /// Branch issue-queue capacity (shared, 1 to 64 entries).
    pub brq_size: usize,
    /// Load-miss-queue (MSHR) entries shared by both contexts.
    ///
    /// Zero is accepted as a deliberately pathological value: beyond-L1
    /// misses can then never issue, so any memory-bound workload wedges.
    /// The forward-progress watchdog exists to catch exactly this class
    /// of livelock and the robustness tests exercise it.
    pub lmq_entries: usize,
    /// Cycles from branch resolution to the first decode of redirected
    /// instructions.
    pub mispredict_penalty: u64,
    /// Execution latencies.
    pub latencies: OpLatencies,
    /// Dynamic hardware resource balancer.
    pub balancer: BalancerConfig,
    /// Memory hierarchy configuration.
    pub mem: MemConfig,
    /// In low-power mode — both threads at priority 1 — the core decodes
    /// one instruction every this many cycles (paper Section 3.2: 32).
    pub low_power_decode_period: u64,
    /// RNG seed for data-dependent branch outcomes (`br_miss`).
    pub rng_seed: u64,
    /// If true, a decode cycle whose designated thread cannot decode is
    /// offered to the sibling instead of being wasted. POWER5 enforces the
    /// priority ratio strictly; this switch exists for ablation.
    pub steal_idle_decode_slots: bool,
    /// Forward-progress watchdog window: if no dispatch group commits on
    /// any active thread for this many cycles,
    /// [`SmtCore::try_run_until_repetitions`](crate::SmtCore::try_run_until_repetitions)
    /// aborts with [`SimError::ForwardProgressStall`] carrying a
    /// diagnostic snapshot. Zero disables the watchdog.
    ///
    /// The default of 100 000 cycles is two orders of magnitude above the
    /// longest legitimate commit gap in any configuration shipped here
    /// (a full LMQ of memory-latency misses plus a mispredict penalty is
    /// well under 1 000 cycles).
    pub watchdog_stall_cycles: u64,
    /// The execution plan: how warmup runs, how the measured phase runs,
    /// and whether the engine skips idle spans (see [`ExecutionPlan`]).
    /// The FAME runner consults this; the default fully detailed plan is
    /// bit-identical to the pre-plan engine.
    pub plan: ExecutionPlan,
}

impl CoreConfig {
    /// A POWER5-like core: 5-wide decode, 20-entry GCT, 2×FXU/2×FPU/2×LSU,
    /// 8-entry LMQ, 12-cycle mispredict penalty.
    #[must_use]
    pub fn power5_like() -> CoreConfig {
        CoreConfig {
            decode_width: 5,
            gct_entries: 20,
            fxu_units: 2,
            fpu_units: 2,
            lsu_units: 2,
            bru_units: 2,
            fxq_size: 36,
            fpq_size: 24,
            lsq_size: 24,
            brq_size: 12,
            lmq_entries: 8,
            mispredict_penalty: 12,
            latencies: OpLatencies::power5_like(),
            balancer: BalancerConfig::power5_like(),
            mem: MemConfig::power5_like(),
            low_power_decode_period: 32,
            rng_seed: 0x5eed_cafe_f00d_0001,
            steal_idle_decode_slots: false,
            watchdog_stall_cycles: 100_000,
            plan: ExecutionPlan::detailed(),
        }
    }

    /// A smaller, faster configuration for unit tests (tiny caches, short
    /// latencies). Behavioural shape matches `power5_like`.
    #[must_use]
    pub fn tiny_for_tests() -> CoreConfig {
        CoreConfig {
            mem: MemConfig::tiny_for_tests(),
            ..CoreConfig::power5_like()
        }
    }

    /// Validates structural parameters, returning a typed error.
    ///
    /// `lmq_entries == 0` is deliberately allowed (see the field docs):
    /// it is the canonical way to build a wedged core for watchdog
    /// tests, so the balancer's miss cap is not checked against the LMQ
    /// either. Everything else that would make the pipeline degenerate
    /// is rejected.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending field if
    /// any width, queue or table size is zero (other than the LMQ), an
    /// issue queue has more than 64 entries, or the watchdog window is
    /// absurdly small; then, after those per-field checks, if an enabled
    /// balancer has a zero cap, a GCT cap above `gct_entries` or a
    /// deep-miss cap above the plain GCT cap, if an execution latency
    /// is zero, or if an occupancy falls outside `1..=` its latency.
    pub fn try_validate(&self) -> Result<(), SimError> {
        fn nonzero(field: &'static str, n: usize) -> Result<(), SimError> {
            if n == 0 {
                return Err(SimError::InvalidConfig {
                    field,
                    message: format!("{field} size must be nonzero"),
                });
            }
            Ok(())
        }
        if self.decode_width == 0 {
            return Err(SimError::InvalidConfig {
                field: "decode_width",
                message: "decode width must be nonzero".into(),
            });
        }
        if self.gct_entries < 2 {
            return Err(SimError::InvalidConfig {
                field: "gct_entries",
                message: "GCT needs at least one group per context".into(),
            });
        }
        nonzero("fxu", self.fxu_units)?;
        nonzero("fpu", self.fpu_units)?;
        nonzero("lsu", self.lsu_units)?;
        nonzero("bru", self.bru_units)?;
        for (field, size) in [
            ("fxq", self.fxq_size),
            ("fpq", self.fpq_size),
            ("lsq", self.lsq_size),
            ("brq", self.brq_size),
        ] {
            nonzero(field, size)?;
            if size > MAX_QUEUE_SLOTS {
                return Err(SimError::InvalidConfig {
                    field,
                    message: format!("{field} size {size} exceeds {MAX_QUEUE_SLOTS} slots"),
                });
            }
        }
        if self.low_power_decode_period == 0 {
            return Err(SimError::InvalidConfig {
                field: "low_power_decode_period",
                message: "low-power decode period must be nonzero".into(),
            });
        }
        if self.watchdog_stall_cycles != 0 && self.watchdog_stall_cycles < 1_000 {
            return Err(SimError::InvalidConfig {
                field: "watchdog_stall_cycles",
                message: format!(
                    "watchdog window of {} cycles is below the longest \
                     legitimate commit gap; use 0 to disable or >= 1000",
                    self.watchdog_stall_cycles
                ),
            });
        }
        if let MeasureMode::Sampled(s) = self.plan.measure {
            if s.interval == 0 || s.period == 0 {
                return Err(SimError::InvalidConfig {
                    field: "plan.measure",
                    message: format!(
                        "sampled plan needs nonzero interval and period, got {},{}",
                        s.interval, s.period
                    ),
                });
            }
        }
        self.mem.validate();
        let b = &self.balancer;
        if b.enabled {
            if b.gct_cap_per_thread == 0 || b.miss_cap_per_thread == 0 || b.gct_cap_deep_miss == 0 {
                return Err(SimError::InvalidConfig {
                    field: "balancer",
                    message: "an enabled balancer cap of 0 would stall decode forever".into(),
                });
            }
            if b.gct_cap_per_thread > self.gct_entries {
                return Err(SimError::InvalidConfig {
                    field: "balancer.gct_cap_per_thread",
                    message: format!(
                        "GCT cap {} exceeds the {}-entry GCT it polices",
                        b.gct_cap_per_thread, self.gct_entries
                    ),
                });
            }
            if b.gct_cap_deep_miss > b.gct_cap_per_thread {
                return Err(SimError::InvalidConfig {
                    field: "balancer.gct_cap_deep_miss",
                    message: format!(
                        "deep-miss GCT cap {} exceeds the plain GCT cap {}",
                        b.gct_cap_deep_miss, b.gct_cap_per_thread
                    ),
                });
            }
        }
        let l = &self.latencies;
        for (field, latency) in [
            ("latencies.int_alu", l.int_alu),
            ("latencies.int_mul", l.int_mul),
            ("latencies.int_div", l.int_div),
            ("latencies.fp_alu", l.fp_alu),
            ("latencies.fp_div", l.fp_div),
            ("latencies.branch", l.branch),
            ("latencies.store", l.store),
        ] {
            if latency == 0 {
                return Err(SimError::InvalidConfig {
                    field,
                    message: "execution latency must be at least one cycle".into(),
                });
            }
        }
        for (field, occupancy, latency) in [
            (
                "latencies.int_mul_occupancy",
                l.int_mul_occupancy,
                l.int_mul,
            ),
            (
                "latencies.int_div_occupancy",
                l.int_div_occupancy,
                l.int_div,
            ),
            ("latencies.fp_div_occupancy", l.fp_div_occupancy, l.fp_div),
        ] {
            if occupancy == 0 || occupancy > latency {
                return Err(SimError::InvalidConfig {
                    field,
                    message: format!(
                        "issue-to-issue occupancy {occupancy} must be in 1..={latency} \
                         (the operation's latency)"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Validates structural parameters.
    ///
    /// # Panics
    ///
    /// Panics if [`CoreConfig::try_validate`] rejects the configuration.
    pub fn validate(&self) {
        if let Err(e) = self.try_validate() {
            panic!("{e}");
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::power5_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        CoreConfig::power5_like().validate();
        CoreConfig::tiny_for_tests().validate();
        CoreConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "decode width")]
    fn zero_decode_width_panics() {
        let cfg = CoreConfig {
            decode_width: 0,
            ..CoreConfig::power5_like()
        };
        cfg.validate();
    }

    #[test]
    fn balancer_disabled_is_unbounded() {
        let b = BalancerConfig::disabled();
        assert!(!b.enabled);
        assert_eq!(b.gct_cap_per_thread, usize::MAX);
    }

    /// The field `cfg` is rejected for.
    fn rejected_field(cfg: &CoreConfig) -> &'static str {
        match cfg.try_validate() {
            Err(SimError::InvalidConfig { field, .. }) => field,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn shipped_configs_keep_the_lmq_and_its_miss_cap() {
        // `try_validate` accepts a zero LMQ and any miss cap on purpose
        // (wedged-core tests build both), so the configs the repository
        // measures with are checked here instead.
        for cfg in [CoreConfig::power5_like(), CoreConfig::tiny_for_tests()] {
            assert!(cfg.lmq_entries >= 1);
            assert!(cfg.balancer.miss_cap_per_thread <= cfg.lmq_entries);
        }
    }

    #[test]
    fn try_validate_rejects_balancer_cap_above_gct() {
        let cfg = CoreConfig {
            gct_entries: 10,
            balancer: BalancerConfig {
                enabled: true,
                gct_cap_per_thread: 12,
                miss_cap_per_thread: 4,
                gct_cap_deep_miss: 8,
            },
            ..CoreConfig::power5_like()
        };
        assert_eq!(rejected_field(&cfg), "balancer.gct_cap_per_thread");
    }

    #[test]
    fn try_validate_accepts_disabled_balancer_caps() {
        // usize::MAX caps are fine when the balancer is off.
        let cfg = CoreConfig {
            balancer: BalancerConfig::disabled(),
            ..CoreConfig::power5_like()
        };
        assert!(cfg.try_validate().is_ok());
    }

    #[test]
    fn try_validate_rejects_occupancy_above_latency() {
        let cfg = CoreConfig {
            latencies: OpLatencies {
                int_mul_occupancy: 9,
                ..OpLatencies::power5_like()
            },
            ..CoreConfig::power5_like()
        };
        assert_eq!(rejected_field(&cfg), "latencies.int_mul_occupancy");
    }

    #[test]
    fn try_validate_rejects_zero_caps_deep_miss_cap_and_zero_latency() {
        let caps = |gct_cap_per_thread, gct_cap_deep_miss| CoreConfig {
            balancer: BalancerConfig {
                gct_cap_per_thread,
                gct_cap_deep_miss,
                ..BalancerConfig::power5_like()
            },
            ..CoreConfig::power5_like()
        };
        assert_eq!(rejected_field(&caps(0, 0)), "balancer");
        assert_eq!(rejected_field(&caps(12, 14)), "balancer.gct_cap_deep_miss");
        let cfg = CoreConfig {
            latencies: OpLatencies {
                fp_alu: 0,
                ..OpLatencies::power5_like()
            },
            ..CoreConfig::power5_like()
        };
        assert_eq!(rejected_field(&cfg), "latencies.fp_alu");
    }

    #[test]
    fn issue_queues_hold_at_most_64_entries() {
        for field in ["fxq", "fpq", "lsq", "brq"] {
            let sized = |n: usize| {
                let mut c = CoreConfig::power5_like();
                match field {
                    "fxq" => c.fxq_size = n,
                    "fpq" => c.fpq_size = n,
                    "lsq" => c.lsq_size = n,
                    _ => c.brq_size = n,
                }
                c
            };
            assert!(sized(64).try_validate().is_ok(), "{field} of 64");
            let err = sized(65).try_validate().unwrap_err();
            assert!(
                matches!(err, SimError::InvalidConfig { field: f, .. } if f == field),
                "{field} of 65: {err}"
            );
        }
    }

    #[test]
    fn try_validate_rejects_structural_zero_before_cross_field_checks() {
        // A zero GCT also breaks the balancer's GCT cap; the per-field
        // check runs first and names its own field.
        let cfg = CoreConfig {
            decode_width: 0,
            gct_entries: 0,
            ..CoreConfig::power5_like()
        };
        assert_eq!(rejected_field(&cfg), "decode_width");
        let cfg = CoreConfig {
            gct_entries: 1,
            ..CoreConfig::power5_like()
        };
        assert_eq!(rejected_field(&cfg), "gct_entries");
    }

    #[test]
    fn plan_parse_display_round_trips() {
        for text in [
            "detailed",
            "detailed+ff",
            "detailed+noskip",
            "detailed+ff+noskip",
            "sampled:10000,40000",
            "sampled:512,2048+dw",
            "sampled:512,2048+noskip",
            "sampled:10000,40000+dw+noskip",
        ] {
            let plan = ExecutionPlan::parse(text).expect(text);
            assert_eq!(plan.to_string(), text, "round-trip of `{text}`");
        }
        // Bare `sampled` canonicalizes to the default schedule.
        let plan = ExecutionPlan::parse("sampled").expect("sampled");
        assert_eq!(plan, ExecutionPlan::sampled(SamplingConfig::default()));
        assert_eq!(plan.warmup, WarmupMode::Functional);
        assert_eq!(ExecutionPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn plan_parse_rejects_garbage() {
        assert!(ExecutionPlan::parse("fast").is_err());
        assert!(ExecutionPlan::parse("sampled:10").is_err());
        assert!(ExecutionPlan::parse("sampled:0,100").is_err());
        assert!(ExecutionPlan::parse("sampled:10,0").is_err());
        assert!(ExecutionPlan::parse("sampled:a,b").is_err());
        assert!(ExecutionPlan::parse("detailed+warp").is_err());
        // Retired flags are unknown, not ignored: the threaded chip's
        // `+mt`, the warm-state checkpoints' `+reuse` and `+skip`, a
        // second spelling of the default.
        for (text, flag) in [
            ("detailed+mt", "+mt"),
            ("detailed+mt:4096", "+mt:4096"),
            ("detailed+reuse", "+reuse"),
            ("sampled+reuse", "+reuse"),
            ("detailed+noskip+skip", "+skip"),
        ] {
            let err = ExecutionPlan::parse(text).expect_err(text);
            assert!(
                err.contains(&format!("unknown plan flag `{flag}`")),
                "{text}: {err}"
            );
        }
    }

    #[test]
    fn every_form_and_flag_the_grammar_names_parses() {
        let entries: Vec<&str> = ExecutionPlan::GRAMMAR
            .lines()
            .filter(|line| !line.starts_with(' '))
            .filter_map(|line| line.split_whitespace().next())
            .collect();
        assert_eq!(
            entries,
            ["detailed", "sampled[:INT,PER]", "+ff", "+dw", "+noskip"]
        );
        for entry in entries {
            let texts = if entry.starts_with('+') {
                [format!("detailed{entry}"), format!("sampled{entry}")]
            } else {
                [
                    entry.replace("[:INT,PER]", ""),
                    entry.replace("[:INT,PER]", ":64,256"),
                ]
            };
            for text in texts {
                assert!(
                    ExecutionPlan::parse(&text).is_ok(),
                    "`{text}` from `{entry}`"
                );
            }
        }
    }

    #[test]
    fn plan_idle_skip_flag_parses() {
        assert!(ExecutionPlan::parse("detailed").unwrap().idle_skip);
        assert!(!ExecutionPlan::parse("detailed+noskip").unwrap().idle_skip);
        assert!(!ExecutionPlan::parse("sampled+noskip").unwrap().idle_skip);
        assert_eq!(
            ExecutionPlan::detailed().with_idle_skip(false),
            ExecutionPlan::parse("detailed+noskip").unwrap()
        );
    }

    #[test]
    fn zero_sampling_interval_rejected_by_validate() {
        let cfg = CoreConfig {
            plan: ExecutionPlan {
                warmup: WarmupMode::Functional,
                measure: MeasureMode::Sampled(SamplingConfig {
                    interval: 0,
                    period: 100,
                }),
                ..ExecutionPlan::detailed()
            },
            ..CoreConfig::power5_like()
        };
        assert!(matches!(
            cfg.try_validate(),
            Err(SimError::InvalidConfig {
                field: "plan.measure",
                ..
            })
        ));
    }

    #[test]
    fn power5_like_shape() {
        let c = CoreConfig::power5_like();
        assert_eq!(c.decode_width, 5);
        assert_eq!(c.gct_entries, 20);
        assert_eq!(c.lmq_entries, 8);
        assert_eq!(c.low_power_decode_period, 32);
        assert!(c.balancer.enabled);
    }
}
