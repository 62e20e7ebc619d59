//! # p5-pmu
//!
//! A POWER5-style performance-monitoring and tracing subsystem for the
//! priority-characterization simulator.
//!
//! The paper explains *why* each priority combination wins or loses by
//! appeal to internal pipeline behaviour — decode-slot starvation, GCT
//! occupancy, LMQ saturation, balancer throttling. This crate is the
//! observability layer that makes those mechanisms visible:
//!
//! * **Counter groups** ([`PmuCounters`], [`MemCounters`]) — the
//!   software analogue of PMC1–PMC6 event groups: decode slots
//!   granted/used/stolen per thread, GCT/LMQ high-water marks and mean
//!   occupancies, balancer gate actions, per-level cache hits and TLB
//!   misses.
//! * **CPI stacks** ([`CpiStack`]) — every cycle of every thread is
//!   attributed to exactly one [`CpiComponent`], so the components
//!   always sum to the observed cycles (checked by
//!   [`Pmu::reconcile`]).
//! * **Interval sampling** ([`Sample`]) — every `sample_interval`
//!   cycles the PMU snapshots committed-instruction, CPI-component and
//!   cache-level deltas, producing the time series that make
//!   priority-switch transients plottable.
//! * **Exporters** — [`chrome_trace`] renders the samples and discrete
//!   events in Chrome `trace_event` JSON (loadable in `chrome://tracing`
//!   or [Perfetto](https://ui.perfetto.dev)); the [`json`] module is the
//!   dependency-free JSON writer every machine-readable artifact of the
//!   workspace shares.
//!
//! The hot path is one `Option` check per cycle in the core when the
//! PMU is disabled, and a handful of array increments when enabled;
//! there is no `dyn` dispatch anywhere. The host core drives the PMU by
//! calling [`Pmu::on_cycle`] with a [`CycleRecord`] once per simulated
//! cycle.
//!
//! # Example
//!
//! ```
//! use p5_isa::ThreadId;
//! use p5_pmu::{CpiComponent, CycleRecord, Pmu, PmuConfig};
//!
//! let mut pmu = Pmu::new(PmuConfig::sampling(4));
//! for cycle in 1..=8 {
//!     let rec = CycleRecord {
//!         attr: [CpiComponent::Base, CpiComponent::DecodeStarved],
//!         granted: Some(ThreadId::T0),
//!         used: true,
//!         stolen: false,
//!         gct_occupancy: 3,
//!         lmq_occupancy: 1,
//!         committed: [cycle * 4, 0],
//!         priorities: [4, 4],
//!     };
//!     pmu.on_cycle(cycle, &rec);
//! }
//! assert_eq!(pmu.cycles(), 8);
//! pmu.reconcile().expect("components sum to cycles");
//! assert_eq!(pmu.samples().len(), 2);
//! assert_eq!(pmu.stack(ThreadId::T0).get(CpiComponent::Base), 8);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod chrome;
mod counters;
mod cpi;
pub mod json;

pub use chrome::chrome_trace;
pub use counters::{new_shared_mem_counters, MemCounters, PmuCounters, SharedMemCounters};
pub use cpi::{CpiComponent, CpiStack};

use p5_isa::ThreadId;

/// PMU configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmuConfig {
    /// Cycles per sample; `0` disables interval sampling (counters and
    /// CPI stacks still accumulate).
    pub sample_interval: u64,
    /// Maximum retained samples; once full, later samples are counted
    /// as dropped instead of recorded.
    pub max_samples: usize,
    /// Maximum retained discrete events; once full, later events are
    /// counted as dropped instead of recorded.
    pub max_events: usize,
}

impl Default for PmuConfig {
    fn default() -> PmuConfig {
        PmuConfig {
            sample_interval: 0,
            max_samples: 1 << 16,
            max_events: 1 << 16,
        }
    }
}

impl PmuConfig {
    /// Counters and CPI stacks only — no time series.
    #[must_use]
    pub fn counters_only() -> PmuConfig {
        PmuConfig::default()
    }

    /// Interval sampling every `interval` cycles (0 = counters only).
    #[must_use]
    pub fn sampling(interval: u64) -> PmuConfig {
        PmuConfig {
            sample_interval: interval,
            ..PmuConfig::default()
        }
    }
}

/// Everything the core tells the PMU about one simulated cycle.
#[derive(Debug, Clone, Copy)]
pub struct CycleRecord {
    /// Cycle attribution per thread (see [`CpiComponent`] for the
    /// deterministic priority order).
    pub attr: [CpiComponent; 2],
    /// The designated decode thread this cycle, if any (low-power mode
    /// decodes only every Nth cycle).
    pub granted: Option<ThreadId>,
    /// Whether the designated thread decoded.
    pub used: bool,
    /// Whether the sibling decoded on the designated thread's unused
    /// slot.
    pub stolen: bool,
    /// GCT occupancy (groups, both threads) this cycle.
    pub gct_occupancy: u32,
    /// Load-miss-queue occupancy this cycle.
    pub lmq_occupancy: u32,
    /// Cumulative committed instructions per thread.
    pub committed: [u64; 2],
    /// Current priority levels per thread.
    pub priorities: [u8; 2],
}

/// Everything the core tells the PMU about a batch-skipped span of
/// provably idle cycles (the event-horizon fast path).
///
/// During such a span no instruction decodes, issues, completes or
/// retires, so per-cycle state is frozen: each thread's attribution is
/// uniform (its block cause on its `granted` designated cycles, its
/// starved/idle component on the rest), occupancies are constant, and
/// committed counts and priorities do not move. [`Pmu::on_idle_span`]
/// folds the whole span in as if [`Pmu::on_cycle`] had been called once
/// per cycle with the equivalent [`CycleRecord`]s.
#[derive(Debug, Clone, Copy)]
pub struct IdleSpanRecord {
    /// Number of cycles the span covers (≥ 1).
    pub cycles: u64,
    /// Designated decode cycles granted to each thread within the span
    /// (`granted[0] + granted[1] <= cycles`; low-power off-cycles are
    /// granted to nobody).
    pub granted: [u64; 2],
    /// The component charged on each thread's granted cycles (its
    /// uniform decode-block cause as classified by the core). Ignored
    /// for a thread with zero granted cycles.
    pub blocked_attr: [CpiComponent; 2],
    /// The component charged on each thread's non-granted cycles
    /// ([`CpiComponent::DecodeStarved`] for an active thread,
    /// [`CpiComponent::Idle`] otherwise).
    pub idle_attr: [CpiComponent; 2],
    /// GCT occupancy (constant over the span).
    pub gct_occupancy: u32,
    /// Load-miss-queue occupancy (constant over the span).
    pub lmq_occupancy: u32,
    /// Cumulative committed instructions per thread (constant over the
    /// span — nothing retires in it).
    pub committed: [u64; 2],
    /// Priority levels per thread (constant over the span).
    pub priorities: [u8; 2],
}

/// One interval sample: deltas over the interval plus instantaneous
/// state at its end.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Cycle at which the interval ended (PMU-local, starting at 1).
    pub cycle: u64,
    /// Cycles the interval covered.
    pub interval: u64,
    /// Instructions committed per thread during the interval.
    pub committed: [u64; 2],
    /// CPI-component cycles per thread during the interval.
    pub components: [CpiStack; 2],
    /// Mean GCT occupancy over the interval.
    pub gct_avg: f64,
    /// Mean LMQ occupancy over the interval.
    pub lmq_avg: f64,
    /// Priority levels at the end of the interval.
    pub priorities: [u8; 2],
    /// L2 misses per thread during the interval.
    pub l2_misses: [u64; 2],
    /// Memory (beyond-L3) accesses per thread during the interval.
    pub memory_accesses: [u64; 2],
    /// TLB misses per thread during the interval.
    pub tlb_misses: [u64; 2],
}

impl Sample {
    /// Per-thread IPC over the interval.
    #[must_use]
    pub fn ipc(&self, thread: ThreadId) -> f64 {
        if self.interval == 0 {
            0.0
        } else {
            self.committed[thread.index()] as f64 / self.interval as f64
        }
    }
}

/// A discrete (non-counter) event worth a mark on the trace timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PmuEventKind {
    /// A thread's software-controlled priority changed.
    PriorityChanged {
        /// The new level (0–7).
        level: u8,
    },
    /// A kernel entry (timer interrupt) was delivered.
    TimerInterrupt,
    /// A fault-injection hook fired (the payload names the fault).
    FaultInjected {
        /// Static name of the injected fault.
        what: &'static str,
    },
}

/// One recorded discrete event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmuInstant {
    /// PMU-local cycle of the event.
    pub cycle: u64,
    /// The thread it concerns, if thread-scoped.
    pub thread: Option<ThreadId>,
    /// What happened.
    pub kind: PmuEventKind,
}

/// The performance-monitoring unit. Owned by the core (one per core);
/// disabled cores carry `None` instead.
#[derive(Debug)]
pub struct Pmu {
    config: PmuConfig,
    cycles: u64,
    stacks: [CpiStack; 2],
    counters: PmuCounters,
    mem: SharedMemCounters,
    samples: Vec<Sample>,
    samples_dropped: u64,
    events: Vec<PmuInstant>,
    events_dropped: u64,
    // Interval state.
    cycles_in_interval: u64,
    interval_gct_sum: u64,
    interval_lmq_sum: u64,
    last_committed: [u64; 2],
    last_stacks: [CpiStack; 2],
    last_mem: MemCounters,
}

impl Pmu {
    /// Creates an idle PMU.
    #[must_use]
    pub fn new(config: PmuConfig) -> Pmu {
        Pmu {
            config,
            cycles: 0,
            stacks: [CpiStack::new(); 2],
            counters: PmuCounters::default(),
            mem: new_shared_mem_counters(),
            samples: Vec::new(),
            samples_dropped: 0,
            events: Vec::new(),
            events_dropped: 0,
            cycles_in_interval: 0,
            interval_gct_sum: 0,
            interval_lmq_sum: 0,
            last_committed: [0; 2],
            last_stacks: [CpiStack::new(); 2],
            last_mem: MemCounters::default(),
        }
    }

    /// Sets the cumulative committed-instruction counts the first
    /// sample's deltas are taken from. [`CycleRecord::committed`] is
    /// the core's running total, so a PMU attached to a core that has
    /// already committed work must start from that total, not from
    /// zero, or its first sample would absorb the whole history.
    pub fn set_committed_baseline(&mut self, committed: [u64; 2]) {
        self.last_committed = committed;
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &PmuConfig {
        &self.config
    }

    /// The shared cell the memory hierarchy should publish into (hand a
    /// clone to `MemoryHierarchy::attach_pmu_counters`).
    #[must_use]
    pub fn mem_counters(&self) -> SharedMemCounters {
        std::sync::Arc::clone(&self.mem)
    }

    /// A copy of the memory-hierarchy counters accumulated so far.
    ///
    /// Poisoning is recovered, never propagated: the hierarchy only
    /// mutates the counters while holding the lock, so a panicking
    /// neighbor cannot leave them half-updated.
    #[must_use]
    pub fn mem_snapshot(&self) -> MemCounters {
        *self
            .mem
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Cycles observed since the PMU was enabled.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The CPI stack of `thread`.
    #[must_use]
    pub fn stack(&self, thread: ThreadId) -> &CpiStack {
        &self.stacks[thread.index()]
    }

    /// The core-side counter group.
    #[must_use]
    pub fn counters(&self) -> &PmuCounters {
        &self.counters
    }

    /// The interval samples recorded so far (oldest first).
    #[must_use]
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Samples not recorded because the buffer was full.
    #[must_use]
    pub fn samples_dropped(&self) -> u64 {
        self.samples_dropped
    }

    /// The discrete events recorded so far (oldest first).
    #[must_use]
    pub fn events(&self) -> &[PmuInstant] {
        &self.events
    }

    /// Events not recorded because the buffer was full.
    #[must_use]
    pub fn events_dropped(&self) -> u64 {
        self.events_dropped
    }

    /// Mean GCT occupancy over all observed cycles.
    #[must_use]
    pub fn gct_avg(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.counters.gct_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Mean LMQ occupancy over all observed cycles.
    #[must_use]
    pub fn lmq_avg(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.counters.lmq_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// Checks the conservation law on both threads: each CPI stack must
    /// sum to exactly the observed cycle count.
    ///
    /// # Errors
    ///
    /// Returns the first mismatch, naming the thread.
    pub fn reconcile(&self) -> Result<(), String> {
        for t in ThreadId::ALL {
            self.stacks[t.index()]
                .reconcile(self.cycles)
                .map_err(|e| format!("{t}: {e}"))?;
        }
        Ok(())
    }

    /// Records one simulated cycle. Called by the core once per cycle
    /// while the PMU is enabled — this is the hot path; everything in it
    /// is branch-light array arithmetic.
    #[inline]
    pub fn on_cycle(&mut self, _core_cycle: u64, rec: &CycleRecord) {
        self.cycles += 1;
        for i in 0..2 {
            self.stacks[i].add(rec.attr[i]);
            if rec.attr[i] == CpiComponent::Balancer {
                self.counters.balancer_gates[i] += 1;
            }
        }
        if let Some(g) = rec.granted {
            let gi = g.index();
            self.counters.decode_granted[gi] += 1;
            if rec.used {
                self.counters.decode_used[gi] += 1;
            }
            if rec.stolen {
                self.counters.decode_stolen[g.other().index()] += 1;
            }
        }
        self.counters.gct_high_water = self.counters.gct_high_water.max(rec.gct_occupancy);
        self.counters.lmq_high_water = self.counters.lmq_high_water.max(rec.lmq_occupancy);
        self.counters.gct_occupancy_sum += u64::from(rec.gct_occupancy);
        self.counters.lmq_occupancy_sum += u64::from(rec.lmq_occupancy);

        if self.config.sample_interval != 0 {
            self.cycles_in_interval += 1;
            self.interval_gct_sum += u64::from(rec.gct_occupancy);
            self.interval_lmq_sum += u64::from(rec.lmq_occupancy);
            if self.cycles_in_interval == self.config.sample_interval {
                self.flush_sample(rec);
            }
        }
    }

    /// Cycles until the current sampling interval ends, or `None` when
    /// interval sampling is off. Between [`Pmu::on_cycle`] /
    /// [`Pmu::on_idle_span`] calls the value is always ≥ 1 (a completed
    /// interval flushes immediately). The core clamps idle-span jumps to
    /// this edge so a span never crosses a sample boundary.
    #[must_use]
    pub fn cycles_until_sample_edge(&self) -> Option<u64> {
        (self.config.sample_interval != 0)
            .then(|| self.config.sample_interval - self.cycles_in_interval)
    }

    /// Records a batch-skipped span of idle cycles in one update —
    /// exactly equivalent to `span.cycles` successive [`Pmu::on_cycle`]
    /// calls with the per-cycle records the span summarizes, provided
    /// the span does not cross a sampling-interval edge (the core clamps
    /// jumps with [`Pmu::cycles_until_sample_edge`]).
    pub fn on_idle_span(&mut self, span: &IdleSpanRecord) {
        let n = span.cycles;
        debug_assert!(n >= 1);
        debug_assert!(span.granted[0] + span.granted[1] <= n);
        self.cycles += n;
        for i in 0..2 {
            let g = span.granted[i];
            self.stacks[i].add_n(span.blocked_attr[i], g);
            self.stacks[i].add_n(span.idle_attr[i], n - g);
            if span.blocked_attr[i] == CpiComponent::Balancer {
                self.counters.balancer_gates[i] += g;
            }
            self.counters.decode_granted[i] += g;
        }
        self.counters.gct_high_water = self.counters.gct_high_water.max(span.gct_occupancy);
        self.counters.lmq_high_water = self.counters.lmq_high_water.max(span.lmq_occupancy);
        self.counters.gct_occupancy_sum += n * u64::from(span.gct_occupancy);
        self.counters.lmq_occupancy_sum += n * u64::from(span.lmq_occupancy);

        if self.config.sample_interval != 0 {
            self.cycles_in_interval += n;
            debug_assert!(
                self.cycles_in_interval <= self.config.sample_interval,
                "idle span crossed a sample edge; clamp with cycles_until_sample_edge"
            );
            self.interval_gct_sum += n * u64::from(span.gct_occupancy);
            self.interval_lmq_sum += n * u64::from(span.lmq_occupancy);
            if self.cycles_in_interval >= self.config.sample_interval {
                // The flush only reads the fields that are frozen over
                // the span (committed, priorities) plus the accumulated
                // interval state, so this record reproduces what the
                // last per-cycle record of the span would have said.
                let rec = CycleRecord {
                    attr: span.idle_attr,
                    granted: None,
                    used: false,
                    stolen: false,
                    gct_occupancy: span.gct_occupancy,
                    lmq_occupancy: span.lmq_occupancy,
                    committed: span.committed,
                    priorities: span.priorities,
                };
                self.flush_sample(&rec);
            }
        }
    }

    fn flush_sample(&mut self, rec: &CycleRecord) {
        let interval = self.cycles_in_interval;
        let mem = *self
            .mem
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if self.samples.len() < self.config.max_samples {
            let sample = Sample {
                cycle: self.cycles,
                interval,
                committed: [
                    rec.committed[0] - self.last_committed[0],
                    rec.committed[1] - self.last_committed[1],
                ],
                components: [
                    self.stacks[0].delta_since(&self.last_stacks[0]),
                    self.stacks[1].delta_since(&self.last_stacks[1]),
                ],
                gct_avg: self.interval_gct_sum as f64 / interval as f64,
                lmq_avg: self.interval_lmq_sum as f64 / interval as f64,
                priorities: rec.priorities,
                l2_misses: [
                    mem.l2_misses(0) - self.last_mem.l2_misses(0),
                    mem.l2_misses(1) - self.last_mem.l2_misses(1),
                ],
                memory_accesses: [
                    mem.memory_accesses(0) - self.last_mem.memory_accesses(0),
                    mem.memory_accesses(1) - self.last_mem.memory_accesses(1),
                ],
                tlb_misses: [
                    mem.tlb_misses[0] - self.last_mem.tlb_misses[0],
                    mem.tlb_misses[1] - self.last_mem.tlb_misses[1],
                ],
            };
            self.samples.push(sample);
        } else {
            self.samples_dropped += 1;
        }
        self.last_committed = rec.committed;
        self.last_stacks = self.stacks;
        self.last_mem = mem;
        self.cycles_in_interval = 0;
        self.interval_gct_sum = 0;
        self.interval_lmq_sum = 0;
    }

    /// Records a discrete event at the PMU-local current cycle.
    pub fn record_instant(&mut self, thread: Option<ThreadId>, kind: PmuEventKind) {
        if matches!(kind, PmuEventKind::PriorityChanged { .. }) {
            if let Some(t) = thread {
                self.counters.priority_changes[t.index()] += 1;
            }
        }
        if matches!(kind, PmuEventKind::TimerInterrupt) {
            self.counters.kernel_entries += 1;
        }
        if self.events.len() < self.config.max_events {
            self.events.push(PmuInstant {
                cycle: self.cycles,
                thread,
                kind,
            });
        } else {
            self.events_dropped += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(attr: [CpiComponent; 2], committed: [u64; 2]) -> CycleRecord {
        CycleRecord {
            attr,
            granted: Some(ThreadId::T0),
            used: attr[0] == CpiComponent::Base,
            stolen: attr[0] != CpiComponent::Base && attr[1] == CpiComponent::Base,
            gct_occupancy: 2,
            lmq_occupancy: 1,
            committed,
            priorities: [4, 4],
        }
    }

    #[test]
    fn cycles_and_stacks_accumulate() {
        let mut pmu = Pmu::new(PmuConfig::counters_only());
        pmu.on_cycle(
            1,
            &rec([CpiComponent::Base, CpiComponent::DecodeStarved], [4, 0]),
        );
        pmu.on_cycle(2, &rec([CpiComponent::GctFull, CpiComponent::Base], [4, 3]));
        assert_eq!(pmu.cycles(), 2);
        assert_eq!(pmu.stack(ThreadId::T0).get(CpiComponent::Base), 1);
        assert_eq!(pmu.stack(ThreadId::T1).get(CpiComponent::Base), 1);
        pmu.reconcile().unwrap();
        assert_eq!(pmu.counters().decode_granted[0], 2);
        assert_eq!(pmu.counters().decode_used[0], 1);
        assert_eq!(pmu.counters().decode_stolen[1], 1);
        assert_eq!(pmu.counters().gct_high_water, 2);
        assert!((pmu.gct_avg() - 2.0).abs() < 1e-12);
        assert!((pmu.lmq_avg() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mem_snapshot_recovers_from_poisoned_counter_cell() {
        let pmu = Pmu::new(PmuConfig::counters_only());
        let cell = pmu.mem_counters();
        // Poison the shared cell the way a panicking neighbor cell would:
        // panic while holding the lock, after a consistent update.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut c = cell.lock().unwrap();
            c.accesses[0] = 7;
            panic!("neighbor cell crashed mid-simulation");
        }));
        assert!(cell.lock().is_err(), "lock should be poisoned");
        assert_eq!(pmu.mem_snapshot().accesses[0], 7);
    }

    #[test]
    fn sampling_produces_interval_deltas() {
        let mut pmu = Pmu::new(PmuConfig::sampling(2));
        for c in 1..=6u64 {
            pmu.on_cycle(
                c,
                &rec([CpiComponent::Base, CpiComponent::Idle], [c * 3, 0]),
            );
        }
        assert_eq!(pmu.samples().len(), 3);
        let s = &pmu.samples()[1];
        assert_eq!(s.cycle, 4);
        assert_eq!(s.interval, 2);
        assert_eq!(s.committed[0], 6);
        assert!((s.ipc(ThreadId::T0) - 3.0).abs() < 1e-12);
        assert_eq!(s.components[0].get(CpiComponent::Base), 2);
    }

    #[test]
    fn sample_buffer_bounds_and_counts_drops() {
        let mut pmu = Pmu::new(PmuConfig {
            sample_interval: 1,
            max_samples: 2,
            max_events: 1,
        });
        for c in 1..=5u64 {
            pmu.on_cycle(c, &rec([CpiComponent::Base, CpiComponent::Idle], [c, 0]));
        }
        assert_eq!(pmu.samples().len(), 2);
        assert_eq!(pmu.samples_dropped(), 3);
        pmu.record_instant(None, PmuEventKind::TimerInterrupt);
        pmu.record_instant(None, PmuEventKind::TimerInterrupt);
        assert_eq!(pmu.events().len(), 1);
        assert_eq!(pmu.events_dropped(), 1);
        assert_eq!(pmu.counters().kernel_entries, 2);
    }

    #[test]
    fn instants_update_counters() {
        let mut pmu = Pmu::new(PmuConfig::counters_only());
        pmu.record_instant(
            Some(ThreadId::T1),
            PmuEventKind::PriorityChanged { level: 6 },
        );
        assert_eq!(pmu.counters().priority_changes[1], 1);
        assert_eq!(pmu.events().len(), 1);
        assert_eq!(pmu.events()[0].thread, Some(ThreadId::T1));
    }

    #[test]
    fn mem_counters_flow_into_samples() {
        let mut pmu = Pmu::new(PmuConfig::sampling(1));
        let cell = pmu.mem_counters();
        cell.lock().unwrap().served_by[3][0] = 7;
        cell.lock().unwrap().tlb_misses[0] = 2;
        pmu.on_cycle(1, &rec([CpiComponent::Base, CpiComponent::Idle], [1, 0]));
        let s = &pmu.samples()[0];
        assert_eq!(s.memory_accesses[0], 7);
        assert_eq!(s.l2_misses[0], 7);
        assert_eq!(s.tlb_misses[0], 2);
        assert_eq!(pmu.mem_snapshot().served_by[3][0], 7);
    }

    #[test]
    fn idle_span_is_equivalent_to_per_cycle_records() {
        // Feed one PMU ten per-cycle idle records (T0 granted-but-
        // blocked on odd cycles, T1 starved throughout) and another the
        // same span as two batched chunks split at the sampling-interval
        // edge. Every observable must match exactly.
        let cycle_rec = |granted: Option<ThreadId>, attr0: CpiComponent| CycleRecord {
            attr: [attr0, CpiComponent::DecodeStarved],
            granted,
            used: false,
            stolen: false,
            gct_occupancy: 5,
            lmq_occupancy: 2,
            committed: [100, 40],
            priorities: [6, 1],
        };
        let mut per_cycle = Pmu::new(PmuConfig::sampling(8));
        for c in 1..=10u64 {
            let granted = (c % 2 == 1).then_some(ThreadId::T0);
            let attr0 = if granted.is_some() {
                CpiComponent::CacheMiss
            } else {
                CpiComponent::DecodeStarved
            };
            per_cycle.on_cycle(c, &cycle_rec(granted, attr0));
        }

        let mut batched = Pmu::new(PmuConfig::sampling(8));
        let span = |cycles: u64, granted0: u64| IdleSpanRecord {
            cycles,
            granted: [granted0, 0],
            blocked_attr: [CpiComponent::CacheMiss, CpiComponent::Idle],
            idle_attr: [CpiComponent::DecodeStarved; 2],
            gct_occupancy: 5,
            lmq_occupancy: 2,
            committed: [100, 40],
            priorities: [6, 1],
        };
        // Cycles 1..=8 (five odd-granted slots... no: 1,3,5,7 -> 4),
        // then 9..=10 (cycle 9 granted -> 1), split exactly at the
        // sample edge as the engine's clamp guarantees.
        assert_eq!(batched.cycles_until_sample_edge(), Some(8));
        batched.on_idle_span(&span(8, 4));
        assert_eq!(batched.cycles_until_sample_edge(), Some(8));
        batched.on_idle_span(&span(2, 1));

        assert_eq!(batched.cycles(), per_cycle.cycles());
        assert_eq!(batched.stack(ThreadId::T0), per_cycle.stack(ThreadId::T0));
        assert_eq!(batched.stack(ThreadId::T1), per_cycle.stack(ThreadId::T1));
        assert_eq!(
            format!("{:?}", batched.counters()),
            format!("{:?}", per_cycle.counters())
        );
        assert_eq!(
            format!("{:?}", batched.samples()),
            format!("{:?}", per_cycle.samples())
        );
        batched.reconcile().unwrap();
        per_cycle.reconcile().unwrap();
    }

    #[test]
    fn idle_span_balancer_cause_counts_gate_cycles() {
        let mut pmu = Pmu::new(PmuConfig::counters_only());
        pmu.on_idle_span(&IdleSpanRecord {
            cycles: 7,
            granted: [3, 0],
            blocked_attr: [CpiComponent::Balancer, CpiComponent::Idle],
            idle_attr: [CpiComponent::DecodeStarved, CpiComponent::Idle],
            gct_occupancy: 4,
            lmq_occupancy: 1,
            committed: [10, 0],
            priorities: [4, 4],
        });
        assert_eq!(pmu.counters().balancer_gates[0], 3);
        assert_eq!(pmu.counters().decode_granted[0], 3);
        assert_eq!(pmu.stack(ThreadId::T0).get(CpiComponent::Balancer), 3);
        assert_eq!(pmu.stack(ThreadId::T0).get(CpiComponent::DecodeStarved), 4);
        assert_eq!(pmu.stack(ThreadId::T1).get(CpiComponent::Idle), 7);
        assert_eq!(pmu.counters().gct_high_water, 4);
        assert_eq!(pmu.counters().gct_occupancy_sum, 28);
        pmu.reconcile().unwrap();
    }
}
