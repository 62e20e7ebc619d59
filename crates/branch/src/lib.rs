//! # p5-branch
//!
//! Branch-prediction models for the POWER5 priority reproduction.
//!
//! POWER5 predicts conditional branches with a shared Branch History Table
//! (BHT); both SMT contexts index the same arrays, so the paper lists the
//! BHT among the resources threads share. This crate provides:
//!
//! * [`Bimodal`] — a classic 2-bit-saturating-counter BHT.
//! * [`Gshare`] — global-history-xor-PC indexed BHT with per-thread
//!   history registers (history is thread state; the table is shared).
//! * [`StaticTaken`] — always-taken baseline, useful in ablations.
//! * [`Predictor`] — an enum over the above so the core stays
//!   monomorphic and fast.
//!
//! # Example
//!
//! ```
//! use p5_branch::{Bimodal, BranchPredictorOps};
//! use p5_isa::ThreadId;
//!
//! let mut bht = Bimodal::new(1024);
//! // A constant-direction branch is learned after a couple of updates.
//! for _ in 0..4 {
//!     let _ = bht.predict(ThreadId::T0, 0x40);
//!     bht.update(ThreadId::T0, 0x40, true);
//! }
//! assert!(bht.predict(ThreadId::T0, 0x40));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use p5_isa::ThreadId;

/// Prediction/misprediction counters, per context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BranchStats {
    /// Conditional branches resolved per context.
    pub resolved: [u64; 2],
    /// Mispredictions per context.
    pub mispredicted: [u64; 2],
}

impl BranchStats {
    /// Misprediction ratio for one context (0 when nothing resolved).
    #[must_use]
    pub fn mispredict_ratio(&self, thread: ThreadId) -> f64 {
        let i = thread.index();
        if self.resolved[i] == 0 {
            0.0
        } else {
            self.mispredicted[i] as f64 / self.resolved[i] as f64
        }
    }
}

/// Operations common to every predictor.
///
/// The caller (the core's fetch stage) calls [`predict`] when it encounters
/// a conditional branch, and [`update`] with the actual outcome at
/// resolution. The predictor keeps its own accuracy statistics via
/// [`record`], which the core invokes once per resolved branch.
///
/// [`predict`]: BranchPredictorOps::predict
/// [`update`]: BranchPredictorOps::update
/// [`record`]: BranchPredictorOps::record
pub trait BranchPredictorOps {
    /// Predicts the direction of the branch at `pc` for `thread`.
    fn predict(&mut self, thread: ThreadId, pc: u64) -> bool;

    /// Trains the predictor with the resolved direction.
    fn update(&mut self, thread: ThreadId, pc: u64, taken: bool);

    /// Records accuracy bookkeeping for a resolved branch.
    fn record(&mut self, thread: ThreadId, mispredicted: bool);

    /// Accuracy counters.
    fn stats(&self) -> &BranchStats;
}

/// 2-bit saturating-counter bimodal BHT, shared between contexts.
#[derive(Debug, Clone)]
pub struct Bimodal {
    counters: Vec<u8>,
    mask: u64,
    stats: BranchStats,
}

impl Bimodal {
    /// Creates a BHT with `entries` 2-bit counters, initialized to
    /// weakly-taken.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    #[must_use]
    pub fn new(entries: usize) -> Bimodal {
        assert!(
            entries.is_power_of_two(),
            "BHT entries must be a power of two"
        );
        Bimodal {
            counters: vec![2; entries],
            mask: entries as u64 - 1,
            stats: BranchStats::default(),
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }
}

impl BranchPredictorOps for Bimodal {
    fn predict(&mut self, _thread: ThreadId, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    fn update(&mut self, _thread: ThreadId, pc: u64, taken: bool) {
        let i = self.index(pc);
        let c = &mut self.counters[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    fn record(&mut self, thread: ThreadId, mispredicted: bool) {
        self.stats.resolved[thread.index()] += 1;
        if mispredicted {
            self.stats.mispredicted[thread.index()] += 1;
        }
    }

    fn stats(&self) -> &BranchStats {
        &self.stats
    }
}

/// Gshare predictor: shared 2-bit counter table indexed by
/// `pc ^ global_history`, with a per-thread history register.
#[derive(Debug, Clone)]
pub struct Gshare {
    counters: Vec<u8>,
    mask: u64,
    history: [u64; 2],
    history_bits: u32,
    stats: BranchStats,
}

impl Gshare {
    /// Creates a gshare predictor with `entries` counters and
    /// `history_bits` bits of per-thread global history.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two or `history_bits > 32`.
    #[must_use]
    pub fn new(entries: usize, history_bits: u32) -> Gshare {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        assert!(history_bits <= 32, "history too long");
        Gshare {
            counters: vec![2; entries],
            mask: entries as u64 - 1,
            history: [0; 2],
            history_bits,
            stats: BranchStats::default(),
        }
    }

    fn index(&self, thread: ThreadId, pc: u64) -> usize {
        (((pc >> 2) ^ self.history[thread.index()]) & self.mask) as usize
    }
}

impl BranchPredictorOps for Gshare {
    fn predict(&mut self, thread: ThreadId, pc: u64) -> bool {
        self.counters[self.index(thread, pc)] >= 2
    }

    fn update(&mut self, thread: ThreadId, pc: u64, taken: bool) {
        let i = self.index(thread, pc);
        let c = &mut self.counters[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        let h = &mut self.history[thread.index()];
        *h = ((*h << 1) | u64::from(taken)) & ((1u64 << self.history_bits) - 1);
    }

    fn record(&mut self, thread: ThreadId, mispredicted: bool) {
        self.stats.resolved[thread.index()] += 1;
        if mispredicted {
            self.stats.mispredicted[thread.index()] += 1;
        }
    }

    fn stats(&self) -> &BranchStats {
        &self.stats
    }
}

/// Always predicts taken. Baseline for ablation benches.
#[derive(Debug, Clone, Default)]
pub struct StaticTaken {
    stats: BranchStats,
}

impl StaticTaken {
    /// Creates the predictor.
    #[must_use]
    pub fn new() -> StaticTaken {
        StaticTaken::default()
    }
}

impl BranchPredictorOps for StaticTaken {
    fn predict(&mut self, _thread: ThreadId, _pc: u64) -> bool {
        true
    }

    fn update(&mut self, _thread: ThreadId, _pc: u64, _taken: bool) {}

    fn record(&mut self, thread: ThreadId, mispredicted: bool) {
        self.stats.resolved[thread.index()] += 1;
        if mispredicted {
            self.stats.mispredicted[thread.index()] += 1;
        }
    }

    fn stats(&self) -> &BranchStats {
        &self.stats
    }
}

/// A concrete predictor choice, dispatched without trait objects so the
/// core's hot loop stays monomorphic.
#[derive(Debug, Clone)]
pub enum Predictor {
    /// Bimodal BHT (the default; closest to the POWER5 BHT).
    Bimodal(Bimodal),
    /// Gshare.
    Gshare(Gshare),
    /// Static always-taken.
    StaticTaken(StaticTaken),
}

impl Predictor {
    /// The default POWER5-like predictor: a 16K-entry bimodal BHT.
    #[must_use]
    pub fn power5_like() -> Predictor {
        Predictor::Bimodal(Bimodal::new(16 * 1024))
    }
}

impl BranchPredictorOps for Predictor {
    fn predict(&mut self, thread: ThreadId, pc: u64) -> bool {
        match self {
            Predictor::Bimodal(p) => p.predict(thread, pc),
            Predictor::Gshare(p) => p.predict(thread, pc),
            Predictor::StaticTaken(p) => p.predict(thread, pc),
        }
    }

    fn update(&mut self, thread: ThreadId, pc: u64, taken: bool) {
        match self {
            Predictor::Bimodal(p) => p.update(thread, pc, taken),
            Predictor::Gshare(p) => p.update(thread, pc, taken),
            Predictor::StaticTaken(p) => p.update(thread, pc, taken),
        }
    }

    fn record(&mut self, thread: ThreadId, mispredicted: bool) {
        match self {
            Predictor::Bimodal(p) => p.record(thread, mispredicted),
            Predictor::Gshare(p) => p.record(thread, mispredicted),
            Predictor::StaticTaken(p) => p.record(thread, mispredicted),
        }
    }

    fn stats(&self) -> &BranchStats {
        match self {
            Predictor::Bimodal(p) => p.stats(),
            Predictor::Gshare(p) => p.stats(),
            Predictor::StaticTaken(p) => p.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_learns_constant_direction() {
        let mut p = Bimodal::new(64);
        for _ in 0..4 {
            p.update(ThreadId::T0, 0x100, false);
        }
        assert!(!p.predict(ThreadId::T0, 0x100));
        for _ in 0..4 {
            p.update(ThreadId::T0, 0x100, true);
        }
        assert!(p.predict(ThreadId::T0, 0x100));
    }

    #[test]
    fn bimodal_counters_saturate() {
        let mut p = Bimodal::new(64);
        for _ in 0..100 {
            p.update(ThreadId::T0, 0x0, true);
        }
        // One not-taken outcome must not flip a saturated counter.
        p.update(ThreadId::T0, 0x0, false);
        assert!(p.predict(ThreadId::T0, 0x0));
    }

    #[test]
    fn bimodal_is_shared_between_threads() {
        let mut p = Bimodal::new(64);
        for _ in 0..4 {
            p.update(ThreadId::T0, 0x200, false);
        }
        // T1 sees T0's training for the same pc: shared BHT.
        assert!(!p.predict(ThreadId::T1, 0x200));
    }

    #[test]
    fn bimodal_alternating_pattern_mispredicts_half() {
        let mut p = Bimodal::new(64);
        let mut mispredicts = 0;
        let mut taken = false;
        for _ in 0..1000 {
            taken = !taken;
            if p.predict(ThreadId::T0, 0x40) != taken {
                mispredicts += 1;
            }
            p.update(ThreadId::T0, 0x40, taken);
        }
        // A strict alternation defeats a 2-bit counter almost completely.
        assert!(
            mispredicts >= 400,
            "expected heavy misprediction, got {mispredicts}/1000"
        );
    }

    #[test]
    fn gshare_learns_alternation_via_history() {
        let mut p = Gshare::new(1024, 8);
        let mut mispredicts = 0;
        let mut taken = false;
        for i in 0..2000 {
            taken = !taken;
            if p.predict(ThreadId::T0, 0x40) != taken && i >= 1000 {
                mispredicts += 1;
            }
            p.update(ThreadId::T0, 0x40, taken);
        }
        // After warm-up, history disambiguates the alternation.
        assert!(
            mispredicts < 50,
            "gshare should learn alternation, got {mispredicts}/1000"
        );
    }

    #[test]
    fn static_taken_always_taken() {
        let mut p = StaticTaken::new();
        assert!(p.predict(ThreadId::T0, 0));
        p.update(ThreadId::T0, 0, false);
        assert!(p.predict(ThreadId::T0, 0));
    }

    #[test]
    fn stats_tracking() {
        let mut p = Predictor::power5_like();
        p.record(ThreadId::T0, true);
        p.record(ThreadId::T0, false);
        p.record(ThreadId::T1, false);
        let s = p.stats();
        assert_eq!(s.resolved, [2, 1]);
        assert_eq!(s.mispredicted, [1, 0]);
        assert!((s.mispredict_ratio(ThreadId::T0) - 0.5).abs() < 1e-12);
        assert_eq!(s.mispredict_ratio(ThreadId::T1), 0.0);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_size_panics() {
        let _ = Bimodal::new(100);
    }

    #[test]
    fn predictor_enum_dispatch() {
        let mut p = Predictor::Gshare(Gshare::new(256, 4));
        let _ = p.predict(ThreadId::T0, 0x10);
        p.update(ThreadId::T0, 0x10, true);
        let mut q = Predictor::StaticTaken(StaticTaken::new());
        assert!(q.predict(ThreadId::T1, 0));
    }
}
