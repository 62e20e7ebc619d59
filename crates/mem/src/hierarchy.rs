//! The three-level shared hierarchy.

use crate::cache::{Cache, CacheStats};
use crate::config::MemConfig;
use crate::tlb::{Tlb, TlbStats};
use p5_isa::ThreadId;
use p5_pmu::SharedMemCounters;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// The level that served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// First-level data cache.
    L1,
    /// Second-level cache.
    L2,
    /// Third-level cache.
    L3,
    /// Main memory.
    Memory,
}

impl fmt::Display for HitLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HitLevel::L1 => write!(f, "L1"),
            HitLevel::L2 => write!(f, "L2"),
            HitLevel::L3 => write!(f, "L3"),
            HitLevel::Memory => write!(f, "memory"),
        }
    }
}

/// Result of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// The level that served the data.
    pub level: HitLevel,
    /// Total load-to-use latency in cycles, including any TLB-walk
    /// penalty.
    pub latency: u64,
    /// Whether the access walked the TLB.
    pub tlb_miss: bool,
}

/// Per-thread counters aggregated across the hierarchy, consumed by the
/// core's dynamic resource balancer ("a thread reaches a threshold of L2
/// cache or TLB misses", paper Section 3.1) and the experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Demand accesses per context.
    pub accesses: [u64; 2],
    /// Accesses served by each level, per context (indexed L1/L2/L3/Mem).
    pub served_by: [[u64; 2]; 4],
}

impl MemStats {
    /// Accesses by `thread` that missed the L2 (i.e. were served by L3 or
    /// memory) — the balancer's "L2 miss" signal.
    #[must_use]
    pub fn l2_misses(&self, thread: ThreadId) -> u64 {
        let i = thread.index();
        self.served_by[2][i] + self.served_by[3][i]
    }

    /// Accesses by `thread` served by main memory.
    #[must_use]
    pub fn memory_accesses(&self, thread: ThreadId) -> u64 {
        self.served_by[3][thread.index()]
    }
}

/// Handles to the cache levels POWER5 shares *between cores* of the
/// dual-core chip: the L2, the L3, and (for modeling simplicity) the
/// TLB. Build one with [`SharedCaches::new`] and hand clones of it to the
/// hierarchies of both cores; the single-core [`MemoryHierarchy::new`]
/// constructor creates a private set.
///
/// Statistics inside the shared caches attribute accesses by context
/// index only, so in a two-core chip the same-numbered contexts of both
/// cores are merged there; the per-hierarchy [`MemStats`] remain
/// per-core.
#[derive(Debug, Clone)]
pub struct SharedCaches {
    l2: Arc<Mutex<Cache>>,
    l3: Arc<Mutex<Cache>>,
    dtlb: Arc<Mutex<Tlb>>,
}

impl SharedCaches {
    /// Creates a cold set of shared levels for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    #[must_use]
    pub fn new(config: &MemConfig) -> SharedCaches {
        config.validate();
        SharedCaches {
            l2: Arc::new(Mutex::new(Cache::new(config.l2))),
            l3: Arc::new(Mutex::new(Cache::new(config.l3))),
            dtlb: Arc::new(Mutex::new(Tlb::new(config.dtlb))),
        }
    }

    // `Arc<Mutex<_>>` (rather than `Rc<RefCell<_>>`) makes a hierarchy —
    // and the core that owns it — `Send`, so the campaign engine can run
    // one simulation per worker thread. Within one chip the simulation
    // is still single-threaded, so the locks are never contended; each
    // access is a single uncontested atomic.
    //
    // Poisoning is *recovered*, not propagated: a panic can only leave a
    // guard mid-flight on the panicking worker's own chip, and every
    // mutation under these locks (cache/TLB lookups and fills) completes
    // before the guard drops, so the protected data is always
    // consistent. Propagating the poison would cascade one crashed cell
    // into every neighbor sharing the chip.
    fn l2(&self) -> MutexGuard<'_, Cache> {
        self.l2
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn l3(&self) -> MutexGuard<'_, Cache> {
        self.l3
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    fn dtlb(&self) -> MutexGuard<'_, Tlb> {
        self.dtlb
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// L2/L3/TLB levels owned outright by one hierarchy — the single-core
/// case, which is every campaign cell. Boxed so the enum stays small and
/// the (large) caches live in one contiguous allocation.
#[derive(Debug)]
struct PrivateLevels {
    l2: Cache,
    l3: Cache,
    dtlb: Tlb,
}

/// How a hierarchy reaches its beyond-L1 levels.
///
/// `Private` is the default and the hot path: the levels are plain
/// fields, so an access touches no `Arc`, no `Mutex` and no atomics at
/// all. `Shared` routes through [`SharedCaches`] handles and exists only
/// for the dual-core `Chip`, where both cores must see one another's
/// traffic (and the locks, while always uncontended within one
/// simulation thread, keep the hierarchy `Send` for the campaign
/// worker pool).
#[derive(Debug)]
enum Levels {
    Private(Box<PrivateLevels>),
    Shared(SharedCaches),
}

/// Read access to a level that is either a plain field or behind a
/// mutex; derefs to the level either way.
enum LevelRead<'a, T> {
    Plain(&'a T),
    Locked(MutexGuard<'a, T>),
}

impl<T> std::ops::Deref for LevelRead<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        match self {
            LevelRead::Plain(t) => t,
            LevelRead::Locked(g) => g,
        }
    }
}

/// The full data-side memory hierarchy seen by one core: a private L1D
/// plus the (potentially cross-core) shared L2, L3 and data TLB, and a
/// next-line prefetcher. Within a core, both SMT contexts share every
/// level, as on POWER5.
///
/// See the crate docs for the functional-with-latency contract.
#[derive(Debug)]
pub struct MemoryHierarchy {
    config: MemConfig,
    l1d: Cache,
    levels: Levels,
    stats: MemStats,
    /// Last line accessed per context, to detect sequential streams for
    /// the prefetcher.
    last_line: [Option<u64>; 2],
    /// PMU counter cell this hierarchy publishes into, if one is
    /// attached. `None` (the default) keeps [`Self::access`] free of any
    /// instrumentation cost beyond this single check.
    pmu: Option<SharedMemCounters>,
}

impl MemoryHierarchy {
    /// Creates a cold hierarchy with *private* L2/L3/TLB: every level is
    /// an inline field, so the access path is entirely lock-free. This is
    /// the constructor used by single-core simulations (every campaign
    /// cell); cores of a chip use [`MemoryHierarchy::with_shared`].
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`MemConfig::validate`]).
    #[must_use]
    pub fn new(config: MemConfig) -> MemoryHierarchy {
        config.validate();
        MemoryHierarchy {
            l1d: Cache::new(config.l1d),
            levels: Levels::Private(Box::new(PrivateLevels {
                l2: Cache::new(config.l2),
                l3: Cache::new(config.l3),
                dtlb: Tlb::new(config.dtlb),
            })),
            stats: MemStats::default(),
            last_line: [None; 2],
            pmu: None,
            config,
        }
    }

    /// Creates a hierarchy whose L2/L3/TLB are the given shared levels —
    /// this is how the two cores of a chip (`p5-core`'s `Chip`) see one
    /// another's traffic.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid.
    #[must_use]
    pub fn with_shared(config: MemConfig, shared: SharedCaches) -> MemoryHierarchy {
        config.validate();
        MemoryHierarchy {
            l1d: Cache::new(config.l1d),
            levels: Levels::Shared(shared),
            stats: MemStats::default(),
            last_line: [None; 2],
            pmu: None,
            config,
        }
    }

    fn l2_ref(&self) -> LevelRead<'_, Cache> {
        match &self.levels {
            Levels::Private(p) => LevelRead::Plain(&p.l2),
            Levels::Shared(s) => LevelRead::Locked(s.l2()),
        }
    }

    fn l3_ref(&self) -> LevelRead<'_, Cache> {
        match &self.levels {
            Levels::Private(p) => LevelRead::Plain(&p.l3),
            Levels::Shared(s) => LevelRead::Locked(s.l3()),
        }
    }

    fn dtlb_ref(&self) -> LevelRead<'_, Tlb> {
        match &self.levels {
            Levels::Private(p) => LevelRead::Plain(&p.dtlb),
            Levels::Shared(s) => LevelRead::Locked(s.dtlb()),
        }
    }

    /// Attaches a PMU counter cell; subsequent accesses publish into it.
    pub fn attach_pmu_counters(&mut self, counters: SharedMemCounters) {
        self.pmu = Some(counters);
    }

    /// Detaches the PMU counter cell, returning accesses to their
    /// uninstrumented cost.
    pub fn detach_pmu_counters(&mut self) {
        self.pmu = None;
    }

    /// The configuration this hierarchy was built with.
    #[must_use]
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// Aggregated per-thread statistics.
    #[must_use]
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// L1 cache statistics (private to this core).
    #[must_use]
    pub fn l1_stats(&self) -> &CacheStats {
        self.l1d.stats()
    }

    /// L2 cache statistics (merged across cores if the level is shared).
    #[must_use]
    pub fn l2_stats(&self) -> CacheStats {
        *self.l2_ref().stats()
    }

    /// L3 cache statistics (merged across cores if the level is shared).
    #[must_use]
    pub fn l3_stats(&self) -> CacheStats {
        *self.l3_ref().stats()
    }

    /// TLB statistics (merged across cores if the level is shared).
    #[must_use]
    pub fn tlb_stats(&self) -> TlbStats {
        *self.dtlb_ref().stats()
    }

    /// Valid lines resident per cache level (`[L1, L2, L3]`) — the
    /// cheapest way for tests and diagnostics to compare warm states,
    /// e.g. after a functional versus a detailed warmup.
    #[must_use]
    pub fn resident_lines(&self) -> [usize; 3] {
        [
            self.l1d.resident_lines(),
            self.l2_ref().resident_lines(),
            self.l3_ref().resident_lines(),
        ]
    }

    /// Resets all statistics; cache and TLB contents are preserved (the
    /// FAME methodology measures with warm state).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.l1d.reset_stats();
        match &mut self.levels {
            Levels::Private(p) => {
                p.l2.reset_stats();
                p.l3.reset_stats();
                p.dtlb.reset_stats();
            }
            Levels::Shared(s) => {
                s.l2().reset_stats();
                s.l3().reset_stats();
                s.dtlb().reset_stats();
            }
        }
    }

    /// Performs a demand access (load or store; the model allocates on
    /// write like POWER5's store-through-L1/allocate-L2 simplified to
    /// allocate-everywhere) and returns where it was served and its
    /// total latency.
    ///
    /// `#[inline]`: the walk sits on the per-load hot path of *both*
    /// engine speeds; with two call sites in the core the inliner needs
    /// the hint to keep treating it as it did when there was one.
    #[inline]
    pub fn access(&mut self, thread: ThreadId, addr: u64, is_store: bool) -> Access {
        // Destructure so the walk can borrow the levels and the rest of
        // the hierarchy independently. On the private path this compiles
        // down to plain field accesses — no `Arc`, no `Mutex`, no
        // atomics; the shared (dual-core chip) path takes its uncontended
        // locks once up front.
        let MemoryHierarchy {
            config,
            l1d,
            levels,
            stats,
            last_line,
            pmu,
        } = self;
        match levels {
            Levels::Private(p) => access_walk(
                config,
                l1d,
                &mut p.l2,
                &mut p.l3,
                &mut p.dtlb,
                stats,
                last_line,
                pmu.as_ref(),
                thread,
                addr,
                is_store,
            ),
            Levels::Shared(s) => {
                let mut l2 = s.l2();
                let mut l3 = s.l3();
                let mut dtlb = s.dtlb();
                access_walk(
                    config,
                    l1d,
                    &mut l2,
                    &mut l3,
                    &mut dtlb,
                    stats,
                    last_line,
                    pmu.as_ref(),
                    thread,
                    addr,
                    is_store,
                )
            }
        }
    }

    /// Checks, without disturbing any state, whether `addr` would hit the
    /// L1. The core's load/store unit uses this to decide if an access
    /// needs a load-miss-queue entry *before* performing it.
    #[must_use]
    pub fn probe_l1(&self, addr: u64) -> bool {
        self.l1d.probe(addr)
    }

    /// Invalidates all cache levels (not the TLB).
    pub fn invalidate_caches(&mut self) {
        self.l1d.invalidate_all();
        match &mut self.levels {
            Levels::Private(p) => {
                p.l2.invalidate_all();
                p.l3.invalidate_all();
            }
            Levels::Shared(s) => {
                s.l2().invalidate_all();
                s.l3().invalidate_all();
            }
        }
        self.last_line = [None; 2];
    }
}

/// The level walk shared by the private and shared access paths; order
/// of operations (TLB first, then L1→L2→L3→memory, fills downward,
/// prefetch, PMU publish) is identical on both, which is what keeps
/// single-core results bit-identical regardless of storage.
#[allow(clippy::too_many_arguments)]
fn access_walk(
    config: &MemConfig,
    l1d: &mut Cache,
    l2: &mut Cache,
    l3: &mut Cache,
    dtlb: &mut Tlb,
    stats: &mut MemStats,
    last_line: &mut [Option<u64>; 2],
    pmu: Option<&SharedMemCounters>,
    thread: ThreadId,
    addr: u64,
    is_store: bool,
) -> Access {
    let i = thread.index();
    stats.accesses[i] += 1;

    let tlb_penalty = dtlb.access(thread, addr);
    let tlb_miss = tlb_penalty > 0;

    let (level, base_latency) = if l1d.access(thread, addr) {
        (HitLevel::L1, config.l1d.latency)
    } else if l2.access(thread, addr) {
        l1d.fill(addr);
        (HitLevel::L2, config.l2.latency)
    } else if l3.access(thread, addr) {
        l1d.fill(addr);
        l2.fill(addr);
        (HitLevel::L3, config.l3.latency)
    } else {
        l1d.fill(addr);
        l2.fill(addr);
        l3.fill(addr);
        (HitLevel::Memory, config.memory_latency)
    };

    stats.served_by[level_index(level)][i] += 1;

    // Next-line prefetch: on an L1 miss that continues a sequential
    // line stream, pull the following lines into L2.
    if level != HitLevel::L1 && config.prefetch_depth > 0 {
        let line = addr / config.l1d.line_bytes;
        if last_line[i] == Some(line.wrapping_sub(1)) {
            for k in 1..=config.prefetch_depth {
                let paddr = (line + k) * config.l1d.line_bytes;
                if !l2.probe(paddr) {
                    l2.fill_prefetch(paddr);
                }
            }
        }
        last_line[i] = Some(line);
    } else if level != HitLevel::L1 {
        last_line[i] = Some(addr / config.l1d.line_bytes);
    }

    if let Some(pmu) = pmu {
        // Recover (never propagate) poisoning: counter bumps are atomic
        // with respect to the guard, so a panicking neighbor cannot
        // leave the counters half-updated.
        let mut c = pmu
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        c.accesses[i] += 1;
        c.served_by[level_index(level)][i] += 1;
        if tlb_miss {
            c.tlb_misses[i] += 1;
        }
        if is_store {
            c.stores[i] += 1;
        }
    }

    Access {
        level,
        latency: base_latency + tlb_penalty,
        tlb_miss,
    }
}

fn level_index(level: HitLevel) -> usize {
    match level {
        HitLevel::L1 => 0,
        HitLevel::L2 => 1,
        HitLevel::L3 => 2,
        HitLevel::Memory => 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> MemoryHierarchy {
        MemoryHierarchy::new(MemConfig::tiny_for_tests())
    }

    #[test]
    fn cold_miss_goes_to_memory_then_l1() {
        let mut m = tiny();
        let a = m.access(ThreadId::T0, 0x4000, false);
        assert_eq!(a.level, HitLevel::Memory);
        assert!(a.tlb_miss);
        assert!(a.latency >= m.config().memory_latency);
        let b = m.access(ThreadId::T0, 0x4000, false);
        assert_eq!(b.level, HitLevel::L1);
        assert!(!b.tlb_miss);
        assert_eq!(b.latency, m.config().l1d.latency);
    }

    #[test]
    fn l1_eviction_leaves_line_in_l2() {
        let mut m = tiny(); // L1 1KiB (16 lines of 64B), L2 8KiB
                            // Fill 32 distinct lines: more than L1, less than L2.
        for i in 0..32u64 {
            m.access(ThreadId::T0, i * 64, false);
        }
        // The first line fell out of L1 but must still be in L2.
        let a = m.access(ThreadId::T0, 0, false);
        assert_eq!(a.level, HitLevel::L2);
    }

    #[test]
    fn l2_eviction_leaves_line_in_l3() {
        let mut m = tiny(); // L2 8KiB = 128 lines; L3 64KiB = 1024 lines
        for i in 0..512u64 {
            m.access(ThreadId::T0, i * 64, false);
        }
        let a = m.access(ThreadId::T0, 0, false);
        assert_eq!(a.level, HitLevel::L3);
    }

    #[test]
    fn footprint_beyond_l3_hits_memory_steadily() {
        let mut m = tiny(); // L3 64KiB
        let lines = 4096u64; // 256 KiB footprint
        for round in 0..2 {
            for i in 0..lines {
                let a = m.access(ThreadId::T0, i * 64, false);
                if round == 1 {
                    // LRU + working set 4x the L3: every revisit misses.
                    assert_eq!(a.level, HitLevel::Memory, "line {i}");
                }
            }
        }
    }

    #[test]
    fn threads_share_and_evict_each_other() {
        let mut m = tiny();
        // T0 loads a working set that exactly fits L1 (16 lines).
        for i in 0..16u64 {
            m.access(ThreadId::T0, i * 64, false);
        }
        for i in 0..16u64 {
            assert_eq!(m.access(ThreadId::T0, i * 64, false).level, HitLevel::L1);
        }
        // T1 streams through a disjoint 16-line set, displacing T0.
        for i in 0..16u64 {
            m.access(ThreadId::T1, 0x10000 + i * 64, false);
        }
        let relegated = (0..16u64)
            .filter(|i| m.access(ThreadId::T0, i * 64, false).level != HitLevel::L1)
            .count();
        assert!(relegated > 0, "sharing must cause cross-thread eviction");
    }

    #[test]
    fn stats_attribute_levels_per_thread() {
        let mut m = tiny();
        m.access(ThreadId::T0, 0, false);
        m.access(ThreadId::T0, 0, false);
        m.access(ThreadId::T1, 0x20000, false);
        let s = m.stats();
        assert_eq!(s.accesses, [2, 1]);
        assert_eq!(s.served_by[3], [1, 1]); // one memory access each
        assert_eq!(s.served_by[0], [1, 0]); // T0's second access hit L1
        assert_eq!(s.l2_misses(ThreadId::T0), 1);
        assert_eq!(s.memory_accesses(ThreadId::T1), 1);
    }

    #[test]
    fn prefetcher_pulls_next_lines_into_l2() {
        let mut cfg = MemConfig::tiny_for_tests();
        cfg.prefetch_depth = 2;
        let mut m = MemoryHierarchy::new(cfg);
        // Sequential line stream: first two misses train, later ones
        // prefetch ahead.
        m.access(ThreadId::T0, 0, false);
        m.access(ThreadId::T0, 64, false); // sequential -> prefetch 2,3 into L2
        let a = m.access(ThreadId::T0, 2 * 64, false);
        assert_eq!(a.level, HitLevel::L2, "prefetched line should hit L2");
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut m = tiny();
        m.access(ThreadId::T0, 0, false);
        m.reset_stats();
        assert_eq!(m.stats().accesses, [0, 0]);
        assert_eq!(m.access(ThreadId::T0, 0, false).level, HitLevel::L1);
    }

    #[test]
    fn invalidate_caches_forces_memory() {
        let mut m = tiny();
        m.access(ThreadId::T0, 0, false);
        m.invalidate_caches();
        assert_eq!(m.access(ThreadId::T0, 0, false).level, HitLevel::Memory);
    }

    #[test]
    fn attached_pmu_counters_mirror_traffic() {
        let mut m = tiny();
        let cell = p5_pmu::new_shared_mem_counters();
        m.attach_pmu_counters(std::sync::Arc::clone(&cell));
        m.access(ThreadId::T0, 0x4000, true); // cold: memory + TLB walk
        m.access(ThreadId::T0, 0x4000, false); // L1 hit
        {
            let c = cell.lock().unwrap();
            assert_eq!(c.accesses[0], 2);
            assert_eq!(c.served_by[3][0], 1);
            assert_eq!(c.served_by[0][0], 1);
            assert_eq!(c.tlb_misses[0], 1);
            assert_eq!(c.stores[0], 1);
        }
        m.detach_pmu_counters();
        m.access(ThreadId::T0, 0x4000, false);
        assert_eq!(
            cell.lock().unwrap().accesses[0],
            2,
            "detached: no publishing"
        );
    }

    #[test]
    fn shared_levels_survive_a_neighbor_panic() {
        let cfg = MemConfig::tiny_for_tests();
        let shared = SharedCaches::new(&cfg);
        let mut victim = MemoryHierarchy::with_shared(cfg, shared.clone());
        // Warm the shared L2/L3.
        victim.access(ThreadId::T0, 0x4000, false);
        // A neighbor core panics while holding a shared-level lock.
        let poisoner = shared.clone();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _guard = poisoner.l2();
            panic!("neighbor core crashed");
        }));
        // The surviving core keeps walking the shared levels: a fresh
        // miss must take the poisoned L2/L3/TLB locks, and the line it
        // warmed earlier is still resident.
        let a = victim.access(ThreadId::T0, 0x8000, false);
        assert_eq!(a.level, HitLevel::Memory);
        let b = victim.access(ThreadId::T0, 0x4000, false);
        assert_eq!(b.level, HitLevel::L1, "earlier warm state survives");
    }

    #[test]
    fn display_hit_levels() {
        assert_eq!(HitLevel::L1.to_string(), "L1");
        assert_eq!(HitLevel::Memory.to_string(), "memory");
    }
}
