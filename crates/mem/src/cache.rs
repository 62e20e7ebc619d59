//! Set-associative cache with true-LRU replacement.

use crate::config::CacheConfig;
use p5_isa::ThreadId;

/// Hit/miss counters for one cache, split by requesting context so the
/// dynamic resource balancer and the experiment harness can observe
/// per-thread behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Hits per context.
    pub hits: [u64; 2],
    /// Demand misses per context.
    pub misses: [u64; 2],
    /// Lines installed by the prefetcher (not attributed to a context's
    /// demand stream).
    pub prefetch_fills: u64,
}

impl CacheStats {
    /// Total hits across contexts.
    #[must_use]
    pub fn total_hits(&self) -> u64 {
        self.hits[0] + self.hits[1]
    }

    /// Total demand misses across contexts.
    #[must_use]
    pub fn total_misses(&self) -> u64 {
        self.misses[0] + self.misses[1]
    }

    /// Miss ratio for one context (0 when it made no accesses).
    #[must_use]
    pub fn miss_ratio(&self, thread: ThreadId) -> f64 {
        let i = thread.index();
        let total = self.hits[i] + self.misses[i];
        if total == 0 {
            0.0
        } else {
            self.misses[i] as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Line {
    tag: u64,
    valid: bool,
    /// Higher = more recently used.
    lru: u64,
}

const INVALID: Line = Line {
    tag: 0,
    valid: false,
    lru: 0,
};

/// A set-associative cache with true-LRU replacement.
///
/// Addresses are byte addresses; the cache tracks lines of
/// `config.line_bytes`. Both SMT contexts share the structure (POWER5
/// shares all data-cache levels between its two hardware threads); the
/// contexts are distinguished only in the statistics.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    lines: Vec<Line>,
    set_shift: u32,
    set_mask: u64,
    /// `sets.trailing_zeros()`, precomputed: the set/tag split happens on
    /// every lookup and must not redo the bit scan.
    set_bits: u32,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see [`CacheConfig::validate`]).
    #[must_use]
    pub fn new(config: CacheConfig) -> Cache {
        config.validate();
        let sets = config.sets();
        Cache {
            config,
            lines: vec![INVALID; sets * config.associativity],
            set_shift: config.line_bytes.trailing_zeros(),
            set_mask: (sets as u64) - 1,
            set_bits: sets.trailing_zeros(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (state is preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.set_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_bits;
        (set, tag)
    }

    /// Looks up `addr` and updates LRU state and statistics; returns `true`
    /// on hit. On a miss the line is *not* filled — call
    /// [`Cache::fill`] to install it (the hierarchy decides which levels
    /// allocate).
    pub fn access(&mut self, thread: ThreadId, addr: u64) -> bool {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.config.associativity;
        let ways = &mut self.lines[base..base + self.config.associativity];
        for line in ways.iter_mut() {
            if line.valid && line.tag == tag {
                line.lru = self.tick;
                self.stats.hits[thread.index()] += 1;
                return true;
            }
        }
        self.stats.misses[thread.index()] += 1;
        false
    }

    /// Checks for presence without updating LRU or statistics.
    #[must_use]
    pub fn probe(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        let base = set * self.config.associativity;
        self.lines[base..base + self.config.associativity]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Installs the line containing `addr`, evicting the LRU way if the set
    /// is full. Returns the evicted line's base address, if a valid line
    /// was displaced.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(addr);
        let set_bits = self.set_bits;
        let base = set * self.config.associativity;
        let ways = &mut self.lines[base..base + self.config.associativity];

        // Already present (e.g. racing prefetch): refresh LRU only.
        if let Some(line) = ways.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.tick;
            return None;
        }

        let victim = ways
            .iter_mut()
            .min_by_key(|l| if l.valid { l.lru } else { 0 })
            .expect("associativity is nonzero");
        let evicted = victim
            .valid
            .then(|| ((victim.tag << set_bits) | set as u64) << self.set_shift);
        *victim = Line {
            tag,
            valid: true,
            lru: self.tick,
        };
        evicted
    }

    /// Installs a line on behalf of the prefetcher (counted separately).
    pub fn fill_prefetch(&mut self, addr: u64) {
        if !self.probe(addr) {
            self.stats.prefetch_fills += 1;
        }
        self.fill(addr);
    }

    /// Invalidates every line (e.g. between FAME repetitions when cold
    /// starts are wanted; the paper's methodology keeps caches warm, so the
    /// harness does not normally use this).
    pub fn invalidate_all(&mut self) {
        self.lines.fill(INVALID);
    }

    /// Number of valid lines currently resident.
    #[must_use]
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            associativity: 2,
            latency: 1,
        })
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = small();
        assert!(!c.access(ThreadId::T0, 0x100));
        c.fill(0x100);
        assert!(c.access(ThreadId::T0, 0x100));
        // Same line, different byte.
        assert!(c.access(ThreadId::T0, 0x13f));
        assert_eq!(c.stats().hits[0], 2);
        assert_eq!(c.stats().misses[0], 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Three distinct tags mapping to set 0 (addr bits: line 64B, 4 sets
        // -> set = (addr >> 6) & 3; tags differ every 256B).
        let a = 0x000; // set 0
        let b = 0x100; // set 0
        let d = 0x200; // set 0
        c.fill(a);
        c.fill(b);
        // Touch `a` so `b` becomes LRU.
        assert!(c.access(ThreadId::T0, a));
        let evicted = c.fill(d);
        assert_eq!(evicted, Some(b));
        assert!(c.probe(a));
        assert!(!c.probe(b));
        assert!(c.probe(d));
    }

    #[test]
    fn probe_does_not_disturb_lru_or_stats() {
        let mut c = small();
        c.fill(0x0);
        let before = *c.stats();
        assert!(c.probe(0x0));
        assert!(!c.probe(0x100));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn fill_existing_line_is_idempotent() {
        let mut c = small();
        c.fill(0x0);
        assert_eq!(c.fill(0x0), None);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn eviction_returns_line_base_address() {
        let mut c = small();
        c.fill(0x040); // set 1
        c.fill(0x140); // set 1
        let evicted = c.fill(0x240).unwrap(); // evicts 0x040 (LRU)
        assert_eq!(evicted, 0x040);
    }

    #[test]
    fn per_thread_stats_are_separate() {
        let mut c = small();
        c.fill(0x0);
        c.access(ThreadId::T0, 0x0);
        c.access(ThreadId::T1, 0x0);
        c.access(ThreadId::T1, 0x1000);
        assert_eq!(c.stats().hits, [1, 1]);
        assert_eq!(c.stats().misses, [0, 1]);
        assert!((c.stats().miss_ratio(ThreadId::T1) - 0.5).abs() < 1e-12);
        assert_eq!(c.stats().miss_ratio(ThreadId::T0), 0.0);
    }

    #[test]
    fn invalidate_all_clears() {
        let mut c = small();
        c.fill(0x0);
        c.fill(0x40);
        assert_eq!(c.resident_lines(), 2);
        c.invalidate_all();
        assert_eq!(c.resident_lines(), 0);
        assert!(!c.probe(0x0));
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = small(); // 8 lines total
        let lines: Vec<u64> = (0..16u64).map(|i| i * 64).collect();
        for &a in &lines {
            c.fill(a);
        }
        // First 8 lines must all have been evicted by the last 8.
        for &a in &lines[..8] {
            assert!(!c.probe(a));
        }
        for &a in &lines[8..] {
            assert!(c.probe(a));
        }
    }

    #[test]
    fn prefetch_fill_counts() {
        let mut c = small();
        c.fill_prefetch(0x0);
        c.fill_prefetch(0x0); // already present -> not recounted
        assert_eq!(c.stats().prefetch_fills, 1);
    }

    #[test]
    fn miss_ratio_zero_when_no_accesses() {
        let c = small();
        assert_eq!(c.stats().miss_ratio(ThreadId::T0), 0.0);
    }
}
