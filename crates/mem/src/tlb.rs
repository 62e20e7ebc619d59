//! Data TLB model.

use crate::config::TlbConfig;
use p5_isa::ThreadId;

/// Hit/miss counters for the TLB, per requesting context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Hits per context.
    pub hits: [u64; 2],
    /// Misses (page walks) per context.
    pub misses: [u64; 2],
}

impl TlbStats {
    /// Total misses across contexts.
    #[must_use]
    pub fn total_misses(&self) -> u64 {
        self.misses[0] + self.misses[1]
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    vpn: u64,
    valid: bool,
    lru: u64,
}

/// A set-associative data TLB shared between the two SMT contexts, as on
/// POWER5. A miss costs [`TlbConfig::miss_penalty`] cycles (hardware page
/// walk) and fills the entry.
#[derive(Debug, Clone)]
pub struct Tlb {
    config: TlbConfig,
    entries: Vec<Entry>,
    sets: usize,
    page_shift: u32,
    tick: u64,
    stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a multiple of `associativity`, if the set
    /// count is not a power of two, or if the page size is not a power of
    /// two.
    #[must_use]
    pub fn new(config: TlbConfig) -> Tlb {
        assert!(config.associativity > 0, "associativity must be nonzero");
        assert!(
            config.entries.is_multiple_of(config.associativity),
            "TLB entries must be a multiple of associativity"
        );
        assert!(
            config.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let sets = config.entries / config.associativity;
        assert!(
            sets.is_power_of_two(),
            "TLB set count must be a power of two"
        );
        Tlb {
            config,
            entries: vec![
                Entry {
                    vpn: 0,
                    valid: false,
                    lru: 0
                };
                config.entries
            ],
            sets,
            page_shift: config.page_bytes.trailing_zeros(),
            tick: 0,
            stats: TlbStats::default(),
        }
    }

    /// The configuration this TLB was built with.
    #[must_use]
    pub fn config(&self) -> &TlbConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Resets statistics (entries are preserved).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Translates `addr`; returns the added latency (0 on hit,
    /// `miss_penalty` on a walk). A miss installs the entry, evicting LRU.
    pub fn access(&mut self, thread: ThreadId, addr: u64) -> u64 {
        self.tick += 1;
        let vpn = addr >> self.page_shift;
        let set = (vpn as usize) & (self.sets - 1);
        let base = set * self.config.associativity;
        let ways = &mut self.entries[base..base + self.config.associativity];

        for e in ways.iter_mut() {
            if e.valid && e.vpn == vpn {
                e.lru = self.tick;
                self.stats.hits[thread.index()] += 1;
                return 0;
            }
        }

        self.stats.misses[thread.index()] += 1;
        let victim = ways
            .iter_mut()
            .min_by_key(|e| if e.valid { e.lru } else { 0 })
            .expect("associativity is nonzero");
        *victim = Entry {
            vpn,
            valid: true,
            lru: self.tick,
        };
        self.config.miss_penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tlb {
        Tlb::new(TlbConfig {
            entries: 8,
            associativity: 2,
            page_bytes: 4096,
            miss_penalty: 25,
        })
    }

    #[test]
    fn miss_fills_then_hits() {
        let mut t = tiny();
        assert_eq!(t.access(ThreadId::T0, 0x1234), 25);
        assert_eq!(t.access(ThreadId::T0, 0x1567), 0); // same page
        assert_eq!(t.stats().hits[0], 1);
        assert_eq!(t.stats().misses[0], 1);
    }

    #[test]
    fn distinct_pages_miss_separately() {
        let mut t = tiny();
        assert_eq!(t.access(ThreadId::T0, 0x0000), 25);
        assert_eq!(t.access(ThreadId::T0, 0x1000), 25);
        assert_eq!(t.access(ThreadId::T0, 0x0000), 0);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut t = tiny(); // 4 sets x 2 ways; set = vpn & 3
                            // vpns 0, 4, 8 all map to set 0.
        t.access(ThreadId::T0, 0 << 12);
        t.access(ThreadId::T0, 4 << 12);
        t.access(ThreadId::T0, 0 << 12); // refresh vpn 0
        t.access(ThreadId::T0, 8 << 12); // evicts vpn 4
        assert_eq!(t.access(ThreadId::T0, 0 << 12), 0);
        assert_eq!(t.access(ThreadId::T0, 4 << 12), 25);
    }

    #[test]
    fn per_thread_stats() {
        let mut t = tiny();
        t.access(ThreadId::T1, 0x9000);
        t.access(ThreadId::T1, 0x9000);
        assert_eq!(t.stats().misses, [0, 1]);
        assert_eq!(t.stats().hits, [0, 1]);
        assert_eq!(t.stats().total_misses(), 1);
    }

    #[test]
    #[should_panic(expected = "multiple of associativity")]
    fn bad_geometry_panics() {
        let _ = Tlb::new(TlbConfig {
            entries: 7,
            associativity: 2,
            page_bytes: 4096,
            miss_penalty: 1,
        });
    }
}
