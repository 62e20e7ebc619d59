//! Memory-hierarchy configuration.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a multiple of
    /// `line_bytes * associativity`.
    pub size_bytes: u64,
    /// Cache-line size in bytes (power of two).
    pub line_bytes: u64,
    /// Number of ways per set.
    pub associativity: usize,
    /// Load-to-use latency in cycles when this level hits.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::validate`]).
    #[must_use]
    pub fn sets(&self) -> usize {
        self.validate();
        (self.size_bytes / (self.line_bytes * self.associativity as u64)) as usize
    }

    /// Panics with a descriptive message if the geometry is invalid:
    /// `line_bytes` must be a nonzero power of two, `associativity`
    /// nonzero, and `size_bytes` an exact multiple of
    /// `line_bytes * associativity` with a power-of-two set count.
    pub fn validate(&self) {
        assert!(
            self.line_bytes.is_power_of_two(),
            "line size must be a power of two, got {}",
            self.line_bytes
        );
        assert!(self.associativity > 0, "associativity must be nonzero");
        let way_bytes = self.line_bytes * self.associativity as u64;
        assert!(
            self.size_bytes.is_multiple_of(way_bytes),
            "cache size {} is not a multiple of line*assoc {}",
            self.size_bytes,
            way_bytes
        );
        let sets = self.size_bytes / way_bytes;
        assert!(
            sets.is_power_of_two(),
            "set count must be a power of two, got {sets}"
        );
    }
}

/// Geometry of the data TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Number of ways per set.
    pub associativity: usize,
    /// Page size in bytes (power of two).
    pub page_bytes: u64,
    /// Cycles added to an access that misses the TLB (hardware page walk).
    pub miss_penalty: u64,
}

/// Full memory-hierarchy configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemConfig {
    /// First-level data cache (shared between the two SMT contexts on
    /// POWER5).
    pub l1d: CacheConfig,
    /// Unified second-level cache (shared).
    pub l2: CacheConfig,
    /// Third-level victim cache (shared; modeled as a plain lookup level).
    pub l3: CacheConfig,
    /// Latency of an access that misses every cache level, in cycles.
    pub memory_latency: u64,
    /// Data TLB shared between the contexts.
    pub dtlb: TlbConfig,
    /// Depth of next-line prefetch issued on an L1 miss of a sequential
    /// stream (0 disables prefetching). Prefetched lines are installed in
    /// L2 (not L1), approximating the POWER5 stream prefetcher.
    pub prefetch_depth: u64,
}

impl MemConfig {
    /// A POWER5-like hierarchy: 32 KiB 4-way L1D (2-cycle), 1.875 MiB
    /// 10-way shared L2 rounded to 1.5 MiB 12-way (13-cycle), 36 MiB L3
    /// rounded to 32 MiB 16-way (90-cycle), ~230-cycle memory, 1024-entry
    /// 4-way TLB over 4 KiB pages.
    #[must_use]
    pub fn power5_like() -> MemConfig {
        MemConfig {
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                line_bytes: 128,
                associativity: 4,
                latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 1536 * 1024,
                line_bytes: 128,
                associativity: 12,
                latency: 13,
            },
            l3: CacheConfig {
                size_bytes: 32 * 1024 * 1024,
                line_bytes: 128,
                associativity: 16,
                latency: 90,
            },
            memory_latency: 230,
            dtlb: TlbConfig {
                entries: 1024,
                associativity: 4,
                page_bytes: 4096,
                miss_penalty: 60,
            },
            prefetch_depth: 2,
        }
    }

    /// A tiny hierarchy for fast unit tests: 1 KiB L1, 8 KiB L2, 64 KiB L3,
    /// short latencies.
    #[must_use]
    pub fn tiny_for_tests() -> MemConfig {
        MemConfig {
            l1d: CacheConfig {
                size_bytes: 1024,
                line_bytes: 64,
                associativity: 2,
                latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 8 * 1024,
                line_bytes: 64,
                associativity: 4,
                latency: 10,
            },
            l3: CacheConfig {
                size_bytes: 64 * 1024,
                line_bytes: 64,
                associativity: 4,
                latency: 40,
            },
            memory_latency: 100,
            dtlb: TlbConfig {
                entries: 16,
                associativity: 4,
                page_bytes: 4096,
                miss_penalty: 20,
            },
            prefetch_depth: 0,
        }
    }

    /// Validates every level's geometry.
    ///
    /// # Panics
    ///
    /// Panics if any level is inconsistent or line sizes differ between
    /// levels (the model assumes one line size).
    pub fn validate(&self) {
        self.l1d.validate();
        self.l2.validate();
        self.l3.validate();
        assert_eq!(
            self.l1d.line_bytes, self.l2.line_bytes,
            "L1 and L2 line sizes must match"
        );
        assert_eq!(
            self.l2.line_bytes, self.l3.line_bytes,
            "L2 and L3 line sizes must match"
        );
        assert!(
            self.dtlb.page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        assert!(self.memory_latency > self.l3.latency);
    }
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig::power5_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power5_like_validates() {
        MemConfig::power5_like().validate();
        MemConfig::tiny_for_tests().validate();
    }

    #[test]
    fn sets_arithmetic() {
        let c = CacheConfig {
            size_bytes: 32 * 1024,
            line_bytes: 128,
            associativity: 4,
            latency: 2,
        };
        assert_eq!(c.sets(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        CacheConfig {
            size_bytes: 1024,
            line_bytes: 100,
            associativity: 2,
            latency: 1,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn bad_size_panics() {
        CacheConfig {
            size_bytes: 1000,
            line_bytes: 64,
            associativity: 2,
            latency: 1,
        }
        .validate();
    }

    #[test]
    fn latencies_are_monotonic() {
        let m = MemConfig::power5_like();
        assert!(m.l1d.latency < m.l2.latency);
        assert!(m.l2.latency < m.l3.latency);
        assert!(m.l3.latency < m.memory_latency);
    }
}
