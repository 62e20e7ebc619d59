//! # p5-mem
//!
//! Memory-hierarchy model for the POWER5 priority reproduction: a shared
//! L1D/L2/L3 cache stack (POWER5 SMT threads share every cache level), a
//! shared data TLB, and a next-line prefetcher.
//!
//! The hierarchy is *functional with latency annotation*: an access updates
//! the cache state immediately and reports which level served it and the
//! total latency in cycles; the core model (`p5-core`) is responsible for
//! overlapping those latencies subject to its load-miss-queue (MSHR)
//! limits.
//!
//! # Example
//!
//! ```
//! use p5_mem::{MemConfig, MemoryHierarchy, HitLevel};
//! use p5_isa::ThreadId;
//!
//! let mut mem = MemoryHierarchy::new(MemConfig::power5_like());
//! let first = mem.access(ThreadId::T0, 0x1000, false);
//! assert_eq!(first.level, HitLevel::Memory); // cold miss
//! let second = mem.access(ThreadId::T0, 0x1000, false);
//! assert_eq!(second.level, HitLevel::L1);    // now cached
//! assert!(second.latency < first.latency);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cache;
mod config;
mod hierarchy;
mod tlb;

pub use cache::{Cache, CacheStats};
pub use config::{CacheConfig, MemConfig, TlbConfig};
pub use hierarchy::{Access, HitLevel, MemStats, MemoryHierarchy, SharedCaches};
pub use tlb::{Tlb, TlbStats};
