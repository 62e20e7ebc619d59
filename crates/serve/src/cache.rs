//! The content-addressed result cache.
//!
//! The cache *is* the campaign engine's result journal
//! ([`p5_experiments::journal::ResultJournal`]) wearing a server hat:
//! records are keyed by the same
//! [`p5_experiments::campaign::cell_key`] digest (schema version,
//! program fingerprints, normalized priorities, warmup engine, fault
//! schedule, and the core + FAME configuration through their typed
//! `Hash` impls), so *any* two requests that would measure the same
//! bytes share one record — across clients, across connections, across
//! plans that differ only in a wall-time setting (the idle skip), and
//! (with a journal directory) across daemon restarts. The daemon attaches the cache's journal to each
//! request's [`Experiments`](p5_experiments::Experiments) context and
//! looks every cell up with
//! [`p5_experiments::campaign::replay_cell`] on the connection's
//! thread: a recorded key replays at once, without simulating. Only
//! the unrecorded cells go to the worker pool, where the per-cell
//! worker flow checks the cache again, simulates, and journals the
//! result write-ahead.
//!
//! # Invalidation
//!
//! There is no explicit invalidation API, by design — keys are
//! content-addressed, so nothing a client can send makes a stale
//! record reachable:
//!
//! - a configuration or request change lands on a *different* key and
//!   simulates fresh;
//! - a change to what recorded bytes *mean* must bump
//!   [`p5_experiments::journal::JOURNAL_SCHEMA_VERSION`], which both
//!   enters every key and makes the journal loader skip old-version
//!   records on resume — old records become unreachable and are
//!   dropped at the next journal load, not migrated.

use p5_experiments::journal::{LoadStats, ResultJournal};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A point-in-time view of the cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells served from the cache.
    pub hits: u64,
    /// Cells that had to simulate (and were then recorded).
    pub misses: u64,
    /// Distinct cell records currently held.
    pub entries: usize,
    /// Records evicted by the entry bound
    /// ([`ResultCache::set_max_entries`]) since daemon start.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate over all lookups, `0.0` when nothing was looked up.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.hits as f64 / total as f64
        }
    }
}

/// The server's result cache: a shared journal plus hit/miss counters.
#[derive(Debug)]
pub struct ResultCache {
    journal: Arc<ResultJournal>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// A process-lifetime cache with no backing file.
    #[must_use]
    pub fn in_memory() -> ResultCache {
        ResultCache::from_journal(Arc::new(ResultJournal::in_memory()))
    }

    /// A cache persisted under `dir/journal.jsonl`, resuming whatever
    /// records a previous daemon left there (tolerant of truncation —
    /// see the journal's loader). Returns the load statistics alongside
    /// so the daemon can report how warm it started.
    ///
    /// # Errors
    ///
    /// Propagates journal-directory I/O errors.
    pub fn persistent(dir: &Path) -> std::io::Result<(ResultCache, LoadStats)> {
        let (journal, stats) = if dir.join(ResultJournal::FILE_NAME).exists() {
            ResultJournal::resume(dir)?
        } else {
            (ResultJournal::create(dir)?, LoadStats::default())
        };
        Ok((ResultCache::from_journal(Arc::new(journal)), stats))
    }

    /// Wraps an existing journal (used by tests that pre-seed records).
    #[must_use]
    pub fn from_journal(journal: Arc<ResultJournal>) -> ResultCache {
        ResultCache {
            journal,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The backing journal, for attaching to an
    /// [`Experiments`](p5_experiments::Experiments) context — that
    /// attachment is what turns the per-cell worker flow into a
    /// memoized call.
    #[must_use]
    pub fn journal(&self) -> Arc<ResultJournal> {
        Arc::clone(&self.journal)
    }

    /// Tallies one answered cell: `cached` is true for a hit, whether
    /// the connection's thread or a worker replayed it.
    pub fn note(&self, cached: bool) {
        if cached {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Bounds the cache to at most `max` records, evicting oldest-first
    /// immediately and on every future insert; `None` lifts the bound.
    /// Eviction only shrinks the in-memory index — a persistent
    /// journal's file stays append-only, and an evicted key simply
    /// re-simulates on its next request (a correct miss, never a wrong
    /// or torn result).
    pub fn set_max_entries(&self, max: Option<usize>) {
        self.journal.set_max_cells(max);
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.journal.cell_count(),
            evictions: self.journal.evicted(),
        }
    }

    /// Flushes the backing journal (fsync when file-backed).
    pub fn flush(&self) {
        self.journal.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p5_experiments::journal::CellKey;
    use p5_experiments::{CellStatus, Measured};

    fn measured_ok() -> Measured {
        Measured {
            report: None,
            status: CellStatus::Ok,
            error: None,
        }
    }

    #[test]
    fn counters_and_hit_rate() {
        let cache = ResultCache::in_memory();
        assert_eq!(cache.stats(), CacheStats::default());
        assert_eq!(cache.stats().hit_rate(), 0.0, "no lookups, no rate");
        cache.note(false);
        cache.note(true);
        cache.note(true);
        cache.note(true);
        let stats = cache.stats();
        assert_eq!(stats.hits, 3);
        assert_eq!(stats.misses, 1);
        assert!((stats.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn entries_track_the_journal() {
        let cache = ResultCache::in_memory();
        cache.journal().record_cell(CellKey(1), &measured_ok());
        cache.journal().record_cell(CellKey(2), &measured_ok());
        cache.journal().record_cell(CellKey(1), &measured_ok());
        assert_eq!(cache.stats().entries, 2, "records are keyed, not appended");
    }

    #[test]
    fn persistent_cache_survives_a_restart() {
        let dir = std::env::temp_dir().join(format!("p5-serve-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let (cache, stats) = ResultCache::persistent(&dir).expect("create");
        assert_eq!(stats.entries, 0, "fresh directory starts cold");
        cache.journal().record_cell(CellKey(7), &measured_ok());
        cache.flush();
        drop(cache);

        let (cache, stats) = ResultCache::persistent(&dir).expect("resume");
        assert_eq!(stats.entries, 1, "the record survived the restart");
        assert!(cache.journal().lookup_cell(CellKey(7)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
