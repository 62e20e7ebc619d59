//! Write-ahead, content-addressed result journal.
//!
//! A campaign that dies halfway — OOM-killed worker, CI timeout, a
//! panicking cell — should not cost the cells that already finished.
//! The journal makes finished work durable: every completed cell is
//! appended to a JSONL file *before* aggregation, keyed by a
//! content-addressed [`CellKey`] that covers everything the measurement
//! depends on (programs, priorities, fault schedule, warmup engine,
//! core/FAME configuration, and — only when the cell consumes the
//! seeded RNG — its derived seed). A re-run with `--resume` replays
//! journaled cells byte-identically and simulates only the missing
//! ones.
//!
//! # Durability contract
//!
//! - **Write-ahead.** A cell is journaled the moment its worker
//!   finishes it, not at campaign end; a crash loses at most the cells
//!   in flight plus the last unsynced batch (writes are `fsync`ed every
//!   [`ResultJournal::SYNC_BATCH`] records and on drop).
//! - **Truncated tails are tolerated.** A line cut off mid-write (the
//!   expected shape of a crash) is counted and skipped on resume; it
//!   never poisons the rest of the file.
//! - **Last write wins.** Duplicate keys (from an earlier interrupted
//!   run, or two workers racing on identical cells) resolve to the last
//!   complete record — which, keys being content-addressed, carries the
//!   same measurement anyway.
//! - **Stale schemas are ignored.** Records with a different
//!   [`JOURNAL_SCHEMA_VERSION`] are counted and skipped, so an old
//!   journal degrades into extra simulation, never into wrong data.
//! - **Only trustworthy outcomes are journaled.** `Ok`, `Recovered`
//!   and `Degraded` cells are recorded; `Crashed` and `Skipped` cells
//!   (including cells the campaign token interrupted mid-simulation)
//!   are not, so a resumed run retries exactly the cells that never
//!   ran to completion.
//!
//! Keys are stable across runs of the same binary (FNV-1a over the
//! `Hash` byte stream), which is the resume contract. Keys hash no
//! engine code, though: a build whose simulation changes a bit still
//! finds the old records under the same keys and replays them. Until
//! keys carry an engine fingerprint, any such change must bump
//! [`JOURNAL_SCHEMA_VERSION`].
//!
//! # Record layout
//!
//! Each line is one cell: the header `{"v":V,"kind":"cell","key":K`
//! (`V` is [`JOURNAL_SCHEMA_VERSION`]) followed by the fields of
//! [`measured_to_json`], the codec the `p5-serve` protocol streams.
//! Floats are stored as IEEE-754 bit patterns, so a replayed
//! measurement is *bit*-identical to the original — the resumed CSV
//! and JSON artifacts match the uninterrupted ones byte for byte. A
//! line of any other kind (such as the `"kind":"scalar"` lines older
//! calibration runs wrote) counts as corrupt.

use crate::{CellStatus, Measured};
use p5_core::SimError;
use p5_fame::{FameReport, ThreadMeasurement};
use p5_pmu::json::{JsonObject, JsonValue};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Version stamped on every journal line; bump on any change to the key
/// derivation or record layout. Mismatched lines are skipped on load.
/// History: 1 = original layout; 2 = thread records carry the sampling
/// estimate (`est_bits`/`ci95_bits`/`samples`) and cell keys cover the
/// measure mode; 3 = `ExecutionPlan` grew the chip-parallelism field
/// (its `Debug` rendering feeds the key hash) and relaxed-quantum chip
/// plans hash their quantum into the key; 4 = `ExecutionPlan` grew the
/// `idle_skip` flag (same `Debug`-rendering reason — the flag itself is
/// normalized out of the key, because skip on/off is bit-identical);
/// 5 = keys hash the typed configurations through their `Hash` impls
/// instead of `Debug` text, and a relaxed chip quantum no longer splits
/// a key. A new plan field that changes only wall time is left out of
/// `ExecutionPlan`'s `Hash` impl and needs no bump.
pub const JOURNAL_SCHEMA_VERSION: u32 = 5;

/// 64-bit FNV-1a as a [`std::hash::Hasher`], for fingerprints that must
/// be stable across *runs* (unlike `DefaultHasher`, which is only
/// stable within a process). Integer writes go through the default
/// `Hasher` byte conversions, so keys are per-binary, which is all the
/// resume contract needs.
#[derive(Debug, Clone)]
pub struct StableHasher(u64);

impl StableHasher {
    const OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;

    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> StableHasher {
        StableHasher(Self::OFFSET)
    }
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

/// Content-addressed identity of one campaign cell's measurement: equal
/// keys mean "the simulation would produce bit-identical results", so a
/// journaled record under this key can stand in for re-running the
/// cell. Derived by [`crate::campaign::cell_key`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellKey(pub u64);

impl fmt::Display for CellKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// What the loader saw in an existing journal file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadStats {
    /// Usable records loaded (after last-write-wins deduplication).
    pub entries: usize,
    /// Records skipped for a mismatched [`JOURNAL_SCHEMA_VERSION`].
    pub stale: usize,
    /// Lines skipped as unparseable (typically one truncated tail).
    pub corrupt: usize,
}

fn thread_json(m: &ThreadMeasurement) -> JsonValue {
    JsonObject::new()
        .field("repetitions", m.repetitions)
        .field("avg_bits", m.avg_repetition_cycles.to_bits())
        .field("ipc_bits", m.ipc.to_bits())
        .field("est_bits", m.estimate.value.to_bits())
        .field("ci95_bits", m.estimate.ci95.to_bits())
        .field("samples", m.estimate.samples)
        .field("converged", m.converged)
        .build()
}

fn report_json(r: &FameReport) -> JsonValue {
    JsonObject::new()
        .field("measured_cycles", r.measured_cycles)
        .field("warmup_cycles", r.warmup_cycles)
        .field(
            "threads",
            JsonValue::Array(
                r.threads
                    .iter()
                    .map(|t| t.as_ref().map_or(JsonValue::Null, thread_json))
                    .collect(),
            ),
        )
        .build()
}

/// Appends the fields of [`measured_to_json`] to `obj`.
fn measured_fields(obj: JsonObject, m: &Measured) -> JsonObject {
    let status = match m.status {
        CellStatus::Ok => "ok",
        CellStatus::Recovered => "recovered",
        CellStatus::Degraded => "degraded",
        CellStatus::Crashed => "crashed",
        CellStatus::Skipped => "skipped",
    };
    let mut obj = obj.field("status", status);
    if let Some(error) = &m.error {
        obj = obj.field("error", error.to_string());
    }
    if let Some(report) = &m.report {
        obj = obj.field("report", report_json(report));
    }
    obj
}

/// Serializes a [`Measured`] of *any* status into its JSON shape
/// (`status`, optional `error` text, optional bit-exact `report`).
/// This is the wire format the `p5-serve` protocol streams per-cell
/// results in, and each journal line is a key header followed by the
/// same fields; floats travel as IEEE-754 bit patterns, so a
/// measurement received over a socket or replayed from disk is
/// bit-identical to the one the worker produced.
#[must_use]
pub fn measured_to_json(m: &Measured) -> JsonValue {
    measured_fields(JsonObject::new(), m).build()
}

/// Reconstructs a [`Measured`] from [`measured_to_json`]'s shape.
///
/// Error causes come back as [`SimError::Replayed`], which renders the
/// original text verbatim — so degradation annotations built from a
/// received measurement are byte-identical to the ones the producing
/// side would have reported. The status itself travels structurally
/// (a `crashed` cell is still [`CellStatus::Crashed`] on arrival).
#[must_use]
pub fn measured_from_json(v: &JsonValue) -> Option<Measured> {
    let status = match v.get("status")?.as_str()? {
        "ok" => CellStatus::Ok,
        "recovered" => CellStatus::Recovered,
        "degraded" => CellStatus::Degraded,
        "crashed" => CellStatus::Crashed,
        "skipped" => CellStatus::Skipped,
        _ => return None,
    };
    let error = match v.get("error") {
        Some(e) => Some(SimError::Replayed {
            cause: e.as_str()?.to_string(),
        }),
        None => None,
    };
    let report = match v.get("report") {
        Some(r) => Some(parse_report(r)?),
        None => None,
    };
    Some(Measured {
        report,
        status,
        error,
    })
}

/// Whether a cell with `status` is journaled: only outcomes a resumed
/// run may trust. `Crashed` and `Skipped` cells must be retried.
fn is_journaled(status: CellStatus) -> bool {
    matches!(
        status,
        CellStatus::Ok | CellStatus::Recovered | CellStatus::Degraded
    )
}

/// One journal line: the key header, then [`measured_to_json`]'s fields.
fn journal_line(key: CellKey, m: &Measured) -> String {
    let header = JsonObject::new()
        .field("v", JOURNAL_SCHEMA_VERSION)
        .field("kind", "cell")
        .field("key", key.0);
    measured_fields(header, m).build().to_string()
}

// ---------------------------------------------------------------------
// Parsing rides on the workspace's shared tolerant reader
// (`JsonValue::parse` in `p5_pmu::json`): any deviation from the
// writer's grammar returns `None` and the caller counts the line as
// corrupt.

fn parse_thread(v: &JsonValue) -> Option<Option<ThreadMeasurement>> {
    if *v == JsonValue::Null {
        return Some(None);
    }
    Some(Some(ThreadMeasurement {
        repetitions: usize::try_from(v.get("repetitions")?.as_u64()?).ok()?,
        avg_repetition_cycles: f64::from_bits(v.get("avg_bits")?.as_u64()?),
        ipc: f64::from_bits(v.get("ipc_bits")?.as_u64()?),
        estimate: p5_fame::Estimate {
            value: f64::from_bits(v.get("est_bits")?.as_u64()?),
            ci95: f64::from_bits(v.get("ci95_bits")?.as_u64()?),
            samples: u32::try_from(v.get("samples")?.as_u64()?).ok()?,
        },
        converged: v.get("converged")?.as_bool()?,
    }))
}

fn parse_report(v: &JsonValue) -> Option<FameReport> {
    let threads = match v.get("threads")?.as_array()? {
        items if items.len() == 2 => [parse_thread(&items[0])?, parse_thread(&items[1])?],
        _ => return None,
    };
    Some(FameReport {
        threads,
        measured_cycles: v.get("measured_cycles")?.as_u64()?,
        warmup_cycles: v.get("warmup_cycles")?.as_u64()?,
    })
}

/// One parsed journal line.
enum Line {
    Cell(CellKey, Measured),
    Stale,
}

/// Parses one line through [`measured_from_json`]. A status that is
/// never journaled (`crashed`, `skipped`) makes the line corrupt.
fn parse_line(text: &str) -> Option<Line> {
    let v = JsonValue::parse(text)?;
    if v.get("v")?.as_u64()? != u64::from(JOURNAL_SCHEMA_VERSION) {
        return Some(Line::Stale);
    }
    let key = CellKey(v.get("key")?.as_u64()?);
    if v.get("kind")?.as_str()? != "cell" {
        return None;
    }
    let measured = measured_from_json(&v)?;
    is_journaled(measured.status).then_some(Line::Cell(key, measured))
}

// ---------------------------------------------------------------------

/// Mutable journal state behind one lock: the in-memory index plus the
/// append handle and the batched-fsync counter.
#[derive(Debug)]
struct JournalState {
    /// The append handle, or `None` for a purely in-memory journal
    /// ([`ResultJournal::in_memory`] — the `p5-serve` result cache
    /// without a `--cache-dir`).
    file: Option<File>,
    /// The index: each cell as [`ResultJournal::lookup_cell`] returns
    /// it, its error already a [`SimError::Replayed`].
    cells: HashMap<CellKey, Measured>,
    unsynced: usize,
    /// Cell keys in first-insertion order — the FIFO eviction queue.
    /// Invariant: exactly the keys of `cells`, each once (re-recording
    /// an indexed key does not re-queue it).
    order: VecDeque<CellKey>,
    /// In-memory index bound ([`ResultJournal::set_max_cells`]); `None`
    /// means unbounded.
    max_cells: Option<usize>,
    /// Cell records evicted from the index so far.
    evicted: u64,
}

impl JournalState {
    /// Drops oldest-first cell records until the index fits the bound.
    /// Only the in-memory index shrinks — the backing file is
    /// append-only, so a crash still replays every record it held (the
    /// bound is re-applied after the resume load).
    fn evict_to_bound(&mut self) {
        let Some(max) = self.max_cells else { return };
        while self.cells.len() > max {
            let Some(oldest) = self.order.pop_front() else {
                break;
            };
            self.cells.remove(&oldest);
            self.evicted += 1;
        }
    }

    fn append(&mut self, line: &str) {
        // Journal I/O is best-effort by design: a full disk degrades
        // resumability, never the campaign itself.
        let Some(file) = &mut self.file else { return };
        let _ = file.write_all(line.as_bytes());
        let _ = file.write_all(b"\n");
        self.unsynced += 1;
        if self.unsynced >= ResultJournal::SYNC_BATCH {
            self.sync();
        }
    }

    fn sync(&mut self) {
        if self.unsynced > 0 {
            if let Some(file) = &self.file {
                let _ = file.sync_data();
            }
            self.unsynced = 0;
        }
    }
}

/// The write-ahead result journal: an append-only JSONL file plus an
/// in-memory index of every usable record. See the module docs for the
/// durability contract.
#[derive(Debug)]
pub struct ResultJournal {
    path: PathBuf,
    state: Mutex<JournalState>,
}

impl ResultJournal {
    /// Records are `fsync`ed in batches of this many (and on flush /
    /// drop), bounding both the data a crash can lose and the syscall
    /// overhead per cell.
    pub const SYNC_BATCH: usize = 16;

    /// File name used inside a `--journal DIR` directory.
    pub const FILE_NAME: &'static str = "journal.jsonl";

    /// Creates (or truncates) the journal file under `dir`.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or file.
    pub fn create(dir: &Path) -> std::io::Result<ResultJournal> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(Self::FILE_NAME);
        let file = File::create(&path)?;
        Ok(ResultJournal::open(
            path,
            Some(file),
            HashMap::new(),
            VecDeque::new(),
        ))
    }

    /// A journal with no backing file: the in-memory index works exactly
    /// as usual (lookup, record, last-write-wins), nothing is persisted,
    /// and dropping it loses everything. This is the `p5-serve` result
    /// cache's default storage; [`ResultJournal::path`] returns an empty
    /// path for it.
    #[must_use]
    pub fn in_memory() -> ResultJournal {
        ResultJournal::open(PathBuf::new(), None, HashMap::new(), VecDeque::new())
    }

    fn open(
        path: PathBuf,
        file: Option<File>,
        cells: HashMap<CellKey, Measured>,
        order: VecDeque<CellKey>,
    ) -> ResultJournal {
        ResultJournal {
            path,
            state: Mutex::new(JournalState {
                file,
                cells,
                unsynced: 0,
                order,
                max_cells: None,
                evicted: 0,
            }),
        }
    }

    /// Opens the journal under `dir`, loading every usable record from
    /// an existing file (tolerating a truncated tail, duplicate keys
    /// and stale schema versions — see the module docs) and appending
    /// new records after it. A missing file resumes from nothing.
    ///
    /// # Errors
    ///
    /// I/O errors creating the directory or opening the file; a
    /// *corrupt* file is not an error.
    pub fn resume(dir: &Path) -> std::io::Result<(ResultJournal, LoadStats)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(Self::FILE_NAME);
        let mut cells = HashMap::new();
        let mut order = VecDeque::new();
        let mut stats = LoadStats::default();
        if let Ok(existing) = File::open(&path) {
            for line in BufReader::new(existing).split(b'\n') {
                let Ok(bytes) = line else { break };
                let text = String::from_utf8_lossy(&bytes);
                if text.trim().is_empty() {
                    continue;
                }
                match parse_line(text.trim()) {
                    Some(Line::Cell(key, measured)) => {
                        stats.entries += 1;
                        if cells.insert(key, measured).is_none() {
                            order.push_back(key);
                        }
                    }
                    Some(Line::Stale) => stats.stale += 1,
                    None => stats.corrupt += 1,
                }
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok((ResultJournal::open(path, Some(file), cells, order), stats))
    }

    /// The journal file's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn state(&self) -> std::sync::MutexGuard<'_, JournalState> {
        // Same policy as the simulator's shared cells: recover, never
        // cascade, a neighbor's poison.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The journaled measurement for `key`, if any, reconstructed for
    /// replay (error causes come back as [`SimError::Replayed`]).
    #[must_use]
    pub fn lookup_cell(&self, key: CellKey) -> Option<Measured> {
        self.state().cells.get(&key).cloned()
    }

    /// Journals a finished cell. `Crashed` and `Skipped` measurements
    /// are deliberately not recorded (they must be retried on resume);
    /// recording one is a no-op. The error is indexed as
    /// [`SimError::Replayed`], which displays the original cause
    /// verbatim, so degradation annotations round-trip byte-identically.
    pub fn record_cell(&self, key: CellKey, measured: &Measured) {
        if !is_journaled(measured.status) {
            return;
        }
        let replay = Measured {
            report: measured.report.clone(),
            status: measured.status,
            error: measured.error.as_ref().map(|e| SimError::Replayed {
                cause: e.to_string(),
            }),
        };
        let line = journal_line(key, &replay);
        let mut state = self.state();
        if state.cells.insert(key, replay).is_none() {
            state.order.push_back(key);
        }
        state.evict_to_bound();
        state.append(&line);
    }

    /// Number of cell records currently indexed.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.state().cells.len()
    }

    /// Bounds the in-memory cell index to at most `max` records,
    /// evicting oldest-first (by first insertion) immediately and on
    /// every future [`record_cell`](ResultJournal::record_cell). `None`
    /// removes the bound. The backing file is untouched — it stays
    /// append-only, so crash-resume durability is unaffected; an
    /// evicted key simply re-simulates (a correct, merely slower,
    /// cache miss — never a wrong or torn result).
    pub fn set_max_cells(&self, max: Option<usize>) {
        let mut state = self.state();
        state.max_cells = max;
        state.evict_to_bound();
    }

    /// Cell records evicted by the index bound so far.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.state().evicted
    }

    /// Forces any unsynced records to disk.
    pub fn flush(&self) {
        self.state().sync();
    }
}

impl Drop for ResultJournal {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("p5-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_measured(status: CellStatus) -> Measured {
        Measured {
            report: Some(FameReport {
                threads: [
                    Some(ThreadMeasurement {
                        repetitions: 12,
                        avg_repetition_cycles: 123.456_789,
                        ipc: 1.234_567_890_123,
                        estimate: p5_fame::Estimate {
                            value: 1.234_567_890_123,
                            ci95: 0.042_424_242,
                            samples: 12,
                        },
                        converged: true,
                    }),
                    None,
                ],
                measured_cycles: 98_765,
                warmup_cycles: 4_321,
            }),
            status,
            error: (status == CellStatus::Degraded)
                .then_some(SimError::Deadline { phase: "measure" }),
        }
    }

    #[test]
    fn crashed_and_skipped_cells_are_never_journaled() {
        let dir = tmp_dir("retry");
        let j = ResultJournal::create(&dir).unwrap();
        let key = CellKey(7);
        j.record_cell(key, &sample_measured(CellStatus::Crashed));
        j.record_cell(key, &sample_measured(CellStatus::Skipped));
        assert_eq!(j.cell_count(), 0, "both must be retried on resume");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_tail_is_tolerated() {
        let dir = tmp_dir("truncated");
        {
            let j = ResultJournal::create(&dir).unwrap();
            j.record_cell(CellKey(1), &sample_measured(CellStatus::Ok));
            j.record_cell(CellKey(2), &sample_measured(CellStatus::Ok));
        }
        // Chop the file mid-way through the last record, as a crash
        // mid-write would.
        let path = dir.join(ResultJournal::FILE_NAME);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 30]).unwrap();
        let (j, stats) = ResultJournal::resume(&dir).unwrap();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.corrupt, 1, "the torn tail is counted, not fatal");
        assert!(j.lookup_cell(CellKey(1)).is_some());
        assert!(j.lookup_cell(CellKey(2)).is_none(), "torn record is lost");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicate_keys_resolve_last_write_wins() {
        let dir = tmp_dir("dup");
        {
            let j = ResultJournal::create(&dir).unwrap();
            let mut first = sample_measured(CellStatus::Ok);
            if let Some(r) = &mut first.report {
                r.measured_cycles = 111;
            }
            j.record_cell(CellKey(9), &first);
            let mut second = sample_measured(CellStatus::Recovered);
            if let Some(r) = &mut second.report {
                r.measured_cycles = 222;
            }
            j.record_cell(CellKey(9), &second);
        }
        let (j, stats) = ResultJournal::resume(&dir).unwrap();
        assert_eq!(stats.entries, 2, "both lines load");
        let m = j.lookup_cell(CellKey(9)).unwrap();
        assert_eq!(m.status, CellStatus::Recovered);
        assert_eq!(m.report.unwrap().measured_cycles, 222);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_schema_versions_are_skipped_not_fatal() {
        let dir = tmp_dir("stale");
        {
            let j = ResultJournal::create(&dir).unwrap();
            j.record_cell(CellKey(1), &sample_measured(CellStatus::Ok));
        }
        let path = dir.join(ResultJournal::FILE_NAME);
        let mut content = std::fs::read_to_string(&path).unwrap();
        content.push_str("{\"v\":999,\"kind\":\"cell\",\"key\":2,\"status\":\"ok\"}\n");
        std::fs::write(&path, content).unwrap();
        let (j, stats) = ResultJournal::resume(&dir).unwrap();
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.stale, 1);
        assert!(j.lookup_cell(CellKey(2)).is_none(), "stale record ignored");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_on_empty_dir_starts_fresh() {
        let dir = tmp_dir("fresh");
        let (j, stats) = ResultJournal::resume(&dir).unwrap();
        assert_eq!(stats, LoadStats::default());
        assert_eq!(j.cell_count(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stable_hasher_is_stable_across_instances() {
        let mut a = StableHasher::new();
        let mut b = StableHasher::new();
        std::hash::Hash::hash(&("p5", 42u64, [1u8, 2, 3]), &mut a);
        std::hash::Hash::hash(&("p5", 42u64, [1u8, 2, 3]), &mut b);
        assert_eq!(a.finish(), b.finish());
        let mut c = StableHasher::new();
        std::hash::Hash::hash(&("p5", 43u64, [1u8, 2, 3]), &mut c);
        assert_ne!(a.finish(), c.finish());
    }

    #[test]
    fn in_memory_journal_indexes_but_never_persists() {
        let j = ResultJournal::in_memory();
        let key = CellKey(0x11);
        j.record_cell(key, &sample_measured(CellStatus::Ok));
        assert_eq!(j.cell_count(), 1);
        assert!(j.lookup_cell(key).is_some());
        j.flush();
        assert_eq!(j.path(), Path::new(""), "no backing file");
    }

    #[test]
    fn bounded_index_evicts_oldest_first() {
        let j = ResultJournal::in_memory();
        j.set_max_cells(Some(2));
        j.record_cell(CellKey(1), &sample_measured(CellStatus::Ok));
        j.record_cell(CellKey(2), &sample_measured(CellStatus::Ok));
        assert_eq!(j.evicted(), 0);
        // Re-recording an indexed key must not age it out of order or
        // grow the queue.
        j.record_cell(CellKey(1), &sample_measured(CellStatus::Ok));
        assert_eq!(j.cell_count(), 2);
        assert_eq!(j.evicted(), 0);
        j.record_cell(CellKey(3), &sample_measured(CellStatus::Ok));
        assert_eq!(j.cell_count(), 2);
        assert_eq!(j.evicted(), 1);
        assert!(j.lookup_cell(CellKey(1)).is_none(), "oldest went first");
        assert!(j.lookup_cell(CellKey(2)).is_some());
        assert!(j.lookup_cell(CellKey(3)).is_some());
        // Tightening the bound evicts immediately; lifting it stops
        // eviction without resurrecting anything.
        j.set_max_cells(Some(1));
        assert_eq!(j.cell_count(), 1);
        assert_eq!(j.evicted(), 2);
        assert!(j.lookup_cell(CellKey(3)).is_some());
        j.set_max_cells(None);
        j.record_cell(CellKey(4), &sample_measured(CellStatus::Ok));
        j.record_cell(CellKey(5), &sample_measured(CellStatus::Ok));
        assert_eq!(j.cell_count(), 3);
        assert_eq!(j.evicted(), 2);
    }

    #[test]
    fn bound_shrinks_only_the_index_not_the_file() {
        let dir = tmp_dir("bound");
        let j = ResultJournal::create(&dir).unwrap();
        j.set_max_cells(Some(1));
        j.record_cell(CellKey(1), &sample_measured(CellStatus::Ok));
        j.record_cell(CellKey(2), &sample_measured(CellStatus::Ok));
        assert_eq!(j.cell_count(), 1);
        assert_eq!(j.evicted(), 1);
        drop(j);
        // Every record survives on disk; the bound is an index policy,
        // not a durability policy.
        let (j, stats) = ResultJournal::resume(&dir).unwrap();
        assert_eq!(stats.entries, 2);
        assert_eq!(j.cell_count(), 2);
        assert!(j.lookup_cell(CellKey(1)).is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn thread(repetitions: usize, avg: f64, ipc: f64, ci95: f64) -> ThreadMeasurement {
        ThreadMeasurement {
            repetitions,
            avg_repetition_cycles: avg,
            ipc,
            estimate: p5_fame::Estimate {
                value: ipc,
                ci95,
                samples: 4,
            },
            converged: ci95 == 0.0,
        }
    }

    /// Every bit of a report, in a fixed order (`u64::MAX` marks an
    /// inactive thread).
    fn report_bits(report: Option<&FameReport>) -> Vec<u64> {
        let mut bits = Vec::new();
        if let Some(r) = report {
            bits.extend([r.measured_cycles, r.warmup_cycles]);
            for t in &r.threads {
                match t {
                    None => bits.push(u64::MAX),
                    Some(t) => bits.extend([
                        t.repetitions as u64,
                        t.avg_repetition_cycles.to_bits(),
                        t.ipc.to_bits(),
                        t.estimate.value.to_bits(),
                        t.estimate.ci95.to_bits(),
                        u64::from(t.estimate.samples),
                        u64::from(t.converged),
                    ]),
                }
            }
        }
        bits
    }

    #[test]
    fn lines_are_byte_stable() {
        let dir = tmp_dir("bytes");
        let cells = [
            (
                CellKey(1),
                Measured {
                    report: Some(FameReport {
                        threads: [
                            Some(thread(10, 100.0, 1.5, 0.0)),
                            Some(thread(7, 150.0, 0.5, 0.0)),
                        ],
                        measured_cycles: 2_000,
                        warmup_cycles: 500,
                    }),
                    status: CellStatus::Ok,
                    error: None,
                },
            ),
            (
                CellKey(0xFFFF_FFFF_FFFF_FFFF),
                Measured {
                    report: Some(FameReport {
                        threads: [None, Some(thread(3, 400.0, 0.25, 0.0))],
                        measured_cycles: 1_200,
                        warmup_cycles: 0,
                    }),
                    status: CellStatus::Recovered,
                    error: None,
                },
            ),
            (
                CellKey(3),
                Measured {
                    report: Some(FameReport {
                        threads: [Some(thread(2, 2.0, 0.75, 0.125)), None],
                        measured_cycles: 9_000,
                        warmup_cycles: 100,
                    }),
                    status: CellStatus::Degraded,
                    error: Some(SimError::BudgetExhausted {
                        cycle_budget: 9_000,
                        repetitions: [2, 0],
                        target: [10, 0],
                    }),
                },
            ),
        ];
        let expected = [
            concat!(
                r#"{"v":5,"kind":"cell","key":1,"status":"ok","report":"#,
                r#"{"measured_cycles":2000,"warmup_cycles":500,"threads":["#,
                r#"{"repetitions":10,"avg_bits":4636737291354636288,"#,
                r#""ipc_bits":4609434218613702656,"est_bits":4609434218613702656,"#,
                r#""ci95_bits":0,"samples":4,"converged":true},"#,
                r#"{"repetitions":7,"avg_bits":4639481672377565184,"#,
                r#""ipc_bits":4602678819172646912,"est_bits":4602678819172646912,"#,
                r#""ci95_bits":0,"samples":4,"converged":true}]}}"#,
            ),
            concat!(
                r#"{"v":5,"kind":"cell","key":18446744073709551615,"status":"recovered","#,
                r#""report":{"measured_cycles":1200,"warmup_cycles":0,"threads":[null,"#,
                r#"{"repetitions":3,"avg_bits":4645744490609377280,"#,
                r#""ipc_bits":4598175219545276416,"est_bits":4598175219545276416,"#,
                r#""ci95_bits":0,"samples":4,"converged":true}]}}"#,
            ),
            concat!(
                r#"{"v":5,"kind":"cell","key":3,"status":"degraded","#,
                r#""error":"cycle budget of 9000 exhausted at repetitions [2/10, 0/0]","#,
                r#""report":{"measured_cycles":9000,"warmup_cycles":100,"threads":["#,
                r#"{"repetitions":2,"avg_bits":4611686018427387904,"#,
                r#""ipc_bits":4604930618986332160,"est_bits":4604930618986332160,"#,
                r#""ci95_bits":4593671619917905920,"samples":4,"converged":false},"#,
                r#"null]}}"#,
            ),
        ];
        {
            let j = ResultJournal::create(&dir).unwrap();
            for (key, m) in &cells {
                j.record_cell(*key, m);
            }
        }
        let path = dir.join(ResultJournal::FILE_NAME);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines, expected, "journal lines keep their exact bytes");

        std::fs::write(
            &path,
            format!(
                "{text}{}\n",
                r#"{"v":5,"kind":"cell","key":4,"status":"crashed","error":"cell panicked: boom"}"#
            ),
        )
        .unwrap();
        let (j, stats) = ResultJournal::resume(&dir).unwrap();
        assert_eq!(
            stats,
            LoadStats {
                entries: 3,
                stale: 0,
                corrupt: 1
            },
            "a crashed line is never a record"
        );
        assert!(j.lookup_cell(CellKey(4)).is_none());
        for (key, recorded) in &cells {
            let replayed = j.lookup_cell(*key).expect("journaled cell found");
            assert_eq!(replayed.status, recorded.status);
            assert_eq!(
                report_bits(replayed.report.as_ref()),
                report_bits(recorded.report.as_ref())
            );
            assert_eq!(
                replayed.error.map(|e| e.to_string()),
                recorded.error.as_ref().map(SimError::to_string)
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn measured_wire_format_round_trips_every_status() {
        for status in [
            CellStatus::Ok,
            CellStatus::Recovered,
            CellStatus::Degraded,
            CellStatus::Crashed,
            CellStatus::Skipped,
        ] {
            let mut original = sample_measured(status);
            if status == CellStatus::Crashed {
                original.report = None;
                original.error = Some(SimError::CellPanic {
                    message: "boom".to_string(),
                });
            }
            let line = measured_to_json(&original).to_string();
            let back =
                measured_from_json(&JsonValue::parse(&line).unwrap()).expect("wire format parses");
            assert_eq!(back.status, original.status);
            assert_eq!(
                back.report
                    .as_ref()
                    .and_then(|r| r.threads[0])
                    .map(|t| t.ipc.to_bits()),
                original
                    .report
                    .as_ref()
                    .and_then(|r| r.threads[0])
                    .map(|t| t.ipc.to_bits()),
                "reports are bit-exact over the wire"
            );
            assert_eq!(
                back.error.map(|e| e.to_string()),
                original.error.map(|e| e.to_string()),
                "error text survives verbatim for {status:?}"
            );
        }
    }
}
