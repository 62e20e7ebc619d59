//! Deterministic parallel campaign engine.
//!
//! Every paper artifact is a *campaign*: a flat list of independent
//! simulation cells (a workload or workload pair, a priority pair, an
//! optional fault schedule) whose measured values are aggregated into a
//! figure or table. This module turns that shape into an API —
//! [`CellSpec`] → [`CampaignSpec`] → [`Campaign::run`] →
//! [`CampaignResult`] — and runs the cells on a bounded `std::thread`
//! worker pool.
//!
//! # Determinism
//!
//! Parallel runs are **bit-identical** to serial runs, by construction:
//!
//! - **No work stealing, no channels.** Workers claim cell indices from
//!   a single atomic counter and write each result into its own
//!   index-keyed slot. Claim *order* is racy; the index→cell mapping is
//!   not, and aggregation reads the slots in index order.
//! - **Per-cell seeds.** Each cell simulates with an RNG seed derived
//!   (splitmix64-style, [`derive_cell_seed`]) from the campaign seed and
//!   the cell's index — never from thread identity, scheduling order, or
//!   time. A cell's simulation is a pure function of its spec.
//! - **Isolated state.** Each cell builds its own `SmtCore` (and with it
//!   its own cache hierarchy and PMU counter cells), so nothing is
//!   shared between concurrently running cells. The `Arc<Mutex<_>>`
//!   cells inside a core exist to make it `Send`, not to share data
//!   across cells; their locks are uncontended.
//! - **Shared cells.** Cells with one identity (what [`cell_key`]
//!   hashes) have one result, so the campaign simulates the lowest id
//!   of each such group once and gives its outcome to the others
//!   ([`CampaignSpec::reuse_warmup`], DESIGN.md §12).
//!
//! Aggregated results — cell values, `recovered` counts, `degraded`
//! annotations — are therefore independent of `jobs`, which the
//! determinism suite (`tests/determinism.rs`) asserts byte-for-byte on
//! the exported CSV/JSON artifacts.
//!
//! # Crash safety
//!
//! Cells are *failure domains*: each one runs under `catch_unwind`, so
//! a panicking cell becomes a typed [`CellStatus::Crashed`] outcome
//! (never a lost campaign), and every shared `Mutex` a panic could
//! poison — the chip's shared caches, the PMU counter cells, the
//! result slots above — recovers the poison instead of cascading it.
//! An [`Experiments::cancel`] token bounds the campaign in wall-clock
//! time ([`Experiments::cell_deadline`] bounds each cell), stopping
//! work at clean chunk boundaries with a valid partial result. With an
//! [`Experiments::journal`] attached, finished cells are journaled
//! write-ahead under a content-addressed [`cell_key`] and replayed
//! bit-identically on `--resume` (see [`crate::journal`]). All of it is
//! rehearsed deterministically by [`p5_fault::ChaosPlan`] host-fault
//! schedules in `tests/crash_safety.rs`.
//!
//! # Example
//!
//! ```
//! use p5_core::ExecutionPlan;
//! use p5_experiments::campaign::{Campaign, CampaignSpec, CellSpec};
//! use p5_experiments::Experiments;
//! use p5_isa::Priority;
//! use p5_microbench::MicroBenchmark;
//!
//! let high = Priority::from_level(6).expect("valid level");
//! let low = Priority::from_level(2).expect("valid level");
//! let cells = vec![
//!     CellSpec::single("cpu_int alone", MicroBenchmark::CpuInt.program()),
//!     CellSpec::pair(
//!         "cpu_int vs ldint_l2 at (6,2)",
//!         MicroBenchmark::CpuInt.program(),
//!         MicroBenchmark::LdintL2.program(),
//!         (high, low),
//!     ),
//! ];
//!
//! // Every cell runs under the context's plan: here, functional
//! // fast-forward warmup.
//! let ctx = Experiments::quick()
//!     .with_jobs(2)
//!     .with_plan(ExecutionPlan::parse("detailed+ff").unwrap());
//! let result = Campaign::run(&ctx, &CampaignSpec::for_ctx(&ctx, cells));
//! assert_eq!(result.cells.len(), 2);
//! for cell in &result.cells {
//!     let report = cell.measured.report.as_ref().expect("quick cells converge");
//!     assert!(report.total_ipc() > 0.0, "{} measured a real IPC", cell.label);
//! }
//! ```

use crate::journal::{CellKey, StableHasher, JOURNAL_SCHEMA_VERSION};
use crate::{CellCounts, CellStatus, Degradation, Experiments, Measured};
use p5_core::{CancelToken, CoreConfig, SimError, WarmupMode};
use p5_fault::{FaultKind, FaultPlan, HostFaultKind};
use p5_isa::{BranchBehavior, Op, Priority, Program, ThreadId};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(0..n)` on up to `jobs` worker threads and returns the results
/// in index order.
///
/// This is the engine's only parallel primitive. The requested `jobs`
/// is first clamped to the host's available parallelism — on a 1-CPU
/// container (common in CI) a worker pool can only lose to a plain
/// loop, and `BENCH_repro.json` measured it doing exactly that (0.95×)
/// before this clamp. An effective `jobs <= 1` (or a single item) then
/// short-circuits to a plain serial loop — the parallel path differs
/// only in *where* each `f(i)` executes, so any index-addressed
/// computation is `jobs`-independent by construction.
///
/// # Panics
///
/// Propagates panics from `f` (the scope joins its workers). The
/// campaign engine wraps each cell in `catch_unwind`, so a panicking
/// *cell* never reaches this boundary — only a panic in the engine's
/// own bookkeeping would.
pub fn parallel_map<T, F>(jobs: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let jobs = jobs.min(host);
    if jobs <= 1 || n <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    // Slot poisoning is recovered, not propagated: a slot's lock is
    // only held for the assignment below, which cannot be observed
    // half-done, so even if a worker died between `f(i)` and the store
    // the other slots remain valid.
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let value = f(i);
                *slots[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every cell index is claimed exactly once")
        })
        .collect()
}

/// A seeded fault schedule applied to one cell (resilience campaigns).
///
/// The faults are generated by [`FaultPlan::generate`] from this seed
/// alone, so the perturbation a cell sees is part of its spec — two runs
/// of the same spec see the same faults regardless of `jobs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellFaults {
    /// Seed for [`FaultPlan::generate`].
    pub seed: u64,
    /// Number of faults drawn.
    pub count: usize,
    /// Cycle horizon the fault times are drawn over.
    pub horizon: u64,
}

/// One independent simulation cell: what runs, at which priorities,
/// under which (optional) fault schedule. How it runs is the campaign
/// context's [`CoreConfig::plan`].
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Label used for progress events and degradation annotations,
    /// e.g. `"(cpu_int,ldint_l2) at diff +2"`.
    pub label: String,
    /// The primary (measured) program, on thread 0.
    pub primary: Program,
    /// The secondary program on thread 1, if the cell is an SMT pair.
    pub secondary: Option<Program>,
    /// Hardware thread priorities `(PrioP, PrioS)`. Ignored for
    /// single-thread cells, which run at the core's default (Medium) —
    /// matching the paper's ST baselines.
    pub priorities: (Priority, Priority),
    /// Optional seeded fault schedule.
    pub faults: Option<CellFaults>,
}

impl CellSpec {
    /// A single-thread cell (ST baseline) at default priority.
    #[must_use]
    pub fn single(label: impl Into<String>, program: Program) -> CellSpec {
        CellSpec {
            label: label.into(),
            primary: program,
            secondary: None,
            priorities: (Priority::Medium, Priority::Medium),
            faults: None,
        }
    }

    /// An SMT pair cell at the given priorities.
    #[must_use]
    pub fn pair(
        label: impl Into<String>,
        primary: Program,
        secondary: Program,
        priorities: (Priority, Priority),
    ) -> CellSpec {
        CellSpec {
            label: label.into(),
            primary,
            secondary: Some(secondary),
            priorities,
            faults: None,
        }
    }

    /// Returns this cell with a seeded fault schedule attached.
    #[must_use]
    pub fn with_faults(mut self, faults: CellFaults) -> CellSpec {
        self.faults = Some(faults);
        self
    }
}

/// A full campaign: the flat cell list plus the execution policy.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// The cells, in aggregation order. A cell's index is its id.
    pub cells: Vec<CellSpec>,
    /// Worker threads (`1` = serial; results are identical either way).
    pub jobs: usize,
    /// Campaign seed each cell's RNG seed is derived from.
    pub seed: u64,
    /// Whether cells with one identity (what [`cell_key`] hashes) share
    /// one simulation, warm-up and measurement both: the lowest id of
    /// each group runs, and every other id gets its outcome. Results
    /// are byte-identical either way (DESIGN.md §12).
    pub reuse_warmup: bool,
}

impl CampaignSpec {
    /// Builds a spec from an [`Experiments`] context: `jobs` from
    /// `ctx.jobs`, campaign seed from the configured core RNG seed,
    /// and shared cells on.
    #[must_use]
    pub fn for_ctx(ctx: &Experiments, cells: Vec<CellSpec>) -> CampaignSpec {
        CampaignSpec {
            cells,
            jobs: ctx.jobs,
            seed: ctx.core.rng_seed,
            reuse_warmup: true,
        }
    }
}

/// The measured outcome of one cell, keyed by its id.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Index of the cell in [`CampaignSpec::cells`].
    pub id: usize,
    /// The cell's label (copied from its spec).
    pub label: String,
    /// The resilient measurement (report, status, error).
    pub measured: Measured,
    /// Whether the measurement was replayed from the result journal
    /// instead of simulated. Replayed values are bit-identical to
    /// simulated ones (that is the journal's contract), so this flag
    /// never appears in exported artifacts — it exists for progress
    /// reporting and resume accounting.
    pub replayed: bool,
}

/// Aggregated campaign outcome: per-cell results in id order plus the
/// unified resilience roll-up every artifact reports.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// One outcome per cell, in id (= spec) order regardless of `jobs`.
    pub cells: Vec<CellOutcome>,
    /// Cells that needed the escalated-budget retry.
    pub recovered: usize,
    /// Degradation annotations, in id order.
    pub degraded: Vec<Degradation>,
    /// Cells replayed from the result journal (0 without a journal).
    pub replayed: usize,
    /// Cells skipped because the campaign's cancellation token had
    /// expired before they started (they are also in `degraded`).
    pub skipped: usize,
}

impl CampaignResult {
    /// The measurement of cell `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn measured(&self, id: usize) -> &Measured {
        &self.cells[id].measured
    }

    /// Whether *every* cell degraded (no usable data at all).
    #[must_use]
    pub fn all_degraded(&self) -> bool {
        !self.cells.is_empty() && self.degraded.len() == self.cells.len()
    }

    /// Per-status cell tally — the roll-up the artifact results carry
    /// into end-of-run summaries.
    #[must_use]
    pub fn counts(&self) -> CellCounts {
        let mut counts = CellCounts::default();
        for cell in &self.cells {
            counts.tally(cell.measured.status, cell.replayed);
        }
        counts
    }
}

/// Folds per-cell outcomes (in id order) into a [`CampaignResult`] —
/// the aggregation step of [`Campaign::run`], exposed separately so a
/// caller that obtained its outcomes elsewhere (e.g. streamed from the
/// `p5-serve` daemon) lands on the exact same roll-up an offline run
/// produces. The outcomes must already be in id order; aggregation is a
/// pure fold, so equal inputs give byte-equal results.
#[must_use]
pub fn aggregate(cells: Vec<CellOutcome>) -> CampaignResult {
    let recovered = cells
        .iter()
        .filter(|o| o.measured.status == CellStatus::Recovered)
        .count();
    let degraded = cells
        .iter()
        .filter_map(|o| o.measured.degradation(&o.label))
        .collect();
    let replayed = cells.iter().filter(|o| o.replayed).count();
    let skipped = cells
        .iter()
        .filter(|o| o.measured.status == CellStatus::Skipped)
        .count();
    CampaignResult {
        cells,
        recovered,
        degraded,
        replayed,
        skipped,
    }
}

/// A progress event streamed to [`Campaign::run_observed`] observers.
///
/// Events fire from worker threads, so their interleaving across cells
/// is scheduling-dependent — only the aggregated [`CampaignResult`] is
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CampaignEvent<'a> {
    /// A worker began simulating a cell.
    CellStarted {
        /// Cell id.
        id: usize,
        /// Cell label.
        label: &'a str,
    },
    /// A cell finished (in any status).
    CellFinished {
        /// Cell id.
        id: usize,
        /// Cell label.
        label: &'a str,
        /// How the measurement ended.
        status: CellStatus,
    },
}

/// Derives the RNG seed of cell `cell_id` from the campaign seed
/// (splitmix64 finalizer). Depends only on its arguments, so the
/// simulation a cell runs is a pure function of its spec.
#[must_use]
pub fn derive_cell_seed(campaign_seed: u64, cell_id: u64) -> u64 {
    let mut z =
        campaign_seed.wrapping_add(cell_id.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The per-cell part of a cell's identity: two cells of one campaign
/// with equal keys (and equal fault schedules) simulate bit-identically.
///
/// The key covers everything a cell sets up: both programs (full
/// structural fingerprints — body, streams, iteration counts), the
/// priorities applied at setup (normalized to a sentinel for
/// single-thread cells, which never apply priorities), the warmup
/// engine, and — only when a program contains `Random` branches, the
/// one place a cell can consume the seeded RNG — the derived per-cell
/// seed. Everything else a cell depends on (core and memory geometry,
/// FAME budgets) is campaign-wide and thus equal across cells by
/// construction. [`cell_key`] hashes the same identity.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct WarmupKey {
    primary: u64,
    secondary: Option<u64>,
    priorities: (u8, u8),
    warmup: WarmupMode,
    seed: Option<u64>,
}

/// Structural fingerprint of a program (name, iteration count, loop
/// body, address streams). Hashed with [`StableHasher`] so the same
/// binary produces the same fingerprint in every run — shared cells
/// only need within-process stability, but the result journal
/// addresses records *across* runs with these fingerprints.
fn program_fingerprint(program: &Program) -> u64 {
    let mut h = StableHasher::new();
    program.name().hash(&mut h);
    program.iterations().hash(&mut h);
    program.body().hash(&mut h);
    program.streams().hash(&mut h);
    h.finish()
}

/// Whether the program can draw from the core's seeded RNG (only
/// `Random` branches do). If so, differently-seeded cells simulate
/// differently and must not share.
fn uses_rng(program: &Program) -> bool {
    program
        .body()
        .iter()
        .any(|inst| matches!(inst.op, Op::Branch(BranchBehavior::Random { .. })))
}

/// The per-cell identity of cell `id`: the one definition that both
/// shared cells ([`shared_groups`]) and the journal key ([`cell_key`])
/// hash.
fn warm_identity(ctx: &Experiments, spec: &CampaignSpec, id: usize, cell: &CellSpec) -> WarmupKey {
    let rng_relevant = uses_rng(&cell.primary) || cell.secondary.as_ref().is_some_and(uses_rng);
    WarmupKey {
        primary: program_fingerprint(&cell.primary),
        secondary: cell.secondary.as_ref().map(program_fingerprint),
        priorities: if cell.secondary.is_some() {
            (cell.priorities.0.level(), cell.priorities.1.level())
        } else {
            // Single-thread cells run at the default priority; their
            // spec's `priorities` field is ignored and must not split
            // otherwise-identical warm-ups.
            (u8::MAX, u8::MAX)
        },
        warmup: ctx.core.plan.warmup,
        seed: rng_relevant.then(|| derive_cell_seed(spec.seed, id as u64)),
    }
}

/// Content-addressed journal key of cell `id` (see
/// [`crate::journal`]): a [`StableHasher`] digest of the typed values
/// the cell's measurement depends on —
///
/// - the journal schema version (a bump invalidates every old record);
/// - the cell's identity (`WarmupKey`): both program
///   fingerprints, the normalized priorities, the warmup engine, and
///   the derived per-cell seed, but *only* when a program consumes the
///   seeded RNG — so identical RNG-free cells at different indices (or
///   in different artifacts) share one record;
/// - the fault schedule (or its absence);
/// - the core configuration with `rng_seed` zeroed (a cell never runs
///   under the context's seed; the identity carries the seed that
///   applies) and the FAME configuration.
///
/// The configurations hash through their `Hash` impls, which decide
/// field by field what is identity. `ExecutionPlan` contributes its
/// warmup engine and measure mode, so sampled results never stand in
/// for detailed ones or vice versa. It leaves out the idle skip, which
/// does not change a cell's bytes. `jobs`, shared cells, the journal,
/// deadlines, cancellation and chaos live outside the configurations
/// and never reach the key.
#[must_use]
pub fn cell_key(ctx: &Experiments, spec: &CampaignSpec, id: usize, cell: &CellSpec) -> CellKey {
    let mut h = StableHasher::new();
    (
        JOURNAL_SCHEMA_VERSION,
        warm_identity(ctx, spec, id, cell),
        cell.faults,
        CoreConfig {
            rng_seed: 0,
            ..ctx.core.clone()
        },
        ctx.fame,
    )
        .hash(&mut h);
    CellKey(h.finish())
}

/// Loads a cell's programs and priorities onto a core — the setup every
/// attempt runs identically.
fn setup_cell(core: &mut p5_core::SmtCore, cell: &CellSpec) {
    core.load_program(ThreadId::T0, cell.primary.clone());
    if let Some(secondary) = &cell.secondary {
        core.load_program(ThreadId::T1, secondary.clone());
        core.set_priority(ThreadId::T0, cell.priorities.0);
        core.set_priority(ThreadId::T1, cell.priorities.1);
    }
}

/// The cells of `spec` grouped by identity: each group in id order, the
/// groups in the order of their lowest ids. The identity is what
/// [`cell_key`] hashes within one campaign, [`warm_identity`] plus the
/// fault schedule, so a group never merges cells the journal keeps
/// apart. With `reuse_warmup` off, every cell is a group of its own.
fn shared_groups(ctx: &Experiments, spec: &CampaignSpec) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut by_identity = HashMap::new();
    for (id, cell) in spec.cells.iter().enumerate() {
        let next = groups.len();
        let group = if spec.reuse_warmup {
            *by_identity
                .entry((warm_identity(ctx, spec, id, cell), cell.faults))
                .or_insert(next)
        } else {
            next
        };
        if group == next {
            groups.push(Vec::new());
        }
        groups[group].push(id);
    }
    groups
}

/// The campaign engine. Stateless: [`Campaign::run`] is a function from
/// (context, spec) to result.
#[derive(Debug, Clone, Copy)]
pub struct Campaign;

impl Campaign {
    /// Runs every cell of `spec` on up to `spec.jobs` worker threads and
    /// aggregates the outcomes in cell-id order.
    #[must_use]
    pub fn run(ctx: &Experiments, spec: &CampaignSpec) -> CampaignResult {
        Campaign::run_observed(ctx, spec, |_| {})
    }

    /// [`Campaign::run`] with a progress observer. `on_event` is invoked
    /// from worker threads (hence `Sync`); see [`CampaignEvent`].
    ///
    /// The workers run one `execute_cell` per group of shared cells
    /// (see [`CampaignSpec::reuse_warmup`]), on the group's lowest id;
    /// a chaos fault scheduled on any id of the group fires on that run.
    /// Every other id of the group takes that `(measured, replayed)`
    /// pair under its own id and label, and its `CellStarted` and
    /// `CellFinished` events fire once the lowest id has finished.
    #[must_use]
    pub fn run_observed(
        ctx: &Experiments,
        spec: &CampaignSpec,
        on_event: impl Fn(&CampaignEvent<'_>) + Sync,
    ) -> CampaignResult {
        let groups = shared_groups(ctx, spec);
        let results = parallel_map(spec.jobs, groups.len(), |g| {
            let lowest = groups[g][0];
            let cell = &spec.cells[lowest];
            on_event(&CampaignEvent::CellStarted {
                id: lowest,
                label: &cell.label,
            });
            let (measured, replayed) = execute_cell(ctx, spec, &groups[g], cell);
            for &id in &groups[g] {
                let label = &spec.cells[id].label;
                if id != lowest {
                    on_event(&CampaignEvent::CellStarted { id, label });
                }
                on_event(&CampaignEvent::CellFinished {
                    id,
                    label,
                    status: measured.status,
                });
            }
            (measured, replayed)
        });
        if let Some(journal) = &ctx.journal {
            journal.flush();
        }
        let mut cells: Vec<Option<CellOutcome>> = vec![None; spec.cells.len()];
        for (group, (measured, replayed)) in groups.iter().zip(results) {
            for &id in group {
                cells[id] = Some(CellOutcome {
                    id,
                    label: spec.cells[id].label.clone(),
                    measured: measured.clone(),
                    replayed,
                });
            }
        }
        aggregate(cells.into_iter().flatten().collect())
    }
}

/// Executes one cell of `spec` outside a campaign run — the entry point
/// the `p5-serve` daemon sends its cache misses through. The cell goes
/// through the *full* per-cell worker flow (the chaos, cancel,
/// journal-replay, deadline, panic-isolation, interruption and
/// write-ahead steps), so with a journal attached as `ctx.journal` this
/// is a content-addressed memoized call: a recorded key returns
/// `(measured, true)` without simulating.
///
/// The caller flushes the journal (if any) when its batch of cells is
/// done; [`Campaign::run`] does the same at campaign end.
#[must_use]
pub fn run_isolated_cell(
    ctx: &Experiments,
    spec: &CampaignSpec,
    id: usize,
    cell: &CellSpec,
) -> (Measured, bool) {
    execute_cell(ctx, spec, &[id], cell)
}

/// The journal-replay step of the per-cell worker flow on its own: the
/// record journaled under the cell's content-addressed [`cell_key`], or
/// `None` when `ctx` carries no journal or the key is unrecorded. This
/// is the one definition of a cache hit. `p5-serve` answers hits with
/// it on the connection's thread, and [`run_isolated_cell`] takes the
/// same step, so a miss that another client recorded in the meantime
/// still replays.
#[must_use]
pub fn replay_cell(
    ctx: &Experiments,
    spec: &CampaignSpec,
    id: usize,
    cell: &CellSpec,
) -> Option<Measured> {
    let journal = ctx.journal.as_ref()?;
    journal.lookup_cell(cell_key(ctx, spec, id, cell))
}

/// The outcome of a cell the campaign token stopped: no data, and never
/// journaled, so a resumed run (or the next client) simulates it.
fn skipped() -> Measured {
    Measured {
        report: None,
        status: CellStatus::Skipped,
        error: Some(SimError::Deadline { phase: "campaign" }),
    }
}

/// The full per-cell worker flow — everything that sits between "a
/// worker claimed cell `id`" and "the cell has a [`Measured`]":
///
/// 1. **Chaos: abort.** A scheduled [`HostFaultKind::AbortCampaign`]
///    fires the campaign token *before* the expiry check, so the abort
///    cell itself is already skipped — rehearsing a SIGTERM landing
///    between two cells.
/// 2. **Skip on expired token.** A cell claimed after the campaign
///    token expired is `Skipped` without simulating (and without being
///    journaled, so a resumed run retries it).
/// 3. **Journal replay** ([`replay_cell`]). A journaled record under the
///    cell's content-addressed key stands in for simulation,
///    bit-identically.
/// 4. **Per-cell deadline.** The cell's token is derived *here*, before
///    any chaos stall, so a stalled worker burns its own cell's budget.
/// 5. **Panic isolation.** Everything that can execute cell code —
///    chaos panics and the simulation itself — runs
///    under `catch_unwind`; a panic becomes a `Crashed` outcome (with
///    [`SimError::CellPanic`] carrying the message) and the campaign
///    carries on.
/// 6. **Interruption.** A cell still running when the campaign token
///    expired (chaos abort, time budget, a client disconnect) and that
///    failed with [`SimError::Deadline`] was stopped by the host, not by
///    its own limit: it is `Skipped` like an unclaimed cell. A cell's
///    own `cell_deadline` degradation is still reported as `Degraded`.
/// 7. **Write-ahead journaling** of trustworthy outcomes — never a
///    skipped cell, and never a [`SimError::Deadline`]: a wall-clock
///    limit depends on the host, and `cell_key` leaves it out, so a
///    journaled one would replay into runs that set no deadline.
///
/// A campaign calls this once per group of shared cells: `ids` is the
/// group in id order, and the cell runs as the lowest, `ids[0]`. Every
/// step reads the [`p5_fault::ChaosPlan`] faults of *all* the ids, so a
/// fault scheduled on a shared copy fires on the one run the copy
/// takes its outcome from.
fn execute_cell(
    ctx: &Experiments,
    spec: &CampaignSpec,
    ids: &[usize],
    cell: &CellSpec,
) -> (Measured, bool) {
    let id = ids[0];
    let chaos: Vec<(usize, HostFaultKind)> = ctx.chaos.as_ref().map_or_else(Vec::new, |chaos| {
        (ids.iter())
            .flat_map(|&victim| chaos.for_cell(victim).map(move |kind| (victim, kind)))
            .collect()
    });
    if chaos
        .iter()
        .any(|&(_, kind)| kind == HostFaultKind::AbortCampaign)
    {
        if let Some(token) = &ctx.cancel {
            token.cancel();
        }
    }
    let cancelled = || ctx.cancel.as_ref().is_some_and(CancelToken::expired);
    if cancelled() {
        return (skipped(), false);
    }
    if let Some(measured) = replay_cell(ctx, spec, id, cell) {
        return (measured, true);
    }
    let token = match (&ctx.cancel, ctx.cell_deadline) {
        (Some(t), Some(d)) => Some(t.child_with_budget(d)),
        (None, Some(d)) => Some(CancelToken::with_budget(d)),
        (Some(t), None) => Some(t.clone()),
        (None, None) => None,
    };
    for &(_, kind) in &chaos {
        if let HostFaultKind::StallCell { millis } = kind {
            std::thread::sleep(std::time::Duration::from_millis(millis));
        }
    }
    // `AssertUnwindSafe` is sound here: on panic every value captured
    // by the closure is either dropped (`core`, locals) or observed
    // only through the poison-recovering shared cells, whose per-lock
    // updates are atomic with respect to their guards.
    let result = catch_unwind(AssertUnwindSafe(|| {
        if let Some(&(victim, _)) = chaos
            .iter()
            .find(|&&(_, kind)| kind == HostFaultKind::PanicCell)
        {
            panic!("chaos: scheduled worker panic in cell {victim}");
        }
        run_cell(ctx, spec, id, cell, token.as_ref())
    }));
    let measured = match result {
        Ok(measured) => measured,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Measured {
                report: None,
                status: CellStatus::Crashed,
                error: Some(SimError::CellPanic { message }),
            }
        }
    };
    if matches!(measured.error, Some(SimError::Deadline { .. })) {
        if cancelled() {
            return (skipped(), false);
        }
        return (measured, false);
    }
    if let Some(journal) = &ctx.journal {
        journal.record_cell(cell_key(ctx, spec, id, cell), &measured);
    }
    (measured, false)
}

/// Simulates one cell: fresh context with the derived per-cell seed,
/// programs loaded, priorities applied (pairs only), faults injected,
/// then the shared resilient measure/retry path.
fn run_cell(
    ctx: &Experiments,
    spec: &CampaignSpec,
    id: usize,
    cell: &CellSpec,
    cancel: Option<&CancelToken>,
) -> Measured {
    let mut cell_ctx = ctx.clone();
    cell_ctx.core.rng_seed = derive_cell_seed(spec.seed, id as u64);
    let plan = cell
        .faults
        .map(|f| FaultPlan::generate(f.seed, f.horizon, f.count));
    cell_ctx.measure_resilient(
        move |core| {
            setup_cell(core, cell);
            if let Some(plan) = &plan {
                for fault in plan.faults() {
                    apply_fault(core, &fault.kind);
                }
            }
        },
        cancel,
    )
}

/// Maps a [`FaultKind`] onto the core's injection hooks at cell setup
/// (before warmup), so every attempt of the cell sees the identical
/// perturbation.
///
/// `PriorityCorruption` is deliberately skipped: a campaign cell's
/// priorities *are* the measured variable, and corrupting them would
/// change which paper cell the measurement belongs to rather than
/// stress-testing its convergence.
fn apply_fault(core: &mut p5_core::SmtCore, kind: &FaultKind) {
    match *kind {
        FaultKind::DecodeStall { thread, cycles } => core.inject_decode_stall(thread, cycles),
        FaultKind::CachePortBlock { cycles } => core.inject_cache_port_block(cycles),
        FaultKind::LmqSaturate { cycles } => core.inject_lmq_block(cycles),
        FaultKind::FlushStorm {
            thread,
            bursts,
            stall,
            gap: _,
        } => core.inject_decode_stall(thread, u64::from(bursts).saturating_mul(stall)),
        FaultKind::PriorityCorruption { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p5_isa::{Op, Reg, StaticInst};
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn tiny_ctx() -> Experiments {
        Experiments::with_configs(
            p5_core::CoreConfig::tiny_for_tests(),
            p5_fame::FameConfig::quick(),
        )
    }

    fn cpu_program(iters: u64) -> Program {
        let mut b = Program::builder("cpu");
        for i in 0..8 {
            b.push(StaticInst::new(Op::IntAlu).dst(Reg::new(32 + i)));
        }
        b.iterations(iters);
        b.build().unwrap()
    }

    #[test]
    fn core_and_context_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<p5_core::SmtCore>();
        assert_send::<Experiments>();
        assert_send::<Measured>();
        assert_send::<CellOutcome>();
    }

    #[test]
    fn parallel_map_preserves_index_order() {
        let out = parallel_map(4, 37, |i| i * i);
        assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_serial_short_circuit() {
        let out = parallel_map(1, 5, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn parallel_map_visits_each_index_once() {
        let visits = AtomicU64::new(0);
        let out = parallel_map(3, 16, |i| {
            visits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 16);
        assert_eq!(visits.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let seeds: HashSet<u64> = (0..256).map(|i| derive_cell_seed(0x5eed, i)).collect();
        assert_eq!(seeds.len(), 256, "no collisions over a campaign's range");
        assert_eq!(
            derive_cell_seed(0x5eed, 3),
            derive_cell_seed(0x5eed, 3),
            "pure function of its arguments"
        );
        assert_ne!(derive_cell_seed(0, 0), derive_cell_seed(1, 0));
    }

    #[test]
    fn campaign_results_independent_of_jobs() {
        let ctx = tiny_ctx();
        let cells: Vec<CellSpec> = (0..4)
            .map(|i| {
                CellSpec::pair(
                    format!("cell{i}"),
                    cpu_program(40),
                    cpu_program(40),
                    crate::priority_pair(i),
                )
            })
            .collect();
        let serial = Campaign::run(
            &ctx,
            &CampaignSpec {
                cells: cells.clone(),
                jobs: 1,
                seed: 42,
                reuse_warmup: false,
            },
        );
        let parallel = Campaign::run(
            &ctx,
            &CampaignSpec {
                cells,
                jobs: 4,
                seed: 42,
                reuse_warmup: false,
            },
        );
        assert_eq!(serial.cells.len(), parallel.cells.len());
        for (s, p) in serial.cells.iter().zip(&parallel.cells) {
            assert_eq!(s.id, p.id);
            assert_eq!(s.label, p.label);
            assert_eq!(s.measured.status, p.measured.status);
            assert_eq!(
                s.measured.total_ipc(),
                p.measured.total_ipc(),
                "cell {} IPC must be bit-identical",
                s.label
            );
        }
        assert_eq!(serial.recovered, parallel.recovered);
        assert_eq!(serial.degraded, parallel.degraded);
    }

    #[test]
    fn events_cover_every_cell() {
        let ctx = tiny_ctx();
        let spec = CampaignSpec {
            cells: (0..3)
                .map(|i| CellSpec::single(format!("st{i}"), cpu_program(30)))
                .collect(),
            jobs: 2,
            seed: 7,
            reuse_warmup: false,
        };
        let started = Mutex::new(HashSet::new());
        let finished = Mutex::new(HashSet::new());
        let result = Campaign::run_observed(&ctx, &spec, |event| match *event {
            CampaignEvent::CellStarted { id, .. } => {
                started.lock().unwrap().insert(id);
            }
            CampaignEvent::CellFinished { id, .. } => {
                finished.lock().unwrap().insert(id);
            }
        });
        assert_eq!(result.cells.len(), 3);
        assert_eq!(started.into_inner().unwrap().len(), 3);
        assert_eq!(finished.into_inner().unwrap().len(), 3);
    }

    #[test]
    fn seeded_faults_are_deterministic_across_jobs() {
        let ctx = tiny_ctx();
        let faulted = |jobs| {
            let cells = vec![CellSpec::pair(
                "faulted",
                cpu_program(40),
                cpu_program(40),
                crate::priority_pair(0),
            )
            .with_faults(CellFaults {
                seed: 0xFA_17,
                count: 3,
                horizon: 5_000,
            })];
            Campaign::run(
                &ctx,
                &CampaignSpec {
                    cells,
                    jobs,
                    seed: 9,
                    reuse_warmup: false,
                },
            )
        };
        let a = faulted(1);
        let b = faulted(4);
        assert_eq!(a.measured(0).status, b.measured(0).status);
        assert_eq!(a.measured(0).total_ipc(), b.measured(0).total_ipc());
    }

    /// `run_isolated_cell` is the serve daemon's per-cell entry point:
    /// it must produce bit-identical measurements to a campaign run of
    /// the same spec, and with an attached journal the second call for
    /// the same key must replay instead of simulate.
    #[test]
    fn isolated_cells_match_campaign_and_memoize() {
        let ctx = tiny_ctx();
        let spec = CampaignSpec {
            cells: (0..2)
                .map(|i| {
                    CellSpec::pair(
                        format!("cell{i}"),
                        cpu_program(40),
                        cpu_program(40),
                        crate::priority_pair(i),
                    )
                })
                .collect(),
            jobs: 1,
            seed: 42,
            reuse_warmup: false,
        };
        let baseline = Campaign::run(&ctx, &spec);
        for (id, cell) in spec.cells.iter().enumerate() {
            let (m, replayed) = run_isolated_cell(&ctx, &spec, id, cell);
            assert!(!replayed, "no journal, nothing to replay");
            assert_eq!(m.status, baseline.measured(id).status);
            assert_eq!(
                m.total_ipc().map(f64::to_bits),
                baseline.measured(id).total_ipc().map(f64::to_bits),
                "isolated cell {id} must be bit-identical to the campaign"
            );
        }

        let cache = Arc::new(crate::journal::ResultJournal::in_memory());
        let cached_ctx = ctx.clone().with_journal(cache);
        let (first, replayed) = run_isolated_cell(&cached_ctx, &spec, 0, &spec.cells[0]);
        assert!(!replayed, "cold cache simulates");
        let (second, replayed) = run_isolated_cell(&cached_ctx, &spec, 0, &spec.cells[0]);
        assert!(replayed, "warm cache replays");
        assert_eq!(
            first.total_ipc().map(f64::to_bits),
            second.total_ipc().map(f64::to_bits),
            "replayed value is bit-identical"
        );
    }

    /// A cell still in flight when another thread cancels its campaign
    /// token is an interruption, not a result: it comes back `Skipped`
    /// and leaves no journal record, so a re-run simulates it cleanly.
    #[test]
    fn cell_cancelled_in_flight_is_skipped_and_never_journaled() {
        let ctx = tiny_ctx();
        let spec = CampaignSpec {
            cells: vec![CellSpec::pair(
                "cell0",
                cpu_program(40),
                cpu_program(40),
                crate::priority_pair(0),
            )],
            jobs: 1,
            seed: 42,
            reuse_warmup: false,
        };
        let cell = &spec.cells[0];
        let (clean, _) = run_isolated_cell(&ctx, &spec, 0, cell);
        assert_eq!(clean.status, CellStatus::Ok);

        // The chaos stall holds the claimed cell in flight (chaos is not
        // part of the key) until well after the cancel lands.
        let journal = Arc::new(crate::journal::ResultJournal::in_memory());
        let token = CancelToken::new();
        let cancelled_ctx = ctx
            .clone()
            .with_journal(Arc::clone(&journal))
            .with_cancel(token.clone())
            .with_chaos(p5_fault::ChaosPlan::new().stall_cell(0, 1_000));
        let (measured, replayed) = std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(100));
                token.cancel();
            });
            run_isolated_cell(&cancelled_ctx, &spec, 0, cell)
        });
        assert_eq!(measured.status, CellStatus::Skipped);
        assert!(!replayed);
        assert!(measured.report.is_none(), "an interrupted cell has no data");
        assert_eq!(
            journal.cell_count(),
            0,
            "an interrupted cell is never journaled"
        );

        let rerun_ctx = ctx.clone().with_journal(Arc::clone(&journal));
        let (rerun, replayed) = run_isolated_cell(&rerun_ctx, &spec, 0, cell);
        assert!(!replayed, "nothing was recorded, so the re-run simulates");
        assert_eq!(rerun.status, CellStatus::Ok);
        assert_eq!(
            rerun.total_ipc().map(f64::to_bits),
            clean.total_ipc().map(f64::to_bits),
            "the re-run equals an uncancelled run"
        );
        assert_eq!(journal.cell_count(), 1);
    }

    #[test]
    fn aggregate_counts_roll_up() {
        let outcome = |id: usize, status: CellStatus, replayed: bool| CellOutcome {
            id,
            label: format!("cell{id}"),
            measured: Measured {
                report: None,
                status,
                error: None,
            },
            replayed,
        };
        let result = aggregate(vec![
            outcome(0, CellStatus::Ok, true),
            outcome(1, CellStatus::Recovered, false),
            outcome(2, CellStatus::Skipped, false),
            outcome(3, CellStatus::Crashed, false),
        ]);
        assert_eq!(result.recovered, 1);
        assert_eq!(result.replayed, 1);
        assert_eq!(result.skipped, 1);
        assert_eq!(result.degraded.len(), 2, "skipped + crashed degrade");
        let counts = result.counts();
        assert_eq!(counts.total, 4);
        assert_eq!(counts.ok, 1);
        assert_eq!(counts.recovered, 1);
        assert_eq!(counts.skipped, 1);
        assert_eq!(counts.crashed, 1);
        assert_eq!(counts.degraded, 0);
        assert_eq!(counts.replayed, 1);
    }

    #[test]
    fn all_degraded_detection() {
        let result = CampaignResult {
            cells: vec![],
            recovered: 0,
            degraded: vec![],
            replayed: 0,
            skipped: 0,
        };
        assert!(!result.all_degraded());
    }

    fn load_program(iters: u64) -> Program {
        let mut b = Program::builder("ld");
        let stream = b.stream(p5_isa::StreamSpec::sequential(16 * 1024, 64));
        b.push(
            StaticInst::new(Op::Load {
                stream,
                kind: p5_isa::DataKind::Int,
            })
            .dst(Reg::new(40)),
        );
        b.push(StaticInst::new(Op::IntAlu).src1(Reg::new(40)));
        b.iterations(iters);
        b.build().unwrap()
    }

    /// Everything `cell_key` reads: the context, the campaign and the
    /// cell's index in it.
    #[derive(Clone)]
    struct KeyCase {
        ctx: Experiments,
        spec: CampaignSpec,
        id: usize,
    }

    /// One row of the key contract: whether the setting must split the
    /// key, the setting, and how to flip it.
    type KeyRow = (bool, &'static str, fn(&mut KeyCase));

    /// The cache-identity contract, one row per setting. Each row flips
    /// exactly one setting of a base cell. A setting that changes the
    /// measured bytes splits the key, and no two such rows share one;
    /// every other setting keeps the base key.
    #[test]
    fn cell_keys_are_content_addressed() {
        use crate::journal::ResultJournal;
        use std::time::Duration;
        const P4: Priority = Priority::Medium;
        const SPLIT: bool = true;
        const SHARE: bool = false;
        const FAULTS: CellFaults = CellFaults {
            seed: 1,
            count: 1,
            horizon: 1_000,
        };
        fn plan(text: &str) -> p5_core::ExecutionPlan {
            p5_core::ExecutionPlan::parse(text).unwrap()
        }
        fn rng_cells(c: &mut KeyCase) {
            for cell in &mut c.spec.cells {
                // `br_miss` draws its branch outcomes from the seeded RNG.
                cell.primary = p5_microbench::MicroBenchmark::BrMiss.program_with_iterations(40);
            }
        }
        let cell = CellSpec::pair("base", cpu_program(40), load_program(60), (P4, P4));
        let cells = vec![cell.clone(), cell];
        let spec = CampaignSpec {
            cells,
            jobs: 1,
            seed: 5,
            reuse_warmup: false,
        };
        let base = KeyCase {
            ctx: tiny_ctx(),
            spec,
            id: 0,
        };
        #[rustfmt::skip]
        let rows: [KeyRow; 38] = [
            (SPLIT, "decode_width", |c| c.ctx.core.decode_width += 1),
            (SPLIT, "latencies.fp_div", |c| c.ctx.core.latencies.fp_div += 1),
            (SPLIT, "balancer.enabled", |c| c.ctx.core.balancer.enabled ^= true),
            (SPLIT, "mem.l2.latency", |c| c.ctx.core.mem.l2.latency += 1),
            (SPLIT, "mem.dtlb.entries", |c| c.ctx.core.mem.dtlb.entries *= 2),
            (SPLIT, "low_power_decode_period", |c| c.ctx.core.low_power_decode_period += 1),
            (SPLIT, "steal_idle_decode_slots", |c| c.ctx.core.steal_idle_decode_slots ^= true),
            (SPLIT, "watchdog_stall_cycles", |c| c.ctx.core.watchdog_stall_cycles += 1),
            (SPLIT, "fame.maiv", |c| c.ctx.fame.maiv /= 2.0),
            (SPLIT, "fame.stable_window", |c| c.ctx.fame.stable_window += 1),
            (SPLIT, "fame.min_repetitions", |c| c.ctx.fame.min_repetitions += 1),
            (SPLIT, "fame.max_cycles", |c| c.ctx.fame.max_cycles += 1),
            (SPLIT, "fame.warmup.min_cycles", |c| c.ctx.fame.warmup.min_cycles += 1),
            (SPLIT, "fame.warmup.max_cycles", |c| c.ctx.fame.warmup.max_cycles += 1),
            (SPLIT, "fame.warmup.ring_passes", |c| c.ctx.fame.warmup.ring_passes += 1),
            (SPLIT, "+ff", |c| c.ctx.core.plan = plan("detailed+ff")),
            (SPLIT, "sampled:2048,8192+dw", |c| c.ctx.core.plan = plan("sampled:2048,8192+dw")),
            (SPLIT, "sampled:4096,8192+dw", |c| c.ctx.core.plan = plan("sampled:4096,8192+dw")),
            (SPLIT, "fault schedule", |c| c.spec.cells[0].faults = Some(FAULTS)),
            (SPLIT, "primary program", |c| c.spec.cells[0].primary = cpu_program(41)),
            (SPLIT, "secondary program", |c| c.spec.cells[0].secondary = Some(cpu_program(40))),
            (SPLIT, "single-thread cell", |c| c.spec.cells[0].secondary = None),
            (SPLIT, "priorities", |c| c.spec.cells[0].priorities = (Priority::High, P4)),
            (SPLIT, "an RNG program at index 0", rng_cells),
            (SPLIT, "the RNG program at index 1", |c| {
                rng_cells(c);
                c.id = 1;
            }),
            (SPLIT, "the RNG program under another campaign seed", |c| {
                rng_cells(c);
                c.spec.seed += 1;
            }),
            (SHARE, "+noskip", |c| c.ctx.core.plan = plan("detailed+noskip")),
            (SHARE, "spec.reuse_warmup", |c| c.spec.reuse_warmup = true),
            (SHARE, "ctx.jobs", |c| c.ctx.jobs = 4),
            (SHARE, "spec.jobs", |c| c.spec.jobs = 4),
            (SHARE, "a journal", |c| c.ctx.journal = Some(Arc::new(ResultJournal::in_memory()))),
            (SHARE, "cell_deadline", |c| c.ctx.cell_deadline = Some(Duration::from_millis(1))),
            (SHARE, "cancel", |c| c.ctx.cancel = Some(CancelToken::new())),
            (SHARE, "chaos", |c| c.ctx.chaos = Some(p5_fault::ChaosPlan::new().panic_cell(0))),
            (SHARE, "ctx.core.rng_seed", |c| c.ctx.core.rng_seed ^= 0xFFFF),
            (SHARE, "the campaign seed of an RNG-free cell", |c| c.spec.seed += 1),
            (SHARE, "the index of an RNG-free cell", |c| c.id = 1),
            (SHARE, "the label", |c| c.spec.cells[0].label = "renamed".into()),
        ];
        let key = |c: &KeyCase| cell_key(&c.ctx, &c.spec, c.id, &c.spec.cells[c.id]);
        let base_key = key(&base);
        let (mut broken, mut split_keys) = (Vec::new(), HashMap::new());
        for (splits, what, edit) in rows {
            let mut case = base.clone();
            edit(&mut case);
            let case_key = key(&case);
            broken.extend(match (splits, case_key == base_key) {
                (SPLIT, true) => Some(format!("{what} must split the key")),
                (SHARE, false) => Some(format!("{what} must keep the base key")),
                (SPLIT, false) => split_keys
                    .insert(case_key, what)
                    .map(|other| format!("{what} and {other} must not share a key")),
                (SHARE, true) => None,
            });
        }
        assert!(
            broken.is_empty(),
            "rows that broke the contract: {broken:#?}"
        );
    }

    #[test]
    fn journal_replays_cells_bit_identically() {
        let dir = std::env::temp_dir().join(format!("p5-campaign-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = tiny_ctx();
        let cells = || {
            (0..3)
                .map(|i| {
                    CellSpec::pair(
                        format!("cell{i}"),
                        cpu_program(40),
                        cpu_program(40),
                        crate::priority_pair(i),
                    )
                })
                .collect::<Vec<_>>()
        };
        let spec = CampaignSpec {
            cells: cells(),
            jobs: 1,
            seed: 42,
            reuse_warmup: false,
        };
        let baseline = Campaign::run(&ctx, &spec);
        assert_eq!(baseline.replayed, 0, "no journal, nothing replayed");

        let journal = Arc::new(crate::journal::ResultJournal::create(&dir).expect("journal dir"));
        let first = Campaign::run(&ctx.clone().with_journal(Arc::clone(&journal)), &spec);
        assert_eq!(first.replayed, 0, "fresh journal, everything simulated");
        drop(journal);

        let (journal, stats) = crate::journal::ResultJournal::resume(&dir).expect("resume journal");
        assert_eq!(stats.entries, 3);
        let resumed = Campaign::run(&ctx.clone().with_journal(Arc::new(journal)), &spec);
        assert_eq!(resumed.replayed, 3, "every cell replayed from the journal");
        for (b, r) in baseline.cells.iter().zip(&resumed.cells) {
            assert_eq!(b.measured.status, r.measured.status);
            assert_eq!(
                b.measured.total_ipc().map(f64::to_bits),
                r.measured.total_ipc().map(f64::to_bits),
                "replayed cell {} must be bit-identical",
                b.label
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A campaign run under a sampled plan produces estimates with a
    /// sample population, stays deterministic across jobs, and lands
    /// within tolerance of the detailed run.
    #[test]
    fn sampled_campaign_is_deterministic_and_close_to_detailed() {
        let ctx = tiny_ctx();
        let cells = || {
            vec![CellSpec::pair(
                "pair",
                load_program(60),
                cpu_program(40),
                crate::priority_pair(2),
            )]
        };
        let run = |plan: &str, jobs: usize| {
            let mut run_ctx = ctx.clone();
            run_ctx.core.plan = p5_core::ExecutionPlan::parse(plan).unwrap();
            Campaign::run(
                &run_ctx,
                &CampaignSpec {
                    cells: cells(),
                    jobs,
                    seed: 21,
                    reuse_warmup: false,
                },
            )
        };
        let detailed = run("detailed", 1);
        let sampled1 = run("sampled:4096,16384", 1);
        let sampled2 = run("sampled:4096,16384", 2);
        let (d, s) = (detailed.measured(0), sampled1.measured(0));
        assert_eq!(
            s.total_ipc().map(f64::to_bits),
            sampled2.measured(0).total_ipc().map(f64::to_bits),
            "sampled runs are jobs-independent"
        );
        let report = s.report.as_ref().expect("sampled cell measured");
        let m = report.thread(ThreadId::T0).unwrap();
        assert!(m.estimate.samples >= 3, "carries a sample population");
        let (dv, sv) = (d.total_ipc().unwrap(), s.total_ipc().unwrap());
        assert!(
            ((sv - dv) / dv).abs() < 0.15,
            "sampled total IPC {sv} strays from detailed {dv}"
        );
    }
}
