//! The cell universes the workloads draw from, the seeded samplers that
//! draw them, and the output checks (per-cell digests against a
//! committed reference table).
//!
//! Every cell has a canonical name (`a+b@p,s` for an SMT pair at
//! priority levels `p,s`, plain `a` for a single-thread baseline). The
//! name identifies the simulated result: every program here except the
//! `mcf` proxy is free of `Random` branches, so its result does not
//! depend on the cell's campaign index, and the `mcf` pair always sits
//! at the same index ([`FIG5_IDS`]).

use p5_core::SimError;
use p5_experiments::campaign::{parallel_map, run_isolated_cell, CampaignSpec, CellSpec};
use p5_experiments::journal::StableHasher;
use p5_experiments::{priority_pair, CellStatus, Experiments, Measured};
use p5_isa::{BranchBehavior, Op, Program, ThreadId};
use p5_microbench::MicroBenchmark;
use p5_serve::protocol::CellRequest;
use p5_workloads::SpecProxy;
use std::collections::HashMap;
use std::hash::Hasher;
use std::path::Path;

/// Campaign indices of the two Figure 5 cells in every sweep pass. The
/// `h264ref+mcf` pair draws from the seeded RNG, so its result depends
/// on its index; pinning the index keeps it a pure function of its name.
pub const FIG5_IDS: [usize; 2] = [0, 1];

/// Figure 5 case-study pairs (PThread, SThread).
pub const FIG5_PAIRS: [(SpecProxy, SpecProxy); 2] = [
    (SpecProxy::H264ref, SpecProxy::Mcf),
    (SpecProxy::Applu, SpecProxy::Equake),
];

/// Whether a cell keeps the core busy or leaves it waiting on memory.
/// Fixed by the generator from the programs, before anything runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// No memory-bound program in the cell: the per-cycle path.
    Busy,
    /// At least one memory-bound program: the idle-skip path.
    Stall,
}

/// A program the benchmark knows how to build by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// A Table 2 micro-benchmark.
    Micro(MicroBenchmark),
    /// A Figure 5 SPEC proxy.
    Spec(SpecProxy),
}

impl Bench {
    pub fn name(self) -> &'static str {
        match self {
            Bench::Micro(b) => b.name(),
            Bench::Spec(s) => s.name(),
        }
    }

    pub fn program(self) -> Program {
        match self {
            Bench::Micro(b) => b.program(),
            Bench::Spec(s) => s.program(),
        }
    }

    fn memory_bound(self) -> bool {
        match self {
            Bench::Micro(b) => b.is_memory_bound(),
            Bench::Spec(s) => s.is_memory_bound(),
        }
    }
}

/// One cell as the generator defines it: what runs, at which
/// priorities, under which canonical name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellDef {
    pub primary: Bench,
    pub secondary: Option<Bench>,
    /// Priority levels (PThread, SThread); ignored for single-thread cells.
    pub levels: (u8, u8),
}

impl CellDef {
    pub fn single(b: MicroBenchmark) -> CellDef {
        CellDef {
            primary: Bench::Micro(b),
            secondary: None,
            levels: (4, 4),
        }
    }

    pub fn pair(a: Bench, b: Bench, diff: i32) -> CellDef {
        let (p, s) = priority_pair(diff);
        CellDef {
            primary: a,
            secondary: Some(b),
            levels: (p.level(), s.level()),
        }
    }

    pub fn name(&self) -> String {
        match self.secondary {
            None => self.primary.name().to_string(),
            Some(s) => format!(
                "{}+{}@{},{}",
                self.primary.name(),
                s.name(),
                self.levels.0,
                self.levels.1
            ),
        }
    }

    pub fn class(&self) -> Class {
        if self.primary.memory_bound() || self.secondary.is_some_and(Bench::memory_bound) {
            Class::Stall
        } else {
            Class::Busy
        }
    }

    /// Builds the campaign cell with freshly built programs.
    pub fn spec(&self) -> CellSpec {
        self.spec_with(self.primary.program(), self.secondary.map(Bench::program))
    }

    /// Builds the campaign cell from already built programs.
    pub fn spec_with(&self, primary: Program, secondary: Option<Program>) -> CellSpec {
        match secondary {
            None => CellSpec::single(self.name(), primary),
            Some(s) => {
                let level =
                    |l| p5_isa::Priority::from_level(l).expect("levels come from priority_pair");
                CellSpec::pair(
                    self.name(),
                    primary,
                    s,
                    (level(self.levels.0), level(self.levels.1)),
                )
            }
        }
    }

    /// The wire form of a micro-benchmark cell (`None` for SPEC proxies,
    /// which the protocol cannot name).
    pub fn request(&self) -> Option<CellRequest> {
        let micro = |b: Bench| match b {
            Bench::Micro(m) => Some(m.name().to_string()),
            Bench::Spec(_) => None,
        };
        Some(CellRequest {
            primary: micro(self.primary)?,
            secondary: match self.secondary {
                Some(s) => Some(micro(s)?),
                None => None,
            },
            priorities: self.levels,
        })
    }
}

/// splitmix64: the benchmark's only random source. Inputs are a pure
/// function of the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn presented() -> impl Iterator<Item = Bench> {
    MicroBenchmark::PRESENTED.into_iter().map(Bench::Micro)
}

/// One pass of `sweep_detailed`: both Figure 5 pairs at a seeded
/// difference (at [`FIG5_IDS`]), then — in seeded order — the six ST
/// baselines and a cost-stratified sample of the presented pairs at
/// every difference (see [`cost_blocks`]): 54 of the 396 pair cells.
pub fn sweep_pass(seed: u64, reference: &Reference) -> Vec<CellDef> {
    let mut rng = Rng::new(seed, 0x5EE9);
    let fig5 = p5_experiments::fig5::DIFFS;
    let mut cells: Vec<CellDef> = FIG5_PAIRS
        .iter()
        .map(|&(a, b)| CellDef::pair(Bench::Spec(a), Bench::Spec(b), fig5[rng.below(fig5.len())]))
        .collect();
    let mut pairs = Vec::new();
    for a in presented() {
        for b in presented() {
            pairs.extend((-5..=5).map(|d| CellDef::pair(a, b, d)));
        }
    }
    let mut rest: Vec<CellDef> = MicroBenchmark::PRESENTED
        .into_iter()
        .map(CellDef::single)
        .collect();
    rest.extend(cost_blocks(pairs, SWEEP_BINS, reference, &mut rng).swap_remove(0));
    rng.shuffle(&mut rest);
    cells.extend(rest);
    cells
}

/// Cost bins (busy, stall) of a sweep pass: about 7.3 pair cells each.
const SWEEP_BINS: [usize; 2] = [24, 30];

/// Cost bins (busy, stall) of a writer block: about 70 cells each.
const WRITER_BINS: [usize; 2] = [10, 20];

/// Cuts `cells` into blocks of nearly equal simulated cost. Within each
/// class the cells, ordered by their reference cycles, are cut into
/// `bins` runs of neighbours; each run is shuffled by the seed, and
/// block `k` takes the `k`-th cell of every run. Every block of every
/// seed thus holds one cell of each cost bin, so blocks cost about the
/// same host time and can be compared with each other.
fn cost_blocks(
    cells: Vec<CellDef>,
    bins: [usize; 2],
    reference: &Reference,
    rng: &mut Rng,
) -> Vec<Vec<CellDef>> {
    let mut runs: Vec<Vec<CellDef>> = Vec::new();
    for (class, bins) in [Class::Busy, Class::Stall].into_iter().zip(bins) {
        let mut members: Vec<(u64, String, CellDef)> = cells
            .iter()
            .filter(|c| c.class() == class)
            .map(|c| {
                (
                    reference.cycles(&c.name()).unwrap_or(0),
                    c.name(),
                    c.clone(),
                )
            })
            .collect();
        members.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let n = members.len();
        for k in 0..bins {
            let mut run: Vec<CellDef> = members[k * n / bins..(k + 1) * n / bins]
                .iter()
                .map(|(.., c)| c.clone())
                .collect();
            rng.shuffle(&mut run);
            runs.push(run);
        }
    }
    let blocks = runs.iter().map(Vec::len).min().unwrap_or(0);
    (0..blocks)
        .map(|k| {
            let mut block: Vec<CellDef> = runs.iter().map(|run| run[k].clone()).collect();
            rng.shuffle(&mut block);
            block
        })
        .collect()
}

/// Every cell a sweep pass can contain, each at the index it always
/// takes when its result depends on the index.
pub fn sweep_universe() -> Vec<(usize, CellDef)> {
    let mut cells = Vec::new();
    for (&id, &(a, b)) in FIG5_IDS.iter().zip(&FIG5_PAIRS) {
        for d in p5_experiments::fig5::DIFFS {
            cells.push((id, CellDef::pair(Bench::Spec(a), Bench::Spec(b), d)));
        }
    }
    for b in MicroBenchmark::PRESENTED {
        cells.push((2, CellDef::single(b)));
    }
    for a in presented() {
        for b in presented() {
            for d in -5..=5 {
                cells.push((2, CellDef::pair(a, b, d)));
            }
        }
    }
    cells
}

/// The serve workloads' cache fill, in the order the server expands the
/// `table3` grid: six ST baselines, then the presented pairs at (4,4).
pub fn table3_cells() -> Vec<CellDef> {
    let mut cells: Vec<CellDef> = MicroBenchmark::PRESENTED
        .into_iter()
        .map(CellDef::single)
        .collect();
    for a in presented() {
        for b in presented() {
            cells.push(CellDef::pair(a, b, 0));
        }
    }
    cells
}

fn uses_rng(program: &Program) -> bool {
    program
        .body()
        .iter()
        .any(|inst| matches!(inst.op, Op::Branch(BranchBehavior::Random { .. })))
}

/// Table 2 micro-benchmarks whose results do not depend on the seed
/// (`br_miss` draws random branch outcomes, so it is left out).
fn seed_free_micro() -> Vec<Bench> {
    MicroBenchmark::ALL
        .into_iter()
        .filter(|b| !uses_rng(&b.program()))
        .map(Bench::Micro)
        .collect()
}

/// Every cell the `serve_mixed` writer may submit: Table 2 pairs at
/// every difference, minus the cache fill (those are reader cells).
pub fn writer_universe() -> Vec<CellDef> {
    let fill: Vec<String> = table3_cells().iter().map(CellDef::name).collect();
    let benches = seed_free_micro();
    let mut cells = Vec::new();
    for &a in &benches {
        for &b in &benches {
            for d in -5..=5 {
                let cell = CellDef::pair(a, b, d);
                if !fill.contains(&cell.name()) {
                    cells.push(cell);
                }
            }
        }
    }
    cells
}

/// The writer's submission order for one seed: cost-stratified blocks
/// (see [`cost_blocks`]) of never-seen cells, drawn without replacement.
pub fn writer_blocks(seed: u64, reference: &Reference) -> Vec<Vec<CellDef>> {
    cost_blocks(
        writer_universe(),
        WRITER_BINS,
        reference,
        &mut Rng::new(seed, 0x0317E),
    )
}

/// Every cell the serve workloads simulate.
pub fn tiny_universe() -> Vec<(usize, CellDef)> {
    table3_cells()
        .into_iter()
        .chain(writer_universe())
        .map(|c| (0, c))
        .collect()
}

fn status_code(status: CellStatus) -> u8 {
    match status {
        CellStatus::Ok => 0,
        CellStatus::Recovered => 1,
        CellStatus::Degraded => 2,
        CellStatus::Crashed => 3,
        CellStatus::Skipped => 4,
    }
}

/// Digest of one measurement: its status and the bit patterns of both
/// threads' IPC.
pub fn cell_digest(m: &Measured) -> u64 {
    let mut h = StableHasher::new();
    h.write_u8(status_code(m.status));
    for t in ThreadId::ALL {
        match m.ipc(t) {
            Some(ipc) => {
                h.write_u8(1);
                h.write_u64(ipc.to_bits());
            }
            None => h.write_u8(0),
        }
    }
    h.finish()
}

/// Digest of a cell sequence, in id order.
pub fn run_digest(cells: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = StableHasher::new();
    for d in cells {
        h.write_u64(d);
    }
    h.finish()
}

/// Warm-up plus measured cycles of a measurement (0 without a report).
pub fn cycles(m: &Measured) -> u64 {
    m.report
        .as_ref()
        .map_or(0, |r| r.warmup_cycles + r.measured_cycles)
}

/// Expected per-cell digests and simulated cycles, keyed by canonical
/// name.
pub struct Reference(HashMap<String, (u64, u64)>);

impl Reference {
    /// Loads `name<TAB>hex-digest<TAB>cycles` lines.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let mut map = HashMap::new();
        for line in text.lines().filter(|l| !l.is_empty()) {
            let mut fields = line.split('\t');
            let (Some(name), Some(hex), Some(cycles), None) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                return Err(format!("malformed reference line {line:?}"));
            };
            let digest = u64::from_str_radix(hex, 16)
                .map_err(|_| format!("malformed digest in {line:?}"))?;
            let cycles = cycles
                .parse()
                .map_err(|_| format!("malformed cycles in {line:?}"))?;
            map.insert(name.to_string(), (digest, cycles));
        }
        Ok(Reference(map))
    }

    /// Whether `m` is the result the reference recorded for `name`:
    /// same status, IPC bits and simulated cycles.
    pub fn matches(&self, name: &str, m: &Measured) -> bool {
        m.status != CellStatus::Crashed
            && m.status != CellStatus::Skipped
            && self.0.get(name) == Some(&(cell_digest(m), cycles(m)))
    }

    /// The simulated cycles recorded for `name`.
    pub fn cycles(&self, name: &str) -> Option<u64> {
        self.0.get(name).map(|&(_, cycles)| cycles)
    }
}

/// Simulates every cell offline (two workers, no journal, campaign seed
/// of the context) and writes the reference table.
pub fn write_reference(
    ctx: &Experiments,
    cells: &[(usize, CellDef)],
    path: &Path,
) -> Result<(), String> {
    let spec = CampaignSpec {
        cells: Vec::new(),
        jobs: 1,
        seed: ctx.core.rng_seed,
        reuse_warmup: false,
    };
    let results = parallel_map(2, cells.len(), |i| {
        let (id, cell) = &cells[i];
        run_isolated_cell(ctx, &spec, *id, &cell.spec()).0
    });
    let mut text = String::new();
    for ((_, cell), m) in cells.iter().zip(&results) {
        if matches!(m.status, CellStatus::Crashed | CellStatus::Skipped) {
            return Err(format!(
                "{} did not run: {}",
                cell.name(),
                m.error
                    .as_ref()
                    .map_or_else(String::new, SimError::to_string)
            ));
        }
        text.push_str(&format!(
            "{}\t{:016x}\t{}\n",
            cell.name(),
            cell_digest(m),
            cycles(m)
        ));
    }
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference(file: &str) -> Reference {
        Reference::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join(file))
            .expect("committed reference")
    }

    #[test]
    fn sweep_passes_have_a_fixed_shape_and_follow_the_seed() {
        let quick = reference("reference_quick.tsv");
        let a = sweep_pass(1, &quick);
        assert_eq!(a.len(), 2 + 6 + 54);
        assert_eq!(a, sweep_pass(1, &quick), "same seed, same cells");
        assert_ne!(a, sweep_pass(2, &quick), "another seed, another sample");
        let names: Vec<String> = sweep_universe().iter().map(|(_, c)| c.name()).collect();
        assert!(
            a.iter().all(|c| names.contains(&c.name())),
            "drawn from the universe"
        );
        assert!(matches!(
            a[FIG5_IDS[0]].primary,
            Bench::Spec(SpecProxy::H264ref)
        ));
        let busy = a
            .iter()
            .filter(|c| c.secondary.is_some() && c.class() == Class::Busy)
            .count();
        assert_eq!(busy, SWEEP_BINS[0], "one busy pair cell per busy cost bin");
    }

    #[test]
    fn writer_blocks_have_equal_cost_and_never_repeat() {
        let tiny = reference("reference_tiny.tsv");
        let blocks = writer_blocks(3, &tiny);
        assert!(blocks.len() >= 60, "enough blocks for a long run");
        let cost = |b: &Vec<CellDef>| {
            b.iter()
                .map(|c| tiny.cycles(&c.name()).unwrap() as f64)
                .sum::<f64>()
        };
        let costs: Vec<f64> = blocks.iter().map(cost).collect();
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        assert!(
            costs.iter().all(|c| (c / mean - 1.0).abs() < 0.25),
            "blocks cost about the same"
        );
        let mut seen = std::collections::HashSet::new();
        for block in &blocks {
            assert_eq!(block.len(), WRITER_BINS[0] + WRITER_BINS[1]);
            for cell in block {
                assert!(seen.insert(cell.name()), "{} drawn twice", cell.name());
            }
        }
        let fill: Vec<String> = table3_cells().iter().map(CellDef::name).collect();
        assert!(
            seen.iter().all(|n| !fill.contains(n)),
            "writer cells are never fill cells"
        );
    }

    #[test]
    fn requests_resolve_to_the_same_programs() {
        let cell = CellDef::pair(
            Bench::Micro(MicroBenchmark::CpuInt),
            Bench::Micro(MicroBenchmark::LdintL2),
            3,
        );
        let spec = cell
            .request()
            .expect("micro cells have a wire form")
            .resolve()
            .unwrap();
        assert_eq!(spec.priorities, cell.spec().priorities);
        assert_eq!(spec.primary.body(), cell.spec().primary.body());
        let fig5 = CellDef::pair(
            Bench::Spec(SpecProxy::Mcf),
            Bench::Spec(SpecProxy::Applu),
            0,
        );
        assert!(fig5.request().is_none());
    }
}
