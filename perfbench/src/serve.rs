//! `serve_warm` and `serve_mixed`: an in-process `p5-serve` daemon on
//! TCP loopback with a pool of two workers and two closed-loop clients
//! (each sends its next request only after the previous reply ends).

use crate::cells::{self, CellDef, Reference, Rng};
use crate::report::{peak_rss_mb, Report, Stretch};
use crate::traced::{TraceInputs, TracedRequest};
use crate::{stats, Expected, POOL};
use p5_core::ExecutionPlan;
use p5_serve::cache::ResultCache;
use p5_serve::client::{self, Endpoint};
use p5_serve::protocol::{CampaignRequest, Fidelity};
use p5_serve::server::Server;
use std::path::PathBuf;
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

/// Set-ups per run (daemon start plus cache fill) before and after the
/// window; `setup_s` is the median of all of them. The host slows the
/// simulator by up to 1.8 times for stretches of 15–60 s, so set-ups
/// spread over the run read its usual speed where set-ups all at its
/// start would read whichever stretch it began in.
const SETUPS_BEFORE: usize = 3;
const SETUPS_AFTER: usize = 4;

/// Every fourth reader request is the full `table3` grid; the others
/// name 1–8 of its cells, exposing the fixed cost per request.
const GRID_EVERY: usize = 4;

/// Cells per writer request: as many as the pool has workers, so cold
/// cells can occupy the whole pool ahead of a reader's hits.
const WRITER_CELLS: usize = 2;

/// Reader requests the traced run sends (one writer request follows
/// every [`TRACE_WRITER_EVERY`] of them on `serve_mixed`).
const TRACE_READS: usize = 120;
const TRACE_WRITER_EVERY: usize = 20;

/// Reader requests of client 0 whose cells form the recorded digest.
const DIGEST_READS: usize = 8;

/// Length of the slices the measured window is cut into for the reader
/// metrics: shorter than the host's slow stretches, so some slice of a
/// run is undisturbed.
const SLICE_S: f64 = 3.0;

/// Tail percentile of the reader latency on `serve_warm`: the highest a
/// slice's sample count supports with ten samples beyond it (two readers
/// complete about 550 requests a slice).
const WARM_TAIL: f64 = 98.0;
/// Tail percentile of the reader latency on `serve_mixed`, over the
/// whole window (about 3600 requests). About one request in ten waits
/// behind cold cells, so p90 sits on the steep edge of that wait and
/// moves with the share of requests that wait; p98 measures the wait
/// itself.
const MIXED_TAIL: f64 = 98.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Two readers; every cell a cache hit.
    Warm,
    /// One reader and one writer of never-seen cells on a persistent,
    /// fsynced cache.
    Mixed,
}

impl Mix {
    fn name(self) -> &'static str {
        match self {
            Mix::Warm => "serve_warm",
            Mix::Mixed => "serve_mixed",
        }
    }
}

fn request(cells: &[&CellDef]) -> CampaignRequest {
    CampaignRequest {
        fidelity: Fidelity::Tiny,
        grid: None,
        cells: cells.iter().filter_map(|c| c.request()).collect(),
        seed: None,
        plan: ExecutionPlan::detailed(),
        cache: true,
    }
}

/// Reader request `j` of client `client`: a pure function of the seed.
fn reader_request(
    seed: u64,
    client: u64,
    j: usize,
    fill: &[CellDef],
) -> (CampaignRequest, Vec<String>) {
    if j.is_multiple_of(GRID_EVERY) {
        return (
            CampaignRequest::table3(Fidelity::Tiny),
            fill.iter().map(CellDef::name).collect(),
        );
    }
    let mut rng = Rng::new(seed, (client << 32) ^ j as u64 ^ 0x00EA_D000);
    let mut pick: Vec<&CellDef> = fill.iter().collect();
    rng.shuffle(&mut pick);
    pick.truncate(1 + rng.below(8));
    (request(&pick), pick.iter().map(|c| c.name()).collect())
}

/// The set-ups of one run, each timed in guest time since the fill
/// simulates (see [`Stretch`]).
#[derive(Default)]
struct SetUps {
    guest: Vec<f64>,
    wall: Vec<f64>,
    log: ClientLog,
    /// Run digest of the latest fill.
    digest: u64,
}

impl SetUps {
    /// One set-up: starts a daemon and fills its cache with the
    /// tiny-fidelity `table3` universe through the wire. Every fill cell
    /// is checked and must be a miss.
    fn run(&mut self, mix: Mix, reference: &Reference, names: &[String]) -> Result<Daemon, String> {
        let stretch = Stretch::start();
        let daemon = Daemon::start(mix, self.guest.len())?;
        let served =
            client::run_campaign(&daemon.endpoint, &CampaignRequest::table3(Fidelity::Tiny))
                .map_err(|e| format!("fill: {e}"))?;
        let (wall, stolen) = stretch.end();
        self.guest.push(wall * (1.0 - stolen));
        self.wall.push(wall);
        self.log.requests += 1;
        self.digest = self.log.served(reference, names, &served, false);
        Ok(daemon)
    }
}

/// A running daemon and how to stop it.
struct Daemon {
    endpoint: Endpoint,
    thread: JoinHandle<std::io::Result<()>>,
    dir: Option<PathBuf>,
}

impl Daemon {
    fn start(mix: Mix, rep: usize) -> Result<Daemon, String> {
        let (cache, dir) = match mix {
            Mix::Warm => (ResultCache::in_memory(), None),
            Mix::Mixed => {
                let dir = crate::scratch_dir(&format!("serve-cache-{rep}"))?;
                let (cache, _) =
                    ResultCache::persistent(&dir).map_err(|e| format!("cache dir: {e}"))?;
                (cache, Some(dir))
            }
        };
        let server =
            Server::bind_tcp("127.0.0.1:0", POOL, cache).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().ok_or("no TCP address")?;
        Ok(Daemon {
            endpoint: Endpoint::Tcp(addr.to_string()),
            thread: std::thread::spawn(move || server.serve()),
            dir,
        })
    }

    fn stop(self) -> Result<(), String> {
        // A daemon that never got the shutdown would never end, so it is
        // joined only after an acknowledged shutdown; on an error the
        // process exits instead.
        let stopped = client::shutdown(&self.endpoint)
            .map_err(|e| format!("shutdown: {e}"))
            .and_then(|()| {
                self.thread
                    .join()
                    .map_err(|_| "server thread panicked".to_string())?
                    .map_err(|e| format!("serve: {e}"))
            });
        if let Some(dir) = &self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
        stopped
    }
}

/// Warm-up plus measured cycles of every cell of a served campaign.
fn simulated_cycles(served: &client::ServedCampaign) -> u64 {
    served
        .result
        .cells
        .iter()
        .map(|c| cells::cycles(&c.measured))
        .sum()
}

/// A reader request as the client saw it.
struct Sample {
    /// Completion time, seconds into the window.
    done_s: f64,
    latency_ms: f64,
    cells: u64,
    /// Simulated cycles of the delivered cells' reports.
    cycles: u64,
}

/// A segment of the window (a writer block or a reader slice): its
/// wall time, cells delivered and their simulated cycles.
#[derive(Clone)]
struct Block {
    secs: f64,
    cells: u64,
    cycles: u64,
}

/// What one client saw. Every reply is checked as it arrives and only
/// counts, digests and timings are kept, so memory stays flat however
/// many requests a run completes.
#[derive(Default)]
struct ClientLog {
    requests: u64,
    failed_requests: u64,
    cells_ok: u64,
    cells_failed: u64,
    failures: Vec<String>,
    /// Run digests of the requests the recorded digest covers.
    digests: Vec<u64>,
    samples: Vec<Sample>,
    blocks: Vec<Block>,
}

impl ClientLog {
    /// Checks one served campaign: every cell matches the reference and
    /// has the expected cache status. Returns the request's run digest.
    fn served(
        &mut self,
        reference: &Reference,
        names: &[String],
        served: &client::ServedCampaign,
        hit: bool,
    ) -> u64 {
        if served.result.cells.len() != names.len() {
            self.failures.push(format!(
                "a reply has {} cells, expected {}",
                served.result.cells.len(),
                names.len()
            ));
        }
        let mut digests = Vec::with_capacity(names.len());
        for (cell, name) in served.result.cells.iter().zip(names) {
            if cell.replayed == hit && reference.matches(name, &cell.measured) {
                self.cells_ok += 1;
            } else {
                self.cells_failed += 1;
                self.failures.push(format!(
                    "served {name} is wrong or has the wrong cache status"
                ));
            }
            digests.push(cells::cell_digest(&cell.measured));
        }
        cells::run_digest(digests)
    }

    fn failed(&mut self, what: &str, e: &client::ClientError) {
        self.failed_requests += 1;
        self.failures.push(format!("{what} request failed: {e}"));
    }

    fn into_report(self, report: &mut Report) {
        report.attempts(self.requests - self.failed_requests, self.failed_requests);
        report.attempts(self.cells_ok, self.cells_failed);
        for failure in self.failures.iter().take(10) {
            report.check(false, failure);
        }
    }
}

pub fn timed(
    mix: Mix,
    seed: u64,
    seconds: f64,
    expected: &Expected,
    report: &mut Report,
) -> Result<(), String> {
    let reference = Reference::load(&crate::bench_file("reference_tiny.tsv"))?;
    let fill = cells::table3_cells();
    let fill_names: Vec<String> = fill.iter().map(CellDef::name).collect();

    // Set-ups before the window; the last one's daemon serves the window.
    let mut setups = SetUps::default();
    let mut daemon = setups.run(mix, &reference, &fill_names)?;
    for _ in 1..SETUPS_BEFORE {
        Daemon::stop(daemon)?;
        daemon = setups.run(mix, &reference, &fill_names)?;
    }
    let fill_digest = setups.digest;
    let endpoint = &daemon.endpoint;

    // The measured window: two closed-loop clients until the deadline.
    let window = Stretch::start();
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs_f64(seconds);
    let blocks = cells::writer_blocks(seed, &reference);
    let logs: Mutex<Vec<(u64, ClientLog)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for client_id in 0..2u64 {
            let (fill, logs, blocks, reference) = (&fill, &logs, &blocks, &reference);
            scope.spawn(move || {
                let mut log = ClientLog::default();
                if mix == Mix::Mixed && client_id == 1 {
                    write_blocks(endpoint, reference, blocks, deadline, &mut log);
                } else {
                    read_until(
                        endpoint, reference, seed, client_id, fill, start, deadline, &mut log,
                    );
                }
                logs.lock().expect("log lock").push((client_id, log));
            });
        }
    });
    let (_, stolen) = window.end();
    report.note(format!(
        "the host took {:.1}% of the CPUs' runnable time in the window",
        stolen * 100.0
    ));
    let mut logs = logs.into_inner().expect("log lock");
    logs.sort_by_key(|(id, _)| *id);
    let stats = client::stats(endpoint).map_err(|e| format!("stats: {e}"));
    daemon.stop()?;
    let stats = stats?;
    for _ in 0..SETUPS_AFTER {
        Daemon::stop(setups.run(mix, &reference, &fill_names)?)?;
    }
    setups.log.into_report(report);

    let mut samples = Vec::new();
    let mut writes = Vec::new();
    let mut stream_digests = vec![fill_digest];
    for (_, mut log) in logs {
        stream_digests.append(&mut log.digests);
        samples.append(&mut log.samples);
        writes.append(&mut log.blocks);
        log.into_report(report);
    }
    expected.check(report, mix.name(), seed, cells::run_digest(stream_digests));
    let read_cells: u64 = samples.iter().map(|s| s.cells).sum();
    let written: u64 = writes.iter().map(|b| b.cells).sum();
    report.note(format!(
        "{read_cells} reader cells, {written} writer cells; server saw {} hits, {} misses",
        stats.hits, stats.misses
    ));
    let expected_misses = fill.len() as u64 + written;
    report.check(
        stats.misses == expected_misses,
        format!(
            "server counted {} misses, expected {expected_misses}",
            stats.misses
        ),
    );

    report.metric_n(
        "setup_s",
        stats::median(&setups.guest),
        "s",
        &format!(
            "median of {} set-ups in guest time; {:.4} s in wall time",
            setups.guest.len(),
            stats::median(&setups.wall)
        ),
    );
    reader_metrics(report, &samples, seconds, mix, &writes, stolen);
    let rss = peak_rss_mb();
    report.check(rss > 0.0, "peak RSS unreadable");
    report.metric("peak_rss_mb", rss, "MB");
    Ok(())
}

/// The reader and writer metrics. The window is cut into slices of about
/// [`SLICE_S`]. On `serve_warm` the slice whose readers received the most
/// cells gives the delivered cells and cycles. On `serve_mixed` every
/// writer block of the window together does: blocks differ by up to ±25%
/// in simulated cycles and far more in host time per cycle, so a single
/// block (the fastest, say) would measure which blocks the seed drew.
/// On `serve_warm` each latency metric is the lowest that percentile
/// reads in any slice. On `serve_mixed` it is read over the whole window,
/// since how many reads wait behind cold cells changes from slice to
/// slice with the writer's cells.
fn reader_metrics(
    report: &mut Report,
    samples: &[Sample],
    seconds: f64,
    mix: Mix,
    writes: &[Block],
    stolen: f64,
) {
    let slices = ((seconds / SLICE_S) as usize).max(1);
    let width = seconds / slices as f64;
    let slice_of = |s: &Sample| ((s.done_s / width) as usize).min(slices - 1);
    let mut delivered = vec![
        Block {
            secs: width,
            cells: 0,
            cycles: 0
        };
        slices
    ];
    for s in samples {
        delivered[slice_of(s)].cells += s.cells;
        delivered[slice_of(s)].cycles += s.cycles;
    }
    let best_slice = fastest(report, "reader slice", &delivered).expect("at least one slice");
    print_rates(report, "writer block", writes);
    let writer_wall: f64 = writes.iter().map(|b| b.secs).sum();
    let whole_writer = Block {
        secs: writer_wall * (1.0 - stolen),
        cells: writes.iter().map(|b| b.cells).sum(),
        cycles: writes.iter().map(|b| b.cycles).sum(),
    };
    let (block, what) = match mix {
        Mix::Warm => (
            &delivered[best_slice],
            format!("fastest of {slices} slices"),
        ),
        Mix::Mixed if writes.is_empty() => {
            report.check(false, "the writer finished no block");
            (&delivered[best_slice], String::new())
        }
        Mix::Mixed => (
            &whole_writer,
            format!(
                "all {} writer blocks, {:.2} s of guest time, {writer_wall:.2} s of wall time",
                writes.len(),
                whole_writer.secs
            ),
        ),
    };
    report.metric_n(
        "cells_per_s",
        block.cells as f64 / block.secs,
        "cells/s",
        &what,
    );
    report.metric_n(
        "sim_cycles_per_s",
        block.cycles as f64 / block.secs,
        "cycles/s",
        &what,
    );
    let (want, groups, scope) = match mix {
        Mix::Warm => {
            let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); slices];
            for s in samples {
                per_slice[slice_of(s)].push(s.latency_ms);
            }
            (WARM_TAIL, per_slice, "lowest slice")
        }
        Mix::Mixed => (
            MIXED_TAIL,
            vec![samples.iter().map(|s| s.latency_ms).collect()],
            "whole window",
        ),
    };
    // The mixed tail is a wait behind simulating cells, so it is CPU-bound
    // and reported in guest time. Every other latency is mostly the
    // accept poll's sleep, which stolen time does not stretch.
    let guest = |name: &str| {
        if mix == Mix::Mixed && name == "req_tail_ms" {
            1.0 - stolen
        } else {
            1.0
        }
    };
    for (name, pct) in [("req_p50_ms", 50.0), ("req_tail_ms", want)] {
        let lowest = groups
            .iter()
            .filter_map(|l| stats::tail(l, pct))
            .min_by(|a, b| {
                (b.pct, a.value)
                    .partial_cmp(&(a.pct, b.value))
                    .expect("finite latencies")
            });
        match lowest {
            Some(p) => {
                if p.pct < pct {
                    report.note(format!("note: {name} fell back from p{pct} to p{}", p.pct));
                }
                report.metric_n(
                    name,
                    p.value * guest(name),
                    "ms",
                    &format!("{scope}: {} of wall time", p.describe("ms")),
                );
            }
            None => {
                report.check(
                    false,
                    format!("{name}: too few samples for a percentile ({scope})"),
                );
                report.metric(name, 0.0, "ms");
            }
        }
    }
}

/// Prints every segment's cell rate and returns the rates.
fn print_rates(report: &Report, what: &str, segments: &[Block]) -> Vec<f64> {
    let rates: Vec<f64> = segments.iter().map(|b| b.cells as f64 / b.secs).collect();
    let list: Vec<String> = rates.iter().map(|r| format!("{r:.1}")).collect();
    report.note(format!("{what} rates (cells/s): {}", list.join(" ")));
    rates
}

/// Index of the segment with the highest cell rate (`None` if empty),
/// after printing every segment's rate.
fn fastest(report: &Report, what: &str, segments: &[Block]) -> Option<usize> {
    let rates = print_rates(report, what, segments);
    (0..rates.len()).max_by(|&a, &b| rates[a].total_cmp(&rates[b]))
}

/// A reader: the seeded all-hit stream until the deadline.
#[allow(clippy::too_many_arguments)]
fn read_until(
    endpoint: &Endpoint,
    reference: &Reference,
    seed: u64,
    client_id: u64,
    fill: &[CellDef],
    start: Instant,
    deadline: Instant,
    log: &mut ClientLog,
) {
    for j in 0.. {
        if Instant::now() >= deadline {
            break;
        }
        let (req, names) = reader_request(seed, client_id, j, fill);
        let t0 = Instant::now();
        let served = client::run_campaign(endpoint, &req);
        let latency_ms = t0.elapsed().as_secs_f64() * 1e3;
        log.requests += 1;
        match served {
            Ok(served) => {
                let digest = log.served(reference, &names, &served, true);
                if client_id == 0 && j < DIGEST_READS {
                    log.digests.push(digest);
                }
                log.samples.push(Sample {
                    done_s: start.elapsed().as_secs_f64(),
                    latency_ms,
                    cells: served.result.cells.len() as u64,
                    cycles: simulated_cycles(&served),
                });
            }
            Err(e) => log.failed("reader", &e),
        }
    }
}

/// The writer: whole blocks of never-seen cells until the deadline.
fn write_blocks(
    endpoint: &Endpoint,
    reference: &Reference,
    blocks: &[Vec<CellDef>],
    deadline: Instant,
    log: &mut ClientLog,
) {
    for (k, block) in blocks.iter().enumerate() {
        let t0 = Instant::now();
        let (mut cells, mut cycles) = (0, 0);
        for chunk in block.chunks(WRITER_CELLS) {
            let picks: Vec<&CellDef> = chunk.iter().collect();
            let names: Vec<String> = chunk.iter().map(CellDef::name).collect();
            log.requests += 1;
            match client::run_campaign(endpoint, &request(&picks)) {
                Ok(served) => {
                    let digest = log.served(reference, &names, &served, false);
                    if k == 0 {
                        log.digests.push(digest);
                    }
                    cells += served.result.cells.len() as u64;
                    cycles += simulated_cycles(&served);
                }
                Err(e) => log.failed("writer", &e),
            }
        }
        log.blocks.push(Block {
            secs: t0.elapsed().as_secs_f64(),
            cells,
            cycles,
        });
        if Instant::now() >= deadline {
            return;
        }
    }
    println!("note: the writer used every block before the deadline");
}

pub fn trace_inputs(mix: Mix, seed: u64) -> Result<TraceInputs, String> {
    let reference = Reference::load(&crate::bench_file("reference_tiny.tsv"))?;
    let fill = cells::table3_cells();
    let mut requests = Vec::new();
    let mut writes = cells::writer_blocks(seed, &reference).into_iter().flatten();
    for j in 0..TRACE_READS {
        let (req, names) = reader_request(seed, 0, j, &fill);
        requests.push(TracedRequest {
            request: req,
            names,
            hit: true,
        });
        if mix == Mix::Mixed && (j + 1) % TRACE_WRITER_EVERY == 0 {
            let cells: Vec<CellDef> = writes.by_ref().take(WRITER_CELLS).collect();
            let picks: Vec<&CellDef> = cells.iter().collect();
            requests.push(TracedRequest {
                request: request(&picks),
                names: cells.iter().map(CellDef::name).collect(),
                hit: false,
            });
        }
    }
    Ok(TraceInputs {
        ctx: Fidelity::Tiny.context(),
        cells: fill,
        jobs: POOL,
        requests,
        journal_dir: match mix {
            Mix::Warm => None,
            Mix::Mixed => Some(crate::scratch_dir("serve-trace")?),
        },
        reference,
    })
}
