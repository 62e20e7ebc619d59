//! The traced run: the per-layer split of a workload, measured from
//! outside the program.
//!
//! 1. **Campaign.** The workload's engine cells run once as an offline
//!    `Campaign::run_observed` at the workload's worker count; its event
//!    timestamps give the campaign metrics and its digest is the
//!    untraced reference.
//! 2. **Replay.** The same cells replay serially through the layer calls
//!    (`try_new_core` → `load_program`/`set_priority` → `warm_only` →
//!    `try_measure_restored` → `cell_key` → `record_cell`), once with
//!    tracing off and once with it on. The replay's digest must equal the
//!    campaign's, and the two replay walls give the tracing overhead.
//! 3. **Serve.** A daemon serves from the journal the traced replay
//!    filled, and the benchmark's own client drives a fixed request
//!    sequence through the public protocol types, timing each step.
//!
//! Per-layer self times plus `other` equal the traced wall time
//! (replay + serve) exactly, in integer nanoseconds.

use crate::cells::{self, CellDef, Reference};
use crate::report::Report;
use crate::trace::{replay_cell, Tracer};
use p5_experiments::campaign::{
    aggregate, cell_key, Campaign, CampaignEvent, CampaignSpec, CellOutcome,
};
use p5_experiments::journal::ResultJournal;
use p5_experiments::{CellStatus, Experiments};
use p5_serve::cache::ResultCache;
use p5_serve::client::{self, Endpoint};
use p5_serve::protocol::{CampaignRequest, Request, Response};
use p5_serve::server::Server;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Layers whose self time the trace reports, in report order.
const LAYERS: [&str; 8] = [
    "microbench",
    "core",
    "fame",
    "campaign",
    "journal",
    "protocol",
    "serve",
    "client",
];

/// A request the traced client sends, with the canonical names of its
/// cells (in id order) and whether each must be a cache hit.
pub struct TracedRequest {
    pub request: CampaignRequest,
    pub names: Vec<String>,
    pub hit: bool,
}

/// Everything a workload's traced run needs.
pub struct TraceInputs {
    /// The fidelity context the engine cells run under.
    pub ctx: Experiments,
    /// Engine cells, in campaign-id order.
    pub cells: Vec<CellDef>,
    /// Campaign worker count of the offline run.
    pub jobs: usize,
    /// Requests the traced client sends after the replay.
    pub requests: Vec<TracedRequest>,
    /// Directory for a file-backed journal, or `None` for an in-memory one.
    pub journal_dir: Option<PathBuf>,
    pub reference: Reference,
}

/// Nanoseconds in microseconds (`"us"`) or milliseconds.
fn nanos_to(unit: &str, ns: u128) -> f64 {
    ns as f64 / if unit == "us" { 1e3 } else { 1e6 }
}

fn journal_at(dir: Option<&PathBuf>, tag: &str) -> Result<Arc<ResultJournal>, String> {
    Ok(Arc::new(match dir {
        None => ResultJournal::in_memory(),
        Some(dir) => {
            let dir = dir.join(tag);
            let _ = std::fs::remove_dir_all(&dir);
            ResultJournal::create(&dir).map_err(|e| format!("journal {}: {e}", dir.display()))?
        }
    }))
}

pub fn run(inputs: &TraceInputs, report: &mut Report) -> Result<(), String> {
    let ctx = &inputs.ctx;
    let seed = ctx.core.rng_seed;
    let names: Vec<String> = inputs.cells.iter().map(CellDef::name).collect();

    // 1. The offline campaign at the workload's worker count.
    let spec = CampaignSpec {
        cells: inputs.cells.iter().map(CellDef::spec).collect(),
        jobs: inputs.jobs,
        seed,
        reuse_warmup: false,
    };
    let events: Mutex<Vec<(usize, bool, Instant)>> = Mutex::new(Vec::new());
    let started = Instant::now();
    let campaign = Campaign::run_observed(&ctx.clone().with_jobs(inputs.jobs), &spec, |e| {
        let at = Instant::now();
        let (id, finished) = match *e {
            CampaignEvent::CellStarted { id, .. } => (id, false),
            CampaignEvent::CellFinished { id, .. } => (id, true),
        };
        events
            .lock()
            .expect("event log lock")
            .push((id, finished, at));
    });
    let campaign_ns = started.elapsed().as_nanos();
    let campaign_digests: Vec<u64> = campaign
        .cells
        .iter()
        .map(|c| cells::cell_digest(&c.measured))
        .collect();
    for (name, cell) in names.iter().zip(&campaign.cells) {
        let ok = inputs.reference.matches(name, &cell.measured);
        report.check(
            ok,
            format!("campaign cell {name} differs from the reference"),
        );
    }
    campaign_metrics(
        report,
        &events.into_inner().expect("event log"),
        inputs.jobs,
        campaign_ns,
    );

    // 2. Serial replay through the layer calls, each cell untraced and
    //    traced back to back (alternating which goes first), so host
    //    speed drifts hit both sides of the overhead alike. The traced
    //    wall counts only traced segments.
    let untraced_journal = journal_at(inputs.journal_dir.as_ref(), "untraced")?;
    let journal = journal_at(inputs.journal_dir.as_ref(), "traced")?;
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let (mut untraced_ns, mut wall_ns) = (0u128, 0u128);
    let mut retried = 0usize;
    for (id, cell) in inputs.cells.iter().enumerate() {
        for traced_turn in [id % 2 == 1, id % 2 == 0] {
            let t0 = Instant::now();
            if !traced_turn {
                let r = replay_cell(&mut off, ctx, seed, id, cell, &untraced_journal);
                untraced_ns += t0.elapsed().as_nanos();
                untraced.push(cells::cell_digest(&r.measured));
                continue;
            }
            let r = replay_cell(&mut tr, ctx, seed, id, cell, &journal);
            wall_ns += t0.elapsed().as_nanos();
            report.attempt(inputs.reference.matches(&names[id], &r.measured));
            if r.retried {
                retried += 1;
                report.note(format!(
                    "retried: {} needed the escalated-budget retry ({:?})",
                    names[id], r.measured.status
                ));
            }
            traced.push(cells::cell_digest(&r.measured));
        }
    }
    drop(untraced_journal);
    let replay_ns = wall_ns;
    let wall = Instant::now();
    tr.span("journal", "journal.flush_ms", || journal.flush());
    report.check(traced == untraced, "traced and untraced replays disagree");
    let digest = cells::run_digest(traced.iter().copied());
    report.check(
        digest == cells::run_digest(campaign_digests.iter().copied()),
        "the traced replay's digest differs from the campaign's",
    );
    report.note(format!(
        "replay digest {digest:016x} over {} cells",
        traced.len()
    ));

    // 3. Serve the replayed journal and drive the client over the wire.
    let cache = ResultCache::from_journal(Arc::clone(&journal));
    let server =
        Server::bind_tcp("127.0.0.1:0", crate::POOL, cache).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().ok_or("no TCP address")?;
    let serving = std::thread::spawn(move || server.serve());
    let served = serve_requests(&mut tr, report, inputs, ctx, &journal, addr);
    let wall_ns = wall_ns + wall.elapsed().as_nanos();
    let endpoint = Endpoint::Tcp(addr.to_string());
    let stats = client::stats(&endpoint);
    // Joined only after an acknowledged shutdown, which it always ends.
    client::shutdown(&endpoint).map_err(|e| format!("shutdown: {e}"))?;
    serving
        .join()
        .map_err(|_| "server thread panicked")?
        .map_err(|e| format!("serve: {e}"))?;
    served?;
    let stats = stats.map_err(|e| format!("stats: {e}"))?;

    layer_metrics(report, &tr, inputs.cells.len(), retried);
    report.metric("cache.hits", stats.hits as f64, "count");
    report.metric("cache.misses", stats.misses as f64, "count");
    report.metric("cache.hit_ratio", stats.hit_rate(), "ratio");
    report.metric("cache.entries", stats.entries as f64, "count");

    // Reconciliation: every nanosecond of the traced wall is a layer's
    // self time or `other`.
    let spans: u128 = tr.layers().values().sum();
    report.check(spans <= wall_ns, "spans cover more than the traced wall");
    let other = wall_ns.saturating_sub(spans);
    let listed: u128 = LAYERS
        .iter()
        .map(|l| tr.layers().get(l).copied().unwrap_or(0))
        .sum();
    report.check(
        listed == spans,
        "a span was recorded under an unlisted layer",
    );
    report.check(
        listed + other == wall_ns,
        "self times plus other differ from the wall",
    );
    for layer in LAYERS {
        let ns = tr.layers().get(layer).copied().unwrap_or(0);
        report.metric(&format!("{layer}.self_ms"), nanos_to("ms", ns), "ms");
    }
    report.metric("trace.other_ms", nanos_to("ms", other), "ms");
    report.metric("trace.wall_ms", nanos_to("ms", wall_ns), "ms");
    report.metric(
        "trace.untraced_replay_ms",
        nanos_to("ms", untraced_ns),
        "ms",
    );
    let overhead = (replay_ns as f64 / untraced_ns.max(1) as f64 - 1.0) * 100.0;
    report.metric("trace.overhead_pct", overhead, "%");
    Ok(())
}

/// Median and tail cell time, worker occupancy, and the straggler
/// tail of one campaign, from its event timestamps.
fn campaign_metrics(
    report: &mut Report,
    events: &[(usize, bool, Instant)],
    jobs: usize,
    wall_ns: u128,
) {
    let mut start = std::collections::HashMap::new();
    let mut cell_ms = Vec::new();
    let mut finishes = Vec::new();
    for &(id, finished, at) in events {
        if finished {
            if let Some(&s) = start.get(&id) {
                cell_ms.push(at.duration_since(s).as_secs_f64() * 1e3);
            }
            finishes.push(at);
        } else {
            start.insert(id, at);
        }
    }
    finishes.sort();
    report.median("campaign.cell_ms.p50", &cell_ms, "ms");
    report.tail("campaign.cell_ms.tail", &cell_ms, 75.0, "ms");
    let busy_ms: f64 = cell_ms.iter().sum();
    let capacity_ms = nanos_to("ms", wall_ns) * jobs as f64;
    report.metric(
        "campaign.worker_busy_frac",
        busy_ms / capacity_ms.max(f64::MIN_POSITIVE),
        "ratio",
    );
    // With every cell claimed, the last finish minus the one before it
    // is how long one worker sat idle waiting for the slowest cell.
    let straggler = match finishes.as_slice() {
        [.., a, b] => b.duration_since(*a).as_secs_f64() * 1e3,
        _ => 0.0,
    };
    report.metric("campaign.straggler_ms", straggler, "ms");
}

fn layer_metrics(report: &mut Report, tr: &Tracer, cells: usize, retried: usize) {
    let samples = |metric: &str, unit: &str| -> Vec<f64> {
        tr.samples(metric)
            .iter()
            .map(|&ns| nanos_to(unit, ns))
            .collect()
    };
    for (metric, unit) in [
        ("microbench.program_us", "us"),
        ("core.new_ms", "ms"),
        ("core.load_us", "us"),
        ("fame.warm_ms", "ms"),
        ("fame.measure_ms", "ms"),
        ("campaign.cell_key_us", "us"),
        ("journal.record_us", "us"),
        ("journal.lookup_us", "us"),
        ("journal.flush_ms", "ms"),
        ("protocol.resolve_us", "us"),
        ("protocol.encode_us", "us"),
        ("protocol.decode_us", "us"),
        ("serve.connect_us", "us"),
        ("serve.first_cell_ms", "ms"),
        ("serve.stream_ms", "ms"),
        ("client.aggregate_us", "us"),
    ] {
        report.median(metric, &samples(metric, unit), unit);
    }
    let (wc, mc) = ("cycles.warm", "cycles.measure");
    let sum = |prefix: &str| {
        tr.counter(&format!("{prefix}.busy")) + tr.counter(&format!("{prefix}.stall"))
    };
    report.metric("fame.warm_cycles", sum(wc) as f64, "count");
    report.metric("fame.measure_cycles", sum(mc) as f64, "count");
    let rate = |cycles: u64, ns: u64| {
        if ns == 0 {
            0.0
        } else {
            cycles as f64 / (ns as f64 / 1e9)
        }
    };
    for phase in ["warm", "measure"] {
        let name = format!("engine.{phase}_cycles_per_s");
        let c = |class: &str| tr.counter(&format!("cycles.{phase}.{class}"));
        let t = |class: &str| tr.counter(&format!("ns.{phase}.{class}"));
        report.metric(
            &name,
            rate(c("busy") + c("stall"), t("busy") + t("stall")),
            "cycles/s",
        );
        report.metric(
            &format!("{name}.busy"),
            rate(c("busy"), t("busy")),
            "cycles/s",
        );
        report.metric(
            &format!("{name}.stall"),
            rate(c("stall"), t("stall")),
            "cycles/s",
        );
    }
    report.metric(
        "campaign.retry_frac",
        retried as f64 / cells.max(1) as f64,
        "ratio",
    );
}

/// Keys and looks up every replayed cell in the journal (what the
/// server does before simulating), then sends the traced requests.
fn serve_requests(
    tr: &mut Tracer,
    report: &mut Report,
    inputs: &TraceInputs,
    ctx: &Experiments,
    journal: &ResultJournal,
    addr: SocketAddr,
) -> Result<(), String> {
    let spec = CampaignSpec {
        cells: Vec::new(),
        jobs: 1,
        seed: ctx.core.rng_seed,
        reuse_warmup: false,
    };
    for traced in &inputs.requests {
        let resolved = tr
            .span("protocol", "protocol.resolve_us", || {
                traced.request.resolve_cells()
            })
            .map_err(|e| format!("resolve: {e}"))?;
        let mut hits = 0;
        for (id, cell) in resolved.iter().enumerate() {
            let key = tr.span("campaign", "campaign.cell_key_us", || {
                cell_key(ctx, &spec, id, cell)
            });
            if tr
                .span("journal", "journal.lookup_us", || journal.lookup_cell(key))
                .is_some()
            {
                hits += 1;
            }
        }
        if traced.hit {
            report.check(
                hits == resolved.len(),
                "a reader cell is missing from the journal",
            );
        }
        let outcomes = request(tr, &traced.request, addr)?;
        report.attempt(outcomes.len() == traced.names.len());
        for (outcome, name) in outcomes.iter().zip(&traced.names) {
            let ok =
                outcome.replayed == traced.hit && inputs.reference.matches(name, &outcome.measured);
            report.attempt(ok);
            report.check(
                ok,
                format!("served cell {name} is wrong or has the wrong cache status"),
            );
        }
    }
    Ok(())
}

/// One campaign request through the benchmark's own client.
fn request(
    tr: &mut Tracer,
    request: &CampaignRequest,
    addr: SocketAddr,
) -> Result<Vec<CellOutcome>, String> {
    let io = |e: std::io::Error| format!("request i/o: {e}");
    let line = tr.span("protocol", "protocol.encode_us", || {
        Request::Campaign(request.clone()).to_line()
    });
    let stream = tr
        .span("serve", "serve.connect_us", || TcpStream::connect(addr))
        .map_err(io)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
    let mut writer = stream;
    let last = |l: &str| {
        l.is_empty() || l.starts_with("{\"kind\":\"done\"") || l.starts_with("{\"kind\":\"error\"")
    };
    let mut lines = Vec::new();
    let first = tr.span(
        "serve",
        "serve.first_cell_ms",
        || -> std::io::Result<String> {
            writer.write_all(line.as_bytes())?;
            let mut l = String::new();
            reader.read_line(&mut l)?;
            Ok(l)
        },
    );
    lines.push(first.map_err(io)?);
    tr.span("serve", "serve.stream_ms", || -> std::io::Result<()> {
        while !last(lines.last().map_or("", String::as_str)) {
            let mut l = String::new();
            reader.read_line(&mut l)?;
            lines.push(l);
        }
        Ok(())
    })
    .map_err(io)?;
    let responses = tr
        .span("protocol", "protocol.decode_us", || {
            lines
                .iter()
                .filter(|l| !l.is_empty())
                .map(|l| Response::parse(l.trim_end()))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(|e| format!("decode: {e}"))?;
    let mut outcomes = Vec::new();
    for response in responses {
        match response {
            Response::Cell {
                id,
                label,
                cached,
                measured,
            } => outcomes.push(CellOutcome {
                id,
                label,
                measured,
                replayed: cached,
            }),
            Response::Done { .. } => {}
            other => return Err(format!("unexpected response {other:?}")),
        }
    }
    outcomes.sort_by_key(|o| o.id);
    let result = tr.span("client", "client.aggregate_us", || aggregate(outcomes));
    if result
        .cells
        .iter()
        .any(|c| matches!(c.measured.status, CellStatus::Crashed | CellStatus::Skipped))
    {
        return Err("a served cell crashed or was skipped".to_string());
    }
    Ok(result.cells)
}
