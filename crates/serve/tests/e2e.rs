//! End-to-end: a real daemon on a real socket, driven through the
//! client library, checked against the offline campaign engine.
//!
//! These tests pin the subsystem's two contracts: **determinism** (a
//! served campaign is bit-identical to an offline run of the same
//! spec, cache cold or warm) and **cache correctness** (repeated and
//! overlapping submissions hit; `cache: false` never touches the
//! cache; restarts resume a persistent cache; a client that hangs up
//! mid-campaign leaves no interrupted cell behind). They also pin that
//! a hit never queues behind another client's cold cells.

use p5_experiments::campaign::{run_isolated_cell, Campaign, CampaignSpec};
use p5_experiments::CellStatus;
use p5_serve::cache::ResultCache;
use p5_serve::client::{self, Endpoint};
use p5_serve::protocol::{CampaignRequest, CellRequest, Fidelity, Request, Response};
use p5_serve::server::Server;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// A small tiny-fidelity workload: two ST baselines and two pairs.
fn cells() -> Vec<CellRequest> {
    vec![
        CellRequest {
            primary: "cpu_int".to_string(),
            secondary: None,
            priorities: (4, 4),
        },
        CellRequest {
            primary: "ldint_l1".to_string(),
            secondary: None,
            priorities: (4, 4),
        },
        CellRequest {
            primary: "cpu_int".to_string(),
            secondary: Some("ldint_l1".to_string()),
            priorities: (4, 4),
        },
        CellRequest {
            primary: "cpu_int".to_string(),
            secondary: Some("ldint_l1".to_string()),
            priorities: (6, 2),
        },
    ]
}

/// Pairs of [`cells`]'s two programs at priorities [`cells`] does not
/// use: every one is a distinct key, so every one simulates.
fn cold_cells() -> Vec<CellRequest> {
    [(5, 4), (4, 5), (6, 4), (4, 6), (6, 3), (3, 6)]
        .into_iter()
        .map(|priorities| CellRequest {
            primary: "cpu_int".to_string(),
            secondary: Some("ldint_l1".to_string()),
            priorities,
        })
        .collect()
}

/// Sends `request` on a raw TCP connection to the daemon and returns
/// the connection unread, for tests that need to watch or abandon the
/// response stream.
fn send_raw(endpoint: &Endpoint, request: &CampaignRequest) -> TcpStream {
    let Endpoint::Tcp(addr) = endpoint else {
        unreachable!("start_server binds TCP")
    };
    let mut socket = TcpStream::connect(addr).expect("connect");
    socket
        .write_all(Request::Campaign(request.clone()).to_line().as_bytes())
        .expect("send");
    socket
}

fn request(cache: bool) -> CampaignRequest {
    CampaignRequest {
        fidelity: Fidelity::Tiny,
        grid: None,
        cells: cells(),
        seed: None,
        plan: p5_core::ExecutionPlan::detailed(),
        cache,
    }
}

/// Starts a TCP daemon with the given cache; returns its endpoint and
/// the serving thread (joined by `shutdown_and_join`).
fn start_server(
    jobs: usize,
    cache: ResultCache,
) -> (Endpoint, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind_tcp("127.0.0.1:0", jobs, cache).expect("bind");
    let addr = server.local_addr().expect("tcp addr");
    let handle = std::thread::spawn(move || server.serve());
    (Endpoint::Tcp(addr.to_string()), handle)
}

fn shutdown_and_join(endpoint: &Endpoint, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    client::shutdown(endpoint).expect("shutdown request");
    handle
        .join()
        .expect("server thread")
        .expect("serve exits cleanly");
}

/// The offline baseline for [`cells`]: the same resolved spec run
/// through the campaign engine directly.
fn offline_baseline() -> p5_experiments::campaign::CampaignResult {
    let ctx = Fidelity::Tiny.context();
    let spec = CampaignSpec {
        cells: request(true).resolve_cells().expect("cells resolve"),
        jobs: 1,
        seed: ctx.core.rng_seed,
        reuse_warmup: false,
    };
    Campaign::run(&ctx, &spec)
}

fn assert_bit_identical(
    offline: &p5_experiments::campaign::CampaignResult,
    served: &p5_experiments::campaign::CampaignResult,
    what: &str,
) {
    assert_eq!(
        offline.cells.len(),
        served.cells.len(),
        "{what}: cell count"
    );
    for (o, s) in offline.cells.iter().zip(&served.cells) {
        assert_eq!(o.id, s.id, "{what}: id order");
        assert_eq!(o.label, s.label, "{what}: labels");
        assert_eq!(o.measured.status, s.measured.status, "{what}: status");
        assert_eq!(
            o.measured.total_ipc().map(f64::to_bits),
            s.measured.total_ipc().map(f64::to_bits),
            "{what}: cell {} must be bit-identical",
            o.label
        );
    }
    assert_eq!(offline.degraded, served.degraded, "{what}: degradations");
    assert_eq!(offline.recovered, served.recovered, "{what}: recovered");
}

#[test]
fn served_campaign_is_bit_identical_cold_and_warm() {
    let offline = offline_baseline();
    let (endpoint, handle) = start_server(2, ResultCache::in_memory());

    let cold = client::run_campaign(&endpoint, &request(true)).expect("cold campaign");
    assert_eq!(cold.cached, 0, "fresh cache serves nothing");
    assert_bit_identical(&offline, &cold.result, "cold");

    let warm = client::run_campaign(&endpoint, &request(true)).expect("warm campaign");
    assert_eq!(
        warm.cached,
        offline.cells.len(),
        "identical resubmission is fully cached"
    );
    assert_eq!(
        warm.result.replayed,
        offline.cells.len(),
        "client-side aggregation sees the replay flags"
    );
    assert_bit_identical(&offline, &warm.result, "warm");

    let stats = client::stats(&endpoint).expect("stats");
    assert_eq!(stats.misses as usize, offline.cells.len());
    assert_eq!(stats.hits as usize, offline.cells.len());
    assert_eq!(stats.entries, offline.cells.len());

    shutdown_and_join(&endpoint, handle);
}

#[test]
fn overlapping_grids_share_the_cache() {
    let (endpoint, handle) = start_server(2, ResultCache::in_memory());
    let full = client::run_campaign(&endpoint, &request(true)).expect("full grid");
    assert_eq!(full.cached, 0);

    // A subset of the same cells, submitted as its own campaign: every
    // cell was paid for by the full grid.
    let subset = CampaignRequest {
        cells: cells().into_iter().take(2).collect(),
        ..request(true)
    };
    let served = client::run_campaign(&endpoint, &subset).expect("subset");
    assert_eq!(served.result.cells.len(), 2);
    assert_eq!(served.cached, 2, "overlap hits, not just identity");

    shutdown_and_join(&endpoint, handle);
}

#[test]
fn cache_opt_out_always_simulates() {
    let (endpoint, handle) = start_server(2, ResultCache::in_memory());
    let first = client::run_campaign(&endpoint, &request(false)).expect("first");
    let second = client::run_campaign(&endpoint, &request(false)).expect("second");
    assert_eq!(first.cached, 0);
    assert_eq!(
        second.cached, 0,
        "cache off: the resubmission simulates too"
    );
    let stats = client::stats(&endpoint).expect("stats");
    assert_eq!(stats.entries, 0, "opted-out cells are never recorded");
    assert_eq!(stats.hits + stats.misses, 0, "nor tallied as lookups");

    // Cache off and cache on agree bit-for-bit.
    let cached = client::run_campaign(&endpoint, &request(true)).expect("cached");
    assert_bit_identical(&first.result, &cached.result, "cache on vs off");

    shutdown_and_join(&endpoint, handle);
}

#[test]
fn persistent_cache_survives_a_daemon_restart() {
    let dir = std::env::temp_dir().join(format!("p5-serve-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let (cache, stats) = ResultCache::persistent(&dir).expect("create cache");
    assert_eq!(stats.entries, 0);
    let (endpoint, handle) = start_server(2, cache);
    let cold = client::run_campaign(&endpoint, &request(true)).expect("cold");
    assert_eq!(cold.cached, 0);
    shutdown_and_join(&endpoint, handle);

    // Second daemon, same journal directory: fully warm from disk.
    let (cache, stats) = ResultCache::persistent(&dir).expect("resume cache");
    assert_eq!(stats.entries, cells().len(), "records survived the restart");
    let (endpoint, handle) = start_server(2, cache);
    let warm = client::run_campaign(&endpoint, &request(true)).expect("warm");
    assert_eq!(warm.cached, cells().len(), "restart kept the cache");
    assert_bit_identical(&cold.result, &warm.result, "across restarts");
    shutdown_and_join(&endpoint, handle);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unix_socket_transport_works() {
    let path = std::env::temp_dir().join(format!("p5-serve-e2e-{}.sock", std::process::id()));
    let server = Server::bind_unix(&path, 2, ResultCache::in_memory()).expect("bind unix");
    let handle = std::thread::spawn(move || server.serve());
    let endpoint = Endpoint::Unix(path.clone());
    client::wait_ready(&endpoint, std::time::Duration::from_secs(5)).expect("ready");

    let served = client::run_campaign(&endpoint, &request(true)).expect("campaign over unix");
    assert_eq!(served.result.cells.len(), cells().len());
    shutdown_and_join(&endpoint, handle);
    assert!(!path.exists(), "socket file unlinked on clean shutdown");
}

#[test]
fn bad_requests_get_protocol_errors() {
    let (endpoint, handle) = start_server(1, ResultCache::in_memory());

    let unknown_grid = CampaignRequest {
        grid: Some("table9".to_string()),
        ..CampaignRequest::table3(Fidelity::Tiny)
    };
    match client::run_campaign(&endpoint, &unknown_grid) {
        Err(client::ClientError::Server(message)) => {
            assert!(message.contains("unknown grid"), "got: {message}");
        }
        other => panic!("expected a server error, got {other:?}"),
    }

    let unknown_bench = CampaignRequest {
        fidelity: Fidelity::Tiny,
        grid: None,
        cells: vec![CellRequest {
            primary: "no_such_bench".to_string(),
            secondary: None,
            priorities: (4, 4),
        }],
        seed: None,
        plan: p5_core::ExecutionPlan::detailed(),
        cache: true,
    };
    match client::run_campaign(&endpoint, &unknown_bench) {
        Err(client::ClientError::Server(message)) => {
            assert!(message.contains("unknown microbenchmark"), "got: {message}");
        }
        other => panic!("expected a server error, got {other:?}"),
    }

    shutdown_and_join(&endpoint, handle);
}

#[test]
fn only_the_fidelity_splits_cache_entries() {
    let (endpoint, handle) = start_server(2, ResultCache::in_memory());
    let detailed = client::run_campaign(&endpoint, &request(true)).expect("detailed");
    assert_eq!(detailed.cached, 0);

    // A setting that changes only wall time (idle skip off) shares the
    // detailed entries: every cell replays, bit-identical, and nothing
    // simulates.
    let misses = client::stats(&endpoint).expect("stats").misses;
    let wall_time_only = CampaignRequest {
        plan: p5_core::ExecutionPlan::parse("detailed+noskip").unwrap(),
        ..request(true)
    };
    let replayed = client::run_campaign(&endpoint, &wall_time_only).expect("wall-time plan");
    assert_eq!(
        replayed.cached,
        cells().len(),
        "wall-time settings hit the cache"
    );
    assert_bit_identical(&detailed.result, &replayed.result, "wall-time plan");
    assert_eq!(
        client::stats(&endpoint).expect("stats").misses,
        misses,
        "nothing simulated"
    );

    // Same cells under a sampled plan: the effective measure mode is
    // part of the cell key, so nothing the detailed run paid for may
    // be served back.
    let sampled_request = CampaignRequest {
        plan: p5_core::ExecutionPlan::parse("sampled:2048,8192").unwrap(),
        ..request(true)
    };
    let sampled = client::run_campaign(&endpoint, &sampled_request).expect("sampled cold");
    assert_eq!(sampled.cached, 0, "sampled must not hit detailed entries");
    let resampled = client::run_campaign(&endpoint, &sampled_request).expect("sampled warm");
    assert_eq!(
        resampled.cached,
        cells().len(),
        "identical sampled resubmission is fully cached"
    );
    for (a, b) in sampled.result.cells.iter().zip(&resampled.result.cells) {
        assert_eq!(
            a.measured.total_ipc().map(f64::to_bits),
            b.measured.total_ipc().map(f64::to_bits),
            "sampled replay is bit-identical"
        );
    }

    // The detailed entries are still there: a detailed resubmission
    // stays fully warm.
    let rewarm = client::run_campaign(&endpoint, &request(true)).expect("detailed warm");
    assert_eq!(rewarm.cached, cells().len(), "detailed entries survived");

    shutdown_and_join(&endpoint, handle);
}

#[test]
fn bounded_cache_evicts_without_serving_wrong_results() {
    // A bound smaller than the campaign: the oldest cells are evicted
    // as the newest are recorded, so a resubmission re-simulates the
    // evicted ones — and every measurement, hit or re-miss, stays
    // bit-identical to the unbounded run.
    let baseline = offline_baseline();
    let cache = ResultCache::in_memory();
    cache.set_max_entries(Some(2));
    let (endpoint, handle) = start_server(1, cache);

    let cold = client::run_campaign(&endpoint, &request(true)).expect("cold");
    assert_eq!(cold.cached, 0);
    assert_bit_identical(&baseline, &cold.result, "bounded cold");

    let stats = client::stats(&endpoint).expect("stats");
    assert_eq!(stats.entries, 2, "index holds exactly the bound");
    assert_eq!(
        stats.evictions as usize,
        cells().len() - 2,
        "everything past the bound was evicted oldest-first"
    );

    // Rerun: at most 2 cells can hit; the evicted ones re-simulate to
    // the same bytes (never a wrong or torn replay).
    let rerun = client::run_campaign(&endpoint, &request(true)).expect("rerun");
    assert!(
        rerun.cached <= 2,
        "evicted cells must not be served: {} hits",
        rerun.cached
    );
    assert_bit_identical(&baseline, &rerun.result, "bounded rerun");
    let stats = client::stats(&endpoint).expect("stats after rerun");
    assert_eq!(stats.entries, 2);
    assert!(stats.evictions as usize >= cells().len() - 2);

    shutdown_and_join(&endpoint, handle);
}

#[test]
fn concurrent_clients_all_get_complete_campaigns() {
    let (endpoint, handle) = start_server(4, ResultCache::in_memory());
    let baseline = client::run_campaign(&endpoint, &request(true)).expect("warmup");
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let endpoint = &endpoint;
            let baseline = &baseline;
            scope.spawn(move || {
                let served = client::run_campaign(endpoint, &request(true)).expect("client");
                assert_bit_identical(&baseline.result, &served.result, "concurrent client");
                assert_eq!(served.cached, cells().len(), "warm cache serves everyone");
            });
        }
    });
    shutdown_and_join(&endpoint, handle);
}

#[test]
fn a_cache_hit_does_not_wait_for_cold_cells() {
    // One worker: every cold cell below queues on it.
    let (endpoint, handle) = start_server(1, ResultCache::in_memory());
    let hit = CampaignRequest {
        cells: cells()[..1].to_vec(),
        ..request(true)
    };
    let first = client::run_campaign(&endpoint, &hit).expect("first fetch");
    assert_eq!(first.cached, 0);

    // Once the cold campaign's first cell has streamed back, the worker
    // is busy with the rest of it.
    let cold = CampaignRequest {
        cells: cold_cells(),
        ..request(true)
    };
    let mut cold_stream = BufReader::new(send_raw(&endpoint, &cold)).lines();
    let first_cold = cold_stream.next().expect("a cold cell").expect("read");
    assert!(matches!(
        Response::parse(&first_cold),
        Ok(Response::Cell { cached: false, .. })
    ));

    let again = client::run_campaign(&endpoint, &hit).expect("second fetch");
    let hit_done = Instant::now();
    let stats = client::stats(&endpoint).expect("stats");
    let rest: Vec<Response> = cold_stream
        .map(|line| Response::parse(&line.expect("read")).expect("response"))
        .collect();
    let cold_done = Instant::now();
    assert!(
        matches!(rest.last(), Some(Response::Done { cells, cached: 0 }) if *cells == cold.cells.len()),
        "the cold campaign completes uncached"
    );
    assert_eq!(again.cached, 1, "the second fetch is a cache hit");
    assert_bit_identical(&first.result, &again.result, "hit");
    assert_eq!(stats.hits, 1, "the hit is counted exactly once");
    assert!(
        stats.misses < 1 + cold.cells.len() as u64,
        "the hit came back only after every cold cell had simulated"
    );
    assert!(hit_done < cold_done, "the hit finished after the cold run");
    shutdown_and_join(&endpoint, handle);
}

#[test]
fn a_disconnect_mid_campaign_does_not_poison_the_cache() {
    let (endpoint, handle) = start_server(2, ResultCache::in_memory());
    let campaign = CampaignRequest {
        cells: cold_cells()[..4].to_vec(),
        ..request(true)
    };
    // Send the request and hang up at once. The handler's writes then
    // fail while cells are still simulating, and the connection's cancel
    // token interrupts them mid-cell.
    drop(send_raw(&endpoint, &campaign));
    // Every cell of the dead connection is tallied once its handler has
    // drained the pool.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let stats = client::stats(&endpoint).expect("stats");
        if stats.hits + stats.misses == campaign.cells.len() as u64 {
            break;
        }
        assert!(Instant::now() < deadline, "the connection never drained");
        std::thread::sleep(Duration::from_millis(20));
    }

    let served = client::run_campaign(&endpoint, &campaign).expect("re-request");
    let ctx = Fidelity::Tiny.context();
    let spec = CampaignSpec {
        cells: campaign.resolve_cells().expect("cells resolve"),
        jobs: 1,
        seed: ctx.core.rng_seed,
        reuse_warmup: false,
    };
    for (id, cell) in spec.cells.iter().enumerate() {
        let (offline, _) = run_isolated_cell(&ctx, &spec, id, cell);
        let got = served.result.measured(id);
        assert_eq!(
            got.status,
            CellStatus::Ok,
            "cell {}: an interrupted cell was cached ({:?})",
            cell.label,
            got.error
        );
        assert_eq!(
            got.total_ipc().map(f64::to_bits),
            offline.total_ipc().map(f64::to_bits),
            "cell {} must be bit-identical to offline",
            cell.label
        );
    }
    shutdown_and_join(&endpoint, handle);
}
