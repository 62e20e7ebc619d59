//! The daemon: accept loop, shared worker pool, per-connection
//! cancellation.
//!
//! # Architecture
//!
//! One [`Server`] owns one listening socket (TCP or unix), one
//! [`ResultCache`], and one bounded worker pool of `jobs` threads —
//! the *only* threads that simulate. Each accepted connection gets a
//! lightweight handler thread that reads exactly one request, and for
//! a campaign:
//!
//! 1. resolves the request into [`CellSpec`]s and builds the fidelity's
//!    [`Experiments`] context, with the cache's journal attached (when
//!    the request allows caching) and a fresh per-connection
//!    [`CancelToken`];
//! 2. looks every cell up in the cache with [`replay_cell`] (the worker
//!    flow's own replay step) and submits only the misses to the shared
//!    pool, each as an independent [`run_isolated_cell`] job — cells
//!    from concurrent clients interleave in the queue, so one big
//!    campaign cannot starve the daemon, and a hit never waits behind
//!    anyone's cold cells. A worker checks the cache again, so a miss
//!    that another client recorded in the meantime still replays;
//! 3. streams the hits back at once and each finished miss in
//!    completion order, then one `done` line.
//!
//! A failed write (the client went away) fires the connection's cancel
//! token: this connection's not-yet-started cells are skipped instead
//! of simulated, and a cell still simulating stops at its next chunk
//! boundary and is skipped too. The worker flow never journals a
//! skipped cell, so a disconnect can neither poison the cache nor evict
//! anything another client already paid for.
//!
//! # Determinism
//!
//! The daemon adds no entropy: every cell is replayed by
//! [`replay_cell`] or executed by [`run_isolated_cell`] against a
//! context derived only from the request, and the client re-sorts
//! streamed outcomes by id before aggregating. A hit is the same
//! journal record whichever thread reads it. Completion order — the
//! only scheduling-dependent observable — is erased at the protocol
//! boundary.

use crate::cache::ResultCache;
use crate::conn::Conn;
use crate::protocol::{CampaignRequest, Request, Response};
use p5_core::CancelToken;
use p5_experiments::campaign::{replay_cell, run_isolated_cell, CampaignSpec, CellSpec};
use p5_experiments::{Experiments, Measured};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How often the accept loop polls the shutdown flag between
/// non-blocking accepts.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// One queued unit of work (a single cell).
type Job = Box<dyn FnOnce() + Send>;

/// The bounded worker pool: a locked queue, a condvar, and `jobs`
/// threads draining it. Closing the pool lets the workers finish the
/// queue and exit.
struct Pool {
    state: Arc<(Mutex<PoolState>, Condvar)>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

struct PoolState {
    queue: VecDeque<Job>,
    closed: bool,
}

impl Pool {
    fn new(jobs: usize) -> Pool {
        let state = Arc::new((
            Mutex::new(PoolState {
                queue: VecDeque::new(),
                closed: false,
            }),
            Condvar::new(),
        ));
        let workers = (0..jobs.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || loop {
                    let job = {
                        let (lock, cvar) = &*state;
                        let mut guard = lock.lock().unwrap();
                        loop {
                            if let Some(job) = guard.queue.pop_front() {
                                break job;
                            }
                            if guard.closed {
                                return;
                            }
                            guard = cvar.wait(guard).unwrap();
                        }
                    };
                    job();
                })
            })
            .collect();
        Pool { state, workers }
    }

    fn submit(&self, job: Job) {
        let (lock, cvar) = &*self.state;
        lock.lock().unwrap().queue.push_back(job);
        cvar.notify_one();
    }

    /// Marks the pool closed and joins the workers after they drain
    /// the remaining queue.
    fn close(&mut self) {
        let (lock, cvar) = &*self.state;
        lock.lock().unwrap().closed = true;
        cvar.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// The listening socket, transport-erased.
enum Listener {
    Tcp(TcpListener),
    /// The unix listener remembers its path so [`Server::serve`] can
    /// unlink the socket file on exit.
    Unix(UnixListener, PathBuf),
}

/// State shared between the accept loop, connection handlers, and
/// worker jobs.
struct Shared {
    cache: ResultCache,
    pool: Pool,
    shutdown: AtomicBool,
}

/// A bound (but not yet serving) campaign daemon.
pub struct Server {
    listener: Listener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds a TCP endpoint (e.g. `127.0.0.1:0` for an ephemeral
    /// port — read it back with [`Server::local_addr`]).
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind_tcp(addr: &str, jobs: usize, cache: ResultCache) -> std::io::Result<Server> {
        Ok(Server::with_listener(
            Listener::Tcp(TcpListener::bind(addr)?),
            jobs,
            cache,
        ))
    }

    /// Binds a unix-domain socket at `path`, replacing a stale socket
    /// file from a previous daemon if one is left over.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind_unix(
        path: impl Into<PathBuf>,
        jobs: usize,
        cache: ResultCache,
    ) -> std::io::Result<Server> {
        let path = path.into();
        if path.exists() {
            std::fs::remove_file(&path)?;
        }
        Ok(Server::with_listener(
            Listener::Unix(UnixListener::bind(&path)?, path),
            jobs,
            cache,
        ))
    }

    fn with_listener(listener: Listener, jobs: usize, cache: ResultCache) -> Server {
        Server {
            listener,
            shared: Arc::new(Shared {
                cache,
                pool: Pool::new(jobs),
                shutdown: AtomicBool::new(false),
            }),
        }
    }

    /// The bound TCP address (`None` for unix sockets) — how a test or
    /// harness that bound port 0 learns its ephemeral port.
    #[must_use]
    pub fn local_addr(&self) -> Option<SocketAddr> {
        match &self.listener {
            Listener::Tcp(l) => l.local_addr().ok(),
            Listener::Unix(..) => None,
        }
    }

    /// Serves until a client sends a `shutdown` request: accepts
    /// connections, one handler thread each, polling the shutdown flag
    /// between non-blocking accepts. On the way out, in-flight
    /// connections are joined, the pool drains, and the cache is
    /// flushed — a served daemon never leaves a torn journal.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop socket errors (per-connection I/O errors
    /// only end that connection).
    pub fn serve(self) -> std::io::Result<()> {
        match &self.listener {
            Listener::Tcp(l) => l.set_nonblocking(true)?,
            Listener::Unix(l, _) => l.set_nonblocking(true)?,
        }
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            handlers.retain(|h| !h.is_finished());
            let accepted = match &self.listener {
                Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
                Listener::Unix(l, _) => l.accept().map(|(s, _)| Conn::Unix(s)),
            };
            match accepted {
                Ok(conn) => {
                    // The listener's non-blocking mode is inherited by
                    // accepted sockets on some platforms; handlers use
                    // plain blocking reads.
                    match &conn {
                        Conn::Tcp(s) => s.set_nonblocking(false)?,
                        Conn::Unix(s) => s.set_nonblocking(false)?,
                    }
                    let shared = Arc::clone(&self.shared);
                    handlers.push(std::thread::spawn(move || handle_connection(&shared, conn)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) => return Err(e),
            }
        }
        for handler in handlers {
            let _ = handler.join();
        }
        let mut shared = self.shared;
        // The accept loop is done and every handler joined, so this
        // Arc is the last one standing.
        if let Some(inner) = Arc::get_mut(&mut shared) {
            inner.pool.close();
        }
        shared.cache.flush();
        if let Listener::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        Ok(())
    }
}

/// Reads the connection's one request and dispatches it. All I/O
/// errors are connection-local.
fn handle_connection(shared: &Shared, conn: Conn) {
    let Ok(read_half) = conn.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    if reader.read_line(&mut line).is_err() {
        return;
    }
    let mut writer = conn;
    let respond = |writer: &mut Conn, response: &Response| {
        writer.write_all(response.to_line().as_bytes()).is_ok()
    };
    match Request::parse(line.trim_end()) {
        Err(message) => {
            respond(&mut writer, &Response::Error { message });
        }
        Ok(Request::Stats) => {
            let stats = shared.cache.stats();
            respond(
                &mut writer,
                &Response::Stats {
                    hits: stats.hits,
                    misses: stats.misses,
                    entries: stats.entries,
                    evictions: stats.evictions,
                },
            );
        }
        Ok(Request::Shutdown) => {
            respond(
                &mut writer,
                &Response::Done {
                    cells: 0,
                    cached: 0,
                },
            );
            shared.shutdown.store(true, Ordering::SeqCst);
        }
        Ok(Request::Campaign(request)) => {
            serve_campaign(shared, &mut writer, &request);
        }
    }
}

/// Runs one campaign request: answer hits, shard misses onto the pool,
/// stream results back, cancel on client disconnect.
fn serve_campaign(shared: &Shared, writer: &mut Conn, request: &CampaignRequest) {
    let cells = match request.resolve_cells() {
        Ok(cells) => cells,
        Err(message) => {
            let _ = writer.write_all(Response::Error { message }.to_line().as_bytes());
            return;
        }
    };
    let cancel = CancelToken::new();
    let (ctx, spec) = build_campaign(request, cells, &cancel, shared);
    let total = spec.cells.len();
    // Hits are answered here, on the handler thread: a hit is a key and
    // a lookup, and must not queue behind other clients' cold cells in
    // the pool. Without a journal (`cache: false`) nothing hits.
    let mut hits = Vec::new();
    let mut misses = Vec::new();
    for (id, cell) in spec.cells.iter().enumerate() {
        match replay_cell(&ctx, &spec, id, cell) {
            Some(measured) => hits.push((id, cell.label.clone(), measured, true)),
            None => misses.push(id),
        }
    }
    let (tx, rx) = mpsc::channel::<(usize, String, Measured, bool)>();
    for id in misses {
        let ctx = Arc::clone(&ctx);
        let spec = Arc::clone(&spec);
        let tx = tx.clone();
        shared.pool.submit(Box::new(move || {
            let cell = &spec.cells[id];
            let (measured, replayed) = run_isolated_cell(&ctx, &spec, id, cell);
            // A send can only fail if the handler is gone, which only
            // happens after every job finished — drop the result.
            let _ = tx.send((id, cell.label.clone(), measured, replayed));
        }));
    }
    drop(tx);
    let mut cached = 0;
    let mut client_alive = true;
    for (id, label, measured, replayed) in hits.into_iter().chain(rx) {
        if request.cache {
            shared.cache.note(replayed);
        }
        if replayed {
            cached += 1;
        }
        if client_alive {
            let line = Response::Cell {
                id,
                label,
                cached: replayed,
                measured,
            }
            .to_line();
            if writer.write_all(line.as_bytes()).is_err() {
                // The client went away: skip this connection's
                // remaining and in-flight cells (skipped cells are
                // never journaled, so the cache stays clean) but keep
                // draining the channel so the pool is not left blocked.
                cancel.cancel();
                client_alive = false;
            }
        }
    }
    if request.cache {
        shared.cache.flush();
    }
    if client_alive {
        let _ = writer.write_all(
            Response::Done {
                cells: total,
                cached,
            }
            .to_line()
            .as_bytes(),
        );
    }
}

/// Builds the request's execution context and campaign spec — the
/// *entire* mapping from wire request to simulation input, kept in one
/// place so the determinism contract is auditable: fidelity context,
/// optional cache journal, per-connection cancel token, and the
/// offline default seed.
fn build_campaign(
    request: &CampaignRequest,
    cells: Vec<CellSpec>,
    cancel: &CancelToken,
    shared: &Shared,
) -> (Arc<Experiments>, Arc<CampaignSpec>) {
    // The plan lands on the context exactly as `repro --plan` applies
    // it offline; cell keys cover its warmup and measure modes, so
    // sampled and detailed requests populate disjoint cache entries.
    let mut ctx = request
        .fidelity
        .context()
        .with_plan(request.plan)
        .with_cancel(cancel.clone());
    if request.cache {
        ctx = ctx.with_journal(shared.cache.journal());
    }
    let seed = request.seed.unwrap_or(ctx.core.rng_seed);
    let spec = CampaignSpec {
        cells,
        // `jobs` is campaign-engine parallelism; the server shards at
        // the pool level instead, one job per cell.
        jobs: 1,
        seed,
        reuse_warmup: false,
    };
    (Arc::new(ctx), Arc::new(spec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn pool_runs_every_job_and_drains_on_close() {
        let mut pool = Pool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..32 {
            let counter = Arc::clone(&counter);
            pool.submit(Box::new(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.close();
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn pool_with_zero_jobs_still_works() {
        let mut pool = Pool::new(0);
        let ran = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&ran);
        pool.submit(Box::new(move || flag.store(true, Ordering::SeqCst)));
        pool.close();
        assert!(ran.load(Ordering::SeqCst), "jobs clamps to at least 1");
    }

    #[test]
    fn unix_bind_replaces_a_stale_socket_file() {
        let path = std::env::temp_dir().join(format!("p5-serve-stale-{}.sock", std::process::id()));
        std::fs::write(&path, b"stale").unwrap();
        let server = Server::bind_unix(&path, 1, ResultCache::in_memory()).expect("rebind");
        assert!(
            server.local_addr().is_none(),
            "unix sockets have no TCP addr"
        );
        drop(server);
        let _ = std::fs::remove_file(&path);
    }
}
