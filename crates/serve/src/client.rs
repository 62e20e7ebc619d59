//! Client library: submit requests and reassemble campaign results.
//!
//! The client's job is to make a served campaign *indistinguishable*
//! from an offline one: it collects the streamed per-cell responses
//! (which arrive in completion order), re-sorts them into id order,
//! and folds them with [`p5_experiments::campaign::aggregate`] — the
//! identical aggregation [`Campaign::run`] performs. Downstream
//! projections (`table3::from_campaign`, the export writers) then see
//! byte-equal input, so served artifacts are byte-identical to offline
//! ones.
//!
//! [`Campaign::run`]: p5_experiments::campaign::Campaign::run

use crate::cache::CacheStats;
use crate::conn::Conn;
use crate::protocol::{CampaignRequest, Request, Response};
use p5_experiments::campaign::{aggregate, CampaignResult, CellOutcome};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Where the daemon lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7055`.
    Tcp(String),
    /// A unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    fn connect(&self) -> std::io::Result<Conn> {
        Ok(match self {
            Endpoint::Tcp(addr) => Conn::Tcp(TcpStream::connect(addr)?),
            Endpoint::Unix(path) => Conn::Unix(UnixStream::connect(path)?),
        })
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect, read, write).
    Io(std::io::Error),
    /// The server spoke, but not the protocol (malformed line, wrong
    /// response kind, missing cells).
    Protocol(String),
    /// The server reported a request error.
    Server(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// A campaign fetched through the daemon.
#[derive(Debug)]
pub struct ServedCampaign {
    /// The reassembled result — the same value an offline
    /// [`Campaign::run`](p5_experiments::campaign::Campaign::run) of
    /// the equivalent spec produces (its `replayed` count reflects
    /// cache hits).
    pub result: CampaignResult,
    /// Cells the server answered from its cache.
    pub cached: usize,
}

/// Submits a campaign and blocks until every cell has streamed back.
///
/// # Errors
///
/// [`ClientError::Io`] on socket failures, [`ClientError::Server`] if
/// the server rejected the request, [`ClientError::Protocol`] if the
/// stream ended early or was inconsistent (duplicate or missing cell
/// ids, wrong totals).
pub fn run_campaign(
    endpoint: &Endpoint,
    request: &CampaignRequest,
) -> Result<ServedCampaign, ClientError> {
    let conn = endpoint.connect()?;
    let mut writer = conn.try_clone()?;
    writer.write_all(Request::Campaign(request.clone()).to_line().as_bytes())?;
    writer.flush()?;

    let mut outcomes: Vec<CellOutcome> = Vec::new();
    let mut done: Option<(usize, usize)> = None;
    for line in BufReader::new(conn).lines() {
        let line = line?;
        match Response::parse(&line).map_err(ClientError::Protocol)? {
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
            Response::Done { cells, cached } => {
                done = Some((cells, cached));
                break;
            }
            Response::Error { message } => return Err(ClientError::Server(message)),
            Response::Stats { .. } => {
                return Err(ClientError::Protocol(
                    "unexpected stats response to a campaign".to_string(),
                ))
            }
        }
    }
    let Some((cells, cached)) = done else {
        return Err(ClientError::Protocol(
            "stream ended before the done line".to_string(),
        ));
    };
    if outcomes.len() != cells {
        return Err(ClientError::Protocol(format!(
            "server promised {cells} cells, streamed {}",
            outcomes.len()
        )));
    }
    // Completion order is scheduling noise; id order is the contract.
    outcomes.sort_by_key(|o| o.id);
    if outcomes.iter().enumerate().any(|(i, o)| o.id != i) {
        return Err(ClientError::Protocol(
            "duplicate or missing cell ids in stream".to_string(),
        ));
    }
    Ok(ServedCampaign {
        result: aggregate(outcomes),
        cached,
    })
}

/// Fetches the daemon's cache statistics.
///
/// # Errors
///
/// As [`run_campaign`].
pub fn stats(endpoint: &Endpoint) -> Result<CacheStats, ClientError> {
    match one_shot(endpoint, &Request::Stats)? {
        Response::Stats {
            hits,
            misses,
            entries,
            evictions,
        } => Ok(CacheStats {
            hits,
            misses,
            entries,
            evictions,
        }),
        Response::Error { message } => Err(ClientError::Server(message)),
        other => Err(ClientError::Protocol(format!(
            "unexpected response to stats: {other:?}"
        ))),
    }
}

/// Asks the daemon to exit (acknowledged before it stops accepting).
///
/// # Errors
///
/// As [`run_campaign`].
pub fn shutdown(endpoint: &Endpoint) -> Result<(), ClientError> {
    match one_shot(endpoint, &Request::Shutdown)? {
        Response::Done { .. } => Ok(()),
        Response::Error { message } => Err(ClientError::Server(message)),
        other => Err(ClientError::Protocol(format!(
            "unexpected response to shutdown: {other:?}"
        ))),
    }
}

/// Polls the endpoint until the daemon answers a stats request or the
/// timeout elapses — how a harness that just spawned `p5_serve` waits
/// for the socket to come up.
///
/// # Errors
///
/// Returns the last failure if the daemon never became ready.
pub fn wait_ready(endpoint: &Endpoint, timeout: Duration) -> Result<(), ClientError> {
    let deadline = Instant::now() + timeout;
    loop {
        match stats(endpoint) {
            Ok(_) => return Ok(()),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Sends one request, reads one response line.
fn one_shot(endpoint: &Endpoint, request: &Request) -> Result<Response, ClientError> {
    let conn = endpoint.connect()?;
    let mut writer = conn.try_clone()?;
    writer.write_all(request.to_line().as_bytes())?;
    writer.flush()?;
    let mut line = String::new();
    BufReader::new(conn).read_line(&mut line)?;
    if line.is_empty() {
        return Err(ClientError::Protocol(
            "connection closed without a response".to_string(),
        ));
    }
    Response::parse(line.trim_end()).map_err(ClientError::Protocol)
}
