//! Wire protocol: line-delimited JSON over a byte stream.
//!
//! Framing is deliberately primitive — one JSON object per `\n`-ended
//! line, one request per connection — so the protocol needs no HTTP
//! stack and both sides can be driven from a shell (`nc`, `socat`).
//! Measurements travel in the result journal's shape
//! ([`p5_experiments::journal::measured_to_json`]): floats are encoded
//! as IEEE-754 bit patterns, so a measurement received over the socket
//! is bit-identical to the one the worker produced.
//!
//! A campaign request names its cells either by the `table3` *grid
//! shorthand* (expanded server-side with
//! [`p5_experiments::table3::cells`], so the server measures exactly
//! the cells an offline run would) or as an explicit list of
//! [`CellRequest`]s referencing paper microbenchmarks by name.

use p5_core::ExecutionPlan;
use p5_experiments::campaign::CellSpec;
use p5_experiments::journal::{measured_from_json, measured_to_json};
use p5_experiments::{table3, Experiments, Measured};
use p5_isa::Priority;
use p5_microbench::MicroBenchmark;
use p5_pmu::json::{JsonObject, JsonValue};

/// Simulation fidelity of a served campaign — which [`Experiments`]
/// context the server resolves the request against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fidelity {
    /// Full paper configuration ([`Experiments::paper`]).
    Paper,
    /// Reduced-budget configuration ([`Experiments::quick`]), the same
    /// one `repro --quick` uses.
    Quick,
    /// Test-sized core and FAME budgets
    /// ([`p5_core::CoreConfig::tiny_for_tests`] +
    /// [`p5_fame::FameConfig::quick`]) — for tests and load harnesses,
    /// not for paper numbers.
    Tiny,
}

impl Fidelity {
    /// The wire name (`paper` / `quick` / `tiny`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Fidelity::Paper => "paper",
            Fidelity::Quick => "quick",
            Fidelity::Tiny => "tiny",
        }
    }

    /// Parses a wire name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Fidelity> {
        match name {
            "paper" => Some(Fidelity::Paper),
            "quick" => Some(Fidelity::Quick),
            "tiny" => Some(Fidelity::Tiny),
            _ => None,
        }
    }

    /// Builds the [`Experiments`] context this fidelity stands for.
    /// The context is the *same one* offline `repro` builds for the
    /// matching flag, which is what makes served artifacts
    /// byte-identical to offline ones.
    #[must_use]
    pub fn context(self) -> Experiments {
        match self {
            Fidelity::Paper => Experiments::paper(),
            Fidelity::Quick => Experiments::quick(),
            Fidelity::Tiny => Experiments::with_configs(
                p5_core::CoreConfig::tiny_for_tests(),
                p5_fame::FameConfig::quick(),
            ),
        }
    }
}

/// One explicitly-requested cell: microbenchmarks by paper name plus a
/// priority pair (levels 0–7; ignored for single-thread cells, exactly
/// as in an offline campaign).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellRequest {
    /// Primary (measured) microbenchmark, e.g. `"cpu_int"`.
    pub primary: String,
    /// Secondary microbenchmark for an SMT pair, or `None` for a
    /// single-thread baseline.
    pub secondary: Option<String>,
    /// Priority levels `(primary, secondary)`.
    pub priorities: (u8, u8),
}

impl CellRequest {
    /// Resolves the request into a campaign [`CellSpec`].
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an unknown benchmark name
    /// or an out-of-range priority level.
    pub fn resolve(&self) -> Result<CellSpec, String> {
        let bench = |name: &str| {
            MicroBenchmark::from_name(name)
                .ok_or_else(|| format!("unknown microbenchmark {name:?}"))
        };
        let primary = bench(&self.primary)?;
        let Some(secondary) = &self.secondary else {
            return Ok(CellSpec::single(
                format!("ST {}", primary.name()),
                primary.program(),
            ));
        };
        let secondary = bench(secondary)?;
        let prio = |level: u8| {
            Priority::from_level(level)
                .ok_or_else(|| format!("priority level {level} out of range (0-7)"))
        };
        let (p, s) = (prio(self.priorities.0)?, prio(self.priorities.1)?);
        Ok(CellSpec::pair(
            format!(
                "({},{}) at ({},{})",
                primary.name(),
                secondary.name(),
                self.priorities.0,
                self.priorities.1
            ),
            primary.program(),
            secondary.program(),
            (p, s),
        ))
    }

    fn to_json(&self) -> JsonValue {
        let mut obj = JsonObject::new().field("primary", self.primary.as_str());
        if let Some(secondary) = &self.secondary {
            obj = obj.field("secondary", secondary.as_str());
        }
        obj.field("prio_p", u64::from(self.priorities.0))
            .field("prio_s", u64::from(self.priorities.1))
            .build()
    }

    fn from_json(v: &JsonValue) -> Option<CellRequest> {
        Some(CellRequest {
            primary: v.get("primary")?.as_str()?.to_string(),
            secondary: match v.get("secondary") {
                Some(s) => Some(s.as_str()?.to_string()),
                None => None,
            },
            priorities: (
                u8::try_from(v.get("prio_p")?.as_u64()?).ok()?,
                u8::try_from(v.get("prio_s")?.as_u64()?).ok()?,
            ),
        })
    }
}

/// A campaign submission: fidelity, the cells (grid shorthand or
/// explicit list), and the caching policy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignRequest {
    /// Which [`Experiments`] context to measure under.
    pub fidelity: Fidelity,
    /// Grid shorthand. `"table3"` expands to the paper's 42-cell
    /// Table 3 grid; takes precedence over `cells` when set.
    pub grid: Option<String>,
    /// Explicit cell list (used when `grid` is `None`).
    pub cells: Vec<CellRequest>,
    /// Campaign seed. `None` uses the fidelity context's configured
    /// core RNG seed — the same default an offline
    /// [`p5_experiments::campaign::CampaignSpec::for_ctx`] applies.
    pub seed: Option<u64>,
    /// Execution plan the cells run under (warmup engine + measure
    /// schedule), in the same grammar as `repro --plan`. Sampled and
    /// detailed results hash to disjoint cache keys, so mixing plans
    /// against one daemon is safe. Defaults to the fully detailed plan.
    pub plan: ExecutionPlan,
    /// Whether the server may serve (and record) this campaign's cells
    /// from its result cache. Off forces every cell to simulate.
    pub cache: bool,
}

impl CampaignRequest {
    /// A `table3` grid request at the given fidelity, cache on.
    #[must_use]
    pub fn table3(fidelity: Fidelity) -> CampaignRequest {
        CampaignRequest {
            fidelity,
            grid: Some("table3".to_string()),
            cells: Vec::new(),
            seed: None,
            plan: ExecutionPlan::detailed(),
            cache: true,
        }
    }

    /// Expands the request into the campaign's flat cell list.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown grid name, an unresolvable
    /// cell, or an empty request.
    pub fn resolve_cells(&self) -> Result<Vec<CellSpec>, String> {
        if let Some(grid) = &self.grid {
            return match grid.as_str() {
                "table3" => Ok(table3::cells()),
                other => Err(format!("unknown grid {other:?} (expected \"table3\")")),
            };
        }
        if self.cells.is_empty() {
            return Err("empty campaign: no grid and no cells".to_string());
        }
        self.cells.iter().map(CellRequest::resolve).collect()
    }
}

/// A client→server request. Exactly one is read per connection.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a campaign; the server streams [`Response::Cell`] lines
    /// followed by one [`Response::Done`].
    Campaign(CampaignRequest),
    /// Ask for cache statistics ([`Response::Stats`]).
    Stats,
    /// Ask the daemon to stop accepting connections and exit.
    Shutdown,
}

impl Request {
    /// Encodes the request as one newline-terminated JSON line.
    #[must_use]
    pub fn to_line(&self) -> String {
        let value = match self {
            Request::Campaign(c) => {
                let mut obj = JsonObject::new()
                    .field("kind", "campaign")
                    .field("fidelity", c.fidelity.name());
                if let Some(grid) = &c.grid {
                    obj = obj.field("grid", grid.as_str());
                }
                if !c.cells.is_empty() {
                    obj = obj.field(
                        "cells",
                        JsonValue::Array(c.cells.iter().map(CellRequest::to_json).collect()),
                    );
                }
                if let Some(seed) = c.seed {
                    obj = obj.field("seed", seed);
                }
                if c.plan != ExecutionPlan::detailed() {
                    obj = obj.field("plan", c.plan.to_string().as_str());
                }
                obj.field("cache", c.cache).build()
            }
            Request::Stats => JsonObject::new().field("kind", "stats").build(),
            Request::Shutdown => JsonObject::new().field("kind", "shutdown").build(),
        };
        let mut line = value.to_string();
        line.push('\n');
        line
    }

    /// Decodes one line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON or an
    /// unknown request kind.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = JsonValue::parse(line).ok_or_else(|| "malformed JSON request".to_string())?;
        match v.get("kind").and_then(JsonValue::as_str) {
            Some("campaign") => {
                let fidelity = v
                    .get("fidelity")
                    .and_then(JsonValue::as_str)
                    .and_then(Fidelity::from_name)
                    .ok_or_else(|| "missing or unknown fidelity".to_string())?;
                let cells = match v.get("cells").and_then(JsonValue::as_array) {
                    Some(items) => items
                        .iter()
                        .map(|c| {
                            CellRequest::from_json(c)
                                .ok_or_else(|| "malformed cell request".to_string())
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    None => Vec::new(),
                };
                let plan = match v.get("plan").and_then(JsonValue::as_str) {
                    Some(spec) => {
                        ExecutionPlan::parse(spec).map_err(|e| format!("invalid plan: {e}"))?
                    }
                    None => ExecutionPlan::detailed(),
                };
                Ok(Request::Campaign(CampaignRequest {
                    fidelity,
                    grid: v
                        .get("grid")
                        .and_then(JsonValue::as_str)
                        .map(ToString::to_string),
                    cells,
                    seed: v.get("seed").and_then(JsonValue::as_u64),
                    plan,
                    cache: v.get("cache").and_then(JsonValue::as_bool).unwrap_or(true),
                }))
            }
            Some("stats") => Ok(Request::Stats),
            Some("shutdown") => Ok(Request::Shutdown),
            Some(other) => Err(format!("unknown request kind {other:?}")),
            None => Err("request has no kind".to_string()),
        }
    }
}

/// A server→client response line.
#[derive(Debug, Clone)]
pub enum Response {
    /// One finished cell, streamed in completion order.
    Cell {
        /// The cell's id (index into the request's resolved cell list).
        id: usize,
        /// The cell's label (as an offline campaign would report it).
        label: String,
        /// Whether the measurement came from the result cache.
        cached: bool,
        /// The measurement, bit-exact.
        measured: Measured,
    },
    /// Campaign complete (also the acknowledgement for `shutdown`).
    Done {
        /// Cells in the campaign.
        cells: usize,
        /// Of those, how many were cache hits.
        cached: usize,
    },
    /// Cache statistics.
    Stats {
        /// Cache lookups served from the cache since daemon start.
        hits: u64,
        /// Lookups that had to simulate.
        misses: u64,
        /// Distinct cell records currently in the cache.
        entries: usize,
        /// Records evicted by the daemon's `--cache-max-entries` bound
        /// since start (0 when unbounded).
        evictions: u64,
    },
    /// The request failed; the connection closes after this line.
    Error {
        /// Human-readable cause.
        message: String,
    },
}

impl Response {
    /// Encodes the response as one newline-terminated JSON line.
    #[must_use]
    pub fn to_line(&self) -> String {
        let value = match self {
            Response::Cell {
                id,
                label,
                cached,
                measured,
            } => JsonObject::new()
                .field("kind", "cell")
                .field("id", *id)
                .field("label", label.as_str())
                .field("cached", *cached)
                .field("measured", measured_to_json(measured))
                .build(),
            Response::Done { cells, cached } => JsonObject::new()
                .field("kind", "done")
                .field("cells", *cells)
                .field("cached", *cached)
                .build(),
            Response::Stats {
                hits,
                misses,
                entries,
                evictions,
            } => JsonObject::new()
                .field("kind", "stats")
                .field("hits", *hits)
                .field("misses", *misses)
                .field("entries", *entries)
                .field("evictions", *evictions)
                .build(),
            Response::Error { message } => JsonObject::new()
                .field("kind", "error")
                .field("message", message.as_str())
                .build(),
        };
        let mut line = value.to_string();
        line.push('\n');
        line
    }

    /// Decodes one line.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for malformed JSON or an
    /// unknown response kind.
    pub fn parse(line: &str) -> Result<Response, String> {
        let v = JsonValue::parse(line).ok_or_else(|| "malformed JSON response".to_string())?;
        let int = |key: &str| {
            v.get(key)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("missing field {key:?}"))
        };
        match v.get("kind").and_then(JsonValue::as_str) {
            Some("cell") => Ok(Response::Cell {
                id: usize::try_from(int("id")?).map_err(|_| "id overflow".to_string())?,
                label: v
                    .get("label")
                    .and_then(JsonValue::as_str)
                    .ok_or_else(|| "missing field \"label\"".to_string())?
                    .to_string(),
                cached: v
                    .get("cached")
                    .and_then(JsonValue::as_bool)
                    .unwrap_or(false),
                measured: v
                    .get("measured")
                    .and_then(measured_from_json)
                    .ok_or_else(|| "malformed measurement".to_string())?,
            }),
            Some("done") => Ok(Response::Done {
                cells: usize::try_from(int("cells")?).map_err(|_| "cells overflow".to_string())?,
                cached: usize::try_from(int("cached")?)
                    .map_err(|_| "cached overflow".to_string())?,
            }),
            Some("stats") => Ok(Response::Stats {
                hits: int("hits")?,
                misses: int("misses")?,
                entries: usize::try_from(int("entries")?)
                    .map_err(|_| "entries overflow".to_string())?,
                // Absent from pre-bound daemons' replies; default 0.
                evictions: v.get("evictions").and_then(JsonValue::as_u64).unwrap_or(0),
            }),
            Some("error") => Ok(Response::Error {
                message: v
                    .get("message")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("unspecified server error")
                    .to_string(),
            }),
            Some(other) => Err(format!("unknown response kind {other:?}")),
            None => Err("response has no kind".to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use p5_experiments::{CellStatus, Measured};

    #[test]
    fn fidelity_names_round_trip() {
        for f in [Fidelity::Paper, Fidelity::Quick, Fidelity::Tiny] {
            assert_eq!(Fidelity::from_name(f.name()), Some(f));
        }
        assert_eq!(Fidelity::from_name("bogus"), None);
    }

    #[test]
    fn requests_round_trip_through_lines() {
        let requests = [
            Request::Campaign(CampaignRequest::table3(Fidelity::Quick)),
            Request::Campaign(CampaignRequest {
                fidelity: Fidelity::Tiny,
                grid: None,
                cells: vec![
                    CellRequest {
                        primary: "cpu_int".to_string(),
                        secondary: None,
                        priorities: (4, 4),
                    },
                    CellRequest {
                        primary: "cpu_int".to_string(),
                        secondary: Some("ldint_l2".to_string()),
                        priorities: (6, 2),
                    },
                ],
                seed: Some(0x5EED),
                plan: ExecutionPlan::detailed(),
                cache: false,
            }),
            Request::Campaign(CampaignRequest {
                plan: ExecutionPlan::parse("sampled:2048,8192").unwrap(),
                ..CampaignRequest::table3(Fidelity::Tiny)
            }),
            Request::Stats,
            Request::Shutdown,
        ];
        for request in requests {
            let line = request.to_line();
            assert!(line.ends_with('\n'), "line-delimited framing");
            assert_eq!(Request::parse(line.trim_end()).unwrap(), request);
        }
    }

    #[test]
    fn cell_requests_resolve_like_offline_specs() {
        let st = CellRequest {
            primary: "cpu_int".to_string(),
            secondary: None,
            priorities: (4, 4),
        }
        .resolve()
        .unwrap();
        assert_eq!(st.label, "ST cpu_int");
        assert!(st.secondary.is_none());

        let pair = CellRequest {
            primary: "cpu_int".to_string(),
            secondary: Some("ldint_l2".to_string()),
            priorities: (6, 2),
        }
        .resolve()
        .unwrap();
        assert_eq!(pair.label, "(cpu_int,ldint_l2) at (6,2)");
        assert_eq!(pair.priorities.0.level(), 6);
        assert_eq!(pair.priorities.1.level(), 2);

        assert!(CellRequest {
            primary: "no_such_bench".to_string(),
            secondary: None,
            priorities: (4, 4),
        }
        .resolve()
        .is_err());
        assert!(CellRequest {
            primary: "cpu_int".to_string(),
            secondary: Some("cpu_fp".to_string()),
            priorities: (9, 4),
        }
        .resolve()
        .is_err());
    }

    #[test]
    fn table3_grid_expands_to_the_offline_cell_list() {
        let cells = CampaignRequest::table3(Fidelity::Tiny)
            .resolve_cells()
            .unwrap();
        let offline = table3::cells();
        assert_eq!(cells.len(), offline.len());
        for (a, b) in cells.iter().zip(&offline) {
            assert_eq!(a.label, b.label);
        }
        assert!(CampaignRequest {
            grid: Some("table9".to_string()),
            ..CampaignRequest::table3(Fidelity::Tiny)
        }
        .resolve_cells()
        .is_err());
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        let measured = Measured {
            report: None,
            status: CellStatus::Ok,
            error: None,
        };
        let cell = Response::Cell {
            id: 7,
            label: "ST cpu_int".to_string(),
            cached: true,
            measured,
        };
        match Response::parse(cell.to_line().trim_end()).unwrap() {
            Response::Cell {
                id, label, cached, ..
            } => {
                assert_eq!(id, 7);
                assert_eq!(label, "ST cpu_int");
                assert!(cached);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match Response::parse(
            Response::Done {
                cells: 42,
                cached: 41,
            }
            .to_line()
            .trim_end(),
        )
        .unwrap()
        {
            Response::Done { cells, cached } => {
                assert_eq!((cells, cached), (42, 41));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
