//! # p5-serve
//!
//! Campaign-as-a-service for the POWER5 priority reproduction: a
//! long-running daemon that accepts campaign requests as line-delimited
//! JSON over a unix or TCP socket, answers cached cells at once, shards
//! the rest across a bounded worker pool, and streams per-cell results
//! back as they finish — backed by a content-addressed
//! [`cache::ResultCache`] so repeated or overlapping grids from any
//! number of clients skip simulation entirely.
//!
//! The crate is dependency-free beyond the workspace: framing is one
//! JSON object per line (no HTTP), JSON comes from [`p5_pmu::json`],
//! and the socket plumbing is `std::net` / `std::os::unix::net`.
//!
//! | module | role |
//! |--------|------|
//! | [`protocol`] | wire types: requests, per-cell responses, parsing |
//! | [`cache`]    | the result cache: in-memory map + optional journal-directory persistence |
//! | [`server`]   | the daemon: accept loop, worker pool, per-connection cancellation |
//! | [`client`]   | client library: submit a campaign, reassemble a [`p5_experiments::campaign::CampaignResult`] |
//!
//! # Determinism contract
//!
//! A cell measured through the server is the *same pure function* of
//! its spec as a cell measured by offline `repro`: the server resolves
//! requests into [`p5_experiments::campaign::CellSpec`]s, answers the
//! cached ones with [`p5_experiments::campaign::replay_cell`] (the
//! campaign worker flow's own replay step), executes the rest with
//! [`p5_experiments::campaign::run_isolated_cell`], and the client
//! folds the streamed outcomes with
//! [`p5_experiments::campaign::aggregate`] — the exact aggregation an
//! offline campaign performs. Artifacts exported from a served
//! campaign are therefore byte-identical to offline output, cache cold
//! or warm, at any worker count (asserted end-to-end by
//! `tests/e2e.rs` and the CI smoke leg).
//!
//! # Quickstart
//!
//! ```text
//! cargo run --release -p p5-serve --bin p5_serve -- --unix /tmp/p5.sock &
//! cargo run --release -p p5-serve --bin p5_client -- \
//!     --unix /tmp/p5.sock --grid table3 --fidelity quick --csv-dir out/
//! # second submission: every cell is a cache hit
//! cargo run --release -p p5-serve --bin p5_client -- \
//!     --unix /tmp/p5.sock --grid table3 --fidelity quick --csv-dir out2/
//! cargo run --release -p p5-serve --bin p5_client -- --unix /tmp/p5.sock --shutdown
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod client;
mod conn;
pub mod protocol;
pub mod server;
