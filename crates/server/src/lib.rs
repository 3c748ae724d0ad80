//! `fastbuf serve`: a resident solve-as-a-service daemon.
//!
//! Every CLI invocation pays the full load cost — parse the net, parse
//! the library, build a [`Session`](fastbuf_api::Session), solve once,
//! exit — and throws the warm state away. Chip-scale flows are exactly
//! the opposite shape: thousands of solve/ECO requests against a handful
//! of designs whose library/technology context never changes between
//! requests. This crate keeps that context resident:
//!
//! * [`registry::DesignRegistry`] — designs keyed by id, each holding one
//!   warm [`Session`](fastbuf_api::Session) plus a per-corner
//!   [`EcoSolver`](fastbuf_api::EcoSolver) cache, with LRU eviction
//!   beyond a configurable cap.
//! * [`handler`] — executes one request frame against the registry and
//!   produces exactly one reply frame; every failure (malformed frame,
//!   unknown design, solver error, panic, missed deadline) becomes a
//!   typed error reply, never a dead process.
//! * [`Server`] — the transports: newline-delimited JSON over TCP
//!   (concurrent clients, worker pool, bounded in-flight backpressure)
//!   or over stdin/stdout (one client, same pool).
//!
//! The wire schema itself lives in [`fastbuf_api::wire`] and is
//! documented in `docs/PROTOCOL.md`; the CLI's `--json` paths print the
//! same [`NetOutcome`](fastbuf_api::NetOutcome) records, so a served
//! solve and a direct `fastbuf solve --json` emit byte-identical per-net
//! results.
//!
//! ```no_run
//! use fastbuf_server::{Server, ServerConfig};
//!
//! let listener = std::net::TcpListener::bind("127.0.0.1:7333")?;
//! Server::new(ServerConfig::default()).serve_tcp(listener)?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod handler;
pub mod registry;
mod server;

pub use server::Server;

use std::time::Duration;

/// Tuning knobs of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads executing requests (default: the hardware thread
    /// count, at least 2 so a slow solve cannot starve pings). A fixed
    /// count, not a cap: the pool outlives any one request, so its size
    /// does not depend on a request's work.
    pub workers: usize,
    /// Maximum requests admitted but not yet completed. Beyond this the
    /// connection readers block (bounded job queue), which TCP turns
    /// into client-visible backpressure instead of unbounded memory
    /// growth.
    pub max_inflight: usize,
    /// Maximum resident designs; loading one more evicts the least
    /// recently used.
    pub max_designs: usize,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms` (`None` = no default deadline).
    pub default_deadline: Option<Duration>,
    /// Largest accepted request frame in bytes; longer lines get a
    /// `too-large` error reply.
    pub max_frame_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: fastbuf_core::par::hardware_threads().max(2),
            max_inflight: 64,
            max_designs: 8,
            default_deadline: None,
            max_frame_bytes: 16 << 20,
        }
    }
}
