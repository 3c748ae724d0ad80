//! `fastbuf` — command-line buffer insertion.
//!
//! ```text
//! fastbuf gen net   [--kind random|line|htree|caterpillar] [--sinks N] [--sites N]
//!                   [--seed S] [--pitch UM] [-o FILE]
//! fastbuf gen lib   [--size B] [--jitter SEED] [-o FILE]
//! fastbuf gen suite --out-dir DIR [--nets N] [--max-sinks M] [--seed S] [--pitch UM]
//!                   [--slew-stress]
//! fastbuf info      --net FILE
//! fastbuf solve     --net FILE --lib FILE [--algo lishi|lillis|lishi-permanent]
//!                   [--slew-limit PS] [--model elmore|scaled-elmore]
//!                   [--placements] [--stats] [--no-verify]
//! fastbuf batch     (--dir DIR | --manifest FILE) --lib FILE [--algo A] [--workers N]
//!                   [--slew-limit PS] [--model M] [--json FILE] [--placements]
//!                   [--per-net] [--check] [--no-verify]
//! fastbuf frontier  --net FILE --lib FILE [--max-cost W]
//! fastbuf serve     (--stdio | --port N) [--host H] [--workers N] [--max-designs N]
//!                   [--max-inflight N] [--deadline-ms MS] [--model M]
//!                   [--preload ID=NET,LIB]
//! ```
//!
//! `--slew-limit` runs the slew-constrained mode: candidates whose stage
//! would exceed the limit (in ps) at any buffer input or sink are pruned,
//! and reports carry measured worst slews. `--model` selects the delay
//! backend (`elmore` default, `scaled-elmore` for the D2M-style scaled
//! wire metric).
//!
//! `batch` solves every net of a directory or manifest in parallel through
//! `fastbuf-batch` and emits per-net + aggregate results (optionally as
//! JSON); `gen suite` writes a reproducible heavy-tailed net fleet for it.
//!
//! `serve` keeps sessions resident and speaks the newline-delimited JSON
//! v1 envelope of `docs/PROTOCOL.md` over TCP or stdin/stdout.
//!
//! Nets and libraries use the plain-text formats of `fastbuf_rctree::io`
//! and `fastbuf_buflib::BufferLibrary::{to_text, from_text}`.
//!
//! Exit codes are documented in `fastbuf --help`: 0 success, 2 usage or
//! failed check, 3 I/O, and 10–24 for the typed solver errors (one
//! distinct code per `SolveError` variant).

use std::process::ExitCode;

use fastbuf_cli::args;

mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.code)
        }
    }
}
