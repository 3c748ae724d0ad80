//! `fastbuf` — command-line buffer insertion.
//!
//! `fastbuf --help` prints the synopsis of every command (`gen`, `info`,
//! `solve`, `batch`, `eco`, `frontier`, `cts`, `global`, `serve`) and its
//! exit codes: 0 success, 2 usage or failed check, 3 I/O, and 10–25 for
//! the typed solver errors (one distinct code per `SolveError` variant).
//! The text lives once, in `commands::USAGE`.
//!
//! Nets and libraries use the plain-text formats of `fastbuf_rctree::io`
//! and `fastbuf_buflib::BufferLibrary::{to_text, from_text}`; `serve`
//! speaks the newline-delimited JSON v1 envelope of `docs/PROTOCOL.md`.

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
