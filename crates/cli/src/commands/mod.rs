//! Subcommand implementations, one module per subcommand.
//!
//! This module owns the shared surface — [`USAGE`], [`CliError`], the
//! [`run`] dispatcher, and the flag-loading helpers — while each
//! subcommand lives in its own file (`solve.rs`, `batch.rs`, `eco.rs`,
//! `serve.rs`, `gen.rs`, …).

use std::fs;

use fastbuf_api::{parse_model, Scenario, SolveError};
use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{Algorithm, DelayModel};
use fastbuf_rctree::{io as netio, RoutingTree};

use crate::args::Flags;

mod batch;
mod cts;
mod eco;
mod frontier;
mod gen;
mod global;
mod info;
mod serve;
mod solve;
#[cfg(test)]
mod tests;

const USAGE: &str = "usage:
  fastbuf gen net   [--kind random|line|htree|caterpillar] [--sinks N] [--sites N]
                    [--seed S] [--pitch UM] [--length UM] [--levels L] [-o FILE]
  fastbuf gen lib   [--size B] [--jitter SEED] [-o FILE]
  fastbuf gen suite --out-dir DIR [--nets N] [--max-sinks M] [--seed S] [--pitch UM]
                    [--slew-stress]
  fastbuf info      --net FILE
  fastbuf solve     --net FILE --lib FILE [--algo lishi|lillis|lishi-permanent]
                    [--slew-limit PS] [--model elmore|scaled-elmore]
                    [--scenarios FILE] [--json FILE]
                    [--variation FILE] [--samples N] [--quantile Q]
                    [--placements] [--stats] [--no-verify]
                    (--scenarios runs every corner of FILE; lines are
                     `name [model=M] [slew-limit-ps=N] [derate=F] [algo=A]`.
                     --model/--algo become the defaults for lines that do
                     not set their own; --slew-limit conflicts with
                     --scenarios. --json writes per-corner records in the
                     same schema as `batch --json`.
                     --variation runs a Monte-Carlo yield sweep instead:
                     FILE is a `parse_variation` spec, --samples (default
                     64) dice are solved through per-worker warm subtree
                     caches, and the slack distribution plus the --quantile
                     (default 0.5) slack are reported per corner.
                     Each corner's answer is measured by forward evaluation
                     and must match its predicted slack and, when reported
                     slew-feasible, stay within its slew limit (exit 17
                     otherwise); --no-verify skips that check.)
  fastbuf batch     (--dir DIR | --manifest FILE) --lib FILE [--algo A] [--workers N]
                    [--slew-limit PS] [--model M] [--json FILE] [--placements]
                    [--per-net] [--check] [--no-verify]
                    (every net passes the same check as `solve` unless
                     --no-verify: measured slack as predicted, worst slew
                     within --slew-limit when reported met; exit 17.)
  fastbuf eco       --net FILE --lib FILE (--edits FILE | --random N)
                    [--locality F] [--seed S] [--algo A] [--model M]
                    [--slew-limit PS] [--check] [--per-edit] [--json FILE]
                    [--emit-edits FILE]
                    (applies each edit and re-solves incrementally through
                     the session's subtree cache; a `swaplib` edit restarts
                     the session on the swapped library. The final answer
                     must measure the slack it predicted and, when reported
                     slew-feasible, stay within --slew-limit (exit 17
                     otherwise); --check applies that check to every
                     edit's answer and also fails (exit 2) on any result
                     not bit-identical to a fresh request on the edited
                     tree. --random N generates a reproducible N-edit
                     script at --locality (default 0.1); --emit-edits
                     saves it.)
  fastbuf frontier  --net FILE --lib FILE [--max-cost W]
                    (the slack-vs-cost Pareto frontier up to total buffer
                     cost W (default 64); every point must measure the
                     slack it predicted, exit 17 otherwise.)
  fastbuf cts       --lib FILE (--placements FILE | [--sinks N] [--seed S] [--span UM])
                    [--pitch UM] [--max-skew PS] [--algo A] [--inverters]
                    [--emit-placements FILE] [--show-placements] [--json FILE]
                    [--no-verify]
                    (clock-tree synthesis: reads `sink <x> <y> <cap> <rat>`
                     placements (or generates --sinks of them on a --span
                     die), builds a recursive-bipartition topology with
                     buffer sites every --pitch um (0 = merge taps only),
                     and solves skew-aware: skew is tracked through the
                     candidate recursion and bounded by --max-skew; exits 2
                     if no candidate meets the bound. --inverters routes
                     buffering through the polarity DP instead (all sinks
                     kept positive) and measures skew post hoc. The answer
                     must measure the slack and skew it predicted (exit 17
                     otherwise); --no-verify skips that check.)
  fastbuf global    --lib FILE [--nets N] [--pool N] [--sites-per-net N] [--seed S]
                    [--cap N] [--capacity FILE] [--max-iters N] [--workers N]
                    [--step-ps PS] [--growth F] [--scratch] [--algo A] [--model M]
                    [--history] [--per-site] [--json FILE]
                    (design-level resource-constrained buffering: a seeded
                     fleet of nets contends for a shared pool of physical
                     buffer sites, and a Lagrangian pricing loop re-solves
                     each net optimally against per-site prices until no
                     site exceeds its capacity. --capacity overrides the
                     uniform --cap (default 1) with `site <id> <capacity>`
                     lines; --scratch disables the warm per-net caches;
                     exits 2 if the --max-iters cap is hit infeasible.)
  fastbuf serve     (--stdio | --port N) [--host H] [--workers N]
                    [--max-designs N] [--max-inflight N] [--deadline-ms MS]
                    [--model M] [--preload ID=NET,LIB]
                    (resident solve server speaking the newline-delimited
                     JSON v1 envelope of docs/PROTOCOL.md over TCP or
                     stdin/stdout; keeps warm per-design sessions and ECO
                     caches, LRU-evicted beyond --max-designs.)

exit codes:
  0 success | 2 usage, validation, or failed --check | 3 I/O
  solver errors map one variant to one code:
  10 no-scenarios | 11 duplicate-scenario | 12 invalid-derate
  13 invalid-slew-limit | 14 unsupported | 15 cost | 16 polarity
  17 verify | 18 scenario-parse | 19 unknown-model | 20 edit
  21 no-samples | 22 invalid-quantile | 23 variation-parse
  24 invalid-variation | 25 invalid-skew-bound";

/// A CLI failure: what to print on stderr and the process exit code.
///
/// Usage and validation errors exit 2, I/O failures exit 3, and typed
/// solver errors carry the distinct per-variant codes of
/// [`SolveError::exit_code`] (10–25) — the same mapping `fastbuf --help`
/// documents and the server reports as kebab-case `error.code` strings.
#[derive(Debug)]
pub struct CliError {
    /// Process exit code (never 0).
    pub code: u8,
    /// Message for stderr (printed as `error: {message}`).
    pub message: String,
}

impl CliError {
    /// Whether the message mentions `needle` (assertion convenience).
    #[cfg(test)]
    pub fn contains(&self, needle: &str) -> bool {
        self.message.contains(needle)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { code: 2, message }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError {
            code: 2,
            message: message.to_owned(),
        }
    }
}

impl From<SolveError> for CliError {
    fn from(e: SolveError) -> Self {
        CliError {
            code: e.exit_code(),
            message: e.to_string(),
        }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        io_error(format!("cannot write output: {e}"))
    }
}

/// An I/O failure: exit code 3.
fn io_error(message: String) -> CliError {
    CliError { code: 3, message }
}

/// Dispatches `argv` to a subcommand.
pub fn run(argv: &[String]) -> Result<(), CliError> {
    match argv.first().map(String::as_str) {
        Some("gen") => match argv.get(1).map(String::as_str) {
            Some("net") => gen::gen_net(&argv[2..]),
            Some("lib") => gen::gen_lib(&argv[2..]),
            Some("suite") => gen::gen_suite(&argv[2..]),
            _ => Err(format!("`gen` needs `net`, `lib`, or `suite`\n{USAGE}").into()),
        },
        Some("info") => info::info(&argv[1..]),
        Some("solve") => solve::solve(&argv[1..]),
        Some("batch") => batch::batch(&argv[1..]),
        Some("eco") => eco::eco(&argv[1..]),
        Some("frontier") => frontier::frontier(&argv[1..]),
        Some("cts") => cts::cts(&argv[1..]),
        Some("global") => global::global(&argv[1..]),
        Some("serve") => serve::serve(&argv[1..]),
        Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}").into()),
    }
}

fn emit(flags: &Flags, content: &str) -> Result<(), CliError> {
    match flags.value("o") {
        None => {
            print!("{content}");
            Ok(())
        }
        Some(path) => {
            fs::write(path, content).map_err(|e| io_error(format!("cannot write `{path}`: {e}")))
        }
    }
}

/// Writes a `--json` report to `path` (`-` = stdout).
fn write_json(path: &str, json: &str) -> Result<(), CliError> {
    if path == "-" {
        print!("{json}");
    } else {
        fs::write(path, json).map_err(|e| io_error(format!("cannot write `{path}`: {e}")))?;
        println!("json report written to {path}");
    }
    Ok(())
}

fn load_net(flags: &Flags) -> Result<RoutingTree, CliError> {
    let path = flags.required("net")?;
    let text =
        fs::read_to_string(path).map_err(|e| io_error(format!("cannot read `{path}`: {e}")))?;
    netio::parse(&text).map_err(|e| format!("{path}: {e}").into())
}

/// Parses `--model` into a delay model (default Elmore) through the one
/// name lookup: an unknown name is [`SolveError::UnknownModel`] (exit 19),
/// as it is on a scenario line or a server frame.
fn load_model(flags: &Flags) -> Result<DelayModel, CliError> {
    Ok(flags
        .value("model")
        .map(parse_model)
        .transpose()?
        .unwrap_or_default())
}

/// The corner `--algo`, `--model` and `--slew-limit` describe, named
/// `"default"`: the algorithm (default Li–Shi), the delay model (default
/// Elmore) and the optional slew limit in picoseconds. `solve`, `batch`
/// and `eco` all solve through it.
fn flag_scenario(flags: &Flags) -> Result<Scenario, CliError> {
    let algorithm: Algorithm = flags.value("algo").unwrap_or("lishi").parse()?;
    let mut scenario = Scenario::default()
        .algorithm(algorithm)
        .delay_model(load_model(flags)?);
    if let Some(v) = flags.value("slew-limit") {
        let ps: f64 = v
            .parse()
            .map_err(|_| format!("flag `--slew-limit`: cannot parse `{v}`"))?;
        if !ps.is_finite() || ps <= 0.0 {
            return Err("--slew-limit must be a positive number of picoseconds".into());
        }
        scenario = scenario.slew_limit(Seconds::from_pico(ps));
    }
    Ok(scenario)
}

fn load_lib(flags: &Flags) -> Result<BufferLibrary, CliError> {
    let path = flags.required("lib")?;
    let text =
        fs::read_to_string(path).map_err(|e| io_error(format!("cannot read `{path}`: {e}")))?;
    BufferLibrary::from_text(&text).map_err(|e| format!("{path}: {e}").into())
}
