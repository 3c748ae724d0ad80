//! `fastbuf eco`: incremental re-solving of an edit script through the
//! session's ECO path (`Session::eco`), every answer checked by the one
//! per-net check.

use std::fs;
use std::io::Write;
use std::time::{Duration, Instant};

use fastbuf_api::wire::Json;
use fastbuf_api::{Outcome, Session, SolveError};
use fastbuf_core::Solution;
use fastbuf_incremental::{parse_edits, swapped_library, write_edits, Edit, EditScriptSpec};

use super::{flag_scenario, io_error, load_lib, load_net, write_json, CliError, USAGE};
use crate::args::Flags;

pub(super) fn eco(argv: &[String]) -> Result<(), CliError> {
    eco_to(argv, &mut std::io::stdout().lock())
}

/// `fastbuf eco`, writing its report lines to `out`.
pub(super) fn eco_to(argv: &[String], out: &mut impl Write) -> Result<(), CliError> {
    let flags = Flags::parse(
        argv,
        &[
            "net",
            "lib",
            "edits",
            "random",
            "locality",
            "seed",
            "algo",
            "model",
            "slew-limit",
            "json",
            "emit-edits",
        ],
        &["check", "per-edit"],
    )?;
    let tree = load_net(&flags)?;
    let lib = load_lib(&flags)?;
    let scenario = flag_scenario(&flags)?;

    let edits = match (flags.value("edits"), flags.value("random")) {
        (Some(_), Some(_)) => return Err("give either --edits or --random, not both".into()),
        (Some(path), None) => {
            let text = fs::read_to_string(path)
                .map_err(|e| io_error(format!("cannot read `{path}`: {e}")))?;
            parse_edits(&text).map_err(|e| format!("{path}: {e}"))?
        }
        (None, Some(n)) => {
            let n: usize = n.parse().map_err(|_| "bad --random".to_string())?;
            if n == 0 {
                return Err("--random must be at least 1".into());
            }
            let locality: f64 = flags.parsed_or("locality", 0.1f64)?;
            if !(locality > 0.0 && locality <= 1.0) {
                return Err("--locality must be in (0, 1]".into());
            }
            EditScriptSpec {
                edits: n,
                locality,
                seed: flags.parsed_or("seed", 1u64)?,
                swap_library_every: 0,
            }
            .generate(&tree)
        }
        (None, None) => return Err(format!("`eco` needs --edits or --random\n{USAGE}").into()),
    };
    if let Some(path) = flags.value("emit-edits") {
        fs::write(path, write_edits(&edits))
            .map_err(|e| io_error(format!("cannot write `{path}`: {e}")))?;
    }

    let check = flags.switch("check");
    let mut session = Session::new(lib);
    let mut eco = session.eco(&tree, vec![scenario.clone()])?;

    // Baseline solve populates the cache.
    let baseline = eco.solve()?;
    let baseline = solution(&baseline);
    writeln!(
        out,
        "baseline: slack {} with {} buffers ({} nodes cached)",
        baseline.slack,
        baseline.placements.len(),
        eco.cache_report()[0].1
    )?;

    let mut records = Vec::new();
    let mut total_recomputed = 0u64;
    let mut total_reused = 0u64;
    let mut incremental_time = Duration::ZERO;
    let mut fresh_time = Duration::ZERO;
    let want_json = flags.value("json").is_some();
    for (k, edit) in edits.iter().enumerate() {
        let failed = |e: SolveError| CliError {
            code: e.exit_code(),
            message: format!("edit {} (`{edit}`): {e}", k + 1),
        };
        if let Edit::SwapLibrary { size, jitter } = *edit {
            // The session's library is immutable, and a swap flushes every
            // cache anyway: restart on the swapped library.
            let library =
                swapped_library(size, jitter).map_err(|e| failed(SolveError::Edit(e.into())))?;
            session = Session::new(library);
            eco = session.eco(eco.tree(), vec![scenario.clone()])?;
        } else {
            eco.apply(edit).map_err(failed)?;
        }
        let t0 = Instant::now();
        let outcome = eco.solve()?;
        incremental_time += t0.elapsed();
        let sol = solution(&outcome);
        total_recomputed += sol.stats.nodes_recomputed;
        total_reused += sol.stats.nodes_reused;
        if check {
            outcome
                .verify(eco.tree(), session.library())
                .map_err(failed)?;
            let t0 = Instant::now();
            let fresh = session
                .request(eco.tree())
                .scenario(scenario.clone())
                .solve()?;
            fresh_time += t0.elapsed();
            let fresh = solution(&fresh);
            if sol.slack.value().to_bits() != fresh.slack.value().to_bits()
                || sol.placements != fresh.placements
                || sol.slew_ok != fresh.slew_ok
            {
                return Err(format!(
                    "check failed: edit {} (`{edit}`) diverges from a fresh request: \
                     incremental slack {} vs fresh {}",
                    k + 1,
                    sol.slack,
                    fresh.slack
                )
                .into());
            }
        }
        if flags.switch("per-edit") {
            writeln!(
                out,
                "  edit {:>4} {:<24} slack {}  buffers {:>3}  recomputed {:>5} reused {:>5}{}",
                k + 1,
                edit.to_string(),
                sol.slack,
                sol.placements.len(),
                sol.stats.nodes_recomputed,
                sol.stats.nodes_reused,
                if sol.slew_ok {
                    ""
                } else {
                    "  [SLEW INFEASIBLE]"
                },
            )?;
        }
        if want_json {
            records.push(Json::obj([
                ("edit", edit.to_string().into()),
                ("slack_ps", sol.slack.picos().into()),
                ("buffers", sol.placements.len().into()),
                ("nodes_recomputed", sol.stats.nodes_recomputed.into()),
                ("nodes_reused", sol.stats.nodes_reused.into()),
                ("slew_ok", sol.slew_ok.into()),
            ]));
        }
    }

    let final_outcome = eco.solve()?;
    final_outcome.verify(eco.tree(), session.library())?;
    let final_sol = solution(&final_outcome);
    let nodes = eco.tree().node_count() as u64;
    let touched = total_recomputed + total_reused;
    writeln!(
        out,
        "eco: {} edits on {} nodes | recomputed {} of {} node-solves ({:.1}% reused) | \
         incremental wall {:?}",
        edits.len(),
        nodes,
        total_recomputed,
        touched,
        100.0 * total_reused as f64 / touched.max(1) as f64,
        incremental_time,
    )?;
    if check {
        writeln!(
            out,
            "check: all {} incremental results verified and bit-identical to fresh \
             requests (request wall {:?})",
            edits.len(),
            fresh_time
        )?;
    }
    writeln!(
        out,
        "final: slack {} with {} buffers{}",
        final_sol.slack,
        final_sol.placements.len(),
        if final_sol.slew_ok {
            ""
        } else {
            "  [SLEW INFEASIBLE]"
        }
    )?;
    writeln!(out, "verified: forward evaluation matches the final answer")?;

    if let Some(path) = flags.value("json") {
        let report = Json::obj([
            ("edits", edits.len().into()),
            ("nodes", nodes.into()),
            ("total_recomputed", total_recomputed.into()),
            ("total_reused", total_reused.into()),
            ("final_slack_ps", final_sol.slack.picos().into()),
            ("final_buffers", final_sol.placements.len().into()),
            ("checked", check.into()),
            ("results", records.into()),
        ]);
        write_json(path, &report.to_pretty())?;
    }
    Ok(())
}

/// The one corner's solution of an ECO or request outcome.
fn solution(outcome: &Outcome) -> &Solution {
    outcome.solution().expect("eco solves one max-slack corner")
}
