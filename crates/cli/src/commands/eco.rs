//! `fastbuf eco`: incremental re-solving of an edit script through the
//! subtree cache.

use std::fs;

use fastbuf_api::wire::Json;
use fastbuf_api::SolveError;
use fastbuf_core::Algorithm;

use super::{
    io_error, load_lib, load_model, load_net, load_slew_limit, write_json, CliError, USAGE,
};
use crate::args::Flags;

pub(super) fn eco(argv: &[String]) -> Result<(), CliError> {
    use fastbuf_incremental::{parse_edits, write_edits, EditScriptSpec, IncrementalSolver};

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
    let algo: Algorithm = flags.value("algo").unwrap_or("lishi").parse()?;
    let model = load_model(&flags)?;
    let slew_limit = load_slew_limit(&flags)?;

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

    let mut options = fastbuf_core::SolverOptions::default();
    options.algorithm = algo;
    options.delay_model = model;
    options.slew_limit = slew_limit;
    let mut solver = IncrementalSolver::new(tree, lib).with_options(options);

    // Baseline solve populates the cache.
    let baseline = solver.solve();
    println!(
        "baseline: slack {} with {} buffers ({} nodes cached)",
        baseline.slack,
        baseline.placements.len(),
        solver.cache().cached_nodes()
    );

    let mut records = Vec::new();
    let mut total_recomputed = 0u64;
    let mut total_reused = 0u64;
    let mut incremental_time = std::time::Duration::ZERO;
    let mut scratch_time = std::time::Duration::ZERO;
    let want_json = flags.value("json").is_some();
    for (k, edit) in edits.iter().enumerate() {
        solver.apply(edit).map_err(|e| {
            let message = format!("edit {} (`{edit}`): {e}", k + 1);
            CliError {
                code: SolveError::Edit(e).exit_code(),
                message,
            }
        })?;
        let t0 = std::time::Instant::now();
        let sol = solver.solve();
        incremental_time += t0.elapsed();
        total_recomputed += sol.stats.nodes_recomputed;
        total_reused += sol.stats.nodes_reused;
        if flags.switch("check") {
            let t0 = std::time::Instant::now();
            let scratch = solver.solve_scratch();
            scratch_time += t0.elapsed();
            if sol.slack != scratch.slack
                || sol.placements != scratch.placements
                || sol.slew_ok != scratch.slew_ok
            {
                return Err(format!(
                    "check failed: edit {} (`{edit}`) diverges from scratch: \
                     incremental slack {} vs scratch {}",
                    k + 1,
                    sol.slack,
                    scratch.slack
                )
                .into());
            }
        }
        if flags.switch("per-edit") {
            println!(
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
            );
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

    let final_sol = solver.solve();
    let nodes = solver.tree().node_count() as u64;
    let touched = total_recomputed + total_reused;
    println!(
        "eco: {} edits on {} nodes | recomputed {} of {} node-solves ({:.1}% reused) | \
         incremental wall {:?}",
        edits.len(),
        nodes,
        total_recomputed,
        touched,
        100.0 * total_reused as f64 / touched.max(1) as f64,
        incremental_time,
    );
    if flags.switch("check") {
        println!(
            "check: all {} incremental results bit-identical to scratch (scratch wall {:?})",
            edits.len(),
            scratch_time
        );
    }
    println!(
        "final: slack {} with {} buffers{}",
        final_sol.slack,
        final_sol.placements.len(),
        if final_sol.slew_ok {
            ""
        } else {
            "  [SLEW INFEASIBLE]"
        }
    );

    if let Some(path) = flags.value("json") {
        let report = Json::obj([
            ("edits", edits.len().into()),
            ("nodes", nodes.into()),
            ("total_recomputed", total_recomputed.into()),
            ("total_reused", total_reused.into()),
            ("final_slack_ps", final_sol.slack.picos().into()),
            ("final_buffers", final_sol.placements.len().into()),
            ("checked", flags.switch("check").into()),
            ("results", records.into()),
        ]);
        write_json(path, &report.to_pretty())?;
    }
    Ok(())
}
