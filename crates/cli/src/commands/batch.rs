//! `fastbuf batch`: solve a whole directory or manifest of nets.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use fastbuf_api::SolveError;
use fastbuf_batch::BatchSolver;
use fastbuf_buflib::units::Seconds;
use fastbuf_core::{Algorithm, Solver};
use fastbuf_rctree::{io as netio, RoutingTree};

use super::{io_error, load_lib, load_model, load_slew_limit, write_json, CliError, USAGE};
use crate::args::Flags;

/// Loads the nets of a `batch` run: every `*.net` in `--dir` (sorted by
/// file name), or the paths listed in `--manifest` (one per line, `#`
/// comments allowed, relative to the manifest's directory).
fn load_batch_nets(flags: &Flags) -> Result<(Vec<String>, Vec<RoutingTree>), CliError> {
    let paths: Vec<PathBuf> = match (flags.value("dir"), flags.value("manifest")) {
        (Some(_), Some(_)) => return Err("give either --dir or --manifest, not both".into()),
        (Some(dir), None) => {
            let mut v: Vec<PathBuf> = fs::read_dir(dir)
                .map_err(|e| io_error(format!("cannot read `{dir}`: {e}")))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|p| p.extension().is_some_and(|ext| ext == "net"))
                .collect();
            v.sort();
            v
        }
        (None, Some(manifest)) => {
            let text = fs::read_to_string(manifest)
                .map_err(|e| io_error(format!("cannot read `{manifest}`: {e}")))?;
            let base = Path::new(manifest).parent().unwrap_or(Path::new("."));
            text.lines()
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .map(|l| base.join(l))
                .collect()
        }
        (None, None) => return Err(format!("`batch` needs --dir or --manifest\n{USAGE}").into()),
    };
    if paths.is_empty() {
        return Err("no .net files found".into());
    }
    let mut names = Vec::with_capacity(paths.len());
    let mut nets = Vec::with_capacity(paths.len());
    for path in paths {
        let text = fs::read_to_string(&path)
            .map_err(|e| io_error(format!("cannot read `{}`: {e}", path.display())))?;
        nets.push(netio::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?);
        names.push(path.display().to_string());
    }
    Ok((names, nets))
}

pub(super) fn batch(argv: &[String]) -> Result<(), CliError> {
    let mut value_flags = vec![
        "dir",
        "manifest",
        "lib",
        "algo",
        "workers",
        "json",
        "slew-limit",
        "model",
    ];
    // `--check-fault N` is a testing hook: it perturbs net N's sequential
    // re-solve so the `--check` failure path can be exercised end to end.
    // Test builds only — the production binary rejects it as unknown.
    if cfg!(test) {
        value_flags.push("check-fault");
    }
    let flags = Flags::parse(
        argv,
        &value_flags,
        &["placements", "per-net", "check", "no-verify"],
    )?;
    let (names, nets) = load_batch_nets(&flags)?;
    let lib = load_lib(&flags)?;
    let algo: Algorithm = flags.value("algo").unwrap_or("lishi").parse()?;
    let model = load_model(&flags)?;
    let slew_limit = load_slew_limit(&flags)?;
    let check_fault: Option<usize> = match flags.value("check-fault") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| "bad --check-fault".to_string())?),
    };
    let mut solver = BatchSolver::new(&nets, &lib)
        .algorithm(algo)
        .delay_model(Arc::clone(&model));
    if let Some(limit) = slew_limit {
        solver = solver.slew_limit(limit);
    }
    if let Some(w) = flags.value("workers") {
        let w: usize = w.parse().map_err(|_| "bad --workers".to_string())?;
        if w == 0 {
            return Err("--workers must be at least 1".into());
        }
        solver = solver.workers(w);
    }
    let report = solver.solve();

    if !flags.switch("no-verify") {
        // Each outcome's own forward measurement, taken under the delay
        // model the batch solved with, through the one per-net check.
        for o in &report.outcomes {
            o.verify().map_err(|error| {
                let e = SolveError::Verify {
                    scenario: "batch".into(),
                    error,
                };
                CliError {
                    code: e.exit_code(),
                    message: format!("{}: {e}", names[o.index]),
                }
            })?;
        }
    }
    if flags.switch("check") {
        // Re-solve sequentially and demand bit-identical results.
        for o in &report.outcomes {
            let mut seq = Solver::new(&nets[o.index], &lib)
                .algorithm(algo)
                .delay_model(Arc::clone(&model));
            if let Some(limit) = slew_limit {
                seq = seq.slew_limit(limit);
            }
            let mut solo = seq.solve();
            if check_fault == Some(o.index) {
                solo.slack += Seconds::from_pico(1.0);
            }
            if solo.slack != o.slack || solo.placements != o.placements {
                return Err(format!(
                    "check failed: net {} (`{}`) diverges from its sequential \
                     solve: batch slack {} vs sequential {}",
                    o.index, names[o.index], o.slack, solo.slack
                )
                .into());
            }
        }
        println!(
            "check: all {} batch results identical to sequential solves",
            report.outcomes.len()
        );
    }

    if flags.switch("per-net") {
        for o in &report.outcomes {
            println!(
                "  {:<40} sinks {:>5} sites {:>6} slack {} -> {} buffers {:>4} slew {}{}",
                names[o.index],
                o.sinks,
                o.sites,
                o.slack_before,
                o.slack,
                o.placements.len(),
                o.max_slew,
                if o.slew_ok { "" } else { " [OVER LIMIT]" },
            );
        }
    }
    println!("{report}");
    if let Some(path) = flags.value("json") {
        write_json(
            path,
            &report.to_json(Some(&names), flags.switch("placements")),
        )?;
    }
    Ok(())
}
