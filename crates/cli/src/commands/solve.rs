//! `fastbuf solve`: single-net solving — plain, multi-corner scenario
//! files, and Monte-Carlo yield sweeps.

use std::fs;

use fastbuf_api::wire::{self, Json};
use fastbuf_api::{scenario_list, NetOutcome, Objective, Scenario, Session, SolveError};
use fastbuf_rctree::{elmore, RoutingTree};

use super::{flag_scenario, io_error, load_lib, load_net, write_json, CliError};
use crate::args::Flags;

pub(super) fn solve(argv: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        argv,
        &[
            "net",
            "lib",
            "algo",
            "slew-limit",
            "model",
            "scenarios",
            "json",
            "variation",
            "samples",
            "quantile",
        ],
        &["placements", "stats", "no-verify"],
    )?;
    let net_path = flags.required("net")?.to_owned();
    let tree = load_net(&flags)?;
    let lib = load_lib(&flags)?;
    let flagged = flag_scenario(&flags)?;
    let model = flagged.delay_model.unwrap_or_default();

    // Everything below goes through the unified request layer: one
    // session, one request, one scenario per corner.
    let session = Session::new(lib);
    let lib = session.library();

    // The shared scenario-list builder (`api::scenario_list`), as the
    // server's frames use it: the corner file's lines with --algo and
    // --model as defaults for lines without their own, or the flags'
    // corner alone.
    let scenarios = match flags.value("scenarios") {
        None => scenario_list(None, flagged)?,
        Some(path) => {
            if flagged.slew_limit.is_some() {
                return Err(
                    "--slew-limit conflicts with --scenarios; put `slew-limit-ps=` on the \
                     scenario lines instead"
                        .into(),
                );
            }
            let text = fs::read_to_string(path)
                .map_err(|e| io_error(format!("cannot read `{path}`: {e}")))?;
            scenario_list(Some(&text), flagged).map_err(|e| CliError {
                code: e.exit_code(),
                message: format!("{path}: {e}"),
            })?
        }
    };
    // Corner files get named, table-style output and `"scenario"` keys in
    // JSON — even when the file happens to contain a single corner, so
    // downstream tooling keyed on scenario names never breaks. (This also
    // keeps the anonymous branch's improvement-vs-unbuffered print sound:
    // the flags' scenario always carries --model and derate 1.0.)
    let named = flags.value("scenarios").is_some();

    if flags.value("variation").is_some() {
        return solve_yield(&flags, &tree, &session, scenarios, named);
    }
    for conflicting in ["samples", "quantile"] {
        if flags.value(conflicting).is_some() {
            return Err(format!("--{conflicting} needs --variation").into());
        }
    }

    let outcome = session.request(&tree).scenarios(scenarios).solve()?;

    // Each corner's answer is measured once, under its own model and
    // derate, when something reads the measurement: the verify check
    // (slack, slew limit and all), a slew line to print, or a JSON record
    // to write.
    let verify = !flags.switch("no-verify");
    let want_json = flags.value("json").is_some();
    let nets = outcome
        .scenarios
        .iter()
        .map(|corner| {
            if !(verify || want_json || corner.scenario.slew_limit.is_some()) {
                return Ok(None);
            }
            let net = NetOutcome::measure(0, &tree, lib, corner)?;
            if verify {
                net.verify().map_err(|error| SolveError::Verify {
                    scenario: corner.scenario.name.clone(),
                    error,
                })?;
            }
            Ok(Some(net))
        })
        .collect::<Result<Vec<_>, SolveError>>()?;
    // The nominal unbuffered slack: the one flag-built corner's baseline
    // when it was measured (same tree, model and derate), else its own
    // evaluation.
    let unbuffered = match nets.first() {
        Some(Some(net)) if !named => net.slack_before,
        _ => {
            elmore::evaluate_with(&tree, lib, &[], model, 1.0)
                .map_err(|e| e.to_string())?
                .slack
        }
    };

    println!("unbuffered slack: {unbuffered}");
    let mut records = Vec::new();
    for (corner, net) in outcome.scenarios.iter().zip(&nets) {
        let solution = corner
            .solution()
            .expect("solve command always asks for max slack");
        let scenario = &corner.scenario;
        let measured_slew = net.as_ref().map(|n| n.max_slew);
        if named {
            println!(
                "scenario {:<12} algo {:<16} model {:<13} derate {:<5} slack {}  buffers {}{}",
                scenario.name,
                corner.algorithm,
                corner.model.name(),
                scenario.rat_derate,
                solution.slack,
                solution.placements.len(),
                if solution.slew_ok {
                    ""
                } else {
                    "  [SLEW INFEASIBLE]"
                },
            );
        } else {
            println!("algorithm:        {}", corner.algorithm);
            println!("delay model:      {}", corner.model.name());
            println!(
                "buffered slack:   {}  (improvement {})",
                solution.slack,
                solution.slack - unbuffered
            );
            println!(
                "buffers inserted: {}  (total cost {:.0})",
                solution.placements.len(),
                solution.total_cost(lib)
            );
            if let (Some(limit), Some(measured)) = (scenario.slew_limit, measured_slew) {
                println!(
                    "slew:             worst {} against limit {}{}",
                    measured,
                    limit,
                    if solution.slew_ok {
                        ""
                    } else {
                        "  [INFEASIBLE: best effort]"
                    }
                );
            }
            if verify {
                println!("verified:         forward evaluation matches each corner");
            }
        }
        if flags.switch("placements") {
            for p in &solution.placements {
                println!("  {} {}", p.node, lib.get(p.buffer).name());
            }
        }
        if flags.switch("stats") {
            println!("stats: {}", solution.stats);
        }
        if let (true, Some(net)) = (want_json, net) {
            // `slack_before` was measured under *this corner's* model and
            // derate, so `slack_after − slack_before` is the buffering
            // improvement in every corner, never a model/derate artifact.
            let scenario = named.then_some(scenario.name.as_str());
            records.push(net.to_value(&net_path, scenario, flags.switch("placements")));
        }
    }
    if named {
        if let Some(worst) = outcome.worst_slack() {
            println!("worst corner slack: {worst}");
        }
    }
    if let Some(path) = flags.value("json") {
        write_json(path, &single_net_report(records))?;
    }
    Ok(())
}

/// `fastbuf solve --variation FILE [--samples N] [--quantile Q]`: the
/// Monte-Carlo yield sweep. Each corner's samples are solved through
/// per-worker warm subtree caches (the same family-cache machinery the
/// differential harness certifies bit-identical to scratch solves), and
/// the slack distribution is reported instead of a single slack.
fn solve_yield(
    flags: &Flags,
    tree: &RoutingTree,
    session: &Session,
    scenarios: Vec<Scenario>,
    named: bool,
) -> Result<(), CliError> {
    if flags.switch("placements") {
        return Err(
            "--placements is not available with --variation (yield sweeps \
                    report slack statistics, not placements)"
                .into(),
        );
    }
    let vpath = flags.value("variation").expect("checked by the caller");
    let text =
        fs::read_to_string(vpath).map_err(|e| io_error(format!("cannot read `{vpath}`: {e}")))?;
    let spec = fastbuf_api::parse_variation_spec(&text).map_err(|e| CliError {
        code: e.exit_code(),
        message: format!("{vpath}: {e}"),
    })?;
    let samples: usize = flags.parsed_or("samples", 64)?;
    let quantile: f64 = flags.parsed_or("quantile", 0.5)?;

    let outcome = session
        .request(tree)
        .objective(Objective::YieldTarget { samples, quantile })
        .variation(spec)
        .scenarios(scenarios)
        .solve()?;

    let want_json = flags.value("json").is_some();
    let mut records = Vec::new();
    for corner in &outcome.scenarios {
        let v = corner
            .variation()
            .expect("yield objective produces variation outcomes");
        let s = &v.summary;
        let prefix = if named {
            format!("scenario {:<12} ", corner.scenario.name)
        } else {
            String::new()
        };
        println!(
            "{prefix}samples {:<5} yield {:>6.1}%  slack q{:.2} {}  min {}  mean {}  max {}",
            s.samples,
            s.yield_fraction * 100.0,
            s.quantile,
            s.quantile_slack,
            s.min_slack,
            s.mean_slack,
            s.max_slack,
        );
        if flags.switch("stats") {
            let total = s.nodes_recomputed + s.nodes_reused;
            println!(
                "{prefix}cache: {} subtrees recomputed, {} reused ({:.1}% reuse)",
                s.nodes_recomputed,
                s.nodes_reused,
                if total > 0 {
                    100.0 * s.nodes_reused as f64 / total as f64
                } else {
                    0.0
                },
            );
        }
        if want_json {
            records.push(wire::variation_record(corner, named, true)?);
        }
    }
    if let Some(path) = flags.value("json") {
        write_json(path, &single_net_report(records))?;
    }
    Ok(())
}

/// The `solve --json` report: one net, one record per scenario.
fn single_net_report(records: Vec<Json>) -> String {
    Json::obj([
        ("nets", 1usize.into()),
        ("scenarios", records.len().into()),
        ("results", records.into()),
    ])
    .to_pretty()
}
