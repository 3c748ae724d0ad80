//! `fastbuf cts`: the clock-tree-synthesis pipeline — sink placements in
//! (from a file or the seeded generator), recursive-bipartition topology,
//! skew-aware buffering, skew/latency report out.

use std::fs;

use fastbuf_api::{wire, NetOutcome, Objective, Outcome, Scenario, Session, SolveError};
use fastbuf_buflib::units::{Microns, Seconds};
use fastbuf_core::Algorithm;
use fastbuf_netgen::{
    build_topology, parse_placements, write_placements, CtsPlacementSpec, CtsTopologySpec,
};
use fastbuf_rctree::elmore;

use super::{io_error, load_lib, write_json, CliError};
use crate::args::Flags;

pub(super) fn cts(argv: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        argv,
        &[
            "placements",
            "sinks",
            "seed",
            "span",
            "lib",
            "pitch",
            "max-skew",
            "algo",
            "json",
            "emit-placements",
        ],
        &["inverters", "show-placements", "no-verify"],
    )?;
    let lib = load_lib(&flags)?;
    let algo: Algorithm = flags.value("algo").unwrap_or("lishi").parse()?;
    let max_skew = match flags.value("max-skew") {
        None => None,
        Some(v) => {
            let ps: f64 = v
                .parse()
                .map_err(|_| format!("flag `--max-skew`: cannot parse `{v}`"))?;
            if !ps.is_finite() || ps < 0.0 {
                return Err("--max-skew must be a non-negative number of picoseconds".into());
            }
            Some(Seconds::from_pico(ps))
        }
    };

    // Sink placements: a file, or the seeded generator.
    let (placements, net_name) = match flags.value("placements") {
        Some(path) => {
            for conflicting in ["sinks", "seed", "span"] {
                if flags.value(conflicting).is_some() {
                    return Err(format!("--{conflicting} conflicts with --placements").into());
                }
            }
            let text = fs::read_to_string(path)
                .map_err(|e| io_error(format!("cannot read `{path}`: {e}")))?;
            let placements = parse_placements(&text).map_err(|e| format!("{path}: {e}"))?;
            (placements, path.to_owned())
        }
        None => {
            let mut spec = CtsPlacementSpec {
                sinks: flags.parsed_or("sinks", 64usize)?,
                seed: flags.parsed_or("seed", 1u64)?,
                ..CtsPlacementSpec::default()
            };
            if spec.sinks == 0 {
                return Err("--sinks must be at least 1".into());
            }
            if let Some(v) = flags.value("span") {
                let um: f64 = v
                    .parse()
                    .map_err(|_| format!("flag `--span`: cannot parse `{v}`"))?;
                if !um.is_finite() || um <= 0.0 {
                    return Err("--span must be a positive number of microns".into());
                }
                spec.die = Microns::new(um);
            }
            let name = format!("cts-{}x{}", spec.sinks, spec.seed);
            (spec.generate(), name)
        }
    };
    if let Some(path) = flags.value("emit-placements") {
        fs::write(path, write_placements(&placements))
            .map_err(|e| io_error(format!("cannot write `{path}`: {e}")))?;
        println!("placements written to {path}");
    }

    // Topology: recursive bipartition, merge taps as buffer sites.
    let mut topo_spec = CtsTopologySpec::default();
    if let Some(v) = flags.value("pitch") {
        let um: f64 = v
            .parse()
            .map_err(|_| format!("flag `--pitch`: cannot parse `{v}`"))?;
        if um == 0.0 {
            topo_spec.site_pitch = None;
        } else {
            if !um.is_finite() || um < 0.0 {
                return Err("--pitch must be a non-negative number of microns (0 = off)".into());
            }
            topo_spec.site_pitch = Some(Microns::new(um));
        }
    }
    let topo = build_topology(&placements, &topo_spec).map_err(String::from)?;
    let tree = &topo.tree;
    println!(
        "{net_name}: {} sinks, {} candidate sites, topology depth {}",
        tree.sink_count(),
        tree.buffer_site_count(),
        tree.stats().max_depth
    );

    let inverters = flags.switch("inverters");
    if inverters && flags.value("json").is_some() {
        return Err("--json covers skew-target solves only; drop --inverters".into());
    }
    let session = Session::new(lib);
    // The inverter-aware path buffers through the polarity DP (every sink
    // positive, so inverters come in pairs).
    let objective = if inverters {
        Objective::PolarityAware {
            negated_sinks: Vec::new(),
        }
    } else {
        Objective::SkewTarget { max_skew }
    };
    let outcome = session
        .request(tree)
        .objective(objective)
        .scenario(Scenario::default().algorithm(algo))
        .solve()?;
    let verify = !flags.switch("no-verify");
    if inverters {
        if verify {
            outcome.verify(tree, session.library())?;
        }
        return cts_inverters(&flags, tree, &session, &outcome, max_skew);
    }
    let corner = &outcome.scenarios[0];
    let sol = corner.skew().expect("skew-target solves produce Skew");
    // One forward evaluation of the placements serves the check (slack,
    // slew and skew) and the JSON record.
    let net = (verify || flags.value("json").is_some())
        .then(|| NetOutcome::measure(0, tree, session.library(), corner))
        .transpose()?;
    if let Some(net) = net.as_ref().filter(|_| verify) {
        net.verify().map_err(|error| SolveError::Verify {
            scenario: corner.scenario.name.clone(),
            error,
        })?;
    }

    println!("slack:     {}", sol.slack);
    println!(
        "latency:   {} .. {} (insertion delay)",
        sol.latency_min, sol.latency_max
    );
    println!("skew:      {}", sol.skew);
    match max_skew {
        Some(bound) if sol.skew_ok => println!("skew met:  yes (bound {bound})"),
        Some(bound) => {
            println!("skew met:  NO (bound {bound}; narrowest-window fallback reported)")
        }
        None => {}
    }
    println!("buffers:   {}", sol.placements.len());
    if flags.switch("show-placements") {
        for p in &sol.placements {
            println!("  node {:>6}  buffer {}", p.node.index(), p.buffer.index());
        }
    }

    if let Some(path) = flags.value("json") {
        let record = wire::skew_record(
            &net_name,
            net.as_ref().expect("measured for --json"),
            corner,
            false,
            flags.switch("show-placements"),
            max_skew,
        )?;
        write_json(path, &format!("{record}\n"))?;
    }
    if max_skew.is_some() && !sol.skew_ok {
        return Err(CliError {
            code: 2,
            message: "no solution within the skew bound survived the search".into(),
        });
    }
    Ok(())
}

/// The inverter-aware report: the polarity DP carries no arrival windows,
/// so the skew of the solved tree is measured post hoc by the forward
/// evaluator.
fn cts_inverters(
    flags: &Flags,
    tree: &fastbuf_rctree::RoutingTree,
    session: &Session,
    outcome: &Outcome,
    max_skew: Option<Seconds>,
) -> Result<(), CliError> {
    let sol = outcome.scenarios[0]
        .polarity()
        .expect("polarity-aware solves produce Polarity");
    let pairs: Vec<_> = sol.placements.iter().map(|p| (p.node, p.buffer)).collect();
    let skew = elmore::evaluate(tree, session.library(), &pairs)
        .map_err(|e| e.to_string())?
        .skew(tree);

    println!("slack:     {}", sol.slack);
    println!("skew:      {skew} (measured post hoc; the polarity DP does not bound it)");
    println!(
        "repeaters: {} ({} inverters)",
        sol.placements.len(),
        sol.inverter_count
    );
    if flags.switch("show-placements") {
        for p in &sol.placements {
            println!("  node {:>6}  buffer {}", p.node.index(), p.buffer.index());
        }
    }
    if let Some(bound) = max_skew {
        if skew > bound {
            return Err(CliError {
                code: 2,
                message: format!("measured skew {skew} exceeds the bound {bound}"),
            });
        }
        println!("skew met:  yes (bound {bound})");
    }
    Ok(())
}
