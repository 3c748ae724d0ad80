//! `fastbuf global`: design-level resource-constrained buffering over a
//! generated shared-site fleet (the `fastbuf-global` pricing loop).

use std::fs;

use fastbuf_buflib::units::Seconds;
use fastbuf_core::Algorithm;
use fastbuf_global::{GlobalNet, GlobalOptions, GlobalSolver, SiteCapacityMap};
use fastbuf_netgen::{parse_capacity, SharedSuiteSpec};

use super::{io_error, load_lib, load_model, write_json, CliError};
use crate::args::Flags;

pub(super) fn global(argv: &[String]) -> Result<(), CliError> {
    let flags = Flags::parse(
        argv,
        &[
            "lib",
            "nets",
            "pool",
            "sites-per-net",
            "seed",
            "cap",
            "capacity",
            "max-iters",
            "workers",
            "step-ps",
            "growth",
            "algo",
            "model",
            "json",
        ],
        &["scratch", "history", "per-site"],
    )?;
    let lib = load_lib(&flags)?;

    // The fleet: seeded 2-pin lines contending for a shared site pool.
    let spec = SharedSuiteSpec {
        nets: flags.parsed_or("nets", 24usize)?,
        pool_sites: flags.parsed_or("pool", 48u32)?,
        sites_per_net: flags.parsed_or("sites-per-net", 10usize)?,
        seed: flags.parsed_or("seed", 1u64)?,
        ..SharedSuiteSpec::default()
    };
    if spec.nets == 0 || spec.pool_sites == 0 || spec.sites_per_net == 0 {
        return Err("--nets, --pool, and --sites-per-net must all be at least 1".into());
    }
    let fleet: Vec<GlobalNet> = spec
        .build()
        .into_iter()
        .enumerate()
        .map(|(i, net)| GlobalNet::new(format!("shared/{i:04}"), net.tree, net.site_of))
        .collect();

    // Capacities: uniform `--cap` (default 1), with optional per-site
    // overrides from a `site <id> <capacity>` file.
    let default_cap: u32 = flags.parsed_or("cap", 1u32)?;
    let capacity = match flags.value("capacity") {
        None => SiteCapacityMap::uniform(spec.pool_sites, default_cap),
        Some(path) => {
            let text = fs::read_to_string(path)
                .map_err(|e| io_error(format!("cannot read `{path}`: {e}")))?;
            let pairs = parse_capacity(&text).map_err(|e| format!("{path}: {e}"))?;
            SiteCapacityMap::from_pairs(spec.pool_sites, default_cap, &pairs)
                .map_err(|e| format!("{path}: {e}"))?
        }
    };

    let mut options = GlobalOptions {
        max_iters: flags.parsed_or("max-iters", 64usize)?,
        workers: flags.parsed_or("workers", 1usize)?,
        warm: !flags.switch("scratch"),
        ..GlobalOptions::default()
    };
    if let Some(ps) = flags.value("step-ps") {
        let ps: f64 = ps.parse().map_err(|_| "bad --step-ps".to_string())?;
        if !(ps.is_finite() && ps > 0.0) {
            return Err("--step-ps must be a positive number of picoseconds".into());
        }
        options.step0 = Seconds::from_pico(ps);
    }
    if let Some(g) = flags.value("growth") {
        options.growth = g.parse().map_err(|_| "bad --growth".to_string())?;
    }
    if options.workers == 0 {
        return Err("--workers must be at least 1".into());
    }
    let algo: Algorithm = flags.value("algo").unwrap_or("lishi").parse()?;
    options.solver.algorithm = algo;
    options.solver.delay_model = load_model(&flags)?;

    let outcome = GlobalSolver::new(fleet, lib, capacity)
        .with_options(options)
        .solve()
        .map_err(|e| e.to_string())?;
    let report = &outcome.report;

    println!("{}", report.summary());
    if flags.switch("history") {
        println!("  iter  resolved  overused  overuse  max-price");
        for row in &report.history {
            println!(
                "  {:>4}  {:>8}  {:>8}  {:>7}  {}",
                row.iter, row.nets_resolved, row.sites_overused, row.total_overuse, row.max_price
            );
        }
    }
    if flags.switch("per-site") {
        println!("  site  usage  capacity  price");
        for u in &report.utilization {
            println!(
                "  {:>4}  {:>5}  {:>8}  {}",
                u.site, u.usage, u.capacity, u.price
            );
        }
    }
    if let Some(path) = flags.value("json") {
        write_json(path, &report.to_json())?;
    }
    if !report.feasible {
        return Err(format!(
            "did not reach feasibility within {} iterations (raise --max-iters \
             or --step-ps, or relax capacities)",
            report.iterations
        )
        .into());
    }
    Ok(())
}
