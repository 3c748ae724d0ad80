//! Multi-corner throughput: corner-solves/sec of the `fastbuf-api`
//! request layer vs independent legacy solves.
//!
//! Solves reproducible heavy-tailed net suites (largest net 24, 96 and
//! 384 sinks by default, or the one `--max-sinks`) where every net is
//! asked the same question in 1, 2, and 4 timing corners (typical /
//! derated / slew-limited / scaled-model), three ways:
//!
//! * **request** — one multi-scenario `SolveRequest` per net; corners
//!   share the session's warm workspace pool, and fan out as far as
//!   `par::workers` gives their work (the api fan-out path);
//! * **flipped** — the same corners under the other decision: nets the
//!   rule keeps inline fan their corners out over one warm workspace
//!   each (up to the hardware thread count), and nets it fans out solve
//!   their corners inline, so each row shows what the grain saves or
//!   costs;
//! * **legacy** — one fresh `Solver::solve()` per corner (what callers
//!   wrote before the request layer existed; allocates per solve).
//!
//! Each suite is split into an `inline` and a `fanned` row by
//! `par::workers`. The arms run interleaved `--repeats` times; their
//! results are asserted identical per corner, then each arm's best and
//! median wall time and the request and flipped speedups over legacy are
//! printed and recorded in `BENCH_scenarios.json`.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin scenario_throughput --
//!       [--nets N] [--max-sinks M] [--seed S] [--repeats K] [--out FILE]
//!       [--quick]`

use fastbuf_api::wire::Json;
use fastbuf_api::{Scenario, Session};
use fastbuf_bench::{at_least, fixed, options, print_runs, time_arms, write_bench, Arm, Stopwatch};
use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{par, SolveWorkspace, Solver, SolverOptions};
use fastbuf_netgen::SuiteSpec;
use fastbuf_rctree::{DelayModel, RoutingTree};

/// The corner ladder: every prefix of this list is a scenario set.
fn corners(k: usize) -> Vec<Scenario> {
    let all = [
        Scenario::named("typical"),
        Scenario::named("slow").rat_derate(0.9),
        Scenario::named("signoff").slew_limit(Seconds::from_pico(300.0)),
        Scenario::named("optimistic").delay_model(DelayModel::SCALED_ELMORE),
    ];
    all[..k].to_vec()
}

fn main() {
    let (suite_nets, sizes, seed, repeats, out) = options(
        "scenario_throughput [--nets N] [--max-sinks M] [--seed S] [--repeats K] \
         [--out FILE] [--quick]",
        "nets max-sinks seed repeats out",
        "quick",
        |a| {
            // `--quick` is CI's smoke size: the real pipeline in seconds.
            let quick = a.switch("quick");
            let sizes = match a.value("max-sinks") {
                Some(_) => vec![at_least(a, "max-sinks", 0, 8)?],
                None if quick => vec![24],
                None => vec![24, 96, 384],
            };
            Ok((
                at_least(a, "nets", if quick { 10 } else { 60 }, 1)?,
                sizes,
                a.parsed_or("seed", 1)?,
                at_least(a, "repeats", if quick { 1 } else { 15 }, 1)?,
                a.parsed_or("out", "BENCH_scenarios.json".to_owned())?,
            ))
        },
    );
    let lib = BufferLibrary::paper_synthetic(16).expect("nonzero library");
    println!(
        "# scenario throughput: {suite_nets} nets x up to 4 corners, repeats {repeats}, \
         grain {} node x buffer types\n",
        par::GRAIN
    );

    let mut runs = Vec::new();
    for (max_sinks, k) in sizes.iter().flat_map(|&m| [(m, 1usize), (m, 2), (m, 4)]) {
        let scenarios = corners(k);
        let session = Session::new(lib.clone());
        // Each suite splits by the request's own decision (corners × nodes
        // × buffer types through `par::workers`), one row per side.
        let (fanned, inline): (Vec<RoutingTree>, Vec<RoutingTree>) = SuiteSpec {
            nets: suite_nets,
            max_sinks,
            seed,
            ..SuiteSpec::default()
        }
        .build()
        .into_iter()
        .partition(|t| par::workers(None, k, k * t.node_count() * lib.len()) > 1);
        for (side, nets) in [("inline", inline), ("fanned", fanned)] {
            if nets.is_empty() {
                continue;
            }
            let mut workspaces: Vec<SolveWorkspace> = (0..k.min(par::hardware_threads()))
                .map(|_| SolveWorkspace::new())
                .collect();
            let (mut request_slacks, mut flipped_slacks, mut legacy_slacks) =
                (Vec::new(), Vec::new(), Vec::new());
            let timed = time_arms(
                vec![
                    // Request arm: one multi-scenario request per net, warm
                    // workspaces from the session pool (corners may fan out
                    // over workers: wall time only).
                    Arm::wall_only(|w: &mut Stopwatch| {
                        request_slacks = w.time(|| {
                            let mut slacks = Vec::with_capacity(nets.len() * k);
                            for tree in &nets {
                                let outcome = session
                                    .request(tree)
                                    .scenarios(scenarios.clone())
                                    .solve()
                                    .expect("valid max-slack scenarios");
                                slacks.extend(
                                    outcome
                                        .scenarios
                                        .iter()
                                        .map(|s| s.solution().unwrap().slack),
                                );
                            }
                            slacks
                        });
                    }),
                    // Flipped arm: the other side of the grain. Inline nets
                    // fan their corners out over one warm workspace each
                    // (up to the hardware threads); fanned nets solve their
                    // corners inline through one warm workspace.
                    Arm::wall_only(|w: &mut Stopwatch| {
                        flipped_slacks = w.time(|| {
                            let mut slacks = Vec::with_capacity(nets.len() * k);
                            for tree in &nets {
                                if side == "fanned" {
                                    let outcome = session
                                        .request(tree)
                                        .scenarios(scenarios.clone())
                                        .solve_in(&mut workspaces[0])
                                        .expect("valid max-slack scenarios");
                                    slacks.extend(
                                        outcome
                                            .scenarios
                                            .iter()
                                            .map(|s| s.solution().unwrap().slack),
                                    );
                                } else {
                                    slacks.extend(par::map(k, &mut workspaces, |workspace, i| {
                                        let outcome = session
                                            .request(tree)
                                            .scenario(scenarios[i].clone())
                                            .solve_in(workspace)
                                            .expect("a valid max-slack scenario");
                                        outcome.scenarios[0].solution().unwrap().slack
                                    }));
                                }
                            }
                            slacks
                        });
                    }),
                    // Legacy arm: k independent solves per net, allocating
                    // each time — what callers wrote before the request
                    // layer.
                    Arm::new(|w: &mut Stopwatch| {
                        legacy_slacks = w.time(|| {
                            let mut slacks = Vec::with_capacity(nets.len() * k);
                            for tree in &nets {
                                for scenario in &scenarios {
                                    let mut options = SolverOptions::default();
                                    options.rat_derate = scenario.rat_derate;
                                    let mut solver = Solver::new(tree, &lib).with_options(options);
                                    if let Some(model) = scenario.delay_model {
                                        solver = solver.delay_model(model);
                                    }
                                    if let Some(limit) = scenario.slew_limit {
                                        solver = solver.slew_limit(limit);
                                    }
                                    slacks.push(solver.solve().slack);
                                }
                            }
                            slacks
                        });
                    }),
                ],
                repeats,
            );
            assert_eq!(
                request_slacks, legacy_slacks,
                "paths must agree bit for bit"
            );
            assert_eq!(
                flipped_slacks, legacy_slacks,
                "paths must agree bit for bit"
            );
            let (request, flipped, legacy) = (&timed[0], &timed[1], &timed[2]);

            let leg = legacy.secs();
            let mut run = Json::obj([
                ("max_sinks", max_sinks.into()),
                ("corners", k.into()),
                ("side", side.into()),
                ("nets", nets.len().into()),
                ("request_speedup", fixed(leg / request.secs(), 3)),
                ("flipped_speedup", fixed(leg / flipped.secs(), 3)),
            ]);
            request.record(&mut run, "request_");
            flipped.record(&mut run, "flipped_");
            legacy.record(&mut run, "legacy_");
            runs.push(run);
        }
    }
    print_runs(
        &runs,
        "max_sinks corners side nets request_speedup flipped_speedup request_secs legacy_secs",
    );

    write_bench(
        &out,
        [
            ("nets", suite_nets.into()),
            ("seed", seed.into()),
            ("repeats", repeats.into()),
            ("grain", par::GRAIN.into()),
        ],
        runs,
    );
}
