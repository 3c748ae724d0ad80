//! Multi-corner throughput: corner-solves/sec of the `fastbuf-api`
//! request layer vs independent legacy solves.
//!
//! Solves one reproducible heavy-tailed net suite where every net is
//! asked the same question in 1, 2, and 4 timing corners (typical /
//! derated / slew-limited / scaled-model), two ways:
//!
//! * **request** — one multi-scenario `SolveRequest` per net; corners
//!   share the session's warm workspace pool (the api fan-out path);
//! * **legacy** — one fresh `Solver::solve()` per corner (what callers
//!   wrote before the request layer existed; allocates per solve).
//!
//! The two arms run interleaved `--repeats` times; their results are
//! asserted identical per corner, then each arm's best and median wall
//! time and the request speedup are printed and recorded in
//! `BENCH_scenarios.json`.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin scenario_throughput --
//!       [--nets N] [--max-sinks M] [--seed S] [--repeats K] [--out FILE]
//!       [--quick]`

use std::sync::Arc;

use fastbuf_api::wire::Json;
use fastbuf_api::{Scenario, Session};
use fastbuf_bench::{at_least, fixed, options, print_runs, time_arms, write_bench, Arm, Stopwatch};
use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::Solver;
use fastbuf_netgen::SuiteSpec;
use fastbuf_rctree::ScaledElmoreModel;

/// The corner ladder: every prefix of this list is a scenario set.
fn corners(k: usize) -> Vec<Scenario> {
    let all = [
        Scenario::named("typical"),
        Scenario::named("slow").rat_derate(0.9),
        Scenario::named("signoff").slew_limit(Seconds::from_pico(300.0)),
        Scenario::named("optimistic").delay_model(Arc::new(ScaledElmoreModel::default())),
    ];
    all[..k].to_vec()
}

fn main() {
    let (suite_nets, max_sinks, seed, repeats, out) = options(
        "scenario_throughput [--nets N] [--max-sinks M] [--seed S] [--repeats K] \
         [--out FILE] [--quick]",
        "nets max-sinks seed repeats out",
        "quick",
        |a| {
            // `--quick` is CI's smoke size: the real pipeline in seconds.
            let quick = a.switch("quick");
            Ok((
                at_least(a, "nets", if quick { 10 } else { 60 }, 1)?,
                at_least(a, "max-sinks", if quick { 24 } else { 96 }, 8)?,
                a.parsed_or("seed", 1)?,
                at_least(a, "repeats", if quick { 1 } else { 3 }, 1)?,
                a.parsed_or("out", "BENCH_scenarios.json".to_owned())?,
            ))
        },
    );
    let nets = SuiteSpec {
        nets: suite_nets,
        max_sinks,
        seed,
        ..SuiteSpec::default()
    }
    .build();
    let lib = BufferLibrary::paper_synthetic(16).expect("nonzero library");
    println!(
        "# scenario throughput: {} nets x up to 4 corners, repeats {}\n",
        nets.len(),
        repeats
    );

    let mut runs = Vec::new();
    for k in [1usize, 2, 4] {
        let scenarios = corners(k);
        let session = Session::new(lib.clone());

        // Request arm: one multi-scenario request per net, warm workspaces
        // from the session pool (corners may fan out over workers: wall
        // time only). Legacy arm: k independent solves per net,
        // allocating each time — what callers wrote before the request
        // layer.
        let (mut request_slacks, mut legacy_slacks) = (Vec::new(), Vec::new());
        let timed = time_arms(
            vec![
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
                Arm::new(|w: &mut Stopwatch| {
                    legacy_slacks = w.time(|| {
                        let mut slacks = Vec::with_capacity(nets.len() * k);
                        for tree in &nets {
                            for scenario in &scenarios {
                                let solve_tree = scenario.apply_derate(tree);
                                let mut solver = Solver::new(&solve_tree, &lib);
                                if let Some(model) = &scenario.delay_model {
                                    solver = solver.delay_model(Arc::clone(model));
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
        let (request, legacy) = (&timed[0], &timed[1]);

        let (req, leg) = (request.secs(), legacy.secs());
        let mut run = Json::obj([
            ("corners", k.into()),
            ("request_speedup", fixed(leg / req, 3)),
        ]);
        request.record(&mut run, "request_");
        legacy.record(&mut run, "legacy_");
        runs.push(run);
    }
    print_runs(&runs, "corners request_secs legacy_secs request_speedup");

    write_bench(
        &out,
        [
            ("nets", nets.len().into()),
            ("seed", seed.into()),
            ("repeats", repeats.into()),
        ],
        runs,
    );
}
