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
//! Results are asserted identical per corner, then corner-solves/sec are
//! printed and recorded in `BENCH_scenarios.json`.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin scenario_throughput --
//!       [--nets N] [--max-sinks M] [--seed S] [--repeats K] [--out FILE]
//!       [--quick]`

use std::sync::Arc;
use std::time::{Duration, Instant};

use fastbuf_api::wire::Json;
use fastbuf_api::{Scenario, Session};
use fastbuf_bench::{fixed, fmt_duration, print_table, write_bench};
use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::Solver;
use fastbuf_netgen::SuiteSpec;
use fastbuf_rctree::ScaledElmoreModel;

struct Options {
    nets: usize,
    max_sinks: usize,
    seed: u64,
    repeats: usize,
    out: String,
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: scenario_throughput [--nets N] [--max-sinks M] [--seed S] [--repeats K] [--out FILE] [--quick]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn parse_args() -> Options {
    let mut opts = Options {
        nets: 60,
        max_sinks: 96,
        seed: 1,
        repeats: 3,
        out: "BENCH_scenarios.json".to_owned(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |what: &str| args.next().unwrap_or_else(|| usage(what));
        match arg.as_str() {
            "--nets" => {
                opts.nets = next("--nets needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --nets"))
            }
            "--max-sinks" => {
                opts.max_sinks = next("--max-sinks needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --max-sinks"))
            }
            "--seed" => {
                opts.seed = next("--seed needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--repeats" => {
                opts.repeats = next("--repeats needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --repeats"))
            }
            "--out" => opts.out = next("--out needs a value"),
            "--quick" => {
                // CI smoke size: run the real pipeline in seconds.
                opts.nets = 10;
                opts.max_sinks = 24;
                opts.repeats = 1;
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if opts.repeats == 0 {
        usage("--repeats must be at least 1");
    }
    if opts.nets == 0 {
        usage("--nets must be at least 1");
    }
    if opts.max_sinks < 8 {
        usage("--max-sinks must be at least 8");
    }
    opts
}

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
    let opts = parse_args();
    let nets = SuiteSpec {
        nets: opts.nets,
        max_sinks: opts.max_sinks,
        seed: opts.seed,
        ..SuiteSpec::default()
    }
    .build();
    let lib = BufferLibrary::paper_synthetic(16).expect("nonzero library");
    println!(
        "# scenario throughput: {} nets x up to 4 corners, repeats {}\n",
        nets.len(),
        opts.repeats
    );

    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for k in [1usize, 2, 4] {
        let scenarios = corners(k);
        let session = Session::new(lib.clone());

        let mut request_best = Duration::MAX;
        let mut legacy_best = Duration::MAX;
        for _ in 0..opts.repeats {
            // Request path: one multi-scenario request per net, warm
            // workspaces from the session pool.
            let t0 = Instant::now();
            let mut request_slacks = Vec::with_capacity(nets.len() * k);
            for tree in &nets {
                let outcome = session
                    .request(tree)
                    .scenarios(scenarios.clone())
                    .solve()
                    .expect("valid max-slack scenarios");
                request_slacks.extend(
                    outcome
                        .scenarios
                        .iter()
                        .map(|s| s.solution().unwrap().slack),
                );
            }
            request_best = request_best.min(t0.elapsed());

            // Legacy path: k independent solves per net, allocating each
            // time — what callers wrote before the request layer.
            let t0 = Instant::now();
            let mut legacy_slacks = Vec::with_capacity(nets.len() * k);
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
                    legacy_slacks.push(solver.solve().slack);
                }
            }
            legacy_best = legacy_best.min(t0.elapsed());

            assert_eq!(
                request_slacks, legacy_slacks,
                "paths must agree bit for bit"
            );
        }

        let corner_solves = (nets.len() * k) as f64;
        let req_rate = corner_solves / request_best.as_secs_f64();
        let leg_rate = corner_solves / legacy_best.as_secs_f64();
        rows.push(vec![
            k.to_string(),
            fmt_duration(request_best),
            format!("{req_rate:.0}"),
            fmt_duration(legacy_best),
            format!("{leg_rate:.0}"),
            format!(
                "{:.2}x",
                legacy_best.as_secs_f64() / request_best.as_secs_f64()
            ),
        ]);
        let (req, leg) = (request_best.as_secs_f64(), legacy_best.as_secs_f64());
        runs.push(Json::obj([
            ("corners", k.into()),
            ("request_secs", fixed(req, 6)),
            ("legacy_secs", fixed(leg, 6)),
            ("request_speedup", fixed(leg / req, 3)),
        ]));
    }
    print_table(
        &[
            "corners",
            "request wall",
            "req corner/s",
            "legacy wall",
            "leg corner/s",
            "request speedup",
        ],
        &rows,
    );

    write_bench(
        &opts.out,
        [
            ("nets", nets.len().into()),
            ("seed", opts.seed.into()),
            ("repeats", opts.repeats.into()),
        ],
        runs,
    );
}
