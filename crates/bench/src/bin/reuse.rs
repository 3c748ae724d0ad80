//! Cache reuse: a warm subtree cache against from-scratch solves, for
//! ECO edit scripts and for Monte-Carlo yield families.
//!
//! One netgen suite supplies four nets, its p10, p50, p80 and largest by
//! node count. Each net runs two sections, every row `--steps` steps of
//! one locality (the fraction of the tree the steps may touch):
//!
//! * **`eco`** — an `EditScriptSpec` script at 1%, 10% and 50% locality.
//!   The cached arm applies each edit to a warm `IncrementalSolver` and
//!   re-solves it, so only the edited root paths recompute; the scratch
//!   arm applies the same edits and calls `solve_scratch`.
//! * **`yield`** — a gaussian `VariationSpec` family of `--steps` samples
//!   at 0.2%, 1% and 5% locality. The cached arm is the API's
//!   `Objective::YieldTarget` request at `workers(1)`, every sample
//!   streaming through one warm `IncrementalSolver`; the scratch arm
//!   builds a fresh solver per sample, applies its script and solves
//!   from scratch.
//!
//! Both sections go through one routine: it times the arms interleaved
//! through `time_arms` (best and median of five) and asserts that every
//! step's slack bits match between the arms (and, for `eco`, the
//! placements) before it records anything, so the harness doubles as a
//! release-mode differential check. Each row carries the cache counters
//! that explain its speedup. Results go to `BENCH_reuse.json`.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin reuse --
//!       [--nets N] [--max-sinks M] [--steps K] [--sigma S] [--seed S]
//!       [--lib B] [--out FILE] [--quick]`

use std::fmt::Debug;

use fastbuf_api::wire::Json;
use fastbuf_api::{Objective, Session};
use fastbuf_bench::{
    at_least, fixed, options, print_runs, time_arms, write_bench, Arm, Stopwatch, REPEATS,
};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{Placement, Solution};
use fastbuf_incremental::{EditScriptSpec, IncrementalSolver};
use fastbuf_netgen::{SuiteSpec, VariationSpec};
use fastbuf_rctree::RoutingTree;

/// What an arm's last repeat produced: one comparison key per step, and
/// the cache's recomputed and reused node counts summed over the steps.
type Keys<K> = (Vec<K>, [u64; 2]);

/// Times `cached` against `scratch` on one net, asserts their keys agree
/// step for step, and returns the row.
fn row<K: PartialEq + Debug>(
    (section, net, tree): (&str, &str, &RoutingTree),
    locality: f64,
    steps: usize,
    mut cached: impl FnMut(&mut Stopwatch) -> Keys<K>,
    mut scratch: impl FnMut(&mut Stopwatch) -> Vec<K>,
) -> Json {
    let (mut warm, mut cold) = (None, None);
    let timed = time_arms(
        vec![
            Arm::new(|w: &mut Stopwatch| warm = Some(cached(w))),
            Arm::new(|w: &mut Stopwatch| cold = Some(scratch(w))),
        ],
        REPEATS,
    );
    let (keys, [recomputed, reused]) = warm.expect("the cached arm ran");
    assert_eq!(
        keys,
        cold.expect("the scratch arm ran"),
        "{section} on {net} at locality {locality}: cached and scratch results differ"
    );
    let (cached, scratch) = (&timed[0], &timed[1]);
    let speedup = scratch.secs() / cached.secs().max(1e-12);
    let mut run = Json::obj([
        ("section", section.into()),
        ("net", net.into()),
        ("nodes", tree.node_count().into()),
        ("locality", locality.into()),
        ("steps", steps.into()),
        ("speedup", fixed(speedup, 3)),
        ("nodes_recomputed", recomputed.into()),
        ("nodes_reused", reused.into()),
    ]);
    cached.record(&mut run, "cached_");
    scratch.record(&mut run, "scratch_");
    run
}

/// The `eco` comparison key of one solve: slack bits and placements.
fn eco_key(s: &Solution) -> (u64, Vec<Placement>) {
    (s.slack.value().to_bits(), s.placements.clone())
}

fn main() {
    let (nets, max_sinks, steps, sigma, seed, lib_size, out) = options(
        "reuse [--nets N] [--max-sinks M] [--steps K] [--sigma S] [--seed S] [--lib B] \
         [--out FILE] [--quick]",
        "nets max-sinks steps sigma seed lib out",
        "quick",
        |a| {
            // `--quick` is CI's smoke size: the real pipeline in seconds.
            let quick = a.switch("quick");
            let sigma = a.parsed_or("sigma", 0.05)?;
            if !(sigma > 0.0 && f64::is_finite(sigma)) {
                return Err("--sigma must be a positive number".into());
            }
            Ok((
                at_least(a, "nets", if quick { 12 } else { 60 }, 1)?,
                at_least(a, "max-sinks", if quick { 96 } else { 512 }, 8)?,
                at_least(a, "steps", if quick { 24 } else { 200 }, 1)?,
                sigma,
                a.parsed_or("seed", 1)?,
                at_least(a, "lib", 16, 1)?,
                a.parsed_or("out", "BENCH_reuse.json".to_owned())?,
            ))
        },
    );
    let spec = SuiteSpec {
        nets,
        max_sinks,
        seed,
        ..SuiteSpec::default()
    };
    let mut fleet: Vec<RoutingTree> = (0..spec.nets).map(|i| spec.build_net(i)).collect();
    fleet.sort_by_key(RoutingTree::node_count);
    // The small nets most fleets are made of, the median, the
    // large-typical p80 and the largest (which dominates absolute time).
    let picks = [
        ("p10", fleet.len() / 10),
        ("p50", fleet.len() / 2),
        ("p80", fleet.len() * 4 / 5),
        ("max", fleet.len() - 1),
    ];
    let lib = BufferLibrary::paper_synthetic(lib_size).expect("nonzero library");
    let session = Session::new(lib.clone());
    println!(
        "# cache reuse: {nets}-net suite, {steps} steps per row, sigma {sigma}, b = {}\n",
        lib.len(),
    );

    let mut runs = Vec::new();
    for (name, i) in picks {
        let tree = &fleet[i];
        let fresh = || IncrementalSolver::new(tree.clone(), lib.clone());
        for locality in [0.01, 0.10, 0.50] {
            let script = EditScriptSpec {
                edits: steps,
                locality,
                seed,
                ..EditScriptSpec::default()
            }
            .generate(tree);
            // Each repeat replays the script on a fresh solver. The cached
            // arm's baseline solve warms its cache untimed: steady-state
            // ECO throughput is the quantity of interest.
            let replay = |inc: &mut IncrementalSolver, solve: fn(&mut IncrementalSolver) -> _| {
                let step = |edit| {
                    inc.apply(edit).expect("generated edits are valid");
                    solve(inc)
                };
                script.iter().map(step).collect::<Vec<Solution>>()
            };
            let cached = |w: &mut Stopwatch| {
                let mut inc = fresh();
                let _ = inc.solve();
                let sols = w.time(|| replay(&mut inc, IncrementalSolver::solve));
                let stats = sols
                    .iter()
                    .map(|s| [s.stats.nodes_recomputed, s.stats.nodes_reused]);
                let counts = stats.fold([0, 0], |a, b| [a[0] + b[0], a[1] + b[1]]);
                (sols.iter().map(eco_key).collect(), counts)
            };
            let scratch = |w: &mut Stopwatch| {
                let mut inc = fresh();
                let sols = w.time(|| replay(&mut inc, |inc| inc.solve_scratch()));
                sols.iter().map(eco_key).collect()
            };
            runs.push(row(("eco", name, tree), locality, steps, cached, scratch));
        }

        // Untimed warmup: first-touch allocator and cache costs land
        // here, not in the first yield row.
        let _ = session.request(tree).solve().expect("nominal solve");
        for locality in [0.002, 0.01, 0.05] {
            let vspec = VariationSpec::gaussian(sigma, locality, seed);
            // The scratch arm's scripts are expanded untimed.
            let scripts = vspec.expand(tree, steps);
            let request = session
                .request(tree)
                .objective(Objective::YieldTarget {
                    samples: steps,
                    quantile: 0.5,
                })
                .variation(vspec)
                .workers(1);
            let cached = |w: &mut Stopwatch| {
                let outcome = w.time(|| request.solve()).expect("yield solve succeeds");
                let v = outcome.scenarios[0]
                    .variation()
                    .expect("yield objective produces a variation outcome");
                let keys = v.samples.iter().map(|s| s.slack.value().to_bits());
                let s = &v.summary;
                (keys.collect(), [s.nodes_recomputed, s.nodes_reused])
            };
            let scratch = |w: &mut Stopwatch| {
                let solve = |script: &Vec<_>| {
                    let mut solver = fresh();
                    solver.apply_all(script).expect("sampled edits are valid");
                    solver.solve_scratch().slack.value().to_bits()
                };
                w.time(|| scripts.iter().map(solve).collect())
            };
            runs.push(row(("yield", name, tree), locality, steps, cached, scratch));
        }
    }
    print_runs(
        &runs,
        "section net nodes locality cached_secs scratch_secs speedup nodes_recomputed \
         nodes_reused",
    );

    write_bench(
        &out,
        [
            ("suite_nets", nets.into()),
            ("max_sinks", max_sinks.into()),
            ("seed", seed.into()),
            ("sigma", sigma.into()),
            ("library", lib_size.into()),
        ],
        runs,
    );
}
