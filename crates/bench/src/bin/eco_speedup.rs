//! ECO re-solve throughput: incremental (subtree-cached) vs from-scratch
//! solves/sec under edit scripts of varying locality.
//!
//! Takes the **largest net of a netgen suite** (the net that dominates a
//! fleet's ECO turnaround), generates reproducible edit scripts at 1%, 10%
//! and 50% locality, and replays each script in two arms, interleaved
//! five times (best and median recorded):
//!
//! * **incremental** — `IncrementalSolver::solve` after every edit: only
//!   the edited root paths recompute, cached sibling subtrees splice into
//!   merges unchanged;
//! * **scratch** — a full `Solver::solve` of the edited tree after every
//!   edit (what callers did before `fastbuf-incremental`).
//!
//! Every pair of results is asserted bit-identical (slack bits and
//! placements) before any time is reported — the benchmark doubles as a
//! release-mode differential check. Results go to `BENCH_eco.json`.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin eco_speedup --
//!       [--nets N] [--max-sinks M] [--edits K] [--seed S] [--lib B]
//!       [--out FILE] [--quick]`

use fastbuf_api::wire::Json;
use fastbuf_bench::{
    at_least, fixed, options, print_runs, time_arms, write_bench, Arm, Stopwatch, REPEATS,
};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::SolverOptions;
use fastbuf_incremental::{EditScriptSpec, IncrementalSolver};
use fastbuf_netgen::SuiteSpec;

fn main() {
    let (nets, max_sinks, edits, seed, lib_size, out) = options(
        "eco_speedup [--nets N] [--max-sinks M] [--edits K] [--seed S] [--lib B] \
         [--out FILE] [--quick]",
        "nets max-sinks edits seed lib out",
        "quick",
        |a| {
            // `--quick` is CI's smoke size: the real pipeline in seconds.
            let quick = a.switch("quick");
            Ok((
                at_least(a, "nets", if quick { 12 } else { 100 }, 1)?,
                at_least(a, "max-sinks", if quick { 48 } else { 256 }, 8)?,
                at_least(a, "edits", if quick { 25 } else { 200 }, 1)?,
                a.parsed_or("seed", 1)?,
                at_least(a, "lib", 16, 1)?,
                a.parsed_or("out", "BENCH_eco.json".to_owned())?,
            ))
        },
    );
    let spec = SuiteSpec {
        nets,
        max_sinks,
        seed,
        ..SuiteSpec::default()
    };
    // The largest net of the suite (by node count) is the ECO workload.
    let tree = (0..spec.nets)
        .map(|i| spec.build_net(i))
        .max_by_key(|t| t.node_count())
        .expect("suite has at least one net");
    let lib = BufferLibrary::paper_synthetic(lib_size).expect("nonzero library");
    println!(
        "# eco speedup: largest of {} suite nets -> {} sinks, {} sites, {} nodes; {} edits, b = {}\n",
        nets,
        tree.sink_count(),
        tree.buffer_site_count(),
        tree.node_count(),
        edits,
        lib.len(),
    );

    let mut runs = Vec::new();
    for locality in [0.01f64, 0.10, 0.50] {
        let script = EditScriptSpec {
            edits,
            locality,
            seed,
            swap_library_every: 0,
        }
        .generate(&tree);

        // Each repeat replays the script on a fresh solver (built
        // untimed). The incremental arm's baseline solve warms the cache,
        // untimed too: steady-state ECO throughput is the quantity of
        // interest. The scratch arm never consults its cache.
        let fresh = || {
            IncrementalSolver::new(tree.clone(), lib.clone()).with_options(SolverOptions::default())
        };
        let (mut inc_out, mut scratch_out) = (Vec::new(), Vec::new());
        let timed = time_arms(
            vec![
                Arm::new(|w: &mut Stopwatch| {
                    let mut inc = fresh();
                    let _ = inc.solve();
                    inc_out = w.time(|| {
                        script
                            .iter()
                            .map(|edit| {
                                inc.apply(edit).expect("generated edits are valid");
                                inc.solve()
                            })
                            .collect::<Vec<_>>()
                    });
                }),
                Arm::new(|w: &mut Stopwatch| {
                    let mut scratch = fresh();
                    scratch_out = w.time(|| {
                        script
                            .iter()
                            .map(|edit| {
                                scratch.apply(edit).expect("generated edits are valid");
                                scratch.solve_scratch()
                            })
                            .collect::<Vec<_>>()
                    });
                }),
            ],
            REPEATS,
        );
        let bits = |sols: &[fastbuf_core::Solution]| -> Vec<_> {
            sols.iter()
                .map(|s| (s.slack.value().to_bits(), s.placements.clone()))
                .collect()
        };
        assert_eq!(
            bits(&inc_out),
            bits(&scratch_out),
            "incremental and scratch slacks and placements must be identical"
        );
        let recomputed: u64 = inc_out.iter().map(|s| s.stats.nodes_recomputed).sum();
        let reused: u64 = inc_out.iter().map(|s| s.stats.nodes_reused).sum();
        let (inc, scratch) = (&timed[0], &timed[1]);

        let solves = script.len() as f64;
        let inc_rate = solves / inc.secs().max(1e-12);
        let scratch_rate = solves / scratch.secs().max(1e-12);
        let speedup = scratch.secs() / inc.secs().max(1e-12);
        let mut run = Json::obj([
            ("locality", locality.into()),
            ("edits", script.len().into()),
            ("incremental_solves_per_sec", fixed(inc_rate, 1)),
            ("scratch_solves_per_sec", fixed(scratch_rate, 1)),
            ("speedup", fixed(speedup, 3)),
            ("nodes_recomputed", recomputed.into()),
            ("nodes_reused", reused.into()),
        ]);
        inc.record(&mut run, "incremental_");
        scratch.record(&mut run, "scratch_");
        runs.push(run);
    }
    print_runs(
        &runs,
        "locality incremental_secs scratch_secs incremental_solves_per_sec \
         scratch_solves_per_sec speedup nodes_reused",
    );

    let net = Json::obj([
        ("sinks", tree.sink_count().into()),
        ("sites", tree.buffer_site_count().into()),
        ("nodes", tree.node_count().into()),
    ]);
    write_bench(
        &out,
        [
            ("net", net),
            ("suite_nets", nets.into()),
            ("seed", seed.into()),
            ("library", lib_size.into()),
        ],
        runs,
    );
}
