//! CTS quality: skew and slack of the clock-tree pipeline across scales.
//!
//! For each sink count the bench generates a seeded placement, builds the
//! recursive-bipartition topology, and solves it twice with the skew-aware
//! DP: once unbounded (bit-identical to the plain max-slack solver; the
//! skew is merely reported) and once with the skew bound set to half the
//! unbounded skew, recording how much slack the tighter clock costs and
//! whether the pruned search still found a feasible solution.
//!
//! Results go to `BENCH_cts.json` (current directory) together with
//! `hw_threads`, matching the schema conventions of the other benches.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin cts_quality --
//!       [--sizes N,N,...] [--seed S] [--repeats R] [--lib B] [--out FILE]
//!       [--quick]`

use fastbuf_api::wire::Json;
use fastbuf_bench::{at_least, fixed, options, print_runs, time_each, write_bench};
use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::skew::SkewSolver;
use fastbuf_netgen::{build_topology, CtsPlacementSpec, CtsTopologySpec};

fn main() {
    let (sizes, seed, repeats, lib_size, out) = options(
        "cts_quality [--sizes N,N,...] [--seed S] [--repeats R] [--lib B] [--out FILE] [--quick]",
        "sizes seed repeats lib out",
        "quick",
        |a| {
            // `--quick` is CI's smoke size: the real pipeline in seconds.
            let quick = a.switch("quick");
            let sizes = match a.value("sizes") {
                None if quick => vec![16, 32],
                None => vec![32, 64, 128, 256],
                Some(list) => list
                    .split(',')
                    .map(|n| n.parse().map_err(|_| format!("bad --sizes `{list}`")))
                    .collect::<Result<_, _>>()?,
            };
            Ok((
                sizes,
                a.parsed_or("seed", 1)?,
                at_least(a, "repeats", if quick { 1 } else { 5 }, 1)?,
                at_least(a, "lib", 8, 1)?,
                a.parsed_or("out", "BENCH_cts.json".to_owned())?,
            ))
        },
    );
    let lib = BufferLibrary::paper_synthetic(lib_size).expect("nonzero library");
    println!(
        "# cts quality: sizes {:?}, library {}, seed {}, {} hardware threads\n",
        sizes,
        lib_size,
        seed,
        fastbuf_core::par::hardware_threads(),
    );

    let topologies: Vec<_> = sizes
        .iter()
        .map(|&sinks| {
            let placements = CtsPlacementSpec {
                sinks,
                seed,
                ..CtsPlacementSpec::default()
            }
            .generate();
            build_topology(&placements, &CtsTopologySpec::default()).expect("valid generated spec")
        })
        .collect();

    // One arm per size, interleaved: the unbounded (reporting) solve.
    let timed = time_each(&topologies, true, repeats, |topo, w| {
        let solver = SkewSolver::new(&topo.tree, &lib);
        w.time(|| solver.solve())
    });

    let mut runs = Vec::new();
    for ((&sinks, topo), (t, sol)) in sizes.iter().zip(&topologies).zip(&timed) {
        let tree = &topo.tree;
        // Tighten: half the free-running skew becomes the bound.
        let bound = Seconds::new(sol.skew.value() * 0.5);
        let bounded = SkewSolver::new(tree, &lib).max_skew(Some(bound)).solve();

        let mut run = Json::obj([
            ("sinks", sinks.into()),
            ("sites", tree.buffer_site_count().into()),
            ("skew_ps", fixed(sol.skew.picos(), 4)),
            ("slack_ps", fixed(sol.slack.picos(), 4)),
            ("buffers", sol.placements.len().into()),
            ("bound_ps", fixed(bound.picos(), 4)),
            ("bounded_skew_ps", fixed(bounded.skew.picos(), 4)),
            ("bounded_slack_ps", fixed(bounded.slack.picos(), 4)),
            ("bounded_feasible", bounded.skew_ok.into()),
        ]);
        t.record(&mut run, "");
        runs.push(run);
    }

    print_runs(
        &runs,
        "sinks sites secs skew_ps slack_ps buffers bounded_skew_ps \
         bounded_slack_ps bounded_feasible",
    );

    write_bench(
        &out,
        [
            ("library", lib_size.into()),
            ("seed", seed.into()),
            ("repeats", repeats.into()),
        ],
        runs,
    );
}
