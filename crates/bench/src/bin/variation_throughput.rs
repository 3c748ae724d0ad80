//! Monte-Carlo yield-sweep throughput: family-cached sampling vs naive
//! per-sample scratch solves.
//!
//! The workload is a netgen suite (a fleet of ECO-sized nets); the bench
//! picks its **small / median / largest** nets by node count and sweeps
//! each under a gaussian [`VariationSpec`] at several localities (the
//! fraction of the tree a sample perturbs). Two ways to produce the
//! identical distribution:
//!
//! * **cached** — the API's yield path ([`Objective::YieldTarget`]): all
//!   samples stream through one warm [`IncrementalSolver`]; sample k + 1
//!   re-derives only the root paths of the perturbed pool, splicing every
//!   untouched cached subtree into its merges;
//! * **scratch** — what a caller without the variation subsystem would
//!   write: clone the pristine tree, apply the sample's script, build a
//!   solver, and run a full from-scratch solve, once per sample.
//!
//! Every per-sample slack is asserted **bit-identical** between the two
//! paths before any time is reported, so the benchmark doubles as a
//! release-mode differential check. Results (with the cache-reuse
//! counters that explain each speedup) go to `BENCH_variation.json`.
//!
//! Recorded shape (`BENCH_variation.json`, best of 5): the p80 net at
//! 0.2–1% locality runs 16× faster cached (the naive path pays
//! per-sample setup plus a full solve; the cached path pays a few
//! shallow path recomputes); the tiny p10/p50 nets gain 3–4×, since
//! per-sample bookkeeping is most of both paths; the largest, deepest
//! net falls from 8.1× at 0.2% to 2.4× at 5% locality, towards the
//! intrinsic path-vs-full ratio (cf. `BENCH_eco.json`), because
//! near-root merges recompute in both worlds.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin variation_throughput --
//!       [--nets N] [--max-sinks M] [--samples K] [--sigma S] [--seed S]
//!       [--lib B] [--out FILE] [--quick]`

use fastbuf_api::wire::Json;
use fastbuf_api::{Objective, Session};
use fastbuf_bench::{
    at_least, fixed, options, print_runs, time_arms, write_bench, Arm, Stopwatch, REPEATS,
};
use fastbuf_buflib::BufferLibrary;
use fastbuf_incremental::IncrementalSolver;
use fastbuf_netgen::{SuiteSpec, VariationSpec};
use fastbuf_rctree::RoutingTree;

fn main() {
    let (nets, max_sinks, samples, sigma, seed, lib_size, out) = options(
        "variation_throughput [--nets N] [--max-sinks M] [--samples K] [--sigma S] \
         [--seed S] [--lib B] [--out FILE] [--quick]",
        "nets max-sinks samples sigma seed lib out",
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
                at_least(a, "samples", if quick { 24 } else { 256 }, 1)?,
                sigma,
                a.parsed_or("seed", 1)?,
                at_least(a, "lib", 16, 1)?,
                a.parsed_or("out", "BENCH_variation.json".to_owned())?,
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
    // Fleet percentiles: the small nets most fleets are made of, the
    // median, the large-typical p80 (the biggest class still solved in
    // bulk), and the largest (which dominates absolute sweep time).
    let picks: Vec<(&'static str, RoutingTree)> = vec![
        ("p10", fleet[fleet.len() / 10].clone()),
        ("p50", fleet[fleet.len() / 2].clone()),
        ("p80", fleet[fleet.len() * 4 / 5].clone()),
        ("max", fleet[fleet.len() - 1].clone()),
    ];
    let lib = BufferLibrary::paper_synthetic(lib_size).expect("nonzero library");
    let session = Session::new(lib.clone());
    println!(
        "# variation throughput: {}-net suite, {} samples/net, sigma {}, b = {}\n",
        nets,
        samples,
        sigma,
        lib.len(),
    );

    let mut runs = Vec::new();
    let mut peak = f64::NEG_INFINITY;
    for (name, tree) in &picks {
        // Untimed warmup: first-touch allocator and cache costs land
        // here, not in the first measured row.
        let _ = session.request(tree).solve().expect("nominal solve");
        for locality in [0.002f64, 0.01, 0.05] {
            let vspec = VariationSpec::gaussian(sigma, locality, seed);

            // Cached arm: the API's yield path on one worker (steady-state
            // family reuse is the quantity of interest, not thread
            // fan-out). Scratch arm: per-sample scratch solves of the
            // same scripts, expanded untimed.
            let scripts = vspec.expand(tree, samples);
            let (mut outcome, mut scratch_bits) = (None, Vec::new());
            let timed = time_arms(
                vec![
                    Arm::new(|w: &mut Stopwatch| {
                        let request = session
                            .request(tree)
                            .objective(Objective::YieldTarget {
                                samples,
                                quantile: 0.5,
                            })
                            .variation(vspec.clone())
                            .workers(1);
                        outcome = Some(w.time(|| request.solve()).expect("yield solve succeeds"));
                    }),
                    Arm::new(|w: &mut Stopwatch| {
                        scratch_bits = w.time(|| {
                            scripts
                                .iter()
                                .map(|script| {
                                    let mut solver =
                                        IncrementalSolver::new(tree.clone(), lib.clone());
                                    solver.apply_all(script).expect("sampled edits are valid");
                                    solver.solve_scratch().slack.value().to_bits()
                                })
                                .collect::<Vec<_>>()
                        });
                    }),
                ],
                REPEATS,
            );
            let outcome = outcome.expect("the cached arm ran");
            let v = outcome.scenarios[0]
                .variation()
                .expect("yield objective produces a variation outcome");
            let cached_bits: Vec<u64> = v
                .samples
                .iter()
                .map(|s| s.slack.value().to_bits())
                .collect();
            assert_eq!(
                cached_bits, scratch_bits,
                "cached and scratch sample slacks must be bit-identical"
            );
            let (cached, scratch) = (&timed[0], &timed[1]);

            let n = samples as f64;
            let cached_rate = n / cached.secs().max(1e-12);
            let scratch_rate = n / scratch.secs().max(1e-12);
            let speedup = scratch.secs() / cached.secs().max(1e-12);
            let s = &v.summary;
            peak = peak.max(speedup);
            let mut run = Json::obj([
                ("net", (*name).into()),
                ("nodes", tree.node_count().into()),
                ("sinks", tree.sink_count().into()),
                ("sites", tree.buffer_site_count().into()),
                ("locality", locality.into()),
                ("samples", samples.into()),
                ("cached_samples_per_sec", fixed(cached_rate, 1)),
                ("scratch_samples_per_sec", fixed(scratch_rate, 1)),
                ("speedup", fixed(speedup, 3)),
                ("nodes_recomputed", s.nodes_recomputed.into()),
                ("nodes_reused", s.nodes_reused.into()),
            ]);
            cached.record(&mut run, "cached_");
            scratch.record(&mut run, "scratch_");
            runs.push(run);
        }
    }
    print_runs(
        &runs,
        "net nodes locality cached_secs scratch_secs speedup nodes_recomputed nodes_reused",
    );
    println!("\npeak speedup: {peak:.2}x");

    write_bench(
        &out,
        [
            ("suite_nets", nets.into()),
            ("seed", seed.into()),
            ("sigma", sigma.into()),
            ("library", lib_size.into()),
            ("peak_speedup", fixed(peak, 3)),
        ],
        runs,
    );
}
