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
//! Expected shape: fleet-typical nets at tight locality clear 10×+ (the
//! naive path pays per-sample setup plus a full solve; the cached path
//! pays a few shallow path recomputes), while the largest, deepest net
//! converges to the intrinsic path-vs-full ratio (~4–7×, cf.
//! BENCH_eco.json) because near-root merges recompute in both worlds.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin variation_throughput --
//!       [--nets N] [--max-sinks M] [--samples K] [--sigma S] [--seed S]
//!       [--lib B] [--out FILE] [--quick]`

use std::time::Instant;

use fastbuf_api::wire::Json;
use fastbuf_api::{Objective, Session};
use fastbuf_bench::{fixed, fmt_duration, print_table, write_bench};
use fastbuf_buflib::BufferLibrary;
use fastbuf_incremental::IncrementalSolver;
use fastbuf_netgen::{SuiteSpec, VariationSpec};
use fastbuf_rctree::RoutingTree;

struct Options {
    nets: usize,
    max_sinks: usize,
    samples: usize,
    sigma: f64,
    seed: u64,
    lib: usize,
    out: String,
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: variation_throughput [--nets N] [--max-sinks M] [--samples K] [--sigma S] \
         [--seed S] [--lib B] [--out FILE] [--quick]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn parse_args() -> Options {
    let mut opts = Options {
        nets: 60,
        max_sinks: 512,
        samples: 256,
        sigma: 0.05,
        seed: 1,
        lib: 16,
        out: "BENCH_variation.json".to_owned(),
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
            "--samples" => {
                opts.samples = next("--samples needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --samples"))
            }
            "--sigma" => {
                opts.sigma = next("--sigma needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --sigma"))
            }
            "--seed" => {
                opts.seed = next("--seed needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed"))
            }
            "--lib" => {
                opts.lib = next("--lib needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --lib"))
            }
            "--out" => opts.out = next("--out needs a value"),
            "--quick" => {
                // CI smoke size: the real pipeline in seconds.
                opts.nets = 12;
                opts.max_sinks = 96;
                opts.samples = 24;
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if opts.samples == 0 || opts.nets == 0 || opts.max_sinks < 8 || opts.lib == 0 {
        usage("--samples/--nets/--lib must be positive and --max-sinks at least 8");
    }
    if !(opts.sigma > 0.0 && opts.sigma.is_finite()) {
        usage("--sigma must be a positive number");
    }
    opts
}

fn main() {
    let opts = parse_args();
    let spec = SuiteSpec {
        nets: opts.nets,
        max_sinks: opts.max_sinks,
        seed: opts.seed,
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
    let lib = BufferLibrary::paper_synthetic(opts.lib).expect("nonzero library");
    let session = Session::new(lib.clone());
    println!(
        "# variation throughput: {}-net suite, {} samples/net, sigma {}, b = {}\n",
        opts.nets,
        opts.samples,
        opts.sigma,
        lib.len(),
    );

    let (mut rows, mut runs) = (Vec::new(), Vec::new());
    let mut peak = f64::NEG_INFINITY;
    for (name, tree) in &picks {
        // Untimed warmup: first-touch allocator and cache costs land
        // here, not in the first measured row.
        let _ = session.request(tree).solve().expect("nominal solve");
        for locality in [0.002f64, 0.01, 0.05] {
            let vspec = VariationSpec::gaussian(opts.sigma, locality, opts.seed);

            // Cached sweep: the API's yield path on one worker
            // (steady-state family reuse is the quantity of interest,
            // not thread fan-out).
            let t0 = Instant::now();
            let outcome = session
                .request(tree)
                .objective(Objective::YieldTarget {
                    samples: opts.samples,
                    quantile: 0.5,
                })
                .variation(vspec.clone())
                .workers(1)
                .solve()
                .expect("yield solve succeeds");
            let cached_wall = t0.elapsed();
            let v = outcome.scenarios[0]
                .variation()
                .expect("yield objective produces a variation outcome");

            // Naive sweep: per-sample scratch solves of the same scripts.
            let scripts = vspec.expand(tree, opts.samples);
            let mut scratch_bits = Vec::with_capacity(opts.samples);
            let t0 = Instant::now();
            for script in &scripts {
                let mut solver = IncrementalSolver::new(tree.clone(), lib.clone());
                solver.apply_all(script).expect("sampled edits are valid");
                scratch_bits.push(solver.solve_scratch().slack.value().to_bits());
            }
            let scratch_wall = t0.elapsed();

            let cached_bits: Vec<u64> = v
                .samples
                .iter()
                .map(|s| s.slack.value().to_bits())
                .collect();
            assert_eq!(
                cached_bits, scratch_bits,
                "cached and scratch sample slacks must be bit-identical"
            );

            let n = opts.samples as f64;
            let cached_rate = n / cached_wall.as_secs_f64().max(1e-12);
            let scratch_rate = n / scratch_wall.as_secs_f64().max(1e-12);
            let speedup = scratch_wall.as_secs_f64() / cached_wall.as_secs_f64().max(1e-12);
            let s = &v.summary;
            rows.push(vec![
                format!("{name}/{}", tree.node_count()),
                format!("{:.1}%", locality * 100.0),
                fmt_duration(cached_wall),
                format!("{cached_rate:.0}"),
                fmt_duration(scratch_wall),
                format!("{scratch_rate:.0}"),
                format!("{speedup:.2}x"),
                format!(
                    "{:.1}%",
                    100.0 * s.nodes_reused as f64
                        / (s.nodes_recomputed + s.nodes_reused).max(1) as f64
                ),
            ]);
            peak = peak.max(speedup);
            runs.push(Json::obj([
                ("net", (*name).into()),
                ("nodes", tree.node_count().into()),
                ("sinks", tree.sink_count().into()),
                ("sites", tree.buffer_site_count().into()),
                ("locality", locality.into()),
                ("samples", opts.samples.into()),
                ("cached_secs", fixed(cached_wall.as_secs_f64(), 6)),
                ("scratch_secs", fixed(scratch_wall.as_secs_f64(), 6)),
                ("cached_samples_per_sec", fixed(cached_rate, 1)),
                ("scratch_samples_per_sec", fixed(scratch_rate, 1)),
                ("speedup", fixed(speedup, 3)),
                ("nodes_recomputed", s.nodes_recomputed.into()),
                ("nodes_reused", s.nodes_reused.into()),
            ]));
        }
    }
    print_table(
        &[
            "net/nodes",
            "locality",
            "cached wall",
            "samples/s",
            "scratch wall",
            "scr samples/s",
            "speedup",
            "subtrees reused",
        ],
        &rows,
    );
    println!("\npeak speedup: {peak:.2}x");

    write_bench(
        &opts.out,
        [
            ("suite_nets", opts.nets.into()),
            ("seed", opts.seed.into()),
            ("sigma", opts.sigma.into()),
            ("library", opts.lib.into()),
            ("peak_speedup", fixed(peak, 3)),
        ],
        runs,
    );
}
