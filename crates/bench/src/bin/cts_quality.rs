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

use std::time::{Duration, Instant};

use fastbuf_api::wire::Json;
use fastbuf_bench::{fixed, fmt_duration, print_table, write_bench};
use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::skew::SkewSolver;
use fastbuf_netgen::{build_topology, CtsPlacementSpec, CtsTopologySpec};

struct Options {
    sizes: Vec<usize>,
    seed: u64,
    repeats: usize,
    lib: usize,
    out: String,
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: cts_quality [--sizes N,N,...] [--seed S] [--repeats R] [--lib B] \
         [--out FILE] [--quick]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn parse_args() -> Options {
    let mut opts = Options {
        sizes: vec![32, 64, 128, 256],
        seed: 1,
        repeats: 5,
        lib: 8,
        out: "BENCH_cts.json".to_owned(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut next = |what: &str| args.next().unwrap_or_else(|| usage(what));
        match arg.as_str() {
            "--sizes" => {
                opts.sizes = next("--sizes needs a value")
                    .split(',')
                    .map(|s| s.parse().unwrap_or_else(|_| usage("bad --sizes")))
                    .collect()
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
            "--lib" => {
                opts.lib = next("--lib needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --lib"))
            }
            "--out" => opts.out = next("--out needs a value"),
            "--quick" => {
                // CI smoke size: run the real pipeline in seconds.
                opts.sizes = vec![16, 32];
                opts.repeats = 1;
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if opts.repeats == 0 || opts.sizes.is_empty() {
        usage("--repeats and --sizes must be at least 1");
    }
    if opts.lib == 0 {
        usage("--lib must be at least 1");
    }
    opts
}

fn main() {
    let opts = parse_args();
    let lib = BufferLibrary::paper_synthetic(opts.lib).expect("nonzero library");
    println!(
        "# cts quality: sizes {:?}, library {}, seed {}, {} hardware threads\n",
        opts.sizes,
        opts.lib,
        opts.seed,
        fastbuf_bench::hw_threads(),
    );

    let (mut rows, mut runs) = (Vec::new(), Vec::new());
    for &sinks in &opts.sizes {
        let placements = CtsPlacementSpec {
            sinks,
            seed: opts.seed,
            ..CtsPlacementSpec::default()
        }
        .generate();
        let topo =
            build_topology(&placements, &CtsTopologySpec::default()).expect("valid generated spec");
        let tree = &topo.tree;

        // Fastest-of-repeats for the unbounded (reporting) solve.
        let mut best = Duration::MAX;
        let mut sol = None;
        for _ in 0..opts.repeats {
            let start = Instant::now();
            let s = SkewSolver::new(tree, &lib).solve();
            best = best.min(start.elapsed());
            sol = Some(s);
        }
        let sol = sol.expect("repeats >= 1");

        // Tighten: half the free-running skew becomes the bound.
        let bound = Seconds::new(sol.skew.value() * 0.5);
        let bounded = SkewSolver::new(tree, &lib).max_skew(Some(bound)).solve();

        rows.push(vec![
            sinks.to_string(),
            tree.buffer_site_count().to_string(),
            fmt_duration(best),
            format!("{:.2}", sol.skew.picos()),
            format!("{:.2}", sol.slack.picos()),
            sol.placements.len().to_string(),
            format!("{:.2}", bounded.skew.picos()),
            format!("{:+.2}", bounded.slack.picos() - sol.slack.picos()),
            if bounded.skew_ok { "yes" } else { "NO" }.to_owned(),
        ]);
        runs.push(Json::obj([
            ("sinks", sinks.into()),
            ("sites", tree.buffer_site_count().into()),
            ("secs", fixed(best.as_secs_f64(), 6)),
            ("skew_ps", fixed(sol.skew.picos(), 4)),
            ("slack_ps", fixed(sol.slack.picos(), 4)),
            ("buffers", sol.placements.len().into()),
            ("bound_ps", fixed(bound.picos(), 4)),
            ("bounded_skew_ps", fixed(bounded.skew.picos(), 4)),
            ("bounded_slack_ps", fixed(bounded.slack.picos(), 4)),
            ("bounded_feasible", bounded.skew_ok.into()),
        ]));
    }

    print_table(
        &[
            "sinks",
            "sites",
            "solve",
            "skew ps",
            "slack ps",
            "buffers",
            "skew@bound",
            "slack cost",
            "feasible",
        ],
        &rows,
    );

    write_bench(
        &opts.out,
        [
            ("library", opts.lib.into()),
            ("seed", opts.seed.into()),
            ("repeats", opts.repeats.into()),
        ],
        runs,
    );
}
