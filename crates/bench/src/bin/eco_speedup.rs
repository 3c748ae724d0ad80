//! ECO re-solve throughput: incremental (subtree-cached) vs from-scratch
//! solves/sec under edit scripts of varying locality.
//!
//! Takes the **largest net of a netgen suite** (the net that dominates a
//! fleet's ECO turnaround), generates reproducible edit scripts at 1%, 10%
//! and 50% locality, and replays each script twice:
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

use std::time::Instant;

use fastbuf_api::wire::Json;
use fastbuf_bench::{fixed, fmt_duration, print_table, write_bench};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::SolverOptions;
use fastbuf_incremental::{EditScriptSpec, IncrementalSolver};
use fastbuf_netgen::SuiteSpec;

struct Options {
    nets: usize,
    max_sinks: usize,
    edits: usize,
    seed: u64,
    lib: usize,
    out: String,
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: eco_speedup [--nets N] [--max-sinks M] [--edits K] [--seed S] [--lib B] [--out FILE] [--quick]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn parse_args() -> Options {
    let mut opts = Options {
        nets: 100,
        max_sinks: 256,
        edits: 200,
        seed: 1,
        lib: 16,
        out: "BENCH_eco.json".to_owned(),
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
            "--edits" => {
                opts.edits = next("--edits needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --edits"))
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
                opts.max_sinks = 48;
                opts.edits = 25;
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if opts.edits == 0 || opts.nets == 0 || opts.max_sinks < 8 || opts.lib == 0 {
        usage("--edits/--nets/--lib must be positive and --max-sinks at least 8");
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
    // The largest net of the suite (by node count) is the ECO workload.
    let tree = (0..spec.nets)
        .map(|i| spec.build_net(i))
        .max_by_key(|t| t.node_count())
        .expect("suite has at least one net");
    let lib = BufferLibrary::paper_synthetic(opts.lib).expect("nonzero library");
    println!(
        "# eco speedup: largest of {} suite nets -> {} sinks, {} sites, {} nodes; {} edits, b = {}\n",
        opts.nets,
        tree.sink_count(),
        tree.buffer_site_count(),
        tree.node_count(),
        opts.edits,
        lib.len(),
    );

    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for locality in [0.01f64, 0.10, 0.50] {
        let script = EditScriptSpec {
            edits: opts.edits,
            locality,
            seed: opts.seed,
            swap_library_every: 0,
        }
        .generate(&tree);

        // Incremental replay (baseline solve warms the cache, untimed —
        // steady-state ECO throughput is the quantity of interest).
        let mut inc = IncrementalSolver::new(tree.clone(), lib.clone())
            .with_options(SolverOptions::default());
        let _ = inc.solve();
        let mut inc_slacks = Vec::with_capacity(script.len());
        let mut inc_placements = Vec::with_capacity(script.len());
        let mut recomputed = 0u64;
        let mut reused = 0u64;
        let t0 = Instant::now();
        for edit in &script {
            inc.apply(edit).expect("generated edits are valid");
            let sol = inc.solve();
            recomputed += sol.stats.nodes_recomputed;
            reused += sol.stats.nodes_reused;
            inc_slacks.push(sol.slack.value().to_bits());
            inc_placements.push(sol.placements);
        }
        let inc_wall = t0.elapsed();

        // Scratch replay on an identical solver (cache never consulted).
        let mut scratch = IncrementalSolver::new(tree.clone(), lib.clone())
            .with_options(SolverOptions::default());
        let mut scratch_slacks = Vec::with_capacity(script.len());
        let mut scratch_placements = Vec::with_capacity(script.len());
        let t0 = Instant::now();
        for edit in &script {
            scratch.apply(edit).expect("generated edits are valid");
            let sol = scratch.solve_scratch();
            scratch_slacks.push(sol.slack.value().to_bits());
            scratch_placements.push(sol.placements);
        }
        let scratch_wall = t0.elapsed();

        assert_eq!(
            inc_slacks, scratch_slacks,
            "incremental and scratch slacks must be bit-identical"
        );
        assert_eq!(
            inc_placements, scratch_placements,
            "incremental and scratch placements must be identical"
        );

        let solves = script.len() as f64;
        let inc_rate = solves / inc_wall.as_secs_f64().max(1e-12);
        let scratch_rate = solves / scratch_wall.as_secs_f64().max(1e-12);
        let speedup = scratch_wall.as_secs_f64() / inc_wall.as_secs_f64().max(1e-12);
        rows.push(vec![
            format!("{:.0}%", locality * 100.0),
            fmt_duration(inc_wall),
            format!("{inc_rate:.0}"),
            fmt_duration(scratch_wall),
            format!("{scratch_rate:.0}"),
            format!("{speedup:.2}x"),
            format!(
                "{:.1}%",
                100.0 * reused as f64 / (recomputed + reused).max(1) as f64
            ),
        ]);
        runs.push(Json::obj([
            ("locality", locality.into()),
            ("edits", script.len().into()),
            ("incremental_secs", fixed(inc_wall.as_secs_f64(), 6)),
            ("scratch_secs", fixed(scratch_wall.as_secs_f64(), 6)),
            ("incremental_solves_per_sec", fixed(inc_rate, 1)),
            ("scratch_solves_per_sec", fixed(scratch_rate, 1)),
            ("speedup", fixed(speedup, 3)),
            ("nodes_recomputed", recomputed.into()),
            ("nodes_reused", reused.into()),
        ]));
    }
    print_table(
        &[
            "locality",
            "inc wall",
            "inc solves/s",
            "scratch wall",
            "scr solves/s",
            "speedup",
            "nodes reused",
        ],
        &rows,
    );

    let net = Json::obj([
        ("sinks", tree.sink_count().into()),
        ("sites", tree.buffer_site_count().into()),
        ("nodes", tree.node_count().into()),
    ]);
    write_bench(
        &opts.out,
        [
            ("net", net),
            ("suite_nets", opts.nets.into()),
            ("seed", opts.seed.into()),
            ("library", opts.lib.into()),
        ],
        runs,
    );
}
