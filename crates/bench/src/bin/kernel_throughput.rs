//! Kernel throughput: the DP kernel (the struct-of-arrays candidate slab)
//! single-threaded, plus intra-net subtree scaling.
//!
//! Solves two groups of nets of one reproducible `netgen::SuiteSpec`
//! suite single-net at a time: the `--top` largest (`above` the grain)
//! and every net whose nodes × buffer types are under two `par::GRAIN`s
//! (`below` it, where `par::workers` keeps a net inline at every cap;
//! all of them, so the group's timings are long enough to compare). For
//! each group it reports solves/sec for:
//!
//! * `slab@1` — single-threaded, the baseline of the other rows;
//! * `slab@2`, `slab@4` — intra-net worker caps of 2 and 4: sibling
//!   subtrees solved concurrently where the net is above the grain
//!   (bit-identical results at every count; on a machine with fewer
//!   hardware threads these rows record the scheduling overhead
//!   honestly). `forks` counts the subtrees forked per solve.
//!
//! Results go to `BENCH_kernel.json` (current directory) together with
//! `hw_threads` so the scaling rows are self-describing.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin kernel_throughput --
//!       [--nets N] [--max-sinks M] [--top K] [--seed S] [--repeats R]
//!       [--lib B] [--out FILE] [--quick]`

use fastbuf_api::wire::Json;
use fastbuf_bench::{at_least, fixed, options, print_runs, time_arms, write_bench, Arm, Stopwatch};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{par, Algorithm, Solver};
use fastbuf_netgen::SuiteSpec;
use fastbuf_rctree::RoutingTree;

fn main() {
    // Defaults reproduce the committed `BENCH_kernel.json`: the two
    // largest nets of a 48-net suite (candidate lists long enough for
    // lane-wise sweeps to matter) against the paper's largest Table 1
    // library, b = 64. `--quick` is CI's smoke size.
    let (suite_nets, max_sinks, top, seed, repeats, lib_size, algo, out) = options(
        "kernel_throughput [--nets N] [--max-sinks M] [--top K] [--seed S] \
         [--repeats R] [--lib B] [--algo A] [--out FILE] [--quick]",
        "nets max-sinks top seed repeats lib algo out",
        "quick",
        |a| {
            let quick = a.switch("quick");
            Ok((
                at_least(a, "nets", if quick { 8 } else { 48 }, 1)?,
                at_least(a, "max-sinks", if quick { 48 } else { 2048 }, 8)?,
                at_least(a, "top", 2, 1)?,
                a.parsed_or("seed", 7)?,
                at_least(a, "repeats", if quick { 1 } else { 15 }, 1)?,
                at_least(a, "lib", if quick { 8 } else { 64 }, 1)?,
                a.parsed_or("algo", Algorithm::LiShi)?,
                a.parsed_or("out", "BENCH_kernel.json".to_owned())?,
            ))
        },
    );
    let suite = SuiteSpec {
        nets: suite_nets,
        max_sinks,
        seed,
        ..SuiteSpec::default()
    };
    // Largest-first: the kernel numbers should come from the heavy tail
    // of the suite, where candidate lists are long enough to matter.
    let mut nets = suite.build();
    nets.sort_by_key(|t| std::cmp::Reverse(t.buffer_site_count()));
    let lib = BufferLibrary::paper_synthetic(lib_size).expect("nonzero library");
    let work = |t: &RoutingTree| t.node_count() * lib.len();
    let below: Vec<RoutingTree> = nets
        .iter()
        .filter(|t| work(t) < 2 * par::GRAIN)
        .cloned()
        .collect();
    nets.truncate(top);
    let total_sites: usize = nets.iter().map(|t| t.buffer_site_count()).sum();
    let largest = nets.first().map(|t| t.buffer_site_count()).unwrap_or(0);
    println!(
        "# kernel throughput: {} largest suite nets ({} total buffer positions, largest {}), \
         library {}, {} hardware threads, grain {}\n",
        nets.len(),
        total_sites,
        largest,
        lib_size,
        par::hardware_threads(),
        par::GRAIN,
    );

    // Every config solves every net one at a time (single-net solves, not
    // a batch pool: this measures the kernel). With more than one
    // intra-net worker the calling thread blocks while workers run, so
    // those configs report wall time only.
    let configs = [("slab@1", 1usize), ("slab@2", 2), ("slab@4", 4)];
    let mut runs = Vec::new();
    for (group, nets) in [("above", &nets), ("below", &below)] {
        if nets.is_empty() {
            continue;
        }
        let mut forks = vec![0u64; configs.len()];
        let arms = configs
            .iter()
            .zip(&mut forks)
            .map(|(&(_, workers), forks)| {
                let lib = &lib;
                let run = move |w: &mut Stopwatch| {
                    *forks = w.time(|| {
                        let mut forks = 0;
                        for tree in nets {
                            let sol = Solver::new(tree, lib)
                                .algorithm(algo)
                                .track_predecessors(false)
                                .intra_net_workers(workers)
                                .solve();
                            std::hint::black_box(sol.slack);
                            forks += sol.stats.parallel_subtrees;
                        }
                        forks
                    });
                };
                if workers == 1 {
                    Arm::new(run)
                } else {
                    Arm::wall_only(run)
                }
            })
            .collect();
        let timed = time_arms(arms, repeats);
        let base = timed[0].secs();
        for ((&(name, workers), t), forks) in configs.iter().zip(&timed).zip(&forks) {
            let secs = t.secs();
            let solves_per_sec = nets.len() as f64 / secs;
            let mut run = Json::obj([
                ("config", name.into()),
                ("group", group.into()),
                ("max_work", nets.iter().map(work).max().unwrap_or(0).into()),
                ("intra_net_workers", workers.into()),
                ("forks", fixed(*forks as f64 / nets.len() as f64, 1)),
                ("solves_per_sec", fixed(solves_per_sec, 2)),
                ("speedup_vs_1_worker", fixed(base / secs, 3)),
            ]);
            t.record(&mut run, "");
            runs.push(run);
        }
    }
    print_runs(
        &runs,
        "config group max_work forks solves_per_sec speedup_vs_1_worker secs median_secs cpu_secs",
    );

    write_bench(
        &out,
        [
            ("nets", nets.len().into()),
            ("largest_sites", largest.into()),
            ("total_sites", total_sites.into()),
            ("below_nets", below.len().into()),
            ("library", lib_size.into()),
            ("algorithm", algo.to_string().into()),
            ("seed", seed.into()),
            ("repeats", repeats.into()),
            ("grain", par::GRAIN.into()),
        ],
        runs,
    );
}
