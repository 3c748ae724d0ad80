//! Kernel throughput: the DP kernel (the struct-of-arrays candidate slab)
//! on one thread.
//!
//! Solves the `--top` largest nets of one reproducible `netgen::SuiteSpec`
//! suite single-net at a time, predecessor tracking off, and reports
//! `slab@1` solves/sec with best and median wall and on-CPU times. At
//! the defaults (two 1,802- and 1,444-site nets, b = 64) this is the
//! kernel's heaviest per-node `AddBuffer` load.
//!
//! Results go to `BENCH_kernel.json` (current directory) together with
//! `hw_threads`.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin kernel_throughput --
//!       [--nets N] [--max-sinks M] [--top K] [--seed S] [--repeats R]
//!       [--lib B] [--algo A] [--out FILE] [--quick]`

use fastbuf_api::wire::Json;
use fastbuf_bench::{at_least, fixed, options, print_runs, time_arms, write_bench, Arm, Stopwatch};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{Algorithm, Solver};
use fastbuf_netgen::SuiteSpec;

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
    nets.truncate(top);
    let total_sites: usize = nets.iter().map(|t| t.buffer_site_count()).sum();
    let largest = nets.first().map(|t| t.buffer_site_count()).unwrap_or(0);
    println!(
        "# kernel throughput: {} largest suite nets ({} total buffer positions, largest {}), \
         library {}\n",
        nets.len(),
        total_sites,
        largest,
        lib_size,
    );

    // Single-net solves on the calling thread, not a batch pool: this
    // measures the kernel.
    let timed = time_arms(
        vec![Arm::new(|w: &mut Stopwatch| {
            w.time(|| {
                for tree in &nets {
                    let sol = Solver::new(tree, &lib)
                        .algorithm(algo)
                        .track_predecessors(false)
                        .solve();
                    std::hint::black_box(sol.slack);
                }
            })
        })],
        repeats,
    );
    let mut run = Json::obj([
        ("config", "slab@1".into()),
        (
            "solves_per_sec",
            fixed(nets.len() as f64 / timed[0].secs(), 2),
        ),
    ]);
    timed[0].record(&mut run, "");
    let runs = vec![run];
    print_runs(&runs, "config solves_per_sec secs median_secs cpu_secs");

    write_bench(
        &out,
        [
            ("nets", nets.len().into()),
            ("largest_sites", largest.into()),
            ("total_sites", total_sites.into()),
            ("library", lib_size.into()),
            ("algorithm", algo.to_string().into()),
            ("seed", seed.into()),
            ("repeats", repeats.into()),
        ],
        runs,
    );
}
