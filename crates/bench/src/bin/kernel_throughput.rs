//! Kernel throughput: the DP kernel (the struct-of-arrays candidate slab)
//! single-threaded, plus intra-net subtree scaling.
//!
//! Solves the largest nets of one reproducible `netgen::SuiteSpec` suite
//! single-net at a time and reports solves/sec for:
//!
//! * `slab@1` — single-threaded, the baseline of the other rows;
//! * `slab@2`, `slab@4` — 2 and 4 intra-net workers solving sibling
//!   subtrees concurrently (bit-identical results at every count; on a
//!   machine with fewer hardware threads these rows record the
//!   scheduling overhead honestly).
//!
//! Results go to `BENCH_kernel.json` (current directory) together with
//! `hw_threads` so the scaling rows are self-describing.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin kernel_throughput --
//!       [--nets N] [--max-sinks M] [--top K] [--seed S] [--repeats R]
//!       [--lib B] [--out FILE] [--quick]`

use std::time::{Duration, Instant};

use fastbuf_api::wire::Json;
use fastbuf_bench::{fixed, fmt_duration, print_table, write_bench};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{Algorithm, Solver};
use fastbuf_netgen::SuiteSpec;
use fastbuf_rctree::RoutingTree;

struct Options {
    nets: usize,
    max_sinks: usize,
    top: usize,
    seed: u64,
    repeats: usize,
    lib: usize,
    algo: Algorithm,
    out: String,
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: kernel_throughput [--nets N] [--max-sinks M] [--top K] [--seed S] \
         [--repeats R] [--lib B] [--algo A] [--out FILE] [--quick]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn parse_args() -> Options {
    // Defaults reproduce the committed `BENCH_kernel.json`: the two
    // largest nets of a 48-net suite (candidate lists long enough for
    // lane-wise sweeps to matter) against the paper's largest Table 1
    // library, b = 64.
    let mut opts = Options {
        nets: 48,
        max_sinks: 2048,
        top: 2,
        seed: 7,
        repeats: 15,
        lib: 64,
        algo: Algorithm::LiShi,
        out: "BENCH_kernel.json".to_owned(),
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
            "--top" => {
                opts.top = next("--top needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --top"))
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
            "--algo" => {
                opts.algo = next("--algo needs a value")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --algo"))
            }
            "--out" => opts.out = next("--out needs a value"),
            "--quick" => {
                // CI smoke size: run the real pipeline in seconds.
                opts.nets = 8;
                opts.max_sinks = 48;
                opts.top = 2;
                opts.repeats = 1;
                opts.lib = 8;
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if opts.repeats == 0 || opts.nets == 0 || opts.top == 0 {
        usage("--repeats, --nets, and --top must be at least 1");
    }
    if opts.max_sinks < 8 {
        usage("--max-sinks must be at least 8");
    }
    if opts.lib == 0 {
        usage("--lib must be at least 1");
    }
    opts
}

/// One timed configuration: how many intra-net workers.
struct Config {
    name: &'static str,
    workers: usize,
}

/// Fastest-of-`repeats` time per config to solve every net in `nets` one
/// at a time (single-net solves, not a batch pool — this measures the
/// kernel).
///
/// The configs are timed **interleaved**: each repeat runs every config
/// once, round-robin, and each config keeps its own minimum. Timing them
/// back-to-back instead would hand the earlier configs whatever thermal
/// and frequency headroom the machine started with and charge the decay
/// to the later ones; interleaving spreads machine drift evenly, so the
/// recorded ratios survive a busy host.
///
/// Per repeat each config records wall time and, when the OS exposes
/// per-thread on-CPU accounting, the solving thread's on-CPU time (immune
/// to preemption, though not to frequency drift). With more than one
/// intra-net worker the solving thread blocks while workers run, so only
/// wall time is meaningful and the on-CPU reading is skipped.
fn time_configs(
    nets: &[RoutingTree],
    lib: &BufferLibrary,
    configs: &[Config],
    algo: Algorithm,
    repeats: usize,
) -> Vec<(Duration, Option<u64>)> {
    let mut best = vec![(Duration::MAX, None::<u64>); configs.len()];
    for _ in 0..repeats {
        for (cfg, slot) in configs.iter().zip(best.iter_mut()) {
            let cpu0 = fastbuf_bench::thread_cpu_ns();
            let start = Instant::now();
            for tree in nets {
                let sol = Solver::new(tree, lib)
                    .algorithm(algo)
                    .track_predecessors(false)
                    .intra_net_workers(cfg.workers)
                    .solve();
                std::hint::black_box(sol.slack);
            }
            slot.0 = slot.0.min(start.elapsed());
            if cfg.workers == 1 {
                if let (Some(a), Some(b)) = (cpu0, fastbuf_bench::thread_cpu_ns()) {
                    let spent = b.saturating_sub(a);
                    slot.1 = Some(slot.1.map_or(spent, |prev| prev.min(spent)));
                }
            }
        }
    }
    best
}

fn main() {
    let opts = parse_args();
    let suite = SuiteSpec {
        nets: opts.nets,
        max_sinks: opts.max_sinks,
        seed: opts.seed,
        ..SuiteSpec::default()
    };
    // Largest-first: the kernel numbers should come from the heavy tail
    // of the suite, where candidate lists are long enough to matter.
    let mut nets = suite.build();
    nets.sort_by_key(|t| std::cmp::Reverse(t.buffer_site_count()));
    nets.truncate(opts.top);
    let lib = BufferLibrary::paper_synthetic(opts.lib).expect("nonzero library");
    let total_sites: usize = nets.iter().map(|t| t.buffer_site_count()).sum();
    let largest = nets.first().map(|t| t.buffer_site_count()).unwrap_or(0);
    println!(
        "# kernel throughput: {} largest suite nets ({} total buffer positions, largest {}), \
         library {}, {} hardware threads\n",
        nets.len(),
        total_sites,
        largest,
        opts.lib,
        fastbuf_bench::hw_threads(),
    );

    let configs = [("slab@1", 1), ("slab@2", 2), ("slab@4", 4)]
        .map(|(name, workers)| Config { name, workers });
    let (mut rows, mut runs) = (Vec::new(), Vec::new());
    let timed = time_configs(&nets, &lib, &configs, opts.algo, opts.repeats);
    let base = timed[0].0.as_secs_f64();
    for (cfg, (best, best_cpu)) in configs.iter().zip(timed) {
        let secs = best.as_secs_f64();
        let cpu_secs = best_cpu.map(|ns| ns as f64 / 1e9);
        let solves_per_sec = nets.len() as f64 / secs;
        rows.push(vec![
            cfg.name.to_owned(),
            fmt_duration(best),
            format!("{solves_per_sec:.1}"),
            format!("{:.2}x", base / secs),
            cpu_secs.map_or("-".to_owned(), |c| format!("{:.3} ms", c * 1e3)),
        ]);
        let mut run = Json::obj([
            ("config", cfg.name.into()),
            ("intra_net_workers", cfg.workers.into()),
            ("secs", fixed(secs, 6)),
            ("solves_per_sec", fixed(solves_per_sec, 2)),
            ("speedup_vs_1_worker", fixed(base / secs, 3)),
        ]);
        if let Some(cpu) = cpu_secs {
            run.push("cpu_secs", fixed(cpu, 6));
        }
        runs.push(run);
    }
    print_table(
        &[
            "config",
            "wall time",
            "solves/sec",
            "speedup vs slab@1",
            "on-cpu time",
        ],
        &rows,
    );

    write_bench(
        &opts.out,
        [
            ("nets", nets.len().into()),
            ("largest_sites", largest.into()),
            ("total_sites", total_sites.into()),
            ("library", opts.lib.into()),
            ("algorithm", opts.algo.to_string().into()),
            ("seed", opts.seed.into()),
            ("repeats", opts.repeats.into()),
        ],
        runs,
    );
}
