//! Batch throughput: nets/sec of `fastbuf-batch` vs worker count.
//!
//! Solves one reproducible heavy-tailed net suite (`netgen::SuiteSpec`)
//! with 1, 2, 4, and 8 workers, prints a table, and records the numbers in
//! `BENCH_batch.json` (written to the current directory) so successive
//! runs can be compared. Speedup is relative to the 1-worker run; on a
//! single-core machine all rows will be ~1×, which the JSON records
//! honestly together with the machine's available parallelism.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin batch_throughput --
//!       [--nets N] [--max-sinks M] [--seed S] [--repeats K] [--out FILE]
//!       [--quick]`

use std::time::Duration;

use fastbuf_api::wire::Json;
use fastbuf_batch::BatchSolver;
use fastbuf_bench::{fixed, fmt_duration, print_table, write_bench};
use fastbuf_buflib::BufferLibrary;
use fastbuf_netgen::SuiteSpec;

struct Options {
    nets: usize,
    max_sinks: usize,
    seed: u64,
    repeats: usize,
    out: String,
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: batch_throughput [--nets N] [--max-sinks M] [--seed S] [--repeats K] [--out FILE] [--quick]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn parse_args() -> Options {
    let mut opts = Options {
        nets: 100,
        max_sinks: 128,
        seed: 1,
        repeats: 3,
        out: "BENCH_batch.json".to_owned(),
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
            "--out" => opts.out = next("--out needs a value"),
            "--quick" => {
                // CI smoke size: run the real pipeline in seconds.
                opts.nets = 16;
                opts.max_sinks = 24;
                opts.repeats = 1;
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if opts.repeats == 0 {
        usage("--repeats must be at least 1");
    }
    if opts.nets == 0 {
        usage("--nets must be at least 1");
    }
    if opts.max_sinks < 8 {
        usage("--max-sinks must be at least 8");
    }
    opts
}

fn main() {
    let opts = parse_args();
    let suite = SuiteSpec {
        nets: opts.nets,
        max_sinks: opts.max_sinks,
        seed: opts.seed,
        ..SuiteSpec::default()
    };
    let nets = suite.build();
    let lib = BufferLibrary::paper_synthetic(16).expect("nonzero library");
    let total_sites: usize = nets.iter().map(|t| t.buffer_site_count()).sum();
    println!(
        "# batch throughput: {} nets, {} total buffer positions, {} hardware threads\n",
        nets.len(),
        total_sites,
        fastbuf_bench::hw_threads()
    );

    let worker_counts = [1usize, 2, 4, 8];
    let (mut rows, mut runs) = (Vec::new(), Vec::new());
    let mut base_secs = None;
    for &workers in &worker_counts {
        // Fastest of `repeats` runs, like the paper-reproduction harnesses.
        let mut best = Duration::MAX;
        let mut nets_per_sec = 0.0;
        for _ in 0..opts.repeats {
            let report = BatchSolver::new(&nets, &lib)
                .workers(workers)
                .track_predecessors(false)
                .solve();
            if report.elapsed < best {
                best = report.elapsed;
                nets_per_sec = report.nets_per_sec();
            }
        }
        let secs = best.as_secs_f64();
        let base = *base_secs.get_or_insert(secs);
        rows.push(vec![
            workers.to_string(),
            fmt_duration(best),
            format!("{nets_per_sec:.0}"),
            format!("{:.2}x", base / secs),
        ]);
        runs.push(Json::obj([
            ("workers", workers.into()),
            ("secs", fixed(secs, 6)),
            ("nets_per_sec", fixed(nets_per_sec, 2)),
            ("speedup", fixed(base / secs, 3)),
        ]));
    }
    print_table(&["workers", "wall time", "nets/sec", "speedup vs 1"], &rows);

    write_bench(
        &opts.out,
        [
            ("nets", nets.len().into()),
            ("total_sites", total_sites.into()),
            ("seed", opts.seed.into()),
            ("repeats", opts.repeats.into()),
        ],
        runs,
    );
}
