//! Shared infrastructure for the benchmark harnesses reproducing the
//! evaluation section of Li & Shi, DATE 2005.
//!
//! Binaries (run with `cargo run --release -p fastbuf-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | Table 1 — runtime of Lillis vs Li–Shi on three nets × library sizes {8, 16, 32, 64} |
//! | `fig3` | Figure 3 — normalized runtime vs library size `b` on the 1944-sink net |
//! | `fig4` | Figure 4 — normalized runtime vs buffer positions `n` at `b = 32` |
//! | `ablation_pruning` | scratch-hull vs paper's permanent convex pruning (runtime + slack gap) |
//! | `ablation_counters` | machine-independent `AddBuffer` work counters vs `b` |
//! | `clustering_quality` | library clustering (Alpert et al.) quality loss vs solving the full library |
//! | `cost_frontier` | slack-vs-cost Pareto frontier (the paper's cost extension) |
//! | `batch_throughput` | nets/sec of the `fastbuf-batch` worker pool at 1/2/4/8 workers (writes `BENCH_batch.json`) |
//! | `slew_sweep` | slack / buffer-count / feasibility trade-off vs the per-net slew limit (writes `BENCH_slew.json`) |
//! | `scenario_throughput` | corner-solves/sec of the `fastbuf-api` request layer vs independent legacy solves at 1/2/4 corners (writes `BENCH_scenarios.json`) |
//! | `eco_speedup` | incremental vs from-scratch solves/sec under edit scripts at 1/10/50% locality (writes `BENCH_eco.json`) |
//! | `server_throughput` | requests/sec of the resident `fastbuf serve` daemon at 1/2/4/8 concurrent clients, warm session vs cold per-request process spawn (writes `BENCH_server.json`) |
//! | `variation_throughput` | Monte-Carlo samples/sec, family-cached vs per-sample scratch solves (writes `BENCH_variation.json`) |
//! | `kernel_throughput` | single-net solves/sec of the slab kernel and its intra-net subtree scaling at 1/2/4 workers (writes `BENCH_kernel.json`) |
//! | `global_convergence` | pricing-loop iterations to feasibility and net-solves/sec, warm vs scratch inner solves (writes `BENCH_global.json`) |
//! | `cts_quality` | skew and slack of the clock-tree pipeline across sink counts, unbounded and at half the skew (writes `BENCH_cts.json`) |
//!
//! The paper-reproduction harnesses (the first seven rows) accept
//! `--scale <f>` (shrink sink counts for quick runs; default 0.25) or
//! `--full` (exact paper sizes), plus `--repeats <k>`. The nine
//! `BENCH_*.json` writers take their own flags plus `--quick`, a
//! seconds-scale smoke size used by CI, and write their file through
//! [`write_bench`].
//!
//! Criterion micro-benchmarks for the individual DP operations live in
//! `benches/`.

use std::time::{Duration, Instant};

use fastbuf_api::wire::Json;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{Algorithm, Solution, Solver};
use fastbuf_netgen::RandomNetSpec;
use fastbuf_rctree::RoutingTree;

/// Sink counts of the paper's three industrial nets.
pub const PAPER_SINKS: [usize; 3] = [337, 1944, 2676];

/// Library sizes of the paper's Table 1 / Figure 3.
pub const PAPER_LIB_SIZES: [usize; 4] = [8, 16, 32, 64];

/// Buffer-position count of the paper's 1944-sink net (Figure 3/4 caption).
pub const PAPER_POSITIONS_1944: usize = 33_133;

/// Common command-line options of the harness binaries.
#[derive(Clone, Debug)]
pub struct HarnessOptions {
    /// Multiplier on the paper's sink counts (1.0 = full scale).
    pub scale: f64,
    /// Timing repetitions (fastest run is reported).
    pub repeats: usize,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions {
            scale: 0.25,
            repeats: 1,
        }
    }
}

impl HarnessOptions {
    /// Parses `--scale <f>`, `--full`, `--repeats <k>` from `std::env::args`.
    /// Exits with a usage message on unknown flags.
    pub fn from_args() -> Self {
        let mut opts = HarnessOptions::default();
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--full" => opts.scale = 1.0,
                "--scale" => {
                    opts.scale = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--scale needs a number"));
                }
                "--repeats" => {
                    opts.repeats = args
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--repeats needs an integer"));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag `{other}`")),
            }
        }
        opts
    }

    /// A paper sink count scaled by `--scale` (at least 8 sinks).
    pub fn sinks(&self, paper_m: usize) -> usize {
        ((paper_m as f64 * self.scale) as usize).max(8)
    }

    /// The paper position count scaled by `--scale` (at least 64).
    pub fn positions(&self, paper_n: usize) -> usize {
        ((paper_n as f64 * self.scale) as usize).max(64)
    }
}

/// Hardware thread count of the machine running the benchmark, as stamped
/// into every `BENCH_*.json` so recorded numbers are self-describing (a
/// 1-thread container and a 32-thread workstation produce very different
/// scaling rows). Falls back to 1 when the OS cannot say.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Writes a `BENCH_*.json` file in the one schema every recording harness
/// shares (and CI validates): `hw_threads` first, then the harness's own
/// `header` members, then its `runs` array, printed by
/// [`Json::to_pretty`]. A write failure is a warning, not an abort: the
/// table on stdout is still the result.
pub fn write_bench<'k>(
    path: &str,
    header: impl IntoIterator<Item = (&'k str, Json)>,
    runs: Vec<Json>,
) {
    let mut doc = Json::obj([("hw_threads", hw_threads().into())]);
    for (key, value) in header {
        doc.push(key, value);
    }
    doc.push("runs", runs);
    match std::fs::write(path, doc.to_pretty()) {
        Ok(()) => println!("\nrecorded to {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

/// `x` rounded to `decimals` places, the precision a BENCH file records
/// (its shortest form then prints at most that many decimals).
pub fn fixed(x: f64, decimals: i32) -> Json {
    let scale = 10f64.powi(decimals);
    Json::Num((x * scale).round() / scale)
}

/// Nanoseconds the calling thread has spent on-CPU
/// (`clock_gettime(CLOCK_THREAD_CPUTIME_ID)`). Unlike wall clocks this is
/// immune to preemption by other tenants of a shared machine, so
/// single-threaded kernel comparisons stay meaningful under load. The
/// workspace links no libc, so on x86_64 Linux the clock is read with a
/// raw `clock_gettime` syscall; elsewhere this returns `None` and callers
/// should fall back to wall time.
pub fn thread_cpu_ns() -> Option<u64> {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SYS_CLOCK_GETTIME: i64 = 228;
        const CLOCK_THREAD_CPUTIME_ID: i64 = 3;
        let mut ts = [0i64; 2]; // struct timespec { tv_sec, tv_nsec }
        let ret: i64;
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") SYS_CLOCK_GETTIME => ret,
                in("rdi") CLOCK_THREAD_CPUTIME_ID,
                in("rsi") ts.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        (ret == 0).then(|| ts[0] as u64 * 1_000_000_000 + ts[1] as u64)
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        None
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: <harness> [--full | --scale <f>] [--repeats <k>]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

/// Builds the synthetic stand-in for one of the paper's nets with a target
/// buffer-position count (defaults to paper density when `None`).
pub fn paper_net(sinks: usize, positions: Option<usize>) -> RoutingTree {
    let spec = RandomNetSpec::paper(sinks);
    match positions {
        None => spec.build(),
        Some(n) => spec.with_target_positions(n).build(),
    }
}

/// Times `algorithm` on `(tree, lib)` with predecessor tracking off (pure
/// DP timing, matching how the paper measures) and returns the fastest of
/// `repeats` runs together with the last solution.
pub fn time_solve(
    tree: &RoutingTree,
    lib: &BufferLibrary,
    algorithm: Algorithm,
    repeats: usize,
) -> (Duration, Solution) {
    assert!(repeats > 0, "at least one repetition required");
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let sol = Solver::new(tree, lib)
            .algorithm(algorithm)
            .track_predecessors(false)
            .solve();
        best = best.min(start.elapsed());
        last = Some(sol);
    }
    (best, last.expect("repeats > 0"))
}

/// Formats a duration in engineering style (`412 us`, `1.73 s`).
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.0} us", s * 1e6)
    }
}

/// Prints a markdown table: a header row then aligned rows.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:>w$} |", c, w = widths[i]));
        }
        println!("{s}");
    };
    line(header.iter().map(|s| s.to_string()).collect());
    println!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    );
    for row in rows {
        line(row.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_net_respects_target_positions() {
        let t = paper_net(64, Some(600));
        let got = t.buffer_site_count();
        assert!((got as f64 - 600.0).abs() / 600.0 < 0.3, "got {got}");
    }

    #[test]
    fn time_solve_returns_solution() {
        let t = paper_net(16, Some(100));
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let (d, sol) = time_solve(&t, &lib, Algorithm::LiShi, 2);
        assert!(d > Duration::ZERO);
        assert!(!sol.tracked);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(412)), "412 us");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_secs_f64(1.734)), "1.73 s");
    }

    #[test]
    fn fixed_rounds_to_the_recorded_precision() {
        assert_eq!(fixed(0.004_170_99, 6).to_json(), "0.004171");
        assert_eq!(fixed(1.0, 3).to_json(), "1");
        assert_eq!(fixed(23977.164, 2).to_json(), "23977.16");
        assert_eq!(fixed(f64::INFINITY, 1).to_json(), "null");
    }

    #[test]
    fn scaled_sizes() {
        let o = HarnessOptions {
            scale: 0.25,
            repeats: 1,
        };
        assert_eq!(o.sinks(1944), 486);
        assert_eq!(o.sinks(8), 8);
        assert_eq!(o.positions(33_133), 8283);
    }
}
