//! Shared infrastructure for the benchmark harnesses reproducing the
//! evaluation section of Li & Shi, DATE 2005.
//!
//! Binaries (run with `cargo run --release -p fastbuf-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `paper` | Table 1 (three nets × b ∈ {8, 16, 32, 64}), the Figure 3 sweep over `b`, the Figure 4 sweep over `n` and twelve permanent-pruning nets: Lillis vs Li–Shi wall and on-CPU time, `AddBuffer` work, mean `k`, slab counters and the fitted log–log slopes (writes `BENCH_paper.json`; exits 1 if any row's Lillis and Li–Shi bits differ) |
//! | `slew_sweep` | slack / buffer-count / feasibility trade-off vs the per-net slew limit (writes `BENCH_slew.json`) |
//! | `scenario_throughput` | corner-solves/sec of the `fastbuf-api` request layer vs its flipped fan-out decision and independent legacy solves at 1/2/4 corners, suites of up to 24/96/384 sinks split by `par::workers` (writes `BENCH_scenarios.json`) |
//! | `eco_speedup` | incremental vs from-scratch solves/sec under edit scripts at 1/10/50% locality (writes `BENCH_eco.json`) |
//! | `server_throughput` | requests/sec of the resident `fastbuf serve` daemon at 1/2/4/8 concurrent clients, warm session vs cold per-request process spawn (writes `BENCH_server.json`) |
//! | `variation_throughput` | Monte-Carlo samples/sec, family-cached vs per-sample scratch solves (writes `BENCH_variation.json`) |
//! | `kernel_throughput` | single-net solves/sec of the slab kernel and its intra-net subtree scaling at caps 1/2/4, on nets above and below `par::GRAIN` (writes `BENCH_kernel.json`) |
//! | `global_convergence` | pricing-loop iterations to feasibility and net-solves/sec, warm vs scratch inner solves (writes `BENCH_global.json`) |
//! | `cts_quality` | skew and slack of the clock-tree pipeline across sink counts, unbounded and at half the skew (writes `BENCH_cts.json`) |
//!
//! `paper` accepts `--scale <f>` (shrink sink counts for quick runs;
//! default 0.25) or `--full` (exact paper sizes), plus `--repeats <k>`
//! (default 3). The other `BENCH_*.json` writers take
//! their own flags plus `--quick`, a seconds-scale smoke size used by CI
//! (a flag given explicitly beats `--quick`), and `--out FILE`. Every
//! writer writes its file through [`write_bench`].
//!
//! Every harness parses its command line through [`options`] (the CLI's
//! [`Flags`]: `--help` exits 0, any flag error prints the usage and exits
//! 2) and times through one core, [`time_arms`]: the compared arms run
//! round-robin, each repeat runs every arm once, and each arm reports the
//! best and median of its wall times and, when it runs on the calling
//! thread, of its on-CPU times.

use std::fmt::Display;
use std::str::FromStr;
use std::time::{Duration, Instant};

use fastbuf_api::wire::Json;
use fastbuf_buflib::BufferLibrary;
use fastbuf_cli::args::Flags;
use fastbuf_core::{par, Algorithm, Solution, Solver};
use fastbuf_netgen::RandomNetSpec;
use fastbuf_rctree::RoutingTree;

/// Interleaved repeats of the harnesses that take no `--repeats` flag.
pub const REPEATS: usize = 5;

/// Sink counts of the paper's three industrial nets.
pub const PAPER_SINKS: [usize; 3] = [337, 1944, 2676];

/// Library sizes of the paper's Table 1 / Figure 3.
pub const PAPER_LIB_SIZES: [usize; 4] = [8, 16, 32, 64];

/// Buffer-position count of the paper's 1944-sink net (Figure 3/4 caption).
pub const PAPER_POSITIONS_1944: usize = 33_133;

/// Why a command line produced no options.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgsError {
    /// `--help` or `-h` was given.
    Help,
    /// A flag is unknown, repeated, missing its value, unparsable or out
    /// of range.
    Usage(String),
}

/// The value of `--name` parsed as `T` (or `default`), which must be at
/// least `min`.
///
/// # Errors
///
/// An unparsable value or one below `min`.
pub fn at_least<T: FromStr + PartialOrd + Display>(
    flags: &Flags,
    name: &str,
    default: T,
    min: T,
) -> Result<T, String> {
    let v = flags.parsed_or(name, default)?;
    if v < min {
        return Err(format!("--{name} must be at least {min}, got {v}"));
    }
    Ok(v)
}

/// Parses `argv` (without the program name) against the value flags and
/// switches a harness accepts (each a whitespace-separated list of names
/// without `--`), then builds its options with `build`.
///
/// # Errors
///
/// [`ArgsError::Help`] when `--help`/`-h` is present; otherwise
/// [`ArgsError::Usage`] for any error of [`Flags::parse`] or of `build`.
pub fn parse_options<T>(
    argv: &[String],
    values: &str,
    switches: &str,
    build: impl FnOnce(&Flags) -> Result<T, String>,
) -> Result<T, ArgsError> {
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        return Err(ArgsError::Help);
    }
    let values: Vec<&str> = values.split_whitespace().collect();
    let switches: Vec<&str> = switches.split_whitespace().collect();
    let flags = Flags::parse(argv, &values, &switches);
    build(&flags.map_err(ArgsError::Usage)?).map_err(ArgsError::Usage)
}

/// [`parse_options`] over `std::env::args`: `--help` prints `usage` and
/// exits 0; a flag error prints it and `usage` and exits 2.
pub fn options<T>(
    usage: &str,
    values: &str,
    switches: &str,
    build: impl FnOnce(&Flags) -> Result<T, String>,
) -> T {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_options(&argv, values, switches, build) {
        Ok(opts) => opts,
        Err(ArgsError::Help) => {
            eprintln!("usage: {usage}");
            std::process::exit(0)
        }
        Err(ArgsError::Usage(msg)) => {
            eprintln!("error: {msg}\nusage: {usage}");
            std::process::exit(2)
        }
    }
}

/// Command-line options of the paper-scale harness (`paper`).
#[derive(Clone, Debug)]
pub struct HarnessOptions {
    /// Multiplier on the paper's sink counts (1.0 = full scale).
    pub scale: f64,
    /// Interleaved timing repetitions (best and median are reported).
    pub repeats: usize,
}

impl HarnessOptions {
    /// Parses `--scale <f>`, `--full`, `--repeats <k>` from
    /// `std::env::args` through [`options`].
    pub fn from_args() -> Self {
        options(
            "<harness> [--full | --scale <f>] [--repeats <k>]",
            "scale repeats",
            "full",
            HarnessOptions::parse,
        )
    }

    fn parse(flags: &Flags) -> Result<Self, String> {
        let scale = match (flags.switch("full"), flags.value("scale")) {
            (true, Some(_)) => return Err("give --full or --scale, not both".into()),
            (true, None) => 1.0,
            (false, _) => flags.parsed_or("scale", 0.25)?,
        };
        let repeats = at_least(flags, "repeats", 3, 1)?;
        Ok(HarnessOptions { scale, repeats })
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

/// Handed to an [`Arm`] on every repeat: the arm does its untimed setup,
/// then wraps exactly the work to measure in [`Stopwatch::time`].
#[derive(Default)]
pub struct Stopwatch {
    wall: Option<Duration>,
    cpu: Option<Duration>,
}

impl Stopwatch {
    /// Runs and times `work`, returning its result.
    ///
    /// # Panics
    ///
    /// If called twice in one repeat of an arm.
    pub fn time<R>(&mut self, work: impl FnOnce() -> R) -> R {
        assert!(self.wall.is_none(), "an arm times one span per repeat");
        let cpu0 = thread_cpu_ns();
        let start = Instant::now();
        let out = work();
        self.wall = Some(start.elapsed());
        self.cpu = cpu0
            .zip(thread_cpu_ns())
            .map(|(a, b)| Duration::from_nanos(b.saturating_sub(a)));
        out
    }
}

/// One of the configurations [`time_arms`] compares.
pub struct Arm<'a> {
    on_caller: bool,
    run: Box<dyn FnMut(&mut Stopwatch) + 'a>,
}

impl<'a> Arm<'a> {
    /// An arm whose timed work runs on the calling thread: wall and
    /// on-CPU times are reported.
    pub fn new(run: impl FnMut(&mut Stopwatch) + 'a) -> Self {
        Arm {
            on_caller: true,
            run: Box::new(run),
        }
    }

    /// An arm whose work also runs on other threads or processes (worker
    /// pools, clients, child processes), so the calling thread's on-CPU
    /// time says nothing: only wall time is reported.
    pub fn wall_only(run: impl FnMut(&mut Stopwatch) + 'a) -> Self {
        Arm {
            on_caller: false,
            ..Arm::new(run)
        }
    }
}

/// Best and median of one clock's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The fastest sample.
    pub best: Duration,
    /// The median sample (the lower middle one for an even count).
    pub median: Duration,
}

impl Spread {
    fn of(mut samples: Vec<Duration>) -> Spread {
        samples.sort();
        Spread {
            best: samples[0],
            median: samples[(samples.len() - 1) / 2],
        }
    }
}

/// What [`time_arms`] measured for one arm.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timing {
    /// Wall-clock time.
    pub wall: Spread,
    /// On-CPU time of the calling thread; `None` for a
    /// [`Arm::wall_only`] arm or where the OS cannot say.
    pub cpu: Option<Spread>,
}

impl Timing {
    /// The best wall time in seconds, the figure rates and ratios use.
    pub fn secs(&self) -> f64 {
        self.wall.best.as_secs_f64()
    }

    /// Appends `{prefix}secs` and `{prefix}median_secs` and, when
    /// measured, `{prefix}cpu_secs` and `{prefix}cpu_median_secs` to a
    /// BENCH row (seconds, 6 decimals; best, then median).
    pub fn record(&self, row: &mut Json, prefix: &str) {
        let clocks = [("", Some(self.wall)), ("cpu_", self.cpu)];
        for (clock, s) in clocks.into_iter().filter_map(|(c, s)| Some((c, s?))) {
            for (stat, d) in [("", s.best), ("median_", s.median)] {
                let secs = fixed(d.as_secs_f64(), 6);
                row.push(&format!("{prefix}{clock}{stat}secs"), secs);
            }
        }
    }
}

/// The one timing core of every harness: runs the arms round-robin for
/// `repeats` rounds (each round runs every arm once, in order) and
/// returns one [`Timing`] per arm, in arm order.
///
/// Interleaving spreads machine drift (thermal and frequency headroom, a
/// noisy neighbour) evenly over the arms instead of charging it to
/// whichever ran last. Only the span an arm wraps in
/// [`Stopwatch::time`] is measured, so per-repeat setup (building a
/// solver, warming a cache) stays out of the numbers.
///
/// # Panics
///
/// If `repeats == 0` or an arm does not call [`Stopwatch::time`] exactly
/// once per repeat.
pub fn time_arms(mut arms: Vec<Arm<'_>>, repeats: usize) -> Vec<Timing> {
    assert!(repeats > 0, "at least one repetition required");
    let mut samples = vec![(Vec::new(), Vec::new()); arms.len()];
    for _ in 0..repeats {
        for (arm, (wall, cpu)) in arms.iter_mut().zip(&mut samples) {
            let mut watch = Stopwatch::default();
            (arm.run)(&mut watch);
            wall.push(watch.wall.expect("an arm must call Stopwatch::time"));
            cpu.extend(watch.cpu.filter(|_| arm.on_caller));
        }
    }
    samples
        .into_iter()
        .map(|(wall, cpu)| Timing {
            wall: Spread::of(wall),
            cpu: (cpu.len() == repeats).then(|| Spread::of(cpu)),
        })
        .collect()
}

/// [`time_arms`] over one arm per item: each repeat of an item's arm
/// calls `run(item, stopwatch)`. Returns each item's timing with the
/// result of its last repeat. `on_caller` says whether `run`'s timed work
/// stays on the calling thread (see [`Arm::new`] and [`Arm::wall_only`]).
pub fn time_each<'a, I, R>(
    items: &'a [I],
    on_caller: bool,
    repeats: usize,
    run: impl Fn(&'a I, &mut Stopwatch) -> R,
) -> Vec<(Timing, R)> {
    let mut last: Vec<Option<R>> = items.iter().map(|_| None).collect();
    let run = &run;
    let arms = items.iter().zip(&mut last).map(|(item, slot)| Arm {
        on_caller,
        run: Box::new(move |w: &mut Stopwatch| *slot = Some(run(item, w))),
    });
    let timings = time_arms(arms.collect(), repeats);
    let results = last.into_iter().map(|r| r.expect("every arm ran"));
    timings.into_iter().zip(results).collect()
}

/// Times one untracked solve of `tree` per `(library, algorithm)` entry
/// (predecessor tracking off: pure DP time, as the paper measures), the
/// entries interleaved through [`time_each`], and returns each entry's
/// timing with its last solution.
pub fn time_solves(
    tree: &RoutingTree,
    solves: &[(&BufferLibrary, Algorithm)],
    repeats: usize,
) -> Vec<(Timing, Solution)> {
    time_each(solves, true, repeats, |&(lib, algo), w| {
        let solver = Solver::new(tree, lib).algorithm(algo);
        let solver = solver.track_predecessors(false);
        w.time(|| solver.solve())
    })
}

/// Theorem 1 in bits for one pair of solutions: every bit of the slack,
/// root `Q` and root load agrees, and so do the placements.
pub fn same_bits(a: &Solution, b: &Solution) -> bool {
    let bits = |s: &Solution| {
        [
            s.slack.value().to_bits(),
            s.root_q.value().to_bits(),
            s.root_load.value().to_bits(),
        ]
    };
    bits(a) == bits(b) && a.placements == b.placements
}

/// The least-squares slope of `ln y` against `ln x` over `(x, y)` points:
/// the exponent `k` of a runtime curve `t = c·xᵏ`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = logs.len() as f64;
    let mean_x = logs.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = logs.iter().map(|p| p.1).sum::<f64>() / n;
    let (mut sxy, mut sxx) = (0.0, 0.0);
    for (x, y) in logs {
        sxy += (x - mean_x) * (y - mean_y);
        sxx += (x - mean_x) * (x - mean_x);
    }
    sxy / sxx
}

/// Writes a `BENCH_*.json` file in the one schema every recording harness
/// shares (and CI validates): `hw_threads` first (the
/// [`par::hardware_threads`] count, so recorded numbers are
/// self-describing: a 1-thread container and a 32-thread workstation
/// produce very different scaling rows), then the harness's own
/// `header` members, then its `runs` array, printed by
/// [`Json::to_pretty`]. A write failure is a warning, not an abort: the
/// table on stdout is still the result.
pub fn write_bench<'k>(
    path: &str,
    header: impl IntoIterator<Item = (&'k str, Json)>,
    runs: Vec<Json>,
) {
    let mut doc = Json::obj([("hw_threads", par::hardware_threads().into())]);
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
/// raw `clock_gettime` syscall; elsewhere this returns `None` and
/// [`time_arms`] reports wall time only.
fn thread_cpu_ns() -> Option<u64> {
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

/// Builds the synthetic stand-in for one of the paper's nets with a target
/// buffer-position count (defaults to paper density when `None`).
pub fn paper_net(sinks: usize, positions: Option<usize>) -> RoutingTree {
    let spec = RandomNetSpec::paper(sinks);
    match positions {
        None => spec.build(),
        Some(n) => spec.with_target_positions(n).build(),
    }
}

/// Prints the `columns` (whitespace-separated keys) of a harness's BENCH
/// rows as a markdown table, so the numbers on stdout are the recorded
/// ones (a missing cell is `-`).
pub fn print_runs(runs: &[Json], columns: &str) {
    let columns: Vec<&str> = columns.split_whitespace().collect();
    let cell = |v: &Json| v.as_str().map_or_else(|| v.to_string(), str::to_owned);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let cells = columns.iter().map(|c| run.get(c).map_or("-".into(), cell));
            cells.collect()
        })
        .collect();
    print_table(&columns, &rows);
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
    use std::cell::RefCell;

    use fastbuf_buflib::units::{Farads, Seconds};
    use fastbuf_buflib::BufferTypeId;

    use super::*;

    #[test]
    fn paper_net_respects_target_positions() {
        let t = paper_net(64, Some(600));
        let got = t.buffer_site_count();
        assert!((got as f64 - 600.0).abs() / 600.0 < 0.3, "got {got}");
    }

    #[test]
    fn time_solves_returns_one_untracked_solution_per_entry() {
        let t = paper_net(16, Some(100));
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let out = time_solves(
            &t,
            &[(&lib, Algorithm::Lillis), (&lib, Algorithm::LiShi)],
            2,
        );
        assert_eq!(out.len(), 2);
        assert!(out
            .iter()
            .all(|(t, s)| t.wall.best > Duration::ZERO && !s.tracked));
        assert_eq!(
            out[0].1.slack.value().to_bits(),
            out[1].1.slack.value().to_bits()
        );
    }

    #[test]
    fn loglog_slope_recovers_the_exponent_of_a_power_law() {
        for k in [0.5, 1.0, 1.37, 2.0] {
            let points: Vec<_> = [8.0, 16.0, 24.0, 40.0, 64.0]
                .iter()
                .map(|&x: &f64| (x, 3e-3 * x.powf(k)))
                .collect();
            let slope = loglog_slope(&points);
            assert!((slope - k).abs() < 1e-12, "k = {k}: fitted {slope}");
        }
    }

    #[test]
    fn same_bits_flags_a_single_bit_in_any_checked_field() {
        let t = paper_net(16, Some(100));
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let solve = |algo| Solver::new(&t, &lib).algorithm(algo).solve();
        let (lillis, lishi) = (solve(Algorithm::Lillis), solve(Algorithm::LiShi));
        assert!(!lishi.placements.is_empty(), "the net must buffer");
        assert!(same_bits(&lillis, &lishi));
        let flip = |x: f64| f64::from_bits(x.to_bits() ^ 1);
        let mut slack = lishi.clone();
        slack.slack = Seconds::new(flip(slack.slack.value()));
        let mut root_q = lishi.clone();
        root_q.root_q = Seconds::new(flip(root_q.root_q.value()));
        let mut root_load = lishi.clone();
        root_load.root_load = Farads::new(flip(root_load.root_load.value()));
        let mut placed = lishi.clone();
        let last = placed.placements.last_mut().unwrap();
        last.buffer = BufferTypeId::new(last.buffer.index() ^ 1);
        for (field, changed) in [
            ("slack", slack),
            ("root Q", root_q),
            ("root load", root_load),
            ("placements", placed),
        ] {
            assert!(!same_bits(&lillis, &changed), "{field}");
            assert!(!same_bits(&changed, &lillis), "{field}");
        }
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

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    /// A harness-shaped option set: `--nets` defaults to 100, or 12 under
    /// `--quick`, and must be at least 1.
    fn nets_and_repeats(args: &[&str]) -> Result<(usize, usize), ArgsError> {
        parse_options(&argv(args), "nets repeats", "quick", |f| {
            let quick = f.switch("quick");
            Ok((
                at_least(f, "nets", if quick { 12 } else { 100 }, 1)?,
                at_least(f, "repeats", 3, 1)?,
            ))
        })
    }

    fn usage_error(args: &[&str]) -> String {
        match nets_and_repeats(args) {
            Err(ArgsError::Usage(msg)) => msg,
            other => panic!("{args:?}: expected a usage error, got {other:?}"),
        }
    }

    #[test]
    fn flag_helper_reads_defaults_quick_and_explicit_values() {
        assert_eq!(nets_and_repeats(&[]), Ok((100, 3)));
        assert_eq!(nets_and_repeats(&["--quick"]), Ok((12, 3)));
        // An explicit flag beats --quick, on either side of it.
        assert_eq!(nets_and_repeats(&["--quick", "--nets", "40"]), Ok((40, 3)));
        assert_eq!(nets_and_repeats(&["--nets", "40", "--quick"]), Ok((40, 3)));
    }

    #[test]
    fn flag_helper_rejects_bad_command_lines() {
        assert!(usage_error(&["--bogus"]).contains("unknown flag `--bogus`"));
        assert!(usage_error(&["--nets"]).contains("needs a value"));
        assert!(usage_error(&["--nets", "many"]).contains("cannot parse `many`"));
        assert_eq!(
            usage_error(&["--repeats", "0"]),
            "--repeats must be at least 1, got 0"
        );
        assert!(usage_error(&["--nets", "1", "--nets", "2"]).contains("given twice"));
    }

    #[test]
    fn flag_helper_reports_help() {
        assert_eq!(nets_and_repeats(&["--help"]), Err(ArgsError::Help));
        assert_eq!(nets_and_repeats(&["--bogus", "-h"]), Err(ArgsError::Help));
    }

    #[test]
    fn paper_options_parse_through_the_helper() {
        let parse = |args: &[&str]| {
            parse_options(&argv(args), "scale repeats", "full", HarnessOptions::parse)
        };
        let o = parse(&[]).unwrap();
        assert_eq!((o.scale, o.repeats), (0.25, 3));
        let o = parse(&["--full", "--repeats", "5"]).unwrap();
        assert_eq!((o.scale, o.repeats), (1.0, 5));
        assert_eq!(parse(&["--scale", "0.05"]).unwrap().scale, 0.05);
        assert!(matches!(
            parse(&["--repeats", "0"]),
            Err(ArgsError::Usage(_))
        ));
        assert!(matches!(
            parse(&["--full", "--scale", "0.5"]),
            Err(ArgsError::Usage(_))
        ));
    }

    #[test]
    fn arms_run_interleaved_in_order_within_each_repeat() {
        let log = RefCell::new(Vec::new());
        let arm = |name: char| {
            let log = &log;
            Arm::new(move |w: &mut Stopwatch| w.time(|| log.borrow_mut().push(name)))
        };
        let timings = time_arms(vec![arm('a'), arm('b'), arm('c')], 3);
        assert_eq!(timings.len(), 3);
        assert_eq!(log.into_inner(), "abcabcabc".chars().collect::<Vec<_>>());
    }

    #[test]
    fn best_is_at_most_median_and_wall_only_arms_skip_the_cpu_clock() {
        let spin = |w: &mut Stopwatch| {
            w.time(|| (0..20_000u64).map(std::hint::black_box).sum::<u64>());
        };
        let t = time_arms(vec![Arm::new(spin), Arm::wall_only(spin)], 5);
        for timing in &t {
            assert!(timing.wall.best <= timing.wall.median);
        }
        if let Some(cpu) = t[0].cpu {
            assert!(cpu.best <= cpu.median);
        }
        assert_eq!(t[1].cpu, None);
        let mut row = Json::obj([]);
        t[1].record(&mut row, "warm_");
        assert!(row.get("warm_secs").is_some() && row.get("warm_median_secs").is_some());
        assert!(row.get("warm_cpu_secs").is_none());
    }

    #[test]
    fn setup_time_is_excluded() {
        let t = time_arms(
            vec![Arm::new(|w: &mut Stopwatch| {
                std::thread::sleep(Duration::from_millis(30));
                w.time(|| std::hint::black_box(1 + 1));
            })],
            2,
        );
        assert!(t[0].wall.median < Duration::from_millis(15), "{t:?}");
    }

    #[test]
    fn spread_takes_the_lower_middle_sample() {
        let ms = |v: &[u64]| v.iter().map(|&x| Duration::from_millis(x)).collect();
        let s = Spread::of(ms(&[9, 1, 5, 7]));
        assert_eq!(s.best, Duration::from_millis(1));
        assert_eq!(s.median, Duration::from_millis(5));
        assert_eq!(Spread::of(ms(&[4])).median, Duration::from_millis(4));
    }
}
