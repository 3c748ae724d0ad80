//! fastbench: the fastbuf benchmark.
//!
//! ```text
//! cargo run --release --manifest-path fastbench/Cargo.toml -- \
//!     --workload <paper|fleet|serve_eco|objectives> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs as a closed loop (one caller,
//! no think time) over a fixed op sequence of `round(s × rate)` ops and
//! the end-to-end metrics are printed. With `--trace 1` every workload is
//! replayed through each layer's entry point inside recorded spans and the
//! per-layer metrics are printed instead. The inputs are fixed, so `--seed`
//! only labels the run: runs with different seeds do identical work. The
//! last line of standard output is always one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`.
//! See `fastbench/README.md` for the workloads and the metric map.

mod measure;
mod trace;
mod workloads;

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use measure::{median, percentile, process_cpu_ns};
use trace::{Tracer, SETUP_OP};
use workloads::fleet::Fleet;
use workloads::objectives::Objectives;
use workloads::paper::Paper;
use workloads::serve_eco::ServeEco;
use workloads::Workload;

/// Where spans, run stamps and the counter ledger are written, relative
/// to the working directory.
const OUT_DIR: &str = ".bench_out";
const WORKLOADS: [&str; 4] = [Paper::NAME, Fleet::NAME, ServeEco::NAME, Objectives::NAME];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                }
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// One printed metric.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
}

/// Ops attempted and failed, with the first failure kept for the log.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
}

impl Tally {
    fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.first_error.get_or_insert(e);
        }
    }
}

/// Untraced run: set up and take the check references, then time every
/// op of the sequence, setting up `SETUPS - 1` more times between ops for
/// the `setup_s` median.
fn timed<W: Workload>(seconds: f64, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let cpu_clock = || process_cpu_ns().ok_or("no process CPU clock on this platform");
    cpu_clock()?;
    measure::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
    let ops = ((seconds * W::RATE).round() as usize).max(100);
    let start = Instant::now();
    let setup = W::setup(ops, &mut Tracer::default())?;
    let mut setups = vec![start.elapsed().as_secs_f64()];
    let mut bench = W::prepare(setup, &mut Tracer::default())?;

    let mut latencies = Vec::with_capacity(ops);
    let mut cpu_ns = 0;
    let mut peak_rss = None;
    for i in 0..ops {
        // Spread over the loop, the extra set-ups sample the same stretch
        // of machine time as the ops instead of one instant of it.
        if i == setups.len() * ops / W::SETUPS {
            // Peak memory of one instance of the workload: read before an
            // extra set-up lives next to it. Every op repeats the same
            // work, so the ops before this point reach the peak.
            peak_rss = peak_rss.or_else(measure::peak_rss_mb);
            let start = Instant::now();
            let extra = W::setup(ops, &mut Tracer::default())?;
            setups.push(start.elapsed().as_secs_f64());
            drop(extra);
        }
        let cpu = cpu_clock()?;
        let start = Instant::now();
        let out = bench.op(i, None);
        let wall = start.elapsed();
        cpu_ns += cpu_clock()? - cpu;
        latencies.push(wall.as_secs_f64() * 1e3);
        tally.record(bench.check(i, out));
    }
    let peak_rss = peak_rss
        .or_else(measure::peak_rss_mb)
        .ok_or("no VmHWM in /proc/self/status")?;
    drop(bench);

    let busy_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    let ok = tally.attempted - tally.failed;
    let metric = |name: &str, unit, value| Metric {
        name: name.to_owned(),
        unit,
        value,
    };
    println!(
        "# {} ops, latency samples {ops}, setups {}",
        W::NAME,
        setups.len()
    );
    Ok(vec![
        metric("throughput_per_s", "1/s", ops as f64 / busy_s),
        metric(
            "latency_ms_p50",
            "ms",
            percentile(&latencies, 50.0).unwrap_or(0.0),
        ),
        metric(
            "latency_ms_p90",
            "ms",
            percentile(&latencies, 90.0).unwrap_or(0.0),
        ),
        metric("cpu_ms_per_op", "ms", cpu_ns as f64 / 1e6 / ops as f64),
        metric("ok_ratio", "ratio", ok as f64 / tally.attempted as f64),
        metric("setup_s", "s", median(&setups).unwrap_or(0.0)),
        metric("peak_rss_mb", "MiB", peak_rss),
    ])
}

/// Traced run of one workload: an op loop alternating blocks of untraced
/// and traced ops (for the tracing cost), each op followed by its replay
/// through the lower layers.
fn traced<W: Workload>(
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
    metrics: &mut Vec<Metric>,
) -> Result<(), String> {
    const BLOCK: usize = 4;
    // A traced run replays every workload, so each gets a sixteenth of
    // the run's nominal op count; whole pairs of blocks keep both halves
    // the same size.
    let ops = ((seconds * W::RATE / 16.0).ceil() as usize)
        .max(4 * BLOCK)
        .next_multiple_of(2 * BLOCK);
    let mut tr = Tracer::default();
    let setup = tr.span("setup", SETUP_OP, |tr| W::setup(ops, tr))?;
    let mut bench = tr.span("prepare", SETUP_OP, |tr| W::prepare(setup, tr))?;
    tally.record(bench.replay_setup(&mut tr));

    let (mut plain, mut spanned) = (Duration::ZERO, Duration::ZERO);
    for i in 0..ops {
        let start = Instant::now();
        let out = if (i / BLOCK) % 2 == 1 {
            let out = tr.span("op", i as u64, |tr| bench.op(i, Some(tr)));
            spanned += start.elapsed();
            out
        } else {
            let out = bench.op(i, None);
            plain += start.elapsed();
            out
        };
        tally.record(bench.check(i, out));
        tally.record(bench.replay(i, &mut tr));
    }

    let mut layers = bench.layers(&tr);
    drop(bench);
    layers.push(workloads::Layer::new(
        "trace.overhead_frac",
        "ratio",
        spanned.as_secs_f64() / plain.as_secs_f64() - 1.0,
    ));
    tally.record(ledger::<W>(ops, &layers));

    std::fs::create_dir_all(OUT_DIR).map_err(|e| e.to_string())?;
    let spans_path = format!("{OUT_DIR}/spans-{}-seed{seed}.jsonl", W::NAME);
    std::fs::write(&spans_path, tr.to_jsonl()).map_err(|e| e.to_string())?;
    eprintln!("# {}: {ops} traced ops, spans in {spans_path}", W::NAME);
    eprintln!(
        "#   {:<22} {:>6} {:>11} {:>11}",
        "span", "count", "total ms", "self ms"
    );
    for (name, (count, total, own)) in trace::summary(tr.spans()) {
        eprintln!("#   {name:<22} {count:>6} {total:>11.3} {own:>11.3}");
    }
    metrics.extend(layers.into_iter().map(|l| Metric {
        name: format!("{}.{}", W::NAME, l.name),
        unit: l.unit,
        value: l.value,
    }));
    Ok(())
}

/// Determinism guard: the exact counters of a traced run must equal those
/// of every earlier traced run of the same build and op count, whatever
/// its seed.
fn ledger<W: Workload>(ops: usize, layers: &[workloads::Layer]) -> Result<(), String> {
    let mut text = String::new();
    for l in layers.iter().filter(|l| l.is_exact()) {
        let _ = writeln!(text, "{} {}", l.name, l.value);
    }
    let dir = Path::new(OUT_DIR).join("counters");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("{}-ops{ops}-{}.txt", W::NAME, measure::build_id()));
    match std::fs::read_to_string(&path) {
        Ok(previous) if previous != text => Err(format!(
            "{}: exact counters differ from an earlier run of this build ({})",
            W::NAME,
            path.display()
        )),
        Ok(_) => Ok(()),
        Err(_) => std::fs::write(&path, text).map_err(|e| e.to_string()),
    }
}

/// The metric names `BENCHMARK.json` declares for this mode, when the
/// file is present in the working directory.
fn declared_metrics(trace: bool) -> Option<BTreeSet<String>> {
    let text = std::fs::read_to_string("BENCHMARK.json").ok()?;
    let json = fastbuf_api::wire::Json::parse(&text).ok()?;
    let list = json.get(if trace { "per_layer" } else { "end_to_end" })?;
    list.as_array()?
        .iter()
        .map(|m| m.get("name").and_then(|n| n.as_str()).map(str::to_owned))
        .collect()
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: fastbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let steal_before = measure::steal_ms();
    let started = Instant::now();
    let mut tally = Tally::default();
    let result = if args.trace {
        let mut metrics = Vec::new();
        traced::<Paper>(args.seed, args.seconds, &mut tally, &mut metrics)
            .and_then(|()| traced::<Fleet>(args.seed, args.seconds, &mut tally, &mut metrics))
            .and_then(|()| traced::<ServeEco>(args.seed, args.seconds, &mut tally, &mut metrics))
            .and_then(|()| traced::<Objectives>(args.seed, args.seconds, &mut tally, &mut metrics))
            .map(|()| metrics)
    } else {
        let (seconds, t) = (args.seconds, &mut tally);
        match args.workload.as_str() {
            "paper" => timed::<Paper>(seconds, t),
            "fleet" => timed::<Fleet>(seconds, t),
            "serve_eco" => timed::<ServeEco>(seconds, t),
            _ => timed::<Objectives>(seconds, t),
        }
    };
    let metrics = match result {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };

    if let Some(declared) = declared_metrics(args.trace) {
        let emitted: BTreeSet<String> = metrics.iter().map(|m| m.name.clone()).collect();
        if declared != emitted {
            tally.record(Err(format!(
                "metrics differ from BENCHMARK.json: only declared {:?}, only emitted {:?}",
                declared.difference(&emitted).collect::<Vec<_>>(),
                emitted.difference(&declared).collect::<Vec<_>>(),
            )));
        }
    }
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        tally.record(Err(format!("{} is not a finite number", m.name)));
    }

    // Run stamp: enough to tell a run taken under host contention or on
    // other hardware from the rest.
    let steal = match (steal_before, measure::steal_ms()) {
        (Some(a), Some(b)) => (b - a).to_string(),
        _ => "null".to_owned(),
    };
    let stamp = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"hw_threads\": {}, \"commit\": \"{}\", \"build\": \"{}\", \"steal_ms\": {steal}, \
         \"wall_s\": {:.3}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        measure::hw_threads(),
        measure::commit(Path::new(".")),
        measure::build_id(),
        started.elapsed().as_secs_f64(),
    );
    println!("# run {stamp}");
    if std::fs::create_dir_all(OUT_DIR).is_ok() {
        use std::io::Write as _;
        if let Ok(mut log) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(Path::new(OUT_DIR).join("runs.jsonl"))
        {
            let _ = writeln!(log, "{stamp}");
        }
    }
    if let Some(e) = &tally.first_error {
        eprintln!(
            "error: {} of {} checks failed; first: {e}",
            tally.failed, tally.attempted
        );
    }

    let mut body = Vec::new();
    for m in &metrics {
        println!("# {:<42} {:>16.6} {}", m.name, m.value, m.unit);
        body.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    let correct = tally.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
