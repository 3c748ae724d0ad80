//! Slew-limit sweep: how the slew-constrained mode trades slack and buffer
//! count against the per-net output-slew limit.
//!
//! Solves one slew-stressed suite (`netgen::SuiteSpec { slew_stress: true,
//! .. }`) at a descending ladder of slew limits (∞ first, as the baseline
//! that must match unconstrained solving), prints a table, and records the
//! run in `BENCH_slew.json` so successive runs can be compared. Each row
//! reports worst slack, total buffers, measured worst slew (forward
//! evaluation, the ground truth), nets that could not meet the limit, and
//! wall time.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin slew_sweep --
//!       [--nets N] [--max-sinks M] [--seed S] [--model NAME] [--out FILE]
//!       [--quick]`

use std::time::Instant;

use fastbuf_api::wire::Json;
use fastbuf_batch::BatchSolver;
use fastbuf_bench::{fixed, print_table, write_bench};
use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_netgen::SuiteSpec;
use fastbuf_rctree::model_by_name;

struct Options {
    nets: usize,
    max_sinks: usize,
    seed: u64,
    model: String,
    out: String,
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: slew_sweep [--nets N] [--max-sinks M] [--seed S] [--model NAME] [--out FILE] [--quick]"
    );
    std::process::exit(if msg.is_empty() { 0 } else { 2 })
}

fn parse_args() -> Options {
    let mut opts = Options {
        nets: 60,
        max_sinks: 96,
        seed: 1,
        model: "elmore".to_owned(),
        out: "BENCH_slew.json".to_owned(),
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
            "--model" => opts.model = next("--model needs a value"),
            "--out" => opts.out = next("--out needs a value"),
            "--quick" => {
                // CI smoke size: exercises the whole pipeline in seconds.
                opts.nets = 12;
                opts.max_sinks = 24;
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown flag `{other}`")),
        }
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
    let model = model_by_name(&opts.model)
        .unwrap_or_else(|| usage(&format!("unknown delay model `{}`", opts.model)));
    let suite = SuiteSpec {
        nets: opts.nets,
        max_sinks: opts.max_sinks,
        seed: opts.seed,
        slew_stress: true,
        ..SuiteSpec::default()
    };
    let nets = suite.build();
    let lib = BufferLibrary::paper_synthetic(16).expect("nonzero library");
    println!(
        "# slew sweep: {} slew-stressed nets (seed {}), model {}\n",
        nets.len(),
        opts.seed,
        model.name()
    );

    // ∞ first: the baseline row must reproduce unconstrained solving.
    let limits_ps: [f64; 6] = [f64::INFINITY, 800.0, 400.0, 200.0, 100.0, 50.0];
    let (mut rows, mut runs) = (Vec::new(), Vec::new());
    for &limit_ps in &limits_ps {
        let t0 = Instant::now();
        let mut solver = BatchSolver::new(&nets, &lib).delay_model(model.clone());
        if limit_ps.is_finite() {
            solver = solver.slew_limit(Seconds::from_pico(limit_ps));
        }
        let report = solver.solve();
        let secs = t0.elapsed().as_secs_f64();
        let label = if limit_ps.is_finite() {
            format!("{limit_ps:.0} ps")
        } else {
            "unlimited".to_owned()
        };
        rows.push(vec![
            label,
            format!("{:.1} ps", report.wns_after.picos()),
            report.total_buffers.to_string(),
            format!("{:.1} ps", report.worst_slew.picos()),
            report.slew_violations.to_string(),
            format!("{:.1} ms", secs * 1e3),
        ]);
        // The unconstrained point's infinite limit is recorded as null.
        runs.push(Json::obj([
            ("slew_limit_ps", limit_ps.into()),
            ("wns_after_ps", fixed(report.wns_after.picos(), 4)),
            ("buffers", report.total_buffers.into()),
            ("worst_slew_ps", fixed(report.worst_slew.picos(), 4)),
            ("infeasible_nets", report.slew_violations.into()),
            ("secs", fixed(secs, 6)),
        ]));
    }
    print_table(
        &[
            "slew limit",
            "WNS after",
            "buffers",
            "worst slew",
            "infeasible",
            "wall time",
        ],
        &rows,
    );

    write_bench(
        &opts.out,
        [
            ("nets", nets.len().into()),
            ("max_sinks", opts.max_sinks.into()),
            ("seed", opts.seed.into()),
            ("model", model.name().into()),
            ("slew_stress", true.into()),
        ],
        runs,
    );
}
