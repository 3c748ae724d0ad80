//! Slew-limit sweep: how the slew-constrained mode trades slack and buffer
//! count against the per-net output-slew limit.
//!
//! Solves one slew-stressed suite (`netgen::SuiteSpec { slew_stress: true,
//! .. }`) at a descending ladder of slew limits (∞ first, as the baseline
//! that must match unconstrained solving), prints a table, and records the
//! run in `BENCH_slew.json` so successive runs can be compared. Each row
//! reports worst slack, total buffers, measured worst slew (forward
//! evaluation, the ground truth), nets that could not meet the limit, the
//! suite's `AddBuffer` work and scan visits, and wall time.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin slew_sweep --
//!       [--nets N] [--max-sinks M] [--seed S] [--model NAME] [--out FILE]
//!       [--quick]`

use fastbuf_api::wire::Json;
use fastbuf_batch::BatchSolver;
use fastbuf_bench::{at_least, fixed, options, print_runs, time_each, write_bench, REPEATS};
use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::SolveStats;
use fastbuf_netgen::SuiteSpec;
use fastbuf_rctree::DelayModel;

fn main() {
    let (suite_nets, max_sinks, seed, model, out) = options(
        "slew_sweep [--nets N] [--max-sinks M] [--seed S] [--model NAME] [--out FILE] [--quick]",
        "nets max-sinks seed model out",
        "quick",
        |a| {
            // `--quick` is CI's smoke size: the whole pipeline in seconds.
            let quick = a.switch("quick");
            let name = a.parsed_or("model", "elmore".to_owned())?;
            Ok((
                at_least(a, "nets", if quick { 12 } else { 60 }, 1)?,
                at_least(a, "max-sinks", if quick { 24 } else { 96 }, 8)?,
                a.parsed_or("seed", 1)?,
                DelayModel::by_name(&name)
                    .ok_or_else(|| format!("unknown delay model `{name}`"))?,
                a.parsed_or("out", "BENCH_slew.json".to_owned())?,
            ))
        },
    );
    let suite = SuiteSpec {
        nets: suite_nets,
        max_sinks,
        seed,
        slew_stress: true,
        ..SuiteSpec::default()
    };
    let nets = suite.build();
    let lib = BufferLibrary::paper_synthetic(16).expect("nonzero library");
    println!(
        "# slew sweep: {} slew-stressed nets (seed {}), model {}\n",
        nets.len(),
        seed,
        model.name()
    );

    // ∞ first: the baseline row must reproduce unconstrained solving.
    let limits_ps: [f64; 6] = [f64::INFINITY, 800.0, 400.0, 200.0, 100.0, 50.0];
    // One arm per limit, interleaved; each keeps its last (deterministic)
    // report. The batch pool fans out over workers: wall time only.
    let timed = time_each(&limits_ps, false, REPEATS, |&limit_ps, w| {
        let mut solver = BatchSolver::new(&nets, &lib).delay_model(model);
        if limit_ps.is_finite() {
            solver = solver.slew_limit(Seconds::from_pico(limit_ps));
        }
        w.time(|| solver.solve())
    });
    let mut runs = Vec::new();
    for (&limit_ps, (t, report)) in limits_ps.iter().zip(&timed) {
        // `AddBuffer` work summed over the suite: deterministic, so it
        // prices the hull walk against the per-type scan without timing
        // noise.
        let sum = |f: fn(&SolveStats) -> u64| -> u64 {
            report.outcomes.iter().map(|o| f(&o.stats)).sum()
        };
        let work = sum(SolveStats::addbuffer_work);
        let scans = sum(|s| s.scan_candidate_visits);
        // The unconstrained point's infinite limit is recorded as null.
        let mut run = Json::obj([
            ("slew_limit_ps", limit_ps.into()),
            ("wns_after_ps", fixed(report.wns_after.picos(), 4)),
            ("buffers", report.total_buffers.into()),
            ("worst_slew_ps", fixed(report.worst_slew.picos(), 4)),
            ("infeasible_nets", report.slew_violations.into()),
            ("addbuffer_work", work.into()),
            ("scan_candidate_visits", scans.into()),
        ]);
        t.record(&mut run, "");
        runs.push(run);
    }
    print_runs(
        &runs,
        "slew_limit_ps wns_after_ps buffers worst_slew_ps infeasible_nets addbuffer_work \
         scan_candidate_visits secs",
    );

    write_bench(
        &out,
        [
            ("nets", nets.len().into()),
            ("max_sinks", max_sinks.into()),
            ("seed", seed.into()),
            ("model", model.name().into()),
            ("slew_stress", true.into()),
        ],
        runs,
    );
}
