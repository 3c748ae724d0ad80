//! Design-level pricing-loop convergence: iterations to feasibility and
//! net-solve throughput, warm per-net caches vs from-scratch inner solves.
//!
//! Builds seeded shared-site fleets (`SharedSuiteSpec`) whose unpriced,
//! independently optimal solves overflow the shared site pool, then runs
//! the `fastbuf-global` Lagrangian loop in two interleaved arms per fleet
//! (five repeats each, best and median recorded):
//!
//! * **warm** — per-net `IncrementalSolver` caches persist across pricing
//!   iterations, so an iteration only re-solves the nets whose site
//!   prices changed (and within those, only the re-priced root paths);
//! * **scratch** — every inner solve starts from an empty cache (what a
//!   naive loop over the plain `Solver` would do).
//!
//! Both runs are asserted bit-identical (feasibility, iteration history,
//! slack bits, placements) before any time is reported — the benchmark
//! doubles as a release-mode differential check of the warm-cache path.
//! Results go to `BENCH_global.json`; after the table, each fleet's loop is
//! printed iteration by iteration (nets re-solved, sites overused, total
//! overuse, largest price).
//!
//! Run: `cargo run --release -p fastbuf-bench --bin global_convergence --
//!       [--seed S] [--lib B] [--out FILE] [--quick]`

use fastbuf_api::wire::Json;
use fastbuf_bench::{
    at_least, fixed, options, print_runs, print_table, time_arms, write_bench, Arm, Stopwatch,
    REPEATS,
};
use fastbuf_buflib::BufferLibrary;
use fastbuf_global::{GlobalNet, GlobalOutcome, GlobalSolver, SiteCapacityMap};
use fastbuf_netgen::SharedSuiteSpec;

/// Fleet shapes `(nets, pool sites, sites per net)` at capacity 1 where
/// the per-net DP is big enough for the warm caches to pay for themselves
/// (tiny 10-site lines re-solve faster from scratch than through cache
/// bookkeeping — that regime belongs to the batch benchmarks, not this
/// one). `--quick` runs the first.
const FLEETS: [(usize, u32, usize); 3] = [(8, 96, 48), (8, 200, 100), (16, 300, 150)];

/// The warm or scratch arm: each repeat builds the fleet and its solver
/// untimed, then times the solve; `out` keeps the last outcome (every
/// repeat is bit-identical — the loop is deterministic). The inner solves
/// fan out over worker threads, so only wall time is reported.
fn arm<'a>(
    spec: &'a SharedSuiteSpec,
    lib: &'a BufferLibrary,
    warm: bool,
    out: &'a mut Option<GlobalOutcome>,
) -> Arm<'a> {
    Arm::wall_only(move |w: &mut Stopwatch| {
        let nets = spec.build().into_iter().enumerate();
        let nets = nets
            .map(|(i, net)| GlobalNet::new(format!("shared/{i:04}"), net.tree, net.site_of))
            .collect();
        let capacity = SiteCapacityMap::uniform(spec.pool_sites, 1);
        let solver = GlobalSolver::new(nets, lib.clone(), capacity)
            .max_iters(128)
            .warm(warm);
        *out = Some(
            w.time(|| solver.solve())
                .expect("generated fleets are valid"),
        );
    })
}

fn main() {
    let (seed, lib_size, out, quick) = options(
        "global_convergence [--seed S] [--lib B] [--out FILE] [--quick]",
        "seed lib out",
        "quick",
        |a| {
            Ok((
                a.parsed_or("seed", 1)?,
                at_least(a, "lib", 8, 1)?,
                a.parsed_or("out", "BENCH_global.json".to_owned())?,
                a.switch("quick"),
            ))
        },
    );
    let lib = BufferLibrary::paper_synthetic(lib_size).expect("nonzero library");
    println!(
        "# global convergence: shared-site fleets at capacity 1, b = {}\n",
        lib.len()
    );

    let (mut runs, mut histories) = (Vec::new(), Vec::new());
    for &(nets, pool_sites, sites_per_net) in &FLEETS[..if quick { 1 } else { FLEETS.len() }] {
        let spec = SharedSuiteSpec {
            nets,
            pool_sites,
            sites_per_net,
            seed,
            ..SharedSuiteSpec::default()
        };
        let (mut warm_out, mut scratch_out) = (None, None);
        let arms = vec![
            arm(&spec, &lib, true, &mut warm_out),
            arm(&spec, &lib, false, &mut scratch_out),
        ];
        let timed = time_arms(arms, REPEATS);
        let (warm_out, scratch_out) = (warm_out.unwrap(), scratch_out.unwrap());

        // The warm-cache path must not change a single bit of the outcome.
        assert_eq!(warm_out.report.feasible, scratch_out.report.feasible);
        assert_eq!(warm_out.report.iterations, scratch_out.report.iterations);
        assert_eq!(warm_out.report.history, scratch_out.report.history);
        let bits = |o: &GlobalOutcome| -> Vec<(u64, Vec<_>)> {
            o.solutions
                .iter()
                .map(|s| (s.slack.value().to_bits(), s.placements.clone()))
                .collect()
        };
        assert_eq!(
            bits(&warm_out),
            bits(&scratch_out),
            "warm and scratch loops must be bit-identical"
        );
        assert!(
            warm_out.report.feasible,
            "benchmark fleets must reach feasibility"
        );

        // Throughput metric: net-iterations per second. The warm loop does
        // fewer inner solves for the same iteration count — both the
        // solve counts and the end-to-end wall times are recorded.
        let report = &warm_out.report;
        let (warm, scratch) = (timed[0].secs().max(1e-12), timed[1].secs().max(1e-12));
        let full_solves = report.iterations * report.nets;
        let mut run = Json::obj([
            ("nets", nets.into()),
            ("pool_sites", pool_sites.into()),
            ("sites_per_net", sites_per_net.into()),
            ("initial_overuse", report.history[0].total_overuse.into()),
            ("iterations", report.iterations.into()),
            ("inner_solves", report.total_resolved.into()),
            ("full_solves", full_solves.into()),
            (
                "warm_net_iters_per_sec",
                fixed(full_solves as f64 / warm, 1),
            ),
            (
                "scratch_net_iters_per_sec",
                fixed(full_solves as f64 / scratch, 1),
            ),
            ("speedup", fixed(scratch / warm, 3)),
        ]);
        timed[0].record(&mut run, "warm_");
        timed[1].record(&mut run, "scratch_");
        runs.push(run);
        histories.push((nets, pool_sites, report.history.clone()));
    }
    print_runs(
        &runs,
        "nets pool_sites initial_overuse iterations inner_solves full_solves \
         warm_secs scratch_secs speedup",
    );
    // The loop iteration by iteration: nets re-solved shows the warm-cache
    // dirtying at work (iteration 0 re-solves every net, later ones only
    // the nets whose mapped site prices changed); overuse shows convergence.
    for (nets, pool_sites, history) in histories {
        println!("\n# pricing loop: {nets} nets, {pool_sites} shared sites\n");
        let rows: Vec<Vec<String>> = history
            .iter()
            .map(|row| {
                vec![
                    row.iter.to_string(),
                    row.nets_resolved.to_string(),
                    row.sites_overused.to_string(),
                    row.total_overuse.to_string(),
                    row.max_price.to_string(),
                ]
            })
            .collect();
        print_table(
            &[
                "iter",
                "nets re-solved",
                "sites overused",
                "total overuse",
                "max price",
            ],
            &rows,
        );
    }

    write_bench(
        &out,
        [("seed", seed.into()), ("library", lib_size.into())],
        runs,
    );
}
