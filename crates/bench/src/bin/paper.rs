//! Reproduces the evaluation of Li & Shi, DATE 2005 — the running time of
//! Lillis's O(b²n²) algorithm against the new O(bn²) one — and records
//! every row in `BENCH_paper.json`. Four sections:
//!
//! * `table1` — **Table 1**: three nets (337 / 1944 / 2676 sinks, scaled)
//!   × library sizes {8, 16, 32, 64}. The paper reports the new algorithm
//!   up to ~11× faster at b = 64 with a small overhead at b = 8.
//! * `fig3` — **Figure 3**: runtime against `b` on the 1944-sink net with
//!   33133 buffer positions (scaled). Lillis rises to ~11× its own b = 8
//!   time by b = 64; Li–Shi stays near ~2×.
//! * `fig4` — **Figure 4**: runtime against the position count `n` on the
//!   1944-sink net at b = 32. Both are superlinear in `n`; Li–Shi grows
//!   much more slowly.
//! * `pruning` — twelve random multi-pin nets at b = 32 that add a third
//!   arm, the paper's published permanent convex pruning
//!   (`Algorithm::LiShiPermanent`): how much faster it is, and how much
//!   slack it gives up where a later branch merge needed a pruned
//!   candidate (`docs/ALGORITHM.md` §5).
//!
//! Each row times the arms interleaved through `time_solves` (untracked
//! solves: pure DP time, as the paper measures) and records best and
//! median wall and on-CPU time per arm, the Lillis/Li–Shi ratio of the
//! best wall times (`speedup`) and of the best on-CPU times
//! (`cpu_speedup`, which preemption by other tenants of a shared host
//! cannot inflate; `null` where the OS reports no thread clock), the
//! machine-independent
//! `AddBuffer` work of both algorithms and its ratio, the mean list length
//! `k` per `AddBuffer` call, the longest list and the slab counters of the
//! Li–Shi solve. The header carries the fitted log–log runtime slopes
//! against `b` (the `fig3` rows) and against `n` (the `fig4` rows).
//!
//! `same_bits` is Theorem 1 in bits: Lillis and Li–Shi agree on every bit
//! of the slack, root `Q` and root load, untracked and tracked, and on the
//! tracked placements. Any row without it makes the harness exit 1 after
//! the file is written. Absolute times are not comparable with the paper's
//! (a 400 MHz SPARC; the nets here are synthetic stand-ins).
//!
//! Run: `cargo run --release -p fastbuf-bench --bin paper --
//!       [--full | --scale <f>] [--repeats <k>]`

use fastbuf_api::wire::Json;
use fastbuf_bench::{
    fixed, loglog_slope, paper_net, print_runs, same_bits, time_solves, write_bench,
    HarnessOptions, PAPER_LIB_SIZES, PAPER_POSITIONS_1944, PAPER_SINKS,
};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{Algorithm, Solver};
use fastbuf_netgen::RandomNetSpec;
use fastbuf_rctree::RoutingTree;

/// Times Lillis against Li–Shi on `tree` with the `b`-type paper library,
/// checks Theorem 1 in bits, and returns the row of `section`. A row with
/// a net `seed` (the `pruning` section) adds the permanent pruning arm.
fn measure(section: &str, seed: Option<u64>, tree: &RoutingTree, b: usize, repeats: usize) -> Json {
    let lib = BufferLibrary::paper_synthetic(b).expect("b > 0");
    let mut solves = vec![(&lib, Algorithm::Lillis), (&lib, Algorithm::LiShi)];
    if seed.is_some() {
        solves.push((&lib, Algorithm::LiShiPermanent));
    }
    let timed = time_solves(tree, &solves, repeats);
    let ((t_lillis, lillis), (t_lishi, lishi)) = (&timed[0], &timed[1]);
    let tracked = |algo| Solver::new(tree, &lib).algorithm(algo).solve();
    let bits = same_bits(lillis, lishi)
        && same_bits(&tracked(Algorithm::Lillis), &tracked(Algorithm::LiShi));

    let stats = &lishi.stats;
    let (work_lillis, work_lishi) = (lillis.stats.addbuffer_work(), stats.addbuffer_work());
    let mut row = Json::obj([("section", section.into())]);
    if let Some(seed) = seed {
        row.push("seed", seed);
    }
    for (key, value) in [
        ("m", tree.sink_count().into()),
        ("n", tree.buffer_site_count().into()),
        ("b", b.into()),
        ("slack_ps", fixed(lishi.slack.picos(), 4)),
        ("same_bits", bits.into()),
        ("speedup", fixed(t_lillis.secs() / t_lishi.secs(), 3)),
        (
            "cpu_speedup",
            t_lillis
                .cpu
                .zip(t_lishi.cpu)
                .map(|(a, b)| fixed(a.best.as_secs_f64() / b.best.as_secs_f64(), 3))
                .into(),
        ),
        ("lillis_addbuffer_work", work_lillis.into()),
        ("lishi_addbuffer_work", work_lishi.into()),
        (
            "addbuffer_work_ratio",
            fixed(work_lillis as f64 / work_lishi.max(1) as f64, 3),
        ),
        (
            "mean_k",
            fixed(
                stats.addbuffer_candidates as f64 / stats.addbuffer_ops.max(1) as f64,
                2,
            ),
        ),
        ("max_list_len", stats.max_list_len.into()),
        ("slab_scanned", stats.slab_candidates_scanned.into()),
        ("slab_pruned", stats.slab_candidates_pruned.into()),
        ("slab_bytes_peak", stats.slab_bytes_peak.into()),
    ] {
        row.push(key, value);
    }
    t_lillis.record(&mut row, "lillis_");
    t_lishi.record(&mut row, "lishi_");
    if let Some((t_perm, perm)) = timed.get(2) {
        let gap_ps = lishi.slack.picos() - perm.slack.picos();
        row.push("permanent_slack_gap_ps", fixed(gap_ps, 4));
        row.push("permanent_convex_pruned", perm.stats.convex_pruned);
        row.push(
            "permanent_speedup",
            fixed(t_lishi.secs() / t_perm.secs(), 3),
        );
        t_perm.record(&mut row, "permanent_");
    }
    row
}

/// The rows of one section.
fn section<'a>(runs: &'a [Json], name: &'a str) -> impl Iterator<Item = &'a Json> + Clone {
    runs.iter()
        .filter(move |r| r.get("section").and_then(Json::as_str) == Some(name))
}

/// The log–log slopes of Lillis's and Li–Shi's best wall times against
/// the `x` column of one section's rows.
fn slopes(runs: &[Json], name: &str, x: &str) -> (Json, Json) {
    let rows = section(runs, name);
    let num = |r: &Json, key: &str| {
        r.get(key)
            .and_then(Json::as_f64)
            .expect("a recorded number")
    };
    let fit = |arm: &str| {
        let points: Vec<_> = rows.clone().map(|r| (num(r, x), num(r, arm))).collect();
        fixed(loglog_slope(&points), 3)
    };
    (fit("lillis_secs"), fit("lishi_secs"))
}

fn main() {
    let opts = HarnessOptions::from_args();
    let repeats = opts.repeats;
    println!(
        "# Li & Shi evaluation: Table 1, Figures 3-4, permanent pruning (scale {}, repeats {repeats})\n",
        opts.scale
    );
    let mut runs = Vec::new();

    for &paper_m in &PAPER_SINKS {
        let m = opts.sinks(paper_m);
        // Paper density: ~17 positions per sink on the 1944-sink net.
        let tree = paper_net(m, Some(m * 17));
        for &b in &PAPER_LIB_SIZES {
            runs.push(measure("table1", None, &tree, b, repeats));
        }
    }

    let m = opts.sinks(1944);
    let tree = paper_net(m, Some(opts.positions(PAPER_POSITIONS_1944)));
    for b in [8, 16, 24, 32, 40, 48, 56, 64] {
        runs.push(measure("fig3", None, &tree, b, repeats));
    }

    // The paper sweeps 1943 .. ~66k positions on the fixed net.
    for paper_n in [1943, 4000, 8000, 16_000, PAPER_POSITIONS_1944, 66_000] {
        let tree = paper_net(m, Some(opts.positions(paper_n)));
        runs.push(measure("fig4", None, &tree, 32, repeats));
    }

    for seed in 0..12u64 {
        let sinks = opts.sinks(200 + (seed as usize) * 37);
        let spec = RandomNetSpec {
            sinks,
            seed,
            ..RandomNetSpec::paper(sinks)
        };
        runs.push(measure("pruning", Some(seed), &spec.build(), 32, repeats));
    }

    print_runs(
        &runs,
        "section m n b slack_ps lillis_secs lishi_secs speedup cpu_speedup \
         addbuffer_work_ratio mean_k max_list_len same_bits",
    );
    println!("\n# Permanent vs scratch convex pruning (b = 32)\n");
    let pruning: Vec<Json> = section(&runs, "pruning").cloned().collect();
    print_runs(
        &pruning,
        "seed m n lishi_secs permanent_secs permanent_speedup permanent_slack_gap_ps \
         permanent_convex_pruned",
    );
    let gaps: Vec<f64> = pruning
        .iter()
        .filter_map(|r| r.get("permanent_slack_gap_ps")?.as_f64())
        .filter(|&gap| gap > 1e-6)
        .collect();
    println!(
        "\n{}/{} nets lost slack to permanent pruning (worst gap {:.3} ps)",
        gaps.len(),
        pruning.len(),
        gaps.iter().fold(0.0f64, |a, &b| a.max(b))
    );

    let (b_lillis, b_lishi) = slopes(&runs, "fig3", "b");
    let (n_lillis, n_lishi) = slopes(&runs, "fig4", "n");
    println!(
        "\nlog-log slope against b: Lillis {b_lillis}, Li-Shi {b_lishi}; \
         against n: Lillis {n_lillis}, Li-Shi {n_lishi}"
    );
    println!(
        "paper: speedups grow with b, up to ~11x at b = 64; Li-Shi's slope in b is much smaller"
    );
    let all_same = runs
        .iter()
        .all(|r| r.get("same_bits").and_then(Json::as_bool) == Some(true));

    write_bench(
        "BENCH_paper.json",
        [
            ("scale", opts.scale.into()),
            ("repeats", repeats.into()),
            ("slope_b_lillis", b_lillis),
            ("slope_b_lishi", b_lishi),
            ("slope_n_lillis", n_lillis),
            ("slope_n_lishi", n_lishi),
        ],
        runs,
    );
    if !all_same {
        eprintln!(
            "error: Lillis and Li-Shi disagree in a bit (same_bits false): Theorem 1 does not hold"
        );
        std::process::exit(1);
    }
}
