//! Ablation **X2**: machine-independent `AddBuffer` work counters.
//!
//! Wall-clock curves (Figures 3/4) depend on the machine; the DP's operation
//! counts do not. For each library size `b` this harness reports the total
//! `AddBuffer` work — candidates visited by scans, candidates fed to hull
//! construction, hull walk steps, betas emitted — for both algorithms on
//! the same net. Lillis' work grows ~linearly in `b` per position (O(k·b));
//! Li–Shi's stays ~flat (O(k + b)), which is the paper's whole point.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin ablation_counters`

use fastbuf_bench::{paper_net, print_table, HarnessOptions, PAPER_LIB_SIZES};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{Algorithm, Solver};
use fastbuf_global::{GlobalNet, GlobalSolver, SiteCapacityMap};
use fastbuf_netgen::SharedSuiteSpec;

fn main() {
    let opts = HarnessOptions::from_args();
    let m = opts.sinks(1944);
    let tree = paper_net(m, Some(m * 17));
    println!(
        "# AddBuffer work counters: m = {}, n = {} (scale {})\n",
        m,
        tree.buffer_site_count(),
        opts.scale
    );

    let mut rows = Vec::new();
    let mut base: Option<(f64, f64)> = None;
    for &b in &PAPER_LIB_SIZES {
        let lib = BufferLibrary::paper_synthetic(b).expect("b > 0");
        let stats_of = |algo: Algorithm| {
            Solver::new(&tree, &lib)
                .algorithm(algo)
                .track_predecessors(false)
                .solve()
                .stats
        };
        let lillis = stats_of(Algorithm::Lillis);
        let lishi = stats_of(Algorithm::LiShi);
        let (wl, ws) = (
            lillis.addbuffer_work() as f64,
            lishi.addbuffer_work() as f64,
        );
        let (bl, bs) = *base.get_or_insert((wl, ws));
        rows.push(vec![
            b.to_string(),
            format!("{:.2e}", wl),
            format!("{:.2}", wl / bl),
            format!("{:.2e}", ws),
            format!("{:.2}", ws / bs),
            format!("{:.1}x", wl / ws),
            lillis.max_list_len.to_string(),
        ]);
    }
    print_table(
        &[
            "b",
            "Lillis work",
            "(norm)",
            "Li-Shi work",
            "(norm)",
            "work ratio",
            "max list len",
        ],
        &rows,
    );
    println!(
        "\nLillis' AddBuffer work scales ~b; Li-Shi's is nearly flat in b (O(k+b) vs O(k*b))."
    );

    // Slab-kernel counters: how much candidate traffic the struct-of-arrays
    // layout moves (scanned = elements read by lane sweeps, pruned =
    // dominated elements dropped in those sweeps, bytes peak = high-water
    // slab footprint), plus how many sibling subtrees the intra-net mode
    // forks when 2 workers are requested. Machine-independent like the
    // table above — these are the numbers behind `BENCH_kernel.json`.
    println!("\n# Slab kernel counters (Li-Shi, intra-net workers = 2)\n");
    let mut rows = Vec::new();
    for &b in &PAPER_LIB_SIZES {
        let lib = BufferLibrary::paper_synthetic(b).expect("b > 0");
        let stats = Solver::new(&tree, &lib)
            .algorithm(Algorithm::LiShi)
            .track_predecessors(false)
            .intra_net_workers(2)
            .solve()
            .stats;
        rows.push(vec![
            b.to_string(),
            format!("{:.2e}", stats.slab_candidates_scanned as f64),
            format!("{:.2e}", stats.slab_candidates_pruned as f64),
            format!("{:.1} KiB", stats.slab_bytes_peak as f64 / 1024.0),
            stats.parallel_subtrees.to_string(),
        ]);
    }
    print_table(
        &[
            "b",
            "slab scanned",
            "slab pruned",
            "slab bytes peak",
            "parallel subtrees",
        ],
        &rows,
    );

    // Pricing-loop counters: what the design-level Lagrangian loop does,
    // iteration by iteration, on the default contended fleet at unit
    // capacities. Machine-independent like the tables above — nets
    // re-solved per iteration shows the warm-cache dirtying at work
    // (iteration 0 re-solves everything; afterwards only nets whose
    // mapped site prices changed), sites overused shows convergence.
    let spec = SharedSuiteSpec::default();
    let fleet: Vec<GlobalNet> = spec
        .build()
        .into_iter()
        .enumerate()
        .map(|(i, net)| GlobalNet::new(format!("shared/{i}"), net.tree, net.site_of))
        .collect();
    let lib = BufferLibrary::paper_synthetic(8).expect("b > 0");
    let outcome = GlobalSolver::new(fleet, lib, SiteCapacityMap::uniform(spec.pool_sites, 1))
        .solve()
        .expect("the default fleet is valid");
    let report = &outcome.report;
    println!(
        "\n# Global pricing-loop counters ({} nets, {} shared sites, capacity 1)\n",
        report.nets, report.pool_sites
    );
    let mut rows = Vec::new();
    for row in &report.history {
        rows.push(vec![
            row.iter.to_string(),
            row.nets_resolved.to_string(),
            row.sites_overused.to_string(),
            row.total_overuse.to_string(),
            format!("{}", row.max_price),
        ]);
    }
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
    println!(
        "\n{} of {} possible inner solves ({} iterations x {} nets): the warm loop only \
         re-solves nets whose prices changed. Feasible: {}.",
        report.total_resolved,
        report.iterations * report.nets,
        report.iterations,
        report.nets,
        report.feasible
    );
}
