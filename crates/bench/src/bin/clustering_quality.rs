//! Extension **X3**: buffer-library clustering vs solving the full library.
//!
//! Before the O(bn²) algorithm, the standard remedy for very large
//! libraries was to *shrink the library* by clustering similar buffers
//! (Alpert, Gandham, Neves & Quay — reference \[3\] of the paper), accepting
//! a quality loss. This harness reproduces that trade-off: solve with the
//! full b = 64 library (fast thanks to the O(bn²) algorithm), then with
//! clustered sub-libraries of 16, 8 and 4 types, reporting slack loss and
//! runtime.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin clustering_quality`

use fastbuf_bench::{fmt_duration, paper_net, print_table, time_solves, HarnessOptions};
use fastbuf_buflib::cluster::cluster_library;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::Algorithm;

fn main() {
    let opts = HarnessOptions::from_args();
    let m = opts.sinks(337);
    let tree = paper_net(m, Some(m * 17));
    println!(
        "# Library clustering quality: m = {}, n = {} (scale {})\n",
        m,
        tree.buffer_site_count(),
        opts.scale
    );

    let full = BufferLibrary::paper_synthetic_jittered(64, 2005).expect("b > 0");
    let sizes = [16usize, 8, 4];
    let reduced: Vec<BufferLibrary> = sizes
        .iter()
        .map(|&k| cluster_library(&full, k).expect("valid k").library)
        .collect();
    let solves: Vec<_> = std::iter::once(&full)
        .chain(&reduced)
        .map(|lib| (lib, Algorithm::LiShi))
        .collect();
    let timed = time_solves(&tree, &solves, opts.repeats);
    let (t_full, full_slack) = (timed[0].0.secs(), timed[0].1.slack.picos());

    let labels = std::iter::once("64 (full)".to_owned()).chain(sizes.map(|k| k.to_string()));
    let rows: Vec<Vec<String>> = labels
        .zip(&timed)
        .map(|(label, (t, s))| {
            vec![
                label,
                format!("{:.1}", s.slack.picos()),
                format!("{:.1}", full_slack - s.slack.picos()),
                fmt_duration(t.wall.best),
                format!("{:.2}x", t_full / t.secs()),
            ]
        })
        .collect();
    print_table(
        &[
            "library size",
            "slack (ps)",
            "slack loss (ps)",
            "runtime",
            "runtime vs full",
        ],
        &rows,
    );
    println!("\nClustering buys runtime but costs slack; the O(bn^2) algorithm makes the full library affordable instead.");
}
