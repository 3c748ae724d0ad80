//! Ablation **X1**: scratch-hull (`Algorithm::LiShi`, exact) vs the paper's
//! published permanent convex pruning (`Algorithm::LiShiPermanent`).
//!
//! The published pseudo-code frees convex-pruned candidates from the
//! propagated list. That is loss-free on 2-pin nets but can discard a
//! candidate that a later *branch merge* would have made optimal
//! (`docs/ALGORITHM.md` §5). This harness quantifies both sides of the trade on
//! random multi-pin nets: how much faster permanent pruning is, and how
//! often / how much slack it gives up.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin ablation_pruning`

use fastbuf_bench::{fmt_duration, print_table, time_solves, HarnessOptions};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::Algorithm;
use fastbuf_netgen::RandomNetSpec;

fn main() {
    let opts = HarnessOptions::from_args();
    let lib = BufferLibrary::paper_synthetic(32).expect("b > 0");
    println!(
        "# Permanent vs scratch convex pruning (b = 32, scale {})\n",
        opts.scale
    );

    let mut rows = Vec::new();
    let mut nets = 0usize;
    let mut suboptimal = 0usize;
    let mut worst_gap = 0.0f64;
    for seed in 0..12u64 {
        let sinks = opts.sinks(200 + (seed as usize) * 37);
        let tree = RandomNetSpec {
            sinks,
            seed,
            ..RandomNetSpec::paper(sinks)
        }
        .build();
        let solves = [(&lib, Algorithm::LiShi), (&lib, Algorithm::LiShiPermanent)];
        let [(t_exact, s_exact), (t_perm, s_perm)]: [_; 2] =
            time_solves(&tree, &solves, opts.repeats)
                .try_into()
                .expect("two arms");
        let gap_ps = s_exact.slack.picos() - s_perm.slack.picos();
        nets += 1;
        if gap_ps > 1e-6 {
            suboptimal += 1;
            worst_gap = worst_gap.max(gap_ps);
        }
        rows.push(vec![
            seed.to_string(),
            sinks.to_string(),
            tree.buffer_site_count().to_string(),
            fmt_duration(t_exact.wall.best),
            fmt_duration(t_perm.wall.best),
            format!("{:.2}x", t_exact.secs() / t_perm.secs()),
            format!("{:.3}", gap_ps),
            s_perm.stats.convex_pruned.to_string(),
        ]);
    }
    print_table(
        &[
            "seed",
            "m",
            "n",
            "LiShi (exact)",
            "LiShi permanent",
            "perm speedup",
            "slack gap (ps)",
            "cands pruned",
        ],
        &rows,
    );
    println!(
        "\n{suboptimal}/{nets} nets lost slack to permanent pruning (worst gap {worst_gap:.3} ps)."
    );
    println!("Permanent pruning is the paper's published behaviour; the exact variant is the default here.");
}
