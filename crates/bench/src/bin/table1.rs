//! Reproduces **Table 1** of Li & Shi, DATE 2005: running time of the
//! Lillis O(b²n²) algorithm vs the new O(bn²) algorithm on three nets
//! (337 / 1944 / 2676 sinks) across library sizes {8, 16, 32, 64}.
//!
//! The paper reports the new algorithm up to ~11× faster at b = 64 with a
//! small overhead at b = 8 (the extra `Convexpruning` work); the same shape
//! should appear here. Absolute times are not comparable (the paper used a
//! 400 MHz SPARC; the nets here are synthetic stand-ins).
//!
//! The "same slack" column is Theorem 1 in bits: Lillis and Li–Shi agree
//! on every bit of the slack, root `Q` and root load, and on the
//! placements. Any row that differs prints `NO!` and makes the harness
//! exit 1.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin table1 [--full]`

use fastbuf_bench::{
    fmt_duration, paper_net, print_table, time_solves, HarnessOptions, PAPER_LIB_SIZES, PAPER_SINKS,
};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{Algorithm, Solution, Solver};

/// The bits of a solution's slack, root `Q` and root load.
fn root_bits(s: &Solution) -> [u64; 3] {
    [
        s.slack.value().to_bits(),
        s.root_q.value().to_bits(),
        s.root_load.value().to_bits(),
    ]
}

fn main() {
    let opts = HarnessOptions::from_args();
    println!(
        "# Table 1 reproduction (scale {}, repeats {})\n",
        opts.scale, opts.repeats
    );
    let (mut rows, mut all_match) = (Vec::new(), true);
    for &paper_m in &PAPER_SINKS {
        let m = opts.sinks(paper_m);
        // Paper density: ~17 positions per sink on the 1944-sink net.
        let tree = paper_net(m, Some(m * 17));
        let n = tree.buffer_site_count();
        for &b in &PAPER_LIB_SIZES {
            let lib = BufferLibrary::paper_synthetic(b).expect("b > 0");
            let solves = [(&lib, Algorithm::Lillis), (&lib, Algorithm::LiShi)];
            let [(t_lillis, s_lillis), (t_lishi, s_lishi)]: [_; 2] =
                time_solves(&tree, &solves, opts.repeats)
                    .try_into()
                    .expect("two arms");
            let speedup = t_lillis.secs() / t_lishi.secs();
            // Theorem 1 in bits: both timed (untracked) solves pick the
            // same root candidate, and tracked solves the same placements.
            let tracked = |algo| Solver::new(&tree, &lib).algorithm(algo).solve();
            let (p_lillis, p_lishi) = (tracked(Algorithm::Lillis), tracked(Algorithm::LiShi));
            let slack_match = root_bits(&s_lillis) == root_bits(&s_lishi)
                && root_bits(&p_lillis) == root_bits(&p_lishi)
                && p_lillis.placements == p_lishi.placements;
            all_match &= slack_match;
            rows.push(vec![
                m.to_string(),
                n.to_string(),
                b.to_string(),
                format!("{:.1}", s_lishi.slack.picos()),
                fmt_duration(t_lillis.wall.best),
                fmt_duration(t_lishi.wall.best),
                format!("{speedup:.2}x"),
                if slack_match { "yes" } else { "NO!" }.into(),
            ]);
        }
    }
    print_table(
        &[
            "m (sinks)",
            "n (positions)",
            "b",
            "slack (ps)",
            "Lillis O(b^2 n^2)",
            "Li-Shi O(b n^2)",
            "speedup",
            "same slack",
        ],
        &rows,
    );
    println!("\npaper: speedups grow with b, up to ~11x at b = 64; ~1x (slight overhead) at b = 8");
    if !all_match {
        eprintln!("error: Lillis and Li-Shi disagree (a `NO!` row): Theorem 1 does not hold");
        std::process::exit(1);
    }
}
