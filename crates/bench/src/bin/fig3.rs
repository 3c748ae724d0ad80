//! Reproduces **Figure 3** of Li & Shi, DATE 2005: normalized running time
//! vs buffer library size `b` on the 1944-sink net with 33133 buffer
//! positions.
//!
//! In the paper both algorithms grow near-linearly in `b` (Lillis' worst
//! case is quadratic but behaves linearly, as the paper notes), with the
//! new algorithm's slope much smaller — at `b = 64` Lillis sits at ~11× its
//! own `b = 8` time while the new algorithm stays near ~2×.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin fig3 [--full]`

use fastbuf_bench::{
    fmt_duration, paper_net, print_table, time_solves, HarnessOptions, PAPER_POSITIONS_1944,
};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::Algorithm;

fn main() {
    let opts = HarnessOptions::from_args();
    let m = opts.sinks(1944);
    let n_target = opts.positions(PAPER_POSITIONS_1944);
    let tree = paper_net(m, Some(n_target));
    println!(
        "# Figure 3 reproduction: m = {}, n = {} (scale {})\n",
        m,
        tree.buffer_site_count(),
        opts.scale
    );

    let sweep = [8usize, 16, 24, 32, 40, 48, 56, 64];
    let mut base: Option<(f64, f64)> = None;
    let mut rows = Vec::new();
    for &b in &sweep {
        let lib = BufferLibrary::paper_synthetic(b).expect("b > 0");
        let solves = [(&lib, Algorithm::Lillis), (&lib, Algorithm::LiShi)];
        let timed = time_solves(&tree, &solves, opts.repeats);
        let (t_lillis, t_lishi) = (timed[0].0.secs(), timed[1].0.secs());
        let (bl, bs) = *base.get_or_insert((t_lillis, t_lishi));
        rows.push(vec![
            b.to_string(),
            fmt_duration(timed[0].0.wall.best),
            format!("{:.2}", t_lillis / bl),
            fmt_duration(timed[1].0.wall.best),
            format!("{:.2}", t_lishi / bs),
        ]);
    }
    print_table(
        &[
            "b",
            "Lillis",
            "Lillis (norm to b=8)",
            "Li-Shi",
            "Li-Shi (norm to b=8)",
        ],
        &rows,
    );
    println!(
        "\npaper: Lillis rises to ~11x by b = 64; Li-Shi stays flat (~2x), much smaller slope"
    );
}
