//! Reproduces **Figure 4** of Li & Shi, DATE 2005: normalized running time
//! vs the number of buffer positions `n` on the 1944-sink net with a
//! 32-buffer library.
//!
//! Both algorithms are quadratic in `n`, but the new algorithm grows much
//! more slowly because adding a buffer (the dominant operation as `n`
//! rises) costs O(k + b) instead of O(k·b). The paper normalizes each curve
//! to its own time at n = 1943; at n ≈ 66k Lillis reaches ~160× while the
//! new algorithm stays far below.
//!
//! Run: `cargo run --release -p fastbuf-bench --bin fig4 [--full]`

use fastbuf_bench::{fmt_duration, paper_net, print_table, time_solves, HarnessOptions};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::Algorithm;

fn main() {
    let opts = HarnessOptions::from_args();
    let m = opts.sinks(1944);
    let lib = BufferLibrary::paper_synthetic(32).expect("b > 0");
    println!(
        "# Figure 4 reproduction: m = {m}, b = 32 (scale {})\n",
        opts.scale
    );

    // The paper sweeps 1943 .. ~66k positions on the fixed net.
    let paper_sweep = [1943usize, 4000, 8000, 16_000, 33_133, 66_000];
    let mut base: Option<(f64, f64)> = None;
    let mut rows = Vec::new();
    for &paper_n in &paper_sweep {
        let n_target = opts.positions(paper_n);
        let tree = paper_net(m, Some(n_target));
        let n = tree.buffer_site_count();
        let solves = [(&lib, Algorithm::Lillis), (&lib, Algorithm::LiShi)];
        let timed = time_solves(&tree, &solves, opts.repeats);
        let (t_lillis, t_lishi) = (timed[0].0.secs(), timed[1].0.secs());
        let (bl, bs) = *base.get_or_insert((t_lillis, t_lishi));
        rows.push(vec![
            n.to_string(),
            fmt_duration(timed[0].0.wall.best),
            format!("{:.2}", t_lillis / bl),
            fmt_duration(timed[1].0.wall.best),
            format!("{:.2}", t_lishi / bs),
        ]);
    }
    print_table(
        &["n", "Lillis", "Lillis (norm)", "Li-Shi", "Li-Shi (norm)"],
        &rows,
    );
    println!("\npaper: both curves superlinear in n; Li-Shi grows much more slowly than Lillis");
}
