//! Buffering a clock-style H-tree.
//!
//! Clock distribution is the classic consumer of repeaters: a symmetric
//! H-tree must deliver the edge to every leaf within a tight required
//! arrival time. This example buffers a 256-sink H-tree, compares the
//! library sizes the paper studies (does a 64-type library beat an 8-type
//! one?), and reports the leaf slack spread the full library achieves.
//!
//! Run: `cargo run --release --example clock_tree`

use fastbuf::netgen::HTreeSpec;
use fastbuf::prelude::*;
use fastbuf::rctree::elmore;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = HTreeSpec {
        levels: 4, // 256 leaf flops
        arm: Microns::new(5000.0),
        site_pitch: Some(Microns::new(200.0)),
        ..HTreeSpec::default()
    };
    let tree = spec.build();
    println!("H-tree: {}", tree.stats());

    let unbuffered = elmore::evaluate(&tree, &fastbuf::buflib::BufferLibrary::empty(), &[])?;
    println!("unbuffered slack: {}\n", unbuffered.slack);

    // Sweep the paper's library sizes over nested libraries: b = 8, 16,
    // 32 take every (64/b)-th type of one 64-type draw, so each library
    // contains the smaller ones and more choices can only help.
    let full = BufferLibrary::paper_synthetic_jittered(64, 7)?;
    println!(
        "{:<14} {:>14} {:>9} {:>12}",
        "library", "slack", "buffers", "solve time"
    );
    let mut best_with_64 = None;
    let mut previous: Option<Seconds> = None;
    for b in [8usize, 16, 32, 64] {
        let ids: Vec<BufferTypeId> = (0..full.len())
            .step_by(full.len() / b)
            .map(BufferTypeId::new)
            .collect();
        // One session per library size; requests return typed Results.
        let session = Session::new(full.subset(&ids)?);
        let outcome = session.request(&tree).solve()?;
        outcome.verify(&tree, session.library())?;
        let sol = outcome.solution().unwrap().clone();
        println!(
            "{:<14} {:>14} {:>9} {:>12?}",
            format!("b = {b}"),
            sol.slack.to_string(),
            sol.placements.len(),
            sol.stats.elapsed
        );
        if let Some(prev) = previous.filter(|&prev| sol.slack < prev) {
            return Err(format!("slack fell from {prev} to {} at b = {b}", sol.slack).into());
        }
        previous = Some(sol.slack);
        if b == 64 {
            best_with_64 = Some((session, sol));
        }
    }

    // The O(bn²) algorithm makes the full library affordable, so there is
    // no need to shrink it first.
    let (full_session, full_sol) = best_with_64.expect("loop ran");
    let full_lib = full_session.library();
    println!(
        "\nthe O(bn²) algorithm makes the full library affordable: {:?} for b = 64",
        full_sol.stats.elapsed
    );

    // Clock trees care about skew too: report the slack spread across leaves.
    let report = elmore::evaluate(&tree, full_lib, &full_sol.placement_pairs())?;
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(_, s) in &report.sink_slacks {
        lo = lo.min(s.picos());
        hi = hi.max(s.picos());
    }
    println!(
        "\nleaf slack spread after buffering: {:.1} .. {:.1} ps",
        lo, hi
    );
    Ok(())
}
