//! Design-level repeater insertion: buffer an entire synthetic netlist.
//!
//! The paper's motivation (via Saxena et al.) is that repeaters become a
//! third of all cells, which means the buffer-insertion algorithm runs once
//! per net across a whole design — exactly where an O(bn²) vs O(b²n²)
//! difference compounds. This example builds a 400-net design with a
//! realistic size mix, buffers it in parallel with both algorithms, and
//! prints the timing report.
//!
//! Run: `cargo run --release --example chip_repeaters`

use fastbuf::netgen::SuiteSpec;
use fastbuf::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let nets = SuiteSpec {
        nets: 400,
        max_sinks: 300,
        seed: 2005,
        ..SuiteSpec::default()
    }
    .build();
    let lib = BufferLibrary::paper_synthetic(32)?;
    let sinks: usize = nets.iter().map(RoutingTree::sink_count).sum();
    let sites: usize = nets.iter().map(RoutingTree::buffer_site_count).sum();
    println!(
        "design: {} nets, {sinks} sinks, {sites} candidate buffer positions",
        nets.len()
    );

    for algorithm in [Algorithm::Lillis, Algorithm::LiShi] {
        let report = BatchSolver::new(&nets, &lib).algorithm(algorithm).solve();
        println!(
            "\n[{algorithm}] {} threads, wall time {:?}",
            report.workers, report.elapsed
        );
        println!(
            "  WNS {} -> {}   TNS {} -> {}",
            report.wns_before, report.wns_after, report.tns_before, report.tns_after
        );
        println!(
            "  {} repeaters inserted ({:.1}% of a {}-cell design if sinks were cells), total cost {:.0}",
            report.total_buffers,
            100.0 * report.total_buffers as f64 / (sinks + report.total_buffers) as f64,
            sinks + report.total_buffers,
            report.total_cost
        );
        // The five slowest nets dominate the runtime — the heavy tail.
        let mut by_time: Vec<_> = report.outcomes.iter().collect();
        by_time.sort_by_key(|o| std::cmp::Reverse(o.elapsed));
        println!("  slowest nets:");
        for o in by_time.iter().take(5) {
            println!(
                "    net{:05}  {:>9?}  slack {} -> {}  ({} buffers)",
                o.index,
                o.elapsed,
                o.slack_before,
                o.slack,
                o.placements.len()
            );
        }
    }

    // Single-thread vs parallel: identical results, different wall time.
    let serial = BatchSolver::new(&nets, &lib).workers(1).solve();
    let parallel = BatchSolver::new(&nets, &lib).solve();
    assert_eq!(serial.wns_after, parallel.wns_after);
    assert_eq!(serial.total_buffers, parallel.total_buffers);
    println!(
        "\nserial {:?} vs parallel {:?} ({} threads) — identical results",
        serial.elapsed, parallel.elapsed, parallel.workers
    );
    Ok(())
}
