//! The O(bn²) bound as a counter invariant.
//!
//! `SolveStats` counts the work of every `AddBuffer` call. Summed over one
//! solve, with Σk the candidates those calls ran on
//! (`addbuffer_candidates`):
//!
//! * Li–Shi builds its hulls from exactly Σk candidates, and its walks take
//!   at most Σk forward steps, under a slew limit too, where it scans only
//!   the types whose walked α is illegal;
//! * Lillis scans every candidate once per buffer type: exactly b·Σk visits
//!   on libraries without load limits;
//! * every algorithm emits at most b betas per call — also through the
//!   polarity and cost lanes, which route each β to another list.
//!
//! The counts are deterministic, so these bounds guard the paper's
//! complexity claim without any timing noise.

use fastbuf::netgen::{RandomNetSpec, SuiteSpec};
use fastbuf::prelude::*;
use fastbuf::rctree::RoutingTree;
use fastbuf::SolveStats;

/// Library sizes, from van Ginneken's single type to the paper's largest.
const SIZES: [usize; 5] = [1, 2, 8, 17, 64];

fn nets() -> Vec<(String, RoutingTree)> {
    let mut nets: Vec<(String, RoutingTree)> = (0..5u64)
        .map(|seed| {
            let net = RandomNetSpec {
                sinks: 6 + 7 * seed as usize,
                seed,
                site_pitch: Some(Microns::new(150.0)),
                ..RandomNetSpec::default()
            };
            (format!("random/{seed}"), net.build())
        })
        .collect();
    let suite = SuiteSpec {
        nets: 6,
        max_sinks: 48,
        seed: 3,
        ..SuiteSpec::default()
    };
    for (i, tree) in suite.build().into_iter().enumerate() {
        nets.push((format!("suite/{i}"), tree));
    }
    nets
}

/// At most `b` betas per `AddBuffer` call.
fn assert_betas_bounded(what: &str, b: usize, s: &SolveStats) {
    assert!(
        s.betas_generated <= b as u64 * s.addbuffer_ops,
        "{what}: {} betas from {} calls at b = {b}",
        s.betas_generated,
        s.addbuffer_ops
    );
}

/// Li–Shi's hull work: Σk hull inputs and at most Σk walk steps.
fn assert_walk_bounded(what: &str, s: &SolveStats) {
    assert_eq!(s.hull_input_candidates, s.addbuffer_candidates, "{what}");
    assert!(s.hull_walk_steps <= s.addbuffer_candidates, "{what}: {s}");
}

/// Li–Shi's hull work without limits: the walk alone, no scan.
fn assert_hull_bounded(what: &str, s: &SolveStats) {
    assert_walk_bounded(what, s);
    assert_eq!(s.scan_candidate_visits, 0, "{what}: no load limits");
}

/// The max-slack bounds, without a slew limit and under a ladder of them.
/// Under a limit Li–Shi still walks its hulls and scans only the types
/// whose walked α breaks the limit, so it never visits more candidates
/// than Lillis, and at 800 ps, where almost every α is legal, strictly
/// fewer.
#[test]
fn max_slack_addbuffer_work_meets_the_bounds() {
    let nets = nets();
    for b in SIZES {
        let lib = BufferLibrary::paper_synthetic(b).unwrap();
        for (name, tree) in &nets {
            for limit_ps in [f64::INFINITY, 800.0, 200.0, 50.0] {
                let solve = |algo| {
                    let mut solver = Solver::new(tree, &lib).algorithm(algo);
                    if limit_ps.is_finite() {
                        solver = solver.slew_limit(Seconds::from_pico(limit_ps));
                    }
                    solver.solve().stats
                };
                let what = format!("{name} b={b} limit={limit_ps} ps");
                let lishi = solve(Algorithm::LiShi);
                assert!(lishi.addbuffer_ops > 0, "{what}: the net has sites");
                let lillis = solve(Algorithm::Lillis);
                assert_eq!(
                    lillis.scan_candidate_visits,
                    b as u64 * lillis.addbuffer_candidates,
                    "{what}"
                );
                // Both exact algorithms keep the same lists.
                assert_eq!(lillis.addbuffer_candidates, lishi.addbuffer_candidates);
                if limit_ps.is_infinite() {
                    assert_hull_bounded(&what, &lishi);
                } else {
                    assert_walk_bounded(&what, &lishi);
                    let (scans, all) = (lishi.scan_candidate_visits, lillis.scan_candidate_visits);
                    assert!(scans <= all, "{what}: {lishi}");
                    assert!(limit_ps != 800.0 || scans < all, "{what}: {lishi}");
                }
                let permanent = solve(Algorithm::LiShiPermanent);
                assert!(permanent.hull_input_candidates <= permanent.addbuffer_candidates);
                assert!(permanent.hull_walk_steps <= permanent.hull_input_candidates);
                for (algo, s) in [("lishi", &lishi), ("lillis", &lillis), ("perm", &permanent)] {
                    assert_betas_bounded(&format!("{what} {algo}"), b, s);
                }
            }
        }
    }
}

#[test]
fn polarity_and_cost_lanes_route_at_most_b_betas_per_call() {
    let nets = nets();
    for b in SIZES {
        let lib = BufferLibrary::paper_synthetic_mixed(b).unwrap();
        let has_inverter = lib.iter().any(|(_, t)| t.is_inverting());
        for (name, tree) in &nets {
            for algo in Algorithm::ALL {
                let what = format!("{name} b={b} {algo}");
                let mut polarity = PolaritySolver::new(tree, &lib).algorithm(algo);
                if has_inverter {
                    for sink in tree.sinks().skip(1).step_by(2) {
                        polarity.require(sink, Polarity::Negative).unwrap();
                    }
                }
                let s = polarity.solve().unwrap().stats;
                assert_betas_bounded(&format!("{what} polarity"), lib.len(), &s);
                let cost = CostSolver::new(tree, &lib).algorithm(algo).max_cost(12);
                let c = cost.solve().unwrap().stats;
                assert_betas_bounded(&format!("{what} cost"), lib.len(), &c);
                if algo == Algorithm::LiShi {
                    assert_hull_bounded(&format!("{what} polarity"), &s);
                    assert_hull_bounded(&format!("{what} cost"), &c);
                }
            }
        }
    }
}
