//! Equivalence properties of the design-level pricing stack
//! (`fastbuf-global` + `SolverOptions::site_prices`):
//!
//! 1. the **priced inner solve is exact**: on tiny nets it matches an
//!    exhaustive enumeration of the priced objective
//!    `slack(assignment) − Σ price(placed site)`, for every algorithm and
//!    kernel, and pricing at zero is bit-identical to no pricing at all;
//! 2. the **outer Lagrangian loop is deterministic**: bit-identical
//!    feasibility, history, prices, slacks, and placements at every
//!    worker count and across warm vs from-scratch inner solves;
//! 3. a **converged loop respects every site capacity**, and degenerate
//!    fleets return typed errors instead of panicking.

use std::sync::Arc;

use proptest::prelude::*;

use fastbuf::global::{GlobalError, GlobalOutcome, GlobalReport, SiteUse};
use fastbuf::netgen::SharedSuiteSpec;
use fastbuf::prelude::*;
use fastbuf::rctree::{elmore, RoutingTree};
use fastbuf::Placement;

/// Tiny nets (≤ 6 sites) for the exhaustive priced oracle.
fn tiny_net(sites: usize, length_um: f64) -> RoutingTree {
    fastbuf::netgen::line_net(Microns::new(length_um), sites)
}

/// Enumerates every assignment and returns the best *priced* slack in
/// seconds: `slack − Σ price(placed site)`.
fn priced_brute_force(tree: &RoutingTree, lib: &BufferLibrary, prices: &[f64]) -> f64 {
    let sites: Vec<NodeId> = tree.buffer_sites().collect();
    let choices = lib.len() + 1;
    let total = choices.pow(sites.len() as u32);
    assert!(total <= 200_000, "brute force domain too large: {total}");
    let mut best = f64::NEG_INFINITY;
    for code in 0..total {
        let mut c = code;
        let mut placements = Vec::new();
        for &site in &sites {
            let pick = c % choices;
            c /= choices;
            if pick > 0 {
                placements.push((site, BufferTypeId::new(pick - 1)));
            }
        }
        let report = elmore::evaluate(tree, lib, &placements).expect("legal assignment");
        let charged: f64 = placements
            .iter()
            .map(|(node, _)| prices.get(node.index()).copied().unwrap_or(0.0))
            .sum();
        best = best.max(report.slack.value() - charged);
    }
    best
}

/// A small shared-site fleet drawn from seeded parameters.
fn arb_fleet() -> impl Strategy<Value = (SharedSuiteSpec, u32)> {
    (3usize..7, 0u64..500, 1u32..3).prop_map(|(nets, seed, cap)| {
        (
            SharedSuiteSpec {
                nets,
                pool_sites: 16,
                sites_per_net: 6,
                seed,
                ..SharedSuiteSpec::default()
            },
            cap,
        )
    })
}

fn build_fleet(spec: &SharedSuiteSpec) -> Vec<GlobalNet> {
    spec.build()
        .into_iter()
        .enumerate()
        .map(|(i, net)| GlobalNet::new(format!("shared/{i}"), net.tree, net.site_of))
        .collect()
}

/// Everything observable about an outcome, bit-exact.
type Fingerprint = (bool, usize, Vec<(u64, Vec<Placement>)>, Vec<SiteUse>);

fn fingerprint(outcome: &GlobalOutcome) -> Fingerprint {
    let GlobalReport {
        feasible,
        iterations,
        ref utilization,
        ref history,
        ..
    } = outcome.report;
    // History rows are part of determinism too — fold them into the
    // utilization check by asserting they are identical separately at
    // the call sites (IterationRow is PartialEq) and fingerprinting the
    // rest here.
    let _ = history;
    (
        feasible,
        iterations,
        outcome
            .solutions
            .iter()
            .map(|s| (s.slack.value().to_bits(), s.placements.clone()))
            .collect(),
        utilization.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (1) The priced DP is exact for the priced objective, on every
    /// algorithm and kernel.
    #[test]
    fn priced_solve_matches_priced_enumeration(
        sites in 2usize..6,
        length_um in 3000.0f64..9000.0,
        b in 2usize..4,
        price_seed in 0u64..1000,
    ) {
        let tree = tiny_net(sites, length_um);
        let lib = BufferLibrary::paper_synthetic_jittered(b, price_seed).expect("b >= 2");
        // Deterministic per-node prices in [0, 60) ps, only on sites.
        let mut prices = vec![0.0f64; tree.node_count()];
        for (j, node) in tree.buffer_sites().enumerate() {
            let x = (price_seed.wrapping_mul(0x9E3779B97F4A7C15).rotate_left(j as u32 * 7) >> 40) as f64
                / (1u64 << 24) as f64;
            prices[node.index()] = x * 60e-12;
        }
        let best = priced_brute_force(&tree, &lib, &prices);
        let shared: Arc<[f64]> = Arc::from(prices.as_slice());
        for algo in [Algorithm::Lillis, Algorithm::LiShi] {
            let mut options = SolverOptions::default();
            options.algorithm = algo;
            options.site_prices = Some(Arc::clone(&shared));
            let sol = Solver::new(&tree, &lib).with_options(options.clone()).solve();
            let oracle = fastbuf_core::oracle::solve(&tree, &lib, &options);
            prop_assert_eq!(sol.slack.value().to_bits(), oracle.slack.value().to_bits());
            prop_assert_eq!(&sol.placements, &oracle.placements);
            let tol = 1e-9 * best.abs().max(1e-12);
            prop_assert!(
                (sol.slack.value() - best).abs() <= tol,
                "{algo}: priced DP {} vs enumeration {}",
                sol.slack.value(), best
            );
            // The reported placements really are charged what the DP
            // says: forward-evaluate and re-subtract the prices.
            let measured = elmore::evaluate(
                &tree, &lib,
                &sol.placements.iter().map(|p| (p.node, p.buffer)).collect::<Vec<_>>(),
            ).expect("reconstruction is legal");
            let charged: f64 = sol.placements.iter()
                .map(|p| prices[p.node.index()])
                .sum();
            prop_assert!(
                (measured.slack.value() - charged - sol.slack.value()).abs() <= tol,
                "reconstruction does not achieve the priced slack"
            );
        }
    }

    /// (1b) A zero price vector is bit-identical to no prices at all —
    /// the exactness argument needs `x - 0.0` to change nothing.
    #[test]
    fn zero_prices_are_bit_identical_to_unpriced(
        sites in 2usize..8,
        length_um in 3000.0f64..12000.0,
        b in 2usize..6,
    ) {
        let tree = tiny_net(sites, length_um);
        let lib = BufferLibrary::paper_synthetic(b).expect("b >= 2");
        let zeros: Arc<[f64]> = Arc::from(vec![0.0f64; tree.node_count()].as_slice());
        let unpriced = Solver::new(&tree, &lib).solve();
        let priced = Solver::new(&tree, &lib).site_prices(Some(zeros)).solve();
        prop_assert_eq!(unpriced.slack.value().to_bits(), priced.slack.value().to_bits());
        prop_assert_eq!(unpriced.placements, priced.placements);
    }

    /// (2) + (3) The outer loop is bit-identical at every worker count
    /// and across warm vs scratch, and a feasible report means every
    /// site is within capacity.
    #[test]
    fn outer_loop_is_deterministic_and_respects_capacity(
        (spec, cap) in arb_fleet(),
    ) {
        let lib = BufferLibrary::paper_synthetic(4).expect("b > 0");
        let capacity = SiteCapacityMap::uniform(spec.pool_sites, cap);
        let mut baseline: Option<(GlobalOutcome, Vec<fastbuf::global::IterationRow>)> = None;
        for workers in [1usize, 2, 4] {
            for warm in [true, false] {
                let outcome = GlobalSolver::new(build_fleet(&spec), lib.clone(), capacity.clone())
                    .workers(workers)
                    .warm(warm)
                    .solve()
                    .expect("generated fleets are valid");
                match &baseline {
                    None => {
                        // (3) capacity is law once the loop reports
                        // feasible; either way usage is fully reported.
                        if outcome.report.feasible {
                            for u in &outcome.report.utilization {
                                prop_assert!(
                                    u.usage <= u.capacity,
                                    "feasible loop left site {} at {}/{}",
                                    u.site, u.usage, u.capacity
                                );
                            }
                        }
                        let history = outcome.report.history.clone();
                        baseline = Some((outcome, history));
                    }
                    Some((base, history)) => {
                        prop_assert_eq!(
                            fingerprint(base), fingerprint(&outcome),
                            "workers={} warm={} diverged", workers, warm
                        );
                        prop_assert_eq!(
                            history, &outcome.report.history,
                            "history diverged at workers={} warm={}", workers, warm
                        );
                    }
                }
            }
        }
    }
}

/// Degenerate fleets return typed errors (or clean reports) — never a
/// panic, never a lie about feasibility.
#[test]
fn degenerate_fleets_are_typed() {
    let lib = BufferLibrary::paper_synthetic(4).unwrap();

    // Empty fleet: a typed error.
    let err = GlobalSolver::new(Vec::new(), lib.clone(), SiteCapacityMap::uniform(4, 1))
        .solve()
        .unwrap_err();
    assert_eq!(err, GlobalError::EmptyFleet);

    let spec = SharedSuiteSpec {
        nets: 3,
        pool_sites: 16,
        sites_per_net: 6,
        ..SharedSuiteSpec::default()
    };

    // Zero capacity everywhere: converges by pricing every buffer out.
    let outcome = GlobalSolver::new(
        build_fleet(&spec),
        lib.clone(),
        SiteCapacityMap::uniform(spec.pool_sites, 0),
    )
    .solve()
    .expect("zero capacity is stringent, not invalid");
    assert!(outcome.report.feasible);
    assert_eq!(outcome.report.total_buffers, 0);

    // Capacity at least total demand: one iteration, zero prices.
    let outcome = GlobalSolver::new(
        build_fleet(&spec),
        lib,
        SiteCapacityMap::uniform(spec.pool_sites, (spec.nets * spec.sites_per_net) as u32),
    )
    .solve()
    .unwrap();
    assert!(outcome.report.feasible);
    assert_eq!(outcome.report.iterations, 1);
    assert!(outcome
        .report
        .utilization
        .iter()
        .all(|u| u.price.value() == 0.0));
}
