//! CTS pipeline equivalence and oracle suite.
//!
//! Two contracts of the skew-aware recursion (`fastbuf::skew`):
//!
//! 1. **No-bound bit-identity.** With no skew bound, the arrival windows
//!    are pure passengers: the `(q, c)` decisions must be *bit-identical*
//!    to the plain solver on every algorithm.
//! 2. **Oracle exactness.** On tiny topologies (≤ 6 sites) the unbounded
//!    optimum must match exhaustive enumeration, the reported skew must
//!    match the forward-measured skew of the chosen placements, and every
//!    bounded solve flagged feasible must actually meet its bound without
//!    beating the enumerated feasible optimum.

use fastbuf::netgen::{build_topology, CtsPlacementSpec, CtsTopologySpec};
use fastbuf::prelude::*;
use fastbuf::rctree::{elmore, NodeId, RoutingTree};

fn cts_tree(sinks: usize, seed: u64, pitch: Option<f64>) -> RoutingTree {
    let placements = CtsPlacementSpec {
        sinks,
        seed,
        ..CtsPlacementSpec::default()
    }
    .generate();
    let spec = CtsTopologySpec {
        site_pitch: pitch.map(Microns::new),
        ..CtsTopologySpec::default()
    };
    build_topology(&placements, &spec).unwrap().tree
}

/// Forward-measures the sink-to-sink skew of a placement set.
fn measured_skew(tree: &RoutingTree, lib: &BufferLibrary, pairs: &[(NodeId, BufferTypeId)]) -> f64 {
    let report = elmore::evaluate(tree, lib, pairs).unwrap();
    let (mut lo, mut hi) = (f64::MAX, f64::MIN);
    for &(n, s) in &report.sink_slacks {
        let arrival = match tree.kind(n) {
            NodeKind::Sink {
                required_arrival, ..
            } => required_arrival.value() - s.value(),
            _ => unreachable!(),
        };
        lo = lo.min(arrival);
        hi = hi.max(arrival);
    }
    hi - lo
}

#[test]
fn unbounded_recursion_is_bit_identical_to_the_plain_solver() {
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    let nets = [
        ("cts/64", cts_tree(64, 1, Some(400.0))),
        ("cts/33-unsegmented", cts_tree(33, 9, None)),
        ("htree/4", fastbuf::netgen::h_tree(4)),
        (
            "caterpillar/12",
            fastbuf::netgen::caterpillar_net(12, Microns::new(700.0), Microns::new(150.0)),
        ),
    ];
    for (name, tree) in &nets {
        for algo in Algorithm::ALL {
            let skewed = SkewSolver::new(tree, &lib).algorithm(algo).solve();
            assert!(skewed.skew_ok, "{name}/{algo}: no bound, always ok");
            let plain = Solver::new(tree, &lib).algorithm(algo).solve();
            assert_eq!(
                skewed.slack.value().to_bits(),
                plain.slack.value().to_bits(),
                "{name}/{algo}: slack bits diverged"
            );
            assert_eq!(
                skewed.root_load.value().to_bits(),
                plain.root_load.value().to_bits(),
                "{name}/{algo}: load bits diverged"
            );
            assert_eq!(
                skewed.placements, plain.placements,
                "{name}/{algo}: placements diverged"
            );
        }
    }
}

/// Enumerates every assignment, returning `(best_slack_ps, rows)` where
/// each row is `(slack_ps, skew_ps)` of one legal assignment.
fn enumerate(tree: &RoutingTree, lib: &BufferLibrary) -> (f64, Vec<(f64, f64)>) {
    let sites: Vec<NodeId> = tree.buffer_sites().collect();
    let choices = lib.len() + 1;
    let total = choices.pow(sites.len() as u32);
    assert!(total <= 200_000, "oracle domain too large: {total}");
    let mut best = f64::NEG_INFINITY;
    let mut rows = Vec::with_capacity(total);
    for code in 0..total {
        let mut c = code;
        let mut pairs = Vec::new();
        for &site in &sites {
            let pick = c % choices;
            c /= choices;
            if pick > 0 {
                pairs.push((site, BufferTypeId::new(pick - 1)));
            }
        }
        let report = elmore::evaluate(tree, lib, &pairs).unwrap();
        let slack = report.slack.picos();
        let skew = measured_skew(tree, lib, &pairs) * 1e12;
        best = best.max(slack);
        rows.push((slack, skew));
    }
    (best, rows)
}

fn oracle_trees() -> Vec<(String, RoutingTree)> {
    let mut nets = Vec::new();
    // Merge-tap-only CTS topologies: 3 sinks → 4 sites, 4 sinks → 6.
    for (sinks, seed) in [(2usize, 4u64), (3, 2), (3, 5), (4, 3), (4, 11)] {
        nets.push((format!("cts/{sinks}@{seed}"), cts_tree(sinks, seed, None)));
    }
    nets
}

#[test]
fn tiny_topologies_match_exhaustive_enumeration() {
    let lib = BufferLibrary::paper_synthetic(2).unwrap();
    for (name, tree) in oracle_trees() {
        assert!(
            tree.buffer_site_count() <= 6,
            "{name}: oracle wants ≤6 sites"
        );
        let (true_best, rows) = enumerate(&tree, &lib);

        // Unbounded: the DP finds the enumerated optimum, and its reported
        // skew is the forward-measured skew of its own placements.
        let sol = SkewSolver::new(&tree, &lib).solve();
        assert!(
            (sol.slack.picos() - true_best).abs() < 1e-6,
            "{name}: DP {} vs enumerated {}",
            sol.slack.picos(),
            true_best
        );
        let dp_skew = measured_skew(&tree, &lib, &sol.placement_pairs()) * 1e12;
        assert!(
            (sol.skew.picos() - dp_skew).abs() < 1e-6,
            "{name}: reported skew {} vs measured {}",
            sol.skew.picos(),
            dp_skew
        );

        // Bounded sweep over enumerated skew levels: feasible-flagged
        // solutions really meet the bound and never beat the enumerated
        // feasible optimum.
        let mut bounds: Vec<f64> = rows.iter().map(|&(_, skew)| skew).collect();
        bounds.push(0.0);
        bounds.sort_by(f64::total_cmp);
        bounds.dedup();
        for &bound_ps in bounds.iter().take(12) {
            let bounded = SkewSolver::new(&tree, &lib)
                .max_skew(Some(Seconds::from_pico(bound_ps)))
                .solve();
            let measured = measured_skew(&tree, &lib, &bounded.placement_pairs()) * 1e12;
            let feasible_best = rows
                .iter()
                .filter(|&&(_, skew)| skew <= bound_ps + 1e-6)
                .map(|&(slack, _)| slack)
                .fold(f64::NEG_INFINITY, f64::max);
            if bounded.skew_ok {
                assert!(
                    measured <= bound_ps + 1e-6,
                    "{name} bound {bound_ps}: flagged ok but measured {measured}"
                );
                assert!(
                    bounded.slack.picos() <= feasible_best + 1e-6,
                    "{name} bound {bound_ps}: DP {} beats enumerated feasible optimum {}",
                    bounded.slack.picos(),
                    feasible_best
                );
            } else {
                // Infeasibility is conservative (the width prune is safe
                // but the `(q, c)` dominance is a projection); the
                // fallback must still report its skew honestly.
                assert!(
                    (bounded.skew.picos() - measured).abs() < 1e-6,
                    "{name} bound {bound_ps}: fallback skew misreported"
                );
            }
        }

        // A bound at the unbounded optimum's own skew is always feasible
        // and bit-identical: window width is monotone along the recursion
        // (invariant under wire/buffer, grows only at merges), so none of
        // the optimum's ancestor candidates exceed the bound, and the
        // `(q, c)` decisions are untouched by the width prune.
        let at_own = SkewSolver::new(&tree, &lib)
            .max_skew(Some(Seconds::from_pico(sol.skew.picos() + 1e-9)))
            .solve();
        assert!(at_own.skew_ok, "{name}: own-skew bound must be feasible");
        assert_eq!(
            at_own.slack.value().to_bits(),
            sol.slack.value().to_bits(),
            "{name}: own-skew bound changed the optimum"
        );
        assert_eq!(at_own.placements, sol.placements, "{name}");
    }
}

/// The api objective rides the same recursion: `Objective::SkewTarget`
/// with no bound is bit-identical to `Objective::MaxSlack` on a full-size
/// CTS topology, and its verification (slack *and* skew re-measured)
/// passes.
#[test]
fn api_skew_objective_matches_max_slack_end_to_end() {
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    let session = Session::new(lib);
    let tree = cts_tree(64, 1, Some(400.0));
    let skewed = session
        .request(&tree)
        .objective(Objective::SkewTarget { max_skew: None })
        .solve()
        .unwrap();
    let plain = session.request(&tree).solve().unwrap();
    let (s, p) = (
        match &skewed.scenarios[0].result {
            ScenarioResult::Skew(s) => s,
            other => panic!("expected Skew, got {other:?}"),
        },
        plain.solution().unwrap(),
    );
    assert_eq!(s.slack.value().to_bits(), p.slack.value().to_bits());
    assert_eq!(s.placements, p.placements);
    skewed.verify(&tree, session.library()).unwrap();
}
