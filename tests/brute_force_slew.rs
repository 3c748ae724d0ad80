//! Brute-force cross-check on tiny (≤ 6-site) trees: enumerate *every*
//! buffer assignment, evaluate each with the independent forward engine
//! (including its worst output slew), and compare every `Algorithm`
//! variant against the exhaustive optimum — with and without a slew
//! limit, property-style over the vendored proptest.
//!
//! Contract checked per case:
//!
//! * **unconstrained**: exact algorithms (Lillis, Li–Shi) hit the true
//!   optimum exactly; permanent pruning never beats it;
//! * **slew-constrained**: whenever the solver reports `slew_ok`, its
//!   placements measure within the limit and its slack never exceeds the
//!   best *feasible* assignment's; when brute force proves the net
//!   infeasible, the solver must report `slew_ok = false`. (The DP prunes
//!   on the `(Q, C)` projection, so it may be conservative — but it must
//!   never claim an infeasible or super-optimal solution; see
//!   `docs/ALGORITHM.md`.)
//!
//! The skew, polarity and cost objectives run under the same slew limit
//! and are held to the same contract: a result flagged `slew_ok` measures
//! within the limit and never beats the best feasible assignment of its
//! own objective, and a net brute force proves infeasible is never
//! flagged `slew_ok`.

use proptest::prelude::*;

use fastbuf::netgen::RandomNetSpec;
use fastbuf::polarity::{check_polarity, Polarity, PolarityError, PolaritySolver};
use fastbuf::prelude::*;
use fastbuf::rctree::elmore::EvalReport;
use fastbuf::rctree::{elmore, NodeId, RoutingTree};

/// Every one of the `(b+1)^sites` assignments with its forward report.
fn assignments(
    tree: &RoutingTree,
    lib: &BufferLibrary,
) -> Vec<(Vec<(NodeId, BufferTypeId)>, EvalReport)> {
    let sites: Vec<NodeId> = tree.buffer_sites().collect();
    let choices = lib.len() + 1;
    let total = choices.pow(sites.len() as u32);
    assert!(total <= 200_000, "domain too large: {total}");
    (0..total)
        .map(|code| {
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
            (placements, report)
        })
        .collect()
}

/// Enumerates all `(b+1)^sites` assignments. Returns `(best_any, best
/// feasible under limit)` as slack picos (`None` = no feasible assignment).
fn brute_force(tree: &RoutingTree, lib: &BufferLibrary, slew_limit_ps: f64) -> (f64, Option<f64>) {
    let mut best_any = f64::NEG_INFINITY;
    let mut best_feasible = None;
    for (_, report) in assignments(tree, lib) {
        best_any = best_any.max(report.slack.picos());
        if within(&report, slew_limit_ps) {
            keep_best(&mut best_feasible, &report);
        }
    }
    (best_any, best_feasible)
}

/// The enumeration's feasibility test.
fn within(report: &EvalReport, slew_limit_ps: f64) -> bool {
    report.max_slew.picos() <= slew_limit_ps * (1.0 + 1e-12)
}

/// Raises `best` to the report's slack.
fn keep_best(best: &mut Option<f64>, report: &EvalReport) {
    let slack = report.slack.picos();
    *best = Some(best.map_or(slack, |b| b.max(slack)));
}

/// The contract of a pick (its `slew_ok` and predicted slack) under a
/// slew limit: one flagged `slew_ok` measures within the limit, the oracle
/// agrees a feasible assignment exists, and its slack never beats `best`
/// (the objective's best feasible slack); a flagged pick truly violates.
fn check_pick(
    what: &str,
    (slew_ok, slack): (bool, Seconds),
    measured: &EvalReport,
    limit_ps: f64,
    best: Option<f64>,
) {
    let (slew, slack_ps) = (measured.max_slew.picos(), slack.picos());
    if slew_ok {
        prop_assert!(
            slew <= limit_ps * (1.0 + 1e-9),
            "{what}: claimed feasible but measures {slew} over {limit_ps}"
        );
        let best = best.unwrap_or_else(|| panic!("{what}: oracle says infeasible"));
        prop_assert!(
            slack_ps <= best + 1e-6,
            "{what}: {slack_ps} beats the feasible optimum {best}"
        );
    } else {
        prop_assert!(
            slew > limit_ps * (1.0 - 1e-9),
            "{what}: flagged infeasible but measures {slew} within {limit_ps}"
        );
    }
}

fn tiny_library(b: usize, with_slew0: bool) -> BufferLibrary {
    let mut bufs = Vec::new();
    for i in 0..b {
        let t = i as f64 / (b.max(2) - 1) as f64;
        let mut buf = BufferType::new(
            format!("t{i}"),
            Ohms::new(3600.0 - 3000.0 * t),
            Farads::from_femto(1.0 + 10.0 * t),
            Seconds::from_pico(30.0 + 4.0 * t),
        );
        if with_slew0 && i == 0 {
            buf = buf.with_output_slew(Seconds::from_pico(20.0));
        }
        bufs.push(buf);
    }
    BufferLibrary::new(bufs).unwrap()
}

fn tiny_net(sinks: usize, seed: u64, pitch: f64) -> RoutingTree {
    RandomNetSpec {
        sinks,
        seed,
        die: Microns::new(2200.0),
        site_pitch: Some(Microns::new(pitch)),
        ..RandomNetSpec::default()
    }
    .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn exact_algorithms_match_enumeration_without_limit(
        sinks in 1usize..4,
        seed in 0u64..10_000,
        pitch in 700.0f64..1400.0,
        b in 1usize..4,
    ) {
        let tree = tiny_net(sinks, seed, pitch);
        if tree.buffer_site_count() > 6 {
            continue; // keep the enumeration tiny (body runs inside the case loop)
        }
        let lib = tiny_library(b, false);
        let (best, _) = brute_force(&tree, &lib, f64::INFINITY);
        for algo in Algorithm::ALL {
            let sol = Solver::new(&tree, &lib).algorithm(algo).solve();
            if algo.is_exact() {
                prop_assert!((sol.slack.picos() - best).abs() < 1e-6,
                    "{algo}: {} vs brute {best}", sol.slack.picos());
            } else {
                prop_assert!(sol.slack.picos() <= best + 1e-6, "{algo} beat the oracle");
            }
            prop_assert!(sol.verify(&tree, &lib).is_ok());
        }
    }

    #[test]
    fn slew_constrained_solutions_are_feasible_and_never_super_optimal(
        sinks in 1usize..4,
        seed in 0u64..10_000,
        pitch in 700.0f64..1400.0,
        b in 1usize..4,
        limit_frac in 0.25f64..1.1,
    ) {
        let tree = tiny_net(sinks, seed, pitch);
        if tree.buffer_site_count() > 6 {
            continue;
        }
        let lib = tiny_library(b, seed % 2 == 0);
        // A limit between "easy" and "impossible", anchored on the
        // unbuffered net's worst slew so it actually binds sometimes.
        let unbuf = elmore::evaluate(&tree, &lib, &[]).expect("empty is legal");
        let limit_ps = unbuf.max_slew.picos() * limit_frac;
        let (_, best_feasible) = brute_force(&tree, &lib, limit_ps);

        for algo in Algorithm::ALL {
            let sol = Solver::new(&tree, &lib)
                .algorithm(algo)
                .slew_limit(Seconds::from_pico(limit_ps))
                .solve();
            prop_assert!(sol.verify(&tree, &lib).is_ok(), "{algo}: broken reconstruction");
            let measured = elmore::evaluate(&tree, &lib, &sol.placement_pairs())
                .expect("placements are legal");
            let pick = (sol.slew_ok, sol.slack);
            check_pick(&algo.to_string(), pick, &measured, limit_ps, best_feasible);
        }
    }
}

/// How conservative is the `(Q, C)`-projected DP in practice? On exact
/// algorithms it should land on the feasible optimum in the vast majority
/// of cases. A fixed sweep counts the hits, so a DP that grows more
/// conservative fails here even while it stays sound (which
/// `slew_constrained_solutions_are_feasible_and_never_super_optimal` pins).
#[test]
fn slew_constrained_exact_algorithms_usually_hit_the_feasible_optimum() {
    let lib = tiny_library(2, false);
    let (mut feasible, mut hits) = (0, 0);
    for seed in 0u64..200 {
        let tree = tiny_net(2, seed, 900.0);
        if tree.buffer_site_count() > 6 {
            continue;
        }
        let unbuf = elmore::evaluate(&tree, &lib, &[]).expect("empty is legal");
        let limit_ps = unbuf.max_slew.picos() * 0.6;
        let (_, best_feasible) = brute_force(&tree, &lib, limit_ps);
        let sol = Solver::new(&tree, &lib)
            .slew_limit(Seconds::from_pico(limit_ps))
            .solve();
        if let (true, Some(best)) = (sol.slew_ok, best_feasible) {
            feasible += 1;
            hits += usize::from((sol.slack.picos() - best).abs() <= 1e-6);
        }
    }
    // Every one of the 76 feasible cases of the sweep hits the optimum.
    assert!(
        hits >= 76,
        "only {hits} of {feasible} feasible cases hit the optimum"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Skew (a bound below, at or above the unbounded skew, or none),
    /// polarity (one negated sink or none, inverters at odd library
    /// positions) and the cost frontier under the same slew limit, each
    /// against the enumeration's best feasible slack of its own objective.
    #[test]
    fn slew_constrained_objectives_are_feasible_and_never_super_optimal(
        sinks in 1usize..4,
        seed in 0u64..10_000,
        pitch in 700.0f64..1400.0,
        b in 1usize..4,
        limit_frac in 0.25f64..1.1,
        bound_frac in 0.0f64..1.5,
        negate in 0usize..2,
    ) {
        let tree = tiny_net(sinks, seed, pitch);
        if tree.buffer_site_count() > 6 {
            continue;
        }
        // Odd types invert (none when b = 1); polarity honours the
        // inversions, skew and cost see plain repeaters.
        let lib = tiny_library(b, seed % 2 == 0);
        let mixed = BufferLibrary::new(
            lib.iter().map(|(id, buf)| buf.clone().with_inverting(id.index() % 2 == 1)).collect(),
        )
        .unwrap();
        let unbuf = elmore::evaluate(&tree, &lib, &[]).expect("empty is legal");
        let limit_ps = unbuf.max_slew.picos() * limit_frac;
        let mut options = SolverOptions::default();
        options.slew_limit = Some(Seconds::from_pico(limit_ps));
        // Above 1 the bound is off; below it scales the unbounded skew.
        let free = SkewSolver::new(&tree, &lib).solve().skew.picos();
        let bound_ps = (bound_frac <= 1.0).then_some(free * bound_frac);
        let negated: Vec<NodeId> = tree.sinks().take(negate).collect();
        let budget = 4usize;

        // The best feasible slack: under the limit, then also within the
        // skew bound, with the right polarity, and at each cost (unit
        // costs: the buffer count).
        let (mut best_slew, mut best_skew, mut best_polarity) = (None, None, None);
        let mut best_at = vec![None; budget + 1];
        for (placements, report) in assignments(&tree, &lib) {
            if !within(&report, limit_ps) {
                continue;
            }
            keep_best(&mut best_slew, &report);
            if bound_ps.is_none_or(|w| report.skew(&tree).picos() <= w + 1e-9) {
                keep_best(&mut best_skew, &report);
            }
            if check_polarity(&tree, &mixed, &placements, &negated).is_ok() {
                keep_best(&mut best_polarity, &report);
            }
            for best in best_at.iter_mut().skip(placements.len()) {
                keep_best(best, &report);
            }
        }

        for algo in Algorithm::ALL {
            options.algorithm = algo;
            let measure = |lib, pairs: &[(NodeId, BufferTypeId)], slack: Seconds| {
                let report = elmore::evaluate(&tree, lib, pairs).expect("placements are legal");
                prop_assert!((report.slack.picos() - slack.picos()).abs() < 1e-6, "{algo}: slack");
                report
            };

            // Skew: the slew limit binds first, then the bound among the
            // picks that meet it.
            let skew = SkewSolver::new(&tree, &lib)
                .with_options(options.clone())
                .max_skew(bound_ps.map(Seconds::from_pico))
                .solve();
            let measured = measure(&lib, &skew.placement_pairs(), skew.slack);
            let skew_ps = measured.skew(&tree).picos();
            prop_assert!((skew_ps - skew.skew.picos()).abs() < 1e-6, "{algo}: skew {skew_ps}");
            let best = if skew.skew_ok { best_skew } else { best_slew };
            let pick = (skew.slew_ok, skew.slack);
            check_pick(&format!("skew {algo}"), pick, &measured, limit_ps, best);

            // Polarity: `Infeasible` only where no assignment has the
            // right polarity under the limit either.
            let mut solver = PolaritySolver::new(&tree, &mixed).with_options(options.clone());
            for &sink in &negated {
                solver.require(sink, Polarity::Negative).unwrap();
            }
            match solver.solve() {
                Ok(sol) => {
                    let pairs: Vec<_> = sol.placements.iter().map(|p| (p.node, p.buffer)).collect();
                    prop_assert!(check_polarity(&tree, &mixed, &pairs, &negated).is_ok());
                    let measured = measure(&mixed, &pairs, sol.slack);
                    let what = format!("polarity {algo}");
                    check_pick(&what, (sol.slew_ok, sol.slack), &measured, limit_ps, best_polarity);
                }
                Err(e) => {
                    prop_assert_eq!(e, PolarityError::Infeasible);
                    prop_assert!(best_polarity.is_none(), "{algo}: oracle {best_polarity:?}");
                }
            }

            // Cost: slew-feasible points only, or one flagged point.
            let frontier = CostSolver::new(&tree, &lib)
                .with_options(options.clone())
                .max_cost(budget as u32)
                .solve()
                .unwrap();
            let flagged = frontier.points.iter().filter(|p| !p.slew_ok).count();
            prop_assert!(flagged == 0 || frontier.points.len() == 1, "{algo}: flagged");
            prop_assert!(best_at[budget].is_some() || flagged == 1, "{algo}: oracle infeasible");
            for point in &frontier.points {
                let pairs: Vec<_> = point.placements.iter().map(|p| (p.node, p.buffer)).collect();
                prop_assert_eq!(pairs.len(), point.cost as usize);
                let measured = measure(&lib, &pairs, point.slack);
                let best = best_at[point.cost as usize];
                let pick = (point.slew_ok, point.slack);
                check_pick(&format!("cost {algo}"), pick, &measured, limit_ps, best);
            }
        }
    }
}
