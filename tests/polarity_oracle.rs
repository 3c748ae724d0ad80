//! Exhaustive oracle for the polarity-aware solver: enumerate every
//! assignment from a mixed buffer/inverter library, keep only those whose
//! inversion parity satisfies every sink, and compare the best feasible
//! slack against the two-list DP — under Elmore and under a scaled wire
//! model, which the DP and the enumeration both run.

use fastbuf::polarity::{check_polarity, Polarity, PolaritySolver};
use fastbuf::prelude::*;

use fastbuf::rctree::{elmore, NodeId, RoutingTree};

fn mixed_library() -> BufferLibrary {
    BufferLibrary::new(vec![
        BufferType::new(
            "buf",
            Ohms::new(900.0),
            Farads::from_femto(4.0),
            Seconds::from_pico(32.0),
        ),
        BufferType::new(
            "inv",
            Ohms::new(700.0),
            Farads::from_femto(5.0),
            Seconds::from_pico(18.0),
        )
        .with_inverting(true),
    ])
    .unwrap()
}

/// Best feasible slack over all assignments measured under `model`, or
/// None if infeasible.
fn brute_force(
    tree: &RoutingTree,
    lib: &BufferLibrary,
    negated: &[NodeId],
    model: DelayModel,
) -> Option<f64> {
    let sites: Vec<NodeId> = tree.buffer_sites().collect();
    let choices = lib.len() + 1;
    let total = choices.pow(sites.len() as u32);
    assert!(total <= 200_000, "domain too large: {total}");
    let mut best: Option<f64> = None;
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
        if check_polarity(tree, lib, &placements, negated).is_err() {
            continue;
        }
        let report = elmore::evaluate_with(tree, lib, &placements, model, 1.0).unwrap();
        let s = report.slack.picos();
        best = Some(best.map_or(s, |b: f64| b.max(s)));
    }
    best
}

fn nets() -> Vec<(String, RoutingTree, Vec<NodeId>)> {
    use fastbuf::netgen::RandomNetSpec;
    let mut out = Vec::new();
    // Lines with 2..6 sites; negate the sink in half the cases.
    for sites in 2..=6usize {
        let tree = fastbuf::netgen::line_net(Microns::new(1400.0 * sites as f64), sites);
        let sink = tree.sinks().next().unwrap();
        out.push((format!("line/{sites}/pos"), tree.clone(), vec![]));
        out.push((format!("line/{sites}/neg"), tree, vec![sink]));
    }
    // Small random multi-pin nets, first sink negated.
    for seed in 0..6u64 {
        let tree = RandomNetSpec {
            sinks: 3,
            seed,
            die: Microns::new(2200.0),
            site_pitch: Some(Microns::new(800.0)),
            ..RandomNetSpec::default()
        }
        .build();
        if tree.buffer_site_count() > 7 {
            continue;
        }
        let first_sink = tree.sinks().next().unwrap();
        out.push((format!("random/{seed}/pos"), tree.clone(), vec![]));
        out.push((format!("random/{seed}/neg"), tree, vec![first_sink]));
    }
    out
}

#[test]
fn polarity_dp_matches_exhaustive_enumeration() {
    let lib = mixed_library();
    let models: [DelayModel; 2] = [DelayModel::Elmore, DelayModel::SCALED_ELMORE];
    for model in models {
        let mut options = SolverOptions::default();
        options.delay_model = model;
        for (name, tree, negated) in nets() {
            let name = format!("{name} {}", model.name());
            let brute = brute_force(&tree, &lib, &negated, model);
            let mut solver = PolaritySolver::new(&tree, &lib).with_options(options.clone());
            for &s in &negated {
                solver.require(s, Polarity::Negative).unwrap();
            }
            match (solver.solve(), brute) {
                (Ok(sol), Some(best)) => {
                    assert!(
                        (sol.slack.picos() - best).abs() < 1e-6,
                        "{name}: DP {} vs brute {best}",
                        sol.slack.picos()
                    );
                    sol.verify(&tree, &lib, &negated)
                        .unwrap_or_else(|e| panic!("{name}: {e}"));
                }
                (Err(_), None) => {} // both infeasible: fine
                (dp, brute) => panic!("{name}: feasibility mismatch: dp={dp:?} brute={brute:?}"),
            }
        }
    }
}

#[test]
fn polarity_oracle_detects_infeasibility_without_inverters() {
    let buf_only = BufferLibrary::new(vec![BufferType::new(
        "buf",
        Ohms::new(900.0),
        Farads::from_femto(4.0),
        Seconds::from_pico(32.0),
    )])
    .unwrap();
    let tree = fastbuf::netgen::line_net(Microns::new(4000.0), 3);
    let sink = tree.sinks().next().unwrap();
    assert_eq!(
        brute_force(&tree, &buf_only, &[sink], DelayModel::Elmore),
        None
    );
    let mut solver = PolaritySolver::new(&tree, &buf_only);
    solver.require(sink, Polarity::Negative).unwrap();
    assert!(solver.solve().is_err());
}

#[test]
fn polarity_solver_agrees_across_algorithms_on_random_nets() {
    use fastbuf::netgen::RandomNetSpec;
    let lib = BufferLibrary::paper_synthetic_mixed(10).unwrap();
    for seed in 0..8u64 {
        let tree = RandomNetSpec {
            sinks: 14,
            seed,
            site_pitch: Some(Microns::new(200.0)),
            ..RandomNetSpec::default()
        }
        .build();
        let negated: Vec<NodeId> = tree.sinks().take(2).collect();
        let solve = |algo| {
            let mut s = PolaritySolver::new(&tree, &lib).algorithm(algo);
            for &n in &negated {
                s.require(n, Polarity::Negative).unwrap();
            }
            s.solve().unwrap()
        };
        let a = solve(Algorithm::Lillis);
        let b = solve(Algorithm::LiShi);
        assert!(
            (a.slack.picos() - b.slack.picos()).abs() < 1e-6,
            "seed {seed}: {} vs {}",
            a.slack,
            b.slack
        );
        b.verify(&tree, &lib, &negated).unwrap();
    }
}
