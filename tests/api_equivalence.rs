//! Equivalence suite: the unified `fastbuf::api` request layer must be
//! **bit-identical** to the legacy entry points it fronts.
//!
//! The acceptance bar of the API redesign: a `SolveRequest` with a single
//! default scenario reproduces `Solver::new(..).solve()` exactly (slack
//! bit patterns, placements, frontier points), across the netgen suites,
//! for every algorithm, with and without slew limits; and a multi-scenario
//! request equals the corresponding independent legacy solves while
//! sharing one workspace. CI runs this suite in release mode too, so the
//! scenario fan-out is exercised under optimization.

use fastbuf::buflib::units::Seconds;
use fastbuf::cost::CostSolver;
use fastbuf::netgen::SuiteSpec;
use fastbuf::polarity::{Polarity, PolaritySolver};
use fastbuf::prelude::*;
use fastbuf::rctree::RoutingTree;
use fastbuf::VerifyError;

fn suite() -> Vec<RoutingTree> {
    SuiteSpec {
        nets: 8,
        max_sinks: 40,
        seed: 11,
        ..SuiteSpec::default()
    }
    .build()
}

fn lib() -> BufferLibrary {
    BufferLibrary::paper_synthetic(8).unwrap()
}

/// Golden anchor: the default-scenario request path reproduces the same
/// slack bit pattern the legacy solver is pinned to (recorded before the
/// `DelayModel` seam existed — see
/// `infinite_slew_limit_elmore_is_bit_identical_to_pre_seam_golden` in
/// `crates/core/src/engine.rs`). This makes the "thin shim" claim
/// transitive: request path ≡ legacy solver ≡ pre-seam arithmetic.
#[test]
fn default_request_hits_the_pre_seam_golden_bits() {
    let lib = lib();
    let session = Session::new(lib);
    let tree = fastbuf::netgen::line_net(fastbuf::buflib::units::Microns::new(10_000.0), 9);
    let outcome = session.request(&tree).solve().unwrap();
    let solution = outcome.solution().unwrap();
    assert_eq!(
        solution.slack.value().to_bits(),
        0x3e1a5a255d0ebf4c,
        "request-path slack drifted from the pre-seam golden: {}",
        solution.slack
    );
    assert_eq!(solution.placements.len(), 2);
}

/// Legacy `Solver` vs default-scenario `SolveRequest`: bit-identical
/// across the suite, all algorithms, slew on and off.
#[test]
fn request_equals_legacy_solver_all_algorithms_and_slew_modes() {
    let lib = lib();
    let session = Session::new(lib.clone());
    let nets = suite();
    for (i, tree) in nets.iter().enumerate() {
        for algo in Algorithm::ALL {
            for slew in [None, Some(Seconds::from_pico(300.0))] {
                let mut legacy = Solver::new(tree, &lib).algorithm(algo);
                let mut scenario = Scenario::named("corner").algorithm(algo);
                if let Some(limit) = slew {
                    legacy = legacy.slew_limit(limit);
                    scenario = scenario.slew_limit(limit);
                }
                let want = legacy.solve();
                let outcome = session.request(tree).scenario(scenario).solve().unwrap();
                let got = outcome.scenario("corner").unwrap().solution().unwrap();
                assert_eq!(
                    got.slack.value().to_bits(),
                    want.slack.value().to_bits(),
                    "net {i}, {algo}, slew {slew:?}"
                );
                assert_eq!(got.placements, want.placements, "net {i}, {algo}");
                assert_eq!(got.slew_ok, want.slew_ok, "net {i}, {algo}");
                assert_eq!(
                    got.stats.arena_entries, want.stats.arena_entries,
                    "net {i}, {algo}"
                );
            }
        }
    }
}

/// Legacy `CostSolver` vs `Objective::SlackCost`: identical frontiers.
#[test]
fn request_equals_legacy_cost_solver() {
    let lib = lib();
    let session = Session::new(lib.clone());
    for tree in suite().iter().take(4) {
        let want = CostSolver::new(tree, &lib).max_cost(80).solve().unwrap();
        let outcome = session
            .request(tree)
            .objective(Objective::SlackCost { max_cost: 80 })
            .solve()
            .unwrap();
        let got = outcome.scenarios[0].frontier().unwrap();
        assert_eq!(got.points.len(), want.points.len());
        for (a, b) in got.points.iter().zip(&want.points) {
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.slack.value().to_bits(), b.slack.value().to_bits());
            assert_eq!(a.placements, b.placements);
        }
    }
}

/// Legacy `PolaritySolver` vs `Objective::PolarityAware`: identical
/// slack and placements, including negated sinks.
#[test]
fn request_equals_legacy_polarity_solver() {
    let lib = BufferLibrary::paper_synthetic_mixed(8).unwrap();
    let session = Session::new(lib.clone());
    for tree in suite().iter().take(4) {
        let negated: Vec<_> = tree.sinks().take(1).collect();
        let mut legacy = PolaritySolver::new(tree, &lib);
        for &s in &negated {
            legacy.require(s, Polarity::Negative).unwrap();
        }
        let want = legacy.solve().unwrap();
        let outcome = session
            .request(tree)
            .objective(Objective::PolarityAware {
                negated_sinks: negated,
            })
            .solve()
            .unwrap();
        let got = outcome.scenarios[0].polarity().unwrap();
        assert_eq!(got.slack.value().to_bits(), want.slack.value().to_bits());
        assert_eq!(got.placements, want.placements);
        assert_eq!(got.inverter_count, want.inverter_count);
    }
}

/// Legacy `BatchSolver` (itself now routed through the api layer) vs a
/// manual per-net request loop: bit-identical slacks and placements.
#[test]
fn batch_equals_per_net_requests() {
    let lib = lib();
    let session = Session::new(lib.clone());
    let nets = suite();
    let report = BatchSolver::new(&nets, &lib).workers(2).solve();
    for outcome in &report.outcomes {
        let solo = session.request(&nets[outcome.index]).solve().unwrap();
        let solo = solo.solution().unwrap();
        assert_eq!(
            outcome.slack.value().to_bits(),
            solo.slack.value().to_bits()
        );
        assert_eq!(outcome.placements, solo.placements);
    }
}

/// Acceptance: a 3-scenario request returns per-scenario solutions
/// matching three independent legacy solves while reusing one workspace.
#[test]
fn three_scenarios_match_three_legacy_solves_with_one_workspace() {
    let lib = lib();
    let session = Session::new(lib.clone());
    let tree = &suite()[2];
    let limit = Seconds::from_pico(280.0);

    let outcome = session
        .request(tree)
        .scenario(Scenario::named("typical"))
        .scenario(Scenario::named("signoff").slew_limit(limit))
        .scenario(
            Scenario::named("optimistic")
                .delay_model(DelayModel::SCALED_ELMORE)
                .rat_derate(0.9),
        )
        .workers(1)
        .solve()
        .unwrap();

    // The sequential path checked out exactly one pooled workspace and
    // returned it after all three scenarios.
    assert_eq!(session.pooled_workspaces(), 1);

    let typical = Solver::new(tree, &lib).solve();
    let signoff = Solver::new(tree, &lib).slew_limit(limit).solve();
    // The reference derates a copy of the tree through the tree's own
    // setter, independently of the solver option the request uses.
    let mut derated = tree.clone();
    for sink in tree.sinks() {
        if let NodeKind::Sink {
            required_arrival, ..
        } = *tree.kind(sink)
        {
            let rat = Seconds::new(required_arrival.value() * 0.9);
            derated.set_sink_rat(sink, rat).unwrap();
        }
    }
    let optimistic = Solver::new(&derated, &lib)
        .delay_model(DelayModel::SCALED_ELMORE)
        .solve();

    for (name, want) in [
        ("typical", &typical),
        ("signoff", &signoff),
        ("optimistic", &optimistic),
    ] {
        let got = outcome.scenario(name).unwrap().solution().unwrap();
        assert_eq!(
            got.slack.value().to_bits(),
            want.slack.value().to_bits(),
            "{name}"
        );
        assert_eq!(got.placements, want.placements, "{name}");
    }

    // A second request reuses the pooled workspace rather than growing
    // the pool.
    let again = session.request(tree).solve().unwrap();
    assert_eq!(session.pooled_workspaces(), 1);
    assert_eq!(
        again.solution().unwrap().slack.value().to_bits(),
        typical.slack.value().to_bits()
    );
}

/// Regression for the verify-model bug: a solution records the delay
/// model it was solved under, so `Solution::verify` and `Outcome::verify`
/// both measure a scaled-Elmore solve with scaled-Elmore arithmetic. The
/// same placements measured under Elmore disagree with the prediction.
#[test]
fn solution_and_outcome_verify_measure_with_the_solve_model() {
    let lib = lib();
    let session = Session::builder(lib.clone())
        .delay_model(DelayModel::SCALED_ELMORE)
        .build();
    // Wire-heavy line net: Elmore and scaled-Elmore predictions disagree.
    let tree = fastbuf::netgen::line_net(fastbuf::buflib::units::Microns::new(10_000.0), 9);
    let outcome = session.request(&tree).solve().unwrap();
    let solution = outcome.solution().unwrap().clone();
    assert_eq!(solution.model, DelayModel::SCALED_ELMORE);

    solution.verify(&tree, &lib).unwrap();
    outcome.verify(&tree, &lib).unwrap();
    // Measured with the wrong arithmetic, the same answer is rejected:
    let as_elmore = Solution {
        model: DelayModel::Elmore,
        ..solution
    };
    let err = as_elmore.verify(&tree, &lib).unwrap_err();
    assert!(
        matches!(err, VerifyError::SlackMismatch { .. }),
        "expected a mismatch under Elmore arithmetic, got {err:?}"
    );
}

/// The request layer returns typed errors instead of panicking.
#[test]
fn request_layer_is_panic_free_on_bad_input() {
    let session = Session::new(lib());
    let tree = &suite()[0];
    assert!(matches!(
        session.request(tree).scenarios(Vec::new()).solve(),
        Err(SolveError::NoScenarios)
    ));
    assert!(matches!(
        session
            .request(tree)
            .scenario(Scenario::named("dup"))
            .scenario(Scenario::named("dup"))
            .solve(),
        Err(SolveError::DuplicateScenario(_))
    ));
    let err = session
        .request(tree)
        .scenario(Scenario::named("bad").rat_derate(-2.0))
        .solve()
        .unwrap_err();
    assert!(matches!(err, SolveError::InvalidDerate { .. }));
    // SolveError is a real std error.
    let boxed: Box<dyn std::error::Error> = Box::new(err);
    assert!(!boxed.to_string().is_empty());
}
