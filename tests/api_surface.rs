//! API-surface guard: every name exported from `fastbuf::prelude` and
//! `fastbuf::api` must keep compiling and keep its basic shape.
//!
//! This test exists to fail loudly when a re-export is dropped, renamed,
//! or has its signature changed — the facade and prelude are the
//! documented contract of the workspace. It exercises each export just
//! enough to pin its type, not its behaviour (behaviour is covered by
//! `api_equivalence.rs` and the per-crate suites).

// Pin every prelude export by importing it explicitly (a glob would
// silently forgive removals).
#[allow(unused_imports)]
use fastbuf::prelude::{
    Algorithm, BatchReport, BatchSolver, BufferLibrary, BufferSet, BufferType, BufferTypeId,
    CostSolver, DelayModel, Driver, Farads, Microns, NodeId, NodeKind, Objective, Ohms, Outcome,
    Polarity, PolaritySolver, RoutingTree, Scenario, ScenarioOutcome, ScenarioResult, Seconds,
    Session, SiteConstraint, Solution, SolveError, SolveRequest, SolveWorkspace, Solver,
    TreeBuilder, Wire,
};

// And the `fastbuf::api` module surface.
#[allow(unused_imports)]
use fastbuf::api::{
    json::{json_f64, json_str},
    parse_model, parse_scenarios, NetOutcome, SessionBuilder,
};

/// The full request round-trip compiles and runs against the prelude
/// names alone.
#[test]
fn prelude_supports_the_request_workflow() {
    let lib = BufferLibrary::paper_synthetic(4).unwrap();
    let tree: RoutingTree = fastbuf::netgen::line_net(Microns::new(6_000.0), 5);

    let session: Session = Session::builder(lib)
        .delay_model(DelayModel::Elmore)
        .build();
    let request: SolveRequest = session
        .request(&tree)
        .objective(Objective::MaxSlack)
        .scenario(Scenario::named("only").algorithm(Algorithm::LiShi));
    let outcome: Outcome = request.solve().unwrap();
    let corner: &ScenarioOutcome = &outcome.scenarios[0];
    match &corner.result {
        ScenarioResult::Solution(s) => {
            let _: &Solution = s;
        }
        _ => panic!("max-slack outcomes carry solutions"),
    }
    let err: Option<SolveError> = session.request(&tree).scenarios(Vec::new()).solve().err();
    assert!(err.is_some());
    outcome.verify(&tree, session.library()).unwrap();
}

/// The legacy prelude names still compose (shim path).
#[test]
fn prelude_supports_the_legacy_workflow() {
    let lib = BufferLibrary::paper_synthetic(4).unwrap();
    let tree = fastbuf::netgen::line_net(Microns::new(6_000.0), 5);
    let mut ws = SolveWorkspace::new();
    let solution = Solver::new(&tree, &lib)
        .algorithm(Algorithm::Lillis)
        .solve_with(&mut ws);
    solution.verify(&tree, &lib).unwrap();
    let report: BatchReport = BatchSolver::new(std::slice::from_ref(&tree), &lib)
        .workers(1)
        .solve();
    assert_eq!(report.outcomes.len(), 1);
}

/// `fastbuf::api` module exports: scenario-file parsing and the shared
/// JSON schema helpers.
#[test]
fn api_module_surface_holds() {
    let scenarios = parse_scenarios("a\nb derate=0.9\n").unwrap();
    assert_eq!(scenarios.len(), 2);
    assert_eq!(json_f64(1.0), "1");
    assert_eq!(json_str("x"), "\"x\"");
    let record = NetOutcome {
        index: 0,
        sinks: 1,
        sites: 1,
        slack_before: Seconds::ZERO,
        slack: Seconds::ZERO,
        measured_slack: Some(Seconds::ZERO),
        skew: None,
        measured_skew: None,
        slew_before: Seconds::ZERO,
        max_slew: Seconds::ZERO,
        slew_limit: None,
        slew_ok: true,
        placements: Vec::new(),
        cost: 0.0,
        stats: Default::default(),
        elapsed: std::time::Duration::ZERO,
    };
    assert!(record
        .to_value("n", None, false)
        .to_json()
        .contains("\"slack_after_ps\""));
    assert_eq!(record.verify(), Ok(Seconds::ZERO));
    let _builder: SessionBuilder = Session::builder(BufferLibrary::empty());
}
