//! The unified front door to the `fastbuf` solvers.
//!
//! The paper's DP is one engine, but the workspace historically exposed it
//! through four disjoint entry points (`Solver`, `CostSolver`,
//! `PolaritySolver`, `BatchSolver`) with manually threaded options. This
//! crate is the typed, `Result`-returning request layer on top of all of
//! them:
//!
//! * [`Session`] — the immutable shared context (buffer library,
//!   technology, default delay model, workspace pool). Cheap to clone,
//!   safe to share across threads; clones share the warm workspace pool.
//! * [`SolveRequest`] — one net, one [`Objective`]
//!   ([`MaxSlack`](Objective::MaxSlack),
//!   [`SlackCost`](Objective::SlackCost) → Pareto frontier,
//!   [`PolarityAware`](Objective::PolarityAware)), and one or more
//!   [`Scenario`]s (per-corner delay model, slew limit, required-time
//!   derate, algorithm override). Multi-scenario requests solve corners
//!   concurrently over the session's workspace pool.
//! * [`Outcome`] — per-scenario results plus the configuration that
//!   actually produced them, so [`Outcome::verify`] re-measures with the
//!   same delay model the DP predicted with (the legacy
//!   `Solution::verify` shim always measures with Elmore).
//! * [`NetOutcome`] — one solved net, measured: the DP's prediction
//!   beside the forward evaluation of the same corner, unbuffered and
//!   buffered. The one per-net result `fastbuf-batch`, `fastbuf solve
//!   --json`, `fastbuf cts` and `fastbuf serve` report, and
//!   [`NetOutcome::verify`] the one check that accepts it.
//! * [`EcoSolver`] — the incremental (ECO) entry: [`Session::eco`] keeps
//!   one persistent subtree cache *per scenario*, applies typed tree
//!   edits, and re-solves bit-identically to a fresh request on the
//!   edited tree while recomputing only the edited root paths.
//! * [`SolveError`] — the `#[non_exhaustive]` typed error surface; no
//!   entry point in this crate panics on user input.
//!
//! **Compatibility guarantee:** a request with one untouched scenario is
//! bit-identical to the legacy `Solver::new(tree, lib).solve()` path —
//! same slack bits, same placements, same stats. The workspace-level
//! equivalence suite (`tests/api_equivalence.rs`) asserts this across the
//! netgen suites for every algorithm, with and without slew limits.
//!
//! # Quick start
//!
//! ```
//! use fastbuf_api::{Scenario, Session};
//! use fastbuf_buflib::units::{Microns, Seconds};
//! use fastbuf_buflib::BufferLibrary;
//!
//! let session = Session::new(BufferLibrary::paper_synthetic(8)?);
//! let tree = fastbuf_netgen::line_net(Microns::new(12_000.0), 11);
//!
//! // One net, three corners, one call:
//! let outcome = session
//!     .request(&tree)
//!     .scenario(Scenario::named("typical"))
//!     .scenario(Scenario::named("slow").rat_derate(0.9))
//!     .scenario(Scenario::named("signoff").slew_limit(Seconds::from_pico(300.0)))
//!     .solve()?;
//!
//! for corner in &outcome.scenarios {
//!     let s = corner.solution().expect("max-slack objective");
//!     println!("{}: slack {} with {} buffers", corner.scenario.name, s.slack, s.placements.len());
//! }
//! // Verification uses each corner's own model and derate:
//! outcome.verify(&tree, session.library())?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod eco;
mod error;
pub mod json;
mod outcome;
mod request;
mod scenario;
mod session;
mod variation;
pub mod wire;

pub use eco::EcoSolver;
pub use error::SolveError;
pub use fastbuf_netgen::{parse_variation, write_variation, Dist, VariationSpec};
pub use outcome::{NetOutcome, Outcome, ScenarioOutcome, ScenarioResult};
pub use request::{Objective, SolveRequest};
pub use scenario::{parse_scenario_lines, parse_scenarios, Scenario};
pub use session::{Session, SessionBuilder};
pub use variation::{
    parse_variation_spec, summarize_samples, SampleResult, VariationOutcome, VariationSummary,
};

#[cfg(test)]
mod tests {
    use super::*;
    use fastbuf_buflib::units::{Microns, Seconds};
    use fastbuf_buflib::BufferLibrary;
    use fastbuf_core::{Algorithm, Solver};
    use fastbuf_netgen::{line_net, RandomNetSpec};
    use fastbuf_rctree::ScaledElmoreModel;
    use std::sync::Arc;

    fn lib8() -> BufferLibrary {
        BufferLibrary::paper_synthetic(8).unwrap()
    }

    #[test]
    fn default_request_matches_legacy_solver_bit_for_bit() {
        let lib = lib8();
        let session = Session::new(lib.clone());
        for (len, sites) in [(10_000.0, 9), (6_000.0, 25)] {
            let tree = line_net(Microns::new(len), sites);
            let outcome = session.request(&tree).solve().unwrap();
            let legacy = Solver::new(&tree, &lib).solve();
            let s = outcome.solution().unwrap();
            assert_eq!(s.slack.value().to_bits(), legacy.slack.value().to_bits());
            assert_eq!(s.placements, legacy.placements);
            assert_eq!(s.stats.arena_entries, legacy.stats.arena_entries);
        }
    }

    #[test]
    fn multi_scenario_matches_independent_legacy_solves() {
        let lib = lib8();
        let session = Session::new(lib.clone());
        let tree = RandomNetSpec {
            sinks: 16,
            seed: 9,
            ..RandomNetSpec::default()
        }
        .build();
        let limit = Seconds::from_pico(250.0);
        let outcome = session
            .request(&tree)
            .scenario(Scenario::named("typical"))
            .scenario(Scenario::named("signoff").slew_limit(limit))
            .scenario(
                Scenario::named("optimistic")
                    .delay_model(Arc::new(ScaledElmoreModel::default()))
                    .rat_derate(0.9),
            )
            .workers(1)
            .solve()
            .unwrap();
        assert_eq!(outcome.scenarios.len(), 3);

        let typical = Solver::new(&tree, &lib).solve();
        let signoff = Solver::new(&tree, &lib).slew_limit(limit).solve();
        let derated = tree.with_derated_rats(0.9);
        let optimistic = Solver::new(&derated, &lib)
            .delay_model(Arc::new(ScaledElmoreModel::default()))
            .solve();
        for (name, legacy) in [
            ("typical", &typical),
            ("signoff", &signoff),
            ("optimistic", &optimistic),
        ] {
            let got = outcome.scenario(name).unwrap().solution().unwrap();
            assert_eq!(
                got.slack.value().to_bits(),
                legacy.slack.value().to_bits(),
                "{name}"
            );
            assert_eq!(got.placements, legacy.placements, "{name}");
        }
        // The sequential path checked exactly one workspace out of the
        // pool and returned it: all three scenarios shared it.
        assert_eq!(session.pooled_workspaces(), 1);

        // Verification under each scenario's own model/derate passes.
        outcome.verify(&tree, &lib).unwrap();

        // Worst slack is the minimum across corners.
        let expected = typical.slack.min(signoff.slack).min(optimistic.slack);
        assert_eq!(outcome.worst_slack().unwrap(), expected);
    }

    #[test]
    fn parallel_and_sequential_scenarios_agree() {
        let lib = lib8();
        // Four grains of corner work, so a cap of 4 fans out to 4 workers.
        let tree = RandomNetSpec {
            sinks: 300,
            seed: 5,
            ..RandomNetSpec::default()
        }
        .build();
        assert!(4 * tree.node_count() * lib.len() >= 4 * fastbuf_core::par::GRAIN);
        let session = Session::new(lib);
        let scenarios = || {
            vec![
                Scenario::named("a"),
                Scenario::named("b").slew_limit(Seconds::from_pico(220.0)),
                Scenario::named("c").algorithm(Algorithm::Lillis),
                Scenario::named("d").rat_derate(0.8),
            ]
        };
        let seq = session
            .request(&tree)
            .scenarios(scenarios())
            .workers(1)
            .solve()
            .unwrap();
        let par = session
            .request(&tree)
            .scenarios(scenarios())
            .workers(4)
            .solve()
            .unwrap();
        for (a, b) in seq.scenarios.iter().zip(&par.scenarios) {
            assert_eq!(a.scenario.name, b.scenario.name);
            let (sa, sb) = (a.solution().unwrap(), b.solution().unwrap());
            assert_eq!(sa.slack, sb.slack);
            assert_eq!(sa.placements, sb.placements);
        }
        // The pool retains every workspace the fan-out used: one per
        // worker.
        assert_eq!(session.pooled_workspaces(), 4);
    }

    #[test]
    fn request_validation_errors_are_typed() {
        let session = Session::new(lib8());
        let tree = line_net(Microns::new(2_000.0), 2);
        assert!(matches!(
            session.request(&tree).scenarios(Vec::new()).solve(),
            Err(SolveError::NoScenarios)
        ));
        assert!(matches!(
            session
                .request(&tree)
                .scenario(Scenario::named("x"))
                .scenario(Scenario::named("x"))
                .solve(),
            Err(SolveError::DuplicateScenario(n)) if n == "x"
        ));
        assert!(matches!(
            session
                .request(&tree)
                .scenario(Scenario::named("x").rat_derate(f64::NAN))
                .solve(),
            Err(SolveError::InvalidDerate { .. })
        ));
    }

    /// Every objective solves under its scenario's options — the session
    /// default or a scenario model, with or without a slew limit — and
    /// `Outcome::verify` re-measures it under the same model. Skew runs on
    /// a many-sink comb, whose sinks sit at different depths, so the
    /// re-measured skew windows are not trivially zero.
    #[test]
    fn every_objective_runs_under_any_model_and_slew_limit() {
        let scaled = Session::builder(lib8())
            .delay_model(Arc::new(ScaledElmoreModel::default()))
            .build();
        let limit = Seconds::from_pico(100.0);
        let line = line_net(Microns::new(4_000.0), 4);
        let comb = fastbuf_netgen::caterpillar_net(12, Microns::new(700.0), Microns::new(150.0));
        for (objective, tree) in [
            (Objective::SlackCost { max_cost: 40 }, &line),
            (
                Objective::PolarityAware {
                    negated_sinks: Vec::new(),
                },
                &line,
            ),
            (Objective::SkewTarget { max_skew: None }, &comb),
            (
                Objective::SkewTarget {
                    max_skew: Some(Seconds::from_pico(40.0)),
                },
                &comb,
            ),
        ] {
            for (session, scenario) in [
                (&scaled, Scenario::default()),
                (&scaled, Scenario::named("s").slew_limit(limit)),
                (
                    &Session::new(lib8()),
                    Scenario::named("s").delay_model(Arc::new(ScaledElmoreModel::default())),
                ),
            ] {
                let request = session.request(tree).objective(objective.clone());
                let outcome = request.scenario(scenario).solve().unwrap();
                outcome.verify(tree, session.library()).unwrap();
                if let Some(skew) = outcome.scenarios[0].skew() {
                    assert!(skew.skew > Seconds::ZERO, "{objective:?}");
                }
            }
        }
    }

    #[test]
    fn skew_objective_validates_and_matches_max_slack() {
        let lib = lib8();
        let session = Session::new(lib.clone());
        let tree = fastbuf_netgen::h_tree(3);

        // Unbounded skew-target is bit-identical to plain max-slack.
        let skewed = session
            .request(&tree)
            .objective(Objective::SkewTarget { max_skew: None })
            .solve()
            .unwrap();
        let plain = session.request(&tree).solve().unwrap();
        let s = skewed.scenarios[0].skew().unwrap();
        let p = plain.solution().unwrap();
        assert_eq!(s.slack.value().to_bits(), p.slack.value().to_bits());
        assert_eq!(s.placements, p.placements);
        assert!(s.skew_ok);
        assert_eq!(skewed.worst_slack().unwrap(), s.slack);
        skewed.verify(&tree, &lib).unwrap();

        // Untracked, there are no placements to verify.
        let untracked = session.request(&tree).track_predecessors(false);
        let outcome = untracked.objective(Objective::SkewTarget { max_skew: None });
        let err = outcome.solve().unwrap().verify(&tree, &lib).unwrap_err();
        assert!(err.to_string().contains("tracking was disabled"), "{err}");

        // A negative or non-finite bound is a typed error.
        for bad in [-1.0, f64::INFINITY, f64::NEG_INFINITY] {
            let err = session
                .request(&tree)
                .objective(Objective::SkewTarget {
                    max_skew: Some(Seconds::from_pico(bad)),
                })
                .solve()
                .unwrap_err();
            assert!(matches!(err, SolveError::InvalidSkewBound { .. }), "{err}");
        }
    }

    #[test]
    fn cost_objective_returns_the_frontier() {
        let lib = lib8();
        let session = Session::new(lib.clone());
        let tree = line_net(Microns::new(9_000.0), 6);
        let outcome = session
            .request(&tree)
            .objective(Objective::SlackCost { max_cost: 80 })
            .solve()
            .unwrap();
        let frontier = outcome.scenarios[0].frontier().unwrap();
        let legacy = fastbuf_core::cost::CostSolver::new(&tree, &lib)
            .max_cost(80)
            .solve()
            .unwrap();
        assert_eq!(frontier.points.len(), legacy.points.len());
        for (a, b) in frontier.points.iter().zip(&legacy.points) {
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.slack.value().to_bits(), b.slack.value().to_bits());
            assert_eq!(a.placements, b.placements);
        }
        outcome.verify(&tree, &lib).unwrap();
        assert!(outcome.worst_slack().is_some());
    }

    #[test]
    fn polarity_objective_solves_and_verifies() {
        let lib = BufferLibrary::paper_synthetic_mixed(8).unwrap();
        let session = Session::new(lib.clone());
        let tree = line_net(Microns::new(6_000.0), 5);
        let sink = tree.sinks().next().unwrap();
        let outcome = session
            .request(&tree)
            .objective(Objective::PolarityAware {
                negated_sinks: vec![sink],
            })
            .solve()
            .unwrap();
        let polarity = outcome.scenarios[0].polarity().unwrap();
        assert!(
            polarity.inverter_count % 2 == 1,
            "negated sink needs odd parity"
        );
        outcome.verify(&tree, &lib).unwrap();
    }

    #[test]
    fn polarity_bad_sink_is_a_typed_error() {
        let session = Session::new(lib8());
        let tree = line_net(Microns::new(3_000.0), 3);
        let err = session
            .request(&tree)
            .objective(Objective::PolarityAware {
                negated_sinks: vec![tree.root()],
            })
            .solve()
            .unwrap_err();
        assert!(matches!(err, SolveError::Polarity(_)), "{err}");
    }

    #[test]
    fn derate_changes_slack_not_placements_semantics() {
        let lib = lib8();
        let session = Session::new(lib);
        let tree = line_net(Microns::new(10_000.0), 9);
        let outcome = session
            .request(&tree)
            .scenario(Scenario::named("derated").rat_derate(0.5))
            .solve()
            .unwrap();
        let s = outcome.scenario("derated").unwrap().solution().unwrap();
        let base = session.request(&tree).solve().unwrap();
        // Halving every RAT shifts the optimum slack down (RAT enters Q
        // additively) but the placements of a line net stay optimal.
        assert!(s.slack < base.solution().unwrap().slack);
        outcome.verify(&tree, session.library()).unwrap();
    }
}
