//! Session-level incremental (ECO) solving: one tree, one cache per
//! scenario, shared across edits.
//!
//! A multi-corner flow re-asks the same scenarios after every engineering
//! change. Solving each corner from scratch repeats almost all of the
//! work; [`EcoSolver`] instead keeps the edited net once and one
//! persistent [`SubtreeCache`] **per scenario**, so interleaved corner
//! solves never thrash a shared cache and each re-solve recomputes only
//! the edited root paths. A corner's RAT derate is one of its solver
//! options, applied where the DP reads a sink's RAT, so every corner
//! solves the same underated tree and an edit is applied to it once.
//! The library and technology are the session's. Results are
//! bit-identical to issuing a fresh [`SolveRequest`](crate::SolveRequest)
//! on the edited tree (asserted in `tests/incremental_equivalence.rs`).

use std::time::Instant;

use fastbuf_core::{Solver, SolverOptions, SubtreeCache};
use fastbuf_incremental::{apply_edit, EcoError, Edit};
use fastbuf_rctree::RoutingTree;

use crate::error::SolveError;
use crate::outcome::{Outcome, ScenarioOutcome, ScenarioResult};
use crate::request::Objective;
use crate::scenario::{validate_scenario_list, Scenario};
use crate::session::Session;

/// A long-lived incremental solving handle for one net across one or more
/// scenarios. Created by [`Session::eco`]; see the module docs.
///
/// ```
/// use fastbuf_api::{Scenario, Session};
/// use fastbuf_buflib::units::Seconds;
/// use fastbuf_buflib::BufferLibrary;
/// use fastbuf_incremental::Edit;
///
/// let session = Session::new(BufferLibrary::paper_synthetic(8)?);
/// let tree = fastbuf_netgen::RandomNetSpec { sinks: 16, seed: 3, ..Default::default() }.build();
/// let mut eco = session.eco(
///     &tree,
///     vec![
///         Scenario::named("typical"),
///         Scenario::named("slow").rat_derate(0.9),
///     ],
/// )?;
/// let before = eco.solve()?;
///
/// // A sink's deadline tightened; both corners re-solve incrementally.
/// let sink = tree.sinks().next().unwrap();
/// eco.apply(&Edit::SetSinkRat { node: sink, rat: Seconds::from_pico(700.0) })?;
/// let after = eco.solve()?;
/// assert_eq!(after.scenarios.len(), 2);
/// // Verification re-measures each corner against the *edited* tree:
/// after.verify(eco.tree(), session.library())?;
/// # let _ = before;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct EcoSolver {
    /// The edited net, underated: what every corner solves and what
    /// [`Outcome::verify`] measures.
    tree: RoutingTree,
    /// The session whose library, technology and workspace pool every
    /// corner shares.
    session: Session,
    corners: Vec<EcoCorner>,
    edits_applied: u64,
}

#[derive(Debug)]
struct EcoCorner {
    scenario: Scenario,
    options: SolverOptions,
    cache: SubtreeCache,
}

impl Session {
    /// Starts an incremental (ECO) session over `tree` for `scenarios`
    /// (max-slack objective; every scenario gets its own persistent
    /// subtree cache). The tree is copied once — later edits go through
    /// [`EcoSolver::apply`], and [`EcoSolver::tree`] exposes the edited
    /// state.
    ///
    /// # Errors
    ///
    /// [`SolveError::NoScenarios`], [`SolveError::DuplicateScenario`], or
    /// a scenario validation error, including a derate that overflows a
    /// sink's RAT.
    pub fn eco(
        &self,
        tree: &RoutingTree,
        scenarios: Vec<Scenario>,
    ) -> Result<EcoSolver, SolveError> {
        if scenarios.is_empty() {
            return Err(SolveError::NoScenarios);
        }
        validate_scenario_list(&scenarios, tree)?;
        let corners = scenarios
            .into_iter()
            .map(|scenario| EcoCorner {
                options: self.options(&scenario),
                scenario,
                cache: SubtreeCache::new(),
            })
            .collect();
        Ok(EcoSolver {
            tree: tree.clone(),
            session: self.clone(),
            corners,
            edits_applied: 0,
        })
    }
}

impl EcoSolver {
    /// The current (edited, underated) tree — what [`Outcome::verify`]
    /// should be handed.
    pub fn tree(&self) -> &RoutingTree {
        &self.tree
    }

    /// Applies one edit to the tree and dirties its root path in every
    /// corner's cache.
    ///
    /// # Errors
    ///
    /// [`SolveError::Unsupported`] for [`Edit::SwapLibrary`] (the library
    /// is shared session state; sessions are immutable — build a new
    /// session, or use `IncrementalSolver::swap_library` directly), and
    /// [`SolveError::Edit`] when the tree rejects the mutation, or when a
    /// RAT edit derates to a non-finite value in *any* corner (a derate
    /// above 1 can overflow an extreme but finite RAT; the rule a fresh
    /// request applies too). Both are checked *before* the tree or any
    /// cache is touched, so a rejected edit leaves everything consistent.
    pub fn apply(&mut self, edit: &Edit) -> Result<(), SolveError> {
        if matches!(edit, Edit::SwapLibrary { .. }) {
            return Err(SolveError::Unsupported {
                scenario: "eco".into(),
                reason: "the session library is immutable shared state; \
                         swap libraries by building a new session (or use \
                         IncrementalSolver::swap_library directly)"
                    .into(),
            });
        }
        if let Edit::SetSinkRat { node, rat } = edit {
            for corner in &self.corners {
                corner.scenario.check_rat(*node, *rat)?;
            }
        }
        let caches = self.corners.iter_mut().map(|corner| &mut corner.cache);
        apply_edit(&mut self.tree, self.session.technology(), edit, caches)
            .map_err(|e| SolveError::Edit(EcoError::Tree(e)))?;
        self.edits_applied += 1;
        Ok(())
    }

    /// Applies a whole script in order.
    ///
    /// # Errors
    ///
    /// The first edit's error, with all earlier edits applied everywhere.
    pub fn apply_all(&mut self, edits: &[Edit]) -> Result<(), SolveError> {
        for edit in edits {
            self.apply(edit)?;
        }
        Ok(())
    }

    /// Re-solves every corner incrementally and returns the same
    /// [`Outcome`] shape as [`SolveRequest::solve`](crate::SolveRequest) —
    /// per-scenario solutions, each recording the model it solved with.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (the max-slack DP is total); the
    /// `Result` matches the request API so new failure modes can surface
    /// without a breaking change.
    pub fn solve(&mut self) -> Result<Outcome, SolveError> {
        let start = Instant::now();
        let (tree, library) = (&self.tree, self.session.library());
        let mut workspace = self.session.take_workspace();
        let scenarios = self
            .corners
            .iter_mut()
            .map(|corner| {
                let t0 = Instant::now();
                let solution = Solver::new(tree, library)
                    .with_options(corner.options.clone())
                    .solve_cached(&mut workspace, &mut corner.cache);
                ScenarioOutcome {
                    scenario: corner.scenario.clone(),
                    model: corner.options.delay_model,
                    algorithm: corner.options.algorithm,
                    result: ScenarioResult::Solution(solution),
                    elapsed: t0.elapsed(),
                }
            })
            .collect();
        self.session.return_workspace(workspace);
        Ok(Outcome {
            objective: Objective::MaxSlack,
            scenarios,
            elapsed: start.elapsed(),
        })
    }

    /// Per-corner cache diagnostics: `(scenario name, nodes currently
    /// cached, edits applied)` — cached nodes are populated after the
    /// first [`EcoSolver::solve`]. Per-solve recompute/reuse splits live
    /// on each solution's [`stats`](fastbuf_core::SolveStats).
    pub fn cache_report(&self) -> Vec<(&str, usize, u64)> {
        self.corners
            .iter()
            .map(|c| {
                (
                    c.scenario.name.as_str(),
                    c.cache.cached_nodes(),
                    self.edits_applied,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbuf_buflib::units::{Farads, Microns, Seconds};
    use fastbuf_buflib::BufferLibrary;
    use fastbuf_core::Algorithm;
    use fastbuf_netgen::eco::EditScriptSpec;
    use fastbuf_netgen::RandomNetSpec;
    use fastbuf_rctree::DelayModel;

    fn scenarios() -> Vec<Scenario> {
        vec![
            Scenario::named("typical"),
            Scenario::named("slow").rat_derate(0.9),
            Scenario::named("signoff").slew_limit(Seconds::from_pico(300.0)),
            Scenario::named("optimistic")
                .delay_model(DelayModel::SCALED_ELMORE)
                .algorithm(Algorithm::Lillis),
        ]
    }

    #[test]
    fn eco_outcome_matches_fresh_requests_after_every_edit() {
        let session = Session::new(BufferLibrary::paper_synthetic(8).unwrap());
        let tree = RandomNetSpec {
            sinks: 14,
            seed: 21,
            ..RandomNetSpec::default()
        }
        .build();
        let mut eco = session.eco(&tree, scenarios()).unwrap();
        let script = EditScriptSpec {
            edits: 12,
            locality: 0.5,
            seed: 8,
            swap_library_every: 0,
        }
        .generate(&tree);

        for edit in std::iter::once(None).chain(script.iter().map(Some)) {
            if let Some(edit) = edit {
                eco.apply(edit).unwrap();
            }
            let incremental = eco.solve().unwrap();
            let fresh = session
                .request(eco.tree())
                .scenarios(scenarios())
                .workers(1)
                .solve()
                .unwrap();
            assert_eq!(incremental.scenarios.len(), fresh.scenarios.len());
            for (a, b) in incremental.scenarios.iter().zip(&fresh.scenarios) {
                assert_eq!(a.scenario.name, b.scenario.name);
                assert_eq!(a.model, b.model);
                let (sa, sb) = (a.solution().unwrap(), b.solution().unwrap());
                assert_eq!(
                    sa.slack.value().to_bits(),
                    sb.slack.value().to_bits(),
                    "{}",
                    a.scenario.name
                );
                assert_eq!(sa.placements, sb.placements, "{}", a.scenario.name);
                assert_eq!(sa.slew_ok, sb.slew_ok, "{}", a.scenario.name);
            }
            // Model-aware verification against the edited tree passes.
            incremental.verify(eco.tree(), session.library()).unwrap();
        }
        let report = eco.cache_report();
        assert_eq!(report.len(), 4);
        assert!(report.iter().all(|&(_, cached, _)| cached > 0));
    }

    #[test]
    fn eco_validates_scenarios_and_rejects_library_swaps() {
        let session = Session::new(BufferLibrary::paper_synthetic(4).unwrap());
        let tree = fastbuf_netgen::line_net(Microns::new(4_000.0), 3);
        assert!(matches!(
            session.eco(&tree, Vec::new()),
            Err(SolveError::NoScenarios)
        ));
        assert!(matches!(
            session.eco(&tree, vec![Scenario::named("x"), Scenario::named("x")]),
            Err(SolveError::DuplicateScenario(_))
        ));
        assert!(matches!(
            session.eco(&tree, vec![Scenario::named("x").rat_derate(-1.0)]),
            Err(SolveError::InvalidDerate { .. })
        ));

        let mut eco = session.eco(&tree, vec![Scenario::default()]).unwrap();
        let err = eco
            .apply(&Edit::SwapLibrary { size: 4, jitter: 0 })
            .unwrap_err();
        assert!(matches!(err, SolveError::Unsupported { .. }), "{err}");

        // A rejected edit is typed and leaves every corner consistent.
        let err = eco
            .apply(&Edit::SetSinkCap {
                node: tree.root(),
                cap: Farads::from_femto(1.0),
            })
            .unwrap_err();
        assert!(matches!(err, SolveError::Edit(_)), "{err}");
        let outcome = eco.solve().unwrap();
        outcome.verify(eco.tree(), session.library()).unwrap();
    }

    /// A derate > 1 can overflow an extreme-but-finite RAT to infinity in
    /// one corner; that must be a typed error *before* anything mutates,
    /// never a panic with base and corners out of lockstep.
    #[test]
    fn derate_overflowing_rat_edit_is_typed_and_atomic() {
        let session = Session::new(BufferLibrary::paper_synthetic(4).unwrap());
        let tree = fastbuf_netgen::line_net(Microns::new(4_000.0), 3);
        let sink = tree.sinks().next().unwrap();
        let mut eco = session
            .eco(
                &tree,
                vec![Scenario::named("a"), Scenario::named("big").rat_derate(2.0)],
            )
            .unwrap();
        let before = eco.solve().unwrap();
        let err = eco
            .apply(&Edit::SetSinkRat {
                node: sink,
                rat: Seconds::new(f64::MAX),
            })
            .unwrap_err();
        assert!(matches!(err, SolveError::Edit(_)), "{err}");
        // Nothing moved: base tree and every corner still solve to the
        // pre-edit answer and verify against the unmutated base.
        let after = eco.solve().unwrap();
        for (a, b) in before.scenarios.iter().zip(&after.scenarios) {
            assert_eq!(
                a.solution().unwrap().slack.value().to_bits(),
                b.solution().unwrap().slack.value().to_bits()
            );
        }
        after.verify(eco.tree(), session.library()).unwrap();
    }

    /// The same overflow reaches a fresh request and a new ECO session as
    /// the same typed error, from the same check, as the edit above.
    #[test]
    fn derate_overflowing_rat_request_is_the_same_typed_error() {
        let session = Session::new(BufferLibrary::paper_synthetic(4).unwrap());
        let mut tree = fastbuf_netgen::line_net(Microns::new(4_000.0), 3);
        let sink = tree.sinks().next().unwrap();
        let big = vec![Scenario::named("a"), Scenario::named("big").rat_derate(2.0)];
        let rat = Seconds::new(1e308);
        let invalid = fastbuf_rctree::TreeError::InvalidSink { node: sink };
        let expected = SolveError::Edit(EcoError::Tree(invalid));
        let mut eco = session.eco(&tree, big.clone()).unwrap();
        let edit = Edit::SetSinkRat { node: sink, rat };
        assert_eq!(eco.apply(&edit).unwrap_err(), expected);

        tree.set_sink_rat(sink, rat).unwrap();
        let request = session.request(&tree).scenarios(big.clone());
        assert_eq!(request.solve().unwrap_err(), expected);
        assert_eq!(session.eco(&tree, big).unwrap_err(), expected);
        // Underated, the same net solves and verifies.
        session
            .request(&tree)
            .solve()
            .unwrap()
            .verify(&tree, session.library())
            .unwrap();
    }
}
