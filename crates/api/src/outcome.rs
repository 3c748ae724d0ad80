//! The unified result envelope.

use std::sync::Arc;
use std::time::Duration;

use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::cost::CostFrontier;
use fastbuf_core::polarity::PolaritySolution;
use fastbuf_core::skew::SkewSolution;
use fastbuf_core::{forward_agrees, Algorithm, Placement, Solution, VerifyError};
use fastbuf_rctree::{elmore, DelayModel, RoutingTree};

use crate::error::SolveError;
use crate::request::Objective;
use crate::scenario::Scenario;
use crate::variation::VariationOutcome;

/// The per-scenario payload of a solve.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum ScenarioResult {
    /// A single best-slack solution ([`Objective::MaxSlack`]).
    Solution(Solution),
    /// The slack-vs-cost Pareto frontier ([`Objective::SlackCost`]).
    Frontier(CostFrontier),
    /// A polarity-aware solution ([`Objective::PolarityAware`]).
    Polarity(PolaritySolution),
    /// A Monte-Carlo slack distribution ([`Objective::YieldTarget`]).
    Variation(VariationOutcome),
    /// A skew-aware solution ([`Objective::SkewTarget`]).
    Skew(SkewSolution),
}

/// One scenario's result, together with the configuration that actually
/// produced it — in particular the delay model, so verification re-measures
/// with the same arithmetic the DP predicted with instead of silently
/// assuming Elmore.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct ScenarioOutcome {
    /// The scenario as requested.
    pub scenario: Scenario,
    /// The delay model actually used (the scenario override, or the
    /// session default).
    pub model: Arc<dyn DelayModel>,
    /// The `AddBuffer` algorithm actually used.
    pub algorithm: Algorithm,
    /// The payload.
    pub result: ScenarioResult,
    /// Wall-clock time of this scenario's solve.
    pub elapsed: Duration,
}

impl ScenarioOutcome {
    /// The solution, if this scenario solved for max slack.
    pub fn solution(&self) -> Option<&Solution> {
        match &self.result {
            ScenarioResult::Solution(s) => Some(s),
            _ => None,
        }
    }

    /// The frontier, if this scenario solved for slack-vs-cost.
    pub fn frontier(&self) -> Option<&CostFrontier> {
        match &self.result {
            ScenarioResult::Frontier(f) => Some(f),
            _ => None,
        }
    }

    /// The polarity solution, if this scenario was polarity-aware.
    pub fn polarity(&self) -> Option<&PolaritySolution> {
        match &self.result {
            ScenarioResult::Polarity(p) => Some(p),
            _ => None,
        }
    }

    /// The Monte-Carlo distribution, if this scenario solved for yield.
    pub fn variation(&self) -> Option<&VariationOutcome> {
        match &self.result {
            ScenarioResult::Variation(v) => Some(v),
            _ => None,
        }
    }

    /// The skew-aware solution, if this scenario solved for a skew target.
    pub fn skew(&self) -> Option<&SkewSolution> {
        match &self.result {
            ScenarioResult::Skew(s) => Some(s),
            _ => None,
        }
    }

    /// The scenario's headline slack: the solution slack, the best
    /// frontier point, the polarity solution's slack, or the requested
    /// quantile of the sampled slack distribution.
    pub fn slack(&self) -> Option<Seconds> {
        match &self.result {
            ScenarioResult::Solution(s) => Some(s.slack),
            ScenarioResult::Frontier(f) => f.points.last().map(|p| p.slack),
            ScenarioResult::Polarity(p) => Some(p.slack),
            ScenarioResult::Variation(v) => Some(v.summary.quantile_slack),
            ScenarioResult::Skew(s) => Some(s.slack),
        }
    }
}

/// The result of [`SolveRequest::solve`](crate::SolveRequest::solve): one
/// [`ScenarioOutcome`] per requested scenario, in request order.
///
/// ```
/// use fastbuf_api::{Scenario, Session};
/// use fastbuf_buflib::units::{Microns, Seconds};
/// use fastbuf_buflib::BufferLibrary;
///
/// let session = Session::new(BufferLibrary::paper_synthetic(8)?);
/// let tree = fastbuf_netgen::line_net(Microns::new(10_000.0), 9);
/// let outcome = session
///     .request(&tree)
///     .scenario(Scenario::named("typical"))
///     .scenario(Scenario::named("slew").slew_limit(Seconds::from_pico(250.0)))
///     .solve()?;
/// assert_eq!(outcome.scenarios.len(), 2);
/// // Per-scenario results are addressed by name:
/// let typical = outcome.scenario("typical").unwrap();
/// assert!(typical.solution().is_some());
/// // The worst corner decides whether the net closes timing:
/// assert!(outcome.worst_slack().unwrap() <= typical.solution().unwrap().slack);
/// outcome.verify(&tree, session.library())?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct Outcome {
    /// The objective every scenario solved for.
    pub objective: Objective,
    /// Per-scenario outcomes, in request order.
    pub scenarios: Vec<ScenarioOutcome>,
    /// Wall-clock time of the whole request.
    pub elapsed: Duration,
}

impl Outcome {
    /// The outcome of the scenario with the given name.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioOutcome> {
        self.scenarios.iter().find(|s| s.scenario.name == name)
    }

    /// The single solution of a one-scenario max-slack request (the common
    /// case); `None` for multi-scenario or non-max-slack requests.
    pub fn solution(&self) -> Option<&Solution> {
        match self.scenarios.as_slice() {
            [only] => only.solution(),
            _ => None,
        }
    }

    /// The worst (smallest) headline slack across scenarios — the
    /// multi-corner answer to "does this net close timing?".
    pub fn worst_slack(&self) -> Option<Seconds> {
        self.scenarios
            .iter()
            .filter_map(ScenarioOutcome::slack)
            .min_by(|a, b| a.value().total_cmp(&b.value()))
    }

    /// Re-measures every scenario's result with the independent forward
    /// evaluator **under the delay model and derate that scenario actually
    /// solved with** and checks the measured slack against the DP's
    /// prediction.
    ///
    /// This is the model-safe replacement for the legacy
    /// [`Solution::verify`] shim, which always measures with Elmore and
    /// therefore reports a false mismatch for solves under any other
    /// model.
    ///
    /// `tree` must be the tree the request was solved on (underated —
    /// scenario derates are re-applied here).
    ///
    /// # Errors
    ///
    /// [`SolveError::Verify`] naming the first scenario whose measurement
    /// disagrees with its prediction; [`SolveError::Polarity`] for
    /// polarity requirement violations.
    pub fn verify(&self, tree: &RoutingTree, library: &BufferLibrary) -> Result<(), SolveError> {
        for so in &self.scenarios {
            let scenario_tree = so.scenario.apply_derate(tree);
            let scenario_tree = &*scenario_tree;
            let named = |error: VerifyError| SolveError::Verify {
                scenario: so.scenario.name.clone(),
                error,
            };
            let agrees = |predicted: Seconds, measured: Seconds| {
                if forward_agrees(predicted.value(), measured.value()) {
                    Ok(())
                } else {
                    Err(named(VerifyError::SlackMismatch {
                        predicted,
                        measured,
                    }))
                }
            };
            // Forward-evaluates `placements` and checks the slack.
            let measure = |placements: &[Placement], predicted: Seconds| {
                let pairs: Vec<_> = placements.iter().map(|p| (p.node, p.buffer)).collect();
                let report = elmore::evaluate_with(scenario_tree, library, &pairs, &*so.model)
                    .map_err(|e| named(VerifyError::Tree(e)))?;
                agrees(predicted, report.slack).map(|()| report)
            };
            match &so.result {
                ScenarioResult::Solution(solution) => {
                    solution
                        .verify_with(scenario_tree, library, &*so.model)
                        .map_err(named)?;
                }
                ScenarioResult::Frontier(frontier) => {
                    for point in &frontier.points {
                        measure(&point.placements, point.slack)?;
                    }
                }
                ScenarioResult::Variation(_) => {
                    // Sampled sweeps do not track placements (there is
                    // nothing to forward-evaluate here); their correctness
                    // contract is per-sample bit-identity to a scratch
                    // solve of the sampled tree, asserted by the
                    // differential harness `tests/variation_equivalence.rs`.
                }
                ScenarioResult::Skew(skew) => {
                    if !skew.tracked {
                        return Err(named(VerifyError::NotTracked));
                    }
                    // The slack, then the skew itself.
                    let report = measure(&skew.placements, skew.slack)?;
                    agrees(skew.skew, report.skew(scenario_tree))?;
                }
                ScenarioResult::Polarity(polarity) => {
                    let negated: &[_] = match &self.objective {
                        Objective::PolarityAware { negated_sinks } => negated_sinks,
                        _ => &[],
                    };
                    polarity
                        .verify_with(scenario_tree, library, negated, &*so.model)
                        .map_err(SolveError::Polarity)?;
                }
            }
        }
        Ok(())
    }
}
