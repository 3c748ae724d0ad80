//! Building and solving requests.

use std::sync::Arc;
use std::time::Instant;

use fastbuf_buflib::units::Seconds;
use fastbuf_core::cost::CostSolver;
use fastbuf_core::polarity::PolaritySolver;
use fastbuf_core::skew::SkewSolver;
use fastbuf_core::{par, SolveWorkspace, Solver};
use fastbuf_netgen::VariationSpec;
use fastbuf_rctree::{NodeId, RoutingTree};

use crate::error::SolveError;
use crate::outcome::{Outcome, ScenarioOutcome, ScenarioResult};
use crate::scenario::Scenario;
use crate::session::Session;

/// What a request solves for.
#[derive(Clone, Debug, PartialEq, Default)]
#[non_exhaustive]
pub enum Objective {
    /// Maximize slack at the source — the paper's problem; one
    /// [`Solution`](fastbuf_core::Solution) per scenario.
    #[default]
    MaxSlack,
    /// The full slack-vs-cost Pareto frontier up to a cost cap — one
    /// [`CostFrontier`](fastbuf_core::cost::CostFrontier) per scenario.
    SlackCost {
        /// Largest total buffer cost explored.
        max_cost: u32,
    },
    /// Polarity-aware insertion with inverters — one
    /// [`PolaritySolution`](fastbuf_core::polarity::PolaritySolution) per
    /// scenario.
    PolarityAware {
        /// Sinks required to receive negative polarity.
        negated_sinks: Vec<NodeId>,
    },
    /// Monte-Carlo process-variation solving: expand the request's
    /// [`VariationSpec`] (see [`SolveRequest::variation`]) into `samples`
    /// deterministic sampled scenarios, solve each through per-worker warm
    /// subtree caches, and report the slack distribution — one
    /// [`VariationOutcome`](crate::VariationOutcome) per scenario instead
    /// of a single worst-negative-slack number.
    YieldTarget {
        /// Number of Monte-Carlo samples (must be non-zero).
        samples: usize,
        /// The reported slack quantile in `[0, 1]` (e.g. `0.05` asks "what
        /// slack do 95 % of dice beat?").
        quantile: f64,
    },
    /// Skew-aware buffering for clock trees: the max-slack recursion with
    /// per-candidate sink arrival windows — one
    /// [`SkewSolution`](fastbuf_core::skew::SkewSolution) per scenario.
    /// With no bound the solution is bit-identical to
    /// [`Objective::MaxSlack`] and the skew is merely *reported*; with a
    /// bound, candidates whose window exceeds it are pruned at merges
    /// (feasible-or-flagged, see the [`skew`](fastbuf_core::skew) module
    /// docs for exactness caveats).
    SkewTarget {
        /// Hard sink-to-sink skew bound, or `None` to only report skew.
        /// Must be finite and non-negative when set.
        max_skew: Option<Seconds>,
    },
}

/// A solve request: one net, one [`Objective`], one or more
/// [`Scenario`]s.
///
/// Created by [`Session::request`]. An untouched request (no scenarios, no
/// objective) solves one default scenario for max slack and is
/// **bit-identical** to the legacy `Solver::new(tree, lib).solve()` shim
/// (asserted against golden slack bit patterns in the equivalence suite).
///
/// Multi-scenario requests solve scenarios concurrently over the session's
/// workspace pool ([`SolveRequest::workers`] caps the fan-out;
/// [`SolveRequest::solve_in`] runs them sequentially through one caller
/// workspace). Results are deterministic for every worker count.
///
/// ```
/// use fastbuf_api::{Objective, Scenario, Session};
/// use fastbuf_buflib::units::Microns;
/// use fastbuf_buflib::BufferLibrary;
///
/// let session = Session::new(BufferLibrary::paper_synthetic(8)?);
/// let tree = fastbuf_netgen::line_net(Microns::new(8_000.0), 7);
/// // The Pareto frontier, in two corners at once:
/// let outcome = session
///     .request(&tree)
///     .objective(Objective::SlackCost { max_cost: 60 })
///     .scenario(Scenario::named("typical"))
///     .scenario(Scenario::named("slow").rat_derate(0.9))
///     .solve()?;
/// let typical = outcome.scenario("typical").unwrap().frontier().unwrap();
/// let slow = outcome.scenario("slow").unwrap().frontier().unwrap();
/// assert!(!typical.points.is_empty() && !slow.points.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SolveRequest<'a> {
    session: &'a Session,
    tree: &'a RoutingTree,
    objective: Objective,
    scenarios: Option<Vec<Scenario>>,
    track_predecessors: bool,
    workers: Option<usize>,
    variation: Option<VariationSpec>,
}

impl<'a> SolveRequest<'a> {
    pub(crate) fn new(session: &'a Session, tree: &'a RoutingTree) -> Self {
        SolveRequest {
            session,
            tree,
            objective: Objective::MaxSlack,
            scenarios: None,
            track_predecessors: true,
            workers: None,
            variation: None,
        }
    }

    /// Selects the objective (default [`Objective::MaxSlack`]).
    #[must_use]
    pub fn objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Appends a scenario. A request with no scenarios solves one
    /// [`Scenario::default`].
    #[must_use]
    pub fn scenario(mut self, scenario: Scenario) -> Self {
        self.scenarios.get_or_insert_with(Vec::new).push(scenario);
        self
    }

    /// Replaces the whole scenario list (an empty list is a
    /// [`SolveError::NoScenarios`] at solve time).
    #[must_use]
    pub fn scenarios(mut self, scenarios: Vec<Scenario>) -> Self {
        self.scenarios = Some(scenarios);
        self
    }

    /// Enables or disables predecessor tracking (default on). Max-slack and
    /// skew honour it; polarity and cost always track (their results are
    /// placements), and yield sweeps never do.
    #[must_use]
    pub fn track_predecessors(mut self, track: bool) -> Self {
        self.track_predecessors = track;
        self
    }

    /// Sets the variation family an [`Objective::YieldTarget`] request
    /// samples from (ignored by the other objectives). A yield request
    /// without an explicit spec samples [`VariationSpec::default`] — all
    /// knobs fixed, so every sample is the nominal tree.
    #[must_use]
    pub fn variation(mut self, spec: VariationSpec) -> Self {
        self.variation = Some(spec);
        self
    }

    /// Caps the threads solving scenarios, or a yield request's samples,
    /// concurrently (default: the hardware threads; see [`par::workers`]).
    /// `workers(1)` forces the sequential single-workspace path.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Validates the request and returns the effective scenario list.
    fn checked_scenarios(&self) -> Result<Vec<Scenario>, SolveError> {
        let scenarios = match &self.scenarios {
            None => vec![Scenario::default()],
            Some(list) if list.is_empty() => return Err(SolveError::NoScenarios),
            Some(list) => list.clone(),
        };
        crate::scenario::validate_scenario_list(&scenarios)?;
        Ok(scenarios)
    }

    /// Solves every scenario and returns the [`Outcome`], scenarios in
    /// request order. Multi-scenario requests fan out over the session's
    /// workspace pool; results are identical for every worker count.
    ///
    /// # Errors
    ///
    /// Request validation errors ([`SolveError::NoScenarios`],
    /// [`SolveError::DuplicateScenario`], scenario range errors), and the
    /// typed errors of the cost and polarity DPs. Never panics on user
    /// input.
    pub fn solve(&self) -> Result<Outcome, SolveError> {
        let start = Instant::now();
        let scenarios = self.checked_scenarios()?;

        // Multi-scenario requests fan out over workspaces checked out of
        // the session pool; one worker solves inline. Yield-target
        // requests parallelize across *samples* instead: each scenario
        // runs its whole Monte-Carlo sweep with per-worker warm caches
        // before the next corner starts.
        let work = scenarios.len() * self.tree.node_count() * self.session.library().len();
        let workers = match self.objective {
            Objective::YieldTarget { .. } => 1,
            _ => par::workers(self.workers, scenarios.len(), work),
        };
        let mut workspaces: Vec<SolveWorkspace> = (0..workers)
            .map(|_| self.session.take_workspace())
            .collect();
        let outcomes = par::map(scenarios.len(), &mut workspaces, |workspace, i| {
            self.solve_scenario(&scenarios[i], workspace, self.workers)
        });
        for workspace in workspaces {
            self.session.return_workspace(workspace);
        }
        let outcomes = outcomes.into_iter().collect();
        self.outcome(start, outcomes)
    }

    /// [`SolveRequest::solve`] through one caller-owned workspace, all
    /// scenarios sequentially on the current thread. This is the
    /// zero-allocation path batch workloads use (one workspace per worker
    /// thread, reused across nets *and* scenarios); results are identical
    /// to [`SolveRequest::solve`].
    ///
    /// # Errors
    ///
    /// Same as [`SolveRequest::solve`].
    pub fn solve_in(&self, workspace: &mut SolveWorkspace) -> Result<Outcome, SolveError> {
        let start = Instant::now();
        let scenarios = self.checked_scenarios()?;
        let outcomes = scenarios
            .iter()
            .map(|s| self.solve_scenario(s, workspace, Some(1)))
            .collect();
        self.outcome(start, outcomes)
    }

    /// The request's [`Outcome`] from its scenario outcomes.
    fn outcome(
        &self,
        start: Instant,
        scenarios: Result<Vec<ScenarioOutcome>, SolveError>,
    ) -> Result<Outcome, SolveError> {
        Ok(Outcome {
            objective: self.objective.clone(),
            scenarios: scenarios?,
            elapsed: start.elapsed(),
        })
    }

    /// Solves one scenario through `workspace`; a Monte-Carlo sweep fans
    /// its samples over at most `sample_cap` threads (each owning one
    /// incremental solver and its warm subtree cache).
    fn solve_scenario(
        &self,
        scenario: &Scenario,
        workspace: &mut SolveWorkspace,
        sample_cap: Option<usize>,
    ) -> Result<ScenarioOutcome, SolveError> {
        let start = Instant::now();
        let session = self.session;
        let library = session.library();
        let mut options = session.options(scenario);
        options.track_predecessors = self.track_predecessors;
        let (model, algorithm) = (Arc::clone(&options.delay_model), options.algorithm);
        let tree = scenario.apply_derate(self.tree);
        let tree = &*tree;

        let result = match &self.objective {
            Objective::MaxSlack => ScenarioResult::Solution(
                Solver::new(tree, library)
                    .with_options(options)
                    .solve_with(workspace),
            ),
            Objective::SlackCost { max_cost } => ScenarioResult::Frontier(
                CostSolver::new(tree, library)
                    .with_options(options)
                    .max_cost(*max_cost)
                    .solve()?,
            ),
            Objective::PolarityAware { negated_sinks } => {
                let mut solver = PolaritySolver::new(tree, library).with_options(options);
                for &sink in negated_sinks {
                    solver.require(sink, fastbuf_core::polarity::Polarity::Negative)?;
                }
                ScenarioResult::Polarity(solver.solve()?)
            }
            Objective::YieldTarget { samples, quantile } => {
                // Bit-identical at every worker count.
                let spec = self.variation.clone().unwrap_or_default();
                ScenarioResult::Variation(crate::variation::solve_variation(
                    library, tree, options, &spec, *samples, *quantile, sample_cap,
                )?)
            }
            Objective::SkewTarget { max_skew } => {
                if let Some(bound) = max_skew {
                    let skew_ps = bound.picos();
                    if !skew_ps.is_finite() || skew_ps < 0.0 {
                        return Err(SolveError::InvalidSkewBound { skew_ps });
                    }
                }
                ScenarioResult::Skew(
                    SkewSolver::new(tree, library)
                        .with_options(options)
                        .max_skew(*max_skew)
                        .solve(),
                )
            }
        };

        Ok(ScenarioOutcome {
            scenario: scenario.clone(),
            model,
            algorithm,
            result,
            elapsed: start.elapsed(),
        })
    }
}
