//! The unified result envelope.

use std::sync::Arc;
use std::time::Duration;

use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::cost::CostFrontier;
use fastbuf_core::polarity::PolaritySolution;
use fastbuf_core::skew::SkewSolution;
use fastbuf_core::{forward_agrees, Algorithm, Placement, Solution, SolveStats, VerifyError};
use fastbuf_rctree::{elmore, DelayModel, RoutingTree};

use crate::error::SolveError;
use crate::request::Objective;
use crate::scenario::Scenario;
use crate::variation::VariationOutcome;
use crate::wire::Json;

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
    /// solved with** and checks the measurement against the DP's
    /// prediction.
    ///
    /// Max-slack and skew-target answers are measured by
    /// [`NetOutcome::measure`] and accepted by [`NetOutcome::verify`], the
    /// one per-net check (slack, slew limit, skew). Frontier points are
    /// checked for slack agreement and polarity solutions for their sink
    /// requirements; sampled yield sweeps carry no placements to measure.
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
    /// the check rejects; [`SolveError::Polarity`] for polarity
    /// requirement violations.
    pub fn verify(&self, tree: &RoutingTree, library: &BufferLibrary) -> Result<(), SolveError> {
        for so in &self.scenarios {
            let named = |error: VerifyError| SolveError::Verify {
                scenario: so.scenario.name.clone(),
                error,
            };
            match &so.result {
                ScenarioResult::Solution(_) | ScenarioResult::Skew(_) => {
                    NetOutcome::measure(0, tree, library, so)?
                        .verify()
                        .map_err(named)?;
                }
                ScenarioResult::Frontier(frontier) => {
                    let scenario_tree = so.scenario.apply_derate(tree);
                    for point in &frontier.points {
                        let pairs: Vec<_> = point
                            .placements
                            .iter()
                            .map(|p| (p.node, p.buffer))
                            .collect();
                        let report =
                            elmore::evaluate_with(&scenario_tree, library, &pairs, &*so.model)
                                .map_err(|e| named(VerifyError::Tree(e)))?;
                        VerifyError::check_slack(point.slack, report.slack).map_err(named)?;
                    }
                }
                ScenarioResult::Variation(_) => {
                    // Sampled sweeps do not track placements (there is
                    // nothing to forward-evaluate here); their correctness
                    // contract is per-sample bit-identity to a scratch
                    // solve of the sampled tree, asserted by the
                    // differential harness `tests/variation_equivalence.rs`.
                }
                ScenarioResult::Polarity(polarity) => {
                    let negated: &[_] = match &self.objective {
                        Objective::PolarityAware { negated_sinks } => negated_sinks,
                        _ => &[],
                    };
                    polarity
                        .verify_with(
                            &so.scenario.apply_derate(tree),
                            library,
                            negated,
                            &*so.model,
                        )
                        .map_err(SolveError::Polarity)?;
                }
            }
        }
        Ok(())
    }
}

/// One solved net, measured: a max-slack or skew scenario's answer beside
/// what the independent forward evaluator measures on the same net — the
/// one per-net result of the workspace. `BatchSolver` reports one per net,
/// and `fastbuf solve --json`, `fastbuf cts` and `fastbuf serve` print one
/// per scenario through [`NetOutcome::to_value`].
///
/// Every producer builds it with [`NetOutcome::measure`], so all measure
/// the same way: the scenario's derated view of the tree, under the delay
/// model the scenario solved with, once unbuffered and once with the
/// placements. Every front end accepts the answer through
/// [`NetOutcome::verify`], the one check of a measured slack, slew and
/// skew against what the solve claimed.
#[derive(Clone, Debug)]
pub struct NetOutcome {
    /// Position of the net in its input (a batch index, or 0 for single
    /// solves).
    pub index: usize,
    /// Sink count of the net.
    pub sinks: usize,
    /// Candidate buffer positions of the net.
    pub sites: usize,
    /// Measured slack of the unbuffered net.
    pub slack_before: Seconds,
    /// The slack the DP predicts for the buffered net.
    pub slack: Seconds,
    /// Measured slack of the buffered net (`None` when the solve did not
    /// track predecessors, so there are no placements to measure).
    pub measured_slack: Option<Seconds>,
    /// The sink-to-sink skew the DP predicts, for skew-target solves
    /// (`None` for max slack).
    pub skew: Option<Seconds>,
    /// Measured sink-to-sink skew of the buffered net, for skew-target
    /// solves that tracked predecessors (`None` otherwise).
    pub measured_skew: Option<Seconds>,
    /// Measured worst output slew of the unbuffered net.
    pub slew_before: Seconds,
    /// Measured worst output slew of the buffered net (the DP's root-stage
    /// slew when the solve did not track predecessors).
    pub max_slew: Seconds,
    /// The scenario's slew limit (`None` when it set none).
    pub slew_limit: Option<Seconds>,
    /// `false` when a slew limit was set and the net could not meet it.
    pub slew_ok: bool,
    /// The buffers to insert (empty when the solve did not track
    /// predecessors).
    pub placements: Vec<Placement>,
    /// Total library cost of the inserted buffers.
    pub cost: f64,
    /// DP work counters.
    pub stats: SolveStats,
    /// Wall-clock time of the scenario's solve.
    pub elapsed: Duration,
}

impl NetOutcome {
    /// Measures `corner`'s answer for `tree` (the underated net the
    /// request solved): the scenario's derate is applied, and the derated
    /// tree is forward-evaluated under the scenario's delay model once
    /// unbuffered and, when the solve tracked predecessors, once with the
    /// placements (whose skew is kept for a skew-target solve).
    ///
    /// # Errors
    ///
    /// [`SolveError::Unsupported`] when the scenario solved for neither
    /// max slack nor a skew target, and [`SolveError::Verify`] when the
    /// tree or the placements reject forward evaluation.
    pub fn measure(
        index: usize,
        tree: &RoutingTree,
        library: &BufferLibrary,
        corner: &ScenarioOutcome,
    ) -> Result<NetOutcome, SolveError> {
        let (slack, placements, tracked, root_slew, slew_ok, stats, skew) = match &corner.result {
            ScenarioResult::Solution(s) => (
                s.slack,
                &s.placements,
                s.tracked,
                s.root_slew,
                s.slew_ok,
                &s.stats,
                None,
            ),
            ScenarioResult::Skew(s) => (
                s.slack,
                &s.placements,
                s.tracked,
                s.root_slew,
                s.slew_ok,
                &s.stats,
                Some(s.skew),
            ),
            _ => {
                return Err(SolveError::Unsupported {
                    scenario: corner.scenario.name.clone(),
                    reason: "per-net results cover max-slack and skew solves only".into(),
                })
            }
        };
        let tree_err = |e| SolveError::Verify {
            scenario: corner.scenario.name.clone(),
            error: VerifyError::Tree(e),
        };
        let corner_tree = corner.scenario.apply_derate(tree);
        let evaluate = |pairs: &[_]| {
            elmore::evaluate_with(&corner_tree, library, pairs, &*corner.model).map_err(tree_err)
        };
        let before = evaluate(&[])?;
        let after = if tracked {
            let pairs: Vec<_> = placements.iter().map(|p| (p.node, p.buffer)).collect();
            Some(evaluate(&pairs)?)
        } else {
            None
        };
        Ok(NetOutcome {
            index,
            sinks: tree.sink_count(),
            sites: tree.buffer_site_count(),
            slack_before: before.slack,
            slack,
            measured_slack: after.as_ref().map(|a| a.slack),
            skew,
            measured_skew: after
                .as_ref()
                .filter(|_| skew.is_some())
                .map(|a| a.skew(&corner_tree)),
            slew_before: before.max_slew,
            max_slew: after.map_or(root_slew, |a| a.max_slew),
            slew_limit: corner.scenario.slew_limit,
            slew_ok,
            cost: placements
                .iter()
                .map(|p| library.get(p.buffer).cost())
                .sum(),
            placements: placements.clone(),
            stats: stats.clone(),
            elapsed: corner.elapsed,
        })
    }

    /// Accepts or rejects the answer against its own measurement — the
    /// one per-net check of the workspace. Three rules, each under a
    /// relative 1e-9:
    ///
    /// * the measured slack agrees with the prediction
    ///   ([`forward_agrees`](fastbuf_core::forward_agrees));
    /// * under a slew limit, an answer that reports `slew_ok` measures a
    ///   worst slew within the limit (an answer flagged `slew_ok = false`
    ///   says it is best-effort, and passes);
    /// * a skew-target answer measures the skew it predicted.
    ///
    /// Returns the measured slack.
    ///
    /// # Errors
    ///
    /// [`VerifyError::NotTracked`] when there was nothing to measure;
    /// [`VerifyError::SlackMismatch`], [`VerifyError::SlewOverLimit`] or
    /// [`VerifyError::SkewMismatch`] for the first rule that fails.
    pub fn verify(&self) -> Result<Seconds, VerifyError> {
        let measured = self.measured_slack.ok_or(VerifyError::NotTracked)?;
        VerifyError::check_slack(self.slack, measured)?;
        if let Some(limit) = self.slew_limit.filter(|_| self.slew_ok) {
            if self.max_slew.value() > limit.value() * (1.0 + 1e-9) {
                return Err(VerifyError::SlewOverLimit {
                    limit,
                    measured: self.max_slew,
                });
            }
        }
        if let Some(predicted) = self.skew {
            let skew = self.measured_skew.ok_or(VerifyError::NotTracked)?;
            if !forward_agrees(predicted.value(), skew.value()) {
                return Err(VerifyError::SkewMismatch {
                    predicted,
                    measured: skew,
                });
            }
        }
        Ok(measured)
    }

    /// This net as a per-net JSON record, members in schema order:
    /// `net`, `scenario` (only when given), `index`, `sinks`, `sites`,
    /// `slack_before_ps`, `slack_after_ps`, `slew_before_ps`,
    /// `max_slew_ps`, `slew_ok`, `buffers`, `cost`, `elapsed_us`, and
    /// `placements` (only when `include_placements`; `buffers` counts them
    /// either way).
    pub fn to_value(&self, name: &str, scenario: Option<&str>, include_placements: bool) -> Json {
        let mut members = vec![("net", Json::from(name))];
        if let Some(scenario) = scenario {
            members.push(("scenario", scenario.into()));
        }
        members.extend([
            ("index", self.index.into()),
            ("sinks", self.sinks.into()),
            ("sites", self.sites.into()),
            ("slack_before_ps", self.slack_before.picos().into()),
            ("slack_after_ps", self.slack.picos().into()),
            ("slew_before_ps", self.slew_before.picos().into()),
            ("max_slew_ps", self.max_slew.picos().into()),
            ("slew_ok", self.slew_ok.into()),
            ("buffers", self.placements.len().into()),
            ("cost", self.cost.into()),
            ("elapsed_us", (self.elapsed.as_secs_f64() * 1e6).into()),
        ]);
        if include_placements {
            let placements = self.placements.iter().map(|p| {
                Json::obj([
                    ("node", p.node.index().into()),
                    ("buffer", p.buffer.index().into()),
                ])
            });
            members.push(("placements", placements.collect()));
        }
        Json::obj(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbuf_buflib::BufferTypeId;
    use fastbuf_rctree::NodeId;

    /// The per-net record bytes, pinned — ulp noise and all: picosecond
    /// fields go through `Seconds::from_pico(x).picos()` (an exact-value
    /// round trip is not guaranteed), and that conversion is part of the
    /// schema. `buffers` counts the placements whether or not they are
    /// printed, and `scenario` appears only when given.
    #[test]
    fn net_record_bytes_are_pinned() {
        let placements = vec![
            Placement {
                node: NodeId::new(3),
                buffer: BufferTypeId::new(1),
            },
            Placement {
                node: NodeId::new(7),
                buffer: BufferTypeId::new(0),
            },
        ];
        let net = NetOutcome {
            index: 4,
            sinks: 9,
            sites: 21,
            slack_before: Seconds::from_pico(-12.5),
            slack: Seconds::from_pico(31.25),
            measured_slack: None,
            skew: None,
            measured_skew: None,
            slew_before: Seconds::from_pico(500.0),
            max_slew: Seconds::from_pico(150.0),
            slew_limit: None,
            slew_ok: true,
            placements,
            cost: 7.0,
            stats: SolveStats::default(),
            elapsed: Duration::from_micros(123),
        };
        let golden = "{\"net\": \"designs/top.net\", \"scenario\": \"slow\", \
                      \"index\": 4, \"sinks\": 9, \"sites\": 21, \
                      \"slack_before_ps\": -12.5, \
                      \"slack_after_ps\": 31.250000000000004, \
                      \"slew_before_ps\": 500.00000000000006, \
                      \"max_slew_ps\": 150, \
                      \"slew_ok\": true, \"buffers\": 2, \"cost\": 7, \
                      \"elapsed_us\": 123.00000000000001, \
                      \"placements\": [{\"node\": 3, \"buffer\": 1}, \
                      {\"node\": 7, \"buffer\": 0}]}";
        assert_eq!(
            net.to_value("designs/top.net", Some("slow"), true)
                .to_json(),
            golden
        );
        let plain = net.to_value("n", None, false).to_json();
        assert!(!plain.contains("\"scenario\"") && !plain.contains("\"placements\""));
        assert!(plain.contains("\"buffers\": 2"));
        assert_eq!(net.verify(), Err(VerifyError::NotTracked));
    }

    /// A measured max-slack answer that every rule accepts: slack as
    /// predicted, a 150 ps worst slew under a 200 ps limit.
    fn measured() -> NetOutcome {
        NetOutcome {
            index: 0,
            sinks: 4,
            sites: 6,
            slack_before: Seconds::from_pico(-80.0),
            slack: Seconds::from_pico(40.0),
            measured_slack: Some(Seconds::from_pico(40.0)),
            skew: None,
            measured_skew: None,
            slew_before: Seconds::from_pico(400.0),
            max_slew: Seconds::from_pico(150.0),
            slew_limit: Some(Seconds::from_pico(200.0)),
            slew_ok: true,
            placements: Vec::new(),
            cost: 0.0,
            stats: SolveStats::default(),
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn verify_applies_the_slack_slew_and_skew_rules() {
        let ok = measured();
        assert_eq!(ok.verify(), Ok(Seconds::from_pico(40.0)));

        let off = NetOutcome {
            measured_slack: Some(Seconds::from_pico(41.0)),
            ..measured()
        };
        assert_eq!(
            off.verify(),
            Err(VerifyError::SlackMismatch {
                predicted: Seconds::from_pico(40.0),
                measured: Seconds::from_pico(41.0),
            })
        );

        // Over the limit by more than 1e-9 of it: rejected while the
        // answer claims `slew_ok`, accepted once it says it is best-effort.
        let over = NetOutcome {
            max_slew: Seconds::from_pico(200.001),
            ..measured()
        };
        assert_eq!(
            over.verify(),
            Err(VerifyError::SlewOverLimit {
                limit: Seconds::from_pico(200.0),
                measured: Seconds::from_pico(200.001),
            })
        );
        let best_effort = NetOutcome {
            slew_ok: false,
            ..over.clone()
        };
        assert_eq!(best_effort.verify(), Ok(Seconds::from_pico(40.0)));
        let unlimited = NetOutcome {
            slew_limit: None,
            ..over
        };
        assert_eq!(unlimited.verify(), Ok(Seconds::from_pico(40.0)));

        let skew = NetOutcome {
            skew: Some(Seconds::from_pico(12.0)),
            measured_skew: Some(Seconds::from_pico(12.0)),
            ..measured()
        };
        assert_eq!(skew.verify(), Ok(Seconds::from_pico(40.0)));
        let skew_off = NetOutcome {
            measured_skew: Some(Seconds::from_pico(13.0)),
            ..skew
        };
        assert_eq!(
            skew_off.verify(),
            Err(VerifyError::SkewMismatch {
                predicted: Seconds::from_pico(12.0),
                measured: Seconds::from_pico(13.0),
            })
        );

        let untracked = NetOutcome {
            measured_slack: None,
            ..measured()
        };
        assert_eq!(untracked.verify(), Err(VerifyError::NotTracked));
    }
}
