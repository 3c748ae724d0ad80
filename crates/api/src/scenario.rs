//! Timing scenarios (corners) of a [`SolveRequest`](crate::SolveRequest).
//!
//! A scenario is one "question" asked of a net: which delay model to
//! predict with, how tight the slew constraint is, how pessimistically to
//! derate the sinks' required arrival times, and which `AddBuffer`
//! algorithm to run. A multi-corner request carries several scenarios and
//! the [`Outcome`](crate::Outcome) reports one result per scenario —
//! exactly the question production flows ask ("does this net close timing
//! in the slow corner *and* meet slew in the fast one?").

use fastbuf_buflib::text::{self, LineError};
use fastbuf_buflib::units::Seconds;
use fastbuf_core::Algorithm;
use fastbuf_incremental::EcoError;
use fastbuf_rctree::{DelayModel, NodeId, NodeKind, RoutingTree, TreeError};

use crate::error::SolveError;

/// One timing scenario (corner) of a request.
///
/// Construct with [`Scenario::named`] (or [`Scenario::default`], named
/// `"default"`) and refine with the builder methods; the struct is
/// `#[non_exhaustive]` so new knobs can be added without breaking callers.
///
/// An untouched scenario asks the exact question the legacy
/// `Solver::new(..).solve()` shim asks: Elmore model (or the session
/// default), no slew limit, no derate, [`Algorithm::LiShi`] — and is
/// guaranteed bit-identical to it.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct Scenario {
    /// Scenario name; unique within a request (results are addressed by
    /// it).
    pub name: String,
    /// Delay model override (`None` = the session's default model).
    pub delay_model: Option<DelayModel>,
    /// Maximum output slew at every buffer input and sink (`None` =
    /// unconstrained).
    pub slew_limit: Option<Seconds>,
    /// Factor applied to every sink's required arrival time (`1.0` = no
    /// derate; a pessimistic corner uses `< 1.0`), as the solver option
    /// `SolverOptions::rat_derate`: the tree is never copied.
    pub rat_derate: f64,
    /// `AddBuffer` algorithm override (`None` = [`Algorithm::LiShi`]).
    pub algorithm: Option<Algorithm>,
}

impl Default for Scenario {
    fn default() -> Self {
        Scenario::named("default")
    }
}

impl Scenario {
    /// A scenario with the given name and all knobs at their defaults.
    pub fn named(name: impl Into<String>) -> Self {
        Scenario {
            name: name.into(),
            delay_model: None,
            slew_limit: None,
            rat_derate: 1.0,
            algorithm: None,
        }
    }

    /// Overrides the delay model for this scenario.
    #[must_use]
    pub fn delay_model(mut self, model: DelayModel) -> Self {
        self.delay_model = Some(model);
        self
    }

    /// Sets (or, with a non-finite value, clears) the maximum output slew.
    #[must_use]
    pub fn slew_limit(mut self, limit: Seconds) -> Self {
        self.slew_limit = limit.is_finite().then_some(limit);
        self
    }

    /// Sets the required-time derate factor.
    #[must_use]
    pub fn rat_derate(mut self, factor: f64) -> Self {
        self.rat_derate = factor;
        self
    }

    /// Overrides the `AddBuffer` algorithm for this scenario.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = Some(algorithm);
        self
    }

    /// The one rule for a derate that overflows a RAT (a derate above 1
    /// can turn an extreme but finite one infinite): sink `node`'s `rat`
    /// times [`Scenario::rat_derate`] must stay finite, else the tree's
    /// [`TreeError::InvalidSink`] for `node`, as for a non-finite RAT edit.
    pub(crate) fn check_rat(&self, node: NodeId, rat: Seconds) -> Result<(), SolveError> {
        let sink = EcoError::Tree(TreeError::InvalidSink { node });
        let finite = (rat.value() * self.rat_derate).is_finite();
        finite.then_some(()).ok_or(SolveError::Edit(sink))
    }

    /// Checks the scenario's knobs are in range.
    ///
    /// A finite non-positive `slew_limit` is deliberately *valid* here: it
    /// matches the legacy `Solver::slew_limit` contract (every candidate is
    /// infeasible, the solve is best-effort and reports `slew_ok = false`,
    /// never panics), which the batch and design layers rely on. Scenario
    /// *files* reject non-positive limits at parse time, where they are a
    /// typo rather than a deliberate stress input — see
    /// [`parse_scenarios`].
    ///
    /// # Errors
    ///
    /// [`SolveError::InvalidDerate`].
    pub fn validate(&self) -> Result<(), SolveError> {
        if !(self.rat_derate.is_finite() && self.rat_derate > 0.0) {
            return Err(SolveError::InvalidDerate {
                scenario: self.name.clone(),
                derate: self.rat_derate,
            });
        }
        Ok(())
    }
}

/// Validates a scenario list for a request on `tree`: every scenario in
/// range and keeping every derated RAT finite, names unique. Shared by
/// [`SolveRequest`](crate::SolveRequest) and the ECO entry
/// ([`Session::eco`](crate::Session::eco)).
pub(crate) fn validate_scenario_list(
    scenarios: &[Scenario],
    tree: &RoutingTree,
) -> Result<(), SolveError> {
    for (i, scenario) in scenarios.iter().enumerate() {
        scenario.validate()?;
        // A derate of at most 1 cannot overflow a finite RAT.
        if scenario.rat_derate > 1.0 {
            for sink in tree.sinks() {
                if let NodeKind::Sink {
                    required_arrival, ..
                } = *tree.kind(sink)
                {
                    scenario.check_rat(sink, required_arrival)?;
                }
            }
        }
        if scenarios[..i].iter().any(|s| s.name == scenario.name) {
            return Err(SolveError::DuplicateScenario(scenario.name.clone()));
        }
    }
    Ok(())
}

/// Parses a scenario file: one scenario per line,
///
/// ```text
/// # name [model=elmore|scaled-elmore] [slew-limit-ps=N] [derate=F] [algo=A]
/// typical
/// slow    derate=0.9  slew-limit-ps=250
/// fast    model=scaled-elmore  algo=lillis
/// ```
///
/// Blank lines and `#` comments are ignored.
///
/// # Errors
///
/// [`SolveError::ScenarioParse`] (bad tokens, repeated keys, duplicate
/// names), [`SolveError::UnknownModel`], and the range errors of
/// [`Scenario::validate`].
///
/// # Example
///
/// ```
/// let scenarios = fastbuf_api::parse_scenarios(
///     "typical\nslow derate=0.9 slew-limit-ps=250\n",
/// )?;
/// assert_eq!(scenarios.len(), 2);
/// assert_eq!(scenarios[1].name, "slow");
/// assert_eq!(scenarios[1].rat_derate, 0.9);
/// # Ok::<(), fastbuf_api::SolveError>(())
/// ```
pub fn parse_scenarios(text: &str) -> Result<Vec<Scenario>, SolveError> {
    let located = |e: LineError| SolveError::ScenarioParse {
        line: e.line,
        message: e.message,
    };
    let mut scenarios: Vec<Scenario> = Vec::new();
    for mut fields in text::lines(text) {
        let name = fields.word("scenario name").map_err(located)?;
        if name.contains('=') {
            let e = fields.error(format!("expected a scenario name first, got `{name}`"));
            return Err(located(e));
        }
        if scenarios.iter().any(|s| s.name == name) {
            return Err(SolveError::DuplicateScenario(name.to_owned()));
        }
        let mut scenario = Scenario::named(name);
        let mut derate_set = false;
        while let Some(token) = fields.next() {
            let err = |message: String| located(fields.error(message));
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| err(format!("expected `key=value`, got `{token}`")))?;
            match key {
                "model" => {
                    if scenario.delay_model.is_some() {
                        return Err(err("`model=` given twice".into()));
                    }
                    scenario.delay_model = Some(parse_model(value)?);
                }
                "slew-limit-ps" => {
                    if scenario.slew_limit.is_some() {
                        return Err(err("`slew-limit-ps=` given twice".into()));
                    }
                    let ps: f64 = fields.parse("slew limit", value).map_err(located)?;
                    // In a corner file a non-positive limit is a typo, not
                    // a deliberate stress input: reject it here (the
                    // programmatic `Scenario` API accepts it best-effort).
                    if !(ps.is_finite() && ps > 0.0) {
                        return Err(SolveError::InvalidSlewLimit {
                            scenario: scenario.name.clone(),
                            limit_ps: ps,
                        });
                    }
                    scenario.slew_limit = Some(Seconds::from_pico(ps));
                }
                "derate" => {
                    if derate_set {
                        return Err(err("`derate=` given twice".into()));
                    }
                    derate_set = true;
                    scenario.rat_derate = fields.parse("derate", value).map_err(located)?;
                }
                "algo" => {
                    if scenario.algorithm.is_some() {
                        return Err(err("`algo=` given twice".into()));
                    }
                    scenario.algorithm = Some(value.parse().map_err(err)?);
                }
                other => {
                    return Err(err(format!(
                        "unknown key `{other}` (expected model, slew-limit-ps, derate, or algo)"
                    )));
                }
            }
        }
        scenario.validate()?;
        scenarios.push(scenario);
    }
    if scenarios.is_empty() {
        return Err(SolveError::NoScenarios);
    }
    Ok(scenarios)
}

/// The delay model `name` stands for ([`DelayModel::by_name`]): the one
/// name lookup behind a scenario line's `model=`, a server frame's
/// `"model"` and the CLI's `--model`.
///
/// # Errors
///
/// [`SolveError::UnknownModel`] for a name no model has.
pub fn parse_model(name: &str) -> Result<DelayModel, SolveError> {
    DelayModel::by_name(name).ok_or_else(|| SolveError::UnknownModel(name.to_owned()))
}

/// The scenario list of one request: the scenario file `lines`, each line
/// taking the algorithm and delay model it does not set from `default`,
/// or else `default` alone. This is the **one** scenario-list builder —
/// `fastbuf solve` (`--scenarios`, or the corner its flags describe) and
/// the server's `solve`/`eco` frames (`"scenarios"`, or the frame's
/// `"algorithm"`/`"model"`) both go through it, so a scenario line can
/// never mean different things to different front ends.
///
/// # Errors
///
/// Exactly those of [`parse_scenarios`], with line numbers preserved.
pub fn scenario_list(lines: Option<&str>, default: Scenario) -> Result<Vec<Scenario>, SolveError> {
    let Some(text) = lines else {
        return Ok(vec![default]);
    };
    let mut scenarios = parse_scenarios(text)?;
    for scenario in &mut scenarios {
        scenario.algorithm = scenario.algorithm.or(default.algorithm);
        scenario.delay_model = scenario.delay_model.or(default.delay_model);
    }
    Ok(scenarios)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let s = Scenario::default();
        assert_eq!(s.name, "default");
        assert!(s.delay_model.is_none() && s.slew_limit.is_none());
        assert_eq!(s.rat_derate, 1.0);
        assert!(s.algorithm.is_none());
        s.validate().unwrap();

        let s = Scenario::named("slow")
            .slew_limit(Seconds::from_pico(200.0))
            .rat_derate(0.85)
            .algorithm(Algorithm::Lillis);
        assert_eq!(s.name, "slow");
        assert_eq!(s.slew_limit, Some(Seconds::from_pico(200.0)));
        assert_eq!(s.algorithm, Some(Algorithm::Lillis));
        s.validate().unwrap();

        // A non-finite limit clears the constraint, mirroring
        // `Solver::slew_limit`.
        let s = s.slew_limit(Seconds::new(f64::INFINITY));
        assert!(s.slew_limit.is_none());
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        let s = Scenario::named("x").rat_derate(0.0);
        assert!(matches!(
            s.validate(),
            Err(SolveError::InvalidDerate { .. })
        ));
        // A finite non-positive slew limit is *valid* programmatically:
        // the solve runs best-effort with `slew_ok = false`, exactly like
        // the legacy `Solver::slew_limit` contract (no panic regression
        // through batch/design).
        let mut s = Scenario::named("x");
        s.slew_limit = Some(Seconds::from_pico(-4.0));
        s.validate().unwrap();
    }

    #[test]
    fn parses_full_file() {
        let text = "\
# corners for netA
typical
slow    derate=0.9  slew-limit-ps=250   # pessimistic
fast    model=scaled-elmore  algo=lillis
";
        let scenarios = parse_scenarios(text).unwrap();
        assert_eq!(scenarios.len(), 3);
        assert_eq!(scenarios[0].name, "typical");
        assert_eq!(scenarios[1].slew_limit, Some(Seconds::from_pico(250.0)));
        assert_eq!(scenarios[1].rat_derate, 0.9);
        assert_eq!(scenarios[2].delay_model, Some(DelayModel::SCALED_ELMORE));
        assert_eq!(scenarios[2].algorithm, Some(Algorithm::Lillis));
    }

    #[test]
    fn line_parser_applies_defaults_without_overriding() {
        let model = DelayModel::SCALED_ELMORE;
        let default = Scenario::default()
            .algorithm(Algorithm::Lillis)
            .delay_model(model);
        let text = "typical\nslow model=elmore algo=lishi\n";
        let scenarios = scenario_list(Some(text), default.clone()).unwrap();
        // Defaults fill the gaps…
        assert_eq!(scenarios[0].algorithm, Some(Algorithm::Lillis));
        assert_eq!(scenarios[0].delay_model, Some(model));
        // …but never override an explicit per-line choice.
        assert_eq!(scenarios[1].algorithm, Some(Algorithm::LiShi));
        assert_eq!(scenarios[1].delay_model, Some(DelayModel::Elmore));
        // Only the algorithm and model are defaults: a line keeps its own
        // name, derate and slew limit.
        let limited = default.clone().slew_limit(Seconds::from_pico(90.0));
        let scenarios = scenario_list(Some(text), limited.rat_derate(0.5)).unwrap();
        assert_eq!(scenarios[0].name, "typical");
        assert_eq!(scenarios[0].rat_derate, 1.0);
        assert!(scenarios[0].slew_limit.is_none());

        // No defaults = plain parse_scenarios.
        let scenarios = scenario_list(Some(text), Scenario::default()).unwrap();
        assert!(scenarios[0].algorithm.is_none());
        assert!(scenarios[0].delay_model.is_none());

        // No lines = the default scenario alone, untouched.
        let scenarios = scenario_list(None, default).unwrap();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(scenarios[0].name, "default");
        assert_eq!(scenarios[0].algorithm, Some(Algorithm::Lillis));
        assert_eq!(scenarios[0].delay_model, Some(model));

        // Line numbers survive the wrapper.
        assert!(matches!(
            scenario_list(Some("ok\nbad nonsense"), Scenario::default()),
            Err(SolveError::ScenarioParse { line: 2, .. })
        ));
    }

    #[test]
    fn parse_errors_are_typed() {
        assert!(matches!(parse_scenarios(""), Err(SolveError::NoScenarios)));
        assert!(matches!(
            parse_scenarios("a\na\n"),
            Err(SolveError::DuplicateScenario(n)) if n == "a"
        ));
        assert!(matches!(
            parse_scenarios("a model=spice"),
            Err(SolveError::UnknownModel(n)) if n == "spice"
        ));
        assert!(matches!(
            parse_scenarios("a nonsense"),
            Err(SolveError::ScenarioParse { line: 1, .. })
        ));
        assert!(matches!(
            parse_scenarios("ok\nb unknown=1"),
            Err(SolveError::ScenarioParse { line: 2, .. })
        ));
        assert!(matches!(
            parse_scenarios("model=elmore"),
            Err(SolveError::ScenarioParse { .. })
        ));
        assert!(matches!(
            parse_scenarios("a derate=-1"),
            Err(SolveError::InvalidDerate { .. })
        ));
        assert!(matches!(
            parse_scenarios("a slew-limit-ps=-5"),
            Err(SolveError::InvalidSlewLimit { .. })
        ));
        assert!(matches!(
            parse_scenarios("a derate=0.9 derate=1.1"),
            Err(SolveError::ScenarioParse { .. })
        ));
        assert!(matches!(
            parse_scenarios("a algo=quantum"),
            Err(SolveError::ScenarioParse { .. })
        ));
        assert!(matches!(
            parse_scenarios("a model=elmore model=elmore"),
            Err(SolveError::ScenarioParse { .. })
        ));
    }
}
