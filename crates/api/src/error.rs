//! The typed error surface of the request layer.
//!
//! Every entry point of `fastbuf-api` returns `Result<_, SolveError>`;
//! nothing in the request layer panics on user input. The enum is
//! `#[non_exhaustive]` so new failure modes can be added without a
//! breaking release.

use std::error::Error;
use std::fmt;

use fastbuf_core::cost::CostError;
use fastbuf_core::polarity::PolarityError;
use fastbuf_core::VerifyError;

/// Errors from building or solving a
/// [`SolveRequest`](crate::SolveRequest), or from verifying an
/// [`Outcome`](crate::Outcome).
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum SolveError {
    /// The request's scenario list was explicitly set to empty. (A request
    /// that never touches scenarios solves one default scenario.)
    NoScenarios,
    /// Two scenarios of one request share a name; per-scenario results are
    /// addressed by name, so names must be unique.
    DuplicateScenario(String),
    /// A scenario's required-time derate is not finite and positive.
    InvalidDerate {
        /// The offending scenario.
        scenario: String,
        /// The rejected factor.
        derate: f64,
    },
    /// A scenario-file line gave a non-positive slew limit (use no
    /// `slew-limit-ps=` key for "unconstrained"). The programmatic
    /// [`Scenario`](crate::Scenario) API instead accepts such limits
    /// best-effort, matching the legacy solver contract.
    InvalidSlewLimit {
        /// The offending scenario.
        scenario: String,
        /// The rejected limit in picoseconds.
        limit_ps: f64,
    },
    /// The request asks for something its front end does not offer (e.g.
    /// a library swap through an ECO session, or a max-slack wire record of
    /// a scenario that solved for another objective).
    Unsupported {
        /// The offending scenario.
        scenario: String,
        /// What was asked for and why it is unsupported.
        reason: String,
    },
    /// The cost-frontier DP rejected the library.
    Cost(CostError),
    /// The polarity DP failed (infeasible requirements, bad sink id) or
    /// its verification failed.
    Polarity(PolarityError),
    /// [`Outcome::verify`](crate::Outcome::verify) found a scenario whose
    /// forward re-evaluation disagrees with the DP's prediction.
    Verify {
        /// The scenario whose verification failed.
        scenario: String,
        /// The underlying mismatch.
        error: VerifyError,
    },
    /// A scenario file line could not be parsed
    /// (see [`parse_scenarios`](crate::parse_scenarios)).
    ScenarioParse {
        /// 1-based line number in the scenario file.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A scenario, frame or `--model` flag named a delay model that
    /// [`DelayModel::by_name`](fastbuf_rctree::DelayModel::by_name) does
    /// not know.
    UnknownModel(String),
    /// An ECO edit was rejected by the tree or library (see
    /// [`EcoSolver::apply`](crate::EcoSolver::apply)), or a scenario's
    /// derate overflows a sink's RAT (the tree's `InvalidSink`, on every path).
    Edit(fastbuf_incremental::EcoError),
    /// A yield-target request asked for zero samples.
    NoSamples,
    /// A yield-target quantile was non-finite or outside `[0, 1]`.
    InvalidQuantile {
        /// The rejected quantile.
        quantile: f64,
    },
    /// A variation file could not be parsed (see
    /// [`parse_variation_spec`](crate::parse_variation_spec)).
    VariationParse {
        /// 1-based line number in the variation file.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A programmatically built
    /// [`VariationSpec`](fastbuf_netgen::VariationSpec) carries
    /// out-of-domain parameters (non-finite, negative sigma, locality
    /// outside `(0, 1]`, …).
    InvalidVariation(String),
    /// A skew-target bound was non-finite or negative (use `None` for
    /// "minimize skew without a hard bound").
    InvalidSkewBound {
        /// The rejected bound in picoseconds.
        skew_ps: f64,
    },
}

impl SolveError {
    /// The stable kebab-case kind of this error.
    ///
    /// This is the machine-readable name shared by every surface that has
    /// to map errors to something flat: the server uses it verbatim as
    /// the wire `error.code`, and the CLI derives its exit codes from the
    /// same table (see [`SolveError::exit_code`]). Adding a variant means
    /// adding a row here — the match is exhaustive on purpose.
    pub fn kind(&self) -> &'static str {
        match self {
            SolveError::NoScenarios => "no-scenarios",
            SolveError::DuplicateScenario(_) => "duplicate-scenario",
            SolveError::InvalidDerate { .. } => "invalid-derate",
            SolveError::InvalidSlewLimit { .. } => "invalid-slew-limit",
            SolveError::Unsupported { .. } => "unsupported",
            SolveError::Cost(_) => "cost",
            SolveError::Polarity(_) => "polarity",
            SolveError::Verify { .. } => "verify",
            SolveError::ScenarioParse { .. } => "scenario-parse",
            SolveError::UnknownModel(_) => "unknown-model",
            SolveError::Edit(_) => "edit",
            SolveError::NoSamples => "no-samples",
            SolveError::InvalidQuantile { .. } => "invalid-quantile",
            SolveError::VariationParse { .. } => "variation-parse",
            SolveError::InvalidVariation(_) => "invalid-variation",
            SolveError::InvalidSkewBound { .. } => "invalid-skew-bound",
        }
    }

    /// The documented CLI exit code of this error — one distinct code per
    /// variant, in the 10–20 range so they can never collide with the
    /// general codes (0 = success, 2 = usage, 3 = I/O). The full mapping
    /// is printed by `fastbuf --help`.
    pub fn exit_code(&self) -> u8 {
        match self {
            SolveError::NoScenarios => 10,
            SolveError::DuplicateScenario(_) => 11,
            SolveError::InvalidDerate { .. } => 12,
            SolveError::InvalidSlewLimit { .. } => 13,
            SolveError::Unsupported { .. } => 14,
            SolveError::Cost(_) => 15,
            SolveError::Polarity(_) => 16,
            SolveError::Verify { .. } => 17,
            SolveError::ScenarioParse { .. } => 18,
            SolveError::UnknownModel(_) => 19,
            SolveError::Edit(_) => 20,
            SolveError::NoSamples => 21,
            SolveError::InvalidQuantile { .. } => 22,
            SolveError::VariationParse { .. } => 23,
            SolveError::InvalidVariation(_) => 24,
            SolveError::InvalidSkewBound { .. } => 25,
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NoScenarios => {
                write!(f, "the request has an empty scenario list")
            }
            SolveError::DuplicateScenario(name) => {
                write!(f, "duplicate scenario name `{name}`")
            }
            SolveError::InvalidDerate { scenario, derate } => {
                write!(
                    f,
                    "scenario `{scenario}`: RAT derate {derate} must be finite and positive"
                )
            }
            SolveError::InvalidSlewLimit { scenario, limit_ps } => {
                write!(
                    f,
                    "scenario `{scenario}`: slew limit {limit_ps} ps must be positive"
                )
            }
            SolveError::Unsupported { scenario, reason } => {
                write!(f, "scenario `{scenario}`: {reason}")
            }
            SolveError::Cost(e) => write!(f, "cost frontier: {e}"),
            SolveError::Polarity(e) => write!(f, "polarity: {e}"),
            SolveError::Verify { scenario, error } => {
                write!(f, "scenario `{scenario}` failed verification: {error}")
            }
            SolveError::ScenarioParse { line, message } => {
                write!(f, "scenario file line {line}: {message}")
            }
            SolveError::UnknownModel(name) => {
                write!(
                    f,
                    "unknown delay model `{name}` (expected elmore or scaled-elmore)"
                )
            }
            SolveError::Edit(e) => write!(f, "eco: {e}"),
            SolveError::NoSamples => {
                write!(f, "a yield-target request needs at least one sample")
            }
            SolveError::InvalidQuantile { quantile } => {
                write!(f, "quantile {quantile} must be finite and within [0, 1]")
            }
            SolveError::VariationParse { line, message } => {
                write!(f, "variation file line {line}: {message}")
            }
            SolveError::InvalidVariation(reason) => {
                write!(f, "invalid variation spec: {reason}")
            }
            SolveError::InvalidSkewBound { skew_ps } => {
                write!(f, "skew bound {skew_ps} ps must be finite and non-negative")
            }
        }
    }
}

impl Error for SolveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SolveError::Cost(e) => Some(e),
            SolveError::Polarity(e) => Some(e),
            SolveError::Verify { error, .. } => Some(error),
            SolveError::Edit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CostError> for SolveError {
    fn from(e: CostError) -> Self {
        SolveError::Cost(e)
    }
}

impl From<PolarityError> for SolveError {
    fn from(e: PolarityError) -> Self {
        SolveError::Polarity(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SolveError::DuplicateScenario("fast".into());
        assert!(e.to_string().contains("fast"));
        assert!(e.source().is_none());

        let e = SolveError::Cost(CostError::NonIntegerCost {
            buffer: "B1".into(),
        });
        assert!(e.to_string().contains("B1"));
        assert!(e.source().is_some());

        let e = SolveError::Verify {
            scenario: "slow".into(),
            error: VerifyError::NotTracked,
        };
        assert!(e.to_string().contains("slow"));
        assert!(e.source().is_some());

        let e = SolveError::Unsupported {
            scenario: "s".into(),
            reason: "wire records cover max-slack solves only".into(),
        };
        assert!(e.to_string().contains("max-slack"));

        let e = SolveError::ScenarioParse {
            line: 3,
            message: "bad token".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    /// Every variant must map to a distinct exit code and a distinct
    /// kind — the wire codes and the CLI exit codes both key off this.
    #[test]
    fn kinds_and_exit_codes_are_distinct() {
        let variants = [
            SolveError::NoScenarios,
            SolveError::DuplicateScenario("a".into()),
            SolveError::InvalidDerate {
                scenario: "a".into(),
                derate: 0.0,
            },
            SolveError::InvalidSlewLimit {
                scenario: "a".into(),
                limit_ps: -1.0,
            },
            SolveError::Unsupported {
                scenario: "a".into(),
                reason: "r".into(),
            },
            SolveError::Cost(CostError::NonIntegerCost { buffer: "b".into() }),
            SolveError::Polarity(PolarityError::Infeasible),
            SolveError::Verify {
                scenario: "a".into(),
                error: VerifyError::NotTracked,
            },
            SolveError::ScenarioParse {
                line: 1,
                message: "m".into(),
            },
            SolveError::UnknownModel("m".into()),
            SolveError::Edit(fastbuf_incremental::EcoError::Tree(
                fastbuf_rctree::TreeError::NoSource,
            )),
            SolveError::NoSamples,
            SolveError::InvalidQuantile { quantile: 1.5 },
            SolveError::VariationParse {
                line: 2,
                message: "m".into(),
            },
            SolveError::InvalidVariation("r".into()),
            SolveError::InvalidSkewBound { skew_ps: -1.0 },
        ];
        let mut kinds: Vec<&str> = variants.iter().map(SolveError::kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), variants.len(), "kinds collide");

        let mut codes: Vec<u8> = variants.iter().map(SolveError::exit_code).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), variants.len(), "exit codes collide");
        // Never collide with success (0), usage (2), or I/O (3).
        assert!(codes.iter().all(|&c| c >= 10));
    }

    #[test]
    fn conversions() {
        let e: SolveError = PolarityError::Infeasible.into();
        assert!(matches!(e, SolveError::Polarity(_)));
        let e: SolveError = CostError::NonIntegerCost { buffer: "x".into() }.into();
        assert!(matches!(e, SolveError::Cost(_)));
    }
}
