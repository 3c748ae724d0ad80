//! Solver output: slack, placements, verification.

use std::error::Error;
use std::fmt;

use fastbuf_buflib::units::{Farads, Seconds};
use fastbuf_buflib::{BufferLibrary, BufferTypeId};
use fastbuf_rctree::{elmore, NodeId, RoutingTree, TreeError};

use crate::buffering::Algorithm;
use crate::stats::SolveStats;

/// Whether a forward evaluation `measured` agrees with the value a solve
/// `predicted`: equal, or within a relative 1e-9 of the larger magnitude
/// (floored at 1e-12, so values near zero compare absolutely). The one
/// definition of "verified" across the workspace.
pub fn forward_agrees(predicted: f64, measured: f64) -> bool {
    let tol = 1e-9 * predicted.abs().max(measured.abs()).max(1e-12);
    predicted == measured || (predicted - measured).abs() <= tol
}

/// One inserted buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Placement {
    /// The buffer position.
    pub node: NodeId,
    /// The inserted buffer type.
    pub buffer: BufferTypeId,
}

impl From<(NodeId, BufferTypeId)> for Placement {
    fn from((node, buffer): (NodeId, BufferTypeId)) -> Self {
        Placement { node, buffer }
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.buffer, self.node)
    }
}

/// The result of a [`Solver::solve`](crate::Solver::solve).
///
/// # Example
///
/// ```
/// use fastbuf_buflib::units::Microns;
/// use fastbuf_buflib::BufferLibrary;
/// use fastbuf_core::Solver;
///
/// let lib = BufferLibrary::paper_synthetic(8)?;
/// let tree = fastbuf_netgen::line_net(Microns::new(10_000.0), 9);
/// let solution = Solver::new(&tree, &lib).solve();
///
/// // The DP's slack prediction, the reconstructed buffer placements, and
/// // their total library cost:
/// assert!(!solution.placements.is_empty());
/// assert!(solution.total_cost(&lib) > 0.0);
/// // `verify` re-measures the placements with the independent forward
/// // Elmore evaluator and errors on any mismatch:
/// let measured = solution.verify(&tree, &lib)?;
/// assert!((measured.picos() - solution.slack.picos()).abs() < 1e-6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Solution {
    /// Slack at the source including the driver delay:
    /// `max_a (Q(a) − K_d − R_d·C(a))`.
    pub slack: Seconds,
    /// `Q` of the chosen root candidate (before the driver charge).
    pub root_q: Seconds,
    /// Capacitive load of the chosen root candidate.
    pub root_load: Farads,
    /// The buffers to insert. Empty when predecessor tracking was disabled
    /// (see [`Solution::tracked`]).
    pub placements: Vec<Placement>,
    /// Which algorithm produced this solution.
    pub algorithm: Algorithm,
    /// Whether placements were reconstructed.
    pub tracked: bool,
    /// Output slew the source driver produces at the worst endpoint of its
    /// root stage (the unbuffered region below the source), under the
    /// solve's delay model. When a slew limit was active and
    /// [`Solution::slew_ok`] is `true`, every deeper stage met the limit at
    /// construction time, so this is also a certificate for the whole net.
    pub root_slew: Seconds,
    /// `true` when no slew limit was set, or when the chosen solution
    /// satisfies it. `false` means the net is infeasible under the limit
    /// (e.g. no buffer sites on an over-long wire) and the returned
    /// solution is best-effort.
    pub slew_ok: bool,
    /// Operation counters and timing.
    pub stats: SolveStats,
}

impl Solution {
    /// Placements as `(node, buffer)` pairs, the form the
    /// [`elmore::evaluate`] oracle takes.
    pub fn placement_pairs(&self) -> Vec<(NodeId, BufferTypeId)> {
        self.placements.iter().map(|p| (p.node, p.buffer)).collect()
    }

    /// Re-evaluates the reconstructed placements with the independent
    /// forward Elmore analysis of `fastbuf-rctree` and checks that the
    /// measured slack equals the slack this solution predicts (to the
    /// relative tolerance of [`forward_agrees`]). Returns the measured slack.
    ///
    /// **Warning — this legacy shim always measures with
    /// [`ElmoreModel`](crate::ElmoreModel), whatever model the solve
    /// actually used.** A solution produced under any other
    /// [`delay_model`](crate::SolverOptions::delay_model) will report a
    /// spurious [`VerifyError::SlackMismatch`] here; use
    /// [`Solution::verify_with`] with the solve's model, or the
    /// `fastbuf-api` request layer, whose `Outcome::verify` remembers the
    /// model each scenario solved with and cross-checks with the right
    /// arithmetic automatically.
    ///
    /// # Errors
    ///
    /// [`VerifyError::NotTracked`] if the solver ran with predecessor
    /// tracking disabled; [`VerifyError::Tree`] if the placements are
    /// illegal for `tree` (should be impossible); and
    /// [`VerifyError::SlackMismatch`] if prediction and measurement differ
    /// beyond the tolerance — i.e. a solver bug.
    pub fn verify(
        &self,
        tree: &RoutingTree,
        library: &BufferLibrary,
    ) -> Result<Seconds, VerifyError> {
        self.verify_with(tree, library, &fastbuf_rctree::ElmoreModel)
    }

    /// [`Solution::verify`] under an arbitrary delay model — required when
    /// the solution was produced with a non-Elmore
    /// [`delay_model`](crate::SolverOptions::delay_model), since the
    /// forward measurement must use the same arithmetic the DP predicted
    /// with.
    ///
    /// # Errors
    ///
    /// Same as [`Solution::verify`].
    pub fn verify_with(
        &self,
        tree: &RoutingTree,
        library: &BufferLibrary,
        model: &dyn fastbuf_rctree::DelayModel,
    ) -> Result<Seconds, VerifyError> {
        if !self.tracked {
            return Err(VerifyError::NotTracked);
        }
        let report = elmore::evaluate_with(tree, library, &self.placement_pairs(), model)
            .map_err(VerifyError::Tree)?;
        VerifyError::check_slack(self.slack, report.slack)
    }

    /// Total cost of the inserted buffers under `library`'s cost model.
    pub fn total_cost(&self, library: &BufferLibrary) -> f64 {
        self.placements
            .iter()
            .map(|p| library.get(p.buffer).cost())
            .sum()
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slack {} with {} buffers [{}]",
            self.slack,
            self.placements.len(),
            self.algorithm
        )
    }
}

/// Errors from [`Solution::verify`] and the per-net check that accepts a
/// measured answer.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum VerifyError {
    /// The solution was produced without predecessor tracking, so there are
    /// no placements to verify.
    NotTracked,
    /// The placements are not legal on the given tree.
    Tree(TreeError),
    /// The forward evaluation disagrees with the DP's prediction.
    SlackMismatch {
        /// Slack the DP predicted.
        predicted: Seconds,
        /// Slack the forward Elmore evaluation measured.
        measured: Seconds,
    },
    /// An answer reported slew-feasible, but its measured worst output
    /// slew is over the limit.
    SlewOverLimit {
        /// The slew limit the solve was given.
        limit: Seconds,
        /// Worst output slew the forward evaluation measured.
        measured: Seconds,
    },
    /// The forward evaluation measures a sink-to-sink skew other than the
    /// one the DP predicted.
    SkewMismatch {
        /// Skew the DP predicted.
        predicted: Seconds,
        /// Skew the forward evaluation measured.
        measured: Seconds,
    },
}

impl VerifyError {
    /// `measured` when it agrees with `predicted` under
    /// [`forward_agrees`], else [`VerifyError::SlackMismatch`].
    ///
    /// # Errors
    ///
    /// [`VerifyError::SlackMismatch`] when the two disagree.
    pub fn check_slack(predicted: Seconds, measured: Seconds) -> Result<Seconds, VerifyError> {
        if forward_agrees(predicted.value(), measured.value()) {
            Ok(measured)
        } else {
            Err(VerifyError::SlackMismatch {
                predicted,
                measured,
            })
        }
    }
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::NotTracked => {
                write!(f, "solution has no placements (tracking was disabled)")
            }
            VerifyError::Tree(e) => write!(f, "placements are illegal: {e}"),
            VerifyError::SlackMismatch {
                predicted,
                measured,
            } => write!(
                f,
                "predicted slack {predicted} but forward evaluation measured {measured}"
            ),
            VerifyError::SlewOverLimit { limit, measured } => write!(
                f,
                "reported slew-feasible but forward evaluation measured a worst slew \
                 of {measured}, over the {limit} limit"
            ),
            VerifyError::SkewMismatch {
                predicted,
                measured,
            } => write!(
                f,
                "predicted skew {predicted} but forward evaluation measured {measured}"
            ),
        }
    }
}

impl Error for VerifyError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            VerifyError::Tree(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_display_and_conversion() {
        let p: Placement = (NodeId::new(4), BufferTypeId::new(2)).into();
        assert_eq!(p.to_string(), "B2@n4");
    }

    #[test]
    fn forward_agreement_uses_the_larger_magnitude() {
        assert!(forward_agrees(1.0, 1.0 + 5e-10));
        assert!(!forward_agrees(1.0, 1.0 + 2e-9));
        assert!(forward_agrees(0.0, 0.0) && forward_agrees(0.0, -5e-22));
        assert!(!forward_agrees(0.0, 2e-21));
        assert!(forward_agrees(f64::INFINITY, f64::INFINITY));
        assert!(!forward_agrees(f64::NAN, f64::NAN));
        // Just over 1e-9 of the prediction, within 1e-9 of the measurement:
        // a tolerance scaled by the prediction alone rejects this pair, the
        // larger magnitude accepts it, in either argument order.
        let (p, m): (f64, f64) = (1.007_812_5, 1.007_812_501_007_812_5);
        assert!((m - p).abs() > 1e-9 * p);
        assert!(forward_agrees(p, m) && forward_agrees(m, p));
    }

    #[test]
    fn verify_error_display() {
        let e = VerifyError::NotTracked;
        assert!(e.to_string().contains("tracking"));
        let e = VerifyError::SlackMismatch {
            predicted: Seconds::from_pico(10.0),
            measured: Seconds::from_pico(20.0),
        };
        assert!(e.to_string().contains("predicted"));
        let e = VerifyError::Tree(TreeError::NoSource);
        assert!(e.to_string().contains("illegal"));
        assert!(e.source().is_some());
    }
}
