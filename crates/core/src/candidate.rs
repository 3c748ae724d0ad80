//! Candidates — the points of the paper's nonredundant sets `N(T_v)`.
//!
//! A *candidate* summarizes one way of buffering the subtree below a node by
//! the only two quantities visible upstream: the slack `Q` and the
//! downstream capacitance `C` (§2 of the paper). Candidate `a` *dominates*
//! `a'` when `Q(a) ≥ Q(a')` and `C(a) ≤ C(a')`; dominated candidates can
//! never be part of an optimal solution and are pruned eagerly. The
//! surviving *nonredundant* set, sorted by strictly increasing `Q` and `C`,
//! is what every DP operation manipulates; the solver holds those sets as
//! columns (`crate::slab`), so a `Candidate` is the value one column row
//! reads back as.
//!
//! Internally `q`/`c` are raw `f64` in seconds/farads: these fields are read
//! and written in the innermost loops of every solver, where the unit
//! newtypes of `fastbuf-buflib` would only obscure the arithmetic. The
//! public solver APIs convert at the boundary.

use crate::arena::PredRef;

/// One `(Q, C)` candidate of the dynamic program.
///
/// Besides the paper's two coordinates, every candidate carries `s`: the
/// worst in-stage wire delay of its *topmost unbuffered stage* — the
/// maximum, over the buffer inputs and sinks reachable from the candidate's
/// root without crossing a buffer, of the wire delay from the root to that
/// endpoint. When an upstream gate with resistance `R` later closes the
/// stage, the output slew at the worst endpoint is `slew₀ + ln9·(R·C + s)`
/// (see `fastbuf_rctree::delay`), which is what slew-constrained solving
/// prunes against. `s` rides along for free in unconstrained solves and
/// never influences `(Q, C)` dominance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Candidate {
    /// Slack at the current node, in seconds.
    pub q: f64,
    /// Downstream capacitance, in farads.
    pub c: f64,
    /// Worst in-stage wire delay to a stage endpoint, in seconds.
    pub s: f64,
    /// Reconstruction reference into the predecessor arena.
    pub pred: PredRef,
}

impl Candidate {
    /// Creates a candidate with zero stage delay (a sink, or a freshly
    /// buffered candidate whose stage endpoint is its own input).
    #[inline]
    pub fn new(q: f64, c: f64, pred: PredRef) -> Self {
        Candidate { q, c, s: 0.0, pred }
    }

    /// Replaces the stage wire delay and returns `self` (builder style,
    /// mostly for tests and branch merging).
    #[inline]
    #[must_use]
    pub fn with_stage_delay(mut self, s: f64) -> Self {
        self.s = s;
        self
    }

    /// The buffered slack `Q − (K + R·C)` this candidate would yield if
    /// driven by a gate with resistance `r` and intrinsic delay `k`.
    #[inline]
    pub fn driven_q(&self, r: f64, k: f64) -> f64 {
        self.q - k - r * self.c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driven_q_formula() {
        let c = Candidate::new(10.0, 3.0, PredRef::NONE);
        assert_eq!(c.driven_q(2.0, 1.0), 10.0 - 1.0 - 6.0);
        assert_eq!(c.with_stage_delay(4.0).s, 4.0);
    }
}
