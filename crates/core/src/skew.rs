//! Skew-aware buffer insertion: the `(Q, C)` recursion extended with
//! per-sink **arrival windows**.
//!
//! Clock trees care about *skew* — the spread `max − min` of sink arrival
//! times — alongside (or instead of) worst-case slack. The skew lane of the
//! DP carries a window `[lo, hi]` on every candidate as a passenger column
//! pair of the slab: the minimum and maximum delay from the candidate's
//! node down to any sink of its subtree, under the buffering decisions
//! that candidate encodes and the solve's delay model. The recursion is
//! mechanical:
//!
//! * **sink** — `lo = hi = 0`;
//! * **wire** — the stage delay `d` every downstream sink sees is added to
//!   both ends (`lo += d`, `hi += d`), exactly the `d` subtracted from `q`;
//! * **merge** — `lo = min(lo_l, lo_r)`, `hi = max(hi_l, hi_r)`;
//! * **buffer** — the buffer stage delay `K + R·C` is added to both ends.
//!
//! The window width `hi − lo` is therefore *invariant* under wire and
//! buffer steps and monotonically non-decreasing at merges, which yields
//! the one safe pruning rule: under a skew bound `W`, a candidate whose
//! width already exceeds `W` can never recover and may be dropped.
//!
//! **Exactness.** The windows are pure *passengers*: they never influence
//! which candidates survive `(q, c)` dominance pruning, which `α` the hull
//! walk picks, or which root candidate is driven. With **no skew bound**
//! the solver below therefore reproduces [`Solver`](crate::Solver)
//! bit-for-bit — same slack, same placements — while additionally reporting
//! the skew and latency of the optimal-slack solution. With a bound, the
//! solver applies the safe width rule plus standard `(q, c)` dominance;
//! that combination is a *heuristic* for skew-constrained optimization: a
//! dominated candidate with a narrower window can, in pathological trees,
//! be the only route to a feasible solution (no tractable exact dominance
//! exists for the 4-dimensional `(q, c, lo, hi)` state — see ALGORITHM.md
//! §11). Solutions reported with `skew_ok = true` are genuinely feasible
//! and their slack is a lower bound on the true optimum; an infeasibility
//! report is conservative. Like the repo's other deliberate projections
//! ([`Algorithm::LiShiPermanent`] on multi-pin nets, the slew
//! `(Q, C)`-projection), it says so in its result.

use std::time::Instant;

use fastbuf_buflib::units::{Farads, Seconds};
use fastbuf_buflib::{BufferLibrary, BufferTypeId};
use fastbuf_rctree::{NodeId, RoutingTree};

use crate::buffering::Algorithm;
use crate::engine::{run_lane, DpState, OneList, SlabCtx};
use crate::slab::{Passenger, Window};
use crate::solution::Placement;
use crate::stats::SolveStats;
use crate::SolverOptions;

/// The result of a [`SkewSolver::solve`].
#[derive(Clone, Debug)]
pub struct SkewSolution {
    /// Slack at the source including the driver delay — identical (bit for
    /// bit) to [`Solution::slack`](crate::Solution) when no skew bound was
    /// set.
    pub slack: Seconds,
    /// `Q` of the chosen root candidate (before the driver charge).
    pub root_q: Seconds,
    /// Capacitive load of the chosen root candidate.
    pub root_load: Farads,
    /// Sink-to-sink skew of the chosen solution: `max − min` sink delay.
    pub skew: Seconds,
    /// Latest sink arrival (insertion delay), driver stage included.
    pub latency_max: Seconds,
    /// Earliest sink arrival, driver stage included.
    pub latency_min: Seconds,
    /// `true` when no skew bound was set, or when the chosen solution
    /// meets it. `false` means no candidate within the bound survived —
    /// the tree is infeasible under the bound *as far as the pruned search
    /// can tell* (the width prune is safe but the `(q, c)` dominance is a
    /// projection; see the [module docs](self)) — and the returned
    /// solution is the narrowest-window fallback.
    pub skew_ok: bool,
    /// `true` when no slew limit was set, or when the chosen solution
    /// meets it (as [`Solution::slew_ok`](crate::Solution::slew_ok)).
    pub slew_ok: bool,
    /// The buffers to insert (empty when tracking was disabled).
    pub placements: Vec<Placement>,
    /// Which `AddBuffer` algorithm ran.
    pub algorithm: Algorithm,
    /// Whether placements were reconstructed.
    pub tracked: bool,
    /// Output slew the source driver produces at the worst endpoint of its
    /// root stage, under the solve's delay model (as
    /// [`Solution::root_slew`](crate::Solution::root_slew)).
    pub root_slew: Seconds,
    /// Operation counters and timing.
    pub stats: SolveStats,
}

impl SkewSolution {
    /// Placements as `(node, buffer)` pairs, the form the forward
    /// [`elmore::evaluate`](fastbuf_rctree::elmore::evaluate) oracle takes.
    pub fn placement_pairs(&self) -> Vec<(NodeId, BufferTypeId)> {
        self.placements.iter().map(|p| (p.node, p.buffer)).collect()
    }
}

/// Skew-aware optimal buffer insertion; see the [module docs](self).
///
/// Runs under its [`SolverOptions`]: the windows accumulate the same
/// stage delays the `q` recursion subtracts, so they follow any delay
/// model, and a slew limit prunes and picks the root as in [`Solver`].
///
/// [`Solver`]: crate::Solver
///
/// # Example
///
/// ```
/// use fastbuf_buflib::BufferLibrary;
/// use fastbuf_core::skew::SkewSolver;
///
/// let lib = BufferLibrary::paper_synthetic(8)?;
/// let tree = fastbuf_netgen::h_tree(3);
/// let sol = SkewSolver::new(&tree, &lib).solve();
/// // A symmetric H-tree buffers symmetrically: zero skew.
/// assert!(sol.skew.picos() < 1e-6);
/// assert!(sol.skew_ok);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SkewSolver<'a> {
    tree: &'a RoutingTree,
    library: &'a BufferLibrary,
    options: SolverOptions,
    max_skew: Option<Seconds>,
}

impl<'a> SkewSolver<'a> {
    /// Creates a solver with default options ([`Algorithm::LiShi`],
    /// tracking on) and no skew bound.
    pub fn new(tree: &'a RoutingTree, library: &'a BufferLibrary) -> Self {
        SkewSolver {
            tree,
            library,
            options: SolverOptions::default(),
            max_skew: None,
        }
    }

    /// Replaces all options.
    #[must_use]
    pub fn with_options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// Selects the `AddBuffer` algorithm.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.options.algorithm = algorithm;
        self
    }

    /// Sets the skew bound (`None` = unbounded, the bit-identical mode).
    #[must_use]
    pub fn max_skew(mut self, bound: Option<Seconds>) -> Self {
        self.max_skew = bound;
        self
    }

    /// Runs the skew lane of the DP. Panics never; infeasibility under a
    /// bound is reported via [`SkewSolution::skew_ok`], under a slew limit
    /// via [`SkewSolution::slew_ok`].
    pub fn solve(&self) -> SkewSolution {
        let start = Instant::now();
        let bound = self.max_skew.map_or(f64::INFINITY, |s| s.value());
        let ctx = SlabCtx::new(self.tree, self.library, &self.options);
        let lane = &mut OneList::<Window>::new(bound);
        let mut state = DpState::default();
        let root = run_lane(&ctx, lane, state.dp(), &mut Vec::new());
        state.stats.root_list_len = state.slab.len(root);
        // The slew limit first, then the skew bound among the candidates
        // that meet it: the best one within both, else the narrowest
        // window that meets the limit. With no candidate meeting the limit,
        // the least-bad one is taken whatever its window.
        let (i, slew_ok, skew_ok) =
            ctx.select_root_within(&state.slab, root, bound, |cols, i| cols.x.width(i));
        let (dr, dk) = ctx.driver();
        let view = state.slab.view(root);
        let (best, (lo, hi)) = (view.get(i), view.row(i));

        let placements = state.arena.placements(best.pred);
        state.stats.elapsed = start.elapsed();

        let driver_delay = dk + dr * best.c;
        SkewSolution {
            slack: Seconds::new(best.q - dk - dr * best.c),
            root_q: Seconds::new(best.q),
            root_load: Farads::new(best.c),
            skew: Seconds::new(hi - lo),
            latency_max: Seconds::new(driver_delay + hi),
            latency_min: Seconds::new(driver_delay + lo),
            skew_ok,
            slew_ok,
            placements,
            algorithm: self.options.algorithm,
            tracked: ctx.track,
            root_slew: Seconds::new(ctx.model.slew(0.0, dr, best.c, best.s)),
            stats: state.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Solver;
    use fastbuf_buflib::units::{Microns, Ohms};
    use fastbuf_buflib::{Driver, Technology};
    use fastbuf_rctree::{elmore, TreeBuilder, Wire};

    fn lib() -> BufferLibrary {
        BufferLibrary::paper_synthetic(8).unwrap()
    }

    #[test]
    fn unbounded_matches_plain_solver_bitwise() {
        let lib = lib();
        for tree in [
            fastbuf_netgen::h_tree(3),
            fastbuf_netgen::caterpillar_net(12, Microns::new(700.0), Microns::new(150.0)),
        ] {
            for algo in Algorithm::ALL {
                let plain = Solver::new(&tree, &lib).algorithm(algo).solve();
                let skew = SkewSolver::new(&tree, &lib).algorithm(algo).solve();
                assert_eq!(
                    plain.slack.value().to_bits(),
                    skew.slack.value().to_bits(),
                    "{algo:?}"
                );
                assert_eq!(plain.placements, skew.placements, "{algo:?}");
                assert_eq!(
                    plain.root_load.value().to_bits(),
                    skew.root_load.value().to_bits()
                );
                assert!(skew.skew_ok);
            }
        }
    }

    #[test]
    fn reported_skew_matches_forward_evaluation() {
        let lib = lib();
        let tree = fastbuf_netgen::caterpillar_net(10, Microns::new(900.0), Microns::new(200.0));
        let sol = SkewSolver::new(&tree, &lib).solve();
        let report = elmore::evaluate(&tree, &lib, &sol.placement_pairs()).unwrap();
        let measured = report.skew(&tree).value();
        let predicted = sol.skew.value();
        assert!(
            (measured - predicted).abs() <= 1e-9 * measured.abs().max(1e-12),
            "skew mismatch: DP {predicted} vs measured {measured}"
        );
    }

    #[test]
    fn symmetric_h_tree_has_zero_skew() {
        let sol = SkewSolver::new(&fastbuf_netgen::h_tree(3), &lib()).solve();
        assert!(sol.skew.picos().abs() < 1e-6, "skew = {}", sol.skew);
        assert!(sol.latency_max >= sol.latency_min);
    }

    #[test]
    fn bounded_solution_is_feasible_or_flagged() {
        let lib = lib();
        // An asymmetric two-branch net with genuinely different path depths.
        let tech = Technology::tsmc180_like();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(150.0)));
        let fork = b.buffer_site();
        let near = b.sink(
            fastbuf_buflib::units::Farads::from_femto(10.0),
            Seconds::from_pico(2000.0),
        );
        let s1 = b.buffer_site();
        let far = b.sink(
            fastbuf_buflib::units::Farads::from_femto(10.0),
            Seconds::from_pico(2000.0),
        );
        b.connect(src, fork, Wire::from_length(&tech, Microns::new(500.0)))
            .unwrap();
        b.connect(fork, near, Wire::from_length(&tech, Microns::new(400.0)))
            .unwrap();
        b.connect(fork, s1, Wire::from_length(&tech, Microns::new(3000.0)))
            .unwrap();
        b.connect(s1, far, Wire::from_length(&tech, Microns::new(3000.0)))
            .unwrap();
        let tree = b.build().unwrap();

        let free = SkewSolver::new(&tree, &lib).solve();
        assert!(free.skew.value() > 0.0);
        // A bound looser than the free solution's skew changes nothing.
        let loose = SkewSolver::new(&tree, &lib)
            .max_skew(Some(Seconds::new(free.skew.value() * 2.0)))
            .solve();
        assert!(loose.skew_ok);
        assert!(loose.skew.value() <= free.skew.value() * 2.0);
        // A bound of zero on an asymmetric tree is infeasible: flagged, and
        // the fallback still returns a total solution.
        let tight = SkewSolver::new(&tree, &lib)
            .max_skew(Some(Seconds::ZERO))
            .solve();
        assert!(!tight.skew_ok);
        assert!(tight.skew.value() > 0.0);
    }
}
