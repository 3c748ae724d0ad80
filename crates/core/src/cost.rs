//! Cost-bounded buffer insertion: the slack-vs-cost Pareto frontier.
//!
//! The paper closes with *"Our algorithm can also be applied to reduce
//! buffer cost. We leave the details to the journal version."* This module
//! implements that application in the style of Lillis, Cheng & Lin's
//! power-optimal extension: the DP state is `(Q, C, W)` where `W` is the
//! accumulated buffer cost (an integer — e.g. area units; the synthetic
//! libraries derive it from drive strength). Per cost level the candidates
//! form an ordinary nonredundant `(Q, C)` list, so every level reuses the
//! O(k + b) convex-hull `AddBuffer` of the main solver; levels interact
//! through buffer insertion (level `w` feeds `w + cost(B_i)`), branch
//! merging (levels convolve) and three-dimensional dominance pruning (a
//! candidate beaten in both `Q` and `C` by a *cheaper* candidate dies).
//!
//! The cost dimension is capped by [`CostSolver::max_cost`]; the result is
//! exact for every budget up to the cap. Under a slew limit the levels
//! obey the slew rule [`Solver`](crate::Solver) applies to its one list
//! (one prune across all levels before each level-dominance pass, and the
//! same root pick), so the frontier is as conservative as `Solver` is
//! there: feasible, and never better than the feasible optimum.
//!
//! # Example
//!
//! ```
//! use fastbuf_buflib::{BufferLibrary, Driver, Technology};
//! use fastbuf_buflib::units::{Farads, Microns, Ohms, Seconds};
//! use fastbuf_rctree::{TreeBuilder, Wire};
//! use fastbuf_core::cost::CostSolver;
//!
//! let tech = Technology::tsmc180_like();
//! let lib = BufferLibrary::paper_synthetic(8)?;
//! let mut b = TreeBuilder::new();
//! let src = b.source(Driver::new(Ohms::new(180.0)));
//! let mut prev = src;
//! for _ in 0..6 {
//!     let s = b.buffer_site();
//!     b.connect(prev, s, Wire::from_length(&tech, Microns::new(1500.0)))?;
//!     prev = s;
//! }
//! let snk = b.sink(Farads::from_femto(15.0), Seconds::from_pico(2500.0));
//! b.connect(prev, snk, Wire::from_length(&tech, Microns::new(1500.0)))?;
//! let tree = b.build()?;
//!
//! let frontier = CostSolver::new(&tree, &lib).max_cost(60).solve()?;
//! // Spending more can only help, and the frontier is strictly improving.
//! for w in frontier.points.windows(2) {
//!     assert!(w[1].cost > w[0].cost && w[1].slack > w[0].slack);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::error::Error;
use std::fmt;
use std::time::Instant;

use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::{BufferLibrary, BufferTypeId};
use fastbuf_rctree::{NodeId, RoutingTree};

use crate::arena::PredArena;
use crate::buffering::{find_betas, Algorithm};
use crate::candidate::Candidate;
use crate::engine::{run_lane, Dp, DpState, Lane, SlabCtx};
use crate::slab::{CandidateSlab, SlabList};
use crate::solution::Placement;
use crate::stats::SolveStats;
use crate::SolverOptions;

/// Errors from [`CostSolver::solve`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum CostError {
    /// A buffer's cost is not a non-negative integer (within 1e-6); the
    /// cost DP requires discrete levels.
    NonIntegerCost {
        /// Name of the offending buffer type.
        buffer: String,
    },
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::NonIntegerCost { buffer } => {
                write!(
                    f,
                    "buffer `{buffer}` has a non-integer cost; the cost DP needs integer levels"
                )
            }
        }
    }
}

impl Error for CostError {}

/// One point of the slack-vs-cost frontier.
#[derive(Clone, Debug)]
pub struct FrontierPoint {
    /// Total buffer cost spent.
    pub cost: u32,
    /// Best achievable slack at that cost.
    pub slack: Seconds,
    /// The placements achieving it.
    pub placements: Vec<Placement>,
    /// `true` when no slew limit was set, or when the point meets it (as
    /// [`Solution::slew_ok`](crate::Solution::slew_ok)).
    pub slew_ok: bool,
}

/// The Pareto frontier returned by [`CostSolver::solve`]: points sorted by
/// strictly increasing cost *and* strictly increasing slack (non-improving
/// budgets are omitted). Under a slew limit only points that meet it are
/// kept; when none does, the frontier holds the one least-bad point, with
/// [`FrontierPoint::slew_ok`] `false`.
#[derive(Clone, Debug)]
pub struct CostFrontier {
    /// The frontier points, cheapest first. Without a slew limit the first
    /// point is the unbuffered solution (cost 0); under one it is the
    /// cheapest solution that meets the limit.
    pub points: Vec<FrontierPoint>,
    /// Aggregated operation counters across all cost levels.
    pub stats: SolveStats,
}

impl CostFrontier {
    /// The best slack achievable within `budget`.
    pub fn best_within(&self, budget: u32) -> Option<&FrontierPoint> {
        self.points.iter().rev().find(|p| p.cost <= budget)
    }
}

/// Cost-bounded solver; see the [module docs](self).
///
/// Runs under its [`SolverOptions`] like [`Solver`](crate::Solver), except
/// that it always tracks predecessors: every frontier point is a placement.
#[derive(Debug)]
pub struct CostSolver<'a> {
    tree: &'a RoutingTree,
    library: &'a BufferLibrary,
    options: SolverOptions,
    max_cost: u32,
}

impl<'a> CostSolver<'a> {
    /// Creates a cost solver with default options and a budget cap of 64
    /// cost units.
    pub fn new(tree: &'a RoutingTree, library: &'a BufferLibrary) -> Self {
        CostSolver {
            tree,
            library,
            options: SolverOptions::default(),
            max_cost: 64,
        }
    }

    /// Replaces all options (tracking stays on).
    #[must_use]
    pub fn with_options(mut self, options: SolverOptions) -> Self {
        self.options = SolverOptions {
            track_predecessors: true,
            ..options
        };
        self
    }

    /// Selects the `AddBuffer` algorithm used within each cost level.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.options.algorithm = algorithm;
        self
    }

    /// Sets the largest total buffer cost explored.
    #[must_use]
    pub fn max_cost(mut self, max_cost: u32) -> Self {
        self.max_cost = max_cost;
        self
    }

    /// Runs the three-dimensional DP and returns the frontier.
    ///
    /// # Errors
    ///
    /// [`CostError::NonIntegerCost`] if any library cost is not an integer.
    pub fn solve(&self) -> Result<CostFrontier, CostError> {
        let start = Instant::now();
        let tree = self.tree;
        let lib = self.library;

        // Integer costs per type, validated.
        let mut costs = Vec::with_capacity(lib.len());
        for (_, b) in lib.iter() {
            let rounded = b.cost().round();
            if (b.cost() - rounded).abs() > 1e-6 || rounded < 0.0 {
                return Err(CostError::NonIntegerCost {
                    buffer: b.name().to_owned(),
                });
            }
            costs.push(rounded as usize);
        }
        // Every node sizes a table of `w_max + 1` levels, so the cap is
        // clamped to the most any solution can spend (each site hosting
        // the dearest type): the levels above it stay empty at every node,
        // and the frontier is the same.
        let reachable = tree
            .buffer_sites()
            .count()
            .saturating_mul(costs.iter().copied().max().unwrap_or(0));
        let w_max = (self.max_cost as usize).min(reachable);

        let mut groups: Vec<(usize, Vec<BufferTypeId>)> = Vec::new();
        for &id in lib.by_input_cap_asc() {
            let cost = costs[id.index()];
            match groups.iter_mut().find(|(c, _)| *c == cost) {
                Some((_, ids)) => ids.push(id),
                None => groups.push((cost, vec![id])),
            }
        }

        let lane = &mut CostLane {
            w_max,
            cheapest: costs.iter().copied().min().unwrap_or(0),
            costs,
            groups,
        };
        let ctx = SlabCtx::new(tree, lib, &self.options);
        let mut state = DpState::default();
        let root = run_lane(&ctx, lane, state.dp(), &mut Vec::new());
        let (dr, dk) = ctx.driver();
        let point = |w: usize, cand: Candidate, slew_ok| FrontierPoint {
            cost: w as u32,
            slack: Seconds::new(cand.q - dk - dr * cand.c),
            placements: state.arena.placements(cand.pred),
            slew_ok,
        };
        let mut points: Vec<FrontierPoint> = Vec::new();
        // The level pick whose final stage exceeds the slew limit least
        // (the cheapest on a tie), in case no level meets it.
        let mut least_bad: Option<(f64, usize, Candidate)> = None;
        for (w, level) in root.iter().enumerate() {
            let Some(level) = *level else { continue };
            state.stats.root_list_len = state.stats.root_list_len.max(state.slab.len(level));
            let (i, slew_ok) = ctx.select_root(&state.slab, level);
            let cand = state.slab.view(level).get(i);
            if !slew_ok {
                let key = ctx.root_slew(cand.c, cand.s);
                if least_bad.is_none_or(|(least, ..)| key < least) {
                    least_bad = Some((key, w, cand));
                }
            } else if points
                .last()
                .is_none_or(|p| cand.q - dk - dr * cand.c > p.slack.value())
            {
                points.push(point(w, cand, true));
            }
        }
        if let Some((_, w, cand)) = least_bad.filter(|_| points.is_empty()) {
            points.push(point(w, cand, false));
        }
        state.stats.elapsed = start.elapsed();
        Ok(CostFrontier {
            points,
            stats: state.stats,
        })
    }
}

/// The cost lane: one list per cost level `0..=w_max` at every node
/// (`None` for an empty level, which most are).
struct CostLane {
    w_max: usize,
    /// Integer cost per library type.
    costs: Vec<usize>,
    cheapest: usize,
    /// Types grouped by cost, groups in order of first appearance in
    /// input-capacitance order and each group in that order: one group's
    /// betas from one level share a target level.
    groups: Vec<(usize, Vec<BufferTypeId>)>,
}

impl Lane for CostLane {
    type P = ();
    type Set = Vec<Option<SlabList>>;

    fn sink(&self, slab: &mut CandidateSlab, _: NodeId, q: f64, c: f64) -> Self::Set {
        let mut levels = vec![None; self.w_max + 1];
        levels[0] = Some(slab.sink(q, c));
        levels
    }

    fn each_list(set: &Self::Set, f: impl FnMut(SlabList)) {
        set.iter().flatten().copied().for_each(f);
    }

    fn merge(
        &self,
        ctx: &SlabCtx<'_>,
        dp: &mut Dp<'_, ()>,
        a: Self::Set,
        b: Self::Set,
    ) -> Self::Set {
        merge_levels(dp.slab, a, b, dp.arena, ctx, dp.stats)
    }

    /// Betas from every level first, then inserted, so a single node never
    /// hosts two buffers. Level `w`'s betas of one cost form a c-sorted
    /// group bound for level `w + cost`; each target unions its groups in
    /// source-level order.
    fn add_buffers(
        &self,
        ctx: &SlabCtx<'_>,
        dp: &mut Dp<'_, ()>,
        set: &mut Self::Set,
        node: NodeId,
    ) {
        let (site, w_max) = (ctx.site(node), self.w_max);
        dp.scratch.stage.reset_targets(w_max + 1);
        for (w, level) in set.iter().enumerate() {
            let Some(level) = *level else { continue };
            if w + self.cheapest > w_max {
                // No type fits the budget from here up: skip the hull and
                // the walk. LiShiPermanent's AddBuffer still replaces the
                // list by its convex hull, betas or not.
                if site.algo == Algorithm::LiShiPermanent {
                    dp.stats.convex_pruned += dp.slab.convex_prune(level) as u64;
                }
                continue;
            }
            let fits = |id: BufferTypeId| w + self.costs[id.index()] <= w_max;
            if !find_betas(&site, dp, level, fits) {
                continue;
            }
            for (cost, ids) in &self.groups {
                if w + cost <= w_max {
                    dp.stats.betas_generated += dp.scratch.route(ids, w + cost);
                }
            }
        }
        dp.slab.insert_targets(set, &dp.scratch.stage.targets);
        prune_levels(dp.slab, set, ctx.slew.cap, dp.stats);
    }
}

/// Convolves two per-level lists: `out[w] = nondominated union over
/// w₁+w₂=w of merge(left[w₁], right[w₂])`.
///
/// Each input level takes part in up to `w_max + 1` merges; the slab's
/// non-consuming [`CandidateSlab::merge_keep`] reads it in place each time
/// instead of cloning both sides per pair.
fn merge_levels(
    slab: &mut CandidateSlab,
    left: Vec<Option<SlabList>>,
    right: Vec<Option<SlabList>>,
    arena: &mut PredArena,
    ctx: &SlabCtx<'_>,
    stats: &mut SolveStats,
) -> Vec<Option<SlabList>> {
    let w_max = left.len() - 1;
    let mut out: Vec<Option<SlabList>> = vec![None; w_max + 1];
    for (w1, l) in left.iter().enumerate() {
        let Some(l) = *l else { continue };
        for (w2, r) in right.iter().enumerate() {
            if w1 + w2 > w_max {
                continue;
            }
            let Some(r) = *r else { continue };
            let merged = slab.merge_keep(l, r, arena, ctx.track, stats);
            match out[w1 + w2] {
                None => out[w1 + w2] = Some(merged),
                Some(dst) => {
                    slab.merge_insert_list(dst, merged);
                    slab.free(merged);
                }
            }
        }
    }
    for spent in left.into_iter().chain(right).flatten() {
        slab.free(spent);
    }
    prune_levels(slab, &mut out, ctx.slew.cap, stats);
    out
}

/// The slew prune across all levels, as [`Solver`](crate::Solver) applies
/// it to its one list: drops every candidate whose stage wire delay `s`
/// exceeds `cap` — whole levels too — unless none meets it, when only the
/// least-bad candidate stays (the cheapest level's on a tie). Per level, a
/// least-bad survivor of an all-violating level could dominate a candidate
/// at a dearer level that meets the limit. Returns the number removed.
fn prune_slew_levels(slab: &mut CandidateSlab, levels: &mut [Option<SlabList>], cap: f64) -> usize {
    if !cap.is_finite() {
        return 0;
    }
    let least: Vec<f64> = (levels.iter())
        .map(|l| {
            l.map_or(f64::INFINITY, |l| {
                slab.view(l).s.iter().fold(f64::INFINITY, |m, &s| m.min(s))
            })
        })
        .collect();
    // With nothing within the cap, the level of the least-bad candidate
    // keeps it (its own prune keeps exactly that one).
    let keep = (least.iter().all(|&m| m > cap))
        .then(|| (0..least.len()).fold(0, |a, w| if least[w] < least[a] { w } else { a }));
    let mut removed = 0;
    for (w, slot) in levels.iter_mut().enumerate() {
        let Some(level) = *slot else { continue };
        if least[w] <= cap || keep == Some(w) {
            removed += slab.prune_slew(level, cap);
        } else {
            removed += slab.len(level);
            slab.free(level);
            *slot = None;
        }
    }
    removed
}

/// Three-dimensional dominance, after [`prune_slew_levels`] under `cap`:
/// removes candidates beaten in `(Q, C)` by a candidate at an
/// equal-or-cheaper level. The running cheaper-or-equal
/// frontier is itself a slab list; each level is filtered against it by one
/// linear sweep ([`CandidateSlab::retain_undominated`]) and then unioned
/// into it in place — except the last level, which nothing is filtered
/// against afterwards.
fn prune_levels(
    slab: &mut CandidateSlab,
    levels: &mut [Option<SlabList>],
    cap: f64,
    stats: &mut SolveStats,
) {
    stats.slew_pruned += prune_slew_levels(slab, levels, cap) as u64;
    let last = levels.iter().rposition(Option::is_some);
    let mut frontier: Option<SlabList> = None;
    for (w, slot) in levels.iter_mut().enumerate() {
        let Some(level) = *slot else { continue };
        if slab.len(level) == 0 {
            slab.free(level);
            *slot = None;
            continue;
        }
        if let Some(f) = frontier {
            slab.retain_undominated(level, f, stats);
            if slab.len(level) == 0 {
                slab.free(level);
                *slot = None;
                continue;
            }
        }
        if Some(w) == last {
            break;
        }
        match frontier {
            None => frontier = Some(slab.copy_list(level)),
            Some(f) => slab.merge_insert_list(f, level),
        }
    }
    if let Some(f) = frontier {
        slab.free(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Solver;
    use fastbuf_buflib::units::{Farads, Microns, Ohms};
    use fastbuf_buflib::{BufferType, Driver, Technology};
    use fastbuf_rctree::elmore;
    use fastbuf_rctree::{TreeBuilder, Wire};

    fn line_net(sites: usize, seg_um: f64, rat_ps: f64) -> RoutingTree {
        let tech = Technology::tsmc180_like();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(180.0)));
        let mut prev = src;
        for _ in 0..sites {
            let s = b.buffer_site();
            b.connect(prev, s, Wire::from_length(&tech, Microns::new(seg_um)))
                .unwrap();
            prev = s;
        }
        let snk = b.sink(Farads::from_femto(15.0), Seconds::from_pico(rat_ps));
        b.connect(prev, snk, Wire::from_length(&tech, Microns::new(seg_um)))
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn frontier_starts_unbuffered_and_improves() {
        let tree = line_net(6, 1500.0, 2500.0);
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        let frontier = CostSolver::new(&tree, &lib).max_cost(80).solve().unwrap();
        assert!(!frontier.points.is_empty());
        assert_eq!(frontier.points[0].cost, 0);
        assert!(frontier.points[0].placements.is_empty());
        for w in frontier.points.windows(2) {
            assert!(w[1].cost > w[0].cost);
            assert!(w[1].slack > w[0].slack);
        }
    }

    #[test]
    fn unlimited_budget_matches_unconstrained_solver() {
        let tree = line_net(6, 1500.0, 2500.0);
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        // Budget large enough to never bind: 6 sites x max cost 39.
        let frontier = CostSolver::new(&tree, &lib).max_cost(250).solve().unwrap();
        let unconstrained = Solver::new(&tree, &lib).solve();
        let best = frontier.points.last().unwrap();
        assert!(
            (best.slack.picos() - unconstrained.slack.picos()).abs() < 1e-6,
            "{} vs {}",
            best.slack,
            unconstrained.slack
        );

        // Under a slew limit the levels obey Solver's slew rule, so the
        // last point is Solver's pick: both feasible with the same slack,
        // or both not (the least-bad picks may differ: the levels keep
        // candidates that Solver's one list drops as dominated).
        let mut feasible = [0, 0];
        for seed in 0..24u64 {
            let tree = fastbuf_netgen::RandomNetSpec {
                sinks: 1 + seed as usize % 6,
                seed,
                site_pitch: Some(Microns::new(300.0 + 100.0 * (seed % 5) as f64)),
                ..Default::default()
            }
            .build();
            let unbuffered = elmore::evaluate(&tree, &lib, &[]).unwrap().max_slew;
            for frac in [0.15, 0.3, 0.6, 1.0] {
                let options = SolverOptions {
                    slew_limit: Some(unbuffered * frac),
                    ..SolverOptions::default()
                };
                let plain = Solver::new(&tree, &lib)
                    .with_options(options.clone())
                    .solve();
                let cost = CostSolver::new(&tree, &lib).with_options(options);
                let frontier = cost.max_cost(u32::MAX).solve().unwrap();
                let (best, ctx) = (frontier.points.last().unwrap(), (seed, frac));
                assert!(
                    frontier.points.iter().all(|p| p.slew_ok == plain.slew_ok),
                    "{ctx:?}"
                );
                feasible[usize::from(plain.slew_ok)] += 1;
                let gap = best.slack.picos() - plain.slack.picos();
                assert!(!plain.slew_ok || gap.abs() < 1e-6, "{ctx:?}: {gap} ps");
            }
        }
        assert!(
            feasible[0] > 0 && feasible[1] > 0,
            "the limits bind both ways"
        );
    }

    #[test]
    fn every_frontier_point_verifies_and_costs_match() {
        let tree = line_net(5, 1800.0, 3000.0);
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let frontier = CostSolver::new(&tree, &lib).max_cost(100).solve().unwrap();
        for p in &frontier.points {
            let pairs: Vec<_> = p.placements.iter().map(|x| (x.node, x.buffer)).collect();
            let report = elmore::evaluate(&tree, &lib, &pairs).unwrap();
            assert!(
                (report.slack.picos() - p.slack.picos()).abs() < 1e-6,
                "cost {}: predicted {} measured {}",
                p.cost,
                p.slack,
                report.slack
            );
            let spent: f64 = p.placements.iter().map(|x| lib.get(x.buffer).cost()).sum();
            assert_eq!(spent as u32, p.cost, "cost bookkeeping at {}", p.cost);
        }
    }

    #[test]
    fn budget_caps_solution_cost() {
        let tree = line_net(6, 1500.0, 2500.0);
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        let frontier = CostSolver::new(&tree, &lib).max_cost(10).solve().unwrap();
        for p in &frontier.points {
            assert!(p.cost <= 10);
        }
        // A tighter budget cannot beat a looser one.
        let loose = CostSolver::new(&tree, &lib).max_cost(200).solve().unwrap();
        assert!(
            frontier.points.last().unwrap().slack.picos()
                <= loose.points.last().unwrap().slack.picos() + 1e-9
        );
    }

    /// The level table is clamped to the most any solution can spend
    /// (sites × dearest type), so an oversized cap neither allocates per
    /// cost unit nor changes a bit of the frontier.
    #[test]
    fn oversized_budget_matches_the_reachable_clamp() {
        let tree = line_net(6, 1500.0, 2500.0);
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let dearest = lib.iter().map(|(_, b)| b.cost() as u32).max().unwrap();
        let clamp = CostSolver::new(&tree, &lib)
            .max_cost(6 * dearest)
            .solve()
            .unwrap();
        let start = Instant::now();
        let huge = CostSolver::new(&tree, &lib)
            .max_cost(u32::MAX)
            .solve()
            .unwrap();
        assert!(start.elapsed().as_secs() < 10, "{:?}", start.elapsed());
        assert_eq!(huge.points.len(), clamp.points.len());
        for (a, b) in huge.points.iter().zip(&clamp.points) {
            assert_eq!(a.cost, b.cost);
            assert_eq!(a.slack.value().to_bits(), b.slack.value().to_bits());
            assert_eq!(a.placements, b.placements);
        }
        assert_eq!(huge.stats.addbuffer_work(), clamp.stats.addbuffer_work());
    }

    #[test]
    fn best_within_selects_by_budget() {
        let tree = line_net(4, 2000.0, 2500.0);
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let frontier = CostSolver::new(&tree, &lib).max_cost(100).solve().unwrap();
        let p0 = frontier.best_within(0).unwrap();
        assert_eq!(p0.cost, 0);
        let all = frontier.best_within(u32::MAX).unwrap();
        assert_eq!(all.cost, frontier.points.last().unwrap().cost);
        // Budgets between points resolve to the cheaper point.
        if frontier.points.len() >= 2 {
            let second = frontier.points[1].cost;
            assert_eq!(frontier.best_within(second - 1).unwrap().cost, 0);
        }
    }

    #[test]
    fn non_integer_cost_rejected() {
        let lib = BufferLibrary::new(vec![BufferType::new(
            "x",
            Ohms::new(100.0),
            Farads::from_femto(1.0),
            Seconds::ZERO,
        )
        .with_cost(1.5)])
        .unwrap();
        let tree = line_net(1, 500.0, 100.0);
        let err = CostSolver::new(&tree, &lib).solve().unwrap_err();
        assert!(matches!(err, CostError::NonIntegerCost { .. }));
        assert!(err.to_string().contains("x"));
    }

    #[test]
    fn multi_pin_frontier_verifies() {
        let tech = Technology::tsmc180_like();
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(250.0)));
        let s0 = b.buffer_site();
        let tee = b.internal();
        let s1 = b.buffer_site();
        let s2 = b.buffer_site();
        let k1 = b.sink(Farads::from_femto(10.0), Seconds::from_pico(800.0));
        let k2 = b.sink(Farads::from_femto(25.0), Seconds::from_pico(1200.0));
        b.connect(src, s0, Wire::from_length(&tech, Microns::new(2000.0)))
            .unwrap();
        b.connect(s0, tee, Wire::from_length(&tech, Microns::new(500.0)))
            .unwrap();
        b.connect(tee, s1, Wire::from_length(&tech, Microns::new(1500.0)))
            .unwrap();
        b.connect(s1, k1, Wire::from_length(&tech, Microns::new(500.0)))
            .unwrap();
        b.connect(tee, s2, Wire::from_length(&tech, Microns::new(3000.0)))
            .unwrap();
        b.connect(s2, k2, Wire::from_length(&tech, Microns::new(800.0)))
            .unwrap();
        let tree = b.build().unwrap();

        let frontier = CostSolver::new(&tree, &lib).max_cost(150).solve().unwrap();
        for p in &frontier.points {
            let pairs: Vec<_> = p.placements.iter().map(|x| (x.node, x.buffer)).collect();
            let report = elmore::evaluate(&tree, &lib, &pairs).unwrap();
            assert!((report.slack.picos() - p.slack.picos()).abs() < 1e-6);
        }
        let unconstrained = Solver::new(&tree, &lib).solve();
        assert!(
            (frontier.points.last().unwrap().slack.picos() - unconstrained.slack.picos()).abs()
                < 1e-6
        );
    }

    /// Loads one slab list per level from `(q, c, s)` points.
    fn load_levels(
        slab: &mut CandidateSlab,
        levels: &[&[(f64, f64, f64)]],
    ) -> Vec<Option<SlabList>> {
        let load = |slab: &mut CandidateSlab, pts: &[(f64, f64, f64)]| {
            let mut cols = crate::slab::Columns::default();
            for &(q, c, s) in pts {
                cols.push(q, c, s, crate::arena::PredRef::NONE);
            }
            Some(slab.load(&cols))
        };
        levels.iter().map(|pts| load(slab, pts)).collect()
    }

    #[test]
    fn prune_levels_removes_expensive_dominated() {
        let mut slab = CandidateSlab::default();
        let mut stats = SolveStats::default();
        let mut levels = load_levels(
            &mut slab,
            &[
                &[(5.0, 2.0, 0.0)],
                &[(4.0, 3.0, 0.0), (6.0, 4.0, 0.0)], // (4,3) dominated by cheaper (5,2)
                &[(5.0, 2.0, 0.0)],                  // exactly equal but pricier: dominated
            ],
        );
        prune_levels(&mut slab, &mut levels, f64::INFINITY, &mut stats);
        assert_eq!(slab.len(levels[0].unwrap()), 1);
        assert_eq!(slab.len(levels[1].unwrap()), 1);
        assert_eq!(slab.view(levels[1].unwrap()).q[0], 6.0);
        assert!(levels[2].is_none(), "fully dominated level is dropped");
        assert_eq!(stats.slab_candidates_pruned, 2);
    }

    #[test]
    fn slew_prune_spans_every_level() {
        let mut slab = CandidateSlab::default();
        let mut stats = SolveStats::default();
        // Level 0 misses the cap of 1.0 entirely: with level 1 meeting
        // it, none of level 0 survives (kept, its (9, 1) would dominate
        // level 1's (8, 2)).
        let points: [&[_]; 2] = [&[(9.0, 1.0, 3.0), (10.0, 5.0, 2.0)], &[(8.0, 2.0, 0.5)]];
        let mut levels = load_levels(&mut slab, &points);
        prune_levels(&mut slab, &mut levels, 1.0, &mut stats);
        assert!(levels[0].is_none());
        assert_eq!((slab.len(levels[1].unwrap()), stats.slew_pruned), (1, 2));
        // Nothing meets the cap: the least-bad candidate of the whole set
        // stays, the cheaper level's on a tie.
        let points: [&[_]; 3] = [
            &[(9.0, 1.0, 3.0)],
            &[(8.0, 2.0, 2.0), (7.0, 1.5, 4.0)],
            &[(6.0, 2.5, 2.0)],
        ];
        let mut levels = load_levels(&mut slab, &points);
        assert_eq!(prune_slew_levels(&mut slab, &mut levels, 1.0), 3);
        assert!(levels[0].is_none() && levels[2].is_none());
        let kept = slab.view(levels[1].unwrap());
        assert_eq!((kept.len(), kept.q[0]), (1, 8.0));
        assert_eq!(prune_slew_levels(&mut slab, &mut levels, f64::INFINITY), 0);
    }
}
