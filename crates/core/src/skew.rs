//! Skew-aware buffer insertion: the `(Q, C)` recursion extended with
//! per-sink **arrival windows**.
//!
//! Clock trees care about *skew* — the spread `max − min` of sink arrival
//! times — alongside (or instead of) worst-case slack. This module carries
//! a window `[lo, hi]` on every candidate: the minimum and maximum Elmore
//! delay from the candidate's node down to any sink of its subtree, under
//! the buffering decisions that candidate encodes. The recursion is
//! mechanical:
//!
//! * **sink** — `lo = hi = 0`;
//! * **wire** — the stage delay `d` every downstream sink sees is added to
//!   both ends (`lo += d`, `hi += d`), exactly the `d` subtracted from `q`;
//! * **merge** — `lo = min(lo_l, lo_r)`, `hi = max(hi_l, hi_r)`;
//! * **buffer** — the buffer stage delay `K + R·C(α)` is added to both ends.
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
//! report is conservative. This mirrors the repo's other deliberate
//! projections ([`Algorithm::LiShiPermanent`] on multi-pin nets, the slew
//! `(Q, C)`-projection).

use std::time::Instant;

use fastbuf_buflib::units::{Farads, Seconds};
use fastbuf_buflib::{BufferLibrary, BufferTypeId};
use fastbuf_rctree::delay::{DelayModel, ElmoreModel};
use fastbuf_rctree::{NodeId, NodeKind, RoutingTree, SiteConstraint, SiteVariation};

use crate::arena::{PredArena, PredEntry, PredRef};
use crate::buffering::{params, Algorithm};
use crate::hull::{prunes_middle_vals, upper_hull_cols};
use crate::solution::Placement;
use crate::stats::SolveStats;

/// A `(Q, C)` candidate carrying its subtree's sink-delay window.
///
/// `q`/`c`/`pred` play exactly the roles of [`Candidate`](crate::Candidate);
/// `lo`/`hi` are the minimum/maximum delay from this node to any sink of
/// the candidate's subtree. They are passengers: no pruning or selection
/// rule of the unbounded solve reads them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowCandidate {
    /// Required arrival time at this node (the paper's `Q`).
    pub q: f64,
    /// Downstream capacitance seen at this node (the paper's `C`).
    pub c: f64,
    /// Minimum delay from this node to any sink of the subtree.
    pub lo: f64,
    /// Maximum delay from this node to any sink of the subtree.
    pub hi: f64,
    /// Reconstruction reference.
    pub pred: PredRef,
}

impl WindowCandidate {
    /// Window width `hi − lo` — the skew this candidate commits its
    /// subtree to.
    #[inline]
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Slack when driven through resistance `r` and intrinsic delay `k`:
    /// `q − k − r·c`. Identical expression to
    /// [`Candidate::driven_q`](crate::Candidate::driven_q).
    #[inline]
    pub fn driven_q(&self, r: f64, k: f64) -> f64 {
        self.q - k - r * self.c
    }
}

/// Appends `cand` to a c-ascending list, preserving nonredundancy — the
/// window-carrying mirror of the array-of-structs oracle's
/// `push_pruned_c_order` (`crate::oracle`): identical `q`/`c` comparisons
/// in the identical order.
fn push_pruned(out: &mut Vec<WindowCandidate>, cand: WindowCandidate) {
    if let Some(top) = out.last_mut() {
        if cand.q <= top.q {
            return;
        }
        if cand.c == top.c {
            *top = cand;
            return;
        }
    }
    out.push(cand);
}

/// The wire step — the window-carrying mirror of the oracle's
/// `add_wire_model`: same early return, same in-place compaction, same
/// `q`/`c` arithmetic; the stage delay `d` additionally shifts both window
/// ends.
fn add_wire(list: &mut Vec<WindowCandidate>, model: &dyn DelayModel, r: f64, cw: f64) {
    if r == 0.0 && cw == 0.0 {
        return;
    }
    let mut write = 0usize;
    for read in 0..list.len() {
        let mut cand = list[read];
        let d = model.wire_delay(r, cw, cand.c);
        cand.q -= d;
        cand.lo += d;
        cand.hi += d;
        cand.c += cw;
        if write > 0 {
            let top = list[write - 1];
            if cand.q <= top.q {
                continue;
            }
            if cand.c == top.c {
                list[write - 1] = cand;
                continue;
            }
        }
        list[write] = cand;
        write += 1;
    }
    list.truncate(write);
}

/// The branch merge — the window-carrying mirror of the oracle's
/// `merge_branches` (two-pointer walk, tie-advance both, monotone-stack
/// prune), with merged windows `lo = min`, `hi = max`.
fn merge_branches_windowed(
    left: Vec<WindowCandidate>,
    right: Vec<WindowCandidate>,
    arena: &mut PredArena,
    track: bool,
) -> Vec<WindowCandidate> {
    if left.is_empty() {
        return right;
    }
    if right.is_empty() {
        return left;
    }
    let mut raw = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        let a = left[i];
        let b = right[j];
        let q = a.q.min(b.q);
        let c = a.c + b.c;
        let pred = if track {
            arena.push(PredEntry::Merge {
                left: a.pred,
                right: b.pred,
            })
        } else {
            PredRef::NONE
        };
        raw.push(WindowCandidate {
            q,
            c,
            lo: a.lo.min(b.lo),
            hi: a.hi.max(b.hi),
            pred,
        });
        if a.q <= b.q {
            i += 1;
        }
        if b.q <= a.q {
            j += 1;
        }
    }
    let mut out: Vec<WindowCandidate> = Vec::with_capacity(raw.len());
    for cand in raw {
        if let Some(top) = out.last() {
            if cand.q == top.q && cand.c >= top.c {
                continue;
            }
        }
        while out.last().is_some_and(|t| t.c >= cand.c) {
            out.pop();
        }
        out.push(cand);
    }
    out
}

/// The safe skew-bound prune: drops every candidate whose window width
/// already exceeds `bound` (width never shrinks upstream). If *all*
/// candidates violate the bound the narrowest one is kept so the DP stays
/// total — the root then reports `skew_ok = false` — mirroring the shape of
/// the oracle's `prune_slew`. Returns the number removed.
fn prune_width(list: &mut Vec<WindowCandidate>, bound: f64) -> usize {
    if !bound.is_finite() || list.is_empty() {
        return 0;
    }
    let before = list.len();
    if list.iter().all(|c| c.width() > bound) {
        let keep = *list
            .iter()
            .min_by(|a, b| a.width().total_cmp(&b.width()))
            .expect("list is non-empty");
        list.clear();
        list.push(keep);
    } else {
        list.retain(|c| c.width() <= bound);
    }
    before - list.len()
}

/// Scratch storage reused across `AddBuffer` invocations.
#[derive(Debug, Default)]
struct SkewScratch {
    hull: Vec<u32>,
    qs: Vec<f64>,
    cs: Vec<f64>,
    beta_slots: Vec<Option<WindowCandidate>>,
    betas: Vec<WindowCandidate>,
}

/// Builds the buffered candidate for type `id` from `alpha` — the mirror of
/// `make_beta`, with the buffer stage delay `k + r·C(α)` shifting both
/// window ends. `price` is always `0.0` here (the skew solver is unpriced);
/// subtracting it keeps the expression literally identical to the engine's.
#[allow(clippy::too_many_arguments)]
fn make_window_beta(
    alpha: &WindowCandidate,
    id: BufferTypeId,
    r: f64,
    k: f64,
    c_in: f64,
    price: f64,
    node: NodeId,
    arena: &mut PredArena,
    track: bool,
) -> WindowCandidate {
    let pred = if track {
        arena.push(PredEntry::Buffer {
            node,
            buffer: id,
            prev: alpha.pred,
        })
    } else {
        PredRef::NONE
    };
    let stage = k + r * alpha.c;
    WindowCandidate {
        q: alpha.driven_q(r, k) - price,
        c: c_in,
        lo: alpha.lo + stage,
        hi: alpha.hi + stage,
        pred,
    }
}

/// Per-type full scan — the window-carrying mirror of the oracle's
/// `find_alphas_scan` (the slew branch never fires here: the skew solver is
/// Elmore-only with no slew limit, so the oracle's `r·c + s > cap` test
/// against an infinite cap is identically false).
#[allow(clippy::too_many_arguments)]
fn find_alphas_scan(
    list: &[WindowCandidate],
    lib: &BufferLibrary,
    constraint: &SiteConstraint,
    variation: SiteVariation,
    node: NodeId,
    arena: &mut PredArena,
    track: bool,
    beta_slots: &mut [Option<WindowCandidate>],
    stats: &mut SolveStats,
) {
    for (id, _) in lib.iter() {
        if !constraint.allows(id) {
            continue;
        }
        let (r, k, c_in, max_load) = params(lib, id, variation);
        let mut best: Option<&WindowCandidate> = None;
        for cand in list {
            stats.scan_candidate_visits += 1;
            if cand.c > max_load {
                break;
            }
            if best.is_none_or(|b| cand.driven_q(r, 0.0) > b.driven_q(r, 0.0)) {
                best = Some(cand);
            }
        }
        if let Some(alpha) = best {
            beta_slots[id.index()] = Some(make_window_beta(
                alpha, id, r, k, c_in, 0.0, node, arena, track,
            ));
        }
    }
}

/// Monotone hull walk — the window-carrying mirror of `find_alphas_walk`,
/// including the exact-scan fallback for load-limited types.
#[allow(clippy::too_many_arguments)]
fn find_alphas_walk(
    list: &[WindowCandidate],
    lib: &BufferLibrary,
    constraint: &SiteConstraint,
    variation: SiteVariation,
    node: NodeId,
    arena: &mut PredArena,
    track: bool,
    hull: &[u32],
    beta_slots: &mut [Option<WindowCandidate>],
    stats: &mut SolveStats,
) {
    let mut ptr = 0usize;
    for &id in lib.by_resistance_desc() {
        if !constraint.allows(id) {
            continue;
        }
        let (r, k, c_in, max_load) = params(lib, id, variation);
        let alpha = if max_load.is_finite() {
            let mut best: Option<&WindowCandidate> = None;
            for cand in list {
                stats.scan_candidate_visits += 1;
                if cand.c > max_load {
                    break;
                }
                if best.is_none_or(|b| cand.driven_q(r, 0.0) > b.driven_q(r, 0.0)) {
                    best = Some(cand);
                }
            }
            match best {
                Some(a) => a,
                None => continue,
            }
        } else {
            while ptr + 1 < hull.len() {
                let cur = &list[hull[ptr] as usize];
                let nxt = &list[hull[ptr + 1] as usize];
                if nxt.driven_q(r, 0.0) > cur.driven_q(r, 0.0) {
                    ptr += 1;
                    stats.hull_walk_steps += 1;
                } else {
                    break;
                }
            }
            &list[hull[ptr] as usize]
        };
        beta_slots[id.index()] = Some(make_window_beta(
            alpha, id, r, k, c_in, 0.0, node, arena, track,
        ));
    }
}

/// In-place convex prune — the window-carrying mirror of the oracle's
/// `convex_prune_in_place`: the identical cross-multiplied predicate on
/// the identical `q`/`c` values.
fn convex_prune_windowed(v: &mut Vec<WindowCandidate>) -> usize {
    let before = v.len();
    let mut top = 0usize;
    for i in 0..v.len() {
        let cand = v[i];
        while top >= 2
            && prunes_middle_vals(
                v[top - 2].q,
                v[top - 2].c,
                v[top - 1].q,
                v[top - 1].c,
                cand.q,
                cand.c,
            )
        {
            top -= 1;
        }
        v[top] = cand;
        top += 1;
    }
    v.truncate(top);
    before - top
}

/// `AddBuffer` — the window-carrying mirror of the oracle's
/// `add_buffers`: same algorithm dispatch, same `by_input_cap_asc`
/// emission order, same two-pointer merge-insert with the equal-`c`
/// old-first tie.
#[allow(clippy::too_many_arguments)]
fn add_buffers_windowed(
    algo: Algorithm,
    list: &mut Vec<WindowCandidate>,
    lib: &BufferLibrary,
    constraint: &SiteConstraint,
    node: NodeId,
    variation: SiteVariation,
    arena: &mut PredArena,
    track: bool,
    scratch: &mut SkewScratch,
    stats: &mut SolveStats,
) {
    if list.is_empty() || lib.is_empty() || !constraint.is_site() {
        return;
    }
    stats.addbuffer_ops += 1;
    scratch.beta_slots.clear();
    scratch.beta_slots.resize(lib.len(), None);
    match algo {
        Algorithm::Lillis => find_alphas_scan(
            list,
            lib,
            constraint,
            variation,
            node,
            arena,
            track,
            &mut scratch.beta_slots,
            stats,
        ),
        Algorithm::LiShi => {
            scratch.qs.clear();
            scratch.cs.clear();
            for cand in list.iter() {
                scratch.qs.push(cand.q);
                scratch.cs.push(cand.c);
            }
            upper_hull_cols(&scratch.qs, &scratch.cs, &mut scratch.hull);
            stats.hull_builds += 1;
            stats.hull_input_candidates += list.len() as u64;
            find_alphas_walk(
                list,
                lib,
                constraint,
                variation,
                node,
                arena,
                track,
                &scratch.hull,
                &mut scratch.beta_slots,
                stats,
            );
        }
        Algorithm::LiShiPermanent => {
            stats.convex_pruned += convex_prune_windowed(list) as u64;
            scratch.hull.clear();
            scratch.hull.extend(0..list.len() as u32);
            find_alphas_walk(
                list,
                lib,
                constraint,
                variation,
                node,
                arena,
                track,
                &scratch.hull,
                &mut scratch.beta_slots,
                stats,
            );
        }
    }
    scratch.betas.clear();
    for &id in lib.by_input_cap_asc() {
        if let Some(beta) = scratch.beta_slots[id.index()].take() {
            push_pruned(&mut scratch.betas, beta);
        }
    }
    stats.betas_generated += scratch.betas.len() as u64;
    merge_insert_windowed(list, &scratch.betas);
}

/// Merges the c-sorted `incoming` betas into `list` — the mirror of the
/// oracle's `merge_insert`.
fn merge_insert_windowed(list: &mut Vec<WindowCandidate>, incoming: &[WindowCandidate]) {
    if incoming.is_empty() {
        return;
    }
    let old = std::mem::take(list);
    let mut out = Vec::with_capacity(old.len() + incoming.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < old.len() || j < incoming.len() {
        let take_old = match (old.get(i), incoming.get(j)) {
            (Some(a), Some(b)) => {
                if a.c < b.c {
                    true
                } else if a.c > b.c {
                    false
                } else {
                    a.q >= b.q
                }
            }
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => unreachable!(),
        };
        let cand = if take_old {
            let c = old[i];
            i += 1;
            c
        } else {
            let c = incoming[j];
            j += 1;
            c
        };
        push_pruned(&mut out, cand);
    }
    *list = out;
}

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
    /// The buffers to insert (empty when tracking was disabled).
    pub placements: Vec<Placement>,
    /// Which `AddBuffer` algorithm ran.
    pub algorithm: Algorithm,
    /// Whether placements were reconstructed.
    pub tracked: bool,
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
/// Elmore-only by construction (windows accumulate the same stage delays
/// the `q` recursion subtracts); no slew limits. The `fastbuf-api` layer
/// gates `Objective::SkewTarget` accordingly.
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
    algorithm: Algorithm,
    track_predecessors: bool,
    max_skew: Option<Seconds>,
}

impl<'a> SkewSolver<'a> {
    /// Creates a solver with the default algorithm ([`Algorithm::LiShi`]),
    /// tracking on, and no skew bound.
    pub fn new(tree: &'a RoutingTree, library: &'a BufferLibrary) -> Self {
        SkewSolver {
            tree,
            library,
            algorithm: Algorithm::LiShi,
            track_predecessors: true,
            max_skew: None,
        }
    }

    /// Selects the `AddBuffer` algorithm.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Enables or disables placement reconstruction.
    #[must_use]
    pub fn track_predecessors(mut self, track: bool) -> Self {
        self.track_predecessors = track;
        self
    }

    /// Sets the skew bound (`None` = unbounded, the bit-identical mode).
    #[must_use]
    pub fn max_skew(mut self, bound: Option<Seconds>) -> Self {
        self.max_skew = bound;
        self
    }

    /// Runs the window-carrying DP. Panics never; infeasibility under a
    /// bound is reported via [`SkewSolution::skew_ok`].
    pub fn solve(&self) -> SkewSolution {
        let start = Instant::now();
        let tree = self.tree;
        let lib = self.library;
        let track = self.track_predecessors;
        let algo = self.algorithm;
        let model: &dyn DelayModel = &ElmoreModel;
        let bound = self.max_skew.map_or(f64::INFINITY, |s| s.value());

        let mut stats = SolveStats::default();
        let mut arena = PredArena::new();
        let mut scratch = SkewScratch::default();
        let mut lists: Vec<Option<Vec<WindowCandidate>>> = vec![None; tree.node_count()];

        for &node in tree.postorder() {
            let list = match tree.kind(node) {
                NodeKind::Sink {
                    capacitance,
                    required_arrival,
                } => {
                    vec![WindowCandidate {
                        q: required_arrival.value(),
                        c: capacitance.value(),
                        lo: 0.0,
                        hi: 0.0,
                        pred: PredRef::NONE,
                    }]
                }
                NodeKind::Internal | NodeKind::Source { .. } => {
                    let mut acc: Option<Vec<WindowCandidate>> = None;
                    for &child in tree.children(node) {
                        let mut cl = lists[child.index()]
                            .take()
                            .expect("post-order guarantees children are done");
                        let wire = tree
                            .wire_to_parent(child)
                            .expect("non-root child has a wire");
                        add_wire(
                            &mut cl,
                            model,
                            wire.resistance().value(),
                            wire.capacitance().value(),
                        );
                        stats.wire_ops += 1;
                        acc = Some(match acc {
                            None => cl,
                            Some(prev) => {
                                stats.merge_ops += 1;
                                let mut merged =
                                    merge_branches_windowed(prev, cl, &mut arena, track);
                                // Width only grows at merges, so this is the
                                // one place the skew bound prunes.
                                prune_width(&mut merged, bound);
                                merged
                            }
                        });
                    }
                    let mut list = acc.expect("internal nodes have children");
                    if tree.is_buffer_site(node) {
                        add_buffers_windowed(
                            algo,
                            &mut list,
                            lib,
                            tree.site_constraint(node),
                            node,
                            tree.site_variation(node),
                            &mut arena,
                            track,
                            &mut scratch,
                            &mut stats,
                        );
                    }
                    list
                }
            };
            stats.max_list_len = stats.max_list_len.max(list.len());
            lists[node.index()] = Some(list);
        }

        let root_list = lists[tree.root().index()]
            .take()
            .expect("root processed last");
        stats.root_list_len = root_list.len();
        let driver = tree.driver();
        let (dr, dk) = (
            driver.resistance().value(),
            driver.intrinsic_delay().value(),
        );
        let (best, skew_ok) = if !bound.is_finite() {
            // Mirror of the oracle's `best_driven`: strict `>`, ties keep
            // the earlier (smaller-C) candidate.
            let mut b = &root_list[0];
            for cand in &root_list[1..] {
                if cand.driven_q(dr, dk) > b.driven_q(dr, dk) {
                    b = cand;
                }
            }
            (*b, true)
        } else {
            let mut choice: Option<&WindowCandidate> = None;
            for cand in root_list.iter().filter(|c| c.width() <= bound) {
                if choice.is_none_or(|b| cand.driven_q(dr, dk) > b.driven_q(dr, dk)) {
                    choice = Some(cand);
                }
            }
            match choice {
                Some(c) => (*c, true),
                None => (
                    *root_list
                        .iter()
                        .min_by(|a, b| a.width().total_cmp(&b.width()))
                        .expect("candidate lists are never empty"),
                    false,
                ),
            }
        };

        let placements = if track {
            arena
                .collect_placements(best.pred)
                .into_iter()
                .map(Into::into)
                .collect()
        } else {
            Vec::new()
        };
        stats.arena_entries = arena.len();
        stats.elapsed = start.elapsed();

        let driver_delay = dk + dr * best.c;
        SkewSolution {
            slack: Seconds::new(best.q - dk - dr * best.c),
            root_q: Seconds::new(best.q),
            root_load: Farads::new(best.c),
            skew: Seconds::new(best.hi - best.lo),
            latency_max: Seconds::new(driver_delay + best.hi),
            latency_min: Seconds::new(driver_delay + best.lo),
            skew_ok,
            placements,
            algorithm: algo,
            tracked: track,
            stats,
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
        // arrival(sink) = RAT(sink) − slack(sink); skew = max − min arrival.
        let arrivals: Vec<f64> = report
            .sink_slacks
            .iter()
            .map(|&(n, s)| match tree.kind(n) {
                NodeKind::Sink {
                    required_arrival, ..
                } => required_arrival.value() - s.value(),
                _ => unreachable!(),
            })
            .collect();
        let measured = arrivals.iter().cloned().fold(f64::MIN, f64::max)
            - arrivals.iter().cloned().fold(f64::MAX, f64::min);
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
    fn width_prune_keeps_narrowest_when_all_violate() {
        let mut l = vec![
            WindowCandidate {
                q: 1.0,
                c: 1.0,
                lo: 0.0,
                hi: 5.0,
                pred: PredRef::NONE,
            },
            WindowCandidate {
                q: 2.0,
                c: 2.0,
                lo: 1.0,
                hi: 4.0,
                pred: PredRef::NONE,
            },
        ];
        assert_eq!(prune_width(&mut l, 1.0), 1);
        assert_eq!(l.len(), 1);
        assert_eq!(l[0].width(), 3.0);
        // No bound: untouched.
        assert_eq!(prune_width(&mut l, f64::INFINITY), 0);
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
