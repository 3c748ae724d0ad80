//! The array-of-structs test oracle.
//!
//! [`Solver`](crate::Solver) runs one DP kernel: the struct-of-arrays
//! candidate slab. This module is a second, deliberately plain
//! implementation of the same max-slack program that the differential
//! tests compare it against bit for bit: candidates as `Vec<Candidate>`
//! ([`CandidateList`]), the branch merge as a two-pointer walk followed by
//! a monotone-stack prune, and `AddBuffer` for all three algorithms with
//! the slew scan, load limits, site constraints, variation and prices.
//! [`solve`] always starts from scratch with fresh vectors: no pool, no
//! cache, no workspace, no threads.
//!
//! It stays independent of the slab on purpose. It shares only
//! `buffering::params` (the per-type parameters with variation folded
//! in), the hull predicate `prunes_middle_vals`, the slew budgets and the
//! predecessor arena; every list operation is written out again over
//! structs. A change to a slab operation that alters a single bit
//! therefore shows up as a difference against this module, not as a
//! silent change of both sides.
//!
//! Hidden from the documentation: nothing in production calls it.

use std::time::Instant;

use fastbuf_buflib::units::{Farads, Seconds};
use fastbuf_buflib::{BufferLibrary, BufferTypeId};
use fastbuf_rctree::delay::DelayModel;
use fastbuf_rctree::{NodeId, NodeKind, RoutingTree, SiteConstraint, SiteVariation};

use crate::arena::{PredArena, PredEntry, PredRef};
use crate::buffering::{params, Algorithm};
use crate::candidate::Candidate;
use crate::engine::SolverOptions;
use crate::hull::prunes_middle_vals;
use crate::slew::SlewPolicy;
use crate::solution::Solution;
use crate::stats::SolveStats;

/// Appends `cand` to `out`, maintaining the nonredundant invariant, under
/// the precondition that `out` is nonredundant and `cand.c >= out.last().c`.
#[inline]
fn push_pruned_c_order(out: &mut Vec<Candidate>, cand: Candidate) {
    if let Some(top) = out.last_mut() {
        debug_assert!(
            cand.c >= top.c,
            "push_pruned_c_order requires c-sorted input"
        );
        if cand.q <= top.q {
            return; // dominated: no better slack at no smaller load
        }
        if cand.c == top.c {
            *top = cand; // same load, better slack
            return;
        }
    }
    out.push(cand);
}

/// A nonredundant candidate list — the paper's `N(T_v)` — sorted by
/// strictly increasing `Q` *and* strictly increasing `C` (the two orders
/// coincide for nonredundant sets).
///
/// All mutating operations preserve the invariant; `debug_assert`s verify it
/// in debug builds.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CandidateList {
    cands: Vec<Candidate>,
}

impl CandidateList {
    /// Creates an empty list.
    pub fn new() -> Self {
        CandidateList::default()
    }

    /// Creates the singleton list of a sink: `Q = RAT`, `C = c_sink`.
    pub fn sink(q: f64, c: f64, pred: PredRef) -> Self {
        CandidateList {
            cands: vec![Candidate::new(q, c, pred)],
        }
    }

    /// Builds a list from arbitrary candidates: sorts and prunes dominated
    /// entries.
    pub fn from_candidates(mut cands: Vec<Candidate>) -> Self {
        cands.sort_by(|a, b| a.c.total_cmp(&b.c).then(b.q.total_cmp(&a.q)));
        let mut out = Vec::with_capacity(cands.len());
        let mut best_q = f64::NEG_INFINITY;
        for cand in cands {
            // c ascending; within equal c the best q comes first.
            if cand.q > best_q {
                best_q = cand.q;
                push_pruned_c_order(&mut out, cand);
            }
        }
        let list = CandidateList { cands: out };
        list.debug_validate();
        list
    }

    /// Wraps a vector that is already nonredundant and sorted.
    ///
    /// Only `debug_assert`s check the precondition; use
    /// [`CandidateList::from_candidates`] for untrusted input.
    pub fn from_sorted(cands: Vec<Candidate>) -> Self {
        let list = CandidateList { cands };
        list.debug_validate();
        list
    }

    /// The candidates, sorted by increasing `Q` and `C`.
    #[inline]
    pub fn as_slice(&self) -> &[Candidate] {
        &self.cands
    }

    /// Number of candidates (the paper's `k`).
    #[inline]
    pub fn len(&self) -> usize {
        self.cands.len()
    }

    /// `true` if the list holds no candidates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.cands.is_empty()
    }

    /// Iterates over the candidates in `(Q, C)` order.
    pub fn iter(&self) -> std::slice::Iter<'_, Candidate> {
        self.cands.iter()
    }

    /// Propagates the list through a wire of resistance `r` (Ω) and
    /// capacitance `cw` (F) under the Elmore model:
    ///
    /// ```text
    /// Q ← Q − r·(cw/2 + C)        C ← C + cw        s ← s + r·(cw/2 + C)
    /// ```
    ///
    /// The shear can make a high-`C` candidate's `Q` fall below a lower-`C`
    /// candidate's (the wire penalizes big loads more), so dominated
    /// candidates are re-pruned in the same O(k) pass.
    pub fn add_wire(&mut self, r: f64, cw: f64) {
        self.add_wire_model(DelayModel::Elmore, r, cw);
    }

    /// [`CandidateList::add_wire`] under an arbitrary [`DelayModel`]: the
    /// wire delay charged against `Q` (and accumulated into `s`) is
    /// `model.wire_delay(r, cw, C)`, one candidate at a time.
    pub fn add_wire_model(&mut self, model: DelayModel, r: f64, cw: f64) {
        if r == 0.0 && cw == 0.0 {
            return;
        }
        let mut write = 0usize;
        for read in 0..self.cands.len() {
            let mut cand = self.cands[read];
            let d = model.wire_delay(r, cw, cand.c);
            cand.q -= d;
            cand.s += d;
            cand.c += cw;
            // c order is preserved, so one monotone pass restores the
            // nonredundant invariant.
            if write > 0 {
                let top = self.cands[write - 1];
                if cand.q <= top.q {
                    continue;
                }
                if cand.c == top.c {
                    self.cands[write - 1] = cand;
                    continue;
                }
            }
            self.cands[write] = cand;
            write += 1;
        }
        self.cands.truncate(write);
        self.debug_validate();
    }

    /// Removes every candidate whose stage wire delay `s` already exceeds
    /// `cap` — such a candidate violates the slew limit in *every*
    /// completion, because closing its stage with any driver only adds the
    /// non-negative `R·C` term and upstream wires only grow `s`.
    ///
    /// To keep the DP total (degenerate nets must solve, never panic), the
    /// single least-bad candidate is retained when all of them violate;
    /// the violation then surfaces at the root as `slew_ok = false`.
    /// Returns the number of candidates removed.
    pub fn prune_slew(&mut self, cap: f64) -> usize {
        if !cap.is_finite() || self.cands.is_empty() {
            return 0;
        }
        let before = self.cands.len();
        if self.cands.iter().all(|c| c.s > cap) {
            let least_bad = self
                .cands
                .iter()
                .copied()
                .min_by(|a, b| a.s.total_cmp(&b.s))
                .expect("list is non-empty");
            self.cands.clear();
            self.cands.push(least_bad);
            return before - 1;
        }
        self.cands.retain(|c| c.s <= cap);
        self.debug_validate();
        before - self.cands.len()
    }

    /// Merges `incoming` (sorted by strictly increasing `C`, e.g. the `β_i`
    /// buffered candidates of Theorem 2) into this list in
    /// O(len + incoming.len).
    pub fn merge_insert(&mut self, incoming: &[Candidate]) {
        if incoming.is_empty() {
            return;
        }
        debug_assert!(incoming.windows(2).all(|w| w[0].c < w[1].c));
        let old = std::mem::take(&mut self.cands);
        let mut out = Vec::with_capacity(old.len() + incoming.len());
        let (mut i, mut j) = (0, 0);
        while i < old.len() || j < incoming.len() {
            let take_old = match (old.get(i), incoming.get(j)) {
                (Some(a), Some(b)) => {
                    // On equal c, feed the better-q one first; the other is
                    // then dropped by push_pruned_c_order.
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
                i += 1;
                old[i - 1]
            } else {
                j += 1;
                incoming[j - 1]
            };
            push_pruned_c_order(&mut out, cand);
        }
        self.cands = out;
        self.debug_validate();
    }

    /// The candidate maximizing `Q − (k + r·C)` (slack seen by an upstream
    /// driver with resistance `r` and intrinsic delay `k`), breaking ties
    /// toward minimum `C`. `None` on an empty list.
    pub fn best_driven(&self, r: f64, k: f64) -> Option<&Candidate> {
        let mut best: Option<&Candidate> = None;
        for cand in &self.cands {
            if best.is_none_or(|b| cand.driven_q(r, k) > b.driven_q(r, k)) {
                best = Some(cand);
            }
        }
        best
    }

    /// Validates the invariant in debug builds (strictly increasing `Q` and
    /// `C`, all finite `C`, no NaN `Q`).
    #[inline]
    pub fn debug_validate(&self) {
        #[cfg(debug_assertions)]
        {
            for w in self.cands.windows(2) {
                debug_assert!(
                    w[0].q < w[1].q && w[0].c < w[1].c,
                    "nonredundant invariant violated: {:?} then {:?}",
                    w[0],
                    w[1]
                );
            }
            for c in &self.cands {
                debug_assert!(
                    !c.q.is_nan() && c.c.is_finite() && !c.s.is_nan(),
                    "bad candidate {c:?}"
                );
            }
        }
    }
}

impl<'a> IntoIterator for &'a CandidateList {
    type Item = &'a Candidate;
    type IntoIter = std::slice::Iter<'a, Candidate>;
    fn into_iter(self) -> Self::IntoIter {
        self.cands.iter()
    }
}

/// Merges two branch candidate lists at a Steiner point:
///
/// ```text
/// Q = min(Q_left, Q_right)        C = C_left + C_right        s = max(s_left, s_right)
/// ```
///
/// Only `k₁ + k₂ − 1` of the `k₁·k₂` pairs can be nonredundant: each
/// candidate is only worth pairing with the cheapest candidate of the other
/// list whose `Q` does not cap it, which a two-pointer walk emits in
/// O(k₁ + k₂) (Lillis et al. 1996). `arena` receives one
/// [`PredEntry::Merge`] per emitted pair when `track` is set; candidates
/// whose merged stage delay exceeds `slew_cap` are pruned (`∞` disables the
/// check).
pub fn merge_branches(
    left: CandidateList,
    right: CandidateList,
    arena: &mut PredArena,
    track: bool,
    slew_cap: f64,
) -> CandidateList {
    let (l, r) = (left.as_slice(), right.as_slice());
    if l.is_empty() {
        return right;
    }
    if r.is_empty() {
        return left;
    }
    let mut raw: Vec<Candidate> = Vec::with_capacity(l.len() + r.len());
    let (mut i, mut j) = (0usize, 0usize);
    // Invariant: all of l[..i] have q < r[j].q and all of r[..j] have
    // q < l[i].q, i.e. the current partner on the other side is the
    // cheapest candidate not capping the emitted one.
    while i < l.len() && j < r.len() {
        let (a, b) = (&l[i], &r[j]);
        let pred = if track {
            arena.push(PredEntry::Merge {
                left: a.pred,
                right: b.pred,
            })
        } else {
            PredRef::NONE
        };
        raw.push(Candidate::new(a.q.min(b.q), a.c + b.c, pred).with_stage_delay(a.s.max(b.s)));
        // Advance the capping side; on ties advance both (their pair was
        // just emitted; either alone would only add a dominated candidate).
        if a.q <= b.q {
            i += 1;
        }
        if b.q <= a.q {
            j += 1;
        }
    }
    // Once one side is exhausted, every remaining pair is capped at the
    // exhausted side's maximum q but costs strictly more c — dominated.

    // The raw sequence is q-nondecreasing with arbitrary c; prune with a
    // monotone stack.
    let mut out: Vec<Candidate> = Vec::with_capacity(raw.len());
    for cand in raw {
        if out.last().is_some_and(|t| cand.q == t.q && cand.c >= t.c) {
            continue; // dominated by the stack top
        }
        while out.last().is_some_and(|t| t.c >= cand.c) {
            out.pop(); // cand dominates the top (q ≥, c ≤)
        }
        out.push(cand);
    }
    let mut merged = CandidateList::from_sorted(out);
    merged.prune_slew(slew_cap);
    merged
}

/// Appends the indices of the upper-hull vertices of `list` to `hull`
/// (cleared first). Graham's scan on the pre-sorted list: O(k).
///
/// The first candidate (minimum `C`) and the last (maximum `Q`) are always
/// kept, matching the paper's `N'(T)` which anchors the hull at the
/// minimum-capacitance candidate.
pub fn upper_hull_into(list: &[Candidate], hull: &mut Vec<u32>) {
    hull.clear();
    for (i, cand) in list.iter().enumerate() {
        while hull.len() >= 2 {
            let a1 = &list[hull[hull.len() - 2] as usize];
            let a2 = &list[hull[hull.len() - 1] as usize];
            if prunes_middle_vals(a1.q, a1.c, a2.q, a2.c, cand.q, cand.c) {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push(i as u32);
    }
}

/// Convex-prunes `list` **in place**, keeping only hull candidates — the
/// paper's `Convexpruning` exactly as published (the C code frees pruned
/// candidates from the propagated list). On multi-pin nets this is lossy:
/// a pruned interior candidate can become optimal after a branch merge
/// (`docs/ALGORITHM.md` §5).
///
/// Returns the number of candidates removed.
pub fn convex_prune_in_place(list: &mut CandidateList) -> usize {
    let v = &mut list.cands;
    let before = v.len();
    let mut top = 0usize; // hull size; v[..top] is the hull so far
    for i in 0..v.len() {
        let cand = v[i];
        while top >= 2 {
            let (a1, a2) = (v[top - 2], v[top - 1]);
            if !prunes_middle_vals(a1.q, a1.c, a2.q, a2.c, cand.q, cand.c) {
                break;
            }
            top -= 1;
        }
        v[top] = cand;
        top += 1;
    }
    v.truncate(top);
    list.debug_validate();
    before - top
}

/// Runs `AddBuffer` for `algo` on `list` at `node`: finds the best
/// candidate `α_i` of every allowed type, builds `β_i`, and merges the
/// betas (in input-capacitance order, pruned among themselves) into the
/// list.
///
/// Lillis scans every type; both Li–Shi algorithms walk the hull and
/// re-scan only the types whose walked `α_i` is illegal under a load or
/// slew limit. [`Algorithm::LiShiPermanent`] convex-prunes `list` in place
/// first. `price` is charged to every `β_i` like extra intrinsic delay.
#[allow(clippy::too_many_arguments)]
pub(crate) fn add_buffers(
    algo: Algorithm,
    list: &mut CandidateList,
    lib: &BufferLibrary,
    constraint: &SiteConstraint,
    node: NodeId,
    variation: SiteVariation,
    price: f64,
    arena: &mut PredArena,
    track: bool,
    slew: &SlewPolicy,
    stats: &mut SolveStats,
) {
    if list.is_empty() || lib.is_empty() || !constraint.is_site() {
        return;
    }
    stats.addbuffer_ops += 1;
    stats.addbuffer_candidates += list.len() as u64;
    let at = BetaSite {
        lib,
        constraint,
        node,
        variation,
        price,
        track,
    };
    let mut slots: Vec<Option<Candidate>> = vec![None; lib.len()];
    if algo == Algorithm::LiShiPermanent {
        // Paper-as-written: prune the propagated list itself, then the
        // hull *is* the list.
        stats.convex_pruned += convex_prune_in_place(list) as u64;
    }
    if algo == Algorithm::Lillis {
        find_alphas_scan(list, &at, slew, arena, &mut slots, stats);
    } else {
        let mut hull = Vec::new();
        if algo == Algorithm::LiShi {
            upper_hull_into(list.as_slice(), &mut hull);
        } else {
            hull.extend(0..list.len() as u32);
        }
        stats.hull_builds += 1;
        stats.hull_input_candidates += list.len() as u64;
        find_alphas_walk(list, &hull, &at, slew, arena, &mut slots, stats);
    }
    // Emit the β_i in non-decreasing input-capacitance order (Theorem 2),
    // pruning betas dominated among themselves.
    let mut betas = Vec::new();
    for &id in lib.by_input_cap_asc() {
        if let Some(beta) = slots[id.index()] {
            push_pruned_c_order(&mut betas, beta);
        }
    }
    stats.betas_generated += betas.len() as u64;
    list.merge_insert(&betas);
}

/// The buffer site an `AddBuffer` call works at.
struct BetaSite<'a> {
    lib: &'a BufferLibrary,
    constraint: &'a SiteConstraint,
    node: NodeId,
    variation: SiteVariation,
    price: f64,
    track: bool,
}

impl BetaSite<'_> {
    /// Builds `β_i` from its best candidate `α_i`.
    fn beta(&self, alpha: &Candidate, id: BufferTypeId, arena: &mut PredArena) -> Candidate {
        let (r, k, c_in, _) = params(self.lib, id, self.variation);
        let pred = if self.track {
            arena.push(PredEntry::Buffer {
                node: self.node,
                buffer: id,
                prev: alpha.pred,
            })
        } else {
            PredRef::NONE
        };
        Candidate::new(alpha.driven_q(r, k) - self.price, c_in, pred)
    }
}

/// Lillis et al.: an independent O(k) scan per allowed buffer type, in
/// library order, honouring load limits and per-type slew budgets.
fn find_alphas_scan(
    list: &CandidateList,
    at: &BetaSite<'_>,
    slew: &SlewPolicy,
    arena: &mut PredArena,
    slots: &mut [Option<Candidate>],
    stats: &mut SolveStats,
) {
    for (id, _) in at.lib.iter() {
        if !at.constraint.allows(id) {
            continue;
        }
        let (r, _, _, max_load) = params(at.lib, id, at.variation);
        if let Some(alpha) = best_legal(list, r, max_load, slew.type_cap(id), stats) {
            slots[id.index()] = Some(at.beta(alpha, id, arena));
        }
    }
}

/// The candidate maximizing `Q − r·C` (ties to minimum `C`) among those
/// within `max_load` whose stage `r·C + s` meets `slew_cap`, counting
/// every visit.
fn best_legal<'a>(
    list: &'a CandidateList,
    r: f64,
    max_load: f64,
    slew_cap: f64,
    stats: &mut SolveStats,
) -> Option<&'a Candidate> {
    let mut best: Option<&Candidate> = None;
    for cand in list {
        stats.scan_candidate_visits += 1;
        if cand.c > max_load {
            break; // c is sorted ascending; nothing further fits
        }
        if r * cand.c + cand.s > slew_cap {
            continue; // closing this stage with B_i would violate slew
        }
        if best.is_none_or(|b| cand.driven_q(r, 0.0) > b.driven_q(r, 0.0)) {
            best = Some(cand);
        }
    }
    best
}

/// Li & Shi: one monotone walk along `hull` in non-increasing-resistance
/// order finds every unconstrained `α_i` (Lemmas 1 and 4). A legal `α_i`
/// is also the constrained argmax (Lemma 3); a type whose `α_i` breaks its
/// load limit or slew budget takes the exact scan instead, which does not
/// move the walk pointer.
fn find_alphas_walk(
    list: &CandidateList,
    hull: &[u32],
    at: &BetaSite<'_>,
    slew: &SlewPolicy,
    arena: &mut PredArena,
    slots: &mut [Option<Candidate>],
    stats: &mut SolveStats,
) {
    let cands = list.as_slice();
    let mut ptr = 0usize;
    for &id in at.lib.by_resistance_desc() {
        if !at.constraint.allows(id) {
            continue;
        }
        let (r, _, _, max_load) = params(at.lib, id, at.variation);
        while ptr + 1 < hull.len() {
            let cur = &cands[hull[ptr] as usize];
            let nxt = &cands[hull[ptr + 1] as usize];
            if nxt.driven_q(r, 0.0) > cur.driven_q(r, 0.0) {
                ptr += 1;
                stats.hull_walk_steps += 1;
            } else {
                break;
            }
        }
        let walked = &cands[hull[ptr] as usize];
        let slew_cap = slew.type_cap(id);
        let alpha = if walked.c > max_load || r * walked.c + walked.s > slew_cap {
            best_legal(list, r, max_load, slew_cap, stats)
        } else {
            Some(walked)
        };
        if let Some(alpha) = alpha {
            slots[id.index()] = Some(at.beta(alpha, id, arena));
        }
    }
}

/// Solves `tree` from scratch on plain `Vec`s, with the same options the
/// [`Solver`](crate::Solver) takes.
///
/// The operation counters of [`SolveStats`] that both implementations
/// share are filled; the slab-only ones stay zero.
pub fn solve(tree: &RoutingTree, lib: &BufferLibrary, options: &SolverOptions) -> Solution {
    let start = Instant::now();
    let track = options.track_predecessors;
    let algo = options.algorithm;
    let model = options.delay_model;
    let limit = options.slew_limit.map_or(f64::INFINITY, |s| s.value());
    let slew = SlewPolicy::new(model, lib, limit);
    let mut stats = SolveStats::default();
    let mut arena = PredArena::new();
    let mut lists: Vec<Option<CandidateList>> = vec![None; tree.node_count()];

    for &node in tree.postorder() {
        let list = match tree.kind(node) {
            NodeKind::Sink {
                capacitance,
                required_arrival,
            } => CandidateList::sink(
                required_arrival.value() * options.rat_derate,
                capacitance.value(),
                PredRef::NONE,
            ),
            NodeKind::Internal | NodeKind::Source { .. } => {
                let mut acc: Option<CandidateList> = None;
                for &child in tree.children(node) {
                    let mut cl = lists[child.index()]
                        .take()
                        .expect("children precede their parent in postorder");
                    let wire = tree
                        .wire_to_parent(child)
                        .expect("non-root child has a wire");
                    cl.add_wire_model(model, wire.resistance().value(), wire.capacitance().value());
                    if slew.active() {
                        stats.slew_pruned += cl.prune_slew(slew.cap) as u64;
                    }
                    stats.wire_ops += 1;
                    acc = Some(match acc {
                        None => cl,
                        Some(prev) => {
                            stats.merge_ops += 1;
                            merge_branches(prev, cl, &mut arena, track, slew.cap)
                        }
                    });
                }
                let mut list = acc.expect("internal nodes have children");
                if tree.is_buffer_site(node) {
                    let price = options
                        .site_prices
                        .as_deref()
                        .and_then(|p| p.get(node.index()).copied())
                        .unwrap_or(0.0);
                    add_buffers(
                        algo,
                        &mut list,
                        lib,
                        tree.site_constraint(node),
                        node,
                        tree.site_variation(node),
                        price,
                        &mut arena,
                        track,
                        &slew,
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
        .expect("the root is solved last");
    stats.root_list_len = root_list.len();
    let driver = tree.driver();
    let (dr, dk) = (
        driver.resistance().value(),
        driver.intrinsic_delay().value(),
    );
    // With an active slew limit the driver closes the final stage, so
    // only candidates it can drive legally are eligible; if none is, fall
    // back to the least-bad candidate and report `slew_ok = false`.
    let (best, slew_ok) = if !slew.active() {
        (
            *root_list
                .best_driven(dr, dk)
                .expect("candidate lists are never empty"),
            true,
        )
    } else {
        let mut choice: Option<&Candidate> = None;
        for cand in root_list.iter().filter(|c| dr * c.c + c.s <= slew.cap) {
            if choice.is_none_or(|b| cand.driven_q(dr, dk) > b.driven_q(dr, dk)) {
                choice = Some(cand);
            }
        }
        match choice {
            Some(c) => (*c, true),
            None => (
                *root_list
                    .iter()
                    .min_by(|a, b| (dr * a.c + a.s).total_cmp(&(dr * b.c + b.s)))
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

    Solution {
        slack: Seconds::new(best.q - dk - dr * best.c),
        root_q: Seconds::new(best.q),
        root_load: Farads::new(best.c),
        placements,
        algorithm: algo,
        tracked: track,
        root_slew: Seconds::new(model.slew(0.0, dr, best.c, best.s)),
        slew_ok,
        model,
        rat_derate: options.rat_derate,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbuf_buflib::units::Ohms;
    use fastbuf_buflib::BufferType;

    fn cand(q: f64, c: f64) -> Candidate {
        Candidate::new(q, c, PredRef::NONE)
    }

    fn list(points: &[(f64, f64)]) -> CandidateList {
        CandidateList::from_candidates(points.iter().map(|&(q, c)| cand(q, c)).collect())
    }

    /// A deterministic pseudo-random source in `[0, 1)`.
    fn rng(mut state: u64) -> impl FnMut() -> f64 {
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        }
    }

    /// A random staircase of `n` points with strictly increasing `q`/`c`.
    fn staircase(rnd: &mut impl FnMut() -> f64, n: usize) -> Vec<(f64, f64)> {
        let (mut q, mut c) = (0.0, 0.0);
        (0..n)
            .map(|_| {
                q += rnd() + 0.001;
                c += rnd() + 0.001;
                (q, c)
            })
            .collect()
    }

    // --- candidate lists ---

    #[test]
    fn from_candidates_prunes_dominated() {
        let list = CandidateList::from_candidates(vec![
            cand(5.0, 3.0),
            cand(1.0, 1.0),
            cand(0.5, 2.0), // dominated by (1, 1)
            cand(6.0, 3.0), // dominates (5, 3)
            cand(2.0, 2.0),
        ]);
        let qs: Vec<f64> = list.iter().map(|c| c.q).collect();
        let cs: Vec<f64> = list.iter().map(|c| c.c).collect();
        assert_eq!(qs, vec![1.0, 2.0, 6.0]);
        assert_eq!(cs, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_candidates_handles_duplicates() {
        let list = CandidateList::from_candidates(vec![cand(1.0, 1.0), cand(1.0, 1.0)]);
        assert_eq!(list.len(), 1);
    }

    #[test]
    fn sink_singleton() {
        let l = CandidateList::sink(1e-10, 5e-15, PredRef::NONE);
        assert_eq!(l.len(), 1);
        assert_eq!(l.as_slice()[0].q, 1e-10);
    }

    #[test]
    fn add_wire_shears_and_shifts() {
        let mut l = list(&[(10.0, 1.0), (20.0, 2.0)]);
        // r=1, cw=4: q -= 1*(2 + c); c += 4; s += the same wire delay.
        l.add_wire(1.0, 4.0);
        let got: Vec<(f64, f64)> = l.iter().map(|c| (c.q, c.c)).collect();
        assert_eq!(got, vec![(7.0, 5.0), (16.0, 6.0)]);
        let slews: Vec<f64> = l.iter().map(|c| c.s).collect();
        assert_eq!(slews, vec![3.0, 4.0]);
    }

    #[test]
    fn add_wire_accumulates_stage_delay() {
        let mut l = list(&[(10.0, 1.0)]);
        l.add_wire(1.0, 2.0); // d = 1*(1 + 1) = 2
        l.add_wire(2.0, 0.0); // d = 2*(0 + 3) = 6
        assert_eq!(l.as_slice()[0].s, 8.0);
        assert_eq!(l.as_slice()[0].q, 10.0 - 8.0);
    }

    #[test]
    fn add_wire_reprunes_reordered_candidates() {
        // High resistance punishes the big-C candidate below the small one.
        let mut l = list(&[(10.0, 1.0), (11.0, 10.0)]);
        l.add_wire(1.0, 0.0); // q1 = 10-1 = 9; q2 = 11-10 = 1 -> dominated
        assert_eq!(l.len(), 1);
        assert_eq!(l.as_slice()[0].q, 9.0);
    }

    #[test]
    fn add_wire_zero_is_noop() {
        let mut l = list(&[(1.0, 1.0)]);
        let before = l.clone();
        l.add_wire(0.0, 0.0);
        assert_eq!(l, before);
    }

    #[test]
    fn prune_slew_drops_violators_and_keeps_least_bad() {
        let mk = || {
            CandidateList::from_sorted(vec![
                cand(1.0, 1.0).with_stage_delay(5.0),
                cand(2.0, 2.0).with_stage_delay(1.0),
                cand(3.0, 3.0).with_stage_delay(9.0),
            ])
        };
        // cap = 2: only the middle candidate survives.
        let mut l = mk();
        assert_eq!(l.prune_slew(2.0), 2);
        assert_eq!(l.as_slice(), &[cand(2.0, 2.0).with_stage_delay(1.0)]);
        // cap = 0.5: all violate -> keep the minimum-s candidate.
        let mut l = mk();
        assert_eq!(l.prune_slew(0.5), 2);
        assert_eq!(l.as_slice(), &[cand(2.0, 2.0).with_stage_delay(1.0)]);
        // infinite cap: no-op.
        let mut l = mk();
        assert_eq!(l.prune_slew(f64::INFINITY), 0);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn merge_insert_interleaves_and_prunes() {
        let mut l = list(&[(1.0, 1.0), (5.0, 5.0)]);
        l.merge_insert(&[cand(3.0, 2.0), cand(4.0, 6.0)]); // second is dominated by (5,5)
        let got: Vec<(f64, f64)> = l.iter().map(|c| (c.q, c.c)).collect();
        assert_eq!(got, vec![(1.0, 1.0), (3.0, 2.0), (5.0, 5.0)]);
    }

    #[test]
    fn merge_insert_equal_c_keeps_better_q() {
        let mut l = list(&[(2.0, 2.0)]);
        l.merge_insert(&[cand(3.0, 2.0)]);
        assert_eq!(l.as_slice(), &[cand(3.0, 2.0)]);

        let mut l = list(&[(3.0, 2.0)]);
        l.merge_insert(&[cand(2.0, 2.0)]);
        assert_eq!(l.as_slice(), &[cand(3.0, 2.0)]);
    }

    #[test]
    fn merge_insert_dominating_beta_sweeps_list() {
        let mut l = list(&[(1.0, 2.0), (2.0, 3.0), (3.0, 4.0)]);
        l.merge_insert(&[cand(10.0, 1.0)]); // dominates everything
        assert_eq!(l.as_slice(), &[cand(10.0, 1.0)]);
    }

    #[test]
    fn merge_insert_empty_incoming() {
        let mut l = list(&[(1.0, 1.0)]);
        let before = l.clone();
        l.merge_insert(&[]);
        assert_eq!(l, before);
    }

    #[test]
    fn best_driven_maximizes_q_minus_rc() {
        let l = list(&[(1.0, 1.0), (4.0, 2.0), (6.0, 5.0)]);
        // r = 1: values 0, 2, 1 -> (4,2).
        let b = l.best_driven(1.0, 0.0).unwrap();
        assert_eq!((b.q, b.c), (4.0, 2.0));
        // r = 0: values 1, 4, 6 -> (6,5).
        let b = l.best_driven(0.0, 0.0).unwrap();
        assert_eq!((b.q, b.c), (6.0, 5.0));
        // Intrinsic delay shifts all values equally: same argmax.
        let b = l.best_driven(1.0, 100.0).unwrap();
        assert_eq!((b.q, b.c), (4.0, 2.0));
        // Slope exactly 1 between two candidates: the tie goes to min C.
        let tied = list(&[(1.0, 1.0), (2.0, 2.0)]);
        let b = tied.best_driven(1.0, 0.0).unwrap();
        assert_eq!((b.q, b.c), (1.0, 1.0));
        assert!(CandidateList::new().best_driven(1.0, 0.0).is_none());
    }

    #[test]
    fn push_pruned_c_order_cases() {
        let mut v = vec![cand(1.0, 1.0)];
        // dominated: same c, worse q
        push_pruned_c_order(&mut v, cand(0.5, 1.0));
        assert_eq!(v.len(), 1);
        // replacement: same c, better q
        push_pruned_c_order(&mut v, cand(2.0, 1.0));
        assert_eq!(v, vec![cand(2.0, 1.0)]);
        // dominated: larger c, worse-or-equal q
        push_pruned_c_order(&mut v, cand(2.0, 3.0));
        assert_eq!(v.len(), 1);
        // extends
        push_pruned_c_order(&mut v, cand(3.0, 3.0));
        assert_eq!(v.len(), 2);
    }

    // --- branch merge ---

    fn merged(lp: &[(f64, f64)], rp: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let mut arena = PredArena::new();
        merge_branches(list(lp), list(rp), &mut arena, false, f64::INFINITY)
            .iter()
            .map(|c| (c.q, c.c))
            .collect()
    }

    /// All pairs, then prune dominated.
    fn brute(lp: &[(f64, f64)], rp: &[(f64, f64)]) -> Vec<(f64, f64)> {
        let mut all = Vec::new();
        for &(ql, cl) in lp {
            for &(qr, cr) in rp {
                all.push(cand(ql.min(qr), cl + cr));
            }
        }
        CandidateList::from_candidates(all)
            .iter()
            .map(|c| (c.q, c.c))
            .collect()
    }

    #[test]
    fn merge_matches_bruteforce() {
        assert_eq!(merged(&[(5.0, 1.0)], &[(3.0, 2.0)]), vec![(3.0, 3.0)]);
        type Points = &'static [(f64, f64)];
        let cases: [(Points, Points); 2] = [
            (
                &[(1.0, 1.0), (5.0, 3.0), (9.0, 7.0)],
                &[(2.0, 2.0), (6.0, 4.0)],
            ),
            // Equal-q ties across the sides.
            (
                &[(1.0, 1.0), (3.0, 2.0), (5.0, 4.0)],
                &[(3.0, 1.5), (5.0, 3.0)],
            ),
        ];
        for (lp, rp) in cases {
            assert_eq!(merged(lp, rp), brute(lp, rp));
            assert_eq!(merged(lp, rp), merged(rp, lp), "commutative");
        }
        let mut rnd = rng(0xDEADBEEF);
        for _ in 0..50 {
            let n = 1 + (rnd() * 6.0) as usize;
            let lp = staircase(&mut rnd, n);
            let n = 1 + (rnd() * 6.0) as usize;
            let rp = staircase(&mut rnd, n);
            assert_eq!(merged(&lp, &rp), brute(&lp, &rp), "L={lp:?} R={rp:?}");
        }
    }

    #[test]
    fn empty_side_passthrough() {
        let mut arena = PredArena::new();
        let l = list(&[(1.0, 1.0)]);
        let out = merge_branches(l.clone(), CandidateList::new(), &mut arena, false, 0.0);
        assert_eq!(out, l);
        let out = merge_branches(CandidateList::new(), l.clone(), &mut arena, false, 0.0);
        assert_eq!(out, l);
    }

    #[test]
    fn merged_stage_delay_is_the_worse_side_and_meets_the_cap() {
        let mut arena = PredArena::new();
        let l = CandidateList::from_sorted(vec![cand(1.0, 1.0).with_stage_delay(3.0)]);
        let r = CandidateList::from_sorted(vec![cand(2.0, 2.0).with_stage_delay(7.0)]);
        let out = merge_branches(l, r, &mut arena, false, f64::INFINITY);
        assert_eq!(out.as_slice(), &[cand(1.0, 3.0).with_stage_delay(7.0)]);

        let l = CandidateList::from_sorted(vec![
            cand(1.0, 1.0).with_stage_delay(0.5),
            cand(5.0, 3.0).with_stage_delay(9.0), // will violate after merge
        ]);
        let r = CandidateList::from_sorted(vec![cand(2.0, 2.0).with_stage_delay(1.0)]);
        let out = merge_branches(l, r, &mut arena, false, 2.0);
        // Pairs: (1, 3, s=1) kept; (2, 5, s=9) pruned by the cap.
        assert_eq!(out.as_slice(), &[cand(1.0, 3.0).with_stage_delay(1.0)]);
    }

    #[test]
    fn merge_records_predecessors_only_when_tracking() {
        let mut arena = PredArena::new();
        let _ = merge_branches(
            list(&[(1.0, 1.0), (5.0, 3.0)]),
            list(&[(2.0, 2.0), (6.0, 4.0)]),
            &mut arena,
            false,
            f64::INFINITY,
        );
        assert!(arena.is_empty());
        let out = merge_branches(
            list(&[(1.0, 1.0), (5.0, 3.0)]),
            list(&[(2.0, 2.0)]),
            &mut arena,
            true,
            f64::INFINITY,
        );
        for c in out.iter() {
            assert!(matches!(arena.get(c.pred), Some(PredEntry::Merge { .. })));
        }
    }

    // --- convex pruning ---

    #[test]
    fn convex_prune_keeps_exactly_the_upper_hull() {
        // (4.9, 1) lies below the chord (0,0)-(10,2); (5.1, 1) above it;
        // (5, 1) on it (collinear points are pruned).
        for (mid, removed) in [(4.9, 1), (5.1, 0), (5.0, 1)] {
            let mut l = list(&[(0.0, 0.0), (mid, 1.0), (10.0, 2.0)]);
            assert_eq!(convex_prune_in_place(&mut l), removed, "mid {mid}");
            assert_eq!(l.len(), 3 - removed);
        }
        let mut l = list(&[(0.0, 0.0), (3.0, 1.0), (5.0, 2.0), (9.0, 3.0), (10.0, 5.0)]);
        convex_prune_in_place(&mut l);
        let pts: Vec<(f64, f64)> = l.iter().map(|c| (c.q, c.c)).collect();
        for w in pts.windows(3) {
            let s1 = (w[1].0 - w[0].0) / (w[1].1 - w[0].1);
            let s2 = (w[2].0 - w[1].0) / (w[2].1 - w[1].1);
            assert!(s1 > s2, "slopes must strictly decrease: {pts:?}");
        }
        // Extremes always survive; short lists are untouched.
        assert_eq!(pts.first().unwrap().1, 0.0);
        assert_eq!(pts.last().unwrap().0, 10.0);
        for pts in [&[][..], &[(1.0, 1.0)], &[(1.0, 1.0), (2.0, 2.0)]] {
            assert_eq!(convex_prune_in_place(&mut list(pts)), 0);
        }
    }

    /// The hull indices name exactly the candidates the in-place prune
    /// keeps, and for every linear objective `q − r·c` the hull holds the
    /// argmax of the full list (Lemma 3).
    #[test]
    fn upper_hull_matches_in_place_and_keeps_every_optimum() {
        let pts = staircase(&mut rng(0x12345678), 60);
        let l = list(&pts);
        let mut hull = vec![99u32]; // stale content must be cleared
        upper_hull_into(l.as_slice(), &mut hull);
        let mut pruned = l.clone();
        convex_prune_in_place(&mut pruned);
        let via_indices: Vec<Candidate> = hull.iter().map(|&i| l.as_slice()[i as usize]).collect();
        assert_eq!(via_indices, pruned.as_slice());
        for r_tenth in 0..50 {
            let r = r_tenth as f64 * 0.1;
            let best = l.best_driven(r, 0.0).unwrap();
            assert!(
                pruned.iter().any(|c| c == best),
                "r={r}: best candidate {best:?} was pruned"
            );
        }
    }

    // --- AddBuffer ---

    fn lib(buffers: &[(f64, f64, f64)]) -> BufferLibrary {
        BufferLibrary::new(
            buffers
                .iter()
                .enumerate()
                .map(|(i, &(r, c, k))| {
                    BufferType::new(
                        format!("b{i}"),
                        Ohms::new(r),
                        Farads::new(c),
                        Seconds::new(k),
                    )
                })
                .collect(),
        )
        .unwrap()
    }

    fn run_with(
        algo: Algorithm,
        l: &CandidateList,
        library: &BufferLibrary,
        constraint: &SiteConstraint,
        slew: &SlewPolicy,
    ) -> (CandidateList, SolveStats) {
        let mut out = l.clone();
        let mut stats = SolveStats::default();
        add_buffers(
            algo,
            &mut out,
            library,
            constraint,
            NodeId::new(0),
            SiteVariation::NOMINAL,
            0.0,
            &mut PredArena::new(),
            false,
            slew,
            &mut stats,
        );
        (out, stats)
    }

    fn run(algo: Algorithm, l: &CandidateList, library: &BufferLibrary) -> CandidateList {
        let any = SiteConstraint::AnyBuffer;
        run_with(algo, l, library, &any, &SlewPolicy::unlimited()).0
    }

    /// The three strategies agree on the final list whenever no merge
    /// follows (single AddBuffer call).
    #[test]
    fn strategies_agree_on_single_position() {
        let l = list(&[
            (1.0, 0.5),
            (2.0, 1.0),
            (2.5, 2.0), // interior
            (4.0, 3.0),
            (4.2, 5.0), // interior
            (6.0, 8.0),
        ]);
        let library = lib(&[(3.0, 0.1, 0.0), (1.0, 0.4, 0.1), (0.5, 0.9, 0.2)]);
        let a = run(Algorithm::Lillis, &l, &library);
        let b = run(Algorithm::LiShi, &l, &library);
        // Lillis and LiShi keep the full unbuffered set -> identical lists.
        assert_eq!(a, b);
        // The permanent variant loses interior unbuffered candidates but
        // must produce the same betas.
        let c = run(Algorithm::LiShiPermanent, &l, &library);
        for beta in c.iter() {
            assert!(
                a.iter().any(|x| x.q == beta.q && x.c == beta.c),
                "beta {beta:?} missing from exact list"
            );
        }
    }

    #[test]
    fn beta_values_hand_computed() {
        // One buffer: R=2, C_in=0.25, K=0.5.
        let l = list(&[(1.0, 1.0), (4.0, 2.0), (5.0, 4.0)]);
        let library = lib(&[(2.0, 0.25, 0.5)]);
        // Q - R*C: -1, 0, -3 -> alpha = (4,2). beta q = 4 - 0.5 - 2*2 = -0.5.
        let out = run(Algorithm::LiShi, &l, &library);
        assert!(
            out.iter().any(|c| c.q == -0.5 && c.c == 0.25),
            "expected beta in {out:?}"
        );
    }

    #[test]
    fn walk_and_scan_agree_on_random_lists() {
        let mut rnd = rng(7);
        for round in 0..100 {
            let n = 1 + (rnd() * 20.0) as usize;
            let pts = staircase(&mut rnd, n);
            let l = list(&pts);
            let nb = 1 + (rnd() * 6.0) as usize;
            let bufs: Vec<(f64, f64, f64)> = (0..nb)
                .map(|_| (0.1 + rnd() * 5.0, 0.01 + rnd(), rnd()))
                .collect();
            let library = lib(&bufs);
            let a = run(Algorithm::Lillis, &l, &library);
            let b = run(Algorithm::LiShi, &l, &library);
            assert_eq!(a, b, "round {round}: lists diverge\nL={pts:?}\nB={bufs:?}");
        }
    }

    #[test]
    fn respects_site_constraints() {
        use fastbuf_buflib::BufferSet;
        use std::sync::Arc;
        let l = list(&[(1.0, 1.0), (4.0, 2.0)]);
        let library = lib(&[(2.0, 0.25, 0.0), (1.0, 0.3, 0.0)]);
        let mut only1 = BufferSet::empty(2);
        only1.insert(BufferTypeId::new(1));
        let subset = SiteConstraint::Subset(Arc::new(only1));
        let (out, stats) = run_with(
            Algorithm::LiShi,
            &l,
            &library,
            &subset,
            &SlewPolicy::unlimited(),
        );
        // Only one beta may appear (c = 0.3); type 0's c_in 0.25 must not.
        assert!(out.iter().all(|c| c.c != 0.25));
        assert_eq!(stats.betas_generated, 1);

        let (out, stats) = run_with(
            Algorithm::LiShi,
            &l,
            &library,
            &SiteConstraint::NotASite,
            &SlewPolicy::unlimited(),
        );
        assert_eq!(out, l);
        assert_eq!(stats.addbuffer_ops, 0);
    }

    #[test]
    fn max_load_limits_alpha_choice() {
        let limited = |r: f64| {
            BufferLibrary::new(vec![BufferType::new(
                "b0",
                Ohms::new(r),
                Farads::new(0.2),
                Seconds::new(0.0),
            )
            .with_max_load(Farads::new(5.0))])
            .unwrap()
        };
        // Unconstrained alpha would be (10, 100); with max_load 5 only
        // (1,1) and (4,3) qualify.
        let l = list(&[(1.0, 1.0), (4.0, 3.0), (10.0, 100.0)]);
        for algo in Algorithm::ALL {
            let out = run(algo, &l, &limited(0.001));
            // alpha = (4,3): beta q = 4 - 0.001*3 = 3.997.
            assert!(
                out.iter().any(|c| (c.q - 3.997).abs() < 1e-12),
                "{algo}: {out:?}"
            );
            assert!(
                out.iter().all(|c| (c.q - 9.9).abs() > 1e-3),
                "{algo} must not use the over-limit candidate: {out:?}"
            );
        }
        // No candidate within the limit: no beta at all.
        let l = list(&[(10.0, 100.0)]);
        assert_eq!(run(Algorithm::LiShi, &l, &limited(1.0)), l);
    }

    /// With an active slew budget, a type only closes stages it can drive
    /// legally: infeasible alphas are skipped, and a type with no feasible
    /// alpha emits no beta.
    #[test]
    fn slew_budget_filters_alphas_per_type() {
        use fastbuf_rctree::delay::LN9;
        // Two candidates; the better one (for any r) carries a large stage
        // delay.
        let l = CandidateList::from_sorted(vec![
            cand(1.0, 1.0).with_stage_delay(0.0),
            cand(10.0, 2.0).with_stage_delay(5.0),
        ]);
        // One buffer: R = 1, C_in = 0.5, K = 0.
        let library = lib(&[(1.0, 0.5, 0.0)]);
        // Budget r*c + s <= 4: only (1,1,s=0) qualifies (1*2+5 = 7 > 4).
        let slew = SlewPolicy::new(DelayModel::Elmore, &library, 4.0 * LN9);
        assert!((slew.cap - 4.0).abs() < 1e-12);
        let any = SiteConstraint::AnyBuffer;
        for algo in Algorithm::ALL {
            let (out, _) = run_with(algo, &l, &library, &any, &slew);
            // Beta from alpha (1,1): q = 1 - 1*1 = 0, c = 0.5 — not from
            // the infeasible (10,2).
            assert!(
                out.iter().any(|c| c.c == 0.5 && c.q == 0.0),
                "{algo}: {out:?}"
            );
            assert!(
                out.iter().all(|c| c.c != 0.5 || c.q == 0.0),
                "{algo} used the slew-infeasible alpha: {out:?}"
            );
        }
        // A budget nothing satisfies emits no betas at all.
        let strict = SlewPolicy::new(DelayModel::Elmore, &library, 0.0);
        let (out, stats) = run_with(Algorithm::LiShi, &l, &library, &any, &strict);
        assert_eq!(out, l);
        assert_eq!(stats.betas_generated, 0);
    }

    #[test]
    fn lillis_visits_k_times_b_and_lishi_does_not() {
        // Strictly concave staircase: all points on the hull.
        let points: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let x = i as f64;
                (100.0 * x - 0.4 * x * x, x + 1.0)
            })
            .collect();
        let l = list(&points);
        assert_eq!(l.len(), 100);
        let library = lib(&[
            (80.0, 0.1, 0.0),
            (40.0, 0.2, 0.0),
            (20.0, 0.3, 0.0),
            (10.0, 0.4, 0.0),
        ]);
        let any = SiteConstraint::AnyBuffer;
        let unlimited = SlewPolicy::unlimited();
        let (_, lillis) = run_with(Algorithm::Lillis, &l, &library, &any, &unlimited);
        let (_, lishi) = run_with(Algorithm::LiShi, &l, &library, &any, &unlimited);
        assert_eq!(lillis.scan_candidate_visits, 400); // k*b
        assert_eq!(lishi.scan_candidate_visits, 0);
        // Hull walk is bounded by k + b, not k*b.
        assert!(lishi.hull_walk_steps <= 100 + 4);
        assert_eq!(lishi.hull_input_candidates, 100);
    }

    /// Lemma 1 of the paper: with buffers sorted by non-increasing
    /// resistance, the best candidates' capacitances are non-decreasing.
    #[test]
    fn lemma1_best_candidates_monotone_in_c() {
        let mut rnd = rng(99);
        for _ in 0..50 {
            let n = 2 + (rnd() * 30.0) as usize;
            let l = list(&staircase(&mut rnd, n));
            let bufs: Vec<(f64, f64, f64)> =
                (0..6).map(|_| (0.05 + rnd() * 8.0, 0.1, 0.0)).collect();
            let library = lib(&bufs);
            let mut last_c = f64::NEG_INFINITY;
            for &id in library.by_resistance_desc() {
                let r = library.get(id).driving_resistance().value();
                let best = l.best_driven(r, 0.0).unwrap();
                assert!(
                    best.c >= last_c,
                    "Lemma 1 violated: C decreased from {last_c} to {}",
                    best.c
                );
                last_c = best.c;
            }
        }
    }
}
