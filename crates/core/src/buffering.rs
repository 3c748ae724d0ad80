//! The `AddBuffer` operation — where the three algorithms differ.
//!
//! At a buffer position `v` the DP may insert any allowed buffer type
//! `B_i`, producing for each type one new candidate
//!
//! ```text
//! β_i = ( Q(α_i) − K(B_i) − R(B_i)·C(α_i),   C(B_i) )
//! ```
//!
//! where `α_i` is the *best candidate* for `B_i`: the one maximizing
//! `Q − R(B_i)·C` (ties to minimum `C`). The unbuffered candidates survive
//! alongside the `β_i`.
//!
//! | strategy | find all `α_i` | total per position |
//! |---|---|---|
//! | [`Algorithm::Lillis`] | one O(k) scan per type | O(k·b) |
//! | [`Algorithm::LiShi`] | Graham scan + monotone hull walk | O(k + b) |
//! | [`Algorithm::LiShiPermanent`] | same, but the hull *replaces* the list | O(k + b) |
//!
//! All strategies then emit the `β_i` in precomputed input-capacitance order
//! and merge them into the list in O(k + b) (Theorem 2 of the paper).

use fastbuf_buflib::{BufferLibrary, BufferTypeId};
use fastbuf_rctree::{NodeId, SiteConstraint, SiteVariation};

use crate::arena::{PredArena, PredEntry, PredRef};
use crate::candidate::{push_pruned_c_order, Candidate, CandidateList};
use crate::hull::{convex_prune_in_place, upper_hull_cols, upper_hull_into};
use crate::pool::CandidatePool;
use crate::slab::{BetaStage, CandidateSlab, SlabList, SlabView};
use crate::slew::SlewPolicy;
use crate::stats::SolveStats;

/// Which buffer-insertion algorithm the [`Solver`](crate::Solver) runs.
///
/// All three produce the same optimal slack except
/// [`Algorithm::LiShiPermanent`], which reproduces the paper's published
/// pseudo-code verbatim and can be (slightly) sub-optimal on multi-pin nets
/// — see `DESIGN.md` §2.1 and the `convex_permanent_gap` integration test.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Lillis, Cheng & Lin (TCAS 1996): scan every candidate for every
    /// buffer type; O(b²n²) overall. The baseline the paper compares
    /// against, and the algorithm van Ginneken's original reduces to when
    /// `b = 1`.
    Lillis,
    /// Li & Shi (DATE 2005): convex-hull `AddBuffer` in O(k + b), O(bn²)
    /// overall. The hull is computed in scratch space; the propagated list
    /// keeps all nonredundant candidates, so optimality is preserved on
    /// every topology.
    #[default]
    LiShi,
    /// Li & Shi exactly as published: convex pruning permanently removes
    /// interior candidates from the propagated list (the C code frees
    /// them). Fastest, provably exact on 2-pin nets, heuristic on
    /// multi-pin nets.
    LiShiPermanent,
}

impl Algorithm {
    /// All implemented algorithms, for parametrized tests and benches.
    pub const ALL: [Algorithm; 3] = [
        Algorithm::Lillis,
        Algorithm::LiShi,
        Algorithm::LiShiPermanent,
    ];

    /// `true` for the algorithms guaranteed to return the optimal slack on
    /// every routing tree.
    pub fn is_exact(self) -> bool {
        !matches!(self, Algorithm::LiShiPermanent)
    }

    /// Short stable name (used by benches and the CLI).
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Lillis => "lillis",
            Algorithm::LiShi => "lishi",
            Algorithm::LiShiPermanent => "lishi-permanent",
        }
    }
}

impl std::str::FromStr for Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "lillis" => Ok(Algorithm::Lillis),
            "lishi" => Ok(Algorithm::LiShi),
            "lishi-permanent" => Ok(Algorithm::LiShiPermanent),
            other => Err(format!(
                "unknown algorithm `{other}` (expected lillis, lishi, or lishi-permanent)"
            )),
        }
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reusable scratch buffers so `AddBuffer` performs no per-node allocation
/// after warm-up.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    hull: Vec<u32>,
    /// Best buffered candidate per library type index, or `None`.
    pub(crate) beta_slots: Vec<Option<Candidate>>,
    betas: Vec<Candidate>,
    /// Column staging for the betas of the slab-kernel callers.
    pub(crate) stage: BetaStage,
    /// Freelist of candidate vectors shared by every list-producing DP
    /// operation of the owning solve (and, through
    /// [`SolveWorkspace`](crate::SolveWorkspace), across solves).
    pub(crate) pool: CandidatePool,
}

/// Per-buffer-type parameters hoisted out of the walk loops, with the
/// node's local process variation already folded in: `r` is scaled by
/// `drive_scale`, `k` by `delay_scale` (input capacitance and load limit
/// are unaffected by variation). The nominal `×1.0` is bit-exact, so a
/// variation-free solve computes the historical values exactly.
///
/// Both scales apply uniformly across the library at one node, so the
/// `by_resistance_desc` order the hull walk's Lemma 1 relies on is the
/// same ordering after scaling.
#[inline]
pub(crate) fn params(
    lib: &BufferLibrary,
    id: BufferTypeId,
    variation: SiteVariation,
) -> (f64, f64, f64, f64) {
    let b = lib.get(id);
    (
        b.driving_resistance().value() * variation.drive_scale(),
        b.intrinsic_delay().value() * variation.delay_scale(),
        b.input_capacitance().value(),
        b.max_load().map_or(f64::INFINITY, |m| m.value()),
    )
}

/// Runs the `AddBuffer` operation for `algo` on `list` at `node`.
///
/// `price` is the node's usage price in seconds (zero when unpriced): every
/// buffered candidate `β_i` pays it as extra intrinsic delay, which keeps
/// the priced subproblem exact — the α selection maximizes `Q − R·C` and a
/// constant subtraction from every `β_i` at one node changes neither the
/// argmax nor the hull-walk order (Lemmas 1/4). Subtracting `0.0` is
/// bit-exact, so unpriced solves reproduce the historical values.
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
    scratch: &mut Scratch,
    slew: &SlewPolicy,
    stats: &mut SolveStats,
) {
    if !find_betas(
        algo, list, lib, constraint, node, variation, price, arena, track, scratch, slew, stats,
    ) {
        return;
    }
    // Emit the β_i in non-decreasing input-capacitance order (precomputed
    // on the library — Theorem 2), pruning betas dominated among themselves.
    scratch.betas.clear();
    for &id in lib.by_input_cap_asc() {
        if let Some(beta) = scratch.beta_slots[id.index()].take() {
            push_pruned_c_order(&mut scratch.betas, beta);
        }
    }
    stats.betas_generated += scratch.betas.len() as u64;
    let Scratch { betas, pool, .. } = scratch;
    list.merge_insert_pooled(betas, pool);
}

/// Computes the best buffered candidate `β_i` for every allowed type into
/// `scratch.beta_slots`, without inserting them. Returns `false` when the
/// operation is a no-op (empty list / library / not a site).
///
/// [`Algorithm::LiShiPermanent`] additionally convex-prunes `list` in place,
/// exactly as the paper's published `AddBuffer` does.
///
/// With an active slew constraint every algorithm takes the exact per-type
/// scan: the feasibility predicate `R·C + s ≤ budget` is not monotone along
/// the list (like a load limit, but per-type), so the hull walk's
/// Lemma 1/4 shortcut does not apply — see `docs/ALGORITHM.md`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn find_betas(
    algo: Algorithm,
    list: &mut CandidateList,
    lib: &BufferLibrary,
    constraint: &SiteConstraint,
    node: NodeId,
    variation: SiteVariation,
    price: f64,
    arena: &mut PredArena,
    track: bool,
    scratch: &mut Scratch,
    slew: &SlewPolicy,
    stats: &mut SolveStats,
) -> bool {
    if list.is_empty() || lib.is_empty() || !constraint.is_site() {
        return false;
    }
    stats.addbuffer_ops += 1;
    scratch.beta_slots.clear();
    scratch.beta_slots.resize(lib.len(), None);

    match algo {
        Algorithm::Lillis => {
            find_alphas_scan(
                list, lib, constraint, node, variation, price, arena, track, scratch, slew, stats,
            );
        }
        Algorithm::LiShi => {
            if slew.active() {
                find_alphas_scan(
                    list, lib, constraint, node, variation, price, arena, track, scratch, slew,
                    stats,
                );
            } else {
                upper_hull_into(list.as_slice(), &mut scratch.hull);
                stats.hull_builds += 1;
                stats.hull_input_candidates += list.len() as u64;
                find_alphas_walk(
                    list, lib, constraint, node, variation, price, arena, track, scratch, stats,
                );
            }
        }
        Algorithm::LiShiPermanent => {
            // Paper-as-written: prune the propagated list itself, then the
            // hull *is* the list.
            stats.convex_pruned += convex_prune_in_place(list) as u64;
            if slew.active() {
                find_alphas_scan(
                    list, lib, constraint, node, variation, price, arena, track, scratch, slew,
                    stats,
                );
            } else {
                stats.hull_builds += 1;
                stats.hull_input_candidates += list.len() as u64;
                scratch.hull.clear();
                scratch.hull.extend(0..list.len() as u32);
                find_alphas_walk(
                    list, lib, constraint, node, variation, price, arena, track, scratch, stats,
                );
            }
        }
    }
    true
}

/// Lillis et al.: independent O(k) scan per allowed buffer type. Also the
/// path every algorithm takes under an active slew constraint, where the
/// per-type feasibility filter `R·C + s ≤ budget` rules out the hull walk.
#[allow(clippy::too_many_arguments)]
fn find_alphas_scan(
    list: &CandidateList,
    lib: &BufferLibrary,
    constraint: &SiteConstraint,
    node: NodeId,
    variation: SiteVariation,
    price: f64,
    arena: &mut PredArena,
    track: bool,
    scratch: &mut Scratch,
    slew: &SlewPolicy,
    stats: &mut SolveStats,
) {
    for (id, _) in lib.iter() {
        if !constraint.allows(id) {
            continue;
        }
        let (r, k, c_in, max_load) = params(lib, id, variation);
        let slew_cap = slew.type_cap(id);
        let mut best: Option<&Candidate> = None;
        for cand in list.iter() {
            stats.scan_candidate_visits += 1;
            if cand.c > max_load {
                break; // c is sorted ascending; nothing further fits
            }
            if r * cand.c + cand.s > slew_cap {
                continue; // closing this stage with B_i would violate slew
            }
            match best {
                None => best = Some(cand),
                Some(b) => {
                    if cand.driven_q(r, 0.0) > b.driven_q(r, 0.0) {
                        best = Some(cand);
                    }
                }
            }
        }
        if let Some(alpha) = best {
            scratch.beta_slots[id.index()] =
                Some(make_beta(alpha, id, r, k, c_in, price, node, arena, track));
        }
    }
}

/// Li & Shi: one monotone walk along the hull finds every unconstrained
/// `α_i`; types with a load limit fall back to an exact scan (see
/// `DESIGN.md`: the limit can make an interior, off-hull candidate optimal,
/// so the hull alone is insufficient for them).
#[allow(clippy::too_many_arguments)]
fn find_alphas_walk(
    list: &CandidateList,
    lib: &BufferLibrary,
    constraint: &SiteConstraint,
    node: NodeId,
    variation: SiteVariation,
    price: f64,
    arena: &mut PredArena,
    track: bool,
    scratch: &mut Scratch,
    stats: &mut SolveStats,
) {
    let cands = list.as_slice();
    let hull = &scratch.hull;
    let mut ptr = 0usize;
    // Lemma 1 order: non-increasing driving resistance (scaling all types
    // by one node-local factor preserves this order).
    for &id in lib.by_resistance_desc() {
        if !constraint.allows(id) {
            continue;
        }
        let (r, k, c_in, max_load) = params(lib, id, variation);
        let alpha = if max_load.is_finite() {
            // Exact constrained scan (rare path).
            let mut best: Option<&Candidate> = None;
            for cand in cands {
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
                None => continue, // no candidate satisfies the load limit
            }
        } else {
            // Lemma 4: Q − R·C is unimodal along the hull; Lemma 1: the
            // peak only ever moves rightward as R decreases, so the pointer
            // never retreats across buffer types.
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
            &cands[hull[ptr] as usize]
        };
        scratch.beta_slots[id.index()] =
            Some(make_beta(alpha, id, r, k, c_in, price, node, arena, track));
    }
}

/// [`add_buffers`] over the struct-of-arrays kernel: identical algorithm on
/// a [`SlabList`]. The β generation (library order, per-type best
/// candidate, dominance pruning among betas, counters) replicates the
/// reference expression by expression; the betas are staged straight into
/// columns and inserted with [`CandidateSlab::merge_insert`] instead of the
/// pooled AoS merge.
#[allow(clippy::too_many_arguments)]
pub(crate) fn add_buffers_slab(
    algo: Algorithm,
    slab: &mut CandidateSlab,
    list: SlabList,
    lib: &BufferLibrary,
    constraint: &SiteConstraint,
    node: NodeId,
    variation: SiteVariation,
    price: f64,
    arena: &mut PredArena,
    track: bool,
    scratch: &mut Scratch,
    slew: &SlewPolicy,
    stats: &mut SolveStats,
) {
    if !find_betas_slab(
        algo,
        slab,
        list,
        lib,
        constraint,
        node,
        variation,
        price,
        arena,
        track,
        scratch,
        slew,
        stats,
        |_| true,
    ) {
        return;
    }
    let betas = &mut scratch.stage.group;
    betas.clear();
    for &id in lib.by_input_cap_asc() {
        if let Some(beta) = scratch.beta_slots[id.index()].take() {
            betas.push_pruned(beta);
        }
    }
    stats.betas_generated += betas.len() as u64;
    slab.merge_insert(list, betas);
}

/// [`find_betas`] over the slab: fills `scratch.beta_slots` from the
/// columns of `list`. [`Algorithm::LiShiPermanent`] convex-prunes the slab
/// list in place via [`CandidateSlab::convex_prune`].
///
/// Only types for which `fits` holds get a β (and, when tracking, an arena
/// entry); the hull walk still steps through every allowed type in Lemma 1
/// order, so the β of a fitting type is the same bits either way. The cost
/// DP passes its remaining budget here; every other caller passes
/// `|_| true`, which monomorphizes the check away.
#[allow(clippy::too_many_arguments)]
pub(crate) fn find_betas_slab(
    algo: Algorithm,
    slab: &mut CandidateSlab,
    list: SlabList,
    lib: &BufferLibrary,
    constraint: &SiteConstraint,
    node: NodeId,
    variation: SiteVariation,
    price: f64,
    arena: &mut PredArena,
    track: bool,
    scratch: &mut Scratch,
    slew: &SlewPolicy,
    stats: &mut SolveStats,
    fits: impl Fn(BufferTypeId) -> bool + Copy,
) -> bool {
    if slab.len(list) == 0 || lib.is_empty() || !constraint.is_site() {
        return false;
    }
    stats.addbuffer_ops += 1;
    scratch.beta_slots.clear();
    scratch.beta_slots.resize(lib.len(), None);

    match algo {
        Algorithm::Lillis => {
            find_alphas_scan_slab(
                slab.view(list),
                lib,
                constraint,
                node,
                variation,
                price,
                arena,
                track,
                scratch,
                slew,
                stats,
                fits,
            );
        }
        Algorithm::LiShi => {
            if slew.active() {
                find_alphas_scan_slab(
                    slab.view(list),
                    lib,
                    constraint,
                    node,
                    variation,
                    price,
                    arena,
                    track,
                    scratch,
                    slew,
                    stats,
                    fits,
                );
            } else {
                let view = slab.view(list);
                upper_hull_cols(view.q, view.c, &mut scratch.hull);
                stats.hull_builds += 1;
                stats.hull_input_candidates += view.len() as u64;
                find_alphas_walk_slab(
                    view, lib, constraint, node, variation, price, arena, track, scratch, stats,
                    fits,
                );
            }
        }
        Algorithm::LiShiPermanent => {
            stats.convex_pruned += slab.convex_prune(list) as u64;
            if slew.active() {
                find_alphas_scan_slab(
                    slab.view(list),
                    lib,
                    constraint,
                    node,
                    variation,
                    price,
                    arena,
                    track,
                    scratch,
                    slew,
                    stats,
                    fits,
                );
            } else {
                let view = slab.view(list);
                stats.hull_builds += 1;
                stats.hull_input_candidates += view.len() as u64;
                scratch.hull.clear();
                scratch.hull.extend(0..view.len() as u32);
                find_alphas_walk_slab(
                    view, lib, constraint, node, variation, price, arena, track, scratch, stats,
                    fits,
                );
            }
        }
    }
    true
}

/// [`find_alphas_scan`] over slab columns — same per-type scans, same
/// early-exit and feasibility checks, same counters. The scans are
/// independent, so a type that does not `fit` is not scanned at all.
#[allow(clippy::too_many_arguments)]
fn find_alphas_scan_slab(
    view: SlabView<'_>,
    lib: &BufferLibrary,
    constraint: &SiteConstraint,
    node: NodeId,
    variation: SiteVariation,
    price: f64,
    arena: &mut PredArena,
    track: bool,
    scratch: &mut Scratch,
    slew: &SlewPolicy,
    stats: &mut SolveStats,
    fits: impl Fn(BufferTypeId) -> bool,
) {
    let n = view.len();
    let (qs, cs, ss) = (&view.q[..n], &view.c[..n], &view.s[..n]);
    for (id, _) in lib.iter() {
        if !constraint.allows(id) || !fits(id) {
            continue;
        }
        let (r, k, c_in, max_load) = params(lib, id, variation);
        let slew_cap = slew.type_cap(id);
        let mut best: Option<usize> = None;
        let mut visits = 0u64;
        for i in 0..n {
            visits += 1;
            if cs[i] > max_load {
                break; // c is sorted ascending; nothing further fits
            }
            if r * cs[i] + ss[i] > slew_cap {
                continue; // closing this stage with B_i would violate slew
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    if qs[i] - r * cs[i] > qs[b] - r * cs[b] {
                        best = Some(i);
                    }
                }
            }
        }
        stats.scan_candidate_visits += visits;
        if let Some(i) = best {
            let alpha = view.get(i);
            scratch.beta_slots[id.index()] =
                Some(make_beta(&alpha, id, r, k, c_in, price, node, arena, track));
        }
    }
}

/// [`find_alphas_walk`] over slab columns: the same monotone hull walk with
/// the same load-limited exact-scan fallback. A type that does not `fit`
/// still advances the walk pointer (the walk's stopping point can depend on
/// where it starts), but gets no β; its load-limited scan, which leaves the
/// pointer alone, is skipped.
#[allow(clippy::too_many_arguments)]
fn find_alphas_walk_slab(
    view: SlabView<'_>,
    lib: &BufferLibrary,
    constraint: &SiteConstraint,
    node: NodeId,
    variation: SiteVariation,
    price: f64,
    arena: &mut PredArena,
    track: bool,
    scratch: &mut Scratch,
    stats: &mut SolveStats,
    fits: impl Fn(BufferTypeId) -> bool,
) {
    let Scratch {
        hull, beta_slots, ..
    } = scratch;
    let hull = &hull[..];
    let n = view.len();
    let (qs, cs) = (&view.q[..n], &view.c[..n]);
    let mut ptr = 0usize;
    let mut walk_steps = 0u64;
    for &id in lib.by_resistance_desc() {
        if !constraint.allows(id) {
            continue;
        }
        let (r, k, c_in, max_load) = params(lib, id, variation);
        let alpha = if max_load.is_finite() {
            if !fits(id) {
                continue;
            }
            // Exact constrained scan (rare path).
            let mut best: Option<usize> = None;
            for i in 0..n {
                stats.scan_candidate_visits += 1;
                if cs[i] > max_load {
                    break;
                }
                if best.is_none_or(|b| qs[i] - r * cs[i] > qs[b] - r * cs[b]) {
                    best = Some(i);
                }
            }
            match best {
                Some(i) => view.get(i),
                None => continue, // no candidate satisfies the load limit
            }
        } else {
            // The walk carries the current vertex's objective in a
            // register: a vertex's `q − r·c` is the same bits whether kept
            // from the step that advanced onto it or recomputed, since `r`
            // is fixed within one buffer type.
            let cur = hull[ptr] as usize;
            let mut cur_v = qs[cur] - r * cs[cur];
            while ptr + 1 < hull.len() {
                let nxt = hull[ptr + 1] as usize;
                let nxt_v = qs[nxt] - r * cs[nxt];
                if nxt_v > cur_v {
                    ptr += 1;
                    cur_v = nxt_v;
                    walk_steps += 1;
                } else {
                    break;
                }
            }
            if !fits(id) {
                continue;
            }
            view.get(hull[ptr] as usize)
        };
        beta_slots[id.index()] = Some(make_beta(&alpha, id, r, k, c_in, price, node, arena, track));
    }
    stats.hull_walk_steps += walk_steps;
}

/// Builds `β_i` from its best candidate `α_i`. The node's usage `price`
/// is charged like extra intrinsic delay; `x − 0.0` is bit-exact for every
/// finite `x`, so unpriced solves are unchanged.
#[allow(clippy::too_many_arguments)]
#[inline]
fn make_beta(
    alpha: &Candidate,
    id: BufferTypeId,
    r: f64,
    k: f64,
    c_in: f64,
    price: f64,
    node: NodeId,
    arena: &mut PredArena,
    track: bool,
) -> Candidate {
    let pred = if track {
        arena.push(PredEntry::Buffer {
            node,
            buffer: id,
            prev: alpha.pred,
        })
    } else {
        PredRef::NONE
    };
    Candidate::new(alpha.driven_q(r, k) - price, c_in, pred)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbuf_buflib::units::{Farads, Ohms, Seconds};
    use fastbuf_buflib::BufferType;

    fn cand(q: f64, c: f64) -> Candidate {
        Candidate::new(q, c, PredRef::NONE)
    }

    fn list(points: &[(f64, f64)]) -> CandidateList {
        CandidateList::from_candidates(points.iter().map(|&(q, c)| cand(q, c)).collect())
    }

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

    fn run(algo: Algorithm, l: &CandidateList, library: &BufferLibrary) -> CandidateList {
        let mut out = l.clone();
        let mut arena = PredArena::new();
        let mut scratch = Scratch::default();
        let mut stats = SolveStats::default();
        add_buffers(
            algo,
            &mut out,
            library,
            &SiteConstraint::AnyBuffer,
            NodeId::new(0),
            SiteVariation::NOMINAL,
            0.0,
            &mut arena,
            false,
            &mut scratch,
            &SlewPolicy::unlimited(),
            &mut stats,
        );
        out
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
        // must produce the same betas: compare the buffered subset (the
        // candidates whose c equals a library input capacitance and q
        // matches).
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
            out.iter()
                .any(|c| (c.q - (-0.5)).abs() < 1e-12 && (c.c - 0.25).abs() < 1e-12),
            "expected beta in {out:?}"
        );
    }

    #[test]
    fn walk_and_scan_agree_on_random_lists() {
        let mut state = 7u64;
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for round in 0..100 {
            let n = 1 + (rnd() * 20.0) as usize;
            let mut q = 0.0;
            let mut c = 0.0;
            let mut pts = Vec::new();
            for _ in 0..n {
                q += rnd() + 0.001;
                c += rnd() + 0.001;
                pts.push((q, c));
            }
            let l = list(&pts);
            let nb = 1 + (rnd() * 6.0) as usize;
            let mut bufs: Vec<(f64, f64, f64)> = Vec::new();
            for _ in 0..nb {
                bufs.push((0.1 + rnd() * 5.0, 0.01 + rnd(), rnd()));
            }
            let library = lib(&bufs);
            let a = run(Algorithm::Lillis, &l, &library);
            let b = run(Algorithm::LiShi, &l, &library);
            assert_eq!(a, b, "round {round}: lists diverge\nL={pts:?}\nB={bufs:?}");
        }
    }

    #[test]
    fn respects_subset_constraint() {
        use fastbuf_buflib::BufferSet;
        use std::sync::Arc;
        let l = list(&[(1.0, 1.0), (4.0, 2.0)]);
        let library = lib(&[(2.0, 0.25, 0.0), (1.0, 0.3, 0.0)]);
        let mut only1 = BufferSet::empty(2);
        only1.insert(BufferTypeId::new(1));
        let constraint = SiteConstraint::Subset(Arc::new(only1));

        let mut out = l.clone();
        let mut arena = PredArena::new();
        let mut scratch = Scratch::default();
        let mut stats = SolveStats::default();
        add_buffers(
            Algorithm::LiShi,
            &mut out,
            &library,
            &constraint,
            NodeId::new(0),
            SiteVariation::NOMINAL,
            0.0,
            &mut arena,
            false,
            &mut scratch,
            &SlewPolicy::unlimited(),
            &mut stats,
        );
        // Only one beta may appear (c = 0.3); type 0's c_in 0.25 must not.
        assert!(out.iter().all(|c| (c.c - 0.25).abs() > 1e-12));
        assert_eq!(stats.betas_generated, 1);
    }

    #[test]
    fn not_a_site_is_noop() {
        let l = list(&[(1.0, 1.0)]);
        let library = lib(&[(2.0, 0.25, 0.0)]);
        let mut out = l.clone();
        let mut arena = PredArena::new();
        let mut scratch = Scratch::default();
        let mut stats = SolveStats::default();
        add_buffers(
            Algorithm::LiShi,
            &mut out,
            &library,
            &SiteConstraint::NotASite,
            NodeId::new(0),
            SiteVariation::NOMINAL,
            0.0,
            &mut arena,
            false,
            &mut scratch,
            &SlewPolicy::unlimited(),
            &mut stats,
        );
        assert_eq!(out, l);
        assert_eq!(stats.addbuffer_ops, 0);
    }

    #[test]
    fn max_load_limits_alpha_choice() {
        // Unconstrained alpha would be (10, 100); with max_load 5 only
        // (1,1) and (4,3) qualify.
        let l = list(&[(1.0, 1.0), (4.0, 3.0), (10.0, 100.0)]);
        let limited = BufferLibrary::new(vec![BufferType::new(
            "b0",
            Ohms::new(0.001),
            Farads::new(0.2),
            Seconds::new(0.0),
        )
        .with_max_load(Farads::new(5.0))])
        .unwrap();
        for algo in Algorithm::ALL {
            let out = run(algo, &l, &limited);
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
    }

    #[test]
    fn max_load_with_no_feasible_candidate_emits_nothing() {
        let l = list(&[(10.0, 100.0)]);
        let limited = BufferLibrary::new(vec![BufferType::new(
            "b0",
            Ohms::new(1.0),
            Farads::new(0.2),
            Seconds::new(0.0),
        )
        .with_max_load(Farads::new(5.0))])
        .unwrap();
        let out = run(Algorithm::LiShi, &l, &limited);
        assert_eq!(out, l);
    }

    /// With an active slew budget, a type only closes stages it can drive
    /// legally: infeasible alphas are skipped, and a type with no feasible
    /// alpha emits no beta.
    #[test]
    fn slew_budget_filters_alphas_per_type() {
        use fastbuf_buflib::units::Seconds as S;
        use fastbuf_rctree::delay::{ElmoreModel, LN9};
        // Two candidates; the better one (for any r) carries a large stage
        // delay.
        let l = CandidateList::from_sorted(vec![
            cand(1.0, 1.0).with_stage_delay(0.0),
            cand(10.0, 2.0).with_stage_delay(5.0),
        ]);
        // One buffer: R = 1, C_in = 0.5, K = 0.
        let library = lib(&[(1.0, 0.5, 0.0)]);
        // Budget r*c + s <= 4: only (1,1,s=0) qualifies (1*2+5 = 7 > 4).
        let slew = SlewPolicy::new(&ElmoreModel, &library, 4.0 * LN9);
        assert!((slew.cap - 4.0).abs() < 1e-12);
        for algo in Algorithm::ALL {
            let mut out = l.clone();
            let mut arena = PredArena::new();
            let mut scratch = Scratch::default();
            let mut stats = SolveStats::default();
            add_buffers(
                algo,
                &mut out,
                &library,
                &SiteConstraint::AnyBuffer,
                NodeId::new(0),
                SiteVariation::NOMINAL,
                0.0,
                &mut arena,
                false,
                &mut scratch,
                &slew,
                &mut stats,
            );
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
        let strict = SlewPolicy::new(&ElmoreModel, &library, S::from_pico(0.0).value());
        let mut out = l.clone();
        let mut arena = PredArena::new();
        let mut scratch = Scratch::default();
        let mut stats = SolveStats::default();
        add_buffers(
            Algorithm::LiShi,
            &mut out,
            &library,
            &SiteConstraint::AnyBuffer,
            NodeId::new(0),
            SiteVariation::NOMINAL,
            0.0,
            &mut arena,
            false,
            &mut scratch,
            &strict,
            &mut stats,
        );
        assert_eq!(out, l);
        assert_eq!(stats.betas_generated, 0);
    }

    #[test]
    fn lillis_visits_k_times_b_and_lishi_does_not() {
        let points: Vec<(f64, f64)> = (0..100)
            .map(|i| {
                let x = i as f64;
                // Strictly concave staircase: all points on the hull.
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

        let run_stats = |algo: Algorithm| {
            let mut out = l.clone();
            let mut arena = PredArena::new();
            let mut scratch = Scratch::default();
            let mut stats = SolveStats::default();
            add_buffers(
                algo,
                &mut out,
                &library,
                &SiteConstraint::AnyBuffer,
                NodeId::new(0),
                SiteVariation::NOMINAL,
                0.0,
                &mut arena,
                false,
                &mut scratch,
                &SlewPolicy::unlimited(),
                &mut stats,
            );
            stats
        };
        let lillis = run_stats(Algorithm::Lillis);
        let lishi = run_stats(Algorithm::LiShi);
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
        let mut state = 99u64;
        let mut rnd = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for _ in 0..50 {
            let n = 2 + (rnd() * 30.0) as usize;
            let mut q = 0.0;
            let mut c = 0.0;
            let mut pts = Vec::new();
            for _ in 0..n {
                q += rnd() + 0.001;
                c += rnd() + 0.001;
                pts.push((q, c));
            }
            let l = list(&pts);
            let mut bufs: Vec<(f64, f64, f64)> = Vec::new();
            for _ in 0..6 {
                bufs.push((0.05 + rnd() * 8.0, 0.1, 0.0));
            }
            let library = lib(&bufs);
            // For each type in non-increasing-R order, find the best
            // candidate by exhaustive scan; its C must never decrease.
            let mut last_c = f64::NEG_INFINITY;
            for &id in library.by_resistance_desc() {
                let r = library.get(id).driving_resistance().value();
                let best = l
                    .iter()
                    .max_by(|a, b| {
                        // `total_cmp`: the ordering must stay total even on
                        // degenerate (NaN-producing) inputs — see the NaN
                        // rejection tests in `fastbuf-buflib`.
                        a.driven_q(r, 0.0)
                            .total_cmp(&b.driven_q(r, 0.0))
                            // min-C tiebreak: prefer the earlier (smaller C).
                            .then(b.c.total_cmp(&a.c))
                    })
                    .unwrap();
                assert!(
                    best.c >= last_c - 1e-15,
                    "Lemma 1 violated: C decreased from {last_c} to {}",
                    best.c
                );
                last_c = best.c;
            }
        }
    }

    /// Lemma 3: the best candidate for any resistance survives convex
    /// pruning.
    #[test]
    fn lemma3_best_candidate_on_hull() {
        let l = list(&[
            (1.0, 0.5),
            (2.0, 1.0),
            (2.5, 2.0),
            (4.0, 3.0),
            (4.2, 5.0),
            (6.0, 8.0),
        ]);
        let mut pruned = l.clone();
        crate::hull::convex_prune_in_place(&mut pruned);
        for r_tenth in 0..100 {
            let r = r_tenth as f64 * 0.1;
            let best_full = l.best_driven(r, 0.0).unwrap();
            assert!(
                pruned
                    .iter()
                    .any(|c| c.q == best_full.q && c.c == best_full.c),
                "r={r}: best candidate {best_full:?} was pruned"
            );
        }
    }

    #[test]
    fn algorithm_parsing_and_display() {
        assert_eq!("lishi".parse::<Algorithm>().unwrap(), Algorithm::LiShi);
        assert_eq!("lillis".parse::<Algorithm>().unwrap(), Algorithm::Lillis);
        assert_eq!(
            "lishi-permanent".parse::<Algorithm>().unwrap(),
            Algorithm::LiShiPermanent
        );
        assert!("nope".parse::<Algorithm>().is_err());
        for a in Algorithm::ALL {
            assert_eq!(a.name().parse::<Algorithm>().unwrap(), a);
            assert_eq!(a.to_string(), a.name());
        }
        assert!(Algorithm::LiShi.is_exact());
        assert!(Algorithm::Lillis.is_exact());
        assert!(!Algorithm::LiShiPermanent.is_exact());
        assert_eq!(Algorithm::default(), Algorithm::LiShi);
    }
}
