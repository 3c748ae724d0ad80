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
//! Under slew or load limits the Li–Shi walk adds an O(k) scan for each of
//! the `v` types whose walked `α_i` is illegal: O(k + b + k·v). All
//! strategies then emit the `β_i` in precomputed input-capacitance order
//! and merge them into the list in O(k + b) (Theorem 2 of the paper).

use fastbuf_buflib::{BufferLibrary, BufferTypeId};
use fastbuf_rctree::{NodeId, SiteConstraint, SiteVariation};

use crate::arena::{PredArena, PredEntry, PredRef};
use crate::candidate::Candidate;
use crate::engine::Dp;
use crate::hull::upper_hull_cols;
use crate::slab::{BetaStage, Passenger, SlabList, SlabView};
use crate::slew::SlewPolicy;
use crate::stats::SolveStats;

/// Which buffer-insertion algorithm the [`Solver`](crate::Solver) runs.
///
/// All three produce the same optimal slack except
/// [`Algorithm::LiShiPermanent`], which reproduces the paper's published
/// pseudo-code verbatim and can be (slightly) sub-optimal on multi-pin nets
/// — see `docs/ALGORITHM.md` §5 and the `convex_permanent_gap` integration
/// test.
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
    /// every routing tree when no slew limit is set. Under a slew limit
    /// every algorithm, these included, is conservative: its answer is
    /// feasible and never better than the feasible optimum, but `(Q, C)`
    /// dominance can discard the only route to that optimum
    /// (`docs/ALGORITHM.md` §6).
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
pub(crate) struct Scratch<P: Passenger = ()> {
    hull: Vec<u32>,
    /// Best buffered candidate (and its passenger row) per library type
    /// index, or `None`.
    pub(crate) beta_slots: Vec<Option<(Candidate, P::Row)>>,
    /// Column staging for the betas before they are merged into a list.
    pub(crate) stage: BetaStage<P>,
}

impl<P: Passenger> Scratch<P> {
    /// Stages the betas [`find_betas`] left for the types `ids`, in that
    /// order, as one group, unions the group into target list `t` and
    /// returns how many betas the group took.
    pub(crate) fn route(&mut self, ids: &[BufferTypeId], t: usize) -> u64 {
        let mut taken = 0;
        for &id in ids {
            if let Some((beta, x)) = self.beta_slots[id.index()].take() {
                self.stage.group.push_pruned(beta, x);
                taken += 1;
            }
        }
        self.stage.flush_group(t);
        taken
    }
}

/// One buffer site as `AddBuffer` sees it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Site<'a> {
    pub(crate) algo: Algorithm,
    pub(crate) lib: &'a BufferLibrary,
    pub(crate) constraint: &'a SiteConstraint,
    pub(crate) node: NodeId,
    pub(crate) variation: SiteVariation,
    /// The node's usage price in seconds (zero when unpriced): every
    /// buffered candidate `β_i` pays it as extra intrinsic delay, which
    /// keeps the priced subproblem exact — the α selection maximizes
    /// `Q − R·C` and a constant subtraction from every `β_i` at one node
    /// changes neither the argmax nor the hull-walk order (Lemmas 1/4).
    /// Subtracting `0.0` is bit-exact, so unpriced solves reproduce the
    /// historical values.
    pub(crate) price: f64,
    pub(crate) track: bool,
    pub(crate) slew: &'a SlewPolicy,
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

/// Runs the `AddBuffer` operation on `list` at `site`: finds every `β_i`
/// (see [`find_betas`]), stages them in non-decreasing input-capacitance
/// order (precomputed on the library — Theorem 2), pruning betas
/// dominated among themselves, and merges them into the list with
/// [`CandidateSlab::merge_insert`].
pub(crate) fn add_buffers<P: Passenger>(site: &Site<'_>, dp: &mut Dp<'_, P>, list: SlabList) {
    if !find_betas(site, dp, list, |_| true) {
        return;
    }
    let betas = &mut dp.scratch.stage.group;
    betas.clear();
    for &id in site.lib.by_input_cap_asc() {
        if let Some((beta, x)) = dp.scratch.beta_slots[id.index()].take() {
            betas.push_pruned(beta, x);
        }
    }
    dp.stats.betas_generated += betas.len() as u64;
    dp.slab.merge_insert(list, betas);
}

/// Computes the best buffered candidate `β_i` for every allowed type into
/// `scratch.beta_slots`, without inserting them. Returns `false` when the
/// operation is a no-op (empty list / library / not a site).
/// [`Algorithm::LiShiPermanent`] additionally convex-prunes `list` in
/// place, exactly as the paper's published `AddBuffer` does.
///
/// [`Algorithm::Lillis`] scans every type; both Li–Shi algorithms walk the
/// hull for every type, under slew and load limits too, and re-scan only
/// the types whose walked `α_i` is illegal (see [`find_alphas_walk`]).
///
/// Only types for which `fits` holds get a β (and, when tracking, an arena
/// entry); the hull walk still steps through every allowed type in Lemma 1
/// order, so the β of a fitting type is the same bits either way. The cost
/// lane passes its remaining budget here; every other caller passes
/// `|_| true`, which monomorphizes the check away.
pub(crate) fn find_betas<P: Passenger>(
    site: &Site<'_>,
    dp: &mut Dp<'_, P>,
    list: SlabList,
    fits: impl Fn(BufferTypeId) -> bool + Copy,
) -> bool {
    let Dp {
        slab,
        arena,
        scratch,
        stats,
    } = dp;
    if slab.len(list) == 0 || site.lib.is_empty() || !site.constraint.is_site() {
        return false;
    }
    stats.addbuffer_ops += 1;
    stats.addbuffer_candidates += slab.len(list) as u64;
    scratch.beta_slots.clear();
    scratch.beta_slots.resize(site.lib.len(), None);

    if site.algo == Algorithm::LiShiPermanent {
        stats.convex_pruned += slab.convex_prune(list) as u64;
    }
    let view = slab.view(list);
    if site.algo == Algorithm::Lillis {
        find_alphas_scan(site, view, arena, scratch, stats, fits);
        return true;
    }
    if site.algo == Algorithm::LiShi {
        upper_hull_cols(view.q, view.c, &mut scratch.hull);
    } else {
        scratch.hull.clear();
        scratch.hull.extend(0..view.len() as u32);
    }
    stats.hull_builds += 1;
    stats.hull_input_candidates += view.len() as u64;
    find_alphas_walk(site, view, arena, scratch, stats, fits);
    true
}

/// Lillis et al.: an independent O(k) scan per allowed buffer type. The
/// scans are independent, so a type that does not `fit` is not scanned.
fn find_alphas_scan<P: Passenger>(
    site: &Site<'_>,
    view: SlabView<'_, P>,
    arena: &mut PredArena,
    scratch: &mut Scratch<P>,
    stats: &mut SolveStats,
    fits: impl Fn(BufferTypeId) -> bool,
) {
    for (id, _) in site.lib.iter() {
        if !site.constraint.allows(id) || !fits(id) {
            continue;
        }
        let (r, k, c_in, max_load) = params(site.lib, id, site.variation);
        if let Some(i) = scan_type(&view, r, max_load, site.slew.type_cap(id), stats) {
            scratch.beta_slots[id.index()] = Some(make_beta(site, &view, i, id, r, k, c_in, arena));
        }
    }
}

/// One type's exact scan: the candidate maximizing `Q − r·C` (ties to
/// minimum `C`) among those within `max_load` whose stage `r·C + s` meets
/// `slew_cap`, or `None`. Lillis runs it for every type; Li–Shi only for a
/// type whose walked `α_i` is illegal. Every visited candidate counts as a
/// scan visit.
fn scan_type<P: Passenger>(
    view: &SlabView<'_, P>,
    r: f64,
    max_load: f64,
    slew_cap: f64,
    stats: &mut SolveStats,
) -> Option<usize> {
    let n = view.len();
    let (qs, cs, ss) = (&view.q[..n], &view.c[..n], &view.s[..n]);
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
        if best.is_none_or(|b| qs[i] - r * cs[i] > qs[b] - r * cs[b]) {
            best = Some(i);
        }
    }
    stats.scan_candidate_visits += visits;
    best
}

/// Li & Shi: one monotone walk along the hull finds every unconstrained
/// `α_i`. A legal `α_i` (within the type's load limit and slew budget) is
/// also the constrained argmax, tie included (Lemma 3), so only a type
/// whose `α_i` is illegal takes the exact [`scan_type`] repair, which
/// leaves the pointer where the walk put it — see `docs/ALGORITHM.md` §3.
/// A type that does not `fit` still advances the pointer (the walk's
/// stopping point can depend on where it starts), but gets no β.
fn find_alphas_walk<P: Passenger>(
    site: &Site<'_>,
    view: SlabView<'_, P>,
    arena: &mut PredArena,
    scratch: &mut Scratch<P>,
    stats: &mut SolveStats,
    fits: impl Fn(BufferTypeId) -> bool,
) {
    let Scratch {
        hull, beta_slots, ..
    } = scratch;
    let hull = &hull[..];
    let n = view.len();
    let (qs, cs, ss) = (&view.q[..n], &view.c[..n], &view.s[..n]);
    let mut ptr = 0usize;
    let mut walk_steps = 0u64;
    for &id in site.lib.by_resistance_desc() {
        if !site.constraint.allows(id) {
            continue;
        }
        let (r, k, c_in, max_load) = params(site.lib, id, site.variation);
        // Lemma 4: Q − R·C is unimodal along the hull; Lemma 1: the peak
        // only ever moves rightward as R decreases, so the pointer never
        // retreats across buffer types. The walk carries the current
        // vertex's objective in a register: a vertex's `q − r·c` is the
        // same bits whether kept from the step that advanced onto it or
        // recomputed, since `r` is fixed within one buffer type.
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
        let mut alpha = hull[ptr] as usize;
        let slew_cap = site.slew.type_cap(id);
        if cs[alpha] > max_load || r * cs[alpha] + ss[alpha] > slew_cap {
            match scan_type(&view, r, max_load, slew_cap, stats) {
                Some(i) => alpha = i,
                None => continue, // no candidate is legal for this type
            }
        }
        beta_slots[id.index()] = Some(make_beta(site, &view, alpha, id, r, k, c_in, arena));
    }
    stats.hull_walk_steps += walk_steps;
}

/// Builds `β_i` (and its passenger row) from its best candidate `α_i`,
/// row `i` of `view`. The site's usage price is charged like extra
/// intrinsic delay; `x − 0.0` is bit-exact for every finite `x`, so
/// unpriced solves are unchanged.
#[allow(clippy::too_many_arguments)]
#[inline]
fn make_beta<P: Passenger>(
    site: &Site<'_>,
    view: &SlabView<'_, P>,
    i: usize,
    id: BufferTypeId,
    r: f64,
    k: f64,
    c_in: f64,
    arena: &mut PredArena,
) -> (Candidate, P::Row) {
    let alpha = view.get(i);
    let pred = if site.track {
        arena.push(PredEntry::Buffer {
            node: site.node,
            buffer: id,
            prev: alpha.pred,
        })
    } else {
        PredRef::NONE
    };
    (
        Candidate::new(alpha.driven_q(r, k) - site.price, c_in, pred),
        P::buffer(view.row(i), k + r * alpha.c),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, CandidateList};
    use crate::slab::{CandidateSlab, Columns};
    use fastbuf_buflib::units::{Farads, Ohms, Seconds};
    use fastbuf_buflib::{BufferSet, BufferType};
    use fastbuf_rctree::delay::DelayModel;
    use std::sync::Arc;

    /// `AddBuffer` on the slab against the oracle's, bit for bit: the
    /// resulting list (every lane), the predecessor arena, and every
    /// counter both keep. Random staircases and libraries, some types
    /// load-limited, under every algorithm, with and without a slew
    /// budget, a subset constraint, a price and a variation.
    #[test]
    fn add_buffers_matches_the_oracle() {
        let mut state = 0x5eed_u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for round in 0..300 {
            let n = 1 + (rnd() * 24.0) as usize;
            let (mut q, mut c) = (0.0, 0.0);
            let cands = (0..n)
                .map(|_| {
                    q += rnd() + 0.001;
                    c += rnd() + 0.001;
                    Candidate::new(q, c, PredRef::NONE).with_stage_delay(rnd() * 4.0)
                })
                .collect();
            let list = CandidateList::from_sorted(cands);
            let types = 1 + (rnd() * 7.0) as usize;
            let lib = BufferLibrary::new(
                (0..types)
                    .map(|i| {
                        let b = BufferType::new(
                            format!("b{i}"),
                            Ohms::new(0.1 + rnd() * 5.0),
                            Farads::new(0.01 + rnd()),
                            Seconds::new(rnd()),
                        );
                        if rnd() < 0.2 {
                            b.with_max_load(Farads::new(rnd() * c))
                        } else {
                            b
                        }
                    })
                    .collect(),
            )
            .unwrap();
            let constraint = if rnd() < 0.3 {
                let mut set = BufferSet::empty(types);
                set.insert(BufferTypeId::new(round % types));
                SiteConstraint::Subset(Arc::new(set))
            } else {
                SiteConstraint::AnyBuffer
            };
            let slew = if round % 2 == 0 {
                SlewPolicy::unlimited()
            } else {
                SlewPolicy::new(DelayModel::Elmore, &lib, 1.0 + rnd() * 20.0)
            };
            let variation = SiteVariation::new(0.8 + rnd() * 0.4, 0.8 + rnd() * 0.4);
            let price = if rnd() < 0.5 { 0.0 } else { rnd() };
            let node = NodeId::new(round);
            for algo in Algorithm::ALL {
                let ctx = format!("round {round} {algo} list {list:?} lib {lib:?}");
                let mut expect = list.clone();
                let mut oracle_arena = PredArena::new();
                let mut oracle_stats = SolveStats::default();
                oracle::add_buffers(
                    algo,
                    &mut expect,
                    &lib,
                    &constraint,
                    node,
                    variation,
                    price,
                    &mut oracle_arena,
                    true,
                    &slew,
                    &mut oracle_stats,
                );

                let mut slab: CandidateSlab = CandidateSlab::default();
                let mut cols = Columns::default();
                for x in &list {
                    cols.push(x.q, x.c, x.s, x.pred);
                }
                let h = slab.load(&cols);
                let mut arena = PredArena::new();
                let mut stats = SolveStats::default();
                let site = Site {
                    algo,
                    lib: &lib,
                    constraint: &constraint,
                    node,
                    variation,
                    price,
                    track: true,
                    slew: &slew,
                };
                let dp = &mut Dp {
                    slab: &mut slab,
                    arena: &mut arena,
                    scratch: &mut Scratch::default(),
                    stats: &mut stats,
                };
                add_buffers(&site, dp, h);
                let view = slab.view(h);
                let got: Vec<Candidate> = (0..view.len()).map(|i| view.get(i)).collect();
                let lanes = |v: &[Candidate]| -> Vec<(u64, u64, u64, PredRef)> {
                    v.iter()
                        .map(|x| (x.q.to_bits(), x.c.to_bits(), x.s.to_bits(), x.pred))
                        .collect()
                };
                assert_eq!(lanes(&got), lanes(expect.as_slice()), "{ctx}");
                assert_eq!(format!("{arena:?}"), format!("{oracle_arena:?}"), "{ctx}");
                let counters = |s: &SolveStats| {
                    [
                        s.addbuffer_ops,
                        s.addbuffer_candidates,
                        s.scan_candidate_visits,
                        s.hull_builds,
                        s.hull_input_candidates,
                        s.hull_walk_steps,
                        s.betas_generated,
                        s.convex_pruned,
                    ]
                };
                assert_eq!(counters(&stats), counters(&oracle_stats), "{ctx}");
            }
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
