//! The shared dynamic-programming engine.
//!
//! All algorithms perform the same bottom-up pass over the routing tree —
//! initialize a candidate at each sink, propagate lists through wires,
//! merge at branch points, and finish by charging the source driver — and
//! differ **only** in the `AddBuffer` operation at buffer positions (see
//! [`crate::buffering`]). This mirrors the paper's decomposition into
//! "three major operations" and guarantees that runtime differences between
//! [`Algorithm`]s measure exactly the operation the paper improves.
//!
//! Every objective runs that one pass, [`process_nodes`], as a [`Lane`]
//! through the one driver [`run_lane`]: max-slack ([`Solver`]), skew,
//! polarity and cost differ only in how many lists a node keeps, how
//! siblings merge, where each β goes, and which passenger columns ride
//! the slab.

use std::sync::Arc;
use std::time::Instant;

use fastbuf_buflib::units::{Farads, Seconds};
use fastbuf_buflib::BufferLibrary;
use fastbuf_rctree::delay::DelayModel;
use fastbuf_rctree::{NodeId, NodeKind, RoutingTree};

use crate::arena::PredArena;
use crate::buffering::{add_buffers, Algorithm, Scratch, Site};
use crate::cache::{CacheFingerprint, CacheView, SubtreeCache};
use crate::slab::{CandidateSlab, Columns, Passenger, SlabList};
use crate::slew::SlewPolicy;
use crate::solution::Solution;
use crate::stats::SolveStats;

/// Reusable solver state: every allocation a solve needs, kept alive
/// between solves.
///
/// A single [`Solver::solve`] call allocates a predecessor arena, per-node
/// list handles, and the candidate slab's columns. Solving
/// *many* nets — the batch workload of `fastbuf-batch` — would repeat those
/// allocations per net. A `SolveWorkspace` owns all of them and recycles
/// them: pass the same workspace to [`Solver::solve_with`] repeatedly (one
/// workspace per worker thread): once warm, a solve makes no allocation
/// that grows with the net (`tests/allocation_guard.rs`).
///
/// Results are bit-identical to [`Solver::solve`]: the workspace only
/// changes *where* columns come from, never the arithmetic or its order.
///
/// # Example
///
/// ```
/// use fastbuf_buflib::units::Microns;
/// use fastbuf_buflib::BufferLibrary;
/// use fastbuf_core::{Solver, SolveWorkspace};
///
/// let lib = BufferLibrary::paper_synthetic(8)?;
/// let mut ws = SolveWorkspace::new();
/// for sites in [5usize, 9, 13] {
///     let tree = fastbuf_netgen::line_net(Microns::new(8000.0), sites);
///     let reused = Solver::new(&tree, &lib).solve_with(&mut ws);
///     let fresh = Solver::new(&tree, &lib).solve();
///     assert_eq!(reused.slack, fresh.slack);
///     assert_eq!(reused.placements, fresh.placements);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct SolveWorkspace {
    arena: PredArena,
    scratch: Scratch,
    slab: CandidateSlab,
    lists: Vec<Option<SlabList>>,
}

impl SolveWorkspace {
    /// Creates an empty workspace. Allocations grow on first use and are
    /// retained afterwards.
    pub fn new() -> Self {
        SolveWorkspace::default()
    }
}

/// Configuration of a [`Solver`].
///
/// `#[non_exhaustive]`: construct via [`SolverOptions::default`] and set
/// fields (or use the [`Solver`] builder methods) so new knobs can be
/// added without breaking downstream crates.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct SolverOptions {
    /// Which `AddBuffer` implementation to run. Default:
    /// [`Algorithm::LiShi`].
    pub algorithm: Algorithm,
    /// Record predecessor information so buffer placements can be
    /// reconstructed (default `true`). Disable for timing runs that only
    /// need the slack — the paper's experiments time the DP this way.
    pub track_predecessors: bool,
    /// The wire-delay model (default [`DelayModel::Elmore`], the paper's
    /// arithmetic). See `fastbuf_rctree::delay`.
    pub delay_model: DelayModel,
    /// Optional per-net maximum output slew at every buffer input and sink
    /// (default `None` = unconstrained). With a finite limit, candidates
    /// whose stage would violate it are pruned; whether the returned
    /// solution meets the limit is reported in
    /// [`Solution::slew_ok`](crate::Solution::slew_ok). A non-finite limit
    /// behaves exactly like `None`.
    pub slew_limit: Option<Seconds>,
    /// Factor on every sink's required arrival time, applied as
    /// `rat × rat_derate` where the DP seeds the sink (default `1.0`,
    /// exact; a pessimistic corner uses `< 1.0`). Must be finite and
    /// positive, and keep every RAT finite.
    pub rat_derate: f64,
    /// Optional per-node buffer-usage prices in seconds, indexed by
    /// [`NodeId::index`] (default `None` = all zero). Inserting any buffer
    /// at node `v` charges `site_prices[v]` like extra intrinsic delay, so
    /// the DP solves the Lagrangian-priced subproblem *exactly* — a
    /// constant subtraction at one node changes neither the α argmax nor
    /// the hull-walk order (see `docs/ALGORITHM.md` §10). Nodes past the
    /// end of the slice (and a `None` slice) are unpriced; subtracting
    /// `0.0` is bit-exact, so unpriced solves are unchanged.
    ///
    /// Deliberately **not** part of the [`SubtreeCache`] fingerprint:
    /// re-pricing is a localized edit, and dirtying the affected root
    /// paths is the caller's obligation, exactly like tree edits
    /// (`fastbuf-incremental`'s `IncrementalSolver::set_site_prices` wraps
    /// price update + path dirtying so they can never drift apart).
    pub site_prices: Option<Arc<[f64]>>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            algorithm: Algorithm::default(),
            track_predecessors: true,
            delay_model: DelayModel::Elmore,
            slew_limit: None,
            rat_derate: 1.0,
            site_prices: None,
        }
    }
}

/// Optimal buffer insertion on one routing tree.
///
/// # Example
///
/// ```
/// use fastbuf_buflib::{BufferLibrary, Driver, Technology};
/// use fastbuf_buflib::units::{Farads, Microns, Ohms, Seconds};
/// use fastbuf_rctree::{TreeBuilder, Wire};
/// use fastbuf_core::{Algorithm, Solver};
///
/// // 10 mm two-pin line with 9 buffer sites.
/// let tech = Technology::tsmc180_like();
/// let lib = BufferLibrary::paper_synthetic(8)?;
/// let mut b = TreeBuilder::new();
/// let src = b.source(Driver::new(Ohms::new(180.0)));
/// let mut prev = src;
/// for _ in 0..9 {
///     let site = b.buffer_site();
///     b.connect(prev, site, Wire::from_length(&tech, Microns::new(1000.0)))?;
///     prev = site;
/// }
/// let snk = b.sink(Farads::from_femto(20.0), Seconds::from_pico(2000.0));
/// b.connect(prev, snk, Wire::from_length(&tech, Microns::new(1000.0)))?;
/// let tree = b.build()?;
///
/// let solution = Solver::new(&tree, &lib).solve();
/// assert!(!solution.placements.is_empty(), "long line wants buffers");
/// // The slack the DP predicts is exactly what a forward Elmore
/// // evaluation of the placements measures:
/// solution.verify(&tree, &lib)?;
///
/// // The O(b^2 n^2) baseline finds the same optimum.
/// let baseline = Solver::new(&tree, &lib)
///     .algorithm(Algorithm::Lillis)
///     .solve();
/// assert!((baseline.slack.picos() - solution.slack.picos()).abs() < 1e-6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Solver<'a> {
    tree: &'a RoutingTree,
    library: &'a BufferLibrary,
    options: SolverOptions,
}

impl<'a> Solver<'a> {
    /// Creates a solver with default options ([`Algorithm::LiShi`],
    /// predecessor tracking on).
    pub fn new(tree: &'a RoutingTree, library: &'a BufferLibrary) -> Self {
        Solver {
            tree,
            library,
            options: SolverOptions::default(),
        }
    }

    /// Replaces all options.
    #[must_use]
    pub fn with_options(mut self, options: SolverOptions) -> Self {
        self.options = options;
        self
    }

    /// Selects the algorithm.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.options.algorithm = algorithm;
        self
    }

    /// Enables or disables predecessor tracking.
    #[must_use]
    pub fn track_predecessors(mut self, track: bool) -> Self {
        self.options.track_predecessors = track;
        self
    }

    /// Selects the wire-delay model (default [`DelayModel::Elmore`]).
    #[must_use]
    pub fn delay_model(mut self, model: DelayModel) -> Self {
        self.options.delay_model = model;
        self
    }

    /// Sets (or, with a non-finite value, clears) the per-net maximum
    /// output slew.
    #[must_use]
    pub fn slew_limit(mut self, limit: Seconds) -> Self {
        self.options.slew_limit = limit.is_finite().then_some(limit);
        self
    }

    /// Sets (or, with `None`, clears) the per-node buffer-usage prices
    /// (see [`SolverOptions::site_prices`]).
    #[must_use]
    pub fn site_prices(mut self, prices: Option<Arc<[f64]>>) -> Self {
        self.options.site_prices = prices;
        self
    }

    /// Runs the dynamic program and returns the best solution found.
    ///
    /// For [`Algorithm::Lillis`] and [`Algorithm::LiShi`] the result is the
    /// provably optimal slack; for [`Algorithm::LiShiPermanent`] it may be
    /// slightly below optimal on multi-pin nets (see `docs/ALGORITHM.md`
    /// §5).
    pub fn solve(&self) -> Solution {
        self.solve_with(&mut SolveWorkspace::new())
    }

    /// [`Solver::solve`] with caller-provided reusable state.
    ///
    /// Identical output to [`Solver::solve`]; the workspace only recycles
    /// allocations between calls. Use one [`SolveWorkspace`] per thread and
    /// pass it to every solve on that thread — this is how the batch
    /// subsystem (`fastbuf-batch`) eliminates per-net allocation churn.
    pub fn solve_with(&self, workspace: &mut SolveWorkspace) -> Solution {
        self.solve_impl(workspace, None)
    }

    /// [`Solver::solve_with`] through a persistent [`SubtreeCache`]: only
    /// nodes the cache marks dirty are recomputed; every clean node's
    /// candidate list is spliced into merges straight from the cache.
    ///
    /// The result is **bit-identical** to a from-scratch solve of the same
    /// tree under the same options — cached lists hold exactly the values a
    /// fresh bottom-up pass would recompute (`N(T_v)` depends only on the
    /// subtree below `v` and the solve configuration), so the arithmetic
    /// and its order never change; only redundant recomputation is skipped.
    /// The differential harness `tests/incremental_equivalence.rs` asserts
    /// this across random edit scripts, algorithms, and slew modes.
    ///
    /// On any configuration mismatch (algorithm, tracking, slew limit, delay
    /// model, RAT derate, library content, node count) the cache flushes
    /// itself and the solve runs cold — a stale-config reuse is structurally
    /// impossible, not a caller obligation. Dirtiness for *tree edits* is
    /// the caller's obligation (see [`SubtreeCache::mark_path_dirty`]);
    /// `fastbuf-incremental`'s `IncrementalSolver` wraps tree, cache, and
    /// solver so the two can never drift apart.
    ///
    /// [`SolveStats::nodes_recomputed`] / [`SolveStats::nodes_reused`]
    /// report the split; `arena_entries` reports the cache arena's
    /// cumulative size (it is append-only across cached solves).
    pub fn solve_cached(
        &self,
        workspace: &mut SolveWorkspace,
        cache: &mut SubtreeCache,
    ) -> Solution {
        cache.prepare(CacheFingerprint::of(
            &self.options,
            self.library,
            self.tree.node_count(),
        ));
        self.solve_impl(workspace, Some(cache))
    }

    /// The max-slack solve: a bottom-up pass of the one-list lane
    /// ([`OneList`]) over the struct-of-arrays [`CandidateSlab`]. With
    /// `cache = None` the workspace arena is cleared and every node is
    /// solved; with a cache, clean nodes are skipped, their lists loaded
    /// from the cache at the parent's merge, recomputed lists stored back
    /// as the footprint roles say, and the *cache's* arena used
    /// append-only so cached `PredRef`s stay valid across solves.
    fn solve_impl(
        &self,
        workspace: &mut SolveWorkspace,
        cache: Option<&mut SubtreeCache>,
    ) -> Solution {
        let start = Instant::now();
        let tree = self.tree;
        let ctx = SlabCtx::new(tree, self.library, &self.options);

        let mut stats = SolveStats::default();
        let SolveWorkspace {
            arena: ws_arena,
            scratch,
            slab,
            lists,
        } = workspace;
        let (cache, arena) = match cache {
            Some(c) => {
                let (view, cache_arena) = c.parts_mut();
                (Some(view), cache_arena)
            }
            None => {
                ws_arena.clear();
                (None, &mut *ws_arena)
            }
        };
        let mut lane = OneList {
            cache,
            ..OneList::new(f64::INFINITY)
        };
        let dp = Dp {
            slab,
            arena,
            scratch,
            stats: &mut stats,
        };
        let root_handle = run_lane(&ctx, &mut lane, dp, lists);
        if lane.cache.is_some() {
            stats.nodes_recomputed = lane.recomputed;
            stats.nodes_reused = tree.node_count() as u64 - lane.recomputed;
        }
        stats.root_list_len = slab.len(root_handle);
        let (i, slew_ok) = ctx.select_root(slab, root_handle);
        let best = slab.view(root_handle).get(i);
        let (dr, dk) = ctx.driver();
        let root_slew = Seconds::new(ctx.model.slew(0.0, dr, best.c, best.s));

        let placements = arena.placements(best.pred);
        stats.elapsed = start.elapsed();

        Solution {
            slack: Seconds::new(best.q - dk - dr * best.c),
            root_q: Seconds::new(best.q),
            root_load: Farads::new(best.c),
            placements,
            algorithm: self.options.algorithm,
            tracked: ctx.track,
            root_slew,
            slew_ok,
            model: ctx.model,
            rat_derate: ctx.rat_derate,
            stats,
        }
    }
}

/// Shared read-only context of one solve, threaded through the
/// node-processing loop and the lanes. Every lane builds it the same way,
/// from its solve's [`SolverOptions`].
pub(crate) struct SlabCtx<'a> {
    pub(crate) tree: &'a RoutingTree,
    pub(crate) lib: &'a BufferLibrary,
    pub(crate) algo: Algorithm,
    pub(crate) track: bool,
    pub(crate) model: DelayModel,
    pub(crate) slew: SlewPolicy,
    pub(crate) rat_derate: f64,
    /// Per-node usage prices ([`SolverOptions::site_prices`]).
    pub(crate) prices: Option<&'a [f64]>,
}

impl<'a> SlabCtx<'a> {
    /// The context of a solve of `tree` over `lib` under `options`.
    ///
    /// # Panics
    ///
    /// Panics on a [`DelayModel::ScaledElmore`] scale that is not finite
    /// and positive: pruning needs a wire shear monotone in load, and a
    /// NaN scale stops it pruning at all, so the lists grow without bound.
    pub(crate) fn new(
        tree: &'a RoutingTree,
        lib: &'a BufferLibrary,
        options: &'a SolverOptions,
    ) -> Self {
        let model = options.delay_model;
        if let DelayModel::ScaledElmore(k) = model {
            assert!(
                k.is_finite() && k > 0.0,
                "wire scale must be finite and positive, got {k}"
            );
        }
        let limit = options.slew_limit.map_or(f64::INFINITY, |s| s.value());
        SlabCtx {
            tree,
            lib,
            algo: options.algorithm,
            track: options.track_predecessors,
            model,
            slew: SlewPolicy::new(model, lib, limit),
            rat_derate: options.rat_derate,
            prices: options.site_prices.as_deref(),
        }
    }

    /// Root selection, the same for every lane: the candidate of `list`
    /// the source driver turns into the most slack. With an active slew
    /// limit the driver closes the final stage, so only candidates it can
    /// drive legally ([`SlabCtx::root_slew`] within budget) are eligible,
    /// with `true`; if none is (the net is infeasible under the limit) the
    /// least-bad candidate is taken, with `false`.
    pub(crate) fn select_root<P: Passenger>(
        &self,
        slab: &CandidateSlab<P>,
        list: SlabList,
    ) -> (usize, bool) {
        let (i, slew_ok, _) = self.select_root_within(slab, list, f64::INFINITY, |_, _| 0.0);
        (i, slew_ok)
    }

    /// [`SlabCtx::select_root`] with a second bound among the candidates
    /// that meet the slew limit: the best one whose `key` is within
    /// `bound`, else the one with the least `key`. Returns the pick and
    /// whether it meets the slew limit and `bound`.
    pub(crate) fn select_root_within<P: Passenger>(
        &self,
        slab: &CandidateSlab<P>,
        list: SlabList,
        bound: f64,
        key: impl Fn(&Columns<P>, usize) -> f64,
    ) -> (usize, bool, bool) {
        let (dr, dk) = self.driver();
        let slew = |cols: &Columns<P>, i: usize| self.root_slew(cols.c[i], cols.s[i]);
        slab.select_root(list, dr, dk, (self.slew.cap, slew), (bound, key))
    }

    /// The stage delay `r·c + s` the source driver closes over a root
    /// candidate of load `c` and stage wire delay `s`: the key the slew
    /// limit's budget bounds.
    pub(crate) fn root_slew(&self, c: f64, s: f64) -> f64 {
        self.driver().0 * c + s
    }

    /// The source driver's resistance and intrinsic delay `(r, k)`.
    pub(crate) fn driver(&self) -> (f64, f64) {
        let driver = self.tree.driver();
        (
            driver.resistance().value(),
            driver.intrinsic_delay().value(),
        )
    }

    /// Buffer site `node` as `AddBuffer` sees it. Prices past the end of
    /// the slice (and a `None` slice) are zero.
    pub(crate) fn site(&self, node: NodeId) -> Site<'_> {
        Site {
            algo: self.algo,
            lib: self.lib,
            constraint: self.tree.site_constraint(node),
            node,
            variation: self.tree.site_variation(node),
            price: self
                .prices
                .map_or(0.0, |p| p.get(node.index()).copied().unwrap_or(0.0)),
            track: self.track,
            slew: &self.slew,
        }
    }
}

/// One objective of the DP: what the loop ([`process_nodes`]) keeps per
/// node and how it merges and buffers it. Lanes are monomorphized into the
/// loop, so a lane pays only for what it adds:
///
/// | lane | lists per node | merge rule | β routing | passengers |
/// |---|---|---|---|---|
/// | max-slack ([`OneList`]) | 1 | plain merge | same list | none |
/// | skew ([`OneList`]) | 1 | plain merge, then width prune | same list | `(lo, hi)` window |
/// | polarity | 2 | per polarity; an empty side is infeasible | list picked by the type's inverting flag | none |
/// | cost | `w_max + 1` | level convolution, then level dominance | level `w + cost`, if it fits | none |
pub(crate) trait Lane {
    /// Passenger columns riding the slab (`()` for none).
    type P: Passenger;
    /// One node's lists.
    type Set;
    /// A sink's set: which list the singleton `(q, c)` seeds.
    fn sink(&self, slab: &mut CandidateSlab<Self::P>, node: NodeId, q: f64, c: f64) -> Self::Set;
    /// Calls `f` on every list of `set` (wire propagation, statistics).
    fn each_list(set: &Self::Set, f: impl FnMut(SlabList));
    /// The merge rule: combines two children's sets (after their wires).
    fn merge(
        &self,
        ctx: &SlabCtx<'_>,
        dp: &mut Dp<'_, Self::P>,
        a: Self::Set,
        b: Self::Set,
    ) -> Self::Set;
    /// `AddBuffer` at buffer site `node`: where each type's β goes, and
    /// any extra prune.
    fn add_buffers(
        &self,
        ctx: &SlabCtx<'_>,
        dp: &mut Dp<'_, Self::P>,
        set: &mut Self::Set,
        node: NodeId,
    );
    /// `true` for a node whose set is already known, so the loop skips it.
    fn skip(&self, _node: NodeId) -> bool {
        false
    }
    /// The set of a skipped child that is not in the loop's `sets`.
    fn reload(&self, _slab: &mut CandidateSlab<Self::P>, _child: NodeId) -> Self::Set {
        unreachable!("this lane skips no node")
    }
    /// Called with every node's set once the loop has computed it.
    fn finish(&mut self, _slab: &mut CandidateSlab<Self::P>, _node: NodeId, _set: &Self::Set) {}
}

/// The one-list lane: max-slack ([`Solver`], no passengers) and skew (the
/// `Window` passenger, and the width prune after each merge under
/// `bound`). It alone skips nodes: under a [`SubtreeCache`], clean ones.
pub(crate) struct OneList<'a, P: Passenger> {
    /// The window-width bound of the skew lane (`∞`: none).
    bound: f64,
    cache: Option<CacheView<'a, P>>,
    /// Nodes recomputed under the cache.
    recomputed: u64,
}

impl<P: Passenger> OneList<'_, P> {
    /// A lane that prunes windows wider than `bound` and skips no node.
    pub(crate) fn new(bound: f64) -> Self {
        OneList {
            bound,
            cache: None,
            recomputed: 0,
        }
    }
}

impl<P: Passenger> Lane for OneList<'_, P> {
    type P = P;
    type Set = SlabList;

    fn sink(&self, slab: &mut CandidateSlab<P>, _: NodeId, q: f64, c: f64) -> SlabList {
        slab.sink(q, c)
    }

    fn each_list(set: &SlabList, mut f: impl FnMut(SlabList)) {
        f(*set);
    }

    fn merge(&self, ctx: &SlabCtx<'_>, dp: &mut Dp<'_, P>, a: SlabList, b: SlabList) -> SlabList {
        let merged = dp
            .slab
            .merge(a, b, dp.arena, ctx.track, ctx.slew.cap, dp.stats);
        // Width only grows at merges, so this is the one place a skew
        // bound prunes.
        dp.slab.prune_width(merged, self.bound);
        merged
    }

    fn add_buffers(&self, ctx: &SlabCtx<'_>, dp: &mut Dp<'_, P>, set: &mut SlabList, node: NodeId) {
        add_buffers(&ctx.site(node), dp, *set);
    }

    fn skip(&self, node: NodeId) -> bool {
        self.cache.as_ref().is_some_and(|c| c.is_clean(node))
    }

    fn reload(&self, slab: &mut CandidateSlab<P>, child: NodeId) -> SlabList {
        let cache = self
            .cache
            .as_ref()
            .expect("only clean cached nodes are skipped");
        slab.load(cache.cached(child))
    }

    fn finish(&mut self, slab: &mut CandidateSlab<P>, node: NodeId, set: &SlabList) {
        if let Some(c) = self.cache.as_mut() {
            if let Some(snapshot) = c.finish(node) {
                slab.store(*set, snapshot);
            }
            self.recomputed += 1;
        }
    }
}

/// The mutable state of one DP pass: the slab the lists live in, the
/// predecessor arena, the `AddBuffer` scratch and the counters.
pub(crate) struct Dp<'s, P: Passenger> {
    pub(crate) slab: &'s mut CandidateSlab<P>,
    pub(crate) arena: &'s mut PredArena,
    pub(crate) scratch: &'s mut Scratch<P>,
    pub(crate) stats: &'s mut SolveStats,
}

/// Fresh owned state for one DP pass, for the front ends that solve
/// without a [`SolveWorkspace`] (skew, polarity, cost): lend it to
/// [`run_lane`] with [`DpState::dp`], then read the slab, arena and counters.
#[derive(Debug, Default)]
pub(crate) struct DpState<P: Passenger> {
    pub(crate) slab: CandidateSlab<P>,
    pub(crate) arena: PredArena,
    scratch: Scratch<P>,
    pub(crate) stats: SolveStats,
}

impl<P: Passenger> DpState<P> {
    /// Lends the state out as one pass's [`Dp`].
    pub(crate) fn dp(&mut self) -> Dp<'_, P> {
        Dp {
            slab: &mut self.slab,
            arena: &mut self.arena,
            scratch: &mut self.scratch,
            stats: &mut self.stats,
        }
    }
}

/// The bottom-up DP loop — every lane's only one. Runs `lane` over the
/// tree in postorder: seeds sinks, propagates each child's lists through
/// its wire, merges siblings by the lane's rule and runs the lane's
/// `AddBuffer` at buffer sites, leaving each node's set in `sets`.
fn process_nodes<L: Lane>(
    ctx: &SlabCtx<'_>,
    lane: &mut L,
    sets: &mut [Option<L::Set>],
    dp: &mut Dp<'_, L::P>,
) {
    for &node in ctx.tree.postorder() {
        if lane.skip(node) {
            continue;
        }
        let set = match ctx.tree.kind(node) {
            NodeKind::Sink {
                capacitance,
                required_arrival,
            } => {
                let rat = required_arrival.value() * ctx.rat_derate;
                lane.sink(dp.slab, node, rat, capacitance.value())
            }
            NodeKind::Internal | NodeKind::Source { .. } => {
                let mut acc: Option<L::Set> = None;
                for &child in ctx.tree.children(node) {
                    let cs = match sets[child.index()].take() {
                        Some(cs) => cs,
                        None => lane.reload(dp.slab, child),
                    };
                    let wire = ctx
                        .tree
                        .wire_to_parent(child)
                        .expect("non-root child has a wire");
                    let (r, cw) = (wire.resistance().value(), wire.capacitance().value());
                    L::each_list(&cs, |list| {
                        dp.slab.add_wire(list, ctx.model, r, cw, dp.stats);
                        if ctx.slew.active() {
                            dp.stats.slew_pruned += dp.slab.prune_slew(list, ctx.slew.cap) as u64;
                        }
                    });
                    dp.stats.wire_ops += 1;
                    acc = Some(match acc {
                        None => cs,
                        Some(prev) => {
                            dp.stats.merge_ops += 1;
                            lane.merge(ctx, dp, prev, cs)
                        }
                    });
                }
                let mut set = acc.expect("internal nodes have children");
                if ctx.tree.is_buffer_site(node) {
                    lane.add_buffers(ctx, dp, &mut set, node);
                }
                set
            }
        };
        L::each_list(&set, |list| {
            dp.stats.max_list_len = dp.stats.max_list_len.max(dp.slab.len(list));
        });
        lane.finish(dp.slab, node, &set);
        sets[node.index()] = Some(set);
    }
}

/// Runs `lane` over the tree on `dp`'s slab, arena and scratch, with
/// `sets` as the per-node sets — every solve's one driver. Resets the slab
/// and `sets` (the arena is the caller's: a cached solve appends to the
/// cache's), fills the counters' arena size and slab peak, and returns the
/// root's set, reloaded when the lane skipped the root.
pub(crate) fn run_lane<L: Lane>(
    ctx: &SlabCtx<'_>,
    lane: &mut L,
    mut dp: Dp<'_, L::P>,
    sets: &mut Vec<Option<L::Set>>,
) -> L::Set {
    dp.slab.reset();
    sets.clear();
    sets.resize_with(ctx.tree.node_count(), || None);
    process_nodes(ctx, lane, sets, &mut dp);
    let root = ctx.tree.root();
    let root = match sets[root.index()].take() {
        Some(set) => set,
        None => lane.reload(dp.slab, root),
    };
    dp.stats.arena_entries = dp.arena.len();
    dp.stats.slab_bytes_peak = dp.slab.peak_bytes();
    root
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbuf_buflib::units::{Microns, Ohms};
    use fastbuf_buflib::{BufferType, Driver, Technology};
    use fastbuf_rctree::elmore;
    use fastbuf_rctree::{TreeBuilder, Wire};

    fn paper_lib(b: usize) -> BufferLibrary {
        BufferLibrary::paper_synthetic(b).unwrap()
    }

    fn two_pin_line(len_mm: f64, sites: usize, rat_ps: f64) -> fastbuf_rctree::RoutingTree {
        let tech = Technology::tsmc180_like();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(180.0)));
        let mut prev = src;
        let seg = Microns::new(len_mm * 1000.0 / (sites + 1) as f64);
        for _ in 0..sites {
            let s = b.buffer_site();
            b.connect(prev, s, Wire::from_length(&tech, seg)).unwrap();
            prev = s;
        }
        let snk = b.sink(Farads::from_femto(20.0), Seconds::from_pico(rat_ps));
        b.connect(prev, snk, Wire::from_length(&tech, seg)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn unbuffered_matches_elmore_evaluator() {
        let tree = two_pin_line(2.0, 0, 1000.0);
        let lib = BufferLibrary::empty();
        let sol = Solver::new(&tree, &lib).solve();
        let eval = elmore::evaluate(&tree, &lib, &[]).unwrap();
        assert!((sol.slack.picos() - eval.slack.picos()).abs() < 1e-9);
        assert!(sol.placements.is_empty());
    }

    #[test]
    fn buffering_beats_unbuffered_on_long_line() {
        let tree = two_pin_line(10.0, 9, 2000.0);
        let lib = paper_lib(8);
        let unbuffered = Solver::new(&tree, &BufferLibrary::empty()).solve();
        let buffered = Solver::new(&tree, &lib).solve();
        assert!(buffered.slack > unbuffered.slack + Seconds::from_pico(50.0));
        assert!(!buffered.placements.is_empty());
    }

    #[test]
    fn predicted_slack_matches_forward_evaluation() {
        let tree = two_pin_line(10.0, 9, 2000.0);
        let lib = paper_lib(8);
        for algo in Algorithm::ALL {
            let sol = Solver::new(&tree, &lib).algorithm(algo).solve();
            let placements: Vec<_> = sol.placements.iter().map(|p| (p.node, p.buffer)).collect();
            let eval = elmore::evaluate(&tree, &lib, &placements).unwrap();
            assert!(
                (sol.slack.picos() - eval.slack.picos()).abs() < 1e-6,
                "{algo}: predicted {} vs measured {}",
                sol.slack,
                eval.slack
            );
        }
    }

    #[test]
    fn all_algorithms_agree_on_two_pin_nets() {
        for sites in [1usize, 3, 10, 40] {
            let tree = two_pin_line(8.0, sites, 1500.0);
            let lib = paper_lib(16);
            let slacks: Vec<f64> = Algorithm::ALL
                .iter()
                .map(|&a| Solver::new(&tree, &lib).algorithm(a).solve().slack.picos())
                .collect();
            // Permanent pruning is exact on 2-pin nets.
            for s in &slacks {
                assert!((s - slacks[0]).abs() < 1e-6, "sites={sites}: {slacks:?}");
            }
        }
    }

    #[test]
    fn untracked_solve_matches_tracked_slack() {
        let tree = two_pin_line(6.0, 12, 1500.0);
        let lib = paper_lib(8);
        let tracked = Solver::new(&tree, &lib).solve();
        let untracked = Solver::new(&tree, &lib).track_predecessors(false).solve();
        assert_eq!(tracked.slack, untracked.slack);
        assert!(untracked.placements.is_empty());
        assert!(!untracked.tracked);
        assert_eq!(untracked.stats.arena_entries, 0);
        assert!(tracked.stats.arena_entries > 0);
    }

    #[test]
    fn multi_pin_tee_all_exact_algorithms_agree() {
        let tech = Technology::tsmc180_like();
        let lib = paper_lib(8);
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(300.0)));
        let s1 = b.buffer_site();
        let tee = b.internal();
        let s2 = b.buffer_site();
        let s3 = b.buffer_site();
        let k1 = b.sink(Farads::from_femto(12.0), Seconds::from_pico(600.0));
        let k2 = b.sink(Farads::from_femto(30.0), Seconds::from_pico(900.0));
        b.connect(src, s1, Wire::from_length(&tech, Microns::new(1200.0)))
            .unwrap();
        b.connect(s1, tee, Wire::from_length(&tech, Microns::new(800.0)))
            .unwrap();
        b.connect(tee, s2, Wire::from_length(&tech, Microns::new(1500.0)))
            .unwrap();
        b.connect(s2, k1, Wire::from_length(&tech, Microns::new(500.0)))
            .unwrap();
        b.connect(tee, s3, Wire::from_length(&tech, Microns::new(2500.0)))
            .unwrap();
        b.connect(s3, k2, Wire::from_length(&tech, Microns::new(700.0)))
            .unwrap();
        let tree = b.build().unwrap();

        let a = Solver::new(&tree, &lib)
            .algorithm(Algorithm::Lillis)
            .solve();
        let c = Solver::new(&tree, &lib).algorithm(Algorithm::LiShi).solve();
        assert!((a.slack.picos() - c.slack.picos()).abs() < 1e-6);
        // Verify both against the forward evaluator.
        a.verify(&tree, &lib).unwrap();
        c.verify(&tree, &lib).unwrap();
        // Permanent pruning may or may not match here; it must never win.
        let p = Solver::new(&tree, &lib)
            .algorithm(Algorithm::LiShiPermanent)
            .solve();
        assert!(p.slack.picos() <= a.slack.picos() + 1e-6);
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let lib = paper_lib(8);
        let mut ws = SolveWorkspace::new();
        // Mixed shapes and sizes through one workspace, interleaved with
        // fresh solves: every pair must agree exactly, including the
        // reconstruction (PredRefs are arena-relative and the arena is
        // cleared per solve).
        for (mm, sites, rat) in [(10.0, 9, 2000.0), (3.0, 2, 700.0), (6.0, 25, 1500.0)] {
            let tree = two_pin_line(mm, sites, rat);
            let reused = Solver::new(&tree, &lib).solve_with(&mut ws);
            let fresh = Solver::new(&tree, &lib).solve();
            assert_eq!(reused.slack, fresh.slack);
            assert_eq!(reused.placements, fresh.placements);
            assert_eq!(reused.stats.arena_entries, fresh.stats.arena_entries);
            reused.verify(&tree, &lib).unwrap();
        }
    }

    #[test]
    fn workspace_reuse_matches_on_branchy_nets() {
        let lib = paper_lib(16);
        let mut ws = SolveWorkspace::new();
        for seed in 1u64..5 {
            let tree = fastbuf_netgen::RandomNetSpec {
                sinks: 24,
                seed,
                ..fastbuf_netgen::RandomNetSpec::default()
            }
            .build();
            for algo in Algorithm::ALL {
                let reused = Solver::new(&tree, &lib).algorithm(algo).solve_with(&mut ws);
                let fresh = Solver::new(&tree, &lib).algorithm(algo).solve();
                assert_eq!(reused.slack, fresh.slack, "{algo} seed {seed}");
                assert_eq!(reused.placements, fresh.placements, "{algo} seed {seed}");
            }
        }
    }

    #[test]
    fn stats_are_populated() {
        let tree = two_pin_line(5.0, 20, 1000.0);
        let lib = paper_lib(8);
        let sol = Solver::new(&tree, &lib).solve();
        let s = &sol.stats;
        assert_eq!(s.wire_ops, 21); // 20 sites + sink wires
        assert_eq!(s.addbuffer_ops, 20);
        assert_eq!(s.merge_ops, 0);
        assert!(s.hull_builds == 20);
        assert!(s.max_list_len >= s.root_list_len);
        assert!(s.root_list_len > 0);
        assert!(s.betas_generated > 0);

        let lillis = Solver::new(&tree, &lib)
            .algorithm(Algorithm::Lillis)
            .solve();
        assert!(lillis.stats.scan_candidate_visits > 0);
        assert_eq!(lillis.stats.hull_builds, 0);
    }

    #[test]
    fn zero_resistance_driver_picks_max_q() {
        let tech = Technology::tsmc180_like();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::default()); // ideal driver
        let site = b.buffer_site();
        let snk = b.sink(Farads::from_femto(10.0), Seconds::from_pico(800.0));
        b.connect(src, site, Wire::from_length(&tech, Microns::new(2000.0)))
            .unwrap();
        b.connect(site, snk, Wire::from_length(&tech, Microns::new(2000.0)))
            .unwrap();
        let tree = b.build().unwrap();
        let lib = paper_lib(4);
        let sol = Solver::new(&tree, &lib).solve();
        assert_eq!(sol.slack, sol.root_q); // no driver penalty
    }

    /// Acceptance anchor: with `slew_limit = ∞` and the Elmore backend the
    /// solver output is bit-identical to pre-seam behavior — asserted
    /// against slack bit patterns recorded from the code before the
    /// `DelayModel` refactor, and against an explicitly-optioned solve.
    #[test]
    fn infinite_slew_limit_elmore_is_bit_identical_to_pre_seam_golden() {
        let lib = paper_lib(8);
        let tree = fastbuf_netgen::line_net(Microns::new(10_000.0), 9);
        let default = Solver::new(&tree, &lib).solve();
        assert_eq!(
            default.slack.value().to_bits(),
            0x3e1a5a255d0ebf4c,
            "slack drifted from pre-refactor golden: {}",
            default.slack
        );
        assert_eq!(default.placements.len(), 2);
        assert!(default.slew_ok);

        // Explicit options: Elmore model + infinite limit must take the
        // same path bit for bit (a non-finite limit means "no limit").
        let explicit = Solver::new(&tree, &lib)
            .delay_model(DelayModel::Elmore)
            .slew_limit(Seconds::new(f64::INFINITY))
            .solve();
        assert_eq!(
            explicit.slack.value().to_bits(),
            default.slack.value().to_bits()
        );
        assert_eq!(explicit.placements, default.placements);

        let lib16 = fastbuf_buflib::BufferLibrary::paper_synthetic_jittered(16, 7).unwrap();
        let tree2 = fastbuf_netgen::RandomNetSpec {
            sinks: 24,
            seed: 3,
            ..fastbuf_netgen::RandomNetSpec::default()
        }
        .build();
        for algo in Algorithm::ALL {
            let s = Solver::new(&tree2, &lib16).algorithm(algo).solve();
            assert_eq!(
                s.slack.value().to_bits(),
                0x3e0969bfd7419c0c,
                "{algo} drifted from pre-refactor golden"
            );
            assert_eq!(s.placements.len(), 24, "{algo}");
        }
    }

    #[test]
    fn finite_slew_limit_yields_feasible_placements() {
        use fastbuf_rctree::elmore::evaluate_with;
        let lib = paper_lib(8);
        let tree = two_pin_line(10.0, 9, 2000.0);
        let unconstrained = Solver::new(&tree, &lib).solve();
        let unc_eval =
            fastbuf_rctree::elmore::evaluate(&tree, &lib, &unconstrained.placement_pairs())
                .unwrap();
        // Pick a limit tighter than the unconstrained solution's worst slew
        // but loose enough that buffering can meet it.
        let limit = unc_eval.max_slew * 0.8;
        let sol = Solver::new(&tree, &lib).slew_limit(limit).solve();
        assert!(sol.slew_ok, "line with 9 sites must be feasible");
        let eval =
            evaluate_with(&tree, &lib, &sol.placement_pairs(), DelayModel::Elmore, 1.0).unwrap();
        assert!(
            eval.max_slew.value() <= limit.value() * (1.0 + 1e-9),
            "forward slew {} exceeds limit {}",
            eval.max_slew,
            limit
        );
        // Tightening a constraint can only cost slack.
        assert!(sol.slack.value() <= unconstrained.slack.value() + 1e-15);
        sol.verify(&tree, &lib).unwrap();
    }

    #[test]
    fn tighter_limits_need_at_least_as_many_buffers() {
        let lib = paper_lib(8);
        let tree = two_pin_line(12.0, 11, 3000.0);
        let loose = Solver::new(&tree, &lib)
            .slew_limit(Seconds::from_pico(400.0))
            .solve();
        let tight = Solver::new(&tree, &lib)
            .slew_limit(Seconds::from_pico(120.0))
            .solve();
        assert!(loose.slew_ok && tight.slew_ok);
        assert!(tight.placements.len() >= loose.placements.len());
        assert!(tight.slack.value() <= loose.slack.value() + 1e-15);
    }

    #[test]
    fn infeasible_slew_limit_is_flagged_not_panicked() {
        // No buffer sites on a long wire: nothing can fix the slew.
        let tree = two_pin_line(10.0, 0, 2000.0);
        let lib = paper_lib(4);
        let sol = Solver::new(&tree, &lib)
            .slew_limit(Seconds::from_pico(1.0))
            .solve();
        assert!(!sol.slew_ok);
        assert!(sol.root_slew > Seconds::from_pico(1.0));
        // Best-effort solution still verifies as a timing solution.
        sol.verify(&tree, &lib).unwrap();
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn a_nan_wire_scale_is_refused_before_the_dp_runs() {
        let tree = two_pin_line(10.0, 9, 2000.0);
        let lib = paper_lib(4);
        let nan = DelayModel::ScaledElmore(f64::NAN);
        let _ = Solver::new(&tree, &lib).delay_model(nan).solve();
    }

    #[test]
    fn scaled_elmore_backend_solves_and_verifies() {
        let lib = paper_lib(8);
        let tree = two_pin_line(10.0, 9, 2000.0);
        let model = DelayModel::SCALED_ELMORE;
        let sol = Solver::new(&tree, &lib).delay_model(model).solve();
        assert_eq!(sol.model, model);
        // Predicted slack must match a forward evaluation under the same
        // model (and differ from the Elmore prediction on this wire-heavy
        // net).
        sol.verify(&tree, &lib).unwrap();
        let elmore = Solver::new(&tree, &lib).solve();
        assert!(
            (sol.slack.value() - elmore.slack.value()).abs() > 1e-15,
            "scaled model should change the optimum on a wire-dominated net"
        );
        assert!(sol.slack > elmore.slack, "less wire delay -> more slack");
        // And the scaled backend honours slew limits too.
        let constrained = Solver::new(&tree, &lib)
            .delay_model(model)
            .slew_limit(Seconds::from_pico(150.0))
            .solve();
        assert!(constrained.slew_ok);
        let eval = fastbuf_rctree::elmore::evaluate_with(
            &tree,
            &lib,
            &constrained.placement_pairs(),
            model,
            1.0,
        )
        .unwrap();
        assert!(eval.max_slew.picos() <= 150.0 * (1.0 + 1e-9));
    }

    #[test]
    fn workspace_reuse_is_bit_identical_in_slew_mode() {
        let lib = paper_lib(8);
        let mut ws = SolveWorkspace::new();
        for (mm, sites) in [(10.0, 9), (6.0, 25)] {
            let tree = two_pin_line(mm, sites, 2000.0);
            let mk = || Solver::new(&tree, &lib).slew_limit(Seconds::from_pico(200.0));
            let reused = mk().solve_with(&mut ws);
            let fresh = mk().solve();
            assert_eq!(reused.slack, fresh.slack);
            assert_eq!(reused.placements, fresh.placements);
            assert_eq!(reused.slew_ok, fresh.slew_ok);
        }
    }

    #[test]
    fn cached_solve_is_bit_identical_and_reuses_on_resolve() {
        use crate::cache::SubtreeCache;
        let lib = paper_lib(8);
        let mut tree = two_pin_line(10.0, 9, 2000.0);
        let mut ws = SolveWorkspace::new();
        let mut cache = SubtreeCache::new();

        // Cold cached solve == scratch solve, bit for bit.
        let cold = Solver::new(&tree, &lib).solve_cached(&mut ws, &mut cache);
        let scratch = Solver::new(&tree, &lib).solve();
        assert_eq!(
            cold.slack.value().to_bits(),
            scratch.slack.value().to_bits()
        );
        assert_eq!(cold.placements, scratch.placements);
        assert_eq!(cold.stats.nodes_recomputed, tree.node_count() as u64);
        assert_eq!(cold.stats.nodes_reused, 0);
        assert_eq!(cache.cached_nodes(), tree.node_count());

        // Re-solve with no edits: everything is reused, same answer.
        let warm = Solver::new(&tree, &lib).solve_cached(&mut ws, &mut cache);
        assert_eq!(
            warm.slack.value().to_bits(),
            scratch.slack.value().to_bits()
        );
        assert_eq!(warm.placements, scratch.placements);
        assert_eq!(warm.stats.nodes_recomputed, 0);
        assert_eq!(warm.stats.nodes_reused, tree.node_count() as u64);

        // On a line net the sink's root path *is* the whole tree; an edit
        // still goes through the cached path and stays bit-identical.
        let sink = tree.sinks().next().unwrap();
        tree.set_sink_rat(sink, Seconds::from_pico(1500.0)).unwrap();
        cache.mark_path_dirty(&tree, sink);
        let eco = Solver::new(&tree, &lib).solve_cached(&mut ws, &mut cache);
        let fresh = Solver::new(&tree, &lib).solve();
        assert_eq!(eco.slack.value().to_bits(), fresh.slack.value().to_bits());
        assert_eq!(eco.placements, fresh.placements);
        assert!(eco.stats.nodes_recomputed > 0);

        // On a branchy net a single-leaf edit recomputes only its root
        // path — strictly fewer nodes than the tree holds.
        let mut branchy = fastbuf_netgen::RandomNetSpec {
            sinks: 24,
            seed: 7,
            ..fastbuf_netgen::RandomNetSpec::default()
        }
        .build();
        let mut cache2 = SubtreeCache::new();
        let _ = Solver::new(&branchy, &lib).solve_cached(&mut ws, &mut cache2);
        let sink = branchy.sinks().last().unwrap();
        branchy
            .set_sink_rat(sink, Seconds::from_pico(900.0))
            .unwrap();
        cache2.mark_path_dirty(&branchy, sink);
        let eco = Solver::new(&branchy, &lib).solve_cached(&mut ws, &mut cache2);
        let fresh = Solver::new(&branchy, &lib).solve();
        assert_eq!(eco.slack.value().to_bits(), fresh.slack.value().to_bits());
        assert_eq!(eco.placements, fresh.placements);
        assert!(eco.stats.nodes_recomputed > 0);
        assert!(
            eco.stats.nodes_recomputed < branchy.node_count() as u64,
            "a single-leaf edit must not recompute the whole tree: {} of {}",
            eco.stats.nodes_recomputed,
            branchy.node_count()
        );
        assert_eq!(
            eco.stats.nodes_recomputed + eco.stats.nodes_reused,
            branchy.node_count() as u64
        );
    }

    #[test]
    fn cached_solve_flushes_on_config_change() {
        use crate::cache::SubtreeCache;
        let lib = paper_lib(8);
        let tree = two_pin_line(8.0, 7, 1800.0);
        let n = tree.node_count() as u64;
        let mut ws = SolveWorkspace::new();
        let mut cache = SubtreeCache::new();
        let _ = Solver::new(&tree, &lib).solve_cached(&mut ws, &mut cache);

        // Changing the slew limit must flush: reusing would be silently
        // wrong. The flushed solve still matches scratch bit for bit.
        let limited = Solver::new(&tree, &lib)
            .slew_limit(Seconds::from_pico(250.0))
            .solve_cached(&mut ws, &mut cache);
        assert_eq!(limited.stats.nodes_recomputed, n);
        let scratch = Solver::new(&tree, &lib)
            .slew_limit(Seconds::from_pico(250.0))
            .solve();
        assert_eq!(
            limited.slack.value().to_bits(),
            scratch.slack.value().to_bits()
        );
        assert_eq!(limited.placements, scratch.placements);
        assert_eq!(limited.slew_ok, scratch.slew_ok);

        // Interleaving two configs through one cache flushes every time —
        // correct (if slow), never stale.
        for _ in 0..2 {
            let a = Solver::new(&tree, &lib).solve_cached(&mut ws, &mut cache);
            assert_eq!(a.stats.nodes_recomputed, n);
            let b = Solver::new(&tree, &lib)
                .slew_limit(Seconds::from_pico(250.0))
                .solve_cached(&mut ws, &mut cache);
            assert_eq!(b.stats.nodes_recomputed, n);
            assert_eq!(b.slack.value().to_bits(), scratch.slack.value().to_bits());
        }

        // A different library (even same size) flushes too.
        let lib2 = fastbuf_buflib::BufferLibrary::paper_synthetic_jittered(8, 5).unwrap();
        let swapped = Solver::new(&tree, &lib2).solve_cached(&mut ws, &mut cache);
        assert_eq!(swapped.stats.nodes_recomputed, n);
        let swapped_scratch = Solver::new(&tree, &lib2).solve();
        assert_eq!(
            swapped.slack.value().to_bits(),
            swapped_scratch.slack.value().to_bits()
        );
    }

    #[test]
    fn cached_solve_handles_branchy_nets_and_all_algorithms() {
        use crate::cache::SubtreeCache;
        let lib = paper_lib(16);
        for algo in Algorithm::ALL {
            let mut tree = fastbuf_netgen::RandomNetSpec {
                sinks: 18,
                seed: 11,
                ..fastbuf_netgen::RandomNetSpec::default()
            }
            .build();
            let mut ws = SolveWorkspace::new();
            let mut cache = SubtreeCache::new();
            let _ = Solver::new(&tree, &lib)
                .algorithm(algo)
                .solve_cached(&mut ws, &mut cache);
            // Edit two different sinks and a wire, re-solving between edits.
            let sinks: Vec<_> = tree.sinks().collect();
            for (i, &s) in sinks.iter().take(3).enumerate() {
                tree.set_sink_cap(s, Farads::from_femto(5.0 + i as f64))
                    .unwrap();
                cache.mark_path_dirty(&tree, s);
                let eco = Solver::new(&tree, &lib)
                    .algorithm(algo)
                    .solve_cached(&mut ws, &mut cache);
                let fresh = Solver::new(&tree, &lib).algorithm(algo).solve();
                assert_eq!(
                    eco.slack.value().to_bits(),
                    fresh.slack.value().to_bits(),
                    "{algo} edit {i}"
                );
                assert_eq!(eco.placements, fresh.placements, "{algo} edit {i}");
            }
        }
    }

    #[test]
    fn solves_are_bit_identical_to_the_oracle() {
        let lib = paper_lib(16);
        for seed in 1u64..6 {
            let tree = fastbuf_netgen::RandomNetSpec {
                sinks: 20,
                seed,
                ..fastbuf_netgen::RandomNetSpec::default()
            }
            .build();
            for algo in Algorithm::ALL {
                for slew in [None, Some(Seconds::from_pico(200.0))] {
                    let options = SolverOptions {
                        algorithm: algo,
                        slew_limit: slew,
                        ..SolverOptions::default()
                    };
                    let oracle = crate::oracle::solve(&tree, &lib, &options);
                    let slab = Solver::new(&tree, &lib).with_options(options).solve();
                    assert_eq!(
                        oracle.slack.value().to_bits(),
                        slab.slack.value().to_bits(),
                        "{algo} seed {seed} slew {slew:?}"
                    );
                    assert_eq!(oracle.placements, slab.placements);
                    assert_eq!(oracle.root_q, slab.root_q);
                    assert_eq!(oracle.root_load, slab.root_load);
                    assert_eq!(oracle.slew_ok, slab.slew_ok);
                    assert_eq!(oracle.root_slew, slab.root_slew);
                    // The DP counters the oracle keeps agree exactly; the
                    // slab-only ones are zero there.
                    let mut shared = slab.stats.clone();
                    shared.slab_candidates_scanned = 0;
                    shared.slab_candidates_pruned = 0;
                    shared.slab_bytes_peak = 0;
                    shared.elapsed = oracle.stats.elapsed;
                    assert_eq!(shared, oracle.stats, "{algo} seed {seed} slew {slew:?}");
                    assert!(slab.stats.slab_bytes_peak > 0);
                }
            }
        }
    }

    #[test]
    fn single_buffer_type_reduces_to_van_ginneken() {
        // b = 1: Lillis degenerates to van Ginneken's original algorithm;
        // all strategies must agree exactly even on branchy nets.
        let tech = Technology::tsmc180_like();
        let lib = BufferLibrary::new(vec![BufferType::new(
            "only",
            Ohms::new(500.0),
            Farads::from_femto(8.0),
            Seconds::from_pico(25.0),
        )])
        .unwrap();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(250.0)));
        let a1 = b.buffer_site();
        let k1 = b.sink(Farads::from_femto(15.0), Seconds::from_pico(700.0));
        let k2 = b.sink(Farads::from_femto(9.0), Seconds::from_pico(650.0));
        b.connect(src, a1, Wire::from_length(&tech, Microns::new(3000.0)))
            .unwrap();
        b.connect(a1, k1, Wire::from_length(&tech, Microns::new(2000.0)))
            .unwrap();
        b.connect(a1, k2, Wire::from_length(&tech, Microns::new(1000.0)))
            .unwrap();
        let tree = b.build().unwrap();
        let slacks: Vec<f64> = Algorithm::ALL
            .iter()
            .map(|&a| Solver::new(&tree, &lib).algorithm(a).solve().slack.picos())
            .collect();
        assert!((slacks[0] - slacks[1]).abs() < 1e-9);
        // With one buffer type every candidate list is small and permanent
        // pruning keeps at least the extremes; still compare:
        assert!(slacks[2] <= slacks[0] + 1e-9);
    }
}
