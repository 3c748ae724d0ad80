//! The shared dynamic-programming engine.
//!
//! All algorithms perform the same bottom-up pass over the routing tree —
//! initialize a candidate at each sink, propagate lists through wires,
//! merge at branch points, and finish by charging the source driver — and
//! differ **only** in the `AddBuffer` operation at buffer positions (see
//! [`crate::buffering`]). This mirrors the paper's decomposition into
//! "three major operations" and guarantees that runtime differences between
//! [`Algorithm`]s measure exactly the operation the paper improves.

use std::sync::Arc;
use std::time::Instant;

use fastbuf_buflib::units::{Farads, Seconds};
use fastbuf_buflib::BufferLibrary;
use fastbuf_rctree::delay::{DelayModel, ElmoreModel};
use fastbuf_rctree::{NodeId, NodeKind, RoutingTree};

use crate::arena::PredArena;
use crate::buffering::{add_buffers, Algorithm, Scratch};
use crate::cache::{CacheFingerprint, CacheView, SubtreeCache};
use crate::slab::{CandidateSlab, Columns, SlabList};
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
/// workspace per worker thread) and, once warm, each solve runs with no
/// steady-state heap traffic.
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
    /// The wire-delay/slew model (default [`ElmoreModel`], which is
    /// bit-identical to the historical hard-coded arithmetic). See
    /// `fastbuf_rctree::delay`.
    pub delay_model: Arc<dyn DelayModel>,
    /// Optional per-net maximum output slew at every buffer input and sink
    /// (default `None` = unconstrained). With a finite limit, candidates
    /// whose stage would violate it are pruned; whether the returned
    /// solution meets the limit is reported in
    /// [`Solution::slew_ok`](crate::Solution::slew_ok). A non-finite limit
    /// behaves exactly like `None`.
    pub slew_limit: Option<Seconds>,
    /// Number of worker threads for *intra-net* sibling-subtree
    /// parallelism (default 1 = sequential). With `n > 1`, the solver
    /// solves independent subtrees of a single net concurrently and joins
    /// them in an order fixed by the tree topology (never completion
    /// order), so results stay bit-identical at every worker count.
    /// Ignored by [`Solver::solve_cached`] (incremental solves recompute
    /// sparse root paths, which have no sibling-subtree work worth forking
    /// for), and a no-op on small nets. Not part of the [`SubtreeCache`]
    /// fingerprint.
    pub intra_net_workers: usize,
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
    /// (`fastbuf-incremental`'s `IncrementalSolver::set_site_price` wraps
    /// price update + path dirtying so they can never drift apart).
    pub site_prices: Option<Arc<[f64]>>,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            algorithm: Algorithm::default(),
            track_predecessors: true,
            delay_model: Arc::new(ElmoreModel),
            slew_limit: None,
            intra_net_workers: 1,
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

    /// Selects the wire-delay/slew model (default
    /// [`ElmoreModel`]).
    #[must_use]
    pub fn delay_model(mut self, model: Arc<dyn DelayModel>) -> Self {
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

    /// Sets the intra-net worker count (see
    /// [`SolverOptions::intra_net_workers`]). Values `<= 1` mean
    /// sequential.
    #[must_use]
    pub fn intra_net_workers(mut self, workers: usize) -> Self {
        self.options.intra_net_workers = workers;
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
    /// On any configuration mismatch (algorithm, tracking, slew limit,
    /// delay-model identity, library content, node count) the cache flushes
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

    /// The DP loop: a bottom-up pass over the tree on the
    /// struct-of-arrays [`CandidateSlab`], after the optional intra-net
    /// parallel phase. With `cache = None` the workspace arena is cleared
    /// and every node is solved; with a cache, clean nodes are skipped,
    /// their lists loaded from the cache at the parent's merge, recomputed
    /// lists stored back as the footprint roles say, and the *cache's*
    /// arena used append-only so cached `PredRef`s stay valid across
    /// solves.
    fn solve_impl(
        &self,
        workspace: &mut SolveWorkspace,
        cache: Option<&mut SubtreeCache>,
    ) -> Solution {
        let start = Instant::now();
        let tree = self.tree;
        let lib = self.library;
        let track = self.options.track_predecessors;
        let algo = self.options.algorithm;
        let model: &dyn DelayModel = &*self.options.delay_model;
        let limit = self.options.slew_limit.map_or(f64::INFINITY, |s| s.value());
        let slew = SlewPolicy::new(model, lib, limit);

        let mut stats = SolveStats::default();
        let SolveWorkspace {
            arena: ws_arena,
            scratch,
            slab,
            lists,
        } = workspace;
        let (mut cache_state, arena) = match cache {
            Some(c) => {
                let (view, cache_arena) = c.parts_mut();
                (Some(view), cache_arena)
            }
            None => {
                ws_arena.clear();
                (None, &mut *ws_arena)
            }
        };
        slab.reset();
        lists.clear();
        lists.resize(tree.node_count(), None);
        let mut recomputed = 0u64;

        let ctx = SlabCtx {
            tree,
            lib,
            algo,
            track,
            model,
            slew: &slew,
            prices: self.options.site_prices.as_deref(),
        };

        // Intra-net parallel phase: fork bounded sibling subtrees to worker
        // threads, join in topology order. Scratch solves only — cached
        // solves recompute sparse root paths with no subtree fan-out worth
        // forking for.
        let workers = self.options.intra_net_workers;
        let covered: Option<Vec<bool>> = if workers > 1 && cache_state.is_none() {
            solve_subtrees_parallel(&ctx, workers, slab, lists, arena, &mut stats)
        } else {
            None
        };

        process_nodes(
            &ctx,
            tree.postorder(),
            covered.as_deref(),
            cache_state.as_mut(),
            &mut recomputed,
            slab,
            lists,
            arena,
            scratch,
            &mut stats,
        );

        let root_handle = match lists[tree.root().index()].take() {
            Some(handle) => handle,
            None => {
                // Every node was clean (a re-solve with no edits): the root
                // list comes straight from the cache.
                slab.load(
                    cache_state
                        .as_ref()
                        .expect("the root is only skipped in cached mode")
                        .cached(tree.root()),
                )
            }
        };
        if cache_state.is_some() {
            stats.nodes_recomputed = recomputed;
            stats.nodes_reused = tree.node_count() as u64 - recomputed;
        }
        stats.root_list_len = slab.len(root_handle);
        let driver = tree.driver();
        let (dr, dk) = (
            driver.resistance().value(),
            driver.intrinsic_delay().value(),
        );
        let view = slab.view(root_handle);
        // Root selection: the unconstrained argmax; with an active slew
        // limit the driver closes the final stage, so only candidates it
        // can drive legally are eligible, and if none is (the net is
        // infeasible under the limit) the least-bad candidate is taken and
        // `slew_ok = false` reported.
        let (best, slew_ok) = if !slew.active() {
            let i = slab
                .best_driven(root_handle, dr, dk)
                .expect("candidate lists are never empty");
            (view.get(i), true)
        } else {
            let mut choice: Option<usize> = None;
            for i in 0..view.len() {
                // `<=` then negate: a NaN stage is infeasible.
                let feasible = dr * view.c[i] + view.s[i] <= slew.cap;
                if !feasible {
                    continue;
                }
                let better = match choice {
                    None => true,
                    Some(b) => view.get(i).driven_q(dr, dk) > view.get(b).driven_q(dr, dk),
                };
                if better {
                    choice = Some(i);
                }
            }
            match choice {
                Some(i) => (view.get(i), true),
                None => {
                    // First minimum by total order.
                    let mut least = 0usize;
                    for i in 1..view.len() {
                        let vi = dr * view.c[i] + view.s[i];
                        let vl = dr * view.c[least] + view.s[least];
                        if vi.total_cmp(&vl) == std::cmp::Ordering::Less {
                            least = i;
                        }
                    }
                    (view.get(least), false)
                }
            }
        };
        let root_slew = Seconds::new(model.slew(0.0, dr, best.c, best.s));

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
        stats.slab_bytes_peak = stats.slab_bytes_peak.max(slab.peak_bytes());
        stats.elapsed = start.elapsed();

        Solution {
            slack: Seconds::new(best.q - dk - dr * best.c),
            root_q: Seconds::new(best.q),
            root_load: Farads::new(best.c),
            placements,
            algorithm: algo,
            tracked: track,
            root_slew,
            slew_ok,
            stats,
        }
    }
}

/// Shared read-only context of one solve, threaded through the
/// node-processing loop and the parallel subtree tasks.
#[derive(Clone, Copy)]
struct SlabCtx<'a> {
    tree: &'a RoutingTree,
    lib: &'a BufferLibrary,
    algo: Algorithm,
    track: bool,
    model: &'a dyn DelayModel,
    slew: &'a SlewPolicy,
    /// Per-node usage prices ([`SolverOptions::site_prices`]); `Copy`
    /// through the ctx so parallel subtree tasks price identically.
    prices: Option<&'a [f64]>,
}

/// The usage price charged at `node`: entries past the end of the slice
/// (and a `None` slice) are unpriced.
#[inline]
fn node_price(prices: Option<&[f64]>, node: NodeId) -> f64 {
    prices.map_or(0.0, |p| p.get(node.index()).copied().unwrap_or(0.0))
}

/// Runs the bottom-up DP body over `nodes` (a postorder sequence).
/// `covered` nodes are skipped (they were solved by a parallel task whose
/// root list is already in `lists`); in cached mode, clean nodes are
/// skipped and recomputed lists are stored back as the cache's footprint
/// roles say.
///
/// This is the single implementation the sequential pass, the cached pass,
/// and every parallel subtree task execute — which is what makes the
/// parallel mode trivially bit-identical: the same code runs the same
/// per-node arithmetic regardless of which thread hosts it.
#[allow(clippy::too_many_arguments)]
fn process_nodes(
    ctx: &SlabCtx<'_>,
    nodes: &[NodeId],
    covered: Option<&[bool]>,
    mut cache_state: Option<&mut CacheView<'_>>,
    recomputed: &mut u64,
    slab: &mut CandidateSlab,
    lists: &mut [Option<SlabList>],
    arena: &mut PredArena,
    scratch: &mut Scratch,
    stats: &mut SolveStats,
) {
    for &node in nodes {
        if covered.is_some_and(|cov| cov[node.index()]) {
            continue; // solved by a parallel subtree task
        }
        if cache_state.as_ref().is_some_and(|c| c.is_clean(node)) {
            continue; // clean subtree: its cached list is reused
        }
        let list = match ctx.tree.kind(node) {
            NodeKind::Sink {
                capacitance,
                required_arrival,
            } => slab.sink(required_arrival.value(), capacitance.value()),
            NodeKind::Internal | NodeKind::Source { .. } => {
                let mut acc: Option<SlabList> = None;
                for &child in ctx.tree.children(node) {
                    let cl = match lists[child.index()].take() {
                        Some(cl) => cl,
                        None => slab.load(
                            cache_state
                                .as_ref()
                                .expect("only clean cached children are skipped")
                                .cached(child),
                        ),
                    };
                    let wire = ctx
                        .tree
                        .wire_to_parent(child)
                        .expect("non-root child has a wire");
                    slab.add_wire(
                        cl,
                        ctx.model,
                        wire.resistance().value(),
                        wire.capacitance().value(),
                        stats,
                    );
                    if ctx.slew.active() {
                        stats.slew_pruned += slab.prune_slew(cl, ctx.slew.cap) as u64;
                    }
                    stats.wire_ops += 1;
                    acc = Some(match acc {
                        None => cl,
                        Some(prev) => {
                            stats.merge_ops += 1;
                            slab.merge(prev, cl, arena, ctx.track, ctx.slew.cap, stats)
                        }
                    });
                }
                let list = acc.expect("internal nodes have children");
                if ctx.tree.is_buffer_site(node) {
                    add_buffers(
                        ctx.algo,
                        slab,
                        list,
                        ctx.lib,
                        ctx.tree.site_constraint(node),
                        node,
                        ctx.tree.site_variation(node),
                        node_price(ctx.prices, node),
                        arena,
                        ctx.track,
                        scratch,
                        ctx.slew,
                        stats,
                    );
                }
                list
            }
        };
        stats.max_list_len = stats.max_list_len.max(slab.len(list));
        if let Some(c) = cache_state.as_mut() {
            if let Some(snapshot) = c.finish(node) {
                slab.store(list, snapshot);
            }
            *recomputed += 1;
        }
        lists[node.index()] = Some(list);
    }
}

/// Minimum subtree size worth forking to a worker thread.
const MIN_TASK_NODES: usize = 8;
/// Minimum net size for the intra-net parallel phase to engage at all.
const MIN_PARALLEL_NODES: usize = 64;

/// What one parallel subtree task hands back to the coordinator: its root
/// candidate list as columns, the private arena its `PredRef`s index, and
/// its operation counters.
struct TaskResult {
    list: Columns,
    arena: PredArena,
    stats: SolveStats,
}

/// Solves bounded sibling subtrees of the net on `workers` threads and
/// splices the results back in **topology order** (ascending postorder
/// position of the task roots — never completion order), so the main pass
/// observes exactly the lists and arena layout determinism requires.
///
/// Returns the cover mask (`true` = node handled by a task) for the main
/// pass to skip, or `None` when the net is too small to partition.
///
/// Partition: the iterative-DFS postorder makes every subtree a contiguous
/// range `post[pos(v)-size(v)+1 ..= pos(v)]`, so a task is just a slice of
/// the postorder. A top-down sweep (reverse postorder) marks the highest
/// subtrees whose size fits under the grain as task roots; everything
/// below them is covered. The tree root is never a task root, so the main
/// pass always has work left to join the pieces.
fn solve_subtrees_parallel(
    ctx: &SlabCtx<'_>,
    workers: usize,
    slab: &mut CandidateSlab,
    lists: &mut [Option<SlabList>],
    arena: &mut PredArena,
    stats: &mut SolveStats,
) -> Option<Vec<bool>> {
    let tree = ctx.tree;
    let post = tree.postorder();
    let n = post.len();
    if n < MIN_PARALLEL_NODES {
        return None;
    }
    let mut pos = vec![0usize; tree.node_count()];
    let mut size = vec![1usize; tree.node_count()];
    for (i, &node) in post.iter().enumerate() {
        pos[node.index()] = i;
        // Children precede their parent in postorder: their sizes are final.
        for &child in tree.children(node) {
            size[node.index()] += size[child.index()];
        }
    }
    // Aim for ~4 tasks per worker, but keep the acceptance band
    // `[MIN_TASK_NODES, grain]` wide enough that bushy trees always shatter
    // into several tasks.
    let grain = (n / (workers * 4)).max(4 * MIN_TASK_NODES);
    let mut covered = vec![false; tree.node_count()];
    let mut task_roots: Vec<NodeId> = Vec::new();
    for &node in post.iter().rev() {
        if let Some(parent) = tree.parent(node) {
            if covered[parent.index()] {
                covered[node.index()] = true;
                continue;
            }
            let sz = size[node.index()];
            if sz >= MIN_TASK_NODES && sz <= grain {
                covered[node.index()] = true;
                task_roots.push(node);
            }
        }
    }
    if task_roots.len() < 2 {
        // Nothing to overlap: run fully sequential rather than paying the
        // fork/join overhead for one task.
        for &node in &task_roots {
            covered[node.index()] = false;
        }
        return None;
    }
    task_roots.sort_by_key(|t| pos[t.index()]);

    // Per-worker state, reused across that worker's tasks. The lists
    // vector returns to all-`None` after each task: every interior list is
    // consumed by its parent and the task root's is taken below.
    let mut states: Vec<(CandidateSlab, Scratch, Vec<Option<SlabList>>)> = (0..workers
        .min(task_roots.len()))
        .map(|_| {
            let lists = vec![None; tree.node_count()];
            (CandidateSlab::default(), Scratch::default(), lists)
        })
        .collect();
    let results = crate::par::map(task_roots.len(), &mut states, |state, ti| {
        let (slab, scratch, task_lists) = state;
        let troot = task_roots[ti];
        let (p, sz) = (pos[troot.index()], size[troot.index()]);
        let mut task_arena = PredArena::new();
        let mut task_stats = SolveStats::default();
        slab.reset();
        process_nodes(
            ctx,
            &post[p + 1 - sz..=p],
            None,
            None,
            &mut 0,
            slab,
            task_lists,
            &mut task_arena,
            scratch,
            &mut task_stats,
        );
        let handle = task_lists[troot.index()]
            .take()
            .expect("task root was computed");
        task_stats.slab_bytes_peak = slab.peak_bytes();
        let mut list = Columns::default();
        slab.store(handle, &mut list);
        TaskResult {
            list,
            arena: task_arena,
            stats: task_stats,
        }
    });

    // Join in task-root topology order: splice each private arena onto the
    // shared one (uniform backward-reference shift — see
    // `PredArena::append_remapped`), shift the root list's `pred` lane by
    // the same offset, and load it into the slab for the main pass.
    for (result, &troot) in results.into_iter().zip(&task_roots) {
        let offset = arena.append_remapped(&result.arena);
        let mut list = result.list;
        if ctx.track {
            for pred in &mut list.pred {
                *pred = pred.offset_by(offset);
            }
        }
        lists[troot.index()] = Some(slab.load(&list));
        stats.merge_shard(&result.stats);
        stats.parallel_subtrees += 1;
    }
    Some(covered)
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
        use std::sync::Arc;
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
            .delay_model(Arc::new(ElmoreModel))
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
        let eval = evaluate_with(&tree, &lib, &sol.placement_pairs(), &ElmoreModel).unwrap();
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
    fn scaled_elmore_backend_solves_and_verifies() {
        use fastbuf_rctree::ScaledElmoreModel;
        use std::sync::Arc;
        let lib = paper_lib(8);
        let tree = two_pin_line(10.0, 9, 2000.0);
        let model = Arc::new(ScaledElmoreModel::default());
        let sol = Solver::new(&tree, &lib).delay_model(model.clone()).solve();
        // Predicted slack must match a forward evaluation under the same
        // model (and differ from the Elmore prediction on this wire-heavy
        // net).
        sol.verify_with(&tree, &lib, &*model).unwrap();
        let elmore = Solver::new(&tree, &lib).solve();
        assert!(
            (sol.slack.value() - elmore.slack.value()).abs() > 1e-15,
            "scaled model should change the optimum on a wire-dominated net"
        );
        assert!(sol.slack > elmore.slack, "less wire delay -> more slack");
        // And the scaled backend honours slew limits too.
        let constrained = Solver::new(&tree, &lib)
            .delay_model(model.clone())
            .slew_limit(Seconds::from_pico(150.0))
            .solve();
        assert!(constrained.slew_ok);
        let eval = fastbuf_rctree::elmore::evaluate_with(
            &tree,
            &lib,
            &constrained.placement_pairs(),
            &*model,
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
    fn intra_net_parallel_is_bit_identical_at_every_worker_count() {
        let lib = paper_lib(16);
        for sinks in [24usize, 48] {
            let tree = fastbuf_netgen::RandomNetSpec {
                sinks,
                seed: 5,
                ..fastbuf_netgen::RandomNetSpec::default()
            }
            .build();
            let sequential = Solver::new(&tree, &lib).solve();
            for workers in [2usize, 4, 8] {
                let parallel = Solver::new(&tree, &lib).intra_net_workers(workers).solve();
                assert_eq!(
                    sequential.slack.value().to_bits(),
                    parallel.slack.value().to_bits(),
                    "sinks {sinks} workers {workers}"
                );
                assert_eq!(sequential.placements, parallel.placements);
                assert_eq!(sequential.stats.arena_entries, parallel.stats.arena_entries);
                assert_eq!(sequential.stats.wire_ops, parallel.stats.wire_ops);
                assert_eq!(sequential.stats.merge_ops, parallel.stats.merge_ops);
                assert_eq!(sequential.stats.addbuffer_ops, parallel.stats.addbuffer_ops);
                assert_eq!(sequential.stats.max_list_len, parallel.stats.max_list_len);
                if tree.node_count() >= 64 {
                    assert!(
                        parallel.stats.parallel_subtrees > 0,
                        "sinks {sinks} workers {workers}: expected forked subtrees"
                    );
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
