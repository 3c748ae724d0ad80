//! Incremental (ECO) re-solving with subtree candidate caching.
//!
//! The paper's DP builds candidate lists bottom-up per subtree: `N(T_v)`
//! depends only on the tree parameters inside `T_v` and the solve
//! configuration, never on anything upstream of `v`. An edit localized to
//! one branch therefore invalidates **only the lists on the edited node's
//! root path**; every other subtree's list is exactly what a from-scratch
//! solve of the edited tree would recompute. [`IncrementalSolver`] exploits
//! this: it owns the tree, the library, and a
//! [`SubtreeCache`] of per-node candidate
//! lists, applies typed [`Edit`]s, dirties exactly the affected root
//! paths, and re-solves by recomputing dirty subtrees while splicing
//! cached sibling lists into merges unchanged — turning the O(bn²)
//! from-scratch cost into near-O(b·depth·n) for ECO-style workloads.
//!
//! **The headline guarantee: every incremental result is bit-identical to
//! a from-scratch solve of the edited tree** — same slack bits, same
//! placements, same slew verdict. The cache changes *which* computations
//! run, never their arithmetic or order. The differential property harness
//! `tests/incremental_equivalence.rs` asserts this across thousands of
//! random edit scripts × algorithms × slew modes, and the ≤6-site
//! brute-force oracle (`tests/exhaustive_oracle.rs`) re-certifies true
//! optimality after every edit.
//!
//! # Quick start
//!
//! ```
//! use fastbuf_buflib::units::{Microns, Seconds};
//! use fastbuf_buflib::BufferLibrary;
//! use fastbuf_incremental::{Edit, IncrementalSolver};
//!
//! let lib = BufferLibrary::paper_synthetic(8)?;
//! let tree = fastbuf_netgen::RandomNetSpec { sinks: 24, seed: 7, ..Default::default() }.build();
//! let sink = tree.sinks().next().unwrap();
//!
//! let mut solver = IncrementalSolver::new(tree, lib);
//! let before = solver.solve(); // cold: computes and caches every subtree
//!
//! // STA tightened one sink's deadline; re-solve touches only its path.
//! solver.apply(&Edit::SetSinkRat { node: sink, rat: Seconds::from_pico(600.0) })?;
//! let after = solver.solve();
//! assert!(after.stats.nodes_recomputed < solver.tree().node_count() as u64);
//!
//! // Bit-identical to solving the edited tree from scratch:
//! let scratch = solver.solve_scratch();
//! assert_eq!(after.slack.value().to_bits(), scratch.slack.value().to_bits());
//! assert_eq!(after.placements, scratch.placements);
//! # let _ = before;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

use std::error::Error;
use std::fmt;

use std::sync::Arc;

use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::{BufferLibrary, LibraryError, Technology};
use fastbuf_core::{Solution, SolveWorkspace, Solver, SolverOptions, SubtreeCache};
use fastbuf_rctree::{NodeId, RoutingTree, SiteConstraint, TreeError, Wire};

pub use fastbuf_netgen::eco::{parse_edits, write_edits, Edit, EditScriptSpec};

/// Errors from applying an [`Edit`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum EcoError {
    /// The tree mutation was rejected (unknown node, not a sink, invalid
    /// value, site constraint on a non-internal node, …).
    Tree(TreeError),
    /// An [`Edit::SwapLibrary`] named a synthetic library that cannot be
    /// built.
    Library(LibraryError),
    /// A site-price update was rejected: the node does not exist, or the
    /// price is not a finite value `>= 0`.
    Price {
        /// The rejected node.
        node: NodeId,
        /// The rejected price in seconds.
        price: f64,
        /// Why it was rejected.
        reason: &'static str,
    },
}

impl fmt::Display for EcoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EcoError::Tree(e) => write!(f, "edit rejected: {e}"),
            EcoError::Library(e) => write!(f, "library swap rejected: {e}"),
            EcoError::Price {
                node,
                price,
                reason,
            } => write!(
                f,
                "site price {price} rejected at node {}: {reason}",
                node.index()
            ),
        }
    }
}

impl Error for EcoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EcoError::Tree(e) => Some(e),
            EcoError::Library(e) => Some(e),
            EcoError::Price { .. } => None,
        }
    }
}

impl From<TreeError> for EcoError {
    fn from(e: TreeError) -> Self {
        EcoError::Tree(e)
    }
}

impl From<LibraryError> for EcoError {
    fn from(e: LibraryError) -> Self {
        EcoError::Library(e)
    }
}

/// The library [`Edit::SwapLibrary`] `{ size, jitter }` swaps in:
/// `paper_synthetic(size)` for jitter 0, else
/// `paper_synthetic_jittered(size, jitter)`. The one rule
/// [`IncrementalSolver::apply`] and a caller that restarts its solver on
/// the new library (`fastbuf eco`) share.
///
/// # Errors
///
/// The [`LibraryError`] of an unbuildable library (`size == 0`).
pub fn swapped_library(size: usize, jitter: u64) -> Result<BufferLibrary, LibraryError> {
    if jitter == 0 {
        BufferLibrary::paper_synthetic(size)
    } else {
        BufferLibrary::paper_synthetic_jittered(size, jitter)
    }
}

/// Bitwise equality of two price vectors, treating entries past either end
/// as zero (an empty vector and an all-zero vector price identically).
fn same_price_bits(a: &[f64], b: &[f64]) -> bool {
    (0..a.len().max(b.len())).all(|i| {
        a.get(i).copied().unwrap_or(0.0).to_bits() == b.get(i).copied().unwrap_or(0.0).to_bits()
    })
}

/// The node whose root path `edit` invalidates, or `None` when it
/// invalidates every cached list (a library swap). Wire edits start at the
/// parent of the wire's child endpoint, since the child's own subtree lies
/// below the wire; every other edit starts at the edited node. (A wire edit
/// on the root, which has no parent, is rejected by the tree mutation.)
fn dirty_origin(tree: &RoutingTree, edit: &Edit) -> Option<NodeId> {
    match edit {
        Edit::SetWireLength { node, .. } | Edit::SetWireRC { node, .. } => tree.parent(*node),
        Edit::DerateSite { node, .. }
        | Edit::SetSinkRat { node, .. }
        | Edit::SetSinkCap { node, .. }
        | Edit::BlockSite { node }
        | Edit::UnblockSite { node } => Some(*node),
        Edit::SwapLibrary { .. } => None,
    }
}

/// [`edit_tree`], then dirties the root path the edit invalidates in each
/// of `caches` (a library swap flushes them): the edit step of
/// [`IncrementalSolver::apply`] and of one tree solved through several
/// caches. On a rejected mutation the tree and every cache are unchanged.
///
/// # Errors
///
/// The [`TreeError`] of a rejected mutation.
pub fn apply_edit<'c>(
    tree: &mut RoutingTree,
    technology: &Technology,
    edit: &Edit,
    caches: impl IntoIterator<Item = &'c mut SubtreeCache>,
) -> Result<(), TreeError> {
    edit_tree(tree, technology, edit)?;
    let origin = dirty_origin(tree, edit);
    for cache in caches {
        match origin {
            Some(node) => cache.mark_path_dirty(tree, node),
            None => cache.flush(),
        }
    }
    Ok(())
}

/// Applies the tree half of `edit` to `tree`: every edit but
/// [`Edit::SwapLibrary`], which leaves the tree alone. Wire lengths are
/// turned into parasitics through `technology`.
///
/// # Errors
///
/// The [`TreeError`] of a rejected mutation; the tree is then unchanged.
pub fn edit_tree(
    tree: &mut RoutingTree,
    technology: &Technology,
    edit: &Edit,
) -> Result<(), TreeError> {
    match edit {
        Edit::SetWireLength { node, length } => {
            tree.set_wire_to_parent(*node, Wire::from_length(technology, *length))
        }
        Edit::SetWireRC {
            node,
            resistance,
            capacitance,
        } => tree.set_wire_to_parent(*node, Wire::new(*resistance, *capacitance)),
        Edit::DerateSite {
            node,
            delay_scale,
            drive_scale,
        } => tree.set_site_variation(
            *node,
            fastbuf_rctree::SiteVariation::new(*delay_scale, *drive_scale),
        ),
        Edit::SetSinkRat { node, rat } => tree.set_sink_rat(*node, *rat),
        Edit::SetSinkCap { node, cap } => tree.set_sink_cap(*node, *cap),
        Edit::BlockSite { node } => tree.set_site_constraint(*node, SiteConstraint::NotASite),
        Edit::UnblockSite { node } => tree.set_site_constraint(*node, SiteConstraint::AnyBuffer),
        Edit::SwapLibrary { .. } => Ok(()),
    }
}

/// An owning incremental solver: one routing tree, one buffer library, one
/// persistent [`SubtreeCache`], kept consistent by construction.
///
/// Every mutation goes through [`IncrementalSolver::apply`] (or
/// [`IncrementalSolver::swap_library`] /
/// [`IncrementalSolver::set_options`]), which dirties exactly the affected
/// cache state — so [`IncrementalSolver::solve`] can never observe a tree
/// the cache doesn't know about. See the crate docs for the bit-identity
/// guarantee and the module docs of `fastbuf_core`'s `SubtreeCache` for
/// the invalidation invariants.
#[derive(Debug)]
pub struct IncrementalSolver {
    tree: RoutingTree,
    library: BufferLibrary,
    technology: Technology,
    options: SolverOptions,
    cache: SubtreeCache,
    workspace: SolveWorkspace,
    edits_applied: u64,
    /// Shadow of `options.site_prices` that [`IncrementalSolver::set_site_prices`]
    /// mutates in place; the `Arc` in the options is rebuilt once per batch.
    site_prices: Vec<f64>,
}

impl IncrementalSolver {
    /// Takes ownership of `tree` and `library` with default options and the
    /// default technology ([`Technology::tsmc180_like`], used only to turn
    /// [`Edit::SetWireLength`] microns into parasitics).
    pub fn new(tree: RoutingTree, library: BufferLibrary) -> Self {
        IncrementalSolver {
            tree,
            library,
            technology: Technology::tsmc180_like(),
            options: SolverOptions::default(),
            cache: SubtreeCache::new(),
            workspace: SolveWorkspace::new(),
            edits_applied: 0,
            site_prices: Vec::new(),
        }
    }

    /// Sets the technology wire-length edits are converted through.
    #[must_use]
    pub fn with_technology(mut self, technology: Technology) -> Self {
        self.technology = technology;
        self
    }

    /// Sets the solver options (algorithm, delay model, slew limit,
    /// tracking). Also available after construction via
    /// [`IncrementalSolver::set_options`].
    #[must_use]
    pub fn with_options(mut self, options: SolverOptions) -> Self {
        self.set_options(options);
        self
    }

    /// The current (edited) tree.
    pub fn tree(&self) -> &RoutingTree {
        &self.tree
    }

    /// The current buffer library.
    pub fn library(&self) -> &BufferLibrary {
        &self.library
    }

    /// The current solver options.
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// The cache, for diagnostics ([`SubtreeCache::cached_nodes`],
    /// [`SubtreeCache::arena_entries`], [`SubtreeCache::flush_count`]).
    pub fn cache(&self) -> &SubtreeCache {
        &self.cache
    }

    /// Number of edits applied so far.
    pub fn edits_applied(&self) -> u64 {
        self.edits_applied
    }

    /// Replaces the solver options. No explicit flush is needed for the
    /// fingerprinted knobs: the cache fingerprints the configuration and
    /// flushes itself on the next solve if anything solve-relevant changed
    /// (tested in this crate — a stale config reuse is structurally
    /// impossible). `site_prices` is *not* fingerprinted (see
    /// [`SolverOptions::site_prices`]), so if the new options carry
    /// different prices this method flushes the cache explicitly; prefer
    /// [`IncrementalSolver::set_site_prices`] for warm localized
    /// re-pricing.
    pub fn set_options(&mut self, options: SolverOptions) {
        let new_prices = options.site_prices.as_deref().unwrap_or(&[]);
        let changed = !same_price_bits(&self.site_prices, new_prices);
        self.site_prices = new_prices.to_vec();
        self.options = options;
        if changed {
            self.cache.flush();
        }
    }

    /// Updates the buffer-usage prices of a batch of nodes (the Lagrangian
    /// global loop's per-iteration re-pricing), returning how many actually
    /// changed. A price change is a localized edit exactly like
    /// [`Edit::DerateSite`]: only the changed nodes' root paths are
    /// dirtied, so the next [`IncrementalSolver::solve`] recomputes just
    /// those paths. Setting a node to its current price (bit-compared) is
    /// a no-op that dirties nothing.
    ///
    /// Prices on nodes that are not buffer sites are accepted and inert —
    /// the DP only charges prices where it can insert buffers.
    ///
    /// # Errors
    ///
    /// [`EcoError::Price`] if any node is unknown or any price is
    /// non-finite or negative; the batch is rejected atomically (no
    /// partial application).
    pub fn set_site_prices(&mut self, changes: &[(NodeId, Seconds)]) -> Result<usize, EcoError> {
        let n = self.tree.node_count();
        for &(node, price) in changes {
            if node.index() >= n {
                return Err(EcoError::Price {
                    node,
                    price: price.value(),
                    reason: "unknown node",
                });
            }
            if !(price.value().is_finite() && price.value() >= 0.0) {
                return Err(EcoError::Price {
                    node,
                    price: price.value(),
                    reason: "price must be finite and >= 0",
                });
            }
        }
        let mut changed = 0usize;
        for &(node, price) in changes {
            if self.site_prices.is_empty() && price.value() == 0.0 {
                continue; // still all-zero: nothing to materialize
            }
            if self.site_prices.is_empty() {
                self.site_prices.resize(n, 0.0);
            }
            let slot = &mut self.site_prices[node.index()];
            if slot.to_bits() == price.value().to_bits() {
                continue;
            }
            *slot = price.value();
            self.cache.mark_path_dirty(&self.tree, node);
            changed += 1;
        }
        if changed > 0 {
            self.options.site_prices = Some(Arc::from(self.site_prices.as_slice()));
        }
        Ok(changed)
    }

    /// Replaces the buffer library with an arbitrary one. This is the
    /// full-flush operation: every cached subtree depends on the library,
    /// so the cache is flushed immediately (the content fingerprint would
    /// catch it anyway; flushing here keeps the intent explicit).
    pub fn swap_library(&mut self, library: BufferLibrary) {
        self.library = library;
        self.cache.flush();
    }

    /// Applies one edit, dirtying exactly the root path the edit
    /// invalidates.
    ///
    /// * [`Edit::SetWireLength`] and [`Edit::SetWireRC`] dirty from the
    ///   **parent** of the edited wire's child endpoint: the child's own
    ///   subtree list is computed below the wire and stays valid.
    /// * Sink and site edits (including [`Edit::DerateSite`]) dirty from
    ///   the edited node itself.
    /// * [`Edit::SwapLibrary`] flushes everything (see
    ///   [`IncrementalSolver::swap_library`]).
    ///
    /// # Errors
    ///
    /// [`EcoError::Tree`] when the mutation is rejected (the tree and cache
    /// are left untouched); [`EcoError::Library`] for unbuildable library
    /// swaps.
    pub fn apply(&mut self, edit: &Edit) -> Result<(), EcoError> {
        if let Edit::SwapLibrary { size, jitter } = edit {
            self.library = swapped_library(*size, *jitter)?;
        }
        apply_edit(&mut self.tree, &self.technology, edit, [&mut self.cache])?;
        self.edits_applied += 1;
        Ok(())
    }

    /// Declares that the edits to come only ever dirty the root paths that
    /// `edits` dirty — the samples of one variation family, which perturb
    /// the same node pool with absolute values. The cache then keeps only
    /// the lists a re-solve reads back (the footprint's frontier; see
    /// [`SubtreeCache::set_footprint`]), which saves storing every recomputed
    /// list. Results are unchanged; an edit outside the footprint drops it
    /// (one cold solve), and `edits` containing a library swap declare no
    /// footprint. Returns the footprint's node count (0 when none is
    /// declared).
    pub fn set_footprint<'a>(&mut self, edits: impl IntoIterator<Item = &'a Edit>) -> usize {
        let origins: Option<Vec<NodeId>> = edits
            .into_iter()
            .map(|edit| dirty_origin(&self.tree, edit))
            .collect();
        self.cache
            .set_footprint(&self.tree, origins.as_deref().unwrap_or(&[]))
    }

    /// Applies a whole script in order, stopping at the first rejected
    /// edit.
    ///
    /// # Errors
    ///
    /// The first edit's [`EcoError`], with all earlier edits applied.
    pub fn apply_all(&mut self, edits: &[Edit]) -> Result<(), EcoError> {
        for edit in edits {
            self.apply(edit)?;
        }
        Ok(())
    }

    /// Re-solves the current tree incrementally: dirty subtrees are
    /// recomputed, clean ones reused from the cache. Bit-identical to
    /// [`IncrementalSolver::solve_scratch`];
    /// [`SolveStats::nodes_recomputed`](fastbuf_core::SolveStats) /
    /// `nodes_reused` report how much work the cache saved.
    pub fn solve(&mut self) -> Solution {
        Solver::new(&self.tree, &self.library)
            .with_options(self.options.clone())
            .solve_cached(&mut self.workspace, &mut self.cache)
    }

    /// Solves the current tree from scratch, bypassing (and not touching)
    /// the cache — the differential oracle the equivalence tests and the
    /// `reuse` benchmark compare against.
    pub fn solve_scratch(&self) -> Solution {
        Solver::new(&self.tree, &self.library)
            .with_options(self.options.clone())
            .solve()
    }

    /// Drops all cached state; the next [`IncrementalSolver::solve`] runs
    /// cold. Results are unaffected.
    pub fn flush(&mut self) {
        self.cache.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbuf_buflib::units::{Farads, Microns, Seconds};
    use fastbuf_core::Algorithm;
    use fastbuf_netgen::RandomNetSpec;
    use fastbuf_rctree::NodeId;

    fn net(sinks: usize, seed: u64) -> RoutingTree {
        RandomNetSpec {
            sinks,
            seed,
            ..RandomNetSpec::default()
        }
        .build()
    }

    fn lib8() -> BufferLibrary {
        BufferLibrary::paper_synthetic(8).unwrap()
    }

    fn assert_identical(a: &Solution, b: &Solution) {
        assert_eq!(a.slack.value().to_bits(), b.slack.value().to_bits());
        assert_eq!(a.root_q.value().to_bits(), b.root_q.value().to_bits());
        assert_eq!(a.root_load.value().to_bits(), b.root_load.value().to_bits());
        assert_eq!(a.root_slew.value().to_bits(), b.root_slew.value().to_bits());
        assert_eq!(a.placements, b.placements);
        assert_eq!(a.slew_ok, b.slew_ok);
    }

    #[test]
    fn edit_script_stays_bit_identical_to_scratch() {
        let mut solver = IncrementalSolver::new(net(20, 3), lib8());
        assert_identical(&solver.solve(), &solver.solve_scratch());
        let script = EditScriptSpec {
            edits: 30,
            locality: 0.4,
            seed: 5,
            swap_library_every: 9,
        }
        .generate(solver.tree());
        for (i, edit) in script.iter().enumerate() {
            solver
                .apply(edit)
                .unwrap_or_else(|e| panic!("edit {i}: {e}"));
            let inc = solver.solve();
            let scratch = solver.solve_scratch();
            assert_identical(&inc, &scratch);
        }
        assert_eq!(solver.edits_applied(), script.len() as u64);
    }

    #[test]
    fn swap_library_flushes_and_recomputes_everything() {
        let mut solver = IncrementalSolver::new(net(16, 4), lib8());
        let n = solver.tree().node_count() as u64;
        let _ = solver.solve();
        let flushes = solver.cache().flush_count();

        // An arbitrary-library swap flushes immediately...
        solver.swap_library(BufferLibrary::paper_synthetic_jittered(8, 42).unwrap());
        assert!(solver.cache().flush_count() > flushes);
        // ...and the next solve recomputes every node yet matches scratch.
        let inc = solver.solve();
        assert_eq!(inc.stats.nodes_recomputed, n);
        assert_eq!(inc.stats.nodes_reused, 0);
        assert_identical(&inc, &solver.solve_scratch());

        // The script-level SwapLibrary edit does the same.
        solver
            .apply(&Edit::SwapLibrary { size: 4, jitter: 0 })
            .unwrap();
        let inc = solver.solve();
        assert_eq!(inc.stats.nodes_recomputed, n);
        assert_eq!(solver.library().len(), 4);
        assert_identical(&inc, &solver.solve_scratch());

        // An unbuildable swap is a typed error and changes nothing.
        let before = solver.library().len();
        let err = solver
            .apply(&Edit::SwapLibrary { size: 0, jitter: 0 })
            .unwrap_err();
        assert!(matches!(err, EcoError::Library(_)), "{err}");
        assert_eq!(solver.library().len(), before);
    }

    /// The scariest silent-wrong-answer bug is a stale-fingerprint reuse:
    /// a config change that *doesn't* flush. Interleave two configurations
    /// through one solver and demand a full recompute (and scratch
    /// equality) on every switch.
    #[test]
    fn interleaved_configs_flush_instead_of_reusing_stale_lists() {
        let mut solver = IncrementalSolver::new(net(14, 9), lib8());
        let n = solver.tree().node_count() as u64;
        let plain = SolverOptions::default();
        let mut limited = SolverOptions::default();
        limited.slew_limit = Some(Seconds::from_pico(280.0));

        let _ = solver.solve();
        for round in 0..3 {
            solver.set_options(limited.clone());
            let a = solver.solve();
            assert_eq!(a.stats.nodes_recomputed, n, "round {round}: limited");
            assert_identical(&a, &solver.solve_scratch());

            solver.set_options(plain.clone());
            let b = solver.solve();
            assert_eq!(b.stats.nodes_recomputed, n, "round {round}: plain");
            assert_identical(&b, &solver.solve_scratch());
        }

        // Same story for model and algorithm changes.
        let mut scaled = SolverOptions::default();
        scaled.delay_model = fastbuf_rctree::DelayModel::SCALED_ELMORE;
        solver.set_options(scaled);
        let c = solver.solve();
        assert_eq!(c.stats.nodes_recomputed, n);
        assert_identical(&c, &solver.solve_scratch());

        let mut lillis = SolverOptions::default();
        lillis.algorithm = Algorithm::Lillis;
        solver.set_options(lillis);
        let d = solver.solve();
        assert_eq!(d.stats.nodes_recomputed, n);
        assert_identical(&d, &solver.solve_scratch());
    }

    #[test]
    fn unchanged_options_do_not_flush() {
        let mut solver = IncrementalSolver::new(net(10, 2), lib8());
        let _ = solver.solve();
        // set_options with an *equivalent* configuration (fresh Arc to the
        // same model type) keeps the cache warm: model identity is by
        // content fingerprint, not allocation.
        solver.set_options(SolverOptions::default());
        let warm = solver.solve();
        assert_eq!(warm.stats.nodes_recomputed, 0);
        assert_eq!(warm.stats.nodes_reused, solver.tree().node_count() as u64);
    }

    #[test]
    fn rejected_edits_leave_tree_and_cache_consistent() {
        let mut solver = IncrementalSolver::new(net(8, 6), lib8());
        let baseline = solver.solve();
        let ghost = NodeId::new(10_000);
        assert!(matches!(
            solver.apply(&Edit::SetSinkRat {
                node: ghost,
                rat: Seconds::from_pico(100.0)
            }),
            Err(EcoError::Tree(TreeError::UnknownNode { .. }))
        ));
        assert!(matches!(
            solver.apply(&Edit::BlockSite {
                node: solver.tree().root()
            }),
            // Blocking the source clears an already-clear constraint: ok.
            Ok(())
        ));
        assert!(matches!(
            solver.apply(&Edit::SetSinkCap {
                node: solver.tree().root(),
                cap: Farads::from_femto(1.0)
            }),
            Err(EcoError::Tree(TreeError::NotASink { .. }))
        ));
        assert_eq!(solver.edits_applied(), 1); // only the no-op block landed
        let after = solver.solve();
        assert_identical(&baseline, &after);
        assert_identical(&after, &solver.solve_scratch());
    }

    #[test]
    fn wire_edit_dirties_from_the_parent_only() {
        // src -> tee -> {site -> s1, s2}: editing the wire *above* s1
        // keeps s1's (singleton) list cached but recomputes its ancestors.
        let mut solver = IncrementalSolver::new(net(24, 8), lib8());
        let _ = solver.solve();
        let sink = solver.tree().sinks().last().unwrap();
        solver
            .apply(&Edit::SetWireLength {
                node: sink,
                length: Microns::new(77.0),
            })
            .unwrap();
        let inc = solver.solve();
        assert!(inc.stats.nodes_recomputed >= 1);
        assert!(
            inc.stats.nodes_recomputed < solver.tree().node_count() as u64,
            "wire edit above a leaf must not recompute the whole tree"
        );
        assert_identical(&inc, &solver.solve_scratch());
    }

    #[test]
    fn slew_constrained_eco_matches_scratch() {
        let mut options = SolverOptions::default();
        options.slew_limit = Some(Seconds::from_pico(250.0));
        let mut solver = IncrementalSolver::new(net(18, 12), lib8()).with_options(options);
        let _ = solver.solve();
        let script = EditScriptSpec {
            edits: 15,
            locality: 0.3,
            seed: 2,
            swap_library_every: 0,
        }
        .generate(solver.tree());
        for edit in &script {
            solver.apply(edit).unwrap();
            assert_identical(&solver.solve(), &solver.solve_scratch());
        }
    }

    #[test]
    fn technology_override_feeds_wire_edits() {
        let tech = Technology::new(
            fastbuf_buflib::units::Ohms::new(0.5),
            Farads::from_femto(0.3),
        );
        let mut solver = IncrementalSolver::new(net(6, 1), lib8()).with_technology(tech);
        let sink = solver.tree().sinks().next().unwrap();
        solver
            .apply(&Edit::SetWireLength {
                node: sink,
                length: Microns::new(100.0),
            })
            .unwrap();
        let wire = solver.tree().wire_to_parent(sink).unwrap();
        let (r, c) = tech.wire(Microns::new(100.0));
        assert_eq!(wire.resistance(), r);
        assert_eq!(wire.capacitance(), c);
        assert_identical(&solver.solve(), &solver.solve_scratch());
    }

    #[test]
    fn variation_edits_stay_bit_identical_and_dirty_only_their_paths() {
        use fastbuf_buflib::units::Ohms;
        let mut solver = IncrementalSolver::new(net(30, 11), lib8());
        let _ = solver.solve();
        let n = solver.tree().node_count() as u64;

        // A wire-RC rewrite above a leaf keeps the leaf's list cached.
        let sink = solver.tree().sinks().last().unwrap();
        solver
            .apply(&Edit::SetWireRC {
                node: sink,
                resistance: Ohms::new(81.25),
                capacitance: Farads::from_femto(130.5),
            })
            .unwrap();
        let inc = solver.solve();
        assert!(inc.stats.nodes_recomputed < n);
        assert_identical(&inc, &solver.solve_scratch());

        // A site derate recomputes its root path only, and 1.0/1.0 restores
        // the nominal solution bit-for-bit.
        let site = solver
            .tree()
            .node_ids()
            .find(|&v| solver.tree().kind(v).is_internal() && solver.tree().parent(v).is_some())
            .unwrap();
        let before = solver.solve();
        solver
            .apply(&Edit::DerateSite {
                node: site,
                delay_scale: 1.2,
                drive_scale: 0.9,
            })
            .unwrap();
        let derated = solver.solve();
        assert!(derated.stats.nodes_recomputed < n);
        assert_identical(&derated, &solver.solve_scratch());
        solver
            .apply(&Edit::DerateSite {
                node: site,
                delay_scale: 1.0,
                drive_scale: 1.0,
            })
            .unwrap();
        let restored = solver.solve();
        assert_identical(&restored, &before);

        // Invalid derates are typed rejections, not panics.
        let err = solver
            .apply(&Edit::DerateSite {
                node: site,
                delay_scale: f64::NAN,
                drive_scale: 1.0,
            })
            .unwrap_err();
        assert!(matches!(
            err,
            EcoError::Tree(TreeError::InvalidVariation { .. })
        ));
    }

    #[test]
    fn price_edits_stay_bit_identical_and_dirty_only_their_paths() {
        let mut solver = IncrementalSolver::new(net(30, 21), lib8());
        let _ = solver.solve();
        let n = solver.tree().node_count() as u64;
        let sites: Vec<NodeId> = solver.tree().buffer_sites().collect();
        assert!(sites.len() >= 2, "need sites to price");

        // Pricing one deep site recomputes its root path only, and the
        // result matches a scratch solve under the same options.
        let deep = *sites.last().unwrap();
        let price = Seconds::from_pico(300.0);
        assert_eq!(solver.set_site_prices(&[(deep, price)]).unwrap(), 1);
        let inc = solver.solve();
        assert!(inc.stats.nodes_recomputed >= 1);
        assert!(
            inc.stats.nodes_recomputed < n,
            "a single price change must not recompute the whole tree"
        );
        assert_identical(&inc, &solver.solve_scratch());

        // Re-setting the same price (bitwise) dirties nothing.
        assert_eq!(solver.set_site_prices(&[(deep, price)]).unwrap(), 0);
        let warm = solver.solve();
        assert_eq!(warm.stats.nodes_recomputed, 0);

        // A large-enough price evicts the buffer from the priced site.
        let evict = Seconds::new(1.0);
        assert_eq!(solver.set_site_prices(&[(deep, evict)]).unwrap(), 1);
        let evicted = solver.solve();
        assert!(evicted.placements.iter().all(|p| p.node != deep));
        assert_identical(&evicted, &solver.solve_scratch());

        // Restoring zero restores the unpriced solution bit-for-bit.
        let mut baseline = IncrementalSolver::new(solver.tree().clone(), lib8());
        let zero = Seconds::ZERO;
        assert_eq!(solver.set_site_prices(&[(deep, zero)]).unwrap(), 1);
        assert_identical(&solver.solve(), &baseline.solve());
    }

    #[test]
    fn price_batches_are_rejected_atomically() {
        let mut solver = IncrementalSolver::new(net(12, 5), lib8());
        let site = solver.tree().buffer_sites().next().unwrap();
        let ghost = NodeId::new(10_000);

        let err = solver
            .set_site_prices(&[
                (site, Seconds::from_pico(100.0)),
                (ghost, Seconds::from_pico(50.0)),
            ])
            .unwrap_err();
        assert!(
            matches!(err, EcoError::Price { node, .. } if node == ghost),
            "{err}"
        );
        // The valid first entry must not have been applied.
        assert!(solver.options().site_prices.is_none());

        // NaN cannot even be constructed (`Seconds::new` rejects it); the
        // remaining invalid values are typed rejections here.
        for bad in [f64::INFINITY, -1.0] {
            let err = solver
                .set_site_prices(&[(site, Seconds::new(bad))])
                .unwrap_err();
            assert!(matches!(err, EcoError::Price { .. }), "{bad}: {err}");
            assert!(err.to_string().contains("rejected"));
        }
    }

    /// `set_options` cannot silently reuse stale lists across a price
    /// change: prices are excluded from the fingerprint, so the solver
    /// flushes explicitly when they differ.
    #[test]
    fn set_options_with_different_prices_flushes() {
        let mut solver = IncrementalSolver::new(net(14, 7), lib8());
        let _ = solver.solve();
        let n = solver.tree().node_count() as u64;

        let mut priced = SolverOptions::default();
        priced.site_prices = Some(vec![1e-10; solver.tree().node_count()].into());
        solver.set_options(priced.clone());
        let a = solver.solve();
        assert_eq!(a.stats.nodes_recomputed, n);
        assert_identical(&a, &solver.solve_scratch());

        // Same prices again: warm.
        solver.set_options(priced);
        let warm = solver.solve();
        assert_eq!(warm.stats.nodes_recomputed, 0);

        // Back to unpriced: flushes again.
        solver.set_options(SolverOptions::default());
        let b = solver.solve();
        assert_eq!(b.stats.nodes_recomputed, n);
        assert_identical(&b, &solver.solve_scratch());
    }

    #[test]
    fn eco_error_display_and_source() {
        let e = EcoError::Tree(TreeError::NoSinks);
        assert!(e.to_string().contains("edit rejected"));
        assert!(e.source().is_some());
        let e: EcoError = TreeError::NoSinks.into();
        assert!(matches!(e, EcoError::Tree(_)));
    }
}
