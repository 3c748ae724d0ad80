//! Per-subtree candidate-list caching — the seam behind incremental (ECO)
//! re-solving.
//!
//! The DP computes, for every node `v`, the nonredundant candidate set
//! `N(T_v)` of the subtree below `v`. That set depends only on (a) the tree
//! parameters *inside* `T_v` and (b) the solve configuration (algorithm,
//! delay model, slew limit, library, predecessor tracking) — never on
//! anything upstream of `v`. A [`SubtreeCache`] exploits this: it
//! checkpoints every node's finished list during a solve, as owned
//! columns copied out of the solve's slab, and a later
//! solve of the *same tree with localized edits* recomputes only the nodes
//! marked dirty (the edited nodes' root paths), splicing cached sibling
//! lists into merges unchanged. Results are bit-identical to a from-scratch
//! solve of the edited tree — the cache only changes *which* computations
//! run, never their arithmetic (asserted exhaustively by
//! `tests/incremental_equivalence.rs`).
//!
//! # Ownership and invalidation invariants
//!
//! * The cache owns the predecessor [`PredArena`] of every candidate it
//!   retains: cached `PredRef`s index into it, so it is **append-only
//!   across solves** and cleared only by [`SubtreeCache::flush`] (which
//!   invalidates every cached list at the same time).
//! * A [config fingerprint](SolverOptions) — algorithm, tracking flag,
//!   slew-limit bits, the delay model (its scale compared bit for bit),
//!   the RAT derate's bits, and a content hash of the buffer library — is
//!   recorded at solve time. Any mismatch on a later solve flushes
//!   everything: a stale-fingerprint reuse would be a silent wrong answer,
//!   so the check is structural, not caller-discipline.
//! * Dirtiness is the caller's contract: whoever mutates the tree must call
//!   [`SubtreeCache::mark_path_dirty`] (or [`SubtreeCache::flush`]) before
//!   the next cached solve. `fastbuf-incremental`'s `IncrementalSolver` is
//!   the safe wrapper that owns both the tree and the cache and keeps them
//!   in sync; use it unless you are building such a wrapper yourself.
//! * [`SolverOptions::site_prices`] is deliberately **excluded** from the
//!   fingerprint: re-pricing a node is a localized edit (only that node's
//!   root path changes), and fingerprint-flushing on every price update
//!   would defeat the warm iterations of the Lagrangian global loop.
//!   Whoever changes a price therefore owes the same
//!   [`SubtreeCache::mark_path_dirty`] call a tree edit does —
//!   `IncrementalSolver::set_site_prices` is the safe wrapper.
//! * The cache is keyed by node id and assumes edits are **topology
//!   preserving** (same node count, parents, and post-order). The
//!   fingerprint includes the node count as a backstop, but reusing one
//!   cache across structurally different trees of equal size is undefined
//!   *results* (never unsafety) — again, `IncrementalSolver` makes this
//!   impossible by construction.
//!
//! # Footprints: storing only what is read back
//!
//! A family of solves that always dirties the same root paths (the
//! samples of one Monte-Carlo variation family) reads back only the lists
//! of the *frontier*: the nodes outside that footprint whose parent is
//! inside it. [`SubtreeCache::set_footprint`] declares the footprint; from
//! then on a cached solve stores only frontier lists, keeps footprint
//! nodes dirty (they are recomputed by every solve anyway), and keeps no
//! list for the interior of clean subtrees (its parent is clean, so no
//! merge ever asks for it). A dirtying that starts outside the footprint
//! drops it and flushes, which restores "every clean node whose parent is
//! recomputed has a cached list" before the next solve; a dirtying inside
//! it only marks nodes that are already dirty. Results are unchanged.

use fastbuf_buflib::BufferLibrary;
use fastbuf_rctree::{DelayModel, NodeId, RoutingTree};

use crate::arena::PredArena;
use crate::engine::SolverOptions;
use crate::slab::{Columns, Passenger};

/// The solve configuration a cache's contents were computed under. The
/// delay model is stored by value; its equality compares the variant and
/// the scale's bits, so a re-scaled model never matches.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct CacheFingerprint {
    algorithm: crate::Algorithm,
    track: bool,
    slew_bits: u64,
    model: DelayModel,
    derate_bits: u64,
    lib_hash: u64,
    nodes: usize,
}

/// FNV-1a over the library's solve-relevant content: any change to any
/// buffer parameter changes the hash and flushes dependent caches.
fn library_hash(lib: &BufferLibrary) -> u64 {
    let params = lib.iter().flat_map(|(_, b)| {
        [
            b.driving_resistance().value().to_bits(),
            b.input_capacitance().value().to_bits(),
            b.intrinsic_delay().value().to_bits(),
            b.output_slew().value().to_bits(),
            b.cost().to_bits(),
            b.max_load().map_or(u64::MAX, |m| m.value().to_bits()),
            b.is_inverting() as u64,
        ]
    });
    std::iter::once(lib.len() as u64)
        .chain(params)
        .flat_map(u64::to_le_bytes)
        .fold(0xcbf29ce484222325, |h, byte| {
            (h ^ byte as u64).wrapping_mul(0x100000001b3)
        })
}

impl CacheFingerprint {
    pub(crate) fn of(options: &SolverOptions, lib: &BufferLibrary, nodes: usize) -> Self {
        CacheFingerprint {
            algorithm: options.algorithm,
            track: options.track_predecessors,
            slew_bits: options.slew_limit.map_or(u64::MAX, |s| s.value().to_bits()),
            model: options.delay_model,
            derate_bits: options.rat_derate.to_bits(),
            lib_hash: library_hash(lib),
            nodes,
        }
    }

    fn matches(&self, other: &CacheFingerprint) -> bool {
        self == other
    }
}

/// What a cached solve does with the list of a node it recomputed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Snapshot {
    /// Store it and mark the node clean (every node when no footprint is
    /// set; the frontier nodes under one).
    Store,
    /// Mark the node clean without storing: under a footprint, its parent
    /// is outside the footprint too, so no merge reads this list.
    Skip,
    /// Store nothing and leave the node dirty: it is on the footprint, so
    /// the next solve recomputes it anyway.
    Recompute,
}

/// Marks a node whose list is not stored.
const NO_LIST: u32 = u32::MAX;

/// Bound on the append-only predecessor arena: past it a cached solve
/// flushes first, trading one full re-solve for the memory (results are
/// unaffected).
const ARENA_ENTRY_LIMIT: usize = 1 << 21;

/// The cache state one cached solve borrows: the per-node list slots and
/// dirty bits, the stored lists, plus the footprint roles, decided once per
/// solve.
pub(crate) struct CacheView<'a, P: Passenger = ()> {
    slots: &'a mut [u32],
    lists: &'a mut Vec<Columns<P>>,
    dirty: &'a mut [bool],
    roles: Option<&'a [Snapshot]>,
}

impl<P: Passenger> CacheView<'_, P> {
    /// `true` when `node`'s subtree is reused rather than recomputed.
    #[inline]
    pub(crate) fn is_clean(&self, node: NodeId) -> bool {
        !self.dirty[node.index()]
    }

    /// The cached list of a clean node that a recomputed parent merges.
    #[inline]
    pub(crate) fn cached(&self, node: NodeId) -> &Columns<P> {
        self.lists
            .get(self.slots[node.index()] as usize)
            .expect("clean children are always cached")
    }

    /// Records that `node` was recomputed. Returns the columns its list
    /// must be stored into (the node's previous snapshot, whose
    /// allocation is reused), or `None` when its role says not to store it.
    #[inline]
    pub(crate) fn finish(&mut self, node: NodeId) -> Option<&mut Columns<P>> {
        let i = node.index();
        match self.roles.map_or(Snapshot::Store, |roles| roles[i]) {
            Snapshot::Store => {
                self.dirty[i] = false;
                if self.slots[i] == NO_LIST {
                    self.slots[i] = self.lists.len() as u32;
                    self.lists.push(Columns::default());
                }
                Some(&mut self.lists[self.slots[i] as usize])
            }
            Snapshot::Skip => {
                self.dirty[i] = false;
                None
            }
            Snapshot::Recompute => None,
        }
    }
}

/// Checkpointed per-node candidate lists of one `(tree, config)` pair, plus
/// the predecessor arena those lists reference. See the module docs for the
/// ownership and invalidation invariants.
///
/// Drive it through
/// [`Solver::solve_cached`](crate::Solver::solve_cached) — or, almost
/// always, through `fastbuf-incremental`'s `IncrementalSolver`, which owns
/// the tree and keeps dirtiness in sync with edits automatically.
#[derive(Debug, Default)]
pub struct SubtreeCache {
    /// Per node, the index of its list in `lists`, or [`NO_LIST`]: a
    /// footprint solve stores only the frontier's lists, so a node without
    /// one costs four bytes.
    slots: Vec<u32>,
    /// The stored lists, in the order they were first stored.
    lists: Vec<Columns>,
    dirty: Vec<bool>,
    arena: PredArena,
    fingerprint: Option<CacheFingerprint>,
    flushes: u64,
    /// Per-node snapshot roles of the footprint set by
    /// [`SubtreeCache::set_footprint`]; `None` stores every recomputed list.
    footprint: Option<Vec<Snapshot>>,
}

impl SubtreeCache {
    /// Creates an empty (cold) cache.
    pub fn new() -> Self {
        SubtreeCache::default()
    }

    /// Drops (frees) every cached list, clears the predecessor arena, and
    /// forgets the fingerprint: the next cached solve recomputes everything.
    /// Only the per-node slot and dirty-bit vectors and the arena's
    /// capacity are kept. A footprint stays set: a flushed cache satisfies
    /// its invariant.
    pub fn flush(&mut self) {
        self.slots.fill(NO_LIST);
        self.lists = Vec::new();
        self.dirty.iter_mut().for_each(|d| *d = true);
        self.arena.clear();
        self.fingerprint = None;
        self.flushes += 1;
    }

    /// Marks one node's cached list stale. No-op on a cold cache (where
    /// everything is already due for recomputation) or out-of-range ids.
    ///
    /// Deliberately not public: a node marked dirty without its ancestors
    /// would let a clean parent reuse a list computed from the node's old
    /// value — a silently wrong result. The public dirtying primitives
    /// are [`SubtreeCache::mark_path_dirty`] (an edit's exact footprint)
    /// and [`SubtreeCache::flush`].
    pub(crate) fn mark_dirty(&mut self, node: NodeId) {
        if let Some(d) = self.dirty.get_mut(node.index()) {
            *d = true;
        }
    }

    /// Marks `node` and every ancestor up to the root stale — the exact
    /// invalidation footprint of an edit inside `node` (for an edit to the
    /// wire *above* `node`, start from the parent instead: the node's own
    /// subtree list is unaffected).
    ///
    /// A path that starts outside the [footprint](SubtreeCache::set_footprint)
    /// drops the footprint and flushes the cache: the lists the new path
    /// needs were never stored.
    pub fn mark_path_dirty(&mut self, tree: &RoutingTree, node: NodeId) {
        if let Some(roles) = &self.footprint {
            if roles.get(node.index()) != Some(&Snapshot::Recompute) {
                self.footprint = None;
                self.flush();
                return;
            }
        }
        let mut cur = Some(node);
        while let Some(n) = cur {
            self.mark_dirty(n);
            cur = tree.parent(n);
        }
    }

    /// Declares the footprint of a family of solves: the union of the root
    /// paths of `origins` (each the node an edit dirties from, as passed to
    /// [`SubtreeCache::mark_path_dirty`]). Later cached solves store only
    /// the frontier lists (see the module docs); `origins` naming no node
    /// of `tree` clear the footprint. A warm cache is flushed first, because the lists the
    /// new frontier needs may not be stored. Returns the footprint's node
    /// count: what a re-solve inside it recomputes.
    ///
    /// The footprint only changes which lists are kept, never a result. It
    /// pays off when every later edit lands inside it; the first one that
    /// does not drops it again, at the cost of one cold solve.
    pub fn set_footprint(&mut self, tree: &RoutingTree, origins: &[NodeId]) -> usize {
        if self.is_warm() {
            self.flush();
        }
        let n = tree.node_count();
        let mut inside = vec![false; n];
        let mut nodes = 0;
        for &origin in origins.iter().filter(|o| o.index() < n) {
            let mut cur = Some(origin);
            while let Some(v) = cur.filter(|v| !inside[v.index()]) {
                inside[v.index()] = true;
                nodes += 1;
                cur = tree.parent(v);
            }
        }
        // The root is inside exactly when some origin names a node.
        self.footprint = inside[tree.root().index()].then(|| {
            tree.node_ids()
                .map(|v| {
                    if inside[v.index()] {
                        Snapshot::Recompute
                    } else if tree.parent(v).is_some_and(|p| inside[p.index()]) {
                        Snapshot::Store
                    } else {
                        Snapshot::Skip
                    }
                })
                .collect()
        });
        nodes
    }

    /// `true` while a footprint set by [`SubtreeCache::set_footprint`] is in
    /// force (it is dropped by a dirtying outside it).
    pub fn has_footprint(&self) -> bool {
        self.footprint.is_some()
    }

    /// `true` once a cached solve has populated the cache (and no flush or
    /// fingerprint change has invalidated it since).
    pub fn is_warm(&self) -> bool {
        self.fingerprint.is_some()
    }

    /// Number of nodes currently holding a cached candidate list.
    pub fn cached_nodes(&self) -> usize {
        self.lists.len()
    }

    /// Entries in the cache-owned predecessor arena. Grows monotonically
    /// across cached solves (the arena is append-only while cached lists
    /// reference it); [`SubtreeCache::flush`] resets it, and a cached solve
    /// flushes first once it exceeds 2²¹ entries.
    pub fn arena_entries(&self) -> usize {
        self.arena.len()
    }

    /// How many times the cache has been flushed (explicitly or by a
    /// fingerprint mismatch) — the observable proof that configuration
    /// changes invalidate instead of silently reusing.
    pub fn flush_count(&self) -> u64 {
        self.flushes
    }

    /// Readies the cache for a solve under `fingerprint`: on any mismatch
    /// (config, library content, node count, a cold cache, or an arena
    /// past `ARENA_ENTRY_LIMIT`) everything is flushed and marked dirty.
    pub(crate) fn prepare(&mut self, fingerprint: CacheFingerprint) {
        let n = fingerprint.nodes;
        if self
            .footprint
            .as_ref()
            .is_some_and(|roles| roles.len() != n)
        {
            self.footprint = None; // set for a different tree
        }
        let matches = self.arena.len() <= ARENA_ENTRY_LIMIT
            && self
                .fingerprint
                .as_ref()
                .is_some_and(|old| old.matches(&fingerprint));
        if !matches {
            self.flush();
            self.slots.resize(n, NO_LIST);
            self.slots.truncate(n);
            // Sized for every list this cache will store: all nodes, or
            // the footprint's frontier.
            let stored = self.footprint.as_ref().map_or(n, |roles| {
                roles.iter().filter(|&&r| r == Snapshot::Store).count()
            });
            self.lists = Vec::with_capacity(stored);
            self.dirty.clear();
            self.dirty.resize(n, true);
        }
        self.fingerprint = Some(fingerprint);
    }

    /// Splits the cache into the parts the engine loop needs with disjoint
    /// borrows: the per-node view and the arena.
    pub(crate) fn parts_mut(&mut self) -> (CacheView<'_>, &mut PredArena) {
        let view = CacheView {
            slots: &mut self.slots,
            lists: &mut self.lists,
            dirty: &mut self.dirty,
            roles: self.footprint.as_deref(),
        };
        (view, &mut self.arena)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbuf_buflib::units::{Farads, Ohms, Seconds};
    use fastbuf_buflib::BufferType;

    fn fp(options: &SolverOptions, lib: &BufferLibrary) -> CacheFingerprint {
        CacheFingerprint::of(options, lib, 10)
    }

    #[test]
    fn fingerprint_matches_itself_and_rejects_config_changes() {
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let base = SolverOptions::default();
        assert!(fp(&base, &lib).matches(&fp(&base, &lib)));

        let mut algo = base.clone();
        algo.algorithm = crate::Algorithm::Lillis;
        assert!(!fp(&algo, &lib).matches(&fp(&base, &lib)));

        let mut track = base.clone();
        track.track_predecessors = false;
        assert!(!fp(&track, &lib).matches(&fp(&base, &lib)));

        let mut slew = base.clone();
        slew.slew_limit = Some(Seconds::from_pico(200.0));
        assert!(!fp(&slew, &lib).matches(&fp(&base, &lib)));

        // Model identity is by value: an equal model matches, a
        // re-scaled model or the other variant never does.
        let mut same = base.clone();
        same.delay_model = DelayModel::Elmore;
        assert!(fp(&same, &lib).matches(&fp(&base, &lib)));
        let mut scaled_a = base.clone();
        scaled_a.delay_model = DelayModel::ScaledElmore(0.5);
        let mut scaled_b = base.clone();
        scaled_b.delay_model = DelayModel::ScaledElmore(0.7);
        assert!(fp(&scaled_a, &lib).matches(&fp(&scaled_a.clone(), &lib)));
        assert!(!fp(&scaled_a, &lib).matches(&fp(&base, &lib)));
        assert!(!fp(&scaled_a, &lib).matches(&fp(&scaled_b, &lib)));

        // Library content is hashed: any parameter change mismatches.
        let lib2 = BufferLibrary::new(vec![BufferType::new(
            "b",
            Ohms::new(123.0),
            Farads::from_femto(5.0),
            Seconds::from_pico(20.0),
        )])
        .unwrap();
        assert!(!fp(&base, &lib2).matches(&fp(&base, &lib)));

        // Node count is part of the key.
        assert!(!CacheFingerprint::of(&base, &lib, 11).matches(&fp(&base, &lib)));
    }

    #[test]
    fn library_hash_is_content_sensitive() {
        let a = BufferLibrary::paper_synthetic(4).unwrap();
        let b = BufferLibrary::paper_synthetic(4).unwrap();
        assert_eq!(library_hash(&a), library_hash(&b));
        let c = BufferLibrary::paper_synthetic(5).unwrap();
        assert_ne!(library_hash(&a), library_hash(&c));
        let d = BufferLibrary::paper_synthetic_jittered(4, 3).unwrap();
        assert_ne!(library_hash(&a), library_hash(&d));
    }

    #[test]
    fn prepare_flushes_on_mismatch_and_keeps_state_on_match() {
        let lib = BufferLibrary::paper_synthetic(2).unwrap();
        let opts = SolverOptions::default();
        let mut cache = SubtreeCache::new();
        assert!(!cache.is_warm());
        cache.prepare(CacheFingerprint::of(&opts, &lib, 3));
        assert!(cache.is_warm());
        assert_eq!(cache.dirty, vec![true; 3]);
        let flushes = cache.flush_count();

        // Same fingerprint: nothing is invalidated.
        cache.dirty = vec![false; 3];
        cache.prepare(CacheFingerprint::of(&opts, &lib, 3));
        assert_eq!(cache.dirty, vec![false; 3]);
        assert_eq!(cache.flush_count(), flushes);

        // Config change: full flush.
        let mut other = opts.clone();
        other.slew_limit = Some(Seconds::from_pico(100.0));
        cache.prepare(CacheFingerprint::of(&other, &lib, 3));
        assert_eq!(cache.dirty, vec![true; 3]);
        assert_eq!(cache.flush_count(), flushes + 1);
    }

    /// Footprint roles: the footprint is recomputed, its frontier stored,
    /// everything below the frontier skipped; origins naming no node of the
    /// tree set no footprint.
    #[test]
    fn footprint_roles_follow_the_root_paths() {
        use fastbuf_buflib::Driver;
        use fastbuf_rctree::{TreeBuilder, Wire};
        let wire = || Wire::new(Ohms::new(10.0), Farads::from_femto(1.0));
        let sink = |b: &mut TreeBuilder| b.sink(Farads::from_femto(5.0), Seconds::from_pico(100.0));
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(100.0)));
        let top = b.buffer_site();
        let left = b.buffer_site();
        let right = b.buffer_site();
        let (s1, s2, s3) = (sink(&mut b), sink(&mut b), sink(&mut b));
        for (parent, child) in [
            (src, top),
            (top, left),
            (top, right),
            (left, s1),
            (right, s2),
            (right, s3),
        ] {
            b.connect(parent, child, wire()).unwrap();
        }
        let tree = b.build().unwrap();

        let mut cache = SubtreeCache::new();
        cache.set_footprint(&tree, &[s2]);
        let role = |cache: &SubtreeCache, v: NodeId| cache.footprint.as_ref().unwrap()[v.index()];
        for v in [src, top, right, s2] {
            assert_eq!(role(&cache, v), Snapshot::Recompute);
        }
        for v in [left, s3] {
            assert_eq!(role(&cache, v), Snapshot::Store);
        }
        assert_eq!(role(&cache, s1), Snapshot::Skip);

        // A path inside keeps it; one starting outside drops it.
        cache.mark_path_dirty(&tree, right);
        assert!(cache.has_footprint());
        cache.mark_path_dirty(&tree, s1);
        assert!(!cache.has_footprint());

        cache.set_footprint(&tree, &[NodeId::new(99)]);
        assert!(!cache.has_footprint());
        cache.set_footprint(&tree, &[]);
        assert!(!cache.has_footprint());
    }

    /// A slot stored again with a shorter and then a longer list reuses
    /// its allocation yet holds exactly the last list: no stale tail of an
    /// earlier snapshot leaks into what a later solve loads.
    #[test]
    fn reused_snapshot_slots_never_leak_a_stale_tail() {
        use crate::arena::{PredEntry, PredRef};
        use crate::slab::CandidateSlab;
        let lib = BufferLibrary::paper_synthetic(2).unwrap();
        let mut cache = SubtreeCache::new();
        cache.prepare(CacheFingerprint::of(&SolverOptions::default(), &lib, 1));
        let node = NodeId::new(0);
        let mut arena = PredArena::new();
        let mut slab = CandidateSlab::default();
        for (round, n) in [9usize, 3, 14].into_iter().enumerate() {
            let mut src = Columns::default();
            for i in 0..n {
                let x = (100 * round + i) as f64;
                let pred = arena.push(PredEntry::Merge {
                    left: PredRef::NONE,
                    right: PredRef::NONE,
                });
                src.push(x, x + 0.5, x * 0.25, pred);
            }
            let list = slab.load(&src);
            let (mut view, _) = cache.parts_mut();
            slab.store(list, view.finish(node).expect("no footprint: stored"));
            let (view, _) = cache.parts_mut();
            let mut fresh = CandidateSlab::default();
            let loaded = fresh.load(view.cached(node));
            let got = fresh.view(loaded);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(got.q), bits(&src.q), "round {round}");
            assert_eq!(bits(got.c), bits(&src.c), "round {round}");
            assert_eq!(bits(got.s), bits(&src.s), "round {round}");
            assert_eq!(got.pred, &src.pred[..], "round {round}");
        }
        assert_eq!(cache.cached_nodes(), 1);
    }

    #[test]
    fn mark_dirty_is_bounds_safe() {
        let mut cache = SubtreeCache::new();
        cache.mark_dirty(NodeId::new(5)); // cold cache: no-op, no panic
        assert!(!cache.is_warm());
    }
}
