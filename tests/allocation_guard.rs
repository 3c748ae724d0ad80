//! Allocation guard for tree building and net generation.
//!
//! `TreeBuilder` keeps one flat list of connected children and the
//! generators segment their wires before a single build, so building a
//! tree, and generating a whole net, costs a fixed number of heap
//! allocations whatever the node count. This binary installs a counting
//! global allocator that counts only the calling thread's allocations
//! and the heap bytes they retain (other test threads run beside it). It
//! checks that the count does not grow between 1× and 8× the node count,
//! so a per-node allocation cannot creep back unnoticed, that a warm
//! `SolveWorkspace` solves with no allocation that grows with the net,
//! that a tree holds no more bytes than its node columns need, and that a
//! multi-corner ECO session holds its net once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use fastbuf::api::{Scenario, Session};
use fastbuf::buflib::units::{Farads, Microns, Ohms, Seconds};
use fastbuf::buflib::{BufferLibrary, Driver, Technology};
use fastbuf::netgen::{
    build_topology, CtsPlacementSpec, CtsTopologySpec, RandomNetSpec, SuiteSpec,
};
use fastbuf::rctree::{NodeId, RoutingTree, TreeBuilder, Wire};
use fastbuf::{SolveWorkspace, Solver};

thread_local! {
    /// Allocations (including reallocations) made by this thread while
    /// `COUNTING` is set.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread allocated minus the bytes it freed while
    /// `COUNTING` is set.
    static RETAINED: Cell<isize> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

impl Counting {
    /// Records an allocation event that grows the heap by `bytes`.
    fn record(bytes: isize) {
        if COUNTING.with(Cell::get) {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            RETAINED.with(|n| n.set(n.get() + bytes));
        }
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// bookkeeping only touches const-initialized thread-locals, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::record(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::record(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.with(Cell::get) {
            RETAINED.with(|n| n.set(n.get() - layout.size() as isize));
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the number of allocations it made
/// on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let (out, allocations, _) = measured(f);
    (out, allocations)
}

/// Runs `f` and returns its result with the number of allocations it made
/// on this thread and the heap bytes that are still held when it returns.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, isize) {
    ALLOCATIONS.with(|n| n.set(0));
    RETAINED.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCATIONS.with(Cell::get), RETAINED.with(Cell::get))
}

/// The heap a tree may hold: 48 bytes per node (its columns take 45), 24
/// per sink or source (the side table of their kinds) and 256 per tree
/// (the column headers and any slack).
fn byte_budget(tree: &RoutingTree) -> isize {
    (48 * tree.node_count() + 24 * (tree.sink_count() + 1) + 256) as isize
}

/// A builder for a complete ternary tree of `nodes` nodes: node `i > 0`
/// hangs below node `(i - 1) / 3`, and nodes without children are sinks.
/// Wires are connected in reverse id order, so the child lists need the
/// sort.
fn ternary_builder(nodes: usize) -> TreeBuilder {
    let tech = Technology::tsmc180_like();
    let mut b = TreeBuilder::new();
    b.source(Driver::new(Ohms::new(120.0)));
    for i in 1..nodes {
        if 3 * i + 1 < nodes {
            b.buffer_site();
        } else {
            b.sink(Farads::from_femto(8.0), Seconds::from_pico(900.0));
        }
    }
    for i in (1..nodes).rev() {
        let wire = Wire::from_length(&tech, Microns::new(150.0));
        b.connect(NodeId::new((i - 1) / 3), NodeId::new(i), wire)
            .unwrap();
    }
    b
}

#[test]
fn tree_build_allocations_do_not_grow_with_the_node_count() {
    let (small_nodes, large_nodes) = (1_000, 8_000);
    let (small, large) = (ternary_builder(small_nodes), ternary_builder(large_nodes));
    let (tree, at_1x) = counted(|| small.build().unwrap());
    assert_eq!(tree.node_count(), small_nodes);
    let (tree, at_8x) = counted(|| large.build().unwrap());
    assert_eq!(tree.node_count(), large_nodes);
    assert!(
        at_8x <= at_1x,
        "TreeBuilder::build made {at_1x} allocations at {small_nodes} nodes \
         and {at_8x} at {large_nodes}"
    );
}

#[test]
fn net_generation_allocations_do_not_grow_with_the_node_count() {
    // The die grows with √sinks, as in `SuiteSpec`, so segmenting adds
    // sites in proportion to the sinks.
    let spec = |sinks: usize| RandomNetSpec {
        sinks,
        seed: 3,
        die: Microns::new(250.0 * (sinks as f64).sqrt()),
        ..RandomNetSpec::default()
    };
    let (small, at_1x) = counted(|| spec(64).build());
    let (large, at_8x) = counted(|| spec(512).build());
    assert!(
        large.node_count() >= 7 * small.node_count(),
        "{} vs {} nodes",
        small.node_count(),
        large.node_count()
    );
    assert!(
        at_8x <= at_1x,
        "RandomNetSpec::build made {at_1x} allocations at {} nodes and {at_8x} at {}",
        small.node_count(),
        large.node_count()
    );
}

/// The `fleet` path: a worker's `SolveWorkspace` recycles every list,
/// arena and scratch column between solves. Its columns change hands
/// (a merge-insert swaps a short list with its staging columns), so they
/// settle at the capacities a net needs only over a few repeat solves,
/// and a later one may still regrow a column. What is checked: the
/// fewest allocations over 32 repeat solves is the same at 1× and at 8×
/// the nodes (it is 1 at both, the placement walk's one-element stack).
/// Untracked, so the count is the DP's own: a tracked solve also returns
/// a new placement list, which grows with the placements.
#[test]
fn warm_workspace_solve_allocations_do_not_grow_with_the_node_count() {
    let lib = BufferLibrary::paper_synthetic(8).unwrap();
    let net = |sinks: usize| {
        RandomNetSpec {
            sinks,
            seed: 3,
            die: Microns::new(250.0 * (sinks as f64).sqrt()),
            ..RandomNetSpec::default()
        }
        .build()
    };
    let (small, large) = (net(64), net(512));
    assert!(large.node_count() >= 7 * small.node_count());
    // The fewest allocations of 32 repeat solves in one workspace.
    let warm = |tree: &RoutingTree| {
        let mut workspace = SolveWorkspace::new();
        let solver = Solver::new(tree, &lib).track_predecessors(false);
        (0..32)
            .map(|_| counted(|| solver.solve_with(&mut workspace)).1)
            .min()
            .unwrap()
    };
    let (at_1x, at_8x) = (warm(&small), warm(&large));
    assert_eq!(
        at_1x,
        at_8x,
        "a warm solve_with made {at_1x} allocations at {} nodes and {at_8x} at {}",
        small.node_count(),
        large.node_count()
    );
}

#[test]
fn generated_trees_stay_within_their_byte_budget() {
    // The fleet benchmark's suite: 512 heavy-tailed nets of up to 256
    // sinks, about 28k nodes in all.
    let spec = SuiteSpec {
        nets: 512,
        max_sinks: 256,
        seed: 1,
        ..SuiteSpec::default()
    };
    let (suite, _, retained) = measured(|| spec.build());
    let budget: isize = suite.iter().map(byte_budget).sum();
    let nodes: usize = suite.iter().map(RoutingTree::node_count).sum();
    assert!(
        retained <= budget,
        "{} trees of {nodes} nodes retain {retained} bytes against a budget of {budget}",
        suite.len()
    );

    // A copy of the 1,024-sink clock tree the objectives benchmark
    // clones into every yield request.
    let placements = CtsPlacementSpec {
        sinks: 1024,
        seed: 1,
        ..CtsPlacementSpec::default()
    }
    .generate();
    let tree = build_topology(&placements, &CtsTopologySpec::default())
        .unwrap()
        .tree;
    let (copy, _, retained) = measured(|| tree.clone());
    assert!(
        retained <= byte_budget(&copy),
        "a copy of {} nodes retains {retained} bytes against a budget of {}",
        copy.node_count(),
        byte_budget(&copy)
    );
}

/// Every corner of an ECO session solves the one copy of the net, and the
/// library is the session's: beside the tree, a corner holds only its
/// scenario, options and (still empty) cache.
#[test]
fn a_multi_corner_eco_session_holds_one_tree() {
    let session = Session::new(BufferLibrary::paper_synthetic(8).unwrap());
    let die = Microns::new(4_000.0);
    let tree = RandomNetSpec {
        sinks: 256,
        seed: 3,
        die,
        ..RandomNetSpec::default()
    }
    .build();
    let corners = vec![
        Scenario::named("typical"),
        Scenario::named("slow").rat_derate(0.9),
        Scenario::named("signoff").slew_limit(Seconds::from_pico(300.0)),
        Scenario::named("fast").rat_derate(1.1),
    ];
    let (eco, _, retained) = measured(|| session.eco(&tree, corners).unwrap());
    let budget = byte_budget(eco.tree()) + 4 * 1024;
    assert!(
        retained <= budget,
        "a 4-corner session retains {retained} B of {budget} B"
    );
}
