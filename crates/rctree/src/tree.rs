//! The routing tree and its builder.
//!
//! Both hold a tree as per-node columns ([`Nodes`]), and
//! [`TreeBuilder::build`] moves the builder's columns into the tree
//! without copying them. A node costs 45 bytes: a `u32` terminal slot,
//! a `u8` site tag, a `u32` parent, a 24-byte [`Wire`], and the tree's
//! `u32` child offset, child entry and post-order entry. Only sinks and
//! the source pay another 24 bytes, for their [`NodeKind`]; `Subset`
//! constraints and site variation live in tables that most trees leave
//! empty.

use fastbuf_buflib::units::{Farads, Seconds};
use fastbuf_buflib::Driver;

use crate::error::TreeError;
use crate::node::{NodeId, NodeKind, SiteConstraint, SiteVariation, Wire};
use crate::stats::TreeStats;

/// An absent id in a `u32` column: no parent (the root, or a builder node
/// not yet connected), or no terminal slot (an internal node).
const NONE: u32 = u32::MAX;

/// Site tags: a node's [`SiteConstraint`] variant.
const NOT_A_SITE: u8 = 0;
const ANY_BUFFER: u8 = 1;
/// A [`SiteConstraint::Subset`], whose set is in [`Nodes::subsets`].
const SUBSET: u8 = 2;

/// What [`RoutingTree::kind`] and [`RoutingTree::site_constraint`] lend
/// for the nodes whose column holds only a tag.
static INTERNAL: NodeKind = NodeKind::Internal;
static NOT_A_SITE_CONSTRAINT: SiteConstraint = SiteConstraint::NotASite;
static ANY_BUFFER_CONSTRAINT: SiteConstraint = SiteConstraint::AnyBuffer;

/// The per-node columns of a tree, shared by [`TreeBuilder`] and
/// [`RoutingTree`].
#[derive(Clone, Debug, Default)]
struct Nodes {
    /// Slot in `terminals` of a sink or source; `NONE` for internal nodes.
    terminal: Vec<u32>,
    /// The kinds of the sinks and sources, in id order.
    terminals: Vec<NodeKind>,
    /// Site tag per node.
    site: Vec<u8>,
    /// The constraints of the nodes tagged `SUBSET`, sorted by id.
    subsets: Vec<(NodeId, SiteConstraint)>,
    /// Parent id per node; `NONE` for the root and unconnected nodes.
    parent: Vec<u32>,
    /// The wire to the parent (meaningless while `parent` is `NONE`).
    wires: Vec<Wire>,
}

impl Nodes {
    /// Room for `nodes` nodes, half of them sinks: the share of a tree
    /// whose every internal node branches. Terminals never outnumber the
    /// nodes, so a tree with more regrows `terminals` at most once.
    fn with_capacity(nodes: usize) -> Self {
        Nodes {
            terminal: Vec::with_capacity(nodes),
            terminals: Vec::with_capacity(nodes / 2 + 1),
            site: Vec::with_capacity(nodes),
            subsets: Vec::new(),
            parent: Vec::with_capacity(nodes),
            wires: Vec::with_capacity(nodes),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.terminal.len()
    }

    fn reserve_exact(&mut self, additional: usize) {
        self.terminal.reserve_exact(additional);
        self.site.reserve_exact(additional);
        self.parent.reserve_exact(additional);
        self.wires.reserve_exact(additional);
    }

    /// Appends an unconnected node.
    fn push(&mut self, kind: NodeKind, site: SiteConstraint) -> NodeId {
        let id = NodeId::new(self.len());
        if kind.is_internal() {
            self.terminal.push(NONE);
        } else {
            self.terminal.push(self.terminals.len() as u32);
            self.terminals.push(kind);
        }
        self.site.push(NOT_A_SITE);
        self.parent.push(NONE);
        self.wires.push(Wire::zero());
        self.set_site(id, site);
        id
    }

    #[inline]
    fn kind(&self, i: usize) -> &NodeKind {
        match self.terminal[i] {
            NONE => &INTERNAL,
            slot => &self.terminals[slot as usize],
        }
    }

    /// The load and required time of sink `node`, for editing.
    fn sink_mut(&mut self, node: NodeId) -> Result<(&mut Farads, &mut Seconds), TreeError> {
        let slot = *self
            .terminal
            .get(node.index())
            .ok_or(TreeError::UnknownNode { node })?;
        match self.terminals.get_mut(slot as usize) {
            Some(NodeKind::Sink {
                capacitance,
                required_arrival,
            }) => Ok((capacitance, required_arrival)),
            _ => Err(TreeError::NotASink { node }),
        }
    }

    #[inline]
    fn parent(&self, i: usize) -> Option<NodeId> {
        match self.parent[i] {
            NONE => None,
            p => Some(NodeId::new(p as usize)),
        }
    }

    fn subset_slot(&self, node: NodeId) -> Result<usize, usize> {
        self.subsets.binary_search_by_key(&node, |&(v, _)| v)
    }

    #[inline]
    fn site(&self, i: usize) -> &SiteConstraint {
        match self.site[i] {
            NOT_A_SITE => &NOT_A_SITE_CONSTRAINT,
            ANY_BUFFER => &ANY_BUFFER_CONSTRAINT,
            _ => {
                let slot = self.subset_slot(NodeId::new(i));
                &self.subsets[slot.expect("a subset-tagged node has a set")].1
            }
        }
    }

    #[inline]
    fn is_site(&self, i: usize) -> bool {
        match self.site[i] {
            NOT_A_SITE => false,
            ANY_BUFFER => true,
            _ => self.site(i).is_site(),
        }
    }

    /// Replaces the constraint at `node`, keeping `subsets` sorted.
    fn set_site(&mut self, node: NodeId, constraint: SiteConstraint) {
        let i = node.index();
        let was_subset = self.site[i] == SUBSET;
        self.site[i] = match constraint {
            SiteConstraint::NotASite => NOT_A_SITE,
            SiteConstraint::AnyBuffer => ANY_BUFFER,
            SiteConstraint::Subset(_) => SUBSET,
        };
        if self.site[i] == SUBSET {
            match self.subset_slot(node) {
                Ok(slot) => self.subsets[slot].1 = constraint,
                Err(slot) => self.subsets.insert(slot, (node, constraint)),
            }
        } else if was_subset {
            let slot = self.subset_slot(node);
            self.subsets
                .remove(slot.expect("a subset-tagged node has a set"));
        }
    }

    /// The constraint check both [`TreeBuilder::set_site_constraint`] and
    /// [`RoutingTree::set_site_constraint`] make before replacing one.
    fn check_site(&self, node: NodeId, constraint: &SiteConstraint) -> Result<(), TreeError> {
        if node.index() >= self.len() {
            return Err(TreeError::UnknownNode { node });
        }
        if !self.kind(node.index()).is_internal() && constraint.is_site() {
            return Err(TreeError::SiteOnNonInternal { node });
        }
        Ok(())
    }
}

/// An immutable, validated routing tree.
///
/// Built with [`TreeBuilder`]. Guarantees after construction:
///
/// * exactly one source, which is the root;
/// * every other node has exactly one parent and is reachable from the root;
/// * all leaves are sinks and all sinks are leaves;
/// * all wires and sink parameters are finite and non-negative;
/// * a post-order traversal (children before parents) is precomputed.
#[derive(Clone, Debug)]
pub struct RoutingTree {
    nodes: Nodes,
    /// Empty while every node is nominal; one entry per node after the
    /// first non-nominal [`RoutingTree::set_site_variation`].
    variation: Vec<SiteVariation>,
    child_start: Vec<u32>,
    child_list: Vec<NodeId>,
    postorder: Vec<NodeId>,
    root: NodeId,
    site_count: usize,
}

impl RoutingTree {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The root (source) node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The source driver.
    pub fn driver(&self) -> &Driver {
        match self.kind(self.root) {
            NodeKind::Source { driver } => driver,
            _ => unreachable!("root is always a source"),
        }
    }

    /// The kind of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not from this tree.
    #[inline]
    pub fn kind(&self, node: NodeId) -> &NodeKind {
        self.nodes.kind(node.index())
    }

    /// The buffer-site constraint at `node` ([`SiteConstraint::NotASite`]
    /// for sinks and the source).
    #[inline]
    pub fn site_constraint(&self, node: NodeId) -> &SiteConstraint {
        self.nodes.site(node.index())
    }

    /// `true` if buffers may be inserted at `node`.
    #[inline]
    pub fn is_buffer_site(&self, node: NodeId) -> bool {
        self.nodes.is_site(node.index())
    }

    /// The local process-variation factors at `node`
    /// ([`SiteVariation::NOMINAL`] unless edited). Only consulted where a
    /// buffer is actually inserted; nominal everywhere reproduces the
    /// variation-free arithmetic bit for bit.
    #[inline]
    pub fn site_variation(&self, node: NodeId) -> SiteVariation {
        match self.variation.get(node.index()) {
            Some(&variation) => variation,
            None => {
                assert!(
                    node.index() < self.node_count(),
                    "{node} is not in the tree"
                );
                SiteVariation::NOMINAL
            }
        }
    }

    /// The parent of `node` (`None` for the root).
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes.parent(node.index())
    }

    /// The wire from `node` to its parent (`None` for the root).
    #[inline]
    pub fn wire_to_parent(&self, node: NodeId) -> Option<&Wire> {
        let i = node.index();
        (self.nodes.parent[i] != NONE).then(|| &self.nodes.wires[i])
    }

    /// The children of `node`.
    #[inline]
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.child_list[self.child_start[i] as usize..self.child_start[i + 1] as usize]
    }

    /// Nodes in post-order: every node appears after all of its children.
    /// The last entry is the root. The reversed slice visits parents before
    /// children (a valid top-down order).
    #[inline]
    pub fn postorder(&self) -> &[NodeId] {
        &self.postorder
    }

    /// Iterates over all node ids in index order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// Iterates over sink nodes in index order.
    pub fn sinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&n| self.kind(n).is_sink())
    }

    /// Iterates over buffer positions in index order.
    pub fn buffer_sites(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&n| self.is_buffer_site(n))
    }

    /// Number of sinks (the paper's `m`).
    #[inline]
    pub fn sink_count(&self) -> usize {
        // Every terminal but the one source is a sink.
        self.nodes.terminals.len() - 1
    }

    /// Number of buffer positions (the paper's `n`).
    #[inline]
    pub fn buffer_site_count(&self) -> usize {
        self.site_count
    }

    /// Summary statistics (node/sink/site counts, depth, total parasitics).
    pub fn stats(&self) -> TreeStats {
        TreeStats::compute(self)
    }

    /// Replaces the wire from `node` to its parent — a topology-preserving
    /// edit: ids, parents, children, and the post-order stay valid, so
    /// per-subtree caches keyed on node ids survive (only the path from
    /// `node`'s parent to the root needs re-solving; see
    /// `fastbuf-incremental`).
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownNode`], [`TreeError::NoParentWire`] (the root
    /// has no parent wire), or [`TreeError::InvalidWire`] (negative /
    /// non-finite parasitics).
    pub fn set_wire_to_parent(&mut self, node: NodeId, wire: Wire) -> Result<(), TreeError> {
        if node.index() >= self.node_count() {
            return Err(TreeError::UnknownNode { node });
        }
        if self.parent(node).is_none() {
            return Err(TreeError::NoParentWire { node });
        }
        if !wire.is_valid() {
            return Err(TreeError::InvalidWire { child: node });
        }
        self.nodes.wires[node.index()] = wire;
        Ok(())
    }

    /// Replaces the required arrival time of sink `node` (topology
    /// preserving, like [`RoutingTree::set_wire_to_parent`]).
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownNode`], [`TreeError::NotASink`], or
    /// [`TreeError::InvalidSink`] (non-finite RAT).
    pub fn set_sink_rat(&mut self, node: NodeId, rat: Seconds) -> Result<(), TreeError> {
        if !rat.is_finite() {
            return Err(TreeError::InvalidSink { node });
        }
        *self.nodes.sink_mut(node)?.1 = rat;
        Ok(())
    }

    /// Replaces the load capacitance of sink `node` (topology preserving).
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownNode`], [`TreeError::NotASink`], or
    /// [`TreeError::InvalidSink`] (negative / non-finite capacitance).
    pub fn set_sink_cap(&mut self, node: NodeId, cap: Farads) -> Result<(), TreeError> {
        if !cap.is_finite() || cap < Farads::ZERO {
            return Err(TreeError::InvalidSink { node });
        }
        *self.nodes.sink_mut(node)?.0 = cap;
        Ok(())
    }

    /// Replaces the buffer-site constraint at `node`, keeping
    /// [`RoutingTree::buffer_site_count`] in sync (topology preserving).
    /// Mirrors [`TreeBuilder::set_site_constraint`]: clearing a constraint
    /// on a sink or the source is an allowed no-op, placing one there is an
    /// error.
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownNode`] or [`TreeError::SiteOnNonInternal`].
    pub fn set_site_constraint(
        &mut self,
        node: NodeId,
        constraint: SiteConstraint,
    ) -> Result<(), TreeError> {
        self.nodes.check_site(node, &constraint)?;
        let was = self.nodes.is_site(node.index());
        let is = constraint.is_site();
        self.nodes.set_site(node, constraint);
        match (was, is) {
            (true, false) => self.site_count -= 1,
            (false, true) => self.site_count += 1,
            _ => {}
        }
        Ok(())
    }

    /// Replaces the process-variation factors at `node` (topology
    /// preserving, like [`RoutingTree::set_wire_to_parent`]). The factors
    /// derate any buffer *inserted* at `node`, so they are inert on nodes
    /// that are not buffer sites — setting them anywhere is allowed, which
    /// keeps variation edits independent of site block/unblock edits.
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownNode`] or [`TreeError::InvalidVariation`]
    /// (non-finite or non-positive scale factors).
    pub fn set_site_variation(
        &mut self,
        node: NodeId,
        variation: SiteVariation,
    ) -> Result<(), TreeError> {
        if node.index() >= self.node_count() {
            return Err(TreeError::UnknownNode { node });
        }
        if !variation.is_valid() {
            return Err(TreeError::InvalidVariation { node });
        }
        if self.variation.is_empty() {
            if variation.is_nominal() {
                return Ok(());
            }
            self.variation = vec![SiteVariation::NOMINAL; self.node_count()];
        }
        self.variation[node.index()] = variation;
        Ok(())
    }
}

/// Incremental builder for [`RoutingTree`].
///
/// Create nodes with [`TreeBuilder::source`], [`TreeBuilder::sink`],
/// [`TreeBuilder::internal`] or [`TreeBuilder::buffer_site`]; connect them
/// with [`TreeBuilder::connect`]; finish with [`TreeBuilder::build`], which
/// validates the whole structure.
///
/// The contract the generators and the segmenters rely on:
///
/// * node ids follow creation order (`NodeId::new(0)` is the first node
///   created);
/// * [`RoutingTree::children`] lists each node's children in the order
///   they were connected;
/// * [`TreeBuilder::build_segmented_by_pitch`] and
///   [`TreeBuilder::build_segmented_uniform`] keep every id, append the new
///   sites after the existing nodes in child-id order (the sites of the
///   wire above node `v` come before those above `v + 1`), and re-connect
///   every node's children in child-id order.
///
/// The builder keeps the tree's own node columns plus one flat list of
/// connected children, so building costs a fixed number of allocations
/// whatever the node count; callers that know their size can reserve it
/// up front with [`TreeBuilder::with_capacity`].
///
/// # Example
///
/// ```
/// use fastbuf_buflib::Driver;
/// use fastbuf_buflib::units::{Farads, Ohms, Seconds};
/// use fastbuf_rctree::{TreeBuilder, Wire};
///
/// let mut b = TreeBuilder::new();
/// let src = b.source(Driver::new(Ohms::new(100.0)));
/// let tee = b.internal();
/// let s1 = b.sink(Farads::from_femto(5.0), Seconds::from_pico(300.0));
/// let s2 = b.sink(Farads::from_femto(8.0), Seconds::from_pico(250.0));
/// b.connect(src, tee, Wire::new(Ohms::new(10.0), Farads::from_femto(20.0)))?;
/// b.connect(tee, s1, Wire::new(Ohms::new(5.0), Farads::from_femto(10.0)))?;
/// b.connect(tee, s2, Wire::new(Ohms::new(5.0), Farads::from_femto(10.0)))?;
/// let tree = b.build()?;
/// assert_eq!(tree.node_count(), 4);
/// assert_eq!(tree.children(tee).len(), 2);
/// # Ok::<(), fastbuf_rctree::TreeError>(())
/// ```
#[derive(Debug, Default)]
pub struct TreeBuilder {
    nodes: Nodes,
    /// Every connected child, in connect order; its parent and wire are
    /// in `nodes`.
    edges: Vec<NodeId>,
    source: Option<NodeId>,
    extra_source: Option<NodeId>,
}

impl TreeBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TreeBuilder::default()
    }

    /// Creates an empty builder with room for `nodes` nodes (and the
    /// `nodes - 1` wires a tree of that size has), so building a tree of
    /// that size allocates nothing per node while nodes are added.
    pub fn with_capacity(nodes: usize) -> Self {
        TreeBuilder {
            nodes: Nodes::with_capacity(nodes),
            edges: Vec::with_capacity(nodes.saturating_sub(1)),
            source: None,
            extra_source: None,
        }
    }

    /// A builder holding `tree`'s nodes (same ids, kinds and site
    /// constraints) and wires, with every child connected in id order.
    /// Site variation is not carried over.
    pub(crate) fn from_tree(tree: &RoutingTree) -> Self {
        TreeBuilder {
            nodes: tree.nodes.clone(),
            edges: tree
                .node_ids()
                .filter(|&v| tree.parent(v).is_some())
                .collect(),
            source: Some(tree.root),
            extra_source: None,
        }
    }

    /// Adds the source node. The first call defines the root; additional
    /// calls are recorded and reported as
    /// [`TreeError::MultipleSources`] by [`TreeBuilder::build`].
    pub fn source(&mut self, driver: Driver) -> NodeId {
        let id = self
            .nodes
            .push(NodeKind::Source { driver }, SiteConstraint::NotASite);
        if self.source.is_none() {
            self.source = Some(id);
        } else if self.extra_source.is_none() {
            self.extra_source = Some(id);
        }
        id
    }

    /// Adds a sink with the given load capacitance and required arrival
    /// time. Parameter validity is checked by [`TreeBuilder::build`].
    pub fn sink(&mut self, capacitance: Farads, required_arrival: Seconds) -> NodeId {
        self.nodes.push(
            NodeKind::Sink {
                capacitance,
                required_arrival,
            },
            SiteConstraint::NotASite,
        )
    }

    /// Adds an internal node that is *not* a buffer position (e.g. a Steiner
    /// branching point).
    pub fn internal(&mut self) -> NodeId {
        self.nodes
            .push(NodeKind::Internal, SiteConstraint::NotASite)
    }

    /// Adds an internal node where any library buffer may be inserted.
    pub fn buffer_site(&mut self) -> NodeId {
        self.nodes
            .push(NodeKind::Internal, SiteConstraint::AnyBuffer)
    }

    /// Adds an internal node with an explicit site constraint.
    pub fn internal_with(&mut self, constraint: SiteConstraint) -> NodeId {
        self.nodes.push(NodeKind::Internal, constraint)
    }

    /// Replaces the site constraint of an existing internal node.
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownNode`] if `node` was not created by this builder;
    /// [`TreeError::SiteOnNonInternal`] if `node` is a source or sink and
    /// `constraint` is anything but [`SiteConstraint::NotASite`].
    pub fn set_site_constraint(
        &mut self,
        node: NodeId,
        constraint: SiteConstraint,
    ) -> Result<(), TreeError> {
        self.nodes.check_site(node, &constraint)?;
        self.nodes.set_site(node, constraint);
        Ok(())
    }

    /// Connects `child` under `parent` through `wire`.
    ///
    /// # Errors
    ///
    /// [`TreeError::UnknownNode`], [`TreeError::SelfLoop`],
    /// [`TreeError::DuplicateParent`] (child already connected),
    /// [`TreeError::SourceHasParent`], or [`TreeError::InvalidWire`]
    /// (negative / non-finite parasitics).
    pub fn connect(&mut self, parent: NodeId, child: NodeId, wire: Wire) -> Result<(), TreeError> {
        if parent.index() >= self.nodes.len() {
            return Err(TreeError::UnknownNode { node: parent });
        }
        if child.index() >= self.nodes.len() {
            return Err(TreeError::UnknownNode { node: child });
        }
        if parent == child {
            return Err(TreeError::SelfLoop { node: parent });
        }
        if self.nodes.kind(child.index()).is_source() {
            return Err(TreeError::SourceHasParent);
        }
        if self.nodes.parent[child.index()] != NONE {
            return Err(TreeError::DuplicateParent { node: child });
        }
        if !wire.is_valid() {
            return Err(TreeError::InvalidWire { child });
        }
        self.nodes.parent[child.index()] = parent.index() as u32;
        self.nodes.wires[child.index()] = wire;
        self.edges.push(child);
        Ok(())
    }

    /// Number of nodes created so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Splits the wire above every connected node `v` into
    /// `pieces_for(wire)` equal pieces (at least one) joined by new buffer
    /// sites, and re-connects every child list in child-id order (see the
    /// type's contract). A wire for which `pieces_for` returns `None` stays
    /// whole; the first such child in id order is returned with the number
    /// of sites added.
    pub(crate) fn split_wires(
        &mut self,
        pieces_for: impl Fn(&Wire) -> Option<usize>,
    ) -> (usize, Option<NodeId>) {
        let n = self.nodes.len();
        let pieces = |wire: &Wire| pieces_for(wire).map_or(1, |k| k.max(1));
        let mut added = 0;
        let mut unsplit = None;
        for v in 0..n {
            if self.nodes.parent[v] != NONE {
                match pieces_for(&self.nodes.wires[v]) {
                    Some(k) => added += k.max(1) - 1,
                    None if unsplit.is_none() => unsplit = Some(NodeId::new(v)),
                    None => {}
                }
            }
        }
        self.nodes.reserve_exact(added);
        let mut edges = Vec::with_capacity(self.edges.len() + added);
        for v in 0..n {
            let Some(parent) = self.nodes.parent(v) else {
                continue;
            };
            let wire = self.nodes.wires[v];
            let pieces = pieces(&wire);
            let seg = wire.split(pieces);
            let mut upstream = parent;
            for _ in 1..pieces {
                let site = self
                    .nodes
                    .push(NodeKind::Internal, SiteConstraint::AnyBuffer);
                self.nodes.parent[site.index()] = upstream.index() as u32;
                self.nodes.wires[site.index()] = seg;
                edges.push(site);
                upstream = site;
            }
            self.nodes.parent[v] = upstream.index() as u32;
            self.nodes.wires[v] = seg;
            edges.push(NodeId::new(v));
        }
        self.edges = edges;
        (added, unsplit)
    }

    /// Validates the structure and produces the immutable tree.
    ///
    /// # Errors
    ///
    /// Any of the structural [`TreeError`] variants; see the crate
    /// documentation for the invariants enforced.
    pub fn build(self) -> Result<RoutingTree, TreeError> {
        let root = self.source.ok_or(TreeError::NoSource)?;
        if let Some(second) = self.extra_source {
            return Err(TreeError::MultipleSources { second });
        }
        let mut nodes = self.nodes;
        let n = nodes.len();
        let parent_of = |child: NodeId| nodes.parent[child.index()] as usize;

        // Children CSR, first pass: `child_start[i]` becomes the offset of
        // node i's children.
        let mut child_start = vec![0u32; n + 1];
        for &child in &self.edges {
            child_start[parent_of(child) + 1] += 1;
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let has_children = |i: usize| child_start[i + 1] > child_start[i];

        // Per-node validity.
        let mut site_count = 0usize;
        for i in 0..n {
            let id = NodeId::new(i);
            match nodes.kind(i) {
                NodeKind::Sink {
                    capacitance,
                    required_arrival,
                } => {
                    if !capacitance.is_finite()
                        || *capacitance < Farads::ZERO
                        || !required_arrival.is_finite()
                    {
                        return Err(TreeError::InvalidSink { node: id });
                    }
                    if has_children(i) {
                        return Err(TreeError::SinkWithChildren { node: id });
                    }
                }
                NodeKind::Internal => {
                    if !has_children(i) {
                        return Err(TreeError::InternalLeaf { node: id });
                    }
                    if nodes.is_site(i) {
                        site_count += 1;
                    }
                }
                NodeKind::Source { .. } => {}
            }
        }
        // The terminals are the one source and the sinks.
        if nodes.terminals.len() == 1 {
            return Err(TreeError::NoSinks);
        }

        // Second pass, a stable counting sort: each parent's children land
        // in connect order. Filling advances `child_start[p]` to the end of
        // p's run, which is where p + 1 starts, so a shift restores it.
        let mut child_list = vec![root; self.edges.len()];
        for &child in &self.edges {
            let slot = &mut child_start[parent_of(child)];
            child_list[*slot as usize] = child;
            *slot += 1;
        }
        child_start.copy_within(0..n, 1);
        child_start[0] = 0;

        // Post-order via iterative DFS. `connect` gives every node at most
        // one parent, so each reachable node is visited exactly once and the
        // tree is connected iff the post-order holds all n nodes. The stack
        // holds at most one entry per tree level.
        let mut postorder = Vec::with_capacity(n);
        // Stack of (node, next-child offset).
        let mut stack: Vec<(NodeId, u32)> = Vec::with_capacity(n);
        stack.push((root, child_start[root.index()]));
        while let Some((node, next)) = stack.pop() {
            if next < child_start[node.index() + 1] {
                stack.push((node, next + 1));
                let child = child_list[next as usize];
                stack.push((child, child_start[child.index()]));
            } else {
                postorder.push(node);
            }
        }
        if postorder.len() < n {
            let mut visited = vec![false; n];
            for v in &postorder {
                visited[v.index()] = true;
            }
            let first = visited
                .iter()
                .position(|&v| !v)
                .expect("a node is unvisited");
            return Err(TreeError::Unreachable {
                node: NodeId::new(first),
            });
        }

        // The node columns move into the tree as they are; only the side
        // table, sized by a guess, is trimmed.
        nodes.terminals.shrink_to_fit();
        Ok(RoutingTree {
            nodes,
            variation: Vec::new(),
            child_start,
            child_list,
            postorder,
            root,
            site_count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbuf_buflib::units::Ohms;

    fn wire() -> Wire {
        Wire::new(Ohms::new(10.0), Farads::from_femto(5.0))
    }

    fn sink_args() -> (Farads, Seconds) {
        (Farads::from_femto(4.0), Seconds::from_pico(100.0))
    }

    /// src -> a(site) -> {s1, b(internal) -> s2}
    fn small_tree() -> RoutingTree {
        let mut b = TreeBuilder::new();
        let (c, r) = sink_args();
        let src = b.source(Driver::new(Ohms::new(100.0)));
        let a = b.buffer_site();
        let s1 = b.sink(c, r);
        let t = b.internal();
        let s2 = b.sink(c, r);
        b.connect(src, a, wire()).unwrap();
        b.connect(a, s1, wire()).unwrap();
        b.connect(a, t, wire()).unwrap();
        b.connect(t, s2, wire()).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn builds_and_exposes_structure() {
        let t = small_tree();
        assert_eq!(t.node_count(), 5);
        assert_eq!(t.sink_count(), 2);
        assert_eq!(t.buffer_site_count(), 1);
        assert_eq!(t.root(), NodeId::new(0));
        assert_eq!(t.parent(NodeId::new(1)), Some(NodeId::new(0)));
        assert_eq!(t.parent(t.root()), None);
        assert!(t.wire_to_parent(t.root()).is_none());
        assert!(t.wire_to_parent(NodeId::new(1)).is_some());
        assert_eq!(
            t.children(NodeId::new(1)),
            &[NodeId::new(2), NodeId::new(3)]
        );
        assert_eq!(t.sinks().count(), 2);
        assert_eq!(t.buffer_sites().count(), 1);
        assert_eq!(t.driver().resistance(), Ohms::new(100.0));
    }

    #[test]
    fn postorder_children_before_parents() {
        let t = small_tree();
        let pos: Vec<usize> = {
            let mut pos = vec![0; t.node_count()];
            for (i, n) in t.postorder().iter().enumerate() {
                pos[n.index()] = i;
            }
            pos
        };
        for n in t.node_ids() {
            for &c in t.children(n) {
                assert!(pos[c.index()] < pos[n.index()], "{c} must precede {n}");
            }
        }
        assert_eq!(*t.postorder().last().unwrap(), t.root());
        assert_eq!(t.postorder().len(), t.node_count());
    }

    #[test]
    fn no_source_error() {
        let mut b = TreeBuilder::new();
        let (c, r) = sink_args();
        b.sink(c, r);
        assert_eq!(b.build().unwrap_err(), TreeError::NoSource);
    }

    #[test]
    fn multiple_sources_error() {
        let mut b = TreeBuilder::new();
        let (c, r) = sink_args();
        let s0 = b.source(Driver::default());
        let snk = b.sink(c, r);
        b.connect(s0, snk, wire()).unwrap();
        let s1 = b.source(Driver::default());
        assert_eq!(
            b.build().unwrap_err(),
            TreeError::MultipleSources { second: s1 }
        );
    }

    #[test]
    fn no_sinks_error() {
        let mut b = TreeBuilder::new();
        b.source(Driver::default());
        assert_eq!(b.build().unwrap_err(), TreeError::NoSinks);
    }

    #[test]
    fn internal_leaf_error() {
        let mut b = TreeBuilder::new();
        let (c, r) = sink_args();
        let src = b.source(Driver::default());
        let snk = b.sink(c, r);
        let dead = b.internal();
        b.connect(src, snk, wire()).unwrap();
        b.connect(src, dead, wire()).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            TreeError::InternalLeaf { node: dead }
        );
    }

    #[test]
    fn sink_with_children_error() {
        let mut b = TreeBuilder::new();
        let (c, r) = sink_args();
        let src = b.source(Driver::default());
        let s1 = b.sink(c, r);
        let s2 = b.sink(c, r);
        b.connect(src, s1, wire()).unwrap();
        b.connect(s1, s2, wire()).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            TreeError::SinkWithChildren { node: s1 }
        );
    }

    #[test]
    fn unreachable_error() {
        let mut b = TreeBuilder::new();
        let (c, r) = sink_args();
        let src = b.source(Driver::default());
        let s1 = b.sink(c, r);
        let orphan = b.sink(c, r);
        b.connect(src, s1, wire()).unwrap();
        assert_eq!(
            b.build().unwrap_err(),
            TreeError::Unreachable { node: orphan }
        );
    }

    #[test]
    fn connect_errors() {
        let mut b = TreeBuilder::new();
        let (c, r) = sink_args();
        let src = b.source(Driver::default());
        let s1 = b.sink(c, r);
        let ghost = NodeId::new(99);

        assert_eq!(
            b.connect(ghost, s1, wire()).unwrap_err(),
            TreeError::UnknownNode { node: ghost }
        );
        assert_eq!(
            b.connect(src, ghost, wire()).unwrap_err(),
            TreeError::UnknownNode { node: ghost }
        );
        assert_eq!(
            b.connect(src, src, wire()).unwrap_err(),
            TreeError::SelfLoop { node: src }
        );
        assert_eq!(
            b.connect(s1, src, wire()).unwrap_err(),
            TreeError::SourceHasParent
        );
        let bad = Wire::new(Ohms::new(-1.0), Farads::ZERO);
        assert_eq!(
            b.connect(src, s1, bad).unwrap_err(),
            TreeError::InvalidWire { child: s1 }
        );
        b.connect(src, s1, wire()).unwrap();
        assert_eq!(
            b.connect(src, s1, wire()).unwrap_err(),
            TreeError::DuplicateParent { node: s1 }
        );
    }

    #[test]
    fn invalid_sink_error() {
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::default());
        let s = b.sink(Farads::new(-1e-15), Seconds::ZERO);
        b.connect(src, s, wire()).unwrap();
        assert_eq!(b.build().unwrap_err(), TreeError::InvalidSink { node: s });

        let mut b = TreeBuilder::new();
        let src = b.source(Driver::default());
        let s = b.sink(Farads::ZERO, Seconds::new(f64::INFINITY));
        b.connect(src, s, wire()).unwrap();
        assert_eq!(b.build().unwrap_err(), TreeError::InvalidSink { node: s });
    }

    #[test]
    fn site_constraint_management() {
        let mut b = TreeBuilder::new();
        let (c, r) = sink_args();
        let src = b.source(Driver::default());
        let mid = b.internal();
        let snk = b.sink(c, r);
        b.connect(src, mid, wire()).unwrap();
        b.connect(mid, snk, wire()).unwrap();

        assert_eq!(
            b.set_site_constraint(snk, SiteConstraint::AnyBuffer)
                .unwrap_err(),
            TreeError::SiteOnNonInternal { node: snk }
        );
        // Clearing a constraint on a sink is a no-op and allowed.
        b.set_site_constraint(snk, SiteConstraint::NotASite)
            .unwrap();
        b.set_site_constraint(mid, SiteConstraint::AnyBuffer)
            .unwrap();
        let t = b.build().unwrap();
        assert!(t.is_buffer_site(mid));
        assert_eq!(t.buffer_site_count(), 1);
    }

    #[test]
    fn in_place_edits_preserve_topology_and_counts() {
        let mut t = small_tree();
        let post_before = t.postorder().to_vec();
        let sink = NodeId::new(2);
        let site = NodeId::new(1);
        let tee = NodeId::new(3);

        // Wire edit.
        let new_wire = Wire::new(Ohms::new(99.0), Farads::from_femto(3.0));
        t.set_wire_to_parent(sink, new_wire).unwrap();
        assert_eq!(
            t.wire_to_parent(sink).unwrap().resistance(),
            Ohms::new(99.0)
        );

        // Sink edits.
        t.set_sink_rat(sink, Seconds::from_pico(321.0)).unwrap();
        t.set_sink_cap(sink, Farads::from_femto(9.0)).unwrap();
        match t.kind(sink) {
            NodeKind::Sink {
                capacitance,
                required_arrival,
            } => {
                assert_eq!(*capacitance, Farads::from_femto(9.0));
                assert_eq!(*required_arrival, Seconds::from_pico(321.0));
            }
            _ => panic!("sink stays a sink"),
        }

        // Site block / unblock keeps the count in sync.
        assert_eq!(t.buffer_site_count(), 1);
        t.set_site_constraint(site, SiteConstraint::NotASite)
            .unwrap();
        assert_eq!(t.buffer_site_count(), 0);
        assert!(!t.is_buffer_site(site));
        t.set_site_constraint(tee, SiteConstraint::AnyBuffer)
            .unwrap();
        t.set_site_constraint(site, SiteConstraint::AnyBuffer)
            .unwrap();
        assert_eq!(t.buffer_site_count(), 2);
        // Re-applying the same constraint does not double-count.
        t.set_site_constraint(site, SiteConstraint::AnyBuffer)
            .unwrap();
        assert_eq!(t.buffer_site_count(), 2);

        // Topology untouched throughout.
        assert_eq!(t.postorder(), post_before.as_slice());
    }

    #[test]
    fn in_place_edit_errors() {
        let mut t = small_tree();
        let ghost = NodeId::new(99);
        let sink = NodeId::new(2);
        let site = NodeId::new(1);
        let w = wire();

        assert_eq!(
            t.set_wire_to_parent(ghost, w).unwrap_err(),
            TreeError::UnknownNode { node: ghost }
        );
        assert_eq!(
            t.set_wire_to_parent(t.root(), w).unwrap_err(),
            TreeError::NoParentWire { node: t.root() }
        );
        assert_eq!(
            t.set_wire_to_parent(sink, Wire::new(Ohms::new(-1.0), Farads::ZERO))
                .unwrap_err(),
            TreeError::InvalidWire { child: sink }
        );
        assert_eq!(
            t.set_sink_rat(ghost, Seconds::ZERO).unwrap_err(),
            TreeError::UnknownNode { node: ghost }
        );
        assert_eq!(
            t.set_sink_rat(site, Seconds::ZERO).unwrap_err(),
            TreeError::NotASink { node: site }
        );
        assert_eq!(
            t.set_sink_rat(sink, Seconds::new(f64::INFINITY))
                .unwrap_err(),
            TreeError::InvalidSink { node: sink }
        );
        assert_eq!(
            t.set_sink_cap(sink, Farads::new(-1e-15)).unwrap_err(),
            TreeError::InvalidSink { node: sink }
        );
        assert_eq!(
            t.set_site_constraint(sink, SiteConstraint::AnyBuffer)
                .unwrap_err(),
            TreeError::SiteOnNonInternal { node: sink }
        );
        // Clearing on a sink is an allowed no-op (mirrors the builder).
        t.set_site_constraint(sink, SiteConstraint::NotASite)
            .unwrap();
    }

    #[test]
    fn subset_constraints_keep_their_sets_through_edits() {
        use fastbuf_buflib::{BufferSet, BufferTypeId};
        use std::sync::Arc;
        let subset = |ids: &[usize]| {
            SiteConstraint::Subset(Arc::new(
                ids.iter()
                    .map(|&i| BufferTypeId::new(i))
                    .collect::<BufferSet>(),
            ))
        };
        let mut b = TreeBuilder::new();
        let (c, r) = sink_args();
        let src = b.source(Driver::default());
        let mids: Vec<NodeId> = (0..4).map(|_| b.internal()).collect();
        let snk = b.sink(c, r);
        let mut up = src;
        for &m in &mids {
            b.connect(up, m, wire()).unwrap();
            up = m;
        }
        b.connect(up, snk, wire()).unwrap();
        // Set out of id order, replace one set, clear one, and leave one
        // with an empty set (not a site).
        b.set_site_constraint(mids[3], subset(&[3])).unwrap();
        b.set_site_constraint(mids[0], subset(&[0])).unwrap();
        b.set_site_constraint(mids[2], subset(&[2])).unwrap();
        b.set_site_constraint(mids[1], subset(&[])).unwrap();
        b.set_site_constraint(mids[0], subset(&[0, 1])).unwrap();
        b.set_site_constraint(mids[2], SiteConstraint::AnyBuffer)
            .unwrap();
        let mut t = b.build().unwrap();
        assert_eq!(t.site_constraint(mids[0]), &subset(&[0, 1]));
        assert_eq!(t.site_constraint(mids[1]), &subset(&[]));
        assert_eq!(t.site_constraint(mids[2]), &SiteConstraint::AnyBuffer);
        assert_eq!(t.site_constraint(mids[3]), &subset(&[3]));
        assert_eq!(t.site_constraint(snk), &SiteConstraint::NotASite);
        assert!(!t.is_buffer_site(mids[1]));
        assert_eq!(t.buffer_site_count(), 3);
        assert_eq!(t.kind(mids[0]), &NodeKind::Internal);

        t.set_site_constraint(mids[3], SiteConstraint::NotASite)
            .unwrap();
        t.set_site_constraint(mids[1], subset(&[5])).unwrap();
        assert_eq!(t.site_constraint(mids[3]), &SiteConstraint::NotASite);
        assert_eq!(t.site_constraint(mids[1]), &subset(&[5]));
        assert_eq!(t.site_constraint(mids[0]), &subset(&[0, 1]));
        assert_eq!(t.buffer_site_count(), 3);
        assert_eq!(
            t.buffer_sites().collect::<Vec<_>>(),
            vec![mids[0], mids[1], mids[2]]
        );
    }

    #[test]
    fn site_variation_is_stored_from_the_first_non_nominal_value() {
        let mut t = small_tree();
        let site = NodeId::new(1);
        t.set_site_variation(site, SiteVariation::NOMINAL).unwrap();
        assert!(t.variation.is_empty());
        let derated = SiteVariation::new(1.2, 0.9);
        t.set_site_variation(site, derated).unwrap();
        assert_eq!(t.variation.len(), t.node_count());
        assert_eq!(t.site_variation(site), derated);
        assert_eq!(t.site_variation(t.root()), SiteVariation::NOMINAL);
        let copy = t.clone();
        assert_eq!(copy.site_variation(site), derated);
        t.set_site_variation(site, SiteVariation::NOMINAL).unwrap();
        assert_eq!(t.site_variation(site), SiteVariation::NOMINAL);
        assert_eq!(
            t.set_site_variation(site, SiteVariation::new(0.0, 1.0))
                .unwrap_err(),
            TreeError::InvalidVariation { node: site }
        );
    }

    #[test]
    #[should_panic(expected = "not in the tree")]
    fn site_variation_of_a_foreign_node_panics() {
        let _ = small_tree().site_variation(NodeId::new(99));
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        // 100k-node chain exercises the iterative DFS.
        let mut b = TreeBuilder::new();
        let (c, r) = sink_args();
        let src = b.source(Driver::default());
        let mut cur = src;
        for _ in 0..100_000 {
            let nxt = b.buffer_site();
            b.connect(cur, nxt, wire()).unwrap();
            cur = nxt;
        }
        let snk = b.sink(c, r);
        b.connect(cur, snk, wire()).unwrap();
        let t = b.build().unwrap();
        assert_eq!(t.node_count(), 100_002);
        assert_eq!(t.postorder().len(), 100_002);
        assert_eq!(t.postorder()[0], snk);
    }
}
