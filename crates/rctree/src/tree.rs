//! The routing tree and its builder.

use fastbuf_buflib::units::{Farads, Seconds};
use fastbuf_buflib::Driver;

use crate::error::TreeError;
use crate::node::{NodeId, NodeKind, SiteConstraint, SiteVariation, Wire};
use crate::stats::TreeStats;

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
    kinds: Vec<NodeKind>,
    sites: Vec<SiteConstraint>,
    variation: Vec<SiteVariation>,
    parent: Vec<Option<NodeId>>,
    wires: Vec<Wire>,
    child_start: Vec<u32>,
    child_list: Vec<NodeId>,
    postorder: Vec<NodeId>,
    root: NodeId,
    sink_count: usize,
    site_count: usize,
}

impl RoutingTree {
    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// The root (source) node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The source driver.
    pub fn driver(&self) -> &Driver {
        match &self.kinds[self.root.index()] {
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
        &self.kinds[node.index()]
    }

    /// The buffer-site constraint at `node` ([`SiteConstraint::NotASite`]
    /// for sinks and the source).
    #[inline]
    pub fn site_constraint(&self, node: NodeId) -> &SiteConstraint {
        &self.sites[node.index()]
    }

    /// `true` if buffers may be inserted at `node`.
    #[inline]
    pub fn is_buffer_site(&self, node: NodeId) -> bool {
        self.sites[node.index()].is_site()
    }

    /// The local process-variation factors at `node`
    /// ([`SiteVariation::NOMINAL`] unless edited). Only consulted where a
    /// buffer is actually inserted; nominal everywhere reproduces the
    /// variation-free arithmetic bit for bit.
    #[inline]
    pub fn site_variation(&self, node: NodeId) -> SiteVariation {
        self.variation[node.index()]
    }

    /// `true` if any node carries a non-nominal [`SiteVariation`].
    pub fn has_site_variation(&self) -> bool {
        self.variation.iter().any(|v| !v.is_nominal())
    }

    /// The parent of `node` (`None` for the root).
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// The wire from `node` to its parent (`None` for the root).
    #[inline]
    pub fn wire_to_parent(&self, node: NodeId) -> Option<&Wire> {
        if self.parent[node.index()].is_some() {
            Some(&self.wires[node.index()])
        } else {
            None
        }
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
        (0..self.kinds.len()).map(NodeId::new)
    }

    /// Iterates over sink nodes in index order.
    pub fn sinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&n| self.kinds[n.index()].is_sink())
    }

    /// Iterates over buffer positions in index order.
    pub fn buffer_sites(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids().filter(|&n| self.is_buffer_site(n))
    }

    /// Number of sinks (the paper's `m`).
    #[inline]
    pub fn sink_count(&self) -> usize {
        self.sink_count
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
        if node.index() >= self.kinds.len() {
            return Err(TreeError::UnknownNode { node });
        }
        if self.parent[node.index()].is_none() {
            return Err(TreeError::NoParentWire { node });
        }
        if !wire.is_valid() {
            return Err(TreeError::InvalidWire { child: node });
        }
        self.wires[node.index()] = wire;
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
        match self.kinds.get_mut(node.index()) {
            None => Err(TreeError::UnknownNode { node }),
            Some(NodeKind::Sink {
                required_arrival, ..
            }) => {
                *required_arrival = rat;
                Ok(())
            }
            Some(_) => Err(TreeError::NotASink { node }),
        }
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
        match self.kinds.get_mut(node.index()) {
            None => Err(TreeError::UnknownNode { node }),
            Some(NodeKind::Sink { capacitance, .. }) => {
                *capacitance = cap;
                Ok(())
            }
            Some(_) => Err(TreeError::NotASink { node }),
        }
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
        let kind = self
            .kinds
            .get(node.index())
            .ok_or(TreeError::UnknownNode { node })?;
        if !kind.is_internal() && constraint.is_site() {
            return Err(TreeError::SiteOnNonInternal { node });
        }
        let was = self.sites[node.index()].is_site();
        let is = constraint.is_site();
        self.sites[node.index()] = constraint;
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
        if node.index() >= self.kinds.len() {
            return Err(TreeError::UnknownNode { node });
        }
        if !variation.is_valid() {
            return Err(TreeError::InvalidVariation { node });
        }
        self.variation[node.index()] = variation;
        Ok(())
    }

    /// A copy of this tree with every sink's required arrival time
    /// multiplied by `factor` — the "required-time derate" of a timing
    /// scenario (a pessimistic corner uses `factor < 1`). Topology, wires,
    /// loads and node ids are unchanged, so placements and `NodeId`s remain
    /// valid across the derated and original trees.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive (callers such as
    /// `fastbuf-api` validate scenario derates before reaching here).
    pub fn with_derated_rats(&self, factor: f64) -> RoutingTree {
        assert!(
            factor.is_finite() && factor > 0.0,
            "RAT derate must be finite and positive, got {factor}"
        );
        let mut derated = self.clone();
        for kind in &mut derated.kinds {
            if let NodeKind::Sink {
                required_arrival, ..
            } = kind
            {
                *required_arrival = Seconds::new(required_arrival.value() * factor);
            }
        }
        derated
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
/// The builder keeps one flat list of connected children, so building
/// costs a fixed number of allocations whatever the node count; callers
/// that know their size can reserve it up front with
/// [`TreeBuilder::with_capacity`].
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
    kinds: Vec<NodeKind>,
    sites: Vec<SiteConstraint>,
    parent: Vec<Option<NodeId>>,
    wires: Vec<Wire>,
    /// Every connected child, in connect order; its parent and wire are
    /// `parent[child]` and `wires[child]`.
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
    /// that size allocates nothing while nodes are added.
    pub fn with_capacity(nodes: usize) -> Self {
        TreeBuilder {
            kinds: Vec::with_capacity(nodes),
            sites: Vec::with_capacity(nodes),
            parent: Vec::with_capacity(nodes),
            wires: Vec::with_capacity(nodes),
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
            kinds: tree.kinds.clone(),
            sites: tree.sites.clone(),
            parent: tree.parent.clone(),
            wires: tree.wires.clone(),
            edges: tree
                .node_ids()
                .filter(|&v| tree.parent(v).is_some())
                .collect(),
            source: Some(tree.root),
            extra_source: None,
        }
    }

    fn push(&mut self, kind: NodeKind, site: SiteConstraint) -> NodeId {
        let id = NodeId::new(self.kinds.len());
        self.kinds.push(kind);
        self.sites.push(site);
        self.parent.push(None);
        self.wires.push(Wire::zero());
        id
    }

    /// Adds the source node. The first call defines the root; additional
    /// calls are recorded and reported as
    /// [`TreeError::MultipleSources`] by [`TreeBuilder::build`].
    pub fn source(&mut self, driver: Driver) -> NodeId {
        let id = self.push(NodeKind::Source { driver }, SiteConstraint::NotASite);
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
        self.push(
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
        self.push(NodeKind::Internal, SiteConstraint::NotASite)
    }

    /// Adds an internal node where any library buffer may be inserted.
    pub fn buffer_site(&mut self) -> NodeId {
        self.push(NodeKind::Internal, SiteConstraint::AnyBuffer)
    }

    /// Adds an internal node with an explicit site constraint.
    pub fn internal_with(&mut self, constraint: SiteConstraint) -> NodeId {
        self.push(NodeKind::Internal, constraint)
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
        let kind = self
            .kinds
            .get(node.index())
            .ok_or(TreeError::UnknownNode { node })?;
        if !kind.is_internal() && constraint.is_site() {
            return Err(TreeError::SiteOnNonInternal { node });
        }
        self.sites[node.index()] = constraint;
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
        if parent.index() >= self.kinds.len() {
            return Err(TreeError::UnknownNode { node: parent });
        }
        if child.index() >= self.kinds.len() {
            return Err(TreeError::UnknownNode { node: child });
        }
        if parent == child {
            return Err(TreeError::SelfLoop { node: parent });
        }
        if self.kinds[child.index()].is_source() {
            return Err(TreeError::SourceHasParent);
        }
        if self.parent[child.index()].is_some() {
            return Err(TreeError::DuplicateParent { node: child });
        }
        if !wire.is_valid() {
            return Err(TreeError::InvalidWire { child });
        }
        self.parent[child.index()] = Some(parent);
        self.wires[child.index()] = wire;
        self.edges.push(child);
        Ok(())
    }

    /// Number of nodes created so far.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
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
        let n = self.kinds.len();
        let pieces = |wire: &Wire| pieces_for(wire).map_or(1, |k| k.max(1));
        let mut added = 0;
        let mut unsplit = None;
        for v in 0..n {
            if self.parent[v].is_some() {
                match pieces_for(&self.wires[v]) {
                    Some(k) => added += k.max(1) - 1,
                    None if unsplit.is_none() => unsplit = Some(NodeId::new(v)),
                    None => {}
                }
            }
        }
        self.kinds.reserve_exact(added);
        self.sites.reserve_exact(added);
        self.parent.reserve_exact(added);
        self.wires.reserve_exact(added);
        let mut edges = Vec::with_capacity(self.edges.len() + added);
        for v in 0..n {
            let Some(parent) = self.parent[v] else {
                continue;
            };
            let wire = self.wires[v];
            let pieces = pieces(&wire);
            let seg = wire.split(pieces);
            let mut upstream = parent;
            for _ in 1..pieces {
                let site = self.push(NodeKind::Internal, SiteConstraint::AnyBuffer);
                self.parent[site.index()] = Some(upstream);
                self.wires[site.index()] = seg;
                edges.push(site);
                upstream = site;
            }
            self.parent[v] = Some(upstream);
            self.wires[v] = seg;
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
        let n = self.kinds.len();
        let parent_of = |child: NodeId| self.parent[child.index()].expect("connected child");

        // Children CSR, first pass: `child_start[i]` becomes the offset of
        // node i's children.
        let mut child_start = vec![0u32; n + 1];
        for &child in &self.edges {
            child_start[parent_of(child).index() + 1] += 1;
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let has_children = |i: usize| child_start[i + 1] > child_start[i];

        // Per-node validity.
        let mut sink_count = 0usize;
        let mut site_count = 0usize;
        for i in 0..n {
            let id = NodeId::new(i);
            match &self.kinds[i] {
                NodeKind::Sink {
                    capacitance,
                    required_arrival,
                } => {
                    sink_count += 1;
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
                    if self.sites[i].is_site() {
                        site_count += 1;
                    }
                }
                NodeKind::Source { .. } => {}
            }
        }
        if sink_count == 0 {
            return Err(TreeError::NoSinks);
        }

        // Second pass, a stable counting sort: each parent's children land
        // in connect order. Filling advances `child_start[p]` to the end of
        // p's run, which is where p + 1 starts, so a shift restores it.
        let mut child_list = vec![root; self.edges.len()];
        for &child in &self.edges {
            let slot = &mut child_start[parent_of(child).index()];
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

        Ok(RoutingTree {
            kinds: self.kinds,
            sites: self.sites,
            variation: vec![SiteVariation::NOMINAL; n],
            parent: self.parent,
            wires: self.wires,
            child_start,
            child_list,
            postorder,
            root,
            sink_count,
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
    fn derated_rats_scale_sinks_only() {
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::default());
        let mid = b.buffer_site();
        let snk = b.sink(Farads::from_femto(5.0), Seconds::from_pico(800.0));
        b.connect(src, mid, wire()).unwrap();
        b.connect(mid, snk, wire()).unwrap();
        let t = b.build().unwrap();
        let d = t.with_derated_rats(0.75);
        // Same topology, same ids, same wires.
        assert_eq!(d.node_count(), t.node_count());
        assert_eq!(d.postorder(), t.postorder());
        assert_eq!(
            d.wire_to_parent(snk).unwrap().resistance(),
            t.wire_to_parent(snk).unwrap().resistance()
        );
        match (d.kind(snk), t.kind(snk)) {
            (
                NodeKind::Sink {
                    required_arrival: derated,
                    capacitance: dc,
                },
                NodeKind::Sink {
                    required_arrival: original,
                    capacitance: oc,
                },
            ) => {
                assert_eq!(derated.value(), original.value() * 0.75);
                assert_eq!(dc, oc);
            }
            _ => panic!("sink stays a sink"),
        }
        // Identity derate is a plain clone.
        let same = t.with_derated_rats(1.0);
        match same.kind(snk) {
            NodeKind::Sink {
                required_arrival, ..
            } => assert_eq!(required_arrival.value().to_bits(), {
                let NodeKind::Sink {
                    required_arrival, ..
                } = t.kind(snk)
                else {
                    unreachable!()
                };
                required_arrival.value().to_bits()
            }),
            _ => panic!("sink stays a sink"),
        }
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn derate_rejects_non_positive_factor() {
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::default());
        let snk = b.sink(Farads::from_femto(5.0), Seconds::from_pico(100.0));
        b.connect(src, snk, wire()).unwrap();
        let _ = b.build().unwrap().with_derated_rats(0.0);
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
