//! Property tests of `TreeBuilder` and the wire segmenters over random
//! builders whose ids, connect order and child-id order all differ.
//!
//! Each case draws a random tree, creates its nodes in a shuffled order
//! (so ids are unrelated to depth), connects its wires in another shuffled
//! order, and gives every wire a random length and every internal node a
//! random site constraint (`Subset` included). It then checks:
//!
//! * `children(v)` lists `v`'s children in the order they were connected;
//! * segmenting the builder before its one build
//!   (`build_segmented_by_pitch` / `build_segmented_uniform`) gives the
//!   same tree — `io::write` bytes and child lists — as building first and
//!   calling `segment_by_pitch` / `segment_uniform`, and both match a
//!   reference re-implementation of the segmenter written against the
//!   public builder API;
//! * a builder with one planted defect (internal leaf, sink with children,
//!   unreachable node, duplicate parent, missing wire length) fails with
//!   the error naming that defect on every path, and a missing length
//!   behind a structural defect reports the structural one first, as
//!   building before segmenting does.

use std::sync::Arc;

use proptest::prelude::*;

use fastbuf::buflib::units::{Farads, Microns, Ohms, Seconds};
use fastbuf::buflib::{BufferSet, BufferTypeId, Driver, Technology};
use fastbuf::rctree::segment::{segment_by_pitch, segment_uniform, SegmentResult};
use fastbuf::rctree::Wire;
use fastbuf::rctree::{io, NodeId, NodeKind, RoutingTree, SiteConstraint, TreeBuilder, TreeError};

/// SplitMix64: the draws of one case, reproducible from its seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The defect a case plants in its builder.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Defect {
    None,
    InternalLeaf,
    SinkWithChildren,
    Unreachable,
    DuplicateParent,
    MissingLength,
    /// A missing length and an internal leaf together.
    MissingLengthAndLeaf,
}

const DEFECTS: [Defect; 7] = [
    Defect::None,
    Defect::InternalLeaf,
    Defect::SinkWithChildren,
    Defect::Unreachable,
    Defect::DuplicateParent,
    Defect::MissingLength,
    Defect::MissingLengthAndLeaf,
];

/// A builder, as data: node kinds and site constraints by id, and wires
/// `(parent, child, wire)` in connect order.
struct Plan {
    nodes: Vec<(NodeKind, SiteConstraint)>,
    edges: Vec<(usize, usize, Wire)>,
    /// The error the planted defect must produce (`None` = valid tree).
    expected: Option<TreeError>,
}

impl Plan {
    fn random(seed: u64, size: usize, defect: Defect) -> Plan {
        let tech = Technology::tsmc180_like();
        let mut rng = Mix(seed);
        // An abstract tree: node 0 is the source, node i > 0 hangs below a
        // random earlier node; node 1 always hangs below the source.
        let parent_of: Vec<usize> = (0..size).map(|i| rng.below(i.max(1))).collect();
        let mut has_child = vec![false; size];
        for &p in &parent_of[1..] {
            has_child[p] = true;
        }
        // Ids: the abstract nodes are created in a shuffled order.
        let mut order: Vec<usize> = (0..size).collect();
        rng.shuffle(&mut order);
        let mut id_of = vec![0; size];
        for (id, &a) in order.iter().enumerate() {
            id_of[a] = id;
        }
        let mut subset = BufferSet::empty(4);
        subset.insert(BufferTypeId::new(rng.below(4)));
        let subset = SiteConstraint::Subset(Arc::new(subset));
        let mut nodes = Vec::with_capacity(size + 1);
        for &a in &order {
            nodes.push(if a == 0 {
                let r = Ohms::new(50.0 + 200.0 * rng.unit());
                (
                    NodeKind::Source {
                        driver: Driver::new(r),
                    },
                    SiteConstraint::NotASite,
                )
            } else if has_child[a] {
                let site = match rng.below(3) {
                    0 => SiteConstraint::NotASite,
                    1 => SiteConstraint::AnyBuffer,
                    _ => subset.clone(),
                };
                (NodeKind::Internal, site)
            } else {
                let kind = NodeKind::Sink {
                    capacitance: Farads::from_femto(2.0 + 40.0 * rng.unit()),
                    required_arrival: Seconds::from_pico(500.0 + 1500.0 * rng.unit()),
                };
                (kind, SiteConstraint::NotASite)
            });
        }
        let mut edges: Vec<(usize, usize, Wire)> = (1..size)
            .map(|a| {
                // One wire in eight is zero-length; the rest span 0–900 µm.
                let len = if rng.below(8) == 0 {
                    0.0
                } else {
                    900.0 * rng.unit()
                };
                let wire = Wire::from_length(&tech, Microns::new(len));
                (id_of[parent_of[a]], id_of[a], wire)
            })
            .collect();
        rng.shuffle(&mut edges);

        let mut plan = Plan {
            nodes,
            edges,
            expected: None,
        };
        let wire = Wire::from_length(&tech, Microns::new(100.0));
        let pick = |plan: &Plan, rng: &mut Mix, want: fn(&NodeKind) -> bool| {
            let ids: Vec<usize> = (0..plan.nodes.len())
                .filter(|&v| want(&plan.nodes[v].0))
                .collect();
            ids[rng.below(ids.len())]
        };
        let sink = NodeKind::Sink {
            capacitance: Farads::from_femto(5.0),
            required_arrival: Seconds::from_pico(900.0),
        };
        if matches!(defect, Defect::MissingLength | Defect::MissingLengthAndLeaf) {
            let e = rng.below(plan.edges.len());
            let w = plan.edges[e].2;
            plan.edges[e].2 = Wire::new(w.resistance(), w.capacitance());
            if defect == Defect::MissingLength {
                plan.expected = Some(TreeError::MissingWireLength {
                    child: NodeId::new(plan.edges[e].1),
                });
            }
        }
        match defect {
            Defect::None | Defect::MissingLength => {}
            Defect::InternalLeaf | Defect::MissingLengthAndLeaf => {
                let at = pick(&plan, &mut rng, |k| !k.is_sink());
                let leaf = plan.nodes.len();
                plan.nodes
                    .push((NodeKind::Internal, SiteConstraint::AnyBuffer));
                plan.edges.push((at, leaf, wire));
                plan.expected = Some(TreeError::InternalLeaf {
                    node: NodeId::new(leaf),
                });
            }
            Defect::SinkWithChildren => {
                let at = pick(&plan, &mut rng, NodeKind::is_sink);
                let extra = plan.nodes.len();
                plan.nodes.push((sink.clone(), SiteConstraint::NotASite));
                plan.edges.push((at, extra, wire));
                plan.expected = Some(TreeError::SinkWithChildren {
                    node: NodeId::new(at),
                });
            }
            Defect::Unreachable => {
                let orphan = plan.nodes.len();
                plan.nodes.push((sink.clone(), SiteConstraint::NotASite));
                plan.expected = Some(TreeError::Unreachable {
                    node: NodeId::new(orphan),
                });
            }
            Defect::DuplicateParent => {
                let (p, child, _) = plan.edges[rng.below(plan.edges.len())];
                let other = pick(&plan, &mut rng, |k| !k.is_sink());
                let other = if other == p { id_of[0] } else { other };
                if other != p && other != child {
                    plan.edges.push((other, child, wire));
                    plan.expected = Some(TreeError::DuplicateParent {
                        node: NodeId::new(child),
                    });
                }
            }
        }
        plan
    }

    /// The builder the plan describes, or the error `connect` returned.
    fn builder(&self) -> Result<TreeBuilder, TreeError> {
        let mut b = TreeBuilder::new();
        for (kind, site) in &self.nodes {
            match kind {
                NodeKind::Source { driver } => b.source(*driver),
                NodeKind::Sink {
                    capacitance,
                    required_arrival,
                } => b.sink(*capacitance, *required_arrival),
                NodeKind::Internal => b.internal_with(site.clone()),
            };
        }
        for &(p, c, wire) in &self.edges {
            b.connect(NodeId::new(p), NodeId::new(c), wire)?;
        }
        Ok(b)
    }
}

/// A tree as comparable data: its text and its child lists.
fn shape(tree: &RoutingTree) -> (String, Vec<Vec<NodeId>>) {
    let kids = tree.node_ids().map(|v| tree.children(v).to_vec()).collect();
    (io::write(tree), kids)
}

type Outcome = Result<(String, Vec<Vec<NodeId>>, usize), TreeError>;

fn outcome(result: Result<SegmentResult, TreeError>) -> Outcome {
    result.map(|seg| {
        let (text, kids) = shape(&seg.tree);
        (text, kids, seg.added_sites)
    })
}

/// The segmenter as a second build over the public API: original nodes
/// re-created in id order, then each node's wire split into a chain of new
/// sites, nodes taken in id order.
fn reference_segment(tree: &RoutingTree, pieces_for: impl Fn(&Wire) -> usize) -> Outcome {
    let mut b = TreeBuilder::new();
    for v in tree.node_ids() {
        match tree.kind(v) {
            NodeKind::Source { driver } => b.source(*driver),
            NodeKind::Sink {
                capacitance,
                required_arrival,
            } => b.sink(*capacitance, *required_arrival),
            NodeKind::Internal => b.internal_with(tree.site_constraint(v).clone()),
        };
    }
    let mut added = 0;
    for v in tree.node_ids() {
        let (Some(parent), Some(wire)) = (tree.parent(v), tree.wire_to_parent(v)) else {
            continue;
        };
        let pieces = pieces_for(wire);
        let seg = wire.split(pieces);
        let mut upstream = parent;
        for _ in 1..pieces {
            let site = b.buffer_site();
            b.connect(upstream, site, seg)?;
            upstream = site;
            added += 1;
        }
        b.connect(upstream, v, seg)?;
    }
    outcome(b.build().map(|tree| SegmentResult {
        tree,
        added_sites: added,
    }))
}

/// Building first, then segmenting by pitch with the reference segmenter.
fn reference_by_pitch(plan: &Plan, pitch: Microns) -> Outcome {
    let tree = plan.builder()?.build()?;
    if let Some(child) = tree
        .node_ids()
        .find(|&v| tree.wire_to_parent(v).is_some_and(|w| w.length().is_none()))
    {
        return Err(TreeError::MissingWireLength { child });
    }
    reference_segment(&tree, |w| {
        ((w.length().unwrap() / pitch).ceil() as usize).max(1)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn builders_keep_connect_order_and_segment_before_the_build(
        seed in 0u64..u64::MAX,
        size in 2usize..48,
        defect in 0usize..DEFECTS.len(),
        pitch in 20.0f64..400.0,
        pieces in 1usize..5,
    ) {
        let defect = DEFECTS[defect];
        let plan = Plan::random(seed, size, defect);
        let pitch = Microns::new(pitch);

        // Children follow connect order on every tree that builds.
        let built = plan.builder().and_then(TreeBuilder::build);
        if let Ok(tree) = &built {
            for v in tree.node_ids() {
                let connected: Vec<NodeId> = plan
                    .edges
                    .iter()
                    .filter(|e| e.0 == v.index())
                    .map(|e| NodeId::new(e.1))
                    .collect();
                prop_assert_eq!(tree.children(v), connected.as_slice(), "children of {}", v);
            }
        }

        // Three routes to a pitch-segmented tree agree, errors included.
        let by_pitch = reference_by_pitch(&plan, pitch);
        let after = built
            .clone()
            .and_then(|tree| outcome(segment_by_pitch(&tree, pitch)));
        let before = plan
            .builder()
            .and_then(|b| outcome(b.build_segmented_by_pitch(pitch)));
        prop_assert!(after == by_pitch, "{:?}: segment_by_pitch differs from the reference", defect);
        prop_assert!(before == by_pitch, "{:?}: build_segmented_by_pitch differs from the reference", defect);

        // The same for uniform segmenting, which needs no lengths.
        let reference = built
            .clone()
            .and_then(|tree| reference_segment(&tree, |_| pieces));
        let after = built
            .clone()
            .and_then(|tree| outcome(segment_uniform(&tree, pieces)));
        let before = plan
            .builder()
            .and_then(|b| outcome(b.build_segmented_uniform(pieces)));
        prop_assert!(after == reference, "{:?}: segment_uniform differs from the reference", defect);
        prop_assert!(before == reference, "{:?}: build_segmented_uniform differs from the reference", defect);

        // The planted defect is the error every route reports.
        prop_assert_eq!(by_pitch.err(), plan.expected.clone());
        let build_error = built.err();
        match defect {
            Defect::MissingLength => prop_assert_eq!(build_error, None),
            _ => prop_assert_eq!(build_error, plan.expected.clone()),
        }
    }
}
