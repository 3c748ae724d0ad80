//! Wire segmenting: inserting candidate buffer positions along wires.
//!
//! Van Ginneken-family algorithms can only place buffers at the tree's
//! internal vertices, so the achievable slack — and the problem size `n` —
//! depends on how finely wires are divided. Alpert & Devgan ("Wire
//! segmenting for improved buffer insertion", DAC 1997, reference \[1\] of
//! the paper) showed that slicing wires into short segments approaches the
//! continuous optimum. The paper's Figure 4 sweeps `n` from 1943 to ~66000
//! positions on a fixed 1944-sink net exactly this way; use
//! [`segment_uniform`] (fixed piece count per wire) or [`segment_by_pitch`]
//! (geometric pitch) to reproduce that sweep.
//!
//! Segmenting preserves total wire parasitics: a wire of `(R, C)` split into
//! `k` pieces becomes `k` wires of `(R/k, C/k)` joined by new internal nodes
//! marked as buffer positions.
//!
//! There is one segmenting routine, and it works on a [`TreeBuilder`]'s
//! recorded wires before its single build:
//! [`TreeBuilder::build_segmented_by_pitch`] and
//! [`TreeBuilder::build_segmented_uniform`]. Generators call it on the
//! builder they recorded their topology in; the two tree functions call it
//! on a copy of the tree. Either way the original ids are kept and the
//! new sites are appended in child-id order.

use fastbuf_buflib::units::Microns;

use crate::error::TreeError;
use crate::node::Wire;
use crate::tree::{RoutingTree, TreeBuilder};

/// Outcome of a segmenting transformation.
#[derive(Debug)]
pub struct SegmentResult {
    /// The segmented tree. Original nodes keep their ids; the new buffer
    /// sites are appended after them.
    pub tree: RoutingTree,
    /// Number of buffer sites added.
    pub added_sites: usize,
}

/// Splits **every** wire into `pieces` equal segments, inserting
/// `pieces − 1` new buffer positions per wire.
///
/// # Errors
///
/// Propagates [`TreeError`] from rebuilding (cannot occur for a valid input
/// tree).
///
/// # Panics
///
/// Panics if `pieces == 0`.
///
/// # Example
///
/// ```
/// use fastbuf_buflib::{Driver, Technology};
/// use fastbuf_buflib::units::{Farads, Microns, Ohms, Seconds};
/// use fastbuf_rctree::{TreeBuilder, Wire};
/// use fastbuf_rctree::segment::segment_uniform;
///
/// let tech = Technology::tsmc180_like();
/// let mut b = TreeBuilder::new();
/// let src = b.source(Driver::new(Ohms::new(100.0)));
/// let snk = b.sink(Farads::from_femto(5.0), Seconds::from_pico(100.0));
/// b.connect(src, snk, Wire::from_length(&tech, Microns::new(1000.0)))?;
/// let tree = b.build()?;
///
/// let seg = segment_uniform(&tree, 4)?;
/// assert_eq!(seg.added_sites, 3);
/// assert_eq!(seg.tree.buffer_site_count(), 3);
/// // Total parasitics are preserved.
/// assert!((seg.tree.stats().total_wire_resistance.value()
///          - tree.stats().total_wire_resistance.value()).abs() < 1e-9);
/// # Ok::<(), fastbuf_rctree::TreeError>(())
/// ```
pub fn segment_uniform(tree: &RoutingTree, pieces: usize) -> Result<SegmentResult, TreeError> {
    TreeBuilder::from_tree(tree).build_segmented_uniform(pieces)
}

/// Splits each wire into `ceil(length / pitch)` equal segments (minimum 1),
/// so that no segment is longer than `pitch`.
///
/// # Errors
///
/// [`TreeError::MissingWireLength`] if any wire lacks a geometric length.
///
/// # Panics
///
/// Panics if `pitch` is not strictly positive.
pub fn segment_by_pitch(tree: &RoutingTree, pitch: Microns) -> Result<SegmentResult, TreeError> {
    TreeBuilder::from_tree(tree).build_segmented_by_pitch(pitch)
}

impl TreeBuilder {
    /// [`TreeBuilder::build`] of this builder with every wire split as
    /// [`segment_uniform`] splits a tree's: the result is the same as
    /// building first and segmenting the tree, without the second build.
    ///
    /// # Errors
    ///
    /// The structural [`TreeError`] that [`TreeBuilder::build`] reports.
    ///
    /// # Panics
    ///
    /// Panics if `pieces == 0`.
    pub fn build_segmented_uniform(self, pieces: usize) -> Result<SegmentResult, TreeError> {
        assert!(pieces > 0, "pieces must be at least 1");
        self.build_split(|_| Some(pieces))
    }

    /// [`TreeBuilder::build`] of this builder with every wire split as
    /// [`segment_by_pitch`] splits a tree's: the result is the same as
    /// building first and segmenting the tree, without the second build.
    ///
    /// # Errors
    ///
    /// The structural [`TreeError`] that [`TreeBuilder::build`] reports,
    /// else [`TreeError::MissingWireLength`] naming the lowest-id node
    /// whose parent wire has no length — the error order of building
    /// first and segmenting after.
    ///
    /// # Panics
    ///
    /// Panics if `pitch` is not strictly positive.
    pub fn build_segmented_by_pitch(self, pitch: Microns) -> Result<SegmentResult, TreeError> {
        assert!(
            pitch > Microns::ZERO,
            "segmenting pitch must be strictly positive"
        );
        self.build_split(|wire| {
            wire.length()
                .map(|len| ((len / pitch).ceil() as usize).max(1))
        })
    }

    /// The one segmenting routine: splits the recorded wires, builds once,
    /// and reports a wire `pieces_for` could not size only if the build
    /// itself succeeds.
    fn build_split(
        mut self,
        pieces_for: impl Fn(&Wire) -> Option<usize>,
    ) -> Result<SegmentResult, TreeError> {
        let (added_sites, unsplit) = self.split_wires(pieces_for);
        let tree = self.build()?;
        if let Some(child) = unsplit {
            return Err(TreeError::MissingWireLength { child });
        }
        Ok(SegmentResult { tree, added_sites })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use fastbuf_buflib::units::{Farads, Ohms, Seconds};
    use fastbuf_buflib::{Driver, Technology};

    fn line(length_um: f64) -> RoutingTree {
        let tech = Technology::tsmc180_like();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(100.0)));
        let snk = b.sink(Farads::from_femto(5.0), Seconds::from_pico(100.0));
        b.connect(src, snk, Wire::from_length(&tech, Microns::new(length_um)))
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn uniform_preserves_totals_and_adds_sites() {
        let t = line(1000.0);
        let before = t.stats();
        for pieces in [1usize, 2, 7, 16] {
            let seg = segment_uniform(&t, pieces).unwrap();
            let after = seg.tree.stats();
            assert_eq!(seg.added_sites, pieces - 1);
            assert_eq!(after.buffer_sites, pieces - 1);
            assert_eq!(after.nodes, before.nodes + pieces - 1);
            assert!(
                (after.total_wire_resistance.value() - before.total_wire_resistance.value()).abs()
                    < 1e-9
            );
            assert!(
                (after.total_wire_capacitance.femtos() - before.total_wire_capacitance.femtos())
                    .abs()
                    < 1e-9
            );
            assert!(
                (after.total_length.unwrap().value() - before.total_length.unwrap().value()).abs()
                    < 1e-9
            );
        }
    }

    #[test]
    fn original_ids_are_stable() {
        let t = line(500.0);
        let seg = segment_uniform(&t, 5).unwrap();
        assert!(seg.tree.kind(NodeId::new(0)).is_source());
        assert!(seg.tree.kind(NodeId::new(1)).is_sink());
        for i in 2..seg.tree.node_count() {
            assert!(seg.tree.is_buffer_site(NodeId::new(i)));
        }
    }

    #[test]
    fn pitch_respects_max_segment_length() {
        let t = line(1050.0);
        let seg = segment_by_pitch(&t, Microns::new(100.0)).unwrap();
        // ceil(1050/100) = 11 pieces -> 10 new sites.
        assert_eq!(seg.added_sites, 10);
        for n in seg.tree.node_ids() {
            if let Some(w) = seg.tree.wire_to_parent(n) {
                assert!(w.length().unwrap() <= Microns::new(100.0 + 1e-9));
            }
        }
    }

    #[test]
    fn pitch_larger_than_wire_is_identity() {
        let t = line(80.0);
        let seg = segment_by_pitch(&t, Microns::new(100.0)).unwrap();
        assert_eq!(seg.added_sites, 0);
        assert_eq!(seg.tree.node_count(), t.node_count());
    }

    #[test]
    fn pitch_requires_lengths() {
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::default());
        let snk = b.sink(Farads::ZERO, Seconds::ZERO);
        b.connect(
            src,
            snk,
            Wire::new(Ohms::new(10.0), Farads::from_femto(1.0)),
        )
        .unwrap();
        let t = b.build().unwrap();
        assert_eq!(
            segment_by_pitch(&t, Microns::new(10.0)).unwrap_err(),
            TreeError::MissingWireLength { child: snk }
        );
    }

    #[test]
    fn multi_branch_segmenting() {
        let tech = Technology::tsmc180_like();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::default());
        let tee = b.internal();
        let s1 = b.sink(Farads::from_femto(1.0), Seconds::ZERO);
        let s2 = b.sink(Farads::from_femto(1.0), Seconds::ZERO);
        b.connect(src, tee, Wire::from_length(&tech, Microns::new(300.0)))
            .unwrap();
        b.connect(tee, s1, Wire::from_length(&tech, Microns::new(100.0)))
            .unwrap();
        b.connect(tee, s2, Wire::from_length(&tech, Microns::new(200.0)))
            .unwrap();
        let t = b.build().unwrap();
        let seg = segment_by_pitch(&t, Microns::new(100.0)).unwrap();
        // 300 -> 3 pieces (2 sites), 100 -> 1 piece, 200 -> 2 pieces (1 site).
        assert_eq!(seg.added_sites, 3);
        // Tee keeps its non-site status.
        assert!(!seg.tree.is_buffer_site(tee));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_pieces_panics() {
        let t = line(10.0);
        let _ = segment_uniform(&t, 0);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_pitch_panics() {
        let t = line(10.0);
        let _ = segment_by_pitch(&t, Microns::ZERO);
    }
}
