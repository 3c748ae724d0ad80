//! Node and wire primitives of a routing tree.

use std::fmt;
use std::sync::Arc;

use fastbuf_buflib::units::{Farads, Microns, Ohms, Seconds};
use fastbuf_buflib::{BufferSet, BufferTypeId, Driver, Technology};

/// Identifier of a node within a [`RoutingTree`](crate::RoutingTree).
///
/// Ids are dense indices assigned by the [`TreeBuilder`](crate::TreeBuilder)
/// in creation order; they are only meaningful relative to the tree that
/// issued them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates an id from a dense index.
    #[inline]
    pub fn new(index: usize) -> Self {
        NodeId(index as u32)
    }

    /// The dense index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// What a tree vertex is.
#[derive(Clone, Debug, PartialEq)]
pub enum NodeKind {
    /// The net's source (root). Exactly one per tree.
    Source {
        /// The driving gate at the source.
        driver: Driver,
    },
    /// A sink (leaf) with its load and timing requirement.
    Sink {
        /// Pin load capacitance, the paper's `c(s)`.
        capacitance: Farads,
        /// Required arrival time, the paper's `RAT(s)`. Slack at the source
        /// is `min_s (RAT(s) − delay(source→s))`.
        required_arrival: Seconds,
    },
    /// An internal vertex (Steiner point or candidate buffer position).
    Internal,
}

impl NodeKind {
    /// `true` for [`NodeKind::Sink`].
    pub fn is_sink(&self) -> bool {
        matches!(self, NodeKind::Sink { .. })
    }

    /// `true` for [`NodeKind::Source`].
    pub fn is_source(&self) -> bool {
        matches!(self, NodeKind::Source { .. })
    }

    /// `true` for [`NodeKind::Internal`].
    pub fn is_internal(&self) -> bool {
        matches!(self, NodeKind::Internal)
    }
}

/// Which buffer types may be inserted at an internal vertex — the paper's
/// `f : V_int → 2^B`.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum SiteConstraint {
    /// Not a buffer position: nothing may be inserted here.
    #[default]
    NotASite,
    /// Any library buffer may be inserted.
    AnyBuffer,
    /// Only the given subset of the library may be inserted. An empty set
    /// behaves like [`SiteConstraint::NotASite`].
    Subset(Arc<BufferSet>),
}

impl SiteConstraint {
    /// `true` if at least buffering is possible here (note a `Subset` with an
    /// empty set returns `false`).
    pub fn is_site(&self) -> bool {
        match self {
            SiteConstraint::NotASite => false,
            SiteConstraint::AnyBuffer => true,
            SiteConstraint::Subset(s) => !s.is_empty(),
        }
    }

    /// `true` if buffer type `id` may be inserted here.
    pub fn allows(&self, id: BufferTypeId) -> bool {
        match self {
            SiteConstraint::NotASite => false,
            SiteConstraint::AnyBuffer => true,
            SiteConstraint::Subset(s) => s.contains(id),
        }
    }
}

/// Per-node derate factors on an inserted buffer's parameters — the
/// tree-local encoding of local (OCV-style) process variation.
///
/// A buffer inserted at a node with variation `(delay_scale, drive_scale)`
/// behaves as if its intrinsic delay were `K · delay_scale` and its driving
/// resistance `R · drive_scale`; its input capacitance and cost are
/// unchanged. The scales apply uniformly to every library type at the node,
/// so the library-wide resistance ordering the hull walk relies on is
/// preserved.
///
/// The nominal value is exactly `(1.0, 1.0)`, and multiplying by `1.0` is
/// bit-exact in IEEE-754 — an all-nominal tree solves bit-identically to
/// one predating variation support.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SiteVariation {
    delay_scale: f64,
    drive_scale: f64,
}

impl SiteVariation {
    /// The nominal (no-variation) factors: exactly `(1.0, 1.0)`.
    pub const NOMINAL: SiteVariation = SiteVariation {
        delay_scale: 1.0,
        drive_scale: 1.0,
    };

    /// Creates a variation from explicit factors. Validity (finite,
    /// strictly positive) is checked by
    /// [`RoutingTree::set_site_variation`](crate::RoutingTree::set_site_variation).
    pub fn new(delay_scale: f64, drive_scale: f64) -> Self {
        SiteVariation {
            delay_scale,
            drive_scale,
        }
    }

    /// Multiplier on the intrinsic delay `K` of any buffer inserted here.
    #[inline]
    pub fn delay_scale(&self) -> f64 {
        self.delay_scale
    }

    /// Multiplier on the driving resistance `R` of any buffer inserted
    /// here.
    #[inline]
    pub fn drive_scale(&self) -> f64 {
        self.drive_scale
    }

    /// `true` when both factors are exactly `1.0`.
    #[inline]
    pub fn is_nominal(&self) -> bool {
        self.delay_scale == 1.0 && self.drive_scale == 1.0
    }

    /// `true` when both factors are finite and strictly positive (the
    /// precondition every tree mutation enforces).
    pub fn is_valid(&self) -> bool {
        self.delay_scale.is_finite()
            && self.drive_scale.is_finite()
            && self.delay_scale > 0.0
            && self.drive_scale > 0.0
    }
}

impl Default for SiteVariation {
    fn default() -> Self {
        SiteVariation::NOMINAL
    }
}

/// A wire segment: lumped resistance and capacitance, with an optional
/// geometric length (needed by pitch-based [`segmenting`](crate::segment)).
///
/// # Example
///
/// ```
/// use fastbuf_buflib::Technology;
/// use fastbuf_buflib::units::Microns;
/// use fastbuf_rctree::Wire;
///
/// let w = Wire::from_length(&Technology::tsmc180_like(), Microns::new(100.0));
/// assert!((w.resistance().value() - 7.6).abs() < 1e-9);
/// let (a, b) = (w.split(4), w.split(4));
/// assert!((a.resistance().value() - 1.9).abs() < 1e-9);
/// assert_eq!(a, b);
/// ```
#[derive(Clone, Copy)]
pub struct Wire {
    resistance: Ohms,
    capacitance: Farads,
    /// The length in microns, or the bits [`NO_LENGTH`] when it is unknown.
    length: f64,
}

/// The stored length of a wire without one: a NaN, which no [`Microns`]
/// value is.
const NO_LENGTH: u64 = 0x7ff8_0000_0000_0001;

fn encode_length(length: Option<Microns>) -> f64 {
    length.map_or(f64::from_bits(NO_LENGTH), Microns::value)
}

impl Wire {
    /// Creates a wire from lumped parasitics (no geometric length).
    pub fn new(resistance: Ohms, capacitance: Farads) -> Self {
        Wire::from_parts(resistance, capacitance, None)
    }

    /// Creates a wire of the given length in a technology; parasitics are
    /// `length ×` the technology's per-micron values.
    pub fn from_length(tech: &Technology, length: Microns) -> Self {
        let (r, c) = tech.wire(length);
        Wire::from_parts(r, c, Some(length))
    }

    /// Creates a wire from explicit parasitics and an optional geometric
    /// length (the length is carried as metadata; it is *not* used to
    /// recompute the parasitics).
    pub fn from_parts(resistance: Ohms, capacitance: Farads, length: Option<Microns>) -> Self {
        Wire {
            resistance,
            capacitance,
            length: encode_length(length),
        }
    }

    /// The zero wire (0 Ω, 0 F, zero length). Used for the conceptual edge
    /// `(v, v')` of zero resistance and capacitance in the paper's
    /// `AddBuffer` description.
    pub fn zero() -> Self {
        Wire::from_parts(Ohms::ZERO, Farads::ZERO, Some(Microns::ZERO))
    }

    /// Lumped resistance.
    #[inline]
    pub fn resistance(&self) -> Ohms {
        self.resistance
    }

    /// Lumped capacitance.
    #[inline]
    pub fn capacitance(&self) -> Farads {
        self.capacitance
    }

    /// Geometric length, if known.
    #[inline]
    pub fn length(&self) -> Option<Microns> {
        (self.length.to_bits() != NO_LENGTH).then(|| Microns::new(self.length))
    }

    /// An equal division of this wire into `pieces` parts (parasitics and
    /// length all divided by `pieces`).
    ///
    /// # Panics
    ///
    /// Panics if `pieces` is zero.
    pub fn split(&self, pieces: usize) -> Wire {
        assert!(pieces > 0, "cannot split a wire into zero pieces");
        let k = pieces as f64;
        Wire::from_parts(
            self.resistance / k,
            self.capacitance / k,
            self.length().map(|l| l / k),
        )
    }

    /// `true` if both parasitics are finite and non-negative.
    pub fn is_valid(&self) -> bool {
        self.resistance.is_finite()
            && self.capacitance.is_finite()
            && self.resistance >= Ohms::ZERO
            && self.capacitance >= Farads::ZERO
    }
}

/// Equal parasitics and equal lengths, where an unknown length equals only
/// another unknown one (as `Option<Microns>` compares).
impl PartialEq for Wire {
    fn eq(&self, other: &Wire) -> bool {
        self.resistance == other.resistance
            && self.capacitance == other.capacitance
            && self.length() == other.length()
    }
}

impl fmt::Debug for Wire {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wire")
            .field("resistance", &self.resistance)
            .field("capacitance", &self.capacitance)
            .field("length", &self.length())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(12);
        assert_eq!(id.index(), 12);
        assert_eq!(id.to_string(), "n12");
    }

    #[test]
    fn kind_predicates() {
        assert!(NodeKind::Internal.is_internal());
        assert!(NodeKind::Source {
            driver: Driver::default()
        }
        .is_source());
        assert!(NodeKind::Sink {
            capacitance: Farads::ZERO,
            required_arrival: Seconds::ZERO
        }
        .is_sink());
    }

    #[test]
    fn site_constraint_allows() {
        use fastbuf_buflib::BufferSet;
        let none = SiteConstraint::NotASite;
        let any = SiteConstraint::AnyBuffer;
        let mut set = BufferSet::empty(4);
        set.insert(BufferTypeId::new(2));
        let sub = SiteConstraint::Subset(Arc::new(set));

        let b2 = BufferTypeId::new(2);
        let b3 = BufferTypeId::new(3);
        assert!(!none.is_site() && !none.allows(b2));
        assert!(any.is_site() && any.allows(b2) && any.allows(b3));
        assert!(sub.is_site() && sub.allows(b2) && !sub.allows(b3));

        let empty = SiteConstraint::Subset(Arc::new(BufferSet::empty(4)));
        assert!(!empty.is_site());
    }

    #[test]
    fn default_constraint_is_not_a_site() {
        assert_eq!(SiteConstraint::default(), SiteConstraint::NotASite);
    }

    #[test]
    fn wire_split_divides_parasitics_and_length() {
        let tech = Technology::tsmc180_like();
        let w = Wire::from_length(&tech, Microns::new(100.0));
        let h = w.split(2);
        assert!((h.resistance().value() - 3.8).abs() < 1e-9);
        assert!((h.capacitance().femtos() - 5.9).abs() < 1e-9);
        assert_eq!(h.length(), Some(Microns::new(50.0)));
    }

    #[test]
    #[should_panic(expected = "zero pieces")]
    fn split_zero_panics() {
        Wire::zero().split(0);
    }

    #[test]
    fn an_unknown_length_is_distinct_from_every_length() {
        let (r, c) = (Ohms::new(10.0), Farads::from_femto(2.0));
        let unknown = Wire::new(r, c);
        assert_eq!(std::mem::size_of::<Wire>(), 24);
        assert_eq!(unknown.length(), None);
        assert_eq!(unknown.split(3).length(), None);
        assert_eq!(unknown, Wire::from_parts(r, c, None));
        for length in [0.0, -0.0, 7.5, f64::MIN_POSITIVE, f64::MAX, f64::INFINITY] {
            let known = Wire::from_parts(r, c, Some(Microns::new(length)));
            assert!(known.length().is_some(), "{length}");
            assert!(known.split(3).length().is_some(), "{length}");
            assert_ne!(known, unknown, "{length}");
        }
        assert_eq!(
            format!("{unknown:?}"),
            format!("Wire {{ resistance: {r:?}, capacitance: {c:?}, length: None }}")
        );
    }

    #[test]
    fn validity() {
        assert!(Wire::zero().is_valid());
        assert!(!Wire::new(Ohms::new(-1.0), Farads::ZERO).is_valid());
        assert!(!Wire::new(Ohms::new(f64::INFINITY), Farads::ZERO).is_valid());
        assert!(!Wire::new(Ohms::ZERO, Farads::new(-1e-15)).is_valid());
    }
}
