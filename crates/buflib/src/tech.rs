//! Interconnect technology parameters.

use crate::units::{Farads, Microns, Ohms};

/// Per-micron wire parasitics of an interconnect technology.
///
/// Wires in `fastbuf` are described by lumped resistance and capacitance;
/// `Technology` converts geometric wire lengths into those lumps. The
/// [`Technology::tsmc180_like`] preset reproduces the constants of the
/// paper's evaluation section: 0.076 Ω/µm and 0.118 fF/µm.
///
/// # Example
///
/// ```
/// use fastbuf_buflib::Technology;
/// use fastbuf_buflib::units::Microns;
///
/// let tech = Technology::tsmc180_like();
/// let (r, c) = tech.wire(Microns::new(1000.0));
/// assert!((r.value() - 76.0).abs() < 1e-9);
/// assert!((c.femtos() - 118.0).abs() < 1e-6);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Technology {
    resistance_per_micron: Ohms,
    capacitance_per_micron: Farads,
}

impl Technology {
    /// Creates a technology from per-micron wire resistance and capacitance.
    pub fn new(resistance_per_micron: Ohms, capacitance_per_micron: Farads) -> Self {
        Technology {
            resistance_per_micron,
            capacitance_per_micron,
        }
    }

    /// The 180 nm-class technology used in the paper's evaluation:
    /// wire resistance 0.076 Ω/µm, wire capacitance 0.118 fF/µm.
    pub fn tsmc180_like() -> Self {
        Technology::new(Ohms::new(0.076), Farads::from_femto(0.118))
    }

    /// Wire resistance per micron.
    #[inline]
    pub fn resistance_per_micron(&self) -> Ohms {
        self.resistance_per_micron
    }

    /// Wire capacitance per micron.
    #[inline]
    pub fn capacitance_per_micron(&self) -> Farads {
        self.capacitance_per_micron
    }

    /// Lumped resistance and capacitance of a wire of the given length.
    #[inline]
    pub fn wire(&self, length: Microns) -> (Ohms, Farads) {
        (
            self.resistance_per_micron * length.value(),
            self.capacitance_per_micron * length.value(),
        )
    }
}

impl Default for Technology {
    /// Defaults to the paper's 180 nm-class constants.
    fn default() -> Self {
        Technology::tsmc180_like()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants() {
        let t = Technology::tsmc180_like();
        assert!((t.resistance_per_micron().value() - 0.076).abs() < 1e-12);
        assert!((t.capacitance_per_micron().femtos() - 0.118).abs() < 1e-12);
    }

    #[test]
    fn wire_scales_linearly() {
        let t = Technology::tsmc180_like();
        let (r1, c1) = t.wire(Microns::new(10.0));
        let (r2, c2) = t.wire(Microns::new(20.0));
        assert!((r2.value() - 2.0 * r1.value()).abs() < 1e-12);
        assert!((c2.value() - 2.0 * c1.value()).abs() < 1e-24);
    }

    #[test]
    fn zero_length_wire_has_no_parasitics() {
        let (r, c) = Technology::default().wire(Microns::ZERO);
        assert_eq!(r, Ohms::ZERO);
        assert_eq!(c, Farads::ZERO);
    }
}
