//! Buffer-type and driver models.

use std::fmt;

use crate::units::{Farads, Ohms, Seconds};

/// Identifier of a buffer type within a [`BufferLibrary`](crate::BufferLibrary).
///
/// Ids are dense indices in library insertion order; they are only meaningful
/// relative to the library that issued them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferTypeId(u32);

impl BufferTypeId {
    /// Creates an id from a dense index.
    #[inline]
    pub fn new(index: usize) -> Self {
        BufferTypeId(index as u32)
    }

    /// The dense index of this buffer type in library insertion order.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BufferTypeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// A buffer (repeater) type, the paper's `B_i`.
///
/// The delay of a buffer of type `B_i` driving a downstream capacitance `C`
/// follows the linear model used throughout the van Ginneken family of
/// algorithms:
///
/// ```text
/// d_buf(B_i, C) = K(B_i) + R(B_i) · C
/// ```
///
/// where `K` is the intrinsic delay and `R` the driving resistance. When the
/// buffer is inserted, the capacitance seen upstream becomes its input
/// capacitance `C(B_i)`.
///
/// # Example
///
/// ```
/// use fastbuf_buflib::BufferType;
/// use fastbuf_buflib::units::{Farads, Ohms, Seconds};
///
/// let strong = BufferType::new("bx8", Ohms::new(180.0),
///                              Farads::from_femto(23.0),
///                              Seconds::from_pico(36.4));
/// assert_eq!(strong.intrinsic_delay(), Seconds::from_pico(36.4));
/// assert_eq!(strong.cost(), 1.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct BufferType {
    name: String,
    driving_resistance: Ohms,
    input_capacitance: Farads,
    intrinsic_delay: Seconds,
    cost: f64,
    max_load: Option<Farads>,
    output_slew: Seconds,
    inverting: bool,
}

impl BufferType {
    /// Creates a buffer type from the three parameters of the linear delay
    /// model. Cost defaults to `1.0` and no load limit is set.
    ///
    /// Validation (positivity, finiteness) is performed when the buffer is
    /// inserted into a [`BufferLibrary`](crate::BufferLibrary).
    pub fn new(
        name: impl Into<String>,
        driving_resistance: Ohms,
        input_capacitance: Farads,
        intrinsic_delay: Seconds,
    ) -> Self {
        BufferType {
            name: name.into(),
            driving_resistance,
            input_capacitance,
            intrinsic_delay,
            cost: 1.0,
            max_load: None,
            output_slew: Seconds::ZERO,
            inverting: false,
        }
    }

    /// Sets the intrinsic output slew of this buffer — the transition time
    /// its output exhibits even when unloaded. Slew-constrained solving
    /// adds it to the `ln 9`-scaled stage delay when checking candidates
    /// driven by this type (see `fastbuf_rctree::delay`). Returns `self`
    /// for chaining.
    #[must_use]
    pub fn with_output_slew(mut self, output_slew: Seconds) -> Self {
        self.output_slew = output_slew;
        self
    }

    /// Marks this type as an inverter (its output has opposite polarity to
    /// its input) and returns `self` for chaining. The plain
    /// [`Solver`](https://docs.rs/fastbuf-core) ignores polarity; the
    /// polarity-aware solver in `fastbuf-core::polarity` honours it.
    #[must_use]
    pub fn with_inverting(mut self, inverting: bool) -> Self {
        self.inverting = inverting;
        self
    }

    /// Sets the cost used by the cost-bounded solver (e.g. area in
    /// arbitrary units) and returns `self` for chaining.
    #[must_use]
    pub fn with_cost(mut self, cost: f64) -> Self {
        self.cost = cost;
        self
    }

    /// Sets the maximum downstream capacitance this buffer may legally drive
    /// and returns `self` for chaining. Candidates exceeding the limit are
    /// not buffered with this type.
    #[must_use]
    pub fn with_max_load(mut self, max_load: Farads) -> Self {
        self.max_load = Some(max_load);
        self
    }

    /// The buffer type's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Driving (output) resistance `R(B_i)`.
    #[inline]
    pub fn driving_resistance(&self) -> Ohms {
        self.driving_resistance
    }

    /// Input (pin) capacitance `C(B_i)` seen by the upstream stage.
    #[inline]
    pub fn input_capacitance(&self) -> Farads {
        self.input_capacitance
    }

    /// Intrinsic delay `K(B_i)`.
    #[inline]
    pub fn intrinsic_delay(&self) -> Seconds {
        self.intrinsic_delay
    }

    /// Cost used by the cost-bounded solver.
    #[inline]
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Optional maximum load this buffer may drive.
    #[inline]
    pub fn max_load(&self) -> Option<Farads> {
        self.max_load
    }

    /// Intrinsic output slew (zero unless set with
    /// [`BufferType::with_output_slew`]).
    #[inline]
    pub fn output_slew(&self) -> Seconds {
        self.output_slew
    }

    /// `true` if this type inverts signal polarity.
    #[inline]
    pub fn is_inverting(&self) -> bool {
        self.inverting
    }
}

impl fmt::Display for BufferType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (R={}, C={}, K={})",
            self.name, self.driving_resistance, self.input_capacitance, self.intrinsic_delay
        )
    }
}

/// The net's source driver.
///
/// The driver is modeled as a resistance `R_d` (plus optional intrinsic
/// delay): the delay contribution at the source is `K_d + R_d · C_root` where
/// `C_root` is the capacitance of the chosen candidate at the root. The slack
/// reported by the solvers already accounts for it.
///
/// # Example
///
/// ```
/// use fastbuf_buflib::Driver;
/// use fastbuf_buflib::units::{Ohms, Seconds};
///
/// let drv = Driver::new(Ohms::new(150.0));
/// assert_eq!(drv.intrinsic_delay(), Seconds::ZERO);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Driver {
    resistance: Ohms,
    intrinsic_delay: Seconds,
}

impl Driver {
    /// Creates a driver with the given output resistance and zero intrinsic
    /// delay.
    pub fn new(resistance: Ohms) -> Self {
        Driver {
            resistance,
            intrinsic_delay: Seconds::ZERO,
        }
    }

    /// Sets the driver's intrinsic delay and returns `self` for chaining.
    #[must_use]
    pub fn with_intrinsic_delay(mut self, intrinsic_delay: Seconds) -> Self {
        self.intrinsic_delay = intrinsic_delay;
        self
    }

    /// Driver output resistance `R_d`.
    #[inline]
    pub fn resistance(&self) -> Ohms {
        self.resistance
    }

    /// Driver intrinsic delay `K_d`.
    #[inline]
    pub fn intrinsic_delay(&self) -> Seconds {
        self.intrinsic_delay
    }
}

impl Default for Driver {
    /// An ideal (zero-resistance, zero-delay) driver.
    fn default() -> Self {
        Driver::new(Ohms::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf() -> BufferType {
        BufferType::new(
            "b0",
            Ohms::new(1000.0),
            Farads::from_femto(5.0),
            Seconds::from_pico(30.0),
        )
    }

    #[test]
    fn builder_style_setters() {
        let b = buf()
            .with_cost(3.5)
            .with_max_load(Farads::from_femto(200.0));
        assert_eq!(b.cost(), 3.5);
        assert_eq!(b.max_load(), Some(Farads::from_femto(200.0)));
    }

    #[test]
    fn default_cost_is_one_and_no_max_load() {
        assert_eq!(buf().cost(), 1.0);
        assert_eq!(buf().max_load(), None);
        assert_eq!(buf().output_slew(), Seconds::ZERO);
    }

    #[test]
    fn output_slew_setter() {
        let b = buf().with_output_slew(Seconds::from_pico(12.0));
        assert_eq!(b.output_slew(), Seconds::from_pico(12.0));
    }

    #[test]
    fn id_roundtrip_and_display() {
        let id = BufferTypeId::new(7);
        assert_eq!(id.index(), 7);
        assert_eq!(id.to_string(), "B7");
    }

    #[test]
    fn display_contains_parameters() {
        let s = buf().to_string();
        assert!(s.contains("b0"));
        assert!(s.contains("kOhm"));
    }
}
