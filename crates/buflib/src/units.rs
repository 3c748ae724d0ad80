//! Zero-cost newtypes for the physical quantities used across `fastbuf`.
//!
//! All quantities are stored internally as `f64` in SI base units (ohms,
//! farads, seconds) or microns for geometry. The newtypes exist to make unit
//! errors (passing a capacitance where a resistance is expected, forgetting a
//! femto/pico scale factor) compile-time errors at API boundaries, while the
//! hot inner loops of the solver extract raw `f64`s via [`Ohms::value`] and
//! friends.
//!
//! Dimension-checked arithmetic is provided where the buffer-insertion
//! algebra needs it, most importantly `Ohms * Farads -> Seconds` (the RC
//! product at the heart of the Elmore delay model).
//!
//! ```
//! use fastbuf_buflib::units::{Farads, Ohms, Seconds};
//!
//! let r = Ohms::new(180.0);
//! let c = Farads::from_femto(23.0);
//! let rc: Seconds = r * c;
//! assert!((rc.picos() - 4.14).abs() < 1e-12);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Formats `value` with an engineering (power-of-1000) SI prefix.
fn eng(f: &mut fmt::Formatter<'_>, value: f64, unit: &str) -> fmt::Result {
    if value == 0.0 {
        return write!(f, "0 {unit}");
    }
    if !value.is_finite() {
        return write!(f, "{value} {unit}");
    }
    const PREFIXES: [(&str, f64); 11] = [
        ("a", 1e-18),
        ("f", 1e-15),
        ("p", 1e-12),
        ("n", 1e-9),
        ("u", 1e-6),
        ("m", 1e-3),
        ("", 1.0),
        ("k", 1e3),
        ("M", 1e6),
        ("G", 1e9),
        ("T", 1e12),
    ];
    let mag = value.abs();
    let (prefix, scale) = PREFIXES
        .iter()
        .rev()
        .find(|(_, s)| mag >= *s)
        .copied()
        .unwrap_or(PREFIXES[0]);
    write!(f, "{:.4} {}{}", value / scale, prefix, unit)
}

macro_rules! unit_newtype {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, PartialOrd)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Creates a quantity from a raw value in base units.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if `value` is NaN. Infinities are
            /// permitted (they are used as sentinels for "no constraint").
            #[inline]
            pub fn new(value: f64) -> Self {
                debug_assert!(!value.is_nan(), concat!(stringify!($name), " must not be NaN"));
                Self(value)
            }

            /// Returns the raw value in base units.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// `true` if the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                eng(f, self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|x| x.0).sum())
            }
        }
    };
}

unit_newtype!(
    /// Electrical resistance in ohms.
    ///
    /// Used for buffer/driver output resistance and wire resistance.
    Ohms,
    "Ohm"
);

unit_newtype!(
    /// Electrical capacitance in farads.
    ///
    /// Used for sink loads, buffer input pins, and wire capacitance. Most
    /// on-chip values are femtofarads; see [`Farads::from_femto`].
    Farads,
    "F"
);

unit_newtype!(
    /// Time in seconds.
    ///
    /// Used for delays, required arrival times, and slack. Most on-chip
    /// values are picoseconds; see [`Seconds::from_pico`].
    Seconds,
    "s"
);

unit_newtype!(
    /// Length in microns (µm), the customary unit of on-chip geometry.
    Microns,
    "um"
);

impl Farads {
    /// Creates a capacitance from a value in femtofarads (1e-15 F).
    #[inline]
    pub fn from_femto(ff: f64) -> Self {
        Self::new(ff * 1e-15)
    }

    /// Returns the capacitance in femtofarads.
    #[inline]
    pub fn femtos(self) -> f64 {
        self.value() * 1e15
    }

    /// Creates a capacitance from a value in picofarads (1e-12 F).
    #[inline]
    pub fn from_pico(pf: f64) -> Self {
        Self::new(pf * 1e-12)
    }
}

impl Seconds {
    /// Creates a time from a value in picoseconds (1e-12 s).
    #[inline]
    pub fn from_pico(ps: f64) -> Self {
        Self::new(ps * 1e-12)
    }

    /// Returns the time in picoseconds.
    #[inline]
    pub fn picos(self) -> f64 {
        self.value() * 1e12
    }
}

impl Mul<Farads> for Ohms {
    type Output = Seconds;
    /// The RC product: `Ohms * Farads = Seconds`.
    #[inline]
    fn mul(self, rhs: Farads) -> Seconds {
        Seconds::new(self.value() * rhs.value())
    }
}

impl Mul<Ohms> for Farads {
    type Output = Seconds;
    #[inline]
    fn mul(self, rhs: Ohms) -> Seconds {
        rhs * self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rc_product_is_seconds() {
        let t = Ohms::new(1000.0) * Farads::from_femto(10.0);
        assert!((t.picos() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn commutative_rc_product() {
        let a = Ohms::new(42.0) * Farads::new(1e-14);
        let b = Farads::new(1e-14) * Ohms::new(42.0);
        assert_eq!(a, b);
    }

    #[test]
    fn addition_and_subtraction() {
        let a = Seconds::from_pico(100.0);
        let b = Seconds::from_pico(40.0);
        assert!(((a - b).picos() - 60.0).abs() < 1e-9);
        assert!(((a + b).picos() - 140.0).abs() < 1e-9);
    }

    #[test]
    fn scalar_multiplication_both_sides() {
        let c = Farads::from_femto(2.0);
        assert_eq!((c * 3.0).femtos().round(), 6.0);
        assert_eq!((3.0 * c).femtos().round(), 6.0);
    }

    #[test]
    fn ratio_is_dimensionless() {
        let ratio: f64 = Ohms::new(100.0) / Ohms::new(50.0);
        assert_eq!(ratio, 2.0);
    }

    #[test]
    fn ordering_works() {
        assert!(Ohms::new(180.0) < Ohms::new(7000.0));
        assert!(Seconds::from_pico(-5.0) < Seconds::ZERO);
    }

    #[test]
    fn min_max_abs() {
        let a = Seconds::from_pico(-3.0);
        let b = Seconds::from_pico(1.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.abs(), Seconds::from_pico(3.0));
    }

    #[test]
    fn sum_of_quantities() {
        let total: Farads = (1..=4).map(|i| Farads::from_femto(i as f64)).sum();
        assert!((total.femtos() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn display_engineering_notation() {
        assert_eq!(format!("{}", Farads::from_femto(23.0)), "23.0000 fF");
        assert_eq!(format!("{}", Ohms::new(7000.0)), "7.0000 kOhm");
        assert_eq!(format!("{}", Seconds::from_pico(36.4)), "36.4000 ps");
        assert_eq!(format!("{}", Seconds::ZERO), "0 s");
        assert_eq!(format!("{}", Microns::new(100.0)), "100.0000 um");
    }

    #[test]
    fn display_negative_and_sub_atto() {
        assert_eq!(format!("{}", Seconds::from_pico(-1.5)), "-1.5000 ps");
        // Below the smallest prefix we fall back to atto.
        let tiny = Seconds::new(1e-21);
        assert_eq!(format!("{tiny}"), "0.0010 as");
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Ohms::default(), Ohms::ZERO);
        assert_eq!(Farads::default(), Farads::ZERO);
    }

    #[test]
    fn neg_and_assign_ops() {
        let mut q = Seconds::from_pico(10.0);
        q += Seconds::from_pico(5.0);
        q -= Seconds::from_pico(3.0);
        assert!((q.picos() - 12.0).abs() < 1e-9);
        assert!(((-q).picos() + 12.0).abs() < 1e-9);
    }

    #[test]
    fn infinity_is_permitted_as_sentinel() {
        let inf = Seconds::new(f64::INFINITY);
        assert!(!inf.is_finite());
        assert!(inf > Seconds::from_pico(1e12));
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    #[cfg(debug_assertions)]
    fn nan_rejected_in_debug() {
        let _ = Ohms::new(f64::NAN);
    }
}
