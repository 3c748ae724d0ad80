//! The buffer library: a validated, immutable collection of buffer types
//! with the sorted orders required by the O(bn²) algorithm precomputed.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use crate::buffer::{BufferType, BufferTypeId};
use crate::error::LibraryError;
use crate::text::{self, femto_field, pico_field, LineError};
use crate::units::{Farads, Ohms, Seconds};

/// A validated buffer library, the paper's `B = {B_1, ..., B_b}`.
///
/// Construction validates every entry (finite, positive resistance,
/// non-negative capacitance/delay/cost, unique names) and precomputes the two
/// orders the Li–Shi algorithm relies on:
///
/// * **non-increasing driving resistance** (`R(B_1) ≥ R(B_2) ≥ ...`) —
///   Lemma 1 of the paper guarantees that the best candidates for buffers in
///   this order have non-decreasing capacitance, enabling the monotone hull
///   walk;
/// * **non-decreasing input capacitance** — Theorem 2 uses it to merge the
///   `b` new buffered candidates into a nonredundant list in O(k + b).
///
/// # Example
///
/// ```
/// use fastbuf_buflib::BufferLibrary;
///
/// let lib = BufferLibrary::paper_synthetic(8)?;
/// assert_eq!(lib.len(), 8);
/// // Resistances are non-increasing in the precomputed order.
/// let rs: Vec<f64> = lib.by_resistance_desc().iter()
///     .map(|&id| lib.get(id).driving_resistance().value()).collect();
/// assert!(rs.windows(2).all(|w| w[0] >= w[1]));
/// # Ok::<(), fastbuf_buflib::LibraryError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct BufferLibrary {
    // Shared, so a clone (one per worker, net or request) copies three
    // pointers instead of the library.
    buffers: Arc<[BufferType]>,
    by_resistance_desc: Arc<[BufferTypeId]>,
    by_input_cap_asc: Arc<[BufferTypeId]>,
}

impl BufferLibrary {
    /// Creates a library from buffer types, validating every entry.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError`] if the list is empty, any parameter is
    /// non-finite, a resistance is non-positive, a capacitance / intrinsic
    /// delay / cost is negative, or two entries share a name.
    pub fn new(buffers: Vec<BufferType>) -> Result<Self, LibraryError> {
        if buffers.is_empty() {
            return Err(LibraryError::Empty);
        }
        Self::build(buffers)
    }

    /// Creates an empty library (no buffering possible). Provided so that
    /// "wires only" flows don't need an `Option<BufferLibrary>`.
    pub fn empty() -> Self {
        BufferLibrary {
            buffers: Arc::new([]),
            by_resistance_desc: Arc::new([]),
            by_input_cap_asc: Arc::new([]),
        }
    }

    fn build(buffers: Vec<BufferType>) -> Result<Self, LibraryError> {
        for (index, b) in buffers.iter().enumerate() {
            let name = || b.name().to_owned();
            if !b.driving_resistance().is_finite() {
                return Err(LibraryError::NonFiniteParameter {
                    index,
                    buffer: name(),
                    field: "resistance",
                });
            }
            if !b.input_capacitance().is_finite() {
                return Err(LibraryError::NonFiniteParameter {
                    index,
                    buffer: name(),
                    field: "capacitance",
                });
            }
            if !b.intrinsic_delay().is_finite() {
                return Err(LibraryError::NonFiniteParameter {
                    index,
                    buffer: name(),
                    field: "intrinsic delay",
                });
            }
            if b.driving_resistance() <= Ohms::ZERO {
                return Err(LibraryError::NonPositiveResistance {
                    index,
                    buffer: name(),
                });
            }
            if b.input_capacitance() < Farads::ZERO {
                return Err(LibraryError::NegativeCapacitance {
                    index,
                    buffer: name(),
                });
            }
            if b.intrinsic_delay() < Seconds::ZERO {
                return Err(LibraryError::NegativeIntrinsicDelay {
                    index,
                    buffer: name(),
                });
            }
            if !b.output_slew().is_finite() {
                return Err(LibraryError::NonFiniteParameter {
                    index,
                    buffer: name(),
                    field: "output slew",
                });
            }
            if b.output_slew() < Seconds::ZERO {
                return Err(LibraryError::NegativeOutputSlew {
                    index,
                    buffer: name(),
                });
            }
            if !b.cost().is_finite() || b.cost() < 0.0 {
                return Err(LibraryError::InvalidCost {
                    index,
                    buffer: name(),
                });
            }
        }
        let mut names = HashSet::with_capacity(buffers.len());
        for (index, b) in buffers.iter().enumerate() {
            if !names.insert(b.name()) {
                return Err(LibraryError::DuplicateName {
                    index,
                    name: b.name().to_owned(),
                });
            }
        }

        let mut by_resistance_desc: Vec<BufferTypeId> =
            (0..buffers.len()).map(BufferTypeId::new).collect();
        // `total_cmp`, not `partial_cmp().unwrap()`: the parameters are
        // validated finite above, but the sort must stay total (and
        // panic-free) even if validation ever loosens.
        by_resistance_desc.sort_by(|&a, &b| {
            let (ba, bb) = (&buffers[a.index()], &buffers[b.index()]);
            bb.driving_resistance()
                .value()
                .total_cmp(&ba.driving_resistance().value())
                .then(
                    ba.input_capacitance()
                        .value()
                        .total_cmp(&bb.input_capacitance().value()),
                )
                .then(a.cmp(&b))
        });
        let mut by_input_cap_asc: Vec<BufferTypeId> =
            (0..buffers.len()).map(BufferTypeId::new).collect();
        by_input_cap_asc.sort_by(|&a, &b| {
            let (ba, bb) = (&buffers[a.index()], &buffers[b.index()]);
            ba.input_capacitance()
                .value()
                .total_cmp(&bb.input_capacitance().value())
                .then(a.cmp(&b))
        });
        Ok(BufferLibrary {
            buffers: buffers.into(),
            by_resistance_desc: by_resistance_desc.into(),
            by_input_cap_asc: by_input_cap_asc.into(),
        })
    }

    /// Generates a synthetic library of `b` types spanning the parameter
    /// ranges reported in the paper's evaluation (§4): driving resistance
    /// 180–7000 Ω, input capacitance 0.7–23 fF, intrinsic delay 29–36.4 ps.
    ///
    /// Strength is geometric: the strongest buffer has the lowest resistance
    /// and the highest input capacitance, as in real cell libraries. Costs
    /// are proportional to drive strength (≈ area).
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::Empty`] if `b == 0`.
    pub fn paper_synthetic(b: usize) -> Result<Self, LibraryError> {
        SyntheticLibrarySpec::paper().build(b)
    }

    /// Like [`BufferLibrary::paper_synthetic`] but with deterministic
    /// pseudo-random jitter on every parameter, so that no two entries are
    /// collinear. Useful for stress tests.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::Empty`] if `b == 0`.
    pub fn paper_synthetic_jittered(b: usize, seed: u64) -> Result<Self, LibraryError> {
        let mut spec = SyntheticLibrarySpec::paper();
        spec.jitter = 0.15;
        spec.seed = seed;
        spec.build(b)
    }

    /// A mixed repeater library: like [`BufferLibrary::paper_synthetic`]
    /// but every second entry is an inverter (same drive parameters, ~20%
    /// cheaper and slightly faster, as real inverters are relative to the
    /// equivalent two-stage buffer). For the polarity-aware solver.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::Empty`] if `b == 0`.
    pub fn paper_synthetic_mixed(b: usize) -> Result<Self, LibraryError> {
        let base = Self::paper_synthetic(b)?;
        BufferLibrary::new(
            base.buffers
                .iter()
                .enumerate()
                .map(|(i, buf)| {
                    if i % 2 == 1 {
                        BufferType::new(
                            format!("inv{i}"),
                            buf.driving_resistance(),
                            buf.input_capacitance(),
                            buf.intrinsic_delay() * 0.7,
                        )
                        .with_cost((buf.cost() * 0.8).round().max(1.0))
                        .with_inverting(true)
                    } else {
                        buf.clone()
                    }
                })
                .collect(),
        )
    }

    /// The buffer type for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this library.
    #[inline]
    pub fn get(&self, id: BufferTypeId) -> &BufferType {
        &self.buffers[id.index()]
    }

    /// Number of buffer types (the paper's `b`).
    #[inline]
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// `true` if the library holds no buffer types.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// Iterates over `(id, buffer)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (BufferTypeId, &BufferType)> {
        self.buffers
            .iter()
            .enumerate()
            .map(|(i, b)| (BufferTypeId::new(i), b))
    }

    /// All ids in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = BufferTypeId> + '_ {
        (0..self.buffers.len()).map(BufferTypeId::new)
    }

    /// Ids sorted by non-increasing driving resistance (Lemma 1 order).
    #[inline]
    pub fn by_resistance_desc(&self) -> &[BufferTypeId] {
        &self.by_resistance_desc
    }

    /// Ids sorted by non-decreasing input capacitance (Theorem 2 order).
    #[inline]
    pub fn by_input_cap_asc(&self) -> &[BufferTypeId] {
        &self.by_input_cap_asc
    }

    /// Finds a buffer type by name.
    pub fn find(&self, name: &str) -> Option<BufferTypeId> {
        self.buffers
            .iter()
            .position(|b| b.name() == name)
            .map(BufferTypeId::new)
    }

    /// Creates a sub-library from a subset of this library's ids. Entries
    /// keep their parameters but receive fresh,
    /// dense ids in the order given.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::Empty`] if `ids` is empty.
    pub fn subset(&self, ids: &[BufferTypeId]) -> Result<Self, LibraryError> {
        BufferLibrary::new(ids.iter().map(|&id| self.get(id).clone()).collect())
    }

    /// Serializes the library to the plain-text exchange format: one
    /// `name r_ohms c_ff k_ps cost [max_load_ff] [slew=ps] [inv]` line per
    /// buffer.
    ///
    /// The text reads back bit for bit. Each capacitance and time field is
    /// the shortest decimal in its display unit that
    /// [`Farads::from_femto`] / [`Seconds::from_pico`] map back to the
    /// stored value. The unit scale is not a power of two, so about one
    /// value in ten has no such decimal; that field is written as the
    /// exact SI value with a unit suffix instead (`2.3456e-14F`,
    /// `3.1e-11s`), which [`BufferLibrary::from_text`] also reads.
    pub fn to_text(&self) -> String {
        let mut out = String::from(
            "# fastbuf buffer library: name r_ohms c_ff k_ps cost [max_load_ff] [slew=ps] [inv]\n",
        );
        for b in self.buffers.iter() {
            out.push_str(&format!(
                "{} {} {} {} {}",
                b.name(),
                b.driving_resistance().value(),
                femto_field(b.input_capacitance()),
                pico_field(b.intrinsic_delay()),
                b.cost(),
            ));
            if let Some(ml) = b.max_load() {
                out.push_str(&format!(" {}", femto_field(ml)));
            }
            if b.output_slew() > Seconds::ZERO {
                out.push_str(&format!(" slew={}", pico_field(b.output_slew())));
            }
            if b.is_inverting() {
                out.push_str(" inv");
            }
            out.push('\n');
        }
        out
    }

    /// Parses the plain-text exchange format produced by
    /// [`BufferLibrary::to_text`], in the shared [`text`] grammar: `#`
    /// comments, blank lines skipped, finite numbers. A capacitance or
    /// time field ending in `F` or `s` is an exact SI value; otherwise it
    /// is in femtofarads or picoseconds.
    ///
    /// # Errors
    ///
    /// A [`LineError`] naming the first malformed line, or a
    /// [`LibraryError`] if the parsed entries fail validation, on the
    /// offending buffer's line (line 0 for a library with no buffers).
    pub fn from_text(text: &str) -> Result<Self, LineError> {
        let (mut buffers, mut lines) = (Vec::new(), Vec::new());
        for mut fields in text::lines(text) {
            let name = fields.word("name")?;
            let r = fields.finite("resistance")?;
            let c = fields.femtos("capacitance")?;
            let k = fields.picos("intrinsic delay")?;
            let cost = fields.finite("cost")?;
            let mut buf = BufferType::new(name, Ohms::new(r), c, k).with_cost(cost);
            while let Some(extra) = fields.next() {
                if extra == "inv" {
                    buf = buf.with_inverting(true);
                } else if let Some(slew) = extra.strip_prefix("slew=") {
                    let slew = fields.parse_unit("output slew", slew, text::PICO)?;
                    buf = buf.with_output_slew(Seconds::new(slew));
                } else {
                    let ml = fields.parse_unit("max load", extra, text::FEMTO)?;
                    buf = buf.with_max_load(Farads::new(ml));
                }
            }
            buffers.push(buf);
            lines.push(fields.line());
        }
        BufferLibrary::new(buffers).map_err(|e| {
            let line = e.buffer_index().map_or(0, |i| lines[i]);
            LineError::at(line, e.to_string())
        })
    }
}

impl fmt::Display for BufferLibrary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "buffer library ({} types):", self.len())?;
        for b in self.buffers.iter() {
            writeln!(f, "  {b}")?;
        }
        Ok(())
    }
}

/// Parameter ranges for synthetic library generation.
///
/// The default ([`SyntheticLibrarySpec::paper`]) spans the ranges published
/// in the paper's §4. Resistance is interpolated geometrically from
/// `resistance_max` (weakest) down to `resistance_min` (strongest); input
/// capacitance geometrically from `cap_min` up to `cap_max`; intrinsic delay
/// linearly.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SyntheticLibrarySpec {
    /// Resistance of the strongest buffer (paper: 180 Ω).
    pub resistance_min: Ohms,
    /// Resistance of the weakest buffer (paper: 7000 Ω).
    pub resistance_max: Ohms,
    /// Input capacitance of the weakest buffer (paper: 0.7 fF).
    pub cap_min: Farads,
    /// Input capacitance of the strongest buffer (paper: 23 fF).
    pub cap_max: Farads,
    /// Intrinsic delay of the weakest buffer (paper: 29 ps).
    pub delay_min: Seconds,
    /// Intrinsic delay of the strongest buffer (paper: 36.4 ps).
    pub delay_max: Seconds,
    /// Relative jitter applied to every parameter (0 = none).
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
    /// Name prefix for generated buffers.
    pub name_prefix: String,
}

impl SyntheticLibrarySpec {
    /// The parameter ranges of the paper's evaluation section.
    pub(crate) fn paper() -> Self {
        SyntheticLibrarySpec {
            resistance_min: Ohms::new(180.0),
            resistance_max: Ohms::new(7000.0),
            cap_min: Farads::from_femto(0.7),
            cap_max: Farads::from_femto(23.0),
            delay_min: Seconds::from_pico(29.0),
            delay_max: Seconds::from_pico(36.4),
            jitter: 0.0,
            seed: 0,
            name_prefix: "buf".to_owned(),
        }
    }

    /// Builds a library of `b` types from this spec.
    ///
    /// Index 0 is the weakest buffer (highest R, lowest C); index `b-1` the
    /// strongest. Costs are proportional to drive strength:
    /// `cost = max(1, round(R_max / R_i))`.
    ///
    /// # Errors
    ///
    /// Returns [`LibraryError::Empty`] if `b == 0`, or a validation error if
    /// the spec ranges are degenerate (e.g. non-positive resistance).
    pub(crate) fn build(&self, b: usize) -> Result<BufferLibrary, LibraryError> {
        if b == 0 {
            return Err(LibraryError::Empty);
        }
        let mut rng = SplitMix64::new(self.seed);
        let mut buffers = Vec::with_capacity(b);
        for i in 0..b {
            let t = if b == 1 {
                1.0
            } else {
                i as f64 / (b - 1) as f64
            };
            // Geometric interpolation for R (descending) and C (ascending).
            let r = geo(self.resistance_max.value(), self.resistance_min.value(), t);
            let c = geo(self.cap_min.value(), self.cap_max.value(), t);
            let k = self.delay_min.value() + t * (self.delay_max.value() - self.delay_min.value());
            let j = |rng: &mut SplitMix64| 1.0 + self.jitter * (2.0 * rng.next_f64() - 1.0);
            let r = r * j(&mut rng);
            let c = c * j(&mut rng);
            let k = k * j(&mut rng);
            let cost = (self.resistance_max.value() / r).round().max(1.0);
            buffers.push(
                BufferType::new(
                    format!("{}{}", self.name_prefix, i),
                    Ohms::new(r),
                    Farads::new(c),
                    Seconds::new(k),
                )
                .with_cost(cost),
            );
        }
        BufferLibrary::new(buffers)
    }
}

/// Geometric interpolation between `a` and `b` at parameter `t ∈ [0, 1]`.
fn geo(a: f64, b: f64, t: f64) -> f64 {
    a * (b / a).powf(t)
}

/// Tiny deterministic PRNG (SplitMix64) so this crate needs no `rand`
/// dependency for jittered generation.
struct SplitMix64(u64);

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        SplitMix64(seed.wrapping_add(0x9E3779B97F4A7C15))
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_spans_paper_ranges() {
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        assert_eq!(lib.len(), 8);
        let weakest = lib.get(BufferTypeId::new(0));
        let strongest = lib.get(BufferTypeId::new(7));
        assert!((weakest.driving_resistance().value() - 7000.0).abs() < 1e-6);
        assert!((strongest.driving_resistance().value() - 180.0).abs() < 1e-6);
        assert!((weakest.input_capacitance().femtos() - 0.7).abs() < 1e-9);
        assert!((strongest.input_capacitance().femtos() - 23.0).abs() < 1e-9);
        assert!((weakest.intrinsic_delay().picos() - 29.0).abs() < 1e-9);
        assert!((strongest.intrinsic_delay().picos() - 36.4).abs() < 1e-9);
    }

    /// A clone shares the original's storage instead of copying it.
    #[test]
    fn clones_share_their_storage() {
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        let copy = lib.clone();
        for id in lib.ids() {
            assert!(std::ptr::eq(lib.get(id), copy.get(id)));
        }
        assert!(std::ptr::eq(
            lib.by_resistance_desc(),
            copy.by_resistance_desc()
        ));
        assert!(std::ptr::eq(
            lib.by_input_cap_asc(),
            copy.by_input_cap_asc()
        ));
        assert_eq!(lib, copy);
    }

    #[test]
    fn resistance_order_is_non_increasing() {
        for b in [1usize, 2, 8, 64] {
            let lib = BufferLibrary::paper_synthetic(b).unwrap();
            let rs: Vec<f64> = lib
                .by_resistance_desc()
                .iter()
                .map(|&id| lib.get(id).driving_resistance().value())
                .collect();
            assert!(rs.windows(2).all(|w| w[0] >= w[1]), "b={b}: {rs:?}");
        }
    }

    #[test]
    fn cap_order_is_non_decreasing() {
        let lib = BufferLibrary::paper_synthetic_jittered(16, 42).unwrap();
        let cs: Vec<f64> = lib
            .by_input_cap_asc()
            .iter()
            .map(|&id| lib.get(id).input_capacitance().value())
            .collect();
        assert!(cs.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn single_buffer_library() {
        let lib = BufferLibrary::paper_synthetic(1).unwrap();
        assert_eq!(lib.len(), 1);
        // With b == 1 the generator emits the strongest corner.
        assert!((lib.get(BufferTypeId::new(0)).input_capacitance().femtos() - 23.0).abs() < 1e-9);
    }

    #[test]
    fn empty_library_errors_but_empty_ctor_works() {
        assert_eq!(BufferLibrary::new(vec![]), Err(LibraryError::Empty));
        assert_eq!(BufferLibrary::paper_synthetic(0), Err(LibraryError::Empty));
        let e = BufferLibrary::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn duplicate_names_rejected() {
        let b = BufferType::new(
            "same",
            Ohms::new(100.0),
            Farads::from_femto(1.0),
            Seconds::ZERO,
        );
        let err = BufferLibrary::new(vec![b.clone(), b]).unwrap_err();
        assert_eq!(
            err,
            LibraryError::DuplicateName {
                index: 1,
                name: "same".into()
            }
        );
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mk = |r: f64, c: f64, k: f64| {
            BufferLibrary::new(vec![BufferType::new(
                "x",
                Ohms::new(r),
                Farads::new(c),
                Seconds::new(k),
            )])
        };
        assert!(matches!(
            mk(0.0, 1e-15, 0.0),
            Err(LibraryError::NonPositiveResistance { .. })
        ));
        assert!(matches!(
            mk(-5.0, 1e-15, 0.0),
            Err(LibraryError::NonPositiveResistance { .. })
        ));
        assert!(matches!(
            mk(100.0, -1e-15, 0.0),
            Err(LibraryError::NegativeCapacitance { .. })
        ));
        assert!(matches!(
            mk(100.0, 1e-15, -1e-12),
            Err(LibraryError::NegativeIntrinsicDelay { .. })
        ));
        assert!(matches!(
            mk(f64::INFINITY, 1e-15, 0.0),
            Err(LibraryError::NonFiniteParameter {
                field: "resistance",
                ..
            })
        ));
    }

    #[test]
    fn invalid_cost_rejected() {
        let b = BufferType::new(
            "x",
            Ohms::new(100.0),
            Farads::from_femto(1.0),
            Seconds::ZERO,
        )
        .with_cost(-1.0);
        assert!(matches!(
            BufferLibrary::new(vec![b]),
            Err(LibraryError::InvalidCost { .. })
        ));
    }

    #[test]
    fn find_by_name_and_subset() {
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        let id = lib.find("buf3").unwrap();
        assert_eq!(id.index(), 3);
        assert!(lib.find("nope").is_none());

        let sub = lib
            .subset(&[BufferTypeId::new(0), BufferTypeId::new(7)])
            .unwrap();
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.get(BufferTypeId::new(1)).name(), "buf7");
        assert!(sub.subset(&[]).is_err());
    }

    #[test]
    fn text_roundtrip() {
        let lib = BufferLibrary::paper_synthetic_jittered(6, 7).unwrap();
        let text = lib.to_text();
        let back = BufferLibrary::from_text(&text).unwrap();
        assert_eq!(back.len(), lib.len());
        for (a, b) in lib.iter().zip(back.iter()) {
            assert_eq!(a.1.name(), b.1.name());
            assert!(
                (a.1.driving_resistance().value() - b.1.driving_resistance().value()).abs()
                    < 1e-9 * a.1.driving_resistance().value().abs()
            );
        }
    }

    /// Every field of every type, as bits.
    fn library_bits(lib: &BufferLibrary) -> Vec<(String, [u64; 6], bool)> {
        lib.iter()
            .map(|(_, b)| {
                (
                    b.name().to_owned(),
                    [
                        b.driving_resistance().value().to_bits(),
                        b.input_capacitance().value().to_bits(),
                        b.intrinsic_delay().value().to_bits(),
                        b.cost().to_bits(),
                        b.max_load().map_or(0, |m| m.value().to_bits()),
                        b.output_slew().value().to_bits(),
                    ],
                    b.is_inverting(),
                )
            })
            .collect()
    }

    #[test]
    fn text_roundtrip_is_bit_exact_for_synthetic_libraries() {
        for lib in [
            BufferLibrary::paper_synthetic(64).unwrap(),
            BufferLibrary::paper_synthetic_mixed(8).unwrap(),
            BufferLibrary::paper_synthetic_jittered(16, 3).unwrap(),
        ] {
            let text = lib.to_text();
            let back = BufferLibrary::from_text(&text).unwrap();
            assert_eq!(library_bits(&back), library_bits(&lib), "{text}");
        }
    }

    #[test]
    fn text_roundtrip_is_bit_exact_for_random_libraries() {
        let mut rng = SplitMix64::new(0x7e57);
        let (mut fields, mut si_fields) = (0usize, 0usize);
        for round in 0..200 {
            let types = 1 + (rng.next_u64() % 8) as usize;
            let buffers = (0..types)
                .map(|i| {
                    // Raw SI values (not built from a decimal), spanning
                    // several decades, so unit decimals that do not exist
                    // show up too.
                    let mut b = BufferType::new(
                        format!("b{round}_{i}"),
                        Ohms::new(10.0 + 1e4 * rng.next_f64()),
                        Farads::new(1e-16 * (1.0 + 500.0 * rng.next_f64())),
                        Seconds::new(1e-12 * (1.0 + 100.0 * rng.next_f64())),
                    )
                    .with_cost(if rng.next_u64().is_multiple_of(2) {
                        (rng.next_u64() % 20) as f64
                    } else {
                        10.0 * rng.next_f64()
                    });
                    if rng.next_u64().is_multiple_of(2) {
                        b = b.with_max_load(Farads::new(1e-14 * (1.0 + 100.0 * rng.next_f64())));
                    }
                    if rng.next_u64().is_multiple_of(2) {
                        b = b.with_output_slew(Seconds::new(1e-11 * rng.next_f64()));
                    }
                    b.with_inverting(rng.next_u64().is_multiple_of(3))
                })
                .collect();
            let lib = BufferLibrary::new(buffers).unwrap();
            let text = lib.to_text();
            let back = BufferLibrary::from_text(&text).unwrap();
            assert_eq!(library_bits(&back), library_bits(&lib), "{text}");
            for line in text.lines().skip(1) {
                for tok in line.split_whitespace().skip(2) {
                    if tok == "inv" {
                        continue;
                    }
                    fields += 1;
                    si_fields += usize::from(tok.ends_with('F') || tok.ends_with('s'));
                }
            }
        }
        // Most fields stay plain unit decimals; only the unreachable few
        // fall back to SI.
        assert!(
            si_fields > 0 && si_fields * 5 < fields,
            "{si_fields} of {fields}"
        );
    }

    #[test]
    fn text_roundtrip_with_max_load() {
        let lib = BufferLibrary::new(vec![BufferType::new(
            "b",
            Ohms::new(100.0),
            Farads::from_femto(2.0),
            Seconds::from_pico(10.0),
        )
        .with_max_load(Farads::from_femto(500.0))])
        .unwrap();
        let back = BufferLibrary::from_text(&lib.to_text()).unwrap();
        let ml = back.get(BufferTypeId::new(0)).max_load().unwrap();
        assert!((ml.femtos() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn text_roundtrip_with_output_slew() {
        let lib = BufferLibrary::new(vec![BufferType::new(
            "b",
            Ohms::new(100.0),
            Farads::from_femto(2.0),
            Seconds::from_pico(10.0),
        )
        .with_output_slew(Seconds::from_pico(15.0))
        .with_max_load(Farads::from_femto(300.0))])
        .unwrap();
        let text = lib.to_text();
        assert!(text.contains("slew=15"), "{text}");
        let back = BufferLibrary::from_text(&text).unwrap();
        let b = back.get(BufferTypeId::new(0));
        assert!((b.output_slew().picos() - 15.0).abs() < 1e-9);
        assert!((b.max_load().unwrap().femtos() - 300.0).abs() < 1e-9);
    }

    /// Regression (NaN ordering satellite): a NaN-producing degenerate
    /// library entry must be rejected at load time with an error — it must
    /// never reach the solvers' comparison-based orderings, which would
    /// panic (or silently misorder) on NaN keys.
    #[test]
    fn nan_entries_rejected_at_load() {
        for bad in [
            "b NaN 1 1 1",
            "b nan 1 1 1",
            "b 100 NaN 1 1",
            "b 100 1 NaN 1",
            "b 100 1 1 NaN",
            "b 100 1 1 1 NaN",
            "b 100 1 1 1 slew=NaN",
        ] {
            let err = BufferLibrary::from_text(bad).unwrap_err();
            assert_eq!(err.line, 1, "{bad}: {err}");
            assert!(err.message.contains("finite"), "{bad}: {err}");
        }
        assert!(BufferLibrary::from_text("b inf 1 1 1").is_err());
    }

    #[test]
    fn negative_output_slew_rejected() {
        let b = BufferType::new(
            "x",
            Ohms::new(100.0),
            Farads::from_femto(1.0),
            Seconds::ZERO,
        )
        .with_output_slew(Seconds::from_pico(-1.0));
        assert!(matches!(
            BufferLibrary::new(vec![b]),
            Err(LibraryError::NegativeOutputSlew { .. })
        ));
    }

    #[test]
    fn from_text_reports_bad_lines() {
        let err = BufferLibrary::from_text("b1 nan_is_fine_but_words_arent 1 1 1").unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 1: bad resistance `nan_is_fine_but_words_arent`"
        );
        let err = BufferLibrary::from_text("# x\nonlyname # no fields").unwrap_err();
        assert_eq!(err.to_string(), "line 2: missing resistance");
        let err = BufferLibrary::from_text("# empty\n\n").unwrap_err();
        assert_eq!(
            (err.line, err.message.as_str()),
            (0, "buffer library is empty")
        );
        // Inline comments: names are whitespace-free tokens, so `#` always
        // starts a comment.
        let lib = BufferLibrary::from_text("b 100 1 1 1 inv # strongest\n").unwrap();
        assert!(lib.get(BufferTypeId::new(0)).is_inverting());
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let a = BufferLibrary::paper_synthetic_jittered(8, 5).unwrap();
        let b = BufferLibrary::paper_synthetic_jittered(8, 5).unwrap();
        let c = BufferLibrary::paper_synthetic_jittered(8, 6).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn costs_grow_with_strength() {
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        let costs: Vec<f64> = lib.iter().map(|(_, b)| b.cost()).collect();
        assert!(costs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(costs[0], 1.0);
        assert!(*costs.last().unwrap() > 10.0);
    }
}
