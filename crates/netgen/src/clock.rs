//! Structured nets: H-trees and caterpillars.

use std::error::Error;
use std::fmt;

use fastbuf_buflib::units::{Farads, Microns, Ohms, Seconds};
use fastbuf_buflib::{Driver, Technology};
use fastbuf_rctree::{NodeId, RoutingTree, TreeBuilder, Wire};

/// A degenerate parameter in a structured-net spec, naming the offending
/// field. The panicking constructors ([`HTreeSpec::build`],
/// [`caterpillar_net`]) panic with this error's message; the `try_` forms
/// return it instead.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClockSpecError {
    /// The spec field that was rejected.
    pub field: &'static str,
    /// Why it was rejected.
    pub message: &'static str,
}

impl fmt::Display for ClockSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "`{}`: {}", self.field, self.message)
    }
}

impl Error for ClockSpecError {}

fn reject(field: &'static str, message: &'static str) -> ClockSpecError {
    ClockSpecError { field, message }
}

/// Specification of a symmetric H-tree (clock-distribution style).
///
/// `levels` H-recursions produce `4^levels` sinks at the leaf tips. Every
/// branch midpoint is an internal node; buffer sites are created by
/// segmenting at `site_pitch`.
#[derive(Clone, Debug, PartialEq)]
pub struct HTreeSpec {
    /// Number of H recursions (sinks = `4^levels`).
    pub levels: usize,
    /// Half-width of the top-level H.
    pub arm: Microns,
    /// Interconnect technology.
    pub tech: Technology,
    /// Driver resistance at the source (clock root).
    pub driver_resistance: Ohms,
    /// Leaf load capacitance.
    pub sink_capacitance: Farads,
    /// Required arrival time at every leaf.
    pub required_arrival: Seconds,
    /// Buffer-site pitch (`None` = no segmenting; only branch points are
    /// internal and none are sites).
    pub site_pitch: Option<Microns>,
}

impl Default for HTreeSpec {
    /// Three levels (64 sinks), 4 mm top arm, paper technology.
    fn default() -> Self {
        HTreeSpec {
            levels: 3,
            arm: Microns::new(4000.0),
            tech: Technology::tsmc180_like(),
            driver_resistance: Ohms::new(120.0),
            sink_capacitance: Farads::from_femto(15.0),
            required_arrival: Seconds::from_pico(1500.0),
            site_pitch: Some(Microns::new(250.0)),
        }
    }
}

impl HTreeSpec {
    /// Checks the spec for degenerate parameters: zero levels, a zero /
    /// negative / non-finite arm or segmenting pitch, a non-positive
    /// driver, or non-finite sink pin data. (A technology with *zero*
    /// per-micron parasitics is deliberately allowed — it builds ideal
    /// zero-RC wires, which the solvers treat as free and handle exactly.)
    ///
    /// # Errors
    ///
    /// [`ClockSpecError`] naming the first offending field.
    pub fn validate(&self) -> Result<(), ClockSpecError> {
        if self.levels == 0 {
            return Err(reject("levels", "an H-tree needs at least one level"));
        }
        if !self.arm.value().is_finite() || self.arm <= Microns::ZERO {
            return Err(reject(
                "arm",
                "arm length must be strictly positive and finite",
            ));
        }
        if !self.driver_resistance.value().is_finite() || self.driver_resistance <= Ohms::ZERO {
            return Err(reject(
                "driver_resistance",
                "driver resistance must be strictly positive and finite",
            ));
        }
        if !self.sink_capacitance.is_finite() || self.sink_capacitance < Farads::ZERO {
            return Err(reject(
                "sink_capacitance",
                "sink capacitance must be finite and non-negative",
            ));
        }
        if !self.required_arrival.value().is_finite() {
            return Err(reject(
                "required_arrival",
                "required arrival must be finite",
            ));
        }
        if let Some(pitch) = self.site_pitch {
            if !pitch.value().is_finite() || pitch <= Microns::ZERO {
                return Err(reject(
                    "site_pitch",
                    "segmenting pitch must be strictly positive and finite",
                ));
            }
        }
        Ok(())
    }

    /// Builds the H-tree, rejecting degenerate specs with a typed error.
    ///
    /// # Errors
    ///
    /// See [`HTreeSpec::validate`].
    pub fn try_build(&self) -> Result<RoutingTree, ClockSpecError> {
        self.validate()?;
        Ok(self.build_unchecked())
    }

    /// Builds the H-tree.
    ///
    /// # Panics
    ///
    /// Panics on any spec [`HTreeSpec::validate`] rejects (historically
    /// only `levels == 0`; zero or non-finite geometry now panics too
    /// instead of silently building a zero-wire tree).
    pub fn build(&self) -> RoutingTree {
        match self.try_build() {
            Ok(tree) => tree,
            Err(e) => panic!("{e}"),
        }
    }

    fn build_unchecked(&self) -> RoutingTree {
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(self.driver_resistance));
        let root_len = self.arm;
        self.recurse(&mut b, src, self.levels, root_len);
        match self.site_pitch {
            None => b.build().expect("H-tree is structurally valid"),
            Some(pitch) => {
                b.build_segmented_by_pitch(pitch)
                    .expect("H-tree is valid and its wires carry lengths")
                    .tree
            }
        }
    }

    /// Attaches one H below `parent`: two horizontal arms to branch points,
    /// each splitting vertically into two tips (4 tips per H). Tips host
    /// sinks at the last level and sub-Hs otherwise.
    fn recurse(&self, b: &mut TreeBuilder, parent: NodeId, level: usize, arm: Microns) {
        for _side in 0..2 {
            let branch = b.internal();
            b.connect(parent, branch, Wire::from_length(&self.tech, arm))
                .expect("fresh branch");
            for _tip in 0..2 {
                let tip_wire = Wire::from_length(&self.tech, arm / 2.0);
                if level == 1 {
                    let sink = b.sink(self.sink_capacitance, self.required_arrival);
                    b.connect(branch, sink, tip_wire).expect("fresh sink");
                } else {
                    let tip = b.internal();
                    b.connect(branch, tip, tip_wire).expect("fresh tip");
                    self.recurse(b, tip, level - 1, arm / 2.0);
                }
            }
        }
    }
}

/// Builds a symmetric H-tree with `levels` recursions (`4^levels` sinks)
/// and otherwise default parameters.
///
/// # Example
///
/// ```
/// use fastbuf_netgen::h_tree;
///
/// let t = h_tree(2);
/// assert_eq!(t.sink_count(), 16);
/// ```
pub fn h_tree(levels: usize) -> RoutingTree {
    HTreeSpec {
        levels,
        ..HTreeSpec::default()
    }
    .build()
}

/// Builds a caterpillar: a trunk of `sinks` equally spaced taps, each with a
/// short stub to one sink — the shape of a bus tapping many receivers.
/// Buffer sites sit at every tap and every `pitch` along the trunk.
///
/// # Example
///
/// ```
/// use fastbuf_buflib::units::Microns;
/// use fastbuf_netgen::caterpillar_net;
///
/// let t = caterpillar_net(16, Microns::new(500.0), Microns::new(50.0));
/// assert_eq!(t.sink_count(), 16);
/// ```
///
/// # Panics
///
/// Panics on the specs [`try_caterpillar_net`] rejects (historically only
/// `sinks == 0`; negative or non-finite geometry now panics too).
pub fn caterpillar_net(sinks: usize, spacing: Microns, stub: Microns) -> RoutingTree {
    match try_caterpillar_net(sinks, spacing, stub) {
        Ok(tree) => tree,
        Err(e) => panic!("{e}"),
    }
}

/// [`caterpillar_net`] with typed rejection of degenerate parameters:
/// `sinks == 0`, or negative / non-finite spacing or stub length. *Zero*
/// spacing or stub is normalized, not rejected — it builds legal zero-RC
/// wires (all taps electrically coincident), a shape the solvers handle
/// exactly and `tests/degenerate_nets.rs` pins.
///
/// # Errors
///
/// [`ClockSpecError`] naming the first offending parameter.
pub fn try_caterpillar_net(
    sinks: usize,
    spacing: Microns,
    stub: Microns,
) -> Result<RoutingTree, ClockSpecError> {
    if sinks == 0 {
        return Err(reject("sinks", "a net needs at least one sink"));
    }
    if !spacing.value().is_finite() || spacing < Microns::ZERO {
        return Err(reject(
            "spacing",
            "tap spacing must be finite and non-negative",
        ));
    }
    if !stub.value().is_finite() || stub < Microns::ZERO {
        return Err(reject(
            "stub",
            "stub length must be finite and non-negative",
        ));
    }
    let tech = Technology::tsmc180_like();
    let mut b = TreeBuilder::new();
    let src = b.source(Driver::new(Ohms::new(180.0)));
    let mut prev = src;
    for i in 0..sinks {
        let tap = b.buffer_site();
        b.connect(prev, tap, Wire::from_length(&tech, spacing))
            .expect("fresh tap");
        let sink = b.sink(
            Farads::from_femto(4.0 + (i % 8) as f64 * 4.0),
            Seconds::from_pico(1000.0 + (i % 5) as f64 * 200.0),
        );
        b.connect(tap, sink, Wire::from_length(&tech, stub))
            .expect("fresh sink");
        prev = tap;
    }
    Ok(b.build().expect("caterpillar is structurally valid"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn h_tree_sink_count_is_power_of_four() {
        for levels in 1..=3 {
            let t = h_tree(levels);
            assert_eq!(t.sink_count(), 4usize.pow(levels as u32), "levels={levels}");
        }
    }

    #[test]
    fn h_tree_is_symmetric_in_depth() {
        let t = h_tree(2);
        // All sinks at identical depth.
        let stats = t.stats();
        let mut depths = std::collections::HashSet::new();
        for s in t.sinks() {
            let mut d = 0;
            let mut cur = s;
            while let Some(p) = t.parent(cur) {
                d += 1;
                cur = p;
            }
            depths.insert(d);
        }
        assert_eq!(depths.len(), 1, "{stats}");
    }

    #[test]
    fn h_tree_segmenting_adds_sites() {
        let unsegmented = HTreeSpec {
            site_pitch: None,
            ..HTreeSpec::default()
        }
        .build();
        assert_eq!(unsegmented.buffer_site_count(), 0);
        let segmented = HTreeSpec::default().build();
        assert!(segmented.buffer_site_count() > 50);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn zero_levels_panics() {
        let _ = h_tree(0);
    }

    #[test]
    fn degenerate_h_tree_specs_fail_typed() {
        let err = HTreeSpec {
            levels: 0,
            ..HTreeSpec::default()
        }
        .try_build()
        .unwrap_err();
        assert_eq!(err.field, "levels");
        // NaN is unrepresentable in unit types (constructor asserts), so the
        // degenerate non-finite case a caller can actually hand us is infinity.
        for arm in [
            Microns::ZERO,
            Microns::new(-1.0),
            Microns::new(f64::INFINITY),
        ] {
            let err = HTreeSpec {
                arm,
                ..HTreeSpec::default()
            }
            .try_build()
            .unwrap_err();
            assert_eq!(err.field, "arm", "{err}");
        }
        let err = HTreeSpec {
            site_pitch: Some(Microns::ZERO),
            ..HTreeSpec::default()
        }
        .try_build()
        .unwrap_err();
        assert_eq!(err.field, "site_pitch");
        assert!(err.to_string().contains("site_pitch"), "{err}");
        let err = HTreeSpec {
            driver_resistance: Ohms::ZERO,
            ..HTreeSpec::default()
        }
        .try_build()
        .unwrap_err();
        assert_eq!(err.field, "driver_resistance");
        let err = HTreeSpec {
            sink_capacitance: Farads::new(f64::INFINITY),
            ..HTreeSpec::default()
        }
        .try_build()
        .unwrap_err();
        assert_eq!(err.field, "sink_capacitance");
        let err = HTreeSpec {
            required_arrival: Seconds::new(f64::NEG_INFINITY),
            ..HTreeSpec::default()
        }
        .try_build()
        .unwrap_err();
        assert_eq!(err.field, "required_arrival");
        // The happy path still builds.
        assert_eq!(HTreeSpec::default().try_build().unwrap().sink_count(), 64);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_arm_panics_instead_of_building_a_zero_wire_tree() {
        let _ = HTreeSpec {
            arm: Microns::ZERO,
            ..HTreeSpec::default()
        }
        .build();
    }

    #[test]
    fn degenerate_caterpillars_normalize_or_fail_typed() {
        let err = try_caterpillar_net(0, Microns::new(100.0), Microns::new(10.0)).unwrap_err();
        assert_eq!(err.field, "sinks");
        let err = try_caterpillar_net(4, Microns::new(-1.0), Microns::new(10.0)).unwrap_err();
        assert_eq!(err.field, "spacing");
        let err =
            try_caterpillar_net(4, Microns::new(100.0), Microns::new(f64::INFINITY)).unwrap_err();
        assert_eq!(err.field, "stub");
        // Normalized survivors: single sink, and zero-length wires.
        let single = try_caterpillar_net(1, Microns::new(100.0), Microns::new(10.0)).unwrap();
        assert_eq!(single.sink_count(), 1);
        let zero = try_caterpillar_net(3, Microns::ZERO, Microns::ZERO).unwrap();
        assert_eq!(zero.sink_count(), 3);
        assert_eq!(zero.stats().total_length, Some(Microns::ZERO));
    }

    #[test]
    fn caterpillar_shape() {
        let t = caterpillar_net(10, Microns::new(300.0), Microns::new(30.0));
        assert_eq!(t.sink_count(), 10);
        assert_eq!(t.buffer_site_count(), 10);
        assert_eq!(t.stats().max_depth, 11); // trunk depth 10 + stub
    }

    #[test]
    fn caterpillar_parameters_vary_by_position() {
        let t = caterpillar_net(9, Microns::new(100.0), Microns::new(10.0));
        let caps: std::collections::HashSet<u64> = t
            .sinks()
            .map(|s| match t.kind(s) {
                fastbuf_rctree::NodeKind::Sink { capacitance, .. } => {
                    (capacitance.femtos() * 1000.0) as u64
                }
                _ => unreachable!(),
            })
            .collect();
        assert!(caps.len() > 4, "sink loads should vary: {caps:?}");
    }
}
