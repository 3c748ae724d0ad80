//! Clock-tree synthesis inputs: 2-D sink placements and
//! recursive-bipartition topology generation.
//!
//! Classic CTS separates *topology generation* (where do the merge points
//! go) from *buffering* (what drives each stage). This module covers the
//! first half: a seeded placement generator, a line-oriented placement text
//! format, and a deterministic recursive-bipartition (DME-style) topology
//! builder whose merge taps become buffer sites. The second half — skew-
//! aware buffering — is `fastbuf_core::skew` driven through
//! `Objective::SkewTarget` or `fastbuf cts`.
//!
//! The bipartition is the standard one: split the sink set at the median of
//! the longer bounding-box dimension, place each half's tap at its bounding-
//! box center, wire taps with Manhattan lengths, and recurse until single
//! sinks remain. Everything is deterministic: ties in the median sort break
//! on the other coordinate and then the input index.

use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastbuf_buflib::text::{self, femto_field, pico_field};
use fastbuf_buflib::units::{Farads, Microns, Ohms, Seconds};
use fastbuf_buflib::{Driver, Technology};
use fastbuf_rctree::{NodeId, RoutingTree, TreeBuilder, Wire};

use crate::LineError;

/// One clock sink: a 2-D position plus its electrical pin data.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SinkPlacement {
    /// X coordinate on the die.
    pub x: Microns,
    /// Y coordinate on the die.
    pub y: Microns,
    /// Pin load capacitance.
    pub capacitance: Farads,
    /// Required arrival time.
    pub required_arrival: Seconds,
}

impl SinkPlacement {
    /// `true` when every field is finite and loads are non-negative.
    pub fn is_valid(&self) -> bool {
        self.x.value().is_finite()
            && self.y.value().is_finite()
            && self.capacitance.is_finite()
            && self.capacitance >= Farads::ZERO
            && self.required_arrival.value().is_finite()
    }
}

/// Seeded generator of uniform-random sink placements on a square die.
#[derive(Clone, Debug, PartialEq)]
pub struct CtsPlacementSpec {
    /// Number of sinks.
    pub sinks: usize,
    /// Side of the square die.
    pub die: Microns,
    /// Smallest sink load.
    pub sink_cap_min: Farads,
    /// Largest sink load.
    pub sink_cap_max: Farads,
    /// Required arrival at every sink (clocks share one period edge).
    pub required_arrival: Seconds,
    /// PRNG seed; the same spec always generates the same placements.
    pub seed: u64,
}

impl Default for CtsPlacementSpec {
    /// 64 sinks on a 6 mm die, 8–25 fF flop clock pins, 2 ns edge.
    fn default() -> Self {
        CtsPlacementSpec {
            sinks: 64,
            die: Microns::new(6000.0),
            sink_cap_min: Farads::from_femto(8.0),
            sink_cap_max: Farads::from_femto(25.0),
            required_arrival: Seconds::from_pico(2000.0),
            seed: 1,
        }
    }
}

impl CtsPlacementSpec {
    /// Generates the placements.
    ///
    /// # Panics
    ///
    /// Panics if `sinks == 0` or the die is not strictly positive.
    pub fn generate(&self) -> Vec<SinkPlacement> {
        assert!(self.sinks > 0, "a placement needs at least one sink");
        assert!(self.die > Microns::ZERO, "die must be strictly positive");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let die = self.die.value();
        let (lo, hi) = (self.sink_cap_min.femtos(), self.sink_cap_max.femtos());
        (0..self.sinks)
            .map(|_| {
                let x: f64 = rng.gen_range(0.0..die);
                let y: f64 = rng.gen_range(0.0..die);
                let cap = if hi > lo { rng.gen_range(lo..hi) } else { lo };
                SinkPlacement {
                    x: Microns::new(x),
                    y: Microns::new(y),
                    capacitance: Farads::from_femto(cap),
                    required_arrival: self.required_arrival,
                }
            })
            .collect()
    }
}

/// Serializes placements to the text format [`parse_placements`] reads.
pub fn write_placements(placements: &[SinkPlacement]) -> String {
    let mut out = String::from("# fastbuf sink placements: sink <x_um> <y_um> <cap_ff> <rat_ps>\n");
    for p in placements {
        out.push_str(&format!(
            "sink {} {} {} {}\n",
            p.x.value(),
            p.y.value(),
            femto_field(p.capacitance),
            pico_field(p.required_arrival)
        ));
    }
    out
}

/// Parses the line-oriented placement format: `#` comments and blank lines
/// are skipped; every other line is `sink <x_um> <y_um> <cap_ff> <rat_ps>`.
/// The capacitance and RAT may also be exact SI values (`…F`, `…s`), which
/// [`write_placements`] uses where no fF or ps decimal reads back bit for
/// bit.
///
/// # Errors
///
/// A [`LineError`] naming the 1-based line of the first problem, or line 0
/// for a file without any sink.
pub fn parse_placements(text: &str) -> Result<Vec<SinkPlacement>, LineError> {
    let mut out = Vec::new();
    for mut fields in text::lines(text) {
        let key = fields.word("directive")?;
        if key != "sink" {
            return Err(fields.error(format!("unknown directive `{key}` (expected `sink`)")));
        }
        let placement = SinkPlacement {
            x: Microns::new(fields.finite("`x_um`")?),
            y: Microns::new(fields.finite("`y_um`")?),
            capacitance: fields.femtos("`cap_ff`")?,
            required_arrival: fields.picos("`rat_ps`")?,
        };
        fields.end()?;
        if placement.capacitance < Farads::ZERO {
            return Err(fields.error("the capacitance must be non-negative"));
        }
        out.push(placement);
    }
    if out.is_empty() {
        return Err(LineError::at(0, "no sinks in placement file"));
    }
    Ok(out)
}

/// Parameters of the recursive-bipartition topology builder.
#[derive(Clone, Debug, PartialEq)]
pub struct CtsTopologySpec {
    /// Interconnect technology for tap-to-tap wires.
    pub tech: Technology,
    /// Driver resistance at the clock root.
    pub driver_resistance: Ohms,
    /// Extra buffer sites every `site_pitch` of wire (`None` = only merge
    /// taps are sites).
    pub site_pitch: Option<Microns>,
}

impl Default for CtsTopologySpec {
    fn default() -> Self {
        CtsTopologySpec {
            tech: Technology::tsmc180_like(),
            driver_resistance: Ohms::new(120.0),
            site_pitch: Some(Microns::new(400.0)),
        }
    }
}

/// A generated clock topology: the routing tree plus the sink node of each
/// input placement (same order as the input slice).
#[derive(Clone, Debug)]
pub struct CtsTopology {
    /// The buffered-solve-ready routing tree (merge taps are buffer sites).
    pub tree: RoutingTree,
    /// `sinks[i]` is the tree node of `placements[i]`. Node ids are stable
    /// under pitch segmenting, so these remain valid after it.
    pub sinks: Vec<NodeId>,
}

/// Why [`build_topology`] rejected its input.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum TopologyError {
    /// The placement set is empty.
    Empty,
    /// A placement has a non-finite field or a negative capacitance.
    InvalidSink {
        /// 1-based position of the placement in the input.
        position: usize,
    },
    /// The site pitch is not strictly positive and finite.
    InvalidPitch {
        /// The rejected pitch.
        pitch: Microns,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "placement set is empty"),
            TopologyError::InvalidSink { position } => write!(
                f,
                "sink {position}: fields must be finite and the capacitance non-negative"
            ),
            TopologyError::InvalidPitch { .. } => {
                write!(f, "site pitch must be strictly positive and finite")
            }
        }
    }
}

impl Error for TopologyError {}

impl From<TopologyError> for String {
    fn from(e: TopologyError) -> String {
        e.to_string()
    }
}

/// Builds a recursive-bipartition topology over `placements`.
///
/// # Errors
///
/// [`TopologyError`] naming the first invalid placement (by 1-based
/// position), the empty set, or the invalid pitch.
pub fn build_topology(
    placements: &[SinkPlacement],
    spec: &CtsTopologySpec,
) -> Result<CtsTopology, TopologyError> {
    if placements.is_empty() {
        return Err(TopologyError::Empty);
    }
    if let Some(i) = placements.iter().position(|p| !p.is_valid()) {
        return Err(TopologyError::InvalidSink { position: i + 1 });
    }
    if let Some(pitch) = spec.site_pitch {
        if pitch.value() <= 0.0 || !pitch.value().is_finite() {
            return Err(TopologyError::InvalidPitch { pitch });
        }
    }

    // The source, every sink, and two taps per split of a set in two.
    let mut b = TreeBuilder::with_capacity(3 * placements.len() - 1);
    let src = b.source(Driver::new(spec.driver_resistance));
    let mut idxs: Vec<usize> = (0..placements.len()).collect();
    let root_pt = bbox_center(placements, &idxs);
    let mut sinks = vec![NodeId::new(0); placements.len()];
    split(
        &mut b, placements, &mut idxs, src, root_pt, &spec.tech, &mut sinks,
    );
    let tree = match spec.site_pitch {
        None => b.build().expect("bipartition tree is structurally valid"),
        Some(pitch) => {
            b.build_segmented_by_pitch(pitch)
                .expect("bipartition tree is valid and its wires carry lengths")
                .tree
        }
    };
    Ok(CtsTopology { tree, sinks })
}

/// Bounding-box center of the indexed placements.
fn bbox_center(placements: &[SinkPlacement], idxs: &[usize]) -> (f64, f64) {
    let (mut min_x, mut max_x) = (f64::MAX, f64::MIN);
    let (mut min_y, mut max_y) = (f64::MAX, f64::MIN);
    for &i in idxs {
        let (x, y) = (placements[i].x.value(), placements[i].y.value());
        min_x = min_x.min(x);
        max_x = max_x.max(x);
        min_y = min_y.min(y);
        max_y = max_y.max(y);
    }
    ((min_x + max_x) / 2.0, (min_y + max_y) / 2.0)
}

/// Attaches the subtree over `idxs` below `parent` (whose tap sits at
/// `parent_pt`). Single sinks connect directly; larger sets split at the
/// median of the longer bounding-box dimension, each half getting a
/// buffer-site tap at its own bounding-box center.
fn split(
    b: &mut TreeBuilder,
    placements: &[SinkPlacement],
    idxs: &mut [usize],
    parent: NodeId,
    parent_pt: (f64, f64),
    tech: &Technology,
    sinks: &mut [NodeId],
) {
    if let [only] = *idxs {
        let p = &placements[only];
        let sink = b.sink(p.capacitance, p.required_arrival);
        let len = manhattan(parent_pt, (p.x.value(), p.y.value()));
        b.connect(parent, sink, Wire::from_length(tech, Microns::new(len)))
            .expect("fresh sink");
        sinks[only] = sink;
        return;
    }
    // Median split on the longer bounding-box dimension; deterministic
    // tie-breaks (other coordinate, then input index). The input index
    // makes the order total, so an unstable sort gives the stable order.
    let (min_x, max_x) = min_max(idxs.iter().map(|&i| placements[i].x.value()));
    let (min_y, max_y) = min_max(idxs.iter().map(|&i| placements[i].y.value()));
    let split_x = max_x - min_x >= max_y - min_y;
    idxs.sort_unstable_by(|&a, &b| {
        let (pa, pb) = (&placements[a], &placements[b]);
        let (ka, kb) = if split_x {
            ((pa.x, pa.y), (pb.x, pb.y))
        } else {
            ((pa.y, pa.x), (pb.y, pb.x))
        };
        ka.0.value()
            .total_cmp(&kb.0.value())
            .then(ka.1.value().total_cmp(&kb.1.value()))
            .then(a.cmp(&b))
    });
    let mid = idxs.len() / 2;
    let (left, right) = idxs.split_at_mut(mid);
    for half in [left, right] {
        let pt = bbox_center(placements, half);
        let tap = b.buffer_site();
        let len = manhattan(parent_pt, pt);
        b.connect(parent, tap, Wire::from_length(tech, Microns::new(len)))
            .expect("fresh tap");
        split(b, placements, half, tap, pt, tech, sinks);
    }
}

fn manhattan(a: (f64, f64), b: (f64, f64)) -> f64 {
    (a.0 - b.0).abs() + (a.1 - b.1).abs()
}

fn min_max(vals: impl Iterator<Item = f64>) -> (f64, f64) {
    vals.fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_is_deterministic_and_in_bounds() {
        let spec = CtsPlacementSpec::default();
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        for p in &a {
            assert!(p.x >= Microns::ZERO && p.x <= spec.die);
            assert!(p.y >= Microns::ZERO && p.y <= spec.die);
            assert!(p.capacitance >= spec.sink_cap_min);
            assert!(p.capacitance <= spec.sink_cap_max);
        }
        let c = CtsPlacementSpec {
            seed: 2,
            ..CtsPlacementSpec::default()
        }
        .generate();
        assert_ne!(a, c, "different seeds give different placements");
    }

    #[test]
    fn placement_text_round_trips() {
        let placements = CtsPlacementSpec {
            sinks: 10,
            ..CtsPlacementSpec::default()
        }
        .generate();
        let text = write_placements(&placements);
        let back = parse_placements(&text).unwrap();
        assert_eq!(format!("{back:?}"), format!("{placements:?}"));
    }

    #[test]
    fn parse_rejects_bad_lines_with_line_numbers() {
        for (text, line, needle) in [
            ("flop 1 2 3 4\n", 1, "unknown directive `flop`"),
            ("# header\nsink 1 2 3\n", 2, "missing `rat_ps`"),
            ("sink 0 0 10 1000\nsink nan 0 10 1000\n", 2, "finite"),
            ("sink 1 2 3 4\n\nsink 1 2 x 4\n", 3, "bad `cap_ff` `x`"),
            ("sink 1 2 3 4 5\n", 1, "trailing"),
            ("# only comments\n\n", 0, "no sinks in placement file"),
        ] {
            let err = parse_placements(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(err.message.contains(needle), "{text:?}: {err}");
        }
        // A whole-file error prints without a line prefix.
        assert_eq!(
            parse_placements("").unwrap_err().to_string(),
            "no sinks in placement file"
        );
        assert_eq!(
            parse_placements("flop 1 2 3 4").unwrap_err().to_string(),
            "line 1: unknown directive `flop` (expected `sink`)"
        );
    }

    #[test]
    fn topology_covers_every_sink_once() {
        let placements = CtsPlacementSpec::default().generate();
        let topo = build_topology(&placements, &CtsTopologySpec::default()).unwrap();
        assert_eq!(topo.tree.sink_count(), 64);
        assert_eq!(topo.sinks.len(), 64);
        // Every recorded sink node is a sink with the matching pin data.
        for (p, &n) in placements.iter().zip(&topo.sinks) {
            match topo.tree.kind(n) {
                fastbuf_rctree::NodeKind::Sink { capacitance, .. } => {
                    assert!((capacitance.femtos() - p.capacitance.femtos()).abs() < 1e-9);
                }
                other => panic!("expected sink, got {other:?}"),
            }
        }
        // Merge taps became buffer sites; segmenting added more.
        assert!(topo.tree.buffer_site_count() > 63);
    }

    #[test]
    fn topology_is_deterministic() {
        let placements = CtsPlacementSpec::default().generate();
        let a = build_topology(&placements, &CtsTopologySpec::default()).unwrap();
        let b = build_topology(&placements, &CtsTopologySpec::default()).unwrap();
        assert_eq!(a.tree.node_count(), b.tree.node_count());
        assert_eq!(a.sinks, b.sinks);
    }

    #[test]
    fn topology_is_balanced() {
        // 2^k co-located... rather, uniform sinks: depth stays logarithmic,
        // not linear — the signature of bipartition vs chain topologies.
        let placements = CtsPlacementSpec {
            sinks: 128,
            ..CtsPlacementSpec::default()
        }
        .generate();
        let topo = build_topology(
            &placements,
            &CtsTopologySpec {
                site_pitch: None,
                ..CtsTopologySpec::default()
            },
        )
        .unwrap();
        // Unsegmented: max depth = bipartition levels + 1 ≈ log2(128) + 1.
        assert!(topo.tree.stats().max_depth <= 10, "{}", topo.tree.stats());
    }

    #[test]
    fn degenerate_topologies_build_or_fail_typed() {
        // Single sink: source connects straight to it.
        let one = [SinkPlacement {
            x: Microns::new(100.0),
            y: Microns::new(50.0),
            capacitance: Farads::from_femto(10.0),
            required_arrival: Seconds::from_pico(1000.0),
        }];
        let topo = build_topology(&one, &CtsTopologySpec::default()).unwrap();
        assert_eq!(topo.tree.sink_count(), 1);

        // Coincident sinks: zero-length tap wires are fine.
        let twin = [one[0], one[0]];
        let topo = build_topology(&twin, &CtsTopologySpec::default()).unwrap();
        assert_eq!(topo.tree.sink_count(), 2);

        // Empty and invalid inputs fail with typed errors, not panics.
        let err = build_topology(&[], &CtsTopologySpec::default()).unwrap_err();
        assert_eq!(err, TopologyError::Empty);
        assert_eq!(String::from(err), "placement set is empty");
        // NaN cannot be represented inside a unit type (constructor asserts),
        // so the worst representable coordinate is an infinity.
        let bad = [SinkPlacement {
            x: Microns::new(f64::INFINITY),
            ..one[0]
        }];
        assert_eq!(
            build_topology(&bad, &CtsTopologySpec::default()).unwrap_err(),
            TopologyError::InvalidSink { position: 1 }
        );
        let bad_pitch = CtsTopologySpec {
            site_pitch: Some(Microns::ZERO),
            ..CtsTopologySpec::default()
        };
        assert_eq!(
            build_topology(&one, &bad_pitch).unwrap_err(),
            TopologyError::InvalidPitch {
                pitch: Microns::ZERO
            }
        );
    }
}
