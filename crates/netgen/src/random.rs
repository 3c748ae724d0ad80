//! Random geometric Steiner-style nets at the paper's scales.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastbuf_buflib::units::{Farads, Microns, Ohms, Seconds};
use fastbuf_buflib::{Driver, Technology};
use fastbuf_rctree::{RoutingTree, TreeBuilder, Wire};

/// How sink required arrival times are assigned.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RatPolicy {
    /// Every sink gets the same required arrival time.
    Constant(Seconds),
    /// Uniformly random in `[min, max]` (seeded, deterministic).
    Range {
        /// Smallest possible RAT.
        min: Seconds,
        /// Largest possible RAT.
        max: Seconds,
    },
}

/// Specification of a random geometric net.
///
/// Sinks are placed uniformly in a square die; the topology is a
/// nearest-neighbour insertion tree (each sink's tap connects to the closest
/// already-routed tap, wire length = Manhattan distance — a standard
/// Steiner-tree surrogate). Long wires are then segmented at
/// [`RandomNetSpec::site_pitch`] to create candidate buffer positions, which
/// is exactly how the paper's Figure 4 scales `n` on a fixed net.
///
/// [`RandomNetSpec::paper`] presets the three evaluation nets (337, 1944,
/// 2676 sinks) with the published sink-capacitance range (2–41 fF) and
/// technology constants, and a pitch calibrated to land near the published
/// position count (33133 positions on the 1944-sink net).
#[derive(Clone, Debug, PartialEq)]
pub struct RandomNetSpec {
    /// Number of sinks (the paper's `m`).
    pub sinks: usize,
    /// Side of the square die the sinks are scattered over.
    pub die: Microns,
    /// Interconnect technology.
    pub tech: Technology,
    /// Driver resistance at the source.
    pub driver_resistance: Ohms,
    /// Smallest sink load (paper: 2 fF).
    pub sink_cap_min: Farads,
    /// Largest sink load (paper: 41 fF).
    pub sink_cap_max: Farads,
    /// Required-arrival-time policy.
    pub rat: RatPolicy,
    /// Buffer sites are created every `site_pitch` of wire (`None` = only
    /// tap points are sites, no segmenting).
    pub site_pitch: Option<Microns>,
    /// PRNG seed; the same spec always builds the same net.
    pub seed: u64,
}

impl Default for RandomNetSpec {
    fn default() -> Self {
        RandomNetSpec {
            sinks: 64,
            die: Microns::new(2000.0),
            tech: Technology::tsmc180_like(),
            driver_resistance: Ohms::new(180.0),
            sink_cap_min: Farads::from_femto(2.0),
            sink_cap_max: Farads::from_femto(41.0),
            rat: RatPolicy::Range {
                min: Seconds::from_pico(800.0),
                max: Seconds::from_pico(2400.0),
            },
            site_pitch: Some(Microns::new(200.0)),
            seed: 1,
        }
    }
}

impl RandomNetSpec {
    /// The paper's evaluation nets: `m ∈ {337, 1944, 2676}` sinks (any
    /// other count is accepted and scaled accordingly). Die area grows with
    /// `√m`; the segmenting pitch is calibrated so the 1944-sink net gets
    /// ≈ 33k buffer positions as in the paper.
    pub fn paper(sinks: usize) -> Self {
        let scale = (sinks as f64 / 1944.0).sqrt();
        RandomNetSpec {
            sinks,
            die: Microns::new(8000.0 * scale),
            site_pitch: Some(Microns::new(16.0)),
            rat: RatPolicy::Range {
                min: Seconds::from_pico(1500.0),
                max: Seconds::from_pico(4000.0),
            },
            seed: sinks as u64, // distinct but reproducible per size
            ..RandomNetSpec::default()
        }
    }

    /// Re-targets [`RandomNetSpec::site_pitch`] so the built net has
    /// approximately `positions` buffer sites (used by the Figure 4 sweep).
    /// The calibration builds the unsegmented topology once to measure the
    /// total wirelength.
    #[must_use]
    pub fn with_target_positions(mut self, positions: usize) -> Self {
        let mut probe = self.clone();
        probe.site_pitch = None;
        let base = probe.build();
        let stats = base.stats();
        let total = stats.total_length.expect("generated wires carry lengths");
        let taps = stats.buffer_sites; // tap points are sites already
        let remaining = positions.saturating_sub(taps).max(1);
        self.site_pitch = Some(Microns::new(total.value() / remaining as f64));
        self
    }

    /// Builds the routing tree.
    ///
    /// # Panics
    ///
    /// Panics if `sinks == 0` or the die is not strictly positive.
    pub fn build(&self) -> RoutingTree {
        assert!(self.sinks > 0, "a net needs at least one sink");
        assert!(self.die > Microns::ZERO, "die must be strictly positive");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let die = self.die.value();
        // Every sink adds a tap and the sink itself.
        let mut b = TreeBuilder::with_capacity(1 + 2 * self.sinks);
        let src = b.source(Driver::new(self.driver_resistance));

        // Tap points already routed, as columns: position and node. The
        // source sits at the die center-left edge (a typical block pin).
        let mut xs = Vec::with_capacity(1 + self.sinks);
        let mut ys = Vec::with_capacity(1 + self.sinks);
        let mut taps = Vec::with_capacity(1 + self.sinks);
        xs.push(0.0f64);
        ys.push(die / 2.0);
        taps.push(src);

        for _ in 0..self.sinks {
            let x: f64 = rng.gen_range(0.0..die);
            let y: f64 = rng.gen_range(0.0..die);
            // Nearest already-routed tap by Manhattan distance, the first
            // one on a tie. Distances are non-negative and never NaN, so
            // `<` orders them as `total_cmp` would.
            let mut nearest = 0;
            let mut dist = f64::INFINITY;
            for (i, (&px, &py)) in xs.iter().zip(&ys).enumerate() {
                let d = (px - x).abs() + (py - y).abs();
                if d < dist {
                    nearest = i;
                    dist = d;
                }
            }
            let tap = b.buffer_site();
            b.connect(
                taps[nearest],
                tap,
                Wire::from_length(&self.tech, Microns::new(dist.max(1.0))),
            )
            .expect("fresh tap");
            let cap =
                Farads::new(rng.gen_range(self.sink_cap_min.value()..=self.sink_cap_max.value()));
            let rat = match self.rat {
                RatPolicy::Constant(r) => r,
                RatPolicy::Range { min, max } => {
                    Seconds::new(rng.gen_range(min.value()..=max.value()))
                }
            };
            let sink = b.sink(cap, rat);
            // Short stub from tap to pin.
            b.connect(tap, sink, Wire::from_length(&self.tech, Microns::new(1.0)))
                .expect("fresh sink");
            xs.push(x);
            ys.push(y);
            taps.push(tap);
        }

        match self.site_pitch {
            None => b.build().expect("generated net is structurally valid"),
            Some(pitch) => {
                b.build_segmented_by_pitch(pitch)
                    .expect("generated net is valid and its wires carry lengths")
                    .tree
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = RandomNetSpec::default().build();
        let b = RandomNetSpec::default().build();
        assert_eq!(fastbuf_rctree::io::write(&a), fastbuf_rctree::io::write(&b));

        let c = RandomNetSpec {
            seed: 99,
            ..RandomNetSpec::default()
        }
        .build();
        assert_ne!(fastbuf_rctree::io::write(&a), fastbuf_rctree::io::write(&c));
    }

    #[test]
    fn sink_count_and_parameter_ranges() {
        let spec = RandomNetSpec::default();
        let t = spec.build();
        assert_eq!(t.sink_count(), spec.sinks);
        for s in t.sinks() {
            match t.kind(s) {
                fastbuf_rctree::NodeKind::Sink {
                    capacitance,
                    required_arrival,
                } => {
                    assert!(*capacitance >= spec.sink_cap_min);
                    assert!(*capacitance <= spec.sink_cap_max);
                    match spec.rat {
                        RatPolicy::Range { min, max } => {
                            assert!(*required_arrival >= min && *required_arrival <= max);
                        }
                        RatPolicy::Constant(_) => unreachable!(),
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn constant_rat_policy() {
        let spec = RandomNetSpec {
            rat: RatPolicy::Constant(Seconds::from_pico(1234.0)),
            sinks: 10,
            ..RandomNetSpec::default()
        };
        let t = spec.build();
        for s in t.sinks() {
            match t.kind(s) {
                fastbuf_rctree::NodeKind::Sink {
                    required_arrival, ..
                } => assert_eq!(*required_arrival, Seconds::from_pico(1234.0)),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn pitch_none_keeps_only_taps() {
        let spec = RandomNetSpec {
            site_pitch: None,
            sinks: 20,
            ..RandomNetSpec::default()
        };
        let t = spec.build();
        // One tap per sink, nothing else.
        assert_eq!(t.buffer_site_count(), 20);
    }

    #[test]
    fn smaller_pitch_means_more_sites() {
        let coarse = RandomNetSpec {
            site_pitch: Some(Microns::new(400.0)),
            ..RandomNetSpec::default()
        }
        .build();
        let fine = RandomNetSpec {
            site_pitch: Some(Microns::new(100.0)),
            ..RandomNetSpec::default()
        }
        .build();
        assert!(fine.buffer_site_count() > coarse.buffer_site_count());
    }

    #[test]
    fn target_positions_lands_close() {
        for target in [500usize, 2000] {
            let t = RandomNetSpec {
                sinks: 100,
                ..RandomNetSpec::default()
            }
            .with_target_positions(target)
            .build();
            let got = t.buffer_site_count();
            let err = (got as f64 - target as f64).abs() / target as f64;
            assert!(err < 0.25, "target {target}, got {got}");
        }
    }

    #[test]
    fn paper_presets_have_paper_stats() {
        let t = RandomNetSpec::paper(337).build();
        assert_eq!(t.sink_count(), 337);
        let stats = t.stats();
        assert!(stats.buffer_sites > 2000, "{stats}");
        // All leaves are sinks (validated by build); depth is sane.
        assert!(stats.max_depth > 5);
    }

    #[test]
    #[should_panic(expected = "at least one sink")]
    fn zero_sinks_panics() {
        let _ = RandomNetSpec {
            sinks: 0,
            ..RandomNetSpec::default()
        }
        .build();
    }
}
