//! Monte-Carlo process-variation sampling: seeded distributions over tree
//! parameters that expand into deterministic per-sample edit scripts.
//!
//! A [`VariationSpec`] describes *how* a net varies — distributions over
//! wire R/C, buffer intrinsic delay/drive, sink load, and required-arrival
//! derate — plus *where* (a locality-bounded pool of nodes, drawn by the
//! same seeded-shuffle scheme as [`EditScriptSpec`](crate::eco::EditScriptSpec)).
//! [`VariationSpec::sample_edits`] expands sample `k` into a plain
//! [`Edit`] script whose values are **absolute** (derived
//! from the base tree, never from a previously applied sample), and every
//! sample perturbs the **same pool** of nodes. Together these two choices
//! make sampled solving compose with the incremental engine:
//!
//! * applying sample `k`'s script on top of any previously applied sample
//!   produces exactly the sample-`k` tree (each script fully overwrites
//!   every knob the family varies);
//! * consecutive samples of one family dirty only the pool's root paths,
//!   so a `SubtreeCache` reuses every subtree the family never touches.
//!
//! Determinism: sample `k` draws from its own PRNG stream seeded from
//! `(spec.seed, k)`, so its values do not depend on which worker solves it
//! or in what order samples are generated — the property the parallel
//! yield solver's bit-reproducibility rests on.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fastbuf_buflib::text;
use fastbuf_buflib::units::{Farads, Ohms, Seconds};
use fastbuf_rctree::{NodeId, NodeKind, RoutingTree};

use crate::eco::{locality_pool, Edit};
use crate::LineError;

/// Sampled factors are clamped into this range: a far tail of a normal
/// distribution must not produce zero/negative parasitics or derates.
const FACTOR_FLOOR: f64 = 0.05;
const FACTOR_CEIL: f64 = 20.0;

/// A distribution over a multiplicative factor (nominal is `1.0`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Dist {
    /// Always exactly `1.0`: the knob does not vary, and no edit is ever
    /// emitted for it.
    Fixed,
    /// Gaussian with the given mean and standard deviation, sampled by
    /// Box–Muller over the seeded uniform stream (the vendored `rand` has
    /// no normal sampler). Samples are clamped to `[0.05, 20.0]`.
    Normal {
        /// Mean factor (typically `1.0`).
        mean: f64,
        /// Standard deviation (must be non-negative and finite).
        sigma: f64,
    },
    /// Uniform over `[lo, hi]`.
    Uniform {
        /// Lower bound (must be positive).
        lo: f64,
        /// Upper bound (must be `>= lo`).
        hi: f64,
    },
}

impl Dist {
    /// `true` for [`Dist::Fixed`] — the knob never emits edits.
    pub fn is_fixed(&self) -> bool {
        matches!(self, Dist::Fixed)
    }

    /// `true` when the parameters are in-domain: finite everywhere,
    /// `sigma >= 0`, positive `mean`, and `0 < lo <= hi`.
    pub fn is_valid(&self) -> bool {
        match *self {
            Dist::Fixed => true,
            Dist::Normal { mean, sigma } => {
                mean.is_finite() && sigma.is_finite() && mean > 0.0 && sigma >= 0.0
            }
            Dist::Uniform { lo, hi } => lo.is_finite() && hi.is_finite() && lo > 0.0 && hi >= lo,
        }
    }

    /// Draws one factor. Non-fixed draws consume the PRNG; `Fixed` does
    /// not, so adding a fixed knob to a spec never shifts the stream of
    /// the others.
    fn sample(&self, rng: &mut StdRng) -> f64 {
        match *self {
            Dist::Fixed => 1.0,
            Dist::Normal { mean, sigma } => {
                // Box–Muller; u1 is bounded away from zero so ln() is finite.
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen_range(0.0f64..1.0);
                let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                (mean + sigma * z).clamp(FACTOR_FLOOR, FACTOR_CEIL)
            }
            Dist::Uniform { lo, hi } => rng.gen_range(lo..=hi).clamp(FACTOR_FLOOR, FACTOR_CEIL),
        }
    }
}

impl std::fmt::Display for Dist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dist::Fixed => write!(f, "fixed"),
            Dist::Normal { mean, sigma } => write!(f, "normal {mean} {sigma}"),
            Dist::Uniform { lo, hi } => write!(f, "uniform {lo} {hi}"),
        }
    }
}

/// Seeded, serializable description of one process-variation family.
///
/// Expand with [`VariationSpec::sample_edits`] / [`VariationSpec::expand`];
/// serialize with [`write_variation`] and read back with
/// [`parse_variation`] (line-numbered errors, like the edit-script format).
#[derive(Clone, Debug, PartialEq)]
pub struct VariationSpec {
    /// Factor on each perturbed wire's resistance.
    pub wire_r: Dist,
    /// Factor on each perturbed wire's capacitance.
    pub wire_c: Dist,
    /// Per-site factor on inserted buffers' intrinsic delay.
    pub buffer_delay: Dist,
    /// Per-site factor on inserted buffers' driving resistance.
    pub buffer_drive: Dist,
    /// Factor on each perturbed sink's load capacitance.
    pub sink_cap: Dist,
    /// Factor on each perturbed sink's required arrival time.
    pub rat_derate: Dist,
    /// Fraction `(0, 1]` of non-root nodes in the perturbed pool. Every
    /// sample perturbs the same pool, so cache reuse across samples scales
    /// inversely with this knob (exactly like ECO edit locality).
    pub locality: f64,
    /// PRNG seed: pool selection and every sample's draws derive from it.
    pub seed: u64,
}

impl Default for VariationSpec {
    fn default() -> Self {
        VariationSpec {
            wire_r: Dist::Fixed,
            wire_c: Dist::Fixed,
            buffer_delay: Dist::Fixed,
            buffer_drive: Dist::Fixed,
            sink_cap: Dist::Fixed,
            rat_derate: Dist::Fixed,
            locality: 0.05,
            seed: 1,
        }
    }
}

impl VariationSpec {
    /// A preset varying every knob by `Normal(1.0, sigma)` — the common
    /// "σ% process spread" family used by benches and tests.
    pub fn gaussian(sigma: f64, locality: f64, seed: u64) -> Self {
        let d = Dist::Normal { mean: 1.0, sigma };
        VariationSpec {
            wire_r: d,
            wire_c: d,
            buffer_delay: d,
            buffer_drive: d,
            sink_cap: d,
            rat_derate: d,
            locality,
            seed,
        }
    }

    /// `true` when every distribution is valid and `locality` is in
    /// `(0, 1]`.
    pub fn is_valid(&self) -> bool {
        self.dists().iter().all(|(_, d)| d.is_valid())
            && self.locality.is_finite()
            && self.locality > 0.0
            && self.locality <= 1.0
    }

    fn dists(&self) -> [(&'static str, Dist); 6] {
        [
            ("wire-r", self.wire_r),
            ("wire-c", self.wire_c),
            ("buffer-delay", self.buffer_delay),
            ("buffer-drive", self.buffer_drive),
            ("sink-cap", self.sink_cap),
            ("rat", self.rat_derate),
        ]
    }

    /// The perturbed pool: a seeded Fisher–Yates shuffle of all non-root
    /// nodes truncated to the locality budget, then sorted by node index
    /// so every sample's script lists edits in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `locality` is not in `(0, 1]` (parse-level validation
    /// rejects such specs before they get here).
    pub fn pool(&self, tree: &RoutingTree) -> Vec<NodeId> {
        let mut pool = locality_pool(tree, self.locality, &mut StdRng::seed_from_u64(self.seed));
        pool.sort();
        pool
    }

    /// Expands sample `k` into an absolute edit script against the **base**
    /// tree: wire parasitics become [`Edit::SetWireRC`] (base × factor),
    /// sink parameters become [`Edit::SetSinkCap`] / [`Edit::SetSinkRat`]
    /// (base × factor), and site derates become [`Edit::DerateSite`]
    /// (factors are absolute by definition). Applying the script to a tree
    /// currently holding *any other sample of the same family* yields
    /// exactly the sample-`k` tree.
    pub fn sample_edits(&self, tree: &RoutingTree, k: usize) -> Vec<Edit> {
        let pool = self.pool(tree);
        self.sample_edits_with_pool(tree, &pool, k)
    }

    /// [`VariationSpec::sample_edits`] with a precomputed
    /// [`pool`](VariationSpec::pool) — callers expanding many samples
    /// hoist the pool out of the loop.
    pub fn sample_edits_with_pool(
        &self,
        tree: &RoutingTree,
        pool: &[NodeId],
        k: usize,
    ) -> Vec<Edit> {
        // One independent stream per (seed, sample): values never depend on
        // worker assignment or expansion order.
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut edits = Vec::new();
        for &node in pool {
            if let Some(wire) = tree.wire_to_parent(node) {
                if !self.wire_r.is_fixed() || !self.wire_c.is_fixed() {
                    let fr = self.wire_r.sample(&mut rng);
                    let fc = self.wire_c.sample(&mut rng);
                    edits.push(Edit::SetWireRC {
                        node,
                        resistance: Ohms::new(wire.resistance().value() * fr),
                        capacitance: Farads::new(wire.capacitance().value() * fc),
                    });
                }
            }
            match tree.kind(node) {
                NodeKind::Internal => {
                    if !self.buffer_delay.is_fixed() || !self.buffer_drive.is_fixed() {
                        edits.push(Edit::DerateSite {
                            node,
                            delay_scale: self.buffer_delay.sample(&mut rng),
                            drive_scale: self.buffer_drive.sample(&mut rng),
                        });
                    }
                }
                NodeKind::Sink {
                    capacitance,
                    required_arrival,
                } => {
                    if !self.sink_cap.is_fixed() {
                        let f = self.sink_cap.sample(&mut rng);
                        edits.push(Edit::SetSinkCap {
                            node,
                            cap: Farads::new(capacitance.value() * f),
                        });
                    }
                    if !self.rat_derate.is_fixed() {
                        let f = self.rat_derate.sample(&mut rng);
                        edits.push(Edit::SetSinkRat {
                            node,
                            rat: Seconds::new(required_arrival.value() * f),
                        });
                    }
                }
                NodeKind::Source { .. } => {}
            }
        }
        edits
    }

    /// Expands samples `0..samples` (hoisting the pool computation).
    pub fn expand(&self, tree: &RoutingTree, samples: usize) -> Vec<Vec<Edit>> {
        let pool = self.pool(tree);
        (0..samples)
            .map(|k| self.sample_edits_with_pool(tree, &pool, k))
            .collect()
    }
}

/// Serializes a spec in the text format [`parse_variation`] reads.
pub fn write_variation(spec: &VariationSpec) -> String {
    let mut out = String::new();
    for (name, dist) in spec.dists() {
        out.push_str(&format!("{name} {dist}\n"));
    }
    out.push_str(&format!("locality {}\n", spec.locality));
    out.push_str(&format!("seed {}\n", spec.seed));
    out
}

/// Parses the line-oriented variation format (`#` comments and blank lines
/// allowed; omitted knobs default to `fixed`, omitted `locality`/`seed` to
/// the [`VariationSpec::default`] values):
///
/// ```text
/// # knob: fixed | normal MEAN SIGMA | uniform LO HI
/// wire-r normal 1.0 0.05
/// wire-c normal 1.0 0.05
/// buffer-delay normal 1.0 0.08
/// buffer-drive uniform 0.9 1.1
/// sink-cap fixed
/// rat normal 1.0 0.02
/// locality 0.05
/// seed 42
/// ```
///
/// # Errors
///
/// A [`LineError`] naming the 1-based line of the first problem:
/// unknown knobs, non-finite (NaN/inf) parameters, negative sigma,
/// non-positive means/bounds, inverted uniform ranges, and out-of-range
/// locality are all rejected here — never deferred to solve time.
pub fn parse_variation(text: &str) -> Result<VariationSpec, LineError> {
    let mut spec = VariationSpec::default();
    for mut fields in text::lines(text) {
        match fields.word("key")? {
            "locality" => {
                let v = fields.finite("fraction")?;
                if !(v > 0.0 && v <= 1.0) {
                    return Err(fields.error(format!("locality must be in (0, 1], got {v}")));
                }
                spec.locality = v;
            }
            "seed" => spec.seed = fields.num("seed")?,
            knob => {
                let slot = match knob {
                    "wire-r" => &mut spec.wire_r,
                    "wire-c" => &mut spec.wire_c,
                    "buffer-delay" => &mut spec.buffer_delay,
                    "buffer-drive" => &mut spec.buffer_drive,
                    "sink-cap" => &mut spec.sink_cap,
                    "rat" => &mut spec.rat_derate,
                    other => {
                        return Err(fields.error(format!(
                            "unknown key `{other}` (expected wire-r, wire-c, buffer-delay, \
                             buffer-drive, sink-cap, rat, locality, seed)"
                        )))
                    }
                };
                *slot = match fields.word("distribution")? {
                    "fixed" => Dist::Fixed,
                    "normal" => {
                        let mean = fields.finite("mean")?;
                        let sigma = fields.finite("sigma")?;
                        if mean <= 0.0 {
                            return Err(fields.error(format!("mean must be positive, got {mean}")));
                        }
                        if sigma < 0.0 {
                            return Err(
                                fields.error(format!("sigma must be non-negative, got {sigma}"))
                            );
                        }
                        Dist::Normal { mean, sigma }
                    }
                    "uniform" => {
                        let lo = fields.finite("lower bound")?;
                        let hi = fields.finite("upper bound")?;
                        if lo <= 0.0 {
                            return Err(
                                fields.error(format!("lower bound must be positive, got {lo}"))
                            );
                        }
                        if hi < lo {
                            return Err(fields.error(format!("empty range: {lo} > {hi}")));
                        }
                        Dist::Uniform { lo, hi }
                    }
                    other => {
                        return Err(fields.error(format!(
                            "unknown distribution `{other}` (expected fixed, normal, uniform)"
                        )))
                    }
                };
            }
        }
        fields.end()?;
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomNetSpec;

    fn tree() -> RoutingTree {
        RandomNetSpec {
            sinks: 15,
            seed: 7,
            ..RandomNetSpec::default()
        }
        .build()
    }

    #[test]
    fn expansion_is_deterministic_and_order_independent() {
        let t = tree();
        let spec = VariationSpec::gaussian(0.08, 0.3, 42);
        let a = spec.expand(&t, 5);
        let b = spec.expand(&t, 5);
        assert_eq!(a, b);
        // Sample k alone equals sample k of a batch: no cross-sample state.
        assert_eq!(spec.sample_edits(&t, 3), a[3]);
        // Different samples differ; different seeds differ.
        assert_ne!(a[0], a[1]);
        let other = VariationSpec { seed: 43, ..spec };
        assert_ne!(other.expand(&t, 1)[0], a[0]);
    }

    #[test]
    fn every_sample_perturbs_the_same_pool() {
        let t = tree();
        let spec = VariationSpec::gaussian(0.1, 0.2, 9);
        let scripts = spec.expand(&t, 8);
        let nodes = |s: &[Edit]| {
            let mut v: Vec<NodeId> = s
                .iter()
                .map(|e| match e {
                    Edit::SetWireRC { node, .. }
                    | Edit::DerateSite { node, .. }
                    | Edit::SetSinkCap { node, .. }
                    | Edit::SetSinkRat { node, .. }
                    | Edit::SetWireLength { node, .. }
                    | Edit::BlockSite { node }
                    | Edit::UnblockSite { node } => *node,
                    Edit::SwapLibrary { .. } => unreachable!("variation never swaps libraries"),
                })
                .collect();
            v.dedup();
            v
        };
        let first = nodes(&scripts[0]);
        for s in &scripts[1..] {
            assert_eq!(nodes(s), first, "pool must be identical across samples");
        }
        let budget = ((0.2 * (t.node_count() - 1) as f64).ceil()) as usize;
        assert!(first.len() <= budget);
    }

    #[test]
    fn factors_scale_base_values_and_stay_positive() {
        let t = tree();
        // Huge sigma: the clamp must keep everything legal.
        let spec = VariationSpec::gaussian(5.0, 1.0, 3);
        for script in spec.expand(&t, 20) {
            for e in script {
                match e {
                    Edit::SetWireRC {
                        resistance,
                        capacitance,
                        ..
                    } => {
                        assert!(resistance.value() >= 0.0 && resistance.is_finite());
                        assert!(capacitance.value() >= 0.0 && capacitance.is_finite());
                    }
                    Edit::DerateSite {
                        delay_scale,
                        drive_scale,
                        ..
                    } => {
                        assert!((FACTOR_FLOOR..=FACTOR_CEIL).contains(&delay_scale));
                        assert!((FACTOR_FLOOR..=FACTOR_CEIL).contains(&drive_scale));
                    }
                    Edit::SetSinkCap { cap, .. } => assert!(cap.value() >= 0.0),
                    Edit::SetSinkRat { rat, .. } => assert!(rat.is_finite()),
                    other => panic!("unexpected edit {other:?}"),
                }
            }
        }
    }

    #[test]
    fn fixed_knobs_emit_no_edits() {
        let t = tree();
        let spec = VariationSpec {
            sink_cap: Dist::Normal {
                mean: 1.0,
                sigma: 0.1,
            },
            locality: 1.0,
            ..VariationSpec::default()
        };
        for script in spec.expand(&t, 4) {
            assert!(!script.is_empty());
            assert!(script.iter().all(|e| matches!(e, Edit::SetSinkCap { .. })));
        }
        // All-fixed spec: every sample is the empty script (the nominal tree).
        let nominal = VariationSpec::default();
        assert!(nominal.expand(&t, 3).iter().all(|s| s.is_empty()));
    }

    #[test]
    fn text_roundtrip_preserves_specs() {
        let spec = VariationSpec {
            wire_r: Dist::Normal {
                mean: 1.0,
                sigma: 0.05,
            },
            wire_c: Dist::Uniform { lo: 0.9, hi: 1.15 },
            buffer_delay: Dist::Normal {
                mean: 1.02,
                sigma: 0.08,
            },
            buffer_drive: Dist::Fixed,
            sink_cap: Dist::Uniform { lo: 0.8, hi: 1.3 },
            rat_derate: Dist::Normal {
                mean: 1.0,
                sigma: 0.01,
            },
            locality: 0.125,
            seed: 777,
        };
        let text = write_variation(&spec);
        assert_eq!(parse_variation(&text).unwrap(), spec);
        // Defaults survive omission.
        let partial = parse_variation("rat normal 1 0.02\n").unwrap();
        assert_eq!(
            partial.rat_derate,
            Dist::Normal {
                mean: 1.0,
                sigma: 0.02
            }
        );
        assert_eq!(partial.wire_r, Dist::Fixed);
        assert_eq!(partial.locality, VariationSpec::default().locality);
    }

    #[test]
    fn parse_rejects_bad_specs_with_line_numbers() {
        for (text, line, needle) in [
            ("wire-r normal NaN 0.1\n", 1, "finite"),
            ("# ok\nwire-c normal 1.0 -0.2\n", 2, "non-negative"),
            ("seed 3\n\nbuffer-delay uniform 1.2 0.8\n", 3, "empty range"),
            ("buffer-drive uniform 0 1.1\n", 1, "positive"),
            ("rat normal -1 0.1\n", 1, "positive"),
            ("locality 1.5\n", 1, "(0, 1]"),
            ("locality 0\n", 1, "(0, 1]"),
            ("seed twelve\n", 1, "bad seed"),
            ("gravity normal 1 0.1\n", 1, "unknown key"),
            ("wire-r cauchy 1 0.1\n", 1, "unknown distribution"),
            ("wire-r normal 1 0.1 extra\n", 1, "trailing"),
            ("# a\n# b\n# c\nsink-cap normal inf 0.1\n", 4, "finite"),
        ] {
            let err = parse_variation(text).unwrap_err();
            assert_eq!(err.line, line, "{text:?}: {err}");
            assert!(err.message.contains(needle), "{text:?}: {err}");
            assert_eq!(err.to_string(), format!("line {line}: {}", err.message));
        }
    }

    #[test]
    fn gaussian_preset_is_valid_and_spec_validation_catches_bad_fields() {
        assert!(VariationSpec::gaussian(0.05, 0.1, 1).is_valid());
        assert!(!VariationSpec::gaussian(f64::NAN, 0.1, 1).is_valid());
        assert!(!VariationSpec {
            locality: 0.0,
            ..VariationSpec::default()
        }
        .is_valid());
        assert!(!VariationSpec {
            rat_derate: Dist::Uniform { lo: 2.0, hi: 1.0 },
            ..VariationSpec::default()
        }
        .is_valid());
    }
}
