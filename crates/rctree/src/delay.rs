//! The delay model: how wires turn loads into delays, and how a stage's
//! delays become an output slew.
//!
//! A [`DelayModel`] is one `Copy` value, and the only thing it varies is
//! the scale of the **wire** term: [`DelayModel::Elmore`] is the paper's
//! `r·(cw/2 + load)`, [`DelayModel::ScaledElmore`] multiplies that by an
//! empirical factor (D2M-style metrics land near `ln 2` of Elmore on
//! resistively-shielded lines, because Elmore is a pessimistic upper
//! bound there).
//!
//! Two things stay fixed whatever the model:
//!
//! 1. the **gate** delay `K + R·C`. The convex-hull argument of the O(bn²)
//!    `AddBuffer` (Lemmas 1–4 of the paper) maximizes the linear
//!    functional `Q − R·C`, which needs the gate term linear in load; the
//!    DP hard-codes it (`Candidate::driven_q` in `fastbuf-core`), and so
//!    does the forward evaluator in [`crate::elmore`];
//! 2. the `ln 9` **slew** ramp below. The DP prunes a slew limit through
//!    a per-type budget ([`DelayModel::stage_budget`]) on the stage sum
//!    `R·C + D_wire`, which is what lets its three-point pruning rule stay
//!    exact; [`DelayModel::slew`] is that budget's inverse.
//!
//! Any positive scale keeps the DP's dominance and hull arguments valid,
//! because the wire shear stays monotone in load.
//!
//! # Slew model
//!
//! The output slew at a stage endpoint (the input of the next downstream
//! buffer, or a sink) uses the classic Elmore-based ramp approximation
//! (`ln 9 ≈ 2.2` × the stage Elmore delay for a 10–90% transition):
//!
//! ```text
//! slew(endpoint) = slew₀(driver) + ln9 · ( R_driver·C_stage + D_wire(driver→endpoint) )
//! ```
//!
//! where `slew₀` is the driving gate's intrinsic output slew
//! ([`BufferType::output_slew`](fastbuf_buflib::BufferType::output_slew)),
//! `C_stage` the total capacitance the driver sees, and `D_wire` the
//! in-stage wire delay from the driver's output to the endpoint under this
//! model's [`DelayModel::wire_delay`].

/// `ln 9` — the 10–90% ramp factor of the Elmore slew approximation.
pub const LN9: f64 = 2.197224577336219_f64;

/// The wire-delay model of a solve or an evaluation (see the
/// [module docs](self)). All quantities are raw SI `f64`s (ohms, farads,
/// seconds), matching the hot-path convention of `fastbuf-core`.
///
/// Two models are equal when their arithmetic is: the same variant, and
/// for [`DelayModel::ScaledElmore`] the same scale bit for bit (so caches
/// keyed on a model never reuse results across scales).
#[derive(Clone, Copy, Debug, Default)]
pub enum DelayModel {
    /// The paper's model: wire delay `r·(cw/2 + load)`. The default.
    #[default]
    Elmore,
    /// The Elmore wire delay times a scale factor; gate delays are
    /// untouched. The scale must be finite and positive: the DP's solvers
    /// panic on any other.
    ScaledElmore(f64),
}

impl PartialEq for DelayModel {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (DelayModel::Elmore, DelayModel::Elmore) => true,
            (DelayModel::ScaledElmore(a), DelayModel::ScaledElmore(b)) => {
                a.to_bits() == b.to_bits()
            }
            _ => false,
        }
    }
}

impl Eq for DelayModel {}

impl DelayModel {
    /// What the name `scaled-elmore` resolves to: the D2M-ish factor
    /// `ln 2`.
    pub const SCALED_ELMORE: DelayModel = DelayModel::ScaledElmore(std::f64::consts::LN_2);

    /// Short stable name, used by the CLI `--model` flag, scenario lines,
    /// wire frames and reports: `elmore` or `scaled-elmore`.
    pub fn name(self) -> &'static str {
        match self {
            DelayModel::Elmore => "elmore",
            DelayModel::ScaledElmore(_) => "scaled-elmore",
        }
    }

    /// The model a [`DelayModel::name`] stands for (`scaled-elmore` at its
    /// default factor, [`DelayModel::SCALED_ELMORE`]); `None` for an
    /// unknown name.
    pub fn by_name(name: &str) -> Option<DelayModel> {
        match name {
            "elmore" => Some(DelayModel::Elmore),
            "scaled-elmore" => Some(DelayModel::SCALED_ELMORE),
            _ => None,
        }
    }

    /// Delay of a wire with resistance `r` and capacitance `cw` driving a
    /// downstream load `load`.
    #[inline]
    pub fn wire_delay(self, r: f64, cw: f64, load: f64) -> f64 {
        match self {
            DelayModel::Elmore => elmore(r, cw, load),
            DelayModel::ScaledElmore(k) => k * elmore(r, cw, load),
        }
    }

    /// Fused wire shear over candidate columns: for each index `i`, with
    /// `d = wire_delay(r, cw, c[i])` computed from the *pre-shear*
    /// capacitance, applies `q[i] -= d`, `s[i] += d`, `c[i] += cw`.
    ///
    /// The variant is matched once, outside the loop, so each arm is one
    /// tight loop free of loop-carried state that the compiler can
    /// vectorize; per element the arithmetic and its order are exactly
    /// [`DelayModel::wire_delay`]'s. All three slices must have the same
    /// length.
    #[inline]
    pub fn wire_shear(self, r: f64, cw: f64, q: &mut [f64], s: &mut [f64], c: &mut [f64]) {
        match self {
            DelayModel::Elmore => shear(cw, q, s, c, |load| elmore(r, cw, load)),
            DelayModel::ScaledElmore(k) => shear(cw, q, s, c, |load| k * elmore(r, cw, load)),
        }
    }

    /// Output slew at a stage endpoint: the stage driver has intrinsic
    /// output slew `slew0` and resistance `r`, drives total stage load
    /// `load`, and the in-stage wire delay from driver output to the
    /// endpoint is `stage_wire_delay` (already computed with
    /// [`DelayModel::wire_delay`]).
    pub fn slew(self, slew0: f64, r: f64, load: f64, stage_wire_delay: f64) -> f64 {
        slew0 + LN9 * (r * load + stage_wire_delay)
    }

    /// Inverse of [`DelayModel::slew`] in the quantity `r·load +
    /// stage_wire_delay`: the largest value of that sum for which a stage
    /// driven by a gate with intrinsic output slew `slew0` still meets
    /// `slew_limit`. The DP prunes with the budget, the evaluator measures
    /// with the slew.
    pub fn stage_budget(self, slew_limit: f64, slew0: f64) -> f64 {
        (slew_limit - slew0) / LN9
    }
}

/// The Elmore wire delay `r·(cw/2 + load)`.
#[inline(always)]
fn elmore(r: f64, cw: f64, load: f64) -> f64 {
    r * (cw / 2.0 + load)
}

#[inline(always)]
fn shear(cw: f64, q: &mut [f64], s: &mut [f64], c: &mut [f64], delay: impl Fn(f64) -> f64) {
    debug_assert!(q.len() == c.len() && s.len() == c.len());
    for ((q, s), c) in q.iter_mut().zip(s.iter_mut()).zip(c.iter_mut()) {
        let d = delay(*c);
        *q -= d;
        *s += d;
        *c += cw;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elmore_matches_hardcoded_formulas() {
        let (r, cw, load) = (123.0, 4.5e-15, 7.5e-15);
        assert_eq!(DelayModel::Elmore.wire_delay(r, cw, load).to_bits(), {
            let half = cw / 2.0;
            (r * (half + load)).to_bits()
        });
    }

    #[test]
    fn scaled_elmore_scales_only_wires() {
        let (m, e) = (DelayModel::ScaledElmore(0.5), DelayModel::Elmore);
        assert_eq!(m.wire_delay(100.0, 2e-15, 3e-15), {
            0.5 * e.wire_delay(100.0, 2e-15, 3e-15)
        });
        assert_eq!(
            m.slew(1e-12, 100.0, 3e-15, 2e-12),
            e.slew(1e-12, 100.0, 3e-15, 2e-12)
        );
    }

    #[test]
    fn shear_matches_the_scalar_wire_delay_bit_for_bit() {
        let (r, cw) = (87.5, 3.25e-15);
        for m in [DelayModel::Elmore, DelayModel::SCALED_ELMORE] {
            let c0: Vec<f64> = (0..37).map(|i| i as f64 * 1.7e-15).collect();
            let (mut q, mut s, mut c) = (vec![1e-9; 37], vec![0.0; 37], c0.clone());
            m.wire_shear(r, cw, &mut q, &mut s, &mut c);
            for (i, &load) in c0.iter().enumerate() {
                let d = m.wire_delay(r, cw, load);
                assert_eq!(q[i].to_bits(), (1e-9 - d).to_bits());
                assert_eq!(s[i].to_bits(), d.to_bits());
                assert_eq!(c[i].to_bits(), (load + cw).to_bits());
            }
        }
    }

    #[test]
    fn slew_and_budget_are_inverses() {
        let m = DelayModel::Elmore;
        for limit in [10e-12, 100e-12, 1e-9] {
            for slew0 in [0.0, 5e-12] {
                let x = m.stage_budget(limit, slew0);
                let back = m.slew(slew0, 1.0, x, 0.0); // r·load + wire = x
                assert!((back - limit).abs() < 1e-21, "{back} vs {limit}");
            }
        }
    }

    #[test]
    fn slew_grows_with_every_component() {
        let m = DelayModel::Elmore;
        let base = m.slew(0.0, 100.0, 1e-14, 1e-12);
        assert!(m.slew(1e-12, 100.0, 1e-14, 1e-12) > base);
        assert!(m.slew(0.0, 200.0, 1e-14, 1e-12) > base);
        assert!(m.slew(0.0, 100.0, 2e-14, 1e-12) > base);
        assert!(m.slew(0.0, 100.0, 1e-14, 2e-12) > base);
    }

    #[test]
    fn models_are_equal_exactly_when_their_arithmetic_is() {
        assert_eq!(DelayModel::Elmore, DelayModel::Elmore);
        assert_ne!(DelayModel::Elmore, DelayModel::SCALED_ELMORE);
        // Same variant, different parameter: a cache keyed on the model
        // must not reuse results across scales.
        assert_ne!(DelayModel::ScaledElmore(0.5), DelayModel::ScaledElmore(0.7));
        assert_eq!(DelayModel::ScaledElmore(0.5), DelayModel::ScaledElmore(0.5));
        // Bits, not float equality: a NaN scale still equals itself.
        assert_eq!(
            DelayModel::ScaledElmore(f64::NAN),
            DelayModel::ScaledElmore(f64::NAN)
        );
    }

    #[test]
    fn name_lookup() {
        for name in ["elmore", "scaled-elmore"] {
            assert_eq!(DelayModel::by_name(name).unwrap().name(), name);
        }
        assert_eq!(DelayModel::by_name("elmore"), Some(DelayModel::Elmore));
        assert_eq!(
            DelayModel::by_name("scaled-elmore"),
            Some(DelayModel::SCALED_ELMORE)
        );
        assert_eq!(DelayModel::by_name("spice"), None);
    }
}
