//! Slew-constraint bookkeeping shared by the DP operations.
//!
//! A per-net maximum output slew translates, through the delay model's
//! [`stage_budget`](fastbuf_rctree::delay::DelayModel::stage_budget), into
//! budgets on the quantity `R·C + s` every candidate must satisfy when its
//! stage is closed by a driver:
//!
//! * the **wire/merge budget** [`SlewPolicy::cap`] assumes the most lenient
//!   possible closure (a zero-output-slew driver as `R → 0`, e.g. the
//!   source): a candidate whose `s` alone exceeds it is infeasible in
//!   every completion and is pruned eagerly;
//! * the **per-type budgets** [`SlewPolicy::type_cap`] fold in each buffer
//!   type's intrinsic output slew, and gate which candidates `AddBuffer`
//!   may close with that type.

use fastbuf_buflib::{BufferLibrary, BufferTypeId};
use fastbuf_rctree::delay::DelayModel;

/// Precomputed slew budgets for one solve. `cap = ∞` means unconstrained
/// and makes every check a no-op.
#[derive(Clone, Debug)]
pub(crate) struct SlewPolicy {
    /// Budget on `R·C + s` for a zero-output-slew driver (`∞` = no limit).
    pub cap: f64,
    /// Per-buffer-type budgets, indexed by [`BufferTypeId`]; empty when
    /// unconstrained.
    type_caps: Vec<f64>,
}

impl SlewPolicy {
    /// The policy of an unconstrained solve.
    pub const fn unlimited() -> Self {
        SlewPolicy {
            cap: f64::INFINITY,
            type_caps: Vec::new(),
        }
    }

    /// Budgets for `limit` (seconds; non-finite = unconstrained) under
    /// `model`, one per type of `lib`.
    pub fn new(model: DelayModel, lib: &BufferLibrary, limit: f64) -> Self {
        if !limit.is_finite() {
            return SlewPolicy::unlimited();
        }
        SlewPolicy {
            cap: model.stage_budget(limit, 0.0),
            type_caps: lib
                .iter()
                .map(|(_, b)| model.stage_budget(limit, b.output_slew().value()))
                .collect(),
        }
    }

    /// `true` when a finite limit is in force.
    #[inline]
    pub fn active(&self) -> bool {
        self.cap.is_finite()
    }

    /// The `R·C + s` budget for stages closed by buffer type `id` (`∞`
    /// when unconstrained).
    #[inline]
    pub fn type_cap(&self, id: BufferTypeId) -> f64 {
        if self.type_caps.is_empty() {
            f64::INFINITY
        } else {
            self.type_caps[id.index()]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastbuf_buflib::units::{Farads, Ohms, Seconds};
    use fastbuf_buflib::BufferType;
    use fastbuf_rctree::delay::LN9;

    #[test]
    fn budgets_account_for_output_slew() {
        let lib = BufferLibrary::new(vec![
            BufferType::new(
                "fast",
                Ohms::new(100.0),
                Farads::from_femto(5.0),
                Seconds::ZERO,
            ),
            BufferType::new(
                "slow",
                Ohms::new(200.0),
                Farads::from_femto(5.0),
                Seconds::ZERO,
            )
            .with_output_slew(Seconds::from_pico(10.0)),
        ])
        .unwrap();
        let p = SlewPolicy::new(DelayModel::Elmore, &lib, 50e-12);
        assert!(p.active());
        assert!((p.cap - 50e-12 / LN9).abs() < 1e-24);
        assert!((p.type_cap(BufferTypeId::new(0)) - 50e-12 / LN9).abs() < 1e-24);
        assert!((p.type_cap(BufferTypeId::new(1)) - 40e-12 / LN9).abs() < 1e-24);
    }

    #[test]
    fn infinite_limit_is_inactive() {
        let lib = BufferLibrary::paper_synthetic(2).unwrap();
        for p in [
            SlewPolicy::unlimited(),
            SlewPolicy::new(DelayModel::Elmore, &lib, f64::INFINITY),
        ] {
            assert!(!p.active());
            assert_eq!(p.type_cap(BufferTypeId::new(0)), f64::INFINITY);
        }
    }
}
