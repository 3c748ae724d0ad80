//! Polarity-aware buffer insertion with inverters.
//!
//! Real repeater libraries are dominated by *inverters* — they are smaller
//! and faster than two-stage buffers — but an inverter flips signal
//! polarity, so placements must deliver the right parity of inversions to
//! every sink. Lillis, Cheng & Lin's original multi-type formulation (the
//! paper's reference \[7\]) already handled this by keeping **two**
//! nonredundant candidate lists per node, one per required arriving
//! polarity; the Li–Shi convex-hull `AddBuffer` applies to each list
//! unchanged, preserving the O(bn²) bound.
//!
//! DP semantics: a candidate in the *positive* list of `T_v` is a buffering
//! of the subtree that meets all its sinks' polarity requirements **if the
//! signal arriving at `v` is positive** (even number of upstream
//! inversions); likewise for the *negative* list. Wires shear both lists;
//! branch merges combine like-polarity lists; a non-inverting buffer maps a
//! list to itself while an inverter maps it to the opposite list. The
//! source drives positive polarity, so the answer is read from the root's
//! positive list — if it is empty (e.g. a negated sink but no inverter in
//! the library), the instance is infeasible.
//!
//! # Example
//!
//! ```
//! use fastbuf_buflib::BufferLibrary;
//! use fastbuf_buflib::units::Microns;
//! use fastbuf_core::polarity::PolaritySolver;
//! # use fastbuf_buflib::{Driver, Technology};
//! # use fastbuf_buflib::units::{Farads, Ohms, Seconds};
//! # use fastbuf_rctree::{TreeBuilder, Wire};
//!
//! let lib = BufferLibrary::paper_synthetic_mixed(8)?; // buffers + inverters
//! # let tech = Technology::tsmc180_like();
//! # let mut b = TreeBuilder::new();
//! # let src = b.source(Driver::new(Ohms::new(180.0)));
//! # let site = b.buffer_site();
//! # let sink = b.sink(Farads::from_femto(10.0), Seconds::from_pico(1000.0));
//! # b.connect(src, site, Wire::from_length(&tech, Microns::new(3000.0)))?;
//! # b.connect(site, sink, Wire::from_length(&tech, Microns::new(3000.0)))?;
//! # let tree = b.build()?;
//! let solution = PolaritySolver::new(&tree, &lib).solve()?;
//! // Inverters used along any source->sink path always come in pairs
//! // unless the sink itself is negated.
//! solution.verify(&tree, &lib, &[])?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::error::Error;
use std::fmt;
use std::time::Instant;

use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::{BufferLibrary, BufferTypeId};
use fastbuf_rctree::{elmore, DelayModel, NodeId, RoutingTree};

use crate::buffering::{find_betas, Algorithm};
use crate::engine::{run_lane, Dp, DpState, Lane, SlabCtx};
use crate::slab::{CandidateSlab, SlabList};
use crate::solution::{Placement, VerifyError};
use crate::stats::SolveStats;
use crate::SolverOptions;

/// Signal polarity relative to the source.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Polarity {
    /// Same polarity as the source output.
    #[default]
    Positive,
    /// Inverted relative to the source output.
    Negative,
}

impl Polarity {
    /// The opposite polarity.
    #[must_use]
    pub fn flipped(self) -> Polarity {
        match self {
            Polarity::Positive => Polarity::Negative,
            Polarity::Negative => Polarity::Positive,
        }
    }
}

/// Errors from [`PolaritySolver::solve`] and
/// [`PolaritySolution::verify`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum PolarityError {
    /// No assignment can satisfy every sink's polarity requirement (e.g. a
    /// negated sink with no inverter in the library).
    Infeasible,
    /// A node passed to [`PolaritySolver::require`] is not a sink.
    NotASink(NodeId),
    /// Verification found a sink receiving the wrong polarity.
    WrongPolarity(NodeId),
    /// The forward evaluation rejected the placements or measured a
    /// different slack than predicted, as for
    /// [`Solution::verify`](crate::Solution::verify).
    Verify(VerifyError),
}

impl fmt::Display for PolarityError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolarityError::Infeasible => {
                write!(
                    f,
                    "no buffer assignment satisfies the polarity requirements"
                )
            }
            PolarityError::NotASink(n) => write!(f, "{n} is not a sink"),
            PolarityError::WrongPolarity(n) => {
                write!(f, "sink {n} receives the wrong polarity")
            }
            PolarityError::Verify(e) => write!(f, "{e}"),
        }
    }
}

impl Error for PolarityError {}

/// Result of a polarity-aware solve.
#[derive(Clone, Debug)]
pub struct PolaritySolution {
    /// Optimal slack at the source (driver delay included).
    pub slack: Seconds,
    /// Inserted repeaters (buffers and inverters).
    pub placements: Vec<Placement>,
    /// How many of the placements are inverters.
    pub inverter_count: usize,
    /// `true` when no slew limit was set, or when the chosen solution
    /// meets it (as [`Solution::slew_ok`](crate::Solution::slew_ok)).
    pub slew_ok: bool,
    /// The delay model the solve ran under, which
    /// [`PolaritySolution::verify`] measures with.
    pub model: DelayModel,
    /// The RAT derate the solve ran under, which verify also measures with.
    pub rat_derate: f64,
    /// Operation counters (both polarity lists contribute).
    pub stats: SolveStats,
}

impl PolaritySolution {
    /// Checks the solution against the independent forward engine, under
    /// the model and RAT derate it was solved with (on the underated
    /// `tree`), *and* against the polarity requirements (`negated_sinks` are the sinks
    /// required [`Polarity::Negative`]); returns the measured slack.
    ///
    /// # Errors
    ///
    /// [`PolarityError::Verify`] if `tree` rejects the placements
    /// ([`VerifyError::Tree`]) or the measured slack deviates from the
    /// prediction ([`VerifyError::SlackMismatch`]);
    /// [`PolarityError::WrongPolarity`] if any sink sees the wrong parity
    /// of inversions.
    pub fn verify(
        &self,
        tree: &RoutingTree,
        library: &BufferLibrary,
        negated_sinks: &[NodeId],
    ) -> Result<Seconds, PolarityError> {
        let pairs: Vec<_> = self.placements.iter().map(|p| (p.node, p.buffer)).collect();
        // Evaluating first rejects placements `tree` has no node for
        // before the polarity walk indexes by them.
        let report = elmore::evaluate_with(tree, library, &pairs, self.model, self.rat_derate)
            .map_err(|e| PolarityError::Verify(VerifyError::Tree(e)))?;
        check_polarity(tree, library, &pairs, negated_sinks)?;
        VerifyError::check_slack(self.slack, report.slack).map_err(PolarityError::Verify)
    }
}

/// Checks that `placements` deliver the required polarity to every sink.
///
/// Purely topological — it counts inversions along each source→sink path
/// and never evaluates delay, so it holds under any delay model.
///
/// # Errors
///
/// [`PolarityError::WrongPolarity`] naming the first offending sink.
pub fn check_polarity(
    tree: &RoutingTree,
    library: &BufferLibrary,
    placements: &[(NodeId, fastbuf_buflib::BufferTypeId)],
    negated_sinks: &[NodeId],
) -> Result<(), PolarityError> {
    let mut inverts = vec![false; tree.node_count()];
    for &(node, buf) in placements {
        if library.get(buf).is_inverting() {
            inverts[node.index()] = true;
        }
    }
    // Parity of inversions from the source to each node, top-down.
    let mut parity = vec![Polarity::Positive; tree.node_count()];
    for &node in tree.postorder().iter().rev() {
        let from_parent = match tree.parent(node) {
            None => Polarity::Positive,
            Some(p) => parity[p.index()],
        };
        parity[node.index()] = if inverts[node.index()] {
            from_parent.flipped()
        } else {
            from_parent
        };
    }
    for sink in tree.sinks() {
        let required = if negated_sinks.contains(&sink) {
            Polarity::Negative
        } else {
            Polarity::Positive
        };
        if parity[sink.index()] != required {
            return Err(PolarityError::WrongPolarity(sink));
        }
    }
    Ok(())
}

/// The polarity lane: two lists per node, indexed by the polarity the
/// signal must arrive with (`0` positive, `1` negative). `None` is an
/// empty list: no buffering of the subtree meets its sinks from that
/// polarity.
struct PolarityLane<'a> {
    /// Per node, `true` for a sink that requires negative polarity.
    negated: &'a [bool],
    /// The library's types by inverting flag (`[buffers, inverters]`),
    /// each in input-capacitance order.
    by_flag: [Vec<BufferTypeId>; 2],
}

impl Lane for PolarityLane<'_> {
    type P = ();
    type Set = [Option<SlabList>; 2];

    fn sink(&self, slab: &mut CandidateSlab, node: NodeId, q: f64, c: f64) -> Self::Set {
        let mut set = [None, None];
        set[usize::from(self.negated[node.index()])] = Some(slab.sink(q, c));
        set
    }

    fn each_list(set: &Self::Set, f: impl FnMut(SlabList)) {
        set.iter().flatten().copied().for_each(f);
    }

    /// Like-polarity lists merge. An empty side means that branch cannot
    /// be satisfied from this polarity, and the same wire feeds both
    /// branches, so the merged list is empty too.
    fn merge(
        &self,
        ctx: &SlabCtx<'_>,
        dp: &mut Dp<'_, ()>,
        a: Self::Set,
        b: Self::Set,
    ) -> Self::Set {
        std::array::from_fn(|p| match (a[p], b[p]) {
            (Some(l), Some(r)) => {
                Some(
                    dp.slab
                        .merge(l, r, dp.arena, ctx.track, ctx.slew.cap, dp.stats),
                )
            }
            (l, r) => {
                l.into_iter().chain(r).for_each(|spent| dp.slab.free(spent));
                None
            }
        })
    }

    /// Betas are generated from each source list first (so one node never
    /// hosts two repeaters); a type with inverting flag `f` fed from
    /// polarity `p` needs polarity `p ^ f` arriving at the site.
    fn add_buffers(
        &self,
        ctx: &SlabCtx<'_>,
        dp: &mut Dp<'_, ()>,
        set: &mut Self::Set,
        node: NodeId,
    ) {
        let site = ctx.site(node);
        dp.scratch.stage.reset_targets(2);
        for (source, list) in set.iter().enumerate() {
            let Some(list) = *list else { continue };
            if find_betas(&site, dp, list, |_| true) {
                for target in 0..2 {
                    dp.scratch.route(&self.by_flag[source ^ target], target);
                }
            }
        }
        let targets = &dp.scratch.stage.targets;
        dp.stats.betas_generated += targets.iter().map(|t| t.len() as u64).sum::<u64>();
        dp.slab.insert_targets(set, targets);
    }
}

/// Polarity-aware optimal buffer insertion; see the [module docs](self).
///
/// Runs under its [`SolverOptions`] like [`Solver`](crate::Solver), except
/// that it always tracks predecessors: its result is a placement.
#[derive(Debug)]
pub struct PolaritySolver<'a> {
    tree: &'a RoutingTree,
    library: &'a BufferLibrary,
    options: SolverOptions,
    negated: Vec<bool>,
}

impl<'a> PolaritySolver<'a> {
    /// Creates a solver with default options; all sinks initially require
    /// positive polarity.
    pub fn new(tree: &'a RoutingTree, library: &'a BufferLibrary) -> Self {
        PolaritySolver {
            tree,
            library,
            options: SolverOptions::default(),
            negated: vec![false; tree.node_count()],
        }
    }

    /// Replaces all options (tracking stays on).
    #[must_use]
    pub fn with_options(mut self, options: SolverOptions) -> Self {
        self.options = SolverOptions {
            track_predecessors: true,
            ..options
        };
        self
    }

    /// Selects the `AddBuffer` algorithm (applied per polarity list).
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.options.algorithm = algorithm;
        self
    }

    /// Requires `sink` to receive the given polarity.
    ///
    /// # Errors
    ///
    /// [`PolarityError::NotASink`] if `sink` is not a sink of the tree.
    pub fn require(&mut self, sink: NodeId, polarity: Polarity) -> Result<(), PolarityError> {
        if sink.index() >= self.tree.node_count() || !self.tree.kind(sink).is_sink() {
            return Err(PolarityError::NotASink(sink));
        }
        self.negated[sink.index()] = polarity == Polarity::Negative;
        Ok(())
    }

    /// The sinks currently required to receive negative polarity.
    pub fn negated_sinks(&self) -> Vec<NodeId> {
        self.tree
            .node_ids()
            .filter(|n| self.negated[n.index()])
            .collect()
    }

    /// Runs the two-list dynamic program.
    ///
    /// # Errors
    ///
    /// [`PolarityError::Infeasible`] when no assignment can satisfy the
    /// polarity requirements (the root's positive list comes out empty).
    /// Infeasibility under a slew limit is no error: it is reported via
    /// [`PolaritySolution::slew_ok`].
    pub fn solve(&self) -> Result<PolaritySolution, PolarityError> {
        let start = Instant::now();
        let lib = self.library;
        let mut by_flag: [Vec<BufferTypeId>; 2] = Default::default();
        for &id in lib.by_input_cap_asc() {
            by_flag[usize::from(lib.get(id).is_inverting())].push(id);
        }
        let lane = &mut PolarityLane {
            negated: &self.negated,
            by_flag,
        };
        let ctx = SlabCtx::new(self.tree, lib, &self.options);
        let mut state = DpState::default();
        let root = run_lane(&ctx, lane, state.dp(), &mut Vec::new());
        // The source drives positive polarity.
        let pos = root[0].ok_or(PolarityError::Infeasible)?;
        state.stats.root_list_len = state.slab.len(pos);
        let (i, slew_ok) = ctx.select_root(&state.slab, pos);
        let best = state.slab.view(pos).get(i);
        let (dr, dk) = ctx.driver();
        let placements = state.arena.placements(best.pred);
        let inverter_count = placements
            .iter()
            .filter(|p| lib.get(p.buffer).is_inverting())
            .count();
        state.stats.elapsed = start.elapsed();
        Ok(PolaritySolution {
            slack: Seconds::new(best.q - dk - dr * best.c),
            placements,
            inverter_count,
            slew_ok,
            model: ctx.model,
            rat_derate: ctx.rat_derate,
            stats: state.stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Solver;
    use fastbuf_buflib::units::{Farads, Microns, Ohms};
    use fastbuf_buflib::{BufferType, Driver, Technology};
    use fastbuf_rctree::{TreeBuilder, Wire};

    fn line(sites: usize, seg_um: f64) -> (RoutingTree, NodeId) {
        let tech = Technology::tsmc180_like();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(180.0)));
        let mut prev = src;
        for _ in 0..sites {
            let s = b.buffer_site();
            b.connect(prev, s, Wire::from_length(&tech, Microns::new(seg_um)))
                .unwrap();
            prev = s;
        }
        let snk = b.sink(Farads::from_femto(15.0), Seconds::from_pico(2000.0));
        b.connect(prev, snk, Wire::from_length(&tech, Microns::new(seg_um)))
            .unwrap();
        (b.build().unwrap(), snk)
    }

    #[test]
    fn without_inverters_matches_plain_solver() {
        let (tree, _) = line(8, 1200.0);
        let lib = BufferLibrary::paper_synthetic(8).unwrap();
        let plain = Solver::new(&tree, &lib).solve();
        let pol = PolaritySolver::new(&tree, &lib).solve().unwrap();
        assert!((plain.slack.picos() - pol.slack.picos()).abs() < 1e-9);
        assert_eq!(pol.inverter_count, 0);
        pol.verify(&tree, &lib, &[]).unwrap();
    }

    #[test]
    fn inverters_come_in_pairs_on_positive_sinks() {
        let (tree, _) = line(9, 1100.0);
        let lib = BufferLibrary::paper_synthetic_mixed(8).unwrap();
        let sol = PolaritySolver::new(&tree, &lib).solve().unwrap();
        assert_eq!(sol.inverter_count % 2, 0, "{:?}", sol.placements);
        sol.verify(&tree, &lib, &[]).unwrap();
    }

    #[test]
    fn negated_sink_forces_odd_inverter_count() {
        let (tree, sink) = line(9, 1100.0);
        let lib = BufferLibrary::paper_synthetic_mixed(8).unwrap();
        let mut solver = PolaritySolver::new(&tree, &lib);
        solver.require(sink, Polarity::Negative).unwrap();
        let sol = solver.solve().unwrap();
        assert_eq!(sol.inverter_count % 2, 1, "{:?}", sol.placements);
        sol.verify(&tree, &lib, &[sink]).unwrap();
    }

    #[test]
    fn negated_sink_without_inverters_is_infeasible() {
        let (tree, sink) = line(5, 1000.0);
        let lib = BufferLibrary::paper_synthetic(4).unwrap(); // no inverters
        let mut solver = PolaritySolver::new(&tree, &lib);
        solver.require(sink, Polarity::Negative).unwrap();
        assert_eq!(solver.solve().unwrap_err(), PolarityError::Infeasible);
    }

    #[test]
    fn solves_and_verifies_under_a_non_elmore_model_and_a_slew_limit() {
        let (tree, sink) = line(10, 500.0);
        let lib = BufferLibrary::paper_synthetic_mixed(4).unwrap();
        let (model, limit) = (DelayModel::ScaledElmore(1.1), Seconds::from_pico(80.0));
        let options = SolverOptions {
            delay_model: model,
            slew_limit: Some(limit),
            ..SolverOptions::default()
        };
        let mut solver = PolaritySolver::new(&tree, &lib).with_options(options);
        solver.require(sink, Polarity::Negative).unwrap();
        let sol = solver.solve().unwrap();
        assert!(sol.slew_ok);
        assert_eq!(sol.model, model);
        sol.verify(&tree, &lib, &[sink]).unwrap();
        // The prediction is the model's, not Elmore's.
        let as_elmore = PolaritySolution {
            model: DelayModel::Elmore,
            ..sol.clone()
        };
        assert!(as_elmore.verify(&tree, &lib, &[sink]).is_err());
        let pairs: Vec<_> = sol.placements.iter().map(|p| (p.node, p.buffer)).collect();
        let report = elmore::evaluate_with(&tree, &lib, &pairs, model, 1.0).unwrap();
        assert!(report.max_slew <= limit);
    }

    #[test]
    fn require_rejects_non_sinks() {
        let (tree, _) = line(3, 800.0);
        let lib = BufferLibrary::paper_synthetic(2).unwrap();
        let mut solver = PolaritySolver::new(&tree, &lib);
        let err = solver.require(tree.root(), Polarity::Negative).unwrap_err();
        assert_eq!(err, PolarityError::NotASink(tree.root()));
        assert!(solver.negated_sinks().is_empty());
    }

    #[test]
    fn inverters_help_when_they_are_faster() {
        // Library where the inverter is strictly better than the buffer of
        // the same strength: the polarity solver should exploit pairs.
        let lib = BufferLibrary::new(vec![
            BufferType::new(
                "buf",
                Ohms::new(400.0),
                Farads::from_femto(8.0),
                Seconds::from_pico(40.0),
            ),
            BufferType::new(
                "inv",
                Ohms::new(400.0),
                Farads::from_femto(8.0),
                Seconds::from_pico(12.0),
            )
            .with_inverting(true),
        ])
        .unwrap();
        let (tree, _) = line(12, 1500.0);
        let plain_lib = lib.subset(&[fastbuf_buflib::BufferTypeId::new(0)]).unwrap();
        let buf_only = Solver::new(&tree, &plain_lib).solve();
        let with_inv = PolaritySolver::new(&tree, &lib).solve().unwrap();
        assert!(
            with_inv.slack.picos() > buf_only.slack.picos() + 1.0,
            "inverter pairs should win: {} vs {}",
            with_inv.slack,
            buf_only.slack
        );
        assert!(with_inv.inverter_count >= 2);
        with_inv.verify(&tree, &lib, &[]).unwrap();
    }

    #[test]
    fn lillis_and_lishi_agree_with_polarity() {
        let lib = BufferLibrary::paper_synthetic_mixed(12).unwrap();
        for sites in [4usize, 10, 20] {
            let (tree, sink) = line(sites, 900.0);
            for negate in [false, true] {
                let mut a = PolaritySolver::new(&tree, &lib).algorithm(Algorithm::Lillis);
                let mut b = PolaritySolver::new(&tree, &lib).algorithm(Algorithm::LiShi);
                if negate {
                    a.require(sink, Polarity::Negative).unwrap();
                    b.require(sink, Polarity::Negative).unwrap();
                }
                let sa = a.solve().unwrap();
                let sb = b.solve().unwrap();
                assert!(
                    (sa.slack.picos() - sb.slack.picos()).abs() < 1e-6,
                    "sites={sites} negate={negate}: {} vs {}",
                    sa.slack,
                    sb.slack
                );
            }
        }
    }

    #[test]
    fn multi_pin_mixed_polarity() {
        let tech = Technology::tsmc180_like();
        let lib = BufferLibrary::paper_synthetic_mixed(8).unwrap();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(250.0)));
        let s0 = b.buffer_site();
        let tee = b.internal();
        let s1 = b.buffer_site();
        let s2 = b.buffer_site();
        let k_pos = b.sink(Farads::from_femto(10.0), Seconds::from_pico(900.0));
        let k_neg = b.sink(Farads::from_femto(12.0), Seconds::from_pico(950.0));
        b.connect(src, s0, Wire::from_length(&tech, Microns::new(1500.0)))
            .unwrap();
        b.connect(s0, tee, Wire::from_length(&tech, Microns::new(600.0)))
            .unwrap();
        b.connect(tee, s1, Wire::from_length(&tech, Microns::new(1800.0)))
            .unwrap();
        b.connect(s1, k_pos, Wire::from_length(&tech, Microns::new(300.0)))
            .unwrap();
        b.connect(tee, s2, Wire::from_length(&tech, Microns::new(2200.0)))
            .unwrap();
        b.connect(s2, k_neg, Wire::from_length(&tech, Microns::new(300.0)))
            .unwrap();
        let tree = b.build().unwrap();

        let mut solver = PolaritySolver::new(&tree, &lib);
        solver.require(k_neg, Polarity::Negative).unwrap();
        let sol = solver.solve().unwrap();
        sol.verify(&tree, &lib, &[k_neg]).unwrap();
        assert!(sol.inverter_count >= 1);
    }

    #[test]
    fn verifying_against_another_tree_is_a_typed_error() {
        let (tree, _) = line(8, 1200.0);
        let lib = BufferLibrary::paper_synthetic_mixed(4).unwrap();
        let pol = PolaritySolver::new(&tree, &lib).solve().unwrap();
        assert!(!pol.placements.is_empty());
        // A shorter line has no node for the far placements.
        let (short, _) = line(1, 1200.0);
        let err = pol.verify(&short, &lib, &[]).unwrap_err();
        assert!(matches!(err, PolarityError::Verify(VerifyError::Tree(_))));
        assert!(
            err.to_string().starts_with("placements are illegal: "),
            "{err}"
        );
        // A longer net measures a different slack.
        let (long, _) = line(8, 1500.0);
        let err = pol.verify(&long, &lib, &[]).unwrap_err();
        assert!(matches!(
            err,
            PolarityError::Verify(VerifyError::SlackMismatch { .. })
        ));
        assert!(err.to_string().starts_with("predicted slack "), "{err}");
    }

    #[test]
    fn polarity_flip_and_error_display() {
        assert_eq!(Polarity::Positive.flipped(), Polarity::Negative);
        assert_eq!(Polarity::Negative.flipped(), Polarity::Positive);
        assert_eq!(Polarity::default(), Polarity::Positive);
        assert!(PolarityError::Infeasible.to_string().contains("polarity"));
        assert!(PolarityError::WrongPolarity(NodeId::new(3))
            .to_string()
            .contains("n3"));
    }

    #[test]
    fn check_polarity_detects_violations() {
        let (tree, sink) = line(2, 500.0);
        let lib = BufferLibrary::paper_synthetic_mixed(4).unwrap();
        // One inverter alone violates a positive sink.
        let inv = lib
            .iter()
            .find(|(_, b)| b.is_inverting())
            .map(|(id, _)| id)
            .unwrap();
        let site = tree.buffer_sites().next().unwrap();
        assert_eq!(
            check_polarity(&tree, &lib, &[(site, inv)], &[]),
            Err(PolarityError::WrongPolarity(sink))
        );
        // ...but satisfies a negated sink.
        assert_eq!(check_polarity(&tree, &lib, &[(site, inv)], &[sink]), Ok(()));
    }
}
