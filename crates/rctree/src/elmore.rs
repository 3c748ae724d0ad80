//! Forward Elmore-delay evaluation of a routing tree under a *fixed* buffer
//! assignment.
//!
//! This module answers: *given these buffer placements, what is the slack?*
//! It is intentionally implemented as a plain forward timing analysis —
//! a bottom-up load pass followed by a top-down arrival pass — with no
//! candidate lists, pruning, or dynamic programming, so it serves as an
//! independent oracle for the DP solvers in `fastbuf-core`: the slack a
//! solver *predicts* must equal the slack this module *measures* for the
//! reconstructed placements.
//!
//! Delay model (identical to the paper's §2):
//!
//! * wire `e` driving downstream load `C`: `D(e) = R(e)·(C(e)/2 + C)`
//!   (times `k` under [`DelayModel::ScaledElmore`]);
//! * buffer `B` driving downstream load `C`: `d = K(B) + R(B)·C`, and the
//!   capacitance seen upstream of the buffer becomes its input capacitance;
//! * driver at the source: `K_d + R_d · C_root`.

use fastbuf_buflib::units::{Farads, Seconds};
use fastbuf_buflib::{BufferLibrary, BufferTypeId};

use crate::delay::DelayModel;
use crate::error::TreeError;
use crate::node::{NodeId, NodeKind};
use crate::tree::RoutingTree;

/// Result of evaluating a buffer assignment.
#[derive(Clone, Debug)]
pub struct EvalReport {
    /// The net slack: `min over sinks (RAT − arrival)`.
    pub slack: Seconds,
    /// The sink attaining the minimum slack.
    pub critical_sink: NodeId,
    /// Slack of every sink, in tree index order.
    pub sink_slacks: Vec<(NodeId, Seconds)>,
    /// Number of buffers in the assignment.
    pub buffer_count: usize,
    /// Total cost of the assignment (sum of buffer costs).
    pub total_cost: f64,
    /// Capacitive load presented to the source driver.
    pub root_load: Farads,
    /// Worst forward-propagated output slew over every stage endpoint
    /// (buffer inputs and sinks) — see [`crate::delay`] for the slew model.
    pub max_slew: Seconds,
    /// The endpoint attaining [`EvalReport::max_slew`].
    pub worst_slew_node: NodeId,
    /// The factor every sink's RAT was multiplied by (see [`evaluate_with`]).
    pub rat_derate: f64,
}

impl EvalReport {
    /// Sink-to-sink skew: the spread `max − min` of the sink arrivals
    /// (`RAT × rat_derate − slack`, with the RATs of `tree`, the tree evaluated).
    pub fn skew(&self, tree: &RoutingTree) -> Seconds {
        let arrivals = self
            .sink_slacks
            .iter()
            .map(|&(node, slack)| derated_rat(tree, node, self.rat_derate) - slack.value());
        let (lo, hi) = arrivals.fold((f64::MAX, f64::MIN), |(lo, hi), a| (lo.min(a), hi.max(a)));
        Seconds::new(hi - lo)
    }
}

/// Evaluates `placements` (pairs of node and buffer type) on `tree`.
///
/// # Errors
///
/// [`TreeError::UnknownNode`] if a placement names a node outside the tree;
/// [`TreeError::IllegalAssignment`] if a placement sits on a non-site node,
/// uses a buffer type the site constraint forbids, or repeats a node.
///
/// # Example
///
/// ```
/// use fastbuf_buflib::{BufferLibrary, Driver, Technology};
/// use fastbuf_buflib::units::{Farads, Microns, Ohms, Seconds};
/// use fastbuf_rctree::{TreeBuilder, Wire};
/// use fastbuf_rctree::elmore::evaluate;
///
/// let tech = Technology::tsmc180_like();
/// let lib = BufferLibrary::paper_synthetic(4)?;
/// let mut b = TreeBuilder::new();
/// let src = b.source(Driver::new(Ohms::new(200.0)));
/// let mid = b.buffer_site();
/// let snk = b.sink(Farads::from_femto(10.0), Seconds::from_pico(800.0));
/// b.connect(src, mid, Wire::from_length(&tech, Microns::new(5000.0)))?;
/// b.connect(mid, snk, Wire::from_length(&tech, Microns::new(5000.0)))?;
/// let tree = b.build()?;
///
/// let unbuffered = evaluate(&tree, &lib, &[])?;
/// let buffered = evaluate(&tree, &lib, &[(mid, lib.by_resistance_desc()[3])])?;
/// assert!(buffered.slack > unbuffered.slack, "buffering a long 2-pin wire helps");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn evaluate(
    tree: &RoutingTree,
    library: &BufferLibrary,
    placements: &[(NodeId, BufferTypeId)],
) -> Result<EvalReport, TreeError> {
    evaluate_with(tree, library, placements, DelayModel::Elmore, 1.0)
}

/// The required arrival time of `sink` times `rat_derate`: the one RAT
/// read of the evaluator, the same product the DP seeds the sink with.
fn derated_rat(tree: &RoutingTree, sink: NodeId, rat_derate: f64) -> f64 {
    match tree.kind(sink) {
        NodeKind::Sink {
            required_arrival, ..
        } => required_arrival.value() * rat_derate,
        _ => unreachable!("only sinks have a required arrival time"),
    }
}

/// [`evaluate`] under `model`, which scales the wire term only (gate
/// delays stay `K + R·C` whatever the model), with every sink's RAT
/// multiplied by `rat_derate` (`1.0` is exact). The report carries the worst
/// forward-propagated output slew, computed stage by stage: a stage starts
/// at the source driver or at a buffer output and ends at the next buffer
/// inputs / sinks downstream.
///
/// # Errors
///
/// Same as [`evaluate`].
pub fn evaluate_with(
    tree: &RoutingTree,
    library: &BufferLibrary,
    placements: &[(NodeId, BufferTypeId)],
    model: DelayModel,
    rat_derate: f64,
) -> Result<EvalReport, TreeError> {
    let n = tree.node_count();
    let mut assigned: Vec<Option<BufferTypeId>> = vec![None; n];
    let mut total_cost = 0.0;
    for &(node, buf) in placements {
        if node.index() >= n {
            return Err(TreeError::UnknownNode { node });
        }
        if !tree.site_constraint(node).allows(buf) || assigned[node.index()].is_some() {
            return Err(TreeError::IllegalAssignment { node });
        }
        assigned[node.index()] = Some(buf);
        total_cost += library.get(buf).cost();
    }

    // Pass 1 (post-order): stage-local load at each node, and the load each
    // node presents to its parent ("visible": the buffer input cap if the
    // node is buffered).
    let mut load = vec![Farads::ZERO; n];
    let mut visible = vec![Farads::ZERO; n];
    for &node in tree.postorder() {
        let i = node.index();
        load[i] = match tree.kind(node) {
            NodeKind::Sink { capacitance, .. } => *capacitance,
            _ => tree
                .children(node)
                .iter()
                .map(|&c| {
                    tree.wire_to_parent(c)
                        .expect("child has a wire")
                        .capacitance()
                        + visible[c.index()]
                })
                .sum(),
        };
        visible[i] = match assigned[i] {
            Some(buf) => library.get(buf).input_capacitance(),
            None => load[i],
        };
    }

    // Pass 2 (top-down, parents before children): arrival time at each
    // node's *output* (after its buffer, if any), plus per-stage slew
    // bookkeeping. A stage is rooted at the source or at a buffered node;
    // `stage_delay` is the in-stage wire delay from the stage driver's
    // output to this node's input, `stage_root` the driving node.
    let mut arrival = vec![Seconds::ZERO; n];
    let mut stage_delay = vec![0.0f64; n];
    let mut stage_root = vec![tree.root(); n];
    let mut max_slew = f64::NEG_INFINITY;
    let mut worst_slew_node = tree.root();
    for &node in tree.postorder().iter().rev() {
        let i = node.index();
        let at_input = match tree.parent(node) {
            None => {
                let d = tree.driver();
                Seconds::new(d.intrinsic_delay().value() + d.resistance().value() * load[i].value())
            }
            Some(p) => {
                let w = tree.wire_to_parent(node).expect("non-root has a wire");
                let wd = model.wire_delay(
                    w.resistance().value(),
                    w.capacitance().value(),
                    visible[i].value(),
                );
                let pi = p.index();
                if assigned[pi].is_some() {
                    stage_delay[i] = wd;
                    stage_root[i] = p;
                } else {
                    stage_delay[i] = stage_delay[pi] + wd;
                    stage_root[i] = stage_root[pi];
                }
                arrival[pi] + Seconds::new(wd)
            }
        };
        // Stage endpoints are buffer inputs and sinks: measure the slew
        // the stage driver produces there.
        if assigned[i].is_some() || tree.kind(node).is_sink() {
            let root = stage_root[i];
            let (slew0, r) = match assigned[root.index()] {
                Some(buf) => {
                    let b = library.get(buf);
                    // The stage driver's resistance is derated by its
                    // node's local variation (nominal ×1.0 is bit-exact).
                    let drive = tree.site_variation(root).drive_scale();
                    (
                        b.output_slew().value(),
                        b.driving_resistance().value() * drive,
                    )
                }
                None => (0.0, tree.driver().resistance().value()),
            };
            let slew = model.slew(slew0, r, load[root.index()].value(), stage_delay[i]);
            if slew > max_slew {
                max_slew = slew;
                worst_slew_node = node;
            }
        }
        arrival[i] = match assigned[i] {
            Some(buf) => {
                let b = library.get(buf);
                // Local process variation derates this buffer's intrinsic
                // delay and drive — the forward mirror of the DP's derated
                // `AddBuffer` (nominal ×1.0 is bit-exact).
                let v = tree.site_variation(node);
                at_input
                    + Seconds::new(
                        b.intrinsic_delay().value() * v.delay_scale()
                            + b.driving_resistance().value() * v.drive_scale() * load[i].value(),
                    )
            }
            None => at_input,
        };
    }

    let mut sink_slacks = Vec::with_capacity(tree.sink_count());
    let mut slack = Seconds::new(f64::INFINITY);
    let mut critical_sink = tree.root();
    for s in tree.sinks() {
        let sl = Seconds::new(derated_rat(tree, s, rat_derate)) - arrival[s.index()];
        sink_slacks.push((s, sl));
        if sl < slack {
            slack = sl;
            critical_sink = s;
        }
    }

    Ok(EvalReport {
        slack,
        critical_sink,
        sink_slacks,
        buffer_count: placements.len(),
        total_cost,
        root_load: load[tree.root().index()],
        max_slew: Seconds::new(max_slew),
        worst_slew_node,
        rat_derate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Wire;
    use crate::tree::TreeBuilder;
    use fastbuf_buflib::units::{Microns, Ohms};
    use fastbuf_buflib::{BufferType, Driver, Technology};

    fn lib1() -> BufferLibrary {
        BufferLibrary::new(vec![BufferType::new(
            "b",
            Ohms::new(100.0),
            Farads::from_femto(5.0),
            Seconds::from_pico(20.0),
        )])
        .unwrap()
    }

    /// Driver(200Ω) -- wire(100Ω, 10fF) --> sink(5fF, RAT 100ps).
    #[test]
    fn two_pin_hand_computed() {
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(200.0)));
        let s = b.sink(Farads::from_femto(5.0), Seconds::from_pico(100.0));
        b.connect(
            src,
            s,
            Wire::new(Ohms::new(100.0), Farads::from_femto(10.0)),
        )
        .unwrap();
        let tree = b.build().unwrap();
        let r = evaluate(&tree, &BufferLibrary::empty(), &[]).unwrap();
        // Root load = 10 + 5 = 15 fF; driver delay = 200Ω·15fF = 3 ps.
        // Wire delay = 100Ω·(5 + 5) fF = 1 ps. Arrival = 4 ps. Slack = 96 ps.
        assert!((r.root_load.femtos() - 15.0).abs() < 1e-9);
        assert!((r.slack.picos() - 96.0).abs() < 1e-9);
        assert_eq!(r.critical_sink, s);
        assert_eq!(r.buffer_count, 0);
    }

    /// Buffer halves a long 2-pin line; hand-computed arrival.
    #[test]
    fn buffered_two_pin_hand_computed() {
        let lib = lib1();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(200.0)));
        let mid = b.buffer_site();
        let s = b.sink(Farads::from_femto(5.0), Seconds::from_pico(1000.0));
        let w = Wire::new(Ohms::new(400.0), Farads::from_femto(40.0));
        b.connect(src, mid, w).unwrap();
        b.connect(mid, s, w).unwrap();
        let tree = b.build().unwrap();

        let unbuf = evaluate(&tree, &lib, &[]).unwrap();
        // Unbuffered: root load = 40+40+5 = 85 fF. Driver: 200·85 fF = 17 ps.
        // Wire1: 400·(20+45) = 26 ps. Wire2: 400·(20+5) = 10 ps. Arrival 53 ps.
        assert!((unbuf.slack.picos() - (1000.0 - 53.0)).abs() < 1e-9);

        let id = BufferTypeId::new(0);
        let buf = evaluate(&tree, &lib, &[(mid, id)]).unwrap();
        // Buffered: root load = 40 + 5(buf cin) = 45 fF. Driver: 200·45 = 9 ps.
        // Wire1: 400·(20+5) = 10 ps. Buffer: 20 + 100·(40+5) fF = 24.5 ps.
        // Wire2: 400·(20+5) = 10 ps. Arrival = 53.5 ps.
        assert!((buf.slack.picos() - (1000.0 - 53.5)).abs() < 1e-9);
        assert!((buf.root_load.femtos() - 45.0).abs() < 1e-9);
        assert_eq!(buf.buffer_count, 1);
        assert_eq!(buf.total_cost, 1.0);
    }

    /// A buffer on one branch decouples its subtree from the other branch.
    #[test]
    fn buffer_decouples_sibling_branch() {
        let lib = lib1();
        let mk = |with_site_buffered: bool| {
            let mut b = TreeBuilder::new();
            let src = b.source(Driver::new(Ohms::new(500.0)));
            let tee = b.internal();
            let site = b.buffer_site();
            let fast = b.sink(Farads::from_femto(2.0), Seconds::from_pico(50.0));
            let slow = b.sink(Farads::from_femto(100.0), Seconds::from_pico(5000.0));
            b.connect(
                src,
                tee,
                Wire::new(Ohms::new(50.0), Farads::from_femto(4.0)),
            )
            .unwrap();
            b.connect(
                tee,
                fast,
                Wire::new(Ohms::new(50.0), Farads::from_femto(4.0)),
            )
            .unwrap();
            b.connect(tee, site, Wire::zero()).unwrap();
            b.connect(
                site,
                slow,
                Wire::new(Ohms::new(800.0), Farads::from_femto(80.0)),
            )
            .unwrap();
            let tree = b.build().unwrap();
            let placements: &[(NodeId, BufferTypeId)] = if with_site_buffered {
                &[(site, BufferTypeId::new(0))]
            } else {
                &[]
            };
            let (rep, fast_id) = (evaluate(&tree, &lib, placements).unwrap(), fast);
            rep.sink_slacks
                .iter()
                .find(|(n, _)| *n == fast_id)
                .unwrap()
                .1
        };
        let fast_slack_unbuffered = mk(false);
        let fast_slack_buffered = mk(true);
        // Shielding the 180 fF branch behind a 5 fF buffer input must help
        // the fast sink substantially.
        assert!(fast_slack_buffered > fast_slack_unbuffered + Seconds::from_pico(10.0));
    }

    #[test]
    fn illegal_assignments_rejected() {
        let lib = lib1();
        let tech = Technology::tsmc180_like();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::default());
        let mid = b.internal(); // NOT a site
        let s = b.sink(Farads::ZERO, Seconds::ZERO);
        b.connect(src, mid, Wire::from_length(&tech, Microns::new(10.0)))
            .unwrap();
        b.connect(mid, s, Wire::from_length(&tech, Microns::new(10.0)))
            .unwrap();
        let tree = b.build().unwrap();

        let id = BufferTypeId::new(0);
        assert_eq!(
            evaluate(&tree, &lib, &[(mid, id)]).unwrap_err(),
            TreeError::IllegalAssignment { node: mid }
        );
        let ghost = NodeId::new(42);
        assert_eq!(
            evaluate(&tree, &lib, &[(ghost, id)]).unwrap_err(),
            TreeError::UnknownNode { node: ghost }
        );
    }

    #[test]
    fn duplicate_placement_rejected() {
        let lib = lib1();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::default());
        let mid = b.buffer_site();
        let s = b.sink(Farads::ZERO, Seconds::ZERO);
        b.connect(src, mid, Wire::zero()).unwrap();
        b.connect(mid, s, Wire::zero()).unwrap();
        let tree = b.build().unwrap();
        let id = BufferTypeId::new(0);
        assert_eq!(
            evaluate(&tree, &lib, &[(mid, id), (mid, id)]).unwrap_err(),
            TreeError::IllegalAssignment { node: mid }
        );
    }

    #[test]
    fn subset_constraint_enforced() {
        use fastbuf_buflib::BufferSet;
        use std::sync::Arc;
        let lib = BufferLibrary::paper_synthetic(4).unwrap();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::default());
        let mut allowed = BufferSet::empty(4);
        allowed.insert(BufferTypeId::new(1));
        let mid = b.internal_with(crate::node::SiteConstraint::Subset(Arc::new(allowed)));
        let s = b.sink(Farads::ZERO, Seconds::ZERO);
        b.connect(src, mid, Wire::zero()).unwrap();
        b.connect(mid, s, Wire::zero()).unwrap();
        let tree = b.build().unwrap();

        assert!(evaluate(&tree, &lib, &[(mid, BufferTypeId::new(1))]).is_ok());
        assert_eq!(
            evaluate(&tree, &lib, &[(mid, BufferTypeId::new(2))]).unwrap_err(),
            TreeError::IllegalAssignment { node: mid }
        );
    }

    #[test]
    fn slews_hand_computed_per_stage() {
        use crate::delay::LN9;
        let lib = lib1();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(200.0)));
        let mid = b.buffer_site();
        let s = b.sink(Farads::from_femto(5.0), Seconds::from_pico(1000.0));
        let w = Wire::new(Ohms::new(400.0), Farads::from_femto(40.0));
        b.connect(src, mid, w).unwrap();
        b.connect(mid, s, w).unwrap();
        let tree = b.build().unwrap();

        // Unbuffered: one stage, endpoint = sink.
        // stage wire delay = 400·(20+45) + 400·(20+5) = 36 ps;
        // slew = ln9·(200·85 fF + 36 ps) = ln9·53 ps.
        let unbuf = evaluate(&tree, &lib, &[]).unwrap();
        assert!((unbuf.max_slew.picos() - LN9 * 53.0).abs() < 1e-9);
        assert_eq!(unbuf.worst_slew_node, s);

        // Buffered at mid: stage 1 ends at the buffer input
        // (ln9·(200·45 + 10) = ln9·19 ps... wait, 200·45 fF = 9 ps), stage 2
        // at the sink (ln9·(100·45 fF + 10 ps) = ln9·14.5 ps).
        let buf = evaluate(&tree, &lib, &[(mid, BufferTypeId::new(0))]).unwrap();
        assert!(
            (buf.max_slew.picos() - LN9 * 19.0).abs() < 1e-9,
            "{}",
            buf.max_slew
        );
        assert_eq!(buf.worst_slew_node, mid);
        // Buffering strictly reduces the worst slew here.
        assert!(buf.max_slew < unbuf.max_slew);
    }

    #[test]
    fn buffer_output_slew_adds_to_stage_slew() {
        use crate::delay::LN9;
        let lib = BufferLibrary::new(vec![BufferType::new(
            "b",
            Ohms::new(100.0),
            Farads::from_femto(5.0),
            Seconds::from_pico(20.0),
        )
        .with_output_slew(Seconds::from_pico(20.0))])
        .unwrap();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(200.0)));
        let mid = b.buffer_site();
        let s = b.sink(Farads::from_femto(5.0), Seconds::from_pico(1000.0));
        let w = Wire::new(Ohms::new(400.0), Farads::from_femto(40.0));
        b.connect(src, mid, w).unwrap();
        b.connect(mid, s, w).unwrap();
        let tree = b.build().unwrap();
        let buf = evaluate(&tree, &lib, &[(mid, BufferTypeId::new(0))]).unwrap();
        // Driver stage ends at the buffer input: ln9·(200·45 fF + 10 ps) =
        // ln9·19 ≈ 41.7 ps. Buffer stage ends at the sink and now carries
        // the intrinsic output slew: 20 + ln9·14.5 ≈ 51.9 ps — the worst.
        let expected = 20.0 + LN9 * 14.5;
        assert!(
            (buf.max_slew.picos() - expected).abs() < 1e-9,
            "{} vs {expected}",
            buf.max_slew.picos()
        );
        assert_eq!(buf.worst_slew_node, s);
    }

    #[test]
    fn scaled_elmore_shrinks_wire_dominated_delay() {
        let tech = Technology::tsmc180_like();
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(100.0)));
        let s = b.sink(Farads::from_femto(5.0), Seconds::from_pico(1000.0));
        b.connect(src, s, Wire::from_length(&tech, Microns::new(8000.0)))
            .unwrap();
        let tree = b.build().unwrap();
        let lib = BufferLibrary::empty();
        let elmore = evaluate(&tree, &lib, &[]).unwrap();
        let scaled = evaluate_with(&tree, &lib, &[], DelayModel::SCALED_ELMORE, 1.0).unwrap();
        // Less wire delay -> more slack, smaller slew.
        assert!(scaled.slack > elmore.slack);
        assert!(scaled.max_slew < elmore.max_slew);
    }

    #[test]
    fn multi_sink_slacks_reported_per_sink() {
        let mut b = TreeBuilder::new();
        let src = b.source(Driver::new(Ohms::new(100.0)));
        let tee = b.internal();
        let s1 = b.sink(Farads::from_femto(1.0), Seconds::from_pico(10.0));
        let s2 = b.sink(Farads::from_femto(1.0), Seconds::from_pico(500.0));
        b.connect(
            src,
            tee,
            Wire::new(Ohms::new(10.0), Farads::from_femto(2.0)),
        )
        .unwrap();
        b.connect(tee, s1, Wire::zero()).unwrap();
        b.connect(tee, s2, Wire::zero()).unwrap();
        let tree = b.build().unwrap();
        let r = evaluate(&tree, &BufferLibrary::empty(), &[]).unwrap();
        assert_eq!(r.sink_slacks.len(), 2);
        assert_eq!(r.critical_sink, s1);
        // Same arrival, different RAT: slack gap equals RAT gap.
        let gap = r.sink_slacks[1].1 - r.sink_slacks[0].1;
        assert!((gap.picos() - 490.0).abs() < 1e-9);
    }
}
