//! `objectives`: a fixed 1,024-sink clock placement through
//! `build_topology`, with a mixed b = 8 buffer/inverter library.
//!
//! Each op is four requests in a fixed order — bounded skew, polarity,
//! slack-vs-cost and an 8-sample Monte-Carlo yield — the three mirrored
//! recursions plus the variation path, which no other workload runs.

use fastbuf_api::{Objective, Outcome, Session, SolveError, VariationSpec};
use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::cost::{CostFrontier, CostSolver};
use fastbuf_core::polarity::{Polarity, PolaritySolution, PolaritySolver};
use fastbuf_core::skew::{SkewSolution, SkewSolver};
use fastbuf_netgen::{build_topology, CtsPlacementSpec, CtsTopologySpec};
use fastbuf_rctree::{NodeId, RoutingTree};

use super::{counters, maybe_span, p50_ms, same_bits, Layer, Workload, INPUT_SEED};
use crate::trace::{Tracer, SETUP_OP};

const SINKS: usize = 1024;
const LIBRARY: usize = 8;
const MAX_COST: u32 = 2;
const SAMPLES: usize = 8;
const QUANTILE: f64 = 0.1;
const SIGMA: f64 = 0.05;
const LOCALITY: f64 = 0.1;

pub struct Objectives {
    tree: RoutingTree,
    library: BufferLibrary,
    session: Session,
    /// Half the unbounded skew, found by a solve in `prepare`.
    bound: Seconds,
    /// Every other sink, in placement order, wants inverted polarity.
    negated: Vec<NodeId>,
    variation: VariationSpec,
    skew: SkewSolution,
    polarity: PolaritySolution,
    cost: CostFrontier,
    yield_ref: Outcome,
}

/// What set-up builds: the clock tree, its library and the op inputs.
pub struct Inputs {
    tree: RoutingTree,
    library: BufferLibrary,
    session: Session,
    negated: Vec<NodeId>,
    variation: VariationSpec,
}

/// The four outcomes of one op, in request order.
pub type Four = [Result<Outcome, SolveError>; 4];

impl Workload for Objectives {
    const NAME: &'static str = "objectives";
    const RATE: f64 = 28.0;
    const SETUPS: usize = 21;
    type Setup = Inputs;
    type Out = Four;

    fn setup(_ops: usize, tr: &mut Tracer) -> Result<Inputs, String> {
        let topo = tr.span("netgen.generate", SETUP_OP, |_| {
            let placements = CtsPlacementSpec {
                sinks: SINKS,
                seed: INPUT_SEED,
                ..CtsPlacementSpec::default()
            }
            .generate();
            build_topology(&placements, &CtsTopologySpec::default())
        })?;
        let library = BufferLibrary::paper_synthetic_mixed(LIBRARY).map_err(|e| e.to_string())?;
        Ok(Inputs {
            negated: topo.sinks.iter().copied().skip(1).step_by(2).collect(),
            variation: VariationSpec::gaussian(SIGMA, LOCALITY, INPUT_SEED),
            session: Session::new(library.clone()),
            tree: topo.tree,
            library,
        })
    }

    fn prepare(inputs: Inputs, tr: &mut Tracer) -> Result<Self, String> {
        let Inputs {
            tree,
            library,
            session,
            negated,
            variation,
        } = inputs;
        let (bound, skew, polarity, cost, yield_ref) =
            tr.span("reference", SETUP_OP, |_| -> Result<_, String> {
                let free = SkewSolver::new(&tree, &library).solve();
                let bound = Seconds::new(free.skew.value() * 0.5);
                let skew = skew_solver(&tree, &library, bound).solve();
                let polarity = polarity_solver(&tree, &library, &negated)?
                    .solve()
                    .map_err(|e| e.to_string())?;
                let cost = CostSolver::new(&tree, &library)
                    .max_cost(MAX_COST)
                    .solve()
                    .map_err(|e| e.to_string())?;
                let yield_ref = session
                    .request(&tree)
                    .objective(yield_objective())
                    .variation(variation.clone())
                    .workers(1)
                    .solve()
                    .map_err(|e| e.to_string())?;
                Ok((bound, skew, polarity, cost, yield_ref))
            })?;
        Ok(Objectives {
            tree,
            library,
            session,
            bound,
            negated,
            variation,
            skew,
            polarity,
            cost,
            yield_ref,
        })
    }

    fn op(&mut self, i: usize, mut tr: Option<&mut Tracer>) -> Self::Out {
        let request = |objective: Objective| {
            self.session
                .request(&self.tree)
                .objective(objective)
                .workers(1)
        };
        [
            maybe_span(&mut tr, "api.skew", i, || {
                request(Objective::SkewTarget {
                    max_skew: Some(self.bound),
                })
                .solve()
            }),
            maybe_span(&mut tr, "api.polarity", i, || {
                request(Objective::PolarityAware {
                    negated_sinks: self.negated.clone(),
                })
                .solve()
            }),
            maybe_span(&mut tr, "api.cost", i, || {
                request(Objective::SlackCost { max_cost: MAX_COST }).solve()
            }),
            maybe_span(&mut tr, "api.yield", i, || {
                request(yield_objective())
                    .variation(self.variation.clone())
                    .solve()
            }),
        ]
    }

    fn check(&mut self, _i: usize, out: Self::Out) -> Result<(), String> {
        let [skew, polarity, cost, yielded] = out.map(|o| o.map_err(|e| e.to_string()));
        let skew = skew?;
        self.check_skew(skew.scenarios[0].skew().ok_or("no skew solution")?)?;
        let polarity = polarity?;
        self.check_polarity(
            polarity.scenarios[0]
                .polarity()
                .ok_or("no polarity solution")?,
        )?;
        let cost = cost?;
        self.check_cost(cost.scenarios[0].frontier().ok_or("no cost frontier")?)?;
        let got = yielded?;
        let got = got.scenarios[0].variation().ok_or("no yield outcome")?;
        let want = self.yield_ref.scenarios[0]
            .variation()
            .ok_or("no yield reference")?;
        if got.samples != want.samples || got.summary != want.summary {
            return Err("yield samples or summary differ from the reference".to_owned());
        }
        Ok(())
    }

    fn replay(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let (tree, library, op) = (&self.tree, &self.library, i as u64);
        let skew = tr.span("core.skew", op, |_| {
            skew_solver(tree, library, self.bound).solve()
        });
        self.check_skew(&skew)?;
        let polarity = tr.span("core.polarity", op, |_| {
            polarity_solver(tree, library, &self.negated)?
                .solve()
                .map_err(|e| e.to_string())
        })?;
        self.check_polarity(&polarity)?;
        let cost = tr.span("core.cost", op, |_| {
            CostSolver::new(tree, library).max_cost(MAX_COST).solve()
        });
        self.check_cost(&cost.map_err(|e| e.to_string())?)
    }

    fn layers(&self, tr: &Tracer) -> Vec<Layer> {
        vec![
            Layer::new("core.skew_ms", "ms", p50_ms(tr, "core.skew")),
            Layer::new("core.polarity_ms", "ms", p50_ms(tr, "core.polarity")),
            Layer::new("core.cost_ms", "ms", p50_ms(tr, "core.cost")),
            Layer::new("api.skew_ms", "ms", p50_ms(tr, "api.skew")),
            Layer::new("api.polarity_ms", "ms", p50_ms(tr, "api.polarity")),
            Layer::new("api.cost_ms", "ms", p50_ms(tr, "api.cost")),
            Layer::new("api.yield_ms", "ms", p50_ms(tr, "api.yield")),
            Layer::count("core.skew_work", self.skew.stats.addbuffer_work()),
            Layer::count("core.polarity_work", self.polarity.stats.addbuffer_work()),
            Layer::count("core.cost_work", self.cost.stats.addbuffer_work()),
            Layer::new("netgen.generate_ms", "ms", p50_ms(tr, "netgen.generate")),
        ]
    }
}

fn yield_objective() -> Objective {
    Objective::YieldTarget {
        samples: SAMPLES,
        quantile: QUANTILE,
    }
}

fn skew_solver<'a>(
    tree: &'a RoutingTree,
    library: &'a BufferLibrary,
    bound: Seconds,
) -> SkewSolver<'a> {
    SkewSolver::new(tree, library).max_skew(Some(bound))
}

fn polarity_solver<'a>(
    tree: &'a RoutingTree,
    library: &'a BufferLibrary,
    negated: &[NodeId],
) -> Result<PolaritySolver<'a>, String> {
    let mut solver = PolaritySolver::new(tree, library);
    for &sink in negated {
        solver
            .require(sink, Polarity::Negative)
            .map_err(|e| e.to_string())?;
    }
    Ok(solver)
}

impl Objectives {
    fn check_skew(&self, got: &SkewSolution) -> Result<(), String> {
        same_bits("skew slack", got.slack.value(), self.skew.slack.value())?;
        same_bits("skew", got.skew.value(), self.skew.skew.value())?;
        if got.placements != self.skew.placements || got.skew_ok != self.skew.skew_ok {
            return Err("skew: placements or feasibility differ".to_owned());
        }
        if counters(&got.stats) != counters(&self.skew.stats) {
            return Err("skew: work counters differ".to_owned());
        }
        Ok(())
    }

    fn check_polarity(&self, got: &PolaritySolution) -> Result<(), String> {
        same_bits(
            "polarity slack",
            got.slack.value(),
            self.polarity.slack.value(),
        )?;
        if got.placements != self.polarity.placements
            || got.inverter_count != self.polarity.inverter_count
        {
            return Err("polarity: placements differ".to_owned());
        }
        if counters(&got.stats) != counters(&self.polarity.stats) {
            return Err("polarity: work counters differ".to_owned());
        }
        Ok(())
    }

    fn check_cost(&self, got: &CostFrontier) -> Result<(), String> {
        let want = &self.cost.points;
        if got.points.len() != want.len() {
            return Err("cost: frontier length differs".to_owned());
        }
        for (a, b) in got.points.iter().zip(want) {
            same_bits("cost frontier slack", a.slack.value(), b.slack.value())?;
            if a.cost != b.cost || a.placements != b.placements {
                return Err("cost: frontier point differs".to_owned());
            }
        }
        if counters(&got.stats) != counters(&self.cost.stats) {
            return Err("cost: work counters differ".to_owned());
        }
        Ok(())
    }
}
