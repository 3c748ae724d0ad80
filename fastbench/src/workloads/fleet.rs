//! `fleet`: 512 heavy-tailed nets (8 to 256 sinks) with b = 8, one
//! `BatchSolver::solve` at 2 workers per op.
//!
//! Most nets are small, so per-net request overhead, workspace reuse,
//! pool scheduling and short-list wire/merge work dominate and hull work
//! is small: the opposite end from `paper`.

use fastbuf_api::{Scenario, ScenarioResult, Session};
use fastbuf_batch::{BatchReport, BatchSolver};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{SolveStats, SolveWorkspace, Solver};
use fastbuf_netgen::SuiteSpec;
use fastbuf_rctree::RoutingTree;

use super::{counters, maybe_span, p50_ms, same_bits, Layer, Workload, INPUT_SEED};
use crate::trace::{Tracer, SETUP_OP};

const NETS: usize = 512;
const MAX_SINKS: usize = 256;
const LIBRARY: usize = 8;
const WORKERS: usize = 2;

pub struct Fleet {
    nets: Vec<RoutingTree>,
    library: BufferLibrary,
    session: Session,
    scenario: Scenario,
    /// Per net: slack bits and work counters of a sequential request.
    reference: Vec<(u64, SolveStats)>,
    workspace: SolveWorkspace,
}

impl Workload for Fleet {
    const NAME: &'static str = "fleet";
    const RATE: f64 = 70.0;
    const SETUPS: usize = 21;
    type Setup = (Vec<RoutingTree>, BufferLibrary, Session);
    type Out = BatchReport;

    fn setup(_ops: usize, tr: &mut Tracer) -> Result<Self::Setup, String> {
        let nets = tr.span("netgen.generate", SETUP_OP, |_| {
            SuiteSpec {
                nets: NETS,
                max_sinks: MAX_SINKS,
                seed: INPUT_SEED,
                ..SuiteSpec::default()
            }
            .build()
        });
        let library = BufferLibrary::paper_synthetic(LIBRARY).map_err(|e| e.to_string())?;
        let session = Session::new(library.clone());
        Ok((nets, library, session))
    }

    fn prepare((nets, library, session): Self::Setup, tr: &mut Tracer) -> Result<Self, String> {
        let mut fleet = Fleet {
            session,
            // The scenario `BatchSolver` solves every net under.
            scenario: Scenario::named("batch"),
            nets,
            library,
            reference: Vec::new(),
            workspace: SolveWorkspace::new(),
        };
        fleet.reference = tr.span("reference", SETUP_OP, |_| {
            (0..NETS)
                .map(|i| {
                    let s = fleet.request(i)?;
                    Ok((s.slack.value().to_bits(), s.stats))
                })
                .collect::<Result<_, String>>()
        })?;
        Ok(fleet)
    }

    fn op(&mut self, i: usize, mut tr: Option<&mut Tracer>) -> Self::Out {
        maybe_span(&mut tr, "batch.solve", i, || {
            BatchSolver::new(&self.nets, &self.library)
                .workers(WORKERS)
                .solve()
        })
    }

    fn check(&mut self, _i: usize, report: Self::Out) -> Result<(), String> {
        if report.outcomes.len() != NETS {
            return Err(format!(
                "batch solved {} of {NETS} nets",
                report.outcomes.len()
            ));
        }
        for (o, (bits, stats)) in report.outcomes.iter().zip(&self.reference) {
            same_bits(
                &format!("batch net {}", o.index),
                o.slack.value(),
                f64::from_bits(*bits),
            )?;
            if counters(&o.stats) != counters(stats) {
                return Err(format!("batch net {}: work counters differ", o.index));
            }
        }
        Ok(())
    }

    fn replay(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        tr.span("api.requests", i as u64, |_| {
            (0..NETS).try_for_each(|n| {
                let s = self.request(n)?;
                same_bits(
                    "sequential request",
                    s.slack.value(),
                    f64::from_bits(self.reference[n].0),
                )
            })
        })?;
        let (nets, library, ws) = (&self.nets, &self.library, &mut self.workspace);
        let core: Vec<u64> = tr.span("core.solves", i as u64, |_| {
            nets.iter()
                .map(|net| {
                    Solver::new(net, library)
                        .solve_with(ws)
                        .slack
                        .value()
                        .to_bits()
                })
                .collect()
        });
        for (n, bits) in core.into_iter().enumerate() {
            same_bits(
                "core solve",
                f64::from_bits(bits),
                f64::from_bits(self.reference[n].0),
            )?;
        }
        Ok(())
    }

    fn layers(&self, tr: &Tracer) -> Vec<Layer> {
        let batch = p50_ms(tr, "batch.solve");
        let api = p50_ms(tr, "api.requests");
        let core = p50_ms(tr, "core.solves");
        let sum = |f: fn(&SolveStats) -> u64| self.reference.iter().map(|(_, s)| f(s)).sum();
        vec![
            Layer::new("batch.solve_ms_p50", "ms", batch),
            Layer::new("api.request_ms_sum", "ms", api),
            Layer::new("core.solve_ms_sum", "ms", core),
            Layer::new("api.overhead_frac", "ratio", (api - core) / core),
            Layer::new(
                "batch.pool_efficiency",
                "ratio",
                api / (WORKERS as f64 * batch),
            ),
            Layer::count("core.wire_ops", sum(|s| s.wire_ops)),
            Layer::count("core.merge_ops", sum(|s| s.merge_ops)),
            Layer::count("core.addbuffer_ops", sum(|s| s.addbuffer_ops)),
            Layer::count("core.betas_generated", sum(|s| s.betas_generated)),
            Layer::new("netgen.generate_ms", "ms", p50_ms(tr, "netgen.generate")),
        ]
    }
}

impl Fleet {
    /// Net `n` as `BatchSolver` requests it, on the current thread.
    fn request(&mut self, n: usize) -> Result<fastbuf_core::Solution, String> {
        let outcome = self
            .session
            .request(&self.nets[n])
            .scenario(self.scenario.clone())
            .solve_in(&mut self.workspace)
            .map_err(|e| e.to_string())?;
        match outcome.scenarios.into_iter().next().map(|s| s.result) {
            Some(ScenarioResult::Solution(s)) => Ok(s),
            _ => Err("max-slack outcome without a solution".to_owned()),
        }
    }
}
