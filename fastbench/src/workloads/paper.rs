//! `paper`: the paper's Table 1 1944-sink net at scale 0.25 with b = 64.
//!
//! Each op is one `Session::request(..).workers(1).solve()`; hull build
//! and walk plus the β merge-insert do almost all of the work, so this is
//! the workload a kernel change moves. The traced run also solves with
//! Lillis's O(b²n²) algorithm, the paper's baseline, as the anchor row.

use fastbuf_api::{Outcome, Session, SolveError};
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{Algorithm, Solution, SolveWorkspace, Solver};
use fastbuf_netgen::RandomNetSpec;
use fastbuf_rctree::RoutingTree;

use super::{counters, maybe_span, p50_ms, same_bits, Layer, Workload, INPUT_SEED};
use crate::trace::{Tracer, SETUP_OP};

/// Sinks of the paper's 1944-sink net at scale 0.25.
const SINKS: usize = 486;
/// Buffer positions per sink on the paper's 1944-sink net.
const SITES_PER_SINK: usize = 17;
/// Library size of the paper's largest Table 1 column.
const LIBRARY: usize = 64;
/// A traced run solves with Lillis once per this many ops (each such
/// solve costs about ten Li–Shi solves).
const LILLIS_EVERY: usize = 8;

pub struct Paper {
    tree: RoutingTree,
    library: BufferLibrary,
    session: Session,
    reference: Solution,
    workspace: SolveWorkspace,
    /// Per traced Lillis solve: (Lillis work, Li–Shi work).
    work: Vec<(u64, u64)>,
}

impl Workload for Paper {
    const NAME: &'static str = "paper";
    const RATE: f64 = 26.0;
    const SETUPS: usize = 21;
    type Setup = (RoutingTree, BufferLibrary, Session);
    type Out = Result<Outcome, SolveError>;

    fn setup(_ops: usize, tr: &mut Tracer) -> Result<Self::Setup, String> {
        let tree = tr.span("netgen.generate", SETUP_OP, |_| {
            RandomNetSpec {
                seed: INPUT_SEED,
                ..RandomNetSpec::paper(SINKS)
            }
            .with_target_positions(SINKS * SITES_PER_SINK)
            .build()
        });
        let library = BufferLibrary::paper_synthetic(LIBRARY).map_err(|e| e.to_string())?;
        let session = Session::new(library.clone());
        Ok((tree, library, session))
    }

    fn prepare((tree, library, session): Self::Setup, tr: &mut Tracer) -> Result<Self, String> {
        let mut workspace = SolveWorkspace::new();
        let reference = tr.span("reference", SETUP_OP, |_| {
            Solver::new(&tree, &library).solve_with(&mut workspace)
        });
        Ok(Paper {
            tree,
            library,
            session,
            reference,
            workspace,
            work: Vec::new(),
        })
    }

    fn op(&mut self, i: usize, mut tr: Option<&mut Tracer>) -> Self::Out {
        maybe_span(&mut tr, "api.request", i, || {
            self.session.request(&self.tree).workers(1).solve()
        })
    }

    fn check(&mut self, _i: usize, out: Self::Out) -> Result<(), String> {
        let outcome = out.map_err(|e| e.to_string())?;
        let s = outcome
            .solution()
            .ok_or("max-slack outcome without a solution")?;
        self.matches_reference("api request", s)
    }

    fn replay(&mut self, i: usize, tr: &mut Tracer) -> Result<(), String> {
        let lishi = tr.span("core.solve", i as u64, |_| {
            Solver::new(&self.tree, &self.library).solve_with(&mut self.workspace)
        });
        self.matches_reference("core solve", &lishi)?;
        if i % LILLIS_EVERY == LILLIS_EVERY / 2 {
            let lillis = tr.span("core.solve_lillis", i as u64, |_| {
                Solver::new(&self.tree, &self.library)
                    .algorithm(Algorithm::Lillis)
                    .solve_with(&mut self.workspace)
            });
            // Theorem 1: both algorithms reach the same optimum.
            same_bits(
                "Lillis slack",
                lillis.slack.value(),
                self.reference.slack.value(),
            )?;
            self.work
                .push((lillis.stats.addbuffer_work(), lishi.stats.addbuffer_work()));
        }
        Ok(())
    }

    fn layers(&self, tr: &Tracer) -> Vec<Layer> {
        let core = p50_ms(tr, "core.solve");
        let api = p50_ms(tr, "api.request");
        let s = &self.reference.stats;
        let (lillis_work, lishi_work) = self.work.first().copied().unwrap_or((0, 1));
        vec![
            Layer::new("core.solve_ms_p50", "ms", core),
            Layer::new("api.request_ms_p50", "ms", api),
            Layer::new("api.overhead_ms", "ms", api - core),
            Layer::count("core.wire_ops", s.wire_ops),
            Layer::count("core.merge_ops", s.merge_ops),
            Layer::count("core.addbuffer_ops", s.addbuffer_ops),
            Layer::count("core.hull_input_candidates", s.hull_input_candidates),
            Layer::count("core.hull_walk_steps", s.hull_walk_steps),
            Layer::count("core.betas_generated", s.betas_generated),
            Layer::count("core.max_list_len", s.max_list_len as u64),
            Layer::new("core.slab_bytes_peak", "bytes", s.slab_bytes_peak as f64),
            Layer::new(
                "core.lillis_over_lishi_work",
                "ratio",
                lillis_work as f64 / lishi_work as f64,
            ),
            Layer::new(
                "core.lillis_over_lishi_time",
                "ratio",
                p50_ms(tr, "core.solve_lillis") / core,
            ),
            Layer::new("netgen.generate_ms", "ms", p50_ms(tr, "netgen.generate")),
        ]
    }
}

impl Paper {
    /// Same slack bits, placements and work counters as the set-up
    /// reference.
    fn matches_reference(&self, what: &str, s: &Solution) -> Result<(), String> {
        same_bits(what, s.slack.value(), self.reference.slack.value())?;
        if s.placements != self.reference.placements {
            return Err(format!("{what}: placements differ from the reference"));
        }
        if counters(&s.stats) != counters(&self.reference.stats) {
            return Err(format!("{what}: work counters differ from the reference"));
        }
        Ok(())
    }
}
