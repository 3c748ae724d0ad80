//! The worker-pool batch solver.

use std::time::Instant;

use fastbuf_api::{NetOutcome, Scenario, Session};
use fastbuf_buflib::units::Seconds;
use fastbuf_buflib::BufferLibrary;
use fastbuf_core::{par, Algorithm, DelayModel, SolveWorkspace};
use fastbuf_rctree::RoutingTree;

use crate::report::BatchReport;

/// Solves a fleet of independent nets against one shared buffer library,
/// fanned out over a pool of worker threads.
///
/// Every net is solved as one request of one [`Session`] under the same
/// [`Scenario`]: `Scenario::named("batch")`, refined by
/// [`algorithm`](BatchSolver::algorithm),
/// [`delay_model`](BatchSolver::delay_model) and
/// [`slew_limit`](BatchSolver::slew_limit). A net's answer is therefore
/// bit-identical to `session.request(net).scenario(..).solve()` with that
/// scenario, work counters included.
///
/// Scheduling: nets go through [`fastbuf_core::par::map_ordered`]
/// **largest net first** (by node count), and an idle worker claims the
/// next-largest remaining net. Large nets therefore start earliest and
/// cannot straggle at the end of the batch, which is what limits speedup
/// under naive round-robin partitioning when net sizes are heavy-tailed.
///
/// Each worker owns one [`SolveWorkspace`], so after the first few nets a
/// worker solves with no steady-state allocation. Results are written back
/// by input index: the report is **deterministic and bit-identical for any
/// worker count** (nets are independent sub-problems; only the wall time
/// changes).
///
/// # Example
///
/// ```
/// use fastbuf_batch::BatchSolver;
/// use fastbuf_buflib::BufferLibrary;
/// use fastbuf_netgen::SuiteSpec;
///
/// let nets = SuiteSpec { nets: 12, seed: 5, ..SuiteSpec::default() }.build();
/// let lib = BufferLibrary::paper_synthetic(8)?;
/// let report = BatchSolver::new(&nets, &lib).workers(4).solve();
/// assert_eq!(report.outcomes.len(), 12);
/// // Every net improved (or kept) its slack:
/// assert!(report.outcomes.iter().all(|o| o.slack >= o.slack_before));
/// # Ok::<(), fastbuf_buflib::LibraryError>(())
/// ```
#[derive(Debug)]
pub struct BatchSolver<'a> {
    nets: &'a [RoutingTree],
    library: &'a BufferLibrary,
    /// Caps the worker threads (`None` = the hardware thread count);
    /// [`par::workers`] sizes the pool by the fleet's work.
    workers: Option<usize>,
    /// The one scenario every net is solved under: `"batch"`, with the
    /// algorithm, delay model and slew limit the setters chose.
    scenario: Scenario,
}

impl<'a> BatchSolver<'a> {
    /// Creates a batch solver with the default scenario (Li–Shi, Elmore,
    /// no slew limit) and a worker count sized by the hardware.
    pub fn new(nets: &'a [RoutingTree], library: &'a BufferLibrary) -> Self {
        BatchSolver {
            nets,
            library,
            workers: None,
            scenario: Scenario::named("batch"),
        }
    }

    /// Caps the worker count; [`par::workers`] still runs small fleets
    /// inline.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Selects the per-net algorithm (default [`Algorithm::LiShi`]).
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.scenario = self.scenario.algorithm(algorithm);
        self
    }

    /// Selects the wire-delay model for every net (default
    /// [`DelayModel::Elmore`]).
    #[must_use]
    pub fn delay_model(mut self, model: DelayModel) -> Self {
        self.scenario = self.scenario.delay_model(model);
        self
    }

    /// Sets (or, with a non-finite value, clears) the per-net maximum
    /// output slew.
    #[must_use]
    pub fn slew_limit(mut self, limit: Seconds) -> Self {
        self.scenario = self.scenario.slew_limit(limit);
        self
    }

    /// Solves every net and returns the aggregated report, with per-net
    /// outcomes in input order.
    ///
    /// Per-net solving is routed through the `fastbuf-api` request layer
    /// (one [`Session`] for the whole batch, one single-scenario
    /// `SolveRequest` per net through each worker's reusable workspace) —
    /// results are bit-identical to the legacy direct-`Solver` path, which
    /// the equivalence tests assert. Each net's [`NetOutcome`] is built by
    /// [`NetOutcome::measure`]: one unbuffered and one buffered forward
    /// evaluation under the batch's delay model.
    pub fn solve(&self) -> BatchReport {
        let start = Instant::now();
        let nets = self.nets;
        let library = self.library;
        let session = Session::new(library.clone());
        let work = nets.iter().map(RoutingTree::node_count).sum::<usize>() * library.len();
        let workers = par::workers(self.workers, nets.len(), work);

        // Largest-first dispatch (ties broken by index, so the schedule
        // itself is deterministic even though completion order is not).
        let order = par::largest_first(nets.len(), |i| nets[i].node_count());
        let mut workspaces: Vec<SolveWorkspace> =
            (0..workers).map(|_| SolveWorkspace::new()).collect();
        let outcomes = par::map_ordered(&order, &mut workspaces, |workspace, i| {
            let tree = &nets[i];
            let outcome = session
                .request(tree)
                .scenario(self.scenario.clone())
                .solve_in(workspace)
                .expect("a validated max-slack scenario cannot fail");
            NetOutcome::measure(i, tree, library, &outcome.scenarios[0])
                .expect("a solved net evaluates forward")
        });
        BatchReport::from_outcomes(outcomes, &self.scenario, workers, start.elapsed())
    }
}
