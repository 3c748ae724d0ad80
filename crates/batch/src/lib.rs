//! Parallel batch solving — fleets of nets through the O(bn²) kernel.
//!
//! The paper's algorithm is a *per-net* kernel, but real flows dispatch it
//! over thousands of nets per pass (buffered global routing, design-wide
//! repeater insertion). This crate is that throughput layer:
//!
//! * [`BatchSolver`] — takes many [`RoutingTree`](fastbuf_rctree::RoutingTree)s
//!   plus one shared [`BufferLibrary`](fastbuf_buflib::BufferLibrary) and
//!   fans them out across a worker pool. Every net is one request of one
//!   `fastbuf_api::Session` under one [`Scenario`](fastbuf_api::Scenario)
//!   named `"batch"`, whose algorithm, delay model and slew limit the
//!   solver's setters choose — the crate adds no option of its own. Work
//!   is dispatched **largest net first** through `fastbuf_core::par`, so
//!   big nets cannot straggle at the tail of the batch;
//! * per-worker reusable [`SolveWorkspace`](fastbuf_core::SolveWorkspace)s
//!   eliminate per-net allocation churn in the hot loop — after warm-up a
//!   worker solves nets with no steady-state heap traffic;
//! * [`BatchReport`] — per-net [`NetOutcome`]s in input order (the
//!   `fastbuf-api` per-net result: each net's prediction beside its
//!   forward measurement) plus batch aggregates (WNS/TNS, buffer count,
//!   cost, nets/sec), serializable to JSON for `fastbuf batch --json`.
//!
//! **Determinism:** nets are independent sub-problems, so the report is
//! bit-identical for every worker count — only the wall time changes. The
//! integration tests assert both batch-vs-sequential equivalence and
//! cross-worker-count determinism.
//!
//! # Quick start
//!
//! ```
//! use fastbuf_batch::BatchSolver;
//! use fastbuf_buflib::BufferLibrary;
//! use fastbuf_core::{Algorithm, Solver};
//! use fastbuf_netgen::SuiteSpec;
//!
//! // A reproducible 16-net suite with a realistic heavy-tailed size mix.
//! let nets = SuiteSpec { nets: 16, seed: 42, ..SuiteSpec::default() }.build();
//! let lib = BufferLibrary::paper_synthetic(8)?;
//!
//! let report = BatchSolver::new(&nets, &lib)
//!     .algorithm(Algorithm::LiShi)
//!     .workers(4)
//!     .solve();
//!
//! // Per-net results are identical to sequential single-net solves:
//! for outcome in &report.outcomes {
//!     let solo = Solver::new(&nets[outcome.index], &lib).solve();
//!     assert_eq!(outcome.slack, solo.slack);
//!     assert_eq!(outcome.placements, solo.placements);
//! }
//! println!("{report}");
//! # Ok::<(), fastbuf_buflib::LibraryError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod report;
mod solver;

pub use fastbuf_api::NetOutcome;
pub use report::BatchReport;
pub use solver::BatchSolver;
