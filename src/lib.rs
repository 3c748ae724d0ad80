//! # fastbuf — optimal buffer insertion for interconnect delay
//!
//! A Rust implementation of the van Ginneken family of buffer-insertion
//! algorithms, reproducing **Li & Shi, "An O(bn²) Time Algorithm for
//! Optimal Buffer Insertion with b Buffer Types", DATE 2005**:
//!
//! * [`Algorithm::Lillis`] — the Lillis–Cheng–Lin O(b²n²) multi-type
//!   algorithm (and van Ginneken's O(n²) original when `b = 1`);
//! * [`Algorithm::LiShi`] — the paper's O(bn²) algorithm: at each buffer
//!   position, the candidates that spawn buffered candidates lie on the
//!   convex hull of the `(Q, C)` set, so one Graham scan plus one monotone
//!   walk replaces `b` full scans;
//! * [`Algorithm::LiShiPermanent`] — the paper's published pruning
//!   verbatim (see `docs/ALGORITHM.md` §5 for why the default keeps the
//!   full list);
//! * [`cost::CostSolver`] — the slack-vs-cost Pareto frontier (the cost
//!   extension the paper's conclusion sketches).
//!
//! This facade crate re-exports the workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`api`] | `fastbuf-api` | **the front door**: `Session`, `SolveRequest`, multi-scenario `Outcome`, `Session::eco` |
//! | [`buflib`] | `fastbuf-buflib` | units, buffers, libraries, technology |
//! | [`rctree`] | `fastbuf-rctree` | routing trees, delay models, Elmore evaluation, segmenting, net files |
//! | (root) | `fastbuf-core` | the solvers themselves (plus the `SubtreeCache` seam) |
//! | [`netgen`] | `fastbuf-netgen` | deterministic synthetic nets, suites, and ECO edit scripts |
//! | [`batch`] | `fastbuf-batch` | parallel batch solving of net fleets over a worker pool |
//! | [`incremental`] | `fastbuf-incremental` | incremental (ECO) re-solving with per-subtree caching, bit-identical to scratch |
//! | [`global`] | `fastbuf-global` | design-level resource-constrained buffering: a Lagrangian pricing loop over shared site capacities |
//! | [`server`] | `fastbuf-server` | `fastbuf serve`: resident solve-as-a-service daemon (warm sessions, v1 wire protocol) |
//!
//! # Quick start
//!
//! ```
//! use fastbuf::prelude::*;
//!
//! // A 12 mm two-pin net with 11 candidate buffer positions.
//! let lib = BufferLibrary::paper_synthetic(16)?;
//! let tree = fastbuf::netgen::line_net(Microns::new(12_000.0), 11);
//!
//! // The unified request API: a cheap-to-clone Session plus typed,
//! // Result-returning requests (multi-scenario capable — see
//! // `fastbuf::api`).
//! let session = Session::new(lib);
//! let outcome = session.request(&tree).solve()?;
//! assert!(!outcome.solution().unwrap().placements.is_empty());
//! outcome.verify(&tree, session.library())?; // model-aware cross-check
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The legacy single-net path is still available and bit-identical to a
//! one-scenario request:
//!
//! ```
//! use fastbuf::prelude::*;
//! # let lib = BufferLibrary::paper_synthetic(16)?;
//! # let tree = fastbuf::netgen::line_net(Microns::new(12_000.0), 11);
//! let solution = Solver::new(&tree, &lib).solve();
//! solution.verify(&tree, &lib)?; // Elmore-only shim; see api::Outcome::verify
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `examples/` for realistic scenarios (clock trees, buses, cost
//! trade-offs, net files) and `crates/bench` for the harnesses that
//! regenerate the paper's Table 1 and Figures 3–4.

#![deny(missing_docs)]

pub use fastbuf_api as api;
pub use fastbuf_batch as batch;
pub use fastbuf_buflib as buflib;
pub use fastbuf_global as global;
pub use fastbuf_incremental as incremental;
pub use fastbuf_netgen as netgen;
pub use fastbuf_rctree as rctree;
pub use fastbuf_server as server;

pub use fastbuf_core::cost;
pub use fastbuf_core::polarity;
pub use fastbuf_core::skew;
pub use fastbuf_core::{
    Algorithm, Candidate, DelayModel, Placement, PredArena, PredEntry, PredRef, Solution,
    SolveStats, SolveWorkspace, Solver, SolverOptions, SubtreeCache, VerifyError,
};

/// One-stop imports for applications: the request API, solver, library,
/// tree-building and unit types.
pub mod prelude {
    pub use fastbuf_api::{
        EcoSolver, Objective, Outcome, Scenario, ScenarioOutcome, ScenarioResult, Session,
        SolveError, SolveRequest,
    };
    pub use fastbuf_batch::{BatchReport, BatchSolver};
    pub use fastbuf_buflib::units::{Farads, Microns, Ohms, Seconds};
    pub use fastbuf_buflib::{
        BufferLibrary, BufferSet, BufferType, BufferTypeId, Driver, Technology,
    };
    pub use fastbuf_core::cost::CostSolver;
    pub use fastbuf_core::polarity::{Polarity, PolaritySolver};
    pub use fastbuf_core::skew::{SkewSolution, SkewSolver};
    pub use fastbuf_core::{
        Algorithm, DelayModel, Solution, SolveWorkspace, Solver, SolverOptions, SubtreeCache,
    };
    pub use fastbuf_global::{
        GlobalNet, GlobalOptions, GlobalReport, GlobalSolver, SiteCapacityMap,
    };
    pub use fastbuf_incremental::{EcoError, Edit, EditScriptSpec, IncrementalSolver};
    pub use fastbuf_rctree::{NodeId, NodeKind, RoutingTree, SiteConstraint, TreeBuilder, Wire};
}
